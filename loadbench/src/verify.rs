//! Answer checks: every reply is verified before it counts.

use msropm_core::BatchJob;
use msropm_graph::Graph;
use msropm_problems::{DecodedSolution, ObjectiveSense, ProblemClass};
use msropm_server::proto::{self, WireProblemReport, WireReport};

use crate::gen::ProblemInstance;

/// Checks a coloring report against the job that produced it: echoed
/// id, graph hash and seed; one ranked entry per lane with its derived
/// seed; conflicts recounted with [`proto::verify_lane`]; accuracy
/// consistent with them; and ranking by `(conflicts, lane)`.
pub fn check_report(
    graph: &Graph,
    graph_hash: u64,
    job: &BatchJob,
    job_id: u64,
    report: &WireReport,
) -> Result<(), String> {
    if report.job_id != job_id {
        return Err(format!(
            "report for job {} answered job {job_id}",
            report.job_id
        ));
    }
    if report.graph_hash != graph_hash {
        return Err(format!("job {job_id}: graph hash mismatch"));
    }
    if report.seed != job.seed {
        return Err(format!("job {job_id}: seed not echoed"));
    }
    if report.ranked.len() != job.lanes.len() {
        return Err(format!(
            "job {job_id}: {} ranked lanes for {} submitted",
            report.ranked.len(),
            job.lanes.len()
        ));
    }
    let seeds = job.lane_seeds();
    let mut seen = vec![false; seeds.len()];
    let edges = graph.num_edges();
    for lane in &report.ranked {
        let idx = lane.lane as usize;
        if idx >= seeds.len() || std::mem::replace(&mut seen[idx], true) {
            return Err(format!("job {job_id}: lane {idx} missing or repeated"));
        }
        if lane.seed != seeds[idx] {
            return Err(format!("job {job_id}: lane {idx} seed mismatch"));
        }
        if lane
            .coloring
            .iter()
            .any(|&c| c as usize >= job.config.num_colors)
        {
            return Err(format!(
                "job {job_id}: lane {idx} uses a color outside the palette"
            ));
        }
        match proto::verify_lane(graph, lane) {
            Some(c) if c == lane.conflicts => {}
            other => {
                return Err(format!(
                    "job {job_id}: lane {idx} reports {} conflicts, recount gives {other:?}",
                    lane.conflicts
                ))
            }
        }
        let accuracy = if edges == 0 {
            1.0
        } else {
            (edges as u64 - lane.conflicts) as f64 / edges as f64
        };
        if accuracy.to_bits() != lane.accuracy.to_bits() {
            return Err(format!("job {job_id}: lane {idx} accuracy inconsistent"));
        }
    }
    let ordered = report
        .ranked
        .windows(2)
        .all(|w| (w[0].conflicts, w[0].lane) < (w[1].conflicts, w[1].lane));
    if !ordered {
        return Err(format!(
            "job {job_id}: lanes not ranked by (conflicts, lane)"
        ));
    }
    Ok(())
}

/// Checks a decoded problem report: class, fingerprint, encoding-graph
/// hash and seed echoes; one entry per replica with its derived seed;
/// every objective recomputed with `Decoder::objective_of`; and ranking
/// by objective (in the class's sense), then lane.
pub fn check_problem_report(
    inst: &ProblemInstance,
    seed: u64,
    replicas: usize,
    job_id: u64,
    wire: &WireProblemReport,
) -> Result<(), String> {
    let report = &wire.report;
    if wire.job_id != job_id {
        return Err(format!(
            "report for job {} answered job {job_id}",
            wire.job_id
        ));
    }
    if report.class != inst.class {
        return Err(format!(
            "job {job_id}: class {} for a {} job",
            report.class, inst.class
        ));
    }
    if report.problem_fingerprint != inst.spec.fingerprint() {
        return Err(format!("job {job_id}: problem fingerprint mismatch"));
    }
    if report.graph_hash != inst.encoding_hash {
        return Err(format!("job {job_id}: encoding graph hash mismatch"));
    }
    if report.seed != seed {
        return Err(format!("job {job_id}: seed not echoed"));
    }
    if report.ranked.len() != replicas {
        return Err(format!(
            "job {job_id}: {} lanes for {replicas}",
            report.ranked.len()
        ));
    }
    // Lane seeds depend only on the job seed and the lane count.
    let seeds = BatchJob::uniform(Default::default(), replicas, seed).lane_seeds();
    let mut seen = vec![false; replicas];
    for lane in &report.ranked {
        let idx = lane.lane as usize;
        if idx >= replicas || std::mem::replace(&mut seen[idx], true) {
            return Err(format!("job {job_id}: lane {idx} missing or repeated"));
        }
        if lane.seed != seeds[idx] {
            return Err(format!("job {job_id}: lane {idx} seed mismatch"));
        }
        match inst.decoder.objective_of(&lane.solution) {
            Some(obj) if obj.to_bits() == lane.objective.to_bits() => {}
            other => {
                return Err(format!(
                    "job {job_id}: lane {idx} reports objective {}, recomputed {other:?}",
                    lane.objective
                ))
            }
        }
    }
    let sense = inst.class.sense();
    let ordered = report.ranked.windows(2).all(|w| {
        let ord = w[0].objective.total_cmp(&w[1].objective);
        let ord = match sense {
            ObjectiveSense::Minimize => ord,
            ObjectiveSense::Maximize => ord.reverse(),
        };
        ord.then(w[0].lane.cmp(&w[1].lane)).is_lt()
    });
    if !ordered {
        return Err(format!(
            "job {job_id}: lanes not ranked by (objective, lane)"
        ));
    }
    Ok(())
}

/// Best and worst objective of a small binary problem, by enumerating
/// every well-formed solution through `Decoder::objective_of`; `None`
/// for classes whose solutions are not binary vectors.
fn brute_force_range(inst: &ProblemInstance) -> Option<(f64, f64)> {
    let n = inst.spec.domain_size();
    assert!(n <= 20, "brute force over {n} variables");
    let build = |x: u64| -> Option<DecodedSolution> {
        let bits: Vec<bool> = (0..n).map(|i| x >> i & 1 == 1).collect();
        Some(match inst.class {
            ProblemClass::MaxCut => DecodedSolution::CutSides(bits),
            ProblemClass::NumberPartition => DecodedSolution::Partition(bits),
            ProblemClass::CnfSat => DecodedSolution::Assignment(bits),
            ProblemClass::Qubo | ProblemClass::Ising => DecodedSolution::Spins(bits),
            ProblemClass::Mis | ProblemClass::VertexCover => {
                DecodedSolution::Subset((0..n as u32).filter(|&i| bits[i as usize]).collect())
            }
            ProblemClass::Coloring | ProblemClass::MaxKCut => return None,
        })
    };
    let sense = inst.class.sense();
    let mut range: Option<(f64, f64)> = None;
    for x in 0..1u64 << n {
        let Some(obj) = inst.decoder.objective_of(&build(x)?) else {
            continue;
        };
        let (best, worst) = range.unwrap_or((obj, obj));
        range = Some(match sense {
            ObjectiveSense::Minimize => (best.min(obj), worst.max(obj)),
            ObjectiveSense::Maximize => (best.max(obj), worst.min(obj)),
        });
    }
    range
}

/// Quality of a problem answer's best lane: `(score, exact)`, the score
/// being the objective normalised between the instance's worst (0) and
/// best (1) values, and `exact` whether it reaches the optimum.
pub fn problem_quality(inst: &ProblemInstance, best_objective: f64) -> (f64, bool) {
    if let Some(edges) = inst.planted_edges {
        // Planted 4-colorable graphs: 0 conflicts and all edges cut are
        // the optima; the score is the satisfied-edge fraction.
        let satisfied = match inst.class {
            ProblemClass::Coloring => edges as f64 - best_objective,
            _ => best_objective,
        };
        return (satisfied / edges as f64, satisfied == edges as f64);
    }
    let (best, worst) = brute_force_range(inst).expect("binary classes enumerate");
    if best == worst {
        return (1.0, true);
    }
    let score = (worst - best_objective) / (worst - best);
    (score, best_objective == best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_core::{BatchArena, Msropm, MsropmConfig};
    use msropm_graph::{generators, graph_hash};
    use msropm_server::JobOutcome;

    fn solved(graph: &Graph) -> (BatchJob, WireReport) {
        let config = MsropmConfig {
            dt: 0.2,
            ..MsropmConfig::paper_default()
        };
        let job = BatchJob::uniform(config, 3, 9);
        let report = job.run(&Msropm::new(graph, config), &mut BatchArena::new());
        let outcome = JobOutcome {
            report,
            timing: msropm_server::JobTiming {
                queued: Default::default(),
                service: Default::default(),
            },
        };
        (job, WireReport::from_outcome(5, &outcome))
    }

    #[test]
    fn genuine_reports_pass_and_tampered_ones_fail() {
        let g = generators::kings_graph(5, 5);
        let h = graph_hash(&g);
        let (job, report) = solved(&g);
        check_report(&g, h, &job, 5, &report).expect("genuine report");

        let mut bad = report.clone();
        bad.ranked[0].coloring[0] ^= 1;
        assert!(
            check_report(&g, h, &job, 5, &bad).is_err(),
            "recolored node"
        );
        let mut bad = report.clone();
        bad.ranked.swap(0, 2);
        assert!(check_report(&g, h, &job, 5, &bad).is_err(), "misranked");
        assert!(check_report(&g, h ^ 1, &job, 5, &report).is_err(), "hash");
        assert!(check_report(&g, h, &job, 6, &report).is_err(), "job id");
    }
}
