//! The traced replay: per-layer metrics.
//!
//! A sample of the workload's own requests is replayed in-process, one
//! at a time, through the same public functions the server runs —
//! codec, problem compiler, cache, stage driver, ranking, decoder — with
//! a span around each call. Layers a workload does not touch are
//! measured on its own inputs in separate `probe` spans, outside the
//! replayed requests. Queueing, transport, polling and generator lag
//! come from the served run, which the replay cannot reproduce.

use msropm_client::http::problem_report_from_json;
use msropm_core::pool::ShardPool;
use msropm_core::{
    BatchArena, BatchJob, JobReport, Msropm, MsropmConfig, MsropmSolution, ProblemCache,
    RankedLane, ShardedArena, SolveOptions,
};
use msropm_graph::{graph_hash, Graph};
use msropm_osc::batch::{BatchIntegrator, BatchKernel};
use msropm_osc::fxkernel::{phase_to_turns, FxBatchIntegrator, FxBatchKernel};
use msropm_osc::PhaseNetwork;
use msropm_problems::json::{self, Json};
use msropm_problems::DecodedSolution;
use msropm_server::http::HttpParser;
use msropm_server::proto::{self, Request, Response, WireProblemReport, WireReport};
use msropm_server::{JobOutcome, JobTiming};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{self, ProblemInstance, Stream, Workload, PROBLEM_REPLICAS, TENANT};
use crate::run::Served;
use crate::stats::{self, median};
use crate::trace::{self, Span, Tracer};
use crate::verify;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What the traced replay reports.
#[derive(Debug)]
pub struct Replay {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Requests replayed (each checked like a served answer).
    pub replayed: u64,
    /// Failed replays and accounting checks.
    pub errors: Vec<String>,
}

/// Stage span names, by stage number.
const STAGE_SPANS: [&str; 8] = [
    "core.stage1",
    "core.stage2",
    "core.stage3",
    "core.stage4",
    "core.stage5",
    "core.stage6",
    "core.stage7",
    "core.stage8",
];

/// Replayed requests attribute at least this share of their latency to
/// layer spans.
const MIN_ATTRIBUTED: f64 = 0.9;

/// Solver-side observations collected during the replay.
#[derive(Debug, Default)]
struct Observed {
    stage1_cut_fraction: Vec<f64>,
    max_lock_error: Vec<f64>,
    submit_bytes: Vec<f64>,
    report_bytes: Vec<f64>,
}

impl Observed {
    fn note(&mut self, sols: &[MsropmSolution]) {
        for sol in sols {
            if let Some(s1) = sol.stages.first() {
                if s1.active_edges > 0 {
                    self.stage1_cut_fraction
                        .push(s1.cut_value as f64 / s1.active_edges as f64);
                }
            }
            let worst = sol
                .stages
                .iter()
                .map(|s| s.max_lock_error)
                .fold(0.0, f64::max);
            self.max_lock_error.push(worst);
        }
    }
}

/// Ranks lanes as the server does: conflicts recounted per lane, then a
/// stable sort by conflicts (ties keep lane order).
fn rank(graph: &Graph, job: &BatchJob, seeds: &[u64], sols: Vec<MsropmSolution>) -> JobReport {
    let m = graph.num_edges();
    let mut ranked: Vec<RankedLane> = sols
        .into_iter()
        .enumerate()
        .map(|(lane, solution)| {
            let conflicts = solution.coloring.conflicts(graph);
            let accuracy = if m == 0 {
                1.0
            } else {
                (m - conflicts) as f64 / m as f64
            };
            RankedLane {
                lane,
                seed: seeds[lane],
                conflicts,
                accuracy,
                solution,
            }
        })
        .collect();
    ranked.sort_by_key(|r| r.conflicts);
    JobReport {
        graph_hash: graph_hash(graph),
        seed: job.seed,
        ranked,
    }
}

/// The stage driver and ranking, with one span per stage (split at the
/// solver's stage-boundary hook) and one for ranking.
fn solve_and_rank(
    t: &mut Tracer,
    obs: &mut Observed,
    machine: &Msropm,
    job: &BatchJob,
    arena: &mut BatchArena,
) -> JobReport {
    let seeds = job.lane_seeds();
    let sols = t.span("core.solve", |t| {
        let start = Instant::now();
        let mut bounds = Vec::new();
        let sols = machine
            .solve_batch_lanes_arena_cancellable_with(&job.lanes, &seeds, arena, || {
                bounds.push(Instant::now());
                false
            })
            .expect("a hook that never cancels yields a solve");
        bounds.push(Instant::now());
        let mut prev = start;
        for (name, &end) in STAGE_SPANS.iter().zip(&bounds) {
            t.record(name, prev, end);
            prev = end;
        }
        sols
    });
    obs.note(&sols);
    t.span("core.rank", |_| rank(machine.graph(), job, &seeds, sols))
}

/// Cache lookup (a hit or a miss span) and, on a miss, the compile.
fn cached_machine(
    t: &mut Tracer,
    cache: &mut ProblemCache,
    graph: &Graph,
    config: &MsropmConfig,
    fingerprint: u64,
) -> Arc<Msropm> {
    let start = Instant::now();
    let hit = cache.lookup_problem(graph, config, fingerprint);
    let end = Instant::now();
    t.record(
        if hit.is_some() {
            "cache.lookup_hit"
        } else {
            "cache.lookup_miss"
        },
        start,
        end,
    );
    hit.unwrap_or_else(|| {
        let machine = t.span("cache.compile", |_| Arc::new(Msropm::new(graph, *config)));
        cache.intern_problem(machine, fingerprint)
    })
}

/// Replays one raw-graph binary-protocol job.
fn replay_graph_job(
    t: &mut Tracer,
    obs: &mut Observed,
    cache: &mut ProblemCache,
    arena: &mut BatchArena,
    graph: &Graph,
    hash: u64,
    job: &BatchJob,
) -> Result<(), String> {
    let req = Request::Submit {
        tenant: TENANT.into(),
        graph: graph.clone(),
        job: job.clone(),
        deadline_ms: 0,
    };
    t.span("request", |t| {
        let bytes = t.span("proto.submit_encode", |_| proto::encode_request(&req));
        obs.submit_bytes.push(bytes.len() as f64);
        let decoded = t
            .span("proto.submit_decode", |_| proto::decode_request(&bytes))
            .map_err(|e| format!("replayed submit does not decode: {e}"))?;
        let Request::Submit {
            graph: g, job: j, ..
        } = decoded
        else {
            return Err("replayed submit decoded as another verb".into());
        };
        let machine = cached_machine(t, cache, &g, &j.config, 0);
        let report = solve_and_rank(t, obs, &machine, &j, arena);
        let bytes = t.span("proto.report_encode", |_| {
            let outcome = JobOutcome {
                report,
                timing: JobTiming {
                    queued: Duration::ZERO,
                    service: Duration::ZERO,
                },
            };
            proto::encode_response(&Response::Report(WireReport::from_outcome(1, &outcome)))
        });
        obs.report_bytes.push(bytes.len() as f64);
        let Ok(Response::Report(report)) =
            t.span("proto.report_decode", |_| proto::decode_response(&bytes))
        else {
            return Err("replayed report does not decode".into());
        };
        t.span("client.verify", |_| {
            verify::check_report(graph, hash, job, 1, &report)
        })
    })
}

/// Which codec a problem replay goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    Http,
    Binary,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// The gateway's rendering of a problem report (`GET /v1/jobs/{id}` body):
/// a copy of the server's, which is private to `msropm_server::http`.
fn problem_report_json(report: &WireProblemReport) -> Json {
    let lanes = report
        .report
        .ranked
        .iter()
        .map(|lane| {
            let (kind, values) = match &lane.solution {
                DecodedSolution::Coloring(c) => {
                    ("coloring", c.iter().map(|&x| num(f64::from(x))).collect())
                }
                DecodedSolution::Subset(s) => {
                    ("subset", s.iter().map(|&x| num(f64::from(x))).collect())
                }
                DecodedSolution::CutSides(b) => ("cut_sides", bools(b)),
                DecodedSolution::Partition(b) => ("partition", bools(b)),
                DecodedSolution::Assignment(b) => ("assignment", bools(b)),
                DecodedSolution::Spins(b) => ("spins", bools(b)),
            };
            Json::Obj(vec![
                ("lane".into(), num(f64::from(lane.lane))),
                ("seed".into(), Json::u64_str(lane.seed)),
                ("objective".into(), num(lane.objective)),
                ("feasible".into(), Json::Bool(lane.feasible)),
                (
                    "solution".into(),
                    Json::Obj(vec![
                        ("kind".into(), Json::Str(kind.into())),
                        ("values".into(), Json::Arr(values)),
                    ]),
                ),
            ])
        })
        .collect();
    let r = &report.report;
    Json::Obj(vec![
        ("type".into(), Json::Str("problem_report".into())),
        ("job_id".into(), num(report.job_id as f64)),
        ("queued_us".into(), num(report.queued_us as f64)),
        ("service_us".into(), num(report.service_us as f64)),
        ("class".into(), Json::Str(r.class.name().into())),
        (
            "problem_fingerprint".into(),
            Json::u64_str(r.problem_fingerprint),
        ),
        ("graph_hash".into(), Json::u64_str(r.graph_hash)),
        ("seed".into(), Json::u64_str(r.seed)),
        ("ranked".into(), Json::Arr(lanes)),
    ])
}

fn bools(b: &[bool]) -> Vec<Json> {
    b.iter().map(|&x| Json::Bool(x)).collect()
}

/// Replays one problem job through `transport`, under a span named
/// `root`.
#[allow(clippy::too_many_arguments)]
fn replay_problem(
    t: &mut Tracer,
    obs: &mut Observed,
    cache: &mut ProblemCache,
    arena: &mut BatchArena,
    root: &'static str,
    transport: Transport,
    inst: &ProblemInstance,
    config: &MsropmConfig,
    seed: u64,
) -> Result<(), String> {
    let replicas = PROBLEM_REPLICAS;
    let http_request = {
        let body = gen::problem_body(inst, seed);
        format!(
            "POST /v1/problems HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let binary_request = Request::SubmitProblem {
        tenant: TENANT.into(),
        spec: inst.spec.clone(),
        config: *config,
        replicas: replicas as u32,
        seed,
        deadline_ms: 0,
    };
    t.span(root, |t| {
        let spec = match transport {
            Transport::Http => {
                let req = t
                    .span("http.parse", |_| {
                        let mut parser = HttpParser::new();
                        parser.push(http_request.as_bytes());
                        parser.next_request()
                    })
                    .map_err(|e| format!("replayed request does not parse: {e:?}"))?
                    .ok_or("replayed request is incomplete")?;
                let (class, input, k) = t
                    .span("http.body_decode", |_| {
                        let body = std::str::from_utf8(&req.body).ok()?;
                        let j = json::parse(body).ok()?;
                        let class =
                            msropm_problems::ProblemClass::from_name(j.get("class")?.as_str()?)?;
                        let input = j.get("input")?.as_str()?.to_string();
                        let k = j.get("k").and_then(Json::as_u64).unwrap_or(0) as u16;
                        Some((class, input, k))
                    })
                    .ok_or("replayed body lacks a field")?;
                t.span("problems.parse", |_| {
                    msropm_problems::ProblemSpec::from_text(class, &input, k)
                })
                .map_err(|e| format!("replayed input does not parse: {e}"))?
            }
            Transport::Binary => {
                let bytes = t.span("proto.submit_encode", |_| {
                    proto::encode_request(&binary_request)
                });
                obs.submit_bytes.push(bytes.len() as f64);
                match t.span("proto.submit_decode", |_| proto::decode_request(&bytes)) {
                    Ok(Request::SubmitProblem { spec, .. }) => spec,
                    _ => return Err("replayed problem submit does not decode".into()),
                }
            }
        };
        let compiled = t
            .span("problems.compile", |_| spec.compile(config, replicas))
            .map_err(|e| format!("replayed spec does not compile: {e}"))?;
        let machine = cached_machine(
            t,
            cache,
            &compiled.graph,
            &compiled.config,
            compiled.fingerprint,
        );
        let job = BatchJob {
            config: compiled.config,
            lanes: compiled.lanes,
            seed,
        };
        let report = solve_and_rank(t, obs, &machine, &job, arena);
        let decoded = t.span("problems.decode", |_| {
            compiled.decoder.decode_report(&report)
        });
        let wire = WireProblemReport {
            job_id: 1,
            queued_us: 0,
            service_us: 0,
            report: decoded,
        };
        let answer = match transport {
            Transport::Http => {
                let text = t.span("http.report_render", |_| {
                    let body = Json::Obj(vec![
                        ("job_id".into(), num(1.0)),
                        ("state".into(), Json::Str("done".into())),
                        ("report".into(), problem_report_json(&wire)),
                    ])
                    .render();
                    format!(
                        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                         content-length: {}\r\n\r\n{body}",
                        body.len()
                    )
                });
                t.span("client.report_parse", |_| {
                    let body = text.split_once("\r\n\r\n")?.1;
                    let j = json::parse(body).ok()?;
                    problem_report_from_json(j.get("report")?).ok()
                })
                .ok_or("replayed HTTP report does not parse")?
            }
            Transport::Binary => {
                let bytes = t.span("proto.report_encode", |_| {
                    proto::encode_response(&Response::ProblemReport(wire))
                });
                obs.report_bytes.push(bytes.len() as f64);
                match t.span("proto.report_decode", |_| proto::decode_response(&bytes)) {
                    Ok(Response::ProblemReport(r)) => r,
                    _ => return Err("replayed problem report does not decode".into()),
                }
            }
        };
        t.span("client.verify", |_| {
            verify::check_problem_report(inst, seed, replicas, 1, &answer)
        })
    })
}

/// Time per call of `f`: the median over five batches of calls that
/// together take about `budget`.
fn time_per_call(mut f: impl FnMut(), budget: Duration) -> f64 {
    f();
    let t = Instant::now();
    f();
    let est = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((budget.as_secs_f64() / 5.0 / est) as usize).max(1);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&batches).expect("five batches")
}

/// ns per edge·lane·step of both backends' drift evaluation ("kernel")
/// and full Euler–Maruyama step ("step") on `graph` with `lanes` lanes.
fn kernel_rates(graph: &Graph, config: &MsropmConfig, lanes: usize) -> [f64; 4] {
    let net = PhaseNetwork::builder(graph)
        .coupling_strength(config.coupling_strength)
        .noise(config.noise)
        .build();
    let n = graph.num_nodes();
    let per = 1e9 / (graph.num_edges().max(1) * lanes) as f64;
    let budget = Duration::from_millis(150);
    let mut rng = StdRng::seed_from_u64(1);
    let phases: Vec<f64> = (0..n * lanes)
        .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
        .collect();
    let mut rngs: Vec<StdRng> = (0..lanes)
        .map(|l| StdRng::seed_from_u64(l as u64))
        .collect();

    let fx = FxBatchKernel::new(&net, lanes, config.dt);
    let q: Vec<i32> = phases.iter().map(|&p| phase_to_turns(p)).collect();
    let (mut dq, mut scratch_q) = (vec![0i32; q.len()], Vec::new());
    let fx_kernel = time_per_call(
        || {
            fx.drift_into(std::hint::black_box(&q), &mut dq, &mut scratch_q);
            std::hint::black_box(&dq);
        },
        budget,
    );
    let mut fx_int = FxBatchIntegrator::new();
    let mut yq = q.clone();
    let fx_step = time_per_call(
        || {
            fx_int.step(&fx, &mut yq, &mut rngs);
            std::hint::black_box(&yq);
        },
        budget,
    );

    let f64k = BatchKernel::new(&net, lanes);
    let (mut dy, mut scratch) = (vec![0.0; phases.len()], Vec::new());
    let f64_kernel = time_per_call(
        || {
            f64k.drift_into(std::hint::black_box(&phases), &mut dy, &mut scratch);
            std::hint::black_box(&dy);
        },
        budget,
    );
    let mut int = BatchIntegrator::new();
    let mut y = phases.clone();
    let f64_step = time_per_call(
        || {
            int.step(&f64k, &mut y, config.dt, &mut rngs);
            std::hint::black_box(&y);
        },
        budget,
    );
    [
        fx_kernel * per,
        fx_step * per,
        f64_kernel * per,
        f64_step * per,
    ]
}

/// Same lanes at shard width 1 against width `nproc`: `t1 / (nproc · tN)`.
fn shard_efficiency(machine: &Msropm, lanes: usize, seed: u64) -> f64 {
    let nproc = msropm_core::num_cores();
    let job = BatchJob::uniform(*machine.config(), lanes.max(nproc), seed);
    let seeds = job.lane_seeds();
    let pool = ShardPool::new(nproc);
    let mut arena = ShardedArena::new();
    let mut solve = |shards: usize| {
        machine
            .solve_lanes(
                &job.lanes,
                &seeds,
                SolveOptions::new().sharded(shards, &mut arena, &pool),
            )
            .expect("no cancel token");
    };
    let budget = Duration::from_millis(300);
    let t1 = time_per_call(|| solve(1), budget);
    let tn = time_per_call(|| solve(nproc), budget);
    t1 / (nproc as f64 * tn)
}

/// Per-name durations of the spans under roots named `root`.
fn durations_under(spans: &[Span], root: &str) -> BTreeMap<&'static str, Vec<f64>> {
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root_of.push(s.parent.map_or(i, |p| root_of[p]));
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name == root {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.duration().as_secs_f64());
        }
    }
    by_name
}

/// Everything the traced run reports, in `BENCHMARK.json` order.
pub fn per_layer(
    workload: Workload,
    stream: &Stream,
    served: &Served,
    cache_hits: (u64, u64),
) -> Result<Replay, String> {
    let mut t = Tracer::new();
    let mut obs = Observed::default();
    let mut cache = ProblemCache::new(256);
    let mut arena = BatchArena::new();
    let mut request = 0u64;
    let mut replayed = 0u64;
    let mut errors = Vec::new();
    let mut check = |r: Result<(), String>| {
        replayed += 1;
        if let Err(e) = r {
            errors.push(format!("replay: {e}"));
        }
    };

    // Kernel graph, lanes and config for the osc rates and pool width.
    let (kernel_graph, kernel_config, kernel_lanes): (Graph, MsropmConfig, usize);
    match stream {
        Stream::Binary(s) => {
            // The server's warm-up, then a sample of the stream's own
            // requests (cancel targets excluded: they have no report).
            for gj in s.warmup() {
                t.set_request(request);
                request += 1;
                t.span("probe", |t| {
                    cached_machine(t, &mut cache, &s.graphs[gj.topo], s.config(), 0);
                });
            }
            let sample = match workload {
                Workload::Color2116Fx => 3,
                _ => 48,
            };
            let jobs: Vec<_> = (0..)
                .map(|i| s.job(i))
                .filter(|j| !j.cancel)
                .take(sample)
                .collect();
            for gj in &jobs {
                t.set_request(request);
                request += 1;
                let g = &s.graphs[gj.topo];
                let r = replay_graph_job(
                    &mut t,
                    &mut obs,
                    &mut cache,
                    &mut arena,
                    g,
                    s.hashes[gj.topo],
                    &gj.job,
                );
                check(r);
            }
            // Off-path layers, on the same inputs: the job as a coloring
            // problem over HTTP.
            for gj in jobs.iter().take(2) {
                t.set_request(request);
                request += 1;
                let g = &s.graphs[gj.topo];
                let inst = ProblemInstance::coloring(g, s.config(), PROBLEM_REPLICAS);
                let r = replay_problem(
                    &mut t,
                    &mut obs,
                    &mut cache,
                    &mut arena,
                    "probe",
                    Transport::Http,
                    &inst,
                    s.config(),
                    gj.job.seed,
                );
                check(r);
            }
            let biggest = s
                .graphs
                .iter()
                .max_by_key(|g| g.num_edges())
                .expect("graphs");
            kernel_graph = biggest.clone();
            kernel_config = *s.config();
            kernel_lanes = s.lanes();
        }
        Stream::Problems(p) => {
            let config = gen::problem_config();
            for i in 0..p.pool {
                t.set_request(request);
                request += 1;
                let compiled = p.instances[i]
                    .spec
                    .compile(&config, PROBLEM_REPLICAS)
                    .map_err(|e| format!("pool instance does not compile: {e}"))?;
                t.span("probe", |t| {
                    cached_machine(
                        t,
                        &mut cache,
                        &compiled.graph,
                        &compiled.config,
                        compiled.fingerprint,
                    );
                });
            }
            // The first two arrivals of each class (cancel targets
            // excluded).
            let mut per_class: BTreeMap<u8, usize> = BTreeMap::new();
            let sample: Vec<_> = p
                .arrivals
                .iter()
                .filter(|a| !a.cancel)
                .filter(|a| {
                    let n = per_class
                        .entry(p.instances[a.instance].class.tag())
                        .or_default();
                    *n += 1;
                    *n <= 2
                })
                .collect();
            for a in &sample {
                t.set_request(request);
                request += 1;
                let inst = &p.instances[a.instance];
                let r = replay_problem(
                    &mut t,
                    &mut obs,
                    &mut cache,
                    &mut arena,
                    "request",
                    Transport::Http,
                    inst,
                    &config,
                    a.seed,
                );
                check(r);
            }
            // Off-path layer: the same requests over the binary codec.
            for a in &sample {
                t.set_request(request);
                request += 1;
                let inst = &p.instances[a.instance];
                let r = replay_problem(
                    &mut t,
                    &mut obs,
                    &mut cache,
                    &mut arena,
                    "probe",
                    Transport::Binary,
                    inst,
                    &config,
                    a.seed,
                );
                check(r);
            }
            let biggest = sample
                .iter()
                .map(|a| inst_graph(&p.instances[a.instance], &config))
                .max_by_key(|g| g.num_edges())
                .expect("non-empty sample");
            kernel_graph = biggest;
            kernel_config = config;
            kernel_lanes = PROBLEM_REPLICAS;
        }
    }

    // ---- Span accounting ----
    let spans = t.spans();
    let self_t = trace::self_times(spans);
    let mut attributed = Vec::new();
    let mut kernel_share = Vec::new();
    let mut request_s = Vec::new();
    let mut spans_per_request = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name != "request" {
            continue;
        }
        let total = s.duration().as_secs_f64();
        let share = 1.0 - self_t[i].as_secs_f64() / total;
        attributed.push(share);
        let members: Vec<&Span> = spans.iter().filter(|x| x.request == s.request).collect();
        spans_per_request.push(members.len() as f64);
        let stage: f64 = members
            .iter()
            .filter(|x| x.name.starts_with("core.stage"))
            .map(|x| x.duration().as_secs_f64())
            .sum();
        kernel_share.push(stage / total);
        request_s.push(total);
        if share < MIN_ATTRIBUTED {
            errors.push(format!(
                "replayed request {}: layer spans cover {:.1}% of its latency (need {:.0}%)",
                s.request,
                share * 100.0,
                MIN_ATTRIBUTED * 100.0
            ));
        }
    }
    let on_path = durations_under(spans, "request");
    let probes = durations_under(spans, "probe");
    // A layer's figure comes from the replayed requests when they use it,
    // else from the probes on the same inputs.
    let layer = |name: &str| -> f64 {
        on_path
            .get(name)
            .or_else(|| probes.get(name))
            .and_then(|v| median(v))
            .unwrap_or(0.0)
    };
    let per_request = |xs: &[f64]| median(xs).unwrap_or(0.0);

    // Tracing cost: per-span cost times spans per request, against the
    // replayed latency; one figure per calibration round.
    let spans_each = per_request(&spans_per_request);
    let latency = per_request(&request_s);
    let overhead: Vec<f64> = trace::span_cost_s(11, 20_000)
        .into_iter()
        .map(|c| 100.0 * c * spans_each / latency)
        .collect();
    let q = |p: f64| stats::percentile(&overhead, p).expect("calibration rounds");

    let osc = kernel_rates(&kernel_graph, &kernel_config, kernel_lanes);
    let pool_machine = Msropm::new(&kernel_graph, kernel_config);
    let efficiency = shard_efficiency(&pool_machine, kernel_lanes, 7);

    let tail = workload.tail_pct();
    let (hits, misses) = cache_hits;
    let completed = served.completed.max(1) as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("osc.kernel_fx_ns_per_edge_lane_step", osc[0], "ns"),
        m("osc.step_fx_ns_per_edge_lane_step", osc[1], "ns"),
        m("osc.kernel_f64_ns_per_edge_lane_step", osc[2], "ns"),
        m("osc.step_f64_ns_per_edge_lane_step", osc[3], "ns"),
        m("core.stage1_ms", layer("core.stage1") * 1e3, "ms"),
        m("core.stage2_ms", layer("core.stage2") * 1e3, "ms"),
        m("core.rank_ms", layer("core.rank") * 1e3, "ms"),
        m("core.kernel_share", per_request(&kernel_share), "share"),
        m(
            "core.stage1_cut_fraction",
            stats::mean(&obs.stage1_cut_fraction).unwrap_or(0.0),
            "share",
        ),
        m(
            "core.max_lock_error_rad",
            stats::mean(&obs.max_lock_error).unwrap_or(0.0),
            "rad",
        ),
        m("pool.shard_efficiency", efficiency, "ratio"),
        m(
            "cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
        ),
        m("cache.compile_ms", layer("cache.compile") * 1e3, "ms"),
        m("cache.lookup_hit_us", layer("cache.lookup_hit") * 1e6, "us"),
        m("problems.parse_us", layer("problems.parse") * 1e6, "us"),
        m("problems.compile_us", layer("problems.compile") * 1e6, "us"),
        m("problems.decode_ms", layer("problems.decode") * 1e3, "ms"),
        m(
            "proto.submit_decode_us",
            layer("proto.submit_decode") * 1e6,
            "us",
        ),
        m(
            "proto.report_encode_us",
            layer("proto.report_encode") * 1e6,
            "us",
        ),
        m(
            "proto.submit_bytes",
            per_request(&obs.submit_bytes),
            "bytes",
        ),
        m(
            "proto.report_bytes",
            per_request(&obs.report_bytes),
            "bytes",
        ),
        m(
            "transport.overhead_ms_p50",
            median(&served.transport_ms).unwrap_or(0.0),
            "ms",
        ),
        m("http.parse_us", layer("http.parse") * 1e6, "us"),
        m(
            "http.report_render_us",
            layer("http.report_render") * 1e6,
            "us",
        ),
        m(
            "http.polls_per_job",
            served.polls as f64 / completed,
            "count",
        ),
        m(
            "session.queue_wait_ms_p50",
            median(&served.queued_ms).unwrap_or(0.0),
            "ms",
        ),
        m(
            "session.queue_wait_ms_tail",
            stats::tail(&served.queued_ms, tail, "queue wait")?,
            "ms",
        ),
        m(
            "session.reject_rate",
            served.rejected as f64 / served.attempted.max(1) as f64,
            "share",
        ),
        m(
            "client.gen_lag_ms_tail",
            stats::tail(&served.gen_lag_ms, tail, "generator lag")?,
            "ms",
        ),
        m("trace.overhead_pct", q(50.0), "%"),
        m("trace.overhead_iqr_pct", q(75.0) - q(25.0), "%"),
        m("trace.attributed_share", per_request(&attributed), "share"),
    ];
    for metric in &metrics {
        let is_share = metric.unit == "share";
        if !metric.value.is_finite() || (is_share && !(0.0..=1.0).contains(&metric.value)) {
            errors.push(format!(
                "{} = {} is out of range",
                metric.name, metric.value
            ));
        }
    }
    print_layer_table(spans, &self_t);
    Ok(Replay {
        metrics,
        replayed,
        errors,
    })
}

fn inst_graph(inst: &ProblemInstance, config: &MsropmConfig) -> Graph {
    inst.spec
        .compile(config, PROBLEM_REPLICAS)
        .expect("stream instances compile")
        .graph
}

/// Writes the spans' per-layer totals to stderr when the run ends.
fn print_layer_table(spans: &[Span], self_t: &[Duration]) {
    let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(self_t) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration().as_secs_f64();
        row.2 += st.as_secs_f64();
    }
    eprintln!(
        "{:<24} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in rows {
        eprintln!(
            "{name:<24} {count:>7} {:>12.3} {:>12.3}",
            total * 1e3,
            own * 1e3
        );
    }
}
