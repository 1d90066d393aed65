//! Workload definitions and their seeded input streams.
//!
//! Everything the server receives is generated here from the run seed,
//! so one seed always yields a byte-identical request stream. The
//! quality set — the jobs `accuracy_mean` and `exact_rate` are computed
//! over — is drawn from [`QUALITY_SEED`] instead, so those two metrics
//! repeat exactly whatever the run seed.

use msropm_core::{BatchJob, KernelBackend, MsropmConfig};
use msropm_graph::{generators, graph_hash, io as graph_io, Graph};
use msropm_problems::json::Json;
use msropm_problems::{Decoder, ProblemClass, ProblemSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed of the quality set (fixed across runs).
pub const QUALITY_SEED: u64 = 0x0DA7_E202_5C01;

/// Every eighth job of a stream (index ≡ 4 mod 8) belongs to the quality set.
const QUALITY_STRIDE: usize = 8;
const QUALITY_PHASE: usize = 4;

/// Tenant id every benchmark request is submitted under.
pub const TENANT: &str = "bench";

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4-coloring of the 46×46 King's graph on the fixed-point kernel,
    /// binary protocol, closed loop.
    Color2116Fx,
    /// All nine problem classes over HTTP, open loop at a fixed rate.
    ProblemsHttp,
    /// One-lane coloring of graphs of at most 49 nodes, binary protocol,
    /// closed loop.
    TinyWire,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Color2116Fx,
        Workload::ProblemsHttp,
        Workload::TinyWire,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Color2116Fx => "color2116_fx",
            Workload::ProblemsHttp => "problems_http",
            Workload::TinyWire => "tiny_wire",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed tail percentile `latency_tail_ms` reports (also stated in
    /// the workload's `why` in `BENCHMARK.json`).
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::Color2116Fx => 90.0,
            Workload::ProblemsHttp => 95.0,
            // A p99 of 1 ms jobs measures the 2-core box's scheduler more
            // than the program: five threads share two cores.
            Workload::TinyWire => 95.0,
        }
    }

    /// Latency limit `slo_attainment` counts against, milliseconds.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::Color2116Fx => 400.0,
            Workload::ProblemsHttp => 120.0,
            Workload::TinyWire => 5.0,
        }
    }

    /// `msropm_serve` flags (beyond `--addr`).
    pub fn server_args(self) -> Vec<String> {
        let frontend = match self {
            Workload::ProblemsHttp => "http",
            Workload::Color2116Fx | Workload::TinyWire => "reactor",
        };
        let mut args = vec![
            "--frontend".to_string(),
            frontend.to_string(),
            "--workers".to_string(),
            CONNECTIONS.to_string(),
            "--max-inflight".to_string(),
            "256".to_string(),
        ];
        match self {
            Workload::Color2116Fx => args.extend(["--backend".into(), "fixed".into()]),
            // Room for the repeating pool beside the fresh instances.
            Workload::ProblemsHttp => args.extend(["--cache".into(), "128".into()]),
            Workload::TinyWire => {}
        }
        args
    }
}

/// Client connections and threads, and server workers: one per core of
/// the reference box (`nproc` = 2).
pub const CONNECTIONS: usize = 2;

/// SplitMix64 finaliser over a pair: the per-index derivation of seeds
/// and choices.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `true` when stream index `i` is a quality-set job.
pub fn is_quality(i: usize) -> bool {
    i % QUALITY_STRIDE == QUALITY_PHASE
}

/// Quality-set ordinal of stream index `i` (meaningful when [`is_quality`]).
pub fn quality_ordinal(i: usize) -> usize {
    i / QUALITY_STRIDE
}

/// `true` when stream index `i` gets a cancel: one seeded position in
/// every block of `per` indices, never a quality-set job.
fn is_cancel_target(seed: u64, i: usize, per: usize) -> bool {
    let start = i - i % per;
    let mut pos = (mix(seed ^ 0xCA9CE1, start as u64) % per as u64) as usize;
    while is_quality(start + pos) {
        pos = (pos + 1) % per;
    }
    i % per == pos
}

/// The generated inputs of one run.
#[derive(Debug)]
pub enum Stream {
    /// A closed-loop binary-protocol workload.
    Binary(BinaryStream),
    /// The open-loop HTTP problem workload.
    Problems(ProblemStream),
}

// ---------------------------------------------------------------------
// Binary-protocol workloads (closed loop)
// ---------------------------------------------------------------------

/// One generated binary-protocol job.
#[derive(Debug, Clone)]
pub struct GraphJob {
    /// Index into [`BinaryStream::graphs`].
    pub topo: usize,
    /// The job as submitted.
    pub job: BatchJob,
    /// Gets a cancel at the workload's fixed delay after submit.
    pub cancel: bool,
    /// Belongs to the quality set.
    pub quality: bool,
}

/// The closed-loop job stream of `color2116_fx` or `tiny_wire`.
#[derive(Debug, Clone)]
pub struct BinaryStream {
    /// Workload this stream feeds.
    pub workload: Workload,
    /// Topologies jobs run against: the seeded pool, then the quality
    /// set's fixed topologies.
    pub graphs: Vec<Graph>,
    /// `graph_hash` of each topology.
    pub hashes: Vec<u64>,
    seed: u64,
    pool: usize,
    config: MsropmConfig,
    lanes: usize,
}

/// Seeded topologies of `tiny_wire`.
const TINY_POOL: usize = 12;
/// Fixed topologies of the `tiny_wire` quality set.
const TINY_QUALITY_POOL: usize = 4;

/// Pool slot `slot` of `tiny_wire`: a 4-colorable graph of at most 49
/// nodes. Slot sizes are fixed, so work per job does not depend on the
/// seed; the seed picks the planted graphs' edges.
fn tiny_graph(slot: usize, rng: &mut StdRng) -> Graph {
    const BOARDS: [(usize, usize); 6] = [(4, 4), (5, 5), (6, 6), (7, 7), (5, 7), (6, 7)];
    const PLANTED: [usize; 6] = [24, 30, 36, 42, 48, 49];
    match slot {
        0..=5 => generators::kings_graph(BOARDS[slot].0, BOARDS[slot].1),
        _ => {
            // Mean degree 5.
            let n = PLANTED[slot - 6];
            planted_graph(n, 5 * n / 2, rng)
        }
    }
}

impl BinaryStream {
    /// The stream of `workload` (a binary-protocol one) under `seed`.
    ///
    /// # Panics
    ///
    /// Panics for [`Workload::ProblemsHttp`].
    pub fn new(workload: Workload, seed: u64) -> BinaryStream {
        let (graphs, pool, config, lanes) = match workload {
            Workload::Color2116Fx => (
                vec![generators::kings_graph(46, 46)],
                1,
                MsropmConfig {
                    // The paper's 5/20/5 ns windows, integrated at a 0.1 ns
                    // step so a run completes a few hundred jobs.
                    dt: 0.1,
                    backend: KernelBackend::Fixed,
                    ..MsropmConfig::paper_default()
                },
                2,
            ),
            Workload::TinyWire => {
                let mut rng = StdRng::seed_from_u64(mix(seed, 0x7177));
                let mut qrng = StdRng::seed_from_u64(mix(QUALITY_SEED, 0x7177));
                let mut graphs: Vec<Graph> = (0..TINY_POOL)
                    .map(|slot| tiny_graph(slot, &mut rng))
                    .collect();
                graphs.extend([3, 5, 9, 11].map(|slot| tiny_graph(slot, &mut qrng)));
                (
                    graphs,
                    TINY_POOL,
                    MsropmConfig {
                        dt: 0.2,
                        ..MsropmConfig::paper_default()
                    },
                    1,
                )
            }
            Workload::ProblemsHttp => panic!("problems_http is not a binary-protocol stream"),
        };
        let hashes = graphs.iter().map(graph_hash).collect();
        BinaryStream {
            workload,
            graphs,
            hashes,
            seed,
            pool,
            config,
            lanes,
        }
    }

    /// Job `i` of the stream.
    pub fn job(&self, i: usize) -> GraphJob {
        let quality = is_quality(i);
        let topo = match (self.workload, quality) {
            (Workload::TinyWire, true) => self.pool + quality_ordinal(i) % TINY_QUALITY_POOL,
            (Workload::TinyWire, false) => (mix(self.seed, i as u64) % self.pool as u64) as usize,
            _ => 0,
        };
        let job_seed = if quality {
            mix(QUALITY_SEED, i as u64)
        } else {
            mix(self.seed, i as u64 ^ 0x5EED)
        };
        let cancel_per = match self.workload {
            Workload::Color2116Fx => 8,
            _ => 16,
        };
        GraphJob {
            topo,
            job: BatchJob::uniform(self.config, self.lanes, job_seed),
            cancel: !quality && is_cancel_target(self.seed, i, cancel_per),
            quality,
        }
    }

    /// The fixed warm-up: one job per topology, fixed seeds, so every
    /// topology is compiled and cached before timing starts.
    pub fn warmup(&self) -> Vec<GraphJob> {
        (0..self.graphs.len())
            .map(|topo| GraphJob {
                topo,
                job: BatchJob::uniform(self.config, 1, mix(QUALITY_SEED, 0xAA00 + topo as u64)),
                cancel: false,
                quality: false,
            })
            .collect()
    }

    /// Whether a best lane of `accuracy` meets the reference answer: a
    /// proper coloring on the small graphs (all are 4-colorable); on the
    /// 2116-node board, which no run reaches properly colored, the
    /// paper's reported 97% accuracy.
    pub fn exact(&self, accuracy: f64) -> bool {
        match self.workload {
            Workload::Color2116Fx => accuracy >= 0.97,
            _ => accuracy == 1.0,
        }
    }

    /// Base operating point of every job.
    pub fn config(&self) -> &MsropmConfig {
        &self.config
    }

    /// Replica lanes per job.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Quality-set jobs every run must complete.
    pub fn quality_len(&self) -> usize {
        match self.workload {
            Workload::Color2116Fx => 16,
            _ => 64,
        }
    }

    /// Pause between status polls while a cancel takes effect: about 1%
    /// of the expected cancel latency, so polling adds little to it.
    pub fn cancel_poll(&self) -> std::time::Duration {
        match self.workload {
            Workload::Color2116Fx => std::time::Duration::from_millis(1),
            // Status round trips back to back.
            _ => std::time::Duration::ZERO,
        }
    }
}

// ---------------------------------------------------------------------
// HTTP problem workload (open loop)
// ---------------------------------------------------------------------

/// Offered arrival rate of `problems_http`, jobs per second: below two
/// thirds of the capacity the saturation phase measures on the reference
/// box (160–195/s), with room for the shared box's slow periods, in
/// which a 90/s offer built a backlog up to the per-tenant quota.
pub const PROBLEMS_RATE: f64 = 70.0;
/// Replica lanes per problem job.
pub const PROBLEM_REPLICAS: usize = 4;
/// Instances per class in the repeating pool.
const POOL_PER_CLASS: usize = 2;
/// Instances per class in the quality set.
const QUALITY_PER_CLASS: usize = 3;

/// One generated problem instance with everything needed to check its
/// answers.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    /// Problem class.
    pub class: ProblemClass,
    /// Native-format input text, as sent.
    pub text: String,
    /// Palette / class count (coloring and max-k-cut; 0 otherwise).
    pub k: u16,
    /// The parsed spec.
    pub spec: ProblemSpec,
    /// Decoder of the compiled spec (recomputes objectives).
    pub decoder: Decoder,
    /// `graph_hash` of the compiled encoding graph.
    pub encoding_hash: u64,
    /// Planted-colorable graph classes know their optimum up front:
    /// `Some(edges)` for coloring (0 conflicts) and max-k-cut (all edges
    /// cut); `None` means brute force.
    pub planted_edges: Option<usize>,
}

/// One scheduled `POST /v1/problems`.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Due time, seconds after the timed start.
    pub due_s: f64,
    /// Index into [`ProblemStream::instances`].
    pub instance: usize,
    /// Job seed.
    pub seed: u64,
    /// Gets a `DELETE` once a poll shows it running.
    pub cancel: bool,
    /// Quality-set ordinal, for quality jobs.
    pub quality: Option<usize>,
    /// The rendered JSON body.
    pub body: String,
}

/// Jobs in the saturation phase.
pub const SATURATION_JOBS: usize = 3000;
/// Jobs kept outstanding in the saturation phase: enough to keep every
/// worker busy whatever the polling delay.
pub const SATURATION_OUTSTANDING: usize = 16;

/// The base operating point of problem jobs (the default f64 backend).
pub fn problem_config() -> MsropmConfig {
    MsropmConfig::paper_default()
}

/// The open-loop stream of `problems_http`.
#[derive(Debug, Clone)]
pub struct ProblemStream {
    /// Pool instances, then the quality set, then one fresh instance per
    /// fresh arrival.
    pub instances: Vec<ProblemInstance>,
    /// The arrival schedule, in due order.
    pub arrivals: Vec<Arrival>,
    /// Jobs of the saturation phase that measures `jobs_per_s`: sent
    /// back to back, [`SATURATION_OUTSTANDING`] at a time.
    pub saturation: Vec<Arrival>,
    /// Number of pool instances (the first entries of `instances`).
    pub pool: usize,
}

fn dimacs(g: &Graph) -> String {
    let mut out = Vec::new();
    graph_io::write_dimacs(g, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("DIMACS output is ASCII")
}

/// `m` distinct pairs drawn uniformly from the pairs `i < j < n` that
/// `allowed` admits. A fixed edge count keeps work per job independent
/// of the seed.
fn random_pairs(
    n: usize,
    m: usize,
    allowed: impl Fn(usize, usize) -> bool,
    rng: &mut StdRng,
) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter(|&(i, j)| allowed(i, j))
        .collect();
    pairs.shuffle(rng);
    pairs.truncate(m);
    pairs.sort_unstable();
    pairs
}

/// A random graph with exactly `m` edges.
fn random_graph(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    Graph::from_edges(n, random_pairs(n, m, |_, _| true, rng)).expect("pairs are valid edges")
}

/// A planted 4-colorable graph with exactly `m` edges: nodes get hidden
/// classes round-robin, and only cross-class pairs become edges.
fn planted_graph(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let mut class: Vec<usize> = (0..n).map(|i| i % 4).collect();
    class.shuffle(rng);
    let pairs = random_pairs(n, m, |i, j| class[i] != class[j], rng);
    Graph::from_edges(n, pairs).expect("pairs are valid edges")
}

fn quadratic_json(n: usize, linear_key: &str, quad_key: &str, rng: &mut StdRng) -> String {
    let linear = (0..n)
        .map(|_| Json::Num(rng.gen_range(-5..6i64) as f64))
        .collect();
    let quad = random_pairs(n, QUADRATIC_TERMS, |_, _| true, rng)
        .into_iter()
        .map(|(i, j)| {
            let w = rng.gen_range(-5..6i64) as f64;
            Json::Arr(vec![Json::Num(i as f64), Json::Num(j as f64), Json::Num(w)])
        })
        .collect();
    Json::Obj(vec![
        ("n".into(), Json::Num(n as f64)),
        (linear_key.into(), Json::Arr(linear)),
        (quad_key.into(), Json::Arr(quad)),
    ])
    .render()
}

/// Domain variables of every binary-class instance: few enough for a
/// brute-force optimum, and fixed so that work per job does not depend
/// on the seed.
const BINARY_VARS: usize = 12;
/// Edges of every max-cut, MIS and vertex-cover graph.
const BINARY_EDGES: usize = 20;
/// Couplings of every QUBO and Ising instance.
const QUADRATIC_TERMS: usize = 23;
/// Nodes and edges of every coloring and max-k-cut graph.
const PLANTED_NODES: usize = 16;
const PLANTED_EDGES: usize = 40;

/// Generates one small instance of `class` in its native text format.
fn problem_text(class: ProblemClass, rng: &mut StdRng) -> (String, u16, Option<usize>) {
    let n = BINARY_VARS;
    match class {
        ProblemClass::Coloring | ProblemClass::MaxKCut => {
            let g = planted_graph(PLANTED_NODES, PLANTED_EDGES, rng);
            (dimacs(&g), 4, Some(PLANTED_EDGES))
        }
        ProblemClass::MaxCut | ProblemClass::Mis | ProblemClass::VertexCover => {
            (dimacs(&random_graph(n, BINARY_EDGES, rng)), 0, None)
        }
        ProblemClass::NumberPartition => {
            let weights: Vec<String> = (0..n)
                .map(|_| rng.gen_range(1..1000u64).to_string())
                .collect();
            (weights.join(" ") + "\n", 0, None)
        }
        ProblemClass::CnfSat => {
            let m = 4 * n;
            let mut text = format!("p cnf {n} {m}\n");
            for _ in 0..m {
                for _ in 0..3 {
                    let v = rng.gen_range(1..n as i64 + 1);
                    let lit = if rng.gen_bool(0.5) { v } else { -v };
                    text.push_str(&format!("{lit} "));
                }
                text.push_str("0\n");
            }
            (text, 0, None)
        }
        ProblemClass::Qubo => (quadratic_json(n, "linear", "quadratic", rng), 0, None),
        ProblemClass::Ising => (quadratic_json(n, "h", "j", rng), 0, None),
    }
}

fn instance(class: ProblemClass, rng: &mut StdRng) -> ProblemInstance {
    let (text, k, planted_edges) = problem_text(class, rng);
    ProblemInstance::new(
        class,
        text,
        k,
        planted_edges,
        &problem_config(),
        PROBLEM_REPLICAS,
    )
}

impl ProblemInstance {
    /// Parses and compiles `text` as a `class` instance.
    ///
    /// # Panics
    ///
    /// Panics if the text does not parse or compile: generated inputs
    /// are always valid.
    pub fn new(
        class: ProblemClass,
        text: String,
        k: u16,
        planted_edges: Option<usize>,
        config: &MsropmConfig,
        replicas: usize,
    ) -> ProblemInstance {
        let spec = ProblemSpec::from_text(class, &text, k)
            .unwrap_or_else(|e| panic!("generated {class} instance does not parse: {e}"));
        let compiled = spec
            .compile(config, replicas)
            .unwrap_or_else(|e| panic!("generated {class} instance does not compile: {e}"));
        ProblemInstance {
            class,
            text,
            k,
            encoding_hash: graph_hash(&compiled.graph),
            decoder: compiled.decoder,
            spec,
            planted_edges,
        }
    }

    /// A coloring instance of `graph` (DIMACS text, 4 colors).
    pub fn coloring(graph: &Graph, config: &MsropmConfig, replicas: usize) -> ProblemInstance {
        let text = dimacs(graph);
        ProblemInstance::new(
            ProblemClass::Coloring,
            text,
            4,
            Some(graph.num_edges()),
            config,
            replicas,
        )
    }
}

/// The JSON body of `POST /v1/problems` for `inst` under `seed`.
pub fn problem_body(inst: &ProblemInstance, seed: u64) -> String {
    let mut fields = vec![
        ("tenant".into(), Json::Str(TENANT.into())),
        ("class".into(), Json::Str(inst.class.name().into())),
        ("input".into(), Json::Str(inst.text.clone())),
    ];
    if inst.k != 0 {
        fields.push(("k".into(), Json::Num(f64::from(inst.k))));
    }
    fields.extend([
        ("replicas".into(), Json::Num(PROBLEM_REPLICAS as f64)),
        ("seed".into(), Json::u64_str(seed)),
    ]);
    Json::Obj(fields).render()
}

impl ProblemStream {
    /// The stream for `seconds` of open-loop arrivals under `seed`.
    pub fn new(seed: u64, seconds: f64) -> ProblemStream {
        let classes = ProblemClass::ALL;
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x9B0B));
        let mut qrng = StdRng::seed_from_u64(mix(QUALITY_SEED, 0x9B0B));
        let mut instances: Vec<ProblemInstance> = Vec::new();
        for &class in &classes {
            for _ in 0..POOL_PER_CLASS {
                instances.push(instance(class, &mut rng));
            }
        }
        let pool = instances.len();
        for _ in 0..QUALITY_PER_CLASS {
            for &class in &classes {
                instances.push(instance(class, &mut qrng));
            }
        }
        let quality_len = instances.len() - pool;

        // A Poisson process conditioned on its count: rate × seconds
        // arrivals at uniform times, so every run offers the same load.
        // After the window, a fixed number of back-to-back jobs.
        let open_n = (PROBLEMS_RATE * seconds).round() as usize;
        let mut due: Vec<f64> = (0..open_n).map(|_| rng.gen::<f64>() * seconds).collect();
        due.sort_by(f64::total_cmp);
        let mut arrivals = Vec::new();
        let mut saturation = Vec::new();
        let mut quality_next = 0usize;
        // Other jobs come in blocks holding one pool and one fresh
        // instance of every class, in seeded order, so every run has the
        // same mix.
        let mut block: Vec<(usize, bool)> = Vec::new();
        for i in 0..open_n + SATURATION_JOBS {
            let due_s = due.get(i).copied();
            let open = due_s.is_some();
            let (inst, job_seed, quality) = if open && is_quality(i) && quality_next < quality_len {
                quality_next += 1;
                (
                    pool + quality_next - 1,
                    mix(QUALITY_SEED, i as u64),
                    Some(quality_next - 1),
                )
            } else {
                if block.is_empty() {
                    block = (0..classes.len())
                        .flat_map(|c| [(c, false), (c, true)])
                        .collect();
                    block.shuffle(&mut rng);
                }
                let (c, fresh) = block.pop().expect("block was refilled");
                let inst = if fresh {
                    instances.push(instance(classes[c], &mut rng));
                    instances.len() - 1
                } else {
                    c * POOL_PER_CLASS + rng.gen_range(0..POOL_PER_CLASS)
                };
                (inst, mix(seed, i as u64), None)
            };
            let class = instances[inst].class;
            // Only two-stage classes can be cancelled once running (the
            // solver checks at stage boundaries); a seeded half of them
            // gets a DELETE.
            let cancel = open
                && quality.is_none()
                && matches!(class, ProblemClass::Coloring | ProblemClass::MaxKCut)
                && mix(seed ^ 0xDE1E7E, i as u64).is_multiple_of(2);
            let arrival = Arrival {
                due_s: due_s.unwrap_or(0.0),
                instance: inst,
                seed: job_seed,
                cancel,
                quality,
                body: problem_body(&instances[inst], job_seed),
            };
            if open {
                arrivals.push(arrival);
            } else {
                saturation.push(arrival);
            }
        }
        ProblemStream {
            instances,
            arrivals,
            saturation,
            pool,
        }
    }

    /// Number of quality-set instances.
    pub fn quality_len(&self) -> usize {
        ProblemClass::ALL.len() * QUALITY_PER_CLASS
    }

    /// The fixed warm-up: every pool instance once, fixed seeds.
    pub fn warmup(&self) -> Vec<(usize, String)> {
        (0..self.pool)
            .map(|i| {
                let seed = mix(QUALITY_SEED, 0xBB00 + i as u64);
                (i, problem_body(&self.instances[i], seed))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_server::proto::{self, Request};

    fn binary_bytes(w: Workload, seed: u64, n: usize) -> Vec<u8> {
        let s = BinaryStream::new(w, seed);
        let mut out = Vec::new();
        for i in 0..n {
            let j = s.job(i);
            out.extend(proto::encode_request(&Request::Submit {
                tenant: TENANT.into(),
                graph: s.graphs[j.topo].clone(),
                job: j.job,
                deadline_ms: 0,
            }));
            out.push(u8::from(j.cancel));
        }
        out
    }

    fn http_bytes(seed: u64) -> Vec<u8> {
        let s = ProblemStream::new(seed, 3.0);
        let mut out = Vec::new();
        for a in &s.arrivals {
            out.extend(a.due_s.to_bits().to_le_bytes());
            out.extend(a.body.as_bytes());
            out.push(u8::from(a.cancel));
        }
        out
    }

    #[test]
    fn one_seed_gives_a_byte_identical_request_stream() {
        for w in [Workload::Color2116Fx, Workload::TinyWire] {
            assert_eq!(binary_bytes(w, 11, 40), binary_bytes(w, 11, 40), "{w:?}");
            assert_ne!(binary_bytes(w, 11, 40), binary_bytes(w, 12, 40), "{w:?}");
        }
        assert_eq!(http_bytes(11), http_bytes(11));
        assert_ne!(http_bytes(11), http_bytes(12));
    }

    #[test]
    fn quality_set_does_not_depend_on_the_run_seed() {
        for w in [Workload::Color2116Fx, Workload::TinyWire] {
            let (a, b) = (BinaryStream::new(w, 1), BinaryStream::new(w, 2));
            for i in (0..200).filter(|&i| is_quality(i)) {
                let (ja, jb) = (a.job(i), b.job(i));
                assert!(!ja.cancel && !jb.cancel);
                assert_eq!(ja.job.seed, jb.job.seed);
                assert_eq!(a.hashes[ja.topo], b.hashes[jb.topo]);
            }
        }
        let (a, b) = (ProblemStream::new(1, 10.0), ProblemStream::new(2, 10.0));
        let quality = |s: &ProblemStream| -> Vec<String> {
            let mut q: Vec<(usize, String)> = s
                .arrivals
                .iter()
                .filter_map(|x| x.quality.map(|o| (o, x.body.clone())))
                .collect();
            q.sort();
            q.into_iter().map(|(_, body)| body).collect()
        };
        assert_eq!(quality(&a), quality(&b));
        assert_eq!(quality(&a).len(), a.quality_len());
    }

    #[test]
    fn cancel_share_is_one_per_block() {
        let s = BinaryStream::new(Workload::Color2116Fx, 5);
        for block in 0..50 {
            let n = (block * 8..block * 8 + 8)
                .filter(|&i| s.job(i).cancel)
                .count();
            assert_eq!(n, 1, "block {block}");
        }
        let s = BinaryStream::new(Workload::TinyWire, 5);
        let n = (0..1600).filter(|&i| s.job(i).cancel).count();
        assert_eq!(n, 100);
    }

    #[test]
    fn tiny_graphs_stay_small() {
        let s = BinaryStream::new(Workload::TinyWire, 3);
        assert!(s
            .graphs
            .iter()
            .all(|g| g.num_nodes() <= 49 && g.num_edges() > 0));
    }

    #[test]
    fn every_run_offers_the_same_load_and_mix() {
        for seed in [7, 8] {
            let s = ProblemStream::new(seed, 20.0);
            assert_eq!(s.arrivals.len(), (PROBLEMS_RATE * 20.0) as usize);
            assert!(s.arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(s.arrivals.iter().all(|a| (0.0..20.0).contains(&a.due_s)));
            assert_eq!(s.saturation.len(), SATURATION_JOBS);
            assert!(s.arrivals.iter().any(|a| a.cancel));
            // Outside the quality set, each block of 18 jobs holds one pool
            // and one fresh instance of every class.
            let others: Vec<&Arrival> = s
                .arrivals
                .iter()
                .chain(&s.saturation)
                .filter(|a| a.quality.is_none())
                .collect();
            for block in others.chunks_exact(2 * ProblemClass::ALL.len()) {
                for class in ProblemClass::ALL {
                    let kinds: Vec<bool> = block
                        .iter()
                        .filter(|a| s.instances[a.instance].class == class)
                        .map(|a| a.instance >= s.pool)
                        .collect();
                    assert_eq!(kinds.len(), 2, "{class:?}");
                    assert_ne!(kinds[0], kinds[1], "{class:?}");
                }
            }
        }
    }
}
