//! Problem compiler: many NP workloads onto one Potts machine.
//!
//! *Oscillator Formulations of Many NP Problems* catalogs Potts/Ising
//! encodings for a whole family of NP-hard problems; this crate is the
//! encoder layer that lets one deployed MSROPM serve that catalog. A
//! [`ProblemSpec`] describes a problem instance in its own domain terms
//! (a graph to color, a set of numbers to partition, a CNF formula, a
//! QUBO matrix); [`ProblemSpec::compile`] lowers it onto the machine's
//! native substrate — an **encoding graph** annealed by the multi-stage
//! divide-and-color dynamics — and returns a [`CompiledProblem`] whose
//! [`Decoder`] maps every ranked phase readout back to a **typed domain
//! solution** with a domain-level objective.
//!
//! The machine itself anneals an unweighted antiferromagnetic coupling
//! topology, so the compiler follows the standard Ising-machine split:
//! the *structure* of the instance (which variables interact) is compiled
//! into the encoding graph the oscillators solve, while the *weights*
//! (item sizes, coupling magnitudes, clause semantics) live in the
//! decoder, which seeds a deterministic domain-level local descent from
//! the machine readout. Every decode is a pure function of the readout,
//! so reports stay byte-identical across workers, shard widths and
//! front ends.
//!
//! # Example
//!
//! ```
//! use msropm_core::MsropmConfig;
//! use msropm_problems::{DecodedSolution, ProblemSpec};
//!
//! // Partition {4, 5, 6, 7, 8} into two halves of equal sum.
//! let spec = ProblemSpec::NumberPartition {
//!     weights: vec![4, 5, 6, 7, 8],
//! };
//! let compiled = spec.compile(&MsropmConfig::paper_default(), 4).unwrap();
//! assert_eq!(compiled.graph.num_nodes(), 5); // K_5 encoding graph
//!
//! // (The machine solves `compiled.graph` with `compiled.config`; the
//! //  decoder then maps each readout to a partition and its imbalance.)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod json;

use msropm_core::{JobReport, LaneConfig, MsropmConfig};
use msropm_graph::{graph_hash, io as graph_io, Coloring, Graph, GraphBuilder, NodeId};
use std::fmt;

// Re-exported so downstream crates (the wire codec, clients) can build
// and inspect CNF specs without a direct msropm-sat dependency.
pub use msropm_sat::{Cnf, Lit, Var};

/// Maximum number of items in a [`ProblemSpec::NumberPartition`]: the
/// encoding graph is the complete graph `K_n`, so this caps edges at ~523k.
pub const MAX_WEIGHTS: usize = 1024;

/// Maximum single item weight (sums of [`MAX_WEIGHTS`] of these still fit
/// exactly in an `f64` mantissa, keeping wire objectives lossless).
pub const MAX_WEIGHT: u64 = 1 << 40;

/// Maximum variable count for CNF / QUBO / Ising instances.
pub const MAX_VARIABLES: usize = 1 << 16;

/// Maximum CNF clause count.
pub const MAX_CNF_CLAUSES: usize = 1 << 18;

/// Maximum total CNF literal count.
pub const MAX_CNF_LITERALS: usize = 1 << 20;

/// Maximum number of quadratic couplings for QUBO / Ising instances, and
/// the cap on encoding-graph edges derived from CNF co-occurrence.
pub const MAX_COUPLINGS: usize = 1 << 20;

/// Maximum color count for coloring / max-k-cut (8 machine stages).
pub const MAX_COLORS: u16 = 256;

/// The problem classes the compiler speaks, with their stable wire tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ProblemClass {
    /// Graph k-coloring (the machine's native workload).
    Coloring = 1,
    /// Max-cut (stage-1 of divide-and-color).
    MaxCut = 2,
    /// Max-k-cut: partition vertices into k classes maximizing cut edges.
    MaxKCut = 3,
    /// Maximum independent set.
    Mis = 4,
    /// Minimum vertex cover.
    VertexCover = 5,
    /// Two-way number partitioning.
    NumberPartition = 6,
    /// CNF satisfiability (decision as minimize-unsatisfied-clauses).
    CnfSat = 7,
    /// Quadratic unconstrained binary optimization.
    Qubo = 8,
    /// Ising energy minimization (h fields + J couplings).
    Ising = 9,
}

impl ProblemClass {
    /// All classes, in tag order.
    pub const ALL: [ProblemClass; 9] = [
        ProblemClass::Coloring,
        ProblemClass::MaxCut,
        ProblemClass::MaxKCut,
        ProblemClass::Mis,
        ProblemClass::VertexCover,
        ProblemClass::NumberPartition,
        ProblemClass::CnfSat,
        ProblemClass::Qubo,
        ProblemClass::Ising,
    ];

    /// The stable wire tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ProblemClass::tag`].
    pub fn from_tag(tag: u8) -> Option<ProblemClass> {
        ProblemClass::ALL.into_iter().find(|c| c.tag() == tag)
    }

    /// CLI / display name (kebab-case).
    pub fn name(self) -> &'static str {
        match self {
            ProblemClass::Coloring => "coloring",
            ProblemClass::MaxCut => "max-cut",
            ProblemClass::MaxKCut => "max-k-cut",
            ProblemClass::Mis => "mis",
            ProblemClass::VertexCover => "vertex-cover",
            ProblemClass::NumberPartition => "number-partition",
            ProblemClass::CnfSat => "cnf-sat",
            ProblemClass::Qubo => "qubo",
            ProblemClass::Ising => "ising",
        }
    }

    /// Inverse of [`ProblemClass::name`].
    pub fn from_name(name: &str) -> Option<ProblemClass> {
        ProblemClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Whether larger objectives are better for this class.
    pub fn sense(self) -> ObjectiveSense {
        match self {
            ProblemClass::MaxCut | ProblemClass::MaxKCut | ProblemClass::Mis => {
                ObjectiveSense::Maximize
            }
            _ => ObjectiveSense::Minimize,
        }
    }
}

impl fmt::Display for ProblemClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Optimization direction of a decoded objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveSense {
    /// Smaller objective is better (conflicts, cover size, imbalance, energy).
    Minimize,
    /// Larger objective is better (cut weight, set size).
    Maximize,
}

/// A QUBO instance: minimize `x^T Q x` over `x ∈ {0,1}^n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Qubo {
    /// Number of binary variables.
    pub n: usize,
    /// Diagonal terms `Q_ii` (length `n`, or empty for all-zero).
    pub linear: Vec<f64>,
    /// Off-diagonal terms `(i, j, Q_ij)` with `i < j`.
    pub quadratic: Vec<(u32, u32, f64)>,
}

/// An Ising instance: minimize `Σ h_i s_i + Σ J_ij s_i s_j`, `s ∈ {-1,+1}^n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ising {
    /// Number of spins.
    pub n: usize,
    /// Local fields `h_i` (length `n`, or empty for all-zero).
    pub h: Vec<f64>,
    /// Couplings `(i, j, J_ij)` with `i < j`.
    pub j: Vec<(u32, u32, f64)>,
}

/// One problem instance, in domain terms. Compile with
/// [`ProblemSpec::compile`]; ingest standard formats with
/// [`ProblemSpec::from_text`].
#[derive(Debug, Clone)]
pub enum ProblemSpec {
    /// Color `graph` with `colors` colors, minimizing conflicting edges.
    Coloring {
        /// The graph to color.
        graph: Graph,
        /// Palette size (must be a power of two: the machine realizes
        /// `2^k` colors with `k` stages).
        colors: u16,
    },
    /// Maximize the number of edges crossing a 2-partition of `graph`.
    MaxCut {
        /// The graph to cut.
        graph: Graph,
    },
    /// Maximize edges whose endpoints land in different classes of a
    /// `k`-partition.
    MaxKCut {
        /// The graph to cut.
        graph: Graph,
        /// Number of classes (power of two).
        k: u16,
    },
    /// Maximum independent set of `graph`.
    Mis {
        /// The graph.
        graph: Graph,
    },
    /// Minimum vertex cover of `graph`.
    VertexCover {
        /// The graph.
        graph: Graph,
    },
    /// Split `weights` into two sets minimizing the sum imbalance.
    NumberPartition {
        /// The item weights.
        weights: Vec<u64>,
    },
    /// Minimize unsatisfied clauses of a CNF formula.
    CnfSat {
        /// The formula.
        cnf: Cnf,
    },
    /// Minimize a QUBO energy.
    Qubo(Qubo),
    /// Minimize an Ising energy.
    Ising(Ising),
}

/// Why a spec could not be ingested or compiled.
#[derive(Debug, Clone)]
pub enum ProblemError {
    /// The input text / bytes did not parse as the expected format.
    Parse(String),
    /// The instance is outside what the machine supports (bad palette
    /// size, too large, empty, ...).
    Unsupported(String),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::Parse(m) => write!(f, "parse error: {m}"),
            ProblemError::Unsupported(m) => write!(f, "unsupported problem: {m}"),
        }
    }
}

impl std::error::Error for ProblemError {}

fn parse_err(e: impl fmt::Display) -> ProblemError {
    ProblemError::Parse(e.to_string())
}

fn unsupported(m: impl Into<String>) -> ProblemError {
    ProblemError::Unsupported(m.into())
}

/// Parses a whitespace/newline-separated list of item weights (`#` and `c`
/// lines are comments) — the common number-partitioning benchmark format.
pub fn read_weights(text: &str) -> Result<Vec<u64>, ProblemError> {
    let mut weights = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("c ") || line == "c" {
            continue;
        }
        for tok in line.split_whitespace() {
            let w: u64 = tok
                .parse()
                .map_err(|_| ProblemError::Parse(format!("bad weight {tok:?}")))?;
            if w > MAX_WEIGHT {
                return Err(unsupported(format!("weight {w} exceeds {MAX_WEIGHT}")));
            }
            weights.push(w);
            if weights.len() > MAX_WEIGHTS {
                return Err(unsupported(format!("more than {MAX_WEIGHTS} weights")));
            }
        }
    }
    Ok(weights)
}

/// Reads a QUBO from its JSON form:
/// `{"n": N, "linear": [Q_00, ...], "quadratic": [[i, j, Q_ij], ...]}`
/// (`linear` may be omitted; `i < j < n` required).
pub fn read_qubo_json(text: &str) -> Result<Qubo, ProblemError> {
    let (n, linear, quadratic) = read_quadratic_json(text, "linear", "quadratic")?;
    Ok(Qubo {
        n,
        linear,
        quadratic,
    })
}

/// Reads an Ising instance from its JSON form:
/// `{"n": N, "h": [h_0, ...], "j": [[i, j, J_ij], ...]}`
/// (`h` may be omitted; `i < j < n` required).
pub fn read_ising_json(text: &str) -> Result<Ising, ProblemError> {
    let (n, h, j) = read_quadratic_json(text, "h", "j")?;
    Ok(Ising { n, h, j })
}

/// Shared JSON shape of QUBO and Ising inputs.
#[allow(clippy::type_complexity)]
fn read_quadratic_json(
    text: &str,
    linear_key: &str,
    quad_key: &str,
) -> Result<(usize, Vec<f64>, Vec<(u32, u32, f64)>), ProblemError> {
    let doc = json::parse(text).map_err(parse_err)?;
    let n = doc
        .get("n")
        .and_then(json::Json::as_usize)
        .ok_or_else(|| ProblemError::Parse("missing integer field \"n\"".into()))?;
    if n > MAX_VARIABLES {
        return Err(unsupported(format!("n={n} exceeds {MAX_VARIABLES}")));
    }
    let linear = match doc.get(linear_key) {
        None | Some(json::Json::Null) => Vec::new(),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| ProblemError::Parse(format!("\"{linear_key}\" must be an array")))?;
            if arr.len() != n {
                return Err(ProblemError::Parse(format!(
                    "\"{linear_key}\" has {} entries, expected n={n}",
                    arr.len()
                )));
            }
            arr.iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| ProblemError::Parse(format!("non-number in {linear_key:?}")))
                })
                .collect::<Result<Vec<f64>, _>>()?
        }
    };
    let mut quadratic = Vec::new();
    if let Some(v) = doc.get(quad_key) {
        let arr = v
            .as_arr()
            .ok_or_else(|| ProblemError::Parse(format!("\"{quad_key}\" must be an array")))?;
        if arr.len() > MAX_COUPLINGS {
            return Err(unsupported(format!("more than {MAX_COUPLINGS} couplings")));
        }
        for entry in arr {
            let triple = entry
                .as_arr()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| ProblemError::Parse(format!("{quad_key:?} entries are [i,j,w]")))?;
            let i = triple[0]
                .as_usize()
                .ok_or_else(|| ProblemError::Parse("bad coupling index".into()))?;
            let j = triple[1]
                .as_usize()
                .ok_or_else(|| ProblemError::Parse("bad coupling index".into()))?;
            let w = triple[2]
                .as_f64()
                .ok_or_else(|| ProblemError::Parse("bad coupling weight".into()))?;
            if i >= n || j >= n {
                return Err(ProblemError::Parse(format!(
                    "coupling ({i},{j}) out of range for n={n}"
                )));
            }
            if i == j {
                return Err(ProblemError::Parse(format!(
                    "self-coupling ({i},{i}); put diagonal terms in \"{linear_key}\""
                )));
            }
            quadratic.push((i.min(j) as u32, i.max(j) as u32, w));
        }
    }
    Ok((n, linear, quadratic))
}

impl ProblemSpec {
    /// Ingests a problem from its standard text format:
    ///
    /// | class | format |
    /// |---|---|
    /// | coloring / max-cut / max-k-cut / mis / vertex-cover | DIMACS `.col` (`p edge`, `e u v`) |
    /// | number-partition | whitespace-separated weights |
    /// | cnf-sat | DIMACS CNF (`p cnf`, 0-terminated clauses) |
    /// | qubo / ising | JSON (see [`read_qubo_json`] / [`read_ising_json`]) |
    ///
    /// `k` is the palette / class count for coloring and max-k-cut (use 0
    /// for the default of 4); it is ignored by every other class.
    ///
    /// # Errors
    ///
    /// [`ProblemError::Parse`] on malformed input, [`ProblemError::Unsupported`]
    /// when the instance exceeds the documented caps.
    pub fn from_text(class: ProblemClass, text: &str, k: u16) -> Result<ProblemSpec, ProblemError> {
        let graph = |text: &str| graph_io::read_dimacs(text.as_bytes()).map_err(parse_err);
        let k = if k == 0 { 4 } else { k };
        let spec = match class {
            ProblemClass::Coloring => ProblemSpec::Coloring {
                graph: graph(text)?,
                colors: k,
            },
            ProblemClass::MaxCut => ProblemSpec::MaxCut {
                graph: graph(text)?,
            },
            ProblemClass::MaxKCut => ProblemSpec::MaxKCut {
                graph: graph(text)?,
                k,
            },
            ProblemClass::Mis => ProblemSpec::Mis {
                graph: graph(text)?,
            },
            ProblemClass::VertexCover => ProblemSpec::VertexCover {
                graph: graph(text)?,
            },
            ProblemClass::NumberPartition => ProblemSpec::NumberPartition {
                weights: read_weights(text)?,
            },
            ProblemClass::CnfSat => ProblemSpec::CnfSat {
                cnf: msropm_sat::cnf::read_dimacs_cnf(text.as_bytes()).map_err(parse_err)?,
            },
            ProblemClass::Qubo => ProblemSpec::Qubo(read_qubo_json(text)?),
            ProblemClass::Ising => ProblemSpec::Ising(read_ising_json(text)?),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The class of this spec.
    pub fn class(&self) -> ProblemClass {
        match self {
            ProblemSpec::Coloring { .. } => ProblemClass::Coloring,
            ProblemSpec::MaxCut { .. } => ProblemClass::MaxCut,
            ProblemSpec::MaxKCut { .. } => ProblemClass::MaxKCut,
            ProblemSpec::Mis { .. } => ProblemClass::Mis,
            ProblemSpec::VertexCover { .. } => ProblemClass::VertexCover,
            ProblemSpec::NumberPartition { .. } => ProblemClass::NumberPartition,
            ProblemSpec::CnfSat { .. } => ProblemClass::CnfSat,
            ProblemSpec::Qubo(_) => ProblemClass::Qubo,
            ProblemSpec::Ising(_) => ProblemClass::Ising,
        }
    }

    /// Number of domain variables (vertices, items, CNF variables, spins).
    pub fn domain_size(&self) -> usize {
        match self {
            ProblemSpec::Coloring { graph, .. }
            | ProblemSpec::MaxCut { graph }
            | ProblemSpec::MaxKCut { graph, .. }
            | ProblemSpec::Mis { graph }
            | ProblemSpec::VertexCover { graph } => graph.num_nodes(),
            ProblemSpec::NumberPartition { weights } => weights.len(),
            ProblemSpec::CnfSat { cnf } => cnf.num_vars(),
            ProblemSpec::Qubo(q) => q.n,
            ProblemSpec::Ising(i) => i.n,
        }
    }

    /// Checks instance-level invariants (size caps, palette constraints).
    ///
    /// # Errors
    ///
    /// [`ProblemError::Unsupported`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ProblemError> {
        let check_palette = |k: u16| {
            if !(2..=MAX_COLORS).contains(&k) || !k.is_power_of_two() {
                Err(unsupported(format!(
                    "palette size {k} (the machine realizes 2^stages colors, 2..={MAX_COLORS})"
                )))
            } else {
                Ok(())
            }
        };
        match self {
            ProblemSpec::Coloring { graph, colors } => {
                check_palette(*colors)?;
                check_graph(graph)
            }
            ProblemSpec::MaxKCut { graph, k } => {
                check_palette(*k)?;
                check_graph(graph)
            }
            ProblemSpec::MaxCut { graph }
            | ProblemSpec::Mis { graph }
            | ProblemSpec::VertexCover { graph } => check_graph(graph),
            ProblemSpec::NumberPartition { weights } => {
                if weights.len() < 2 {
                    return Err(unsupported("need at least two weights"));
                }
                if weights.len() > MAX_WEIGHTS {
                    return Err(unsupported(format!("more than {MAX_WEIGHTS} weights")));
                }
                if let Some(w) = weights.iter().find(|&&w| w > MAX_WEIGHT) {
                    return Err(unsupported(format!("weight {w} exceeds {MAX_WEIGHT}")));
                }
                Ok(())
            }
            ProblemSpec::CnfSat { cnf } => {
                if cnf.num_vars() == 0 || cnf.num_clauses() == 0 {
                    return Err(unsupported("empty CNF"));
                }
                if cnf.num_vars() > MAX_VARIABLES {
                    return Err(unsupported(format!("more than {MAX_VARIABLES} variables")));
                }
                if cnf.num_clauses() > MAX_CNF_CLAUSES {
                    return Err(unsupported(format!("more than {MAX_CNF_CLAUSES} clauses")));
                }
                let lits: usize = cnf.clauses().map(<[Lit]>::len).sum();
                if lits > MAX_CNF_LITERALS {
                    return Err(unsupported(format!(
                        "more than {MAX_CNF_LITERALS} literals"
                    )));
                }
                Ok(())
            }
            ProblemSpec::Qubo(Qubo {
                n,
                linear,
                quadratic,
            }) => check_quadratic(*n, linear, quadratic),
            ProblemSpec::Ising(Ising { n, h, j }) => check_quadratic(*n, h, j),
        }
    }

    /// A stable 64-bit fingerprint of the problem *instance* (class +
    /// domain payload). Extends the problem-cache key beyond the encoding
    /// graph's hash so distinct encodings of the same graph never collide,
    /// and lets clients correlate reports with what they submitted.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u8(self.class().tag());
        match self {
            ProblemSpec::Coloring { graph, colors } => {
                h.u64(graph_hash(graph));
                h.u64(u64::from(*colors));
            }
            ProblemSpec::MaxKCut { graph, k } => {
                h.u64(graph_hash(graph));
                h.u64(u64::from(*k));
            }
            ProblemSpec::MaxCut { graph }
            | ProblemSpec::Mis { graph }
            | ProblemSpec::VertexCover { graph } => h.u64(graph_hash(graph)),
            ProblemSpec::NumberPartition { weights } => {
                h.u64(weights.len() as u64);
                for &w in weights {
                    h.u64(w);
                }
            }
            ProblemSpec::CnfSat { cnf } => {
                h.u64(cnf.num_vars() as u64);
                h.u64(cnf.num_clauses() as u64);
                for clause in cnf.clauses() {
                    h.u64(clause.len() as u64);
                    for l in clause {
                        h.u64(l.to_dimacs() as u64);
                    }
                }
            }
            ProblemSpec::Qubo(Qubo {
                n,
                linear,
                quadratic,
            }) => hash_quadratic(&mut h, *n, linear, quadratic),
            ProblemSpec::Ising(Ising { n, h: field, j }) => hash_quadratic(&mut h, *n, field, j),
        }
        h.finish()
    }

    /// Lowers the spec onto the machine: encoding graph + operating point
    /// + `replicas` uniform lanes + the domain decoder.
    ///
    /// # Errors
    ///
    /// [`ProblemError::Unsupported`] when the instance fails
    /// [`ProblemSpec::validate`], its encoding graph would exceed
    /// [`MAX_COUPLINGS`] edges, or the compiled config fails
    /// [`MsropmConfig::check`].
    pub fn compile(
        &self,
        base: &MsropmConfig,
        replicas: usize,
    ) -> Result<CompiledProblem, ProblemError> {
        self.validate()?;
        if replicas == 0 {
            return Err(unsupported("need at least one replica lane"));
        }
        let graph = self.encoding_graph()?;
        let num_colors = match self {
            ProblemSpec::Coloring { colors, .. } => *colors as usize,
            ProblemSpec::MaxKCut { k, .. } => *k as usize,
            // Every binary encoding runs the machine in 2-color
            // (single-stage max-cut) mode.
            _ => 2,
        };
        let config = MsropmConfig {
            num_colors,
            ..*base
        };
        // The palette sets the stage count, so the step cap is checked
        // on the compiled config, not only on the submitted one.
        config
            .check()
            .map_err(|e| unsupported(format!("invalid config: {e}")))?;
        Ok(CompiledProblem {
            fingerprint: self.fingerprint(),
            graph,
            config,
            lanes: vec![LaneConfig::default(); replicas],
            decoder: Decoder { spec: self.clone() },
        })
    }

    /// Builds the unweighted coupling topology the oscillators anneal.
    fn encoding_graph(&self) -> Result<Graph, ProblemError> {
        match self {
            // Graph problems run on the instance graph itself.
            ProblemSpec::Coloring { graph, .. }
            | ProblemSpec::MaxCut { graph }
            | ProblemSpec::MaxKCut { graph, .. }
            | ProblemSpec::Mis { graph }
            | ProblemSpec::VertexCover { graph } => Ok(graph.clone()),
            // Number partitioning is max-cut on K_n (J_ij = w_i w_j is
            // all-to-all antiferromagnetic; the topology is complete).
            ProblemSpec::NumberPartition { weights } => {
                let n = weights.len();
                let mut b = GraphBuilder::new(n);
                for u in 0..n {
                    for v in (u + 1)..n {
                        b.add_edge_dedup(u, v);
                    }
                }
                Ok(b.build())
            }
            // CNF: variable co-occurrence graph. Variables sharing a clause
            // are coupled; the anneal pushes them toward opposite phases,
            // seeding diverse assignments over exactly the interacting sets.
            ProblemSpec::CnfSat { cnf } => {
                let n = cnf.num_vars().max(2);
                let mut b = GraphBuilder::new(n);
                for clause in cnf.clauses() {
                    for (a, la) in clause.iter().enumerate() {
                        for lb in clause.iter().skip(a + 1) {
                            b.add_edge_dedup(la.var().index(), lb.var().index());
                            if b.num_edges() > MAX_COUPLINGS {
                                return Err(unsupported(format!(
                                    "CNF co-occurrence graph exceeds {MAX_COUPLINGS} edges"
                                )));
                            }
                        }
                    }
                }
                Ok(b.build())
            }
            // QUBO / Ising: nodes are variables, edges are the nonzero
            // couplings (magnitudes and fields live in the decoder).
            ProblemSpec::Qubo(Qubo { n, quadratic, .. }) => quadratic_graph(*n, quadratic),
            ProblemSpec::Ising(Ising { n, j, .. }) => quadratic_graph(*n, j),
        }
    }
}

fn check_graph(graph: &Graph) -> Result<(), ProblemError> {
    if graph.num_nodes() < 2 {
        return Err(unsupported("need at least two vertices"));
    }
    Ok(())
}

fn check_quadratic(n: usize, linear: &[f64], quad: &[(u32, u32, f64)]) -> Result<(), ProblemError> {
    if n < 2 {
        return Err(unsupported("need at least two variables"));
    }
    if n > MAX_VARIABLES {
        return Err(unsupported(format!("more than {MAX_VARIABLES} variables")));
    }
    if !linear.is_empty() && linear.len() != n {
        return Err(unsupported(format!(
            "linear terms: {} entries, expected 0 or n={n}",
            linear.len()
        )));
    }
    if quad.len() > MAX_COUPLINGS {
        return Err(unsupported(format!("more than {MAX_COUPLINGS} couplings")));
    }
    if linear.iter().any(|x| !x.is_finite()) || quad.iter().any(|(_, _, w)| !w.is_finite()) {
        return Err(unsupported("non-finite coefficient"));
    }
    if let Some(&(i, j, _)) = quad.iter().find(|&&(i, j, _)| i >= j || j as usize >= n) {
        return Err(unsupported(format!(
            "coupling ({i},{j}) out of range (need i < j < n)"
        )));
    }
    Ok(())
}

fn quadratic_graph(n: usize, quad: &[(u32, u32, f64)]) -> Result<Graph, ProblemError> {
    let mut b = GraphBuilder::new(n.max(2));
    for &(i, j, w) in quad {
        if w != 0.0 {
            b.add_edge_dedup(i as usize, j as usize);
        }
    }
    Ok(b.build())
}

fn hash_quadratic(h: &mut Fnv, n: usize, linear: &[f64], quad: &[(u32, u32, f64)]) {
    h.u64(n as u64);
    h.u64(linear.len() as u64);
    for x in linear {
        h.u64(x.to_bits());
    }
    h.u64(quad.len() as u64);
    for &(i, j, w) in quad {
        h.u64(u64::from(i));
        h.u64(u64::from(j));
        h.u64(w.to_bits());
    }
}

/// FNV-1a, the same construction `graph::io::graph_hash` uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A spec lowered onto the machine: what to anneal, how, and how to read
/// the result back into the domain.
#[derive(Debug, Clone)]
pub struct CompiledProblem {
    /// Instance fingerprint ([`ProblemSpec::fingerprint`]); extends the
    /// problem-cache key beyond the encoding graph's hash.
    pub fingerprint: u64,
    /// The unweighted coupling topology the oscillators anneal.
    pub graph: Graph,
    /// Machine operating point (`num_colors` forced per class).
    pub config: MsropmConfig,
    /// Per-replica control lanes (uniform).
    pub lanes: Vec<LaneConfig>,
    /// Maps ranked readouts back to typed domain solutions.
    pub decoder: Decoder,
}

/// A typed domain solution decoded from a phase readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedSolution {
    /// Color index per vertex (coloring, max-k-cut).
    Coloring(Vec<u16>),
    /// Cut side per vertex (max-cut).
    CutSides(Vec<bool>),
    /// Sorted member vertices (independent set, vertex cover).
    Subset(Vec<u32>),
    /// Side per item (number partitioning).
    Partition(Vec<bool>),
    /// Truth value per variable (CNF).
    Assignment(Vec<bool>),
    /// Binary/spin state per variable (QUBO: `x_i = 1` ⇔ `true`;
    /// Ising: `s_i = +1` ⇔ `true`).
    Spins(Vec<bool>),
}

/// One lane's decoded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedLane {
    /// Lane index within the job.
    pub lane: u32,
    /// The derived seed the lane ran with.
    pub seed: u64,
    /// Domain objective (see [`ProblemClass::sense`] for direction).
    pub objective: f64,
    /// Whether the solution satisfies the class's hard constraints
    /// (proper coloring / satisfying assignment / perfect partition;
    /// always `true` for pure optimization classes).
    pub feasible: bool,
    /// The typed solution.
    pub solution: DecodedSolution,
}

/// The decoded, domain-level result of one problem solve: every lane's
/// typed solution, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemReport {
    /// Problem class.
    pub class: ProblemClass,
    /// Instance fingerprint (echo of [`ProblemSpec::fingerprint`]).
    pub problem_fingerprint: u64,
    /// Canonical hash of the *encoding* graph the machine annealed.
    pub graph_hash: u64,
    /// Job seed (echo).
    pub seed: u64,
    /// Lanes ranked best-objective-first (ties: ascending lane index).
    pub ranked: Vec<DecodedLane>,
}

impl ProblemReport {
    /// The best decoded lane.
    pub fn best(&self) -> Option<&DecodedLane> {
        self.ranked.first()
    }
}

/// Maps ranked phase readouts back to typed domain solutions.
///
/// Decoding is a **pure function** of the readout: the same machine
/// report decodes to the same `ProblemReport` on every worker, shard
/// width and front end. Classes whose weights the unweighted machine
/// cannot see (number partitioning, QUBO, Ising, CNF) finish with a
/// deterministic domain-level greedy descent seeded by the readout — the
/// standard Ising-machine post-processing step.
#[derive(Debug, Clone)]
pub struct Decoder {
    spec: ProblemSpec,
}

impl Decoder {
    /// The class this decoder maps back to.
    pub fn class(&self) -> ProblemClass {
        self.spec.class()
    }

    /// The spec this decoder was compiled from.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// Decodes a full machine report: every lane decoded, then re-ranked
    /// by domain objective (the machine ranks by encoding-graph conflicts,
    /// which is not always the domain metric).
    pub fn decode_report(&self, report: &JobReport) -> ProblemReport {
        let mut ranked: Vec<DecodedLane> = report
            .ranked
            .iter()
            .map(|lane| {
                let (solution, objective, feasible) = self.decode_coloring(&lane.solution.coloring);
                DecodedLane {
                    lane: lane.lane as u32,
                    seed: lane.seed,
                    objective,
                    feasible,
                    solution,
                }
            })
            .collect();
        let sense = self.class().sense();
        ranked.sort_by(|a, b| {
            let ord = a.objective.total_cmp(&b.objective);
            match sense {
                ObjectiveSense::Minimize => ord,
                ObjectiveSense::Maximize => ord.reverse(),
            }
            .then(a.lane.cmp(&b.lane))
        });
        ProblemReport {
            class: self.class(),
            problem_fingerprint: self.spec.fingerprint(),
            graph_hash: report.graph_hash,
            seed: report.seed,
            ranked,
        }
    }

    /// Decodes one readout into `(solution, objective, feasible)`.
    ///
    /// # Panics
    ///
    /// Panics if `coloring` covers fewer nodes than the encoding graph
    /// (i.e. it is not a readout of this compiled problem).
    pub fn decode_coloring(&self, coloring: &Coloring) -> (DecodedSolution, f64, bool) {
        match &self.spec {
            ProblemSpec::Coloring { graph, .. } => {
                let conflicts = coloring.conflicts(graph);
                let colors = coloring
                    .as_slice()
                    .iter()
                    .map(|c| c.index() as u16)
                    .collect();
                (
                    DecodedSolution::Coloring(colors),
                    conflicts as f64,
                    conflicts == 0,
                )
            }
            ProblemSpec::MaxCut { graph } => {
                let sides = sides_of(coloring, graph.num_nodes());
                let cut = cut_edges(graph, &sides);
                (DecodedSolution::CutSides(sides), cut as f64, true)
            }
            ProblemSpec::MaxKCut { graph, .. } => {
                let cut = graph.num_edges() - coloring.conflicts(graph);
                let colors = coloring
                    .as_slice()
                    .iter()
                    .map(|c| c.index() as u16)
                    .collect();
                (DecodedSolution::Coloring(colors), cut as f64, true)
            }
            ProblemSpec::Mis { graph } => {
                let set = decode_independent_set(graph, coloring);
                let size = set.len();
                (DecodedSolution::Subset(set), size as f64, true)
            }
            ProblemSpec::VertexCover { graph } => {
                let set = decode_independent_set(graph, coloring);
                let mut in_set = vec![false; graph.num_nodes()];
                for &v in &set {
                    in_set[v as usize] = true;
                }
                let cover: Vec<u32> = (0..graph.num_nodes() as u32)
                    .filter(|&v| !in_set[v as usize])
                    .collect();
                let size = cover.len();
                (DecodedSolution::Subset(cover), size as f64, true)
            }
            ProblemSpec::NumberPartition { weights } => {
                let mut sides = sides_of(coloring, weights.len());
                let imbalance = repair_partition(weights, &mut sides);
                (
                    DecodedSolution::Partition(sides),
                    imbalance as f64,
                    imbalance == 0,
                )
            }
            ProblemSpec::CnfSat { cnf } => {
                let mut assignment = sides_of(coloring, cnf.num_vars());
                let unsat = repair_assignment(cnf, &mut assignment);
                (
                    DecodedSolution::Assignment(assignment),
                    unsat as f64,
                    unsat == 0,
                )
            }
            ProblemSpec::Qubo(q) => {
                let mut x = sides_of(coloring, q.n);
                let energy = descend_qubo(q, &mut x);
                (DecodedSolution::Spins(x), energy, true)
            }
            ProblemSpec::Ising(ising) => {
                let mut s = sides_of(coloring, ising.n);
                let energy = descend_ising(ising, &mut s);
                (DecodedSolution::Spins(s), energy, true)
            }
        }
    }

    /// Recomputes the domain objective of a decoded solution from scratch
    /// (the client-side analogue of `proto::verify_lane`): `Some(obj)` if
    /// the solution is well-formed for this problem, `None` otherwise.
    /// For a lane produced by [`Decoder::decode_report`] this always
    /// equals the lane's `objective`.
    pub fn objective_of(&self, solution: &DecodedSolution) -> Option<f64> {
        match (&self.spec, solution) {
            (ProblemSpec::Coloring { graph, colors }, DecodedSolution::Coloring(c)) => {
                if c.len() != graph.num_nodes() || c.iter().any(|&x| x >= *colors) {
                    return None;
                }
                let coloring = Coloring::from_indices(c.iter().map(|&x| x as usize));
                Some(coloring.conflicts(graph) as f64)
            }
            (ProblemSpec::MaxCut { graph }, DecodedSolution::CutSides(sides)) => {
                (sides.len() == graph.num_nodes()).then(|| cut_edges(graph, sides) as f64)
            }
            (ProblemSpec::MaxKCut { graph, k }, DecodedSolution::Coloring(c)) => {
                if c.len() != graph.num_nodes() || c.iter().any(|&x| x >= *k) {
                    return None;
                }
                let coloring = Coloring::from_indices(c.iter().map(|&x| x as usize));
                Some((graph.num_edges() - coloring.conflicts(graph)) as f64)
            }
            (ProblemSpec::Mis { graph }, DecodedSolution::Subset(set)) => {
                is_independent(graph, set).then_some(set.len() as f64)
            }
            (ProblemSpec::VertexCover { graph }, DecodedSolution::Subset(cover)) => {
                is_cover(graph, cover).then_some(cover.len() as f64)
            }
            (ProblemSpec::NumberPartition { weights }, DecodedSolution::Partition(sides)) => {
                (sides.len() == weights.len()).then(|| imbalance(weights, sides) as f64)
            }
            (ProblemSpec::CnfSat { cnf }, DecodedSolution::Assignment(a)) => {
                (a.len() == cnf.num_vars()).then(|| unsat_count(cnf, a) as f64)
            }
            (ProblemSpec::Qubo(q), DecodedSolution::Spins(x)) => {
                (x.len() == q.n).then(|| qubo_energy(q, x))
            }
            (ProblemSpec::Ising(ising), DecodedSolution::Spins(s)) => {
                (s.len() == ising.n).then(|| ising_energy(ising, s))
            }
            _ => None,
        }
    }
}

/// Binary side bits from a (2-color) readout: the color LSB per node,
/// truncated to the domain size.
fn sides_of(coloring: &Coloring, n: usize) -> Vec<bool> {
    assert!(
        coloring.len() >= n,
        "readout covers {} nodes, domain needs {n}",
        coloring.len()
    );
    coloring.as_slice()[..n]
        .iter()
        .map(|c| c.index() & 1 == 1)
        .collect()
}

fn cut_edges(graph: &Graph, sides: &[bool]) -> usize {
    graph
        .edges()
        .filter(|&(_, u, v)| sides[u.index()] != sides[v.index()])
        .count()
}

fn is_independent(graph: &Graph, set: &[u32]) -> bool {
    let n = graph.num_nodes();
    if set.iter().any(|&v| v as usize >= n) {
        return false;
    }
    let mut in_set = vec![false; n];
    for &v in set {
        in_set[v as usize] = true;
    }
    graph
        .edges()
        .all(|(_, u, v)| !(in_set[u.index()] && in_set[v.index()]))
}

fn is_cover(graph: &Graph, cover: &[u32]) -> bool {
    let n = graph.num_nodes();
    if cover.iter().any(|&v| v as usize >= n) {
        return false;
    }
    let mut in_cover = vec![false; n];
    for &v in cover {
        in_cover[v as usize] = true;
    }
    graph
        .edges()
        .all(|(_, u, v)| in_cover[u.index()] || in_cover[v.index()])
}

/// Independent set from a 2-color readout: take each color class as the
/// candidate set, repair it to independence (repeatedly dropping the
/// member with the most in-set neighbours; ties break toward the higher
/// index), then greedily re-add any vertex with no in-set neighbour in
/// ascending order. The larger of the two repaired sets wins (ties keep
/// the color-0 side). Deterministic.
fn decode_independent_set(graph: &Graph, coloring: &Coloring) -> Vec<u32> {
    let n = graph.num_nodes();
    let sides = sides_of(coloring, n);
    let repair = |want: bool| -> Vec<u32> {
        let mut in_set: Vec<bool> = sides.iter().map(|&s| s == want).collect();
        // In-set neighbour counts, maintained incrementally.
        let mut load: Vec<usize> = (0..n)
            .map(|v| {
                graph
                    .neighbors(NodeId::new(v))
                    .filter(|(w, _)| in_set[w.index()])
                    .count()
            })
            .collect();
        loop {
            let mut worst: Option<(usize, usize)> = None; // (load, vertex)
            for v in 0..n {
                if in_set[v] && load[v] > 0 {
                    worst = Some(match worst {
                        Some((bl, bv)) if (load[v], v) <= (bl, bv) => (bl, bv),
                        _ => (load[v], v),
                    });
                }
            }
            let Some((_, v)) = worst else { break };
            in_set[v] = false;
            for (w, _) in graph.neighbors(NodeId::new(v)) {
                load[w.index()] -= 1;
            }
        }
        for v in 0..n {
            if !in_set[v] && load[v] == 0 {
                in_set[v] = true;
                for (w, _) in graph.neighbors(NodeId::new(v)) {
                    load[w.index()] += 1;
                }
            }
        }
        (0..n as u32).filter(|&v| in_set[v as usize]).collect()
    };
    let a = repair(false);
    let b = repair(true);
    if b.len() > a.len() {
        b
    } else {
        a
    }
}

fn imbalance(weights: &[u64], sides: &[bool]) -> u64 {
    let mut diff: i128 = 0;
    for (&w, &s) in weights.iter().zip(sides) {
        if s {
            diff -= w as i128;
        } else {
            diff += w as i128;
        }
    }
    diff.unsigned_abs() as u64
}

/// Deterministic single-move descent on the partition imbalance: while
/// moving one item strictly reduces `|sum_A - sum_B|`, apply the best
/// such move (ties break toward the lowest index). Terminates because the
/// imbalance is a strictly decreasing non-negative integer.
fn repair_partition(weights: &[u64], sides: &mut [bool]) -> u64 {
    let mut diff: i128 = 0;
    for (&w, &s) in weights.iter().zip(sides.iter()) {
        if s {
            diff -= w as i128;
        } else {
            diff += w as i128;
        }
    }
    loop {
        let mut best: Option<(u128, usize, i128)> = None; // (|new diff|, item, new diff)
        for (i, (&w, &s)) in weights.iter().zip(sides.iter()).enumerate() {
            // Moving item i across flips its contribution.
            let new_diff = if s {
                diff + 2 * w as i128
            } else {
                diff - 2 * w as i128
            };
            let mag = new_diff.unsigned_abs();
            if mag < diff.unsigned_abs() && best.is_none_or(|(bm, _, _)| mag < bm) {
                best = Some((mag, i, new_diff));
            }
        }
        let Some((_, i, new_diff)) = best else { break };
        sides[i] = !sides[i];
        diff = new_diff;
    }
    diff.unsigned_abs() as u64
}

fn unsat_count(cnf: &Cnf, assignment: &[bool]) -> usize {
    cnf.clauses()
        .filter(|c| !c.iter().any(|l| l.eval(assignment[l.var().index()])))
        .count()
}

/// Deterministic GSAT-style descent on the unsatisfied-clause count:
/// best-improvement flips with sideways moves allowed (plateau escape), a
/// 1-step tabu on the variable just flipped (so equal-score two-cycles
/// cannot form), a `4·vars` flip budget, and the best assignment seen
/// returned. Pure function of the starting assignment.
fn repair_assignment(cnf: &Cnf, assignment: &mut [bool]) -> usize {
    let n = assignment.len();
    let mut unsat = unsat_count(cnf, assignment);
    let mut best_seen = assignment.to_vec();
    let mut best_unsat = unsat;
    let mut last_flip: Option<usize> = None;
    for _ in 0..n.saturating_mul(4) {
        if best_unsat == 0 {
            break;
        }
        let mut cand: Option<(usize, usize)> = None; // (new unsat, var)
        for v in 0..n {
            if last_flip == Some(v) {
                continue;
            }
            assignment[v] = !assignment[v];
            let u = unsat_count(cnf, assignment);
            assignment[v] = !assignment[v];
            if cand.is_none_or(|(cu, cv)| (u, v) < (cu, cv)) {
                cand = Some((u, v));
            }
        }
        // Downhill or sideways only; a forced uphill move means a strict
        // local minimum deeper than one flip — stop there.
        let Some((u, v)) = cand.filter(|&(u, _)| u <= unsat) else {
            break;
        };
        assignment[v] = !assignment[v];
        unsat = u;
        last_flip = Some(v);
        if unsat < best_unsat {
            best_unsat = unsat;
            best_seen.copy_from_slice(assignment);
        }
    }
    assignment.copy_from_slice(&best_seen);
    best_unsat
}

fn qubo_energy(q: &Qubo, x: &[bool]) -> f64 {
    let mut e = 0.0;
    for (i, &l) in q.linear.iter().enumerate() {
        if x[i] {
            e += l;
        }
    }
    for &(i, j, w) in &q.quadratic {
        if x[i as usize] && x[j as usize] {
            e += w;
        }
    }
    e
}

fn ising_energy(ising: &Ising, s: &[bool]) -> f64 {
    let spin = |b: bool| if b { 1.0 } else { -1.0 };
    let mut e = 0.0;
    for (i, &h) in ising.h.iter().enumerate() {
        e += h * spin(s[i]);
    }
    for &(i, j, w) in &ising.j {
        e += w * spin(s[i as usize]) * spin(s[j as usize]);
    }
    e
}

/// Deterministic 1-flip descent shared by QUBO and Ising decoding: start
/// from the better of the readout and its complement (the unweighted
/// anneal cannot see field signs, so the global flip is free), then apply
/// best-improvement flips until a local optimum, capped at `4n` flips.
fn descend_bits(bits: &mut [bool], energy: &dyn Fn(&[bool]) -> f64) -> f64 {
    let flipped: Vec<bool> = bits.iter().map(|b| !b).collect();
    let e0 = energy(bits);
    let e1 = energy(&flipped);
    let mut e = if e1 < e0 {
        bits.copy_from_slice(&flipped);
        e1
    } else {
        e0
    };
    for _ in 0..bits.len().saturating_mul(4) {
        let mut best: Option<(f64, usize)> = None;
        for v in 0..bits.len() {
            bits[v] = !bits[v];
            let cand = energy(bits);
            bits[v] = !bits[v];
            if cand < e && best.is_none_or(|(be, _)| cand < be) {
                best = Some((cand, v));
            }
        }
        let Some((cand, v)) = best else { break };
        bits[v] = !bits[v];
        e = cand;
    }
    e
}

fn descend_qubo(q: &Qubo, x: &mut [bool]) -> f64 {
    descend_bits(x, &|bits| qubo_energy(q, bits))
}

fn descend_ising(ising: &Ising, s: &mut [bool]) -> f64 {
    descend_bits(s, &|bits| ising_energy(ising, bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_graph::generators;

    fn coloring(indices: &[usize]) -> Coloring {
        Coloring::from_indices(indices.iter().copied())
    }

    #[test]
    fn class_tags_roundtrip() {
        for c in ProblemClass::ALL {
            assert_eq!(ProblemClass::from_tag(c.tag()), Some(c));
            assert_eq!(ProblemClass::from_name(c.name()), Some(c));
        }
        assert_eq!(ProblemClass::from_tag(0), None);
        assert_eq!(ProblemClass::from_tag(10), None);
    }

    #[test]
    fn fingerprints_distinguish_encodings_of_the_same_graph() {
        let g = generators::cycle_graph(6);
        let specs = [
            ProblemSpec::MaxCut { graph: g.clone() },
            ProblemSpec::Mis { graph: g.clone() },
            ProblemSpec::VertexCover { graph: g.clone() },
            ProblemSpec::Coloring {
                graph: g.clone(),
                colors: 2,
            },
            ProblemSpec::MaxKCut { graph: g, k: 2 },
        ];
        // All five compile to the *same* encoding graph (and the binary
        // ones to the same config); the fingerprints must still differ.
        let fps: Vec<u64> = specs.iter().map(ProblemSpec::fingerprint).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "specs {i} and {j} collide");
            }
        }
    }

    #[test]
    fn fingerprint_is_stable() {
        let spec = ProblemSpec::NumberPartition {
            weights: vec![3, 1, 4, 1, 5],
        };
        assert_eq!(spec.fingerprint(), spec.fingerprint());
        let other = ProblemSpec::NumberPartition {
            weights: vec![3, 1, 4, 1, 6],
        };
        assert_ne!(spec.fingerprint(), other.fingerprint());
    }

    #[test]
    fn compile_forces_num_colors() {
        let base = MsropmConfig::paper_default(); // 4 colors
        let g = generators::cycle_graph(5);
        let c = ProblemSpec::MaxCut { graph: g.clone() }
            .compile(&base, 2)
            .unwrap();
        assert_eq!(c.config.num_colors, 2);
        assert_eq!(c.lanes.len(), 2);
        let c = ProblemSpec::MaxKCut { graph: g, k: 8 }
            .compile(&base, 1)
            .unwrap();
        assert_eq!(c.config.num_colors, 8);
    }

    #[test]
    fn compile_rejects_bad_palettes_and_empty_instances() {
        let base = MsropmConfig::paper_default();
        let g = generators::cycle_graph(5);
        for k in [0u16, 1, 3, 6, 257] {
            let err = ProblemSpec::MaxKCut {
                graph: g.clone(),
                k,
            }
            .compile(&base, 1)
            .unwrap_err();
            assert!(matches!(err, ProblemError::Unsupported(_)), "k={k}");
        }
        assert!(ProblemSpec::NumberPartition { weights: vec![7] }
            .compile(&base, 1)
            .is_err());
        assert!(ProblemSpec::CnfSat { cnf: Cnf::new(0) }
            .compile(&base, 1)
            .is_err());
        assert!(ProblemSpec::MaxCut { graph: g }.compile(&base, 0).is_err());
    }

    #[test]
    fn number_partition_encodes_to_complete_graph() {
        let spec = ProblemSpec::NumberPartition {
            weights: vec![1, 2, 3, 4],
        };
        let c = spec.compile(&MsropmConfig::paper_default(), 1).unwrap();
        assert_eq!(c.graph.num_nodes(), 4);
        assert_eq!(c.graph.num_edges(), 6);
    }

    #[test]
    fn cnf_encodes_to_cooccurrence_graph() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)]);
        cnf.add_clause(vec![
            Lit::from_dimacs(2),
            Lit::from_dimacs(3),
            Lit::from_dimacs(4),
        ]);
        let c = ProblemSpec::CnfSat { cnf }
            .compile(&MsropmConfig::paper_default(), 1)
            .unwrap();
        assert_eq!(c.graph.num_nodes(), 4);
        assert_eq!(c.graph.num_edges(), 4); // {0,1} {1,2} {1,3} {2,3}
    }

    #[test]
    fn mis_decode_repairs_to_independence() {
        // Path 0-1-2-3-4: putting everything on one side is maximally
        // conflicted; the decoder must still emit an independent set.
        let g = generators::path_graph(5);
        let spec = ProblemSpec::Mis { graph: g.clone() };
        let d = Decoder { spec };
        let (sol, obj, feasible) = d.decode_coloring(&coloring(&[0, 0, 0, 0, 0]));
        let DecodedSolution::Subset(set) = &sol else {
            panic!("wrong solution type")
        };
        assert!(is_independent(&g, set));
        assert!(feasible);
        assert_eq!(obj, set.len() as f64);
        assert_eq!(set.len(), 3, "path_5 MIS is {{0,2,4}}");
        assert_eq!(d.objective_of(&sol), Some(obj));
    }

    #[test]
    fn vertex_cover_decode_covers_every_edge() {
        let g = generators::kings_graph(3, 3);
        let spec = ProblemSpec::VertexCover { graph: g.clone() };
        let d = Decoder { spec };
        let readout = coloring(&[0, 1, 0, 1, 0, 1, 0, 1, 0]);
        let (sol, obj, _) = d.decode_coloring(&readout);
        let DecodedSolution::Subset(cover) = &sol else {
            panic!("wrong solution type")
        };
        assert!(is_cover(&g, cover));
        assert_eq!(obj, cover.len() as f64);
        assert_eq!(d.objective_of(&sol), Some(obj));
    }

    #[test]
    fn partition_repair_reaches_local_optimum() {
        let weights = vec![8u64, 7, 6, 5, 4];
        let mut sides = vec![false; 5]; // everything on one side: imbalance 30
        let imb = repair_partition(&weights, &mut sides);
        assert_eq!(imb, 0, "8+7 = 6+5+4");
        // No single move may improve further (local optimality).
        for i in 0..weights.len() {
            let mut probe = sides.clone();
            probe[i] = !probe[i];
            assert!(imbalance(&weights, &probe) >= imb);
        }
    }

    #[test]
    fn cnf_repair_fixes_satisfiable_instances() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::from_dimacs(1), Lit::from_dimacs(2)]);
        cnf.add_clause(vec![Lit::from_dimacs(-1), Lit::from_dimacs(3)]);
        cnf.add_clause(vec![Lit::from_dimacs(-2)]);
        let mut a = vec![false, true, false]; // violates clause 3? (-2): x2 true -> unsat
        let unsat = repair_assignment(&cnf, &mut a);
        assert_eq!(unsat, 0);
        assert!(cnf.eval(&a));
    }

    #[test]
    fn qubo_descent_finds_small_optimum() {
        // E(x) = -x0 - x1 + 2 x0 x1: optima are x = (1,0) / (0,1), E = -1.
        let q = Qubo {
            n: 2,
            linear: vec![-1.0, -1.0],
            quadratic: vec![(0, 1, 2.0)],
        };
        let mut x = vec![false, false];
        let e = descend_qubo(&q, &mut x);
        assert_eq!(e, -1.0);
        assert_ne!(x[0], x[1]);
    }

    #[test]
    fn ising_global_flip_is_considered() {
        // h = (+1, +1), no couplings: ground state is s = (-1, -1), E = -2.
        let ising = Ising {
            n: 2,
            h: vec![1.0, 1.0],
            j: vec![],
        };
        let mut s = vec![true, true]; // readout at the *maximum*
        let e = descend_ising(&ising, &mut s);
        assert_eq!(e, -2.0);
        assert_eq!(s, vec![false, false]);
    }

    #[test]
    fn from_text_parses_every_standard_format() {
        let dimacs = "c tiny\np edge 3 2\ne 1 2\ne 2 3\n";
        for class in [
            ProblemClass::Coloring,
            ProblemClass::MaxCut,
            ProblemClass::MaxKCut,
            ProblemClass::Mis,
            ProblemClass::VertexCover,
        ] {
            let spec = ProblemSpec::from_text(class, dimacs, 0).unwrap();
            assert_eq!(spec.class(), class);
            assert_eq!(spec.domain_size(), 3);
        }
        let spec =
            ProblemSpec::from_text(ProblemClass::NumberPartition, "# c\n10 20\n30\n", 0).unwrap();
        assert_eq!(spec.domain_size(), 3);
        let spec = ProblemSpec::from_text(ProblemClass::CnfSat, "p cnf 2 1\n1 -2 0\n", 0).unwrap();
        assert_eq!(spec.domain_size(), 2);
        let spec = ProblemSpec::from_text(
            ProblemClass::Qubo,
            r#"{"n": 2, "linear": [0.5, -0.5], "quadratic": [[0, 1, 1.0]]}"#,
            0,
        )
        .unwrap();
        assert_eq!(spec.domain_size(), 2);
        let spec = ProblemSpec::from_text(
            ProblemClass::Ising,
            r#"{"n": 3, "j": [[0, 1, -1.0], [1, 2, -1.0]]}"#,
            0,
        )
        .unwrap();
        assert_eq!(spec.domain_size(), 3);
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(ProblemSpec::from_text(ProblemClass::MaxCut, "not dimacs", 0).is_err());
        assert!(ProblemSpec::from_text(ProblemClass::NumberPartition, "1 two 3", 0).is_err());
        assert!(ProblemSpec::from_text(ProblemClass::CnfSat, "p cnf 2 1\n1 x 0", 0).is_err());
        assert!(ProblemSpec::from_text(ProblemClass::Qubo, "{\"n\": }", 0).is_err());
        assert!(
            ProblemSpec::from_text(ProblemClass::Ising, r#"{"n": 2, "j": [[0, 5, 1.0]]}"#, 0)
                .is_err()
        );
    }
}
