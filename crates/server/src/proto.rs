//! The MSROPM wire protocol: length-prefixed frames, hand-rolled codec.
//!
//! No network/serde crates exist in `vendor/`, so the protocol is a
//! small fixed binary format with an explicit, non-panicking decoder.
//!
//! # Frame layout
//!
//! Every message travels as one frame:
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 LE length  |  payload (length bytes)   |
//! +----------------+---------------------------+
//!                    payload[0] = frame type
//!                    payload[1..] = body
//! ```
//!
//! The length covers the payload only (type byte included) and is
//! capped at [`MAX_FRAME_LEN`]; a peer announcing more is desynced or
//! hostile and the connection must be dropped. All integers are
//! little-endian; `f64`s travel as their IEEE-754 bit patterns, so
//! reports are **bit-exact** across the wire.
//!
//! # Frame types (verbs)
//!
//! | byte  | direction | frame |
//! |-------|-----------|-------|
//! | `0x01`| C → S     | `submit` — tenant, graph, job (config + lanes + seed) |
//! | `0x02`| C → S     | `status` — tenant, job id |
//! | `0x03`| C → S     | `cancel` — tenant, job id |
//! | `0x04`| C → S     | `stats` |
//! | `0x05`| C → S     | `submit problem` — tenant, [`msropm_problems::ProblemSpec`], base config, replicas, seed, deadline |
//! | `0x81`| S → C     | `submitted` — job id |
//! | `0x82`| S → C     | `status reply` — job id, [`JobState`] |
//! | `0x83`| S → C     | `cancel reply` — job id, state after the cancel request |
//! | `0x84`| S → C     | `stats reply` — server counters |
//! | `0x90`| S → C     | `report` — streamed when a job completes (never for cancelled jobs) |
//! | `0x92`| S → C     | `problem report` — streamed when a `submit problem` job completes: typed, decoded domain solutions (see [`WireProblemReport`]) |
//! | `0x91`| S → C     | `job error` — job id + typed [`ErrorCode`] + message, streamed when a job dies without a report (panicking solve, expired deadline, dead worker) |
//! | `0xE0`| S → C     | `error` — typed [`ErrorCode`] + message (scoped to the *current request*, unlike `0x91`) |
//!
//! Strings are `u16 LE length + UTF-8 bytes`. A graph is
//! `u32 n, u32 m, m × (u32 u, u32 v)` — the canonical edge list, hashed
//! server-side with [`msropm_graph::io::graph_hash`] and echoed back in
//! the report for end-to-end integrity checking. A submit body ends
//! with `u64 seed, u64 deadline_ms` — a deadline of `0` means none;
//! otherwise the job must produce its report within that many
//! milliseconds of admission or it is shed/abandoned with a `0x91`
//! frame carrying [`ErrorCode::DeadlineExceeded`].
//!
//! # Decoder contract
//!
//! [`decode_request`]/[`decode_response`] **never panic** on arbitrary
//! bytes: truncated, oversized, trailing-garbage and out-of-range
//! inputs all come back as a typed [`ProtoError`] (property-tested
//! below with arbitrary byte prefixes). Configs are validated on decode
//! by `MsropmConfig::check` (finite, non-negative, `num_colors` a power
//! of two ≥ 2, a bounded number of integration steps, …) so a malformed
//! frame is rejected at the boundary and can never panic — or pin — a
//! worker thread deeper in the stack.

use crate::{JobOutcome, JobState};
use msropm_core::{BatchJob, KernelBackend, LaneConfig, MsropmConfig, ReinitMode};
use msropm_graph::Graph;
use msropm_problems::{
    Cnf, DecodedLane, DecodedSolution, Ising, Lit, ProblemClass, ProblemReport, ProblemSpec, Qubo,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on one frame's payload length (type byte + body).
///
/// Generous enough for a ~1M-edge submit or a multi-lane report on a
/// large board, small enough that a garbage length prefix cannot drive
/// an allocation spree.
pub const MAX_FRAME_LEN: u32 = 32 << 20;

/// Longest accepted tenant id, in bytes.
pub const MAX_TENANT_LEN: usize = 256;

/// Most lanes one submitted job may carry. Far above any real sweep
/// (the per-tenant queued-lane quota is orders of magnitude lower) and
/// low enough that a hostile lane count cannot drive a multi-GB
/// pre-allocation in the decoder.
pub const MAX_JOB_LANES: usize = 65_536;

// Frame type bytes.
const T_SUBMIT: u8 = 0x01;
const T_STATUS: u8 = 0x02;
const T_CANCEL: u8 = 0x03;
const T_STATS: u8 = 0x04;
const T_SUBMIT_PROBLEM: u8 = 0x05;
const T_SUBMITTED: u8 = 0x81;
const T_STATUS_REPLY: u8 = 0x82;
const T_CANCEL_REPLY: u8 = 0x83;
const T_STATS_REPLY: u8 = 0x84;
const T_REPORT: u8 = 0x90;
const T_JOB_ERROR: u8 = 0x91;
const T_PROBLEM_REPORT: u8 = 0x92;
const T_ERROR: u8 = 0xE0;

/// Typed error carried by an error frame (`0xE0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request frame could not be decoded or failed validation.
    Malformed = 1,
    /// The frame type byte names no known verb.
    UnsupportedVerb = 2,
    /// The tenant is at its in-flight job quota.
    QuotaInFlight = 3,
    /// Admitting the job would exceed the tenant's queued-lane quota.
    QuotaLanes = 4,
    /// The server is draining; no new jobs are admitted.
    ShuttingDown = 5,
    /// No job with the given id exists.
    UnknownJob = 6,
    /// The job belongs to a different tenant.
    Forbidden = 7,
    /// The server is at its connection cap.
    Busy = 8,
    /// A graceful drain has begun; new submits are rejected while
    /// in-flight jobs run to completion (distinct from
    /// [`ErrorCode::ShuttingDown`], which means the worker pool itself
    /// is gone).
    Draining = 9,
    /// The job's deadline expired before it produced a report — shed in
    /// the queue or abandoned at a stage boundary. Not retryable as-is
    /// (the same submit would expire again under the same load).
    DeadlineExceeded = 10,
    /// The server failed internally executing the job (a panicking
    /// solve or a dead worker); the job is lost but the server lives.
    Internal = 11,
    /// A `submit problem` carried a spec the server cannot compile
    /// (invalid palette, instance over caps, …). Request-scoped: the
    /// connection stays usable.
    UnsupportedProblem = 12,
}

impl ErrorCode {
    /// Inverse of `self as u16`.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnsupportedVerb),
            3 => Some(ErrorCode::QuotaInFlight),
            4 => Some(ErrorCode::QuotaLanes),
            5 => Some(ErrorCode::ShuttingDown),
            6 => Some(ErrorCode::UnknownJob),
            7 => Some(ErrorCode::Forbidden),
            8 => Some(ErrorCode::Busy),
            9 => Some(ErrorCode::Draining),
            10 => Some(ErrorCode::DeadlineExceeded),
            11 => Some(ErrorCode::Internal),
            12 => Some(ErrorCode::UnsupportedProblem),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed request",
            ErrorCode::UnsupportedVerb => "unsupported verb",
            ErrorCode::QuotaInFlight => "tenant in-flight job quota exceeded",
            ErrorCode::QuotaLanes => "tenant queued-lane quota exceeded",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::UnknownJob => "unknown job id",
            ErrorCode::Forbidden => "job belongs to a different tenant",
            ErrorCode::Busy => "server connection cap reached",
            ErrorCode::Draining => "server is draining; no new submits",
            ErrorCode::DeadlineExceeded => "job deadline exceeded",
            ErrorCode::Internal => "internal server error executing the job",
            ErrorCode::UnsupportedProblem => "unsupported problem spec",
        };
        f.write_str(s)
    }
}

/// Decode/stream failures. Everything except [`ProtoError::Io`] means
/// the *bytes* were bad, not the transport.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying transport failure (including EOF mid-frame).
    Io(io::Error),
    /// The payload ended before the field being read.
    Truncated,
    /// A frame header announced more than [`MAX_FRAME_LEN`] bytes.
    Oversized(u32),
    /// Bytes remained after the last field of the message.
    Trailing(usize),
    /// Unknown frame type byte.
    BadTag(u8),
    /// A field held an out-of-range or inconsistent value.
    BadValue(&'static str),
    /// The embedded graph was rejected (self-loop, bad endpoint, …).
    Graph(String),
    /// The embedded problem spec was rejected by
    /// [`msropm_problems::ProblemSpec::validate`] (over caps, bad
    /// palette, inconsistent instance, …).
    Problem(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::BadTag(t) => write!(f, "unknown frame type 0x{t:02X}"),
            ProtoError::BadValue(what) => write!(f, "invalid field: {what}"),
            ProtoError::Graph(e) => write!(f, "invalid graph: {e}"),
            ProtoError::Problem(e) => write!(f, "invalid problem spec: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A client-to-server message.
// Submit dwarfs the other variants, but a Request is a transient: one
// per decoded frame, dispatched and dropped — never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit one batch job against a graph.
    Submit {
        /// Quota-accounting identity of the submitter.
        tenant: String,
        /// The problem instance.
        graph: Graph,
        /// Operating point + lanes + seed.
        job: BatchJob,
        /// Milliseconds the job may take from admission to report; `0`
        /// means no deadline. Enforced server-side at worker pickup and
        /// at every stage boundary — an expired job answers with a
        /// `0x91` frame carrying [`ErrorCode::DeadlineExceeded`].
        deadline_ms: u64,
    },
    /// Submit one typed problem instance: the server compiles the spec
    /// onto the machine (`msropm_problems::ProblemSpec::compile`), runs
    /// `replicas` uniform lanes, and streams back a decoded
    /// [`Response::ProblemReport`] instead of a raw coloring report.
    SubmitProblem {
        /// Quota-accounting identity of the submitter.
        tenant: String,
        /// The typed problem instance.
        spec: ProblemSpec,
        /// Base operating point (`num_colors` is overridden per class
        /// at compile time).
        config: MsropmConfig,
        /// Number of uniform replica lanes to run.
        replicas: u32,
        /// Job seed (per-lane seeds derive from it).
        seed: u64,
        /// Milliseconds from admission to report; `0` means none.
        deadline_ms: u64,
    },
    /// Query one job's [`JobState`].
    Status {
        /// Identity of the querying tenant (must own the job).
        tenant: String,
        /// Server-assigned job id.
        job_id: u64,
    },
    /// Request cooperative cancellation of one job.
    Cancel {
        /// Identity of the cancelling tenant (must own the job).
        tenant: String,
        /// Server-assigned job id.
        job_id: u64,
    },
    /// Fetch server-wide counters.
    Stats,
}

/// Which serving architecture answered a stats request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum FrontendKind {
    /// Thread-per-connection front end ([`crate::wire::WireServer`]).
    #[default]
    Threads = 0,
    /// Nonblocking event-loop front end
    /// ([`crate::reactor::ReactorServer`]).
    Reactor = 1,
    /// HTTP/1.1 + JSON gateway front end
    /// ([`crate::http::HttpServer`]).
    Http = 2,
}

impl FrontendKind {
    /// Inverse of `self as u8` (for wire decoding).
    pub fn from_u8(b: u8) -> Option<FrontendKind> {
        match b {
            0 => Some(FrontendKind::Threads),
            1 => Some(FrontendKind::Reactor),
            2 => Some(FrontendKind::Http),
            _ => None,
        }
    }

    /// Inverse of [`fmt::Display`] (flag parsing).
    pub fn from_name(name: &str) -> Option<FrontendKind> {
        match name {
            "threads" => Some(FrontendKind::Threads),
            "reactor" => Some(FrontendKind::Reactor),
            "http" => Some(FrontendKind::Http),
            _ => None,
        }
    }
}

impl fmt::Display for FrontendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FrontendKind::Threads => "threads",
            FrontendKind::Reactor => "reactor",
            FrontendKind::Http => "http",
        })
    }
}

/// Server-wide counters carried by a stats reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Jobs that completed with a report, since boot.
    pub jobs_completed: u64,
    /// Jobs observed as cancelled (no report), since boot.
    pub jobs_cancelled: u64,
    /// Jobs that died without a report (panicking solves, expired
    /// deadlines, dead workers), since boot.
    pub jobs_failed: u64,
    /// Dead workers the supervisor has respawned, since boot.
    pub worker_restarts: u64,
    /// Jobs waiting in the queue right now.
    pub backlog: u64,
    /// Problem-cache hits since boot.
    pub cache_hits: u64,
    /// Problem-cache misses since boot.
    pub cache_misses: u64,
    /// Connections currently served.
    pub connections: u64,
    /// Jobs that ran with more than one shard (intra-job parallel
    /// solves), since boot.
    pub jobs_sharded: u64,
    /// The widest shard count any job has run with, since boot.
    pub shard_width_max: u64,
    /// Which front end is serving (threads vs reactor).
    pub frontend: FrontendKind,
}

/// One ranked lane inside a [`WireReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireLane {
    /// Index of the lane in the submitted job.
    pub lane: u32,
    /// The derived per-lane seed.
    pub seed: u64,
    /// Conflicting edges (the ranking key).
    pub conflicts: u64,
    /// Fraction of properly colored edges (IEEE bits preserved).
    pub accuracy: f64,
    /// The lane's coloring, one color index per node.
    pub coloring: Vec<u16>,
}

/// The over-the-wire projection of a completed job: the ranked report
/// (minus bulky per-stage internals) plus server-side timing.
///
/// Deliberately *not* the full [`msropm_core::JobReport`]: per-stage
/// partitions and final oscillator phases stay server-side. What is
/// carried — ranking, conflicts, accuracy bits, colorings — is the
/// deterministic contract, so two servers (or worker counts) producing
/// the same job emit byte-identical report frames.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Server-assigned job id the report answers.
    pub job_id: u64,
    /// Canonical hash of the graph the job ran against.
    pub graph_hash: u64,
    /// The job seed, echoed back.
    pub seed: u64,
    /// Time the job waited in the queue, microseconds.
    pub queued_us: u64,
    /// Service time (compile + solve + rank), microseconds.
    pub service_us: u64,
    /// Every lane, best first.
    pub ranked: Vec<WireLane>,
}

impl WireReport {
    /// Projects a completed [`JobOutcome`] onto the wire format.
    pub fn from_outcome(job_id: u64, outcome: &JobOutcome) -> Self {
        WireReport {
            job_id,
            graph_hash: outcome.report.graph_hash,
            seed: outcome.report.seed,
            queued_us: outcome.timing.queued.as_micros() as u64,
            service_us: outcome.timing.service.as_micros() as u64,
            ranked: outcome
                .report
                .ranked
                .iter()
                .map(|r| WireLane {
                    lane: r.lane as u32,
                    seed: r.seed,
                    conflicts: r.conflicts as u64,
                    accuracy: r.accuracy,
                    coloring: r.solution.coloring.as_slice().iter().map(|c| c.0).collect(),
                })
                .collect(),
        }
    }

    /// The best lane (rank 0), if the job had any lanes.
    pub fn best(&self) -> Option<&WireLane> {
        self.ranked.first()
    }
}

/// The over-the-wire result of a `submit problem` job: the decoded
/// [`msropm_problems::ProblemReport`] (typed domain solutions, ranked by
/// domain objective) plus the job id and server-side timing. Like
/// [`WireReport`], everything carried is deterministic — objectives
/// travel as IEEE-754 bits — so any worker count, shard width or front
/// end emits byte-identical frames for the same submission.
#[derive(Debug, Clone, PartialEq)]
pub struct WireProblemReport {
    /// Server-assigned job id the report answers.
    pub job_id: u64,
    /// Time the job waited in the queue, microseconds.
    pub queued_us: u64,
    /// Service time (compile + solve + rank + decode), microseconds.
    pub service_us: u64,
    /// The decoded domain-level report.
    pub report: ProblemReport,
}

impl WireProblemReport {
    /// The best decoded lane (rank 0), if any.
    pub fn best(&self) -> Option<&DecodedLane> {
        self.report.best()
    }
}

/// A server-to-client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// The submit was admitted; the report will stream later.
    Submitted {
        /// Server-assigned job id.
        job_id: u64,
    },
    /// Reply to a status request.
    StatusReply {
        /// The queried job.
        job_id: u64,
        /// Its current state.
        state: JobState,
    },
    /// Reply to a cancel request (the cancel is *requested*; the state
    /// reflects what the job was at reply time — cooperative
    /// cancellation lands at the worker's next check).
    CancelReply {
        /// The cancelled job.
        job_id: u64,
        /// State at reply time.
        state: JobState,
    },
    /// Reply to a stats request.
    StatsReply(WireStats),
    /// A completed job's report, streamed when ready.
    Report(WireReport),
    /// A completed `submit problem` job's decoded report, streamed when
    /// ready (in a [`Response::Report`]'s place).
    ProblemReport(WireProblemReport),
    /// A job died without a report (panicking solve, expired deadline,
    /// dead worker) — streamed in a report's place, so every admitted
    /// job reaches the client as exactly one terminal frame (report or
    /// this; cancelled jobs excepted, which stream nothing).
    JobFailed {
        /// The job that died.
        job_id: u64,
        /// Why ([`ErrorCode::DeadlineExceeded`] or
        /// [`ErrorCode::Internal`]).
        code: ErrorCode,
        /// Human-readable detail (e.g. the panic message).
        message: String,
    },
    /// Typed failure of the *current request* (unlike
    /// [`Response::JobFailed`], which is job-scoped and streamed).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Byte-level reader/writer
// ---------------------------------------------------------------------

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError::BadValue("bool byte not 0/1")),
        }
    }

    fn str16(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadValue("non-UTF-8 string"))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::Trailing(self.remaining()))
        }
    }
}

struct ByteWriter(Vec<u8>);

impl ByteWriter {
    fn new(tag: u8) -> Self {
        ByteWriter(vec![tag])
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str16(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        self.u16(len as u16);
        self.0.extend_from_slice(&bytes[..len]);
    }
}

// ---------------------------------------------------------------------
// Domain-type codecs
// ---------------------------------------------------------------------

fn finite_nonneg(v: f64, what: &'static str) -> Result<f64, ProtoError> {
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(ProtoError::BadValue(what))
    }
}

fn put_graph(w: &mut ByteWriter, g: &Graph) {
    w.u32(g.num_nodes() as u32);
    w.u32(g.num_edges() as u32);
    for (_, u, v) in g.edges() {
        w.u32(u.index() as u32);
        w.u32(v.index() as u32);
    }
}

fn get_graph(r: &mut ByteReader) -> Result<Graph, ProtoError> {
    let n = r.u32()? as usize;
    let m = r.u32()? as usize;
    // Guard the allocation: each edge is 8 bytes, so a garbage count
    // larger than the remaining payload is rejected before reserving.
    if r.remaining() < m.saturating_mul(8) {
        return Err(ProtoError::Truncated);
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = r.u32()? as usize;
        let v = r.u32()? as usize;
        edges.push((u, v));
    }
    Graph::from_edges(n, edges).map_err(|e| ProtoError::Graph(e.to_string()))
}

fn put_reinit(w: &mut ByteWriter, reinit: ReinitMode) {
    match reinit {
        ReinitMode::UniformRandom => w.u8(0),
        ReinitMode::JitterDrift { sigma } => {
            w.u8(1);
            w.f64(sigma);
        }
    }
}

fn get_reinit(r: &mut ByteReader) -> Result<ReinitMode, ProtoError> {
    match r.u8()? {
        0 => Ok(ReinitMode::UniformRandom),
        1 => {
            let sigma = finite_nonneg(r.f64()?, "reinit sigma")?;
            Ok(ReinitMode::JitterDrift { sigma })
        }
        _ => Err(ProtoError::BadValue("reinit mode tag")),
    }
}

fn put_backend(w: &mut ByteWriter, backend: KernelBackend) {
    w.u8(match backend {
        KernelBackend::F64 => 0,
        KernelBackend::Fixed => 1,
    });
}

fn get_backend(r: &mut ByteReader) -> Result<KernelBackend, ProtoError> {
    match r.u8()? {
        0 => Ok(KernelBackend::F64),
        1 => Ok(KernelBackend::Fixed),
        _ => Err(ProtoError::BadValue("kernel backend tag")),
    }
}

fn put_config(w: &mut ByteWriter, c: &MsropmConfig) {
    w.u32(c.num_colors as u32);
    w.f64(c.coupling_strength);
    w.f64(c.shil_strength);
    w.f64(c.noise);
    w.f64(c.frequency_spread);
    w.f64(c.t_init);
    w.f64(c.t_anneal);
    w.f64(c.t_lock);
    w.f64(c.dt);
    put_reinit(w, c.reinit);
    w.bool(c.shil_ramp);
    put_backend(w, c.backend);
}

/// Decodes a config and rejects it unless [`MsropmConfig::check`]
/// passes — a malformed frame must never take down a worker, and an
/// accepted one must run in bounded time.
fn get_config(r: &mut ByteReader) -> Result<MsropmConfig, ProtoError> {
    let config = MsropmConfig {
        num_colors: r.u32()? as usize,
        coupling_strength: r.f64()?,
        shil_strength: r.f64()?,
        noise: r.f64()?,
        frequency_spread: r.f64()?,
        t_init: r.f64()?,
        t_anneal: r.f64()?,
        t_lock: r.f64()?,
        dt: r.f64()?,
        reinit: get_reinit(r)?,
        shil_ramp: r.bool()?,
        backend: get_backend(r)?,
    };
    config
        .check()
        .map_err(|e| ProtoError::BadValue(e.reason()))?;
    Ok(config)
}

const LANE_COUPLING: u8 = 1 << 0;
const LANE_SHIL: u8 = 1 << 1;
const LANE_NOISE: u8 = 1 << 2;
const LANE_RAMP: u8 = 1 << 3;
const LANE_REINIT: u8 = 1 << 4;
const LANE_BACKEND: u8 = 1 << 5;

fn put_lane(w: &mut ByteWriter, lane: &LaneConfig) {
    let mut flags = 0u8;
    if lane.coupling_strength.is_some() {
        flags |= LANE_COUPLING;
    }
    if lane.shil_strength.is_some() {
        flags |= LANE_SHIL;
    }
    if lane.noise.is_some() {
        flags |= LANE_NOISE;
    }
    if lane.shil_ramp.is_some() {
        flags |= LANE_RAMP;
    }
    if lane.reinit.is_some() {
        flags |= LANE_REINIT;
    }
    if lane.backend.is_some() {
        flags |= LANE_BACKEND;
    }
    w.u8(flags);
    if let Some(v) = lane.coupling_strength {
        w.f64(v);
    }
    if let Some(v) = lane.shil_strength {
        w.f64(v);
    }
    if let Some(v) = lane.noise {
        w.f64(v);
    }
    if let Some(v) = lane.shil_ramp {
        w.bool(v);
    }
    if let Some(v) = lane.reinit {
        put_reinit(w, v);
    }
    if let Some(v) = lane.backend {
        put_backend(w, v);
    }
}

fn get_lane(r: &mut ByteReader) -> Result<LaneConfig, ProtoError> {
    let flags = r.u8()?;
    if flags & !(LANE_COUPLING | LANE_SHIL | LANE_NOISE | LANE_RAMP | LANE_REINIT | LANE_BACKEND)
        != 0
    {
        return Err(ProtoError::BadValue("unknown lane override flag"));
    }
    let mut lane = LaneConfig::default();
    if flags & LANE_COUPLING != 0 {
        lane.coupling_strength = Some(finite_nonneg(r.f64()?, "lane coupling_strength")?);
    }
    if flags & LANE_SHIL != 0 {
        lane.shil_strength = Some(finite_nonneg(r.f64()?, "lane shil_strength")?);
    }
    if flags & LANE_NOISE != 0 {
        lane.noise = Some(finite_nonneg(r.f64()?, "lane noise")?);
    }
    if flags & LANE_RAMP != 0 {
        lane.shil_ramp = Some(r.bool()?);
    }
    if flags & LANE_REINIT != 0 {
        lane.reinit = Some(get_reinit(r)?);
    }
    if flags & LANE_BACKEND != 0 {
        lane.backend = Some(get_backend(r)?);
    }
    Ok(lane)
}

fn put_quadratic(w: &mut ByteWriter, n: usize, linear: &[f64], quad: &[(u32, u32, f64)]) {
    w.u32(n as u32);
    w.u32(linear.len() as u32);
    for &x in linear {
        w.f64(x);
    }
    w.u32(quad.len() as u32);
    for &(i, j, v) in quad {
        w.u32(i);
        w.u32(j);
        w.f64(v);
    }
}

type Quadratic = (usize, Vec<f64>, Vec<(u32, u32, f64)>);

fn get_quadratic(r: &mut ByteReader) -> Result<Quadratic, ProtoError> {
    let n = r.u32()? as usize;
    let num_linear = r.u32()? as usize;
    // Guard every count against the remaining payload before reserving
    // (same discipline as `get_graph`).
    if r.remaining() < num_linear.saturating_mul(8) {
        return Err(ProtoError::Truncated);
    }
    let mut linear = Vec::with_capacity(num_linear);
    for _ in 0..num_linear {
        linear.push(r.f64()?);
    }
    let num_quad = r.u32()? as usize;
    if num_quad > msropm_problems::MAX_COUPLINGS {
        return Err(ProtoError::BadValue("coupling count over cap"));
    }
    if r.remaining() < num_quad.saturating_mul(16) {
        return Err(ProtoError::Truncated);
    }
    let mut quad = Vec::with_capacity(num_quad);
    for _ in 0..num_quad {
        let i = r.u32()?;
        let j = r.u32()?;
        let v = r.f64()?;
        quad.push((i, j, v));
    }
    Ok((n, linear, quad))
}

fn put_spec(w: &mut ByteWriter, spec: &ProblemSpec) {
    w.u8(spec.class().tag());
    match spec {
        ProblemSpec::Coloring { graph, colors } => {
            put_graph(w, graph);
            w.u16(*colors);
        }
        ProblemSpec::MaxKCut { graph, k } => {
            put_graph(w, graph);
            w.u16(*k);
        }
        ProblemSpec::MaxCut { graph }
        | ProblemSpec::Mis { graph }
        | ProblemSpec::VertexCover { graph } => put_graph(w, graph),
        ProblemSpec::NumberPartition { weights } => {
            w.u32(weights.len() as u32);
            for &weight in weights {
                w.u64(weight);
            }
        }
        ProblemSpec::CnfSat { cnf } => {
            w.u32(cnf.num_vars() as u32);
            w.u32(cnf.clauses().len() as u32);
            for clause in cnf.clauses() {
                w.u32(clause.len() as u32);
                for lit in clause {
                    w.u32(lit.code() as u32);
                }
            }
        }
        ProblemSpec::Qubo(q) => put_quadratic(w, q.n, &q.linear, &q.quadratic),
        ProblemSpec::Ising(ising) => put_quadratic(w, ising.n, &ising.h, &ising.j),
    }
}

/// Decodes a problem spec. Only *structural* caps are enforced here
/// (allocation guards); domain validation is the server's compile step,
/// which answers [`ErrorCode::UnsupportedProblem`] without dropping the
/// connection.
fn get_spec(r: &mut ByteReader) -> Result<ProblemSpec, ProtoError> {
    let class = ProblemClass::from_tag(r.u8()?).ok_or(ProtoError::BadValue("problem class tag"))?;
    Ok(match class {
        ProblemClass::Coloring => {
            let graph = get_graph(r)?;
            let colors = r.u16()?;
            ProblemSpec::Coloring { graph, colors }
        }
        ProblemClass::MaxKCut => {
            let graph = get_graph(r)?;
            let k = r.u16()?;
            ProblemSpec::MaxKCut { graph, k }
        }
        ProblemClass::MaxCut => ProblemSpec::MaxCut {
            graph: get_graph(r)?,
        },
        ProblemClass::Mis => ProblemSpec::Mis {
            graph: get_graph(r)?,
        },
        ProblemClass::VertexCover => ProblemSpec::VertexCover {
            graph: get_graph(r)?,
        },
        ProblemClass::NumberPartition => {
            let n = r.u32()? as usize;
            if r.remaining() < n.saturating_mul(8) {
                return Err(ProtoError::Truncated);
            }
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(r.u64()?);
            }
            ProblemSpec::NumberPartition { weights }
        }
        ProblemClass::CnfSat => {
            let num_vars = r.u32()? as usize;
            if num_vars > msropm_problems::MAX_VARIABLES {
                return Err(ProtoError::BadValue("CNF variable count over cap"));
            }
            let num_clauses = r.u32()? as usize;
            if num_clauses > msropm_problems::MAX_CNF_CLAUSES {
                return Err(ProtoError::BadValue("CNF clause count over cap"));
            }
            // Each clause is at least its 4-byte length field.
            if r.remaining() < num_clauses.saturating_mul(4) {
                return Err(ProtoError::Truncated);
            }
            let mut cnf = Cnf::new(num_vars);
            let mut total_lits = 0usize;
            for _ in 0..num_clauses {
                let len = r.u32()? as usize;
                total_lits = total_lits.saturating_add(len);
                if total_lits > msropm_problems::MAX_CNF_LITERALS {
                    return Err(ProtoError::BadValue("CNF literal count over cap"));
                }
                if r.remaining() < len.saturating_mul(4) {
                    return Err(ProtoError::Truncated);
                }
                let mut clause = Vec::with_capacity(len);
                for _ in 0..len {
                    let code = r.u32()? as usize;
                    // `add_clause` grows `num_vars` to fit any literal;
                    // reject out-of-range codes instead of letting a
                    // hostile literal inflate the variable space.
                    if code / 2 >= num_vars.max(1) {
                        return Err(ProtoError::BadValue("CNF literal out of range"));
                    }
                    clause.push(Lit::from_code(code));
                }
                cnf.add_clause(clause);
            }
            ProblemSpec::CnfSat { cnf }
        }
        ProblemClass::Qubo => {
            let (n, linear, quadratic) = get_quadratic(r)?;
            ProblemSpec::Qubo(Qubo {
                n,
                linear,
                quadratic,
            })
        }
        ProblemClass::Ising => {
            let (n, h, j) = get_quadratic(r)?;
            ProblemSpec::Ising(Ising { n, h, j })
        }
    })
}

// Decoded-solution payload tags (one per `DecodedSolution` variant).
const SOL_COLORING: u8 = 1;
const SOL_CUT_SIDES: u8 = 2;
const SOL_SUBSET: u8 = 3;
const SOL_PARTITION: u8 = 4;
const SOL_ASSIGNMENT: u8 = 5;
const SOL_SPINS: u8 = 6;

fn put_bools(w: &mut ByteWriter, bits: &[bool]) {
    w.u32(bits.len() as u32);
    for &b in bits {
        w.bool(b);
    }
}

fn get_bools(r: &mut ByteReader) -> Result<Vec<bool>, ProtoError> {
    let n = r.u32()? as usize;
    if r.remaining() < n {
        return Err(ProtoError::Truncated);
    }
    let mut bits = Vec::with_capacity(n);
    for _ in 0..n {
        bits.push(r.bool()?);
    }
    Ok(bits)
}

fn put_solution(w: &mut ByteWriter, s: &DecodedSolution) {
    match s {
        DecodedSolution::Coloring(colors) => {
            w.u8(SOL_COLORING);
            w.u32(colors.len() as u32);
            for &c in colors {
                w.u16(c);
            }
        }
        DecodedSolution::CutSides(sides) => {
            w.u8(SOL_CUT_SIDES);
            put_bools(w, sides);
        }
        DecodedSolution::Subset(members) => {
            w.u8(SOL_SUBSET);
            w.u32(members.len() as u32);
            for &v in members {
                w.u32(v);
            }
        }
        DecodedSolution::Partition(sides) => {
            w.u8(SOL_PARTITION);
            put_bools(w, sides);
        }
        DecodedSolution::Assignment(values) => {
            w.u8(SOL_ASSIGNMENT);
            put_bools(w, values);
        }
        DecodedSolution::Spins(spins) => {
            w.u8(SOL_SPINS);
            put_bools(w, spins);
        }
    }
}

fn get_solution(r: &mut ByteReader) -> Result<DecodedSolution, ProtoError> {
    match r.u8()? {
        SOL_COLORING => {
            let n = r.u32()? as usize;
            if r.remaining() < n.saturating_mul(2) {
                return Err(ProtoError::Truncated);
            }
            let mut colors = Vec::with_capacity(n);
            for _ in 0..n {
                colors.push(r.u16()?);
            }
            Ok(DecodedSolution::Coloring(colors))
        }
        SOL_CUT_SIDES => Ok(DecodedSolution::CutSides(get_bools(r)?)),
        SOL_SUBSET => {
            let n = r.u32()? as usize;
            if r.remaining() < n.saturating_mul(4) {
                return Err(ProtoError::Truncated);
            }
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(r.u32()?);
            }
            Ok(DecodedSolution::Subset(members))
        }
        SOL_PARTITION => Ok(DecodedSolution::Partition(get_bools(r)?)),
        SOL_ASSIGNMENT => Ok(DecodedSolution::Assignment(get_bools(r)?)),
        SOL_SPINS => Ok(DecodedSolution::Spins(get_bools(r)?)),
        _ => Err(ProtoError::BadValue("decoded solution tag")),
    }
}

fn put_state(w: &mut ByteWriter, s: JobState) {
    w.u8(s as u8);
}

fn get_state(r: &mut ByteReader) -> Result<JobState, ProtoError> {
    JobState::from_u8(r.u8()?).ok_or(ProtoError::BadValue("job state byte"))
}

// ---------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------

/// Encodes a request into one frame payload (type byte + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Submit {
            tenant,
            graph,
            job,
            deadline_ms,
        } => {
            let mut w = ByteWriter::new(T_SUBMIT);
            w.str16(tenant);
            put_graph(&mut w, graph);
            put_config(&mut w, &job.config);
            w.u32(job.lanes.len() as u32);
            for lane in &job.lanes {
                put_lane(&mut w, lane);
            }
            w.u64(job.seed);
            w.u64(*deadline_ms);
            w.0
        }
        Request::SubmitProblem {
            tenant,
            spec,
            config,
            replicas,
            seed,
            deadline_ms,
        } => {
            let mut w = ByteWriter::new(T_SUBMIT_PROBLEM);
            w.str16(tenant);
            put_spec(&mut w, spec);
            put_config(&mut w, config);
            w.u32(*replicas);
            w.u64(*seed);
            w.u64(*deadline_ms);
            w.0
        }
        Request::Status { tenant, job_id } => {
            let mut w = ByteWriter::new(T_STATUS);
            w.str16(tenant);
            w.u64(*job_id);
            w.0
        }
        Request::Cancel { tenant, job_id } => {
            let mut w = ByteWriter::new(T_CANCEL);
            w.str16(tenant);
            w.u64(*job_id);
            w.0
        }
        Request::Stats => ByteWriter::new(T_STATS).0,
    }
}

fn get_tenant(r: &mut ByteReader) -> Result<String, ProtoError> {
    let tenant = r.str16()?;
    if tenant.is_empty() || tenant.len() > MAX_TENANT_LEN {
        return Err(ProtoError::BadValue("tenant id empty or too long"));
    }
    Ok(tenant)
}

/// Decodes one request payload. Never panics; see the module docs.
///
/// # Errors
///
/// Any [`ProtoError`] variant except `Io`/`Oversized` (those belong to
/// the framing layer).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut r = ByteReader::new(payload);
    let tag = r.u8()?;
    let req = match tag {
        T_SUBMIT => {
            let tenant = get_tenant(&mut r)?;
            let graph = get_graph(&mut r)?;
            let config = get_config(&mut r)?;
            let num_lanes = r.u32()? as usize;
            if num_lanes == 0 {
                return Err(ProtoError::BadValue("job with zero lanes"));
            }
            // Cap the count *before* reserving: a LaneConfig is ~72
            // in-memory bytes but can encode as a single flag byte, so
            // the remaining-bytes check alone would still let a hostile
            // count reserve gigabytes.
            if num_lanes > MAX_JOB_LANES {
                return Err(ProtoError::BadValue("job lane count over cap"));
            }
            if r.remaining() < num_lanes {
                return Err(ProtoError::Truncated);
            }
            let mut lanes = Vec::with_capacity(num_lanes);
            for _ in 0..num_lanes {
                lanes.push(get_lane(&mut r)?);
            }
            let seed = r.u64()?;
            let deadline_ms = r.u64()?;
            Request::Submit {
                tenant,
                graph,
                job: BatchJob {
                    config,
                    lanes,
                    seed,
                },
                deadline_ms,
            }
        }
        T_SUBMIT_PROBLEM => {
            let tenant = get_tenant(&mut r)?;
            let spec = get_spec(&mut r)?;
            let config = get_config(&mut r)?;
            let replicas = r.u32()?;
            if replicas == 0 {
                return Err(ProtoError::BadValue("problem with zero replicas"));
            }
            if replicas as usize > MAX_JOB_LANES {
                return Err(ProtoError::BadValue("problem replica count over cap"));
            }
            let seed = r.u64()?;
            let deadline_ms = r.u64()?;
            Request::SubmitProblem {
                tenant,
                spec,
                config,
                replicas,
                seed,
                deadline_ms,
            }
        }
        T_STATUS => Request::Status {
            tenant: get_tenant(&mut r)?,
            job_id: r.u64()?,
        },
        T_CANCEL => Request::Cancel {
            tenant: get_tenant(&mut r)?,
            job_id: r.u64()?,
        },
        T_STATS => Request::Stats,
        other => return Err(ProtoError::BadTag(other)),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a response into one frame payload (type byte + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Submitted { job_id } => {
            let mut w = ByteWriter::new(T_SUBMITTED);
            w.u64(*job_id);
            w.0
        }
        Response::StatusReply { job_id, state } => {
            let mut w = ByteWriter::new(T_STATUS_REPLY);
            w.u64(*job_id);
            put_state(&mut w, *state);
            w.0
        }
        Response::CancelReply { job_id, state } => {
            let mut w = ByteWriter::new(T_CANCEL_REPLY);
            w.u64(*job_id);
            put_state(&mut w, *state);
            w.0
        }
        Response::StatsReply(s) => {
            let mut w = ByteWriter::new(T_STATS_REPLY);
            w.u64(s.jobs_completed);
            w.u64(s.jobs_cancelled);
            w.u64(s.jobs_failed);
            w.u64(s.worker_restarts);
            w.u64(s.backlog);
            w.u64(s.cache_hits);
            w.u64(s.cache_misses);
            w.u64(s.connections);
            w.u64(s.jobs_sharded);
            w.u64(s.shard_width_max);
            w.u8(s.frontend as u8);
            w.0
        }
        Response::Report(rep) => {
            let mut w = ByteWriter::new(T_REPORT);
            w.u64(rep.job_id);
            w.u64(rep.graph_hash);
            w.u64(rep.seed);
            w.u64(rep.queued_us);
            w.u64(rep.service_us);
            w.u32(rep.ranked.len() as u32);
            for lane in &rep.ranked {
                w.u32(lane.lane);
                w.u64(lane.seed);
                w.u64(lane.conflicts);
                w.f64(lane.accuracy);
                w.u32(lane.coloring.len() as u32);
                for &c in &lane.coloring {
                    w.u16(c);
                }
            }
            w.0
        }
        Response::ProblemReport(rep) => {
            let mut w = ByteWriter::new(T_PROBLEM_REPORT);
            w.u64(rep.job_id);
            w.u64(rep.queued_us);
            w.u64(rep.service_us);
            w.u8(rep.report.class.tag());
            w.u64(rep.report.problem_fingerprint);
            w.u64(rep.report.graph_hash);
            w.u64(rep.report.seed);
            w.u32(rep.report.ranked.len() as u32);
            for lane in &rep.report.ranked {
                w.u32(lane.lane);
                w.u64(lane.seed);
                w.f64(lane.objective);
                w.bool(lane.feasible);
                put_solution(&mut w, &lane.solution);
            }
            w.0
        }
        Response::JobFailed {
            job_id,
            code,
            message,
        } => {
            let mut w = ByteWriter::new(T_JOB_ERROR);
            w.u64(*job_id);
            w.u16(*code as u16);
            w.str16(message);
            w.0
        }
        Response::Error { code, message } => {
            let mut w = ByteWriter::new(T_ERROR);
            w.u16(*code as u16);
            w.str16(message);
            w.0
        }
    }
}

/// Decodes one response payload. Never panics; see the module docs.
///
/// # Errors
///
/// Any [`ProtoError`] variant except `Io`/`Oversized` (those belong to
/// the framing layer).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut r = ByteReader::new(payload);
    let tag = r.u8()?;
    let resp = match tag {
        T_SUBMITTED => Response::Submitted { job_id: r.u64()? },
        T_STATUS_REPLY => Response::StatusReply {
            job_id: r.u64()?,
            state: get_state(&mut r)?,
        },
        T_CANCEL_REPLY => Response::CancelReply {
            job_id: r.u64()?,
            state: get_state(&mut r)?,
        },
        T_STATS_REPLY => Response::StatsReply(WireStats {
            jobs_completed: r.u64()?,
            jobs_cancelled: r.u64()?,
            jobs_failed: r.u64()?,
            worker_restarts: r.u64()?,
            backlog: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            connections: r.u64()?,
            jobs_sharded: r.u64()?,
            shard_width_max: r.u64()?,
            frontend: FrontendKind::from_u8(r.u8()?)
                .ok_or(ProtoError::BadValue("frontend kind byte"))?,
        }),
        T_REPORT => {
            let job_id = r.u64()?;
            let graph_hash = r.u64()?;
            let seed = r.u64()?;
            let queued_us = r.u64()?;
            let service_us = r.u64()?;
            let num_lanes = r.u32()? as usize;
            if num_lanes > MAX_JOB_LANES {
                return Err(ProtoError::BadValue("report lane count over cap"));
            }
            // Each lane is at least 32 bytes of fixed fields.
            if r.remaining() < num_lanes.saturating_mul(32) {
                return Err(ProtoError::Truncated);
            }
            let mut ranked = Vec::with_capacity(num_lanes);
            for _ in 0..num_lanes {
                let lane = r.u32()?;
                let lane_seed = r.u64()?;
                let conflicts = r.u64()?;
                let accuracy = r.f64()?;
                let n = r.u32()? as usize;
                if r.remaining() < n.saturating_mul(2) {
                    return Err(ProtoError::Truncated);
                }
                let mut coloring = Vec::with_capacity(n);
                for _ in 0..n {
                    coloring.push(r.u16()?);
                }
                ranked.push(WireLane {
                    lane,
                    seed: lane_seed,
                    conflicts,
                    accuracy,
                    coloring,
                });
            }
            Response::Report(WireReport {
                job_id,
                graph_hash,
                seed,
                queued_us,
                service_us,
                ranked,
            })
        }
        T_PROBLEM_REPORT => {
            let job_id = r.u64()?;
            let queued_us = r.u64()?;
            let service_us = r.u64()?;
            let class =
                ProblemClass::from_tag(r.u8()?).ok_or(ProtoError::BadValue("problem class tag"))?;
            let problem_fingerprint = r.u64()?;
            let graph_hash = r.u64()?;
            let seed = r.u64()?;
            let num_lanes = r.u32()? as usize;
            if num_lanes > MAX_JOB_LANES {
                return Err(ProtoError::BadValue("report lane count over cap"));
            }
            // Each decoded lane is at least 26 bytes of fixed fields.
            if r.remaining() < num_lanes.saturating_mul(26) {
                return Err(ProtoError::Truncated);
            }
            let mut ranked = Vec::with_capacity(num_lanes);
            for _ in 0..num_lanes {
                let lane = r.u32()?;
                let lane_seed = r.u64()?;
                let objective = r.f64()?;
                let feasible = r.bool()?;
                let solution = get_solution(&mut r)?;
                ranked.push(DecodedLane {
                    lane,
                    seed: lane_seed,
                    objective,
                    feasible,
                    solution,
                });
            }
            Response::ProblemReport(WireProblemReport {
                job_id,
                queued_us,
                service_us,
                report: ProblemReport {
                    class,
                    problem_fingerprint,
                    graph_hash,
                    seed,
                    ranked,
                },
            })
        }
        T_JOB_ERROR => {
            let job_id = r.u64()?;
            let code = ErrorCode::from_u16(r.u16()?).ok_or(ProtoError::BadValue("error code"))?;
            let message = r.str16()?;
            Response::JobFailed {
                job_id,
                code,
                message,
            }
        }
        T_ERROR => {
            let code = ErrorCode::from_u16(r.u16()?).ok_or(ProtoError::BadValue("error code"))?;
            let message = r.str16()?;
            Response::Error { code, message }
        }
        other => return Err(ProtoError::BadTag(other)),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame (length prefix + payload). Does **not** flush.
///
/// # Errors
///
/// Propagates transport errors; rejects payloads over [`MAX_FRAME_LEN`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(ProtoError::Oversized(payload.len() as u32));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// [`ProtoError::Io`] on transport failure (including EOF — map
/// `ErrorKind::UnexpectedEof` at offset 0 to a clean close if needed),
/// [`ProtoError::Oversized`] when the header announces more than
/// [`MAX_FRAME_LEN`] bytes (the stream is desynced; drop it).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtoError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Incremental frame decoder for nonblocking transports.
///
/// Where [`read_frame`] owns a blocking `Read` stream, a `Decoder` is
/// *fed*: the reactor pushes whatever bytes `read(2)` returned — a
/// partial header, half a payload, three frames back to back — and
/// pulls zero or more complete frame payloads out. Byte boundaries are
/// invisible: a frame delivered one byte at a time and a batch of
/// frames arriving in one read both decode to the same payload
/// sequence (property-tested below).
///
/// The decoder enforces the same [`MAX_FRAME_LEN`] cap as the blocking
/// reader; an oversized header poisons the stream (the connection is
/// desynced and must be dropped) and every later
/// [`Decoder::next_frame`] repeats the error.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames (compacted
    /// lazily so tiny reads never trigger per-byte memmoves).
    pos: usize,
    poisoned: Option<u32>,
}

impl Decoder {
    /// A fresh decoder with no buffered bytes.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends raw transport bytes (any split — header fragments,
    /// partial payloads, several frames at once).
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: once the consumed prefix dominates,
        // shift the live tail down instead of reallocating past it.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame payload, `Ok(None)` when more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversized`] when a header announces more than
    /// [`MAX_FRAME_LEN`] bytes; the stream is desynced and the error is
    /// sticky.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        if let Some(len) = self.poisoned {
            return Err(ProtoError::Oversized(len));
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            self.poisoned = Some(len);
            return Err(ProtoError::Oversized(len));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[4..total].to_vec();
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

/// `true` when a [`read_frame`] error is a clean peer close (EOF on the
/// frame boundary or a reset/unblocked read), as opposed to a protocol
/// violation.
pub fn is_clean_close(err: &ProtoError) -> bool {
    matches!(
        err,
        ProtoError::Io(e) if matches!(
            e.kind(),
            io::ErrorKind::UnexpectedEof
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
        )
    )
}

/// `true` when an encoded response payload is a report frame (as
/// opposed to a [`Response::JobFailed`] or verb reply) — the front
/// ends use this to keep the reports-streamed counter honest now that
/// failed jobs also stream a terminal frame.
pub fn is_report_frame(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(&T_REPORT | &T_PROBLEM_REPORT))
}

/// Rebuilds a [`msropm_graph::Coloring`] from a wire lane (for clients
/// that want to re-verify conflicts locally).
pub fn lane_coloring(lane: &WireLane) -> msropm_graph::Coloring {
    lane.coloring
        .iter()
        .map(|&c| msropm_graph::Color(c))
        .collect()
}

/// Convenience: number of conflicting edges of a wire lane's coloring
/// on `g`, for client-side integrity checks. Returns `None` when the
/// coloring does not cover `g`.
pub fn verify_lane(g: &Graph, lane: &WireLane) -> Option<u64> {
    if lane.coloring.len() != g.num_nodes() {
        return None;
    }
    let conflicts = g
        .edges()
        .filter(|&(_, u, v)| lane.coloring[u.index()] == lane.coloring[v.index()])
        .count() as u64;
    Some(conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_core::{SweepParam, SweepSpec};
    use msropm_graph::generators;
    use proptest::prelude::*;

    fn sample_job() -> BatchJob {
        let sweep = SweepSpec::new()
            .grid(SweepParam::CouplingStrength, vec![0.8, 1.2])
            .grid(SweepParam::Noise, vec![0.1, 0.25]);
        let mut job = BatchJob::from_sweep(MsropmConfig::paper_default(), &sweep, 42);
        job.lanes[1] = job.lanes[1]
            .with_shil_ramp(true)
            .with_reinit(ReinitMode::UniformRandom);
        job
    }

    fn assert_graph_eq(a: &Graph, b: &Graph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for (_, u, v) in a.edges() {
            assert!(b.contains_edge(u, v));
        }
    }

    #[test]
    fn submit_roundtrip_preserves_every_field() {
        let graph = generators::kings_graph(4, 4);
        let job = sample_job();
        let payload = encode_request(&Request::Submit {
            tenant: "acme".into(),
            graph: graph.clone(),
            job: job.clone(),
            deadline_ms: 2_500,
        });
        match decode_request(&payload).unwrap() {
            Request::Submit {
                tenant,
                graph: g2,
                job: j2,
                deadline_ms,
            } => {
                assert_eq!(tenant, "acme");
                assert_graph_eq(&graph, &g2);
                assert_eq!(j2.config, job.config);
                assert_eq!(j2.lanes, job.lanes);
                assert_eq!(j2.seed, job.seed);
                assert_eq!(deadline_ms, 2_500);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn control_verbs_roundtrip() {
        for req in [
            Request::Status {
                tenant: "t".into(),
                job_id: 7,
            },
            Request::Cancel {
                tenant: "t".into(),
                job_id: u64::MAX,
            },
            Request::Stats,
        ] {
            let payload = encode_request(&req);
            let back = decode_request(&payload).unwrap();
            match (&req, &back) {
                (Request::Status { job_id: a, .. }, Request::Status { job_id: b, .. }) => {
                    assert_eq!(a, b)
                }
                (Request::Cancel { job_id: a, .. }, Request::Cancel { job_id: b, .. }) => {
                    assert_eq!(a, b)
                }
                (Request::Stats, Request::Stats) => {}
                other => panic!("variant mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn responses_roundtrip() {
        let report = WireReport {
            job_id: 3,
            graph_hash: 0xdead_beef,
            seed: 9,
            queued_us: 120,
            service_us: 4096,
            ranked: vec![
                WireLane {
                    lane: 1,
                    seed: 77,
                    conflicts: 0,
                    accuracy: 1.0,
                    coloring: vec![0, 1, 2, 3],
                },
                WireLane {
                    lane: 0,
                    seed: 76,
                    conflicts: 2,
                    accuracy: 0.75,
                    coloring: vec![3, 2, 1, 0],
                },
            ],
        };
        let cases = [
            Response::Submitted { job_id: 1 },
            Response::StatusReply {
                job_id: 2,
                state: JobState::Running,
            },
            Response::CancelReply {
                job_id: 2,
                state: JobState::Cancelled,
            },
            Response::StatsReply(WireStats {
                jobs_completed: 10,
                jobs_cancelled: 2,
                jobs_failed: 4,
                worker_restarts: 1,
                backlog: 1,
                cache_hits: 20,
                cache_misses: 5,
                connections: 3,
                jobs_sharded: 6,
                shard_width_max: 4,
                frontend: FrontendKind::Reactor,
            }),
            Response::Report(report.clone()),
            Response::Error {
                code: ErrorCode::QuotaInFlight,
                message: "over".into(),
            },
            Response::JobFailed {
                job_id: 41,
                code: ErrorCode::DeadlineExceeded,
                message: "job deadline exceeded".into(),
            },
            Response::JobFailed {
                job_id: 42,
                code: ErrorCode::Internal,
                message: "worker died".into(),
            },
        ];
        for resp in cases {
            let payload = encode_response(&resp);
            let back = decode_response(&payload).unwrap();
            match (&resp, &back) {
                (Response::Submitted { job_id: a }, Response::Submitted { job_id: b }) => {
                    assert_eq!(a, b)
                }
                (
                    Response::StatusReply {
                        job_id: a,
                        state: sa,
                    },
                    Response::StatusReply {
                        job_id: b,
                        state: sb,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(sa, sb);
                }
                (
                    Response::CancelReply {
                        job_id: a,
                        state: sa,
                    },
                    Response::CancelReply {
                        job_id: b,
                        state: sb,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(sa, sb);
                }
                (Response::StatsReply(a), Response::StatsReply(b)) => assert_eq!(a, b),
                (Response::Report(a), Response::Report(b)) => assert_eq!(a, b),
                (
                    Response::Error {
                        code: ca,
                        message: ma,
                    },
                    Response::Error {
                        code: cb,
                        message: mb,
                    },
                ) => {
                    assert_eq!(ca, cb);
                    assert_eq!(ma, mb);
                }
                (
                    Response::JobFailed {
                        job_id: ja,
                        code: ca,
                        message: ma,
                    },
                    Response::JobFailed {
                        job_id: jb,
                        code: cb,
                        message: mb,
                    },
                ) => {
                    assert_eq!(ja, jb);
                    assert_eq!(ca, cb);
                    assert_eq!(ma, mb);
                }
                other => panic!("variant mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn framing_roundtrip_and_oversize_rejection() {
        let payload = encode_request(&Request::Stats);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), payload);

        // A header announcing more than the cap is rejected before any
        // allocation.
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ProtoError::Oversized(_))
        ));

        // EOF mid-frame is an Io error the caller can classify.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, &payload).unwrap();
        truncated.pop();
        let err = read_frame(&mut truncated.as_slice()).unwrap_err();
        assert!(is_clean_close(&err));
    }

    #[test]
    fn every_strict_prefix_of_a_valid_payload_is_a_typed_error() {
        let graph = generators::kings_graph(3, 3);
        let payloads = [
            encode_request(&Request::Submit {
                tenant: "acme".into(),
                graph,
                job: sample_job(),
                deadline_ms: 0,
            }),
            encode_response(&Response::Report(WireReport {
                job_id: 1,
                graph_hash: 2,
                seed: 3,
                queued_us: 4,
                service_us: 5,
                ranked: vec![WireLane {
                    lane: 0,
                    seed: 1,
                    conflicts: 0,
                    accuracy: 1.0,
                    coloring: vec![0, 1],
                }],
            })),
        ];
        for payload in &payloads {
            for cut in 0..payload.len() {
                // Both decoders must fail gracefully (typed error, no
                // panic) on every strict prefix.
                assert!(decode_request(&payload[..cut]).is_err());
                assert!(decode_response(&payload[..cut]).is_err());
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(ProtoError::Trailing(1))
        ));
    }

    #[test]
    fn unknown_tags_and_bad_values_are_typed() {
        assert!(matches!(
            decode_request(&[0x7F]),
            Err(ProtoError::BadTag(0x7F))
        ));
        assert!(matches!(
            decode_response(&[0x00]),
            Err(ProtoError::BadTag(0x00))
        ));
        // num_colors = 3 violates the power-of-two invariant: must come
        // back as BadValue, not a panic from MsropmConfig::validate.
        let graph = generators::path_graph(2);
        let mut job = BatchJob::uniform(MsropmConfig::paper_default(), 1, 1);
        job.config.num_colors = 3;
        let payload = encode_request(&Request::Submit {
            tenant: "t".into(),
            graph,
            job,
            deadline_ms: 0,
        });
        assert!(matches!(
            decode_request(&payload),
            Err(ProtoError::BadValue(_))
        ));
    }

    #[test]
    fn hostile_lane_counts_are_rejected_before_allocating() {
        // A hand-built submit payload claiming ~16M lanes backed by one
        // byte each: must be rejected by the cap, not by an OOM abort
        // inside Vec::with_capacity.
        let graph = generators::path_graph(2);
        let job = BatchJob::uniform(MsropmConfig::paper_default(), 1, 1);
        let valid = encode_request(&Request::Submit {
            tenant: "t".into(),
            graph,
            job,
            deadline_ms: 0,
        });
        // The lane count field sits 21 bytes from the end of a 1-lane
        // payload (u32 count + 1 flag byte + u64 seed + u64 deadline).
        let count_at = valid.len() - 21;
        assert_eq!(
            u32::from_le_bytes(valid[count_at..count_at + 4].try_into().unwrap()),
            1,
            "lane-count offset moved; update this test"
        );
        let mut hostile = valid.clone();
        hostile[count_at..count_at + 4].copy_from_slice(&(16_000_000u32).to_le_bytes());
        hostile.extend(std::iter::repeat_n(0u8, 64)); // a few fake flag bytes
        match decode_request(&hostile) {
            Err(ProtoError::BadValue(what)) => assert!(what.contains("lane count")),
            // Counts small enough to pass the cap still hit Truncated.
            other => panic!("expected lane-cap rejection, got {other:?}"),
        }
    }

    #[test]
    fn zero_lane_jobs_are_rejected() {
        let graph = generators::path_graph(2);
        let mut job = BatchJob::uniform(MsropmConfig::paper_default(), 1, 1);
        job.lanes.clear();
        let payload = encode_request(&Request::Submit {
            tenant: "t".into(),
            graph,
            job,
            deadline_ms: 0,
        });
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn lane_coloring_verification_helpers() {
        let g = generators::path_graph(3);
        let good = WireLane {
            lane: 0,
            seed: 0,
            conflicts: 0,
            accuracy: 1.0,
            coloring: vec![0, 1, 0],
        };
        assert_eq!(verify_lane(&g, &good), Some(0));
        let bad = WireLane {
            coloring: vec![1, 1, 1],
            ..good.clone()
        };
        assert_eq!(verify_lane(&g, &bad), Some(2));
        let short = WireLane {
            coloring: vec![1],
            ..good
        };
        assert_eq!(verify_lane(&g, &short), None);
        assert_eq!(lane_coloring(&bad).len(), 3);
    }

    /// The frame payloads a decoder feed must reproduce, byte for byte:
    /// a submit, a stats request, and a report — small and large,
    /// request and response directions mixed.
    fn decoder_sample_payloads() -> Vec<Vec<u8>> {
        let graph = generators::kings_graph(3, 3);
        vec![
            encode_request(&Request::Submit {
                tenant: "acme".into(),
                graph,
                job: sample_job(),
                deadline_ms: 30_000,
            }),
            encode_request(&Request::Stats),
            encode_response(&Response::Report(WireReport {
                job_id: 9,
                graph_hash: 0xabcd,
                seed: 3,
                queued_us: 1,
                service_us: 2,
                ranked: vec![WireLane {
                    lane: 0,
                    seed: 4,
                    conflicts: 1,
                    accuracy: 0.5,
                    coloring: vec![0, 1, 2, 3],
                }],
            })),
        ]
    }

    fn frame_stream(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut stream = Vec::new();
        for p in payloads {
            write_frame(&mut stream, p).unwrap();
        }
        stream
    }

    fn drain_decoder(d: &mut Decoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(p) = d.next_frame().expect("valid stream") {
            out.push(p);
        }
        out
    }

    #[test]
    fn decoder_reassembles_frames_fed_one_byte_at_a_time() {
        let payloads = decoder_sample_payloads();
        let stream = frame_stream(&payloads);
        let mut decoder = Decoder::new();
        let mut got = Vec::new();
        for &byte in &stream {
            decoder.push(&[byte]);
            got.extend(drain_decoder(&mut decoder));
        }
        assert_eq!(
            got, payloads,
            "1-byte feed must round-trip byte-identically"
        );
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_splits_multiple_frames_from_one_read() {
        let payloads = decoder_sample_payloads();
        let stream = frame_stream(&payloads);
        let mut decoder = Decoder::new();
        decoder.push(&stream);
        assert_eq!(
            drain_decoder(&mut decoder),
            payloads,
            "one batched read must yield every frame byte-identically"
        );
        assert_eq!(decoder.buffered(), 0);
        assert!(decoder.next_frame().unwrap().is_none());
    }

    #[test]
    fn decoder_handles_a_partial_trailing_frame() {
        let payloads = decoder_sample_payloads();
        let stream = frame_stream(&payloads);
        let mut decoder = Decoder::new();
        // Everything except the final byte: the last frame stays pending.
        decoder.push(&stream[..stream.len() - 1]);
        let mut got = drain_decoder(&mut decoder);
        assert_eq!(got.len(), payloads.len() - 1);
        assert!(decoder.buffered() > 0);
        decoder.push(&stream[stream.len() - 1..]);
        got.extend(drain_decoder(&mut decoder));
        assert_eq!(got, payloads);
    }

    #[test]
    fn decoder_oversized_header_is_a_sticky_error() {
        let mut decoder = Decoder::new();
        decoder.push(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(ProtoError::Oversized(_))
        ));
        // The stream is desynced: feeding valid frames afterwards must
        // not resurrect it.
        decoder.push(&frame_stream(&[encode_request(&Request::Stats)]));
        assert!(matches!(
            decoder.next_frame(),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        // Many frames through one decoder: the internal buffer must not
        // grow with the total bytes ever fed.
        let payload = encode_request(&Request::Stats);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut decoder = Decoder::new();
        for _ in 0..10_000 {
            decoder.push(&framed);
            assert_eq!(decoder.next_frame().unwrap().unwrap(), payload);
        }
        assert_eq!(decoder.buffered(), 0);
    }

    proptest! {
        /// Any segmentation of a valid frame stream decodes to the same
        /// payload sequence, byte for byte.
        #[test]
        fn decoder_is_segmentation_invariant(
            cuts in proptest::collection::vec(1usize..64, 0..48),
        ) {
            let payloads = decoder_sample_payloads();
            let stream = frame_stream(&payloads);
            let mut decoder = Decoder::new();
            let mut got = Vec::new();
            let mut at = 0usize;
            for cut in cuts {
                if at >= stream.len() {
                    break;
                }
                let end = (at + cut).min(stream.len());
                decoder.push(&stream[at..end]);
                at = end;
                while let Some(p) = decoder.next_frame().expect("valid stream") {
                    got.push(p);
                }
            }
            decoder.push(&stream[at..]);
            while let Some(p) = decoder.next_frame().expect("valid stream") {
                got.push(p);
            }
            prop_assert_eq!(got, payloads);
        }

        /// Arbitrary bytes never panic either decoder — they produce a
        /// typed error (or, rarely, parse as a valid tiny message).
        #[test]
        fn arbitrary_bytes_never_panic_decoders(
            bytes in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }

        /// Frames re-read from a byte stream survive arbitrary
        /// truncation without panicking: either a clean payload or an
        /// error, never a crash or an over-read.
        #[test]
        fn truncated_streams_never_panic_read_frame(
            payload in proptest::collection::vec(any::<u8>(), 0..128),
            cut in 0usize..132,
        ) {
            let mut framed = Vec::new();
            write_frame(&mut framed, &payload).unwrap();
            let cut = cut.min(framed.len());
            match read_frame(&mut framed[..cut].as_ref()) {
                Ok(p) => prop_assert_eq!(p, payload),
                Err(e) => prop_assert!(is_clean_close(&e) || matches!(e, ProtoError::Oversized(_))),
            }
        }

        /// Request roundtrip with arbitrary numeric content in the
        /// control verbs.
        #[test]
        fn control_verb_roundtrip_prop(job_id in any::<u64>()) {
            let payload = encode_request(&Request::Cancel { tenant: "x".into(), job_id });
            match decode_request(&payload).unwrap() {
                Request::Cancel { job_id: back, .. } => prop_assert_eq!(back, job_id),
                other => prop_assert!(false, "wrong variant: {:?}", other),
            }
        }

        /// Submit deadlines survive the wire for any u64 (0 = none).
        #[test]
        fn submit_deadline_roundtrip_prop(deadline_ms in any::<u64>()) {
            let payload = encode_request(&Request::Submit {
                tenant: "t".into(),
                graph: generators::path_graph(2),
                job: BatchJob::uniform(MsropmConfig::paper_default(), 1, 1),
                deadline_ms,
            });
            match decode_request(&payload).unwrap() {
                Request::Submit { deadline_ms: back, .. } => prop_assert_eq!(back, deadline_ms),
                other => prop_assert!(false, "wrong variant: {:?}", other),
            }
        }

        /// Per-job failure frames roundtrip for every defined error
        /// code (including the new `DeadlineExceeded` and `Internal`)
        /// and arbitrary message content.
        #[test]
        fn job_failed_roundtrip_prop(
            job_id in any::<u64>(),
            raw_code in 1u16..12,
            msg_bytes in proptest::collection::vec(32u8..127, 0..64),
        ) {
            let message = String::from_utf8(msg_bytes).expect("printable ascii");
            let code = ErrorCode::from_u16(raw_code).expect("1..=11 are all defined");
            prop_assert_eq!(code as u16, raw_code);
            let payload = encode_response(&Response::JobFailed {
                job_id,
                code,
                message: message.clone(),
            });
            match decode_response(&payload).unwrap() {
                Response::JobFailed { job_id: j, code: c, message: m } => {
                    prop_assert_eq!(j, job_id);
                    prop_assert_eq!(c, code);
                    prop_assert_eq!(m, message);
                }
                other => prop_assert!(false, "wrong variant: {:?}", other),
            }
        }

        /// Undefined error codes are a typed decode error, not a panic
        /// or a silent mis-map.
        #[test]
        fn unknown_error_codes_are_rejected(raw_code in 12u16..u16::MAX) {
            prop_assert!(ErrorCode::from_u16(raw_code).is_none());
            let mut payload = encode_response(&Response::JobFailed {
                job_id: 1,
                code: ErrorCode::Internal,
                message: String::new(),
            });
            // The code sits right after the tag byte and u64 job id.
            payload[9..11].copy_from_slice(&raw_code.to_le_bytes());
            prop_assert!(matches!(
                decode_response(&payload),
                Err(ProtoError::BadValue(_))
            ));
        }
    }
}
