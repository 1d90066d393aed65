//! Multi-replica batch execution of the divide-and-color schedule.
//!
//! The paper's experiments run 40 independent iterations per problem;
//! this module advances all of them through the full multi-stage
//! schedule as one interleaved SoA sweep (see [`msropm_osc::batch`] for
//! the kernel layout). Per-replica gating (`P_EN` lanes) and `SHIL_SEL`
//! assignments evolve independently across stage transitions, exactly
//! as `Msropm::solve` evolves them for a single run.
//!
//! The replicas are full **control lanes**: each lane may override the
//! base configuration's coupling strength, SHIL strength/ramp,
//! annealing noise and re-init mode ([`crate::config::LaneConfig`]), so
//! one batch can sweep an operating grid or run a restart portfolio
//! instead of repeating one point M times. Timing stays lockstep across
//! lanes (enforced by [`crate::schedule::ScheduleSet`]); everything else
//! rides in per-lane kernel tables, so the hot loop is identical to the
//! homogeneous case.
//!
//! # One stage body, two numeric stacks
//!
//! Every stage runs one control sequence: randomize, anneal, lock under
//! the stage's phase-shifted SHIL, readout, `SHIL_SEL` latch, then
//! `P_EN` cuts the crossing couplings. A single generic stage body runs
//! it over either numeric stack — the IEEE-double
//! [`BatchKernel`]/[`BatchIntegrator`] pair or the fixed-point
//! [`FxBatchKernel`]/[`FxBatchIntegrator`] pair — through a small
//! crate-private trait that carries only what the two differ in: the
//! arena buffers they use, the mixed re-init jitter loop, and the
//! conversion between radians and the stored phase format. A solve
//! picks the backend once, so both hot loops stay monomorphic.
//!
//! # Lane ranges and shards
//!
//! A solve runs one contiguous lane range inline in a caller's
//! [`BatchArena`], or splits the range into contiguous chunks that run
//! each stage as owned tasks on the [`crate::pool::ShardPool`] and
//! re-join at every stage boundary. Boundary hooks (cancellation,
//! deadlines, portfolio restarts) see every lane of the batch in global
//! lane order at either width. Both paths run the same setup and stage
//! body on the same per-range state, so 1-shard and N-shard solves are
//! bit-identical by construction.
//!
//! # Determinism contract
//!
//! Replica `i` performs bit-for-bit the floating-point operations and RNG
//! draws of a standalone `Msropm::solve` over the lane's *resolved*
//! config, seeded with `seeds[i]`:
//!
//! - every replica draws noise, initial phases and (optionally) frequency
//!   offsets from its **own** `StdRng`, in the order a sequential run
//!   would;
//! - the interleaved drift sweep visits edges in the same (edge-id) order
//!   as the scalar compiled kernel, and gated lanes contribute exact
//!   IEEE `±0` terms;
//! - per-lane coupling weights are **copied** from a lane-resolved
//!   network, never rescaled, so a swept lane carries exactly the
//!   weights a standalone machine at that operating point would;
//! - ramped and non-ramped lanes share the plain step sequence (the
//!   step-indexed `RampSchedule`), so mixing them changes no step sizes;
//! - jitter-drift and uniform re-init lanes may coexist: during the
//!   randomize window (couplings and SHIL off — lanes are independent)
//!   jitter lanes integrate bias + noise drawing one deviate per node
//!   per step, uniform lanes draw nothing until their end-of-window
//!   phase redraw, each matching its solo counterpart;
//! - shards partition replicas into disjoint contiguous ranges, and a
//!   replica's trajectory never depends on its range.
//!
//! Hence colorings (and final phases) are identical across shard counts
//! and identical to a sequential iteration loop — property-tested in the
//! workspace root's `tests/batch_determinism.rs` and
//! `tests/lane_equivalence.rs`. The fixed-point stack keeps every
//! property but the last comparison: its lanes are pinned to a golden
//! digest instead (`tests/fx_golden.rs`).

use crate::config::{KernelBackend, LaneConfig, MsropmConfig, ReinitMode};
use crate::machine::{MsropmSolution, StageRecord};
use crate::pool::ShardPool;
use crate::schedule::{ScheduleSet, Window, WindowKind};
use msropm_graph::{Color, Cut, Graph};
use msropm_ode::sde::standard_normal;
use msropm_osc::batch::{BatchIntegrator, BatchKernel};
use msropm_osc::fxkernel::{
    self, noise_increment, phase_to_turns, turns_to_phase, FxBatchIntegrator, FxBatchKernel,
};
use msropm_osc::lock::{lock_error, phase_to_spin};
use msropm_osc::shil::{stage_shil_phase, Shil};
use msropm_osc::PhaseNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::f64::consts::TAU;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

/// One numeric stack the stage body runs on: a compiled SoA kernel
/// plus its integrator and phase format. Everything the two stacks
/// share is forwarded verbatim to the kernels' inherent methods; the
/// rest is what actually differs between IEEE doubles and binary turns.
pub(crate) trait Engine: Sized + Send + 'static {
    /// Stored phase format: `f64` radians or `i32` binary turns.
    type Phase: Copy + Default + Send + 'static;
    /// The integrator that steps this kernel.
    type Integrator;

    /// Compiles the kernel from the base network, or from one network
    /// per lane when lanes override coupling or noise.
    fn compile(
        base: &PhaseNetwork,
        lane_nets: Option<&[PhaseNetwork]>,
        dt: f64,
        lanes: usize,
    ) -> Self;
    /// This stack's integrator and phase buffer in `arena`, next to the
    /// lane state both stacks share.
    fn buffers(
        arena: &mut BatchArena,
    ) -> (&mut Self::Integrator, &mut Vec<Self::Phase>, &mut LaneState);
    /// Stores an angle in radians (initial draws and uniform redraws).
    fn from_radians(theta: f64) -> Self::Phase;
    /// The angle in radians a stored phase represents (readout).
    fn to_radians(phase: Self::Phase) -> f64;
    /// Advances the jitter-drift lanes of a mixed re-init batch across
    /// the randomize window by hand (couplings and SHIL are off, so
    /// lanes are independent), with the exact bias + noise arithmetic
    /// of this stack's integrator: one deviate per node per step, in
    /// node order — the solo stream. Uniform lanes draw nothing here.
    fn drift_jitter_lanes(
        &self,
        phases: &mut [Self::Phase],
        configs: &[MsropmConfig],
        rngs: &mut [StdRng],
        window: &Window,
        dt: f64,
    );

    /// Integrates `window`; with `ramped`, the SHIL strength of the
    /// marked lanes ramps up across it.
    fn integrate(
        &mut self,
        integrator: &mut Self::Integrator,
        phases: &mut [Self::Phase],
        window: &Window,
        dt: f64,
        rngs: &mut [StdRng],
        ramped: Option<&[bool]>,
    );
    fn edge_enabled(&self, edge: usize, replica: usize) -> bool;
    fn set_edge_enabled(&mut self, edge: usize, replica: usize, on: bool);
    fn enable_all_edges(&mut self);
    fn set_couplings_enabled(&mut self, on: bool);
    fn set_shil_enabled(&mut self, on: bool);
    fn set_bias(&mut self, node: usize, replica: usize, delta_omega: f64);
    fn set_shil(&mut self, node: usize, replica: usize, shil: Option<Shil>);
    fn set_lane_noise_amplitude(&mut self, replica: usize, sigma: f64);
}

/// The [`Engine`] methods both kernels implement under the same
/// inherent names and call shapes.
macro_rules! forward_shared_engine_methods {
    ($kernel:ty) => {
        fn integrate(
            &mut self,
            integrator: &mut Self::Integrator,
            phases: &mut [Self::Phase],
            window: &Window,
            dt: f64,
            rngs: &mut [StdRng],
            ramped: Option<&[bool]>,
        ) {
            let (t0, t1) = (window.t_start, window.t_end());
            match ramped {
                Some(ramped) => {
                    integrator.integrate_ramped_lanes(self, phases, t0, t1, dt, rngs, |f| f, ramped)
                }
                None => integrator.integrate(self, phases, t0, t1, dt, rngs),
            }
        }
        fn edge_enabled(&self, edge: usize, replica: usize) -> bool {
            <$kernel>::edge_enabled(self, edge, replica)
        }
        fn set_edge_enabled(&mut self, edge: usize, replica: usize, on: bool) {
            <$kernel>::set_edge_enabled(self, edge, replica, on)
        }
        fn enable_all_edges(&mut self) {
            <$kernel>::enable_all_edges(self)
        }
        fn set_couplings_enabled(&mut self, on: bool) {
            <$kernel>::set_couplings_enabled(self, on)
        }
        fn set_shil_enabled(&mut self, on: bool) {
            <$kernel>::set_shil_enabled(self, on)
        }
        fn set_bias(&mut self, node: usize, replica: usize, delta_omega: f64) {
            <$kernel>::set_bias(self, node, replica, delta_omega)
        }
        fn set_shil(&mut self, node: usize, replica: usize, shil: Option<Shil>) {
            <$kernel>::set_shil(self, node, replica, shil)
        }
        fn set_lane_noise_amplitude(&mut self, replica: usize, sigma: f64) {
            <$kernel>::set_lane_noise_amplitude(self, replica, sigma)
        }
    };
}

/// The IEEE-double stack (the reference arithmetic every property test
/// is anchored to): the jitter loop steps by time with a shrunken last
/// step, exactly like [`BatchIntegrator::integrate`].
impl Engine for BatchKernel {
    type Phase = f64;
    type Integrator = BatchIntegrator;

    fn compile(
        base: &PhaseNetwork,
        lane_nets: Option<&[PhaseNetwork]>,
        _dt: f64,
        lanes: usize,
    ) -> Self {
        match lane_nets {
            Some(nets) => BatchKernel::from_lanes(nets),
            None => BatchKernel::new(base, lanes),
        }
    }

    fn buffers(arena: &mut BatchArena) -> (&mut BatchIntegrator, &mut Vec<f64>, &mut LaneState) {
        (&mut arena.integrator, &mut arena.phases, &mut arena.lanes)
    }

    fn from_radians(theta: f64) -> f64 {
        theta
    }

    fn to_radians(phase: f64) -> f64 {
        phase
    }

    fn drift_jitter_lanes(
        &self,
        phases: &mut [f64],
        configs: &[MsropmConfig],
        rngs: &mut [StdRng],
        window: &Window,
        dt: f64,
    ) {
        let rr = configs.len();
        let mut t = window.t_start;
        let t_end = window.t_end();
        while t < t_end {
            let h = dt.min(t_end - t);
            let sqrt_h = h.sqrt();
            for i in 0..self.num_nodes() {
                let row = i * rr;
                for (r, rng) in rngs.iter_mut().enumerate() {
                    if let ReinitMode::JitterDrift { sigma } = configs[r].reinit {
                        let xi = standard_normal(rng);
                        let sig = if self.node_enabled(i) { sigma } else { 0.0 };
                        phases[row + r] += h * self.bias_of(i, r) + sqrt_h * sig * xi;
                    }
                }
            }
            t += h;
        }
    }

    forward_shared_engine_methods!(BatchKernel);
}

/// The fixed-point stack: phases are `i32` binary turns on the
/// integrator's uniform step grid (every step a full `dt`, the hardware
/// clock), so the jitter loop steps an integer count with quantized
/// gains. Readout converts each word to radians and reuses the exact
/// float decision functions, so binarization and quality metrics are
/// defined identically across backends.
impl Engine for FxBatchKernel {
    type Phase = i32;
    type Integrator = FxBatchIntegrator;

    fn compile(
        base: &PhaseNetwork,
        lane_nets: Option<&[PhaseNetwork]>,
        dt: f64,
        lanes: usize,
    ) -> Self {
        match lane_nets {
            Some(nets) => FxBatchKernel::from_lanes(nets, dt),
            None => FxBatchKernel::new(base, lanes, dt),
        }
    }

    fn buffers(arena: &mut BatchArena) -> (&mut FxBatchIntegrator, &mut Vec<i32>, &mut LaneState) {
        (
            &mut arena.fx_integrator,
            &mut arena.fx_phases,
            &mut arena.lanes,
        )
    }

    fn from_radians(theta: f64) -> i32 {
        phase_to_turns(theta)
    }

    fn to_radians(phase: i32) -> f64 {
        turns_to_phase(phase)
    }

    fn drift_jitter_lanes(
        &self,
        phases: &mut [i32],
        configs: &[MsropmConfig],
        rngs: &mut [StdRng],
        window: &Window,
        dt: f64,
    ) {
        let rr = configs.len();
        let drift_gains: Vec<i64> = configs
            .iter()
            .map(|c| match c.reinit {
                ReinitMode::JitterDrift { sigma } => fxkernel::noise_gain(sigma, dt),
                ReinitMode::UniformRandom => 0,
            })
            .collect();
        for _ in 0..self.steps_for(window.t_start, window.t_end()) {
            for i in 0..self.num_nodes() {
                let row = i * rr;
                for (r, rng) in rngs.iter_mut().enumerate() {
                    if matches!(configs[r].reinit, ReinitMode::JitterDrift { .. }) {
                        let xi = standard_normal(rng);
                        let gain = if self.node_enabled(i) {
                            drift_gains[r]
                        } else {
                            0
                        };
                        phases[row + r] = phases[row + r]
                            .wrapping_add(self.bias_step_of(i, r))
                            .wrapping_add(noise_increment(gain, xi));
                    }
                }
            }
        }
    }

    forward_shared_engine_methods!(FxBatchKernel);
}

/// The cross-lane view a stage-boundary hook receives: per-lane quality
/// so far plus the lane-state copy that implements population restarts.
///
/// The hook fires after each stage's readout *and* transition (groups
/// latched, crossing couplings cut) for every stage except the last —
/// the instants the paper's control sequencer could realistically
/// intervene between SHIL windows. On the sharded path the boundary
/// spans every shard (shards appear in lane order), so lane indices are
/// **global** and `copy_lane` works across shard boundaries — a
/// portfolio restart neither knows nor cares how the batch was
/// partitioned, nor which numeric stack it runs on.
pub(crate) trait StageBoundary {
    /// Number of lanes in the batch (across all shards).
    fn num_lanes(&self) -> usize;

    /// Edges already *permanently satisfied* for lane `r`: couplings cut
    /// at earlier transitions connect nodes whose group ids (and hence
    /// final colors) already differ. The natural stage-boundary quality
    /// ranking — more satisfied edges now means fewer conflicts the
    /// remaining stages must resolve.
    fn satisfied_edges(&self, r: usize) -> usize;

    /// Re-seeds lane `dst` from lane `src`: copies phases, group ids,
    /// per-lane coupling gating **and the stage records so far**, so the
    /// restarted lane's eventual `MsropmSolution` describes one
    /// consistent lineage (its early stages are the survivor's history
    /// the final coloring is actually built on, not the discarded run).
    /// `dst` keeps its own control parameters (weights, σ, SHIL) and its
    /// own RNG stream, so the restarted lane re-explores the survivor's
    /// partition from a different operating point and noise path.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    fn copy_lane(&mut self, src: usize, dst: usize);
}

/// A [`StageBoundary`] over the lane ranges (shards, in lane order) of
/// one batch on stack `E`.
struct Boundary<'a, E: Engine> {
    graph: &'a Graph,
    shards: &'a mut [LaneRange<E>],
}

impl<E: Engine> Boundary<'_, E> {
    /// Maps a global lane index to `(shard, local lane)`.
    fn locate(&self, lane: usize) -> (usize, usize) {
        let mut remaining = lane;
        for (s, shard) in self.shards.iter().enumerate() {
            if remaining < shard.lanes() {
                return (s, remaining);
            }
            remaining -= shard.lanes();
        }
        panic!("lane {lane} out of range");
    }
}

impl<E: Engine> StageBoundary for Boundary<'_, E> {
    fn num_lanes(&self) -> usize {
        self.shards.iter().map(LaneRange::lanes).sum()
    }

    fn satisfied_edges(&self, r: usize) -> usize {
        let (s, local) = self.locate(r);
        let m = self.graph.num_edges();
        let kernel = &self.shards[s].kernel;
        let active = (0..m).filter(|&e| kernel.edge_enabled(e, local)).count();
        m - active
    }

    fn copy_lane(&mut self, src: usize, dst: usize) {
        let lanes = self.num_lanes();
        assert!(src < lanes && dst < lanes, "lane range");
        let (n, m) = (self.graph.num_nodes(), self.graph.num_edges());
        let (ss, sl) = self.locate(src);
        let (ds, dl) = self.locate(dst);
        // Snapshot the source lane first: source and destination may
        // share a shard (and its buffers) or not.
        let from = &mut self.shards[ss];
        let rs = from.lanes();
        let (_, phases, state) = E::buffers(&mut from.arena);
        let phases: Vec<E::Phase> = (0..n).map(|i| phases[i * rs + sl]).collect();
        let groups: Vec<usize> = (0..n).map(|i| state.groups[i * rs + sl]).collect();
        let gating: Vec<bool> = (0..m).map(|e| from.kernel.edge_enabled(e, sl)).collect();
        let records = from.stage_records[sl].clone();
        let to = &mut self.shards[ds];
        let rd = to.lanes();
        let (_, to_phases, to_state) = E::buffers(&mut to.arena);
        for i in 0..n {
            to_phases[i * rd + dl] = phases[i];
            to_state.groups[i * rd + dl] = groups[i];
        }
        for (e, on) in gating.into_iter().enumerate() {
            to.kernel.set_edge_enabled(e, dl, on);
        }
        to.stage_records[dl] = records;
    }
}

/// A boundary hook that abandons the run as soon as `cancelled` answers
/// `true` — the shape every cancellation and deadline check takes.
pub(crate) fn cancel_hook(
    mut cancelled: impl FnMut() -> bool,
) -> impl FnMut(usize, &mut dyn StageBoundary) -> ControlFlow<()> {
    move |_, _| {
        if cancelled() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Reusable per-worker scratch for batch solves: the integrators (drift +
/// noise buffers) plus every per-run state vector
/// (`phases`/`groups`/`bits`/RNGs/resolved configs/SHIL tables).
///
/// A long-lived arena makes repeated batch solves allocation-free across
/// jobs once warm (for same-shaped jobs — buffers only grow, never
/// shrink): the job-server workers each own one and thread it through
/// every solve they execute. The compiled [`BatchKernel`] itself is still
/// built per solve — it *is* the problem compilation; reuse across repeat
/// topologies happens one level up in [`crate::cache::ProblemCache`],
/// which caches the machine (graph + network) a kernel is compiled from.
///
/// Results are bit-identical whether a fresh or a reused arena is used
/// (every buffer is fully re-initialized at the start of a solve);
/// covered by `reused_arena_matches_fresh_arena` below.
#[derive(Debug, Default)]
pub struct BatchArena {
    integrator: BatchIntegrator,
    fx_integrator: FxBatchIntegrator,
    phases: Vec<f64>,
    /// Fixed-point twin of `phases` (binary-turn words); only the
    /// buffer matching the batch's backend is populated by a solve.
    fx_phases: Vec<i32>,
    lanes: LaneState,
}

/// The per-lane state both numeric stacks share.
#[derive(Debug, Default)]
pub(crate) struct LaneState {
    rngs: Vec<StdRng>,
    configs: Vec<MsropmConfig>,
    groups: Vec<usize>,
    bits: Vec<bool>,
    stage_shils: Vec<Shil>,
    ramped: Vec<bool>,
}

impl BatchArena {
    /// Creates an empty arena; buffers are sized lazily by the first
    /// solve that uses it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One [`BatchArena`] per shard, owned by a long-lived worker: a
/// sharded solve moves shard `i`'s arena into shard `i`'s tasks and
/// moves it back at the end, so repeated sharded solves of same-shaped
/// jobs reuse every per-shard buffer — allocation-free across jobs, per
/// shard. (The sharded path does clone the graph and network into
/// `Arc`s once per solve so tasks can outlive the caller's borrows;
/// that is O(n + m) against a solve that integrates thousands of steps
/// per edge.)
///
/// If a solve panics (a shard task died), the arenas that were in
/// flight are lost — rebuild with [`ShardedArena::new`], exactly like a
/// plain arena after a worker panic.
#[derive(Debug, Default)]
pub struct ShardedArena {
    shards: Vec<BatchArena>,
}

impl ShardedArena {
    /// Creates an empty set of shard arenas; shards materialize on
    /// first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arena of shard `i`, created empty on demand. Shard `i` of
    /// every solve uses slot `i`, so warm buffers line up across jobs.
    fn shard_slot(&mut self, i: usize) -> &mut BatchArena {
        while self.shards.len() <= i {
            self.shards.push(BatchArena::new());
        }
        &mut self.shards[i]
    }
}

/// Clears and re-fills a reusable buffer to `len` copies of `fill`,
/// reusing its capacity.
fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.resize(len, fill);
}

/// Derives lane `r`'s network from the base network: a clone with the
/// lane's coupling/noise overrides applied by the same recipe the
/// builder uses, so a swept lane's weights are bit-identical to a
/// standalone machine's at that operating point. Lanes without
/// overrides share the base network untouched (preserving any per-edge
/// weight customization it carries).
fn lane_network(base: &PhaseNetwork, lane: &LaneConfig) -> PhaseNetwork {
    let mut net = base.clone();
    if let Some(k) = lane.coupling_strength {
        net.set_coupling_strength(k);
    }
    if let Some(sigma) = lane.noise {
        net.set_noise(sigma);
    }
    net
}

/// The inputs of one batch solve: the problem, the lanes and their
/// seeds, and whether each lane first samples its own frequency spread
/// (`Msropm::with_frequency_spread` semantics).
#[derive(Clone, Copy)]
pub(crate) struct Batch<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) config: &'a MsropmConfig,
    pub(crate) network: &'a PhaseNetwork,
    pub(crate) lanes: &'a [LaneConfig],
    pub(crate) seeds: &'a [u64],
    pub(crate) sample_spread: bool,
}

impl<'a> Batch<'a> {
    /// A batch whose lanes run on `network` as built (no sampled
    /// spread).
    pub(crate) fn new(
        graph: &'a Graph,
        config: &'a MsropmConfig,
        network: &'a PhaseNetwork,
        lanes: &'a [LaneConfig],
        seeds: &'a [u64],
    ) -> Self {
        Batch {
            graph,
            config,
            network,
            lanes,
            seeds,
            sample_spread: false,
        }
    }

    /// Asserts the batch is well-formed — one lane per seed, a valid
    /// base config, every lane on the same [`KernelBackend`] — and
    /// returns that backend. One batch runs one numeric stack: the SoA
    /// sweep, the shared phase buffers and the cross-shard boundary all
    /// assume a single phase format.
    fn backend(&self) -> KernelBackend {
        assert_eq!(
            self.lanes.len(),
            self.seeds.len(),
            "need one lane config per seed"
        );
        self.config.validate();
        let base = self.config.backend;
        let backend = self
            .lanes
            .first()
            .map_or(base, |l| l.backend.unwrap_or(base));
        assert!(
            self.lanes
                .iter()
                .all(|l| l.backend.unwrap_or(base) == backend),
            "all lanes in a batch must use the same kernel backend"
        );
        backend
    }
}

/// One contiguous lane range in flight: its compiled kernel, its arena
/// (owned, so a shard's whole state can move onto the [`ShardPool`] and
/// back between stage boundaries), the stage-record accumulators and the
/// lockstep timeline.
struct LaneRange<E: Engine> {
    kernel: E,
    arena: BatchArena,
    stage_records: Vec<Vec<StageRecord>>,
    windows: Vec<Window>,
    dt: f64,
}

impl<E: Engine> LaneRange<E> {
    /// Start-of-run setup: resolves the lane configs, compiles the
    /// (possibly heterogeneous) kernel, seeds the RNGs and draws spreads
    /// and initial phases — every buffer in `arena` fully re-initialized.
    /// The inline path and every shard run exactly this code, which is
    /// half of the 1-vs-N-shard bit-identity argument (the other half is
    /// [`run_one_stage`]).
    fn init(batch: Batch<'_>, mut arena: BatchArena) -> Self {
        let Batch {
            graph,
            config: base_config,
            network,
            lanes,
            seeds,
            sample_spread,
        } = batch;
        let n = graph.num_nodes();
        let rr = seeds.len();
        assert_eq!(lanes.len(), rr, "need one lane config per seed");
        let (_, phases, state) = E::buffers(&mut arena);
        let LaneState {
            rngs,
            configs,
            groups,
            bits,
            stage_shils: _,
            ramped,
        } = state;
        configs.clear();
        configs.extend(lanes.iter().map(|l| l.resolve(base_config)));
        let schedule_set = ScheduleSet::from_configs(configs);
        let windows = schedule_set.lockstep().windows().to_vec();
        let k = configs[0].num_stages();
        let dt = configs[0].dt;

        rngs.clear();
        rngs.extend(seeds.iter().map(|&s| StdRng::seed_from_u64(s)));
        let needs_lane_nets = lanes
            .iter()
            .any(|l| l.coupling_strength.is_some() || l.noise.is_some());
        let lane_nets: Option<Vec<PhaseNetwork>> =
            needs_lane_nets.then(|| lanes.iter().map(|l| lane_network(network, l)).collect());
        let mut kernel = E::compile(network, lane_nets.as_deref(), dt, rr);
        // Start-of-run control state, mirroring `Msropm::solve`: every P_EN
        // high, SHIL off.
        kernel.enable_all_edges();
        kernel.set_shil_enabled(false);

        // Runner semantics: frequency offsets are the replica's first draws.
        if sample_spread {
            for (r, rng) in rngs.iter_mut().enumerate() {
                if configs[r].frequency_spread > 0.0 {
                    for i in 0..n {
                        kernel.set_bias(i, r, configs[r].frequency_spread * standard_normal(rng));
                    }
                }
            }
        }

        // Startup randomization: i.i.d. uniform phases, per replica in node
        // order (the order `PhaseNetwork::random_phases` draws). Both
        // backends consume the identical uniform draws; the fixed-point
        // path quantizes each to the nearest of 2^32 turn counts.
        refill(phases, n * rr, E::Phase::default());
        for (r, rng) in rngs.iter_mut().enumerate() {
            for i in 0..n {
                phases[i * rr + r] = E::from_radians(rng.gen::<f64>() * TAU);
            }
        }

        refill(groups, n * rr, 0usize);
        refill(bits, n * rr, false);
        ramped.clear();
        ramped.extend(configs.iter().map(|c| c.shil_ramp));
        LaneRange {
            kernel,
            arena,
            // Stage records are the output payload (moved into the
            // returned solutions), so they are the one fresh allocation
            // per solve.
            stage_records: vec![Vec::with_capacity(k); rr],
            windows,
            dt,
        }
    }

    fn num_stages(&self) -> usize {
        self.windows.len() / 3
    }

    fn lanes(&self) -> usize {
        self.stage_records.len()
    }

    fn run_stage(&mut self, graph: &Graph, stage: usize) {
        run_one_stage(
            graph,
            stage,
            &self.windows[3 * (stage - 1)..3 * stage],
            self.dt,
            &mut self.kernel,
            &mut self.arena,
            &mut self.stage_records,
        );
    }

    /// Builds the per-lane solutions from the finished range and hands
    /// the arena back. Fixed-point phase words convert to radians in
    /// `[0, 2π)` — exactly invertibly (see
    /// [`msropm_osc::fxkernel::phase_to_turns`]), so the golden-hash
    /// tests can recover the raw words from a solution.
    fn finish(self, n: usize) -> (Vec<MsropmSolution>, BatchArena) {
        let total_time_ns = self.windows.last().map_or(0.0, Window::t_end);
        let rr = self.stage_records.len();
        let mut arena = self.arena;
        let (_, phases, state) = E::buffers(&mut arena);
        let groups = &state.groups;
        let sols = self
            .stage_records
            .into_iter()
            .enumerate()
            .map(|(r, stages)| MsropmSolution {
                coloring: (0..n).map(|i| Color(groups[i * rr + r] as u16)).collect(),
                stages,
                final_phases: (0..n).map(|i| E::to_radians(phases[i * rr + r])).collect(),
                total_time_ns,
            })
            .collect();
        (sols, arena)
    }
}

/// Advances one lane range through one full stage: Randomize → Anneal →
/// Lock → readout → transition. `stage_windows` is the stage's three
/// schedule windows in that order. This is *the* stage body — the
/// inline path and every shard task call exactly this function on
/// either numeric stack, so partitioning the lane range cannot change
/// any lane's arithmetic.
fn run_one_stage<E: Engine>(
    graph: &Graph,
    stage: usize,
    stage_windows: &[Window],
    dt: f64,
    kernel: &mut E,
    arena: &mut BatchArena,
    stage_records: &mut [Vec<StageRecord>],
) {
    let n = graph.num_nodes();
    let (integrator, phases, state) = E::buffers(arena);
    let LaneState {
        rngs,
        configs,
        groups,
        bits,
        stage_shils,
        ramped,
    } = state;
    let rr = configs.len();
    let num_groups = 1usize << (stage - 1);
    let [w_init, w_anneal, w_lock] = stage_windows else {
        panic!("stage {stage} must have exactly three windows");
    };

    // ---- Randomize window (couplings off, SHIL off) ----
    debug_assert_eq!(w_init.kind, WindowKind::Randomize);
    kernel.set_couplings_enabled(false);
    kernel.set_shil_enabled(false);
    let any_jitter = configs
        .iter()
        .any(|c| matches!(c.reinit, ReinitMode::JitterDrift { .. }));
    let any_uniform = configs
        .iter()
        .any(|c| c.reinit == ReinitMode::UniformRandom);
    if any_jitter && !any_uniform {
        // All lanes drift: run the kernel path with each lane's
        // drift σ, then restore the lanes' annealing σ.
        for (r, cfg) in configs.iter().enumerate() {
            let ReinitMode::JitterDrift { sigma } = cfg.reinit else {
                unreachable!("all lanes drift here")
            };
            kernel.set_lane_noise_amplitude(r, sigma);
        }
        kernel.integrate(integrator, phases, w_init, dt, rngs, None);
        for (r, cfg) in configs.iter().enumerate() {
            kernel.set_lane_noise_amplitude(r, cfg.noise);
        }
    } else if any_jitter {
        kernel.drift_jitter_lanes(phases, configs, rngs, w_init, dt);
    }
    for (r, rng) in rngs.iter_mut().enumerate() {
        if configs[r].reinit == ReinitMode::UniformRandom {
            for i in 0..n {
                phases[i * rr + r] = E::from_radians(rng.gen::<f64>() * TAU);
            }
        }
    }

    // ---- Anneal window (couplings on, SHIL off) ----
    debug_assert_eq!(w_anneal.kind, WindowKind::Anneal);
    kernel.set_couplings_enabled(true);
    kernel.integrate(integrator, phases, w_anneal, dt, rngs, None);

    // ---- Lock window (couplings on, SHIL on) ----
    debug_assert_eq!(w_lock.kind, WindowKind::Lock);
    stage_shils.clear();
    for cfg in configs.iter() {
        stage_shils.extend(
            (0..num_groups)
                .map(|g| Shil::order2(stage_shil_phase(g, num_groups), cfg.shil_strength)),
        );
    }
    let shil_of = |r: usize, g: usize| stage_shils[r * num_groups + g];
    for i in 0..n {
        for r in 0..rr {
            kernel.set_shil(i, r, Some(shil_of(r, groups[i * rr + r])));
        }
    }
    kernel.set_shil_enabled(true);
    let ramped = ramped.iter().any(|&r| r).then_some(ramped.as_slice());
    kernel.integrate(integrator, phases, w_lock, dt, rngs, ramped);

    // ---- Readout (per replica) ----
    for i in 0..n {
        for r in 0..rr {
            let idx = i * rr + r;
            bits[idx] = phase_to_spin(E::to_radians(phases[idx]), &shil_of(r, groups[idx])) == 1;
        }
    }
    for r in 0..rr {
        let worst_lock = (0..n)
            .map(|i| {
                let idx = i * rr + r;
                lock_error(E::to_radians(phases[idx]), &shil_of(r, groups[idx]))
            })
            .fold(0.0f64, f64::max);
        let replica_bits: Vec<bool> = (0..n).map(|i| bits[i * rr + r]).collect();
        let mut cut_value = 0usize;
        let mut active_edges = 0usize;
        for (e, u, v) in graph.edges() {
            if kernel.edge_enabled(e.index(), r) {
                active_edges += 1;
                if replica_bits[u.index()] != replica_bits[v.index()] {
                    cut_value += 1;
                }
            }
        }
        stage_records[r].push(StageRecord {
            stage,
            partition: Cut::new(replica_bits),
            cut_value,
            active_edges,
            max_lock_error: worst_lock,
        });
    }

    // ---- Stage transition: latch SHIL_SEL, cut crossing couplings.
    for idx in 0..n * rr {
        groups[idx] = groups[idx] * 2 + usize::from(bits[idx]);
    }
    for (e, u, v) in graph.edges() {
        let (u, v) = (u.index() * rr, v.index() * rr);
        for r in 0..rr {
            if groups[u + r] != groups[v + r] {
                kernel.set_edge_enabled(e.index(), r, false);
            }
        }
    }
    kernel.set_shil_enabled(false);
}

/// Runs one contiguous lane range as a single interleaved batch inline
/// in the caller's `arena`, invoking `hook` at every non-final stage
/// boundary (the population-restart and cooperative-cancellation entry
/// point; see [`StageBoundary`]). All per-run state lives in `arena`,
/// so a caller reusing one arena across solves allocates nothing here
/// once the buffers are warm.
///
/// Returns `None` when `hook` answers [`ControlFlow::Break`] — the run
/// is abandoned at that stage boundary and **no** solutions are
/// produced (the partially annealed state is discarded; the arena stays
/// reusable). A `Break` cannot change the trajectory of a run that
/// continues: the hook fires strictly between stages, after all RNG
/// draws of the finished stage and before any of the next.
///
/// # Panics
///
/// Panics if `lanes.len() != seeds.len()`, the lanes mix backends, or
/// any resolved lane config is inconsistent.
pub(crate) fn solve_lane_range_hooked<F>(
    batch: Batch<'_>,
    arena: &mut BatchArena,
    hook: F,
) -> Option<Vec<MsropmSolution>>
where
    F: FnMut(usize, &mut dyn StageBoundary) -> ControlFlow<()>,
{
    let backend = batch.backend();
    if batch.seeds.is_empty() {
        return Some(Vec::new());
    }
    match backend {
        KernelBackend::F64 => solve_range::<BatchKernel, F>(batch, arena, hook),
        KernelBackend::Fixed => solve_range::<FxBatchKernel, F>(batch, arena, hook),
    }
}

fn solve_range<E: Engine, F>(
    batch: Batch<'_>,
    arena: &mut BatchArena,
    mut hook: F,
) -> Option<Vec<MsropmSolution>>
where
    F: FnMut(usize, &mut dyn StageBoundary) -> ControlFlow<()>,
{
    let graph = batch.graph;
    let mut range = LaneRange::<E>::init(batch, std::mem::take(arena));
    let k = range.num_stages();
    for stage in 1..=k {
        range.run_stage(graph, stage);
        let mut boundary = Boundary {
            graph,
            shards: std::slice::from_mut(&mut range),
        };
        if stage < k && hook(stage, &mut boundary).is_break() {
            *arena = range.arena;
            return None;
        }
    }
    let (sols, used) = range.finish(graph.num_nodes());
    *arena = used;
    Some(sols)
}

/// Runs `tasks` on `pool`, the calling thread helping while it waits
/// ([`ShardPool::help_while`]), and returns their results in order. If
/// any task panicked, the panic resumes here — after every task has
/// reported, so no task is left holding state.
fn on_pool<T: Send + 'static>(
    pool: &ShardPool,
    tasks: impl IntoIterator<Item = impl FnOnce() -> T + Send + 'static>,
) -> Vec<T> {
    let (tx, rx) = mpsc::channel();
    let mut slots: Vec<Option<T>> = Vec::new();
    for (idx, task) in tasks.into_iter().enumerate() {
        let tx = tx.clone();
        pool.submit(Box::new(move || {
            let _ = tx.send((idx, catch_unwind(AssertUnwindSafe(task))));
        }));
        slots.push(None);
    }
    let mut received = 0usize;
    let mut panic: Option<Box<dyn Any + Send>> = None;
    pool.help_while(|| {
        while let Ok((idx, res)) = rx.try_recv() {
            received += 1;
            match res {
                Ok(out) => slots[idx] = Some(out),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        received == slots.len()
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task reported"))
        .collect()
}

/// Runs one job's lane range sharded across the [`ShardPool`]: the
/// range splits into `shards` contiguous chunks; each chunk's current
/// stage runs as one owned task; the dispatching thread helps the pool
/// while waiting and fires `hook` over a cross-shard [`StageBoundary`]
/// at every non-final boundary. `shards == 1` (or a single-lane job)
/// delegates to [`solve_lane_range_hooked`] in shard slot 0 — the
/// sharded entry at width 1 *is* the unsharded entry.
///
/// Bit-identity across shard counts holds by construction (shared
/// range setup + [`run_one_stage`], per-lane RNG streams, a lane's
/// arithmetic independent of its range) and is property-tested at the
/// core, server and wire layers.
///
/// A panic inside any shard task (e.g. a poisoned problem) is re-raised
/// on the calling thread once every shard has reported — the job
/// server's `catch_unwind` then maps it to a typed `Failed` completion.
/// The in-flight shard arenas are lost to the panic; rebuild the
/// [`ShardedArena`].
///
/// # Panics
///
/// Panics if `shards == 0`, `lanes.len() != seeds.len()`, any resolved
/// lane config is inconsistent, or a shard task panicked.
pub(crate) fn solve_lanes_sharded_hooked<F>(
    batch: Batch<'_>,
    shards: usize,
    arena: &mut ShardedArena,
    pool: &ShardPool,
    hook: F,
) -> Option<Vec<MsropmSolution>>
where
    F: FnMut(usize, &mut dyn StageBoundary) -> ControlFlow<()>,
{
    assert!(shards > 0, "need at least one shard");
    if shards.min(batch.seeds.len()) <= 1 {
        return solve_lane_range_hooked(batch, arena.shard_slot(0), hook);
    }
    match batch.backend() {
        KernelBackend::F64 => shard_range::<BatchKernel, F>(batch, shards, arena, pool, hook),
        KernelBackend::Fixed => shard_range::<FxBatchKernel, F>(batch, shards, arena, pool, hook),
    }
}

fn shard_range<E: Engine, F>(
    batch: Batch<'_>,
    shards: usize,
    arena: &mut ShardedArena,
    pool: &ShardPool,
    mut hook: F,
) -> Option<Vec<MsropmSolution>>
where
    F: FnMut(usize, &mut dyn StageBoundary) -> ControlFlow<()>,
{
    let Batch {
        graph,
        config,
        network,
        lanes,
        seeds,
        sample_spread,
    } = batch;
    // Lockstep must hold across the *whole* batch, not just within each
    // shard, so a cross-shard mismatch fails exactly like it does on the
    // single-shard path.
    ScheduleSet::from_configs(&lanes.iter().map(|l| l.resolve(config)).collect::<Vec<_>>());
    let chunk_len = seeds.len().div_ceil(shards);
    let graph_arc = Arc::new(graph.clone());
    let net_arc = Arc::new(network.clone());
    let base = *config;

    // Stage-1 tasks carry range setup (kernel compilation, RNG seeding,
    // initial draws), so problem setup parallelizes too.
    let stage_one: Vec<_> = seeds
        .chunks(chunk_len)
        .zip(lanes.chunks(chunk_len))
        .enumerate()
        .map(|(idx, (seeds, lanes))| {
            let (graph, network) = (Arc::clone(&graph_arc), Arc::clone(&net_arc));
            let (lanes, seeds) = (lanes.to_vec(), seeds.to_vec());
            let shard_arena = std::mem::take(arena.shard_slot(idx));
            move || {
                let batch = Batch {
                    sample_spread,
                    ..Batch::new(&graph, &base, &network, &lanes, &seeds)
                };
                let mut range = LaneRange::<E>::init(batch, shard_arena);
                crate::pool::faultinject::maybe_panic_in_shard(idx);
                range.run_stage(&graph, 1);
                range
            }
        })
        .collect();
    let mut ranges = on_pool(pool, stage_one);
    for stage in 1..ranges[0].num_stages() {
        let mut boundary = Boundary {
            graph,
            shards: &mut ranges,
        };
        if hook(stage, &mut boundary).is_break() {
            // Abandoned at the boundary, same as the single-shard path:
            // no solutions, arenas back in their slots for reuse.
            for (idx, range) in ranges.into_iter().enumerate() {
                *arena.shard_slot(idx) = range.arena;
            }
            return None;
        }
        ranges = on_pool(
            pool,
            ranges.into_iter().enumerate().map(|(idx, mut range)| {
                let graph = Arc::clone(&graph_arc);
                move || {
                    crate::pool::faultinject::maybe_panic_in_shard(idx);
                    range.run_stage(&graph, stage + 1);
                    range
                }
            }),
        );
    }

    let mut out = Vec::with_capacity(seeds.len());
    for (idx, range) in ranges.into_iter().enumerate() {
        let (sols, shard_arena) = range.finish(graph.num_nodes());
        out.extend(sols);
        *arena.shard_slot(idx) = shard_arena;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Msropm, SolveOptions};
    use msropm_graph::generators;

    fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    fn no_hook(_: usize, _: &mut dyn StageBoundary) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// The inline driver with no boundary hook.
    fn solve_inline(
        g: &Graph,
        base: &MsropmConfig,
        net: &PhaseNetwork,
        lanes: &[LaneConfig],
        seeds: &[u64],
        arena: &mut BatchArena,
    ) -> Vec<MsropmSolution> {
        solve_lane_range_hooked(Batch::new(g, base, net, lanes, seeds), arena, no_hook)
            .expect("uncancelled run completes")
    }

    /// The sharded driver with no boundary hook.
    fn solve_shards(
        batch: Batch<'_>,
        shards: usize,
        arena: &mut ShardedArena,
        pool: &ShardPool,
    ) -> Vec<MsropmSolution> {
        solve_lanes_sharded_hooked(batch, shards, arena, pool, no_hook)
            .expect("uncancelled run completes")
    }

    /// `machine`'s lanes sharded `shards` wide on a private two-worker
    /// pool.
    fn solve_sharded(
        machine: &Msropm,
        lanes: &[LaneConfig],
        seeds: &[u64],
        shards: usize,
    ) -> Vec<MsropmSolution> {
        let pool = ShardPool::new(2);
        let mut arena = ShardedArena::new();
        machine
            .solve_lanes(
                lanes,
                seeds,
                SolveOptions::new().sharded(shards, &mut arena, &pool),
            )
            .expect("uncancellable")
    }

    /// `seeds.len()` default lanes of `machine`, sharded `shards` wide.
    fn solve_default_lanes(machine: &Msropm, seeds: &[u64], shards: usize) -> Vec<MsropmSolution> {
        solve_sharded(
            machine,
            &vec![LaneConfig::default(); seeds.len()],
            seeds,
            shards,
        )
    }

    #[test]
    fn batch_replicas_match_sequential_solves_bitwise() {
        let g = generators::kings_graph(4, 4);
        let machine = Msropm::new(&g, fast_config());
        let seeds: Vec<u64> = (100..108).collect();
        let batch = solve_default_lanes(&machine, &seeds, 1);
        assert_eq!(batch.len(), seeds.len());
        for (r, &seed) in seeds.iter().enumerate() {
            let mut solo_machine = machine.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo_machine.solve(&mut rng);
            assert_eq!(batch[r].coloring, solo.coloring, "replica {r} coloring");
            for (a, b) in batch[r].final_phases.iter().zip(&solo.final_phases) {
                assert_eq!(a.to_bits(), b.to_bits(), "replica {r} phases diverged");
            }
            assert_eq!(batch[r].stages.len(), solo.stages.len());
            for (sa, sb) in batch[r].stages.iter().zip(&solo.stages) {
                assert_eq!(sa.cut_value, sb.cut_value);
                assert_eq!(sa.active_edges, sb.active_edges);
                assert_eq!(sa.partition, sb.partition);
            }
        }
    }

    #[test]
    fn thread_count_is_invisible() {
        let g = generators::kings_graph(4, 4);
        let machine = Msropm::new(&g, fast_config());
        let seeds: Vec<u64> = (7..17).collect();
        let one = solve_default_lanes(&machine, &seeds, 1);
        let four = solve_default_lanes(&machine, &seeds, 4);
        let many = solve_default_lanes(&machine, &seeds, 64);
        for r in 0..seeds.len() {
            assert_eq!(one[r].coloring, four[r].coloring);
            assert_eq!(one[r].coloring, many[r].coloring);
            for (a, b) in one[r].final_phases.iter().zip(&four[r].final_phases) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn ramped_batch_matches_sequential() {
        let g = generators::kings_graph(3, 3);
        let machine = Msropm::new(&g, fast_config().with_shil_ramp(true));
        let seeds = [41u64, 42];
        let batch = solve_default_lanes(&machine, &seeds, 2);
        for (r, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = machine.clone().solve(&mut rng);
            assert_eq!(batch[r].coloring, solo.coloring, "ramped replica {r}");
        }
    }

    #[test]
    fn defective_oscillators_carry_into_batch() {
        let g = generators::kings_graph(3, 3);
        let mut machine = Msropm::new(&g, fast_config());
        machine.set_oscillator_enabled(4, false);
        let seeds = [9u64, 10];
        let batch = solve_default_lanes(&machine, &seeds, 1);
        for (r, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = machine.clone().solve(&mut rng);
            assert_eq!(
                batch[r].coloring, solo.coloring,
                "replica {r} with dead ring"
            );
        }
    }

    #[test]
    fn empty_seed_list_is_empty_batch() {
        let g = generators::path_graph(2);
        let machine = Msropm::new(&g, fast_config());
        assert!(solve_default_lanes(&machine, &[], 4).is_empty());
    }

    /// A lane's trajectory in a heterogeneous batch must be bit-identical
    /// to a sequential `Msropm::solve` over the lane's resolved config.
    fn assert_lane_matches_solo(
        g: &msropm_graph::Graph,
        base: &MsropmConfig,
        lanes: &[LaneConfig],
        seeds: &[u64],
    ) {
        let machine = Msropm::new(g, *base);
        let batch = solve_sharded(&machine, lanes, seeds, 1);
        for (r, (&seed, lane)) in seeds.iter().zip(lanes).enumerate() {
            let mut solo_machine = Msropm::new(g, lane.resolve(base));
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo_machine.solve(&mut rng);
            assert_eq!(batch[r].coloring, solo.coloring, "lane {r} coloring");
            for (a, b) in batch[r].final_phases.iter().zip(&solo.final_phases) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {r} phases diverged");
            }
        }
    }

    #[test]
    fn swept_lanes_match_their_standalone_machines() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default(),
            LaneConfig::default().with_coupling_strength(0.6),
            LaneConfig::default()
                .with_noise(0.05)
                .with_shil_strength(1.2),
            LaneConfig::default()
                .with_coupling_strength(1.4)
                .with_noise(0.3),
        ];
        assert_lane_matches_solo(&g, &base, &lanes, &[31, 32, 33, 34]);
    }

    #[test]
    fn mixed_reinit_lanes_match_their_standalone_machines() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default().with_reinit(ReinitMode::UniformRandom),
            LaneConfig::default(),
            LaneConfig::default().with_reinit(ReinitMode::JitterDrift { sigma: 0.4 }),
        ];
        assert_lane_matches_solo(&g, &base, &lanes, &[51, 52, 53]);
    }

    #[test]
    fn mixed_ramp_lanes_match_their_standalone_machines() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default().with_shil_ramp(true),
            LaneConfig::default(),
            LaneConfig::default().with_shil_ramp(true).with_noise(0.1),
        ];
        assert_lane_matches_solo(&g, &base, &lanes, &[61, 62, 63]);
    }

    #[test]
    fn mixed_reinit_with_defective_ring_matches_solo() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let lanes = [
            LaneConfig::default().with_reinit(ReinitMode::UniformRandom),
            LaneConfig::default().with_reinit(ReinitMode::JitterDrift { sigma: 2.0 }),
        ];
        let seeds = [71u64, 72];
        let mut machine = Msropm::new(&g, base);
        machine.set_oscillator_enabled(2, false);
        let batch = solve_sharded(&machine, &lanes, &seeds, 1);
        for (r, (&seed, lane)) in seeds.iter().zip(&lanes).enumerate() {
            let mut solo_machine = Msropm::new(&g, lane.resolve(&base));
            solo_machine.set_oscillator_enabled(2, false);
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo_machine.solve(&mut rng);
            for (a, b) in batch[r].final_phases.iter().zip(&solo.final_phases) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {r} with dead ring");
            }
        }
    }

    #[test]
    fn reused_arena_matches_fresh_arena() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let jobs: [(&[LaneConfig], &[u64]); 3] = [
            (&[LaneConfig::default(); 4], &[1, 2, 3, 4]),
            (
                &[
                    LaneConfig::default().with_coupling_strength(0.7),
                    LaneConfig::default().with_noise(0.05),
                ],
                &[5, 6],
            ),
            (&[LaneConfig::default(); 2], &[7, 8]),
        ];
        // One arena reused across heterogeneously-shaped jobs vs a fresh
        // arena per job: bit-identical.
        let mut warm = BatchArena::new();
        for (lanes, seeds) in jobs {
            let reused = solve_inline(&g, &base, &net, lanes, seeds, &mut warm);
            let fresh = solve_inline(&g, &base, &net, lanes, seeds, &mut BatchArena::new());
            for (a, b) in reused.iter().zip(&fresh) {
                assert_eq!(a.coloring, b.coloring);
                for (x, y) in a.final_phases.iter().zip(&b.final_phases) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn heterogeneous_sharding_is_invisible() {
        let g = generators::kings_graph(3, 3);
        let machine = Msropm::new(&g, fast_config());
        let lanes: Vec<LaneConfig> = (0..6)
            .map(|i| LaneConfig::default().with_noise(0.05 + 0.05 * i as f64))
            .collect();
        let seeds: Vec<u64> = (90..96).collect();
        let one = solve_sharded(&machine, &lanes, &seeds, 1);
        let three = solve_sharded(&machine, &lanes, &seeds, 3);
        for r in 0..seeds.len() {
            assert_eq!(one[r].coloring, three[r].coloring, "lane {r}");
        }
    }

    #[test]
    fn stage_boundary_hook_fires_on_non_final_stages() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config(); // 4 colors => 2 stages => 1 boundary
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 3];
        let mut fired = Vec::new();
        let mut arena = BatchArena::new();
        let out = solve_lane_range_hooked(
            Batch::new(&g, &base, &net, &lanes, &[1, 2, 3]),
            &mut arena,
            |stage, b| {
                fired.push((stage, b.num_lanes()));
                // Satisfied-edge counts are sane: between 0 and m.
                for r in 0..b.num_lanes() {
                    assert!(b.satisfied_edges(r) <= g.num_edges());
                }
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out.expect("run completes").len(), 3);
        assert_eq!(fired, vec![(1, 3)]);
    }

    #[test]
    fn hook_break_abandons_the_run() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config(); // 2 stages => the one boundary aborts
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 2];
        let mut arena = BatchArena::new();
        let out = solve_lane_range_hooked(
            Batch::new(&g, &base, &net, &lanes, &[1, 2]),
            &mut arena,
            |_, _: &mut dyn StageBoundary| ControlFlow::Break(()),
        );
        assert!(out.is_none(), "broken run must yield no solutions");
        // The arena stays reusable and a subsequent full run is
        // bit-identical to one in a fresh arena.
        let resumed = solve_inline(&g, &base, &net, &lanes, &[1, 2], &mut arena);
        let fresh = solve_inline(&g, &base, &net, &lanes, &[1, 2], &mut BatchArena::new());
        for (a, b) in resumed.iter().zip(&fresh) {
            assert_eq!(a.coloring, b.coloring);
            for (x, y) in a.final_phases.iter().zip(&b.final_phases) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn copy_lane_transplants_partition_state() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 2];
        let mut arena = BatchArena::new();
        let sols = solve_lane_range_hooked(
            Batch::new(&g, &base, &net, &lanes, &[5, 6]),
            &mut arena,
            |_, b| {
                b.copy_lane(0, 1);
                assert_eq!(b.satisfied_edges(0), b.satisfied_edges(1));
                ControlFlow::Continue(())
            },
        )
        .expect("uncancelled run completes");
        // After the copy both lanes share the stage-1 partition, so the
        // stage-1 group bit (the color MSB) must agree everywhere.
        let c0 = &sols[0].coloring;
        let c1 = &sols[1].coloring;
        for i in 0..g.num_nodes() {
            assert_eq!(
                c0.as_slice()[i].index() >> 1,
                c1.as_slice()[i].index() >> 1,
                "node {i} stage-1 bit"
            );
        }
    }

    // ---- Sharded-solve tests (PR 7) ----

    fn assert_solutions_bitwise_equal(a: &[MsropmSolution], b: &[MsropmSolution]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.coloring, y.coloring);
            for (p, q) in x.final_phases.iter().zip(&y.final_phases) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            assert_eq!(x.stages.len(), y.stages.len());
            for (sa, sb) in x.stages.iter().zip(&y.stages) {
                assert_eq!(sa.partition, sb.partition);
                assert_eq!(sa.cut_value, sb.cut_value);
                assert_eq!(sa.active_edges, sb.active_edges);
            }
        }
    }

    #[test]
    fn shard_count_is_invisible() {
        let g = generators::kings_graph(4, 4);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes: Vec<LaneConfig> = (0..10)
            .map(|i| match i % 3 {
                0 => LaneConfig::default(),
                1 => LaneConfig::default().with_coupling_strength(0.8),
                _ => LaneConfig::default().with_noise(0.1),
            })
            .collect();
        let seeds: Vec<u64> = (300..310).collect();
        let pool = ShardPool::new(2);
        let reference = solve_inline(&g, &base, &net, &lanes, &seeds, &mut BatchArena::new());
        for shards in [1usize, 2, 3, 4, 64] {
            let mut arena = ShardedArena::new();
            let sharded = solve_shards(
                Batch::new(&g, &base, &net, &lanes, &seeds),
                shards,
                &mut arena,
                &pool,
            );
            assert_solutions_bitwise_equal(&reference, &sharded);
        }
    }

    #[test]
    fn sharded_reused_arena_matches_fresh() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let pool = ShardPool::new(2);
        let mut warm = ShardedArena::new();
        for round in 0..3u64 {
            let lanes = vec![LaneConfig::default(); 6];
            let seeds: Vec<u64> = (round * 10..round * 10 + 6).collect();
            let reused = solve_shards(
                Batch::new(&g, &base, &net, &lanes, &seeds),
                3,
                &mut warm,
                &pool,
            );
            let fresh = solve_shards(
                Batch::new(&g, &base, &net, &lanes, &seeds),
                3,
                &mut ShardedArena::new(),
                &pool,
            );
            assert_solutions_bitwise_equal(&reused, &fresh);
        }
    }

    #[test]
    fn sharded_hook_sees_global_lane_order_and_copies_across_shards() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 6];
        let seeds: Vec<u64> = (40..46).collect();
        let pool = ShardPool::new(2);

        // Reference: single shard, hook copies lane 0 onto lane 5.
        let mut single = BatchArena::new();
        let reference = solve_lane_range_hooked(
            Batch::new(&g, &base, &net, &lanes, &seeds),
            &mut single,
            |_, b| {
                assert_eq!(b.num_lanes(), 6);
                b.copy_lane(0, 5);
                ControlFlow::Continue(())
            },
        )
        .expect("completes");

        // 3 shards of 2 lanes: the same copy crosses shard boundaries.
        let mut arena = ShardedArena::new();
        let mut satisfied = Vec::new();
        let sharded = solve_lanes_sharded_hooked(
            Batch::new(&g, &base, &net, &lanes, &seeds),
            3,
            &mut arena,
            &pool,
            |_, b| {
                assert_eq!(b.num_lanes(), 6);
                satisfied = (0..6).map(|r| b.satisfied_edges(r)).collect();
                b.copy_lane(0, 5);
                assert_eq!(b.satisfied_edges(0), b.satisfied_edges(5));
                ControlFlow::Continue(())
            },
        )
        .expect("completes");
        assert_solutions_bitwise_equal(&reference, &sharded);
        assert_eq!(satisfied.len(), 6);
    }

    #[test]
    fn sharded_hook_break_abandons_and_keeps_arena_reusable() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 4];
        let pool = ShardPool::new(2);
        let mut arena = ShardedArena::new();
        let out = solve_lanes_sharded_hooked(
            Batch::new(&g, &base, &net, &lanes, &[1, 2, 3, 4]),
            2,
            &mut arena,
            &pool,
            |_, _: &mut dyn StageBoundary| ControlFlow::Break(()),
        );
        assert!(out.is_none(), "broken run must yield no solutions");
        // The shard arenas came back and the next run is bit-identical
        // to a fresh-arena run.
        let resumed = solve_shards(
            Batch::new(&g, &base, &net, &lanes, &[1, 2, 3, 4]),
            2,
            &mut arena,
            &pool,
        );
        let fresh = solve_shards(
            Batch::new(&g, &base, &net, &lanes, &[1, 2, 3, 4]),
            2,
            &mut ShardedArena::new(),
            &pool,
        );
        assert_solutions_bitwise_equal(&resumed, &fresh);
    }

    #[test]
    fn empty_seed_list_is_empty_sharded_batch() {
        let g = generators::path_graph(2);
        let base = fast_config();
        let net = base.build_network(&g);
        let pool = ShardPool::new(1);
        let out = solve_lanes_sharded_hooked(
            Batch::new(&g, &base, &net, &[], &[]),
            4,
            &mut ShardedArena::new(),
            &pool,
            no_hook,
        );
        assert_eq!(out.expect("trivially completes").len(), 0);
    }

    #[test]
    fn shard_panic_unwinds_to_the_caller() {
        let g = generators::kings_graph(3, 3);
        let base = fast_config();
        let net = base.build_network(&g);
        let lanes = vec![LaneConfig::default(); 4];
        let pool = ShardPool::new(2);
        crate::pool::faultinject::arm_panic_in_shard(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            solve_lanes_sharded_hooked(
                Batch::new(&g, &base, &net, &lanes, &[1, 2, 3, 4]),
                2,
                &mut ShardedArena::new(),
                &pool,
                no_hook,
            )
        }));
        crate::pool::faultinject::disarm();
        assert!(result.is_err(), "shard panic must unwind out of the solve");
        // The pool survives and a fresh solve matches the unsharded
        // reference.
        let sharded = solve_shards(
            Batch::new(&g, &base, &net, &lanes, &[1, 2, 3, 4]),
            2,
            &mut ShardedArena::new(),
            &pool,
        );
        let reference = solve_inline(
            &g,
            &base,
            &net,
            &lanes,
            &[1, 2, 3, 4],
            &mut BatchArena::new(),
        );
        assert_solutions_bitwise_equal(&reference, &sharded);
    }

    // ---- Physics oracle: noise-free gradient descent ----

    /// Per-lane coupling strengths of the oracle batch.
    const ORACLE_COUPLINGS: [f64; 3] = [0.6, 1.0, 1.4];

    /// Steps stack `E` one `dt` at a time through an anneal window and a
    /// lock window of a stage-2 control state — each lane with its own
    /// coupling strength, its own random stage-1 partition cut out of
    /// `P_EN` and its own `SHIL_SEL` groups — with zero noise and zero
    /// frequency spread. Returns the largest rise of any lane's
    /// `PhaseNetwork::energy` (under that window's gating and SHIL) over
    /// one step.
    fn max_energy_rise<E: Engine>(dt: f64) -> f64 {
        let g = generators::kings_graph(4, 4);
        let n = g.num_nodes();
        let base = MsropmConfig {
            noise: 0.0,
            frequency_spread: 0.0,
            dt,
            ..MsropmConfig::paper_default()
        };
        let rr = ORACLE_COUPLINGS.len();
        let mut nets: Vec<PhaseNetwork> = ORACLE_COUPLINGS
            .iter()
            .map(|&k| {
                let lane = LaneConfig::default().with_coupling_strength(k);
                lane_network(&base.build_network(&g), &lane)
            })
            .collect();
        let mut kernel = E::compile(&base.build_network(&g), Some(&nets), dt, rr);
        kernel.enable_all_edges();
        let mut rng = StdRng::seed_from_u64(2025);
        let mut phases: Vec<E::Phase> = (0..n * rr)
            .map(|_| E::from_radians(rng.gen::<f64>() * TAU))
            .collect();
        let groups: Vec<usize> = (0..n * rr)
            .map(|_| usize::from(rng.gen::<bool>()))
            .collect();
        for (e, u, v) in g.edges() {
            for (r, net) in nets.iter_mut().enumerate() {
                if groups[u.index() * rr + r] != groups[v.index() * rr + r] {
                    kernel.set_edge_enabled(e.index(), r, false);
                    net.set_edge_enabled(e.index(), false);
                }
            }
        }
        let mut rngs: Vec<StdRng> = (0..rr as u64).map(StdRng::seed_from_u64).collect();
        let mut arena = BatchArena::new();
        let (integrator, _, _) = E::buffers(&mut arena);
        // One step per call: the window is always `[0, dt]`, so both
        // integrators take exactly one full step.
        let step = Window {
            stage: 2,
            kind: WindowKind::Anneal,
            t_start: 0.0,
            duration: dt,
        };
        let energies = |phases: &[E::Phase], nets: &[PhaseNetwork]| -> Vec<f64> {
            (0..rr)
                .map(|r| {
                    let lane: Vec<f64> =
                        (0..n).map(|i| E::to_radians(phases[i * rr + r])).collect();
                    nets[r].energy(&lane)
                })
                .collect()
        };
        let mut worst_rise = f64::NEG_INFINITY;
        for lock in [false, true] {
            kernel.set_couplings_enabled(true);
            kernel.set_shil_enabled(lock);
            for (r, net) in nets.iter_mut().enumerate() {
                net.set_couplings_enabled(true);
                net.set_shil_enabled(lock);
                for i in 0..n {
                    let group = groups[i * rr + r];
                    let shil = Shil::order2(stage_shil_phase(group, 2), base.shil_strength);
                    kernel.set_shil(i, r, Some(shil));
                    net.set_shil_node(i, Some(shil));
                }
            }
            let window = if lock { base.t_lock } else { base.t_anneal };
            let mut prev = energies(&phases, &nets);
            for _ in 0..(window / dt).round() as usize {
                kernel.integrate(integrator, &mut phases, &step, dt, &mut rngs, None);
                let next = energies(&phases, &nets);
                for (a, b) in prev.iter().zip(&next) {
                    worst_rise = worst_rise.max(b - a);
                }
                prev = next;
            }
        }
        worst_rise
    }

    #[test]
    fn f64_engine_energy_descends_without_noise() {
        let rise = max_energy_rise::<BatchKernel>(1e-2);
        assert!(rise <= 1e-12, "f64 lane energy rose by {rise} in one step");
    }

    #[test]
    fn fx_engine_energy_descends_within_quantisation_slack() {
        let dt = 1e-2;
        let rise = max_energy_rise::<FxBatchKernel>(dt);
        // The oracle graph is the 4×4 King's graph: 16 nodes of degree
        // at most 8, each feeling at most 8 coupling terms plus one
        // SHIL torque.
        let (nodes, terms) = (16.0, 9.0);
        let k_max = ORACLE_COUPLINGS.iter().copied().fold(0.0, f64::max);
        let ks = MsropmConfig::paper_default().shil_strength;
        // |∂E/∂θ_i| ≤ Σ_j |K_ij| + Ks.
        let max_gradient = 8.0 * k_max + ks;
        // One Q0.32 turn count in radians, and the largest single-term
        // per-step increment in counts.
        let count = TAU / 4_294_967_296.0;
        let max_term_counts = dt * k_max.max(ks) / count;
        // Per term and step, the fixed-point increment differs from the
        // exact Euler increment by at most 0.5 count of gain
        // quantization, 1 count of `>> 30` truncation and 0.5 count of
        // SHIL phase rounding, plus the LUT sine error on the term's
        // full increment. The energy moves by at most the gradient
        // times each node's increment error.
        let per_term = 2.0 + fxkernel::QSIN_MAX_ERR * max_term_counts;
        let slack = nodes * max_gradient * terms * per_term * count + 1e-12;
        assert!(
            rise <= slack,
            "fx lane energy rose by {rise} in one step (slack {slack})"
        );
    }
}
