//! Machine configuration: dynamics parameters and stage timings.

use msropm_graph::Graph;
use msropm_osc::PhaseNetwork;
use rand::Rng;

/// How oscillator phases are (re-)randomized at startup and between stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReinitMode {
    /// Draw fresh uniform phases instantly (idealized; fast to simulate).
    UniformRandom,
    /// Keep current phases and let jitter of the given amplitude
    /// (rad/√ns) drift them apart for the init window — the paper's
    /// physical mechanism ("set free ... to randomly drift apart from each
    /// other through jitter", §4).
    JitterDrift {
        /// Noise amplitude during the drift window.
        sigma: f64,
    },
}

/// Which numeric stack integrates the phase dynamics.
///
/// Both backends implement the same gather → sin → scatter
/// `drift_into` contract and consume the same per-lane ziggurat
/// deviate streams, so a lane's seed means the same thing under
/// either; they differ in arithmetic:
///
/// - [`KernelBackend::F64`] runs the IEEE-double kernels
///   ([`msropm_osc::BatchKernel`]) — the reference-precision path every
///   property test is anchored to.
/// - [`KernelBackend::Fixed`] runs the fixed-point kernels
///   ([`msropm_osc::FxBatchKernel`]): phases as wrapping `i32` binary
///   turns, rates quantized to per-step turn counts at kernel build,
///   sine from a quarter-wave integer LUT — the hardware-faithful
///   ASIC-emulation model and the fastest RHS path (integer lanes
///   auto-vectorize wider than f64).
///
/// The backend is part of the problem identity: it enters the
/// [`ProblemCache`](crate::ProblemCache) fingerprint, so cached
/// machines are never shared across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// IEEE `f64` kernels (reference precision; the default).
    #[default]
    F64,
    /// Q-format integer kernels (binary-turn phases, LUT sine).
    Fixed,
}

impl KernelBackend {
    /// Parses the CLI/wire spelling (`"f64"` or `"fixed"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "f64" => Some(KernelBackend::F64),
            "fixed" => Some(KernelBackend::Fixed),
            _ => None,
        }
    }

    /// The canonical CLI/wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::F64 => "f64",
            KernelBackend::Fixed => "fixed",
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest color count: colors are `u16` group ids, so at most 16
/// stages.
const MAX_COLORS: usize = 1 << 16;

/// Cap on the integration steps one job's schedule may take (see
/// [`MsropmConfig::check`]). The paper default takes 6 000; without a
/// cap a config such as `t_init = 1e6, dt = 1e-12` asks for ~10^18
/// steps and pins a worker for good.
pub const MAX_STEPS_PER_JOB: u64 = 1 << 20;

/// Why an [`MsropmConfig`] cannot run (see [`MsropmConfig::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_colors` is not a power of two in `[2, 65536]`.
    NumColors,
    /// The coupling strength is negative or not finite.
    Coupling,
    /// The SHIL strength is negative or not finite.
    ShilStrength,
    /// The annealing noise amplitude is negative or not finite.
    Noise,
    /// The frequency spread is negative or not finite.
    FrequencySpread,
    /// The jitter-drift re-init σ is negative or not finite.
    ReinitSigma,
    /// A window duration is negative or not finite.
    Duration,
    /// `dt` is not positive and finite.
    Step,
    /// The schedule takes more than [`MAX_STEPS_PER_JOB`] integration
    /// steps.
    TooManySteps,
}

impl ConfigError {
    /// A static description of the violated rule.
    pub fn reason(self) -> &'static str {
        match self {
            ConfigError::NumColors => "num_colors must be a power of two in [2, 65536]",
            ConfigError::Coupling => "coupling must be >= 0 and finite",
            ConfigError::ShilStrength => "SHIL strength must be >= 0 and finite",
            ConfigError::Noise => "noise must be >= 0 and finite",
            ConfigError::FrequencySpread => "frequency spread must be >= 0 and finite",
            ConfigError::ReinitSigma => "reinit sigma must be >= 0 and finite",
            ConfigError::Duration => "window durations must be >= 0 and finite",
            ConfigError::Step => "dt must be positive and finite",
            ConfigError::TooManySteps => {
                "schedule exceeds 2^20 integration steps (sum of ceil(window / dt))"
            }
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of an [`crate::Msropm`] machine.
///
/// Defaults ([`MsropmConfig::paper_default`]) follow the paper's §4.1
/// schedule: 5 ns randomization, 20 ns coupled annealing and 5 ns SHIL
/// stabilization per stage — 60 ns total for 4-coloring. Dynamics
/// parameters (coupling, SHIL strength, noise) are the simulation-side
/// tuning knobs the paper describes qualitatively in §2.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsropmConfig {
    /// Number of colors; must be a power of two ≥ 2 (`2^k` ⇒ `k` stages).
    pub num_colors: usize,
    /// Coupling magnitude `K_c` (rad/ns), applied with B2B (negative) sign.
    pub coupling_strength: f64,
    /// SHIL injection strength `Ks` (rad/ns).
    pub shil_strength: f64,
    /// Annealing phase-noise amplitude (rad/√ns).
    pub noise: f64,
    /// Std-dev of per-oscillator free-running frequency offsets (rad/ns).
    pub frequency_spread: f64,
    /// Randomization window at startup and between stages (ns). Paper: 5.
    pub t_init: f64,
    /// Coupled self-annealing window per stage (ns). Paper: 20.
    pub t_anneal: f64,
    /// SHIL stabilization + readout window per stage (ns). Paper: 5.
    pub t_lock: f64,
    /// Integration step (ns).
    pub dt: f64,
    /// How phases are re-randomized.
    pub reinit: ReinitMode,
    /// If `true`, SHIL strength ramps linearly from 0 to `shil_strength`
    /// across each lock window instead of switching on abruptly — the OIM
    /// annealing refinement (beyond-paper knob; the paper's Fig. 3 gates
    /// SHIL hard, which is the default here).
    pub shil_ramp: bool,
    /// Numeric kernel stack: IEEE `f64` (default) or Q-format fixed
    /// point (see [`KernelBackend`]).
    pub backend: KernelBackend,
}

impl MsropmConfig {
    /// The paper's configuration: 4 colors, 5/20/5 ns windows, and dynamics
    /// constants tuned (as in the paper, "empirically") so that the
    /// accuracy bands of Fig. 5/Table 1 are reproduced.
    pub fn paper_default() -> Self {
        MsropmConfig {
            num_colors: 4,
            coupling_strength: 1.0,
            shil_strength: 2.5,
            noise: 0.18,
            frequency_spread: 0.02,
            t_init: 5.0,
            t_anneal: 20.0,
            t_lock: 5.0,
            dt: 0.01,
            reinit: ReinitMode::JitterDrift { sigma: 1.5 },
            shil_ramp: false,
            backend: KernelBackend::F64,
        }
    }

    /// Returns a copy with a different kernel backend.
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy with the SHIL-strength ramp enabled/disabled.
    pub fn with_shil_ramp(mut self, ramp: bool) -> Self {
        self.shil_ramp = ramp;
        self
    }

    /// Number of solution stages (`log2(num_colors)`).
    ///
    /// # Panics
    ///
    /// Panics if `num_colors` is not a power of two ≥ 2.
    pub fn num_stages(&self) -> usize {
        self.validate();
        self.num_colors.trailing_zeros() as usize
    }

    /// Total schedule duration in ns: `stages × (t_init + t_anneal + t_lock)`.
    /// With paper defaults and 4 colors: 60 ns, matching §4.1.
    pub fn total_time_ns(&self) -> f64 {
        self.num_stages() as f64 * (self.t_init + self.t_anneal + self.t_lock)
    }

    /// Checks that the configuration can run, and run in bounded time:
    /// `num_colors` a power of two in `[2, 65536]`, every strength,
    /// noise amplitude, spread and duration finite and non-negative,
    /// `dt` finite and positive, and at most [`MAX_STEPS_PER_JOB`]
    /// integration steps in the whole schedule (Σ over stages and
    /// windows of `ceil(window / dt)`). Codecs call this on every
    /// config they accept from outside the process.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn check(&self) -> Result<(), ConfigError> {
        let magnitude = |x: f64, err: ConfigError| {
            if x.is_finite() && x >= 0.0 {
                Ok(())
            } else {
                Err(err)
            }
        };
        if !(2..=MAX_COLORS).contains(&self.num_colors) || !self.num_colors.is_power_of_two() {
            return Err(ConfigError::NumColors);
        }
        magnitude(self.coupling_strength, ConfigError::Coupling)?;
        magnitude(self.shil_strength, ConfigError::ShilStrength)?;
        magnitude(self.noise, ConfigError::Noise)?;
        magnitude(self.frequency_spread, ConfigError::FrequencySpread)?;
        if let ReinitMode::JitterDrift { sigma } = self.reinit {
            magnitude(sigma, ConfigError::ReinitSigma)?;
        }
        let windows = [self.t_init, self.t_anneal, self.t_lock];
        for t in windows {
            magnitude(t, ConfigError::Duration)?;
        }
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(ConfigError::Step);
        }
        let steps_per_stage: f64 = windows.iter().map(|t| (t / self.dt).ceil()).sum();
        let stages = f64::from(self.num_colors.trailing_zeros());
        if stages * steps_per_stage > MAX_STEPS_PER_JOB as f64 {
            return Err(ConfigError::TooManySteps);
        }
        Ok(())
    }

    /// Checks internal consistency (see [`MsropmConfig::check`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if `check` fails.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Returns a copy with a different color count.
    pub fn with_num_colors(mut self, num_colors: usize) -> Self {
        self.num_colors = num_colors;
        self.validate();
        self
    }

    /// Returns a copy with a different coupling strength.
    pub fn with_coupling_strength(mut self, k: f64) -> Self {
        self.coupling_strength = k;
        self
    }

    /// Returns a copy with a different SHIL strength.
    pub fn with_shil_strength(mut self, ks: f64) -> Self {
        self.shil_strength = ks;
        self
    }

    /// Returns a copy with a different annealing noise amplitude.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise = sigma;
        self
    }

    /// Maps this config onto `g`'s base oscillator network, with no
    /// frequency spread. The single construction recipe shared by
    /// `Msropm::new` and the batched experiment runner, so the two can
    /// never drift apart.
    pub(crate) fn build_network(&self, g: &Graph) -> PhaseNetwork {
        PhaseNetwork::builder(g)
            .coupling_strength(self.coupling_strength)
            .noise(self.noise)
            .build()
    }

    /// Like [`MsropmConfig::build_network`] but samples per-oscillator
    /// frequency offsets (process variation) from `rng` — the recipe
    /// behind `Msropm::with_frequency_spread` and the sequential runner.
    pub(crate) fn build_network_with_spread<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        rng: &mut R,
    ) -> PhaseNetwork {
        PhaseNetwork::builder(g)
            .coupling_strength(self.coupling_strength)
            .noise(self.noise)
            .frequency_spread(self.frequency_spread)
            .build_with_spread(rng)
    }
}

impl Default for MsropmConfig {
    fn default() -> Self {
        MsropmConfig::paper_default()
    }
}

/// Per-replica ("lane") overrides of a base [`MsropmConfig`].
///
/// The batch engine runs `M` replicas through one lockstep schedule; a
/// `LaneConfig` describes how one of those replicas deviates from the
/// shared base — the parameters the paper tunes empirically (coupling
/// `K_c`, SHIL strength `K_s`, annealing noise σ, the OIM SHIL ramp and
/// the inter-stage re-randomization) can all differ per lane, while the
/// *timing* fields (`num_colors`, window durations, `dt`) stay global so
/// every lane shares the window boundaries and step grid.
///
/// `LaneConfig::default()` overrides nothing: a batch of default lanes
/// is exactly the homogeneous batch (bit-identical, property-tested in
/// `tests/lane_equivalence.rs`).
///
/// One caveat for heterogeneous *re-init modes*: a batch mixing
/// [`ReinitMode::UniformRandom`] and [`ReinitMode::JitterDrift`] lanes
/// is supported and each lane still reproduces its standalone run bit
/// for bit — jitter lanes draw one deviate per oscillator per drift
/// step, uniform lanes draw nothing until their end-of-window phase
/// redraw, exactly as their solo counterparts do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneConfig {
    /// Override of [`MsropmConfig::coupling_strength`] (`K_c`).
    pub coupling_strength: Option<f64>,
    /// Override of [`MsropmConfig::shil_strength`] (`K_s`).
    pub shil_strength: Option<f64>,
    /// Override of [`MsropmConfig::noise`] (annealing σ).
    pub noise: Option<f64>,
    /// Override of [`MsropmConfig::shil_ramp`].
    pub shil_ramp: Option<bool>,
    /// Override of [`MsropmConfig::reinit`].
    pub reinit: Option<ReinitMode>,
    /// Override of [`MsropmConfig::backend`]. The batch engine runs one
    /// numeric stack per solve, so every lane of a batch must resolve
    /// to the **same** backend (mixed batches are rejected at prepare
    /// time); the override exists so sweep tooling can retarget a whole
    /// lane set without touching the base config.
    pub backend: Option<KernelBackend>,
}

impl LaneConfig {
    /// Returns a copy overriding the coupling strength.
    pub fn with_coupling_strength(mut self, k: f64) -> Self {
        self.coupling_strength = Some(k);
        self
    }

    /// Returns a copy overriding the SHIL strength.
    pub fn with_shil_strength(mut self, ks: f64) -> Self {
        self.shil_strength = Some(ks);
        self
    }

    /// Returns a copy overriding the annealing noise amplitude.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise = Some(sigma);
        self
    }

    /// Returns a copy overriding the SHIL-ramp flag.
    pub fn with_shil_ramp(mut self, ramp: bool) -> Self {
        self.shil_ramp = Some(ramp);
        self
    }

    /// Returns a copy overriding the re-randomization mode.
    pub fn with_reinit(mut self, reinit: ReinitMode) -> Self {
        self.reinit = Some(reinit);
        self
    }

    /// Returns a copy overriding the kernel backend (must agree across
    /// every lane of a batch).
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// `true` if this lane overrides nothing (runs the base config).
    pub fn is_default(&self) -> bool {
        *self == LaneConfig::default()
    }

    /// Applies the overrides to `base`, yielding the lane's effective
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the resolved configuration is inconsistent (see
    /// [`MsropmConfig::validate`]).
    pub fn resolve(&self, base: &MsropmConfig) -> MsropmConfig {
        let cfg = MsropmConfig {
            coupling_strength: self.coupling_strength.unwrap_or(base.coupling_strength),
            shil_strength: self.shil_strength.unwrap_or(base.shil_strength),
            noise: self.noise.unwrap_or(base.noise),
            shil_ramp: self.shil_ramp.unwrap_or(base.shil_ramp),
            reinit: self.reinit.unwrap_or(base.reinit),
            backend: self.backend.unwrap_or(base.backend),
            ..*base
        };
        cfg.validate();
        cfg
    }
}

/// A parameter axis a [`SweepSpec`] can vary across lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepParam {
    /// Coupling magnitude `K_c`.
    CouplingStrength,
    /// SHIL injection strength `K_s`.
    ShilStrength,
    /// Annealing noise amplitude σ.
    Noise,
    /// Jitter amplitude of the inter-stage drift window
    /// ([`ReinitMode::JitterDrift`]'s `sigma`).
    ReinitSigma,
}

/// A declarative multi-axis parameter sweep that expands into per-lane
/// overrides — the batch-engine analog of the per-run parameter
/// registers ASIC-emulated OIM/OPM machines expose.
///
/// Axes combine as a cartesian grid (later axes vary fastest); each
/// grid point becomes one [`LaneConfig`]. Values come from explicit
/// grids ([`SweepSpec::grid`]), linear ranges ([`SweepSpec::linspace`])
/// or log-spaced ranges ([`SweepSpec::logspace`] — the natural spacing
/// for coupling/noise operating-point searches).
///
/// ```
/// use msropm_core::{SweepParam, SweepSpec};
///
/// let lanes = SweepSpec::new()
///     .logspace(SweepParam::CouplingStrength, 0.5, 2.0, 4)
///     .linspace(SweepParam::Noise, 0.1, 0.3, 4)
///     .lanes();
/// assert_eq!(lanes.len(), 16);
/// assert_eq!(lanes[0].coupling_strength, Some(0.5));
/// assert_eq!(lanes[15].coupling_strength, Some(2.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    axes: Vec<(SweepParam, Vec<f64>)>,
}

impl SweepSpec {
    /// An empty sweep (expands to one all-default lane).
    pub fn new() -> Self {
        SweepSpec::default()
    }

    /// Adds an axis with an explicit value grid.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, contains a non-finite or negative
    /// value, or the axis was already added.
    pub fn grid(mut self, param: SweepParam, values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "sweep axis needs at least one value");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "sweep values must be finite and non-negative"
        );
        assert!(
            self.axes.iter().all(|(p, _)| *p != param),
            "sweep axis {param:?} added twice"
        );
        self.axes.push((param, values));
        self
    }

    /// Adds an axis of `count` linearly spaced values over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `lo > hi`, or the bounds are invalid for
    /// [`SweepSpec::grid`].
    pub fn linspace(self, param: SweepParam, lo: f64, hi: f64, count: usize) -> Self {
        assert!(count > 0, "need at least one sweep value");
        assert!(lo <= hi, "linspace bounds out of order");
        let values = if count == 1 {
            vec![lo]
        } else {
            (0..count)
                .map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64)
                .collect()
        };
        self.grid(param, values)
    }

    /// Adds an axis of `count` log-spaced values over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `lo <= 0`, or `lo > hi`.
    pub fn logspace(self, param: SweepParam, lo: f64, hi: f64, count: usize) -> Self {
        assert!(count > 0, "need at least one sweep value");
        assert!(lo > 0.0, "logspace needs positive bounds");
        assert!(lo <= hi, "logspace bounds out of order");
        let (llo, lhi) = (lo.ln(), hi.ln());
        let values = if count == 1 {
            vec![lo]
        } else {
            (0..count)
                .map(|i| (llo + (lhi - llo) * i as f64 / (count - 1) as f64).exp())
                .collect()
        };
        self.grid(param, values)
    }

    /// Number of lanes the sweep expands to (product of axis lengths).
    pub fn num_lanes(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Expands the cartesian grid into per-lane overrides, later axes
    /// varying fastest.
    pub fn lanes(&self) -> Vec<LaneConfig> {
        let mut lanes = vec![LaneConfig::default()];
        for (param, values) in &self.axes {
            let mut next = Vec::with_capacity(lanes.len() * values.len());
            for lane in &lanes {
                for &v in values {
                    let mut lane = *lane;
                    match param {
                        SweepParam::CouplingStrength => lane.coupling_strength = Some(v),
                        SweepParam::ShilStrength => lane.shil_strength = Some(v),
                        SweepParam::Noise => lane.noise = Some(v),
                        SweepParam::ReinitSigma => {
                            lane.reinit = Some(ReinitMode::JitterDrift { sigma: v });
                        }
                    }
                    next.push(lane);
                }
            }
            lanes = next;
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_is_60ns() {
        let c = MsropmConfig::paper_default();
        assert_eq!(c.num_stages(), 2);
        assert!((c.total_time_ns() - 60.0).abs() < 1e-12, "paper sec 4.1");
    }

    #[test]
    fn check_bounds_the_work_of_a_schedule() {
        // The paper default: 2 stages × (500 + 2000 + 500) = 6 000 steps.
        let paper = MsropmConfig::paper_default();
        assert_eq!(paper.check(), Ok(()));
        let at_cap = MsropmConfig {
            t_init: 0.0,
            t_anneal: (MAX_STEPS_PER_JOB / 2) as f64,
            t_lock: 0.0,
            dt: 1.0,
            ..paper
        };
        assert_eq!(at_cap.check(), Ok(()));
        let over = MsropmConfig {
            t_anneal: at_cap.t_anneal + 1.0,
            ..at_cap
        };
        assert_eq!(over.check(), Err(ConfigError::TooManySteps));
        // The ~1e18-step request that used to pin a worker.
        let hostile = MsropmConfig {
            t_init: 1e6,
            dt: 1e-12,
            ..paper
        };
        assert_eq!(hostile.check(), Err(ConfigError::TooManySteps));
        let cases = [
            (
                MsropmConfig {
                    t_lock: f64::INFINITY,
                    ..paper
                },
                ConfigError::Duration,
            ),
            (
                MsropmConfig {
                    t_init: f64::NAN,
                    ..paper
                },
                ConfigError::Duration,
            ),
            (MsropmConfig { dt: 0.0, ..paper }, ConfigError::Step),
            (
                MsropmConfig {
                    noise: f64::INFINITY,
                    ..paper
                },
                ConfigError::Noise,
            ),
            (
                MsropmConfig {
                    num_colors: 1 << 17,
                    ..paper
                },
                ConfigError::NumColors,
            ),
            (
                MsropmConfig {
                    reinit: ReinitMode::JitterDrift { sigma: -1.0 },
                    ..paper
                },
                ConfigError::ReinitSigma,
            ),
        ];
        for (config, err) in cases {
            assert_eq!(config.check(), Err(err), "{config:?}");
        }
    }

    #[test]
    fn stage_count_scales_with_colors() {
        let c = MsropmConfig::paper_default();
        assert_eq!(c.with_num_colors(2).num_stages(), 1);
        assert_eq!(c.with_num_colors(8).num_stages(), 3);
        assert_eq!(c.with_num_colors(16).num_stages(), 4);
        // 8 colors -> 90 ns with paper windows.
        assert!((c.with_num_colors(8).total_time_ns() - 90.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_color_count_rejected() {
        MsropmConfig::paper_default().with_num_colors(3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn one_color_rejected() {
        MsropmConfig::paper_default().with_num_colors(1);
    }

    #[test]
    fn builder_style_overrides() {
        let c = MsropmConfig::paper_default()
            .with_coupling_strength(0.5)
            .with_shil_strength(1.0)
            .with_noise(0.0);
        assert_eq!(c.coupling_strength, 0.5);
        assert_eq!(c.shil_strength, 1.0);
        assert_eq!(c.noise, 0.0);
        c.validate();
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(MsropmConfig::default(), MsropmConfig::paper_default());
    }

    #[test]
    fn default_lane_resolves_to_base() {
        let base = MsropmConfig::paper_default();
        assert!(LaneConfig::default().is_default());
        assert_eq!(LaneConfig::default().resolve(&base), base);
    }

    #[test]
    fn lane_overrides_apply_only_what_they_name() {
        let base = MsropmConfig::paper_default();
        let lane = LaneConfig::default()
            .with_coupling_strength(0.7)
            .with_noise(0.05)
            .with_shil_ramp(true);
        assert!(!lane.is_default());
        let cfg = lane.resolve(&base);
        assert_eq!(cfg.coupling_strength, 0.7);
        assert_eq!(cfg.noise, 0.05);
        assert!(cfg.shil_ramp);
        // Untouched fields stay at base values.
        assert_eq!(cfg.shil_strength, base.shil_strength);
        assert_eq!(cfg.reinit, base.reinit);
        assert_eq!(cfg.num_colors, base.num_colors);
        assert_eq!(cfg.dt, base.dt);
    }

    #[test]
    #[should_panic(expected = "coupling must be >= 0")]
    fn lane_resolution_validates() {
        LaneConfig::default()
            .with_coupling_strength(-1.0)
            .resolve(&MsropmConfig::paper_default());
    }

    #[test]
    fn sweep_grid_is_cartesian_later_axes_fastest() {
        let lanes = SweepSpec::new()
            .grid(SweepParam::CouplingStrength, vec![1.0, 2.0])
            .grid(SweepParam::Noise, vec![0.1, 0.2, 0.3])
            .lanes();
        assert_eq!(lanes.len(), 6);
        assert_eq!(lanes[0].coupling_strength, Some(1.0));
        assert_eq!(lanes[0].noise, Some(0.1));
        assert_eq!(lanes[2].noise, Some(0.3));
        assert_eq!(lanes[3].coupling_strength, Some(2.0));
        assert_eq!(lanes[3].noise, Some(0.1));
        // Axes not swept stay un-overridden.
        assert!(lanes.iter().all(|l| l.shil_strength.is_none()));
    }

    #[test]
    fn sweep_spacings() {
        let spec = SweepSpec::new()
            .linspace(SweepParam::ShilStrength, 1.0, 3.0, 5)
            .logspace(SweepParam::CouplingStrength, 0.25, 4.0, 5);
        assert_eq!(spec.num_lanes(), 25);
        let lanes = spec.lanes();
        // linspace endpoints and midpoint.
        assert_eq!(lanes[0].shil_strength, Some(1.0));
        assert_eq!(lanes[24].shil_strength, Some(3.0));
        assert_eq!(lanes[10].shil_strength, Some(2.0));
        // logspace endpoints exact-ish, midpoint = geometric mean.
        let ks: Vec<f64> = lanes[..5]
            .iter()
            .map(|l| l.coupling_strength.unwrap())
            .collect();
        assert!((ks[0] - 0.25).abs() < 1e-12);
        assert!((ks[4] - 4.0).abs() < 1e-12);
        assert!((ks[2] - 1.0).abs() < 1e-12);
        assert!(ks.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn reinit_sigma_sweep_sets_jitter_mode() {
        let lanes = SweepSpec::new()
            .grid(SweepParam::ReinitSigma, vec![0.5, 1.5])
            .lanes();
        assert_eq!(
            lanes[0].reinit,
            Some(ReinitMode::JitterDrift { sigma: 0.5 })
        );
        assert_eq!(
            lanes[1].reinit,
            Some(ReinitMode::JitterDrift { sigma: 1.5 })
        );
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_sweep_axis_rejected() {
        let _ = SweepSpec::new()
            .grid(SweepParam::Noise, vec![0.1])
            .grid(SweepParam::Noise, vec![0.2]);
    }

    #[test]
    fn empty_sweep_is_one_default_lane() {
        let lanes = SweepSpec::new().lanes();
        assert_eq!(lanes.len(), 1);
        assert!(lanes[0].is_default());
    }
}
