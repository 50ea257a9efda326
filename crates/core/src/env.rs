//! Experiment environment: the simulated testbed every run executes against.
//!
//! Construct environments through [`ExperimentEnvBuilder`], the one place
//! every environment invariant is checked; [`ExperimentEnv::distributed`]
//! and [`ExperimentEnv::single_node`] are its (already valid) presets.
//! Every field is public, so a variant of a valid environment is struct
//! update syntax, re-validated with [`ExperimentEnvBuilder::from_env`]
//! where the change could break an invariant.

use pipetune_cluster::{ClusterSpec, CostModel, FaultPlan, SystemConfig, SystemSpace};
use pipetune_energy::PowerModel;
use pipetune_monitor::MonitorHandle;
use pipetune_perfmon::Profiler;
use pipetune_telemetry::TelemetryHandle;

use crate::cache::EpochCacheHandle;
use crate::error::PipeTuneError;

/// Bundles the simulated infrastructure (§7.1.1): cluster inventory, cost
/// model, power model, PMU, system-parameter grid, default trial
/// configuration and trial parallelism.
#[derive(Debug, Clone)]
pub struct ExperimentEnv {
    /// Node inventory.
    pub cluster: ClusterSpec,
    /// Epoch-duration model.
    pub cost: CostModel,
    /// Node power model.
    pub power: PowerModel,
    /// Simulated PMU.
    pub profiler: Profiler,
    /// System-parameter grid PipeTune probes.
    pub system_space: SystemSpace,
    /// System configuration trials run with before tuning (and always, for
    /// Tune V1).
    pub default_system: SystemConfig,
    /// Trials that can run concurrently (the paper spawns trials across the
    /// cluster asynchronously). This is the *simulated* slot count that
    /// shapes wall-clock accounting; real executor threads are governed by
    /// [`ExperimentEnv::workers`].
    pub parallel_slots: usize,
    /// Executor threads that really train trials concurrently. Defaults to
    /// the machine's available parallelism; results are identical for every
    /// value (see `docs/determinism.md`), so this only trades wall-clock
    /// time for CPU.
    pub workers: usize,
    /// Relative wall-clock overhead profiling adds to a profiled epoch
    /// (§7.3 reports it as small; the profiling-overhead ablation sweeps it).
    pub profile_overhead: f64,
    /// Deterministic fault schedule (node crashes, stragglers, counter-read
    /// failures, preemptions). Empty by default; runs under the empty plan
    /// are bit-identical to runs without fault injection.
    pub fault_plan: FaultPlan,
    /// Profile through the 1 Hz sampling pipeline (counter multiplexing,
    /// blind spots on short epochs) instead of the closed-form epoch
    /// average. Off by default; the sampling extension turns it on.
    pub sampled_profiling: bool,
    /// Structured observability (spans, events, metrics). Disabled by
    /// default — a disabled handle is a no-op at every instrumentation
    /// site and leaves all run results bit-identical to uninstrumented
    /// builds. Enable with [`ExperimentEnvBuilder::telemetry`]; exported
    /// traces are byte-identical for every [`ExperimentEnv::workers`]
    /// count (see `docs/telemetry.md`).
    pub telemetry: TelemetryHandle,
    /// Online monitoring (see `docs/monitoring.md`). Disabled by default —
    /// a disabled handle is a no-op at every scan site. Enable with
    /// [`ExperimentEnvBuilder::monitor`]; the runner then feeds the
    /// telemetry stream through the configured detectors incrementally,
    /// after every scheduler round, and the resulting incident timeline
    /// is byte-identical for every [`ExperimentEnv::workers`] count.
    pub monitor: MonitorHandle,
    /// Cross-trial epoch-reuse cache (see `docs/reuse.md`). Disabled by
    /// default — a disabled handle bypasses every lookup/insert site and
    /// leaves run results bit-identical to cache-free builds. Enable with
    /// [`ExperimentEnvBuilder::epoch_cache`]; with the cache on, results are
    /// byte-identical for every [`ExperimentEnv::workers`] count.
    pub epoch_cache: crate::cache::EpochCacheHandle,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
}

impl ExperimentEnv {
    /// The distributed Type-I/II testbed: 4 nodes, default 4-core/4-GiB
    /// trial slots, paper system grid.
    pub fn distributed(seed: u64) -> Self {
        ExperimentEnv {
            cluster: ClusterSpec::paper_distributed(),
            cost: CostModel::default(),
            power: PowerModel::default(),
            profiler: Profiler::default(),
            system_space: SystemSpace::default(),
            default_system: SystemConfig::new(8, 32),
            parallel_slots: 4,
            workers: default_workers(),
            fault_plan: FaultPlan::none(),
            profile_overhead: 0.02,
            sampled_profiling: false,
            telemetry: TelemetryHandle::disabled(),
            monitor: MonitorHandle::disabled(),
            epoch_cache: crate::cache::EpochCacheHandle::disabled(),
            seed,
        }
    }

    /// The single-node Type-III testbed (one 8-core/24-GiB node, smaller
    /// grid, 2 concurrent trials).
    pub fn single_node(seed: u64) -> Self {
        ExperimentEnv {
            cluster: ClusterSpec::paper_single_node(),
            system_space: SystemSpace {
                cores: vec![2, 4, 8],
                memory_gb: vec![4, 8, 16],
                freq_mhz: vec![SystemConfig::NOMINAL_FREQ_MHZ],
            },
            default_system: SystemConfig::new(4, 8),
            parallel_slots: 2,
            ..ExperimentEnv::distributed(seed)
        }
    }

    /// Whole-cluster power draw while one trial runs on `cores` busy cores
    /// — the quantity the paper's PDU measures (every node idles at its
    /// floor regardless of where the trial is placed).
    pub fn trial_power_watts(&self, cores: u32) -> f64 {
        let idle_floor = self.power.idle_watts * self.cluster.nodes.len() as f64;
        idle_floor + (self.power.power_watts(cores, 1.0) - self.power.idle_watts)
    }

    /// Frequency-aware variant of [`ExperimentEnv::trial_power_watts`]:
    /// dynamic power follows the DVFS cubic law.
    pub(crate) fn trial_power(&self, sys: &SystemConfig) -> f64 {
        let idle_floor = self.power.idle_watts * self.cluster.nodes.len() as f64;
        idle_floor
            + (self.power.power_watts_at_freq(sys.cores, 1.0, sys.freq_ratio())
                - self.power.idle_watts)
    }

    /// Derives a sub-seed for a named component, decorrelated from others.
    pub fn subseed(&self, tag: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tag).rotate_left(17)
    }
}

/// Executor threads to use when the caller does not pin a count.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Validating builder for [`ExperimentEnv`]: the single place every
/// environment invariant is checked.
///
/// It records exactly what the caller asked for and rejects contradictions
/// in [`ExperimentEnvBuilder::build`] with [`PipeTuneError::InvalidConfig`] — a
/// bad configuration is an error, never silently repaired.
///
/// ```
/// use pipetune::prelude::*;
///
/// let env = ExperimentEnvBuilder::distributed(42)
///     .workers(1)
///     .parallel_slots(2)
///     .build()?;
/// assert_eq!((env.workers, env.parallel_slots), (1, 2));
///
/// let err = ExperimentEnvBuilder::distributed(42).workers(0).build();
/// assert!(err.is_err());
/// # Ok::<(), pipetune::PipeTuneError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentEnvBuilder {
    env: ExperimentEnv,
}

impl ExperimentEnvBuilder {
    /// Starts from the distributed Type-I/II testbed preset
    /// (see [`ExperimentEnv::distributed`]).
    pub fn distributed(seed: u64) -> Self {
        ExperimentEnvBuilder { env: ExperimentEnv::distributed(seed) }
    }

    /// Starts from the single-node Type-III testbed preset
    /// (see [`ExperimentEnv::single_node`]).
    pub fn single_node(seed: u64) -> Self {
        ExperimentEnvBuilder { env: ExperimentEnv::single_node(seed) }
    }

    /// Starts from an existing environment (e.g. to re-validate or derive a
    /// variant of one).
    pub fn from_env(env: ExperimentEnv) -> Self {
        ExperimentEnvBuilder { env }
    }

    /// Requests exactly `workers` real executor threads (e.g. `workers(1)`
    /// for a strictly sequential run; the replay-equivalence tests compare
    /// it to multi-worker runs byte for byte). `0` is rejected by
    /// [`ExperimentEnvBuilder::build`].
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.env.workers = workers;
        self
    }

    /// Requests `slots` simulated concurrent-trial slots. `0` is rejected
    /// by [`ExperimentEnvBuilder::build`].
    #[must_use]
    pub fn parallel_slots(mut self, slots: usize) -> Self {
        self.env.parallel_slots = slots;
        self
    }

    /// Sets the relative wall-clock overhead a profiled epoch pays.
    /// Negative or non-finite values are rejected by
    /// [`ExperimentEnvBuilder::build`].
    #[must_use]
    pub fn profile_overhead(mut self, overhead: f64) -> Self {
        self.env.profile_overhead = overhead;
        self
    }

    /// Installs a deterministic fault schedule.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.env.fault_plan = plan;
        self
    }

    /// Replaces the master seed (every stochastic component re-derives
    /// from it).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.env.seed = seed;
        self
    }

    /// Routes profiling through the 1 Hz sampling pipeline.
    #[must_use]
    pub fn sampled_profiling(mut self, on: bool) -> Self {
        self.env.sampled_profiling = on;
        self
    }

    /// Replaces the default (pre-tuning) system configuration. A
    /// configuration with zero cores or memory is rejected by
    /// [`ExperimentEnvBuilder::build`].
    #[must_use]
    pub fn default_system(mut self, sys: SystemConfig) -> Self {
        self.env.default_system = sys;
        self
    }

    /// Installs a telemetry handle. Pass [`TelemetryHandle::enabled`] to
    /// record spans, events and metrics for every run executed against the
    /// environment; keep the handle (or a clone) to snapshot and export
    /// them afterwards.
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.env.telemetry = telemetry;
        self
    }

    /// Installs a monitor handle: the runner then incrementally scans the
    /// telemetry stream through the configured detectors after every
    /// scheduler round; call [`pipetune_monitor::MonitorHandle::finish`]
    /// afterwards for the incident timeline. A live monitor without a live
    /// telemetry handle to watch is rejected by
    /// [`ExperimentEnvBuilder::build`].
    #[must_use]
    pub fn monitor(mut self, monitor: MonitorHandle) -> Self {
        self.env.monitor = monitor;
        self
    }

    /// Installs an epoch-reuse cache handle. Fresh trials then resume from
    /// the deepest cached hyperparameter-prefix match instead of training
    /// from epoch 0; share one handle (or clones of it) across runs and
    /// jobs to reuse prefixes between them (see `docs/reuse.md`).
    #[must_use]
    pub fn epoch_cache(mut self, cache: EpochCacheHandle) -> Self {
        self.env.epoch_cache = cache;
        self
    }

    /// Validates every recorded setting and produces the environment.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError::InvalidConfig`] when:
    /// * `workers` is 0 — a run needs at least one executor thread;
    /// * `parallel_slots` is 0 — the scheduler needs at least one slot;
    /// * `profile_overhead` is negative or non-finite — overhead scales
    ///   epoch durations and must keep them finite and non-negative;
    /// * the default system configuration has zero cores or memory;
    /// * a `fault_plan` probability lies outside `[0, 1]` or is NaN — its
    ///   fields are public, and a draw compares against them;
    /// * an axis of `system_space` (`cores`, `memory_gb`, `freq_mhz`) is
    ///   empty — probing walks the grid, and an empty axis empties it;
    /// * a live monitor is installed without a live telemetry handle — the
    ///   monitor scans the telemetry stream, so it would silently observe
    ///   nothing.
    pub fn build(self) -> Result<ExperimentEnv, PipeTuneError> {
        let env = self.env;
        if env.workers == 0 {
            return Err(PipeTuneError::invalid("workers must be at least 1"));
        }
        if env.parallel_slots == 0 {
            return Err(PipeTuneError::invalid("parallel_slots must be at least 1"));
        }
        if !env.profile_overhead.is_finite() || env.profile_overhead < 0.0 {
            return Err(PipeTuneError::invalid(format!(
                "profile_overhead must be finite and non-negative, got {}",
                env.profile_overhead
            )));
        }
        if env.default_system.cores == 0 || env.default_system.memory_gb == 0 {
            return Err(PipeTuneError::invalid(format!(
                "default system configuration must have nonzero cores and memory, got {} cores / {} GiB",
                env.default_system.cores, env.default_system.memory_gb
            )));
        }
        let plan = &env.fault_plan;
        for (name, p) in [
            ("crash_prob", plan.crash_prob),
            ("straggler_prob", plan.straggler_prob),
            ("counter_read_prob", plan.counter_read_prob),
            ("preempt_prob", plan.preempt_prob),
            ("slot_straggler_prob", plan.slot_straggler_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(PipeTuneError::invalid(format!(
                    "fault_plan.{name} must lie in [0, 1], got {p}"
                )));
            }
        }
        let space = &env.system_space;
        for (axis, values) in [
            ("cores", &space.cores),
            ("memory_gb", &space.memory_gb),
            ("freq_mhz", &space.freq_mhz),
        ] {
            if values.is_empty() {
                return Err(PipeTuneError::invalid(format!(
                    "system_space.{axis} must list at least one value"
                )));
            }
        }
        if env.monitor.is_enabled() && !env.telemetry.is_enabled() {
            return Err(PipeTuneError::invalid(
                "a live monitor requires a live telemetry handle to watch; \
                 install one with .telemetry(TelemetryHandle::enabled())",
            ));
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbeds_match_section_7_1() {
        let d = ExperimentEnv::distributed(1);
        assert_eq!(d.cluster.nodes.len(), 4);
        assert_eq!(d.system_space.len(), 12);
        let s = ExperimentEnv::single_node(1);
        assert_eq!(s.cluster.nodes.len(), 1);
        assert!(s.system_space.len() < d.system_space.len());
    }

    #[test]
    fn trial_power_includes_cluster_idle_floor_and_dvfs() {
        let env = ExperimentEnv::distributed(3);
        let nominal = env.trial_power(&SystemConfig::new(8, 16));
        assert_eq!(nominal, env.trial_power_watts(8));
        let slow = env.trial_power(&SystemConfig {
            freq_mhz: SystemConfig::NOMINAL_FREQ_MHZ / 2,
            ..SystemConfig::new(8, 16)
        });
        assert!(slow < nominal, "down-clocking must cut power");
        let idle_floor = env.power.idle_watts * env.cluster.nodes.len() as f64;
        assert!(slow > idle_floor, "idle floor always drawn");
    }

    #[test]
    fn builder_accepts_valid_configurations() {
        let env = ExperimentEnvBuilder::distributed(9)
            .workers(3)
            .parallel_slots(2)
            .profile_overhead(0.1)
            .seed(11)
            .sampled_profiling(true)
            .build()
            .unwrap();
        assert_eq!(env.workers, 3);
        assert_eq!(env.parallel_slots, 2);
        assert_eq!(env.profile_overhead, 0.1);
        assert_eq!(env.seed, 11);
        assert!(env.sampled_profiling);
        // Presets round-trip unchanged through the builder.
        let preset = ExperimentEnv::single_node(4);
        let rebuilt = ExperimentEnvBuilder::from_env(preset.clone()).build().unwrap();
        assert_eq!(rebuilt.parallel_slots, preset.parallel_slots);
        assert_eq!(rebuilt.seed, preset.seed);
    }

    #[test]
    fn builder_rejects_each_invalid_setting() {
        let without = |empty: fn(&mut SystemSpace)| {
            let mut env = ExperimentEnv::distributed(1);
            empty(&mut env.system_space);
            ExperimentEnvBuilder::from_env(env)
        };
        let with_plan = |set: fn(&mut FaultPlan)| {
            let mut plan = FaultPlan::none();
            set(&mut plan);
            ExperimentEnvBuilder::distributed(1).fault_plan(plan)
        };
        let cases: Vec<(ExperimentEnvBuilder, &str)> = vec![
            (without(|space| space.cores.clear()), "system_space.cores"),
            (without(|space| space.memory_gb.clear()), "system_space.memory_gb"),
            (without(|space| space.freq_mhz.clear()), "system_space.freq_mhz"),
            (ExperimentEnvBuilder::distributed(1).workers(0), "workers"),
            (ExperimentEnvBuilder::distributed(1).parallel_slots(0), "parallel_slots"),
            (ExperimentEnvBuilder::distributed(1).profile_overhead(-0.5), "profile_overhead"),
            (ExperimentEnvBuilder::distributed(1).profile_overhead(f64::NAN), "profile_overhead"),
            (
                ExperimentEnvBuilder::distributed(1).profile_overhead(f64::INFINITY),
                "profile_overhead",
            ),
            (
                ExperimentEnvBuilder::distributed(1).default_system(SystemConfig::new(0, 8)),
                "default system",
            ),
            (with_plan(|p| p.crash_prob = 2.0), "fault_plan.crash_prob must lie in [0, 1], got 2"),
            (with_plan(|p| p.straggler_prob = -0.1), "fault_plan.straggler_prob"),
            (with_plan(|p| p.counter_read_prob = f64::NAN), "fault_plan.counter_read_prob"),
            (with_plan(|p| p.preempt_prob = 1.5), "fault_plan.preempt_prob"),
            (
                with_plan(|p| p.slot_straggler_prob = f64::INFINITY),
                "fault_plan.slot_straggler_prob",
            ),
            (ExperimentEnvBuilder::distributed(1).monitor(MonitorHandle::enabled()), "monitor"),
        ];
        for (builder, expect) in cases {
            let reason = builder.build().expect_err(expect).to_string();
            assert!(reason.contains(expect), "reason {reason:?} should mention {expect}");
        }
        // The monitor invariant is satisfied once telemetry is live.
        let ok = ExperimentEnvBuilder::distributed(1)
            .telemetry(TelemetryHandle::enabled())
            .monitor(MonitorHandle::enabled())
            .build()
            .unwrap();
        assert!(ok.monitor.is_enabled() && ok.telemetry.is_enabled());
    }

    #[test]
    fn subseeds_differ_by_tag_and_seed() {
        let e = ExperimentEnv::distributed(7);
        assert_ne!(e.subseed(1), e.subseed(2));
        assert_ne!(e.subseed(1), ExperimentEnv::distributed(8).subseed(1));
    }
}
