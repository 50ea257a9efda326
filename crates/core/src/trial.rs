//! Trial execution: Algorithm 1's pipelined per-epoch system tuning.
//!
//! A [`TrialExecution`] owns one live workload instance and runs it epoch by
//! epoch. Under the [`SystemTuner::Pipelined`] policy it executes the
//! paper's pipeline: profile the first epoch, consult the ground truth, and
//! either apply a known-best system configuration immediately or probe one
//! grid configuration per epoch before settling on the argmin (Algorithm 1).
//! Under [`SystemTuner::Fixed`] every epoch runs with one configuration —
//! the Tune V1/V2 behaviour.
//!
//! [`SystemTuner`] *decides* — which configuration and phase the next epoch
//! runs under, what a profile or a probe measurement changes —
//! [`TrialExecution`] *steps* — trains, charges time and energy, records —
//! and neither reaches into the other's state.

use pipetune_cluster::{FaultKind, FaultReport, SystemConfig, SystemSpace};
use pipetune_telemetry::{Attrs, EventKind, SpanKind, TelemetryBuffer, DURATION_BUCKETS_SECS};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::groundtruth::GroundTruthAccess;
use crate::objective::ProbeGoal;
use crate::observe;
use crate::workload::EpochWorkload;
use crate::{ExperimentEnv, PipeTuneError, WorkloadInstance};

/// Attempts one epoch gets against node crashes, the first included; a
/// trial whose epoch crashes this many times is abandoned
/// ([`PipeTuneError::RetriesExhausted`]).
pub const EPOCH_ATTEMPTS: u32 = 3;

/// Simulated seconds a trial waits before retrying failed attempt `attempt`
/// (0-based): 5 s, doubling per further retry.
fn epoch_backoff_secs(attempt: u32) -> f64 {
    5.0 * 2.0f64.powi(attempt as i32)
}

/// Which phase of Algorithm 1 an epoch executed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochPhase {
    /// First epoch: running under the default configuration while the
    /// profiler collects counters.
    Profile,
    /// Ground truth was confident: known-best configuration applied.
    Reused,
    /// Grid probing: a candidate configuration held for this epoch.
    Probe,
    /// Post-probing: the argmin configuration applied.
    Tuned,
    /// Fixed-policy epoch (baselines).
    Fixed,
    /// Adopted from the epoch-reuse cache: the epoch was trained by an
    /// earlier trial and reloaded here at a fraction of the cost (see
    /// `docs/reuse.md`).
    Cached,
}

impl EpochPhase {
    /// Stable lower-case name (span labels, trace attributes, docs).
    pub fn name(self) -> &'static str {
        match self {
            EpochPhase::Profile => "profile",
            EpochPhase::Reused => "reused",
            EpochPhase::Probe => "probe",
            EpochPhase::Tuned => "tuned",
            EpochPhase::Fixed => "fixed",
            EpochPhase::Cached => "cached",
        }
    }
}

/// Per-phase epoch counter name (see [`crate::observe`]).
fn phase_counter(phase: EpochPhase) -> &'static str {
    match phase {
        EpochPhase::Profile => observe::EPOCHS_PROFILE,
        EpochPhase::Probe => observe::EPOCHS_PROBE,
        EpochPhase::Tuned | EpochPhase::Reused => observe::EPOCHS_TUNED,
        EpochPhase::Fixed => observe::EPOCHS_FIXED,
        // Cached epochs never execute, so they never reach the per-epoch
        // recording path; they are counted in EPOCHS_CACHED at adoption.
        EpochPhase::Cached => observe::EPOCHS_CACHED,
    }
}

/// A span label `<prefix><n><suffix…>`, written without the `fmt` machinery:
/// one is built per recorded epoch and trial-round, and a microsecond epoch
/// notices.
pub(crate) fn numbered_label(prefix: &str, n: u64, suffix: &[&str]) -> String {
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    let mut rest = n;
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let len = prefix.len() + digits.len() - first + suffix.iter().map(|s| s.len()).sum::<usize>();
    let mut label = String::with_capacity(len);
    label.push_str(prefix);
    label.extend(digits[first..].iter().map(|&d| char::from(d)));
    suffix.iter().for_each(|s| label.push_str(s));
    label
}

/// The epoch span label, `epoch <n> (<phase>)`.
fn epoch_label(epoch: u32, phase: EpochPhase) -> String {
    numbered_label("epoch ", epoch.into(), &[" (", phase.name(), ")"])
}

/// Records the span of epoch `r`, which ended at `end_secs` on the
/// trial-cumulative simulated clock; the executor re-bases nothing —
/// trial/epoch spans are documented to use trial time, rung/batch spans
/// wall-clock time.
fn push_epoch_span(telemetry: &mut TelemetryBuffer, r: &EpochRecord, end_secs: f64) -> u32 {
    telemetry.push_span(
        SpanKind::Epoch,
        epoch_label(r.epoch, r.phase),
        None,
        end_secs - r.duration_secs,
        end_secs,
        vec![
            ("epoch", r.epoch.into()),
            ("phase", r.phase.name().into()),
            ("cores", r.system.cores.into()),
            ("memory_gb", r.system.memory_gb.into()),
            ("freq_mhz", r.system.freq_mhz.into()),
            ("energy_j", r.energy_j.into()),
            ("train_score", r.train_score.into()),
        ],
    )
}

/// One executed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// 1-based epoch index within the trial.
    pub epoch: u32,
    /// System configuration the epoch ran with.
    pub system: SystemConfig,
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Energy attributed to the trial, joules.
    pub energy_j: f64,
    /// Training score after the epoch.
    pub train_score: f32,
    /// Pipeline phase.
    pub phase: EpochPhase,
}

/// The per-trial system-parameter policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SystemTuner {
    /// Run every epoch with one fixed configuration (Tune V1/V2, Arbitrary).
    Fixed(SystemConfig),
    /// PipeTune's pipelined tuning (profile → ground truth → probe).
    ///
    /// Probing is coordinate-wise, matching Algorithm 1's `O(n)` complexity
    /// claim ("n is the number of distinct system parameters considered"):
    /// first one epoch per candidate core count (at the default memory),
    /// then one epoch per candidate memory size (at the best core count).
    Pipelined {
        /// What probing minimises.
        goal: ProbeGoal,
        /// Configurations still to probe in the current sweep.
        probe_queue: Vec<SystemConfig>,
        /// Which sweep the prober is in.
        probe_phase: ProbePhase,
        /// Probe measurements: `(config, cost)`.
        probe_results: Vec<(SystemConfig, f64)>,
        /// First-epoch profile features (set after the profile epoch).
        features: Option<Vec<f64>>,
        /// Configuration in force once decided.
        chosen: Option<SystemConfig>,
    },
}

/// Coordinate-probing progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbePhase {
    /// Sweeping candidate core counts at the default memory size.
    Cores,
    /// Sweeping candidate memory sizes at the best core count found.
    Memory,
    /// Sweeping candidate CPU frequencies at the best cores+memory (only
    /// when the system space enables DVFS — the paper's frequency
    /// extension, §7.1.4).
    Freq,
}

impl SystemTuner {
    /// A fresh pipelined tuner.
    pub fn pipelined(goal: ProbeGoal) -> Self {
        SystemTuner::Pipelined {
            goal,
            probe_queue: Vec::new(),
            probe_phase: ProbePhase::Cores,
            probe_results: Vec::new(),
            features: None,
            chosen: None,
        }
    }

    /// The configuration the tuner settled on, if any.
    pub fn chosen(&self) -> Option<SystemConfig> {
        match self {
            SystemTuner::Fixed(c) => Some(*c),
            SystemTuner::Pipelined { chosen, .. } => *chosen,
        }
    }

    /// What probing minimises; `None` under a fixed policy, which never
    /// probes.
    pub(crate) fn goal(&self) -> Option<ProbeGoal> {
        match self {
            SystemTuner::Fixed(_) => None,
            SystemTuner::Pipelined { goal, .. } => Some(*goal),
        }
    }

    /// `true` while the pipelined tuner still depends on counter readings
    /// (profiling or probing); a counter fault in this window loses a
    /// measurement that must be re-collected.
    pub(crate) fn measurement_pending(&self) -> bool {
        self.chosen().is_none()
    }

    /// The configuration and phase the next epoch runs under: the settled
    /// choice once there is one; before that the next queued probe; and with
    /// none queued — nothing is profiled yet — the default configuration
    /// while the profiler collects counters.
    pub(crate) fn next_epoch(&mut self, env: &ExperimentEnv) -> (SystemConfig, EpochPhase) {
        match self {
            SystemTuner::Fixed(c) => (*c, EpochPhase::Fixed),
            SystemTuner::Pipelined { chosen: Some(c), .. } => (*c, EpochPhase::Tuned),
            SystemTuner::Pipelined { probe_queue, .. } => match probe_queue.pop() {
                Some(c) => (c, EpochPhase::Probe),
                None => (env.default_system, EpochPhase::Profile),
            },
        }
    }

    /// The profile epoch's counters were read as `features`, and `hit` is
    /// the ground truth's verdict on them: a known-best configuration
    /// applies at once, a miss schedules the cores sweep. (A lost read never
    /// gets here: nothing is profiled, so the next epoch re-profiles.)
    pub(crate) fn profiled(
        &mut self,
        env: &ExperimentEnv,
        features: Vec<f64>,
        hit: Option<SystemConfig>,
    ) {
        let SystemTuner::Pipelined { features: profiled, chosen, .. } = self else { return };
        *profiled = Some(features);
        *chosen = hit;
        if hit.is_none() {
            self.sweep_over(env);
        }
    }

    /// The probe epoch under `sys` finished; `cost` is what the goal charges
    /// it, `None` when a counter fault lost the reading. Nothing else moves
    /// while the sweep has candidates queued; with the last one measured the
    /// tuner sweeps the next axis or settles, and then returns the choice
    /// with its cost and the profile features it is to be recorded under.
    pub(crate) fn probed(
        &mut self,
        env: &ExperimentEnv,
        sys: SystemConfig,
        cost: Option<f64>,
    ) -> Option<(&[f64], SystemConfig, f64)> {
        let SystemTuner::Pipelined { probe_queue, probe_results, .. } = self else { return None };
        probe_results.extend(cost.map(|cost| (sys, cost)));
        if !probe_queue.is_empty() {
            return None;
        }
        self.sweep_over(env)
    }

    /// No candidate is queued: queues the next non-empty sweep around the
    /// argmin of every surviving tuple, or — no axis left, probing complete
    /// — applies that argmin and returns it for the caller to persist.
    fn sweep_over(&mut self, env: &ExperimentEnv) -> Option<(&[f64], SystemConfig, f64)> {
        let SystemTuner::Pipelined {
            probe_queue,
            probe_phase,
            probe_results,
            features,
            chosen,
            ..
        } = self
        else {
            return None;
        };
        let best = probe_results
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .copied();
        // No survivor — nothing probed yet, or every probed tuple lost to
        // counter faults (the paper's argmin needs at least one): the cores
        // sweep from scratch, at the default memory size.
        let default = SystemConfig::new(env.default_system.cores, env.default_system.memory_gb);
        let (done, base) = best.map_or((None, default), |(cfg, _)| (Some(*probe_phase), cfg));
        match next_sweep(&env.system_space, done, base) {
            Some(sweep) => {
                (*probe_phase, *probe_queue) = sweep;
                None
            }
            None => {
                *chosen = best.map(|(cfg, _)| cfg);
                features.as_deref().zip(best).map(|(features, (cfg, cost))| (features, cfg, cost))
            }
        }
    }
}

/// The first non-empty coordinate sweep after `done` (`None`: from the
/// start): one probe epoch per grid value of an axis with the other
/// coordinates held at `base`, reversed so `pop` walks the sweep in grid
/// order. After a sweep `base` is the best tuple measured so far, so its own
/// value on the axis is skipped (already probed), and an axis that leaves
/// empty — a one-value grid, such as the frequency axis unless DVFS is on
/// (more than the nominal entry) — is stepped over, not settled on.
fn next_sweep(
    space: &SystemSpace,
    done: Option<ProbePhase>,
    base: SystemConfig,
) -> Option<(ProbePhase, Vec<SystemConfig>)> {
    let axes = [ProbePhase::Cores, ProbePhase::Memory, ProbePhase::Freq];
    axes[done.map_or(0, |done| done as usize + 1)..].iter().find_map(|&axis| {
        let (grid, at, with): (_, _, fn(SystemConfig, u32) -> SystemConfig) = match axis {
            ProbePhase::Cores => (&space.cores, base.cores, |b, cores| SystemConfig { cores, ..b }),
            ProbePhase::Memory => {
                (&space.memory_gb, base.memory_gb, |b, memory_gb| SystemConfig { memory_gb, ..b })
            }
            ProbePhase::Freq => {
                (&space.freq_mhz, base.freq_mhz, |b, freq_mhz| SystemConfig { freq_mhz, ..b })
            }
        };
        let skip = done.map(|_| at);
        let queue: Vec<SystemConfig> =
            grid.iter().rev().filter(|&&v| Some(v) != skip).map(|&v| with(base, v)).collect();
        (!queue.is_empty()).then_some((axis, queue))
    })
}

/// The resumable state of one trial at an epoch boundary: model/optimizer
/// state (the workload clone carries both), the tuning-policy state, the
/// trial's private RNG stream, the accumulated [`EpochRecord`]s and their
/// accounting.
///
/// The one struct behind crash rollback, epoch-reuse cache insert and cache
/// adoption (see `docs/determinism.md`): resuming from a snapshot and
/// re-running produces byte-identical results to the run it was taken from.
#[derive(Debug, Clone)]
pub(crate) struct TrialSnapshot {
    pub(crate) workload: WorkloadInstance,
    pub(crate) tuner: SystemTuner,
    pub(crate) rng: StdRng,
    pub(crate) records: Vec<EpochRecord>,
    /// Simulated seconds its holder accounts for this state: what the
    /// trial has been charged (rollback), the reload cost (adoption) or the
    /// trained-equivalent cost (a cached prefix).
    pub(crate) secs: f64,
    /// Joules, likewise.
    pub(crate) energy_j: f64,
}

/// A trial in flight: workload + tuning policy + accounting.
#[derive(Debug)]
pub struct TrialExecution {
    workload: WorkloadInstance,
    tuner: SystemTuner,
    records: Vec<EpochRecord>,
    total_secs: f64,
    total_energy_j: f64,
    trial_id: u64,
    faults: FaultReport,
    telemetry: TelemetryBuffer,
    cache_saved_secs: f64,
    cache_saved_energy_j: f64,
}

impl TrialExecution {
    /// Wraps a freshly instantiated workload with a policy.
    pub fn new(workload: WorkloadInstance, tuner: SystemTuner) -> Self {
        TrialExecution {
            workload,
            tuner,
            records: Vec::new(),
            total_secs: 0.0,
            total_energy_j: 0.0,
            trial_id: 0,
            faults: FaultReport::default(),
            telemetry: TelemetryBuffer::disabled(),
            cache_saved_secs: 0.0,
            cache_saved_energy_j: 0.0,
        }
    }

    /// Tags the execution with its scheduler trial id. Fault decisions are
    /// keyed on this id, so the executor must set it before running epochs
    /// under a non-empty [`pipetune_cluster::FaultPlan`].
    #[must_use]
    pub fn with_trial_id(mut self, id: u64) -> Self {
        self.trial_id = id;
        self
    }

    /// Fault-tolerance accounting accumulated so far.
    pub fn fault_report(&self) -> FaultReport {
        self.faults
    }

    /// The worker-local telemetry buffer: what this trial recorded since
    /// the executor last merged it into the run's sink (which empties it
    /// in place, after every rung).
    pub(crate) fn telemetry_mut(&mut self) -> &mut TelemetryBuffer {
        &mut self.telemetry
    }

    /// Snapshots the full trial state (model, optimizer, tuner, records,
    /// accounting, RNG stream) at the current epoch boundary.
    pub(crate) fn snapshot(&self, rng: &StdRng) -> TrialSnapshot {
        TrialSnapshot {
            workload: self.workload.clone(),
            tuner: self.tuner.clone(),
            rng: rng.clone(),
            records: self.records.clone(),
            secs: self.total_secs,
            energy_j: self.total_energy_j,
        }
    }

    /// A trial resuming from `snapshot` (and `rng` resuming its stream),
    /// with clean fault, telemetry and cache-savings accounting.
    pub(crate) fn from_snapshot(snapshot: TrialSnapshot, rng: &mut StdRng) -> Self {
        let TrialSnapshot { workload, tuner, rng: at, records, secs, energy_j } = snapshot;
        *rng = at;
        TrialExecution {
            records,
            total_secs: secs,
            total_energy_j: energy_j,
            ..TrialExecution::new(workload, tuner)
        }
    }

    /// Rolls the trial (and its RNG stream) back to `snapshot`. Identity,
    /// fault counters, cache savings and the telemetry buffer deliberately
    /// survive — recovery accounting must outlive the state restore it
    /// causes (doomed epoch attempts are instead recorded under a
    /// suppression window, see [`TelemetryBuffer::set_suppressed`]).
    pub(crate) fn restore(&mut self, snapshot: TrialSnapshot, rng: &mut StdRng) {
        let before = std::mem::replace(self, Self::from_snapshot(snapshot, rng));
        self.trial_id = before.trial_id;
        self.faults = before.faults;
        self.telemetry = before.telemetry;
        self.cache_saved_secs = before.cache_saved_secs;
        self.cache_saved_energy_j = before.cache_saved_energy_j;
    }

    /// The live workload.
    pub(crate) fn workload_mut(&mut self) -> &mut WorkloadInstance {
        &mut self.workload
    }

    /// The live workload (shared).
    pub fn workload(&self) -> &WorkloadInstance {
        &self.workload
    }

    /// The tuning policy.
    pub fn tuner(&self) -> &SystemTuner {
        &self.tuner
    }

    /// Executed epoch log.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Accumulated simulated duration, seconds.
    pub fn duration_secs(&self) -> f64 {
        self.total_secs
    }

    /// Accumulated trial energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.total_energy_j
    }

    /// [`TrialExecution::snapshot`] as the epoch-reuse cache stores it:
    /// totals are *trained-equivalent* — what was charged plus what
    /// adopting a cached prefix saved this trial — so chained adoption
    /// never compounds the reload discount.
    pub(crate) fn donor_snapshot(&self, rng: &StdRng) -> TrialSnapshot {
        TrialSnapshot {
            secs: self.total_secs + self.cache_saved_secs,
            energy_j: self.total_energy_j + self.cache_saved_energy_j,
            ..self.snapshot(rng)
        }
    }

    /// Builds a trial from an adopted epoch-reuse-cache prefix: `snapshot`
    /// is the donor's state with the prefix's epochs already re-labelled
    /// [`EpochPhase::Cached`] and charged at reload cost, `saved` the
    /// `(seconds, joules)` that spared. Emits the cached epoch spans, the
    /// `EPOCHS_CACHED` counter and a hit `cache_lookup` event on the trial
    /// buffer (cached epochs never touch `EPOCHS_TOTAL`, the
    /// epoch-duration histogram or the energy meter — they did not
    /// execute).
    pub(crate) fn adopt(
        env: &ExperimentEnv,
        snapshot: TrialSnapshot,
        saved: (f64, f64),
        trial_id: u64,
        rng: &mut StdRng,
    ) -> Self {
        let mut exec = TrialExecution::from_snapshot(snapshot, rng).with_trial_id(trial_id);
        (exec.cache_saved_secs, exec.cache_saved_energy_j) = saved;
        if env.telemetry.is_enabled() {
            exec.telemetry.enable();
            let mut at = 0.0;
            for r in &exec.records {
                at += r.duration_secs;
                push_epoch_span(&mut exec.telemetry, r, at);
            }
            let adopted = exec.records.len() as u64;
            exec.telemetry.with_metrics(|m| {
                m.counter_add(observe::EPOCHS_CACHED, adopted);
            });
            let epochs = exec.workload.epochs_run();
            exec.event(EventKind::CacheLookup, None, || {
                vec![
                    ("hit", true.into()),
                    ("epochs", epochs.into()),
                    ("saved_secs", saved.0.into()),
                ]
            });
        }
        exec
    }

    /// Records a miss `cache_lookup` event on the trial buffer (fresh
    /// trial consulted the epoch-reuse cache and found no usable prefix).
    pub(crate) fn note_cache_miss(&mut self, env: &ExperimentEnv) {
        if env.telemetry.is_enabled() {
            self.telemetry.enable();
            self.event(EventKind::CacheLookup, None, || vec![("hit", false.into())]);
        }
    }

    /// Current held-out accuracy.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn accuracy(&mut self) -> Result<f32, PipeTuneError> {
        self.workload.accuracy()
    }

    /// The system configuration a *final* training run would use: the tuned
    /// choice when decided, otherwise the environment default.
    pub(crate) fn final_system(&self, env: &ExperimentEnv) -> SystemConfig {
        self.tuner.chosen().unwrap_or(env.default_system)
    }

    /// Simulated duration of re-training the final model for `epochs` under
    /// the trial's final configuration (Table 2's "training time").
    pub(crate) fn training_time_secs(&self, env: &ExperimentEnv, epochs: u32) -> f64 {
        let work = self.workload.work_units();
        let sys = self.final_system(env);
        env.cost.epoch_duration(&work, &sys, 1.0) * f64::from(epochs)
    }

    /// Runs `epochs` additional epochs under the policy, recovering from
    /// any faults [`ExperimentEnv::fault_plan`] injects.
    ///
    /// For the pipelined policy, `ground_truth` supplies history sharing
    /// across trials and jobs — pass a `&mut GroundTruth` for
    /// immediate-mutation sequential semantics (the executor passes each
    /// work item a journalling view of the batch-start history instead);
    /// pass `None` to disable reuse (ablation).
    ///
    /// Fault recovery (all decisions pure functions of
    /// `(trial id, fault plan)`, so results replay byte-identically for any
    /// worker count; the empty plan draws no fault, so every epoch takes
    /// the clean branch and no counter moves):
    ///
    /// * **node crash** — the attempt really runs against an epoch-boundary
    ///   snapshot and is rolled back (mid-epoch crash semantics:
    ///   partial work wasted, model/RNG state restored), then retried after
    ///   exponential backoff in simulated time, up to [`EPOCH_ATTEMPTS`];
    /// * **straggler** — the epoch completes at `slowdown ×` its nominal
    ///   duration; training output is untouched;
    /// * **counter read** — training proceeds but the epoch's profile/probe
    ///   measurement is lost: a lost profile re-profiles next epoch, a lost
    ///   probe leaves the argmin to the surviving tuples (re-probing from
    ///   scratch only if *every* tuple was lost);
    /// * **preemption** — the trial resumes after a deterministic
    ///   suspension; no work is lost.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; ground-truth persistence failures.
    /// Returns [`PipeTuneError::RetriesExhausted`] when one epoch crashes
    /// more times than the retry budget allows.
    pub fn run_epochs(
        &mut self,
        env: &ExperimentEnv,
        epochs: u32,
        mut ground_truth: Option<&mut dyn GroundTruthAccess>,
        contention: f64,
        rng: &mut StdRng,
    ) -> Result<(), PipeTuneError> {
        if env.telemetry.is_enabled() {
            self.telemetry.enable();
        }
        for _ in 0..epochs {
            let epoch_idx = self.workload.epochs_run() + 1;
            let mut attempt = 0u32;
            loop {
                let fault = env.fault_plan.at_epoch(self.trial_id, epoch_idx, attempt);
                if let Some(FaultKind::NodeCrash { wasted_fraction }) = fault {
                    self.faults.injected += 1;
                    self.faults.crashes += 1;
                    // Run the attempt for real against a checkpoint, then
                    // roll back: the node died `wasted_fraction` of the way
                    // through, its partial work and energy are lost, and
                    // model/optimizer/RNG state rewinds to the epoch
                    // boundary.
                    let ckpt = self.snapshot(rng);
                    self.event(EventKind::Checkpoint, None, || {
                        vec![("epoch", epoch_idx.into()), ("attempt", attempt.into())]
                    });
                    // The doomed attempt must not appear in the trace: only
                    // committed epochs, plus the explicit fault/retry events
                    // below.
                    self.telemetry.set_suppressed(true);
                    let doomed = self.run_one_epoch(env, &mut None, contention, rng, 1.0, false);
                    self.telemetry.set_suppressed(false);
                    doomed?;
                    let attempt_secs = self.total_secs - ckpt.secs;
                    let attempt_energy = self.total_energy_j - ckpt.energy_j;
                    self.restore(ckpt, rng);
                    let wasted = attempt_secs * wasted_fraction;
                    let backoff = epoch_backoff_secs(attempt);
                    self.total_secs += wasted + backoff;
                    self.total_energy_j += attempt_energy * wasted_fraction;
                    self.faults.wasted_epoch_secs += wasted;
                    self.faults.recovery_overhead_secs += backoff;
                    self.event(EventKind::Fault, None, || {
                        let mut attrs =
                            pipetune_cluster::observe::fault_attrs(&FaultKind::NodeCrash {
                                wasted_fraction,
                            });
                        attrs.push(("epoch", epoch_idx.into()));
                        attrs.push(("attempt", attempt.into()));
                        attrs.push(("wasted_secs", wasted.into()));
                        attrs.push(("backoff_secs", backoff.into()));
                        attrs
                    });
                    attempt += 1;
                    if attempt >= EPOCH_ATTEMPTS {
                        self.faults.abandoned += 1;
                        self.event(EventKind::Retry, None, || {
                            vec![("epoch", epoch_idx.into()), ("abandoned", true.into())]
                        });
                        return Err(PipeTuneError::RetriesExhausted {
                            trial_id: self.trial_id,
                            attempts: attempt,
                        });
                    }
                    self.faults.retried += 1;
                    self.event(EventKind::Retry, None, || {
                        vec![("epoch", epoch_idx.into()), ("attempt", attempt.into())]
                    });
                    continue;
                }
                // Non-crash faults complete the epoch in one attempt.
                let (slowdown, counter_fault) = match fault {
                    Some(FaultKind::Straggler { slowdown }) => {
                        self.faults.injected += 1;
                        self.faults.stragglers += 1;
                        (slowdown.max(1.0), false)
                    }
                    Some(FaultKind::CounterRead) => {
                        self.faults.injected += 1;
                        self.faults.counter_faults += 1;
                        if self.tuner.measurement_pending() {
                            // The lost profile/probe is re-collected on a
                            // later epoch.
                            self.faults.retried += 1;
                        }
                        (1.0, true)
                    }
                    Some(FaultKind::Preemption { suspend_secs }) => {
                        self.faults.injected += 1;
                        self.faults.preemptions += 1;
                        self.faults.recovery_overhead_secs += suspend_secs;
                        self.total_secs += suspend_secs;
                        (1.0, false)
                    }
                    _ => (1.0, false),
                };
                if let Some(kind) = fault {
                    self.event(EventKind::Fault, None, || {
                        let mut attrs = pipetune_cluster::observe::fault_attrs(&kind);
                        attrs.push(("epoch", epoch_idx.into()));
                        attrs
                    });
                }
                let before_secs = self.total_secs;
                self.run_one_epoch(
                    env,
                    &mut ground_truth,
                    contention,
                    rng,
                    slowdown,
                    counter_fault,
                )?;
                if slowdown > 1.0 {
                    let dur = self.total_secs - before_secs;
                    self.faults.wasted_epoch_secs += dur * (1.0 - 1.0 / slowdown);
                }
                if fault.is_some() || attempt > 0 {
                    // The epoch got through a fault (its own or earlier
                    // crashed attempts).
                    self.faults.recovered += 1;
                }
                break;
            }
        }
        Ok(())
    }

    /// Records an event at the trial's simulated clock; `attrs` are built
    /// only when the buffer is recording.
    fn event(&mut self, kind: EventKind, span: Option<u32>, attrs: impl FnOnce() -> Attrs) {
        if self.telemetry.is_active() {
            self.telemetry.push_event(kind, span, self.total_secs, attrs());
        }
    }

    /// Executes exactly one epoch under the policy (no fault handling —
    /// `slowdown` and `counter_fault` are the already-decided fault inputs;
    /// `1.0` / `false` mean a clean epoch).
    fn run_one_epoch(
        &mut self,
        env: &ExperimentEnv,
        ground_truth: &mut Option<&mut dyn GroundTruthAccess>,
        contention: f64,
        rng: &mut StdRng,
        slowdown: f64,
        counter_fault: bool,
    ) -> Result<(), PipeTuneError> {
        let epoch_idx = self.workload.epochs_run() + 1;
        let work = self.workload.work_units();
        // The tuner decides this epoch's system configuration and phase.
        let (sys, phase) = self.tuner.next_epoch(env);

        // Real training work.
        let outcome = self.workload.run_epoch()?;
        // Simulated time & energy at paper scale.
        let mut duration = env.cost.epoch_duration(&work, &sys, contention);
        if matches!(phase, EpochPhase::Profile) {
            duration *= 1.0 + env.profile_overhead.max(0.0);
        }
        if slowdown > 1.0 {
            // Straggler epoch: the node is slow, the work is not lost.
            duration *= slowdown;
        }
        let watts = env.trial_power(&sys);
        let energy = watts * duration;
        self.total_secs += duration;
        self.total_energy_j += energy;
        let record = EpochRecord {
            epoch: epoch_idx,
            system: sys,
            duration_secs: duration,
            energy_j: energy,
            train_score: outcome.train_score,
            phase,
        };
        self.records.push(record);
        let epoch_span = if self.telemetry.is_active() {
            let span = push_epoch_span(&mut self.telemetry, &record, self.total_secs);
            self.telemetry.with_metrics(|m| {
                m.observe(observe::EPOCH_SECS, DURATION_BUCKETS_SECS, duration);
                m.counter_add(observe::EPOCHS_TOTAL, 1);
                m.counter_add(phase_counter(phase), 1);
                pipetune_energy::observe::record_epoch_energy(watts, energy, m);
            });
            Some(span)
        } else {
            None
        };
        // What the epoch measured goes to the tuner, the tuner's verdict to
        // the ground truth and the trace.
        self.measured(env, ground_truth, rng, &record, counter_fault, epoch_span)
    }

    /// Algorithm 1's two measuring epochs. A profile epoch reads the
    /// counters — fallibly, because a transient counter fault (`lost`) loses
    /// the measurement — consults the ground truth and tells the tuner; a
    /// probe epoch hands the tuner its cost and persists the argmin once the
    /// tuner settles on it. Any other epoch measures nothing.
    fn measured(
        &mut self,
        env: &ExperimentEnv,
        ground_truth: &mut Option<&mut dyn GroundTruthAccess>,
        rng: &mut StdRng,
        epoch: &EpochRecord,
        lost: bool,
        span: Option<u32>,
    ) -> Result<(), PipeTuneError> {
        let (n, sys, secs) = (epoch.epoch, epoch.system, epoch.duration_secs);
        if epoch.phase == EpochPhase::Profile {
            let sig = self.workload.signature();
            let profile = if env.sampled_profiling {
                // Full 1 Hz pipeline: short epochs leave blind spots (events
                // never scheduled read as zero).
                env.profiler
                    .try_sample_epoch(&sig, sys.cores, secs, rng, n, lost)
                    .map(|trace| trace.scale_to_epoch())
            } else {
                env.profiler.try_profile_epoch(&sig, sys.cores, secs, rng, n, lost)
            };
            self.event(EventKind::Profile, span, || {
                vec![("epoch", n.into()), ("lost", profile.is_err().into())]
            });
            let Ok(profile) = profile else {
                // On a lost read the tuner hears nothing, so the next epoch
                // re-profiles (the fault accounting happens in the recovery
                // loop).
                self.telemetry.counter_add(pipetune_perfmon::observe::PROFILES_LOST, 1);
                return Ok(());
            };
            self.telemetry.counter_add(pipetune_perfmon::observe::PROFILES_COLLECTED, 1);
            let feats = profile.features();
            let mut hit = None;
            if let Some(gt) = ground_truth.as_deref_mut() {
                hit = gt.lookup(&feats);
                self.event(EventKind::GtLookup, span, || {
                    vec![("epoch", n.into()), ("hit", hit.is_some().into())]
                });
            }
            self.tuner.profiled(env, feats, hit);
        } else if epoch.phase == EpochPhase::Probe {
            let goal = self.tuner.goal().filter(|_| !lost);
            let cost = goal.map(|goal| goal.cost(secs, epoch.energy_j));
            self.event(EventKind::Probe, span, || {
                let mut attrs = Vec::with_capacity(6);
                attrs.extend([
                    ("epoch", n.into()),
                    ("cores", sys.cores.into()),
                    ("memory_gb", sys.memory_gb.into()),
                    ("freq_mhz", sys.freq_mhz.into()),
                    ("lost", lost.into()),
                ]);
                attrs.extend(cost.map(|cost| ("cost", cost.into())));
                attrs
            });
            if cost.is_some() {
                self.telemetry.counter_add(observe::PROBE_COUNT, 1);
            }
            let settled = self.tuner.probed(env, sys, cost);
            if let (Some((feats, best, cost)), Some(gt)) = (settled, ground_truth.as_deref_mut()) {
                gt.record(self.workload.spec().name(), feats, best, cost)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroundTruth, HyperParams, WorkloadSpec};
    use pipetune_cluster::FaultPlan;
    use rand::SeedableRng;

    fn env() -> ExperimentEnv {
        ExperimentEnv::distributed(5)
    }

    fn hp(batch: usize) -> HyperParams {
        HyperParams { batch_size: batch, learning_rate: 0.02, epochs: 20, ..HyperParams::default() }
    }

    fn make_trial(batch: usize, tuner: SystemTuner) -> TrialExecution {
        let w = WorkloadSpec::lenet_mnist().with_scale(0.2).instantiate(&hp(batch), 3).unwrap();
        TrialExecution::new(w, tuner)
    }

    #[test]
    fn labels_read_as_format_would_write_them() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(numbered_label("trial ", n, &[]), format!("trial {n}"));
        }
        for phase in [EpochPhase::Profile, EpochPhase::Tuned, EpochPhase::Cached] {
            for epoch in [1, 27, 81, 1000, u32::MAX] {
                assert_eq!(epoch_label(epoch, phase), format!("epoch {epoch} ({})", phase.name()));
            }
        }
    }

    #[test]
    fn fixed_policy_never_changes_configuration() {
        let e = env();
        let cfg = SystemConfig::new(8, 16);
        let mut t = make_trial(256, SystemTuner::Fixed(cfg));
        let mut rng = StdRng::seed_from_u64(1);
        t.run_epochs(&e, 4, None, 1.0, &mut rng).unwrap();
        assert_eq!(t.records().len(), 4);
        assert!(t.records().iter().all(|r| r.system == cfg && r.phase == EpochPhase::Fixed));
        assert!(t.duration_secs() > 0.0);
        assert!(t.energy_j() > 0.0);
    }

    #[test]
    fn pipelined_probes_coordinates_then_settles_on_argmin() {
        let e = env();
        let mut gt = GroundTruth::paper_default(1);
        let mut t = make_trial(1024, SystemTuner::pipelined(ProbeGoal::Runtime));
        let mut rng = StdRng::seed_from_u64(2);
        // Coordinate probing: |cores| + |memory| − 1 epochs (Algorithm 1's
        // O(n) over distinct parameter values).
        let probes = (e.system_space.cores.len() + e.system_space.memory_gb.len() - 1) as u32;
        t.run_epochs(&e, 1 + probes + 3, Some(&mut gt), 1.0, &mut rng).unwrap();
        let phases: Vec<EpochPhase> = t.records().iter().map(|r| r.phase).collect();
        assert_eq!(phases[0], EpochPhase::Profile);
        assert!(phases[1..=probes as usize].iter().all(|p| *p == EpochPhase::Probe));
        assert!(phases[probes as usize + 1..].iter().all(|p| *p == EpochPhase::Tuned));
        // Chosen config is the fastest probed one.
        let chosen = t.tuner().chosen().unwrap();
        let probed: Vec<(SystemConfig, f64)> = t
            .records()
            .iter()
            .filter(|r| r.phase == EpochPhase::Probe)
            .map(|r| (r.system, r.duration_secs))
            .collect();
        let best = probed.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap().0;
        assert_eq!(chosen, best);
        // And the probe result was recorded for future jobs.
        assert_eq!(gt.stats().recorded, 1);
    }

    /// Drives a pipelined tuner through one sweep: asserts the probes the
    /// next epochs run under, reports each with the cost `costs` gives it
    /// (`None`: reading lost) and returns the verdict of the last one.
    fn sweep(
        tuner: &mut SystemTuner,
        e: &ExperimentEnv,
        expect: &[SystemConfig],
        costs: impl Fn(SystemConfig) -> Option<f64>,
    ) -> Option<(SystemConfig, f64)> {
        let mut verdict = None;
        for &want in expect {
            assert!(verdict.is_none(), "settled with {want} still to probe");
            assert_eq!(tuner.next_epoch(e), (want, EpochPhase::Probe));
            assert!(tuner.measurement_pending());
            verdict = tuner.probed(e, want, costs(want)).map(|(feats, cfg, cost)| {
                assert_eq!(feats, [1.0, 2.0], "recorded under the profiled features");
                (cfg, cost)
            });
        }
        verdict
    }

    #[test]
    fn algorithm_1_as_a_table() {
        let dvfs = |memory_gb: Vec<u32>| ExperimentEnv {
            system_space: SystemSpace {
                cores: vec![4, 8, 16],
                memory_gb,
                freq_mhz: vec![1800, 3500],
            },
            ..env()
        };
        let (e, default) = (env(), env().default_system);
        let cfg = |cores, memory_gb, freq_mhz| SystemConfig { cores, memory_gb, freq_mhz };
        let cores_sweep = [cfg(4, 32, 3500), cfg(8, 32, 3500), cfg(16, 32, 3500)];
        // Cheapest at 8 cores, then at 16 GiB, then at the lower clock.
        let cost = |c: SystemConfig| {
            Some(f64::from(c.cores.abs_diff(8) + c.memory_gb.abs_diff(16) + c.freq_mhz / 1000))
        };
        let profiled = |e: &ExperimentEnv, hit| {
            let mut tuner = SystemTuner::pipelined(ProbeGoal::Runtime);
            // Until a profile arrives (a lost read reports nothing) every
            // epoch profiles under the default.
            for _ in 0..2 {
                assert_eq!(tuner.next_epoch(e), (default, EpochPhase::Profile));
                assert!(tuner.measurement_pending());
            }
            tuner.profiled(e, vec![1.0, 2.0], hit);
            tuner
        };

        // Hit: the known-best configuration applies without a probe.
        let mut hit = profiled(&e, Some(cfg(16, 8, 3500)));
        assert!(!hit.measurement_pending());
        assert_eq!(hit.next_epoch(&e), (cfg(16, 8, 3500), EpochPhase::Tuned));

        // Miss, DVFS off: cores in grid order at the default memory, memory
        // at the best core count minus the default, no frequency sweep.
        let mut miss = profiled(&e, None);
        assert_eq!(sweep(&mut miss, &e, &cores_sweep, cost), None);
        let memory_sweep = [cfg(8, 4, 3500), cfg(8, 8, 3500), cfg(8, 16, 3500)];
        assert_eq!(sweep(&mut miss, &e, &memory_sweep, cost), Some((cfg(8, 16, 3500), 3.0)));
        assert_eq!(miss.chosen(), Some(cfg(8, 16, 3500)));
        assert_eq!(miss.next_epoch(&e), (cfg(8, 16, 3500), EpochPhase::Tuned));

        // DVFS on: the frequencies other than the best tuple's follow, and
        // the argmin runs over every tuple of the three sweeps.
        let e2 = dvfs(vec![4, 8, 16, 32]);
        let mut miss = profiled(&e2, None);
        assert_eq!(sweep(&mut miss, &e2, &cores_sweep, cost), None);
        assert_eq!(sweep(&mut miss, &e2, &memory_sweep, cost), None);
        assert_eq!(sweep(&mut miss, &e2, &[cfg(8, 16, 1800)], cost), Some((cfg(8, 16, 1800), 1.0)));
        // … also when an earlier tuple stays the cheapest.
        let nominal_wins = |c: SystemConfig| cost(c).map(|x| x + f64::from(3500 - c.freq_mhz));
        let mut miss = profiled(&e2, None);
        assert_eq!(sweep(&mut miss, &e2, &cores_sweep, nominal_wins), None);
        assert_eq!(sweep(&mut miss, &e2, &memory_sweep, nominal_wins), None);
        let verdict = sweep(&mut miss, &e2, &[cfg(8, 16, 1800)], nominal_wins);
        assert_eq!(verdict, Some((cfg(8, 16, 3500), 3.0)));

        // A one-memory space has no memory sweep, and that must not cost it
        // the frequency sweep.
        let e1 = dvfs(vec![32]);
        let mut miss = profiled(&e1, None);
        assert_eq!(sweep(&mut miss, &e1, &cores_sweep, cost), None);
        assert_eq!(
            sweep(&mut miss, &e1, &[cfg(8, 32, 1800)], cost),
            Some((cfg(8, 32, 1800), 17.0))
        );

        // One lost probe leaves the argmin to the survivors.
        let lose_8 = |c: SystemConfig| cost(c).filter(|_| c.cores != 8);
        let mut miss = profiled(&e, None);
        assert_eq!(sweep(&mut miss, &e, &cores_sweep, lose_8), None);
        let memory_sweep = [cfg(4, 4, 3500), cfg(4, 8, 3500), cfg(4, 16, 3500)];
        assert_eq!(sweep(&mut miss, &e, &memory_sweep, lose_8), Some((cfg(4, 16, 3500), 7.0)));

        // Every probe lost: the cores sweep restarts from scratch.
        let mut miss = profiled(&e, None);
        assert_eq!(sweep(&mut miss, &e, &cores_sweep, |_| None), None);
        assert_eq!(sweep(&mut miss, &e, &cores_sweep, cost), None);
        assert_eq!(miss.next_epoch(&e), (cfg(8, 4, 3500), EpochPhase::Probe));

        // A fixed policy never moves, whatever it is told.
        let mut fixed = SystemTuner::Fixed(cfg(2, 2, 3500));
        fixed.profiled(&e, vec![1.0, 2.0], Some(default));
        assert_eq!(fixed.probed(&e, default, Some(0.0)), None);
        assert!(!fixed.measurement_pending() && fixed.goal().is_none());
        assert_eq!(fixed.next_epoch(&e), (cfg(2, 2, 3500), EpochPhase::Fixed));
    }

    #[test]
    fn a_one_memory_space_still_probes_the_frequencies() {
        let mut e = env();
        e.system_space.memory_gb = vec![e.default_system.memory_gb];
        e.system_space.freq_mhz = vec![1800, SystemConfig::NOMINAL_FREQ_MHZ];
        let mut t = make_trial(256, SystemTuner::pipelined(ProbeGoal::Energy));
        let mut rng = StdRng::seed_from_u64(6);
        let probes = e.system_space.cores.len() + 1;
        t.run_epochs(&e, 1 + probes as u32 + 1, None, 1.0, &mut rng).unwrap();
        let probed: Vec<u32> = t
            .records()
            .iter()
            .filter(|r| r.phase == EpochPhase::Probe)
            .map(|r| r.system.freq_mhz)
            .collect();
        assert_eq!(probed.len(), probes, "{:?}", t.records());
        assert_eq!(probed.last(), Some(&1800), "the down-clocked candidate is probed last");
        assert_eq!(t.records().last().unwrap().phase, EpochPhase::Tuned);
    }

    #[test]
    fn ground_truth_hit_skips_probing() {
        let e = env();
        let mut gt = GroundTruth::paper_default(1);
        let mut rng = StdRng::seed_from_u64(3);
        // Jobs 1..6 probe and populate the ground truth (two families so the
        // k=2 fit is meaningful; three records per family so the variance
        // estimate gating confidence is not razor-thin against profile noise).
        for seed in 0..6 {
            let spec = if seed % 2 == 0 {
                WorkloadSpec::lenet_mnist()
            } else {
                WorkloadSpec::lstm_news20()
            };
            let w = spec.with_scale(0.2).instantiate(&hp(256), seed).unwrap();
            let mut t = TrialExecution::new(w, SystemTuner::pipelined(ProbeGoal::Runtime));
            let probes = (e.system_space.cores.len() + e.system_space.memory_gb.len() - 1) as u32;
            t.run_epochs(&e, 1 + probes, Some(&mut gt), 1.0, &mut rng).unwrap();
        }
        // Job 5: same family → should reuse without probing.
        let mut t = make_trial(256, SystemTuner::pipelined(ProbeGoal::Runtime));
        t.run_epochs(&e, 4, Some(&mut gt), 1.0, &mut rng).unwrap();
        let phases: Vec<EpochPhase> = t.records().iter().map(|r| r.phase).collect();
        assert_eq!(phases[0], EpochPhase::Profile);
        assert!(
            phases[1..].iter().all(|p| *p == EpochPhase::Tuned),
            "expected reuse, got {phases:?}"
        );
        assert!(gt.stats().hits >= 1);
    }

    #[test]
    fn tuned_trials_run_faster_than_default_for_large_batches() {
        // Large batches want many cores; the default 4c/4GB is slow. After
        // probing, tuned epochs must beat default-config epochs.
        let e = env();
        let mut gt = GroundTruth::paper_default(1);
        let mut rng = StdRng::seed_from_u64(4);
        let mut t = make_trial(1024, SystemTuner::pipelined(ProbeGoal::Runtime));
        let probes = (e.system_space.cores.len() + e.system_space.memory_gb.len() - 1) as u32;
        t.run_epochs(&e, 1 + probes + 2, Some(&mut gt), 1.0, &mut rng).unwrap();
        let profile_dur = t.records()[0].duration_secs;
        let tuned_dur = t.records().last().unwrap().duration_secs;
        assert!(
            tuned_dur < profile_dur,
            "tuned {tuned_dur:.1}s should beat default {profile_dur:.1}s"
        );
    }

    #[test]
    fn training_time_uses_final_configuration() {
        let e = env();
        let t_default = make_trial(1024, SystemTuner::Fixed(e.default_system));
        let t_big = make_trial(1024, SystemTuner::Fixed(SystemConfig::new(16, 32)));
        let tt_default = t_default.training_time_secs(&e, 10);
        let tt_big = t_big.training_time_secs(&e, 10);
        assert!(tt_big < tt_default);
    }

    #[test]
    fn rollback_and_cache_adoption_resume_one_snapshot_bit_identically() {
        use crate::cache::{CacheEvent, CacheKey, EpochCache};
        let e = env();
        let mut t = make_trial(256, SystemTuner::pipelined(ProbeGoal::Runtime));
        let mut rng = StdRng::seed_from_u64(7);
        t.run_epochs(&e, 3, None, 1.0, &mut rng).unwrap();
        // Depth 3, mid-probe: one snapshot kept for rollback, the same
        // state sent through the cache for adoption.
        let ckpt = t.snapshot(&rng);
        let key = CacheKey { fingerprint: 1, epochs: 3 };
        let mut cache = EpochCache::new(crate::EpochCacheConfig::default());
        cache.commit([CacheEvent::Insert { key, snapshot: Box::new(t.donor_snapshot(&rng)) }], 0.0);
        t.run_epochs(&e, 4, None, 1.0, &mut rng).unwrap();
        let records_first: Vec<EpochRecord> = t.records().to_vec();
        let secs_first = t.duration_secs();
        let state_first =
            (t.accuracy().unwrap().to_bits(), format!("{:?}", t.tuner()), rng.clone());

        // Roll back and rerun: the restored RNG stream must reproduce every
        // stochastic draw, so the replay is byte-identical.
        t.restore(ckpt, &mut rng);
        assert_eq!(t.records().len(), 3);
        t.run_epochs(&e, 4, None, 1.0, &mut rng).unwrap();
        assert_eq!(t.records(), records_first.as_slice());
        assert_eq!(t.duration_secs().to_bits(), secs_first.to_bits());

        // Adopt at the same depth into a trial that never trained: only the
        // prefix's accounting differs (reload cost, `Cached` phase).
        let (hit, charged, saved) = cache.peek(key.fingerprint, 9).unwrap();
        assert_eq!(hit, key);
        let mut adopted_rng = StdRng::seed_from_u64(0);
        let mut adopted = TrialExecution::adopt(&e, charged, saved, 0, &mut adopted_rng);
        assert!(adopted.records().iter().all(|r| r.phase == EpochPhase::Cached));
        assert!(adopted.duration_secs() < records_first[..3].iter().map(|r| r.duration_secs).sum());
        adopted.run_epochs(&e, 4, None, 1.0, &mut adopted_rng).unwrap();
        assert_eq!(adopted.records()[3..], records_first[3..]);

        for (trial, rng) in [(&mut t, rng), (&mut adopted, adopted_rng)] {
            let state = (trial.accuracy().unwrap().to_bits(), format!("{:?}", trial.tuner()), rng);
            assert_eq!(state, state_first, "model, tuner and RNG stream resume bit for bit");
        }
    }

    #[test]
    fn crash_every_epoch_exhausts_the_retry_budget() {
        let e = ExperimentEnv { fault_plan: FaultPlan::crashes(99, 1.0), ..env() };
        let mut t = make_trial(256, SystemTuner::Fixed(e.default_system)).with_trial_id(4);
        let mut rng = StdRng::seed_from_u64(8);
        let err = t.run_epochs(&e, 5, None, 1.0, &mut rng).unwrap_err();
        match err {
            PipeTuneError::RetriesExhausted { trial_id, attempts } => {
                assert_eq!(trial_id, 4);
                assert_eq!(attempts, EPOCH_ATTEMPTS);
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        let report = t.fault_report();
        assert_eq!(report.abandoned, 1);
        assert_eq!(report.crashes, u64::from(EPOCH_ATTEMPTS));
        assert_eq!(report.retried, u64::from(EPOCH_ATTEMPTS) - 1);
        assert!(report.wasted_epoch_secs > 0.0);
        // 5 s, 10 s and 20 s of backoff, one per failed attempt.
        assert_eq!(report.recovery_overhead_secs, 35.0);
        // No epoch ever committed.
        assert!(t.records().is_empty());
    }

    #[test]
    fn recovered_crash_leaves_training_state_equal_to_fault_free_run() {
        // Crash probability low enough that the retry budget absorbs every
        // crash: the run completes, and because crashed attempts roll back
        // model + RNG state, the surviving epochs are bit-equal to a
        // fault-free run — only the clock and the fault report differ.
        let clean_env = env();
        let faulty_env = ExperimentEnv { fault_plan: FaultPlan::crashes(17, 0.3), ..env() };
        let run = |e: &ExperimentEnv| {
            let mut t = make_trial(256, SystemTuner::Fixed(e.default_system)).with_trial_id(2);
            let mut rng = StdRng::seed_from_u64(9);
            t.run_epochs(e, 8, None, 1.0, &mut rng).unwrap();
            t
        };
        let mut clean = run(&clean_env);
        let mut faulty = run(&faulty_env);
        assert!(faulty.fault_report().crashes > 0, "plan should inject at least one crash");
        assert!(faulty.fault_report().recovered > 0);
        assert_eq!(faulty.records().len(), clean.records().len());
        assert_eq!(
            faulty.accuracy().unwrap().to_bits(),
            clean.accuracy().unwrap().to_bits(),
            "crash recovery must not perturb training"
        );
        assert!(faulty.duration_secs() > clean.duration_secs(), "faults cost simulated time");
    }
}
