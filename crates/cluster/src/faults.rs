//! Deterministic fault injection for the simulated cluster.
//!
//! Shared DL clusters lose nodes, host stragglers and preempt low-priority
//! work; a tuning middleware that assumes every epoch completes would abort
//! on the first hiccup. This module provides the *schedule* side of the
//! fault-tolerance story: a seeded [`FaultPlan`] that decides — as a pure
//! function of `(plan seed, trial id, epoch, attempt)` — whether a fault
//! strikes a given epoch execution, which kind, and how severe it is.
//!
//! Determinism is load-bearing: the executor runs trials on an arbitrary
//! number of OS threads, and the replay contract (`docs/determinism.md`) demands
//! byte-identical results for every worker count. Fault decisions therefore
//! never consult a stateful RNG; they hash their coordinates with a
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) finaliser, so any
//! thread asking about the same `(trial, epoch, attempt)` gets the same
//! answer, in any order, any number of times.
//!
//! The recovery side (checkpoints, retries, re-probing) lives in the
//! middleware crate; [`FaultReport`] is defined here so the simulator, the
//! runner and the benchmark harness agree on the vocabulary.

use serde::{Deserialize, Serialize};

/// One injected fault, with its deterministically drawn severity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node executing the trial dies mid-epoch: the epoch's work is
    /// lost (`wasted_fraction` of it had already run) and the trial must
    /// restore its last checkpoint and retry.
    NodeCrash {
        /// Fraction of the epoch that had completed when the node died.
        wasted_fraction: f64,
    },
    /// The node is slow this epoch (co-located noisy neighbour, thermal
    /// throttling): the epoch completes but takes `slowdown` times longer.
    Straggler {
        /// Duration multiplier, `> 1`.
        slowdown: f64,
    },
    /// The PMU counter read fails transiently: training is unaffected but
    /// the epoch's profile/probe measurement is lost.
    CounterRead,
    /// The trial is preempted by higher-priority work and resumes after
    /// `suspend_secs` of simulated time; no work is lost.
    Preemption {
        /// Simulated seconds the trial sits suspended.
        suspend_secs: f64,
    },
}

/// Straggler slowdown range (min, max), duration factors.
const STRAGGLER_SLOWDOWN: (f64, f64) = (1.5, 4.0);
/// Preemption suspension range (min, max), simulated seconds.
const PREEMPT_SECS: (f64, f64) = (20.0, 120.0);
/// Speed of a straggling slot relative to a healthy one.
const SLOT_SPEED_FACTOR: f64 = 0.5;
/// Where within an attempt's remaining service a job crash strikes, as a
/// fraction range (min, max).
const CRASH_FRACTION: (f64, f64) = (0.15, 0.85);

/// A seeded, deterministic schedule of faults at epoch granularity.
///
/// All probabilities are per epoch *attempt*; severities are drawn from
/// fixed ranges (slowdown 1.5–4×, suspension 20–120 s, a straggling slot
/// runs at half speed). The empty plan ([`FaultPlan::none`]) injects nothing
/// and is the default everywhere, so fault-free runs are bit-identical to
/// builds that predate fault injection.
///
/// ```
/// use pipetune_cluster::FaultPlan;
///
/// let plan = FaultPlan::mixed(7);
/// assert!(!plan.is_empty());
/// // Fault decisions are pure functions of (trial, epoch, attempt) — the
/// // same query always returns the same answer, on any thread, in any
/// // order, which is what keeps faulty runs replayable.
/// assert_eq!(plan.at_epoch(3, 1, 0), plan.at_epoch(3, 1, 0));
/// // The empty plan never injects anything.
/// assert_eq!(FaultPlan::none().at_epoch(3, 1, 0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed decorrelating this plan from every other stochastic component.
    pub seed: u64,
    /// Per-attempt probability of a [`FaultKind::NodeCrash`].
    pub crash_prob: f64,
    /// Per-attempt probability of a [`FaultKind::Straggler`].
    pub straggler_prob: f64,
    /// Per-attempt probability of a [`FaultKind::CounterRead`].
    pub counter_read_prob: f64,
    /// Per-attempt probability of a [`FaultKind::Preemption`].
    pub preempt_prob: f64,
    /// Per-round probability that a simulated executor slot is a straggler
    /// for that scheduler round (drives slot re-assignment).
    pub slot_straggler_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, ever. Runs under it are bit-identical to
    /// runs without fault injection at all.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crash_prob: 0.0,
            straggler_prob: 0.0,
            counter_read_prob: 0.0,
            preempt_prob: 0.0,
            slot_straggler_prob: 0.0,
        }
    }

    /// A mixed plan with every fault class enabled at moderate rates —
    /// the default schedule for fault-tolerance experiments.
    pub fn mixed(seed: u64) -> Self {
        FaultPlan {
            seed,
            crash_prob: 0.08,
            straggler_prob: 0.10,
            counter_read_prob: 0.10,
            preempt_prob: 0.05,
            slot_straggler_prob: 0.15,
        }
    }

    /// Node crashes only.
    pub fn crashes(seed: u64, prob: f64) -> Self {
        FaultPlan { seed, crash_prob: prob.clamp(0.0, 1.0), ..Self::none() }
    }

    /// Stragglers only (epoch-level slowdowns plus slot-level slow
    /// executors); never loses work, so accuracies are untouched.
    pub fn stragglers(seed: u64, prob: f64) -> Self {
        FaultPlan {
            seed,
            straggler_prob: prob.clamp(0.0, 1.0),
            slot_straggler_prob: (prob * 0.5).clamp(0.0, 1.0),
            ..Self::none()
        }
    }

    /// `true` when the plan can never inject anything (the guard the hot
    /// path uses to keep fault-free runs byte-identical to pre-fault
    /// builds).
    pub fn is_empty(&self) -> bool {
        self.crash_prob <= 0.0
            && self.straggler_prob <= 0.0
            && self.counter_read_prob <= 0.0
            && self.preempt_prob <= 0.0
            && self.slot_straggler_prob <= 0.0
    }

    /// The fault (if any) striking attempt `attempt` of epoch `epoch` of
    /// trial `trial`. Pure function of `(self, trial, epoch, attempt)`;
    /// classes are checked in severity order (crash ≻ preemption ≻ counter
    /// read ≻ straggler) with decorrelated draws, so at most one fault
    /// strikes per attempt.
    pub fn at_epoch(&self, trial: u64, epoch: u32, attempt: u32) -> Option<FaultKind> {
        if self.is_empty() {
            return None;
        }
        let key = |tag: u64| self.unit(tag, trial, u64::from(epoch), u64::from(attempt));
        if key(0xC8A5) < self.crash_prob {
            return Some(FaultKind::NodeCrash { wasted_fraction: lerp(0.1, 0.9, key(0xC8A6)) });
        }
        if key(0x9EE1) < self.preempt_prob {
            let (lo, hi) = PREEMPT_SECS;
            return Some(FaultKind::Preemption { suspend_secs: lerp(lo, hi, key(0x9EE2)) });
        }
        if key(0xC047) < self.counter_read_prob {
            return Some(FaultKind::CounterRead);
        }
        if key(0x57A6) < self.straggler_prob {
            let (lo, hi) = STRAGGLER_SLOWDOWN;
            return Some(FaultKind::Straggler { slowdown: lerp(lo, hi, key(0x57A7)) });
        }
        None
    }

    /// Relative speed of simulated slot `slot` during scheduler round
    /// `round`: `1.0` for a healthy slot, `0.5` for a straggling one. Pure
    /// function of `(self, round, slot)`.
    pub fn slot_speed(&self, round: u64, slot: usize) -> f64 {
        if self.slot_straggler_prob <= 0.0 {
            return 1.0;
        }
        if self.unit(0x5107, round, slot as u64, 0) < self.slot_straggler_prob {
            SLOT_SPEED_FACTOR
        } else {
            1.0
        }
    }

    /// Uniform draw in `[0, 1)` from hashed coordinates (no RNG state).
    fn unit(&self, tag: u64, a: u64, b: u64, c: u64) -> f64 {
        hash_unit(self.seed, tag, a, b, c)
    }
}

/// Uniform draw in `[0, 1)` from hashed coordinates (no RNG state) —
/// the shared primitive behind [`FaultPlan`] and [`ServiceFaultPlan`]
/// draws.
fn hash_unit(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = splitmix64(x.wrapping_add(a));
    x = splitmix64(x.wrapping_add(b));
    x = splitmix64(x.wrapping_add(c));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64 finaliser: a high-quality 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Linear interpolation of `u ∈ [0, 1)` into `[lo, hi]`.
fn lerp(lo: f64, hi: f64, u: f64) -> f64 {
    lo + (hi - lo) * u
}

/// Node churn decided at one churn tick of a [`ServiceFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// A node leaves the shared pool, taking its slots with it.
    Leave,
    /// A previously departed node rejoins the pool.
    Join,
}

impl ChurnKind {
    /// Stable lower-snake name used in telemetry attributes.
    pub fn name(self) -> &'static str {
        match self {
            ChurnKind::Leave => "leave",
            ChurnKind::Join => "join",
        }
    }
}

/// A seeded, deterministic schedule of *service-level* faults: node churn
/// against the shared slot pool and whole-job crashes with checkpointed
/// resubmission. The trial-level sibling is [`FaultPlan`]; this plan is
/// consumed by the multi-job tuning service (`pipetune-service`), which
/// also enforces deadlines — the third leg of the service fault story —
/// from its own configuration.
///
/// Determinism mirrors [`FaultPlan`]: every decision is a pure function
/// of hashed coordinates `(seed, event kind, job, epoch)` — churn draws
/// key on the tick index, crash draws on `(job, attempt)` — so schedules
/// replay identically for any worker count and any scheduling policy.
///
/// The plan holds what varies between schedules: the seed and three
/// probabilities. Where churn ticks fall, how many slots a node carries,
/// the pool floor and the resubmission budget are the service's
/// constants.
///
/// ```
/// use pipetune_cluster::ServiceFaultPlan;
///
/// let plan = ServiceFaultPlan::mixed(7);
/// assert!(!plan.is_empty());
/// // Pure functions of their coordinates: same query, same answer.
/// assert_eq!(plan.churn_at(3), plan.churn_at(3));
/// assert_eq!(plan.crash_at(1, 0), plan.crash_at(1, 0));
/// // The empty plan never injects anything.
/// assert_eq!(ServiceFaultPlan::none().churn_at(3), None);
/// assert_eq!(ServiceFaultPlan::none().crash_at(1, 0), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceFaultPlan {
    /// Seed decorrelating this plan from every other stochastic component.
    pub seed: u64,
    /// Per-tick probability that a node leaves the pool.
    pub node_leave_prob: f64,
    /// Per-tick probability that a departed node rejoins (checked only
    /// when no leave fired at the same tick).
    pub node_join_prob: f64,
    /// Per-attempt probability that an admitted job's run crashes
    /// mid-service and must be resubmitted.
    pub crash_prob: f64,
}

impl Default for ServiceFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl ServiceFaultPlan {
    /// The empty plan: no churn, no job crashes, ever. Service runs under
    /// it are bit-identical to runs without service-level fault injection
    /// at all.
    pub fn none() -> Self {
        ServiceFaultPlan { seed: 0, node_leave_prob: 0.0, node_join_prob: 0.0, crash_prob: 0.0 }
    }

    /// A mixed plan with churn and job crashes at moderate rates — the
    /// default schedule for service-level chaos experiments.
    pub fn mixed(seed: u64) -> Self {
        ServiceFaultPlan { seed, node_leave_prob: 0.30, node_join_prob: 0.45, crash_prob: 0.20 }
    }

    /// Node churn only: jobs never crash, but the pool breathes.
    pub fn churn(seed: u64, leave_prob: f64) -> Self {
        ServiceFaultPlan {
            seed,
            node_leave_prob: leave_prob.clamp(0.0, 1.0),
            node_join_prob: (leave_prob * 1.5).clamp(0.0, 1.0),
            ..Self::none()
        }
    }

    /// Job crashes only: the pool stays static.
    pub fn job_crashes(seed: u64, prob: f64) -> Self {
        ServiceFaultPlan { seed, crash_prob: prob.clamp(0.0, 1.0), ..Self::none() }
    }

    /// `true` when the plan can never inject anything (the guard the
    /// service driver uses to keep fault-free runs byte-identical to
    /// pre-fault builds).
    pub fn is_empty(&self) -> bool {
        !self.has_churn() && self.crash_prob <= 0.0
    }

    /// `true` when churn ticks can ever fire.
    pub fn has_churn(&self) -> bool {
        self.node_leave_prob > 0.0 || self.node_join_prob > 0.0
    }

    /// The churn event (if any) drawn at tick `tick`. Pure function of
    /// `(self, tick)`; leave is checked before join, so at most one node
    /// moves per tick. The caller applies state constraints (a leave
    /// that would breach the pool floor, or a join with no node away, is
    /// simply skipped).
    pub fn churn_at(&self, tick: u64) -> Option<ChurnKind> {
        if hash_unit(self.seed, 0x1EA7, 0, tick, 0) < self.node_leave_prob {
            return Some(ChurnKind::Leave);
        }
        if hash_unit(self.seed, 0x901A, 0, tick, 0) < self.node_join_prob {
            return Some(ChurnKind::Join);
        }
        None
    }

    /// Whether service attempt `attempt` (0-based) of job `job` crashes,
    /// and if so at which fraction (in `[0.15, 0.85]`) of the attempt's
    /// remaining service.
    /// Pure function of `(self, job, attempt)` — notably *not* of the
    /// scheduling policy or of time — so a job's crash/resume chain is
    /// policy-invariant.
    pub fn crash_at(&self, job: u64, attempt: u32) -> Option<f64> {
        if self.crash_prob <= 0.0 {
            return None;
        }
        if hash_unit(self.seed, 0x5C8A, job, u64::from(attempt), 0) < self.crash_prob {
            let (lo, hi) = CRASH_FRACTION;
            Some(lerp(lo, hi, hash_unit(self.seed, 0x5C8B, job, u64::from(attempt), 0)))
        } else {
            None
        }
    }
}

/// Service-level fault accounting: what a [`ServiceFaultPlan`] (plus
/// deadline enforcement) actually did to one service run.
///
/// Kept separate from the per-trial [`FaultReport`] so the invariant
/// "the service's trial-level report is exactly the merge of its jobs'
/// reports" survives service-level injection.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceFaultReport {
    /// Nodes that left the pool.
    pub node_leaves: u64,
    /// Nodes that rejoined the pool.
    pub node_joins: u64,
    /// Churn events that actually changed the lease layout (elastic
    /// repartitions).
    pub repartitions: u64,
    /// Job-level crashes injected.
    pub job_crashes: u64,
    /// Crashed jobs resubmitted from their last checkpoint.
    pub resubmissions: u64,
    /// Jobs shed for exceeding their deadline.
    pub jobs_shed: u64,
    /// Jobs abandoned after exhausting the resubmission budget.
    pub jobs_abandoned: u64,
    /// Simulated service-seconds destroyed by crashes (work past the
    /// last checkpoint, redone on resubmission).
    pub lost_service_secs: f64,
    /// Simulated seconds crashed jobs sat in resubmission backoff.
    pub backoff_secs: f64,
}

impl ServiceFaultReport {
    /// `true` when nothing was injected, shed or lost.
    pub fn is_clean(&self) -> bool {
        *self == ServiceFaultReport::default()
    }

    /// Adds `other`'s counters into `self` (callers merge in a
    /// deterministic order, as with [`FaultReport::merge`]).
    pub fn merge(&mut self, other: &ServiceFaultReport) {
        self.node_leaves += other.node_leaves;
        self.node_joins += other.node_joins;
        self.repartitions += other.repartitions;
        self.job_crashes += other.job_crashes;
        self.resubmissions += other.resubmissions;
        self.jobs_shed += other.jobs_shed;
        self.jobs_abandoned += other.jobs_abandoned;
        self.lost_service_secs += other.lost_service_secs;
        self.backoff_secs += other.backoff_secs;
    }
}

/// Fault-tolerance accounting for one trial, job or experiment.
///
/// Counters add across trials (see [`FaultReport::merge`]); the runner
/// aggregates per-trial deltas in scheduler-request order so the merged
/// report is byte-identical for every worker count.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Faults injected, all classes.
    pub injected: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Epoch- and slot-level stragglers injected.
    pub stragglers: u64,
    /// Transient counter-read failures injected.
    pub counter_faults: u64,
    /// Preemptions injected.
    pub preemptions: u64,
    /// Retry attempts performed (crash retries and lost-measurement
    /// re-probes/re-profiles).
    pub retried: u64,
    /// Faults the trial fully recovered from.
    pub recovered: u64,
    /// Trials abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Simulated epoch-seconds destroyed by faults (lost partial epochs,
    /// straggler inflation, slot-straggler makespan inflation).
    pub wasted_epoch_secs: f64,
    /// Simulated seconds spent on recovery mechanics (backoff waits,
    /// preemption suspensions).
    pub recovery_overhead_secs: f64,
}

impl FaultReport {
    /// `true` when nothing was injected or lost.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Adds `other`'s counters into `self` (order-sensitive only through
    /// float addition, which callers keep deterministic by merging in
    /// request order).
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected += other.injected;
        self.crashes += other.crashes;
        self.stragglers += other.stragglers;
        self.counter_faults += other.counter_faults;
        self.preemptions += other.preemptions;
        self.retried += other.retried;
        self.recovered += other.recovered;
        self.abandoned += other.abandoned;
        self.wasted_epoch_secs += other.wasted_epoch_secs;
        self.recovery_overhead_secs += other.recovery_overhead_secs;
    }

    /// The counters accumulated since `earlier` was snapshotted from the
    /// same report (used to attribute per-rung deltas to one trial).
    pub fn delta_since(&self, earlier: &FaultReport) -> FaultReport {
        FaultReport {
            injected: self.injected - earlier.injected,
            crashes: self.crashes - earlier.crashes,
            stragglers: self.stragglers - earlier.stragglers,
            counter_faults: self.counter_faults - earlier.counter_faults,
            preemptions: self.preemptions - earlier.preemptions,
            retried: self.retried - earlier.retried,
            recovered: self.recovered - earlier.recovered,
            abandoned: self.abandoned - earlier.abandoned,
            wasted_epoch_secs: self.wasted_epoch_secs - earlier.wasted_epoch_secs,
            recovery_overhead_secs: self.recovery_overhead_secs - earlier.recovery_overhead_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        for trial in 0..50 {
            for epoch in 1..20 {
                assert_eq!(p.at_epoch(trial, epoch, 0), None);
            }
        }
        assert_eq!(p.slot_speed(3, 1), 1.0);
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let p = FaultPlan::mixed(42);
        for trial in 0..20 {
            for epoch in 1..10 {
                for attempt in 0..3 {
                    let a = p.at_epoch(trial, epoch, attempt);
                    let b = p.at_epoch(trial, epoch, attempt);
                    assert_eq!(a, b, "same coordinates, same answer");
                }
            }
        }
        assert_eq!(p.slot_speed(7, 2), p.slot_speed(7, 2));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::mixed(1);
        let b = FaultPlan::mixed(2);
        let schedule = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..40).map(|t| p.at_epoch(t, 1, 0)).collect()
        };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn certain_crash_probability_always_crashes() {
        let p = FaultPlan::crashes(9, 1.0);
        for attempt in 0..10 {
            match p.at_epoch(3, 1, attempt) {
                Some(FaultKind::NodeCrash { wasted_fraction }) => {
                    assert!((0.1..0.9).contains(&wasted_fraction) || wasted_fraction == 0.9);
                }
                other => panic!("expected crash, got {other:?}"),
            }
        }
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let p = FaultPlan::crashes(1234, 0.25);
        let n = 4000;
        let hits = (0..n).filter(|&t| p.at_epoch(t, 1, 0).is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn straggler_plan_only_produces_stragglers() {
        let p = FaultPlan::stragglers(5, 0.5);
        for trial in 0..200 {
            match p.at_epoch(trial, 2, 0) {
                None => {}
                Some(FaultKind::Straggler { slowdown }) => assert!(slowdown >= 1.0),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn slot_speeds_mark_some_slots_slow() {
        let p = FaultPlan { slot_straggler_prob: 0.5, ..FaultPlan::none() };
        let speeds: Vec<f64> = (0..100).map(|r| p.slot_speed(r, 0)).collect();
        assert!(speeds.iter().any(|&s| s < 1.0));
        assert!(speeds.contains(&1.0));
    }

    #[test]
    fn service_plan_empty_never_injects() {
        let p = ServiceFaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.has_churn());
        for tick in 0..100 {
            assert_eq!(p.churn_at(tick), None);
        }
        for job in 0..20 {
            for attempt in 0..5 {
                assert_eq!(p.crash_at(job, attempt), None);
            }
        }
    }

    #[test]
    fn service_plan_draws_are_pure_functions_of_coordinates() {
        let p = ServiceFaultPlan::mixed(42);
        for tick in 0..50 {
            assert_eq!(p.churn_at(tick), p.churn_at(tick));
        }
        for job in 0..10 {
            for attempt in 0..4 {
                assert_eq!(p.crash_at(job, attempt), p.crash_at(job, attempt));
            }
        }
        // Different seeds give different schedules.
        let other = ServiceFaultPlan::mixed(43);
        let schedule = |p: &ServiceFaultPlan| -> Vec<Option<ChurnKind>> {
            (0..64).map(|t| p.churn_at(t)).collect()
        };
        assert_ne!(schedule(&p), schedule(&other));
    }

    #[test]
    fn service_plan_rates_track_probabilities() {
        let p = ServiceFaultPlan::mixed(9);
        let n = 4000u64;
        let leaves =
            (0..n).filter(|&t| p.churn_at(t) == Some(ChurnKind::Leave)).count() as f64 / n as f64;
        assert!((leaves - p.node_leave_prob).abs() < 0.03, "leave rate {leaves}");
        let crashes = (0..n).filter(|&j| p.crash_at(j, 0).is_some()).count() as f64 / n as f64;
        assert!((crashes - p.crash_prob).abs() < 0.03, "crash rate {crashes}");
        for j in 0..200 {
            if let Some(frac) = p.crash_at(j, 0) {
                assert!((0.0..=1.0).contains(&frac), "crash fraction {frac}");
            }
        }
    }

    #[test]
    fn certain_job_crash_probability_always_crashes() {
        let p = ServiceFaultPlan::job_crashes(5, 1.0);
        assert!(!p.is_empty());
        assert!(!p.has_churn());
        for attempt in 0..6 {
            assert!(p.crash_at(2, attempt).is_some());
        }
        assert!(ServiceFaultPlan::churn(5, 0.5).has_churn());
    }

    #[test]
    fn service_report_merges_and_detects_dirt() {
        let mut a = ServiceFaultReport {
            node_leaves: 2,
            job_crashes: 1,
            lost_service_secs: 12.5,
            ..ServiceFaultReport::default()
        };
        let b = ServiceFaultReport {
            node_joins: 1,
            resubmissions: 1,
            jobs_shed: 3,
            backoff_secs: 600.0,
            ..ServiceFaultReport::default()
        };
        a.merge(&b);
        assert_eq!(a.node_leaves, 2);
        assert_eq!(a.node_joins, 1);
        assert_eq!(a.jobs_shed, 3);
        assert_eq!(a.backoff_secs, 600.0);
        assert!(!a.is_clean());
        assert!(ServiceFaultReport::default().is_clean());
        assert_eq!(ChurnKind::Leave.name(), "leave");
        assert_eq!(ChurnKind::Join.name(), "join");
    }

    #[test]
    fn report_merge_and_delta_round_trip() {
        let mut a = FaultReport {
            injected: 2,
            crashes: 1,
            wasted_epoch_secs: 3.5,
            ..FaultReport::default()
        };
        let b = FaultReport {
            injected: 1,
            retried: 4,
            recovery_overhead_secs: 2.0,
            ..FaultReport::default()
        };
        let before = a;
        a.merge(&b);
        assert_eq!(a.injected, 3);
        assert_eq!(a.retried, 4);
        assert_eq!(a.delta_since(&before), b);
        assert!(!a.is_clean());
        assert!(FaultReport::default().is_clean());
    }
}
