//! Canonical metric names the executor records (see `docs/telemetry.md`).
//!
//! Every name lives here so exporters, dashboards and tests share one
//! vocabulary, declared through [`pipetune_telemetry::metric_names!`] so
//! the module also exports an `ALL_METRIC_NAMES` registry slice the
//! metric-name audit test checks emissions against. Counters are
//! cumulative over a [`crate::ExperimentEnv`] telemetry handle's
//! lifetime; histograms use the fixed bucket layouts from
//! [`pipetune_telemetry`]; gauges hold last-written values.
//!
//! Cluster-, PMU-, energy-, service- and monitor-level names live next
//! to their subsystems: [`pipetune_cluster::observe`],
//! [`pipetune_perfmon::observe`], [`pipetune_energy::observe`],
//! `pipetune_service::observe` and `pipetune_monitor::observe`.

pipetune_telemetry::metric_names! {
    /// Histogram of committed epoch durations, simulated seconds
    /// ([`pipetune_telemetry::DURATION_BUCKETS_SECS`]).
    pub(crate) const EPOCH_SECS = "trial.epoch_secs";

    /// Counter: epochs committed (crashed attempts excluded).
    pub const EPOCHS_TOTAL = "epochs.total";

    /// Counter: epochs that ran in [`crate::EpochPhase::Profile`].
    pub const EPOCHS_PROFILE = "epochs.profile";

    /// Counter: epochs that ran in [`crate::EpochPhase::Probe`].
    pub const EPOCHS_PROBE = "epochs.probe";

    /// Counter: epochs that ran in [`crate::EpochPhase::Tuned`] or
    /// [`crate::EpochPhase::Reused`] (a settled configuration in force).
    pub const EPOCHS_TUNED = "epochs.tuned";

    /// Counter: epochs that ran in [`crate::EpochPhase::Fixed`] (baselines).
    pub const EPOCHS_FIXED = "epochs.fixed";

    /// Counter: epochs adopted from the epoch-reuse cache instead of being
    /// trained (never included in [`EPOCHS_TOTAL`], which counts only epochs
    /// that really executed).
    pub(crate) const EPOCHS_CACHED = "epochs.cached";

    /// Counter: epoch-reuse cache lookups that adopted a cached prefix.
    pub(crate) const CACHE_HITS = "cache.hit";

    /// Counter: epoch-reuse cache lookups that fell through to a cold start.
    pub(crate) const CACHE_MISSES = "cache.miss";

    /// Counter: epoch prefixes inserted into the epoch-reuse cache.
    pub(crate) const CACHE_INSERTS = "cache.insert";

    /// Counter: cache entries evicted by the LRU-by-simulated-time policy.
    pub(crate) const CACHE_EVICTIONS = "cache.evict";

    /// Gauge: simulated epoch-seconds the epoch-reuse cache saved over the
    /// most recent job (unset until the first job with a cache hit finishes).
    pub(crate) const CACHE_SAVED_SECS = "cache.saved_secs";

    /// Counter: probe measurements kept (lost counter reads excluded).
    pub const PROBE_COUNT = "probe.count";

    /// Counter: ground-truth lookups answered with a configuration.
    pub const GT_HITS = "gt.hits";

    /// Counter: ground-truth lookups that fell through to probing.
    pub(crate) const GT_MISSES = "gt.misses";

    /// Counter: probed optima persisted into the ground truth.
    pub(crate) const GT_RECORDED = "gt.recorded";

    /// Counter: k-means refits the ground truth ran.
    pub(crate) const GT_REFITS = "gt.refits";

    /// Gauge: hits ÷ lookups over the most recent job (NaN-free: unset until
    /// the first job with at least one lookup finishes).
    pub(crate) const GT_HIT_RATE = "gt.hit_rate";

    /// Counter: scheduler rounds (= batches) the executor ran.
    pub(crate) const ROUNDS = "executor.rounds";

    /// Histogram of trials per scheduler batch
    /// ([`pipetune_telemetry::COUNT_BUCKETS`]).
    pub(crate) const BATCH_TRIALS = "executor.batch_trials";

    /// Histogram of batch-size ÷ parallel-slot occupancy
    /// ([`pipetune_telemetry::RATIO_BUCKETS`]); values above 1.0 mean trials
    /// queued behind busy simulated slots.
    pub(crate) const QUEUE_OCCUPANCY = "executor.queue_occupancy";

    /// Gauge: epochs the scheduler issued over its whole run.
    pub const SCHEDULER_EPOCHS = "scheduler.epochs_issued";
}
