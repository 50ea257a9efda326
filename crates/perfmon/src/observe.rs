//! Canonical metric names for profiling on the simulated PMU.
//!
//! The profiler itself stays a pure function of its inputs; the middleware
//! ticks these counters after a profile is collected, from within the
//! per-trial telemetry buffer, so recording stays deterministic.

pipetune_telemetry::metric_names! {
    /// Counter: first-epoch profiles collected (closed-form or sampled).
    pub const PROFILES_COLLECTED = "perfmon.profiles";
    /// Counter: profile/probe measurements lost to counter faults.
    pub const PROFILES_LOST = "perfmon.lost_reads";
}
