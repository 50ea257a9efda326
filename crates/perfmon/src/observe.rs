//! Telemetry adapters for the simulated PMU: canonical metric names for
//! profiling, and helpers recording them into a [`MetricsRegistry`].
//!
//! The profiler itself stays a pure function of its inputs; the middleware
//! calls these helpers after a profile is collected, from within the
//! per-trial telemetry buffer, so recording stays deterministic.

use pipetune_telemetry::MetricsRegistry;

use crate::profiler::EpochProfile;

pipetune_telemetry::metric_names! {
    /// Counter: first-epoch profiles collected (closed-form or sampled).
    pub const PROFILES_COLLECTED = "perfmon.profiles";
    /// Counter: profile/probe measurements lost to counter faults.
    pub const PROFILES_LOST = "perfmon.lost_reads";
}

/// Records a collected first-epoch profile.
pub fn record_profile(_profile: &EpochProfile, metrics: &mut MetricsRegistry) {
    metrics.counter_add(PROFILES_COLLECTED, 1);
}

/// Records a measurement lost to a transient counter fault.
pub fn record_lost_read(metrics: &mut MetricsRegistry) {
    metrics.counter_add(PROFILES_LOST, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, WorkloadSignature};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn signature() -> WorkloadSignature {
        WorkloadSignature {
            flops_per_epoch: 1e10,
            working_set_bytes: 2e8,
            memory_intensity: 0.5,
            branch_ratio: 0.1,
        }
    }

    #[test]
    fn profile_and_lost_read_counters_tick() {
        let profiler = Profiler::default();
        let mut rng = StdRng::seed_from_u64(0);
        let profile = profiler.profile_epoch(&signature(), 8, 60.0, &mut rng);
        let mut m = MetricsRegistry::new();
        record_profile(&profile, &mut m);
        record_lost_read(&mut m);
        assert_eq!(m.counter(PROFILES_COLLECTED), 1);
        assert_eq!(m.counter(PROFILES_LOST), 1);
    }
}
