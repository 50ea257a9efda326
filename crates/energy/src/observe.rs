//! Telemetry adapters for energy accounting: canonical metric names and
//! helpers recording per-epoch power/energy into a [`MetricsRegistry`].

use pipetune_telemetry::{MetricsRegistry, ENERGY_BUCKETS_J};

pipetune_telemetry::metric_names! {
    /// Histogram: per-epoch energy attributed to a trial, joules.
    pub(crate) const EPOCH_ENERGY_J = "energy.epoch_j";
    /// Gauge: most recent whole-cluster power draw, watts.
    pub(crate) const POWER_WATTS = "energy.power_w";
}

/// Records one epoch's energy and the power it was drawn at.
pub fn record_epoch_energy(watts: f64, energy_j: f64, metrics: &mut MetricsRegistry) {
    metrics.observe(EPOCH_ENERGY_J, ENERGY_BUCKETS_J, energy_j);
    metrics.gauge_set(POWER_WATTS, watts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;

    #[test]
    fn epoch_energy_lands_in_histogram_and_gauge() {
        let model = PowerModel::default();
        let watts = model.power_watts(8, 1.0);
        let mut m = MetricsRegistry::new();
        record_epoch_energy(watts, watts * 60.0, &mut m);
        assert_eq!(m.histogram(EPOCH_ENERGY_J).unwrap().count(), 1);
        assert_eq!(m.gauge(POWER_WATTS), Some(watts));
    }
}
