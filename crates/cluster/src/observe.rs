//! Telemetry adapters for the cluster simulator: canonical metric names
//! for fault and slot accounting, and helpers that record them into a
//! [`MetricsRegistry`].
//!
//! The simulator itself stays pure (fault decisions are stateless hashes);
//! the executor calls these helpers at merge points, so recording order —
//! and therefore every exported byte — is deterministic.

use pipetune_telemetry::{AttrValue, Attrs, MetricsRegistry, RATIO_BUCKETS};

use crate::faults::{FaultKind, FaultReport};

pipetune_telemetry::metric_names! {
    /// Counter: faults injected, all classes (`FaultReport::injected`).
    pub const FAULTS_INJECTED = "faults.injected";
    /// Counter: node crashes injected.
    pub(crate) const FAULTS_CRASHES = "faults.crashes";
    /// Counter: epoch- and slot-level stragglers injected.
    pub const FAULTS_STRAGGLERS = "faults.stragglers";
    /// Counter: transient counter-read failures injected.
    pub(crate) const FAULTS_COUNTER_READS = "faults.counter_reads";
    /// Counter: preemptions injected.
    pub(crate) const FAULTS_PREEMPTIONS = "faults.preemptions";
    /// Counter: retry attempts performed (crash retries, re-probes).
    pub(crate) const FAULTS_RETRIED = "faults.retried";
    /// Counter: faults fully recovered from.
    pub const FAULTS_RECOVERED = "faults.recovered";
    /// Counter: trials abandoned after exhausting the retry budget.
    pub(crate) const FAULTS_ABANDONED = "faults.abandoned";
    /// Gauge: simulated epoch-seconds destroyed by faults.
    pub const FAULTS_WASTED_SECS = "faults.wasted_epoch_secs";
    /// Gauge: simulated seconds spent on recovery mechanics.
    pub const FAULTS_RECOVERY_SECS = "faults.recovery_overhead_secs";
    /// Histogram: per-round simulated executor slot speed (1.0 = healthy).
    pub(crate) const SLOT_SPEED = "slots.speed";
    /// Counter: slot-straggler rounds (at least one slow slot).
    pub(crate) const SLOT_STRAGGLER_ROUNDS = "slots.straggler_rounds";
}

/// Records a fault report's counters into `metrics` under the canonical
/// names above. Pass a *delta* report (e.g.
/// [`FaultReport::delta_since`]) to avoid double counting across merges.
pub fn record_fault_report(report: &FaultReport, metrics: &mut MetricsRegistry) {
    if report.is_clean() {
        return;
    }
    metrics.counter_add(FAULTS_INJECTED, report.injected);
    metrics.counter_add(FAULTS_CRASHES, report.crashes);
    metrics.counter_add(FAULTS_STRAGGLERS, report.stragglers);
    metrics.counter_add(FAULTS_COUNTER_READS, report.counter_faults);
    metrics.counter_add(FAULTS_PREEMPTIONS, report.preemptions);
    metrics.counter_add(FAULTS_RETRIED, report.retried);
    metrics.counter_add(FAULTS_RECOVERED, report.recovered);
    metrics.counter_add(FAULTS_ABANDONED, report.abandoned);
}

/// Records a scheduler round's simulated slot speeds: one `slots.speed`
/// observation per slot, plus a `slots.straggler_rounds` tick when any
/// slot ran below nominal speed.
pub fn record_slot_speeds(speeds: &[f64], metrics: &mut MetricsRegistry) {
    for &speed in speeds {
        metrics.observe(SLOT_SPEED, RATIO_BUCKETS, speed);
    }
    if speeds.iter().any(|&s| s < 1.0) {
        metrics.counter_add(SLOT_STRAGGLER_ROUNDS, 1);
    }
}

/// Stable lower-snake label for a fault kind (trace `fault` events).
fn fault_kind_label(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::NodeCrash { .. } => "node_crash",
        FaultKind::Straggler { .. } => "straggler",
        FaultKind::CounterRead => "counter_read",
        FaultKind::Preemption { .. } => "preemption",
    }
}

/// Trace attributes describing a fault kind (label plus its severity
/// parameter, when it has one).
pub fn fault_attrs(kind: &FaultKind) -> Attrs {
    let mut attrs: Attrs = vec![("fault", AttrValue::Str(fault_kind_label(kind).into()))];
    match kind {
        FaultKind::NodeCrash { wasted_fraction } => {
            attrs.push(("wasted_fraction", AttrValue::F64(*wasted_fraction)));
        }
        FaultKind::Straggler { slowdown } => {
            attrs.push(("slowdown", AttrValue::F64(*slowdown)));
        }
        FaultKind::Preemption { suspend_secs } => {
            attrs.push(("suspend_secs", AttrValue::F64(*suspend_secs)));
        }
        FaultKind::CounterRead => {}
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_records_nothing() {
        let mut m = MetricsRegistry::new();
        record_fault_report(&FaultReport::default(), &mut m);
        assert!(m.is_empty());
    }

    #[test]
    fn report_counters_land_under_canonical_names() {
        let report = FaultReport {
            injected: 5,
            crashes: 2,
            stragglers: 1,
            counter_faults: 1,
            preemptions: 1,
            retried: 2,
            recovered: 4,
            abandoned: 1,
            wasted_epoch_secs: 10.0,
            recovery_overhead_secs: 3.0,
        };
        let mut m = MetricsRegistry::new();
        record_fault_report(&report, &mut m);
        assert_eq!(m.counter(FAULTS_INJECTED), 5);
        assert_eq!(m.counter(FAULTS_CRASHES), 2);
        assert_eq!(m.counter(FAULTS_ABANDONED), 1);
    }

    #[test]
    fn slot_speeds_count_straggler_rounds() {
        let mut m = MetricsRegistry::new();
        record_slot_speeds(&[1.0, 1.0], &mut m);
        assert_eq!(m.counter(SLOT_STRAGGLER_ROUNDS), 0);
        record_slot_speeds(&[1.0, 0.5], &mut m);
        assert_eq!(m.counter(SLOT_STRAGGLER_ROUNDS), 1);
        assert_eq!(m.histogram(SLOT_SPEED).unwrap().count(), 4);
    }

    #[test]
    fn fault_attrs_carry_kind_and_severity() {
        let attrs = fault_attrs(&FaultKind::Straggler { slowdown: 2.5 });
        assert_eq!(attrs[0].1, AttrValue::Str("straggler".into()));
        assert_eq!(attrs[1], ("slowdown", AttrValue::F64(2.5)));
        assert_eq!(fault_kind_label(&FaultKind::CounterRead), "counter_read");
    }
}
