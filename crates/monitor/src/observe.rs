//! Canonical metric names the monitor injects alongside its alert
//! events (see `pipetune_telemetry::names`).

pipetune_telemetry::metric_names! {
    /// Total detector firings folded into the trace.
    pub(crate) const ALERTS_TOTAL = "monitor.alerts_total";
    /// Stall/straggler watchdog firings.
    pub(crate) const ALERTS_STALL = "monitor.alerts.stall";
    /// Crash-loop detector firings.
    pub(crate) const ALERTS_CRASH_LOOP = "monitor.alerts.crash_loop";
    /// SLO burn-rate detector firings.
    pub(crate) const ALERTS_SLO_BURN = "monitor.alerts.slo_burn";
    /// Cache-thrash detector firings.
    pub(crate) const ALERTS_CACHE_THRASH = "monitor.alerts.cache_thrash";
    /// Admission/queue-growth detector firings.
    pub(crate) const ALERTS_QUEUE_GROWTH = "monitor.alerts.queue_growth";
}

/// The per-detector counter for a canonical detector name (the
/// `monitor.alerts.<detector>` family is a closed set, so an unknown
/// detector is a programming error).
pub(crate) fn detector_counter(detector: &str) -> &'static str {
    match detector {
        crate::detectors::STALL => ALERTS_STALL,
        crate::detectors::CRASH_LOOP => ALERTS_CRASH_LOOP,
        crate::detectors::SLO_BURN => ALERTS_SLO_BURN,
        crate::detectors::CACHE_THRASH => ALERTS_CACHE_THRASH,
        crate::detectors::QUEUE_GROWTH => ALERTS_QUEUE_GROWTH,
        other => panic!("unregistered detector name {other:?}"),
    }
}
