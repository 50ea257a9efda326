//! Canonical metric-name registry.
//!
//! Every subsystem declares its metric names through the
//! [`metric_names!`](crate::metric_names) macro, which emits the usual
//! documented `const` items **plus** an `ALL_METRIC_NAMES` slice
//! listing them. A registry check ([`unregistered`]) then asserts that a
//! recorded snapshot only contains registered names — the guard that kills
//! typo drift like `service.jobs_shed` vs `service.job_shed` before it
//! reaches dashboards or the regression gate.
//!
//! The macro keeps each `observe` module the single source of truth for
//! its own names (no central file to forget to update); the slice it
//! generates is what makes the names *enumerable*, so a full chaos run can
//! be diffed against the union of every subsystem's slice (see
//! `tests/metric_names.rs` at the workspace root).

use crate::handle::TelemetrySnapshot;

/// Declares canonical metric names and the registry slice that enumerates
/// them.
///
/// Each entry becomes a documented `const NAME: &str = "..."` exactly as
/// if written by hand, with the visibility it is declared with (a name
/// only its own crate records is `pub(crate)`); the macro additionally
/// emits `pub const ALL_METRIC_NAMES: &[&str]` listing every declared
/// name so registry checks can enumerate the module's vocabulary.
///
/// ```
/// mod observe {
///     pipetune_telemetry::metric_names! {
///         /// Total demo events.
///         pub const EVENTS = "demo.events";
///         /// Demo queue depth gauge.
///         pub(crate) const QUEUE_DEPTH = "demo.queue_depth";
///     }
/// }
/// assert_eq!(observe::EVENTS, "demo.events");
/// assert_eq!(observe::ALL_METRIC_NAMES, ["demo.events", "demo.queue_depth"]);
/// ```
#[macro_export]
macro_rules! metric_names {
    ($($(#[$meta:meta])* $vis:vis const $name:ident = $value:literal;)+) => {
        $($(#[$meta])* $vis const $name: &str = $value;)+
        /// Every canonical metric name this module declares, for registry
        /// checks (see `pipetune_telemetry::names`).
        pub const ALL_METRIC_NAMES: &[&str] = &[$($name),+];
    };
}

/// Names recorded in `snapshot`'s metrics registry that appear in none of
/// the `registered` slices, sorted and de-duplicated (empty means every
/// emitted name is registered).
pub fn unregistered(snapshot: &TelemetrySnapshot, registered: &[&[&str]]) -> Vec<String> {
    let known: std::collections::BTreeSet<&str> =
        registered.iter().flat_map(|slice| slice.iter().copied()).collect();
    let mut missing: Vec<String> = snapshot
        .metrics
        .counters()
        .map(|(name, _)| name)
        .chain(snapshot.metrics.gauges().map(|(name, _)| name))
        .chain(snapshot.metrics.histograms().map(|(name, _)| name))
        .filter(|name| !known.contains(name))
        .map(str::to_string)
        .collect();
    missing.sort();
    missing.dedup();
    missing
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slice `metric_names!` would emit for two demo names (the macro's
    /// own doctest pins that expansion).
    const REGISTERED: &[&str] = &["demo.epochs", "demo.epoch_secs"];

    #[test]
    fn unregistered_reports_unknown_names_only() {
        let mut snap = TelemetrySnapshot::default();
        snap.metrics.counter_add(REGISTERED[0], 1);
        snap.metrics.counter_add("demo.typo", 1);
        snap.metrics.gauge_set("demo.rogue_gauge", 0.5);
        snap.metrics.observe(REGISTERED[1], &[1.0], 0.5);
        assert_eq!(
            unregistered(&snap, &[REGISTERED]),
            vec!["demo.rogue_gauge".to_string(), "demo.typo".to_string()]
        );
        snap.metrics.counter_add("demo.typo", 1);
        let empty: Vec<String> = vec![];
        assert_eq!(unregistered(&snap, &[REGISTERED, &["demo.typo", "demo.rogue_gauge"]]), empty);
    }
}
