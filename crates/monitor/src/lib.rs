//! Online monitoring for PipeTune runs: streaming detectors over the
//! deterministic telemetry stream, collected into a sorted incident
//! timeline.
//!
//! The paper's tuning loop already emits a complete, byte-identical
//! trace of every run (see `pipetune-telemetry`): spans on simulated
//! clocks, point events, metrics — merged in scheduler request order so
//! the stream is the same for 1 worker or 64. This crate closes the
//! loop *online*: a [`MonitorEngine`] consumes that stream as it is
//! recorded and runs five detectors, each over sliding windows backed by
//! ring buffers, at fixed window constants (`docs/monitoring.md`):
//!
//! * `stall` — stall/straggler watchdog (epoch duration vs. a rolling
//!   window).
//! * `crash_loop` — retry bursts per `(job, trial)` source within a
//!   sliding window.
//! * `slo_burn` — multi-window (fast/slow, SRE-style) deadline burn-rate
//!   alerts for `with_deadline` services.
//! * `cache_thrash` — epoch-cache hit-rate collapse and eviction churn.
//! * `queue_growth` — admission rejections and backlog depth in the
//!   multi-job service.
//!
//! Firings become typed [`Alert`] records collected into a
//! deterministic, sorted [`IncidentTimeline`] — exportable as
//! sorted-key JSON, injectable back into the trace as `alert` point
//! events plus `monitor.*` counters, and replayable offline
//! (`pipetune-bench trace watch`) with byte-identical results.
//!
//! # Determinism contract
//!
//! The engine is cursor-based: every span and event is delivered to the
//! detectors exactly once, in record order, regardless of how the
//! stream is chopped into scans. Detectors are pure stream processors
//! honouring two clauses (never read a non-epoch span's
//! `end_secs`; never let an alert depend on observations later than its
//! trigger), and the final timeline is sorted by a total order over
//! alerts. Consequences, all pinned by tests:
//!
//! * one timeline for workers 1, 4 and 64;
//! * live per-round scans ≡ one-shot offline replay of the exported
//!   trace;
//! * a live monitor only reads: the trace and metrics it watches are
//!   bit-identical to a run without it.
//!
//! # Example
//!
//! ```
//! use pipetune_monitor::{MonitorConfig, MonitorEngine};
//! use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle};
//!
//! let telemetry = TelemetryHandle::enabled();
//! let trial = telemetry.open_span(SpanId::NONE, SpanKind::Trial, "trial 0", 0.0, vec![]);
//! for e in 0..10u32 {
//!     let (start, end) = (f64::from(e) * 10.0, f64::from(e) * 10.0 + 10.0);
//!     let span = telemetry.open_span(trial, SpanKind::Epoch, format!("epoch {e}"), start, vec![]);
//!     telemetry.close_span(span, end);
//! }
//! // One pathological epoch: 20× the rolling mean.
//! let span = telemetry.open_span(trial, SpanKind::Epoch, "epoch 10", 100.0, vec![]);
//! telemetry.close_span(span, 300.0);
//! telemetry.close_span(trial, 300.0);
//!
//! let mut engine = MonitorEngine::new(&MonitorConfig::standard());
//! let snap = telemetry.snapshot().unwrap();
//! engine.observe_snapshot(&snap);
//! let timeline = engine.finish(&snap.metrics);
//! assert_eq!(timeline.count_for("stall"), 1);
//! ```

#![warn(missing_docs)]

mod alert;
mod detectors;
mod engine;
pub mod observe;
mod window;

pub use alert::{Alert, IncidentTimeline, Severity};
pub use engine::{MonitorConfig, MonitorEngine};

use std::sync::{Arc, Mutex, MutexGuard};

use pipetune_telemetry::TelemetryHandle;

/// Shared handle to a run's monitor engine, mirroring
/// [`TelemetryHandle`]'s cost model: disabled (the default) it is a
/// `None` and every call is a branch and a return; enabled, all clones
/// share one mutex-guarded [`MonitorEngine`].
///
/// The runner scans it after every scheduler round and the service after
/// every dispatch step — both no-ops unless the handle is enabled.
///
/// ```
/// use pipetune_monitor::{MonitorConfig, MonitorHandle};
/// use pipetune_telemetry::TelemetryHandle;
///
/// let telemetry = TelemetryHandle::enabled();
/// let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
/// monitor.scan(&telemetry);
/// let timeline = monitor.finish(&telemetry).unwrap();
/// assert!(timeline.is_empty()); // nothing was recorded
///
/// // Disabled handles observe nothing and return no timeline.
/// assert!(MonitorHandle::disabled().finish(&telemetry).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MonitorHandle {
    engine: Option<Arc<Mutex<MonitorEngine>>>,
}

impl MonitorHandle {
    /// A disabled handle: every operation is a no-op (the default).
    pub fn disabled() -> Self {
        MonitorHandle { engine: None }
    }

    /// A live handle running the five detectors.
    pub fn enabled() -> Self {
        MonitorHandle::with_config(&MonitorConfig::standard())
    }

    /// A live handle running the five detectors (the same as
    /// [`MonitorHandle::enabled`]).
    pub fn with_config(config: &MonitorConfig) -> Self {
        MonitorHandle { engine: Some(Arc::new(Mutex::new(MonitorEngine::new(config)))) }
    }

    /// Whether this handle carries a live engine.
    pub fn is_enabled(&self) -> bool {
        self.engine.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, MonitorEngine>> {
        // A panic while holding the lock poisons it; the engine state
        // itself is still coherent (detectors mutate before any panic
        // path), so keep observing rather than silently going dark.
        self.engine.as_ref().map(|e| e.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Incrementally scans everything `telemetry` has recorded since the
    /// previous scan, under the telemetry sink lock (no cloning). No-op
    /// when either handle is disabled.
    pub fn scan(&self, telemetry: &TelemetryHandle) {
        if let Some(mut engine) = self.lock() {
            telemetry.visit(|spans, events| engine.observe(spans, events));
        }
    }

    /// Ends the run: one final scan, then the detectors' finish hooks
    /// against the final metrics. Returns the canonical timeline, or
    /// `None` when this handle is disabled. Idempotent.
    pub fn finish(&self, telemetry: &TelemetryHandle) -> Option<IncidentTimeline> {
        let mut engine = self.lock()?;
        telemetry.visit(|spans, events| engine.observe(spans, events));
        let mut timeline = None;
        telemetry.with_metrics(|metrics| timeline = Some(engine.finish(metrics)));
        // A disabled telemetry handle never ran with_metrics; finish
        // against an empty registry so the timeline still materialises.
        Some(timeline.unwrap_or_else(|| engine.finish(&pipetune_telemetry::MetricsRegistry::new())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_telemetry::{SpanId, SpanKind};

    #[test]
    fn disabled_handle_is_a_no_op() {
        let telemetry = TelemetryHandle::enabled();
        let monitor = MonitorHandle::disabled();
        assert!(!monitor.is_enabled());
        monitor.scan(&telemetry);
        assert!(monitor.finish(&telemetry).is_none());
    }

    #[test]
    fn incremental_scans_equal_one_final_scan() {
        let build = |scans: usize| {
            let telemetry = TelemetryHandle::enabled();
            let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
            let trial = telemetry.open_span(SpanId::NONE, SpanKind::Trial, "trial 0", 0.0, vec![]);
            for e in 0..12u32 {
                let start = f64::from(e) * 10.0;
                let dur = if e == 11 { 500.0 } else { 10.0 };
                let span = telemetry.open_span(
                    trial,
                    SpanKind::Epoch,
                    format!("epoch {e}"),
                    start,
                    vec![],
                );
                telemetry.close_span(span, start + dur);
                if scans > 0 && (e as usize).is_multiple_of(scans) {
                    monitor.scan(&telemetry);
                }
            }
            telemetry.close_span(trial, 610.0);
            monitor.finish(&telemetry).unwrap()
        };
        let one_shot = build(0);
        assert_eq!(one_shot.count_for("stall"), 1);
        for scans in [1, 2, 5] {
            assert_eq!(build(scans), one_shot);
            assert_eq!(build(scans).to_json_string(), one_shot.to_json_string());
        }
    }

    #[test]
    fn finish_works_against_disabled_telemetry() {
        let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
        let timeline = monitor.finish(&TelemetryHandle::disabled()).unwrap();
        assert!(timeline.is_empty());
    }
}
