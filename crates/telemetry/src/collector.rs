//! The worker-side [`TelemetryBuffer`].
//!
//! Instrumentation sites never write to a shared sink directly: worker
//! threads record into a private, per-trial [`TelemetryBuffer`], and the
//! executor's coordinator merges the buffers into the run's sink **in
//! scheduler request order** as one part of the trial's journal (see
//! `docs/determinism.md`). Telemetry output is therefore a pure function of
//! the run, byte-identical for 1 and N executor workers.

use crate::metrics::MetricsRegistry;
use crate::span::{Attrs, Event, EventKind, Span, SpanKind};

/// A worker-local telemetry buffer.
///
/// Created disabled (every method is a cheap early-return) and enabled by
/// the executor when the environment's [`crate::TelemetryHandle`] is live.
/// Records are merged into the sink in request order and the buffer is
/// emptied, keeping its capacity for the trial's next rung; suppression
/// (see [`TelemetryBuffer::set_suppressed`]) lets crash recovery run a
/// doomed epoch attempt without tracing it.
#[derive(Debug, Clone, Default)]
pub struct TelemetryBuffer {
    enabled: bool,
    suppressed: bool,
    spans: Vec<Span>,
    events: Vec<Event>,
    metrics: MetricsRegistry,
}

impl TelemetryBuffer {
    /// A disabled buffer (the default for every fresh trial).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled, empty buffer.
    pub fn enabled() -> Self {
        TelemetryBuffer { enabled: true, ..Self::default() }
    }

    /// Turns recording on (idempotent; never clears existing records).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether records are currently being kept.
    pub fn is_active(&self) -> bool {
        self.enabled && !self.suppressed
    }

    /// Suppresses (or un-suppresses) recording without dropping what is
    /// already buffered. Crash recovery wraps the rolled-back attempt in a
    /// suppressed window so the trace only shows committed epochs plus the
    /// explicit `fault`/`retry` events.
    pub fn set_suppressed(&mut self, suppressed: bool) {
        self.suppressed = suppressed;
    }

    /// Buffered metric updates.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Runs `f` against the buffered metrics iff the buffer is active —
    /// the hook the per-crate observe helpers plug into.
    pub fn with_metrics<F: FnOnce(&mut MetricsRegistry)>(&mut self, f: F) {
        if self.is_active() {
            f(&mut self.metrics);
        }
    }

    /// Convenience: records a completed span with the given fields.
    /// Returns the local index (0 when inactive — callers treat indices as
    /// opaque).
    #[allow(clippy::too_many_arguments)]
    pub fn push_span(
        &mut self,
        kind: SpanKind,
        label: impl Into<String>,
        parent: Option<u32>,
        start_secs: f64,
        end_secs: f64,
        attrs: Attrs,
    ) -> u32 {
        if !self.is_active() {
            return 0;
        }
        self.span(Span { kind, label: label.into(), parent, start_secs, end_secs, attrs })
    }

    /// Convenience: records an event with the given fields.
    pub fn push_event(&mut self, kind: EventKind, span: Option<u32>, at_secs: f64, attrs: Attrs) {
        if !self.is_active() {
            return;
        }
        self.event(Event { kind, span, at_secs, attrs });
    }

    /// Moves everything buffered to the end of a sink's `spans`, `events`
    /// and `metrics`, leaving the buffer empty (still enabled, capacity
    /// kept). Local span indices are offset by the sink's length; root
    /// spans and span-less events land under `parent`. The handle calls
    /// this under the sink lock, on the coordinator thread, in request
    /// order.
    pub(crate) fn drain_into(
        &mut self,
        parent: Option<u32>,
        spans: &mut Vec<Span>,
        events: &mut Vec<Event>,
        metrics: &mut MetricsRegistry,
    ) {
        let offset = spans.len() as u32;
        spans.extend(
            self.spans
                .drain(..)
                .map(|span| Span { parent: span.parent.map(|p| p + offset).or(parent), ..span }),
        );
        events.extend(
            self.events
                .drain(..)
                .map(|event| Event { span: event.span.map(|s| s + offset).or(parent), ..event }),
        );
        metrics.merge(&self.metrics);
        self.metrics.clear();
    }

    /// Records a complete span; returns its local index for use as a
    /// parent (remapped when the buffer is merged into a sink).
    pub(crate) fn span(&mut self, span: Span) -> u32 {
        if !self.is_active() {
            return 0;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(span);
        idx
    }

    /// Records a point event.
    pub(crate) fn event(&mut self, event: Event) {
        if self.is_active() {
            self.events.push(event);
        }
    }

    /// Adds `delta` to a counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        if self.is_active() {
            self.metrics.counter_add(name, delta);
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        if self.is_active() {
            self.metrics.gauge_set(name, value);
        }
    }

    /// Records a histogram observation (bounds fixed on first use).
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        if self.is_active() {
            self.metrics.observe(name, bounds, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::COUNT_BUCKETS;

    fn span(kind: SpanKind, label: &str, parent: Option<u32>) -> Span {
        Span {
            kind,
            label: label.into(),
            parent,
            start_secs: 0.0,
            end_secs: 1.0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = TelemetryBuffer::disabled();
        buf.span(span(SpanKind::Epoch, "e", None));
        buf.event(Event { kind: EventKind::Probe, span: None, at_secs: 0.0, attrs: vec![] });
        buf.counter_add("c", 1);
        buf.observe("h", COUNT_BUCKETS, 1.0);
        assert!(buf.spans.is_empty());
        assert!(buf.events.is_empty());
        assert!(buf.metrics().is_empty());
    }

    #[test]
    fn suppression_hides_a_window_without_dropping_history() {
        let mut buf = TelemetryBuffer::enabled();
        buf.span(span(SpanKind::Epoch, "kept", None));
        buf.set_suppressed(true);
        buf.span(span(SpanKind::Epoch, "doomed", None));
        buf.counter_add("c", 7);
        buf.set_suppressed(false);
        buf.span(span(SpanKind::Epoch, "kept2", None));
        let labels: Vec<&str> = buf.spans.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["kept", "kept2"]);
        assert_eq!(buf.metrics().counter("c"), 0);
    }

    #[test]
    fn span_indices_are_sequential_and_usable_as_parents() {
        let mut buf = TelemetryBuffer::enabled();
        let a = buf.span(span(SpanKind::Trial, "t", None));
        let b = buf.span(span(SpanKind::Epoch, "e", Some(a)));
        assert_eq!((a, b), (0, 1));
        assert_eq!(buf.spans[1].parent, Some(0));
    }

    #[test]
    fn drain_resets_but_keeps_enabled() {
        let mut buf = TelemetryBuffer::enabled();
        buf.counter_add("c", 2);
        buf.span(span(SpanKind::Epoch, "e", None));
        let capacity = buf.spans.capacity();
        let (mut spans, mut events, mut metrics) = (vec![], vec![], MetricsRegistry::new());
        buf.drain_into(None, &mut spans, &mut events, &mut metrics);
        assert_eq!(spans.len(), 1);
        assert_eq!(metrics.counter("c"), 2);
        assert!(buf.spans.is_empty() && buf.metrics().is_empty());
        assert!(buf.is_active());
        assert_eq!(buf.spans.capacity(), capacity, "the next rung records into the same storage");
    }
}
