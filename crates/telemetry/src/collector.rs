//! The worker-side [`TelemetryBuffer`].
//!
//! Instrumentation sites never write to a shared sink directly: worker
//! threads record into a private, per-trial [`TelemetryBuffer`], and the
//! executor's coordinator merges the buffers into the run's sink **in
//! scheduler request order** as one part of the trial's journal (see
//! `docs/determinism.md`). Telemetry output is therefore a pure function of
//! the run, byte-identical for 1 and N executor workers.

use crate::metrics::MetricsRegistry;
use crate::span::{Attrs, EpochRow, Event, EventKind, SpanRecord};

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
    /// The trial's epoch spans, as rows: the merge writes each into the
    /// sink as its span.
    epochs: Vec<EpochRow>,
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

    /// Records a committed epoch's span as a typed row and returns its
    /// local index, usable as an event's span (0 when inactive — callers
    /// treat indices as opaque). The merge places it under the trial.
    pub fn push_epoch(&mut self, row: EpochRow) -> u32 {
        if !self.is_active() {
            return 0;
        }
        let idx = self.epochs.len() as u32;
        self.epochs.push(row);
        idx
    }

    /// Runs `f` over the epoch rows buffered since the last merge and the
    /// buffered metrics, iff the buffer is active: the hook that folds
    /// what every epoch adds to the metrics into the trial-round merge.
    pub fn fold_epochs<F: FnOnce(&[EpochRow], &mut MetricsRegistry)>(&mut self, f: F) {
        if self.is_active() {
            f(&self.epochs, &mut self.metrics);
        }
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
    /// kept): each epoch row becomes its span under `parent`, local span
    /// indices are offset by the sink's length and span-less events land
    /// under `parent`. The handle calls this under the sink lock, on the
    /// coordinator thread, in request order.
    pub(crate) fn drain_into(
        &mut self,
        parent: Option<u32>,
        spans: &mut Vec<SpanRecord>,
        events: &mut Vec<Event>,
        metrics: &mut MetricsRegistry,
    ) {
        let offset = spans.len() as u32;
        spans.extend(self.epochs.drain(..).map(|row| SpanRecord::epoch(parent, row)));
        events.extend(
            self.events
                .drain(..)
                .map(|event| Event { span: event.span.map(|s| s + offset).or(parent), ..event }),
        );
        metrics.merge(&self.metrics);
        self.metrics.clear();
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
    use crate::span::SpanView;

    fn row(epoch: u32) -> EpochRow {
        EpochRow {
            epoch,
            phase: "fixed",
            cores: 8,
            memory_gb: 32,
            freq_mhz: 3500,
            energy_j: 10.0,
            train_score: 0.5,
            duration_secs: 1.0,
            end_secs: f64::from(epoch),
        }
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = TelemetryBuffer::disabled();
        buf.push_epoch(row(1));
        buf.event(Event { kind: EventKind::Probe, span: None, at_secs: 0.0, attrs: vec![] });
        buf.counter_add("c", 1);
        buf.observe("h", COUNT_BUCKETS, 1.0);
        let mut folded = false;
        buf.fold_epochs(|_, _| folded = true);
        assert!(buf.epochs.is_empty() && !folded);
        assert!(buf.events.is_empty());
        assert!(buf.metrics().is_empty());
    }

    #[test]
    fn suppression_hides_a_window_without_dropping_history() {
        let mut buf = TelemetryBuffer::enabled();
        buf.push_epoch(row(1));
        buf.set_suppressed(true);
        buf.push_epoch(row(2));
        buf.counter_add("c", 7);
        buf.set_suppressed(false);
        buf.push_epoch(row(3));
        let epochs: Vec<u32> = buf.epochs.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, [1, 3]);
        assert_eq!(buf.metrics().counter("c"), 0);
    }

    #[test]
    fn epoch_indices_are_sequential() {
        let mut buf = TelemetryBuffer::enabled();
        assert_eq!((buf.push_epoch(row(1)), buf.push_epoch(row(2))), (0, 1));
    }

    #[test]
    fn drain_resets_but_keeps_enabled() {
        let mut buf = TelemetryBuffer::enabled();
        buf.counter_add("c", 2);
        buf.push_epoch(row(4));
        buf.fold_epochs(|rows, m| m.counter_add("rows", rows.len() as u64));
        let capacity = buf.epochs.capacity();
        let (mut spans, mut events, mut metrics) = (vec![], vec![], MetricsRegistry::new());
        buf.drain_into(Some(7), &mut spans, &mut events, &mut metrics);
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].parent(), spans[0].start_secs(), spans[0].end_secs()),
            (Some(7), 3.0, 4.0)
        );
        assert_eq!(spans[0].label(), "epoch 4 (fixed)");
        assert_eq!((metrics.counter("c"), metrics.counter("rows")), (2, 1));
        assert!(buf.epochs.is_empty() && buf.metrics().is_empty());
        assert!(buf.is_active());
        assert_eq!(buf.epochs.capacity(), capacity, "the next rung records into the same storage");
    }
}
