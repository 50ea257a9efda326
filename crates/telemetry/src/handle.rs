//! [`TelemetryHandle`]: the cheap, cloneable entry point a run threads
//! through its `ExperimentEnv`.
//!
//! Disabled (the default) it is a `None` — every call is a branch and a
//! return, no allocation, no locking, so instrumented code is zero-cost
//! for callers that never opt in. Enabled, it shares one mutex-guarded
//! sink across all clones, and a call costs one uncontended lock plus what
//! it records: a span is its label and its attribute list, a metric update
//! under a name already seen is a look-up (names and bucket layouts are
//! `&'static`, never copied), and a whole trial-round — trial span, epoch
//! spans, events, metrics — folds in under a single acquisition
//! ([`TelemetryHandle::merge_trial`]). The executor's coordinator is the
//! only writer during a batch merge, so snapshots are consistent and
//! deterministic.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::collector::TelemetryBuffer;
use crate::metrics::MetricsRegistry;
use crate::span::{Attrs, Event, EventKind, Span, SpanKind, SpanRecord};

/// Identifier of a span recorded through a [`TelemetryHandle`].
///
/// [`SpanId::NONE`] is the root sentinel: using it as a parent records a
/// top-level span, and every operation on it through a disabled handle is
/// a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The "no parent" / "disabled" sentinel.
    pub const NONE: SpanId = SpanId(u32::MAX);

    fn to_parent(self) -> Option<u32> {
        (self != SpanId::NONE).then_some(self.0)
    }
}

#[derive(Debug, Default)]
struct Sink {
    spans: Vec<SpanRecord>,
    events: Vec<Event>,
    metrics: MetricsRegistry,
}

/// A consistent copy of everything a run has recorded so far: the span
/// tree, the event log and the metrics registry, all taken under one lock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// All spans, in record order; `parent` indexes into this vector.
    pub spans: Vec<Span>,
    /// All events, in record order; `span` indexes into `spans`.
    pub events: Vec<Event>,
    /// The merged metrics registry.
    pub metrics: MetricsRegistry,
}

/// Shared handle to a run's telemetry sink. See the module docs.
///
/// # Example
///
/// ```
/// use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle};
///
/// let telemetry = TelemetryHandle::enabled();
/// let run = telemetry.open_span(SpanId::NONE, SpanKind::TuningRun, "demo", 0.0, vec![]);
/// telemetry.counter_add("demo.events", 1);
/// telemetry.close_span(run, 12.5);
///
/// let snap = telemetry.snapshot().expect("enabled handle");
/// assert_eq!(snap.spans.len(), 1);
/// assert_eq!(snap.metrics.counter("demo.events"), 1);
///
/// // Disabled handles record nothing and cost nothing.
/// let off = TelemetryHandle::disabled();
/// assert!(off.snapshot().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct TelemetryHandle {
    sink: Option<Arc<Mutex<Sink>>>,
    /// Default parent substituted for [`SpanId::NONE`] at the record
    /// sites: [`SpanId::NONE`] for an ordinary handle, a real span id for
    /// a [`TelemetryHandle::scoped`] one.
    root: SpanId,
}

impl Default for TelemetryHandle {
    fn default() -> Self {
        TelemetryHandle::disabled()
    }
}

impl TelemetryHandle {
    /// A disabled handle: every operation is a no-op (the default).
    pub fn disabled() -> Self {
        TelemetryHandle { sink: None, root: SpanId::NONE }
    }

    /// A live handle with a fresh, empty sink.
    pub fn enabled() -> Self {
        TelemetryHandle { sink: Some(Arc::new(Mutex::new(Sink::default()))), root: SpanId::NONE }
    }

    /// A handle recording into the same sink but with `root` as the
    /// default parent: spans opened (and events recorded) against
    /// [`SpanId::NONE`] through the scoped handle land under `root`
    /// instead of at top level.
    ///
    /// This is how a multi-job service nests each job's `tuning_run` span
    /// under that job's `job` span without the runner knowing it is being
    /// driven by a service: the runner keeps opening its root span with
    /// [`SpanId::NONE`], and the scoped handle re-roots it.
    ///
    /// ```
    /// use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle};
    ///
    /// let telemetry = TelemetryHandle::enabled();
    /// let service = telemetry.open_span(SpanId::NONE, SpanKind::Service, "svc", 0.0, vec![]);
    /// let job = telemetry.open_span(service, SpanKind::Job, "job 0", 0.0, vec![]);
    /// let scoped = telemetry.scoped(job);
    /// let run = scoped.open_span(SpanId::NONE, SpanKind::TuningRun, "run", 0.0, vec![]);
    /// scoped.close_span(run, 1.0);
    /// let snap = telemetry.snapshot().unwrap();
    /// assert_eq!(snap.spans[2].parent, Some(1)); // run nests under the job
    /// ```
    #[must_use]
    pub fn scoped(&self, root: SpanId) -> Self {
        TelemetryHandle { sink: self.sink.clone(), root }
    }

    /// Substitutes the scoped root for the [`SpanId::NONE`] sentinel.
    fn resolve(&self, id: SpanId) -> SpanId {
        if id == SpanId::NONE {
            self.root
        } else {
            id
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Sink>> {
        self.sink.as_ref().map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Opens a span (end time unknown yet) and returns its id.
    /// [`SpanId::NONE`] when disabled.
    pub fn open_span(
        &self,
        parent: SpanId,
        kind: SpanKind,
        label: impl Into<String>,
        start_secs: f64,
        attrs: Attrs,
    ) -> SpanId {
        match self.lock() {
            None => SpanId::NONE,
            Some(mut sink) => {
                let idx = sink.spans.len() as u32;
                let span = Span {
                    kind,
                    label: label.into(),
                    parent: None,
                    start_secs,
                    end_secs: f64::NAN,
                    attrs,
                };
                sink.spans.push(SpanRecord::open(span, self.resolve(parent).to_parent()));
                SpanId(idx)
            }
        }
    }

    /// Closes an open span at `end_secs` (no-op on [`SpanId::NONE`]).
    pub fn close_span(&self, id: SpanId, end_secs: f64) {
        if id == SpanId::NONE {
            return;
        }
        if let Some(mut sink) = self.lock() {
            if let Some(span) = sink.spans.get_mut(id.0 as usize) {
                span.close(end_secs);
            }
        }
    }

    /// Records a point event against `span` (or top-level on
    /// [`SpanId::NONE`]).
    pub fn event(&self, span: SpanId, kind: EventKind, at_secs: f64, attrs: Attrs) {
        if let Some(mut sink) = self.lock() {
            let span = self.resolve(span).to_parent();
            sink.events.push(Event { kind, span, at_secs, attrs });
        }
    }

    /// Adds `delta` to a counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(mut sink) = self.lock() {
            sink.metrics.counter_add(name, delta);
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(mut sink) = self.lock() {
            sink.metrics.gauge_set(name, value);
        }
    }

    /// Records a histogram observation (bounds fixed on first use).
    pub fn observe(&self, name: &'static str, bounds: &'static [f64], value: f64) {
        if let Some(mut sink) = self.lock() {
            sink.metrics.observe(name, bounds, value);
        }
    }

    /// Runs `f` against the sink's metrics registry iff enabled — the
    /// hook the per-crate observe helpers (which take a
    /// `&mut MetricsRegistry`) plug into from the coordinator thread.
    pub fn with_metrics<F: FnOnce(&mut MetricsRegistry)>(&self, f: F) {
        if let Some(mut sink) = self.lock() {
            f(&mut sink.metrics);
        }
    }

    /// Runs `f` against the recorded spans and events under the sink lock,
    /// without cloning — the hook streaming consumers (the
    /// `pipetune-monitor` engine's incremental scans) read the trace
    /// through, each span by [`crate::SpanView`]. `None` when disabled.
    pub fn visit<R>(&self, f: impl FnOnce(&[SpanRecord], &[Event]) -> R) -> Option<R> {
        self.lock().map(|sink| f(&sink.spans, &sink.events))
    }

    /// Records one work item's round under a single lock acquisition: the
    /// completed `trial` span as a child of `parent` (`trial.parent` is
    /// overwritten), then the worker-local `buf` merged beneath it — its
    /// root spans/events re-parented under the trial, its local span
    /// indices remapped, the buffer left empty. The executor calls this
    /// on the coordinator thread in scheduler request order — that
    /// ordering is what makes the final trace independent of worker count.
    pub fn merge_trial(&self, parent: SpanId, trial: Span, buf: &mut TelemetryBuffer) {
        let parent = self.resolve(parent).to_parent();
        let Some(mut sink) = self.lock() else { return };
        let Sink { spans, events, metrics } = &mut *sink;
        let trial_idx = spans.len() as u32;
        spans.push(SpanRecord::open(trial, parent));
        buf.drain_into(Some(trial_idx), spans, events, metrics);
    }

    /// A consistent snapshot of everything recorded so far; `None` when
    /// disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.lock().map(|sink| TelemetrySnapshot {
            spans: sink.spans.iter().map(SpanRecord::to_span).collect(),
            events: sink.events.clone(),
            metrics: sink.metrics.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::COUNT_BUCKETS;
    use crate::span::EpochRow;

    fn trial(label: &str) -> Span {
        Span {
            kind: SpanKind::Trial,
            label: label.into(),
            parent: Some(99), // overwritten by the merge
            start_secs: 0.0,
            end_secs: 1.0,
            attrs: vec![],
        }
    }

    fn epoch(n: u32) -> EpochRow {
        EpochRow {
            epoch: n,
            phase: "probe",
            cores: 4,
            memory_gb: 16,
            freq_mhz: 3500,
            energy_j: 2.5,
            train_score: 0.25,
            duration_secs: 1.0,
            end_secs: f64::from(n),
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TelemetryHandle::disabled();
        let id = h.open_span(SpanId::NONE, SpanKind::TuningRun, "r", 0.0, vec![]);
        assert_eq!(id, SpanId::NONE);
        h.close_span(id, 1.0);
        h.counter_add("c", 1);
        h.observe("h", COUNT_BUCKETS, 1.0);
        assert!(h.snapshot().is_none());
        assert!(!h.is_enabled());
    }

    #[test]
    fn clones_share_one_sink() {
        let h = TelemetryHandle::enabled();
        let h2 = h.clone();
        h.counter_add("c", 1);
        h2.counter_add("c", 2);
        assert_eq!(h.snapshot().unwrap().metrics.counter("c"), 3);
    }

    #[test]
    fn open_close_span_fills_end_time() {
        let h = TelemetryHandle::enabled();
        let run = h.open_span(SpanId::NONE, SpanKind::TuningRun, "r", 0.0, vec![]);
        let rung = h.open_span(run, SpanKind::Rung, "rung 0", 0.0, vec![]);
        h.close_span(rung, 5.0);
        h.close_span(run, 9.0);
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.spans[0].end_secs, 9.0);
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.spans[1].end_secs, 5.0);
    }

    #[test]
    fn scoped_handle_reroots_top_level_records() {
        let h = TelemetryHandle::enabled();
        let service = h.open_span(SpanId::NONE, SpanKind::Service, "svc", 0.0, vec![]);
        let job = h.open_span(service, SpanKind::Job, "job 0", 0.0, vec![]);
        let scoped = h.scoped(job);
        // The runner's idiom — NONE parent — lands under the job.
        let run = scoped.open_span(SpanId::NONE, SpanKind::TuningRun, "run", 0.0, vec![]);
        scoped.event(SpanId::NONE, EventKind::Checkpoint, 0.5, vec![]);
        // Explicit parents are untouched.
        let rung = scoped.open_span(run, SpanKind::Rung, "rung 0", 0.0, vec![]);
        // Trials merged at top level through the scoped handle re-root too.
        let mut buf = TelemetryBuffer::enabled();
        buf.push_epoch(epoch(1));
        scoped.merge_trial(SpanId::NONE, trial("t0"), &mut buf);
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.spans[2].parent, Some(1), "run nests under job");
        assert_eq!(snap.events[0].span, Some(1), "event attaches to job");
        assert_eq!(snap.spans[3].parent, Some(2), "explicit parent wins");
        assert_eq!(snap.spans[4].parent, Some(1), "trial re-roots to job");
        assert_eq!(snap.spans[5].parent, Some(4), "buffer nests under its trial");
        let _ = rung;
        // A scoped clone of a disabled handle stays inert.
        let off = TelemetryHandle::disabled().scoped(job);
        assert!(!off.is_enabled());
        assert_eq!(
            off.open_span(SpanId::NONE, SpanKind::TuningRun, "r", 0.0, vec![]),
            SpanId::NONE
        );
    }

    #[test]
    fn merge_trial_remaps_parents_and_spans() {
        let h = TelemetryHandle::enabled();
        let run = h.open_span(SpanId::NONE, SpanKind::TuningRun, "r", 0.0, vec![]);

        let mut buf = TelemetryBuffer::enabled();
        buf.push_epoch(epoch(1));
        let local = buf.push_epoch(epoch(2));
        buf.push_event(EventKind::Probe, Some(local), 1.5, vec![]);
        buf.push_event(EventKind::GtLookup, None, 0.1, vec![]);
        buf.counter_add("c", 4);

        h.merge_trial(run, trial("t0"), &mut buf);
        let snap = h.snapshot().unwrap();
        // Spans: run (0), trial (1), e1 (2), e2 (3).
        assert_eq!(snap.spans[1].parent, Some(0), "the trial's own parent is the one given");
        assert_eq!(snap.spans[2].parent, Some(1), "buffered epochs nest under the trial");
        assert_eq!(snap.spans[3].parent, Some(1));
        assert_eq!(snap.spans[3].label, "epoch 2 (probe)");
        assert_eq!(snap.events[0].span, Some(3), "local index offsets by sink length");
        assert_eq!(snap.events[1].span, Some(1));
        assert_eq!(snap.metrics.counter("c"), 4);
        // Buffer drained in place (`drain_into`'s own test covers the rest).
        assert!(buf.metrics().is_empty());
    }

    #[test]
    fn a_parsed_epoch_span_equals_the_recorded_one() {
        let h = TelemetryHandle::enabled();
        let run = h.open_span(SpanId::NONE, SpanKind::TuningRun, "r", 0.0, vec![]);
        let mut buf = TelemetryBuffer::enabled();
        for n in 1..=3 {
            buf.push_epoch(EpochRow { energy_j: 0.1 * f64::from(n), ..epoch(n) });
        }
        h.merge_trial(run, trial("t0"), &mut buf);
        h.close_span(run, 3.0);
        let snap = h.snapshot().unwrap();
        let parsed = TelemetrySnapshot::from_json_str(&snap.to_json_string()).unwrap();
        for i in 2..5 {
            assert_eq!(snap.spans[i].kind, SpanKind::Epoch);
            assert_eq!(parsed.spans[i], snap.spans[i], "span {i}");
        }
    }

    #[test]
    fn merge_order_determines_trace_order() {
        // Two trials merged in opposite orders give different byte
        // streams — which is why the executor always merges in request
        // order.
        let build = |first: &str, second: &str| {
            let h = TelemetryHandle::enabled();
            for label in [first, second] {
                h.merge_trial(SpanId::NONE, trial(label), &mut TelemetryBuffer::enabled());
            }
            h.snapshot().unwrap()
        };
        let ab = build("a", "b");
        let ba = build("b", "a");
        assert_ne!(ab.spans, ba.spans);
        assert_eq!(ab.spans[0].label, "a");
    }
}
