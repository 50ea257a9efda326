//! The streaming evaluation engine: cursor-based incremental scans over
//! the telemetry stream, the [`Detector`] contract, and the
//! [`IncidentTimeline`] the firings collect into.

use pipetune_telemetry::{Event, MetricsRegistry, Span, SpanKind, TelemetrySnapshot};

use crate::alert::{Alert, IncidentTimeline};
use crate::detectors::{
    CacheThrashDetector, CrashLoopDetector, QueueGrowthDetector, SloBurnDetector, StallDetector,
};

/// Structural view of the trace delivered so far — span kinds, labels and
/// parent links, read in place from the stream the engine is handed — so
/// detectors can resolve source paths and ancestors without a copy of
/// their own.
#[derive(Debug)]
pub(crate) struct TraceIndex<'a> {
    spans: &'a [Span],
}

impl<'a> TraceIndex<'a> {
    /// A view over `spans`, the trace's span vector up to and including
    /// the observation being delivered.
    pub(crate) fn over(spans: &'a [Span]) -> Self {
        TraceIndex { spans }
    }

    /// The nearest ancestor of `idx` (including `idx` itself) with the
    /// given kind.
    pub(crate) fn ancestor_of_kind(&self, idx: u32, kind: SpanKind) -> Option<u32> {
        let mut cursor = Some(idx);
        while let Some(i) = cursor {
            let span = self.spans.get(i as usize)?;
            if span.kind == kind {
                return Some(i);
            }
            cursor = earlier_parent(i, span);
        }
        None
    }

    /// Root-first human path of span `idx`, labels joined with `" > "`
    /// (the [`Alert::source`] format).
    pub(crate) fn path(&self, idx: u32) -> String {
        let mut labels = Vec::new();
        let mut cursor = Some(idx);
        while let Some(i) = cursor {
            let Some(span) = self.spans.get(i as usize) else { break };
            labels.push(span.label.as_str());
            cursor = earlier_parent(i, span);
        }
        labels.reverse();
        labels.join(" > ")
    }
}

/// The parent of span `idx` when it was recorded before `idx` — the
/// recording contract, and `TelemetrySnapshot::validate`'s `OrphanParent`
/// rule. An unvalidated trace can link a span to itself or to a later
/// span; stopping there keeps every walk finite.
fn earlier_parent(idx: u32, span: &Span) -> Option<u32> {
    span.parent.filter(|&p| p < idx)
}

/// A streaming detector: a pure function of the observation stream.
///
/// The engine delivers every span **once, at record time** (spans before
/// events within each scan) and every event once, in record order — the
/// same scheduler-request order the telemetry merge discipline pins, so
/// the delivered stream is byte-identical for any worker count *and* any
/// scan granularity. Two contract clauses keep live scans and offline
/// replay identical:
///
/// * A span's `end_secs` may still be the open sentinel (`NaN`) when
///   delivered live but finite when replayed from a finished trace —
///   only read it for kinds recorded complete (epoch spans; worker
///   buffers push them closed).
/// * An alert evaluated while processing an observation may only depend
///   on observations with timestamps at or before the trigger's — later
///   arrivals exist in an offline replay but not live.
pub(crate) trait Detector: Send {
    /// Called once per span, at record time.
    fn on_span(&mut self, _ctx: &TraceIndex<'_>, _idx: u32, _span: &Span, _out: &mut Vec<Alert>) {}

    /// Called once per event, in record order.
    fn on_event(
        &mut self,
        _ctx: &TraceIndex<'_>,
        _idx: usize,
        _event: &Event,
        _out: &mut Vec<Alert>,
    ) {
    }

    /// Called once when the run is over, with the final metrics registry
    /// — the hook for end-of-run evidence like eviction-churn ratios.
    fn finish(&mut self, _metrics: &MetricsRegistry, _out: &mut Vec<Alert>) {}
}

/// The detector set a monitor runs: always all five, at the window
/// constants listed in `docs/monitoring.md`. A monitor that watches nothing
/// is `MonitorHandle::disabled()`.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig(());

impl MonitorConfig {
    /// The five detectors — what `pipetune-bench headline --chaos` and
    /// `pipetune-bench trace watch` run.
    pub fn standard() -> Self {
        MonitorConfig(())
    }
}

/// The streaming engine: feeds the telemetry stream through the five
/// detectors and accumulates their firings.
///
/// Scans are **cursor-based and incremental** — each
/// [`MonitorEngine::observe`] call processes only the spans and events
/// recorded since the previous call, so a live engine scanned after
/// every scheduler round and an offline engine replaying the finished
/// trace in one shot deliver the *same* observation stream and produce
/// byte-identical timelines (pinned by `tests/monitor_determinism.rs`).
pub struct MonitorEngine {
    detectors: Vec<Box<dyn Detector>>,
    span_cursor: usize,
    event_cursor: usize,
    fired: Vec<Alert>,
    finished: Option<IncidentTimeline>,
}

impl MonitorEngine {
    /// An engine running the five detectors.
    pub fn new(_config: &MonitorConfig) -> Self {
        MonitorEngine::with_detectors(vec![
            Box::new(StallDetector::new()),
            Box::new(CrashLoopDetector::new()),
            Box::new(SloBurnDetector::new()),
            Box::new(CacheThrashDetector::new()),
            Box::new(QueueGrowthDetector::new()),
        ])
    }

    fn with_detectors(detectors: Vec<Box<dyn Detector>>) -> Self {
        MonitorEngine {
            detectors,
            span_cursor: 0,
            event_cursor: 0,
            fired: Vec::new(),
            finished: None,
        }
    }

    /// Processes everything recorded since the previous scan: new spans
    /// first (each sees the trace up to and including itself), then new
    /// events (which see every span). `spans` and `events` must be the
    /// same growing vectors every time — i.e. one engine watches one
    /// telemetry sink.
    pub fn observe(&mut self, spans: &[Span], events: &[Event]) {
        debug_assert!(self.finished.is_none(), "observe after finish is ignored evidence");
        for (i, span) in spans.iter().enumerate().skip(self.span_cursor) {
            let index = TraceIndex::over(&spans[..=i]);
            for detector in &mut self.detectors {
                detector.on_span(&index, i as u32, span, &mut self.fired);
            }
        }
        self.span_cursor = spans.len();
        let index = TraceIndex::over(spans);
        for (i, event) in events.iter().enumerate().skip(self.event_cursor) {
            for detector in &mut self.detectors {
                detector.on_event(&index, i, event, &mut self.fired);
            }
        }
        self.event_cursor = events.len();
    }

    /// Convenience: one-shot scan of a finished snapshot (the offline
    /// `pipetune-bench trace watch` path).
    pub fn observe_snapshot(&mut self, snapshot: &TelemetrySnapshot) {
        self.observe(&snapshot.spans, &snapshot.events);
    }

    /// Ends the run: runs every detector's finish hook against the final
    /// metrics, sorts the firings into the canonical order and returns
    /// the timeline. Idempotent — later calls return the same timeline
    /// without re-running the hooks.
    pub fn finish(&mut self, metrics: &MetricsRegistry) -> IncidentTimeline {
        if let Some(done) = &self.finished {
            return done.clone();
        }
        for detector in &mut self.detectors {
            detector.finish(metrics, &mut self.fired);
        }
        let timeline = IncidentTimeline::from_alerts(std::mem::take(&mut self.fired));
        self.finished = Some(timeline.clone());
        timeline
    }
}

impl std::fmt::Debug for MonitorEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorEngine")
            .field("detectors", &self.detectors.len())
            .field("span_cursor", &self.span_cursor)
            .field("event_cursor", &self.event_cursor)
            .field("fired", &self.fired.len())
            .field("finished", &self.finished.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_telemetry::EventKind;

    fn span(kind: SpanKind, label: &str, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span { kind, label: label.into(), parent, start_secs: start, end_secs: end, attrs: vec![] }
    }

    #[test]
    fn trace_index_resolves_paths_and_ancestors() {
        let spans = [
            span(SpanKind::Service, "svc", None, 0.0, 10.0),
            span(SpanKind::Job, "job 0", Some(0), 0.0, 8.0),
            span(SpanKind::TuningRun, "run", Some(1), 0.0, 8.0),
        ];
        let idx = TraceIndex::over(&spans);
        assert_eq!(idx.path(2), "svc > job 0 > run");
        assert_eq!(idx.ancestor_of_kind(2, SpanKind::Job), Some(1));
        assert_eq!(idx.ancestor_of_kind(2, SpanKind::TuningRun), Some(2));
        assert_eq!(idx.ancestor_of_kind(1, SpanKind::Epoch), None);
        // A parent that is not an earlier span ends the walk.
        let looped = [
            span(SpanKind::Rung, "round 0", Some(1), 0.0, 10.0),
            span(SpanKind::Trial, "trial 0", Some(1), 0.0, 8.0),
        ];
        let idx = TraceIndex::over(&looped);
        assert_eq!(idx.path(1), "trial 0");
        assert_eq!(idx.path(0), "round 0");
        assert_eq!(idx.ancestor_of_kind(1, SpanKind::Job), None);
        assert_eq!(idx.ancestor_of_kind(0, SpanKind::Trial), None);
    }

    /// A detector that alerts on every observation — enough to pin the
    /// scan-granularity invariance of the engine itself.
    struct EveryObservation;
    impl Detector for EveryObservation {
        fn on_span(&mut self, ctx: &TraceIndex<'_>, idx: u32, span: &Span, out: &mut Vec<Alert>) {
            out.push(Alert {
                detector: "stall",
                severity: crate::Severity::Info,
                source: ctx.path(idx),
                span: Some(idx),
                at_secs: span.start_secs,
                message: format!("span {idx}"),
                evidence: vec![],
            });
        }
        fn on_event(
            &mut self,
            _ctx: &TraceIndex<'_>,
            idx: usize,
            event: &Event,
            out: &mut Vec<Alert>,
        ) {
            out.push(Alert {
                detector: "stall",
                severity: crate::Severity::Info,
                source: String::new(),
                span: event.span,
                at_secs: event.at_secs,
                message: format!("event {idx}"),
                evidence: vec![],
            });
        }
    }

    #[test]
    fn incremental_scans_match_one_shot_replay() {
        let spans = vec![
            span(SpanKind::TuningRun, "run", None, 0.0, 100.0),
            span(SpanKind::Rung, "round 0", Some(0), 0.0, 50.0),
            span(SpanKind::Rung, "round 1", Some(0), 50.0, 100.0),
        ];
        let events = vec![
            Event { kind: EventKind::Fault, span: Some(1), at_secs: 10.0, attrs: vec![] },
            Event { kind: EventKind::Retry, span: Some(2), at_secs: 60.0, attrs: vec![] },
        ];
        let metrics = MetricsRegistry::new();

        let mut live = MonitorEngine::with_detectors(vec![Box::new(EveryObservation)]);
        // Three scans of growing prefixes (span/event arrival interleaved).
        live.observe(&spans[..1], &events[..0]);
        live.observe(&spans[..2], &events[..1]);
        live.observe(&spans, &events);
        let live_timeline = live.finish(&metrics);

        let mut offline = MonitorEngine::with_detectors(vec![Box::new(EveryObservation)]);
        offline.observe(&spans, &events);
        let offline_timeline = offline.finish(&metrics);

        assert_eq!(live_timeline, offline_timeline);
        assert_eq!(live_timeline.len(), 5);
        assert_eq!(live_timeline.to_json_string(), offline_timeline.to_json_string());
        // finish() is idempotent.
        assert_eq!(live.finish(&metrics), live_timeline);
    }

    #[test]
    fn parent_loops_end_the_walk() {
        // An unvalidated trace (any `TelemetrySnapshot::from_json_str`
        // result) may link a span to itself: here a self-parented trial
        // whose three faults make the crash-loop detector walk up from it
        // looking for a job. The engine runs on a worker thread so a walk
        // that never ends fails the test instead of hanging it.
        let spans = vec![span(SpanKind::Trial, "trial 0", Some(0), 0.0, 100.0)];
        let fault =
            |at: f64| Event { kind: EventKind::Fault, span: Some(0), at_secs: at, attrs: vec![] };
        let events = vec![fault(1.0), fault(2.0), fault(3.0)];
        let (done, result) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut engine = MonitorEngine::new(&MonitorConfig::standard());
            engine.observe(&spans, &events);
            done.send(engine.finish(&MetricsRegistry::new())).expect("the test is waiting");
        });
        let timeline = result
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the monitor returns on a trace whose parent links loop");
        worker.join().expect("the engine thread ran to completion");
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline.count_for("crash_loop"), 1);
        assert_eq!(timeline.alerts[0].source, "trial 0", "bucketed by the trial itself");
    }
}
