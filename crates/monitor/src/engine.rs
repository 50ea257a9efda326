//! The streaming evaluation engine: cursor-based incremental scans over
//! the telemetry stream, the [`Detector`] contract, and the
//! [`IncidentTimeline`] the firings collect into.

use pipetune_telemetry::{Event, MetricsRegistry, Span, SpanKind, TelemetrySnapshot};

use crate::alert::{Alert, IncidentTimeline};
use crate::detectors::{
    CacheThrashConfig, CacheThrashDetector, CrashLoopConfig, CrashLoopDetector, QueueGrowthConfig,
    QueueGrowthDetector, SloBurnConfig, SloBurnDetector, StallConfig, StallDetector,
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
            cursor = span.parent;
        }
        None
    }

    /// Root-first human path of span `idx`, labels joined with `" > "`
    /// (the [`Alert::source`] format).
    pub(crate) fn path(&self, idx: u32) -> String {
        let mut labels = Vec::new();
        let mut cursor = Some(idx);
        while let Some(span) = cursor.and_then(|i| self.spans.get(i as usize)) {
            labels.push(span.label.as_str());
            cursor = span.parent;
        }
        labels.reverse();
        labels.join(" > ")
    }
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

/// Which detectors run, with their window parameters. The default is the
/// empty set: an engine with no detectors never fires, injects nothing,
/// and leaves every artefact bit-identical to a build without the
/// monitor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorConfig {
    /// Stall/straggler watchdog, when enabled.
    pub stall: Option<StallConfig>,
    /// Crash-loop detector, when enabled.
    pub crash_loop: Option<CrashLoopConfig>,
    /// Multi-window SLO burn-rate detector, when enabled.
    pub slo_burn: Option<SloBurnConfig>,
    /// Cache-thrash detector, when enabled.
    pub cache_thrash: Option<CacheThrashConfig>,
    /// Admission/queue-growth detector, when enabled.
    pub queue_growth: Option<QueueGrowthConfig>,
}

impl MonitorConfig {
    /// No detectors (the default): scanning is a cursor advance and
    /// nothing else.
    pub fn none() -> Self {
        MonitorConfig::default()
    }

    /// Every detector at its default window parameters — what
    /// `pipetune-bench headline --chaos` and `pipetune-bench trace watch` run.
    pub fn standard() -> Self {
        MonitorConfig {
            stall: Some(StallConfig::default()),
            crash_loop: Some(CrashLoopConfig::default()),
            slo_burn: Some(SloBurnConfig::default()),
            cache_thrash: Some(CacheThrashConfig::default()),
            queue_growth: Some(QueueGrowthConfig::default()),
        }
    }

    fn build(&self) -> Vec<Box<dyn Detector>> {
        let mut detectors: Vec<Box<dyn Detector>> = Vec::new();
        if let Some(cfg) = &self.stall {
            detectors.push(Box::new(StallDetector::new(cfg.clone())));
        }
        if let Some(cfg) = &self.crash_loop {
            detectors.push(Box::new(CrashLoopDetector::new(cfg.clone())));
        }
        if let Some(cfg) = &self.slo_burn {
            detectors.push(Box::new(SloBurnDetector::new(cfg.clone())));
        }
        if let Some(cfg) = &self.cache_thrash {
            detectors.push(Box::new(CacheThrashDetector::new(cfg.clone())));
        }
        if let Some(cfg) = &self.queue_growth {
            detectors.push(Box::new(QueueGrowthDetector::new(cfg.clone())));
        }
        detectors
    }
}

/// The streaming engine: feeds the telemetry stream through the
/// configured detectors and accumulates their firings.
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
    /// An engine running `config`'s detectors.
    pub fn new(config: &MonitorConfig) -> Self {
        MonitorEngine {
            detectors: config.build(),
            span_cursor: 0,
            event_cursor: 0,
            fired: Vec::new(),
            finished: None,
        }
    }

    /// Whether any detector is configured (an empty engine only advances
    /// cursors).
    pub(crate) fn has_detectors(&self) -> bool {
        !self.detectors.is_empty()
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
    use pipetune_telemetry::{AttrValue, EventKind};

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

        let mut live = MonitorEngine::new(&MonitorConfig::none());
        live.detectors.push(Box::new(EveryObservation));
        // Three scans of growing prefixes (span/event arrival interleaved).
        live.observe(&spans[..1], &events[..0]);
        live.observe(&spans[..2], &events[..1]);
        live.observe(&spans, &events);
        let live_timeline = live.finish(&metrics);

        let mut offline = MonitorEngine::new(&MonitorConfig::none());
        offline.detectors.push(Box::new(EveryObservation));
        offline.observe(&spans, &events);
        let offline_timeline = offline.finish(&metrics);

        assert_eq!(live_timeline, offline_timeline);
        assert_eq!(live_timeline.len(), 5);
        assert_eq!(live_timeline.to_json_string(), offline_timeline.to_json_string());
        // finish() is idempotent.
        assert_eq!(live.finish(&metrics), live_timeline);
    }

    #[test]
    fn empty_config_never_fires() {
        let mut engine = MonitorEngine::new(&MonitorConfig::none());
        assert!(!engine.has_detectors());
        engine.observe(
            &[span(SpanKind::TuningRun, "run", None, 0.0, 1.0)],
            &[Event {
                kind: EventKind::Fault,
                span: Some(0),
                at_secs: 0.5,
                attrs: vec![("fault", AttrValue::Str("node_crash".into()))],
            }],
        );
        assert!(engine.finish(&MetricsRegistry::new()).is_empty());
    }
}
