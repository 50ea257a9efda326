//! The detector catalog: stall watchdog, crash-loop, SLO burn-rate,
//! cache-thrash and queue-growth (see `docs/monitoring.md` for
//! the window semantics and the burn-rate math).
//!
//! Every detector is a pure stream processor over the deterministic
//! telemetry stream (the [`crate::engine::Detector`] contract), so its firings
//! are byte-identical across executor worker counts and scan
//! granularities. Window parameters are private constants; the alert
//! evidence carries the ones a firing was judged against.

use pipetune_telemetry::{
    attr_bool, attr_f64, attr_u64, Event, EventKind, MetricsRegistry, SpanKind, SpanView,
};

use crate::alert::{Alert, Severity};
use crate::engine::{Detector, TraceIndex};
use crate::window::{count_in_window, RingWindow, TimeWindow};

/// Canonical name of the stall/straggler watchdog.
pub(crate) const STALL: &str = "stall";
/// Canonical name of the crash-loop detector.
pub(crate) const CRASH_LOOP: &str = "crash_loop";
/// Canonical name of the SLO burn-rate detector.
pub(crate) const SLO_BURN: &str = "slo_burn";
/// Canonical name of the cache-thrash detector.
pub(crate) const CACHE_THRASH: &str = "cache_thrash";
/// Canonical name of the queue-growth detector.
pub(crate) const QUEUE_GROWTH: &str = "queue_growth";

// ---------------------------------------------------------------------------
// Stall / straggler watchdog
// ---------------------------------------------------------------------------

/// Rolling window of committed epoch durations (ring-buffer size).
const STALL_WINDOW: usize = 32;
/// Fire when an epoch runs longer than `STALL_FACTOR ×` the rolling mean.
const STALL_FACTOR: f64 = 3.0;
/// Minimum samples in the window before the watchdog arms.
const STALL_MIN_SAMPLES: usize = 8;

/// Watches committed epoch durations against a rolling window and flags
/// epochs that run far beyond the recent norm — the online face of the
/// paper's per-epoch signals: a straggling node or a pathological
/// configuration shows up here long before the end-of-run report.
///
/// Signal: `epoch` spans (always recorded complete, so reading
/// `end_secs` is live-safe). The window is global across trials in
/// record order — scheduler request order, hence deterministic.
#[derive(Debug)]
pub(crate) struct StallDetector {
    durations: RingWindow,
}

impl StallDetector {
    /// A watchdog with an empty window.
    pub(crate) fn new() -> Self {
        StallDetector { durations: RingWindow::new(STALL_WINDOW) }
    }
}

impl Detector for StallDetector {
    fn on_span(
        &mut self,
        ctx: &TraceIndex<'_>,
        idx: u32,
        span: &dyn SpanView,
        out: &mut Vec<Alert>,
    ) {
        let end_secs = span.end_secs();
        if span.kind() != SpanKind::Epoch || !end_secs.is_finite() {
            return;
        }
        let duration = end_secs - span.start_secs();
        if self.durations.len() >= STALL_MIN_SAMPLES {
            let mean = self.durations.mean();
            if duration > STALL_FACTOR * mean {
                let severity = if duration > 2.0 * STALL_FACTOR * mean {
                    Severity::Critical
                } else {
                    Severity::Warning
                };
                out.push(Alert {
                    detector: STALL,
                    severity,
                    source: ctx.path(idx),
                    span: Some(idx),
                    at_secs: end_secs,
                    message: format!(
                        "epoch ran {duration:.1}s against a rolling mean of {mean:.1}s"
                    ),
                    evidence: vec![
                        ("duration_secs", duration.into()),
                        ("window_mean_secs", mean.into()),
                        ("window_len", self.durations.len().into()),
                        ("factor", STALL_FACTOR.into()),
                    ],
                });
            }
        }
        self.durations.push(duration);
    }
}

// ---------------------------------------------------------------------------
// Crash loop
// ---------------------------------------------------------------------------

/// Sliding horizon, simulated seconds on the source's clock.
const CRASH_WINDOW_SECS: f64 = 20_000.0;
/// Fire at the `CRASH_BURST`-th fault/retry on one source within the
/// window.
const CRASH_BURST: usize = 3;

/// Flags sources caught in a crash/retry spiral: `fault` and `retry`
/// events bucketed per `(job, trial)` source — the nearest `job` or
/// `trial` ancestor of the event's span — with a firing when one source
/// accumulates a burst within the sliding window. After a firing the
/// source's window resets (cool-down), so a steady drizzle refires only
/// after building a fresh burst.
#[derive(Debug)]
pub(crate) struct CrashLoopDetector {
    /// Per-source event-time windows, keyed by source span index.
    windows: std::collections::BTreeMap<u32, TimeWindow>,
}

impl CrashLoopDetector {
    /// A detector that has seen no source yet.
    pub(crate) fn new() -> Self {
        CrashLoopDetector { windows: std::collections::BTreeMap::new() }
    }
}

impl Detector for CrashLoopDetector {
    fn on_event(&mut self, ctx: &TraceIndex<'_>, _idx: usize, event: &Event, out: &mut Vec<Alert>) {
        if !matches!(event.kind, EventKind::Fault | EventKind::Retry) {
            return;
        }
        let Some(span) = event.span else { return };
        // Bucket by job when the event sits under one (service-level
        // crash/resubmit cycles), else by trial (epoch-level retry
        // storms), else by the owning span itself. Each bucket lives on
        // one clock domain, so its window timestamps are monotone.
        let source = ctx
            .ancestor_of_kind(span, SpanKind::Job)
            .or_else(|| ctx.ancestor_of_kind(span, SpanKind::Trial))
            .unwrap_or(span);
        let window =
            self.windows.entry(source).or_insert_with(|| TimeWindow::new(CRASH_WINDOW_SECS));
        window.push(event.at_secs);
        if window.len() >= CRASH_BURST {
            let count = window.len();
            window.clear();
            out.push(Alert {
                detector: CRASH_LOOP,
                severity: Severity::Critical,
                source: ctx.path(source),
                span: Some(source),
                at_secs: event.at_secs,
                message: format!("{count} fault/retry events within {CRASH_WINDOW_SECS:.0}s"),
                evidence: vec![
                    ("events_in_window", count.into()),
                    ("window_secs", CRASH_WINDOW_SECS.into()),
                    ("burst", CRASH_BURST.into()),
                ],
            });
        }
    }
}

// ---------------------------------------------------------------------------
// SLO burn rate
// ---------------------------------------------------------------------------

/// The slow window, simulated seconds on the service clock.
const SLO_SLOW_WINDOW_SECS: f64 = 40_000.0;
/// The fast window (a fraction of the slow one, SRE-style).
const SLO_FAST_WINDOW_SECS: f64 = 8_000.0;
/// Error budget: the shed fraction the SLO tolerates (one job in ten may
/// miss its deadline).
const SLO_BUDGET: f64 = 0.1;
/// Fire when **both** windows burn at or above this multiple of the
/// budget.
const SLO_BURN_THRESHOLD: f64 = 1.0;

/// Multi-window SLO burn-rate alerts for `ServiceConfig::with_deadline`
/// jobs, SRE-style: the *burn rate* is the deadline-miss fraction over a
/// window divided by the error budget, and a firing needs both a fast
/// window (is it burning **now**?) and a slow window (has it burned
/// **enough to matter**?) at or above the threshold — short blips and
/// long-ago incidents both stay quiet.
///
/// Signals: `job` spans (arrival = span record; `start_secs` is the
/// arrival time on the service clock) and `shed` events (a shed *is* a
/// deadline violation, and carries the `deadline_secs` it enforced).
/// The burn denominator is the set of jobs whose **deadline fell in the
/// window** — arrivals shifted forward by the deadline — because that is
/// when each job's SLO verdict lands; sheds land at exactly their
/// deadline, so numerator and denominator live on the same axis.
/// Evaluation happens at each shed, counting only arrivals at or before
/// it — observations the live engine is guaranteed to have seen, which
/// is what keeps live scans and offline replay byte-identical.
#[derive(Debug)]
pub(crate) struct SloBurnDetector {
    /// Arrival times of every job, record order (non-decreasing).
    arrivals: Vec<f64>,
    /// Shed times, record order (non-decreasing).
    sheds: Vec<f64>,
}

impl SloBurnDetector {
    /// A detector that has seen no job yet.
    pub(crate) fn new() -> Self {
        SloBurnDetector { arrivals: Vec::new(), sheds: Vec::new() }
    }

    /// Burn rate over the window `(now - horizon, now]`: sheds in the
    /// window over jobs *due* in it (arrival + deadline in the window,
    /// i.e. arrivals in the window shifted back by `deadline`), divided
    /// by the budget; 0 when no job was due.
    fn burn(&self, now: f64, horizon: f64, deadline: f64) -> (f64, usize, usize) {
        let due = count_in_window(&self.arrivals, now - deadline, horizon);
        let shed = count_in_window(&self.sheds, now, horizon);
        if due == 0 {
            return (0.0, 0, shed);
        }
        let rate = shed as f64 / due as f64;
        (rate / SLO_BUDGET, due, shed)
    }
}

impl Detector for SloBurnDetector {
    fn on_span(
        &mut self,
        _ctx: &TraceIndex<'_>,
        _idx: u32,
        span: &dyn SpanView,
        _out: &mut Vec<Alert>,
    ) {
        if span.kind() == SpanKind::Job {
            self.arrivals.push(span.start_secs());
        }
    }

    fn on_event(&mut self, ctx: &TraceIndex<'_>, _idx: usize, event: &Event, out: &mut Vec<Alert>) {
        if event.kind != EventKind::Shed {
            return;
        }
        self.sheds.push(event.at_secs);
        let deadline = attr_f64(&event.attrs, "deadline_secs").unwrap_or(0.0);
        let (fast_burn, fast_jobs, fast_sheds) =
            self.burn(event.at_secs, SLO_FAST_WINDOW_SECS, deadline);
        let (slow_burn, slow_jobs, slow_sheds) =
            self.burn(event.at_secs, SLO_SLOW_WINDOW_SECS, deadline);
        if fast_burn >= SLO_BURN_THRESHOLD && slow_burn >= SLO_BURN_THRESHOLD {
            let source = event.span.map(|s| ctx.path(s)).unwrap_or_default();
            out.push(Alert {
                detector: SLO_BURN,
                severity: Severity::Critical,
                source,
                span: event.span,
                at_secs: event.at_secs,
                message: format!(
                    "deadline budget burning at {fast_burn:.1}x (fast) / {slow_burn:.1}x (slow)"
                ),
                evidence: vec![
                    ("fast_burn", fast_burn.into()),
                    ("slow_burn", slow_burn.into()),
                    ("fast_window_secs", SLO_FAST_WINDOW_SECS.into()),
                    ("slow_window_secs", SLO_SLOW_WINDOW_SECS.into()),
                    ("fast_jobs", fast_jobs.into()),
                    ("fast_sheds", fast_sheds.into()),
                    ("slow_jobs", slow_jobs.into()),
                    ("slow_sheds", slow_sheds.into()),
                    ("budget", SLO_BUDGET.into()),
                ],
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Cache thrash
// ---------------------------------------------------------------------------

/// Rolling window of `cache_lookup` outcomes (ring-buffer size).
const CACHE_WINDOW: usize = 16;
/// Fire when the windowed hit rate drops below this floor.
const CACHE_MIN_HIT_RATE: f64 = 0.2;
/// Minimum lookups in the window before the detector arms.
const CACHE_MIN_SAMPLES: usize = 8;
/// End-of-run churn alert when `cache.evict / cache.insert` exceeds this
/// ratio.
const CACHE_MAX_EVICT_PER_INSERT: f64 = 0.5;

/// Flags epoch-reuse cache collapse: a rolling window over
/// `cache_lookup` events fires when the hit rate falls below the floor
/// (the cache is being consulted and missing — capacity too small or
/// keys churning), and the finish hook compares the final `cache.evict`
/// and `cache.insert` counters for eviction churn the event stream alone
/// cannot see. After a hit-rate firing the window resets (cool-down).
#[derive(Debug)]
pub(crate) struct CacheThrashDetector {
    /// 1.0 per hit, 0.0 per miss.
    lookups: RingWindow,
}

impl CacheThrashDetector {
    /// A detector with an empty window.
    pub(crate) fn new() -> Self {
        CacheThrashDetector { lookups: RingWindow::new(CACHE_WINDOW) }
    }
}

impl Detector for CacheThrashDetector {
    fn on_event(&mut self, ctx: &TraceIndex<'_>, _idx: usize, event: &Event, out: &mut Vec<Alert>) {
        if event.kind != EventKind::CacheLookup {
            return;
        }
        let hit = attr_bool(&event.attrs, "hit").unwrap_or(false);
        self.lookups.push(if hit { 1.0 } else { 0.0 });
        if self.lookups.len() >= CACHE_MIN_SAMPLES {
            let hit_rate = self.lookups.mean();
            if hit_rate < CACHE_MIN_HIT_RATE {
                let window_len = self.lookups.len();
                self.lookups.clear();
                let source = event.span.map(|s| ctx.path(s)).unwrap_or_default();
                out.push(Alert {
                    detector: CACHE_THRASH,
                    severity: Severity::Warning,
                    source,
                    span: event.span,
                    at_secs: event.at_secs,
                    message: format!(
                        "cache hit rate collapsed to {hit_rate:.2} over the last {window_len} lookups"
                    ),
                    evidence: vec![
                        ("hit_rate", hit_rate.into()),
                        ("window_len", window_len.into()),
                        ("min_hit_rate", CACHE_MIN_HIT_RATE.into()),
                    ],
                });
            }
        }
    }

    fn finish(&mut self, metrics: &MetricsRegistry, out: &mut Vec<Alert>) {
        let evictions = metrics.counter("cache.evict");
        let inserts = metrics.counter("cache.insert");
        if inserts > 0 {
            let ratio = evictions as f64 / inserts as f64;
            if ratio > CACHE_MAX_EVICT_PER_INSERT {
                out.push(Alert {
                    detector: CACHE_THRASH,
                    severity: Severity::Warning,
                    source: String::new(),
                    span: None,
                    at_secs: 0.0,
                    message: format!(
                        "eviction churn: {evictions} evictions against {inserts} inserts"
                    ),
                    evidence: vec![
                        ("evictions", evictions.into()),
                        ("inserts", inserts.into()),
                        ("evict_per_insert", ratio.into()),
                        ("max_evict_per_insert", CACHE_MAX_EVICT_PER_INSERT.into()),
                    ],
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Queue growth
// ---------------------------------------------------------------------------

/// Fire when a job arrives to a backlog at or beyond this depth (queued +
/// running jobs ahead of it).
const QUEUE_DEPTH_THRESHOLD: u64 = 4;

/// Flags a service falling behind its arrival stream: a job arriving to
/// a deep backlog (the `queue_depth` attribute the service stamps on
/// every job span at arrival). The signal lives entirely on job spans, so
/// the detector sees it the instant the service records the arrival.
#[derive(Debug)]
pub(crate) struct QueueGrowthDetector;

impl Detector for QueueGrowthDetector {
    fn on_span(
        &mut self,
        ctx: &TraceIndex<'_>,
        idx: u32,
        span: &dyn SpanView,
        out: &mut Vec<Alert>,
    ) {
        if span.kind() != SpanKind::Job {
            return;
        }
        if let Some(depth) = attr_u64(&span.attrs(), "queue_depth") {
            if depth >= QUEUE_DEPTH_THRESHOLD {
                out.push(Alert {
                    detector: QUEUE_GROWTH,
                    severity: Severity::Warning,
                    source: ctx.path(idx),
                    span: Some(idx),
                    at_secs: span.start_secs(),
                    message: format!("job arrived to a backlog of {depth}"),
                    evidence: vec![
                        ("queue_depth", depth.into()),
                        ("depth_threshold", QUEUE_DEPTH_THRESHOLD.into()),
                    ],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MonitorConfig, MonitorEngine};
    use pipetune_telemetry::{Span, TelemetrySnapshot};

    fn span(kind: SpanKind, label: &str, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span { kind, label: label.into(), parent, start_secs: start, end_secs: end, attrs: vec![] }
    }

    fn epoch(parent: u32, start: f64, end: f64) -> Span {
        Span {
            kind: SpanKind::Epoch,
            label: format!("epoch ({start}..{end})"),
            parent: Some(parent),
            start_secs: start,
            end_secs: end,
            attrs: vec![],
        }
    }

    fn run_detectors(spans: Vec<Span>, events: Vec<Event>) -> crate::IncidentTimeline {
        let mut engine = MonitorEngine::new(&MonitorConfig::standard());
        let snap = TelemetrySnapshot { spans, events, metrics: MetricsRegistry::new() };
        engine.observe_snapshot(&snap);
        engine.finish(&snap.metrics)
    }

    #[test]
    fn stall_watchdog_flags_outlier_epochs() {
        // `normal` 10 s epochs, then one of 100 s: 10× the rolling mean.
        let trial = |normal: usize| {
            let mut spans = vec![span(SpanKind::Trial, "trial 0", None, 0.0, 1000.0)];
            let mut t = 0.0;
            for _ in 0..normal {
                spans.push(epoch(0, t, t + 10.0));
                t += 10.0;
            }
            spans.push(epoch(0, t, t + 100.0));
            spans
        };
        let timeline = run_detectors(trial(10), vec![]);
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline.count_for(STALL), 1);
        let alert = &timeline.alerts[0];
        assert_eq!(alert.severity, Severity::Critical);
        assert_eq!(alert.span, Some(11));
        assert!(alert.source.starts_with("trial 0 > "), "{}", alert.source);
        // Below the arming threshold (8 samples) nothing fires.
        assert!(run_detectors(trial(STALL_MIN_SAMPLES - 1), vec![]).is_empty());
    }

    #[test]
    fn crash_loop_fires_on_bursts_and_cools_down() {
        let spans = vec![
            span(SpanKind::Service, "svc", None, 0.0, 200_000.0),
            span(SpanKind::Job, "job 0", Some(0), 0.0, 180_000.0),
        ];
        let fault =
            |at: f64| Event { kind: EventKind::Fault, span: Some(1), at_secs: at, attrs: vec![] };
        let retry =
            |at: f64| Event { kind: EventKind::Retry, span: Some(1), at_secs: at, attrs: vec![] };
        // Burst of three inside the 20 000 s window → one alert; the
        // cool-down resets the window so the fourth event alone stays quiet.
        let timeline = run_detectors(
            spans.clone(),
            vec![fault(2_000.0), retry(4_000.0), fault(6_000.0), retry(18_000.0)],
        );
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline.count_for(CRASH_LOOP), 1);
        assert_eq!(timeline.alerts[0].at_secs, 6_000.0);
        assert_eq!(timeline.alerts[0].span, Some(1), "bucketed by the job ancestor");
        // Spread beyond the window → never fires.
        let quiet = run_detectors(
            spans,
            vec![fault(2_000.0), retry(40_000.0), fault(80_000.0), retry(120_000.0)],
        );
        assert!(quiet.is_empty());
    }

    #[test]
    fn slo_burn_needs_both_windows() {
        let mut spans = vec![span(SpanKind::Service, "svc", None, 0.0, 200_000.0)];
        for i in 0..10 {
            let arrival = f64::from(i) * 4_000.0;
            spans.push(span(SpanKind::Job, &format!("job {i}"), Some(0), arrival, 150_000.0));
        }
        let shed = |at: f64, job: u32| Event {
            kind: EventKind::Shed,
            span: Some(job),
            at_secs: at,
            attrs: vec![],
        };
        // A shed right after arrivals: the 8 000 s fast window (two
        // arrivals, one shed) and the 40 000 s slow window (10 arrivals,
        // 1 shed = budget exactly) both burn ≥ 1×.
        let timeline = run_detectors(spans.clone(), vec![shed(38_400.0, 9)]);
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline.count_for(SLO_BURN), 1);
        assert_eq!(timeline.alerts[0].severity, Severity::Critical);
        // A shed long after the last arrival: the fast window holds no
        // arrivals, so the fast burn is 0 and nothing fires.
        let quiet = run_detectors(spans.clone(), vec![shed(112_000.0, 9)]);
        assert!(quiet.is_empty());
        // With a `deadline_secs` attr, the denominator shifts to jobs
        // *due* in the window: a shed at arrival + 80 000 would miss every
        // arrival in the raw fast window, but two jobs (arrivals 32 000
        // and 36 000) fall due inside it — so the detector still fires.
        let late = Event {
            kind: EventKind::Shed,
            span: Some(10),
            at_secs: 118_400.0,
            attrs: vec![("deadline_secs", 80_000.0.into())],
        };
        let shifted = run_detectors(spans, vec![late]);
        assert_eq!(shifted.len(), 1);
        assert_eq!(shifted.count_for(SLO_BURN), 1);
    }

    #[test]
    fn cache_thrash_flags_hit_rate_collapse_and_eviction_churn() {
        let spans = vec![span(SpanKind::Trial, "trial 0", None, 0.0, 1000.0)];
        let lookup = |at: f64, hit: bool| Event {
            kind: EventKind::CacheLookup,
            span: Some(0),
            at_secs: at,
            attrs: vec![("hit", hit.into())],
        };
        let misses: Vec<Event> = (0..8).map(|i| lookup(f64::from(i) * 10.0, false)).collect();
        let timeline = run_detectors(spans.clone(), misses);
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline.count_for(CACHE_THRASH), 1);
        // All hits → quiet.
        let hits: Vec<Event> = (0..16).map(|i| lookup(f64::from(i) * 10.0, true)).collect();
        assert!(run_detectors(spans.clone(), hits).is_empty());
        // Eviction churn from the final counters, via the finish hook.
        let mut engine = MonitorEngine::new(&MonitorConfig::standard());
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("cache.insert", 10);
        metrics.counter_add("cache.evict", 8);
        let snap = TelemetrySnapshot { spans, events: vec![], metrics };
        engine.observe_snapshot(&snap);
        let timeline = engine.finish(&snap.metrics);
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline.count_for(CACHE_THRASH), 1);
        assert!(timeline.alerts[0].message.contains("eviction churn"));
    }

    #[test]
    fn queue_growth_flags_deep_backlogs() {
        let job = |label: &str, start: f64, depth: u64| Span {
            kind: SpanKind::Job,
            label: label.into(),
            parent: Some(0),
            start_secs: start,
            end_secs: f64::NAN,
            attrs: vec![("queue_depth", depth.into())],
        };
        let spans = vec![
            span(SpanKind::Service, "svc", None, 0.0, f64::NAN),
            job("job 0", 2_000.0, 1),
            job("job 1", 4_000.0, 5),
            job("job 2", 6_000.0, QUEUE_DEPTH_THRESHOLD - 1),
            job("job 3", 8_000.0, QUEUE_DEPTH_THRESHOLD),
        ];
        let timeline = run_detectors(spans, vec![]);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline.count_for(QUEUE_GROWTH), 2);
        // One warning per arrival at or beyond the threshold, in time order.
        assert_eq!(timeline.alerts[0].at_secs, 4_000.0);
        assert_eq!(timeline.alerts[0].severity, Severity::Warning);
        assert_eq!(timeline.alerts[1].at_secs, 8_000.0);
        assert_eq!(timeline.alerts[1].severity, Severity::Warning);
    }
}
