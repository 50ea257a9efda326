//! Critical-path analysis over the `tuning_run > rung > batch > trial >
//! epoch` span tree.
//!
//! A [`TraceReport`] is a pure function of a validated
//! [`TelemetrySnapshot`]: per-phase time attribution, per-rung slot
//! utilization, straggler ranking and the critical path through each
//! tuning run. Duration percentiles are the embedded [`pipetune_tsdb`]
//! store's own nearest-rank selectors
//! ([`Aggregate::P50`]/[`Aggregate::P95`]/[`Aggregate::P99`], the numbers a
//! real InfluxDB deployment would serve) applied to each run's duration
//! lists.
//!
//! A report is built in one walk over the spans and one over the events,
//! whatever the number of runs: each span's run is known from its parent's
//! (parents precede children), and every run keeps its own accumulators.
//! Additions reach each accumulator in span (or event) order, so every
//! `f64` of a report is the one a run-by-run scan of the trace would sum.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pipetune_telemetry::{
    attr_bool, attr_f64, attr_str, EventKind, Span, SpanKind, TelemetrySnapshot, TraceError,
};
use pipetune_tsdb::Aggregate;

/// `map[key]`, put there as the default first if absent; the key is copied
/// only then.
pub(crate) fn entry<'a, V: Default>(map: &'a mut BTreeMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
}

/// A closed span's duration; `None` while the span is still open.
fn duration(span: &Span) -> Option<f64> {
    (span.start_secs.is_finite() && span.end_secs.is_finite())
        .then_some(span.end_secs - span.start_secs)
}

/// Duration percentiles (nearest-rank) over a population of spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationStats {
    /// Median, seconds.
    pub p50_secs: f64,
    /// 95th percentile, seconds.
    pub p95_secs: f64,
    /// 99th percentile, seconds.
    pub p99_secs: f64,
}

/// Per-phase time attribution for one tuning run.
///
/// Keys are the epoch phases recorded by the pipeline (`profile`,
/// `probe`, `tuned`, `reused`, `fixed`); values are summed epoch
/// durations on the trial clock. Crash-recovery overhead (wasted partial
/// epochs plus retry backoff) is attributed separately — it never appears
/// as an epoch span.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Seconds spent per phase, keyed by phase name (sorted).
    pub secs: BTreeMap<String, f64>,
    /// Crash-recovery overhead: `wasted_secs + backoff_secs` summed over
    /// the run's fault events.
    pub retry_overhead_secs: f64,
}

impl PhaseBreakdown {
    /// Total attributed seconds including retry overhead.
    pub fn total_secs(&self) -> f64 {
        self.secs.values().sum::<f64>() + self.retry_overhead_secs
    }
}

/// One trial on the straggler ranking (or a rung's critical trial).
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Index of the trial span within the trace.
    pub span: usize,
    /// The trial span's label (`trial 7`).
    pub label: String,
    /// Trial duration on the trial-cumulative clock, seconds.
    pub duration_secs: f64,
}

/// Utilization analysis of one scheduler round.
#[derive(Debug, Clone, PartialEq)]
pub struct RungReport {
    /// Scheduler round number (the rung's `round` attribute).
    pub round: u64,
    /// Wall-clock duration of the round, seconds.
    pub wall_secs: f64,
    /// Number of trial spans executed in the round.
    pub trials: usize,
    /// Summed trial durations, seconds (work actually done).
    pub busy_secs: f64,
    /// `parallel_slots × wall_secs`: what the cluster could have done.
    pub capacity_secs: f64,
    /// `max(0, capacity − busy)`: slot time spent waiting.
    pub idle_secs: f64,
    /// `busy / capacity` (0 when the round had no capacity).
    pub utilization: f64,
    /// The round's longest trial — the rung's critical path.
    pub critical_trial: Option<Straggler>,
}

/// The analysis of one `tuning_run` root span.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Root span label (`pipetune`, `tune_v1`, `tune_v2`).
    pub label: String,
    /// Workload name from the root span attributes.
    pub workload: String,
    /// Experiment seed, when recorded.
    pub seed: Option<u64>,
    /// Parallel trial slots the run was scheduled onto.
    pub slots: u64,
    /// Total wall-clock time of the run, seconds.
    pub wall_secs: f64,
    /// Trial spans belonging to the run.
    pub trials: usize,
    /// Epoch spans belonging to the run.
    pub epochs: usize,
    /// Per-phase time attribution.
    pub phases: PhaseBreakdown,
    /// Per-round utilization, in round order.
    pub rungs: Vec<RungReport>,
    /// Sum of each round's longest trial: the shortest possible wall time
    /// with unlimited slots. `wall − critical_path` is scheduling
    /// headroom; `critical_path` is the part only faster trials can fix.
    pub critical_path_secs: f64,
    /// Epoch-reuse cache lookups that adopted a cached prefix (from the
    /// run's `cache_lookup` events; 0 for cache-less runs).
    pub cache_hits: u64,
    /// Epoch-reuse cache lookups that fell through to a cold start.
    pub cache_misses: u64,
    /// Simulated epoch-seconds the cache saved the run, summed over its
    /// hit events (trained cost of the adopted prefixes minus the charged
    /// reload cost).
    pub cache_saved_secs: f64,
    /// The run's five slowest trials, longest first (ties broken by span
    /// index).
    pub stragglers: Vec<Straggler>,
    /// Trial-duration percentiles, when the run had trials.
    pub trial_stats: Option<DurationStats>,
    /// Epoch-duration percentiles, when the run had epochs.
    pub epoch_stats: Option<DurationStats>,
}

/// Straggler ranking length.
const MAX_STRAGGLERS: usize = 5;

/// The full critical-path report over a trace (one entry per tuning run).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-run analyses, in root-span order.
    pub runs: Vec<RunReport>,
}

/// What the walk has gathered about one scheduler round.
struct RungScan {
    /// Index of the rung span.
    span: usize,
    /// Indices into the run's trials, in span order.
    trials: Vec<usize>,
}

/// What the walk has gathered about one tuning run.
#[derive(Default)]
struct RunScan {
    /// Index of the root span.
    root: usize,
    epochs: usize,
    phases: PhaseBreakdown,
    /// The run's trials, in span order.
    trials: Vec<Straggler>,
    rungs: Vec<RungScan>,
    /// The latest finite rung end on the shared clock (0 without one).
    last_rung_end: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_saved_secs: f64,
    /// Durations of the run's closed epochs, in span order.
    epoch_secs: Vec<f64>,
}

impl RunScan {
    fn finish(self, spans: &[Span]) -> RunReport {
        let root_span = &spans[self.root];
        let slots = attr_f64(&root_span.attrs, "parallel_slots").unwrap_or(1.0).max(1.0);
        // Wall time: the root's own extent, falling back to the last
        // child end on the shared clock if the root was left open.
        let wall_secs = duration(root_span).unwrap_or(self.last_rung_end - root_span.start_secs);

        let trials = self.trials;
        let mut rungs = Vec::with_capacity(self.rungs.len());
        let mut critical_path_secs = 0.0;
        for rung in &self.rungs {
            let span = &spans[rung.span];
            let wall = duration(span).unwrap_or(0.0);
            let busy: f64 = rung.trials.iter().map(|&t| trials[t].duration_secs).sum();
            let capacity = slots * wall;
            let critical = rung
                .trials
                .iter()
                .map(|&t| &trials[t])
                .max_by(|a, b| {
                    a.duration_secs
                        .total_cmp(&b.duration_secs)
                        // Longest first; on exact ties prefer the
                        // earlier span so the report is deterministic.
                        .then(b.span.cmp(&a.span))
                })
                .cloned();
            critical_path_secs += critical.as_ref().map_or(0.0, |c| c.duration_secs);
            rungs.push(RungReport {
                round: attr_f64(&span.attrs, "round").unwrap_or(0.0) as u64,
                wall_secs: wall,
                trials: rung.trials.len(),
                busy_secs: busy,
                capacity_secs: capacity,
                idle_secs: (capacity - busy).max(0.0),
                utilization: if capacity > 0.0 { busy / capacity } else { 0.0 },
                critical_trial: critical,
            });
        }

        let trial_secs: Vec<f64> = trials.iter().map(|t| t.duration_secs).collect();
        let trial_count = trials.len();
        let mut stragglers = trials;
        stragglers
            .sort_by(|a, b| b.duration_secs.total_cmp(&a.duration_secs).then(a.span.cmp(&b.span)));
        stragglers.truncate(MAX_STRAGGLERS);

        RunReport {
            label: root_span.label.clone(),
            workload: attr_str(&root_span.attrs, "workload").unwrap_or("?").to_string(),
            seed: attr_f64(&root_span.attrs, "seed").map(|s| s as u64),
            slots: slots as u64,
            wall_secs,
            trials: trial_count,
            epochs: self.epochs,
            phases: self.phases,
            rungs,
            critical_path_secs,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_saved_secs: self.cache_saved_secs,
            stragglers,
            trial_stats: duration_stats(&trial_secs),
            epoch_stats: duration_stats(&self.epoch_secs),
        }
    }
}

impl TraceReport {
    /// Analyses a snapshot. Validates first: a malformed span tree is
    /// rejected with the underlying [`TraceError`] rather than silently
    /// misattributed.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found by
    /// [`TelemetrySnapshot::validate`].
    ///
    /// # Example
    ///
    /// ```
    /// use pipetune_insight::TraceReport;
    /// use pipetune_telemetry::TelemetrySnapshot;
    ///
    /// let empty = TelemetrySnapshot::default();
    /// assert!(TraceReport::from_snapshot(&empty).unwrap().runs.is_empty());
    /// ```
    pub fn from_snapshot(snapshot: &TelemetrySnapshot) -> Result<Self, TraceError> {
        snapshot.validate()?;
        let spans = &snapshot.spans;

        // Parents always precede children (validated), so one pass resolves
        // each span's tuning run and nearest rung ancestor as it goes.
        // A `tuning_run` is always its own root — including when a
        // multi-job service nested it under a `job` span — so per-run
        // attribution is identical whether the run executed standalone or
        // as one tenant of a service.
        const NONE: u32 = u32::MAX;
        // Per span: the run it belongs to, and the rung — as an index into
        // that run's rungs — its children are in.
        let mut run_of: Vec<u32> = Vec::with_capacity(spans.len());
        let mut rung_below: Vec<u32> = Vec::with_capacity(spans.len());
        let mut runs: Vec<RunScan> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            let (run, rung) = match (span.kind, span.parent) {
                (SpanKind::TuningRun, _) => {
                    runs.push(RunScan { root: i, ..RunScan::default() });
                    (runs.len() as u32 - 1, NONE)
                }
                (_, None) => (NONE, NONE),
                (_, Some(p)) => (run_of[p as usize], rung_below[p as usize]),
            };
            run_of.push(run);
            rung_below.push(rung);
            let Some(scan) = runs.get_mut(run as usize) else { continue };
            match span.kind {
                SpanKind::Epoch => {
                    scan.epochs += 1;
                    if let Some(d) = duration(span) {
                        let phase = attr_str(&span.attrs, "phase").unwrap_or("unknown");
                        *entry(&mut scan.phases.secs, phase) += d;
                        scan.epoch_secs.push(d);
                    }
                }
                SpanKind::Trial => {
                    let d = duration(span).unwrap_or(0.0);
                    if let Some(rung) = scan.rungs.get_mut(rung as usize) {
                        rung.trials.push(scan.trials.len());
                    }
                    scan.trials.push(Straggler {
                        span: i,
                        label: span.label.clone(),
                        duration_secs: d,
                    });
                }
                SpanKind::Rung => {
                    rung_below[i] = scan.rungs.len() as u32;
                    scan.rungs.push(RungScan { span: i, trials: Vec::new() });
                    if span.end_secs.is_finite() {
                        scan.last_rung_end = f64::max(scan.last_rung_end, span.end_secs);
                    }
                }
                _ => {}
            }
        }

        // Retry overhead and cache counters from each run's events (crash
        // recovery never emits epoch spans).
        for event in &snapshot.events {
            let owner = event.span.map_or(NONE, |span| run_of[span as usize]);
            let Some(scan) = runs.get_mut(owner as usize) else { continue };
            match event.kind {
                EventKind::Fault => {
                    scan.phases.retry_overhead_secs += attr_f64(&event.attrs, "wasted_secs")
                        .unwrap_or(0.0)
                        + attr_f64(&event.attrs, "backoff_secs").unwrap_or(0.0);
                }
                EventKind::CacheLookup => {
                    if attr_bool(&event.attrs, "hit") == Some(true) {
                        scan.cache_hits += 1;
                        scan.cache_saved_secs +=
                            attr_f64(&event.attrs, "saved_secs").unwrap_or(0.0);
                    } else {
                        scan.cache_misses += 1;
                    }
                }
                _ => {}
            }
        }

        Ok(TraceReport { runs: runs.into_iter().map(|scan| scan.finish(spans)).collect() })
    }

    /// Parses a JSON trace and analyses it in one step.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the text is not a valid trace export
    /// or the span tree fails validation.
    pub fn from_json_str(text: &str) -> Result<Self, TraceError> {
        TraceReport::from_snapshot(&TelemetrySnapshot::from_json_str(text)?)
    }

    /// Renders the report as a deterministic plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.runs.is_empty() {
            out.push_str("trace contains no tuning runs\n");
            return out;
        }
        for run in &self.runs {
            let _ = writeln!(
                out,
                "run `{}` — workload {}, seed {}, {} slot(s)",
                run.label,
                run.workload,
                run.seed.map_or_else(|| "?".to_string(), |s| s.to_string()),
                run.slots,
            );
            let _ = writeln!(
                out,
                "  wall {:.3}s | {} trials, {} epochs | critical path {:.3}s ({:.1}% of wall)",
                run.wall_secs,
                run.trials,
                run.epochs,
                run.critical_path_secs,
                percent(run.critical_path_secs, run.wall_secs),
            );
            let _ = writeln!(out, "  phase attribution (trial clock):");
            let total = run.phases.total_secs().max(f64::MIN_POSITIVE);
            for (phase, secs) in &run.phases.secs {
                let _ =
                    writeln!(out, "    {phase:<16} {secs:>12.3}s  ({:.1}%)", 100.0 * secs / total);
            }
            let _ = writeln!(
                out,
                "    {:<16} {:>12.3}s  ({:.1}%)",
                "retry_overhead",
                run.phases.retry_overhead_secs,
                100.0 * run.phases.retry_overhead_secs / total
            );
            if run.cache_hits + run.cache_misses > 0 {
                let _ = writeln!(
                    out,
                    "  epoch cache: {} hit(s), {} miss(es) | saved {:.3}s ({:.1}% of wall)",
                    run.cache_hits,
                    run.cache_misses,
                    run.cache_saved_secs,
                    percent(run.cache_saved_secs, run.wall_secs + run.cache_saved_secs),
                );
            }
            let _ = writeln!(out, "  rungs:");
            for rung in &run.rungs {
                let critical = rung.critical_trial.as_ref().map_or_else(
                    || "-".to_string(),
                    |c| format!("{} ({:.3}s)", c.label, c.duration_secs),
                );
                let _ = writeln!(
                    out,
                    "    round {:>3}: wall {:>10.3}s | {:>3} trials | util {:>5.1}% | idle {:>10.3}s | longest {}",
                    rung.round,
                    rung.wall_secs,
                    rung.trials,
                    100.0 * rung.utilization,
                    rung.idle_secs,
                    critical,
                );
            }
            if !run.stragglers.is_empty() {
                let list: Vec<String> = run
                    .stragglers
                    .iter()
                    .map(|s| format!("{} ({:.3}s)", s.label, s.duration_secs))
                    .collect();
                let _ = writeln!(out, "  stragglers: {}", list.join(", "));
            }
            if let Some(stats) = &run.trial_stats {
                let _ = writeln!(
                    out,
                    "  trial secs  p50 {:.3} | p95 {:.3} | p99 {:.3}",
                    stats.p50_secs, stats.p95_secs, stats.p99_secs
                );
            }
            if let Some(stats) = &run.epoch_stats {
                let _ = writeln!(
                    out,
                    "  epoch secs  p50 {:.3} | p95 {:.3} | p99 {:.3}",
                    stats.p50_secs, stats.p95_secs, stats.p99_secs
                );
            }
        }
        out
    }
}

fn percent(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Percentiles through the tsdb: its nearest-rank selectors
/// ([`Aggregate::apply`], the one definition a stored field is aggregated
/// by) over the durations in span order.
fn duration_stats(secs: &[f64]) -> Option<DurationStats> {
    Some(DurationStats {
        p50_secs: Aggregate::P50.apply(secs)?,
        p95_secs: Aggregate::P95.apply(secs)?,
        p99_secs: Aggregate::P99.apply(secs)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_telemetry::{SpanId, TelemetryHandle};

    /// Two rounds on two slots: round 0 runs trials of 4s and 2s, round 1
    /// a single 3s trial. Epochs split each trial into phases.
    fn sample() -> TelemetrySnapshot {
        let t = TelemetryHandle::enabled();
        let run = t.open_span(
            SpanId::NONE,
            SpanKind::TuningRun,
            "pipetune",
            0.0,
            vec![
                ("workload", "lenet/mnist".into()),
                ("seed", 41u64.into()),
                ("parallel_slots", 2u64.into()),
            ],
        );
        let r0 = t.open_span(run, SpanKind::Rung, "round 0", 0.0, vec![("round", 0u64.into())]);
        let b0 = t.open_span(r0, SpanKind::Batch, "batch of 2", 0.0, vec![]);
        let tr0 = t.open_span(b0, SpanKind::Trial, "trial 0", 0.0, vec![]);
        let e0 = t.open_span(
            tr0,
            SpanKind::Epoch,
            "epoch 1 (profile)",
            0.0,
            vec![("phase", "profile".into())],
        );
        t.close_span(e0, 1.0);
        let e1 = t.open_span(
            tr0,
            SpanKind::Epoch,
            "epoch 2 (tuned)",
            1.0,
            vec![("phase", "tuned".into())],
        );
        t.close_span(e1, 4.0);
        t.close_span(tr0, 4.0);
        let tr1 = t.open_span(b0, SpanKind::Trial, "trial 1", 0.0, vec![]);
        let e2 = t.open_span(
            tr1,
            SpanKind::Epoch,
            "epoch 1 (probe)",
            0.0,
            vec![("phase", "probe".into())],
        );
        t.close_span(e2, 2.0);
        t.close_span(tr1, 2.0);
        t.close_span(b0, 4.0);
        t.close_span(r0, 4.0);
        let r1 = t.open_span(run, SpanKind::Rung, "round 1", 4.0, vec![("round", 1u64.into())]);
        let b1 = t.open_span(r1, SpanKind::Batch, "batch of 1", 4.0, vec![]);
        let tr2 = t.open_span(b1, SpanKind::Trial, "trial 2", 2.0, vec![]);
        t.event(
            tr2,
            EventKind::Fault,
            3.0,
            vec![("wasted_secs", 0.5f64.into()), ("backoff_secs", 0.25f64.into())],
        );
        t.close_span(tr2, 5.0);
        t.close_span(b1, 7.0);
        t.close_span(r1, 7.0);
        t.close_span(run, 7.0);
        t.snapshot().unwrap()
    }

    #[test]
    fn report_attributes_phases_rungs_and_critical_path() {
        let report = TraceReport::from_snapshot(&sample()).unwrap();
        assert_eq!(report.runs.len(), 1);
        let run = &report.runs[0];
        assert_eq!(run.label, "pipetune");
        assert_eq!(run.workload, "lenet/mnist");
        assert_eq!(run.seed, Some(41));
        assert_eq!(run.slots, 2);
        assert_eq!(run.trials, 3);
        assert_eq!(run.epochs, 3);
        assert_eq!(run.wall_secs, 7.0);

        assert_eq!(run.phases.secs["profile"], 1.0);
        assert_eq!(run.phases.secs["tuned"], 3.0);
        assert_eq!(run.phases.secs["probe"], 2.0);
        assert_eq!(run.phases.retry_overhead_secs, 0.75);

        // Round 0: busy 6s over 2×4s capacity; round 1: 3s over 2×3s.
        assert_eq!(run.rungs.len(), 2);
        assert_eq!(run.rungs[0].busy_secs, 6.0);
        assert_eq!(run.rungs[0].capacity_secs, 8.0);
        assert_eq!(run.rungs[0].idle_secs, 2.0);
        assert!((run.rungs[0].utilization - 0.75).abs() < 1e-12);
        assert_eq!(run.rungs[1].trials, 1);

        // Critical path: 4s (trial 0) + 3s (trial 2).
        assert_eq!(run.critical_path_secs, 7.0);
        assert_eq!(run.stragglers[0].label, "trial 0");
        assert_eq!(run.stragglers[1].label, "trial 2");

        let stats = run.trial_stats.as_ref().unwrap();
        assert_eq!(stats.p50_secs, 3.0);
        assert_eq!(stats.p99_secs, 4.0);
    }

    #[test]
    fn service_nested_runs_are_still_their_own_roots() {
        // service > job > tuning_run: the run must get its own RunReport,
        // identical in shape to a standalone run's.
        let t = TelemetryHandle::enabled();
        let svc = t.open_span(SpanId::NONE, SpanKind::Service, "service fifo", 0.0, vec![]);
        for job in 0..2u64 {
            let j = t.open_span(svc, SpanKind::Job, "job", job as f64, vec![]);
            let run = t.open_span(
                j,
                SpanKind::TuningRun,
                "pipetune",
                0.0,
                vec![("workload", "lenet/mnist".into()), ("parallel_slots", 2u64.into())],
            );
            let rung =
                t.open_span(run, SpanKind::Rung, "round 0", 0.0, vec![("round", 0u64.into())]);
            let batch = t.open_span(rung, SpanKind::Batch, "batch of 1", 0.0, vec![]);
            let trial = t.open_span(batch, SpanKind::Trial, "trial 0", 0.0, vec![]);
            t.close_span(trial, 3.0);
            t.close_span(batch, 3.0);
            t.close_span(rung, 3.0);
            t.close_span(run, 3.0);
            t.close_span(j, job as f64 + 3.0);
        }
        t.close_span(svc, 4.0);
        let report = TraceReport::from_snapshot(&t.snapshot().unwrap()).unwrap();
        assert_eq!(report.runs.len(), 2, "one report per nested run");
        for run in &report.runs {
            assert_eq!(run.workload, "lenet/mnist");
            assert_eq!(run.trials, 1);
            assert_eq!(run.wall_secs, 3.0);
            assert_eq!(run.critical_path_secs, 3.0);
        }
    }

    #[test]
    fn report_rejects_invalid_traces() {
        let mut snap = sample();
        snap.spans[1].parent = Some(9); // forward reference
        assert!(TraceReport::from_snapshot(&snap).is_err());
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let a = TraceReport::from_snapshot(&sample()).unwrap().render();
        let b = TraceReport::from_snapshot(&sample()).unwrap().render();
        assert_eq!(a, b);
        for needle in
            ["run `pipetune`", "critical path", "retry_overhead", "round   0", "stragglers", "p95"]
        {
            assert!(a.contains(needle), "render missing {needle}:\n{a}");
        }
    }
}
