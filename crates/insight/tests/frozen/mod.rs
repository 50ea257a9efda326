//! `TraceReport::from_snapshot` and `TraceDiff::between` as `pipetune_insight`
//! had them before a report became one walk over the trace and a diff
//! stopped writing the exports it compares: a scan of every span per tuning
//! run, per-epoch points in a `Database` to read three percentiles back,
//! two whole JSON documents formatted for one `==`, a `String` per record
//! counted. Kept verbatim (methods made free functions, `Self` spelt out,
//! the length constant — private now — restated; `between` leaves the
//! field it never had, `first_difference`, `None`) as the oracle for every
//! number and byte of a report and a diff.

use std::collections::{BTreeMap, BTreeSet};

use pipetune_insight::{
    DurationStats, PhaseBreakdown, RunReport, RungReport, Straggler, TraceDiff, TraceReport,
};
use pipetune_telemetry::{
    AttrValue, Attrs, EventKind, Span, SpanKind, TelemetrySnapshot, TraceError,
};
use pipetune_tsdb::{Aggregate, Database, Point, Query};

/// Straggler ranking length.
const MAX_STRAGGLERS: usize = 5;

/// Looks up an attribute by key (first occurrence wins).
fn attr<'a>(attrs: &'a Attrs, key: &str) -> Option<&'a AttrValue> {
    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn attr_str<'a>(attrs: &'a Attrs, key: &str) -> Option<&'a str> {
    match attr(attrs, key) {
        Some(AttrValue::Str(s)) => Some(s),
        _ => None,
    }
}

fn attr_f64(attrs: &Attrs, key: &str) -> Option<f64> {
    attr(attrs, key).and_then(AttrValue::as_field)
}

fn attr_bool(attrs: &Attrs, key: &str) -> Option<bool> {
    match attr(attrs, key) {
        Some(AttrValue::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// A closed span's duration; `None` while the span is still open.
fn duration(span: &Span) -> Option<f64> {
    (span.start_secs.is_finite() && span.end_secs.is_finite())
        .then_some(span.end_secs - span.start_secs)
}

pub fn from_snapshot(snapshot: &TelemetrySnapshot) -> Result<TraceReport, TraceError> {
    snapshot.validate()?;
    let spans = &snapshot.spans;

    // Parents always precede children (validated), so single passes
    // resolve each span's tuning-run root and nearest rung ancestor.
    // A `tuning_run` is always its own root — including when a
    // multi-job service nested it under a `job` span — so per-run
    // attribution is identical whether the run executed standalone or
    // as one tenant of a service.
    let mut root_of: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    let mut rung_of: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let (root, rung) = if span.kind == SpanKind::TuningRun {
            (Some(i), None)
        } else {
            match span.parent {
                None => (None, None),
                Some(p) => {
                    let p = p as usize;
                    let rung = if spans[p].kind == SpanKind::Rung { Some(p) } else { rung_of[p] };
                    (root_of[p], rung)
                }
            }
        };
        root_of.push(root);
        rung_of.push(rung);
    }

    let mut runs = Vec::new();
    for (root, root_span) in spans.iter().enumerate() {
        if root_of[root] != Some(root) {
            continue;
        }
        let member = |i: usize| root_of[i] == Some(root);
        let slots = attr_f64(&root_span.attrs, "parallel_slots").unwrap_or(1.0).max(1.0);

        // Wall time: the root's own extent, falling back to the last
        // child end on the shared clock if the root was left open.
        let wall_secs = duration(root_span).unwrap_or_else(|| {
            spans
                .iter()
                .enumerate()
                .filter(|(i, s)| member(*i) && s.kind == SpanKind::Rung)
                .filter_map(|(_, s)| s.end_secs.is_finite().then_some(s.end_secs))
                .fold(0.0, f64::max)
                - root_span.start_secs
        });

        // Phase attribution from epoch spans; retry overhead from the
        // run's fault events (crash recovery never emits epoch spans).
        let mut phases = PhaseBreakdown::default();
        let mut epochs = 0usize;
        for (i, span) in spans.iter().enumerate() {
            if !member(i) || span.kind != SpanKind::Epoch {
                continue;
            }
            epochs += 1;
            if let Some(d) = duration(span) {
                let phase = attr_str(&span.attrs, "phase").unwrap_or("unknown");
                *phases.secs.entry(phase.to_string()).or_insert(0.0) += d;
            }
        }
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut cache_saved_secs = 0.0f64;
        for event in &snapshot.events {
            let Some(owner) = event.span else { continue };
            if !member(owner as usize) {
                continue;
            }
            match event.kind {
                EventKind::Fault => {
                    phases.retry_overhead_secs += attr_f64(&event.attrs, "wasted_secs")
                        .unwrap_or(0.0)
                        + attr_f64(&event.attrs, "backoff_secs").unwrap_or(0.0);
                }
                EventKind::CacheLookup => {
                    if attr_bool(&event.attrs, "hit") == Some(true) {
                        cache_hits += 1;
                        cache_saved_secs += attr_f64(&event.attrs, "saved_secs").unwrap_or(0.0);
                    } else {
                        cache_misses += 1;
                    }
                }
                _ => {}
            }
        }

        // Trials, grouped by owning rung.
        let mut trials: Vec<Straggler> = Vec::new();
        let mut by_rung: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            if !member(i) || span.kind != SpanKind::Trial {
                continue;
            }
            let d = duration(span).unwrap_or(0.0);
            trials.push(Straggler { span: i, label: span.label.clone(), duration_secs: d });
            if let Some(rung) = rung_of[i] {
                by_rung.entry(rung).or_default().push(trials.len() - 1);
            }
        }

        let mut rungs = Vec::new();
        let mut critical_path_secs = 0.0;
        for (i, span) in spans.iter().enumerate() {
            if !member(i) || span.kind != SpanKind::Rung {
                continue;
            }
            let wall = duration(span).unwrap_or(0.0);
            let members = by_rung.get(&i).map_or(&[][..], Vec::as_slice);
            let busy: f64 = members.iter().map(|&t| trials[t].duration_secs).sum();
            let capacity = slots * wall;
            let critical = members
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
                trials: members.len(),
                busy_secs: busy,
                capacity_secs: capacity,
                idle_secs: (capacity - busy).max(0.0),
                utilization: if capacity > 0.0 { busy / capacity } else { 0.0 },
                critical_trial: critical,
            });
        }

        let mut stragglers = trials.clone();
        stragglers
            .sort_by(|a, b| b.duration_secs.total_cmp(&a.duration_secs).then(a.span.cmp(&b.span)));
        stragglers.truncate(MAX_STRAGGLERS);

        // Percentiles through the tsdb: replay durations as points and
        // let the store's nearest-rank selectors answer.
        let db = Database::new();
        for (idx, trial) in trials.iter().enumerate() {
            let _ =
                db.write(Point::new("trial_secs", idx as u64).field("secs", trial.duration_secs));
        }
        let mut epoch_idx = 0u64;
        for (i, span) in spans.iter().enumerate() {
            if member(i) && span.kind == SpanKind::Epoch {
                if let Some(d) = duration(span) {
                    let _ = db.write(Point::new("epoch_secs", epoch_idx).field("secs", d));
                    epoch_idx += 1;
                }
            }
        }

        runs.push(RunReport {
            label: root_span.label.clone(),
            workload: attr_str(&root_span.attrs, "workload").unwrap_or("?").to_string(),
            seed: attr_f64(&root_span.attrs, "seed").map(|s| s as u64),
            slots: slots as u64,
            wall_secs,
            trials: trials.len(),
            epochs,
            phases,
            rungs,
            critical_path_secs,
            cache_hits,
            cache_misses,
            cache_saved_secs,
            stragglers,
            trial_stats: duration_stats(&db, "trial_secs"),
            epoch_stats: duration_stats(&db, "epoch_secs"),
        });
    }
    Ok(TraceReport { runs })
}

fn duration_stats(db: &Database, measurement: &str) -> Option<DurationStats> {
    let query = Query::measurement(measurement);
    let get = |agg| db.aggregate(&query, "secs", agg).ok().flatten();
    Some(DurationStats {
        p50_secs: get(Aggregate::P50)?,
        p95_secs: get(Aggregate::P95)?,
        p99_secs: get(Aggregate::P99)?,
    })
}

fn count_by<T, K: Ord, F: Fn(&T) -> K>(items: &[T], key: F) -> BTreeMap<K, usize> {
    let mut out = BTreeMap::new();
    for item in items {
        *out.entry(key(item)).or_insert(0) += 1;
    }
    out
}

fn merge_counts<K: Ord + Clone>(
    a: &BTreeMap<K, usize>,
    b: &BTreeMap<K, usize>,
) -> BTreeMap<K, (usize, usize)> {
    let keys: BTreeSet<&K> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .map(|k| (k.clone(), (a.get(k).copied().unwrap_or(0), b.get(k).copied().unwrap_or(0))))
        .collect()
}

pub fn between(a: &TelemetrySnapshot, b: &TelemetrySnapshot) -> Result<TraceDiff, TraceError> {
    let report_a = from_snapshot(a)?;
    let report_b = from_snapshot(b)?;

    let mut phase_secs: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for run in &report_a.runs {
        for (phase, secs) in &run.phases.secs {
            phase_secs.entry(phase.clone()).or_insert((0.0, 0.0)).0 += secs;
        }
        phase_secs.entry("retry_overhead".into()).or_insert((0.0, 0.0)).0 +=
            run.phases.retry_overhead_secs;
    }
    for run in &report_b.runs {
        for (phase, secs) in &run.phases.secs {
            phase_secs.entry(phase.clone()).or_insert((0.0, 0.0)).1 += secs;
        }
        phase_secs.entry("retry_overhead".into()).or_insert((0.0, 0.0)).1 +=
            run.phases.retry_overhead_secs;
    }

    let mut counter_deltas = BTreeMap::new();
    let counters_a: BTreeMap<String, u64> =
        a.metrics.counters().map(|(k, v)| (k.to_string(), v)).collect();
    let counters_b: BTreeMap<String, u64> =
        b.metrics.counters().map(|(k, v)| (k.to_string(), v)).collect();
    let names: BTreeSet<&String> = counters_a.keys().chain(counters_b.keys()).collect();
    for name in names {
        let va = counters_a.get(name).copied().unwrap_or(0);
        let vb = counters_b.get(name).copied().unwrap_or(0);
        if va != vb {
            counter_deltas.insert(name.clone(), (va, vb));
        }
    }

    let mut structure_changes = Vec::new();
    if report_a.runs.len() != report_b.runs.len() {
        structure_changes.push(format!(
            "tuning runs: {} -> {}",
            report_a.runs.len(),
            report_b.runs.len()
        ));
    }
    for (i, (ra, rb)) in report_a.runs.iter().zip(&report_b.runs).enumerate() {
        if ra.label != rb.label {
            structure_changes.push(format!("run {i}: label `{}` -> `{}`", ra.label, rb.label));
        }
        if ra.workload != rb.workload {
            structure_changes.push(format!("run {i}: workload {} -> {}", ra.workload, rb.workload));
        }
        if ra.rungs.len() != rb.rungs.len() {
            structure_changes.push(format!(
                "run {i}: rungs {} -> {}",
                ra.rungs.len(),
                rb.rungs.len()
            ));
        }
        if ra.trials != rb.trials {
            structure_changes.push(format!("run {i}: trials {} -> {}", ra.trials, rb.trials));
        }
        if ra.epochs != rb.epochs {
            structure_changes.push(format!("run {i}: epochs {} -> {}", ra.epochs, rb.epochs));
        }
    }

    Ok(TraceDiff {
        identical: a.to_json_string() == b.to_json_string(),
        first_difference: None,
        span_counts: merge_counts(
            &count_by(&a.spans, |s| s.kind.name().to_string()),
            &count_by(&b.spans, |s| s.kind.name().to_string()),
        ),
        event_counts: merge_counts(
            &count_by(&a.events, |e| e.kind.name().to_string()),
            &count_by(&b.events, |e| e.kind.name().to_string()),
        ),
        phase_secs,
        wall_secs: (
            report_a.runs.iter().map(|r| r.wall_secs).sum(),
            report_b.runs.iter().map(|r| r.wall_secs).sum(),
        ),
        counter_deltas,
        structure_changes,
    })
}
