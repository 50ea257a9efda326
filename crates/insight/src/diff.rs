//! Structural and per-phase comparison of two traces.
//!
//! A [`TraceDiff`] answers "what changed between these two runs?" — the
//! question behind every regression hunt. Both traces are validated and
//! analysed with [`TraceReport`] first, so a diff of malformed traces
//! fails loudly instead of comparing garbage.
//!
//! Whether the two traces export byte-identically — and where they first do
//! not — is [`TelemetrySnapshot::export_difference`]'s answer: neither
//! export is written to find out.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pipetune_telemetry::{TelemetrySnapshot, TraceError};

use crate::report::{entry, TraceReport};

/// The comparison of two traces (`a` is the baseline, `b` the candidate).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Whether the two traces export byte-identically.
    pub identical: bool,
    /// The first record of the exports that differs and how (`span 17
    /// label: "trial 1" -> "trial 2"`, `events: 1140 -> 1141`); `None`
    /// exactly when `identical`. The tables below show what changed in
    /// counts and sums — this shows a change they cannot, one label or one
    /// gauge.
    pub first_difference: Option<String>,
    /// Span counts per kind name: `(a, b)`.
    pub span_counts: BTreeMap<String, (usize, usize)>,
    /// Event counts per kind name: `(a, b)`.
    pub event_counts: BTreeMap<String, (usize, usize)>,
    /// Per-phase attributed seconds summed over all runs: `(a, b)`.
    pub phase_secs: BTreeMap<String, (f64, f64)>,
    /// Total wall seconds summed over all runs: `(a, b)`.
    pub wall_secs: (f64, f64),
    /// Metric counters that differ: name → `(a, b)`.
    pub counter_deltas: BTreeMap<String, (u64, u64)>,
    /// Human-readable structural changes (run/rung/trial shape).
    pub structure_changes: Vec<String>,
}

/// Records of `a` and of `b` per kind name, for the kinds either side has.
/// `kind` gives a record's kind as its discriminant and its name: the
/// counting is done in an array indexed by the one, no string per record.
fn count_kinds<T>(
    a: &[T],
    b: &[T],
    kind: impl Fn(&T) -> (usize, &'static str),
) -> BTreeMap<String, (usize, usize)> {
    let mut counts: Vec<(&'static str, [usize; 2])> = Vec::new();
    for (side, records) in [a, b].into_iter().enumerate() {
        for record in records {
            let (index, name) = kind(record);
            if counts.len() <= index {
                counts.resize(index + 1, ("", [0, 0]));
            }
            counts[index].0 = name;
            counts[index].1[side] += 1;
        }
    }
    counts
        .into_iter()
        .filter(|(_, [in_a, in_b])| in_a + in_b > 0)
        .map(|(name, [in_a, in_b])| (name.to_string(), (in_a, in_b)))
        .collect()
}

/// Adds each run's phase seconds into one side of `phase_secs`.
fn sum_phases(
    phase_secs: &mut BTreeMap<String, (f64, f64)>,
    report: &TraceReport,
    side: fn(&mut (f64, f64)) -> &mut f64,
) {
    for run in &report.runs {
        for (phase, secs) in &run.phases.secs {
            *side(entry(phase_secs, phase)) += secs;
        }
        *side(entry(phase_secs, "retry_overhead")) += run.phases.retry_overhead_secs;
    }
}

impl TraceDiff {
    /// Compares two snapshots.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] if either trace fails validation.
    ///
    /// # Example
    ///
    /// ```
    /// use pipetune_insight::TraceDiff;
    /// use pipetune_telemetry::TelemetrySnapshot;
    ///
    /// let empty = TelemetrySnapshot::default();
    /// let diff = TraceDiff::between(&empty, &empty).unwrap();
    /// assert!(diff.identical);
    /// assert!(diff.render().contains("identical"));
    /// ```
    pub fn between(a: &TelemetrySnapshot, b: &TelemetrySnapshot) -> Result<Self, TraceError> {
        let report_a = TraceReport::from_snapshot(a)?;
        let report_b = TraceReport::from_snapshot(b)?;

        let mut phase_secs: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        sum_phases(&mut phase_secs, &report_a, |sums| &mut sums.0);
        sum_phases(&mut phase_secs, &report_b, |sums| &mut sums.1);

        // A counter one side lacks counts as 0 there.
        let mut counter_deltas = BTreeMap::new();
        for (name, _) in a.metrics.counters().chain(b.metrics.counters()) {
            let (va, vb) = (a.metrics.counter(name), b.metrics.counter(name));
            if va != vb && !counter_deltas.contains_key(name) {
                counter_deltas.insert(name.to_string(), (va, vb));
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
                structure_changes
                    .push(format!("run {i}: workload {} -> {}", ra.workload, rb.workload));
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

        let first_difference = a.export_difference(b);
        Ok(TraceDiff {
            identical: first_difference.is_none(),
            first_difference,
            span_counts: count_kinds(&a.spans, &b.spans, |s| (s.kind as usize, s.kind.name())),
            event_counts: count_kinds(&a.events, &b.events, |e| (e.kind as usize, e.kind.name())),
            phase_secs,
            wall_secs: (
                report_a.runs.iter().map(|r| r.wall_secs).sum(),
                report_b.runs.iter().map(|r| r.wall_secs).sum(),
            ),
            counter_deltas,
            structure_changes,
        })
    }

    /// Renders the diff as a deterministic plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.identical {
            out.push_str("traces are byte-identical\n");
            return out;
        }
        if let Some(difference) = &self.first_difference {
            let _ = writeln!(out, "first difference: {difference}");
        }
        let _ = writeln!(
            out,
            "wall secs: {:.3} -> {:.3} ({:+.3})",
            self.wall_secs.0,
            self.wall_secs.1,
            self.wall_secs.1 - self.wall_secs.0
        );
        let _ = writeln!(out, "phase attribution (secs):");
        for (phase, (va, vb)) in &self.phase_secs {
            let _ = writeln!(out, "  {phase:<16} {va:>12.3} -> {vb:>12.3} ({:+.3})", vb - va);
        }
        let _ = writeln!(out, "span counts:");
        for (kind, (va, vb)) in &self.span_counts {
            let marker = if va == vb { " " } else { "*" };
            let _ = writeln!(out, " {marker}{kind:<16} {va:>6} -> {vb:>6}");
        }
        let _ = writeln!(out, "event counts:");
        for (kind, (va, vb)) in &self.event_counts {
            let marker = if va == vb { " " } else { "*" };
            let _ = writeln!(out, " {marker}{kind:<16} {va:>6} -> {vb:>6}");
        }
        if !self.counter_deltas.is_empty() {
            let _ = writeln!(out, "changed counters:");
            for (name, (va, vb)) in &self.counter_deltas {
                let _ = writeln!(out, "  {name}: {va} -> {vb}");
            }
        }
        if !self.structure_changes.is_empty() {
            let _ = writeln!(out, "structure changes:");
            for change in &self.structure_changes {
                let _ = writeln!(out, "  {change}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle};

    fn trace(trials: usize, trial_secs: f64) -> TelemetrySnapshot {
        let t = TelemetryHandle::enabled();
        let end = trial_secs;
        let run = t.open_span(
            SpanId::NONE,
            SpanKind::TuningRun,
            "pipetune",
            0.0,
            vec![("workload", "w".into()), ("parallel_slots", 2u64.into())],
        );
        let rung = t.open_span(run, SpanKind::Rung, "round 0", 0.0, vec![("round", 0u64.into())]);
        let batch = t.open_span(rung, SpanKind::Batch, "batch", 0.0, vec![]);
        for i in 0..trials {
            let trial = t.open_span(batch, SpanKind::Trial, format!("trial {i}"), 0.0, vec![]);
            let epoch = t.open_span(
                trial,
                SpanKind::Epoch,
                "epoch 1 (tuned)",
                0.0,
                vec![("phase", "tuned".into())],
            );
            t.close_span(epoch, end);
            t.close_span(trial, end);
        }
        t.close_span(batch, end);
        t.close_span(rung, end);
        t.close_span(run, end);
        t.counter_add("epochs.total", trials as u64);
        t.snapshot().unwrap()
    }

    #[test]
    fn identical_traces_diff_empty() {
        let diff = TraceDiff::between(&trace(2, 1.0), &trace(2, 1.0)).unwrap();
        assert!(diff.identical);
        assert!(diff.counter_deltas.is_empty());
        assert!(diff.structure_changes.is_empty());
    }

    #[test]
    fn diff_reports_phase_structure_and_counter_changes() {
        let diff = TraceDiff::between(&trace(2, 1.0), &trace(3, 2.0)).unwrap();
        assert!(!diff.identical);
        assert_eq!(diff.phase_secs["tuned"], (2.0, 6.0));
        assert_eq!(diff.span_counts["trial"], (2, 3));
        assert_eq!(diff.counter_deltas["epochs.total"], (2, 3));
        assert!(diff.structure_changes.iter().any(|c| c.contains("trials 2 -> 3")));
        assert_eq!(diff.wall_secs, (1.0, 2.0));
        let text = diff.render();
        for needle in ["wall secs", "tuned", "*trial", "epochs.total: 2 -> 3", "trials 2 -> 3"] {
            assert!(text.contains(needle), "diff render missing {needle}:\n{text}");
        }
    }

    /// A difference the tables cannot show — they tabulate counts, counters
    /// and phase sums — is still named: the first record that differs.
    #[test]
    fn a_diff_that_says_different_says_where() {
        use pipetune_telemetry::{Event, EventKind, COUNT_BUCKETS};

        let base = || {
            let mut snapshot = trace(2, 1.0);
            snapshot.metrics.gauge_set("cache.saved_secs", 12.5);
            snapshot.metrics.observe("executor.batch_trials", COUNT_BUCKETS, 3.0);
            snapshot.events.push(Event {
                kind: EventKind::Checkpoint,
                span: Some(3),
                at_secs: 0.5,
                attrs: vec![("epoch", 1u64.into())],
            });
            snapshot
        };
        let first_difference = |edit: &dyn Fn(&mut TelemetrySnapshot)| {
            let mut edited = base();
            edit(&mut edited);
            let diff = TraceDiff::between(&base(), &edited).unwrap();
            assert!(!diff.identical);
            let difference = diff.first_difference.clone().expect("not identical");
            assert!(
                diff.render().starts_with(&format!("first difference: {difference}\n")),
                "{}",
                diff.render()
            );
            difference
        };

        assert_eq!(
            first_difference(&|t| t.spans[5].label = "trial 9".into()),
            r#"span 5 label: "trial 1" -> "trial 9""#
        );
        assert_eq!(
            first_difference(&|t| t.spans[4].attrs[0].1 = "probe".into()),
            r#"span 4 attrs phase: "tuned" -> "probe""#
        );
        assert_eq!(
            first_difference(&|t| t.spans[4].attrs.push(("cores", 8u64.into()))),
            r#"span 4 attrs: key "phase" -> key "cores""#
        );
        assert_eq!(
            first_difference(&|t| t.events[0].attrs[0].1 = 2u64.into()),
            "event 0 attrs epoch: 1 -> 2"
        );
        assert_eq!(
            first_difference(&|t| t.metrics.gauge_set("cache.saved_secs", 13.0)),
            "metrics gauges cache.saved_secs: 12.5 -> 13.0"
        );
        // One observation in the next bucket: count and bounds agree, the
        // buckets are the first thing that does not.
        assert_eq!(
            first_difference(&|t| {
                *t = trace(2, 1.0);
                t.metrics.gauge_set("cache.saved_secs", 12.5);
                t.metrics.observe("executor.batch_trials", COUNT_BUCKETS, 5.0);
                t.events = base().events;
            }),
            "metrics histograms executor.batch_trials counts: 1 -> 0"
        );
        assert_eq!(
            first_difference(&|t| {
                let again = t.events[0].clone();
                t.events.push(again);
            }),
            "events: 1 -> 2"
        );
        assert_eq!(
            first_difference(&|t| {
                let again = t.spans[6].clone();
                t.spans.push(again);
            }),
            "spans: 7 -> 8"
        );

        let same = TraceDiff::between(&base(), &base()).unwrap();
        assert_eq!(same.first_difference, None);
        assert_eq!(same.render(), "traces are byte-identical\n");
    }

    #[test]
    fn diff_validates_both_sides() {
        let mut bad = trace(1, 1.0);
        bad.spans[1].parent = Some(7);
        assert!(TraceDiff::between(&trace(1, 1.0), &bad).is_err());
        assert!(TraceDiff::between(&bad, &trace(1, 1.0)).is_err());
    }
}
