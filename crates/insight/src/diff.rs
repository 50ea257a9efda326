//! Structural and per-phase comparison of two traces.
//!
//! A [`TraceDiff`] answers "what changed between these two runs?" — the
//! question behind every regression hunt. Both traces are validated and
//! analysed with [`TraceReport`] first, so a diff of malformed traces
//! fails loudly instead of comparing garbage.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use pipetune_telemetry::{TelemetrySnapshot, TraceError};

use crate::report::TraceReport;

/// The comparison of two traces (`a` is the baseline, `b` the candidate).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Whether the two traces export byte-identically.
    pub identical: bool,
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
        .map(|k| {
            (k.clone(), (a.get(k).copied().unwrap_or(0), b.get(k).copied().unwrap_or(0)))
        })
        .collect()
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
                structure_changes
                    .push(format!("run {i}: workload {} -> {}", ra.workload, rb.workload));
            }
            if ra.rungs.len() != rb.rungs.len() {
                structure_changes
                    .push(format!("run {i}: rungs {} -> {}", ra.rungs.len(), rb.rungs.len()));
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

    /// Renders the diff as a deterministic plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.identical {
            out.push_str("traces are byte-identical\n");
            return out;
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
            let trial =
                t.open_span(batch, SpanKind::Trial, format!("trial {i}"), 0.0, vec![]);
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

    #[test]
    fn diff_validates_both_sides() {
        let mut bad = trace(1, 1.0);
        bad.spans[1].parent = Some(7);
        assert!(TraceDiff::between(&trace(1, 1.0), &bad).is_err());
        assert!(TraceDiff::between(&bad, &trace(1, 1.0)).is_err());
    }
}
