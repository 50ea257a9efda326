//! Headline-metric extraction: from traces to the paper's claims.
//!
//! The paper's headline numbers (§7) are tuning-time reduction vs the
//! sequential baseline, end-to-end speedup, energy reduction and final
//! accuracy. These helpers compute them from the telemetry traces of a
//! PipeTune run and the two baseline tuners, producing the metric map a
//! [`crate::BenchReport`] persists.

use std::collections::BTreeMap;

use pipetune_telemetry::{attr_f64, SpanKind, TelemetrySnapshot};

/// Total simulated tuning time: the summed extent of every `tuning_run`
/// span in the trace. Runs count whether they are top-level or nested
/// under a service's `job` span — the taxonomy never nests one
/// `tuning_run` inside another, so there is no double counting.
pub fn tuning_secs(snapshot: &TelemetrySnapshot) -> f64 {
    snapshot
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::TuningRun)
        .filter(|s| s.start_secs.is_finite() && s.end_secs.is_finite())
        .map(|s| s.end_secs - s.start_secs)
        .sum()
}

/// Total simulated energy: the `energy_j` attribute summed over every
/// epoch span (crash-recovery waste is charged there by the executor).
pub fn total_energy_j(snapshot: &TelemetrySnapshot) -> f64 {
    snapshot
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Epoch)
        .filter_map(|s| attr_f64(&s.attrs, "energy_j"))
        .sum()
}

/// The best trial accuracy recorded in the trace (the `accuracy`
/// attribute of the highest-`score` trial span), if any trial finished.
pub fn best_accuracy(snapshot: &TelemetrySnapshot) -> Option<f64> {
    snapshot
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Trial)
        .filter_map(|s| Some((attr_f64(&s.attrs, "score")?, attr_f64(&s.attrs, "accuracy")?)))
        .max_by(|(a, _), (b, _)| a.total_cmp(b))
        .map(|(_, accuracy)| accuracy)
}

/// Computes the headline metric map for one workload from the traces of
/// the two baselines and PipeTune.
///
/// Keys are prefixed `"{workload_key}."`; ratio metrics are only emitted
/// when their denominators are positive, so a degenerate trace produces
/// a smaller map rather than NaNs (which would not survive the
/// sorted-key JSON round trip).
///
/// # Example
///
/// ```
/// use pipetune_insight::headline_metrics;
/// use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle};
///
/// let run = |label: &str, secs: f64| {
///     let t = TelemetryHandle::enabled();
///     let span = t.open_span(SpanId::NONE, SpanKind::TuningRun, label, 0.0, vec![]);
///     t.close_span(span, secs);
///     t.snapshot().unwrap()
/// };
/// let metrics = headline_metrics(
///     "lenet_mnist",
///     &run("tune_v1", 100.0),
///     &run("tune_v2", 60.0),
///     &run("pipetune", 40.0),
/// );
/// assert_eq!(metrics["lenet_mnist.speedup_vs_v1"], 2.5);
/// assert_eq!(metrics["lenet_mnist.tuning_time_reduction_vs_v1"], 0.6);
/// ```
pub fn headline_metrics(
    workload_key: &str,
    tune_v1: &TelemetrySnapshot,
    tune_v2: &TelemetrySnapshot,
    pipetune: &TelemetrySnapshot,
) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        if value.is_finite() {
            metrics.insert(format!("{workload_key}.{name}"), value);
        }
    };

    let v1 = tuning_secs(tune_v1);
    let v2 = tuning_secs(tune_v2);
    let pt = tuning_secs(pipetune);
    put("tuning_secs.tune_v1", v1);
    put("tuning_secs.tune_v2", v2);
    put("tuning_secs.pipetune", pt);
    if v1 > 0.0 {
        put("tuning_time_reduction_vs_v1", 1.0 - pt / v1);
        put("speedup_vs_v1", v1 / pt);
    }
    if v2 > 0.0 {
        put("tuning_time_reduction_vs_v2", 1.0 - pt / v2);
    }

    let v1_energy = total_energy_j(tune_v1);
    let pt_energy = total_energy_j(pipetune);
    put("energy_j.tune_v1", v1_energy);
    put("energy_j.pipetune", pt_energy);
    if v1_energy > 0.0 {
        put("energy_reduction_vs_v1", 1.0 - pt_energy / v1_energy);
    }

    if let Some(accuracy) = best_accuracy(pipetune) {
        put("final_accuracy", accuracy);
    }
    metrics
}

/// Computes the epoch-reuse cache headline for one workload: a cold run
/// (empty cache) against a warm rerun over the cache the cold run filled.
///
/// Keys are prefixed `"cache.{workload_key}."`. `warm_speedup`
/// (`cold_secs / warm_secs`, the gated metric) is only emitted when both
/// durations are positive, mirroring [`headline_metrics`]' NaN hygiene.
///
/// # Example
///
/// ```
/// use pipetune_insight::cache_speedup_metrics;
///
/// let m = cache_speedup_metrics("lenet_mnist", 100.0, 80.0, 20.0);
/// assert_eq!(m["cache.lenet_mnist.warm_speedup"], 1.25);
/// assert_eq!(m["cache.lenet_mnist.saved_secs"], 20.0);
/// ```
pub fn cache_speedup_metrics(
    workload_key: &str,
    cold_secs: f64,
    warm_secs: f64,
    saved_secs: f64,
) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        if value.is_finite() {
            metrics.insert(format!("cache.{workload_key}.{name}"), value);
        }
    };
    put("cold_secs", cold_secs);
    put("warm_secs", warm_secs);
    put("saved_secs", saved_secs);
    if cold_secs > 0.0 && warm_secs > 0.0 {
        put("warm_speedup", cold_secs / warm_secs);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_telemetry::{SpanId, TelemetryHandle};

    fn traced_run(label: &str, secs: f64, energy: f64, accuracy: f64) -> TelemetrySnapshot {
        let t = TelemetryHandle::enabled();
        let run = t.open_span(SpanId::NONE, SpanKind::TuningRun, label, 0.0, vec![]);
        let rung = t.open_span(run, SpanKind::Rung, "round 0", 0.0, vec![]);
        let batch = t.open_span(rung, SpanKind::Batch, "batch of 1", 0.0, vec![]);
        let trial = t.open_span(
            batch,
            SpanKind::Trial,
            "trial 0",
            0.0,
            vec![("accuracy", accuracy.into()), ("score", accuracy.into())],
        );
        let epoch = t.open_span(
            trial,
            SpanKind::Epoch,
            "epoch 1 (tuned)",
            0.0,
            vec![("energy_j", energy.into())],
        );
        t.close_span(epoch, secs);
        t.close_span(trial, secs);
        t.close_span(batch, secs);
        t.close_span(rung, secs);
        t.close_span(run, secs);
        t.snapshot().unwrap()
    }

    #[test]
    fn extracts_time_energy_and_accuracy() {
        let v1 = traced_run("tune_v1", 200.0, 1000.0, 0.90);
        let v2 = traced_run("tune_v2", 100.0, 700.0, 0.91);
        let pt = traced_run("pipetune", 50.0, 400.0, 0.92);
        let m = headline_metrics("w", &v1, &v2, &pt);
        assert_eq!(m["w.tuning_secs.pipetune"], 50.0);
        assert_eq!(m["w.speedup_vs_v1"], 4.0);
        assert_eq!(m["w.tuning_time_reduction_vs_v1"], 0.75);
        assert_eq!(m["w.tuning_time_reduction_vs_v2"], 0.5);
        assert_eq!(m["w.energy_reduction_vs_v1"], 0.6);
        assert_eq!(m["w.final_accuracy"], 0.92);
    }

    #[test]
    fn degenerate_traces_omit_ratio_metrics() {
        let empty = TelemetrySnapshot::default();
        let m = headline_metrics("w", &empty, &empty, &empty);
        assert!(!m.contains_key("w.speedup_vs_v1"));
        assert!(!m.contains_key("w.final_accuracy"));
        assert_eq!(m["w.tuning_secs.pipetune"], 0.0);
    }

    #[test]
    fn tuning_secs_counts_runs_nested_under_service_jobs() {
        let t = TelemetryHandle::enabled();
        let svc = t.open_span(SpanId::NONE, SpanKind::Service, "service fifo", 0.0, vec![]);
        let job = t.open_span(svc, SpanKind::Job, "job 0", 0.0, vec![]);
        let nested = t.open_span(job, SpanKind::TuningRun, "pipetune", 0.0, vec![]);
        t.close_span(nested, 40.0);
        let top = t.open_span(SpanId::NONE, SpanKind::TuningRun, "pipetune", 0.0, vec![]);
        t.close_span(top, 2.0);
        t.close_span(job, 40.0);
        t.close_span(svc, 40.0);
        assert_eq!(tuning_secs(&t.snapshot().unwrap()), 42.0);
    }

    #[test]
    fn best_accuracy_follows_the_highest_score() {
        let t = TelemetryHandle::enabled();
        let run = t.open_span(SpanId::NONE, SpanKind::TuningRun, "pipetune", 0.0, vec![]);
        let rung = t.open_span(run, SpanKind::Rung, "round 0", 0.0, vec![]);
        let batch = t.open_span(rung, SpanKind::Batch, "batch of 2", 0.0, vec![]);
        for (score, accuracy) in [(0.5, 0.80), (0.9, 0.95)] {
            let trial = t.open_span(
                batch,
                SpanKind::Trial,
                "trial",
                0.0,
                vec![("accuracy", accuracy.into()), ("score", score.into())],
            );
            t.close_span(trial, 1.0);
        }
        t.close_span(batch, 1.0);
        t.close_span(rung, 1.0);
        t.close_span(run, 1.0);
        assert_eq!(best_accuracy(&t.snapshot().unwrap()), Some(0.95));
    }
}
