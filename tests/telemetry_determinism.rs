//! The telemetry layer's determinism contract (see `docs/telemetry.md`):
//!
//! 1. exported traces and metrics are **byte-identical** for every executor
//!    worker count, with and without fault injection, because workers record
//!    into private buffers that the coordinator merges in scheduler request
//!    order;
//! 2. a disabled [`TelemetryHandle`] is not just cheap but *invisible*: the
//!    tuning outcome is bit-identical whether telemetry is off or on.

use pipetune::{
    observe, ExperimentEnvBuilder, PipeTune, TunerOptions, TuningOutcome, WorkloadSpec,
};
use pipetune_cluster::{observe as cluster_observe, FaultPlan};
use pipetune_telemetry::{EventKind, SpanKind, TelemetryHandle, TelemetrySnapshot};

/// Runs two PipeTune jobs (the second exercises ground-truth reuse) under a
/// live telemetry handle and returns the outcomes plus the snapshot.
fn run_traced(workers: usize, plan: FaultPlan) -> (Vec<TuningOutcome>, TelemetrySnapshot) {
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(41)
        .workers(workers)
        .fault_plan(plan)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let mut tuner = PipeTune::new(TunerOptions::fast());
    let outcomes = vec![
        tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap(),
        tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap(),
    ];
    (outcomes, telemetry.snapshot().expect("enabled handle"))
}

fn assert_traces_byte_identical(plan: FaultPlan) {
    let (_, base) = run_traced(1, plan.clone());
    let base_trace = base.to_json_string();
    let base_metrics = base.metrics_json_string();
    for workers in [4usize, 64] {
        let (_, snap) = run_traced(workers, plan.clone());
        assert_eq!(
            snap.to_json_string(),
            base_trace,
            "trace JSON differs between workers=1 and workers={workers}"
        );
        assert_eq!(
            snap.metrics_json_string(),
            base_metrics,
            "metrics JSON differs between workers=1 and workers={workers}"
        );
    }
}

#[test]
fn trace_bytes_identical_across_worker_counts() {
    assert_traces_byte_identical(FaultPlan::none());
}

#[test]
fn trace_bytes_identical_across_worker_counts_under_faults() {
    assert_traces_byte_identical(FaultPlan::mixed(7));
}

#[test]
fn disabled_handle_leaves_tuning_outcome_bit_identical() {
    let run = |telemetry: TelemetryHandle| {
        let env =
            ExperimentEnvBuilder::distributed(23).workers(2).telemetry(telemetry).build().unwrap();
        PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap()
    };
    let off = run(TelemetryHandle::disabled());
    let on = run(TelemetryHandle::enabled());
    assert_eq!(off.best_accuracy.to_bits(), on.best_accuracy.to_bits());
    assert_eq!(off.best_hp, on.best_hp);
    assert_eq!(off.best_system, on.best_system);
    assert_eq!(off.best_trial_id, on.best_trial_id);
    assert_eq!(off.tuning_secs.to_bits(), on.tuning_secs.to_bits());
    assert_eq!(off.tuning_energy_j.to_bits(), on.tuning_energy_j.to_bits());
    assert_eq!(off.epochs_total, on.epochs_total);
    assert_eq!(off.gt_stats, on.gt_stats);
    assert_eq!(off.convergence.len(), on.convergence.len());
    for (a, b) in off.convergence.iter().zip(&on.convergence) {
        assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
    }
}

#[test]
fn trace_structure_matches_the_span_taxonomy() {
    let (outcomes, snap) = run_traced(4, FaultPlan::none());

    // Two jobs → two root `tuning_run` spans labelled by the tuner.
    let roots: Vec<_> = snap.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 2);
    assert!(roots.iter().all(|s| s.kind == SpanKind::TuningRun && s.label == "pipetune"));

    // Every non-root span points at an earlier span; the hierarchy is
    // tuning_run > rung > batch > trial > epoch.
    for (i, span) in snap.spans.iter().enumerate() {
        if let Some(p) = span.parent {
            assert!((p as usize) < i, "parent must be recorded before child");
            let parent = &snap.spans[p as usize];
            let expected_parent = match span.kind {
                SpanKind::Service | SpanKind::Job => {
                    unreachable!("standalone tuner runs emit no service-layer spans")
                }
                SpanKind::TuningRun => unreachable!("roots have no parent"),
                SpanKind::Rung => SpanKind::TuningRun,
                SpanKind::Batch => SpanKind::Rung,
                SpanKind::Trial => SpanKind::Batch,
                SpanKind::Epoch => SpanKind::Trial,
            };
            assert_eq!(parent.kind, expected_parent, "span {i} mis-parented");
        }
    }

    // Epoch spans == committed epochs == the epochs.total counter.
    let epoch_spans = snap.spans.iter().filter(|s| s.kind == SpanKind::Epoch).count() as u64;
    assert_eq!(epoch_spans, snap.metrics.counter(observe::EPOCHS_TOTAL));
    let by_phase = snap.metrics.counter(observe::EPOCHS_PROFILE)
        + snap.metrics.counter(observe::EPOCHS_PROBE)
        + snap.metrics.counter(observe::EPOCHS_TUNED)
        + snap.metrics.counter(observe::EPOCHS_FIXED);
    assert_eq!(by_phase, epoch_spans, "phase counters partition epochs.total");

    // Pipeline events: every trial profiles, probes happened, the second
    // job's ground-truth hits are visible both as events and counters.
    assert!(snap.events.iter().any(|e| e.kind == EventKind::Profile));
    assert!(snap.events.iter().any(|e| e.kind == EventKind::GtLookup));
    assert!(snap.events.iter().any(|e| e.kind == EventKind::Probe));
    assert!(snap.metrics.counter(observe::PROBE_COUNT) > 0);
    let total_outcome_epochs: u64 = outcomes.iter().map(|o| o.epochs_total).sum();
    assert_eq!(
        snap.metrics.gauge(observe::SCHEDULER_EPOCHS),
        Some(outcomes[1].epochs_total as f64)
    );
    assert!(total_outcome_epochs > 0);
    assert!(snap.metrics.counter(observe::GT_HITS) > 0, "second job should hit the ground truth");

    // Exporters agree with the snapshot and stay non-empty.
    assert!(snap.to_line_protocol().contains("pipetune_span,kind=tuning_run"));
    let table = snap.summary_table();
    assert!(table.contains(observe::EPOCHS_TOTAL));
    assert!(table.contains("tuning_run"));
}

#[test]
fn real_traces_validate_and_round_trip_byte_identically() {
    for plan in [FaultPlan::none(), FaultPlan::mixed(7)] {
        let (_, snap) = run_traced(2, plan);

        // The recorded span tree satisfies the validation contract…
        snap.validate().expect("real traces are well-formed");

        // …and the JSON export is a true serialisation: parsing it back
        // and re-exporting reproduces the original bytes exactly.
        let text = snap.to_json_string();
        let parsed = TelemetrySnapshot::from_json_str(&text).expect("own exports re-import");
        assert_eq!(parsed.to_json_string(), text, "export → parse → export must be identity");
        parsed.validate().expect("re-imported traces stay well-formed");
    }
}

#[test]
fn faulty_runs_trace_faults_without_tracing_doomed_attempts() {
    let (_, snap) = run_traced(4, FaultPlan::mixed(7));

    // Fault and retry/checkpoint events are recorded explicitly…
    assert!(snap.events.iter().any(|e| e.kind == EventKind::Fault));
    assert!(snap.metrics.counter(cluster_observe::FAULTS_INJECTED) > 0);

    // …while rolled-back (suppressed) attempts never leak epoch spans: the
    // span count still matches the committed-epoch counter exactly.
    let epoch_spans = snap.spans.iter().filter(|s| s.kind == SpanKind::Epoch).count() as u64;
    assert_eq!(epoch_spans, snap.metrics.counter(observe::EPOCHS_TOTAL));

    // Fault gauges summarise the recovery accounting of the last run.
    assert!(snap.metrics.gauge(cluster_observe::FAULTS_WASTED_SECS).is_some());
    assert!(snap.metrics.gauge(cluster_observe::FAULTS_RECOVERY_SECS).is_some());
}
