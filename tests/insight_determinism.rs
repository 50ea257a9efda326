//! The insight layer's determinism contract (see `docs/insight.md`):
//!
//! 1. critical-path reports and trace diffs are **byte-identical** for
//!    every executor worker count, clean and under fault injection —
//!    they are pure functions of traces that are themselves
//!    byte-identical;
//! 2. traces round-trip through JSON (`to_json_string` →
//!    `from_json_str` → `to_json_string`) without changing the report;
//! 3. malformed traces are rejected by validation before any analysis;
//! 4. the regression gate fails exactly when a gated headline metric
//!    degrades beyond tolerance.

use pipetune::{ExperimentEnvBuilder, PipeTune, TunerOptions, WorkloadSpec};
use pipetune_cluster::FaultPlan;
use pipetune_insight::{
    check, headline_metrics, BenchReport, GateConfig, TraceDiff, TraceReport, Verdict,
};
use pipetune_telemetry::{TelemetryHandle, TelemetrySnapshot};

/// Runs two PipeTune jobs (the second exercises ground-truth reuse) under
/// a live telemetry handle and returns the snapshot.
fn run_traced(workers: usize, plan: FaultPlan) -> TelemetrySnapshot {
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(41)
        .workers(workers)
        .fault_plan(plan)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let mut tuner = PipeTune::new(TunerOptions::fast());
    tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
    tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
    telemetry.snapshot().expect("enabled handle")
}

fn assert_analysis_byte_identical(plan: FaultPlan) {
    let base_snap = run_traced(1, plan.clone());
    let base_report = TraceReport::from_snapshot(&base_snap).unwrap().render();
    for workers in [4usize, 64] {
        let snap = run_traced(workers, plan.clone());
        let report = TraceReport::from_snapshot(&snap).unwrap().render();
        assert_eq!(
            report, base_report,
            "critical-path report differs between workers=1 and workers={workers}"
        );
        let diff = TraceDiff::between(&base_snap, &snap).unwrap();
        assert!(diff.identical, "traces differ between workers=1 and workers={workers}");
        assert_eq!(
            diff.render(),
            TraceDiff::between(&base_snap, &base_snap).unwrap().render(),
            "diff rendering differs between workers=1 and workers={workers}"
        );
    }
}

#[test]
fn reports_and_diffs_byte_identical_across_worker_counts() {
    assert_analysis_byte_identical(FaultPlan::none());
}

#[test]
fn reports_and_diffs_byte_identical_across_worker_counts_under_faults() {
    assert_analysis_byte_identical(FaultPlan::mixed(7));
}

#[test]
fn real_traces_survive_the_json_round_trip_and_report_identically() {
    let snap = run_traced(4, FaultPlan::mixed(7));
    let text = snap.to_json_string();
    let parsed = TelemetrySnapshot::from_json_str(&text).expect("own exports re-import");
    assert_eq!(parsed.to_json_string(), text, "re-export must be byte-identical");

    // Analyses agree whether they saw the live snapshot or the re-import.
    let live = TraceReport::from_snapshot(&snap).unwrap().render();
    let reimported = TraceReport::from_json_str(&text).unwrap().render();
    assert_eq!(live, reimported);
}

#[test]
fn faulty_runs_attribute_retry_overhead() {
    let clean = TraceReport::from_snapshot(&run_traced(4, FaultPlan::none())).unwrap();
    let faulty = TraceReport::from_snapshot(&run_traced(4, FaultPlan::mixed(7))).unwrap();
    let overhead = |report: &TraceReport| -> f64 {
        report.runs.iter().map(|r| r.phases.retry_overhead_secs).sum()
    };
    assert_eq!(overhead(&clean), 0.0, "clean runs have no retry overhead");
    assert!(overhead(&faulty) > 0.0, "crash recovery must surface as retry overhead");
}

#[test]
fn validation_rejects_malformed_real_traces() {
    let snap = run_traced(1, FaultPlan::none());
    assert!(snap.validate().is_ok(), "real traces validate clean");

    // Orphaned parent reference.
    let mut broken = snap.clone();
    let last = broken.spans.len() as u32;
    broken.spans[5].parent = Some(last + 7);
    assert!(broken.validate().is_err());
    assert!(TraceReport::from_snapshot(&broken).is_err(), "analysis refuses invalid traces");
    assert!(TraceDiff::between(&snap, &broken).is_err());

    // End before start.
    let mut reversed = snap.clone();
    reversed.spans[0].end_secs = reversed.spans[0].start_secs - 1.0;
    assert!(reversed.validate().is_err());
}

#[test]
fn gate_detects_an_injected_tuning_time_regression() {
    let config = GateConfig::headline_defaults();
    let snap = run_traced(1, FaultPlan::none());
    let metrics = headline_metrics("lenet_mnist", &snap, &snap, &snap);
    let baseline = BenchReport { label: "bench_headline".into(), metrics };
    assert!(check(&baseline, &baseline, &config).passed(), "a report always passes against itself");

    // Degrade PipeTune tuning time by 20% — beyond the 5% tolerance.
    let mut regressed = baseline.clone();
    let key = "lenet_mnist.tuning_secs.pipetune";
    *regressed.metrics.get_mut(key).unwrap() *= 1.2;
    let outcome = check(&baseline, &regressed, &config);
    assert!(!outcome.passed(), "a 20% tuning-time degradation must fail the gate");
    assert!(outcome.checks.iter().any(|c| c.metric == key && c.verdict == Verdict::Regressed));

    // The committed baseline schema round-trips byte-identically.
    let text = baseline.to_json_string();
    let back = BenchReport::from_json_str(&text).unwrap();
    assert_eq!(back.to_json_string(), text);
}
