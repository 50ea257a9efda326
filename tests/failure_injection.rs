//! Failure-injection tests: the middleware must degrade gracefully when its
//! substrates misbehave — noisy counters, corrupt persistence, hostile
//! scores, pathological environments.

use pipetune::{
    ExperimentEnv, ExperimentEnvBuilder, FaultPlan, GroundTruth, HyperParams, PipeTune,
    PipeTuneError, ProbeGoal, SystemTuner, TrialExecution, TuneV2, TunerOptions, WorkloadSpec,
};
use pipetune_search::{HyperBand, ParamSpec, SearchSpace, TrialReport, TrialScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn pipetune_survives_a_pathologically_noisy_profiler() {
    // Blind spots on every multiplexed event, maximal noise: reuse decisions
    // may be wrong, but the tuner must complete and produce a valid model.
    let mut env = ExperimentEnv::distributed(2001);
    env.profiler.blind_spot_prob = 1.0;
    env.profiler.multiplex_noise = 0.5;
    let out = PipeTune::new(TunerOptions::fast())
        .run(&env, &WorkloadSpec::lenet_mnist())
        .expect("job must complete");
    assert!((0.0..=1.0).contains(&out.best_accuracy));
    assert!(out.tuning_secs.is_finite() && out.tuning_secs > 0.0);
}

#[test]
fn corrupt_ground_truth_file_is_reported_not_panicked() {
    let dir = std::env::temp_dir().join("pipetune_failinj");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corrupt_gt.json");
    std::fs::write(&path, "{ definitely not [ valid").expect("write");
    let err = GroundTruth::load(&path, 2, 3.0, 1).expect_err("must fail");
    assert!(err.to_string().contains("corrupt"), "got: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn ground_truth_records_with_inconsistent_dimensions_fail_cleanly() {
    let mut gt = GroundTruth::paper_default(7);
    gt.record("a", &[1.0, 2.0], pipetune_cluster::SystemConfig::new(4, 8), 1.0).unwrap();
    gt.record("a", &[1.0, 2.0], pipetune_cluster::SystemConfig::new(4, 8), 1.0).unwrap();
    gt.record("b", &[1.0, 2.0, 3.0], pipetune_cluster::SystemConfig::new(8, 8), 1.0).unwrap();
    // Mixed dimensions: the automatic re-clustering on the 4th record must
    // surface a ClusteringError, not panic or corrupt state.
    let err = gt
        .record("b", &[1.0, 2.0, 3.0], pipetune_cluster::SystemConfig::new(8, 8), 1.0)
        .expect_err("refit over ragged features must fail");
    assert!(err.to_string().contains("dimension"), "got: {err}");
    // The store itself is still usable afterwards.
    assert_eq!(gt.len(), 4);
}

#[test]
fn hyperband_tolerates_nan_and_infinite_scores() {
    let space = SearchSpace::new(vec![ParamSpec::float_range("x", 0.0, 1.0, false)]);
    let mut hb = HyperBand::new(space, 9, 3, 3);
    let mut toggle = false;
    let mut guard = 0;
    while !hb.is_finished() {
        for r in hb.next_trials() {
            toggle = !toggle;
            let score = if toggle { f64::NAN } else { f64::NEG_INFINITY };
            hb.report(TrialReport { id: r.id, score, epochs_run: r.epochs });
        }
        guard += 1;
        assert!(guard < 1000, "scheduler wedged on hostile scores");
    }
    // Nothing sane was reported, but the scheduler still terminated.
    assert!(hb.is_finished());
}

#[test]
fn zero_core_probe_candidates_never_get_chosen() {
    // A hostile system space containing an unplaceable configuration: the
    // cost model prices it at infinity, so probing must route around it.
    let mut env = ExperimentEnv::distributed(2002);
    env.system_space.cores = vec![0, 4, 8];
    let hp =
        HyperParams { batch_size: 256, learning_rate: 0.02, epochs: 20, ..HyperParams::default() };
    let workload = WorkloadSpec::lenet_mnist().with_scale(0.2).instantiate(&hp, 1).expect("builds");
    let mut gt = GroundTruth::paper_default(1);
    let mut trial = TrialExecution::new(workload, SystemTuner::pipelined(ProbeGoal::Runtime));
    let mut rng = StdRng::seed_from_u64(5);
    trial.run_epochs(&env, 12, Some(&mut gt), 1.0, &mut rng).expect("runs");
    let chosen = trial.tuner().chosen().expect("probing finished");
    assert!(chosen.cores > 0, "chose the unplaceable config {chosen}");
}

#[test]
fn empty_epoch_requests_are_noops() {
    let env = ExperimentEnv::distributed(2003);
    let hp = HyperParams::default();
    let workload = WorkloadSpec::bfs().with_scale(0.2).instantiate(&hp, 1).expect("builds");
    let mut trial = TrialExecution::new(workload, SystemTuner::Fixed(env.default_system));
    let mut rng = StdRng::seed_from_u64(5);
    trial.run_epochs(&env, 0, None, 1.0, &mut rng).expect("noop");
    assert_eq!(trial.records().len(), 0);
    assert_eq!(trial.duration_secs(), 0.0);
}

#[test]
fn extreme_contention_still_yields_finite_times() {
    let env = ExperimentEnv::distributed(2004);
    let hp = HyperParams::default();
    let workload = WorkloadSpec::lenet_mnist().with_scale(0.2).instantiate(&hp, 1).expect("builds");
    let mut trial = TrialExecution::new(workload, SystemTuner::Fixed(env.default_system));
    let mut rng = StdRng::seed_from_u64(6);
    trial.run_epochs(&env, 2, None, 1e6, &mut rng).expect("runs");
    assert!(trial.duration_secs().is_finite());
    assert!(trial.energy_j().is_finite());
}

#[test]
fn crash_every_epoch_abandons_the_trial_after_the_retry_budget() {
    // Certain crash probability: every attempt of every epoch dies, so the
    // first epoch burns the whole retry budget and the trial is abandoned
    // with a typed error.
    let env = ExperimentEnvBuilder::distributed(2005)
        .fault_plan(FaultPlan::crashes(31, 1.0))
        .build()
        .unwrap();
    let hp =
        HyperParams { batch_size: 256, learning_rate: 0.02, epochs: 20, ..HyperParams::default() };
    let workload = WorkloadSpec::lenet_mnist().with_scale(0.2).instantiate(&hp, 1).expect("builds");
    let mut trial =
        TrialExecution::new(workload, SystemTuner::Fixed(env.default_system)).with_trial_id(7);
    let mut rng = StdRng::seed_from_u64(9);
    let err = trial.run_epochs(&env, 3, None, 1.0, &mut rng).expect_err("must abandon");
    match err {
        PipeTuneError::RetriesExhausted { trial_id, attempts } => {
            assert_eq!(trial_id, 7);
            assert_eq!(attempts, pipetune::EPOCH_ATTEMPTS);
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    assert_eq!(trial.fault_report().abandoned, 1);
}

#[test]
fn scheduler_terminates_when_every_trial_is_abandoned() {
    // At the job level, universal abandonment must not wedge the scheduler:
    // abandoned trials score NEG_INFINITY, HyperBand drains normally, and
    // the run surfaces a descriptive error instead of hanging or panicking.
    let env = ExperimentEnvBuilder::distributed(2006)
        .fault_plan(FaultPlan::crashes(32, 1.0))
        .build()
        .unwrap();
    let err = PipeTune::new(TunerOptions::fast())
        .run(&env, &WorkloadSpec::lenet_mnist())
        .expect_err("no trial can survive a certain crash");
    assert!(err.to_string().contains("abandoned"), "got: {err}");
}

#[test]
fn straggler_only_plan_changes_durations_but_not_accuracies() {
    // Stragglers slow epochs down without losing work, so the tuned model
    // and every trial accuracy must be bit-equal to the fault-free run;
    // only the clocks (and the fault report) move.
    let clean_env = ExperimentEnv::distributed(2007);
    let slow_env = ExperimentEnvBuilder::distributed(2007)
        .fault_plan(FaultPlan::stragglers(33, 0.4))
        .build()
        .unwrap();
    let clean =
        PipeTune::new(TunerOptions::fast()).run(&clean_env, &WorkloadSpec::lenet_mnist()).unwrap();
    let slow =
        PipeTune::new(TunerOptions::fast()).run(&slow_env, &WorkloadSpec::lenet_mnist()).unwrap();
    assert!(slow.fault_report.stragglers > 0, "plan should inject stragglers");
    assert_eq!(slow.fault_report.crashes, 0);
    assert_eq!(slow.fault_report.abandoned, 0);
    assert_eq!(slow.best_accuracy.to_bits(), clean.best_accuracy.to_bits());
    // Same trials, same accuracies (completion order may shift with the
    // inflated clocks, so compare as multisets).
    let accs = |o: &pipetune::TuningOutcome| {
        let mut a: Vec<u32> = o.convergence.iter().map(|p| p.accuracy.to_bits()).collect();
        a.sort_unstable();
        a
    };
    assert_eq!(accs(&slow), accs(&clean));
    assert!(
        slow.tuning_secs > clean.tuning_secs,
        "stragglers must inflate tuning time: {} vs {}",
        slow.tuning_secs,
        clean.tuning_secs
    );
    assert!(slow.fault_report.wasted_epoch_secs > 0.0);
}

#[test]
fn pipetune_still_beats_tune_v2_on_tuning_time_under_faults() {
    // Table 2's headline must survive a hostile cluster: under one identical
    // mixed fault plan, PipeTune's tuning time stays ahead of Tune V2's.
    let plan = FaultPlan::mixed(34);
    let env = ExperimentEnvBuilder::distributed(2008).fault_plan(plan.clone()).build().unwrap();
    let pipetune =
        PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
    let v2 = TuneV2::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
    assert!(
        pipetune.tuning_secs < v2.tuning_secs,
        "PipeTune {}s vs Tune V2 {}s under faults",
        pipetune.tuning_secs,
        v2.tuning_secs
    );
    assert!(pipetune.fault_report.injected > 0);
    assert!(v2.fault_report.injected > 0);
}

#[test]
fn crash_recovery_completes_with_accuracy_parity() {
    // Moderate crash probability: the retry budget absorbs the crashes, the
    // job completes, recovery is visible in the report, and — because
    // crashed attempts roll model and RNG state back to the epoch boundary —
    // the tuned accuracy stays within a tight parity band of the fault-free
    // run.
    let clean_env = ExperimentEnv::distributed(2009);
    let crash_env = ExperimentEnvBuilder::distributed(2009)
        .fault_plan(FaultPlan::crashes(35, 0.05))
        .build()
        .unwrap();
    let clean =
        PipeTune::new(TunerOptions::fast()).run(&clean_env, &WorkloadSpec::lenet_mnist()).unwrap();
    let crashed =
        PipeTune::new(TunerOptions::fast()).run(&crash_env, &WorkloadSpec::lenet_mnist()).unwrap();
    assert!(crashed.fault_report.crashes > 0, "plan should inject crashes");
    assert!(crashed.fault_report.recovered > 0, "crashes should be recovered from");
    assert!(crashed.fault_report.recovery_overhead_secs > 0.0, "backoff costs simulated time");
    assert!(
        (f64::from(crashed.best_accuracy) - f64::from(clean.best_accuracy)).abs() < 0.02,
        "accuracy parity violated: {} vs {}",
        crashed.best_accuracy,
        clean.best_accuracy
    );
    assert!(crashed.tuning_secs > clean.tuning_secs, "recovery is not free");
}

#[test]
fn tsdb_rejects_garbage_line_protocol_mid_import() {
    let db = pipetune_tsdb::Database::new();
    let text = "m f=1 10\nm f=2 20\nBROKEN LINE\nm f=3 30";
    let err = db.import_line_protocol(text).expect_err("must fail");
    assert!(err.to_string().contains("corrupt"));
    // All or nothing (documented behaviour): the lines before the failure
    // are not retained.
    assert_eq!(db.len(), 0);
}
