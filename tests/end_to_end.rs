//! End-to-end integration tests spanning every crate: real training under
//! the full PipeTune pipeline on the simulated cluster.

use pipetune::{
    multi_tenancy, single_tenancy, warm_start_ground_truth, ExperimentEnv, GroundTruth,
    MultiTenancyOptions, PipeTune, TuneV1, TuneV2, TunerOptions, WorkloadSpec,
};

fn options() -> TunerOptions {
    TunerOptions::fast()
}

#[test]
fn pipetune_beats_v1_tuning_time_with_warm_ground_truth() {
    let env = ExperimentEnv::distributed(1001);
    let spec = WorkloadSpec::lenet_mnist();
    let v1 = TuneV1::new(options()).run(&env, &spec).expect("v1 runs");
    let gt =
        warm_start_ground_truth(&env, &WorkloadSpec::all_type12(), &options()).expect("warm start");
    let pt = PipeTune::with_ground_truth(options(), gt).run(&env, &spec).expect("pipetune runs");
    assert!(
        pt.tuning_secs < v1.tuning_secs,
        "PipeTune {:.0}s should beat V1 {:.0}s",
        pt.tuning_secs,
        v1.tuning_secs
    );
    assert!(pt.tuning_energy_j < v1.tuning_energy_j, "energy should drop too");
    assert!((pt.best_accuracy - v1.best_accuracy).abs() < 0.15, "accuracy stays comparable");
    assert!(pt.gt_stats.hits > 0, "warm ground truth should be reused");
}

#[test]
fn v2_tunes_system_parameters_as_hyperparameters() {
    let env = ExperimentEnv::distributed(1002);
    let spec = WorkloadSpec::lenet_mnist();
    let v2 = TuneV2::new(options()).run(&env, &spec).expect("v2 runs");
    // V2's winner carries a system configuration drawn from the grid (§4);
    // cross-approach training-time comparisons live in the Table 2 harness
    // where the budget is large enough for the ratio effect to dominate
    // sampling noise.
    assert!(env.system_space.contains(&v2.best_system), "{} not in grid", v2.best_system);
    assert!(v2.tuning_secs > 0.0 && v2.training_secs > 0.0);
    assert!((0.0..=1.0).contains(&v2.best_accuracy));
}

#[test]
fn tuning_outcomes_are_bitwise_deterministic() {
    let run = || {
        let env = ExperimentEnv::distributed(1003);
        let gt = warm_start_ground_truth(&env, &[WorkloadSpec::cnn_news20()], &options())
            .expect("warm start");
        PipeTune::with_ground_truth(options(), gt)
            .run(&env, &WorkloadSpec::cnn_news20())
            .expect("job runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_accuracy, b.best_accuracy);
    assert_eq!(a.tuning_secs, b.tuning_secs);
    assert_eq!(a.tuning_energy_j, b.tuning_energy_j);
    assert_eq!(a.best_hp, b.best_hp);
}

#[test]
fn ground_truth_persists_and_reloads_across_processes() {
    let env = ExperimentEnv::distributed(1004);
    let mut tuner = PipeTune::new(options());
    let first = tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("first job");
    assert!(first.gt_stats.recorded > 0, "cold job should probe and record");

    let dir = std::env::temp_dir().join("pipetune_e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("gt_e2e.json");
    tuner.ground_truth().save(&path).expect("save");

    let gt = GroundTruth::load(&path, 2, options().threshold_factor, 0x6774).expect("load");
    let second = PipeTune::with_ground_truth(options(), gt)
        .run(&env, &WorkloadSpec::lenet_mnist())
        .expect("second job");
    assert!(second.gt_stats.hits > 0, "reloaded history should produce hits");
    std::fs::remove_file(&path).ok();
}

#[test]
fn single_tenancy_driver_covers_all_approaches_and_workloads() {
    let env = ExperimentEnv::distributed(1005);
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::jacobi()];
    let rows = single_tenancy(&env, &specs, &options()).expect("driver runs");
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert!(r.tuning_secs > 0.0, "{}/{} has no tuning time", r.workload, r.approach);
        assert!(r.tuning_energy_j > 0.0);
        assert!((0.0..=1.0).contains(&r.accuracy));
    }
}

#[test]
fn multi_tenancy_responses_exceed_service_times_and_pipetune_wins() {
    let env = ExperimentEnv::distributed(1006);
    let specs = [WorkloadSpec::lenet_mnist()];
    let mt = MultiTenancyOptions { jobs: 3, arrival_rate_per_sec: 1.0 / 100.0, seed: 6 };
    let outcomes = multi_tenancy(&env, &specs, &options(), &mt).expect("trace runs");
    let v1 = outcomes.iter().find(|o| o.approach == "TuneV1").expect("v1 present");
    let pt = outcomes.iter().find(|o| o.approach == "PipeTune").expect("pipetune present");
    // With arrivals every ~100s and jobs lasting thousands of seconds, queueing
    // dominates: responses well above a single job's tuning time.
    assert!(v1.overall_secs > 1000.0);
    assert!(pt.overall_secs < v1.overall_secs, "ground truth must amortise across tenants");
}

#[test]
fn tuning_outputs_a_usable_trained_model() {
    // Fig. 6: the HPT job's output is a trained model + optimal parameters.
    let env = ExperimentEnv::distributed(1008);
    let out = PipeTune::new(options()).run(&env, &WorkloadSpec::lenet_mnist()).expect("job runs");
    let weights = out.model_weights.expect("DNN workloads carry weights");
    assert!(!weights.is_empty());
    // Rebuild the winning workload and confirm the weights reproduce the
    // reported accuracy exactly.
    let mut rebuilt = WorkloadSpec::lenet_mnist()
        .with_scale(options().scale)
        .instantiate(&out.best_hp, env.subseed(out.best_trial_id))
        .expect("rebuilds");
    rebuilt.import_weights(&weights).expect("weights fit");
    use pipetune::EpochWorkload;
    let acc = rebuilt.accuracy().expect("evaluates");
    assert!(
        (acc - out.best_accuracy).abs() < 1e-6,
        "rebuilt accuracy {acc} vs reported {}",
        out.best_accuracy
    );
}

#[test]
fn type3_single_node_pipeline_works_end_to_end() {
    let env = ExperimentEnv::single_node(1007);
    let mut tuner = PipeTune::new(options());
    for spec in WorkloadSpec::all_type3() {
        let out = tuner.run(&env, &spec).expect("kernel job runs");
        assert!(out.best_accuracy > 0.0, "{} got zero score", out.workload);
        assert!(out.tuning_secs > 0.0);
    }
    // Kernel families recorded in the shared ground truth enable reuse.
    let again = tuner.run(&env, &WorkloadSpec::jacobi()).expect("repeat job");
    assert!(again.gt_stats.hits > 0, "repeat kernel job should hit: {:?}", again.gt_stats);
}
