//! Integration tests for the extension surfaces: DVFS probing, DBSCAN
//! ground truth, alternative schedulers, the Hotspot kernel and sampled
//! profiling — each driven through the full middleware, not in isolation.

use pipetune::{
    ExperimentEnv, PipeTune, ProbeGoal, SchedulerKind, SimilarityKind, TunerOptions, WorkloadSpec,
};
use pipetune_cluster::SystemConfig;

fn options() -> TunerOptions {
    TunerOptions::fast()
}

#[test]
fn dvfs_probing_explores_the_frequency_dimension() {
    let mut env = ExperimentEnv::distributed(3001);
    env.system_space.freq_mhz = vec![1800, SystemConfig::NOMINAL_FREQ_MHZ];
    let opts = TunerOptions { probe_goal: ProbeGoal::Energy, ..options() };
    let mut tuner = PipeTune::new(opts);
    let first = tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("first job");
    assert!(first.gt_stats.recorded > 0, "probing must happen");
    let second = tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("second job");
    // Whatever frequency won, the reused configuration is a grid member.
    assert!(env.system_space.contains(&second.best_system), "{}", second.best_system);
    assert!(second.gt_stats.hits > 0);
}

#[test]
fn dbscan_ground_truth_drives_a_full_tuning_run() {
    let env = ExperimentEnv::distributed(3002);
    let opts = TunerOptions {
        similarity: SimilarityKind::Dbscan { min_points: 3, eps_factor: 3.0 },
        ..options()
    };
    let mut tuner = PipeTune::new(opts);
    let first = tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("first job");
    let second = tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("second job");
    assert!(first.tuning_secs > 0.0 && second.tuning_secs > 0.0);
    assert!(
        second.gt_stats.hits > 0,
        "density gate should recognise the repeat family: {:?}",
        second.gt_stats
    );
}

#[test]
fn every_alternative_scheduler_completes_a_pipetune_job() {
    // Grid, the other alternative, runs end to end in `ablation_scheduler`.
    let env = ExperimentEnv::distributed(3003);
    let opts = TunerOptions { scheduler: SchedulerKind::Random { trials: 4 }, ..options() };
    let out = PipeTune::new(opts).run(&env, &WorkloadSpec::cnn_news20()).expect("random job runs");
    assert!(out.tuning_secs > 0.0);
    assert!((0.0..=1.0).contains(&out.best_accuracy));
    assert!(out.epochs_total > 0);
}

#[test]
fn hotspot_extension_tunes_on_the_single_node() {
    let env = ExperimentEnv::single_node(3004);
    let out =
        PipeTune::new(options()).run(&env, &WorkloadSpec::hotspot()).expect("hotspot job runs");
    assert!(out.best_accuracy > 0.0, "steady-state progress expected");
    assert!(out.model_weights.is_none(), "kernels carry no weights");
    // The winning time-step must come from the clamped stable range: the
    // tuner would otherwise have selected a diverging configuration with a
    // zero score.
    assert!(out.best_hp.learning_rate > 0.0);
}

#[test]
fn sampled_profiling_still_supports_reuse_for_long_epochs() {
    let mut env = ExperimentEnv::distributed(3005);
    env.sampled_profiling = true;
    let mut tuner = PipeTune::new(options());
    let _ = tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("first job");
    let second = tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("second job");
    assert!(
        second.gt_stats.hits + second.gt_stats.misses > 0,
        "lookups must happen under sampling"
    );
}

#[test]
fn frequency_shows_up_in_display_and_space_counting() {
    let mut env = ExperimentEnv::distributed(3006);
    env.system_space.freq_mhz = vec![1800, 2600, SystemConfig::NOMINAL_FREQ_MHZ];
    assert_eq!(env.system_space.len(), 3 * 4 * 3);
    let cfg = SystemConfig { freq_mhz: 1800, ..SystemConfig::new(8, 16) };
    assert_eq!(cfg.to_string(), "8c/16GB@1.8GHz");
    assert!(env.system_space.contains(&cfg));
    assert!((cfg.freq_ratio() - 1800.0 / 3500.0).abs() < 1e-12);
}
