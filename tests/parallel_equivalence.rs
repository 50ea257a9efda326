//! The executor's determinism contract: a tuning run is a pure function of
//! the environment seed — the real worker-thread count only changes how fast
//! the answer arrives, never the answer.
//!
//! This holds by construction (per-trial RNGs keyed on trial id, batch-start
//! ground-truth snapshots with an ordered flush, request-order merges), and
//! these tests enforce it byte for byte: accuracies compared as bits,
//! convergence trajectories compared point by point.

use pipetune::{
    ConvergencePoint, ExperimentEnvBuilder, PipeTune, TuneV2, TunerOptions, TuningOutcome,
    WorkloadSpec,
};

fn run_with_workers(workers: usize) -> Vec<TuningOutcome> {
    let env = ExperimentEnvBuilder::distributed(41).workers(workers).build().unwrap();
    let mut tuner = PipeTune::new(TunerOptions::fast());
    // Two jobs: the second one exercises the cross-job ground-truth path
    // (hits against history recorded by the first).
    vec![
        tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap(),
        tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap(),
    ]
}

fn assert_trajectories_identical(a: &[ConvergencePoint], b: &[ConvergencePoint]) {
    assert_eq!(a.len(), b.len(), "different number of trial completions");
    for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
        assert_eq!(pa.wall_secs.to_bits(), pb.wall_secs.to_bits(), "wall_secs differs at {i}");
        assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "accuracy differs at {i}");
        assert_eq!(pa.trial_secs.to_bits(), pb.trial_secs.to_bits(), "trial_secs differs at {i}");
    }
}

fn assert_outcomes_identical(a: &TuningOutcome, b: &TuningOutcome) {
    assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits());
    assert_eq!(a.best_hp, b.best_hp);
    assert_eq!(a.best_system, b.best_system);
    assert_eq!(a.best_trial_id, b.best_trial_id);
    assert_eq!(a.tuning_secs.to_bits(), b.tuning_secs.to_bits());
    assert_eq!(a.tuning_energy_j.to_bits(), b.tuning_energy_j.to_bits());
    assert_eq!(a.training_secs.to_bits(), b.training_secs.to_bits());
    assert_eq!(a.epochs_total, b.epochs_total);
    assert_eq!(a.gt_stats, b.gt_stats);
    assert_trajectories_identical(&a.convergence, &b.convergence);
}

#[test]
fn pipetune_parallel_replays_sequential_exactly() {
    let sequential = run_with_workers(1);
    let parallel = run_with_workers(4);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_outcomes_identical(s, p);
    }
    // The second job must actually have exercised ground-truth reuse, or
    // this test proves less than it claims.
    assert!(sequential[0].gt_stats.recorded > 0, "first job should probe and record");
    assert!(sequential[1].gt_stats.hits > 0, "second job should hit the ground truth");
}

#[test]
fn worker_count_is_not_part_of_the_seed() {
    // Odd worker counts, including more workers than trials.
    let a = run_with_workers(3);
    let b = run_with_workers(64);
    for (x, y) in a.iter().zip(&b) {
        assert_outcomes_identical(x, y);
    }
}

#[test]
fn baselines_replay_across_worker_counts_too() {
    let run = |workers: usize| {
        let env = ExperimentEnvBuilder::distributed(17).workers(workers).build().unwrap();
        TuneV2::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap()
    };
    let s = run(1);
    let p = run(4);
    assert_outcomes_identical(&s, &p);
}
