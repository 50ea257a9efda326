//! Fault injection must live *inside* the determinism contract: every fault
//! decision and every recovery action is a pure function of
//! `(env seed, trial id, fault plan)`, so a faulty run replays byte for byte
//! across worker counts exactly like a fault-free one. These tests pin that
//! down for PipeTune and both baselines, over two different fault plans,
//! comparing accuracies, clocks, trajectories and the fault report as bits.

use pipetune::{
    ConvergencePoint, ExperimentEnv, ExperimentEnvBuilder, FaultPlan, FaultReport, PipeTune,
    TuneV1, TuneV2, TunerOptions, TuningOutcome, WorkloadSpec,
};

/// The two schedules under test: every fault class at moderate rates, and a
/// straggler-heavy plan (epoch slowdowns plus slot stragglers).
fn plans() -> Vec<FaultPlan> {
    vec![FaultPlan::mixed(7), FaultPlan::stragglers(11, 0.35)]
}

fn assert_trajectories_identical(a: &[ConvergencePoint], b: &[ConvergencePoint]) {
    assert_eq!(a.len(), b.len(), "different number of trial completions");
    for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
        assert_eq!(pa.wall_secs.to_bits(), pb.wall_secs.to_bits(), "wall_secs differs at {i}");
        assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "accuracy differs at {i}");
        assert_eq!(pa.trial_secs.to_bits(), pb.trial_secs.to_bits(), "trial_secs differs at {i}");
    }
}

fn assert_fault_reports_identical(a: &FaultReport, b: &FaultReport) {
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.stragglers, b.stragglers);
    assert_eq!(a.counter_faults, b.counter_faults);
    assert_eq!(a.preemptions, b.preemptions);
    assert_eq!(a.retried, b.retried);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.abandoned, b.abandoned);
    assert_eq!(a.wasted_epoch_secs.to_bits(), b.wasted_epoch_secs.to_bits());
    assert_eq!(a.recovery_overhead_secs.to_bits(), b.recovery_overhead_secs.to_bits());
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
    assert_fault_reports_identical(&a.fault_report, &b.fault_report);
}

#[test]
fn pipetune_fault_runs_replay_across_worker_counts() {
    for plan in plans() {
        let run = |workers: usize| {
            let env = ExperimentEnvBuilder::distributed(51)
                .fault_plan(plan.clone())
                .workers(workers)
                .build()
                .unwrap();
            let mut tuner = PipeTune::new(TunerOptions::fast());
            // Two jobs so the cross-job ground-truth path is exercised
            // under faults too.
            vec![
                tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap(),
                tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap(),
            ]
        };
        let sequential = run(1);
        let four = run(4);
        let many = run(64);
        for (s, p) in sequential.iter().zip(&four) {
            assert_outcomes_identical(s, p);
        }
        for (s, p) in sequential.iter().zip(&many) {
            assert_outcomes_identical(s, p);
        }
        // The plan must actually have fired, or replay equality is vacuous.
        assert!(
            sequential.iter().any(|o| o.fault_report.injected > 0),
            "plan {plan:?} injected nothing"
        );
    }
}

#[test]
fn baseline_fault_runs_replay_across_worker_counts() {
    for plan in plans() {
        let env_for = |workers: usize| {
            ExperimentEnvBuilder::distributed(52)
                .fault_plan(plan.clone())
                .workers(workers)
                .build()
                .unwrap()
        };
        let v1_seq = TuneV1::new(TunerOptions::fast())
            .run(&env_for(1), &WorkloadSpec::lenet_mnist())
            .unwrap();
        let v1_par = TuneV1::new(TunerOptions::fast())
            .run(&env_for(64), &WorkloadSpec::lenet_mnist())
            .unwrap();
        assert_outcomes_identical(&v1_seq, &v1_par);
        let v2_seq = TuneV2::new(TunerOptions::fast())
            .run(&env_for(1), &WorkloadSpec::lenet_mnist())
            .unwrap();
        let v2_par = TuneV2::new(TunerOptions::fast())
            .run(&env_for(64), &WorkloadSpec::lenet_mnist())
            .unwrap();
        assert_outcomes_identical(&v2_seq, &v2_par);
        assert!(
            v1_seq.fault_report.injected > 0 && v2_seq.fault_report.injected > 0,
            "plan {plan:?} injected nothing"
        );
    }
}

#[test]
fn empty_plan_report_is_clean_and_mixed_plan_report_is_not() {
    let clean = PipeTune::new(TunerOptions::fast())
        .run(&ExperimentEnv::distributed(53), &WorkloadSpec::lenet_mnist())
        .unwrap();
    assert!(clean.fault_report.is_clean(), "empty plan must leave a clean report");
    let faulty = PipeTune::new(TunerOptions::fast())
        .run(
            &ExperimentEnvBuilder::distributed(53).fault_plan(FaultPlan::mixed(9)).build().unwrap(),
            &WorkloadSpec::lenet_mnist(),
        )
        .unwrap();
    assert!(!faulty.fault_report.is_clean());
    assert!(faulty.fault_report.injected >= faulty.fault_report.recovered);
}
