//! Property suite for the multi-job tuning service (`pipetune-service`).
//!
//! Two layers:
//!
//! 1. **Real-service checks** — a Poisson stream of genuine PipeTune jobs
//!    runs under every policy, pinning the analytic cross-checks (FIFO and
//!    processor sharing reproduce `simulate_fifo` /
//!    `simulate_processor_sharing` within 1e-9 s), work conservation
//!    (policy-invariant makespan), slot-pool bounds at every event time,
//!    FIFO ordering and the single-job degeneration to a dedicated-cluster
//!    run.
//! 2. **A proptest sweep over the scheduling engine** — arbitrary job
//!    streams (simultaneous arrivals, zero-service jobs, empty streams
//!    included) re-checked against the analytic models, with no tuning
//!    runs in the loop, so hundreds of cases stay cheap.

use pipetune::{
    simulate_fifo, simulate_processor_sharing, ExperimentEnvBuilder, PipeTune, SharedJob,
    TunerOptions, TuningOutcome, WorkloadSpec,
};
use pipetune_cluster::PoissonArrivals;
use pipetune_service::{
    job_seed, JobSubmission, PolicyEngine, SchedulingPolicy, ServiceConfig, ServiceOutcome,
    TuningService,
};
use proptest::prelude::*;

const JOBS: usize = 4;
const ARRIVAL_RATE: f64 = 1.0 / 1500.0;
const ARRIVAL_SEED: u64 = 9;

/// The shared submission stream: Poisson arrivals (micro-aligned, like any
/// real trace through `SimTime`), one workload family so the ground truth
/// amortises and runs stay fast.
fn submissions() -> Vec<JobSubmission> {
    let mut arrivals = PoissonArrivals::new(ARRIVAL_RATE, ARRIVAL_SEED);
    (0..JOBS)
        .map(|_| {
            JobSubmission::new(arrivals.next_arrival().as_secs_f64(), WorkloadSpec::lenet_mnist())
        })
        .collect()
}

fn run_policy(policy: SchedulingPolicy) -> ServiceOutcome {
    let env = ExperimentEnvBuilder::distributed(77).workers(2).build().unwrap();
    let service = TuningService::new(ServiceConfig::default().with_policy(policy));
    service.run(&env, &submissions(), &TunerOptions::fast()).expect("service run succeeds")
}

fn assert_job_outcomes_identical(a: &TuningOutcome, b: &TuningOutcome) {
    assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits());
    assert_eq!(a.best_hp, b.best_hp);
    assert_eq!(a.best_system, b.best_system);
    assert_eq!(a.best_trial_id, b.best_trial_id);
    assert_eq!(a.tuning_secs.to_bits(), b.tuning_secs.to_bits());
    assert_eq!(a.tuning_energy_j.to_bits(), b.tuning_energy_j.to_bits());
    assert_eq!(a.epochs_total, b.epochs_total);
}

#[test]
fn real_service_reproduces_analytic_models_and_conserves_work() {
    let fifo = run_policy(SchedulingPolicy::Fifo);
    let ps = run_policy(SchedulingPolicy::ProcessorSharing);
    let srs = run_policy(SchedulingPolicy::ShortestRemainingService);

    // A job's tuning outcome must not depend on how the cluster was
    // scheduled around it: same sub-seed, same slot slice, same result.
    for (a, b) in fifo.jobs.iter().zip(&ps.jobs).chain(fifo.jobs.iter().zip(&srs.jobs)) {
        assert_eq!(a.service_secs.to_bits(), b.service_secs.to_bits());
        assert_job_outcomes_identical(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }

    // Analytic cross-check: the service's FIFO and PS completions must
    // match the closed-form simulations within 1e-9 seconds.
    let stream: Vec<SharedJob> = fifo
        .jobs
        .iter()
        .map(|r| SharedJob { arrival_secs: r.arrival_secs, service_secs: r.service_secs })
        .collect();
    let analytic_fifo = simulate_fifo(&stream, 1).unwrap();
    for c in &analytic_fifo {
        let rec = &fifo.jobs[c.job];
        assert!(
            (rec.completion_secs - c.completion_secs).abs() < 1e-9,
            "FIFO job {}: service {} vs analytic {}",
            c.job,
            rec.completion_secs,
            c.completion_secs
        );
        assert!((rec.response_secs - c.response_secs).abs() < 1e-9);
    }
    let analytic_ps = simulate_processor_sharing(&stream).unwrap();
    for c in &analytic_ps {
        let rec = &ps.jobs[c.job];
        assert!(
            (rec.completion_secs - c.completion_secs).abs() < 1e-9,
            "PS job {}: service {} vs analytic {}",
            c.job,
            rec.completion_secs,
            c.completion_secs
        );
    }

    // Work conservation: all three policies finish the same work at the
    // same instant.
    assert!((fifo.makespan_secs - ps.makespan_secs).abs() < 1e-9);
    assert!((fifo.makespan_secs - srs.makespan_secs).abs() < 1e-9);

    // FIFO completion order is arrival order (single server).
    let mut by_completion: Vec<&_> = fifo.jobs.iter().collect();
    by_completion.sort_by(|a, b| a.completion_secs.total_cmp(&b.completion_secs));
    let completion_order: Vec<usize> = by_completion.iter().map(|r| r.job).collect();
    let mut arrival_order: Vec<usize> = (0..fifo.jobs.len()).collect();
    arrival_order.sort_by(|&a, &b| {
        fifo.jobs[a].arrival_secs.total_cmp(&fifo.jobs[b].arrival_secs).then(a.cmp(&b))
    });
    assert_eq!(completion_order, arrival_order, "FIFO must complete in arrival order");

    // No slot-pool oversubscription at any event time, under any policy —
    // and whenever work is in service the one server holds the whole pool
    // (the slot side of work conservation).
    for outcome in [&fifo, &ps, &srs] {
        assert!(!outcome.timeline.is_empty());
        for sample in &outcome.timeline {
            assert!(
                sample.slots_in_use <= outcome.slot_capacity,
                "{:?}: {} slots leased with capacity {}",
                outcome.policy,
                sample.slots_in_use,
                outcome.slot_capacity
            );
            assert!(sample.in_service_jobs <= sample.active_jobs);
            if sample.in_service_jobs > 0 {
                assert_eq!(
                    sample.slots_in_use, outcome.slot_capacity,
                    "{:?} leaves leased slots unaccounted",
                    outcome.policy
                );
            } else {
                assert_eq!(sample.slots_in_use, 0);
            }
        }
        let report = &outcome.fault_report;
        assert!(report.is_clean(), "no fault plan was installed: {report:?}");
    }
}

#[test]
fn single_job_stream_degenerates_to_a_dedicated_run() {
    let env = ExperimentEnvBuilder::distributed(31).workers(2).build().unwrap();
    let sub = JobSubmission::new(5.0, WorkloadSpec::lenet_mnist());
    let service = TuningService::new(ServiceConfig::default());
    let outcome = service.run(&env, &[sub], &TunerOptions::fast()).unwrap();
    assert_eq!(outcome.jobs.len(), 1);
    let rec = &outcome.jobs[0];

    // A dedicated-cluster run with the same derived seed and the full
    // slot pool must agree byte for byte.
    let dedicated_env = ExperimentEnvBuilder::from_env(env.clone())
        .seed(job_seed(&env, 0))
        .parallel_slots(rec.slots)
        .build()
        .unwrap();
    let dedicated = PipeTune::new(TunerOptions::fast())
        .run(&dedicated_env, &WorkloadSpec::lenet_mnist())
        .unwrap();
    let job = rec.outcome.as_ref().expect("every job has an outcome");
    assert_job_outcomes_identical(job, &dedicated);
    assert_eq!(rec.slots, env.parallel_slots, "lone job gets the whole pool");

    // And the queueing picture is trivial: starts on arrival, no queueing,
    // response = dedicated tuning time.
    assert_eq!(rec.start_secs.to_bits(), rec.arrival_secs.to_bits());
    assert_eq!(rec.queue_secs, 0.0);
    assert_eq!(rec.response_secs.to_bits(), dedicated.tuning_secs.to_bits());
    assert_eq!(rec.completion_secs.to_bits(), (5.0 + dedicated.tuning_secs).to_bits());
    assert_eq!(outcome.makespan_secs.to_bits(), rec.completion_secs.to_bits());
    assert_eq!(outcome.mean_response_secs.to_bits(), rec.response_secs.to_bits());
}

// ---- proptest sweep over the scheduling engine (no tuning runs) ----

/// Arbitrary job streams: micro-aligned arrivals (every real trace goes
/// through `SimTime`), services with deliberate mass at zero, and lengths
/// from empty up.
fn job_streams() -> impl Strategy<Value = Vec<SharedJob>> {
    proptest::collection::vec((0u64..200_000_000, 0u64..5_000_000_000), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(arrival_micros, service_micros)| SharedJob {
                arrival_secs: arrival_micros as f64 / 1e6,
                // Every fifth draw collapses to a zero-service job, the
                // edge case that used to wedge the analytic models.
                service_secs: if service_micros % 5 == 0 {
                    0.0
                } else {
                    service_micros as f64 / 1e6
                },
            })
            .collect()
    })
}

/// Drives a stream through the engine the way the service driver does.
fn run_engine(
    policy: SchedulingPolicy,
    servers: usize,
    jobs: &[SharedJob],
) -> Vec<(usize, f64, f64)> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].arrival_secs.total_cmp(&jobs[b].arrival_secs).then(a.cmp(&b)));
    let mut engine = PolicyEngine::new(policy, servers);
    let mut done = Vec::new();
    for id in order {
        done.extend(engine.advance_to(jobs[id].arrival_secs));
        engine.insert(id, jobs[id].service_secs);
        // No oversubscription at the engine level either: FIFO and
        // shortest-remaining never serve more jobs than servers.
        let (served, rate) = engine.in_service();
        match policy {
            SchedulingPolicy::ProcessorSharing => assert!(rate <= 1.0),
            _ => assert!(served.len() <= servers),
        }
    }
    done.extend(engine.drain());
    done.into_iter().map(|c| (c.job, c.at_secs, c.start_secs)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fifo_engine_matches_the_analytic_queue(jobs in job_streams(), servers in 1usize..4) {
        let engine = run_engine(SchedulingPolicy::Fifo, servers, &jobs);
        let analytic = simulate_fifo(&jobs, servers).unwrap();
        prop_assert_eq!(engine.len(), analytic.len());
        for (job, at, _) in &engine {
            let a = analytic.iter().find(|a| a.job == *job).unwrap();
            prop_assert!(
                (at - a.completion_secs).abs() < 1e-9,
                "job {} engine {} vs analytic {}", job, at, a.completion_secs
            );
        }
    }

    #[test]
    fn ps_engine_matches_the_analytic_fluid_model(jobs in job_streams()) {
        let engine = run_engine(SchedulingPolicy::ProcessorSharing, 1, &jobs);
        let analytic = simulate_processor_sharing(&jobs).unwrap();
        prop_assert_eq!(engine.len(), analytic.len());
        for (job, at, _) in &engine {
            let a = analytic.iter().find(|a| a.job == *job).unwrap();
            prop_assert!(
                (at - a.completion_secs).abs() < 1e-9,
                "job {} engine {} vs analytic {}", job, at, a.completion_secs
            );
        }
    }

    #[test]
    fn every_policy_conserves_work_and_respects_causality(jobs in job_streams()) {
        let mut makespans = Vec::new();
        for policy in SchedulingPolicy::ALL {
            let done = run_engine(policy, 1, &jobs);
            prop_assert_eq!(done.len(), jobs.len(), "every job completes under {:?}", policy);
            for (job, at, start) in &done {
                let j = &jobs[*job];
                prop_assert!(*start >= j.arrival_secs - 1e-9, "started before arrival");
                prop_assert!(*at >= *start - 1e-9, "completed before starting");
                prop_assert!(
                    *at >= j.arrival_secs + j.service_secs - 1e-9,
                    "job {} finished impossibly fast under {:?}", job, policy
                );
            }
            makespans.push(done.iter().map(|(_, at, _)| *at).fold(0.0, f64::max));
        }
        for m in &makespans[1..] {
            prop_assert!(
                (m - makespans[0]).abs() < 1e-9,
                "work conservation violated: {:?}", makespans
            );
        }
    }

    #[test]
    fn fifo_single_server_completes_in_arrival_order(jobs in job_streams()) {
        let done = run_engine(SchedulingPolicy::Fifo, 1, &jobs);
        let mut arrival_order: Vec<usize> = (0..jobs.len()).collect();
        arrival_order.sort_by(|&a, &b| {
            jobs[a].arrival_secs.total_cmp(&jobs[b].arrival_secs).then(a.cmp(&b))
        });
        let completion_order: Vec<usize> = done.iter().map(|(job, _, _)| *job).collect();
        prop_assert_eq!(completion_order, arrival_order);
    }
}
