//! The multi-job tuning service inherits the executor's determinism
//! contract: for a fixed arrival seed and policy, the full
//! [`ServiceOutcome`] — every job's `TuningOutcome`, the merged fault
//! report, the queueing timeline — and the exported telemetry trace are
//! **byte-identical** for every worker count, clean and under
//! `FaultPlan::mixed`, across multiple arrival seeds.

use pipetune::{EpochCacheHandle, ExperimentEnvBuilder, TunerOptions, TuningOutcome, WorkloadSpec};
use pipetune_cluster::{FaultPlan, FaultReport, PoissonArrivals};
use pipetune_service::{
    JobSubmission, SchedulingPolicy, ServiceConfig, ServiceOutcome, TuningService,
};
use pipetune_telemetry::{SpanKind, TelemetryHandle, TelemetrySnapshot};

const JOBS: usize = 3;
const WORKER_COUNTS: [usize; 3] = [1, 4, 64];

/// Two (arrival seed, policy) scenarios, so the byte-identity claim is
/// pinned for more than one arrival stream and more than one scheduler.
const SCENARIOS: [(u64, SchedulingPolicy); 2] =
    [(41, SchedulingPolicy::Fifo), (43, SchedulingPolicy::ProcessorSharing)];

fn run_service(
    seed: u64,
    policy: SchedulingPolicy,
    workers: usize,
    plan: FaultPlan,
) -> (ServiceOutcome, TelemetrySnapshot) {
    run_stream(seed, policy, workers, plan, JOBS, EpochCacheHandle::disabled())
}

/// `jobs` lenet/mnist submissions through the service; every job inherits
/// `cache` from the environment — the only way a stream gets an epoch cache.
fn run_stream(
    seed: u64,
    policy: SchedulingPolicy,
    workers: usize,
    plan: FaultPlan,
    jobs: usize,
    cache: EpochCacheHandle,
) -> (ServiceOutcome, TelemetrySnapshot) {
    let mut arrivals = PoissonArrivals::new(1.0 / 1500.0, seed);
    let submissions: Vec<JobSubmission> = (0..jobs)
        .map(|_| {
            JobSubmission::new(arrivals.next_arrival().as_secs_f64(), WorkloadSpec::lenet_mnist())
        })
        .collect();
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(seed)
        .workers(workers)
        .fault_plan(plan)
        .telemetry(telemetry.clone())
        .epoch_cache(cache)
        .build()
        .unwrap();
    let service = TuningService::new(ServiceConfig::default().with_policy(policy));
    let outcome = service.run(&env, &submissions, &TunerOptions::fast()).unwrap();
    (outcome, telemetry.snapshot().expect("enabled handle"))
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

fn assert_job_outcomes_identical(a: &TuningOutcome, b: &TuningOutcome) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits());
    assert_eq!(a.best_hp, b.best_hp);
    assert_eq!(a.best_system, b.best_system);
    assert_eq!(a.best_trial_id, b.best_trial_id);
    assert_eq!(a.training_secs.to_bits(), b.training_secs.to_bits());
    assert_eq!(a.tuning_secs.to_bits(), b.tuning_secs.to_bits());
    assert_eq!(a.tuning_energy_j.to_bits(), b.tuning_energy_j.to_bits());
    assert_eq!(a.epochs_total, b.epochs_total);
    assert_eq!(a.gt_stats, b.gt_stats);
    assert_fault_reports_identical(&a.fault_report, &b.fault_report);
    assert_eq!(a.convergence.len(), b.convergence.len());
    for (x, y) in a.convergence.iter().zip(&b.convergence) {
        assert_eq!(x.wall_secs.to_bits(), y.wall_secs.to_bits());
        assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
    }
}

fn assert_service_outcomes_identical(a: &ServiceOutcome, b: &ServiceOutcome) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.slot_capacity, b.slot_capacity);
    assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
    assert_eq!(a.mean_response_secs.to_bits(), b.mean_response_secs.to_bits());
    assert_fault_reports_identical(&a.fault_report, &b.fault_report);

    assert_eq!(a.jobs.len(), b.jobs.len());
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.job, y.job);
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.status, y.status);
        assert_eq!(x.attempts, y.attempts);
        assert_eq!(x.slots, y.slots);
        assert_eq!(x.arrival_secs.to_bits(), y.arrival_secs.to_bits());
        assert_eq!(x.service_secs.to_bits(), y.service_secs.to_bits());
        assert_eq!(x.start_secs.to_bits(), y.start_secs.to_bits());
        assert_eq!(x.completion_secs.to_bits(), y.completion_secs.to_bits());
        assert_eq!(x.response_secs.to_bits(), y.response_secs.to_bits());
        assert_eq!(x.queue_secs.to_bits(), y.queue_secs.to_bits());
        assert_eq!(x.drained_secs.to_bits(), y.drained_secs.to_bits());
        assert_eq!(x.lost_service_secs.to_bits(), y.lost_service_secs.to_bits());
        assert_eq!(x.backoff_secs.to_bits(), y.backoff_secs.to_bits());
        assert_eq!(x.outcome.is_some(), y.outcome.is_some());
        if let (Some(ox), Some(oy)) = (&x.outcome, &y.outcome) {
            assert_job_outcomes_identical(ox, oy);
        }
    }

    assert_eq!(a.timeline.len(), b.timeline.len());
    for (x, y) in a.timeline.iter().zip(&b.timeline) {
        assert_eq!(x.at_secs.to_bits(), y.at_secs.to_bits());
        assert_eq!(x.active_jobs, y.active_jobs);
        assert_eq!(x.in_service_jobs, y.in_service_jobs);
        assert_eq!(x.slots_in_use, y.slots_in_use);
        assert_eq!(x.capacity, y.capacity);
    }

    let (sa, sb) = (&a.service_fault_report, &b.service_fault_report);
    assert_eq!(sa.node_leaves, sb.node_leaves);
    assert_eq!(sa.node_joins, sb.node_joins);
    assert_eq!(sa.repartitions, sb.repartitions);
    assert_eq!(sa.job_crashes, sb.job_crashes);
    assert_eq!(sa.resubmissions, sb.resubmissions);
    assert_eq!(sa.jobs_shed, sb.jobs_shed);
    assert_eq!(sa.jobs_abandoned, sb.jobs_abandoned);
    assert_eq!(sa.lost_service_secs.to_bits(), sb.lost_service_secs.to_bits());
    assert_eq!(sa.backoff_secs.to_bits(), sb.backoff_secs.to_bits());
}

fn assert_identical_across_worker_counts(plan: FaultPlan) {
    for (seed, policy) in SCENARIOS {
        let (base, base_snap) = run_service(seed, policy, WORKER_COUNTS[0], plan.clone());
        let base_trace = base_snap.to_json_string();
        let base_metrics = base_snap.metrics_json_string();
        base_snap.validate().expect("service traces are well-formed");
        for workers in &WORKER_COUNTS[1..] {
            let (outcome, snap) = run_service(seed, policy, *workers, plan.clone());
            assert_service_outcomes_identical(&base, &outcome);
            assert_eq!(
                snap.to_json_string(),
                base_trace,
                "seed {seed} {policy:?}: trace JSON differs between workers=1 and workers={workers}"
            );
            assert_eq!(
                snap.metrics_json_string(),
                base_metrics,
                "seed {seed} {policy:?}: metrics JSON differs between workers=1 and workers={workers}"
            );
        }
    }
}

#[test]
fn service_outcomes_and_traces_identical_across_worker_counts() {
    assert_identical_across_worker_counts(FaultPlan::none());
}

#[test]
fn service_outcomes_and_traces_identical_across_worker_counts_under_faults() {
    assert_identical_across_worker_counts(FaultPlan::mixed(7));
}

#[test]
fn faulty_service_runs_actually_fault_and_merge_job_reports() {
    let (outcome, _) = run_service(41, SchedulingPolicy::Fifo, 4, FaultPlan::mixed(7));
    assert!(
        outcome.fault_report.injected > 0,
        "FaultPlan::mixed must actually fire: {:?}",
        outcome.fault_report
    );
    // The service-level report is exactly the merge of the per-job ones.
    let mut merged = FaultReport::default();
    for rec in &outcome.jobs {
        merged.merge(&rec.outcome.as_ref().unwrap().fault_report);
    }
    assert_fault_reports_identical(&merged, &outcome.fault_report);
}

#[test]
fn service_traces_follow_the_service_job_run_taxonomy() {
    let (outcome, snap) = run_service(43, SchedulingPolicy::Fifo, 2, FaultPlan::none());

    // One service root, one job span per submission, one nested tuning
    // run per job.
    let roots: Vec<_> = snap.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].kind, SpanKind::Service);
    let jobs: Vec<_> = snap.spans.iter().filter(|s| s.kind == SpanKind::Job).collect();
    assert_eq!(jobs.len(), outcome.jobs.len());
    let runs = snap.spans.iter().filter(|s| s.kind == SpanKind::TuningRun).count();
    assert_eq!(runs, outcome.jobs.len());
    for (i, span) in snap.spans.iter().enumerate() {
        match span.kind {
            SpanKind::Service => assert!(span.parent.is_none()),
            SpanKind::Job => {
                let p = span.parent.expect("job spans nest under the service") as usize;
                assert_eq!(snap.spans[p].kind, SpanKind::Service, "span {i} mis-parented");
            }
            SpanKind::TuningRun => {
                let p = span.parent.expect("service runs nest under a job") as usize;
                assert_eq!(snap.spans[p].kind, SpanKind::Job, "span {i} mis-parented");
            }
            _ => {}
        }
    }

    // Job spans live on the service arrival clock: each opens at its
    // job's arrival and closes at its completion.
    for (rec, span) in outcome.jobs.iter().zip(&jobs) {
        assert_eq!(span.start_secs.to_bits(), rec.arrival_secs.to_bits());
        assert_eq!(span.end_secs.to_bits(), rec.completion_secs.to_bits());
    }
    assert_eq!(roots[0].end_secs.to_bits(), outcome.makespan_secs.to_bits());
}

/// A four-job FIFO stream, no faults, over `cache`.
fn run_cached_stream(
    workers: usize,
    cache: EpochCacheHandle,
) -> (ServiceOutcome, TelemetrySnapshot) {
    run_stream(41, SchedulingPolicy::Fifo, workers, FaultPlan::none(), 4, cache)
}

#[test]
fn env_level_epoch_cache_is_shared_by_the_stream_and_changes_no_verdict() {
    let cache = EpochCacheHandle::enabled();
    let (base, base_snap) = run_cached_stream(1, cache.clone());
    let (outcome, snap) = run_cached_stream(4, EpochCacheHandle::enabled());
    assert_service_outcomes_identical(&base, &outcome);
    assert_eq!(
        snap.to_json_string(),
        base_snap.to_json_string(),
        "trace JSON differs across workers"
    );

    // Every job consulted and fed the one store the environment carries,
    // and — job seeds being distinct — none adopted another job's state.
    let (off, _) = run_cached_stream(1, EpochCacheHandle::disabled());
    let mut lookups = 0;
    for (on, off) in base.jobs.iter().zip(&off.jobs) {
        let (on, off) = (on.outcome.as_ref().unwrap(), off.outcome.as_ref().unwrap());
        assert_eq!(on.best_accuracy.to_bits(), off.best_accuracy.to_bits());
        assert_eq!(on.best_hp, off.best_hp);
        assert_eq!(on.best_trial_id, off.best_trial_id);
        assert_eq!(on.cache_stats.hits, 0, "cross-job adoption is forbidden");
        assert!(on.cache_stats.inserts > 0, "each job populates the shared store");
        lookups += on.cache_stats.hits + on.cache_stats.misses;
    }
    assert!(lookups > 0, "the stream never consulted the cache");
    let store = cache.stats().expect("enabled handle");
    assert_eq!(store.hits + store.misses, lookups, "all four jobs went through the one handle");
}
