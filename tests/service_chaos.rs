//! Chaos sweep for the service-level fault subsystem
//! (`pipetune-service` + `pipetune_cluster::ServiceFaultPlan`).
//!
//! The suite drives real tuning-job streams through the service under
//! node churn, deterministic mid-service job crashes with checkpointed
//! resubmission, and deadline (SLO) shedding, and checks the global
//! invariants at every event:
//!
//! * **slot-pool conservation** — no sample ever leases more slots than
//!   the (time-varying) capacity, and no live job's slice rounds to zero;
//! * **no lost or duplicated jobs** — every submission resolves to
//!   exactly one typed [`JobOutcome`], and the service fault report's
//!   counters match the per-record tallies;
//! * **policy-invariant survivors** — churn draws key on the tick index
//!   and crash draws on `(job, attempt)`, so jobs see the same
//!   capacity, tune to the same `TuningOutcome` and crash at the same
//!   points under every [`SchedulingPolicy`];
//! * **byte-identical everything across worker counts** — outcomes,
//!   fault reports, traces and metrics for workers ∈ {1, 4, 64}, faulty
//!   or clean (the repo-wide determinism contract).
//!
//! On top of the pinned schedules a small proptest sweep varies the plan
//! seed and policy. The invariants test also writes
//! `target/service_chaos_report.json` so CI can attach the fault picture
//! to a failing run.

use std::collections::BTreeMap;

use pipetune::{ExperimentEnv, ExperimentEnvBuilder, TunerOptions, WorkloadSpec};
use pipetune_cluster::{ChurnKind, PoissonArrivals, ServiceFaultPlan, ServiceFaultReport};
use pipetune_service::{
    resubmit_backoff_secs, JobOutcome, JobRecord, JobSubmission, SchedulingPolicy, ServiceConfig,
    ServiceOutcome, TuningService, RESUBMIT_ATTEMPTS,
};
use pipetune_telemetry::{EventKind, SpanKind, TelemetryHandle, TelemetrySnapshot, TraceError};
use proptest::prelude::*;

const JOBS: usize = 3;
const SEED: u64 = 41;
const WORKER_COUNTS: [usize; 3] = [1, 4, 64];
/// Sits near the clean streams' p95 response: most jobs complete, the
/// tail is shed — both paths exercised.
const DEADLINE_SECS: f64 = 20_000.0;

fn submissions(seed: u64, jobs: usize) -> Vec<JobSubmission> {
    let mut arrivals = PoissonArrivals::new(1.0 / 1500.0, seed);
    (0..jobs)
        .map(|_| {
            JobSubmission::new(arrivals.next_arrival().as_secs_f64(), WorkloadSpec::lenet_mnist())
        })
        .collect()
}

fn run_chaos(
    policy: SchedulingPolicy,
    workers: usize,
    config: ServiceConfig,
) -> (ServiceOutcome, TelemetrySnapshot) {
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(SEED)
        .workers(workers)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let service = TuningService::new(config.with_policy(policy));
    let outcome = service.run(&env, &submissions(SEED, JOBS), &TunerOptions::fast()).unwrap();
    (outcome, telemetry.snapshot().expect("enabled handle"))
}

fn mixed_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_service_faults(ServiceFaultPlan::mixed(SEED))
        .with_deadline(DEADLINE_SECS)
}

fn assert_records_identical(a: &JobRecord, b: &JobRecord) {
    assert_eq!(a.job, b.job);
    assert_eq!(a.status, b.status);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.slots, b.slots);
    assert_eq!(a.arrival_secs.to_bits(), b.arrival_secs.to_bits());
    assert_eq!(a.service_secs.to_bits(), b.service_secs.to_bits());
    assert_eq!(a.start_secs.to_bits(), b.start_secs.to_bits());
    assert_eq!(a.completion_secs.to_bits(), b.completion_secs.to_bits());
    assert_eq!(a.response_secs.to_bits(), b.response_secs.to_bits());
    assert_eq!(a.queue_secs.to_bits(), b.queue_secs.to_bits());
    assert_eq!(a.drained_secs.to_bits(), b.drained_secs.to_bits());
    assert_eq!(a.lost_service_secs.to_bits(), b.lost_service_secs.to_bits());
    assert_eq!(a.backoff_secs.to_bits(), b.backoff_secs.to_bits());
    match (&a.outcome, &b.outcome) {
        (Some(x), Some(y)) => {
            assert_eq!(x.best_accuracy.to_bits(), y.best_accuracy.to_bits());
            assert_eq!(x.best_hp, y.best_hp);
            assert_eq!(x.tuning_secs.to_bits(), y.tuning_secs.to_bits());
            assert_eq!(x.epochs_total, y.epochs_total);
        }
        (None, None) => {}
        _ => panic!("job {}: outcome presence differs", a.job),
    }
}

fn assert_service_reports_identical(a: &ServiceFaultReport, b: &ServiceFaultReport) {
    assert_eq!(a.node_leaves, b.node_leaves);
    assert_eq!(a.node_joins, b.node_joins);
    assert_eq!(a.repartitions, b.repartitions);
    assert_eq!(a.job_crashes, b.job_crashes);
    assert_eq!(a.resubmissions, b.resubmissions);
    assert_eq!(a.jobs_shed, b.jobs_shed);
    assert_eq!(a.jobs_abandoned, b.jobs_abandoned);
    assert_eq!(a.lost_service_secs.to_bits(), b.lost_service_secs.to_bits());
    assert_eq!(a.backoff_secs.to_bits(), b.backoff_secs.to_bits());
}

/// The global invariants every chaos run must keep, whatever the plan.
fn assert_chaos_invariants(outcome: &ServiceOutcome) {
    // Slot-pool conservation under churn, at every event.
    assert!(!outcome.timeline.is_empty());
    for s in &outcome.timeline {
        assert!(
            s.slots_in_use <= s.capacity,
            "{:?}: {} slots leased with capacity {} at t={}",
            outcome.policy,
            s.slots_in_use,
            s.capacity,
            s.at_secs
        );
        assert!(s.in_service_jobs <= s.active_jobs);
        assert!(s.in_service_jobs == 0 || s.slots_in_use >= 1, "a live job lost its slice");
    }
    // No lost or duplicated jobs: exactly one record per submission,
    // each with a consistent terminal status.
    let mut seen = vec![false; outcome.jobs.len()];
    for r in &outcome.jobs {
        assert!(!std::mem::replace(&mut seen[r.job], true), "job {} duplicated", r.job);
        match r.status {
            JobOutcome::Completed => assert!(r.completion_secs.is_finite(), "{r:?}"),
            JobOutcome::Shed | JobOutcome::Abandoned => {
                assert!(r.drained_secs.is_finite(), "{r:?}");
                assert!(r.completion_secs.is_nan() && r.response_secs.is_nan(), "{r:?}");
            }
        }
        // Every submission runs: at least one attempt on at least one slot.
        assert!(r.attempts >= 1 && r.outcome.is_some(), "{r:?}");
        assert!(r.slots >= 1, "a job was sliced to zero slots");
        assert!(r.lost_service_secs >= 0.0 && r.backoff_secs >= 0.0);
    }
    assert!(seen.iter().all(|&s| s), "a submission produced no record");
    // Report counters match the per-record tallies.
    let report = &outcome.service_fault_report;
    let count =
        |status: JobOutcome| outcome.jobs.iter().filter(|r| r.status == status).count() as u64;
    assert_eq!(report.jobs_shed, count(JobOutcome::Shed));
    assert_eq!(report.jobs_abandoned, count(JobOutcome::Abandoned));
    let lost: f64 = outcome.jobs.iter().map(|r| r.lost_service_secs).sum();
    assert!((report.lost_service_secs - lost).abs() < 1e-9);
    assert!(report.resubmissions <= report.job_crashes);
    assert!(report.node_joins <= report.node_leaves, "more nodes rejoined than left");
}

#[test]
fn chaos_outcomes_and_traces_identical_across_worker_counts() {
    for policy in SchedulingPolicy::ALL {
        let (base, base_snap) = run_chaos(policy, WORKER_COUNTS[0], mixed_config());
        base_snap.validate().expect("chaos traces are well-formed");
        let base_trace = base_snap.to_json_string();
        let base_metrics = base_snap.metrics_json_string();
        for workers in &WORKER_COUNTS[1..] {
            let (outcome, snap) = run_chaos(policy, *workers, mixed_config());
            assert_eq!(outcome.jobs.len(), base.jobs.len());
            for (x, y) in base.jobs.iter().zip(&outcome.jobs) {
                assert_records_identical(x, y);
            }
            assert_eq!(outcome.makespan_secs.to_bits(), base.makespan_secs.to_bits());
            assert_service_reports_identical(
                &base.service_fault_report,
                &outcome.service_fault_report,
            );
            assert_eq!(
                snap.to_json_string(),
                base_trace,
                "{policy:?}: chaos trace differs between workers=1 and workers={workers}"
            );
            assert_eq!(
                snap.metrics_json_string(),
                base_metrics,
                "{policy:?}: chaos metrics differ between workers=1 and workers={workers}"
            );
        }
    }
}

#[test]
fn chaos_invariants_hold_under_every_policy_and_the_report_is_persisted() {
    let mut reports: BTreeMap<String, ServiceFaultReport> = BTreeMap::new();
    let mut any_faults = false;
    for policy in SchedulingPolicy::ALL {
        let (outcome, snap) = run_chaos(policy, 2, mixed_config());
        assert_chaos_invariants(&outcome);
        let report = outcome.service_fault_report;
        any_faults |= !report.is_clean();
        // Applied churn must be visible in the trace, and vice versa.
        let trace = snap.to_json_string();
        assert_eq!(report.node_leaves + report.node_joins > 0, trace.contains("\"churn\""));
        assert_eq!(report.jobs_shed > 0, trace.contains("\"shed\""));
        reports.insert(policy.name().to_string(), report);
    }
    assert!(any_faults, "ServiceFaultPlan::mixed must actually fire");
    // Persist the fault picture for the CI artifact upload.
    std::fs::create_dir_all("target").unwrap();
    let json = serde_json::to_string_pretty(&reports).unwrap();
    std::fs::write("target/service_chaos_report.json", format!("{json}\n")).unwrap();
}

/// A chaos trace carries what the service records and nothing else: job
/// spans name the job, its workload, the backlog it met and its deadline;
/// the service span its policy and pool size. An `alert` event is no kind
/// a run writes, so the importer refuses one.
#[test]
fn chaos_traces_carry_only_the_recorded_vocabulary() {
    let (outcome, snap) = run_chaos(SchedulingPolicy::Fifo, 2, mixed_config());
    assert!(!outcome.service_fault_report.is_clean(), "the stream must fault");
    let keys = |kind: SpanKind| -> Vec<Vec<&str>> {
        let spans = snap.spans.iter().filter(|s| s.kind == kind);
        spans.map(|s| s.attrs.iter().map(|(key, _)| *key).collect()).collect()
    };
    let jobs = keys(SpanKind::Job);
    assert_eq!(jobs.len(), JOBS);
    for job in &jobs {
        assert_eq!(job, &["job", "workload", "queue_depth", "deadline_secs"]);
    }
    assert_eq!(keys(SpanKind::Service), [["policy", "slot_capacity"]]);
    let metrics = snap.metrics_json_string();
    assert!(metrics.contains("\"service.jobs_submitted\""), "{metrics}");
    assert!(!metrics.contains("service.jobs_admitted"), "{metrics}");

    // The first recorded event, renamed to `alert`.
    let trace = snap.to_json_string();
    let events = trace.find("\"events\": [").expect("the trace has an events array");
    let key = "\"kind\": \"";
    let kind = events + trace[events..].find(key).expect("an event") + key.len();
    let end = kind + trace[kind..].find('"').unwrap();
    assert!(EventKind::from_name(&trace[kind..end]).is_some(), "{}", &trace[kind..end]);
    let alert = format!("{}alert{}", &trace[..kind], &trace[end..]);
    assert!(matches!(
        TelemetrySnapshot::from_json_str(&alert),
        Err(TraceError::Parse { reason }) if reason.contains("unknown kind")
    ));
}

#[test]
fn admitted_jobs_and_their_crash_chains_are_policy_invariant() {
    let runs: Vec<ServiceOutcome> =
        SchedulingPolicy::ALL.into_iter().map(|p| run_chaos(p, 2, mixed_config()).0).collect();
    let base = &runs[0];
    for other in &runs[1..] {
        for (x, y) in base.jobs.iter().zip(&other.jobs) {
            // The tuning work is policy-invariant: churn draws key on tick
            // indices, so every policy sees the same capacity at each
            // arrival.
            assert_eq!(x.slots, y.slots);
            assert_eq!(x.service_secs.to_bits(), y.service_secs.to_bits());
            if let (Some(ox), Some(oy)) = (&x.outcome, &y.outcome) {
                assert_eq!(ox.best_accuracy.to_bits(), oy.best_accuracy.to_bits());
                assert_eq!(ox.tuning_secs.to_bits(), oy.tuning_secs.to_bits());
            }
            // Jobs that survived (completed) under both policies crashed
            // at the same (job, attempt) points.
            if x.status == JobOutcome::Completed && y.status == JobOutcome::Completed {
                assert_eq!(x.attempts, y.attempts);
                assert_eq!(x.lost_service_secs.to_bits(), y.lost_service_secs.to_bits());
                assert_eq!(x.backoff_secs.to_bits(), y.backoff_secs.to_bits());
            }
        }
    }
}

#[test]
fn empty_plan_with_no_deadline_stays_clean() {
    let (outcome, snap) = run_chaos(SchedulingPolicy::Fifo, 2, ServiceConfig::default());
    assert!(outcome.service_fault_report.is_clean());
    assert!(outcome.jobs.iter().all(|r| r.status == JobOutcome::Completed));
    assert!(outcome.jobs.iter().all(|r| r.attempts == 1));
    assert!(outcome.timeline.iter().all(|s| s.capacity == outcome.slot_capacity));
    let trace = snap.to_json_string();
    assert!(!trace.contains("\"churn\""), "clean runs must not record churn events");
    assert!(!trace.contains("\"shed\""), "clean runs must not record shed events");
}

#[test]
fn certain_crashes_exhaust_the_resubmission_budget_into_abandonment() {
    let plan = ServiceFaultPlan::job_crashes(7, 1.0);
    let config = ServiceConfig::default().with_service_faults(plan);
    let (outcome, _) = run_chaos(SchedulingPolicy::Fifo, 2, config);
    assert_chaos_invariants(&outcome);
    let max = RESUBMIT_ATTEMPTS;
    for r in &outcome.jobs {
        assert_eq!(r.status, JobOutcome::Abandoned, "{r:?}");
        assert_eq!(r.attempts, max);
        assert!(r.lost_service_secs > 0.0, "every crash loses at least the last partial epoch");
        // Backoff accrues for every resubmission, exactly per the schedule.
        let expected: f64 = (0..max - 1).map(resubmit_backoff_secs).sum();
        assert_eq!(r.backoff_secs.to_bits(), expected.to_bits());
    }
    let report = &outcome.service_fault_report;
    let n = outcome.jobs.len() as u64;
    assert_eq!(report.jobs_abandoned, n);
    assert_eq!(report.job_crashes, n * u64::from(max));
    assert_eq!(report.resubmissions, n * u64::from(max - 1));
}

#[test]
fn checkpointed_resubmission_resumes_rather_than_restarts() {
    let plan = ServiceFaultPlan::job_crashes(7, 1.0);
    let config = ServiceConfig::default().with_service_faults(plan);
    let (outcome, _) = run_chaos(SchedulingPolicy::Fifo, 2, config);
    for r in &outcome.jobs {
        let marks = r.outcome.as_ref().unwrap().checkpoint_marks();
        assert!(!marks.is_empty(), "real tuning runs have interior checkpoints");
        // Replay the crash chain from the plan: attempt a crashes at
        // fraction f_a of its remaining service, resumes from the last
        // checkpoint mark at or below its cumulative progress.
        let total = r.service_secs;
        let mut resume = 0.0f64;
        let mut lost_if_restarting = 0.0f64;
        let mut lost_with_checkpoints = 0.0f64;
        for attempt in 0..r.attempts {
            let frac = plan.crash_at(r.job as u64, attempt).expect("crash_prob is 1");
            let progress = resume + frac * (total - resume);
            lost_if_restarting += progress;
            let next = marks.iter().copied().filter(|&m| m <= progress).fold(0.0, f64::max);
            lost_with_checkpoints += progress - next;
            resume = next;
        }
        assert!(
            (r.lost_service_secs - lost_with_checkpoints).abs() < 1e-6 * total,
            "job {}: lost {} but the checkpoint chain predicts {}",
            r.job,
            r.lost_service_secs,
            lost_with_checkpoints
        );
        assert!(
            r.lost_service_secs < lost_if_restarting - 1e-9,
            "job {}: resubmission must resume from a checkpoint, not restart",
            r.job
        );
    }
}

#[test]
fn a_deadline_shorter_than_any_run_sheds_every_job() {
    let config = ServiceConfig::default().with_deadline(10.0);
    let (outcome, _) = run_chaos(SchedulingPolicy::ProcessorSharing, 2, config);
    assert_chaos_invariants(&outcome);
    for r in &outcome.jobs {
        assert_eq!(r.status, JobOutcome::Shed, "{r:?}");
        assert_eq!(r.drained_secs.to_bits(), (r.arrival_secs + 10.0).to_bits());
    }
    assert_eq!(outcome.service_fault_report.jobs_shed, outcome.jobs.len() as u64);
    assert_eq!(outcome.mean_response_secs, 0.0, "nothing completed");
}

#[test]
fn churn_to_a_single_slot_never_zeroes_a_live_jobs_slice() {
    // Deterministic shrink: every 4 000 s tick a one-slot node leaves
    // (leave_prob 1 is drawn before the join), down to the one-slot floor.
    let config = ServiceConfig::default().with_service_faults(ServiceFaultPlan::churn(5, 1.0));
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(SEED)
        .workers(2)
        .parallel_slots(2)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let subs = submissions(SEED, 2);
    let service = TuningService::new(config);
    let outcome = service.run(&env, &subs, &TunerOptions::fast()).unwrap();
    assert_chaos_invariants(&outcome);
    assert!(outcome.jobs.iter().all(|r| r.status == JobOutcome::Completed));
    assert!(outcome.jobs.iter().all(|r| r.slots >= 1));
    // The pool really shrank to the floor and stayed conservative there.
    let floor = outcome.timeline.iter().map(|s| s.capacity).min().unwrap();
    assert_eq!(floor, 1, "the leave-every-tick plan must reach the one-slot floor");
    assert!(outcome.service_fault_report.node_leaves >= 1);
    assert_eq!(outcome.service_fault_report.node_joins, 0, "leaves are drawn first");
}

#[test]
fn degenerate_deadlines_and_fault_probabilities_are_typed_errors() {
    let env = ExperimentEnv::distributed(SEED);
    let subs = submissions(SEED, 1);
    for config in [
        ServiceConfig::default().with_deadline(0.0),
        ServiceConfig::default().with_deadline(f64::NAN),
        ServiceConfig::default().with_service_faults({
            // The constructors clamp; out-of-range probabilities can only
            // come from direct field edits, and validate must catch them.
            let mut p = ServiceFaultPlan::none();
            p.crash_prob = 2.0;
            p
        }),
    ] {
        let err = TuningService::new(config)
            .run(&env, &subs, &TunerOptions::fast())
            .expect_err("degenerate configs must be rejected");
        assert!(
            matches!(err, pipetune::PipeTuneError::InvalidConfig { .. }),
            "expected InvalidConfig, got {err:?}"
        );
    }
}

proptest! {
    // Each case runs real tuning jobs; keep the sweep small — the pinned
    // tests above carry the deterministic load.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_fault_schedules_keep_the_global_invariants(
        plan_seed in 0u64..1_000,
        policy_idx in 0usize..3,
        deadline_secs in 8_000.0f64..40_000.0,
        use_deadline in 0u8..2,
    ) {
        let policy = SchedulingPolicy::ALL[policy_idx];
        let mut config = ServiceConfig::default()
            .with_service_faults(ServiceFaultPlan::mixed(plan_seed));
        if use_deadline == 1 {
            config = config.with_deadline(deadline_secs);
        }
        let telemetry = TelemetryHandle::enabled();
        let env = ExperimentEnvBuilder::distributed(SEED)
            .workers(2)
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let service = TuningService::new(config.with_policy(policy));
        let outcome =
            service.run(&env, &submissions(plan_seed, 2), &TunerOptions::fast()).unwrap();
        assert_chaos_invariants(&outcome);
        telemetry.snapshot().unwrap().validate().expect("chaos traces stay well-formed");
    }
}

// Unused-import guard: ChurnKind is part of the public chaos surface.
#[test]
fn churn_kinds_name_their_direction() {
    assert_eq!(ChurnKind::Leave.name(), "leave");
    assert_eq!(ChurnKind::Join.name(), "join");
}
