//! The online monitor's determinism contract (see `docs/monitoring.md`):
//!
//! 1. the incident timeline is **byte-identical** for every executor
//!    worker count, clean or under the chaos fault schedule, because the
//!    engine consumes the telemetry stream in record order and that
//!    stream is itself worker-count-invariant;
//! 2. **live scans ≡ offline replay** — re-running the detector set over
//!    the exported trace (`pipetune-bench trace watch`) reproduces the live
//!    run's timeline byte for byte;
//! 3. a live monitor only **reads**: the trace and metrics it watches are
//!    bit-identical to a monitor-less run's, and injecting an empty
//!    timeline is a no-op.

use pipetune::{ExperimentEnvBuilder, PipeTune, TunerOptions, WorkloadSpec};
use pipetune_cluster::{FaultPlan, PoissonArrivals, ServiceFaultPlan};
use pipetune_monitor::{IncidentTimeline, MonitorConfig, MonitorEngine, MonitorHandle};
use pipetune_service::{JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
use pipetune_telemetry::{TelemetryHandle, TelemetrySnapshot};

const SEED: u64 = 41;
const WORKER_COUNTS: [usize; 3] = [1, 4, 64];
const JOBS: usize = 3;
/// Chaos streams need enough contention that the deadline actually
/// sheds a job (the SLO burn signal); 3-job streams all finish in time.
const CHAOS_JOBS: usize = 6;
/// Near the clean streams' p95 response: most jobs finish, the tail is
/// shed — so the SLO burn detector has something to see.
const DEADLINE_SECS: f64 = 20_000.0;

fn submissions(jobs: usize) -> Vec<JobSubmission> {
    let mut arrivals = PoissonArrivals::new(1.0 / 1500.0, SEED);
    (0..jobs)
        .map(|_| {
            JobSubmission::new(arrivals.next_arrival().as_secs_f64(), WorkloadSpec::lenet_mnist())
        })
        .collect()
}

/// Runs one service stream under a live monitor and returns the timeline
/// plus the exported trace.
fn run_service(workers: usize, chaos: bool) -> (IncidentTimeline, TelemetrySnapshot) {
    let telemetry = TelemetryHandle::enabled();
    let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
    let mut service_config = ServiceConfig::default().with_policy(SchedulingPolicy::ALL[0]);
    if chaos {
        service_config = service_config
            .with_service_faults(ServiceFaultPlan::mixed(SEED))
            .with_deadline(DEADLINE_SECS);
    }
    let env = ExperimentEnvBuilder::distributed(SEED)
        .workers(workers)
        .telemetry(telemetry.clone())
        .monitor(monitor.clone())
        .build()
        .unwrap();
    let jobs = if chaos { CHAOS_JOBS } else { JOBS };
    TuningService::new(service_config)
        .run(&env, &submissions(jobs), &TunerOptions::fast())
        .expect("service runs");
    let timeline = monitor.finish(&telemetry).expect("live monitor");
    (timeline, telemetry.snapshot().expect("enabled handle"))
}

#[test]
fn timelines_byte_identical_across_worker_counts() {
    for chaos in [false, true] {
        let (base, _) = run_service(WORKER_COUNTS[0], chaos);
        let base_json = base.to_json_string();
        for &workers in &WORKER_COUNTS[1..] {
            let (timeline, _) = run_service(workers, chaos);
            assert_eq!(
                timeline.to_json_string(),
                base_json,
                "timeline differs between workers={} and workers={workers} (chaos={chaos})",
                WORKER_COUNTS[0]
            );
        }
        if chaos {
            // The gated acceptance artefact: a chaos stream must produce a
            // non-empty timeline with the deadline burn visible.
            assert!(!base.is_empty(), "chaos stream produced no incidents");
            assert!(base.count_for("slo_burn") >= 1, "shed job should burn the SLO budget");
            assert!(base.count_for("stall") >= 1, "recovery reruns should trip the watchdog");
        }
    }
}

#[test]
fn tuner_runs_monitor_identically_across_worker_counts() {
    // The runner-loop scan path (no service layer): a faulty standalone
    // tuning run with the watchdog live.
    let run = |workers: usize| {
        let telemetry = TelemetryHandle::enabled();
        let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
        let env = ExperimentEnvBuilder::distributed(SEED)
            .workers(workers)
            .fault_plan(FaultPlan::mixed(7))
            .telemetry(telemetry.clone())
            .monitor(monitor.clone())
            .build()
            .unwrap();
        PipeTune::new(TunerOptions::fast())
            .run(&env, &WorkloadSpec::lenet_mnist())
            .expect("tuner runs");
        monitor.finish(&telemetry).expect("live monitor").to_json_string()
    };
    let base = run(WORKER_COUNTS[0]);
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(run(workers), base, "tuner timeline differs at workers={workers}");
    }
}

#[test]
fn offline_replay_equals_live_scans() {
    let (live, snap) = run_service(4, true);

    // Round-trip the trace through its JSON export — exactly what
    // `pipetune-bench trace watch` consumes — then replay the detectors.
    let parsed = TelemetrySnapshot::from_json_str(&snap.to_json_string()).expect("own export");
    let mut engine = MonitorEngine::new(&MonitorConfig::standard());
    engine.observe_snapshot(&parsed);
    let replayed = engine.finish(&parsed.metrics);

    assert_eq!(replayed, live);
    assert_eq!(replayed.to_json_string(), live.to_json_string());
}

#[test]
fn a_live_standard_monitor_is_read_only() {
    let (timeline, with_monitor) = run_service(4, true);
    assert!(!timeline.is_empty(), "the chaos stream fires alerts");

    // The same stream with the monitor disabled entirely.
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(SEED)
        .workers(4)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let config = ServiceConfig::default()
        .with_policy(SchedulingPolicy::ALL[0])
        .with_service_faults(ServiceFaultPlan::mixed(SEED))
        .with_deadline(DEADLINE_SECS);
    TuningService::new(config)
        .run(&env, &submissions(CHAOS_JOBS), &TunerOptions::fast())
        .expect("service runs");
    let without_monitor = telemetry.snapshot().expect("enabled handle");

    assert_eq!(with_monitor.to_json_string(), without_monitor.to_json_string());
    assert_eq!(with_monitor.metrics_json_string(), without_monitor.metrics_json_string());

    // Injecting an empty timeline is a strict no-op on the trace too.
    let mut injected = without_monitor;
    let before = injected.to_json_string();
    IncidentTimeline::from_alerts(Vec::new()).inject_into(&mut injected);
    assert_eq!(injected.to_json_string(), before);
    assert_eq!(injected.metrics_json_string(), with_monitor.metrics_json_string());
}
