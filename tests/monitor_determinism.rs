//! The online monitor's determinism contract (see `docs/monitoring.md`):
//!
//! 1. the incident timeline is **byte-identical** for every executor
//!    worker count, clean or under the chaos fault schedule, because the
//!    engine consumes the telemetry stream in record order and that
//!    stream is itself worker-count-invariant;
//! 2. **live scans ≡ offline replay** — re-running the detector set over
//!    the exported trace (`pipetune-bench trace watch`) reproduces the live
//!    run's timeline byte for byte;
//! 3. an engine with **no detectors** (and an injected empty timeline)
//!    leaves every artefact bit-identical to a monitor-less build;
//! 4. a proptest sweep over detector window parameters pins the
//!    timeline's total order: alerts never reorder, whatever fires.

use pipetune::{ExperimentEnvBuilder, PipeTune, TunerOptions, WorkloadSpec};
use pipetune_cluster::{FaultPlan, PoissonArrivals, ServiceFaultPlan};
use pipetune_monitor::{
    CrashLoopConfig, IncidentTimeline, MonitorConfig, MonitorEngine, MonitorHandle, SloBurnConfig,
    StallConfig,
};
use pipetune_service::{JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
use pipetune_telemetry::{TelemetryHandle, TelemetrySnapshot};
use proptest::prelude::*;
use std::sync::OnceLock;

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
fn run_service(
    workers: usize,
    chaos: bool,
    config: &MonitorConfig,
) -> (IncidentTimeline, TelemetrySnapshot) {
    let telemetry = TelemetryHandle::enabled();
    let monitor = MonitorHandle::with_config(config);
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
        let (base, _) = run_service(WORKER_COUNTS[0], chaos, &MonitorConfig::standard());
        let base_json = base.to_json_string();
        for &workers in &WORKER_COUNTS[1..] {
            let (timeline, _) = run_service(workers, chaos, &MonitorConfig::standard());
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
    let (live, snap) = run_service(4, true, &MonitorConfig::standard());

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
fn empty_detector_set_is_bit_identical_to_a_monitorless_run() {
    let (timeline, with_monitor) = run_service(4, true, &MonitorConfig::none());
    assert!(timeline.is_empty(), "no detectors, no alerts");

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

    // Injecting the empty timeline is a strict no-op on the trace too.
    let mut injected = without_monitor;
    let before = injected.to_json_string();
    timeline.inject_into(&mut injected);
    assert_eq!(injected.to_json_string(), before);
    assert_eq!(injected.metrics_json_string(), with_monitor.metrics_json_string());
}

/// One chaos trace, computed once, shared by every proptest case.
fn chaos_snapshot() -> &'static TelemetrySnapshot {
    static SNAP: OnceLock<TelemetrySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| run_service(2, true, &MonitorConfig::none()).1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the window parameters, the timeline comes out in its
    /// canonical total order: re-sorting it is the identity, and every
    /// alert carries a finite timestamp.
    #[test]
    fn alerts_never_reorder(
        window in 2usize..48,
        factor in 1.25f64..4.0,
        min_samples in 2usize..12,
        burst in 1usize..5,
        crash_window in 1_000.0f64..50_000.0,
        fast in 1_000.0f64..20_000.0,
        slow_mult in 2.0f64..8.0,
        budget in 0.01f64..0.5,
    ) {
        let config = MonitorConfig {
            stall: Some(StallConfig { window, factor, min_samples }),
            crash_loop: Some(CrashLoopConfig { window_secs: crash_window, burst }),
            slo_burn: Some(SloBurnConfig {
                slow_window_secs: fast * slow_mult,
                fast_window_secs: fast,
                budget,
                burn_threshold: 1.0,
            }),
            ..MonitorConfig::none()
        };
        let snap = chaos_snapshot();
        let mut engine = MonitorEngine::new(&config);
        engine.observe_snapshot(snap);
        let timeline = engine.finish(&snap.metrics);

        prop_assert!(timeline.alerts.iter().all(|a| a.at_secs.is_finite()));
        let resorted = IncidentTimeline::from_alerts(timeline.alerts.clone());
        prop_assert_eq!(&resorted, &timeline, "timeline not in canonical order");
        // And replay is deterministic: a second engine reproduces it.
        let mut again = MonitorEngine::new(&config);
        again.observe_snapshot(snap);
        prop_assert_eq!(again.finish(&snap.metrics), timeline);
    }
}
