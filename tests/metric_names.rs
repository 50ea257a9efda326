//! The metric-name registry audit (see `pipetune_telemetry::names`).
//!
//! Every subsystem declares its metric vocabulary through
//! `metric_names!`, which also emits an enumerable `ALL_METRIC_NAMES`
//! slice. This suite runs the noisiest pipelines we have — a faulty
//! standalone tuning run with the epoch cache, and a chaos service
//! stream watched by the full monitor detector set — and asserts that
//! **every name they record is registered** in some subsystem's slice. A
//! typo'd emission site (`service.job_shed` vs `service.jobs_shed`)
//! fails here before it can silently split a dashboard series. It also
//! holds the hand-kept tables of `docs/telemetry.md` to the same union, in
//! both directions.

use pipetune::{
    EpochCacheConfig, EpochCacheHandle, ExperimentEnvBuilder, PipeTune, TunerOptions, WorkloadSpec,
};
use pipetune_cluster::{FaultPlan, PoissonArrivals, ServiceFaultPlan};
use pipetune_monitor::{MonitorConfig, MonitorHandle};
use pipetune_service::{JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
use pipetune_telemetry::{names, TelemetryHandle, TelemetrySnapshot};
use std::collections::BTreeSet;

/// The union of every subsystem's declared vocabulary.
const REGISTRIES: &[&[&str]] = &[
    pipetune::observe::ALL_METRIC_NAMES,
    pipetune_cluster::observe::ALL_METRIC_NAMES,
    pipetune_energy::observe::ALL_METRIC_NAMES,
    pipetune_perfmon::observe::ALL_METRIC_NAMES,
    pipetune_service::observe::ALL_METRIC_NAMES,
];

fn assert_all_registered(snapshot: &TelemetrySnapshot, context: &str) {
    let missing = names::unregistered(snapshot, REGISTRIES);
    assert!(
        missing.is_empty(),
        "{context} emitted unregistered metric names: {missing:?} \
         (declare them via metric_names! in the owning observe module)"
    );
}

#[test]
fn registries_are_disjoint_and_well_formed() {
    let mut all: Vec<&str> = REGISTRIES.iter().flat_map(|s| s.iter().copied()).collect();
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "two observe modules declare the same metric name");
    for name in all {
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || "._".contains(c)),
            "metric name {name:?} breaks the lowercase dotted convention"
        );
    }
}

/// `docs/telemetry.md` § "Metric names" lists the vocabulary by hand: its
/// back-quoted lowercase dotted names are the registered names, no more
/// and no fewer.
#[test]
fn documented_names_are_the_registered_names() {
    let doc = include_str!("../docs/telemetry.md");
    let section = doc.split("\n## Metric names\n").nth(1).expect("the section exists");
    let section = section.split("\n## ").next().unwrap_or(section);
    let is_name = |text: &str| {
        let mut parts = text.split('.');
        text.contains('.')
            && parts.all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
    };
    // Odd pieces of a split on back quotes are the quoted ones.
    let documented: BTreeSet<&str> =
        section.split('`').skip(1).step_by(2).filter(|text| is_name(text)).collect();
    let registered: BTreeSet<&str> = REGISTRIES.iter().flat_map(|s| s.iter().copied()).collect();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "docs/telemetry.md drifted from the observe modules: \
         registered but not documented {undocumented:?}, documented but not registered {unregistered:?}"
    );
}

#[test]
fn faulty_cached_tuning_run_emits_only_registered_names() {
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(41)
        .workers(4)
        .fault_plan(FaultPlan::mixed(7))
        .epoch_cache(EpochCacheHandle::with_config(EpochCacheConfig::default()))
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let mut tuner = PipeTune::new(TunerOptions::fast());
    // Two identical runs: the second exercises ground-truth reuse and
    // the epoch-cache hit/miss/evict counters.
    tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("cold run");
    tuner.run(&env, &WorkloadSpec::lenet_mnist()).expect("warm run");
    let snap = telemetry.snapshot().expect("enabled handle");
    assert_all_registered(&snap, "faulty cached tuning run");
}

#[test]
fn chaos_service_stream_with_monitor_emits_only_registered_names() {
    let telemetry = TelemetryHandle::enabled();
    let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
    let env = ExperimentEnvBuilder::distributed(41)
        .workers(4)
        .telemetry(telemetry.clone())
        .monitor(monitor.clone())
        .build()
        .unwrap();
    let config = ServiceConfig::default()
        .with_policy(SchedulingPolicy::ALL[0])
        .with_service_faults(ServiceFaultPlan::mixed(41))
        .with_deadline(20_000.0);
    let mut arrivals = PoissonArrivals::new(1.0 / 1500.0, 41);
    let submissions: Vec<JobSubmission> = (0..3)
        .map(|_| {
            JobSubmission::new(arrivals.next_arrival().as_secs_f64(), WorkloadSpec::lenet_mnist())
        })
        .collect();
    TuningService::new(config)
        .run(&env, &submissions, &TunerOptions::fast())
        .expect("service runs");

    let timeline = monitor.finish(&telemetry).expect("live monitor");
    let snap = telemetry.snapshot().expect("enabled handle");
    assert!(!timeline.is_empty(), "chaos stream should fire at least one detector");
    assert_all_registered(&snap, "chaos service stream with live monitor");
}
