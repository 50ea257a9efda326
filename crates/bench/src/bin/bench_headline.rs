//! `bench_headline`: the paper-claim regression gate.
//!
//! Runs the headline single-tenancy experiments (Tune V1, Tune V2 and
//! PipeTune with the §7.2 warm-started ground truth) under live
//! telemetry, extracts the paper's claims from the traces — tuning-time
//! reduction vs V1, speedup, energy reduction, final accuracy — and
//! writes them as stable sorted-key JSON. A multi-tenant section then
//! runs the same Poisson job stream through the `pipetune-service`
//! scheduler under every policy, adding gated
//! `multitenant.{policy}.{mean,p95,...}_response_secs` metrics.
//!
//! ```text
//! bench_headline [--chaos] [--out PATH] [--check BASELINE]
//! ```
//!
//! With `--check`, the fresh metrics are compared against the committed
//! baseline (`BENCH_pipetune.json`) under
//! [`pipetune_insight::GateConfig::headline_defaults`]; the process exits
//! non-zero when any gated metric regressed beyond tolerance, which is
//! what fails the CI job.
//!
//! With `--chaos`, the single-tenancy section is skipped and the
//! multi-tenant streams run under the pinned
//! [`pipetune_cluster::ServiceFaultPlan::mixed`] fault schedule with a
//! deadline SLO — node churn, job crashes with checkpointed resubmission
//! and shedding all active. Each chaos stream also runs under live
//! telemetry with the online monitor's full detector set
//! ([`pipetune_monitor::MonitorConfig::standard`]): the report (default
//! out `BENCH_pipetune.chaos.json`) adds `multitenant.{policy}.{shed_rate,
//! abandoned_rate,completed_jobs,recovery_overhead_secs,...}` and
//! `multitenant.{policy}.monitor.{alerts_total,stall,crash_loop,...}`
//! metrics, each stream's incident timeline lands in
//! `target/incidents.{policy}.json` (the artefact CI uploads on gate
//! failure), and `--check` gates under
//! [`pipetune_insight::GateConfig::chaos_defaults`].
//!
//! Everything is simulated-deterministic: re-running produces the same
//! file byte for byte, so the committed baselines only change when the
//! pipeline's behaviour does.

use std::process::ExitCode;

use pipetune::prelude::*;
use pipetune::{warm_start_ground_truth};
use pipetune_cluster::{PoissonArrivals, ServiceFaultPlan};
use pipetune_insight::{
    cache_speedup_metrics, check, headline_metrics, multitenant_metrics, service_fault_metrics,
    BenchReport, GateConfig,
};
use pipetune_monitor::{MonitorConfig, MonitorHandle};
use pipetune_service::{JobOutcome, JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
use pipetune_telemetry::{TelemetryHandle, TelemetrySnapshot};

const SEED: u64 = 41;
/// Multi-tenant section: jobs per stream and the Poisson arrival rate
/// (mean inter-arrival 1500 simulated seconds keeps the queue busy).
const SERVICE_JOBS: usize = 6;
const SERVICE_RATE: f64 = 1.0 / 1500.0;
/// Chaos section: the deadline SLO sits near the clean streams' p95
/// response (most jobs finish; the tail is shed), and churn/crash draws
/// come from the pinned mixed plan.
const CHAOS_DEADLINE_SECS: f64 = 20_000.0;

/// Runs one approach over `spec` under a fresh telemetry handle and
/// returns its trace.
fn traced<F>(spec: &WorkloadSpec, run: F) -> TelemetrySnapshot
where
    F: FnOnce(&ExperimentEnv, &WorkloadSpec),
{
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(SEED).telemetry(telemetry.clone()).build().expect("valid experiment config");
    run(&env, spec);
    telemetry.snapshot().expect("enabled handle")
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut chaos = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--chaos" => chaos = true,
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => return usage(),
            },
            "--check" => match args.next() {
                Some(path) => check_path = Some(path),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        if chaos { "BENCH_pipetune.chaos.json".into() } else { "BENCH_pipetune.json".into() }
    });
    let label = if chaos { "bench_chaos" } else { "bench_headline" };

    let options = TunerOptions::fast();
    let mut report = BenchReport { label: label.into(), ..Default::default() };
    if !chaos {
        for spec in [WorkloadSpec::lenet_mnist(), WorkloadSpec::lstm_news20()] {
            let key = spec.name().replace('/', "_");
            eprintln!("{label}: running {} (TuneV1, TuneV2, PipeTune)...", spec.name());
            let v1 = traced(&spec, |env, spec| {
                TuneV1::new(options).run(env, spec).expect("TuneV1 runs");
            });
            let v2 = traced(&spec, |env, spec| {
                TuneV2::new(options).run(env, spec).expect("TuneV2 runs");
            });
            let pt = traced(&spec, |env, spec| {
                let gt = warm_start_ground_truth(env, &WorkloadSpec::all_type12(), &options)
                    .expect("warm start");
                PipeTune::with_ground_truth(options, gt).run(env, spec).expect("PipeTune runs");
            });
            report.metrics.extend(headline_metrics(&key, &v1, &v2, &pt));
        }

        // Epoch-reuse cache headline: a cold PipeTune run fills a shared
        // cache, then an identical rerun adopts its prefixes. The warm
        // rerun must reproduce the cold result exactly — only faster —
        // and `cache.{workload}.warm_speedup` is the gated metric.
        for spec in [WorkloadSpec::lenet_mnist(), WorkloadSpec::lstm_news20()] {
            let key = spec.name().replace('/', "_");
            eprintln!("{label}: running {} (cold/warm epoch cache)...", spec.name());
            let cache = EpochCacheHandle::with_config(EpochCacheConfig::default());
            let env = ExperimentEnvBuilder::distributed(SEED).epoch_cache(cache).build().expect("valid experiment config");
            let cold = PipeTune::new(options).run(&env, &spec).expect("cold cache run");
            let warm = PipeTune::new(options).run(&env, &spec).expect("warm cache run");
            assert_eq!(
                warm.best_accuracy.to_bits(),
                cold.best_accuracy.to_bits(),
                "warm cache rerun must reproduce the cold result"
            );
            report.metrics.extend(cache_speedup_metrics(
                &key,
                cold.tuning_secs,
                warm.tuning_secs,
                warm.cache_stats.saved_secs,
            ));
        }
    }

    // Multi-tenant headline: the same arrival stream under every
    // scheduling policy, summarised as response-time percentiles (plus
    // fault-tolerance rates in chaos mode).
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::lstm_news20()];
    let submissions: Vec<JobSubmission> = {
        let mut arrivals = PoissonArrivals::new(SERVICE_RATE, SEED);
        (0..SERVICE_JOBS)
            .map(|i| JobSubmission::new(arrivals.next_arrival().as_secs_f64(), specs[i % specs.len()]))
            .collect()
    };
    for policy in SchedulingPolicy::ALL {
        eprintln!("{label}: running {SERVICE_JOBS}-job service stream ({})...", policy.name());
        let mut env = ExperimentEnvBuilder::distributed(SEED);
        let mut config = ServiceConfig::default().with_policy(policy);
        // Chaos streams run under live telemetry with the online monitor's
        // full detector set; clean streams stay uninstrumented, keeping
        // BENCH_pipetune.json byte-identical to monitor-less builds.
        let mut watch: Option<(TelemetryHandle, MonitorHandle)> = None;
        if chaos {
            config = config
                .with_service_faults(ServiceFaultPlan::mixed(SEED))
                .with_deadline(CHAOS_DEADLINE_SECS);
            let telemetry = TelemetryHandle::enabled();
            let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
            env = env.telemetry(telemetry.clone()).monitor(monitor.clone());
            watch = Some((telemetry, monitor));
        }
        let env = env.build().expect("valid experiment config");
        let service = TuningService::new(config);
        let outcome = service.run(&env, &submissions, &options).expect("service runs");
        let prefix = format!("multitenant.{}", policy.name());
        let responses: Vec<f64> = outcome.jobs.iter().map(|r| r.response_secs).collect();
        report.metrics.extend(multitenant_metrics(&prefix, &responses));
        report.metrics.insert(format!("{prefix}.makespan_secs"), outcome.makespan_secs);
        if chaos {
            let completed = outcome
                .jobs
                .iter()
                .filter(|r| r.status == JobOutcome::Completed)
                .count();
            report.metrics.extend(service_fault_metrics(
                &prefix,
                &outcome.service_fault_report,
                outcome.jobs.len(),
                completed,
            ));
        }
        if let Some((telemetry, monitor)) = watch {
            let timeline = monitor.finish(&telemetry).expect("live monitor");
            report
                .metrics
                .insert(format!("{prefix}.monitor.alerts_total"), timeline.len() as f64);
            for detector in ["stall", "crash_loop", "slo_burn", "cache_thrash", "queue_growth"] {
                report.metrics.insert(
                    format!("{prefix}.monitor.{detector}"),
                    timeline.count_for(detector) as f64,
                );
            }
            // The incident timeline artefact CI uploads on chaos-gate
            // failure (sorted keys: byte-identical across reruns).
            let incident_path = format!("target/incidents.{}.json", policy.name());
            let _ = std::fs::create_dir_all("target");
            if let Err(e) =
                std::fs::write(&incident_path, format!("{}\n", timeline.to_json_string()))
            {
                eprintln!("{label}: cannot write {incident_path}: {e}");
                return ExitCode::from(1);
            }
            eprintln!(
                "{label}: {} incident(s) under {} -> {incident_path}",
                timeline.len(),
                policy.name(),
            );
        }
    }

    let text = report.to_json_string();
    if let Err(e) = std::fs::write(&out_path, format!("{text}\n")) {
        eprintln!("{label}: cannot write {out_path}: {e}");
        return ExitCode::from(1);
    }
    eprintln!("{label}: wrote {} metrics to {out_path}", report.metrics.len());

    if let Some(baseline_path) = check_path {
        let baseline = match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|t| BenchReport::from_json_str(&t))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{label}: cannot load baseline {baseline_path}: {e}");
                return ExitCode::from(1);
            }
        };
        let config =
            if chaos { GateConfig::chaos_defaults() } else { GateConfig::headline_defaults() };
        let outcome = check(&baseline, &report, &config);
        print!("{}", outcome.render());
        if !outcome.passed() {
            eprintln!("{label}: regression vs {baseline_path}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_headline [--chaos] [--out PATH] [--check BASELINE]");
    ExitCode::from(1)
}
