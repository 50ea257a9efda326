//! The commands beside the experiments, `pipetune-bench <command> …`: `run`
//! tunes one workload, `headline` is the paper-claim regression gate,
//! `trace` reads an exported trace. Each keeps the stderr prefix and exit
//! codes it had as a binary of its own: `error:` for `run` (2 for a usage
//! error, 1 for a failed run), `bench_headline:` / `bench_chaos:` for
//! `headline` (1 for an error, 2 for a regression), `pipetune-trace:` for
//! `trace` (1 for usage or I/O, 2 for an invalid trace).

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

use pipetune::prelude::*;
use pipetune::warm_start_ground_truth;
use pipetune_cluster::{PoissonArrivals, ServiceFaultPlan};
use pipetune_insight::{
    cache_speedup_metrics, check, headline_metrics, multitenant_metrics, service_fault_metrics,
    BenchReport, GateConfig, TraceDiff, TraceReport,
};
use pipetune_monitor::{IncidentTimeline, MonitorEngine};
use pipetune_service::{JobOutcome, JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
use pipetune_telemetry::{TelemetrySnapshot, TraceError};

use crate::harness::{self, missing, warm_pipetune};

// --------------------------------------------------------------------- run

const RUN_USAGE: &str = "\
pipetune-bench run — tune a workload with PipeTune or the Tune baselines

USAGE:
    pipetune-bench run [OPTIONS]

OPTIONS:
    --workload <name>     workload to tune (see --list)      [lenet/mnist]
    --approach <name>     pipetune | v1 | v2                 [pipetune]
    --testbed <name>      distributed | single               [distributed]
    --seed <u64>          experiment seed                    [42]
    --jobs <n>            consecutive jobs (shared history)  [1]
    --scale <f32>         dataset scale, 0.05 to 4           [0.5]
    --r-max <u32>         HyperBand per-trial epoch budget   [9]
    --warm                warm-start the ground truth (§7.2)
    --list                list workloads and exit
    --help                print this help";

/// The dataset scales `WorkloadSpec::with_scale` keeps as given; `run`
/// refuses any other rather than tune at a scale it was not asked for.
const SCALES: RangeInclusive<f32> = 0.05..=4.0;

#[derive(Clone, Copy, PartialEq)]
enum Approach {
    PipeTune,
    V1,
    V2,
}

/// What `run` was asked for.
struct RunArgs {
    workload: String,
    approach: Approach,
    testbed: fn(u64) -> ExperimentEnv,
    seed: u64,
    jobs: usize,
    /// `--scale` and `--r-max` over [`TunerOptions::fast`].
    options: TunerOptions,
    warm: bool,
    list: bool,
    help: bool,
}

/// `value` as the number `flag` takes.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

/// `value` as the count `flag` takes, which must be at least 1.
fn count<T: FromStr + Default + PartialEq>(flag: &str, value: &str) -> Result<T, String> {
    let n = number(flag, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: "lenet/mnist".into(),
        approach: Approach::PipeTune,
        testbed: ExperimentEnv::distributed,
        seed: 42,
        jobs: 1,
        options: TunerOptions { r_max: 9, scale: 0.5, ..TunerOptions::fast() },
        warm: false,
        list: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.into(),
            "--approach" => {
                out.approach = match value()? {
                    "pipetune" => Approach::PipeTune,
                    "v1" => Approach::V1,
                    "v2" => Approach::V2,
                    other => return Err(format!("unknown approach '{other}'")),
                }
            }
            "--testbed" => {
                out.testbed = match value()? {
                    "distributed" => ExperimentEnv::distributed,
                    "single" => ExperimentEnv::single_node,
                    other => return Err(format!("unknown testbed '{other}'")),
                }
            }
            "--seed" => out.seed = number(flag, value()?)?,
            "--jobs" => out.jobs = count(flag, value()?)?,
            "--scale" => {
                out.options.scale = number(flag, value()?)?;
                if !SCALES.contains(&out.options.scale) {
                    return Err(format!("--scale must be within {SCALES:?}"));
                }
            }
            "--r-max" => out.options.r_max = count(flag, value()?)?,
            "--warm" => out.warm = true,
            "--list" => out.list = true,
            "--help" | "-h" => out.help = true,
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(out)
}

/// `pipetune-bench run`: tunes one workload from the command line.
pub(crate) fn run(args: &[String]) -> ExitCode {
    let args = match parse_run(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{RUN_USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{RUN_USAGE}");
    } else if args.list {
        println!("workloads:");
        for spec in WorkloadSpec::all_type12().into_iter().chain(WorkloadSpec::all_type3()) {
            println!("  {:<15} {}", spec.name(), spec.job_type().label());
        }
    } else {
        let Some(spec) = WorkloadSpec::by_name(&args.workload) else {
            eprintln!("error: unknown workload '{}' (try --list)", args.workload);
            return ExitCode::FAILURE;
        };
        if let Err(e) = tune(&args, &spec) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Tunes `spec` `args.jobs` times with one tuner, so later jobs see the
/// history earlier ones left; one line per job.
fn tune(args: &RunArgs, spec: &WorkloadSpec) -> harness::Result<()> {
    let (env, options) = ((args.testbed)(args.seed), args.options);
    let mut pipetune = if args.warm && args.approach == Approach::PipeTune {
        let gt = warm_start_ground_truth(&env, &WorkloadSpec::all_type12(), &options)?;
        PipeTune::with_ground_truth(options, gt)
    } else {
        PipeTune::new(options)
    };
    let (mut v1, mut v2) = (TuneV1::new(options), TuneV2::new(options));
    for job in 1..=args.jobs {
        let out = match args.approach {
            Approach::PipeTune => pipetune.run(&env, spec),
            Approach::V1 => v1.run(&env, spec),
            Approach::V2 => v2.run(&env, spec),
        }?;
        println!(
            "job {job}: {} accuracy {:>5.1}%  tuning {:>8.0}s  energy {:>8.1}kJ  best {} (hits {}, probes {})",
            out.workload,
            out.best_accuracy * 100.0,
            out.tuning_secs,
            out.tuning_energy_j / 1000.0,
            out.best_system,
            out.gt_stats.hits,
            out.gt_stats.recorded,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- headline

const SEED: u64 = 41;
/// Multi-tenant section: jobs per stream and the Poisson arrival rate
/// (mean inter-arrival 1500 simulated seconds keeps the queue busy).
const SERVICE_JOBS: usize = 6;
const SERVICE_RATE: f64 = 1.0 / 1500.0;
/// Chaos section: the deadline SLO sits near the clean streams' p95
/// response (most jobs finish; the tail is shed), and churn/crash draws
/// come from the pinned mixed plan.
const CHAOS_DEADLINE_SECS: f64 = 20_000.0;

/// `pipetune-bench headline`: the paper-claim regression gate.
///
/// Runs the headline single-tenancy experiments (Tune V1, Tune V2 and
/// PipeTune with the §7.2 warm-started ground truth) under live telemetry
/// and extracts the paper's claims from the traces; runs PipeTune cold then
/// warm over one epoch cache; then runs one Poisson job stream through the
/// `pipetune-service` scheduler under every policy. The metrics are written
/// as sorted-key JSON, to `BENCH_pipetune.json` by default.
///
/// `--chaos` skips the single-tenancy section and runs the streams under
/// the pinned [`ServiceFaultPlan::mixed`] schedule with a deadline SLO,
/// watched live by the monitor's full detector set; the report (by default
/// `BENCH_pipetune.chaos.json`) adds fault and alert counts, and each
/// stream's incident timeline lands in `target/incidents.{policy}.json`
/// (the artefact CI uploads when the gate fails).
///
/// `--check BASELINE` reads the baseline before anything runs, compares
/// the fresh report with it under [`GateConfig::headline_defaults`] (or
/// [`GateConfig::chaos_defaults`]) and exits 2 when a gated metric
/// regressed. It never writes over the baseline: without `--out`, the
/// fresh report goes to `BENCH_pipetune[.chaos].current.json`, and an
/// `--out` naming the baseline is refused.
///
/// Everything is simulated-deterministic: re-running produces the same
/// files byte for byte, so the committed baselines only change when the
/// pipeline's behaviour does.
pub(crate) fn headline(args: &[String]) -> ExitCode {
    let (mut chaos, mut out, mut check_path) = (false, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--chaos" => {
                chaos = true;
                continue;
            }
            "--out" => Some(&mut out),
            "--check" => Some(&mut check_path),
            _ => None,
        };
        let (Some(slot), Some(path)) = (slot, it.next()) else {
            eprintln!("usage: pipetune-bench headline [--chaos] [--out PATH] [--check BASELINE]");
            return ExitCode::FAILURE;
        };
        *slot = Some(path.as_str());
    }
    let label = if chaos { "bench_chaos" } else { "bench_headline" };
    let fail = |why: String| {
        eprintln!("{label}: {why}");
        ExitCode::FAILURE
    };
    let mut baseline = None;
    if let Some(path) = check_path {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        match text.and_then(|text| BenchReport::from_json_str(&text).map_err(|e| e.to_string())) {
            Ok(report) => baseline = Some((path, report)),
            Err(e) => return fail(format!("cannot load baseline {path}: {e}")),
        }
    }
    let stem = if chaos { "BENCH_pipetune.chaos" } else { "BENCH_pipetune" };
    let current = if check_path.is_some() { ".current" } else { "" };
    let out = out.map_or_else(|| format!("{stem}{current}.json"), String::from);
    if check_path == Some(out.as_str()) {
        return fail(format!("--out {out} would write over the baseline"));
    }

    let report = match headline_report(chaos, label, &out) {
        Ok(report) => report,
        Err(why) => return fail(why),
    };

    if let Some((path, baseline)) = baseline {
        let config =
            if chaos { GateConfig::chaos_defaults() } else { GateConfig::headline_defaults() };
        let outcome = check(&baseline, &report, &config);
        print!("{}", outcome.render());
        if !outcome.passed() {
            eprintln!("{label}: regression vs {path}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// The headline report, written to `out`; an error is the line printed
/// after the label.
fn headline_report(chaos: bool, label: &str, out: &str) -> Result<BenchReport, String> {
    let mut report = BenchReport { label: label.into(), ..Default::default() };
    if !chaos {
        single_tenancy(&mut report.metrics, label).map_err(|e| e.to_string())?;
    }
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::lstm_news20()];
    let mut arrivals = PoissonArrivals::new(SERVICE_RATE, SEED);
    let submissions: Vec<JobSubmission> = (0..SERVICE_JOBS)
        .map(|i| JobSubmission::new(arrivals.next_arrival().as_secs_f64(), specs[i % specs.len()]))
        .collect();
    for policy in SchedulingPolicy::ALL {
        eprintln!("{label}: running {SERVICE_JOBS}-job service stream ({})...", policy.name());
        let timeline = service_stream(&mut report.metrics, policy, chaos, &submissions)
            .map_err(|e| e.to_string())?;
        // The incident timeline of a chaos stream (sorted keys:
        // byte-identical across reruns).
        if let Some(timeline) = timeline {
            let path = format!("target/incidents.{}.json", policy.name());
            let _ = std::fs::create_dir_all("target");
            std::fs::write(&path, format!("{}\n", timeline.to_json_string()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{label}: {} incident(s) under {} -> {path}", timeline.len(), policy.name());
        }
    }
    std::fs::write(out, format!("{}\n", report.to_json_string()))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("{label}: wrote {} metrics to {out}", report.metrics.len());
    Ok(report)
}

/// The trace of `run` in a fresh environment under live telemetry.
fn traced(
    run: impl FnOnce(&ExperimentEnv) -> harness::Result<TuningOutcome>,
) -> harness::Result<TelemetrySnapshot> {
    let telemetry = TelemetryHandle::enabled();
    run(&ExperimentEnvBuilder::distributed(SEED).telemetry(telemetry.clone()).build()?)?;
    telemetry.snapshot().ok_or_else(|| missing("trace of an enabled handle"))
}

/// The single-tenancy headline, then the epoch-reuse cache headline, for
/// both headline workloads.
fn single_tenancy(metrics: &mut BTreeMap<String, f64>, label: &str) -> harness::Result<()> {
    let options = TunerOptions::fast();
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::lstm_news20()];
    for spec in &specs {
        eprintln!("{label}: running {} (TuneV1, TuneV2, PipeTune)...", spec.name());
        let v1 = traced(|env| TuneV1::new(options).run(env, spec))?;
        let v2 = traced(|env| TuneV2::new(options).run(env, spec))?;
        let pt = traced(|env| warm_pipetune(env, spec, &options))?;
        metrics.extend(headline_metrics(&spec.name().replace('/', "_"), &v1, &v2, &pt));
    }
    // A cold PipeTune run fills a shared cache, then an identical rerun
    // adopts its prefixes. The warm rerun must reproduce the cold result
    // exactly — only faster — and `cache.{workload}.warm_speedup` is the
    // gated metric.
    for spec in &specs {
        eprintln!("{label}: running {} (cold/warm epoch cache)...", spec.name());
        let cache = EpochCacheHandle::with_config(EpochCacheConfig::default());
        let env = ExperimentEnvBuilder::distributed(SEED).epoch_cache(cache).build()?;
        let cold = PipeTune::new(options).run(&env, spec)?;
        let warm = PipeTune::new(options).run(&env, spec)?;
        if warm.best_accuracy.to_bits() != cold.best_accuracy.to_bits() {
            return Err(PipeTuneError::InvalidConfig {
                reason: "warm cache rerun must reproduce the cold result".into(),
            });
        }
        metrics.extend(cache_speedup_metrics(
            &spec.name().replace('/', "_"),
            cold.tuning_secs,
            warm.tuning_secs,
            warm.cache_stats.saved_secs,
        ));
    }
    Ok(())
}

/// One multi-tenant stream under `policy`: its metrics, and under `chaos`
/// (faults, a deadline, the live monitor) the monitor's incident timeline.
/// Clean streams stay uninstrumented, keeping `BENCH_pipetune.json`
/// byte-identical to monitor-less builds.
fn service_stream(
    metrics: &mut BTreeMap<String, f64>,
    policy: SchedulingPolicy,
    chaos: bool,
    submissions: &[JobSubmission],
) -> harness::Result<Option<IncidentTimeline>> {
    let mut env = ExperimentEnvBuilder::distributed(SEED);
    let mut config = ServiceConfig::default().with_policy(policy);
    let mut watch = None;
    if chaos {
        config = config
            .with_service_faults(ServiceFaultPlan::mixed(SEED))
            .with_deadline(CHAOS_DEADLINE_SECS);
        let telemetry = TelemetryHandle::enabled();
        let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
        env = env.telemetry(telemetry.clone()).monitor(monitor.clone());
        watch = Some((telemetry, monitor));
    }
    let outcome =
        TuningService::new(config).run(&env.build()?, submissions, &TunerOptions::fast())?;
    let prefix = format!("multitenant.{}", policy.name());
    let responses: Vec<f64> = outcome.jobs.iter().map(|r| r.response_secs).collect();
    metrics.extend(multitenant_metrics(&prefix, &responses));
    metrics.insert(format!("{prefix}.makespan_secs"), outcome.makespan_secs);
    let Some((telemetry, monitor)) = watch else { return Ok(None) };
    let completed = outcome.jobs.iter().filter(|r| r.status == JobOutcome::Completed).count();
    metrics.extend(service_fault_metrics(
        &prefix,
        &outcome.service_fault_report,
        outcome.jobs.len(),
        completed,
    ));
    let timeline = monitor.finish(&telemetry).ok_or_else(|| missing("live monitor"))?;
    metrics.insert(format!("{prefix}.monitor.alerts_total"), timeline.len() as f64);
    for detector in ["stall", "crash_loop", "slo_burn", "cache_thrash", "queue_growth"] {
        metrics.insert(format!("{prefix}.monitor.{detector}"), timeline.count_for(detector) as f64);
    }
    Ok(Some(timeline))
}

// ------------------------------------------------------------------- trace

/// `pipetune-bench trace`: offline analysis of a trace exported by
/// [`TelemetrySnapshot::to_json_string`] — its critical-path `report`, the
/// `diff` of two, `validate` of the span tree, and `watch`, which replays
/// the monitor's full detector set over it and prints the incident
/// timeline a live run of the same trace produced, byte for byte (see
/// `docs/monitoring.md`). Every answer is a pure function of the trace, so
/// it does not depend on how many executor workers recorded it.
pub(crate) fn trace(args: &[String]) -> ExitCode {
    analyse(args).err().unwrap_or(ExitCode::SUCCESS)
}

fn invalid(e: TraceError) -> ExitCode {
    eprintln!("pipetune-trace: {e}");
    ExitCode::from(2)
}

/// The trace at `path`: exit 1 when it cannot be read, 2 when it does not parse.
fn load(path: &str) -> Result<TelemetrySnapshot, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("pipetune-trace: cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    TelemetrySnapshot::from_json_str(&text).map_err(|e| {
        eprintln!("pipetune-trace: {path}: {e}");
        ExitCode::from(2)
    })
}

fn analyse(args: &[String]) -> Result<(), ExitCode> {
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["report", path] => {
            print!("{}", TraceReport::from_snapshot(&load(path)?).map_err(invalid)?.render())
        }
        ["diff", a, b] => {
            let (a, b) = (load(a)?, load(b)?);
            print!("{}", TraceDiff::between(&a, &b).map_err(invalid)?.render());
        }
        ["watch", path] => {
            let snap = load(path)?;
            snap.validate().map_err(invalid)?;
            let mut engine = MonitorEngine::new(&MonitorConfig::standard());
            engine.observe_snapshot(&snap);
            let timeline = engine.finish(&snap.metrics);
            println!("{}", timeline.to_json_string());
            eprintln!(
                "pipetune-trace: {} alert(s) over {} spans, {} events",
                timeline.len(),
                snap.spans.len(),
                snap.events.len()
            );
        }
        ["validate", path] => {
            let snap = load(path)?;
            snap.validate().map_err(invalid)?;
            let (spans, events) = (snap.spans.len(), snap.events.len());
            println!("{path}: valid trace ({spans} spans, {events} events)");
        }
        _ => {
            eprintln!(
                "usage: pipetune-bench trace <report|diff|validate|watch> <trace.json> [b.json]"
            );
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}
