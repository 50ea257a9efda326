//! Probes of the middleware layers: `search`, `core`, `clustering`,
//! `perfmon`, `cluster`, `energy` and `service`.

use std::collections::HashMap;

use pipetune::prelude::*;
use pipetune::{
    EpochWorkload, GroundTruth, HyperParams, HyperSpace, ProbeGoal, SystemTuner, TrialExecution,
};
use pipetune_cluster::{FaultPlan, ServiceFaultPlan, SlotPool, SystemConfig};
use pipetune_clustering::KMeans;
use pipetune_search::{HyperBand, TrialId, TrialReport, TrialScheduler};
use pipetune_service::{PolicyEngine, SchedulingPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{span_total, Effort, Ledger};
use crate::common::{base_env, subseed, timed, BenchResult, PassOutput};
use crate::span::{Layer, Tracer};
use crate::stats::median;
use crate::workloads::reuse_persist::ReusePersist;
use crate::workloads::shortepoch_stream::{run_stream, stream_options, submissions, Planes};
use crate::workloads::Workload;

/// A HyperBand job driven from the benchmark through nothing but public
/// API, a span around every call: scheduler, workload instantiation, trial
/// epochs, accuracy, ground truth. The null payload (a small Jacobi grid)
/// leaves the middleware's own cost in plain sight. Returns how many trials
/// the job instantiated.
fn bench_driven_job(seed: u64, options: &TunerOptions, tr: &mut Tracer) -> BenchResult<u64> {
    let env = base_env(seed).build()?;
    let spec = WorkloadSpec::jacobi().with_scale(options.scale);
    let space = HyperSpace::paper(options.epochs_range);
    let mut scheduler = HyperBand::new(space, options.r_max, options.eta, subseed(seed, 0x5C));
    let mut ground_truth = GroundTruth::paper_default(seed);
    let mut trials: HashMap<TrialId, (TrialExecution, StdRng)> = HashMap::new();
    let mut fresh = 0u64;
    while !scheduler.is_finished() {
        let requests = tr.call(Layer::Search, "search.next_trials", || {
            scheduler.next_trials()
        });
        for request in requests {
            let (mut trial, mut rng) = match trials.remove(&request.id) {
                Some(slot) => slot,
                None => {
                    fresh += 1;
                    let hp = HyperParams::from_config(&request.config);
                    let instance = spec.instantiate(&hp, env.subseed(request.id.0))?;
                    let trial =
                        TrialExecution::new(instance, SystemTuner::pipelined(ProbeGoal::Runtime))
                            .with_trial_id(request.id.0);
                    (trial, StdRng::seed_from_u64(subseed(seed, request.id.0)))
                }
            };
            tr.call(Layer::Core, "core.run_epochs", || {
                trial.run_epochs(&env, request.epochs, Some(&mut ground_truth), 1.0, &mut rng)
            })?;
            let accuracy = tr.call(Layer::Core, "core.accuracy", || trial.accuracy())?;
            let report = TrialReport {
                id: request.id,
                score: f64::from(accuracy),
                epochs_run: request.epochs,
            };
            tr.call(Layer::Search, "search.report", || scheduler.report(report));
            trials.insert(request.id, (trial, rng));
        }
    }
    Ok(fresh)
}

/// What one null-payload job costs under one tuner profile.
struct JobCosts {
    next_trials_s: f64,
    report_s: f64,
    /// Scheduler time of the whole job.
    search_job_s: f64,
    /// Trials the job instantiates.
    fresh_trials: u64,
    /// A stand-alone `PipeTune::run`, and the same minus its kernel epochs.
    tuner_run_s: f64,
    null_job_s: f64,
    groundtruth_hit_ratio: f64,
}

fn job_costs(seed: u64, effort: Effort, options: &TunerOptions) -> BenchResult<JobCosts> {
    // Per job: seconds and calls of `next_trials`, of `report`, and trials.
    let mut jobs: Vec<[f64; 5]> = Vec::new();
    for rep in 0..effort.batches {
        let mut tr = Tracer::new(true);
        let fresh = bench_driven_job(subseed(seed, rep as u64), options, &mut tr)?;
        let (next_s, next_n) = span_total(&tr, "search.next_trials");
        let (report_s, report_n) = span_total(&tr, "search.report");
        jobs.push([
            next_s,
            next_n as f64,
            report_s,
            report_n as f64,
            fresh as f64,
        ]);
    }
    let col = |f: fn(&[f64; 5]) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());

    // Stand-alone `PipeTune::run` calls, one tuner, so later jobs find the
    // earlier ones' ground truth.
    let env = base_env(seed).build()?;
    let specs = [WorkloadSpec::jacobi(), WorkloadSpec::hotspot()];
    let mut kernel_epoch_s = [0.0; 2];
    for (spec, secs) in specs.iter().zip(&mut kernel_epoch_s) {
        let mut instance = spec
            .with_scale(options.scale)
            .instantiate(&HyperParams::default(), seed)?;
        *secs = effort.per_call(2000, || instance.run_epoch());
    }
    let mut tuner = PipeTune::new(*options);
    let (mut runs, mut nulls) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0usize, 0usize);
    for i in 0..(4 * effort.batches) {
        let spec = specs[i % specs.len()];
        let (secs, outcome) = timed(|| tuner.run(&env, &spec));
        let outcome = outcome?;
        runs.push(secs);
        nulls.push(secs - outcome.epochs_total as f64 * kernel_epoch_s[i % specs.len()]);
        hits += outcome.gt_stats.hits;
        lookups += outcome.gt_stats.hits + outcome.gt_stats.misses;
    }
    Ok(JobCosts {
        next_trials_s: col(|j| j[0] / j[1].max(1.0)),
        report_s: col(|j| j[2] / j[3].max(1.0)),
        search_job_s: col(|j| j[0]) + col(|j| j[2]),
        fresh_trials: jobs[0][4] as u64,
        tuner_run_s: median(&runs),
        null_job_s: median(&nulls).max(0.0),
        groundtruth_hit_ratio: hits as f64 / lookups.max(1) as f64,
    })
}

/// The scheduler, a trial's instantiation and per-epoch overhead, and a
/// whole stand-alone job. The metrics describe the stream workload's
/// profile whatever workload is traced; the unit costs a traced pass splits
/// its composite calls with are measured under `options`, its own profile.
fn probe_search_and_trial(
    seed: u64,
    effort: Effort,
    options: &TunerOptions,
    ledger: &mut Ledger,
) -> BenchResult<()> {
    let reference = stream_options(effort.size);
    let costs = job_costs(seed, effort, &reference)?;
    let m = &mut ledger.metrics;
    m.insert("search.next_trials_us", costs.next_trials_s * 1e6);
    m.insert("search.report_us", costs.report_s * 1e6);
    m.insert("search.trials", costs.fresh_trials as f64);
    m.insert("core.tuner_run_ms", costs.tuner_run_s * 1e3);
    m.insert("core.groundtruth.hit_ratio", costs.groundtruth_hit_ratio);
    let own = if *options == reference {
        costs
    } else {
        job_costs(seed, effort, options)?
    };
    ledger.units.search_job_s = own.search_job_s;
    ledger.units.fresh_trials = own.fresh_trials;
    ledger.units.null_job_s = own.null_job_s;

    // Building a trial's instance — its dataset and its model — for the
    // DNN workloads at their full per-trial size.
    let specs = WorkloadSpec::all_type12();
    let instantiate: f64 = specs
        .iter()
        .map(|spec| effort.per_call(4, || spec.instantiate(&HyperParams::default(), seed)))
        .sum();
    let m = &mut ledger.metrics;
    m.insert(
        "core.instantiate_ms",
        instantiate / specs.len() as f64 * 1e3,
    );

    // What a trial adds to an epoch: `run_epochs(1)` against the workload's
    // own `run_epoch` on an identical instance.
    let env = base_env(seed).build()?;
    let spec = WorkloadSpec::jacobi().with_scale(0.2);
    let mut direct = spec.instantiate(&HyperParams::default(), seed)?;
    let mut trial = TrialExecution::new(
        spec.instantiate(&HyperParams::default(), seed)?,
        SystemTuner::pipelined(ProbeGoal::Runtime),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let own = effort.per_call(2000, || direct.run_epoch());
    let through_trial = effort.per_call(2000, || trial.run_epochs(&env, 1, None, 1.0, &mut rng));
    m.insert(
        "core.trial_epoch_overhead_us",
        (through_trial - own).max(0.0) * 1e6,
    );
    Ok(())
}

/// Ground-truth operations and the clustering beneath them, on profiles
/// the profiler really produced (58 features each).
fn probe_groundtruth(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    let env = base_env(seed).build()?;
    let mut rng = StdRng::seed_from_u64(subseed(seed, 0x67));
    let instances = [
        WorkloadSpec::jacobi()
            .with_scale(0.2)
            .instantiate(&HyperParams::default(), seed)?,
        WorkloadSpec::hotspot()
            .with_scale(0.2)
            .instantiate(&HyperParams::default(), seed)?,
        WorkloadSpec::lenet_mnist()
            .with_scale(0.2)
            .instantiate(&HyperParams::default(), seed)?,
    ];
    let signatures: Vec<_> = instances.iter().map(EpochWorkload::signature).collect();
    let profile = |i: usize, rng: &mut StdRng| {
        env.profiler.profile_epoch(
            &signatures[i % signatures.len()],
            4 + 4 * (i % 3) as u32,
            30.0,
            rng,
        )
    };
    let m = &mut ledger.metrics;
    m.insert(
        "perfmon.profile_epoch_us",
        effort.per_call(2000, || profile(0, &mut rng)) * 1e6,
    );

    let n = effort.size.pick(1000, 100);
    let profiles: Vec<Vec<f64>> = (0..n).map(|i| profile(i, &mut rng).features()).collect();
    let mut fits = 0.0;
    let mut predict = 0.0;
    for take in [100usize.min(n), n] {
        let data = &profiles[..take];
        fits += effort.per_call(8, || KMeans::new(2).fit(data, seed));
        let model = KMeans::new(2).fit(data, seed)?;
        predict = effort.per_call(4000, || model.predict(&profiles[take / 2]));
    }
    m.insert("clustering.kmeans_fit_ms", fits * 1e3);
    m.insert("clustering.predict_us", predict * 1e6);

    let mut gt = GroundTruth::paper_default(seed);
    let best = SystemConfig::new(8, 16);
    let records = 200.min(n);
    let (record_s, recorded) = timed(|| {
        profiles
            .iter()
            .take(records)
            .try_for_each(|f| gt.record("probe", f, best, 1.0))
    });
    recorded?;
    m.insert(
        "core.groundtruth.record_us",
        record_s / records as f64 * 1e6,
    );
    m.insert(
        "core.groundtruth.refit_ms",
        effort.per_call(8, || gt.refit()) * 1e3,
    );
    m.insert(
        "core.groundtruth.lookup_us",
        effort.per_call(4000, || gt.lookup(&profiles[profiles.len() / 2])) * 1e6,
    );
    Ok(())
}

/// Cost model, fault draws, slot leases and the power model.
fn probe_cluster_energy(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    let env = base_env(seed).build()?;
    let instance = WorkloadSpec::lenet_mnist()
        .with_scale(0.2)
        .instantiate(&HyperParams::default(), seed)?;
    let work = instance.work_units();
    let sys = SystemConfig::new(8, 16);
    let calls = 200_000;
    let m = &mut ledger.metrics;
    let mut i = 0u32;
    m.insert(
        "cluster.epoch_duration_ns",
        effort.per_call(calls, || {
            i = i.wrapping_add(1);
            env.cost
                .epoch_duration(&work, &sys, 1.0 + f64::from(i % 4) * 0.1)
        }) * 1e9,
    );
    let plan = FaultPlan::mixed(seed);
    let service_plan = ServiceFaultPlan::mixed(seed);
    let mut t = 0u64;
    m.insert(
        "cluster.fault_draw_ns",
        effort.per_call(calls, || {
            t += 1;
            (
                plan.at_epoch(t, (t % 27) as u32, 0),
                service_plan.churn_at(t),
                service_plan.crash_at(t, 0),
            )
        }) * 1e9
            / 3.0,
    );
    let mut pool = SlotPool::new(16);
    m.insert(
        "cluster.slot_lease_ns",
        effort.per_call(calls, || {
            pool.lease(4).and_then(|lease| pool.release(lease))
        }) * 1e9
            / 2.0,
    );
    let mut c = 0u32;
    m.insert(
        "energy.energy_joules_ns",
        effort.per_call(calls, || {
            c = c.wrapping_add(1);
            env.power.energy_joules(4 + c % 13, 0.8, 31.5)
        }) * 1e9,
    );
    Ok(())
}

/// The service: streams under each policy, what dispatching adds to the
/// same jobs run stand-alone, the planes' price, and the policy engine's
/// event loop.
fn probe_service(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    let options = stream_options(effort.size);
    let jobs = effort.size.pick(60, 12);
    let subs = submissions(subseed(seed, 0x5E), jobs);
    let stream_secs = |policy, chaos, planes| -> BenchResult<f64> {
        let samples = (0..3)
            .map(|_| {
                let (secs, run) =
                    timed(|| run_stream(seed, &subs, policy, chaos, planes, &options));
                run.map(|_| secs)
            })
            .collect::<BenchResult<Vec<f64>>>()?;
        Ok(median(&samples))
    };
    let (mut planes_on, mut planes_off) = (Vec::new(), Vec::new());
    for (policy, metric) in [
        (SchedulingPolicy::Fifo, "service.run_ms.fifo"),
        (
            SchedulingPolicy::ProcessorSharing,
            "service.run_ms.processor_sharing",
        ),
        (
            SchedulingPolicy::ShortestRemainingService,
            "service.run_ms.shortest_remaining",
        ),
    ] {
        let on = stream_secs(policy, false, Planes::On)?;
        ledger.metrics.insert(metric, on * 1e3);
        planes_on.push(on);
        planes_off.push(stream_secs(policy, false, Planes::Off)?);
    }
    ledger.metrics.insert(
        "service.planes_overhead_ratio",
        median(&planes_on) / median(&planes_off),
    );
    // Stream time minus the same jobs run stand-alone, per job. The
    // stand-alone cost is the null-job probe's, kernel epochs included, so
    // the difference is what queueing, slot leasing and policy events add;
    // it can come out below zero when they cost less than the probes'
    // run-to-run noise.
    let standalone = ledger
        .metrics
        .get("core.tuner_run_ms")
        .copied()
        .unwrap_or(0.0)
        * 1e-3;
    ledger.metrics.insert(
        "service.dispatch_us_per_job",
        (median(&planes_off) / jobs as f64 - standalone) * 1e6,
    );

    // One chaos stream: how many submissions complete, how many attempts
    // crash and are resubmitted.
    let chaos = run_stream(
        seed,
        &subs,
        SchedulingPolicy::Fifo,
        true,
        Planes::Off,
        &options,
    )?;
    let completed = chaos
        .outcome
        .jobs
        .iter()
        .filter(|r| r.status == pipetune_service::JobOutcome::Completed)
        .count();
    ledger
        .metrics
        .insert("service.completed_ratio", completed as f64 / jobs as f64);
    ledger.metrics.insert(
        "service.resubmissions",
        chaos.outcome.service_fault_report.resubmissions as f64,
    );

    // The policy engine alone: a stable queue (four servers, one arrival a
    // minute, two to three minutes of service each).
    let n = effort.size.pick(10_000, 1_000);
    let mut per_event = Vec::new();
    for policy in SchedulingPolicy::ALL {
        let (secs, events) = timed(|| {
            let mut engine = PolicyEngine::new(policy, 4);
            let mut events = 0usize;
            for job in 0..n {
                events += engine.advance_events_to(job as f64 * 60.0).len();
                engine.insert(job, 120.0 + (job % 61) as f64);
                events += 1;
            }
            events + engine.drain().len()
        });
        per_event.push(secs / events as f64);
    }
    ledger
        .metrics
        .insert("service.engine_event_us", median(&per_event) * 1e6);
    Ok(())
}

/// The epoch cache and the ground-truth store: one cold fill and one cycle
/// of the `reuse_persist` workload, plus the same cold job with the cache
/// off and a small job at one and at two workers.
fn probe_cache(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    let mut checks = PassOutput::default();
    let mut workload = ReusePersist::setup(seed, effort.size, &mut checks)?;
    let out = workload.pass(0, &mut Tracer::new(false), None)?;
    if checks.failed + out.failed > 0 {
        return Err(format!("cache probe: {:?} {:?}", checks.failures, out.failures).into());
    }
    let (hits, misses) = (
        out.sample_mean("cache_hits"),
        out.sample_mean("cache_misses"),
    );
    let m = &mut ledger.metrics;
    m.insert("core.cache.hit_ratio", hits / (hits + misses).max(1.0));
    m.insert("core.cache.evictions", out.sample_mean("cache_evictions"));
    m.insert("core.cache.save_ms", out.sample_mean("cache_save_s") * 1e3);
    m.insert("core.cache.load_ms", out.sample_mean("cache_load_s") * 1e3);
    m.insert("core.cache.file_mb", out.sample_mean("cache_file_mb"));
    m.insert(
        "core.groundtruth.save_ms",
        out.sample_mean("gt_save_s") * 1e3,
    );
    m.insert(
        "core.groundtruth.load_ms",
        out.sample_mean("gt_load_s") * 1e3,
    );
    m.insert(
        "core.cache.warm_over_cold",
        out.sample_mean("warm_s") / out.sample_mean("cold_s"),
    );
    m.insert(
        "core.persist_mb_per_s",
        out.sample_mean("persist_mb") / out.sample_mean("persist_s"),
    );

    let env = base_env(seed).build()?;
    let (cold_off, outcome) =
        timed(|| PipeTune::new(workload.options()).run(&env, &workload.filled()));
    outcome?;
    m.insert(
        "core.cache.cold_overhead_ratio",
        out.sample_mean("cold_s") / cold_off,
    );

    // Informational only: two threads on this host spread by a quarter.
    let run = |workers: usize| -> BenchResult<f64> {
        let env = base_env(seed).workers(workers).build()?;
        let (secs, outcome) =
            timed(|| PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()));
        outcome?;
        Ok(secs)
    };
    let (one, two) = (run(1)?, run(2)?);
    m.insert("core.runner.w2_speedup", one / two);
    Ok(())
}

pub(super) fn probe(
    seed: u64,
    effort: Effort,
    options: &TunerOptions,
    ledger: &mut Ledger,
) -> BenchResult<()> {
    probe_search_and_trial(seed, effort, options, ledger)?;
    probe_groundtruth(seed, effort, ledger)?;
    probe_cluster_energy(seed, effort, ledger)?;
    probe_service(seed, effort, ledger)?;
    probe_cache(seed, effort, ledger)
}
