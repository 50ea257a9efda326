//! Beyond the paper's figures: ablations of PipeTune's design choices and
//! extensions the paper names as future work.

use std::fmt::Display;

use pipetune::prelude::*;
use pipetune::{
    multi_tenancy, multi_tenancy_shared, warm_start_ground_truth, EpochWorkload,
    MultiTenancyOptions, ProbeGoal, SimilarityKind,
};
use pipetune_clustering::select_k;
use pipetune_perfmon::{decorrelated_events, Profiler, WorkloadSignature};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{kj, named, pct, percent, secs, warm_pipetune, Ctx, Outcome, Result};

/// Ablation: ground-truth reuse on/off.
///
/// PipeTune with a warm similarity model vs. PipeTune forced to probe every
/// job from scratch (cold ground truth, never carried across jobs). The gap
/// is the value of §5.4's history sharing.
pub(crate) fn ablation_groundtruth(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();
    let spec = WorkloadSpec::lenet_mnist();
    let env = ExperimentEnvBuilder::distributed(400).build()?;
    let jobs = 3;
    let tune = |tuner: &mut PipeTune| -> Result<f64> { Ok(tuner.run(&env, &spec)?.tuning_secs) };

    // Warm: shared ground truth bootstrapped from the §7.2 campaign.
    let gt = warm_start_ground_truth(&env, &WorkloadSpec::all_type12(), &options)?;
    let mut warm = PipeTune::with_ground_truth(options, gt);
    let warm_total = (0..jobs).map(|_| tune(&mut warm)).sum::<Result<f64>>()?;

    // Cold: a fresh tuner per job — every job profiles and probes anew.
    let cold_total = (0..jobs).map(|_| tune(&mut PipeTune::new(options))).sum::<Result<f64>>()?;

    // Shared-but-initially-empty: the ground truth builds up over the jobs.
    let mut building = PipeTune::new(options);
    let building_each = (0..jobs).map(|_| tune(&mut building)).collect::<Result<Vec<f64>>>()?;
    let building_total: f64 = building_each.iter().sum();

    let vs_cold = |total: f64| format!("{:+.1}%", pct(total, cold_total));
    out.table(
        &["variant", "total tuning (3 jobs)", "vs cold"],
        &[
            vec!["cold (probe every job)".into(), secs(cold_total), "0.0%".into()],
            vec!["shared, built online".into(), secs(building_total), vs_cold(building_total)],
            vec!["warm-started".into(), secs(warm_total), vs_cold(warm_total)],
        ],
    );
    out.line(&format!(
        "\nonline build per-job trend: {:?} (later jobs benefit from earlier probes)",
        building_each.iter().map(|s| format!("{s:.0}s")).collect::<Vec<_>>()
    ));
    out.json("totals", [("cold", cold_total), ("online", building_total), ("warm", warm_total)])?;
    out.claim(warm_total <= cold_total, "warm ground truth must not be slower than cold");
    out.claim(building_total <= cold_total * 1.02, "online sharing must roughly amortise probing");
    Ok(out)
}

/// Where the PipeTune job a sweep measures starts from.
#[derive(Clone, Copy)]
enum Start {
    /// The §7.2 warm-started ground truth.
    Warm,
    /// Cold, as the second of two jobs: the first probes — its choices are
    /// what the knob decides — and the second reuses what it recorded.
    SecondOfTwoCold,
}

/// The one-knob sweep: for each variant a fresh distributed environment at
/// `seed` and the scale's options, both adjusted by `set`, then one measured
/// PipeTune job on `spec`.
fn sweep<V>(
    ctx: &Ctx,
    (seed, spec, start): (u64, WorkloadSpec, Start),
    variants: impl IntoIterator<Item = V>,
    set: impl Fn(&V, &mut TunerOptions, &mut ExperimentEnv),
) -> Result<Vec<(V, TuningOutcome)>> {
    let measure = |variant: V| -> Result<(V, TuningOutcome)> {
        let mut options = ctx.options();
        let mut env = ExperimentEnvBuilder::distributed(seed).build()?;
        set(&variant, &mut options, &mut env);
        let measured = match start {
            Start::Warm => warm_pipetune(&env, &spec, &options)?,
            Start::SecondOfTwoCold => {
                let mut tuner = PipeTune::new(options);
                tuner.run(&env, &spec)?;
                tuner.run(&env, &spec)?
            }
        };
        Ok((variant, measured))
    };
    variants.into_iter().map(measure).collect()
}

/// The table and series of an ablation of how the ground truth is
/// consulted: hits, misses, tuning time and accuracy per variant of `knob`.
fn reuse_table<L: Display + Copy>(
    out: &mut Outcome,
    knob: &str,
    runs: impl IntoIterator<Item = (L, TuningOutcome)>,
) -> Vec<(L, usize, usize, f64)> {
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (label, o) in runs {
        let (hits, misses) = (o.gt_stats.hits, o.gt_stats.misses);
        let (tuning, accuracy) = (secs(o.tuning_secs), percent(o.best_accuracy));
        rows.push(vec![label.to_string(), hits.to_string(), misses.to_string(), tuning, accuracy]);
        series.push((label, hits, misses, o.tuning_secs));
    }
    out.table(&[knob, "hits", "misses", "tuning", "accuracy"], &rows);
    series
}

/// Ablation: similarity-threshold sensitivity.
///
/// Sweeps the confidence threshold factor (§5.6): too tight and every job
/// probes (no reuse), too loose and dissimilar jobs reuse configurations
/// tuned for someone else.
pub(crate) fn ablation_threshold(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let factors = [0.0f64, 0.5, 1.0, 3.0, 10.0, 100.0];
    let campaign = (410, WorkloadSpec::cnn_news20(), Start::Warm);
    let runs =
        sweep(ctx, campaign, factors, |factor, options, _| options.threshold_factor = *factor)?;
    let series = reuse_table(&mut out, "threshold", runs);
    out.line("\nthreshold 0 disables reuse (all misses); large thresholds accept everything.");
    out.json("series", &series)?;
    let (zero, loose) = (series[0], series[series.len() - 1]);
    out.claim(zero.1 == 0, "zero threshold must never hit");
    out.claim(loose.1 > 0, "loose threshold must hit");
    out.claim(loose.3 <= zero.3, "reuse should not be slower than probe-always here");
    Ok(out)
}

/// Ablation: pluggable similarity functions (§5.4).
///
/// The paper fixes k-means (k = 2) but stresses that scikit-learn's other
/// clusterers plug in. This compares k-means against DBSCAN as the
/// ground-truth gate, on the same warm-started history and workload.
pub(crate) fn ablation_similarity(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let kinds = [
        ("kmeans k=2", SimilarityKind::KMeans { k: 2 }),
        ("kmeans k=4", SimilarityKind::KMeans { k: 4 }),
        ("dbscan", SimilarityKind::Dbscan { min_points: 4, eps_factor: 3.0 }),
    ];
    let campaign = (450, WorkloadSpec::lenet_mnist(), Start::Warm);
    let runs = sweep(ctx, campaign, kinds, |(_, kind), options, _| options.similarity = *kind)?;
    let series =
        reuse_table(&mut out, "similarity", runs.into_iter().map(|((name, _), o)| (name, o)));
    out.line(
        "\nthe gate is pluggable (§5.4): any function that recognises a family enables reuse.",
    );
    out.json("series", &series)?;
    // Both k-means variants and DBSCAN must enable reuse on a workload the
    // warm start has seen.
    for (name, hits, _, _) in series {
        out.claim(hits > 0, format!("{name} produced no reuse"));
    }
    Ok(out)
}

/// Ablation: pluggable trial schedulers (Fig. 7's hyperparameter-tuning
/// box). PipeTune's system-parameter pipeline is scheduler-agnostic; this
/// runs the same workload under every supported scheduler and compares the
/// accuracy/budget/time envelope.
pub(crate) fn ablation_scheduler(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let kinds = [
        SchedulerKind::HyperBand,
        SchedulerKind::Random { trials: 12 },
        SchedulerKind::Grid { per_param: 2 },
    ];
    let campaign = (440, WorkloadSpec::lenet_mnist(), Start::Warm);
    let runs = sweep(ctx, campaign, kinds, |kind, options, _| options.scheduler = *kind)?;
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (kind, o) in &runs {
        let name = kind.name();
        let epochs = o.epochs_total;
        rows.push(vec![
            name.into(),
            percent(o.best_accuracy),
            epochs.to_string(),
            secs(o.tuning_secs),
        ]);
        series.push((name, f64::from(o.best_accuracy), epochs, o.tuning_secs));
    }
    out.table(&["scheduler", "accuracy", "epochs issued", "tuning time"], &rows);
    out.line(
        "\nPipeTune's pipeline is scheduler-agnostic (§6): every algorithm completes with the\nsystem-parameter tuning riding along; HyperBand spends its budget on the most trials.",
    );
    out.json("series", &series)?;

    out.claim(
        series.iter().all(|(_, acc, epochs, secs)| *acc > 0.05 && *epochs > 0 && *secs > 0.0),
        "every scheduler must complete and produce a usable model",
    );
    // Grid with 2 points/param over 5 params = 32 trials × r_max epochs:
    // the most expensive, as Fig. 1 predicts.
    let (grid, hyperband) =
        (named(&series, |s| s.0, "grid")?, named(&series, |s| s.0, "hyperband")?);
    out.claim(grid.2 >= hyperband.2, "grid should spend at least as many epochs as HyperBand");
    Ok(out)
}

/// Ablation: probing optimisation function.
///
/// Algorithm 1 picks the configuration that best fits the optimisation
/// function — "e.g., shortest runtime, lowest energy consumption". This
/// ablation runs all three goals and shows the runtime/energy trade they
/// make.
pub(crate) fn ablation_probe_goal(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let goals = [
        ("runtime", ProbeGoal::Runtime),
        ("energy", ProbeGoal::Energy),
        ("energy-delay", ProbeGoal::EnergyDelay),
    ];
    // Cold tuner: probing (whose goal we ablate) decides the configs.
    let campaign = (420, WorkloadSpec::lenet_mnist(), Start::SecondOfTwoCold);
    let runs = sweep(ctx, campaign, goals, |(_, goal), options, _| options.probe_goal = *goal)?;
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for ((name, _), o) in &runs {
        let (time, energy) = (secs(o.tuning_secs), kj(o.tuning_energy_j));
        rows.push(vec![name.to_string(), time, energy, percent(o.best_accuracy)]);
        series.push((*name, o.tuning_secs, o.tuning_energy_j));
    }
    out.table(&["probe goal", "tuning time", "tuning energy", "accuracy"], &rows);
    out.json("series", &series)?;

    // The energy goal must not consume more energy than the runtime goal.
    let (runtime, energy) =
        (named(&series, |s| s.0, "runtime")?.2, named(&series, |s| s.0, "energy")?.2);
    out.claim(
        energy <= runtime * 1.05,
        format!("energy-goal probing should conserve energy: {energy} vs {runtime}"),
    );
    Ok(out)
}

/// Extension: CPU frequency as a third system parameter.
///
/// §7.1.4: "the same mechanisms can be applied to any other parameter of
/// interest (e.g., CPU frequency, CPU voltage)". This experiment enables
/// DVFS candidates in the system space and shows that energy-goal probing
/// discovers down-clocked configurations (dynamic power falls with f³ while
/// compute time only grows with 1/f), while runtime-goal probing sticks to
/// the nominal clock.
pub(crate) fn extension_frequency(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let variants = [
        ("runtime, no DVFS", ProbeGoal::Runtime, false),
        ("runtime, DVFS", ProbeGoal::Runtime, true),
        ("energy, DVFS", ProbeGoal::Energy, true),
        ("energy-delay, DVFS", ProbeGoal::EnergyDelay, true),
    ];
    // The first job's probes now include a frequency sweep.
    let campaign = (460, WorkloadSpec::lenet_mnist(), Start::SecondOfTwoCold);
    let runs = sweep(ctx, campaign, variants, |(_, goal, dvfs), options, env| {
        options.probe_goal = *goal;
        if *dvfs {
            env.system_space.freq_mhz = vec![1800, 2600, SystemConfig::NOMINAL_FREQ_MHZ];
        }
    })?;
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for ((name, _, _), o) in &runs {
        let (time, energy) = (secs(o.tuning_secs), kj(o.tuning_energy_j));
        rows.push(vec![name.to_string(), o.best_system.to_string(), time, energy]);
        series.push((*name, o.best_system.freq_mhz, o.tuning_secs, o.tuning_energy_j));
    }
    out.table(&["probe goal / DVFS", "chosen config", "tuning time", "tuning energy"], &rows);
    out.line("\nenergy-goal probing exploits the f**3 dynamic-power law; runtime probing keeps the clock high.");
    out.json("series", &series)?;

    let runtime = named(&series, |s| s.0, "runtime, DVFS")?;
    let energy = named(&series, |s| s.0, "energy, DVFS")?;
    out.claim(
        runtime.1 == SystemConfig::NOMINAL_FREQ_MHZ,
        "runtime goal should keep the nominal clock",
    );
    out.claim(
        energy.3 < runtime.3,
        format!("energy-goal DVFS should consume less energy: {} vs {}", energy.3, runtime.3),
    );
    Ok(out)
}

/// Ablation: profiling overhead.
///
/// §7.3 argues the per-epoch profiling cost is outweighed by the tuning
/// gains. This ablation sweeps the profiled-epoch overhead from 0 to 30 %
/// and finds where PipeTune's advantage over Tune V1 disappears.
pub(crate) fn ablation_profiling_overhead(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();
    let spec = WorkloadSpec::lenet_mnist();

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for overhead in [0.0f64, 0.02, 0.10, 0.30] {
        let env = ExperimentEnvBuilder::distributed(430).profile_overhead(overhead).build()?;
        let v1 = TuneV1::new(options).run(&env, &spec)?.tuning_secs;
        let pt = warm_pipetune(&env, &spec, &options)?.tuning_secs;
        let gain = -pct(pt, v1);
        rows.push(vec![
            format!("{:.0}%", overhead * 100.0),
            secs(pt),
            secs(v1),
            format!("{gain:+.1}%"),
        ]);
        series.push((overhead, pt, v1, gain));
    }
    out.table(&["profile overhead", "PipeTune tuning", "V1 tuning", "PipeTune gain"], &rows);
    out.line("\npaper §7.3: the profiling overhead is outweighed by the tuning gains.");
    out.json("series", &series)?;

    // At the paper's (small) overhead the gain must survive; gains shrink as
    // the overhead grows.
    out.claim(series[1].3 > 0.0, "PipeTune must win at 2% overhead");
    out.claim(series[0].3 >= series[3].3, format!("gains must not grow with overhead: {series:?}"));
    Ok(out)
}

/// Extension: FIFO queueing vs. processor-shared co-location.
///
/// The paper schedules HPT jobs FIFO (§5.1) but probes co-location effects
/// in Fig. 5. This experiment runs the same Poisson trace under both
/// regimes and compares average response times per approach — PipeTune's
/// shorter service times help in both, but sharing compresses the queueing
/// delay while stretching every job's wall time.
pub(crate) fn extension_shared_cluster(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();
    let specs = [WorkloadSpec::lenet_mnist(), WorkloadSpec::cnn_news20()];
    let jobs = if ctx.quick { 4 } else { 6 };
    let mt = MultiTenancyOptions { jobs, arrival_rate_per_sec: 1.0 / 3000.0, seed: 470 };

    let env = ExperimentEnvBuilder::distributed(470).build()?;
    let fifo = multi_tenancy(&env, &specs, &options, &mt)?;
    let shared = multi_tenancy_shared(&env, &specs, &options, &mt)?;

    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for o in &fifo {
        let (f, s) = (o.overall_secs, named(&shared, |o| o.approach, o.approach)?.overall_secs);
        rows.push(vec![o.approach.to_string(), secs(f), secs(s), format!("{:+.0}%", pct(s, f))]);
        gains.push((o.approach, f, s));
    }
    out.table(&["approach", "FIFO response", "shared response", "shared vs FIFO"], &rows);
    let (v1, pt) = (named(&gains, |g| g.0, "TuneV1")?, named(&gains, |g| g.0, "PipeTune")?);
    out.line(&format!(
        "\nPipeTune under sharing: {:.0}% vs V1 (FIFO: {:.0}%)",
        -pct(pt.2, v1.2),
        -pct(pt.1, v1.1)
    ));
    out.json("gains", &gains)?;
    // PipeTune must keep its advantage in both regimes.
    out.claim(pt.1 < v1.1, "FIFO advantage lost");
    out.claim(pt.2 < v1.2, "sharing advantage lost");
    Ok(out)
}

/// Extension: profiling through the full 1 Hz sampling pipeline.
///
/// §7.3: "Long epochs work in favor of PipeTune since low-overhead profiling
/// is performed across the first couple of epochs to classify new
/// workloads." With sample-level profiling enabled, short Type-III epochs
/// leave many of the 58 events unmeasured (blind spots), degrading profile
/// quality exactly as the paper warns — while the minutes-long Type-I epochs
/// are unaffected.
pub(crate) fn extension_sampling(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();

    // Part 1: measure the blind-spot rate directly per epoch length.
    let profiler = Profiler::default();
    let sig = WorkloadSignature {
        flops_per_epoch: 1e11,
        working_set_bytes: 3e9,
        memory_intensity: 0.5,
        branch_ratio: 0.1,
    };
    let mut rng = StdRng::seed_from_u64(480);
    let mut rows = Vec::new();
    let mut blind_by_len = Vec::new();
    for epoch_secs in [3.0f64, 10.0, 30.0, 120.0] {
        let trace = profiler.sample_epoch(&sig, 8, epoch_secs, &mut rng);
        let blind = trace.coverage().iter().filter(|&&c| c == 0.0).count();
        let windows = trace.windows().len().to_string();
        rows.push(vec![format!("{epoch_secs:.0} s"), windows, format!("{blind}/58")]);
        blind_by_len.push((epoch_secs, blind));
    }
    out.line("(a) blind spots vs epoch length (2 generic counters, 1 Hz)");
    out.table(&["epoch", "sample windows", "events never measured"], &rows);

    // Part 2: end-to-end — does PipeTune still reuse under sampled profiles?
    let mut rows2 = Vec::new();
    for (label, spec, testbed) in [
        (
            "lenet/mnist (long epochs)",
            WorkloadSpec::lenet_mnist(),
            ExperimentEnvBuilder::distributed(481),
        ),
        ("jacobi (short epochs)", WorkloadSpec::jacobi(), ExperimentEnvBuilder::single_node(481)),
    ] {
        let env = testbed.sampled_profiling(true).build()?;
        let gt = warm_start_ground_truth(&env, std::slice::from_ref(&spec), &options)?;
        let o = PipeTune::with_ground_truth(options, gt).run(&env, &spec)?;
        let (hits, misses) = (o.gt_stats.hits.to_string(), o.gt_stats.misses.to_string());
        rows2.push(vec![label.to_string(), hits, misses, percent(o.best_accuracy)]);
    }
    out.line("\n(b) PipeTune under sampled profiling");
    out.table(&["workload", "hits", "misses", "accuracy"], &rows2);
    out.json("blind_by_len", &blind_by_len)?;

    // Short epochs must leave more blind spots than long ones.
    let (shortest, longest) = (blind_by_len[0].1, blind_by_len[3].1);
    out.claim(
        shortest > longest,
        format!("blind spots should shrink with epoch length: {blind_by_len:?}"),
    );
    out.claim(longest == 0, "2-minute epochs cover everything");
    Ok(out)
}

/// Extension: choosing `k` with silhouette analysis, and the §5.3
/// correlated-event filter.
///
/// The paper fixes `k = 2` and leaves other values "for future work"
/// (§5.4); silhouette scores over the real warm-start profile history let
/// the data pick. It also states that highly correlated events are filtered
/// before profiling (§5.3); part (b) measures how much of the 58-event list
/// actually carries independent information.
pub(crate) fn extension_k_selection(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();
    let env = ExperimentEnvBuilder::distributed(490).build()?;
    let gt = warm_start_ground_truth(&env, &WorkloadSpec::all_type12(), &options)?;

    // (a) k selection by silhouette over the real profile history.
    let (best_k, scores) = select_k(&gt.feature_history(), &[2, 3, 4, 5, 6], env.subseed(0x4B))
        .map_err(PipeTuneError::from)?;
    let rows: Vec<Vec<String>> =
        scores.iter().map(|(k, s)| vec![k.to_string(), format!("{s:.3}")]).collect();
    out.line("(a) silhouette score per k over the §7.2 profile history");
    out.table(&["k", "silhouette"], &rows);
    out.line(&format!("best k = {best_k} (the paper's choice is k = 2)"));

    // (b) §5.3's correlation filter over the same history: rebuild epoch
    // profiles from fresh probes (features lost raw counts).
    let mut rng = StdRng::seed_from_u64(env.subseed(0x4C));
    let mut profiles = Vec::new();
    for spec in WorkloadSpec::all_type12() {
        let spec = spec.with_scale(options.scale);
        for (rep, batch_size) in [32, 64, 512, 1024].into_iter().enumerate() {
            let hp = HyperParams { batch_size, ..HyperParams::default() };
            let w = spec.instantiate(&hp, 600 + rep as u64)?;
            let cores = env.default_system.cores;
            let dur = env.cost.epoch_duration(&w.work_units(), &env.default_system, 1.0);
            profiles.push(env.profiler.profile_epoch(&w.signature(), cores, dur, &mut rng));
        }
    }
    let mut rows2 = Vec::new();
    for threshold in [0.99f64, 0.9, 0.7] {
        let kept = decorrelated_events(&profiles, threshold);
        rows2.push(vec![format!("{threshold}"), format!("{}/58", kept.len())]);
    }
    out.line("\n(b) events surviving the §5.3 correlation filter");
    out.table(&["|corr| threshold", "events kept"], &rows2);
    out.json("k_scores", &scores)?;

    // The two workload families are the dominant structure, so silhouette
    // must prefer a small k (the paper's k = 2 regime).
    out.claim(
        best_k <= 3,
        format!("silhouette picked k = {best_k}, expected the family structure"),
    );
    Ok(out)
}
