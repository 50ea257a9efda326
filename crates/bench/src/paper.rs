//! The paper's own evaluation: Tables 1–3 and Figs 1–14.

use pipetune::prelude::*;
use pipetune::{
    multi_tenancy, related_systems, run_arbitrary, single_tenancy, warm_start_ground_truth,
    ConvergencePoint, EpochWorkload, MultiTenancyOptions, SystemTuner, TrialExecution,
};
use pipetune_data::DATASET_META;
use pipetune_perfmon::{event_index, WorkloadSignature, EVENT_NAMES};
use pipetune_search::{GridSearch, ParamSpec, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{kj, missing, named, pct, percent, secs, Ctx, Outcome, Result, Trio};

/// Table 1: the state-of-the-art comparison matrix, reprinted from the
/// static data encoded in `pipetune::related`.
pub(crate) fn table1_related_matrix(_: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let tick = |b: bool| if b { "yes" } else { "no" }.to_string();
    let rows: Vec<Vec<String>> = related_systems()
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                tick(s.cpu),
                tick(s.gpu),
                tick(s.distributed_training),
                tick(s.tunes_hyper),
                tick(s.tunes_system),
                s.frameworks.join("/"),
                tick(s.open_source),
            ]
        })
        .collect();
    out.table(
        &["system", "cpu", "gpu", "distributed", "hyper", "system", "frameworks", "open source"],
        &rows,
    );
    out.line(
        "\nPipeTune is the only open-source CPU system tuning hyper AND system parameters with BigDL support.",
    );
    out.claim(rows.len() == 16, "Table 1 compares sixteen systems");
    Ok(out)
}

/// Table 3: the workload inventory — paper-scale metadata next to the
/// scaled synthetic sizes this reproduction actually trains on.
pub(crate) fn table3_workloads(_: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    for spec in WorkloadSpec::all_type12().into_iter().chain(WorkloadSpec::all_type3()) {
        let dataset = spec.dataset_name();
        let meta = DATASET_META
            .iter()
            .find(|m| m.name.to_lowercase().starts_with(&dataset[..4.min(dataset.len())]))
            .or_else(|| DATASET_META.iter().find(|m| m.name == "Rodinia"));
        let w = spec.with_scale(1.0).instantiate(&HyperParams::default(), 1)?;
        let (size_mb, train_files, test_files) =
            meta.map(|m| (m.datasize_mb, m.train_files, m.test_files)).unwrap_or((0, 0, 0));
        rows.push(vec![
            spec.job_type().label().to_string(),
            spec.model_name().to_string(),
            dataset.to_string(),
            format!("{size_mb} MB"),
            train_files.to_string(),
            test_files.to_string(),
            format!("{:.1e}", w.work_units().flops),
        ]);
    }
    out.table(
        &["type", "model", "dataset", "datasize", "train files", "test files", "flops/epoch (sim)"],
        &rows,
    );
    out.line("\npaper sizes from Table 3; the synthetic substrate trains scaled-down splits (DESIGN.md).");
    out.claim(rows.len() == 7, "all seven workloads must be present");
    Ok(out)
}

/// On-demand hourly prices (us-east-1, 2020) for the paper's instances.
const INSTANCES: [(&str, f64); 3] =
    [("m4.4xlarge", 0.80), ("m5.12xlarge", 2.304), ("m5.24xlarge", 4.608)];

/// Relative throughput of each instance vs. the reference node.
const SPEEDUP: [f64; 3] = [1.0, 2.4, 4.4];

/// Figure 1: exhaustive grid tuning time and EC2 cost grow exponentially in
/// the number of tuned parameters (LeNet/MNIST, 1–6 parameters × 3 values,
/// three ML-optimised instance types).
pub(crate) fn fig01_grid_explosion(_: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let env = ExperimentEnvBuilder::distributed(1).build()?;
    // The six parameters in the order they are added to the grid; each takes
    // 3 values (the paper: "each parameter was configured to take up to 3
    // different values").
    let all_params = [
        ParamSpec::int_choice("batch_size", &[32, 256, 1024]),
        ParamSpec::float_choice("learning_rate", &[0.001, 0.01, 0.1]),
        ParamSpec::float_choice("dropout", &[0.0, 0.25, 0.5]),
        ParamSpec::int_choice("epochs", &[10, 30, 50]),
        ParamSpec::int_choice("embedding_dim", &[8, 32, 64]),
        ParamSpec::float_choice("momentum", &[0.0, 0.5, 0.9]),
    ];

    // Reference epoch duration for the default LeNet/MNIST trial.
    let spec = WorkloadSpec::lenet_mnist().with_scale(0.2);
    let workload = spec.instantiate(&HyperParams::default(), 1)?;
    let epoch_secs = env.cost.epoch_duration(&workload.work_units(), &env.default_system, 1.0);

    let mut rows = Vec::new();
    let mut series: Vec<(usize, f64, [f64; 3])> = Vec::new();
    for n in 1..=all_params.len() {
        let space = SearchSpace::new(all_params[..n].to_vec());
        // Average epochs hyperparameter value = 30 (middle of the grid).
        let trials = GridSearch::new(space, 3, 30).num_trials();
        // The paper runs the grid on one instance at a time.
        let hours = trials as f64 * 30.0 * epoch_secs / 3600.0;
        let mut costs = [0.0f64; 3];
        let mut row = vec![n.to_string(), trials.to_string(), format!("{hours:.2} h")];
        for (i, ((_, price), speed)) in INSTANCES.iter().zip(SPEEDUP).enumerate() {
            costs[i] = hours / speed * price;
            row.push(format!("${:.2}", costs[i]));
        }
        rows.push(row);
        series.push((n, hours, costs));
    }
    out.table(
        &["params", "grid points", "tuning time", INSTANCES[0].0, INSTANCES[1].0, INSTANCES[2].0],
        &rows,
    );

    // Paper claim: growth is exponential — each added parameter multiplies
    // the cost by the value count (3x).
    let growth = pct(series[5].1, series[4].1) / 100.0 + 1.0;
    out.line(&format!(
        "\ngrowth factor per added parameter: {growth:.1}x (expected 3x — exponential blow-up)"
    ));
    out.json("series", &series)?;
    out.claim((2.5..3.5).contains(&growth), "grid growth should be ~3x");
    Ok(out)
}

/// Figure 2: 58 hardware events averaged per epoch while training a CNN on
/// News20 — the repetitive per-epoch pattern PipeTune exploits.
///
/// Prints the heatmap as magnitude buckets (the paper's legend: >1e8,
/// 1e8–1e6, 1e6–1e4, 1e4–1e2, <1e2) for the initialisation phase plus five
/// epochs.
pub(crate) fn fig02_profile_heatmap(_: &Ctx) -> Result<Outcome> {
    // One glyph per legend bucket, dark → light.
    let bucket = |v: f64| match v {
        v if v > 1e8 => '#',
        v if v > 1e6 => '+',
        v if v > 1e4 => 'o',
        v if v > 1e2 => '.',
        _ => ' ',
    };
    let mut out = Outcome::default();
    let env = ExperimentEnvBuilder::distributed(2).build()?;
    let hp = HyperParams { batch_size: 64, embedding_dim: 32, ..HyperParams::default() };
    let workload = WorkloadSpec::cnn_news20().with_scale(0.3).instantiate(&hp, 2)?;
    let sig = workload.signature();
    // Paper setup: 16 cores, 32 GB.
    let sys = SystemConfig::new(16, 32);
    let epoch_secs = env.cost.epoch_duration(&workload.work_units(), &sys, 1.0);

    let mut rng = StdRng::seed_from_u64(22);
    // Initialisation phase: a fraction of an epoch's work (JVM + data load).
    let init_sig = WorkloadSignature {
        flops_per_epoch: sig.flops_per_epoch * 0.1,
        memory_intensity: sig.memory_intensity * 1.5,
        ..sig
    };
    let mut columns =
        vec![env.profiler.profile_epoch(&init_sig, sys.cores, epoch_secs * 0.3, &mut rng)];
    for _ in 0..5 {
        columns.push(env.profiler.profile_epoch(&sig, sys.cores, epoch_secs, &mut rng));
    }

    out.line("event (rows) x {Init, epoch 1..5} (cols); glyphs: '#'>1e8  '+'1e8-1e6  'o'1e6-1e4  '.'1e4-1e2  ' '<1e2\n");
    let mut json_rows = Vec::new();
    for (i, name) in EVENT_NAMES.iter().enumerate() {
        let counts: Vec<f64> = columns.iter().map(|c| c.counts()[i]).collect();
        let cells: String = counts.iter().map(|v| format!(" {}", bucket(*v))).collect();
        out.line(&format!("{name:<36}{cells}"));
        json_rows.push((name.to_string(), counts));
    }

    // The Fig. 2 observation: per-event counts repeat across epochs. Verify
    // the relative spread of the training epochs is small for a busy event.
    let idx = event_index("instructions").ok_or_else(|| missing("'instructions' event"))?;
    let vals: Vec<f64> = columns[1..].iter().map(|c| c.counts()[idx]).collect();
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let sd = (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt();
    out.line(&format!(
        "\ninstructions/epoch relative spread across epochs: {:.1}% (repetitive, as in Fig. 2)",
        sd / mean * 100.0
    ));
    out.json("heatmap", &json_rows)?;
    out.claim(sd / mean < 0.2, "epochs should repeat");
    Ok(out)
}

/// Figure 3: impact of hyper and system parameters on accuracy, runtime and
/// energy for LeNet/MNIST.
///
/// (a) batch-size impact vs. the batch-32 baseline (accuracy from *real*
///     training; duration/energy from the calibrated models);
/// (b) cores impact on duration per batch size vs. 1 core;
/// (c) cores impact on energy per batch size vs. 1 core.
pub(crate) fn fig03_param_impact(ctx: &Ctx) -> Result<Outcome> {
    let (scale, epochs) = if ctx.quick { (0.2, 4) } else { (0.6, 10) };
    let mut out = Outcome::default();
    let env = ExperimentEnvBuilder::distributed(3).build()?;
    let spec = WorkloadSpec::lenet_mnist().with_scale(scale);

    // (a) batch size at the paper's fixed system configuration.
    let run_once = |batch_size: usize| -> Result<(f32, f64, f64)> {
        let hp = HyperParams { batch_size, learning_rate: 0.02, epochs, ..HyperParams::default() };
        let tuner = SystemTuner::Fixed(SystemConfig::new(8, 16));
        let mut trial = TrialExecution::new(spec.instantiate(&hp, 33)?, tuner);
        trial.run_epochs(&env, epochs, None, 1.0, &mut StdRng::seed_from_u64(33))?;
        Ok((trial.accuracy()?, trial.duration_secs(), trial.energy_j()))
    };
    let (acc0, dur0, en0) = run_once(32)?;
    let mut rows = Vec::new();
    let mut series_a = Vec::new();
    for batch in [64usize, 256, 1024] {
        let (acc, dur, en) = run_once(batch)?;
        let deltas = [pct(f64::from(acc), f64::from(acc0)), pct(dur, dur0), pct(en, en0)];
        let mut row = vec![batch.to_string()];
        row.extend(deltas.iter().map(|d| format!("{d:+.1}%")));
        rows.push(row);
        series_a.push((batch, deltas[0], deltas[1], deltas[2]));
    }
    out.line("(a) batch-size impact vs batch = 32 (accuracy / duration / energy)");
    out.table(&["batch", "accuracy", "duration", "energy"], &rows);

    // (b)+(c): cores impact per batch size vs 1 core. Accuracy is untouched
    // (same hyperparameters); only time/energy move.
    let mut rows_d = Vec::new();
    let mut rows_e = Vec::new();
    let mut series_bc = Vec::new();
    for batch in [64usize, 256, 1024] {
        let hp = HyperParams { batch_size: batch, ..HyperParams::default() };
        let work = spec.instantiate(&hp, 33)?.work_units();
        let base_dur = env.cost.epoch_duration(&work, &SystemConfig::new(1, 16), 1.0);
        let base_en = env.trial_power_watts(1) * base_dur;
        let mut row_d = vec![format!("batch {batch}")];
        let mut row_e = vec![format!("batch {batch}")];
        for cores in [2u32, 4, 8] {
            let dur = env.cost.epoch_duration(&work, &SystemConfig::new(cores, 16), 1.0);
            let en = env.trial_power_watts(cores) * dur;
            row_d.push(format!("{:+.1}%", pct(dur, base_dur)));
            row_e.push(format!("{:+.1}%", pct(en, base_en)));
            series_bc.push((batch, cores, pct(dur, base_dur), pct(en, base_en)));
        }
        rows_d.push(row_d);
        rows_e.push(row_e);
    }
    out.line("\n(b) cores impact on duration vs 1 core");
    out.table(&["", "2 cores", "4 cores", "8 cores"], &rows_d);
    out.line("\n(c) cores impact on energy vs 1 core");
    out.table(&["", "2 cores", "4 cores", "8 cores"], &rows_e);

    // Shape checks from the paper:
    // batch 1024 trains faster but less accurately than batch 32 (a);
    let (_, a1024_acc, a1024_dur, _) = series_a[2];
    out.claim(a1024_acc < 5.0, "large batch should not beat small batch accuracy");
    out.claim(a1024_dur < 0.0, "large batch should be faster");
    // batch 64 slows down at 8 cores, batch 1024 speeds up (b).
    let slow = named(&series_bc, |x| (x.0, x.1), (64, 8))?.2;
    let fast = named(&series_bc, |x| (x.0, x.1), (1024, 8))?.2;
    out.line(&format!(
        "\ncrossover: batch 64 @8 cores {slow:+.0}% vs batch 1024 @8 cores {fast:+.0}% (paper: ≈+45% / −40%)"
    ));
    out.json("a", &series_a)?;
    out.json("bc", &series_bc)?;
    out.claim(slow > 0.0 && fast < 0.0, "Fig. 3b crossover must reproduce");
    out.headline(
        "Fig. 3b crossover (batch 64 / 1024 @ 8 cores)",
        "≈ +45 % / −40 %",
        format!("{slow:+.0} % / {fast:+.0} %"),
    );
    Ok(out)
}

/// Figure 5: Tune V2's error and runtime improvement relative to a single
/// Tune V1 job, under varying cores × co-located jobs (the paper pins the
/// tuning job and its background jobs to the same cores).
pub(crate) fn fig05_tune_characterization(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();
    let spec = WorkloadSpec::lenet_mnist();

    // Baseline: one Tune V1 job on dedicated default cores.
    let env = ExperimentEnvBuilder::distributed(55).build()?;
    let base = TuneV1::new(options).run(&env, &spec)?;
    let base_err = f64::from(1.0 - base.best_accuracy);
    let base_train = base.training_secs;
    out.line(&format!(
        "baseline Tune V1: error {:.1}%, training {base_train:.0}s\n",
        base_err * 100.0
    ));

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for jobs in [2usize, 3, 4] {
        let mut row = vec![format!("{jobs} jobs")];
        for cores in [1u32, 2, 4, 8] {
            // The V2 tuning job shares `cores` with `jobs-1` background jobs
            // pinned to the same logical cores: its searchable core counts
            // are capped and its busy time is multiplied by the job count.
            // Each cell is an independent run (own seed), as in the paper's
            // characterization campaign.
            let seed = 5500 + u64::from(cores) * 10 + jobs as u64;
            let mut env = ExperimentEnv::distributed(seed);
            env.system_space.cores = match cores {
                1 => vec![1],
                2 => vec![1, 2],
                4 => vec![2, 4],
                _ => vec![4, 8],
            };
            let env = ExperimentEnvBuilder::from_env(env)
                .default_system(SystemConfig { cores, memory_gb: 8, ..SystemConfig::default() })
                .build()?;
            let v2 = TuneV2::new(options).run_with_contention(&env, &spec, jobs as f64)?;
            let err = f64::from(1.0 - v2.best_accuracy);
            let err_impr = pct(base_err, err); // positive = error improved
            let rt_impr = pct(base_train, v2.training_secs);
            row.push(format!("{err_impr:+.0}%/{rt_impr:+.0}%"));
            series.push((jobs, cores, err_impr, rt_impr));
        }
        rows.push(row);
    }
    out.line("cells: error improvement % / runtime improvement % vs single Tune V1 job");
    out.table(&["", "1 core", "2 cores", "4 cores", "8 cores"], &rows);

    // Paper observation: "only a few system configurations yielded
    // improvements over the baseline for error and training time".
    let both_better = series.iter().filter(|(_, _, e, r)| *e > 0.0 && *r > 0.0).count();
    out.line(&format!(
        "\nconfigurations improving BOTH error and runtime: {both_better}/{} (paper: only a few)",
        series.len()
    ));
    out.json("series", &series)?;
    out.claim(both_better < series.len(), "some configurations must trade accuracy for speed");
    Ok(out)
}

/// Table 2: accuracy, training time and tuning time for Arbitrary, Tune V1,
/// Tune V2 and PipeTune on LeNet/MNIST.
pub(crate) fn table2_approaches(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();
    let env = ExperimentEnvBuilder::distributed(202).build()?;
    let spec = WorkloadSpec::lenet_mnist();

    // Arbitrary: deliberately mis-set hyperparameters (too-hot learning
    // rate, oversized batch — the "if not correctly chosen" row).
    let arbitrary_hp = HyperParams {
        batch_size: 1024,
        learning_rate: 0.09,
        epochs: options.epochs_range.1 as u32,
        ..HyperParams::default()
    };
    let (arb_acc, arb_train) = run_arbitrary(&env, &spec, &arbitrary_hp, options.scale)?;
    let Trio { v1, v2, pt } = Trio::run(&env, &spec, &options)?;

    let mut rows = vec![vec![
        "Arbitrary".to_string(),
        format!("{:.2}", arb_acc * 100.0),
        format!("{arb_train:.0}"),
        "-".to_string(),
    ]];
    let mut series = vec![("Arbitrary", f64::from(arb_acc), arb_train, f64::NAN)];
    let tuned =
        [("Tune V1", "TuneV1", &v1), ("Tune V2", "TuneV2", &v2), ("PipeTune", "PipeTune", &pt)];
    for (printed, name, o) in tuned {
        rows.push(vec![
            printed.to_string(),
            format!("{:.2}", o.best_accuracy * 100.0),
            format!("{:.0}", o.training_secs),
            format!("{:.0}", o.tuning_secs),
        ]);
        series.push((name, f64::from(o.best_accuracy), o.training_secs, o.tuning_secs));
    }
    out.table(&["approach", "accuracy [%]", "training [s]", "tuning [s]"], &rows);
    out.line("\npaper: Arbitrary 84.47/445/-, V1 91.54/272/4575, V2 81.76/187/4817, PipeTune 92.70/188/3415");
    out.json("rows", &series)?;

    // Shape claims from the paper's reading of Table 2:
    // 1. Arbitrary values lead to worse accuracy than tuned approaches.
    out.claim(pt.best_accuracy > arb_acc, "tuning must beat arbitrary");
    // 2. PipeTune accuracy on par with (or better than) Tune V1.
    out.claim(
        pt.best_accuracy >= v1.best_accuracy - 0.05,
        format!(
            "PipeTune accuracy {} should be on par with V1 {}",
            pt.best_accuracy, v1.best_accuracy
        ),
    );
    // 3. PipeTune tunes faster than both baselines.
    out.claim(pt.tuning_secs < v1.tuning_secs, "PipeTune should tune faster than V1");
    out.claim(pt.tuning_secs < v2.tuning_secs, "PipeTune should tune faster than V2");
    // 4. The ratio objective buys V2 a short-training model at an accuracy
    //    cost (Table 2's V2 row). Known deviation from the paper: our V2
    //    *wall-clock tuning* comes out faster than V1, not slower — the
    //    selection effect of promoting fast trials outweighs the larger
    //    search space in this simulator (recorded in EXPERIMENTS.md).
    out.claim(v2.training_secs < v1.training_secs, "V2 should find a faster-training model");

    let tuning = pct(pt.tuning_secs, v1.tuning_secs);
    out.headline("tuning-time reduction vs V1 (Table 2)", "−25 %", format!("{tuning:+.1} %"));
    let speedup = v1.training_secs / pt.training_secs;
    out.headline("training speed-up (Table 2)", "up to 1.7x", format!("{speedup:.2}x"));
    let gap = (f64::from(pt.best_accuracy) - f64::from(v1.best_accuracy)) * 100.0;
    out.headline("accuracy gap vs V1 (Table 2)", "on par", format!("{gap:+.1} pp"));
    Ok(out)
}

/// Figure 8: k-means (k = 2) over profiling data groups workloads into the
/// Type-I and Type-II families, both when grouped by model and by dataset.
pub(crate) fn fig08_clustering(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let options = ctx.options();
    let env = ExperimentEnvBuilder::distributed(88).build()?;
    let specs = WorkloadSpec::all_type12();
    let gt = warm_start_ground_truth(&env, &specs, &options)?;

    // Fresh probe profiles for each workload; ask the fitted model where
    // they land and what the default-config epoch duration is (the bar
    // height in Fig. 8).
    let mut rng = StdRng::seed_from_u64(888);
    let mut rows = Vec::new();
    let mut assignments: Vec<(String, usize, f64)> = Vec::new();
    for spec in &specs {
        let spec = spec.with_scale(options.scale);
        let w = spec.instantiate(&HyperParams::default(), 99)?;
        let cores = env.default_system.cores;
        let dur = env.cost.epoch_duration(&w.work_units(), &env.default_system, 1.0);
        let profile = env.profiler.profile_epoch(&w.signature(), cores, dur, &mut rng);
        let cluster =
            gt.cluster_of(&profile.features()).ok_or_else(|| missing("fitted similarity model"))?;
        rows.push(vec![
            spec.name().to_string(),
            spec.model_name().to_string(),
            spec.dataset_name().to_string(),
            spec.job_type().label().to_string(),
            format!("cluster{}", cluster + 1),
            format!("{dur:.0} s"),
        ]);
        assignments.push((spec.name().to_string(), cluster, dur));
    }
    out.table(&["workload", "model", "dataset", "type", "cluster", "epoch duration"], &rows);

    // The paper's claim: Type-I lands in one cluster, Type-II in the other.
    let (t1, t2): (Vec<_>, Vec<_>) =
        assignments.iter().partition(|(n, _, _)| n.starts_with("lenet"));
    let uniform = |family: &[&(String, usize, f64)]| family.windows(2).all(|w| w[0].1 == w[1].1);
    let (t1_uniform, t2_uniform, separated) = (uniform(&t1), uniform(&t2), t1[0].1 != t2[0].1);
    out.line(&format!(
        "\nType-I uniform: {t1_uniform}; Type-II uniform: {t2_uniform}; families separated: {separated}"
    ));
    out.json("assignments", &assignments)?;
    out.claim(t1_uniform && t2_uniform && separated, "clusters must separate the families");
    Ok(out)
}

/// The CNN/News20 campaign Figs 9 and 10 both plot: run once per
/// invocation, by whichever of the two comes first.
fn convergence_campaign(ctx: &Ctx) -> Result<&Trio> {
    if let Some(trio) = ctx.convergence.get() {
        return Ok(trio);
    }
    let env = ExperimentEnvBuilder::distributed(99).build()?;
    let trio = Trio::run(&env, &WorkloadSpec::cnn_news20(), &ctx.options())?;
    Ok(ctx.convergence.get_or_init(|| trio))
}

/// One row per approach: its name, then every eighth-of-the-trace point of
/// its `trace`, rendered by `cell`.
fn trace_rows<T>(
    trio: &Trio,
    trace: impl Fn(&[ConvergencePoint]) -> Vec<T>,
    cell: impl Fn(&T) -> String,
) -> Vec<Vec<String>> {
    let row = |(name, o): (&str, &TuningOutcome)| {
        let trace = trace(&o.convergence);
        let cells: Vec<String> =
            trace.iter().step_by((trace.len() / 8).max(1)).map(&cell).collect();
        vec![name.to_string(), cells.join("  ")]
    };
    trio.named().map(row).to_vec()
}

/// Best accuracy so far at each point's wall-clock time.
fn running_best(points: &[ConvergencePoint]) -> Vec<(f64, f32)> {
    let mut best = 0.0f32;
    points
        .iter()
        .map(|p| {
            best = best.max(p.accuracy);
            (p.wall_secs, best)
        })
        .collect()
}

/// Mean trial duration so far at each point's wall-clock time.
fn running_mean(points: &[ConvergencePoint]) -> Vec<(f64, f64)> {
    let mut sum = 0.0;
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            sum += p.trial_secs;
            (p.wall_secs, sum / (i + 1) as f64)
        })
        .collect()
}

/// Figures 9 & 10: convergence of accuracy and of per-trial time over the
/// tuning wall clock for the CNN/News20 workload, PipeTune vs Tune V1/V2.
pub(crate) fn fig09_accuracy_convergence(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let trio = convergence_campaign(ctx)?;
    let Trio { v1, v2, pt } = trio;

    // Fig. 9: best-so-far accuracy vs wall clock (downsampled trace).
    out.line("(Fig. 9) best-so-far accuracy over tuning wall clock");
    let rows = trace_rows(trio, running_best, |(t, a)| format!("{:.0}s:{:.0}%", t, a * 100.0));
    out.table(&["approach", "trace (wall clock : best accuracy)"], &rows);

    // Time to reach a common accuracy target — the speed-up the paper quotes
    // ("on average our approach is 1.5x and 2x faster than V1 and V2").
    let peak = |o: &TuningOutcome| o.convergence.iter().map(|p| p.accuracy).fold(0.0f32, f32::max);
    let target = peak(pt).min(peak(v1)) * 0.8;
    // Wall-clock time at which the running-best accuracy first reaches it.
    let time_to_target = |o: &TuningOutcome| {
        running_best(&o.convergence).into_iter().find(|(_, best)| *best >= target).map(|(t, _)| t)
    };
    let (tt_pt, tt_v1, tt_v2) = (time_to_target(pt), time_to_target(v1), time_to_target(v2));
    out.line(&format!(
        "\ntime to {:.0}% accuracy: PipeTune {:?}s, V1 {:?}s, V2 {:?}s",
        target * 100.0,
        tt_pt.map(|t| t as i64),
        tt_v1.map(|t| t as i64),
        tt_v2.map(|t| t as i64)
    ));
    if let (Some(p), Some(a)) = (tt_pt, tt_v1) {
        out.line(&format!("speed-up vs V1: {:.2}x (paper: ~1.5x)", a / p));
    }

    // Fig. 10: per-trial duration trace (trial time convergence).
    out.line("\n(Fig. 10) trial durations over tuning wall clock");
    let cell = |p: &ConvergencePoint| format!("{:.0}s:{:.0}s", p.wall_secs, p.trial_secs);
    let rows10 = trace_rows(trio, <[ConvergencePoint]>::to_vec, cell);
    out.table(&["approach", "trace (wall clock : trial time)"], &rows10);

    // PipeTune's mean trial time should be the shortest (Fig. 10's claim:
    // "PipeTune consistently presents shorter trial times").
    let mean_trial = |o: &TuningOutcome| {
        o.convergence.iter().map(|p| p.trial_secs).sum::<f64>() / o.convergence.len() as f64
    };
    let (m_pt, m_v1, m_v2) = (mean_trial(pt), mean_trial(v1), mean_trial(v2));
    out.line(&format!("\nmean trial time: PipeTune {m_pt:.0}s, V1 {m_v1:.0}s, V2 {m_v2:.0}s"));
    out.json(
        "convergence",
        [("v1", &v1.convergence), ("v2", &v2.convergence), ("pipetune", &pt.convergence)],
    )?;
    out.claim(m_pt < m_v1, "PipeTune trials should be shorter than V1's");
    if let (Some(p), Some(a)) = (tt_pt, tt_v1) {
        out.claim(p <= a * 1.05, "PipeTune should reach target accuracy no later than V1");
    }
    Ok(out)
}

/// Figure 10: training-trial-time convergence over the tuning wall clock
/// for CNN/News20 — PipeTune's trials must run consistently shorter than
/// Tune V1's and V2's throughout the process.
///
/// (`fig09_accuracy_convergence` prints this figure's raw trace from the
/// same campaign; this experiment isolates the trial-time statistics and
/// their running envelope.)
pub(crate) fn fig10_trialtime_convergence(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let trio = convergence_campaign(ctx)?;
    let means = trio.named().map(|(name, o)| {
        (name, running_mean(&o.convergence).last().map_or(0.0, |(_, mean)| *mean))
    });
    let mut rows = trace_rows(trio, running_mean, |(t, m)| format!("{t:.0}s:{m:.0}s"));
    for (row, (_, mean)) in rows.iter_mut().zip(&means) {
        row.insert(1, format!("{mean:.0} s"));
    }
    out.table(&["approach", "mean trial time", "running mean (wall clock : mean)"], &rows);
    let [(_, v1_mean), (_, v2_mean), (_, pt_mean)] = means;
    out.line(&format!(
        "\nPipeTune mean trial time {pt_mean:.0}s vs V1 {v1_mean:.0}s / V2 {v2_mean:.0}s — \"consistently shorter trial times\" (§7.2)"
    ));
    out.json("means", means)?;
    out.claim(pt_mean < v1_mean, "PipeTune must beat V1");
    out.claim(pt_mean < v2_mean, "PipeTune must beat V2");
    Ok(out)
}

/// The per-workload table Figs 11 and 12 share, headed `unit` and `score`
/// in its first and third columns, and what both conclude from it:
/// PipeTune's aggregate `(tuning, energy)` reductions vs Tune V1 in percent
/// and its per-workload score gap to it.
fn single_tenancy_table(
    out: &mut Outcome,
    env: &ExperimentEnv,
    specs: &[WorkloadSpec],
    options: &TunerOptions,
    [unit, score]: [&str; 2],
) -> Result<(f64, f64, Vec<f64>)> {
    let rows = single_tenancy(env, specs, options)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (accuracy, training) = (percent(r.accuracy), secs(r.training_secs));
            let (tuning, energy) = (secs(r.tuning_secs), kj(r.tuning_energy_j));
            vec![r.workload.clone(), r.approach.to_string(), accuracy, training, tuning, energy]
        })
        .collect();
    out.table(&[unit, "approach", score, "training", "tuning", "tuning energy"], &table);

    // Summaries per the paper's §7.3 bullets.
    let (mut v1_tuning, mut pt_tuning, mut v1_energy, mut pt_energy) = (0.0, 0.0, 0.0, 0.0);
    let mut gaps = Vec::new();
    for workload in rows.chunks(3) {
        let v1 = named(workload, |r| r.approach, "TuneV1")?;
        let pt = named(workload, |r| r.approach, "PipeTune")?;
        v1_tuning += v1.tuning_secs;
        pt_tuning += pt.tuning_secs;
        v1_energy += v1.tuning_energy_j;
        pt_energy += pt.tuning_energy_j;
        gaps.push(f64::from(pt.accuracy - v1.accuracy));
    }
    out.json("rows", &rows)?;
    Ok((-pct(pt_tuning, v1_tuning), -pct(pt_energy, v1_energy), gaps))
}

/// Score gaps as percentage points.
fn points(gaps: &[f64]) -> Vec<String> {
    gaps.iter().map(|g| format!("{:+.1}pp", g * 100.0)).collect()
}

/// Figure 11: single-tenancy evaluation of accuracy, training duration,
/// tuning duration and tuning energy for the four Type-I/II workloads under
/// Tune V1, Tune V2 and PipeTune.
pub(crate) fn fig11_single_tenancy(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let env = ExperimentEnvBuilder::distributed(111).build()?;
    let specs = if ctx.quick {
        vec![WorkloadSpec::lenet_mnist(), WorkloadSpec::cnn_news20()]
    } else {
        WorkloadSpec::all_type12()
    };
    let (tuning_red, energy_red, gaps) =
        single_tenancy_table(&mut out, &env, &specs, &ctx.options(), ["workload", "accuracy"])?;
    out.line(&format!(
        "\nPipeTune vs Tune V1: tuning time −{tuning_red:.1}% (paper: up to 23%), energy −{energy_red:.1}% (paper: up to 29%)"
    ));
    out.line(&format!(
        "accuracy gap PipeTune − V1 per workload: {:?} (paper: negligible)",
        points(&gaps)
    ));
    out.claim(
        tuning_red > 5.0,
        format!("PipeTune must reduce aggregate tuning time, got {tuning_red:.1}%"),
    );
    out.claim(
        energy_red > 5.0,
        format!("PipeTune must reduce aggregate tuning energy, got {energy_red:.1}%"),
    );
    out.claim(
        gaps.iter().all(|g| *g > -0.10),
        format!("PipeTune accuracy must stay close to V1: {gaps:?}"),
    );
    out.headline(
        "tuning reduction, Type-I/II (Fig. 11c)",
        "up to 23 %",
        format!("{tuning_red:.1} %"),
    );
    out.headline(
        "energy reduction, Type-I/II (Fig. 11d)",
        "up to 29 %",
        format!("{energy_red:.1} %"),
    );
    Ok(out)
}

/// Figure 12: the same single-tenancy metrics for the Type-III kernels
/// (Jacobi, spk-means, BFS) on the single-node testbed — the short-epoch
/// stress test for PipeTune's per-epoch profiling.
pub(crate) fn fig12_type3(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let env = ExperimentEnvBuilder::single_node(112).build()?;
    let specs = WorkloadSpec::all_type3();
    let (tuning_red, energy_red, gaps) =
        single_tenancy_table(&mut out, &env, &specs, &ctx.options(), ["kernel", "score"])?;
    out.line(&format!(
        "\nPipeTune vs Tune V1 (short epochs): tuning −{tuning_red:.1}%, energy −{energy_red:.1}%"
    ));
    out.line(&format!(
        "score gap PipeTune − V1: {:?} (paper: comparable or better)",
        points(&gaps)
    ));
    // Paper §7.3: "PipeTune also achieves the expected results in this more
    // challenging scenario and reduces both training and tuning time".
    out.claim(
        tuning_red > 0.0,
        format!("PipeTune must still win with short epochs, got {tuning_red:.1}%"),
    );
    out.claim(
        gaps.iter().all(|g| *g > -0.10),
        format!("kernel scores must stay comparable: {gaps:?}"),
    );
    Ok(out)
}

/// The per-group response-time tables Figs 13 and 14 share: one Poisson
/// trace of `jobs` jobs per `(label, specs, seed)` group on a fresh
/// `testbed`, served FIFO, with `note`'s line under each table. Returns each
/// group's `[V1, V2, PipeTune]` mean response times in seconds.
fn response_groups<'a>(
    out: &mut Outcome,
    ctx: &Ctx,
    testbed: fn(u64) -> ExperimentEnvBuilder,
    (jobs, arrival_rate_per_sec, setting): (usize, f64, &str),
    groups: Vec<(&'a str, Vec<WorkloadSpec>, u64)>,
    note: impl Fn([f64; 3]) -> String,
) -> Result<Vec<(&'a str, [f64; 3])>> {
    let mut all_groups = Vec::new();
    for (label, specs, seed) in groups {
        let env = testbed(seed).build()?;
        let mt = MultiTenancyOptions { jobs, arrival_rate_per_sec, seed };
        let outcomes = multi_tenancy(&env, &specs, &ctx.options(), &mt)?;
        let rows: Vec<Vec<String>> =
            outcomes.iter().map(|o| vec![o.approach.to_string(), secs(o.overall_secs)]).collect();
        out.line(&format!("\n{label} ({jobs} jobs{setting}):"));
        out.table(&["approach", "avg response time"], &rows);
        let mean = |approach| named(&outcomes, |o| o.approach, approach).map(|o| o.overall_secs);
        let means = [mean("TuneV1")?, mean("TuneV2")?, mean("PipeTune")?];
        out.line(&note(means));
        all_groups.push((label, means));
    }
    Ok(all_groups)
}

/// Figure 13: multi-tenancy average response time for Type-I and Type-II
/// workloads (grouped by type, plus all together), under Poisson arrivals
/// and FIFO scheduling.
pub(crate) fn fig13_multitenant(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let trace = (if ctx.quick { 4 } else { 8 }, 1.0 / 4000.0, "");
    let groups = vec![
        ("Type-I", vec![WorkloadSpec::lenet_mnist(), WorkloadSpec::lenet_fashion()], 131),
        ("Type-II", vec![WorkloadSpec::cnn_news20(), WorkloadSpec::lstm_news20()], 132),
        ("all", WorkloadSpec::all_type12(), 133),
    ];
    let note = |[v1, v2, pt]: [f64; 3]| {
        format!(
            "PipeTune response-time reduction: {:.0}% vs V1, {:.0}% vs V2 (paper: up to 30%)",
            -pct(pt, v1),
            -pct(pt, v2)
        )
    };
    let all_groups =
        response_groups(&mut out, ctx, ExperimentEnvBuilder::distributed, trace, groups, note)?;
    let series: Vec<_> =
        all_groups.iter().map(|(label, [v1, v2, pt])| (label, v1, v2, pt)).collect();
    out.json("groups", &series)?;

    // PipeTune must reduce the average response time vs V1 in every group.
    for (label, [v1, _, pt]) in &all_groups {
        out.claim(pt < v1, format!("{label}: PipeTune {pt:.0}s should beat V1 {v1:.0}s"));
    }
    let [v1, _, pt] = named(&all_groups, |g| g.0, "all")?.1;
    let reduction = -pct(pt, v1);
    out.headline("response-time reduction (Fig. 13)", "up to 30 %", format!("{reduction:.1} %"));
    Ok(out)
}

/// Figure 14: multi-tenancy average response time for the Type-III kernels
/// on the single-node testbed, per kernel and all together.
pub(crate) fn fig14_multitenant_type3(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let trace = (if ctx.quick { 3 } else { 6 }, 1.0 / 500.0, ", single node");
    let groups = vec![
        ("jacobi", vec![WorkloadSpec::jacobi()], 141),
        ("bfs", vec![WorkloadSpec::bfs()], 142),
        ("spkmeans", vec![WorkloadSpec::spkmeans()], 143),
        ("all", WorkloadSpec::all_type3(), 144),
    ];
    let note = |[v1, _, pt]: [f64; 3]| {
        format!("PipeTune response-time reduction vs V1: {:.0}% (paper: up to 65%)", -pct(pt, v1))
    };
    let all_groups =
        response_groups(&mut out, ctx, ExperimentEnvBuilder::single_node, trace, groups, note)?;
    let series: Vec<_> = all_groups.iter().map(|(label, [v1, _, pt])| (label, v1, pt)).collect();
    out.json("groups", &series)?;

    // Paper: "the performance gain trends earlier observed become even more
    // evident" — PipeTune must beat V1 overall.
    let [v1, _, pt] = named(&all_groups, |g| g.0, "all")?.1;
    out.claim(pt < v1, format!("PipeTune {pt:.0}s should beat V1 {v1:.0}s on the mixed trace"));
    Ok(out)
}
