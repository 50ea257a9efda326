//! Regenerates the paper's evaluation: every table, figure, ablation and
//! extension is one row of [`REGISTRY`], run as
//! `pipetune-bench <name>… [--quick]` or `pipetune-bench all [--quick]`.
//! Beside them sit the [`COMMANDS`]: `run` tunes one workload, `headline`
//! regenerates and gates the committed `BENCH_pipetune*.json` reports,
//! `trace` reads an exported trace.
//!
//! Each experiment prints a human-readable table to stdout and writes the
//! same data under `target/experiments/`; `all` ends with `summary`, the
//! headline paper-vs-measured table assembled from what the experiments
//! returned. An experiment that errs, panics or whose numbers do not bear
//! out one of the paper's claims is reported on stderr and fails the run
//! without stopping it.

mod commands;
mod extras;
mod harness;
mod paper;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use extras::*;
use harness::{Ctx, Outcome, ARTEFACTS};
use paper::*;

/// One experiment of the evaluation.
struct Experiment {
    name: &'static str,
    /// Left out of `all --quick`.
    slow: bool,
    about: &'static str,
    run: fn(&Ctx) -> harness::Result<Outcome>,
}

/// `function, slow, about` as an [`Experiment`] named after the function.
macro_rules! experiment {
    ($run:ident, $slow:literal, $about:literal) => {
        Experiment { name: stringify!($run), slow: $slow, about: $about, run: $run }
    };
}

/// Every experiment, in the order `all` runs them.
const REGISTRY: [Experiment; 24] = [
    experiment!(table1_related_matrix, false, "Table 1: related-systems matrix"),
    experiment!(table3_workloads, false, "Table 3: workload inventory"),
    experiment!(fig01_grid_explosion, false, "Fig. 1: grid-search time and cost explosion"),
    experiment!(fig02_profile_heatmap, false, "Fig. 2: per-epoch hardware-event heatmap"),
    experiment!(fig03_param_impact, false, "Fig. 3: batch-size and cores impact"),
    experiment!(fig05_tune_characterization, false, "Fig. 5: Tune V2 under co-location"),
    experiment!(table2_approaches, false, "Table 2: Arbitrary / V1 / V2 / PipeTune on LeNet/MNIST"),
    experiment!(fig08_clustering, false, "Fig. 8: k-means separates the workload families"),
    experiment!(fig09_accuracy_convergence, false, "Figs 9 & 10: accuracy and trial-time traces"),
    experiment!(fig10_trialtime_convergence, false, "Fig. 10: running mean of trial times"),
    experiment!(fig11_single_tenancy, false, "Fig. 11: single tenancy, Type-I/II"),
    experiment!(fig12_type3, false, "Fig. 12: single tenancy, Type-III kernels"),
    experiment!(fig13_multitenant, false, "Fig. 13: multi-tenancy response time, Type-I/II"),
    experiment!(fig14_multitenant_type3, false, "Fig. 14: multi-tenancy response time, Type-III"),
    experiment!(ablation_groundtruth, false, "ablation: ground-truth reuse on / off"),
    experiment!(ablation_threshold, false, "ablation: similarity-threshold sensitivity"),
    experiment!(ablation_probe_goal, true, "ablation: probing optimisation function"),
    experiment!(ablation_profiling_overhead, true, "ablation: profiling overhead"),
    experiment!(ablation_scheduler, true, "ablation: pluggable trial schedulers"),
    experiment!(ablation_similarity, true, "ablation: pluggable similarity functions"),
    experiment!(extension_frequency, true, "extension: CPU frequency as a system parameter"),
    experiment!(extension_shared_cluster, true, "extension: FIFO vs processor-shared cluster"),
    experiment!(extension_sampling, true, "extension: 1 Hz sampled profiling"),
    experiment!(extension_k_selection, true, "extension: silhouette k selection, event filter"),
];

/// A command: its arguments after its name, to the process's exit code.
type Command = fn(&[String]) -> ExitCode;

/// The commands that are not experiments, as `pipetune-bench <command> <args>…`.
/// They are not rows of [`REGISTRY`]: `all` does not run them.
const COMMANDS: [(&str, Command); 3] =
    [("run", commands::run), ("headline", commands::headline), ("trace", commands::trace)];

/// The experiments whose headline rows make up `summary`, in table order.
const HEADLINE_SOURCES: [&str; 4] =
    ["table2_approaches", "fig11_single_tenancy", "fig13_multitenant", "fig03_param_impact"];

/// What the experiments run so far have left behind.
#[derive(Default)]
struct Ledger {
    /// Headline rows of every experiment whose report was written.
    headlines: Vec<(&'static str, Vec<[String; 3]>)>,
    failures: Vec<&'static str>,
}

impl Ledger {
    /// Prints and writes the report, keeps the headline rows, *then* judges
    /// the claims — a red claim leaves its artefacts behind for inspection.
    /// A failure is one line on stderr and does not stop the run.
    fn settle(&mut self, name: &'static str, outcome: Result<Outcome, String>) {
        let verdict = outcome.and_then(|outcome| {
            outcome.publish(name).map_err(|e| e.to_string())?;
            self.headlines.push((name, outcome.headline));
            let red: Vec<String> =
                outcome.claims.into_iter().filter(|c| !c.holds).map(|c| c.text).collect();
            if red.is_empty() {
                Ok(())
            } else {
                Err(format!("claim does not hold: {}", red.join("; ")))
            }
        });
        if let Err(why) = verdict {
            eprintln!("{name}: {why}");
            self.failures.push(name);
        }
    }

    /// The headline paper-vs-measured table, from the rows the experiments
    /// of this run returned.
    fn summary(&self) -> Outcome {
        let mut out = Outcome::default();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut missing = Vec::new();
        for source in HEADLINE_SOURCES {
            match self.headlines.iter().find(|(name, _)| *name == source) {
                Some((_, headline)) => rows.extend(headline.iter().map(|row| row.to_vec())),
                None => missing.push(source),
            }
        }
        out.table(&["claim", "paper", "measured"], &rows);
        if !missing.is_empty() {
            out.line(&format!(
                "\nmissing artefacts (experiments that did not finish): {missing:?}"
            ));
        }
        out.claim(!rows.is_empty(), "no headline experiment finished");
        out
    }
}

/// Runs `experiment`, containing its panics as process isolation used to.
fn run(experiment: &Experiment, ctx: &Ctx) -> Result<Outcome, String> {
    match catch_unwind(AssertUnwindSafe(|| (experiment.run)(ctx))) {
        Ok(outcome) => outcome.map_err(|e| e.to_string()),
        Err(_) => Err("panicked".into()),
    }
}

fn main() -> ExitCode {
    // Arguments are matched, not scanned: a command's name, then its
    // arguments; or `--quick`, then either `all` or registry names; anything
    // else runs nothing.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((_, command)) =
        COMMANDS.iter().find(|(name, _)| args.first().is_some_and(|a| a == name))
    {
        return command(&args[1..]);
    }
    let (quick, args): (Vec<String>, Vec<String>) = args.into_iter().partition(|a| a == "--quick");
    let ctx = Ctx { quick: !quick.is_empty(), convergence: Default::default() };
    let all = args == ["all"];
    let selected: Option<Vec<&Experiment>> = if all {
        Some(REGISTRY.iter().filter(|e| !(ctx.quick && e.slow)).collect())
    } else {
        args.iter().map(|name| REGISTRY.iter().find(|e| e.name == name)).collect()
    };
    let Some(experiments) = selected.filter(|list| !list.is_empty()) else {
        eprintln!("usage: pipetune-bench <experiment>…|all [--quick] | run|headline|trace …");
        REGISTRY.iter().for_each(|e| eprintln!("  {:<30}{}", e.name, e.about));
        return ExitCode::from(2);
    };

    let mut ledger = Ledger::default();
    for experiment in &experiments {
        if all {
            println!("\n########## {} ##########", experiment.name);
        }
        ledger.settle(experiment.name, run(experiment, &ctx));
    }
    if all {
        println!("\n########## summarize ##########");
        ledger.settle("summary", Ok(ledger.summary()));
        println!("\n==================================================");
        if ledger.failures.is_empty() {
            println!("all {} experiments reproduced; artefacts in {ARTEFACTS}/", experiments.len());
        } else {
            println!("FAILED: {:?}", ledger.failures);
        }
    }
    if ledger.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
