//! Extending the tuner: implementing your own `TrialScheduler`.
//!
//! The paper stresses that PipeTune "indirectly supports all [of Tune's]
//! hyperparameter optimization algorithms" because the scheduler is a narrow
//! interface. This example implements a tiny *median-stopping* scheduler
//! from scratch against `pipetune_search::TrialScheduler` and drives it over
//! a real workload, with PipeTune-style epoch accounting done by hand.
//!
//! ```sh
//! cargo run --release --example custom_scheduler
//! ```

use std::collections::HashMap;

use pipetune::prelude::*;
use pipetune::EpochWorkload;
use pipetune_search::{
    Config, ParamSpec, SearchSpace, TrialId, TrialReport, TrialRequest, TrialScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Median stopping: run trials one epoch at a time; kill any trial whose
/// score drops below the median of all completed scores at the same step.
struct MedianStopping {
    space: SearchSpace,
    max_trials: usize,
    max_epochs: u32,
    issued: usize,
    outstanding: Option<TrialId>,
    configs: HashMap<TrialId, Config>,
    epochs: HashMap<TrialId, u32>,
    history: Vec<f64>,
    best: Option<(Config, f64)>,
    total_epochs: u64,
    rng: StdRng,
}

impl MedianStopping {
    fn new(space: SearchSpace, max_trials: usize, max_epochs: u32, seed: u64) -> Self {
        MedianStopping {
            space,
            max_trials,
            max_epochs,
            issued: 0,
            outstanding: None,
            configs: HashMap::new(),
            epochs: HashMap::new(),
            history: Vec::new(),
            best: None,
            total_epochs: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn median(&self) -> f64 {
        if self.history.is_empty() {
            return f64::NEG_INFINITY;
        }
        let mut h = self.history.clone();
        h.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        h[h.len() / 2]
    }
}

impl TrialScheduler for MedianStopping {
    fn next_trials(&mut self) -> Vec<TrialRequest> {
        if self.outstanding.is_some() {
            return Vec::new();
        }
        // Continue the last trial if it survives, else start a fresh one.
        let id = TrialId(self.issued as u64);
        if self.issued < self.max_trials {
            let config =
                self.configs.entry(id).or_insert_with(|| self.space.sample(&mut self.rng)).clone();
            self.outstanding = Some(id);
            self.total_epochs += 1;
            *self.epochs.entry(id).or_default() += 1;
            return vec![TrialRequest { id, config: config.into(), epochs: 1 }];
        }
        Vec::new()
    }

    fn report(&mut self, report: TrialReport) {
        assert_eq!(Some(report.id), self.outstanding.take(), "unexpected report");
        let epochs = self.epochs[&report.id];
        let survives = report.score >= self.median() && epochs < self.max_epochs;
        self.history.push(report.score);
        if self.best.as_ref().is_none_or(|(_, s)| report.score > *s) {
            self.best = Some((self.configs[&report.id].clone(), report.score));
        }
        if !survives {
            // Kill (or graduate) the trial; move to the next configuration.
            self.issued += 1;
        }
    }

    fn is_finished(&self) -> bool {
        self.outstanding.is_none() && self.issued >= self.max_trials
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.best.clone()
    }

    fn epochs_issued(&self) -> u64 {
        self.total_epochs
    }
}

fn main() -> Result<(), pipetune::PipeTuneError> {
    let env = ExperimentEnvBuilder::distributed(77).build()?;
    let spec = WorkloadSpec::lenet_mnist().with_scale(0.3);
    let space = SearchSpace::new(vec![
        ParamSpec::float_range("learning_rate", 0.001, 0.1, true),
        ParamSpec::int_choice("batch_size", &[32, 64, 256]),
    ]);
    let mut sched = MedianStopping::new(space, 8, 6, 77);

    // Drive it by hand: one real training epoch per request, with the
    // simulated clock accounting PipeTune would normally do for us.
    let mut workloads: HashMap<u64, pipetune::WorkloadInstance> = HashMap::new();
    let mut sim_clock = 0.0f64;
    while !sched.is_finished() {
        for req in sched.next_trials() {
            let w = workloads.entry(req.id.0).or_insert_with(|| {
                let hp = HyperParams::from_config(&req.config);
                spec.instantiate(&hp, 1000 + req.id.0).expect("workload builds")
            });
            let out = w.run_epoch()?;
            sim_clock += env.cost.epoch_duration(&w.work_units(), &env.default_system, 1.0);
            sched.report(TrialReport {
                id: req.id,
                score: f64::from(out.train_score),
                epochs_run: 1,
            });
        }
    }
    let (config, score) = sched.best().expect("some trial scored");
    println!("median-stopping over {} epochs ({:.0}s simulated)", sched.epochs_issued(), sim_clock);
    println!(
        "best: lr {:.4}, batch {} → train accuracy {:.1}%",
        config["learning_rate"].as_f64(),
        config["batch_size"].as_i64(),
        score * 100.0
    );
    Ok(())
}
