//! Tree-structured Parzen Estimator (TPE)-style Bayesian optimisation.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scheduler::BestTracker;
use crate::{Config, SearchSpace, TrialId, TrialReport, TrialRequest, TrialScheduler};

/// Sequential Bayesian-style search: after a random warm-up, candidates are
/// sampled and ranked by the ratio of Parzen densities fitted to the "good"
/// (top-γ) and "bad" observation sets, per parameter.
///
/// This is the reproduction's stand-in for Tune's Bayesian optimisers (the
/// paper's architecture diagram lists "Bayesian gradient optimization" among
/// the pluggable algorithms).
#[derive(Debug, Clone)]
pub struct Tpe {
    space: SearchSpace,
    total_trials: usize,
    warmup: usize,
    gamma: f64,
    candidates: usize,
    epochs_per_trial: u32,
    history: Vec<(Config, f64)>,
    outstanding: HashMap<TrialId, Config>,
    issued: usize,
    tracker: BestTracker,
    rng: StdRng,
}

impl Tpe {
    /// Creates a TPE run of `total_trials` trials (first quarter random).
    pub fn new(space: SearchSpace, total_trials: usize, epochs_per_trial: u32, seed: u64) -> Self {
        Tpe {
            space,
            total_trials,
            warmup: (total_trials / 4).max(3),
            gamma: 0.25,
            candidates: 24,
            epochs_per_trial,
            history: Vec::new(),
            outstanding: HashMap::new(),
            issued: 0,
            tracker: BestTracker::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Parzen log-density of `x` under a set of 1-D observations (Gaussian
    /// kernels with a data-driven bandwidth).
    fn log_density(values: &[f64], x: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let spread = {
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            ((max - min) / values.len() as f64).max(1e-6)
        };
        let mut acc = 0.0f64;
        for &v in values {
            let z = (x - v) / spread;
            acc += (-0.5 * z * z).exp();
        }
        (acc / values.len() as f64 / spread).max(1e-12).ln()
    }

    fn propose(&mut self) -> Config {
        if self.history.len() < self.warmup {
            return self.space.sample(&mut self.rng);
        }
        // Split history into good (top gamma) and bad.
        let mut ranked: Vec<&(Config, f64)> = self.history.iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let n_good = ((ranked.len() as f64) * self.gamma).ceil().max(1.0) as usize;
        let (good, bad) = ranked.split_at(n_good.min(ranked.len()));
        let mut best: Option<(Config, f64)> = None;
        for _ in 0..self.candidates {
            let cand = self.space.sample(&mut self.rng);
            let mut score = 0.0f64;
            for p in self.space.params() {
                let x = cand[p.name()].as_f64();
                let gv: Vec<f64> = good.iter().map(|(c, _)| c[p.name()].as_f64()).collect();
                let bv: Vec<f64> = bad.iter().map(|(c, _)| c[p.name()].as_f64()).collect();
                score += Self::log_density(&gv, x) - Self::log_density(&bv, x);
            }
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((cand, score));
            }
        }
        best.expect("candidates > 0").0
    }
}

impl TrialScheduler for Tpe {
    fn next_trials(&mut self) -> Vec<TrialRequest> {
        if !self.outstanding.is_empty() || self.issued >= self.total_trials {
            return Vec::new();
        }
        let config = self.propose();
        let id = TrialId(self.issued as u64);
        self.issued += 1;
        self.outstanding.insert(id, config.clone());
        self.tracker.issue_epochs(self.epochs_per_trial);
        vec![TrialRequest { id, config: Arc::new(config), epochs: self.epochs_per_trial }]
    }

    fn report(&mut self, report: TrialReport) {
        let config = self
            .outstanding
            .remove(&report.id)
            .unwrap_or_else(|| panic!("report for unknown {}", report.id));
        self.tracker.observe(&config, report.score);
        self.history.push((config, report.score));
    }

    fn is_finished(&self) -> bool {
        self.issued >= self.total_trials && self.outstanding.is_empty()
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.tracker.best()
    }

    fn epochs_issued(&self) -> u64 {
        self.tracker.epochs_issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamSpec;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![ParamSpec::float_range("x", 0.0, 1.0, false)])
    }

    /// Maximise a peaked objective; TPE should concentrate samples near the
    /// peak once warm.
    fn objective(x: f64) -> f64 {
        1.0 - (x - 0.7).abs()
    }

    fn run(seed: u64) -> Tpe {
        let mut tpe = Tpe::new(space(), 30, 5, seed);
        while !tpe.is_finished() {
            for r in tpe.next_trials() {
                let score = objective(r.config["x"].as_f64());
                tpe.report(TrialReport { id: r.id, score, epochs_run: r.epochs });
            }
        }
        tpe
    }

    #[test]
    fn beats_pure_chance_on_a_peaked_objective() {
        let tpe = run(3);
        let (_, best) = tpe.best().unwrap();
        assert!(best > 0.9, "best score {best}");
        assert_eq!(tpe.epochs_issued(), 150);
    }

    #[test]
    fn later_samples_concentrate_near_peak() {
        let tpe = run(5);
        let late: Vec<f64> = tpe.history.iter().skip(20).map(|(c, _)| c["x"].as_f64()).collect();
        let near = late.iter().filter(|&&x| (x - 0.7).abs() < 0.25).count();
        assert!(near * 2 > late.len(), "only {near}/{} late samples near the peak", late.len());
    }

    #[test]
    fn sequential_one_trial_at_a_time() {
        let mut tpe = Tpe::new(space(), 5, 1, 1);
        let batch = tpe.next_trials();
        assert_eq!(batch.len(), 1);
        assert!(tpe.next_trials().is_empty(), "waits for report");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(9).best().unwrap(), run(9).best().unwrap());
    }
}
