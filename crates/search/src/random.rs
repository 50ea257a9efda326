//! Random search (Bergstra & Bengio, 2012).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scheduler::BestTracker;
use crate::{Config, SearchSpace, TrialId, TrialReport, TrialRequest, TrialScheduler};

/// Random search: `n` seeded samples, each run for the full budget.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    pending: Vec<(TrialId, Config)>,
    outstanding: HashMap<TrialId, Arc<Config>>,
    epochs_per_trial: u32,
    tracker: BestTracker,
    issued: bool,
}

impl RandomSearch {
    /// Samples `n` configurations from `space` with `seed`.
    pub fn new(space: SearchSpace, n: usize, epochs_per_trial: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pending = (0..n).map(|i| (TrialId(i as u64), space.sample(&mut rng))).collect();
        RandomSearch {
            pending,
            outstanding: HashMap::new(),
            epochs_per_trial,
            tracker: BestTracker::default(),
            issued: false,
        }
    }
}

impl TrialScheduler for RandomSearch {
    fn next_trials(&mut self) -> Vec<TrialRequest> {
        if self.issued {
            return Vec::new();
        }
        self.issued = true;
        let reqs: Vec<TrialRequest> = self
            .pending
            .drain(..)
            .map(|(id, config)| {
                let config = Arc::new(config);
                self.outstanding.insert(id, Arc::clone(&config));
                TrialRequest { id, config, epochs: self.epochs_per_trial }
            })
            .collect();
        for _ in &reqs {
            self.tracker.issue_epochs(self.epochs_per_trial);
        }
        reqs
    }

    fn report(&mut self, report: TrialReport) {
        let config = self
            .outstanding
            .remove(&report.id)
            .unwrap_or_else(|| panic!("report for unknown {}", report.id));
        self.tracker.observe(&config, report.score);
    }

    fn is_finished(&self) -> bool {
        self.issued && self.outstanding.is_empty()
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

    #[test]
    fn issues_n_unique_ids_once() {
        let mut r = RandomSearch::new(space(), 5, 3, 1);
        let reqs = r.next_trials();
        assert_eq!(reqs.len(), 5);
        let mut ids: Vec<u64> = reqs.iter().map(|r| r.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        assert!(r.next_trials().is_empty());
        assert_eq!(r.epochs_issued(), 15);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = RandomSearch::new(space(), 3, 1, 42);
        let mut b = RandomSearch::new(space(), 3, 1, 42);
        assert_eq!(a.next_trials(), b.next_trials());
    }

    #[test]
    fn finds_the_best_reported_score() {
        let mut r = RandomSearch::new(space(), 4, 1, 7);
        for req in r.next_trials() {
            let score = req.config["x"].as_f64(); // maximise x itself
            r.report(TrialReport { id: req.id, score, epochs_run: 1 });
        }
        assert!(r.is_finished());
        let (cfg, score) = r.best().unwrap();
        assert_eq!(cfg["x"].as_f64(), score);
    }
}
