//! Exhaustive grid search.

use std::collections::HashMap;
use std::sync::Arc;

use crate::scheduler::BestTracker;
use crate::{Config, SearchSpace, TrialId, TrialReport, TrialRequest, TrialScheduler};

/// Exhaustive grid search: every grid point runs for the full epoch budget.
///
/// This is the naive baseline whose cost explodes with the parameter count
/// (Fig. 1).
#[derive(Debug, Clone)]
pub struct GridSearch {
    pending: Vec<(TrialId, Config)>,
    outstanding: HashMap<TrialId, Arc<Config>>,
    epochs_per_trial: u32,
    tracker: BestTracker,
    issued: bool,
}

impl GridSearch {
    /// Plans a grid with `per_param` points per ranged parameter, each trial
    /// running `epochs_per_trial` epochs.
    pub fn new(space: SearchSpace, per_param: usize, epochs_per_trial: u32) -> Self {
        let pending = space
            .grid(per_param)
            .into_iter()
            .enumerate()
            .map(|(i, c)| (TrialId(i as u64), c))
            .collect();
        GridSearch {
            pending,
            outstanding: HashMap::new(),
            epochs_per_trial,
            tracker: BestTracker::default(),
            issued: false,
        }
    }

    /// Number of grid points.
    pub fn num_trials(&self) -> usize {
        self.pending.len() + self.outstanding.len()
    }
}

impl TrialScheduler for GridSearch {
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

    #[test]
    fn grid_runs_every_point_once() {
        let space = SearchSpace::new(vec![
            ParamSpec::int_choice("a", &[1, 2, 3]),
            ParamSpec::int_choice("b", &[10, 20]),
        ]);
        let mut g = GridSearch::new(space, 3, 5);
        assert_eq!(g.num_trials(), 6);
        let reqs = g.next_trials();
        assert_eq!(reqs.len(), 6);
        assert!(g.next_trials().is_empty(), "single batch only");
        for r in reqs {
            let score = r.config["a"].as_f64() + r.config["b"].as_f64();
            g.report(TrialReport { id: r.id, score, epochs_run: 5 });
        }
        assert!(g.is_finished());
        let (best, score) = g.best().unwrap();
        assert_eq!(score, 23.0);
        assert_eq!(best["a"].as_i64(), 3);
        assert_eq!(g.epochs_issued(), 30);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn unknown_report_panics() {
        let space = SearchSpace::new(vec![ParamSpec::int_choice("a", &[1])]);
        let mut g = GridSearch::new(space, 1, 1);
        let _ = g.next_trials();
        g.report(TrialReport { id: TrialId(99), score: 0.0, epochs_run: 1 });
    }
}
