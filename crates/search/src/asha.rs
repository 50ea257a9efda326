//! ASHA — asynchronous successive halving (Li et al., MLSys 2020).
//!
//! HyperBand's rungs are synchronisation barriers: every trial in a rung
//! must report before any survivor advances. ASHA removes the barrier: a
//! trial is promoted the moment it sits in the top `1/eta` of *currently
//! completed* results at its rung, and fresh configurations are sampled
//! whenever nothing is promotable. On a cluster this keeps every slot busy —
//! the natural next step for PipeTune's trial scheduling, included here as
//! an extension.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scheduler::BestTracker;
use crate::{Config, SearchSpace, TrialId, TrialReport, TrialRequest, TrialScheduler};

/// ASHA over a [`SearchSpace`].
#[derive(Debug, Clone)]
pub struct Asha {
    space: SearchSpace,
    eta: u32,
    r_base: u32,
    r_max: u32,
    max_trials: usize,
    batch: usize,
    /// Completed (trial, score) per rung index.
    rungs: Vec<Vec<(TrialId, f64)>>,
    /// Trials already promoted out of a rung.
    promoted: Vec<Vec<TrialId>>,
    configs: HashMap<TrialId, Arc<Config>>,
    epochs_reached: HashMap<TrialId, u32>,
    /// Rung each outstanding trial is running toward.
    outstanding: HashMap<TrialId, usize>,
    sampled: usize,
    tracker: BestTracker,
    rng: StdRng,
}

impl Asha {
    /// Creates an ASHA run: up to `max_trials` sampled configurations,
    /// per-trial budget growing from 1 epoch by factors of `eta` up to
    /// `r_max`, issuing at most `batch` concurrent trials per
    /// [`TrialScheduler::next_trials`] call.
    ///
    /// # Panics
    ///
    /// Panics when `eta < 2`, `r_max` is zero or `max_trials` is zero.
    pub fn new(space: SearchSpace, r_max: u32, eta: u32, max_trials: usize, seed: u64) -> Self {
        assert!(eta >= 2, "eta must be at least 2");
        assert!(r_max >= 1, "r_max must be at least 1");
        assert!(max_trials >= 1, "max_trials must be at least 1");
        let mut n_rungs = 1usize;
        let mut r = 1u64;
        while r * u64::from(eta) <= u64::from(r_max) {
            r *= u64::from(eta);
            n_rungs += 1;
        }
        Asha {
            space,
            eta,
            r_base: 1,
            r_max,
            max_trials,
            batch: 4,
            rungs: vec![Vec::new(); n_rungs],
            promoted: vec![Vec::new(); n_rungs],
            configs: HashMap::new(),
            epochs_reached: HashMap::new(),
            outstanding: HashMap::new(),
            sampled: 0,
            tracker: BestTracker::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Total epochs a trial should have run once it completes rung `k`.
    fn rung_budget(&self, k: usize) -> u32 {
        (u64::from(self.r_base) * u64::from(self.eta).pow(k as u32)).min(u64::from(self.r_max))
            as u32
    }

    /// Finds one promotable trial: completed in rung `k`, in the top
    /// `1/eta` of rung `k` completions, not yet promoted.
    fn pop_promotable(&mut self) -> Option<(TrialId, usize)> {
        for k in (0..self.rungs.len().saturating_sub(1)).rev() {
            let done = &self.rungs[k];
            let quota = done.len() / self.eta as usize;
            if quota == 0 {
                continue;
            }
            let mut ranked = done.clone();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            for &(id, _) in ranked.iter().take(quota) {
                if !self.promoted[k].contains(&id) && !self.outstanding.contains_key(&id) {
                    self.promoted[k].push(id);
                    return Some((id, k + 1));
                }
            }
        }
        None
    }
}

impl TrialScheduler for Asha {
    fn next_trials(&mut self) -> Vec<TrialRequest> {
        let mut reqs = Vec::new();
        while reqs.len() < self.batch {
            if let Some((id, rung)) = self.pop_promotable() {
                let target = self.rung_budget(rung);
                let reached = self.epochs_reached.get(&id).copied().unwrap_or(0);
                let additional = target.saturating_sub(reached);
                self.outstanding.insert(id, rung);
                if additional == 0 {
                    // Rounding made this promotion free; complete it with
                    // its previous score immediately at the next report�-less
                    // pass by recording it directly.
                    let score = self.rungs[rung - 1]
                        .iter()
                        .find(|(i, _)| *i == id)
                        .map(|(_, s)| *s)
                        .unwrap_or(f64::NEG_INFINITY);
                    self.outstanding.remove(&id);
                    self.rungs[rung].push((id, score));
                    continue;
                }
                self.epochs_reached.insert(id, target);
                self.tracker.issue_epochs(additional);
                reqs.push(TrialRequest {
                    id,
                    config: Arc::clone(&self.configs[&id]),
                    epochs: additional,
                });
            } else if self.sampled < self.max_trials {
                let id = TrialId(self.sampled as u64);
                self.sampled += 1;
                let config = Arc::new(self.space.sample(&mut self.rng));
                self.configs.insert(id, Arc::clone(&config));
                let budget = self.rung_budget(0);
                self.epochs_reached.insert(id, budget);
                self.outstanding.insert(id, 0);
                self.tracker.issue_epochs(budget);
                reqs.push(TrialRequest { id, config, epochs: budget });
            } else {
                break;
            }
        }
        reqs
    }

    fn report(&mut self, report: TrialReport) {
        let rung = self
            .outstanding
            .remove(&report.id)
            .unwrap_or_else(|| panic!("report for unknown {}", report.id));
        self.rungs[rung].push((report.id, report.score));
        self.tracker.observe(&self.configs[&report.id], report.score);
    }

    fn is_finished(&self) -> bool {
        if !self.outstanding.is_empty() || self.sampled < self.max_trials {
            return false;
        }
        // No outstanding work and no promotions left to make.
        let mut probe = self.clone();
        probe.pop_promotable().is_none()
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

    fn run(max_trials: usize, r_max: u32, seed: u64) -> Asha {
        let mut asha = Asha::new(space(), r_max, 3, max_trials, seed);
        let mut guard = 0;
        while !asha.is_finished() {
            let reqs = asha.next_trials();
            assert!(!reqs.is_empty() || asha.is_finished(), "wedged");
            for r in reqs {
                let score = r.config["x"].as_f64();
                asha.report(TrialReport { id: r.id, score, epochs_run: r.epochs });
            }
            guard += 1;
            assert!(guard < 10_000, "non-terminating");
        }
        asha
    }

    #[test]
    fn rung_count_follows_eta_geometry() {
        assert_eq!(Asha::new(space(), 27, 3, 10, 0).rungs.len(), 4); // 1,3,9,27
        assert_eq!(Asha::new(space(), 9, 3, 10, 0).rungs.len(), 3);
        assert_eq!(Asha::new(space(), 1, 3, 10, 0).rungs.len(), 1);
    }

    #[test]
    fn completes_and_finds_a_good_configuration() {
        let asha = run(20, 9, 7);
        let (cfg, score) = asha.best().unwrap();
        assert_eq!(cfg["x"].as_f64(), score);
        assert!(score > 0.7, "best of 20 should be high: {score}");
    }

    #[test]
    fn per_trial_budget_never_exceeds_r_max() {
        let asha = run(15, 9, 3);
        for (&_, &epochs) in &asha.epochs_reached {
            assert!(epochs <= 9);
        }
        // Issued epochs accounted exactly.
        let total: u64 = asha.epochs_issued();
        assert!(total >= 15, "at least one epoch per sampled trial");
    }

    #[test]
    fn only_top_scorers_reach_the_final_rung() {
        let asha = run(30, 9, 11);
        let top_rung = asha.rungs.last().unwrap();
        assert!(!top_rung.is_empty(), "someone should graduate");
        // Every graduate scored above the median of rung 0.
        let mut rung0: Vec<f64> = asha.rungs[0].iter().map(|(_, s)| *s).collect();
        rung0.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rung0[rung0.len() / 2];
        for (_, s) in top_rung {
            assert!(*s >= median, "graduate scored {s} below rung-0 median {median}");
        }
    }

    #[test]
    fn issues_work_in_batches_without_barriers() {
        let mut asha = Asha::new(space(), 9, 3, 12, 5);
        let first = asha.next_trials();
        assert_eq!(first.len(), 4, "fills the batch");
        // Reporting a single trial lets the scheduler keep issuing without
        // waiting for the other three (no barrier).
        let r = &first[0];
        asha.report(TrialReport { id: r.id, score: 0.9, epochs_run: r.epochs });
        assert!(!asha.next_trials().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(12, 9, 2).best().unwrap(), run(12, 9, 2).best().unwrap());
    }
}
