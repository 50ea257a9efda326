//! HyperBand (Li et al., JMLR 2017) — the scheduler the paper evaluates with.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scheduler::BestTracker;
use crate::{Config, SearchSpace, TrialId, TrialReport, TrialRequest, TrialScheduler};

#[derive(Debug, Clone)]
struct Bracket {
    /// Successive-halving schedule: rung index → (n_i, r_i).
    rungs: Vec<(usize, u32)>,
    /// Configurations sampled for this bracket (head of the list survives).
    alive: Vec<TrialId>,
    next_rung: usize,
}

/// HyperBand over a [`SearchSpace`].
///
/// `R` is the maximum epochs a single trial may consume and `eta` the
/// halving factor (the canonical 3 by default). Brackets trade the number of
/// sampled configurations against per-trial budget; within each bracket
/// successive halving promotes the top `1/eta` fraction at each rung.
///
/// Trials keep their [`TrialId`] across rungs, and re-issued requests carry
/// only the *additional* epochs, so runners resume checkpointed models
/// exactly as Tune does.
#[derive(Debug, Clone)]
pub struct HyperBand {
    space: SearchSpace,
    brackets: Vec<Bracket>,
    current_bracket: usize,
    configs: HashMap<TrialId, Arc<Config>>,
    epochs_reached: HashMap<TrialId, u32>,
    rung_scores: HashMap<TrialId, f64>,
    last_scores: HashMap<TrialId, f64>,
    outstanding: usize,
    rung_issued: bool,
    tracker: BestTracker,
    next_id: u64,
    rng: StdRng,
}

impl HyperBand {
    /// Creates a HyperBand run with maximum per-trial budget `r_max` epochs
    /// and halving factor `eta` (≥ 2).
    ///
    /// # Panics
    ///
    /// Panics when `r_max` is zero or `eta < 2`.
    pub fn new(space: SearchSpace, r_max: u32, eta: u32, seed: u64) -> Self {
        assert!(r_max >= 1, "r_max must be at least 1");
        assert!(eta >= 2, "eta must be at least 2");
        let eta_f = f64::from(eta);
        let s_max = (f64::from(r_max).ln() / eta_f.ln()).floor() as i32;
        let budget = f64::from(s_max + 1) * f64::from(r_max);
        let mut hb = HyperBand {
            space,

            brackets: Vec::new(),
            current_bracket: 0,
            configs: HashMap::new(),
            epochs_reached: HashMap::new(),
            rung_scores: HashMap::new(),
            last_scores: HashMap::new(),
            outstanding: 0,
            rung_issued: false,
            tracker: BestTracker::default(),
            next_id: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        for s in (0..=s_max).rev() {
            let n =
                ((budget / f64::from(r_max)) * eta_f.powi(s) / f64::from(s + 1)).ceil() as usize;
            let r = f64::from(r_max) * eta_f.powi(-s);
            let mut rungs = Vec::new();
            for i in 0..=s {
                let n_i = ((n as f64) * eta_f.powi(-i)).floor().max(1.0) as usize;
                let r_i = (r * eta_f.powi(i)).round().max(1.0) as u32;
                rungs.push((n_i, r_i.min(r_max)));
            }
            // Sample the bracket's configurations up front (deterministic).
            let alive: Vec<TrialId> = (0..n)
                .map(|_| {
                    let id = TrialId(hb.next_id);
                    hb.next_id += 1;
                    let cfg = hb.space.sample(&mut hb.rng);
                    hb.configs.insert(id, Arc::new(cfg));
                    hb.epochs_reached.insert(id, 0);
                    id
                })
                .collect();
            hb.brackets.push(Bracket { rungs, alive, next_rung: 0 });
        }
        hb
    }

    fn advance_rung(&mut self) {
        let bracket = &mut self.brackets[self.current_bracket];
        // Rank current rung by reported score, descending.
        let mut ranked: Vec<(TrialId, f64)> = bracket
            .alive
            .iter()
            .map(|id| (*id, self.rung_scores.get(id).copied().unwrap_or(f64::NEG_INFINITY)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        bracket.next_rung += 1;
        if bracket.next_rung < bracket.rungs.len() {
            let keep = bracket.rungs[bracket.next_rung].0;
            bracket.alive = ranked.into_iter().take(keep).map(|(id, _)| id).collect();
        } else {
            bracket.alive.clear();
            self.current_bracket += 1;
        }
        self.rung_scores.clear();
        self.rung_issued = false;
    }
}

impl TrialScheduler for HyperBand {
    fn next_trials(&mut self) -> Vec<TrialRequest> {
        if self.outstanding > 0 || self.is_finished() || self.rung_issued {
            return Vec::new();
        }
        let bracket = &self.brackets[self.current_bracket];
        let rung = bracket.next_rung;
        let (_, target) = bracket.rungs[rung];
        let mut reqs = Vec::new();
        for id in bracket.alive.clone() {
            let reached = self.epochs_reached[&id];
            let additional = target.saturating_sub(reached);
            if additional == 0 {
                // Budget rounding can make a rung a no-op for a trial; carry
                // its last observed score forward rather than re-running.
                let prev = self.last_scores.get(&id).copied().unwrap_or(f64::NEG_INFINITY);
                self.rung_scores.insert(id, prev);
                continue;
            }
            self.epochs_reached.insert(id, target);
            self.tracker.issue_epochs(additional);
            reqs.push(TrialRequest {
                id,
                config: Arc::clone(&self.configs[&id]),
                epochs: additional,
            });
        }
        self.outstanding = reqs.len();
        self.rung_issued = true;
        if reqs.is_empty() {
            // Entire rung was a no-op (all budgets already met): advance.
            self.advance_rung();
            return self.next_trials();
        }
        reqs
    }

    fn report(&mut self, report: TrialReport) {
        assert!(self.configs.contains_key(&report.id), "report for unknown {}", report.id);
        assert!(self.outstanding > 0, "report with no outstanding trials");
        self.rung_scores.insert(report.id, report.score);
        self.last_scores.insert(report.id, report.score);
        self.tracker.observe(&self.configs[&report.id], report.score);
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.advance_rung();
        }
    }

    fn is_finished(&self) -> bool {
        self.current_bracket >= self.brackets.len()
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

    /// Runs HyperBand to completion with score = x (so best x survives).
    fn run(r_max: u32) -> HyperBand {
        let mut hb = HyperBand::new(space(), r_max, 3, 11);
        let mut guard = 0;
        while !hb.is_finished() {
            let reqs = hb.next_trials();
            assert!(!reqs.is_empty() || hb.is_finished(), "stuck scheduler");
            for r in reqs {
                let score = r.config["x"].as_f64();
                hb.report(TrialReport { id: r.id, score, epochs_run: r.epochs });
            }
            guard += 1;
            assert!(guard < 1000, "non-terminating");
        }
        hb
    }

    #[test]
    fn bracket_count_matches_formula() {
        let hb = HyperBand::new(space(), 81, 3, 0);
        assert_eq!(hb.brackets.len(), 5); // s_max = 4
        let hb = HyperBand::new(space(), 9, 3, 0);
        assert_eq!(hb.brackets.len(), 3);
    }

    #[test]
    fn completes_and_tracks_best() {
        let hb = run(27);
        let (cfg, score) = hb.best().unwrap();
        assert_eq!(cfg["x"].as_f64(), score);
        assert!(score > 0.8, "best-of-many should be high, got {score}");
    }

    #[test]
    fn budget_is_bounded_by_theory() {
        // Total epochs ≈ (s_max+1)² · R; allow rounding slack.
        let r_max = 27u32;
        let hb = run(r_max);
        let s_max = 3u64;
        let bound = (s_max + 1) * (s_max + 1) * u64::from(r_max);
        assert!(
            hb.epochs_issued() <= bound * 2,
            "{} epochs exceeds 2x theory bound {bound}",
            hb.epochs_issued()
        );
        assert!(hb.epochs_issued() > u64::from(r_max), "suspiciously little work");
    }

    #[test]
    fn survivors_are_top_scored() {
        let mut hb = HyperBand::new(space(), 9, 3, 5);
        let first = hb.next_trials();
        let n0 = first.len();
        // Report scores equal to x.
        let mut scored: Vec<(TrialId, f64)> =
            first.iter().map(|r| (r.id, r.config["x"].as_f64())).collect();
        for r in &first {
            hb.report(TrialReport {
                id: r.id,
                score: r.config["x"].as_f64(),
                epochs_run: r.epochs,
            });
        }
        let second = hb.next_trials();
        assert!(second.len() < n0, "rung should shrink: {} -> {}", n0, second.len());
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top: Vec<TrialId> = scored.iter().take(second.len()).map(|(id, _)| *id).collect();
        for r in &second {
            assert!(top.contains(&r.id), "{} was not a top scorer", r.id);
        }
    }

    #[test]
    fn trials_resume_with_additional_epochs_only() {
        let mut hb = HyperBand::new(space(), 9, 3, 5);
        let first = hb.next_trials();
        let first_epochs = first[0].epochs;
        for r in &first {
            hb.report(TrialReport { id: r.id, score: 0.5, epochs_run: r.epochs });
        }
        let second = hb.next_trials();
        if let Some(r) = second.first() {
            assert!(r.epochs >= 1);
            assert!(first_epochs + r.epochs <= 9 + 1, "cumulative budget within R");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(9).best().unwrap();
        let b = run(9).best().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn r_max_one_degenerates_to_random_search() {
        let hb = run(1);
        assert!(hb.is_finished());
        assert!(hb.best().is_some());
    }
}
