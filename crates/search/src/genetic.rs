//! Generational genetic search (evolutionary hyperparameter optimisation).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scheduler::BestTracker;
use crate::{Config, ParamValue, SearchSpace, TrialId, TrialReport, TrialRequest, TrialScheduler};

/// Generational GA: tournament selection, uniform crossover, per-parameter
/// mutation. One of the paper's pluggable "genetic optimization" schedulers.
#[derive(Debug, Clone)]
pub struct Genetic {
    space: SearchSpace,
    population: usize,
    generations: usize,
    mutation_rate: f64,
    epochs_per_trial: u32,
    current: Vec<Config>,
    scores: Vec<Option<f64>>,
    outstanding: HashMap<TrialId, usize>,
    generation: usize,
    issued_this_gen: bool,
    tracker: BestTracker,
    rng: StdRng,
    next_id: u64,
}

impl Genetic {
    /// Creates a GA run of `generations × population` trials.
    ///
    /// # Panics
    ///
    /// Panics if `population < 2`.
    pub fn new(
        space: SearchSpace,
        population: usize,
        generations: usize,
        epochs_per_trial: u32,
        seed: u64,
    ) -> Self {
        assert!(population >= 2, "population must be at least 2");
        let mut rng = StdRng::seed_from_u64(seed);
        let current = (0..population).map(|_| space.sample(&mut rng)).collect();
        Genetic {
            space,
            population,
            generations,
            mutation_rate: 0.2,
            epochs_per_trial,
            current,
            scores: vec![None; population],
            outstanding: HashMap::new(),
            generation: 0,
            issued_this_gen: false,
            tracker: BestTracker::default(),
            rng,
            next_id: 0,
        }
    }

    fn tournament(&mut self) -> usize {
        let a = self.rng.gen_range(0..self.population);
        let b = self.rng.gen_range(0..self.population);
        let sa = self.scores[a].unwrap_or(f64::NEG_INFINITY);
        let sb = self.scores[b].unwrap_or(f64::NEG_INFINITY);
        if sa >= sb {
            a
        } else {
            b
        }
    }

    fn mutate_value(&mut self, name: &str) -> ParamValue {
        let spec = self
            .space
            .params()
            .iter()
            .find(|p| p.name() == name)
            .expect("mutating a known parameter");
        spec.sample(&mut self.rng)
    }

    fn breed(&mut self) -> Vec<Config> {
        let mut next = Vec::with_capacity(self.population);
        // Elitism: carry the best individual forward unchanged.
        let best_idx = (0..self.population)
            .max_by(|&a, &b| {
                self.scores[a]
                    .unwrap_or(f64::NEG_INFINITY)
                    .partial_cmp(&self.scores[b].unwrap_or(f64::NEG_INFINITY))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        next.push(self.current[best_idx].clone());
        while next.len() < self.population {
            let pa = self.tournament();
            let pb = self.tournament();
            let names: Vec<String> = self.current[pa].keys().cloned().collect();
            let mut child = Config::new();
            for name in names {
                let from_a = self.rng.gen::<bool>();
                let v = if self.rng.gen::<f64>() < self.mutation_rate {
                    self.mutate_value(&name)
                } else if from_a {
                    self.current[pa][&name].clone()
                } else {
                    self.current[pb][&name].clone()
                };
                child.insert(name, v);
            }
            next.push(child);
        }
        next
    }
}

impl TrialScheduler for Genetic {
    fn next_trials(&mut self) -> Vec<TrialRequest> {
        if !self.outstanding.is_empty() || self.is_finished() || self.issued_this_gen {
            return Vec::new();
        }
        self.issued_this_gen = true;
        let mut reqs = Vec::with_capacity(self.population);
        for (i, cfg) in self.current.iter().enumerate() {
            let id = TrialId(self.next_id);
            self.next_id += 1;
            self.outstanding.insert(id, i);
            self.tracker.issue_epochs(self.epochs_per_trial);
            reqs.push(TrialRequest {
                id,
                config: Arc::new(cfg.clone()),
                epochs: self.epochs_per_trial,
            });
        }
        reqs
    }

    fn report(&mut self, report: TrialReport) {
        let idx = self
            .outstanding
            .remove(&report.id)
            .unwrap_or_else(|| panic!("report for unknown {}", report.id));
        self.scores[idx] = Some(report.score);
        self.tracker.observe(&self.current[idx], report.score);
        if self.outstanding.is_empty() {
            self.generation += 1;
            if self.generation < self.generations {
                self.current = self.breed();
                self.scores = vec![None; self.population];
                self.issued_this_gen = false;
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.generation >= self.generations && self.outstanding.is_empty()
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
        SearchSpace::new(vec![
            ParamSpec::float_range("x", 0.0, 1.0, false),
            ParamSpec::float_range("y", 0.0, 1.0, false),
        ])
    }

    fn objective(c: &Config) -> f64 {
        // Peak at (0.3, 0.8).
        2.0 - (c["x"].as_f64() - 0.3).abs() - (c["y"].as_f64() - 0.8).abs()
    }

    fn run(seed: u64) -> Genetic {
        let mut ga = Genetic::new(space(), 10, 8, 2, seed);
        while !ga.is_finished() {
            for r in ga.next_trials() {
                ga.report(TrialReport { id: r.id, score: objective(&r.config), epochs_run: 2 });
            }
        }
        ga
    }

    #[test]
    fn improves_over_generations() {
        let ga = run(4);
        let (_, best) = ga.best().unwrap();
        assert!(best > 1.7, "best {best}");
        assert_eq!(ga.epochs_issued(), 10 * 8 * 2);
    }

    #[test]
    fn elitism_preserves_best_score_monotonically() {
        let mut ga = Genetic::new(space(), 8, 5, 1, 7);
        let mut last_best = f64::NEG_INFINITY;
        while !ga.is_finished() {
            for r in ga.next_trials() {
                ga.report(TrialReport { id: r.id, score: objective(&r.config), epochs_run: 1 });
            }
            let (_, b) = ga.best().unwrap();
            assert!(b >= last_best);
            last_best = b;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(2).best().unwrap(), run(2).best().unwrap());
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_panics() {
        let _ = Genetic::new(space(), 1, 1, 1, 0);
    }
}
