//! Pluggable trial schedulers.
//!
//! The paper's architecture (Fig. 7) lists grid search, random search,
//! genetic optimisation, Bayesian optimisation and HyperBand as
//! interchangeable under the hyperparameter-tuning box, with HyperBand as
//! the evaluation's choice (§6). This module makes that a configuration
//! knob: every tuner (PipeTune and the baselines) can run on any of them.

use pipetune_search::{
    Asha, Genetic, GridSearch, HyperBand, RandomSearch, SearchSpace, Tpe, TrialScheduler,
};

/// Which search algorithm drives the trials.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchedulerKind {
    /// HyperBand with the configured `r_max`/`eta` (the paper's choice).
    #[default]
    HyperBand,
    /// Random search: `trials` samples, each at the full `r_max` budget.
    Random {
        /// Number of sampled configurations.
        trials: usize,
    },
    /// Exhaustive grid with `per_param` points per ranged parameter —
    /// Fig. 1's exponential baseline.
    Grid {
        /// Grid resolution per parameter.
        per_param: usize,
    },
    /// TPE-style sequential Bayesian optimisation.
    Tpe {
        /// Number of sequential trials.
        trials: usize,
    },
    /// Generational genetic search.
    Genetic {
        /// Individuals per generation.
        population: usize,
        /// Number of generations.
        generations: usize,
    },
    /// Asynchronous successive halving (barrier-free HyperBand; extension).
    Asha {
        /// Configurations to sample.
        trials: usize,
    },
}

impl SchedulerKind {
    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::HyperBand => "hyperband",
            SchedulerKind::Random { .. } => "random",
            SchedulerKind::Grid { .. } => "grid",
            SchedulerKind::Tpe { .. } => "tpe",
            SchedulerKind::Genetic { .. } => "genetic",
            SchedulerKind::Asha { .. } => "asha",
        }
    }

    /// Instantiates the scheduler over `space` with the given per-trial
    /// epoch budget and seed.
    pub fn build(
        &self,
        space: SearchSpace,
        r_max: u32,
        eta: u32,
        seed: u64,
    ) -> Box<dyn TrialScheduler> {
        match *self {
            SchedulerKind::HyperBand => Box::new(HyperBand::new(space, r_max, eta, seed)),
            SchedulerKind::Random { trials } => {
                Box::new(RandomSearch::new(space, trials.max(1), r_max, seed))
            }
            SchedulerKind::Grid { per_param } => {
                Box::new(GridSearch::new(space, per_param.max(1), r_max))
            }
            SchedulerKind::Tpe { trials } => Box::new(Tpe::new(space, trials.max(1), r_max, seed)),
            SchedulerKind::Genetic { population, generations } => {
                Box::new(Genetic::new(space, population.max(2), generations.max(1), r_max, seed))
            }
            SchedulerKind::Asha { trials } => {
                Box::new(Asha::new(space, r_max, eta.max(2), trials.max(1), seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_search::{ParamSpec, TrialReport};

    fn space() -> SearchSpace {
        SearchSpace::new(vec![ParamSpec::float_range("x", 0.0, 1.0, false)])
    }

    #[test]
    fn every_kind_builds_and_terminates() {
        for kind in [
            SchedulerKind::HyperBand,
            SchedulerKind::Random { trials: 4 },
            SchedulerKind::Grid { per_param: 3 },
            SchedulerKind::Tpe { trials: 4 },
            SchedulerKind::Genetic { population: 4, generations: 2 },
            SchedulerKind::Asha { trials: 6 },
        ] {
            let mut sched = kind.build(space(), 3, 3, 7);
            let mut guard = 0;
            while !sched.is_finished() {
                for r in sched.next_trials() {
                    let score = r.config["x"].as_f64();
                    sched.report(TrialReport { id: r.id, score, epochs_run: r.epochs });
                }
                guard += 1;
                assert!(guard < 10_000, "{} did not terminate", kind.name());
            }
            assert!(sched.best().is_some(), "{} found nothing", kind.name());
            assert!(sched.epochs_issued() > 0);
        }
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let mut sched =
            SchedulerKind::Genetic { population: 0, generations: 0 }.build(space(), 1, 3, 1);
        assert!(!sched.is_finished());
        let batch = sched.next_trials();
        assert!(!batch.is_empty());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SchedulerKind::default().name(), "hyperband");
        assert_eq!(SchedulerKind::Grid { per_param: 3 }.name(), "grid");
    }
}
