//! Pluggable trial schedulers.
//!
//! The paper's architecture (Fig. 7) lists grid search, random search,
//! genetic optimisation, Bayesian optimisation and HyperBand as
//! interchangeable under the hyperparameter-tuning box, with HyperBand as
//! the evaluation's choice (§6). The reproduction implements the three its
//! evaluation uses — HyperBand, grid (Fig. 1) and random — and this module
//! makes the choice a configuration knob: every tuner (PipeTune and the
//! baselines) can run on any of them.

use pipetune_search::{GridSearch, HyperBand, RandomSearch, SearchSpace, TrialScheduler};

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
}

impl SchedulerKind {
    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::HyperBand => "hyperband",
            SchedulerKind::Random { .. } => "random",
            SchedulerKind::Grid { .. } => "grid",
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
            SchedulerKind::Grid { per_param } => Box::new(GridSearch::new(space, per_param, r_max)),
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
        let mut random = SchedulerKind::Random { trials: 0 }.build(space(), 1, 3, 1);
        assert!(!random.is_finished());
        assert_eq!(random.next_trials().len(), 1);
        // The grid clamps in `ParamSpec::grid_values`: zero points per
        // parameter plans the same one-point grid as one.
        let mut zero = SchedulerKind::Grid { per_param: 0 }.build(space(), 1, 3, 1);
        let mut one = SchedulerKind::Grid { per_param: 1 }.build(space(), 1, 3, 1);
        let batch = zero.next_trials();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch, one.next_trials());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SchedulerKind::default().name(), "hyperband");
        assert_eq!(SchedulerKind::Grid { per_param: 3 }.name(), "grid");
    }
}
