//! Optimisation objectives (§5.1): accuracy only, or accuracy with time.

use serde::{Deserialize, Serialize};

/// What an HPT job optimises.
///
/// The paper's problem statement allows two goals: maximum accuracy
/// (Tune V1, PipeTune's hyper half) or maximum accuracy with minimum
/// training time (Tune V2 folds both into one scalar ratio).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Objective {
    /// Maximise model accuracy; duration is not part of the score.
    #[default]
    Accuracy,
    /// Maximise `accuracy / duration` (Tune V2's combined objective, §4).
    AccuracyPerTime,
}

impl Objective {
    /// Scalar score (higher is better) for a trial result.
    ///
    /// Durations at or below zero are clamped to one second so the ratio
    /// stays finite.
    pub(crate) fn score(&self, accuracy: f64, duration_secs: f64) -> f64 {
        match self {
            Objective::Accuracy => accuracy,
            Objective::AccuracyPerTime => accuracy / duration_secs.max(1.0),
        }
    }
}

/// What the probing phase minimises when picking a system configuration
/// (Algorithm 1 line 16): the paper mentions shortest runtime and lowest
/// energy as the optimisation functions of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ProbeGoal {
    /// Minimise epoch runtime.
    #[default]
    Runtime,
    /// Minimise epoch energy.
    Energy,
    /// Minimise the energy-delay product.
    EnergyDelay,
}

impl ProbeGoal {
    /// Cost of one probed epoch (lower is better).
    pub fn cost(&self, runtime_secs: f64, energy_j: f64) -> f64 {
        match self {
            ProbeGoal::Runtime => runtime_secs,
            ProbeGoal::Energy => energy_j,
            ProbeGoal::EnergyDelay => runtime_secs * energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_objective_ignores_duration() {
        assert_eq!(Objective::Accuracy.score(0.9, 100.0), 0.9);
        assert_eq!(Objective::Accuracy.score(0.9, 1.0), 0.9);
    }

    #[test]
    fn ratio_objective_prefers_faster_equal_accuracy() {
        let slow = Objective::AccuracyPerTime.score(0.9, 200.0);
        let fast = Objective::AccuracyPerTime.score(0.9, 100.0);
        assert!(fast > slow);
        assert!(Objective::AccuracyPerTime.score(0.9, 0.0).is_finite());
    }

    #[test]
    fn probe_goals_order_configs_differently() {
        // Config A: fast but hot; Config B: slow but cool.
        let (ra, ea) = (10.0, 2000.0);
        let (rb, eb) = (20.0, 1000.0);
        assert!(ProbeGoal::Runtime.cost(ra, ea) < ProbeGoal::Runtime.cost(rb, eb));
        assert!(ProbeGoal::Energy.cost(ra, ea) > ProbeGoal::Energy.cost(rb, eb));
    }
}
