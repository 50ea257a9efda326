//! The trial-scheduler interface (Tune's "narrow waist").

use std::sync::Arc;

use crate::Config;

/// Identifier of a trial within one scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrialId(pub u64);

impl std::fmt::Display for TrialId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial{}", self.0)
    }
}

/// A unit of work the scheduler wants executed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRequest {
    /// Stable trial identity. HyperBand re-issues the same id with more
    /// epochs when a trial survives a rung; the runner resumes its model.
    pub id: TrialId,
    /// The configuration to train with, shared with the scheduler's own
    /// bookkeeping: a trial re-issued for another rung hands out the same
    /// allocation, and `&request.config` reads as a `&Config`.
    pub config: Arc<Config>,
    /// Additional epochs to run now (on top of whatever the trial already
    /// ran under this id).
    pub epochs: u32,
}

/// A completed unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReport {
    /// Which trial.
    pub id: TrialId,
    /// Score after the requested epochs; **higher is better**.
    pub score: f64,
    /// Epochs actually run for this request.
    pub epochs_run: u32,
}

/// A trial scheduler: the middleware asks for batches of trials, runs them
/// (possibly in parallel on the cluster), and reports scores back.
///
/// The contract:
/// 1. call [`TrialScheduler::next_trials`]; run every request;
/// 2. call [`TrialScheduler::report`] once per request;
/// 3. repeat until [`TrialScheduler::is_finished`].
///
/// Schedulers are deterministic given their construction seed.
pub trait TrialScheduler {
    /// The next batch of trials to execute. Empty while reports from the
    /// previous batch are still outstanding, and forever once finished.
    fn next_trials(&mut self) -> Vec<TrialRequest>;

    /// Reports one finished request.
    ///
    /// # Panics
    ///
    /// Implementations may panic when reporting an id that was never issued
    /// (a runner bug).
    fn report(&mut self, report: TrialReport);

    /// Returns `true` when no further trials will be issued.
    fn is_finished(&self) -> bool;

    /// Best configuration and score observed so far.
    fn best(&self) -> Option<(Config, f64)>;

    /// Total epochs issued so far (tuning-budget accounting).
    fn epochs_issued(&self) -> u64;
}

/// Shared bookkeeping for scheduler implementations: best-so-far and budget.
#[derive(Debug, Clone, Default)]
pub(crate) struct BestTracker {
    best: Option<(Config, f64)>,
    epochs_issued: u64,
}

impl BestTracker {
    pub(crate) fn observe(&mut self, config: &Config, score: f64) {
        if score.is_nan() {
            return;
        }
        match &self.best {
            Some((_, s)) if *s >= score => {}
            _ => self.best = Some((config.clone(), score)),
        }
    }

    pub(crate) fn issue_epochs(&mut self, epochs: u32) {
        self.epochs_issued += u64::from(epochs);
    }

    pub(crate) fn best(&self) -> Option<(Config, f64)> {
        self.best.clone()
    }

    pub(crate) fn epochs_issued(&self) -> u64 {
        self.epochs_issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamValue;

    #[test]
    fn best_tracker_keeps_maximum_and_ignores_nan() {
        let mut t = BestTracker::default();
        let mut c = Config::new();
        c.insert("x".into(), ParamValue::Int(1));
        t.observe(&c, 0.5);
        t.observe(&c, f64::NAN);
        t.observe(&c, 0.3);
        assert_eq!(t.best().unwrap().1, 0.5);
        t.observe(&c, 0.9);
        assert_eq!(t.best().unwrap().1, 0.9);
    }

    #[test]
    fn epoch_budget_accumulates() {
        let mut t = BestTracker::default();
        t.issue_epochs(10);
        t.issue_epochs(5);
        assert_eq!(t.epochs_issued(), 15);
    }
}
