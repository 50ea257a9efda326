//! The PipeTune tuner: HyperBand over hyperparameters, pipelined system
//! tuning inside every trial, ground truth shared across jobs.

use serde::Serialize;

use crate::objective::{Objective, ProbeGoal};
use crate::runner::{run_job, Job};
use crate::trial::SystemTuner;
use crate::{
    ExperimentEnv, GroundTruth, GroundTruthStats, HyperParams, HyperSpace, PipeTuneError,
    WorkloadSpec,
};

/// One point on the convergence trajectory (Figs. 9 & 10): a trial finished
/// at `wall_secs` with the given accuracy and cumulative trial time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ConvergencePoint {
    /// Simulated wall-clock seconds since the HPT job started.
    pub wall_secs: f64,
    /// Held-out accuracy of the trial at that moment.
    pub accuracy: f32,
    /// The trial's cumulative duration (Fig. 10's trial time).
    pub trial_secs: f64,
}

/// Tuning knobs shared by PipeTune and the baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerOptions {
    /// HyperBand maximum per-trial epochs (`R`).
    pub r_max: u32,
    /// HyperBand halving factor (`η`).
    pub eta: u32,
    /// Epoch-range of the `epochs` hyperparameter.
    pub epochs_range: (i64, i64),
    /// Dataset scale for the real training substrate.
    pub scale: f32,
    /// What probing minimises.
    pub probe_goal: ProbeGoal,
    /// Ground-truth similarity threshold factor.
    pub threshold_factor: f64,
    /// Which search algorithm drives the trials (HyperBand in the paper).
    pub scheduler: crate::SchedulerKind,
    /// Which similarity function the ground truth fits (k-means in the
    /// paper; pluggable per §5.4).
    pub similarity: crate::SimilarityKind,
}

impl TunerOptions {
    /// Benchmark-harness profile: enough budget for paper-shaped results.
    pub fn paper() -> Self {
        TunerOptions {
            r_max: 27,
            eta: 3,
            epochs_range: (9, 27),
            scale: 1.0,
            probe_goal: ProbeGoal::Runtime,
            threshold_factor: 2.0,
            scheduler: crate::SchedulerKind::HyperBand,
            similarity: crate::SimilarityKind::KMeans { k: 2 },
        }
    }

    /// Test profile: small budgets, small datasets, seconds per run.
    pub fn fast() -> Self {
        TunerOptions {
            r_max: 9,
            eta: 3,
            epochs_range: (3, 9),
            scale: 0.2,
            probe_goal: ProbeGoal::Runtime,
            threshold_factor: 2.0,
            scheduler: crate::SchedulerKind::HyperBand,
            similarity: crate::SimilarityKind::KMeans { k: 2 },
        }
    }
}

impl Default for TunerOptions {
    fn default() -> Self {
        Self::paper()
    }
}

/// Everything a tuning run reports (feeds Table 2 and Figs. 9–14).
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Workload name.
    pub workload: &'static str,
    /// Accuracy of the selected model.
    pub best_accuracy: f32,
    /// Selected hyperparameters.
    pub best_hp: HyperParams,
    /// System configuration the selected model would train under.
    pub best_system: pipetune_cluster::SystemConfig,
    /// Time to train the selected model to its epoch budget (Table 2
    /// "training time").
    pub training_secs: f64,
    /// Simulated wall-clock duration of the whole HPT job (Table 2
    /// "tuning time").
    pub tuning_secs: f64,
    /// Cluster energy attributed to the job's trials, joules.
    pub tuning_energy_j: f64,
    /// Total epochs the scheduler issued.
    pub epochs_total: u64,
    /// Per-trial completion trace for convergence plots.
    pub convergence: Vec<ConvergencePoint>,
    /// Ground-truth behaviour during this job.
    pub gt_stats: GroundTruthStats,
    /// Trained weights of the selected model — the Fig. 6 output artefact
    /// (None for kernel workloads, which carry no weights).
    pub model_weights: Option<Vec<pipetune_tensor::Tensor>>,
    /// Scheduler id of the winning trial; its workload was instantiated with
    /// seed `env.subseed(best_trial_id)`, so the exact model/dataset can be
    /// rebuilt.
    pub best_trial_id: u64,
    /// Faults injected and recovered from during the job (clean when the
    /// environment's fault plan is empty).
    pub fault_report: pipetune_cluster::FaultReport,
    /// Epoch-reuse cache behaviour during this job (all-zero when
    /// [`ExperimentEnv::epoch_cache`] is disabled); `saved_secs` is the
    /// simulated epoch time adoption avoided (see `docs/reuse.md`).
    pub cache_stats: crate::CacheStats,
}

impl TuningOutcome {
    /// The run's durable checkpoint boundaries on its own wall clock,
    /// strictly inside `(0, tuning_secs)`, sorted ascending and deduped.
    ///
    /// Each [`ConvergencePoint`] marks a trial completing — the instant
    /// the executor's epoch-boundary snapshot of that trial is final and
    /// the run's progress is durably recoverable. A
    /// service resubmitting a crashed job resumes from the latest mark
    /// not past the crashed attempt's progress (falling back to a cold
    /// restart when the crash precedes the first mark), which is what
    /// makes resubmission a *resume* rather than a restart.
    pub fn checkpoint_marks(&self) -> Vec<f64> {
        let mut marks: Vec<f64> = self
            .convergence
            .iter()
            .map(|p| p.wall_secs)
            .filter(|w| w.is_finite() && *w > 0.0 && *w < self.tuning_secs)
            .collect();
        marks.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        marks.dedup();
        marks
    }
}

/// The PipeTune middleware. Holds the cross-job ground truth; run one HPT
/// job per [`PipeTune::run`] call.
///
/// ```no_run
/// use pipetune::{ExperimentEnv, PipeTune, TunerOptions, WorkloadSpec};
///
/// let env = ExperimentEnv::distributed(42);
/// let mut tuner = PipeTune::new(TunerOptions::fast());
/// // Jobs share the tuner's ground truth: the second job on a similar
/// // workload reuses the first job's probed optimum instead of re-probing.
/// let first = tuner.run(&env, &WorkloadSpec::lenet_mnist())?;
/// let second = tuner.run(&env, &WorkloadSpec::lenet_mnist())?;
/// assert!(second.gt_stats.hits > 0);
/// println!("{:.1}% in {:.0}s", 100.0 * first.best_accuracy, first.tuning_secs);
/// # Ok::<(), pipetune::PipeTuneError>(())
/// ```
#[derive(Debug)]
pub struct PipeTune {
    options: TunerOptions,
    ground_truth: GroundTruth,
    jobs_run: u64,
}

impl PipeTune {
    /// Creates a tuner with a fresh ground truth.
    pub fn new(options: TunerOptions) -> Self {
        PipeTune {
            ground_truth: GroundTruth::with_similarity(
                options.similarity,
                options.threshold_factor,
                0x6774,
            ),
            options,
            jobs_run: 0,
        }
    }

    /// Creates a tuner seeded with an existing ground truth (warm start,
    /// §7.2: "the user can point to a pre-trained similarity function").
    pub fn with_ground_truth(options: TunerOptions, ground_truth: GroundTruth) -> Self {
        PipeTune { ground_truth, options, jobs_run: 0 }
    }

    /// Read access to the cross-job ground truth.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.ground_truth
    }

    /// The options in force.
    pub fn options(&self) -> &TunerOptions {
        &self.options
    }

    /// Runs one HPT job: HyperBand over the paper's five hyperparameters,
    /// pipelined system tuning inside each trial.
    ///
    /// # Errors
    ///
    /// Propagates substrate and configuration errors.
    pub fn run(
        &mut self,
        env: &ExperimentEnv,
        spec: &WorkloadSpec,
    ) -> Result<TuningOutcome, PipeTuneError> {
        let goal = self.options.probe_goal;
        run_job(
            env,
            spec,
            &self.options,
            &mut self.jobs_run,
            Job {
                label: "pipetune",
                space: HyperSpace::paper(self.options.epochs_range),
                objective: Objective::Accuracy,
                policy: |_config| SystemTuner::pipelined(goal),
                ground_truth: Some(&mut self.ground_truth),
                contention: 1.0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipetune_runs_a_job_end_to_end() {
        let env = ExperimentEnv::distributed(11);
        let mut tuner = PipeTune::new(TunerOptions::fast());
        let out = tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
        assert!(out.best_accuracy > 0.15, "accuracy {}", out.best_accuracy);
        assert!(out.tuning_secs > 0.0);
        assert!(out.tuning_energy_j > 0.0);
        assert!(!out.convergence.is_empty());
        assert!(out.epochs_total > 0);
        // Convergence points are time-ordered.
        assert!(out.convergence.windows(2).all(|w| w[0].wall_secs <= w[1].wall_secs));
    }

    #[test]
    fn second_similar_job_hits_ground_truth() {
        let env = ExperimentEnv::distributed(12);
        let mut tuner = PipeTune::new(TunerOptions::fast());
        let first = tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
        assert!(first.gt_stats.recorded > 0, "first job should probe");
        let second = tuner.run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
        assert!(second.gt_stats.hits > 0, "second job should reuse: {:?}", second.gt_stats);
        // Reuse accelerates the job (no probe epochs at slow configs).
        assert!(second.tuning_secs <= first.tuning_secs * 1.1);
    }

    #[test]
    fn checkpoint_marks_are_sorted_interior_and_deduped() {
        let env = ExperimentEnv::distributed(11);
        let out =
            PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
        let marks = out.checkpoint_marks();
        assert!(!marks.is_empty(), "a real run checkpoints at least once");
        assert!(marks.windows(2).all(|w| w[0] < w[1]), "{marks:?}");
        assert!(marks.iter().all(|&m| m > 0.0 && m < out.tuning_secs), "{marks:?}");
        // Degenerate trace: nothing durable inside the run.
        let mut degenerate = out.clone();
        degenerate.convergence.clear();
        assert!(degenerate.checkpoint_marks().is_empty());
    }

    #[test]
    fn deterministic_per_environment_seed() {
        let run = || {
            let env = ExperimentEnv::distributed(33);
            PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_accuracy, b.best_accuracy);
        assert_eq!(a.tuning_secs, b.tuning_secs);
    }
}
