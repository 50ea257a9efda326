//! The paper's baselines: Tune V1, Tune V2 (§4, §7.1.5) and the "Arbitrary"
//! row of Table 2.

use crate::hyper::system_from_config;
use crate::objective::Objective;
use crate::runner::{run_job, Job};
use crate::trial::{SystemTuner, TrialExecution};
use crate::tuner::{TunerOptions, TuningOutcome};
use crate::{ExperimentEnv, HyperParams, HyperSpace, PipeTuneError, WorkloadSpec};

/// Baseline I — Tune out of the box: HyperBand over hyperparameters only,
/// objective = accuracy, every trial at the default system configuration.
#[derive(Debug, Clone)]
pub struct TuneV1 {
    options: TunerOptions,
    jobs_run: u64,
}

impl TuneV1 {
    /// Creates the baseline.
    pub fn new(options: TunerOptions) -> Self {
        TuneV1 { options, jobs_run: 0 }
    }

    /// Runs one HPT job.
    ///
    /// # Errors
    ///
    /// Propagates substrate and configuration errors.
    pub fn run(
        &mut self,
        env: &ExperimentEnv,
        spec: &WorkloadSpec,
    ) -> Result<TuningOutcome, PipeTuneError> {
        self.run_with_contention(env, spec, 1.0)
    }

    /// Runs one HPT job under a fixed contention factor (Fig. 5 / §7.4).
    ///
    /// # Errors
    ///
    /// Propagates substrate and configuration errors.
    pub fn run_with_contention(
        &mut self,
        env: &ExperimentEnv,
        spec: &WorkloadSpec,
        contention: f64,
    ) -> Result<TuningOutcome, PipeTuneError> {
        let default_sys = env.default_system;
        run_job(
            env,
            spec,
            &self.options,
            &mut self.jobs_run,
            Job {
                label: "tune_v1",
                space: HyperSpace::paper(self.options.epochs_range),
                objective: Objective::Accuracy,
                policy: |_config| SystemTuner::Fixed(default_sys),
                ground_truth: None,
                contention,
            },
        )
    }
}

/// Baseline II — "system as hyperparameters": HyperBand over the union of
/// hyper and system parameters, objective = accuracy/duration, each trial
/// pinned to its sampled system configuration.
#[derive(Debug, Clone)]
pub struct TuneV2 {
    options: TunerOptions,
    jobs_run: u64,
}

impl TuneV2 {
    /// Creates the baseline.
    pub fn new(options: TunerOptions) -> Self {
        TuneV2 { options, jobs_run: 0 }
    }

    /// Runs one HPT job.
    ///
    /// # Errors
    ///
    /// Propagates substrate and configuration errors.
    pub fn run(
        &mut self,
        env: &ExperimentEnv,
        spec: &WorkloadSpec,
    ) -> Result<TuningOutcome, PipeTuneError> {
        self.run_with_contention(env, spec, 1.0)
    }

    /// Runs one HPT job under a fixed contention factor (Fig. 5).
    ///
    /// # Errors
    ///
    /// Propagates substrate and configuration errors.
    pub fn run_with_contention(
        &mut self,
        env: &ExperimentEnv,
        spec: &WorkloadSpec,
        contention: f64,
    ) -> Result<TuningOutcome, PipeTuneError> {
        // The system half of the space comes from the environment, so
        // experiments that pin jobs to fewer cores (Fig. 5) restrict what V2
        // can sample.
        let sys_space = pipetune_search::SearchSpace::new(vec![
            pipetune_search::ParamSpec::int_choice(
                "cores",
                &env.system_space.cores.iter().map(|&c| i64::from(c)).collect::<Vec<_>>(),
            ),
            pipetune_search::ParamSpec::int_choice(
                "memory_gb",
                &env.system_space.memory_gb.iter().map(|&m| i64::from(m)).collect::<Vec<_>>(),
            ),
        ]);
        let default_sys = env.default_system;
        run_job(
            env,
            spec,
            &self.options,
            &mut self.jobs_run,
            Job {
                label: "tune_v2",
                space: HyperSpace::paper(self.options.epochs_range).union(&sys_space),
                objective: Objective::AccuracyPerTime,
                policy: |config| {
                    SystemTuner::Fixed(system_from_config(config).unwrap_or(default_sys))
                },
                ground_truth: None,
                contention,
            },
        )
    }
}

/// The "Arbitrary" row of Table 2: train once with hand-picked (deliberately
/// untuned) hyperparameters under the default system configuration. There is
/// no tuning phase, so only accuracy and training time are reported.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn run_arbitrary(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    hp: &HyperParams,
    scale: f32,
) -> Result<(f32, f64), PipeTuneError> {
    let spec = spec.with_scale(scale);
    let workload = spec.instantiate(hp, env.subseed(0xA5B))?;
    let mut trial = TrialExecution::new(workload, SystemTuner::Fixed(env.default_system));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(env.subseed(0xA5C));
    trial.run_epochs(env, hp.epochs, None, 1.0, &mut rng)?;
    let accuracy = trial.accuracy()?;
    Ok((accuracy, trial.duration_secs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_keeps_the_default_system_configuration() {
        let env = ExperimentEnv::distributed(21);
        let out =
            TuneV1::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
        assert_eq!(out.best_system, env.default_system);
        assert!(out.best_accuracy > 0.1);
        assert!(out.tuning_secs > 0.0);
    }

    #[test]
    fn v2_explores_system_configurations() {
        let env = ExperimentEnv::distributed(22);
        let out =
            TuneV2::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist()).unwrap();
        // The chosen config is a member of the V2 grid.
        assert!([4, 8, 16].contains(&out.best_system.cores));
        assert!([4, 8, 16, 32].contains(&out.best_system.memory_gb));
    }

    #[test]
    fn contention_slows_tuning_down() {
        let env = ExperimentEnv::distributed(23);
        let alone = TuneV1::new(TunerOptions::fast())
            .run_with_contention(&env, &WorkloadSpec::lenet_mnist(), 1.0)
            .unwrap();
        let crowded = TuneV1::new(TunerOptions::fast())
            .run_with_contention(&env, &WorkloadSpec::lenet_mnist(), 3.0)
            .unwrap();
        assert!(crowded.tuning_secs > alone.tuning_secs * 2.0);
    }

    #[test]
    fn arbitrary_runs_without_tuning() {
        let env = ExperimentEnv::distributed(24);
        let hp = HyperParams { learning_rate: 0.09, epochs: 3, ..HyperParams::default() };
        let (acc, secs) = run_arbitrary(&env, &WorkloadSpec::lenet_mnist(), &hp, 0.2).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(secs > 0.0);
    }
}
