//! # PipeTune: pipelined hyper- and system-parameter tuning
//!
//! Reproduction of *PipeTune: Pipeline Parallelism of Hyper and System
//! Parameters Tuning for Deep Learning Clusters* (Rocha et al., Middleware
//! 2020). PipeTune is a middleware between a hyperparameter tuner (HyperBand
//! over the paper's five hyperparameters) and the training substrate. While
//! each trial trains, PipeTune tunes **system parameters** (CPU cores,
//! memory) at epoch granularity:
//!
//! 1. **profile** the first epoch with hardware counters
//!    ([`pipetune_perfmon`]),
//! 2. consult the **ground truth** (k-means over historical profiles,
//!    [`GroundTruth`]) and reuse a known-best system configuration when the
//!    profile is similar enough,
//! 3. otherwise **probe**: one system configuration per epoch over the grid,
//!    then apply the best for the remaining epochs and remember it.
//!
//! The crate also implements the paper's baselines — [`TuneV1`]
//! (hyperparameters only, maximise accuracy) and [`TuneV2`] (system
//! parameters folded into the search space, maximise accuracy/time) — plus
//! single- and multi-tenancy experiment drivers used by the benchmark
//! harness to regenerate every figure and table.
//!
//! # Example
//!
//! ```no_run
//! use pipetune::{ExperimentEnv, PipeTune, TunerOptions, WorkloadSpec};
//!
//! let env = ExperimentEnv::distributed(42);
//! let spec = WorkloadSpec::lenet_mnist();
//! let outcome = PipeTune::new(TunerOptions::fast()).run(&env, &spec)?;
//! println!("accuracy {:.1}%, tuning {:.0}s", 100.0 * outcome.best_accuracy,
//!          outcome.tuning_secs);
//! # Ok::<(), pipetune::PipeTuneError>(())
//! ```

#![warn(missing_docs)]

mod baselines;
mod cache;
mod env;
mod error;
mod experiments;
mod groundtruth;
mod hyper;
mod objective;
pub mod observe;
mod related;
mod runner;
mod scheduler_choice;
mod sharing;
mod trial;
mod tuner;
mod workload;

pub use baselines::{run_arbitrary, TuneV1, TuneV2};
pub use cache::{CacheStats, EpochCacheConfig, EpochCacheHandle};
pub use env::{ExperimentEnv, ExperimentEnvBuilder};
pub use error::PipeTuneError;
pub use experiments::{
    multi_tenancy, multi_tenancy_shared, single_tenancy, warm_start_ground_truth,
    MultiTenancyOptions, MultiTenancyOutcome, SingleTenancyRow,
};
pub use groundtruth::{GroundTruth, GroundTruthAccess, GroundTruthStats, SimilarityKind};
pub use hyper::{HyperParams, HyperSpace};
pub use objective::ProbeGoal;
pub use pipetune_cluster::{FaultKind, FaultPlan, FaultReport};
pub use related::{related_systems, RelatedSystem};
pub use runner::SlotSchedule;
pub use scheduler_choice::SchedulerKind;
pub use sharing::{simulate_fifo, simulate_processor_sharing, SharedCompletion, SharedJob};
pub use trial::{EpochPhase, EpochRecord, SystemTuner, TrialExecution, EPOCH_ATTEMPTS};
pub use tuner::{ConvergencePoint, PipeTune, TunerOptions, TuningOutcome};
pub use workload::{EpochOutcome, EpochWorkload, JobType, WorkloadInstance, WorkloadSpec};

/// One-stop import surface for applications driving PipeTune.
///
/// Pulls in the environment builder, the tuners and baselines, the
/// workload catalogue, the error type, and the observability handles
/// (telemetry, monitoring, epoch cache) under one `use`:
///
/// ```
/// use pipetune::prelude::*;
///
/// let env = ExperimentEnvBuilder::distributed(42).workers(1).build()?;
/// let spec = WorkloadSpec::lenet_mnist();
/// assert!(env.workers >= 1 && spec.name() == "lenet/mnist");
/// # Ok::<(), pipetune::PipeTuneError>(())
/// ```
pub mod prelude {
    pub use crate::baselines::{TuneV1, TuneV2};
    pub use crate::cache::{CacheStats, EpochCacheConfig, EpochCacheHandle};
    pub use crate::env::{ExperimentEnv, ExperimentEnvBuilder};
    pub use crate::error::PipeTuneError;
    pub use crate::hyper::{HyperParams, HyperSpace};
    pub use crate::scheduler_choice::SchedulerKind;
    pub use crate::tuner::{PipeTune, TunerOptions, TuningOutcome};
    pub use crate::workload::{JobType, WorkloadSpec};
    pub use pipetune_cluster::{FaultPlan, SystemConfig};
    pub use pipetune_monitor::{MonitorConfig, MonitorHandle};
    pub use pipetune_telemetry::TelemetryHandle;
}
