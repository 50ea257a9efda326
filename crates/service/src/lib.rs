//! Multi-job tuning service: a shared-cluster scheduler running
//! concurrent PipeTune jobs.
//!
//! The paper evaluates PipeTune under multi-tenancy (§7.4) with analytic
//! queueing models over measured tuning times. This crate closes the loop:
//! a deterministic, event-driven service that accepts a stream of
//! tuning-job submissions (e.g. from
//! [`pipetune_cluster::PoissonArrivals`]), applies [`AdmissionControl`],
//! schedules the shared cluster under a pluggable [`SchedulingPolicy`]
//! (FIFO, processor sharing, shortest-remaining-service), partitions the
//! cluster's parallel-slot pool across admitted jobs via
//! [`pipetune_cluster::SlotPool`], and runs every admitted job as a full
//! PipeTune tuning run on the real multi-threaded trial executor.
//!
//! On top of the clean scheduling path the service injects
//! *service-level* faults from a [`pipetune_cluster::ServiceFaultPlan`]:
//! node churn that elastically resizes and repartitions the slot pool,
//! deterministic mid-service job crashes with checkpointed resubmission,
//! and deadline (SLO) enforcement that sheds late jobs into typed
//! [`JobOutcome`]s. See the `service` module docs and `docs/faults.md`
//! §"Service-level faults".
//!
//! Two cross-checks pin the scheduler's arithmetic:
//!
//! - the FIFO and processor-sharing policies reproduce the analytic
//!   `pipetune::simulate_fifo` / `pipetune::simulate_processor_sharing`
//!   completion times within 1e-9 seconds for identical job streams, and
//! - all outputs (job outcomes, fault reports, telemetry traces, the
//!   [`ServiceOutcome`] itself) are byte-identical across
//!   `ExperimentEnv::workers` counts, clean or under fault injection —
//!   the repo-wide determinism contract (`tests/service_determinism.rs`
//!   and the chaos sweep in `tests/service_chaos.rs`).
//!
//! See `docs/multitenancy.md` for the design narrative.
//!
//! # Example
//!
//! ```
//! use pipetune::{ExperimentEnvBuilder, TunerOptions, WorkloadSpec};
//! use pipetune_service::{JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
//!
//! let service = TuningService::new(
//!     ServiceConfig::default().with_policy(SchedulingPolicy::ProcessorSharing),
//! );
//! let outcome = service.run(
//!     &ExperimentEnvBuilder::distributed(41).workers(1).build()?,
//!     &[JobSubmission::new(0.0, WorkloadSpec::lenet_mnist())],
//!     &TunerOptions::fast(),
//! )?;
//! assert_eq!(outcome.jobs.len(), 1);
//! assert!(outcome.mean_response_secs > 0.0);
//! # Ok::<(), pipetune::PipeTuneError>(())
//! ```

#![warn(missing_docs)]

mod engine;
mod job;
pub mod observe;
mod policy;
mod service;

pub use engine::{Completion, EngineEvent, PolicyEngine, Trip};
pub use job::{JobOutcome, JobRecord, JobSubmission};
pub use policy::{AdmissionControl, SchedulingPolicy};
pub use service::{
    job_seed, resubmit_backoff_secs, ServiceConfig, ServiceOutcome, SlotSample, TuningService,
    RESUBMIT_ATTEMPTS,
};
