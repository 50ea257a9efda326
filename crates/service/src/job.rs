//! Job submissions and the per-job records a service run produces.

use pipetune::{TuningOutcome, WorkloadSpec};

/// One tuning-job submission: when it arrives and what it tunes.
///
/// Arrival times are simulated seconds on the service's arrival clock
/// (the stream typically comes from
/// [`pipetune_cluster::PoissonArrivals`]).
#[derive(Debug, Clone, Copy)]
pub struct JobSubmission {
    /// Arrival time, simulated seconds (finite, non-negative).
    pub arrival_secs: f64,
    /// The workload this job tunes.
    pub spec: WorkloadSpec,
}

impl JobSubmission {
    /// A submission of `spec` arriving at `arrival_secs`.
    pub fn new(arrival_secs: f64, spec: WorkloadSpec) -> Self {
        JobSubmission { arrival_secs, spec }
    }
}

/// How a submitted job left the service — every submission resolves to
/// exactly one of these (the chaos suite's no-lost-jobs invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed,
    /// The job exceeded its deadline and was drained from the system
    /// (SLO-driven shedding).
    Shed,
    /// The job crashed and exhausted its resubmission budget.
    Abandoned,
}

impl JobOutcome {
    /// Stable lower-snake name used in telemetry attributes and reports.
    pub fn name(self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Shed => "shed",
            JobOutcome::Abandoned => "abandoned",
        }
    }
}

/// What happened to one submitted job, in submission order.
///
/// Every job runs: `slots` and `attempts` are at least 1 and `outcome`
/// holds its tuning run. Shed and abandoned jobs never completed:
/// `completion_secs` and `response_secs` are `NaN` and `drained_secs`
/// holds the instant they left the system.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index of the job in the submission stream.
    pub job: usize,
    /// Workload name.
    pub workload: &'static str,
    /// Arrival time on the service clock, seconds.
    pub arrival_secs: f64,
    /// How the job left the system.
    pub status: JobOutcome,
    /// Service attempts started (1 for a crash-free run, more after
    /// resubmissions).
    pub attempts: u32,
    /// Parallel trial slots the job's tuning run was scheduled onto.
    pub slots: usize,
    /// Dedicated service demand: the job's full tuning run duration,
    /// seconds.
    pub service_secs: f64,
    /// First instant the job held capacity, service clock.
    pub start_secs: f64,
    /// Completion instant, service clock.
    pub completion_secs: f64,
    /// `completion − arrival`: what a tenant experiences.
    pub response_secs: f64,
    /// `start − arrival`: time spent waiting for capacity.
    pub queue_secs: f64,
    /// Instant a shed or abandoned job was drained from the system,
    /// service clock (`NaN` otherwise).
    pub drained_secs: f64,
    /// Service-seconds this job lost to crashes (work past its last
    /// checkpoint, redone on resubmission).
    pub lost_service_secs: f64,
    /// Simulated seconds this job sat in resubmission backoff.
    pub backoff_secs: f64,
    /// The full tuning outcome of the job's PipeTune run.
    pub outcome: Option<TuningOutcome>,
}
