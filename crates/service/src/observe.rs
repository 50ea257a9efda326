//! Canonical metric names the tuning service records (see
//! `docs/multitenancy.md`).
//!
//! Mirrors the per-crate vocabulary convention of
//! [`pipetune::observe`]: every name lives here, declared through
//! [`pipetune_telemetry::metric_names!`] so exporters, gates and tests
//! agree on spelling and the metric-name audit can check emissions
//! against the generated `ALL_METRIC_NAMES` slice. The service records
//! through the same [`pipetune_telemetry::TelemetryHandle`] its jobs'
//! runs do, so one snapshot holds both the queueing picture and the
//! per-run detail.

pipetune_telemetry::metric_names! {
    /// Counter: jobs submitted to the service.
    pub(crate) const JOBS_SUBMITTED = "service.jobs_submitted";

    /// Counter: jobs that ran to completion.
    pub(crate) const JOBS_COMPLETED = "service.jobs_completed";

    /// Counter: jobs shed for exceeding their deadline.
    pub(crate) const JOBS_SHED = "service.jobs_shed";

    /// Counter: jobs abandoned after exhausting the resubmission budget.
    pub(crate) const JOBS_ABANDONED = "service.jobs_abandoned";

    /// Counter: nodes that left the shared slot pool (service-level churn).
    pub(crate) const NODE_LEAVES = "service.churn.node_leaves";

    /// Counter: nodes that rejoined the shared slot pool.
    pub(crate) const NODE_JOINS = "service.churn.node_joins";

    /// Gauge: current pool capacity in slots, updated at every applied churn
    /// event.
    pub(crate) const CAPACITY_SLOTS = "service.churn.capacity_slots";

    /// Counter: job-level crashes injected by the service fault plan.
    pub(crate) const JOB_CRASHES = "service.faults.job_crashes";

    /// Counter: crashed jobs resubmitted from their last checkpoint.
    pub(crate) const RESUBMISSIONS = "service.faults.resubmissions";

    /// Histogram of service-seconds lost per job crash (work past the last
    /// checkpoint; [`pipetune_telemetry::DURATION_BUCKETS_SECS`]).
    pub(crate) const LOST_SERVICE_SECS = "service.faults.lost_service_secs";

    /// Histogram of per-job queueing delay (start − arrival), seconds
    /// ([`pipetune_telemetry::DURATION_BUCKETS_SECS`]).
    pub(crate) const QUEUE_SECS = "service.queue_secs";

    /// Histogram of per-job response time (completion − arrival), seconds
    /// ([`pipetune_telemetry::DURATION_BUCKETS_SECS`]).
    pub(crate) const RESPONSE_SECS = "service.response_secs";

    /// Histogram of slot-pool occupancy sampled at every scheduling event
    /// ([`pipetune_telemetry::COUNT_BUCKETS`]).
    pub(crate) const SLOTS_IN_USE = "service.slots_in_use";

    /// Gauge: time the last job completed, seconds on the service clock.
    pub(crate) const MAKESPAN_SECS = "service.makespan_secs";
}
