//! The tuning service driver: arrivals in, scheduled PipeTune runs out.
//!
//! [`TuningService::run`] processes a submission stream in arrival order.
//! Each job is executed as a *real* tuning run (the full
//! multi-threaded trial executor) against a derived environment — its own
//! sub-seed, its slice of the cluster's parallel-slot pool, and a
//! telemetry handle scoped under its `job` span — and the run's wall-clock
//! duration becomes the job's service demand in the exact fluid-model
//! [`PolicyEngine`]. The engine then decides *when* on the shared cluster
//! that demand is served, per the configured [`SchedulingPolicy`].
//!
//! # Service-level faults
//!
//! On top of the per-trial fault injection inside each job's run
//! (`ExperimentEnv::fault_plan`), the driver injects *service-level*
//! faults from a [`ServiceFaultPlan`]:
//!
//! * **Node churn** — every 4 000 simulated seconds a one-slot node may
//!   leave or rejoin the shared [`SlotPool`] (never below one slot); the
//!   pool is resized and its lease re-granted at the new capacity under
//!   every policy.
//! * **Job crashes** — a crashing job is removed mid-service at a drawn
//!   point, rolled back to its tuning run's last checkpoint mark
//!   (`TuningOutcome::checkpoint_marks`, i.e. the executor's
//!   trial-snapshot cadence) and resubmitted after exponential backoff in
//!   simulated time, [`RESUBMIT_ATTEMPTS`] attempts in all; exhaustion
//!   yields [`JobOutcome::Abandoned`].
//! * **Deadlines** — a job exceeding [`ServiceConfig::deadline_secs`]
//!   drains cleanly into [`JobOutcome::Shed`] without poisoning the rest
//!   of the stream.
//!
//! The driver is a single event loop merging engine events (completions,
//! crash trips) with external events; sources due at the same instant
//! dispatch in the fixed order churn ≻ deadline ≻ resubmission ≻ arrival.
//! With an empty plan and no deadline every fault branch is dead and the
//! loop degenerates to the pre-fault per-arrival sequence, keeping clean
//! runs byte-identical to pre-fault builds.
//!
//! Determinism: the driver is single-threaded; per-job seeds derive only
//! from the master seed and the submission index, and every fault draw is
//! a pure function of plan-seed coordinates. Every job outcome, both
//! fault reports, the telemetry trace and the final [`ServiceOutcome`]
//! are therefore byte-identical for any `ExperimentEnv::workers` count —
//! the workers only parallelise *inside* a job's run, which already
//! honours the repo-wide determinism contract. Because churn draws key on
//! the tick index and crash draws on `(job, attempt)`, the capacity seen
//! at any arrival and each job's crash/resume chain are additionally
//! *policy-invariant*, so survivors tune identically under every policy.

use pipetune::{ExperimentEnv, PipeTune, PipeTuneError, TunerOptions};
use pipetune_cluster::{
    ChurnKind, FaultReport, ServiceFaultPlan, ServiceFaultReport, SlotPool, SlotPoolError,
};
use pipetune_telemetry::{
    EventKind, SpanId, SpanKind, TelemetryHandle, COUNT_BUCKETS, DURATION_BUCKETS_SECS,
};

use crate::engine::{Completion, EngineEvent, PolicyEngine, Trip};
use crate::job::{JobOutcome, JobRecord, JobSubmission};
use crate::observe;
use crate::policy::SchedulingPolicy;

/// Key under which processor sharing's single ensemble lease is tracked
/// (PS co-locates every active job on the whole pool, so slot accounting
/// carries one capacity-wide lease rather than per-job slices).
const ENSEMBLE: usize = usize::MAX;

/// Spacing of churn ticks on the service clock, simulated seconds: tick
/// `k ≥ 1` happens at `k × CHURN_INTERVAL_SECS` and draws at most one
/// churn event. Tuning-job service times run to thousands of seconds.
const CHURN_INTERVAL_SECS: f64 = 4000.0;

/// Parallel trial slots one churned node carries.
const NODE_SLOTS: usize = 1;

/// Pool floor: leaves never shrink capacity below this many slots.
const MIN_SLOTS: usize = 1;

/// Service attempts a crashing job gets, the first included, before it is
/// abandoned.
pub const RESUBMIT_ATTEMPTS: u32 = 3;

/// Simulated seconds a crashed job waits before resubmission after failed
/// attempt `attempt` (0-based): 600 s, doubling per further attempt.
pub fn resubmit_backoff_secs(attempt: u32) -> f64 {
    600.0 * 2.0f64.powi(attempt as i32)
}

/// How the service schedules, bounds and fault-tests jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Cluster-sharing discipline.
    pub policy: SchedulingPolicy,
    /// Per-job relative deadline (SLO), seconds after arrival: a job
    /// still unfinished then is shed ([`JobOutcome::Shed`]). `None`
    /// disables deadline enforcement.
    pub deadline_secs: Option<f64>,
    /// Service-level fault schedule (node churn, job crashes). The empty
    /// plan keeps runs byte-identical to pre-fault builds.
    pub faults: ServiceFaultPlan,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: SchedulingPolicy::Fifo,
            deadline_secs: None,
            faults: ServiceFaultPlan::none(),
        }
    }
}

impl ServiceConfig {
    /// Replaces the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-job deadline (validated at run time: must be finite
    /// and positive).
    #[must_use]
    pub fn with_deadline(mut self, deadline_secs: f64) -> Self {
        self.deadline_secs = Some(deadline_secs);
        self
    }

    /// Replaces the service-level fault schedule.
    #[must_use]
    pub fn with_service_faults(mut self, faults: ServiceFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Checks the configuration, returning a typed error instead of
    /// panicking (or silently clamping) on degenerate values — the rules
    /// are listed under [`TuningService::run`]'s errors.
    pub(crate) fn validate(&self) -> Result<(), PipeTuneError> {
        let bad = |reason: String| Err(PipeTuneError::InvalidConfig { reason });
        if let Some(d) = self.deadline_secs {
            if !d.is_finite() || d <= 0.0 {
                return bad(format!("service deadline must be finite and positive, got {d}"));
            }
        }
        let f = &self.faults;
        for (name, p) in [
            ("node_leave_prob", f.node_leave_prob),
            ("node_join_prob", f.node_join_prob),
            ("crash_prob", f.crash_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return bad(format!("service fault {name} must lie in [0, 1], got {p}"));
            }
        }
        Ok(())
    }
}

/// Slot-pool occupancy at one scheduling event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSample {
    /// Event instant, service clock seconds.
    pub at_secs: f64,
    /// Unfinished jobs (queued, in service or awaiting
    /// resubmission).
    pub active_jobs: usize,
    /// Jobs holding capacity at this instant.
    pub in_service_jobs: usize,
    /// Slots leased from the pool — never exceeds the pool capacity
    /// (asserted at every sample by the property suite).
    pub slots_in_use: usize,
    /// Pool capacity at this instant (moves under node churn; equals
    /// `ServiceOutcome::slot_capacity` on churn-free runs).
    pub capacity: usize,
}

/// Everything one service run produces.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Scheduling discipline the run used.
    pub policy: SchedulingPolicy,
    /// The shared pool's initial parallel trial slots
    /// (`env.parallel_slots`); churn moves the live capacity around this.
    /// A job is given the whole live capacity at its arrival
    /// ([`JobRecord::slots`]).
    pub slot_capacity: usize,
    /// Per-job records, in submission order (one per submission — every
    /// submission resolves to exactly one typed [`JobOutcome`]).
    pub jobs: Vec<JobRecord>,
    /// When the service went idle: the last completion, or the last
    /// shed/abandon under faults, service clock seconds (work
    /// conservation makes this policy-invariant for clean streams).
    /// Under churn the final churn tick observed while work was still
    /// live can round this up to the tick grid.
    pub makespan_secs: f64,
    /// Mean response time over *completed* jobs (0 when none completed).
    pub mean_response_secs: f64,
    /// Slot-pool occupancy after every scheduling event.
    pub timeline: Vec<SlotSample>,
    /// All jobs' trial-level fault reports merged in submission order —
    /// exactly the merge of the per-job reports, untouched by
    /// service-level injection.
    pub fault_report: FaultReport,
    /// Service-level fault accounting (churn, job crashes, shedding).
    /// Clean when the plan is empty and no deadline fired.
    pub service_fault_report: ServiceFaultReport,
}

/// The multi-job tuning service. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct TuningService {
    config: ServiceConfig,
}

/// The master seed a job's environment is re-seeded with:
/// derived from the service environment's seed and the submission index
/// only, so a job's tuning outcome is independent of scheduling policy,
/// arrival times and its neighbours. Public so tests can reconstruct a
/// job's dedicated-cluster run and compare byte for byte.
pub fn job_seed(env: &ExperimentEnv, job: usize) -> u64 {
    env.subseed(0x0B10_0000 + job as u64)
}

/// A crashed job waiting out its resubmission backoff.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Resubmission instant, service clock seconds.
    at_secs: f64,
    /// Job id.
    job: usize,
    /// 0-based index of the attempt the resubmission will start.
    attempt: u32,
    /// Checkpointed progress the attempt resumes from, service-seconds.
    resume_secs: f64,
}

/// All mutable state of one service run, so event handlers stay methods
/// rather than 12-argument functions.
struct Driver {
    policy: SchedulingPolicy,
    faults: ServiceFaultPlan,
    deadline_secs: Option<f64>,
    telemetry: TelemetryHandle,
    service_span: SpanId,
    engine: PolicyEngine,
    pool: SlotPool,
    /// The outstanding lease, if any: (holder key, lease id, slots
    /// covered). One server serves at most one lease.
    lease: Option<(usize, u64, usize)>,
    /// Live pool capacity (moves under churn).
    capacity: usize,
    /// Nodes currently away (bounds joins).
    nodes_away: usize,
    records: Vec<Option<JobRecord>>,
    spans: Vec<SpanId>,
    timeline: Vec<SlotSample>,
    service_report: ServiceFaultReport,
    /// Crashed jobs awaiting resubmission.
    pending: Vec<Pending>,
    /// Per-job absolute deadline, cleared at terminal states.
    deadline_at: Vec<Option<f64>>,
    /// Earliest start observed across a job's attempts.
    first_start: Vec<Option<f64>>,
    /// Service attempts started per job.
    attempts: Vec<u32>,
    /// Checkpointed progress before the current attempt, per job.
    done_before: Vec<f64>,
    /// Checkpoint marks of each job's run (empty when crashes
    /// are disabled).
    marks: Vec<Vec<f64>>,
    /// Full service demand per job.
    service_total: Vec<f64>,
}

impl Driver {
    /// Reconciles the slot pool with the engine's in-service set after a
    /// scheduling event at `at_secs`, then samples occupancy. A stale or
    /// resized lease releases before the pool is resized and the new lease
    /// is granted, so the pool can never oversubscribe even transiently.
    /// Returns how many lease operations were needed (0 ⇒ the layout was
    /// already current).
    fn sync(&mut self, at_secs: f64) -> Result<usize, PipeTuneError> {
        let (served, _) = self.engine.in_service();
        // The one server's lease covers the whole live capacity: held by
        // the served job under FIFO and shortest-remaining, by the
        // ensemble under processor sharing.
        let desired = match (self.policy, served.first()) {
            (_, None) => None,
            (SchedulingPolicy::ProcessorSharing, Some(_)) => Some((ENSEMBLE, self.capacity)),
            (_, Some(&job)) => Some((job, self.capacity)),
        };
        let mut ops = 0usize;
        if let Some((key, lease, slots)) = self.lease {
            if desired != Some((key, slots)) {
                self.lease = None;
                self.pool.release(lease).map_err(slot_bug)?;
                ops += 1;
            }
        }
        if self.pool.capacity() != self.capacity {
            self.pool.resize(self.capacity).map_err(slot_bug)?;
        }
        if let (None, Some((key, slots))) = (self.lease, desired) {
            self.lease = Some((key, self.pool.lease(slots).map_err(slot_bug)?, slots));
            ops += 1;
        }
        self.timeline.push(SlotSample {
            at_secs,
            active_jobs: self.engine.active() + self.pending.len(),
            in_service_jobs: served.len(),
            slots_in_use: self.pool.in_use(),
            capacity: self.pool.capacity(),
        });
        self.telemetry.observe(observe::SLOTS_IN_USE, COUNT_BUCKETS, self.pool.in_use() as f64);
        Ok(ops)
    }

    /// Fills in a completed job's record and closes its span.
    fn settle(&mut self, c: &Completion) {
        let rec = self.records[c.job].as_mut().expect("completed job has a record");
        let start = match self.first_start[c.job] {
            Some(s) => s.min(c.start_secs),
            None => c.start_secs,
        };
        rec.start_secs = start;
        rec.completion_secs = c.at_secs;
        rec.response_secs = c.at_secs - rec.arrival_secs;
        rec.queue_secs = start - rec.arrival_secs;
        rec.status = JobOutcome::Completed;
        rec.attempts = self.attempts[c.job];
        self.deadline_at[c.job] = None;
        self.telemetry.counter_add(observe::JOBS_COMPLETED, 1);
        self.telemetry.observe(observe::RESPONSE_SECS, DURATION_BUCKETS_SECS, rec.response_secs);
        self.telemetry.observe(observe::QUEUE_SECS, DURATION_BUCKETS_SECS, rec.queue_secs);
        self.telemetry.close_span(self.spans[c.job], c.at_secs);
    }

    /// Handles a crash trip: rolls the job back to its last checkpoint
    /// mark and schedules a resubmission, or abandons it when the budget
    /// is spent.
    fn crash(&mut self, t: &Trip) {
        let job = t.job;
        let removed = self.engine.remove(job).expect("tripped job is active");
        self.note_start(job, removed.started);
        let progress = self.done_before[job] + t.attained_secs;
        let resume = self.marks[job].iter().copied().filter(|&m| m <= progress).fold(0.0, f64::max);
        let lost = progress - resume;
        self.service_report.job_crashes += 1;
        self.service_report.lost_service_secs += lost;
        self.telemetry.counter_add(observe::JOB_CRASHES, 1);
        self.telemetry.observe(observe::LOST_SERVICE_SECS, DURATION_BUCKETS_SECS, lost);
        let attempts = self.attempts[job];
        let rec = self.records[job].as_mut().expect("crashed job has a record");
        rec.lost_service_secs += lost;
        if attempts >= RESUBMIT_ATTEMPTS {
            rec.status = JobOutcome::Abandoned;
            rec.attempts = attempts;
            rec.drained_secs = t.at_secs;
            if let Some(s) = self.first_start[job] {
                rec.start_secs = s;
                rec.queue_secs = s - rec.arrival_secs;
            }
            self.deadline_at[job] = None;
            self.service_report.jobs_abandoned += 1;
            self.telemetry.counter_add(observe::JOBS_ABANDONED, 1);
            self.telemetry.event(
                self.spans[job],
                EventKind::Fault,
                t.at_secs,
                vec![
                    ("kind", "job_crash".into()),
                    ("attempt", attempts.into()),
                    ("lost_secs", lost.into()),
                    ("abandoned", true.into()),
                ],
            );
            self.telemetry.close_span(self.spans[job], t.at_secs);
        } else {
            let backoff = resubmit_backoff_secs(attempts - 1);
            rec.backoff_secs += backoff;
            self.service_report.backoff_secs += backoff;
            self.telemetry.event(
                self.spans[job],
                EventKind::Fault,
                t.at_secs,
                vec![
                    ("kind", "job_crash".into()),
                    ("attempt", attempts.into()),
                    ("lost_secs", lost.into()),
                    ("backoff_secs", backoff.into()),
                ],
            );
            self.pending.push(Pending {
                at_secs: t.at_secs + backoff,
                job,
                attempt: attempts,
                resume_secs: resume,
            });
        }
    }

    /// Re-inserts a crashed job from its checkpoint.
    fn resubmit(&mut self, p: &Pending) {
        self.attempts[p.job] = p.attempt + 1;
        self.done_before[p.job] = p.resume_secs;
        let remaining = (self.service_total[p.job] - p.resume_secs).max(0.0);
        self.engine.insert(p.job, remaining);
        if let Some(frac) = self.faults.crash_at(p.job as u64, p.attempt) {
            self.engine.set_trip(p.job, frac * remaining);
        }
        self.service_report.resubmissions += 1;
        self.telemetry.counter_add(observe::RESUBMISSIONS, 1);
        self.telemetry.event(
            self.spans[p.job],
            EventKind::Retry,
            p.at_secs,
            vec![
                ("kind", "job_resubmit".into()),
                ("attempt", (p.attempt + 1).into()),
                ("resume_secs", p.resume_secs.into()),
            ],
        );
    }

    /// Sheds a job that exceeded its deadline, wherever it currently sits
    /// (in service, queued, or waiting out a resubmission backoff).
    fn shed(&mut self, job: usize, at_secs: f64) {
        if let Some(removed) = self.engine.remove(job) {
            self.note_start(job, removed.started);
        } else {
            self.pending.retain(|p| p.job != job);
        }
        let deadline = self.deadline_secs.unwrap_or(f64::NAN);
        let rec = self.records[job].as_mut().expect("shed job has a record");
        rec.status = JobOutcome::Shed;
        rec.attempts = self.attempts[job];
        rec.drained_secs = at_secs;
        if let Some(s) = self.first_start[job] {
            rec.start_secs = s;
            rec.queue_secs = s - rec.arrival_secs;
        }
        self.deadline_at[job] = None;
        self.service_report.jobs_shed += 1;
        self.telemetry.counter_add(observe::JOBS_SHED, 1);
        self.telemetry.event(
            self.spans[job],
            EventKind::Shed,
            at_secs,
            vec![("deadline_secs", deadline.into())],
        );
        self.telemetry.close_span(self.spans[job], at_secs);
    }

    /// Applies churn tick `tick` at `at_secs`: at most one node leaves or
    /// rejoins, constrained by the pool floor and by how many nodes are
    /// away. Draws that cannot apply are skipped without trace.
    fn churn(&mut self, tick: u64, at_secs: f64) -> Result<(), PipeTuneError> {
        match self.faults.churn_at(tick) {
            Some(ChurnKind::Leave) if self.capacity >= NODE_SLOTS + MIN_SLOTS => {
                self.capacity -= NODE_SLOTS;
                self.nodes_away += 1;
                self.service_report.node_leaves += 1;
                self.telemetry.counter_add(observe::NODE_LEAVES, 1);
                self.apply_churn(ChurnKind::Leave, at_secs)
            }
            Some(ChurnKind::Join) if self.nodes_away > 0 => {
                self.capacity += NODE_SLOTS;
                self.nodes_away -= 1;
                self.service_report.node_joins += 1;
                self.telemetry.counter_add(observe::NODE_JOINS, 1);
                self.apply_churn(ChurnKind::Join, at_secs)
            }
            _ => Ok(()),
        }
    }

    /// Propagates an applied churn event: records the trace event and
    /// re-grants the lease at the new capacity.
    fn apply_churn(&mut self, kind: ChurnKind, at_secs: f64) -> Result<(), PipeTuneError> {
        self.telemetry.event(
            self.service_span,
            EventKind::Churn,
            at_secs,
            vec![
                ("churn", kind.name().into()),
                ("node_slots", NODE_SLOTS.into()),
                ("capacity_slots", self.capacity.into()),
            ],
        );
        self.telemetry.gauge_set(observe::CAPACITY_SLOTS, self.capacity as f64);
        if self.sync(at_secs)? > 0 {
            self.service_report.repartitions += 1;
        }
        Ok(())
    }

    /// Folds an attempt's start instant into the job's earliest start.
    fn note_start(&mut self, job: usize, started: Option<f64>) {
        if let Some(s) = started {
            self.first_start[job] = Some(self.first_start[job].map_or(s, |f| f.min(s)));
        }
    }
}

impl TuningService {
    /// A service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        TuningService { config }
    }

    /// Runs the submission stream to completion. Jobs are processed in
    /// `(arrival, index)` order; the returned records are in submission
    /// order, one per submission.
    ///
    /// # Errors
    ///
    /// [`PipeTuneError::InvalidConfig`] for an invalid configuration (a
    /// non-finite or non-positive deadline, out-of-range fault
    /// probabilities) or non-finite/negative arrival times; substrate
    /// errors propagate from the jobs' tuning runs.
    pub fn run(
        &self,
        env: &ExperimentEnv,
        submissions: &[JobSubmission],
        options: &TunerOptions,
    ) -> Result<ServiceOutcome, PipeTuneError> {
        self.config.validate()?;
        for (i, s) in submissions.iter().enumerate() {
            if !s.arrival_secs.is_finite() || s.arrival_secs < 0.0 {
                return Err(PipeTuneError::InvalidConfig {
                    reason: format!("submission {i} has an invalid arrival time"),
                });
            }
        }
        let capacity = env.parallel_slots.max(1);
        let policy = self.config.policy;
        let faults = self.config.faults;
        let deadline = self.config.deadline_secs;

        let telemetry = env.telemetry.clone();
        let service_span = telemetry.open_span(
            SpanId::NONE,
            SpanKind::Service,
            format!("service {}", policy.name()),
            0.0,
            vec![("policy", policy.name().into()), ("slot_capacity", capacity.into())],
        );

        let mut order: Vec<usize> = (0..submissions.len()).collect();
        order.sort_by(|&a, &b| {
            submissions[a]
                .arrival_secs
                .partial_cmp(&submissions[b].arrival_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        let n = submissions.len();
        let mut d = Driver {
            policy,
            faults,
            deadline_secs: deadline,
            telemetry: telemetry.clone(),
            service_span,
            engine: PolicyEngine::new(policy, 1),
            pool: SlotPool::new(capacity),
            lease: None,
            capacity,
            nodes_away: 0,
            records: (0..n).map(|_| None).collect(),
            spans: vec![SpanId::NONE; n],
            timeline: Vec::new(),
            service_report: ServiceFaultReport::default(),
            pending: Vec::new(),
            deadline_at: vec![None; n],
            first_start: vec![None; n],
            attempts: vec![0; n],
            done_before: vec![0.0; n],
            marks: vec![Vec::new(); n],
            service_total: vec![f64::NAN; n],
        };
        let mut fault_report = FaultReport::default();
        // The shared tuner carries its ground truth from job to job (cold
        // start: the stream itself builds it, as in §7.4).
        let mut shared_tuner = PipeTune::new(*options);
        let mut arr_pos = 0usize;
        let mut next_tick: u64 = 1;

        loop {
            // Online monitoring: stream everything recorded since the last
            // dispatch step through the detectors. A no-op unless both the
            // telemetry and monitor handles are live, and scan granularity
            // never changes the timeline (the engine is cursor-based).
            env.monitor.scan(&telemetry);
            let t_arr = order.get(arr_pos).map_or(f64::INFINITY, |&j| submissions[j].arrival_secs);
            let t_resub = d.pending.iter().map(|p| p.at_secs).fold(f64::INFINITY, f64::min);
            let t_dead = d.deadline_at.iter().flatten().copied().fold(f64::INFINITY, f64::min);
            // Churn ticks run while there is work anywhere in the system.
            // Crucially, ticks up to the last arrival fire under *every*
            // policy (arrivals are still pending), so the capacity a job
            // sees at admission — and hence its tuning outcome — is
            // policy-invariant.
            let work_pending =
                arr_pos < order.len() || !d.pending.is_empty() || d.engine.active() > 0;
            let t_churn = if faults.has_churn() && work_pending {
                next_tick as f64 * CHURN_INTERVAL_SECS
            } else {
                f64::INFINITY
            };
            let t_ext = t_arr.min(t_resub).min(t_dead).min(t_churn);

            // Engine events (completions and crash trips) strictly before
            // the external event. Any event invalidates the timestamps
            // computed above (a completion can clear the very deadline
            // `t_dead` came from; a trip stops the advance short), so the
            // loop recomputes its sources before dispatching externally.
            let events = d.engine.advance_events_to(t_ext);
            if !events.is_empty() {
                for ev in events {
                    match ev {
                        EngineEvent::Completed(c) => {
                            d.settle(&c);
                            d.sync(c.at_secs)?;
                        }
                        EngineEvent::Tripped(t) => {
                            d.crash(&t);
                            d.sync(t.at_secs)?;
                        }
                    }
                }
                continue;
            }
            if t_ext == f64::INFINITY {
                break;
            }
            // Sources due at the same instant dispatch one at a time in
            // the fixed order churn ≻ deadline ≻ resubmission ≻ arrival.
            if t_churn == t_ext {
                d.churn(next_tick, t_ext)?;
                next_tick += 1;
                continue;
            }
            if t_dead == t_ext {
                let job = d
                    .deadline_at
                    .iter()
                    .position(|&dl| dl == Some(t_ext))
                    .expect("a deadline is due");
                d.shed(job, t_ext);
                d.sync(t_ext)?;
                continue;
            }
            if t_resub == t_ext {
                let best = (0..d.pending.len())
                    .min_by(|&a, &b| {
                        let (pa, pb) = (&d.pending[a], &d.pending[b]);
                        pa.at_secs
                            .partial_cmp(&pb.at_secs)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(pa.job.cmp(&pb.job))
                    })
                    .expect("a resubmission is due");
                let p = d.pending.remove(best);
                d.resubmit(&p);
                d.sync(p.at_secs)?;
                continue;
            }
            // An arrival.
            let job = order[arr_pos];
            arr_pos += 1;
            let sub = &submissions[job];
            telemetry.counter_add(observe::JOBS_SUBMITTED, 1);
            let backlog = d.engine.active() + d.pending.len();
            // `queue_depth` is the backlog ahead of this job at its arrival
            // instant — the signal the monitor's queue-growth detector
            // watches (see `docs/monitoring.md`).
            let mut attrs = vec![
                ("job", job.into()),
                ("workload", sub.spec.name().into()),
                ("queue_depth", backlog.into()),
            ];
            if let Some(dl) = deadline {
                attrs.push(("deadline_secs", dl.into()));
            }
            let span = telemetry.open_span(
                service_span,
                SpanKind::Job,
                format!("job {job}: {}", sub.spec.name()),
                sub.arrival_secs,
                attrs,
            );
            d.spans[job] = span;
            let slots = d.capacity;
            let job_env = ExperimentEnv {
                seed: job_seed(env, job),
                parallel_slots: slots,
                telemetry: telemetry.scoped(span),
                ..env.clone()
            };
            let outcome = shared_tuner.run(&job_env, &sub.spec)?;
            fault_report.merge(&outcome.fault_report);
            let service_secs = outcome.tuning_secs;
            d.service_total[job] = service_secs;
            if faults.crash_prob > 0.0 {
                d.marks[job] = outcome.checkpoint_marks();
            }
            d.records[job] = Some(JobRecord {
                job,
                workload: sub.spec.name(),
                arrival_secs: sub.arrival_secs,
                status: JobOutcome::Completed,
                attempts: 1,
                slots,
                service_secs,
                start_secs: f64::NAN,
                completion_secs: f64::NAN,
                response_secs: f64::NAN,
                queue_secs: f64::NAN,
                drained_secs: f64::NAN,
                lost_service_secs: 0.0,
                backoff_secs: 0.0,
                outcome: Some(outcome),
            });
            d.attempts[job] = 1;
            d.deadline_at[job] = deadline.map(|dl| sub.arrival_secs + dl);
            d.engine.insert(job, service_secs);
            if let Some(frac) = faults.crash_at(job as u64, 0) {
                d.engine.set_trip(job, frac * service_secs.max(0.0));
            }
            d.sync(sub.arrival_secs)?;
        }

        let makespan_secs = d.engine.now();
        telemetry.gauge_set(observe::MAKESPAN_SECS, makespan_secs);
        telemetry.close_span(service_span, makespan_secs);

        let jobs: Vec<JobRecord> =
            d.records.into_iter().map(|r| r.expect("every submission got a record")).collect();
        // The no-lost-jobs invariant, enforced at the source: a record
        // still claiming `Completed` without a completion instant means
        // the event loop dropped a job.
        for rec in &jobs {
            assert!(
                rec.status != JobOutcome::Completed || rec.completion_secs.is_finite(),
                "job {} lost by the service event loop",
                rec.job
            );
        }
        let completed: Vec<&JobRecord> =
            jobs.iter().filter(|r| r.status == JobOutcome::Completed).collect();
        let mean_response_secs = if completed.is_empty() {
            0.0
        } else {
            completed.iter().map(|r| r.response_secs).sum::<f64>() / completed.len() as f64
        };
        Ok(ServiceOutcome {
            policy,
            slot_capacity: capacity,
            jobs,
            makespan_secs,
            mean_response_secs,
            timeline: d.timeline,
            fault_report,
            service_fault_report: d.service_report,
        })
    }
}

/// Slot-pool violations are scheduler bugs; surface them as typed errors
/// rather than corrupting the accounting.
fn slot_bug(e: SlotPoolError) -> PipeTuneError {
    PipeTuneError::InvalidConfig { reason: format!("service slot accounting violated: {e}") }
}
