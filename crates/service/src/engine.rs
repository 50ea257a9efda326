//! Exact fluid-model scheduling engine shared by every policy.
//!
//! The engine tracks the remaining service of each unfinished job and
//! advances simulated time event by event. Its one structural invariant
//! makes it both simple and exact: under every [`SchedulingPolicy`] all
//! jobs *in service* at a given instant run at the same rate (FIFO and
//! shortest-remaining serve a subset at rate 1; processor sharing serves
//! everyone at `servers/active`, capped at 1). The next event is therefore
//! always "the in-service job with the least remaining service finishes",
//! and the drain arithmetic can mirror the analytic models in
//! `pipetune::sharing` operation for operation — which is what lets the
//! cross-check tests demand agreement within 1e-9 seconds rather than some
//! loose simulation tolerance.

use std::collections::BTreeMap;

use crate::policy::SchedulingPolicy;

/// One job finishing, as observed by [`PolicyEngine::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Job id (the service uses submission indices).
    pub job: usize,
    /// Completion instant, engine clock seconds.
    pub at_secs: f64,
    /// First instant the job was in service (equals its insertion time for
    /// policies that start work immediately, later for queued FIFO jobs).
    pub start_secs: f64,
}

/// A trip firing: an in-service job reached its attained-service
/// threshold. Only the service driver arms trips, to realise
/// deterministic mid-service job crashes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trip {
    /// Job id.
    pub job: usize,
    /// Instant the threshold was reached, engine clock seconds.
    pub at_secs: f64,
    /// Service attained within this engine residence when the trip fired
    /// (equals the threshold).
    pub attained_secs: f64,
}

/// One engine event, as observed by [`PolicyEngine::advance_events_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent {
    /// A job finished its service.
    Completed(Completion),
    /// A job hit its attained-service trip threshold. The clock stops at
    /// the trip so the caller can react (remove, resume or re-arm) before
    /// anything else progresses.
    Tripped(Trip),
}

/// State handed back by [`PolicyEngine::remove`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Removed {
    /// Service the job still needed, seconds.
    pub remaining_secs: f64,
    /// Service attained within this engine residence, seconds.
    pub attained_secs: f64,
    /// First instant the job held capacity in this residence, if it ever
    /// started.
    pub started: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
struct EngineJob {
    remaining: f64,
    /// Insertion order — the FIFO queue position. Ids alone cannot serve:
    /// callers may submit jobs whose indices are not arrival-ordered.
    seq: u64,
    started: Option<f64>,
    /// Service attained since insertion, seconds.
    attained: f64,
    /// Attained-service threshold at which a [`Trip`] fires, if armed.
    trip_at: Option<f64>,
}

/// Event-driven scheduler state for one policy over a shared pool of
/// `servers` capacity units.
///
/// Drive it with [`PolicyEngine::insert`] at each arrival instant (after
/// [`PolicyEngine::advance_to`] that instant) and finish with
/// [`PolicyEngine::drain`].
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    policy: SchedulingPolicy,
    servers: usize,
    now: f64,
    next_seq: u64,
    jobs: BTreeMap<usize, EngineJob>,
}

impl PolicyEngine {
    /// A fresh engine at time zero. `servers` is clamped to at least 1.
    pub fn new(policy: SchedulingPolicy, servers: usize) -> Self {
        PolicyEngine {
            policy,
            servers: servers.max(1),
            now: 0.0,
            next_seq: 0,
            jobs: BTreeMap::new(),
        }
    }

    /// Current engine time, seconds.
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Unfinished jobs currently in the system (queued or in service).
    pub(crate) fn active(&self) -> usize {
        self.jobs.len()
    }

    /// Admits a job needing `service_secs` of dedicated service, arriving
    /// at the engine's current time. Ids must be unique; insertion order
    /// is the FIFO queue order, so callers must insert in (arrival,
    /// submission index) order — which the service driver does.
    pub fn insert(&mut self, job: usize, service_secs: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let prev = self.jobs.insert(
            job,
            EngineJob {
                remaining: service_secs.max(0.0),
                seq,
                started: None,
                attained: 0.0,
                trip_at: None,
            },
        );
        debug_assert!(prev.is_none(), "job {job} inserted twice");
    }

    /// Arms a trip for `job`: [`PolicyEngine::advance_events_to`] emits a
    /// [`Trip`] (and stops the clock) the instant the job's attained
    /// service since insertion reaches `attained_secs`. A threshold at or
    /// past the job's remaining service never fires — the completion wins.
    pub(crate) fn set_trip(&mut self, job: usize, attained_secs: f64) {
        if let Some(j) = self.jobs.get_mut(&job) {
            j.trip_at = Some(attained_secs.max(0.0));
        }
    }

    /// Removes `job` from the system without completing it (crash or
    /// shed), returning its progress state. `None` when the job is not
    /// active.
    pub(crate) fn remove(&mut self, job: usize) -> Option<Removed> {
        self.jobs.remove(&job).map(|j| Removed {
            remaining_secs: j.remaining,
            attained_secs: j.attained,
            started: j.started,
        })
    }

    /// Jobs currently holding capacity, in the policy's serving order,
    /// with the common service rate. Empty set ⇒ rate 0.
    pub fn in_service(&self) -> (Vec<usize>, f64) {
        let k = self.jobs.len();
        if k == 0 {
            return (Vec::new(), 0.0);
        }
        match self.policy {
            SchedulingPolicy::Fifo => {
                // Queue order is insertion order: the head min(servers, k)
                // jobs run dedicated.
                let mut ids: Vec<usize> = self.jobs.keys().copied().collect();
                ids.sort_by_key(|id| self.jobs[id].seq);
                ids.truncate(self.servers.min(k));
                (ids, 1.0)
            }
            SchedulingPolicy::ProcessorSharing => {
                let rate = (self.servers as f64 / k as f64).min(1.0);
                (self.jobs.keys().copied().collect(), rate)
            }
            SchedulingPolicy::ShortestRemainingService => {
                let mut ids: Vec<usize> = self.jobs.keys().copied().collect();
                // Preemptive: least remaining first, id breaking ties.
                ids.sort_by(|&a, &b| {
                    self.jobs[&a]
                        .remaining
                        .partial_cmp(&self.jobs[&b].remaining)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                ids.truncate(self.servers.min(k));
                ids.sort_unstable();
                (ids, 1.0)
            }
        }
    }

    /// Advances the engine clock to `target`, returning every completion
    /// on the way in completion order. The clock lands exactly on `target`
    /// (even if the system empties earlier) unless `target` is infinite,
    /// in which case it stops at the last completion.
    ///
    /// Callers that arm trips must use
    /// [`PolicyEngine::advance_events_to`]; this wrapper asserts none
    /// fire, so trip-free advances stay bit-identical to the pre-trip
    /// engine.
    pub fn advance_to(&mut self, target: f64) -> Vec<Completion> {
        self.advance_events_to(target)
            .into_iter()
            .map(|ev| match ev {
                EngineEvent::Completed(c) => c,
                EngineEvent::Tripped(t) => {
                    unreachable!("advance_to used with an armed trip on job {}", t.job)
                }
            })
            .collect()
    }

    /// Advances the engine clock towards `target`, returning completions
    /// and trips in event order. On a [`Trip`] the advance *stops* (the
    /// clock sits at the trip instant, short of `target`) so the caller
    /// can react before further progress; call again to continue.
    /// Without a trip the clock lands exactly on `target` as with
    /// [`PolicyEngine::advance_to`]. A completion and a trip due at the
    /// same instant resolve to the completion — a job finishing at its
    /// own crash point still completes.
    pub fn advance_events_to(&mut self, target: f64) -> Vec<EngineEvent> {
        let mut done = Vec::new();
        while !self.jobs.is_empty() && self.now < target {
            let (set, rate) = self.in_service();
            for &id in &set {
                let j = self.jobs.get_mut(&id).expect("in-service job exists");
                if j.started.is_none() {
                    j.started = Some(self.now);
                }
            }
            // Earliest finisher: least remaining in service, first in
            // serving order on ties (matches the analytic models'
            // first-minimal scan; for FIFO it keeps simultaneous
            // completions emitting in arrival order).
            let (next_id, next_rem) = set
                .iter()
                .map(|&id| (id, self.jobs[&id].remaining))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("service set non-empty while jobs remain");
            let finish_at = self.now + next_rem / rate;
            // Earliest armed trip among the served set: least service to
            // go until its threshold, first in serving order on ties.
            let trip = set
                .iter()
                .filter_map(|&id| {
                    let j = &self.jobs[&id];
                    j.trip_at.map(|th| (id, (th - j.attained).max(0.0)))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((trip_id, trip_rem)) = trip {
                let trip_at = self.now + trip_rem / rate;
                if trip_at < finish_at && trip_at <= target {
                    // The whole served set progresses by the tripped
                    // job's service-to-threshold, then the clock stops.
                    for &id in &set {
                        let j = self.jobs.get_mut(&id).expect("served job exists");
                        j.remaining -= trip_rem;
                        j.attained += trip_rem;
                    }
                    self.now = trip_at;
                    let j = self.jobs.get_mut(&trip_id).expect("tripped job exists");
                    j.trip_at = None;
                    done.push(EngineEvent::Tripped(Trip {
                        job: trip_id,
                        at_secs: trip_at,
                        attained_secs: j.attained,
                    }));
                    return done;
                }
            }
            if finish_at > target {
                // No completion by the target: progress the served set.
                let progress = (target - self.now) * rate;
                for &id in &set {
                    let j = self.jobs.get_mut(&id).expect("served job exists");
                    j.remaining -= progress;
                    j.attained += progress;
                }
                self.now = target;
                break;
            }
            // Subtract the finisher's remaining service *exactly* from its
            // peers — every in-service job runs at the same rate, so this
            // is the same arithmetic the analytic drain performs, keeping
            // the two bit-for-bit comparable.
            for &id in &set {
                let j = self.jobs.get_mut(&id).expect("served job exists");
                if id != next_id {
                    j.remaining -= next_rem;
                }
                j.attained += next_rem;
            }
            let finished = self.jobs.remove(&next_id).expect("finisher exists");
            self.now = finish_at;
            done.push(EngineEvent::Completed(Completion {
                job: next_id,
                at_secs: finish_at,
                start_secs: finished.started.unwrap_or(finish_at),
            }));
        }
        if target.is_finite() && self.now < target {
            self.now = target;
        }
        done
    }

    /// Runs the system empty, returning the remaining completions.
    pub fn drain(&mut self) -> Vec<Completion> {
        self.advance_to(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune::{simulate_fifo, simulate_processor_sharing, SharedJob};

    /// Feeds an arrival stream through the engine the way the service
    /// driver does: advance to each arrival, insert, drain at the end.
    fn run(policy: SchedulingPolicy, servers: usize, jobs: &[SharedJob]) -> Vec<Completion> {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .arrival_secs
                .partial_cmp(&jobs[b].arrival_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut engine = PolicyEngine::new(policy, servers);
        let mut done = Vec::new();
        for id in order {
            done.extend(engine.advance_to(jobs[id].arrival_secs));
            engine.insert(id, jobs[id].service_secs);
        }
        done.extend(engine.drain());
        done
    }

    fn stream() -> Vec<SharedJob> {
        // Micro-aligned arrivals (like PoissonArrivals emits) so the
        // analytic PS model's SimTime arrival quantisation is a no-op.
        [(0.0, 13.25), (2.5, 4.0), (2.5, 0.75), (7.125, 9.5), (31.0, 0.0), (40.5, 6.25)]
            .into_iter()
            .map(|(arrival_secs, service_secs)| SharedJob { arrival_secs, service_secs })
            .collect()
    }

    #[test]
    fn fifo_engine_matches_the_analytic_queue() {
        for servers in [1usize, 2, 3] {
            let jobs = stream();
            let engine = run(SchedulingPolicy::Fifo, servers, &jobs);
            let analytic = simulate_fifo(&jobs, servers).unwrap();
            assert_eq!(engine.len(), analytic.len());
            for c in &engine {
                let a = analytic.iter().find(|a| a.job == c.job).unwrap();
                assert!(
                    (c.at_secs - a.completion_secs).abs() < 1e-9,
                    "servers={servers} job={} engine={} analytic={}",
                    c.job,
                    c.at_secs,
                    a.completion_secs
                );
            }
        }
    }

    #[test]
    fn ps_engine_matches_the_analytic_fluid_model() {
        let jobs = stream();
        let engine = run(SchedulingPolicy::ProcessorSharing, 1, &jobs);
        let analytic = simulate_processor_sharing(&jobs).unwrap();
        assert_eq!(engine.len(), analytic.len());
        for c in &engine {
            let a = analytic.iter().find(|a| a.job == c.job).unwrap();
            assert!(
                (c.at_secs - a.completion_secs).abs() < 1e-9,
                "job={} engine={} analytic={}",
                c.job,
                c.at_secs,
                a.completion_secs
            );
        }
    }

    #[test]
    fn fifo_queues_by_insertion_order_not_job_id() {
        // Job 1 arrives first; its larger id must not let job 0 jump the
        // queue (ids are submission indices, not arrival ranks).
        let jobs = [
            SharedJob { arrival_secs: 10.0, service_secs: 5.0 },
            SharedJob { arrival_secs: 0.0, service_secs: 20.0 },
        ];
        let done = run(SchedulingPolicy::Fifo, 1, &jobs);
        assert_eq!(done[0].job, 1);
        assert!((done[0].at_secs - 20.0).abs() < 1e-12, "{done:?}");
        assert_eq!(done[1].job, 0);
        assert!((done[1].start_secs - 20.0).abs() < 1e-12, "{done:?}");
        assert!((done[1].at_secs - 25.0).abs() < 1e-12, "{done:?}");
    }

    #[test]
    fn ps_with_extra_servers_caps_the_rate_at_one() {
        // 2 servers, 2 jobs: everyone runs dedicated, no slowdown.
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 5.0 },
            SharedJob { arrival_secs: 0.0, service_secs: 8.0 },
        ];
        let done = run(SchedulingPolicy::ProcessorSharing, 2, &jobs);
        let by_job = |i: usize| done.iter().find(|c| c.job == i).unwrap();
        assert!((by_job(0).at_secs - 5.0).abs() < 1e-12);
        assert!((by_job(1).at_secs - 8.0).abs() < 1e-12);
        // 2 servers, 3 simultaneous equal jobs: rate 2/3, all finish at
        // 6 / (2/3) = 9.
        let three = [SharedJob { arrival_secs: 0.0, service_secs: 6.0 }; 3];
        let done = run(SchedulingPolicy::ProcessorSharing, 2, &three);
        assert!(done.iter().all(|c| (c.at_secs - 9.0).abs() < 1e-12), "{done:?}");
    }

    #[test]
    fn shortest_remaining_preempts_and_beats_fifo_on_mean_response() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
            SharedJob { arrival_secs: 4.0, service_secs: 3.0 },
        ];
        let done = run(SchedulingPolicy::ShortestRemainingService, 1, &jobs);
        let by_job = |i: usize| done.iter().find(|c| c.job == i).unwrap();
        // Job 1 preempts at t=4 (3 < 6 remaining), finishes at 7; job 0
        // resumes with 6 left, finishing at 13.
        assert!((by_job(1).at_secs - 7.0).abs() < 1e-12, "{done:?}");
        assert!((by_job(0).at_secs - 13.0).abs() < 1e-12, "{done:?}");

        let mean = |cs: &[Completion], js: &[SharedJob]| {
            cs.iter().map(|c| c.at_secs - js[c.job].arrival_secs).sum::<f64>() / cs.len() as f64
        };
        let fifo = run(SchedulingPolicy::Fifo, 1, &jobs);
        assert!(mean(&done, &jobs) < mean(&fifo, &jobs));
    }

    #[test]
    fn makespan_is_policy_invariant_for_work_conserving_schedules() {
        let jobs = stream();
        let mut spans = Vec::new();
        for policy in SchedulingPolicy::ALL {
            let done = run(policy, 1, &jobs);
            assert_eq!(done.len(), jobs.len());
            spans.push(done.iter().map(|c| c.at_secs).fold(0.0, f64::max));
        }
        for s in &spans[1..] {
            assert!((s - spans[0]).abs() < 1e-9, "{spans:?}");
        }
    }

    #[test]
    fn starts_record_queueing_and_zero_service_jobs_finish_instantly() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
            SharedJob { arrival_secs: 4.0, service_secs: 3.0 },
            SharedJob { arrival_secs: 5.0, service_secs: 0.0 },
        ];
        let done = run(SchedulingPolicy::Fifo, 1, &jobs);
        let by_job = |i: usize| done.iter().find(|c| c.job == i).unwrap();
        assert_eq!(by_job(0).start_secs, 0.0);
        assert!((by_job(1).start_secs - 10.0).abs() < 1e-12, "queued behind job 0");
        // The zero-service job waits for the head of line, then completes
        // the instant it starts.
        assert!((by_job(2).start_secs - 13.0).abs() < 1e-12, "{done:?}");
        assert_eq!(by_job(2).start_secs, by_job(2).at_secs);
        // Under PS it never waits at all.
        let ps = run(SchedulingPolicy::ProcessorSharing, 1, &jobs);
        let z = ps.iter().find(|c| c.job == 2).unwrap();
        assert_eq!(z.start_secs, 5.0);
        assert_eq!(z.at_secs, 5.0);
    }

    #[test]
    fn trips_fire_at_the_attained_threshold_and_stop_the_clock() {
        let mut engine = PolicyEngine::new(SchedulingPolicy::Fifo, 1);
        engine.insert(0, 10.0);
        engine.set_trip(0, 4.0);
        let events = engine.advance_events_to(f64::INFINITY);
        assert_eq!(
            events,
            vec![EngineEvent::Tripped(Trip { job: 0, at_secs: 4.0, attained_secs: 4.0 })]
        );
        assert_eq!(engine.now(), 4.0, "the clock stops at the trip");
        assert_eq!(engine.active(), 1, "the tripped job is still active until removed");
        // The caller removes it (a crash) and sees the progress state.
        let removed = engine.remove(0).unwrap();
        assert_eq!(removed.attained_secs, 4.0);
        assert_eq!(removed.remaining_secs, 6.0);
        assert_eq!(removed.started, Some(0.0));
        assert!(engine.remove(0).is_none());
    }

    #[test]
    fn unremoved_tripped_jobs_resume_and_complete() {
        // A trip is an observation point, not a removal: left in place,
        // the job runs on to completion with its threshold disarmed.
        let mut engine = PolicyEngine::new(SchedulingPolicy::Fifo, 1);
        engine.insert(0, 10.0);
        engine.set_trip(0, 4.0);
        assert_eq!(engine.advance_events_to(f64::INFINITY).len(), 1);
        let events = engine.advance_events_to(f64::INFINITY);
        assert_eq!(events.len(), 1);
        match events[0] {
            EngineEvent::Completed(c) => assert_eq!(c.at_secs, 10.0),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn completion_wins_a_tie_with_a_trip() {
        let mut engine = PolicyEngine::new(SchedulingPolicy::Fifo, 1);
        engine.insert(0, 5.0);
        engine.set_trip(0, 5.0);
        let events = engine.advance_events_to(f64::INFINITY);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(events[0], EngineEvent::Completed(c) if c.job == 0 && c.at_secs == 5.0),
            "{events:?}"
        );
    }

    #[test]
    fn trips_under_sharing_charge_the_whole_served_set() {
        // PS, 2 equal jobs at rate 1/2: job 1's 3-second threshold is
        // reached at wall time 6; job 0 has also attained 3 by then.
        let mut engine = PolicyEngine::new(SchedulingPolicy::ProcessorSharing, 1);
        engine.insert(0, 10.0);
        engine.insert(1, 10.0);
        engine.set_trip(1, 3.0);
        let events = engine.advance_events_to(f64::INFINITY);
        assert_eq!(
            events,
            vec![EngineEvent::Tripped(Trip { job: 1, at_secs: 6.0, attained_secs: 3.0 })]
        );
        let removed = engine.remove(1).unwrap();
        assert_eq!(removed.remaining_secs, 7.0);
        // Job 0 progressed the same 3 seconds and now runs dedicated.
        let done = engine.drain();
        assert_eq!(done.len(), 1);
        match done[0] {
            Completion { job: 0, at_secs, .. } => assert_eq!(at_secs, 13.0),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn removing_a_job_keeps_peer_arithmetic_exact() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 13.25 },
            SharedJob { arrival_secs: 0.0, service_secs: 4.0 },
        ];
        // Reference: job 0 alone takes exactly its service time.
        let mut engine = PolicyEngine::new(SchedulingPolicy::Fifo, 2);
        engine.insert(0, jobs[0].service_secs);
        engine.insert(1, jobs[1].service_secs);
        engine.advance_to(2.0);
        engine.remove(1).unwrap();
        let done = engine.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].job, 0);
        assert_eq!(done[0].at_secs, 13.25, "peer remaining must be untouched by the removal");
    }

    #[test]
    fn advance_lands_exactly_on_finite_targets() {
        let mut engine = PolicyEngine::new(SchedulingPolicy::Fifo, 1);
        assert!(engine.advance_to(3.5).is_empty());
        assert_eq!(engine.now(), 3.5);
        engine.insert(0, 1.0);
        let done = engine.advance_to(10.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at_secs, 4.5);
        assert_eq!(engine.now(), 10.0, "clock reaches the target after the system empties");
        assert_eq!(engine.active(), 0);
    }
}
