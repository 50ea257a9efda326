//! Shared-cluster multi-tenancy: overlapping jobs under processor sharing.
//!
//! The FIFO driver in [`crate::multi_tenancy`] matches the paper's §5.1
//! scheduling assumption (one HPT job at a time). This module models the
//! *other* regime the paper probes in Fig. 5: jobs co-located on the same
//! cores, each slowed by the number of concurrently active tenants. Jobs
//! start on arrival; the cluster is processor-shared, so a job's remaining
//! service shrinks at rate `1/active_jobs`. The event simulation is exact
//! for that fluid model.

use pipetune_cluster::{EventQueue, SimTime};

use crate::PipeTuneError;

/// One tenant job: arrival time and the service it needs when alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedJob {
    /// Arrival, simulated seconds.
    pub arrival_secs: f64,
    /// Dedicated-cluster service time, simulated seconds.
    pub service_secs: f64,
}

/// Completion record produced by [`simulate_processor_sharing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedCompletion {
    /// Index into the input job list.
    pub job: usize,
    /// Completion time, simulated seconds.
    pub completion_secs: f64,
    /// Response time (completion − arrival).
    pub response_secs: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival(usize),
}

/// Shared input validation: arrivals must be finite and non-negative,
/// services finite and non-negative. Zero-service jobs are legal — they
/// complete the instant they arrive (a rejected or trivially warm-started
/// job) — and an empty job list yields an empty completion list.
fn validate_jobs(jobs: &[SharedJob]) -> Result<(), PipeTuneError> {
    for (i, j) in jobs.iter().enumerate() {
        if !(j.arrival_secs.is_finite() && j.service_secs.is_finite())
            || j.arrival_secs < 0.0
            || j.service_secs < 0.0
        {
            return Err(PipeTuneError::InvalidConfig {
                reason: format!("job {i} has invalid arrival/service"),
            });
        }
    }
    Ok(())
}

/// Simulates a FIFO queue served by `servers` identical executors: jobs
/// start in arrival order as servers free up, each running dedicated (no
/// slowdown). `servers = 1` is the paper's §5.1 FIFO; more servers model a
/// cluster split into independent HPT slots.
///
/// Returns completions sorted by completion time.
///
/// # Errors
///
/// Returns [`PipeTuneError::InvalidConfig`] for zero servers or invalid
/// jobs.
pub fn simulate_fifo(
    jobs: &[SharedJob],
    servers: usize,
) -> Result<Vec<SharedCompletion>, PipeTuneError> {
    if servers == 0 {
        return Err(PipeTuneError::InvalidConfig { reason: "servers must be positive".into() });
    }
    validate_jobs(jobs)?;
    // FIFO by arrival time (stable on ties by index, so simultaneous
    // arrivals are served in submission order).
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival_secs
            .partial_cmp(&jobs[b].arrival_secs)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // Server free times in exact f64 seconds. An earlier revision rounded
    // these to integer microseconds, which drifted completion times by up
    // to ~5e-7 s per hop — enough to break the 1e-9 cross-check against
    // the event-driven service scheduler. A linear min-scan keeps the
    // lowest-index free server on ties, which is deterministic and matches
    // the service's server tie-break.
    let mut free = vec![0.0f64; servers];
    let mut completions = Vec::with_capacity(jobs.len());
    for id in order {
        let server = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("servers > 0");
        let start = free[server].max(jobs[id].arrival_secs);
        let completion = start + jobs[id].service_secs;
        free[server] = completion;
        completions.push(SharedCompletion {
            job: id,
            completion_secs: completion,
            response_secs: completion - jobs[id].arrival_secs,
        });
    }
    completions.sort_by(|a, b| {
        a.completion_secs.partial_cmp(&b.completion_secs).unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(completions)
}

/// Simulates egalitarian processor sharing of the cluster among overlapping
/// jobs: with `k` active jobs, every job progresses at rate `1/k`.
///
/// Returns completions sorted by completion time.
///
/// # Errors
///
/// Returns [`PipeTuneError::InvalidConfig`] for negative arrivals/services
/// or non-finite inputs.
pub fn simulate_processor_sharing(
    jobs: &[SharedJob],
) -> Result<Vec<SharedCompletion>, PipeTuneError> {
    validate_jobs(jobs)?;
    let mut queue = EventQueue::new();
    for (i, j) in jobs.iter().enumerate() {
        queue.push(SimTime::from_secs_f64(j.arrival_secs), Event::Arrival(i));
    }
    // Active set: remaining service per job id.
    let mut remaining: Vec<Option<f64>> = vec![None; jobs.len()];
    let mut active = 0usize;
    let mut now = 0.0f64;
    let mut completions = Vec::with_capacity(jobs.len());

    // Advance the fluid model to `target`, draining any jobs that finish on
    // the way (each gets an exact completion instant).
    fn drain(
        remaining: &mut [Option<f64>],
        active: &mut usize,
        now: &mut f64,
        target: f64,
        completions: &mut Vec<SharedCompletion>,
        jobs: &[SharedJob],
    ) {
        while *active > 0 && *now < target {
            let rate = 1.0 / *active as f64;
            // Earliest finisher among active jobs.
            let (next_id, next_rem) = remaining
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.map(|v| (i, v)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("active > 0");
            let finish_at = *now + next_rem / rate;
            if finish_at > target {
                // No completion before the target: progress everyone.
                let progress = (target - *now) * rate;
                for r in remaining.iter_mut().flatten() {
                    *r -= progress;
                }
                *now = target;
                return;
            }
            let progress = next_rem;
            for r in remaining.iter_mut().flatten() {
                *r -= progress;
            }
            remaining[next_id] = None;
            *active -= 1;
            *now = finish_at;
            completions.push(SharedCompletion {
                job: next_id,
                completion_secs: finish_at,
                response_secs: finish_at - jobs[next_id].arrival_secs,
            });
        }
        *now = target.max(*now);
    }

    while let Some((t, Event::Arrival(id))) = queue.pop() {
        drain(&mut remaining, &mut active, &mut now, t.as_secs_f64(), &mut completions, jobs);
        remaining[id] = Some(jobs[id].service_secs);
        active += 1;
    }
    drain(&mut remaining, &mut active, &mut now, f64::INFINITY, &mut completions, jobs);
    Ok(completions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_job_finishes_at_arrival_plus_service() {
        let done =
            simulate_processor_sharing(&[SharedJob { arrival_secs: 5.0, service_secs: 10.0 }])
                .unwrap();
        assert_eq!(done.len(), 1);
        assert!((done[0].completion_secs - 15.0).abs() < 1e-9);
        assert!((done[0].response_secs - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_identical_simultaneous_jobs_take_twice_as_long() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
        ];
        let done = simulate_processor_sharing(&jobs).unwrap();
        for c in &done {
            assert!((c.completion_secs - 20.0).abs() < 1e-9, "{c:?}");
        }
    }

    #[test]
    fn short_job_arriving_mid_run_delays_the_long_one() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
            SharedJob { arrival_secs: 4.0, service_secs: 3.0 },
        ];
        let done = simulate_processor_sharing(&jobs).unwrap();
        // Job 0 runs alone 0-4 (6 left), shares 4-10 (3 each done), job 1
        // finishes at 10; job 0 has 3 left, alone, finishes at 13.
        let by_job = |i: usize| done.iter().find(|c| c.job == i).unwrap();
        assert!((by_job(1).completion_secs - 10.0).abs() < 1e-9, "{done:?}");
        assert!((by_job(0).completion_secs - 13.0).abs() < 1e-9, "{done:?}");
    }

    #[test]
    fn work_is_conserved() {
        // Total completion span ≥ total service when overlapping, and the
        // last completion equals total work when all arrive together.
        let jobs: Vec<SharedJob> = (0..5)
            .map(|i| SharedJob { arrival_secs: 0.0, service_secs: 2.0 + f64::from(i) })
            .collect();
        let done = simulate_processor_sharing(&jobs).unwrap();
        let total: f64 = jobs.iter().map(|j| j.service_secs).sum();
        let last = done.iter().map(|c| c.completion_secs).fold(0.0, f64::max);
        assert!((last - total).abs() < 1e-9, "{last} vs {total}");
    }

    #[test]
    fn disjoint_jobs_do_not_interact() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 2.0 },
            SharedJob { arrival_secs: 100.0, service_secs: 2.0 },
        ];
        let done = simulate_processor_sharing(&jobs).unwrap();
        assert!((done[0].response_secs - 2.0).abs() < 1e-9);
        assert!((done[1].response_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_single_server_serialises_in_arrival_order() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
            SharedJob { arrival_secs: 1.0, service_secs: 2.0 },
            SharedJob { arrival_secs: 2.0, service_secs: 3.0 },
        ];
        let done = simulate_fifo(&jobs, 1).unwrap();
        let by_job = |i: usize| done.iter().find(|c| c.job == i).unwrap();
        assert!((by_job(0).completion_secs - 10.0).abs() < 1e-6);
        assert!((by_job(1).completion_secs - 12.0).abs() < 1e-6);
        assert!((by_job(2).completion_secs - 15.0).abs() < 1e-6);
    }

    #[test]
    fn fifo_extra_servers_absorb_the_queue() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
            SharedJob { arrival_secs: 1.0, service_secs: 2.0 },
        ];
        let one = simulate_fifo(&jobs, 1).unwrap();
        let two = simulate_fifo(&jobs, 2).unwrap();
        let resp = |d: &[SharedCompletion], i| d.iter().find(|c| c.job == i).unwrap().response_secs;
        assert!(resp(&one, 1) > resp(&two, 1), "a second server removes queueing delay");
        assert!((resp(&two, 1) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fifo_rejects_zero_servers() {
        assert!(simulate_fifo(&[], 0).is_err());
        assert!(simulate_fifo(&[], 1).unwrap().is_empty());
    }

    #[test]
    fn invalid_jobs_are_rejected() {
        assert!(simulate_processor_sharing(&[SharedJob { arrival_secs: -1.0, service_secs: 1.0 }])
            .is_err());
        assert!(simulate_processor_sharing(&[SharedJob { arrival_secs: 0.0, service_secs: -0.5 }])
            .is_err());
        assert!(
            simulate_fifo(&[SharedJob { arrival_secs: 0.0, service_secs: f64::NAN }], 1).is_err()
        );
    }

    // ---- edge-case regressions (simultaneous arrivals, zero-service
    // ---- jobs, empty job lists, sub-microsecond precision) ----

    #[test]
    fn empty_job_lists_yield_empty_completions() {
        assert!(simulate_fifo(&[], 3).unwrap().is_empty());
        assert!(simulate_processor_sharing(&[]).unwrap().is_empty());
    }

    #[test]
    fn fifo_simultaneous_arrivals_are_served_in_submission_order() {
        let jobs = [
            SharedJob { arrival_secs: 1.0, service_secs: 2.0 },
            SharedJob { arrival_secs: 1.0, service_secs: 3.0 },
            SharedJob { arrival_secs: 1.0, service_secs: 1.0 },
        ];
        let done = simulate_fifo(&jobs, 1).unwrap();
        let by_job = |i: usize| done.iter().find(|c| c.job == i).unwrap();
        assert_eq!(by_job(0).completion_secs, 3.0);
        assert_eq!(by_job(1).completion_secs, 6.0);
        assert_eq!(by_job(2).completion_secs, 7.0);
    }

    #[test]
    fn ps_simultaneous_arrivals_all_share_from_the_first_instant() {
        // Three jobs arriving together: with services 3/6/9 and egalitarian
        // sharing the completions are 9 (3 jobs × 3), 9 + 2×3 = 15, and
        // 15 + 1×3 = 18.
        let jobs = [
            SharedJob { arrival_secs: 2.0, service_secs: 3.0 },
            SharedJob { arrival_secs: 2.0, service_secs: 6.0 },
            SharedJob { arrival_secs: 2.0, service_secs: 9.0 },
        ];
        let done = simulate_processor_sharing(&jobs).unwrap();
        let by_job = |i: usize| done.iter().find(|c| c.job == i).unwrap();
        assert!((by_job(0).completion_secs - 11.0).abs() < 1e-9);
        assert!((by_job(1).completion_secs - 17.0).abs() < 1e-9);
        assert!((by_job(2).completion_secs - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_service_jobs_complete_on_arrival_without_delaying_others() {
        let jobs = [
            SharedJob { arrival_secs: 0.0, service_secs: 10.0 },
            SharedJob { arrival_secs: 4.0, service_secs: 0.0 },
        ];
        let fifo = simulate_fifo(&jobs, 2).unwrap();
        let by_job =
            |d: &[SharedCompletion], i: usize| d.iter().find(|c| c.job == i).copied().unwrap();
        assert_eq!(by_job(&fifo, 1).completion_secs, 4.0);
        assert_eq!(by_job(&fifo, 1).response_secs, 0.0);
        let ps = simulate_processor_sharing(&jobs).unwrap();
        assert_eq!(by_job(&ps, 1).completion_secs, 4.0);
        // The zero-service visitor leaves no trace on the long job.
        assert!((by_job(&ps, 0).completion_secs - 10.0).abs() < 1e-9, "{ps:?}");
        // An all-zero trace completes everything at its arrival instant.
        let zeros = [
            SharedJob { arrival_secs: 1.0, service_secs: 0.0 },
            SharedJob { arrival_secs: 1.0, service_secs: 0.0 },
        ];
        for sim in [simulate_fifo(&zeros, 1).unwrap(), simulate_processor_sharing(&zeros).unwrap()]
        {
            assert_eq!(sim.len(), 2);
            assert!(sim.iter().all(|c| c.completion_secs == 1.0 && c.response_secs == 0.0));
        }
    }

    #[test]
    fn fifo_keeps_sub_microsecond_services_exact() {
        // A chain of back-to-back sub-microsecond jobs: the old
        // integer-micros free-time heap rounded every hop, drifting the
        // chain; exact f64 arithmetic reproduces the analytic sum.
        let service = 3e-7;
        let jobs: Vec<SharedJob> =
            (0..100).map(|_| SharedJob { arrival_secs: 0.0, service_secs: service }).collect();
        let done = simulate_fifo(&jobs, 1).unwrap();
        let mut expected = 0.0f64;
        for (i, c) in done.iter().enumerate() {
            expected += service;
            assert!(
                (c.completion_secs - expected).abs() < 1e-12,
                "job {i}: {} vs {expected}",
                c.completion_secs
            );
        }
    }
}
