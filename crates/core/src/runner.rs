//! The job driver: a real multi-threaded trial executor mapped onto
//! simulated parallel slots.
//!
//! Each scheduler batch is fanned out to [`ExperimentEnv::workers`] OS
//! threads claiming work items off one queue. The results —
//! accuracies, simulated clocks, ground-truth and cache contents, stats,
//! traces — are byte-identical for every worker count, because every trial
//! draws from its own RNG seeded from `(env.seed, trial id)`, workers only
//! *read* shared state as it stood at batch start, and everything a work
//! item would write goes into its own `Journal`, which the coordinator
//! commits in scheduler request order. `docs/determinism.md` is the full
//! statement of that contract.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use pipetune_cluster::{observe as cluster_observe, FaultReport};
use pipetune_search::{Config, SearchSpace, TrialId, TrialReport, TrialRequest};
use pipetune_telemetry::{EventKind, Span, SpanId, SpanKind, COUNT_BUCKETS, RATIO_BUCKETS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{self, CacheEvent, CacheKey};
use crate::groundtruth::{BatchView, GroundTruthAccess, GtEvent};
use crate::objective::Objective;
use crate::observe;
use crate::trial::{numbered_label, record_epoch_metrics, SystemTuner, TrialExecution};
use crate::tuner::{ConvergencePoint, TunerOptions, TuningOutcome};
use crate::workload::EpochWorkload;
use crate::{ExperimentEnv, GroundTruth, HyperParams, PipeTuneError, WorkloadSpec};

/// Greedy FIFO list scheduling onto `slots` parallel executors.
///
/// Returns per-item completion offsets (relative to the round start) and the
/// round makespan. This is how a batch of asynchronous trials shares the
/// cluster: each new trial goes to the least-loaded slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSchedule;

impl SlotSchedule {
    /// Assigns `durations` (in arrival order) to `slots` executors.
    pub fn assign(durations: &[f64], slots: usize) -> (Vec<f64>, f64) {
        let slots = slots.max(1);
        let mut load = vec![0.0f64; slots];
        let mut completions = Vec::with_capacity(durations.len());
        for &d in durations {
            let (idx, _) = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one slot");
            load[idx] += d.max(0.0);
            completions.push(load[idx]);
        }
        let makespan = load.iter().copied().fold(0.0, f64::max);
        (completions, makespan)
    }

    /// Like [`SlotSchedule::assign`], but each slot runs at a relative
    /// `speed` (1.0 = healthy, < 1.0 = straggling slot): a duration `d`
    /// occupies slot `i` for `d / speeds[i]`. Each item goes to the slot
    /// that would finish it earliest, so work is steered away from slow
    /// slots — the re-assignment half of straggler mitigation. With all
    /// speeds at 1.0 this reduces exactly to `assign`.
    fn assign_weighted(durations: &[f64], speeds: &[f64]) -> (Vec<f64>, f64) {
        let slots = speeds.len().max(1);
        let mut load = vec![0.0f64; slots];
        let mut completions = Vec::with_capacity(durations.len());
        for &d in durations {
            let d = d.max(0.0);
            let (idx, done) = load
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let speed = speeds.get(i).copied().unwrap_or(1.0).max(1e-3);
                    (i, l + d / speed)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one slot");
            load[idx] = done;
            completions.push(done);
        }
        let makespan = load.iter().copied().fold(0.0, f64::max);
        (completions, makespan)
    }
}

/// One trial's executor-side state: the live execution plus its private RNG.
///
/// The RNG is derived from `(env.seed, trial id)` and persists across
/// scheduler rungs, so a trial's stochastic profile noise is a function of
/// its identity alone — never of which worker ran it or what ran before it.
///
/// Kilobytes wide (a model or solver inline), so it is boxed once when the
/// trial is created and every later hop — work item, batch cell, result,
/// the job's trial map — moves the pointer.
#[derive(Debug)]
struct TrialSlot {
    exec: TrialExecution,
    rng: StdRng,
}

/// Seed of the private RNG of trial `id` (decorrelated from the workload
/// instantiation seed `env.subseed(id)` by the golden-ratio stride). Also
/// one of the epoch-reuse cache's identity components: two trials share a
/// cached prefix only if their RNG streams are identical.
fn trial_rng_seed(env: &ExperimentEnv, id: TrialId) -> u64 {
    env.subseed(0xEE).wrapping_add(id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Derives the private RNG of trial `id`.
fn trial_rng(env: &ExperimentEnv, id: TrialId) -> StdRng {
    StdRng::seed_from_u64(trial_rng_seed(env, id))
}

/// The epoch-reuse cache address of one trial: the hyperparameter-prefix
/// fingerprint extended with everything else that pins the trained state
/// bit for bit — instantiation seed, RNG seed, tuner policy, contention.
/// Computed identically at lookup (fresh trials) and insert (all trials),
/// so a trial always re-addresses its own prefixes, and never anyone
/// else's.
fn cache_identity(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    hp: &HyperParams,
    id: TrialId,
    tuner: &SystemTuner,
    contention: f64,
) -> u64 {
    cache::trial_identity(
        cache::fingerprint(spec, hp),
        env.subseed(id.0),
        trial_rng_seed(env, id),
        cache::tuner_policy(tuner),
        contention,
    )
}

/// A claimed unit of work: one scheduler request plus what is needed to run
/// it (`slot` for resumed trials, `tuner` for fresh ones).
struct WorkItem {
    req: TrialRequest,
    slot: Option<Box<TrialSlot>>,
    tuner: Option<SystemTuner>,
}

/// Everything one executed work item wants written to state that outlives
/// it. Workers fill it; only [`commit_batch`] applies it, in scheduler
/// request order (see `docs/determinism.md`).
#[derive(Debug, Default)]
struct Journal {
    /// Ground-truth lookups accounted and probe outcomes recorded.
    ground_truth: Vec<GtEvent>,
    /// Epoch-reuse cache hit/miss accounting and the prefix to remember.
    cache: Vec<CacheEvent>,
    /// Fault counters this rung added to the trial's report.
    faults: FaultReport,
}

/// What one executed work item hands back to the coordinator.
struct ItemResult {
    id: TrialId,
    /// The trial, its telemetry buffer holding the epoch spans, pipeline
    /// events and trial metrics this rung recorded — the journal's fourth
    /// part, left in place so its storage serves the next rung.
    slot: Box<TrialSlot>,
    accuracy: f32,
    score: f64,
    /// Epochs the scheduler requested for this rung.
    epochs: u32,
    delta_secs: f64,
    delta_energy: f64,
    /// `Some(attempts)` when the trial exhausted its retry budget this
    /// rung and was abandoned (its score is already `NEG_INFINITY`).
    abandoned: Option<u32>,
    journal: Journal,
}

/// Trains one work item to completion (worker-thread body). `ground_truth`
/// and the environment's cache handle are only read; every write lands in
/// the returned journal.
fn execute_item(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    objective: Objective,
    contention: f64,
    ground_truth: Option<&GroundTruth>,
    item: WorkItem,
) -> Result<ItemResult, PipeTuneError> {
    let WorkItem { req, slot, tuner } = item;
    let was_resumed = slot.is_some();
    let caching = env.epoch_cache.is_enabled();
    let mut journal = Journal::default();
    // Epochs already covered by an adopted cache prefix (fresh trials only).
    let mut adopted_epochs = 0u32;
    let mut slot = match slot {
        Some(s) => s,
        None => {
            let hp = HyperParams::from_config(&req.config);
            let mut rng = trial_rng(env, req.id);
            let tuner = tuner.expect("fresh trials carry a tuner");
            // Fresh trial: consult the epoch-reuse cache for the deepest
            // prefix within this rung's budget. The address is the trial's
            // full identity, so a hit only ever serves state this exact
            // trial would have trained itself.
            let fp = caching.then(|| cache_identity(env, spec, &hp, req.id, &tuner, contention));
            match fp.and_then(|fp| env.epoch_cache.peek(fp, req.epochs)) {
                Some((key, snapshot, saved)) => {
                    journal.cache.push(CacheEvent::Hit { key, saved_secs: saved.0 });
                    adopted_epochs = key.epochs;
                    // The scheduler-assigned `tuner` is dropped in favour
                    // of the donor's evolved state: the key's policy
                    // discriminant guarantees both started from the same
                    // policy, and the identity components guarantee the
                    // donor evolved exactly as this trial would have.
                    let exec = TrialExecution::adopt(env, snapshot, saved, req.id.0, &mut rng);
                    Box::new(TrialSlot { exec, rng })
                }
                None => {
                    let workload = spec.instantiate(&hp, env.subseed(req.id.0))?;
                    let mut exec = TrialExecution::new(workload, tuner).with_trial_id(req.id.0);
                    if caching {
                        journal.cache.push(CacheEvent::Miss);
                        exec.note_cache_miss(env);
                    }
                    Box::new(TrialSlot { exec, rng })
                }
            }
        }
    };
    // A fresh trial that adopted a prefix already carries the charged
    // reload time; the whole of it belongs to this rung's slot occupancy.
    let (secs_before, energy_before) =
        if was_resumed { (slot.exec.duration_secs(), slot.exec.energy_j()) } else { (0.0, 0.0) };
    let faults_before = slot.exec.fault_report();
    let mut view =
        ground_truth.map(|history| BatchView { history, journal: &mut journal.ground_truth });
    let TrialSlot { exec, rng } = &mut *slot;
    let run = exec.run_epochs(
        env,
        req.epochs - adopted_epochs,
        view.as_mut().map(|v| v as &mut dyn GroundTruthAccess),
        contention,
        rng,
    );
    let abandoned = match run {
        Ok(()) => None,
        Err(PipeTuneError::RetriesExhausted { attempts, .. }) => Some(attempts),
        Err(e) => return Err(e),
    };
    let (accuracy, score) = if abandoned.is_some() {
        // An abandoned trial has no usable measurement: it scores
        // `NEG_INFINITY` so the scheduler never promotes it.
        (f32::NAN, f64::NEG_INFINITY)
    } else {
        let accuracy = slot.exec.accuracy()?;
        (accuracy, objective.score(f64::from(accuracy), slot.exec.duration_secs()))
    };
    if abandoned.is_none() && caching {
        // Remember this trial's state at its new depth. The insert address
        // recomputes the same identity the lookup used (the tuner-policy
        // discriminant is invariant over tuner evolution), so resumed
        // trials keep addressing their own prefix line.
        let exec = &slot.exec;
        let key = CacheKey {
            fingerprint: cache_identity(
                env,
                exec.workload().spec(),
                exec.workload().hyperparams(),
                req.id,
                exec.tuner(),
                contention,
            ),
            epochs: exec.workload().epochs_run(),
        };
        let snapshot = Box::new(exec.donor_snapshot(&slot.rng));
        journal.cache.push(CacheEvent::Insert { key, snapshot });
    }
    journal.faults = slot.exec.fault_report().delta_since(&faults_before);
    Ok(ItemResult {
        id: req.id,
        accuracy,
        score,
        epochs: req.epochs,
        delta_secs: slot.exec.duration_secs() - secs_before,
        delta_energy: slot.exec.energy_j() - energy_before,
        abandoned,
        journal,
        slot,
    })
}

/// Executes a batch on `env.workers` threads claiming items off one
/// queue; results come back in request order whatever the finish order.
fn execute_batch(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    objective: Objective,
    contention: f64,
    ground_truth: Option<&GroundTruth>,
    items: Vec<WorkItem>,
) -> Vec<Result<ItemResult, PipeTuneError>> {
    let run = |item| execute_item(env, spec, objective, contention, ground_truth, item);
    let workers = env.workers.max(1).min(items.len());
    if workers <= 1 {
        return items.into_iter().map(run).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut done: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    std::iter::from_fn(claim).map(|(i, item)| (i, run(item))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Commits a batch's journals — the one place a batch's effects reach the
/// ground truth, the epoch-reuse cache, the run's fault report and its
/// trace. `results` are in scheduler request order and are applied in that
/// order; cache events land together at `batch_end_secs` so capacity is
/// enforced once per batch. A work item's whole trace — trial span, fault
/// counters, everything its buffer holds — reaches the sink under one lock
/// acquisition.
fn commit_batch(
    env: &ExperimentEnv,
    batch_span: SpanId,
    batch_end_secs: f64,
    results: &mut [ItemResult],
    mut ground_truth: Option<&mut GroundTruth>,
    fault_report: &mut FaultReport,
) -> Result<(), PipeTuneError> {
    let telemetry = &env.telemetry;
    let mut cache_events = Vec::new();
    for item in results {
        let Journal { ground_truth: gt_events, cache, faults } = std::mem::take(&mut item.journal);
        fault_report.merge(&faults);
        if telemetry.is_enabled() {
            // Trial span on the trial-cumulative clock, then the
            // worker-local buffer merged under it.
            let exec = &mut item.slot.exec;
            let end_secs = exec.duration_secs();
            let mut attrs = Vec::with_capacity(4);
            attrs.extend([("trial", item.id.0.into()), ("epochs", item.epochs.into())]);
            match item.abandoned {
                None => {
                    attrs.push(("accuracy", item.accuracy.into()));
                    attrs.push(("score", item.score.into()));
                }
                Some(attempts) => attrs.push(("abandoned_after_attempts", attempts.into())),
            }
            let trial_span = Span {
                kind: SpanKind::Trial,
                label: numbered_label("trial ", item.id.0, &[]),
                parent: None,
                start_secs: end_secs - item.delta_secs,
                end_secs,
                attrs,
            };
            let buffer = exec.telemetry_mut();
            buffer.fold_epochs(|rows, m| record_epoch_metrics(env, rows, m));
            buffer.with_metrics(|m| cluster_observe::record_fault_report(&faults, m));
            telemetry.merge_trial(batch_span, trial_span, buffer);
        }
        if let Some(gt) = ground_truth.as_deref_mut() {
            gt.commit(gt_events)?;
        }
        cache_events.extend(cache);
    }
    env.epoch_cache.commit(cache_events, batch_end_secs);
    Ok(())
}

/// What distinguishes one approach's HPT job from another's.
pub(crate) struct Job<'a, F: FnMut(&Config) -> SystemTuner> {
    /// Names the root `tuning_run` telemetry span.
    pub label: &'a str,
    /// What the scheduler samples configurations from.
    pub space: SearchSpace,
    /// How a finished rung is scored.
    pub objective: Objective,
    /// Builds each new trial's [`SystemTuner`] from its configuration
    /// (fixed default for V1, fixed per-config system for V2, pipelined
    /// for PipeTune).
    pub policy: F,
    /// History shared across the job's trials (and, via the caller,
    /// across jobs); `None` disables reuse.
    pub ground_truth: Option<&'a mut GroundTruth>,
    /// Co-location slowdown applied to every epoch.
    pub contention: f64,
}

/// Runs one HPT job to completion: builds `options.scheduler` over
/// `job.space` (seeded from `env` and the caller's `jobs_run` counter,
/// which it advances) and drives it, really executing each batch on
/// `env.workers` threads.
///
/// Telemetry recording happens entirely on the coordinator (spans) or in
/// per-trial buffers merged in request order (everything inside a trial),
/// so traces are byte-identical for every worker count — `env.workers` is
/// deliberately never recorded.
pub(crate) fn run_job<F>(
    env: &ExperimentEnv,
    spec: &WorkloadSpec,
    options: &TunerOptions,
    jobs_run: &mut u64,
    job: Job<'_, F>,
) -> Result<TuningOutcome, PipeTuneError>
where
    F: FnMut(&Config) -> SystemTuner,
{
    let Job { label, space, objective, mut policy, mut ground_truth, contention } = job;
    let spec = &spec.with_scale(options.scale);
    let mut scheduler =
        options.scheduler.build(space, options.r_max, options.eta, env.subseed(0x7453 + *jobs_run));
    *jobs_run += 1;
    let gt_stats_before = ground_truth.as_deref().map(GroundTruth::stats);
    let cache_stats_before = env.epoch_cache.stats().unwrap_or_default();
    let telemetry = &env.telemetry;
    let run_span = telemetry.open_span(
        SpanId::NONE,
        SpanKind::TuningRun,
        label,
        0.0,
        vec![
            ("workload", spec.name().into()),
            ("seed", env.seed.into()),
            ("parallel_slots", env.parallel_slots.into()),
        ],
    );
    // Ordered rather than hashed: trials leave and re-enter every round, and
    // a hash table's growth under removals depends on its per-process keys
    // (`tests/alloc_budget.rs` counts on allocations repeating exactly).
    let mut trials: BTreeMap<TrialId, Box<TrialSlot>> = BTreeMap::new();
    let mut clock = 0.0f64;
    let mut energy = 0.0f64;
    let mut convergence = Vec::new();
    let mut best: Option<(f64, TrialId)> = None;
    let mut fault_report = FaultReport::default();
    let mut round = 0u64;
    let mut round_guard = 0usize;

    while !scheduler.is_finished() {
        let reqs = scheduler.next_trials();
        if reqs.is_empty() {
            round_guard += 1;
            if round_guard > 10_000 {
                return Err(PipeTuneError::InvalidConfig {
                    reason: "scheduler made no progress for 10000 rounds".into(),
                });
            }
            continue;
        }
        round_guard = 0;

        let n = reqs.len();
        let rung_span = telemetry.open_span(
            run_span,
            SpanKind::Rung,
            format!("round {round}"),
            clock,
            vec![("round", round.into()), ("trials", n.into())],
        );
        let batch_span =
            telemetry.open_span(rung_span, SpanKind::Batch, format!("batch of {n}"), clock, vec![]);
        // Claim the batch in request order. Fresh trials get their tuner
        // from `policy` here on the coordinator (it may be an FnMut);
        // workload instantiation — the expensive part — happens on workers.
        let items = reqs
            .into_iter()
            .map(|req| {
                let slot = trials.remove(&req.id);
                let tuner = if slot.is_none() { Some(policy(&req.config)) } else { None };
                WorkItem { req, slot, tuner }
            })
            .collect();
        // Workers share the ground truth as it stands now; the first error
        // (if any) in request order aborts the run.
        let mut results =
            execute_batch(env, spec, objective, contention, ground_truth.as_deref(), items)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?;

        // Slot-level stragglers: this round's simulated executors may run
        // below nominal speed; work is re-assigned to whichever slot would
        // finish it earliest. The unweighted path is kept verbatim so empty
        // plans stay bit-identical to pre-fault builds.
        let durations: Vec<f64> = results.iter().map(|item| item.delta_secs).collect();
        let slots = env.parallel_slots.max(1);
        let speeds: Vec<f64> = (0..slots).map(|s| env.fault_plan.slot_speed(round, s)).collect();
        let healthy = speeds.iter().all(|&s| s >= 1.0);
        let (unweighted_completions, unweighted) = SlotSchedule::assign(&durations, slots);
        let (completions, makespan) = if healthy {
            (unweighted_completions, unweighted)
        } else {
            SlotSchedule::assign_weighted(&durations, &speeds)
        };

        commit_batch(
            env,
            batch_span,
            clock + makespan,
            &mut results,
            ground_truth.as_deref_mut(),
            &mut fault_report,
        )?;

        if !healthy {
            let slow = speeds.iter().filter(|&&s| s < 1.0).count() as u64;
            fault_report.injected += slow;
            fault_report.stragglers += slow;
            fault_report.recovered += slow;
            fault_report.wasted_epoch_secs += (makespan - unweighted).max(0.0);
            if telemetry.is_enabled() {
                for (slot, &speed) in speeds.iter().enumerate() {
                    if speed < 1.0 {
                        telemetry.event(
                            rung_span,
                            EventKind::Fault,
                            clock,
                            vec![
                                ("fault", "slot_straggler".into()),
                                ("slot", slot.into()),
                                ("speed", speed.into()),
                            ],
                        );
                    }
                }
                telemetry.with_metrics(|m| {
                    m.counter_add(cluster_observe::FAULTS_INJECTED, slow);
                    m.counter_add(cluster_observe::FAULTS_STRAGGLERS, slow);
                    m.counter_add(cluster_observe::FAULTS_RECOVERED, slow);
                });
            }
        }
        telemetry.with_metrics(|m| {
            cluster_observe::record_slot_speeds(&speeds, m);
            m.counter_add(observe::ROUNDS, 1);
            m.observe(observe::BATCH_TRIALS, COUNT_BUCKETS, n as f64);
            m.observe(observe::QUEUE_OCCUPANCY, RATIO_BUCKETS, n as f64 / slots as f64);
        });
        round += 1;

        for (item, offset) in results.into_iter().zip(&completions) {
            energy += item.delta_energy;
            if item.abandoned.is_none() {
                convergence.push(ConvergencePoint {
                    wall_secs: clock + offset,
                    accuracy: item.accuracy,
                    trial_secs: item.slot.exec.duration_secs(),
                });
                if best.as_ref().is_none_or(|(s, _)| item.score > *s) {
                    best = Some((item.score, item.id));
                }
                trials.insert(item.id, item.slot);
            }
            scheduler.report(TrialReport { id: item.id, score: item.score, epochs_run: 0 });
        }
        clock += makespan;
        telemetry.close_span(batch_span, clock);
        telemetry.close_span(rung_span, clock);
        // Online monitoring: stream everything this round recorded through
        // the configured detectors. Incremental (cursor-based), and a
        // strict no-op when either handle is disabled — the live scan and
        // an offline replay of the exported trace see the same stream.
        env.monitor.scan(telemetry);
    }

    let (_, best_id) = best.ok_or_else(|| {
        if fault_report.abandoned > 0 {
            PipeTuneError::InvalidConfig {
                reason: format!(
                    "every trial was abandoned under the fault plan \
                     ({} abandoned); relax the plan",
                    fault_report.abandoned
                ),
            }
        } else {
            PipeTuneError::InvalidConfig { reason: "scheduler finished without any trial".into() }
        }
    })?;
    telemetry.gauge_set(observe::SCHEDULER_EPOCHS, scheduler.epochs_issued() as f64);
    telemetry.gauge_set(cluster_observe::FAULTS_WASTED_SECS, fault_report.wasted_epoch_secs);
    telemetry.gauge_set(cluster_observe::FAULTS_RECOVERY_SECS, fault_report.recovery_overhead_secs);
    let cache_stats = env.epoch_cache.stats().unwrap_or_default().delta_since(&cache_stats_before);
    if env.epoch_cache.is_enabled() {
        telemetry.with_metrics(|m| {
            m.counter_add(observe::CACHE_HITS, cache_stats.hits);
            m.counter_add(observe::CACHE_MISSES, cache_stats.misses);
            m.counter_add(observe::CACHE_INSERTS, cache_stats.inserts);
            m.counter_add(observe::CACHE_EVICTIONS, cache_stats.evictions);
        });
        if cache_stats.hits > 0 {
            telemetry.gauge_set(observe::CACHE_SAVED_SECS, cache_stats.saved_secs);
        }
    }
    let gt_stats =
        ground_truth.zip(gt_stats_before).map(|(gt, before)| gt.stats().delta_since(&before));
    if let Some(gt_stats) = gt_stats {
        telemetry.with_metrics(|m| {
            let (hits, misses) = (gt_stats.hits as u64, gt_stats.misses as u64);
            m.counter_add(observe::GT_HITS, hits);
            m.counter_add(observe::GT_MISSES, misses);
            m.counter_add(observe::GT_RECORDED, gt_stats.recorded as u64);
            m.counter_add(observe::GT_REFITS, gt_stats.refits as u64);
            if hits + misses > 0 {
                #[allow(clippy::cast_precision_loss)]
                m.gauge_set(observe::GT_HIT_RATE, hits as f64 / (hits + misses) as f64);
            }
        });
    }
    telemetry.close_span(run_span, clock);

    let best_trial = &mut trials.get_mut(&best_id).expect("best trial exists").exec;
    let best_hp = *best_trial.workload().hyperparams();
    // Completions in wall-clock order (stable: ties keep request order).
    convergence
        .sort_by(|a, b| a.wall_secs.partial_cmp(&b.wall_secs).unwrap_or(std::cmp::Ordering::Equal));
    Ok(TuningOutcome {
        workload: spec.name(),
        best_accuracy: best_trial.accuracy()?,
        best_hp,
        best_system: best_trial.final_system(env),
        training_secs: best_trial.training_time_secs(env, best_hp.epochs),
        tuning_secs: clock,
        tuning_energy_j: energy,
        epochs_total: scheduler.epochs_issued(),
        convergence,
        gt_stats: gt_stats.unwrap_or_default(),
        model_weights: best_trial.workload_mut().export_weights(),
        best_trial_id: best_id.0,
        fault_report,
        cache_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochCacheHandle, ExperimentEnvBuilder, GroundTruthStats, ProbeGoal};
    use pipetune_cluster::FaultPlan;
    use pipetune_telemetry::TelemetryHandle;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// The order a batch's work items finish in; commit order is always
    /// request order.
    #[derive(Clone, Copy)]
    enum Finish {
        InOrder,
        Reversed,
        /// Every item on its own OS thread, all running at once, forced to
        /// publish results last-request-first.
        ReversedOnThreads,
    }

    /// A fresh pipelined trial with enough epochs to finish probing (and
    /// so to record into the ground truth) within the rung.
    fn fresh(id: u64) -> WorkItem {
        let hp = HyperParams {
            batch_size: [64, 512][(id % 2) as usize],
            learning_rate: 0.02,
            ..HyperParams::default()
        };
        let req = TrialRequest { id: TrialId(id), config: hp.to_config().into(), epochs: 8 };
        WorkItem { req, slot: None, tuner: Some(SystemTuner::pipelined(ProbeGoal::Runtime)) }
    }

    fn execute_in(
        finish: Finish,
        env: &ExperimentEnv,
        spec: &WorkloadSpec,
        ground_truth: &GroundTruth,
        items: Vec<WorkItem>,
    ) -> Vec<ItemResult> {
        let n = items.len();
        let run = |item| {
            execute_item(env, spec, Objective::Accuracy, 1.0, Some(ground_truth), item).unwrap()
        };
        let mut finished: Vec<(usize, ItemResult)> = match finish {
            Finish::InOrder => items.into_iter().map(run).enumerate().collect(),
            Finish::Reversed => {
                items.into_iter().enumerate().rev().map(|(i, item)| (i, run(item))).collect()
            }
            Finish::ReversedOnThreads => {
                // Gate `i` opens once item `i` has published; item `i`
                // publishes only after gate `i + 1` opened.
                let (opens, mut gates): (Vec<_>, Vec<_>) =
                    (0..=n).map(|_| mpsc::channel::<()>()).map(|(tx, rx)| (tx, Some(rx))).unzip();
                opens[n].send(()).unwrap();
                let published = Mutex::new(Vec::new());
                std::thread::scope(|scope| {
                    for (i, item) in items.into_iter().enumerate() {
                        let (after, open) = (gates[i + 1].take().unwrap(), opens[i].clone());
                        let (run, published) = (&run, &published);
                        scope.spawn(move || {
                            let result = run(item);
                            after.recv().unwrap();
                            published.lock().unwrap().push((i, result));
                            open.send(()).unwrap();
                        });
                    }
                });
                published.into_inner().unwrap()
            }
        };
        if !matches!(finish, Finish::InOrder) {
            assert!(finished.iter().map(|(i, _)| *i).eq((0..n).rev()), "finish order is reversed");
        }
        finished.sort_by_key(|(i, _)| *i);
        finished.into_iter().map(|(_, result)| result).collect()
    }

    /// What two batches leave behind in every store the journal commits to.
    #[derive(Debug, PartialEq)]
    struct Stores {
        /// Ground-truth counters after batch one and after batch two.
        gt_stats: [GroundTruthStats; 2],
        gt_history: Vec<Vec<u64>>,
        /// The persisted cache: keys, snapshots, LRU stamps, sequence numbers.
        cache_file: String,
        faults: FaultReport,
        trace: String,
        /// Per batch-two item: did it probe?
        probed: Vec<bool>,
    }

    /// Executes two eight-item batches in `finish` order against one cold
    /// ground truth, one cache and one trace, committing each in request
    /// order. Batch two re-issues trials 0..4 as fresh (cache hits) beside
    /// new trials 8..12 (cache misses that consult the ground truth).
    fn two_batches(finish: Finish) -> Stores {
        let env = ExperimentEnvBuilder::distributed(5)
            .fault_plan(FaultPlan::mixed(7))
            .telemetry(TelemetryHandle::enabled())
            .epoch_cache(EpochCacheHandle::enabled())
            .build()
            .unwrap();
        let spec = WorkloadSpec::lenet_mnist().with_scale(0.2);
        let mut gt = GroundTruth::paper_default(1);
        let mut faults = FaultReport::default();
        let mut gt_stats = [GroundTruthStats::default(); 2];
        let mut probed = Vec::new();
        for (batch, ids) in
            [(0..8).collect::<Vec<u64>>(), (0..4).chain(8..12).collect()].into_iter().enumerate()
        {
            let items = ids.into_iter().map(fresh).collect();
            let mut results = execute_in(finish, &env, &spec, &gt, items);
            let span = env.telemetry.open_span(SpanId::NONE, SpanKind::Batch, "batch", 0.0, vec![]);
            commit_batch(&env, span, 100.0, &mut results, Some(&mut gt), &mut faults).unwrap();
            env.telemetry.close_span(span, 100.0);
            gt_stats[batch] = gt.stats();
            probed = results
                .iter()
                .map(|r| r.slot.exec.records().iter().any(|e| e.phase == crate::EpochPhase::Probe))
                .collect();
        }
        static FILE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "pipetune-journal-{}-{}.json",
            std::process::id(),
            FILE.fetch_add(1, Ordering::Relaxed)
        ));
        env.epoch_cache.save(&path).unwrap();
        let cache_file = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        Stores {
            gt_stats,
            gt_history: gt
                .feature_history()
                .iter()
                .map(|f| f.iter().map(|v| v.to_bits()).collect())
                .collect(),
            cache_file,
            faults,
            trace: env.telemetry.snapshot().unwrap().to_json_string(),
            probed,
        }
    }

    #[test]
    fn journals_commit_in_request_order_whatever_the_execution_order() {
        let in_order = two_batches(Finish::InOrder);
        assert!(in_order.faults.injected > 0, "the plan should exercise the fault delta");
        assert_eq!(two_batches(Finish::Reversed), in_order);
    }

    #[test]
    fn eight_concurrent_items_read_batch_start_history_and_commit_deterministically() {
        let stores = two_batches(Finish::ReversedOnThreads);
        // Batch one ran against a cold ground truth: all eight lookups
        // missed, although every trial finished probing and recorded — no
        // item saw a co-running item's writes.
        let [first, second] = stores.gt_stats;
        assert_eq!((first.hits, first.misses, first.recorded), (0, 8, 8));
        // Batch two: the four cache hits resumed past profiling; the four
        // new trials each landed exactly one lookup, against batch one's
        // committed history — and a hit skips probing, a miss probes.
        let (hits, misses) = (second.hits, second.misses - first.misses);
        assert_eq!(hits + misses, 4, "no lost updates, no double counting");
        assert!(hits >= 1, "batch one's records should be visible to batch two: {second:?}");
        assert_eq!(stores.probed[4..].iter().filter(|&&p| p).count(), misses);
        // And finish order under real threads changed nothing.
        assert_eq!(stores, two_batches(Finish::InOrder));
    }

    #[test]
    fn slot_schedule_packs_greedily() {
        let (completions, makespan) = SlotSchedule::assign(&[4.0, 3.0, 2.0, 1.0], 2);
        // Slot A: 4 → +1 = 5; Slot B: 3 → +2 = 5.
        assert_eq!(completions, vec![4.0, 3.0, 5.0, 5.0]);
        assert_eq!(makespan, 5.0);
    }

    #[test]
    fn one_slot_serialises() {
        let (completions, makespan) = SlotSchedule::assign(&[1.0, 2.0, 3.0], 1);
        assert_eq!(completions, vec![1.0, 3.0, 6.0]);
        assert_eq!(makespan, 6.0);
    }

    #[test]
    fn empty_and_zero_inputs_are_safe() {
        let (c, m) = SlotSchedule::assign(&[], 4);
        assert!(c.is_empty());
        assert_eq!(m, 0.0);
        let (c, m) = SlotSchedule::assign(&[0.0, -1.0], 0);
        assert_eq!(c.len(), 2);
        assert_eq!(m, 0.0);
    }

    #[test]
    fn more_slots_never_increase_makespan() {
        let d = [5.0, 4.0, 3.0, 2.0, 1.0, 1.0];
        let (_, m1) = SlotSchedule::assign(&d, 1);
        let (_, m2) = SlotSchedule::assign(&d, 2);
        let (_, m4) = SlotSchedule::assign(&d, 4);
        assert!(m1 >= m2 && m2 >= m4);
    }

    #[test]
    fn weighted_assign_with_healthy_slots_matches_assign() {
        let d = [4.0, 3.0, 2.0, 1.0, 0.5, 6.0];
        let (c_plain, m_plain) = SlotSchedule::assign(&d, 3);
        let (c_w, m_w) = SlotSchedule::assign_weighted(&d, &[1.0, 1.0, 1.0]);
        assert_eq!(c_plain, c_w);
        assert_eq!(m_plain, m_w);
    }

    #[test]
    fn weighted_assign_steers_work_away_from_slow_slot() {
        // Slot 1 runs at half speed: the greedy earliest-finish rule should
        // route most work to slot 0 and finish sooner than naive least-load
        // assignment onto the slow slot would.
        let d = [2.0; 8];
        let (completions, makespan) = SlotSchedule::assign_weighted(&d, &[1.0, 0.5]);
        assert_eq!(completions.len(), d.len());
        // Fast slot absorbs ~2/3 of the items: 16 total units of work at
        // combined speed 1.5 bounds the makespan near 16/1.5 ≈ 10.67.
        assert!(makespan < 14.0, "makespan {makespan}");
        // A straggling slot strictly inflates the makespan vs two healthy
        // slots (8.0).
        let (_, healthy) = SlotSchedule::assign_weighted(&d, &[1.0, 1.0]);
        assert!(makespan > healthy);
    }
}
