//! The epoch-reuse cache's determinism contract, enforced byte for byte:
//!
//! * With the cache **on**, a tuning run — cold or warm — is a pure
//!   function of the environment seed: outcomes and telemetry traces are
//!   byte-identical for 1, 4 and 64 executor workers.
//! * With the cache **off** (the default), every result is bit-identical
//!   to a cache-less build: the handle is inert and no call site changes
//!   behaviour.
//! * A **warm** rerun over the cache a cold run filled reproduces the
//!   cold run's search verdicts exactly — same best trial, same
//!   accuracies — while finishing measurably faster.
//! * Persisted caches ([`EpochCacheHandle::save`]/[`load`]) resume
//!   exactly where the live cache left off.

use pipetune::{
    ConvergencePoint, EpochCacheConfig, EpochCacheHandle, ExperimentEnv, ExperimentEnvBuilder,
    PipeTune, TuneV1, TunerOptions, TuningOutcome, WorkloadSpec,
};
use pipetune_telemetry::TelemetryHandle;

const SEED: u64 = 41;

fn assert_trajectories_identical(a: &[ConvergencePoint], b: &[ConvergencePoint]) {
    assert_eq!(a.len(), b.len(), "different number of trial completions");
    for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
        assert_eq!(pa.wall_secs.to_bits(), pb.wall_secs.to_bits(), "wall_secs differs at {i}");
        assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "accuracy differs at {i}");
        assert_eq!(pa.trial_secs.to_bits(), pb.trial_secs.to_bits(), "trial_secs differs at {i}");
    }
}

fn assert_outcomes_identical(a: &TuningOutcome, b: &TuningOutcome) {
    assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits());
    assert_eq!(a.best_hp, b.best_hp);
    assert_eq!(a.best_system, b.best_system);
    assert_eq!(a.best_trial_id, b.best_trial_id);
    assert_eq!(a.tuning_secs.to_bits(), b.tuning_secs.to_bits());
    assert_eq!(a.tuning_energy_j.to_bits(), b.tuning_energy_j.to_bits());
    assert_eq!(a.training_secs.to_bits(), b.training_secs.to_bits());
    assert_eq!(a.epochs_total, b.epochs_total);
    assert_eq!(a.gt_stats, b.gt_stats);
    assert_eq!(a.cache_stats, b.cache_stats);
    assert_trajectories_identical(&a.convergence, &b.convergence);
}

/// A cold run filling a fresh cache followed by a warm rerun over it,
/// under the given worker count and cache capacity.
fn cold_then_warm(workers: usize, capacity: usize) -> (TuningOutcome, TuningOutcome) {
    let cache = EpochCacheHandle::with_config(EpochCacheConfig { capacity });
    let env = ExperimentEnvBuilder::distributed(SEED)
        .workers(workers)
        .epoch_cache(cache)
        .build()
        .unwrap();
    let spec = WorkloadSpec::lenet_mnist();
    let cold = PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap();
    let warm = PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap();
    (cold, warm)
}

#[test]
fn cached_runs_replay_across_worker_counts() {
    let (cold_1, warm_1) = cold_then_warm(1, 64);
    for workers in [4, 64] {
        let (cold_n, warm_n) = cold_then_warm(workers, 64);
        assert_outcomes_identical(&cold_1, &cold_n);
        assert_outcomes_identical(&warm_1, &warm_n);
    }
    // The warm leg must actually exercise the cache, or the worker sweep
    // proves less than it claims.
    assert!(warm_1.cache_stats.hits > 0, "warm rerun should adopt cached prefixes");
}

#[test]
fn cached_traces_are_byte_identical_across_worker_counts() {
    let trace = |workers: usize| {
        let telemetry = TelemetryHandle::enabled();
        let cache = EpochCacheHandle::with_config(EpochCacheConfig::default());
        let env = ExperimentEnvBuilder::distributed(SEED)
            .workers(workers)
            .telemetry(telemetry.clone())
            .epoch_cache(cache)
            .build()
            .unwrap();
        let spec = WorkloadSpec::lenet_mnist();
        PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap();
        PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap();
        telemetry.snapshot().unwrap().to_json_string()
    };
    let sequential = trace(1);
    assert!(sequential.contains("cache_lookup"), "trace should record cache lookups");
    for workers in [4, 64] {
        assert_eq!(sequential, trace(workers), "trace differs at {workers} workers");
    }
}

#[test]
fn disabled_cache_is_bit_identical_to_default_runs() {
    // `ExperimentEnv` defaults to a disabled handle; attaching an explicit
    // disabled handle must change nothing either. This pins the contract
    // that every cache call site is behind `is_enabled()`.
    let spec = WorkloadSpec::lenet_mnist();
    let base_env = ExperimentEnv::distributed(SEED);
    let base = PipeTune::new(TunerOptions::fast()).run(&base_env, &spec).unwrap();
    let explicit_env = ExperimentEnvBuilder::distributed(SEED)
        .epoch_cache(EpochCacheHandle::disabled())
        .build()
        .unwrap();
    let explicit = PipeTune::new(TunerOptions::fast()).run(&explicit_env, &spec).unwrap();
    assert_outcomes_identical(&base, &explicit);
    assert_eq!(base.cache_stats, Default::default(), "disabled runs never touch the cache");
}

#[test]
fn cold_cache_reproduces_disabled_results() {
    // The cache key is the trial's full identity (config prefix +
    // instantiation seed + RNG seed + tuner policy), and trial identities
    // are unique within a run, so an empty cache can only miss — and
    // misses must not perturb the search in any way.
    let spec = WorkloadSpec::lenet_mnist();
    let disabled_env = ExperimentEnv::distributed(SEED);
    let disabled = PipeTune::new(TunerOptions::fast()).run(&disabled_env, &spec).unwrap();
    let (cold, _) = cold_then_warm(1, 64);
    assert!(cold.cache_stats.misses > 0, "cold run should consult the cache");
    assert_eq!(cold.cache_stats.hits, 0, "trial identities are unique within a run");
    assert_eq!(cold.best_accuracy.to_bits(), disabled.best_accuracy.to_bits());
    assert_eq!(cold.best_hp, disabled.best_hp);
    assert_eq!(cold.best_trial_id, disabled.best_trial_id);
    assert_eq!(cold.tuning_secs.to_bits(), disabled.tuning_secs.to_bits());
    assert_eq!(cold.tuning_energy_j.to_bits(), disabled.tuning_energy_j.to_bits());
    assert_eq!(cold.epochs_total, disabled.epochs_total);
    assert_trajectories_identical(&cold.convergence, &disabled.convergence);
}

/// Asserts two outcomes are identical in everything except their cache
/// stats (used where one run consulted a cache and the other did not).
fn assert_verdicts_identical(a: &TuningOutcome, b: &TuningOutcome) {
    assert_eq!(a.best_accuracy.to_bits(), b.best_accuracy.to_bits());
    assert_eq!(a.best_hp, b.best_hp);
    assert_eq!(a.best_system, b.best_system);
    assert_eq!(a.best_trial_id, b.best_trial_id);
    assert_eq!(a.tuning_secs.to_bits(), b.tuning_secs.to_bits());
    assert_eq!(a.tuning_energy_j.to_bits(), b.tuning_energy_j.to_bits());
    assert_eq!(a.training_secs.to_bits(), b.training_secs.to_bits());
    assert_eq!(a.epochs_total, b.epochs_total);
    assert_trajectories_identical(&a.convergence, &b.convergence);
}

#[test]
fn foreign_seed_prefixes_are_never_adopted() {
    // Regression: the cache key folds in the workload instantiation seed
    // and the trial-RNG seed, so a job with a different master seed
    // sharing the same handle must never adopt the first job's prefixes —
    // a foreign-identity hit would splice another trial's trajectory into
    // this run and break the cache-off equivalence contract.
    let spec = WorkloadSpec::lenet_mnist();
    let cache = EpochCacheHandle::with_config(EpochCacheConfig::default());
    let env_a = ExperimentEnvBuilder::distributed(SEED).epoch_cache(cache.clone()).build().unwrap();
    let first = PipeTune::new(TunerOptions::fast()).run(&env_a, &spec).unwrap();
    assert!(first.cache_stats.inserts > 0, "the first job should populate the cache");

    let env_b = ExperimentEnvBuilder::distributed(SEED + 1).epoch_cache(cache).build().unwrap();
    let shared = PipeTune::new(TunerOptions::fast()).run(&env_b, &spec).unwrap();
    let off_env = ExperimentEnv::distributed(SEED + 1);
    let off = PipeTune::new(TunerOptions::fast()).run(&off_env, &spec).unwrap();

    assert_eq!(shared.cache_stats.hits, 0, "cross-seed adoption is forbidden");
    assert!(shared.cache_stats.misses > 0, "lookups still happen against the shared store");
    assert_verdicts_identical(&shared, &off);
}

#[test]
fn foreign_tuner_policy_prefixes_are_never_adopted() {
    // Regression: TuneV1 derives its scheduler stream from the same
    // `subseed(0x7453)` basis as PipeTune, so with equal options and seed
    // it samples the *same* configurations under the *same* trial ids —
    // only the tuner policy differs (Fixed default vs Pipelined). Without
    // the tuner-policy discriminant in the cache key, the baseline would
    // adopt prefixes tuned under PipeTune's policy and its system
    // configs, time and energy accounting would be contaminated.
    let spec = WorkloadSpec::lenet_mnist();
    let cache = EpochCacheHandle::with_config(EpochCacheConfig::default());
    let env = ExperimentEnvBuilder::distributed(SEED).epoch_cache(cache).build().unwrap();
    PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap();

    let shared = TuneV1::new(TunerOptions::fast()).run(&env, &spec).unwrap();
    let off_env = ExperimentEnv::distributed(SEED);
    let off = TuneV1::new(TunerOptions::fast()).run(&off_env, &spec).unwrap();

    assert_eq!(shared.cache_stats.hits, 0, "cross-policy adoption is forbidden");
    assert!(shared.cache_stats.misses > 0, "the baseline still consults the shared store");
    assert_verdicts_identical(&shared, &off);
}

#[test]
fn warm_rerun_is_faster_and_reproduces_the_cold_verdict() {
    let (cold, warm) = cold_then_warm(4, 64);
    assert_eq!(warm.best_accuracy.to_bits(), cold.best_accuracy.to_bits());
    assert_eq!(warm.best_hp, cold.best_hp);
    assert_eq!(warm.best_trial_id, cold.best_trial_id);
    assert!(warm.cache_stats.hits > 0, "warm rerun should hit");
    assert!(warm.cache_stats.saved_secs > 0.0, "hits should save simulated time");
    assert!(
        warm.tuning_secs < cold.tuning_secs,
        "warm tuning ({}s) should beat cold ({}s)",
        warm.tuning_secs,
        cold.tuning_secs
    );
}

#[test]
fn bounded_capacity_evicts_deterministically() {
    // A deliberately tiny cache forces LRU eviction mid-run; the eviction
    // order — and therefore every downstream lookup — must not depend on
    // the worker count.
    let (cold_1, warm_1) = cold_then_warm(1, 2);
    let (cold_4, warm_4) = cold_then_warm(4, 2);
    assert_outcomes_identical(&cold_1, &cold_4);
    assert_outcomes_identical(&warm_1, &warm_4);
    assert!(
        cold_1.cache_stats.evictions + warm_1.cache_stats.evictions > 0,
        "a 2-entry cache should evict under a full tuning run"
    );
}

#[test]
fn persisted_caches_resume_exactly_where_live_ones_left_off() {
    let spec = WorkloadSpec::lenet_mnist();
    let live = EpochCacheHandle::with_config(EpochCacheConfig::default());
    let env = ExperimentEnvBuilder::distributed(SEED).epoch_cache(live.clone()).build().unwrap();
    let cold = PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap();
    assert!(cold.cache_stats.inserts > 0);

    let path = std::env::temp_dir().join(format!("pipetune-cache-{}.json", std::process::id()));
    live.save(&path).unwrap();
    let restored = EpochCacheHandle::load(&path).unwrap();
    let file = std::fs::read(&path).unwrap();

    // A size budget in counts, not times: eight bytes of file per persisted
    // tensor element — a LeNet entry holds a value, a gradient and a
    // momentum buffer per weight, whatever its hyperparameters — plus 8 KiB
    // of recipe, records and punctuation per entry.
    let entries = live.len().unwrap();
    let weights: usize = cold.model_weights.as_ref().unwrap().iter().map(|w| w.len()).sum();
    let budget = 8 * (3 * weights * entries) + 8 * 1024 * entries;
    assert!(
        file.len() <= budget,
        "{} bytes for {entries} entries of 3 × {weights} elements; the budget is {budget}",
        file.len()
    );
    // The format's own determinism contract: the same store always writes
    // the same bytes, and so does the store a file loads into.
    for (what, handle) in [("a second save", &live), ("load → save", &restored)] {
        handle.save(&path).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == file,
            "{what} must reproduce the file byte for byte"
        );
    }
    let _ = std::fs::remove_file(&path);

    let warm_live = {
        let env = env.clone();
        PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap()
    };
    let warm_restored = {
        let env = ExperimentEnvBuilder::distributed(SEED).epoch_cache(restored).build().unwrap();
        PipeTune::new(TunerOptions::fast()).run(&env, &spec).unwrap()
    };
    assert_outcomes_identical(&warm_live, &warm_restored);
    assert!(warm_restored.cache_stats.hits > 0, "the restored cache should serve hits");
}
