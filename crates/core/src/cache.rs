//! The epoch-reuse cache: content-addressed trial prefixes shared across
//! trials and jobs (see `docs/reuse.md`).
//!
//! HyperBand restarts configurations from epoch 0 on every fresh trial,
//! even when another trial (in this job, an earlier job, or a previous
//! run persisted to disk) already trained the *identical* workload prefix
//! — same dataset fingerprint, same model configuration, same
//! hyperparameter prefix. Following the memoization argument of *Li et
//! al., Exploiting Reuse in Pipeline-Aware Hyperparameter Tuning*, an
//! [`EpochCache`] stores those prefixes content-addressed by
//! [`fingerprint`] and epoch depth, and a fresh trial resumes from the
//! deepest cached prefix not exceeding its epoch budget, charging only a
//! small reload cost (5 % of it) instead of the full training time.
//!
//! # Determinism contract
//!
//! The content address covers the trial's *full resumable identity* —
//! the hyperparameter-prefix [`fingerprint`] extended by
//! `trial_identity` with the workload instantiation seed, the trial's
//! private RNG seed, the tuner-policy discriminant and the contention
//! factor. A hit can therefore only ever return state the adopting trial
//! would have computed, bit for bit, had it trained the prefix itself:
//! accuracy trajectories with the cache on are byte-identical to
//! cache-off runs, and only the time/energy accounting changes.
//!
//! The cache is one of the stores behind the executor's per-work-item
//! journal (`docs/determinism.md`): during a scheduler batch, worker
//! threads only *read* it (through `EpochCacheHandle::peek`, which takes
//! a read lock and never mutates), while hits, misses and inserts are
//! journalled per work item and committed by the coordinator in scheduler
//! request order at the post-batch simulated time. Results with the cache
//! enabled are therefore byte-identical for every
//! [`crate::ExperimentEnv::workers`] count; with the cache disabled (the
//! default) every code path is bypassed and results are bit-identical to
//! builds without the cache.
//!
//! # Eviction
//!
//! Bounded capacity with LRU-by-simulated-time: every entry carries the
//! simulated commit clock of its last hit or (re-)insert plus an insertion
//! sequence number as a tie-break, and the coordinator evicts the
//! least-recently-used entries whenever a commit leaves the cache over
//! [`EpochCacheConfig::capacity`]. The clock is kept monotone across runs
//! sharing one handle (each run's wall clock restarts at zero) by adding
//! a running offset whenever the commit clock regresses.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use pipetune_tsdb::TsdbError;
use rand::rngs::StdRng;
use serde::{content_get, Content, DeError, Deserialize, Serialize};

use crate::trial::{EpochPhase, EpochRecord, SystemTuner, TrialSnapshot};
use crate::workload::SCALE_RANGE;
use crate::{HyperParams, PipeTuneError, WorkloadSpec};

/// Tuning knobs of the epoch-reuse cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochCacheConfig {
    /// Maximum number of cached prefixes; least-recently-used entries are
    /// evicted beyond it. Must be at least 1.
    pub capacity: usize,
}

/// Fraction of the original epoch duration charged for adopting a cached
/// epoch (checkpoint reload instead of training).
const RELOAD_COST_FACTOR: f64 = 0.05;

impl Default for EpochCacheConfig {
    fn default() -> Self {
        EpochCacheConfig { capacity: 64 }
    }
}

impl EpochCacheConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError::InvalidConfig`] on a zero capacity.
    pub(crate) fn validate(&self) -> Result<(), PipeTuneError> {
        if self.capacity == 0 {
            return Err(PipeTuneError::InvalidConfig {
                reason: "epoch cache capacity must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Content address of a cached prefix: the full trial identity
/// (`trial_identity` over the hyperparameter-prefix [`fingerprint`])
/// plus the epoch depth the prefix was trained to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct CacheKey {
    /// Output of `trial_identity`: the [`fingerprint`] of dataset +
    /// model configuration + hyperparameter prefix (everything but the
    /// `epochs` budget), extended with the trial's instantiation seed,
    /// RNG seed, tuner policy and contention factor.
    pub(crate) fingerprint: u64,
    /// Epochs the cached prefix was trained for.
    pub(crate) epochs: u32,
}

/// FNV-1a 64-bit offset basis (stable across runs and platforms;
/// everything is hashed in little-endian bit patterns).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Hashes a trial's hyperparameter *prefix*: the dataset fingerprint
/// (workload name and scale — the dataset generator is a pure function of
/// those plus the instantiation seed), the model configuration (also
/// derived from the workload name and the hyperparameters) and every
/// tuned hyperparameter except `epochs`, which is the depth dimension the
/// cache indexes separately.
///
/// This is the *configuration* component of the cache address. The full
/// [`CacheKey::fingerprint`] additionally folds in the trial's identity
/// through `trial_identity`, so two trials share an address only when
/// they would compute bit-identical prefixes — same configuration *and*
/// same instantiation seed, RNG stream, tuner policy and contention.
/// Configuration-equal trials differing in how many epochs they are
/// budgeted ([`HyperParams::epochs`] and the scheduler rung) is the
/// redundancy the cache exploits.
pub(crate) fn fingerprint(spec: &WorkloadSpec, hp: &HyperParams) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    };
    eat(spec.name().as_bytes());
    eat(&spec.scale().to_bits().to_le_bytes());
    eat(&(hp.batch_size as u64).to_le_bytes());
    eat(&hp.dropout.to_bits().to_le_bytes());
    eat(&(hp.embedding_dim as u64).to_le_bytes());
    eat(&hp.learning_rate.to_bits().to_le_bytes());
    h
}

/// Extends the configuration [`fingerprint`] with everything *else* that
/// determines a trial's trained prefix bit for bit: the workload
/// instantiation seed (datasets and initial weights), the seed of the
/// trial's private RNG stream (profile noise, fault draws), the tuner
/// policy it starts from ([`tuner_policy`] — probe sweeps change system
/// configurations and therefore time/energy and tuner evolution) and the
/// contention factor (scales epoch durations, which probe costs — and
/// hence the tuner's argmin — depend on).
///
/// Restricting hits to identity-equal trials is what makes adoption
/// sound: without it, a trial could adopt a prefix trained under a
/// different seed or policy and its accuracy trajectory would diverge
/// from the cache-off run.
pub(crate) fn trial_identity(
    config: u64,
    instantiation_seed: u64,
    rng_seed: u64,
    tuner_policy: u64,
    contention: f64,
) -> u64 {
    let mut h = FNV_OFFSET;
    for word in [config, instantiation_seed, rng_seed, tuner_policy, contention.to_bits()] {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Stable discriminant of a [`SystemTuner`]'s *policy* — the variant and
/// its defining parameters, deliberately ignoring evolved probe state
/// (queues, measurements, the chosen config). The discriminant is
/// constant over a trial's lifetime: the cache key pins the policy a
/// prefix *started* from, and the identity components of
/// `trial_identity` guarantee its evolution from there is exactly what
/// the adopting trial would have computed.
pub(crate) fn tuner_policy(tuner: &SystemTuner) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    };
    match tuner {
        SystemTuner::Fixed(c) => {
            eat(1);
            eat(u64::from(c.cores));
            eat(u64::from(c.memory_gb));
            eat(u64::from(c.freq_mhz));
        }
        SystemTuner::Pipelined { goal, .. } => {
            eat(2);
            eat(match goal {
                crate::ProbeGoal::Runtime => 0,
                crate::ProbeGoal::Energy => 1,
                crate::ProbeGoal::EnergyDelay => 2,
            });
        }
    }
    h
}

/// Behaviour counters of an epoch-reuse cache ([`EpochCacheHandle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups that adopted a cached prefix.
    pub hits: u64,
    /// Lookups that fell through to a cold start.
    pub misses: u64,
    /// Prefixes inserted (or refreshed in place).
    pub inserts: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Simulated epoch-seconds adopting cached prefixes avoided (trained
    /// cost of the adopted epochs minus the charged reload cost).
    pub saved_secs: f64,
}

impl CacheStats {
    /// Activity since an earlier snapshot (counters and savings are
    /// cumulative over a shared cache's lifetime; a run reports the
    /// difference).
    #[must_use]
    pub(crate) fn delta_since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            inserts: self.inserts - before.inserts,
            evictions: self.evictions - before.evictions,
            saved_secs: self.saved_secs - before.saved_secs,
        }
    }
}

/// One cached trial prefix: the donor's [`TrialSnapshot`] — everything a
/// fresh trial needs to resume as if it had trained the prefix itself,
/// with *trained-equivalent* totals (what its epochs cost, or would have
/// cost, to really train: see `TrialExecution::donor_snapshot`) — plus the
/// cache's LRU stamp.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) snapshot: TrialSnapshot,
    /// LRU timestamp: monotone simulated commit time of last touch.
    last_access: f64,
    /// Insertion sequence number (LRU tie-break).
    seq: u64,
}

/// A journalled cache mutation, applied by the coordinator in scheduler
/// request order ([`EpochCacheHandle::commit`]).
#[derive(Debug)]
pub(crate) enum CacheEvent {
    /// A fresh trial adopted the prefix under `key`.
    Hit { key: CacheKey, saved_secs: f64 },
    /// A fresh trial found no usable prefix.
    Miss,
    /// A trial finished a rung at `key.epochs` depth; remember its state.
    Insert { key: CacheKey, snapshot: Box<TrialSnapshot> },
}

/// The content-addressed epoch-reuse store behind an
/// [`EpochCacheHandle`], which is the only way to it from outside the
/// crate.
#[derive(Debug)]
pub(crate) struct EpochCache {
    config: EpochCacheConfig,
    /// `BTreeMap` so iteration (eviction scans, persistence) is ordered
    /// by key, never by insertion hash — a determinism requirement.
    entries: BTreeMap<CacheKey, CacheEntry>,
    stats: CacheStats,
    next_seq: u64,
    /// Monotone-clock bookkeeping: offset accumulated across runs plus
    /// the last raw commit clock seen.
    lru_offset: f64,
    last_clock: f64,
}

impl EpochCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`EpochCacheConfig::validate`] (see
    /// [`EpochCacheHandle::with_config`]).
    pub(crate) fn new(config: EpochCacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid EpochCacheConfig: {e}");
        }
        EpochCache {
            config,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
            next_seq: 0,
            lru_offset: 0.0,
            last_clock: 0.0,
        }
    }

    /// Number of cached prefixes.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Behaviour counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The deepest cached prefix for `fingerprint` not exceeding
    /// `max_epochs`: its key, its snapshot with the epochs re-labelled
    /// [`EpochPhase::Cached`] and reload costs charged in place of training
    /// costs, and the `(seconds, joules)` adoption saves (trained-equivalent
    /// minus charged).
    pub(crate) fn peek(
        &self,
        fingerprint: u64,
        max_epochs: u32,
    ) -> Option<(CacheKey, TrialSnapshot, (f64, f64))> {
        let lo = CacheKey { fingerprint, epochs: 0 };
        let hi = CacheKey { fingerprint, epochs: max_epochs };
        let (key, entry) = self.entries.range(lo..=hi).next_back()?;
        let mut charged = TrialSnapshot { secs: 0.0, energy_j: 0.0, ..entry.snapshot.clone() };
        for r in &mut charged.records {
            // A record that was itself adopted from the cache already
            // carries a reload cost; charge it verbatim rather than
            // discounting twice.
            if r.phase != EpochPhase::Cached {
                r.duration_secs *= RELOAD_COST_FACTOR;
                r.energy_j *= RELOAD_COST_FACTOR;
                r.phase = EpochPhase::Cached;
            }
            charged.secs += r.duration_secs;
            charged.energy_j += r.energy_j;
        }
        let saved =
            (entry.snapshot.secs - charged.secs, entry.snapshot.energy_j - charged.energy_j);
        Some((*key, charged, saved))
    }

    /// Maps a raw per-run commit clock onto the cache's monotone LRU clock
    /// (runs sharing one handle each restart their wall clock at zero).
    fn monotone_now(&mut self, clock: f64) -> f64 {
        if clock < self.last_clock {
            self.lru_offset += self.last_clock;
        }
        self.last_clock = clock;
        self.lru_offset + clock
    }

    /// Applies a batch's journalled events in the order given (callers
    /// pass scheduler request order) at simulated time `clock`, then
    /// enforces the capacity bound once.
    pub(crate) fn commit(&mut self, events: impl IntoIterator<Item = CacheEvent>, clock: f64) {
        let now = self.monotone_now(clock);
        for event in events {
            match event {
                CacheEvent::Hit { key, saved_secs } => {
                    self.stats.hits += 1;
                    self.stats.saved_secs += saved_secs;
                    if let Some(entry) = self.entries.get_mut(&key) {
                        entry.last_access = now;
                    }
                }
                CacheEvent::Miss => self.stats.misses += 1,
                CacheEvent::Insert { key, snapshot } => {
                    self.stats.inserts += 1;
                    let entry =
                        CacheEntry { snapshot: *snapshot, last_access: now, seq: self.next_seq };
                    self.next_seq += 1;
                    self.entries.insert(key, entry);
                }
            }
        }
        // Construction validates `capacity >= 1`, so the loop always
        // terminates with at least one entry retained.
        while self.entries.len() > self.config.capacity {
            let victim = self
                .entries
                .iter()
                .min_by(|a, b| {
                    (a.1.last_access, a.1.seq)
                        .partial_cmp(&(b.1.last_access, b.1.seq))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(k, _)| *k)
                .expect("non-empty over-capacity cache");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Writes the file [`EpochCacheHandle::save`] describes.
    pub(crate) fn save(&self, path: &Path) -> Result<(), PipeTuneError> {
        let entries: Vec<SavedEntry> = self
            .entries
            .iter()
            .filter_map(|(key, entry)| {
                let snap = &entry.snapshot;
                let params = snap.workload.export_params()?;
                Some(SavedEntry {
                    key: *key,
                    spec: *snap.workload.spec(),
                    hp: *snap.workload.hyperparams(),
                    seed: snap.workload.instantiation_seed(),
                    workload_rng: snap.workload.rng_state(),
                    trial_rng: snap.rng.state(),
                    params,
                    tuner: snap.tuner.clone(),
                    records: snap.records.clone(),
                    trained_secs: snap.secs,
                    trained_energy_j: snap.energy_j,
                    last_access: entry.last_access,
                    seq: entry.seq,
                })
            })
            .collect();
        let saved = SavedCache {
            format: FORMAT,
            config: self.config,
            entries,
            next_seq: self.next_seq,
            lru_offset: self.lru_offset,
            last_clock: self.last_clock,
        };
        let json = serde_json::to_string(&saved).map_err(corrupt)?;
        Ok(pipetune_tsdb::write_atomic(path, &json)?)
    }

    /// Reads and checks a file as [`EpochCacheHandle::load`] describes.
    pub(crate) fn load(path: &Path) -> Result<Self, PipeTuneError> {
        let CurrentFormat(saved) = {
            let text =
                std::fs::read_to_string(path).map_err(|e| PipeTuneError::Tsdb(TsdbError::Io(e)))?;
            serde_json::from_str(&text).map_err(corrupt)?
        };
        saved
            .config
            .validate()
            .map_err(|e| corrupt(format!("persisted epoch cache config is degenerate: {e}")))?;
        let mut cache = EpochCache::new(saved.config);
        cache.next_seq = saved.next_seq;
        cache.lru_offset = saved.lru_offset;
        cache.last_clock = saved.last_clock;
        for e in saved.entries {
            check_recipe(&e).map_err(|reason| {
                corrupt(format!("persisted epoch cache entry {:?}: {reason}", e.key))
            })?;
            let mut workload = e.spec.instantiate(&e.hp, e.seed)?;
            workload.import_params(&e.params)?;
            workload.restore_training_state(e.workload_rng, e.key.epochs);
            cache.entries.insert(
                e.key,
                CacheEntry {
                    snapshot: TrialSnapshot {
                        workload,
                        tuner: e.tuner,
                        rng: StdRng::from_state(e.trial_rng),
                        records: e.records,
                        secs: e.trained_secs,
                        energy_j: e.trained_energy_j,
                    },
                    last_access: e.last_access,
                    seq: e.seq,
                },
            );
        }
        Ok(cache)
    }
}

fn corrupt(reason: impl ToString) -> PipeTuneError {
    PipeTuneError::Tsdb(TsdbError::Corrupt { reason: reason.to_string() })
}

/// Layout of the cache file this build writes and the only one it reads:
/// tensor payloads as `f32` bit patterns (`docs/reuse.md`). Files written
/// before the `format` member existed hold decimal payloads, which turn ±∞
/// into NaN; there is deliberately no reader for them.
const FORMAT: u32 = 2;

/// Ceilings on the two sizes a persisted recipe allocates by: far above
/// anything [`crate::HyperSpace::paper`] or the tests draw (1024 and 300),
/// far below a request the allocator would abort on.
const MAX_BATCH_SIZE: usize = 1 << 16;
const MAX_EMBEDDING_DIM: usize = 1 << 12;

/// Refuses a persisted recipe [`WorkloadSpec::instantiate`] must not be
/// handed. A deserialised spec bypasses [`WorkloadSpec::with_scale`]'s
/// clamp and deserialised hyperparameters those of
/// [`HyperParams::from_config`], and datasets, embeddings and batches are
/// sized from them as read.
fn check_recipe(e: &SavedEntry) -> Result<(), String> {
    let (scale, hp) = (e.spec.scale(), &e.hp);
    if !SCALE_RANGE.contains(&scale) {
        return Err(format!("`scale` {scale} is outside {SCALE_RANGE:?}"));
    }
    for (name, size, max) in [
        ("batch_size", hp.batch_size, MAX_BATCH_SIZE),
        ("embedding_dim", hp.embedding_dim, MAX_EMBEDDING_DIM),
    ] {
        if !(1..=max).contains(&size) {
            return Err(format!("`{name}` {size} is outside 1..={max}"));
        }
    }
    if !(0.0..=0.95).contains(&hp.dropout) {
        return Err(format!("`dropout` {} is outside 0.0..=0.95", hp.dropout));
    }
    if !(hp.learning_rate.is_finite() && hp.learning_rate > 0.0) {
        return Err(format!("`learning_rate` {} is not a positive number", hp.learning_rate));
    }
    // One record per committed epoch is all a trial ever holds.
    if e.records.len() > e.key.epochs as usize {
        return Err(format!("{} `records` exceed the `epochs` depth", e.records.len()));
    }
    Ok(())
}

/// On-disk form of one cached prefix: a deterministic reconstruction
/// recipe rather than a deep model dump.
#[derive(Debug, Serialize, Deserialize)]
struct SavedEntry {
    key: CacheKey,
    spec: WorkloadSpec,
    hp: HyperParams,
    /// Workload instantiation seed (rebuilds datasets and model shape).
    seed: u64,
    /// The workload's internal training-RNG state after the prefix.
    workload_rng: [u64; 4],
    /// The trial's private RNG stream after the prefix.
    trial_rng: [u64; 4],
    /// Full trained parameter state: weights plus the optimizer's
    /// gradient/momentum buffers, so resumed training is bit-identical.
    params: Vec<pipetune_dnn::Param>,
    tuner: SystemTuner,
    records: Vec<EpochRecord>,
    trained_secs: f64,
    trained_energy_j: f64,
    last_access: f64,
    seq: u64,
}

/// On-disk form of a whole [`EpochCache`].
#[derive(Debug, Serialize, Deserialize)]
struct SavedCache {
    /// Always [`FORMAT`]; leads the document.
    format: u32,
    config: EpochCacheConfig,
    entries: Vec<SavedEntry>,
    next_seq: u64,
    lru_offset: f64,
    last_clock: f64,
}

/// What [`EpochCache::load`] parses: the `format` member is judged before
/// any entry is decoded, so a file of another layout is refused as that —
/// not as whichever tensor member happens to differ first.
struct CurrentFormat(SavedCache);

impl Deserialize for CurrentFormat {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let found = match content.as_map_slice().and_then(|m| content_get(m, "format")) {
            Some(Content::I64(v)) if *v == i64::from(FORMAT) => {
                return SavedCache::from_content(content).map(CurrentFormat);
            }
            Some(other) => format!("`format` {}", serde_json::to_string(other).unwrap_or_default()),
            None => "no `format` member (the decimal layout of earlier builds)".to_string(),
        };
        Err(DeError::custom(format!(
            "epoch cache file has {found}; this build reads only `format` {FORMAT}"
        )))
    }
}

/// Cheap, cloneable entry point to a shared epoch-reuse store, threaded
/// through [`crate::ExperimentEnvBuilder::epoch_cache`].
///
/// Disabled (the default) it is a `None`: every call is a branch and a
/// return, so instrumented code paths are bypassed entirely and results
/// stay bit-identical to builds without the cache. Enabled, all clones
/// share one `RwLock`-guarded store; workers only ever take the read
/// lock, and the executor's coordinator is the only writer (committing
/// each batch's journals in request order).
///
/// ```
/// use pipetune::{EpochCacheConfig, EpochCacheHandle};
///
/// let off = EpochCacheHandle::disabled();
/// assert!(!off.is_enabled());
/// let cache = EpochCacheHandle::with_config(EpochCacheConfig::default());
/// assert!(cache.is_enabled());
/// assert_eq!(cache.stats().unwrap().hits, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpochCacheHandle {
    inner: Option<Arc<RwLock<EpochCache>>>,
}

/// The read lock on a shared store; a panicked holder leaves it readable.
fn read(cache: &RwLock<EpochCache>) -> RwLockReadGuard<'_, EpochCache> {
    cache.read().unwrap_or_else(PoisonError::into_inner)
}

impl EpochCacheHandle {
    /// A disabled handle: every operation is a no-op (the default).
    pub fn disabled() -> Self {
        EpochCacheHandle { inner: None }
    }

    /// A live handle over a fresh, empty cache with the default
    /// configuration.
    pub fn enabled() -> Self {
        EpochCacheHandle::with_config(EpochCacheConfig::default())
    }

    /// A live handle over a fresh, empty cache.
    ///
    /// # Panics
    ///
    /// Panics on a zero `capacity`: it would evict every insert at once, so
    /// the check is enforced at every construction site.
    pub fn with_config(config: EpochCacheConfig) -> Self {
        EpochCacheHandle { inner: Some(Arc::new(RwLock::new(EpochCache::new(config)))) }
    }

    /// Wraps an existing store (e.g. one rebuilt by [`EpochCache::load`]).
    fn from_cache(cache: EpochCache) -> Self {
        EpochCacheHandle { inner: Some(Arc::new(RwLock::new(cache))) }
    }

    /// Whether lookups and inserts do anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Behaviour counters; `None` when disabled.
    pub fn stats(&self) -> Option<CacheStats> {
        self.inner.as_ref().map(|c| read(c).stats())
    }

    /// Number of cached prefixes; `None` when disabled.
    pub fn len(&self) -> Option<usize> {
        self.inner.as_ref().map(|c| read(c).len())
    }

    /// Returns `true` when disabled or empty.
    pub fn is_empty(&self) -> bool {
        self.len().is_none_or(|n| n == 0)
    }

    /// Read-only lookup safe to call concurrently from worker threads
    /// ([`EpochCache::peek`]); hit/miss accounting is the caller's to
    /// journal.
    pub(crate) fn peek(
        &self,
        fingerprint: u64,
        max_epochs: u32,
    ) -> Option<(CacheKey, TrialSnapshot, (f64, f64))> {
        read(self.inner.as_ref()?).peek(fingerprint, max_epochs)
    }

    /// Applies a batch's journalled events in the order given at simulated
    /// time `clock` ([`EpochCache::commit`]; coordinator only; no-op when
    /// disabled).
    pub(crate) fn commit(&self, events: impl IntoIterator<Item = CacheEvent>, clock: f64) {
        if let Some(cache) = self.inner.as_ref() {
            cache.write().unwrap_or_else(PoisonError::into_inner).commit(events, clock);
        }
    }

    /// Serialises every persistable prefix to one JSON document (layout
    /// in `docs/reuse.md`), crash-safely ([`pipetune_tsdb::write_atomic`]):
    /// a crash mid-save leaves either the previous file or the new one,
    /// never a truncated mix.
    ///
    /// Kernel (Type-III) prefixes carry internal solver state that cannot
    /// be exported as parameters; they are skipped with no error. DNN
    /// prefixes are stored as a reconstruction recipe — spec,
    /// hyperparameters, instantiation seed, the full trained parameter
    /// state (weights plus optimizer gradient/momentum buffers) and both
    /// RNG streams — and resume bit for bit: every tensor is written as
    /// its elements' `f32` bit patterns (eight hex digits each, 8 bytes of
    /// file per persisted element), so non-finite weights of a diverged
    /// trial survive too. Saving the same store twice, or a loaded store
    /// again, writes the same bytes. A disabled handle writes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError::Tsdb`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), PipeTuneError> {
        match self.inner.as_ref() {
            Some(cache) => read(cache).save(path),
            None => Ok(()),
        }
    }

    /// Loads a file written by [`EpochCacheHandle::save`] into a live
    /// handle: each entry's workload is re-instantiated from its spec,
    /// hyperparameters and seed (deterministic), its trained parameter
    /// state imported and both RNG streams restored.
    ///
    /// The file is outside input and is checked as such before anything is
    /// built from it: the `format` member must name the layout this build
    /// writes (a file of an earlier build is refused, not migrated — it
    /// costs one cold run), every tensor's payload must agree with its
    /// shape, and every recipe must sit in the ranges the program itself
    /// produces (`check_recipe`). More entries than `capacity` load as they
    /// are and are evicted by the next commit.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError::Tsdb`] on I/O failures and, as
    /// [`TsdbError::Corrupt`] with a reason naming the member, on anything
    /// the checks above refuse — a persisted zero `capacity` included —
    /// and propagates workload reconstruction failures.
    pub fn load(path: &Path) -> Result<Self, PipeTuneError> {
        Ok(Self::from_cache(EpochCache::load(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{EpochPhase, SystemTuner, TrialExecution};
    use crate::{ExperimentEnv, ProbeGoal};
    use pipetune_cluster::SystemConfig;
    use rand::SeedableRng;

    fn hp(batch: usize, epochs: u32) -> HyperParams {
        HyperParams { batch_size: batch, epochs, ..HyperParams::default() }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec::lenet_mnist().with_scale(0.2)
    }

    /// Trains a real prefix to `depth` epochs; returns its insert event.
    fn trained_prefix(batch: usize, depth: u32, seed: u64) -> (CacheKey, CacheEvent) {
        let env = ExperimentEnv::distributed(3);
        let hp = hp(batch, 9);
        let workload = spec().instantiate(&hp, seed).unwrap();
        let mut exec = TrialExecution::new(workload, SystemTuner::Fixed(env.default_system));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
        exec.run_epochs(&env, depth, None, 1.0, &mut rng).unwrap();
        let key = CacheKey { fingerprint: fingerprint(&spec(), &hp), epochs: depth };
        (key, CacheEvent::Insert { key, snapshot: Box::new(exec.donor_snapshot(&rng)) })
    }

    #[test]
    fn fingerprint_ignores_epochs_but_separates_prefixes() {
        let s = spec();
        let a = fingerprint(&s, &hp(256, 3));
        assert_eq!(a, fingerprint(&s, &hp(256, 27)));
        assert_ne!(a, fingerprint(&s, &hp(512, 3)));
        assert_ne!(a, fingerprint(&s, &HyperParams { dropout: 0.11, ..hp(256, 3) }),);
        assert_ne!(a, fingerprint(&s, &HyperParams { learning_rate: 0.011, ..hp(256, 3) }),);
        assert_ne!(a, fingerprint(&s, &HyperParams { embedding_dim: 48, ..hp(256, 3) }),);
        // Different workload / different scale → different dataset.
        assert_ne!(a, fingerprint(&WorkloadSpec::lenet_fashion().with_scale(0.2), &hp(256, 3)));
        assert_ne!(a, fingerprint(&WorkloadSpec::lenet_mnist(), &hp(256, 3)));
    }

    #[test]
    fn peek_returns_deepest_prefix_within_budget() {
        let mut cache = EpochCache::new(EpochCacheConfig::default());
        let (k2, e2) = trained_prefix(256, 2, 7);
        let (_, e4) = trained_prefix(256, 4, 7);
        cache.commit([e2, e4], 10.0);
        assert_eq!(cache.peek(k2.fingerprint, 9).unwrap().0.epochs, 4);
        assert_eq!(cache.peek(k2.fingerprint, 3).unwrap().0.epochs, 2);
        assert!(cache.peek(k2.fingerprint, 1).is_none());
        assert!(cache.peek(k2.fingerprint ^ 1, 9).is_none());
    }

    #[test]
    fn charged_records_cost_a_reload_fraction_and_track_savings() {
        let config = EpochCacheConfig::default();
        let mut cache = EpochCache::new(config);
        let (k, e) = trained_prefix(256, 3, 7);
        cache.commit([e], 1.0);
        let trained = cache.entries[&k].snapshot.secs;
        let (_, prefix, (saved_secs, _)) = cache.peek(k.fingerprint, 9).unwrap();
        let charged: f64 = prefix.records.iter().map(|r| r.duration_secs).sum();
        assert!(prefix.records.iter().all(|r| r.phase == EpochPhase::Cached));
        assert_eq!(prefix.secs.to_bits(), charged.to_bits(), "snapshot carries the reload cost");
        assert!((charged - trained * RELOAD_COST_FACTOR).abs() < 1e-9);
        assert!((saved_secs - (trained - charged)).abs() < 1e-9);
        assert!(saved_secs > 0.0);
    }

    #[test]
    fn adopting_an_adopted_prefix_never_discounts_twice() {
        let config = EpochCacheConfig::default();
        let mut cache = EpochCache::new(config);
        let (k, e) = trained_prefix(256, 2, 7);
        cache.commit([e], 1.0);
        let (_, first, first_saved) = cache.peek(k.fingerprint, 9).unwrap();
        // Re-insert the adopted (already charged) prefix as a new donor,
        // with trained-equivalent totals as `donor_snapshot` computes them.
        let donor = TrialSnapshot { secs: first.secs + first_saved.0, ..first.clone() };
        cache.commit([CacheEvent::Insert { key: k, snapshot: Box::new(donor) }], 2.0);
        let (_, second, second_saved) = cache.peek(k.fingerprint, 9).unwrap();
        // Cached-phase records are charged verbatim, not re-discounted.
        for (a, b) in first.records.iter().zip(&second.records) {
            assert_eq!(a.duration_secs.to_bits(), b.duration_secs.to_bits());
        }
        assert!((second_saved.0 - first_saved.0).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries_with_seq_tiebreak() {
        let mut cache = EpochCache::new(EpochCacheConfig { capacity: 2 });
        let (k1, e1) = trained_prefix(128, 1, 1);
        let (k2, e2) = trained_prefix(256, 1, 2);
        cache.commit([e1], 1.0);
        cache.commit([e2], 2.0);
        // Touch k1 at t=3 so k2 becomes the LRU entry.
        cache.commit([CacheEvent::Hit { key: k1, saved_secs: 0.0 }], 3.0);
        let (k3, e3) = trained_prefix(512, 1, 3);
        cache.commit([e3], 4.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let keys = &cache.entries;
        assert!(keys.contains_key(&k1), "recently hit entry survives");
        assert!(keys.contains_key(&k3), "new entry survives");
        assert!(!keys.contains_key(&k2), "stale entry evicted");

        // Same-timestamp tie: the earlier seq goes first.
        let mut cache = EpochCache::new(EpochCacheConfig { capacity: 2 });
        let (k1, e1) = trained_prefix(128, 1, 1);
        let (_, e2) = trained_prefix(256, 1, 2);
        let (_, e3) = trained_prefix(512, 1, 3);
        cache.commit([e1, e2], 1.0);
        cache.commit([e3], 2.0);
        assert!(!cache.entries.contains_key(&k1), "first-inserted entry evicted on tie");
    }

    #[test]
    fn lru_clock_stays_monotone_across_runs() {
        let mut cache = EpochCache::new(EpochCacheConfig { capacity: 2 });
        let (k1, e1) = trained_prefix(128, 1, 1);
        cache.commit([e1], 100.0);
        // A new run restarts its wall clock near zero; without the offset
        // its entries would look *older* than the previous run's.
        let (k2, e2) = trained_prefix(256, 1, 2);
        cache.commit([e2], 5.0);
        let (k3, e3) = trained_prefix(512, 1, 3);
        cache.commit([e3], 6.0);
        // k1 (monotone time 100) is LRU vs k2 (105) and k3 (106).
        assert!(!cache.entries.contains_key(&k1));
        assert!(cache.entries.contains_key(&k2) && cache.entries.contains_key(&k3));
    }

    #[test]
    fn stats_account_hits_misses_inserts_and_savings() {
        let mut cache = EpochCache::new(EpochCacheConfig::default());
        let (k, e) = trained_prefix(256, 2, 7);
        cache.commit([CacheEvent::Miss, e, CacheEvent::Hit { key: k, saved_secs: 12.5 }], 1.0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts, stats.evictions), (1, 1, 1, 0));
        assert!((stats.saved_secs - 12.5).abs() < 1e-12);
    }

    #[test]
    fn save_load_round_trip_resumes_deterministically() {
        let mut cache = EpochCache::new(EpochCacheConfig::default());
        let (k, e) = trained_prefix(256, 3, 11);
        cache.commit([e], 1.0);
        let dir = std::env::temp_dir().join("pipetune_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let loaded = EpochCache::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 1);
        let (key_a, a, _) = cache.peek(k.fingerprint, 9).unwrap();
        let (key_b, b, _) = loaded.peek(k.fingerprint, 9).unwrap();
        assert_eq!(key_a, key_b);
        assert_eq!(a.rng, b.rng, "trial RNG stream restored exactly");
        assert_eq!(a.records.len(), b.records.len());
        // The reconstructed workload continues identically to the live one:
        // same held-out accuracy now and after one more epoch.
        let mut wa = a.workload;
        let mut wb = b.workload;
        use crate::workload::EpochWorkload;
        assert_eq!(wa.epochs_run(), wb.epochs_run());
        assert_eq!(wa.accuracy().unwrap().to_bits(), wb.accuracy().unwrap().to_bits());
        wa.run_epoch().unwrap();
        wb.run_epoch().unwrap();
        assert_eq!(wa.accuracy().unwrap().to_bits(), wb.accuracy().unwrap().to_bits());
    }

    /// A scratch path no other test of this process uses.
    fn scratch_file(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("pipetune-cache-{tag}-{}-{n}.json", std::process::id()))
    }

    fn saved_text(cache: &EpochCache) -> String {
        let path = scratch_file("text");
        cache.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    }

    fn load_text(text: &str) -> Result<EpochCache, PipeTuneError> {
        let path = scratch_file("edit");
        std::fs::write(&path, text).unwrap();
        let loaded = EpochCache::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    /// The file of a one-entry cache (one training run for all the tests
    /// that edit it).
    fn stock_file() -> &'static str {
        static STOCK: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        STOCK.get_or_init(|| {
            let mut cache = EpochCache::new(EpochCacheConfig::default());
            cache.commit([trained_prefix(256, 3, 11).1], 1.0);
            saved_text(&cache)
        })
    }

    /// `text` with what stands between the first `after` and the next
    /// `until` rewritten by `edit`.
    fn splice(
        text: &str,
        after: &str,
        until: &[char],
        edit: impl FnOnce(&str) -> String,
    ) -> String {
        let start =
            text.find(after).unwrap_or_else(|| panic!("no {after} in the file")) + after.len();
        let end = start + text[start..].find(until).unwrap();
        format!("{}{}{}", &text[..start], edit(&text[start..end]), &text[end..])
    }

    /// `text` with the first `"member":` given the scalar `value`.
    fn set_member(text: &str, member: &str, value: &str) -> String {
        splice(text, &format!("\"{member}\":"), &[',', '}'], |_| value.to_string())
    }

    /// Asserts `text` is refused as corrupt with a reason containing
    /// `names` — before anything could be peeked or trained from it.
    fn assert_corrupt(text: &str, names: &str, what: &str) {
        match load_text(text) {
            Err(PipeTuneError::Tsdb(TsdbError::Corrupt { reason })) => {
                assert!(reason.contains(names), "{what}: reason should name {names}: {reason}");
            }
            other => panic!("{what}: expected a corrupt-file error, got {other:?}"),
        }
    }

    /// The stock file as the build before `format` wrote it: no `format`
    /// member, every tensor a `data` array of shortest round-trip decimals.
    fn decimal_layout(text: &str) -> String {
        let mut out = String::new();
        let mut rest = text;
        while let Some(at) = rest.find("\"bits\":\"") {
            let digits = &rest[at + 8..];
            let digits = &digits[..digits.find('"').unwrap()];
            let decimals: Vec<String> = digits
                .as_bytes()
                .chunks(8)
                .map(|w| u32::from_str_radix(std::str::from_utf8(w).unwrap(), 16).unwrap())
                .map(|bits| format!("{:?}", f64::from(f32::from_bits(bits))))
                .collect();
            out.push_str(&rest[..at]);
            out.push_str(&format!("\"data\":[{}]", decimals.join(",")));
            rest = &rest[at + 8 + digits.len() + 1..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn a_tensor_that_disagrees_with_itself_never_leaves_the_loader() {
        let stock = stock_file();
        assert_eq!(load_text(stock).unwrap().len(), 1, "the unedited file loads");
        assert!(stock.starts_with("{\"format\":2,"), "`format` leads the document");
        let bits = |edit: fn(&str) -> String| splice(stock, "\"bits\":\"", &['"'], edit);
        let reversed = |dims: &str| dims.split(',').rev().collect::<Vec<_>>().join(",");
        for (what, text, names) in [
            ("payload cut short", bits(|b| b[..b.len() - 8].to_string()), "`bits`"),
            ("a digit that is not hex", bits(|b| format!("g{}", &b[1..])), "`bits`"),
            ("odd digit count", bits(|b| b[1..].to_string()), "`bits`"),
            (
                "dims that overflow",
                splice(stock, "\"shape\":[", &[']'], |_| "18446744073709551615,2".into()),
                "`shape`",
            ),
            ("grad reshaped", splice(stock, "\"grad\":{\"shape\":[", &[']'], reversed), "`grad`"),
            ("decimal payloads under format 2", decimal_layout(stock), "`bits`"),
        ] {
            assert_ne!(text, stock, "{what}: the edit must change the file");
            assert_corrupt(&text, names, what);
        }
        // Another layout is refused as that, naming what was found and
        // what this build reads.
        let no_format = stock.replacen("\"format\":2,", "", 1);
        for (what, text, found) in [
            ("format 1", set_member(stock, "format", "1"), "has `format` 1;"),
            ("format as text", set_member(stock, "format", "\"2\""), "has `format` \"2\";"),
            ("format removed", no_format.clone(), "has no `format` member"),
            ("the decimal layout", decimal_layout(&no_format), "has no `format` member"),
        ] {
            assert_ne!(text, stock, "{what}: the edit must change the file");
            assert_corrupt(&text, found, what);
            assert_corrupt(&text, "this build reads only `format` 2", what);
        }
    }

    #[test]
    fn non_finite_weights_survive_a_save_bit_for_bit() {
        use pipetune_dnn::Param;
        use pipetune_tensor::Tensor;
        /// `p` with one of its three tensors replaced (the wire form is the
        /// one door into a `Param`'s optimizer buffers from outside its crate).
        fn with_tensor(p: &Param, member: &str, t: &Tensor) -> Param {
            let Content::Map(mut members) = p.to_content() else { panic!("a map") };
            members.iter_mut().find(|(k, _)| k == member).unwrap().1 = t.to_content();
            Param::from_content(&Content::Map(members)).unwrap()
        }
        let (key, event) = trained_prefix(256, 2, 5);
        let CacheEvent::Insert { mut snapshot, .. } = event else { panic!("an insert") };
        // A diverged trial: the first weight at +∞, a NaN with a payload and
        // a negative zero in the momentum buffer.
        let mut params = snapshot.workload.export_params().unwrap();
        let mut value = params[0].value().clone();
        value.data_mut()[0] = f32::INFINITY;
        let mut velocity = Tensor::zeros(value.shape().dims());
        velocity.data_mut()[..2].copy_from_slice(&[f32::from_bits(0x7fc0_1234), -0.0]);
        params[0] = with_tensor(&with_tensor(&params[0], "value", &value), "velocity", &velocity);
        snapshot.workload.import_params(&params).unwrap();
        let mut live = EpochCache::new(EpochCacheConfig::default());
        live.commit([CacheEvent::Insert { key, snapshot }], 1.0);

        let reloaded = load_text(&saved_text(&live)).unwrap();
        // The wire form is the bit patterns, so equal text is equal bits.
        let wire_of = |cache: &EpochCache| {
            let (_, prefix, _) = cache.peek(key.fingerprint, 9).unwrap();
            serde_json::to_string(&prefix.workload.export_params().unwrap()).unwrap()
        };
        let (want, got) = (wire_of(&live), wire_of(&reloaded));
        assert!(want.contains("\"bits\":\"7f800000"), "the live prefix holds the +∞");
        assert!(want.contains("\"bits\":\"7fc0123480000000"), "and the NaN and the -0.0");
        assert!(got == want, "every tensor of the reloaded prefix, by bit pattern");
    }

    #[test]
    fn out_of_range_recipes_are_corrupt_before_anything_is_allocated() {
        let stock = stock_file();
        for (member, values) in [
            ("scale", &["1e9", "0.01", "4.5", "-1.0", "null", "1e999"][..]),
            ("batch_size", &["0", "65537", "18446744073709551615"]),
            ("embedding_dim", &["0", "4097", "1099511627776"]),
            ("dropout", &["-0.1", "0.96", "null"]),
            ("learning_rate", &["0.0", "-0.01", "null", "1e999"]),
        ] {
            for value in values {
                let what = format!("{member} = {value}");
                assert_corrupt(&set_member(stock, member, value), &format!("`{member}`"), &what);
            }
        }
        // `key` leads each entry: a depth below the three records it holds.
        assert_corrupt(&set_member(stock, "epochs", "2"), "`records`", "depth below the records");
        // The edges of every range load.
        for (member, values) in [
            ("scale", &["0.05", "4.0"][..]),
            ("batch_size", &["1", "65536"]),
            ("dropout", &["0.0", "0.95"]),
            ("learning_rate", &["1e-30"]),
            ("capacity", &["1", "18446744073709551615"]),
        ] {
            for value in values {
                let loaded = load_text(&set_member(stock, member, value));
                assert!(loaded.is_ok(), "{member} = {value}: {:?}", loaded.err());
            }
        }
    }

    #[test]
    fn a_file_over_its_capacity_loads_whole_and_is_trimmed_by_the_next_commit() {
        let mut cache = EpochCache::new(EpochCacheConfig::default());
        cache.commit([trained_prefix(128, 1, 1).1, trained_prefix(256, 1, 2).1], 1.0);
        let mut loaded = load_text(&set_member(&saved_text(&cache), "capacity", "1")).unwrap();
        assert_eq!((loaded.len(), loaded.config.capacity), (2, 1));
        loaded.commit([CacheEvent::Miss], 2.0);
        assert_eq!((loaded.len(), loaded.stats().evictions), (1, 1));
    }

    #[test]
    fn kernel_prefixes_are_skipped_on_save() {
        let env = ExperimentEnv::distributed(3);
        let hp = hp(256, 9);
        let kspec = WorkloadSpec::jacobi().with_scale(0.2);
        let workload = kspec.instantiate(&hp, 5).unwrap();
        let mut exec = TrialExecution::new(workload, SystemTuner::pipelined(ProbeGoal::Runtime));
        let mut rng = StdRng::seed_from_u64(5);
        exec.run_epochs(&env, 2, None, 1.0, &mut rng).unwrap();
        let key = CacheKey { fingerprint: fingerprint(&kspec, &hp), epochs: 2 };
        let snapshot = Box::new(exec.donor_snapshot(&rng));
        let mut cache = EpochCache::new(EpochCacheConfig::default());
        cache.commit([CacheEvent::Insert { key, snapshot }], 1.0);
        let dir = std::env::temp_dir().join("pipetune_cache_kernel_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let loaded = EpochCache::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 0, "kernel prefixes have no exportable weights");
    }

    #[test]
    fn failed_save_is_a_typed_io_error_and_leaves_no_temp_file() {
        let cache = EpochCache::new(EpochCacheConfig::default());
        let dir =
            std::env::temp_dir().join(format!("pipetune_cache_failed_save_{}", std::process::id()));
        // A non-empty directory in the destination's place: the temp file
        // is written, the rename fails.
        std::fs::create_dir_all(dir.join("occupied").join("child")).unwrap();
        for bad in [dir.join("no_such_dir").join("cache.json"), dir.join("occupied")] {
            let err = cache.save(&bad);
            assert!(matches!(err, Err(PipeTuneError::Tsdb(TsdbError::Io(_)))), "{err:?}");
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    }

    #[test]
    fn trial_identity_separates_every_component() {
        let base = trial_identity(1, 2, 3, 4, 1.0);
        assert_eq!(base, trial_identity(1, 2, 3, 4, 1.0), "pure function of its inputs");
        assert_ne!(base, trial_identity(9, 2, 3, 4, 1.0), "config fingerprint");
        assert_ne!(base, trial_identity(1, 9, 3, 4, 1.0), "instantiation seed");
        assert_ne!(base, trial_identity(1, 2, 9, 4, 1.0), "trial RNG seed");
        assert_ne!(base, trial_identity(1, 2, 3, 9, 1.0), "tuner policy");
        assert_ne!(base, trial_identity(1, 2, 3, 4, 2.0), "contention factor");
    }

    #[test]
    fn tuner_policy_discriminates_policies_not_progress() {
        let fixed_a = tuner_policy(&SystemTuner::Fixed(SystemConfig::new(4, 4)));
        let fixed_b = tuner_policy(&SystemTuner::Fixed(SystemConfig::new(8, 4)));
        let pipe_rt = tuner_policy(&SystemTuner::pipelined(ProbeGoal::Runtime));
        let pipe_en = tuner_policy(&SystemTuner::pipelined(ProbeGoal::Energy));
        assert_ne!(fixed_a, fixed_b, "fixed configs are distinct policies");
        assert_ne!(pipe_rt, pipe_en, "probe goals are distinct policies");
        assert_ne!(fixed_a, pipe_rt, "fixed vs pipelined never collide");
        // Evolved probe state must not change the discriminant: the key
        // pins the policy a prefix started from, not its progress.
        let mut evolved = SystemTuner::pipelined(ProbeGoal::Runtime);
        if let SystemTuner::Pipelined { probe_results, features, chosen, .. } = &mut evolved {
            probe_results.push((SystemConfig::new(4, 4), 1.0));
            *features = Some(vec![1.0, 2.0]);
            *chosen = Some(SystemConfig::new(16, 32));
        }
        assert_eq!(tuner_policy(&evolved), pipe_rt);
    }

    #[test]
    #[should_panic(expected = "invalid EpochCacheConfig")]
    fn zero_capacity_handle_panics_at_construction() {
        let _ = EpochCacheHandle::with_config(EpochCacheConfig { capacity: 0 });
    }

    #[test]
    fn load_rejects_persisted_degenerate_config() {
        let saved = SavedCache {
            format: FORMAT,
            config: EpochCacheConfig { capacity: 0 },
            entries: Vec::new(),
            next_seq: 0,
            lru_offset: 0.0,
            last_clock: 0.0,
        };
        let path = std::env::temp_dir()
            .join(format!("pipetune-degenerate-cache-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&saved).unwrap()).unwrap();
        let err = EpochCache::load(&path);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, Err(PipeTuneError::Tsdb(TsdbError::Corrupt { .. }))),
            "a degenerate persisted config must read as corrupt, got {err:?}"
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert!(EpochCacheConfig::default().validate().is_ok());
        assert!(EpochCacheConfig { capacity: 0 }.validate().is_err());
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = EpochCacheHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.stats().is_none());
        assert!(h.len().is_none());
        assert!(h.is_empty());
        assert!(h.peek(1, 9).is_none());
        h.commit([CacheEvent::Miss], 1.0);
        assert!(h.save(Path::new("/nonexistent/never-written.json")).is_ok());
    }

    #[test]
    fn handle_clones_share_one_store() {
        let h = EpochCacheHandle::with_config(EpochCacheConfig::default());
        let h2 = h.clone();
        let (k, e) = trained_prefix(256, 1, 3);
        h.commit([e], 1.0);
        assert_eq!(h2.len(), Some(1));
        assert!(h2.peek(k.fingerprint, 9).is_some());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn hp_strategy() -> impl Strategy<Value = HyperParams> {
            // Paper ranges, discretised enough that independently drawn
            // configs frequently share a prefix — the overlap the cache
            // exploits.
            (
                prop::sample::select(vec![32usize, 64, 128, 256, 512, 1024]),
                prop::sample::select(vec![0.0f32, 0.1, 0.25, 0.5]),
                prop::sample::select(vec![50usize, 100, 300]),
                prop::sample::select(vec![0.001f32, 0.01, 0.1]),
                1u32..=30,
            )
                .prop_map(
                    |(batch_size, dropout, embedding_dim, learning_rate, epochs)| HyperParams {
                        batch_size,
                        dropout,
                        embedding_dim,
                        learning_rate,
                        epochs,
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The fingerprint is exactly the hyperparameter prefix: blind
            /// to `epochs`, injective (modulo 64-bit collisions) in every
            /// other field over the paper's grid.
            #[test]
            fn fingerprint_equality_is_prefix_equality(a in hp_strategy(), b in hp_strategy()) {
                let spec = WorkloadSpec::lenet_mnist();
                let same_prefix = a.batch_size == b.batch_size
                    && a.dropout == b.dropout
                    && a.embedding_dim == b.embedding_dim
                    && a.learning_rate == b.learning_rate;
                prop_assert_eq!(
                    fingerprint(&spec, &a) == fingerprint(&spec, &b),
                    same_prefix,
                    "fingerprints must coincide exactly when the prefixes do: {:?} vs {:?}", a, b
                );
            }

            /// For any population of trained prefixes with overlapping
            /// hyperparameter prefixes, a lookup adopts the deepest cached
            /// depth not exceeding the budget — never a deeper one, never
            /// a shallower one when a deeper qualifying prefix exists.
            #[test]
            fn peek_always_adopts_the_deepest_affordable_prefix(
                depths in prop::collection::btree_set(1u32..=12, 1..6),
                others in prop::collection::vec((prop::sample::select(vec![64usize, 512]), 1u32..=12), 0..4),
                budget in 1u32..=14,
            ) {
                let mut cache = EpochCache::new(EpochCacheConfig::default());
                // One fingerprint with several depths, plus unrelated
                // prefixes that must never be adopted.
                let inserts = depths
                    .iter()
                    .map(|&d| (256, d))
                    .chain(others.iter().copied())
                    .map(|(batch, d)| trained_prefix(batch, d, 7).1);
                cache.commit(inserts, 1.0);
                let fp = fingerprint(&spec(), &hp(256, 1));
                let expect = depths.iter().copied().filter(|&d| d <= budget).max();
                match (cache.peek(fp, budget), expect) {
                    (Some((key, ..)), Some(d)) => {
                        prop_assert_eq!(key, CacheKey { fingerprint: fp, epochs: d });
                    }
                    (None, None) => {}
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "peek budget {budget} over {depths:?}: got {:?}, want depth {want:?}",
                            got.map(|p| p.0)
                        )));
                    }
                }
            }
        }
    }
}
