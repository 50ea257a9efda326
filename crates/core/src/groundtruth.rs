//! The ground-truth phase (§5.4–§5.6): historical profiles → known-best
//! system configurations.

use std::path::Path;

use pipetune_cluster::SystemConfig;
use pipetune_clustering::{
    Dbscan, DbscanSimilarity, KMeans, KMeansSimilarity, Similarity, SimilarityVerdict,
};
use pipetune_tsdb::{Database, Point, Query, TsdbError};

use crate::PipeTuneError;

/// Which similarity function the ground truth fits (§5.4: "our design
/// allows the similarity function to be pluggable").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimilarityKind {
    /// k-means with `k` clusters and a variance-based confidence threshold
    /// (the paper's default, k = 2).
    KMeans {
        /// Number of clusters.
        k: usize,
    },
    /// DBSCAN with a data-driven radius: `eps = eps_factor ×` the median
    /// nearest-neighbour distance of the history.
    Dbscan {
        /// Minimum neighbours for a core point.
        min_points: usize,
        /// Multiplier on the median nearest-neighbour distance.
        eps_factor: f64,
    },
}

impl Default for SimilarityKind {
    fn default() -> Self {
        SimilarityKind::KMeans { k: 2 }
    }
}

/// One probed profile and what probing found for it — the unit of the
/// history, of the journal ([`GtEvent::Record`]) and of the persisted file.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub(crate) workload: String,
    pub(crate) features: Vec<f64>,
    pub(crate) best: SystemConfig,
    pub(crate) cost: f64,
}

/// Counters describing ground-truth behaviour over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroundTruthStats {
    /// Profiles recorded (one per probed trial).
    pub recorded: usize,
    /// Lookups that reused a known configuration.
    pub hits: usize,
    /// Lookups that fell through to probing.
    pub misses: usize,
    /// Re-clustering passes performed.
    pub refits: usize,
}

impl GroundTruthStats {
    /// Activity since an earlier snapshot of the same ground truth.
    pub(crate) fn delta_since(&self, before: &GroundTruthStats) -> GroundTruthStats {
        GroundTruthStats {
            recorded: self.recorded - before.recorded,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            refits: self.refits - before.refits,
        }
    }
}

/// Historical profile store + similarity function + per-cluster best configs.
///
/// New HPT jobs ask [`GroundTruth::lookup`] with their first-epoch profile
/// features; a confident match returns the cluster's best known
/// [`SystemConfig`] immediately (Algorithm 1 lines 8–10). Probing outcomes
/// are fed back via [`GroundTruth::record`], and the k-means model is
/// re-fitted as history grows (§5.6's re-clustering).
#[derive(Debug)]
pub struct GroundTruth {
    history: Vec<Record>,
    kind: SimilarityKind,
    similarity: Option<Box<dyn Similarity + Send + Sync>>,
    labels: Vec<usize>,
    threshold_factor: f64,
    k: usize,
    min_history: usize,
    records_since_fit: usize,
    refit_every: usize,
    seed: u64,
    stats: GroundTruthStats,
}

impl GroundTruth {
    /// Creates an empty ground truth with the paper's `k = 2` and a given
    /// similarity threshold factor.
    pub fn new(k: usize, threshold_factor: f64, seed: u64) -> Self {
        Self::with_similarity(SimilarityKind::KMeans { k }, threshold_factor, seed)
    }

    /// Creates a ground truth with an arbitrary similarity function.
    pub(crate) fn with_similarity(kind: SimilarityKind, threshold_factor: f64, seed: u64) -> Self {
        let k = match kind {
            SimilarityKind::KMeans { k } => k.max(1),
            SimilarityKind::Dbscan { min_points, .. } => min_points.max(1),
        };
        GroundTruth {
            history: Vec::new(),
            kind,
            similarity: None,
            labels: Vec::new(),
            threshold_factor,
            k,
            min_history: k * 2,
            records_since_fit: 0,
            refit_every: 4,
            seed,
            stats: GroundTruthStats::default(),
        }
    }

    /// The paper's configuration: k-means with k = 2. The paper does not
    /// publish its confidence threshold; 3× the unbiased within-cluster
    /// variance accepts typical members even when clusters are small (see
    /// the threshold-sensitivity ablation).
    pub fn paper_default(seed: u64) -> Self {
        Self::new(2, 3.0, seed)
    }

    /// Records a probed profile and its discovered best configuration (with
    /// the probe cost achieved), re-clustering periodically.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError`] when re-clustering fails.
    pub fn record(
        &mut self,
        workload: &str,
        features: &[f64],
        best: SystemConfig,
        cost: f64,
    ) -> Result<(), PipeTuneError> {
        self.push(Record {
            workload: workload.to_string(),
            features: features.to_vec(),
            best,
            cost,
        })
    }

    fn push(&mut self, record: Record) -> Result<(), PipeTuneError> {
        self.history.push(record);
        self.stats.recorded += 1;
        self.records_since_fit += 1;
        if self.history.len() >= self.min_history
            && (self.similarity.is_none() || self.records_since_fit >= self.refit_every)
        {
            self.refit()?;
        }
        Ok(())
    }

    /// Re-fits the similarity model over the whole history.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError::Clustering`] when fitting fails.
    pub fn refit(&mut self) -> Result<(), PipeTuneError> {
        if self.history.len() < self.k {
            return Ok(());
        }
        let data = self.feature_history();
        match self.kind {
            SimilarityKind::KMeans { k } => {
                let model = KMeans::new(k.max(1)).fit(&data, self.seed)?;
                self.labels = model.labels().to_vec();
                self.similarity =
                    Some(Box::new(KMeansSimilarity::new(model, self.threshold_factor)));
            }
            SimilarityKind::Dbscan { min_points, eps_factor } => {
                let eps = eps_factor.max(0.1) * median_nn_distance(&data);
                let model = Dbscan::new(eps, min_points.max(1)).fit(&data)?;
                // Noise records keep a sentinel label outside every cluster
                // so the nearest-record filter skips them.
                self.labels =
                    model.labels().iter().map(|l| l.cluster().unwrap_or(usize::MAX)).collect();
                self.similarity = Some(Box::new(DbscanSimilarity::new(model)));
            }
        }
        self.records_since_fit = 0;
        self.stats.refits += 1;
        Ok(())
    }

    /// Looks up a new profile. The k-means verdict gates confidence
    /// (Algorithm 1 line 9); on a confident match the configuration of the
    /// *nearest historical record in that cluster* is returned. Nearest-
    /// record selection matters because the optimal system configuration
    /// depends on the trial's working set (Fig. 3b's batch-size crossover):
    /// a profile close to a stored large-batch probe gets that probe's
    /// many-core configuration, not a cluster-wide compromise.
    pub fn lookup(&mut self, features: &[f64]) -> Option<(SystemConfig, SimilarityVerdict)> {
        let found = self.peek(features);
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// [`GroundTruth::lookup`] without the stats side effect: safe to call
    /// concurrently from many executor threads against one shared snapshot.
    /// The executor journals the outcome per work item and the coordinator
    /// accounts for it at commit time (see `docs/determinism.md`).
    pub(crate) fn peek(&self, features: &[f64]) -> Option<(SystemConfig, SimilarityVerdict)> {
        let verdict = self.judge(features)?;
        if verdict.confident {
            let nearest = self
                .history
                .iter()
                .zip(&self.labels)
                .filter(|(_, &l)| l == verdict.cluster)
                .map(|(r, _)| {
                    let d: f64 =
                        r.features.iter().zip(features).map(|(a, b)| (a - b) * (a - b)).sum();
                    (d, r.best)
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((_, cfg)) = nearest {
                return Some((cfg, verdict));
            }
        }
        None
    }

    /// Cluster assignment of a profile (used by the Fig. 8 experiment),
    /// or `None` before the first fit.
    pub fn cluster_of(&self, features: &[f64]) -> Option<usize> {
        self.judge(features).map(|verdict| verdict.cluster)
    }

    /// The fitted model's verdict on a profile; `None` before the first
    /// fit, and for a profile of another dimensionality than the history —
    /// a store loaded from a file need not come from this profiler, such a
    /// profile resembles nothing in it, and the models assert on the
    /// mismatch.
    fn judge(&self, features: &[f64]) -> Option<SimilarityVerdict> {
        // Every fit included the first record, so it has the fitted width.
        let fitted = &self.history.first()?.features;
        let sim = self.similarity.as_ref().filter(|_| fitted.len() == features.len())?;
        Some(sim.judge(features))
    }

    /// Behaviour counters.
    pub fn stats(&self) -> GroundTruthStats {
        self.stats
    }

    /// The recorded feature vectors, in insertion order (k-selection and
    /// analysis tooling).
    pub fn feature_history(&self) -> Vec<Vec<f64>> {
        self.history.iter().map(|r| r.features.clone()).collect()
    }

    /// Number of recorded profiles.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Returns `true` when no profiles were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Persists the history as a metric store: one `ground_truth` point per
    /// record, stamped with its position. `freq_mhz` is written only for a
    /// configuration off the nominal clock, so a store probed without DVFS
    /// keeps the bytes it always had.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError::Tsdb`] on I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), PipeTuneError> {
        let db = Database::new();
        for (at, r) in self.history.iter().enumerate() {
            let mut point = Point::new("ground_truth", at as u64)
                .tag("workload", &r.workload)
                .field_vec("feat", &r.features)
                .field("cores", f64::from(r.best.cores))
                .field("memory_gb", f64::from(r.best.memory_gb))
                .field("cost", r.cost);
            if r.best.freq_mhz != SystemConfig::NOMINAL_FREQ_MHZ {
                point = point.field("freq_mhz", f64::from(r.best.freq_mhz));
            }
            db.write(point)?;
        }
        Ok(db.save(path)?)
    }

    /// Rebuilds a ground truth from a persisted metric store (warm start).
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError::Tsdb`] on I/O or decode failures, and
    /// [`TsdbError::Corrupt`] naming the record and the member for a record
    /// without a `workload`, `cores`, `memory_gb` or `cost`, or whose
    /// `cores`, `memory_gb` or `freq_mhz` is not a whole number a `u32`
    /// holds.
    pub fn load(
        path: &Path,
        k: usize,
        threshold_factor: f64,
        seed: u64,
    ) -> Result<Self, PipeTuneError> {
        let db = Database::load(path)?;
        let mut gt = GroundTruth::new(k, threshold_factor, seed);
        for (at, p) in db.query(&Query::measurement("ground_truth"))?.iter().enumerate() {
            let corrupt = |member: &str, what: &str| TsdbError::Corrupt {
                reason: format!("ground-truth record {at}: `{member}` {what}"),
            };
            let required =
                |member: &str| p.field_value(member).ok_or_else(|| corrupt(member, "is missing"));
            let whole = |member: &str, value: f64| {
                if value.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&value) {
                    Ok(value as u32)
                } else {
                    Err(corrupt(member, &format!("is {value:?}, not a whole number a u32 holds")))
                }
            };
            let workload = p.tag_value("workload").ok_or_else(|| corrupt("workload", "is missing"));
            gt.history.push(Record {
                workload: workload?.to_string(),
                features: p.field_vec_values("feat"),
                best: SystemConfig {
                    cores: whole("cores", required("cores")?)?,
                    memory_gb: whole("memory_gb", required("memory_gb")?)?,
                    freq_mhz: match p.field_value("freq_mhz") {
                        Some(mhz) => whole("freq_mhz", mhz)?,
                        None => SystemConfig::NOMINAL_FREQ_MHZ,
                    },
                },
                cost: required("cost")?,
            });
        }
        gt.stats.recorded = gt.history.len();
        if gt.history.len() >= gt.min_history {
            gt.refit()?;
        }
        Ok(gt)
    }
}

/// How trial execution consults the ground truth.
///
/// [`GroundTruth`] itself implements it with immediate mutation — the
/// semantics direct sequential callers get. The parallel executor instead
/// hands each work item a journalling view of the batch-start history
/// (see `docs/determinism.md`).
pub trait GroundTruthAccess {
    /// Consults the ground truth with first-epoch profile features; `Some`
    /// means the returned configuration may be reused without probing.
    fn lookup(&mut self, features: &[f64]) -> Option<SystemConfig>;

    /// Reports a probed profile and the best configuration probing found.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError`] when persistence or re-clustering fails.
    fn record(
        &mut self,
        workload: &str,
        features: &[f64],
        best: SystemConfig,
        cost: f64,
    ) -> Result<(), PipeTuneError>;
}

impl GroundTruthAccess for GroundTruth {
    fn lookup(&mut self, features: &[f64]) -> Option<SystemConfig> {
        GroundTruth::lookup(self, features).map(|(cfg, _)| cfg)
    }

    fn record(
        &mut self,
        workload: &str,
        features: &[f64],
        best: SystemConfig,
        cost: f64,
    ) -> Result<(), PipeTuneError> {
        GroundTruth::record(self, workload, features, best, cost)
    }
}

/// A journalled ground-truth mutation (see [`BatchView`]).
#[derive(Debug, Clone)]
pub(crate) enum GtEvent {
    /// A lookup reused a known configuration.
    Hit,
    /// A lookup fell through to probing.
    Miss,
    /// Probing finished; remember its outcome.
    Record(Record),
}

/// One work item's view of the ground truth while its batch executes:
/// lookups read the batch-start `history` through a plain shared borrow —
/// the borrow checker proves nobody writes it until every worker is done —
/// and would-be mutations land in the item's `journal`, which the
/// coordinator applies with [`GroundTruth::commit`] in request order.
pub(crate) struct BatchView<'a> {
    pub(crate) history: &'a GroundTruth,
    pub(crate) journal: &'a mut Vec<GtEvent>,
}

impl GroundTruthAccess for BatchView<'_> {
    fn lookup(&mut self, features: &[f64]) -> Option<SystemConfig> {
        let found = self.history.peek(features).map(|(cfg, _)| cfg);
        self.journal.push(if found.is_some() { GtEvent::Hit } else { GtEvent::Miss });
        found
    }

    fn record(
        &mut self,
        workload: &str,
        features: &[f64],
        best: SystemConfig,
        cost: f64,
    ) -> Result<(), PipeTuneError> {
        self.journal.push(GtEvent::Record(Record {
            workload: workload.to_string(),
            features: features.to_vec(),
            best,
            cost,
        }));
        Ok(())
    }
}

impl GroundTruth {
    /// Applies one work item's journalled events, in the order it made
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`PipeTuneError`] when applying a record fails.
    pub(crate) fn commit(&mut self, events: Vec<GtEvent>) -> Result<(), PipeTuneError> {
        for event in events {
            match event {
                GtEvent::Hit => self.stats.hits += 1,
                GtEvent::Miss => self.stats.misses += 1,
                GtEvent::Record(record) => self.push(record)?,
            }
        }
        Ok(())
    }
}

/// Median nearest-neighbour distance of a feature set (DBSCAN radius
/// heuristic). Returns 1.0 on degenerate inputs.
fn median_nn_distance(data: &[Vec<f64>]) -> f64 {
    if data.len() < 2 {
        return 1.0;
    }
    let mut nn: Vec<f64> = data
        .iter()
        .enumerate()
        .map(|(i, p)| {
            data.iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, q)| p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    nn.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let m = nn[nn.len() / 2];
    if m.is_finite() && m > 0.0 {
        m
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(base: f64) -> Vec<f64> {
        (0..8).map(|i| base + i as f64 * 0.01).collect()
    }

    fn fast_cfg() -> SystemConfig {
        SystemConfig::new(16, 32)
    }

    fn small_cfg() -> SystemConfig {
        SystemConfig::new(4, 8)
    }

    fn seeded() -> GroundTruth {
        let mut gt = GroundTruth::paper_default(3);
        for i in 0..4 {
            gt.record("a", &feat(0.0 + i as f64 * 0.001), fast_cfg(), 10.0 + i as f64).unwrap();
            gt.record("b", &feat(5.0 + i as f64 * 0.001), small_cfg(), 20.0 + i as f64).unwrap();
        }
        gt
    }

    #[test]
    fn similar_profiles_hit_with_cluster_best() {
        let mut gt = seeded();
        let (cfg, verdict) = gt.lookup(&feat(0.002)).expect("should hit");
        assert_eq!(cfg, fast_cfg());
        assert!(verdict.confident);
        let (cfg_b, _) = gt.lookup(&feat(5.002)).expect("should hit");
        assert_eq!(cfg_b, small_cfg());
        assert_eq!(gt.stats().hits, 2);
    }

    #[test]
    fn profiles_of_another_width_than_the_history_miss_instead_of_panicking() {
        let mut gt = seeded();
        assert!(gt.lookup(&feat(0.002)[..5]).is_none());
        assert!(gt.lookup(&[]).is_none());
        assert!(gt.cluster_of(&[0.0; 9]).is_none());
        assert_eq!(gt.stats().misses, 2);
    }

    #[test]
    fn dissimilar_profiles_miss() {
        let mut gt = seeded();
        assert!(gt.lookup(&feat(50.0)).is_none());
        assert_eq!(gt.stats().misses, 1);
    }

    #[test]
    fn empty_ground_truth_never_hits() {
        let mut gt = GroundTruth::paper_default(1);
        assert!(gt.lookup(&feat(0.0)).is_none());
        assert!(gt.is_empty());
    }

    #[test]
    fn nearest_record_in_cluster_supplies_the_config() {
        let mut gt = GroundTruth::paper_default(1);
        // Same cluster, two sub-populations with different best configs
        // (e.g. small-batch vs large-batch probes).
        for i in 0..3 {
            gt.record("a", &feat(0.0), SystemConfig::new(8, 8), 30.0 - i as f64).unwrap();
        }
        gt.record("a", &feat(0.4), fast_cfg(), 1.0).unwrap();
        gt.record("b", &feat(5.0), small_cfg(), 9.0).unwrap();
        gt.record("b", &feat(5.001), small_cfg(), 9.0).unwrap();
        gt.refit().unwrap();
        // A profile near the 0.4 sub-population reuses *its* config.
        let (cfg, _) = gt.lookup(&feat(0.39)).expect("hit");
        assert_eq!(cfg, fast_cfg());
        // A profile near the 0.0 sub-population reuses the other config.
        let (cfg, _) = gt.lookup(&feat(0.01)).expect("hit");
        assert_eq!(cfg, SystemConfig::new(8, 8));
    }

    #[test]
    fn save_load_round_trip_preserves_behaviour() {
        let gt = seeded();
        let dir = std::env::temp_dir().join("pipetune_gt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gt.json");
        gt.save(&path).unwrap();
        let mut loaded = GroundTruth::load(&path, 2, 2.0, 3).unwrap();
        assert_eq!(loaded.len(), gt.len());
        assert!(loaded.lookup(&feat(0.002)).is_some());
        std::fs::remove_file(&path).ok();
    }

    /// `gt` after a save and a load, and the text of the file between.
    fn reloaded(gt: &GroundTruth, tag: &str) -> (GroundTruth, String) {
        let path =
            std::env::temp_dir().join(format!("pipetune_gt_{tag}_{}.json", std::process::id()));
        gt.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let loaded = GroundTruth::load(&path, 2, 3.0, 3);
        std::fs::remove_file(&path).ok();
        (loaded.unwrap(), text)
    }

    #[test]
    fn a_configuration_off_the_nominal_clock_survives_save_and_load() {
        let slow = SystemConfig { freq_mhz: 1800, ..fast_cfg() };
        let mut gt = GroundTruth::paper_default(3);
        for i in 0..4 {
            gt.record("a", &feat(i as f64 * 0.001), slow, 10.0).unwrap();
            gt.record("b", &feat(5.0 + i as f64 * 0.001), small_cfg(), 20.0).unwrap();
        }
        let (loaded, text) = reloaded(&gt, "dvfs");
        assert_eq!(loaded.peek(&feat(0.002)).expect("should hit").0, slow);
        assert_eq!(loaded.peek(&feat(5.002)).expect("should hit").0, small_cfg());
        assert_eq!(text.matches("freq_mhz").count(), 4, "only the four off-nominal records say it");
        // A store probed without DVFS never mentions the clock.
        assert!(!reloaded(&seeded(), "nominal").1.contains("freq_mhz"));
    }

    #[test]
    fn load_names_the_record_and_the_member_it_cannot_read() {
        let complete = |at: u64| {
            Point::new("ground_truth", at)
                .tag("workload", "a")
                .field_vec("feat", &feat(0.0))
                .field("cores", 8.0)
                .field("memory_gb", 16.0)
                .field("cost", 1.0)
        };
        let without_cost = Point::new("ground_truth", 1)
            .tag("workload", "a")
            .field("cores", 8.0)
            .field("memory_gb", 16.0);
        let without_workload = Point::new("ground_truth", 1).field("cores", 8.0).field("cost", 1.0);
        let cases = [
            (without_cost, "`cost` is missing"),
            (without_workload, "`workload` is missing"),
            (complete(1).field("cores", -1.0), "`cores` is -1.0"),
            (complete(1).field("memory_gb", 1e300), "`memory_gb` is 1e300"),
            (complete(1).field("freq_mhz", 1800.5), "`freq_mhz` is 1800.5"),
        ];
        let path =
            std::env::temp_dir().join(format!("pipetune_gt_bad_{}.json", std::process::id()));
        for (bad, names) in cases {
            let db = Database::new();
            db.write(complete(0)).unwrap();
            db.write(bad).unwrap();
            db.save(&path).unwrap();
            let reason = match GroundTruth::load(&path, 2, 3.0, 3) {
                Err(PipeTuneError::Tsdb(TsdbError::Corrupt { reason })) => reason,
                other => panic!("expected a corrupt record ({names}), got {other:?}"),
            };
            assert!(reason.contains("record 1") && reason.contains(names), "{reason}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dbscan_similarity_also_gates_and_reuses() {
        let mut gt = GroundTruth::with_similarity(
            SimilarityKind::Dbscan { min_points: 2, eps_factor: 3.0 },
            0.0, // threshold unused by DBSCAN
            3,
        );
        for i in 0..4 {
            gt.record("a", &feat(0.0 + i as f64 * 0.001), fast_cfg(), 10.0).unwrap();
            gt.record("b", &feat(5.0 + i as f64 * 0.001), small_cfg(), 20.0).unwrap();
        }
        gt.refit().unwrap();
        let (cfg, v) = gt.lookup(&feat(0.002)).expect("dense region should hit");
        assert_eq!(cfg, fast_cfg());
        assert!(v.confident);
        assert!(gt.lookup(&feat(50.0)).is_none(), "density noise should miss");
        assert_ne!(gt.cluster_of(&feat(0.0)), gt.cluster_of(&feat(5.0)));
    }

    #[test]
    fn clusters_separate_the_two_families_fig8() {
        let gt = seeded();
        let ca = gt.cluster_of(&feat(0.0)).unwrap();
        let cb = gt.cluster_of(&feat(5.0)).unwrap();
        assert_ne!(ca, cb);
    }
}
