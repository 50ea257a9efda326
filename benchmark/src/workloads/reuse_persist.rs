//! `reuse_persist`: the epoch cache read, written and persisted — a warm
//! rerun from a loaded cache file, a cold job that fills and overflows the
//! same cache, and the save / load path of the cache and the ground truth.

use std::path::{Path, PathBuf};

use pipetune::prelude::*;
use pipetune::{EpochCacheConfig, GroundTruth, HyperParams};

use super::{dnn_job_inner, Workload};
use crate::common::{
    base_env, check_scores, subseed, timed, BenchResult, PassOutput, ScratchDir, SimDigest, Size,
};
use crate::probes::Units;
use crate::span::{Layer, Tracer};

pub const NAME: &str = "reuse_persist";

/// Fewer entries than the two jobs of a cycle insert (22 each at full
/// size, 5 each at `--quick`), so every cycle evicts.
fn capacity(size: Size) -> usize {
    size.pick(32, 8)
}

pub struct ReusePersist {
    seed: u64,
    options: TunerOptions,
    /// The job whose cold run filled the persisted cache, and the job every
    /// cycle runs cold on top of it.
    filled: WorkloadSpec,
    fresh: WorkloadSpec,
    /// The cold run the warm reruns must reproduce bit for bit.
    cold: SimDigest,
    cold_best: HyperParams,
    cold_secs: f64,
    /// Cache file the set-up's cold run saved; every pass loads this one.
    cold_file: PathBuf,
    resave_file: PathBuf,
    gt_file: PathBuf,
    _dir: ScratchDir,
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6)
}

impl ReusePersist {
    /// The job the persisted cache holds.
    pub fn filled(&self) -> WorkloadSpec {
        self.filled
    }

    fn tuner_run(
        &self,
        tuner: &mut PipeTune,
        env_seed: u64,
        spec: &WorkloadSpec,
        cache: &EpochCacheHandle,
        tr: &mut Tracer,
    ) -> BenchResult<(f64, TuningOutcome)> {
        let env = base_env(env_seed).epoch_cache(cache.clone()).build()?;
        let (secs, outcome) =
            timed(|| tr.call(Layer::Core, "core.tuner_run", || tuner.run(&env, spec)));
        Ok((secs, outcome?))
    }

    /// The warm rerun must pick the cold run's model with the cold run's
    /// accuracy, and must have adopted epochs from the cache to get there.
    fn check_warm(&self, outcome: &TuningOutcome) -> Result<(), String> {
        check_scores(outcome)?;
        let mut warm = SimDigest::default();
        warm.add_outcome(outcome);
        if warm.best_accuracy_sum.to_bits() == self.cold.best_accuracy_sum.to_bits()
            && warm.epochs_total == self.cold.epochs_total
            && outcome.best_hp == self.cold_best
            && outcome.cache_stats.hits > 0
        {
            Ok(())
        } else {
            Err(format!(
                "warm {warm:?} hits {} vs cold {:?}",
                outcome.cache_stats.hits, self.cold
            ))
        }
    }
}

impl Workload for ReusePersist {
    /// Set-up is the cold fill: a cache-on run from an empty cache, saved.
    fn setup(seed: u64, size: Size, checks: &mut PassOutput) -> BenchResult<Self> {
        let dir = ScratchDir::new(NAME)?;
        let mut this = ReusePersist {
            seed,
            // The profile of `dnn_tune`: the paper's shapes under R = 9.
            // `lenet/mnist` fills the file because its entries are the same
            // size whatever the hyperparameters (no embedding width), which
            // keeps the persisted megabytes steady from seed to seed.
            options: size.pick(
                TunerOptions {
                    r_max: 9,
                    epochs_range: (3, 9),
                    ..TunerOptions::paper()
                },
                TunerOptions {
                    r_max: 3,
                    epochs_range: (1, 3),
                    ..TunerOptions::fast()
                },
            ),
            filled: WorkloadSpec::lenet_mnist(),
            fresh: WorkloadSpec::lstm_news20(),
            cold: SimDigest::default(),
            cold_best: HyperParams::default(),
            cold_secs: 0.0,
            cold_file: dir.path().join("cache.cold.bin"),
            resave_file: dir.path().join("cache.resave.bin"),
            gt_file: dir.path().join("groundtruth.bin"),
            _dir: dir,
        };
        let cache = EpochCacheHandle::with_config(EpochCacheConfig {
            capacity: capacity(size),
            ..EpochCacheConfig::default()
        });
        let mut tuner = PipeTune::new(this.options);
        let (secs, outcome) = this.tuner_run(
            &mut tuner,
            seed,
            &this.filled,
            &cache,
            &mut Tracer::new(false),
        )?;
        checks.attempt("cold fill", check_scores(&outcome));
        cache.save(&this.cold_file)?;
        this.cold.add_outcome(&outcome);
        this.cold_best = outcome.best_hp;
        this.cold_secs = secs;
        Ok(this)
    }

    fn options(&self) -> TunerOptions {
        self.options
    }

    /// One cycle: load the persisted cache; rerun the job that filled it
    /// (every epoch adopted from the cache); run a second job cold under an
    /// environment seed of the input's own (every epoch inserted, the oldest
    /// entries evicted); save the cache; save and reload the ground truth.
    /// One operation is one cycle.
    fn pass(
        &mut self,
        input: u64,
        tr: &mut Tracer,
        units: Option<&Units>,
    ) -> BenchResult<PassOutput> {
        let mut out = PassOutput::default();
        tr.next_op();
        let cycle_start = std::time::Instant::now();

        let (load_s, cache) = timed(|| {
            tr.call(Layer::Core, "core.cache.load", || {
                EpochCacheHandle::load(&self.cold_file)
            })
        });
        let cache = cache?;

        let mut tuner = PipeTune::new(self.options);
        let (warm_s, warm) = self.tuner_run(&mut tuner, self.seed, &self.filled, &cache, tr)?;
        out.attempt(
            "warm rerun equals cold run bit for bit",
            self.check_warm(&warm),
        );
        let (fresh_s, fresh) = self.tuner_run(
            &mut tuner,
            subseed(self.seed, input + 1),
            &self.fresh,
            &cache,
            tr,
        )?;
        out.attempt("cold job beside the warm one", check_scores(&fresh));
        for (spec, secs, outcome) in [
            (&self.filled, warm_s, &warm),
            (&self.fresh, fresh_s, &fresh),
        ] {
            out.sim.add_outcome(outcome);
            out.epochs += outcome.epochs_total;
            out.jobs += 1;
            if let Some(units) = units {
                out.inner
                    .extend(dnn_job_inner(units, spec, secs, outcome.cache_stats.misses));
            }
        }

        let (save_s, saved) = timed(|| {
            tr.call(Layer::Core, "core.cache.save", || {
                cache.save(&self.resave_file)
            })
        });
        saved?;
        let (gt_save_s, saved) = timed(|| {
            tr.call(Layer::Core, "core.groundtruth.save", || {
                tuner.ground_truth().save(&self.gt_file)
            })
        });
        saved?;
        let (gt_load_s, loaded) = timed(|| {
            tr.call(Layer::Core, "core.groundtruth.load", || {
                GroundTruth::load(&self.gt_file, 2, self.options.threshold_factor, 0x6774)
            })
        });
        out.ops_ms.push(cycle_start.elapsed().as_secs_f64() * 1e3);
        out.attempt(
            "ground truth reloads every record",
            match loaded {
                Ok(gt) if gt.len() == tuner.ground_truth().len() => Ok(()),
                Ok(gt) => Err(format!(
                    "{} records, saved {}",
                    gt.len(),
                    tuner.ground_truth().len()
                )),
                Err(e) => Err(e.to_string()),
            },
        );

        let stats = [warm.cache_stats, fresh.cache_stats];
        out.sample("cache_hits", stats.iter().map(|s| s.hits as f64).sum());
        out.sample("cache_misses", stats.iter().map(|s| s.misses as f64).sum());
        out.sample(
            "cache_evictions",
            stats.iter().map(|s| s.evictions as f64).sum(),
        );
        out.sample("cache_load_s", load_s);
        out.sample("cache_save_s", save_s);
        out.sample("gt_save_s", gt_save_s);
        out.sample("gt_load_s", gt_load_s);
        out.sample("cache_file_mb", file_mb(&self.resave_file));
        out.sample(
            "persist_mb",
            file_mb(&self.cold_file) + file_mb(&self.resave_file) + 2.0 * file_mb(&self.gt_file),
        );
        out.sample("persist_s", load_s + save_s + gt_save_s + gt_load_s);
        out.sample("warm_s", warm_s);
        out.sample("cold_s", self.cold_secs);
        Ok(out)
    }
}
