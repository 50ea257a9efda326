//! Spark-style mini-batch k-means (the Rodinia-on-Spark `spk-means` job).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{IterativeKernel, KernelMetrics, KernelSignature};

/// Configuration for the [`SpKMeans`] kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpKMeansConfig {
    /// Number of points in the synthetic dataset.
    pub points: usize,
    /// Dimensionality of each point.
    pub dims: usize,
    /// Number of clusters to fit.
    pub k: usize,
    /// Number of true generating clusters in the data.
    pub true_clusters: usize,
    /// Fraction of points processed per epoch (mini-batch Lloyd step);
    /// `1.0` is a full Lloyd iteration. The tunable analogue of batch size.
    pub batch_fraction: f32,
}

impl Default for SpKMeansConfig {
    fn default() -> Self {
        SpKMeansConfig { points: 2000, dims: 8, k: 8, true_clusters: 8, batch_fraction: 1.0 }
    }
}

/// Mini-batch Lloyd's k-means over a seeded Gaussian-mixture dataset.
///
/// One [`step`](IterativeKernel::step) is one assignment+update pass over a
/// mini-batch (one "epoch"). The [`score`](IterativeKernel::score) is the
/// relative inertia improvement `1 − inertia/inertia₀ ∈ [0, 1]`, the quality
/// measure the evaluation reports as this job's "accuracy".
#[derive(Debug, Clone)]
pub struct SpKMeans {
    cfg: SpKMeansConfig,
    data: Vec<f32>, // points × dims
    centroids: Vec<f32>,
    rng: StdRng,
    initial_inertia: f64,
    last_inertia: f64,
    epochs: usize,
}

impl SpKMeans {
    /// Generates a seeded Gaussian-mixture dataset and random initial
    /// centroids.
    ///
    /// # Panics
    ///
    /// Panics if any of `points`, `dims` or `k` is zero.
    pub fn new(cfg: &SpKMeansConfig, seed: u64) -> Self {
        assert!(cfg.points > 0 && cfg.dims > 0 && cfg.k > 0, "sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let tc = cfg.true_clusters.max(1);
        // True cluster centres on a scaled lattice plus jitter.
        let centres: Vec<f32> = (0..tc * cfg.dims).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        let mut data = Vec::with_capacity(cfg.points * cfg.dims);
        for i in 0..cfg.points {
            let c = i % tc;
            for d in 0..cfg.dims {
                data.push(centres[c * cfg.dims + d] + rng.gen_range(-0.6f32..0.6));
            }
        }
        // Initial centroids: random points from the data (Forgy init).
        let mut centroids = Vec::with_capacity(cfg.k * cfg.dims);
        for _ in 0..cfg.k {
            let p = rng.gen_range(0..cfg.points);
            centroids.extend_from_slice(&data[p * cfg.dims..(p + 1) * cfg.dims]);
        }
        let mut km = SpKMeans {
            cfg: *cfg,
            data,
            centroids,
            rng,
            initial_inertia: 0.0,
            last_inertia: 0.0,
            epochs: 0,
        };
        let i0 = km.inertia().max(1e-9);
        km.initial_inertia = i0;
        km.last_inertia = i0;
        km
    }

    fn nearest(&self, p: usize) -> (usize, f64) {
        let d = self.cfg.dims;
        let point = &self.data[p * d..(p + 1) * d];
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..self.cfg.k {
            let cen = &self.centroids[c * d..(c + 1) * d];
            let dist: f64 = point
                .iter()
                .zip(cen)
                .map(|(&a, &b)| {
                    let diff = (a - b) as f64;
                    diff * diff
                })
                .sum();
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        (best, best_d)
    }

    /// Sum of squared distances of every point to its nearest centroid.
    pub fn inertia(&self) -> f64 {
        (0..self.cfg.points).map(|p| self.nearest(p).1).sum()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SpKMeansConfig {
        &self.cfg
    }
}

impl IterativeKernel for SpKMeans {
    fn name(&self) -> &'static str {
        "spkmeans"
    }

    fn step(&mut self) -> KernelMetrics {
        let d = self.cfg.dims;
        let batch = ((self.cfg.points as f32 * self.cfg.batch_fraction.clamp(0.01, 1.0)) as usize)
            .max(self.cfg.k);
        // Sample the mini-batch (full pass when batch == points).
        let idx: Vec<usize> = if batch >= self.cfg.points {
            (0..self.cfg.points).collect()
        } else {
            (0..batch).map(|_| self.rng.gen_range(0..self.cfg.points)).collect()
        };
        let mut sums = vec![0.0f64; self.cfg.k * d];
        let mut counts = vec![0usize; self.cfg.k];
        for &p in &idx {
            let (c, _) = self.nearest(p);
            counts[c] += 1;
            for j in 0..d {
                sums[c * d + j] += self.data[p * d + j] as f64;
            }
        }
        for c in 0..self.cfg.k {
            if counts[c] > 0 {
                for j in 0..d {
                    let mean = (sums[c * d + j] / counts[c] as f64) as f32;
                    // Mini-batch update: move toward the batch mean.
                    let w = if batch >= self.cfg.points { 1.0 } else { 0.5 };
                    self.centroids[c * d + j] = (1.0 - w) * self.centroids[c * d + j] + w * mean;
                }
            }
        }
        self.epochs += 1;
        self.last_inertia = self.inertia().max(1e-12);
        KernelMetrics {
            work_flops: idx.len() as f64 * self.cfg.k as f64 * d as f64 * 3.0,
            items: idx.len(),
            score: self.score(),
        }
    }

    fn score(&self) -> f32 {
        (1.0 - (self.last_inertia / self.initial_inertia)).clamp(0.0, 1.0) as f32
    }

    fn signature(&self) -> KernelSignature {
        let n = self.cfg.points as f64;
        let kd = (self.cfg.k * self.cfg.dims) as f64;
        KernelSignature {
            flops_per_epoch: n * kd * 3.0 * self.cfg.batch_fraction as f64,
            working_set_bytes: n * self.cfg.dims as f64 * 4.0 + kd * 4.0,
            memory_intensity: 1.5,
            branch_ratio: 0.10,
        }
    }

    fn epochs_run(&self) -> usize {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lloyd_reduces_inertia() {
        let mut km = SpKMeans::new(&SpKMeansConfig::default(), 2);
        let i0 = km.inertia();
        for _ in 0..5 {
            km.step();
        }
        assert!(km.inertia() < i0, "inertia should drop");
        assert!(km.score() > 0.5, "score {}", km.score());
    }

    #[test]
    fn wrong_k_scores_worse_than_true_k() {
        let good_cfg = SpKMeansConfig { k: 8, true_clusters: 8, ..SpKMeansConfig::default() };
        let bad_cfg = SpKMeansConfig { k: 2, true_clusters: 8, ..SpKMeansConfig::default() };
        let mut good = SpKMeans::new(&good_cfg, 6);
        let mut bad = SpKMeans::new(&bad_cfg, 6);
        for _ in 0..10 {
            good.step();
            bad.step();
        }
        assert!(good.score() > bad.score(), "{} vs {}", good.score(), bad.score());
    }

    #[test]
    fn minibatch_processes_fewer_items() {
        let mut full = SpKMeans::new(&SpKMeansConfig::default(), 1);
        let mut mini =
            SpKMeans::new(&SpKMeansConfig { batch_fraction: 0.1, ..SpKMeansConfig::default() }, 1);
        let mf = full.step();
        let mm = mini.step();
        assert!(mm.items < mf.items / 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SpKMeans::new(&SpKMeansConfig::default(), 4);
        let mut b = SpKMeans::new(&SpKMeansConfig::default(), 4);
        a.step();
        b.step();
        assert_eq!(a.inertia(), b.inertia());
    }
}
