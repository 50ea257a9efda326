//! Lloyd's k-means with k-means++ seeding.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Error type for clustering operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusteringError {
    /// Not enough data points for the requested `k`.
    TooFewPoints {
        /// Requested cluster count.
        k: usize,
        /// Points available.
        points: usize,
    },
    /// Points have inconsistent dimensionality (or zero dimensions).
    BadDimensions,
    /// `k` must be at least 1.
    ZeroK,
}

impl fmt::Display for ClusteringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusteringError::TooFewPoints { k, points } => {
                write!(f, "cannot fit {k} clusters to {points} points")
            }
            ClusteringError::BadDimensions => write!(f, "points have inconsistent dimensions"),
            ClusteringError::ZeroK => write!(f, "k must be at least 1"),
        }
    }
}

impl Error for ClusteringError {}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means fitting configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeans {
    /// Number of clusters (the paper uses k = 2: one per workload family).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on centroid movement (squared distance).
    pub tol: f64,
    /// Independent k-means++ restarts; the lowest-inertia fit wins
    /// (scikit-learn's `n_init`, which the paper's prototype relies on).
    pub n_init: usize,
}

impl KMeans {
    /// Creates a configuration with standard iteration/tolerance defaults.
    pub fn new(k: usize) -> Self {
        KMeans { k, max_iters: 100, tol: 1e-9, n_init: 10 }
    }

    /// Fits the model: `n_init` k-means++ restarts derived from `seed`, best
    /// inertia wins.
    ///
    /// # Errors
    ///
    /// Returns [`ClusteringError`] when `k` is zero, data is smaller than
    /// `k`, or dimensions are inconsistent.
    pub fn fit(&self, data: &[Vec<f64>], seed: u64) -> Result<KMeansModel, ClusteringError> {
        let mut best: Option<KMeansModel> = None;
        for restart in 0..self.n_init.max(1) as u64 {
            let model = self.fit_once(data, seed.wrapping_add(restart.wrapping_mul(0x9E37)))?;
            if best.as_ref().is_none_or(|b| model.inertia() < b.inertia()) {
                best = Some(model);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    /// One k-means++ + Lloyd run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KMeans::fit`].
    fn fit_once(&self, data: &[Vec<f64>], seed: u64) -> Result<KMeansModel, ClusteringError> {
        if self.k == 0 {
            return Err(ClusteringError::ZeroK);
        }
        if data.len() < self.k {
            return Err(ClusteringError::TooFewPoints { k: self.k, points: data.len() });
        }
        let dim = data[0].len();
        if dim == 0 || data.iter().any(|p| p.len() != dim) {
            return Err(ClusteringError::BadDimensions);
        }
        let mut rng = StdRng::seed_from_u64(seed);

        // k-means++ seeding.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(self.k);
        centroids.push(data[rng.gen_range(0..data.len())].clone());
        while centroids.len() < self.k {
            let d2: Vec<f64> = data
                .iter()
                .map(|p| centroids.iter().map(|c| sq_dist(p, c)).fold(f64::INFINITY, f64::min))
                .collect();
            let total: f64 = d2.iter().sum();
            let next = if total <= 0.0 {
                // All mass on existing centroids (duplicate points): pick any.
                rng.gen_range(0..data.len())
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut idx = 0;
                for (i, &w) in d2.iter().enumerate() {
                    target -= w;
                    if target <= 0.0 {
                        idx = i;
                        break;
                    }
                }
                idx
            };
            centroids.push(data[next].clone());
        }

        // Lloyd iterations.
        let mut labels = vec![0usize; data.len()];
        for _ in 0..self.max_iters {
            // Assignment.
            for (i, p) in data.iter().enumerate() {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, cen) in centroids.iter().enumerate() {
                    let d = sq_dist(p, cen);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                labels[i] = best;
            }
            // Update.
            let mut sums = vec![vec![0.0f64; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (p, &l) in data.iter().zip(&labels) {
                counts[l] += 1;
                for (s, &v) in sums[l].iter_mut().zip(p) {
                    *s += v;
                }
            }
            let mut movement = 0.0f64;
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Empty cluster: re-seed on the farthest point.
                    let far = data
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            sq_dist(a, &centroids[c])
                                .partial_cmp(&sq_dist(b, &centroids[c]))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    movement += sq_dist(&centroids[c], &data[far]);
                    centroids[c] = data[far].clone();
                    continue;
                }
                let new: Vec<f64> = sums[c].iter().map(|&s| s / counts[c] as f64).collect();
                movement += sq_dist(&centroids[c], &new);
                centroids[c] = new;
            }
            if movement < self.tol {
                break;
            }
        }

        let inertia: f64 = data.iter().zip(&labels).map(|(p, &l)| sq_dist(p, &centroids[l])).sum();
        Ok(KMeansModel { centroids, labels, inertia, n_points: data.len() })
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    centroids: Vec<Vec<f64>>,
    labels: Vec<usize>,
    inertia: f64,
    n_points: usize,
}

impl KMeansModel {
    /// The fitted centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Training-point assignments, in input order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Sum of squared distances of training points to their centroids.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Mean squared distance per training point — the reliability yardstick
    /// the paper compares new-point distances against (§5.6).
    fn mean_inertia(&self) -> f64 {
        if self.n_points == 0 {
            0.0
        } else {
            self.inertia / self.n_points as f64
        }
    }

    /// Unbiased within-cluster variance estimate, `inertia / (n − k)`.
    ///
    /// With few points per cluster the raw mean inertia badly underestimates
    /// the spread a *new* member will show (a 2-point cluster's members sit
    /// at half their separation from the centroid), so similarity thresholds
    /// should be anchored on this estimate instead.
    pub(crate) fn variance_estimate(&self) -> f64 {
        let dof = self.n_points.saturating_sub(self.centroids.len());
        if dof == 0 {
            self.mean_inertia()
        } else {
            self.inertia / dof as f64
        }
    }

    /// Nearest centroid and *squared* distance for a new point.
    ///
    /// # Panics
    ///
    /// Panics if `point` has a different dimensionality than the training
    /// data.
    pub fn predict(&self, point: &[f64]) -> (usize, f64) {
        assert_eq!(
            point.len(),
            self.centroids[0].len(),
            "query dimensionality must match training data"
        );
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, cen) in self.centroids.iter().enumerate() {
            let d = sq_dist(point, cen);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_data() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.01;
            data.push(vec![0.0 + j, 0.0 - j]);
            data.push(vec![10.0 + j, 10.0 - j]);
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blob_data();
        let model = KMeans::new(2).fit(&data, 1).unwrap();
        // Even indices (blob A) share a label; odd indices share the other.
        let a = model.labels()[0];
        let b = model.labels()[1];
        assert_ne!(a, b);
        assert!(model.labels().iter().step_by(2).all(|&l| l == a));
        assert!(model.labels().iter().skip(1).step_by(2).all(|&l| l == b));
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = two_blob_data();
        let i1 = KMeans::new(1).fit(&data, 1).unwrap().inertia();
        let i2 = KMeans::new(2).fit(&data, 1).unwrap().inertia();
        let i4 = KMeans::new(4).fit(&data, 1).unwrap().inertia();
        assert!(i1 > i2, "{i1} !> {i2}");
        assert!(i2 >= i4, "{i2} !>= {i4}");
    }

    #[test]
    fn every_point_is_nearest_to_its_centroid() {
        // Core k-means invariant after convergence.
        let data = two_blob_data();
        let model = KMeans::new(2).fit(&data, 3).unwrap();
        for (p, &l) in data.iter().zip(model.labels()) {
            let (nearest, _) = model.predict(p);
            assert_eq!(nearest, l);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let data = two_blob_data();
        let a = KMeans::new(2).fit(&data, 9).unwrap();
        let b = KMeans::new(2).fit(&data, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(KMeans::new(0).fit(&[vec![1.0]], 0), Err(ClusteringError::ZeroK)));
        assert!(matches!(
            KMeans::new(3).fit(&[vec![1.0]], 0),
            Err(ClusteringError::TooFewPoints { .. })
        ));
        assert!(matches!(
            KMeans::new(1).fit(&[vec![1.0], vec![1.0, 2.0]], 0),
            Err(ClusteringError::BadDimensions)
        ));
    }

    #[test]
    fn survives_duplicate_points() {
        let data = vec![vec![1.0, 1.0]; 10];
        let model = KMeans::new(2).fit(&data, 5).unwrap();
        assert!(model.inertia() < 1e-12);
    }
}
