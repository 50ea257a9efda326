//! Pluggable similarity functions (the ground-truth decision of §5.6).

use crate::{DbscanLabel, DbscanModel, KMeansModel};

/// Outcome of a similarity check for a new job profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityVerdict {
    /// Cluster the profile is nearest to.
    pub cluster: usize,
    /// Squared distance to that cluster's centroid.
    pub distance_sq: f64,
    /// Normalised score: `distance² / (threshold × mean-inertia)`; below 1.0
    /// means confident.
    pub score: f64,
    /// Whether the known configuration for `cluster` may be reused (the
    /// paper's "score within confidence level", Algorithm 1 line 9).
    pub confident: bool,
}

/// A similarity function over profile feature vectors.
///
/// The paper makes this component pluggable ("our design allows the
/// similarity function to be pluggable", §5.4); PipeTune's middleware only
/// depends on this trait.
pub trait Similarity: std::fmt::Debug {
    /// Judges how similar `features` is to the historical profile clusters.
    fn judge(&self, features: &[f64]) -> SimilarityVerdict;
}

/// The default similarity function: k-means distance vs. model inertia.
///
/// A new profile is *confident* when its squared distance to the nearest
/// centroid is at most `threshold_factor ×` the model's mean per-point
/// inertia — i.e. the new point looks like a typical member of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansSimilarity {
    model: KMeansModel,
    threshold_factor: f64,
}

impl KMeansSimilarity {
    /// Wraps a fitted model with the confidence threshold.
    ///
    /// The paper does not publish its factor; 2.0 accepts points up to twice
    /// the average member distance and is swept in the threshold-sensitivity
    /// ablation.
    pub fn new(model: KMeansModel, threshold_factor: f64) -> Self {
        KMeansSimilarity { model, threshold_factor: threshold_factor.max(0.0) }
    }
}

impl Similarity for KMeansSimilarity {
    fn judge(&self, features: &[f64]) -> SimilarityVerdict {
        let (cluster, distance_sq) = self.model.predict(features);
        let yardstick = self.threshold_factor * self.model.variance_estimate();
        let score = if yardstick > 0.0 { distance_sq / yardstick } else { f64::INFINITY };
        SimilarityVerdict { cluster, distance_sq, score, confident: score <= 1.0 }
    }
}

/// Density-based alternative: a fitted [`DbscanModel`] gates confidence.
///
/// A new profile is confident exactly when DBSCAN would classify it into a
/// cluster (it lies within `eps` of a core point); density noise is a miss.
/// One of the scikit-learn alternatives §5.4 says can replace k-means.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanSimilarity {
    model: DbscanModel,
}

impl DbscanSimilarity {
    /// Wraps a fitted DBSCAN model.
    pub fn new(model: DbscanModel) -> Self {
        DbscanSimilarity { model }
    }
}

impl Similarity for DbscanSimilarity {
    fn judge(&self, features: &[f64]) -> SimilarityVerdict {
        let (label, distance_sq) = self.model.predict(features);
        match label {
            DbscanLabel::Cluster(cluster) => {
                SimilarityVerdict { cluster, distance_sq, score: 0.0, confident: true }
            }
            DbscanLabel::Noise => SimilarityVerdict {
                cluster: 0,
                distance_sq,
                score: f64::INFINITY,
                confident: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dbscan, KMeans};

    fn fitted_with(threshold_factor: f64) -> KMeansSimilarity {
        let mut data = Vec::new();
        for i in 0..10 {
            let j = f64::from(i) * 0.05;
            data.push(vec![0.0 + j, 0.0]);
            data.push(vec![10.0 + j, 10.0]);
        }
        let model = KMeans::new(2).fit(&data, 1).unwrap();
        KMeansSimilarity::new(model, threshold_factor)
    }

    fn fitted() -> KMeansSimilarity {
        fitted_with(2.0)
    }

    #[test]
    fn member_like_points_are_confident() {
        let sim = fitted();
        let v = sim.judge(&[0.1, 0.05]);
        assert!(v.confident, "score {}", v.score);
    }

    #[test]
    fn outliers_are_rejected() {
        let sim = fitted();
        let v = sim.judge(&[5.0, 5.0]);
        assert!(!v.confident, "score {}", v.score);
        assert!(v.score > 1.0);
    }

    #[test]
    fn clusters_are_distinguished() {
        let sim = fitted();
        let a = sim.judge(&[0.0, 0.0]).cluster;
        let b = sim.judge(&[10.0, 10.0]).cluster;
        assert_ne!(a, b);
    }

    #[test]
    fn zero_threshold_never_confident() {
        let sim = fitted_with(0.0);
        assert!(!sim.judge(&[0.0, 0.0]).confident);
    }

    #[test]
    fn dbscan_similarity_gates_on_density() {
        let mut data = Vec::new();
        for i in 0..8 {
            let j = f64::from(i) * 0.05;
            data.push(vec![0.0 + j, 0.0]);
            data.push(vec![10.0 + j, 10.0]);
        }
        let model = Dbscan::new(0.5, 3).fit(&data).unwrap();
        let sim = DbscanSimilarity::new(model);
        let near = sim.judge(&[0.1, 0.05]);
        assert!(near.confident);
        let far = sim.judge(&[5.0, 5.0]);
        assert!(!far.confident);
        assert_ne!(sim.judge(&[0.0, 0.0]).cluster, sim.judge(&[10.0, 10.0]).cluster);
    }
}
