//! Clustering and similarity functions for PipeTune's ground-truth phase.
//!
//! The paper's ground truth (§5.4) clusters per-epoch hardware profiles with
//! k-means (k = 2, one cluster per workload family) via scikit-learn, and
//! decides whether a new job is "similar enough" by comparing its distance to
//! the nearest centroid against the model's inertia (§5.6). This crate
//! implements both from scratch:
//!
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding;
//! * [`KMeansModel`] — fitted centroids, inertia, assignment;
//! * [`Similarity`] — the pluggable interface the paper calls the
//!   "similarity function", with [`KMeansSimilarity`] as the default
//!   implementation and [`DbscanSimilarity`] as the density-based
//!   alternative.
//!
//! # Example
//!
//! ```
//! use pipetune_clustering::KMeans;
//!
//! let data = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
//!     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
//! ];
//! let model = KMeans::new(2).fit(&data, 42)?;
//! let (c0, _) = model.predict(&data[0]);
//! let (c1, _) = model.predict(&data[3]);
//! assert_ne!(c0, c1);
//! # Ok::<(), pipetune_clustering::ClusteringError>(())
//! ```

mod dbscan;
mod kmeans;
mod silhouette;
mod similarity;

pub use dbscan::{Dbscan, DbscanLabel, DbscanModel};
pub use kmeans::{ClusteringError, KMeans, KMeansModel};
pub use silhouette::select_k;
pub use similarity::{DbscanSimilarity, KMeansSimilarity, Similarity, SimilarityVerdict};
