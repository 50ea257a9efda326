//! DBSCAN density-based clustering.
//!
//! The paper's ground-truth module sits on scikit-learn and "the exhaustive
//! list of supported models are then inherited by PipeTune and could be
//! easily used as alternative similarity functions", naming DBSCAN among
//! them (§5.4). This is that alternative, from scratch.

use crate::ClusteringError;

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Point classification produced by [`Dbscan::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Member of the given cluster (0-based).
    Cluster(usize),
    /// Density noise: fewer than `min_points` neighbours and not reachable
    /// from any core point.
    Noise,
}

impl DbscanLabel {
    /// The cluster id, if any.
    pub fn cluster(&self) -> Option<usize> {
        match self {
            DbscanLabel::Cluster(c) => Some(*c),
            DbscanLabel::Noise => None,
        }
    }
}

/// DBSCAN configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dbscan {
    /// Neighbourhood radius (Euclidean).
    pub eps: f64,
    /// Minimum neighbours (including self) for a core point.
    pub min_points: usize,
}

impl Dbscan {
    /// Creates a configuration.
    pub fn new(eps: f64, min_points: usize) -> Self {
        Dbscan { eps, min_points: min_points.max(1) }
    }

    /// Runs DBSCAN over `data`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusteringError::BadDimensions`] on inconsistent or
    /// zero-dimensional points and [`ClusteringError::TooFewPoints`] on an
    /// empty dataset.
    pub fn fit(&self, data: &[Vec<f64>]) -> Result<DbscanModel, ClusteringError> {
        if data.is_empty() {
            return Err(ClusteringError::TooFewPoints { k: 1, points: 0 });
        }
        let dim = data[0].len();
        if dim == 0 || data.iter().any(|p| p.len() != dim) {
            return Err(ClusteringError::BadDimensions);
        }
        let eps_sq = self.eps * self.eps;
        let n = data.len();
        // Neighbour lists (O(n²); profile datasets are hundreds of points).
        let neighbours: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|&j| sq_dist(&data[i], &data[j]) <= eps_sq).collect())
            .collect();
        let core: Vec<bool> = neighbours.iter().map(|nb| nb.len() >= self.min_points).collect();

        let mut labels = vec![None::<DbscanLabel>; n];
        let mut next_cluster = 0usize;
        for i in 0..n {
            if labels[i].is_some() || !core[i] {
                continue;
            }
            // Grow a new cluster from this unvisited core point.
            let cluster = next_cluster;
            next_cluster += 1;
            let mut stack = vec![i];
            labels[i] = Some(DbscanLabel::Cluster(cluster));
            while let Some(p) = stack.pop() {
                if !core[p] {
                    continue;
                }
                for &q in &neighbours[p] {
                    match labels[q] {
                        None | Some(DbscanLabel::Noise) => {
                            let was_noise = labels[q] == Some(DbscanLabel::Noise);
                            labels[q] = Some(DbscanLabel::Cluster(cluster));
                            if !was_noise {
                                stack.push(q);
                            }
                        }
                        Some(DbscanLabel::Cluster(_)) => {}
                    }
                }
            }
        }
        let labels: Vec<DbscanLabel> =
            labels.into_iter().map(|l| l.unwrap_or(DbscanLabel::Noise)).collect();
        Ok(DbscanModel {
            points: data.to_vec(),
            labels,
            core,
            eps: self.eps,
            num_clusters: next_cluster,
        })
    }
}

/// A fitted DBSCAN model.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanModel {
    points: Vec<Vec<f64>>,
    labels: Vec<DbscanLabel>,
    core: Vec<bool>,
    eps: f64,
    num_clusters: usize,
}

impl DbscanModel {
    /// Per-point labels, in input order.
    pub fn labels(&self) -> &[DbscanLabel] {
        &self.labels
    }

    /// Number of clusters discovered.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Classifies a new point: the cluster of the nearest *core* point if it
    /// lies within `eps`, otherwise noise. Returns the squared distance to
    /// that nearest core point alongside.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch with the training data.
    pub fn predict(&self, point: &[f64]) -> (DbscanLabel, f64) {
        assert_eq!(point.len(), self.points[0].len(), "dimension mismatch");
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in self.points.iter().enumerate() {
            if !self.core[i] {
                continue;
            }
            let d = sq_dist(p, point);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, d)) if d <= self.eps * self.eps => (self.labels[i], d),
            Some((_, d)) => (DbscanLabel::Noise, d),
            None => (DbscanLabel::Noise, f64::INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for i in 0..10 {
            let j = f64::from(i) * 0.05;
            data.push(vec![0.0 + j, 0.0]);
            data.push(vec![10.0 + j, 10.0]);
        }
        data.push(vec![100.0, -50.0]); // an outlier
        data
    }

    fn count_noise(model: &DbscanModel) -> usize {
        model.labels().iter().filter(|l| **l == DbscanLabel::Noise).count()
    }

    #[test]
    fn finds_two_clusters_and_flags_noise() {
        let model = Dbscan::new(1.0, 3).fit(&blobs()).unwrap();
        assert_eq!(model.num_clusters(), 2);
        assert_eq!(count_noise(&model), 1);
        assert_eq!(model.labels().last().unwrap().cluster(), None);
    }

    #[test]
    fn members_of_one_blob_share_a_label() {
        let model = Dbscan::new(1.0, 3).fit(&blobs()).unwrap();
        let first = model.labels()[0];
        assert!(model.labels().iter().step_by(2).take(10).all(|l| *l == first));
    }

    #[test]
    fn predict_assigns_nearby_points_and_rejects_far_ones() {
        let model = Dbscan::new(1.0, 3).fit(&blobs()).unwrap();
        let (l, d) = model.predict(&[0.2, 0.1]);
        assert!(l.cluster().is_some());
        assert!(d < 1.0);
        let (l, _) = model.predict(&[50.0, 50.0]);
        assert_eq!(l, DbscanLabel::Noise);
    }

    #[test]
    fn tiny_eps_makes_everything_noise() {
        let model = Dbscan::new(1e-6, 3).fit(&blobs()).unwrap();
        assert_eq!(model.num_clusters(), 0);
        assert_eq!(count_noise(&model), blobs().len());
    }

    #[test]
    fn huge_eps_makes_one_cluster() {
        let model = Dbscan::new(1e6, 2).fit(&blobs()).unwrap();
        assert_eq!(model.num_clusters(), 1);
        assert_eq!(count_noise(&model), 0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(Dbscan::new(1.0, 2).fit(&[]), Err(ClusteringError::TooFewPoints { .. })));
        assert!(matches!(
            Dbscan::new(1.0, 2).fit(&[vec![1.0], vec![1.0, 2.0]]),
            Err(ClusteringError::BadDimensions)
        ));
    }

    #[test]
    fn border_points_join_a_cluster_not_noise() {
        // A chain: core points in the middle, a border point at the end.
        let data = vec![
            vec![0.0],
            vec![0.5],
            vec![1.0],
            vec![1.5],
            vec![2.4], // border: within eps of 1.5 but only 2 neighbours
        ];
        let model = Dbscan::new(0.9, 3).fit(&data).unwrap();
        assert_eq!(model.num_clusters(), 1);
        assert!(model.labels()[4].cluster().is_some(), "border point should join");
    }
}
