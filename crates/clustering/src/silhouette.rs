//! Silhouette analysis for choosing `k`.
//!
//! The paper fixes `k = 2` and leaves "extensions to other values of k …
//! for future work" (§5.4). The silhouette coefficient is the standard tool
//! for that choice: for each point, `(b − a) / max(a, b)` where `a` is the
//! mean distance to its own cluster and `b` the mean distance to the nearest
//! other cluster.

use crate::ClusteringError;

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Mean silhouette coefficient of a labelled dataset, in `[-1, 1]`
/// (higher = better-separated clustering).
///
/// Singleton clusters contribute 0 for their point (scikit-learn's
/// convention).
///
/// # Errors
///
/// Returns [`ClusteringError`] when inputs are empty/ragged, label counts
/// disagree, or fewer than two clusters are present.
fn silhouette_score(data: &[Vec<f64>], labels: &[usize]) -> Result<f64, ClusteringError> {
    if data.is_empty() {
        return Err(ClusteringError::TooFewPoints { k: 2, points: 0 });
    }
    if data.len() != labels.len() {
        return Err(ClusteringError::BadDimensions);
    }
    let dim = data[0].len();
    if dim == 0 || data.iter().any(|p| p.len() != dim) {
        return Err(ClusteringError::BadDimensions);
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    if sizes.iter().filter(|&&s| s > 0).count() < 2 {
        return Err(ClusteringError::ZeroK);
    }
    let mut total = 0.0f64;
    for (i, p) in data.iter().enumerate() {
        let own = labels[i];
        if sizes[own] <= 1 {
            continue; // contributes 0
        }
        // Mean distance to every cluster.
        let mut sums = vec![0.0f64; k];
        for (j, q) in data.iter().enumerate() {
            if i != j {
                sums[labels[j]] += dist(p, q);
            }
        }
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    Ok(total / data.len() as f64)
}

/// Fits k-means for every `k` in `candidates` and returns
/// `(k, silhouette)` pairs plus the best `k` — the future-work k-selection
/// loop, ready made.
///
/// # Errors
///
/// Propagates fitting and scoring errors; `candidates` must be non-empty.
pub fn select_k(
    data: &[Vec<f64>],
    candidates: &[usize],
    seed: u64,
) -> Result<(usize, Vec<(usize, f64)>), ClusteringError> {
    if candidates.is_empty() {
        return Err(ClusteringError::ZeroK);
    }
    let mut scores = Vec::with_capacity(candidates.len());
    for &k in candidates {
        let model = crate::KMeans::new(k).fit(data, seed)?;
        let score = silhouette_score(data, model.labels())?;
        scores.push((k, score));
    }
    let best = scores
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|&(k, _)| k)
        .expect("non-empty candidates");
    Ok((best, scores))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(k: usize, per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for i in 0..per {
                data.push(vec![c as f64 * 20.0 + i as f64 * 0.1, 0.0]);
                labels.push(c);
            }
        }
        (data, labels)
    }

    #[test]
    fn well_separated_blobs_score_near_one() {
        let (data, labels) = blobs(2, 8);
        let s = silhouette_score(&data, &labels).unwrap();
        assert!(s > 0.95, "score {s}");
    }

    #[test]
    fn shuffled_labels_score_poorly() {
        let (data, mut labels) = blobs(2, 8);
        let quarter = labels.len() / 4;
        labels.rotate_right(quarter); // wrong assignments
        let s = silhouette_score(&data, &labels).unwrap();
        assert!(s < 0.5, "score {s}");
    }

    #[test]
    fn select_k_recovers_the_true_cluster_count() {
        let (data, _) = blobs(3, 8);
        let (best, scores) = select_k(&data, &[2, 3, 4, 5], 7).unwrap();
        assert_eq!(best, 3, "scores {scores:?}");
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(silhouette_score(&[], &[]).is_err());
        let (data, _) = blobs(1, 4);
        assert!(silhouette_score(&data, &[0, 0, 0, 0]).is_err()); // one cluster
        assert!(silhouette_score(&data, &[0, 1]).is_err()); // length mismatch
        assert!(select_k(&data, &[], 1).is_err());
    }

    #[test]
    fn singleton_clusters_do_not_poison_the_score() {
        let (mut data, mut labels) = blobs(2, 6);
        data.push(vec![1000.0, 1000.0]);
        labels.push(2); // a singleton third cluster
        let s = silhouette_score(&data, &labels).unwrap();
        assert!(s.is_finite() && s > 0.5);
    }
}
