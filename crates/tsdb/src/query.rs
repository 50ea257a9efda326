//! Query descriptors and aggregation functions.

use crate::Point;

/// Aggregation functions over a field (Influx's basic selectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Arithmetic mean.
    Mean,
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Number of matching points carrying the field.
    Count,
    /// Median (50th percentile, nearest-rank).
    P50,
    /// 95th percentile (nearest-rank).
    P95,
    /// 99th percentile (nearest-rank).
    P99,
}

impl Aggregate {
    /// Applies the aggregate to a value list. Returns `None` on empty input.
    ///
    /// ```
    /// use pipetune_tsdb::Aggregate;
    ///
    /// assert_eq!(Aggregate::P50.apply(&[30.0, 10.0, 20.0]), Some(20.0));
    /// assert_eq!(Aggregate::P99.apply(&[30.0, 10.0, 20.0]), Some(30.0));
    /// assert_eq!(Aggregate::Max.apply(&[]), None);
    /// ```
    pub fn apply(&self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        Some(match self {
            Aggregate::Mean => values.iter().sum::<f64>() / values.len() as f64,
            Aggregate::Sum => values.iter().sum(),
            Aggregate::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregate::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregate::Count => values.len() as f64,
            Aggregate::P50 => percentile(values, 0.50),
            Aggregate::P95 => percentile(values, 0.95),
            Aggregate::P99 => percentile(values, 0.99),
        })
    }
}

/// Nearest-rank percentile: the smallest value such that at least `q` of the
/// sample is ≤ it. Exact for small samples (the Influx convention), so a P99
/// over 10 points is the maximum rather than an extrapolation.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// A query: measurement, optional tag equality filters, optional start time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Query {
    measurement: String,
    tag_filters: Vec<(String, String)>,
    time_from_us: Option<u64>,
}

impl Query {
    /// Queries every point of `measurement`.
    pub fn measurement(name: impl Into<String>) -> Self {
        Query { measurement: name.into(), ..Query::default() }
    }

    /// Restricts to points whose tag `key` equals `value`.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tag_filters.push((key.into(), value.into()));
        self
    }

    /// Restricts to points with `timestamp ≥ from_us`.
    pub fn from_us(mut self, from_us: u64) -> Self {
        self.time_from_us = Some(from_us);
        self
    }

    /// Returns `true` when `point` satisfies every predicate.
    pub fn matches(&self, point: &Point) -> bool {
        if point.measurement() != self.measurement {
            return false;
        }
        if let Some(from) = self.time_from_us {
            if point.timestamp_us() < from {
                return false;
            }
        }
        self.tag_filters.iter().all(|(k, v)| point.tag_value(k) == Some(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(ts: u64, tag: &str) -> Point {
        Point::new("m", ts).tag("w", tag).field("x", 1.0)
    }

    #[test]
    fn tag_and_time_filters_compose() {
        let q = Query::measurement("m").with_tag("w", "a").from_us(10);
        assert!(q.matches(&point(10, "a")));
        assert!(!q.matches(&point(9, "a"))); // inclusive lower bound
        assert!(!q.matches(&point(15, "b")));
        assert!(!q.matches(&Point::new("other", 15).tag("w", "a").field("x", 1.0)));
    }

    #[test]
    fn aggregates_compute_expected_values() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(Aggregate::Mean.apply(&v), Some(2.5));
        assert_eq!(Aggregate::Sum.apply(&v), Some(10.0));
        assert_eq!(Aggregate::Min.apply(&v), Some(1.0));
        assert_eq!(Aggregate::Max.apply(&v), Some(4.0));
        assert_eq!(Aggregate::Count.apply(&v), Some(4.0));
        assert_eq!(Aggregate::Mean.apply(&[]), None);
    }

    #[test]
    fn percentiles_use_nearest_rank_on_known_distributions() {
        // 1..=100 shuffled: nearest-rank percentiles are exact members.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(Aggregate::P50.apply(&v), Some(50.0));
        assert_eq!(Aggregate::P95.apply(&v), Some(95.0));
        assert_eq!(Aggregate::P99.apply(&v), Some(99.0));

        // Small samples: ranks clamp into the sample rather than interpolate.
        let small = [10.0, 30.0, 20.0];
        assert_eq!(Aggregate::P50.apply(&small), Some(20.0));
        assert_eq!(Aggregate::P95.apply(&small), Some(30.0));
        assert_eq!(Aggregate::P99.apply(&small), Some(30.0));

        // Singleton and empty edge cases.
        assert_eq!(Aggregate::P50.apply(&[7.0]), Some(7.0));
        assert_eq!(Aggregate::P99.apply(&[7.0]), Some(7.0));
        assert_eq!(Aggregate::P95.apply(&[]), None);

        // Skewed distribution: tail percentiles pick out the outlier.
        let skew = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1000.0];
        assert_eq!(Aggregate::P50.apply(&skew), Some(1.0));
        assert_eq!(Aggregate::P95.apply(&skew), Some(1000.0));
    }
}
