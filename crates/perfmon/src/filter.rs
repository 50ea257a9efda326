//! Correlated-event filtering.
//!
//! §5.3: "we filter out highly correlated as well as unsupported events" —
//! with only 2 generic counters, every multiplexed event costs coverage, so
//! events carrying duplicate information should not be scheduled at all.
//! This module computes pairwise Pearson correlations over a set of profiles
//! and greedily keeps a maximal subset with no pair above a threshold.

use crate::EpochProfile;

/// Pearson correlation of two equal-length series; 0 for degenerate input.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let mean = |s: &[f64]| s.iter().take(n).sum::<f64>() / n as f64;
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let (da, db) = (a[i] - ma, b[i] - mb);
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Greedily selects event indices whose pairwise |correlation| across
/// `profiles` stays at or below `threshold`. Events are considered in index
/// order, so the stable `EVENT_NAMES` ordering decides ties (matching the
/// deterministic filtering a real deployment would pin down once).
///
/// Returns the retained indices; constant (zero-variance) events are kept —
/// they are uncorrelated by definition and cost nothing to model.
pub fn decorrelated_events(profiles: &[EpochProfile], threshold: f64) -> Vec<usize> {
    if profiles.is_empty() {
        return (0..crate::NUM_EVENTS).collect();
    }
    let n_events = crate::NUM_EVENTS;
    // Column-major series per event.
    let series: Vec<Vec<f64>> =
        (0..n_events).map(|e| profiles.iter().map(|p| p.counts()[e]).collect()).collect();
    let mut kept: Vec<usize> = Vec::new();
    for e in 0..n_events {
        let ok = kept.iter().all(|&k| pearson(&series[e], &series[k]).abs() <= threshold);
        if ok {
            kept.push(e);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Profiler, WorkloadSignature};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pearson_matches_known_cases() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &down) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn filter_drops_the_duplicated_perf_aliases() {
        // Profiles across varied signatures: `cpu/instructions/` duplicates
        // `instructions` exactly (same counter), so one of the pair must go.
        let profiler = Profiler {
            base_noise: 0.0,
            multiplex_noise: 0.0,
            blind_spot_prob: 0.0,
            ..Profiler::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let profiles: Vec<EpochProfile> = (1..12)
            .map(|i| {
                let sig = WorkloadSignature {
                    flops_per_epoch: 1e10 * f64::from(i),
                    working_set_bytes: 1e8 * f64::from(i % 4 + 1),
                    memory_intensity: 0.3 + 0.2 * f64::from(i % 3),
                    branch_ratio: 0.05 + 0.02 * f64::from(i % 5),
                };
                profiler.profile_epoch(&sig, 8, 60.0, &mut rng)
            })
            .collect();
        let kept = decorrelated_events(&profiles, 0.999);
        let instr = crate::event_index("instructions").unwrap();
        let alias = crate::event_index("cpu/instructions/").unwrap();
        assert!(
            !(kept.contains(&instr) && kept.contains(&alias)),
            "exact aliases must not both survive"
        );
        assert!(!kept.is_empty());
        assert!(kept.len() < crate::NUM_EVENTS, "something must be filtered");
    }

    #[test]
    fn zero_threshold_keeps_only_uncorrelated_events() {
        let profiler = Profiler::default();
        let mut rng = StdRng::seed_from_u64(2);
        let profiles: Vec<EpochProfile> = (1..8)
            .map(|i| {
                let sig = WorkloadSignature {
                    flops_per_epoch: 1e10 * f64::from(i),
                    working_set_bytes: 3e8,
                    memory_intensity: 0.5,
                    branch_ratio: 0.1,
                };
                profiler.profile_epoch(&sig, 8, 60.0, &mut rng)
            })
            .collect();
        let strict = decorrelated_events(&profiles, 0.0);
        let loose = decorrelated_events(&profiles, 1.0);
        assert!(strict.len() <= loose.len());
        assert_eq!(loose.len(), crate::NUM_EVENTS);
    }

    #[test]
    fn empty_history_keeps_everything() {
        assert_eq!(decorrelated_events(&[], 0.5).len(), crate::NUM_EVENTS);
    }
}
