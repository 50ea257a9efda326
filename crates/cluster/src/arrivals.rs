//! Poisson job-arrival process for the multi-tenancy experiments (§7.4):
//! "jobs arrive randomly with the interarrival times being exponentially
//! distributed".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SimTime;

/// Generator of exponentially distributed interarrival times.
///
/// # Example
///
/// ```
/// use pipetune_cluster::PoissonArrivals;
///
/// let mut arrivals = PoissonArrivals::new(0.01, 7); // one job every ~100 s
/// let first = arrivals.next_arrival();
/// assert!(first <= arrivals.next_arrival());
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
    rng: StdRng,
    now: SimTime,
}

impl PoissonArrivals {
    /// Creates a process with mean arrival rate `rate_per_sec` (jobs/second).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(rate_per_sec: f64, seed: u64) -> Self {
        assert!(rate_per_sec.is_finite() && rate_per_sec > 0.0, "arrival rate must be positive");
        PoissonArrivals { rate_per_sec, rng: StdRng::seed_from_u64(seed), now: SimTime::ZERO }
    }

    /// Samples the next absolute arrival time.
    pub fn next_arrival(&mut self) -> SimTime {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = -u.ln() / self.rate_per_sec;
        self.now = self.now.plus(SimTime::from_secs_f64(gap));
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_gap_matches_rate() {
        let mut p = PoissonArrivals::new(0.1, 3); // mean gap 10 s
        let last = (0..2000).map(|_| p.next_arrival()).last().unwrap();
        let mean = last.as_secs_f64() / 2000.0;
        assert!((mean - 10.0).abs() < 1.0, "mean gap {mean}");
    }

    #[test]
    fn arrivals_are_monotone_and_deterministic() {
        let mut a = PoissonArrivals::new(1.0, 9);
        let mut b = PoissonArrivals::new(1.0, 9);
        let ta: Vec<SimTime> = (0..50).map(|_| a.next_arrival()).collect();
        let tb: Vec<SimTime> = (0..50).map(|_| b.next_arrival()).collect();
        assert_eq!(ta, tb);
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        let _ = PoissonArrivals::new(0.0, 1);
    }
}
