//! Per-second sampling and the multiplexing schedule.
//!
//! The paper's prototype "measures the events of interest every second" and
//! "stores the average of results during each epoch's time window" (§5.3).
//! [`Profiler::profile_epoch`] produces that final average directly; this
//! module exposes the layer underneath — the 1 Hz sample stream and the
//! round-robin counter-multiplexing schedule — so the sampling pipeline
//! itself can be inspected, tested and ablated (blind spots included).

use rand::Rng;

use crate::events::NUM_EVENTS;
use crate::{EpochProfile, Profiler, WorkloadSignature};

/// Which events a counter window measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleWindow {
    /// Event indices measured during this window (fixed counters plus the
    /// generic counters' current round-robin slice).
    pub measured: Vec<usize>,
    /// Raw counts for the measured events over this window.
    pub raw: Vec<f64>,
}

/// A full epoch's 1 Hz sample trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleTrace {
    windows: Vec<SampleWindow>,
}

impl SampleTrace {
    /// The sampled windows, in time order.
    pub fn windows(&self) -> &[SampleWindow] {
        &self.windows
    }

    /// Fraction of the epoch each event was actually measured
    /// (`time_running / time_enabled` in perf terms).
    pub fn coverage(&self) -> Vec<f64> {
        let mut measured = vec![0usize; NUM_EVENTS];
        for w in &self.windows {
            for &e in &w.measured {
                measured[e] += 1;
            }
        }
        let n = self.windows.len().max(1);
        measured.iter().map(|&m| m as f64 / n as f64).collect()
    }

    /// Reconstructs per-epoch counts with the kernel's multiplexing scaling:
    /// `final = raw × time_enabled / time_running`. Events never measured
    /// come out as zero — a true blind spot.
    pub fn scale_to_epoch(&self) -> EpochProfile {
        let mut raw_sum = vec![0.0f64; NUM_EVENTS];
        let mut seen = vec![0usize; NUM_EVENTS];
        for w in &self.windows {
            for (&e, &r) in w.measured.iter().zip(&w.raw) {
                raw_sum[e] += r;
                seen[e] += 1;
            }
        }
        let n = self.windows.len().max(1);
        let counts: Vec<f64> = raw_sum
            .iter()
            .zip(&seen)
            .map(|(&sum, &s)| if s == 0 { 0.0 } else { sum * (n as f64 / s as f64) })
            .collect();
        EpochProfile::from_counts(counts)
    }
}

impl Profiler {
    /// Samples one epoch at 1 Hz with round-robin multiplexing of the
    /// generic counters (fixed counters measure every window).
    ///
    /// Short epochs produce few windows, so some events may never be
    /// scheduled — the §5.3 blind-spot risk that Type-III workloads stress.
    pub fn sample_epoch<R: Rng>(
        &self,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
        rng: &mut R,
    ) -> SampleTrace {
        let truth = self.true_counts(sig, cores, epoch_secs);
        let n_windows = (epoch_secs.max(1.0).floor() as usize).max(1);
        let fixed = crate::profiler::FIXED_EVENTS;
        let generic: Vec<usize> = (0..NUM_EVENTS).filter(|i| !fixed.contains(i)).collect();
        let per_window = self.generic_counters.max(1);
        let mut windows = Vec::with_capacity(n_windows);
        let mut cursor = 0usize;
        for _ in 0..n_windows {
            let mut measured = fixed.to_vec();
            for _ in 0..per_window {
                measured.push(generic[cursor % generic.len()]);
                cursor += 1;
            }
            let raw = measured
                .iter()
                .map(|&e| {
                    // Per-window share of the epoch total, with burst noise.
                    let g = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
                    (truth[e] / n_windows as f64 * (1.0 + 0.1 * g * 1.7)).max(0.0)
                })
                .collect();
            windows.push(SampleWindow { measured, raw });
        }
        SampleTrace { windows }
    }

    /// Fallible variant of [`Profiler::sample_epoch`] mirroring
    /// [`Profiler::try_profile_epoch`]: an injected counter fault aborts the
    /// whole 1 Hz trace (the perf session died mid-epoch) without consuming
    /// RNG draws.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PerfmonError::CounterRead`] when `counter_fault` is
    /// set.
    pub fn try_sample_epoch<R: Rng>(
        &self,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
        rng: &mut R,
        epoch: u32,
        counter_fault: bool,
    ) -> Result<SampleTrace, crate::PerfmonError> {
        if counter_fault {
            return Err(crate::PerfmonError::CounterRead { epoch });
        }
        Ok(self.sample_epoch(sig, cores, epoch_secs, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sig() -> WorkloadSignature {
        WorkloadSignature {
            flops_per_epoch: 1e10,
            working_set_bytes: 3e8,
            memory_intensity: 0.8,
            branch_ratio: 0.1,
        }
    }

    #[test]
    fn long_epochs_cover_every_event() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(1);
        // 58 events, 6 fixed, 2 generic per second → 26 s covers the rest.
        let trace = p.sample_epoch(&sig(), 8, 120.0, &mut rng);
        assert_eq!(trace.windows().len(), 120);
        assert!(trace.coverage().iter().all(|&c| c > 0.0), "everything measured at least once");
    }

    #[test]
    fn short_epochs_leave_blind_spots() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(2);
        // 3 windows × 2 generic counters = 6 of 52 generic events measured.
        let trace = p.sample_epoch(&sig(), 8, 3.0, &mut rng);
        let blind = trace.coverage().iter().filter(|&&c| c == 0.0).count();
        assert!(blind > 30, "short epochs must miss most events, missed {blind}");
    }

    #[test]
    fn scaling_recovers_the_expected_magnitude() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(3);
        let trace = p.sample_epoch(&sig(), 8, 120.0, &mut rng);
        let scaled = trace.scale_to_epoch();
        let truth = p.true_counts(&sig(), 8, 120.0);
        let i = crate::event_index("L1-dcache-loads").unwrap();
        let rel = (scaled.counts()[i] - truth[i]).abs() / truth[i];
        assert!(rel < 0.25, "scaled estimate off by {rel}");
    }

    #[test]
    fn fixed_counters_measure_every_window() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(4);
        let trace = p.sample_epoch(&sig(), 8, 10.0, &mut rng);
        let i = crate::event_index("instructions").unwrap();
        assert!(trace.windows().iter().all(|w| w.measured.contains(&i)));
        assert_eq!(trace.coverage()[i], 1.0);
    }

    #[test]
    fn scaled_profile_features_are_usable() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(5);
        let trace = p.sample_epoch(&sig(), 8, 60.0, &mut rng);
        let f = trace.scale_to_epoch().features();
        assert_eq!(f.len(), NUM_EVENTS);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
