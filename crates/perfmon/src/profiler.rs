//! Event-rate model and counter multiplexing.

use rand::Rng;

use crate::events::{position, NUM_EVENTS};

/// Numeric characterisation of one epoch of work, from which every event
/// count is derived. Produced from `pipetune_dnn::ModelSignature` /
/// `pipetune_kernels::KernelSignature` by the middleware crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSignature {
    /// Floating-point operations per epoch.
    pub flops_per_epoch: f64,
    /// Bytes the workload keeps hot.
    pub working_set_bytes: f64,
    /// Bytes of memory traffic per flop.
    pub memory_intensity: f64,
    /// Fraction of instructions that are branches.
    pub branch_ratio: f64,
}

/// One epoch's averaged event counts (the paper stores per-epoch averages to
/// smooth multiplexing error, §5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProfile {
    counts: Vec<f64>,
}

impl EpochProfile {
    /// Wraps raw per-epoch counts (the sampling layer's reconstruction).
    ///
    /// # Panics
    ///
    /// Panics unless exactly [`crate::NUM_EVENTS`] counts are supplied.
    pub(crate) fn from_counts(counts: Vec<f64>) -> Self {
        assert_eq!(counts.len(), NUM_EVENTS, "one count per event");
        EpochProfile { counts }
    }

    /// Raw per-epoch counts, ordered as [`crate::EVENT_NAMES`].
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Count for a named event.
    pub fn get(&self, name: &str) -> Option<f64> {
        crate::event_index(name).map(|i| self.counts[i])
    }

    /// Feature vector used as the clustering input.
    ///
    /// Counts span 8+ orders of magnitude (Fig. 2's legend) and scale with
    /// the *total work* of the configuration being trained, so raw
    /// magnitudes would cluster trials by hyperparameters rather than by
    /// workload family. Instead, every event is expressed as a log-ratio
    /// per instruction — the family fingerprint (miss rates, branchiness,
    /// memory mix) — while two magnitude dimensions are kept:
    /// `log10(instructions)` (total work) and `log10(msr/tsc)` (epoch
    /// duration × cores), which let the ground truth discriminate
    /// working-set and iteration-count differences when picking a
    /// configuration to reuse.
    pub fn features(&self) -> Vec<f64> {
        // The magnitude dimensions carry the configuration-relevant signal
        // (total work, epoch duration) in just two of 58 coordinates; weight
        // them up so they are not drowned by multiplexing noise on the 56
        // ratio dimensions.
        const INSTR_WEIGHT: f64 = 2.0;
        const TSC_WEIGHT: f64 = 3.0;
        const INSTR_IDX: usize = position("instructions");
        const TSC_IDX: usize = position("msr/tsc/");
        let instr = self.counts[INSTR_IDX].max(1.0);
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if i == INSTR_IDX {
                    INSTR_WEIGHT * (1.0 + c.max(0.0)).log10()
                } else if i == TSC_IDX {
                    TSC_WEIGHT * (1.0 + c.max(0.0)).log10()
                } else {
                    ((c.max(0.0) + 1.0) / instr).log10()
                }
            })
            .collect()
    }
}

/// The simulated PMU.
///
/// Intel E3-class CPUs expose 3 fixed counters (instructions, cycles,
/// ref/bus cycles) and 2 generic counters; with 58 requested events the
/// kernel time-multiplexes the generic ones and scales the counts
/// (`final = raw × enabled/running`), which this model reproduces including
/// the resulting estimation noise and occasional blind spots (§5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profiler {
    /// Generic (multiplexed) hardware counters available.
    pub generic_counters: usize,
    /// Relative noise applied to a fully-measured event.
    pub base_noise: f64,
    /// Extra relative noise at zero measurement coverage.
    pub multiplex_noise: f64,
    /// Probability that a multiplexed event hits a blind spot in an epoch
    /// (burst missed entirely → larger scaling error).
    pub blind_spot_prob: f64,
    /// Nominal core frequency, Hz (drives `msr/tsc`).
    pub freq_hz: f64,
    /// Last-level cache size, bytes (drives miss ratios).
    pub llc_bytes: f64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            generic_counters: 2,
            base_noise: 0.01,
            multiplex_noise: 0.08,
            blind_spot_prob: 0.02,
            freq_hz: 3.5e9,
            llc_bytes: 20e6,
        }
    }
}

/// Indices of the events served by fixed counters — measured at full
/// coverage — in the order the sampling scheduler reads them.
pub(crate) const FIXED_EVENTS: [usize; 6] = [
    position("instructions"),
    position("cpu-cycles"),
    position("bus-cycles"),
    position("cpu/instructions/"),
    position("cpu/cpu-cycles/"),
    position("cpu/bus-cycles/"),
];

/// Whether each event, by index, is one of [`FIXED_EVENTS`].
const IS_FIXED: [bool; NUM_EVENTS] = {
    let mut fixed = [false; NUM_EVENTS];
    let mut i = 0;
    while i < FIXED_EVENTS.len() {
        fixed[FIXED_EVENTS[i]] = true;
        i += 1;
    }
    fixed
};

/// The count array from one `"event" => count` row per event. The rows
/// must be spelled in [`crate::EVENT_NAMES`] order — checked when the crate
/// is built — so row *i* is event *i* and no name is looked up at run time.
macro_rules! counts_by_event {
    ($($name:literal => $count:expr,)+) => {{
        const ROWS: [&str; NUM_EVENTS] = [$($name),+];
        const _: () = {
            let mut i = 0;
            while i < NUM_EVENTS {
                assert!(position(ROWS[i]) == i, "rows must follow EVENT_NAMES");
                i += 1;
            }
        };
        [$($count),+]
    }};
}

impl Profiler {
    /// True (noise-free) per-epoch counts implied by a signature: the
    /// model, before measurement noise and multiplexing error.
    pub(crate) fn true_counts(
        &self,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
    ) -> [f64; NUM_EVENTS] {
        let flops = sig.flops_per_epoch.max(0.0);
        let mi = sig.memory_intensity.max(0.0);
        let br = sig.branch_ratio.clamp(0.0, 1.0);
        let ws = sig.working_set_bytes.max(0.0);

        let instr = flops * 1.3 + 1e6;
        let ipc = 2.2 / (1.0 + 0.8 * mi);
        let cycles = instr / ipc;
        let branches = instr * br;
        let branch_misses = branches * (0.01 + 0.05 * br);
        let l1_loads = instr * (0.25 + 0.30 * mi);
        let l1_stores = l1_loads * 0.4;
        // L1 miss ratio saturates with working-set growth past 32 KiB.
        let l1_span = ((1.0 + ws / 32e3).ln() / (1.0f64 + 1e6).ln()).min(1.0);
        let l1_load_misses = l1_loads * (0.02 + 0.06 * l1_span);
        let l1_icache_misses = instr * 0.0005;
        let llc_loads = l1_load_misses * 0.5;
        let llc_stores = l1_stores * 0.01;
        let llc_miss_ratio = (ws / self.llc_bytes).clamp(0.02, 0.9);
        let llc_load_misses = llc_loads * llc_miss_ratio;
        let llc_store_misses = llc_stores * llc_miss_ratio;
        let dtlb_loads = l1_loads;
        let tlb_span = ((1.0 + ws / 2e6).ln() / (1.0f64 + 1e5).ln()).min(1.0);
        let dtlb_load_misses = dtlb_loads * 0.0002 * (1.0 + 20.0 * tlb_span);
        let dtlb_stores = l1_stores;
        let dtlb_store_misses = dtlb_stores * 0.0001 * (1.0 + 20.0 * tlb_span);
        let itlb_loads = instr * 0.02;
        let itlb_misses = itlb_loads * 0.0005;
        let cache_references = llc_loads + llc_stores;
        let cache_misses = llc_load_misses + llc_store_misses;
        let bus_cycles = cycles * 0.03;
        let total_slots = cycles * 4.0;
        let slots_issued = instr * 1.15;
        let slots_retired = instr;
        let fetch_bubbles = total_slots * 0.05 * (1.0 + mi);
        let recovery_bubbles = branch_misses * 20.0;
        let numa_fraction = if cores > 8 { 0.30 } else { 0.05 };
        let node_loads = llc_load_misses * numa_fraction;
        let node_load_misses = node_loads * 0.3;
        let node_stores = llc_store_misses * numa_fraction;
        let node_store_misses = node_stores * 0.3;
        // One reference clock: TSC ticks measure wall duration of the epoch.
        let tsc = self.freq_hz * epoch_secs.max(0.0);

        counts_by_event! {
            "L1-dcache-load-misses" => l1_load_misses,
            "L1-dcache-loads" => l1_loads,
            "L1-dcache-stores" => l1_stores,
            "L1-icache-load-misses" => l1_icache_misses,
            "LLC-load-misses" => llc_load_misses,
            "LLC-loads" => llc_loads,
            "LLC-store-misses" => llc_store_misses,
            "LLC-stores" => llc_stores,
            "branch-load-misses" => branch_misses * 0.8,
            "branch-loads" => branches * 0.9,
            "branch-misses" => branch_misses,
            "branches" => branches,
            "bus-cycles" => bus_cycles,
            "cache-misses" => cache_misses,
            "cache-references" => cache_references,
            "cpu-cycles" => cycles,
            "cpu/branch-instructions/" => branches,
            "cpu/branch-misses/" => branch_misses,
            "cpu/bus-cycles/" => bus_cycles,
            "cpu/cache-misses/" => cache_misses,
            "cpu/cache-references/" => cache_references,
            "cpu/cpu-cycles/" => cycles,
            "cpu/cycles-ct/" => cycles * 0.001,
            "cpu/cycles-t/" => cycles * 0.001,
            "cpu/el-abort/" => 10.0,
            "cpu/el-capacity/" => 10.0,
            "cpu/el-commit/" => 10.0,
            "cpu/el-conflict/" => 10.0,
            "cpu/el-start/" => 20.0,
            "cpu/instructions/" => instr,
            "cpu/mem-loads/" => l1_loads * 0.001,
            "cpu/mem-stores/" => l1_stores * 0.001,
            "cpu/topdown-fetch-bubbles/" => fetch_bubbles,
            "cpu/topdown-recovery-bubbles/" => recovery_bubbles,
            "cpu/topdown-slots-issued/" => slots_issued,
            "cpu/topdown-slots-retired/" => slots_retired,
            "cpu/topdown-total-slots/" => total_slots,
            "cpu/tx-abort/" => 5.0,
            "cpu/tx-capacity/" => 5.0,
            "cpu/tx-commit/" => 5.0,
            "cpu/tx-conflict/" => 5.0,
            "cpu/tx-start/" => 10.0,
            "dTLB-load-misses" => dtlb_load_misses,
            "dTLB-loads" => dtlb_loads,
            "dTLB-store-misses" => dtlb_store_misses,
            "dTLB-stores" => dtlb_stores,
            "iTLB-load-misses" => itlb_misses,
            "iTLB-loads" => itlb_loads,
            "instructions" => instr,
            "msr/aperf/" => cycles,
            "msr/mperf/" => cycles * 0.98,
            "msr/pperf/" => instr * 0.95,
            "msr/smi/" => 0.0,
            "msr/tsc/" => tsc,
            "node-load-misses" => node_load_misses,
            "node-loads" => node_loads,
            "node-store-misses" => node_store_misses,
            "node-stores" => node_stores,
        }
    }

    /// Profiles one epoch: true counts plus multiplexing/scaling noise.
    ///
    /// `final = raw × time_enabled / time_running` recovers the expected
    /// value, but the variance grows as measurement coverage shrinks; blind
    /// spots (bursts entirely missed) occasionally skew a count further.
    pub fn profile_epoch<R: Rng>(
        &self,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
        rng: &mut R,
    ) -> EpochProfile {
        let truth = self.true_counts(sig, cores, epoch_secs);
        let n_multiplexed = NUM_EVENTS - FIXED_EVENTS.len();
        let coverage = (self.generic_counters as f64 / n_multiplexed as f64).clamp(0.0, 1.0);
        let counts = truth
            .iter()
            .zip(IS_FIXED)
            .map(|(&t, fixed)| {
                let sigma = if fixed {
                    self.base_noise
                } else {
                    self.base_noise + self.multiplex_noise * (1.0 - coverage).sqrt()
                };
                // Two-uniform approximation of Gaussian multiplicative noise.
                let g = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
                let mut v = t * (1.0 + sigma * g * 1.7);
                if !fixed && rng.gen::<f64>() < self.blind_spot_prob {
                    // Burst missed: scaling extrapolates from a quiet window.
                    v *= rng.gen_range(0.6..1.4);
                }
                v.max(0.0)
            })
            .collect();
        EpochProfile { counts }
    }

    /// Fallible variant of [`Profiler::profile_epoch`] for environments
    /// with injected counter faults. When `counter_fault` is set the read
    /// fails with [`crate::PerfmonError::CounterRead`] *without consuming any RNG
    /// draws*, so a caller that retries next epoch sees the same noise
    /// stream it would have seen profiling that epoch directly.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PerfmonError::CounterRead`] when `counter_fault` is set.
    pub fn try_profile_epoch<R: Rng>(
        &self,
        sig: &WorkloadSignature,
        cores: u32,
        epoch_secs: f64,
        rng: &mut R,
        epoch: u32,
        counter_fault: bool,
    ) -> Result<EpochProfile, crate::PerfmonError> {
        if counter_fault {
            return Err(crate::PerfmonError::CounterRead { epoch });
        }
        Ok(self.profile_epoch(sig, cores, epoch_secs, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cnn_sig() -> WorkloadSignature {
        WorkloadSignature {
            flops_per_epoch: 1e10,
            working_set_bytes: 3e8,
            memory_intensity: 1.2,
            branch_ratio: 0.12,
        }
    }

    fn lstm_sig() -> WorkloadSignature {
        WorkloadSignature {
            flops_per_epoch: 4e10,
            working_set_bytes: 6e8,
            memory_intensity: 0.9,
            branch_ratio: 0.16,
        }
    }

    #[test]
    fn try_profile_fault_fails_without_consuming_rng() {
        let p = Profiler::default();
        let sig = cnn_sig();
        let mut rng_a = StdRng::seed_from_u64(9);
        let err = p.try_profile_epoch(&sig, 8, 60.0, &mut rng_a, 3, true).expect_err("fault");
        assert_eq!(err, crate::PerfmonError::CounterRead { epoch: 3 });
        // The failed read consumed nothing: the retry sees the same noise
        // stream a fresh profiler call would.
        let retry = p.try_profile_epoch(&sig, 8, 60.0, &mut rng_a, 4, false).unwrap();
        let mut rng_b = StdRng::seed_from_u64(9);
        assert_eq!(retry, p.profile_epoch(&sig, 8, 60.0, &mut rng_b));
    }

    #[test]
    fn profiles_repeat_across_epochs_fig2() {
        // Fig. 2's observation: events repeat with the same occurrence every
        // epoch. Relative spread across epochs should be small.
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(1);
        let profiles: Vec<EpochProfile> =
            (0..10).map(|_| p.profile_epoch(&cnn_sig(), 16, 120.0, &mut rng)).collect();
        let idx = crate::event_index("L1-dcache-loads").unwrap();
        let vals: Vec<f64> = profiles.iter().map(|pr| pr.counts()[idx]).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let sd =
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt();
        assert!(sd / mean < 0.20, "relative spread {}", sd / mean);
    }

    #[test]
    fn different_workloads_are_distinguishable() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(2);
        let a1 = p.profile_epoch(&cnn_sig(), 16, 120.0, &mut rng);
        let a2 = p.profile_epoch(&cnn_sig(), 16, 120.0, &mut rng);
        let b = p.profile_epoch(&lstm_sig(), 16, 120.0, &mut rng);
        let distance = |x: &EpochProfile, y: &EpochProfile| {
            let (fx, fy) = (x.features(), y.features());
            fx.iter().zip(&fy).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
        };
        let (inter, intra) = (distance(&a1, &b), distance(&a1, &a2));
        assert!(inter > 3.0 * intra, "inter {inter} should dwarf intra {intra}");
    }

    #[test]
    fn fixed_counters_are_nearly_exact() {
        let p = Profiler::default();
        let truth = p.true_counts(&cnn_sig(), 8, 60.0);
        let mut rng = StdRng::seed_from_u64(3);
        let prof = p.profile_epoch(&cnn_sig(), 8, 60.0, &mut rng);
        let i = crate::event_index("instructions").unwrap();
        let rel = (prof.counts()[i] - truth[i]).abs() / truth[i];
        assert!(rel < 0.05, "instructions error {rel}");
    }

    #[test]
    fn counts_are_never_negative_and_consistent() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(4);
        let prof = p.profile_epoch(&lstm_sig(), 4, 10.0, &mut rng);
        assert!(prof.counts().iter().all(|&c| c >= 0.0));
        // Derived sanity: misses never exceed accesses (true counts).
        let t = p.true_counts(&lstm_sig(), 4, 10.0);
        let loads = t[crate::event_index("L1-dcache-loads").unwrap()];
        let misses = t[crate::event_index("L1-dcache-load-misses").unwrap()];
        assert!(misses < loads);
        let br = t[crate::event_index("branches").unwrap()];
        let brm = t[crate::event_index("branch-misses").unwrap()];
        assert!(brm < br);
    }

    #[test]
    fn features_are_finite_ratios() {
        let p = Profiler::default();
        let mut rng = StdRng::seed_from_u64(5);
        let prof = p.profile_epoch(&cnn_sig(), 8, 60.0, &mut rng);
        let f = prof.features();
        assert_eq!(f.len(), NUM_EVENTS);
        assert!(f.iter().all(|v: &f64| v.is_finite()));
    }

    #[test]
    fn tsc_measures_wall_duration() {
        let p = Profiler::default();
        let t1 = p.true_counts(&cnn_sig(), 4, 10.0);
        let t2 = p.true_counts(&cnn_sig(), 8, 20.0);
        let i = crate::event_index("msr/tsc/").unwrap();
        // One reference clock: doubling duration doubles TSC; cores don't.
        assert!((t2[i] / t1[i] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn numa_traffic_appears_beyond_one_socket() {
        let p = Profiler::default();
        let small = p.true_counts(&cnn_sig(), 8, 60.0);
        let big = p.true_counts(&cnn_sig(), 16, 60.0);
        let i = crate::event_index("node-loads").unwrap();
        assert!(big[i] > small[i] * 3.0);
    }
}
