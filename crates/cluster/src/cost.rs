//! Epoch-duration cost model.
//!
//! Encodes the mechanism of §3.2: synchronous mini-batch SGD splits each
//! batch across `N` cores and synchronises model parameters every iteration.
//! More cores buy compute throughput (with imperfect parallel efficiency)
//! but pay a per-iteration synchronisation cost that *grows with the core
//! count* — so configurations with many iterations per epoch (small batches)
//! slow down on more cores while large batches speed up. This is Fig. 3b's
//! crossover and the reason system parameters are worth tuning per trial.

use crate::SystemConfig;

/// The work one epoch performs, in system-independent units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkUnits {
    /// Floating-point operations per epoch.
    pub flops: f64,
    /// Parameter-synchronisation points per epoch (≈ examples / batch size).
    pub iterations: u64,
    /// Bytes the job needs resident (dataset cache + activations + runtime).
    pub working_set_bytes: f64,
    /// Bytes of memory traffic per flop; higher values depress the
    /// effective compute rate (memory-bound workloads).
    pub memory_intensity: f64,
}

impl WorkUnits {
    /// Validates ranges (non-negative, finite).
    pub fn is_valid(&self) -> bool {
        self.flops.is_finite()
            && self.flops >= 0.0
            && self.working_set_bytes.is_finite()
            && self.working_set_bytes >= 0.0
            && self.memory_intensity.is_finite()
            && self.memory_intensity >= 0.0
    }
}

/// Calibrated epoch-duration model.
///
/// `duration = init + (compute + sync) × mem_penalty × contention`, where
///
/// * `compute = flops / (rate(memory_intensity) × cores^alpha)`
/// * `sync = iterations × (sync_base + sync_per_core × cores)`
/// * `mem_penalty = 1 + overflow_penalty × max(0, ws/mem − 1)`
///
/// # Example
///
/// ```
/// use pipetune_cluster::{CostModel, SystemConfig, WorkUnits};
///
/// let model = CostModel::default();
/// let work = WorkUnits {
///     flops: 6e11,
///     iterations: 60_000 / 64,
///     working_set_bytes: 2e9,
///     memory_intensity: 0.5,
/// };
/// let slow = model.epoch_duration(&work, &SystemConfig::new(8, 8), 1.0);
/// let fast = model.epoch_duration(&work, &SystemConfig::new(1, 8), 1.0);
/// // Small batch (many iterations): more cores are *slower* (Fig. 3b).
/// assert!(slow > fast);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-core peak throughput in flops/s.
    pub core_flops_per_sec: f64,
    /// Parallel-efficiency exponent: effective cores = cores^alpha.
    pub parallel_alpha: f64,
    /// Fixed synchronisation cost per iteration, seconds.
    pub sync_base_secs: f64,
    /// Additional synchronisation cost per iteration per core, seconds.
    pub sync_per_core_secs: f64,
    /// Slowdown multiplier per unit of working-set overflow.
    pub overflow_penalty: f64,
    /// Fixed per-epoch overhead (task scheduling, data loading), seconds.
    pub init_secs: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated so LeNet/MNIST-scale work reproduces the sign and rough
        // magnitude of Fig. 3b (batch 64 ≈ +45 % at 8 cores, batch 1024
        // ≈ −50 %, crossover between).
        CostModel {
            core_flops_per_sec: 5e9,
            parallel_alpha: 0.5,
            sync_base_secs: 0.005,
            sync_per_core_secs: 0.025,
            overflow_penalty: 1.5,
            init_secs: 1.0,
        }
    }
}

impl CostModel {
    /// Simulated duration of one epoch, in seconds.
    ///
    /// `contention ≥ 1` multiplies the busy time (1.0 = dedicated cores; 2.0
    /// = two jobs pinned to the same cores, as in Fig. 5).
    ///
    /// Invalid work units or a zero-core configuration yield `f64::INFINITY`
    /// rather than panicking, so schedulers can treat them as unplaceable.
    pub fn epoch_duration(&self, work: &WorkUnits, sys: &SystemConfig, contention: f64) -> f64 {
        if !work.is_valid() || sys.cores == 0 || sys.memory_gb == 0 {
            return f64::INFINITY;
        }
        let eff_cores = (sys.cores as f64).powf(self.parallel_alpha);
        // Compute throughput scales linearly with the DVFS frequency ratio.
        let rate = self.core_flops_per_sec * sys.freq_ratio() / (1.0 + 0.3 * work.memory_intensity);
        let compute = work.flops / (rate * eff_cores);
        let sync = work.iterations as f64
            * (self.sync_base_secs + self.sync_per_core_secs * sys.cores as f64);
        let overflow = (work.working_set_bytes / (sys.memory_gb as f64 * 1e9) - 1.0).max(0.0);
        let mem_penalty = 1.0 + self.overflow_penalty * overflow;
        self.init_secs + (compute + sync) * mem_penalty * contention.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lenet_work(batch: u64) -> WorkUnits {
        WorkUnits {
            flops: 6e11,
            iterations: 60_000 / batch,
            working_set_bytes: 2e9,
            memory_intensity: 0.5,
        }
    }

    fn dur(batch: u64, cores: u32) -> f64 {
        CostModel::default().epoch_duration(&lenet_work(batch), &SystemConfig::new(cores, 8), 1.0)
    }

    #[test]
    fn small_batch_slows_down_with_cores_fig3b() {
        // Paper Fig. 3b: batch 64 gets *slower* with more cores.
        assert!(dur(64, 8) > dur(64, 1));
        let pct = (dur(64, 8) - dur(64, 1)) / dur(64, 1) * 100.0;
        assert!((20.0..80.0).contains(&pct), "batch-64 slowdown {pct:.0}% out of band");
    }

    #[test]
    fn large_batch_speeds_up_with_cores_fig3b() {
        assert!(dur(1024, 8) < dur(1024, 1));
        let pct = (dur(1024, 1) - dur(1024, 8)) / dur(1024, 1) * 100.0;
        assert!((25.0..80.0).contains(&pct), "batch-1024 speedup {pct:.0}% out of band");
    }

    #[test]
    fn crossover_sits_between_batch_sizes() {
        // Medium batch: smaller effect magnitude than either extreme.
        let small = (dur(64, 8) - dur(64, 1)) / dur(64, 1);
        let medium = (dur(256, 8) - dur(256, 1)) / dur(256, 1);
        let large = (dur(1024, 8) - dur(1024, 1)) / dur(1024, 1);
        assert!(small > medium && medium > large, "{small} {medium} {large}");
    }

    #[test]
    fn memory_overflow_penalises_duration() {
        let model = CostModel::default();
        let mut work = lenet_work(256);
        work.working_set_bytes = 20e9; // 20 GB working set
        let tight = model.epoch_duration(&work, &SystemConfig::new(8, 4), 1.0);
        let roomy = model.epoch_duration(&work, &SystemConfig::new(8, 32), 1.0);
        assert!(tight > roomy * 1.5, "tight {tight} roomy {roomy}");
    }

    #[test]
    fn contention_scales_busy_time() {
        let model = CostModel::default();
        let work = lenet_work(256);
        let alone = model.epoch_duration(&work, &SystemConfig::default(), 1.0);
        let shared = model.epoch_duration(&work, &SystemConfig::default(), 2.0);
        assert!(shared > alone * 1.8);
    }

    #[test]
    fn invalid_inputs_are_unplaceable_not_panics() {
        let model = CostModel::default();
        let work = lenet_work(64);
        assert!(model.epoch_duration(&work, &SystemConfig::new(0, 8), 1.0).is_infinite());
        let bad = WorkUnits { flops: f64::NAN, ..work };
        assert!(model.epoch_duration(&bad, &SystemConfig::default(), 1.0).is_infinite());
    }

    #[test]
    fn lower_frequency_slows_compute_but_not_sync() {
        let model = CostModel::default();
        let work = lenet_work(1024); // compute-dominated
        let full = SystemConfig::new(8, 32);
        let half = SystemConfig { freq_mhz: SystemConfig::NOMINAL_FREQ_MHZ / 2, ..full };
        let d_full = model.epoch_duration(&work, &full, 1.0);
        let d_half = model.epoch_duration(&work, &half, 1.0);
        assert!(d_half > d_full * 1.3, "{d_half} vs {d_full}");
    }

    #[test]
    fn memory_intensity_depresses_throughput() {
        let model = CostModel::default();
        let lean = WorkUnits { memory_intensity: 0.1, ..lenet_work(1024) };
        let heavy = WorkUnits { memory_intensity: 4.0, ..lenet_work(1024) };
        let sys = SystemConfig::new(8, 32);
        assert!(model.epoch_duration(&heavy, &sys, 1.0) > model.epoch_duration(&lean, &sys, 1.0));
    }
}
