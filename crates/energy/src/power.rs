//! Node power model.

/// Linear CPU power model: `P = idle + per_core × cores × load^γ`.
///
/// Calibrated loosely to an Intel E3-class node: ~45 W idle, ~8 W per busy
/// core. The exponent captures that partially-loaded cores draw
/// disproportionate power (clock gating is imperfect).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Idle node power, watts.
    pub idle_watts: f64,
    /// Incremental power per fully-busy core, watts.
    pub per_core_watts: f64,
    /// Load exponent γ (sub-linear power at partial load).
    pub load_exponent: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel { idle_watts: 45.0, per_core_watts: 8.0, load_exponent: 0.8 }
    }
}

impl PowerModel {
    /// Active power for `cores` allocated cores at `load ∈ [0, 1]`.
    ///
    /// Load values outside `[0, 1]` are clamped; NaN is treated as idle.
    pub fn power_watts(&self, cores: u32, load: f64) -> f64 {
        let load = if load.is_nan() { 0.0 } else { load.clamp(0.0, 1.0) };
        self.idle_watts + self.per_core_watts * f64::from(cores) * load.powf(self.load_exponent)
    }

    /// Energy for a constant-power interval, joules.
    pub fn energy_joules(&self, cores: u32, load: f64, secs: f64) -> f64 {
        self.power_watts(cores, load) * secs.max(0.0)
    }

    /// Active power under DVFS: dynamic CPU power scales roughly with
    /// `V²f ∝ f³` when voltage follows frequency, so halving the clock cuts
    /// per-core draw to an eighth (the frequency-tuning extension's energy
    /// lever).
    pub fn power_watts_at_freq(&self, cores: u32, load: f64, freq_ratio: f64) -> f64 {
        let load = if load.is_nan() { 0.0 } else { load.clamp(0.0, 1.0) };
        let ratio = if freq_ratio.is_finite() { freq_ratio.clamp(0.1, 2.0) } else { 1.0 };
        self.idle_watts
            + self.per_core_watts * f64::from(cores) * load.powf(self.load_exponent) * ratio.powi(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_is_floor_power() {
        let m = PowerModel::default();
        assert_eq!(m.power_watts(16, 0.0), m.idle_watts);
        assert_eq!(m.power_watts(0, 1.0), m.idle_watts);
    }

    #[test]
    fn power_grows_with_cores_and_load() {
        let m = PowerModel::default();
        assert!(m.power_watts(8, 1.0) > m.power_watts(4, 1.0));
        assert!(m.power_watts(8, 1.0) > m.power_watts(8, 0.5));
    }

    #[test]
    fn bad_load_values_are_clamped() {
        let m = PowerModel::default();
        assert_eq!(m.power_watts(4, f64::NAN), m.idle_watts);
        assert_eq!(m.power_watts(4, 7.0), m.power_watts(4, 1.0));
        assert_eq!(m.power_watts(4, -3.0), m.idle_watts);
    }

    #[test]
    fn dvfs_power_follows_cubic_law() {
        let m = PowerModel::default();
        let full = m.power_watts_at_freq(8, 1.0, 1.0);
        let half = m.power_watts_at_freq(8, 1.0, 0.5);
        let dyn_full = full - m.idle_watts;
        let dyn_half = half - m.idle_watts;
        assert!((dyn_half / dyn_full - 0.125).abs() < 1e-9);
        assert_eq!(m.power_watts_at_freq(8, 1.0, 1.0), m.power_watts(8, 1.0));
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = PowerModel::default();
        let e = m.energy_joules(8, 1.0, 10.0);
        assert!((e - m.power_watts(8, 1.0) * 10.0).abs() < 1e-9);
        assert_eq!(m.energy_joules(8, 1.0, -5.0), 0.0);
    }
}
