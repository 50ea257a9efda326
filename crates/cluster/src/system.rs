//! System parameters: the configurable resources PipeTune tunes (§3.2).

use serde::{Deserialize, Serialize};

/// One system configuration: the paper restricts its evaluation to CPU cores
/// and memory (§7.1.4), with the note that the same mechanism extends to
/// frequency/voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemConfig {
    /// CPU cores allocated to the trial.
    pub cores: u32,
    /// Memory allocated to the trial, in GiB.
    pub memory_gb: u32,
    /// CPU frequency in MHz. The paper evaluates cores and memory only but
    /// notes "the same mechanisms can be applied to any other parameter of
    /// interest (e.g., CPU frequency, CPU voltage)" (§7.1.4); this field is
    /// that extension. [`SystemConfig::NOMINAL_FREQ_MHZ`] means "no DVFS".
    #[serde(default = "nominal_freq")]
    pub freq_mhz: u32,
}

fn nominal_freq() -> u32 {
    SystemConfig::NOMINAL_FREQ_MHZ
}

impl SystemConfig {
    /// Nominal (non-scaled) core frequency, MHz.
    pub const NOMINAL_FREQ_MHZ: u32 = 3500;

    /// A configuration at nominal frequency.
    pub fn new(cores: u32, memory_gb: u32) -> Self {
        SystemConfig { cores, memory_gb, freq_mhz: Self::NOMINAL_FREQ_MHZ }
    }

    /// Frequency relative to nominal (1.0 = no scaling).
    pub fn freq_ratio(&self) -> f64 {
        f64::from(self.freq_mhz.max(1)) / f64::from(Self::NOMINAL_FREQ_MHZ)
    }
}

impl Default for SystemConfig {
    /// The paper's default trial configuration before tuning.
    fn default() -> Self {
        SystemConfig::new(4, 4)
    }
}

impl std::fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}c/{}GB", self.cores, self.memory_gb)?;
        if self.freq_mhz != Self::NOMINAL_FREQ_MHZ {
            write!(f, "@{:.1}GHz", f64::from(self.freq_mhz) / 1000.0)?;
        }
        Ok(())
    }
}

/// The discrete search space of system configurations.
///
/// The paper's cluster allows cores ∈ {4, 8, 16} and memory ∈ {4, 8, 16, 32}
/// GiB (§7.2); probing walks this grid one epoch per configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpace {
    /// Candidate core counts.
    pub cores: Vec<u32>,
    /// Candidate memory sizes in GiB.
    pub memory_gb: Vec<u32>,
    /// Candidate CPU frequencies in MHz (a single nominal entry disables
    /// DVFS tuning, the paper's configuration).
    pub freq_mhz: Vec<u32>,
}

impl Default for SystemSpace {
    fn default() -> Self {
        SystemSpace {
            cores: vec![4, 8, 16],
            memory_gb: vec![4, 8, 16, 32],
            freq_mhz: vec![SystemConfig::NOMINAL_FREQ_MHZ],
        }
    }
}

impl SystemSpace {
    /// Every configuration in the grid, row-major (cores outer, then
    /// memory, then frequency).
    pub fn configurations(&self) -> Vec<SystemConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &c in &self.cores {
            for &m in &self.memory_gb {
                for &f in &self.freq_mhz {
                    out.push(SystemConfig { cores: c, memory_gb: m, freq_mhz: f });
                }
            }
        }
        out
    }

    /// Number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.cores.len() * self.memory_gb.len() * self.freq_mhz.len().max(1)
    }

    /// Returns `true` when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when `cfg` is a member of the grid.
    pub fn contains(&self, cfg: &SystemConfig) -> bool {
        self.cores.contains(&cfg.cores)
            && self.memory_gb.contains(&cfg.memory_gb)
            && self.freq_mhz.contains(&cfg.freq_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_matches_paper_grid() {
        let space = SystemSpace::default();
        assert_eq!(space.len(), 12);
        assert!(space.contains(&SystemConfig::new(16, 32)));
        assert!(!space.contains(&SystemConfig::new(2, 32)));
    }

    #[test]
    fn configurations_enumerates_full_grid() {
        let space = SystemSpace { cores: vec![1, 2], memory_gb: vec![4], ..SystemSpace::default() };
        assert_eq!(space.configurations(), vec![SystemConfig::new(1, 4), SystemConfig::new(2, 4)]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SystemConfig::new(8, 16).to_string(), "8c/16GB");
    }
}
