//! The paper's five hyperparameters (§7.1.3) and their search space.

use pipetune_search::{Config, ParamSpec, SearchSpace};
use serde::{Deserialize, Serialize};

/// One hyperparameter assignment for a trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HyperParams {
    /// Mini-batch size (paper range 32–1024).
    pub batch_size: usize,
    /// Dropout rate (paper range 0.0–0.5).
    pub dropout: f32,
    /// Word-embedding dimensionality (paper range 50–300; text models only).
    pub embedding_dim: usize,
    /// SGD learning rate (paper range 0.001–0.1).
    pub learning_rate: f32,
    /// Requested training epochs (paper range 10–100).
    pub epochs: u32,
}

impl Default for HyperParams {
    fn default() -> Self {
        HyperParams {
            batch_size: 32,
            dropout: 0.0,
            embedding_dim: 50,
            learning_rate: 0.01,
            epochs: 10,
        }
    }
}

impl HyperParams {
    /// Decodes a scheduler [`Config`]; missing keys keep defaults, so the
    /// same decoder serves hyper-only (V1/PipeTune) and hyper+system (V2)
    /// spaces.
    pub fn from_config(config: &Config) -> Self {
        let mut hp = HyperParams::default();
        if let Some(v) = config.get("batch_size") {
            hp.batch_size = v.as_i64().max(1) as usize;
        }
        if let Some(v) = config.get("dropout") {
            hp.dropout = v.as_f64().clamp(0.0, 0.95) as f32;
        }
        if let Some(v) = config.get("embedding_dim") {
            hp.embedding_dim = v.as_i64().max(1) as usize;
        }
        if let Some(v) = config.get("learning_rate") {
            hp.learning_rate = v.as_f64().max(1e-6) as f32;
        }
        if let Some(v) = config.get("epochs") {
            hp.epochs = v.as_i64().clamp(1, 10_000) as u32;
        }
        hp
    }

    /// Encodes into a scheduler [`Config`].
    #[cfg(test)]
    pub(crate) fn to_config(self) -> Config {
        use pipetune_search::ParamValue;
        let mut c = Config::new();
        c.insert("batch_size".into(), ParamValue::Int(self.batch_size as i64));
        c.insert("dropout".into(), ParamValue::Float(f64::from(self.dropout)));
        c.insert("embedding_dim".into(), ParamValue::Int(self.embedding_dim as i64));
        c.insert("learning_rate".into(), ParamValue::Float(f64::from(self.learning_rate)));
        c.insert("epochs".into(), ParamValue::Int(i64::from(self.epochs)));
        c
    }
}

/// Builders for the paper's search spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HyperSpace;

impl HyperSpace {
    /// The paper's five-hyperparameter space (§7.1.3).
    ///
    /// `epochs_range` lets experiments scale the epoch budget (the paper
    /// uses 10–100; the fast profile uses smaller budgets). The embedding
    /// dimensions are the paper's 50–300 range scaled by ~1/5 to match the
    /// scaled-down synthetic text datasets (documented in DESIGN.md): the
    /// accuracy/time trade-off shape is preserved, the absolute sizes are
    /// smaller.
    pub fn paper(epochs_range: (i64, i64)) -> SearchSpace {
        SearchSpace::new(vec![
            ParamSpec::int_choice("batch_size", &[32, 64, 256, 1024]),
            ParamSpec::float_range("dropout", 0.0, 0.5, false),
            ParamSpec::int_choice("embedding_dim", &[8, 16, 32, 64]),
            ParamSpec::float_range("learning_rate", 0.001, 0.1, true),
            ParamSpec::int_range("epochs", epochs_range.0, epochs_range.1),
        ])
    }
}

/// Decodes the system half of a Tune V2 config, if present.
pub(crate) fn system_from_config(config: &Config) -> Option<pipetune_cluster::SystemConfig> {
    match (config.get("cores"), config.get("memory_gb")) {
        (Some(c), Some(m)) => Some(pipetune_cluster::SystemConfig {
            cores: c.as_i64().clamp(1, 1024) as u32,
            memory_gb: m.as_i64().clamp(1, 4096) as u32,
            freq_mhz: config
                .get("freq_mhz")
                .map_or(pipetune_cluster::SystemConfig::NOMINAL_FREQ_MHZ, |f| {
                    f.as_i64().clamp(100, 10_000) as u32
                }),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips() {
        let hp = HyperParams {
            batch_size: 256,
            dropout: 0.3,
            embedding_dim: 200,
            learning_rate: 0.05,
            epochs: 40,
        };
        let back = HyperParams::from_config(&hp.to_config());
        assert_eq!(back.batch_size, 256);
        assert!((back.dropout - 0.3).abs() < 1e-6);
        assert_eq!(back.embedding_dim, 200);
        assert_eq!(back.epochs, 40);
    }

    #[test]
    fn missing_keys_fall_back_to_defaults() {
        let hp = HyperParams::from_config(&Config::new());
        assert_eq!(hp.batch_size, HyperParams::default().batch_size);
    }

    #[test]
    fn paper_space_has_five_parameters() {
        assert_eq!(HyperSpace::paper((10, 100)).grid(1)[0].len(), 5);
    }

    #[test]
    fn v2_union_space_decodes_both_halves() {
        let system_half = SearchSpace::new(vec![
            ParamSpec::int_choice("cores", &[4, 8, 16]),
            ParamSpec::int_choice("memory_gb", &[4, 8, 16, 32]),
        ]);
        let space = HyperSpace::paper((10, 100)).union(&system_half);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let cfg = space.sample(&mut rng);
        let hp = HyperParams::from_config(&cfg);
        let sys = system_from_config(&cfg).expect("system half present");
        assert!(hp.batch_size >= 32);
        assert!([4, 8, 16].contains(&sys.cores));
    }

    #[test]
    fn hyper_only_config_has_no_system_half() {
        let cfg = HyperParams::default().to_config();
        assert!(system_from_config(&cfg).is_none());
    }
}
