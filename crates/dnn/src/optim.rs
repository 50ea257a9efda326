//! SGD-with-momentum optimizer and the per-trial training configuration.

use crate::param::Param;
use crate::DnnError;

/// Training configuration for one trial: the system-independent knobs a
/// hyperparameter tuner controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Mini-batch size (paper range 32–1024).
    pub batch_size: usize,
    /// SGD learning rate (paper range 0.001–0.1).
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { batch_size: 32, learning_rate: 0.01, momentum: 0.9, weight_decay: 0.0 }
    }
}

impl TrainConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for a zero batch size, a
    /// non-positive/non-finite learning rate, or out-of-range momentum.
    pub(crate) fn validate(&self) -> Result<(), DnnError> {
        if self.batch_size == 0 {
            return Err(DnnError::InvalidConfig { reason: "batch size must be positive".into() });
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(DnnError::InvalidConfig {
                reason: format!("learning rate {} must be positive", self.learning_rate),
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(DnnError::InvalidConfig {
                reason: format!("momentum {} outside [0, 1)", self.momentum),
            });
        }
        Ok(())
    }
}

/// Plain SGD with momentum and optional weight decay.
///
/// The optimizer is stateless — momentum buffers live inside each
/// [`Param`] — so it can be applied to any model via
/// [`crate::Model::visit_params`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates an optimizer from a validated training configuration.
    pub fn from_config(cfg: &TrainConfig) -> Self {
        Sgd { lr: cfg.learning_rate, momentum: cfg.momentum, weight_decay: cfg.weight_decay }
    }

    /// Applies one update step to a parameter and clears its gradient.
    pub fn step(&self, param: &mut Param) {
        param.sgd_step(self.lr, self.momentum, self.weight_decay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipetune_tensor::Tensor;

    #[test]
    fn config_validation_catches_bad_values() {
        assert!(TrainConfig { batch_size: 0, ..TrainConfig::default() }.validate().is_err());
        assert!(TrainConfig { learning_rate: -1.0, ..TrainConfig::default() }.validate().is_err());
        assert!(TrainConfig { momentum: 1.5, ..TrainConfig::default() }.validate().is_err());
        assert!(TrainConfig::default().validate().is_ok());
    }

    #[test]
    fn sgd_step_descends_quadratic() {
        // Minimise f(x) = x² from x = 1: gradient is 2x.
        let mut p = Param::new(Tensor::ones(&[1]));
        let sgd = Sgd::from_config(&TrainConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            ..TrainConfig::default()
        });
        for _ in 0..50 {
            let g = p.value().scale(2.0);
            p.accumulate(&g).unwrap();
            sgd.step(&mut p);
        }
        assert!(p.value().data()[0].abs() < 1e-3);
    }
}
