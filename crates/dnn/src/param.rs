use pipetune_tensor::{Tensor, TensorError};
use serde::{content_get, Content, DeError, Deserialize, Serialize};

/// A trainable parameter: value, accumulated gradient and momentum buffer.
///
/// Layers own their `Param`s; the [`crate::Sgd`] optimizer visits them via
/// [`crate::Model::visit_params`] so optimizer state lives next to the data it
/// updates.
///
/// Deserialising refuses a `grad` or `velocity` shaped unlike `value`: the
/// optimizer steps all three by one index.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Param {
    value: Tensor,
    grad: Tensor,
    velocity: Tensor,
}

impl Param {
    /// Wraps an initial value; gradient and velocity start at zero.
    pub(crate) fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        let velocity = Tensor::zeros(value.shape().dims());
        Param { value, grad, velocity }
    }

    /// Current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the value (used by the optimizer).
    pub(crate) fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// Accumulated gradient since the last optimizer step.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `g` is shaped differently
    /// from the parameter value.
    pub(crate) fn accumulate(&mut self, g: &Tensor) -> Result<(), TensorError> {
        self.grad.axpy(1.0, g)
    }

    /// Number of scalar elements in the parameter.
    pub(crate) fn len(&self) -> usize {
        self.value.len()
    }

    /// Applies one SGD-with-momentum step and clears the gradient.
    ///
    /// `v ← momentum·v − lr·(grad + weight_decay·value)`, then `value += v`.
    pub(crate) fn sgd_step(&mut self, lr: f32, momentum: f32, weight_decay: f32) {
        let n = self.value.len();
        let value = self.value.data_mut();
        let grad = self.grad.data_mut();
        let vel = self.velocity.data_mut();
        for i in 0..n {
            let g = grad[i] + weight_decay * value[i];
            vel[i] = momentum * vel[i] - lr * g;
            value[i] += vel[i];
            grad[i] = 0.0;
        }
    }
}

impl Deserialize for Param {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let members =
            content.as_map_slice().ok_or_else(|| DeError::custom("Param: expected a map"))?;
        let tensor = |name: &str| match content_get(members, name) {
            Some(t) => Tensor::from_content(t)
                .map_err(|e| DeError::custom(format!("Param: `{name}`: {e}"))),
            None => Err(DeError::custom(format!("Param: missing field `{name}`"))),
        };
        let param =
            Param { value: tensor("value")?, grad: tensor("grad")?, velocity: tensor("velocity")? };
        for (name, buffer) in [("grad", &param.grad), ("velocity", &param.velocity)] {
            if buffer.shape() != param.value.shape() {
                return Err(DeError::custom(format!(
                    "Param: `{name}` is shaped {:?}, `value` {:?}",
                    buffer.shape().dims(),
                    param.value.shape().dims()
                )));
            }
        }
        Ok(param)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_step_without_momentum_is_plain_gradient_descent() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        p.accumulate(&Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap()).unwrap();
        p.sgd_step(0.1, 0.0, 0.0);
        assert_eq!(p.value().data(), &[0.95, 2.05]);
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn momentum_accelerates_repeated_gradients() {
        let mut p = Param::new(Tensor::zeros(&[1]));
        for _ in 0..2 {
            p.accumulate(&Tensor::ones(&[1])).unwrap();
            p.sgd_step(0.1, 0.9, 0.0);
        }
        // step1: v=-0.1, x=-0.1; step2: v=-0.9*0.1-0.1=-0.19, x=-0.29
        assert!((p.value().data()[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn deserialising_refuses_buffers_shaped_unlike_the_value() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(Param::from_content(&p.to_content()).unwrap(), p);
        for name in ["grad", "velocity"] {
            let Content::Map(mut members) = p.to_content() else { panic!("a map") };
            let slot = members.iter_mut().find(|(k, _)| k == name).unwrap();
            slot.1 = Tensor::zeros(&[3, 2]).to_content();
            let err = Param::from_content(&Content::Map(members)).unwrap_err().to_string();
            assert!(err.contains(&format!("`{name}` is shaped [3, 2]")), "{err}");
        }
        let Content::Map(mut members) = p.to_content() else { panic!("a map") };
        members.retain(|(k, _)| k != "velocity");
        let err = Param::from_content(&Content::Map(members)).unwrap_err().to_string();
        assert!(err.contains("missing field `velocity`"), "{err}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Param::new(Tensor::ones(&[1]));
        p.sgd_step(0.1, 0.0, 0.5);
        assert!((p.value().data()[0] - 0.95).abs() < 1e-6);
    }
}
