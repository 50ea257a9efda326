use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the single data type flowing through the `pipetune-dnn`
/// framework: inputs, activations, weights and gradients are all `Tensor`s.
///
/// # Example
///
/// ```
/// use pipetune_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![1.0; len] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Wraps a flat buffer in a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] when `data.len()` is not the
    /// product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != data.len() {
            return Err(TensorError::SizeMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Samples every element from `N(0, std²)` using a Box-Muller transform.
    ///
    /// Used for weight initialisation; the caller supplies the RNG so that
    /// model construction stays deterministic under a fixed seed.
    pub fn randn<R: Rng>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < len {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn at(&self, idx: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(idx)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn set(&mut self, idx: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(idx)?;
        self.data[off] = value;
        Ok(())
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] when the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != self.data.len() {
            return Err(TensorError::SizeMismatch { expected: shape.len(), actual: self.data.len() });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Retargets this tensor's shape and buffer length for a kernel that
    /// will fully overwrite it, growing the buffer only when the element
    /// count increases (the grow-only rule of `docs/performance.md`).
    pub(crate) fn reshape_in_place_for_kernel(&mut self, dims: &[usize]) {
        if self.shape.dims() == dims {
            return; // steady state: shape and buffer already match
        }
        let shape = Shape::new(dims);
        self.data.resize(shape.len(), 0.0);
        self.shape = shape;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_validates_size() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn randn_is_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(Tensor::randn(&[4, 4], 0.1, &mut a), Tensor::randn(&[4, 4], 0.1, &mut b));
    }

    #[test]
    fn randn_has_roughly_correct_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / t.len() as f32;
        let var: f32 = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[3]).is_err());
    }
}
