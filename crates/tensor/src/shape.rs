use serde::{Deserialize, Serialize};

use crate::TensorError;

/// A tensor shape: the length of each axis, outermost first.
///
/// `Shape` is a thin validated wrapper over `Vec<usize>` used by [`crate::Tensor`].
///
/// # Example
///
/// ```
/// use pipetune_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from axis lengths.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Total number of elements (product of axis lengths; 1 for a scalar shape).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns `true` when the shape holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Length of axis `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::RankMismatch { expected: axis + 1, actual: self.0.len() })
    }

    /// Row-major strides for this shape.
    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset for a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `idx` has the wrong number of
    /// coordinates, and [`TensorError::IndexOutOfBounds`] when any coordinate
    /// exceeds its axis length.
    pub fn offset(&self, idx: &[usize]) -> Result<usize, TensorError> {
        if idx.len() != self.0.len() {
            return Err(TensorError::RankMismatch { expected: self.0.len(), actual: idx.len() });
        }
        let strides = self.strides();
        let mut off = 0usize;
        for (axis, (&i, (&d, &s))) in idx.iter().zip(self.0.iter().zip(strides.iter())).enumerate()
        {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { axis, index: i, len: d });
            }
            off += i * s;
        }
        Ok(off)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_walks_row_major() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 5);
    }

    #[test]
    fn offset_rejects_bad_rank_and_bounds() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(s.offset(&[1]), Err(TensorError::RankMismatch { .. })));
        assert!(matches!(
            s.offset(&[0, 3]),
            Err(TensorError::IndexOutOfBounds { axis: 1, index: 3, len: 3 })
        ));
    }

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
    }
}
