use serde::{Deserialize, Serialize};

/// A tensor shape: the length of each axis, outermost first.
///
/// `Shape` is a thin validated wrapper over `Vec<usize>` used by [`crate::Tensor`].
///
/// # Example
///
/// ```
/// use pipetune_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3, 4]);
/// assert_eq!(t.shape().dims(), &[2, 3, 4]);
/// assert_eq!(t.shape().rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from axis lengths.
    pub(crate) fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Total number of elements (product of axis lengths; 1 for a scalar shape).
    pub(crate) fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
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
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
    }
}
