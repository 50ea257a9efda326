//! Element-wise and linear-algebra operations on [`Tensor`].

use crate::gemm::{all_finite, gemm, transpose_into};
use crate::{workspace, Tensor, TensorError, Workspace};

impl Tensor {
    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise (Hadamard) product of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        f: F,
    ) -> Result<Tensor, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape().dims().to_vec(),
                actual: other.shape().dims().to_vec(),
            });
        }
        let data = self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(data, self.shape().dims())
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(data, self.shape().dims()).expect("same shape")
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place AXPY update: `self += alpha * other`.
    ///
    /// This is the hot loop of SGD so it avoids allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape().dims().to_vec(),
                actual: other.shape().dims().to_vec(),
            });
        }
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// Returns `0.0` on an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Matrix product of two rank-2 tensors: `(m×k) · (k×n) = (m×n)`.
    ///
    /// Runs the cache-blocked kernel (packed B-panels, register-tiled
    /// rows) through this thread's shared [`Workspace`]; results are
    /// bit-identical to the historical streaming i-k-j kernel for every
    /// shape and every input — see the summation-order contract in
    /// `docs/performance.md`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when either operand is not rank 2
    /// and [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        workspace::with_thread_local(|ws| self.matmul_with(other, ws))
    }

    /// [`Tensor::matmul`] drawing scratch from the caller's [`Workspace`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_with(&self, other: &Tensor, ws: &mut Workspace) -> Result<Tensor, TensorError> {
        let (m, _, n) = matmul_dims(self, other)?;
        let mut out = vec![0.0f32; m * n];
        self.matmul_into_slice(other, &mut out, ws);
        Tensor::from_vec(out, &[m, n])
    }

    /// [`Tensor::matmul`] writing into a preallocated output tensor,
    /// reshaping it to `m×n`. With a warmed `ws` and an `out` whose buffer
    /// already holds `m·n` elements, the call performs no allocations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_into(
        &self,
        other: &Tensor,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        let (m, _, n) = matmul_dims(self, other)?;
        out.reshape_in_place_for_kernel(&[m, n]);
        out.data_mut().fill(0.0);
        self.matmul_into_slice(other, out.data_mut(), ws);
        Ok(())
    }

    /// Accumulates `self · other` into `out` (assumed zeroed, shape-checked
    /// by the callers above).
    fn matmul_into_slice(&self, other: &Tensor, out: &mut [f32], ws: &mut Workspace) {
        let (m, k) = (self.shape().dims()[0], self.shape().dims()[1]);
        let n = other.shape().dims()[1];
        gemm(self.data(), false, other.data(), !all_finite(other.data()), out, m, k, n, ws);
    }

    /// Transposed matrix product `selfᵀ · other` for `self (k×m)` and
    /// `other (k×n)`, bit-identical to
    /// `self.transpose()?.matmul(other)` but without forming the
    /// transpose at all: the kernel reads `self` column-wise in place.
    ///
    /// This is the backward-pass weight-gradient kernel (`∂L/∂W = xᵀ·∂L/∂y`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], applied to the transposed
    /// left operand.
    pub fn matmul_tn_with(
        &self,
        other: &Tensor,
        ws: &mut Workspace,
    ) -> Result<Tensor, TensorError> {
        check_rank2(self)?;
        check_rank2(other)?;
        let (k, m) = (self.shape().dims()[0], self.shape().dims()[1]);
        let (k2, n) = (other.shape().dims()[0], other.shape().dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch { expected: vec![k, n], actual: vec![k2, n] });
        }
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), true, other.data(), !all_finite(other.data()), &mut out, m, k, n, ws);
        Tensor::from_vec(out, &[m, n])
    }

    /// Transposed matrix product `self · otherᵀ` for `self (m×k)` and
    /// `other (n×k)`, bit-identical to
    /// `self.matmul(&other.transpose()?)` but without allocating the
    /// transpose: the packed copy lives in the caller's [`Workspace`].
    ///
    /// This is the backward-pass input-gradient kernel (`∂L/∂x = ∂L/∂y·Wᵀ`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], applied to the transposed
    /// right operand.
    pub fn matmul_nt_with(
        &self,
        other: &Tensor,
        ws: &mut Workspace,
    ) -> Result<Tensor, TensorError> {
        check_rank2(self)?;
        check_rank2(other)?;
        let (m, k) = (self.shape().dims()[0], self.shape().dims()[1]);
        let (n, k2) = (other.shape().dims()[0], other.shape().dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch { expected: vec![k, n], actual: vec![n, k2] });
        }
        let mut bt = ws.take(k * n);
        transpose_into(other.data(), &mut bt, n, k);
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), false, &bt, !all_finite(&bt), &mut out, m, k, n, ws);
        ws.give(bt);
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape().rank() });
        }
        let (m, n) = (self.shape().dims()[0], self.shape().dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for (j, &v) in self.data()[i * n..(i + 1) * n].iter().enumerate() {
                out[j * m + i] = v;
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Adds a length-`n` row vector to every row of an `m×n` matrix in
    /// place: the `add_bias` step of every dense/conv/LSTM forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias` is not a rank-1
    /// tensor of length `n`.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Tensor) -> Result<(), TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape().rank() });
        }
        let (m, n) = (self.shape().dims()[0], self.shape().dims()[1]);
        if bias.shape().dims() != [n] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n],
                actual: bias.shape().dims().to_vec(),
            });
        }
        let out = self.data_mut();
        let b = bias.data();
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] += b[j];
            }
        }
        Ok(())
    }

    /// Sums a rank-2 tensor over its rows, producing a length-`n` vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn sum_rows(&self) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape().rank() });
        }
        let (m, n) = (self.shape().dims()[0], self.shape().dims()[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(&self.data()[i * n..(i + 1) * n]) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Index of the maximum element in each row of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] on non-matrices and
    /// [`TensorError::Empty`] when a row has zero columns.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape().rank() });
        }
        let (m, n) = (self.shape().dims()[0], self.shape().dims()[1]);
        if n == 0 {
            return Err(TensorError::Empty);
        }
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Numerically-stable row-wise softmax of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape().rank() });
        }
        let (m, n) = (self.shape().dims()[0], self.shape().dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for j in 0..n {
                let e = (row[j] - max).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for j in 0..n {
                out[i * n + j] /= denom;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

fn check_rank2(t: &Tensor) -> Result<(), TensorError> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: t.shape().rank() });
    }
    Ok(())
}

/// Validates a plain `(m×k)·(k×n)` product and returns `(m, k, n)`.
fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    check_rank2(a)?;
    check_rank2(b)?;
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch { expected: vec![k, n], actual: vec![k2, n] });
    }
    Ok((m, k, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = t(&[1.0; 6], &[2, 3]);
        let b = t(&[1.0; 4], &[2, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let a = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 100.0], &[2, 3]);
        let s = a.softmax_rows().unwrap();
        for i in 0..2 {
            let row = &s.data()[i * 3..(i + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!(s.argmax_rows().unwrap(), vec![2, 2]);
    }

    #[test]
    fn sum_rows_collapses_first_axis() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum_rows().unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = t(&[1.0, 1.0], &[2]);
        let g = t(&[2.0, 4.0], &[2]);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let x = t(&(0..12).map(|v| v as f32).collect::<Vec<_>>(), &[4, 3]); // k=4, m=3
        let y = t(&(0..8).map(|v| v as f32 * 0.5).collect::<Vec<_>>(), &[4, 2]); // k=4, n=2
        let mut ws = crate::Workspace::new();
        let fused = x.matmul_tn_with(&y, &mut ws).unwrap();
        let explicit = x.transpose().unwrap().matmul(&y).unwrap();
        assert_eq!(fused, explicit);

        let g = t(&(0..6).map(|v| v as f32 - 2.0).collect::<Vec<_>>(), &[3, 2]); // m=3, k=2
        let w = t(&(0..10).map(|v| v as f32 * 0.1).collect::<Vec<_>>(), &[5, 2]); // n=5, k=2
        let fused = g.matmul_nt_with(&w, &mut ws).unwrap();
        let explicit = g.matmul(&w.transpose().unwrap()).unwrap();
        assert_eq!(fused, explicit);

        // Inner-dimension mismatches surface as typed errors.
        assert!(x.matmul_tn_with(&g, &mut ws).is_err());
        assert!(g.matmul_nt_with(&x, &mut ws).is_err());
    }

    #[test]
    fn matmul_into_reuses_output_and_matches() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let mut ws = crate::Workspace::new();
        let mut out = Tensor::zeros(&[4]); // wrong shape, right element count
        a.matmul_into(&b, &mut out, &mut ws).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // Second call reuses the same buffer.
        a.matmul_into(&b, &mut out, &mut ws).unwrap();
        assert_eq!(out.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn add_row_broadcast_inplace_adds_bias_per_row() {
        let mut inplace = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let bias = t(&[10.0, 20.0], &[2]);
        inplace.add_row_broadcast_inplace(&bias).unwrap();
        assert_eq!(inplace.data(), &[11.0, 22.0, 13.0, 24.0]);
        let bad = t(&[1.0], &[1]);
        assert!(inplace.add_row_broadcast_inplace(&bad).is_err());
    }

    #[test]
    fn zip_with_rejects_shape_mismatch() {
        let a = t(&[1.0; 4], &[2, 2]);
        let b = t(&[1.0; 4], &[4]);
        assert!(a.add(&b).is_err());
    }
}
