//! Trainable layers: dense, conv2d, pooling, ReLU, dropout, flatten, embedding.
//!
//! Each layer caches whatever its backward pass needs during `forward`, then
//! `backward` accumulates parameter gradients in-place and returns the
//! gradient with respect to its input. Layers are plain structs, composed
//! explicitly by the model implementations in [`crate::models`].

use pipetune_tensor::{
    conv2d, conv2d_backward_with, conv2d_gemm_with, max_pool2d, max_pool2d_backward, Tensor,
    TensorError, Workspace,
};
use rand::Rng;

use crate::param::Param;
use crate::DnnError;

/// Fully connected layer: `y = x·W + b` on `[batch, in] → [batch, out]`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    /// Grow-only scratch arena for the GEMM kernels; clones start empty
    /// (see the workspace lifetime rules in `docs/performance.md`).
    ws: Workspace,
}

impl Dense {
    /// Creates a dense layer with He-style `N(0, (2/fan_in)½)` initialisation.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        Dense {
            weight: Param::new(Tensor::randn(&[in_dim, out_dim], std, rng)),
            bias: Param::new(Tensor::zeros(&[out_dim])),
            cached_input: None,
            ws: Workspace::new(),
        }
    }

    /// Forward pass; caches the input for backprop when `train` is set.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the matrix product.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let mut y = x.matmul_with(self.weight.value(), &mut self.ws)?;
        y.add_row_broadcast_inplace(self.bias.value())?;
        self.cached_input = train.then(|| x.clone());
        Ok(y)
    }

    /// Backward pass: accumulates weight/bias gradients, returns `∂L/∂x`.
    ///
    /// Both products run the fused transposed kernels
    /// ([`Tensor::matmul_tn_with`]/[`Tensor::matmul_nt_with`]): the input is
    /// read transposed in place, and the transposed weight matrix is packed
    /// into the layer's workspace, not allocated, per step.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when called before a training-mode
    /// forward pass; propagates shape errors otherwise.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let x = self.cached_input.as_ref().ok_or(TensorError::Empty)?;
        let gw = x.matmul_tn_with(grad_out, &mut self.ws)?;
        let gb = grad_out.sum_rows()?;
        self.weight.accumulate(&gw)?;
        self.bias.accumulate(&gb)?;
        grad_out.matmul_nt_with(self.weight.value(), &mut self.ws)
    }

    /// [`Dense::backward`] for a gradient that is nearly all zeros, such as
    /// one that came back through a global max-pool: works from its
    /// non-zero entries, row by row and column by column, instead of
    /// multiplying every row. Same bits as `backward`. Each product the
    /// skip drops is `x · 0.0 = ±0.0` (`∂W`) or `0.0 · w` (`∂x`, which the
    /// product skips itself when the weight is not finite), and adding
    /// ±0.0 changes no sum that started at +0.0. A NaN or an infinity in
    /// the cached input (`∞ · 0.0`), or in the gradient (the product then
    /// skips zero inputs instead), could tell, so then this runs `backward`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dense::backward`].
    pub(crate) fn backward_sparse(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let x = self.cached_input.as_ref().ok_or(TensorError::Empty)?;
        let (m, k) = (x.shape().dims()[0], self.weight.value().shape().dims()[0]);
        let n = self.bias.len();
        if grad_out.shape().dims() != [m, n] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![m, n],
                actual: grad_out.shape().dims().to_vec(),
            });
        }
        let finite = |t: &Tensor| t.data().iter().fold(true, |all, v| all & v.is_finite());
        if !(finite(x) && finite(grad_out)) {
            return self.backward(grad_out);
        }
        // `∂Wᵀ` and `Wᵀ` row by row, so each entry is two contiguous
        // `k`-wide updates.
        let wt = self.weight.value().transpose()?;
        let mut gwt = vec![0.0f32; n * k];
        let mut gb = vec![0.0f32; n];
        let mut gx = vec![0.0f32; m * k];
        // `max(1)`: a layer without outputs has an empty gradient.
        for (p, g_row) in grad_out.data().chunks_exact(n.max(1)).enumerate() {
            for (j, &gv) in g_row.iter().enumerate() {
                if gv == 0.0 {
                    continue;
                }
                gb[j] += gv;
                for (acc, &xv) in gwt[j * k..][..k].iter_mut().zip(&x.data()[p * k..][..k]) {
                    *acc += gv * xv;
                }
                for (acc, &wv) in gx[p * k..][..k].iter_mut().zip(&wt.data()[j * k..][..k]) {
                    *acc += gv * wv;
                }
            }
        }
        self.weight.accumulate(&Tensor::from_vec(gwt, &[n, k])?.transpose()?)?;
        self.bias.accumulate(&Tensor::from_vec(gb, &[n])?)?;
        Tensor::from_vec(gx, &[m, k])
    }

    /// Visits the layer's parameters (weight then bias).
    pub fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
        v(&mut self.weight);
        v(&mut self.bias);
    }

    /// Number of scalar parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// Valid, stride-1 2-D convolution layer on NCHW tensors.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    /// Scratch arena for the im2col + GEMM route; clones start empty.
    ws: Workspace,
}

impl Conv2d {
    /// Creates a conv layer `[out_ch, in_ch, k, k]` with He initialisation.
    pub fn new<R: Rng>(in_ch: usize, out_ch: usize, k: usize, rng: &mut R) -> Self {
        let fan_in = (in_ch * k * k) as f32;
        let std = (2.0 / fan_in).sqrt();
        Conv2d {
            weight: Param::new(Tensor::randn(&[out_ch, in_ch, k, k], std, rng)),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cached_input: None,
            ws: Workspace::new(),
        }
    }

    /// Forward pass; caches the input when `train` is set.
    ///
    /// Batches of 8+ take the im2col + GEMM route ([`conv2d_gemm_with`]),
    /// which amortises the unfold cost and recycles its scratch from the
    /// layer's [`Workspace`]; small batches stay on the direct loops,
    /// whose bias-first summation order the GEMM route does not share.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`conv2d`].
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let batch = x.shape().dims().first().copied().unwrap_or(0);
        let y = if batch >= 8 {
            conv2d_gemm_with(x, self.weight.value(), self.bias.value(), &mut self.ws)?
        } else {
            conv2d(x, self.weight.value(), self.bias.value())?
        };
        self.cached_input = train.then(|| x.clone());
        Ok(y)
    }

    /// Backward pass: accumulates kernel/bias gradients, returns `∂L/∂x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when called before a training-mode
    /// forward pass; propagates shape errors otherwise.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        self.backward_with(grad_out, true)?.ok_or(TensorError::Empty)
    }

    /// [`Conv2d::backward`] computing `∂L/∂x` only when `input_grad` is set:
    /// a network's first layer has nobody to hand it to.
    pub(crate) fn backward_with(
        &mut self,
        grad_out: &Tensor,
        input_grad: bool,
    ) -> Result<Option<Tensor>, TensorError> {
        let x = self.cached_input.as_ref().ok_or(TensorError::Empty)?;
        let grads =
            conv2d_backward_with(x, self.weight.value(), grad_out, input_grad, &mut self.ws)?;
        self.weight.accumulate(&grads.grad_weight)?;
        self.bias.accumulate(&grads.grad_bias)?;
        Ok(grads.grad_input)
    }

    /// Visits the layer's parameters (kernel then bias).
    pub fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
        v(&mut self.weight);
        v(&mut self.bias);
    }

    /// Number of scalar parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// Non-overlapping max pooling layer.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2d {
    k: usize,
    cached: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a `k×k` pooling layer.
    pub fn new(k: usize) -> Self {
        MaxPool2d { k, cached: None }
    }

    /// Forward pass; caches argmax indices when `train` is set.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`max_pool2d`].
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let (y, idx) = max_pool2d(x, self.k)?;
        self.cached = train.then(|| (idx, x.shape().dims().to_vec()));
        Ok(y)
    }

    /// Backward pass using the cached indices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when called before a training-mode
    /// forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let (idx, dims) = self.cached.as_ref().ok_or(TensorError::Empty)?;
        max_pool2d_backward(grad_out, idx, dims)
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }

    /// Forward pass; caches the activation mask when `train` is set.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        x.map(|v| v.max(0.0))
    }

    /// Backward pass: zeroes gradients where the forward input was ≤ 0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when called before a training-mode
    /// forward pass; [`TensorError::SizeMismatch`] on a size change.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let mask = self.mask.as_ref().ok_or(TensorError::Empty)?;
        if mask.len() != grad_out.len() {
            return Err(TensorError::SizeMismatch { expected: mask.len(), actual: grad_out.len() });
        }
        let data =
            grad_out.data().iter().zip(mask).map(|(&g, &m)| if m { g } else { 0.0 }).collect();
        Tensor::from_vec(data, grad_out.shape().dims())
    }
}

/// Inverted dropout: zeroes a `rate` fraction of activations during training
/// and rescales the survivors by `1/(1-rate)`, so inference needs no scaling.
///
/// This is the paper's second hyperparameter (dropout rate ∈ [0, 0.5]).
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] unless `0 ≤ rate < 1`.
    pub fn new(rate: f32) -> Result<Self, DnnError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(DnnError::InvalidConfig {
                reason: format!("dropout rate {rate} outside [0, 1)"),
            });
        }
        Ok(Dropout { rate, mask: None })
    }

    /// Forward pass. In training mode draws a fresh mask from `rng`.
    pub fn forward<R: Rng>(&mut self, x: &Tensor, train: bool, rng: &mut R) -> Tensor {
        if !train || self.rate == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask: Vec<f32> =
            (0..x.len()).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }).collect();
        let data = x.data().iter().zip(&mask).map(|(&v, &m)| v * m).collect();
        let out = Tensor::from_vec(data, x.shape().dims()).expect("same shape");
        self.mask = Some(mask);
        out
    }

    /// Backward pass: applies the cached mask (identity when dropout was inactive).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] when the gradient size changed.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        match &self.mask {
            None => Ok(grad_out.clone()),
            Some(mask) => {
                if mask.len() != grad_out.len() {
                    return Err(TensorError::SizeMismatch {
                        expected: mask.len(),
                        actual: grad_out.len(),
                    });
                }
                let data = grad_out.data().iter().zip(mask).map(|(&g, &m)| g * m).collect();
                Tensor::from_vec(data, grad_out.shape().dims())
            }
        }
    }
}

/// Flattens `[batch, ...]` to `[batch, features]`, remembering the original
/// shape for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { dims: None }
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] on scalars.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        if x.shape().rank() == 0 {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        self.dims = Some(x.shape().dims().to_vec());
        let n = x.shape().dims()[0];
        let rest: usize = x.shape().dims()[1..].iter().product();
        x.reshape(&[n, rest])
    }

    /// Backward pass: restores the cached shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let dims = self.dims.as_ref().ok_or(TensorError::Empty)?;
        grad_out.reshape(dims)
    }
}

/// Token-embedding table: maps token ids to dense vectors.
///
/// The paper's third hyperparameter is the embedding dimension (50–300 for
/// News20); this layer makes that dimension a real knob.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: Param,
    vocab: usize,
    dim: usize,
    cached_tokens: Option<Vec<u32>>,
}

impl Embedding {
    /// Creates a `vocab × dim` embedding table with small normal init.
    pub fn new<R: Rng>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Embedding {
            table: Param::new(Tensor::randn(&[vocab, dim], 0.1, rng)),
            vocab,
            dim,
            cached_tokens: None,
        }
    }

    /// Embedding dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a batch of equal-length sequences, producing
    /// `[batch, seq_len, dim]` (flattened row-major).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] (`[seq_len]` against the
    /// row's length) when a row is not as long as the first, before any
    /// lookup, and [`TensorError::IndexOutOfBounds`] for unknown token ids.
    pub fn forward(&mut self, batch: &[Vec<u32>], train: bool) -> Result<Tensor, TensorError> {
        let b = batch.len();
        let t = batch.first().map_or(0, Vec::len);
        if let Some(seq) = batch.iter().find(|seq| seq.len() != t) {
            return Err(TensorError::ShapeMismatch { expected: vec![t], actual: vec![seq.len()] });
        }
        let mut out = Vec::with_capacity(b * t * self.dim);
        let mut flat = Vec::with_capacity(b * t);
        for seq in batch {
            for &tok in seq {
                let tok_us = tok as usize;
                if tok_us >= self.vocab {
                    return Err(TensorError::IndexOutOfBounds {
                        axis: 0,
                        index: tok_us,
                        len: self.vocab,
                    });
                }
                out.extend_from_slice(
                    &self.table.value().data()[tok_us * self.dim..(tok_us + 1) * self.dim],
                );
                flat.push(tok);
            }
        }
        self.cached_tokens = train.then_some(flat);
        Tensor::from_vec(out, &[b, t, self.dim])
    }

    /// Backward pass: scatters `grad_out` rows back into the table gradient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] before a training-mode forward and
    /// [`TensorError::SizeMismatch`] when sizes disagree.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<(), TensorError> {
        let tokens = self.cached_tokens.as_ref().ok_or(TensorError::Empty)?;
        if grad_out.len() != tokens.len() * self.dim {
            return Err(TensorError::SizeMismatch {
                expected: tokens.len() * self.dim,
                actual: grad_out.len(),
            });
        }
        let mut gtab = Tensor::zeros(&[self.vocab, self.dim]);
        {
            let buf = gtab.data_mut();
            for (row, &tok) in tokens.iter().enumerate() {
                let dst = tok as usize * self.dim;
                let src = row * self.dim;
                for d in 0..self.dim {
                    buf[dst + d] += grad_out.data()[src + d];
                }
            }
        }
        self.table.accumulate(&gtab)
    }

    /// Visits the embedding table parameter.
    pub(crate) fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
        v(&mut self.table);
    }

    /// Number of scalar parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[4, 2]);
        let gx = layer.backward(&Tensor::ones(&[4, 2])).unwrap();
        assert_eq!(gx.shape().dims(), &[4, 3]);
    }

    #[test]
    fn dense_backward_before_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, &mut rng);
        assert!(layer.backward(&Tensor::ones(&[4, 2])).is_err());
        assert!(layer.backward_sparse(&Tensor::ones(&[4, 2])).is_err());
    }

    /// `backward_sparse` against `backward` on gradients shaped like a
    /// global max-pool's (one row in 22 per column), twice in a row so the
    /// second call accumulates, clean and with a NaN, an infinity or a
    /// denormal in the input, the gradient or the weight in turn.
    #[test]
    fn sparse_dense_backward_has_the_bits_of_the_dense_one() {
        use rand::Rng;
        let same = |what: &str, want: &Tensor, got: &Tensor| {
            assert_eq!(want.shape(), got.shape(), "{what}");
            for (w, g) in want.data().iter().zip(got.data()) {
                assert!(w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()), "{what}");
            }
        };
        let mut rng = StdRng::seed_from_u64(23);
        let (m, k, n) = (66, 9, 5);
        for poisoned in [None, Some(0), Some(1), Some(2)] {
            for special in [f32::NAN, f32::INFINITY, 1.0e-40] {
                let mut dense = Dense::new(k, n, &mut rng);
                let poison = |t: &mut Tensor, rng: &mut StdRng| {
                    let at = rng.gen_range(0..t.len());
                    t.data_mut()[at] = special;
                };
                if poisoned == Some(2) {
                    poison(dense.weight.value_mut(), &mut rng);
                }
                let mut sparse = dense.clone();
                for _ in 0..2 {
                    let mut x = Tensor::randn(&[m, k], 1.0, &mut rng);
                    let mut g = Tensor::zeros(&[m, n]);
                    for p in 0..m / 22 {
                        for j in 0..n {
                            let row = p * 22 + rng.gen_range(0..22usize);
                            g.data_mut()[row * n + j] = rng.gen_range(-1.0f32..1.0);
                        }
                    }
                    if poisoned == Some(0) {
                        poison(&mut x, &mut rng);
                    }
                    if poisoned == Some(1) {
                        poison(&mut g, &mut rng);
                    }
                    dense.forward(&x, true).unwrap();
                    sparse.forward(&x, true).unwrap();
                    same("∂x", &dense.backward(&g).unwrap(), &sparse.backward_sparse(&g).unwrap());
                    same("∂W", dense.weight.grad(), sparse.weight.grad());
                    same("∂b", dense.bias.grad(), sparse.bias.grad());
                }
            }
        }
        let mut no_outputs = Dense::new(3, 0, &mut rng);
        no_outputs.forward(&Tensor::ones(&[2, 3]), true).unwrap();
        let gx = no_outputs.backward_sparse(&Tensor::zeros(&[2, 0])).unwrap();
        same("∂x without outputs", &Tensor::zeros(&[2, 3]), &gx);
    }

    #[test]
    fn dense_gradient_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(&[5, 3], 1.0, &mut rng);
        // Loss = sum(dense(x)) so grad_out = ones.
        let _ = layer.forward(&x, true).unwrap();
        layer.backward(&Tensor::ones(&[5, 2])).unwrap();
        let analytic = layer.weight.grad().clone();
        let eps = 1e-2f32;
        for probe in [0usize, 3, 5] {
            let orig = layer.weight.value().data()[probe];
            layer.weight.value_mut().data_mut()[probe] = orig + eps;
            let fp = layer.forward(&x, false).unwrap().sum();
            layer.weight.value_mut().data_mut()[probe] = orig - eps;
            let fm = layer.forward(&x, false).unwrap().sum();
            layer.weight.value_mut().data_mut()[probe] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - analytic.data()[probe]).abs() < 0.02 * (1.0 + num.abs()));
        }
    }

    #[test]
    fn relu_masks_negative_gradients() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = relu.backward(&Tensor::ones(&[2])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn dropout_preserves_expectation_and_is_identity_in_eval() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut drop = Dropout::new(0.5).unwrap();
        let x = Tensor::ones(&[10_000]);
        let y = drop.forward(&x, true, &mut rng);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        let eval = drop.forward(&x, false, &mut rng);
        assert_eq!(eval.data(), x.data());
    }

    #[test]
    fn dropout_rejects_invalid_rate() {
        assert!(Dropout::new(1.0).is_err());
        assert!(Dropout::new(-0.1).is_err());
        assert!(Dropout::new(0.0).is_ok());
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4]);
        let y = f.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 12]);
        let back = f.backward(&y).unwrap();
        assert_eq!(back.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn embedding_lookup_and_scatter() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut emb = Embedding::new(5, 3, &mut rng);
        let batch = vec![vec![1u32, 4], vec![0, 0]];
        let y = emb.forward(&batch, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 2, 3]);
        emb.backward(&Tensor::ones(&[2, 2, 3])).unwrap();
        // Token 0 appears twice → gradient 2 in each dim.
        assert_eq!(emb.table.grad().data()[0], 2.0);
        // Token 2 never appears → zero gradient.
        assert_eq!(emb.table.grad().data()[2 * 3], 0.0);
    }

    #[test]
    fn embedding_rejects_unknown_token() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut emb = Embedding::new(5, 3, &mut rng);
        assert!(emb.forward(&[vec![7u32]], false).is_err());
    }

    #[test]
    fn embedding_refuses_a_ragged_batch_before_any_lookup() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut emb = Embedding::new(5, 3, &mut rng);
        // Six tokens, as many as a [3, 2] batch: the total alone passes.
        let ragged = vec![vec![1u32, 4], vec![0], vec![2, 3, 1]];
        assert_eq!(
            emb.forward(&ragged, true).unwrap_err(),
            TensorError::ShapeMismatch { expected: vec![2], actual: vec![1] }
        );
        assert_eq!(emb.backward(&Tensor::ones(&[3, 2, 3])).unwrap_err(), TensorError::Empty);
        // The length is checked first: an unknown token in a short row
        // does not decide the error.
        assert_eq!(
            emb.forward(&[vec![1, 2], vec![7]], false).unwrap_err(),
            TensorError::ShapeMismatch { expected: vec![2], actual: vec![1] }
        );
    }

    #[test]
    fn maxpool_layer_routes_gradient() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        let gx = pool.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(gx.sum(), 4.0);
    }
}
