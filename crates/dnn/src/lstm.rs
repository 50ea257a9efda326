//! A single-layer LSTM with full backpropagation through time.
//!
//! This powers the paper's `LSTM` Type-II workload (News20 text
//! classification). Only the final hidden state feeds the classifier head, so
//! the backward pass starts from `∂L/∂h_T` and unrolls backwards through every
//! timestep, producing gradients for both weights and the embedded inputs.
//!
//! A step costs its transcendentals more than its small GEMMs: three
//! sigmoids and two `tanh`s per hidden unit forward. They run as the
//! branch-free lanes of `crate::lanes`, bit-equal to the libm calls they
//! replace, over whole gate blocks, in one pass per row that also forms
//! `c = f⊙c_prev + i⊙g` and `h = o⊙tanh(c)`, compiled for the widest of
//! AVX2 + FMA and AVX-512F the CPU has. A training forward records each step in
//! flat buffers, and `backward` frees each step as it is done with it, so
//! no model keeps a cache past its backward. The backward reads the
//! forward's `tanh(c)` instead of taking it again and runs its element-wise
//! chain (`∂c`, the four clipped gate gradients, `∂c_{t−1}`) as one pass
//! per element. Every element's IEEE operations stay in the order the
//! tensor-at-a-time cell took them: `crates/dnn/tests/lstm_determinism.rs`
//! holds that cell, frozen, and compares bit for bit.

use pipetune_tensor::{Tensor, TensorError, Workspace};
use rand::Rng;

use crate::lanes::{self, Isa};
use crate::param::Param;

/// One step as a training forward records it for `backward`: row-major
/// `[b, ·]` buffers.
///
/// A buffer per quantity and step, as the tensor-at-a-time cell had, not
/// one for all steps: freed every batch, a buffer that large went back to
/// the kernel and the next forward faulted its pages in again, which cost a
/// fresh process more than the step's arithmetic (`docs/performance.md`,
/// § The LSTM step).
#[derive(Debug, Clone)]
struct Step {
    x: Vec<f32>,      // [b, d] input at this step
    h_prev: Vec<f32>, // [b, h]
    c_prev: Vec<f32>, // [b, h]
    gates: Vec<f32>,  // [b, 4h] post-activation, [i, f, g, o] a row
    tanh_c: Vec<f32>, // [b, h] tanh of the new cell state: h = o ⊙ tanh_c
}

impl Step {
    /// Zeroed buffers for `b` rows; an evaluation step (`train` false)
    /// records neither the input nor the hidden state.
    fn zeros(b: usize, d: usize, h: usize, train: bool) -> Self {
        let kept = usize::from(train);
        Step {
            x: vec![0.0; kept * b * d],
            h_prev: vec![0.0; kept * b * h],
            c_prev: vec![0.0; b * h],
            gates: vec![0.0; b * 4 * h],
            tanh_c: vec![0.0; b * h],
        }
    }
}

/// Single-layer LSTM over batches of equal-length embedded sequences.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: Param,   // [d, 4h]
    wh: Param,   // [h, 4h]
    bias: Param, // [4h]
    input_dim: usize,
    hidden: usize,
    /// The batch size and steps the last training forward recorded, until
    /// `backward` takes them.
    cache: Option<(usize, Vec<Step>)>,
    /// Scratch arena shared by every GEMM; clones start empty.
    ws: Workspace,
}

impl LstmCell {
    /// Creates an LSTM with `input_dim` inputs and `hidden` units.
    ///
    /// The forget-gate bias is initialised to 1.0, the standard trick that
    /// keeps early training stable.
    pub fn new<R: Rng>(input_dim: usize, hidden: usize, rng: &mut R) -> Self {
        let std_x = (1.0 / input_dim as f32).sqrt();
        let std_h = (1.0 / hidden as f32).sqrt();
        let mut bias = Tensor::zeros(&[4 * hidden]);
        // Gate order: [i, f, g, o]; forget gate occupies the second block.
        for j in hidden..2 * hidden {
            bias.data_mut()[j] = 1.0;
        }
        LstmCell {
            wx: Param::new(Tensor::randn(&[input_dim, 4 * hidden], std_x, rng)),
            wh: Param::new(Tensor::randn(&[hidden, 4 * hidden], std_h, rng)),
            bias: Param::new(bias),
            input_dim,
            hidden,
            cache: None,
            ws: Workspace::new(),
        }
    }

    /// Hidden-state dimensionality.
    pub(crate) fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the LSTM over `[batch, time, input_dim]` and returns the final
    /// hidden state `[batch, hidden]`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the input is not rank 3 with the configured
    /// feature dimension.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        if x.shape().rank() != 3 {
            return Err(TensorError::RankMismatch { expected: 3, actual: x.shape().rank() });
        }
        let (b, t, d) = (x.shape().dims()[0], x.shape().dims()[1], x.shape().dims()[2]);
        if d != self.input_dim {
            return Err(TensorError::ShapeMismatch {
                expected: vec![b, t, self.input_dim],
                actual: x.shape().dims().to_vec(),
            });
        }
        let h = self.hidden;
        let isa = lanes::isa();
        let mut x_step = Tensor::zeros(&[b, d]);
        let mut xw = Tensor::zeros(&[b, 4 * h]);
        // h₀·Wh is +0.0 everywhere: every product is ±0.0 or, against a
        // non-finite weight, skipped, and the sum starts at +0.0.
        let mut hw = Tensor::zeros(&[b, 4 * h]);
        let mut h_t = Tensor::zeros(&[b, h]);
        let mut c_t = vec![0.0f32; b * h];
        // A training forward keeps every step; an evaluation one reuses one
        // step's buffers, without the input and the hidden state.
        let mut steps = Vec::with_capacity(if train { t } else { 0 });
        let mut spare = None;
        for step in 0..t {
            let mut s = spare.take().unwrap_or_else(|| Step::zeros(b, d, h, train));
            for (bi, row) in x_step.data_mut().chunks_exact_mut(d.max(1)).enumerate() {
                row.copy_from_slice(&x.data()[(bi * t + step) * d..][..d]);
            }
            x_step.matmul_into(self.wx.value(), &mut xw, &mut self.ws)?;
            if step > 0 {
                h_t.matmul_into(self.wh.value(), &mut hw, &mut self.ws)?;
            }
            if train {
                s.x.copy_from_slice(x_step.data());
                s.h_prev.copy_from_slice(h_t.data());
            }
            s.c_prev.copy_from_slice(&c_t);
            cell_step(
                isa,
                xw.data(),
                hw.data(),
                self.bias.value().data(),
                &mut s.gates,
                &s.c_prev,
                &mut c_t,
                &mut s.tanh_c,
                h_t.data_mut(),
            );
            if train {
                steps.push(s);
            } else {
                spare = Some(s);
            }
        }
        self.cache = train.then_some((b, steps));
        Ok(h_t)
    }

    /// Backpropagates from the gradient of the final hidden state, returning
    /// the gradient with respect to the embedded input `[batch, time, dim]`.
    ///
    /// Per-element gate gradients are clipped to ±5 to keep long unrolls
    /// stable, mirroring standard practice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `grad_h_last` is not a
    /// matrix, [`TensorError::Empty`] before a training-mode forward pass,
    /// and a shape error when `grad_h_last` is not `[batch, hidden]`.
    pub fn backward(&mut self, grad_h_last: &Tensor) -> Result<Tensor, TensorError> {
        if grad_h_last.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: grad_h_last.shape().rank(),
            });
        }
        let (batch, mut steps) = self.cache.take().ok_or(TensorError::Empty)?;
        let (h, d) = (self.hidden, self.input_dim);
        let (b, t) = (grad_h_last.shape().dims()[0], steps.len());
        if t > 0 && grad_h_last.shape().dims() != [batch, h] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![batch, h],
                actual: grad_h_last.shape().dims().to_vec(),
            });
        }
        // `a·Wᵀ` as `a·(Wᵀ)`, and `aᵀ·dz` with `aᵀ` formed: the products
        // `matmul_nt_with` / `matmul_tn_with` take, in their order, without
        // a transpose and an output allocated per call.
        let wh_t = self.wh.value().transpose()?;
        let wx_t = self.wx.value().transpose()?;
        let mut dh = grad_h_last.clone();
        let mut dc = vec![0.0f32; b * h];
        let mut dz = Tensor::zeros(&[b, 4 * h]);
        let (mut x_tr, mut h_tr) = (Tensor::zeros(&[d, b]), Tensor::zeros(&[h, b]));
        let (mut gx, mut gh) = (Tensor::zeros(&[d, 4 * h]), Tensor::zeros(&[h, 4 * h]));
        let mut dx_step = Tensor::zeros(&[b, d]);
        let mut dx_all = Tensor::zeros(&[b, t, d]);
        let mut gwx = Tensor::zeros(&[d, 4 * h]);
        let mut gwh = Tensor::zeros(&[h, 4 * h]);
        let mut gb = Tensor::zeros(&[4 * h]);
        let mut col_sums = vec![0.0f32; 4 * h];
        let isa = lanes::isa();
        // Each step's buffers go as soon as the step is done.
        while let Some(Step { x: xs, h_prev, c_prev, gates, tanh_c }) = steps.pop() {
            let step = steps.len();
            chain_step(isa, h, dh.data(), &gates, &c_prev, &tanh_c, &mut dc, dz.data_mut());
            // ∂Wx += x_stepᵀ·dz, ∂Wh += h_prevᵀ·dz, ∂b += Σ_rows dz.
            transpose_into(&xs, x_tr.data_mut(), b, d);
            x_tr.matmul_into(&dz, &mut gx, &mut self.ws)?;
            gwx.axpy(1.0, &gx)?;
            transpose_into(&h_prev, h_tr.data_mut(), b, h);
            h_tr.matmul_into(&dz, &mut gh, &mut self.ws)?;
            gwh.axpy(1.0, &gh)?;
            col_sums.fill(0.0);
            for bi in 0..b {
                for (sum, &v) in col_sums.iter_mut().zip(&dz.data()[bi * 4 * h..][..4 * h]) {
                    *sum += v;
                }
            }
            // `gb.axpy(1.0, &dz.sum_rows()?)` without its two allocations.
            for (g, &sum) in gb.data_mut().iter_mut().zip(&col_sums) {
                *g += 1.0 * sum;
            }
            dz.matmul_into(&wx_t, &mut dx_step, &mut self.ws)?;
            for bi in 0..b {
                let dst = &mut dx_all.data_mut()[(bi * t + step) * d..][..d];
                for (acc, &v) in dst.iter_mut().zip(&dx_step.data()[bi * d..][..d]) {
                    *acc += v;
                }
            }
            if step > 0 {
                dz.matmul_into(&wh_t, &mut dh, &mut self.ws)?;
            }
        }
        self.wx.accumulate(&gwx)?;
        self.wh.accumulate(&gwh)?;
        self.bias.accumulate(&gb)?;
        Ok(dx_all)
    }

    /// Visits the LSTM's parameters (input weights, recurrent weights, bias).
    pub fn visit_params(&mut self, v: &mut dyn FnMut(&mut Param)) {
        v(&mut self.wx);
        v(&mut self.wh);
        v(&mut self.bias);
    }

    /// Number of scalar parameters.
    pub(crate) fn num_params(&self) -> usize {
        self.wx.len() + self.wh.len() + self.bias.len()
    }
}

/// `dst (cols×rows) = srcᵀ` for a row-major `src (rows×cols)`.
fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    for (i, row) in src.chunks_exact(cols.max(1)).take(rows).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// One step of every row, through the build of [`step_body`] for `isa`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn cell_step(
    isa: Isa,
    xw: &[f32],
    hw: &[f32],
    bias: &[f32],
    gates: &mut [f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h_out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    match isa {
        // SAFETY: `isa` comes from `lanes::isa`, a runtime check of the
        // features each build enables.
        Isa::Avx512 => unsafe { step_avx512(xw, hw, bias, gates, c_prev, c, tanh_c, h_out) },
        // SAFETY: as above.
        Isa::Avx2Fma => unsafe { step_avx2_fma(xw, hw, bias, gates, c_prev, c, tanh_c, h_out) },
        Isa::Portable => step_body(xw, hw, bias, gates, c_prev, c, tanh_c, h_out),
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        step_body(xw, hw, bias, gates, c_prev, c, tanh_c, h_out);
    }
}

/// [`step_body`] compiled with AVX2 and FMA, so the lanes vectorise and
/// `expf`'s `mul_add`s are single instructions. Rust never contracts
/// `a * b + c` by itself, so every other operation stays as written.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA (checked by `lanes::isa`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn step_avx2_fma(
    xw: &[f32],
    hw: &[f32],
    bias: &[f32],
    gates: &mut [f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h_out: &mut [f32],
) {
    step_body(xw, hw, bias, gates, c_prev, c, tanh_c, h_out);
}

/// [`step_body`] compiled with AVX-512F as well: 16 lanes a vector, the
/// same bits.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA (checked by `lanes::isa`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn step_avx512(
    xw: &[f32],
    hw: &[f32],
    bias: &[f32],
    gates: &mut [f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h_out: &mut [f32],
) {
    step_body(xw, hw, bias, gates, c_prev, c, tanh_c, h_out);
}

/// The backward's element-wise chain for one step, through the build of
/// [`chain_body`] for `isa`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn chain_step(
    isa: Isa,
    h: usize,
    dh: &[f32],
    gates: &[f32],
    c_prev: &[f32],
    tanh_c: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    match isa {
        // SAFETY: `isa` comes from `lanes::isa`, a runtime check of the
        // features each build enables.
        Isa::Avx512 => unsafe { chain_avx512(h, dh, gates, c_prev, tanh_c, dc, dz) },
        // SAFETY: as above.
        Isa::Avx2Fma => unsafe { chain_avx2_fma(h, dh, gates, c_prev, tanh_c, dc, dz) },
        Isa::Portable => chain_body(h, dh, gates, c_prev, tanh_c, dc, dz),
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        chain_body(h, dh, gates, c_prev, tanh_c, dc, dz);
    }
}

/// [`chain_body`] compiled with AVX2 and FMA (no product is fused: Rust
/// never contracts).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA (checked by `lanes::isa`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn chain_avx2_fma(
    h: usize,
    dh: &[f32],
    gates: &[f32],
    c_prev: &[f32],
    tanh_c: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    chain_body(h, dh, gates, c_prev, tanh_c, dc, dz);
}

/// [`chain_body`] compiled with AVX-512F as well.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA (checked by `lanes::isa`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn chain_avx512(
    h: usize,
    dh: &[f32],
    gates: &[f32],
    c_prev: &[f32],
    tanh_c: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    chain_body(h, dh, gates, c_prev, tanh_c, dc, dz);
}

/// One pass per element of every row, each product in the order the
/// tensor-at-a-time chain took it: `dc += dh ⊙ o ⊙ (1 − tanh²c)` (the
/// chain's `axpy(1.0, ·)`: multiplying by one is exact), then the four
/// pre-activation gradients, clipped to ±5 for stability and packed
/// `[b, 4h]` in `[i, f, g, o]` order into `dz`, and `dc ← dc ⊙ f`.
#[inline(always)]
fn chain_body(
    h: usize,
    dh: &[f32],
    gates: &[f32],
    c_prev: &[f32],
    tanh_c: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    let clip = |v: f32| v.clamp(-5.0, 5.0);
    // `max(1)`: with no hidden units every buffer is empty.
    let h = h.max(1);
    let rows = dz.chunks_exact_mut(4 * h).zip(gates.chunks_exact(4 * h));
    let cells = dc.chunks_exact_mut(h).zip(dh.chunks_exact(h));
    let saved = c_prev.chunks_exact(h).zip(tanh_c.chunks_exact(h));
    for ((dz, g), ((dc, dh), (cp, tc))) in rows.zip(cells.zip(saved)) {
        let (dz_i, dz) = dz.split_at_mut(h);
        let (dz_f, dz) = dz.split_at_mut(h);
        let (dz_g, dz_o) = dz.split_at_mut(h);
        let (gi, gf, gg, go) = (&g[..h], &g[h..2 * h], &g[2 * h..3 * h], &g[3 * h..4 * h]);
        let (dz_o, dc, dh, cp, tc) = (&mut dz_o[..h], &mut dc[..h], &dh[..h], &cp[..h], &tc[..h]);
        for j in 0..h {
            let (i, f, g, o, t) = (gi[j], gf[j], gg[j], go[j], tc[j]);
            let dce = dc[j] + dh[j] * o * (1.0 - t * t);
            dz_i[j] = clip(dce * g * i * (1.0 - i));
            dz_f[j] = clip(dce * cp[j] * f * (1.0 - f));
            dz_g[j] = clip(dce * i * (1.0 - g * g));
            dz_o[j] = clip(dh[j] * t * o * (1.0 - o));
            dc[j] = dce * f;
        }
    }
}

/// One step's element-wise work for every row, `h = bias.len() / 4` units
/// each: `z = (x·Wx + h·Wh) + b` into `gates`, `σ` over the `i`, `f` and
/// `o` blocks and `tanh` over `g` in place, then `c = f⊙c_prev + i⊙g`,
/// `tanh(c)` and `h = o⊙tanh(c)`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step_body(
    xw: &[f32],
    hw: &[f32],
    bias: &[f32],
    gates: &mut [f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h_out: &mut [f32],
) {
    // `max(1)`: with no hidden units every buffer is empty, and so is
    // every zip below.
    let h = (bias.len() / 4).max(1);
    let rows =
        gates.chunks_exact_mut(4 * h).zip(xw.chunks_exact(4 * h).zip(hw.chunks_exact(4 * h)));
    let cells = c_prev.chunks_exact(h).zip(c.chunks_exact_mut(h));
    let outs = tanh_c.chunks_exact_mut(h).zip(h_out.chunks_exact_mut(h));
    for (((z, (xw, hw)), (cp, cn)), (tc, ho)) in rows.zip(cells).zip(outs) {
        for (((z, &a), &b), &bias) in z.iter_mut().zip(xw).zip(hw).zip(bias) {
            *z = (a + b) + bias;
        }
        let (i_f, g_o) = z.split_at_mut(2 * h);
        let (g, o) = g_o.split_at_mut(h);
        // `for` loops, not `for_each`: a closure this size is not inlined,
        // and a call leaves the wide build.
        for v in i_f.iter_mut() {
            *v = lanes::sigmoid(*v);
        }
        for v in g.iter_mut() {
            *v = lanes::tanh(*v);
        }
        for v in o.iter_mut() {
            *v = lanes::sigmoid(*v);
        }
        let (i, f) = i_f.split_at(h);
        for ((((cn, &cp), &i), &f), &g) in cn.iter_mut().zip(cp.iter()).zip(i).zip(f).zip(g.iter())
        {
            *cn = f * cp + i * g;
        }
        for (tc, &cn) in tc.iter_mut().zip(cn.iter()) {
            *tc = lanes::tanh(cn);
        }
        for ((ho, &o), &tc) in ho.iter_mut().zip(o.iter()).zip(tc.iter()) {
            *ho = o * tc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_and_determinism() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let mut a = LstmCell::new(4, 6, &mut r1);
        let mut b = LstmCell::new(4, 6, &mut r2);
        let x = Tensor::randn(&[3, 5, 4], 1.0, &mut r1);
        let ya = a.forward(&x, false).unwrap();
        let yb = b.forward(&x, false).unwrap();
        assert_eq!(ya.shape().dims(), &[3, 6]);
        assert_eq!(ya, yb);
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cell = LstmCell::new(2, 3, &mut rng);
        assert!(cell.backward(&Tensor::ones(&[1, 3])).is_err());
    }

    #[test]
    fn backward_refuses_a_gradient_that_is_not_a_matrix() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cell = LstmCell::new(2, 3, &mut rng);
        cell.forward(&Tensor::ones(&[1, 4, 2]), true).unwrap();
        let scalar = Tensor::from_vec(vec![1.0], &[]).unwrap();
        assert_eq!(
            cell.backward(&scalar).unwrap_err(),
            TensorError::RankMismatch { expected: 2, actual: 0 }
        );
        cell.forward(&Tensor::ones(&[1, 4, 2]), true).unwrap();
        assert!(matches!(
            cell.backward(&Tensor::ones(&[2, 3])),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn weight_gradient_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cell = LstmCell::new(3, 4, &mut rng);
        let x = Tensor::randn(&[2, 3, 3], 0.5, &mut rng);
        // Loss = sum(h_T).
        let _h = cell.forward(&x, true).unwrap();
        cell.backward(&Tensor::ones(&[2, 4])).unwrap();
        let analytic = cell.wx.grad().clone();
        let eps = 1e-2f32;
        for probe in [0usize, 7, 11] {
            let orig = cell.wx.value().data()[probe];
            cell.wx.value_mut().data_mut()[probe] = orig + eps;
            let fp = cell.forward(&x, false).unwrap().sum();
            cell.wx.value_mut().data_mut()[probe] = orig - eps;
            let fm = cell.forward(&x, false).unwrap().sum();
            cell.wx.value_mut().data_mut()[probe] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = analytic.data()[probe];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()), "probe {probe}: {num} vs {ana}");
        }
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut cell = LstmCell::new(2, 3, &mut rng);
        let x = Tensor::randn(&[1, 4, 2], 0.5, &mut rng);
        let _ = cell.forward(&x, true).unwrap();
        let dx = cell.backward(&Tensor::ones(&[1, 3])).unwrap();
        let eps = 1e-2f32;
        for probe in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let fp = cell.forward(&xp, false).unwrap().sum();
            let fm = cell.forward(&xm, false).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = dx.data()[probe];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()), "probe {probe}: {num} vs {ana}");
        }
    }

    #[test]
    fn rejects_wrong_input_dim() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cell = LstmCell::new(4, 6, &mut rng);
        let x = Tensor::zeros(&[3, 5, 2]);
        assert!(cell.forward(&x, false).is_err());
    }
}
