//! A single-layer LSTM with full backpropagation through time.
//!
//! This powers the paper's `LSTM` Type-II workload (News20 text
//! classification). Only the final hidden state feeds the classifier head, so
//! the backward pass starts from `∂L/∂h_T` and unrolls backwards through every
//! timestep, producing gradients for both weights and the embedded inputs.
//!
//! A step costs its transcendentals more than its four small GEMMs: three
//! sigmoids and two `tanh`s per hidden unit forward, and a `tanh` is ~4× a
//! sigmoid. So the training forward keeps the `tanh(c)` it computes for
//! `h = o ⊙ tanh(c)`, and the backward reads it instead of taking it again,
//! then runs its element-wise chain (`∂c`, the four clipped gate gradients,
//! `∂c_{t−1}`) as one pass per element. Both keep every element's IEEE
//! operations in the order the tensor-at-a-time chain took them:
//! `crates/dnn/tests/lstm_determinism.rs` holds that chain, frozen, and
//! compares bit for bit.

use pipetune_tensor::{Tensor, TensorError, Workspace};
use rand::Rng;

use crate::param::Param;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-timestep cache recorded during a training-mode forward pass.
#[derive(Debug, Clone)]
struct StepCache {
    x: Tensor,      // [b, d] input at this step
    h_prev: Tensor, // [b, h]
    c_prev: Tensor, // [b, h]
    i: Tensor,      // [b, h] input gate (post-sigmoid)
    f: Tensor,      // forget gate
    g: Tensor,      // candidate (post-tanh)
    o: Tensor,      // output gate
    tanh_c: Tensor, // tanh of the new cell state: h = o ⊙ tanh_c
}

/// Single-layer LSTM over batches of equal-length embedded sequences.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: Param,   // [d, 4h]
    wh: Param,   // [h, 4h]
    bias: Param, // [4h]
    input_dim: usize,
    hidden: usize,
    cache: Option<Vec<StepCache>>,
    /// Scratch arena shared by every per-step GEMM; clones start empty.
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
        let mut h_t = Tensor::zeros(&[b, h]);
        let mut c_t = Tensor::zeros(&[b, h]);
        let mut cache = train.then(Vec::new);
        for step in 0..t {
            // Slice x[:, step, :] into [b, d].
            let mut xs = Vec::with_capacity(b * d);
            for bi in 0..b {
                let off = (bi * t + step) * d;
                xs.extend_from_slice(&x.data()[off..off + d]);
            }
            let x_step = Tensor::from_vec(xs, &[b, d])?;
            // z = x·Wx + h·Wh + b, fused in place: `axpy(1.0, ·)` and the
            // in-place bias broadcast are bit-identical to the allocating
            // `add`/`add_row_broadcast` chain they replaced.
            let mut z = x_step.matmul_with(self.wx.value(), &mut self.ws)?;
            z.axpy(1.0, &h_t.matmul_with(self.wh.value(), &mut self.ws)?)?;
            z.add_row_broadcast_inplace(self.bias.value())?;
            let mut i_g = Tensor::zeros(&[b, h]);
            let mut f_g = Tensor::zeros(&[b, h]);
            let mut g_g = Tensor::zeros(&[b, h]);
            let mut o_g = Tensor::zeros(&[b, h]);
            for bi in 0..b {
                for j in 0..h {
                    let base = bi * 4 * h;
                    i_g.data_mut()[bi * h + j] = sigmoid(z.data()[base + j]);
                    f_g.data_mut()[bi * h + j] = sigmoid(z.data()[base + h + j]);
                    g_g.data_mut()[bi * h + j] = z.data()[base + 2 * h + j].tanh();
                    o_g.data_mut()[bi * h + j] = sigmoid(z.data()[base + 3 * h + j]);
                }
            }
            let c_new = f_g.mul(&c_t)?.add(&i_g.mul(&g_g)?)?;
            let tanh_c = c_new.map(f32::tanh);
            let h_new = o_g.mul(&tanh_c)?;
            if let Some(cache) = cache.as_mut() {
                cache.push(StepCache {
                    x: x_step,
                    h_prev: h_t.clone(),
                    c_prev: c_t.clone(),
                    i: i_g,
                    f: f_g,
                    g: g_g,
                    o: o_g,
                    tanh_c,
                });
            }
            h_t = h_new;
            c_t = c_new;
        }
        self.cache = cache;
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
        let &[b, _] = grad_h_last.shape().dims() else {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: grad_h_last.shape().rank(),
            });
        };
        let cache = self.cache.take().ok_or(TensorError::Empty)?;
        let t = cache.len();
        let h = self.hidden;
        let d = self.input_dim;
        let mut dh = grad_h_last.clone();
        let mut dc = Tensor::zeros(&[b, h]);
        let mut dx_all = Tensor::zeros(&[b, t, d]);
        let mut gwx = Tensor::zeros(&[d, 4 * h]);
        let mut gwh = Tensor::zeros(&[h, 4 * h]);
        let mut gb = Tensor::zeros(&[4 * h]);
        let clip = |v: f32| v.clamp(-5.0, 5.0);
        for (step, sc) in cache.iter().enumerate().rev() {
            if dh.shape() != sc.o.shape() {
                return Err(TensorError::ShapeMismatch {
                    expected: sc.o.shape().dims().to_vec(),
                    actual: dh.shape().dims().to_vec(),
                });
            }
            // One pass per element, each product in the order the
            // tensor-at-a-time chain took it: dc += dh ⊙ o ⊙ (1 − tanh²c)
            // (the chain's `axpy(1.0, ·)`: multiplying by one is exact),
            // then the four pre-activation gradients, clipped for stability
            // and packed [b, 4h] in [i, f, g, o] order, and dc ← dc ⊙ f.
            let mut dz = Tensor::zeros(&[b, 4 * h]);
            let (dz_all, dcs, dhs) = (dz.data_mut(), dc.data_mut(), dh.data());
            let (is, fs, gs, os) = (sc.i.data(), sc.f.data(), sc.g.data(), sc.o.data());
            let (cs, ts) = (sc.c_prev.data(), sc.tanh_c.data());
            for bi in 0..b {
                let dz_row = &mut dz_all[bi * 4 * h..][..4 * h];
                for j in 0..h {
                    let e = bi * h + j;
                    let (i, f, g, o, tc) = (is[e], fs[e], gs[e], os[e], ts[e]);
                    let dce = dcs[e] + dhs[e] * o * (1.0 - tc * tc);
                    dz_row[j] = clip(dce * g * i * (1.0 - i));
                    dz_row[h + j] = clip(dce * cs[e] * f * (1.0 - f));
                    dz_row[2 * h + j] = clip(dce * i * (1.0 - g * g));
                    dz_row[3 * h + j] = clip(dhs[e] * tc * o * (1.0 - o));
                    dcs[e] = dce * f;
                }
            }
            gwx.axpy(1.0, &sc.x.matmul_tn_with(&dz, &mut self.ws)?)?;
            gwh.axpy(1.0, &sc.h_prev.matmul_tn_with(&dz, &mut self.ws)?)?;
            gb.axpy(1.0, &dz.sum_rows()?)?;
            let dx_step = dz.matmul_nt_with(self.wx.value(), &mut self.ws)?;
            for bi in 0..b {
                let dst = (bi * t + step) * d;
                let src = bi * d;
                for k in 0..d {
                    dx_all.data_mut()[dst + k] += dx_step.data()[src + k];
                }
            }
            dh = dz.matmul_nt_with(self.wh.value(), &mut self.ws)?;
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
