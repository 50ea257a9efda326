//! A single-layer LSTM with full backpropagation through time.
//!
//! This powers the paper's `LSTM` Type-II workload (News20 text
//! classification). Only the final hidden state feeds the classifier head, so
//! the backward pass starts from `∂L/∂h_T` and unrolls backwards through every
//! timestep, producing gradients for both weights and the embedded inputs.

use pipetune_tensor::{Tensor, TensorError, Workspace};
use rand::Rng;

use crate::param::{Param, ParamVisitor};

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
    c: Tensor,      // new cell state
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
            let h_new = o_g.mul(&c_new.map(f32::tanh))?;
            if let Some(cache) = cache.as_mut() {
                cache.push(StepCache {
                    x: x_step,
                    h_prev: h_t.clone(),
                    c_prev: c_t.clone(),
                    i: i_g,
                    f: f_g,
                    g: g_g,
                    o: o_g,
                    c: c_new.clone(),
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
    /// Returns [`TensorError::Empty`] before a training-mode forward pass.
    pub fn backward(&mut self, grad_h_last: &Tensor) -> Result<Tensor, TensorError> {
        let cache = self.cache.take().ok_or(TensorError::Empty)?;
        let t = cache.len();
        let (b, h) = (grad_h_last.shape().dims()[0], self.hidden);
        let d = self.input_dim;
        let mut dh = grad_h_last.clone();
        let mut dc = Tensor::zeros(&[b, h]);
        let mut dx_all = Tensor::zeros(&[b, t, d]);
        let mut gwx = Tensor::zeros(&[d, 4 * h]);
        let mut gwh = Tensor::zeros(&[h, 4 * h]);
        let mut gb = Tensor::zeros(&[4 * h]);
        for (step, sc) in cache.iter().enumerate().rev() {
            let tanh_c = sc.c.map(f32::tanh);
            // dc += dh ⊙ o ⊙ (1 − tanh²c)
            let one_minus_t2 = tanh_c.map(|v| 1.0 - v * v);
            dc.axpy(1.0, &dh.mul(&sc.o)?.mul(&one_minus_t2)?)?;
            let do_ = dh.mul(&tanh_c)?;
            let di = dc.mul(&sc.g)?;
            let df = dc.mul(&sc.c_prev)?;
            let dg = dc.mul(&sc.i)?;
            let dc_prev = dc.mul(&sc.f)?;
            // Pre-activation gradients, clipped for stability.
            let clip = |v: f32| v.clamp(-5.0, 5.0);
            let dzi = di.zip_with(&sc.i, |dv, iv| clip(dv * iv * (1.0 - iv)))?;
            let dzf = df.zip_with(&sc.f, |dv, fv| clip(dv * fv * (1.0 - fv)))?;
            let dzg = dg.zip_with(&sc.g, |dv, gv| clip(dv * (1.0 - gv * gv)))?;
            let dzo = do_.zip_with(&sc.o, |dv, ov| clip(dv * ov * (1.0 - ov)))?;
            // Pack [b, 4h] gate-gradient matrix in [i, f, g, o] order.
            let mut dz = Tensor::zeros(&[b, 4 * h]);
            for bi in 0..b {
                for j in 0..h {
                    dz.data_mut()[bi * 4 * h + j] = dzi.data()[bi * h + j];
                    dz.data_mut()[bi * 4 * h + h + j] = dzf.data()[bi * h + j];
                    dz.data_mut()[bi * 4 * h + 2 * h + j] = dzg.data()[bi * h + j];
                    dz.data_mut()[bi * 4 * h + 3 * h + j] = dzo.data()[bi * h + j];
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
            dc = dc_prev;
        }
        self.wx.accumulate(&gwx)?;
        self.wh.accumulate(&gwh)?;
        self.bias.accumulate(&gb)?;
        Ok(dx_all)
    }

    /// Visits the LSTM's parameters (input weights, recurrent weights, bias).
    pub fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        v.visit(&mut self.wx);
        v.visit(&mut self.wh);
        v.visit(&mut self.bias);
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
