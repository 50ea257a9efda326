//! Pins `LstmCell` to the cell this repository shipped before its backward
//! reused the forward's tanh(c) and fused its element-wise chain into one
//! pass: the frozen copy below, never to be "improved".
//!
//! Equality is on `f32::to_bits` (two NaNs count as equal whatever their
//! payload, as in `crates/tensor/tests/kernel_determinism.rs`) for the
//! final hidden state of a training and of an evaluation forward, the input
//! gradient and the three parameter gradients. The shapes are the batches
//! the tuning sessions issue and the embedding widths of the search space,
//! with zeros, ±0.0, NaN, ±∞ and denormals injected into the input and into
//! the incoming gradient in turn, and the weights moved by an SGD step
//! between rounds.

use pipetune_dnn::{LstmCell, Param, Sgd, TrainConfig};
use pipetune_tensor::{Tensor, TensorError, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// The frozen cell.
// ---------------------------------------------------------------------

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The cell's parameters, read off a live `LstmCell`.
struct Weights {
    wx: Tensor,   // [d, 4h]
    wh: Tensor,   // [h, 4h]
    bias: Tensor, // [4h]
}

struct StepCache {
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    i: Tensor,
    f: Tensor,
    g: Tensor,
    o: Tensor,
    c: Tensor,
}

fn frozen_forward(
    w: &Weights,
    x: &Tensor,
    ws: &mut Workspace,
) -> Result<(Tensor, Vec<StepCache>), TensorError> {
    let (b, t, d) = (x.shape().dims()[0], x.shape().dims()[1], x.shape().dims()[2]);
    let h = w.wh.shape().dims()[0];
    let mut h_t = Tensor::zeros(&[b, h]);
    let mut c_t = Tensor::zeros(&[b, h]);
    let mut cache = Vec::new();
    for step in 0..t {
        let mut xs = Vec::with_capacity(b * d);
        for bi in 0..b {
            let off = (bi * t + step) * d;
            xs.extend_from_slice(&x.data()[off..off + d]);
        }
        let x_step = Tensor::from_vec(xs, &[b, d])?;
        let mut z = x_step.matmul_with(&w.wx, ws)?;
        z.axpy(1.0, &h_t.matmul_with(&w.wh, ws)?)?;
        z.add_row_broadcast_inplace(&w.bias)?;
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
        h_t = h_new;
        c_t = c_new;
    }
    Ok((h_t, cache))
}

/// Returns `(∂x, ∂Wx, ∂Wh, ∂b)`.
fn frozen_backward(
    w: &Weights,
    cache: &[StepCache],
    grad_h_last: &Tensor,
    ws: &mut Workspace,
) -> Result<[Tensor; 4], TensorError> {
    let t = cache.len();
    let (b, h) = (grad_h_last.shape().dims()[0], w.wh.shape().dims()[0]);
    let d = w.wx.shape().dims()[0];
    let mut dh = grad_h_last.clone();
    let mut dc = Tensor::zeros(&[b, h]);
    let mut dx_all = Tensor::zeros(&[b, t, d]);
    let mut gwx = Tensor::zeros(&[d, 4 * h]);
    let mut gwh = Tensor::zeros(&[h, 4 * h]);
    let mut gb = Tensor::zeros(&[4 * h]);
    for (step, sc) in cache.iter().enumerate().rev() {
        let tanh_c = sc.c.map(f32::tanh);
        let one_minus_t2 = tanh_c.map(|v| 1.0 - v * v);
        dc.axpy(1.0, &dh.mul(&sc.o)?.mul(&one_minus_t2)?)?;
        let do_ = dh.mul(&tanh_c)?;
        let di = dc.mul(&sc.g)?;
        let df = dc.mul(&sc.c_prev)?;
        let dg = dc.mul(&sc.i)?;
        let dc_prev = dc.mul(&sc.f)?;
        let clip = |v: f32| v.clamp(-5.0, 5.0);
        let dzi = di.zip_with(&sc.i, |dv, iv| clip(dv * iv * (1.0 - iv)))?;
        let dzf = df.zip_with(&sc.f, |dv, fv| clip(dv * fv * (1.0 - fv)))?;
        let dzg = dg.zip_with(&sc.g, |dv, gv| clip(dv * (1.0 - gv * gv)))?;
        let dzo = do_.zip_with(&sc.o, |dv, ov| clip(dv * ov * (1.0 - ov)))?;
        let mut dz = Tensor::zeros(&[b, 4 * h]);
        for bi in 0..b {
            for j in 0..h {
                dz.data_mut()[bi * 4 * h + j] = dzi.data()[bi * h + j];
                dz.data_mut()[bi * 4 * h + h + j] = dzf.data()[bi * h + j];
                dz.data_mut()[bi * 4 * h + 2 * h + j] = dzg.data()[bi * h + j];
                dz.data_mut()[bi * 4 * h + 3 * h + j] = dzo.data()[bi * h + j];
            }
        }
        gwx.axpy(1.0, &sc.x.matmul_tn_with(&dz, ws)?)?;
        gwh.axpy(1.0, &sc.h_prev.matmul_tn_with(&dz, ws)?)?;
        gb.axpy(1.0, &dz.sum_rows()?)?;
        let dx_step = dz.matmul_nt_with(&w.wx, ws)?;
        for bi in 0..b {
            let dst = (bi * t + step) * d;
            let src = bi * d;
            for k in 0..d {
                dx_all.data_mut()[dst + k] += dx_step.data()[src + k];
            }
        }
        dh = dz.matmul_nt_with(&w.wh, ws)?;
        dc = dc_prev;
    }
    Ok([dx_all, gwx, gwh, gb])
}

// ---------------------------------------------------------------------
// Inputs and comparison.
// ---------------------------------------------------------------------

const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-40,  // denormal
    -1.0e-40, // denormal
    f32::MIN_POSITIVE,
];

/// Normal draws with a third of them zeroed and, when `poisoned`, one
/// element in sixteen replaced by a special value.
fn operand(dims: &[usize], poisoned: bool, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::randn(dims, 1.0, rng);
    for v in t.data_mut() {
        if rng.gen_range(0..3) == 0 {
            *v = 0.0;
        }
        if poisoned && rng.gen_range(0..16) == 0 {
            *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
        }
    }
    t
}

fn same_bits(what: &str, want: &Tensor, got: &Tensor) -> Result<(), String> {
    if want.shape() != got.shape() {
        return Err(format!("{what}: shape {:?} vs {:?}", want.shape(), got.shape()));
    }
    for (i, (w, g)) in want.data().iter().zip(got.data()).enumerate() {
        if w.to_bits() != g.to_bits() && !(w.is_nan() && g.is_nan()) {
            return Err(format!(
                "{what} element {i}: want {w:e} ({:#010x}), got {g:e} ({:#010x})",
                w.to_bits(),
                g.to_bits()
            ));
        }
    }
    Ok(())
}

fn params(cell: &LstmCell) -> Vec<Param> {
    let mut out = Vec::new();
    cell.clone().visit_params(&mut |p: &mut Param| out.push(p.clone()));
    out
}

/// One forward/backward of a clone of `cell` (whose gradients are zero)
/// against the frozen cell on the same weights.
fn check_round(
    cell: &LstmCell,
    x: &Tensor,
    grad_h: &Tensor,
    ws: &mut Workspace,
) -> Result<(), String> {
    let [wx, wh, bias] = <[Param; 3]>::try_from(params(cell)).map_err(|_| "three parameters")?;
    let w = Weights { wx: wx.value().clone(), wh: wh.value().clone(), bias: bias.value().clone() };
    let (want_h, cache) = frozen_forward(&w, x, ws).map_err(|e| e.to_string())?;
    let [want_dx, want_gwx, want_gwh, want_gb] =
        frozen_backward(&w, &cache, grad_h, ws).map_err(|e| e.to_string())?;

    let mut live = cell.clone();
    let eval_h = live.forward(x, false).map_err(|e| e.to_string())?;
    same_bits("eval h", &want_h, &eval_h)?;
    let h = live.forward(x, true).map_err(|e| e.to_string())?;
    same_bits("h", &want_h, &h)?;
    let dx = live.backward(grad_h).map_err(|e| e.to_string())?;
    same_bits("∂x", &want_dx, &dx)?;
    let [gwx, gwh, gb] = <[Param; 3]>::try_from(params(&live)).map_err(|_| "three parameters")?;
    same_bits("∂Wx", &want_gwx, gwx.grad())?;
    same_bits("∂Wh", &want_gwh, gwh.grad())?;
    same_bits("∂b", &want_gb, gb.grad())
}

const HIDDEN: usize = 16;
const STEPS: usize = 12;

#[test]
fn lstm_cell_matches_the_frozen_cell_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(2718);
    let mut ws = Workspace::new();
    let sgd = Sgd::from_config(&TrainConfig { learning_rate: 0.05, ..TrainConfig::default() });
    for batch in [7, 32, 160, 256] {
        for dim in [8, 16, 32, 64] {
            let mut cell = LstmCell::new(dim, HIDDEN, &mut rng);
            for round in 0..3 {
                for poisoned in [None, Some("x"), Some("∂h")] {
                    let x = operand(&[batch, STEPS, dim], poisoned == Some("x"), &mut rng);
                    let grad_h = operand(&[batch, HIDDEN], poisoned == Some("∂h"), &mut rng);
                    if let Err(e) = check_round(&cell, &x, &grad_h, &mut ws) {
                        panic!("batch {batch} dim {dim} round {round} poisoned {poisoned:?}: {e}");
                    }
                }
                // Move the weights for the next round along a clean gradient.
                let x = operand(&[batch, STEPS, dim], false, &mut rng);
                cell.forward(&x, true).unwrap();
                cell.backward(&operand(&[batch, HIDDEN], false, &mut rng)).unwrap();
                cell.visit_params(&mut |p: &mut Param| sgd.step(p));
            }
        }
    }
}
