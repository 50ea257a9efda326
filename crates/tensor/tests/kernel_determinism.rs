//! Pins the kernels' summation-order contract (`docs/performance.md`): the
//! blocked GEMM behind `Tensor::matmul{,_tn,_nt}`, the two convolution
//! lowerings behind `conv2d_gemm_with` and the backward pass behind
//! `conv2d_backward_with` (direct on large planes, over the im2col unfold on
//! small ones) must reproduce, bit for bit, the kernels this repository
//! shipped before them — frozen below, never to be "improved".
//!
//! Equality is on `f32::to_bits`, over the shapes the workloads issue and
//! the edges of every blocking parameter, with ±0.0, NaN, ±∞ and denormals
//! injected into each operand in turn: the zero-skip rule is observable
//! exactly there. The backward also meets output gradients shaped like the
//! ones training hands it, at least three in four zero after max-pooling
//! and a ReLU. One exception to "bit for bit": two NaNs count as equal
//! whatever their payload, which IEEE 754 leaves to the implementation (it
//! depends on the operand order the compiler picks for a commutative add).

use pipetune_tensor::{conv2d_backward_with, conv2d_gemm_with, Tensor, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Frozen reference kernels.
// ---------------------------------------------------------------------

/// The streaming i-k-j product with the zero-skip on `A`: what
/// `Tensor::matmul` computed before any blocking.
fn frozen_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
    out
}

fn transposed(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut dst = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            dst[j * rows + i] = src[i * cols + j];
        }
    }
    dst
}

/// The im2col + GEMM convolution forward: unfold to `[n·oh·ow, cin·kh·kw]`,
/// multiply by the transposed kernel matrix with [`frozen_gemm`], add the
/// bias, scatter to NCHW.
fn frozen_conv2d_gemm(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Vec<f32> {
    let wd = weight.shape().dims();
    let (cout, cin, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let d = input.shape().dims();
    let (n, h, w) = (d[0], d[2], d[3]);
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let (rows, k) = (n * oh * ow, cin * kh * kw);
    let x = input.data();

    let mut cols = vec![0.0f32; rows * k];
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * k;
                for ic in 0..cin {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            cols[row + (ic * kh + ky) * kw + kx] =
                                x[((b * cin + ic) * h + oy + ky) * w + ox + kx];
                        }
                    }
                }
            }
        }
    }
    let wmat = transposed(weight.data(), cout, k);
    let prod = frozen_gemm(&cols, &wmat, rows, k, cout);
    let mut out = vec![0.0f32; n * cout * oh * ow];
    for b in 0..n {
        for pos in 0..oh * ow {
            for oc in 0..cout {
                out[(b * cout + oc) * oh * ow + pos] =
                    prod[(b * oh * ow + pos) * cout + oc] + bias.data()[oc];
            }
        }
    }
    out
}

/// The direct-loop convolution backward: one sweep over `(b, oc, oy, ox)`,
/// skipping zero output gradients. Returns `(∂x, ∂W, ∂b)`.
fn frozen_conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let d = input.shape().dims();
    let (n, cin, h, w) = (d[0], d[1], d[2], d[3]);
    let wd = weight.shape().dims();
    let (cout, kh, kw) = (wd[0], wd[2], wd[3]);
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let (x, k, g) = (input.data(), weight.data(), grad_output.data());
    let mut gx = vec![0.0f32; x.len()];
    let mut gk = vec![0.0f32; k.len()];
    let mut gb = vec![0.0f32; cout];
    for b in 0..n {
        for oc in 0..cout {
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = g[((b * cout + oc) * oh + oy) * ow + ox];
                    if gv == 0.0 {
                        continue;
                    }
                    gb[oc] += gv;
                    for ic in 0..cin {
                        for ky in 0..kh {
                            let xrow = ((b * cin + ic) * h + (oy + ky)) * w + ox;
                            let krow = ((oc * cin + ic) * kh + ky) * kw;
                            for kx in 0..kw {
                                gk[krow + kx] += gv * x[xrow + kx];
                                gx[xrow + kx] += gv * k[krow + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    (gx, gk, gb)
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

/// A tensor of normal draws with a third of them zeroed — the zero-skip
/// must have something to skip — and, when `poisoned`, one element in
/// sixteen replaced by a special value.
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

fn same_bits(want: &[f32], got: &[f32]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("length {} vs {}", want.len(), got.len()));
    }
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w.to_bits() != g.to_bits() && !(w.is_nan() && g.is_nan()) {
            return Err(format!(
                "element {i}: want {w:e} ({:#010x}), got {g:e} ({:#010x})",
                w.to_bits(),
                g.to_bits()
            ));
        }
    }
    Ok(())
}

/// `A (m×k) · B (k×n)` through all three public entry points against
/// [`frozen_gemm`], clean and with each operand poisoned in turn.
fn check_gemm(
    m: usize,
    k: usize,
    n: usize,
    rng: &mut StdRng,
    ws: &mut Workspace,
) -> Result<(), String> {
    for poisoned in [None, Some(0), Some(1)] {
        let a = operand(&[m, k], poisoned == Some(0), rng);
        let b = operand(&[k, n], poisoned == Some(1), rng);
        let want = frozen_gemm(a.data(), b.data(), m, k, n);
        let a_t = Tensor::from_vec(transposed(a.data(), m, k), &[k, m]).unwrap();
        let b_t = Tensor::from_vec(transposed(b.data(), k, n), &[n, k]).unwrap();
        let ctx = |name: &str, e: String| format!("{name} {m}x{k}x{n} poisoned {poisoned:?}: {e}");
        same_bits(&want, a.matmul_with(&b, ws).unwrap().data()).map_err(|e| ctx("nn", e))?;
        same_bits(&want, a_t.matmul_tn_with(&b, ws).unwrap().data()).map_err(|e| ctx("tn", e))?;
        same_bits(&want, a.matmul_nt_with(&b_t, ws).unwrap().data()).map_err(|e| ctx("nt", e))?;
    }
    Ok(())
}

/// One convolution `(batch, cin, cout, ksize, hw)`, forward and backward,
/// clean and with each operand poisoned in turn.
fn check_conv(
    [batch, cin, cout, ksize, hw]: [usize; 5],
    backward: bool,
    rng: &mut StdRng,
    ws: &mut Workspace,
) -> Result<(), String> {
    let o = hw - ksize + 1;
    for poisoned in [None, Some(0), Some(1), Some(2)] {
        let x = operand(&[batch, cin, hw, hw], poisoned == Some(0), rng);
        let w = operand(&[cout, cin, ksize, ksize], poisoned == Some(1), rng);
        let ctx = |name: &str, e: String| {
            format!("{name} b{batch} c{cin} o{cout} k{ksize} s{hw} poisoned {poisoned:?}: {e}")
        };

        let bias = operand(&[cout], poisoned == Some(2), rng);
        let got = conv2d_gemm_with(&x, &w, &bias, ws).unwrap();
        same_bits(&frozen_conv2d_gemm(&x, &w, &bias), got.data()).map_err(|e| ctx("forward", e))?;
        if !backward {
            continue;
        }

        let g = operand(&[batch, cout, o, o], poisoned == Some(2), rng);
        let (gx, gk, gb) = frozen_conv2d_backward(&x, &w, &g);
        let full = conv2d_backward_with(&x, &w, &g, true, ws).unwrap();
        same_bits(&gx, full.grad_input.as_ref().expect("asked for").data())
            .map_err(|e| ctx("∂x", e))?;
        same_bits(&gk, full.grad_weight.data()).map_err(|e| ctx("∂W", e))?;
        same_bits(&gb, full.grad_bias.data()).map_err(|e| ctx("∂b", e))?;
        let params = conv2d_backward_with(&x, &w, &g, false, ws).unwrap();
        if params.grad_input.is_some() {
            return Err(ctx("∂x", "computed though switched off".into()));
        }
        same_bits(&gk, params.grad_weight.data()).map_err(|e| ctx("∂W without ∂x", e))?;
        same_bits(&gb, params.grad_bias.data()).map_err(|e| ctx("∂b without ∂x", e))?;
    }
    Ok(())
}

/// An output gradient shaped like one that came back through 2×2 max
/// pooling and a ReLU: in every 2×2 window of a plane one position, drawn
/// at random, holds a normal draw, kept with probability ½ — at least three
/// in four are zero, in no pattern. When `poisoned`, one element in sixteen
/// is then replaced by a special value.
fn pooled_grad(dims: &[usize], poisoned: bool, rng: &mut StdRng) -> Tensor {
    let (oh, ow) = (dims[2], dims[3]);
    let draws = Tensor::randn(dims, 1.0, rng);
    let mut g = Tensor::zeros(dims);
    for (plane, draw) in g.data_mut().chunks_exact_mut(oh * ow).zip(draws.data().chunks(oh * ow)) {
        for y0 in (0..oh).step_by(2) {
            for x0 in (0..ow).step_by(2) {
                let (y, x) = (y0 + rng.gen_range(0..2usize), x0 + rng.gen_range(0..2usize));
                if y < oh && x < ow && rng.gen_bool(0.5) {
                    plane[y * ow + x] = draw[y * ow + x];
                }
            }
        }
    }
    for v in g.data_mut() {
        if poisoned && rng.gen_range(0..16) == 0 {
            *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
        }
    }
    g
}

/// One convolution backward `(batch, cin, cout, ksize, hw)` against the
/// frozen kernel under a [`pooled_grad`], clean and with each operand
/// poisoned in turn, with and without the input gradient.
fn check_pooled_backward(
    [batch, cin, cout, ksize, hw]: [usize; 5],
    rng: &mut StdRng,
    ws: &mut Workspace,
) -> Result<(), String> {
    let o = hw - ksize + 1;
    for poisoned in [None, Some(0), Some(1), Some(2)] {
        let x = operand(&[batch, cin, hw, hw], poisoned == Some(0), rng);
        let w = operand(&[cout, cin, ksize, ksize], poisoned == Some(1), rng);
        let g = pooled_grad(&[batch, cout, o, o], poisoned == Some(2), rng);
        let ctx = |name: &str, e: String| {
            format!("{name} b{batch} c{cin} o{cout} k{ksize} s{hw} poisoned {poisoned:?}: {e}")
        };
        let (gx, gk, gb) = frozen_conv2d_backward(&x, &w, &g);
        let full = conv2d_backward_with(&x, &w, &g, true, ws).unwrap();
        same_bits(&gx, full.grad_input.as_ref().expect("asked for").data())
            .map_err(|e| ctx("∂x", e))?;
        same_bits(&gk, full.grad_weight.data()).map_err(|e| ctx("∂W", e))?;
        same_bits(&gb, full.grad_bias.data()).map_err(|e| ctx("∂b", e))?;
        let params = conv2d_backward_with(&x, &w, &g, false, ws).unwrap();
        same_bits(&gk, params.grad_weight.data()).map_err(|e| ctx("∂W without ∂x", e))?;
        same_bits(&gb, params.grad_bias.data()).map_err(|e| ctx("∂b without ∂x", e))?;
    }
    Ok(())
}

/// Every dense product one training step of LeNet5(16), TextCnn and
/// LstmClassifier issues (the benchmark's `gemm_inventory`).
fn gemm_inventory(batch: usize) -> [(usize, usize, usize); 8] {
    [
        (batch, 16, 120),
        (batch, 120, 84),
        (batch, 84, 10),
        (batch * 22, 96, 12),
        (batch, 12, 20),
        (batch, 32, 64),
        (batch, 16, 64),
        (batch, 16, 20),
    ]
}

/// `LeNet5::with_input_size(16)` and `(28)`: conv1 and conv2 of each, as
/// `(cin, cout, ksize, hw)`.
const LENET_CONVS: [[usize; 4]; 4] = [[1, 6, 5, 16], [6, 16, 5, 6], [1, 6, 5, 28], [6, 16, 5, 12]];

/// Batches either side of `Conv2d`'s direct-loop threshold (8), and the
/// two the tuning sessions issue.
const BATCHES: [usize; 5] = [7, 8, 9, 32, 256];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn workload_gemm_shapes_match_the_frozen_kernel(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = Workspace::new();
        for batch in [32, 256] {
            for (m, k, n) in gemm_inventory(batch) {
                if let Err(e) = check_gemm(m, k, n, &mut rng, &mut ws) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    #[test]
    fn lenet_convs_match_the_frozen_kernels(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = Workspace::new();
        for [cin, cout, ksize, hw] in LENET_CONVS {
            for batch in BATCHES {
                if let Err(e) = check_conv([batch, cin, cout, ksize, hw], true, &mut rng, &mut ws) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    /// The LeNet convolutions and output planes of 5×5, 6×6 and 7×7 — either
    /// side of the backward's direct / unfold threshold (36 positions) — at
    /// one and six input channels, under gradients shaped like training's.
    #[test]
    fn pooled_gradients_match_the_frozen_backward(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = Workspace::new();
        let planes = [[1, 6, 5, 9], [1, 6, 5, 10], [1, 6, 5, 11], [6, 16, 5, 10], [6, 16, 5, 11]];
        for [cin, cout, ksize, hw] in LENET_CONVS.into_iter().chain(planes) {
            for batch in BATCHES {
                if let Err(e) = check_pooled_backward([batch, cin, cout, ksize, hw], &mut rng, &mut ws) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    /// Every kernel width from 1 to 9 — the direct backward's 8-lane rows
    /// and the unfold past them — on an 8×8 output plane, above the
    /// threshold.
    #[test]
    fn every_kernel_width_matches_the_frozen_backward(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = Workspace::new();
        for ksize in 1..=9 {
            for batch in BATCHES {
                let shape = [batch, 2, 3, ksize, ksize + 7];
                if let Err(e) = check_pooled_backward(shape, &mut rng, &mut ws) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every column tail (`n` = 1..=20 covers each mix of 16-, 8-, 4- and
    /// 1-wide blocks), every row tail, panel depths either side of `KC`.
    #[test]
    fn narrow_outputs_and_row_tails_match_the_frozen_kernel(
        m in 1usize..=13,
        k in 1usize..=300,
        n in 1usize..=20,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(e) = check_gemm(m, k, n, &mut rng, &mut Workspace::new()) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Small convolutions of every orientation: `cout` either side of the
    /// register-tile width, planes that do and do not fill a block, kernel
    /// rows either side of the unfold's fixed 8-float copy.
    #[test]
    fn small_convs_match_the_frozen_kernels(
        batch in 1usize..=5,
        cin in 1usize..=3,
        cout in 1usize..=20,
        ksize in 1usize..=9,
        extra in 0usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = [batch, cin, cout, ksize, ksize + extra];
        if let Err(e) = check_conv(shape, true, &mut rng, &mut Workspace::new()) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Two convolutions larger than any workload issues: wide `cout`, several
/// `KC` panels deep. Forward only.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimised; CI runs this suite with --release")]
fn wide_cout_multi_panel_conv_shapes_match_the_frozen_kernel() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut ws = Workspace::new();
    for shape in [[8, 128, 512, 3, 32], [2, 256, 512, 3, 16]] {
        check_conv(shape, false, &mut rng, &mut ws).unwrap();
    }
}
