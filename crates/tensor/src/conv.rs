//! 2-D convolution and pooling primitives (NCHW layout, stride 1, no padding).
//!
//! These are the building blocks of the LeNet-5 reproduction in
//! `pipetune-dnn`. [`conv2d`] is the direct-loop forward pass — the
//! reference, and what `Conv2d` runs below a batch of 8; larger batches go
//! through the GEMM lowering in [`crate::conv2d_gemm_with`]. The backward
//! pass, [`conv2d_backward_with`], first compacts each output-gradient
//! plane to its non-zero entries — ReLU and max-pooling leave about three
//! in four zero, in no pattern a branch predictor learns — and works from
//! that list. On a large plane the kernel gradient is an 8-lane update per
//! kernel row straight from the input; on a small one it is one row update
//! as wide as the kernel over an im2col unfold, like the forward lowering.
//! The input gradient is an 8-lane update per kernel row against a
//! zero-padded copy of the kernel.

use crate::gemm::{all_finite, avx_available};
use crate::im2col::{samples_per_block, unfold_into};
use crate::{workspace, Tensor, TensorError, Workspace};

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, shaped like the forward input;
    /// `None` when the caller of [`conv2d_backward_with`] did not ask for it.
    pub grad_input: Option<Tensor>,
    /// Gradient with respect to the kernel weights.
    pub grad_weight: Tensor,
    /// Gradient with respect to the per-output-channel bias.
    pub grad_bias: Tensor,
}

fn check_rank4(t: &Tensor) -> Result<(usize, usize, usize, usize), TensorError> {
    if t.shape().rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: t.shape().rank() });
    }
    let d = t.shape().dims();
    Ok((d[0], d[1], d[2], d[3]))
}

/// Valid (no padding), stride-1 2-D convolution.
///
/// * `input`: `[batch, in_ch, h, w]`
/// * `weight`: `[out_ch, in_ch, kh, kw]`
/// * `bias`: `[out_ch]`
///
/// Returns `[batch, out_ch, h-kh+1, w-kw+1]`.
///
/// # Errors
///
/// Returns a shape/rank error when the operands do not line up or the kernel
/// is larger than the input.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    let (n, cin, h, w) = check_rank4(input)?;
    let (cout, cin2, kh, kw) = check_rank4(weight)?;
    if cin != cin2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![cout, cin, kh, kw],
            actual: weight.shape().dims().to_vec(),
        });
    }
    if bias.shape().dims() != [cout] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![cout],
            actual: bias.shape().dims().to_vec(),
        });
    }
    if kh > h || kw > w {
        return Err(TensorError::ShapeMismatch { expected: vec![h, w], actual: vec![kh, kw] });
    }
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let mut out = vec![0.0f32; n * cout * oh * ow];
    let x = input.data();
    let k = weight.data();
    for b in 0..n {
        for oc in 0..cout {
            let bias_v = bias.data()[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias_v;
                    for ic in 0..cin {
                        for ky in 0..kh {
                            let xrow = ((b * cin + ic) * h + (oy + ky)) * w + ox;
                            let krow = ((oc * cin + ic) * kh + ky) * kw;
                            for kx in 0..kw {
                                acc += x[xrow + kx] * k[krow + kx];
                            }
                        }
                    }
                    out[((b * cout + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, cout, oh, ow])
}

/// Backward pass of [`conv2d`]: given `grad_output` (shaped like the forward
/// output), computes gradients for input, weight and bias, drawing scratch
/// from this thread's shared [`Workspace`].
///
/// # Errors
///
/// Returns a shape/rank error when `grad_output` does not match the forward
/// output shape implied by `input` and `weight`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
) -> Result<Conv2dGrads, TensorError> {
    workspace::with_thread_local(|ws| conv2d_backward_with(input, weight, grad_output, true, ws))
}

/// [`conv2d_backward`] drawing its scratch from the caller's [`Workspace`]
/// — in steady state the only allocations are the returned tensors — and
/// computing the input gradient only when `input_grad` is set (a network's
/// first layer has nobody to hand it to).
///
/// Zero entries of `grad_output` are skipped: each `(b, oc)` plane is first
/// compacted, branch-free, to its non-zero entries in `(oy, ox)` order, and
/// everything below works from that list. Per element, in one accumulator
/// each: the bias and kernel gradients sum over `(batch, oy, ox)` ascending
/// and the input gradient over `(oc, oy, ox)` ascending. How the kernel
/// gradient gets there depends on the shape alone: a plane of at least
/// 36 positions with `kw ≤ 8` adds `g ·` one input row to
/// an 8-lane accumulator per kernel row and keeps the first `kw` lanes;
/// smaller planes (or wider kernels) add `g ·` one row of the im2col unfold
/// to the whole `cin·kh·kw` kernel row. The input gradient adds `g ·` one
/// kernel row per `(ic, ky)`, as 8 lanes against a zero-padded copy of the
/// kernel when `kw ≤ 8` and every gradient is finite — the padding lanes then
/// add exactly ±0.0, which changes no sum that started at +0.0 — and `kw`
/// lanes otherwise.
///
/// # Errors
///
/// Same conditions as [`conv2d_backward`], and a size error for an input
/// plane of more than `u32::MAX` values.
pub fn conv2d_backward_with(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    input_grad: bool,
    ws: &mut Workspace,
) -> Result<Conv2dGrads, TensorError> {
    let (n, cin, h, w) = check_rank4(input)?;
    let (cout, cin2, kh, kw) = check_rank4(weight)?;
    let (n2, cout2, oh, ow) = check_rank4(grad_output)?;
    if cin2 != cin || kh == 0 || kw == 0 || kh > h || kw > w {
        return Err(TensorError::ShapeMismatch {
            expected: vec![cout, cin, kh.min(h), kw.min(w)],
            actual: weight.shape().dims().to_vec(),
        });
    }
    if n2 != n || cout2 != cout || oh != h - kh + 1 || ow != w - kw + 1 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, cout, h - kh + 1, w - kw + 1],
            actual: grad_output.shape().dims().to_vec(),
        });
    }
    // The compacted list carries offsets into an input plane as `u32`s.
    if u32::try_from(h * w).is_err() {
        return Err(TensorError::SizeMismatch { expected: u32::MAX as usize, actual: h * w });
    }
    let x = input.data();
    let k = weight.data();
    let g = grad_output.data();
    let (plane, taps, sample) = (oh * ow, cin * kh * kw, cin * h * w);
    let direct = plane >= DIRECT_MIN_PLANE && kw <= LANES;
    let padded = input_grad && kw <= LANES && all_finite(g);
    let plan = Plan { cin, h, w, kh, kw, direct, padded };
    let mut gk = vec![0.0f32; k.len()];
    let mut gb = vec![0.0f32; cout];
    // Padded rows of the input gradient run up to `LANES − kw` values past
    // the last sample's end.
    let mut gx = vec![0.0f32; if input_grad { x.len() + LANES } else { 0 }];
    // The unfold block first: best fit then hands it the forward's unfold
    // buffer instead of growing a second one after a small take got it.
    let block = samples_per_block(n, plane);
    let mut cols = if direct { Vec::new() } else { ws.take(block * plane * taps) };
    let mut kpad = Vec::new();
    if padded {
        kpad = ws.take_zeroed(cout * cin * kh * LANES);
        for (dst, src) in kpad.chunks_exact_mut(LANES).zip(k.chunks_exact(kw)) {
            dst[..kw].copy_from_slice(src);
        }
    }
    // One output channel's kernel rows, as the input gradient reads them.
    let (k_rows, k_oc) = if padded { (&kpad[..], cin * kh * LANES) } else { (k, taps) };
    let mut list = ws.take(if direct { 2 * plane } else { 3 * plane });
    // Direct rows run up to `LANES − kw` values past their sample's end:
    // the last sample's are read from a zero-padded copy.
    let mut tail = if direct { ws.take_zeroed(sample + LANES) } else { Vec::new() };
    let avx = avx_available();
    for b0 in (0..n).step_by(block) {
        let nb = block.min(n - b0);
        if !direct {
            unfold_into(&x[b0 * sample..(b0 + nb) * sample], nb, cin, h, w, kh, kw, &mut cols);
        }
        for b in b0..b0 + nb {
            let rows = if !direct {
                &cols[(b - b0) * plane * taps..][..plane * taps]
            } else if (b + 1) * sample + LANES <= x.len() {
                &x[b * sample..][..sample + LANES]
            } else {
                tail[..sample].copy_from_slice(&x[b * sample..][..sample]);
                &tail[..]
            };
            let gx_b = if input_grad { &mut gx[b * sample..][..sample + LANES] } else { &mut [] };
            for oc in 0..cout {
                let g_plane = &g[(b * cout + oc) * plane..][..plane];
                let entries = if direct {
                    nonzeros::<false>(g_plane, ow, w, &mut list)
                } else {
                    nonzeros::<true>(g_plane, ow, w, &mut list)
                };
                for &gv in entries.g {
                    gb[oc] += gv;
                }
                plane_grads(
                    avx,
                    plan,
                    entries,
                    rows,
                    &k_rows[oc * k_oc..][..k_oc],
                    &mut gk[oc * taps..][..taps],
                    gx_b,
                );
            }
        }
    }
    gx.truncate(x.len());
    ws.give(kpad);
    ws.give(list);
    ws.give(cols);
    ws.give(tail);
    Ok(Conv2dGrads {
        grad_input: input_grad.then(|| Tensor::from_vec(gx, input.shape().dims())).transpose()?,
        grad_weight: Tensor::from_vec(gk, weight.shape().dims())?,
        grad_bias: Tensor::from_vec(gb, &[cout])?,
    })
}

/// Lanes of one kernel-row update in the backward pass: one AVX register.
const LANES: usize = 8;

/// The smallest output plane whose kernel gradient [`conv2d_backward_with`]
/// computes from the input rows directly rather than from an im2col unfold.
/// The unfold's update is one contiguous `cin·kh·kw`-wide row per entry
/// where the direct one spends a whole 8-lane register on each `kw`-wide
/// kernel row, so the direct form wins only once the unfold itself costs
/// more: LeNet's 2×2 second plane runs 3× slower direct, its 12×12 first
/// plane 2.5× faster, and at six input channels 4×4 and 5×5 planes are
/// still slower and 7×7 is a tie (`docs/performance.md`).
const DIRECT_MIN_PLANE: usize = 36;

/// What the per-plane kernels need of a backward call: its shape, and
/// which kernels the shape and the gradients chose.
#[derive(Clone, Copy)]
struct Plan {
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    /// The kernel gradient from the input rows, not the unfold.
    direct: bool,
    /// The input gradient in `LANES`-wide rows against a zero-padded kernel.
    padded: bool,
}

/// One output-gradient plane's non-zero entries, in `(oy, ox)` order.
#[derive(Clone, Copy)]
struct Entries<'a> {
    /// `oy·w + ox`, the window's corner in an input plane, as `u32` bits.
    off: &'a [f32],
    /// The gradient values.
    g: &'a [f32],
    /// `oy·ow + ox`, the window's row in the im2col unfold, as `u32` bits;
    /// empty unless asked for.
    pos: &'a [f32],
}

/// Compacts one output-gradient plane (`ow` wide, over input rows `w`
/// wide) into `list`, branch-free: every position is written, and only a
/// non-zero one moves the cursor on, so the skip is exactly `g == 0.0` —
/// NaN is kept, −0.0 is skipped. `list` holds two plane-sized regions, or
/// three with `POS`.
fn nonzeros<'a, const POS: bool>(
    g: &[f32],
    ow: usize,
    w: usize,
    list: &'a mut [f32],
) -> Entries<'a> {
    let plane = g.len();
    let (off, rest) = list.split_at_mut(plane);
    let (vals, pos) = rest.split_at_mut(plane);
    let mut len = 0;
    for (oy, row) in g.chunks_exact(ow).enumerate() {
        for (ox, &gv) in row.iter().enumerate() {
            off[len] = f32::from_bits((oy * w + ox) as u32);
            vals[len] = gv;
            if POS {
                pos[len] = f32::from_bits((oy * ow + ox) as u32);
            }
            len += usize::from(gv != 0.0);
        }
    }
    Entries { off: &off[..len], g: &vals[..len], pos: if POS { &pos[..len] } else { &[] } }
}

/// One `(b, oc)` plane's share of the kernel and input gradients, through
/// the AVX build of [`plane_body`] when `avx` is set.
#[inline]
fn plane_grads(
    avx: bool,
    plan: Plan,
    entries: Entries<'_>,
    rows: &[f32],
    k_rows: &[f32],
    gk: &mut [f32],
    gx: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx {
        // SAFETY: `avx` comes from `avx_available`, a runtime check.
        unsafe { plane_avx(plan, entries, rows, k_rows, gk, gx) };
        return;
    }
    let _ = avx;
    plane_body(plan, entries, rows, k_rows, gk, gx);
}

/// [`plane_body`] compiled with AVX (never `fma`) enabled, so an 8-lane
/// row update is one vector multiply and one vector add.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn plane_avx(
    plan: Plan,
    entries: Entries<'_>,
    rows: &[f32],
    k_rows: &[f32],
    gk: &mut [f32],
    gx: &mut [f32],
) {
    plane_body(plan, entries, rows, k_rows, gk, gx);
}

/// Adds one plane's `entries` to the kernel gradient `gk` of its output
/// channel and, unless `gx` is empty, to its sample's input gradient.
/// `rows` is the sample's input (`LANES` values readable past its end)
/// when `plan.direct`, its im2col rows otherwise; `k_rows` is the
/// channel's kernel, its rows zero-padded to `LANES` when `plan.padded`.
#[inline(always)]
fn plane_body(
    plan: Plan,
    entries: Entries<'_>,
    rows: &[f32],
    k_rows: &[f32],
    gk: &mut [f32],
    gx: &mut [f32],
) {
    if plan.direct {
        weight_grad_direct(plan, entries, rows, gk);
    } else {
        let taps = gk.len();
        for (&pos, &gv) in entries.pos.iter().zip(entries.g) {
            let window = &rows[pos.to_bits() as usize * taps..][..taps];
            for (acc, &xv) in gk.iter_mut().zip(window) {
                *acc += gv * xv;
            }
        }
    }
    match (gx.is_empty(), plan.padded) {
        (true, _) => {}
        (false, true) => input_grad_rows::<true>(plan, entries, k_rows, gx),
        (false, false) => input_grad_rows::<false>(plan, entries, k_rows, gx),
    }
}

/// The kernel gradient without the unfold: the `cin·kh` kernel rows in
/// sweeps of up to six over the list.
#[inline(always)]
fn weight_grad_direct(plan: Plan, entries: Entries<'_>, x: &[f32], gk: &mut [f32]) {
    let rows = plan.cin * plan.kh;
    let mut r = 0;
    while r < rows {
        r += match rows - r {
            1 => weight_rows::<1>(plan, entries, x, gk, r),
            2 => weight_rows::<2>(plan, entries, x, gk, r),
            3 => weight_rows::<3>(plan, entries, x, gk, r),
            4 => weight_rows::<4>(plan, entries, x, gk, r),
            5 => weight_rows::<5>(plan, entries, x, gk, r),
            _ => weight_rows::<6>(plan, entries, x, gk, r),
        };
    }
}

/// Kernel rows `r0..r0 + R` — row `r` is `(ic, ky) = (r / kh, r % kh)` — in
/// one sweep of the list. Each row has one `LANES`-wide accumulator: it
/// starts from the row's `kw` values, takes `g · x[ic, oy + ky, ox ..][..LANES]`
/// for every entry in list order, and gives its first `kw` lanes back (the
/// lanes past `kw` are never read). The `R` accumulators are independent,
/// so one entry's adds overlap instead of each waiting on the one before.
#[inline(always)]
fn weight_rows<const R: usize>(
    plan: Plan,
    entries: Entries<'_>,
    x: &[f32],
    gk: &mut [f32],
    r0: usize,
) -> usize {
    let Plan { h, w, kh, kw, .. } = plan;
    let mut base = [0usize; R];
    let mut acc = [[0.0f32; LANES]; R];
    for (i, (start, a)) in base.iter_mut().zip(&mut acc).enumerate() {
        let r = r0 + i;
        *start = ((r / kh) * h + r % kh) * w;
        a[..kw].copy_from_slice(&gk[r * kw..][..kw]);
    }
    for (&off, &gv) in entries.off.iter().zip(entries.g) {
        let off = off.to_bits() as usize;
        for (a, &start) in acc.iter_mut().zip(&base) {
            for (lane, &xv) in a.iter_mut().zip(&x[start + off..][..LANES]) {
                *lane += gv * xv;
            }
        }
    }
    for (i, a) in acc.iter().enumerate() {
        gk[(r0 + i) * kw..][..kw].copy_from_slice(&a[..kw]);
    }
    R
}

/// The input gradient of one plane: for every entry in list order, adds
/// `g ·` kernel row `(ic, ky)` to input row `(ic, oy + ky)` from column
/// `ox` on — `LANES` wide against zero-padded kernel rows when `PADDED`
/// (the lanes past `kw` add `g · 0.0`), `kw` wide otherwise.
///
/// One entry gives each input value at most one real term, so the order of
/// its rows is free: `ky` runs outside `ic`. On an input narrower than
/// `LANES` a padded row spills into the next one, and row `ky + 1` of the
/// same channel read right after row `ky` was written would wait for that
/// store (2× slower at LeNet's second convolution); `cin` updates between
/// them give it time to land.
#[inline(always)]
fn input_grad_rows<const PADDED: bool>(
    plan: Plan,
    entries: Entries<'_>,
    k_rows: &[f32],
    gx: &mut [f32],
) {
    let Plan { cin, h, w, kh, kw, .. } = plan;
    let width = if PADDED { LANES } else { kw };
    for (&off, &gv) in entries.off.iter().zip(entries.g) {
        let off = off.to_bits() as usize;
        for ky in 0..kh {
            for ic in 0..cin {
                let dst = &mut gx[(ic * h + ky) * w + off..][..width];
                for (acc, &kv) in dst.iter_mut().zip(&k_rows[(ic * kh + ky) * width..][..width]) {
                    *acc += gv * kv;
                }
            }
        }
    }
}

/// Output height and width of non-overlapping `k×k` pooling over `h×w`.
/// When `k` does not divide both, the error names the nearest valid
/// `[h', w']` at or below the offending size.
fn pooled_dims(h: usize, w: usize, k: usize) -> Result<(usize, usize), TensorError> {
    if k == 0 || !h.is_multiple_of(k) || !w.is_multiple_of(k) {
        let k = k.max(1);
        return Err(TensorError::ShapeMismatch {
            expected: vec![h / k * k, w / k * k],
            actual: vec![h, w],
        });
    }
    Ok((h / k, w / k))
}

/// Non-overlapping `k×k` max pooling on `[batch, ch, h, w]`.
///
/// Returns the pooled tensor and the flat argmax indices used by
/// [`max_pool2d_backward`]. `h` and `w` must be divisible by `k`.
///
/// The first strictly largest element wins. NaN never compares larger, so a
/// window with no element above −∞ (all NaN, all −∞, or a mix) pools to −∞,
/// and its argmax is the window's own first element: its gradient stays in
/// its window.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the spatial dimensions are not
/// divisible by `k`, or a rank error on non-rank-4 input.
pub fn max_pool2d(input: &Tensor, k: usize) -> Result<(Tensor, Vec<usize>), TensorError> {
    let (n, c, h, w) = check_rank4(input)?;
    let (oh, ow) = pooled_dims(h, w, k)?;
    let x = input.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut idx = vec![0usize; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = ((b * c + ch) * h + oy * k) * w + ox * k;
                    for ky in 0..k {
                        for kx in 0..k {
                            let i = ((b * c + ch) * h + (oy * k + ky)) * w + (ox * k + kx);
                            if x[i] > best {
                                best = x[i];
                                best_i = i;
                            }
                        }
                    }
                    let o = ((b * c + ch) * oh + oy) * ow + ox;
                    out[o] = best;
                    idx[o] = best_i;
                }
            }
        }
    }
    Ok((Tensor::from_vec(out, &[n, c, oh, ow])?, idx))
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// position recorded in `indices`.
///
/// # Errors
///
/// Returns [`TensorError::SizeMismatch`] when `indices` does not match
/// `grad_output`.
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    indices: &[usize],
    input_dims: &[usize],
) -> Result<Tensor, TensorError> {
    if indices.len() != grad_output.len() {
        return Err(TensorError::SizeMismatch {
            expected: grad_output.len(),
            actual: indices.len(),
        });
    }
    let mut gx = Tensor::zeros(input_dims);
    let buf = gx.data_mut();
    for (&i, &g) in indices.iter().zip(grad_output.data()) {
        buf[i] += g;
    }
    Ok(gx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_identity_kernel_passes_through() {
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let weight = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_sums_window() {
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d(&input, &weight, &bias).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert!(out.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv2d_backward_matches_numeric_gradient() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let input = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let weight = Tensor::randn(&[3, 2, 2, 2], 0.5, &mut rng);
        let bias = Tensor::randn(&[3], 0.1, &mut rng);
        let out = conv2d(&input, &weight, &bias).unwrap();
        // Loss = sum(out); grad_output = ones.
        let go = Tensor::ones(out.shape().dims());
        let grads = conv2d_backward(&input, &weight, &go).unwrap();
        let eps = 1e-2f32;
        // Check a few weight entries against central differences.
        for probe in [0usize, 5, 11] {
            let mut wp = weight.clone();
            wp.data_mut()[probe] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[probe] -= eps;
            let fp = conv2d(&input, &wp, &bias).unwrap().sum();
            let fm = conv2d(&input, &wm, &bias).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads.grad_weight.data()[probe];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()), "probe {probe}: {num} vs {ana}");
        }
        // Input gradient numeric check.
        for probe in [0usize, 17] {
            let mut xp = input.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = input.clone();
            xm.data_mut()[probe] -= eps;
            let fp = conv2d(&xp, &weight, &bias).unwrap().sum();
            let fm = conv2d(&xm, &weight, &bias).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads.grad_input.as_ref().unwrap().data()[probe];
            assert!((num - ana).abs() < 0.05 * (1.0 + ana.abs()), "probe {probe}: {num} vs {ana}");
        }
    }

    #[test]
    fn max_pool_picks_maxima_and_routes_gradient_back() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (out, idx) = max_pool2d(&input, 2).unwrap();
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
        let go = Tensor::ones(&[1, 1, 2, 2]);
        let gx = max_pool2d_backward(&go, &idx, &[1, 1, 4, 4]).unwrap();
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.data()[5], 1.0); // position of 6.0
    }

    #[test]
    fn a_dead_window_keeps_its_gradient_in_its_own_sample() {
        // Sample 1's only window has nothing above −∞: it pools to −∞, and
        // its gradient must land in sample 1, not on sample 0's element 0.
        let nan = f32::NAN;
        let input =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan], &[2, 1, 2, 2]).unwrap();
        let (out, idx) = max_pool2d(&input, 2).unwrap();
        assert_eq!(out.data(), &[4.0, f32::NEG_INFINITY]);
        assert_eq!(idx, [3, 4]);
        let gx = max_pool2d_backward(&Tensor::ones(&[2, 1, 1, 1]), &idx, &[2, 1, 2, 2]).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
        let all_neg_inf = Tensor::from_vec(vec![f32::NEG_INFINITY; 4], &[1, 1, 2, 2]).unwrap();
        assert_eq!(max_pool2d(&all_neg_inf, 2).unwrap().1, [0]);
    }

    #[test]
    fn pooling_rejects_indivisible_dims() {
        let input = Tensor::ones(&[1, 1, 3, 5]);
        let nearest = TensorError::ShapeMismatch { expected: vec![2, 4], actual: vec![3, 5] };
        assert_eq!(max_pool2d(&input, 2).unwrap_err(), nearest);
        assert!(max_pool2d(&input, 0).is_err());
    }
}
