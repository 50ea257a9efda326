//! im2col-based convolution: the standard GEMM lowering.
//!
//! The direct loops in [`crate::conv2d`] are simple and exact; for larger
//! batches the cache-friendly route is to unfold every receptive field into
//! a row of a matrix and run one matrix multiplication. Both paths are kept:
//! [`conv2d_gemm_with`] is what the `Conv2d` layer uses for batches past a
//! size threshold, and it is *not* bit-compatible with `conv2d` — it sums the
//! taps from 0.0, skips zero inputs and adds the bias last, where `conv2d`
//! starts from the bias — only equal to it up to rounding. What it is
//! bit-compatible with is itself across lowerings: per output element the
//! taps arrive in ascending `(ic, ky, kx)` order into one accumulator,
//! whichever way round the matrices are multiplied (see
//! `docs/performance.md`).

use crate::gemm::{all_finite, gemm, transpose_into, NC, NR};
use crate::{Tensor, TensorError, Workspace};

/// Validates im2col operands and returns `(n, c, h, w)`.
fn im2col_dims(
    input: &Tensor,
    kh: usize,
    kw: usize,
) -> Result<(usize, usize, usize, usize), TensorError> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.shape().rank() });
    }
    let d = input.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    if kh == 0 || kw == 0 || kh > h || kw > w {
        return Err(TensorError::ShapeMismatch { expected: vec![h, w], actual: vec![kh, kw] });
    }
    Ok((n, c, h, w))
}

/// Copies `src[s..s + len]` to `dst[d..d + len]` and may leave unspecified
/// values in up to `RUN - len` elements after them: a run no longer than
/// `RUN` moves as one fixed-size block — two vector loads and stores
/// instead of a `memcpy` call that costs more than the few floats it
/// moves. Callers write their runs in ascending `d` order and write every
/// element, so each run overwrites the spill of the one before it.
#[inline(always)]
fn copy_run<const RUN: usize>(dst: &mut [f32], d: usize, src: &[f32], s: usize, len: usize) {
    if len <= RUN && d + RUN <= dst.len() && s + RUN <= src.len() {
        let block: [f32; RUN] = src[s..s + RUN].try_into().expect("RUN elements");
        dst[d..d + RUN].copy_from_slice(&block);
    } else {
        dst[d..d + len].copy_from_slice(&src[s..s + len]);
    }
}

/// The unfold loop shared by [`im2col`], [`conv2d_gemm_with`] and
/// [`crate::conv2d_backward_with`]: writes every element of `out` (callers
/// may pass recycled scratch).
#[allow(clippy::too_many_arguments)]
pub(crate) fn unfold_into(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    out: &mut [f32],
) {
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let cols = c * kh * kw;
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * cols;
                for ic in 0..c {
                    for ky in 0..kh {
                        let src = ((b * c + ic) * h + oy + ky) * w + ox;
                        let dst = row + (ic * kh + ky) * kw;
                        copy_run::<8>(out, dst, x, src, kw);
                    }
                }
            }
        }
    }
}

/// [`unfold_into`] in the transposed layout `[c·kh·kw, n·oh·ow]`: row `p`
/// holds kernel tap `p` of every receptive field, so one copy moves a run
/// of `ow` values instead of `kw`, and the long axis is the contiguous one.
#[allow(clippy::too_many_arguments)]
fn unfold_transposed_into(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    out: &mut [f32],
) {
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let rows = n * oh * ow;
    for ic in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let tap = ((ic * kh + ky) * kw + kx) * rows;
                for b in 0..n {
                    for oy in 0..oh {
                        let src = ((b * c + ic) * h + oy + ky) * w + kx;
                        let dst = tap + (b * oh + oy) * ow;
                        copy_run::<16>(out, dst, x, src, ow);
                    }
                }
            }
        }
    }
}

/// How many of `n` samples with `plane` output positions each the
/// convolution kernels unfold at a time: as many as make at most [`NC`]
/// receptive fields, so the unfolded block is still in L2 when the product
/// reads it back and, transposed, is one unpacked GEMM panel.
pub(crate) fn samples_per_block(n: usize, plane: usize) -> usize {
    (NC / plane.max(1)).clamp(1, n.max(1))
}

/// Unfolds `[n, c, h, w]` into the im2col matrix
/// `[n·oh·ow, c·kh·kw]` for a valid stride-1 convolution with a `kh×kw`
/// kernel.
///
/// # Errors
///
/// Returns a rank/shape error when the input is not rank 4 or smaller than
/// the kernel.
pub fn im2col(input: &Tensor, kh: usize, kw: usize) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = im2col_dims(input, kh, kw)?;
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let cols = c * kh * kw;
    let mut out = vec![0.0f32; n * oh * ow * cols];
    unfold_into(input.data(), n, c, h, w, kh, kw, &mut out);
    Tensor::from_vec(out, &[n * oh * ow, cols])
}

/// [`im2col`] writing into a preallocated output tensor whose buffer is
/// grown (never shrunk) to fit. With a warmed buffer the call performs no
/// allocations; every element is overwritten.
///
/// # Errors
///
/// Same conditions as [`im2col`].
pub fn im2col_with(
    input: &Tensor,
    kh: usize,
    kw: usize,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let (n, c, h, w) = im2col_dims(input, kh, kw)?;
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let cols = c * kh * kw;
    out.reshape_in_place_for_kernel(&[n * oh * ow, cols]);
    unfold_into(input.data(), n, c, h, w, kh, kw, out.data_mut());
    Ok(())
}

/// Valid stride-1 convolution through the im2col + GEMM route. Produces the
/// same result as [`crate::conv2d`] up to rounding (the bias is added last,
/// not first). The im2col matrix, the packed kernel matrix and the GEMM
/// product come from the caller's [`Workspace`]: in steady state the only
/// allocation is the returned output tensor. Fewer than 16 output
/// channels are lowered the other way round (`W · colsᵀ`, the long axis
/// as the vector axis), same bits.
///
/// # Errors
///
/// Same conditions as [`crate::conv2d`].
pub fn conv2d_gemm_with(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: weight.shape().rank() });
    }
    let wd = weight.shape().dims();
    let (cout, cin, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let d = input.shape().dims();
    if input.shape().rank() != 4 || d[1] != cin {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d[0], cin, d[2], d[3]],
            actual: d.to_vec(),
        });
    }
    if bias.shape().dims() != [cout] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![cout],
            actual: bias.shape().dims().to_vec(),
        });
    }
    let (n, h, w) = (d[0], d[2], d[3]);
    im2col_dims(input, kh, kw)?;
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let (plane, k) = (oh * ow, cin * kh * kw);
    let mut out = vec![0.0f32; n * cout * plane];
    // Orientation is invisible in the bits only while no product is
    // NaN or infinite: see `conv_long_axis`.
    let finite_weight = all_finite(weight.data());
    if cout < NR && finite_weight && all_finite(input.data()) {
        conv_long_axis(
            input.data(),
            weight.data(),
            bias.data(),
            &mut out,
            [n, cin, h, w],
            [cout, kh, kw],
            ws,
        );
        return Tensor::from_vec(out, &[n, cout, oh, ow]);
    }
    let rows = n * plane;

    // cols = im2col(input): [n·oh·ow, cin·kh·kw], recycled scratch.
    let mut cols = ws.take(rows * k);
    unfold_into(input.data(), n, cin, h, w, kh, kw, &mut cols);
    // wmat = weight.reshape([cout, k]).transpose(): [k, cout].
    let mut wmat = ws.take(k * cout);
    transpose_into(weight.data(), &mut wmat, cout, k);
    // prod = cols · wmat + bias: [n·oh·ow, cout].
    let mut prod = ws.take_zeroed(rows * cout);
    gemm(&cols, false, &wmat, !finite_weight, &mut prod, rows, k, cout, ws);
    for row in prod.chunks_exact_mut(cout) {
        for (v, &bv) in row.iter_mut().zip(bias.data()) {
            *v += bv;
        }
    }
    // Rearrange [n·oh·ow, cout] → [n, cout, oh, ow].
    for b in 0..n {
        for pos in 0..plane {
            let src = (b * plane + pos) * cout;
            for oc in 0..cout {
                out[(b * cout + oc) * plane + pos] = prod[src + oc];
            }
        }
    }
    ws.give(cols);
    ws.give(wmat);
    ws.give(prod);
    Tensor::from_vec(out, &[n, cout, oh, ow])
}

/// The lowering for `cout < NR`, where `cols · wmat` would leave the
/// vector axis (`cout`) narrower than one register tile: computes
/// `W (cout×k) · colsᵀ (k × n·oh·ow)` instead, a block of samples at a
/// time, so the long axis is the vector axis and each product row is a run
/// of whole output planes.
///
/// Per output element the taps still arrive in ascending order into one
/// accumulator, but the product's zero-skip now follows the *weight*, not
/// the input. For finite operands — the caller checks — that is invisible:
/// a product either rule skips is exactly ±0.0, and adding ±0.0 leaves an
/// accumulator that started at +0.0 unchanged bit for bit (round-to-nearest
/// never sums to −0.0 from anything but −0.0 + −0.0). Only a NaN or an
/// infinity could tell the two rules apart, and those take the other
/// orientation.
fn conv_long_axis(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    out: &mut [f32],
    [n, cin, h, w]: [usize; 4],
    [cout, kh, kw]: [usize; 3],
    ws: &mut Workspace,
) {
    let plane = (h - kh + 1) * (w - kw + 1);
    let k = cin * kh * kw;
    let block = samples_per_block(n, plane);
    let mut colst = ws.take(block * plane * k);
    let mut prod = ws.take(block * plane * cout);
    for b0 in (0..n).step_by(block) {
        let nb = block.min(n - b0);
        let cols = nb * plane;
        let samples = &x[b0 * cin * h * w..(b0 + nb) * cin * h * w];
        unfold_transposed_into(samples, nb, cin, h, w, kh, kw, &mut colst[..k * cols]);
        prod[..cout * cols].fill(0.0);
        gemm(weight, false, &colst[..k * cols], false, &mut prod[..cout * cols], cout, k, cols, ws);
        // prod is [cout][nb·plane]: every (sample, channel) plane is one
        // contiguous run on both sides.
        for b in 0..nb {
            for (oc, &bv) in bias.iter().enumerate() {
                let src = &prod[oc * cols + b * plane..][..plane];
                let dst = &mut out[((b0 + b) * cout + oc) * plane..][..plane];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s + bv;
                }
            }
        }
    }
    ws.give(colst);
    ws.give(prod);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn im2col_unfolds_known_windows() {
        // 1x1x3x3 input, 2x2 kernel → 4 windows of 4 values.
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let cols = im2col(&x, 2, 2).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 4]);
        assert_eq!(&cols.data()[..4], &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(&cols.data()[12..], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn gemm_conv_matches_direct_conv() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[3, 2, 8, 8], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 2, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[4], 0.1, &mut rng);
        let direct = conv2d(&x, &w, &b).unwrap();
        let gemm = conv2d_gemm_with(&x, &w, &b, &mut Workspace::new()).unwrap();
        assert_eq!(direct.shape(), gemm.shape());
        for (a, g) in direct.data().iter().zip(gemm.data()) {
            assert!((a - g).abs() < 1e-4, "{a} vs {g}");
        }
    }

    #[test]
    fn gemm_conv_validates_shapes_like_direct() {
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let w = Tensor::ones(&[3, 1, 2, 2]); // wrong in-channels
        let b = Tensor::zeros(&[3]);
        assert!(conv2d_gemm_with(&x, &w, &b, &mut Workspace::new()).is_err());
        let w = Tensor::ones(&[3, 2, 2, 2]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d_gemm_with(&x, &w, &bad_bias, &mut Workspace::new()).is_err());
        assert!(im2col(&x, 9, 9).is_err());
    }

    #[test]
    fn single_pixel_kernel_is_a_channel_mix() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 3, 1, 1], 1.0, &mut rng);
        let b = Tensor::zeros(&[2]);
        let direct = conv2d(&x, &w, &b).unwrap();
        let gemm = conv2d_gemm_with(&x, &w, &b, &mut Workspace::new()).unwrap();
        for (a, g) in direct.data().iter().zip(gemm.data()) {
            assert!((a - g).abs() < 1e-4);
        }
    }
}
