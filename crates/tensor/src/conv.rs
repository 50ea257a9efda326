//! 2-D convolution and pooling primitives (NCHW layout, stride 1, no padding).
//!
//! These are the building blocks of the LeNet-5 reproduction in
//! `pipetune-dnn`. [`conv2d`] is the direct-loop forward pass — the
//! reference, and what `Conv2d` runs below a batch of 8; larger batches go
//! through the GEMM lowering in [`crate::conv2d_gemm_with`]. The backward
//! pass unfolds the input like that lowering does, so its kernel gradient
//! is a row update as wide as the kernel instead of `kw` values at a time.

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

/// [`conv2d_backward`] drawing the im2col scratch from the caller's
/// [`Workspace`] — in steady state the only allocations are the returned
/// tensors — and computing the input gradient only when `input_grad` is
/// set (a network's first layer has nobody to hand it to).
///
/// Zero entries of `grad_output` are skipped. Per element, in one
/// accumulator each: the bias and kernel gradients sum over
/// `(batch, oy, ox)` ascending — the kernel gradient as one
/// `cin·kh·kw`-wide row update per non-zero entry over the im2col matrix —
/// and the input gradient over `(oc, oy, ox)` ascending.
///
/// # Errors
///
/// Same conditions as [`conv2d_backward`].
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
    let x = input.data();
    let k = weight.data();
    let g = grad_output.data();
    let (plane, taps) = (oh * ow, cin * kh * kw);
    let mut gk = vec![0.0f32; k.len()];
    let mut gb = vec![0.0f32; cout];
    let mut gx = vec![0.0f32; if input_grad { x.len() } else { 0 }];
    let block = samples_per_block(n, plane);
    let mut cols = ws.take(block * plane * taps);
    for b0 in (0..n).step_by(block) {
        let nb = block.min(n - b0);
        unfold_into(
            &x[b0 * cin * h * w..(b0 + nb) * cin * h * w],
            nb,
            cin,
            h,
            w,
            kh,
            kw,
            &mut cols,
        );
        for b in b0..b0 + nb {
            for oc in 0..cout {
                let gk_row = &mut gk[oc * taps..(oc + 1) * taps];
                for (pos, &gv) in g[(b * cout + oc) * plane..][..plane].iter().enumerate() {
                    if gv == 0.0 {
                        continue;
                    }
                    gb[oc] += gv;
                    let window = &cols[((b - b0) * plane + pos) * taps..][..taps];
                    for (acc, &xv) in gk_row.iter_mut().zip(window) {
                        *acc += gv * xv;
                    }
                    if !input_grad {
                        continue;
                    }
                    let (oy, ox) = (pos / ow, pos % ow);
                    for ic in 0..cin {
                        for ky in 0..kh {
                            let xrow = ((b * cin + ic) * h + (oy + ky)) * w + ox;
                            let krow = ((oc * cin + ic) * kh + ky) * kw;
                            for (acc, &kv) in
                                gx[xrow..xrow + kw].iter_mut().zip(&k[krow..krow + kw])
                            {
                                *acc += gv * kv;
                            }
                        }
                    }
                }
            }
        }
    }
    ws.give(cols);
    Ok(Conv2dGrads {
        grad_input: input_grad.then(|| Tensor::from_vec(gx, input.shape().dims())).transpose()?,
        grad_weight: Tensor::from_vec(gk, weight.shape().dims())?,
        grad_bias: Tensor::from_vec(gb, &[cout])?,
    })
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
                    let mut best_i = 0usize;
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
    fn pooling_rejects_indivisible_dims() {
        let input = Tensor::ones(&[1, 1, 3, 5]);
        let nearest = TensorError::ShapeMismatch { expected: vec![2, 4], actual: vec![3, 5] };
        assert_eq!(max_pool2d(&input, 2).unwrap_err(), nearest);
        assert!(max_pool2d(&input, 0).is_err());
    }
}
