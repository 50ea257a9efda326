//! Numerical gradient checking.
//!
//! Every backward pass in this crate is hand-derived; this test-only
//! module provides the standard central-difference harness that validates
//! them.

use pipetune_tensor::Tensor;

/// Result of comparing one analytic gradient against central differences.
#[derive(Debug, Clone, PartialEq)]
struct GradCheckReport {
    /// Largest relative error observed across the probed coordinates.
    max_rel_error: f64,
    /// Coordinate index of the worst error.
    worst_index: usize,
    /// Number of coordinates probed.
    probed: usize,
}

impl GradCheckReport {
    /// Returns `true` when the analytic gradient is within `tol` relative
    /// error everywhere probed.
    fn passes(&self, tol: f64) -> bool {
        self.max_rel_error <= tol
    }
}

/// Checks `analytic_grad` against central differences of `f` at `x`.
///
/// `f` must be a pure function of its tensor argument (same output for the
/// same input). `probes` selects how many evenly spaced coordinates to test;
/// probing everything is O(2·len) evaluations of `f`.
///
/// # Panics
///
/// Panics when `analytic_grad` is shaped differently from `x` or `probes`
/// is zero.
fn check_gradient<F>(
    f: F,
    x: &Tensor,
    analytic_grad: &Tensor,
    eps: f32,
    probes: usize,
) -> GradCheckReport
where
    F: Fn(&Tensor) -> f32,
{
    assert_eq!(x.shape(), analytic_grad.shape(), "gradient must be shaped like the input");
    assert!(probes > 0, "at least one probe required");
    let n = x.len();
    let step = (n / probes.min(n)).max(1);
    let mut max_rel_error = 0.0f64;
    let mut worst_index = 0usize;
    let mut probed = 0usize;
    for i in (0..n).step_by(step) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let numeric = f64::from(f(&xp) - f(&xm)) / (2.0 * f64::from(eps));
        let analytic = f64::from(analytic_grad.data()[i]);
        let scale = numeric.abs().max(analytic.abs()).max(1e-6);
        let rel = (numeric - analytic).abs() / scale;
        if rel > max_rel_error {
            max_rel_error = rel;
            worst_index = i;
        }
        probed += 1;
    }
    GradCheckReport { max_rel_error, worst_index, probed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{softmax_cross_entropy, Conv2d, Dense, Param};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;

    /// Squared Euclidean norm of the flattened tensor.
    fn norm_sq(t: &Tensor) -> f32 {
        t.data().iter().map(|x| x * x).sum()
    }

    #[test]
    fn validates_a_correct_quadratic_gradient() {
        // f(x) = Σ x², ∇f = 2x.
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[4]).unwrap();
        let grad = x.scale(2.0);
        let report = check_gradient(norm_sq, &x, &grad, 1e-3, 4);
        assert!(report.passes(1e-3), "{report:?}");
        assert_eq!(report.probed, 4);
    }

    #[test]
    fn flags_a_wrong_gradient() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[4]).unwrap();
        let wrong = x.scale(3.0); // should be 2x
        let report = check_gradient(norm_sq, &x, &wrong, 1e-3, 4);
        assert!(!report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn validates_the_dense_layer_end_to_end() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let labels = [0usize, 2, 1, 0, 2];
        // Analytic input gradient through dense + cross-entropy.
        let logits = layer.forward(&x, true).unwrap();
        let (_, grad_logits) = softmax_cross_entropy(&logits, &labels).unwrap();
        let grad_x = layer.backward(&grad_logits).unwrap();
        // Numeric check: loss as a pure function of the input.
        let probe_layer = RefCell::new(layer.clone());
        let report = check_gradient(
            |t| {
                let logits = probe_layer.borrow_mut().forward(t, false).unwrap();
                softmax_cross_entropy(&logits, &labels).unwrap().0
            },
            &x,
            &grad_x,
            1e-2,
            10,
        );
        assert!(report.passes(0.05), "{report:?}");
    }

    /// `Conv2d` on the GEMM route (batch ≥ 8), in both lowerings: few output
    /// channels (`W · colsᵀ`) and a full register tile of them
    /// (`cols · Wᵀ`). Loss = Σ y ⊙ r for a fixed random r, so ∂L/∂y = r.
    #[test]
    fn validates_conv2d_on_the_gemm_route() {
        for (out_ch, seed) in [(3usize, 21u64), (16, 22)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layer = Conv2d::new(2, out_ch, 3, &mut rng);
            let x = Tensor::randn(&[8, 2, 6, 6], 1.0, &mut rng);
            let r = Tensor::randn(&[8, out_ch, 4, 4], 1.0, &mut rng);
            let loss = |y: &Tensor| y.mul(&r).unwrap().sum();

            layer.forward(&x, true).unwrap();
            let grad_x = layer.backward(&r).unwrap();
            let mut kernel: Option<Param> = None;
            layer.visit_params(&mut |p: &mut Param| {
                kernel.get_or_insert_with(|| p.clone());
            });
            let kernel = kernel.expect("a conv layer has a kernel");

            let probe = RefCell::new(layer.clone());
            let report = check_gradient(
                |t| loss(&probe.borrow_mut().forward(t, false).unwrap()),
                &x,
                &grad_x,
                1e-2,
                24,
            );
            assert!(report.passes(0.05), "input gradient, {out_ch} channels: {report:?}");

            let report = check_gradient(
                |w| {
                    let mut first = true;
                    let mut layer = probe.borrow_mut();
                    layer.visit_params(&mut |p: &mut Param| {
                        if std::mem::take(&mut first) {
                            *p.value_mut() = w.clone();
                        }
                    });
                    loss(&layer.forward(&x, false).unwrap())
                },
                kernel.value(),
                kernel.grad(),
                1e-2,
                24,
            );
            assert!(report.passes(0.05), "kernel gradient, {out_ch} channels: {report:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shaped like")]
    fn rejects_mismatched_shapes() {
        let x = Tensor::zeros(&[4]);
        let g = Tensor::zeros(&[3]);
        let _ = check_gradient(|t| t.sum(), &x, &g, 1e-3, 2);
    }
}
