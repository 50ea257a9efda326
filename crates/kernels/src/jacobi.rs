//! Weighted Jacobi relaxation for the 2-D Laplace equation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{IterativeKernel, KernelMetrics, KernelSignature};

/// Configuration for the [`Jacobi`] kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiConfig {
    /// Square interior grid side length.
    pub grid: usize,
    /// Relaxation factor ω ∈ (0, 1]; plain Jacobi is ω = 1. Like a learning
    /// rate, convergence speed peaks at a workload-dependent sweet spot.
    pub omega: f32,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig { grid: 48, omega: 0.9 }
    }
}

/// Weighted Jacobi solver: `u ← (1−ω)·u + ω·avg(neighbours)` with fixed
/// random boundary conditions. One [`step`](IterativeKernel::step) is one
/// full sweep over the grid (one "epoch").
///
/// The [`score`](IterativeKernel::score) maps the residual reduction to
/// `[0, 1]`: `1 − log(r/r₀)/log(ε/r₀)` clamped, where ε is a fixed target,
/// so faster-converging configurations score higher sooner — the Type-III
/// analogue of training accuracy.
#[derive(Debug, Clone)]
pub struct Jacobi {
    cfg: JacobiConfig,
    u: Vec<f32>,
    /// The sweep's output buffer, swapped with `u` after every step. Both
    /// carry the same fixed boundary, which no sweep writes.
    next: Vec<f32>,
    /// One interior row of residual terms: computed row-wide, then summed
    /// one by one in row-major order.
    scratch: Vec<f32>,
    n: usize, // full grid incl. boundary
    initial_residual: f32,
    last_residual: f32,
    epochs: usize,
}

impl Jacobi {
    /// Creates a solver with seeded random boundary conditions.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.grid` is zero.
    pub fn new(cfg: &JacobiConfig, seed: u64) -> Self {
        assert!(cfg.grid > 0, "grid must be positive");
        let n = cfg.grid + 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut u = vec![0.0f32; n * n];
        // Random but fixed Dirichlet boundary.
        for i in 0..n {
            u[i] = rng.gen_range(-1.0..1.0); // top
            u[(n - 1) * n + i] = rng.gen_range(-1.0..1.0); // bottom
            u[i * n] = rng.gen_range(-1.0..1.0); // left
            u[i * n + n - 1] = rng.gen_range(-1.0..1.0); // right
        }
        let mut solver = Jacobi {
            cfg: *cfg,
            next: u.clone(),
            u,
            scratch: vec![0.0; n - 2],
            n,
            initial_residual: 0.0,
            last_residual: 0.0,
            epochs: 0,
        };
        let r0 = solver.residual();
        solver.initial_residual = r0.max(1e-9);
        solver.last_residual = solver.initial_residual;
        solver
    }

    /// Root-mean-square residual of the discrete Laplace operator. Each
    /// interior row's terms `avg − c` are computed row-wide (vectorisable),
    /// then squared in `f64` and added serially, cell by cell in row-major
    /// order — the sum's order is the result.
    fn residual(&mut self) -> f32 {
        let n = self.n;
        let mut sum = 0.0f64;
        for y in 1..n - 1 {
            let (up, row, down) = rows(&self.u, n, y);
            for (r, (((&c, &u), &d), (&l, &rt))) in self.scratch.iter_mut().zip(
                row[1..n - 1]
                    .iter()
                    .zip(&up[1..n - 1])
                    .zip(&down[1..n - 1])
                    .zip(row[..n - 2].iter().zip(&row[2..])),
            ) {
                let avg = 0.25 * (u + d + l + rt);
                *r = avg - c;
            }
            for &r in &self.scratch {
                let r = f64::from(r);
                sum += r * r;
            }
        }
        ((sum / ((n - 2) * (n - 2)) as f64).sqrt()) as f32
    }

    /// The configuration in use.
    pub fn config(&self) -> &JacobiConfig {
        &self.cfg
    }
}

/// Rows `y − 1`, `y` and `y + 1` of the `n`-wide grid `u`.
fn rows(u: &[f32], n: usize, y: usize) -> (&[f32], &[f32], &[f32]) {
    let (up, rest) = u[(y - 1) * n..(y + 2) * n].split_at(n);
    let (row, down) = rest.split_at(n);
    (up, row, down)
}

impl IterativeKernel for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn step(&mut self) -> KernelMetrics {
        let n = self.n;
        let w = self.cfg.omega;
        for y in 1..n - 1 {
            let (up, row, down) = rows(&self.u, n, y);
            let out = &mut self.next[y * n + 1..(y + 1) * n - 1];
            for (o, (((&c, &u), &d), (&l, &r))) in out.iter_mut().zip(
                row[1..n - 1]
                    .iter()
                    .zip(&up[1..n - 1])
                    .zip(&down[1..n - 1])
                    .zip(row[..n - 2].iter().zip(&row[2..])),
            ) {
                let avg = 0.25 * (u + d + l + r);
                *o = (1.0 - w) * c + w * avg;
            }
        }
        std::mem::swap(&mut self.u, &mut self.next);
        self.epochs += 1;
        self.last_residual = self.residual().max(1e-12);
        let cells = (n - 2) * (n - 2);
        KernelMetrics { work_flops: cells as f64 * 8.0, items: cells, score: self.score() }
    }

    fn score(&self) -> f32 {
        // Map log-residual progress toward a 1e-4·r₀ target onto [0, 1].
        let target = self.initial_residual * 1e-4;
        let num = (self.last_residual / self.initial_residual).ln();
        let den = (target / self.initial_residual).ln();
        (num / den).clamp(0.0, 1.0)
    }

    fn signature(&self) -> KernelSignature {
        let cells = ((self.n - 2) * (self.n - 2)) as f64;
        KernelSignature {
            flops_per_epoch: cells * 8.0,
            working_set_bytes: (self.n * self.n) as f64 * 8.0,
            memory_intensity: 2.5, // pure streaming stencil
            branch_ratio: 0.02,
        }
    }

    fn epochs_run(&self) -> usize {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_decreases_monotonically() {
        let mut j = Jacobi::new(&JacobiConfig::default(), 7);
        let mut prev = j.residual();
        for _ in 0..10 {
            j.step();
            let r = j.residual();
            assert!(r <= prev * 1.0001, "residual rose: {prev} → {r}");
            prev = r;
        }
    }

    #[test]
    fn omega_has_a_sweet_spot() {
        // Very small ω converges slower than a good ω.
        let run = |omega: f32| {
            let mut j = Jacobi::new(&JacobiConfig { grid: 32, omega }, 7);
            for _ in 0..20 {
                j.step();
            }
            j.score()
        };
        let slow = run(0.1);
        let good = run(0.95);
        assert!(good > slow, "omega 0.95 ({good}) should beat 0.1 ({slow})");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Jacobi::new(&JacobiConfig::default(), 5);
        let mut b = Jacobi::new(&JacobiConfig::default(), 5);
        a.step();
        b.step();
        assert_eq!(a.residual(), b.residual());
    }

    #[test]
    fn score_is_bounded() {
        let mut j = Jacobi::new(&JacobiConfig { grid: 16, omega: 1.0 }, 1);
        for _ in 0..200 {
            j.step();
        }
        assert!(j.score() <= 1.0);
        assert!(j.score() > 0.2);
    }
}
