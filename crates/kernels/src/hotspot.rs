//! Hotspot: the Rodinia thermal-simulation stencil.
//!
//! Not part of the paper's three Type-III jobs, but it ships in the same
//! Rodinia suite the paper draws from, and its short-epoch stencil profile
//! makes it a natural extra workload for the reproduction (exposed as
//! `WorkloadSpec::hotspot()` but outside the evaluation figures).
//!
//! The model: a chip grid with per-cell power dissipation; each epoch is one
//! explicit time step of the heat equation with Neumann boundaries. The
//! score tracks convergence toward the steady-state temperature field.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{IterativeKernel, KernelMetrics, KernelSignature};

/// Configuration for the [`Hotspot`] kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotConfig {
    /// Square grid side length.
    pub grid: usize,
    /// Time-step size (stability requires roughly `dt ≤ 0.2`); like the
    /// Jacobi relaxation factor, an analogue of a learning rate.
    pub dt: f32,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig { grid: 48, dt: 0.15 }
    }
}

/// Explicit heat-diffusion stepper with a seeded power map.
#[derive(Debug, Clone)]
pub struct Hotspot {
    cfg: HotspotConfig,
    temp: Vec<f32>,
    /// The step's output buffer, swapped with `temp` after every step
    /// (which writes every cell of it).
    next: Vec<f32>,
    power: Vec<f32>,
    /// One row of temperature changes: computed row-wide, then squared in
    /// `f64` and added serially, cell by cell in row-major order.
    scratch: Vec<f32>,
    epochs: usize,
    initial_delta: f32,
    last_delta: f32,
}

impl Hotspot {
    /// Creates a simulation with a seeded random power map (a few hot
    /// functional units on a cool substrate).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.grid` is below 3: the hot blocks' sides are drawn
    /// from `grid / 8 .. grid / 3`, which is empty on a smaller grid.
    pub fn new(cfg: &HotspotConfig, seed: u64) -> Self {
        assert!(cfg.grid >= 3, "grid must be at least 3");
        let n = cfg.grid;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut power = vec![0.0f32; n * n];
        // A handful of rectangular hot blocks.
        for _ in 0..4 {
            let bw = rng.gen_range(n / 8..n / 3);
            let bh = rng.gen_range(n / 8..n / 3);
            let x0 = rng.gen_range(0..n - bw);
            let y0 = rng.gen_range(0..n - bh);
            let heat = rng.gen_range(0.5f32..2.0);
            for y in y0..y0 + bh {
                for x in x0..x0 + bw {
                    power[y * n + x] += heat;
                }
            }
        }
        let mut hs = Hotspot {
            cfg: *cfg,
            temp: vec![0.0; n * n],
            next: vec![0.0; n * n],
            power,
            scratch: vec![0.0; n],
            epochs: 0,
            initial_delta: 0.0,
            last_delta: 0.0,
        };
        let d0 = hs.step_delta();
        hs.initial_delta = d0.max(1e-9);
        hs.last_delta = hs.initial_delta;
        hs.epochs = 0; // the probe step above does not count
        hs
    }

    /// One explicit diffusion step; returns the RMS temperature change.
    ///
    /// Row by row: the two edge cells (whose outer neighbour is the cell
    /// itself — the Neumann boundary) apart, the interior row-wide, the
    /// changes summed serially in row-major order.
    fn step_delta(&mut self) -> f32 {
        let n = self.cfg.grid;
        let dt = self.cfg.dt;
        // Diffusion + local power − leakage to ambient, neighbours in the
        // order up, down, left, right.
        let delta = |c: f32, up: f32, down: f32, left: f32, right: f32, power: f32| {
            let lap = up + down + left + right - 4.0 * c;
            dt * (lap + power - 0.1 * c)
        };
        let mut sum_sq = 0.0f64;
        for y in 0..n {
            let row = &self.temp[y * n..(y + 1) * n];
            let up = &self.temp[y.saturating_sub(1) * n..][..n];
            let down = &self.temp[(y + 1).min(n - 1) * n..][..n];
            let power = &self.power[y * n..(y + 1) * n];
            let changes = &mut self.scratch[..];
            changes[0] = delta(row[0], up[0], down[0], row[0], row[1], power[0]);
            for (out, ((((&c, &u), &d), (&l, &r)), &p)) in changes[1..n - 1].iter_mut().zip(
                row[1..n - 1]
                    .iter()
                    .zip(&up[1..n - 1])
                    .zip(&down[1..n - 1])
                    .zip(row[..n - 2].iter().zip(&row[2..]))
                    .zip(&power[1..n - 1]),
            ) {
                let lap = u + d + l + r - 4.0 * c;
                *out = dt * (lap + p - 0.1 * c);
            }
            let last = n - 1;
            changes[last] =
                delta(row[last], up[last], down[last], row[last - 1], row[last], power[last]);
            for ((next, &c), &change) in
                self.next[y * n..(y + 1) * n].iter_mut().zip(row).zip(changes.iter())
            {
                *next = c + change;
            }
            for &change in changes.iter() {
                sum_sq += f64::from(change) * f64::from(change);
            }
        }
        std::mem::swap(&mut self.temp, &mut self.next);
        self.epochs += 1;
        ((sum_sq / (n * n) as f64).sqrt()) as f32
    }

    /// The configuration in use.
    pub fn config(&self) -> &HotspotConfig {
        &self.cfg
    }
}

impl IterativeKernel for Hotspot {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn step(&mut self) -> KernelMetrics {
        self.last_delta = self.step_delta().max(1e-12);
        let cells = self.cfg.grid * self.cfg.grid;
        KernelMetrics { work_flops: cells as f64 * 10.0, items: cells, score: self.score() }
    }

    fn score(&self) -> f32 {
        // Approach to steady state, on the same log scale as Jacobi.
        let target = self.initial_delta * 1e-4;
        let num = (self.last_delta / self.initial_delta).ln();
        let den = (target / self.initial_delta).ln();
        (num / den).clamp(0.0, 1.0)
    }

    fn signature(&self) -> KernelSignature {
        let cells = (self.cfg.grid * self.cfg.grid) as f64;
        KernelSignature {
            flops_per_epoch: cells * 10.0,
            working_set_bytes: cells * 12.0,
            memory_intensity: 2.2,
            branch_ratio: 0.04,
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
    fn temperature_approaches_steady_state() {
        let mut hs = Hotspot::new(&HotspotConfig::default(), 3);
        let mut prev_delta = f32::INFINITY;
        for _ in 0..120 {
            hs.step();
            assert!(hs.last_delta <= prev_delta * 1.1, "diffusion must settle");
            prev_delta = hs.last_delta;
        }
        // The leakage term contracts the field by ~2% per step, so 120
        // steps buy a visible fraction of the log-scale journey.
        assert!(hs.score() > 0.1, "score {}", hs.score());
        assert!(hs.temp.iter().any(|&t| t > 0.0));
    }

    #[test]
    fn too_large_a_timestep_diverges() {
        // The explicit scheme is conditionally stable: a reckless dt makes
        // the field blow up instead of settling (the tunable's failure mode).
        let mut stable = Hotspot::new(&HotspotConfig { grid: 24, dt: 0.15 }, 5);
        let mut unstable = Hotspot::new(&HotspotConfig { grid: 24, dt: 0.6 }, 5);
        for _ in 0..40 {
            stable.step();
            unstable.step();
        }
        assert!(stable.score() > unstable.score(), "{} vs {}", stable.score(), unstable.score());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Hotspot::new(&HotspotConfig::default(), 9);
        let mut b = Hotspot::new(&HotspotConfig::default(), 9);
        a.step();
        b.step();
        assert_eq!(a.temp, b.temp);
    }

    #[test]
    #[should_panic(expected = "grid must be at least 3")]
    fn grids_below_three_are_refused() {
        Hotspot::new(&HotspotConfig { grid: 2, dt: 0.15 }, 1);
    }

    #[test]
    fn satisfies_the_kernel_contract() {
        let mut hs = Hotspot::new(&HotspotConfig::default(), 1);
        let m = hs.step();
        assert!(m.work_flops > 0.0 && m.items > 0);
        assert!((0.0..=1.0).contains(&hs.score()));
        assert_eq!(hs.epochs_run(), 1);
        let sig = hs.signature();
        assert!(sig.flops_per_epoch > 0.0 && sig.working_set_bytes > 0.0);
    }
}
