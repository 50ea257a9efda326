//! The double-buffered stencil steppers against their frozen references.
//!
//! `mod frozen` is `Jacobi` and `Hotspot` as they stood while every step
//! `clone()`d its grid, copied verbatim (the `kernel_determinism.rs`
//! pattern; only the imports are adapted to the copy living outside the
//! crate). The steppers in `src/` swap two buffers instead; the arithmetic
//! and its accumulation order are the payload and must not have moved: every
//! [`KernelMetrics`] field and `score()` equal by `to_bits`, step for step,
//! over 20 seeds × every grid from the smallest each constructor accepts
//! (`Jacobi` 1, `Hotspot` 3 — below that its power-map draw has an empty
//! range) to 40 — the short-epoch stream's grids among them — × 60 steps,
//! and again from a `Clone` taken mid-run: a cloned solver carries its own
//! scratch buffer, neither sharing the original's nor losing its own.
//!
//! The steppers now compute each row over slices, at the CPU's vector width
//! in an optimised build (which is the profile CI runs this suite in). The
//! last test adds the grids the 1–40 range skips — 41, the default 48, the
//! vector-width edges 63–65, 100 and 128 — over fewer seeds and steps.

use pipetune_kernels::{
    Hotspot, HotspotConfig, IterativeKernel, Jacobi, JacobiConfig, KernelMetrics,
};

#[allow(dead_code)] // `config()` and the trait's descriptive methods come with the copy
mod frozen {
    use pipetune_kernels::{
        HotspotConfig, IterativeKernel, JacobiConfig, KernelMetrics, KernelSignature,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, Clone)]
    pub struct Jacobi {
        cfg: JacobiConfig,
        u: Vec<f32>,
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
            let mut solver =
                Jacobi { cfg: *cfg, u, n, initial_residual: 0.0, last_residual: 0.0, epochs: 0 };
            let r0 = solver.residual();
            solver.initial_residual = r0.max(1e-9);
            solver.last_residual = solver.initial_residual;
            solver
        }

        /// Root-mean-square residual of the discrete Laplace operator.
        fn residual(&self) -> f32 {
            let n = self.n;
            let mut sum = 0.0f64;
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let c = self.u[y * n + x];
                    let avg = 0.25
                        * (self.u[(y - 1) * n + x]
                            + self.u[(y + 1) * n + x]
                            + self.u[y * n + x - 1]
                            + self.u[y * n + x + 1]);
                    let r = (avg - c) as f64;
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

    impl IterativeKernel for Jacobi {
        fn name(&self) -> &'static str {
            "jacobi"
        }

        fn step(&mut self) -> KernelMetrics {
            let n = self.n;
            let w = self.cfg.omega;
            let mut next = self.u.clone();
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let avg = 0.25
                        * (self.u[(y - 1) * n + x]
                            + self.u[(y + 1) * n + x]
                            + self.u[y * n + x - 1]
                            + self.u[y * n + x + 1]);
                    next[y * n + x] = (1.0 - w) * self.u[y * n + x] + w * avg;
                }
            }
            self.u = next;
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

    #[derive(Debug, Clone)]
    pub struct Hotspot {
        cfg: HotspotConfig,
        temp: Vec<f32>,
        power: Vec<f32>,
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
        /// Panics if `cfg.grid` is zero.
        pub fn new(cfg: &HotspotConfig, seed: u64) -> Self {
            assert!(cfg.grid > 0, "grid must be positive");
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
                power,
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
        fn step_delta(&mut self) -> f32 {
            let n = self.cfg.grid;
            let dt = self.cfg.dt;
            let mut next = self.temp.clone();
            let mut sum_sq = 0.0f64;
            for y in 0..n {
                for x in 0..n {
                    let at = |yy: isize, xx: isize| -> f32 {
                        // Neumann boundary: clamp to the edge.
                        let yy = yy.clamp(0, n as isize - 1) as usize;
                        let xx = xx.clamp(0, n as isize - 1) as usize;
                        self.temp[yy * n + xx]
                    };
                    let c = self.temp[y * n + x];
                    let lap = at(y as isize - 1, x as isize)
                        + at(y as isize + 1, x as isize)
                        + at(y as isize, x as isize - 1)
                        + at(y as isize, x as isize + 1)
                        - 4.0 * c;
                    // Diffusion + local power − leakage to ambient.
                    let delta = dt * (lap + self.power[y * n + x] - 0.1 * c);
                    next[y * n + x] = c + delta;
                    sum_sq += f64::from(delta) * f64::from(delta);
                }
            }
            self.temp = next;
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
}

const SEEDS: u64 = 20;
const MAX_GRID: usize = 40;
const STEPS: usize = 60;
/// Where the mid-run clone is taken.
const CLONE_AT: usize = 23;

fn bits(m: KernelMetrics, score: f32) -> (u64, usize, u32, u32) {
    (m.work_flops.to_bits(), m.items, m.score.to_bits(), score.to_bits())
}

/// Steps `solver` and `oracle` side by side, `steps` times.
fn assert_in_step(
    solver: &mut impl IterativeKernel,
    oracle: &mut impl IterativeKernel,
    steps: usize,
    what: &str,
) {
    for step in 0..steps {
        let (got, want) = (solver.step(), oracle.step());
        assert_eq!(bits(got, solver.score()), bits(want, oracle.score()), "{what}, step {step}");
        assert_eq!(solver.epochs_run(), oracle.epochs_run(), "{what}, step {step}");
    }
}

/// The whole run, then the same run resumed from clones of both solvers
/// taken at `CLONE_AT`: the clone first, then the original it was taken
/// from — stepping one must not disturb the other.
fn assert_matches_frozen<K, F>(mut solver: K, mut oracle: F, what: &str)
where
    K: IterativeKernel + Clone,
    F: IterativeKernel + Clone,
{
    assert_eq!(solver.score().to_bits(), oracle.score().to_bits(), "{what}, before any step");
    assert_in_step(&mut solver, &mut oracle, CLONE_AT, what);
    let (mut cloned, mut cloned_oracle) = (solver.clone(), oracle.clone());
    assert_in_step(&mut cloned, &mut cloned_oracle, STEPS - CLONE_AT, &format!("{what}, clone"));
    assert_in_step(&mut solver, &mut oracle, STEPS - CLONE_AT, &format!("{what}, original"));
    assert_eq!(solver.score().to_bits(), cloned.score().to_bits(), "{what}: clone diverged");
}

#[test]
fn jacobi_double_buffered_matches_clone_per_step() {
    for seed in 0..SEEDS {
        for grid in 1..=MAX_GRID {
            // ω from below the workload mapping's floor to plain Jacobi.
            let omega = [0.05, 0.6, 0.9, 1.0][(seed as usize + grid) % 4];
            let cfg = JacobiConfig { grid, omega };
            assert_matches_frozen(
                Jacobi::new(&cfg, seed),
                frozen::Jacobi::new(&cfg, seed),
                &format!("jacobi grid {grid} omega {omega} seed {seed}"),
            );
        }
    }
}

#[test]
fn hotspot_double_buffered_matches_clone_per_step() {
    for seed in 0..SEEDS {
        for grid in 3..=MAX_GRID {
            // dt from settled to past the stability bound (a diverging
            // field must diverge identically).
            let dt = [0.01, 0.15, 0.3, 0.6][(seed as usize + grid) % 4];
            let cfg = HotspotConfig { grid, dt };
            assert_matches_frozen(
                Hotspot::new(&cfg, seed),
                frozen::Hotspot::new(&cfg, seed),
                &format!("hotspot grid {grid} dt {dt} seed {seed}"),
            );
        }
    }
}

/// Grids beyond [`MAX_GRID`]: odd and even, the `Default` 48, and one either
/// side of 64 so every row length leaves a different vector tail.
const WIDE_GRIDS: [usize; 7] = [41, 48, 63, 64, 65, 100, 128];

#[test]
fn wide_grids_match_the_frozen_steppers() {
    const WIDE_SEEDS: u64 = 5;
    const WIDE_STEPS: usize = 20;
    const WIDE_CLONE_AT: usize = 9;
    fn run<K, F>(mut solver: K, mut oracle: F, what: &str)
    where
        K: IterativeKernel + Clone,
        F: IterativeKernel + Clone,
    {
        assert_eq!(solver.score().to_bits(), oracle.score().to_bits(), "{what}, before any step");
        assert_in_step(&mut solver, &mut oracle, WIDE_CLONE_AT, what);
        let (mut cloned, mut cloned_oracle) = (solver.clone(), oracle.clone());
        let rest = WIDE_STEPS - WIDE_CLONE_AT;
        assert_in_step(&mut cloned, &mut cloned_oracle, rest, &format!("{what}, clone"));
        assert_in_step(&mut solver, &mut oracle, rest, &format!("{what}, original"));
        assert_eq!(solver.score().to_bits(), cloned.score().to_bits(), "{what}: clone diverged");
    }
    for seed in 0..WIDE_SEEDS {
        for (i, &grid) in WIDE_GRIDS.iter().enumerate() {
            let omega = [0.05, 0.6, 0.9, 1.0][(seed as usize + i) % 4];
            let cfg = JacobiConfig { grid, omega };
            let what = format!("jacobi grid {grid} omega {omega} seed {seed}");
            run(Jacobi::new(&cfg, seed), frozen::Jacobi::new(&cfg, seed), &what);
            let dt = [0.01, 0.15, 0.3, 0.6][(seed as usize + i) % 4];
            let cfg = HotspotConfig { grid, dt };
            let what = format!("hotspot grid {grid} dt {dt} seed {seed}");
            run(Hotspot::new(&cfg, seed), frozen::Hotspot::new(&cfg, seed), &what);
        }
    }
}
