//! `bench_kernels`: the wall-clock kernel benchmark.
//!
//! Measures real (not simulated) throughput of the blocked GEMM behind
//! [`Tensor::matmul`], the workspace-backed im2col convolution
//! ([`pipetune_tensor::conv2d_gemm_with`]) and its backward pass
//! ([`pipetune_tensor::conv2d_backward_with`]) against frozen copies of the
//! pre-overhaul naive kernels, inlined below so the baseline can never
//! silently improve. Every comparison first asserts the two paths produce
//! **byte-identical** results — the overhaul's contract is "same bits,
//! less time" (see `docs/performance.md`).
//!
//! Two families of shapes: the legacy ones, sized to bust the L2 cache,
//! and the ones the tuning workloads actually issue (LeNet-5's two
//! convolutions, TextCnn's narrow window product, `fc3`, an LSTM gate
//! product), which are small, narrow or both.
//!
//! ```text
//! bench_kernels [--out PATH] [--check BASELINE] [--strict] [--quick]
//! ```
//!
//! The report (default out `BENCH_pipetune.perf.json`) carries
//! `gemm.{m}x{k}x{n}.{gflops_naive,gflops_blocked,speedup_vs_naive}` and
//! the matching `conv2d.*` / `conv2d_bwd.*` metrics. Wall-clock numbers
//! vary across machines, so `--check` gates under
//! [`pipetune_insight::GateConfig::perf_defaults`] — metric *presence*
//! and catastrophic collapse only, never absolute time. `--strict`
//! additionally fails the process when any legacy shape's speedup drops
//! below 2× (used when refreshing the committed baseline on a quiet
//! machine, not in CI); the workload shapes carry no floor. `--quick`
//! cuts the repetitions for a fast smoke run.

use std::process::ExitCode;
use std::time::Instant;

use pipetune_insight::{check, BenchReport, GateConfig};
use pipetune_tensor::{conv2d_backward_with, conv2d_gemm_with, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Speedup floor asserted under `--strict` for every legacy shape.
const STRICT_FLOOR: f64 = 2.0;

/// Legacy GEMM shapes `(m, k, n)` the committed baseline carries. Chosen so the
/// B operand (k×n) far exceeds the L2 cache: that is the regime the
/// blocked kernel's packed panels are built for, and the regime the
/// pre-overhaul streaming kernel re-reads B from L3/DRAM once per output
/// row.
const GEMM_SHAPES: [(usize, usize, usize); 3] =
    [(512, 1024, 1024), (512, 1536, 1536), (256, 2048, 2048)];

/// Legacy conv shapes `(batch, cin, cout, ksize, hw)` the committed
/// baseline carries; the im2col-lowered GEMM dominates each.
const CONV_SHAPES: [(usize, usize, usize, usize, usize); 2] =
    [(8, 128, 512, 3, 32), (2, 256, 512, 3, 16)];

/// GEMM shapes the workloads issue, all with a narrow or small output:
/// TextCnn's window product over 240 examples, LeNet's `fc3` at batch 256
/// and one LSTM gate product over 160 examples. Reported beside the
/// legacy shapes; the `--strict` floor does not apply to them.
const WORKLOAD_GEMM_SHAPES: [(usize, usize, usize); 3] =
    [(5280, 96, 12), (256, 84, 10), (160, 32, 64)];

/// `LeNet5::with_input_size(16)`'s two convolutions at the mini-batch
/// sizes a tuning session issues; timed forward and backward.
const WORKLOAD_CONV_SHAPES: [(usize, usize, usize, usize, usize); 4] =
    [(32, 1, 6, 5, 16), (256, 1, 6, 5, 16), (32, 6, 16, 5, 6), (256, 6, 16, 5, 6)];

// ---------------------------------------------------------------------
// Frozen pre-overhaul kernels (the baseline). Do not "improve" these:
// they exist to pin what the repository shipped before the blocked
// kernels landed, and they double as the bit-identity reference.
// ---------------------------------------------------------------------

/// The pre-overhaul streaming `matmul` kernel: i-k-j loops with the
/// zero-skip, exactly as `Tensor::matmul` computed before blocking.
fn naive_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aip * bv;
            }
        }
    }
}

/// The pre-overhaul im2col + GEMM convolution: fresh allocations for the
/// unfolded matrix, the transposed kernel matrix, the product and the
/// bias-broadcast copy, with the naive streaming GEMM in the middle.
fn naive_conv2d_gemm(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
) -> (Vec<f32>, [usize; 4]) {
    let wd = weight.shape().dims();
    let (cout, cin, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let d = input.shape().dims();
    let (n, h, w) = (d[0], d[2], d[3]);
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let (rows, k) = (n * oh * ow, cin * kh * kw);

    let cols = pipetune_tensor::im2col(input, kh, kw).expect("im2col");
    let mut wmat = vec![0.0f32; k * cout];
    for r in 0..cout {
        for c in 0..k {
            wmat[c * cout + r] = weight.data()[r * k + c];
        }
    }
    let mut prod = vec![0.0f32; rows * cout];
    naive_gemm(cols.data(), &wmat, &mut prod, rows, k, cout);
    let mut biased = prod.clone();
    for row in biased.chunks_exact_mut(cout) {
        for (v, &bv) in row.iter_mut().zip(bias.data()) {
            *v += bv;
        }
    }
    let mut out = vec![0.0f32; n * cout * oh * ow];
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let src = ((b * oh + oy) * ow + ox) * cout;
                for oc in 0..cout {
                    out[((b * cout + oc) * oh + oy) * ow + ox] = biased[src + oc];
                }
            }
        }
    }
    (out, [n, cout, oh, ow])
}

/// The pre-overhaul direct-loop convolution backward pass: one sweep over
/// `(b, oc, oy, ox)` updating kernel and input gradients `kw` values at a
/// time, skipping zero output gradients.
fn naive_conv2d_backward(
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

/// An output gradient as sparse as the one a ReLU + 2×2 max-pool stage
/// hands back: one position per pooling window, half of those zeroed.
fn pooled_gradient(dims: [usize; 4], rng: &mut StdRng) -> Tensor {
    let [n, c, oh, ow] = dims;
    let dense = Tensor::randn(&dims, 1.0, rng);
    let mut g = Tensor::zeros(&dims);
    for plane in 0..n * c {
        for wy in 0..oh / 2 {
            for wx in 0..ow / 2 {
                let pick: usize = rng.gen_range(0..8);
                if pick < 4 {
                    let at = (plane * oh + 2 * wy + pick / 2) * ow + 2 * wx + pick % 2;
                    g.data_mut()[at] = dense.data()[at];
                }
            }
        }
    }
    g
}

/// Wall-clock of the fastest of `reps` runs of `f` (after one warm-up).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in buffers, grow workspaces to steady state
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_pipetune.perf.json".to_string();
    let mut check_path: Option<String> = None;
    let mut strict = false;
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--quick" => reps = 1,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => return usage(),
            },
            "--check" => match args.next() {
                Some(path) => check_path = Some(path),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let mut report = BenchReport { label: "bench_kernels".into(), ..Default::default() };
    let mut floor_ok = true;
    let mut rng = StdRng::seed_from_u64(4242);

    for (shapes, legacy) in [(&GEMM_SHAPES[..], true), (&WORKLOAD_GEMM_SHAPES[..], false)] {
        for &(m, k, n) in shapes {
            let key = format!("gemm.{m}x{k}x{n}");
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let gflop = (2.0 * m as f64 * k as f64 * n as f64) / 1e9;

            // Bit-identity first: the blocked kernel must reproduce the
            // frozen baseline exactly.
            let mut reference = vec![0.0f32; m * n];
            naive_gemm(a.data(), b.data(), &mut reference, m, k, n);
            let blocked = a.matmul(&b).expect("matmul");
            assert_eq!(
                bits(&reference),
                bits(blocked.data()),
                "{key}: blocked GEMM diverged from the frozen baseline"
            );

            let reps = reps_for(reps, gflop);
            let naive_secs = best_secs(reps, || {
                let mut out = vec![0.0f32; m * n];
                naive_gemm(a.data(), b.data(), &mut out, m, k, n);
                std::hint::black_box(&out);
            });
            let mut ws = Workspace::new();
            let mut out = Tensor::zeros(&[m, n]);
            let blocked_secs = best_secs(reps, || {
                a.matmul_into(&b, &mut out, &mut ws).expect("matmul_into");
                std::hint::black_box(out.data());
            });
            let met_floor = record(&mut report, &key, gflop, naive_secs, blocked_secs);
            floor_ok &= met_floor || !legacy;
        }
    }

    for (shapes, legacy) in [(&CONV_SHAPES[..], true), (&WORKLOAD_CONV_SHAPES[..], false)] {
        for &(batch, cin, cout, ksize, hw) in shapes {
            let key = format!("conv2d.b{batch}_c{cin}_o{cout}_k{ksize}_s{hw}");
            let x = Tensor::randn(&[batch, cin, hw, hw], 1.0, &mut rng);
            let w = Tensor::randn(&[cout, cin, ksize, ksize], 0.5, &mut rng);
            let bias = Tensor::randn(&[cout], 0.1, &mut rng);
            let o = hw - ksize + 1;
            let gflop = (2.0 * (batch * o * o) as f64
                * (cin * ksize * ksize) as f64
                * cout as f64)
                / 1e9;

            let (reference, ref_dims) = naive_conv2d_gemm(&x, &w, &bias);
            let mut ws = Workspace::new();
            let blocked = conv2d_gemm_with(&x, &w, &bias, &mut ws).expect("conv2d_gemm_with");
            assert_eq!(ref_dims.as_slice(), blocked.shape().dims());
            assert_eq!(
                bits(&reference),
                bits(blocked.data()),
                "{key}: workspace conv diverged from the frozen baseline"
            );

            let reps = reps_for(reps, gflop);
            let naive_secs = best_secs(reps, || {
                let (out, _) = naive_conv2d_gemm(&x, &w, &bias);
                std::hint::black_box(&out);
            });
            let blocked_secs = best_secs(reps, || {
                let out = conv2d_gemm_with(&x, &w, &bias, &mut ws).expect("conv2d_gemm_with");
                std::hint::black_box(out.data());
            });
            let met_floor = record(&mut report, &key, gflop, naive_secs, blocked_secs);
            floor_ok &= met_floor || !legacy;
            if legacy {
                continue;
            }

            // Backward at the workload shapes, on a pooled (mostly zero)
            // gradient; flops count the dense work, so the rate overstates
            // both sides alike. Timed as LeNet-5 runs it: its first layer
            // (one input channel) does not ask for the input gradient.
            let key = format!("conv2d_bwd.b{batch}_c{cin}_o{cout}_k{ksize}_s{hw}");
            let grad = pooled_gradient([batch, cout, o, o], &mut rng);
            let (gx, gk, gb) = naive_conv2d_backward(&x, &w, &grad);
            let grads = conv2d_backward_with(&x, &w, &grad, true, &mut ws).expect("backward");
            let got_gx = grads.grad_input.as_ref().expect("input gradient requested");
            assert_eq!(bits(&gx), bits(got_gx.data()), "{key}: input gradient diverged");
            assert_eq!(bits(&gk), bits(grads.grad_weight.data()), "{key}: kernel gradient diverged");
            assert_eq!(bits(&gb), bits(grads.grad_bias.data()), "{key}: bias gradient diverged");
            let naive_secs = best_secs(reps, || {
                std::hint::black_box(naive_conv2d_backward(&x, &w, &grad));
            });
            let input_grad = cin > 1;
            let blocked_secs = best_secs(reps, || {
                std::hint::black_box(
                    conv2d_backward_with(&x, &w, &grad, input_grad, &mut ws).expect("backward"),
                );
            });
            record(&mut report, &key, 2.0 * gflop, naive_secs, blocked_secs);
        }
    }

    let text = report.to_json_string();
    if let Err(e) = std::fs::write(&out_path, format!("{text}\n")) {
        eprintln!("bench_kernels: cannot write {out_path}: {e}");
        return ExitCode::from(1);
    }
    eprintln!("bench_kernels: wrote {} metrics to {out_path}", report.metrics.len());

    if let Some(baseline_path) = check_path {
        let baseline = match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|t| BenchReport::from_json_str(&t))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_kernels: cannot load baseline {baseline_path}: {e}");
                return ExitCode::from(1);
            }
        };
        let outcome = check(&baseline, &report, &GateConfig::perf_defaults());
        print!("{}", outcome.render());
        if !outcome.passed() {
            eprintln!("bench_kernels: regression vs {baseline_path}");
            return ExitCode::from(2);
        }
    }
    if strict && !floor_ok {
        eprintln!("bench_kernels: a legacy shape fell below the {STRICT_FLOOR}x floor");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

/// Repetitions for a shape of `gflop` work: the workload shapes finish in
/// well under a millisecond, so best-of-`reps` needs many more runs than
/// the L2-busting ones to settle.
fn reps_for(reps: usize, gflop: f64) -> usize {
    if gflop < 0.1 {
        reps * 40
    } else {
        reps
    }
}

/// Adds one shape's three metrics and logs it; returns whether the shape
/// met the strict speedup floor.
fn record(
    report: &mut BenchReport,
    key: &str,
    gflop: f64,
    naive_secs: f64,
    blocked_secs: f64,
) -> bool {
    let speedup = naive_secs / blocked_secs;
    report.metrics.insert(format!("{key}.gflops_naive"), gflop / naive_secs);
    report.metrics.insert(format!("{key}.gflops_blocked"), gflop / blocked_secs);
    report.metrics.insert(format!("{key}.speedup_vs_naive"), speedup);
    eprintln!(
        "bench_kernels: {key}: naive {:.2} GF/s ({:.0} us), blocked {:.2} GF/s ({:.0} us), speedup {speedup:.2}x",
        gflop / naive_secs,
        naive_secs * 1e6,
        gflop / blocked_secs,
        blocked_secs * 1e6,
    );
    speedup >= STRICT_FLOOR
}

/// Reinterprets a float slice as bit patterns for exact comparison.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_kernels [--out PATH] [--check BASELINE] [--strict] [--quick]");
    ExitCode::from(1)
}
