//! Pieces every workload and probe shares: the error type, seeded
//! environments, pass results, process statistics and scratch files.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pipetune::prelude::*;
use pipetune::TuningOutcome;

use crate::span::Layer;

/// Errors are reported, counted as failed operations and turn the exit
/// code non-zero; none of them is recoverable inside a benchmark run.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;
pub type BenchResult<T> = Result<T, BenchError>;

/// Full-size workloads, or every workload shrunk below two seconds with all
/// checks still on (`--quick`, and the smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

impl Size {
    /// `full` at full size, `quick` under `--quick`.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Size::Full => full,
            Size::Quick => quick,
        }
    }
}

/// SplitMix64 step: derives independent sub-seeds (per pass, per probe)
/// from the run's `--seed`.
pub fn subseed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The load model's environment: the paper's distributed cluster, one
/// worker thread, everything optional switched off.
pub fn base_env(seed: u64) -> ExperimentEnvBuilder {
    ExperimentEnvBuilder::distributed(seed).workers(1)
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Simulated statistics of a pass. For identical inputs they must repeat
/// exactly — bit for bit — on one commit, whatever the wall clock did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimDigest {
    pub tuning_secs_sum: f64,
    pub energy_j_sum: f64,
    pub best_accuracy_sum: f64,
    pub epochs_total: u64,
    pub completed_jobs: u64,
    /// Spans and events the telemetry plane recorded.
    pub trace_records: u64,
    /// Bytes of trace JSON exported.
    pub trace_bytes: u64,
}

impl SimDigest {
    pub fn add_outcome(&mut self, outcome: &TuningOutcome) {
        self.tuning_secs_sum += outcome.tuning_secs;
        self.energy_j_sum += outcome.tuning_energy_j;
        self.best_accuracy_sum += f64::from(outcome.best_accuracy);
        self.epochs_total += outcome.epochs_total;
        self.completed_jobs += 1;
    }

    /// Bitwise equality (`==` on floats would accept `-0.0 == 0.0`).
    pub fn same_bits(&self, other: &SimDigest) -> bool {
        self.tuning_secs_sum.to_bits() == other.tuning_secs_sum.to_bits()
            && self.energy_j_sum.to_bits() == other.energy_j_sum.to_bits()
            && self.best_accuracy_sum.to_bits() == other.best_accuracy_sum.to_bits()
            && self.epochs_total == other.epochs_total
            && self.completed_jobs == other.completed_jobs
            && self.trace_records == other.trace_records
            && self.trace_bytes == other.trace_bytes
    }
}

/// An estimate of work done by a lower layer inside a composite call
/// (`PipeTune::run`, `TuningService::run`), which the harness cannot put a
/// span around from outside: an exact count times a unit cost the probes
/// measured in this process. The estimate moves that much self time from
/// the span's own layer to `layer`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inner {
    pub owner: Layer,
    pub layer: Layer,
    pub secs: f64,
}

/// What one pass of a workload hands back to the harness.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    /// Latency of every operation issued, milliseconds, in issue order.
    pub ops_ms: Vec<f64>,
    /// Training / kernel epochs delivered (adopted cache epochs count).
    pub epochs: u64,
    /// Jobs handled.
    pub jobs: u64,
    /// Seconds the throughput metrics divide by, when that is not the
    /// whole pass (`shortepoch_stream` counts its planes-on streams only).
    pub work_secs: Option<f64>,
    /// Operations attempted and failed (an `Err`, or a broken check).
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
    pub sim: SimDigest,
    /// Workload-specific measurements by name (`warm_s`, `persist_mb`, …):
    /// the probes read the per-layer metrics they report out of these.
    pub samples: Vec<(&'static str, f64)>,
    pub inner: Vec<Inner>,
}

impl PassOutput {
    /// Counts one attempted operation and, when `check` is an error, one
    /// failure.
    pub fn attempt(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    /// Mean of the samples called `name`; 0 when there are none.
    pub fn sample_mean(&self, name: &str) -> f64 {
        let (sum, n) = self
            .samples
            .iter()
            .filter(|(n, _)| *n == name)
            .fold((0.0, 0u32), |(sum, n), (_, v)| (sum + v, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }
}

/// Checks every score a tuning outcome reports is finite and in `[0, 1]`.
pub fn check_scores(outcome: &TuningOutcome) -> Result<(), String> {
    let acc = outcome.best_accuracy;
    if !(acc.is_finite() && (0.0..=1.0).contains(&acc)) {
        return Err(format!("best_accuracy {acc} outside [0, 1]"));
    }
    for p in &outcome.convergence {
        // Abandoned trials report NaN by design; none occur fault-free.
        if !(p.accuracy.is_finite() && (0.0..=1.0).contains(&p.accuracy)) {
            return Err(format!("trial accuracy {} outside [0, 1]", p.accuracy));
        }
    }
    if !(outcome.tuning_secs.is_finite() && outcome.tuning_secs > 0.0) {
        return Err(format!("tuning_secs {} not positive", outcome.tuning_secs));
    }
    Ok(())
}

/// A `TunerOptions::fast()` `lenet/mnist` job must come out bit-identical
/// at one and two worker threads.
pub fn check_worker_identity(seed: u64) -> BenchResult<Result<(), String>> {
    let run = |workers: usize| -> BenchResult<TuningOutcome> {
        let env = base_env(seed).workers(workers).build()?;
        Ok(PipeTune::new(TunerOptions::fast()).run(&env, &WorkloadSpec::lenet_mnist())?)
    };
    let (one, two) = (run(1)?, run(2)?);
    let (mut a, mut b) = (SimDigest::default(), SimDigest::default());
    a.add_outcome(&one);
    b.add_outcome(&two);
    Ok(if a.same_bits(&b) && one.best_hp == two.best_hp {
        check_scores(&one)
    } else {
        Err(format!("workers(1) {a:?} != workers(2) {b:?}"))
    })
}

/// `VmHWM` of this process, MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average (0 where `/proc` is unavailable).
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// A fixed integer spin loop: how fast this host runs plain code right
/// now, milliseconds. Lets a reader tell a slow host from a slow commit.
pub fn calibration_ms() -> f64 {
    let (secs, acc) = timed(|| {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        x
    });
    std::hint::black_box(acc);
    secs * 1e3
}

/// The benchmark's own directory (`benchmark/`): everything it writes
/// goes under `results/` inside it. `cargo run` and `cargo test` name it
/// at run time; a binary started by hand falls back to where it was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// A scratch directory under `results/`, removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> BenchResult<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Relaxed: the counter only keeps names apart (tests share a process).
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = results_dir().join(format!("tmp-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
