//! The per-layer ledger: fixed-size probes of every layer's public API.
//!
//! A traced run executes all of them before its workload, whatever the
//! workload is, so each traced run reports every per-layer metric and the
//! numbers describe the layers, not the workload. Only the `*.share`,
//! `sim.*`, `bench.*` and workload-ratio metrics come from the workload
//! itself. The probes also yield the unit costs ([`Units`]) with which a
//! pass splits the time of a composite call among the layers inside it.

mod middleware;
mod observability;
mod substrate;

use std::collections::BTreeMap;
use std::time::Instant;

use pipetune::prelude::*;

use crate::common::{BenchResult, Size};
use crate::span::Tracer;
use crate::stats::median;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Unit costs, seconds, measured in this process.
#[derive(Debug, Clone, Default)]
pub struct Units {
    /// Dataset generation at a workload's per-trial size, by workload name.
    data_gen_s: BTreeMap<&'static str, f64>,
    /// One kernel epoch, by workload name.
    kernel_epoch_s: BTreeMap<&'static str, f64>,
    /// Share of a model's training epoch spent inside tensor kernels, by
    /// model name.
    tensor_fraction: BTreeMap<&'static str, f64>,
    /// Scheduler time of one whole job (`next_trials` + `report`).
    pub search_job_s: f64,
    /// Trials one job instantiates.
    pub fresh_trials: u64,
    /// Everything one job costs besides its payload's epochs: a stand-alone
    /// `PipeTune::run` over a null payload, minus its kernel epochs.
    pub null_job_s: f64,
    /// Telemetry's part of what the observability planes add to a stream;
    /// the monitor's is the rest.
    pub telemetry_fraction_of_planes: f64,
}

impl Units {
    pub fn data_gen_s(&self, workload: &str) -> f64 {
        self.data_gen_s.get(workload).copied().unwrap_or(0.0)
    }

    pub fn kernel_epoch_s(&self, workload: &str) -> f64 {
        self.kernel_epoch_s.get(workload).copied().unwrap_or(0.0)
    }

    /// One line for the reader: the unit costs the estimates rest on.
    pub fn describe(&self) -> String {
        let fractions: Vec<String> = self
            .tensor_fraction
            .iter()
            .map(|(model, f)| format!("{model} {f:.2}"))
            .collect();
        format!(
            "estimates rest on: tensor fraction of an epoch {}; null job {:.3} ms of which search {:.3} ms; \
             {} trials a job; telemetry {:.2} of the planes' cost",
            fractions.join(", "),
            self.null_job_s * 1e3,
            self.search_job_s * 1e3,
            self.fresh_trials,
            self.telemetry_fraction_of_planes
        )
    }

    pub fn tensor_fraction(&self, model: &str) -> f64 {
        self.tensor_fraction
            .get(model)
            .copied()
            .unwrap_or(0.0)
            .clamp(0.0, 1.0)
    }
}

/// How much measuring a probe does: batches of calls, median over batches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Effort {
    pub batches: usize,
    /// Divides every probe's call count (1 at full size).
    pub shrink: usize,
    pub size: Size,
}

impl Effort {
    fn of(size: Size) -> Self {
        let (batches, shrink) = size.pick((5, 1), (2, 8));
        Effort {
            batches,
            shrink,
            size,
        }
    }

    /// Median seconds per call of `f`, over `batches` batches of
    /// `calls / shrink` calls.
    pub fn per_call<T>(&self, calls: usize, mut f: impl FnMut() -> T) -> f64 {
        let calls = (calls / self.shrink).max(1);
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..calls {
                    std::hint::black_box(f());
                }
                start.elapsed().as_secs_f64() / calls as f64
            })
            .collect();
        median(&samples)
    }
}

/// The ledger of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub metrics: Metrics,
    pub units: Units,
}

/// Sum of the durations of the spans called `name`, seconds, and how many.
fn span_total(tr: &Tracer, name: &str) -> (f64, u64) {
    tr.spans()
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(secs, n), s| {
            (secs + s.duration_ns() as f64 * 1e-9, n + 1)
        })
}

/// Runs every probe. `options` is the tuner profile of the workload about
/// to be traced: the per-job unit costs are measured under it.
pub fn run(seed: u64, size: Size, options: &TunerOptions) -> BenchResult<Ledger> {
    let effort = Effort::of(size);
    let mut ledger = Ledger::default();
    substrate::probe(seed, effort, &mut ledger)?;
    middleware::probe(seed, effort, options, &mut ledger)?;
    observability::probe(seed, effort, &mut ledger)?;
    Ok(ledger)
}
