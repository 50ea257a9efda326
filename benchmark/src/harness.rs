//! Runs one workload in this process: the run-wide checks, repeated set-up,
//! the per-layer probes (traced runs only), passes until the measuring time
//! is used up, and the metrics of the run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::common::{
    calibration_ms, check_worker_identity, loadavg1, peak_rss_mb, timed, BenchResult, PassOutput,
    SimDigest, Size,
};
use crate::probes::{self, Metrics};
use crate::span::{self, Layer, Tracer};
use crate::stats::{median, p90};
use crate::workloads::{
    dnn_tune::DnnTune, reuse_persist::ReusePersist, shortepoch_stream::ShortepochStream,
    trace_pipeline::TracePipeline, Workload,
};

/// Set-ups per run: `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Passes every run makes whatever the time limit: two passes over the
/// first input, so every run re-executes its first operations.
const MIN_PASSES: u64 = 2;

/// How one run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Seconds the passes measure for. A traced run first runs the probes,
    /// which are fixed work on top of this.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced
    /// one, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the reader: sample counts, the unattributed span, …
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub spans: Vec<span::Span>,
}

impl RunResult {
    /// No operation failed, and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.values().all(|v| v.is_finite())
    }
}

/// Runs the workload called `name`.
pub fn run(name: &str, cfg: RunConfig) -> BenchResult<RunResult> {
    use crate::workloads::{dnn_tune, reuse_persist, shortepoch_stream, trace_pipeline};
    match name {
        dnn_tune::NAME => run_workload::<DnnTune>(cfg),
        reuse_persist::NAME => run_workload::<ReusePersist>(cfg),
        shortepoch_stream::NAME => run_workload::<ShortepochStream>(cfg),
        trace_pipeline::NAME => run_workload::<TracePipeline>(cfg),
        other => Err(format!("unknown workload '{other}'").into()),
    }
}

/// One pass as the harness saw it.
struct Pass {
    input: u64,
    secs: f64,
    traced: bool,
    out: PassOutput,
}

/// Which input pass number `index` runs over, whether its spans are on,
/// and whether it is the run's last, `elapsed` seconds into a run whose
/// passes have taken `mean_pass` seconds so far.
///
/// An untraced run gives every pass an input of its own and returns to the
/// first input for its last pass, which makes that pass the same-seed
/// re-execution the determinism check needs. A traced run passes over every
/// input twice, spans on and spans off, swapping the order from pair to
/// pair, so tracing overhead is a ratio of like with like.
fn plan(cfg: &RunConfig, index: u64, elapsed: f64, mean_pass: f64) -> (u64, bool, bool) {
    // The pass after this one would start more than half a pass short of
    // the limit: the run ends within half a pass of `--seconds`.
    let out_of_time = index + 1 >= MIN_PASSES && elapsed + 1.5 * mean_pass >= cfg.seconds;
    if cfg.trace {
        let pair = index / 2;
        (pair, index % 2 == pair % 2, index % 2 == 1 && out_of_time)
    } else {
        (if out_of_time { 0 } else { index }, false, out_of_time)
    }
}

fn run_workload<W: Workload>(cfg: RunConfig) -> BenchResult<RunResult> {
    let mut result = RunResult::default();
    let mut checks = PassOutput::default();
    checks.attempt(
        "fast lenet/mnist identical at workers(1) and workers(2)",
        check_worker_identity(cfg.seed)?,
    );

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // One instance alive at a time, so `peak_rss_mb` is a single
        // set-up's, not the sum of three.
        drop(workload.take());
        let (secs, built) = timed(|| W::setup(cfg.seed, cfg.size, &mut checks));
        setups.push(secs);
        workload = Some(built?);
    }
    let mut workload = workload.expect("SETUP_REPS is at least one");

    let ledger = if cfg.trace {
        Some(probes::run(cfg.seed, cfg.size, &workload.options())?)
    } else {
        None
    };
    let units = ledger.as_ref().map(|l| &l.units);

    let mut tracer = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let passes_started = Instant::now();
    loop {
        let index = passes.len() as u64;
        let mean_pass = passes_started.elapsed().as_secs_f64() / passes.len().max(1) as f64;
        let (input, traced, last) = plan(
            &cfg,
            index,
            passes_started.elapsed().as_secs_f64(),
            mean_pass,
        );
        tracer.set_enabled(traced);
        let (secs, out) = timed(|| {
            tracer.span(Layer::Bench, "bench.pass", |tr| {
                workload.pass(input, tr, units.filter(|_| traced))
            })
        });
        passes.push(Pass {
            input,
            secs,
            traced,
            out: out?,
        });
        if last {
            break;
        }
    }
    let measured_secs = passes_started.elapsed().as_secs_f64();
    tracer.set_enabled(false);

    // Passes over one input must agree on every simulated statistic.
    let mut first_of: BTreeMap<u64, &SimDigest> = BTreeMap::new();
    let mut mismatches = Vec::new();
    for pass in &passes {
        let first = *first_of.entry(pass.input).or_insert(&pass.out.sim);
        if !first.same_bits(&pass.out.sim) {
            mismatches.push(format!(
                "input {}: {:?} != first {first:?}",
                pass.input, pass.out.sim
            ));
        }
    }
    checks.attempt(
        "same inputs give identical simulated statistics",
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        },
    );

    result.attempted = checks.attempted;
    result.failed = checks.failed;
    result.failures = std::mem::take(&mut checks.failures);
    for pass in &passes {
        result.attempted += pass.out.attempted;
        result.failed += pass.out.failed;
        result.failures.extend(pass.out.failures.iter().cloned());
    }

    match ledger {
        None => end_to_end(&mut result, &setups, &passes),
        Some(ledger) => {
            result.notes.push(ledger.units.describe());
            per_layer(&mut result, ledger.metrics, &passes, tracer.spans());
        }
    }
    result.notes.push(format!(
        "{} passes in {measured_secs:.3} s, {} set-ups, {} checks",
        passes.len(),
        setups.len(),
        result.attempted
    ));
    result.spans = tracer.into_spans();
    Ok(result)
}

fn end_to_end(result: &mut RunResult, setups: &[f64], passes: &[Pass]) {
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.out.ops_ms.iter().copied())
        .collect();
    let (mut epochs, mut jobs, mut secs) = (0.0, 0.0, 0.0);
    for p in passes {
        epochs += p.out.epochs as f64;
        jobs += p.out.jobs as f64;
        secs += p.out.work_secs.unwrap_or(p.secs);
    }
    let m = &mut result.metrics;
    m.insert("setup_s", median(setups));
    m.insert("op_ms_p50", median(&ops));
    m.insert("epochs_per_s", epochs / secs);
    m.insert("jobs_per_s", jobs / secs);
    m.insert("peak_rss_mb", peak_rss_mb());
    result
        .notes
        .push(format!("op_ms_p50 over {} operations", ops.len()));
}

fn per_layer(result: &mut RunResult, mut metrics: Metrics, passes: &[Pass], spans: &[span::Span]) {
    // Self time per layer over the traced passes, composite calls split by
    // the passes' estimates.
    let mut by_layer = span::self_secs_by_layer(spans);
    for inner in passes
        .iter()
        .filter(|p| p.traced)
        .flat_map(|p| p.out.inner.iter())
    {
        let owned = by_layer.entry(inner.owner).or_insert(0.0);
        let moved = inner.secs.min(*owned).max(0.0);
        *owned -= moved;
        *by_layer.entry(inner.layer).or_insert(0.0) += moved;
    }
    let wall: f64 = passes.iter().filter(|p| p.traced).map(|p| p.secs).sum();
    for layer in Layer::SHARED {
        metrics.insert(
            layer.share_metric(),
            by_layer.get(&layer).copied().unwrap_or(0.0) / wall,
        );
    }
    let all_layers: f64 = by_layer
        .iter()
        .filter(|(l, _)| **l != Layer::Bench)
        .map(|(_, s)| s)
        .sum();
    let payload: f64 = by_layer
        .iter()
        .filter(|(l, _)| l.is_payload())
        .map(|(_, s)| s)
        .sum();
    metrics.insert("core.middleware_share", (all_layers - payload) / wall);

    let attributed = all_layers / wall;
    metrics.insert("bench.attributed_share", attributed);
    if attributed < 0.90 {
        if let Some((name, secs)) = span::largest_unattributed(spans) {
            result.notes.push(format!(
                "attributed {attributed:.3} < 0.90: largest unattributed span is {name} ({secs:.3} s of its own)"
            ));
        }
    }
    // Every input was passed over twice, spans on and spans off.
    let ratios: Vec<f64> = passes
        .chunks_exact(2)
        .map(|pair| {
            let (on, off) = if pair[0].traced {
                (&pair[0], &pair[1])
            } else {
                (&pair[1], &pair[0])
            };
            on.secs / off.secs
        })
        .collect();
    metrics.insert("bench.trace_overhead_ratio", median(&ratios));
    metrics.insert("bench.calibration_ms", calibration_ms());
    metrics.insert("bench.loadavg1", loadavg1());

    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.out.ops_ms.iter().copied())
        .collect();
    let (tail, enough) = p90(&ops);
    metrics.insert("bench.op_ms_p90", tail);
    metrics.insert("bench.op_samples", ops.len() as f64);
    if !enough {
        result.notes.push(format!(
            "bench.op_ms_p90 over {} operations: fewer than ten samples lie beyond it",
            ops.len()
        ));
    }

    let sim = &passes[0].out.sim;
    metrics.insert("sim.tuning_secs_sum", sim.tuning_secs_sum);
    metrics.insert("sim.energy_j_sum", sim.energy_j_sum);
    metrics.insert("sim.best_accuracy_sum", sim.best_accuracy_sum);
    metrics.insert("sim.epochs_total", sim.epochs_total as f64);
    metrics.insert("sim.completed_jobs", sim.completed_jobs as f64);
    metrics.insert("sim.trace_records", sim.trace_records as f64);
    metrics.insert("sim.trace_bytes", sim.trace_bytes as f64);
    result.metrics = metrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(trace: bool) -> RunConfig {
        RunConfig {
            seed: 1,
            seconds: 10.0,
            trace,
            size: Size::Full,
        }
    }

    /// The smoke run: every workload at `--quick` size, untraced and traced,
    /// every check on, every declared metric reported.
    #[test]
    fn quick_runs_pass_every_check_and_report_every_declared_metric() {
        use crate::report::{END_TO_END, PER_LAYER};
        for (name, _) in crate::workloads::WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    size: Size::Quick,
                };
                let result = run(name, cfg).unwrap_or_else(|e| panic!("{name} trace {trace}: {e}"));
                assert!(
                    result.correct(),
                    "{name} trace {trace}: {:?} {:?}",
                    result.failures,
                    result.metrics
                );
                assert!(result.attempted > 0);
                let mut declared: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                declared.sort_unstable();
                let reported: Vec<&str> = result.metrics.keys().copied().collect();
                assert_eq!(reported, declared, "{name} trace {trace}");
                assert_eq!(result.spans.is_empty(), !trace);
            }
        }
    }

    #[test]
    fn an_untraced_run_ends_on_its_first_input_within_half_a_pass_of_the_limit() {
        // Passes of 2 s: the fifth would start at 8 s and end at the limit.
        assert_eq!(plan(&cfg(false), 0, 0.0, 0.0), (0, false, false));
        assert_eq!(plan(&cfg(false), 3, 6.0, 2.0), (3, false, false));
        assert_eq!(plan(&cfg(false), 4, 8.0, 2.0), (0, false, true));
        // Whatever the limit, a run makes two passes.
        assert_eq!(plan(&cfg(false), 0, 20.0, 20.0), (0, false, false));
        assert_eq!(plan(&cfg(false), 1, 20.0, 20.0), (0, false, true));
    }

    #[test]
    fn a_traced_run_pairs_passes_and_swaps_their_order() {
        let planned: Vec<_> = (0..4).map(|i| plan(&cfg(true), i, 0.0, 1.0)).collect();
        assert_eq!(
            planned,
            vec![
                (0, true, false),
                (0, false, false),
                (1, false, false),
                (1, true, false)
            ]
        );
        // Out of time in the middle of a pair: the pair is completed first.
        assert_eq!(plan(&cfg(true), 2, 9.5, 1.0), (1, false, false));
        assert_eq!(plan(&cfg(true), 3, 10.5, 1.0), (1, true, true));
    }
}
