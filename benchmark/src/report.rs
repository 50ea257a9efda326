//! The metric tables (names, units, direction, bounds), `BENCHMARK.json`
//! as generated from them (a test keeps the committed file equal), the
//! result line every run ends with, the `--repeat` summary and the
//! `compare` rule.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::common::BenchResult;
use crate::harness::RunResult;
use crate::stats::{median, quartiles, spread};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every untraced run of every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The bounds are what this host supports: neighbours on its memory bus slow
/// a whole run by up to a tenth for minutes at a time (README, "Steadiness"),
/// and peak memory follows the largest model a seed happens to draw.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "epochs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every traced run of every workload.
pub type PerLayer = (&'static str, &'static str, Better);

const L: Better = Better::Lower;
const H: Better = Better::Higher;

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 117] = [
    ("tensor.matmul_nn_us", "us", L), ("tensor.matmul_tn_us", "us", L), ("tensor.matmul_nt_us", "us", L),
    ("tensor.im2col_us", "us", L), ("tensor.conv2d_fwd_us", "us", L), ("tensor.conv2d_bwd_us", "us", L),
    ("tensor.maxpool_us", "us", L), ("tensor.flops", "count", L), ("tensor.share", "ratio", L),
    ("dnn.lenet.epoch_ms", "ms", L), ("dnn.textcnn.epoch_ms", "ms", L), ("dnn.lstm.epoch_ms", "ms", L),
    ("dnn.lenet.eval_ms", "ms", L), ("dnn.textcnn.eval_ms", "ms", L), ("dnn.lstm.eval_ms", "ms", L),
    ("dnn.conv2d.fwd_us", "us", L), ("dnn.conv2d.bwd_us", "us", L),
    ("dnn.dense.fwd_us", "us", L), ("dnn.dense.bwd_us", "us", L),
    ("dnn.maxpool.fwd_us", "us", L), ("dnn.maxpool.bwd_us", "us", L),
    ("dnn.embedding.fwd_us", "us", L), ("dnn.embedding.bwd_us", "us", L),
    ("dnn.lstm_cell.fwd_us", "us", L), ("dnn.lstm_cell.bwd_us", "us", L),
    ("dnn.loss_us", "us", L), ("dnn.sgd_step_us", "us", L),
    ("dnn.attributed_share", "ratio", H), ("dnn.share", "ratio", L),
    ("data.mnist_like_ms", "ms", L), ("data.fashion_like_ms", "ms", L), ("data.news20_like_ms", "ms", L),
    ("data.share", "ratio", L),
    ("kernels.jacobi.epoch_us", "us", L), ("kernels.hotspot.epoch_us", "us", L), ("kernels.share", "ratio", L),
    ("search.next_trials_us", "us", L), ("search.report_us", "us", L), ("search.trials", "count", L),
    ("search.share", "ratio", L),
    ("core.instantiate_ms", "ms", L), ("core.trial_epoch_overhead_us", "us", L), ("core.tuner_run_ms", "ms", L),
    ("core.share", "ratio", L), ("core.middleware_share", "ratio", L), ("core.runner.w2_speedup", "ratio", H),
    ("core.groundtruth.lookup_us", "us", L), ("core.groundtruth.record_us", "us", L),
    ("core.groundtruth.refit_ms", "ms", L), ("core.groundtruth.hit_ratio", "ratio", H),
    ("core.groundtruth.save_ms", "ms", L), ("core.groundtruth.load_ms", "ms", L),
    ("core.cache.hit_ratio", "ratio", H), ("core.cache.evictions", "count", L),
    ("core.cache.save_ms", "ms", L), ("core.cache.load_ms", "ms", L), ("core.cache.file_mb", "MB", L),
    ("core.cache.cold_overhead_ratio", "ratio", L), ("core.cache.warm_over_cold", "ratio", L),
    ("core.persist_mb_per_s", "MB/s", H),
    ("clustering.kmeans_fit_ms", "ms", L), ("clustering.predict_us", "us", L),
    ("perfmon.profile_epoch_us", "us", L),
    ("cluster.epoch_duration_ns", "ns", L), ("cluster.fault_draw_ns", "ns", L), ("cluster.slot_lease_ns", "ns", L),
    ("energy.energy_joules_ns", "ns", L),
    ("service.run_ms.fifo", "ms", L), ("service.run_ms.processor_sharing", "ms", L),
    ("service.run_ms.shortest_remaining", "ms", L), ("service.dispatch_us_per_job", "us", L),
    ("service.engine_event_us", "us", L), ("service.completed_ratio", "ratio", H),
    ("service.resubmissions", "count", L), ("service.planes_overhead_ratio", "ratio", L),
    ("service.share", "ratio", L),
    ("telemetry.record_ns_per_span", "ns", L), ("telemetry.spans_per_stream", "count", L),
    ("telemetry.events_per_stream", "count", L), ("telemetry.snapshot_ms", "ms", L),
    ("telemetry.export_json_ms", "ms", L), ("telemetry.export_json_mb", "MB", L),
    ("telemetry.parse_json_ms", "ms", L), ("telemetry.validate_ms", "ms", L),
    ("telemetry.line_protocol_ms", "ms", L), ("telemetry.prometheus_ms", "ms", L),
    ("telemetry.trace_mb_per_s", "MB/s", H), ("telemetry.share", "ratio", L),
    ("monitor.live_overhead_ratio", "ratio", L), ("monitor.replay_ms", "ms", L), ("monitor.alerts", "count", L),
    ("monitor.share", "ratio", L),
    ("insight.trace_report_ms", "ms", L), ("insight.render_ms", "ms", L), ("insight.diff_ms", "ms", L),
    ("insight.gate_check_us", "us", L), ("insight.share", "ratio", L),
    ("tsdb.import_ms", "ms", L), ("tsdb.points", "count", L), ("tsdb.query_ms", "ms", L),
    ("tsdb.aggregate_ms", "ms", L), ("tsdb.save_ms", "ms", L), ("tsdb.load_ms", "ms", L),
    ("tsdb.share", "ratio", L),
    ("bench.trace_overhead_ratio", "ratio", L), ("bench.attributed_share", "ratio", H),
    ("bench.calibration_ms", "ms", L), ("bench.loadavg1", "count", L),
    ("bench.op_ms_p90", "ms", L), ("bench.op_samples", "count", H),
    ("sim.tuning_secs_sum", "s", L), ("sim.energy_j_sum", "J", L), ("sim.best_accuracy_sum", "ratio", H),
    ("sim.epochs_total", "count", L), ("sim.completed_jobs", "count", H),
    ("sim.trace_records", "count", L), ("sim.trace_bytes", "count", L),
];

/// Seconds one run measures for: the `run_seconds` of `BENCHMARK.json`, and
/// what `--seconds` defaults to.
pub const RUN_SECONDS: u32 = 15;

/// The command `BENCHMARK.json` declares, run from the repository's root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`: the command, the workloads and both metric tables.
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.name()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Unit of the metric called `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// A number as JSON: shortest text that reads back to the same `f64`;
/// `null` for one that is not finite.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The line a run ends with: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit_of(name).unwrap_or("count")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// Text of `results/<workload>.trace.json`: the run, its metrics, its spans.
pub fn trace_file(name: &str, seed: u64, result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(metric, value)| format!("\n\"{metric}\":{}", json_number(*value)))
        .collect();
    format!(
        "{{\"workload\":\"{name}\",\"seed\":{seed},\"metrics\":{{{}\n}},\"spans\":{}}}\n",
        metrics.join(","),
        crate::span::spans_to_json(&result.spans)
    )
}

/// Whether a parsed result line says `correct`, and its metric values.
fn parse_result(value: &Value) -> BenchResult<(bool, BTreeMap<String, f64>)> {
    let correct = value
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("result without 'correct'")?;
    let metrics = value
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without 'metrics'")?;
    let values = metrics
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
        .collect();
    Ok((correct, values))
}

/// The same for the text of a result line.
pub fn parse_result_line(line: &str) -> BenchResult<(bool, BTreeMap<String, f64>)> {
    parse_result(&serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?)
}

/// Values of one metric over several runs, by workload then metric.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Adds one run's metric values to `runs`.
pub fn add_run(runs: &mut Runs, workload: &str, metrics: BTreeMap<String, f64>) {
    let per_workload = runs.entry(workload.to_string()).or_default();
    for (metric, value) in metrics {
        per_workload.entry(metric).or_default().push(value);
    }
}

/// Prints each end-to-end metric's median, quartiles and spread against a
/// third of its bound — the steadiness this benchmark is held to.
pub fn print_repeat_summary(runs: &Runs) {
    println!(
        "\n{:<20} {:<14} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for (workload, metrics) in runs {
        for m in END_TO_END {
            let Some(values) = metrics.get(m.name) else {
                continue;
            };
            let (q1, q3) = quartiles(values);
            let s = spread(values);
            let verdict = if m.name == "setup_s" {
                "informational"
            } else if s <= m.bound / 3.0 {
                "steady"
            } else if s <= m.bound {
                "within bound"
            } else {
                "WIDER THAN BOUND"
            };
            println!(
                "{workload:<20} {:<14} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6.2} {verdict}",
                m.name,
                values.len(),
                median(values),
                q1,
                q3,
                s,
                m.bound
            );
        }
    }
}

/// Reads a `--out` file: one `{"workload", "seed", "trace", "result"}`
/// object a line.
pub fn read_runs(path: &str) -> BenchResult<Runs> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let value: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = value
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without 'workload'")?;
        let result = value.get("result").ok_or("run without 'result'")?;
        add_run(&mut runs, workload, parse_result(result)?.1);
    }
    Ok(runs)
}

/// What the pairs of one metric on one workload show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Loss,
    Unresolved,
}

/// The rule of choosing-metrics §8 for one metric: `parent[i]` and
/// `change[i]` are the two sides of pair `i`. A gain needs at least ten
/// pairs, the change winning at least nine tenths of all pairs (ties count
/// for neither side), and medians apart by more than the distance between
/// the parent's quartiles. A loss is the same rule with the sides swapped.
pub fn verdict(parent: &[f64], change: &[f64], better: Better) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let wins_of = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .filter(|(a, b)| match better {
                Better::Lower => a < b,
                Better::Higher => a > b,
            })
            .count()
    };
    let (q1, q3) = quartiles(parent);
    let apart = (median(change) - median(parent)).abs() > (q3 - q1).abs();
    let needed = (pairs * 9).div_ceil(10);
    if apart && wins_of(change, parent) >= needed {
        Verdict::Gain
    } else if apart && wins_of(parent, change) >= needed {
        Verdict::Loss
    } else {
        Verdict::Unresolved
    }
}

/// Whether the change's median is worse than the parent's by more than
/// `bound`. `None` when the parent's own spread is wider than the bound and
/// the runs of the two sides overlap: unresolved, not unchanged.
pub fn regressed(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<bool> {
    let (mp, mc) = (median(parent), median(change));
    let worse_by = match better {
        Better::Lower => (mc - mp) / mp,
        Better::Higher => (mp - mc) / mp,
    };
    if spread(parent) > bound {
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let every_run_better = match better {
            Better::Lower => max(change) < min(parent),
            Better::Higher => min(change) > max(parent),
        };
        return if every_run_better { Some(false) } else { None };
    }
    Some(worse_by > bound)
}

/// `compare A B`: every end-to-end metric of every workload both files hold.
/// Returns whether any metric regressed beyond its bound.
pub fn compare(parent_path: &str, change_path: &str) -> BenchResult<bool> {
    let (parent, change) = (read_runs(parent_path)?, read_runs(change_path)?);
    let mut any_regressed = false;
    println!(
        "{:<20} {:<14} {:>5} {:>12} {:>12} {:>8} {:<11} bound",
        "workload", "metric", "pairs", "parent", "change", "delta", "pairs say"
    );
    for (workload, parent_metrics) in &parent {
        let Some(change_metrics) = change.get(workload) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(a), Some(b)) = (parent_metrics.get(m.name), change_metrics.get(m.name))
            else {
                continue;
            };
            let says = match verdict(a, b, m.better) {
                Verdict::Gain => "gain",
                Verdict::Loss => "loss",
                Verdict::Unresolved => "unresolved",
            };
            let within = match regressed(a, b, m.better, m.bound) {
                Some(false) => "within bound",
                Some(true) => {
                    any_regressed = true;
                    "REGRESSED"
                }
                None => "unresolved (parent spread wider than bound)",
            };
            let (ma, mb) = (median(a), median(b));
            println!(
                "{workload:<20} {:<14} {:>5} {ma:>12.4} {mb:>12.4} {:>+8.4} {says:<11} {within}",
                m.name,
                a.len().min(b.len()),
                (mb - ma) / ma
            );
        }
    }
    Ok(any_regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_needs_ten_pairs_nine_wins_and_medians_apart() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v - 20.0).collect();
        assert_eq!(verdict(&parent, &faster, Better::Lower), Verdict::Gain);
        assert_eq!(verdict(&parent, &faster, Better::Higher), Verdict::Loss);
        assert_eq!(
            verdict(&parent[..9], &faster[..9], Better::Lower),
            Verdict::Unresolved
        );
        // Wins every pair, but by less than the parent's inter-quartile distance.
        let barely: Vec<f64> = parent.iter().map(|v| v - 1.0).collect();
        assert_eq!(
            verdict(&parent, &barely, Better::Lower),
            Verdict::Unresolved
        );
        // Medians far apart, but only eight of ten pairs won.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(verdict(&parent, &mixed, Better::Lower), Verdict::Unresolved);
        // A tie counts for neither side: nine wins of ten pairs still pass.
        let mut tie = faster.clone();
        tie[0] = parent[0];
        assert_eq!(verdict(&parent, &tie, Better::Lower), Verdict::Gain);
    }

    #[test]
    fn regression_is_judged_against_the_bound_unless_the_parent_is_too_noisy() {
        let steady = [
            100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.0,
        ];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(regressed(&steady, &slower, Better::Lower, 0.10), Some(true));
        assert_eq!(regressed(&steady, &same, Better::Lower, 0.10), Some(false));
        assert_eq!(
            regressed(&steady, &slower, Better::Higher, 0.10),
            Some(false)
        );
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(regressed(&noisy, &same, Better::Lower, 0.10), None);
        let far_better = [10.0; 10];
        assert_eq!(
            regressed(&noisy, &far_better, Better::Lower, 0.10),
            Some(false)
        );
    }

    #[test]
    fn result_line_round_trips_and_has_exactly_the_contract_keys() {
        let mut result = RunResult {
            attempted: 7,
            ..Default::default()
        };
        result.metrics.insert("setup_s", 0.812_734_5);
        result.metrics.insert("op_ms_p50", 1.25);
        let line = result_line(&result);
        let value: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = value.as_object().unwrap().keys().collect();
        assert_eq!(keys.len(), 4);
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(value.get(key).is_some(), "{key} missing from {line}");
        }
        let (correct, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(metrics["setup_s"], 0.812_734_5);
        assert!(line.contains("\"unit\": \"ms\""));
    }

    #[test]
    fn a_failed_operation_or_a_nan_makes_the_run_incorrect() {
        let mut result = RunResult {
            attempted: 3,
            failed: 1,
            ..Default::default()
        };
        assert!(!result.correct());
        result.failed = 0;
        result.metrics.insert("op_ms_p50", f64::NAN);
        assert!(!result.correct());
        assert!(result_line(&result).contains("\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(PER_LAYER.len() <= 128);
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the root of the repository is `manifest()`'s
    /// output (`pipetune-wallbench manifest > BENCHMARK.json`) and fits the
    /// limits its readers set.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = crate::common::bench_dir().join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            text,
            manifest(),
            "regenerate with `pipetune-wallbench manifest > BENCHMARK.json`"
        );
        let value: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(value.as_object().unwrap().len(), 6);
        assert_eq!(
            value
                .get("workloads")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            value
                .get("per_layer")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
        for (_, why) in crate::workloads::WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains(['"', '\\', '\n']),
                "{why}"
            );
        }
        assert!(text.len() <= 64 * 1024);
    }
}
