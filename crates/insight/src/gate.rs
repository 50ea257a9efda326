//! The paper-claim regression gate.
//!
//! The benchmark harness extracts headline metrics (tuning-time reduction
//! vs the sequential baseline, speedup, energy reduction, final accuracy)
//! from traces into a [`BenchReport`], persisted as stable sorted-key
//! JSON (`BENCH_pipetune.json`). [`check`] compares a candidate report
//! against the committed baseline under a [`GateConfig`] of per-metric
//! [`Tolerance`]s, and CI fails when any gated metric degrades beyond
//! tolerance.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

/// Schema version stamped into every [`BenchReport`] export.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are better (speedup, reduction ratios, accuracy).
    HigherIsBetter,
    /// Smaller values are better (tuning seconds, energy).
    LowerIsBetter,
}

/// A per-metric regression tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Which way "better" points.
    pub direction: Direction,
    /// Maximum tolerated relative change in the *worse* direction before
    /// the gate fails (e.g. `0.05` = 5 %).
    pub rel_tol: f64,
}

impl Tolerance {
    /// A higher-is-better metric with the given relative tolerance.
    fn higher(rel_tol: f64) -> Self {
        Tolerance { direction: Direction::HigherIsBetter, rel_tol }
    }

    /// A lower-is-better metric with the given relative tolerance.
    pub fn lower(rel_tol: f64) -> Self {
        Tolerance { direction: Direction::LowerIsBetter, rel_tol }
    }
}

/// The gate's tolerance table.
///
/// Keys match metric names either exactly or as a `.`-separated suffix,
/// so one entry (`speedup_vs_v1`) covers every workload prefix
/// (`lenet_mnist.speedup_vs_v1`, `lstm_news20.speedup_vs_v1`, ...).
/// Metrics without a matching entry are informational: reported but
/// never failing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateConfig {
    /// Tolerances, keyed by metric name or suffix.
    pub tolerances: BTreeMap<String, Tolerance>,
}

impl GateConfig {
    /// The tolerances guarding the paper's headline claims.
    ///
    /// # Example
    ///
    /// ```
    /// use pipetune_insight::GateConfig;
    ///
    /// let config = GateConfig::headline_defaults();
    /// assert!(config.tolerance_for("lenet_mnist.speedup_vs_v1").is_some());
    /// assert!(config.tolerance_for("lenet_mnist.epochs_total").is_none());
    /// ```
    pub fn headline_defaults() -> Self {
        let mut tolerances = BTreeMap::new();
        tolerances.insert("tuning_time_reduction_vs_v1".into(), Tolerance::higher(0.05));
        tolerances.insert("tuning_time_reduction_vs_v2".into(), Tolerance::higher(0.05));
        tolerances.insert("speedup_vs_v1".into(), Tolerance::higher(0.05));
        tolerances.insert("energy_reduction_vs_v1".into(), Tolerance::higher(0.10));
        tolerances.insert("final_accuracy".into(), Tolerance::higher(0.02));
        tolerances.insert("tuning_secs.pipetune".into(), Tolerance::lower(0.05));
        // Epoch-reuse cache headline: a warm (pre-populated) cache must
        // keep tuning measurably faster than the cold run.
        tolerances.insert("warm_speedup".into(), Tolerance::higher(0.05));
        // Multi-tenant headline metrics (per scheduling policy): response
        // times must not degrade.
        tolerances.insert("mean_response_secs".into(), Tolerance::lower(0.05));
        tolerances.insert("p95_response_secs".into(), Tolerance::lower(0.05));
        GateConfig { tolerances }
    }

    /// The tolerances guarding the chaos benchmark (the headline table
    /// plus fault-tolerance bounds): under the pinned
    /// `ServiceFaultPlan::mixed` schedule the service must keep
    /// completing jobs, and shedding, abandonment and recovery overhead
    /// must not grow.
    ///
    /// # Example
    ///
    /// ```
    /// use pipetune_insight::GateConfig;
    ///
    /// let config = GateConfig::chaos_defaults();
    /// assert!(config.tolerance_for("multitenant.fifo.shed_rate").is_some());
    /// assert!(config.tolerance_for("multitenant.fifo.completed_jobs").is_some());
    /// assert!(config.tolerance_for("multitenant.fifo.monitor.alerts_total").is_some());
    /// ```
    pub fn chaos_defaults() -> Self {
        let mut config = Self::headline_defaults();
        // Response times under churn and crashes wobble more than clean
        // runs; widen the headline response tolerances accordingly.
        config.tolerances.insert("mean_response_secs".into(), Tolerance::lower(0.15));
        config.tolerances.insert("p95_response_secs".into(), Tolerance::lower(0.15));
        config.tolerances.insert("shed_rate".into(), Tolerance::lower(0.10));
        config.tolerances.insert("abandoned_rate".into(), Tolerance::lower(0.10));
        config.tolerances.insert("recovery_overhead_secs".into(), Tolerance::lower(0.25));
        config.tolerances.insert("completed_jobs".into(), Tolerance::higher(0.01));
        // Online-monitor incident counts under the pinned chaos schedule:
        // the detectors must keep firing (a collapsing count means the
        // monitor went silently blind, the inverse of a healthy run), with
        // per-detector bands wider than the total because individual
        // detectors are noisier.
        config.tolerances.insert("monitor.alerts_total".into(), Tolerance::higher(0.25));
        config.tolerances.insert("monitor.crash_loop".into(), Tolerance::higher(0.50));
        config.tolerances.insert("monitor.slo_burn".into(), Tolerance::higher(0.50));
        config
    }

    /// Resolves the tolerance guarding `metric`: exact name first, then
    /// the longest `.`-separated suffix match.
    pub fn tolerance_for(&self, metric: &str) -> Option<&Tolerance> {
        if let Some(t) = self.tolerances.get(metric) {
            return Some(t);
        }
        self.tolerances
            .iter()
            .filter(|(key, _)| metric.ends_with(&format!(".{key}")))
            .max_by_key(|(key, _)| key.len())
            .map(|(_, t)| t)
    }
}

/// A named set of benchmark metrics with a stable JSON form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// What produced the report (e.g. `bench_headline`).
    pub label: String,
    /// Metric values, keyed by `workload.metric` names (sorted).
    pub metrics: BTreeMap<String, f64>,
}

impl BenchReport {
    /// Serialises to pretty JSON with sorted keys — stable across runs,
    /// machines and worker counts, so the file diffs cleanly in git.
    ///
    /// # Example
    ///
    /// ```
    /// use pipetune_insight::BenchReport;
    ///
    /// let mut report = BenchReport { label: "demo".into(), ..Default::default() };
    /// report.metrics.insert("w.speedup_vs_v1".into(), 2.5);
    /// let text = report.to_json_string();
    /// let back = BenchReport::from_json_str(&text).unwrap();
    /// assert_eq!(back, report);
    /// assert_eq!(back.to_json_string(), text);
    /// ```
    pub fn to_json_string(&self) -> String {
        let mut obj = serde_json::Map::new();
        obj.insert("schema".to_string(), Value::U64(BENCH_SCHEMA_VERSION));
        obj.insert("label".to_string(), Value::String(self.label.clone()));
        let metrics: serde_json::Map<String, Value> =
            self.metrics.iter().map(|(k, v)| (k.clone(), Value::F64(*v))).collect();
        obj.insert("metrics".to_string(), Value::Object(metrics));
        serde_json::to_string_pretty(&Value::Object(obj))
            .expect("bench report serialises infallibly")
    }

    /// Parses a report back from its [`BenchReport::to_json_string`] form.
    ///
    /// # Errors
    ///
    /// The first problem, as a [`BenchReportError`]: bad JSON, a missing
    /// field, a wrong schema version, a non-numeric metric, or a metric
    /// such as `1e999` that is not finite (`to_json_string` could not have
    /// written it, and [`check`] would judge any comparison with it `Ok`).
    pub fn from_json_str(text: &str) -> Result<Self, BenchReportError> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| BenchReportError::Json { reason: e.to_string() })?;
        let schema = value
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or(BenchReportError::Missing { field: "schema version" })?;
        if schema != BENCH_SCHEMA_VERSION {
            return Err(BenchReportError::Schema { found: schema });
        }
        let label = value
            .get("label")
            .and_then(Value::as_str)
            .ok_or(BenchReportError::Missing { field: "label" })?
            .to_string();
        let mut metrics = BTreeMap::new();
        let object = value
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(BenchReportError::Missing { field: "metrics object" })?;
        for (name, metric) in object {
            let v = metric
                .as_f64()
                .ok_or_else(|| BenchReportError::NotANumber { metric: name.clone() })?;
            if !v.is_finite() {
                return Err(BenchReportError::NotFinite { metric: name.clone() });
            }
            metrics.insert(name.clone(), v);
        }
        Ok(BenchReport { label, metrics })
    }
}

/// Why [`BenchReport::from_json_str`] refused a text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchReportError {
    /// The text is not JSON.
    Json {
        /// The parser's diagnostic.
        reason: String,
    },
    /// A field every report has is absent or of the wrong type.
    Missing {
        /// Which: `schema version`, `label` or `metrics object`.
        field: &'static str,
    },
    /// The report is of a schema version this build does not read.
    Schema {
        /// The version the text declares.
        found: u64,
    },
    /// A metric's value is not a number.
    NotANumber {
        /// The metric's name.
        metric: String,
    },
    /// A metric's value is a number but not finite.
    NotFinite {
        /// The metric's name.
        metric: String,
    },
}

impl std::fmt::Display for BenchReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchReportError::Json { reason } => write!(f, "bench report: {reason}"),
            BenchReportError::Missing { field } => write!(f, "bench report: missing {field}"),
            BenchReportError::Schema { found } => write!(
                f,
                "bench report: schema {found} unsupported (expected {BENCH_SCHEMA_VERSION})"
            ),
            BenchReportError::NotANumber { metric } => {
                write!(f, "bench report: metric {metric} is not a number")
            }
            BenchReportError::NotFinite { metric } => {
                write!(f, "bench report: metric {metric} is not finite")
            }
        }
    }
}

impl std::error::Error for BenchReportError {}

/// One metric's verdict in a gate check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or informational).
    Ok,
    /// Changed beyond tolerance in the *better* direction.
    Improved,
    /// Changed beyond tolerance in the *worse* direction — fails the gate.
    Regressed,
    /// Present in the baseline but missing from the candidate — fails.
    Missing,
}

/// One row of a [`GateOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Metric name.
    pub metric: String,
    /// Baseline value, if present.
    pub baseline: Option<f64>,
    /// Candidate value, if present.
    pub current: Option<f64>,
    /// Relative change `(current − baseline) / |baseline|` (absolute
    /// change when the baseline is ~0).
    pub rel_change: f64,
    /// Whether the metric was guarded by a tolerance.
    pub gated: bool,
    /// The verdict.
    pub verdict: Verdict,
}

/// The result of comparing a candidate report against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Per-metric rows, sorted by metric name.
    pub checks: Vec<MetricCheck>,
}

impl GateOutcome {
    /// `true` when no gated metric regressed or went missing.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !matches!(c.verdict, Verdict::Regressed | Verdict::Missing))
    }

    /// Renders the outcome as a deterministic plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for check in &self.checks {
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
            let verdict = match check.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "IMPROVED",
                Verdict::Regressed => "REGRESSED",
                Verdict::Missing => "MISSING",
            };
            let gate = if check.gated { "gated" } else { "info " };
            let _ = writeln!(
                out,
                "  [{gate}] {:<44} {:>14} -> {:>14} ({:+8.3}%)  {verdict}",
                check.metric,
                fmt(check.baseline),
                fmt(check.current),
                100.0 * check.rel_change,
            );
        }
        let _ = writeln!(out, "gate: {}", if self.passed() { "PASS" } else { "FAIL" });
        out
    }
}

/// Compares `current` against `baseline` under `config`.
///
/// Every metric appearing in either report yields one [`MetricCheck`].
/// A gated metric fails when it moved beyond tolerance in its worse
/// direction, or when the baseline has it and the candidate does not.
/// Metrics only in the candidate are informational (they become gated
/// once the baseline is refreshed).
///
/// # Example
///
/// ```
/// use pipetune_insight::{check, BenchReport, GateConfig, Tolerance};
///
/// let mut baseline = BenchReport { label: "seed".into(), ..Default::default() };
/// baseline.metrics.insert("w.speedup_vs_v1".into(), 2.0);
/// let mut current = baseline.clone();
/// let config = GateConfig::headline_defaults();
/// assert!(check(&baseline, &current, &config).passed());
///
/// current.metrics.insert("w.speedup_vs_v1".into(), 1.0); // halved: regression
/// assert!(!check(&baseline, &current, &config).passed());
/// ```
pub fn check(baseline: &BenchReport, current: &BenchReport, config: &GateConfig) -> GateOutcome {
    let names: std::collections::BTreeSet<&String> =
        baseline.metrics.keys().chain(current.metrics.keys()).collect();
    let checks = names
        .into_iter()
        .map(|name| {
            let base = baseline.metrics.get(name).copied();
            let cur = current.metrics.get(name).copied();
            let tolerance = config.tolerance_for(name);
            let rel_change = match (base, cur) {
                (Some(b), Some(c)) if b.abs() > 1e-12 => (c - b) / b.abs(),
                (Some(b), Some(c)) => c - b,
                _ => 0.0,
            };
            let verdict = match (base, cur, tolerance) {
                (Some(_), None, Some(_)) => Verdict::Missing,
                (Some(_), Some(_), Some(t)) => {
                    let worse = match t.direction {
                        Direction::HigherIsBetter => -rel_change,
                        Direction::LowerIsBetter => rel_change,
                    };
                    if worse > t.rel_tol {
                        Verdict::Regressed
                    } else if -worse > t.rel_tol {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    }
                }
                _ => Verdict::Ok,
            };
            MetricCheck {
                metric: name.clone(),
                baseline: base,
                current: cur,
                rel_change,
                gated: tolerance.is_some(),
                verdict,
            }
        })
        .collect();
    GateOutcome { checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            label: "bench_headline".into(),
            metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn json_round_trip_is_stable_and_sorted() {
        let r = report(&[("b.x", 1.5), ("a.y", -0.25), ("a.tuning_secs.pipetune", 321.0)]);
        let text = r.to_json_string();
        assert!(text.find("\"a.tuning_secs.pipetune\"").unwrap() < text.find("\"b.x\"").unwrap());
        let back = BenchReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn bad_json_is_a_json_error() {
        let err = BenchReport::from_json_str("nope").unwrap_err();
        assert!(matches!(err, BenchReportError::Json { .. }), "{err:?}");
        assert!(err.to_string().starts_with("bench report: "), "{err}");
    }

    #[test]
    fn a_wrong_schema_is_a_schema_error() {
        let err = BenchReport::from_json_str(r#"{"schema": 9, "label": "x", "metrics": {}}"#);
        assert_eq!(err, Err(BenchReportError::Schema { found: 9 }));
        assert_eq!(
            err.unwrap_err().to_string(),
            format!("bench report: schema 9 unsupported (expected {BENCH_SCHEMA_VERSION})")
        );
        let err = BenchReport::from_json_str(r#"{"label": "x", "metrics": {}}"#);
        assert_eq!(err, Err(BenchReportError::Missing { field: "schema version" }));
    }

    #[test]
    fn a_non_numeric_metric_is_refused_by_name() {
        let err =
            BenchReport::from_json_str(r#"{"schema": 1, "label": "x", "metrics": {"m": "high"}}"#);
        assert_eq!(err, Err(BenchReportError::NotANumber { metric: "m".into() }));
        assert_eq!(err.unwrap_err().to_string(), "bench report: metric m is not a number");
    }

    #[test]
    fn from_json_refuses_a_metric_that_is_not_finite() {
        for value in ["1e999", "-1e999"] {
            let text = format!(
                r#"{{"schema": 1, "label": "x", "metrics": {{"a.speedup_vs_v1": {value}}}}}"#
            );
            let err = BenchReport::from_json_str(&text).unwrap_err();
            assert_eq!(err, BenchReportError::NotFinite { metric: "a.speedup_vs_v1".into() });
            assert_eq!(err.to_string(), "bench report: metric a.speedup_vs_v1 is not finite");
            let source: &dyn std::error::Error = &err;
            assert!(source.source().is_none());
        }
    }

    #[test]
    fn suffix_tolerances_cover_workload_prefixes() {
        let config = GateConfig::headline_defaults();
        assert!(config.tolerance_for("speedup_vs_v1").is_some());
        assert!(config.tolerance_for("lstm_news20.speedup_vs_v1").is_some());
        assert!(config.tolerance_for("lenet_mnist.tuning_secs.pipetune").is_some());
        assert!(config.tolerance_for("lenet_mnist.tuning_secs.tune_v1").is_none());
        assert!(config.tolerance_for("notspeedup_vs_v1").is_none());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let config = GateConfig::headline_defaults();
        let base = report(&[("w.speedup_vs_v1", 2.0), ("w.tuning_secs.pipetune", 100.0)]);

        // 4 % faster tuning: inside the 5 % band.
        let ok = report(&[("w.speedup_vs_v1", 2.0), ("w.tuning_secs.pipetune", 96.0)]);
        assert!(check(&base, &ok, &config).passed());

        // Tuning time degraded 10 %: the gate fails.
        let slow = report(&[("w.speedup_vs_v1", 2.0), ("w.tuning_secs.pipetune", 110.0)]);
        let outcome = check(&base, &slow, &config);
        assert!(!outcome.passed());
        assert!(outcome.render().contains("REGRESSED"));

        // Large improvement is flagged but passes.
        let fast = report(&[("w.speedup_vs_v1", 3.0), ("w.tuning_secs.pipetune", 100.0)]);
        let outcome = check(&base, &fast, &config);
        assert!(outcome.passed());
        assert!(outcome.render().contains("IMPROVED"));
    }

    #[test]
    fn missing_gated_metric_fails_new_metrics_are_informational() {
        let config = GateConfig::headline_defaults();
        let base = report(&[("w.speedup_vs_v1", 2.0)]);
        let gone = report(&[]);
        let outcome = check(&base, &gone, &config);
        assert!(!outcome.passed());
        assert!(outcome.checks.iter().any(|c| c.verdict == Verdict::Missing));

        let extra = report(&[("w.speedup_vs_v1", 2.0), ("w.new_metric", 1.0)]);
        assert!(check(&base, &extra, &config).passed());
    }

    #[test]
    fn ungated_metrics_never_fail() {
        let config = GateConfig::headline_defaults();
        let base = report(&[("w.epochs_total", 100.0)]);
        let wild = report(&[("w.epochs_total", 5.0)]);
        assert!(check(&base, &wild, &config).passed());
    }
}
