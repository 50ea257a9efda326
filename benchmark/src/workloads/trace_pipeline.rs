//! `trace_pipeline`: the read side of the observability layers — export,
//! parse, validate, report, diff, line protocol, tsdb import and query,
//! Prometheus text, monitor replay and the regression gate — over recorded
//! stream traces of two sizes.

use pipetune::TunerOptions;
use pipetune_insight::{check, BenchReport, GateConfig, TraceDiff, TraceReport};
use pipetune_monitor::{MonitorConfig, MonitorEngine};
use pipetune_service::SchedulingPolicy;
use pipetune_telemetry::{SpanKind, TelemetryHandle, TelemetrySnapshot};
use pipetune_tsdb::{Aggregate, Database, Query};

use super::shortepoch_stream::{check_stream, run_stream, stream_options, submissions, Planes};
use super::Workload;
use crate::common::{subseed, timed, BenchResult, PassOutput, Size};
use crate::probes::Units;
use crate::span::{Layer, Tracer};

pub const NAME: &str = "trace_pipeline";

/// Small traces recorded, each under a seed of its own, and passed over
/// once per large-trace pass: the working set alternates between one that
/// fits the CPU caches and one that does not, and a run's medians rest on
/// eight streams' worth of trace content, not one's.
const SMALL_TRACES: u64 = 8;

/// A recorded trace and what the pipeline must find in it.
pub struct Recorded {
    pub telemetry: TelemetryHandle,
    pub jobs: u64,
    pub epochs: u64,
}

/// Records the trace of one chaos stream of `jobs` jobs, planes on.
pub fn record_trace(
    seed: u64,
    jobs: usize,
    size: Size,
    checks: &mut PassOutput,
) -> BenchResult<Recorded> {
    let subs = submissions(seed, jobs);
    let run = run_stream(
        seed,
        &subs,
        SchedulingPolicy::Fifo,
        true,
        Planes::On,
        &stream_options(size),
    )?;
    checks.attempt("recorded stream", check_stream(&run.outcome, jobs));
    let epochs = run
        .telemetry
        .visit(|spans, _| spans.iter().filter(|s| s.kind == SpanKind::Epoch).count() as u64)
        .unwrap_or(0);
    Ok(Recorded {
        telemetry: run.telemetry,
        jobs: jobs as u64,
        epochs,
    })
}

/// What one pipeline pass saw; the counts must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineCounts {
    pub json_bytes: u64,
    pub points: u64,
    pub alerts: u64,
}

/// Takes one recorded trace through the whole pipeline, a span per stage.
pub fn pipeline_pass(trace: &Recorded, tr: &mut Tracer) -> BenchResult<PipelineCounts> {
    let snapshot = tr
        .call(Layer::Telemetry, "telemetry.snapshot", || {
            trace.telemetry.snapshot()
        })
        .ok_or("recorded trace came from a disabled handle")?;
    let json = tr.call(Layer::Telemetry, "telemetry.export_json", || {
        snapshot.to_json_string()
    });
    let parsed = tr.call(Layer::Telemetry, "telemetry.parse_json", || {
        TelemetrySnapshot::from_json_str(&json)
    })?;
    tr.call(Layer::Telemetry, "telemetry.validate", || parsed.validate())?;

    let report = tr.call(Layer::Insight, "insight.trace_report", || {
        TraceReport::from_snapshot(&parsed)
    })?;
    let rendered = tr.call(Layer::Insight, "insight.render", || report.render());
    let diff = tr.call(Layer::Insight, "insight.diff", || {
        TraceDiff::between(&snapshot, &parsed)
    })?;
    if !diff.identical {
        return Err("a trace differs from its own parsed export".into());
    }

    let lines = tr.call(Layer::Telemetry, "telemetry.line_protocol", || {
        parsed.to_line_protocol()
    });
    let db = Database::new();
    let points = tr.call(Layer::Tsdb, "tsdb.import", || {
        db.import_line_protocol(&lines)
    })?;
    let epochs = Query::measurement("pipetune_span").with_tag("kind", SpanKind::Epoch.name());
    let found = tr.call(Layer::Tsdb, "tsdb.query", || db.query(&epochs))?;
    let mean = tr.call(Layer::Tsdb, "tsdb.aggregate", || {
        db.aggregate(&epochs, "duration_secs", Aggregate::Mean)
    })?;
    if found.len() as u64 != trace.epochs || !mean.is_some_and(|m| m.is_finite() && m > 0.0) {
        return Err(format!(
            "tsdb found {} epoch spans of {}, mean {mean:?}",
            found.len(),
            trace.epochs
        )
        .into());
    }

    let prometheus = tr.call(Layer::Telemetry, "telemetry.prometheus", || {
        parsed.to_prometheus()
    });
    let timeline = tr.call(Layer::Monitor, "monitor.replay", || {
        let mut engine = MonitorEngine::new(&MonitorConfig::standard());
        engine.observe_snapshot(&parsed);
        engine.finish(&parsed.metrics)
    });

    let gate = tr.call(Layer::Insight, "insight.gate_check", || {
        let mut current = BenchReport {
            label: NAME.into(),
            ..Default::default()
        };
        current.metrics.insert(
            "trace.total_secs".into(),
            report.runs.iter().map(|r| r.wall_secs).sum(),
        );
        current
            .metrics
            .insert("trace.runs".into(), report.runs.len() as f64);
        current
            .metrics
            .insert("trace.alerts".into(), timeline.len() as f64);
        check(&current, &current, &GateConfig::headline_defaults())
    });
    if !gate.passed() || report.runs.len() as u64 != trace.jobs {
        return Err(format!("report holds {} runs of {}", report.runs.len(), trace.jobs).into());
    }
    std::hint::black_box((rendered.len(), prometheus.len()));
    Ok(PipelineCounts {
        json_bytes: json.len() as u64,
        points: points as u64,
        alerts: timeline.len() as u64,
    })
}

/// `from_json_str(to_json_string(s))` must re-export byte for byte.
pub fn check_round_trip(trace: &Recorded) -> Result<(), String> {
    let json = trace
        .telemetry
        .snapshot()
        .ok_or("disabled handle")?
        .to_json_string();
    let again = TelemetrySnapshot::from_json_str(&json)
        .map_err(|e| e.to_string())?
        .to_json_string();
    if json == again {
        Ok(())
    } else {
        Err(format!(
            "re-export differs ({} vs {} bytes)",
            json.len(),
            again.len()
        ))
    }
}

pub struct TracePipeline {
    size: Size,
    small: Vec<Recorded>,
    large: Recorded,
}

impl Workload for TracePipeline {
    /// Set-up records the traces and checks the JSON round trip of the
    /// first small one and of the large one.
    fn setup(seed: u64, size: Size, checks: &mut PassOutput) -> BenchResult<Self> {
        let (small_jobs, large_jobs) = size.pick((10, 60), (2, 4));
        let small = (0..size.pick(SMALL_TRACES, 2))
            .map(|i| record_trace(subseed(seed, i), small_jobs, size, checks))
            .collect::<BenchResult<Vec<_>>>()?;
        let this = TracePipeline {
            size,
            small,
            large: record_trace(subseed(seed, SMALL_TRACES), large_jobs, size, checks)?,
        };
        checks.attempt(
            "small trace JSON round trip",
            check_round_trip(&this.small[0]),
        );
        checks.attempt("large trace JSON round trip", check_round_trip(&this.large));
        Ok(this)
    }

    fn options(&self) -> TunerOptions {
        stream_options(self.size)
    }

    /// One cycle, the same whatever `input` is: a pass over each small
    /// trace and one over the large one. One operation is one small pass.
    fn pass(
        &mut self,
        _input: u64,
        tr: &mut Tracer,
        _units: Option<&Units>,
    ) -> BenchResult<PassOutput> {
        let mut out = PassOutput::default();
        for (trace, small) in self
            .small
            .iter()
            .map(|t| (t, true))
            .chain([(&self.large, false)])
        {
            tr.next_op();
            let (secs, counts) = timed(|| pipeline_pass(trace, tr));
            let what = if small {
                "small trace pass"
            } else {
                "large trace pass"
            };
            match counts {
                Ok(counts) => {
                    out.attempt(what, Ok(()));
                    out.sim.trace_bytes += counts.json_bytes;
                }
                Err(e) => out.attempt(what, Err(e.to_string())),
            }
            if small {
                out.ops_ms.push(secs * 1e3);
            }
            out.jobs += trace.jobs;
            out.epochs += trace.epochs;
            out.sim.completed_jobs += trace.jobs;
            out.sim.epochs_total += trace.epochs;
        }
        Ok(out)
    }
}
