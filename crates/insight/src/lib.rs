//! Offline trace analytics for the PipeTune reproduction.
//!
//! The telemetry layer (PR 3) records what the tuning pipeline *did*; this
//! crate answers what the trace *means*. It consumes the deterministic JSON
//! traces exported by [`pipetune_telemetry::TelemetrySnapshot`] and offers
//! three tools:
//!
//! * **Critical-path reports** ([`TraceReport`]) — per-phase time
//!   attribution (profile / probe / tuned / fixed / retry overhead),
//!   per-rung slot utilization and idle time, straggler ranking and the
//!   critical path through each tuning run.
//! * **Trace diffs** ([`TraceDiff`]) — compare two runs: per-phase deltas,
//!   changed span/event structure and metric counters.
//! * **The regression gate** ([`BenchReport`], [`GateConfig`], [`check`])
//!   — extract the paper's headline claims (tuning-time reduction vs the
//!   sequential baseline, speedup, energy reduction, final accuracy) from
//!   traces, persist them in a stable sorted-key JSON schema and fail a
//!   build when a metric degrades beyond tolerance.
//! * **Multi-tenant summaries** ([`response_stats`],
//!   [`multitenant_metrics`], [`service_fault_metrics`]) — per-job
//!   response-time percentiles and fault-tolerance rates for a
//!   `pipetune-service` run, feeding the report's `multitenant.{policy}.*`
//!   gated section (clean runs via `GateConfig::headline_defaults`, the
//!   chaos benchmark via `GateConfig::chaos_defaults`).
//!
//! Everything here is a **pure function of the trace**: no wall clock, no
//! I/O, no randomness. Because the input traces are byte-identical for
//! every executor worker count, so is every report, diff and gate verdict.
//!
//! # Example
//!
//! ```
//! use pipetune_insight::TraceReport;
//! use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle};
//!
//! let telemetry = TelemetryHandle::enabled();
//! let run = telemetry.open_span(
//!     SpanId::NONE,
//!     SpanKind::TuningRun,
//!     "pipetune",
//!     0.0,
//!     vec![("workload", "lenet/mnist".into()), ("parallel_slots", 4u64.into())],
//! );
//! telemetry.close_span(run, 10.0);
//!
//! let snap = telemetry.snapshot().unwrap();
//! let report = TraceReport::from_snapshot(&snap).unwrap();
//! assert_eq!(report.runs.len(), 1);
//! assert_eq!(report.runs[0].workload, "lenet/mnist");
//! assert!(report.render().contains("pipetune"));
//! ```

#![warn(missing_docs)]

mod diff;
mod gate;
mod headline;
mod multitenant;
mod report;

pub use diff::TraceDiff;
pub use gate::{
    check, BenchReport, BenchReportError, Direction, GateConfig, GateOutcome, MetricCheck,
    Tolerance, Verdict,
};
pub use headline::{
    best_accuracy, cache_speedup_metrics, headline_metrics, total_energy_j, tuning_secs,
};
pub use multitenant::{multitenant_metrics, response_stats, service_fault_metrics, ResponseStats};
pub use report::{DurationStats, PhaseBreakdown, RunReport, RungReport, Straggler, TraceReport};
