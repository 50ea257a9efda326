//! Deterministic tracing and metrics for the PipeTune reproduction.
//!
//! PipeTune's premise is that the tuning pipeline is *measurable* — epoch
//! profiles, probe grids, ground-truth hits — yet a bare `TuningOutcome`
//! throws the interior story away. This crate records it, without breaking
//! the repository's replay contract:
//!
//! * **Spans** ([`Span`], [`SpanKind`]) form the hierarchy
//!   `tuning_run > rung > batch > trial > epoch`, keyed on *simulated*
//!   time. Point [`Event`]s (`probe`, `gt_lookup`, `checkpoint`, `fault`,
//!   `retry`, `profile`) hang off spans.
//! * **Metrics** ([`MetricsRegistry`]) are counters, gauges and
//!   fixed-bucket [`Histogram`]s — ground-truth hit rates, probe counts,
//!   retries, epoch durations, energy, queue occupancy.
//! * **Exporters** turn a [`TelemetrySnapshot`] into a deterministic JSON
//!   trace, InfluxDB line protocol (via [`pipetune_tsdb`]), Prometheus
//!   text exposition ([`TelemetrySnapshot::to_prometheus`]) or a
//!   human-readable summary table. The JSON trace round-trips:
//!   [`TelemetrySnapshot::from_json_str`] parses a dump back for offline
//!   analysis, and [`TelemetrySnapshot::validate`] rejects malformed span
//!   trees with typed [`TraceError`]s.
//! * **Names** ([`names`], [`metric_names!`]) keep the canonical metric
//!   vocabulary enumerable: each subsystem's `observe` module declares its
//!   names through the macro, and [`names::unregistered`] diffs a recorded
//!   snapshot against the declared union.
//!
//! # Determinism
//!
//! Worker threads record into private [`TelemetryBuffer`]s; the executor's
//! coordinator merges them through [`TelemetryHandle::merge_trial`] (a
//! trial's span with its buffer beneath it, one lock) in scheduler
//! **request order**. Combined with simulated-time timestamps,
//! the exported trace and metrics snapshot are byte-identical for every
//! executor worker count. A disabled [`TelemetryHandle`] (the default) is
//! a no-op at every call site and leaves run results bit-unchanged.
//!
//! # Example
//!
//! ```
//! use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle, DURATION_BUCKETS_SECS};
//!
//! let telemetry = TelemetryHandle::enabled();
//! let run = telemetry.open_span(SpanId::NONE, SpanKind::TuningRun, "job", 0.0, vec![]);
//! telemetry.observe("trial.epoch_secs", DURATION_BUCKETS_SECS, 42.0);
//! telemetry.close_span(run, 42.0);
//!
//! let snap = telemetry.snapshot().unwrap();
//! assert!(snap.to_json_string().contains("\"tuning_run\""));
//! assert!(snap.to_line_protocol().starts_with("pipetune_span"));
//! println!("{}", snap.summary_table());
//! ```

#![warn(missing_docs)]

mod collector;
mod decimal;
mod export;
mod handle;
mod json;
mod metrics;
pub mod names;
mod span;
mod validate;

pub use collector::TelemetryBuffer;
pub use handle::{SpanId, TelemetryHandle, TelemetrySnapshot};
pub use metrics::{
    Histogram, MetricsRegistry, COUNT_BUCKETS, DURATION_BUCKETS_SECS, ENERGY_BUCKETS_J,
    RATIO_BUCKETS,
};
pub use span::{
    attr_bool, attr_f64, attr_str, attr_u64, AttrValue, Attrs, EpochRow, Event, EventKind, Span,
    SpanKind, SpanRecord, SpanView,
};
pub use validate::TraceError;
