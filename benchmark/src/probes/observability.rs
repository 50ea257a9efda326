//! Probes of the observability layers: `telemetry` (write and read side),
//! `monitor`, `insight` and `tsdb`.

use pipetune_service::SchedulingPolicy;
use pipetune_telemetry::{EventKind, SpanId, SpanKind, TelemetryHandle};
use pipetune_tsdb::Database;

use super::{Effort, Ledger};
use crate::common::{subseed, timed, BenchResult, PassOutput, ScratchDir};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::shortepoch_stream::{run_stream, stream_options, submissions, Planes};
use crate::workloads::trace_pipeline::{pipeline_pass, record_trace};

/// Median duration of the spans called `name`, seconds.
fn span_median(tr: &Tracer, name: &str) -> f64 {
    let samples: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    median(&samples)
}

/// Write side: what recording costs, and what a stream records.
fn probe_write_side(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    let handle = TelemetryHandle::enabled();
    let mut at = 0.0;
    let per_span = effort.per_call(50_000, || {
        at += 1.0;
        let span = handle.open_span(
            SpanId::NONE,
            SpanKind::Epoch,
            "epoch",
            at,
            vec![("epoch", 1u32.into())],
        );
        handle.event(span, EventKind::Profile, at, vec![("cores", 8u32.into())]);
        handle.close_span(span, at + 0.5);
    });
    ledger
        .metrics
        .insert("telemetry.record_ns_per_span", per_span * 1e9);

    // One stream three ways, turn and turn about: planes off, telemetry
    // only, telemetry and monitor. The differences are what each plane
    // costs a live stream.
    let options = stream_options(effort.size);
    let subs = submissions(subseed(seed, 0x7E), effort.size.pick(60, 12));
    let policy = SchedulingPolicy::ProcessorSharing;
    let modes = [Planes::Off, Planes::TelemetryOnly, Planes::On];
    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut last = None;
    for _ in 0..3 {
        for (mode, samples) in modes.iter().zip(&mut secs) {
            let (s, run) = timed(|| run_stream(seed, &subs, policy, true, *mode, &options));
            samples.push(s);
            last = Some(run?);
        }
    }
    let [off, telemetry_only, both] = secs.map(|s| median(&s));
    ledger
        .metrics
        .insert("monitor.live_overhead_ratio", both / telemetry_only);
    ledger.units.telemetry_fraction_of_planes = if both > off {
        ((telemetry_only - off) / (both - off)).clamp(0.0, 1.0)
    } else {
        1.0
    };

    let run = last.expect("three rounds ran");
    let (spans, events) = run
        .telemetry
        .visit(|s, e| (s.len(), e.len()))
        .unwrap_or((0, 0));
    ledger
        .metrics
        .insert("telemetry.spans_per_stream", spans as f64);
    ledger
        .metrics
        .insert("telemetry.events_per_stream", events as f64);
    ledger.metrics.insert("monitor.alerts", run.alerts as f64);
    Ok(())
}

/// Read side: the trace pipeline over the small trace, a span per stage.
fn probe_read_side(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    let mut checks = PassOutput::default();
    let trace = record_trace(seed, effort.size.pick(10, 2), effort.size, &mut checks)?;
    let mut tr = Tracer::new(true);
    let passes = effort.batches.max(3);
    let (secs, counts) = timed(|| (0..passes).map(|_| pipeline_pass(&trace, &mut tr)).last());
    let counts = counts.expect("at least three passes")?;
    let ms = |name: &str| span_median(&tr, name) * 1e3;
    let m = &mut ledger.metrics;
    m.insert("telemetry.snapshot_ms", ms("telemetry.snapshot"));
    m.insert("telemetry.export_json_ms", ms("telemetry.export_json"));
    m.insert("telemetry.export_json_mb", counts.json_bytes as f64 / 1e6);
    m.insert("telemetry.parse_json_ms", ms("telemetry.parse_json"));
    m.insert("telemetry.validate_ms", ms("telemetry.validate"));
    m.insert("telemetry.line_protocol_ms", ms("telemetry.line_protocol"));
    m.insert("telemetry.prometheus_ms", ms("telemetry.prometheus"));
    m.insert(
        "telemetry.trace_mb_per_s",
        counts.json_bytes as f64 / 1e6 * passes as f64 / secs,
    );
    m.insert("monitor.replay_ms", ms("monitor.replay"));
    m.insert("insight.trace_report_ms", ms("insight.trace_report"));
    m.insert("insight.render_ms", ms("insight.render"));
    m.insert("insight.diff_ms", ms("insight.diff"));
    m.insert("insight.gate_check_us", ms("insight.gate_check") * 1e3);
    m.insert("tsdb.import_ms", ms("tsdb.import"));
    m.insert("tsdb.points", counts.points as f64);
    m.insert("tsdb.query_ms", ms("tsdb.query"));
    m.insert("tsdb.aggregate_ms", ms("tsdb.aggregate"));

    // Persisting the imported store.
    let dir = ScratchDir::new("tsdb")?;
    let path = dir.path().join("trace.tsdb");
    let db = Database::new();
    let snapshot = trace.telemetry.snapshot().ok_or("disabled handle")?;
    db.import_line_protocol(&snapshot.to_line_protocol())?;
    let (save_s, saved) = timed(|| db.save(&path));
    saved?;
    let (load_s, loaded) = timed(|| Database::load(&path));
    if loaded?.len() != db.len() {
        return Err("tsdb reload lost points".into());
    }
    m.insert("tsdb.save_ms", save_s * 1e3);
    m.insert("tsdb.load_ms", load_s * 1e3);
    Ok(())
}

pub(super) fn probe(seed: u64, effort: Effort, ledger: &mut Ledger) -> BenchResult<()> {
    probe_write_side(seed, effort, ledger)?;
    probe_read_side(seed, effort, ledger)
}
