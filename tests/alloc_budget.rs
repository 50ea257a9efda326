//! An allocation budget for the short-epoch path (the paper's §7.3 regime,
//! the wall-clock benchmark's `shortepoch_stream` workload): what a stream
//! of microsecond-epoch kernel jobs may ask of the allocator, with the
//! observability planes off and — per recorded span and event — with them
//! on.
//!
//! The counts are **pure functions of the seed**: one thread
//! (`workers(1)`), no wall clock, and no container on the path whose growth
//! depends on its hasher's per-process keys (the job driver's trial map is
//! ordered; the schedulers' hash maps only ever insert) — so a second run
//! of the same stream must repeat them exactly, and a budget that is met
//! once is met always. They are counts, not times: a host under load reads
//! the same numbers.
//!
//! Measured by this test itself at the commit before the per-epoch path
//! stopped allocating (the parent of the change that added this file), and
//! after it, over the same four streams:
//!
//! | | parent | budget | with the change |
//! |---|---|---|---|
//! | extra allocations per recorded span + event, planes on | 8.70 | ≤ 4.0 | 2.69 |
//! | planes-off MB allocated per job | 1.91 | ≤ 0.7 | 0.49 |
//! | planes-off allocations per job | 1 802 | ≤ 1 300 | 1 107 |
//!
//! (Per stream at the parent: 394 252 allocations / 148.3 MB with the planes
//! on, 107 765 / 114.6 MB off, 32 915 trace records; with the change
//! 154 453 / 50.7 MB on and 66 107 / 29.1 MB off.) The test prints the
//! current counts.
//!
//! Later, an epoch span became a typed row (no label, no attribute list of
//! its own) and the stencil kernels gained a scratch row each:
//!
//! | | before | budget | after |
//! |---|---|---|---|
//! | extra allocations per recorded span + event, planes on | 2.69 | ≤ 1.41 | 1.41 |
//! | planes-off allocations per job | 1 083 | ≤ 1 300 | 1 112 |
//!
//! (The planes-off count rises by the kernels' scratch rows, one per
//! instance.)
//!
//! The second test budgets the read side of the observability layers — the
//! wall-clock benchmark's `trace_pipeline` workload — over one recorded
//! 10-job chaos trace (4 481 spans, 1 138 events, 5 650 tsdb points), by the
//! same counter. Measured by that test at the commit before a tsdb `Point`
//! became one buffer and a `TraceReport` one walk, and after:
//!
//! | | parent | budget | with the change |
//! |---|---|---|---|
//! | allocations per imported point | 16.30 | ≤ 4.0 | 3.00 |
//! | allocations per `query` clone | 19.00 | ≤ 3 (+ the result's growth) | 3.00 |
//! | `TraceReport::from_snapshot`, per run + rung + trial | 23.4 | ≤ 8.0 | 1.6 |
//! | `TraceDiff::between` over its two `from_snapshot`s | + 11 377 | ≤ + 256 | + 36 |
//!
//! (At the parent: 92 100 allocations to import, 67 841 to clone 3 570
//! points out, 18 735 for a report — more than the trace has epochs, one
//! `Point` and one phase name each — 48 847 for a diff. With the change:
//! 16 963, 10 721, 1 278 and 2 592. The first test's planes-off count fell
//! with them, 1 107 → 1 096 allocations per job: the ground truth builds
//! `Point`s.)
//!
//! The same test counts the two text exports of that trace, which write
//! every number in place: `to_json_string` makes 3 allocations for its
//! 1.9 MB (budget 8: its buffer is sized up front), `to_line_protocol` 34
//! for its 1.3 MB (budget: one per doubling of its buffer, 21, plus 24 for
//! its bucket keys and scratch vectors). A writer that formatted a number
//! into a `String` of its own would add one per number, tens of thousands.
//! The one-scan line-protocol reader keeps its scratch across the lines of
//! an import: 16 963 allocations where the split-based one made 16 960 —
//! the scratch grows three times — and 3.00 per point either way.
//!
//! The third test counts one `LstmClassifier::train_epoch` (embedding 32,
//! 16 hidden units, 12 steps) over a 160-example `news20_like` set, after a
//! warm-up epoch. Measured by that test at the commit before the LSTM cell
//! kept its training cache as flat buffers per step and ran its gates in
//! place, and after:
//!
//! | | parent | budget | with the change |
//! |---|---|---|---|
//! | allocations, batch 32 (5 batches) | 2 791 | ≤ 786 | 786 |
//! | allocations, batch 160 (1 batch) | 687 | ≤ 286 | 286 |
//!
//! (5.24 MB and 4.32 MB at the parent, 2.40 MB and 2.04 MB with the
//! change.) A step's cache is five buffers; past them the cell allocates
//! per call, not per step, so a temporary per gate or per product would
//! add twelve a batch.
//!
//! Its own test binary, so the counting `#[global_allocator]` touches
//! nothing else. Run it optimised and alone:
//! `cargo test -q --release --offline --test alloc_budget -- --test-threads=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use pipetune::{ExperimentEnvBuilder, TunerOptions, WorkloadSpec};
use pipetune_cluster::{PoissonArrivals, ServiceFaultPlan};
use pipetune_data::{news20_like, TextSpec};
use pipetune_dnn::{LstmClassifier, Model, TrainConfig};
use pipetune_insight::{TraceDiff, TraceReport};
use pipetune_monitor::{MonitorConfig, MonitorHandle};
use pipetune_service::{JobSubmission, SchedulingPolicy, ServiceConfig, TuningService};
use pipetune_telemetry::{SpanKind, TelemetryHandle, TelemetrySnapshot};
use pipetune_tsdb::{Database, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the calls and bytes of the thread that switched [`COUNTING`] on,
/// and forwards everything to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Const-initialised and without a destructor, so reading it inside the
    /// allocator neither allocates nor registers a TLS destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics and a
// `Cell<bool>` thread-local, and touching them never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The counters are the process's: the tests of this binary take turns, so
/// that a plain `cargo test` (one thread per test) counts like
/// `--test-threads=1`.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `(allocations, bytes)` the calling thread requested while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let after = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    (out, after.0 - before.0, after.1 - before.1)
}

const SEED: u64 = 2;
const JOBS: usize = 60;
/// Mean inter-arrival of 400 simulated seconds: several jobs in the system
/// at once.
const ARRIVAL_RATE: f64 = 1.0 / 400.0;
const DEADLINE_SECS: f64 = 6000.0;

/// The benchmark's stream shape: submissions alternating `jacobi` /
/// `hotspot`, Poisson arrivals.
fn submissions() -> Vec<JobSubmission> {
    let specs = [WorkloadSpec::jacobi(), WorkloadSpec::hotspot()];
    let mut arrivals = PoissonArrivals::new(ARRIVAL_RATE, SEED);
    (0..JOBS)
        .map(|i| JobSubmission::new(arrivals.next_arrival().as_secs_f64(), specs[i % specs.len()]))
        .collect()
}

/// What one stream asked of the allocator and what it recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamCost {
    allocations: u64,
    bytes: u64,
    /// Spans plus events in the trace (0 with the planes off).
    records: u64,
}

/// One FIFO stream to completion — the monitor's final scan included —
/// clean or under `ServiceFaultPlan::mixed` with a deadline, planes on
/// (telemetry + the standard detectors) or off.
fn run_stream(subs: &[JobSubmission], chaos: bool, planes: bool) -> StreamCost {
    let options = TunerOptions { scale: 0.2, ..TunerOptions::paper() };
    let (records, allocations, bytes) = counted(|| {
        let (telemetry, monitor) = if planes {
            (TelemetryHandle::enabled(), MonitorHandle::with_config(&MonitorConfig::standard()))
        } else {
            (TelemetryHandle::disabled(), MonitorHandle::disabled())
        };
        let env = ExperimentEnvBuilder::distributed(SEED)
            .workers(1)
            .telemetry(telemetry.clone())
            .monitor(monitor.clone())
            .build()
            .expect("valid environment");
        let mut config = ServiceConfig::default().with_policy(SchedulingPolicy::Fifo);
        if chaos {
            config = config
                .with_service_faults(ServiceFaultPlan::mixed(SEED))
                .with_deadline(DEADLINE_SECS);
        }
        let outcome = TuningService::new(config).run(&env, subs, &options).expect("stream runs");
        assert_eq!(outcome.jobs.len(), subs.len(), "one record per submission");
        monitor.finish(&telemetry);
        telemetry.visit(|spans, events| (spans.len() + events.len()) as u64).unwrap_or(0)
    });
    StreamCost { allocations, bytes, records }
}

#[test]
fn short_epoch_streams_stay_within_their_allocation_budget() {
    let _turn = my_turn();
    let subs = submissions();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for chaos in [false, true] {
        let first = (run_stream(&subs, chaos, true), run_stream(&subs, chaos, false));
        let second = (run_stream(&subs, chaos, true), run_stream(&subs, chaos, false));
        assert_eq!(first, second, "allocation counts are a pure function of the seed");
        assert!(first.0.records > 0 && first.1.records == 0);
        on.push(first.0);
        off.push(first.1);
    }
    let sum = |costs: &[StreamCost], f: fn(&StreamCost) -> u64| costs.iter().map(f).sum::<u64>();
    let jobs = (JOBS * off.len()) as f64;
    let records = sum(&on, |c| c.records);
    let extra = sum(&on, |c| c.allocations) - sum(&off, |c| c.allocations);
    let extra_per_record = extra as f64 / records as f64;
    let off_mb_per_job = sum(&off, |c| c.bytes) as f64 / 1e6 / jobs;
    let off_allocations_per_job = sum(&off, |c| c.allocations) as f64 / jobs;
    for (name, costs) in [("planes on ", &on), ("planes off", &off)] {
        for (stream, c) in ["clean", "chaos"].iter().zip(costs) {
            println!(
                "{name} {stream}: {} allocations, {} bytes, {} trace records",
                c.allocations, c.bytes, c.records
            );
        }
    }
    println!("extra allocations per recorded span + event, planes on: {extra_per_record:.2}");
    println!("planes-off MB allocated per job: {off_mb_per_job:.2}");
    println!("planes-off allocations per job: {off_allocations_per_job:.0}");
    assert!(extra_per_record <= 1.41, "{extra_per_record:.2} extra allocations per record");
    assert!(off_mb_per_job <= 0.7, "{off_mb_per_job:.2} MB per job with the planes off");
    assert!(
        off_allocations_per_job <= 1300.0,
        "{off_allocations_per_job:.0} allocations per job with the planes off"
    );
}

/// The trace of the benchmark's small `trace_pipeline` stream: ten jobs,
/// FIFO, chaos, planes on.
fn recorded_trace() -> TelemetrySnapshot {
    let telemetry = TelemetryHandle::enabled();
    let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
    let env = ExperimentEnvBuilder::distributed(SEED)
        .workers(1)
        .telemetry(telemetry.clone())
        .monitor(monitor.clone())
        .build()
        .expect("valid environment");
    let config = ServiceConfig::default()
        .with_policy(SchedulingPolicy::Fifo)
        .with_service_faults(ServiceFaultPlan::mixed(SEED))
        .with_deadline(DEADLINE_SECS);
    let options = TunerOptions { scale: 0.2, ..TunerOptions::paper() };
    let subs = &submissions()[..10];
    TuningService::new(config).run(&env, subs, &options).expect("stream runs");
    monitor.finish(&telemetry);
    telemetry.snapshot().expect("enabled handle")
}

#[test]
fn the_read_side_stays_within_its_allocation_budget() {
    let _turn = my_turn();
    let snapshot = recorded_trace();
    let parsed = TelemetrySnapshot::from_json_str(&snapshot.to_json_string()).expect("own export");
    let count = |kind| parsed.spans.iter().filter(|s| s.kind == kind).count() as u64;
    let (runs, rungs, trials, epochs) = (
        count(SpanKind::TuningRun),
        count(SpanKind::Rung),
        count(SpanKind::Trial),
        count(SpanKind::Epoch),
    );
    println!(
        "trace: {} spans ({runs} runs, {rungs} rungs, {trials} trials, {epochs} epochs), {} events",
        parsed.spans.len(),
        parsed.events.len()
    );

    // telemetry: an export allocates as its output buffer grows, and for a
    // few scratch vectors — not per number it writes.
    let (json, json_allocations, _) = counted(|| parsed.to_json_string());
    let (lines, lines_allocations, _) = counted(|| parsed.to_line_protocol());
    let doublings = |bytes: usize| u64::from(usize::BITS - bytes.leading_zeros());
    println!(
        "allocations: to_json_string {json_allocations} for {} bytes, to_line_protocol \
         {lines_allocations} for {} bytes",
        json.len(),
        lines.len()
    );
    assert!(json_allocations <= 8, "{json_allocations} allocations to export JSON");
    assert!(
        lines_allocations <= doublings(lines.len()) + 24,
        "{lines_allocations} allocations to export line protocol"
    );

    // tsdb: a point is its buffer, its offsets and its values.
    let db = Database::new();
    let (points, import_allocations, _) = counted(|| db.import_line_protocol(&lines).unwrap());
    let per_point = import_allocations as f64 / points as f64;
    println!("allocations per imported point: {per_point:.2} ({import_allocations} for {points})");
    assert!(per_point <= 4.0, "{per_point:.2} allocations per imported point");
    let epoch_spans = Query::measurement("pipetune_span").with_tag("kind", SpanKind::Epoch.name());
    let (found, query_allocations, _) = counted(|| db.query(&epoch_spans).unwrap());
    assert_eq!(found.len() as u64, epochs);
    println!(
        "allocations per query clone: {:.2} ({query_allocations} for {epochs})",
        query_allocations as f64 / epochs as f64
    );
    // Three per clone, and the doublings of the vector they are collected in.
    assert!(query_allocations <= 3 * epochs + 32, "{query_allocations} for {epochs} clones");

    // insight: a report allocates per run, rung and trial — not per epoch —
    // and a diff allocates its two reports and nothing per record.
    let ((), live_report, _) = counted(|| drop(TraceReport::from_snapshot(&snapshot).unwrap()));
    let ((), parsed_report, _) = counted(|| drop(TraceReport::from_snapshot(&parsed).unwrap()));
    let per_group = parsed_report as f64 / (runs + rungs + trials) as f64;
    println!(
        "from_snapshot: {parsed_report} allocations, {per_group:.1} per run + rung + trial ({} of them)",
        runs + rungs + trials
    );
    assert!(per_group <= 8.0, "{per_group:.1} allocations per run, rung and trial");
    assert!(parsed_report < epochs, "{parsed_report} allocations for {epochs} epochs");
    let (diff, diff_allocations, _) = counted(|| TraceDiff::between(&snapshot, &parsed).unwrap());
    assert!(diff.identical);
    let own = diff_allocations as i64 - (live_report + parsed_report) as i64;
    println!("between: {diff_allocations} allocations, {own:+} over its two reports");
    assert!(own <= 256, "{own} allocations of the diff's own for {} records", parsed.spans.len());

    // Counts, so they repeat.
    let again = Database::new();
    assert_eq!(counted(|| again.import_line_protocol(&lines).unwrap()).1, import_allocations);
    assert_eq!(counted(|| TraceDiff::between(&snapshot, &parsed).unwrap()).1, diff_allocations);
}

/// Allocations of one `LstmClassifier::train_epoch` over the 160 examples
/// of a `news20_like` set, after a warm-up epoch.
fn lstm_epoch_allocations(batch: usize) -> (u64, u64) {
    let spec = TextSpec { train: 160, test: 16, seq_len: 12, ..TextSpec::default() };
    let (train, _) = news20_like(&spec, SEED).expect("valid spec");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut model =
        LstmClassifier::new(spec.vocab, spec.seq_len, 32, 16, spec.classes, 0.25, &mut rng)
            .expect("valid model");
    let cfg = TrainConfig { batch_size: batch, learning_rate: 0.05, ..TrainConfig::default() };
    model.train_epoch(&train, &cfg, &mut rng).expect("warm-up epoch");
    let (_, allocations, bytes) = counted(|| model.train_epoch(&train, &cfg, &mut rng));
    (allocations, bytes)
}

#[test]
fn an_lstm_epoch_allocates_for_its_outputs_not_per_gate() {
    let _turn = my_turn();
    for (batch, budget) in [(32, 786), (160, 286)] {
        let (allocations, bytes) = lstm_epoch_allocations(batch);
        println!(
            "LSTM epoch at batch {batch}: {allocations} allocations, {:.2} MB",
            bytes as f64 / 1e6
        );
        assert!(allocations <= budget, "{allocations} allocations at batch {batch}");
        assert_eq!(lstm_epoch_allocations(batch).0, allocations, "counts repeat");
    }
}
