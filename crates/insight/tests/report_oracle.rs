//! [`TraceReport::from_snapshot`] and [`TraceDiff::between`] against the
//! code they replaced (`frozen/`, verbatim): on recorded traces — tuning
//! runs of all three tuners, clean and under faults, with and without an
//! epoch cache; service streams of 1, 10 and 60 jobs, clean and under
//! chaos — and on edited ones, the new single-walk report is `Debug`-equal
//! to the old scan-per-run one and renders the same bytes, and the diff
//! agrees field for field.

mod frozen;

use pipetune::{
    EpochCacheConfig, EpochCacheHandle, ExperimentEnvBuilder, PipeTune, TuneV1, TuneV2,
    TunerOptions, WorkloadSpec,
};
use pipetune_cluster::{FaultPlan, PoissonArrivals, ServiceFaultPlan};
use pipetune_insight::{TraceDiff, TraceReport};
use pipetune_service::{JobSubmission, ServiceConfig, TuningService};
use pipetune_telemetry::{EventKind, SpanId, SpanKind, TelemetryHandle, TelemetrySnapshot};

/// Report and render of `snapshot`, new against old; the new report.
fn assert_report_matches(what: &str, snapshot: &TelemetrySnapshot) -> Option<TraceReport> {
    let live = TraceReport::from_snapshot(snapshot);
    let old = frozen::from_snapshot(snapshot);
    assert_eq!(format!("{live:?}"), format!("{old:?}"), "{what}: reports differ");
    let (live, old) = (live.ok()?, old.ok()?);
    assert_eq!(live.render(), old.render(), "{what}: renders differ");
    Some(live)
}

/// Diff of `a` and `b`, new against old, `first_difference` aside — which is
/// there exactly when the traces are not identical.
fn assert_diff_matches(what: &str, a: &TelemetrySnapshot, b: &TelemetrySnapshot) {
    let live = TraceDiff::between(a, b);
    let old = frozen::between(a, b);
    if let Ok(live) = &live {
        assert_eq!(live.first_difference.is_none(), live.identical, "{what}");
    }
    let without = live.map(|diff| TraceDiff { first_difference: None, ..diff });
    assert_eq!(format!("{without:?}"), format!("{old:?}"), "{what}: diffs differ");
}

/// Two jobs of one tuner on one environment (the second meets the first's
/// ground truth and, with a cache, its epochs).
fn tuning_trace(tuner: &str, plan: FaultPlan, cached: bool) -> TelemetrySnapshot {
    let telemetry = TelemetryHandle::enabled();
    let mut env = ExperimentEnvBuilder::distributed(41)
        .workers(2)
        .fault_plan(plan)
        .telemetry(telemetry.clone());
    if cached {
        env = env.epoch_cache(EpochCacheHandle::with_config(EpochCacheConfig::default()));
    }
    let env = env.build().unwrap();
    let (options, spec) = (TunerOptions::fast(), WorkloadSpec::lenet_mnist());
    for _ in 0..2 {
        match tuner {
            "pipetune" => drop(PipeTune::new(options).run(&env, &spec).unwrap()),
            "tune_v1" => drop(TuneV1::new(options).run(&env, &spec).unwrap()),
            _ => drop(TuneV2::new(options).run(&env, &spec).unwrap()),
        }
    }
    telemetry.snapshot().unwrap()
}

/// A FIFO stream of `jobs` kernel jobs — the wall-clock benchmark's trace
/// shape — clean, or under `ServiceFaultPlan::mixed` with a deadline.
fn stream_trace(seed: u64, jobs: usize, chaos: bool) -> TelemetrySnapshot {
    let telemetry = TelemetryHandle::enabled();
    let env = ExperimentEnvBuilder::distributed(seed)
        .workers(1)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let specs = [WorkloadSpec::jacobi(), WorkloadSpec::hotspot()];
    let mut arrivals = PoissonArrivals::new(1.0 / 400.0, seed);
    let submissions: Vec<JobSubmission> = (0..jobs)
        .map(|i| JobSubmission::new(arrivals.next_arrival().as_secs_f64(), specs[i % 2]))
        .collect();
    let mut config = ServiceConfig::default();
    if chaos {
        config = config.with_service_faults(ServiceFaultPlan::mixed(seed)).with_deadline(6000.0);
    }
    let options = TunerOptions { scale: 0.2, ..TunerOptions::paper() };
    TuningService::new(config).run(&env, &submissions, &options).unwrap();
    telemetry.snapshot().unwrap()
}

/// `snapshot` as it reads back from its own export.
fn reimported(snapshot: &TelemetrySnapshot) -> TelemetrySnapshot {
    TelemetrySnapshot::from_json_str(&snapshot.to_json_string()).unwrap()
}

#[test]
fn tuning_run_reports_match_the_frozen_scan() {
    let mut traces = Vec::new();
    for tuner in ["pipetune", "tune_v1", "tune_v2"] {
        for (faults, plan) in [("clean", FaultPlan::none()), ("mixed", FaultPlan::mixed(7))] {
            let snapshot = tuning_trace(tuner, plan, false);
            let report = assert_report_matches(&format!("{tuner} {faults}"), &snapshot).unwrap();
            assert_eq!(report.runs.len(), 2);
            assert_report_matches(&format!("{tuner} {faults} reimported"), &reimported(&snapshot));
            traces.push(snapshot);
        }
    }
    let cached = tuning_trace("pipetune", FaultPlan::mixed(7), true);
    let report = assert_report_matches("pipetune cached", &cached).unwrap();
    assert!(report.runs[1].cache_hits > 0, "the second job reuses the first's epochs");
    traces.push(cached);

    // Every pair, identical and not, either way round.
    for (i, a) in traces.iter().enumerate() {
        assert_diff_matches(&format!("trace {i} with its re-import"), a, &reimported(a));
        for (j, b) in traces.iter().enumerate() {
            assert_diff_matches(&format!("traces {i} and {j}"), a, b);
        }
    }
}

#[test]
fn service_stream_reports_match_the_frozen_scan() {
    let mut streams = Vec::new();
    for jobs in [1usize, 10, 60] {
        for chaos in [false, true] {
            let what = format!("{jobs}-job {} stream", if chaos { "chaos" } else { "clean" });
            let snapshot = stream_trace(14, jobs, chaos);
            let report = assert_report_matches(&what, &snapshot).unwrap();
            // Every job that got to run has its report (chaos sheds some).
            let runs = snapshot.spans.iter().filter(|s| s.kind == SpanKind::TuningRun).count();
            assert_eq!(report.runs.len(), runs, "{what}");
            assert!(runs >= 1 && (chaos || runs == jobs), "{what}: {runs} runs");
            assert_diff_matches(&what, &snapshot, &reimported(&snapshot));
            streams.push(snapshot);
        }
    }
    assert_diff_matches("10-job clean and chaos", &streams[2], &streams[3]);
    assert_diff_matches("10-job and 60-job chaos", &streams[3], &streams[5]);
    assert_diff_matches("another seed", &streams[3], &stream_trace(15, 10, true));
}

#[test]
fn edited_traces_report_like_the_frozen_scan() {
    let recorded = tuning_trace("pipetune", FaultPlan::mixed(7), true);
    let stream = stream_trace(14, 10, true);
    let empty = TelemetrySnapshot::default();
    assert!(assert_report_matches("empty", &empty).unwrap().runs.is_empty());
    assert_diff_matches("empty", &empty, &empty);
    assert_diff_matches("empty and not", &empty, &recorded);

    // No tuning run at all: a service whose one job never got to run.
    let telemetry = TelemetryHandle::enabled();
    let service = telemetry.open_span(SpanId::NONE, SpanKind::Service, "service fifo", 0.0, vec![]);
    let job = telemetry.open_span(service, SpanKind::Job, "job 0", 1.0, vec![]);
    telemetry.event(job, EventKind::Shed, 2.0, vec![("deadline_secs", 1.0f64.into())]);
    telemetry.close_span(job, 2.0);
    telemetry.close_span(service, 2.0);
    let no_runs = telemetry.snapshot().unwrap();
    let report = assert_report_matches("no runs", &no_runs).unwrap();
    assert!(report.runs.is_empty());
    assert_diff_matches("no runs", &recorded, &no_runs);

    for (what, base) in [("tuning", &recorded), ("stream", &stream)] {
        let roots: Vec<usize> =
            (0..base.spans.len()).filter(|&i| base.spans[i].kind == SpanKind::TuningRun).collect();
        // An open root span: wall time falls back to the last rung's end.
        let mut open_root = base.clone();
        open_root.spans[roots[0]].end_secs = f64::NAN;
        assert_report_matches(&format!("{what}: open root"), &open_root).unwrap();
        assert_diff_matches(&format!("{what}: open root"), base, &open_root);
        // …and to nothing when its rungs are open too; open trials and
        // epochs count for nothing.
        let mut all_open = base.clone();
        let last_root = *roots.last().unwrap();
        for span in &mut all_open.spans[last_root..] {
            span.end_secs = f64::NAN;
        }
        assert_report_matches(&format!("{what}: all open"), &all_open).unwrap();
        assert_diff_matches(&format!("{what}: all open"), &all_open, base);

        // Attributes the report reads, gone or of another type.
        let mut bare = base.clone();
        for span in &mut bare.spans {
            span.attrs.retain(|(key, _)| !matches!(*key, "phase" | "round" | "workload"));
            for (key, value) in &mut span.attrs {
                if matches!(*key, "parallel_slots" | "seed") {
                    *value = "many".into();
                }
            }
        }
        for event in &mut bare.events {
            event
                .attrs
                .retain(|(key, _)| !matches!(*key, "saved_secs" | "severity" | "backoff_secs"));
        }
        assert_report_matches(&format!("{what}: bare"), &bare).unwrap();
        assert_diff_matches(&format!("{what}: bare"), base, &bare);

        // Spans no run owns — the taxonomy lets any span go without a
        // parent — count for no run: a rung adrift with its batch, trial
        // and epoch, a trial adrift with its epoch; the same chain under a
        // run of its own is one more report.
        let mut adrift = base.clone();
        let epoch = (0..base.spans.len()).find(|&i| base.spans[i].kind == SpanKind::Epoch).unwrap();
        let mut chain = vec![epoch];
        while let Some(parent) = base.spans[chain[0]].parent {
            chain.insert(0, parent as usize);
        }
        let run_at = chain.iter().position(|&i| base.spans[i].kind == SpanKind::TuningRun).unwrap();
        for skip in [run_at, run_at + 1, run_at + 3] {
            for (depth, &i) in chain[skip..].iter().enumerate() {
                let mut span = base.spans[i].clone();
                span.parent = (depth > 0).then(|| adrift.spans.len() as u32 - 1);
                adrift.spans.push(span);
                let events: Vec<_> =
                    base.events.iter().filter(|e| e.span == Some(i as u32)).cloned().collect();
                for mut event in events {
                    event.span = Some(adrift.spans.len() as u32 - 1);
                    adrift.events.push(event);
                }
            }
        }
        adrift.validate().unwrap();
        let report = assert_report_matches(&format!("{what}: adrift"), &adrift).unwrap();
        assert_eq!(report.runs.len(), roots.len() + 1);
        assert_diff_matches(&format!("{what}: adrift"), base, &adrift);

        // Invalid either side: the same complaint.
        let mut broken = base.clone();
        broken.spans[5].parent = Some(broken.spans.len() as u32 + 7);
        assert!(assert_report_matches(&format!("{what}: broken"), &broken).is_none());
        assert_diff_matches(&format!("{what}: broken b"), base, &broken);
        assert_diff_matches(&format!("{what}: broken a"), &broken, base);
    }
}
