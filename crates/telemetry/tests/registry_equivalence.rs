//! The `&'static`-keyed metrics registry against its frozen reference.
//!
//! `mod frozen` is `Histogram` and `MetricsRegistry` as they stood while
//! every recording call built a `String` key and every histogram copied its
//! bounds — copied verbatim (the `kernel_determinism.rs` pattern), plus the
//! tree-building JSON writer `trace_codec.rs` already pins the exporter
//! against, since the copy cannot reach the crate's streaming one.
//!
//! What is pinned: over random sequences of `counter_add` / `gauge_set` /
//! `observe` / registry merges / worker-buffer drain-and-merge — one buffer
//! reused for the whole sequence, as a trial reuses its own from rung to
//! rung — the live sink exports the bytes the frozen registry exports; and
//! a registry read back from JSON (owned keys and bounds) merges with a
//! live one (borrowed keys and bounds), in either direction, to what two
//! imported ones merge to.

use pipetune_telemetry::{
    MetricsRegistry, Span, SpanId, SpanKind, TelemetryBuffer, TelemetryHandle, TelemetrySnapshot,
    COUNT_BUCKETS, DURATION_BUCKETS_SECS, ENERGY_BUCKETS_J, RATIO_BUCKETS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod frozen {
    use std::collections::BTreeMap;

    use serde_json::Value;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Histogram {
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
        count: u64,
        min: f64,
        max: f64,
    }

    impl Histogram {
        /// Creates an empty histogram over `bounds` (must be sorted ascending).
        fn with_bounds(bounds: &[f64]) -> Self {
            debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
            Histogram {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                sum: 0.0,
                count: 0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        /// Records one observation.
        pub fn observe(&mut self, value: f64) {
            let idx = self.bounds.partition_point(|&b| b < value);
            self.counts[idx] += 1;
            self.sum += value;
            self.count += 1;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }

        /// Adds another histogram's observations into this one. Both must have
        /// been created over the same bounds.
        pub fn merge(&mut self, other: &Histogram) {
            assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch on merge");
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
            self.sum += other.sum;
            self.count += other.count;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn to_json(&self) -> Value {
            let mut obj = serde_json::Map::new();
            obj.insert(
                "bounds".into(),
                Value::Array(self.bounds.iter().map(|&b| Value::F64(b)).collect()),
            );
            obj.insert(
                "counts".into(),
                Value::Array(self.counts.iter().map(|&c| Value::U64(c)).collect()),
            );
            obj.insert("sum".into(), Value::F64(self.sum));
            obj.insert("count".into(), Value::U64(self.count));
            if self.count > 0 {
                obj.insert("min".into(), Value::F64(self.min));
                obj.insert("max".into(), Value::F64(self.max));
            }
            Value::Object(obj)
        }
    }

    /// Counters, gauges and histograms keyed by name.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MetricsRegistry {
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
        histograms: BTreeMap<String, Histogram>,
    }

    impl MetricsRegistry {
        /// Adds `delta` to the named counter (created at 0).
        pub fn counter_add(&mut self, name: &str, delta: u64) {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        }

        /// Sets the named gauge.
        pub fn gauge_set(&mut self, name: &str, value: f64) {
            self.gauges.insert(name.to_string(), value);
        }

        /// Records one observation in the named histogram, creating it over
        /// `bounds` on first use.
        pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
            self.histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::with_bounds(bounds))
                .observe(value);
        }

        /// Folds `other` into `self`: counters and histograms add, gauges take
        /// `other`'s value.
        pub fn merge(&mut self, other: &MetricsRegistry) {
            for (name, delta) in &other.counters {
                *self.counters.entry(name.clone()).or_insert(0) += delta;
            }
            for (name, value) in &other.gauges {
                self.gauges.insert(name.clone(), *value);
            }
            for (name, hist) in &other.histograms {
                match self.histograms.get_mut(name) {
                    Some(h) => h.merge(hist),
                    None => {
                        self.histograms.insert(name.clone(), hist.clone());
                    }
                }
            }
        }

        pub fn to_json_string(&self) -> String {
            let mut counters = serde_json::Map::new();
            for (name, v) in &self.counters {
                counters.insert(name.clone(), Value::U64(*v));
            }
            let mut gauges = serde_json::Map::new();
            for (name, v) in &self.gauges {
                gauges.insert(name.clone(), Value::F64(*v));
            }
            let mut hists = serde_json::Map::new();
            for (name, h) in &self.histograms {
                hists.insert(name.clone(), h.to_json());
            }
            let mut obj = serde_json::Map::new();
            obj.insert("counters".into(), Value::Object(counters));
            obj.insert("gauges".into(), Value::Object(gauges));
            obj.insert("histograms".into(), Value::Object(hists));
            serde_json::to_string(&Value::Object(obj)).expect("metrics serialise infallibly")
        }
    }
}

/// The vocabulary: few enough names that sequences collide on them.
const COUNTERS: [&str; 5] = ["epochs.total", "epochs.probe", "faults.injected", "a", "zz.last"];
const GAUGES: [&str; 3] = ["energy.power_w", "gt.hit_rate", "a"];
/// A histogram name always comes with the same layout, as a declared metric
/// does.
const HISTOGRAMS: [(&str, &[f64]); 5] = [
    ("trial.epoch_secs", DURATION_BUCKETS_SECS),
    ("energy.epoch_j", ENERGY_BUCKETS_J),
    ("executor.batch_trials", COUNT_BUCKETS),
    ("executor.queue_occupancy", RATIO_BUCKETS),
    ("a", &[]),
];

/// One recording call, as data.
#[derive(Debug, Clone, Copy)]
enum Record {
    Counter(&'static str, u64),
    Gauge(&'static str, f64),
    Observe(&'static str, &'static [f64], f64),
}

/// A finite value across the magnitudes the bucket layouts cover, boundary
/// values (`<=` puts them in their own bucket) and zeros of both signs
/// included.
fn value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => -0.0,
        2 => [1.0, 5.0, 0.25, 1e3, 3600.0, 64.0][rng.gen_range(0..6usize)],
        3 => -rng.gen::<f64>(),
        _ => 10f64.powf(rng.gen_range(-3.0..8.0)),
    }
}

fn record(rng: &mut StdRng) -> Record {
    match rng.gen_range(0..3u32) {
        // Zero deltas create the counter: part of the exported key set.
        0 => Record::Counter(COUNTERS[rng.gen_range(0..COUNTERS.len())], rng.gen_range(0..4u64)),
        1 => Record::Gauge(GAUGES[rng.gen_range(0..GAUGES.len())], value(rng)),
        _ => {
            let (name, bounds) = HISTOGRAMS[rng.gen_range(0..HISTOGRAMS.len())];
            Record::Observe(name, bounds, value(rng))
        }
    }
}

fn records(rng: &mut StdRng, at_most: usize) -> Vec<Record> {
    (0..rng.gen_range(0..=at_most)).map(|_| record(rng)).collect()
}

fn apply(registry: &mut MetricsRegistry, r: Record) {
    match r {
        Record::Counter(name, delta) => registry.counter_add(name, delta),
        Record::Gauge(name, v) => registry.gauge_set(name, v),
        Record::Observe(name, bounds, v) => registry.observe(name, bounds, v),
    }
}

fn apply_frozen(registry: &mut frozen::MetricsRegistry, r: Record) {
    match r {
        Record::Counter(name, delta) => registry.counter_add(name, delta),
        Record::Gauge(name, v) => registry.gauge_set(name, v),
        Record::Observe(name, bounds, v) => registry.observe(name, bounds, v),
    }
}

fn built(records: &[Record]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    records.iter().for_each(|&r| apply(&mut registry, r));
    registry
}

fn json(metrics: &MetricsRegistry) -> String {
    TelemetrySnapshot { metrics: metrics.clone(), ..TelemetrySnapshot::default() }
        .metrics_json_string()
}

/// `metrics` as a trace import leaves it: every key and bound owned.
fn imported(metrics: &MetricsRegistry) -> MetricsRegistry {
    let trace = TelemetrySnapshot { metrics: metrics.clone(), ..TelemetrySnapshot::default() }
        .to_json_string();
    TelemetrySnapshot::from_json_str(&trace).expect("an exported trace imports").metrics
}

/// A random session against a live sink and the frozen registry: direct
/// recording through the handle, whole registries merged in, and a worker
/// buffer filled, merged and refilled.
fn run_session(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sink = TelemetryHandle::enabled();
    let mut buffer = TelemetryBuffer::enabled();
    let mut reference = frozen::MetricsRegistry::default();
    for step in 0..rng.gen_range(1..12u32) {
        match rng.gen_range(0..4u32) {
            0 => {
                for r in records(&mut rng, 6) {
                    match r {
                        Record::Counter(name, delta) => sink.counter_add(name, delta),
                        Record::Gauge(name, v) => sink.gauge_set(name, v),
                        Record::Observe(name, bounds, v) => sink.observe(name, bounds, v),
                    }
                    apply_frozen(&mut reference, r);
                }
            }
            1 => {
                let other = records(&mut rng, 8);
                sink.with_metrics(|m| m.merge(&built(&other)));
                let mut frozen_other = frozen::MetricsRegistry::default();
                other.iter().for_each(|&r| apply_frozen(&mut frozen_other, r));
                reference.merge(&frozen_other);
            }
            _ => {
                // A trial-round: the buffer records, the coordinator merges
                // it and hands it back empty.
                let round = records(&mut rng, 10);
                let mut frozen_buffer = frozen::MetricsRegistry::default();
                for &r in &round {
                    match r {
                        Record::Counter(name, delta) => buffer.counter_add(name, delta),
                        Record::Gauge(name, v) => buffer.gauge_set(name, v),
                        Record::Observe(name, bounds, v) => buffer.observe(name, bounds, v),
                    }
                    apply_frozen(&mut frozen_buffer, r);
                }
                let trial = Span {
                    kind: SpanKind::Trial,
                    label: "trial".into(),
                    parent: None,
                    start_secs: 0.0,
                    end_secs: 1.0,
                    attrs: vec![],
                };
                sink.merge_trial(SpanId::NONE, trial, &mut buffer);
                reference.merge(&frozen_buffer);
                if !buffer.metrics().is_empty() {
                    return Err(format!("seed {seed} step {step}: the merged buffer kept metrics"));
                }
            }
        }
        let live = sink.snapshot().expect("enabled handle").metrics_json_string();
        if live != reference.to_json_string() {
            return Err(format!(
                "seed {seed} step {step}:\n  live   {live}\n  frozen {}",
                reference.to_json_string()
            ));
        }
    }
    Ok(())
}

/// Owned-key and static-key registries merge to the same thing whichever
/// side is which.
fn run_import_merge(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b) = (built(&records(&mut rng, 12)), built(&records(&mut rng, 12)));
    let (a_owned, b_owned) = (imported(&a), imported(&b));
    if a_owned != a || json(&a_owned) != json(&a) {
        return Err(format!("seed {seed}: import changed the registry"));
    }
    let merged = |mut into: MetricsRegistry, other: &MetricsRegistry| {
        into.merge(other);
        into
    };
    let all_owned = merged(a_owned.clone(), &b_owned);
    for (what, mixed) in [
        ("imported ← live", merged(a_owned.clone(), &b)),
        ("live ← imported", merged(a.clone(), &b_owned)),
        ("live ← live", merged(a.clone(), &b)),
    ] {
        if mixed != all_owned || json(&mixed) != json(&all_owned) {
            return Err(format!(
                "seed {seed}, {what}:\n  mixed {}\n  owned {}",
                json(&mixed),
                json(&all_owned)
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn recording_merging_and_draining_export_like_the_string_keyed_registry(
        seed in 0u64..u64::MAX,
    ) {
        prop_assert_eq!(run_session(seed), Ok(()));
    }

    #[test]
    fn imported_and_live_registries_merge_to_the_all_owned_result(seed in 0u64..u64::MAX) {
        prop_assert_eq!(run_import_merge(seed), Ok(()));
    }
}
