//! The trace codec against its frozen reference.
//!
//! `mod reference` is the tree-building exporter / importer the streaming
//! codec in `src/export.rs` + `src/json.rs` replaced, copied verbatim (the
//! `kernel_determinism.rs` pattern): a `serde_json::Value` per record on the
//! way out, `serde_json::from_str::<Value>` and `Value::get` on the way in.
//! Two adaptations, both forced by the copy living outside the crate: the
//! registry is read through its public accessors, and the importer returns
//! plain data ([`reference::Metrics`]) where the original filled a
//! `MetricsRegistry`'s private fields.
//!
//! What is pinned: every byte the exporters write, every snapshot the
//! importer reads, and which texts it accepts — over random snapshots built
//! to hit the format's corners, over a recorded chaos-stream trace, and over
//! thousands of byte-level mutations of a valid trace.
//!
//! The last section pins [`TelemetrySnapshot::exports_equal`] — which walks
//! two snapshots and never writes a byte — to the comparison it replaced:
//! `a.to_json_string() == b.to_json_string()`.

use pipetune_telemetry::{
    AttrValue, Attrs, Event, EventKind, MetricsRegistry, Span, SpanKind, TelemetrySnapshot,
    TraceError, COUNT_BUCKETS, RATIO_BUCKETS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use std::collections::BTreeMap;

    use pipetune_telemetry::{
        AttrValue, Attrs, Event, EventKind, MetricsRegistry, Span, SpanKind, TelemetrySnapshot,
        TraceError,
    };
    use serde_json::Value;

    fn attrs_json(attrs: &Attrs) -> Value {
        let mut obj = serde_json::Map::new();
        for (key, value) in attrs {
            let value = match value {
                AttrValue::U64(v) => Value::U64(*v),
                AttrValue::I64(v) => Value::I64(*v),
                AttrValue::F64(v) => Value::F64(*v),
                AttrValue::Str(s) => Value::String(s.to_string()),
                AttrValue::Bool(b) => Value::Bool(*b),
            };
            obj.insert((*key).to_string(), value);
        }
        Value::Object(obj)
    }

    fn span_json(id: usize, span: &Span) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("id".into(), Value::U64(id as u64));
        obj.insert("kind".into(), Value::String(span.kind.name().into()));
        obj.insert("label".into(), Value::String(span.label.clone()));
        obj.insert("parent".into(), span.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))));
        obj.insert("start_secs".into(), Value::F64(span.start_secs));
        // Open spans carry NaN, which JSON cannot represent; export null.
        obj.insert(
            "end_secs".into(),
            if span.end_secs.is_finite() { Value::F64(span.end_secs) } else { Value::Null },
        );
        obj.insert("attrs".into(), attrs_json(&span.attrs));
        Value::Object(obj)
    }

    fn event_json(event: &Event) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("kind".into(), Value::String(event.kind.name().into()));
        obj.insert("span".into(), event.span.map_or(Value::Null, |s| Value::U64(u64::from(s))));
        obj.insert("at_secs".into(), Value::F64(event.at_secs));
        obj.insert("attrs".into(), attrs_json(&event.attrs));
        Value::Object(obj)
    }

    fn histogram_json(h: &pipetune_telemetry::Histogram) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert(
            "bounds".into(),
            Value::Array(h.bounds().iter().map(|&b| Value::F64(b)).collect()),
        );
        obj.insert(
            "counts".into(),
            Value::Array(h.counts().iter().map(|&c| Value::U64(c)).collect()),
        );
        obj.insert("sum".into(), Value::F64(h.sum()));
        obj.insert("count".into(), Value::U64(h.count()));
        if h.count() > 0 {
            obj.insert("min".into(), Value::F64(h.min()));
            obj.insert("max".into(), Value::F64(h.max()));
        }
        Value::Object(obj)
    }

    fn metrics_json(metrics: &MetricsRegistry) -> Value {
        let mut counters = serde_json::Map::new();
        for (name, v) in metrics.counters() {
            counters.insert(name.to_string(), Value::U64(v));
        }
        let mut gauges = serde_json::Map::new();
        for (name, v) in metrics.gauges() {
            gauges.insert(name.to_string(), Value::F64(v));
        }
        let mut hists = serde_json::Map::new();
        for (name, h) in metrics.histograms() {
            hists.insert(name.to_string(), histogram_json(h));
        }
        let mut obj = serde_json::Map::new();
        obj.insert("counters".into(), Value::Object(counters));
        obj.insert("gauges".into(), Value::Object(gauges));
        obj.insert("histograms".into(), Value::Object(hists));
        Value::Object(obj)
    }

    fn intern(key: &str) -> &'static str {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let mut table = INTERNED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(existing) = table.get(key) {
            return existing;
        }
        let leaked: &'static str = Box::leak(key.to_string().into_boxed_str());
        table.insert(leaked);
        leaked
    }

    fn parse_error(reason: impl Into<String>) -> TraceError {
        TraceError::Parse { reason: reason.into() }
    }

    fn attrs_from_json(value: &Value, what: &str) -> Result<Attrs, TraceError> {
        let obj = value
            .as_object()
            .ok_or_else(|| parse_error(format!("{what}: attrs must be an object")))?;
        let mut attrs = Attrs::new();
        for (key, v) in obj {
            let attr = match v {
                Value::Bool(b) => AttrValue::Bool(*b),
                Value::String(s) => AttrValue::Str(s.clone().into()),
                Value::U64(u) => AttrValue::U64(*u),
                Value::I64(i) if *i >= 0 => AttrValue::U64(*i as u64),
                Value::I64(i) => AttrValue::I64(*i),
                Value::F64(f) => AttrValue::F64(*f),
                Value::Null => AttrValue::F64(f64::NAN),
                Value::Array(_) | Value::Object(_) => {
                    return Err(parse_error(format!("{what}: attr {key} has a non-scalar value")))
                }
            };
            attrs.push((intern(key), attr));
        }
        Ok(attrs)
    }

    fn span_from_json(idx: usize, value: &Value) -> Result<Span, TraceError> {
        let what = format!("span {idx}");
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .and_then(SpanKind::from_name)
            .ok_or_else(|| parse_error(format!("{what}: missing or unknown kind")))?;
        let label = value
            .get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| parse_error(format!("{what}: missing label")))?
            .to_string();
        let parent = match value.get("parent") {
            None | Some(Value::Null) => None,
            Some(p) => Some(
                p.as_u64()
                    .and_then(|p| u32::try_from(p).ok())
                    .ok_or_else(|| parse_error(format!("{what}: parent must be a u32")))?,
            ),
        };
        let start_secs = value
            .get("start_secs")
            .and_then(Value::as_f64)
            .ok_or_else(|| parse_error(format!("{what}: missing start_secs")))?;
        // An open span exports `null`; re-import restores the NaN sentinel.
        let end_secs = match value.get("end_secs") {
            None | Some(Value::Null) => f64::NAN,
            Some(e) => e
                .as_f64()
                .ok_or_else(|| parse_error(format!("{what}: end_secs must be a number")))?,
        };
        let attrs = attrs_from_json(
            value.get("attrs").unwrap_or(&Value::Object(serde_json::Map::new())),
            &what,
        )?;
        Ok(Span { kind, label, parent, start_secs, end_secs, attrs })
    }

    fn event_from_json(idx: usize, value: &Value) -> Result<Event, TraceError> {
        let what = format!("event {idx}");
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .and_then(EventKind::from_name)
            .ok_or_else(|| parse_error(format!("{what}: missing or unknown kind")))?;
        let span = match value.get("span") {
            None | Some(Value::Null) => None,
            Some(s) => Some(
                s.as_u64()
                    .and_then(|s| u32::try_from(s).ok())
                    .ok_or_else(|| parse_error(format!("{what}: span must be a u32")))?,
            ),
        };
        let at_secs = value
            .get("at_secs")
            .and_then(Value::as_f64)
            .ok_or_else(|| parse_error(format!("{what}: missing at_secs")))?;
        let attrs = attrs_from_json(
            value.get("attrs").unwrap_or(&Value::Object(serde_json::Map::new())),
            &what,
        )?;
        Ok(Event { kind, span, at_secs, attrs })
    }

    /// A histogram's exported parts: `(bounds, counts, sum, count, min, max)`.
    pub type HistogramParts = (Vec<f64>, Vec<u64>, f64, u64, f64, f64);

    /// What `MetricsRegistry::from_json` filled the registry's private maps
    /// with.
    #[derive(Debug, Default)]
    pub struct Metrics {
        pub counters: BTreeMap<String, u64>,
        pub gauges: BTreeMap<String, f64>,
        pub histograms: BTreeMap<String, HistogramParts>,
    }

    impl Metrics {
        /// The same view of a registry the crate built.
        pub fn of(registry: &MetricsRegistry) -> Self {
            Metrics {
                counters: registry.counters().map(|(k, v)| (k.to_string(), v)).collect(),
                gauges: registry.gauges().map(|(k, v)| (k.to_string(), v)).collect(),
                histograms: registry
                    .histograms()
                    .map(|(k, h)| {
                        let parts = (
                            h.bounds().to_vec(),
                            h.counts().to_vec(),
                            h.sum(),
                            h.count(),
                            h.min(),
                            h.max(),
                        );
                        (k.to_string(), parts)
                    })
                    .collect(),
            }
        }
    }

    fn metrics_from_json(value: &Value) -> Result<Metrics, String> {
        let mut registry = Metrics::default();
        let obj = value.as_object().ok_or("metrics must be an object")?;
        if let Some(counters) = obj.get("counters") {
            for (name, v) in counters.as_object().ok_or("counters must be an object")? {
                let v = v.as_u64().ok_or_else(|| format!("counter {name} must be a u64"))?;
                registry.counters.insert(name.clone(), v);
            }
        }
        if let Some(gauges) = obj.get("gauges") {
            for (name, v) in gauges.as_object().ok_or("gauges must be an object")? {
                // A NaN gauge exports as null; re-import it as NaN.
                let v = if v.is_null() {
                    f64::NAN
                } else {
                    v.as_f64().ok_or_else(|| format!("gauge {name} must be a number"))?
                };
                registry.gauges.insert(name.clone(), v);
            }
        }
        if let Some(hists) = obj.get("histograms") {
            for (name, h) in hists.as_object().ok_or("histograms must be an object")? {
                let err = |what: &str| format!("histogram {name}: {what}");
                let bounds = h
                    .get("bounds")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("missing bounds"))?
                    .iter()
                    .map(|b| b.as_f64().ok_or_else(|| err("non-numeric bound")))
                    .collect::<Result<Vec<_>, _>>()?;
                let counts = h
                    .get("counts")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("missing counts"))?
                    .iter()
                    .map(|c| c.as_u64().ok_or_else(|| err("non-integer count")))
                    .collect::<Result<Vec<_>, _>>()?;
                let sum = h.get("sum").and_then(Value::as_f64).ok_or_else(|| err("missing sum"))?;
                let count =
                    h.get("count").and_then(Value::as_u64).ok_or_else(|| err("missing count"))?;
                // min/max are omitted for empty histograms; restore the
                // empty-state sentinels so re-export is byte-identical.
                let min = h.get("min").and_then(Value::as_f64).unwrap_or(f64::INFINITY);
                let max = h.get("max").and_then(Value::as_f64).unwrap_or(f64::NEG_INFINITY);
                if counts.len() != bounds.len() + 1 {
                    return Err(err("counts do not match bounds"));
                }
                registry.histograms.insert(name.clone(), (bounds, counts, sum, count, min, max));
            }
        }
        Ok(registry)
    }

    pub fn to_json(snapshot: &TelemetrySnapshot) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("version".into(), Value::U64(1));
        obj.insert(
            "spans".into(),
            Value::Array(snapshot.spans.iter().enumerate().map(|(i, s)| span_json(i, s)).collect()),
        );
        obj.insert("events".into(), Value::Array(snapshot.events.iter().map(event_json).collect()));
        obj.insert("metrics".into(), metrics_json(&snapshot.metrics));
        Value::Object(obj)
    }

    pub fn to_json_string(snapshot: &TelemetrySnapshot) -> String {
        serde_json::to_string_pretty(&to_json(snapshot))
            .expect("telemetry snapshot serialises infallibly")
    }

    pub fn metrics_json_string(snapshot: &TelemetrySnapshot) -> String {
        serde_json::to_string(&metrics_json(&snapshot.metrics))
            .expect("metrics registry serialises infallibly")
    }

    /// The imported snapshot as plain data.
    pub type Parsed = (Vec<Span>, Vec<Event>, Metrics);

    pub fn from_json_str(text: &str) -> Result<Parsed, TraceError> {
        let value: Value = serde_json::from_str(text).map_err(|e| parse_error(e.to_string()))?;
        from_json(&value)
    }

    pub fn from_json(value: &Value) -> Result<Parsed, TraceError> {
        match value.get("version").and_then(Value::as_u64) {
            Some(1) => {}
            Some(v) => return Err(parse_error(format!("unsupported trace version {v}"))),
            None => return Err(parse_error("missing trace version")),
        }
        let spans = value
            .get("spans")
            .and_then(Value::as_array)
            .ok_or_else(|| parse_error("missing spans array"))?
            .iter()
            .enumerate()
            .map(|(i, s)| span_from_json(i, s))
            .collect::<Result<Vec<_>, _>>()?;
        let events = value
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| parse_error("missing events array"))?
            .iter()
            .enumerate()
            .map(|(i, e)| event_from_json(i, e))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = metrics_from_json(
            value.get("metrics").ok_or_else(|| parse_error("missing metrics object"))?,
        )
        .map_err(parse_error)?;
        Ok((spans, events, metrics))
    }
}

// ------------------------------------------------------------ comparisons

/// `Debug` text of an import: NaN-safe, and sensitive to the sign of zero.
fn debug_of(parsed: &Result<reference::Parsed, TraceError>) -> String {
    format!("{parsed:?}")
}

fn import(text: &str) -> Result<reference::Parsed, TraceError> {
    let snapshot = TelemetrySnapshot::from_json_str(text)?;
    let metrics = reference::Metrics::of(&snapshot.metrics);
    Ok((snapshot.spans, snapshot.events, metrics))
}

/// The importer and the reference must agree on `text`: the same snapshot,
/// or both a typed parse error (of several defects either may name any).
fn assert_imports_agree(text: &str) -> Result<(), String> {
    let (new, old) = (import(text), reference::from_json_str(text));
    match (&new, &old) {
        (Ok(_), Ok(_)) if debug_of(&new) == debug_of(&old) => Ok(()),
        (Err(TraceError::Parse { .. }), Err(_)) => Ok(()),
        _ => Err(format!("importers disagree\n  new: {new:?}\n  old: {old:?}\n  on: {text}")),
    }
}

/// Every exporter against the reference, and the importer on the export.
fn assert_codec_matches(snapshot: &TelemetrySnapshot) -> Result<(), String> {
    let text = snapshot.to_json_string();
    if text != reference::to_json_string(snapshot) {
        return Err(format!("export differs from the reference:\n{text}"));
    }
    if snapshot.metrics_json_string() != reference::metrics_json_string(snapshot) {
        return Err("metrics export differs from the reference".into());
    }
    assert_imports_agree(&text)?;
    // The compact spelling of the same document reads the same.
    let compact = serde_json::to_string(&reference::to_json(snapshot)).unwrap();
    assert_imports_agree(&compact)?;
    // Export → import → export is the identity on bytes. (Not every export
    // imports, and never did: a NaN `start_secs`, `at_secs` or histogram
    // `sum` exports as `null`, which reads as a missing member.)
    if let Ok(again) = TelemetrySnapshot::from_json_str(&text) {
        if again.to_json_string() != text {
            return Err("re-export differs".into());
        }
    }
    assert_lines_match_points(snapshot)
}

/// `to_line_protocol()` is `to_points()` rendered line by line.
fn assert_lines_match_points(snapshot: &TelemetrySnapshot) -> Result<(), String> {
    let rendered: String =
        snapshot.to_points().iter().map(|p| p.to_line_protocol() + "\n").collect();
    if snapshot.to_line_protocol() == rendered {
        Ok(())
    } else {
        Err(format!(
            "line protocol differs from the points:\n{}\n{rendered}",
            snapshot.to_line_protocol()
        ))
    }
}

// -------------------------------------------------------------- generators

const SPAN_KINDS: [SpanKind; 7] = [
    SpanKind::Service,
    SpanKind::Job,
    SpanKind::TuningRun,
    SpanKind::Rung,
    SpanKind::Batch,
    SpanKind::Trial,
    SpanKind::Epoch,
];

const EVENT_KINDS: [EventKind; 9] = [
    EventKind::Probe,
    EventKind::GtLookup,
    EventKind::Checkpoint,
    EventKind::Fault,
    EventKind::Retry,
    EventKind::Profile,
    EventKind::Churn,
    EventKind::Shed,
    EventKind::CacheLookup,
];

/// Attribute keys: unsorted, some needing JSON or line-protocol escapes,
/// some colliding with the exporters' own tag and field names.
const KEYS: [&str; 12] = [
    "phase",
    "epoch",
    "cost",
    "hit",
    "kind",
    "label",
    "span_id",
    "at_secs",
    "a b,c=d\\e",
    "\"q\"",
    "ключ",
    "",
];

/// Text exercising every escape class of both formats.
const TEXTS: [&str; 10] = [
    "",
    "plain",
    "8c/32GB",
    "quo\"te back\\slash",
    "line\nfeed\ttab\rreturn",
    "ctl\u{0}\u{1f}\u{7f}",
    "naïve ❤ 😀",
    "a b,c=d",
    "trailing\\",
    "\u{feff}\u{2028}",
];

fn arbitrary_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..12u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE / 8.0,
        6 => -f64::from_bits(rng.gen_range(1..1u64 << 52)),
        7 => f64::MAX,
        8 => rng.gen_range(-1.0e3..1.0e3),
        9 => rng.gen_range(0.0..1.0) / 3.0,
        10 => {
            f64::from_bits(rng.gen::<u64>() & !(0x7ff << 52) | (rng.gen_range(1..0x7feu64) << 52))
        }
        _ => rng.gen_range(1.0e15..1.0e22),
    }
}

fn arbitrary_text(rng: &mut StdRng) -> String {
    let mut text = TEXTS[rng.gen_range(0..TEXTS.len())].to_string();
    if rng.gen::<bool>() {
        text.push_str(TEXTS[rng.gen_range(0..TEXTS.len())]);
    }
    text
}

fn arbitrary_attrs(rng: &mut StdRng) -> Attrs {
    (0..rng.gen_range(0..7usize))
        .map(|_| {
            let value = match rng.gen_range(0..8u32) {
                0 => AttrValue::U64(rng.gen::<u32>().into()),
                1 => AttrValue::U64(u64::MAX - u64::from(rng.gen::<u32>())),
                2 => AttrValue::I64(-i64::from(rng.gen::<u32>())),
                3 => AttrValue::I64(if rng.gen() { i64::MIN } else { i64::MAX }),
                4 | 5 => AttrValue::F64(arbitrary_f64(rng)),
                6 => AttrValue::Bool(rng.gen()),
                _ => AttrValue::Str(arbitrary_text(rng).into()),
            };
            // Drawn with replacement: duplicates and disorder are the point.
            (KEYS[rng.gen_range(0..KEYS.len())], value)
        })
        .collect()
}

fn arbitrary_snapshot(seed: u64) -> TelemetrySnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let spans: Vec<Span> = (0..rng.gen_range(0..10usize))
        .map(|i| {
            let start = arbitrary_f64(&mut rng);
            Span {
                kind: SPAN_KINDS[rng.gen_range(0..SPAN_KINDS.len())],
                label: arbitrary_text(&mut rng),
                parent: match rng.gen_range(0..4u32) {
                    0 => None,
                    1 => Some(u32::MAX),
                    _ => Some(rng.gen_range(0..=i as u32)),
                },
                start_secs: start,
                end_secs: if rng.gen_range(0..4u32) == 0 {
                    f64::NAN
                } else {
                    start + arbitrary_f64(&mut rng).abs()
                },
                attrs: arbitrary_attrs(&mut rng),
            }
        })
        .collect();
    let events = (0..rng.gen_range(0..8usize))
        .map(|_| Event {
            kind: EVENT_KINDS[rng.gen_range(0..EVENT_KINDS.len())],
            span: rng.gen::<bool>().then(|| rng.gen_range(0..12u32)),
            at_secs: arbitrary_f64(&mut rng),
            attrs: arbitrary_attrs(&mut rng),
        })
        .collect();
    let mut metrics = MetricsRegistry::new();
    for c in 0..rng.gen_range(0..4u32) {
        let value = if rng.gen() { rng.gen::<u64>() } else { rng.gen::<u32>().into() };
        metrics.counter_add(format!("c{c} {}", arbitrary_text(&mut rng)), value);
    }
    for _ in 0..rng.gen_range(0..4u32) {
        metrics.gauge_set(arbitrary_text(&mut rng), arbitrary_f64(&mut rng));
    }
    for h in 0..rng.gen_range(0..4u32) {
        let bounds = [COUNT_BUCKETS, RATIO_BUCKETS, &[]][rng.gen_range(0..3usize)];
        let name = format!("h{h} {}", arbitrary_text(&mut rng));
        // Zero observations leaves an empty histogram only when it is
        // created some other way; one NaN observation poisons sum/min/max.
        for _ in 0..rng.gen_range(1..6u32) {
            metrics.observe(name.clone(), bounds, arbitrary_f64(&mut rng));
        }
    }
    TelemetrySnapshot { spans, events, metrics }
}

/// A small, well-formed trace with every record type, as mutation stock.
fn stock_trace() -> String {
    let mut metrics = MetricsRegistry::new();
    metrics.counter_add("epochs.total", 12);
    metrics.gauge_set("gt.hit_rate", 0.5);
    metrics.observe("executor.batch_trials", COUNT_BUCKETS, 3.0);
    TelemetrySnapshot {
        spans: vec![
            Span {
                kind: SpanKind::TuningRun,
                label: "lenet/mnist \"q\" \\ \n é".into(),
                parent: None,
                start_secs: 0.0,
                end_secs: 100.25,
                attrs: vec![("seed", AttrValue::U64(u64::MAX)), ("delta", AttrValue::I64(-3))],
            },
            Span {
                kind: SpanKind::Epoch,
                label: "epoch 1/profile".into(),
                parent: Some(0),
                start_secs: 1.5e-7,
                end_secs: f64::NAN,
                attrs: vec![("system", AttrValue::Str("8c/32GB".into()))],
            },
        ],
        events: vec![Event {
            kind: EventKind::GtLookup,
            span: Some(1),
            at_secs: 10.0,
            attrs: vec![("hit", AttrValue::Bool(false)), ("cost", AttrValue::F64(f64::NAN))],
        }],
        metrics,
    }
    .to_json_string()
}

/// Flips, deletes, duplicates or splices bytes of `text`; the result is
/// made valid UTF-8 again the lossy way.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    const SPLICES: [&[u8]; 12] =
        [b"{", b"}", b"[", b"]", b"\"", b",", b":", b"\\", b"null", b"-", b"1e999", b"\\ud800"];
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4u32) {
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..4u32) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => {
                let end = (at + rng.gen_range(1..9usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let end = (at + rng.gen_range(1..40usize)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
            _ => {
                let splice = SPLICES[rng.gen_range(0..SPLICES.len())];
                bytes.splice(at..at, splice.iter().copied());
            }
        }
        if bytes.is_empty() {
            break;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

// ------------------------------------------------------------------- tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_snapshots_export_and_import_like_the_reference(seed in 0u64..u64::MAX) {
        let snapshot = arbitrary_snapshot(seed);
        if let Err(e) = assert_codec_matches(&snapshot) {
            return Err(TestCaseError::fail(e));
        }
    }

    #[test]
    fn mutated_random_exports_import_like_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arbitrary_snapshot(rng.gen()).to_json_string();
        if let Err(e) = assert_imports_agree(&mutate(&text, &mut rng)) {
            return Err(TestCaseError::fail(e));
        }
    }
}

#[test]
fn empty_snapshot_exports_and_imports_like_the_reference() {
    let empty =
        TelemetrySnapshot { spans: vec![], events: vec![], metrics: MetricsRegistry::new() };
    assert_codec_matches(&empty).unwrap();
    assert!(empty.to_json_string().contains("\"spans\": [],"));
    assert!(empty.to_json_string().contains("\"counters\": {},"));
    assert_eq!(empty.to_line_protocol(), "");
}

/// ROADMAP 4b: corrupt traces are typed errors, never panics — and exactly
/// the texts the reference rejected.
#[test]
fn mutated_traces_are_rejected_or_read_never_a_panic() {
    let stock = stock_trace();
    assert_imports_agree(&stock).unwrap();
    let mut rng = StdRng::seed_from_u64(0x7ace);
    let (mut read, mut rejected) = (0, 0);
    for _ in 0..4000 {
        let text = mutate(&stock, &mut rng);
        assert_imports_agree(&text).unwrap();
        match TelemetrySnapshot::from_json_str(&text) {
            Ok(_) => read += 1,
            Err(TraceError::Parse { .. }) => rejected += 1,
            Err(other) => panic!("untyped rejection {other:?} of {text}"),
        }
    }
    // The mutations must land on both sides to mean anything.
    assert!(read > 100 && rejected > 1000, "{read} read, {rejected} rejected");
}

/// The importer's written contract (`docs/telemetry.md`), case by case.
#[test]
fn importer_contract_holds() {
    let agree = |text: &str| {
        assert_imports_agree(text).unwrap();
        TelemetrySnapshot::from_json_str(text)
    };
    // Members in any order, unknown members skipped, compact or spread out.
    let snap = agree(
        r#" {"metrics":{"later":[1,{"x":null}],"gauges":{"g":null}},"extra":{"deep":[[],{}]},
            "events":[{"attrs":{},"at_secs":2,"kind":"probe","why":"unknown member"}],
            "spans":[{"start_secs":1,"label":"l","kind":"job","id":99,"colour":"red"}],
            "version":1}"#,
    )
    .unwrap();
    assert_eq!(snap.spans[0].parent, None);
    assert!(snap.spans[0].end_secs.is_nan(), "absent end_secs is the open sentinel");
    assert_eq!(snap.events[0].at_secs, 2.0, "integers read as floats where floats are meant");
    assert!(snap.metrics.gauge("g").unwrap().is_nan(), "null gauge is NaN");
    // A repeated member's last occurrence wins — also over an occurrence
    // that would not have been accepted on its own.
    let snap = agree(
        r#"{"version":2,"version":1,"spans":[{"kind":"galaxy"}],"spans":[],
            "events":[{"kind":"probe","kind":"shed","at_secs":"x","at_secs":1,
                       "attrs":{"a":[1],"b":1,"a":2,"b":3}}],
            "metrics":{"counters":{"c":-1,"c":5},"counters":{"c":-1,"c":7}}}"#,
    )
    .unwrap();
    assert_eq!(snap.events[0].kind, EventKind::Shed);
    assert_eq!(snap.events[0].attrs, vec![("a", AttrValue::U64(2)), ("b", AttrValue::U64(3))]);
    assert_eq!(snap.metrics.counter("c"), 7);
    // …and the other way round it loses.
    for bad in [
        r#"{"version":1,"version":2,"spans":[],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"spans":{},"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"events":[{"kind":"probe","at_secs":1,"attrs":{"a":2,"a":[1]}}],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"counters":{"c":5,"c":-1}}}"#,
    ] {
        assert!(agree(bad).is_err(), "{bad}");
    }
    // Attributes come back sorted by key; numbers normalise.
    let snap = agree(
        r#"{"version":1,"events":[],"metrics":{},"spans":[{"kind":"epoch","label":"","start_secs":0.5,
            "attrs":{"z":1,"m":-1,"a":18446744073709551615,"f":1.0,"n":null,"t":true,"s":"é😀","big":1e999,"-0":-0}}]}"#,
    )
    .unwrap();
    let keys: Vec<&str> = snap.spans[0].attrs.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, ["-0", "a", "big", "f", "m", "n", "s", "t", "z"]);
    assert_eq!(snap.spans[0].attrs[0].1, AttrValue::U64(0));
    assert_eq!(snap.spans[0].attrs[1].1, AttrValue::U64(u64::MAX));
    assert_eq!(snap.spans[0].attrs[4].1, AttrValue::I64(-1));
    assert_eq!(snap.spans[0].attrs[6].1, AttrValue::Str("é😀".into()));
    assert_eq!(snap.spans[0].attrs[8].1, AttrValue::U64(1));
    // One defect per document: the complaint is the reference's, index and
    // all.
    for bad in [
        "",
        "{",
        "{}",
        "[]",
        "1",
        r#"{"version":1,"spans":[],"events":[],"metrics":{}} x"#,
        r#"{"version":1.0,"spans":[],"events":[],"metrics":{}}"#,
        r#"{"version":3,"spans":[],"events":[],"metrics":{}}"#,
        r#"{"version":1,"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"events":[]}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":[]}"#,
        r#"{"version":1,"spans":[{"kind":"job","label":"a","start_secs":0},7],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[{"kind":"job","label":"a","start_secs":0},{"kind":"job","start_secs":0}],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[{"kind":"job","label":"a","start_secs":null}],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[{"kind":"job","label":"a","start_secs":0,"parent":4294967296}],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[{"kind":"job","label":"a","start_secs":0,"end_secs":"late"}],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[{"kind":"job","label":"a","start_secs":0,"attrs":[]}],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[{"kind":"job","label":"a","start_secs":0,"attrs":{"k":{}}}],"events":[],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"events":[{"kind":"probe","at_secs":0},{"kind":"nova","at_secs":0}],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"events":[{"kind":"probe"}],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"events":[{"kind":"probe","at_secs":0,"span":-1}],"metrics":{}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"counters":[]}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"counters":{"c":1.5}}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"gauges":{"g":"x"}}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"histograms":{"h":3}}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"histograms":{"h":{"bounds":[1],"counts":[0,0],"count":0}}}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"histograms":{"h":{"bounds":[null],"counts":[0,0],"sum":0,"count":0}}}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"histograms":{"h":{"bounds":[1],"counts":[0],"sum":0,"count":0}}}}"#,
        r#"{"version":1,"spans":[],"events":[],"metrics":{"histograms":{"h":{"bounds":[1],"counts":[0,-1],"sum":0,"count":0}}}}"#,
    ] {
        let (new, old) = (import(bad).unwrap_err(), reference::from_json_str(bad).unwrap_err());
        assert!(matches!(new, TraceError::Parse { .. }), "{bad} -> {new}");
        // Syntax complaints are worded by each parser; shape complaints are
        // the format's own and must not drift.
        if !old.to_string().contains("at byte") && !bad.is_empty() {
            assert_eq!(new.to_string(), old.to_string(), "{bad}");
        }
    }
    // Histogram min/max of another type read as absent, as they always did.
    let snap = agree(
        r#"{"version":1,"spans":[],"events":[],"metrics":{"histograms":{"h":{"bounds":[],"counts":[2],"sum":3,"count":2,"min":"low","max":null}}}}"#,
    )
    .unwrap();
    let h = snap.metrics.histogram("h").unwrap();
    assert_eq!((h.min(), h.max()), (f64::INFINITY, f64::NEG_INFINITY));
}

/// The reader is as hard to hurt as the vendored `serde_json` now is: deep
/// nesting and broken surrogate pairs are errors on both sides.
#[test]
fn hostile_nesting_and_surrogates_are_typed_errors() {
    let wrap = |unknown: &str| {
        format!(r#"{{"version":1,"spans":[],"events":[],"metrics":{{}},"x":{unknown}}}"#)
    };
    let nested = |depth: usize| wrap(&format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
    // The root object is one level; 126 more is the last depth allowed.
    assert!(import(&nested(126)).is_ok());
    assert!(import(&nested(127)).is_err());
    for depth in [1, 126, 127, 128, 1000] {
        assert_imports_agree(&nested(depth)).unwrap();
    }
    let megabyte = "[".repeat(1 << 20);
    assert!(matches!(import(&megabyte), Err(TraceError::Parse { .. })));
    assert!(matches!(import(&wrap(&megabyte)), Err(TraceError::Parse { .. })));
    let objects = format!("{}1{}", "{\"k\":".repeat(200), "}".repeat(200));
    assert_imports_agree(&wrap(&objects)).unwrap();
    assert!(import(&wrap(&objects)).is_err());
    assert!(import(&wrap(r#""😀 é \/ \b\f\n\r\t""#)).is_ok());
    for bad in [
        r#""\ud800A""#,
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\udc00""#,
        r#""\ud800""#,
        r#""\u12""#,
        r#""\x""#,
        r#""\"#,
        r#""\ué000""#,
    ] {
        assert_imports_agree(&wrap(bad)).unwrap();
        assert!(matches!(import(&wrap(bad)), Err(TraceError::Parse { .. })), "{bad}");
    }
}

/// One recorded 10-job chaos stream, telemetry and monitor live: the trace
/// shape the wall-clock benchmark's `trace_pipeline` runs on.
#[test]
fn recorded_chaos_stream_trace_matches_the_reference() {
    use pipetune::prelude::*;
    use pipetune_cluster::{PoissonArrivals, ServiceFaultPlan};
    use pipetune_monitor::{MonitorConfig, MonitorHandle};
    use pipetune_service::{JobSubmission, ServiceConfig, TuningService};
    use pipetune_telemetry::TelemetryHandle;

    let seed = 14;
    let telemetry = TelemetryHandle::enabled();
    let monitor = MonitorHandle::with_config(&MonitorConfig::standard());
    let env = ExperimentEnvBuilder::distributed(seed)
        .workers(1)
        .telemetry(telemetry.clone())
        .monitor(monitor.clone())
        .build()
        .unwrap();
    let specs = [WorkloadSpec::jacobi(), WorkloadSpec::hotspot()];
    let mut arrivals = PoissonArrivals::new(1.0 / 400.0, seed);
    let submissions: Vec<JobSubmission> = (0..10)
        .map(|i| JobSubmission::new(arrivals.next_arrival().as_secs_f64(), specs[i % 2]))
        .collect();
    let config = ServiceConfig::default()
        .with_service_faults(ServiceFaultPlan::mixed(seed))
        .with_deadline(6000.0);
    let options = TunerOptions { scale: 0.2, ..TunerOptions::paper() };
    TuningService::new(config).run(&env, &submissions, &options).unwrap();
    monitor.finish(&telemetry);

    let snapshot = telemetry.snapshot().unwrap();
    assert!(snapshot.spans.len() > 1000, "{} spans", snapshot.spans.len());
    assert_codec_matches(&snapshot).unwrap();
    // What was read back exports, and renders as lines, like what was
    // recorded.
    let parsed = TelemetrySnapshot::from_json_str(&snapshot.to_json_string()).unwrap();
    assert_eq!(parsed.to_line_protocol(), snapshot.to_line_protocol());
    assert_eq!(parsed.to_prometheus(), snapshot.to_prometheus());
    // …and is its equal by export, whatever the import normalised; one
    // gauge nudged, and it no longer is.
    assert_ne!(
        parsed.spans.iter().map(|s| &s.attrs).collect::<Vec<_>>(),
        snapshot.spans.iter().map(|s| &s.attrs).collect::<Vec<_>>()
    );
    assert_equivalence_matches_the_exports(&snapshot, &parsed).unwrap();
    let mut nudged = parsed.clone();
    nudged.metrics.gauge_set("gt.hit_rate", 0.123);
    assert!(!assert_equivalence_matches_the_exports(&snapshot, &nudged).unwrap());
}

// ------------------------------------------------------- export equivalence

/// `exports_equal` / `export_difference` against the string comparison they
/// replaced, both ways round; returns what they said.
fn assert_equivalence_matches_the_exports(
    a: &TelemetrySnapshot,
    b: &TelemetrySnapshot,
) -> Result<bool, String> {
    let expected = a.to_json_string() == b.to_json_string();
    for (a, b) in [(a, b), (b, a)] {
        let difference = a.export_difference(b);
        if a.exports_equal(b) != expected || difference.is_none() != expected {
            return Err(format!(
                "exports are {} but the walk says {difference:?}\n{}\n{}",
                if expected { "the same" } else { "different" },
                a.to_json_string(),
                b.to_json_string()
            ));
        }
    }
    Ok(expected)
}

/// One edit of `snapshot`, of a kind that may or may not show in the
/// export: the exports themselves say which.
fn perturb(snapshot: &mut TelemetrySnapshot, rng: &mut StdRng) {
    fn attrs_of<'a>(
        snapshot: &'a mut TelemetrySnapshot,
        rng: &mut StdRng,
    ) -> Option<&'a mut Attrs> {
        let spans = snapshot.spans.len();
        let at = rng.gen_range(0..(spans + snapshot.events.len()).max(1));
        if at < spans {
            Some(&mut snapshot.spans[at].attrs)
        } else {
            snapshot.events.get_mut(at - spans).map(|event| &mut event.attrs)
        }
    }
    match rng.gen_range(0..14u32) {
        0 => {}
        // Attribute order: shows only where a key is there twice.
        1 => {
            if let Some(attrs) = attrs_of(snapshot, rng) {
                attrs.reverse();
            }
        }
        2 => {
            if let Some(attrs) = attrs_of(snapshot, rng) {
                attrs.sort_by_key(|(key, _)| *key);
            }
        }
        // The other integer variant, the other zero, the other non-number,
        // the next float, an owned string for a borrowed one.
        3 => {
            for attrs in snapshot.spans.iter_mut().map(|s| &mut s.attrs) {
                for (_, value) in attrs {
                    *value = match value.clone() {
                        AttrValue::U64(v) => {
                            i64::try_from(v).map_or(AttrValue::U64(v), AttrValue::I64)
                        }
                        AttrValue::I64(v) => {
                            u64::try_from(v).map_or(AttrValue::I64(v), AttrValue::U64)
                        }
                        AttrValue::F64(v) if v == 0.0 => AttrValue::F64(-v),
                        AttrValue::F64(v) if v.is_nan() => AttrValue::F64(f64::NEG_INFINITY),
                        AttrValue::F64(v) if v.is_infinite() => {
                            AttrValue::F64(f64::from_bits(0x7ff8_0000_0000_0001))
                        }
                        AttrValue::Str(s) => AttrValue::Str(s.into_owned().into()),
                        other => other,
                    };
                }
            }
        }
        4 => {
            if let Some((_, AttrValue::F64(v))) =
                attrs_of(snapshot, rng).and_then(|attrs| attrs.first_mut())
            {
                *v = f64::from_bits(v.to_bits() ^ 1);
            }
        }
        5 => {
            if let Some(attrs) = attrs_of(snapshot, rng) {
                attrs.push((KEYS[rng.gen_range(0..KEYS.len())], AttrValue::U64(3)));
            }
        }
        6 => {
            if let Some(span) = snapshot.spans.last_mut() {
                span.label.push('x');
            }
        }
        7 => {
            if let Some(span) = snapshot.spans.first_mut() {
                // Open and closed, or closed one ulp later.
                span.end_secs = if span.end_secs.is_nan() { 1.0 } else { f64::NAN };
            }
        }
        8 => {
            if let Some(event) = snapshot.events.first_mut() {
                event.span = event.span.map_or(Some(0), |_| None);
            }
        }
        9 => drop(snapshot.events.pop()),
        10 => drop(snapshot.spans.pop()),
        11 => snapshot.metrics.counter_add("c0 plain", 1),
        12 => snapshot.metrics.gauge_set("plain", arbitrary_f64(rng)),
        _ => snapshot.metrics.observe("one more", COUNT_BUCKETS, arbitrary_f64(rng).abs()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn exports_equal_is_the_comparison_of_the_exports(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = arbitrary_snapshot(rng.gen());
        // Itself; another snapshot; itself, edited once or twice; its own
        // re-import, edited or not.
        let mut candidates = vec![a.clone(), arbitrary_snapshot(rng.gen())];
        let mut edited = a.clone();
        for _ in 0..rng.gen_range(1..3u32) {
            perturb(&mut edited, &mut rng);
        }
        candidates.push(edited);
        if let Ok(mut reimported) = TelemetrySnapshot::from_json_str(&a.to_json_string()) {
            candidates.push(reimported.clone());
            perturb(&mut reimported, &mut rng);
            candidates.push(reimported);
        }
        for b in &candidates {
            if let Err(e) = assert_equivalence_matches_the_exports(&a, b) {
                return Err(TestCaseError::fail(e));
            }
        }
    }
}

#[test]
fn exports_equal_on_the_pairs_the_format_contract_names() {
    fn span(attrs: Attrs) -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: vec![Span {
                kind: SpanKind::Trial,
                label: "trial 1".into(),
                parent: None,
                start_secs: 0.0,
                end_secs: 2.0,
                attrs,
            }],
            events: vec![],
            metrics: MetricsRegistry::new(),
        }
    }
    let same = |a: &TelemetrySnapshot, b: &TelemetrySnapshot| {
        assert_equivalence_matches_the_exports(a, b).unwrap()
    };
    let nan = |payload: u64| AttrValue::F64(f64::from_bits(0x7ff8_0000_0000_0000 | payload));

    // Attribute order does not show; which duplicate comes last does.
    assert!(same(
        &span(vec![("b", 1u64.into()), ("a", "x".into())]),
        &span(vec![("a", "x".into()), ("b", 1u64.into())])
    ));
    assert!(same(
        &span(vec![("a", 1u64.into()), ("b", true.into()), ("a", 2u64.into())]),
        &span(vec![("b", true.into()), ("a", 2u64.into())])
    ));
    assert!(!same(
        &span(vec![("a", 1u64.into()), ("a", 2u64.into())]),
        &span(vec![("a", 2u64.into()), ("a", 1u64.into())])
    ));
    // An integer is its digits, whatever holds it; a float is not one.
    assert!(same(&span(vec![("n", AttrValue::U64(3))]), &span(vec![("n", AttrValue::I64(3))])));
    assert!(!same(&span(vec![("n", AttrValue::U64(3))]), &span(vec![("n", AttrValue::F64(3.0))])));
    assert!(!same(&span(vec![("n", AttrValue::I64(-3))]), &span(vec![("n", AttrValue::U64(3))])));
    assert!(!same(
        &span(vec![("n", AttrValue::U64(u64::MAX))]),
        &span(vec![("n", AttrValue::I64(-1))])
    ));
    // The two zeros are two spellings; everything not finite is `null`.
    assert!(!same(&span(vec![("z", 0.0f64.into())]), &span(vec![("z", (-0.0f64).into())])));
    assert!(same(&span(vec![("z", nan(1))]), &span(vec![("z", nan(2))])));
    assert!(same(&span(vec![("z", nan(0))]), &span(vec![("z", f64::INFINITY.into())])));
    assert!(same(
        &span(vec![("z", f64::INFINITY.into())]),
        &span(vec![("z", f64::NEG_INFINITY.into())])
    ));
    assert!(!same(&span(vec![("z", nan(0))]), &span(vec![("z", f64::MAX.into())])));
    // A string is its content, borrowed or owned; `true` is not `"true"`.
    assert!(same(
        &span(vec![("phase", AttrValue::Str("tuned".into()))]),
        &span(vec![("phase", AttrValue::Str(String::from("tuned").into()))])
    ));
    assert!(!same(&span(vec![("hit", true.into())]), &span(vec![("hit", "true".into())])));

    // Open spans: every non-finite end is the one `null`.
    let open = |end_secs: f64| {
        let mut snapshot = span(vec![]);
        snapshot.spans[0].end_secs = end_secs;
        snapshot
    };
    assert!(same(&open(f64::NAN), &open(f64::from_bits(0x7ff8_0000_0000_0007))));
    assert!(same(&open(f64::NAN), &open(f64::INFINITY)));
    assert!(!same(&open(f64::NAN), &open(2.0)));

    // Metric names owned or static; one histogram bucket.
    let metrics = |name: std::borrow::Cow<'static, str>, observation: f64| {
        let mut snapshot = span(vec![]);
        snapshot.metrics.counter_add(name.clone(), 2);
        snapshot.metrics.gauge_set(name.clone(), 0.5);
        snapshot.metrics.observe(name, COUNT_BUCKETS, observation);
        snapshot
    };
    assert!(same(&metrics("m".into(), 3.0), &metrics(String::from("m").into(), 3.0)));
    assert!(!same(&metrics("m".into(), 3.0), &metrics("n".into(), 3.0)));
    let (a, b) = (metrics("m".into(), 3.0), metrics("m".into(), 5.0));
    assert!(!same(&a, &b));
    let difference = a.export_difference(&b).unwrap();
    assert!(difference.starts_with("metrics histograms m "), "{difference}");
}
