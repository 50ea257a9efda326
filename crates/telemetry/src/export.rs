//! Exporters: deterministic JSON, tsdb line protocol, Prometheus text and
//! the end-of-run summary table — plus the JSON *importer*
//! ([`TelemetrySnapshot::from_json_str`]) that turns a trace dump back into
//! a snapshot for offline analysis.
//!
//! All exporters are pure functions of a [`TelemetrySnapshot`], so two
//! byte-identical runs export byte-identical artefacts — the property the
//! telemetry determinism suite asserts across executor worker counts. The
//! importer is the exporter's inverse up to bytes: export → parse → export
//! is byte-identical (pinned by a property test below).
//!
//! Every conversion here is one pass over its input: the JSON exporter
//! writes the document straight into one string and the importer fills
//! spans, events and metrics straight from the text (`json.rs`), and the
//! line-protocol exporter writes each record's line without building the
//! [`Point`] it describes. `docs/telemetry.md` states the format contract;
//! `tests/trace_codec.rs` holds the tree-building codec this replaced as the
//! reference the bytes are checked against.

use std::fmt::Write as _;

use pipetune_tsdb::Point;

use crate::decimal;
use crate::handle::TelemetrySnapshot;
use crate::json::{
    optional, require, required, shape, JsonReader, JsonSink, JsonWriter, Number, Read, ReadError,
    Slot, TokenTape,
};
use crate::metrics::MetricsRegistry;
use crate::span::{AttrValue, Attrs, Event, EventKind, Span, SpanKind};
use crate::validate::TraceError;

/// Pretty-printed bytes one span or event comes to, give or take: sizes the
/// export buffer so it grows at most once.
const RECORD_BYTES: usize = 384;

/// Scratch space for [`write_attrs`].
type AttrOrder<'a> = Vec<&'a (&'static str, AttrValue)>;

/// Writes an attribute list as a JSON object: keys sorted, and of several
/// attributes under one key the last.
fn write_attrs<'a>(w: &mut impl JsonSink<'a>, attrs: &'a Attrs, order: &mut AttrOrder<'a>) {
    order.clear();
    order.extend(attrs);
    // Stable, so equal keys stay in insertion order.
    order.sort_by_key(|(key, _)| *key);
    w.begin_object();
    for (i, (key, value)) in order.iter().enumerate() {
        if order.get(i + 1).is_some_and(|(next, _)| next == key) {
            continue;
        }
        w.key(key);
        match value {
            AttrValue::U64(v) => w.u64(*v),
            AttrValue::I64(v) => w.i64(*v),
            AttrValue::F64(v) => w.f64(*v),
            AttrValue::Str(s) => w.string(s),
            AttrValue::Bool(b) => w.bool(*b),
        }
    }
    w.end_object();
}

fn write_index<'a>(w: &mut impl JsonSink<'a>, index: Option<u32>) {
    match index {
        Some(i) => w.u64(u64::from(i)),
        None => w.null(),
    }
}

fn write_event<'a>(w: &mut impl JsonSink<'a>, event: &'a Event, order: &mut AttrOrder<'a>) {
    w.begin_object();
    w.key("at_secs");
    w.f64(event.at_secs);
    w.key("attrs");
    write_attrs(w, &event.attrs, order);
    w.key("kind");
    w.string(event.kind.name());
    w.key("span");
    write_index(w, event.span);
    w.end_object();
}

fn write_span<'a>(w: &mut impl JsonSink<'a>, id: usize, span: &'a Span, order: &mut AttrOrder<'a>) {
    w.begin_object();
    w.key("attrs");
    write_attrs(w, &span.attrs, order);
    // Open spans carry NaN, which JSON cannot represent: `f64` writes null.
    w.key("end_secs");
    w.f64(span.end_secs);
    w.key("id");
    w.u64(id as u64);
    w.key("kind");
    w.string(span.kind.name());
    w.key("label");
    w.string(&span.label);
    w.key("parent");
    write_index(w, span.parent);
    w.key("start_secs");
    w.f64(span.start_secs);
    w.end_object();
}

/// The first of the paired records of `a` and `b` that `write` exports as
/// different tokens, as `<what> <index> <where and how>`; failing that, a
/// difference in how many records there are.
fn records_difference<'a, T>(
    tape: &mut TokenTape<'a>,
    what: &str,
    a: &'a [T],
    b: &'a [T],
    mut write: impl FnMut(&mut TokenTape<'a>, usize, &'a T),
) -> Option<String> {
    for (i, (record_a, record_b)) in a.iter().zip(b).enumerate() {
        tape.record();
        write(tape, i, record_a);
        tape.compare();
        write(tape, i, record_b);
        if let Some(difference) = tape.difference() {
            return Some(format!("{what} {i} {difference}"));
        }
    }
    (a.len() != b.len()).then(|| format!("{what}s: {} -> {}", a.len(), b.len()))
}

/// Interns an attribute key: [`Attrs`] keys are `&'static str` (recording
/// sites use literals), so re-imported keys are leaked once per *unique*
/// key into a shared table. The trace vocabulary is a small fixed set, so
/// the table — and the leak — stays bounded no matter how many traces a
/// process parses.
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

/// Inverse of [`write_attrs`]; the list comes back sorted by key. Integer
/// attributes re-import as [`AttrValue::U64`] when non-negative (JSON does
/// not distinguish signedness); `null` attributes re-import as
/// [`AttrValue::F64`] NaN (the only value that exports as `null`). Both
/// normalisations re-export to the same bytes.
fn read_attrs(r: &mut JsonReader) -> Read<Attrs> {
    let mut attrs = Attrs::new();
    // Non-scalar values, each with the length of `attrs` when it was met: a
    // scalar under the same key further on supersedes it.
    let mut non_scalar: Vec<(usize, String)> = Vec::new();
    let is_object = r.object(|r, key| {
        let value = r.member(|r| {
            if r.null() {
                Ok(AttrValue::F64(f64::NAN))
            } else if let Some(b) = r.bool() {
                Ok(AttrValue::Bool(b))
            } else if let Some(n) = r.number()? {
                Ok(match n {
                    Number::I64(v) if v < 0 => AttrValue::I64(v),
                    Number::I64(v) => AttrValue::U64(v as u64),
                    Number::U64(v) => AttrValue::U64(v),
                    Number::F64(v) => AttrValue::F64(v),
                })
            } else if let Some(s) = r.string()? {
                Ok(AttrValue::Str(s.into_owned().into()))
            } else {
                shape("")
            }
        })?;
        match value {
            Ok(value) => attrs.push((intern(key), value)),
            Err(_) => non_scalar.push((attrs.len(), key.to_string())),
        }
        Ok(())
    })?;
    if !is_object {
        return shape("attrs must be an object");
    }
    for (seen, key) in non_scalar {
        if !attrs[seen..].iter().any(|(k, _)| *k == key) {
            return shape(format!("attr {key} has a non-scalar value"));
        }
    }
    if !attrs.windows(2).all(|w| w[0].0 < w[1].0) {
        // Stable sort, then keep the last of each run of equal keys.
        attrs.sort_by_key(|(key, _)| *key);
        attrs.reverse();
        attrs.dedup_by_key(|(key, _)| *key);
        attrs.reverse();
    }
    Ok(attrs)
}

/// Reads an optional span index (`parent` / `span`): `null` is none.
fn read_index(r: &mut JsonReader, mismatch: &str) -> Read<Option<u32>> {
    if r.null() {
        return Ok(None);
    }
    let index = r.number()?.and_then(Number::as_u64).and_then(|i| u32::try_from(i).ok());
    require(index, mismatch).map(Some)
}

fn read_span(r: &mut JsonReader, idx: usize) -> Read<Span> {
    let (mut kind, mut label, mut start_secs) = (None, None, None);
    let (mut parent, mut end_secs, mut attrs): (Slot<_>, Slot<_>, Slot<_>) = (None, None, None);
    r.object(|r, key| {
        match key {
            "kind" => {
                kind = r.lenient(|r| Ok(r.string()?.and_then(|k| SpanKind::from_name(&k))))?;
            }
            "label" => label = r.lenient(JsonReader::string)?,
            "parent" => parent = Some(r.member(|r| read_index(r, "parent must be a u32"))?),
            "start_secs" => start_secs = r.lenient(JsonReader::number)?,
            "end_secs" => {
                // An open span exports `null`; re-import restores the NaN
                // sentinel.
                end_secs = Some(r.member(|r| {
                    if r.null() {
                        return Ok(f64::NAN);
                    }
                    Ok(require(r.number()?, "end_secs must be a number")?.as_f64())
                })?);
            }
            "attrs" => attrs = Some(r.member(read_attrs)?),
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    (|| {
        Ok(Span {
            kind: require(kind, "missing or unknown kind")?,
            label: require(label, "missing label")?.into_owned(),
            parent: optional(parent)?.flatten(),
            start_secs: require(start_secs, "missing start_secs")?.as_f64(),
            end_secs: optional(end_secs)?.unwrap_or(f64::NAN),
            attrs: optional(attrs)?.unwrap_or_default(),
        })
    })()
    .map_err(|e: ReadError| e.within(format_args!("span {idx}")))
}

fn read_event(r: &mut JsonReader, idx: usize) -> Read<Event> {
    let (mut kind, mut at_secs) = (None, None);
    let (mut span, mut attrs): (Slot<_>, Slot<_>) = (None, None);
    r.object(|r, key| {
        match key {
            "kind" => {
                kind = r.lenient(|r| Ok(r.string()?.and_then(|k| EventKind::from_name(&k))))?;
            }
            "span" => span = Some(r.member(|r| read_index(r, "span must be a u32"))?),
            "at_secs" => at_secs = r.lenient(JsonReader::number)?,
            "attrs" => attrs = Some(r.member(read_attrs)?),
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    (|| {
        Ok(Event {
            kind: require(kind, "missing or unknown kind")?,
            span: optional(span)?.flatten(),
            at_secs: require(at_secs, "missing at_secs")?.as_f64(),
            attrs: optional(attrs)?.unwrap_or_default(),
        })
    })()
    .map_err(|e: ReadError| e.within(format_args!("event {idx}")))
}

/// Reads an array of records, each told its index.
fn read_records<T>(
    r: &mut JsonReader,
    read: impl Fn(&mut JsonReader, usize) -> Read<T>,
    missing: &str,
) -> Read<Vec<T>> {
    let mut records = Vec::new();
    let is_array = r.array(|r| {
        records.push(read(r, records.len())?);
        Ok(())
    })?;
    require(is_array.then_some(records), missing)
}

fn read_snapshot(r: &mut JsonReader) -> Read<TelemetrySnapshot> {
    let mut version = None;
    let (mut spans, mut events, mut metrics): (Slot<_>, Slot<_>, Slot<_>) = (None, None, None);
    let is_object = r.object(|r, key| {
        match key {
            "version" => version = r.lenient(|r| Ok(r.number()?.and_then(Number::as_u64)))?,
            "spans" => {
                spans = Some(r.member(|r| read_records(r, read_span, "missing spans array"))?);
            }
            "events" => {
                events = Some(r.member(|r| read_records(r, read_event, "missing events array"))?);
            }
            "metrics" => metrics = Some(r.member(MetricsRegistry::read_json)?),
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    if !is_object {
        // Any other document is well-formed JSON or not, but never a trace.
        r.skip_value()?;
    }
    r.end()?;
    match version {
        Some(1) => {}
        Some(v) => return shape(format!("unsupported trace version {v}")),
        None => return shape("missing trace version"),
    }
    Ok(TelemetrySnapshot {
        spans: required(spans, "missing spans array")?,
        events: required(events, "missing events array")?,
        metrics: required(metrics, "missing metrics object")?,
    })
}

/// Microsecond timestamp for a simulated-seconds instant (clamped at 0).
fn timestamp_us(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e6) as u64
    } else {
        0
    }
}

/// Appends `s` with `\`, `,`, space and `=` backslash-escaped — the line
/// protocol's token escaping, as `pipetune_tsdb` writes it (a test holds
/// [`TelemetrySnapshot::to_line_protocol`] to the lines of
/// [`TelemetrySnapshot::to_points`]).
fn push_escaped(out: &mut String, s: &str) {
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if matches!(b, b'\\' | b',' | b' ' | b'=') {
            out.push_str(&s[run_start..i]);
            out.push('\\');
            run_start = i;
        }
    }
    out.push_str(&s[run_start..]);
}

impl TelemetrySnapshot {
    fn write_json<'a>(&'a self, w: &mut impl JsonSink<'a>) {
        let mut order = Vec::new();
        w.begin_object();
        w.key("events");
        w.begin_array();
        for event in &self.events {
            w.element();
            write_event(w, event, &mut order);
        }
        w.end_array();
        w.key("metrics");
        self.metrics.write_json(w);
        w.key("spans");
        w.begin_array();
        for (id, span) in self.spans.iter().enumerate() {
            w.element();
            write_span(w, id, span, &mut order);
        }
        w.end_array();
        w.key("version");
        w.u64(1);
        w.end_object();
    }

    /// Where [`TelemetrySnapshot::to_json_string`] of `self` and of `other`
    /// first differ — `span 17 label: "trial 1" -> "trial 2"`, `metrics
    /// gauges gt.hit_rate: 0.5 -> 0.75`, `events: 1140 -> 1141`, in document
    /// order (events, metrics, spans) — or `None` when they are the same
    /// bytes. Neither document is written: the export walk runs over both
    /// snapshots record by record and its tokens are compared
    /// (`docs/telemetry.md`, "Export equivalence", has the relation).
    ///
    /// ```
    /// use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle};
    ///
    /// let record = |label: &str| {
    ///     let telemetry = TelemetryHandle::enabled();
    ///     let run = telemetry.open_span(SpanId::NONE, SpanKind::TuningRun, label, 0.0, vec![]);
    ///     telemetry.close_span(run, 3.5);
    ///     telemetry.snapshot().unwrap()
    /// };
    /// assert!(record("job").exports_equal(&record("job")));
    /// assert_eq!(
    ///     record("job").export_difference(&record("other")).unwrap(),
    ///     r#"span 0 label: "job" -> "other""#
    /// );
    /// ```
    pub fn export_difference(&self, other: &Self) -> Option<String> {
        let mut tape = TokenTape::default();
        let mut order = Vec::new();
        records_difference(&mut tape, "event", &self.events, &other.events, |tape, _, event| {
            write_event(tape, event, &mut order);
        })
        .or_else(|| {
            tape.record();
            self.metrics.write_json(&mut tape);
            tape.compare();
            other.metrics.write_json(&mut tape);
            Some(format!("metrics {}", tape.difference()?))
        })
        .or_else(|| {
            records_difference(&mut tape, "span", &self.spans, &other.spans, |tape, id, span| {
                write_span(tape, id, span, &mut order);
            })
        })
    }

    /// Whether `self` and `other` export as the same bytes: a snapshot and its
    /// re-import do, though their attribute order and integer variants
    /// differ ([`TelemetrySnapshot::export_difference`] finds none).
    pub fn exports_equal(&self, other: &Self) -> bool {
        self.export_difference(other).is_none()
    }

    /// The snapshot as a pretty-printed JSON string (the trace-dump
    /// artefact format): spans, events and metrics in one document with
    /// sorted object keys throughout.
    pub fn to_json_string(&self) -> String {
        let records = self.spans.len() + self.events.len();
        let mut w = JsonWriter::new(true, 1024 + RECORD_BYTES * records);
        self.write_json(&mut w);
        w.finish()
    }

    /// Parses a JSON trace dump (the [`TelemetrySnapshot::to_json_string`]
    /// format) back into a snapshot — the importer `pipetune-bench trace` and the
    /// insight analyses are built on.
    ///
    /// Exact inverse up to bytes: `export → parse → export` is
    /// byte-identical. Two normalisations happen on the way in (neither
    /// changes the re-exported bytes): non-negative integer attributes
    /// become [`AttrValue::U64`], and `null` floats become NaN.
    ///
    /// # Errors
    ///
    /// [`TraceError::Parse`] on malformed JSON, an unknown span/event kind,
    /// an unsupported version, or a shape mismatch. Structural problems
    /// (orphan parents, inverted intervals) are *not* checked here — run
    /// [`TelemetrySnapshot::validate`] on the result.
    ///
    /// # Example
    ///
    /// ```
    /// use pipetune_telemetry::{SpanId, SpanKind, TelemetryHandle, TelemetrySnapshot};
    ///
    /// let telemetry = TelemetryHandle::enabled();
    /// let run = telemetry.open_span(SpanId::NONE, SpanKind::TuningRun, "job", 0.0, vec![]);
    /// telemetry.close_span(run, 3.5);
    /// let text = telemetry.snapshot().unwrap().to_json_string();
    ///
    /// let parsed = TelemetrySnapshot::from_json_str(&text).unwrap();
    /// assert_eq!(parsed.to_json_string(), text);
    /// ```
    pub fn from_json_str(text: &str) -> Result<Self, TraceError> {
        read_snapshot(&mut JsonReader::new(text))
            .map_err(|e| TraceError::Parse { reason: e.into_reason() })
    }

    /// The metrics registry alone as a compact JSON string.
    pub fn metrics_json_string(&self) -> String {
        let mut w = JsonWriter::new(false, 1024);
        self.metrics.write_json(&mut w);
        w.finish()
    }

    /// Hands `sink` every tsdb record of the snapshot as `(measurement,
    /// tags, fields, timestamp_us)`: one `pipetune_span` record per span
    /// (tags `kind`/`label`, fields `start_secs`/`end_secs`/
    /// `duration_secs` plus numeric attributes), one `pipetune_event`
    /// record per event, one `pipetune_counter`/`pipetune_gauge` record per
    /// metric and one `pipetune_histogram` record per histogram. Tags and
    /// fields arrive in recording order with [`Point`]'s map semantics still
    /// to be applied: a later entry replaces an earlier one of the same
    /// key, and keys are stored sorted.
    fn for_each_record(
        &self,
        mut sink: impl FnMut(&str, &mut [(&str, &str)], &mut [(&str, f64)], u64),
    ) {
        fn split_attrs<'a>(
            attrs: &'a Attrs,
            tags: &mut Vec<(&'a str, &'a str)>,
            fields: &mut Vec<(&'a str, f64)>,
        ) {
            for (key, value) in attrs {
                match (value, value.as_field()) {
                    (AttrValue::Str(s), _) => tags.push((key, s)),
                    (_, Some(f)) => fields.push((key, f)),
                    (_, None) => {}
                }
            }
        }
        let most_buckets =
            self.metrics.histograms().map(|(_, h)| h.counts().len()).max().unwrap_or(0);
        let bucket_keys: Vec<String> = (0..most_buckets).map(|i| format!("bucket_{i}")).collect();
        let (mut tags, mut fields) = (Vec::new(), Vec::new());
        for (id, span) in self.spans.iter().enumerate() {
            let end = if span.end_secs.is_finite() { span.end_secs } else { span.start_secs };
            tags.clear();
            tags.extend([("kind", span.kind.name()), ("label", span.label.as_str())]);
            fields.clear();
            fields.extend([
                ("span_id", id as f64),
                ("start_secs", span.start_secs),
                ("end_secs", end),
                ("duration_secs", end - span.start_secs),
            ]);
            split_attrs(&span.attrs, &mut tags, &mut fields);
            sink("pipetune_span", &mut tags, &mut fields, timestamp_us(span.start_secs));
        }
        for event in &self.events {
            tags.clear();
            tags.push(("kind", event.kind.name()));
            fields.clear();
            fields.push(("at_secs", event.at_secs));
            if let Some(span) = event.span {
                fields.push(("span_id", f64::from(span)));
            }
            split_attrs(&event.attrs, &mut tags, &mut fields);
            sink("pipetune_event", &mut tags, &mut fields, timestamp_us(event.at_secs));
        }
        for (name, value) in self.metrics.counters() {
            sink("pipetune_counter", &mut [("name", name)], &mut [("value", value as f64)], 0);
        }
        for (name, value) in self.metrics.gauges() {
            sink("pipetune_gauge", &mut [("name", name)], &mut [("value", value)], 0);
        }
        for (name, hist) in self.metrics.histograms() {
            fields.clear();
            fields.extend([("count", hist.count() as f64), ("sum", hist.sum())]);
            fields.extend(
                bucket_keys.iter().zip(hist.counts()).map(|(key, &c)| (key.as_str(), c as f64)),
            );
            if hist.count() > 0 {
                fields.extend([("min", hist.min()), ("max", hist.max())]);
            }
            sink("pipetune_histogram", &mut [("name", name)], &mut fields, 0);
        }
    }

    /// The snapshot as tsdb points: one `pipetune_span` point per span
    /// (tags `kind`/`label`, fields `start_secs`/`end_secs`/
    /// `duration_secs` plus numeric attributes), one `pipetune_event`
    /// point per event, one `pipetune_counter`/`pipetune_gauge` point per
    /// metric and one `pipetune_histogram` point per histogram.
    pub fn to_points(&self) -> Vec<Point> {
        let mut points = Vec::new();
        self.for_each_record(|measurement, tags, fields, timestamp_us| {
            let mut point = Point::new(measurement, timestamp_us);
            for (key, value) in tags {
                point = point.tag(*key, *value);
            }
            for (key, value) in fields {
                point = point.field(*key, *value);
            }
            points.push(point);
        });
        points
    }

    /// The snapshot in InfluxDB line protocol (one line per
    /// [`TelemetrySnapshot::to_points`] point), suitable for replay into a
    /// real InfluxDB or into the embedded [`pipetune_tsdb::Database`].
    pub fn to_line_protocol(&self) -> String {
        let mut out = String::new();
        self.for_each_record(|measurement, tags, fields, timestamp_us| {
            // Stable sorts: of several entries under one key the last one
            // recorded comes last, and only that one is written.
            tags.sort_by_key(|(key, _)| *key);
            fields.sort_by_key(|(key, _)| *key);
            push_escaped(&mut out, measurement);
            for (i, (key, value)) in tags.iter().enumerate() {
                if tags.get(i + 1).is_some_and(|(next, _)| next == key) {
                    continue;
                }
                out.push(',');
                push_escaped(&mut out, key);
                out.push('=');
                push_escaped(&mut out, value);
            }
            let mut separator = ' ';
            for (i, (key, value)) in fields.iter().enumerate() {
                if fields.get(i + 1).is_some_and(|(next, _)| next == key) {
                    continue;
                }
                out.push(separator);
                separator = ',';
                push_escaped(&mut out, key);
                out.push('=');
                decimal::push_display(&mut out, *value);
            }
            out.push(' ');
            decimal::push_u64(&mut out, timestamp_us);
            out.push('\n');
        });
        out
    }

    /// The metrics registry in Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers per family, families sorted by exposed
    /// name, histograms as cumulative `_bucket{le="…"}` series plus
    /// `_sum` / `_count`.
    ///
    /// Canonical dotted names sanitise to the Prometheus charset
    /// (`cache.hit` → `cache_hit`); the `# HELP` line keeps the canonical
    /// name so the mapping stays greppable. Like every exporter here the
    /// output is a pure function of the snapshot: byte-stable across
    /// calls and invariant under a JSON round trip (pinned by tests).
    ///
    /// ```
    /// use pipetune_telemetry::TelemetryHandle;
    ///
    /// let telemetry = TelemetryHandle::enabled();
    /// telemetry.counter_add("cache.hit", 3);
    /// let text = telemetry.snapshot().unwrap().to_prometheus();
    /// assert!(text.contains("# TYPE cache_hit counter"));
    /// assert!(text.contains("cache_hit 3"));
    /// ```
    pub fn to_prometheus(&self) -> String {
        fn exposed(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
                .collect()
        }
        // Prometheus spells float samples like Rust's shortest-round-trip
        // `Display`, except the infinities.
        fn sample(block: &mut String, v: f64) {
            if v == f64::INFINITY {
                block.push_str("+Inf");
            } else if v == f64::NEG_INFINITY {
                block.push_str("-Inf");
            } else {
                decimal::push_display(block, v);
            }
        }
        let mut families: Vec<(String, String)> = Vec::new();
        // Writing into a `String` cannot fail.
        for (name, value) in self.metrics.counters() {
            let p = exposed(name);
            let block =
                format!("# HELP {p} canonical name {name}\n# TYPE {p} counter\n{p} {value}\n");
            families.push((p, block));
        }
        for (name, value) in self.metrics.gauges() {
            let p = exposed(name);
            let mut block = format!("# HELP {p} canonical name {name}\n# TYPE {p} gauge\n{p} ");
            sample(&mut block, value);
            block.push('\n');
            families.push((p, block));
        }
        for (name, hist) in self.metrics.histograms() {
            let p = exposed(name);
            let mut block = format!("# HELP {p} canonical name {name}\n# TYPE {p} histogram\n");
            let mut cumulative = 0u64;
            for (bound, count) in hist.bounds().iter().zip(hist.counts()) {
                cumulative += count;
                let _ = write!(block, "{p}_bucket{{le=\"");
                sample(&mut block, *bound);
                let _ = writeln!(block, "\"}} {cumulative}");
            }
            let _ = writeln!(block, "{p}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = write!(block, "{p}_sum ");
            sample(&mut block, hist.sum());
            block.push('\n');
            let _ = writeln!(block, "{p}_count {}", hist.count());
            families.push((p, block));
        }
        // Stable sort: same-named families (possible only when distinct
        // canonical names sanitise to one exposed name) keep the
        // counter → gauge → histogram registry order.
        families.sort_by(|a, b| a.0.cmp(&b.0));
        families.into_iter().map(|(_, block)| block).collect()
    }

    /// The human-readable end-of-run summary: span counts per kind, then
    /// every counter, gauge and histogram in sorted order.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str("── telemetry summary ─────────────────────────────────────────\n");
        out.push_str(&format!("{:<38} {:>10} {:>10}\n", "spans", "count", ""));
        for kind in [
            crate::SpanKind::Service,
            crate::SpanKind::Job,
            crate::SpanKind::TuningRun,
            crate::SpanKind::Rung,
            crate::SpanKind::Batch,
            crate::SpanKind::Trial,
            crate::SpanKind::Epoch,
        ] {
            let n = self.spans.iter().filter(|s| s.kind == kind).count();
            if n > 0 {
                out.push_str(&format!("  {:<36} {:>10}\n", kind.name(), n));
            }
        }
        if !self.events.is_empty() {
            out.push_str(&format!("{:<38} {:>10}\n", "events", ""));
            for kind in [
                crate::EventKind::Profile,
                crate::EventKind::GtLookup,
                crate::EventKind::Probe,
                crate::EventKind::Checkpoint,
                crate::EventKind::Fault,
                crate::EventKind::Retry,
                crate::EventKind::Churn,
                crate::EventKind::Shed,
                crate::EventKind::CacheLookup,
            ] {
                let n = self.events.iter().filter(|e| e.kind == kind).count();
                if n > 0 {
                    out.push_str(&format!("  {:<36} {:>10}\n", kind.name(), n));
                }
            }
        }
        let counters: Vec<_> = self.metrics.counters().collect();
        if !counters.is_empty() {
            out.push_str(&format!("{:<38} {:>10}\n", "counters", ""));
            for (name, value) in counters {
                out.push_str(&format!("  {:<36} {:>10}\n", name, value));
            }
        }
        let gauges: Vec<_> = self.metrics.gauges().collect();
        if !gauges.is_empty() {
            out.push_str(&format!("{:<38} {:>10}\n", "gauges", ""));
            for (name, value) in gauges {
                out.push_str(&format!("  {:<36} {:>10.4}\n", name, value));
            }
        }
        let hists: Vec<_> = self.metrics.histograms().collect();
        if !hists.is_empty() {
            out.push_str(&format!(
                "{:<38} {:>8} {:>10} {:>10} {:>10}\n",
                "histograms", "count", "mean", "p90≤", "max"
            ));
            for (name, h) in hists {
                out.push_str(&format!(
                    "  {:<36} {:>8} {:>10.3} {:>10.3} {:>10.3}\n",
                    name,
                    h.count(),
                    h.mean(),
                    h.quantile_bound(0.9),
                    if h.count() > 0 { h.max() } else { 0.0 },
                ));
            }
        }
        out.push_str("──────────────────────────────────────────────────────────────\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, COUNT_BUCKETS};
    use crate::span::{EventKind, SpanKind};

    fn snapshot() -> TelemetrySnapshot {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("epochs.total", 12);
        metrics.gauge_set("gt.hit_rate", 0.5);
        metrics.observe("executor.batch_trials", COUNT_BUCKETS, 3.0);
        TelemetrySnapshot {
            spans: vec![
                Span {
                    kind: SpanKind::TuningRun,
                    label: "lenet/mnist".into(),
                    parent: None,
                    start_secs: 0.0,
                    end_secs: 100.0,
                    attrs: vec![("seed", AttrValue::U64(42))],
                },
                Span {
                    kind: SpanKind::Epoch,
                    label: "epoch 1/profile".into(),
                    parent: Some(0),
                    start_secs: 0.0,
                    end_secs: f64::NAN,
                    attrs: vec![("system", AttrValue::Str("8c/32GB".into()))],
                },
            ],
            events: vec![Event {
                kind: EventKind::GtLookup,
                span: Some(1),
                at_secs: 10.0,
                attrs: vec![("hit", AttrValue::Bool(false))],
            }],
            metrics,
        }
    }

    #[test]
    fn json_export_is_deterministic_and_handles_open_spans() {
        let snap = snapshot();
        let a = snap.to_json_string();
        let b = snap.to_json_string();
        assert_eq!(a, b);
        assert!(a.contains("\"end_secs\": null"), "open span exports null end");
        assert!(a.contains("\"tuning_run\""));
        assert!(a.contains("\"gt_lookup\""));
        assert!(a.contains("\"epochs.total\""));
    }

    #[test]
    fn tsdb_export_maps_spans_events_and_metrics() {
        let snap = snapshot();
        let points = snap.to_points();
        // 2 spans + 1 event + 1 counter + 1 gauge + 1 histogram.
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| !p.measurement().is_empty() && p.fields().next().is_some()));
        let lines = snap.to_line_protocol();
        assert_eq!(lines.lines().count(), 6);
        assert!(lines.contains("pipetune_span,kind=tuning_run"));
        assert!(lines.contains("pipetune_event,kind=gt_lookup"));
        // String attrs become tags; numeric attrs become fields.
        assert!(lines.contains("system=8c/32GB") || lines.contains("system=8c\\/32GB"));
        // Round-trips through the embedded store.
        let db = pipetune_tsdb::Database::new();
        for p in points {
            db.write(p).unwrap();
        }
    }

    #[test]
    fn json_round_trips_through_from_json_str() {
        let snap = snapshot();
        let text = snap.to_json_string();
        let parsed = TelemetrySnapshot::from_json_str(&text).unwrap();
        assert_eq!(parsed.to_json_string(), text, "export → parse → export must be identity");
        // Semantics survive too: same kinds, timestamps and metrics.
        assert_eq!(parsed.spans.len(), snap.spans.len());
        assert_eq!(parsed.spans[0].kind, SpanKind::TuningRun);
        assert!(parsed.spans[1].end_secs.is_nan(), "null end re-imports as the open sentinel");
        assert_eq!(parsed.events[0].kind, EventKind::GtLookup);
        assert_eq!(parsed.metrics.counter("epochs.total"), 12);
        assert_eq!(parsed.metrics.histogram("executor.batch_trials").unwrap().count(), 1);
    }

    #[test]
    fn from_json_str_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{}",
            r#"{"version": 2, "spans": [], "events": [], "metrics": {}}"#,
            r#"{"version": 1, "spans": [{"kind": "galaxy", "label": "x", "start_secs": 0.0}], "events": [], "metrics": {}}"#,
            r#"{"version": 1, "spans": [], "events": [], "metrics": {"counters": {"c": -1}}}"#,
        ] {
            let err = TelemetrySnapshot::from_json_str(bad).unwrap_err();
            assert!(matches!(err, crate::TraceError::Parse { .. }), "{bad} -> {err}");
        }
    }

    /// Proptest-style round-trip: randomised snapshots (span trees, weird
    /// floats, open spans, every attribute type, metrics of all three
    /// families) must re-export byte-identically after a parse.
    mod roundtrip_property {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn arbitrary_f64(rng: &mut StdRng) -> f64 {
            match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => rng.gen_range(-1.0e3..1.0e3),
                2 => rng.gen_range(0.0..1.0) / 3.0,
                // Random full-precision mantissa in [1, 2), recentred: keeps
                // the exponent fixed so the value is always finite.
                3 => {
                    f64::from_bits(
                        (rng.gen::<u64>() & 0x000F_FFFF_FFFF_FFFF) | 0x3ff0_0000_0000_0000,
                    ) - 1.5
                }
                4 => -rng.gen_range(1.0e-12..1.0e-6f64),
                _ => rng.gen_range(1.0e6..1.0e12),
            }
        }

        fn arbitrary_attrs(rng: &mut StdRng) -> Attrs {
            let keys = ["epoch", "phase", "cores", "cost", "hit", "note"];
            let n = rng.gen_range(0..4usize);
            (0..n)
                .map(|i| {
                    let value = match rng.gen_range(0..5u32) {
                        0 => AttrValue::U64(rng.gen::<u32>().into()),
                        1 => AttrValue::I64(-(i64::from(rng.gen::<u32>()))),
                        2 => AttrValue::F64(arbitrary_f64(rng)),
                        3 => AttrValue::Bool(rng.gen()),
                        _ => AttrValue::Str(format!("v{}", rng.gen_range(0..65536u32)).into()),
                    };
                    (keys[i], value)
                })
                .collect()
        }

        fn arbitrary_snapshot(seed: u64) -> TelemetrySnapshot {
            let mut rng = StdRng::seed_from_u64(seed);
            let kinds = [
                SpanKind::Service,
                SpanKind::Job,
                SpanKind::TuningRun,
                SpanKind::Rung,
                SpanKind::Batch,
                SpanKind::Trial,
                SpanKind::Epoch,
            ];
            let event_kinds = [
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
            let n_spans = rng.gen_range(0..12usize);
            let spans: Vec<Span> = (0..n_spans)
                .map(|i| {
                    let start = arbitrary_f64(&mut rng);
                    Span {
                        kind: kinds[rng.gen_range(0..kinds.len())],
                        label: format!("span {}", rng.gen_range(0..65536u32)),
                        parent: (i > 0 && rng.gen::<bool>()).then(|| rng.gen_range(0..i as u32)),
                        start_secs: start,
                        // A fifth of spans stay open.
                        end_secs: if rng.gen_range(0..5u32) == 0 {
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
                    kind: event_kinds[rng.gen_range(0..event_kinds.len())],
                    span: (!spans.is_empty() && rng.gen::<bool>())
                        .then(|| rng.gen_range(0..spans.len() as u32)),
                    at_secs: arbitrary_f64(&mut rng),
                    attrs: arbitrary_attrs(&mut rng),
                })
                .collect();
            let mut metrics = MetricsRegistry::new();
            for _ in 0..rng.gen_range(0..4u32) {
                metrics
                    .counter_add(format!("c{}", rng.gen_range(0..256u32)), rng.gen::<u32>().into());
            }
            for _ in 0..rng.gen_range(0..4u32) {
                metrics
                    .gauge_set(format!("g{}", rng.gen_range(0..256u32)), arbitrary_f64(&mut rng));
            }
            for h in 0..rng.gen_range(0..3u32) {
                let name = format!("h{h}");
                for _ in 0..rng.gen_range(0..6u32) {
                    metrics.observe(name.clone(), COUNT_BUCKETS, arbitrary_f64(&mut rng).abs());
                }
            }
            TelemetrySnapshot { spans, events, metrics }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn export_parse_export_is_byte_identical(seed in 0u64..1_000_000) {
                let snap = arbitrary_snapshot(seed);
                let text = snap.to_json_string();
                let parsed = TelemetrySnapshot::from_json_str(&text)
                    .expect("own exports always re-import");
                prop_assert_eq!(parsed.to_json_string(), text);
                // And the importer is idempotent: a second round trip stays
                // fixed. (Compare via the canonical export — open spans hold
                // `NaN` end timestamps, which `PartialEq` would reject.)
                let again = TelemetrySnapshot::from_json_str(&parsed.to_json_string()).unwrap();
                prop_assert_eq!(again.to_json_string(), text);
            }
        }
    }

    #[test]
    fn prometheus_export_is_sorted_and_round_trip_stable() {
        let snap = snapshot();
        let text = snap.to_prometheus();
        // Byte-stable across calls.
        assert_eq!(text, snap.to_prometheus());
        // …and invariant under a JSON round trip.
        let parsed = TelemetrySnapshot::from_json_str(&snap.to_json_string()).unwrap();
        assert_eq!(parsed.to_prometheus(), text);
        // Dotted canonical names sanitise; HELP keeps the original.
        assert!(text.contains("# HELP epochs_total canonical name epochs.total"));
        assert!(text.contains("# TYPE epochs_total counter"));
        assert!(text.contains("epochs_total 12"));
        assert!(text.contains("# TYPE gt_hit_rate gauge"));
        assert!(text.contains("gt_hit_rate 0.5"));
        // Histograms expose cumulative buckets plus sum/count, ending at
        // +Inf.
        assert!(text.contains("# TYPE executor_batch_trials histogram"));
        assert!(text.contains("executor_batch_trials_bucket{le=\"1\"} 0"));
        assert!(text.contains("executor_batch_trials_bucket{le=\"4\"} 1"));
        assert!(text.contains("executor_batch_trials_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("executor_batch_trials_sum 3"));
        assert!(text.contains("executor_batch_trials_count 1"));
        // Families are sorted by exposed name.
        let families: Vec<usize> = ["epochs_total", "executor_batch_trials", "gt_hit_rate"]
            .iter()
            .map(|f| text.find(&format!("# TYPE {f}")).expect(f))
            .collect();
        assert!(families.windows(2).all(|w| w[0] < w[1]), "families out of order:\n{text}");
    }

    #[test]
    fn summary_table_lists_every_section() {
        let table = snapshot().summary_table();
        for needle in [
            "spans",
            "tuning_run",
            "events",
            "gt_lookup",
            "epochs.total",
            "gt.hit_rate",
            "executor.batch_trials",
        ] {
            assert!(table.contains(needle), "summary missing {needle}:\n{table}");
        }
    }
}
