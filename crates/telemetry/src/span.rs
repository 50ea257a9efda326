//! The trace vocabulary: spans, events and their attributes.
//!
//! Spans form the hierarchy `tuning_run > rung > batch > trial > epoch`,
//! optionally rooted under a multi-job `service > job` prefix when a
//! `pipetune-service` driver runs many tuning jobs on one shared cluster;
//! events (`probe`, `gt_lookup`, `checkpoint`, `fault`,
//! `retry`, `profile`) hang off a span. All timestamps are **simulated**
//! seconds — never wall clock — so a trace is a pure function of the run's
//! seed and configuration, byte-identical for every executor worker count.

use std::borrow::Cow;

/// The levels of the span hierarchy.
///
/// Spans at [`SpanKind::Service`] and [`SpanKind::Job`] level carry
/// timestamps on the service's arrival clock (the shared simulated
/// timeline jobs arrive and complete on); spans at
/// [`SpanKind::TuningRun`], [`SpanKind::Rung`] and
/// [`SpanKind::Batch`] level carry timestamps on the run's shared
/// simulated wall clock (the one `TuningOutcome::tuning_secs` is measured
/// on, restarting at zero for each run); spans at [`SpanKind::Trial`] and
/// [`SpanKind::Epoch`] level carry timestamps on the *trial-cumulative*
/// clock (the trial's own simulated seconds,
/// `TrialExecution::duration_secs`). The `clock` attribute on every span
/// names which timeline applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A multi-job tuning service run: the root of a shared-cluster trace
    /// (see `docs/multitenancy.md`).
    Service,
    /// One submitted job inside a service run, from arrival to completion
    /// on the service's arrival clock.
    Job,
    /// One whole HPT job (PipeTune or a baseline).
    TuningRun,
    /// One scheduler round (a HyperBand rung issues one or more of these).
    Rung,
    /// The batch of trial requests executed concurrently within a rung.
    Batch,
    /// One trial request: a trial's epochs for one scheduler round.
    Trial,
    /// One training epoch inside a trial.
    Epoch,
}

impl SpanKind {
    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Service => "service",
            SpanKind::Job => "job",
            SpanKind::TuningRun => "tuning_run",
            SpanKind::Rung => "rung",
            SpanKind::Batch => "batch",
            SpanKind::Trial => "trial",
            SpanKind::Epoch => "epoch",
        }
    }

    /// Inverse of [`SpanKind::name`] (trace re-import).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "service" => Some(SpanKind::Service),
            "job" => Some(SpanKind::Job),
            "tuning_run" => Some(SpanKind::TuningRun),
            "rung" => Some(SpanKind::Rung),
            "batch" => Some(SpanKind::Batch),
            "trial" => Some(SpanKind::Trial),
            "epoch" => Some(SpanKind::Epoch),
            _ => None,
        }
    }
}

/// Point events recorded against a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A probe epoch measured one candidate system configuration.
    Probe,
    /// The ground truth was consulted with first-epoch profile features
    /// (attribute `hit` tells whether a known configuration was reused).
    GtLookup,
    /// An epoch-boundary trial checkpoint was taken (crash recovery).
    Checkpoint,
    /// A fault was injected (attribute `fault` names the kind).
    Fault,
    /// A crashed epoch attempt was rolled back and retried.
    Retry,
    /// A first-epoch hardware-counter profile was collected.
    Profile,
    /// A node left or rejoined the service's shared slot pool (attribute
    /// `churn` names the direction; recorded on the service span).
    Churn,
    /// A job was shed for exceeding its deadline (recorded on the job
    /// span).
    Shed,
    /// The epoch-reuse cache was consulted for a fresh trial (attribute
    /// `hit` tells whether a cached prefix was adopted; on a hit,
    /// `epochs` carries the adopted depth and `saved_secs` the simulated
    /// epoch time the reuse avoided).
    CacheLookup,
}

impl EventKind {
    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Probe => "probe",
            EventKind::GtLookup => "gt_lookup",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Profile => "profile",
            EventKind::Churn => "churn",
            EventKind::Shed => "shed",
            EventKind::CacheLookup => "cache_lookup",
        }
    }

    /// Inverse of [`EventKind::name`] (trace re-import).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "probe" => Some(EventKind::Probe),
            "gt_lookup" => Some(EventKind::GtLookup),
            "checkpoint" => Some(EventKind::Checkpoint),
            "fault" => Some(EventKind::Fault),
            "retry" => Some(EventKind::Retry),
            "profile" => Some(EventKind::Profile),
            "churn" => Some(EventKind::Churn),
            "shed" => Some(EventKind::Shed),
            "cache_lookup" => Some(EventKind::CacheLookup),
            _ => None,
        }
    }
}

/// An attribute value. Kept as a closed enum (rather than JSON values) so
/// exports stay deterministic and the tsdb exporter can map numerics to
/// fields and strings to tags.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (serialised from the exact bit pattern, so traces of
    /// bit-identical runs are byte-identical).
    F64(f64),
    /// String: borrowed for the static tags instrumentation sites record
    /// (phase, policy and fault names), owned for generated text and for
    /// everything a trace import reads.
    Str(Cow<'static, str>),
    /// Boolean.
    Bool(bool),
}

impl AttrValue {
    /// The value as an `f64` field, if numeric (tsdb export).
    pub fn as_field(&self) -> Option<f64> {
        match self {
            AttrValue::U64(v) => Some(*v as f64),
            AttrValue::I64(v) => Some(*v as f64),
            AttrValue::F64(v) => Some(*v),
            AttrValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            AttrValue::Str(_) => None,
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<f32> for AttrValue {
    fn from(v: f32) -> Self {
        AttrValue::F64(f64::from(v))
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(Cow::Borrowed(v))
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(Cow::Owned(v))
    }
}

/// Attribute list. Insertion order is preserved and deterministic (exports
/// sort by key, so equal attribute *sets* export identically regardless of
/// insertion order).
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// The value of `key` in an attribute list (first occurrence wins).
fn attr<'a>(attrs: &'a [(&'static str, AttrValue)], key: &str) -> Option<&'a AttrValue> {
    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// The attribute `key`, if it is there and a string.
pub fn attr_str<'a>(attrs: &'a [(&'static str, AttrValue)], key: &str) -> Option<&'a str> {
    match attr(attrs, key)? {
        AttrValue::Str(s) => Some(s),
        _ => None,
    }
}

/// The attribute `key` as a field ([`AttrValue::as_field`]), if it is there
/// and numeric.
pub fn attr_f64(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<f64> {
    attr(attrs, key)?.as_field()
}

/// The attribute `key`, if it is there and a boolean.
pub fn attr_bool(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<bool> {
    match attr(attrs, key)? {
        AttrValue::Bool(b) => Some(*b),
        _ => None,
    }
}

/// The attribute `key`, if it is there and a non-negative integer.
pub fn attr_u64(attrs: &[(&'static str, AttrValue)], key: &str) -> Option<u64> {
    match attr(attrs, key)? {
        AttrValue::U64(v) => Some(*v),
        AttrValue::I64(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// A completed (or still open) span in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Human label (workload name, `trial 7`, `epoch 3/probe`, ...).
    pub label: String,
    /// Index of the parent span within the same trace, if any.
    pub parent: Option<u32>,
    /// Start timestamp, simulated seconds (see [`SpanKind`] for which
    /// clock).
    pub start_secs: f64,
    /// End timestamp, simulated seconds; `NaN` while the span is open
    /// (exported as `null`).
    pub end_secs: f64,
    /// Key/value attributes.
    pub attrs: Attrs,
}

/// An epoch span's fixed keys as a typed row: what a trial records for
/// every epoch it commits, with no label and no attribute list of its own.
///
/// The span's label, `epoch <epoch> (<phase>)`, and its seven attributes
/// are derived only where a reader asks for them ([`SpanView`]) — when a
/// snapshot is taken, or when a monitor names the span in an alert. Its
/// start is `end_secs − duration_secs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// 1-based epoch index within the trial.
    pub epoch: u32,
    /// The pipeline phase's name (`profile`, `probe`, `cached`, ...).
    pub phase: &'static str,
    /// CPU cores the epoch ran with.
    pub cores: u32,
    /// Memory the epoch ran with, GiB.
    pub memory_gb: u32,
    /// CPU frequency the epoch ran at, MHz.
    pub freq_mhz: u32,
    /// Energy attributed to the trial, joules.
    pub energy_j: f64,
    /// Training score after the epoch.
    pub train_score: f32,
    /// Simulated seconds the epoch took.
    pub duration_secs: f64,
    /// When the epoch ended, on the trial-cumulative clock.
    pub end_secs: f64,
}

impl EpochRow {
    /// The span's label, `epoch <n> (<phase>)`.
    fn label(&self) -> String {
        let mut label = String::with_capacity(16 + self.phase.len());
        label.push_str("epoch ");
        crate::decimal::push_u64(&mut label, self.epoch.into());
        label.push_str(" (");
        label.push_str(self.phase);
        label.push(')');
        label
    }

    /// The span's attributes, keys in the order an export writes them.
    fn attrs(&self) -> Attrs {
        vec![
            ("cores", self.cores.into()),
            ("energy_j", self.energy_j.into()),
            ("epoch", self.epoch.into()),
            ("freq_mhz", self.freq_mhz.into()),
            ("memory_gb", self.memory_gb.into()),
            ("phase", self.phase.into()),
            ("train_score", self.train_score.into()),
        ]
    }
}

/// A span as a live trace holds it (what [`crate::TelemetryHandle::visit`]
/// hands out): its kind and parent, and either the label, interval and
/// attribute list it was opened with or an epoch's [`EpochRow`]. Read it
/// through [`SpanView`]; a snapshot turns each into a [`Span`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Hierarchy level.
    pub kind: SpanKind,
    parent: Option<u32>,
    body: Body,
}

#[derive(Debug, Clone, PartialEq)]
enum Body {
    Open { label: String, start_secs: f64, end_secs: f64, attrs: Attrs },
    Epoch(EpochRow),
}

impl SpanRecord {
    /// An epoch span under `parent`.
    pub(crate) fn epoch(parent: Option<u32>, row: EpochRow) -> Self {
        SpanRecord { kind: SpanKind::Epoch, parent, body: Body::Epoch(row) }
    }

    /// `span` as a record, under `parent`.
    pub(crate) fn open(span: Span, parent: Option<u32>) -> Self {
        let Span { kind, label, start_secs, end_secs, attrs, .. } = span;
        SpanRecord { kind, parent, body: Body::Open { label, start_secs, end_secs, attrs } }
    }

    /// Closes the span at `end_secs` (an epoch row is recorded closed).
    pub(crate) fn close(&mut self, at: f64) {
        if let Body::Open { end_secs, .. } = &mut self.body {
            *end_secs = at;
        }
    }

    /// The span as a snapshot holds it.
    pub(crate) fn to_span(&self) -> Span {
        Span {
            kind: self.kind,
            label: self.label().into_owned(),
            parent: self.parent,
            start_secs: self.start_secs(),
            end_secs: self.end_secs(),
            attrs: self.attrs().into_owned(),
        }
    }
}

/// Reads a span whichever way it is held — a [`Span`] from a snapshot or an
/// import, a [`SpanRecord`] from a live sink — so one reader serves a live
/// scan and an offline replay alike.
pub trait SpanView {
    /// Hierarchy level.
    fn kind(&self) -> SpanKind;
    /// Index of the parent span within the same trace, if any.
    fn parent(&self) -> Option<u32>;
    /// Start timestamp, simulated seconds.
    fn start_secs(&self) -> f64;
    /// End timestamp, simulated seconds; `NaN` while the span is open.
    fn end_secs(&self) -> f64;
    /// Human label; an epoch row's is built on the call.
    fn label(&self) -> Cow<'_, str>;
    /// Key/value attributes; an epoch row's are built on the call, keys
    /// sorted.
    fn attrs(&self) -> Cow<'_, [(&'static str, AttrValue)]>;
}

impl SpanView for Span {
    fn kind(&self) -> SpanKind {
        self.kind
    }
    fn parent(&self) -> Option<u32> {
        self.parent
    }
    fn start_secs(&self) -> f64 {
        self.start_secs
    }
    fn end_secs(&self) -> f64 {
        self.end_secs
    }
    fn label(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.label)
    }
    fn attrs(&self) -> Cow<'_, [(&'static str, AttrValue)]> {
        Cow::Borrowed(&self.attrs)
    }
}

impl SpanView for SpanRecord {
    fn kind(&self) -> SpanKind {
        self.kind
    }
    fn parent(&self) -> Option<u32> {
        self.parent
    }
    fn start_secs(&self) -> f64 {
        match &self.body {
            Body::Open { start_secs, .. } => *start_secs,
            Body::Epoch(row) => row.end_secs - row.duration_secs,
        }
    }
    fn end_secs(&self) -> f64 {
        match &self.body {
            Body::Open { end_secs, .. } => *end_secs,
            Body::Epoch(row) => row.end_secs,
        }
    }
    fn label(&self) -> Cow<'_, str> {
        match &self.body {
            Body::Open { label, .. } => Cow::Borrowed(label),
            Body::Epoch(row) => Cow::Owned(row.label()),
        }
    }
    fn attrs(&self) -> Cow<'_, [(&'static str, AttrValue)]> {
        match &self.body {
            Body::Open { attrs, .. } => Cow::Borrowed(attrs),
            Body::Epoch(row) => Cow::Owned(row.attrs()),
        }
    }
}

/// A point event in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event class.
    pub kind: EventKind,
    /// Index of the span the event belongs to, if any.
    pub span: Option<u32>,
    /// Timestamp, simulated seconds (same clock as the owning span).
    pub at_secs: f64,
    /// Key/value attributes.
    pub attrs: Attrs,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(SpanKind::Service.name(), "service");
        assert_eq!(SpanKind::Job.name(), "job");
        assert_eq!(SpanKind::TuningRun.name(), "tuning_run");
        assert_eq!(SpanKind::Epoch.name(), "epoch");
        assert_eq!(SpanKind::from_name("job"), Some(SpanKind::Job));
        assert_eq!(SpanKind::from_name("service"), Some(SpanKind::Service));
        assert_eq!(EventKind::GtLookup.name(), "gt_lookup");
        assert_eq!(EventKind::Retry.name(), "retry");
        assert_eq!(EventKind::Churn.name(), "churn");
        assert_eq!(EventKind::Shed.name(), "shed");
        assert_eq!(EventKind::from_name("churn"), Some(EventKind::Churn));
        assert_eq!(EventKind::from_name("shed"), Some(EventKind::Shed));
        assert_eq!(EventKind::CacheLookup.name(), "cache_lookup");
        assert_eq!(EventKind::from_name("cache_lookup"), Some(EventKind::CacheLookup));
        assert_eq!(EventKind::from_name("alert"), None);
    }

    #[test]
    fn numeric_attrs_become_fields_strings_do_not() {
        assert_eq!(AttrValue::from(2u64).as_field(), Some(2.0));
        assert_eq!(AttrValue::from(false).as_field(), Some(0.0));
        assert_eq!(AttrValue::from("tag").as_field(), None);
    }

    fn row(epoch: u32, phase: &'static str) -> EpochRow {
        EpochRow {
            epoch,
            phase,
            cores: 16,
            memory_gb: 32,
            freq_mhz: 2600,
            energy_j: 1234.5,
            train_score: 0.75,
            duration_secs: 0.3,
            end_secs: 10.1,
        }
    }

    #[test]
    fn an_epoch_row_reads_as_the_span_it_replaced() {
        for phase in ["profile", "tuned", "cached"] {
            for epoch in [0, 1, 27, 81, 1000, u32::MAX] {
                let record = SpanRecord::epoch(Some(3), row(epoch, phase));
                assert_eq!(record.label(), format!("epoch {epoch} ({phase})"));
                let recorded: Attrs = vec![
                    ("epoch", epoch.into()),
                    ("phase", phase.into()),
                    ("cores", 16u32.into()),
                    ("memory_gb", 32u32.into()),
                    ("freq_mhz", 2600u32.into()),
                    ("energy_j", 1234.5f64.into()),
                    ("train_score", 0.75f32.into()),
                ];
                let mut sorted = recorded.clone();
                sorted.sort_by_key(|(key, _)| *key);
                assert_eq!(record.attrs(), sorted, "the export's key order");
                let span = record.to_span();
                assert_eq!((span.kind, span.parent), (SpanKind::Epoch, Some(3)));
                assert_eq!((span.start_secs, span.end_secs), (10.1 - 0.3, 10.1));
                assert_eq!(attr_f64(&span.attrs, "train_score"), Some(f64::from(0.75f32)));
            }
        }
    }

    #[test]
    fn both_forms_read_alike_through_span_view() {
        let open = Span {
            kind: SpanKind::Trial,
            label: "trial 4".into(),
            parent: None,
            start_secs: 1.0,
            end_secs: f64::NAN,
            attrs: vec![("trial", 4u64.into())],
        };
        let mut record = SpanRecord::open(open.clone(), Some(2));
        assert_eq!(
            (record.parent(), record.label(), record.attrs()),
            (Some(2), open.label(), open.attrs())
        );
        assert!(record.end_secs().is_nan());
        record.close(5.0);
        assert_eq!((record.start_secs(), record.end_secs()), (1.0, 5.0));
        let mut epoch = SpanRecord::epoch(None, row(2, "probe"));
        epoch.close(99.0);
        assert_eq!(epoch.end_secs(), 10.1, "an epoch row is recorded closed");
    }

    #[test]
    fn typed_reads_find_the_first_occurrence_of_the_right_type() {
        let attrs: Attrs = vec![
            ("n", 7u64.into()),
            ("n", 9u64.into()),
            ("i", (-1i64).into()),
            ("ok", true.into()),
        ];
        assert_eq!((attr_u64(&attrs, "n"), attr_f64(&attrs, "n")), (Some(7), Some(7.0)));
        assert_eq!((attr_u64(&attrs, "i"), attr_f64(&attrs, "i")), (None, Some(-1.0)));
        assert_eq!((attr_bool(&attrs, "ok"), attr_f64(&attrs, "ok")), (Some(true), Some(1.0)));
        assert_eq!((attr_str(&attrs, "ok"), attr_bool(&attrs, "n")), (None, None));
        assert_eq!(attr_str(&[("tag", "x".into())], "tag"), Some("x"));
        assert_eq!(attr_f64(&attrs, "absent"), None);
    }
}
