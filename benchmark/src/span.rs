//! In-memory spans recorded by the benchmark around each call into a
//! layer's public API, and the self-time arithmetic over them.
//!
//! Spans come only from the benchmark's own files (tracing inside the
//! crates is a later change). A span's *self time* is its duration minus
//! the part of that interval its child spans cover; self time summed per
//! layer is what the `*.share` metrics divide by the traced wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers a span or an estimate can belong to: one per crate whose
/// time the benchmark can tell apart, plus the harness itself. `clustering`,
/// `perfmon`, `cluster` and `energy` are only ever called from inside
/// `core` and `service`; their time stays with the caller, and the probes
/// report their unit costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    Tensor,
    Dnn,
    Data,
    Kernels,
    Search,
    Core,
    Service,
    Telemetry,
    Monitor,
    Insight,
    Tsdb,
    /// The harness: loop bookkeeping, input building, correctness checks.
    Bench,
}

impl Layer {
    /// Every layer but the harness, in ledger order: each has a `*.share`
    /// metric.
    pub const SHARED: [Layer; 11] = [
        Layer::Tensor,
        Layer::Dnn,
        Layer::Data,
        Layer::Kernels,
        Layer::Search,
        Layer::Core,
        Layer::Service,
        Layer::Telemetry,
        Layer::Monitor,
        Layer::Insight,
        Layer::Tsdb,
    ];

    /// Crate-style name used in metric names and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tensor => "tensor",
            Layer::Dnn => "dnn",
            Layer::Data => "data",
            Layer::Kernels => "kernels",
            Layer::Search => "search",
            Layer::Core => "core",
            Layer::Service => "service",
            Layer::Telemetry => "telemetry",
            Layer::Monitor => "monitor",
            Layer::Insight => "insight",
            Layer::Tsdb => "tsdb",
            Layer::Bench => "bench",
        }
    }

    /// Name of the layer's `*.share` metric.
    pub fn share_metric(self) -> &'static str {
        match self {
            Layer::Tensor => "tensor.share",
            Layer::Dnn => "dnn.share",
            Layer::Data => "data.share",
            Layer::Kernels => "kernels.share",
            Layer::Search => "search.share",
            Layer::Core => "core.share",
            Layer::Service => "service.share",
            Layer::Telemetry => "telemetry.share",
            Layer::Monitor => "monitor.share",
            Layer::Insight => "insight.share",
            Layer::Tsdb => "tsdb.share",
            Layer::Bench => unreachable!("the harness has no share metric"),
        }
    }

    /// Layers that do the payload's arithmetic; everything else is
    /// middleware (`core.middleware_share`).
    pub fn is_payload(self) -> bool {
        matches!(
            self,
            Layer::Tensor | Layer::Dnn | Layer::Data | Layer::Kernels
        )
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one operation.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; a disabled tracer only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Switches recording on or off between passes (the traced run
    /// alternates, so tracing overhead is measured within one process).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between passes");
        self.enabled = enabled;
    }

    /// Starts a new operation: following spans carry the new identifier.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a leaf span: one call into a layer's public API.
    pub fn call<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(layer, name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: duration minus the time its direct children
/// cover. Children of one parent never overlap (one thread, strict
/// nesting), so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time summed per layer, seconds.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The harness span with the largest self time — the place to add a span
/// when too little of the wall time is attributed to a layer.
pub fn largest_unattributed(spans: &[Span]) -> Option<(&'static str, f64)> {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        if span.layer == Layer::Bench {
            *by_name.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
    }
    by_name
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

/// Serialises spans as the `spans` array of the trace file.
pub fn spans_to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.op,
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(Layer::Bench, "pass", 0, 1000, None),
            span(Layer::Core, "run", 100, 600, Some(0)),
            span(Layer::Dnn, "epoch", 200, 500, Some(1)),
            span(Layer::Tsdb, "import", 700, 900, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![300, 200, 300, 200]);
        let by_layer = self_secs_by_layer(&spans);
        assert!((by_layer[&Layer::Bench] - 300e-9).abs() < 1e-15);
        assert!((by_layer[&Layer::Core] - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn layer_self_times_sum_to_the_root_duration() {
        let spans = vec![
            span(Layer::Bench, "pass", 0, 1000, None),
            span(Layer::Core, "a", 0, 400, Some(0)),
            span(Layer::Dnn, "b", 10, 390, Some(1)),
            span(Layer::Core, "c", 400, 1000, Some(0)),
        ];
        let total: f64 = self_secs_by_layer(&spans).values().sum();
        assert!((total - 1000e-9).abs() < 1e-15, "{total}");
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_op();
        let v = t.span(Layer::Bench, "outer", |t| {
            t.call(Layer::Core, "inner", || 41) + 1
        });
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].op, 1);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.call(Layer::Core, "x", || 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn largest_unattributed_names_the_harness_span() {
        let spans = vec![
            span(Layer::Bench, "pass", 0, 1000, None),
            span(Layer::Bench, "build_inputs", 0, 600, Some(0)),
            span(Layer::Core, "run", 600, 900, Some(0)),
        ];
        let (name, secs) = largest_unattributed(&spans).unwrap();
        assert_eq!(name, "build_inputs");
        assert!((secs - 600e-9).abs() < 1e-15);
    }

    #[test]
    fn span_json_has_one_object_per_span() {
        let spans = vec![
            span(Layer::Bench, "pass", 0, 10, None),
            span(Layer::Core, "r", 1, 9, Some(0)),
        ];
        let text = spans_to_json(&spans);
        assert_eq!(text.matches("\"id\":").count(), 2);
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
    }
}
