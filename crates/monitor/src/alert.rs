//! Typed [`Alert`] records and the deterministic [`IncidentTimeline`]
//! they collect into.

use std::collections::BTreeMap;

use pipetune_telemetry::{AttrValue, Attrs};
use serde_json::Value;

/// How bad a detector firing is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a line in the report, nothing is on fire.
    Info,
    /// Degradation that will cost time or budget if it persists.
    Warning,
    /// An SLO is burning or work is being lost right now.
    Critical,
}

impl Severity {
    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One detector firing: what fired, where in the span tree, when on the
/// simulated clock, and the windowed evidence that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Canonical detector name (`stall`, `crash_loop`, `slo_burn`,
    /// `cache_thrash`, `queue_growth`).
    pub detector: &'static str,
    /// Firing severity.
    pub severity: Severity,
    /// Human-readable path of the source span, root-first
    /// (`"svc fifo > job 3: vgg/cifar"`); empty for trace-global alerts.
    pub source: String,
    /// Index of the source span in the trace, if the alert anchors to one.
    pub span: Option<u32>,
    /// Simulated timestamp, on the source span's clock domain.
    pub at_secs: f64,
    /// One-line description of the firing.
    pub message: String,
    /// Windowed evidence (window sizes, rates, counts) — exported with
    /// the alert.
    pub evidence: Attrs,
}

impl Alert {
    /// The deterministic ordering key: simulated time first, then
    /// detector name, then source span, then message — a total order over
    /// any alert set the detectors can produce, so the timeline never
    /// depends on detector iteration order or window sizes.
    fn sort_key(&self) -> (u64, &'static str, u32, &str) {
        // total_cmp order via the sign-folded bit pattern, so NaN/inf
        // timestamps (never produced, but cheap to be total about) still
        // sort deterministically.
        let bits = self.at_secs.to_bits();
        let folded = if bits >> 63 == 1 { !bits } else { bits | (1 << 63) };
        (folded, self.detector, self.span.map_or(u32::MAX, |s| s), &self.message)
    }

    fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("at_secs".into(), Value::F64(self.at_secs));
        obj.insert("detector".into(), Value::String(self.detector.into()));
        let mut evidence = serde_json::Map::new();
        for (key, value) in &self.evidence {
            evidence.insert((*key).to_string(), attr_json(value));
        }
        obj.insert("evidence".into(), Value::Object(evidence));
        obj.insert("message".into(), Value::String(self.message.clone()));
        obj.insert("severity".into(), Value::String(self.severity.name().into()));
        obj.insert("source".into(), Value::String(self.source.clone()));
        obj.insert("span".into(), self.span.map_or(Value::Null, |s| Value::U64(u64::from(s))));
        Value::Object(obj)
    }
}

/// One evidence value as JSON.
fn attr_json(value: &AttrValue) -> Value {
    match value {
        AttrValue::U64(v) => Value::U64(*v),
        AttrValue::I64(v) => Value::I64(*v),
        AttrValue::F64(v) => Value::F64(*v),
        AttrValue::Str(s) => Value::String(s.to_string()),
        AttrValue::Bool(b) => Value::Bool(*b),
    }
}

/// The sorted, deterministic record of every detector firing in a run.
///
/// Alerts are ordered by `(at_secs, detector, span, message)` — a total
/// order independent of detector registration order and window
/// configuration, which `monitor_determinism`'s
/// `timelines_byte_identical_across_worker_counts` and
/// `offline_replay_equals_live_scans` pin. The JSON export uses sorted keys
/// throughout, so byte-identical runs produce byte-identical timelines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncidentTimeline {
    /// All alerts, in the canonical order.
    pub alerts: Vec<Alert>,
}

impl IncidentTimeline {
    /// Builds a timeline from raw firings, establishing the canonical
    /// order.
    pub fn from_alerts(mut alerts: Vec<Alert>) -> Self {
        alerts.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        IncidentTimeline { alerts }
    }

    /// Whether no detector fired.
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Number of alerts.
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// Alert counts per detector, sorted by detector name.
    fn counts_by_detector(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for alert in &self.alerts {
            *counts.entry(alert.detector).or_insert(0) += 1;
        }
        counts
    }

    /// Alerts fired by one detector.
    pub fn count_for(&self, detector: &str) -> u64 {
        self.alerts.iter().filter(|a| a.detector == detector).count() as u64
    }

    /// The timeline as one JSON value with sorted object keys.
    fn to_json(&self) -> Value {
        let mut obj = serde_json::Map::new();
        obj.insert("alerts".into(), Value::Array(self.alerts.iter().map(Alert::to_json).collect()));
        let mut counts = serde_json::Map::new();
        for (detector, n) in self.counts_by_detector() {
            counts.insert(detector.to_string(), Value::U64(n));
        }
        obj.insert("counts".into(), Value::Object(counts));
        obj.insert("version".into(), Value::U64(1));
        Value::Object(obj)
    }

    /// The timeline as a pretty-printed JSON string (the incident
    /// artefact format, uploaded by CI on chaos-gate failure).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json())
            .expect("incident timeline serialises infallibly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(detector: &'static str, at: f64, span: Option<u32>) -> Alert {
        Alert {
            detector,
            severity: Severity::Warning,
            source: "run > trial".into(),
            span,
            at_secs: at,
            message: format!("{detector} fired"),
            evidence: vec![("window", AttrValue::U64(8))],
        }
    }

    #[test]
    fn timeline_orders_by_time_then_detector_then_span() {
        let t = IncidentTimeline::from_alerts(vec![
            alert("stall", 5.0, Some(2)),
            alert("crash_loop", 5.0, Some(1)),
            alert("stall", 1.0, None),
            alert("stall", 5.0, Some(1)),
        ]);
        let keys: Vec<(f64, &str, Option<u32>)> =
            t.alerts.iter().map(|a| (a.at_secs, a.detector, a.span)).collect();
        assert_eq!(
            keys,
            vec![
                (1.0, "stall", None),
                (5.0, "crash_loop", Some(1)),
                (5.0, "stall", Some(1)),
                (5.0, "stall", Some(2)),
            ]
        );
        assert_eq!(t.count_for("stall"), 3);
        assert_eq!(t.counts_by_detector().get("crash_loop"), Some(&1));
    }

    #[test]
    fn json_export_is_sorted_and_stable() {
        let mut a = alert("stall", 2.0, Some(0));
        a.evidence = vec![
            ("u", AttrValue::U64(7)),
            ("i", AttrValue::I64(-3)),
            ("f", AttrValue::F64(0.25)),
            ("s", AttrValue::from("slow")),
            ("b", AttrValue::Bool(true)),
            ("nan", AttrValue::F64(f64::NAN)),
        ];
        let text = IncidentTimeline::from_alerts(vec![a]).to_json_string();
        // Keys sort; the NaN exports as null.
        let expected = r#"{
  "alerts": [
    {
      "at_secs": 2.0,
      "detector": "stall",
      "evidence": {
        "b": true,
        "f": 0.25,
        "i": -3,
        "nan": null,
        "s": "slow",
        "u": 7
      },
      "message": "stall fired",
      "severity": "warning",
      "source": "run > trial",
      "span": 0
    }
  ],
  "counts": {
    "stall": 1
  },
  "version": 1
}"#;
        assert_eq!(text, expected);
    }
}
