//! The `Point` `pipetune_tsdb` had before a point became one buffer — a
//! `String` and two B-trees, its serde derived — with the line-protocol
//! codec that went with it. Kept verbatim (the type renamed, the codec's
//! methods made free functions of the same bodies) as the oracle for what a
//! point equals, prints, persists as and parses from.
//!
//! A module of its own so that `tests/persist_hostile.rs` at the workspace
//! root can hold its mutants to it too (`#[path]`).

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pipetune_tsdb::TsdbError;
use serde::{Deserialize, Serialize};

/// One tagged, timestamped record (Influx line-protocol semantics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenPoint {
    measurement: String,
    /// Sorted tag map — deterministic iteration for tests and persistence.
    tags: BTreeMap<String, String>,
    fields: BTreeMap<String, f64>,
    /// Microseconds of simulated time.
    timestamp_us: u64,
}

impl FrozenPoint {
    /// Starts a point for `measurement` at `timestamp_us` (simulated µs).
    pub fn new(measurement: impl Into<String>, timestamp_us: u64) -> Self {
        FrozenPoint {
            measurement: measurement.into(),
            tags: BTreeMap::new(),
            fields: BTreeMap::new(),
            timestamp_us,
        }
    }

    /// Adds/replaces a tag.
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// Adds/replaces a numeric field.
    pub fn field(mut self, key: impl Into<String>, value: f64) -> Self {
        self.fields.insert(key.into(), value);
        self
    }

    /// Adds a whole vector as numbered fields (`prefix_0`, `prefix_1`, …),
    /// used for 58-element profile vectors.
    pub fn field_vec(mut self, prefix: &str, values: &[f64]) -> Self {
        for (i, &v) in values.iter().enumerate() {
            self.fields.insert(format!("{prefix}_{i}"), v);
        }
        self
    }

    /// The measurement name.
    pub fn measurement(&self) -> &str {
        &self.measurement
    }

    /// Tag value for `key`.
    pub fn tag_value(&self, key: &str) -> Option<&str> {
        self.tags.get(key).map(String::as_str)
    }

    /// Field value for `key`.
    pub fn field_value(&self, key: &str) -> Option<f64> {
        self.fields.get(key).copied()
    }

    /// Reassembles a numbered field vector written by [`FrozenPoint::field_vec`].
    /// Stops at the first missing index.
    pub fn field_vec_values(&self, prefix: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0.. {
            match self.fields.get(&format!("{prefix}_{i}")) {
                Some(&v) => out.push(v),
                None => break,
            }
        }
        out
    }

    /// All tags.
    pub fn tags(&self) -> &BTreeMap<String, String> {
        &self.tags
    }

    /// All fields.
    pub fn fields(&self) -> &BTreeMap<String, f64> {
        &self.fields
    }

    /// Timestamp in simulated microseconds.
    pub fn timestamp_us(&self) -> u64 {
        self.timestamp_us
    }

    /// Returns `true` when the point can be stored (non-empty measurement
    /// and at least one field).
    pub fn is_storable(&self) -> bool {
        !self.measurement.is_empty() && !self.fields.is_empty()
    }
}

/// Appends `s` with `\`, `,`, space and `=` backslash-escaped.
fn push_escaped(out: &mut String, s: &str) {
    // The escaped bytes are ASCII, so the runs between them are whole
    // characters.
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

/// Drops the backslash of every `\x` pair (and a trailing lone backslash).
fn unescape(s: &str) -> String {
    if !s.contains('\\') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(n) = chars.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The slices of `s` between unescaped `sep` bytes: a backslash keeps the
/// character after it (separator or not) inside the current slice, and the
/// slices keep their escapes. Always yields at least one slice.
fn split_unescaped(s: &str, sep: u8) -> impl Iterator<Item = &str> {
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let mut i = start;
        while i < bytes.len() {
            match bytes[i] {
                // Skipping one byte is enough: the continuation bytes of a
                // multi-byte character are neither `\` nor a separator.
                b'\\' => i += 2,
                b if b == sep => {
                    let part = &s[start..i];
                    start = i + 1;
                    return Some(part);
                }
                _ => i += 1,
            }
        }
        done = true;
        Some(&s[start..])
    })
}

/// Splits `s` at its single unescaped `=`.
fn key_value(s: &str) -> Option<(&str, &str)> {
    let mut parts = split_unescaped(s, b'=');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(key), Some(value), None) => Some((key, value)),
        _ => None,
    }
}

/// Appends the point's line of Influx line protocol (no line terminator)
/// to `out`.
pub fn write_line_protocol(point: &FrozenPoint, out: &mut String) {
    push_escaped(out, point.measurement());
    for (k, v) in point.tags() {
        out.push(',');
        push_escaped(out, k);
        out.push('=');
        push_escaped(out, v);
    }
    out.push(' ');
    for (i, (k, v)) in point.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(out, k);
        // Writing into a `String` cannot fail.
        let _ = write!(out, "={v}");
    }
    let _ = write!(out, " {}", point.timestamp_us());
}

/// Parses one line of Influx line protocol.
pub fn from_line_protocol(line: &str) -> Result<FrozenPoint, TsdbError> {
    let corrupt = |reason: &str| TsdbError::Corrupt { reason: reason.to_string() };
    let mut segments = split_unescaped(line.trim(), b' ');
    let (head, field_seg, ts_seg) =
        match (segments.next(), segments.next(), segments.next(), segments.next()) {
            (Some(head), Some(fields), ts, None) => (head, fields, ts),
            _ => return Err(corrupt("expected 'measurement[,tags] fields [timestamp]'")),
        };
    let timestamp = match ts_seg {
        Some(t) => t.parse::<u64>().map_err(|_| corrupt("bad timestamp"))?,
        None => 0,
    };
    let mut head_parts = split_unescaped(head, b',');
    let measurement = unescape(head_parts.next().unwrap_or_default());
    if measurement.is_empty() {
        return Err(corrupt("empty measurement"));
    }
    let mut point = FrozenPoint::new(measurement, timestamp);
    for tag in head_parts {
        let (key, value) = key_value(tag).ok_or_else(|| corrupt("malformed tag"))?;
        point = point.tag(unescape(key), unescape(value));
    }
    if field_seg.is_empty() {
        return Err(corrupt("no fields"));
    }
    for field in split_unescaped(field_seg, b',') {
        let (key, value) = key_value(field).ok_or_else(|| corrupt("malformed field"))?;
        // Accept Influx's integer suffix `i` as well as plain floats.
        let raw = value.strip_suffix('i').unwrap_or(value);
        let value: f64 = raw.parse().map_err(|_| corrupt("non-numeric field value"))?;
        point = point.field(unescape(key), value);
    }
    Ok(point)
}

/// What a point of either type holds, floats by bit pattern so that NaN
/// fields compare: measurement, tags and fields in key order, timestamp.
pub type Contents = (String, Vec<(String, String)>, Vec<(String, u64)>, u64);

/// The [`Contents`] of a frozen point.
pub fn frozen_contents(point: &FrozenPoint) -> Contents {
    (
        point.measurement().to_string(),
        point.tags().iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        point.fields().iter().map(|(k, v)| (k.clone(), v.to_bits())).collect(),
        point.timestamp_us(),
    )
}

/// The [`Contents`] of a live point.
pub fn contents(point: &pipetune_tsdb::Point) -> Contents {
    (
        point.measurement().to_string(),
        point.tags().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        point.fields().map(|(k, v)| (k.to_string(), v.to_bits())).collect(),
        point.timestamp_us(),
    )
}

/// Holds the live decoder to the frozen one on `line`: the same contents,
/// or both a typed complaint with the same reason.
pub fn assert_line_decodes_alike(line: &str) -> bool {
    let live = pipetune_tsdb::Point::from_line_protocol(line);
    let frozen = from_line_protocol(line);
    match (&live, &frozen) {
        (Ok(live), Ok(frozen)) => {
            assert_eq!(contents(live), frozen_contents(frozen), "decoders disagree on {line:?}");
            true
        }
        (Err(live), Err(frozen)) => {
            assert_eq!(live.to_string(), frozen.to_string(), "complaints differ on {line:?}");
            false
        }
        _ => panic!("decoders disagree on {line:?}: {live:?} vs {frozen:?}"),
    }
}

/// Holds the live `Deserialize` to the derived one on a `Database::save`
/// document: the same points, or both an error.
pub fn assert_document_reads_alike(json: &str) -> bool {
    let live = serde_json::from_str::<Vec<pipetune_tsdb::Point>>(json);
    let frozen = serde_json::from_str::<Vec<FrozenPoint>>(json);
    match (&live, &frozen) {
        (Ok(live), Ok(frozen)) => {
            let live: Vec<Contents> = live.iter().map(contents).collect();
            let frozen: Vec<Contents> = frozen.iter().map(frozen_contents).collect();
            assert_eq!(live, frozen, "readers disagree on {json:?}");
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!("readers disagree on {json:?}: {:?} vs {:?}", live.is_ok(), frozen.is_ok()),
    }
}
