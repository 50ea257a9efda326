//! InfluxDB line-protocol encoding/decoding.
//!
//! The paper's prototype talks to a real InfluxDB over its client API; this
//! gives the embedded store the same wire format so traces can be exported
//! to (or imported from) an actual InfluxDB instance:
//!
//! ```text
//! measurement,tag1=a,tag2=b field1=1.5,field2=2 1625000000000
//! ```
//!
//! Both directions are one pass over their input. The encoder appends
//! escaped tokens and numbers to a caller-supplied buffer; the decoder
//! scans `&str` slices of the line for unescaped separators and unescapes
//! each token straight into the one buffer the [`Point`] keeps.

use std::fmt::Write as _;

use crate::{Point, TsdbError};

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

/// Appends `s` without the backslash of every `\x` pair (and without a
/// trailing lone backslash).
fn push_unescaped(out: &mut String, s: &str) {
    // A backslash is ASCII, so the pieces between backslashes are whole
    // characters, and so is everything after the character one escapes.
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut after = rest[at + 1..].chars();
        out.extend(after.next());
        rest = after.as_str();
    }
    out.push_str(rest);
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

impl Point {
    /// Serialises to one line of Influx line protocol.
    pub fn to_line_protocol(&self) -> String {
        let mut line = String::new();
        self.write_line_protocol(&mut line);
        line
    }

    /// Appends the point's line of Influx line protocol (no line
    /// terminator) to `out`.
    pub fn write_line_protocol(&self, out: &mut String) {
        push_escaped(out, self.measurement());
        for (k, v) in self.tags() {
            out.push(',');
            push_escaped(out, k);
            out.push('=');
            push_escaped(out, v);
        }
        out.push(' ');
        for (i, (k, v)) in self.fields().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_escaped(out, k);
            // Writing into a `String` cannot fail.
            let _ = write!(out, "={v}");
        }
        let _ = write!(out, " {}", self.timestamp_us());
    }

    /// Parses one line of Influx line protocol.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::Corrupt`] on malformed input (missing fields,
    /// bad numbers, bad timestamp).
    pub fn from_line_protocol(line: &str) -> Result<Point, TsdbError> {
        let corrupt = |reason: &str| TsdbError::Corrupt { reason: reason.to_string() };
        // A point's buffer is indexed by `u32`.
        if u32::try_from(line.len()).is_err() {
            return Err(corrupt("line longer than 4 GiB"));
        }
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
        // Unescaping only ever drops bytes, and every tag or field but the
        // first follows a comma: room for all of them, allocated once.
        let mut text = String::with_capacity(head.len() + field_seg.len());
        push_unescaped(&mut text, head_parts.next().unwrap_or_default());
        if text.is_empty() {
            return Err(corrupt("empty measurement"));
        }
        let commas = |s: &str| s.bytes().filter(|&b| b == b',').count();
        let mut point = Point::with_capacity(text, timestamp, commas(head), 1 + commas(field_seg));
        for tag in head_parts {
            let (key, value) = key_value(tag).ok_or_else(|| corrupt("malformed tag"))?;
            point.tag_with(|out| push_unescaped(out, key), |out| push_unescaped(out, value));
        }
        if field_seg.is_empty() {
            return Err(corrupt("no fields"));
        }
        for field in split_unescaped(field_seg, b',') {
            let (key, value) = key_value(field).ok_or_else(|| corrupt("malformed field"))?;
            // Accept Influx's integer suffix `i` as well as plain floats.
            let raw = value.strip_suffix('i').unwrap_or(value);
            let value: f64 = raw.parse().map_err(|_| corrupt("non-numeric field value"))?;
            point.field_with(|out| push_unescaped(out, key), value);
        }
        Ok(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_tagged_point() {
        let p = Point::new("epoch_metrics", 1_625_000)
            .tag("workload", "lenet/mnist")
            .tag("config", "8c/16GB")
            .field("runtime_secs", 42.5)
            .field("energy_j", 900.0);
        let line = p.to_line_protocol();
        let back = Point::from_line_protocol(&line).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn escapes_spaces_commas_and_equals() {
        let p = Point::new("m easure,ment", 5).tag("k ey", "v=al,ue").field("f", 1.0);
        let line = p.to_line_protocol();
        let back = Point::from_line_protocol(&line).unwrap();
        assert_eq!(back.measurement(), "m easure,ment");
        assert_eq!(back.tag_value("k ey"), Some("v=al,ue"));
    }

    #[test]
    fn parses_canonical_influx_examples() {
        let p =
            Point::from_line_protocol("cpu,host=a usage=0.5,idle=99i 1556813561098000").unwrap();
        assert_eq!(p.measurement(), "cpu");
        assert_eq!(p.tag_value("host"), Some("a"));
        assert_eq!(p.field_value("usage"), Some(0.5));
        assert_eq!(p.field_value("idle"), Some(99.0));
        assert_eq!(p.timestamp_us(), 1_556_813_561_098_000);
    }

    #[test]
    fn missing_timestamp_defaults_to_zero() {
        let p = Point::from_line_protocol("m f=1.0").unwrap();
        assert_eq!(p.timestamp_us(), 0);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["", "m", "m ", "m f", "m f=x", "m f=1 notanumber", "m,k f=1"] {
            assert!(Point::from_line_protocol(bad).is_err(), "should reject {bad:?}");
        }
    }
}
