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
//! escaped tokens and numbers to a caller-supplied buffer. The decoder
//! ([`LineReader`]) scans a line once, front to back: as it goes it marks
//! off the measurement, each tag's key and value, each field's key and
//! value and the timestamp at the unescaped separators, parses each number
//! where it stands, and notes whether a token held a backslash. Then it
//! builds the [`Point`] with room for exactly what it found, copying each
//! token into the point's one buffer — unescaping only the tokens that held
//! a backslash.

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

/// A token of a line, escapes still in: where it is and whether it holds a
/// backslash.
#[derive(Clone, Copy)]
struct Token {
    start: usize,
    end: usize,
    escaped: bool,
}

impl Token {
    fn len(self) -> usize {
        self.end - self.start
    }

    /// Appends the token unescaped.
    fn push_to(self, line: &str, out: &mut String) {
        let raw = &line[self.start..self.end];
        if self.escaped {
            push_unescaped(out, raw);
        } else {
            out.push_str(raw);
        }
    }
}

/// What [`scan`] read: a token and what ended it.
struct Scanned {
    token: Token,
    /// The separator after the token, `None` at the end of the line.
    stop: Option<u8>,
    /// How many unescaped `=` the token holds; for one, the token's two
    /// sides of it.
    equals: usize,
    key: Token,
    value: Token,
}

/// The bytes [`scan`] stops at: a backslash, a space, a comma, an `=`.
static STOPS: [bool; 256] = {
    let mut stops = [false; 256];
    stops[b'\\' as usize] = true;
    stops[b' ' as usize] = true;
    stops[b',' as usize] = true;
    stops[b'=' as usize] = true;
    stops
};

/// Reads from `start` to the next unescaped space (or comma, when `commas`
/// separate) or to the end of the line. A backslash keeps the byte after it
/// — separator or not — inside the token; skipping that one byte is enough,
/// since the continuation bytes of a multi-byte character are neither a
/// backslash nor a separator.
fn scan(bytes: &[u8], start: usize, commas: bool) -> Scanned {
    let mut i = start;
    let (mut equals, mut split) = (0, start);
    // Backslashes before the first `=` (or in a token without one), after it.
    let (mut before, mut after) = (false, false);
    let stop = loop {
        while bytes.get(i).is_some_and(|&b| !STOPS[usize::from(b)]) {
            i += 1;
        }
        let Some(&b) = bytes.get(i) else { break None };
        match b {
            b'\\' => {
                if equals == 0 {
                    before = true;
                } else {
                    after = true;
                }
                i += 2;
                continue;
            }
            b' ' => break Some(b),
            b',' if commas => break Some(b),
            b'=' => {
                if equals == 0 {
                    split = i;
                }
                equals += 1;
            }
            _ => {}
        }
        i += 1;
    };
    let end = i.min(bytes.len());
    Scanned {
        token: Token { start, end, escaped: before || after },
        stop,
        equals,
        key: Token { start, end: split, escaped: before },
        value: Token { start: split + 1, end, escaped: after },
    }
}

/// A tag or a field, as the scan marks them off.
enum Entry {
    Tag(Token, Token),
    Field(Token, f64),
}

/// Decodes lines of line protocol, keeping the storage of its scan of one
/// line for the next.
///
/// A line may be wrong in several ways at once; the complaint is the one
/// the decoder has always made: about the segment count first, then about
/// the timestamp, then about the first bad token in line order.
#[derive(Default)]
pub(crate) struct LineReader {
    /// The tags and fields of the line read last, in line order.
    entries: Vec<Entry>,
}

impl LineReader {
    /// [`Point::from_line_protocol`], with this reader's storage.
    pub(crate) fn read(&mut self, line: &str) -> Result<Point, TsdbError> {
        let corrupt = |reason: &str| TsdbError::Corrupt { reason: reason.to_string() };
        // A point's buffer is indexed by `u32`.
        if u32::try_from(line.len()).is_err() {
            return Err(corrupt("line longer than 4 GiB"));
        }
        let segments = || corrupt("expected 'measurement[,tags] fields [timestamp]'");
        let line = line.trim();
        let bytes = line.as_bytes();
        self.entries.clear();
        // The first bad token, and the bytes the point's buffer will hold.
        let mut complaint = None;
        let (mut tags, mut text_len) = (0, 0);

        // The measurement and the tags, up to the first unescaped space.
        let measurement = scan(bytes, 0, true);
        if measurement.token.end == 0 {
            complaint = complaint.or(Some("empty measurement"));
        }
        text_len += measurement.token.len();
        let mut last = measurement.stop;
        let mut at = measurement.token.end + 1;
        while last == Some(b',') {
            let tag = scan(bytes, at, true);
            if tag.equals == 1 {
                self.entries.push(Entry::Tag(tag.key, tag.value));
                text_len += tag.token.len() - 1;
                tags += 1;
            } else {
                complaint = complaint.or(Some("malformed tag"));
            }
            (last, at) = (tag.stop, tag.token.end + 1);
        }
        if last.is_none() {
            return Err(segments());
        }

        // The fields, up to the next unescaped space.
        if bytes.get(at).is_none_or(|&b| b == b' ') {
            complaint = complaint.or(Some("no fields"));
            (last, at) = (bytes.get(at).copied(), at + 1);
        } else {
            loop {
                let field = scan(bytes, at, true);
                (last, at) = (field.stop, field.token.end + 1);
                if field.equals == 1 {
                    // Accept Influx's integer suffix `i` as well as plain floats.
                    let raw = &line[field.value.start..field.value.end];
                    match raw.strip_suffix('i').unwrap_or(raw).parse::<f64>() {
                        Ok(value) => {
                            self.entries.push(Entry::Field(field.key, value));
                            text_len += field.key.len();
                        }
                        Err(_) => complaint = complaint.or(Some("non-numeric field value")),
                    }
                } else {
                    complaint = complaint.or(Some("malformed field"));
                }
                if last != Some(b',') {
                    break;
                }
            }
        }

        // The timestamp, the rest of the line.
        let timestamp = match last {
            None => 0,
            Some(_) => {
                let stamp = scan(bytes, at, false);
                if stamp.stop.is_some() {
                    return Err(segments());
                }
                let digits = &line[stamp.token.start..stamp.token.end];
                digits.parse::<u64>().map_err(|_| corrupt("bad timestamp"))?
            }
        };
        if let Some(reason) = complaint {
            return Err(corrupt(reason));
        }

        let mut text = String::with_capacity(text_len);
        measurement.token.push_to(line, &mut text);
        let fields = self.entries.len() - tags;
        let mut point = Point::with_capacity(text, timestamp, tags, fields);
        for entry in &self.entries {
            match *entry {
                Entry::Tag(key, value) => {
                    point.tag_with(|out| key.push_to(line, out), |out| value.push_to(line, out))
                }
                Entry::Field(key, value) => point.field_with(|out| key.push_to(line, out), value),
            }
        }
        Ok(point)
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
        LineReader::default().read(line)
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
