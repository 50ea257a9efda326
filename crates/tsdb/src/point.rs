//! Data points: measurement + tags + numeric fields + timestamp.

use std::fmt::{self, Write as _};

use serde::{content_get, Content, DeError, Deserialize, Serialize};

/// One tagged, timestamped record (Influx line-protocol semantics): tags
/// and fields are maps — a later entry under a key replaces the earlier one
/// — and are kept sorted by key, so equality, line protocol and persistence
/// do not depend on the order a point was built in.
///
/// Built with a fluent API:
///
/// ```
/// use pipetune_tsdb::Point;
///
/// let p = Point::new("probe", 123)
///     .tag("config", "8c/16GB")
///     .field("runtime_secs", 12.5)
///     .field("energy_j", 900.0);
/// assert_eq!(p.field_value("runtime_secs"), Some(12.5));
/// ```
///
/// A point is three allocations however many tags and fields it has: every
/// string it holds sits in one buffer — the measurement, then each tag's
/// key and value, then each field's key — with the end offset of each of
/// those tokens beside it, and the field values in a vector of their own.
#[derive(Clone, PartialEq)]
pub struct Point {
    /// Measurement, tag keys and values, field keys, back to back.
    text: String,
    /// Where each token of `text` ends: the measurement, `tags` key / value
    /// pairs in key order, then one key per field in key order.
    ends: Vec<u32>,
    tags: u32,
    /// The value of each field, in the order of the field keys.
    values: Vec<f64>,
    /// Microseconds of simulated time.
    timestamp_us: u64,
}

/// Offsets are `u32`: a point's strings together stay under 4 GiB.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a point's measurement, tags and field keys stay under 4 GiB")
}

impl Point {
    /// Starts a point for `measurement` at `timestamp_us` (simulated µs).
    pub fn new(measurement: impl Into<String>, timestamp_us: u64) -> Self {
        Point::with_capacity(measurement.into(), timestamp_us, 0, 0)
    }

    /// A point over `text`, which holds the measurement and nothing else
    /// yet, with room for `tags` tags and `fields` fields.
    pub(crate) fn with_capacity(
        text: String,
        timestamp_us: u64,
        tags: usize,
        fields: usize,
    ) -> Self {
        let mut ends = Vec::with_capacity(1 + 2 * tags + fields);
        ends.push(offset(text.len()));
        Point { text, ends, tags: 0, values: Vec::with_capacity(fields), timestamp_us }
    }

    /// Token `i` of the buffer.
    fn token(&self, i: usize) -> &str {
        &self.text[self.start(i)..self.ends[i] as usize]
    }

    /// Where token `i` starts (for `i == ends.len()`, where the next would).
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// Index of the first field key among the tokens.
    fn first_field(&self) -> usize {
        1 + 2 * self.tags as usize
    }

    /// Bisects the keys at tokens `first`, `first + stride`, … (`count` of
    /// them, sorted): the position of `key`, or the one it would take.
    fn find(&self, first: usize, stride: usize, count: usize, key: &str) -> Result<usize, usize> {
        let (mut low, mut high) = (0, count);
        while low < high {
            let mid = (low + high) / 2;
            match self.token(first + stride * mid).cmp(key) {
                std::cmp::Ordering::Less => low = mid + 1,
                std::cmp::Ordering::Greater => high = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(low)
    }

    fn find_tag(&self, key: &str) -> Result<usize, usize> {
        self.find(1, 2, self.tags as usize, key)
    }

    fn find_field(&self, key: &str) -> Result<usize, usize> {
        self.find(self.first_field(), 1, self.values.len(), key)
    }

    /// Replaces the `remove` tokens from token `at` on with `new`.
    fn splice(&mut self, at: usize, remove: usize, new: &[&str]) {
        let (from, to) = (self.start(at), self.start(at + remove));
        let added: usize = new.iter().map(|token| token.len()).sum();
        // Checked once for the whole buffer: the offsets below all fit.
        offset(self.text.len() - (to - from) + added);
        if to > from {
            self.text.replace_range(from..to, "");
        }
        self.ends.drain(at..at + remove);
        for later in &mut self.ends[at..] {
            *later = (*later as usize - (to - from) + added) as u32;
        }
        let mut end = from;
        for (i, token) in new.iter().enumerate() {
            self.text.insert_str(end, token);
            end += token.len();
            self.ends.insert(at + i, end as u32);
        }
    }

    /// [`Point::tag`] for a decoder: `key` and `value` each append their
    /// token to the string they are handed, which for a tag that sorts
    /// after every one so far (what an exporter writes) is where it stays.
    pub(crate) fn tag_with(
        &mut self,
        key: impl FnOnce(&mut String),
        value: impl FnOnce(&mut String),
    ) {
        let key_start = self.text.len();
        key(&mut self.text);
        let key_end = self.text.len();
        value(&mut self.text);
        let last = (self.tags > 0).then(|| self.token(self.ends.len() - 2));
        if self.values.is_empty() && last < Some(&self.text[key_start..key_end]) {
            self.ends.extend([offset(key_end), offset(self.text.len())]);
            self.tags += 1;
        } else {
            let tail = self.text.split_off(key_start);
            let (key, value) = tail.split_at(key_end - key_start);
            self.set_tag(key, value);
        }
    }

    /// [`Point::field`] for a decoder, as [`Point::tag_with`].
    pub(crate) fn field_with(&mut self, key: impl FnOnce(&mut String), value: f64) {
        let key_start = self.text.len();
        key(&mut self.text);
        let last = (!self.values.is_empty()).then(|| self.token(self.ends.len() - 1));
        if last < Some(&self.text[key_start..]) {
            self.ends.push(offset(self.text.len()));
            self.values.push(value);
        } else {
            let key = self.text.split_off(key_start);
            self.set_field(&key, value);
        }
    }

    fn set_tag(&mut self, key: &str, value: &str) {
        match self.find_tag(key) {
            Ok(i) => self.splice(2 + 2 * i, 1, &[value]),
            Err(i) => {
                self.splice(1 + 2 * i, 0, &[key, value]);
                self.tags += 1;
            }
        }
    }

    fn set_field(&mut self, key: &str, value: f64) {
        match self.find_field(key) {
            Ok(i) => self.values[i] = value,
            Err(i) => {
                self.splice(self.first_field() + i, 0, &[key]);
                self.values.insert(i, value);
            }
        }
    }

    /// Adds/replaces a tag.
    pub fn tag(mut self, key: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        self.set_tag(key.as_ref(), value.as_ref());
        self
    }

    /// Adds/replaces a numeric field.
    pub fn field(mut self, key: impl AsRef<str>, value: f64) -> Self {
        self.set_field(key.as_ref(), value);
        self
    }

    /// Adds a whole vector as numbered fields (`prefix_0`, `prefix_1`, …),
    /// used for 58-element profile vectors.
    pub fn field_vec(mut self, prefix: &str, values: &[f64]) -> Self {
        let mut key = format!("{prefix}_");
        for (i, &value) in values.iter().enumerate() {
            key.truncate(prefix.len() + 1);
            // Writing into a `String` cannot fail.
            let _ = write!(key, "{i}");
            self.set_field(&key, value);
        }
        self
    }

    /// The measurement name.
    pub fn measurement(&self) -> &str {
        self.token(0)
    }

    /// Tag value for `key`.
    pub fn tag_value(&self, key: &str) -> Option<&str> {
        self.find_tag(key).ok().map(|i| self.token(2 + 2 * i))
    }

    /// Field value for `key`.
    pub fn field_value(&self, key: &str) -> Option<f64> {
        self.find_field(key).ok().map(|i| self.values[i])
    }

    /// Reassembles a numbered field vector written by [`Point::field_vec`].
    /// Stops at the first missing index.
    pub fn field_vec_values(&self, prefix: &str) -> Vec<f64> {
        let mut out = Vec::new();
        let mut key = format!("{prefix}_");
        for i in 0.. {
            key.truncate(prefix.len() + 1);
            let _ = write!(key, "{i}");
            match self.field_value(&key) {
                Some(v) => out.push(v),
                None => break,
            }
        }
        out
    }

    /// All tags as `(key, value)`, in key order.
    pub fn tags(&self) -> impl Iterator<Item = (&str, &str)> {
        (0..self.tags as usize).map(|i| (self.token(1 + 2 * i), self.token(2 + 2 * i)))
    }

    /// All fields as `(key, value)`, in key order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, f64)> {
        let first = self.first_field();
        self.values.iter().enumerate().map(move |(i, &value)| (self.token(first + i), value))
    }

    /// Timestamp in simulated microseconds.
    pub fn timestamp_us(&self) -> u64 {
        self.timestamp_us
    }

    /// Returns `true` when the point can be stored (non-empty measurement
    /// and at least one field).
    pub(crate) fn is_storable(&self) -> bool {
        !self.measurement().is_empty() && !self.values.is_empty()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Point")
            .field("measurement", &self.measurement())
            .field("tags", &self.tags().collect::<Vec<_>>())
            .field("fields", &self.fields().collect::<Vec<_>>())
            .field("timestamp_us", &self.timestamp_us)
            .finish()
    }
}

/// `{"measurement": …, "tags": {…}, "fields": {…}, "timestamp_us": …}` — the
/// document the derive wrote for the two-map `Point`, member for member.
impl Serialize for Point {
    fn to_content(&self) -> Content {
        let tags = self.tags().map(|(k, v)| (k.to_string(), Content::Str(v.to_string())));
        let fields = self.fields().map(|(k, v)| (k.to_string(), Content::F64(v)));
        Content::Map(vec![
            ("measurement".to_string(), Content::Str(self.measurement().to_string())),
            ("tags".to_string(), Content::Map(tags.collect())),
            ("fields".to_string(), Content::Map(fields.collect())),
            ("timestamp_us".to_string(), self.timestamp_us.to_content()),
        ])
    }
}

/// Reads what the derive read: the first member of each name, all four
/// required, others ignored; within `tags` and `fields` the last entry
/// under a key.
impl Deserialize for Point {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries =
            content.as_map_slice().ok_or_else(|| DeError::custom("Point: expected a map"))?;
        let member = |name: &str| {
            content_get(entries, name)
                .ok_or_else(|| DeError::custom(format!("Point: missing field `{name}`")))
        };
        let map = |name: &str| match member(name)? {
            Content::Map(entries) => Ok(entries),
            other => Err(DeError::custom(format!("expected map, got {other:?}"))),
        };
        let mut point = Point::new(String::from_content(member("measurement")?)?, 0);
        for (key, value) in map("tags")? {
            match value {
                Content::Str(value) => point.set_tag(key, value),
                other => return Err(DeError::custom(format!("expected string, got {other:?}"))),
            }
        }
        for (key, value) in map("fields")? {
            point.set_field(key, f64::from_content(value)?);
        }
        point.timestamp_us = u64::from_content(member("timestamp_us")?)?;
        Ok(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_tags_and_fields() {
        let p = Point::new("m", 5).tag("a", "1").tag("b", "2").field("x", 1.0);
        assert_eq!(p.tag_value("a"), Some("1"));
        assert_eq!(p.tag_value("missing"), None);
        assert!(p.is_storable());
    }

    #[test]
    fn field_vec_round_trips() {
        let values = vec![1.0, 2.0, 3.0];
        let p = Point::new("m", 0).field_vec("ev", &values);
        assert_eq!(p.field_vec_values("ev"), values);
        assert!(p.field_vec_values("other").is_empty());
    }

    #[test]
    fn empty_points_are_not_storable() {
        assert!(!Point::new("m", 0).is_storable());
        assert!(!Point::new("", 0).field("x", 1.0).is_storable());
    }

    #[test]
    fn serde_round_trip() {
        let p = Point::new("m", 9).tag("t", "v").field("f", 2.5);
        let json = serde_json::to_string(&p).unwrap();
        let back: Point = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn build_order_does_not_show() {
        let a = Point::new("m", 1)
            .field("y", 2.0)
            .tag("k2", "b")
            .field("x", 1.0)
            .tag("k1", "a")
            .field("y", 3.0)
            .tag("k2", "longer value");
        let b = Point::new("m", 1)
            .tag("k1", "a")
            .tag("k2", "longer value")
            .field("x", 1.0)
            .field("y", 3.0);
        assert_eq!(a, b);
        assert_eq!(a.tags().collect::<Vec<_>>(), [("k1", "a"), ("k2", "longer value")]);
        assert_eq!(a.fields().collect::<Vec<_>>(), [("x", 1.0), ("y", 3.0)]);
        assert_eq!(
            format!("{a:?}"),
            r#"Point { measurement: "m", tags: [("k1", "a"), ("k2", "longer value")], fields: [("x", 1.0), ("y", 3.0)], timestamp_us: 1 }"#
        );
    }

    #[test]
    fn field_vec_sorts_past_ten_and_replaces() {
        let values: Vec<f64> = (0..12).map(f64::from).collect();
        let p = Point::new("m", 0).field("ev_3", -1.0).field("z", 9.0).field_vec("ev", &values);
        assert_eq!(p.field_vec_values("ev"), values);
        let keys: Vec<&str> = p.fields().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "ev_0", "ev_1", "ev_10", "ev_11", "ev_2", "ev_3", "ev_4", "ev_5", "ev_6", "ev_7",
                "ev_8", "ev_9", "z"
            ]
        );
        assert_eq!(p.field_value("z"), Some(9.0));
    }
}
