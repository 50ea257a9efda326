//! The JSON text codec under the trace exporter and importer: a writer that
//! appends a document straight into one `String`, and a bounded-depth pull
//! reader over the text. Neither builds a value tree.
//!
//! Both speak the dialect of the workspace's vendored JSON crate, which the
//! trace format was born in, so every byte written and every text accepted
//! or rejected stays what it was: 2-space pretty printing with `{}` / `[]`
//! for empty containers, floats as shortest round-trip `{:?}`, non-finite
//! floats as `null`; on the way in, numbers are the greedy run of
//! `[0-9.eE+-]` handed to `str::parse`, raw control characters are legal
//! inside strings, unpaired surrogate escapes are not, and the 128th nested
//! container is an error.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest container nesting the reader accepts (the vendored JSON crate's
/// limit, which is its upstream's).
const MAX_DEPTH: usize = 128;

/// Appends one JSON document to a `String`. The caller supplies object keys
/// in the order they must appear; the writer supplies punctuation and
/// layout.
pub(crate) struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// Whether the innermost open container is still empty.
    empty: bool,
}

impl JsonWriter {
    pub(crate) fn new(pretty: bool, capacity: usize) -> Self {
        JsonWriter { out: String::with_capacity(capacity), pretty, depth: 0, empty: true }
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }

    fn newline_indent(&mut self) {
        const SPACES: &str = "                ";
        if self.pretty {
            self.out.push('\n');
            let mut left = 2 * self.depth;
            while left > 0 {
                let run = left.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                left -= run;
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline_indent();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    pub(crate) fn begin_object(&mut self) {
        self.open('{');
    }

    pub(crate) fn end_object(&mut self) {
        self.close('}');
    }

    pub(crate) fn begin_array(&mut self) {
        self.open('[');
    }

    pub(crate) fn end_array(&mut self) {
        self.close(']');
    }

    /// Starts the next array element; its value follows.
    pub(crate) fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline_indent();
    }

    /// Starts the next object member; its value follows.
    pub(crate) fn key(&mut self, key: &str) {
        self.element();
        self.string(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    pub(crate) fn null(&mut self) {
        self.out.push_str("null");
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    // Writing into a `String` cannot fail.
    pub(crate) fn u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
    }

    pub(crate) fn i64(&mut self, v: i64) {
        let _ = write!(self.out, "{v}");
    }

    /// Shortest representation that round-trips (always with a `.0` or an
    /// exponent); `null` for NaN and the infinities, which JSON cannot spell.
    pub(crate) fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.null();
        }
    }

    pub(crate) fn string(&mut self, s: &str) {
        self.out.push('"');
        // Everything that needs escaping is ASCII, so the runs between
        // escapes are whole characters.
        let mut run_start = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.push_str(&s[run_start..i]);
            run_start = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
        }
        self.out.push_str(&s[run_start..]);
        self.out.push('"');
    }
}

/// Why a read failed. The two kinds differ in what the importer may do
/// next: after a [`ReadError::Shape`] the text itself may still be fine (a
/// later duplicate of the member can supersede the offending value), after a
/// [`ReadError::Syntax`] nothing can.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// The text is not JSON.
    Syntax(String),
    /// The JSON does not have the shape the trace format requires.
    Shape(String),
}

impl ReadError {
    pub(crate) fn into_reason(self) -> String {
        match self {
            ReadError::Syntax(reason) | ReadError::Shape(reason) => reason,
        }
    }

    /// Names the record a shape complaint is about.
    pub(crate) fn within(self, what: impl std::fmt::Display) -> Self {
        match self {
            ReadError::Shape(reason) => ReadError::Shape(format!("{what}: {reason}")),
            syntax => syntax,
        }
    }
}

/// Shorthand for the importer's shape errors.
pub(crate) fn shape<T>(reason: impl Into<String>) -> Read<T> {
    Err(ReadError::Shape(reason.into()))
}

/// `value`, or the shape complaint `reason` when the text held none.
pub(crate) fn require<T>(value: Option<T>, reason: &str) -> Read<T> {
    value.map_or_else(|| shape(reason), Ok)
}

/// What an object's members of one name came to: `None` while absent, then
/// the outcome of the latest occurrence (see [`JsonReader::member`]).
pub(crate) type Slot<T> = Option<Result<T, String>>;

/// A member's value if the member came, or the complaint its latest
/// occurrence earned.
pub(crate) fn optional<T>(slot: Slot<T>) -> Read<Option<T>> {
    slot.transpose().or_else(shape)
}

/// [`optional`] for a member whose absence earns the complaint `missing`.
pub(crate) fn required<T>(slot: Slot<T>, missing: &str) -> Read<T> {
    require(optional(slot)?, missing)
}

/// A JSON number, classified as the vendored JSON crate does: integers that
/// fit `i64`, then `u64`, everything else a float.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Number {
    I64(i64),
    U64(u64),
    F64(f64),
}

impl Number {
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Number::I64(v) => u64::try_from(v).ok(),
            Number::U64(v) => Some(v),
            Number::F64(_) => None,
        }
    }

    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        }
    }
}

/// A pull reader over JSON text. The typed readers (`string`, `number`,
/// `object`, …) consume the next value when it has their type and return
/// `None` / `false` without moving when it has another; `skip_value`
/// syntax-checks and discards whatever comes next.
pub(crate) struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

pub(crate) type Read<T> = Result<T, ReadError>;

impl<'a> JsonReader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        JsonReader { text, pos: 0, depth: 0 }
    }

    fn syntax<T>(&self, what: &str) -> Read<T> {
        Err(ReadError::Syntax(format!("{what} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next value, whitespace skipped.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        if found {
            self.pos += 1;
        }
        found
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Nothing but whitespace may follow the document.
    pub(crate) fn end(&mut self) -> Read<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.syntax("trailing characters"),
        }
    }

    /// Consumes a `null`, if that is what comes next.
    pub(crate) fn null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat_keyword("null")
    }

    /// Consumes a `true` / `false`, if that is what comes next.
    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.peek() {
            Some(b't') if self.eat_keyword("true") => Some(true),
            Some(b'f') if self.eat_keyword("false") => Some(false),
            _ => None,
        }
    }

    /// Consumes a number, if one comes next.
    pub(crate) fn number(&mut self) -> Read<Option<Number>> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Ok(None);
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let digits = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = digits.parse::<i64>() {
                return Ok(Some(Number::I64(v)));
            }
            if let Ok(v) = digits.parse::<u64>() {
                return Ok(Some(Number::U64(v)));
            }
        }
        match digits.parse::<f64>() {
            Ok(v) => Ok(Some(Number::F64(v))),
            Err(_) => Err(ReadError::Syntax(format!("bad number `{digits}`"))),
        }
    }

    /// Consumes a string, if one comes next; borrowed from the text unless
    /// it holds escapes.
    pub(crate) fn string(&mut self) -> Read<Option<Cow<'a, str>>> {
        if self.peek() != Some(b'"') {
            return Ok(None);
        }
        let bytes = self.text.as_bytes();
        // The unescaped text so far, once there has been an escape.
        let mut unescaped: Option<String> = None;
        let mut run_start = self.pos + 1;
        let mut i = run_start;
        loop {
            while !matches!(bytes.get(i), None | Some(b'"' | b'\\')) {
                i += 1;
            }
            let run = &self.text[run_start..i];
            match bytes.get(i) {
                None => return Err(ReadError::Syntax("unterminated string".into())),
                Some(b'"') => {
                    self.pos = i + 1;
                    return Ok(Some(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(text) => Cow::Owned(text + run),
                    }));
                }
                Some(_) => {
                    self.pos = i + 1;
                    let escaped = self.escape()?;
                    let text = unescaped.get_or_insert_with(String::new);
                    text.push_str(run);
                    text.push(escaped);
                    (run_start, i) = (self.pos, self.pos);
                }
            }
        }
    }

    /// The character an escape sequence names; `pos` is past its backslash.
    fn escape(&mut self) -> Read<char> {
        let Some(&esc) = self.text.as_bytes().get(self.pos) else {
            return Err(ReadError::Syntax("unterminated escape".into()));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must be followed by a low one;
                    // together they name one scalar.
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return self.syntax("unpaired surrogate in \\u escape");
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.syntax("unpaired surrogate in \\u escape");
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                // A lone low surrogate is not a scalar either.
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return self.syntax("invalid \\u escape"),
                }
            }
            other => {
                return Err(ReadError::Syntax(format!(
                    "invalid escape `\\{}`",
                    char::from(other)
                )))
            }
        })
    }

    fn hex4(&mut self) -> Read<u32> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
        let code = digits
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        match code {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => self.syntax("bad \\u escape"),
        }
    }

    fn enter(&mut self) -> Read<()> {
        self.depth += 1;
        if self.depth >= MAX_DEPTH {
            return self.syntax("recursion limit exceeded");
        }
        self.pos += 1;
        Ok(())
    }

    /// Consumes an object, if one comes next, handing each member's key to
    /// `member` with the reader standing before the member's value, which
    /// `member` must consume.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Read<()>,
    ) -> Read<bool> {
        if self.peek() != Some(b'{') {
            return Ok(false);
        }
        self.enter()?;
        if !self.eat(b'}') {
            loop {
                let Some(key) = self.string()? else {
                    return self.syntax("expected `\"`");
                };
                if !self.eat(b':') {
                    return self.syntax("expected `:`");
                }
                member(self, &key)?;
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return self.syntax("bad object");
                }
            }
        }
        self.depth -= 1;
        Ok(true)
    }

    /// Consumes an array, if one comes next, calling `element` with the
    /// reader standing before each element, which `element` must consume.
    pub(crate) fn array(&mut self, mut element: impl FnMut(&mut Self) -> Read<()>) -> Read<bool> {
        if self.peek() != Some(b'[') {
            return Ok(false);
        }
        self.enter()?;
        if !self.eat(b']') {
            loop {
                element(self)?;
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return self.syntax("bad array");
                }
            }
        }
        self.depth -= 1;
        Ok(true)
    }

    /// Consumes an object of freely named members into a sorted map, or
    /// complains that the next value is `not_an_object`: `read` turns each
    /// member's value into its entry, and a repeated name keeps its last
    /// occurrence ([`JsonReader::member`]'s rule, complaints included).
    pub(crate) fn map<T>(
        &mut self,
        not_an_object: &str,
        mut read: impl FnMut(&mut Self, &str) -> Read<T>,
    ) -> Read<BTreeMap<String, T>> {
        let mut entries = BTreeMap::new();
        let mut complaints = BTreeMap::new();
        let is_object = self.object(|r, name| {
            match r.member(|r| read(r, name))? {
                Ok(value) => {
                    complaints.remove(name);
                    entries.insert(name.to_string(), value);
                }
                Err(reason) => {
                    complaints.insert(name.to_string(), reason);
                }
            }
            Ok(())
        })?;
        match complaints.pop_first() {
            Some((_, reason)) => shape(reason),
            None => require(is_object.then_some(entries), not_an_object),
        }
    }

    /// Syntax-checks and discards the next value, whatever it is.
    pub(crate) fn skip_value(&mut self) -> Read<()> {
        if self.null()
            || self.bool().is_some()
            || self.number()?.is_some()
            || self.string()?.is_some()
            || self.array(Self::skip_value)?
            || self.object(|r, _| r.skip_value())?
        {
            Ok(())
        } else {
            self.syntax("unexpected input")
        }
    }

    /// Reads one object member's value with `read`. A value of the wrong
    /// shape is not fatal yet — a later member of the same name supersedes
    /// it — so the reader steps back, syntax-checks the value instead, and
    /// hands the complaint back as the inner `Err` for the caller to raise
    /// once the object ends, if the member has not been repeated by then.
    pub(crate) fn member<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Read<T>,
    ) -> Read<Result<T, String>> {
        let (pos, depth) = (self.pos, self.depth);
        match read(self) {
            Ok(value) => Ok(Ok(value)),
            Err(ReadError::Shape(reason)) => {
                (self.pos, self.depth) = (pos, depth);
                self.skip_value()?;
                Ok(Err(reason))
            }
            Err(syntax) => Err(syntax),
        }
    }

    /// [`JsonReader::member`] for a member whose value counts as absent
    /// when it has another type than `read` looks for.
    pub(crate) fn lenient<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Read<Option<T>>,
    ) -> Read<Option<T>> {
        Ok(self.member(|r| require(read(r)?, ""))?.ok())
    }
}
