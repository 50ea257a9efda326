//! The JSON text codec under the trace exporter and importer: a writer that
//! appends a document straight into one `String`, and a bounded-depth pull
//! reader over the text. Neither builds a value tree.
//!
//! The exporter hands its document to a [`JsonSink`] [`Token`] by token. The
//! writer is one sink; the other ([`TokenTape`]) keeps the tokens of one
//! export and holds a second one to them, which decides whether the two
//! would be written as the same bytes without writing either.
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

use crate::decimal;

/// Deepest container nesting the reader accepts (the vendored JSON crate's
/// limit, which is its upstream's).
const MAX_DEPTH: usize = 128;

/// One token of a document. Two token sequences are equal exactly when
/// [`JsonWriter`] writes them as the same bytes: keys and strings by content;
/// integers by value, whichever of `u64` / `i64` held them (the same digits
/// either way — a non-negative one is always [`Token::U64`]); finite floats
/// by bit pattern, which their shortest round-trip spelling is one-to-one
/// with (`0.0` and `-0.0` differ, and no float is spelt like an integer);
/// every non-finite float is the [`Token::Null`] it is written as. Layout is
/// the writer's alone and is no token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    BeginObject,
    EndObject,
    BeginArray,
    EndArray,
    Key(&'a str),
    Null,
    Bool(bool),
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// The bits of a finite float.
    F64(u64),
    Str(&'a str),
}

/// What the export walk emits: the tokens of one JSON document, in document
/// order. Keys and strings are borrowed for `'a`, the lifetime of what is
/// being exported, so a sink may keep them.
pub(crate) trait JsonSink<'a> {
    fn token(&mut self, token: Token<'a>);

    /// Starts the next array element; its value follows. (Layout: an
    /// object's members are started by their keys.)
    fn element(&mut self) {}

    fn begin_object(&mut self) {
        self.token(Token::BeginObject);
    }

    fn end_object(&mut self) {
        self.token(Token::EndObject);
    }

    fn begin_array(&mut self) {
        self.token(Token::BeginArray);
    }

    fn end_array(&mut self) {
        self.token(Token::EndArray);
    }

    /// Starts the next object member; its value follows.
    fn key(&mut self, key: &'a str) {
        self.token(Token::Key(key));
    }

    fn null(&mut self) {
        self.token(Token::Null);
    }

    fn bool(&mut self, v: bool) {
        self.token(Token::Bool(v));
    }

    fn u64(&mut self, v: u64) {
        self.token(Token::U64(v));
    }

    fn i64(&mut self, v: i64) {
        self.token(u64::try_from(v).map_or(Token::I64(v), Token::U64));
    }

    /// NaN and the infinities, which JSON cannot spell, are `null`.
    fn f64(&mut self, v: f64) {
        self.token(if v.is_finite() { Token::F64(v.to_bits()) } else { Token::Null });
    }

    fn string(&mut self, s: &'a str) {
        self.token(Token::Str(s));
    }
}

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

    fn quoted(&mut self, s: &str) {
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

impl JsonSink<'_> for JsonWriter {
    fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline_indent();
    }

    // Inlined for the same reason as [`TokenTape`]'s: the walk names the
    // kind, and only that arm is left at each call site.
    #[inline(always)]
    fn token(&mut self, token: Token<'_>) {
        match token {
            Token::BeginObject => self.open('{'),
            Token::EndObject => self.close('}'),
            Token::BeginArray => self.open('['),
            Token::EndArray => self.close(']'),
            Token::Key(key) => {
                self.element();
                self.quoted(key);
                self.out.push_str(if self.pretty { ": " } else { ":" });
            }
            Token::Null => self.out.push_str("null"),
            Token::Bool(v) => self.out.push_str(if v { "true" } else { "false" }),
            Token::Str(s) => self.quoted(s),
            Token::U64(v) => decimal::push_u64(&mut self.out, v),
            Token::I64(v) => decimal::push_i64(&mut self.out, v),
            // Shortest representation that round-trips (always with a `.0`
            // or an exponent).
            Token::F64(bits) => decimal::push_debug(&mut self.out, f64::from_bits(bits)),
        }
    }
}

/// Keeps the tokens of one export, then holds a second export to them.
#[derive(Default)]
pub(crate) struct TokenTape<'a> {
    tokens: Vec<Token<'a>>,
    /// While comparing, the recorded token the next one is held to.
    cursor: Option<usize>,
    /// Where the two sequences first differ, and what came there.
    mismatch: Option<(usize, Token<'a>)>,
}

impl<'a> JsonSink<'a> for TokenTape<'a> {
    // Called once per token with a token of known kind: inlined, the walk
    // pushes or compares in place (measured: half the time of a comparison).
    #[inline(always)]
    fn token(&mut self, token: Token<'a>) {
        match self.cursor {
            None => self.tokens.push(token),
            Some(at) => {
                if self.mismatch.is_none() && self.tokens.get(at) != Some(&token) {
                    self.mismatch = Some((at, token));
                }
                self.cursor = Some(at + 1);
            }
        }
    }
}

impl<'a> TokenTape<'a> {
    /// Forgets what it holds (not the storage) and records what comes.
    pub(crate) fn record(&mut self) {
        self.tokens.clear();
        (self.cursor, self.mismatch) = (None, None);
    }

    /// Holds what comes to what was recorded, from its first token on.
    pub(crate) fn compare(&mut self) {
        self.cursor = Some(0);
    }

    /// `None` when the second export's tokens were the first's; otherwise
    /// where the two part and with what, as `attrs phase: "tuned" ->
    /// "probe"`: the keys of the containers open around the first differing
    /// token and of the member it belongs to, then the token of either side.
    pub(crate) fn difference(&self) -> Option<String> {
        let (at, found) = match (self.mismatch, self.cursor) {
            (Some((at, found)), _) => (at, Some(found)),
            (None, Some(at)) if at < self.tokens.len() => (at, None),
            _ => return None,
        };
        // The name each open container goes by ("" for an array element or
        // the record itself), then the member a value at `at` would be.
        let (mut path, mut member) = (Vec::new(), None);
        for token in &self.tokens[..at.min(self.tokens.len())] {
            match token {
                Token::Key(key) => member = Some(*key),
                Token::BeginObject | Token::BeginArray => path.push(member.take().unwrap_or("")),
                Token::EndObject | Token::EndArray => {
                    path.pop();
                }
                _ => member = None,
            }
        }
        path.extend(member);
        path.retain(|name| !name.is_empty());
        let side = |token: Option<&Token>| match token {
            None => "end".to_string(),
            Some(Token::Key(key)) => format!("key {key:?}"),
            Some(Token::Str(s)) => format!("{s:?}"),
            Some(Token::F64(bits)) => format!("{:?}", f64::from_bits(*bits)),
            Some(Token::U64(v)) => v.to_string(),
            Some(Token::I64(v)) => v.to_string(),
            Some(Token::Bool(v)) => v.to_string(),
            Some(Token::Null) => "null".to_string(),
            Some(Token::BeginObject | Token::EndObject) => "an object's bound".to_string(),
            Some(Token::BeginArray | Token::EndArray) => "an array's bound".to_string(),
        };
        Some(format!(
            "{}: {} -> {}",
            path.join(" "),
            side(self.tokens.get(at)),
            side(found.as_ref())
        ))
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
                return Err(ReadError::Syntax(format!("invalid escape `\\{}`", char::from(other))))
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
