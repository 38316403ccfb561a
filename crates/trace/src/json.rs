//! Self-contained JSON (de)serialization of [`Trace`]s.
//!
//! This replaces the former `serde`/`serde_json` dependency so the
//! workspace builds offline. The wire format is kept compatible with the
//! previously derived one: a trace is its [`TraceData`] — events with
//! externally-tagged kinds, maps keyed by stringified ids — so traces
//! serialized by earlier builds still load.
//!
//! ```json
//! {"events":[{"thread":0,"kind":{"Write":{"var":0,"value":1}},"loc":2}],
//!  "initial_values":{"0":0},"volatiles":[],"wait_links":[],
//!  "loc_names":{"2":"Main.java:3"},"var_names":{"0":"x"}}
//! ```
//!
//! # Examples
//!
//! ```
//! use rvtrace::{from_json, to_json, ThreadId, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.write(ThreadId::MAIN, x, 1);
//! let trace = b.finish();
//! let round = from_json(&to_json(&trace)).unwrap();
//! assert_eq!(round.events(), trace.events());
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{ChanId, Event, EventId, EventKind, Loc, LockId, ThreadId, Value, VarId};
use crate::stream::{StreamFormat, StreamParser, FEED_CHUNK};
use crate::trace::{MsgLink, Trace, TraceData, WaitLink};

/// A JSON parse or shape error, with a byte offset for syntax errors and a
/// short excerpt of the input around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where a syntax error was detected (0 for
    /// shape errors discovered after parsing).
    pub offset: usize,
    /// Up to ~30 characters of input surrounding `offset` (empty for shape
    /// errors, which concern the document's structure rather than a byte).
    pub snippet: String,
}

/// How many bytes of context an error snippet shows on either side of the
/// failing offset. The streaming parser retains this much consumed input
/// so its snippets match the tree parser's byte for byte.
pub(crate) const SNIPPET_CONTEXT: usize = 15;

impl JsonError {
    /// Attaches an input excerpt around the error's byte offset, so the
    /// message pinpoints the problem without the caller re-reading the file.
    fn with_snippet(mut self, input: &str) -> JsonError {
        if self.snippet.is_empty() && !input.is_empty() {
            let at = self.offset.min(input.len());
            let mut start = at.saturating_sub(SNIPPET_CONTEXT);
            while !input.is_char_boundary(start) {
                start -= 1;
            }
            let mut end = (at + SNIPPET_CONTEXT).min(input.len());
            while !input.is_char_boundary(end) {
                end += 1;
            }
            self.snippet = input[start..end].to_string();
        }
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {}", self.message, self.offset)?;
        if !self.snippet.is_empty() {
            write!(f, ", near `{}`", self.snippet.escape_debug())?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for JsonError {}

pub(crate) fn shape(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
        offset: 0,
        snippet: String::new(),
    }
}

// ---------------------------------------------------------------- values

/// A parsed JSON value (integers only: none of the in-tree formats —
/// traces, metrics, bench results — use floats, and rejecting them keeps
/// every number exactly representable).
///
/// Public so downstream tooling (the bench harness, the metrics tests) can
/// parse and inspect the documents this workspace emits without an external
/// JSON dependency; obtain one with [`parse_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the format admits no floats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as a key-value list in document order (keys may repeat;
    /// [`JsonValue::field`] finds the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The integer value, or a shape error.
    pub fn as_int(&self) -> Result<i64, JsonError> {
        match self {
            JsonValue::Int(v) => Ok(*v),
            other => Err(shape(format!("expected integer, found {other:?}"))),
        }
    }

    /// The integer value narrowed to `u32`, or a shape error.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_int()?).map_err(|_| shape("integer out of u32 range"))
    }

    /// The boolean value, or a shape error.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(v) => Ok(*v),
            other => Err(shape(format!("expected boolean, found {other:?}"))),
        }
    }

    /// The string value, or a shape error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(shape(format!("expected string, found {other:?}"))),
        }
    }

    /// The array elements, or a shape error.
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(v) => Ok(v),
            other => Err(shape(format!("expected array, found {other:?}"))),
        }
    }

    /// The object's key-value pairs in document order, or a shape error.
    pub fn as_object(&self) -> Result<&[(String, JsonValue)], JsonError> {
        match self {
            JsonValue::Object(v) => Ok(v),
            other => Err(shape(format!("expected object, found {other:?}"))),
        }
    }

    /// The named object field, or a shape error when `self` is not an
    /// object or has no such field.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a JsonValue, JsonError> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| shape(format!("missing field `{name}`")))
    }

    /// The named object field, or `None` when absent (or when `self` is
    /// not an object).
    pub fn get<'a>(&'a self, name: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------- parser

/// The deepest array/object nesting the parser accepts. The trace format
/// and the daemon protocol nest at most four levels; the cap bounds the
/// parser's recursion (and the recursive drop of the parsed value), so a
/// hostile document of nested brackets is a [`JsonError`], not a stack
/// overflow.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
            snippet: String::new(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_NESTING => {
                Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")))
            }
            open @ (b'{' | b'[') => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.err(format!("unexpected byte `{}`", other as char))),
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers are not part of the trace format"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<i64>()
            .map(JsonValue::Int)
            .map_err(|e| self.err(format!("bad number: {e}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: only the BMP appears in trace
                            // names in practice, but handle pairs anyway.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 2;
                                let hex2 = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let low = u32::from_str_radix(
                                    std::str::from_utf8(hex2)
                                        .map_err(|_| self.err("non-ascii \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(char::from_u32(ch).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid utf8"))?;
                    let start = self.pos - 1;
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated utf8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf8"))?);
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let parsed = (|| {
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    })();
    parsed.map_err(|e| e.with_snippet(input))
}

/// Parses an arbitrary (integer-only) JSON document into a [`JsonValue`].
///
/// This is the parser the trace decoder runs on each framed value (one
/// event, one metadata field), exposed so in-tree consumers (the bench
/// harness's schema validator, the metrics tests, the daemon protocol) can
/// read the workspace's small JSON documents without an external
/// dependency.
/// Floating-point numbers are rejected by design.
///
/// # Examples
///
/// ```
/// use rvtrace::parse_json;
///
/// let v = parse_json(r#"{"schema_version": 1, "ok": true}"#).unwrap();
/// assert_eq!(v.field("schema_version").unwrap().as_int().unwrap(), 1);
/// assert!(parse_json("{\"pi\": 3.14}").is_err(), "floats are rejected");
/// ```
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    parse(input)
}

/// Parses one framed JSON value that begins at absolute byte offset
/// `abs_base` of a larger input. Error snippets come from the span itself
/// (the incremental parser no longer holds earlier bytes); offsets are
/// rebased so they point into the whole input, matching what the tree
/// parser would report for the whole input.
pub(crate) fn parse_span(span: &str, abs_base: usize) -> Result<JsonValue, JsonError> {
    parse(span).map_err(|mut e| {
        e.offset += abs_base;
        e
    })
}

// ---------------------------------------------------------------- writer

/// Renders `s` as a JSON string literal (quotes included, content
/// escaped). Exposed so in-tree consumers that hand-build JSON documents
/// — the bench harness, the daemon protocol — escape strings exactly the
/// way the trace writer does.
pub fn escape_json(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_kind(out: &mut String, kind: &EventKind) {
    match *kind {
        EventKind::Begin => out.push_str("\"Begin\""),
        EventKind::End => out.push_str("\"End\""),
        EventKind::Branch => out.push_str("\"Branch\""),
        EventKind::Read { var, value } => out.push_str(&format!(
            "{{\"Read\":{{\"var\":{},\"value\":{}}}}}",
            var.0, value.0
        )),
        EventKind::Write { var, value } => out.push_str(&format!(
            "{{\"Write\":{{\"var\":{},\"value\":{}}}}}",
            var.0, value.0
        )),
        EventKind::Acquire { lock } => {
            out.push_str(&format!("{{\"Acquire\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::Release { lock } => {
            out.push_str(&format!("{{\"Release\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::AcquireRead { lock } => {
            out.push_str(&format!("{{\"AcquireRead\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::ReleaseRead { lock } => {
            out.push_str(&format!("{{\"ReleaseRead\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::Send { chan } => out.push_str(&format!("{{\"Send\":{{\"chan\":{}}}}}", chan.0)),
        EventKind::Recv { chan } => out.push_str(&format!("{{\"Recv\":{{\"chan\":{}}}}}", chan.0)),
        EventKind::Notify { lock } => {
            out.push_str(&format!("{{\"Notify\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::Fork { child } => {
            out.push_str(&format!("{{\"Fork\":{{\"child\":{}}}}}", child.0))
        }
        EventKind::Join { child } => {
            out.push_str(&format!("{{\"Join\":{{\"child\":{}}}}}", child.0))
        }
    }
}

fn write_name_map<K: Copy>(out: &mut String, map: &BTreeMap<K, String>, key: impl Fn(K) -> u32) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":", key(*k)));
        write_escaped(out, v);
    }
    out.push('}');
}

/// Writes one event as its wire object: `{"thread":N,"kind":K,"loc":N}`.
/// Shared by the whole-document writer and the NDJSON writer so both
/// formats stay byte-compatible per event.
fn write_event(out: &mut String, e: &Event) {
    out.push_str(&format!("{{\"thread\":{},\"kind\":", e.thread.0));
    write_kind(out, &e.kind);
    out.push_str(&format!(",\"loc\":{}}}", e.loc.0));
}

/// Writes the metadata fields (`initial_values` … `var_names`) as a
/// comma-separated run of `"key":value` pairs, no surrounding braces.
/// `msg_links` is emitted only when non-empty — it is an *optional* field
/// (absent from [`METADATA_KEYS`]) so documents from earlier builds, which
/// never carry it, keep loading and old readers never see it.
fn write_metadata_fields(out: &mut String, data: &TraceData) {
    out.push_str("\"initial_values\":{");
    for (i, (var, value)) in data.initial_values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", var.0, value.0));
    }
    out.push_str("},\"volatiles\":[");
    for (i, v) in data.volatiles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}", v.0));
    }
    out.push_str("],\"wait_links\":[");
    for (i, wl) in data.wait_links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"release\":{},\"acquire\":{},\"notify\":",
            wl.release.0, wl.acquire.0
        ));
        match wl.notify {
            Some(n) => out.push_str(&format!("{}", n.0)),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    if !data.msg_links.is_empty() {
        out.push_str(",\"msg_links\":[");
        for (i, ml) in data.msg_links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"send\":{},\"recv\":{}}}",
                ml.send.0, ml.recv.0
            ));
        }
        out.push(']');
    }
    out.push_str(",\"loc_names\":");
    write_name_map(out, &data.loc_names, |l: Loc| l.0);
    out.push_str(",\"var_names\":");
    write_name_map(out, &data.var_names, |v: VarId| v.0);
}

/// Serializes a trace to its JSON wire format.
pub fn to_json(trace: &Trace) -> String {
    let data = trace.data();
    let mut out = String::with_capacity(data.events.len() * 48 + 256);
    out.push_str("{\"events\":[");
    for (i, e) in data.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, e);
    }
    out.push_str("],");
    write_metadata_fields(&mut out, data);
    out.push('}');
    out
}

/// Serializes a trace to the NDJSON wire format: a header line carrying
/// the metadata (initial values, volatiles, wait links, names), then one
/// event object per line. The header's wait links may reference events on
/// later lines; a streaming reader applies them after the full read.
///
/// Designed for streaming ingestion ([`crate::StreamParser`]): a reader
/// knows all metadata after line one, so window construction can start
/// while events are still arriving — unlike the whole-document format,
/// whose metadata trails the event array.
pub fn to_ndjson(trace: &Trace) -> String {
    let data = trace.data();
    let mut out = String::with_capacity(data.events.len() * 48 + 256);
    out.push('{');
    write_metadata_fields(&mut out, data);
    out.push_str("}\n");
    for e in &data.events {
        write_event(&mut out, e);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- reader

fn read_kind(v: &JsonValue) -> Result<EventKind, JsonError> {
    match v {
        JsonValue::Str(tag) => match tag.as_str() {
            "Begin" => Ok(EventKind::Begin),
            "End" => Ok(EventKind::End),
            "Branch" => Ok(EventKind::Branch),
            other => Err(shape(format!("unknown event kind `{other}`"))),
        },
        JsonValue::Object(fields) if fields.len() == 1 => {
            let (tag, body) = &fields[0];
            match tag.as_str() {
                "Read" => Ok(EventKind::Read {
                    var: VarId(body.field("var")?.as_u32()?),
                    value: Value(body.field("value")?.as_int()?),
                }),
                "Write" => Ok(EventKind::Write {
                    var: VarId(body.field("var")?.as_u32()?),
                    value: Value(body.field("value")?.as_int()?),
                }),
                "Acquire" => Ok(EventKind::Acquire {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "Release" => Ok(EventKind::Release {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "AcquireRead" => Ok(EventKind::AcquireRead {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "ReleaseRead" => Ok(EventKind::ReleaseRead {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "Send" => Ok(EventKind::Send {
                    chan: ChanId(body.field("chan")?.as_u32()?),
                }),
                "Recv" => Ok(EventKind::Recv {
                    chan: ChanId(body.field("chan")?.as_u32()?),
                }),
                "Notify" => Ok(EventKind::Notify {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "Fork" => Ok(EventKind::Fork {
                    child: ThreadId(body.field("child")?.as_u32()?),
                }),
                "Join" => Ok(EventKind::Join {
                    child: ThreadId(body.field("child")?.as_u32()?),
                }),
                other => Err(shape(format!("unknown event kind `{other}`"))),
            }
        }
        other => Err(shape(format!("bad event kind: {other:?}"))),
    }
}

fn read_key_u32(key: &str) -> Result<u32, JsonError> {
    key.parse::<u32>()
        .map_err(|_| shape(format!("map key `{key}` is not an id")))
}

/// Decodes one event object (`{"thread":N,"kind":K,"loc":N}`), in either
/// wire format.
pub(crate) fn read_event(v: &JsonValue) -> Result<Event, JsonError> {
    Ok(Event {
        thread: ThreadId(v.field("thread")?.as_u32()?),
        kind: read_kind(v.field("kind")?)?,
        loc: Loc(v.field("loc")?.as_u32()?),
    })
}

/// The trace's required metadata keys, in the order a whole-document
/// trace missing several of them reports the first.
pub(crate) const METADATA_KEYS: [&str; 5] = [
    "initial_values",
    "volatiles",
    "wait_links",
    "loc_names",
    "var_names",
];

/// Applies one named metadata field to `data`. Returns `Ok(false)` for an
/// unrecognized key, which the decoder ignores. Shared by both wire
/// formats so a field decodes identically whatever the layout.
pub(crate) fn apply_metadata_field(
    data: &mut TraceData,
    key: &str,
    v: &JsonValue,
) -> Result<bool, JsonError> {
    match key {
        "initial_values" => {
            for (k, v) in v.as_object()? {
                data.initial_values
                    .insert(VarId(read_key_u32(k)?), Value(v.as_int()?));
            }
        }
        "volatiles" => {
            for v in v.as_array()? {
                data.volatiles.push(VarId(v.as_u32()?));
            }
        }
        "wait_links" => {
            for wl in v.as_array()? {
                data.wait_links.push(WaitLink {
                    release: EventId(wl.field("release")?.as_u32()?),
                    acquire: EventId(wl.field("acquire")?.as_u32()?),
                    notify: match wl.field("notify")? {
                        JsonValue::Null => None,
                        v => Some(EventId(v.as_u32()?)),
                    },
                });
            }
        }
        "msg_links" => {
            for ml in v.as_array()? {
                data.msg_links.push(MsgLink {
                    send: EventId(ml.field("send")?.as_u32()?),
                    recv: EventId(ml.field("recv")?.as_u32()?),
                });
            }
        }
        "loc_names" => {
            for (k, v) in v.as_object()? {
                data.loc_names
                    .insert(Loc(read_key_u32(k)?), v.as_str()?.to_string());
            }
        }
        "var_names" => {
            for (k, v) in v.as_object()? {
                data.var_names
                    .insert(VarId(read_key_u32(k)?), v.as_str()?.to_string());
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Checks every wait link references an existing event. Split out of
/// [`from_json`] so the reader-based strict path ([`crate::read_trace`],
/// the CLI's `--stream`) runs the same validation after its parse; an
/// out-of-range id from an untrusted document would otherwise become a
/// panic deep inside detection.
pub fn validate_wait_links(data: &TraceData) -> Result<(), JsonError> {
    let n_events = data.events.len();
    let check = |what: &str, id: EventId| {
        if id.index() < n_events {
            Ok(())
        } else {
            Err(shape(format!(
                "wait link {what} {} out of range (trace has {n_events} events)",
                id.0
            )))
        }
    };
    for wl in &data.wait_links {
        check("release", wl.release)?;
        check("acquire", wl.acquire)?;
        if let Some(n) = wl.notify {
            check("notify", n)?;
        }
    }
    for ml in &data.msg_links {
        let check = |what: &str, id: EventId| {
            if id.index() < n_events {
                Ok(())
            } else {
                Err(shape(format!(
                    "msg link {what} {} out of range (trace has {n_events} events)",
                    id.0
                )))
            }
        };
        check("send", ml.send)?;
        check("recv", ml.recv)?;
        if ml.send >= ml.recv {
            return Err(shape(format!(
                "msg link send {} does not precede recv {}",
                ml.send.0, ml.recv.0
            )));
        }
    }
    Ok(())
}

/// What trace ingestion cost: input size, events decoded, and the time
/// spent parsing — the trace layer's contribution to the `--metrics`
/// report (`trace.ingest.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Input size in bytes.
    pub bytes: usize,
    /// Events decoded.
    pub events: usize,
    /// Wall-clock parse + decode time.
    pub parse_time: std::time::Duration,
}

/// [`from_json`] plus an [`IngestStats`] measurement of the parse.
pub fn from_json_with_stats(input: &str) -> Result<(Trace, IngestStats), JsonError> {
    let start = std::time::Instant::now();
    let trace = from_json(input)?;
    let stats = IngestStats {
        bytes: input.len(),
        events: trace.len(),
        parse_time: start.elapsed(),
    };
    Ok((trace, stats))
}

/// [`from_json_data`] plus an [`IngestStats`] measurement of the parse
/// (for the lenient path; `events` counts decoded events before salvage
/// drops any).
pub fn from_json_data_with_stats(input: &str) -> Result<(TraceData, IngestStats), JsonError> {
    let start = std::time::Instant::now();
    let data = from_json_data(input)?;
    let stats = IngestStats {
        bytes: input.len(),
        events: data.events.len(),
        parse_time: start.elapsed(),
    };
    Ok((data, stats))
}

/// Deserializes a trace from its JSON wire format.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON, on a structurally valid
/// document that does not describe a trace, or on a wait link referencing
/// a nonexistent event.
pub fn from_json(input: &str) -> Result<Trace, JsonError> {
    let data = from_json_data(input)?;
    validate_wait_links(&data)?;
    Ok(Trace::from_data(data))
}

/// Deserializes raw [`TraceData`] without cross-field validation, for
/// lenient ingestion: pair with
/// [`salvage_trace`](crate::salvage::salvage_trace), which drops (and
/// counts) inconsistent events and dangling wait links instead of failing.
///
/// This is the one trace decoder, [`StreamParser`], forced to the
/// whole-document format and fed the input in chunks: no whole-document
/// [`JsonValue`] tree is built. Errors are reported strictly by byte
/// position (see the [`stream`](crate::stream) module docs).
pub fn from_json_data(input: &str) -> Result<TraceData, JsonError> {
    let mut parser = StreamParser::with_format(StreamFormat::Json);
    for chunk in input.as_bytes().chunks(FEED_CHUNK) {
        parser.feed(chunk)?;
    }
    parser.finish()?;
    Ok(parser.into_data())
}

/// A tree-walking trace reader: parse the whole document into one
/// [`JsonValue`], then convert it. The reference the decoder equivalence
/// tests hold [`StreamParser`] and [`from_json_data`] to.
#[cfg(test)]
pub(crate) fn tree_from_json_data(input: &str) -> Result<TraceData, JsonError> {
    let root = parse(input)?;
    let mut data = TraceData::default();
    for ev in root.field("events")?.as_array()? {
        data.events.push(read_event(ev)?);
    }
    for key in METADATA_KEYS {
        apply_metadata_field(&mut data, key, root.field(key)?)?;
    }
    // Optional fields: absent in documents from earlier builds.
    if let Some(v) = root.get("msg_links") {
        apply_metadata_field(&mut data, "msg_links", v)?;
    }
    Ok(data)
}

/// [`from_json`] over the tree reader (see [`tree_from_json_data`]).
#[cfg(test)]
pub(crate) fn tree_from_json(input: &str) -> Result<Trace, JsonError> {
    let data = tree_from_json_data(input)?;
    validate_wait_links(&data)?;
    Ok(Trace::from_data(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    #[test]
    fn nesting_past_the_cap_is_an_error_with_an_offset() {
        let at_cap = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(parse_json(&at_cap).is_ok(), "the cap itself is accepted");
        for deep in ["[".repeat(MAX_NESTING + 1), "[{\"a\":".repeat(200_000)] {
            let e = parse_json(&deep).unwrap_err();
            assert!(e.message.contains("nesting deeper than"), "{e}");
            assert!(e.offset <= 3 * MAX_NESTING, "{e}");
        }
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.volatile_var("why \"quoted\"\n");
        b.initial(x, 7);
        let l = b.new_lock("l");
        let t2 = b.fork(ThreadId::MAIN);
        b.acquire(ThreadId::MAIN, l);
        b.write(ThreadId::MAIN, x, 1);
        b.release(ThreadId::MAIN, l);
        b.acquire(t2, l);
        let tok = b.wait_begin(t2, l);
        let n = b.notify(ThreadId::MAIN, l);
        b.wait_end(tok, Some(n));
        b.read(t2, y, 0);
        b.branch(t2);
        b.join(ThreadId::MAIN, t2);
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let s = to_json(&t);
        let back = from_json(&s).unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.stats(), t.stats());
        assert_eq!(back.wait_links(), t.wait_links());
        assert_eq!(back.data().loc_names, t.data().loc_names);
        assert_eq!(back.data().var_names, t.data().var_names);
        assert_eq!(back.data().initial_values, t.data().initial_values);
        assert_eq!(back.data().volatiles, t.data().volatiles);
    }

    #[test]
    fn accepts_whitespace_and_reordered_fields() {
        let s = r#" {
            "volatiles" : [ 1 ],
            "initial_values" : { "0" : -3 },
            "events" : [
                { "loc" : 0, "thread" : 0, "kind" : { "Write" : { "var" : 0, "value" : 5 } } }
            ],
            "wait_links" : [ ],
            "loc_names" : { },
            "var_names" : { "0" : "xA" }
        } "#;
        let t = from_json(s).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.initial_value(VarId(0)), Value(-3));
        assert!(t.is_volatile(VarId(1)));
        assert_eq!(t.var_name(VarId(0)), Some("xA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"events\":[").is_err());
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"events\":[{\"thread\":0,\"kind\":\"Nope\",\"loc\":0}]}").is_err());
        assert!(from_json("[1,2,3] trailing").is_err());
        let err = from_json("{\"events\": 1.5}").unwrap_err();
        assert!(err.to_string().contains("floating-point"));
    }

    #[test]
    fn syntax_errors_carry_offset_and_snippet() {
        let input = "{\"events\":[{\"thread\":0,\"kind\":\"Oops";
        let err = from_json(input).unwrap_err();
        assert!(err.offset > 0);
        assert!(!err.snippet.is_empty());
        let s = err.to_string();
        assert!(s.contains("at byte"), "{s}");
        assert!(s.contains("near `"), "{s}");
    }

    #[test]
    fn out_of_range_wait_links_rejected() {
        let input = r#"{"events":[{"thread":0,"kind":"Branch","loc":0}],
            "initial_values":{},"volatiles":[],
            "wait_links":[{"release":0,"acquire":99,"notify":null}],
            "loc_names":{},"var_names":{}}"#;
        let err = from_json(input).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // The lenient path parses the same document; salvage then drops
        // the dangling link instead of failing.
        let data = from_json_data(input).unwrap();
        let (trace, report) = crate::salvage::salvage_trace(data);
        assert_eq!(trace.len(), 1);
        assert_eq!(report.dangling_wait_links, 1);
    }

    #[test]
    fn extended_kinds_and_msg_links_roundtrip() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("rw");
        let c = b.new_chan("ch");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire_read(t1, l);
        let s = b.send(t1, c);
        b.release_read(t1, l);
        let r = b.recv(t2, c, Some(s));
        let t = b.finish();
        let json = to_json(&t);
        assert!(json.contains("\"AcquireRead\""), "{json}");
        assert!(json.contains("\"msg_links\""), "{json}");
        let back = from_json(&json).unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.msg_links(), t.msg_links());
        assert_eq!(back.msg_link_of_recv(r).unwrap().send, s);
    }

    #[test]
    fn documents_without_msg_links_still_load() {
        // A document in the pre-msg_links shape (exactly the old five
        // metadata keys) must parse, and its writer output must not grow
        // a msg_links field.
        let s = r#"{"events":[{"thread":0,"kind":"Branch","loc":0}],
            "initial_values":{},"volatiles":[],"wait_links":[],
            "loc_names":{},"var_names":{}}"#;
        let t = from_json(s).unwrap();
        assert!(t.msg_links().is_empty());
        assert!(!to_json(&t).contains("msg_links"));
    }

    #[test]
    fn bad_msg_links_rejected() {
        let base = |links: &str| {
            format!(
                r#"{{"events":[{{"thread":0,"kind":{{"Send":{{"chan":0}}}},"loc":0}},
                    {{"thread":0,"kind":{{"Recv":{{"chan":0}}}},"loc":1}}],
                "initial_values":{{}},"volatiles":[],"wait_links":[],
                "msg_links":{links},"loc_names":{{}},"var_names":{{}}}}"#
            )
        };
        let err = from_json(&base(r#"[{"send":0,"recv":99}]"#)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = from_json(&base(r#"[{"send":1,"recv":0}]"#)).unwrap_err();
        assert!(err.to_string().contains("does not precede"), "{err}");
        assert!(from_json(&base(r#"[{"send":0,"recv":1}]"#)).is_ok());
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let mut b = TraceBuilder::new();
        let v = b.var("变量⟨α⟩");
        b.write(ThreadId::MAIN, v, 1);
        let t = b.finish();
        let back = from_json(&to_json(&t)).unwrap();
        assert_eq!(back.var_name(VarId(0)), Some("变量⟨α⟩"));
    }
}
