//! Minimal JSON reader for the `dvs_admitd` wire protocol.
//!
//! The workspace builds offline with zero external dependencies, so the
//! serving front-end cannot use serde. Requests are single-line JSON
//! objects with primitive values; this module parses exactly that subset —
//! one top-level object whose values are null, booleans, numbers, strings,
//! or flat arrays of those primitives. Nested objects are rejected: the
//! protocol never produces them in *requests* (responses may nest, but the
//! server only ever writes those).
//!
//! ```
//! use dvs_admit::json::{parse_object, JsonValue};
//!
//! let kv = parse_object(r#"{"op":"arrive","id":3,"cycles":30.0}"#).unwrap();
//! assert_eq!(kv[0], ("op".to_string(), JsonValue::Str("arrive".to_string())));
//! assert_eq!(kv[1].1.as_f64(), Some(3.0));
//! ```

use std::fmt;

/// A primitive JSON value (plus flat arrays of primitives).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array (flat in protocol position; nested via
    /// [`parse_document`]).
    Arr(Vec<JsonValue>),
    /// An object — only ever produced by [`parse_document`];
    /// [`parse_object`] rejects nesting.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Error raised on malformed protocol JSON, with the byte offset of the
/// first offending character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset in the input line.
    pub at: usize,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: expected {}", self.at, self.expected)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting cap for [`parse_document`]: deep enough for any report this
/// workspace emits, shallow enough to bound the stack.
const DOCUMENT_DEPTH: usize = 64;

/// The one scanner behind [`parse_object`], [`parse_object_into`] and
/// [`parse_document`]; the entry points differ only in how much nesting
/// they allow.
struct Cursor<'a, 'p> {
    text: &'a str,
    pos: usize,
    /// Whether objects may nest below the top-level value (documents);
    /// protocol lines only nest flat arrays.
    nested_objects: bool,
    /// Recycled `String` allocations to draw from when decoding strings
    /// (see [`Scratch`]); `None` outside the steady-state protocol path.
    pool: Option<&'p mut Vec<String>>,
}

impl Cursor<'_, '_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, expected: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn err(&self, expected: &'static str) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            expected,
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Linear in the string's length: the runs between quotes and
    /// backslashes are copied whole. Both delimiters are ASCII and the
    /// input is a `&str`, so every run boundary is a character boundary
    /// and nothing needs re-validating.
    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"', "string")?;
        let mut out = match self.pool.as_mut().and_then(|p| p.pop()) {
            Some(mut recycled) => {
                recycled.clear();
                recycled
            }
            None => String::new(),
        };
        loop {
            let rest = &self.text[self.pos..];
            let run =
                rest.bytes()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .ok_or(JsonParseError {
                        at: self.text.len(),
                        expected: "closing quote",
                    })?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("escape character"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("4 hex digits"))?;
                    self.pos += 4;
                    out.push(char::from_u32(hex).ok_or_else(|| self.err("scalar value"))?);
                }
                _ => return Err(self.err("valid escape")),
            }
        }
    }

    fn number(&mut self) -> Result<f64, JsonParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or(JsonParseError {
                at: start,
                expected: "number",
            })
    }

    /// One value with at most `room` levels of containers beneath it.
    fn value(&mut self, room: usize) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("value"))? {
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b'[' if room > 0 => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value(room - 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => return Err(self.err("',' or ']'")),
                    }
                }
            }
            b'{' if room > 0 && self.nested_objects => {
                let mut pairs = Vec::new();
                self.object(room - 1, &mut pairs)?;
                Ok(JsonValue::Obj(pairs))
            }
            b'[' | b'{' if self.nested_objects => Err(self.err("shallower nesting")),
            b't' | b'f' => {
                if self.literal("true") {
                    Ok(JsonValue::Bool(true))
                } else if self.literal("false") {
                    Ok(JsonValue::Bool(false))
                } else {
                    Err(self.err("boolean"))
                }
            }
            b'n' => {
                if self.literal("null") {
                    Ok(JsonValue::Null)
                } else {
                    Err(self.err("null"))
                }
            }
            _ => self.number().map(JsonValue::Num),
        }
    }

    /// One object, its values allowed `room` levels of containers, pushed
    /// onto `out` in document order.
    fn object(
        &mut self,
        room: usize,
        out: &mut Vec<(String, JsonValue)>,
    ) -> Result<(), JsonParseError> {
        self.eat(b'{', "'{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            let value = self.value(room)?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn end(&mut self, expected: &'static str) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }
}

/// Parses one complete JSON document of arbitrary (bounded) nesting.
/// Unlike [`parse_object`] this accepts nested objects and arrays — use it
/// for trusted on-disk documents, never for protocol input.
///
/// # Errors
///
/// [`JsonParseError`] with the byte offset of the first offense.
pub fn parse_document(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut c = Cursor {
        text,
        pos: 0,
        nested_objects: true,
        pool: None,
    };
    let value = c.value(DOCUMENT_DEPTH)?;
    c.end("end of document")?;
    Ok(value)
}

/// Parses one flat JSON object, returning its key/value pairs in document
/// order (duplicate keys are kept; callers take the first match).
///
/// # Errors
///
/// [`JsonParseError`] with the byte offset of the first offense; nested
/// objects are an offense by design (see the [module docs](self)).
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, JsonParseError> {
    let mut out = Vec::new();
    parse_object_impl(line, &mut out, None)?;
    Ok(out)
}

fn parse_object_impl(
    line: &str,
    out: &mut Vec<(String, JsonValue)>,
    pool: Option<&mut Vec<String>>,
) -> Result<(), JsonParseError> {
    let mut c = Cursor {
        text: line,
        pos: 0,
        nested_objects: false,
        pool,
    };
    c.skip_ws();
    // Values may be flat arrays: one level of containers, no objects.
    c.object(1, out)?;
    c.end("end of line")
}

/// Reusable parse buffers for the steady-state protocol path.
///
/// The serving loop parses one request line per iteration; allocating a
/// fresh pair vector and fresh key/value `String`s for every line is pure
/// churn. A `Scratch` owns both and recycles them: the pair vector keeps
/// its capacity across lines, and every `String` it held is returned to a
/// bounded pool that [`parse_object_into`] draws from before touching the
/// allocator. After the first few lines of a session, parsing a typical
/// request performs no heap allocation at all.
#[derive(Debug, Default)]
pub struct Scratch {
    pairs: Vec<(String, JsonValue)>,
    pool: Vec<String>,
}

/// Upper bound on pooled strings: protocol requests carry a handful of
/// keys and at most one or two string values, so anything beyond this is
/// a hostile or malformed line whose allocations we'd rather release.
const SCRATCH_POOL_CAP: usize = 64;

fn recycle_value(value: JsonValue, pool: &mut Vec<String>) {
    match value {
        JsonValue::Str(s) if pool.len() < SCRATCH_POOL_CAP => pool.push(s),
        JsonValue::Arr(items) => {
            for item in items {
                recycle_value(item, pool);
            }
        }
        JsonValue::Obj(pairs) => {
            for (key, item) in pairs {
                if pool.len() < SCRATCH_POOL_CAP {
                    pool.push(key);
                }
                recycle_value(item, pool);
            }
        }
        _ => {}
    }
}

/// [`parse_object`], but reusing `scratch`'s buffers instead of
/// allocating. Returns the parsed pairs as a borrow of `scratch`; the
/// previous call's pairs are recycled first, so at most one parsed line
/// is alive per `Scratch`.
///
/// # Errors
///
/// Exactly as [`parse_object`] (the scratch state stays reusable after an
/// error).
pub fn parse_object_into<'s>(
    line: &str,
    scratch: &'s mut Scratch,
) -> Result<&'s [(String, JsonValue)], JsonParseError> {
    let Scratch { pairs, pool } = scratch;
    for (key, value) in pairs.drain(..) {
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(key);
        }
        recycle_value(value, pool);
    }
    parse_object_impl(line, pairs, Some(pool))?;
    Ok(pairs)
}

/// Looks up `key` in parsed pairs (first occurrence).
#[must_use]
pub fn get<'a>(pairs: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    let _ = write!(out, "{}", Escaped(s));
    out
}

/// A string written as the contents of a JSON string literal: [`escape`]
/// without the allocation. Runs of characters that need no escaping are
/// written whole.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Escaped<'a>(pub(crate) &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(at) = rest
            .bytes()
            .position(|b| b < 0x20 || matches!(b, b'"' | b'\\'))
        {
            f.write_str(&rest[..at])?;
            match rest.as_bytes()[at] {
                b'"' => f.write_str("\\\""),
                b'\\' => f.write_str("\\\\"),
                b'\n' => f.write_str("\\n"),
                b'\r' => f.write_str("\\r"),
                b'\t' => f.write_str("\\t"),
                control => write!(f, "\\u{control:04x}"),
            }?;
            rest = &rest[at + 1..];
        }
        f.write_str(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shapes() {
        let kv = parse_object(r#" {"op":"arrive","at":1.5,"id":3,"cycles":30.0,"deadline":null} "#)
            .unwrap();
        assert_eq!(get(&kv, "op").unwrap().as_str(), Some("arrive"));
        assert_eq!(get(&kv, "at").unwrap().as_f64(), Some(1.5));
        assert_eq!(get(&kv, "deadline"), Some(&JsonValue::Null));
        assert_eq!(get(&kv, "missing"), None);
    }

    #[test]
    fn parses_arrays_booleans_and_escapes() {
        let kv = parse_object(r#"{"xs":[1,2.5,-3e2],"flag":true,"s":"a\"b\né"}"#).unwrap();
        assert_eq!(
            get(&kv, "xs"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Num(-300.0)
            ]))
        );
        assert_eq!(get(&kv, "flag"), Some(&JsonValue::Bool(true)));
        assert_eq!(get(&kv, "s").unwrap().as_str(), Some("a\"b\né"));
    }

    #[test]
    fn empty_object_and_errors() {
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object("").is_err());
        assert!(parse_object("{\"a\":1} trailing").is_err());
        assert!(
            parse_object("{\"a\":{}}").is_err(),
            "nested objects rejected"
        );
        assert!(
            parse_object("{\"a\":[[1]]}").is_err(),
            "nested arrays rejected"
        );
        assert!(parse_object("{\"a\":Infinity}").is_err());
        let err = parse_object("{\"a\"").unwrap_err();
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn document_parser_handles_nesting() {
        let doc = parse_document(
            "{\n  \"version\": 3,\n  \"tables\": [{\"a\": 1, \"b\": [1, 2]}, {\"a\": 2}]\n}\n",
        )
        .unwrap();
        let pairs = doc.as_obj().unwrap();
        assert_eq!(get(pairs, "version").unwrap().as_f64(), Some(3.0));
        let tables = get(pairs, "tables").unwrap().as_arr().unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(
            get(tables[0].as_obj().unwrap(), "b")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        assert!(parse_document("{\"a\":1} x").is_err());
        let deep = format!("{}1{}", "[".repeat(80), "]".repeat(80));
        assert!(parse_document(&deep).is_err(), "depth cap enforced");
    }

    #[test]
    fn scratch_parse_matches_fresh_parse_and_survives_errors() {
        let mut scratch = Scratch::default();
        let lines = [
            r#"{"op":"arrive","at":1.5,"id":3,"cycles":30.0,"penalty":2.5}"#,
            r#"{"op":"tick","at":2.0}"#,
            r#"{"op":"depart","at":3.0,"id":3,"tags":["a","b"]}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"tick","at":2.5}"#,
        ];
        for line in lines {
            let reused = parse_object_into(line, &mut scratch).unwrap().to_vec();
            assert_eq!(reused, parse_object(line).unwrap(), "{line}");
        }
        // A parse error leaves the scratch reusable.
        assert!(parse_object_into("not json", &mut scratch).is_err());
        let kv = parse_object_into(r#"{"op":"tick","at":9}"#, &mut scratch).unwrap();
        assert_eq!(get(kv, "op").unwrap().as_str(), Some("tick"));
        assert_eq!(get(kv, "at").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let raw = "tab\t quote\" back\\ nl\n";
        let line = format!("{{\"s\":\"{}\"}}", escape(raw));
        let kv = parse_object(&line).unwrap();
        assert_eq!(get(&kv, "s").unwrap().as_str(), Some(raw));
        // Random strings over the characters that stress the scanner:
        // both delimiters, control characters, multi-byte scalars.
        const ALPHABET: [char; 12] = [
            'a', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', 'τ', '∑', '🦀',
        ];
        let mut rng = rt_model::rng::Rng::seed_from_u64(16);
        for _ in 0..500 {
            let raw: String = (0..rng.gen_index(40))
                .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())])
                .collect();
            let line = format!("{{\"s\":\"{}\"}}", escape(&raw));
            let kv = parse_object(&line).unwrap();
            assert_eq!(
                get(&kv, "s").unwrap().as_str(),
                Some(raw.as_str()),
                "{line}"
            );
            assert_eq!(parse_document(&line).unwrap(), JsonValue::Obj(kv));
        }
    }

    #[test]
    fn a_multi_megabyte_escaped_log_parses_in_linear_time() {
        // The shape of a big `log` reply: one decision line per event,
        // every newline escaped.
        let mut log = String::new();
        while log.len() < 4 << 20 {
            log.push_str("t=1234.5 τ17 accepted@3\n");
        }
        let line = format!("{{\"ok\":true,\"log\":\"{}\"}}", escape(&log));
        let started = std::time::Instant::now();
        let kv = parse_object(&line).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(get(&kv, "log").unwrap().as_str(), Some(log.as_str()));
        // A scanner that re-validates the rest of the input per character
        // needs minutes for this; a linear one needs milliseconds.
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn strings_keep_multibyte_text_next_to_escapes() {
        let kv = parse_object(r#"{"s":"τ\"é\\∑\n🦀\t","τ\"k":"é"}"#).unwrap();
        assert_eq!(get(&kv, "s").unwrap().as_str(), Some("τ\"é\\∑\n🦀\t"));
        assert_eq!(get(&kv, "τ\"k").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn unicode_escapes_decode_or_fail_with_their_offset() {
        let kv = parse_object(r#"{"s":"\u0041\u00e9\u03c4\u001f"}"#).unwrap();
        assert_eq!(get(&kv, "s").unwrap().as_str(), Some("Aéτ\u{1f}"));
        for bad in [
            r#"{"s":"\u12"}"#,   // short
            r#"{"s":"\u12é4"}"#, // not hex, and not on a character boundary
            r#"{"s":"\ud800"}"#, // a lone surrogate is no scalar value
            r#"{"s":"\x41"}"#,   // unknown escape
        ] {
            assert!(parse_object(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unterminated_strings_are_errors_at_end_of_input() {
        for bad in [r#"{"s":"abc"#, r#"{"s":"abc\"#, r#"{"s":"abc\""#, r#"{"s"#] {
            let err = parse_object(bad).unwrap_err();
            assert_eq!(err.at, bad.len(), "{bad}");
            assert!(parse_document(bad).is_err(), "{bad}");
        }
    }
}
