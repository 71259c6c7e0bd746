//! A dependency-free JSON reader, the counterpart of [`JsonWriter`].
//!
//! The orchestrator consumes documents other processes wrote — worker
//! `nodefz-metrics-v1` snapshots, `--list --json` arm enumerations — and
//! the workspace cannot pull serde in an offline build, so this module
//! provides the minimal recursive-descent parser those consumers need:
//! every value becomes a [`JsonValue`] tree with path-style accessors.
//!
//! Numbers are held as `f64` (every producer in this workspace emits
//! either small integers or fixed-point floats, both exact in a double's
//! 53-bit mantissa). Parsing is strict about structure — a torn or
//! truncated document fails with the byte offset — which is exactly what
//! a crash-robust reader wants: a half-written snapshot must be an error,
//! never a silently short document.
//!
//! Nesting is capped at [`MAX_DEPTH`] containers, so a hostile or corrupt
//! document is a [`JsonParseError`], never a stack overflow.
//!
//! [`JsonWriter`]: crate::JsonWriter

use std::fmt;

/// Deepest container nesting [`JsonValue::parse`] accepts. Every
/// producer in this workspace nests a handful of levels; the cap only
/// bounds the parser's recursion on hostile input.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order (keys are not deduplicated).
    Obj(Vec<(String, JsonValue)>),
}

/// Why a document failed to parse: a message and the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// What was expected or found.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Parses one complete JSON document; trailing garbage is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] naming the first malformed byte, or
    /// the container that opens past 128 levels of nesting.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (must be whole and
    /// below 2^64). `u64::MAX as f64` rounds up to 2^64 itself, so the
    /// bound is strict: 2^64 would otherwise saturate to `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one container with `parse`, refusing to open more than
    /// [`MAX_DEPTH`] at once.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs in one shot.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                            let code = self.hex4()?;
                            // Surrogate pairs: only the BMP escapes our
                            // writer emits need to round-trip, but accept
                            // pairs for completeness.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(code) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(code))
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u16::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII span");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonParseError {
                message: format!("bad number '{text}'"),
                offset: start,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonWriter;

    #[test]
    fn parses_the_shapes_our_writers_emit() {
        let doc = r#"{"schema": "nodefz-metrics-v1", "runs": 42, "execs_per_sec": 17.5, "finished": true, "arms": [{"app": "KUE", "ucb_bound": null}], "empty": []}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("nodefz-metrics-v1"));
        assert_eq!(v.get("runs").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("execs_per_sec").unwrap().as_f64(), Some(17.5));
        assert_eq!(v.get("finished").unwrap().as_bool(), Some(true));
        let arms = v.get("arms").unwrap().as_array().unwrap();
        assert_eq!(arms[0].get("app").unwrap().as_str(), Some("KUE"));
        assert_eq!(arms[0].get("ucb_bound"), Some(&JsonValue::Null));
        assert_eq!(v.get("empty").unwrap().as_array(), Some(&[][..]));
    }

    #[test]
    fn round_trips_writer_output_with_escapes() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("site", "lost \"3\" of\n12\tjobs\\x\u{1}");
        w.field_f64("score", -0.125, 3);
        w.key("nested");
        w.begin_array();
        w.u64(u64::from(u32::MAX));
        w.bool(false);
        w.null();
        w.end_array();
        w.end_object();
        let v = JsonValue::parse(&w.finish()).unwrap();
        assert_eq!(
            v.get("site").unwrap().as_str(),
            Some("lost \"3\" of\n12\tjobs\\x\u{1}")
        );
        assert_eq!(v.get("score").unwrap().as_f64(), Some(-0.125));
        let nested = v.get("nested").unwrap().as_array().unwrap();
        assert_eq!(nested[0].as_u64(), Some(u64::from(u32::MAX)));
        assert_eq!(nested[1].as_bool(), Some(false));
        assert_eq!(nested[2], JsonValue::Null);
    }

    #[test]
    fn torn_documents_are_errors_not_short_values() {
        // A truncated snapshot (the crash-robustness case) must fail.
        for torn in [
            r#"{"schema": "nodefz-metrics-v1", "runs": 4"#,
            r#"{"arms": [{"app": "KUE"}"#,
            r#"{"s": "unterminat"#,
            "",
            "{} trailing",
            r#"{"a" 1}"#,
            r#"[1, 2,"#,
        ] {
            assert!(JsonValue::parse(torn).is_err(), "accepted torn: {torn:?}");
        }
    }

    #[test]
    fn numbers_and_unicode_edge_cases() {
        let v = JsonValue::parse(r#"[-3, 2.5e2, 0, "é😀"]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(-3.0));
        assert_eq!(items[0].as_u64(), None, "negative is not u64");
        assert_eq!(items[1].as_f64(), Some(250.0));
        assert_eq!(items[2].as_u64(), Some(0));
        assert_eq!(items[3].as_str(), Some("é😀"));
        assert!(JsonValue::parse("[1.5.5]").is_err());
    }

    #[test]
    fn as_u64_rejects_two_to_the_64_and_above() {
        let num = |text: &str| JsonValue::parse(text).unwrap().as_u64();
        // The largest double below 2^64 still converts exactly.
        assert_eq!(
            num("18446744073709549568"),
            Some(18_446_744_073_709_549_568)
        );
        // u64::MAX's decimal spelling parses to the double 2^64.
        assert_eq!(num("18446744073709551615"), None);
        assert_eq!(num("18446744073709551616"), None);
        assert_eq!(num("1e400"), None, "infinity");
        assert_eq!(num("0.5"), None);
        assert!(JsonValue::parse(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let err = JsonValue::parse(&open.repeat(200_000)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "{err}");
            assert!(err.message.contains("nesting"), "{err}");
            let at_cap = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            JsonValue::parse(&at_cap).expect("a document exactly at the cap parses");
        }
    }

    #[test]
    fn errors_carry_a_useful_offset() {
        let err = JsonValue::parse(r#"{"a": }"#).unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"), "{err}");
    }
}
