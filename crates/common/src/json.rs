//! A small, self-contained JSON value model, reader and writer.
//!
//! The paper stores each record's value as a JSON object
//! (`{"UserID": "u1", "Text": "..."}`) and serializes stand-alone posting
//! lists as JSON arrays. `serde_json` is outside the approved dependency
//! set, so we implement the needed subset here: objects, arrays, strings,
//! 64-bit integers, floats, booleans and null, with standard escape
//! handling. The grammar is RFC 8259's: exactly four hex digits in a
//! `\u` escape, no leading zero before another digit, a digit on each
//! side of a decimal point.
//!
//! One [`Reader`] holds that grammar, and every parse runs in time linear
//! in its input. Three things read JSON through it:
//! - [`Value::parse`] builds a [`Value`] tree;
//! - [`extract_many`] reads a few top-level members of an object in one
//!   pass, skipping (and still validating) every other value without
//!   building anything — what the engine does on every flush, compaction,
//!   validation and Embedded block scan;
//! - the posting-list codec (`ldbpp-core`) decodes straight into its own
//!   types with [`Reader::array`] and [`Reader::scalar`].
//!
//! Each of them accepts and rejects exactly the inputs [`Value::parse`]
//! does. Numbers that are integral round-trip through [`Value::Int`] so
//! that sequence numbers and timestamps survive exactly.

use crate::error::{Error, Result};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integral number (preserves full i64 precision).
    Int(i64),
    /// Non-integral number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with deterministic (sorted) key order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn object<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Get a field of an object, if this is an object and the field exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// View as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as i64 if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// View as array slice if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable array access.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Insert into an object; returns the previous value if any.
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        match self {
            Value::Object(m) => m.insert(key.into(), value),
            _ => panic!("insert on non-object JSON value"),
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Parse a JSON document. The entire input must be consumed (modulo
    /// trailing whitespace).
    pub fn parse(input: &str) -> Result<Value> {
        let mut r = Reader::new(input.as_bytes());
        let v = r.value(0)?;
        r.finish()?;
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                let s = format!("{x}");
                out.push_str(&s);
                // Ensure it re-parses as a float, not an int.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Append `s` to `out` as a quoted JSON string — the one escaping every
/// writer in the workspace uses.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A string or integer read by [`Reader::scalar`] or [`extract_many`]: the
/// two JSON types a secondary attribute can have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scalar {
    /// A string.
    Str(String),
    /// An integral number that fits an `i64`.
    Int(i64),
}

/// Read the top-level members `keys` of the JSON object in `bytes`, in one
/// pass, without building a [`Value`].
///
/// Entry `i` of the result is the member named `keys[i]` if it is a string
/// or an integer, and `None` if it is absent or of another type. The
/// values of other members are skipped without allocating, but validated:
/// the input is rejected exactly when it is not UTF-8 or [`Value::parse`]
/// rejects it, and a
/// well-formed value that is not an object is an invalid argument. When a
/// key repeats, its last occurrence wins, as in [`Value::Object`].
pub fn extract_many<K: AsRef<str>>(bytes: &[u8], keys: &[K]) -> Result<Vec<Option<Scalar>>> {
    let mut out = vec![None; keys.len()];
    let mut r = Reader::new(bytes);
    if r.peek() != Some(b'{') {
        r.skip_value(0)?;
        r.finish()?;
        return Err(Error::invalid("document must be a JSON object"));
    }
    r.object(0, |r, key| {
        let mut wanted = (0..keys.len()).filter(|&i| keys[i].as_ref() == key);
        let Some(first) = wanted.next() else {
            return r.skip_value(1);
        };
        let v = r.scalar(1)?;
        for i in wanted {
            out[i] = v.clone();
        }
        out[first] = v;
        Ok(())
    })?;
    r.finish()?;
    Ok(out)
}

const MAX_DEPTH: usize = 128;

/// A cursor over JSON text: the one grammar behind [`Value::parse`],
/// [`extract_many`] and the posting-list codec.
///
/// Every method skips leading whitespace, consumes one grammar element and
/// validates all of it. `depth` arguments count nesting from 0 at the top
/// level; past 128 a value is rejected, as a [`Value`] parse rejects it.
/// Strings are scanned run by run — up to the next `"`, `\` or control
/// byte — and each run is UTF-8-checked once, so every read is linear in
/// the bytes it consumes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Skip whitespace and return the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// Fail unless nothing but whitespace remains.
    pub fn finish(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(Error::corruption(format!(
                "trailing characters at byte {} in JSON",
                self.pos
            ))),
        }
    }

    /// Read an array, calling `f(reader, index)` for each element; `f`
    /// must consume exactly that element (at nesting `depth + 1`).
    pub fn array(
        &mut self,
        depth: usize,
        mut f: impl FnMut(&mut Self, usize) -> Result<()>,
    ) -> Result<()> {
        check_depth(depth)?;
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let mut index = 0;
        loop {
            f(self, index)?;
            index += 1;
            if self.end_of_item(b']')? {
                return Ok(());
            }
        }
    }

    /// Read an object, calling `f(reader, key)` for each member; `f` must
    /// consume exactly that member's value (at nesting `depth + 1`).
    fn object(
        &mut self,
        depth: usize,
        mut f: impl FnMut(&mut Self, Cow<'a, str>) -> Result<()>,
    ) -> Result<()> {
        check_depth(depth)?;
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            f(self, key)?;
            if self.end_of_item(b'}')? {
                return Ok(());
            }
        }
    }

    /// Read one value at nesting `depth`: a string or an integer that fits
    /// an `i64` is returned, anything else is validated, skipped and
    /// reported as `None`.
    pub fn scalar(&mut self, depth: usize) -> Result<Option<Scalar>> {
        check_depth(depth)?;
        match self.peek() {
            Some(b'"') => Ok(Some(Scalar::Str(self.string()?.into_owned()))),
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Number::Int(i) => Some(Scalar::Int(i)),
                Number::Float(_) => None,
            }),
            _ => self.skip_value(depth).map(|()| None),
        }
    }

    /// Validate and skip one value at nesting `depth`, allocating nothing
    /// but the decoded text of object keys that contain escapes.
    fn skip_value(&mut self, depth: usize) -> Result<()> {
        check_depth(depth)?;
        match self.peek() {
            Some(b'{') => self.object(depth, |r, _| r.skip_value(depth + 1)),
            Some(b'[') => self.array(depth, |r, _| r.skip_value(depth + 1)),
            Some(b'"') => self.scan_string(None).map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.literal().map(drop),
        }
    }

    /// Build the [`Value`] tree of one value at nesting `depth`.
    fn value(&mut self, depth: usize) -> Result<Value> {
        check_depth(depth)?;
        Ok(match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(depth, |r, key| {
                    map.insert(key.into_owned(), r.value(depth + 1)?);
                    Ok(())
                })?;
                Value::Object(map)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(depth, |r, _| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            Some(b'"') => Value::Str(self.string()?.into_owned()),
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::Int(i) => Value::Int(i),
                Number::Float(x) => Value::Float(x),
            },
            _ => match self.literal()? {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            },
        })
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::corruption(format!(
                "expected '{}' at byte {} in JSON",
                b as char, self.pos
            )))
        }
    }

    /// After an array element or object member: consume the `,` before the
    /// next one (false) or the closing bracket (true).
    fn end_of_item(&mut self, close: u8) -> Result<bool> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(Error::corruption(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            ))),
        }
    }

    /// `true`, `false` (as `Some`) or `null` (as `None`).
    fn literal(&mut self) -> Result<Option<bool>> {
        let rest = &self.bytes[self.pos..];
        for (text, v) in [
            (&b"true"[..], Some(true)),
            (b"false", Some(false)),
            (b"null", None),
        ] {
            if rest.starts_with(text) {
                self.pos += text.len();
                return Ok(v);
            }
        }
        Err(match rest.first() {
            Some(c) => {
                Error::corruption(format!("unexpected byte 0x{c:02x} at {} in JSON", self.pos))
            }
            None => Error::corruption("unexpected end of JSON"),
        })
    }

    /// A string, borrowed from the input when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        let mut decoded = String::new();
        Ok(match self.scan_string(Some(&mut decoded))? {
            Some(raw) => Cow::Borrowed(raw),
            None => Cow::Owned(decoded),
        })
    }

    /// Scan one string. Returns its body when it holds no escape;
    /// otherwise the decoded text goes to `out` (when given) and the
    /// result is `None`.
    fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<Option<&'a str>> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut escaped = false;
        loop {
            let start = self.pos;
            let len = bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| Error::corruption("unterminated JSON string"))?;
            let end = start + len;
            let run = std::str::from_utf8(&bytes[start..end])
                .map_err(|_| Error::corruption("invalid UTF-8 in JSON string"))?;
            self.pos = end + 1;
            match bytes[end] {
                b'"' if !escaped => return Ok(Some(run)),
                b'"' => {
                    if let Some(out) = out.as_deref_mut() {
                        out.push_str(run);
                    }
                    return Ok(None);
                }
                b'\\' => {
                    escaped = true;
                    let c = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push_str(run);
                        out.push(c);
                    }
                }
                _ => return Err(Error::corruption("unescaped control character")),
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char> {
        let esc = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| Error::corruption("truncated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let cp = self.hex4()?;
                let cp = if (0xd800..0xdc00).contains(&cp) {
                    // A high surrogate must be followed by a low one.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(Error::corruption("lone high surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(Error::corruption("bad low surrogate"));
                    }
                    0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00)
                } else if (0xdc00..0xe000).contains(&cp) {
                    return Err(Error::corruption("lone low surrogate"));
                } else {
                    cp
                };
                char::from_u32(cp).ok_or_else(|| Error::corruption("bad codepoint"))?
            }
            _ => return Err(Error::corruption("bad escape character")),
        })
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::corruption("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let n = char::from(d)
                .to_digit(16)
                .ok_or_else(|| Error::corruption("bad \\u escape"))?;
            v = v * 16 + n;
        }
        self.pos += 4;
        Ok(v)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Number> {
        let start = self.pos;
        self.eat(b'-');
        let int_digits = self.digits();
        let bad = || Error::corruption(format!("bad number at byte {start} in JSON"));
        if int_digits == 0 || (int_digits > 1 && self.bytes[self.pos - int_digits] == b'0') {
            return Err(bad());
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            is_float = true;
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        // Only ASCII digits, signs, '.' and exponents were consumed.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| bad())?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        text.parse::<f64>().map(Number::Float).map_err(|_| bad())
    }

    /// Consume `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let n = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += n;
        n
    }
}

enum Number {
    Int(i64),
    Float(f64),
}

fn check_depth(depth: usize) -> Result<()> {
    if depth > MAX_DEPTH {
        Err(Error::corruption("JSON nesting too deep"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parse_tweet_like_object() {
        let doc = r#"{"UserID": "u42", "Text": "hello world", "CreationTime": 1528070400}"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(v.get("UserID").unwrap().as_str(), Some("u42"));
        assert_eq!(v.get("CreationTime").unwrap().as_int(), Some(1528070400));
        assert!(v.get("Missing").is_none());
    }

    #[test]
    fn posting_list_roundtrip() {
        // The Stand-Alone indexes serialize posting lists as JSON arrays of
        // [primary_key, seq] pairs.
        let list = Value::Array(vec![
            Value::Array(vec![Value::str("t4"), Value::Int(9)]),
            Value::Array(vec![Value::str("t1"), Value::Int(2)]),
        ]);
        let text = list.to_json();
        assert_eq!(text, r#"[["t4",9],["t1",2]]"#);
        assert_eq!(Value::parse(&text).unwrap(), list);
    }

    #[test]
    fn escapes_roundtrip() {
        let s = Value::str("a\"b\\c\nd\te\u{08}\u{0c}\r \u{1} é 😀");
        let text = s.to_json();
        assert_eq!(Value::parse(&text).unwrap(), s);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Value::parse(r#""é""#).unwrap(), Value::str("é"));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(Value::parse(r#""😀""#).unwrap(), Value::str("😀"));
        assert!(Value::parse(r#""\ud83d""#).is_err());
        assert!(Value::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"abc",
            "{\"a\" 1}",
            "[1 2]",
            "nul",
            "{'a':1}",
            "01x",
            // RFC 8259: exactly four hex digits in a \u escape ...
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u004\"",
            // ... no leading zero before another digit ...
            "01",
            "-01",
            "00",
            "[01]",
            // ... and at least one digit on each side of '.'.
            "1.",
            "1.e3",
            "-.5",
            ".5",
            "-",
            "1e",
            "1e+",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Value::parse("42 junk").is_err());
        assert!(Value::parse("{} {}").is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(
            v,
            Value::object([
                ("a", Value::Array(vec![Value::Int(1), Value::Int(2)])),
                ("b", Value::Null),
            ])
        );
    }

    #[test]
    fn object_key_order_is_deterministic() {
        let v1 = Value::parse(r#"{"b":1,"a":2}"#).unwrap();
        let v2 = Value::parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(v1.to_json(), v2.to_json());
    }

    #[test]
    fn int_precision_preserved() {
        let big = i64::MAX;
        let text = Value::Int(big).to_json();
        assert_eq!(Value::parse(&text).unwrap().as_int(), Some(big));
        let small = i64::MIN;
        let text = Value::Int(small).to_json();
        assert_eq!(Value::parse(&text).unwrap().as_int(), Some(small));
    }

    #[test]
    fn float_writes_reparse_as_float() {
        let v = Value::Float(2.0);
        let text = v.to_json();
        assert_eq!(Value::parse(&text).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn as_f64_covers_both_numbers() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(3.25).as_f64(), Some(3.25));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn accepts_rfc_numbers_and_escapes() {
        assert_eq!(Value::parse("0").unwrap(), Value::Int(0));
        assert_eq!(Value::parse("-0").unwrap(), Value::Int(0));
        assert_eq!(Value::parse("10").unwrap(), Value::Int(10));
        assert_eq!(Value::parse("0.5").unwrap(), Value::Float(0.5));
        assert_eq!(Value::parse("-0.5e1").unwrap(), Value::Float(-5.0));
        assert_eq!(Value::parse("0e1").unwrap(), Value::Float(0.0));
        assert_eq!(Value::parse("1E+2").unwrap(), Value::Float(100.0));
        assert_eq!(
            Value::parse(r#""\u0041\u00E9é""#).unwrap(),
            Value::str("Aéé")
        );
        assert_eq!(Value::parse(r#""\ud83d\ude00""#).unwrap(), Value::str("😀"));
        assert_eq!(Value::parse(r#""a\/b""#).unwrap(), Value::str("a/b"));
    }

    #[test]
    fn rejects_bad_bytes_in_strings() {
        assert!(Value::parse("\"a\u{1}b\"").is_err());
        assert!(Value::parse("\"a\nb\"").is_err());
        let mut r = Reader::new(b"\"\xff\"");
        assert!(r.skip_value(0).is_err());
        assert!(extract_many(b"{\"a\":\"\xc3\"}", &["b"]).is_err());
    }

    /// Parsing is linear in the input: a 1 MiB string and a 10 000-element
    /// array of pairs finish far inside the bound even in a debug build (a
    /// parser that re-validates the rest of the input per character needs
    /// hours for the first).
    #[test]
    fn parse_time_is_linear() {
        let bound = std::time::Duration::from_secs(5);
        let start = std::time::Instant::now();
        let text = format!("\"{}\\n{}\"", "x".repeat(1 << 19), "é".repeat(1 << 18));
        assert_eq!(text.len(), (1 << 20) + 4);
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.as_str().map(str::len), Some((1 << 20) + 1));
        let list = Value::Array(
            (0..10_000)
                .map(|i| Value::Array(vec![Value::str(format!("t{i}")), Value::Int(i)]))
                .collect(),
        );
        assert_eq!(Value::parse(&list.to_json()).unwrap(), list);
        assert!(start.elapsed() < bound, "took {:?}", start.elapsed());
    }

    #[test]
    fn extract_many_reads_top_level_scalars() {
        let doc = br#"{"UserID": "u1", "Text": {"UserID": "inner"}, "N": 7, "F": 1.5, "L": [1]}"#;
        let got = extract_many(doc, &["UserID", "N", "F", "L", "Missing", "N"]).unwrap();
        assert_eq!(
            got,
            vec![
                Some(Scalar::Str("u1".into())),
                Some(Scalar::Int(7)),
                None,
                None,
                None,
                Some(Scalar::Int(7)),
            ]
        );
        // The last occurrence of a repeated key wins, whatever its type.
        let dup = br#"{"a":1,"a":"x","b":"y","b":[2]}"#;
        assert_eq!(
            extract_many(dup, &["a", "b"]).unwrap(),
            vec![Some(Scalar::Str("x".into())), None]
        );
        // Keys are compared decoded.
        assert_eq!(
            extract_many(br#"{"\u0061":3}"#, &["a"]).unwrap(),
            vec![Some(Scalar::Int(3))]
        );
    }

    #[test]
    fn extract_many_rejects_what_parse_rejects() {
        // Invalid values of members nobody asked for still reject.
        for bad in [
            &br#"{"a":1,"b":01}"#[..],
            br#"{"a":1,"b":"\u+041"}"#,
            br#"{"a":1,"b":[1,]}"#,
            br#"{"a":1,"b":tru}"#,
            br#"{"a":1} x"#,
            br#"{"a":1,}"#,
            b"",
        ] {
            let e = extract_many(bad, &["a"]).unwrap_err();
            assert!(e.is_corruption(), "{bad:?}: {e}");
        }
        // Well-formed JSON that is not an object is an invalid argument.
        for not_object in [&b"[1,2]"[..], b"3", b"\"s\"", b" null "] {
            let e = extract_many(not_object, &["a"]).unwrap_err();
            assert!(
                matches!(e, Error::InvalidArgument(_)),
                "{not_object:?}: {e}"
            );
        }
    }

    /// What `extract_many` answers for `keys`, computed from the `Value`
    /// tree instead.
    fn extract_via_value(bytes: &[u8], keys: &[&str]) -> Result<Vec<Option<Scalar>>> {
        let text = std::str::from_utf8(bytes).map_err(|_| Error::corruption("not UTF-8"))?;
        let v = Value::parse(text)?;
        if !matches!(v, Value::Object(_)) {
            return Err(Error::invalid("not an object"));
        }
        Ok(keys
            .iter()
            .map(|k| match v.get(k) {
                Some(Value::Str(s)) => Some(Scalar::Str(s.clone())),
                Some(Value::Int(i)) => Some(Scalar::Int(*i)),
                _ => None,
            })
            .collect())
    }

    /// Mutate `text` at positions and bytes drawn from `seed`: a
    /// truncation, a byte flip, an inserted byte from a JSON-ish
    /// alphabet, or a deleted byte.
    fn mutate(text: &[u8], seed: u64) -> Vec<u8> {
        let mut rng = TestRng::for_case("json::mutate", seed);
        let mut out = text.to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(out.len() as u64 + 1) as usize;
            match rng.below(4) {
                0 => out.truncate(at),
                1 if at < out.len() => out[at] ^= 1 << rng.below(8),
                2 => {
                    const ALPHABET: &[u8] = b"{}[]:,\"\\u0123456789.eE+-tfn \t\n\x01\xc3\xa9\xff";
                    out.insert(at, ALPHABET[rng.below(ALPHABET.len() as u64) as usize]);
                }
                _ if at < out.len() => {
                    out.remove(at);
                }
                _ => {}
            }
        }
        out
    }

    fn same_outcome(bytes: &[u8], keys: &[&str]) {
        let fast = extract_many(bytes, keys);
        let slow = extract_via_value(bytes, keys);
        match (&fast, &slow) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{:?}", String::from_utf8_lossy(bytes)),
            (Err(a), Err(b)) => assert_eq!(
                a.is_corruption(),
                b.is_corruption(),
                "{:?}: {a} vs {b}",
                String::from_utf8_lossy(bytes)
            ),
            _ => panic!(
                "{:?}: extract_many {fast:?}, Value::parse {slow:?}",
                String::from_utf8_lossy(bytes)
            ),
        }
    }

    fn arb_json(depth: u32) -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only; NaN/inf are written as null.
            (-1.0e15f64..1.0e15).prop_map(|f| if f.fract() == 0.0 {
                Value::Float(f + 0.5)
            } else {
                Value::Float(f)
            }),
            "[a-zA-Z0-9 _\\-\"\\\\\n\t]{0,20}".prop_map(Value::Str),
        ];
        if depth == 0 {
            leaf.boxed()
        } else {
            prop_oneof![
                leaf.clone(),
                proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Value::Array),
                proptest::collection::btree_map("[a-z]{1,8}", arb_json(depth - 1), 0..4)
                    .prop_map(Value::Object),
            ]
            .boxed()
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in arb_json(3)) {
            let text = v.to_json();
            let parsed = Value::parse(&text).unwrap();
            prop_assert_eq!(parsed, v);
        }

        #[test]
        fn prop_parser_never_panics(s in "\\PC{0,64}") {
            let _ = Value::parse(&s);
        }
        #[test]
        fn prop_extract_many_agrees_with_value_parse(
            v in proptest::collection::btree_map("[a-e]{1,2}", arb_json(2), 0..6),
            seed in any::<u64>()
        ) {
            let text = Value::Object(v).to_json();
            let keys = ["a", "b", "ab", "e", "zz"];
            same_outcome(text.as_bytes(), &keys);
            same_outcome(&mutate(text.as_bytes(), seed), &keys);
            // A repeated key, and whitespace around every token.
            let spaced = text.replace(',', " ,\n ").replace(':', "\t: ");
            same_outcome(spaced.as_bytes(), &keys);
            let dup = format!("{{\"a\":[1],{}", &text[1..]);
            same_outcome(dup.as_bytes(), &keys);
        }
    }
}
