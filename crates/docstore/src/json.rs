//! JSON value model, parser, and serializer.
//!
//! Implemented from scratch because the JSON document model is the document
//! store's core data structure (DESIGN.md: no serde). The parser accepts
//! RFC 8259 JSON: objects, arrays, strings with all escapes including
//! `\uXXXX` and surrogate pairs, numbers, booleans, null. Object key order
//! is preserved via an ordered map so serialized documents are stable.

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
    /// All JSON numbers, stored as `f64` (integral values serialize without
    /// a fractional part).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps a deterministic key order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an empty object.
    pub fn object() -> Value {
        Value::Object(BTreeMap::new())
    }

    /// Returns the object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable object access.
    pub fn as_object_mut(&mut self) -> Option<&mut BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number as i64 when it is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && n.is_finite() => Some(*n as i64),
            _ => None,
        }
    }

    /// Returns the bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True if `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field access (shallow).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Inserts a field, assuming (or making) this value an object.
    /// Panics if called on a non-object.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.as_object_mut()
            .expect("Value::set on non-object")
            .insert(key.into(), value.into());
        self
    }

    /// Serializes compactly (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Serializes compactly into an existing buffer — the allocation-free
    /// form of [`Value::to_json`] for callers that build keys in a loop.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Object(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_json(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; store as null like MongoDB's strict mode.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// A JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the error was detected.
    pub position: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects the parser accepts. The parser
/// recurses once per level, so without a cap a request body of a few
/// hundred kilobytes of `[` overflows the stack and aborts the process;
/// nothing this system writes nests ten deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace is an error,
/// and so is nesting deeper than [`MAX_DEPTH`].
///
/// ```
/// use create_docstore::parse_json;
/// let v = parse_json(r#"{"title": "case report", "year": 2020}"#).unwrap();
/// assert_eq!(v.get("year").unwrap().as_i64(), Some(2020));
/// ```
pub fn parse_json(input: &str) -> Result<Value, JsonError> {
    let mut r = Reader::new(input);
    let value = r.value()?;
    r.finish()?;
    Ok(value)
}

/// One top-level member of a serialized object (see [`object_members`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Member<'a> {
    /// The key, unescaped.
    pub key: String,
    /// The value's text as it stands in the input.
    pub text: &'a str,
    /// The value, for a key the caller asked to have built.
    pub value: Option<Value>,
}

/// Splits a serialized JSON object into its top-level members in one
/// pass: each member's key and the text of its value, borrowed from
/// `input`, in input order (a repeated key appears twice; [`parse_json`]
/// keeps the last). A member whose key `build` accepts is parsed into a
/// tree on the way; the others are only checked. Either way the whole
/// input goes through the same grammar and depth cap as [`parse_json`],
/// so every returned text parses.
///
/// ```
/// use create_docstore::json::object_members;
/// let members = object_members(r#"{"a": [1, 2], "b": "x"}"#, |key| key == "b").unwrap();
/// assert_eq!((members[0].text, &members[0].value), ("[1, 2]", &None));
/// assert_eq!((members[1].text, &members[1].value), ("\"x\"", &Some("x".into())));
/// ```
pub fn object_members(
    input: &str,
    build: impl Fn(&str) -> bool,
) -> Result<Vec<Member<'_>>, JsonError> {
    let mut r = Reader::new(input);
    if r.kind() != Some(Kind::Object) {
        return Err(r.err("expected an object"));
    }
    let mut members = Vec::new();
    r.object(&mut |r, key| {
        let (value, text) = r.spanned(|r| {
            if build(&key) {
                r.value().map(Some)
            } else {
                r.skip().map(|()| None)
            }
        })?;
        members.push(Member {
            key: key.into_owned(),
            text,
            value,
        });
        Ok(())
    })?;
    r.finish()?;
    Ok(members)
}

/// The kind of value a [`Reader`] stands before, read off its first
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `{`
    Object,
    /// `[`
    Array,
    /// `"`
    String,
    /// `-` or a digit
    Number,
    /// `t` or `f`
    Bool,
    /// `n`
    Null,
}

/// What [`Reader::object`] calls with each member of an object: the
/// reader before the member's value, and its key.
pub type OnMember<'r, 'a> = dyn FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), JsonError> + 'r;

/// A pull reader over one JSON text: the parser behind [`parse_json`],
/// driven by its caller a value at a time, so a document of a known
/// shape is read into the caller's own types with no [`Value`] tree
/// between. Each reading method skips the whitespace before its value
/// and consumes exactly that value; [`Reader::kind`] looks at the next
/// value without consuming it. The grammar and the depth cap
/// ([`MAX_DEPTH`]) are [`parse_json`]'s: a text the reader walks to
/// [`Reader::finish`] without an error is one `parse_json` accepts.
///
/// ```
/// use create_docstore::json::{Kind, Reader};
/// let mut r = Reader::new(r#"{"year": 2020, "tags": ["a", "b"], "x": null}"#);
/// let (mut year, mut tags) = (0.0, Vec::new());
/// r.object(&mut |r, key| match &*key {
///     "year" => Ok(year = r.number()?),
///     "tags" => r.array(&mut |r| Ok(tags.push(r.string()?))),
///     _ => r.skip(),
/// })
/// .unwrap();
/// r.finish().unwrap();
/// assert_eq!((year, tags), (2020.0, vec!["a".into(), "b".into()]));
/// assert_eq!(Reader::new(" [1]").kind(), Some(Kind::Array));
/// ```
pub struct Reader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects around `pos`.
    depth: usize,
    /// The string most recently unescaped. Reused from string to
    /// string, so an escaped string is copied out once at its exact
    /// size.
    buf: String,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            buf: String::new(),
        }
    }

    /// An error at the reader's position.
    pub fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// The kind of the next value, after whitespace; `None` at the end
    /// of the input or before a byte no value starts with.
    pub fn kind(&mut self) -> Option<Kind> {
        self.skip_ws();
        Some(match self.peek()? {
            b'{' => Kind::Object,
            b'[' => Kind::Array,
            b'"' => Kind::String,
            b'-' | b'0'..=b'9' => Kind::Number,
            b't' | b'f' => Kind::Bool,
            b'n' => Kind::Null,
            _ => return None,
        })
    }

    /// Only whitespace may follow the document's value.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Runs `read` on the next value and returns what it returned with
    /// the value's text as it stands in the input.
    pub fn spanned<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<(T, &'a str), JsonError> {
        self.skip_ws();
        let start = self.pos;
        let value = read(self)?;
        Ok((value, &self.input[start..self.pos]))
    }

    /// Reads the next value into a tree.
    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(&mut |r, key| {
                    map.insert(key.into_owned(), r.value()?);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(&mut |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Checks the next value against the grammar without building or
    /// copying any of it.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(&mut |r, _| r.skip()),
            Some(b'[') => self.array(&mut |r| r.skip()),
            Some(b'"') => {
                self.pos += 1;
                self.string_rest(None)
            }
            // Scalars build nothing on the heap.
            _ => self.value().map(drop),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected {kw})")))
        }
    }

    /// One level deeper, or an error at the cap.
    fn descend(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Walks an object's members: `member` runs with the key (borrowed
    /// from the input unless it holds an escape) and the reader before
    /// the value, and must consume the value.
    pub fn object(&mut self, member: &mut OnMember<'_, 'a>) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(b'{')?;
        self.descend()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                member(self, key)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Walks an array's items: `item` must consume one value.
    pub fn array(
        &mut self,
        item: &mut dyn FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(b'[')?;
        self.descend()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => break,
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads a string: borrowed from the input when it holds no escape,
    /// unescaped into a `String` of its own, of its exact size, when it
    /// does.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.input[start..self.pos - 1]));
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.push_str(&self.input[start..self.pos]);
        let read = self.string_rest(Some(&mut buf));
        self.buf = buf;
        read.map(|()| Cow::Owned(self.buf.clone()))
    }

    /// Moves past the longest run free of terminators and escapes. The
    /// input is a `&str` and the delimiters are all ASCII, so a run
    /// never splits a multibyte sequence: it slices the input as it
    /// stands, and copying it whole beats the byte-at-a-time loop by an
    /// order of magnitude on long report bodies.
    fn run(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    /// Reads the rest of a string, from inside it through its closing
    /// quote, appending the unescaped text to `out` when one is given.
    fn string_rest(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            let start = self.pos;
            self.run();
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.input[start..self.pos]);
            }
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => {
                    let c = match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0C}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.parse_unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                // The run above stops only at a quote, a backslash or a
                // control byte.
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a surrogate pair.
    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.parse_hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require \uXXXX low surrogate.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("missing low surrogate"));
            }
            let lo = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + (((hi - 0xD800) as u32) << 10) + (lo - 0xDC00) as u32
        } else if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unexpected low surrogate"));
        } else {
            hi as u32
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid code point"))
    }

    fn parse_hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = (v << 4) | digit as u16;
        }
        Ok(v)
    }

    /// Reads a number.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }
}

/// Builds an object from key/value pairs — the main ergonomic constructor
/// used across the workspace.
///
/// ```
/// use create_docstore::json::obj;
/// let doc = obj([("title", "case 1".into()), ("year", 2020i64.into())]);
/// assert_eq!(doc.get("year").unwrap().as_i64(), Some(2020));
/// ```
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    let mut map = BTreeMap::new();
    for (k, v) in pairs {
        map.insert(k.to_string(), v);
    }
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(parse_json("null").unwrap(), Value::Null);
        assert_eq!(parse_json("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Value::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse_json("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(
            parse_json("\"hi\"").unwrap(),
            Value::String("hi".to_string())
        );
    }

    #[test]
    fn parse_nested_structure() {
        let v = parse_json(r#"{"a": [1, 2, {"b": null}], "c": "d"}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn parse_escapes() {
        let v = parse_json(r#""line\nbreak \"quoted\" tab\t""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "line\nbreak \"quoted\" tab\t");
    }

    #[test]
    fn parse_unicode_escapes_and_surrogates() {
        assert_eq!(parse_json(r#""é""#).unwrap().as_str(), Some("é"));
        // U+1F600 as a surrogate pair.
        assert_eq!(parse_json(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn parse_raw_utf8() {
        let v = parse_json("\"fièvre\"").unwrap();
        assert_eq!(v.as_str(), Some("fièvre"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "\"\\ud800\"",
            "01x",
        ] {
            assert!(parse_json(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        // (opener, innermost value, closer)
        for (open, inner, close) in [("[", "", "]"), ("{\"a\":", "1", "}")] {
            let nest =
                |depth: usize| format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
            assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
            let err = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("MAX_DEPTH"), "{err}");
            // `object_members` counts the object it splits as a level,
            // whether it builds the member or only checks it.
            for build in [false, true] {
                let wrap = |depth| format!("{{\"k\":{}}}", nest(depth));
                assert!(object_members(&wrap(MAX_DEPTH - 1), |_| build).is_ok());
                assert!(object_members(&wrap(MAX_DEPTH), |_| build).is_err());
            }
            // A megabyte of openers is an error, not a stack overflow.
            let flood = open.repeat((1 << 20) / open.len());
            assert!(parse_json(&flood).is_err());
            assert!(object_members(&format!("{{\"k\":{flood}"), |_| false).is_err());
        }
    }

    #[test]
    fn object_members_borrows_each_value_text() {
        let text =
            r#" {"report": {"_id": "a\"b", "n": [1, {"x": null}]}, "t" : "doc" ,"ordinal":7} "#;
        let members = object_members(text, |key| key != "report").unwrap();
        let keys: Vec<&str> = members.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(keys, ["report", "t", "ordinal"]);
        assert_eq!(members[0].text, r#"{"_id": "a\"b", "n": [1, {"x": null}]}"#);
        assert_eq!(members[1].text, "\"doc\"");
        assert_eq!(members[2].text, "7");
        // Every text parses to the member `parse_json` sees, and so does
        // every value that was asked for.
        let whole = parse_json(text).unwrap();
        for member in &members {
            let parsed = parse_json(member.text).unwrap();
            assert_eq!(Some(&parsed), whole.get(&member.key));
            assert_eq!(member.value, (member.key != "report").then_some(parsed));
        }
        assert_eq!(object_members("{}", |_| true).unwrap(), []);
        for bad in [
            "[1]",
            "7",
            "{\"a\":}",
            "{\"a\":1} x",
            "{\"a\":\"\\q\"}",
            "{\"a\":tru}",
        ] {
            for build in [false, true] {
                assert!(
                    object_members(bad, |_| build).is_err(),
                    "should reject: {bad}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_compact() {
        let src = r#"{"arr":[1,2.5,true,null],"nested":{"s":"x\"y"},"n":-7}"#;
        let v = parse_json(src).unwrap();
        let re = parse_json(&v.to_json()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn roundtrip_pretty() {
        let v = obj([
            ("title", "case".into()),
            ("tags", vec!["a", "b"].into()),
            ("empty", Value::object()),
        ]);
        let re = parse_json(&v.to_json_pretty()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Value::Number(3.0).to_json(), "3");
        assert_eq!(Value::Number(3.25).to_json(), "3.25");
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn control_chars_escaped_on_output() {
        let v = Value::String("\u{01}".to_string());
        assert_eq!(v.to_json(), "\"\\u0001\"");
        assert_eq!(parse_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = obj([("n", 4i64.into()), ("b", true.into())]);
        assert_eq!(v.get("n").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert_eq!(Value::Number(1.5).as_i64(), None);
    }

    #[test]
    fn set_builds_objects() {
        let mut v = Value::object();
        v.set("a", 1i64).set("b", "two");
        assert_eq!(v.to_json(), r#"{"a":1,"b":"two"}"#);
    }

    #[test]
    fn error_reports_position() {
        let err = parse_json("{\"a\": tru}").unwrap_err();
        assert!(err.position >= 6);
        assert!(err.to_string().contains("byte"));
    }
}
