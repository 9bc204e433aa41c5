//! A minimal JSON value model, parser, and writer.
//!
//! The serving protocol is line-delimited JSON, and the workspace builds
//! offline with no serialization dependency — so this module hand-rolls
//! the JSON the protocol actually needs, in two directions:
//!
//! * **In:** [`parse`] reads a line into a [`Value`] tree. The session
//!   parses each input line once and reads both the command and its
//!   `"vt"` journal stamp from that one value.
//! * **Out:** `ObjWriter` appends `{"k":v,…}` field by field straight
//!   into a `String`: integers by a digit loop, floats by `{:?}`, strings
//!   with a no-escape fast path. Every response, frame and journal line
//!   the crate emits is written this way, with no tree and no heap
//!   `String` per key. [`Value::to_json`] renders through the same
//!   primitives, so there is one formatter; [`Value`] and [`obj`] remain
//!   the parse model and the builder for callers outside the protocol
//!   path (the benchmark's result files, for one).
//!
//! Two properties matter more here than generality:
//!
//! * **Integer fidelity.** Virtual times, job indices, and event counts
//!   are `u64`/`i64` quantities; a float round-trip could corrupt them.
//!   Numbers without a fraction or exponent parse as [`Value::Int`] and
//!   print digit-for-digit.
//! * **Deterministic output.** Objects are written in insertion order
//!   with no whitespace, and every protocol message writes its fields in
//!   a fixed order — so a replayed session serializes byte-identical
//!   journal lines and responses. Parsing is lenient about whitespace and
//!   key order; writing is not.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent, within `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion (for parses: source) order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is one.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The value as a float (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), object fields in insertion
    /// order — the canonical form journal lines and responses use.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => write_bool(*b, out),
            Value::Int(i) => write_i64(*i, out),
            Value::Float(f) => write_f64(*f, out),
            Value::Str(s) => write_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                let mut w = ObjWriter::open(out);
                for (k, v) in fields {
                    v.write(w.key(k));
                }
                w.close();
            }
        }
    }
}

fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

/// Decimal digits by a digit loop into a stack buffer — no `fmt`.
fn write_u64(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

fn write_i64(i: i64, out: &mut String) {
    if i < 0 {
        out.push('-');
    }
    write_u64(i.unsigned_abs(), out);
}

fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest representation that round-trips,
        // and always marks the value as a float ("1.0", not "1") —
        // deterministic and loss-free.
        let _ = write!(out, "{f:?}");
    } else {
        // JSON has no Inf/NaN; the protocol never produces them, but a
        // total writer must pick something.
        out.push_str("null");
    }
}

/// Whether `b` must be escaped inside a JSON string: the quote, the
/// backslash and the C0 controls. Every such byte is ASCII, so the bytes
/// between two of them are whole UTF-8 sequences.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    if !bytes.iter().any(|&b| needs_escape(b)) {
        // Fast path: keys, codes, names and paths need no escape.
        out.push_str(s);
    } else {
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if !needs_escape(b) {
                continue;
            }
            out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.push_str("\\u00");
                    out.push(HEX[(b >> 4) as usize] as char);
                    out.push(HEX[(b & 0xf) as usize] as char);
                }
            }
        }
        out.push_str(&s[run..]);
    }
    out.push('"');
}

/// Appends one JSON object, field by field, straight into a `String`:
/// the writer behind every protocol output. It emits exactly the bytes
/// [`Value::to_json`] emits for the same fields in the same order (both
/// go through this module's primitives), without building a [`Value`]
/// tree or one heap `String` per key.
pub(crate) struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('{');
        ObjWriter { out, first: true }
    }

    fn close(self) {
        self.out.push('}');
    }

    /// Writes the separator and `"k":`, returning the buffer for the value.
    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(k, self.out);
        self.out.push(':');
        self.out
    }

    pub(crate) fn uint(&mut self, k: &str, v: u64) -> &mut Self {
        write_u64(v, self.key(k));
        self
    }

    pub(crate) fn int(&mut self, k: &str, v: i64) -> &mut Self {
        write_i64(v, self.key(k));
        self
    }

    /// A float by [`Value::Float`]'s rule: `{:?}`, non-finite as `null`.
    pub(crate) fn float(&mut self, k: &str, v: f64) -> &mut Self {
        write_f64(v, self.key(k));
        self
    }

    pub(crate) fn str(&mut self, k: &str, v: &str) -> &mut Self {
        write_str(v, self.key(k));
        self
    }

    pub(crate) fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        write_bool(v, self.key(k));
        self
    }

    pub(crate) fn null(&mut self, k: &str) -> &mut Self {
        self.key(k).push_str("null");
        self
    }

    /// An integer, or `null` for `None`.
    pub(crate) fn opt_uint(&mut self, k: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.uint(k, v),
            None => self.null(k),
        }
    }

    /// A nested object whose fields `fields` writes.
    pub(crate) fn object(&mut self, k: &str, fields: impl FnOnce(&mut ObjWriter<'_>)) -> &mut Self {
        let mut inner = ObjWriter::open(self.key(k));
        fields(&mut inner);
        inner.close();
        self
    }
}

/// One JSON object whose fields `fields` writes.
pub(crate) fn object(fields: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut out = String::new();
    let mut w = ObjWriter::open(&mut out);
    fields(&mut w);
    w.close();
    out
}

/// Builds an object from `(key, value)` pairs in the given order, for
/// callers off the protocol path; protocol messages are written by
/// `ObjWriter` without a tree.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parses one JSON document, rejecting trailing garbage. Errors are
/// human-readable one-liners with a byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            // Surrogates are rejected rather than paired:
                            // the protocol is ASCII in practice.
                            let c = char::from_u32(code)
                                .ok_or(format!("\\u{hex} is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("bad escape {other:?} at byte {}", self.pos));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos));
                }
                Some(_) => {
                    // The whole run up to the next quote, backslash or
                    // control byte in one copy. Those bytes are ASCII, so
                    // the run ends on a character boundary: multi-byte
                    // UTF-8 sequences pass through unchanged (the input
                    // is a &str, so they are already valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| !needs_escape(b)) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !saw_digit {
            return Err(format!("malformed number at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("malformed number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Value::Str("hi\n".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Array(vec![
                Value::Int(1),
                obj(vec![("b", Value::Str("c".into()))]),
            ])
        );
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "nul",
            "{\"a\":1,}",
            "[,]",
            "--1",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn writes_canonical_compact_form() {
        let v = obj(vec![
            ("vt", Value::Int(12)),
            ("cmd", Value::Str("advance".into())),
            ("quote", Value::Str("a\"b".into())),
        ]);
        assert_eq!(v.to_json(), r#"{"vt":12,"cmd":"advance","quote":"a\"b"}"#);
    }

    #[test]
    fn roundtrips_through_parse() {
        let v = obj(vec![
            ("i", Value::Int(-3)),
            ("f", Value::Float(0.125)),
            ("s", Value::Str("x\ty".into())),
            ("a", Value::Array(vec![Value::Bool(false), Value::Null])),
        ]);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    /// One field a [`Field`] list holds: a value both writers can render.
    #[derive(Debug, Clone)]
    enum Field {
        Int(i64),
        Float(f64),
        Str(String),
        Bool(bool),
        Null,
        Object(Vec<(String, Field)>),
    }

    const INTS: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, -10, 1_000_000_007];
    const FLOATS: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        1e21,
        0.1,
        -2.5e-8,
    ];
    const CHARS: [char; 16] = [
        'a', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', 'π', '😀', ' ', '/',
        '\u{8}', '\u{c}',
    ];

    /// A string of up to 16 characters drawn from [`CHARS`] by `bits`.
    fn text(bits: u64) -> String {
        let len = (bits % 17) as usize;
        (0..len)
            .map(|i| CHARS[((bits >> (4 * i)) & 0xf) as usize])
            .collect()
    }

    fn field(kind: u8, bits: u64, depth: u32) -> Field {
        match kind % 9 {
            0 => Field::Int(INTS[(bits % INTS.len() as u64) as usize]),
            1 => Field::Int(bits as i64),
            2 => Field::Float(FLOATS[(bits % FLOATS.len() as u64) as usize]),
            3 => Field::Float(f64::from_bits(bits)),
            4 => Field::Str(text(bits)),
            5 => Field::Bool(bits % 2 == 1),
            6 => Field::Null,
            7 => Field::Int(-((bits >> 1) as i64)),
            _ if depth == 0 => Field::Null,
            _ => Field::Object(
                (0..bits % 4)
                    .map(|i| {
                        let b = bits.rotate_left(17 * i as u32);
                        (text(b >> 3), field(b as u8, b.rotate_left(7), depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    fn to_value(f: &Field) -> Value {
        match f {
            Field::Int(i) => Value::Int(*i),
            Field::Float(x) => Value::Float(*x),
            Field::Str(s) => Value::Str(s.clone()),
            Field::Bool(b) => Value::Bool(*b),
            Field::Null => Value::Null,
            Field::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), to_value(v)))
                    .collect(),
            ),
        }
    }

    fn finite(v: Value) -> Value {
        match v {
            Value::Float(x) if !x.is_finite() => Value::Null,
            Value::Object(fields) => {
                Value::Object(fields.into_iter().map(|(k, v)| (k, finite(v))).collect())
            }
            v => v,
        }
    }

    fn write_fields(w: &mut ObjWriter<'_>, fields: &[(String, Field)]) {
        for (k, f) in fields {
            match f {
                Field::Int(i) if *i >= 0 => w.uint(k, *i as u64),
                Field::Int(i) => w.int(k, *i),
                Field::Float(x) => w.float(k, *x),
                Field::Str(s) => w.str(k, s),
                Field::Bool(b) => w.bool(k, *b),
                Field::Null if k.len() % 2 == 0 => w.null(k),
                Field::Null => w.opt_uint(k, None),
                Field::Object(inner) => w.object(k, |o| write_fields(o, inner)),
            };
        }
    }

    proptest! {
        #[test]
        fn the_writer_and_to_json_give_identical_bytes(
            raw in collection::vec((0u8..9, 0u64..u64::MAX, 0u64..u64::MAX), 0..12),
        ) {
            let fields: Vec<(String, Field)> = raw
                .iter()
                .map(|&(kind, key, bits)| (text(key), field(kind, bits, 2)))
                .collect();
            let tree = obj(fields.iter().map(|(k, f)| (k.as_str(), to_value(f))).collect());
            let streamed = object(|w| write_fields(w, &fields));
            prop_assert_eq!(&streamed, &tree.to_json(), "{:?}", fields);
            // And the bytes mean the fields: they parse back to the tree,
            // a non-finite float read as the `null` it is written as.
            prop_assert_eq!(parse(&streamed), Ok(finite(tree)), "{}", streamed);
        }
    }

    #[test]
    fn integers_at_the_extremes_print_every_digit() {
        let line = object(|w| {
            w.int("min", i64::MIN)
                .int("max", i64::MAX)
                .uint("umax", u64::MAX)
                .uint("zero", 0)
                .int("neg", -10);
        });
        assert_eq!(
            line,
            r#"{"min":-9223372036854775808,"max":9223372036854775807,"umax":18446744073709551615,"zero":0,"neg":-10}"#
        );
    }

    #[test]
    fn large_integers_keep_exact_digits() {
        let big = (1i64 << 53) + 1; // not representable in f64
        let v = Value::Int(big);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
