//! A small self-contained JSON value type, writer, and parser.
//!
//! This replaces `serde_json` for the workspace's needs: dumping figure
//! data, and reading/writing run manifests. Unsigned 64-bit integers (seeds,
//! config hashes) round-trip losslessly through the dedicated [`Json::U64`]
//! variant; finite floats round-trip through Rust's shortest-representation
//! formatting; NaN and infinities serialize as `null` (heatmaps use NaN for
//! not-computed cells).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an ordered list of key/value pairs (insertion order is
    /// preserved when writing).
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, items.len(), '[', ']', |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, pairs.len(), '{', '}', |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }

    /// Parse a JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError::at(pos, "trailing characters"));
        }
        Ok(value)
    }

    /// FNV-1a hash of the compact rendering: a stable config fingerprint.
    pub fn fingerprint(&self) -> u64 {
        crate::seed_stream::fnv1a(self.to_string_compact().as_bytes())
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's Debug for f64 is the shortest representation that parses
        // back to the same bits, and always includes a '.' or exponent.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: &str) -> JsonError {
        JsonError {
            offset,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, &format!("expected '{}'", b as char)))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(text, pos),
        Some(b'[') => parse_arr(text, pos),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid number"))?;
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| JsonError::at(start, "invalid number"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| JsonError::at(*pos, "unterminated escape"))?;
                *pos += 1;
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
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair.
                            expect(bytes, pos, b'\\')?;
                            expect(bytes, pos, b'u')?;
                            let lo = parse_hex4(bytes, pos)?;
                            0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError::at(*pos, "invalid codepoint"))?,
                        );
                    }
                    _ => return Err(JsonError::at(*pos - 1, "invalid escape")),
                }
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\` in one step. Both
                // are ASCII, so the run ends on a char boundary of the
                // already-valid `text`, and needs no re-validation.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err(JsonError::at(*pos, "truncated \\u escape"));
    }
    let text = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| JsonError::at(*pos, "invalid \\u escape"))?;
    let v = u32::from_str_radix(text, 16).map_err(|_| JsonError::at(*pos, "invalid \\u escape"))?;
    *pos = end;
    Ok(v)
}

fn parse_arr(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
        }
    }
}

/// Conversion into [`Json`], the workspace's replacement for
/// `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::U64(*self as u64) }
        }
    )*};
}
impl_to_json_uint!(u32, u64, usize);

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Derive a field-by-field [`ToJson`] impl for a struct.
///
/// ```ignore
/// impl_to_json!(Point { x, y });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_document() {
        let doc = Json::obj(vec![
            ("label", Json::Str("fig07/CD".into())),
            ("seed", Json::U64(u64::MAX)),
            ("delta", Json::I64(-3)),
            ("pdl", Json::F64(1.25e-33)),
            ("nan", Json::F64(f64::NAN)),
            (
                "cells",
                Json::Arr(vec![Json::F64(0.1), Json::Bool(true), Json::Null]),
            ),
            ("note", Json::Str("a \"quoted\" line\nnext".into())),
        ]);
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        // NaN becomes null; everything else is preserved exactly.
        assert_eq!(back.get("seed").unwrap(), &Json::U64(u64::MAX));
        assert_eq!(back.get("delta").unwrap(), &Json::I64(-3));
        assert_eq!(back.get("pdl").unwrap(), &Json::F64(1.25e-33));
        assert_eq!(back.get("nan").unwrap(), &Json::Null);
        assert_eq!(
            back.get("note").unwrap().as_str().unwrap(),
            "a \"quoted\" line\nnext"
        );
        let compact = doc.to_string_compact();
        assert_eq!(Json::parse(&compact).unwrap(), back);
    }

    #[test]
    fn f64_shortest_repr_round_trips() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, -1e-300, 123456.789] {
            let text = Json::F64(v).to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), v);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn mebibyte_string_round_trips_in_linear_time() {
        // Multi-byte scalars of every width between escapes of every kind.
        // Regression: parsing once re-validated the whole remaining input
        // per character, quadratic in the string's length.
        let unit = "aé€😀\"\\\n\t\u{1}/ plain ascii run ";
        let s = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(s.len() >= 1 << 20);
        let doc = Json::Arr(vec![
            Json::Str(s.clone()),
            Json::obj(vec![(&s, Json::Null)]),
        ]);
        assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""Aé😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "Aé😀");
    }

    struct P {
        x: u32,
        y: f64,
    }
    impl_to_json!(P { x, y });

    #[test]
    fn struct_macro_emits_fields_in_order() {
        let p = P { x: 3, y: 0.5 };
        assert_eq!(p.to_json().to_string_compact(), r#"{"x":3,"y":0.5}"#);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = Json::obj(vec![("k", Json::U64(1))]);
        let b = Json::obj(vec![("k", Json::U64(2))]);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
