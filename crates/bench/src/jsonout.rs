//! Minimal JSON emission **and parsing** for the figure/benchmark
//! binaries.
//!
//! The offline build environment cannot resolve `serde`/`serde_json`, and
//! the only serialization this crate needs is pretty-printing flat rows of
//! figures data plus reading the committed `BENCH_gate.json` back for the
//! bench-regression gate, so two ~hundred-line value types cover it.
//! Field order in objects is preserved (it mirrors struct declaration
//! order, like serde's derive would). [`Json`] emits with `&'static`
//! keys; [`JsonValue`] is the owned-key result of [`JsonValue::parse`].

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string.
    Str(String),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float (shortest round-trip formatting; non-finite becomes null,
    /// as serde_json does).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered object.
    Obj(Vec<(&'static str, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// Pretty-prints with two-space indentation (serde_json style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Str(s) => write_escaped(out, s),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    v.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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

/// A parsed JSON value (owned keys — the dual of the emission-only
/// [`Json`]). Covers the full JSON grammar the emitter produces.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what non-finite floats were emitted as).
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number (integers parse into the same representation).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, field order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document. Errors carry the byte offset and a short
    /// description.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while matches!(bytes.get(*pos), Some(b) if *b != b'"' && *b != b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

/// Pretty-prints a slice of rows as a JSON array.
pub fn pretty_rows<T: ToJson>(rows: &[T]) -> String {
    Json::Arr(rows.iter().map(ToJson::to_json).collect()).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_escaping() {
        assert_eq!(Json::Int(-3).pretty(), "-3");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::Num(1.5).pretty(), "1.5");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Str("a\"b\\c\n".into()).pretty(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn object_layout() {
        let v = Json::Obj(vec![
            ("device", Json::Str("GTX 1080".into())),
            ("ms", Json::Num(0.25)),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"device\": \"GTX 1080\",\n  \"ms\": 0.25\n}"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn parse_roundtrips_emitted_documents() {
        let doc = Json::Obj(vec![
            ("name", Json::Str("pipeline/tiny \"jobs\"\n".into())),
            ("speedup", Json::Num(4.25)),
            ("count", Json::UInt(32)),
            ("neg", Json::Int(-7)),
            ("ok", Json::Bool(true)),
            ("bad", Json::Num(f64::NAN)),
            (
                "rows",
                Json::Arr(vec![Json::Num(1e-3), Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        let parsed = JsonValue::parse(&doc.pretty()).unwrap();
        assert_eq!(
            parsed.get("name").unwrap().as_str().unwrap(),
            "pipeline/tiny \"jobs\"\n"
        );
        assert_eq!(parsed.get("speedup").unwrap().as_f64(), Some(4.25));
        assert_eq!(parsed.get("count").unwrap().as_f64(), Some(32.0));
        assert_eq!(parsed.get("neg").unwrap().as_f64(), Some(-7.0));
        assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(parsed.get("bad"), Some(&JsonValue::Null));
        let rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].as_f64(), Some(0.001));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
    }
}
