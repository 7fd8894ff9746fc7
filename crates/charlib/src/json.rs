//! A minimal JSON reader and writer for the artifact schema — std-only,
//! no external crates (the workspace builds with zero registry access).
//!
//! Supports the subset the artifact uses: objects, arrays, strings
//! (with escape sequences), numbers, booleans and `null`. Numbers are
//! parsed as `f64` through [`str::parse`], which round-trips every
//! value the canonical writer emits bit-exactly.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — the writer uses it for non-finite table entries.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds a [`Json::Obj`] from `"key": value` members, in order,
/// converting each value with `Json::from`.
#[macro_export]
macro_rules! json_obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

macro_rules! json_from {
    ($($t:ty => $v:ident => $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

json_from! {
    f64 => v => Json::Num(v),
    usize => v => Json::Num(v as f64),
    u64 => v => Json::Num(v as f64),
    bool => v => Json::Bool(v),
    &str => v => Json::Str(v.to_string()),
    &[f64] => v => Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
    Vec<Json> => v => Json::Arr(v),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// A human-readable description with the byte offset of the defect.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = core::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| core::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 passes through verbatim.
                let ch_len = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let slice = bytes
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated utf-8 sequence")?;
                out.push_str(core::str::from_utf8(slice).map_err(|_| "invalid utf-8")?);
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Writes `v` in the canonical artifact form: `{:?}` (shortest
/// round-trip) for finite values, `null` otherwise. The parser maps
/// `null` table entries back to NaN.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Escapes a string into `out` with surrounding quotes.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `v` as an indented document ending in a newline: one
/// member per line, two spaces per level, except that a nested value
/// [`fits_one_line`] stays on one line. Integral numbers print without
/// a fraction, the rest through [`write_f64`], and strings through
/// [`write_str`], so [`parse`] reads every value back exactly
/// (non-finite numbers as `null`).
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    render_into(&mut out, v, 0);
    out.push('\n');
    out
}

/// A scalar, an array of scalars, or an object whose members all fit
/// one line.
fn fits_one_line(v: &Json) -> bool {
    match v {
        Json::Arr(items) => items
            .iter()
            .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))),
        Json::Obj(members) => members.iter().all(|(_, m)| fits_one_line(m)),
        _ => true,
    }
}

fn render_into(out: &mut String, v: &Json, depth: usize) {
    let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match v {
        Json::Null => return out.push_str("null"),
        Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        // Counts read as integers; 2^53 bounds the exact ones.
        Json::Num(x) if x.fract() == 0.0 && x.abs() < 9_007_199_254_740_992.0 => {
            return out.push_str(&format!("{x:.0}"))
        }
        Json::Num(x) => return write_f64(out, *x),
        Json::Str(s) => return write_str(out, s),
        Json::Arr(items) => ('[', ']', items.iter().map(|i| (None, i)).collect()),
        Json::Obj(members) => {
            let members = members.iter().map(|(k, m)| (Some(k.as_str()), m));
            ('{', '}', members.collect())
        }
    };
    let inline = depth > 0 && fits_one_line(v);
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, member)) in members.iter().enumerate() {
        out.push_str(match (i, inline) {
            (0, _) => "",
            (_, true) => ", ",
            (_, false) => ",",
        });
        if !inline {
            indent(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        render_into(out, member, depth + 1);
    }
    if !inline && !members.is_empty() {
        indent(out, depth);
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_subset() {
        let doc = r#"{"a": 1.5e-10, "b": [true, false, null], "s": "x\ny", "o": {}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_num(), Some(1.5e-10));
        assert_eq!(
            v.get("b").unwrap().as_arr().unwrap(),
            &[Json::Bool(true), Json::Bool(false), Json::Null]
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("o"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    #[allow(clippy::excessive_precision)] // deliberate: one digit past shortest round trip
    fn numbers_round_trip_bit_exactly() {
        for v in [
            0.0,
            -1.5,
            1.86332423704375234e-10,
            f64::MIN_POSITIVE,
            1e308,
            50e-12,
        ] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} mangled to {back}");
        }
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}";
        let mut s = String::new();
        write_str(&mut s, original);
        assert_eq!(parse(&s).unwrap().as_str(), Some(original));
    }
}
