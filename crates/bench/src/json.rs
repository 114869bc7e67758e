//! Minimal JSON support for machine-readable bench artifacts.
//!
//! The workspace is offline (no serde); bench binaries emit their results
//! through [`Json`] and CI validates the written artifact by re-parsing
//! it with [`parse`]. Only the subset of JSON the bench artifacts use is
//! supported: objects, arrays, strings (with `\"`/`\\`/`\n` escapes),
//! finite numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value: build one with the constructors, render with
/// [`Json::render`], or obtain one from text with [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite inputs render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap), making output stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements of an array; `None` for other variants.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value; `None` for other variants.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value; `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Follows a dotted path of object keys (`"tuned.cache.entries"`).
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |node, key| node.get(key))
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) if x.is_finite() => {
                if *x == x.trunc() && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(map) if map.is_empty() => out.push_str("{}"),
            Json::Obj(map) => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

/// The JSON type a schema path must hold.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    name: &'static str,
    holds: fn(&Json) -> bool,
}

impl Kind {
    /// A number.
    pub const NUM: Kind = Kind { name: "a number", holds: |v| matches!(v, Json::Num(_)) };
    /// A string.
    pub const STR: Kind = Kind { name: "a string", holds: |v| matches!(v, Json::Str(_)) };
    /// A boolean.
    pub const BOOL: Kind = Kind { name: "a bool", holds: |v| matches!(v, Json::Bool(_)) };
    /// An array.
    pub const ARR: Kind = Kind { name: "an array", holds: |v| matches!(v, Json::Arr(_)) };
}

/// The schema violations of one document, collected path by path.
/// `at` arguments name the node being checked in messages (`"gemm[2]"`,
/// or `""` for the root).
#[derive(Debug, Default)]
pub struct Violations(Vec<String>);

fn join(at: &str, path: &str) -> String {
    if at.is_empty() {
        path.to_string()
    } else {
        format!("{at}.{path}")
    }
}

impl Violations {
    /// Reports each dotted path under `node` that is absent or not of `kind`.
    pub fn require(&mut self, node: &Json, at: &str, kind: Kind, paths: &[&str]) {
        for path in paths {
            if !node.at(path).is_some_and(kind.holds) {
                self.0.push(format!("{} missing or not {}", join(at, path), kind.name));
            }
        }
    }

    /// The rows of the array at `path` under `node`, each with its name
    /// (`gemm[2]`). Reports a missing array, or an empty one when
    /// `nonempty`.
    pub fn rows<'j>(
        &mut self,
        node: &'j Json,
        at: &str,
        path: &str,
        nonempty: bool,
    ) -> Vec<(String, &'j Json)> {
        let name = join(at, path);
        let Some(rows) = node.at(path).and_then(Json::as_arr) else {
            self.0.push(format!("{name} missing or not an array"));
            return Vec::new();
        };
        self.check(!nonempty || !rows.is_empty(), || format!("{name} is empty"));
        rows.iter().enumerate().map(|(i, r)| (format!("{name}[{i}]"), r)).collect()
    }

    /// Reports `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }

    /// The violations found, in the order they were checked.
    pub fn into_vec(self) -> Vec<String> {
        self.0
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (the subset bench artifacts use).
///
/// # Errors
///
/// A human-readable description with the byte offset of the failure.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                map.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into());
            }
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        let ch = char::from_u32(hex).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj([
            ("schema", Json::Str("latte-throughput/v1".into())),
            ("smoke", Json::Bool(true)),
            (
                "gemm",
                Json::Arr(vec![Json::obj([
                    ("m", Json::Num(512.0)),
                    ("gflops", Json::Num(3.25)),
                    ("label", Json::Str("a \"quoted\" name\n".into())),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
            ("nothing", Json::Null),
        ]);
        let text = doc.render();
        let back = parse(&text).expect("parse rendered output");
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_plain_json() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": false}}"#).expect("parse");
        assert_eq!(v.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).and_then(|a| a[2].as_num()),
            Some(-300.0)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] junk").is_err());
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(512.0).render(), "512\n");
        assert!(Json::Num(f64::NAN).render().starts_with("null"));
    }
}
