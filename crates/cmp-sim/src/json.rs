//! A small tolerant JSON reader (std-only, no dependencies).
//!
//! The repo's report writers hand-roll their JSON output; this is the
//! matching *input* side, used to decode serialized run specs
//! (`kernels::RunSpec::parse`). It is deliberately tolerant where a
//! writer can reasonably vary — insignificant whitespace, object keys in
//! any order, trailing commas, unknown fields — and deliberately strict
//! where correctness demands it (strings must be properly escaped,
//! numbers must be numbers).
//!
//! Numbers are kept as their raw source token ([`Json::Num`]) rather than
//! eagerly converted to `f64`: the simulator traffics in full-width `u64`
//! cycle counts and digests, which `f64` would silently round. Convert at
//! the access site with [`Json::as_u64`] / [`Json::as_f64`].

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs (duplicate keys
    /// keep the first occurrence on lookup).
    Obj(Vec<(String, Json)>),
}

/// A parse or access error, with a short human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one hostile line
/// overflow the stack; no document the repo writes or reads nests
/// beyond a handful of levels.
pub const MAX_DEPTH: usize = 256;

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Parse one JSON value from `src`. Trailing whitespace is allowed;
    /// any other trailing content is an error (one document is one
    /// value).
    ///
    /// # Errors
    ///
    /// Malformed JSON, with a byte offset in the message; arrays and
    /// objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence). `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, or an empty slice for non-arrays.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a `u64`: a non-negative integer number token, or a
    /// string holding a decimal or `0x`-prefixed hex integer (the repo's
    /// reports emit digests and seeds as hex strings).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            Json::Str(s) => parse_u64_flex(s),
            _ => None,
        }
    }

    /// [`as_u64`](Json::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// This value as an `f64` (number tokens only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize back to compact JSON (keys in stored order, numbers as
    /// their original tokens). `parse(dump(v)) == v`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out
    }

    fn dump_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&crate::json_escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.dump_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&crate::json_escape(k));
                    out.push_str("\":");
                    v.dump_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parse a `u64` written as decimal or `0x`-prefixed hex (the repo's
/// reports and CLIs accept both spellings for seeds and digests).
pub fn parse_u64_flex(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The 64-bit FNV-1a hash of `bytes` — the content-addressing hash of
/// `RunSpec::digest` (same family as the engine's stats digests;
/// std-only and stable across platforms and releases).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Parse one value at nesting `depth` (the number of arrays and objects
/// enclosing it).
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{' | b'[') if depth == MAX_DEPTH => err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
            *pos += 1;
        } else {
            break;
        }
    }
    let tok = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
    if tok.is_empty() || tok.parse::<f64>().is_err() {
        return err(format!("malformed number at byte {start}"));
    }
    Ok(Json::Num(tok.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| JsonError("invalid utf-8".into()));
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| JsonError("unterminated escape".into()))?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| JsonError("bad \\u".into()))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError(format!("bad \\u escape `{hex}`")))?;
                        *pos += 4;
                        // Basic-plane only; the repo's own writers never
                        // emit surrogate pairs.
                        let ch = char::from_u32(cp)
                            .ok_or_else(|| JsonError(format!("invalid code point {cp:#x}")))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return err(format!("unknown escape `\\{}`", *other as char)),
                }
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    loop {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => return err("unterminated array"),
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                items.push(parse_value(bytes, pos, depth)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1, // tolerant: allows a trailing comma
                    Some(b']') => {}
                    _ => return err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    loop {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => return err("unterminated object"),
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            Some(b'"') => {
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return err(format!("expected `:` at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1, // tolerant: allows a trailing comma
                    Some(b'}') => {}
                    _ => return err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
            _ => return err(format!("expected a key at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_repo_report_shapes() {
        let j = Json::parse(
            r#"{ "schema": "fastbar-throughput/v4", "jobs": 2,
                 "samples": [ {"workload": "w1", "stats_digest": "0x0546812ccc90cd5e",
                               "wall": 0.5, "ok": true, "note": null}, ] }"#,
        )
        .expect("parses");
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("fastbar-throughput/v4")
        );
        assert_eq!(j.get("jobs").and_then(Json::as_u64), Some(2));
        let s = &j.get("samples").expect("samples").items()[0];
        assert_eq!(
            s.get("stats_digest").and_then(Json::as_u64),
            Some(0x0546_812c_cc90_cd5e),
            "hex digest strings round-trip at full width"
        );
        assert_eq!(s.get("wall").and_then(Json::as_f64), Some(0.5));
        assert_eq!(s.get("ok").and_then(Json::as_bool), Some(true));
        assert!(s.get("note").expect("note").is_null());
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn full_width_u64_survives_where_f64_would_round() {
        let j = Json::parse("18446744073709551615").expect("u64::MAX");
        assert_eq!(j.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn strings_unescape_and_dump_round_trips() {
        let src = r#"{"s": "a\"b\\c\nd", "n": [1, -2.5e3], "b": false}"#;
        let j = Json::parse(src).expect("parses");
        assert_eq!(j.get("s").and_then(Json::as_str), Some("a\"b\\c\nd"));
        let dumped = j.dump();
        assert_eq!(Json::parse(&dumped).expect("dump re-parses"), j);
    }

    #[test]
    fn tolerant_of_whitespace_order_and_trailing_commas() {
        let a = Json::parse("{\"x\":1,\"y\":2}").expect("a");
        let b = Json::parse(" {\n \"y\" : 2 ,\n \"x\" : 1 , }\n").expect("b");
        assert_eq!(a.get("x"), b.get("x"));
        assert_eq!(a.get("y"), b.get("y"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1", "\"abc", "{\"k\" 1}", "nul", "1 2", "{'k':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let arrays = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let objects =
            |levels: usize| format!("{}0{}", "{\"k\":".repeat(levels), "}".repeat(levels));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        for hostile in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            arrays(100_000),
            "[".repeat(100_000),
            "{\"k\":".repeat(100_000),
        ] {
            let e = Json::parse(&hostile).expect_err("too deep to parse");
            assert!(e.0.contains("nesting deeper than 256"), "{e}");
        }
    }

    #[test]
    fn fnv_matches_the_digest_chain_parameters() {
        // Same FNV-1a offset/prime the engine's digest chain uses.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(parse_u64_flex("0x2a"), Some(42));
        assert_eq!(parse_u64_flex("42"), Some(42));
        assert_eq!(parse_u64_flex("zz"), None);
    }
}
