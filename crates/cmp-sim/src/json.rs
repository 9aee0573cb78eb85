//! A small JSON value type (std-only, no dependencies): the writer of
//! every `fastbar` result document and the tolerant reader perfbench
//! uses for its workload file.
//!
//! The writer side builds a [`Json`] from plain values (`From` for
//! integers, floats, booleans and strings; [`Json::hex`] for full-width
//! digests; [`Json::obj`] for objects) and serializes it compactly
//! ([`Json::dump`]) or as a line-per-run document ([`Json::document`]).
//! The reader ([`Json::parse`]) is deliberately tolerant where a writer
//! can reasonably vary — insignificant whitespace, object keys in any
//! order, trailing commas, unknown fields — and deliberately strict where
//! correctness demands it (strings must be properly escaped, numbers must
//! follow the JSON number grammar).
//!
//! Numbers are kept as their raw token ([`Json::Num`]) rather than
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
    /// A number, kept as its raw token (see module docs).
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

    /// A `u64` as the `"0x%016x"` string the documents use for digests
    /// and seeds (read back by [`as_u64`](Json::as_u64)).
    pub fn hex(value: u64) -> Json {
        Json::Str(format!("{value:#018x}"))
    }

    /// An object of `fields`, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// This object with `key: value` appended (builder style).
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object: {}", other.dump()),
        }
        self
    }

    /// Serialize back to compact JSON (keys in stored order, numbers as
    /// their original tokens). `parse(dump(v)) == v`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out
    }

    /// Serialize as a result document: a top-level object's fields one
    /// per line, each element of a top-level array compact on its own
    /// line (so a committed document diffs per run), and a final newline.
    /// Any other value is [`dump`](Json::dump)ed on one line.
    pub fn document(&self) -> String {
        let Json::Obj(fields) = self else {
            return self.dump() + "\n";
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in fields.iter().enumerate() {
            out.push_str("  ");
            dump_str(key, &mut out);
            out.push_str(": ");
            match value {
                Json::Arr(items) if !items.is_empty() => {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        out.push_str("    ");
                        item.dump_into(&mut out);
                        out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                _ => value.dump_into(&mut out),
            }
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    fn dump_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => dump_str(s, out),
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
                    dump_str(k, out);
                    out.push(':');
                    v.dump_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Written with Rust's shortest round-trip `Display` (never an exponent,
/// so always a valid JSON number); a non-finite value, which JSON cannot
/// represent, is written as `null`.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v.to_string())
        } else {
            Json::Null
        }
    }
}

/// Append `s` as a quoted, escaped JSON string.
fn dump_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslashes and control characters; everything else passes through).
/// Shared by [`Json::dump`] and the Chrome trace sink.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse a `u64` written as decimal or `0x`-prefixed hex (the repo's
/// reports and CLIs accept both spellings for seeds and digests). Only
/// ASCII digits are accepted, hex digits after `0x`: no sign, no spaces.
pub fn parse_u64_flex(s: &str) -> Option<u64> {
    let (digits, radix) = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (s, 10),
    };
    if !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    u64::from_str_radix(digits, radix).ok()
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

/// Parse a number token against the JSON grammar
/// `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`. `f64::from_str` alone would
/// also accept `+1`, `.5`, `1.` and `01`, which [`Json::dump`] would then
/// write back verbatim as invalid JSON.
fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let skip = |pos: &mut usize, set: &[u8]| {
        if bytes.get(*pos).is_some_and(|b| set.contains(b)) {
            *pos += 1;
        }
    };
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    skip(pos, b"-");
    let int_start = *pos;
    let int = digits(pos);
    let mut ok = int == 1 || (int > 1 && bytes[int_start] != b'0');
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok &= digits(pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        skip(pos, b"+-");
        ok &= digits(pos) > 0;
    }
    if !ok {
        return err(format!("malformed number at byte {start}"));
    }
    let tok = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
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
                        // Exactly four ASCII hex digits: no sign.
                        let cp = hex
                            .iter()
                            .try_fold(0u32, |cp, &b| Some(cp << 4 | (b as char).to_digit(16)?))
                            .ok_or_else(|| {
                                let hex = String::from_utf8_lossy(hex);
                                JsonError(format!("bad \\u escape `{hex}`"))
                            })?;
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
            r#"{ "schema": "fastbar-runs/v1", "jobs": 2,
                 "runs": [ {"workload": "w1", "stats_digest": "0x0546812ccc90cd5e",
                            "wall": 0.5, "ok": true, "note": null}, ] }"#,
        )
        .expect("parses");
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("fastbar-runs/v1")
        );
        assert_eq!(j.get("jobs").and_then(Json::as_u64), Some(2));
        let s = &j.get("runs").expect("runs").items()[0];
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
        // A `\u` escape is exactly four hex digits; `u32::from_str_radix`
        // would also take a sign.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u00g1""#, r#""\u04""#] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(e.0.contains("\\u escape"), "{bad:?}: {e}");
        }
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#),
            Ok(Json::Str("A\u{e9}".into()))
        );
        // Numbers `f64::from_str` accepts but the JSON grammar does not.
        for bad in ["+1", ".5", "1.", "01", "-01", "1.e5"] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(e.0.contains("malformed number at byte 0"), "{bad:?}: {e}");
            let e = Json::parse(&format!("[0, {bad}]")).expect_err(bad);
            assert!(e.0.contains("at byte 4"), "{bad:?} in an array: {e}");
        }
        for good in ["0", "-0", "10", "-2.5e3", "1E+2", "0.5e-1"] {
            assert_eq!(Json::parse(good).expect(good).dump(), good);
        }
    }

    #[test]
    fn values_convert_and_documents_put_one_run_per_line() {
        let run = |n: u64| Json::obj([("n", n.into()), ("d", Json::hex(n))]);
        let doc = Json::obj([
            ("schema", "fastbar-runs/v1".into()),
            ("quick", true.into()),
            ("mean", 2.5.into()),
            ("nan", f64::NAN.into()),
            ("mc", Json::Arr(Vec::new())),
            ("runs", Json::Arr(vec![run(1), run(42)])),
        ])
        .with("jobs", 2usize);
        let text = doc.document();
        assert_eq!(
            text,
            "{\n  \"schema\": \"fastbar-runs/v1\",\n  \"quick\": true,\n  \
             \"mean\": 2.5,\n  \"nan\": null,\n  \"mc\": [],\n  \"runs\": [\n    \
             {\"n\":1,\"d\":\"0x0000000000000001\"},\n    \
             {\"n\":42,\"d\":\"0x000000000000002a\"}\n  ],\n  \"jobs\": 2\n}\n"
        );
        assert_eq!(Json::parse(&text).expect("document re-parses"), doc);
        assert_eq!(
            Json::from(0.1 + 0.2).as_f64(),
            Some(0.1 + 0.2),
            "round trip"
        );
        assert_eq!(Json::from(5.0).dump(), "5");
        assert_eq!(Json::from(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Json::from(String::from("a\"b")).dump(), "\"a\\\"b\"");
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
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("l1\nl2\t"), "l1\\nl2\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fnv_matches_the_digest_chain_parameters() {
        // Same FNV-1a offset/prime the engine's digest chain uses.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(parse_u64_flex("0x2a"), Some(42));
        assert_eq!(parse_u64_flex("42"), Some(42));
        assert_eq!(parse_u64_flex("zz"), None);
        // Digits only: `from_str_radix` and `str::parse` also take a sign.
        for bad in ["0x+ff", "+42", "-0", "0x", "", " 1", "0x-1"] {
            assert_eq!(parse_u64_flex(bad), None, "{bad:?}");
        }
        assert_eq!(parse_u64_flex("0XfF"), Some(255));
    }
}
