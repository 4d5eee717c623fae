//! Minimal JSON value model, renderer and parser.
//!
//! The build environment has no access to a crates registry, so rather than
//! depending on `serde`/`serde_json` this module hand-rolls the small JSON
//! surface the observability layer needs: construct values, render them
//! compactly or pretty-printed, and parse them back for round-trip tests.
//!
//! Numbers are stored as `f64`. Every quantity the simulator serializes
//! (cycle counts, event counts) is far below 2^53, so the representation is
//! exact for our purposes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pimdsm_engine::Histogram;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Object with stable (sorted) key order for deterministic output.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn arr(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Arr(items.into_iter().collect())
    }

    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> JsonValue {
        JsonValue::Num(n.into())
    }

    /// Lossless for values < 2^53 (all simulator counters in practice).
    pub fn u64(n: u64) -> JsonValue {
        JsonValue::Num(n as f64)
    }

    pub fn usize(n: usize) -> JsonValue {
        JsonValue::Num(n as f64)
    }

    // -- accessors (used by tests and report readers) -----------------------

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    // -- rendering ----------------------------------------------------------

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(out, *n),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Types that can serialize themselves into a [`JsonValue`].
///
/// This trait plays the role `serde::Serialize` would if the registry were
/// reachable; implementations live next to the types they serialize.
pub trait ToJson {
    fn to_json(&self) -> JsonValue;
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

/// A recorded distribution as `{count, sum, max, buckets}`; read back by
/// [`histogram_from_json`].
impl ToJson for Histogram {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("count", JsonValue::u64(self.count())),
            ("sum", JsonValue::u64(self.sum())),
            ("max", JsonValue::u64(self.max())),
            (
                "buckets",
                JsonValue::Arr(self.buckets().iter().map(|&n| JsonValue::u64(n)).collect()),
            ),
        ])
    }
}

/// Reads the histogram at `v[key]` back from its [`ToJson`] form.
///
/// # Errors
///
/// Names the first missing or malformed field, and rejects buckets that
/// do not sum to `count` (which [`Histogram::from_raw`] would panic on).
pub fn histogram_from_json(v: &JsonValue, key: &str) -> Result<Histogram, String> {
    let h = v.get(key).ok_or_else(|| format!("missing {key}"))?;
    let field = |sub: &str| -> Result<u64, String> {
        h.get(sub)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("missing {key}.{sub}"))
    };
    let arr = h
        .get("buckets")
        .and_then(|x| x.as_arr())
        .ok_or_else(|| format!("missing {key}.buckets"))?;
    if arr.len() != 64 {
        return Err(format!("{key}.buckets has {} entries", arr.len()));
    }
    let mut buckets = [0u64; 64];
    for (slot, x) in buckets.iter_mut().zip(arr) {
        *slot = x
            .as_u64()
            .ok_or_else(|| format!("non-integer {key} bucket"))?;
    }
    let count = field("count")?;
    if buckets.iter().try_fold(0u64, |a, &n| a.checked_add(n)) != Some(count) {
        return Err(format!("{key}.buckets do not sum to {key}.count"));
    }
    Ok(Histogram::from_raw(
        buckets,
        count,
        field("sum")?,
        field("max")?,
    ))
}

// ---------------------------------------------------------------------------
// Parser (for round-trip tests and report consumers)
// ---------------------------------------------------------------------------

/// Parse a JSON document. Returns a descriptive error on malformed input.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    other => {
                        return Err(format!("expected ',' or ']' at byte {pos}, got {other:?}"))
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                map.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(map));
                    }
                    other => {
                        return Err(format!("expected ',' or '}}' at byte {pos}, got {other:?}"))
                    }
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        if *pos + 4 >= b.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the plain run up to the next quote or backslash at
                // once. Both are ASCII, so the run ends on a character
                // boundary and each byte is validated exactly once.
                let run = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                let text = std::str::from_utf8(&b[*pos..run])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                out.push_str(text);
                *pos = run;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = JsonValue::obj([
            ("name", JsonValue::str("fft \"quoted\" \\ path\nnewline")),
            ("count", JsonValue::u64(123_456_789)),
            ("ratio", JsonValue::num(0.5)),
            ("flag", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "series",
                JsonValue::arr([JsonValue::u64(1), JsonValue::u64(2), JsonValue::u64(3)]),
            ),
        ]);
        let compact = v.render();
        let pretty = v.render_pretty();
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::u64(42).render(), "42");
        assert_eq!(JsonValue::num(2.5).render(), "2.5");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,").is_err());
        assert!(parse("[1] extra").is_err());
        assert_eq!(parse("\"abc"), Err("unterminated string".into()));
        assert_eq!(parse("\"a\\q\""), Err("bad escape Some(113)".into()));
        assert_eq!(parse("\"\\u12\""), Err("truncated \\u escape".into()));
        assert_eq!(parse("\"\\uzzzz\""), Err("bad \\u escape".into()));
    }

    #[test]
    fn strings_keep_multibyte_characters_and_escapes() {
        let v = JsonValue::str("héllo → ✓ \"q\" \\ \u{1F600}\ttab");
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(
            parse("\"caf\\u00e9 \\/ é\"").unwrap(),
            JsonValue::str("café / é")
        );
    }

    /// String parsing is linear in the input: a Chrome trace of a few
    /// thousand events is megabytes of mostly string bytes, and a parser
    /// that re-scans the rest of the input per character takes minutes.
    #[test]
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "bounds host parse time; no simulated value depends on it"
    )]
    fn parses_a_multi_megabyte_string_document_quickly() {
        let name = "proto.handler \"ReadExclusive\" → D-node \\ ".repeat(3);
        let doc = JsonValue::arr((0..32_000u64).map(|i| {
            JsonValue::obj([
                ("name", JsonValue::str(format!("{name}{i}"))),
                ("cat", JsonValue::str("net.link")),
                ("ts", JsonValue::u64(i)),
            ])
        }));
        let text = doc.render();
        assert!(text.len() >= 4 << 20, "document is {} bytes", text.len());
        let t0 = std::time::Instant::now();
        let parsed = parse(&text).expect("document parses");
        let took = t0.elapsed();
        assert_eq!(parsed, doc);
        assert!(
            took < std::time::Duration::from_secs(10),
            "parsing {} bytes took {took:?}",
            text.len()
        );
    }

    #[test]
    fn histograms_round_trip_and_inconsistent_counts_are_errors() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 9, 9, 4096] {
            h.record(v);
        }
        let doc = JsonValue::obj([("lat", h.to_json())]);
        assert_eq!(histogram_from_json(&doc, "lat"), Ok(h));
        let mut bad = doc.clone();
        if let JsonValue::Obj(m) = &mut bad {
            if let Some(JsonValue::Obj(lat)) = m.get_mut("lat") {
                lat.insert("count".into(), JsonValue::u64(6));
            }
        }
        assert_eq!(
            histogram_from_json(&bad, "lat"),
            Err("lat.buckets do not sum to lat.count".into())
        );
        assert_eq!(
            histogram_from_json(&doc, "gone"),
            Err("missing gone".into())
        );
    }
}
