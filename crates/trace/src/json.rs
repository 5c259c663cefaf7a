//! Hand-rolled JSON encoding and a minimal parser.
//!
//! The workspace must build in offline sandboxes with no registry access,
//! so this module replaces `serde_json` for the small amount of JSON the
//! telemetry layer needs: escaping, shortest round-tripping number
//! formatting, an object/array writer, and a recursive-descent parser used
//! by tests and tools that read the emitted JSONL back.
//!
//! Non-finite floats encode as `null` (JSON has no NaN/Infinity). Integers
//! round-trip exactly up to 2^53; beyond that the parser (which reads every
//! number as `f64`) loses precision, which is acceptable for telemetry
//! counters.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn write_escaped(out: &mut String, s: &str) {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number for `v`: the shortest decimal that round-trips
/// (Rust's `Display` for `f64`), or `null` when `v` is NaN or infinite.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// An incremental writer for one JSON object (one telemetry record).
///
/// ```
/// use kraftwerk_trace::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.str_field("name", "cg");
/// o.u64_field("iterations", 12);
/// assert_eq!(o.finish(), r#"{"name":"cg","iterations":12}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.key(key);
        write_escaped(&mut self.buf, value);
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.key(key);
        write_f64(&mut self.buf, value);
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a signed integer field.
    pub fn i64_field(&mut self, key: &str, value: i64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds a field whose value is already-serialized JSON (an object,
    /// array, or any other valid JSON fragment).
    pub fn raw_field(&mut self, key: &str, json: &str) {
        self.key(key);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value (the read side of the telemetry round trip).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced when encoding non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; always held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` for other variants or absent keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a human-readable description with a byte offset on malformed
/// input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
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
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or("invalid \\u escape")?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one piece. All three are ASCII, so
                    // the run ends on a char boundary of the `&str` input
                    // and needs no UTF-8 validation.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(slice).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_escaped(&mut out, s);
        out
    }

    #[test]
    fn escaping_round_trips() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\n tab\t return\r",
            "control \u{01}\u{02}\u{1f} chars",
            "unicode: grüße 力 🦀",
            "backspace\u{08} formfeed\u{0c}",
            "solidus / stays bare",
        ] {
            let json = escaped(s);
            let back = parse(&json).expect("parse escaped string");
            assert_eq!(back, Json::Str(s.to_string()), "through {json}");
        }
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1.0 / 3.0,
            1e-300,
            8.7e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            123456789.123456,
            2f64.powi(53),
        ] {
            let mut out = String::new();
            write_f64(&mut out, v);
            let back = parse(&out).expect("parse number").as_f64().expect("number");
            assert_eq!(back.to_bits(), v.to_bits(), "through {out}");
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn object_builder_produces_parseable_output() {
        let mut o = JsonObject::new();
        o.str_field("name", "phase \"x\"");
        o.f64_field("seconds", 0.25);
        o.u64_field("count", 3);
        o.i64_field("delta", -7);
        o.bool_field("ok", true);
        o.raw_field("list", "[1,2,3]");
        let text = o.finish();
        let v = parse(&text).expect("valid json");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("phase \"x\""));
        assert_eq!(v.get("seconds").and_then(Json::as_f64), Some(0.25));
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("delta").and_then(Json::as_f64), Some(-7.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("list").and_then(Json::as_array).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[ ]").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn parser_handles_nesting_and_whitespace() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : false } ").unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
    }

    #[test]
    fn parser_decodes_unicode_escapes() {
        // A = 'A', é = 'é', 🦀 = '🦀' (surrogate pair).
        assert_eq!(
            parse("\"\\u0041\\u00e9\\ud83e\\udd80\"").unwrap(),
            Json::Str("Aé🦀".into())
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn scientific_notation_parses() {
        assert_eq!(parse("6.02e23").unwrap().as_f64(), Some(6.02e23));
        assert_eq!(parse("-1.5E-3").unwrap().as_f64(), Some(-1.5e-3));
    }

    #[test]
    fn histogram_records_round_trip_through_jsonl() {
        let ev = crate::TraceEvent::Histogram {
            name: "place.displacement",
            buckets: vec![(0, 2), (25, 7), (63, 1)],
        };
        let line = ev.to_json();
        let v = parse(&line).expect("histogram line parses");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("histogram"));
        assert_eq!(
            v.get("name").and_then(Json::as_str),
            Some("place.displacement")
        );
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(10.0));
        let buckets = v.get("buckets").and_then(Json::as_array).unwrap();
        let decoded: Vec<(u8, u64)> = buckets
            .iter()
            .map(|pair| {
                let pair = pair.as_array().unwrap();
                (
                    pair[0].as_f64().unwrap() as u8,
                    pair[1].as_f64().unwrap() as u64,
                )
            })
            .collect();
        assert_eq!(decoded, vec![(0, 2), (25, 7), (63, 1)]);
        // The merged run-report form encodes identically.
        let stat = crate::HistogramStat {
            name: "place.displacement".to_string(),
            buckets: vec![(0, 2), (25, 7), (63, 1)],
        };
        assert_eq!(stat.to_json(), line);
    }

    #[test]
    fn snapshot_records_round_trip_through_jsonl() {
        let values = vec![0.0, 0.25, -1.5, 1e6];
        let ev = crate::TraceEvent::Snapshot {
            kind: "density",
            iteration: 15,
            nx: 2,
            ny: 2,
            values: values.clone(),
        };
        let line = ev.to_json();
        let v = parse(&line).expect("snapshot line parses");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("snapshot"));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("density"));
        assert_eq!(v.get("iteration").and_then(Json::as_f64), Some(15.0));
        assert_eq!(v.get("nx").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("ny").and_then(Json::as_f64), Some(2.0));
        let decoded: Vec<f64> = v
            .get("values")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(decoded, values);
        // The decoded SnapshotRecord form encodes identically.
        let rec = crate::SnapshotRecord {
            kind: "density".to_string(),
            iteration: 15,
            nx: 2,
            ny: 2,
            values,
        };
        assert_eq!(rec.to_json(), line);
    }

    #[test]
    fn multibyte_scalars_survive_next_to_escapes() {
        // 2-byte é, 3-byte 力 and 4-byte 🦀 raw, directly before and
        // after simple and \u escapes.
        let cases = [
            (r#""é\n力\t🦀\"""#, "é\n力\t🦀\""),
            (r#""\\é\/力\b🦀\f""#, "\\é/力\u{08}🦀\u{0c}"),
            (r#""é\u00e9力\u529b🦀\ud83e\udd80🦀""#, "éé力力🦀🦀🦀"),
            (r#""\u00e9é\u529b力\ud83e\udd80""#, "éé力力🦀"),
            (r#""🦀""#, "🦀"),
            (r#""a🦀\r""#, "a🦀\r"),
        ];
        for (text, want) in cases {
            assert_eq!(
                parse(text),
                Ok(Json::Str(want.to_string())),
                "parsing {text}"
            );
        }
        // The same strings as object keys and values.
        let v = parse(r#"{"ké\ny":"力\"🦀"}"#).unwrap();
        assert_eq!(v.get("ké\ny").and_then(Json::as_str), Some("力\"🦀"));
    }

    #[test]
    fn unicode_escapes_decode_every_plane() {
        for (text, want) in [
            (r#""\u0000""#, "\u{0}"),
            (r#""\u001F\u007f""#, "\u{1f}\u{7f}"),
            (r#""\u00E9\uFFFD\uffff""#, "é\u{fffd}\u{ffff}"),
            (r#""\ud800\udc00""#, "\u{10000}"),
            (r#""\uDBFF\uDFFF""#, "\u{10ffff}"),
            (r#""x\ud83e\udd80y""#, "x🦀y"),
        ] {
            assert_eq!(
                parse(text),
                Ok(Json::Str(want.to_string())),
                "parsing {text}"
            );
        }
        for (text, err) in [
            (r#""\ud800\u0041""#, "invalid low surrogate"),
            (r#""\ud800x""#, "expected `\\` at byte 7"),
            (r#""\udc00""#, "invalid \\u escape"),
            (r#""\u12g4""#, "bad \\u escape"),
            (r#""\u12"#, "truncated \\u escape"),
        ] {
            assert_eq!(parse(text), Err(err.to_string()), "parsing {text}");
        }
    }

    #[test]
    fn raw_control_characters_report_their_byte_offset() {
        for (text, at) in [
            // Start, middle and end of a run.
            ("\"\u{01}abc\"", 1),
            ("\"ab\u{1f}cd\"", 3),
            ("\"abc\n\"", 4),
            // After an escape and after multi-byte scalars.
            ("\"a\\n\u{02}\"", 4),
            ("\"é力🦀\t\"", 10),
            ("{\"k\":\"v\u{00}\"}", 7),
        ] {
            assert_eq!(
                parse(text),
                Err(format!("raw control character at byte {at}")),
                "parsing {text:?}"
            );
        }
        // DEL (0x7f) is not a control character to JSON.
        assert_eq!(parse("\"a\u{7f}\""), Ok(Json::Str("a\u{7f}".into())));
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for (text, err) in [
            ("\"", "unterminated string"),
            ("\"abc", "unterminated string"),
            ("\"ab🦀", "unterminated string"),
            ("{\"k\":\"v", "unterminated string"),
            ("\"ab\\", "unterminated escape"),
            ("\"a\\q\"", "bad escape at byte 3"),
        ] {
            assert_eq!(parse(text), Err(err.to_string()), "parsing {text:?}");
        }
    }

    /// A random string drawn from every UTF-8 length class plus the
    /// characters JSON must escape.
    fn random_string(rng: &mut rand_chacha::ChaCha8Rng, len: usize) -> String {
        use rand::Rng;
        (0..len)
            .map(|_| {
                let code = match rng.gen_range(0u32..8) {
                    0 => rng.gen_range(0u32..0x20),
                    1 => [0x22, 0x5c, 0x2f][rng.gen_range(0usize..3)],
                    2 | 3 => rng.gen_range(0x20u32..0x80),
                    4 => rng.gen_range(0x80u32..0x800),
                    5 => rng.gen_range(0x800u32..0xd800),
                    6 => rng.gen_range(0xe000u32..0x10000),
                    _ => rng.gen_range(0x10000u32..0x11_0000),
                };
                char::from_u32(code).expect("no surrogates drawn")
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn escaped_random_strings_round_trip(seed in 0u64..u64::MAX, len in 0usize..96) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let s = random_string(&mut rng, len);
            proptest::prop_assert_eq!(parse(&escaped(&s)), Ok(Json::Str(s.clone())));
            let mut o = JsonObject::new();
            o.str_field(&s, &s);
            let v = parse(&o.finish()).expect("object parses");
            proptest::prop_assert_eq!(v.get(&s).and_then(Json::as_str), Some(s.as_str()));
        }
    }

    #[test]
    fn megabyte_string_fields_parse_in_linear_time() {
        // A place frame whose netlist field is 1.5 MiB of escaped lines
        // with multi-byte names. Parsing it linearly takes about 50 ms in
        // a debug build (the bound leaves over 100x); re-validating the
        // rest of the frame per character takes minutes.
        const BOUND: std::time::Duration = std::time::Duration::from_secs(6);
        let mut netlist = String::new();
        let mut i = 0usize;
        while netlist.len() < 3 << 19 {
            let _ = writeln!(netlist, "cell zelle_{i}_größe \"力\" 4.0 1.0\tmovable");
            i += 1;
        }
        let mut o = JsonObject::new();
        o.str_field("type", "place");
        o.str_field("netlist", &netlist);
        let frame = o.finish();
        let frame_len = frame.len();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let parsed = parse(&frame);
            let elapsed = start.elapsed();
            let _ = done_tx.send(());
            (parsed, elapsed)
        });
        // A parser still running at the bound fails the test now; its
        // thread is left to run out. A panicking one surfaces at `join`.
        assert!(
            !matches!(
                done_rx.recv_timeout(BOUND),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout)
            ),
            "parsing a {frame_len} byte frame took over {BOUND:?}"
        );
        let (parsed, elapsed) = worker.join().expect("parser thread panicked");
        let v = parsed.expect("frame parses");
        assert_eq!(
            v.get("netlist").and_then(Json::as_str),
            Some(netlist.as_str())
        );
        assert!(
            elapsed < BOUND,
            "parsing a {frame_len} byte frame took {elapsed:?}"
        );
    }
}
