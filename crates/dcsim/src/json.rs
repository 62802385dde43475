//! Minimal hand-rolled JSON emission and parsing.
//!
//! The workspace builds with zero external dependencies (no `serde`), so
//! results serialization is done with this tiny writer instead of derive
//! macros: explicit, std-only, and more than enough for the flat records
//! the experiment binaries and the bench harness emit. The matching
//! reader ([`JsonValue::parse`]) exists so tests and downstream tooling
//! can round-trip those documents without a second dialect.

/// Escape a string for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number (non-finite values become `null`,
/// which JSON cannot represent as numbers).
pub fn num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        // Display for f64 is the shortest decimal that round-trips exactly.
        format!("{x}")
    }
}

/// Builder for a JSON object. Fields appear in insertion order.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.fields
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Add a numeric field.
    pub fn num(mut self, key: &str, value: f64) -> JsonObject {
        self.fields
            .push(format!("\"{}\":{}", escape(key), num(value)));
        self
    }

    /// Add an integer field (exact, no float formatting).
    pub fn int(mut self, key: &str, value: i64) -> JsonObject {
        self.fields.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> JsonObject {
        self.fields.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Add a pre-rendered JSON value (object, array, …) verbatim.
    pub fn raw(mut self, key: &str, rendered: &str) -> JsonObject {
        self.fields
            .push(format!("\"{}\":{}", escape(key), rendered));
        self
    }

    /// Add an array of numbers.
    pub fn nums(mut self, key: &str, values: &[f64]) -> JsonObject {
        let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
        self.fields
            .push(format!("\"{}\":[{}]", escape(key), items.join(",")));
        self
    }

    /// Render the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Render a slice of pre-rendered JSON values as an array.
pub fn array(rendered: &[String]) -> String {
    format!("[{}]", rendered.join(","))
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts (serde_json's
/// default). The parser recurses once per level, so a deeper document is
/// an error rather than a stack overflow.
const MAX_NESTING: usize = 128;

/// A parsed JSON value — the reader half of this module's writer.
///
/// Objects keep fields in document order (a `Vec` of pairs, not a map):
/// the writer emits insertion order, and round-trip tests compare it.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what [`num`] emits for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document. Trailing non-whitespace, and arrays
    /// or objects nested more than 128 deep, are errors.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Field lookup on an object (first match in document order).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
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
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parse an object or array (`parse`) one nesting level down.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (the input is valid UTF-8).
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape_char()?);
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn escape_char(&mut self) -> Result<char, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or("unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                // Decode a surrogate pair when one follows.
                let code = if (0xD800..0xDC00).contains(&hi)
                    && self.bytes[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(format!("unpaired surrogate \\u{hi:04x}\\u{lo:04x}"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or(format!("bad \\u escape {code:#x}"))?
            }
            other => return Err(format!("bad escape '\\{}'", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("short \\u escape".to_string())?;
        self.pos += 4;
        let s = std::str::from_utf8(digits).map_err(|_| "bad \\u escape".to_string())?;
        u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_render_compactly_and_roundtrip() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        let x = 0.1 + 0.2;
        let rendered = num(x);
        let parsed: f64 = rendered.parse().unwrap();
        assert_eq!(parsed.to_bits(), x.to_bits(), "17-digit round-trip");
    }

    #[test]
    fn object_builder_renders_valid_json() {
        let j = JsonObject::new()
            .str("name", "dual 2 GHz")
            .int("cores", 2)
            .bool("active", true)
            .nums("xs", &[1.0, 2.5])
            .raw("nested", &JsonObject::new().int("k", 1).build())
            .build();
        assert_eq!(
            j,
            "{\"name\":\"dual 2 GHz\",\"cores\":2,\"active\":true,\
             \"xs\":[1.0,2.5],\"nested\":{\"k\":1}}"
        );
    }

    #[test]
    fn array_joins_items() {
        let items = vec!["1".to_string(), "{\"a\":2}".to_string()];
        assert_eq!(array(&items), "[1,{\"a\":2}]");
    }

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let v =
            JsonValue::parse(" {\"a\": [1, -2.5e3, true, false, null], \"b\": {\"c\": \"x\"}} ")
                .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2], JsonValue::Bool(true));
        assert_eq!(a[3], JsonValue::Bool(false));
        assert_eq!(a[4], JsonValue::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(JsonValue::parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn parser_decodes_string_escapes() {
        let v = JsonValue::parse(r#""a\"b\\c\nd\tAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\tA\u{e9}"));
        // Surrogate-pair escape for U+1F600, next to the literal code point.
        let v = JsonValue::parse(r#""\ud83d\ude00 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} \u{1F600}"));
        assert!(JsonValue::parse(r#""\ud83dx""#).is_err(), "lone surrogate");
        assert!(JsonValue::parse(r#""\q""#).is_err(), "unknown escape");
        assert!(JsonValue::parse("\"open").is_err(), "unterminated");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "1 2",
            "tru",
            "nul",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode é\u{1F600}";
        let doc = JsonObject::new().str("s", nasty).build();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn non_finite_floats_round_trip_as_null() {
        let doc = JsonObject::new()
            .num("nan", f64::NAN)
            .num("inf", f64::INFINITY)
            .num("ninf", f64::NEG_INFINITY)
            .num("ok", 1.5)
            .build();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        assert_eq!(v.get("inf"), Some(&JsonValue::Null));
        assert_eq!(v.get("ninf"), Some(&JsonValue::Null));
        assert_eq!(v.get("ok").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn shortest_round_trip_floats_survive_parse_bit_exactly() {
        // Display emits the shortest decimal that round-trips; the parser
        // must land back on the identical bit pattern.
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.2250738585072014e-308,
            6.02214076e23,
            1e15 + 1.0,
        ] {
            let doc = JsonObject::new().num("x", x).build();
            let back = JsonValue::parse(&doc)
                .unwrap()
                .get("x")
                .unwrap()
                .as_f64()
                .unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "lossy round-trip for {x:e}");
        }
    }

    #[test]
    fn writer_documents_parse_back_in_field_order() {
        let doc = JsonObject::new()
            .str("name", "dual 2 GHz")
            .nums("freq_levels_ghz", &[1.0, 2.0])
            .raw("power", &JsonObject::new().num("max_watts", 200.0).build())
            .build();
        let v = JsonValue::parse(&doc).unwrap();
        let JsonValue::Object(fields) = &v else {
            panic!("not an object")
        };
        assert_eq!(fields[0].0, "name");
        assert!(v.get("power").unwrap().get("max_watts").is_some());
        assert!(v.get("freq_levels_ghz").unwrap().as_array().is_some());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(JsonValue::parse(&deep(MAX_NESTING)).is_ok());
        assert_eq!(
            JsonValue::parse(&deep(MAX_NESTING + 1)).unwrap_err(),
            "nesting deeper than 128 at byte 128"
        );
        // Objects count toward the same limit.
        let objects = "{\"a\":".repeat(MAX_NESTING) + "[]" + &"}".repeat(MAX_NESTING);
        assert!(JsonValue::parse(&objects).is_err());
        // An unterminated 100,000-deep document.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
        assert!(JsonValue::parse(&deep(100_000)).is_err());
    }
}
