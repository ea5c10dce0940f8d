//! Minimal dependency-free JSON support: writer helpers for the trace
//! exporters, a recursive-descent parser, and a small schema-subset
//! validator used by the `flowtrace` bin to check its own artifact
//! against `schemas/trace_report.schema.json` in CI.
//!
//! The validator understands the subset of JSON Schema the checked-in
//! schema uses: `type` (including `"integer"` = number with zero
//! fractional part), `required`, `properties`, `items`, `minItems` and
//! `enum` (strings only). Unknown keywords are ignored, matching JSON
//! Schema's open-world convention.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON number: finite values via the shortest
/// round-trip `{}` formatting (with a `.0` appended to integral values so
/// they stay floats on re-read), non-finite values as `null` (JSON has no
/// NaN/Infinity).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced by [`fmt_f64`] for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is normalized.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value's elements, when it is an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// JSON Schema type name of this value ("integer" is reported as
    /// "number"; the validator special-cases it).
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace writes nests a handful of levels; the bound keeps the
/// recursive-descent parser (and the recursive drop of what it builds)
/// within the stack on hostile input, such as 100k nested `[`.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document, requiring it to be fully consumed.
///
/// # Errors
///
/// A description with the byte offset when the input is not one JSON
/// value, or nests arrays/objects deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
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
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // Safe: we only stopped on ASCII delimiters, so the run is
            // valid UTF-8 (the input already was).
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "invalid \\u escape".to_string())?;
                            // Surrogate pairs aren't needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!("scan stops only on '\"' or '\\\\'"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

/// Validates `value` against a JSON-Schema-subset `schema`, returning the
/// list of violations (empty = valid). Paths in messages use `/`-joined
/// pointers rooted at `$`.
pub fn validate(value: &Json, schema: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    validate_at(value, schema, "$", &mut errors);
    errors
}

fn validate_at(value: &Json, schema: &Json, path: &str, errors: &mut Vec<String>) {
    let Some(Json::Str(ty)) = schema.get("type") else {
        // No (or non-string) "type": only structural keywords apply.
        validate_keywords(value, schema, path, errors);
        return;
    };
    let ok = match ty.as_str() {
        "integer" => matches!(value, Json::Num(n) if n.fract() == 0.0),
        t => value.type_name() == t,
    };
    if !ok {
        errors.push(format!(
            "{path}: expected {ty}, found {}",
            value.type_name()
        ));
        return;
    }
    validate_keywords(value, schema, path, errors);
}

fn validate_keywords(value: &Json, schema: &Json, path: &str, errors: &mut Vec<String>) {
    if let (Some(Json::Arr(req)), Json::Obj(obj)) = (schema.get("required"), value) {
        for r in req {
            if let Json::Str(key) = r {
                if !obj.contains_key(key) {
                    errors.push(format!("{path}: missing required field \"{key}\""));
                }
            }
        }
    }
    if let (Some(Json::Obj(props)), Json::Obj(obj)) = (schema.get("properties"), value) {
        for (key, sub) in props {
            if let Some(v) = obj.get(key) {
                validate_at(v, sub, &format!("{path}/{key}"), errors);
            }
        }
    }
    if let Json::Arr(items) = value {
        if let Some(Json::Num(min)) = schema.get("minItems") {
            if (items.len() as f64) < *min {
                errors.push(format!(
                    "{path}: expected at least {min} items, found {}",
                    items.len()
                ));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate_at(item, item_schema, &format!("{path}/{i}"), errors);
            }
        }
    }
    if let Some(Json::Arr(allowed)) = schema.get("enum") {
        if !allowed.contains(value) {
            errors.push(format!("{path}: value not in enum"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_of_writer_output() {
        let doc = parse(
            "{\"a\":1,\"b\":[true,false,null],\"c\":{\"nested\":\"q\\\"uote\"},\"d\":-1.5e3}",
        )
        .expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("b").and_then(Json::as_array).map(Vec::len), Some(3));
        assert_eq!(
            doc.get("c")
                .and_then(|c| c.get("nested"))
                .and_then(Json::as_str),
            Some("q\"uote")
        );
        assert_eq!(doc.get("d").and_then(Json::as_f64), Some(-1500.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting deeper"), "{err}");
        // Hostile input far past any stack: a typed error, not an abort.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        // Depth is per path, not cumulative: wide siblings are fine.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 64].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let parsed = parse(&format!("\"{}\"", escape("tab\there"))).expect("parses");
        assert_eq!(parsed.as_str(), Some("tab\there"));
    }

    #[test]
    fn fmt_f64_keeps_floats_floats() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        let round = parse(&fmt_f64(1e300)).expect("parses");
        assert_eq!(round.as_f64(), Some(1e300));
    }

    #[test]
    fn validator_checks_types_required_and_items() {
        let schema = parse(
            "{\"type\":\"object\",\"required\":[\"version\",\"spans\"],\"properties\":{\
             \"version\":{\"type\":\"integer\"},\
             \"spans\":{\"type\":\"array\",\"minItems\":1,\"items\":{\
               \"type\":\"object\",\"required\":[\"name\"],\"properties\":{\
                 \"name\":{\"type\":\"string\"}}}}}}",
        )
        .expect("schema parses");
        let good = parse("{\"version\":1,\"spans\":[{\"name\":\"flow\"}]}").expect("parses");
        assert!(validate(&good, &schema).is_empty());

        let bad = parse("{\"version\":1.5,\"spans\":[]}").expect("parses");
        let errs = validate(&bad, &schema);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("expected integer")));
        assert!(errs.iter().any(|e| e.contains("at least 1")));

        let missing = parse("{\"spans\":[{\"nom\":true}]}").expect("parses");
        let errs = validate(&missing, &schema);
        assert!(errs
            .iter()
            .any(|e| e.contains("missing required field \"version\"")));
        assert!(errs
            .iter()
            .any(|e| e.contains("missing required field \"name\"")));
    }
}
