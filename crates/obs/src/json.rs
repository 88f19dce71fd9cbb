//! Minimal JSON emit + parse helpers.
//!
//! The workspace has no serde (the build environment is offline), so the
//! exporters hand-roll their JSON. This module centralises the escaping
//! rules and provides a small recursive-descent parser used by the schema
//! checks (`tcdsim trace` / `tcdsim metrics` validate their own output
//! before writing it) and by the exporter unit tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape and quote a string as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render a float as a JSON number (`null` for non-finite values).
pub fn num_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Append `v` in decimal; the same bytes as `v.to_string()`.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut len = 0;
    for d in digits.iter_mut() {
        *d = b'0' + (v % 10) as u8;
        len += 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits.iter().take(len).rev().map(|&d| char::from(d)));
}

/// Append `v` in decimal; the same bytes as `v.to_string()`.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Picoseconds from which [`push_us`] writes digits directly: below
/// 100 ps (`1e-4` µs) Debug switches to exponent notation.
const US_EXACT_FROM_PS: u64 = 100;
/// Picoseconds up to which [`push_us`] writes digits directly: below
/// 2^30 µs an f64's half-ulp is under 10⁻⁷ µs, far inside the 10⁻⁶ µs
/// spacing of picosecond-exact decimals, so the shortest decimal that
/// round-trips is the exact quotient itself.
const US_EXACT_TO_PS: u64 = (1 << 30) * 1_000_000;

/// Append `ps` picoseconds as microseconds: the same bytes as
/// `num_f64(ps as f64 / 1e6)`. From 100 ps to 2^30 µs the digits are
/// written in integer arithmetic, since there the shortest decimal that
/// round-trips is provably the exact quotient; elsewhere through
/// [`num_f64`].
pub fn push_us(out: &mut String, ps: u64) {
    if !(US_EXACT_FROM_PS..US_EXACT_TO_PS).contains(&ps) {
        out.push_str(&num_f64(ps as f64 / 1e6));
        return;
    }
    push_u64(out, ps / 1_000_000);
    out.push('.');
    let mut frac = ps % 1_000_000;
    if frac == 0 {
        out.push('0');
        return;
    }
    // Six fractional digits, most significant first, trailing zeros cut.
    let mut width = 6;
    while frac.is_multiple_of(10) {
        frac /= 10;
        width -= 1;
    }
    let mut digits = [b'0'; 6];
    for d in digits.iter_mut().take(width).rev() {
        *d += (frac % 10) as u8;
        frac /= 10;
    }
    out.extend(digits.iter().take(width).map(|&d| char::from(d)));
}

/// A parsed JSON value. Object keys are kept in a `BTreeMap`, so parsing
/// is deterministic; duplicate keys keep the last occurrence (as browsers
/// do).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Returns a human-readable error with a
/// byte offset on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "pos <= bytes.len() is the parser's invariant: it only steps past bytes peek() returned"
    )]
    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "start <= pos <= bytes.len(): pos only steps past bytes peek() returned"
    )]
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "this arm runs after peek() returned Some, so pos < bytes.len()"
    )]
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by our own
                            // emitters; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            out.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn num_formats() {
        assert_eq!(num_f64(1.5), "1.5");
        assert_eq!(num_f64(f64::NAN), "null");
        assert_eq!(num_f64(f64::INFINITY), "null");
    }

    /// `push_u64` / `push_us` into a fresh string.
    fn u64_text(v: u64) -> String {
        let mut s = String::new();
        push_u64(&mut s, v);
        s
    }

    fn us_text(ps: u64) -> String {
        let mut s = String::new();
        push_us(&mut s, ps);
        s
    }

    /// The values either side of every boundary the writers know about.
    fn edges() -> Vec<u64> {
        let mut v = vec![0, 1, 9, 10, 99, 100, 101, 999_999, 1_000_000, 1_000_001];
        for e in [US_EXACT_TO_PS, 1 << 53, u64::MAX] {
            v.extend([e - 1, e, e.saturating_add(1)]);
        }
        v.extend((1..20).map(|k| 10u64.pow(k)));
        v
    }

    #[test]
    fn push_u64_matches_to_string() {
        for v in edges() {
            assert_eq!(u64_text(v), v.to_string(), "{v}");
        }
    }

    #[test]
    fn push_i64_matches_to_string() {
        for v in [0, 1, -1, 42, -42, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut s = String::new();
            push_i64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn push_us_matches_num_f64() {
        for ps in edges() {
            assert_eq!(us_text(ps), num_f64(ps as f64 / 1e6), "{ps} ps");
        }
        assert_eq!(us_text(100), "0.0001");
        assert_eq!(us_text(1_500_000), "1.5");
        assert_eq!(us_text(2_000_000), "2.0");
    }

    // Values drawn as a random u64 shifted right by 0..64 bits, so every
    // magnitude from single digits to u64::MAX is hit about equally.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        #[test]
        fn push_u64_matches_to_string_at_every_magnitude(
            v in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let v = v >> shift;
            proptest::prop_assert_eq!(u64_text(v), v.to_string());
        }

        #[test]
        fn push_us_matches_num_f64_at_every_magnitude(
            ps in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let ps = ps >> shift;
            proptest::prop_assert_eq!(us_text(ps), num_f64(ps as f64 / 1e6));
        }
    }

    #[test]
    fn parse_round_trip() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"nested": true, "s": "x\n\"y\""}, "n": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Value::Num(-300.0));
        assert_eq!(
            v.get("b").unwrap().get("s").unwrap().as_str(),
            Some("x\n\"y\"")
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parses_own_escapes() {
        let s = "weird \u{7} value\twith\nnewlines\"and quotes\\";
        let parsed = parse(&escape(s)).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
    }
}
