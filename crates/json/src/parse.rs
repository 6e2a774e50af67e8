//! Recursive-descent JSON parser.
//!
//! Accepts the full RFC 8259 grammar that the workspace emits (objects,
//! arrays, strings with escapes incl. `\uXXXX` pairs, numbers, literals)
//! and rejects trailing garbage. Numbers parse through Rust's `f64`
//! parser, which is exact for round-tripped shortest representations.
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects, as RFC 8259 §9
//! permits: each level is one stack frame, so an unbounded run of `[` in a
//! wire frame would overflow a worker's stack and abort the process. A
//! deeper document is a typed [`ParseError`]; the deepest document the
//! workspace writes nests a few levels.

use crate::Json;

/// The deepest nesting of arrays and objects the parser accepts.
const MAX_DEPTH: usize = 128;

/// Error with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn parse(s: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.i, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect_byte(&mut self, c: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing a level past
    /// [`MAX_DEPTH`] before recursing into it.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(members)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let cp = 0x10000 + (((hi - 0xD800) << 10) | (lo - 0xDC00));
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Multi-byte UTF-8: the input is a &str so the bytes are
                    // valid; re-decode the sequence from the source slice.
                    let start = self.i - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let s = core::str::from_utf8(&self.b[start..start + len])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.i = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        let text = core::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| self.err("non-ascii byte in number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        // Strict JSON has no non-finite numbers; a literal whose magnitude
        // overflows f64 (e.g. `1e999`) must be rejected, not silently read
        // back as infinity — the writer degrades non-finite values to
        // `null`, so accepting them here would break round-trip symmetry.
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#" {"carrier":"T-Mobile","serving":{"freq":850,"rsrp":-91.25},
                 "events":["A3",{"A5":{"thresh1_dbm":-100,"thresh2_dbm":-95}}],
                 "ok":true,"note":null} "#,
        )
        .unwrap();
        assert_eq!(v["carrier"].as_str(), Some("T-Mobile"));
        assert_eq!(v["serving"]["freq"].as_u64(), Some(850));
        assert_eq!(v["serving"]["rsrp"].as_f64(), Some(-91.25));
        assert_eq!(v["events"][0].as_str(), Some("A3"));
        assert_eq!(v["events"][1]["A5"]["thresh2_dbm"].as_f64(), Some(-95.0));
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert!(v["note"].is_null());
    }

    #[test]
    fn round_trips_through_display() {
        let text = r#"{"a":[1,2.5,-3e-2],"b":{"c":"x\"y"},"d":[[],{}]}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        assert_eq!(
            parse("\"héllo — 試験\"").unwrap(),
            Json::Str("héllo — 試験".into())
        );
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "1.",
            "--1",
            "\"abc",
            "[1] trailing",
            "{'a':1}",
            "nul",
            "+1",
            "1e",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_carries_position() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.at, 4);
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let e = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "refused at the first level past the cap");
        let e = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.msg.starts_with("nesting deeper"), "{e}");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
    }
}
