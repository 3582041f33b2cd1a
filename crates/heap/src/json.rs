//! A minimal JSON reader. Nothing in the store reads or writes JSON; the
//! parser and the accessors are kept for the lobench harness, which
//! parses `BENCHMARK.json` and its own result lines with them, and for
//! `tests/bench_surface.rs`, which checks that they keep its signatures.
//!
//! The build environment is offline, so the workspace avoids serde (see
//! DESIGN.md, "dependency policy").

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Stored as f64; catalog integers stay far below 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as u64, if numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure, with byte offset.
#[derive(Debug)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Nesting depth bound; the catalog needs 3, malformed input gets rejected
/// instead of recursing unboundedly.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { msg: msg.into(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {text}")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?;
        text.parse().map(Value::Num).map_err(|_| self.err(format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: require the low half.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let hex2 = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .ok_or_else(|| self.err("truncated surrogate"))?;
                                    let low = u32::from_str_radix(hex2, 16)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.pos += 6;
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                code
                            };
                            out.push(char::from_u32(ch).ok_or_else(|| self.err("bad code point"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar, however many bytes it spans.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let Some(ch) = rest.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_objects() {
        let text = "{\n  \"w\": {\n    \"name\": \"EMP \\\"quoted\\\"\\n\",\n    \"n\": 1000,\n    \"o\": {}\n  }\n}";
        let v = Value::Obj(vec![(
            "w".into(),
            Value::Obj(vec![
                ("name".into(), Value::Str("EMP \"quoted\"\n".into())),
                ("n".into(), Value::Num(1000.0)),
                ("o".into(), Value::Obj(vec![])),
            ]),
        )]);
        assert_eq!(parse(text).unwrap(), v);
        assert_eq!(v.get("w").and_then(|w| w.get("n")).and_then(Value::as_u64), Some(1000));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(
            r#"{"k": "a\u00e9\t\\ \ud83d\ude00 b", "n": -3.5, "b": true, "x": null, "a": [1, 2]}"#,
        )
        .unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), "aé\t\\ 😀 b");
        assert_eq!(v.get("n"), Some(&Value::Num(-3.5)));
        assert_eq!(v.get("a"), Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)])));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "tru",
            "{\"a\":1}x",
            "\"\\ud800\"",
            "nul",
            "[1 2]",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
