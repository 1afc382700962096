//! A minimal JSON reader for the repository's own JSON output: the
//! ledger's JSONL and the bench harness records.
//!
//! Deliberately small: objects, arrays, strings (with the escapes the
//! writer emits plus `\uXXXX`), numbers, booleans, and null. Unsigned
//! integers parse exactly as `u64`; any other number (signed, fractional
//! or with an exponent) parses as `f64`. The ledger writes only unsigned
//! integers, and its hashes travel as hex strings precisely because a
//! `u64` does not survive a JSON `f64`.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// Any other number: signed, fractional or with an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number of either kind. Integers
    /// above 2^53 round to the nearest `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a vector of strings, if it is an array of strings.
    #[must_use]
    pub fn as_str_array(&self) -> Option<Vec<String>> {
        let items = self.as_array()?;
        items
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let mut integer = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'-' | b'+' | b'.' | b'e' | b'E' => integer = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok();
        let value = if integer {
            text.and_then(|s| s.parse::<u64>().ok()).map(JsonValue::Num)
        } else {
            text.and_then(|s| s.parse::<f64>().ok())
                .filter(|x| x.is_finite())
                .map(JsonValue::Float)
        };
        value.ok_or_else(|| format!("bad number at byte {start}"))
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one full UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Parses one line of JSON into a [`JsonValue`].
///
/// # Errors
///
/// Returns a message locating the first malformed byte.
pub fn parse_json_line(line: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse_json_line(r#"{"a":[1,2,{"b":"x"}],"c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn parses_escapes() {
        let v = parse_json_line(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn parses_signed_and_fractional_numbers_as_floats() {
        assert_eq!(parse_json_line("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse_json_line("-3").unwrap(), JsonValue::Float(-3.0));
        assert_eq!(parse_json_line("2e3").unwrap().as_f64(), Some(2000.0));
        let v = parse_json_line("{\n  \"pps\": 1094156.898,\n  \"pct\": -0.25\n}\n").unwrap();
        assert_eq!(
            v.get("pps").and_then(JsonValue::as_f64),
            Some(1_094_156.898)
        );
        assert_eq!(v.get("pct").and_then(JsonValue::as_f64), Some(-0.25));
        // Floats are never mistaken for the exact integers ledgers carry.
        assert_eq!(v.get("pps").and_then(JsonValue::as_u64), None);
        assert_eq!(parse_json_line("7").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn rejects_malformed_numbers_and_trailing_input() {
        assert!(parse_json_line("1.2.3").is_err());
        assert!(parse_json_line("-").is_err());
        assert!(parse_json_line("1e999").is_err());
        assert!(parse_json_line("{} x").is_err());
        assert!(parse_json_line("{").is_err());
    }

    #[test]
    fn u64_numbers_are_exact() {
        let v = parse_json_line("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }
}
