//! The workspace's one JSON writer and parser.
//!
//! Writers produce literals ([`string`], [`number`]) that callers splice
//! into documents they lay out themselves; [`parse`] reads any document
//! back into a [`Value`]. Exporters, traces, the slow-query log, the
//! experiment rows under `results/` and the `summarize` tool all go
//! through here, so an escape is written and read one way.

use std::fmt::Write as _;

/// A JSON string literal, quoted, with every required escape.
pub fn string(s: &str) -> String {
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

/// A JSON number literal (`null` for NaN and the infinities, which JSON
/// cannot carry).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        crate::export::fmt_f64(v)
    } else {
        "null".to_string()
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as a bare non-negative integer; kept apart from
    /// [`Value::F64`] so nanosecond counters survive above 2⁵³.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(n) => Some(*n as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for other values and absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Deepest nesting [`parse`] follows; documents here nest a span tree at
/// most a few levels, and a bound keeps hostile input off the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; anything after it but whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let value = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// The unread input.
    fn rest(&self) -> &[u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'[') => self.nested(b']', |p| p.value()).map(Value::Array),
            Some(b'{') => self
                .nested(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Value::Object),
            _ => self.number(),
        }
    }

    /// The comma-separated items of an array or object up to `close`; the
    /// opening bracket is the current byte.
    fn nested<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                items.push(item(self)?);
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(close)?;
        }
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through intact.
                    let rest = std::str::from_utf8(self.rest()).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or_default();
        let text = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
        let bad = |e: &dyn std::fmt::Display| format!("bad number {text:?} at byte {start}: {e}");
        if text.contains(['.', 'e', 'E', '-']) {
            text.parse::<f64>().map(Value::F64).map_err(|e| bad(&e))
        } else {
            text.parse::<u64>().map(Value::U64).map_err(|e| bad(&e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What every caller relies on: whatever the writers emit, the parser
    /// reads back unchanged.
    #[test]
    fn writers_and_parser_round_trip() {
        let nasty = "q\"uote \\ back\u{1}\u{1f}\n\r\t é 漢 \u{7f}";
        let doc = format!(
            "{{\"experiment\":{},\"param_value\":{},\"ok\":true,\"none\":null,\
             \"metrics\":{{\"time_ms\":{},\"nan\":{},\"inf\":{},\"rows\":{},\"neg\":{}}},\
             \"list\":[{},[],{{}}]}}",
            string(nasty),
            number(0.01),
            number(1.5),
            number(f64::NAN),
            number(f64::NEG_INFINITY),
            number(18_446_744_073_709.0),
            number(-2.0),
            string(""),
        );
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("experiment").and_then(Value::as_str), Some(nasty));
        assert_eq!(v.get("param_value").and_then(Value::as_f64), Some(0.01));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let metrics = v.get("metrics").expect("metrics");
        let keys: Vec<&str> =
            metrics.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["time_ms", "nan", "inf", "rows", "neg"], "document order kept");
        assert_eq!(metrics.get("time_ms").and_then(Value::as_f64), Some(1.5));
        // Non-finite numbers are written as null and read back as such.
        assert_eq!(metrics.get("nan"), Some(&Value::Null));
        assert_eq!(metrics.get("inf"), Some(&Value::Null));
        assert_eq!(metrics.get("rows"), Some(&Value::U64(18_446_744_073_709)));
        assert_eq!(metrics.get("neg"), Some(&Value::F64(-2.0)));
        assert_eq!(metrics.get("absent"), None);
        assert_eq!(
            v.get("list"),
            Some(&Value::Array(vec![
                Value::Str(String::new()),
                Value::Array(vec![]),
                Value::Object(vec![])
            ]))
        );
        // The control characters went out escaped: nothing raw below 0x20.
        assert!(doc.bytes().all(|b| b >= 0x20), "{doc:?}");
    }

    #[test]
    fn integers_keep_all_64_bits() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::U64(u64::MAX)));
        assert_eq!(parse(" 1e3 "), Ok(Value::F64(1000.0)));
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "{\"a\":1",
            "{\"a\" 1}",
            "[1,]",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "tru",
            "1.2.3",
            "{} x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nested deeper"));
    }
}
