//! Minimal hand-rolled JSON: the one codec of the workspace.
//!
//! The repo's no-new-deps rule (the container is offline) rules out serde;
//! the `pug-serve` line protocol and the trace JSONL export need objects,
//! strings, numbers, booleans and arrays, so this is a ~300-line value
//! type with a recursive-descent parser and a deterministic writer. The
//! parser bounds its nesting depth, so a hostile line cannot overflow the
//! stack of the thread that reads it, and it runs in time linear in its
//! input. Object keys keep insertion order, so rendered documents are
//! byte-stable — the serve tests compare service verdicts against
//! in-process verdicts textually.

use std::fmt::Write as _;

/// Deepest array/object nesting the parser accepts. Requests nest at most
/// two deep; the bound keeps the recursive descent far from the end of a
/// 2 MiB thread stack.
const MAX_DEPTH: usize = 64;

/// A JSON value. Integer literals stay exact in [`Json::Int`] (a trace
/// carries `u64::MAX` and `i64::MIN` attributes); every other number is a
/// [`Json::Num`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number written without fraction or exponent that fits an `i128`.
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n.into())
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n.into())
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i128)
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field of an object, if this is an object and the field exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer: a [`Json::Int`], or an integral [`Json::Num`]
    /// such as `8.0`, both saturating at `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(u64::try_from(*n).unwrap_or(u64::MAX)),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String field of an object (`get` + `as_str`).
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Integer field of an object (`get` + `as_u64`).
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Render on one line (no trailing newline), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the [`Json::render`] text to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON value; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { src: input, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.src.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parse one array or object one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Digits with an optional leading `-` are an exact [`Json::Int`] when
    /// they fit an `i128`; anything else goes through `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if let Ok(n) = text.parse::<i128>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by `\uDC00..\uDFFF`.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.src[self.pos..].starts_with("\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                            // hex4 advanced past the digits; undo the +1 below
                            self.pos -= 1;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a char boundary.
                    let rest = &self.src.as_bytes()[self.pos..];
                    let run =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.src.len() {
            return Err("truncated \\u escape".into());
        }
        let bytes = &self.src.as_bytes()[self.pos..end];
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let cp = u32::from_str_radix(text, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
        self.pos = end;
        Ok(cp)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = Json::obj(vec![
            ("op", "verify".into()),
            ("id", "j-1".into()),
            ("n", 42u64.into()),
            ("pi", Json::Num(3.5)),
            ("ok", true.into()),
            ("nothing", Json::Null),
            ("arr", Json::Arr(vec![1u64.into(), "two".into()])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.str_field("op"), Some("verify"));
        assert_eq!(back.u64_field("n"), Some(42));
        assert_eq!(back.get("pi"), Some(&Json::Num(3.5)));
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("arr").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    }

    #[test]
    fn escapes_roundtrip() {
        let nasty = "line\nbreak \"quoted\" back\\slash\ttab \u{1}ctrl ünïcødé 🚀";
        let v = Json::obj(vec![("s", nasty.into())]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.str_field("s"), Some(nasty));
    }

    #[test]
    fn parses_whitespace_and_unicode_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5 , \"\\u0041\\ud83d\\ude80\" ] } ").unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Json::Num(-2.5));
        assert_eq!(arr[2].as_str(), Some("A🚀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(7u64).render(), "7");
        assert_eq!(Json::from(0u64).render(), "0");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(1.25).render(), "1.25");
    }

    #[test]
    fn integers_stay_exact() {
        for text in ["18446744073709551615", "-9223372036854775808", "9007199254740993"] {
            assert_eq!(Json::parse(text).unwrap().render(), text);
        }
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        // Out of range saturates, whether written as an integer or a float.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(Json::parse("1e20").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        // Integral floats still read as integers; fractions do not.
        assert_eq!(Json::parse("8.0").unwrap().as_u64(), Some(8));
        assert_eq!(Json::parse("1e2").unwrap().as_u64(), Some(100));
        assert_eq!(Json::parse("8.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        // Beyond i128 the literal falls back to f64.
        assert!(matches!(Json::parse(&"9".repeat(40)).unwrap(), Json::Num(_)));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "ab\u{e9}\u{1F680}".repeat(1 << 17); // 1 MiB
        let text = format!("\"{body}\"");
        let t0 = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(v.as_str(), Some(body.as_str()));
        assert!(elapsed < std::time::Duration::from_secs(1), "1 MiB string took {elapsed:?}");
    }
}
