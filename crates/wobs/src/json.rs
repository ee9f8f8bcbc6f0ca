//! A minimal, std-only, panic-free JSON parser shared by every artifact
//! validator, with the field helpers they check schemas through and the
//! one structural differ ([`first_difference`]) the `artifact diff` verb
//! reports with.
//!
//! The parser keeps insertion order for object keys (schema checks care
//! about canonical field order) and keeps each non-negative integer
//! literal's exact `u64`, so integer schema checks need no float
//! comparisons and lose no bits above 2^53.

use std::fmt::Display;

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; `exact` holds the integer when the source had no
    /// `.`/exponent, no minus sign and fits a `u64`.
    Num {
        /// Parsed value (rounded to the nearest `f64`).
        value: f64,
        /// The exact value of a non-negative integer literal that fits a
        /// `u64`.
        exact: Option<u64>,
    },
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of `key` when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it parsed as one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num { exact, .. } => exact,
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The entries of an object whose keys are exactly `want`, in order.
    /// A stray, missing, reordered or duplicated key is an error naming
    /// `what`; checking allocates nothing unless it fails.
    pub fn expect_keys(
        &self,
        want: &[&str],
        what: impl Display,
    ) -> Result<&[(String, Json)], String> {
        self.expect_keys_opt(want, &[], what)
    }

    /// Like [`Json::expect_keys`], where `want` may be followed by each
    /// of the `optional` key groups in order, every group present whole
    /// or absent.
    pub fn expect_keys_opt(
        &self,
        want: &[&str],
        optional: &[&[&str]],
        what: impl Display,
    ) -> Result<&[(String, Json)], String> {
        let Json::Obj(entries) = self else {
            return Err(format!("{what} must be a JSON object"));
        };
        let keys_are = |from: usize, names: &[&str]| {
            entries.get(from..).is_some_and(|rest| {
                rest.len() >= names.len() && rest.iter().zip(names).all(|((k, _), n)| k == n)
            })
        };
        let mut at = if keys_are(0, want) {
            want.len()
        } else {
            usize::MAX
        };
        for group in optional {
            if keys_are(at, group) {
                at += group.len();
            }
        }
        if at == entries.len() {
            return Ok(entries);
        }
        let found: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let then = if optional.is_empty() {
            String::new()
        } else {
            format!(" then optionally {optional:?}")
        };
        Err(format!(
            "{what} keys must be exactly {want:?}{then}, found {found:?}"
        ))
    }

    /// The value of `key` as a non-negative integer.
    pub fn u64_field(&self, key: &str, what: impl Display) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{what}: \"{key}\" must be a non-negative integer"))
    }

    /// The value of `key` as a string.
    pub fn str_field(&self, key: &str, what: impl Display) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{what}: \"{key}\" must be a string"))
    }

    /// The items of `key` when it is an array.
    pub fn arr_field(&self, key: &str, what: impl Display) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("{what}: \"{key}\" must be an array")),
        }
    }
}

/// The first structural difference between two values, as
/// `path: a vs b` with a path rooted at `$` (`$.shards[0].shed: 1 vs 2`),
/// or `None` when the values are equal. Objects are walked key by key in
/// order and arrays item by item, so the path names the earliest field
/// that differs. Formatting is invisible here: callers that need byte
/// identity compare the text first.
pub fn first_difference(a: &Json, b: &Json) -> Option<String> {
    difference_at(a, b, "$")
}

fn difference_at(a: &Json, b: &Json, path: &str) -> Option<String> {
    let n = match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => x.len().max(y.len()),
        (Json::Arr(x), Json::Arr(y)) => x.len().max(y.len()),
        _ if a == b => return None,
        _ => return Some(format!("{path}: {} vs {}", brief(Some(a)), brief(Some(b)))),
    };
    (0..n).find_map(|i| match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => match (x.get(i), y.get(i)) {
            (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                difference_at(va, vb, &format!("{path}.{ka}"))
            }
            (ea, eb) => {
                let key = |e: Option<&(String, Json)>| e.map(|(k, _)| format!("key \"{k}\""));
                Some(format!(
                    "{path}: {} vs {}",
                    brief_or(key(ea)),
                    brief_or(key(eb))
                ))
            }
        },
        (Json::Arr(x), Json::Arr(y)) => {
            let path = format!("{path}[{i}]");
            match (x.get(i), y.get(i)) {
                (Some(va), Some(vb)) => difference_at(va, vb, &path),
                (va, vb) => Some(format!("{path}: {} vs {}", brief(va), brief(vb))),
            }
        }
        _ => None,
    })
}

fn brief_or(text: Option<String>) -> String {
    text.unwrap_or_else(|| "<absent>".to_owned())
}

/// A short rendering of a value for a difference report.
fn brief(v: Option<&Json>) -> String {
    brief_or(v.map(|v| match v {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        Json::Num { exact: Some(n), .. } => n.to_string(),
        Json::Num { value, .. } => value.to_string(),
        Json::Str(s) => format!("{s:?}"),
        Json::Arr(items) => format!("[{} items]", items.len()),
        Json::Obj(entries) => format!("{{{} keys}}", entries.len()),
    }))
}

const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document (the whole input must be consumed).
///
/// # Errors
///
/// Returns a one-line message locating the problem. Input that ends in
/// the middle of a value is reported as *truncated* — distinct from
/// malformed syntax — so callers surface "half a file" (a crashed or
/// interrupted writer) clearly.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing data after the top-level value"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> String {
        if self.pos >= self.bytes.len() {
            format!(
                "truncated JSON: input ends unexpectedly at byte {} ({msg})",
                self.pos
            )
        } else {
            format!("invalid JSON at byte {}: {msg}", self.pos)
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_word("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_word("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected an object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.fail("expected ':' after object key"));
            }
            let v = self.value(depth + 1)?;
            entries.push((key, v));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(entries));
            }
            return Err(self.fail("expected ',' or '}' in object"));
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return Err(self.fail("expected ',' or ']' in array"));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // consume '"'
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Lenient on surrogates: the schema's strings
                            // are ASCII names, so anything exotic maps to
                            // the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            continue;
                        }
                        _ => return Err(self.fail("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.fail("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0b1100_0000 == 0b1000_0000) {
                        self.pos += 1;
                    }
                    if let Some(chunk) = self.bytes.get(start..self.pos) {
                        s.push_str(std::str::from_utf8(chunk).unwrap_or("\u{FFFD}"));
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.fail("bad \\u escape")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let mut integral = !negative;
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.fail("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            integral = false;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            let _ = self.eat(b'+') || self.eat(b'-');
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.fail("bad number slice"))?;
        let value: f64 = text.parse().map_err(|_| self.fail("unparseable number"))?;
        if !value.is_finite() {
            return Err(self.fail("number overflows f64 (NaN/Infinity are not valid JSON)"));
        }
        let exact = if integral { text.parse().ok() } else { None };
        Ok(Json::Num { value, exact })
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and control characters. The one string escaper every artifact
/// renderer writes names through, so any name [`parse`]s back.
pub fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a ratio of small integers (an accuracy, a fault intensity)
/// with six fixed decimals: exact enough to be stable, and identical on
/// every platform, so summaries that embed it stay byte-comparable.
pub fn fixed6(x: f64) -> String {
    format!("{x:.6}")
}

/// Re-serialises a JSON document onto a single line with no interstitial
/// whitespace (string contents untouched). Used to embed the multi-line
/// `wimi-obs/1` snapshot as one JSONL record in trace artifacts.
pub fn compact(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else {
            match c {
                ' ' | '\t' | '\n' | '\r' => {}
                '"' => {
                    in_string = true;
                    out.push(c);
                }
                _ => out.push(c),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse("true"), Ok(Json::Bool(true)));
        assert_eq!(
            parse("[1, \"a\"]"),
            Ok(Json::Arr(vec![
                Json::Num {
                    value: 1.0,
                    exact: Some(1)
                },
                Json::Str("a".into())
            ]))
        );
        let obj = parse("{\"k\": 2}").unwrap();
        assert_eq!(obj.get("k").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn truncated_input_is_reported_as_truncated() {
        for text in ["{", "{\"a\": ", "[1, 2", "\"unterminated", "{\"a\": 1"] {
            let err = parse(text).unwrap_err();
            assert!(
                err.starts_with("truncated JSON"),
                "{text:?} should report truncation, got: {err}"
            );
        }
    }

    #[test]
    fn malformed_but_complete_input_is_not_truncated() {
        for text in ["{} trailing", "[1,]2", "{\"a\" 1}"] {
            let err = parse(text).unwrap_err();
            assert!(
                !err.starts_with("truncated JSON"),
                "{text:?} is malformed, not truncated, got: {err}"
            );
        }
    }

    #[test]
    fn compact_strips_whitespace_outside_strings() {
        let text = "{\n  \"a b\": [1, 2],\n  \"s\": \"x \\\" y\"\n}\n";
        let c = compact(text);
        assert_eq!(c, "{\"a b\":[1,2],\"s\":\"x \\\" y\"}");
        // Compacted text still parses to the same value.
        assert_eq!(parse(text), Ok(parse(&c).unwrap()));
    }

    #[test]
    fn expect_keys_wants_exact_order_and_whole_optional_groups() {
        let v = parse(r#"{"a": 1, "b": "x", "p": 2, "q": 3}"#).unwrap();
        assert!(v.expect_keys(&["a", "b", "p", "q"], "v").is_ok());
        for want in [
            &["a", "b", "p"][..],
            &["b", "a", "p", "q"],
            &["a", "b", "p", "q", "r"],
        ] {
            let err = v.expect_keys(want, "v").unwrap_err();
            assert!(err.starts_with("v keys must be exactly"), "{err}");
        }
        let optional: [&[&str]; 2] = [&["p", "q"], &["r"]];
        assert!(v.expect_keys_opt(&["a", "b"], &optional, "v").is_ok());
        let bare = parse(r#"{"a": 1, "b": 2}"#).unwrap();
        assert!(bare.expect_keys_opt(&["a", "b"], &optional, "v").is_ok());
        for text in [
            r#"{"a": 1, "b": 2, "p": 3}"#,
            r#"{"a": 1, "b": 2, "r": 1, "p": 2, "q": 3}"#,
            r#"{"a": 1, "a": 1, "b": 2}"#,
            "[1]",
        ] {
            let v = parse(text).unwrap();
            assert!(
                v.expect_keys_opt(&["a", "b"], &optional, "v").is_err(),
                "{text}"
            );
        }
    }

    #[test]
    fn field_helpers_name_the_key_and_the_place() {
        let v = parse(r#"{"n": 3, "s": "x", "f": 1.5, "a": [1]}"#).unwrap();
        assert_eq!(v.u64_field("n", "line 4"), Ok(3));
        assert_eq!(v.str_field("s", "line 4"), Ok("x"));
        assert_eq!(v.arr_field("a", "line 4").map(<[Json]>::len), Ok(1));
        let err = v.u64_field("f", "line 4").unwrap_err();
        assert_eq!(err, "line 4: \"f\" must be a non-negative integer");
        assert!(v.str_field("n", "line 4").is_err());
        assert!(v.arr_field("missing", "line 4").is_err());
    }

    #[test]
    fn first_difference_names_the_earliest_differing_path() {
        let a = parse(r#"{"t": 1, "shards": [{"shed": 1}, {"shed": 0}]}"#).unwrap();
        assert_eq!(first_difference(&a, &a.clone()), None);
        let b = parse(r#"{"t": 1, "shards": [{"shed": 2}, {"shed": 9}]}"#).unwrap();
        assert_eq!(
            first_difference(&a, &b).as_deref(),
            Some("$.shards[0].shed: 1 vs 2")
        );
        for (x, y, want) in [
            (r#"{"a": 1}"#, r#"{"b": 1}"#, r#"$: key "a" vs key "b""#),
            (
                r#"{"a": 1}"#,
                r#"{"a": 1, "b": 2}"#,
                r#"$: <absent> vs key "b""#,
            ),
            ("[1, 2]", "[1]", "$[1]: 2 vs <absent>"),
            (r#"{"s": "x"}"#, r#"{"s": null}"#, r#"$.s: "x" vs null"#),
            ("[[1]]", r#"[{"k": 0}]"#, "$[0]: [1 items] vs {1 keys}"),
            ("0.5", "0.25", "$: 0.5 vs 0.25"),
            (
                "9007199254740993",
                "9007199254740992",
                "$: 9007199254740993 vs 9007199254740992",
            ),
        ] {
            let (x, y) = (parse(x).unwrap(), parse(y).unwrap());
            assert_eq!(first_difference(&x, &y).as_deref(), Some(want));
        }
        // Formatting is invisible to the structural walk.
        assert_eq!(
            first_difference(
                &parse("{\"a\":1}").unwrap(),
                &parse("{ \"a\": 1 }").unwrap()
            ),
            None
        );
    }

    #[test]
    fn negative_and_float_numbers_are_not_integral() {
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
        // Exact past f64's 53-bit mantissa, and no saturation past u64.
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }
}
