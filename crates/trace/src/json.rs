//! The workspace's one JSON reader and one JSON string escaper (zero
//! deps, no panics).
//!
//! Every byte-identity contract in the repository rests on this module:
//! run journals, `barre serve` responses, the job-queue wire protocol,
//! SARIF, Chrome traces and JSONL logs are written with [`json_escape`]
//! and read back with [`Json::parse`]. Numbers keep their source text,
//! so 64-bit (and the histogram-sum 128-bit) integers round-trip
//! exactly; `f64` would lose precision above 2^53. The reader also
//! serves untrusted network input, so nesting is bounded (128 levels)
//! and the string scan is linear in the input.

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts; deeper input is
/// a parse error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their members in source order in a
/// `Vec` (no hash maps in sim-facing crates).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document. Surrounding whitespace is
    /// allowed; trailing data is rejected.
    ///
    /// # Errors
    ///
    /// A `String` describing the first syntax error, with a byte offset.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { src, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string payload, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64`, when `self` is an integer number.
    pub fn as_u64(&self) -> Option<u64> {
        self.num()?.parse().ok()
    }

    /// The value as an exact `u128`, when `self` is an integer number.
    pub fn as_u128(&self) -> Option<u128> {
        self.num()?.parse().ok()
    }

    /// The value as an `f64`, when `self` is any number.
    pub fn as_f64(&self) -> Option<f64> {
        self.num()?.parse().ok()
    }

    /// The elements, when `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, when `self` is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn num(&self) -> Option<&str> {
        match self {
            Json::Num(t) => Some(t),
            _ => None,
        }
    }
}

/// Escapes `s` as a quoted JSON string literal: the short forms
/// `\" \\ \n \r \t`, and `\u00XX` for the other control characters.
pub fn json_escape(s: &str) -> String {
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

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Consumes `c` if it is next.
    fn eat_if(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.eat_if(c) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if !self.src.get(self.pos..).is_some_and(|r| r.starts_with(lit)) {
            return Err(format!("expected `{lit}` at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// One value, after leading whitespace; `depth` counts the
    /// containers enclosing it.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.elements(b'}', |p| p.member(depth + 1)).map(Json::Obj),
            Some(b'[') => self.elements(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected byte at {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// The elements of an array or the members of an object, from its
    /// opening bracket through `close`.
    fn elements<T>(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat_if(close) {
            return Ok(out);
        }
        loop {
            out.push(element(self)?);
            self.skip_ws();
            if self.eat_if(close) {
                return Ok(out);
            }
            if !self.eat_if(b',') {
                let close = char::from(close);
                return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
            }
        }
    }

    fn member(&mut self, depth: usize) -> Result<(String, Json), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok((key, self.value(depth)?))
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        self.eat_if(b'-');
        if !self.eat_if(b'0') && self.digits() == 0 {
            return Err(bad());
        }
        if self.eat_if(b'.') && self.digits() == 0 {
            return Err(bad());
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            let _ = self.eat_if(b'+') || self.eat_if(b'-');
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = self.src.get(start..self.pos).ok_or_else(bad)?;
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary
            // and each input byte is scanned once.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(self.src.get(start..self.pos).unwrap_or_default());
            if self.eat_if(b'"') {
                return Ok(out);
            }
            if !self.eat_if(b'\\') {
                return Err("unterminated string".to_string());
            }
            let at = self.pos;
            let Some(esc) = self.peek() else {
                return Err("unterminated escape".to_string());
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => return Err(format!("bad escape at byte {at}")),
            });
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair into one char.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            let paired = self.eat_if(b'\\') && self.eat_if(b'u');
            let lo = if paired { self.hex4()? } else { 0 };
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("unpaired surrogate at byte {at}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        // Only a lone low surrogate fails here.
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate at byte {at}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"schema": "barre-lint/2", "n": 3, "ok": true,
                      "items": [{"rule": "D001", "line": 12}, null],
                      "msg": "a \"quoted\" path\\n"}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("barre-lint/2"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let items = v.get("items").and_then(Json::as_arr).expect("arr");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("rule").and_then(Json::as_str), Some("D001"));
        assert_eq!(items[1], Json::Null);
        assert_eq!(
            v.get("msg").and_then(Json::as_str),
            Some("a \"quoted\" path\\n")
        );
    }

    #[test]
    fn json_parses_nested_values() {
        let v = Json::parse(r#"{"a": [1, -2.5, "x\n\"y\""], "b": {"c": true, "d": null}}"#)
            .expect("parse");
        let a = v.get("a").and_then(Json::as_arr).expect("arr");
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
    }

    #[test]
    fn json_numbers_keep_64_bit_precision() {
        let v = Json::parse(&format!("[{}, {}]", u64::MAX, u128::MAX)).expect("parse");
        let arr = v.as_arr().expect("arr");
        assert_eq!(arr[0].as_u64(), Some(u64::MAX));
        assert_eq!(arr[1].as_u128(), Some(u128::MAX));
        assert_eq!(arr[0], Json::Num(u64::MAX.to_string()));
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        let v = Json::parse(r#""tab\there é 😀 \/ \b\f\ré""#).expect("parses");
        assert_eq!(v.as_str(), Some("tab\there é 😀 / \u{8}\u{c}\ré"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_errors() {
        let v = Json::parse(r#""\ud83d\ude00""#).expect("pair");
        assert_eq!(v.as_str(), Some("😀"));
        let v = Json::parse(r#""\uD83D\uDE00""#).expect("upper-case pair");
        assert_eq!(v.as_str(), Some("😀"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = Json::parse(lone).expect_err(lone);
            assert!(err.contains("unpaired surrogate"), "{lone}: {err}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{} trailing",
            "[1,2] trailing",
            "{\"a\":}",
            "{\"a\" 1}",
            "{1:2}",
            r#""\q""#,
            r#""\u12""#,
            r#""\u+123""#,
            "\"open",
            "\"esc\\",
            "tru",
            "nul",
            "+",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn numbers_follow_the_strict_grammar() {
        for good in [
            "0", "-0", "7", "-12", "1.5", "0.25", "1e9", "2E+3", "-4.5e-6",
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Num(good.to_string())));
        }
        for bad in [
            "-", "01", "1.", ".5", "1e", "1e+", "--1", "1.2.3", "0x10", "1-2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objs = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objs).is_ok());
        let objs = format!("[{objs}]");
        assert!(Json::parse(&objs).is_err());
        // A hostile line errors out instead of overflowing the stack.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn long_strings_parse_whole() {
        let s = "é".repeat(1 << 19);
        let v = Json::parse(&json_escape(&s)).expect("long string");
        assert_eq!(v.as_str(), Some(s.as_str()));
    }

    #[test]
    fn roundtrips_lint_report_shape() {
        // The shape the analyzer's report emits must stay parseable.
        let doc = r#"{"files_scanned": 2, "waived": 0, "diagnostics": []}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("files_scanned").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("diagnostics").and_then(Json::as_arr), Some(&[][..]));
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_escape("x\ny"), "\"x\\ny\"");
        assert_eq!(json_escape("\t\r"), "\"\\t\\r\"");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(json_escape("é😀/"), "\"é😀/\"");
    }

    #[test]
    fn escape_then_parse_round_trips() {
        let mut samples: Vec<String> = (0u8..0x80).map(|b| char::from(b).to_string()).collect();
        samples.push((0u8..0x80).map(char::from).collect());
        samples.extend(["😀", "\u{10000}", "\u{10FFFF}", "a😀\tb\u{1F600}\"\\"].map(String::from));
        for s in &samples {
            let escaped = json_escape(s);
            assert_eq!(Json::parse(&escaped), Ok(Json::Str(s.clone())), "{escaped}");
        }
    }
}
