//! Minimal JSON value, parser, and encoder for the wire protocol.
//!
//! The build environment vendors no serde, so the protocol uses this
//! hand-rolled implementation. It supports exactly what the protocol
//! needs: objects, arrays, strings, integers, floats, booleans, null.
//! Integers are kept distinct from floats so row values round-trip
//! exactly over the wire.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole number in `i64` range (kept exact, not via f64).
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with deterministic (sorted) key order on encode.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean content if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array content if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Encode to a JSON string (object keys in sorted order).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the encoding to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect(INFALLIBLE),
            // `{:?}` prints the shortest representation that round-trips,
            // and always includes a `.` or exponent.
            Json::Num(n) if n.is_finite() => write!(out, "{n:?}").expect(INFALLIBLE),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(map) => {
                out.push('{');
                write_fields(map, out);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry the byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).document()
    }
}

/// The inside of an object: `"key":value` for each entry of `map`,
/// comma-separated, in key order.
pub(crate) fn write_fields(map: &BTreeMap<String, Json>, out: &mut String) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(k, out);
        out.push(':');
        v.write(out);
    }
}

/// Why formatting into a `String` is unwrapped.
const INFALLIBLE: &str = "a String accepts every write";

pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Copy the runs between characters that need an escape whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect(INFALLIBLE);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse failure: message plus byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

/// Arrays and objects may nest this deep. The parser recurses once per
/// level, so without a limit a frame of a million `[` overflows the
/// connection thread's stack and takes the server down with it.
pub const MAX_DEPTH: usize = 128;

/// One pass over the input: the cursor only moves forward, and a span
/// (a string run, a number) is read once, when it is complete.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// Bytes stepped over plus bytes read as spans: the work done, which
    /// the linearity test bounds by a multiple of the input length.
    #[cfg(test)]
    visits: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
            #[cfg(test)]
            visits: 0,
        }
    }

    fn document(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Step the cursor over `n` bytes.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        #[cfg(test)]
        {
            self.visits += n;
        }
    }

    /// The text from `start` up to the cursor. Both ends sit next to an
    /// ASCII byte the parser matched, so they are character boundaries.
    fn span(&mut self, start: usize) -> &'a str {
        #[cfg(test)]
        {
            self.visits += self.pos - start;
        }
        &self.text[start..self.pos]
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.advance(1);
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.advance(1);
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.advance(1);
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.advance(word.len());
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.advance(1);
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.advance(1),
                Some(b'}') => {
                    self.advance(1);
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.advance(1);
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.advance(1),
                Some(b']') => {
                    self.advance(1);
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so in UTF-8 they never occur inside
            // a longer character: the run up to the next one is copied
            // as it stands.
            let run = self.pos;
            let rest = &self.text.as_bytes()[run..];
            let stop = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
            self.advance(stop.unwrap_or(rest.len()));
            out.push_str(self.span(run));
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.advance(1);
                    return Ok(out);
                }
                Some(_) => out.push(self.escape()?),
            }
        }
    }

    /// The character a backslash escape stands for; the cursor is on the
    /// backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        self.advance(1);
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.advance(1);
                return self.unicode_escape();
            }
            _ => return Err(self.err("bad escape")),
        };
        self.advance(1);
        Ok(c)
    }

    /// `XXXX` of a `\uXXXX` escape, and for a high surrogate the
    /// `\uXXXX` low surrogate that must follow it.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        let code = match unit {
            0xD800..=0xDBFF => {
                if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                self.advance(2);
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone surrogate in \\u escape")),
            _ => unit,
        };
        char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut unit = 0;
        for &d in digits {
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            unit = unit * 16 + digit;
        }
        self.advance(4);
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.advance(1);
        }
        self.skip_digits();
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.advance(1);
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.advance(1);
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.advance(1);
            }
            self.skip_digits();
        }
        let text = self.span(start);
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            // Out-of-range integers degrade to f64 like other parsers.
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let text = r#"{"a":[1,2.5,"x\n",true,null],"b":{"c":-7},"d":""}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_i64(), Some(-7));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn integers_stay_exact() {
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(v.encode(), "9007199254740993");
    }

    #[test]
    fn floats_encode_distinguishably() {
        assert_eq!(Json::Num(2.0).encode(), "2.0");
        assert_eq!(Json::Int(2).encode(), "2");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""aé\t\"b""#).unwrap();
        assert_eq!(v, Json::Str("aé\t\"b".into()));
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("\"bad \\x escape\"").is_err());
        assert!(Json::parse("\"\\u12").is_err());
        assert!(Json::parse("\"\\u12g4\"").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn every_escape_decodes() {
        let v = Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9\u4f60\u0000""#).unwrap();
        assert_eq!(v, Json::Str("\"\\/\u{8}\u{c}\n\r\té你\0".into()));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        let v = Json::parse(r#""a\ud83d\ude00b\uD83D\uDE00""#).unwrap();
        assert_eq!(v, Json::Str("a😀b😀".into()));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\ude0"#,
        ] {
            let e = Json::parse(lone).expect_err(lone);
            assert!(
                e.message.contains("surrogate") || e.message.contains("\\u escape"),
                "{lone}: {e}"
            );
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"k\":", "}", MAX_DEPTH)).is_ok());
        let e = Json::parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(Json::parse(&nest("{\"k\":", "}", MAX_DEPTH + 1)).is_err());
        // What used to overflow the connection thread's stack.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1_000_000)).is_err());
        // Siblings do not add up: depth is released on the way out.
        let wide = format!("[{}]", vec![nest("[", "]", MAX_DEPTH - 1); 4].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    mod props {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{RngCore, RngExt, SeedableRng};

        /// Everything the string writer and reader treat specially, and
        /// UTF-8 of every length around it.
        const CHARS: &str = "aZ0 /\"\\\n\r\t\u{8}\u{c}\0\u{1f}\u{7f}\u{80}éß你\u{ffff}😀\u{10ffff}";

        fn string(rng: &mut StdRng) -> String {
            let len = [0, 0, 1, 3, 12, 40][rng.random_range(0..6)];
            let chars: Vec<char> = CHARS.chars().collect();
            (0..len)
                .map(|_| chars[rng.random_range(0..chars.len())])
                .collect()
        }

        fn float(rng: &mut StdRng) -> f64 {
            match rng.random_range(0..6) {
                0 => 2.0,
                1 => -0.0,
                2 => [1e300, -1e-300, 5e-324, f64::MAX, f64::MIN_POSITIVE][rng.random_range(0..5)],
                3 => rng.random_range(-1e6..1e6),
                // Any bit pattern that is a number.
                _ => Some(f64::from_bits(rng.next_u64()))
                    .filter(|f| f.is_finite())
                    .unwrap_or(0.5),
            }
        }

        fn value(rng: &mut StdRng, depth: usize) -> Json {
            let kinds = if depth == 0 { 6 } else { 8 };
            match rng.random_range(0..kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.random_bool(0.5)),
                2 => Json::Int([i64::MIN, i64::MAX, 0, -1][rng.random_range(0..4)]),
                3 => Json::Int(rng.next_u64() as i64 >> rng.random_range(0..64u32)),
                4 => Json::Num(float(rng)),
                5 => Json::Str(string(rng)),
                6 => Json::Arr(
                    (0..rng.random_range(0..5))
                        .map(|_| value(rng, depth - 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..rng.random_range(0..5))
                        .map(|_| (string(rng), value(rng, depth - 1)))
                        .collect(),
                ),
            }
        }

        #[test]
        fn parse_inverts_encode() {
            let mut rng = StdRng::seed_from_u64(0x5eed_0016);
            for case in 0..2_000 {
                let v = value(&mut rng, 4);
                let text = v.encode();
                let back =
                    Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
                assert_eq!(back, v, "case {case}: {text}");
                // Floats compare equal across ±0; the text must not drift.
                assert_eq!(back.encode(), text, "case {case}");
            }
        }

        /// Work, not time: however long the reply, the parser steps over
        /// each byte once and reads each string and number once more.
        #[test]
        fn parsing_a_long_reply_is_linear() {
            let row = |i: i64| {
                Json::Arr(vec![
                    Json::Str(format!("url{i:05}.example/é/{i}")),
                    Json::Int(i * 37),
                    Json::Num(i as f64 / 8.0),
                    Json::Null,
                ])
            };
            let reply = |rows: i64| Json::obj([("rows", Json::Arr((0..rows).map(row).collect()))]);
            let mut per_byte = Vec::new();
            for rows in [1 << 10, 1 << 16] {
                let text = reply(rows).encode();
                let mut parser = Parser::new(&text);
                let parsed = parser.document().unwrap();
                assert_eq!(
                    parsed.get("rows").unwrap().as_arr().unwrap().len() as i64,
                    rows
                );
                assert!(
                    parser.visits <= 3 * text.len(),
                    "{rows} rows: {} byte visits for {} bytes",
                    parser.visits,
                    text.len()
                );
                per_byte.push(parser.visits as f64 / text.len() as f64);
            }
            assert!(
                (per_byte[1] / per_byte[0] - 1.0).abs() < 0.05,
                "visits per byte moved with length: {per_byte:?}"
            );
        }
    }
}
