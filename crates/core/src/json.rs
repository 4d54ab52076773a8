//! The workspace's one JSON codec: [`escape`] for the `format!`-built
//! writers and [`parse`] for everything that reads JSON back — the server's
//! wire envelopes, the calibration store, the conformance report. The
//! workspace is offline/zero-dep (no serde), so this is a small
//! recursive-descent parser for exactly what those need: objects, arrays,
//! strings (with the standard escapes, `\n` included, since the workflow
//! text DSL travels inside a JSON string), numbers, booleans and null.
//! Input may be hostile (request lines, store files): nesting depth and
//! input size are capped, every failure is an `Err`, never a panic, and
//! every offset into the input goes through `get` (indexing is denied).
//!
//! Both directions work in runs: [`escape_into`] copies each stretch of
//! bytes that needs no escape with one `push_str`, and the parser copies
//! each stretch of a string between escapes the same way, so a long
//! string costs a few `memcpy`s, not a branch per character. The end of
//! a run is found eight bytes a step, with word tests on a `u64`, so
//! finding it costs a few instructions per word, not a branch per byte.
//! [`parse_members`] reads a top-level object and hands back each
//! member's value with the raw text it was parsed from, so an envelope
//! can move its strings out and keep a member verbatim.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

/// A parsed JSON value. Object keys are ordered (`BTreeMap`) so
/// re-renderings are deterministic, though the protocol never relies on
/// re-rendering parsed values byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, held exactly (the
    /// calibration store's tallies span the full `u64` range, which `f64`
    /// cannot represent above 2^53).
    Int(u64),
    /// Any other JSON number (negative, fractional, exponent, or too large
    /// for `u64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a u64, if this is a non-negative integral number
    /// that is known exactly: any [`Value::Int`], or a float spelling
    /// (`3.0`, `1e3`) up to 2^53. Beyond that an `f64` no longer names one
    /// integer, so the answer is `None` rather than a rounded value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_F64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The bool payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Parse one JSON value from `text` (must consume the whole input apart
/// from trailing whitespace). Errors are one-line descriptions with a
/// byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text)?;
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// One member of an object read by [`parse_members`].
#[derive(Debug, PartialEq)]
pub struct Member<'a> {
    /// The parsed value.
    pub value: Value,
    /// The text `value` was parsed from, exactly as it arrived (no
    /// surrounding whitespace).
    pub raw: &'a str,
}

/// The members of an object, by key. A repeated key keeps its last
/// value, as in [`parse`].
pub type Members<'a> = BTreeMap<String, Member<'a>>;

/// Parse `text` as one JSON object and return its members, each with its
/// raw text. The caps, the errors and the trailing-garbage check are
/// [`parse`]'s; `Ok(None)` means `text` is valid JSON but not an object.
pub fn parse_members(text: &str) -> Result<Option<Members<'_>>, String> {
    let mut p = Parser::new(text)?;
    if p.peek() != Some(b'{') {
        p.value()?;
        p.finish()?;
        return Ok(None);
    }
    let mut members = Members::new();
    p.object_with(|key, value, span| {
        let raw = text
            .get(span)
            .ok_or("member does not start and end on a character boundary")?;
        members.insert(key, Member { value, raw });
        Ok(())
    })?;
    p.finish()?;
    Ok(Some(members))
}

/// Escape `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    escape_into(&mut out, s);
    out
}

/// Append `s`, escaped for a JSON string literal, to `out`: `"`, `\`,
/// `\n`, `\r` and `\t` as their short escapes, the other C0 controls as
/// `\u00xx` (lowercase hex), everything else — DEL and all non-ASCII
/// included — as is. Canonical bodies embed escaped text, so these bytes
/// are part of the byte-identity contract.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut pos = 0;
    loop {
        let rest = bytes.get(pos..).unwrap_or_default();
        let run = plain_run(rest, true);
        // The run ends before an ASCII byte or at the end, so both of its
        // ends are character boundaries.
        out.push_str(s.get(pos..pos + run).unwrap_or_default());
        pos += run;
        let Some(&b) = bytes.get(pos) else {
            return;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        pos += 1;
    }
}

/// Eight copies of a byte, one per byte of a `u64`.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// The high bit of every byte of `x` that is below `n` (`n` ≤ 0x80).
/// Exact up to the first such byte: a borrow out of it may also mark
/// later bytes, so only the lowest mark is read.
const fn bytes_below(x: u64, n: u8) -> u64 {
    x.wrapping_sub(splat(n)) & !x & splat(0x80)
}

/// The length of the plain run at the start of `bytes`: the bytes before
/// the first `"` or `\`, and with `controls` before the first C0 control
/// too (a run to be escaped; a run to be decoded keeps its controls, as
/// the reference decoder does). Eight bytes a step, then byte by byte for
/// the tail. A quote or a backslash is a zero byte of the word XORed with
/// eight copies of it, a control a byte below 0x20; a little-endian load
/// puts the first byte lowest, so the lowest mark is the first match.
fn plain_run(bytes: &[u8], controls: bool) -> usize {
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let w = u64::from_le_bytes(*word);
        let mut marks = bytes_below(w ^ splat(b'"'), 1) | bytes_below(w ^ splat(b'\\'), 1);
        if controls {
            marks |= bytes_below(w, 0x20);
        }
        if marks != 0 {
            return 8 * i + (marks.trailing_zeros() / 8) as usize;
        }
    }
    8 * words.len()
        + tail
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || (controls && b < 0x20))
            .unwrap_or(tail.len())
}

/// Maximum container nesting. The protocol needs 2–3 levels; the cap
/// exists because the parser is recursive descent on a network-facing
/// daemon — without it a `[[[[…` request line deep enough to overflow
/// the stack aborts the whole process, not just the connection.
const MAX_DEPTH: usize = 64;

/// Maximum input size. A parsed [`Value`] tree can be an order of
/// magnitude larger than its text, so the text is bounded before anything
/// is allocated for it. The server's request lines are capped at 1 MiB
/// upstream; calibration stores and conformance reports are kilobytes.
const MAX_INPUT_BYTES: usize = 16 << 20;

/// 2^53: the largest magnitude up to which every integer is an `f64`.
const MAX_EXACT_F64: f64 = 9_007_199_254_740_992.0;

struct Parser<'a> {
    /// The input; `bytes` is the same input, scanned byte by byte. Runs
    /// are copied out of `text`, which is already known to be UTF-8.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Result<Parser<'a>, String> {
        if text.len() > MAX_INPUT_BYTES {
            return Err(format!(
                "input of {} bytes exceeds the {MAX_INPUT_BYTES}-byte limit",
                text.len()
            ));
        }
        Ok(Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        })
    }

    /// Only whitespace may follow the top-level value.
    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == c => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                c as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        self.object_with(|key, val, _| {
            map.insert(key, val);
            Ok(())
        })?;
        Ok(Value::Obj(map))
    }

    /// Parse an object, handing each member to `member` with the byte
    /// span its value was parsed from.
    fn object_with(
        &mut self,
        mut member: impl FnMut(String, Value, Range<usize>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter()?;
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            self.skip_ws();
            let start = self.pos;
            let val = self.value()?;
            member(key, val, start..self.pos)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by the
                            // protocol (escape() never emits them); reject
                            // rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("unpaired surrogate \\u{hex}"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "unsupported escape {:?} at byte {}",
                                other.map(|&b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a character
                    // boundary of the (already valid UTF-8) input.
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    let len = plain_run(rest, false);
                    let run = self.text.get(self.pos..self.pos + len).ok_or_else(|| {
                        format!("string run at byte {} splits a character", self.pos)
                    })?;
                    out.push_str(run);
                    self.pos += len;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| format!("bad number at byte {start}"))?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn parses_nested_envelope() {
        let v = parse(r#"{"id":"r1","n":3,"ok":true,"body":{"xs":[1,2,-3.5]},"z":null}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("z"), Some(&Value::Null));
        let xs = match v.get("body").and_then(|b| b.get("xs")) {
            Some(Value::Arr(xs)) => xs,
            other => panic!("{other:?}"),
        };
        assert_eq!(xs.len(), 3);
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1} π";
        let wire = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let v = parse(&wire).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn rejects_garbage_with_position() {
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_not_stack_overflowed() {
        // Well under the cap parses fine…
        let shallow = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&shallow).is_ok());
        // …one past it is a parse error…
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&deep).unwrap_err().contains("nesting"), "{deep}");
        // …and a hostile request tens of thousands deep must error, not
        // overflow the thread stack and abort the daemon.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn workflow_text_survives_the_wire() {
        let dsl = "source \"S\" table rows=10 (a)\nactivity a1 \"σ\" = filter a >= 1.0 <- \"S\"\ntarget \"T\" table (a) <- a1\n";
        let wire = format!("{{\"workflow\":\"{}\"}}", escape(dsl));
        assert!(!wire.contains('\n'), "envelope must stay one line");
        let v = parse(&wire).unwrap();
        assert_eq!(v.get("workflow").and_then(Value::as_str), Some(dsl));
    }

    #[test]
    fn integers_are_exact_and_floats_never_round_into_u64() {
        for (text, want) in [
            ("18446744073709551615", Some(u64::MAX)),
            ("9007199254740993", Some((1 << 53) + 1)),
            ("3.0", Some(3)),
            ("1e3", Some(1000)),
            ("18446744073709551616", None),
            ("1e19", None),
            ("-1", None),
            ("1.5", None),
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), want, "{text}");
        }
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max.as_f64(), Some(u64::MAX as f64));
    }

    #[test]
    fn oversize_input_is_rejected_before_parsing() {
        let big = format!("\"{}\"", "a".repeat(MAX_INPUT_BYTES));
        assert!(parse(&big).unwrap_err().contains("limit"));
        let fits = format!("\"{}\"", "a".repeat(MAX_INPUT_BYTES - 2));
        assert!(parse(&fits).is_ok());
    }

    /// A random scalar value: any `char`, with the C0 controls, quotes,
    /// backslashes and multi-byte characters over-represented.
    fn random_string(rng: &mut Rng) -> String {
        let len = rng.gen_range(0..24usize);
        (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => char::from_u32(rng.gen_range(0..0x20u32)).unwrap(),
                1 => ['"', '\\', '/', '\u{7f}', '\u{2028}'][rng.gen_range(0..5usize)],
                2 => char::from_u32(rng.gen_range(0x80..0x800u32)).unwrap(),
                3 => char::from_u32(rng.gen_range(0x1_0000..0x11_0000u32)).unwrap_or('\u{fffd}'),
                _ => char::from_u32(rng.gen_range(0x20..0x7fu32)).unwrap(),
            })
            .collect()
    }

    fn random_document(rng: &mut Rng, depth: usize) -> String {
        match rng.gen_range(0..if depth < 4 { 7 } else { 5u32 }) {
            0 => "null".to_owned(),
            1 => rng.gen_bool(0.5).to_string(),
            2 => rng.next_u64().to_string(),
            3 => format!("{:e}", rng.next_f64() - 0.5),
            4 => format!("\"{}\"", escape(&random_string(rng))),
            5 => {
                let items: Vec<String> = (0..rng.gen_range(0..4usize))
                    .map(|_| random_document(rng, depth + 1))
                    .collect();
                format!("[{}]", items.join(", "))
            }
            _ => {
                let items: Vec<String> = (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        let key = escape(&random_string(rng));
                        format!("\"{key}\": {}", random_document(rng, depth + 1))
                    })
                    .collect();
                format!("{{{}}}", items.join(","))
            }
        }
    }

    #[test]
    fn fuzz_escape_then_parse_is_identity() {
        let all_c0: String = (0..0x20u32).filter_map(char::from_u32).collect();
        assert_eq!(
            parse(&format!("\"{}\"", escape(&all_c0))),
            Ok(Value::Str(all_c0))
        );
        let mut rng = Rng::seed_from_u64(0x6a73_6f6e);
        for _ in 0..4_000 {
            let s = random_string(&mut rng);
            let wire = format!("\"{}\"", escape(&s));
            assert!(
                !wire.chars().any(|c| (c as u32) < 0x20),
                "raw control character in {wire:?}"
            );
            assert_eq!(parse(&wire), Ok(Value::Str(s)), "{wire:?}");
        }
    }

    /// One to three byte-level edits — overwrite, truncate, or insert a
    /// structural byte — read back lossily as UTF-8.
    fn damage(doc: &str, rng: &mut Rng) -> String {
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4usize) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..3u32) {
                0 => bytes[at] = rng.next_u64() as u8,
                1 => bytes.truncate(at),
                _ => bytes.insert(at, b"{}[]\",:\\u-e.0"[rng.gen_range(0..13usize)]),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn fuzz_random_and_mutated_input_never_panics() {
        let mut rng = Rng::seed_from_u64(0x6675_7a7a);
        for _ in 0..4_000 {
            // Valid documents parse…
            let doc = random_document(&mut rng, 0);
            assert!(parse(&doc).is_ok(), "{doc:?}");
            // …and any byte-level damage to one is an `Ok` or an `Err`,
            // read as a whole or as an object's members.
            let damaged = damage(&doc, &mut rng);
            let _ = parse(&damaged);
            let _ = parse_members(&damaged);
            // Pure noise, too.
            let noise: Vec<u8> = (0..rng.gen_range(0..64usize))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let _ = parse(&String::from_utf8_lossy(&noise));
        }
    }

    /// `escape` as it was before it copied runs: one branch and one push
    /// per character.
    fn reference_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 8);
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

    /// The string decoder as it was before it sliced runs out of the
    /// input `&str`: one string literal, quotes included, validating each
    /// run with `from_utf8`. `Err` where the parser must fail.
    fn reference_string(wire: &str) -> Result<String, ()> {
        let bytes = wire
            .trim_matches(|c: char| c.is_ascii_whitespace())
            .as_bytes();
        if bytes.first() != Some(&b'"') {
            return Err(());
        }
        let mut pos = 1;
        let mut out = String::new();
        loop {
            match bytes.get(pos) {
                Some(b'"') => {
                    return if pos + 1 == bytes.len() {
                        Ok(out)
                    } else {
                        Err(())
                    }
                }
                Some(b'\\') => {
                    pos += 1;
                    match bytes.get(pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes.get(pos + 1..pos + 5).ok_or(())?;
                            let hex = std::str::from_utf8(hex).map_err(|_| ())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ())?;
                            out.push(char::from_u32(code).ok_or(())?);
                            pos += 4;
                        }
                        _ => return Err(()),
                    }
                    pos += 1;
                }
                Some(_) => {
                    let rest = &bytes[pos..];
                    let run = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| ())?);
                    pos += run;
                }
                None => return Err(()),
            }
        }
    }

    #[test]
    fn escape_matches_the_reference_byte_for_byte() {
        let mut edges: Vec<String> = (0..0x20u32)
            .chain([0x7f, 0x80, 0x2028, 0x1_f600])
            .filter_map(char::from_u32)
            .map(String::from)
            .collect();
        edges.push(edges.concat());
        edges.extend(["", "plain", "\"\\\"", "σ-load €2 \"x\"\n"].map(String::from));
        for s in &edges {
            assert_eq!(escape(s), reference_escape(s), "{s:?}");
        }
        let mut rng = Rng::seed_from_u64(0x7275_6e73);
        for _ in 0..4_000 {
            // Joined strings give long runs between the escapes.
            let s: String = (0..rng.gen_range(1..5usize))
                .map(|_| random_string(&mut rng))
                .collect();
            assert_eq!(escape(&s), reference_escape(&s), "{s:?}");
            let mut into = "prefix ".to_owned();
            escape_into(&mut into, &s);
            assert_eq!(into, format!("prefix {}", reference_escape(&s)));
        }
    }

    #[test]
    fn strings_decode_as_the_reference_decodes_them() {
        let mut rng = Rng::seed_from_u64(0x6465_636f);
        let extra = [
            "\\/", "\\b", "\\f", "\\u00e9", "\\u20ac", "\\uD800", "\\u12", "\\x",
        ];
        for _ in 0..4_000 {
            let mut wire = format!("\"{}", escape(&random_string(&mut rng)));
            if rng.gen_bool(0.5) {
                wire.push_str(extra[rng.gen_range(0..extra.len())]);
                wire.push_str(&escape(&random_string(&mut rng)));
            }
            wire.push('"');
            for wire in [wire.clone(), damage(&wire, &mut rng)] {
                let new = match parse(&wire) {
                    Ok(Value::Str(s)) => Ok(s),
                    _ => Err(()),
                };
                assert_eq!(new, reference_string(&wire), "{wire:?}");
            }
        }
    }

    /// Hold `s` to the byte-by-byte references: the run at every offset
    /// ends where the first run-ending byte is, `escape` writes the
    /// reference's bytes and decodes back to `s`, and `s` between quotes,
    /// raw, decodes as the reference decodes it.
    fn check_runs(s: &str) {
        let bytes = s.as_bytes();
        for start in 0..=bytes.len() {
            let rest = &bytes[start..];
            for controls in [false, true] {
                let want = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || (controls && b < 0x20))
                    .unwrap_or(rest.len());
                assert_eq!(plain_run(rest, controls), want, "{s:?} from {start}");
            }
        }
        assert_eq!(escape(s), reference_escape(s), "{s:?}");
        let wire = format!("\"{}\"", escape(s));
        assert_eq!(parse(&wire), Ok(Value::Str(s.to_owned())), "{wire:?}");
        let raw = format!("\"{s}\"");
        let new = match parse(&raw) {
            Ok(Value::Str(decoded)) => Ok(decoded),
            _ => Err(()),
        };
        assert_eq!(new, reference_string(&raw), "{raw:?}");
    }

    /// ASCII that never ends a run, cycled to fill `len` bytes.
    fn filler(len: usize) -> String {
        " #]!a[\u{7f}~".chars().cycle().take(len).collect()
    }

    #[test]
    fn a_run_ends_at_each_special_byte_at_every_offset() {
        let specials = ['"', '\\']
            .into_iter()
            .chain((0..0x20u32).filter_map(char::from_u32));
        for special in specials {
            for len in 0..=24usize {
                check_runs(&filler(len));
                for at in (0..=16).filter(|&at| at < len) {
                    check_runs(&format!("{}{special}{}", filler(at), filler(len - at - 1)));
                }
            }
        }
    }

    #[test]
    fn the_word_tests_false_positive_neighbours_end_no_run_early() {
        // A borrow out of a matching byte marks the byte after it too:
        // `"#` and `\]` XOR to 00 01, and `\0\x01` is two controls.
        for pair in ["\"#", "\\]", "\0\u{1}", "#\"", "]\\", "\u{1}\0"] {
            for len in 2..=24usize {
                for at in (0..=16).filter(|&at| at + 2 <= len) {
                    check_runs(&format!("{}{pair}{}", filler(at), filler(len - at - 2)));
                }
            }
        }
    }

    #[test]
    fn space_del_high_bytes_and_multibyte_characters_end_no_run() {
        let mut plain: Vec<char> = (0x20..0x80u32)
            .chain(0x80..0x100)
            .filter_map(char::from_u32)
            .filter(|c| !matches!(c, '"' | '\\'))
            .collect();
        plain.extend(['σ', '€', '\u{2028}', '\u{fffd}', '\u{1f600}', '\u{10ffff}']);
        for c in plain {
            for n in 0..=24usize {
                let s = c.to_string().repeat(n);
                assert_eq!(plain_run(s.as_bytes(), true), s.len(), "{s:?}");
                assert_eq!(plain_run(s.as_bytes(), false), s.len(), "{s:?}");
                check_runs(&s);
                // Behind an ASCII prefix, so the multi-byte ones straddle
                // every word boundary.
                check_runs(&format!("{}{s}\"", filler(n % 8)));
            }
        }
    }

    #[test]
    fn each_members_raw_text_reparses_to_its_value() {
        let mut rng = Rng::seed_from_u64(0x7261_7773);
        let mut objects = 0;
        for _ in 0..4_000 {
            let doc = random_document(&mut rng, 0);
            let whole = parse(&doc).unwrap();
            let members = parse_members(&doc).unwrap();
            let Value::Obj(map) = whole else {
                assert_eq!(members, None, "{doc:?}");
                continue;
            };
            objects += 1;
            let members = members.unwrap();
            assert_eq!(members.len(), map.len(), "{doc:?}");
            for (key, member) in &members {
                assert_eq!(Some(&member.value), map.get(key), "{doc:?}");
                assert_eq!(parse(member.raw).as_ref(), Ok(&member.value), "{doc:?}");
                assert_eq!(member.raw.trim(), member.raw, "{doc:?}");
            }
        }
        assert!(objects > 500, "{objects}");
        // A repeated key keeps its last value, and its last raw text.
        let members = parse_members(r#"{"a":1, "a" : [ 2 ] }"#).unwrap().unwrap();
        assert_eq!(members["a"].raw, "[ 2 ]");
        // A non-object is `None`; broken JSON is the error `parse` gives.
        assert_eq!(parse_members("[1]"), Ok(None));
        assert_eq!(
            parse_members("{\"a\":}").unwrap_err(),
            parse("{\"a\":}").unwrap_err()
        );
        assert_eq!(
            parse_members("{} x").unwrap_err(),
            parse("{} x").unwrap_err()
        );
    }
}
