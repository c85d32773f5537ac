//! Minimal JSON emission and parsing for experiment results.
//!
//! The workspace builds fully offline, so instead of an external
//! serialisation crate we carry a small writer: enough to render counter
//! maps, run results and bench summaries as stable, human-diffable JSON.
//! Output is deterministic — insertion-ordered keys, two-space indent,
//! `\n` separators — because the golden-stats regression test compares it
//! byte-for-byte against a committed snapshot. The `write_*` functions
//! append to a caller's buffer; the `*_to_json` functions are the same
//! renderings returned as a fresh `String`.
//!
//! The reader is one pull [`Parser`] over the exact subset the writer
//! emits (objects, strings, unsigned integers). Anything else — floats,
//! arrays, booleans, duplicate laxness — is a parse error. Every byte
//! boundary rides it: the run cache walks a shard member by member
//! (`runcache`), while the sweep journal and the `catch-server` frames
//! take the whole value as a [`JsonValue`] tree through [`parse`], which
//! is a dozen lines over the same `Parser`. Its cost is linear in the
//! input: a string is scanned in runs up to the next quote, backslash or
//! control byte, and is borrowed from the input unless it holds an
//! escape. Keeping reader and writer to the same tiny grammar keeps the
//! surface trivially auditable.

use catch_trace::counters::{CounterSink, CounterVec, Counters};
use std::borrow::Cow;
use std::fmt::Write as _;

/// The bytes a string literal cannot hold as they are: the writer
/// escapes them, and the parser's literal runs end at them.
fn is_special(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s`, escaped for inclusion inside a JSON string literal.
pub fn write_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    // A special byte is ASCII, so splitting at it keeps both halves `str`s.
    while let Some(at) = rest.bytes().position(is_special) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

fn write_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Appends `"key": ` at `indent` levels, then the string value and `tail`.
fn write_str_member(out: &mut String, indent: usize, key: &str, value: &str, tail: &str) {
    write_indent(out, indent);
    out.push('"');
    out.push_str(key);
    out.push_str("\": \"");
    write_escaped(out, value);
    out.push('"');
    out.push_str(tail);
}

/// A counter object under construction in a caller's buffer: `{`, one
/// `"name": value` line per counter it is handed, then [`CounterObject::close`].
struct CounterObject<'o> {
    out: &'o mut String,
    indent: usize,
    empty: bool,
}

impl<'o> CounterObject<'o> {
    fn open(out: &'o mut String, indent: usize) -> Self {
        out.push('{');
        CounterObject {
            out,
            indent,
            empty: true,
        }
    }

    fn close(self) {
        if !self.empty {
            self.out.push('\n');
            write_indent(self.out, self.indent);
        }
        self.out.push('}');
    }
}

impl CounterSink for CounterObject<'_> {
    fn counter(&mut self, prefix: &str, name: &str, value: u64) {
        self.out.push_str(if self.empty { "\n" } else { ",\n" });
        self.empty = false;
        write_indent(self.out, self.indent + 1);
        self.out.push('"');
        if !prefix.is_empty() {
            write_escaped(self.out, prefix);
            self.out.push('.');
        }
        write_escaped(self.out, name);
        write!(self.out, "\": {value}").expect("writing to a String cannot fail");
    }
}

/// Appends a flat counter list as a JSON object, keys in list order,
/// indented by `indent` two-space levels.
pub fn write_counters(out: &mut String, counters: &CounterVec, indent: usize) {
    let mut object = CounterObject::open(out, indent);
    for (name, value) in counters {
        object.counter("", name, *value);
    }
    object.close();
}

/// Renders a flat counter list as a JSON object (see [`write_counters`]).
pub fn counters_to_json(counters: &CounterVec, indent: usize) -> String {
    let mut out = String::new();
    write_counters(&mut out, counters, indent);
    out
}

/// Appends one [`RunResult`](crate::RunResult) as a JSON object carrying
/// its identity fields plus every counter. Every line after the first
/// starts with `indent` two-space levels and no string holds a raw
/// newline, so the rendering at `indent + 1` is this one with two spaces
/// after each `\n` — the run cache hashes the former and stores the
/// latter from a single rendering.
pub fn write_run_result(out: &mut String, result: &crate::RunResult, indent: usize) {
    out.push_str("{\n");
    write_str_member(out, indent + 1, "workload", &result.workload, ",\n");
    write_str_member(out, indent + 1, "category", result.category.label(), ",\n");
    write_str_member(out, indent + 1, "config", &result.config, ",\n");
    write_indent(out, indent + 1);
    out.push_str("\"counters\": ");
    let mut counters = CounterObject::open(out, indent + 1);
    result.counters_into("", &mut counters);
    counters.close();
    out.push('\n');
    write_indent(out, indent);
    out.push('}');
}

/// Renders one [`RunResult`](crate::RunResult) as a JSON object (see
/// [`write_run_result`]).
pub fn run_result_to_json(result: &crate::RunResult, indent: usize) -> String {
    let mut out = String::new();
    write_run_result(&mut out, result, indent);
    out
}

/// Renders a slice of run results as a JSON array (the golden-snapshot
/// format; ends with a trailing newline so the file is POSIX-clean).
pub fn run_results_to_json(results: &[crate::RunResult]) -> String {
    if results.is_empty() {
        return "[]\n".to_string();
    }
    let mut out = String::from("[");
    for (i, r) in results.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        write_run_result(&mut out, r, 1);
    }
    out.push_str("\n]\n");
    out
}

/// A parsed JSON value, restricted to what the writers emit: objects
/// with string keys, string leaves and unsigned-integer leaves. Strings
/// borrow from the parsed text unless they held an escape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue<'a> {
    /// A string literal.
    Str(Cow<'a, str>),
    /// A non-negative integer (every counter is a `u64`).
    Num(u64),
    /// An object; insertion-ordered, as written.
    Obj(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

impl<'a> JsonValue<'a> {
    /// Looks up `key` in an object (None for non-objects or absent keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The entry list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, JsonValue<'a>)]> {
        match self {
            JsonValue::Obj(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Parses `text` as a single JSON value in the writer's subset
/// (object / string / unsigned integer). Trailing content, floats,
/// arrays, booleans and nulls are errors — a cache file that fails to
/// parse is simply recomputed.
pub fn parse(text: &str) -> Result<JsonValue<'_>, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// Objects nested deeper than this fail [`Parser::value`] instead of
/// recursing further: the deepest document any writer emits is a cache
/// shard (envelope → result → counters), and a hostile frame of a few
/// KiB of `{"":` must not be able to exhaust the stack.
pub const MAX_DEPTH: usize = 16;

/// Iteration state of one open object: see [`Parser::begin_object`].
#[derive(Debug)]
pub struct Members {
    first: bool,
}

/// A pull parser over the writer's subset. The caller drives it value by
/// value — [`Parser::string`], [`Parser::number`], or
/// [`Parser::begin_object`] followed by [`Parser::next_key`] and one
/// value per key — so a reader that knows its document's shape (the run
/// cache) consumes it without building a tree; [`Parser::value`] builds
/// the [`JsonValue`] tree for readers that do not. Whitespace before a
/// value is skipped by whichever call positioned the parser there.
#[derive(Debug)]
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Positions a parser on the first value of `text`.
    pub fn new(text: &'a str) -> Self {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        p
    }

    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\n' | b'\r' | b'\t'))
            .unwrap_or(rest.len());
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// Checks nothing but whitespace follows the value(s) consumed.
    pub fn end(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(())
    }

    /// Consumes any value as a tree.
    pub fn value(&mut self) -> Result<JsonValue<'a>, String> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<JsonValue<'a>, String> {
        match self.peek() {
            Some(b'{') if depth == MAX_DEPTH => Err(format!(
                "objects nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => {
                let mut members = self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key(&mut members)? {
                    entries.push((key, self.value_at(depth + 1)?));
                }
                Ok(JsonValue::Obj(entries))
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'0'..=b'9') => Ok(JsonValue::Num(self.number()?)),
            other => Err(format!(
                "unexpected {:?} at byte {} (writer subset: object/string/uint)",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Consumes the `{` of an object; iterate it with [`Parser::next_key`].
    pub fn begin_object(&mut self) -> Result<Members, String> {
        self.expect(b'{')?;
        Ok(Members { first: true })
    }

    /// Advances to the next member of the object `members` belongs to:
    /// `Some(key)` with the parser positioned on that member's value
    /// (which the caller must consume before calling again), or `None`
    /// once the closing `}` has been consumed.
    pub fn next_key(&mut self, members: &mut Members) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            Some(b',') if !members.first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if members.first => {}
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {}, found {:?}",
                    self.pos,
                    other.map(|c| c as char)
                ))
            }
        }
        members.first = false;
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// [`Parser::next_key`] for a reader that knows which member comes
    /// next: anything but the key `name` is an error.
    pub fn expect_key(&mut self, members: &mut Members, name: &str) -> Result<(), String> {
        match self.next_key(members)? {
            Some(key) if key == name => Ok(()),
            Some(key) => Err(format!("expected member '{name}', found '{key}'")),
            None => Err(format!("object ended; expected member '{name}'")),
        }
    }

    /// [`Parser::next_key`] for a reader that knows the object is
    /// complete: a further member is an error.
    pub fn end_object(&mut self, members: &mut Members) -> Result<(), String> {
        match self.next_key(members)? {
            None => Ok(()),
            Some(key) => Err(format!("unexpected member '{key}'")),
        }
    }

    /// Consumes a string literal. The text between escapes is taken a
    /// run at a time, and a literal without escapes is returned as a
    /// borrow of the input.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut unescaped = String::new();
        loop {
            // The run ends on an ASCII byte, so slicing the `&str` at
            // its two ends can never split a multi-byte scalar.
            let run = self.pos;
            self.pos += bytes[run..]
                .iter()
                .position(|&b| is_special(b))
                .ok_or("unterminated string")?;
            let literal = &self.text[run..self.pos];
            let stop = bytes[self.pos];
            self.pos += 1;
            match stop {
                b'"' if unescaped.is_empty() => return Ok(Cow::Borrowed(literal)),
                b'"' => {
                    unescaped.push_str(literal);
                    return Ok(Cow::Owned(unescaped));
                }
                b'\\' => {
                    unescaped.push_str(literal);
                    unescaped.push(self.escape()?);
                }
                _ => return Err("raw control character in string".to_string()),
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self
                    .text
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let code = hex.iter().try_fold(0u32, |code, &b| {
                    Some((code << 4) | (b as char).to_digit(16)?)
                });
                self.pos += 4;
                // The writer only emits \u for control chars; reject
                // surrogates rather than pair them.
                code.and_then(char::from_u32)
                    .ok_or_else(|| format!("bad \\u escape '{}'", String::from_utf8_lossy(hex)))?
            }
            other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Consumes an unsigned integer (no sign, fraction, exponent or
    /// leading zero; at most `u64::MAX`).
    pub fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        let len = rest
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(rest.len());
        let digits = &self.text[start..start + len];
        self.pos += len;
        if len > 1 && digits.starts_with('0') {
            return Err(format!("leading zero in number at byte {start}"));
        }
        digits
            .parse::<u64>()
            .map_err(|e| format!("bad number '{digits}' at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn counters_render_in_order() {
        let counters = vec![("b.x".to_string(), 2u64), ("a".to_string(), 1u64)];
        let json = counters_to_json(&counters, 0);
        let bx = json.find("b.x").expect("b.x present");
        let a = json.find("\"a\"").expect("a present");
        assert!(bx < a, "insertion order must be preserved");
        assert_eq!(counters_to_json(&Vec::new(), 0), "{}");
    }

    #[test]
    fn empty_results_render_as_empty_array() {
        assert_eq!(run_results_to_json(&[]), "[]\n");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let counters = vec![
            ("core.cycles".to_string(), 42u64),
            ("esc\"aped\n".to_string(), 0u64),
        ];
        let json = format!(
            "{{\n  \"name\": \"a\\\\b\\u0001\",\n  \"counters\": {}\n}}",
            counters_to_json(&counters, 1)
        );
        let v = parse(&json).expect("writer output must parse");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("a\\b\u{1}"));
        let c = v.get("counters").expect("counters present");
        assert_eq!(c.get("core.cycles").and_then(JsonValue::as_num), Some(42));
        assert_eq!(c.get("esc\"aped\n").and_then(JsonValue::as_num), Some(0));
        assert_eq!(c.as_obj().map(<[_]>::len), Some(2));
    }

    #[test]
    fn parse_rejects_out_of_subset_input() {
        for bad in [
            "",
            "{",
            "{}x",
            "[1]",
            "true",
            "-1",
            "1.5",
            "01",
            "{\"a\"}",
            "{\"a\": }",
            "{\"a\": 1,}",
            "\"\\q\"",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\ud800\"",          // a lone surrogate
            "18446744073709551616", // u64::MAX + 1
        ] {
            assert!(parse(bad).is_err(), "'{bad}' must not parse");
        }
        assert_eq!(parse(" { } ").expect("ok"), JsonValue::Obj(Vec::new()));
        assert_eq!(
            parse("18446744073709551615").expect("ok").as_num(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn a_four_mebibyte_literal_parses_in_linear_time() {
        // The complexity guard: a parser that re-validates the rest of
        // the input per character (as this one once did) needs minutes
        // for this, so no timing assertion is needed.
        let body = "line of a report, µ—≥ and all\\n".repeat(128 << 10);
        assert!(body.len() >= 4 << 20);
        let doc = format!(
            "{{\"report\": \"{body}\", \"plain\": \"{}\"}}",
            "x".repeat(4 << 20)
        );
        let v = parse(&doc).expect("parses");
        let report = v.get("report").and_then(JsonValue::as_str).expect("report");
        assert_eq!(
            report.len(),
            body.len() - (128 << 10),
            "each \\n became one byte"
        );
        assert!(report.ends_with("µ—≥ and all\n"));
        assert!(matches!(
            v.get("plain"),
            Some(JsonValue::Str(Cow::Borrowed(s))) if s.len() == 4 << 20
        ));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow the stack if the bound were not there.
        assert!(parse(&"{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn a_known_shape_is_read_without_a_tree() {
        let doc = " {\"id\": \"a\\tb\", \"counts\": {\"x\": 1, \"y\": 2}} ";
        // A parser positioned on the value of `id`.
        let at_id = || {
            let mut p = Parser::new(doc);
            let mut outer = p.begin_object().expect("object");
            p.expect_key(&mut outer, "id").expect("id first");
            (p, outer)
        };
        assert!(at_id().0.number().is_err(), "a string is not a number");
        let (mut p, mut outer) = at_id();
        assert_eq!(p.string().expect("string"), "a\tb");
        assert!(p.expect_key(&mut outer, "count").is_err(), "wrong member");
        let (mut p, mut outer) = at_id();
        p.string().expect("string");
        p.expect_key(&mut outer, "counts").expect("counts next");
        let mut inner = p.begin_object().expect("object");
        let mut seen = Vec::new();
        while let Some(key) = p.next_key(&mut inner).expect("member") {
            seen.push((key, p.number().expect("number")));
        }
        assert_eq!(seen, [(Cow::Borrowed("x"), 1), (Cow::Borrowed("y"), 2)]);
        p.end_object(&mut outer).expect("no further member");
        p.end().expect("only whitespace left");
    }
}
