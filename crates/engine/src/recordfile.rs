//! Record files: the paper's second recordset kind (§2.1 — "relational
//! tables and record files").
//!
//! A record file is a delimited text file with a header row naming each
//! column once. Values are parsed into the tightest matching [`Scalar`]:
//! empty field → NULL, integer, float, `true`/`false`, `d:<days>` → date,
//! anything else → string. A double-quoted field is always a string (`""`
//! inside it is one quote) and may span lines. Writing round-trips:
//! `write → read` reproduces the table exactly (strings that *look* like
//! another type, are empty, or hold the delimiter, a quote or a line break
//! are quoted on write).

use std::fmt::Write as _;

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};

use crate::error::{EngineError, Result};
use crate::table::Table;

/// The field delimiter.
pub const DELIMITER: char = '|';

/// Render a table as delimited text with a header row.
pub fn write_str(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<&str> = table.schema().iter().map(|a| a.name()).collect();
    let _ = writeln!(out, "{}", header.join("|"));
    for row in table.rows() {
        let fields: Vec<String> = row.iter().map(render_field).collect();
        let _ = writeln!(out, "{}", fields.join("|"));
    }
    out
}

fn render_field(v: &Scalar) -> String {
    match v {
        Scalar::Null => String::new(),
        Scalar::Int(i) => i.to_string(),
        Scalar::Float(f) => {
            // Keep a decimal point so the value re-parses as a float.
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                f.to_string()
            }
        }
        Scalar::Bool(b) => b.to_string(),
        Scalar::Date(d) => format!("d:{d}"),
        Scalar::Str(s) => {
            // Quote strings that would otherwise re-parse as another type
            // or split the field or the record.
            if s.contains([DELIMITER, '"', '\n', '\r'])
                || parse_unquoted(s) != Scalar::Str(s.clone())
            {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        }
    }
}

fn parse_unquoted(field: &str) -> Scalar {
    if field.is_empty() {
        return Scalar::Null;
    }
    if field == "true" {
        return Scalar::Bool(true);
    }
    if field == "false" {
        return Scalar::Bool(false);
    }
    if let Some(days) = field.strip_prefix("d:") {
        if let Ok(d) = days.parse::<i32>() {
            return Scalar::Date(d);
        }
    }
    if let Ok(i) = field.parse::<i64>() {
        return Scalar::Int(i);
    }
    if let Ok(f) = field.parse::<f64>() {
        return Scalar::Float(f);
    }
    Scalar::Str(field.to_owned())
}

fn malformed(reason: String) -> EngineError {
    EngineError::FunctionFailed {
        function: "recordfile::read".into(),
        reason,
    }
}

/// Split one record off the front of `text`, honoring double-quoted
/// fields: its fields and the text after its line break (`\n` or
/// `\r\n`), or why it is malformed.
fn split_record(text: &str) -> std::result::Result<(Vec<Scalar>, &str), String> {
    let mut fields = Vec::new();
    let mut rest = text;
    loop {
        let after = if let Some(quoted) = rest.strip_prefix('"') {
            let mut s = String::new();
            let mut tail = quoted;
            loop {
                let Some(end) = tail.find('"') else {
                    return Err("unterminated quote".into());
                };
                s.push_str(&tail[..end]);
                tail = &tail[end + 1..];
                match tail.strip_prefix('"') {
                    Some(t) => {
                        s.push('"');
                        tail = t;
                    }
                    None => break,
                }
            }
            fields.push(Scalar::Str(s));
            match tail.chars().next() {
                None | Some(DELIMITER | '\n') => tail,
                Some('\r') if tail[1..].starts_with('\n') => &tail[1..],
                Some(c) => return Err(format!("unexpected `{c}` after closing quote")),
            }
        } else {
            let end = rest.find([DELIMITER, '\n']).unwrap_or(rest.len());
            let raw = &rest[..end];
            let tail = &rest[end..];
            let raw = if tail.starts_with(DELIMITER) {
                raw
            } else {
                raw.strip_suffix('\r').unwrap_or(raw)
            };
            fields.push(parse_unquoted(raw));
            tail
        };
        match after.strip_prefix(DELIMITER) {
            Some(next) => rest = next,
            None => return Ok((fields, after.strip_prefix('\n').unwrap_or(after))),
        }
    }
}

/// The header's schema: every column named, none twice.
fn header_schema(header: &str) -> Result<Schema> {
    let names: Vec<&str> = header.split(DELIMITER).collect();
    for (i, name) in names.iter().enumerate() {
        if name.is_empty() {
            return Err(malformed(format!("header column {} has no name", i + 1)));
        }
        if names[..i].contains(name) {
            return Err(malformed(format!("header names `{name}` twice")));
        }
    }
    Ok(names.into_iter().map(Attr::new).collect())
}

/// Parse delimited text (with header) into a table. Every line after the
/// header is one record — a blank one is a row of one NULL — except where
/// a quoted field spans lines.
pub fn read_str(text: &str) -> Result<Table> {
    if text.is_empty() {
        return Err(malformed("empty record file".into()));
    }
    let (header, mut rest) = text.split_once('\n').unwrap_or((text, ""));
    let schema = header_schema(header.strip_suffix('\r').unwrap_or(header))?;
    let mut table = Table::empty(schema);
    let mut line = 2;
    while !rest.is_empty() {
        let (row, next) = split_record(rest).map_err(|e| malformed(format!("line {line}: {e}")))?;
        table
            .push(row)
            .map_err(|e| malformed(format!("line {line}: {e}")))?;
        line += rest[..rest.len() - next.len()].matches('\n').count();
        rest = next;
    }
    Ok(table)
}

/// Write a table to a record file on disk.
pub fn write_file(table: &Table, path: &std::path::Path) -> Result<()> {
    std::fs::write(path, write_str(table)).map_err(|e| EngineError::FunctionFailed {
        function: "recordfile::write".into(),
        reason: e.to_string(),
    })
}

/// Read a record file from disk.
pub fn read_file(path: &std::path::Path) -> Result<Table> {
    let text = std::fs::read_to_string(path).map_err(|e| EngineError::FunctionFailed {
        function: "recordfile::read".into(),
        reason: e.to_string(),
    })?;
    read_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::rng::Rng;

    fn sample() -> Table {
        Table::from_rows(
            Schema::of(["id", "name", "cost", "day", "flag"]),
            vec![
                vec![
                    Scalar::Int(1),
                    Scalar::Str("widget".into()),
                    Scalar::Float(9.5),
                    Scalar::Date(120),
                    Scalar::Bool(true),
                ],
                vec![
                    Scalar::Int(2),
                    Scalar::Null,
                    Scalar::Float(100.0),
                    Scalar::Date(-3),
                    Scalar::Bool(false),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let text = write_str(&t);
        let back = read_str(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn tricky_strings_roundtrip() {
        let t = Table::from_rows(
            Schema::of(["s"]),
            vec![
                vec![Scalar::Str("123".into())],            // looks like an int
                vec![Scalar::Str("1.5".into())],            // looks like a float
                vec![Scalar::Str("true".into())],           // looks like a bool
                vec![Scalar::Str("a|b".into())],            // contains delimiter
                vec![Scalar::Str("he said \"hi\"".into())], // contains quotes
                vec![Scalar::Str(String::new())],           // empty string ≠ NULL
                vec![Scalar::Str("d:99".into())],           // looks like a date
            ],
        )
        .unwrap();
        let back = read_str(&write_str(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn null_vs_empty_string() {
        let t = Table::from_rows(
            Schema::of(["a", "b"]),
            vec![vec![Scalar::Null, Scalar::Str(String::new())]],
        )
        .unwrap();
        let text = write_str(&t);
        let back = read_str(&text).unwrap();
        assert_eq!(back.rows()[0][0], Scalar::Null);
        assert_eq!(back.rows()[0][1], Scalar::Str(String::new()));
    }

    #[test]
    fn integral_floats_stay_floats() {
        let t = Table::from_rows(Schema::of(["x"]), vec![vec![Scalar::Float(100.0)]]).unwrap();
        let back = read_str(&write_str(&t)).unwrap();
        assert_eq!(back.rows()[0][0], Scalar::Float(100.0));
    }

    #[test]
    fn malformed_input_is_reported() {
        assert!(read_str("").is_err());
        // Wrong arity.
        assert!(read_str("a|b\n1\n").is_err());
        // Unterminated quote.
        assert!(read_str("a\n\"oops\n").is_err());
    }

    #[test]
    fn repeated_or_empty_header_names_are_typed_errors() {
        for header in ["a|a", "|", "a|b|a\n1|2|3\n", "a||b", "\n"] {
            match read_str(header) {
                Err(EngineError::FunctionFailed { reason, .. }) => {
                    assert!(reason.contains("header"), "{header:?}: {reason}");
                }
                other => panic!("{header:?}: expected a header error, got {other:?}"),
            }
        }
    }

    #[test]
    fn line_breaks_and_one_column_nulls_roundtrip() {
        let t = Table::from_rows(
            Schema::of(["s"]),
            vec![
                vec![Scalar::Null],
                vec![Scalar::Str("two\nlines".into())],
                vec![Scalar::Str("crlf\r\n".into())],
                vec![Scalar::Str("\r".into())],
                vec![Scalar::Null],
            ],
        )
        .unwrap();
        let back = read_str(&write_str(&t)).unwrap();
        assert_eq!(t, back);
        // CRLF line ends read as LF ones.
        let crlf = read_str("a|b\r\n1|x\r\n\"q\"|\r\n").unwrap();
        assert_eq!(
            crlf.rows(),
            &[
                vec![Scalar::Int(1), Scalar::Str("x".into())],
                vec![Scalar::Str("q".into()), Scalar::Null],
            ]
        );
    }

    fn random_cell(rng: &mut Rng) -> Scalar {
        const SPELLINGS: [&str; 16] = [
            "123", "-7", "1.5", "1e5", "inf", "-inf", "NaN", "true", "false", "d:42", "d:", "-0.0",
            " 12", "12 ", " ", "é|ü",
        ];
        const PIECES: [&str; 12] = [
            "|", "\"", "\r", "\n", "\r\n", " ", "a", "9", ".", "d:", "e", "\t",
        ];
        let pick = |rng: &mut Rng, xs: &[&str]| xs[rng.gen_range(0..xs.len())].to_owned();
        match rng.gen_range(0..10u32) {
            0 => Scalar::Null,
            1 => Scalar::Str(String::new()),
            2 => Scalar::Int(match rng.gen_range(0..4u32) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range(-1000..1000i64),
            }),
            3 => Scalar::Float(match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::MAX,
                5 => f64::MIN_POSITIVE,
                6 => rng.gen_range(-1e6..1e6f64).round(),
                _ => rng.gen_range(-1e6..1e6f64),
            }),
            4 => Scalar::Bool(rng.gen_bool(0.5)),
            5 => Scalar::Date(match rng.gen_range(0..3u32) {
                0 => i32::MIN,
                1 => i32::MAX,
                _ => rng.gen_range(-5000..5000i32),
            }),
            6 => Scalar::Str(pick(rng, &SPELLINGS)),
            _ => Scalar::Str(
                (0..rng.gen_range(1..6usize))
                    .map(|_| pick(rng, &PIECES))
                    .collect(),
            ),
        }
    }

    fn random_table(rng: &mut Rng) -> Table {
        let width = rng.gen_range(1..5usize);
        let rows = (0..rng.gen_range(0..12usize))
            .map(|_| (0..width).map(|_| random_cell(rng)).collect())
            .collect();
        Table::from_rows(Schema::of((0..width).map(|i| format!("c{i}"))), rows).unwrap()
    }

    /// Exact equality: `-0.0` and `0.0` are different cells here.
    fn assert_exact(want: &Table, got: &Table, what: &str) {
        assert_eq!(want.schema(), got.schema(), "{what}");
        assert_eq!(want.len(), got.len(), "{what}");
        for (w, g) in want.rows().iter().zip(got.rows()) {
            assert_eq!(w.len(), g.len(), "{what}");
            for (a, b) in w.iter().zip(g) {
                assert_eq!(
                    a.total_cmp(b),
                    std::cmp::Ordering::Equal,
                    "{what}: {a:?} vs {b:?}"
                );
                assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{what}"
                );
            }
        }
    }

    /// The zero-dependency fuzzer: random tables over NULLs, empty
    /// strings, strings holding the delimiter, quotes, line breaks or edge
    /// spaces, strings spelling other types, ±0.0, ±inf and integer
    /// extremes read back exactly; and every byte-damaged copy of their
    /// text either parses or returns a typed error. Reaching the end of
    /// this test is the no-panic assertion.
    #[test]
    fn random_tables_roundtrip_and_damaged_texts_never_panic() {
        let (mut parsed, mut rejected) = (0u32, 0u32);
        for seed in 0..300u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x2ec0);
            let t = random_table(&mut rng);
            let text = write_str(&t);
            let back = read_str(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text:?}"));
            assert_exact(&t, &back, &format!("seed {seed}: {text:?}"));

            let bytes = text.as_bytes();
            for _ in 0..20 {
                let mut bad = bytes.to_vec();
                match rng.gen_range(0..3u32) {
                    0 => bad.truncate(rng.gen_range(0..bad.len())),
                    1 => {
                        let at = rng.gen_range(0..bad.len());
                        bad[at] ^= 1 << rng.gen_range(0..8u32);
                    }
                    _ => {
                        let at = rng.gen_range(0..=bad.len());
                        let hostile = [b'|', b'"', b'\n', b'\r', b'd', b':', b'-', b'.'];
                        bad.insert(at, hostile[rng.gen_range(0..hostile.len())]);
                    }
                }
                match read_str(&String::from_utf8_lossy(&bad)) {
                    Ok(_) => parsed += 1,
                    Err(EngineError::FunctionFailed { .. }) => rejected += 1,
                    Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
                }
            }
        }
        assert!(
            parsed > 0 && rejected > 0,
            "{parsed} parsed, {rejected} rejected"
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("etlopt_recordfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("parts.rec");
        let t = sample();
        write_file(&t, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn executor_consumes_file_loaded_tables() {
        use crate::catalog::Catalog;
        use crate::executor::Executor;
        use etlopt_core::predicate::Predicate;
        use etlopt_core::semantics::UnaryOp;
        use etlopt_core::workflow::WorkflowBuilder;

        let text = "id|cost\n1|10.0\n2|\n3|99.5\n";
        let table = read_str(text).unwrap();
        let mut b = WorkflowBuilder::new();
        let s = b.source_file("extract.rec", Schema::of(["id", "cost"]), 3.0);
        let nn = b.unary("NN", UnaryOp::not_null("cost"), s);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("cost", 50.0)), nn);
        b.target("T", Schema::of(["id", "cost"]), f);
        let wf = b.build().unwrap();
        let mut catalog = Catalog::new();
        catalog.insert("extract.rec", table);
        let out = Executor::new(catalog).run(&wf).unwrap();
        assert_eq!(out.target("T").unwrap().len(), 1);
    }
}
