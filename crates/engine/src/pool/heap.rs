//! The spill heap file: an append-only on-disk page store backing the
//! buffer pool past its frame budget.
//!
//! One temporary file per pool, created lazily on the first eviction and
//! removed on drop. The file is append-only: pool pages are immutable
//! once appended, so every page is written at most once and re-reads
//! always hit its single location.
//!
//! # Page format
//!
//! A page is a private, native binary encoding — it never leaves the
//! process, so it owes nothing to the user-facing text format of
//! `crate::recordfile`. All integers are little-endian:
//!
//! ```text
//! page := rows:u32  row*
//! row  := width:u32 cell*
//! cell := 0                       NULL
//!       | 1 i64                   Int
//!       | 2 u64                   Float, as `f64::to_bits` (NaN payloads and -0.0 survive)
//!       | 3 len:u32 utf8[len]     Str
//!       | 4 | 5                   Bool false | true
//!       | 6 i32                   Date
//! ```
//!
//! Every [`Scalar`] round-trips bit-exactly — the property the
//! spill-correctness contract rests on. Reading trusts nothing: the row
//! count and every string length are checked against the bytes actually
//! left before anything is allocated for them, each row's width is
//! checked against the buffer's schema, and a truncated page, an unknown
//! cell tag, a non-UTF-8 string or trailing bytes is a typed
//! [`EngineError`], never a panic.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use etlopt_core::scalar::Scalar;

use crate::error::{EngineError, Result};
use crate::table::Row;

/// Where one spilled page lives inside the heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageLoc {
    offset: u64,
    bytes: u64,
}

/// Process-wide counter so concurrently running pools (parallel test
/// binaries share a temp dir, not a process) get distinct file names.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(op: &str, e: std::io::Error) -> EngineError {
    EngineError::FunctionFailed {
        function: format!("pool::heap::{op}"),
        reason: e.to_string(),
    }
}

fn corrupt(reason: impl Into<String>) -> EngineError {
    EngineError::FunctionFailed {
        function: "pool::heap::read".into(),
        reason: format!("corrupt spill page: {}", reason.into()),
    }
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_FALSE: u8 = 4;
const TAG_TRUE: u8 = 5;
const TAG_DATE: u8 = 6;

fn put_len(buf: &mut Vec<u8>, len: usize, what: &str) -> Result<()> {
    let len = u32::try_from(len).map_err(|_| EngineError::FunctionFailed {
        function: "pool::heap::write".into(),
        reason: format!("{what} of {len} overflows the page's u32 length prefix"),
    })?;
    buf.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Encode one page (see the module docs for the layout).
pub(crate) fn encode_page(rows: &[Row]) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    put_len(&mut buf, rows.len(), "row count")?;
    for row in rows {
        put_len(&mut buf, row.len(), "row width")?;
        for cell in row {
            match cell {
                Scalar::Null => buf.push(TAG_NULL),
                Scalar::Int(i) => {
                    buf.push(TAG_INT);
                    buf.extend_from_slice(&i.to_le_bytes());
                }
                Scalar::Float(f) => {
                    buf.push(TAG_FLOAT);
                    buf.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                Scalar::Str(s) => {
                    buf.push(TAG_STR);
                    put_len(&mut buf, s.len(), "string length")?;
                    buf.extend_from_slice(s.as_bytes());
                }
                Scalar::Bool(b) => buf.push(if *b { TAG_TRUE } else { TAG_FALSE }),
                Scalar::Date(d) => {
                    buf.push(TAG_DATE);
                    buf.extend_from_slice(&d.to_le_bytes());
                }
            }
        }
    }
    Ok(buf)
}

/// A bounds-checked cursor over one page's bytes.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(corrupt(format!(
                "truncated {what}: {n} bytes wanted, {} left",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    fn len(&mut self, what: &str) -> Result<usize> {
        Ok(u32::from_le_bytes(self.array(what)?) as usize)
    }
}

/// Decode one page, checking every row is `width` values wide.
pub(crate) fn decode_page(bytes: &[u8], width: usize) -> Result<Vec<Row>> {
    let mut cur = Cursor { rest: bytes };
    let count = cur.len("row count")?;
    // A row costs at least its four-byte width prefix, so a count the
    // remaining bytes cannot hold is rejected before it sizes anything.
    if count > cur.rest.len() / 4 {
        return Err(corrupt(format!(
            "{count} rows claimed in {} bytes",
            cur.rest.len()
        )));
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let actual = cur.len("row width")?;
        if actual != width {
            return Err(EngineError::RowArity {
                context: "spill page".into(),
                expected: width,
                actual,
            });
        }
        // One spare cell: staged rows lose and regain their order tag
        // without reallocating (`exec::partition`).
        let mut row = Vec::with_capacity(width + 1);
        for _ in 0..width {
            let [tag] = cur.array("cell tag")?;
            row.push(match tag {
                TAG_NULL => Scalar::Null,
                TAG_INT => Scalar::Int(i64::from_le_bytes(cur.array("Int cell")?)),
                TAG_FLOAT => {
                    Scalar::Float(f64::from_bits(u64::from_le_bytes(cur.array("Float cell")?)))
                }
                TAG_STR => {
                    let len = cur.len("string length")?;
                    let text = std::str::from_utf8(cur.take(len, "string cell")?)
                        .map_err(|e| corrupt(format!("string cell is not UTF-8: {e}")))?;
                    Scalar::Str(text.to_owned())
                }
                TAG_FALSE => Scalar::Bool(false),
                TAG_TRUE => Scalar::Bool(true),
                TAG_DATE => Scalar::Date(i32::from_le_bytes(cur.array("Date cell")?)),
                other => return Err(corrupt(format!("unknown cell tag {other}"))),
            });
        }
        rows.push(row);
    }
    if !cur.rest.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", cur.rest.len())));
    }
    Ok(rows)
}

/// The append-only spill file.
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: File,
    path: PathBuf,
    len: u64,
}

impl SpillFile {
    /// Create a fresh spill file in the system temp directory.
    pub(crate) fn create() -> Result<SpillFile> {
        let path = std::env::temp_dir().join(format!(
            "etlopt-spill-{}-{}.heap",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("create", e))?;
        Ok(SpillFile { file, path, len: 0 })
    }

    /// Bytes written so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Append one page (a batch of rows) and return its location.
    pub(crate) fn write_page(&mut self, rows: &[Row]) -> Result<PageLoc> {
        let buf = encode_page(rows)?;
        let offset = self.len;
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("write", e))?;
        self.file.write_all(&buf).map_err(|e| io_err("write", e))?;
        self.len += buf.len() as u64;
        Ok(PageLoc {
            offset,
            bytes: buf.len() as u64,
        })
    }

    /// Read one page back, checking every row is `width` values wide.
    pub(crate) fn read_page(&mut self, loc: PageLoc, width: usize) -> Result<Vec<Row>> {
        // `loc` is this file's own bookkeeping, but a location past the
        // bytes written must not size an allocation either.
        if loc
            .offset
            .checked_add(loc.bytes)
            .is_none_or(|end| end > self.len)
        {
            return Err(corrupt(format!(
                "page at {}+{} lies outside the {}-byte heap file",
                loc.offset, loc.bytes, self.len
            )));
        }
        self.file
            .seek(SeekFrom::Start(loc.offset))
            .map_err(|e| io_err("read", e))?;
        let mut buf = vec![0u8; loc.bytes as usize];
        self.file
            .read_exact(&mut buf)
            .map_err(|e| io_err("read", e))?;
        decode_page(&buf, width)
    }

    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::rng::Rng;

    /// Bit-exact comparison: `Scalar`'s `==` calls NaN unequal to itself
    /// and `-0.0` equal to `0.0`, which is exactly what must not be glossed.
    fn bits(rows: &[Row]) -> Vec<Vec<String>> {
        let cell = |c: &Scalar| match c {
            Scalar::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter().map(|r| r.iter().map(cell).collect()).collect()
    }

    fn random_cell(rng: &mut Rng) -> Scalar {
        const STRINGS: [&str; 7] = ["", "|", "a|b \"q\"", "\n", "\\N", "123", "日本\u{1}€"];
        const FLOATS: [f64; 6] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.25,
        ];
        match rng.gen_range(0..9u32) {
            0 => Scalar::Null,
            1 => Scalar::Int(rng.next_u64() as i64),
            2 => Scalar::Int([i64::MIN, i64::MAX, 0, -1][rng.gen_range(0..4usize)]),
            // Any bit pattern is a float: quiet and signalling NaNs with
            // arbitrary payloads included.
            3 => Scalar::Float(f64::from_bits(rng.next_u64())),
            4 => Scalar::Float(f64::from_bits(0x7ff8_0000_0000_0000 | rng.next_u64() >> 13)),
            5 => Scalar::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
            6 => Scalar::Str(STRINGS[rng.gen_range(0..STRINGS.len())].into()),
            7 => Scalar::Bool(rng.gen_bool(0.5)),
            _ => Scalar::Date(rng.next_u64() as i32),
        }
    }

    fn random_page(rng: &mut Rng, width: usize) -> Vec<Row> {
        (0..rng.gen_range(0..6usize))
            .map(|_| (0..width).map(|_| random_cell(rng)).collect())
            .collect()
    }

    #[test]
    fn pages_roundtrip_all_scalar_kinds() {
        let mut f = SpillFile::create().unwrap();
        let rows: Vec<Row> = vec![
            vec![Scalar::Int(-7), Scalar::Float(1.25), Scalar::Null],
            vec![
                Scalar::Str("a|b \"q\"".into()),
                Scalar::Bool(true),
                Scalar::Date(-3),
            ],
            vec![
                Scalar::Str("123".into()),
                Scalar::Float(100.0),
                Scalar::Str(String::new()),
            ],
        ];
        let loc = f.write_page(&rows).unwrap();
        let back = f.read_page(loc, 3).unwrap();
        assert_eq!(rows, back);
    }

    #[test]
    fn random_pages_roundtrip_bit_exactly() {
        for seed in 0..200u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x9a6e);
            let width = rng.gen_range(0..5usize);
            let page = random_page(&mut rng, width);
            let bytes = encode_page(&page).unwrap();
            let back = decode_page(&bytes, width).unwrap();
            assert_eq!(bits(&page), bits(&back), "seed {seed}");
        }
    }

    /// The zero-dependency fuzzer: every prefix of a valid page, and a
    /// few hundred random byte flips of it, either decodes to *some*
    /// well-formed page or returns a typed error. Reaching the end of
    /// this test is the no-panic, no-runaway-allocation assertion.
    #[test]
    fn truncated_and_flipped_pages_are_typed_errors_never_panics() {
        let mut flips_rejected = 0u32;
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0xf122);
            let width = rng.gen_range(1..5usize);
            let mut page = random_page(&mut rng, width);
            page.push((0..width).map(|_| random_cell(&mut rng)).collect());
            let bytes = encode_page(&page).unwrap();
            for cut in 0..bytes.len() {
                let err = decode_page(&bytes[..cut], width).unwrap_err();
                assert!(
                    matches!(
                        err,
                        EngineError::FunctionFailed { .. } | EngineError::RowArity { .. }
                    ),
                    "seed {seed} cut {cut}: {err:?}"
                );
            }
            for _ in 0..200 {
                let mut bad = bytes.clone();
                let at = rng.gen_range(0..bad.len());
                bad[at] ^= 1 << rng.gen_range(0..8u32);
                match decode_page(&bad, width) {
                    // A flipped payload bit is still a valid page.
                    Ok(rows) => assert!(rows.iter().all(|r| r.len() == width)),
                    Err(EngineError::FunctionFailed { .. } | EngineError::RowArity { .. }) => {
                        flips_rejected += 1;
                    }
                    Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
                }
            }
        }
        assert!(
            flips_rejected > 0,
            "the flips never reached a length or tag byte"
        );
    }

    #[test]
    fn each_corruption_has_its_own_typed_error() {
        let reason = |bytes: &[u8], width| match decode_page(bytes, width).unwrap_err() {
            EngineError::FunctionFailed { reason, .. } => reason,
            other => panic!("expected a corrupt-page error, got {other:?}"),
        };
        let good = encode_page(&[vec![Scalar::Str("ab".into())]]).unwrap();
        // rows:u32 | width:u32 | tag | len:u32 | 'a' 'b'
        assert_eq!(good.len(), 4 + 4 + 1 + 4 + 2);

        let mut tag = good.clone();
        tag[8] = 9;
        assert!(reason(&tag, 1).contains("unknown cell tag 9"));

        let mut utf8 = good.clone();
        utf8[13] = 0xff;
        assert!(reason(&utf8, 1).contains("not UTF-8"));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(reason(&trailing, 1).contains("trailing"));

        // Lengths that promise more than the page holds are refused
        // before anything is allocated for them.
        let mut long_str = good.clone();
        long_str[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(reason(&long_str, 1).contains("truncated string cell"));
        let mut many_rows = good.clone();
        many_rows[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(reason(&many_rows, 1).contains("rows claimed"));
        assert!(reason(&[], 1).contains("truncated row count"));
    }

    #[test]
    fn multiple_pages_keep_their_locations() {
        let mut f = SpillFile::create().unwrap();
        let p1: Vec<Row> = vec![vec![Scalar::Int(1), Scalar::Int(2), Scalar::Int(3)]];
        let p2: Vec<Row> = vec![vec![Scalar::Int(4), Scalar::Int(5), Scalar::Int(6)]];
        let l1 = f.write_page(&p1).unwrap();
        let l2 = f.write_page(&p2).unwrap();
        assert!(f.len() > 0);
        assert_eq!(f.read_page(l2, 3).unwrap(), p2);
        assert_eq!(f.read_page(l1, 3).unwrap(), p1);
        let beyond = PageLoc {
            offset: l2.offset,
            bytes: l2.bytes + 1,
        };
        assert!(f.read_page(beyond, 3).is_err());
    }

    #[test]
    fn single_null_column_rows_survive() {
        let mut f = SpillFile::create().unwrap();
        let rows: Vec<Row> = vec![vec![Scalar::Null], vec![Scalar::Int(9)], vec![Scalar::Null]];
        let loc = f.write_page(&rows).unwrap();
        assert_eq!(f.read_page(loc, 1).unwrap(), rows);
    }

    #[test]
    fn empty_page_roundtrips() {
        let mut f = SpillFile::create().unwrap();
        let loc = f.write_page(&[]).unwrap();
        assert!(f.read_page(loc, 3).unwrap().is_empty());
    }

    #[test]
    fn drop_removes_the_file() {
        let f = SpillFile::create().unwrap();
        let path = f.path().to_path_buf();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut f = SpillFile::create().unwrap();
        let loc = f.write_page(&[vec![Scalar::Int(1)]]).unwrap();
        assert!(matches!(
            f.read_page(loc, 3).unwrap_err(),
            EngineError::RowArity { .. }
        ));
    }
}
