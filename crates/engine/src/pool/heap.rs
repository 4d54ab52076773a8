//! The spill heap file: an append-only on-disk page store backing the
//! buffer pool past its frame budget.
//!
//! One temporary file per pool, created lazily on the first eviction and
//! removed on drop. Pages are serialized with the record-file field
//! encoding (`crate::recordfile`), which round-trips every [`Scalar`]
//! exactly — the property the spill-correctness contract rests on. The
//! file is append-only: re-spilling a dirtied page would append a fresh
//! copy, but pool pages are immutable once appended, so every page is
//! written at most once and re-reads always hit its single location.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use etlopt_core::scalar::Scalar;

use crate::error::{EngineError, Result};
use crate::recordfile::{render_field, split_line, DELIMITER};
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

    /// Append one page (a batch of rows) and return its location. Rows are
    /// rendered one per line; a line is *never* skipped on read, so a
    /// single-NULL-column row (which renders as an empty line) survives the
    /// round trip.
    pub(crate) fn write_page(&mut self, rows: &[Row]) -> Result<PageLoc> {
        let mut buf = String::new();
        for row in rows {
            let fields: Vec<String> = row.iter().map(render_field).collect();
            buf.push_str(&fields.join("|"));
            buf.push('\n');
        }
        let offset = self.len;
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("write", e))?;
        self.file
            .write_all(buf.as_bytes())
            .map_err(|e| io_err("write", e))?;
        self.len += buf.len() as u64;
        Ok(PageLoc {
            offset,
            bytes: buf.len() as u64,
        })
    }

    /// Read one page back, checking every row is `width` values wide.
    pub(crate) fn read_page(&mut self, loc: PageLoc, width: usize) -> Result<Vec<Row>> {
        self.file
            .seek(SeekFrom::Start(loc.offset))
            .map_err(|e| io_err("read", e))?;
        let mut buf = vec![0u8; usize::try_from(loc.bytes).unwrap_or(usize::MAX)];
        self.file
            .read_exact(&mut buf)
            .map_err(|e| io_err("read", e))?;
        let text = String::from_utf8(buf).map_err(|e| EngineError::FunctionFailed {
            function: "pool::heap::read".into(),
            reason: format!("spill page is not UTF-8: {e}"),
        })?;
        let mut rows = Vec::new();
        // Every row was terminated by '\n'; split on it and keep empty
        // lines (a one-column NULL row is an empty line).
        let mut rest = text.as_str();
        while let Some(nl) = rest.find('\n') {
            let line = &rest[..nl];
            rest = &rest[nl + 1..];
            let row = parse_row(line, width)?;
            rows.push(row);
        }
        Ok(rows)
    }

    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }
}

fn parse_row(line: &str, width: usize) -> Result<Row> {
    let row = if width == 1 && line.is_empty() {
        // `split_line` on "" yields one NULL field, which is exactly the
        // one-column case; wider schemata can never render an empty line.
        vec![Scalar::Null]
    } else {
        split_line(line)?
    };
    if row.len() != width {
        return Err(EngineError::RowArity {
            context: format!("spill page (line `{line}`, delimiter `{DELIMITER}`)"),
            expected: width,
            actual: row.len(),
        });
    }
    Ok(row)
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn multiple_pages_keep_their_locations() {
        let mut f = SpillFile::create().unwrap();
        let p1: Vec<Row> = vec![vec![Scalar::Int(1), Scalar::Int(2), Scalar::Int(3)]];
        let p2: Vec<Row> = vec![vec![Scalar::Int(4), Scalar::Int(5), Scalar::Int(6)]];
        let l1 = f.write_page(&p1).unwrap();
        let l2 = f.write_page(&p2).unwrap();
        assert!(f.len() > 0);
        assert_eq!(f.read_page(l2, 3).unwrap(), p2);
        assert_eq!(f.read_page(l1, 3).unwrap(), p1);
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
