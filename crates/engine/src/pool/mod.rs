//! The paged buffer pool: bounded-memory storage for streaming
//! intermediates, spilling to a heap file past the frame budget.
//!
//! The streaming runtime (`crate::exec`) materializes row data only at
//! pipeline boundaries — fan-out nodes, hash-join build sides, target
//! drains. Those boundaries store their rows here as immutable **pages**
//! (one appended batch = one page). The pool keeps a bounded number of
//! pages resident; appending or faulting a page past the budget evicts a
//! victim chosen by a **clock** (second-chance) sweep, writing it to the
//! spill heap file on first eviction and dropping it for free on later
//! ones (pages are immutable, so the disk copy never goes stale).
//!
//! # Concurrency
//!
//! The pool is shared by the partition-parallel executor
//! (`crate::exec::partition`), so every method takes `&self` and the
//! pool is `Send + Sync`. All of its state — the buffers, one clock ring
//! over their resident pages, one spill file, the resident count and the
//! traffic counters — sits behind one mutex, and every call takes it
//! once. The frame budget is one budget at any worker count, the clock
//! sweep can never double-evict a page, and a single lock has no lock
//! order to get wrong.
//!
//! Pages are handed out as `Arc<Vec<Row>>`. A page whose `Arc` is still
//! held by a reader counts as **pinned**: the clock sweep skips it (its
//! frame cannot actually be reclaimed while the clone is live), so a
//! pinned page is never evicted out from under its holder. The working
//! set above the budget is therefore bounded by one page per active
//! reader, and when every candidate is pinned the pool admits over
//! budget rather than stalling.
//!
//! # Taking a page
//!
//! A page with exactly one remaining reader does not need to be shared
//! at all. [`BufferPool::take_page`] hands the rows over **by
//! ownership**: an unpinned resident page is moved out and its frame
//! released on the spot, a pinned one is cloned (its other holder keeps
//! reading), and a spilled one is decoded straight from the heap file
//! into the caller's hands without ever occupying a frame. Either way
//! the page is gone from the pool afterwards — a second take, or a
//! `page` / `append_cells` on it, is a typed error. The partitioned
//! executor takes every staged set that has a single sequential consumer,
//! and [`BufferPool::into_table`] drains a target buffer this way; the
//! spill codec (see `heap`) is paid only by pages the clock actually
//! evicted.

#![cfg_attr(not(test), deny(clippy::expect_used))]

mod heap;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use etlopt_core::schema::Schema;
use etlopt_core::trace::ExecCounters;

use crate::error::{EngineError, Result};
use crate::table::{Row, Table};

use heap::{PageLoc, SpillFile};

/// Handle to one paged buffer inside the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BufferId(usize);

#[derive(Debug)]
struct Page {
    /// Resident copy (None when evicted or freed).
    rows: Option<Arc<Vec<Row>>>,
    /// Location of the on-disk copy, if one was ever written.
    disk: Option<PageLoc>,
    /// Clock reference bit: set on access, cleared by the sweep.
    referenced: bool,
    /// Global row offset of this page within its buffer.
    start: usize,
}

/// One buffer: its schema and its pages.
#[derive(Debug)]
struct Buffer {
    schema: Schema,
    /// `schema.len()`, so the per-page paths never touch the schema.
    width: usize,
    pages: Vec<Page>,
    rows: usize,
    freed: bool,
}

/// Everything the pool's lock guards.
#[derive(Debug, Default)]
struct State {
    bufs: Vec<Buffer>,
    /// Clock ring over (possibly stale) resident page slots, addressed
    /// as (buffer index, page index).
    clock: VecDeque<(usize, usize)>,
    resident: usize,
    spill: Option<SpillFile>,
    counters: ExecCounters,
}

/// The pool: one frame budget over state behind one lock.
#[derive(Debug)]
pub struct BufferPool {
    budget: usize,
    state: Mutex<State>,
}

impl BufferPool {
    /// An empty pool keeping at most `frame_budget` (clamped to ≥ 1)
    /// unpinned pages resident.
    pub fn new(frame_budget: usize) -> BufferPool {
        BufferPool {
            budget: frame_budget.max(1),
            state: Mutex::new(State::default()),
        }
    }

    /// Lock the pool's state, recovering the guard even if another
    /// thread panicked while holding it — pool state is just caches and
    /// counters, never left torn.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Create an empty buffer for rows under `schema`.
    pub fn create(&self, schema: Schema) -> BufferId {
        let mut s = self.lock();
        s.bufs.push(Buffer {
            width: schema.len(),
            schema,
            pages: Vec::new(),
            rows: 0,
            freed: false,
        });
        BufferId(s.bufs.len() - 1)
    }

    /// The buffer's schema.
    pub fn schema(&self, buf: BufferId) -> Schema {
        self.lock().bufs[buf.0].schema.clone()
    }

    /// Total rows appended to the buffer.
    pub fn rows(&self, buf: BufferId) -> usize {
        self.lock().bufs[buf.0].rows
    }

    /// Pages appended to the buffer.
    pub fn pages(&self, buf: BufferId) -> usize {
        self.lock().bufs[buf.0].pages.len()
    }

    /// The pool's page-traffic ledger so far.
    pub fn counters(&self) -> ExecCounters {
        self.lock().counters.clone()
    }

    /// Append one batch as a new page, returning the number of pages
    /// written (so callers accounting staged-page traffic need no second
    /// lookup). Empty batches are dropped (they carry no rows and would
    /// only dilute the clock) and write zero pages.
    pub fn append(&self, buf: BufferId, rows: Vec<Row>) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        let mut s = self.lock();
        let width = s.bufs[buf.0].width;
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(EngineError::RowArity {
                context: "BufferPool::append".into(),
                expected: width,
                actual: bad.len(),
            });
        }
        s.make_room(self.budget)?;
        let b = &mut s.bufs[buf.0];
        let start = b.rows;
        b.rows += rows.len();
        b.pages.push(Page {
            rows: Some(Arc::new(rows)),
            disk: None,
            referenced: true,
            start,
        });
        let page = b.pages.len() - 1;
        s.admit(buf, page);
        s.counters.pages_appended += 1;
        Ok(1)
    }

    /// Fetch one page, faulting it back from the heap file if it was
    /// evicted. The returned `Arc` pins the page: the clock sweep skips
    /// it until the caller drops the clone.
    pub fn page(&self, buf: BufferId, page: usize) -> Result<Arc<Vec<Row>>> {
        self.lock().fault(buf, page, self.budget)
    }

    /// Take one page out of the pool by ownership (see the module docs):
    /// moved when resident and unpinned, cloned when another reader still
    /// holds it, decoded from the heap file — without admitting a frame —
    /// when spilled. The page is gone afterwards: taking or reading it
    /// again, like taking from a freed buffer, is a typed error.
    pub fn take_page(&self, buf: BufferId, page: usize) -> Result<Vec<Row>> {
        self.lock().take(buf, page)
    }

    /// Append cells `cols` of row `index` (its global index within the
    /// buffer) to `row`, faulting the owning page in if necessary: a
    /// hash-join match copies only the build-side columns it adds.
    pub fn append_cells(
        &self,
        buf: BufferId,
        index: usize,
        cols: &[usize],
        row: &mut Row,
    ) -> Result<()> {
        let mut s = self.lock();
        let b = &s.bufs[buf.0];
        let out_of_range = |what: String| EngineError::FunctionFailed {
            function: "BufferPool::append_cells".into(),
            reason: what,
        };
        if index >= b.rows {
            return Err(out_of_range(format!(
                "row {index} out of range ({} rows)",
                b.rows
            )));
        }
        // Pages are start-ordered; find the one covering `index`.
        let page = match b.pages.binary_search_by(|p| p.start.cmp(&index)) {
            Ok(p) => p,
            Err(ins) => ins - 1,
        };
        let start = b.pages[page].start;
        let rows = s.fault(buf, page, self.budget)?;
        let src = &rows[index - start];
        for &c in cols {
            let cell = src
                .get(c)
                .ok_or_else(|| out_of_range(format!("column {c} out of range")))?;
            row.push(cell.clone());
        }
        Ok(())
    }

    /// Materialize the whole buffer as a [`Table`] (faulting spilled pages
    /// back in page-at-a-time — resident never exceeds the budget plus the
    /// one page being copied).
    pub fn to_table(&self, buf: BufferId) -> Result<Table> {
        let mut s = self.lock();
        let b = &s.bufs[buf.0];
        let (schema, pages) = (b.schema.clone(), b.pages.len());
        let mut rows = Vec::with_capacity(b.rows);
        for page in 0..pages {
            rows.extend(s.fault(buf, page, self.budget)?.iter().cloned());
        }
        drop(s);
        Table::from_rows(schema, rows)
    }

    /// Materialize the whole buffer as a [`Table`] and free it: every page
    /// changes hands as in [`BufferPool::take_page`], so resident rows
    /// are moved, not cloned, and spilled ones never re-enter a frame.
    pub fn into_table(&self, buf: BufferId) -> Result<Table> {
        let mut s = self.lock();
        let b = &s.bufs[buf.0];
        let (schema, pages) = (b.schema.clone(), b.pages.len());
        let mut rows = Vec::with_capacity(b.rows);
        for page in 0..pages {
            rows.append(&mut s.take(buf, page)?);
        }
        s.free(buf);
        drop(s);
        Table::from_rows(schema, rows)
    }

    /// Drop a buffer's pages (resident and spilled bookkeeping alike). The
    /// heap file is append-only, so spilled bytes are reclaimed when the
    /// pool itself drops; clock entries go stale and are skipped lazily.
    pub fn free(&self, buf: BufferId) {
        self.lock().free(buf);
    }
}

fn gone(function: &str, buf: BufferId, page: usize, what: &str) -> EngineError {
    EngineError::FunctionFailed {
        function: format!("BufferPool::{function}"),
        reason: format!("page {page} of buffer {} {what}", buf.0),
    }
}

impl State {
    /// The resident rows of one page, read back from the heap file (and
    /// admitted under `budget`) if the clock evicted them.
    fn fault(&mut self, buf: BufferId, page: usize, budget: usize) -> Result<Arc<Vec<Row>>> {
        let b = &mut self.bufs[buf.0];
        let width = b.width;
        let p = b
            .pages
            .get_mut(page)
            .ok_or_else(|| gone("page", buf, page, "does not exist"))?;
        p.referenced = true;
        if let Some(rows) = &p.rows {
            return Ok(Arc::clone(rows));
        }
        let loc = p
            .disk
            .ok_or_else(|| gone("page", buf, page, "is neither resident nor spilled"))?;
        self.make_room(budget)?;
        let spill = self
            .spill
            .as_mut()
            .ok_or_else(|| gone("page", buf, page, "is spilled but has no heap file"))?;
        let rows = Arc::new(spill.read_page(loc, width)?);
        self.bufs[buf.0].pages[page].rows = Some(Arc::clone(&rows));
        self.admit(buf, page);
        self.counters.pages_reloaded += 1;
        Ok(rows)
    }

    /// See [`BufferPool::take_page`].
    fn take(&mut self, buf: BufferId, page: usize) -> Result<Vec<Row>> {
        let b = &mut self.bufs[buf.0];
        let width = b.width;
        let p = b
            .pages
            .get_mut(page)
            .ok_or_else(|| gone("take_page", buf, page, "does not exist"))?;
        if let Some(rows) = p.rows.take() {
            p.disk = None;
            self.resident -= 1;
            return Ok(Arc::try_unwrap(rows).unwrap_or_else(|shared| (*shared).clone()));
        }
        let loc = p
            .disk
            .take()
            .ok_or_else(|| gone("take_page", buf, page, "was already taken or freed"))?;
        let spill = self
            .spill
            .as_mut()
            .ok_or_else(|| gone("take_page", buf, page, "is spilled but has no heap file"))?;
        self.counters.pages_reloaded += 1;
        spill.read_page(loc, width)
    }

    /// See [`BufferPool::free`].
    fn free(&mut self, buf: BufferId) {
        let b = &mut self.bufs[buf.0];
        if b.freed {
            return;
        }
        b.freed = true;
        let mut released = 0;
        for page in &mut b.pages {
            if page.rows.take().is_some() {
                released += 1;
            }
            page.disk = None;
        }
        self.resident -= released;
    }

    /// Count a page that just became resident: enqueue it on the clock
    /// and raise the high-water mark.
    fn admit(&mut self, buf: BufferId, page: usize) {
        self.clock.push_back((buf.0, page));
        self.resident += 1;
        self.counters.peak_resident_frames =
            self.counters.peak_resident_frames.max(self.resident as u64);
    }

    /// Evict resident pages until one more fits inside `budget`.
    fn make_room(&mut self, budget: usize) -> Result<()> {
        while self.resident >= budget {
            if !self.evict_one()? {
                // Nothing evictable (every candidate pinned or referenced
                // under a tiny budget): admit over budget rather than
                // stall — a reader's pin is released in bounded time.
                break;
            }
        }
        Ok(())
    }

    /// One clock sweep: skip stale entries, give referenced pages a second
    /// chance, skip pinned pages (an outstanding `Arc` clone means the
    /// frame cannot be reclaimed anyway), evict the first unpinned
    /// unreferenced resident page. Returns false when the ring holds no
    /// evictable page.
    fn evict_one(&mut self) -> Result<bool> {
        let mut sweeps = self.clock.len().saturating_mul(2);
        while let Some((bi, pi)) = self.clock.pop_front() {
            let page = &mut self.bufs[bi].pages[pi];
            let pinned = match &page.rows {
                // Stale entry: evicted or freed since it was enqueued.
                None => continue,
                Some(rows) => Arc::strong_count(rows) > 1,
            };
            if (pinned || page.referenced) && sweeps > 0 {
                sweeps -= 1;
                page.referenced = false;
                self.clock.push_back((bi, pi));
                continue;
            }
            if pinned {
                // Sweeps exhausted with the pin still live: give up rather
                // than evict a page a reader is holding.
                self.clock.push_back((bi, pi));
                return Ok(false);
            }
            // Victim: write on first eviction, drop for free afterwards.
            if page.disk.is_none() {
                let rows = page.rows.as_ref().map(|r| r.as_slice()).unwrap_or(&[]);
                let spill = match &mut self.spill {
                    Some(s) => s,
                    empty => empty.insert(SpillFile::create()?),
                };
                let loc = spill.write_page(rows)?;
                self.bufs[bi].pages[pi].disk = Some(loc);
                self.counters.pages_spilled += 1;
            }
            self.bufs[bi].pages[pi].rows = None;
            self.resident -= 1;
            self.counters.evictions += 1;
            return Ok(true);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::scalar::Scalar;

    fn rows(range: std::ops::Range<i64>) -> Vec<Row> {
        range
            .map(|i| vec![Scalar::Int(i), Scalar::Int(i * 10)])
            .collect()
    }

    fn schema() -> Schema {
        Schema::of(["k", "v"])
    }

    /// Row `index` of `b`, read back through [`BufferPool::append_cells`].
    fn row_at(pool: &BufferPool, b: BufferId, index: usize) -> Result<Row> {
        let mut row = Vec::new();
        pool.append_cells(b, index, &[0, 1], &mut row)?;
        Ok(row)
    }

    #[test]
    fn append_and_read_back_without_eviction() {
        let pool = BufferPool::new(8);
        let b = pool.create(schema());
        pool.append(b, rows(0..4)).unwrap();
        pool.append(b, rows(4..8)).unwrap();
        assert_eq!(pool.rows(b), 8);
        assert_eq!(pool.pages(b), 2);
        let t = pool.to_table(b).unwrap();
        assert_eq!(t.len(), 8);
        assert_eq!(t.rows()[5][0], Scalar::Int(5));
        assert!(!pool.counters().spilled());
    }

    #[test]
    fn eviction_spills_and_faults_back_bit_identical() {
        let pool = BufferPool::new(2);
        let b = pool.create(schema());
        for start in 0..6 {
            pool.append(b, rows(start * 3..(start + 1) * 3)).unwrap();
        }
        let c = pool.counters();
        assert!(c.spilled(), "{c:?}");
        assert!(c.evictions >= 4, "{c:?}");
        assert_eq!(c.pages_appended, 6);
        let t = pool.to_table(b).unwrap();
        assert_eq!(t.len(), 18);
        for (i, row) in t.rows().iter().enumerate() {
            assert_eq!(row[0], Scalar::Int(i as i64));
            assert_eq!(row[1], Scalar::Int(i as i64 * 10));
        }
        assert!(pool.counters().pages_reloaded > 0);
    }

    #[test]
    fn random_row_access_faults_pages() {
        let pool = BufferPool::new(2);
        let b = pool.create(schema());
        for start in 0..5 {
            pool.append(b, rows(start * 4..(start + 1) * 4)).unwrap();
        }
        // Probe back-to-front so early (evicted) pages must fault in.
        for i in (0..20).rev() {
            let row = row_at(&pool, b, i).unwrap();
            assert_eq!(row[0], Scalar::Int(i as i64));
        }
        assert!(row_at(&pool, b, 20).is_err());
    }

    #[test]
    fn appending_cells_of_a_spilled_row_copies_only_those_cells() {
        let pool = BufferPool::new(1);
        let b = pool.create(schema());
        pool.append(b, rows(0..2)).unwrap();
        pool.append(b, rows(2..4)).unwrap(); // spills page 0
        assert_eq!(pool.counters().pages_spilled, 1);
        let mut row = vec![Scalar::Null];
        pool.append_cells(b, 1, &[1, 0, 1], &mut row).unwrap();
        let ten = Scalar::Int(10);
        assert_eq!(row, [Scalar::Null, ten.clone(), Scalar::Int(1), ten]);
        assert_eq!(pool.counters().pages_reloaded, 1);
        let mut none = Vec::new();
        pool.append_cells(b, 3, &[], &mut none).unwrap();
        assert!(none.is_empty());
        assert!(
            pool.append_cells(b, 0, &[2], &mut none).is_err(),
            "no column 2"
        );
        assert!(
            pool.append_cells(b, 4, &[0], &mut none).is_err(),
            "no row 4"
        );
    }

    #[test]
    fn a_held_page_is_pinned_against_eviction() {
        let pool = BufferPool::new(1);
        let b = pool.create(schema());
        pool.append(b, rows(0..2)).unwrap();
        let held = pool.page(b, 0).unwrap();
        // Appending more pages under budget 1 sweeps the clock, but the
        // held page is pinned: later pages evict instead, and the pool
        // runs over budget rather than pulling the frame out from under
        // the reader.
        pool.append(b, rows(2..4)).unwrap();
        pool.append(b, rows(4..6)).unwrap();
        assert_eq!(held[1][0], Scalar::Int(1));
        assert_eq!(row_at(&pool, b, 0).unwrap()[0], Scalar::Int(0));
        drop(held);
        // Unpinned now: the next sweep may evict it, and spilled pages
        // reload intact.
        pool.append(b, rows(6..8)).unwrap();
        for i in 0..8 {
            assert_eq!(row_at(&pool, b, i).unwrap()[0], Scalar::Int(i as i64));
        }
    }

    #[test]
    fn second_eviction_of_a_clean_page_is_free() {
        let pool = BufferPool::new(1);
        let b = pool.create(schema());
        pool.append(b, rows(0..2)).unwrap();
        pool.append(b, rows(2..4)).unwrap(); // evicts+spills page 0
        let spilled_once = pool.counters().pages_spilled;
        let _ = pool.page(b, 0).unwrap(); // fault back (evicts page 1)
        let _ = pool.page(b, 1).unwrap(); // evicts page 0 again — clean
        assert_eq!(pool.counters().pages_spilled, spilled_once + 1);
        assert!(pool.counters().evictions >= 3);
    }

    #[test]
    fn multiple_buffers_share_the_budget() {
        let pool = BufferPool::new(2);
        let a = pool.create(schema());
        let b = pool.create(Schema::of(["x"]));
        pool.append(a, rows(0..3)).unwrap();
        pool.append(b, vec![vec![Scalar::Null], vec![Scalar::Int(1)]])
            .unwrap();
        pool.append(a, rows(3..6)).unwrap();
        pool.append(b, vec![vec![Scalar::Str("s".into())]]).unwrap();
        let ta = pool.to_table(a).unwrap();
        let tb = pool.to_table(b).unwrap();
        assert_eq!(ta.len(), 6);
        assert_eq!(tb.len(), 3);
        assert_eq!(tb.rows()[0][0], Scalar::Null);
        assert!(pool.counters().spilled());
    }

    #[test]
    fn freed_buffers_release_frames() {
        let pool = BufferPool::new(4);
        let a = pool.create(schema());
        pool.append(a, rows(0..2)).unwrap();
        pool.append(a, rows(2..4)).unwrap();
        pool.free(a);
        pool.free(a); // idempotent
        let b = pool.create(schema());
        for start in 0..4 {
            pool.append(b, rows(start * 2..(start + 1) * 2)).unwrap();
        }
        // The freed buffer's frames were reclaimed: no eviction needed.
        assert_eq!(pool.counters().evictions, 0);
        assert_eq!(pool.to_table(b).unwrap().len(), 8);
    }

    fn resident(pool: &BufferPool) -> usize {
        pool.lock().resident
    }

    #[test]
    fn taking_an_unshared_resident_page_moves_it_and_releases_the_frame() {
        let pool = BufferPool::new(4);
        let b = pool.create(schema());
        pool.append(b, rows(0..3)).unwrap();
        let cells = pool.page(b, 0).unwrap()[0].as_ptr();
        assert_eq!(resident(&pool), 1);
        let taken = pool.take_page(b, 0).unwrap();
        assert_eq!(taken, rows(0..3));
        assert_eq!(taken[0].as_ptr(), cells, "rows were moved, not cloned");
        assert_eq!(resident(&pool), 0);
        // Gone for every reader, with a typed error each.
        assert!(pool.take_page(b, 0).is_err());
        assert!(pool.page(b, 0).is_err());
        assert!(row_at(&pool, b, 0).is_err());
        assert!(pool.take_page(b, 1).is_err(), "no such page");
    }

    #[test]
    fn taking_a_shared_page_clones_it_for_the_taker() {
        let pool = BufferPool::new(4);
        let b = pool.create(schema());
        pool.append(b, rows(0..3)).unwrap();
        let held = pool.page(b, 0).unwrap();
        let taken = pool.take_page(b, 0).unwrap();
        assert_eq!(taken, *held);
        assert_ne!(taken[0].as_ptr(), held[0].as_ptr());
        assert_eq!(resident(&pool), 0);
    }

    #[test]
    fn taking_a_spilled_page_reads_it_without_admitting_a_frame() {
        let pool = BufferPool::new(1);
        let b = pool.create(schema());
        pool.append(b, rows(0..2)).unwrap();
        pool.append(b, rows(2..4)).unwrap(); // spills page 0
        let before = pool.counters();
        assert_eq!((before.pages_spilled, resident(&pool)), (1, 1));
        assert_eq!(pool.take_page(b, 0).unwrap(), rows(0..2));
        let after = pool.counters();
        assert_eq!(resident(&pool), 1, "page 1 still holds the only frame");
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.pages_reloaded, before.pages_reloaded + 1);
        assert!(pool.take_page(b, 0).is_err(), "double take");
    }

    #[test]
    fn a_freed_buffer_has_nothing_to_take() {
        let pool = BufferPool::new(1);
        let b = pool.create(schema());
        pool.append(b, rows(0..2)).unwrap();
        pool.append(b, rows(2..4)).unwrap();
        pool.free(b);
        assert!(pool.take_page(b, 0).is_err(), "spilled, then freed");
        assert!(pool.take_page(b, 1).is_err(), "resident, then freed");
    }

    #[test]
    fn into_table_drains_resident_and_spilled_pages_in_order() {
        let pool = BufferPool::new(2);
        let b = pool.create(schema());
        for start in 0..5 {
            pool.append(b, rows(start * 3..(start + 1) * 3)).unwrap();
        }
        assert!(pool.counters().spilled());
        let t = pool.into_table(b).unwrap();
        assert_eq!(t.rows(), rows(0..15));
        assert_eq!(resident(&pool), 0);
        assert!(pool.take_page(b, 0).is_err(), "the buffer is freed");
    }

    #[test]
    fn arity_checked_on_append() {
        let pool = BufferPool::new(256);
        let b = pool.create(schema());
        assert!(pool.append(b, vec![vec![Scalar::Int(1)]]).is_err());
    }

    #[test]
    fn empty_append_is_a_noop() {
        let pool = BufferPool::new(256);
        let b = pool.create(schema());
        pool.append(b, Vec::new()).unwrap();
        assert_eq!(pool.pages(b), 0);
        assert_eq!(pool.to_table(b).unwrap().len(), 0);
    }

    /// Four one-page buffers under a 2-frame pool — the way a 4-worker
    /// run creates them: the budget is the pool's, not a quarter of it
    /// per worker, so the third and fourth pages each evict one.
    #[test]
    fn the_frame_budget_holds_across_buffers() {
        let pool = BufferPool::new(2);
        for w in 0..4 {
            let buf = pool.create(schema());
            pool.append(buf, rows(w * 2..(w + 1) * 2)).unwrap();
            assert!(resident(&pool) <= 2, "{} pages resident", resident(&pool));
        }
        let c = pool.counters();
        assert_eq!((c.evictions, c.pages_spilled), (2, 2), "{c:?}");
        assert_eq!(c.peak_resident_frames, 2, "{c:?}");
    }

    /// `peak_resident_frames` is the pool's real high-water, pinned
    /// over-budget pages included, not the fullest part of it.
    #[test]
    fn the_peak_is_the_pools_high_water() {
        let pool = BufferPool::new(2);
        let mut held = Vec::new();
        let mut high = 0;
        for w in 0..4 {
            let buf = pool.create(schema());
            pool.append(buf, rows(w * 2..(w + 1) * 2)).unwrap();
            held.push(pool.page(buf, 0).unwrap());
            high = high.max(resident(&pool));
        }
        assert_eq!(high, 4, "every page is pinned, so none could go");
        assert_eq!(pool.counters().peak_resident_frames, high as u64);
        drop(held);
        let extra = pool.create(schema());
        pool.append(extra, rows(0..2)).unwrap();
        assert_eq!(resident(&pool), 2, "unpinned, back to the budget");
        assert_eq!(pool.counters().peak_resident_frames, 4);
    }

    /// Four concurrent pinning clients under a tiny frame budget must
    /// never deadlock, and a pinned page must never be evicted out from
    /// under its holder while other threads force evictions.
    #[test]
    fn concurrent_pinning_clients_never_deadlock_or_double_evict() {
        let pool = BufferPool::new(2);
        let ids: Vec<BufferId> = (0..4).map(|_| pool.create(schema())).collect();
        std::thread::scope(|scope| {
            for (w, &buf) in ids.iter().enumerate() {
                let pool = &pool;
                scope.spawn(move || {
                    let base = w as i64 * 100;
                    for start in 0..6 {
                        pool.append(buf, rows(base + start * 2..base + (start + 1) * 2))
                            .unwrap();
                        // Pin the freshly appended page across the next
                        // append so the sweep sees a live clone.
                        let pinned = pool.page(buf, start as usize).unwrap();
                        assert_eq!(pinned[0][0], Scalar::Int(base + start * 2));
                        pool.append(buf, Vec::new()).unwrap();
                        // The pinned clone must still read back intact even
                        // after other workers forced evictions.
                        assert_eq!(pinned[1][0], Scalar::Int(base + start * 2 + 1));
                    }
                    // Full scan faults everything back bit-identical.
                    let t = pool.to_table(buf).unwrap();
                    assert_eq!(t.len(), 12);
                    for (i, row) in t.rows().iter().enumerate() {
                        assert_eq!(row[0], Scalar::Int(base + i as i64));
                    }
                });
            }
        });
        let c = pool.counters();
        assert_eq!(c.pages_appended, 24);
        assert!(c.spilled(), "{c:?}");
        // Every eviction matched a real resident page: reload traffic
        // can't exceed spill-backed faults, and nothing was lost.
        for &buf in &ids {
            assert_eq!(pool.rows(buf), 12);
        }
    }
}
