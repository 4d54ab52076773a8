//! Batch iterators: the pull-based operator pipeline of the streaming
//! backend.
//!
//! Every operator is a [`BatchIter`]: pulling `next_batch` pulls input
//! batches from its child, transforms them, and counts the same
//! per-activity statistics the materializing executor counts — so both
//! backends report bit-identical [`crate::executor::ExecStats`]. Row-wise
//! operators are compiled [`Kernel`]s; stateful operators (key checks,
//! dedup, aggregation, the binary ops) carry a [`super::keyed`] state
//! machine across batches, draining a side through the buffer pool where
//! the materializing path would hold a whole table.
//!
//! A batch is owned by whoever pulled it, and a row is allocated only
//! where an operator must own it. [`Scan`] reads rows it does not own (a
//! catalog or cached table, a pool page) and every row-wise link above it
//! — up to the first stateful operator, across activity boundaries — is
//! fused into its [`Program`] and runs there, per borrowed row. The one
//! allocation a surviving row pays happens when `next_batch` hands it
//! over; a consumer that only reads its input (`γ`, the right side of
//! − / ∩, the drain of a dangling activity) pulls `lend_batch` instead
//! and the scan allocates nothing. Everything that is not a scan owns its
//! batches, edits them in place ([`Apply`]) and lends from them.
//!
//! `counters.batches` counts batches *born* into a pipeline: table scans,
//! buffer re-reads, and aggregate output emissions. Transformed batches
//! flowing through row-wise operators are not re-counted.
//!
//! This pull pipeline is the engine's one streaming executor: every run
//! is single-threaded, whatever `StreamConfig::parallelism` says.

use std::sync::Arc;

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::Schema;
use etlopt_core::semantics::{BinaryOp, UnaryOp};

use crate::error::{EngineError, Result};
use crate::ops::{self, ExecCtx};
use crate::pool::BufferId;
use crate::table::{Row, Table};

use super::kernel::{perm_for, permute, Kernel, LinkPlan, Program};
use super::keyed::{self, BagCounts, BuildProbe, GroupBy};
use super::Runtime;

/// One streaming operator: a pull-based producer of row batches.
pub(crate) trait BatchIter {
    /// The schema of every batch this iterator emits.
    fn schema(&self) -> &Schema;
    /// Produce the next batch, or `None` once exhausted.
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>>;
    /// `next_batch` for a consumer that only reads its input: the batch's
    /// rows are lent to `sink` one by one instead of handed over; `false`
    /// once exhausted. A scan lends its stored or scratch row and
    /// allocates nothing; everything else lends from the batch it owns.
    fn lend_batch(&mut self, rt: &mut Runtime<'_>, sink: &mut RowSink<'_>) -> Result<bool> {
        let Some(batch) = self.next_batch(rt)? else {
            return Ok(false);
        };
        batch.iter().try_for_each(|row| sink(row))?;
        Ok(true)
    }
    /// Offer the row-wise link directly above this iterator. An iterator
    /// that reads rows it does not own takes it (`None`) and runs it
    /// before allocating; everything else hands the link back.
    fn fuse(&mut self, link: Link) -> Option<Link> {
        Some(link)
    }
}

/// What `lend_batch` lends rows to.
pub(crate) type RowSink<'s> = dyn FnMut(&[Scalar]) -> Result<()> + 's;

/// Lend every remaining row of `iter` to `each`; how many there were.
pub(crate) fn lend_all(
    iter: &mut dyn BatchIter,
    rt: &mut Runtime<'_>,
    mut each: impl FnMut(&[Scalar]) -> Result<()>,
) -> Result<u64> {
    let mut rows = 0;
    let mut sink = |row: &[Scalar]| {
        rows += 1;
        each(row)
    };
    while iter.lend_batch(rt, &mut sink)? {}
    Ok(rows)
}

/// A boxed operator in a pipeline.
pub(crate) type BoxIter = Box<dyn BatchIter>;

fn internal(reason: impl Into<String>) -> EngineError {
    EngineError::FunctionFailed {
        function: "exec::stream".into(),
        reason: reason.into(),
    }
}

/// One row-wise link of an activity's chain: the compiled operator, its
/// output schema, and the stats it reports under the activity's key.
pub(crate) struct Link {
    op: Kernel,
    schema: Schema,
    key: String,
    counts_out: bool,
}

/// The rows a [`Scan`] reads. It owns none of them.
enum Source {
    /// A catalog table or a cache hit, `batch_rows` rows per pull.
    Table { table: Arc<Table>, pos: usize },
    /// A pool buffer, re-read page-at-a-time (each appended batch is one
    /// page, so pages come back in the granularity they were drained at).
    Buffer { buf: BufferId, page: usize },
}

/// The leaf of every pipeline: reads borrowed rows and runs the row-wise
/// links fused into it on them. What survives is allocated once, or not
/// at all when the consumer only borrows it.
pub(crate) struct Scan {
    source: Source,
    schema: Schema,
    program: Program,
    /// Per link of the program: its activity's stats key and whether it
    /// is the link that reports `rows_out`.
    keys: Vec<(String, bool)>,
}

impl Scan {
    /// Scan `table` presented under `declared` (reference attribute names
    /// and order); the permutation is resolved here, once.
    pub(crate) fn table(table: Arc<Table>, declared: &Schema) -> Result<Scan> {
        Ok(Scan {
            program: Program::new(perm_for(table.schema(), declared)?, 0),
            source: Source::Table { table, pos: 0 },
            schema: declared.clone(),
            keys: Vec::new(),
        })
    }

    pub(crate) fn buffer(buf: BufferId, schema: Schema) -> Scan {
        Scan {
            source: Source::Buffer { buf, page: 0 },
            schema,
            program: Program::new(None, 0),
            keys: Vec::new(),
        }
    }

    /// Run `each` over the next batch of borrowed rows, then report the
    /// program's tallies; `None` once the source is exhausted.
    fn over_batch<R>(
        &mut self,
        rt: &mut Runtime<'_>,
        each: impl FnOnce(&mut Program, &[Row]) -> Result<R>,
    ) -> Result<Option<R>> {
        let page;
        let rows: &[Row] = match &mut self.source {
            Source::Table { table, pos } => {
                let start = *pos;
                *pos = (start + rt.batch_rows).min(table.len());
                &table.rows()[start..*pos]
            }
            Source::Buffer { buf, page: next } => {
                if *next >= rt.pool.pages(*buf) {
                    return Ok(None);
                }
                page = rt.pool.page(*buf, *next)?;
                *next += 1;
                page.as_slice()
            }
        };
        if rows.is_empty() {
            return Ok(None);
        }
        rt.counters.batches += 1;
        rt.counters.rows_scanned += rows.len() as u64;
        let out = each(&mut self.program, rows)?;
        let keys = &self.keys;
        self.program.drain_tallies(|i, processed, passed| {
            let (key, counts_out) = &keys[i];
            rt.add_processed(key, processed);
            if *counts_out {
                rt.add_out(key, passed);
            }
        });
        Ok(Some(out))
    }
}

impl BatchIter for Scan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let batch = self.over_batch(rt, |program, rows| {
            let all = if program.is_empty() { rows.len() } else { 0 };
            let mut batch = Vec::with_capacity(all);
            for row in rows {
                if let Some(lent) = program.run(row)? {
                    batch.push(lent.into_row());
                }
            }
            Ok(batch)
        })?;
        rt.counters.rows_materialized += batch.as_ref().map_or(0, |b| b.len() as u64);
        Ok(batch)
    }

    fn lend_batch(&mut self, rt: &mut Runtime<'_>, sink: &mut RowSink<'_>) -> Result<bool> {
        let lent = self.over_batch(rt, |program, rows| {
            for row in rows {
                if let Some(lent) = program.run(row)? {
                    sink(lent.cells())?;
                }
            }
            Ok(())
        })?;
        Ok(lent.is_some())
    }

    fn fuse(&mut self, link: Link) -> Option<Link> {
        // Links are compiled against the declared layout and their leading
        // filters read stored rows, so a permuting scan keeps its links
        // above it.
        if self.program.permutes() {
            return Some(link);
        }
        self.program.push(link.op);
        self.keys.push((link.key, link.counts_out));
        self.schema = link.schema;
        None
    }
}

/// Column permutation (recordset nodes present their provider's output
/// under the recordset's declared schema).
struct Reorder {
    inner: BoxIter,
    perm: Vec<usize>,
    schema: Schema,
}

impl BatchIter for Reorder {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let Some(mut batch) = self.inner.next_batch(rt)? else {
            return Ok(None);
        };
        batch.iter_mut().for_each(|row| permute(row, &self.perm));
        Ok(Some(batch))
    }
}

/// Wrap `inner` so its batches come out in `target` column order; a no-op
/// when the schema already matches.
pub(crate) fn reorder(inner: BoxIter, target: &Schema) -> Result<BoxIter> {
    let Some(perm) = perm_for(inner.schema(), target)? else {
        return Ok(inner);
    };
    Ok(Box::new(Reorder {
        inner,
        perm,
        schema: target.clone(),
    }))
}

/// A row-wise link over an owned batch: the kernel edits it in place.
struct Apply {
    inner: BoxIter,
    link: Link,
}

impl BatchIter for Apply {
    fn schema(&self) -> &Schema {
        &self.link.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let Some(mut batch) = self.inner.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.link.key, batch.len() as u64);
        self.link.op.apply(&mut batch)?;
        if self.link.counts_out {
            rt.add_out(&self.link.key, batch.len() as u64);
        }
        Ok(Some(batch))
    }
}

/// Keep-first filtering with a seen-set persisted across batches: `PK`
/// (key columns) and `DD` (whole rows).
struct KeepFirst {
    inner: BoxIter,
    seen: keyed::KeepFirst,
    key: String,
    counts_out: bool,
    schema: Schema,
}

impl BatchIter for KeepFirst {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let Some(mut batch) = self.inner.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.key, batch.len() as u64);
        self.seen.retain(&mut batch);
        if self.counts_out {
            rt.add_out(&self.key, batch.len() as u64);
        }
        Ok(Some(batch))
    }
}

/// Streaming aggregation: folds every input batch into bounded
/// accumulator state (one entry per group), then emits the result in
/// batches. The only buffered data is the group table itself.
struct Agg {
    inner: BoxIter,
    state: GroupBy,
    /// The drained groups, once the input is folded.
    out: Option<std::vec::IntoIter<Row>>,
    key: String,
    counts_out: bool,
}

impl BatchIter for Agg {
    fn schema(&self) -> &Schema {
        self.state.output_schema()
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if self.out.is_none() {
            let state = &mut self.state;
            let fed = lend_all(&mut *self.inner, rt, |row| state.feed_row(row))?;
            rt.add_processed(&self.key, fed);
        }
        let it = self
            .out
            .get_or_insert_with(|| self.state.finish().into_iter());
        let batch: Vec<Row> = it.by_ref().take(rt.batch_rows).collect();
        if batch.is_empty() {
            return Ok(None);
        }
        rt.counters.batches += 1;
        if self.counts_out {
            rt.add_out(&self.key, batch.len() as u64);
        }
        Ok(Some(batch))
    }
}

/// Counts `rows_out` only — stands in for an empty merged chain, whose
/// materializing counterpart emits its input unchanged but still records
/// the output cardinality.
struct Tally {
    inner: BoxIter,
    key: String,
}

impl BatchIter for Tally {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let Some(batch) = self.inner.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_out(&self.key, batch.len() as u64);
        Ok(Some(batch))
    }
}

/// Build a pipeline of unary links under one activity key: every link
/// counts `rows_processed` (matching how `ops::exec_chain` prices merged
/// chains per link), only the last counts `rows_out`.
pub(crate) fn unary_pipeline(
    chain: &[UnaryOp],
    input: BoxIter,
    key: &str,
    ctx: &ExecCtx<'_>,
) -> Result<BoxIter> {
    if chain.is_empty() {
        return Ok(Box::new(Tally {
            inner: input,
            key: key.to_owned(),
        }));
    }
    let mut cur = input;
    let last = chain.len() - 1;
    for (i, op) in chain.iter().enumerate() {
        let counts_out = i == last;
        let key = key.to_owned();
        let (plan, schema) = LinkPlan::compile(op, cur.schema(), ctx)?;
        cur = match plan {
            LinkPlan::KeepFirst(cols) => Box::new(KeepFirst {
                inner: cur,
                seen: keyed::KeepFirst::new(cols),
                key,
                counts_out,
                schema,
            }),
            LinkPlan::Aggregate(state) => Box::new(Agg {
                inner: cur,
                state: *state,
                out: None,
                key,
                counts_out,
            }),
            LinkPlan::RowWise(op) => {
                let link = Link {
                    op,
                    schema,
                    key,
                    counts_out,
                };
                match cur.fuse(link) {
                    None => cur,
                    Some(link) => Box::new(Apply { inner: cur, link }),
                }
            }
        };
    }
    Ok(cur)
}

/// Bag union: every left batch, then every right batch (reordered to the
/// left layout at build time) — the exact row order of the materializing
/// union.
struct Union {
    left: BoxIter,
    right: BoxIter,
    left_done: bool,
    key: String,
    schema: Schema,
}

impl BatchIter for Union {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if !self.left_done {
            if let Some(batch) = self.left.next_batch(rt)? {
                rt.add_processed(&self.key, batch.len() as u64);
                rt.add_out(&self.key, batch.len() as u64);
                return Ok(Some(batch));
            }
            self.left_done = true;
        }
        let Some(batch) = self.right.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.key, batch.len() as u64);
        rt.add_out(&self.key, batch.len() as u64);
        Ok(Some(batch))
    }
}

/// Streaming hash join: the build (right) side drains into a pool buffer
/// plus a key → row-position index on the first pull, then probe (left)
/// batches stream through, fetching matches back via random row access —
/// so the build side is frame-budget-bounded, not memory-resident.
struct HashJoin {
    left: BoxIter,
    right: Option<BoxIter>,
    /// Where the build side was drained to, once it was.
    buf: Option<BufferId>,
    index: BuildProbe,
    /// Right columns appended to matched left rows.
    extra: Vec<usize>,
    key: String,
    schema: Schema,
}

impl BatchIter for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if let Some(mut right) = self.right.take() {
            let buf = rt.pool.create(right.schema().clone());
            self.buf = Some(buf);
            let mut base = 0usize;
            while let Some(batch) = right.next_batch(rt)? {
                rt.add_processed(&self.key, batch.len() as u64);
                for (i, row) in batch.iter().enumerate() {
                    self.index.insert(row, base + i);
                }
                base += batch.len();
                rt.pool.append(buf, batch)?;
            }
        }
        let buf = self
            .buf
            .ok_or_else(|| internal("join probed before build"))?;
        let Some(lbatch) = self.left.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.key, lbatch.len() as u64);
        let mut out = Vec::new();
        for lrow in &lbatch {
            for &ri in self.index.probe(lrow) {
                let mut row = Vec::with_capacity(lrow.len() + self.extra.len());
                row.extend_from_slice(lrow);
                rt.pool.append_cells(buf, ri, &self.extra, &mut row)?;
                out.push(row);
            }
        }
        rt.add_out(&self.key, out.len() as u64);
        Ok(Some(out))
    }
}

/// Bag difference / intersection: the right side (keyed through its
/// permutation to the left layout) is lent into a multiplicity map on the
/// first pull, then left batches stream through cancelling against it.
struct DiffIntersect {
    left: BoxIter,
    right: Option<BoxIter>,
    counts: BagCounts,
    intersect: bool,
    key: String,
    schema: Schema,
}

impl BatchIter for DiffIntersect {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if let Some(mut right) = self.right.take() {
            let counted = lend_all(&mut *right, rt, |row| {
                self.counts.add(row);
                Ok(())
            })?;
            rt.add_processed(&self.key, counted);
        }
        let Some(mut batch) = self.left.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.key, batch.len() as u64);
        batch.retain(|row| self.counts.cancel(row) == self.intersect);
        rt.add_out(&self.key, batch.len() as u64);
        Ok(Some(batch))
    }
}

/// Build the streaming counterpart of one binary activity. The operator is
/// probed with empty inputs first, so schema validation and output-schema
/// derivation go through the exact materializing code path.
pub(crate) fn binary_pipeline(
    op: &BinaryOp,
    left: BoxIter,
    right: BoxIter,
    key: &str,
) -> Result<BoxIter> {
    let lschema = left.schema().clone();
    let rschema = right.schema().clone();
    let schema = ops::exec_binary(
        op,
        &Table::empty(lschema.clone()),
        &Table::empty(rschema.clone()),
    )?
    .schema()
    .clone();
    match op {
        BinaryOp::Union => Ok(Box::new(Union {
            left,
            right: reorder(right, &lschema)?,
            left_done: false,
            key: key.to_owned(),
            schema,
        })),
        BinaryOp::Join(on) => {
            let (index, extra) = BuildProbe::plan(on, &lschema, &rschema)?;
            Ok(Box::new(HashJoin {
                left,
                buf: None,
                right: Some(right),
                index,
                extra,
                key: key.to_owned(),
                schema,
            }))
        }
        BinaryOp::Difference | BinaryOp::Intersection => Ok(Box::new(DiffIntersect {
            left,
            counts: BagCounts::new(perm_for(&rschema, &lschema)?),
            right: Some(right),
            intersect: matches!(op, BinaryOp::Intersection),
            key: key.to_owned(),
            schema,
        })),
    }
}
