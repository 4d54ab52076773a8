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
//! — up to the first stateful operator, across activity boundaries and
//! through every `∪` — is fused into its [`Program`] and runs there, per
//! borrowed row. A [`Union`] runs no link itself: its own count and each
//! link above it go to both of its inputs (σ(A ∪ B) = σ(A) ∪ σ(B), the
//! DIS transition's law). The one allocation a surviving row pays happens
//! when `next_batch` hands it over; a consumer that only reads its input
//! (`γ`, the right side of − / ∩, the drain of a dangling activity) pulls
//! `lend_batch` instead, a union forwards that to its inputs, and the scan
//! allocates nothing. Everything else owns its batches, edits them in
//! place ([`Apply`]) and lends from them.
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
    /// allocates nothing, a union lends what its inputs lend, everything
    /// else lends from the batch it owns.
    fn lend_batch(&mut self, rt: &mut Runtime<'_>, sink: &mut RowSink<'_>) -> Result<bool> {
        let Some(batch) = self.next_batch(rt)? else {
            return Ok(false);
        };
        batch.iter().try_for_each(|row| sink(row))?;
        Ok(true)
    }
    /// Offer the row-wise link directly above this iterator. A scan that
    /// reads rows it does not own takes it (`None`) and runs it before
    /// allocating; a union takes it and offers it to both of its inputs;
    /// everything else hands the link back.
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

/// One row-wise activity: the compiled operator, its output schema, and
/// the stats key it reports under.
#[derive(Clone)]
pub(crate) struct Link {
    op: Kernel,
    schema: Schema,
    key: String,
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
    /// Per link of the program: its activity's stats key.
    keys: Vec<String>,
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
            rt.add_processed(&keys[i], processed);
            rt.add_out(&keys[i], passed);
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
            let all = if program.keeps_all() { rows.len() } else { 0 };
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
        self.keys.push(link.key);
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
        rt.add_out(&self.link.key, batch.len() as u64);
        Ok(Some(batch))
    }
}

/// Keep-first filtering with a seen-set persisted across batches: `PK`
/// (key columns) and `DD` (whole rows).
struct KeepFirst {
    inner: BoxIter,
    seen: keyed::KeepFirst,
    key: String,
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
        rt.add_out(&self.key, batch.len() as u64);
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
        rt.add_out(&self.key, batch.len() as u64);
        Ok(Some(batch))
    }
}

/// Build the operator of one unary activity over `input`, reporting
/// under `key`: a row-wise link is fused into `input` when it reads rows
/// it does not own.
pub(crate) fn unary_pipeline(
    op: &UnaryOp,
    input: BoxIter,
    key: &str,
    ctx: &ExecCtx<'_>,
) -> Result<BoxIter> {
    let key = key.to_owned();
    let (plan, schema) = LinkPlan::compile(op, input.schema(), ctx)?;
    Ok(match plan {
        LinkPlan::KeepFirst(cols) => Box::new(KeepFirst {
            inner: input,
            seen: keyed::KeepFirst::new(cols),
            key,
            schema,
        }),
        LinkPlan::Aggregate(state) => Box::new(Agg {
            inner: input,
            state: *state,
            out: None,
            key,
        }),
        LinkPlan::RowWise(op) => fused(input, Link { op, schema, key }),
    })
}

/// `input` running `link`: fused into it when it takes the link, an
/// [`Apply`] over its owned batches otherwise.
fn fused(mut input: BoxIter, link: Link) -> BoxIter {
    match input.fuse(link) {
        None => input,
        Some(link) => Box::new(Apply { inner: input, link }),
    }
}

/// Bag union: every left batch, then every right batch (reordered to the
/// left layout at build time) — the exact row order of the materializing
/// union. It runs no link of its own: its count and every row-wise link
/// above it are pushed into both sides, so a row some link drops is
/// dropped below the `∪`, and a side that reads rows it does not own lends
/// them through it.
struct Union {
    /// Left, then right; `sides[at]` is the one being read.
    sides: Vec<BoxIter>,
    at: usize,
    schema: Schema,
}

impl Union {
    /// Run `link` on every side: fused into a side that takes it, as an
    /// [`Apply`] over the owned batches of one that does not.
    fn push(&mut self, link: Link) {
        self.sides = std::mem::take(&mut self.sides)
            .into_iter()
            .map(|side| fused(side, link.clone()))
            .collect();
        self.schema = link.schema;
    }
}

impl BatchIter for Union {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        while let Some(side) = self.sides.get_mut(self.at) {
            if let Some(batch) = side.next_batch(rt)? {
                return Ok(Some(batch));
            }
            self.at += 1;
        }
        Ok(None)
    }

    fn lend_batch(&mut self, rt: &mut Runtime<'_>, sink: &mut RowSink<'_>) -> Result<bool> {
        while let Some(side) = self.sides.get_mut(self.at) {
            if side.lend_batch(rt, sink)? {
                return Ok(true);
            }
            self.at += 1;
        }
        Ok(false)
    }

    fn fuse(&mut self, link: Link) -> Option<Link> {
        self.push(link);
        None
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
        BinaryOp::Union => {
            let mut union = Union {
                sides: vec![left, reorder(right, &lschema)?],
                at: 0,
                schema: schema.clone(),
            };
            // The union's own count: a link that keeps every row.
            union.push(Link {
                op: Kernel::pass(),
                schema,
                key: key.to_owned(),
            });
            Ok(Box::new(union))
        }
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
