//! Pipelined partition-parallel streaming execution.
//!
//! Above `parallelism = 1` (with `StreamConfig::pipeline` on, the
//! default) the streaming backend runs a **pipelined** partitioned plan:
//!
//! * **Segments, not rounds.** Planning collapses each maximal
//!   exchange-free run of unary links into one *segment task*. A
//!   segment's N partition workers are long-lived threads: rows flow
//!   feeder → link → link → staging through bounded channels
//!   ([`super::channel`], capacity `StreamConfig::channel_batches`)
//!   with no coordinator barrier between links. The coordinator
//!   re-enters only at exchange points, fan-in merges, and
//!   materialization boundaries — exactly the places the determinism
//!   contract already forces a rendezvous.
//! * **Concurrent DAG branches.** A dependency-counted scheduler
//!   launches every task whose inputs are staged, so independent
//!   branches (the two legs of a join, the parallel chains of a
//!   butterfly workflow) overlap instead of executing in topo sequence.
//! * **Bounded residency.** Inter-segment partition sets never live in
//!   coordinator `Vec`s: workers stage their output through the sharded
//!   [`BufferPool`] (spill-eligible, pin-on-read pages), and downstream
//!   tasks stream them back page-at-a-time. `ExecCounters` records the
//!   staged-page traffic and the pipeline-depth telemetry.
//!
//! # The determinism contract
//!
//! Targets, row order, and [`ExecStats`] must stay **bit-identical** to
//! the sequential stream at every thread count and channel capacity.
//! The machinery is shared with the round-synchronous backend
//! ([`super::roundsync`]):
//!
//! 1. **Order tags.** Every row carries a `u64` tag recording its
//!    position in the node's sequential output order. Staged partitions
//!    persist the tag as a hidden leading column; every channel batch
//!    and staged part is tag-ascending, so a k-way merge by tag at any
//!    fan-in reconstructs the exact sequential order. Keep-first
//!    operators keep the minimum tag per key, aggregation tags each
//!    group with its first-seen input tag, joins compose
//!    `(left tag, right tag)` lexicographically before re-densifying.
//! 2. **Co-location.** Planning tracks each edge's partitioning
//!    [`Scheme`]; where a keyed link's requirement is unprovable the
//!    segment is split and an exchange feeder re-routes rows by
//!    [`keyed::route`], the hash of their typed key bytes. The exchange
//!    feeder emits the
//!    k-way tag-merge of the upstream parts in *global* tag order, so
//!    every destination channel is tag-ascending by construction — and
//!    being the sole producer of all N channels, it can never deadlock
//!    against the bounded capacities.
//! 3. **Deterministic absorption.** Workers never touch shared
//!    counters: each task absorbs its workers' tallies in
//!    partition-index order, and the scheduler folds task deltas with
//!    commutative operations (sums, maxes, element-wise lane sums), so
//!    completion order cannot leak into `ExecStats` or the trace.
//!    Residency counters (spills, evictions, peak frames) remain
//!    schedule-dependent telemetry — nothing compares them bit-wise.
//!
//! Worker panics are converted into typed
//! [`EngineError::WorkerPanicked`] errors: a panicking worker drops its
//! channel receiver, which wakes any feeder blocked on the bounded
//! queue, so poisoned runs fail fast instead of deadlocking.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock};

use etlopt_core::activity::Op;
use etlopt_core::error::CoreError;
use etlopt_core::graph::{Graph, Node, NodeId};
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{Aggregation, BinaryOp, UnaryOp};
use etlopt_core::trace::ExecCounters;
use etlopt_core::workflow::Workflow;

use crate::error::{EngineError, Result};
use crate::executor::{ExecResult, ExecStats};
use crate::ops::{self, ExecCtx};
use crate::pool::{BufferId, BufferPool, PoolConfig};
use crate::table::{Row, Table};

use super::channel::{self, ChannelStats, Receiver, Sender};
use super::kernel::{cols_of, perm_for, permute, Kernel};
use super::keyed::{self, BagCounts, BuildProbe, GroupBy};
use super::{add, plan_cache, seeded_stats, CachePlan, SharedCache, StreamConfig, StreamRun};

/// A row plus its sequential-order tag.
pub(super) type Tagged = (u64, Row);

pub(super) fn internal(reason: impl Into<String>) -> EngineError {
    EngineError::FunctionFailed {
        function: "exec::partition".into(),
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Partitioning scheme and routed row sets
// ---------------------------------------------------------------------

/// How a set of partitioned rows is distributed across partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Scheme {
    /// Hash-partitioned on the listed attributes: two rows agreeing on
    /// them are guaranteed to share a partition.
    Keys(Vec<Attr>),
    /// No co-location guarantee (round-robin source distribution, or a
    /// key-breaking operator ran).
    Arbitrary,
}

impl Scheme {
    /// Does this scheme co-locate rows that agree on `req`? Hashing on a
    /// *subset* of the required keys suffices: equal `req`-values imply
    /// equal subset-values, hence the same partition.
    pub(super) fn colocates(&self, req: &[Attr]) -> bool {
        match self {
            Scheme::Keys(s) => s.iter().all(|a| req.contains(a)),
            Scheme::Arbitrary => false,
        }
    }

    /// Is this any key-based scheme (co-locates identical whole rows)?
    pub(super) fn is_keys(&self) -> bool {
        matches!(self, Scheme::Keys(_))
    }
}

/// One node output, split across partitions in coordinator memory (the
/// round-synchronous backend's representation; the pipelined backend
/// stages through the pool instead — see [`StagedSet`]). Every
/// partition's rows are tag-ascending; the tag space is node-local.
#[derive(Debug, Clone)]
pub(super) struct PartSet {
    pub(super) schema: Schema,
    pub(super) scheme: Scheme,
    pub(super) parts: Vec<Vec<Tagged>>,
}

pub(super) fn set_rows(set: &PartSet) -> u64 {
    set.parts.iter().map(|p| p.len() as u64).sum()
}

pub(super) fn max_tag(set: &PartSet) -> Option<u64> {
    set.parts
        .iter()
        .filter_map(|p| p.last().map(|(t, _)| *t))
        .max()
}

/// Co-location demanded by a keyed operator.
pub(super) enum Require {
    /// Equal values of these attributes must share a partition.
    Keys(Vec<Attr>),
    /// Identical whole rows must share a partition (any key scheme works).
    WholeRow,
}

// ---------------------------------------------------------------------
// Scoped worker fan-out
// ---------------------------------------------------------------------

/// Render a panic payload as the detail of a typed worker error.
pub(super) fn panicked(partition: usize, payload: &(dyn std::any::Any + Send)) -> EngineError {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    EngineError::WorkerPanicked { partition, detail }
}

/// Run `f(partition_index)` for every partition on scoped threads and
/// return the results in partition order. A panicking worker is caught
/// and converted into [`EngineError::WorkerPanicked`] instead of
/// poisoning the scope join. When several workers fail, the lowest
/// partition index wins — deterministic at any thread count.
pub(super) fn per_part<R, F>(nparts: usize, f: F) -> Result<Vec<R>>
where
    R: Send + Sync,
    F: Fn(usize) -> Result<R> + Sync,
{
    let slots: Vec<OnceLock<Result<R>>> = (0..nparts).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        let f = &f;
        for (i, slot) in slots.iter().enumerate() {
            scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| f(i)))
                    .unwrap_or_else(|p| Err(panicked(i, p.as_ref())));
                let _ = slot.set(r);
            });
        }
    });
    let mut out = Vec::with_capacity(nparts);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner() {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            None => return Err(internal(format!("partition worker {i} produced no result"))),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Merge / exchange (in-memory variants, shared with roundsync)
// ---------------------------------------------------------------------

/// K-way merge of tag-ascending lanes into one tag-ascending vector.
/// Tags are unique across lanes, so the merge is a total order.
pub(super) fn merge_tagged(lanes: Vec<Vec<Tagged>>) -> Vec<Tagged> {
    let total = lanes.iter().map(Vec::len).sum();
    let mut src: Vec<VecDeque<Tagged>> = lanes.into_iter().map(Into::into).collect();
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (i, q) in src.iter().enumerate() {
            if let Some((tag, _)) = q.front() {
                if best.is_none_or(|(bt, _)| *tag < bt) {
                    best = Some((*tag, i));
                }
            }
        }
        let Some((_, i)) = best else { break };
        if let Some(t) = src[i].pop_front() {
            out.push(t);
        }
    }
    out
}

/// Merge a set back into sequential row order, dropping the tags.
pub(super) fn merge_rows(set: PartSet) -> Vec<Row> {
    merge_tagged(set.parts)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// Replace wide (composite) join tags with dense `u64` tags in global
/// composite order, keeping each row in its partition.
pub(super) fn retag_dense(parts: Vec<Vec<(u128, Row)>>) -> Vec<Vec<Tagged>> {
    let mut out: Vec<Vec<Tagged>> = parts.iter().map(|p| Vec::with_capacity(p.len())).collect();
    let mut src: Vec<VecDeque<(u128, Row)>> = parts.into_iter().map(Into::into).collect();
    let mut next = 0u64;
    loop {
        let mut best: Option<(u128, usize)> = None;
        for (i, q) in src.iter().enumerate() {
            if let Some((tag, _)) = q.front() {
                if best.is_none_or(|(bt, _)| *tag < bt) {
                    best = Some((*tag, i));
                }
            }
        }
        let Some((_, i)) = best else { break };
        if let Some((_, row)) = src[i].pop_front() {
            out[i].push((next, row));
            next += 1;
        }
    }
    out
}

/// The in-memory exchange operator: re-route every row by
/// [`keyed::route`], preserving tags (so partitions stay
/// tag-ascending). Worker `j` scans all source partitions and keeps the
/// rows destined for itself; the per-source selections merge by tag.
pub(super) fn exchange(
    set: &PartSet,
    keys: &[Attr],
    nparts: usize,
    counters: &mut ExecCounters,
) -> Result<PartSet> {
    let cols = cols_of(keys, &set.schema)?;
    let parts = per_part(nparts, |j| {
        let mut key = Vec::new();
        let lanes: Vec<Vec<Tagged>> = set
            .parts
            .iter()
            .map(|src| {
                src.iter()
                    .filter(|(_, row)| keyed::route(&mut key, row, &cols, nparts) == j)
                    .cloned()
                    .collect()
            })
            .collect();
        Ok(merge_tagged(lanes))
    })?;
    for (j, part) in parts.iter().enumerate() {
        counters.worker_rows[j] += part.len() as u64;
    }
    Ok(PartSet {
        schema: set.schema.clone(),
        scheme: Scheme::Keys(keys.to_vec()),
        parts,
    })
}

/// Split a source table round-robin across partitions, tagging rows with
/// their table order.
pub(super) fn distribute(table: Table, nparts: usize, counters: &mut ExecCounters) -> PartSet {
    let schema = table.schema().clone();
    let mut parts: Vec<Vec<Tagged>> = vec![Vec::new(); nparts];
    for (i, row) in table.into_rows().into_iter().enumerate() {
        let j = i % nparts;
        parts[j].push((i as u64, row));
        counters.worker_rows[j] += 1;
    }
    PartSet {
        schema,
        scheme: Scheme::Arbitrary,
        parts,
    }
}

/// Permute every partition's rows into `target` column order (recordset
/// nodes present their provider under the declared schema). Tags and
/// scheme are untouched — attributes keep their names.
pub(super) fn reorder_set(set: PartSet, target: &Schema) -> Result<PartSet> {
    let Some(perm) = perm_for(&set.schema, target)? else {
        return Ok(set);
    };
    let mut parts = set.parts;
    for (_, row) in parts.iter_mut().flatten() {
        permute(row, &perm);
    }
    Ok(PartSet {
        schema: target.clone(),
        scheme: set.scheme,
        parts,
    })
}

// ---------------------------------------------------------------------
// Unary chain link planning (shared with roundsync)
// ---------------------------------------------------------------------

/// The per-partition execution plan of one chain link.
pub(super) enum LinkPlan {
    /// Keep the first (minimum-tag) row per key: `Some(cols)` for the PK
    /// check, `None` for whole-row dedup.
    KeepFirst(Option<Vec<usize>>),
    /// Partitioned group-by aggregation.
    Aggregate(Aggregation),
    /// A row-wise operator (σ, NN, function, π-out, ADD, SK) compiled
    /// against the link's input schema; tags pass through untouched.
    RowWise { op: UnaryOp, kernel: Kernel },
}

/// One planned chain link: its execution plan, schemas, and the
/// co-location it demands.
pub(super) struct Link {
    pub(super) plan: LinkPlan,
    pub(super) in_schema: Schema,
    pub(super) out_schema: Schema,
    pub(super) require: Option<Require>,
}

/// Plan every link of a unary chain up front — probing each operator
/// against an empty table exactly like the sequential
/// `stream::unary_pipeline` does — so schema errors surface before any
/// data moves, in the same order the sequential backend raises them.
pub(super) fn plan_chain(
    chain: &[UnaryOp],
    input_schema: &Schema,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<Link>> {
    let mut links = Vec::with_capacity(chain.len());
    let mut cur = input_schema.clone();
    for op in chain {
        let (plan, out_schema, require) = match op {
            UnaryOp::PkCheck { key, .. } => (
                LinkPlan::KeepFirst(Some(cols_of(key, &cur)?)),
                cur.clone(),
                Some(Require::Keys(key.clone())),
            ),
            UnaryOp::Dedup { .. } => (
                LinkPlan::KeepFirst(None),
                cur.clone(),
                Some(Require::WholeRow),
            ),
            UnaryOp::Aggregate { agg, .. } => (
                LinkPlan::Aggregate(agg.clone()),
                GroupBy::new(agg, &cur)?.output_schema().clone(),
                Some(Require::Keys(agg.group_by.clone())),
            ),
            op => {
                let (kernel, out) = Kernel::compile(op, &cur, ctx)?;
                let op = op.clone();
                (LinkPlan::RowWise { op, kernel }, out, None)
            }
        };
        links.push(Link {
            plan,
            in_schema: cur.clone(),
            out_schema: out_schema.clone(),
            require,
        });
        cur = out_schema;
    }
    Ok(links)
}

/// How a link transforms the partitioning scheme. Soundness, not
/// precision: a preserved `Keys` claim must actually still co-locate;
/// degrading to `Arbitrary` merely forces a later exchange.
pub(super) fn scheme_after(plan: &LinkPlan, scheme: Scheme) -> Scheme {
    let Scheme::Keys(keys) = scheme else {
        return Scheme::Arbitrary;
    };
    let broken = match plan {
        // Keep-first never moves or rewrites columns.
        LinkPlan::KeepFirst(_) => false,
        // Group rows keep their groupers' values; other columns vanish.
        LinkPlan::Aggregate(agg) => !keys.iter().all(|k| agg.group_by.contains(k)),
        LinkPlan::RowWise { op, .. } => match op {
            UnaryOp::ProjectOut(attrs) => keys.iter().any(|k| attrs.contains(k)),
            UnaryOp::AddField { attr, .. } => keys.contains(attr),
            UnaryOp::Function(f) => {
                keys.contains(&f.output)
                    || (!f.keep_inputs && f.inputs.iter().any(|a| keys.contains(a)))
            }
            UnaryOp::SurrogateKey { key, surrogate, .. } => {
                keys.contains(key) || keys.contains(surrogate)
            }
            // Row filters never move or rewrite columns.
            _ => false,
        },
    };
    if broken {
        Scheme::Arbitrary
    } else {
        Scheme::Keys(keys)
    }
}

/// Execute one planned link over one whole partition (the
/// round-synchronous path): the pipelined [`LinkRt`], fed one batch.
pub(super) fn apply_link(link: &Link, part: &[Tagged]) -> Result<Vec<Tagged>> {
    let mut rt = LinkRt::new(&link.plan, &link.in_schema)?;
    let mut out = rt.run(part.to_vec())?;
    out.extend(rt.finish());
    Ok(out)
}

// ---------------------------------------------------------------------
// Staged partition sets: pool-resident, spill-eligible
// ---------------------------------------------------------------------

/// Hidden leading column persisting each staged row's order tag. The
/// control character keeps it out of any plausible user attribute space;
/// staging still verifies no collision (schema construction would panic
/// on a duplicate attribute).
const TAG_ATTR: &str = "\u{1}tag";

/// Hidden columns persisting a join's `u128` composite tag as three
/// 42-bit limbs (most-significant first, so limb-wise comparison is the
/// composite comparison).
const JTAG_ATTRS: [&str; 3] = ["\u{1}t2", "\u{1}t1", "\u{1}t0"];

fn hidden_schema(hidden: &[&str], data: &Schema) -> Result<Schema> {
    for h in hidden {
        if data.contains(&Attr::new(*h)) {
            return Err(internal(format!(
                "data schema collides with reserved staging column {h:?}"
            )));
        }
    }
    Ok(hidden
        .iter()
        .map(|h| Attr::new(*h))
        .chain(data.iter().cloned())
        .collect())
}

fn tag_cell(tag: u64) -> Result<Scalar> {
    i64::try_from(tag)
        .map(Scalar::Int)
        .map_err(|_| internal("order tag overflows the staging tag cell"))
}

fn cell_tag(cell: &Scalar) -> Result<u64> {
    match cell {
        Scalar::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(internal(format!("corrupt staged tag cell: {other:?}"))),
    }
}

const JTAG_LIMB: u128 = 1 << 42;

fn jtag_cells(tag: u128) -> Result<[Scalar; 3]> {
    if tag >> 126 != 0 {
        return Err(internal("composite join tag overflows staging limbs"));
    }
    Ok([
        Scalar::Int(((tag / (JTAG_LIMB * JTAG_LIMB)) % JTAG_LIMB) as i64),
        Scalar::Int(((tag / JTAG_LIMB) % JTAG_LIMB) as i64),
        Scalar::Int((tag % JTAG_LIMB) as i64),
    ])
}

fn cells_jtag(cells: &[Scalar]) -> Result<u128> {
    let mut tag = 0u128;
    for c in cells {
        tag = tag * JTAG_LIMB + u128::from(cell_tag(c)?);
    }
    Ok(tag)
}

/// One staged partition: a pool buffer of `[tag | data...]` rows in
/// tag-ascending order, plus the metadata fan-in operators need without
/// faulting pages back in.
#[derive(Debug, Clone)]
struct StagedPart {
    buf: BufferId,
    rows: u64,
    max_tag: Option<u64>,
}

/// A task output staged through the pool: one part per partition, all
/// tag-ascending, under a shared *data* schema (the hidden tag column is
/// a storage detail). Buffer ownership is exclusive — the scheduler
/// frees parts once the last consumer finishes.
#[derive(Debug, Clone)]
struct StagedSet {
    parts: Vec<StagedPart>,
}

fn free_set(pool: &BufferPool, set: &StagedSet) {
    for p in &set.parts {
        pool.free(p.buf);
    }
}

/// Batch-building writer for one staged part. Appends page-sized chunks
/// so residency stays bounded by the pool's frame budget.
struct StageWriter<'p> {
    pool: &'p BufferPool,
    buf: BufferId,
    pending: Vec<Row>,
    batch_rows: usize,
    rows: u64,
    max_tag: Option<u64>,
    pages: u64,
}

impl<'p> StageWriter<'p> {
    fn new(pool: &'p BufferPool, data: &Schema, batch_rows: usize) -> Result<Self> {
        let schema = hidden_schema(&[TAG_ATTR], data)?;
        Ok(StageWriter {
            pool,
            buf: pool.create(schema),
            pending: Vec::new(),
            batch_rows: batch_rows.max(1),
            rows: 0,
            max_tag: None,
            pages: 0,
        })
    }

    /// A writer for join temp staging: three composite-tag limbs.
    fn composite(pool: &'p BufferPool, data: &Schema, batch_rows: usize) -> Result<Self> {
        let schema = hidden_schema(&JTAG_ATTRS, data)?;
        Ok(StageWriter {
            pool,
            buf: pool.create(schema),
            pending: Vec::new(),
            batch_rows: batch_rows.max(1),
            rows: 0,
            max_tag: None,
            pages: 0,
        })
    }

    fn push(&mut self, tag: u64, row: Row) -> Result<()> {
        let mut enc = Vec::with_capacity(1 + row.len());
        enc.push(tag_cell(tag)?);
        enc.extend(row);
        self.max_tag = Some(tag);
        self.push_enc(enc)
    }

    fn push_composite(&mut self, tag: u128, row: Row) -> Result<()> {
        let mut enc = Vec::with_capacity(3 + row.len());
        enc.extend(jtag_cells(tag)?);
        enc.extend(row);
        self.push_enc(enc)
    }

    fn push_enc(&mut self, enc: Row) -> Result<()> {
        self.pending.push(enc);
        self.rows += 1;
        if self.pending.len() >= self.batch_rows {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.pages += self
            .pool
            .append(self.buf, std::mem::take(&mut self.pending))? as u64;
        Ok(())
    }

    /// Close the writer: `(part metadata, pages written)`.
    fn finish(mut self) -> Result<(StagedPart, u64)> {
        self.flush()?;
        Ok((
            StagedPart {
                buf: self.buf,
                rows: self.rows,
                max_tag: self.max_tag,
            },
            self.pages,
        ))
    }
}

/// Streaming cursor over one staged part: faults pages in one at a time
/// (pin-on-read), so a reader's residency is one page.
struct PartReader<'p> {
    pool: &'p BufferPool,
    buf: BufferId,
    hidden: usize,
    npages: usize,
    page_idx: usize,
    page: Option<Arc<Vec<Row>>>,
    off: usize,
}

impl<'p> PartReader<'p> {
    fn new(pool: &'p BufferPool, part: &StagedPart) -> Self {
        PartReader {
            pool,
            buf: part.buf,
            hidden: 1,
            npages: pool.pages(part.buf),
            page_idx: 0,
            page: None,
            off: 0,
        }
    }

    fn composite(pool: &'p BufferPool, part: &StagedPart) -> Self {
        PartReader {
            hidden: 3,
            ..PartReader::new(pool, part)
        }
    }

    /// Current encoded row, faulting its page in if needed.
    fn cur(&mut self) -> Result<Option<&Row>> {
        loop {
            if self.page_idx >= self.npages {
                return Ok(None);
            }
            if self.page.is_none() {
                self.page = Some(self.pool.page(self.buf, self.page_idx)?);
                self.off = 0;
            }
            let len = self.page.as_ref().map_or(0, |p| p.len());
            if self.off < len {
                break;
            }
            self.page = None;
            self.page_idx += 1;
        }
        Ok(self.page.as_deref().map(|p| &p[self.off]))
    }

    fn peek_tag(&mut self) -> Result<Option<u64>> {
        match self.cur()? {
            Some(row) => Ok(Some(cell_tag(&row[0])?)),
            None => Ok(None),
        }
    }

    fn peek_composite(&mut self) -> Result<Option<u128>> {
        let hidden = self.hidden;
        match self.cur()? {
            Some(row) => Ok(Some(cells_jtag(&row[..hidden])?)),
            None => Ok(None),
        }
    }

    /// Decode and advance past the current row.
    fn next(&mut self) -> Result<Option<Tagged>> {
        let hidden = self.hidden;
        let Some(row) = self.cur()? else {
            return Ok(None);
        };
        let tag = cell_tag(&row[0])?;
        let data: Row = row[hidden..].to_vec();
        self.off += 1;
        Ok(Some((tag, data)))
    }

    /// Decode and advance past the current composite-tagged row.
    fn next_composite(&mut self) -> Result<Option<(u128, Row)>> {
        let hidden = self.hidden;
        let Some(row) = self.cur()? else {
            return Ok(None);
        };
        let tag = cells_jtag(&row[..hidden])?;
        let data: Row = row[hidden..].to_vec();
        self.off += 1;
        Ok(Some((tag, data)))
    }

    /// Decode one whole page as a batch (the `Pass` feed granularity).
    fn next_page(&mut self) -> Result<Option<Vec<Tagged>>> {
        if self.cur()?.is_none() {
            return Ok(None);
        }
        let hidden = self.hidden;
        let page = self
            .page
            .clone()
            .ok_or_else(|| internal("reader lost its page"))?;
        let mut out = Vec::with_capacity(page.len() - self.off);
        while self.off < page.len() {
            let row = &page[self.off];
            out.push((cell_tag(&row[0])?, row[hidden..].to_vec()));
            self.off += 1;
        }
        Ok(Some(out))
    }
}

/// Streaming k-way tag merge over staged parts: the fan-in primitive.
/// Tags are unique across a set's parts, so the merge is a total order.
struct MergeReader<'p> {
    readers: Vec<PartReader<'p>>,
}

impl<'p> MergeReader<'p> {
    fn new(pool: &'p BufferPool, parts: &[StagedPart]) -> Self {
        MergeReader {
            readers: parts.iter().map(|p| PartReader::new(pool, p)).collect(),
        }
    }

    fn next(&mut self) -> Result<Option<Tagged>> {
        let mut best: Option<(u64, usize)> = None;
        for (i, r) in self.readers.iter_mut().enumerate() {
            if let Some(tag) = r.peek_tag()? {
                if best.is_none_or(|(bt, _)| tag < bt) {
                    best = Some((tag, i));
                }
            }
        }
        match best {
            Some((_, i)) => self.readers[i].next(),
            None => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------
// Task planning: chain collapsing and segment extraction
// ---------------------------------------------------------------------

/// Where a segment's source rows come from.
#[derive(Debug)]
enum TableSrc {
    /// A catalog table, optionally permuted to the declared schema.
    Catalog {
        name: String,
        perm: Option<Vec<usize>>,
    },
    /// A cache-hit table re-entering the partitioned plan.
    Cached(Arc<Table>),
}

/// How a feeder routes rows to partition workers.
#[derive(Debug)]
enum RouteMode {
    /// Source distribution: row `i` goes to partition `i % N`.
    RoundRobin,
    /// Exchange: [`keyed::route`] on these columns.
    Hash(Vec<usize>),
}

/// A segment's input.
#[derive(Debug)]
enum Feed {
    /// Rows read from a table, tagged with their table position.
    Table { src: TableSrc, mode: RouteMode },
    /// Exchange point: the feeder k-way tag-merges the upstream staged
    /// parts and re-routes rows (the only cross-partition shuffle).
    Staged { from: usize, mode: RouteMode },
    /// Partition-aligned hand-off: worker `j` reads upstream part `j`
    /// directly — no channels, no feeder thread.
    Pass { from: usize },
}

/// One pipelined link inside a segment.
struct PipeLink {
    plan: PipePlan,
    in_schema: Schema,
    /// Co-location demanded before this link (planning-time only: a
    /// segment split or feed upgrade discharges it).
    require: Option<Require>,
    /// Stats key (the activity id) — `None` for recordset reorders.
    key: Option<String>,
    counts_processed: bool,
    counts_out: bool,
}

enum PipePlan {
    /// A planned operator link.
    Op(LinkPlan),
    /// Recordset column permutation (no stats).
    Reorder(Vec<usize>),
    /// Empty merged chain: pass rows through, counting output only.
    Tally,
}

/// Where a segment's output goes.
#[derive(Debug)]
enum SegOut {
    /// Stage through the pool for downstream tasks.
    Stage,
    /// Merge by tag and materialize the named target table.
    Target(String),
    /// Dangling activity: executed for stats parity, rows dropped.
    Discard,
}

/// One maximal exchange-free run of links executed by persistent
/// partition workers.
struct SegmentPlan {
    feed: Feed,
    links: Vec<PipeLink>,
    out: SegOut,
    out_schema: Schema,
    /// Cache-admission node whose merged output should be inserted
    /// (deferred to end-of-run, applied in topo order).
    cache_node: Option<NodeId>,
}

/// A planned binary operator over two staged inputs.
enum BinKind {
    /// Left rows verbatim, right rows tag-offset past the left tag
    /// space (permuted to the left schema).
    Union { perm: Option<Vec<usize>> },
    /// Partitioned hash join (build right, probe left, composite tags).
    Join {
        /// The empty index each partition clones and fills.
        index: BuildProbe<(usize, u64)>,
        extra: Vec<usize>,
    },
    /// Bag difference/intersection via co-located multiplicity maps.
    DiffIntersect {
        intersect: bool,
        perm: Option<Vec<usize>>,
    },
}

struct BinaryPlan {
    kind: BinKind,
    left: usize,
    right: usize,
    key: String,
    out_schema: Schema,
    out: SegOut,
    cache_node: Option<NodeId>,
}

enum TaskPlan {
    Segment(SegmentPlan),
    Binary(BinaryPlan),
}

/// The planned task DAG: tasks in creation (≈ topo) order plus exact
/// dependency wiring for the scheduler.
struct TaskGraph {
    tasks: Vec<TaskPlan>,
    /// Distinct input task ids per task.
    deps: Vec<Vec<usize>>,
    /// Tasks consuming each task's staged output.
    consumers: Vec<Vec<usize>>,
    /// Number of consuming tasks (staged parts free when it hits zero).
    fanout: Vec<usize>,
}

/// Static planner: walks the workflow in topo order, collapses maximal
/// unary runs into segments, splits segments at unprovable co-location
/// requirements, and wires binary tasks (inserting standalone exchange
/// segments where a side must re-route). All schema probing and catalog
/// validation happens here, in topo order — the same order the
/// sequential backend surfaces planning errors.
struct Planner<'a, 'c> {
    graph: &'a Graph,
    ctx: &'a ExecCtx<'c>,
    plan: &'a CachePlan,
    tasks: Vec<TaskPlan>,
    /// Per task: output data schema and partitioning scheme.
    task_out: Vec<(Schema, Scheme)>,
    node_task: HashMap<NodeId, usize>,
    absorbed: HashSet<NodeId>,
}

impl Planner<'_, '_> {
    fn push(&mut self, task: TaskPlan, schema: Schema, scheme: Scheme) -> usize {
        let tid = self.tasks.len();
        self.tasks.push(task);
        self.task_out.push((schema, scheme));
        tid
    }

    fn task_of(&self, node: NodeId) -> Result<usize> {
        self.node_task
            .get(&node)
            .copied()
            .ok_or_else(|| internal(format!("provider {node:?} has no planned task")))
    }

    fn plan_all(&mut self, order: &[NodeId], targets: &mut BTreeMap<String, Table>) -> Result<()> {
        let graph = self.graph;
        for &id in order {
            if !self.plan.runs(id) || self.absorbed.contains(&id) {
                continue;
            }
            if let Some(t) = self.plan.cached.get(&id) {
                if graph.consumers(id)?.is_empty() {
                    if let Node::Recordset(rs) = graph.node(id)? {
                        targets.insert(rs.name.clone(), (**t).clone());
                    }
                } else {
                    let tid = self.push(
                        TaskPlan::Segment(SegmentPlan {
                            feed: Feed::Table {
                                src: TableSrc::Cached(Arc::clone(t)),
                                mode: RouteMode::RoundRobin,
                            },
                            links: Vec::new(),
                            out: SegOut::Stage,
                            out_schema: t.schema().clone(),
                            cache_node: None,
                        }),
                        t.schema().clone(),
                        Scheme::Arbitrary,
                    );
                    self.node_task.insert(id, tid);
                }
                continue;
            }
            match graph.node(id)? {
                Node::Activity(act) if matches!(act.op, Op::Binary(_)) => self.plan_binary(id)?,
                _ => self.plan_chain_from(id)?,
            }
        }
        Ok(())
    }

    /// Plan the maximal single-consumer unary run starting at `start`.
    fn plan_chain_from(&mut self, start: NodeId) -> Result<()> {
        let graph = self.graph;
        let mut nodes = vec![start];
        let mut cur = start;
        loop {
            let cons = graph.consumers(cur)?;
            if cons.len() != 1 {
                break;
            }
            let next = cons[0];
            if !self.plan.runs(next) || self.plan.cached.contains_key(&next) {
                break;
            }
            if let Node::Activity(a) = graph.node(next)? {
                if matches!(a.op, Op::Binary(_)) {
                    break;
                }
            }
            self.absorbed.insert(next);
            nodes.push(next);
            cur = next;
        }

        // Entry feed plus the schema/scheme flowing into the first link.
        let (mut feed, mut schema, mut scheme) = match graph.node(start)? {
            Node::Recordset(rs) => match graph.provider(start, 0)? {
                None => {
                    let t = self
                        .ctx
                        .catalog
                        .table(&rs.name)
                        .ok_or_else(|| EngineError::MissingSource(rs.name.clone()))?;
                    let perm = perm_for(t.schema(), &rs.schema)?;
                    (
                        Feed::Table {
                            src: TableSrc::Catalog {
                                name: rs.name.clone(),
                                perm,
                            },
                            mode: RouteMode::RoundRobin,
                        },
                        rs.schema.clone(),
                        Scheme::Arbitrary,
                    )
                }
                Some(p) => {
                    let from = self.task_of(p)?;
                    let (ps, pscheme) = self.task_out[from].clone();
                    (Feed::Pass { from }, ps, pscheme)
                }
            },
            Node::Activity(_) => {
                let p = graph.provider(start, 0)?.ok_or(EngineError::Core(
                    CoreError::MissingProvider {
                        node: start,
                        port: 0,
                    },
                ))?;
                let from = self.task_of(p)?;
                let (ps, pscheme) = self.task_out[from].clone();
                (Feed::Pass { from }, ps, pscheme)
            }
        };

        // Flatten the node run into pipelined links (recordset nodes
        // contribute a reorder only when column order actually differs).
        let mut links: Vec<PipeLink> = Vec::new();
        for &nid in &nodes {
            match graph.node(nid)? {
                Node::Recordset(rs) => {
                    if let Some(perm) = perm_for(&schema, &rs.schema)? {
                        links.push(PipeLink {
                            plan: PipePlan::Reorder(perm),
                            in_schema: schema.clone(),
                            require: None,
                            key: None,
                            counts_processed: false,
                            counts_out: false,
                        });
                        schema = rs.schema.clone();
                    }
                }
                Node::Activity(act) => {
                    let key = act.id.to_string();
                    let chain: &[UnaryOp] = match &act.op {
                        Op::Unary(op) => std::slice::from_ref(op),
                        Op::Merged(c) => c.as_slice(),
                        Op::Binary(_) => return Err(internal("binary op inside a unary chain")),
                    };
                    let planned = plan_chain(chain, &schema, self.ctx)?;
                    if planned.is_empty() {
                        links.push(PipeLink {
                            plan: PipePlan::Tally,
                            in_schema: schema.clone(),
                            require: None,
                            key: Some(key),
                            counts_processed: false,
                            counts_out: true,
                        });
                    } else {
                        let last = planned.len() - 1;
                        for (i, l) in planned.into_iter().enumerate() {
                            schema = l.out_schema.clone();
                            links.push(PipeLink {
                                plan: PipePlan::Op(l.plan),
                                in_schema: l.in_schema,
                                require: l.require,
                                key: Some(key.clone()),
                                counts_processed: true,
                                counts_out: i == last,
                            });
                        }
                    }
                }
            }
        }

        // Split into exchange-free segments wherever a link's
        // co-location requirement is unprovable under the running
        // scheme. An unmet requirement before any work re-routes the
        // feed itself instead of inserting an empty segment.
        let mut cur_links: Vec<PipeLink> = Vec::new();
        for link in links {
            if let Some(req) = &link.require {
                let ok = match req {
                    Require::Keys(k) => scheme.colocates(k),
                    Require::WholeRow => scheme.is_keys(),
                };
                if !ok {
                    let keys: Vec<Attr> = match req {
                        Require::Keys(k) => k.clone(),
                        Require::WholeRow => link.in_schema.iter().cloned().collect(),
                    };
                    let cols = cols_of(&keys, &link.in_schema)?;
                    if cur_links.is_empty() {
                        feed = match feed {
                            Feed::Table { src, .. } => Feed::Table {
                                src,
                                mode: RouteMode::Hash(cols),
                            },
                            Feed::Staged { from, .. } => Feed::Staged {
                                from,
                                mode: RouteMode::Hash(cols),
                            },
                            Feed::Pass { from } => Feed::Staged {
                                from,
                                mode: RouteMode::Hash(cols),
                            },
                        };
                    } else {
                        let tid = self.push(
                            TaskPlan::Segment(SegmentPlan {
                                feed,
                                links: std::mem::take(&mut cur_links),
                                out: SegOut::Stage,
                                out_schema: link.in_schema.clone(),
                                cache_node: None,
                            }),
                            link.in_schema.clone(),
                            scheme.clone(),
                        );
                        feed = Feed::Staged {
                            from: tid,
                            mode: RouteMode::Hash(cols),
                        };
                    }
                    scheme = Scheme::Keys(keys);
                }
            }
            scheme = match &link.plan {
                PipePlan::Op(p) => scheme_after(p, scheme),
                PipePlan::Reorder(_) | PipePlan::Tally => scheme,
            };
            cur_links.push(link);
        }

        let last_node = nodes.last().copied().unwrap_or(start);
        let consumers = graph.consumers(last_node)?.len();
        let cache_on = self.plan.hashes.is_some();
        let (out, cache_node) = match graph.node(last_node)? {
            Node::Recordset(rs) if consumers == 0 => (
                SegOut::Target(rs.name.clone()),
                cache_on.then_some(last_node),
            ),
            _ if consumers == 0 => (SegOut::Discard, None),
            _ => (
                SegOut::Stage,
                (consumers >= 2 && cache_on).then_some(last_node),
            ),
        };
        let tid = self.push(
            TaskPlan::Segment(SegmentPlan {
                feed,
                links: cur_links,
                out,
                out_schema: schema.clone(),
                cache_node,
            }),
            schema,
            scheme,
        );
        self.node_task.insert(last_node, tid);
        Ok(())
    }

    /// A standalone exchange segment re-routing `from` on `keys`.
    fn exchange_task(&mut self, from: usize, schema: &Schema, keys: &[Attr]) -> Result<usize> {
        let cols = cols_of(keys, schema)?;
        Ok(self.push(
            TaskPlan::Segment(SegmentPlan {
                feed: Feed::Staged {
                    from,
                    mode: RouteMode::Hash(cols),
                },
                links: Vec::new(),
                out: SegOut::Stage,
                out_schema: schema.clone(),
                cache_node: None,
            }),
            schema.clone(),
            Scheme::Keys(keys.to_vec()),
        ))
    }

    fn plan_binary(&mut self, id: NodeId) -> Result<()> {
        let graph = self.graph;
        let Node::Activity(act) = graph.node(id)? else {
            return Err(internal("binary plan on a non-activity node"));
        };
        let Op::Binary(op) = &act.op else {
            return Err(internal("binary plan on a non-binary activity"));
        };
        let key = act.id.to_string();
        let mut ids = Vec::new();
        for &p in graph.providers(id)? {
            ids.push(p.ok_or(EngineError::Core(CoreError::MissingProvider {
                node: id,
                port: 0,
            }))?);
        }
        if ids.len() != 2 {
            return Err(internal(format!(
                "binary node {id:?} has {} inputs",
                ids.len()
            )));
        }
        let mut lt = self.task_of(ids[0])?;
        let mut rt = self.task_of(ids[1])?;
        let (ls, mut lscheme) = self.task_out[lt].clone();
        let (rs_, rscheme) = self.task_out[rt].clone();
        // Probe with empty inputs: schema validation and output
        // derivation go through the exact materializing code path.
        let out_schema =
            ops::exec_binary(op, &Table::empty(ls.clone()), &Table::empty(rs_.clone()))?
                .schema()
                .clone();
        let (kind, out_scheme) = match op {
            BinaryOp::Union => {
                let perm = perm_for(&rs_, &ls)?;
                let sch = if lscheme == rscheme {
                    lscheme.clone()
                } else {
                    Scheme::Arbitrary
                };
                (BinKind::Union { perm }, sch)
            }
            BinaryOp::Join(on) => {
                let (index, extra) = BuildProbe::plan(on, &ls, &rs_)?;
                let subset = |s: &[Attr]| s.iter().all(|a| on.contains(a));
                // Matching rows must co-locate: both sides hashed on the
                // same attribute list, a subset of the join key. Reuse an
                // existing side's scheme where possible.
                match (&lscheme, &rscheme) {
                    (Scheme::Keys(a), Scheme::Keys(b)) if a == b && subset(a) => {}
                    (Scheme::Keys(a), _) if subset(a) => {
                        let k = a.clone();
                        rt = self.exchange_task(rt, &rs_, &k)?;
                    }
                    (_, Scheme::Keys(b)) if subset(b) => {
                        let k = b.clone();
                        lt = self.exchange_task(lt, &ls, &k)?;
                        lscheme = Scheme::Keys(k);
                    }
                    _ => {
                        lt = self.exchange_task(lt, &ls, on)?;
                        rt = self.exchange_task(rt, &rs_, on)?;
                        lscheme = Scheme::Keys(on.clone());
                    }
                }
                (BinKind::Join { index, extra }, lscheme.clone())
            }
            BinaryOp::Difference | BinaryOp::Intersection => {
                let intersect = matches!(op, BinaryOp::Intersection);
                let perm = perm_for(&rs_, &ls)?;
                // Whole-row bag arithmetic: both sides must share one
                // key scheme (key attrs resolved by name on each side,
                // so the keys agree after the perm).
                match (&lscheme, &rscheme) {
                    (Scheme::Keys(a), Scheme::Keys(b)) if a == b => {}
                    (Scheme::Keys(a), _) => {
                        let k = a.clone();
                        rt = self.exchange_task(rt, &rs_, &k)?;
                    }
                    _ => {
                        let all: Vec<Attr> = ls.iter().cloned().collect();
                        lt = self.exchange_task(lt, &ls, &all)?;
                        rt = self.exchange_task(rt, &rs_, &all)?;
                        lscheme = Scheme::Keys(all);
                    }
                }
                (BinKind::DiffIntersect { intersect, perm }, lscheme.clone())
            }
        };
        let consumers = graph.consumers(id)?.len();
        let cache_on = self.plan.hashes.is_some();
        let (out, cache_node) = if consumers == 0 {
            (SegOut::Discard, None)
        } else {
            (SegOut::Stage, (consumers >= 2 && cache_on).then_some(id))
        };
        let tid = self.push(
            TaskPlan::Binary(BinaryPlan {
                kind,
                left: lt,
                right: rt,
                key,
                out_schema: out_schema.clone(),
                out,
                cache_node,
            }),
            out_schema,
            out_scheme,
        );
        self.node_task.insert(id, tid);
        Ok(())
    }

    /// Finish planning: compute exact dependency wiring.
    fn wire(self) -> TaskGraph {
        let n = self.tasks.len();
        let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
        for t in &self.tasks {
            let mut d = match t {
                TaskPlan::Segment(s) => match &s.feed {
                    Feed::Table { .. } => vec![],
                    Feed::Staged { from, .. } | Feed::Pass { from } => vec![*from],
                },
                TaskPlan::Binary(b) => vec![b.left, b.right],
            };
            d.sort_unstable();
            d.dedup();
            deps.push(d);
        }
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut fanout = vec![0usize; n];
        for (t, d) in deps.iter().enumerate() {
            for &p in d {
                consumers[p].push(t);
                fanout[p] += 1;
            }
        }
        TaskGraph {
            tasks: self.tasks,
            deps,
            consumers,
            fanout,
        }
    }
}

// ---------------------------------------------------------------------
// Segment runtime: persistent workers over bounded channels
// ---------------------------------------------------------------------

/// Immutable run-wide context shared by every task and worker thread.
struct Rt<'e> {
    pool: &'e BufferPool,
    ctx: &'e ExecCtx<'e>,
    nparts: usize,
    batch_rows: usize,
    /// Bounded channel capacity in batches (`StreamConfig::channel_batches`).
    chan_cap: usize,
}

/// Per-run counters with the per-worker lanes sized for `nparts`.
fn lane_counters(nparts: usize) -> ExecCounters {
    ExecCounters {
        worker_rows: vec![0; nparts],
        worker_busy: vec![0; nparts],
        worker_send_blocked: vec![0; nparts],
        worker_recv_blocked: vec![0; nparts],
        ..ExecCounters::default()
    }
}

/// Everything one finished task hands back to the scheduler. Counters
/// and stats fold commutatively, so absorption order (= completion
/// order) cannot leak into the result.
struct TaskOutput {
    staged: Option<StagedSet>,
    target: Option<(String, Table)>,
    cache: Option<(NodeId, Table)>,
    /// Per-activity `(key, rows_processed, rows_out)` deltas.
    stats: Vec<(String, u64, u64)>,
    counters: ExecCounters,
}

/// One partition worker's result for a segment.
struct WorkerOut {
    /// The staged output part (`None` for discard sinks).
    part: Option<(StagedPart, u64)>,
    /// Per-link `(processed, out)` tallies, in link order.
    tallies: Vec<(u64, u64)>,
    /// Batches this worker processed.
    busy: u64,
    /// Channel telemetry (`None` for `Pass` feeds — no channel).
    chan: Option<ChannelStats>,
}

/// Per-worker runtime state of one link: the stateful pieces (seen keys,
/// aggregation groups) live across batches so rows can flow through the
/// whole segment pipeline without a per-link barrier.
enum LinkRt<'s> {
    KeepFirst(keyed::KeepFirst),
    Aggregate {
        state: GroupBy,
        /// Per group, in slot order: the tag of the row that opened it.
        first_tags: Vec<u64>,
    },
    RowWise(&'s Kernel),
    Reorder(&'s [usize]),
    Tally,
}

impl<'s> LinkRt<'s> {
    fn new(plan: &'s LinkPlan, in_schema: &Schema) -> Result<Self> {
        Ok(match plan {
            LinkPlan::KeepFirst(cols) => LinkRt::KeepFirst(keyed::KeepFirst::new(cols.clone())),
            LinkPlan::Aggregate(agg) => LinkRt::Aggregate {
                state: GroupBy::new(agg, in_schema)?,
                first_tags: Vec::new(),
            },
            LinkPlan::RowWise { kernel, .. } => LinkRt::RowWise(kernel),
        })
    }

    /// Apply the link to one batch. Input batches are tag-ascending and
    /// arrive in global tag order, so stateful links observe rows in the
    /// sequential order — keep-first keeps the minimum tag, aggregation
    /// accumulates (and float-sums) in sequential order.
    fn run(&mut self, mut batch: Vec<Tagged>) -> Result<Vec<Tagged>> {
        match self {
            LinkRt::KeepFirst(seen) => seen.retain(&mut batch),
            LinkRt::Aggregate { state, first_tags } => {
                // The whole group lives in this partition; tagging it with
                // its first-seen input tag makes tags ascend in
                // first-appearance order, the sequential emission order.
                for (tag, row) in &batch {
                    if state.feed_row(row)? {
                        first_tags.push(*tag);
                    }
                }
                batch.clear();
            }
            LinkRt::RowWise(kernel) => kernel.apply(&mut batch)?,
            LinkRt::Reorder(perm) => batch.iter_mut().for_each(|(_, row)| permute(row, perm)),
            LinkRt::Tally => {}
        }
        Ok(batch)
    }

    /// End of input: what a blocking link accumulated (else nothing).
    fn finish(&mut self) -> Vec<Tagged> {
        match self {
            LinkRt::Aggregate { state, first_tags } => {
                first_tags.drain(..).zip(state.finish()).collect()
            }
            _ => Vec::new(),
        }
    }
}

struct LinkCell<'s> {
    rt: LinkRt<'s>,
    counts_processed: bool,
    counts_out: bool,
    processed: u64,
    out: u64,
}

/// One worker's running chain: every link of the segment plus its
/// stats tallies.
struct ChainRt<'s> {
    cells: Vec<LinkCell<'s>>,
    batch_rows: usize,
}

impl<'s> ChainRt<'s> {
    fn new(seg: &'s SegmentPlan, batch_rows: usize) -> Result<Self> {
        let mut cells = Vec::with_capacity(seg.links.len());
        for link in &seg.links {
            let rt = match &link.plan {
                PipePlan::Op(plan) => LinkRt::new(plan, &link.in_schema)?,
                PipePlan::Reorder(perm) => LinkRt::Reorder(perm),
                PipePlan::Tally => LinkRt::Tally,
            };
            cells.push(LinkCell {
                rt,
                counts_processed: link.counts_processed,
                counts_out: link.counts_out,
                processed: 0,
                out: 0,
            });
        }
        Ok(ChainRt {
            cells,
            batch_rows: batch_rows.max(1),
        })
    }

    fn push(&mut self, batch: Vec<Tagged>, sink: &mut Sink<'_>) -> Result<()> {
        self.feed(0, batch, sink)
    }

    /// Run one batch through links `from..`, tallying as it shrinks or
    /// parks in blocking state.
    fn feed(&mut self, from: usize, mut batch: Vec<Tagged>, sink: &mut Sink<'_>) -> Result<()> {
        for i in from..self.cells.len() {
            if batch.is_empty() {
                return Ok(());
            }
            let cell = &mut self.cells[i];
            if cell.counts_processed {
                cell.processed += batch.len() as u64;
            }
            batch = cell.rt.run(batch)?;
            if cell.counts_out {
                cell.out += batch.len() as u64;
            }
        }
        if !batch.is_empty() {
            sink.emit(batch)?;
        }
        Ok(())
    }

    /// End of input: release every blocking link's accumulated output
    /// down the remaining pipeline, in link order.
    fn flush(&mut self, sink: &mut Sink<'_>) -> Result<()> {
        for i in 0..self.cells.len() {
            let mut iter = self.cells[i].rt.finish().into_iter();
            loop {
                let chunk: Vec<Tagged> = iter.by_ref().take(self.batch_rows).collect();
                if chunk.is_empty() {
                    break;
                }
                let cell = &mut self.cells[i];
                if cell.counts_out {
                    cell.out += chunk.len() as u64;
                }
                self.feed(i + 1, chunk, sink)?;
            }
        }
        Ok(())
    }

    fn tallies(&self) -> Vec<(u64, u64)> {
        self.cells.iter().map(|c| (c.processed, c.out)).collect()
    }
}

/// Where a worker's surviving rows go.
enum Sink<'p> {
    Stage(StageWriter<'p>),
    Discard,
}

impl Sink<'_> {
    fn emit(&mut self, batch: Vec<Tagged>) -> Result<()> {
        match self {
            Sink::Stage(w) => {
                for (tag, row) in batch {
                    w.push(tag, row)?;
                }
                Ok(())
            }
            Sink::Discard => Ok(()),
        }
    }

    fn finish(self) -> Result<Option<(StagedPart, u64)>> {
        match self {
            Sink::Stage(w) => w.finish().map(Some),
            Sink::Discard => Ok(None),
        }
    }
}

fn seg_sink<'e>(seg: &SegmentPlan, rt: &Rt<'e>) -> Result<Sink<'e>> {
    Ok(match seg.out {
        SegOut::Discard => Sink::Discard,
        SegOut::Stage | SegOut::Target(_) => {
            Sink::Stage(StageWriter::new(rt.pool, &seg.out_schema, rt.batch_rows)?)
        }
    })
}

fn send_batch(txs: &[Sender<Vec<Tagged>>], d: usize, batch: Vec<Tagged>) -> Result<()> {
    txs[d]
        .send(batch)
        .map_err(|_| internal(format!("partition worker {d} hung up mid-stream")))
}

/// The feeder half of a channel-fed segment: stream the source (a table
/// or the k-way tag-merge of upstream staged parts) in global tag order
/// and route each row to its destination worker. Being the sole
/// producer of all N bounded channels, the feeder cannot participate in
/// a channel cycle — backpressure only ever blocks it on a worker that
/// is still draining.
fn feed_segment(
    seg: &SegmentPlan,
    input: Option<&StagedSet>,
    rt: &Rt<'_>,
    txs: Vec<Sender<Vec<Tagged>>>,
) -> Result<Vec<u64>> {
    let nparts = rt.nparts;
    let mut fed = vec![0u64; nparts];
    let mut pending: Vec<Vec<Tagged>> = vec![Vec::new(); nparts];
    let mut key = Vec::new();
    match &seg.feed {
        Feed::Table { src, mode } => {
            let (table, perm): (&Table, Option<&Vec<usize>>) = match src {
                TableSrc::Catalog { name, perm } => (
                    rt.ctx
                        .catalog
                        .table(name)
                        .ok_or_else(|| EngineError::MissingSource(name.clone()))?,
                    perm.as_ref(),
                ),
                TableSrc::Cached(t) => (t.as_ref(), None),
            };
            for (i, src_row) in table.rows().iter().enumerate() {
                let row: Row = match perm {
                    Some(p) => p.iter().map(|&c| src_row[c].clone()).collect(),
                    None => src_row.clone(),
                };
                let d = match mode {
                    RouteMode::RoundRobin => i % nparts,
                    RouteMode::Hash(cols) => keyed::route(&mut key, &row, cols, nparts),
                };
                fed[d] += 1;
                pending[d].push((i as u64, row));
                if pending[d].len() >= rt.batch_rows {
                    send_batch(&txs, d, std::mem::take(&mut pending[d]))?;
                }
            }
        }
        Feed::Staged { mode, .. } => {
            let set = input.ok_or_else(|| internal("exchange feed without a staged input"))?;
            let RouteMode::Hash(cols) = mode else {
                return Err(internal("exchange feed must hash-route"));
            };
            let mut merge = MergeReader::new(rt.pool, &set.parts);
            while let Some((tag, row)) = merge.next()? {
                let d = keyed::route(&mut key, &row, cols, nparts);
                fed[d] += 1;
                pending[d].push((tag, row));
                if pending[d].len() >= rt.batch_rows {
                    send_batch(&txs, d, std::mem::take(&mut pending[d]))?;
                }
            }
        }
        Feed::Pass { .. } => return Err(internal("pass feed does not use a feeder")),
    }
    for (d, batch) in pending.into_iter().enumerate() {
        if !batch.is_empty() {
            send_batch(&txs, d, batch)?;
        }
    }
    Ok(fed)
}

/// One persistent worker of a channel-fed segment: drain the channel,
/// run every batch through the whole link chain, flush blocking state at
/// end-of-stream, and report channel telemetry.
fn fed_worker(rx: Receiver<Vec<Tagged>>, seg: &SegmentPlan, rt: &Rt<'_>) -> Result<WorkerOut> {
    let mut chain = ChainRt::new(seg, rt.batch_rows)?;
    let mut sink = seg_sink(seg, rt)?;
    let mut busy = 0u64;
    while let Some(batch) = rx.recv() {
        busy += 1;
        chain.push(batch, &mut sink)?;
    }
    chain.flush(&mut sink)?;
    let chan = rx.stats();
    Ok(WorkerOut {
        part: sink.finish()?,
        tallies: chain.tallies(),
        busy,
        chan: Some(chan),
    })
}

/// Run a channel-fed segment: N persistent workers on scoped threads,
/// the feeder on the task's own thread. A panicking worker drops its
/// receiver (unblocking the feeder), and its unwind is converted into
/// [`EngineError::WorkerPanicked`]; the lowest worker index wins over
/// the feeder's secondary hang-up error.
fn run_fed_segment(
    seg: &SegmentPlan,
    input: Option<&StagedSet>,
    rt: &Rt<'_>,
) -> Result<(Vec<WorkerOut>, Vec<u64>)> {
    let nparts = rt.nparts;
    let slots: Vec<OnceLock<Result<WorkerOut>>> = (0..nparts).map(|_| OnceLock::new()).collect();
    let mut txs = Vec::with_capacity(nparts);
    let mut rxs = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        let (tx, rx) = channel::bounded::<Vec<Tagged>>(rt.chan_cap);
        txs.push(tx);
        rxs.push(rx);
    }
    let fed = std::thread::scope(|scope| {
        for (j, rx) in rxs.into_iter().enumerate() {
            let slot = &slots[j];
            scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| fed_worker(rx, seg, rt)))
                    .unwrap_or_else(|p| Err(panicked(j, p.as_ref())));
                let _ = slot.set(r);
            });
        }
        // Feeder errors abort the stream; dropping `txs` closes every
        // channel so workers drain and exit.
        feed_segment(seg, input, rt, txs)
    });
    let mut outs = Vec::with_capacity(nparts);
    let mut worker_err: Option<EngineError> = None;
    for (j, slot) in slots.into_iter().enumerate() {
        match slot.into_inner() {
            Some(Ok(w)) => outs.push(w),
            Some(Err(e)) => {
                if worker_err.is_none() {
                    worker_err = Some(e);
                }
            }
            None => {
                if worker_err.is_none() {
                    worker_err = Some(internal(format!("partition worker {j} produced no result")));
                }
            }
        }
    }
    // A worker failure is the root cause; the feeder's hung-up error is
    // its symptom.
    if let Some(e) = worker_err {
        return Err(e);
    }
    Ok((outs, fed?))
}

/// Merge staged parts back into sequential row order and materialize a
/// table, draining through the pool in page-sized chunks so the resident
/// set stays bounded like a sequential target drain.
fn merge_to_table(
    rt: &Rt<'_>,
    schema: &Schema,
    parts: &[StagedPart],
    counters: &mut ExecCounters,
) -> Result<Table> {
    let buf = rt.pool.create(schema.clone());
    let mut merge = MergeReader::new(rt.pool, parts);
    let mut pending: Vec<Row> = Vec::new();
    while let Some((_, row)) = merge.next()? {
        pending.push(row);
        if pending.len() >= rt.batch_rows {
            counters.batches += 1;
            rt.pool.append(buf, std::mem::take(&mut pending))?;
        }
    }
    if !pending.is_empty() {
        counters.batches += 1;
        rt.pool.append(buf, pending)?;
    }
    let t = rt.pool.to_table(buf)?;
    rt.pool.free(buf);
    Ok(t)
}

/// Execute one segment task end to end and fold its workers' results —
/// in partition-index order, never completion order — into a
/// [`TaskOutput`].
fn run_segment(seg: &SegmentPlan, input: Option<&StagedSet>, rt: &Rt<'_>) -> Result<TaskOutput> {
    let (workers, fed) = match &seg.feed {
        Feed::Pass { .. } => {
            let set = input.ok_or_else(|| internal("pass feed without a staged input"))?;
            if set.parts.len() != rt.nparts {
                return Err(internal("pass feed partition-count mismatch"));
            }
            let outs = per_part(rt.nparts, |j| {
                let mut chain = ChainRt::new(seg, rt.batch_rows)?;
                let mut sink = seg_sink(seg, rt)?;
                let mut reader = PartReader::new(rt.pool, &set.parts[j]);
                let mut busy = 0u64;
                while let Some(batch) = reader.next_page()? {
                    busy += 1;
                    chain.push(batch, &mut sink)?;
                }
                chain.flush(&mut sink)?;
                Ok(WorkerOut {
                    part: sink.finish()?,
                    tallies: chain.tallies(),
                    busy,
                    chan: None,
                })
            })?;
            (outs, None)
        }
        Feed::Table { .. } | Feed::Staged { .. } => {
            let (outs, fed) = run_fed_segment(seg, input, rt)?;
            (outs, Some(fed))
        }
    };

    let mut counters = lane_counters(rt.nparts);
    counters.pipeline_segments = 1;
    if let Some(f) = fed {
        for (j, n) in f.into_iter().enumerate() {
            counters.worker_rows[j] += n;
        }
    }
    for (j, w) in workers.iter().enumerate() {
        counters.worker_busy[j] += w.busy;
        counters.batches += w.busy;
        if let Some(c) = &w.chan {
            counters.channel_high_water = counters.channel_high_water.max(c.high_water);
            counters.worker_send_blocked[j] += c.send_blocked;
            counters.worker_recv_blocked[j] += c.recv_blocked;
        }
    }
    let mut stats = Vec::new();
    for (li, link) in seg.links.iter().enumerate() {
        if let Some(key) = &link.key {
            let p: u64 = workers.iter().map(|w| w.tallies[li].0).sum();
            let o: u64 = workers.iter().map(|w| w.tallies[li].1).sum();
            stats.push((key.clone(), p, o));
        }
    }
    let mut parts = Vec::with_capacity(workers.len());
    for w in workers {
        if let Some((part, pages)) = w.part {
            counters.pages_staged += pages;
            parts.push(part);
        }
    }
    let mut out = TaskOutput {
        staged: None,
        target: None,
        cache: None,
        stats,
        counters,
    };
    match &seg.out {
        SegOut::Stage => {
            if let Some(node) = seg.cache_node {
                let t = merge_to_table(rt, &seg.out_schema, &parts, &mut out.counters)?;
                out.cache = Some((node, t));
            }
            out.staged = Some(StagedSet { parts });
        }
        SegOut::Target(name) => {
            let table = merge_to_table(rt, &seg.out_schema, &parts, &mut out.counters)?;
            for p in &parts {
                rt.pool.free(p.buf);
            }
            if let Some(node) = seg.cache_node {
                out.cache = Some((node, table.clone()));
            }
            out.target = Some((name.clone(), table));
        }
        SegOut::Discard => {}
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Binary task runtime
// ---------------------------------------------------------------------

/// Execute a binary task over two staged inputs. Both inputs were
/// aligned (co-located) at planning time; each partition works
/// independently and the results fold in partition order. Input buffers
/// are owned by the scheduler — never freed here.
fn run_binary_task(
    bp: &BinaryPlan,
    left: &StagedSet,
    right: &StagedSet,
    rt: &Rt<'_>,
) -> Result<TaskOutput> {
    if left.parts.len() != rt.nparts || right.parts.len() != rt.nparts {
        return Err(internal("binary input partition-count mismatch"));
    }
    let counters = lane_counters(rt.nparts);
    let discard = matches!(bp.out, SegOut::Discard);
    let lrows: u64 = left.parts.iter().map(|p| p.rows).sum();
    let rrows: u64 = right.parts.iter().map(|p| p.rows).sum();

    let (parts, pages, processed, emitted) = match &bp.kind {
        BinKind::Union { perm } => {
            // Sequential union order: every left row, then every right
            // row — realized by offsetting right tags past the left tag
            // space. A discarded union needs no data movement at all:
            // its stats are fully determined by the input cardinalities.
            let total = lrows + rrows;
            if discard {
                (Vec::new(), 0, total, total)
            } else {
                let lbase = left
                    .parts
                    .iter()
                    .filter_map(|p| p.max_tag)
                    .max()
                    .map_or(0, |t| t + 1);
                let outs = per_part(rt.nparts, |j| {
                    let mut w = StageWriter::new(rt.pool, &bp.out_schema, rt.batch_rows)?;
                    let mut lr = PartReader::new(rt.pool, &left.parts[j]);
                    while let Some((tag, row)) = lr.next()? {
                        w.push(tag, row)?;
                    }
                    let mut rr = PartReader::new(rt.pool, &right.parts[j]);
                    while let Some((tag, mut row)) = rr.next()? {
                        if let Some(p) = perm {
                            permute(&mut row, p);
                        }
                        let shifted = tag
                            .checked_add(lbase)
                            .ok_or_else(|| internal("union tag overflow"))?;
                        w.push(shifted, row)?;
                    }
                    w.finish()
                })?;
                let mut parts = Vec::with_capacity(outs.len());
                let mut pages = 0u64;
                for (part, pg) in outs {
                    pages += pg;
                    parts.push(part);
                }
                (parts, pages, total, total)
            }
        }
        BinKind::Join { index, extra } => {
            // Composite output tag (left tag, right tag), lexicographic —
            // the sequential probe emission order (left rows in order,
            // each row's matches in right insertion order).
            let rbound = right
                .parts
                .iter()
                .filter_map(|p| p.max_tag)
                .max()
                .map_or(1u128, |t| u128::from(t) + 1);
            // Phase 1 (parallel): build this shard's right index —
            // key → (row position, right tag), probing rows back out of
            // the staged input buffer — probe the left stream, and stage
            // the matches under their composite tags. NULL keys are
            // never indexed and never probe: they never join.
            let temps = per_part(rt.nparts, |j| {
                let mut index = index.clone();
                let mut rr = PartReader::new(rt.pool, &right.parts[j]);
                let mut pos = 0usize;
                while let Some((rtag, row)) = rr.next()? {
                    index.insert(&row, (pos, rtag));
                    pos += 1;
                }
                let mut w = if discard {
                    None
                } else {
                    Some(StageWriter::composite(
                        rt.pool,
                        &bp.out_schema,
                        rt.batch_rows,
                    )?)
                };
                let mut emitted = 0u64;
                let mut lr = PartReader::new(rt.pool, &left.parts[j]);
                while let Some((ltag, lrow)) = lr.next()? {
                    for &(pos, rtag) in index.probe(&lrow) {
                        emitted += 1;
                        if let Some(w) = &mut w {
                            // Encoded row: skip the hidden tag cell.
                            let enc = rt.pool.row(right.parts[j].buf, pos)?;
                            let mut row = lrow.clone();
                            row.extend(extra.iter().map(|&c| enc[1 + c].clone()));
                            let ctag = u128::from(ltag) * rbound + u128::from(rtag);
                            w.push_composite(ctag, row)?;
                        }
                    }
                }
                match w {
                    Some(w) => w.finish().map(|(p, pg)| (Some(p), pg, emitted)),
                    None => Ok((None, 0, emitted)),
                }
            })?;
            let emitted: u64 = temps.iter().map(|(_, _, e)| *e).sum();
            let tpages: u64 = temps.iter().map(|(_, pg, _)| *pg).sum();
            if discard {
                (Vec::new(), tpages, rrows + lrows, emitted)
            } else {
                // Phase 2 (sequential): k-way merge the composite-tagged
                // temp parts in global composite order, re-densifying to
                // u64 tags while keeping each row in its partition.
                let tparts: Vec<StagedPart> = temps.into_iter().filter_map(|(p, _, _)| p).collect();
                let mut readers: Vec<PartReader<'_>> = tparts
                    .iter()
                    .map(|p| PartReader::composite(rt.pool, p))
                    .collect();
                let mut writers = Vec::with_capacity(rt.nparts);
                for _ in 0..rt.nparts {
                    writers.push(StageWriter::new(rt.pool, &bp.out_schema, rt.batch_rows)?);
                }
                let mut next = 0u64;
                loop {
                    let mut best: Option<(u128, usize)> = None;
                    for (i, r) in readers.iter_mut().enumerate() {
                        if let Some(t) = r.peek_composite()? {
                            if best.is_none_or(|(bt, _)| t < bt) {
                                best = Some((t, i));
                            }
                        }
                    }
                    let Some((_, i)) = best else { break };
                    if let Some((_, row)) = readers[i].next_composite()? {
                        writers[i].push(next, row)?;
                        next += 1;
                    }
                }
                drop(readers);
                for p in &tparts {
                    rt.pool.free(p.buf);
                }
                let mut parts = Vec::with_capacity(writers.len());
                let mut pages = tpages;
                for w in writers {
                    let (part, pg) = w.finish()?;
                    pages += pg;
                    parts.push(part);
                }
                (parts, pages, rrows + lrows, emitted)
            }
        }
        BinKind::DiffIntersect { intersect, perm } => {
            // Equal rows co-locate, so this partition's multiplicity map
            // is the sequential map restricted to its keys; left rows
            // cancel (or survive) in tag order. The right side is keyed
            // through its permutation to the left schema, so both sides'
            // keys agree.
            let intersect = *intersect;
            let outs = per_part(rt.nparts, |j| {
                let mut counts = BagCounts::new(perm.clone());
                let mut rr = PartReader::new(rt.pool, &right.parts[j]);
                while let Some((_, row)) = rr.next()? {
                    counts.add(&row);
                }
                let mut w = if discard {
                    None
                } else {
                    Some(StageWriter::new(rt.pool, &bp.out_schema, rt.batch_rows)?)
                };
                let mut emitted = 0u64;
                let mut lr = PartReader::new(rt.pool, &left.parts[j]);
                while let Some((tag, row)) = lr.next()? {
                    if counts.cancel(&row) == intersect {
                        emitted += 1;
                        if let Some(w) = &mut w {
                            w.push(tag, row)?;
                        }
                    }
                }
                match w {
                    Some(w) => w.finish().map(|(p, pg)| (Some(p), pg, emitted)),
                    None => Ok((None, 0, emitted)),
                }
            })?;
            let emitted: u64 = outs.iter().map(|(_, _, e)| *e).sum();
            let pages: u64 = outs.iter().map(|(_, pg, _)| *pg).sum();
            let parts: Vec<StagedPart> = outs.into_iter().filter_map(|(p, _, _)| p).collect();
            (parts, pages, rrows + lrows, emitted)
        }
    };

    let mut out = TaskOutput {
        staged: None,
        target: None,
        cache: None,
        stats: vec![(bp.key.clone(), processed, emitted)],
        counters,
    };
    out.counters.pages_staged += pages;
    match &bp.out {
        SegOut::Stage => {
            if let Some(node) = bp.cache_node {
                let t = merge_to_table(rt, &bp.out_schema, &parts, &mut out.counters)?;
                out.cache = Some((node, t));
            }
            out.staged = Some(StagedSet { parts });
        }
        SegOut::Target(name) => {
            // Planning never targets a binary directly (targets are
            // recordset chains), but handle it uniformly anyway.
            let table = merge_to_table(rt, &bp.out_schema, &parts, &mut out.counters)?;
            for p in &parts {
                rt.pool.free(p.buf);
            }
            out.target = Some((name.clone(), table));
        }
        SegOut::Discard => {}
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Dependency-counted task scheduler
// ---------------------------------------------------------------------

fn run_task(
    task: &TaskPlan,
    a: Option<&StagedSet>,
    b: Option<&StagedSet>,
    rt: &Rt<'_>,
) -> Result<TaskOutput> {
    match task {
        TaskPlan::Segment(seg) => run_segment(seg, a, rt),
        TaskPlan::Binary(bp) => {
            let left = a.ok_or_else(|| internal("binary task missing its left input"))?;
            let right = b.ok_or_else(|| internal("binary task missing its right input"))?;
            run_binary_task(bp, left, right, rt)
        }
    }
}

/// Run the task DAG: every task whose inputs are staged launches on its
/// own scoped thread (up to `max(nparts, 2)` in flight), so independent
/// branches overlap. Ready tasks launch in task-id (≈ topo) order;
/// completions absorb commutatively, so scheduling order cannot leak
/// into targets, stats, or cache contents. Staged inputs are freed the
/// moment their last consumer completes — the refcount, not the DAG's
/// depth, bounds pool residency. When several tasks fail, the smallest
/// task id wins, making the surfaced error schedule-independent.
fn schedule(
    tg: &TaskGraph,
    rt: &Rt<'_>,
    stats: &mut ExecStats,
    counters: &mut ExecCounters,
    targets: &mut BTreeMap<String, Table>,
) -> Result<Vec<(NodeId, Table)>> {
    let n = tg.tasks.len();
    let mut cache_tables: Vec<(NodeId, Table)> = Vec::new();
    if n == 0 {
        return Ok(cache_tables);
    }
    let mut indeg: Vec<usize> = tg.deps.iter().map(Vec::len).collect();
    let mut ready: BTreeSet<usize> = indeg
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut staged: Vec<Option<StagedSet>> = (0..n).map(|_| None).collect();
    let mut fan_left = tg.fanout.clone();
    let cap = rt.nparts.max(2);
    let mut first_err: Option<(usize, EngineError)> = None;

    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Result<TaskOutput>)>();
        let mut inflight = 0usize;
        let mut remaining = n;
        loop {
            if first_err.is_none() {
                while inflight < cap {
                    let Some(&t) = ready.iter().next() else { break };
                    ready.remove(&t);
                    // Inputs are cheap clones (buffer ids + metadata);
                    // the underlying pool pages are shared.
                    let (a, b) = match &tg.tasks[t] {
                        TaskPlan::Segment(s) => match &s.feed {
                            Feed::Table { .. } => (None, None),
                            Feed::Staged { from, .. } | Feed::Pass { from } => {
                                (staged[*from].clone(), None)
                            }
                        },
                        TaskPlan::Binary(bp) => (staged[bp.left].clone(), staged[bp.right].clone()),
                    };
                    let task = &tg.tasks[t];
                    let tx = done_tx.clone();
                    scope.spawn(move || {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            run_task(task, a.as_ref(), b.as_ref(), rt)
                        }))
                        .unwrap_or_else(|p| Err(panicked(t, p.as_ref())));
                        let _ = tx.send((t, r));
                    });
                    inflight += 1;
                    counters.peak_inflight_tasks =
                        counters.peak_inflight_tasks.max(inflight as u64);
                }
            }
            if inflight == 0 {
                if first_err.is_none() && remaining > 0 {
                    first_err = Some((
                        usize::MAX,
                        internal("scheduler stalled with tasks remaining"),
                    ));
                }
                break;
            }
            let Ok((t, res)) = done_rx.recv() else {
                first_err = Some((usize::MAX, internal("task completion channel closed")));
                break;
            };
            inflight -= 1;
            remaining -= 1;
            match res {
                Ok(out) => {
                    counters.absorb(&out.counters);
                    for (k, p, o) in out.stats {
                        add(&mut stats.rows_processed, &k, p);
                        add(&mut stats.rows_out, &k, o);
                    }
                    if let Some((name, table)) = out.target {
                        targets.insert(name, table);
                    }
                    if let Some(ct) = out.cache {
                        cache_tables.push(ct);
                    }
                    if let Some(set) = out.staged {
                        if fan_left[t] == 0 {
                            free_set(rt.pool, &set);
                        } else {
                            staged[t] = Some(set);
                        }
                    }
                    for &d in &tg.deps[t] {
                        fan_left[d] -= 1;
                        if fan_left[d] == 0 {
                            if let Some(s) = staged[d].take() {
                                free_set(rt.pool, &s);
                            }
                        }
                    }
                    for &c in &tg.consumers[t] {
                        indeg[c] -= 1;
                        if indeg[c] == 0 {
                            ready.insert(c);
                        }
                    }
                }
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(bt, _)| t < *bt) {
                        first_err = Some((t, e));
                    }
                }
            }
        }
    });
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(cache_tables),
    }
}

/// The pipelined partition-parallel entry point (see the module docs).
pub(crate) fn run_parallel(
    ctx: ExecCtx<'_>,
    wf: &Workflow,
    cfg: StreamConfig,
    mut cache: Option<&mut SharedCache>,
) -> Result<StreamRun> {
    let nparts = cfg.parallelism.max(2);
    let graph = wf.graph();
    let order = graph.topo_order()?;
    let pool = BufferPool::new(PoolConfig {
        frame_budget: cfg.frame_budget,
        shards: nparts,
    });
    let mut counters = lane_counters(nparts);
    let plan = plan_cache(wf, &order, cache.as_deref_mut(), &mut counters)?;

    let mut stats = seeded_stats(graph, &order, &plan)?;

    let mut targets: BTreeMap<String, Table> = BTreeMap::new();
    let mut planner = Planner {
        graph,
        ctx: &ctx,
        plan: &plan,
        tasks: Vec::new(),
        task_out: Vec::new(),
        node_task: HashMap::new(),
        absorbed: HashSet::new(),
    };
    planner.plan_all(&order, &mut targets)?;
    let tg = planner.wire();

    let rt = Rt {
        pool: &pool,
        ctx: &ctx,
        nparts,
        batch_rows: cfg.batch_rows.max(1),
        chan_cap: cfg.channel_batches.max(1),
    };
    let cache_tables = schedule(&tg, &rt, &mut stats, &mut counters, &mut targets)?;

    // Cache admissions were deferred (tasks complete in schedule order);
    // apply them in topo order so the cache ends up exactly as a
    // sequential walk would have left it.
    if let (Some(c), Some(h)) = (cache, plan.hashes.as_ref()) {
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut inserts = cache_tables;
        inserts.sort_by_key(|(id, _)| pos.get(id).copied().unwrap_or(usize::MAX));
        for (id, table) in inserts {
            c.insert(h.of(id), Arc::new(table));
            counters.cache_insertions += 1;
        }
    }

    let pool_traffic = pool.counters();
    counters.absorb(&pool_traffic);
    Ok(StreamRun {
        result: ExecResult { targets, stats },
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::executor::Executor;
    use etlopt_core::scalar::Scalar;
    use etlopt_core::workflow::WorkflowBuilder;

    fn keyed_table(rows: i64) -> Table {
        Table::from_rows(
            Schema::of(["k", "v"]),
            (0..rows)
                .map(|i| {
                    vec![
                        Scalar::Int(i % 13),
                        if i % 7 == 0 {
                            Scalar::Null
                        } else {
                            Scalar::Float(i as f64)
                        },
                    ]
                })
                .collect(),
        )
        .expect("fixture rows match schema")
    }

    #[test]
    fn exchange_preserves_multiset_and_colocates_keys() {
        let mut counters = ExecCounters {
            worker_rows: vec![0; 4],
            ..ExecCounters::default()
        };
        let table = keyed_table(200);
        let input_rows = table.rows().to_vec();
        let set = distribute(table, 4, &mut counters);
        let out = exchange(&set, &[Attr::new("k")], 4, &mut counters).expect("exchange succeeds");

        // Union of partitions = input multiset, and tags survive intact.
        let mut merged = merge_tagged(out.parts.clone());
        assert_eq!(merged.len(), input_rows.len());
        let tags: Vec<u64> = merged.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, (0..200u64).collect::<Vec<_>>());
        let rows: Vec<Row> = merged.drain(..).map(|(_, r)| r).collect();
        assert_eq!(rows, input_rows);

        // Same key → same partition, and partitions stay tag-ascending.
        let probe = Table::empty(out.schema.clone());
        let kcol = probe.col(&Attr::new("k")).expect("k resolves");
        let mut home: HashMap<String, usize> = HashMap::new();
        for (j, part) in out.parts.iter().enumerate() {
            let mut last = None;
            for (tag, row) in part {
                assert!(last.is_none_or(|l| l < *tag), "tags ascend per partition");
                last = Some(*tag);
                let k = crate::catalog::canonical_key(&row[kcol]);
                assert_eq!(
                    *home.entry(k).or_insert(j),
                    j,
                    "key split across partitions"
                );
            }
        }
        assert!(home.len() > 1);
    }

    fn rich_workflow() -> etlopt_core::workflow::Workflow {
        use etlopt_core::predicate::Predicate;
        use etlopt_core::semantics::Aggregation;
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 300.0);
        let d = b.source("D", Schema::of(["k", "name"]), 40.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let hi = b.unary("HI", UnaryOp::filter(Predicate::gt("v", 150.0)), nn);
        let lo = b.unary("LO", UnaryOp::filter(Predicate::le("v", 150.0)), nn);
        let u = b.binary("U", BinaryOp::Union, hi, lo);
        let dd = b.unary("DD", UnaryOp::Dedup { selectivity: 1.0 }, u);
        let j = b.binary("J", BinaryOp::Join(vec![Attr::new("k")]), dd, d);
        let g = b.unary(
            "G",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
            j,
        );
        b.target("T1", Schema::of(["k", "v"]), g);
        b.target("T2", Schema::of(["k", "v"]), hi);
        b.build().expect("workflow builds")
    }

    fn rich_executor() -> Executor {
        let mut cat = Catalog::new();
        cat.insert("S", keyed_table(300));
        cat.insert(
            "D",
            Table::from_rows(
                Schema::of(["k", "name"]),
                (0..13)
                    .map(|i| vec![Scalar::Int(i), Scalar::from(format!("d{i}"))])
                    .collect(),
            )
            .expect("dimension fixture"),
        );
        Executor::new(cat)
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let wf = rich_workflow();
        let exec = rich_executor();
        let seq = exec.run_stream(&wf).expect("sequential run");
        for threads in [2, 3, 4] {
            let par = rich_executor()
                .with_parallelism(threads)
                .run_stream(&wf)
                .unwrap_or_else(|e| panic!("parallel run at {threads} threads: {e:?}"));
            assert_eq!(
                seq.result.targets, par.result.targets,
                "targets must be bit-identical at {threads} threads"
            );
            assert_eq!(
                seq.result.stats, par.result.stats,
                "stats must be bit-identical at {threads} threads"
            );
            assert_eq!(
                par.counters.worker_rows.len(),
                threads,
                "one lane per pipeline worker"
            );
            assert!(par.counters.worker_rows.iter().sum::<u64>() > 0);
            assert!(
                par.counters.pipeline_segments > 0,
                "pipelined runs count their segments: {:?}",
                par.counters
            );
        }
    }

    #[test]
    fn channel_capacity_does_not_change_results() {
        let wf = rich_workflow();
        let seq = rich_executor().run_stream(&wf).expect("sequential run");
        for cap in [1, 2, 8] {
            let par = rich_executor()
                .with_parallelism(3)
                .with_channel_batches(cap)
                .run_stream(&wf)
                .unwrap_or_else(|e| panic!("parallel run at capacity {cap}: {e:?}"));
            assert_eq!(seq.result.targets, par.result.targets, "capacity {cap}");
            assert_eq!(seq.result.stats, par.result.stats, "capacity {cap}");
            assert!(
                par.counters.channel_high_water <= cap as u64,
                "queue depth {} exceeds capacity {cap}",
                par.counters.channel_high_water
            );
        }
    }

    #[test]
    fn parallel_run_under_tiny_pool_spills_and_matches() {
        let mut b = WorkflowBuilder::new();
        use etlopt_core::predicate::Predicate;
        let s = b.source("S", Schema::of(["k", "v"]), 300.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let f = b.unary("F", UnaryOp::filter(Predicate::gt("v", 10.0)), nn);
        b.target("T", Schema::of(["k", "v"]), f);
        let wf = b.build().expect("workflow builds");
        let mut cat = Catalog::new();
        cat.insert("S", keyed_table(300));
        let seq = Executor::new(cat.clone())
            .with_stream_config(StreamConfig {
                batch_rows: 8,
                frame_budget: 2,
                parallelism: 1,
                ..StreamConfig::default()
            })
            .run_stream(&wf)
            .expect("sequential run");
        let par = Executor::new(cat)
            .with_stream_config(StreamConfig {
                batch_rows: 8,
                frame_budget: 2,
                parallelism: 4,
                ..StreamConfig::default()
            })
            .run_stream(&wf)
            .expect("parallel run");
        assert_eq!(seq.result.targets, par.result.targets);
        assert_eq!(seq.result.stats, par.result.stats);
        assert!(par.counters.spilled(), "{:?}", par.counters);
        assert!(par.counters.pages_staged > 0, "{:?}", par.counters);
    }

    #[test]
    fn chain_under_two_frame_pool_stages_spills_and_stays_bounded() {
        // A three-link chain with a dedup in the middle: the dedup's key
        // requirement forces an exchange, so rows are staged through the
        // pool between the two pipeline segments as well as at the
        // target drain. Under a 2-frame budget the staged sets must
        // spill, and the resident high-water must stay a small constant
        // (one frame per shard plus one pinned page per active reader)
        // rather than scaling with the 300-row input.
        use etlopt_core::predicate::Predicate;
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 300.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let dd = b.unary("DD", UnaryOp::Dedup { selectivity: 1.0 }, nn);
        let f = b.unary("F", UnaryOp::filter(Predicate::gt("v", 10.0)), dd);
        b.target("T", Schema::of(["k", "v"]), f);
        let wf = b.build().expect("workflow builds");
        let mut cat = Catalog::new();
        cat.insert("S", keyed_table(300));
        let tiny = StreamConfig {
            batch_rows: 8,
            frame_budget: 2,
            parallelism: 4,
            ..StreamConfig::default()
        };
        let seq = Executor::new(cat.clone())
            .with_stream_config(StreamConfig {
                parallelism: 1,
                ..tiny
            })
            .run_stream(&wf)
            .expect("sequential run");
        let par = Executor::new(cat)
            .with_stream_config(tiny)
            .run_stream(&wf)
            .expect("parallel run");
        assert_eq!(seq.result.targets, par.result.targets);
        assert_eq!(seq.result.stats, par.result.stats);
        assert!(par.counters.pages_staged > 0, "{:?}", par.counters);
        assert!(par.counters.pages_spilled > 0, "{:?}", par.counters);
        // ~38 pages of 8 rows flow through; residency must not track that.
        assert!(
            par.counters.peak_resident_frames <= 16,
            "resident high-water {} is not bounded",
            par.counters.peak_resident_frames
        );
    }

    #[test]
    fn butterfly_branches_overlap_in_flight() {
        // rich_workflow is a butterfly: S and D are independent roots,
        // and after NN stages, the HI and LO chains are both ready. The
        // scheduler fills its in-flight window before waiting on any
        // completion, so at parallelism ≥ 2 at least two tasks must have
        // been observed in flight together.
        let wf = rich_workflow();
        let par = rich_executor()
            .with_parallelism(2)
            .run_stream(&wf)
            .expect("parallel run");
        assert!(
            par.counters.peak_inflight_tasks >= 2,
            "independent branches should overlap: {:?}",
            par.counters
        );
        assert!(par.counters.pipeline_segments > 0);
        assert!(par.counters.channel_high_water >= 1);
        assert!(par.counters.worker_busy.iter().sum::<u64>() > 0);
    }

    #[test]
    fn parallel_cached_rerun_serves_targets_from_cache() {
        let wf = rich_workflow();
        let exec = rich_executor().with_parallelism(2);
        let mut cache = SharedCache::new();
        let first = exec.run_stream_cached(&wf, &mut cache).expect("first run");
        assert!(first.counters.cache_insertions > 0);
        let second = exec.run_stream_cached(&wf, &mut cache).expect("second run");
        assert!(second.counters.cache_hits > 0, "{:?}", second.counters);
        assert_eq!(first.result.targets, second.result.targets);
        // And a sequential consumer of the same cache sees the same
        // tables.
        let seq = rich_executor()
            .run_stream_cached(&wf, &mut cache)
            .expect("sequential cached run");
        assert_eq!(first.result.targets, seq.result.targets);
    }

    #[test]
    fn difference_and_intersection_match_sequential() {
        use etlopt_core::predicate::Predicate;
        for op in [BinaryOp::Difference, BinaryOp::Intersection] {
            let mut b = WorkflowBuilder::new();
            let s = b.source("S", Schema::of(["k", "v"]), 300.0);
            let nn = b.unary("NN", UnaryOp::not_null("v"), s);
            let hi = b.unary("HI", UnaryOp::filter(Predicate::gt("v", 150.0)), nn);
            let x = b.binary("X", op.clone(), nn, hi);
            b.target("T", Schema::of(["k", "v"]), x);
            let wf = b.build().expect("workflow builds");
            let mut cat = Catalog::new();
            cat.insert("S", keyed_table(300));
            let seq = Executor::new(cat.clone())
                .run_stream(&wf)
                .expect("sequential run");
            let par = Executor::new(cat)
                .with_parallelism(3)
                .run_stream(&wf)
                .expect("parallel run");
            assert_eq!(seq.result.targets, par.result.targets, "{op:?}");
            assert_eq!(seq.result.stats, par.result.stats, "{op:?}");
        }
    }
}
