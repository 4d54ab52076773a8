//! Pipelined partition-parallel streaming execution.
//!
//! Above `parallelism = 1` (with `StreamConfig::pipeline` on, the
//! default) the streaming backend runs a **pipelined** partitioned plan:
//!
//! * **Segments, not rounds.** Planning collapses each maximal
//!   re-route-free run of unary links into one *segment task*: rows flow
//!   source → link → link → sink inside one worker with no barrier
//!   between links. A table-fed segment reads no staged input at all —
//!   worker `j` reads its own round-robin share of the borrowed catalog
//!   rows, runs the segment's leading row-wise links on them
//!   ([`Program`]) and allocates only the survivors, once.
//! * **Rows change partition in one place: a routed sink.** Where a keyed
//!   link's co-location is unprovable, the segment closing before it
//!   stages its output as one part per (worker, destination) by
//!   [`keyed::route`] on the link's key columns, and worker `j` of the
//!   next task reads partition `j` as the tag-merge of the parts
//!   addressed to it. Every other re-route — a binary input, a keyed link
//!   first after a source, a union or a join — is a zero-link segment
//!   with a routed sink over its input. No row crosses a thread except
//!   through the pool.
//! * **The caller is partition 0.** The calling thread runs the tasks one
//!   after another in task-id (topological) order, and every partition
//!   of a task runs the same per-partition function, wherever it runs. A
//!   task *fans out* only when its input — a table's length, a staged
//!   set's rows, both sides of a binary — gives each of the N partitions
//!   a full batch (`N × batch_rows` rows): the caller then hands
//!   partitions 1..N to N − 1 workers, runs partition 0 itself and
//!   collects the replies in partition order. A smaller task never leaves
//!   the caller, which runs its N partitions in order, since a hand-off
//!   would cost more than the rows. The workers are spawned by the run's
//!   first task that fans out, so a run where none does spawns no thread.
//!   The caller's other row work is the fan-in the determinism contract
//!   forces anyway: target merges, cache admissions and join re-tagging.
//!   Independent DAG branches do not overlap.
//! * **Staged sets change hands.** Inter-segment partition sets never
//!   live in coordinator `Vec`s: workers stage their output through the
//!   one [`BufferPool`] as spill-eligible pages. A set with a single
//!   sequential consumer is *taken* back out page by page
//!   ([`BufferPool::take_page`]) — rows move, frames are released as
//!   they are read, and only pages the clock evicted ever see the spill
//!   codec. A set with several readers, a cache admission, or a join
//!   probing it by (part, position) is read shared, pin-on-read. The
//!   pool's frame budget bounds what is staged and not yet consumed; a
//!   routed sink holds at most one pending batch per destination. A
//!   target table is merged straight into its rows, since it is fully
//!   resident the moment it exists. `ExecCounters` records the
//!   staged-page traffic and the pipeline telemetry.
//!
//! # The determinism contract
//!
//! Targets, row order, and [`ExecStats`] must stay **bit-identical** to
//! the sequential stream at every thread count.
//! The machinery is shared with the round-synchronous backend
//! ([`super::roundsync`]):
//!
//! 1. **Order tags.** Every row carries a `u64` tag recording its
//!    position in the node's sequential output order. Staged parts
//!    persist the tag as a hidden trailing column and are tag-ascending,
//!    so a k-way merge by tag at any fan-in reconstructs the exact
//!    sequential order. Keep-first operators keep the minimum tag per
//!    key, aggregation tags each group with its first-seen input tag,
//!    joins compose `(left tag, right tag)` lexicographically before
//!    re-densifying.
//! 2. **Co-location.** Planning tracks each edge's partitioning
//!    [`Scheme`]; where a keyed link's requirement is unprovable the
//!    segment is split and its sink routes. A routed sink splits a
//!    tag-ascending stream, so every part it writes is tag-ascending, and
//!    the reader's tag-merge of a partition's parts is the partition in
//!    global tag order.
//! 3. **Deterministic absorption.** Partitions never touch shared
//!    counters: the coordinator folds each task's partition tallies in
//!    partition-index order, tasks in task-id order, so completion order
//!    cannot leak into `ExecStats` or the trace.
//!    Residency counters (spills, evictions, peak frames) remain
//!    schedule-dependent telemetry — nothing compares them bit-wise.
//!
//! A panic in a partition, on the caller or on a worker, is caught and
//! converted into a typed [`EngineError::WorkerPanicked`] naming that
//! partition.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock};

use etlopt_core::activity::Op;
use etlopt_core::error::CoreError;
use etlopt_core::graph::{Graph, Node, NodeId};
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{BinaryOp, Grouping, UnaryOp};
use etlopt_core::trace::ExecCounters;
use etlopt_core::workflow::Workflow;

use crate::error::{EngineError, Result};
use crate::executor::{ExecResult, ExecStats};
use crate::ops::{self, ExecCtx};
use crate::pool::{BufferId, BufferPool};
use crate::table::{Row, Table};

use super::kernel::{clone_row, cols_of, perm_for, permute, Kernel, LinkPlan, Program};
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
    /// The keys a set laid out by this scheme must be re-routed on before
    /// an op grouping on `grouping` runs over it, or `None` when the scheme
    /// already co-locates what the op groups. Hashing on a *subset* of the
    /// grouping keys suffices (equal key values imply equal subset values,
    /// hence the same partition), and any key scheme co-locates identical
    /// whole rows. A whole-row re-route hashes every column of `schema`.
    pub(super) fn reroute_keys(
        &self,
        grouping: Grouping<'_>,
        schema: &Schema,
    ) -> Option<Vec<Attr>> {
        let colocated = match (self, grouping) {
            (Scheme::Keys(s), Grouping::Keys(k)) => s.iter().all(|a| k.contains(a)),
            (Scheme::Keys(_), Grouping::WholeRow) => true,
            (Scheme::Arbitrary, _) => false,
        };
        (!colocated).then(|| match grouping {
            Grouping::Keys(k) => k.to_vec(),
            Grouping::WholeRow => schema.iter().cloned().collect(),
        })
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

/// One planned chain link: its execution plan, the op it runs (whose
/// grouping is the co-location it demands), and its schemas.
pub(super) struct Link {
    pub(super) plan: LinkPlan,
    pub(super) op: UnaryOp,
    pub(super) in_schema: Schema,
    pub(super) out_schema: Schema,
}

/// Plan every link of a unary chain up front — each compiled by
/// `LinkPlan::compile`, as the sequential `stream::unary_pipeline` does —
/// so schema errors surface before any data moves, in the same order the
/// sequential backend raises them.
pub(super) fn plan_chain(
    chain: &[UnaryOp],
    input_schema: &Schema,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<Link>> {
    let mut links = Vec::with_capacity(chain.len());
    let mut cur = input_schema.clone();
    for op in chain {
        let (plan, out_schema) = LinkPlan::compile(op, &cur, ctx)?;
        links.push(Link {
            plan,
            op: op.clone(),
            in_schema: cur.clone(),
            out_schema: out_schema.clone(),
        });
        cur = out_schema;
    }
    Ok(links)
}

/// How `op` transforms the partitioning scheme: a `Keys` claim survives
/// exactly when the op keeps every key attribute's values. Soundness, not
/// precision: degrading to `Arbitrary` merely forces a later re-route.
pub(super) fn scheme_after(op: &UnaryOp, scheme: Scheme) -> Scheme {
    match scheme {
        Scheme::Keys(keys) if keys.iter().all(|k| op.keeps(k)) => Scheme::Keys(keys),
        Scheme::Keys(_) | Scheme::Arbitrary => Scheme::Arbitrary,
    }
}

/// Execute one planned link over one whole partition (the
/// round-synchronous path): the pipelined [`LinkRt`], fed one batch.
pub(super) fn apply_link(link: &Link, part: &[Tagged]) -> Result<Vec<Tagged>> {
    let mut rt = LinkRt::new(&link.plan);
    let mut out = rt.run(part.to_vec())?;
    out.extend(rt.finish());
    Ok(out)
}

// ---------------------------------------------------------------------
// Staged partition sets: pool-resident, spill-eligible
// ---------------------------------------------------------------------

/// Hidden trailing column persisting each staged row's order tag — last,
/// so the writer `push`es it onto the row it was handed and the reader
/// `pop`s it off again, with no per-row `Vec` on either side. The control
/// character keeps it out of any plausible user attribute space; staging
/// still verifies no collision (schema construction would panic on a
/// duplicate attribute).
const TAG_ATTR: &str = "\u{1}tag";

/// Hidden trailing columns persisting a join's `u128` composite tag as
/// three 42-bit limbs (most-significant first, so limb-wise comparison is
/// the composite comparison).
const JTAG_ATTRS: [&str; 3] = ["\u{1}t2", "\u{1}t1", "\u{1}t0"];

fn hidden_schema(data: &Schema, hidden: &[&str]) -> Result<Schema> {
    for h in hidden {
        if data.contains(&Attr::new(*h)) {
            return Err(internal(format!(
                "data schema collides with reserved staging column {h:?}"
            )));
        }
    }
    Ok(data
        .iter()
        .cloned()
        .chain(hidden.iter().map(|h| Attr::new(*h)))
        .collect())
}

fn tag_cell(tag: u64) -> Result<Scalar> {
    i64::try_from(tag)
        .map(Scalar::Int)
        .map_err(|_| internal("order tag overflows the staging tag cell"))
}

fn cell_tag(cell: Option<&Scalar>) -> Result<u64> {
    match cell {
        Some(Scalar::Int(i)) if *i >= 0 => Ok(*i as u64),
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

/// The composite tag in the trailing [`JTAG_ATTRS`] cells of a staged row.
fn row_jtag(row: &[Scalar]) -> Result<u128> {
    let limbs = row.len().saturating_sub(JTAG_ATTRS.len());
    let mut tag = 0u128;
    for c in &row[limbs..] {
        tag = tag * JTAG_LIMB + u128::from(cell_tag(Some(c))?);
    }
    Ok(tag)
}

/// One staged partition: a pool buffer of `[data... | tag]` rows in
/// tag-ascending order, plus the metadata fan-in operators need without
/// faulting pages back in.
#[derive(Debug, Clone)]
struct StagedPart {
    buf: BufferId,
    rows: u64,
    max_tag: Option<u64>,
}

/// A task output staged through the pool, by destination partition:
/// `dests[j]` holds the parts partition `j` reads — its producer's own
/// part, or one part per producing worker when the producer's sink
/// routed. Every part is tag-ascending under a shared *data* schema (the
/// hidden tag column is a storage detail), and tags are unique across
/// the set. Buffer ownership is exclusive — the coordinator frees the
/// parts once the last consumer finishes.
type Dests = Vec<Vec<StagedPart>>;

/// A staged output as one consumer sees it.
#[derive(Debug, Clone)]
struct StagedSet {
    dests: Dests,
    /// This consumer is the set's only reader and reads it front to back,
    /// so pages change hands by ownership ([`BufferPool::take_page`])
    /// instead of being pinned and cloned out of.
    take: bool,
}

impl StagedSet {
    /// The parts partition `j` reads.
    fn dest(&self, j: usize) -> Result<&[StagedPart]> {
        self.dests
            .get(j)
            .map(Vec::as_slice)
            .ok_or_else(|| internal("staged input partition-count mismatch"))
    }

    /// Rows in the set, across every destination.
    fn rows(&self) -> u64 {
        self.dests.iter().map(|d| part_rows(d)).sum()
    }

    /// One past the largest tag in the set (0 when empty).
    fn tag_bound(&self) -> u64 {
        let max = self.dests.iter().flatten().filter_map(|p| p.max_tag).max();
        max.map_or(0, |t| t + 1)
    }
}

fn part_rows(parts: &[StagedPart]) -> u64 {
    parts.iter().map(|p| p.rows).sum()
}

fn free_parts<'a>(pool: &BufferPool, parts: impl IntoIterator<Item = &'a StagedPart>) {
    for p in parts {
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
    /// A writer of `data` rows under `hidden` trailing tag columns:
    /// [`TAG_ATTR`], or [`JTAG_ATTRS`] for join temp staging.
    fn new(rt: &Rt<'p>, data: &Schema, hidden: &[&str]) -> Result<Self> {
        Ok(StageWriter {
            pool: rt.pool,
            buf: rt.pool.create(hidden_schema(data, hidden)?),
            pending: Vec::new(),
            batch_rows: rt.batch_rows,
            rows: 0,
            max_tag: None,
            pages: 0,
        })
    }

    fn push(&mut self, tag: u64, mut row: Row) -> Result<()> {
        row.push(tag_cell(tag)?);
        self.max_tag = Some(tag);
        self.push_enc(row)
    }

    fn push_composite(&mut self, tag: u128, mut row: Row) -> Result<()> {
        row.extend(jtag_cells(tag)?);
        self.push_enc(row)
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

/// The page a [`PartReader`] is on: its own (taken) or a pinned shared one.
enum Page {
    Taken(std::vec::IntoIter<Row>),
    Shared { rows: Arc<Vec<Row>>, off: usize },
}

impl Page {
    fn cur(&self) -> Option<&Row> {
        match self {
            Page::Taken(it) => it.as_slice().first(),
            Page::Shared { rows, off } => rows.get(*off),
        }
    }

    fn remaining(&self) -> usize {
        match self {
            Page::Taken(it) => it.len(),
            Page::Shared { rows, off } => rows.len() - off,
        }
    }

    /// Advance past the current row and return its data cells: a taken row
    /// drops its `hidden` tag cells in place (keeping their capacity for
    /// the next staging), a shared one is cloned without them.
    fn pop(&mut self, hidden: usize) -> Option<Row> {
        match self {
            Page::Taken(it) => {
                let mut row = it.next()?;
                row.truncate(row.len().saturating_sub(hidden));
                Some(row)
            }
            Page::Shared { rows, off } => {
                let enc = rows.get(*off)?;
                *off += 1;
                let data = &enc[..enc.len().saturating_sub(hidden)];
                Some(clone_row(data, hidden))
            }
        }
    }
}

/// Streaming cursor over one staged part, one page at a time: taken out
/// of the pool when this reader is the part's only consumer, otherwise
/// faulted in and pinned while it is being read.
struct PartReader<'p> {
    pool: &'p BufferPool,
    buf: BufferId,
    hidden: usize,
    take: bool,
    npages: usize,
    next_page: usize,
    page: Option<Page>,
    /// Rows popped so far: the position of the current row in the part.
    read: usize,
}

impl<'p> PartReader<'p> {
    fn new(pool: &'p BufferPool, part: &StagedPart, take: bool) -> Self {
        PartReader {
            pool,
            buf: part.buf,
            hidden: 1,
            take,
            npages: pool.pages(part.buf),
            next_page: 0,
            page: None,
            read: 0,
        }
    }

    /// A reader over join temp staging, which only its writer's task
    /// reads: always taken.
    fn composite(pool: &'p BufferPool, part: &StagedPart) -> Self {
        PartReader {
            hidden: JTAG_ATTRS.len(),
            ..PartReader::new(pool, part, true)
        }
    }

    /// Current encoded row, moving to the next non-empty page if needed.
    fn cur(&mut self) -> Result<Option<&Row>> {
        while self.page.as_ref().is_none_or(|p| p.cur().is_none()) {
            // Unpin before faulting: a reader holds one page, not two.
            self.page = None;
            if self.next_page >= self.npages {
                return Ok(None);
            }
            self.page = Some(if self.take {
                Page::Taken(self.pool.take_page(self.buf, self.next_page)?.into_iter())
            } else {
                Page::Shared {
                    rows: self.pool.page(self.buf, self.next_page)?,
                    off: 0,
                }
            });
            self.next_page += 1;
        }
        Ok(self.page.as_ref().and_then(Page::cur))
    }

    fn peek_tag(&mut self) -> Result<Option<u64>> {
        match self.cur()? {
            Some(row) => Ok(Some(cell_tag(row.last())?)),
            None => Ok(None),
        }
    }

    fn peek_composite(&mut self) -> Result<Option<u128>> {
        match self.cur()? {
            Some(row) => Ok(Some(row_jtag(row)?)),
            None => Ok(None),
        }
    }

    /// The current row's data cells, advancing past it.
    fn pop(&mut self) -> Result<Row> {
        let hidden = self.hidden;
        self.read += 1;
        self.page
            .as_mut()
            .and_then(|p| p.pop(hidden))
            .ok_or_else(|| internal("staged reader advanced past its page"))
    }

    /// Decode and advance past the current row.
    fn next(&mut self) -> Result<Option<Tagged>> {
        match self.peek_tag()? {
            Some(tag) => Ok(Some((tag, self.pop()?))),
            None => Ok(None),
        }
    }

    /// Decode and advance past the current composite-tagged row.
    fn next_composite(&mut self) -> Result<Option<(u128, Row)>> {
        match self.peek_composite()? {
            Some(tag) => Ok(Some((tag, self.pop()?))),
            None => Ok(None),
        }
    }

    /// Decode up to `max` rows of the current page as a batch (empty at
    /// the end).
    fn next_page(&mut self, max: usize) -> Result<Vec<Tagged>> {
        let room = self.cur()?.map_or(0, |_| max);
        let mut out = Vec::with_capacity(room.min(self.page.as_ref().map_or(0, Page::remaining)));
        while out.len() < room {
            let Some(enc) = self.page.as_ref().and_then(Page::cur) else {
                break;
            };
            let tag = cell_tag(enc.last())?;
            out.push((tag, self.pop()?));
        }
        Ok(out)
    }
}

/// Streaming k-way tag merge over staged parts: the fan-in primitive, and
/// how a worker reads its partition of a staged set. Tags are unique
/// across a set's parts, so the merge is a total order.
struct MergeReader<'p> {
    readers: Vec<PartReader<'p>>,
}

impl<'p> MergeReader<'p> {
    fn new<'a>(
        pool: &'p BufferPool,
        parts: impl IntoIterator<Item = &'a StagedPart>,
        take: bool,
    ) -> Self {
        MergeReader {
            readers: parts
                .into_iter()
                .map(|p| PartReader::new(pool, p, take))
                .collect(),
        }
    }

    /// The reader holding the smallest next tag.
    fn pick(&mut self) -> Result<Option<usize>> {
        let mut best: Option<(u64, usize)> = None;
        for (i, r) in self.readers.iter_mut().enumerate() {
            if let Some(tag) = r.peek_tag()? {
                if best.is_none_or(|(bt, _)| tag < bt) {
                    best = Some((tag, i));
                }
            }
        }
        Ok(best.map(|(_, i)| i))
    }

    fn next(&mut self) -> Result<Option<Tagged>> {
        match self.pick()? {
            Some(i) => self.readers[i].next(),
            None => Ok(None),
        }
    }

    /// The next row with its address: (part index, position in the part).
    fn next_at(&mut self) -> Result<Option<((usize, usize), Tagged)>> {
        let Some(i) = self.pick()? else {
            return Ok(None);
        };
        let pos = self.readers[i].read;
        Ok(self.readers[i].next()?.map(|t| ((i, pos), t)))
    }

    /// The next batch of at most `max` rows in tag order (empty at the
    /// end). A lone part — every partition of an unrouted set — is read
    /// page-wise, without comparing tags.
    fn next_batch(&mut self, max: usize) -> Result<Vec<Tagged>> {
        if let [one] = self.readers.as_mut_slice() {
            return one.next_page(max);
        }
        let mut batch = Vec::with_capacity(max);
        while batch.len() < max {
            match self.next()? {
                Some(t) => batch.push(t),
                None => break,
            }
        }
        Ok(batch)
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

impl TableSrc {
    /// The rows to scan, and the permutation to the declared schema.
    fn table<'t>(&'t self, rt: &Rt<'t>) -> Result<(&'t Table, Option<&'t [usize]>)> {
        match self {
            TableSrc::Catalog { name, perm } => Ok((
                rt.ctx
                    .catalog
                    .table(name)
                    .ok_or_else(|| EngineError::MissingSource(name.clone()))?,
                perm.as_deref(),
            )),
            TableSrc::Cached(t) => Ok((t.as_ref(), None)),
        }
    }
}

/// A segment's input.
#[derive(Debug)]
enum Feed {
    /// Rows of a table, tagged with their table position: worker `j`
    /// reads rows `j, j+N, …` of the borrowed rows.
    Table(TableSrc),
    /// A staged task output: worker `j` reads partition `j`, the
    /// tag-merge of the parts addressed to it.
    Staged { from: usize },
}

/// One pipelined link inside a segment.
struct PipeLink {
    plan: PipePlan,
    in_schema: Schema,
    /// Stats key (the activity id) — `None` for recordset reorders.
    key: Option<String>,
    counts_processed: bool,
    counts_out: bool,
}

impl PipeLink {
    fn row_wise(&self) -> Option<&Kernel> {
        match &self.plan {
            PipePlan::Op {
                plan: LinkPlan::RowWise(kernel),
                ..
            } => Some(kernel),
            _ => None,
        }
    }
}

enum PipePlan {
    /// A planned operator link and the op it runs (planning reads the op's
    /// grouping and what it keeps to split segments).
    Op { plan: LinkPlan, op: UnaryOp },
    /// Recordset column permutation (no stats).
    Reorder(Vec<usize>),
    /// Empty merged chain: pass rows through, counting output only.
    Tally,
}

/// Where a segment's output goes.
#[derive(Debug)]
enum SegOut {
    /// Stage through the pool for downstream tasks, one part per worker.
    Stage,
    /// Stage one part per destination partition, routed by
    /// [`keyed::route`] on these columns: the only way rows change
    /// partition.
    Route(Vec<usize>),
    /// Merge by tag and materialize the named target table.
    Target(String),
    /// Dangling activity: executed for stats parity, rows dropped.
    Discard,
}

/// One maximal re-route-free run of links executed by the partition
/// workers.
struct SegmentPlan {
    feed: Feed,
    links: Vec<PipeLink>,
    /// How many leading links are row-wise ones a table scan runs on the
    /// borrowed rows, before allocating — the rule of `stream::Scan::fuse`:
    /// none under a permuting scan, whose stored rows are not laid out
    /// the way the links were compiled.
    fused: usize,
    out: SegOut,
    out_schema: Schema,
    /// Cache-admission node whose merged output should be inserted
    /// (deferred to end-of-run, applied in topo order).
    cache_node: Option<NodeId>,
}

impl SegmentPlan {
    fn new(feed: Feed, links: Vec<PipeLink>, out: SegOut, out_schema: Schema) -> Self {
        let fusable = match &feed {
            Feed::Table(src) => !matches!(src, TableSrc::Catalog { perm: Some(_), .. }),
            Feed::Staged { .. } => false,
        };
        SegmentPlan {
            fused: links
                .iter()
                .take_while(|l| fusable && l.row_wise().is_some())
                .count(),
            feed,
            links,
            out,
            out_schema,
            cache_node: None,
        }
    }
}

/// A planned binary operator over two staged inputs.
enum BinKind {
    /// Left rows verbatim, right rows tag-offset past the left tag
    /// space (permuted to the left schema).
    Union { perm: Option<Vec<usize>> },
    /// Partitioned hash join (build right, probe left, composite tags).
    Join {
        /// The empty index each partition clones and fills: key → (build
        /// row address, right tag).
        index: BuildProbe<((usize, usize), u64)>,
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

/// The planned task DAG. Tasks are numbered in creation order, which is
/// a topological order: a task only ever names inputs planned before it.
struct TaskGraph {
    tasks: Vec<TaskPlan>,
    /// Number of distinct consuming tasks (staged parts free when the
    /// last one finishes).
    fanout: Vec<usize>,
}

impl TaskPlan {
    /// Distinct input task ids.
    fn deps(&self) -> Vec<usize> {
        match self {
            TaskPlan::Segment(s) => match &s.feed {
                Feed::Table(_) => vec![],
                Feed::Staged { from } => vec![*from],
            },
            TaskPlan::Binary(b) if b.left == b.right => vec![b.left],
            TaskPlan::Binary(b) => vec![b.left, b.right],
        }
    }

    fn cache_node(&self) -> Option<NodeId> {
        match self {
            TaskPlan::Segment(s) => s.cache_node,
            TaskPlan::Binary(b) => b.cache_node,
        }
    }
}

impl TaskGraph {
    /// May the one consumer of `from`'s staged output take its pages? Only
    /// when nobody else reads them: no second consuming task, and no
    /// cache admission merging the same parts.
    fn sole_reader(&self, from: usize) -> bool {
        self.fanout[from] == 1 && self.tasks[from].cache_node().is_none()
    }
}

/// Static planner: walks the workflow in topo order, collapses maximal
/// unary runs into segments, splits segments at unprovable co-location
/// requirements (the closing segment's sink routes), and wires binary
/// tasks (inserting zero-link routed segments where a side must
/// re-route). All schema probing and catalog
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
                    let feed = Feed::Table(TableSrc::Cached(Arc::clone(t)));
                    let tid = self.push(
                        TaskPlan::Segment(SegmentPlan::new(
                            feed,
                            Vec::new(),
                            SegOut::Stage,
                            t.schema().clone(),
                        )),
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
                        Feed::Table(TableSrc::Catalog {
                            name: rs.name.clone(),
                            perm,
                        }),
                        rs.schema.clone(),
                        Scheme::Arbitrary,
                    )
                }
                Some(p) => {
                    let from = self.task_of(p)?;
                    let (ps, pscheme) = self.task_out[from].clone();
                    (Feed::Staged { from }, ps, pscheme)
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
                (Feed::Staged { from }, ps, pscheme)
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
                            key: Some(key),
                            counts_processed: false,
                            counts_out: true,
                        });
                    } else {
                        let last = planned.len() - 1;
                        for (i, l) in planned.into_iter().enumerate() {
                            schema = l.out_schema.clone();
                            links.push(PipeLink {
                                plan: PipePlan::Op {
                                    plan: l.plan,
                                    op: l.op,
                                },
                                in_schema: l.in_schema,
                                key: Some(key.clone()),
                                counts_processed: true,
                                counts_out: i == last,
                            });
                        }
                    }
                }
            }
        }

        // Split into re-route-free segments wherever a link's
        // co-location requirement is unprovable under the running scheme:
        // the segment closing there routes its output on the link's keys
        // (a zero-link one when no link ran yet).
        let mut cur_links: Vec<PipeLink> = Vec::new();
        for link in links {
            if let PipePlan::Op { op, .. } = &link.plan {
                let reroute = op
                    .grouping()
                    .and_then(|g| scheme.reroute_keys(g, &link.in_schema));
                if let Some(keys) = reroute {
                    let links = std::mem::take(&mut cur_links);
                    let from = self.routed(feed, links, &link.in_schema, &keys)?;
                    feed = Feed::Staged { from };
                    scheme = Scheme::Keys(keys);
                }
                scheme = scheme_after(op, scheme);
            }
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
        let seg = SegmentPlan {
            cache_node,
            ..SegmentPlan::new(feed, cur_links, out, schema.clone())
        };
        let tid = self.push(TaskPlan::Segment(seg), schema, scheme);
        self.node_task.insert(last_node, tid);
        Ok(())
    }

    /// A segment running `links` over `feed` whose sink routes its
    /// `schema` rows on `keys`.
    fn routed(
        &mut self,
        feed: Feed,
        links: Vec<PipeLink>,
        schema: &Schema,
        keys: &[Attr],
    ) -> Result<usize> {
        let out = SegOut::Route(cols_of(keys, schema)?);
        Ok(self.push(
            TaskPlan::Segment(SegmentPlan::new(feed, links, out, schema.clone())),
            schema.clone(),
            Scheme::Keys(keys.to_vec()),
        ))
    }

    /// A zero-link segment re-routing task `from`'s output on `keys`.
    fn reroute(&mut self, from: usize, schema: &Schema, keys: &[Attr]) -> Result<usize> {
        self.routed(Feed::Staged { from }, Vec::new(), schema, keys)
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
                        rt = self.reroute(rt, &rs_, &k)?;
                    }
                    (_, Scheme::Keys(b)) if subset(b) => {
                        let k = b.clone();
                        lt = self.reroute(lt, &ls, &k)?;
                        lscheme = Scheme::Keys(k);
                    }
                    _ => {
                        lt = self.reroute(lt, &ls, on)?;
                        rt = self.reroute(rt, &rs_, on)?;
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
                        rt = self.reroute(rt, &rs_, &k)?;
                    }
                    _ => {
                        let all: Vec<Attr> = ls.iter().cloned().collect();
                        lt = self.reroute(lt, &ls, &all)?;
                        rt = self.reroute(rt, &rs_, &all)?;
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

    /// Finish planning: count each task's consumers.
    fn wire(self) -> TaskGraph {
        let mut fanout = vec![0usize; self.tasks.len()];
        for t in &self.tasks {
            for p in t.deps() {
                fanout[p] += 1;
            }
        }
        TaskGraph {
            tasks: self.tasks,
            fanout,
        }
    }
}

// ---------------------------------------------------------------------
// Worker runtime: one partition of one task
// ---------------------------------------------------------------------

/// Immutable run-wide context shared by the coordinator and every worker.
struct Rt<'e> {
    pool: &'e BufferPool,
    ctx: &'e ExecCtx<'e>,
    nparts: usize,
    batch_rows: usize,
}

/// Per-run counters with the per-worker lanes sized for `nparts`.
fn lane_counters(nparts: usize) -> ExecCounters {
    ExecCounters {
        worker_rows: vec![0; nparts],
        worker_busy: vec![0; nparts],
        ..ExecCounters::default()
    }
}

/// One partition worker's result for one task.
#[derive(Default)]
struct WorkerOut {
    /// The staged output parts — none for a discard sink, one per
    /// destination for a routed one, else one.
    parts: Vec<StagedPart>,
    /// Pages those parts took.
    pages: u64,
    /// `(processed, out)` tallies: per link, in link order, for a
    /// segment; the one `(rows read, rows emitted)` pair for a binary.
    tallies: Vec<(u64, u64)>,
    /// Source rows this worker scanned in as its own, and how many of
    /// them outlived the scan's program and were allocated (table feeds).
    scanned: u64,
    materialized: u64,
    /// Batches this worker processed.
    busy: u64,
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
    fn new(plan: &'s LinkPlan) -> Self {
        match plan {
            LinkPlan::KeepFirst(cols) => LinkRt::KeepFirst(keyed::KeepFirst::new(cols.clone())),
            LinkPlan::Aggregate(state) => LinkRt::Aggregate {
                state: GroupBy::clone(state),
                first_tags: Vec::new(),
            },
            LinkPlan::RowWise(kernel) => LinkRt::RowWise(kernel),
        }
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

/// Where one worker's surviving rows are staged: no writer for a discard
/// sink (executed for stats parity, rows dropped), one per destination
/// partition when `route` names key columns, else one.
struct Sink<'s, 'p> {
    writers: Vec<StageWriter<'p>>,
    route: Option<&'s [usize]>,
    key: Vec<u8>,
}

impl<'s, 'p> Sink<'s, 'p> {
    fn new(out: &'s SegOut, schema: &Schema, rt: &Rt<'p>) -> Result<Self> {
        let (n, route) = match out {
            SegOut::Discard => (0, None),
            SegOut::Stage | SegOut::Target(_) => (1, None),
            SegOut::Route(cols) => (rt.nparts, Some(cols.as_slice())),
        };
        let writers = (0..n)
            .map(|_| StageWriter::new(rt, schema, &[TAG_ATTR]))
            .collect::<Result<_>>()?;
        Ok(Sink {
            writers,
            route,
            key: Vec::new(),
        })
    }

    fn push(&mut self, tag: u64, row: Row) -> Result<()> {
        let d = match self.route {
            Some(cols) => keyed::route(&mut self.key, &row, cols, self.writers.len()),
            None => 0,
        };
        match self.writers.get_mut(d) {
            Some(w) => w.push(tag, row),
            None => Ok(()),
        }
    }

    fn finish(self) -> Result<(Vec<StagedPart>, u64)> {
        let (mut parts, mut pages) = (Vec::with_capacity(self.writers.len()), 0);
        for w in self.writers {
            let (part, pg) = w.finish()?;
            parts.push(part);
            pages += pg;
        }
        Ok((parts, pages))
    }
}

/// One worker's running chain: every link of the segment the scan did not
/// fuse, its stats tallies, and the sink the survivors are staged into.
struct ChainRt<'s, 'p> {
    cells: Vec<LinkCell<'s>>,
    batch_rows: usize,
    sink: Sink<'s, 'p>,
    /// Batches pushed in.
    busy: u64,
}

impl<'s, 'p> ChainRt<'s, 'p> {
    fn new(seg: &'s SegmentPlan, rt: &Rt<'p>) -> Result<Self> {
        let mut cells = Vec::with_capacity(seg.links.len() - seg.fused);
        for link in &seg.links[seg.fused..] {
            let rt = match &link.plan {
                PipePlan::Op { plan, .. } => LinkRt::new(plan),
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
            batch_rows: rt.batch_rows,
            sink: Sink::new(&seg.out, &seg.out_schema, rt)?,
            busy: 0,
        })
    }

    fn push(&mut self, batch: Vec<Tagged>) -> Result<()> {
        self.busy += 1;
        self.feed(0, batch)
    }

    /// Run one batch through links `from..`, tallying as it shrinks or
    /// parks in blocking state, and stage what comes out the far end.
    fn feed(&mut self, from: usize, mut batch: Vec<Tagged>) -> Result<()> {
        for cell in &mut self.cells[from..] {
            if batch.is_empty() {
                return Ok(());
            }
            if cell.counts_processed {
                cell.processed += batch.len() as u64;
            }
            batch = cell.rt.run(batch)?;
            if cell.counts_out {
                cell.out += batch.len() as u64;
            }
        }
        for (tag, row) in batch {
            self.sink.push(tag, row)?;
        }
        Ok(())
    }

    /// End of input: release every blocking link's accumulated output
    /// down the remaining pipeline, in link order, close the sink, and
    /// report — the scan's fused-link `tallies` first, then the chain's.
    fn finish(mut self, mut tallies: Vec<(u64, u64)>) -> Result<WorkerOut> {
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
                self.feed(i + 1, chunk)?;
            }
        }
        tallies.extend(self.cells.iter().map(|c| (c.processed, c.out)));
        let (parts, pages) = self.sink.finish()?;
        Ok(WorkerOut {
            parts,
            pages,
            tallies,
            busy: self.busy,
            ..WorkerOut::default()
        })
    }
}

/// What one work item owns of its task's inputs.
enum Work {
    /// A table-fed segment: the worker scans the borrowed table itself.
    Scan,
    /// A staged-fed segment: read partition `j` of the set.
    Staged(StagedSet),
    /// A binary task over two co-located inputs.
    Binary(StagedSet, StagedSet),
}

/// Worker `j`'s share of a source table: rows `j, j+N, …`, each tagged
/// with its table position. The segment's fused links run on the
/// borrowed row; only survivors are allocated, once, with a spare cell so
/// staging never reallocates them.
fn scan_table(
    seg: &SegmentPlan,
    src: &TableSrc,
    j: usize,
    rt: &Rt<'_>,
    mut chain: ChainRt<'_, '_>,
) -> Result<WorkerOut> {
    let (table, perm) = src.table(rt)?;
    let fused_links = &seg.links[..seg.fused];
    let mut program = Program::new(perm.map(<[usize]>::to_vec), 1);
    for kernel in fused_links.iter().filter_map(PipeLink::row_wise) {
        program.push(kernel.clone());
    }
    let (mut scanned, mut materialized) = (0u64, 0u64);
    let mut batch = Vec::new();
    for (i, row) in table.rows().iter().enumerate().skip(j).step_by(rt.nparts) {
        scanned += 1;
        if let Some(lent) = program.run(row)? {
            materialized += 1;
            batch.push((i as u64, lent.into_row()));
            if batch.len() >= rt.batch_rows {
                chain.push(std::mem::take(&mut batch))?;
            }
        }
    }
    if !batch.is_empty() {
        chain.push(batch)?;
    }
    let mut tallies = Vec::with_capacity(seg.links.len());
    program.drain_tallies(|i, processed, passed| {
        let out = if fused_links[i].counts_out { passed } else { 0 };
        tallies.push((processed, out));
    });
    Ok(WorkerOut {
        scanned,
        materialized,
        ..chain.finish(tallies)?
    })
}

/// Run partition `j` of a segment: feed the chain from the segment's
/// source, flush blocking state at end-of-stream, close the sink.
fn run_segment_part(seg: &SegmentPlan, j: usize, work: Work, rt: &Rt<'_>) -> Result<WorkerOut> {
    let mut chain = ChainRt::new(seg, rt)?;
    match (&seg.feed, work) {
        (Feed::Table(src), Work::Scan) => scan_table(seg, src, j, rt, chain),
        (Feed::Staged { .. }, Work::Staged(set)) => {
            let mut reader = MergeReader::new(rt.pool, set.dest(j)?, set.take);
            loop {
                let batch = reader.next_batch(rt.batch_rows)?;
                if batch.is_empty() {
                    break;
                }
                chain.push(batch)?;
            }
            chain.finish(Vec::new())
        }
        _ => Err(internal("work item does not match its segment's feed")),
    }
}

/// Run partition `j` of a binary task. Both inputs were aligned
/// (co-located) at planning time, so each partition works independently.
/// Input buffers are owned by the coordinator — never freed here.
fn run_binary_part(
    bp: &BinaryPlan,
    j: usize,
    left: &StagedSet,
    right: &StagedSet,
    rt: &Rt<'_>,
) -> Result<WorkerOut> {
    let (lparts, rparts) = (left.dest(j)?, right.dest(j)?);
    let read = part_rows(lparts) + part_rows(rparts);
    let mut lr = MergeReader::new(rt.pool, lparts, left.take);
    let mut rr = MergeReader::new(rt.pool, rparts, right.take);
    let mut w = match (&bp.out, &bp.kind) {
        (SegOut::Discard, _) => None,
        // Join matches are staged under their composite tags first.
        (_, BinKind::Join { .. }) => Some(StageWriter::new(rt, &bp.out_schema, &JTAG_ATTRS)?),
        _ => Some(StageWriter::new(rt, &bp.out_schema, &[TAG_ATTR])?),
    };
    let mut emitted = 0u64;
    match &bp.kind {
        BinKind::Union { perm } => {
            // Sequential union order: every left row, then every right
            // row — realized by offsetting right tags past the left tag
            // space.
            let lbase = left.tag_bound();
            if let Some(w) = &mut w {
                while let Some((tag, row)) = lr.next()? {
                    w.push(tag, row)?;
                }
                while let Some((tag, mut row)) = rr.next()? {
                    if let Some(p) = perm {
                        permute(&mut row, p);
                    }
                    let shifted = tag
                        .checked_add(lbase)
                        .ok_or_else(|| internal("union tag overflow"))?;
                    w.push(shifted, row)?;
                }
            }
            emitted = read;
        }
        BinKind::Join { index, extra } => {
            // Composite output tag (left tag, right tag), lexicographic —
            // the sequential probe emission order (left rows in order,
            // each row's matches in right insertion order).
            let rbound = u128::from(right.tag_bound()).max(1);
            // Build this partition's right index — key → ((part, position),
            // right tag) — then probe the left stream, fetching each
            // match's extra columns back out of the staged build side
            // (which is why the coordinator never lets that side be
            // taken). NULL keys are never indexed and never probe: they
            // never join.
            let mut index = index.clone();
            while let Some((at, (rtag, row))) = rr.next_at()? {
                index.insert(&row, (at, rtag));
            }
            while let Some((ltag, lrow)) = lr.next()? {
                for &((part, pos), rtag) in index.probe(&lrow) {
                    emitted += 1;
                    if let Some(w) = &mut w {
                        let buf = rparts
                            .get(part)
                            .ok_or_else(|| internal("join build row outside its partition"))?
                            .buf;
                        let mut row =
                            Vec::with_capacity(lrow.len() + extra.len() + JTAG_ATTRS.len());
                        row.extend_from_slice(&lrow);
                        rt.pool.append_cells(buf, pos, extra, &mut row)?;
                        let ctag = u128::from(ltag) * rbound + u128::from(rtag);
                        w.push_composite(ctag, row)?;
                    }
                }
            }
        }
        BinKind::DiffIntersect { intersect, perm } => {
            // Equal rows co-locate, so this partition's multiplicity map
            // is the sequential map restricted to its keys; left rows
            // cancel (or survive) in tag order. The right side is keyed
            // through its permutation to the left schema, so both sides'
            // keys agree.
            let mut counts = BagCounts::new(perm.clone());
            while let Some((_, row)) = rr.next()? {
                counts.add(&row);
            }
            while let Some((tag, row)) = lr.next()? {
                if counts.cancel(&row) == *intersect {
                    emitted += 1;
                    if let Some(w) = &mut w {
                        w.push(tag, row)?;
                    }
                }
            }
        }
    }
    let (parts, pages) = match w {
        Some(w) => {
            let (part, pages) = w.finish()?;
            (vec![part], pages)
        }
        None => (Vec::new(), 0),
    };
    Ok(WorkerOut {
        parts,
        pages,
        tallies: vec![(read, emitted)],
        ..WorkerOut::default()
    })
}

/// Run partition `part` of task `t` on `work`: the one per-partition
/// function, called by the coordinator for the partitions it runs itself
/// and by the workers for theirs. A panic is caught and reported as this
/// partition's typed error.
fn run_part(tg: &TaskGraph, rt: &Rt<'_>, t: usize, part: usize, work: Work) -> Result<WorkerOut> {
    let run = move || match (&tg.tasks[t], work) {
        (TaskPlan::Segment(seg), work) => run_segment_part(seg, part, work, rt),
        (TaskPlan::Binary(bp), Work::Binary(left, right)) => {
            run_binary_part(bp, part, &left, &right, rt)
        }
        (TaskPlan::Binary(_), _) => Err(internal("binary task without its two inputs")),
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|p| Err(panicked(part, p.as_ref())))
}

/// The worker of partition `part`: it runs its partition of every task
/// the coordinator hands it, replying in task order, until the
/// coordinator hangs up.
fn worker_loop(
    part: usize,
    items: mpsc::Receiver<(usize, Work)>,
    replies: mpsc::Sender<Result<WorkerOut>>,
    tg: &TaskGraph,
    rt: &Rt<'_>,
) {
    for (t, work) in items {
        if replies.send(run_part(tg, rt, t, part, work)).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator: tasks in topological order, fan-in on the calling thread
// ---------------------------------------------------------------------

/// Merge staged parts back into sequential row order, straight into the
/// table's rows.
fn merge_to_table(rt: &Rt<'_>, schema: &Schema, dests: &Dests, take: bool) -> Result<Table> {
    let total: u64 = dests.iter().map(|d| part_rows(d)).sum();
    let mut rows = Vec::with_capacity(total as usize);
    let mut merge = MergeReader::new(rt.pool, dests.iter().flatten(), take);
    while let Some((_, row)) = merge.next()? {
        rows.push(row);
    }
    Table::from_rows(schema.clone(), rows)
}

/// Phase 2 of a join: k-way merge the workers' composite-tagged temp
/// parts in global composite order, re-densifying to `u64` tags while
/// keeping each row in its partition. Returns the final parts and the
/// pages they took.
fn retag_join(
    rt: &Rt<'_>,
    schema: &Schema,
    temps: &[StagedPart],
) -> Result<(Vec<StagedPart>, u64)> {
    let mut readers: Vec<PartReader<'_>> = temps
        .iter()
        .map(|p| PartReader::composite(rt.pool, p))
        .collect();
    let mut writers = Vec::with_capacity(temps.len());
    for _ in temps {
        writers.push(StageWriter::new(rt, schema, &[TAG_ATTR])?);
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
    free_parts(rt.pool, temps);
    let mut parts = Vec::with_capacity(writers.len());
    let mut pages = 0;
    for w in writers {
        let (part, pg) = w.finish()?;
        pages += pg;
        parts.push(part);
    }
    Ok((parts, pages))
}

/// A spawned partition worker's two queues.
struct Worker {
    items: mpsc::Sender<(usize, Work)>,
    replies: mpsc::Receiver<Result<WorkerOut>>,
}

/// The coordinator's state across tasks: the workers, the staged sets
/// awaiting consumers, and the run's results so far.
struct Coordinator<'s, 'e> {
    /// The run's thread scope, which the workers are spawned into.
    scope: &'s std::thread::Scope<'s, 'e>,
    tg: &'e TaskGraph,
    rt: &'e Rt<'e>,
    /// The workers of partitions 1..N, spawned by the first task that
    /// fans out — none in a run where no task does.
    workers: Vec<Worker>,
    /// Staged outputs awaiting their consumers, and how many are left.
    staged: Vec<Option<Dests>>,
    fan_left: Vec<usize>,
    stats: &'s mut ExecStats,
    counters: &'s mut ExecCounters,
    targets: &'s mut BTreeMap<String, Table>,
    /// Cache admissions, deferred to end-of-run.
    cache_tables: Vec<(NodeId, Table)>,
}

impl Coordinator<'_, '_> {
    /// `from`'s staged output as one consumer sees it; `sequential` is
    /// false when that consumer does not read it once, front to back.
    fn input(&self, from: usize, sequential: bool) -> Result<StagedSet> {
        let dests = self.staged[from]
            .clone()
            .ok_or_else(|| internal(format!("task {from} has no staged output")))?;
        Ok(StagedSet {
            dests,
            take: sequential && self.tg.sole_reader(from),
        })
    }

    /// Run partition `j` of task `t` on `work()` for every `j` and return
    /// the results in partition order; when several partitions fail the
    /// lowest wins. The task fans out only when its `rows` of input give
    /// every partition a full batch: then the workers run partitions
    /// 1..N while this thread runs partition 0. Below that, a hand-off
    /// would cost more than the rows, and this thread runs every
    /// partition itself, in order.
    fn dispatch(&mut self, t: usize, rows: u64, work: impl Fn() -> Work) -> Result<Vec<WorkerOut>> {
        let (tg, rt) = (self.tg, self.rt);
        let full = (rt.nparts as u64).saturating_mul(rt.batch_rows as u64);
        if rows < full {
            return (0..rt.nparts)
                .map(|j| run_part(tg, rt, t, j, work()))
                .collect();
        }
        if self.workers.is_empty() {
            for part in 1..rt.nparts {
                let (items_tx, items) = mpsc::channel();
                let (replies_tx, replies) = mpsc::channel();
                self.scope
                    .spawn(move || worker_loop(part, items, replies_tx, tg, rt));
                self.workers.push(Worker {
                    items: items_tx,
                    replies,
                });
            }
        }
        for (i, w) in self.workers.iter().enumerate() {
            w.items
                .send((t, work()))
                .map_err(|_| internal(format!("partition worker {} is gone", i + 1)))?;
        }
        let mut outs = Vec::with_capacity(rt.nparts);
        outs.push(run_part(tg, rt, t, 0, work()));
        for (i, w) in self.workers.iter().enumerate() {
            let lost = |_| internal(format!("partition worker {} produced no result", i + 1));
            outs.push(w.replies.recv().map_err(lost)?);
        }
        outs.into_iter().collect()
    }

    /// Execute task `t` end to end and fold its workers' results — in
    /// partition-index order, never completion order — into the run.
    fn run_task(&mut self, t: usize) -> Result<()> {
        let rt = self.rt;
        let task = &self.tg.tasks[t];
        // Per stats key (`None` for a recordset reorder), in tally order.
        let (keys, workers): (Vec<Option<&String>>, _) = match task {
            TaskPlan::Segment(seg) => {
                self.counters.pipeline_segments += 1;
                let done = match &seg.feed {
                    Feed::Table(src) => {
                        let rows = src.table(rt)?.0.len() as u64;
                        self.dispatch(t, rows, || Work::Scan)?
                    }
                    Feed::Staged { from } => {
                        let set = self.input(*from, true)?;
                        self.dispatch(t, set.rows(), || Work::Staged(set.clone()))?
                    }
                };
                (seg.links.iter().map(|l| l.key.as_ref()).collect(), done)
            }
            TaskPlan::Binary(bp) => {
                // One task reading a set twice shares it, and so does a
                // join's build side, which is probed by (part, position).
                let apart = bp.left != bp.right;
                let build = matches!(bp.kind, BinKind::Join { .. });
                let left = self.input(bp.left, apart)?;
                let right = self.input(bp.right, apart && !build)?;
                let rows = left.rows() + right.rows();
                let both = || Work::Binary(left.clone(), right.clone());
                (vec![Some(&bp.key)], self.dispatch(t, rows, both)?)
            }
        };

        let counters = &mut *self.counters;
        for (j, w) in workers.iter().enumerate() {
            counters.worker_rows[j] += w.scanned;
            counters.rows_scanned += w.scanned;
            counters.rows_materialized += w.materialized;
            counters.worker_busy[j] += w.busy;
            counters.batches += w.busy;
        }
        for (li, key) in keys.into_iter().enumerate() {
            if let Some(key) = key {
                let p: u64 = workers.iter().map(|w| w.tallies[li].0).sum();
                let o: u64 = workers.iter().map(|w| w.tallies[li].1).sum();
                add(&mut self.stats.rows_processed, key, p);
                add(&mut self.stats.rows_out, key, o);
            }
        }
        let (out, out_schema, cache_node) = match task {
            TaskPlan::Segment(s) => (&s.out, &s.out_schema, s.cache_node),
            TaskPlan::Binary(b) => (&b.out, &b.out_schema, b.cache_node),
        };
        // Worker `w`'s `i`-th part is addressed to destination `i` when its
        // sink routed, else to its own partition `w`.
        let routed = matches!(out, SegOut::Route(_));
        let mut dests: Dests = vec![Vec::new(); rt.nparts];
        for (j, w) in workers.into_iter().enumerate() {
            counters.pages_staged += w.pages;
            for (i, part) in w.parts.into_iter().enumerate() {
                let d = if routed { i } else { j };
                if routed {
                    counters.worker_rows[d] += part.rows;
                }
                dests[d].push(part);
            }
        }
        if let TaskPlan::Binary(b) = task {
            if let BinKind::Join { .. } = b.kind {
                let temps: Vec<StagedPart> = dests.into_iter().flatten().collect();
                let (dense, pages) = retag_join(rt, &b.out_schema, &temps)?;
                counters.pages_staged += pages;
                dests = dense.into_iter().map(|p| vec![p]).collect();
            }
        }
        match out {
            SegOut::Stage | SegOut::Route(_) => {
                // The consumers still need the parts: the cache admission
                // reads them shared.
                if let Some(node) = cache_node {
                    let table = merge_to_table(rt, out_schema, &dests, false)?;
                    self.cache_tables.push((node, table));
                }
                if self.fan_left[t] == 0 {
                    free_parts(rt.pool, dests.iter().flatten());
                } else {
                    self.staged[t] = Some(dests);
                }
            }
            SegOut::Target(name) => {
                let table = merge_to_table(rt, out_schema, &dests, true)?;
                free_parts(rt.pool, dests.iter().flatten());
                if let Some(node) = cache_node {
                    self.cache_tables.push((node, table.clone()));
                }
                self.targets.insert(name.clone(), table);
            }
            SegOut::Discard => {}
        }
        // Staged inputs are freed the moment their last consumer completes
        // — the refcount, not the DAG's depth, bounds pool residency.
        for d in task.deps() {
            self.fan_left[d] -= 1;
            if self.fan_left[d] == 0 {
                if let Some(dests) = self.staged[d].take() {
                    free_parts(rt.pool, dests.iter().flatten());
                }
            }
        }
        Ok(())
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
    let pool = BufferPool::new(cfg.frame_budget);
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
    };
    // Everything the workers borrow is built. The tasks run one after
    // another on this thread, in task-id (topological) order, so the first
    // failing task is the error surfaced; leaving the scope — on success
    // or on `?` — hangs up on whatever workers the run spawned, which then
    // exit and are joined.
    let mut cache_tables = Vec::new();
    if !tg.tasks.is_empty() {
        counters.peak_inflight_tasks = 1;
        cache_tables = std::thread::scope(|scope| {
            let mut co = Coordinator {
                scope,
                tg: &tg,
                rt: &rt,
                workers: Vec::new(),
                staged: tg.tasks.iter().map(|_| None).collect(),
                fan_left: tg.fanout.clone(),
                stats: &mut stats,
                counters: &mut counters,
                targets: &mut targets,
                cache_tables: Vec::new(),
            };
            (0..tg.tasks.len()).try_for_each(|t| co.run_task(t))?;
            Ok::<_, EngineError>(co.cache_tables)
        })?;
    }

    // A task admits under its chain's *last* node, so task order is not
    // node order: apply the admissions in topo order, leaving the cache
    // exactly as a sequential walk would have left it.
    if let (Some(c), Some(h)) = (cache, plan.hashes.as_ref()) {
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        cache_tables.sort_by_key(|(id, _)| pos.get(id).copied().unwrap_or(usize::MAX));
        for (id, table) in cache_tables {
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

    /// Where the rows run. A function activity records the thread of
    /// every call: with every task below `nparts × batch_rows` input rows
    /// each call runs on the calling thread; with a source of that many
    /// rows the scan fans out and the calls span the caller and a worker.
    /// Either way the run equals the sequential stream.
    #[test]
    fn a_task_fans_out_only_when_every_partition_gets_a_full_batch() {
        use crate::functions::FunctionRegistry;
        use etlopt_core::semantics::Aggregation;
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};

        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 300.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let w = b.unary("W", UnaryOp::function("where", ["v"], "w"), nn);
        let g = b.unary(
            "G",
            UnaryOp::aggregate(Aggregation::sum(["k"], "w", "w")),
            w,
        );
        b.target("ROWS", Schema::of(["k", "w"]), w);
        b.target("SUMS", Schema::of(["k", "w"]), g);
        let wf = b.build().expect("workflow builds");

        let seen: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
        let mut fns = FunctionRegistry::builtin();
        let log = Arc::clone(&seen);
        fns.register("where", move |args| {
            log.lock()
                .expect("no call panics")
                .insert(thread::current().id());
            Ok(args[0].clone())
        });
        let me = thread::current().id();
        for threads in [2usize, 4] {
            let full = threads * 16;
            for (rows, fans_out) in [(full - 1, false), (full, true)] {
                let mut cat = Catalog::new();
                cat.insert("S", keyed_table(rows as i64));
                let exec = Executor::new(cat).with_functions(fns.clone());
                let cfg = StreamConfig {
                    batch_rows: 16,
                    ..StreamConfig::default()
                };
                let seq = exec
                    .clone()
                    .with_stream_config(cfg)
                    .run_stream(&wf)
                    .expect("sequential run");
                seen.lock().expect("no call panics").clear();
                let par = exec
                    .with_stream_config(StreamConfig {
                        parallelism: threads,
                        ..cfg
                    })
                    .run_stream(&wf)
                    .expect("parallel run");
                let cell = format!("{rows} rows at {threads} threads");
                assert_eq!(seq.result.targets, par.result.targets, "{cell}");
                assert_eq!(seq.result.stats, par.result.stats, "{cell}");
                let seen = seen.lock().expect("no call panics");
                assert!(seen.contains(&me), "{cell}: the caller runs partition 0");
                assert_eq!(seen.len() > 1, fans_out, "{cell}: {} threads", seen.len());
            }
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
        // requirement makes the segment before it route its sink, so
        // rows are staged through the pool between the two segments as
        // well as at the target drain. Under a 2-frame budget the staged
        // sets must spill, and the resident high-water must stay a small
        // constant (the frame budget plus one pinned page per active
        // reader) rather than scaling with the 300-row input.
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
    fn butterfly_run_reports_its_pipeline_telemetry() {
        // rich_workflow is a butterfly (S and D are independent roots, HI
        // and LO both hang off NN) with a dedup and a join behind routed
        // sinks. Tasks run one at a time on the calling thread.
        let wf = rich_workflow();
        let par = rich_executor()
            .with_parallelism(2)
            .run_stream(&wf)
            .expect("parallel run");
        assert_eq!(par.counters.peak_inflight_tasks, 1, "{:?}", par.counters);
        assert!(par.counters.pipeline_segments > 0);
        assert!(par.counters.pages_staged > 0, "{:?}", par.counters);
        // Routed sinks count the rows they address to each worker on top
        // of the source scans: more rows change hands than were scanned.
        let routed: u64 = par.counters.worker_rows.iter().sum();
        assert!(routed > par.counters.rows_scanned, "{:?}", par.counters);
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
