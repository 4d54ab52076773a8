//! Round-synchronous partition-parallel execution (the PR 6 coordinator).
//!
//! This is the original partitioned backend: the coordinator walks the
//! workflow topologically one node at a time, fans workers out per
//! operator round (`per_part`), joins them at a barrier, and holds every
//! node's partition set in coordinator memory between rounds. It is kept
//! as a selectable backend (`StreamConfig { pipeline: false, .. }`) for
//! two reasons:
//!
//! * The benchmark's `engine_seq` workload times it against the pipelined
//!   executor (`exec.roundsync2.rows_per_s` vs `exec.par2.rows_per_s`),
//!   keeping the claimed win honest.
//! * The conformance oracle cross-checks it as a third independent
//!   implementation of the same determinism contract.
//!
//! The determinism machinery (order tags, the scheme lattice, key
//! routing, worker-index-order absorption) lives in
//! [`super::partition`] and is shared with the pipelined executor.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use etlopt_core::activity::Op;
use etlopt_core::error::CoreError;
use etlopt_core::graph::{Node, NodeId};
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{BinaryOp, Grouping, UnaryOp};
use etlopt_core::trace::ExecCounters;
use etlopt_core::workflow::Workflow;

use crate::error::{EngineError, Result};
use crate::executor::{ExecResult, ExecStats};
use crate::ops::{self, ExecCtx};
use crate::pool::{BufferId, BufferPool};
use crate::table::{Row, Table};

use super::keyed::{BagCounts, BuildProbe};
use super::partition::{
    apply_link, distribute, exchange, internal, max_tag, merge_rows, per_part, plan_chain,
    reorder_set, retag_dense, scheme_after, set_rows, PartSet, Scheme,
};
use super::{add, plan_cache, seeded_stats, SharedCache, StreamConfig, StreamRun};

/// Shared state of one round-synchronous partition-parallel run.
struct ParRuntime<'a> {
    pool: BufferPool,
    stats: ExecStats,
    counters: ExecCounters,
    ctx: ExecCtx<'a>,
    batch_rows: usize,
    nparts: usize,
}

impl ParRuntime<'_> {
    /// Exchange `set` if its scheme cannot prove the co-location an op
    /// grouping on `grouping` needs.
    fn exchange_for(&mut self, set: PartSet, grouping: Grouping<'_>) -> Result<PartSet> {
        match set.scheme.reroute_keys(grouping, &set.schema) {
            None => Ok(set),
            Some(keys) => exchange(&set, &keys, self.nparts, &mut self.counters),
        }
    }

    /// Run a unary chain (a single op is a one-link chain) under one
    /// activity key: every link counts `rows_processed`, only the last
    /// counts `rows_out` — the sequential pipeline's pricing.
    fn run_chain(&mut self, chain: &[UnaryOp], mut set: PartSet, key: &str) -> Result<PartSet> {
        let links = plan_chain(chain, &set.schema, &self.ctx)?;
        if links.is_empty() {
            // Empty merged chain: pass rows through, count output only
            // (the sequential `Tally`).
            add(&mut self.stats.rows_out, key, set_rows(&set));
            return Ok(set);
        }
        let last = links.len() - 1;
        for (i, link) in links.iter().enumerate() {
            if let Some(grouping) = link.op.grouping() {
                set = self.exchange_for(set, grouping)?;
            }
            add(&mut self.stats.rows_processed, key, set_rows(&set));
            let scheme = scheme_after(&link.op, set.scheme.clone());
            let input = &set;
            let parts = per_part(self.nparts, |j| apply_link(link, &input.parts[j]))?;
            set = PartSet {
                schema: link.out_schema.clone(),
                scheme,
                parts,
            };
            if i == last {
                add(&mut self.stats.rows_out, key, set_rows(&set));
            }
        }
        Ok(set)
    }

    /// Run one binary activity: partitioned hash join, union, or bag
    /// difference/intersection.
    fn run_binary(
        &mut self,
        op: &BinaryOp,
        left: PartSet,
        right: PartSet,
        key: &str,
    ) -> Result<PartSet> {
        // Probe with empty inputs first: schema validation and output
        // derivation go through the exact materializing code path, like
        // the sequential `binary_pipeline`.
        let out_schema = ops::exec_binary(
            op,
            &Table::empty(left.schema.clone()),
            &Table::empty(right.schema.clone()),
        )?
        .schema()
        .clone();
        match op {
            BinaryOp::Union => {
                let right = reorder_set(right, &left.schema)?;
                let total = set_rows(&left) + set_rows(&right);
                add(&mut self.stats.rows_processed, key, total);
                add(&mut self.stats.rows_out, key, total);
                // Sequential union order: every left row, then every
                // right row — realized by offsetting right tags past
                // the left tag space.
                let lbase = max_tag(&left).map_or(0, |t| t + 1);
                let scheme = if left.scheme == right.scheme {
                    left.scheme.clone()
                } else {
                    Scheme::Arbitrary
                };
                let parts = left
                    .parts
                    .into_iter()
                    .zip(right.parts)
                    .map(|(mut l, r)| {
                        l.extend(r.into_iter().map(|(t, row)| (t + lbase, row)));
                        l
                    })
                    .collect();
                Ok(PartSet {
                    schema: out_schema,
                    scheme,
                    parts,
                })
            }
            BinaryOp::Join(on) => self.run_join(on, left, right, out_schema, key),
            BinaryOp::Difference | BinaryOp::Intersection => {
                let intersect = matches!(op, BinaryOp::Intersection);
                let right = reorder_set(right, &left.schema)?;
                // Whole-row bag arithmetic: both sides must share one
                // key scheme. Prefer aligning the right side to the
                // left's existing scheme over re-routing both.
                let (left, right) = match (&left.scheme, &right.scheme) {
                    (Scheme::Keys(a), Scheme::Keys(b)) if a == b => (left, right),
                    (Scheme::Keys(a), _) => {
                        let k = a.clone();
                        let right = exchange(&right, &k, self.nparts, &mut self.counters)?;
                        (left, right)
                    }
                    _ => {
                        let all: Vec<Attr> = left.schema.iter().cloned().collect();
                        (
                            exchange(&left, &all, self.nparts, &mut self.counters)?,
                            exchange(&right, &all, self.nparts, &mut self.counters)?,
                        )
                    }
                };
                add(&mut self.stats.rows_processed, key, set_rows(&right));
                add(&mut self.stats.rows_processed, key, set_rows(&left));
                let (lref, rref) = (&left, &right);
                let parts = per_part(self.nparts, |j| {
                    // Equal rows co-locate, so this partition's
                    // multiplicity map is the sequential map restricted
                    // to its keys; left rows cancel in tag order.
                    let mut counts = BagCounts::new(None);
                    for (_, row) in &rref.parts[j] {
                        counts.add(row);
                    }
                    let mut out = Vec::new();
                    for (tag, row) in &lref.parts[j] {
                        if counts.cancel(row) == intersect {
                            out.push((*tag, row.clone()));
                        }
                    }
                    Ok(out)
                })?;
                let set = PartSet {
                    schema: out_schema,
                    scheme: left.scheme.clone(),
                    parts,
                };
                add(&mut self.stats.rows_out, key, set_rows(&set));
                Ok(set)
            }
        }
    }

    /// Partitioned hash join: align both sides on (a subset of) the join
    /// key, then each worker builds its partition's right side through
    /// the buffer pool and probes its partition's left side independently.
    fn run_join(
        &mut self,
        on: &[Attr],
        left: PartSet,
        right: PartSet,
        out_schema: Schema,
        key: &str,
    ) -> Result<PartSet> {
        let (index, extra) = BuildProbe::plan(on, &left.schema, &right.schema)?;
        let subset = |s: &[Attr]| s.iter().all(|a| on.contains(a));
        // Matching rows must co-locate: both sides hashed on the same
        // attribute list, which must be a subset of the join key. Reuse
        // an existing side's scheme where possible.
        let (left, right) = match (&left.scheme, &right.scheme) {
            (Scheme::Keys(a), Scheme::Keys(b)) if a == b && subset(a) => (left, right),
            (Scheme::Keys(a), _) if subset(a) => {
                let k = a.clone();
                let right = exchange(&right, &k, self.nparts, &mut self.counters)?;
                (left, right)
            }
            (_, Scheme::Keys(b)) if subset(b) => {
                let k = b.clone();
                let left = exchange(&left, &k, self.nparts, &mut self.counters)?;
                (left, right)
            }
            _ => (
                exchange(&left, on, self.nparts, &mut self.counters)?,
                exchange(&right, on, self.nparts, &mut self.counters)?,
            ),
        };
        // Sequential pricing: the whole build side, then the whole
        // probe side.
        add(&mut self.stats.rows_processed, key, set_rows(&right));
        add(&mut self.stats.rows_processed, key, set_rows(&left));
        // Composite output tag (left tag, right tag), lexicographic —
        // the sequential probe emission order (left rows in order, each
        // row's matches in right insertion order).
        let rbound = max_tag(&right).map_or(1u128, |t| u128::from(t) + 1);
        let scheme = left.scheme.clone();
        // The coordinator creates one build buffer per partition;
        // worker `j` only ever touches `bufs[j]`.
        let bufs: Vec<BufferId> = (0..self.nparts)
            .map(|_| self.pool.create(right.schema.clone()))
            .collect();
        let pool = &self.pool;
        let batch_rows = self.batch_rows;
        let (lref, rref) = (&left, &right);
        let emitted: Vec<Vec<(u128, Row)>> = per_part(self.nparts, |j| {
            let buf = bufs[j];
            let rpart = &rref.parts[j];
            // Drain the build side through the pool in page-sized
            // chunks (bounding residency like the sequential join) and
            // index key → (row position, right tag). NULL keys are
            // stored but never indexed — they never join.
            let mut index = index.clone();
            for (pos, (rtag, row)) in rpart.iter().enumerate() {
                index.insert(row, (pos, *rtag));
            }
            for chunk in rpart.chunks(batch_rows) {
                pool.append(buf, chunk.iter().map(|(_, r)| r.clone()).collect())?;
            }
            let mut out: Vec<(u128, Row)> = Vec::new();
            for (ltag, lrow) in &lref.parts[j] {
                for &(pos, rtag) in index.probe(lrow) {
                    let mut row = Vec::with_capacity(lrow.len() + extra.len());
                    row.extend_from_slice(lrow);
                    pool.append_cells(buf, pos, &extra, &mut row)?;
                    out.push((u128::from(*ltag) * rbound + u128::from(rtag), row));
                }
            }
            pool.free(buf);
            Ok(out)
        })?;
        let out_total: u64 = emitted.iter().map(|p| p.len() as u64).sum();
        add(&mut self.stats.rows_out, key, out_total);
        Ok(PartSet {
            schema: out_schema,
            scheme,
            parts: retag_dense(emitted),
        })
    }

    /// Merge a set and drain it through the pool (bounding the resident
    /// set like a sequential target drain), materializing a table.
    fn drain_merged(&mut self, set: PartSet) -> Result<Table> {
        let schema = set.schema.clone();
        let rows = merge_rows(set);
        let buf = self.pool.create(schema);
        let mut it = rows.into_iter();
        loop {
            let chunk: Vec<Row> = it.by_ref().take(self.batch_rows).collect();
            if chunk.is_empty() {
                break;
            }
            self.counters.batches += 1;
            self.pool.append(buf, chunk)?;
        }
        let table = self.pool.to_table(buf)?;
        self.pool.free(buf);
        Ok(table)
    }
}

/// A produced node output awaiting its consumers: cloned out per
/// consumer, moved out to the last one.
struct Slot {
    set: PartSet,
    left: usize,
}

fn take_set(outs: &mut HashMap<NodeId, Slot>, id: NodeId) -> Result<PartSet> {
    match outs.get_mut(&id) {
        Some(slot) => {
            slot.left -= 1;
            if slot.left == 0 {
                Ok(outs
                    .remove(&id)
                    .map(|s| s.set)
                    .unwrap_or_else(unreachable_set))
            } else {
                Ok(slot.set.clone())
            }
        }
        None => Err(internal(format!("provider {id:?} has no planned output"))),
    }
}

fn unreachable_set() -> PartSet {
    PartSet {
        schema: Schema::default(),
        scheme: Scheme::Arbitrary,
        parts: Vec::new(),
    }
}

fn take_first(inputs: &mut Vec<PartSet>, id: NodeId) -> Result<PartSet> {
    if inputs.is_empty() {
        return Err(internal(format!("node {id:?} lacks an input pipeline")));
    }
    Ok(inputs.remove(0))
}

/// Execute `wf` with the round-synchronous partition-parallel backend.
/// Targets, row order, and stats are bit-identical to the sequential
/// stream (and hence to the pipelined executor); counters are
/// deterministic for a given `cfg.parallelism`.
pub(crate) fn run_round_sync(
    ctx: ExecCtx<'_>,
    wf: &Workflow,
    cfg: StreamConfig,
    mut cache: Option<&mut SharedCache>,
) -> Result<StreamRun> {
    let nparts = cfg.parallelism.max(2);
    let graph = wf.graph();
    let order = graph.topo_order()?;
    let mut rt = ParRuntime {
        pool: BufferPool::new(cfg.frame_budget),
        stats: ExecStats::default(),
        counters: ExecCounters::default(),
        ctx,
        batch_rows: cfg.batch_rows.max(1),
        nparts,
    };
    rt.counters.worker_rows = vec![0; nparts];

    let plan = plan_cache(wf, &order, cache.as_deref_mut(), &mut rt.counters)?;
    rt.stats = seeded_stats(graph, &order, &plan)?;

    let mut outs: HashMap<NodeId, Slot> = HashMap::new();
    let mut targets: BTreeMap<String, Table> = BTreeMap::new();

    for &id in &order {
        if !plan.runs(id) {
            continue;
        }
        let consumers = graph.consumers(id)?.len();
        if let Some(t) = plan.cached.get(&id) {
            if consumers == 0 {
                if let Node::Recordset(rs) = graph.node(id)? {
                    targets.insert(rs.name.clone(), (**t).clone());
                }
            } else {
                let set = distribute((**t).clone(), rt.nparts, &mut rt.counters);
                outs.insert(
                    id,
                    Slot {
                        set,
                        left: consumers,
                    },
                );
            }
            continue;
        }
        match graph.node(id)? {
            Node::Recordset(rs) => {
                let set = match graph.provider(id, 0)? {
                    None => {
                        let t = rt
                            .ctx
                            .catalog
                            .table(&rs.name)
                            .ok_or_else(|| EngineError::MissingSource(rs.name.clone()))?;
                        let source = t.reordered(&rs.schema)?;
                        distribute(source, rt.nparts, &mut rt.counters)
                    }
                    Some(p) => reorder_set(take_set(&mut outs, p)?, &rs.schema)?,
                };
                if consumers == 0 {
                    let table = rt.drain_merged(set)?;
                    if let (Some(c), Some(h)) = (cache.as_deref_mut(), plan.hashes.as_ref()) {
                        c.insert(h.of(id), Arc::new(table.clone()));
                        rt.counters.cache_insertions += 1;
                    }
                    targets.insert(rs.name.clone(), table);
                } else {
                    if consumers >= 2 {
                        if let (Some(c), Some(h)) = (cache.as_deref_mut(), plan.hashes.as_ref()) {
                            c.insert(h.of(id), Arc::new(rt.drain_merged(set.clone())?));
                            rt.counters.cache_insertions += 1;
                        }
                    }
                    outs.insert(
                        id,
                        Slot {
                            set,
                            left: consumers,
                        },
                    );
                }
            }
            Node::Activity(act) => {
                let mut inputs: Vec<PartSet> = Vec::new();
                for &p in graph.providers(id)? {
                    let p = p.ok_or(EngineError::Core(CoreError::MissingProvider {
                        node: id,
                        port: 0,
                    }))?;
                    inputs.push(take_set(&mut outs, p)?);
                }
                let key = act.id.to_string();
                let set = match &act.op {
                    Op::Unary(op) => {
                        let input = take_first(&mut inputs, id)?;
                        rt.run_chain(std::slice::from_ref(op), input, &key)?
                    }
                    Op::Merged(chain) => {
                        let input = take_first(&mut inputs, id)?;
                        rt.run_chain(chain, input, &key)?
                    }
                    Op::Binary(op) => {
                        let right = inputs
                            .pop()
                            .ok_or_else(|| internal(format!("binary node {id:?} lacks inputs")))?;
                        let left = take_first(&mut inputs, id)?;
                        rt.run_binary(op, left, right, &key)?
                    }
                };
                rt.counters.batches += set.parts.iter().filter(|p| !p.is_empty()).count() as u64;
                if consumers == 0 {
                    // Dangling activity: executed for stats parity, rows
                    // discarded.
                    drop(set);
                } else {
                    if consumers >= 2 {
                        if let (Some(c), Some(h)) = (cache.as_deref_mut(), plan.hashes.as_ref()) {
                            c.insert(h.of(id), Arc::new(rt.drain_merged(set.clone())?));
                            rt.counters.cache_insertions += 1;
                        }
                    }
                    outs.insert(
                        id,
                        Slot {
                            set,
                            left: consumers,
                        },
                    );
                }
            }
        }
    }

    let pool_traffic = rt.pool.counters();
    rt.counters.absorb(&pool_traffic);
    Ok(StreamRun {
        result: ExecResult {
            targets,
            stats: rt.stats,
        },
        counters: rt.counters,
    })
}

#[cfg(test)]
mod tests {
    use crate::catalog::Catalog;
    use crate::exec::StreamConfig;
    use crate::executor::Executor;
    use etlopt_core::predicate::Predicate;
    use etlopt_core::scalar::Scalar;
    use etlopt_core::schema::{Attr, Schema};
    use etlopt_core::semantics::{Aggregation, BinaryOp, UnaryOp};
    use etlopt_core::workflow::WorkflowBuilder;

    fn keyed_table(rows: i64) -> crate::table::Table {
        crate::table::Table::from_rows(
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
    fn round_sync_backend_is_bit_identical_to_sequential() {
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
        let wf = b.build().expect("workflow builds");

        let mut cat = Catalog::new();
        cat.insert("S", keyed_table(300));
        cat.insert(
            "D",
            crate::table::Table::from_rows(
                Schema::of(["k", "name"]),
                (0..13)
                    .map(|i| vec![Scalar::Int(i), Scalar::from(format!("d{i}"))])
                    .collect(),
            )
            .expect("dimension fixture"),
        );

        let seq = Executor::new(cat.clone())
            .run_stream(&wf)
            .expect("sequential run");
        for threads in [2, 4] {
            let rs = Executor::new(cat.clone())
                .with_stream_config(StreamConfig {
                    parallelism: threads,
                    pipeline: false,
                    ..StreamConfig::default()
                })
                .run_stream(&wf)
                .expect("round-sync run");
            assert_eq!(seq.result.targets, rs.result.targets, "{threads} threads");
            assert_eq!(seq.result.stats, rs.result.stats, "{threads} threads");
        }
    }
}
