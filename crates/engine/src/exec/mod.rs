//! The streaming execution backend: pull-based, batch-at-a-time workflow
//! evaluation over the buffer pool (`crate::pool`).
//!
//! Where the materializing executor holds every node's full output table,
//! the streaming backend builds one `stream::BatchIter` pipeline per
//! workflow and moves fixed-size row batches through it. Rows materialize
//! only at **boundaries** — fan-out nodes (≥ 2 consumers), targets, join
//! build sides — and those drains go through the frame-budget-bounded
//! [`BufferPool`], spilling to disk past the budget. Both backends
//! produce bag-identical targets in the same row order and bit-identical
//! [`ExecStats`]; the conformance harness cross-checks this on every
//! smoke scenario.
//!
//! An optional [`SharedCache`] (see
//! [`crate::Executor::run_stream_cached`]) reuses boundary tables across
//! runs keyed by the per-node structural fingerprints of
//! [`etlopt_core::signature::hash_state`], so states sharing a subgraph
//! execute the common prefix once. Those fingerprints digest activity
//! *identity*, not operator content, so a cache is sound only across
//! states of one workflow family (states derived from a common initial
//! workflow by transitions, where the id ↔ operator binding is fixed)
//! over one catalog. A cached run's stats cover only the work actually
//! performed — the cross-backend stats guarantee applies to uncached
//! runs.
//!
//! Every streaming run is single-threaded. [`StreamConfig::parallelism`]
//! and [`StreamConfig::pipeline`] are accepted and ignored: the
//! partition-parallel executors that once ran above parallelism 1 spent
//! 1.9–3.0× the stream's CPU per run before any thread started, and at
//! two workers never beat the stream's wall clock (DESIGN.md §8b).

#![cfg_attr(not(test), deny(clippy::expect_used))]

mod cache;
mod kernel;
mod keyed;
mod stream;

pub use cache::{SharedCache, SharedCacheHandle};

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use etlopt_core::activity::Op;
use etlopt_core::error::CoreError;
use etlopt_core::graph::{Graph, Node, NodeId};
use etlopt_core::signature::{hash_state, NodeHashes};
use etlopt_core::trace::ExecCounters;
use etlopt_core::workflow::Workflow;

use crate::error::{EngineError, Result};
use crate::executor::{ExecResult, ExecStats};
use crate::ops::ExecCtx;
use crate::pool::{BufferId, BufferPool};
use crate::table::Table;

use stream::BoxIter;

/// Which execution strategy [`crate::Executor::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Evaluate node-at-a-time, holding every intermediate table whole.
    #[default]
    Materialize,
    /// Stream batches through operator pipelines over the buffer pool.
    Stream,
}

/// Streaming backend knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Rows per batch moving through a pipeline.
    pub batch_rows: usize,
    /// Buffer-pool frame budget: pages resident before eviction/spill.
    pub frame_budget: usize,
    /// Ignored: every run is the single-threaded stream. Kept so existing
    /// callers still compile; it will be removed.
    pub parallelism: usize,
    /// Ignored, like `parallelism`.
    pub pipeline: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch_rows: 1024,
            frame_budget: 256,
            parallelism: 1,
            pipeline: true,
        }
    }
}

/// A streaming run's outcome: the same [`ExecResult`] the materializing
/// backend produces, plus the runtime's page/batch/cache traffic.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// Targets and per-activity statistics.
    pub result: ExecResult,
    /// Pool, batch and cache counters.
    pub counters: ExecCounters,
}

/// Shared mutable state threaded through every `next_batch` pull.
pub(crate) struct Runtime<'a> {
    pub(crate) pool: BufferPool,
    pub(crate) stats: ExecStats,
    pub(crate) counters: ExecCounters,
    pub(crate) ctx: ExecCtx<'a>,
    pub(crate) batch_rows: usize,
}

impl Runtime<'_> {
    pub(crate) fn add_processed(&mut self, key: &str, n: u64) {
        add(&mut self.stats.rows_processed, key, n);
    }

    pub(crate) fn add_out(&mut self, key: &str, n: u64) {
        add(&mut self.stats.rows_out, key, n);
    }
}

/// `map[key] += n`. Every executing activity's key is pre-seeded, so the
/// per-batch path finds its entry and allocates nothing.
fn add(map: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    match map.get_mut(key) {
        Some(v) => *v += n,
        None => {
            map.insert(key.to_owned(), n);
        }
    }
}

/// How a produced node output is handed to its consumers.
enum Out {
    /// Single consumer: the pipeline is passed on whole (no
    /// materialization).
    Pipe(Option<BoxIter>),
    /// Fan-out: drained into a pool buffer, re-read per consumer.
    Buffered(BufferId),
    /// Served from the shared cache.
    Cached(Arc<Table>),
}

fn internal(reason: impl Into<String>) -> EngineError {
    EngineError::FunctionFailed {
        function: "exec::plan".into(),
        reason: reason.into(),
    }
}

fn take_iter(outs: &mut HashMap<NodeId, Out>, id: NodeId, pool: &BufferPool) -> Result<BoxIter> {
    match outs.get_mut(&id) {
        Some(Out::Pipe(slot)) => slot
            .take()
            .ok_or_else(|| internal(format!("pipeline of node {id:?} consumed twice"))),
        Some(Out::Buffered(buf)) => Ok(Box::new(stream::Scan::buffer(*buf, pool.schema(*buf)))),
        Some(Out::Cached(t)) => Ok(Box::new(stream::Scan::table(Arc::clone(t), t.schema())?)),
        None => Err(internal(format!("provider {id:?} has no planned output"))),
    }
}

/// Drain a pipeline into a fresh pool buffer.
fn drain(rt: &mut Runtime<'_>, mut iter: BoxIter) -> Result<BufferId> {
    let buf = rt.pool.create(iter.schema().clone());
    while let Some(batch) = iter.next_batch(rt)? {
        rt.pool.append(buf, batch)?;
    }
    Ok(buf)
}

/// Cache planning: fingerprints, boundary hits, and the node set that
/// still executes.
struct CachePlan {
    hashes: Option<NodeHashes>,
    cached: HashMap<NodeId, Arc<Table>>,
    needed: Option<HashSet<NodeId>>,
}

impl CachePlan {
    /// Does this node execute (i.e. is it not cut off by a cache hit)?
    fn runs(&self, id: NodeId) -> bool {
        self.needed.as_ref().is_none_or(|n| n.contains(&id))
    }
}

/// Walk back from the targets, consulting the cache at materialization
/// boundaries (the only admission points). A hit cuts off its whole
/// upstream subgraph — the returned `needed` set is what actually
/// executes. Without a cache every node runs, like materialize.
fn plan_cache(
    wf: &Workflow,
    order: &[NodeId],
    cache: Option<&mut SharedCache>,
    counters: &mut ExecCounters,
) -> Result<CachePlan> {
    let graph = wf.graph();
    let mut plan = CachePlan {
        hashes: None,
        cached: HashMap::new(),
        needed: None,
    };
    if let Some(c) = cache {
        let (h, _) = hash_state(wf);
        let mut keep: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &id in order {
            if graph.consumers(id)?.is_empty() {
                stack.push(id);
            }
        }
        while let Some(id) = stack.pop() {
            if !keep.insert(id) {
                continue;
            }
            let consumers = graph.consumers(id)?.len();
            let is_target = consumers == 0 && matches!(graph.node(id)?, Node::Recordset(_));
            if consumers >= 2 || is_target {
                if let Some(t) = c.get(h.of(id)) {
                    counters.cache_hits += 1;
                    plan.cached.insert(id, t);
                    continue;
                }
                counters.cache_misses += 1;
            }
            for p in graph.providers(id)?.iter().flatten() {
                stack.push(*p);
            }
        }
        plan.hashes = Some(h);
        plan.needed = Some(keep);
    }
    Ok(plan)
}

/// Stats with a zero entry per executing activity: the materializing
/// executor creates entries unconditionally, and bit-identical stats
/// include the key set.
fn seeded_stats(graph: &Graph, order: &[NodeId], plan: &CachePlan) -> Result<ExecStats> {
    let mut stats = ExecStats::default();
    for &id in order {
        if !plan.runs(id) || plan.cached.contains_key(&id) {
            continue;
        }
        if let Node::Activity(act) = graph.node(id)? {
            let key = act.id.to_string();
            stats.rows_processed.insert(key.clone(), 0);
            stats.rows_out.insert(key, 0);
        }
    }
    Ok(stats)
}

/// Execute `wf` with the streaming backend, on the calling thread. With a
/// cache, boundary lookups may serve whole subgraphs from prior runs (the
/// cache must belong to this catalog — fingerprints hash structure, not
/// data).
pub(crate) fn run_stream(
    ctx: ExecCtx<'_>,
    wf: &Workflow,
    cfg: StreamConfig,
    mut cache: Option<&mut SharedCache>,
) -> Result<StreamRun> {
    let graph = wf.graph();
    let order = graph.topo_order()?;
    let mut rt = Runtime {
        pool: BufferPool::new(cfg.frame_budget),
        stats: ExecStats::default(),
        counters: ExecCounters::default(),
        ctx,
        batch_rows: cfg.batch_rows.max(1),
    };

    let plan = plan_cache(wf, &order, cache.as_deref_mut(), &mut rt.counters)?;
    let runs = |id: &NodeId| plan.runs(*id);
    rt.stats = seeded_stats(graph, &order, &plan)?;

    let mut outs: HashMap<NodeId, Out> = HashMap::new();
    let mut targets: BTreeMap<String, Table> = BTreeMap::new();

    for &id in &order {
        if !runs(&id) {
            continue;
        }
        if let Some(t) = plan.cached.get(&id) {
            if let Node::Recordset(rs) = graph.node(id)? {
                if graph.consumers(id)?.is_empty() {
                    targets.insert(rs.name.clone(), (**t).clone());
                }
            }
            outs.insert(id, Out::Cached(Arc::clone(t)));
            continue;
        }
        let consumers = graph.consumers(id)?.len();
        match graph.node(id)? {
            Node::Recordset(rs) => {
                let iter: BoxIter = match graph.provider(id, 0)? {
                    None => {
                        let t = rt
                            .ctx
                            .catalog
                            .shared_table(&rs.name)
                            .ok_or_else(|| EngineError::MissingSource(rs.name.clone()))?;
                        // Present the source under its declared schema
                        // (reference attribute names / order).
                        Box::new(stream::Scan::table(t, &rs.schema)?)
                    }
                    Some(p) => stream::reorder(take_iter(&mut outs, p, &rt.pool)?, &rs.schema)?,
                };
                if consumers == 0 {
                    // Target: drain through the pool (bounding the
                    // resident set), then hand its pages over to the
                    // table at the API boundary.
                    let buf = drain(&mut rt, iter)?;
                    let table = rt.pool.into_table(buf)?;
                    if let (Some(c), Some(h)) = (cache.as_deref_mut(), plan.hashes.as_ref()) {
                        c.insert(h.of(id), Arc::new(table.clone()));
                        rt.counters.cache_insertions += 1;
                    }
                    targets.insert(rs.name.clone(), table);
                } else if consumers == 1 {
                    outs.insert(id, Out::Pipe(Some(iter)));
                } else {
                    let buf = drain(&mut rt, iter)?;
                    if let (Some(c), Some(h)) = (cache.as_deref_mut(), plan.hashes.as_ref()) {
                        c.insert(h.of(id), Arc::new(rt.pool.to_table(buf)?));
                        rt.counters.cache_insertions += 1;
                    }
                    outs.insert(id, Out::Buffered(buf));
                }
            }
            Node::Activity(act) => {
                let mut inputs: Vec<BoxIter> = Vec::new();
                for &p in graph.providers(id)? {
                    let p = p.ok_or(EngineError::Core(CoreError::MissingProvider {
                        node: id,
                        port: 0,
                    }))?;
                    inputs.push(take_iter(&mut outs, p, &rt.pool)?);
                }
                let key = act.id.to_string();
                let iter: BoxIter = match &act.op {
                    Op::Unary(op) => {
                        let input = pop_input(&mut inputs, id)?;
                        stream::unary_pipeline(std::slice::from_ref(op), input, &key, &rt.ctx)?
                    }
                    Op::Merged(chain) => {
                        let input = pop_input(&mut inputs, id)?;
                        stream::unary_pipeline(chain, input, &key, &rt.ctx)?
                    }
                    Op::Binary(op) => {
                        let right = inputs
                            .pop()
                            .ok_or_else(|| internal(format!("binary node {id:?} lacks inputs")))?;
                        let left = pop_input(&mut inputs, id)?;
                        stream::binary_pipeline(op, left, right, &key)?
                    }
                };
                if consumers == 0 {
                    // Dangling activity: run it for stats parity with the
                    // materializing executor; nobody keeps the rows.
                    let mut iter = iter;
                    stream::lend_all(&mut *iter, &mut rt, |_| Ok(()))?;
                } else if consumers == 1 {
                    outs.insert(id, Out::Pipe(Some(iter)));
                } else {
                    let buf = drain(&mut rt, iter)?;
                    if let (Some(c), Some(h)) = (cache.as_deref_mut(), plan.hashes.as_ref()) {
                        c.insert(h.of(id), Arc::new(rt.pool.to_table(buf)?));
                        rt.counters.cache_insertions += 1;
                    }
                    outs.insert(id, Out::Buffered(buf));
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

fn pop_input(inputs: &mut Vec<BoxIter>, id: NodeId) -> Result<BoxIter> {
    if inputs.is_empty() {
        return Err(internal(format!("node {id:?} lacks an input pipeline")));
    }
    Ok(inputs.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::executor::Executor;
    use crate::table::Table;
    use etlopt_core::predicate::Predicate;
    use etlopt_core::scalar::Scalar;
    use etlopt_core::schema::Schema;
    use etlopt_core::semantics::{Aggregation, BinaryOp, UnaryOp};
    use etlopt_core::workflow::WorkflowBuilder;

    fn wide_table(rows: i64) -> Table {
        Table::from_rows(
            Schema::of(["k", "v"]),
            (0..rows)
                .map(|i| {
                    vec![
                        Scalar::Int(i % 17),
                        if i % 11 == 0 {
                            Scalar::Null
                        } else {
                            Scalar::Float(i as f64)
                        },
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    fn pipeline_wf() -> etlopt_core::workflow::Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 500.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 100.0)), nn);
        let g = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
            f,
        );
        b.target("T", Schema::of(["k", "v"]), g);
        b.build().unwrap()
    }

    fn executor(rows: i64) -> Executor {
        let mut cat = Catalog::new();
        cat.insert("S", wide_table(rows));
        Executor::new(cat)
    }

    fn assert_backends_agree(exec: &Executor, wf: &etlopt_core::workflow::Workflow) -> StreamRun {
        let mat = exec.run_materialize(wf).unwrap();
        let run = exec.run_stream(wf).unwrap();
        assert_eq!(
            mat.targets, run.result.targets,
            "targets must be identical (schema, rows, order)"
        );
        assert_eq!(mat.stats, run.result.stats, "stats must be bit-identical");
        run
    }

    #[test]
    fn linear_pipeline_matches_materialize() {
        let exec = executor(500);
        let run = assert_backends_agree(&exec, &pipeline_wf());
        assert!(run.counters.batches > 0);
    }

    /// The allocation gauge: a scan allocates the rows that outlive the
    /// row-wise chain fused into it — here a filter behind a function —
    /// and none at all when what reads the chain only borrows.
    #[test]
    fn scans_materialize_only_what_survives_their_chain() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 500.0);
        let f = b.unary("f", UnaryOp::function("scale", ["v"], "v"), s);
        let hi = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 495.0)), f);
        b.target("T", Schema::of(["k", "v"]), hi);
        let wf = b.build().unwrap();
        let run = assert_backends_agree(&executor(500), &wf);
        let kept = run.result.targets["T"].len() as u64;
        assert!((40..60).contains(&kept), "σ keeps about a tenth: {kept}");
        let c = &run.counters;
        assert_eq!((c.rows_scanned, c.rows_materialized), (500, kept));

        // NN → σ → γ: the aggregate folds lent rows.
        let run = assert_backends_agree(&executor(500), &pipeline_wf());
        let c = &run.counters;
        assert_eq!((c.rows_scanned, c.rows_materialized), (500, 0));
    }

    /// Fig. 1 over a seeded catalog. The workload crate links its own copy
    /// of this crate, so its tables are copied over row by row.
    fn fig1_executor(parts1: usize, parts2: usize) -> (etlopt_core::workflow::Workflow, Executor) {
        let theirs = etlopt_workload::scenarios::fig1_catalog(7, parts1, parts2);
        let mut cat = Catalog::new();
        for name in ["PARTS1", "PARTS2"] {
            let t = theirs.table(name).unwrap();
            cat.insert(
                name,
                Table::from_rows(t.schema().clone(), t.rows().to_vec()).unwrap(),
            );
        }
        (etlopt_workload::scenarios::fig1(), Executor::new(cat))
    }

    /// A batch far larger than any input runs like `run_materialize`,
    /// whatever `parallelism` says: no batch is reserved at its nominal
    /// size, which at `1 << 30` rows would abort the process on a failed
    /// 32 GiB allocation.
    #[test]
    fn a_huge_batch_runs_like_materialize_at_every_parallelism() {
        let (wf, exec) = fig1_executor(300, 3_000);
        let mat = exec.run_materialize(&wf).unwrap();
        for parallelism in [1, 2] {
            let run = exec
                .clone()
                .with_stream_config(StreamConfig {
                    batch_rows: 1 << 30,
                    parallelism,
                    ..StreamConfig::default()
                })
                .run_stream(&wf)
                .unwrap();
            assert_eq!(mat.targets, run.result.targets, "x{parallelism}");
            assert_eq!(mat.stats, run.result.stats, "x{parallelism}");
        }
    }

    /// The benchmark's spilling shape — an 8-frame pool, 1 024-row
    /// batches, a Fig. 1 target of more than eight pages — returns the
    /// same whole `ExecCounters` at every `parallelism`, spill, reload
    /// and eviction counts included.
    #[test]
    fn pool_counters_are_the_same_at_every_parallelism() {
        let (wf, exec) = fig1_executor(16_384, 4_096);
        let mat = exec.run_materialize(&wf).unwrap();
        let run = |parallelism| {
            let run = exec
                .clone()
                .with_stream_config(StreamConfig {
                    batch_rows: 1024,
                    frame_budget: 8,
                    parallelism,
                    ..StreamConfig::default()
                })
                .run_stream(&wf)
                .unwrap();
            assert_eq!(mat.targets, run.result.targets, "x{parallelism}");
            assert_eq!(mat.stats, run.result.stats, "x{parallelism}");
            run.counters
        };
        let one = run(1);
        assert!(one.pages_spilled > 0 && one.pages_reloaded > 0, "{one:?}");
        assert!(one.evictions > 0, "{one:?}");
        for parallelism in [2, 4] {
            assert_eq!(run(parallelism), one, "x{parallelism}");
        }
    }

    #[test]
    fn small_frame_budget_spills_and_still_matches() {
        // No aggregate here: the target drain must carry the full filtered
        // volume (~1700 rows in 64-row pages) so a 2-frame budget is forced
        // to spill. An aggregating pipeline would collapse to one page.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 2000.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 100.0)), nn);
        b.target("T", Schema::of(["k", "v"]), f);
        let wf = b.build().unwrap();
        let exec = executor(2000).with_stream_config(StreamConfig {
            batch_rows: 64,
            frame_budget: 2,
            parallelism: 1,
            ..StreamConfig::default()
        });
        let run = assert_backends_agree(&exec, &wf);
        assert!(run.counters.spilled(), "{:?}", run.counters);
        assert!(run.counters.pages_reloaded > 0);
        assert!(run.counters.peak_resident_frames <= 2);
    }

    #[test]
    fn fan_out_and_binary_ops_match() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S", Schema::of(["k", "v"]), 300.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s1);
        let hi = b.unary("HI", UnaryOp::filter(Predicate::gt("v", 150.0)), nn);
        let lo = b.unary("LO", UnaryOp::filter(Predicate::le("v", 150.0)), nn);
        let u = b.binary("U", BinaryOp::Union, hi, lo);
        b.target("ALL", Schema::of(["k", "v"]), u);
        b.target("HIGH", Schema::of(["k", "v"]), hi);
        let wf = b.build().unwrap();
        let exec = executor(300).with_stream_config(StreamConfig {
            batch_rows: 32,
            frame_budget: 4,
            parallelism: 1,
            ..StreamConfig::default()
        });
        assert_backends_agree(&exec, &wf);
    }

    #[test]
    fn run_dispatches_on_backend() {
        let wf = pipeline_wf();
        let exec = executor(200);
        let mat = exec.run(&wf).unwrap();
        let stream = executor(200)
            .with_backend(Backend::Stream)
            .run(&wf)
            .unwrap();
        assert_eq!(mat.targets, stream.targets);
        assert_eq!(mat.stats, stream.stats);
    }

    #[test]
    fn missing_source_errors_like_materialize() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("GHOST", Schema::of(["a"]), 1.0);
        b.target("T", Schema::of(["a"]), s);
        let wf = b.build().unwrap();
        let exec = Executor::new(Catalog::new());
        assert!(matches!(
            exec.run_stream(&wf).unwrap_err(),
            EngineError::MissingSource(_)
        ));
    }

    #[test]
    fn shared_prefix_hits_the_cache_across_states() {
        // Plant a shared subgraph: NN fans out to a two-filter branch and a
        // direct target. A sibling state of the same family (derived by
        // swapping the two filters — the optimizer-search move) shares the
        // NN prefix and the untouched T2 target; both must be served from
        // the cache, not re-executed.
        use etlopt_core::transition::{Swap, Transition};
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 300.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let fa = b.unary("σa", UnaryOp::filter(Predicate::gt("v", 150.0)), nn);
        let fb = b.unary("σb", UnaryOp::filter(Predicate::le("k", 8.0)), fa);
        b.target("T1", Schema::of(["k", "v"]), fb);
        b.target("T2", Schema::of(["k", "v"]), nn);
        let wf1 = b.build().unwrap();
        let wf2 = Swap::new(fa, fb).apply(&wf1).unwrap();

        let exec = executor(300);
        let mut cache = SharedCache::new();
        let first = exec.run_stream_cached(&wf1, &mut cache).unwrap();
        assert_eq!(first.counters.cache_hits, 0);
        assert!(first.counters.cache_insertions > 0);

        let second = exec.run_stream_cached(&wf2, &mut cache).unwrap();
        assert!(second.counters.cache_hits > 0, "{:?}", second.counters);
        // The reordered branch has a new fingerprint and is recomputed.
        assert!(second.counters.cache_misses > 0, "{:?}", second.counters);
        // The shared fan-out prefix was not re-executed: its activity
        // does not appear in the second run's stats.
        let nn_key = "2".to_string();
        assert!(first.result.stats.rows_processed.contains_key(&nn_key));
        assert!(!second.result.stats.rows_processed.contains_key(&nn_key));
        // And the cached run still produces correct targets.
        let mat = exec.run_materialize(&wf2).unwrap();
        assert_eq!(mat.targets, second.result.targets);
    }

    #[test]
    fn rerunning_the_same_workflow_serves_targets_from_cache() {
        let wf = pipeline_wf();
        let exec = executor(400);
        let mut cache = SharedCache::new();
        let first = exec.run_stream_cached(&wf, &mut cache).unwrap();
        let second = exec.run_stream_cached(&wf, &mut cache).unwrap();
        assert!(second.counters.cache_hits > 0);
        assert_eq!(second.counters.batches, 0, "no pipeline work on a full hit");
        assert_eq!(first.result.targets, second.result.targets);
    }
}
