//! The workflow executor: evaluates a validated workflow state bottom-up
//! over the catalog, producing target tables and per-activity work
//! statistics.

use std::collections::BTreeMap;

use etlopt_core::activity::Op;
use etlopt_core::error::CoreError;
use etlopt_core::graph::{Node, NodeId};
use etlopt_core::opt::{Observation, PlanObserver};
use etlopt_core::trace::ExecCounters;
use etlopt_core::workflow::Workflow;

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::exec::{Backend, SharedCache, SharedCacheHandle, StreamConfig, StreamRun};
use crate::functions::FunctionRegistry;
use crate::ops::{exec_binary, exec_chain, exec_unary, ExecCtx};
use crate::table::Table;

/// Per-run work statistics, keyed by activity identifier (the paper's
/// stable priorities) so they can be compared across equivalent states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows processed per activity (sum of input rows; for merged chains,
    /// summed per link — matching how the row-count cost model prices
    /// them).
    pub rows_processed: BTreeMap<String, u64>,
    /// Rows emitted per activity — the observed counterpart of the cost
    /// model's selectivity-propagated cardinalities.
    pub rows_out: BTreeMap<String, u64>,
}

impl ExecStats {
    /// Total rows processed across all activities.
    pub fn total(&self) -> u64 {
        self.rows_processed.values().sum()
    }

    /// Observed selectivity of one activity (`rows_out / rows_processed`
    /// against its direct input), if it processed anything. For merged
    /// chains `rows_processed` counts every link, so this is only exact for
    /// plain activities.
    pub fn observed_selectivity(&self, activity_id: &str) -> Option<f64> {
        let inp = *self.rows_processed.get(activity_id)? as f64;
        let out = *self.rows_out.get(activity_id)? as f64;
        if inp == 0.0 {
            None
        } else {
            Some(out / inp)
        }
    }
}

/// The result of executing a workflow.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Output table per target recordset name.
    pub targets: BTreeMap<String, Table>,
    /// Work statistics.
    pub stats: ExecStats,
}

impl ExecResult {
    /// The table loaded into target `name`.
    pub fn target(&self, name: &str) -> Option<&Table> {
        self.targets.get(name)
    }
}

/// Executes workflows over an in-memory catalog.
#[derive(Debug, Clone)]
pub struct Executor {
    catalog: Catalog,
    functions: FunctionRegistry,
    auto_lookup: bool,
    backend: Backend,
    stream_cfg: StreamConfig,
}

impl Executor {
    /// Executor over a catalog with the builtin function registry,
    /// deterministic auto-surrogates enabled, and the materializing
    /// backend.
    pub fn new(catalog: Catalog) -> Self {
        Executor {
            catalog,
            functions: FunctionRegistry::builtin(),
            auto_lookup: true,
            backend: Backend::default(),
            stream_cfg: StreamConfig::default(),
        }
    }

    /// Replace the function registry.
    pub fn with_functions(mut self, functions: FunctionRegistry) -> Self {
        self.functions = functions;
        self
    }

    /// Require every surrogate key to resolve through the catalog.
    pub fn with_strict_lookups(mut self) -> Self {
        self.auto_lookup = false;
        self
    }

    /// Select the backend used by [`Executor::run`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the streaming backend configuration.
    pub fn with_stream_config(mut self, cfg: StreamConfig) -> Self {
        self.stream_cfg = cfg;
        self
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The backend [`Executor::run`] dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn exec_ctx(&self) -> ExecCtx<'_> {
        ExecCtx {
            functions: &self.functions,
            catalog: &self.catalog,
            auto_lookup: self.auto_lookup,
        }
    }

    /// Execute a workflow state with the configured backend.
    pub fn run(&self, wf: &Workflow) -> Result<ExecResult> {
        match self.backend {
            Backend::Materialize => self.run_materialize(wf),
            Backend::Stream => Ok(self.run_stream(wf)?.result),
        }
    }

    /// Execute with the streaming backend, returning the runtime's
    /// pool/batch counters alongside the result.
    pub fn run_stream(&self, wf: &Workflow) -> Result<StreamRun> {
        crate::exec::run_stream(self.exec_ctx(), wf, self.stream_cfg, None)
    }

    /// Execute with the streaming backend against a shared result cache
    /// (which must have been populated against this executor's catalog).
    pub fn run_stream_cached(&self, wf: &Workflow, cache: &mut SharedCache) -> Result<StreamRun> {
        crate::exec::run_stream(self.exec_ctx(), wf, self.stream_cfg, Some(cache))
    }

    /// Execute with the streaming backend against a cache shared across
    /// *executors* (concurrent server jobs, adaptive observers). Holds the
    /// handle's lock for the run, so sibling runs in one family serialize
    /// their executions while the targets stay bit-identical to an
    /// uncached run — the [`SharedCache`] contract.
    pub fn run_stream_shared(&self, wf: &Workflow, cache: &SharedCacheHandle) -> Result<StreamRun> {
        cache.with_cache(|c| self.run_stream_cached(wf, c))
    }

    /// Stats-harvest hook for the adaptive re-optimization loop: execute
    /// with the configured backend and package the run as a
    /// [`Observation`] — per-activity row traffic, actual source
    /// cardinalities from the catalog, and per-target row counts. Errors
    /// are carried as [`CoreError::Observation`] so the loop (which lives
    /// in the engine-agnostic core crate) can consume them.
    pub fn observe(&self, wf: &Workflow) -> etlopt_core::error::Result<Observation> {
        let result = self
            .run(wf)
            .map_err(|e| CoreError::Observation(e.to_string()))?;
        self.observation_of(wf, &result)
    }

    /// Build an [`Observation`] from an already-executed result.
    fn observation_of(
        &self,
        wf: &Workflow,
        result: &ExecResult,
    ) -> etlopt_core::error::Result<Observation> {
        let mut obs = Observation {
            rows_processed: result.stats.rows_processed.clone(),
            rows_out: result.stats.rows_out.clone(),
            ..Observation::default()
        };
        let g = wf.graph();
        for src in wf.sources() {
            let name = &g.recordset(src)?.name;
            if let Some(table) = self.catalog.table(name) {
                obs.source_rows.insert(name.clone(), table.len() as u64);
            }
        }
        for (name, table) in &result.targets {
            obs.target_rows.insert(name.clone(), table.len() as u64);
        }
        Ok(obs)
    }

    /// Execute a workflow state node-at-a-time, materializing every
    /// intermediate table.
    pub fn run_materialize(&self, wf: &Workflow) -> Result<ExecResult> {
        let ctx = self.exec_ctx();
        let graph = wf.graph();
        let order = graph.topo_order()?;
        let mut outputs: BTreeMap<NodeId, Table> = BTreeMap::new();
        let mut stats = ExecStats::default();
        let mut targets = BTreeMap::new();

        for &id in &order {
            match graph.node(id)? {
                Node::Recordset(rs) => {
                    let table = match graph.provider(id, 0)? {
                        None => {
                            let t = self
                                .catalog
                                .table(&rs.name)
                                .ok_or_else(|| EngineError::MissingSource(rs.name.clone()))?;
                            // Present the source under its declared schema
                            // (reference attribute names / order).
                            t.reordered(&rs.schema)?
                        }
                        Some(p) => outputs[&p].reordered(&rs.schema)?,
                    };
                    if graph.consumers(id)?.is_empty() {
                        targets.insert(rs.name.clone(), table.clone());
                    }
                    outputs.insert(id, table);
                }
                Node::Activity(act) => {
                    let inputs: Vec<&Table> = graph
                        .providers(id)?
                        .iter()
                        .map(|p| {
                            p.map(|p| &outputs[&p]).ok_or(EngineError::Core(
                                etlopt_core::error::CoreError::MissingProvider {
                                    node: id,
                                    port: 0,
                                },
                            ))
                        })
                        .collect::<Result<_>>()?;
                    let (table, processed) = match &act.op {
                        Op::Unary(op) => {
                            let t = exec_unary(op, inputs[0], &ctx)?;
                            (t, inputs[0].len() as u64)
                        }
                        Op::Merged(chain) => exec_chain(chain, inputs[0], &ctx)?,
                        Op::Binary(op) => {
                            let t = exec_binary(op, inputs[0], inputs[1])?;
                            (t, (inputs[0].len() + inputs[1].len()) as u64)
                        }
                    };
                    let key = act.id.to_string();
                    *stats.rows_processed.entry(key.clone()).or_insert(0) += processed;
                    *stats.rows_out.entry(key).or_insert(0) += table.len() as u64;
                    outputs.insert(id, table);
                }
            }
        }
        Ok(ExecResult { targets, stats })
    }
}

impl PlanObserver for Executor {
    fn observe(&mut self, wf: &Workflow) -> etlopt_core::error::Result<Observation> {
        Executor::observe(self, wf)
    }
}

/// The adaptive loop's engine-side observer: executes every plan through
/// the streaming backend against one [`SharedCache`], so re-optimization
/// rounds that re-run a plan — or a sibling sharing a materialization
/// prefix with one — reuse the cached subflow results instead of
/// recomputing them. Accumulates the runtime's pool/batch counters across
/// rounds.
///
/// Cached prefixes are absent from the re-run's statistics by design;
/// their entries were recorded (identically) by the run that populated
/// the cache, so the calibration store never loses information.
#[derive(Debug)]
pub struct Harvester {
    exec: Executor,
    cache: SharedCache,
    counters: ExecCounters,
    runs: u64,
}

impl Harvester {
    /// A harvester over `exec` with a fresh, default-budget cache.
    pub fn new(exec: Executor) -> Harvester {
        Harvester::with_cache(exec, SharedCache::new())
    }

    /// A harvester reusing an existing cache (it must have been populated
    /// against this executor's catalog).
    pub fn with_cache(exec: Executor, cache: SharedCache) -> Harvester {
        Harvester {
            exec,
            cache,
            counters: ExecCounters::default(),
            runs: 0,
        }
    }

    /// The wrapped executor.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Pool/batch/cache counters accumulated over every observed run.
    pub fn counters(&self) -> &ExecCounters {
        &self.counters
    }

    /// Number of plans observed so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The shared result cache (for cache-hit assertions).
    pub fn cache(&self) -> &SharedCache {
        &self.cache
    }
}

impl PlanObserver for Harvester {
    fn observe(&mut self, wf: &Workflow) -> etlopt_core::error::Result<Observation> {
        let run = self
            .exec
            .run_stream_cached(wf, &mut self.cache)
            .map_err(|e| CoreError::Observation(e.to_string()))?;
        self.counters.absorb(&run.counters);
        self.runs += 1;
        self.exec.observation_of(wf, &run.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::predicate::Predicate;
    use etlopt_core::scalar::Scalar;
    use etlopt_core::schema::Schema;
    use etlopt_core::semantics::{BinaryOp, UnaryOp};
    use etlopt_core::workflow::WorkflowBuilder;

    fn source_table() -> Table {
        Table::from_rows(
            Schema::of(["k", "v"]),
            vec![
                vec![1.into(), 5.into()],
                vec![2.into(), 15.into()],
                vec![3.into(), 25.into()],
                vec![4.into(), Scalar::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn linear_pipeline_executes() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 4.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 10)), nn);
        b.target("T", Schema::of(["k", "v"]), f);
        let wf = b.build().unwrap();

        let mut cat = Catalog::new();
        cat.insert("S", source_table());
        let result = Executor::new(cat).run(&wf).unwrap();
        let t = result.target("T").unwrap();
        assert_eq!(t.len(), 2);
        // Stats: NN saw 4 rows, σ saw 3.
        assert_eq!(result.stats.rows_processed["2"], 4);
        assert_eq!(result.stats.rows_processed["3"], 3);
        assert_eq!(result.stats.total(), 7);
    }

    #[test]
    fn rows_out_and_observed_selectivity() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 4.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        b.target("T", Schema::of(["k", "v"]), nn);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert("S", source_table());
        let result = Executor::new(cat).run(&wf).unwrap();
        // NN: 4 rows in, 3 out (one NULL) → observed selectivity 0.75.
        assert_eq!(result.stats.rows_out["2"], 3);
        let sel = result.stats.observed_selectivity("2").unwrap();
        assert!((sel - 0.75).abs() < 1e-12);
        assert_eq!(result.stats.observed_selectivity("99"), None);
    }

    #[test]
    fn union_workflow_executes() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 4.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 4.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        b.target("T", Schema::of(["k", "v"]), u);
        let wf = b.build().unwrap();

        let mut cat = Catalog::new();
        cat.insert("S1", source_table());
        cat.insert("S2", source_table());
        let result = Executor::new(cat).run(&wf).unwrap();
        assert_eq!(result.target("T").unwrap().len(), 8);
    }

    #[test]
    fn missing_source_is_reported() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("GHOST", Schema::of(["a"]), 1.0);
        b.target("T", Schema::of(["a"]), s);
        let wf = b.build().unwrap();
        let err = Executor::new(Catalog::new()).run(&wf).unwrap_err();
        assert!(matches!(err, EngineError::MissingSource(_)));
    }

    #[test]
    fn source_with_wrong_schema_is_reported() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b"]), 1.0);
        b.target("T", Schema::of(["a", "b"]), s);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert("S", Table::empty(Schema::of(["x"])));
        assert!(Executor::new(cat).run(&wf).is_err());
    }

    #[test]
    fn target_respects_declared_column_order() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 4.0);
        b.target("T", Schema::of(["v", "k"]), s);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert("S", source_table());
        let result = Executor::new(cat).run(&wf).unwrap();
        assert_eq!(
            result.target("T").unwrap().schema(),
            &Schema::of(["v", "k"])
        );
        assert_eq!(
            result.target("T").unwrap().rows()[0],
            vec![Scalar::Int(5), Scalar::Int(1)]
        );
    }

    #[test]
    fn multi_target_workflow() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 4.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        b.target("CLEAN", Schema::of(["k", "v"]), nn);
        b.target("RAW", Schema::of(["k", "v"]), s);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert("S", source_table());
        let result = Executor::new(cat).run(&wf).unwrap();
        assert_eq!(result.target("RAW").unwrap().len(), 4);
        assert_eq!(result.target("CLEAN").unwrap().len(), 3);
    }

    #[test]
    fn observe_packages_stats_sources_and_targets() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 4.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        b.target("T", Schema::of(["k", "v"]), nn);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert("S", source_table());
        let obs = Executor::new(cat).observe(&wf).unwrap();
        assert_eq!(obs.source_rows["S"], 4);
        assert_eq!(obs.target_rows["T"], 3);
        assert_eq!(obs.rows_processed["2"], 4);
        assert_eq!(obs.rows_out["2"], 3);
    }

    #[test]
    fn harvester_reruns_hit_the_cache_and_match_first_run() {
        // Fan-out creates a materialization boundary the cache admits; the
        // second observation of the same plan must return identical
        // source/target numbers while serving the prefix from cache.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 4.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        b.target("T1", Schema::of(["k", "v"]), nn);
        b.target("T2", Schema::of(["k", "v"]), nn);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert("S", source_table());
        let mut h = Harvester::new(Executor::new(cat));
        let first = PlanObserver::observe(&mut h, &wf).unwrap();
        let again = PlanObserver::observe(&mut h, &wf).unwrap();
        assert_eq!(h.runs(), 2);
        assert_eq!(first.target_rows, again.target_rows);
        assert_eq!(first.source_rows, again.source_rows);
        let (hits, _misses, _evicted) = h.cache().counters();
        assert!(hits > 0, "second run must reuse the cached boundary");
    }

    #[test]
    fn shared_node_computed_once() {
        // One filter feeding two targets: its stats count its input once.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 4.0);
        let nn = b.unary("NN", UnaryOp::not_null("v"), s);
        b.target("T1", Schema::of(["k", "v"]), nn);
        b.target("T2", Schema::of(["k", "v"]), nn);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert("S", source_table());
        let result = Executor::new(cat).run(&wf).unwrap();
        assert_eq!(result.stats.rows_processed["2"], 4);
    }
}
