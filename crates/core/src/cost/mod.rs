//! Cost models (§2.2) and the semi-incremental state costing of §4.1.
//!
//! The total cost of a state is the sum of its activities' costs,
//! `C(S) = Σ c(aᵢ)`, where each activity's cost depends on the rows it
//! processes — which in turn depends on its *position* in the graph (rows
//! shrink as selective activities move toward the sources). The framework
//! "is not in particular dependent on the cost model chosen": [`CostModel`]
//! is a trait, and [`RowCountModel`] is the paper's simple processed-rows
//! model with the classic per-operator formulas (linear scans for row-wise
//! operators, `n·log₂n` for sort/lookup-based ones, as in the Fig. 4
//! example).

mod row_count;

pub use row_count::{LinearModel, RowCountModel};

use std::collections::BTreeMap;

use crate::activity::Activity;
use crate::error::{CoreError, Result};
use crate::graph::{Node, NodeId};
use crate::schema_gen;
use crate::workflow::{binary_cardinality, Workflow};

/// A cost model: prices one activity given the rows arriving on each of its
/// input ports.
///
/// `Sync` is a supertrait so the search algorithms can price candidate
/// states from worker threads; models are expected to be stateless (all
/// in-repo models are plain parameter structs).
pub trait CostModel: Sync {
    /// Model name (for reports and benches).
    fn name(&self) -> &str;

    /// Cost of one activity processing `input_rows` (one entry per port).
    /// It must follow from the activity's operation and `input_rows`
    /// alone, never from its schemata: the searches price a swap successor
    /// on its parent, before the swap's schemata are re-derived.
    fn activity_cost(&self, activity: &Activity, input_rows: &[f64]) -> f64;

    /// Total cost of a state: propagate row counts from the sources and sum
    /// the per-activity costs. This is the search hot path, so it uses a
    /// flat slot-indexed row table instead of building a [`CostReport`].
    fn cost(&self, wf: &Workflow) -> Result<f64> {
        let graph = wf.graph();
        let order = graph.topo_order()?;
        let cap = order
            .iter()
            .map(|id| id.0 as usize)
            .max()
            .map_or(0, |m| m + 1);
        let mut rows: Vec<f64> = vec![0.0; cap];
        let mut total = 0.0;
        for &id in &order {
            let out_rows = match graph.node(id)? {
                Node::Recordset(r) => match graph.provider(id, 0)? {
                    None => r.row_estimate,
                    Some(p) => rows[p.0 as usize],
                },
                Node::Activity(a) => {
                    let providers = graph.providers(id)?;
                    let in0 = providers
                        .first()
                        .copied()
                        .flatten()
                        .map(|p| rows[p.0 as usize])
                        .unwrap_or(0.0);
                    match &a.op {
                        crate::activity::Op::Binary(b) => {
                            let in1 = providers
                                .get(1)
                                .copied()
                                .flatten()
                                .map(|p| rows[p.0 as usize])
                                .unwrap_or(0.0);
                            total += self.activity_cost(a, &[in0, in1]);
                            binary_cardinality(b, in0, in1)
                        }
                        _ => {
                            total += self.activity_cost(a, &[in0]);
                            in0 * a.selectivity()
                        }
                    }
                }
            };
            rows[id.0 as usize] = out_rows;
        }
        Ok(total)
    }

    /// Full per-node cost breakdown.
    fn report(&self, wf: &Workflow) -> Result<CostReport> {
        let order = wf.graph().topo_order()?;
        let mut rows: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut per_node: BTreeMap<NodeId, f64> = BTreeMap::new();
        for &id in &order {
            compute_node(self, wf, id, &mut rows, &mut per_node)?;
        }
        Ok(CostReport {
            total: per_node.values().sum(),
            per_node,
            rows,
        })
    }

    /// Whether [`CostModel::price`] / [`CostModel::reprice_from`] agree
    /// with this model's notion of state cost. The default (generic
    /// per-activity summation) holds for any model whose `cost` is the sum
    /// of `activity_cost` over the propagated row counts; a model that
    /// overrides `cost` with something richer (e.g. the physical planner)
    /// must return `false` so the searches fall back to full `cost` calls.
    fn supports_delta(&self) -> bool {
        true
    }

    /// Full slot-indexed pricing of a state — the from-scratch twin of
    /// [`CostModel::reprice_from`]. Same totals as [`CostModel::cost`] up to
    /// summation order: `price` totals are summed in *slot* order over the
    /// live graph so that a delta reprice (which reuses parent values
    /// bit-for-bit) reproduces the exact same `f64`, keeping comparisons
    /// stable no matter how a state was reached.
    fn price(&self, wf: &Workflow) -> Result<CostVec> {
        let graph = wf.graph();
        let mut cv = CostVec::zeroed(graph.slot_capacity());
        reprice_into(self, wf, &mut cv, &graph.topo_order()?, &[])?;
        Ok(cv)
    }

    /// Delta costing (§4.1, tentpole form): given the parent state's
    /// [`CostVec`] and the *dirty* node list — [`schema_gen::downstream_of`]
    /// of the transition's affected nodes, evaluated on the successor graph
    /// — recompute rows and cost only along that list. Untouched nodes keep
    /// the parent's values verbatim, which is exact (not approximate):
    /// every node's rows/cost is a pure function of its providers', and
    /// transitions report `affected` sets whose downstream closure covers
    /// every node whose providers changed, including freed arena slots that
    /// a FAC/DIS re-populated.
    fn reprice_from(
        &self,
        wf: &Workflow,
        parent: &CostVec,
        dirty_roots: &[NodeId],
    ) -> Result<CostVec> {
        let dirty = schema_gen::downstream_of(wf.graph(), dirty_roots)?;
        self.reprice_along(wf, parent, &dirty)
    }

    /// [`CostModel::reprice_from`] with the dirty list precomputed — the
    /// search hot path, which shares one `downstream_of` walk between
    /// repricing, re-tokening and regeneration.
    fn reprice_along(&self, wf: &Workflow, parent: &CostVec, dirty: &[NodeId]) -> Result<CostVec> {
        let mut cv = parent.clone();
        reprice_into(self, wf, &mut cv, dirty, &[])?;
        Ok(cv)
    }

    /// Semi-incremental costing (§4.1): given the report of a previous,
    /// structurally similar state and the nodes a transition touched,
    /// recompute only the affected nodes and everything downstream of them;
    /// untouched nodes keep their previous cost. Node ids of untouched nodes
    /// are stable across transitions, which is what makes this sound.
    fn report_incremental(
        &self,
        wf: &Workflow,
        previous: &CostReport,
        affected: &[NodeId],
    ) -> Result<CostReport> {
        let graph = wf.graph();
        let dirty = schema_gen::downstream_of(graph, affected)?;
        let mut rows = BTreeMap::new();
        let mut per_node = BTreeMap::new();
        // Keep previous values for clean, still-live nodes.
        for (&id, &r) in &previous.rows {
            if graph.contains(id) && !dirty.contains(&id) {
                rows.insert(id, r);
                if let Some(&c) = previous.per_node.get(&id) {
                    per_node.insert(id, c);
                }
            }
        }
        // Recompute dirty nodes in topological order; also fill any node the
        // previous report never saw (fresh nodes from FAC/DIS).
        for &id in &graph.topo_order()? {
            if !rows.contains_key(&id) {
                compute_node(self, wf, id, &mut rows, &mut per_node)?;
            }
        }
        Ok(CostReport {
            total: per_node.values().sum(),
            per_node,
            rows,
        })
    }
}

/// The total [`CostModel::reprice_along`] would give the successor, priced
/// with provider edges `(node, port, provider)` read as an overlay on `wf`'s
/// graph, in the calling thread's scratch tables: the whole walk, for a swap
/// whose rows escape its consumer ([`SwapPricing::total`] is `None`). `wf`
/// is the parent, `overlay` the three edges the swap will write, `dirty` the
/// successor's walk. A swap moves edges, never a node, so the successor has
/// the parent's live slots and activities: the same addends, summed in the
/// same slot order, give the built state's total to the bit.
pub(crate) fn reprice_total_with_edges(
    model: &dyn CostModel,
    wf: &Workflow,
    parent: &CostVec,
    dirty: &[NodeId],
    overlay: &[(NodeId, usize, NodeId)],
) -> Result<f64> {
    SCRATCH.with(|scratch| {
        let mut own = CostVec::zeroed(0);
        let mut borrowed = scratch.try_borrow_mut();
        let cv = borrowed.as_deref_mut().unwrap_or(&mut own);
        cv.rows.clone_from(&parent.rows);
        cv.node_cost.clone_from(&parent.node_cost);
        reprice_into(model, wf, cv, dirty, overlay)?;
        Ok(cv.total)
    })
}

thread_local! {
    /// [`reprice_total_with_edges`]'s tables: the parent's, then the
    /// candidate's along its walk; overwritten by the next candidate.
    static SCRATCH: std::cell::RefCell<CostVec> = const {
        std::cell::RefCell::new(CostVec { total: 0.0, rows: Vec::new(), node_cost: Vec::new() })
    };
}

/// A swap's three rewired nodes — `second`, `first` and their consumer
/// `c` — priced on the parent through the edges the swap will write, into
/// locals: `(node, rows out, cost)` each, in that order.
///
/// When `c` hands on the parent's rows bit for bit, every node past it
/// reads the rows it read before and prices to the same bits, because
/// [`CostModel::activity_cost`] may read only the op and the input rows.
/// The successor's tables are then the parent's with these three entries,
/// and its total is the parent's slot-order sum with their costs in place
/// (the addends and order of [`CostVec::sum_live`]) — no walk past `c`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwapPricing {
    nodes: [(NodeId, f64, f64); 3],
    contained: bool,
}

impl SwapPricing {
    /// Price `edges` — `(second, 0, p)`, `(first, 0, second)`, `(c, port,
    /// first)` — against `parent`, `wf`'s pricing.
    pub(crate) fn of<M: CostModel + ?Sized>(
        model: &M,
        wf: &Workflow,
        parent: &CostVec,
        edges: &[(NodeId, usize, NodeId); 3],
    ) -> Result<SwapPricing> {
        let mut nodes = [(NodeId(0), 0.0, 0.0); 3];
        for (i, &(id, ..)) in edges.iter().enumerate() {
            let (ports, n) = wf.graph().providers_with(id, edges)?;
            let (done, _) = nodes.split_at(i);
            let rows = |p: NodeId| match done.iter().find(|(id, ..)| *id == p) {
                Some(&(_, rows, _)) => rows,
                None => parent.rows_out(p),
            };
            let (rows, cost) = priced(model, wf, id, &ports[..n], rows)?;
            nodes[i] = (id, rows, cost);
        }
        let (c, rows, _) = nodes[2];
        let contained = rows.to_bits() == parent.rows_out(c).to_bits();
        Ok(SwapPricing { nodes, contained })
    }

    /// The successor's total, when the rows stop at `c`.
    pub(crate) fn total(&self, wf: &Workflow, parent: &CostVec) -> Option<f64> {
        self.contained.then(|| {
            let mut total = 0.0;
            for (id, node) in wf.graph().iter() {
                if matches!(node, Node::Activity(_)) {
                    total += match self.nodes.iter().find(|(n, ..)| *n == id) {
                        Some(&(_, _, cost)) => cost,
                        None => parent.node_cost[id.0 as usize],
                    };
                }
            }
            total
        })
    }

    /// The successor's tables, when the rows stop at `c`: `parent` with the
    /// three entries patched.
    pub(crate) fn patched(&self, wf: &Workflow, parent: &CostVec) -> Option<CostVec> {
        let total = self.total(wf, parent)?;
        let mut cv = parent.clone();
        for (id, rows, cost) in self.nodes {
            cv.rows[id.0 as usize] = rows;
            cv.node_cost[id.0 as usize] = cost;
        }
        cv.total = total;
        Some(cv)
    }
}

/// Reprice `dirty` in `cv`, which holds the parent's pricing, with the
/// providers `overlay` writes over `wf`'s graph, and total it.
fn reprice_into<M: CostModel + ?Sized>(
    model: &M,
    wf: &Workflow,
    cv: &mut CostVec,
    dirty: &[NodeId],
    overlay: &[(NodeId, usize, NodeId)],
) -> Result<()> {
    let graph = wf.graph();
    cv.rows.resize(graph.slot_capacity(), 0.0);
    cv.node_cost.resize(graph.slot_capacity(), 0.0);
    for &id in dirty {
        let (ports, n) = graph.providers_with(id, overlay)?;
        let (rows, cost) = priced(model, wf, id, &ports[..n], |p| cv.rows[p.0 as usize])?;
        cv.rows[id.0 as usize] = rows;
        cv.node_cost[id.0 as usize] = cost;
    }
    cv.total = cv.sum_live(wf);
    Ok(())
}

/// Price one node: the rows out of it and its activity cost, from the rows
/// `rows` gives for the providers on its `ports`. Recordsets are explicitly
/// priced at 0.0 — a reused arena slot may have held an activity in the
/// parent state, and its stale cost must not leak into the slot-order
/// total.
fn priced<M: CostModel + ?Sized>(
    model: &M,
    wf: &Workflow,
    id: NodeId,
    ports: &[Option<NodeId>],
    rows: impl Fn(NodeId) -> f64,
) -> Result<(f64, f64)> {
    let rows_in = |port: usize| -> f64 {
        let provider = ports.get(port).copied().flatten();
        provider.map(&rows).unwrap_or(0.0)
    };
    Ok(match wf.graph().node(id)? {
        Node::Recordset(r) => {
            let writer = ports.first().copied();
            let rows = match writer.ok_or(CoreError::MissingProvider { node: id, port: 0 })? {
                None => r.row_estimate,
                Some(_) => rows_in(0),
            };
            (rows, 0.0)
        }
        Node::Activity(a) => {
            let in0 = rows_in(0);
            match &a.op {
                crate::activity::Op::Binary(b) => {
                    let in1 = rows_in(1);
                    (
                        binary_cardinality(b, in0, in1),
                        model.activity_cost(a, &[in0, in1]),
                    )
                }
                _ => (in0 * a.selectivity(), model.activity_cost(a, &[in0])),
            }
        }
    })
}

/// Flat, slot-indexed pricing of a state — the delta-costing companion of
/// [`CostReport`]. Indexed by arena slot; dead slots carry stale values
/// that are never read (only live providers are consulted, and the total
/// sums live activities only).
#[derive(Debug, Clone, PartialEq)]
pub struct CostVec {
    /// Total state cost `C(S)`, summed over live activities in slot order.
    pub total: f64,
    rows: Vec<f64>,
    node_cost: Vec<f64>,
}

impl CostVec {
    fn zeroed(cap: usize) -> CostVec {
        CostVec {
            total: 0.0,
            rows: vec![0.0; cap],
            node_cost: vec![0.0; cap],
        }
    }

    /// Rows flowing out of `id`.
    ///
    /// An id beyond this vec's slot capacity was never priced by it —
    /// almost always a node id from a *different* state's arena. Release
    /// builds keep the historical lenient `0.0` (callers aggregate over
    /// live nodes and a dead slot contributes nothing); debug builds fail
    /// hard so the mixed-up arena is caught at the source.
    pub fn rows_out(&self, id: NodeId) -> f64 {
        let slot = id.0 as usize;
        debug_assert!(
            slot < self.rows.len(),
            "rows_out({id}): slot {slot} outside capacity {} — node from another arena?",
            self.rows.len()
        );
        self.rows.get(slot).copied().unwrap_or(0.0)
    }

    /// Cost charged to `id` (0.0 for recordsets). Same out-of-range policy
    /// as [`CostVec::rows_out`]: lenient in release, hard error in debug.
    pub fn node_cost(&self, id: NodeId) -> f64 {
        let slot = id.0 as usize;
        debug_assert!(
            slot < self.node_cost.len(),
            "node_cost({id}): slot {slot} outside capacity {} — node from another arena?",
            self.node_cost.len()
        );
        self.node_cost.get(slot).copied().unwrap_or(0.0)
    }

    /// Slot-order sum over the live graph. Both `price` and `reprice_along`
    /// finish with this, so a delta-repriced state and a from-scratch one
    /// produce bit-identical totals (same addends, same order).
    fn sum_live(&self, wf: &Workflow) -> f64 {
        let mut total = 0.0;
        for (id, node) in wf.graph().iter() {
            if matches!(node, Node::Activity(_)) {
                total += self.node_cost[id.0 as usize];
            }
        }
        total
    }
}

fn compute_node<M: CostModel + ?Sized>(
    model: &M,
    wf: &Workflow,
    id: NodeId,
    rows: &mut BTreeMap<NodeId, f64>,
    per_node: &mut BTreeMap<NodeId, f64>,
) -> Result<()> {
    let graph = wf.graph();
    let out_rows = match graph.node(id)? {
        Node::Recordset(r) => match graph.provider(id, 0)? {
            None => r.row_estimate,
            Some(p) => rows[&p],
        },
        Node::Activity(a) => {
            let inputs: Vec<f64> = graph
                .providers(id)?
                .iter()
                .map(|p| p.map(|p| rows[&p]).unwrap_or(0.0))
                .collect();
            per_node.insert(id, model.activity_cost(a, &inputs));
            match &a.op {
                crate::activity::Op::Binary(b) => binary_cardinality(b, inputs[0], inputs[1]),
                _ => inputs[0] * a.selectivity(),
            }
        }
    };
    rows.insert(id, out_rows);
    Ok(())
}

/// Per-node cost breakdown of a state.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Total state cost `C(S)`.
    pub total: f64,
    /// Cost per activity node.
    pub per_node: BTreeMap<NodeId, f64>,
    /// Estimated rows flowing out of every node.
    pub rows: BTreeMap<NodeId, f64>,
}

impl CostReport {
    /// Cost of one node (0 for recordsets).
    pub fn node_cost(&self, id: NodeId) -> f64 {
        self.per_node.get(&id).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::{BinaryOp, UnaryOp};
    use crate::workflow::WorkflowBuilder;

    fn chain() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 1000.0);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            s,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), f);
        b.target("T", Schema::of(["sk", "v"]), sk);
        b.build().unwrap()
    }

    #[test]
    fn report_sums_activity_costs() {
        let wf = chain();
        let m = RowCountModel::default();
        let rep = m.report(&wf).unwrap();
        // σ: 1000; SK: 500·log2(500).
        let expected = 1000.0 + 500.0 * (500.0_f64).log2();
        assert!((rep.total - expected).abs() < 1e-6, "{}", rep.total);
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let wf = chain();
        let m = RowCountModel::default();
        let full = m.report(&wf).unwrap();
        // Pretend the filter changed: recompute downstream of it.
        let filter = wf.activities().unwrap()[0];
        let inc = m.report_incremental(&wf, &full, &[filter]).unwrap();
        assert!((inc.total - full.total).abs() < 1e-9);
        assert_eq!(inc.per_node, full.per_node);
    }

    #[test]
    fn incremental_matches_full_across_a_transition() {
        // The real contract: previous report comes from the pre-transition
        // state; the successor re-prices only downstream of the affected
        // nodes.
        use crate::transition::{Swap, Transition};
        let m = RowCountModel::default();
        let wf = chain();
        let prev = m.report(&wf).unwrap();
        let acts = wf.activities().unwrap();
        let (f, sk) = (acts[0], acts[1]);
        let t = Swap::new(f, sk);
        let next = t.apply(&wf).unwrap();
        let inc = m
            .report_incremental(&next, &prev, &t.affected(&wf))
            .unwrap();
        let full = m.report(&next).unwrap();
        assert!((inc.total - full.total).abs() < 1e-9);
        assert_eq!(inc.per_node, full.per_node);
        assert_eq!(inc.rows, full.rows);
    }

    #[test]
    fn incremental_matches_full_across_distribute() {
        // Distribute splices clones *upstream* of the binary and may reuse
        // freed arena slots — the regression this test pins down.
        use crate::transition::{Distribute, Transition};
        let m = RowCountModel::default();
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 64.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 32.0);
        let u = b.binary("U", crate::semantics::BinaryOp::Union, s1, s2);
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            u,
        );
        b.target("T", Schema::of(["k", "v"]), sel);
        let wf = b.build().unwrap();
        let prev = m.report(&wf).unwrap();
        let t = Distribute::new(u, sel);
        let next = t.apply(&wf).unwrap();
        let inc = m
            .report_incremental(&next, &prev, &t.affected(&wf))
            .unwrap();
        let full = m.report(&next).unwrap();
        assert!((inc.total - full.total).abs() < 1e-9);
        assert_eq!(inc.per_node, full.per_node);
        assert_eq!(inc.rows, full.rows);
    }

    #[test]
    fn every_live_node_of_a_priced_state_has_a_slot() {
        // Property: however a state was reached — from-scratch pricing or a
        // chain of delta reprices across transitions that free and reuse
        // arena slots — every live node of the priced workflow answers
        // `rows_out`/`node_cost` from a real slot (the accessors' lenient
        // out-of-range fallback is never taken), and the per-node costs
        // agree with a from-scratch report.
        use crate::opt::MoveMemo;
        use crate::rng::Rng;
        let m = RowCountModel::default();
        let memo = MoveMemo::new();
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut b = WorkflowBuilder::new();
            let s1 = b.source("S1", Schema::of(["k", "v"]), 64.0);
            let s2 = b.source("S2", Schema::of(["k", "v"]), 32.0);
            let u = b.binary("U", BinaryOp::Union, s1, s2);
            let sel = b.unary(
                "σ",
                UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
                u,
            );
            let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), sel);
            b.target("T", Schema::of(["sk", "v"]), sk);
            let mut wf = b.build().unwrap();
            let mut cv = m.price(&wf).unwrap();
            for _ in 0..6 {
                let applicable: Vec<_> = memo
                    .moves(&wf)
                    .unwrap()
                    .into_iter()
                    .filter_map(|mv| mv.apply(&wf).ok().map(|next| (mv, next)))
                    .collect();
                if applicable.is_empty() {
                    break;
                }
                let (mv, next) = &applicable[rng.gen_range(0..applicable.len())];
                cv = m.reprice_from(next, &cv, &mv.affected(&wf)).unwrap();
                wf = next.clone();
                let report = m.report(&wf).unwrap();
                for (id, _) in wf.graph().iter() {
                    let rows = cv.rows_out(id);
                    let cost = cv.node_cost(id);
                    assert!(rows.is_finite() && cost.is_finite(), "seed {seed}, {id}");
                    assert!(
                        (cost - report.node_cost(id)).abs() < 1e-9,
                        "seed {seed}, node {id}: delta {cost} vs full {}",
                        report.node_cost(id)
                    );
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside capacity")]
    fn rows_out_rejects_foreign_ids_in_debug() {
        let wf = chain();
        let cv = RowCountModel::default().price(&wf).unwrap();
        let _ = cv.rows_out(crate::graph::NodeId(10_000));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside capacity")]
    fn node_cost_rejects_foreign_ids_in_debug() {
        let wf = chain();
        let cv = RowCountModel::default().price(&wf).unwrap();
        let _ = cv.node_cost(crate::graph::NodeId(10_000));
    }

    #[test]
    fn union_rows_add_up() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["a"]), 100.0);
        let s2 = b.source("S2", Schema::of(["a"]), 50.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        b.target("T", Schema::of(["a"]), u);
        let wf = b.build().unwrap();
        let rep = RowCountModel::default().report(&wf).unwrap();
        let t = wf.targets()[0];
        assert_eq!(rep.rows[&t], 150.0);
    }
}
