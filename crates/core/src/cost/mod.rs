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

pub(crate) use row_count::nlogn;
pub use row_count::{LinearModel, RowCountModel};

use crate::activity::{Activity, Op};
use crate::error::{CoreError, Result};
use crate::graph::{Node, NodeId};
use crate::schema_gen;
use crate::semantics::{BinaryOp, UnaryOp};
use crate::workflow::Workflow;

/// A cost model: prices each operation given the rows arriving on its
/// input ports. A model states only its formulas; pricing a whole state
/// (propagating rows from the sources and summing) is the trait's one walk,
/// [`CostModel::price`].
pub trait CostModel {
    /// Model name (for reports and benches).
    fn name(&self) -> &str;

    /// Cost of one unary operation processing `rows` rows.
    fn unary_cost(&self, op: &UnaryOp, rows: f64) -> f64;

    /// Cost of one binary operation over `left` and `right` input rows.
    fn binary_cost(&self, op: &BinaryOp, left: f64, right: f64) -> f64;

    /// Cost of one activity processing `input_rows` (one entry per port):
    /// its operation's cost, where each link of a merged chain prices the
    /// flow the links before it left. It follows from the activity's
    /// operation and `input_rows` alone, never from its schemata: the
    /// searches price a swap successor on its parent, before the swap's
    /// schemata are re-derived.
    fn activity_cost(&self, activity: &Activity, input_rows: &[f64]) -> f64 {
        match &activity.op {
            Op::Unary(op) => self.unary_cost(op, input_rows[0]),
            Op::Merged(chain) => {
                let mut n = input_rows[0];
                let mut total = 0.0;
                for op in chain {
                    total += self.unary_cost(op, n);
                    n *= op.selectivity();
                }
                total
            }
            Op::Binary(op) => self.binary_cost(op, input_rows[0], input_rows[1]),
        }
    }

    /// Total cost of a state, `C(S)`: the total of [`CostModel::price`].
    /// A model whose state cost is not the sum of its activities' costs
    /// overrides this, and returns `false` from
    /// [`CostModel::supports_delta`].
    fn cost(&self, wf: &Workflow) -> Result<f64> {
        Ok(self.price(wf)?.total)
    }

    /// Whether [`CostModel::price`] / [`CostModel::reprice_from`] agree
    /// with this model's notion of state cost. The default holds for any
    /// model that keeps the default [`CostModel::cost`]; a model that
    /// overrides `cost` with something richer (e.g. the physical planner)
    /// must return `false` so the searches fall back to full `cost` calls.
    fn supports_delta(&self) -> bool {
        true
    }

    /// Price a state from scratch: propagate rows from the sources in
    /// topological order and total the activities' costs. This is the one
    /// row propagation; [`CostModel::reprice_from`] is its delta twin.
    /// Totals are summed in *slot* order over the live graph, so that a
    /// delta reprice (which reuses parent values bit-for-bit) reproduces
    /// the exact same `f64`, keeping comparisons stable no matter how a
    /// state was reached.
    fn price(&self, wf: &Workflow) -> Result<CostVec> {
        let graph = wf.graph();
        let mut cv = CostVec::zeroed(graph.slot_capacity());
        reprice_into(self, wf, &mut cv, &graph.topo_order()?, &[])?;
        Ok(cv)
    }

    /// Delta costing (§4.1): given the parent state's [`CostVec`] and the
    /// nodes a transition touched, recompute rows and cost only along
    /// [`schema_gen::downstream_of`] those nodes, evaluated on the
    /// successor graph. Untouched nodes keep the parent's values verbatim,
    /// which is exact (not approximate): every node's rows/cost is a pure
    /// function of its providers', and transitions report `affected` sets
    /// whose downstream closure covers every node whose providers changed,
    /// including freed arena slots that a FAC/DIS re-populated.
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
                Op::Binary(b) => {
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

/// Flat, slot-indexed pricing of a state: the rows out of every node and
/// the cost of every activity. Indexed by arena slot; dead slots carry
/// stale values that are never read (only live providers are consulted,
/// and the total sums live activities only).
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

    /// Slot-order sum over the live graph. Every total — `price`,
    /// `reprice_along` and so `cost` — is this sum, so a delta-repriced
    /// state and a from-scratch one produce bit-identical totals (same
    /// addends, same order).
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

/// Cardinality estimate for binary operators: bag union adds, join assumes
/// foreign-key-ish matching on the smaller side, difference and intersection
/// are bounded by the left input (we take the standard halved estimate for
/// lack of statistics).
fn binary_cardinality(op: &BinaryOp, left: f64, right: f64) -> f64 {
    match op {
        BinaryOp::Union => left + right,
        BinaryOp::Join(_) => left.min(right),
        BinaryOp::Difference => (left - right).max(left / 2.0),
        BinaryOp::Intersection => left.min(right) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
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
    fn price_sums_activity_costs() {
        let wf = chain();
        let m = RowCountModel::default();
        // σ: 1000; SK: 500·log2(500).
        let expected = 1000.0 + 500.0 * (500.0_f64).log2();
        let total = m.price(&wf).unwrap().total;
        assert!((total - expected).abs() < 1e-6, "{total}");
        assert_eq!(m.cost(&wf).unwrap().to_bits(), total.to_bits());
    }

    /// `reprice_from` the parent's tables equals `price` from scratch, to
    /// the bit, in every live slot.
    fn assert_delta_is_scratch(m: &RowCountModel, next: &Workflow, delta: &CostVec) {
        let full = m.price(next).unwrap();
        assert_eq!(delta.total.to_bits(), full.total.to_bits());
        for (id, _) in next.graph().iter() {
            assert_eq!(delta.rows_out(id).to_bits(), full.rows_out(id).to_bits());
            assert_eq!(delta.node_cost(id).to_bits(), full.node_cost(id).to_bits());
        }
    }

    #[test]
    fn delta_matches_full_across_a_swap() {
        use crate::transition::{Swap, Transition};
        let m = RowCountModel::default();
        let wf = chain();
        let prev = m.price(&wf).unwrap();
        let acts = wf.activities().unwrap();
        let t = Swap::new(acts[0], acts[1]);
        let next = t.apply(&wf).unwrap();
        let delta = m.reprice_from(&next, &prev, &t.affected(&wf)).unwrap();
        assert_delta_is_scratch(&m, &next, &delta);
    }

    #[test]
    fn delta_matches_full_across_distribute() {
        // Distribute splices clones *upstream* of the binary and may reuse
        // freed arena slots — the regression this test pins down.
        use crate::transition::{Distribute, Transition};
        let m = RowCountModel::default();
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 64.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 32.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            u,
        );
        b.target("T", Schema::of(["k", "v"]), sel);
        let wf = b.build().unwrap();
        let prev = m.price(&wf).unwrap();
        let t = Distribute::new(u, sel);
        let next = t.apply(&wf).unwrap();
        let delta = m.reprice_from(&next, &prev, &t.affected(&wf)).unwrap();
        assert_delta_is_scratch(&m, &next, &delta);
    }

    #[test]
    fn every_live_node_of_a_priced_state_has_a_slot() {
        // Property: however a state was reached — from-scratch pricing or a
        // chain of delta reprices across transitions that free and reuse
        // arena slots — every live node of the priced workflow answers
        // `rows_out`/`node_cost` from a real slot (the accessors' lenient
        // out-of-range fallback is never taken), and the per-node costs
        // agree with a from-scratch pricing.
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
                let full = m.price(&wf).unwrap();
                for (id, _) in wf.graph().iter() {
                    let rows = cv.rows_out(id);
                    let cost = cv.node_cost(id);
                    assert!(rows.is_finite() && cost.is_finite(), "seed {seed}, {id}");
                    assert_eq!(
                        cost.to_bits(),
                        full.node_cost(id).to_bits(),
                        "seed {seed}, node {id}: delta {cost} vs full {}",
                        full.node_cost(id)
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
        let cv = RowCountModel::default().price(&wf).unwrap();
        let t = wf.targets()[0];
        assert_eq!(cv.rows_out(t), 150.0);
    }
}
