//! Physical optimization (§6 — the paper's future work: "the physical
//! optimization of ETL workflows, i.e., taking physical operators and
//! access methods into consideration").
//!
//! The logical layer decides *which* activities run *in what order*; this
//! module decides *how* each one executes:
//!
//! * blocking operators (aggregation, dedup, PK check) choose between a
//!   **hash** implementation (linear, needs working memory for the groups)
//!   and a **sort-based** one (`n·log₂n`, but free when the input already
//!   arrives sorted on the needed key — and its output *is* sorted);
//! * surrogate keys choose between an in-memory **hash lookup** and a
//!   **sorted lookup** against the dimension table;
//! * joins/differences/intersections choose **hash** vs **sort-merge**.
//!
//! Sort orders are propagated through every row-wise operator, cut at
//! the first sorted attribute it does not keep ([`UnaryOp::keeps`]; an
//! in-place rewrite does not, injective or not) — System-R-style
//! *interesting orders*: a sort paid for once can make a downstream
//! blocking operator free, so the planner keeps a Pareto frontier of
//! `(order, cost)` alternatives per node and commits only at the targets.
//! [`PhysicalCostModel`] exposes the planned total through the
//! [`CostModel`] trait, so the logical search algorithms can optimize
//! directly against physical costs.

// The physical planner prices every search state of the physical cost
// model, inside daemon workers: a graph it cannot plan is a typed error.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::collections::BTreeMap;

use crate::activity::Op;
use crate::cost::{nlogn, CostModel, RowCountModel};
use crate::error::{CoreError, Result};
use crate::graph::{Node, NodeId};
use crate::schema::Attr;
use crate::semantics::{BinaryOp, Grouping, UnaryOp};
use crate::workflow::Workflow;

/// Physical implementation choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysImpl {
    /// Row-at-a-time scan (all row-wise operators).
    Scan,
    /// Hash-based grouping/dedup/PK check (linear, memory-bound).
    HashGroup,
    /// Sort-based grouping/dedup/PK check (free if pre-sorted; sorts its
    /// output).
    SortGroup,
    /// Surrogate key via an in-memory hash of the lookup table.
    HashLookup,
    /// Surrogate key via binary search in the sorted lookup table.
    SortedLookup,
    /// Hash join / difference / intersection.
    HashBinary,
    /// Sort-merge join / difference / intersection.
    SortMergeBinary,
    /// Bag-union concatenation.
    Concat,
}

impl PhysImpl {
    /// Display tag.
    pub fn tag(self) -> &'static str {
        match self {
            PhysImpl::Scan => "scan",
            PhysImpl::HashGroup => "hash-group",
            PhysImpl::SortGroup => "sort-group",
            PhysImpl::HashLookup => "hash-lookup",
            PhysImpl::SortedLookup => "sorted-lookup",
            PhysImpl::HashBinary => "hash",
            PhysImpl::SortMergeBinary => "sort-merge",
            PhysImpl::Concat => "concat",
        }
    }
}

/// Planner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalConfig {
    /// Rows that fit in working memory; hash implementations whose build
    /// side exceeds this are unavailable.
    pub memory_rows: f64,
    /// Estimated cardinality of surrogate-key lookup tables.
    pub lookup_rows: f64,
}

impl Default for PhysicalConfig {
    fn default() -> Self {
        PhysicalConfig {
            memory_rows: 10_000.0,
            lookup_rows: 50_000.0,
        }
    }
}

/// A sort order: the attribute prefix the data is sorted on (`None` =
/// unordered).
type SortOrder = Option<Vec<Attr>>;

/// Back-reference for plan reconstruction: the provider alternatives this
/// alternative was built from, plus the implementation chosen here.
type BackRef = (Vec<(NodeId, usize)>, PhysImpl);

/// One planned alternative at a node (the chosen implementation lives in
/// the back-reference table so the plan can be reconstructed).
#[derive(Debug, Clone)]
struct Alt {
    /// Cumulative cost of everything up to and including this node.
    cost: f64,
    /// Output order.
    order: SortOrder,
}

/// The final plan: one implementation per activity, plus the total cost.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Implementation per activity node.
    pub choices: BTreeMap<NodeId, PhysImpl>,
    /// Total physical cost.
    pub total_cost: f64,
}

/// Does `have` satisfy sortedness on `want` (prefix match)?
fn satisfies(have: &SortOrder, want: &[Attr]) -> bool {
    match have {
        None => false,
        Some(h) => h.len() >= want.len() && h[..want.len()] == *want,
    }
}

/// Plan one workflow: per-node Pareto frontier over (order, cost).
pub fn plan(wf: &Workflow, cfg: &PhysicalConfig) -> Result<PhysicalPlan> {
    let graph = wf.graph();
    let order = graph.topo_order()?;
    // Frontier per node. Kept tiny: unordered best + best per distinct
    // sort order.
    let mut frontiers: BTreeMap<NodeId, Vec<Alt>> = BTreeMap::new();
    // Remember, per node and per alternative index, which provider
    // alternative and choice produced it — enough to reconstruct choices.
    let mut back: BTreeMap<NodeId, Vec<BackRef>> = BTreeMap::new();
    // Rows do not depend on the model: any pricing carries them.
    let rows = RowCountModel::default().price(wf)?;

    for &id in &order {
        let mut alts: Vec<Alt> = Vec::new();
        let mut backrefs: Vec<BackRef> = Vec::new();
        match graph.node(id)? {
            Node::Recordset(_) => match graph.provider(id, 0)? {
                None => {
                    alts.push(Alt {
                        cost: 0.0,
                        order: None,
                    });
                    backrefs.push((Vec::new(), PhysImpl::Concat));
                }
                Some(p) => {
                    for (pi, palt) in frontiers[&p].iter().enumerate() {
                        alts.push(Alt {
                            cost: palt.cost,
                            order: palt.order.clone(),
                        });
                        backrefs.push((vec![(p, pi)], PhysImpl::Concat));
                    }
                }
            },
            Node::Activity(act) => {
                // A whole-row key is the activity's first input schema.
                let whole_row = || {
                    act.inputs
                        .first()
                        .map(|s| s.attrs().to_vec())
                        .unwrap_or_default()
                };
                let n_in: Vec<f64> = graph
                    .providers(id)?
                    .iter()
                    .map(|p| p.map(|p| rows.rows_out(p)).unwrap_or(0.0))
                    .collect();
                match &*act.op {
                    Op::Merged(_) => {
                        return Err(CoreError::MergedActivity {
                            activity: act.id.to_string(),
                        })
                    }
                    Op::Unary(link) => {
                        let p = graph
                            .provider(id, 0)?
                            .ok_or(CoreError::MissingProvider { node: id, port: 0 })?;
                        let key = link.grouping().map(|grouping| match grouping {
                            Grouping::Keys(key) => key.to_vec(),
                            Grouping::WholeRow => whole_row(),
                        });
                        let n = n_in[0];
                        // An estimate the planner cannot price leaves the
                        // node without alternatives.
                        let feasible = !(n * link.selectivity()).is_nan();
                        for (pi, palt) in frontiers[&p].iter().enumerate() {
                            if !feasible {
                                break;
                            }
                            // Price the activity against this provider
                            // alternative.
                            let mut cost = palt.cost;
                            let mut choice = PhysImpl::Scan;
                            let order = if let Some(key) = &key {
                                let hash_ok = n * link.selectivity() <= cfg.memory_rows;
                                // Sorted input → free sort-group; else the
                                // cheaper feasible.
                                let (c, imp, out_order) = if satisfies(&palt.order, key) {
                                    (n, PhysImpl::SortGroup, Some(key.clone()))
                                } else if hash_ok {
                                    (n, PhysImpl::HashGroup, None)
                                } else {
                                    (nlogn(n), PhysImpl::SortGroup, Some(key.clone()))
                                };
                                cost += c;
                                choice = imp;
                                out_order
                            } else {
                                // Row-wise: the order survives up to the
                                // first attribute the link does not keep.
                                cost += n;
                                palt.order.clone().and_then(|mut o| {
                                    o.truncate(o.iter().take_while(|a| link.keeps(a)).count());
                                    (!o.is_empty()).then_some(o)
                                })
                            };
                            if let UnaryOp::SurrogateKey { .. } = link {
                                // Already priced as row-wise scan above;
                                // add the lookup access refinement.
                                if cfg.lookup_rows <= cfg.memory_rows {
                                    choice = PhysImpl::HashLookup;
                                } else {
                                    // Binary search per row.
                                    cost += n * (cfg.lookup_rows.max(2.0)).log2() - n;
                                    choice = PhysImpl::SortedLookup;
                                }
                            }
                            alts.push(Alt { cost, order });
                            backrefs.push((vec![(p, pi)], choice));
                        }
                    }
                    Op::Binary(bop) => {
                        let provider = |port| {
                            let p = graph.provider(id, port)?;
                            p.ok_or(CoreError::MissingProvider { node: id, port })
                        };
                        let (p0, p1) = (provider(0)?, provider(1)?);
                        for (i0, a0) in frontiers[&p0].iter().enumerate() {
                            for (i1, a1) in frontiers[&p1].iter().enumerate() {
                                let base = a0.cost + a1.cost;
                                match bop {
                                    BinaryOp::Union => {
                                        alts.push(Alt {
                                            cost: base,
                                            order: None,
                                        });
                                        backrefs.push((vec![(p0, i0), (p1, i1)], PhysImpl::Concat));
                                    }
                                    BinaryOp::Join(on) => {
                                        self_binary_alts(
                                            cfg,
                                            on,
                                            base,
                                            a0,
                                            a1,
                                            n_in[0],
                                            n_in[1],
                                            &mut alts,
                                            &mut backrefs,
                                            p0,
                                            i0,
                                            p1,
                                            i1,
                                        );
                                    }
                                    BinaryOp::Difference | BinaryOp::Intersection => {
                                        self_binary_alts(
                                            cfg,
                                            &whole_row(),
                                            base,
                                            a0,
                                            a1,
                                            n_in[0],
                                            n_in[1],
                                            &mut alts,
                                            &mut backrefs,
                                            p0,
                                            i0,
                                            p1,
                                            i1,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Pareto prune: keep the cheapest alternative per distinct order,
        // and drop ordered alternatives dominated by a cheaper unordered
        // one only if their order never helps (we keep them — frontier
        // stays small in practice; cap at 8).
        alts_prune(&mut alts, &mut backrefs);
        frontiers.insert(id, alts);
        back.insert(id, backrefs);
    }

    // Commit: cheapest alternative at every target, then walk back.
    let mut choices = BTreeMap::new();
    // With several targets the max cumulative cost is reported (shared
    // upstream work would be double-counted by a sum); the evaluation
    // workloads are single-target.
    let mut total_cost: f64 = 0.0;
    let mut pending: Vec<(NodeId, usize)> = Vec::new();
    for t in wf.targets() {
        let alts = &frontiers[&t];
        let (best_idx, best) = alts
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
            .ok_or_else(|| CoreError::Schema(format!("no physical plan reaches target {t}")))?;
        total_cost = total_cost.max(best.cost);
        pending.push((t, best_idx));
    }
    while let Some((node, idx)) = pending.pop() {
        let (providers, choice) = back[&node][idx].clone();
        if graph.activity(node).is_ok() {
            choices.insert(node, choice);
        }
        for pref in providers {
            pending.push(pref);
        }
    }
    Ok(PhysicalPlan {
        choices,
        total_cost,
    })
}

#[allow(clippy::too_many_arguments)]
fn self_binary_alts(
    cfg: &PhysicalConfig,
    key: &[Attr],
    base: f64,
    a0: &Alt,
    a1: &Alt,
    n0: f64,
    n1: f64,
    alts: &mut Vec<Alt>,
    backrefs: &mut Vec<BackRef>,
    p0: NodeId,
    i0: usize,
    p1: NodeId,
    i1: usize,
) {
    // Hash: build the smaller side if it fits.
    if n0.min(n1) <= cfg.memory_rows {
        alts.push(Alt {
            cost: base + n0 + n1,
            order: None,
        });
        backrefs.push((vec![(p0, i0), (p1, i1)], PhysImpl::HashBinary));
    }
    // Sort-merge: each unsorted side pays its sort; output sorted on key.
    let sort0 = if satisfies(&a0.order, key) {
        n0
    } else {
        nlogn(n0)
    };
    let sort1 = if satisfies(&a1.order, key) {
        n1
    } else {
        nlogn(n1)
    };
    alts.push(Alt {
        cost: base + sort0 + sort1,
        order: Some(key.to_vec()),
    });
    backrefs.push((vec![(p0, i0), (p1, i1)], PhysImpl::SortMergeBinary));
}

fn alts_prune(alts: &mut Vec<Alt>, backrefs: &mut Vec<BackRef>) {
    // Keep the cheapest per distinct order; cap the frontier.
    let mut keep: Vec<usize> = Vec::new();
    for (i, a) in alts.iter().enumerate() {
        let better_exists = alts.iter().enumerate().any(|(j, b)| {
            j != i && b.order == a.order && (b.cost < a.cost || (b.cost == a.cost && j < i))
        });
        if !better_exists {
            keep.push(i);
        }
    }
    keep.sort_by(|&a, &b| alts[a].cost.total_cmp(&alts[b].cost));
    keep.truncate(8);
    let mut new_alts = Vec::with_capacity(keep.len());
    let mut new_back = Vec::with_capacity(keep.len());
    for &i in &keep {
        new_alts.push(alts[i].clone());
        new_back.push(backrefs[i].clone());
    }
    *alts = new_alts;
    *backrefs = new_back;
}

/// A [`CostModel`] whose state cost is the total of the best physical plan
/// — letting the logical search algorithms optimize directly against
/// physical costs.
///
/// Note: `cost` runs the full planner, so the state cost is **not** a sum
/// of per-activity terms — `supports_delta` is `false` and every search
/// algorithm ranks states of this model through the full `cost` (no
/// delta-repricing shortcut). Its per-operation costs, which
/// [`CostModel::price`] sums, are a context-free fallback that ignores
/// order propagation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhysicalCostModel {
    /// Planner configuration.
    pub config: PhysicalConfig,
}

impl CostModel for PhysicalCostModel {
    fn name(&self) -> &str {
        "physical"
    }

    // Context-free fallback (what `price` sums): each operation under its
    // cheapest context-free implementation.
    fn unary_cost(&self, op: &UnaryOp, n: f64) -> f64 {
        // Row-wise ops scan; blocking ops hash when the groups fit.
        if op.is_row_wise() || n * op.selectivity() <= self.config.memory_rows {
            n
        } else {
            nlogn(n)
        }
    }

    fn binary_cost(&self, op: &BinaryOp, l: f64, r: f64) -> f64 {
        match op {
            BinaryOp::Union => 0.0,
            _ if l.min(r) <= self.config.memory_rows => l + r,
            _ => nlogn(l) + nlogn(r),
        }
    }

    fn cost(&self, wf: &Workflow) -> Result<f64> {
        Ok(plan(wf, &self.config)?.total_cost)
    }

    fn supports_delta(&self) -> bool {
        // The planner's total is order-sensitive (sort orders propagate
        // across activities), so it cannot be maintained as a sum of
        // per-node terms; searches must fall back to full `cost`.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityId;
    use crate::opt::{HeuristicSearch, Optimizer};
    use crate::postcond::equivalent;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::Aggregation;
    use crate::transition::{Merge, Transition};
    use crate::workflow::WorkflowBuilder;

    fn agg_chain(rows: f64) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), rows);
        let g = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")).with_selectivity(0.5),
            s,
        );
        b.target("T", Schema::of(["k", "v"]), g);
        b.build().unwrap()
    }

    #[test]
    fn a_missing_provider_is_an_error_not_a_panic() {
        for (port, binary) in [(0, false), (0, true), (1, true)] {
            let mut b = WorkflowBuilder::new();
            let s1 = b.source("S1", Schema::of(["k", "v"]), 100.0);
            let node = if binary {
                let s2 = b.source("S2", Schema::of(["k", "v"]), 100.0);
                b.binary("J", BinaryOp::Join(vec!["k".into()]), s1, s2)
            } else {
                let f = UnaryOp::filter(Predicate::gt("v", 1));
                b.unary("σ", f, s1)
            };
            b.target("T", Schema::of(["k", "v"]), node);
            let mut wf = b.build().unwrap();
            wf.graph.disconnect(node, port).unwrap();
            let err = plan(&wf, &PhysicalConfig::default()).unwrap_err();
            assert_eq!(
                err,
                CoreError::MissingProvider { node, port },
                "port {port}"
            );
        }
    }

    #[test]
    fn hash_group_when_it_fits() {
        let wf = agg_chain(1000.0);
        let cfg = PhysicalConfig {
            memory_rows: 10_000.0,
            ..Default::default()
        };
        let p = plan(&wf, &cfg).unwrap();
        let g = wf.activities().unwrap()[0];
        assert_eq!(p.choices[&g], PhysImpl::HashGroup);
        assert!((p.total_cost - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn sort_group_when_memory_is_tight() {
        let wf = agg_chain(1000.0);
        let cfg = PhysicalConfig {
            memory_rows: 10.0,
            ..Default::default()
        };
        let p = plan(&wf, &cfg).unwrap();
        let g = wf.activities().unwrap()[0];
        assert_eq!(p.choices[&g], PhysImpl::SortGroup);
        assert!(p.total_cost > 1000.0);
    }

    #[test]
    fn sorted_input_makes_second_aggregation_free() {
        // γ(k,d) then γ(k): sort-based first aggregation leaves the data
        // sorted on (k,d), whose prefix (k) serves the second one.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "d", "v"]), 100_000.0);
        let g1 = b.unary(
            "γ1",
            UnaryOp::aggregate(Aggregation::sum(["k", "d"], "v", "v")).with_selectivity(0.9),
            s,
        );
        let g2 = b.unary(
            "γ2",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")).with_selectivity(0.5),
            g1,
        );
        b.target("T", Schema::of(["k", "v"]), g2);
        let wf = b.build().unwrap();
        // Memory too small for hashing either aggregation.
        let cfg = PhysicalConfig {
            memory_rows: 100.0,
            ..Default::default()
        };
        let p = plan(&wf, &cfg).unwrap();
        let acts = wf.activities().unwrap();
        assert_eq!(p.choices[&acts[0]], PhysImpl::SortGroup);
        assert_eq!(p.choices[&acts[1]], PhysImpl::SortGroup);
        // Total: sort(100k) + scan(90k) — not two sorts.
        let n: f64 = 100_000.0;
        let expected = n * n.log2() + 0.9 * n;
        assert!(
            (p.total_cost - expected).abs() < 1.0,
            "{} vs {}",
            p.total_cost,
            expected
        );
    }

    #[test]
    fn filters_preserve_sortedness_between_blocking_ops() {
        // γ(k) → σ → DD: the filter keeps the sort order, so a whole-row
        // dedup…  (whole-row keys differ from (k); use PK check on k).
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 50_000.0);
        let g = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")).with_selectivity(0.8),
            s,
        );
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            g,
        );
        let pk = b.unary(
            "PK",
            UnaryOp::PkCheck {
                key: vec!["k".into()],
                selectivity: 1.0,
            },
            f,
        );
        b.target("T", Schema::of(["k", "v"]), pk);
        let wf = b.build().unwrap();
        let cfg = PhysicalConfig {
            memory_rows: 1.0,
            ..Default::default()
        };
        let p = plan(&wf, &cfg).unwrap();
        let acts = wf.activities().unwrap();
        // PK check rides the order produced by the sort-based aggregation.
        assert_eq!(p.choices[&acts[2]], PhysImpl::SortGroup);
        let n: f64 = 50_000.0;
        let expected = nlogn(n) + 0.8 * n + 0.4 * n; // sort-γ + σ + free-sorted PK
        assert!(
            (p.total_cost - expected).abs() < 1.0,
            "{} vs {}",
            p.total_cost,
            expected
        );
    }

    /// S(k, v) → sort-based γ on `k` → `link` → PK check on `k`, under a
    /// memory budget that rules out hashing: the PK check is free exactly
    /// when `link` keeps the sort order on `k`.
    fn sorted_then_pk(link: UnaryOp, out: &[&str]) -> (PhysicalPlan, NodeId) {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 50_000.0);
        let g = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")).with_selectivity(0.8),
            s,
        );
        let f = b.unary("f", link, g);
        let pk = UnaryOp::PkCheck {
            key: vec!["k".into()],
            selectivity: 1.0,
        };
        let pk = b.unary("PK", pk, f);
        b.target("T", Schema::of(out.iter().copied()), pk);
        let wf = b.build().unwrap();
        let cfg = PhysicalConfig {
            memory_rows: 1.0,
            ..Default::default()
        };
        (plan(&wf, &cfg).unwrap(), pk)
    }

    #[test]
    fn an_in_place_function_breaks_the_order_it_rewrites() {
        // Injective is not monotone: an am→eu date conversion reorders
        // dates, so the PK check must sort again.
        let (p, pk) = sorted_then_pk(UnaryOp::function("am2eu", ["k"], "k"), &["k", "v"]);
        assert_eq!(p.choices[&pk], PhysImpl::SortGroup);
        let n: f64 = 50_000.0;
        let expected = nlogn(n) + 0.8 * n + nlogn(0.8 * n);
        assert!(
            (p.total_cost - expected).abs() < 1.0,
            "{} vs {}",
            p.total_cost,
            expected
        );
    }

    #[test]
    fn a_function_keeping_its_inputs_keeps_their_order() {
        let checksum = UnaryOp::Function(crate::semantics::FunctionApp {
            function: "crc".into(),
            inputs: vec!["k".into()],
            output: "crc".into(),
            keep_inputs: true,
            injective: false,
        });
        let (p, pk) = sorted_then_pk(checksum, &["k", "v", "crc"]);
        assert_eq!(p.choices[&pk], PhysImpl::SortGroup);
        let n: f64 = 50_000.0;
        let expected = nlogn(n) + 0.8 * n + 0.8 * n; // the PK check rides the order
        assert!(
            (p.total_cost - expected).abs() < 1.0,
            "{} vs {}",
            p.total_cost,
            expected
        );
    }

    #[test]
    fn a_sorted_prefix_survives_a_link_dropping_its_tail() {
        // Sort-based γ(k, d) leaves rows sorted on (k, d); π-out(d) keeps
        // them sorted on k, so the PK check on k needs no second sort.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "d", "v"]), 50_000.0);
        let g = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k", "d"], "v", "v")).with_selectivity(0.8),
            s,
        );
        let f = b.unary("π-out", UnaryOp::project_out(["d"]), g);
        let pk = UnaryOp::PkCheck {
            key: vec!["k".into()],
            selectivity: 1.0,
        };
        let pk = b.unary("PK", pk, f);
        b.target("T", Schema::of(["k", "v"]), pk);
        let wf = b.build().unwrap();
        let cfg = PhysicalConfig {
            memory_rows: 1.0,
            ..Default::default()
        };
        let p = plan(&wf, &cfg).unwrap();
        assert_eq!(p.choices[&pk], PhysImpl::SortGroup);
        assert_eq!(p.total_cost.round(), 860_482.0);
    }

    #[test]
    fn a_whole_row_key_is_the_schema_its_activity_sees() {
        // S(k, v, x) -> γ(k, v; SUM(x) -> total) -> π-out(total) -> DD: the
        // dedup's whole row is (k, v), which γ's sort already orders.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v", "x"]), 50_000.0);
        let g = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k", "v"], "x", "total")).with_selectivity(0.8),
            s,
        );
        let f = b.unary("π-out", UnaryOp::project_out(["total"]), g);
        let dd = b.unary("DD", UnaryOp::Dedup { selectivity: 1.0 }, f);
        b.target("T", Schema::of(["k", "v"]), dd);
        let wf = b.build().unwrap();
        let cfg = PhysicalConfig {
            memory_rows: 1.0,
            ..Default::default()
        };
        let p = plan(&wf, &cfg).unwrap();
        assert_eq!(p.choices[&dd], PhysImpl::SortGroup);
        assert_eq!(p.total_cost.round(), 860_482.0);
    }

    /// A merged activity exists only inside a search: the planner refuses
    /// one, naming it, instead of pricing its links.
    #[test]
    fn a_merged_activity_is_refused_before_planning() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 1_000.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 1)), s);
        let nn = b.unary("NN", UnaryOp::not_null("k"), f);
        b.target("T", Schema::of(["k", "v"]), nn);
        let apart = b.build().unwrap();
        let merged = Merge::new(f, nn).apply(&apart).unwrap();
        let err = plan(&merged, &PhysicalConfig::default()).unwrap_err();
        let ids = [f, nn].map(|n| apart.graph().activity(n).unwrap().id.clone());
        let activity = ActivityId::merged(&ids).to_string();
        assert_eq!(err, CoreError::MergedActivity { activity });
        assert!(plan(&apart, &PhysicalConfig::default()).is_ok());
        // The physical model plans every state it prices, so a search
        // under a merge constraint answers the same error.
        let hs = HeuristicSearch::new().with_merge_constraint(f, nn);
        let err = hs.run(&apart, &PhysicalCostModel::default()).unwrap_err();
        assert!(matches!(err, CoreError::MergedActivity { .. }), "{err}");
    }

    #[test]
    fn binary_ops_pick_hash_when_one_side_fits() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("BIG", Schema::of(["k", "x"]), 100_000.0);
        let s2 = b.source("SMALL", Schema::of(["k", "y"]), 100.0);
        let j = b.binary("J", BinaryOp::Join(vec!["k".into()]), s1, s2);
        b.target("T", Schema::of(["k", "x", "y"]), j);
        let wf = b.build().unwrap();
        let p = plan(&wf, &PhysicalConfig::default()).unwrap();
        let jn = wf.activities().unwrap()[0];
        assert_eq!(p.choices[&jn], PhysImpl::HashBinary);
        // And sort-merge when nothing fits.
        let tight = PhysicalConfig {
            memory_rows: 10.0,
            ..Default::default()
        };
        let p = plan(&wf, &tight).unwrap();
        assert_eq!(p.choices[&jn], PhysImpl::SortMergeBinary);
    }

    #[test]
    fn surrogate_key_lookup_strategies() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 1000.0);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "DIM"), s);
        b.target("T", Schema::of(["sk", "v"]), sk);
        let wf = b.build().unwrap();
        let roomy = PhysicalConfig {
            memory_rows: 1e6,
            lookup_rows: 1000.0,
        };
        let p = plan(&wf, &roomy).unwrap();
        let skn = wf.activities().unwrap()[0];
        assert_eq!(p.choices[&skn], PhysImpl::HashLookup);
        let tight = PhysicalConfig {
            memory_rows: 10.0,
            lookup_rows: 1e6,
        };
        let p = plan(&wf, &tight).unwrap();
        assert_eq!(p.choices[&skn], PhysImpl::SortedLookup);
        assert!(p.total_cost > 1000.0, "binary search per row costs extra");
    }

    #[test]
    fn logical_search_runs_on_physical_costs() {
        // The paper's future-work pitch, realized: HS over physical costs.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 50_000.0);
        let g = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k", "v"], "v", "total")).with_selectivity(0.9),
            s,
        );
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("k", 10)).with_selectivity(0.1),
            g,
        );
        b.target("T", Schema::of(["k", "v", "total"]), f);
        let wf = b.build().unwrap();
        let model = PhysicalCostModel {
            config: PhysicalConfig {
                memory_rows: 100.0,
                ..Default::default()
            },
        };
        let out = HeuristicSearch::new().run(&wf, &model).unwrap();
        // σ(k) over a grouper can cross γ: pushing it down shrinks the sort.
        assert!(out.best_cost < out.initial_cost);
        assert!(equivalent(&wf, &out.best).unwrap());
    }

    #[test]
    fn physical_model_never_exceeds_naive_sort_everything() {
        use crate::cost::RowCountModel;
        for seed in 0..5u64 {
            let mut rng = crate::rng::Rng::seed_from_u64(seed);
            let rows = rng.gen_range(100.0..100_000.0);
            let wf = agg_chain(rows);
            let phys = PhysicalCostModel::default().cost(&wf).unwrap();
            let naive = RowCountModel::default().cost(&wf).unwrap();
            assert!(
                phys <= naive + 1e-6,
                "physical {phys} should never beat-lose to sort-everything {naive}"
            );
        }
    }
}
