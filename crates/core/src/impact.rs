//! Impact analysis and attribute lineage (§6 — the paper's future work:
//! "the impact analysis of changes and failures in the workflow
//! environment").
//!
//! Two directions over the same machinery:
//!
//! * **Forward impact** — given a change at a node (an attribute dropped or
//!   renamed at a source, an activity failing), which downstream activities
//!   and which warehouse targets are affected?
//! * **Backward lineage** — given a target attribute, which source
//!   attributes feed it, through which function applications and
//!   aggregations? (The companion problem of Cui & Widom's lineage tracing,
//!   ref. \[5\] of the paper.)
//!
//! Both respect the schema semantics of §3.2: a function *consumes* its
//! functionality schema and *produces* its generated schema, so lineage
//! flows through `$2€` from `dollar_cost` to `euro_cost`; attributes that
//! merely pass through an activity are transparent to it.

// Impact analysis answers daemon and CLI requests: a workflow it cannot
// walk is a typed error.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::collections::BTreeSet;

use crate::activity::{Activity, Op};
use crate::error::{CoreError, Result};
use crate::graph::{Node, NodeId};
use crate::schema::{Attr, Schema};
use crate::semantics::UnaryOp;
use crate::workflow::Workflow;

/// A hypothetical change to analyze.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// An attribute disappears from a source recordset (schema drift).
    DropAttribute {
        /// The source recordset.
        source: NodeId,
        /// The vanished attribute.
        attr: Attr,
    },
    /// An attribute is renamed at a source recordset.
    RenameAttribute {
        /// The source recordset.
        source: NodeId,
        /// Old reference name.
        from: Attr,
        /// New reference name.
        to: Attr,
    },
    /// An activity fails at run time (its whole output is unavailable).
    ActivityFailure {
        /// The failing activity.
        node: NodeId,
    },
}

/// The result of an impact analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpactReport {
    /// Activities whose input is (transitively) touched by the change.
    pub affected_activities: Vec<NodeId>,
    /// Activities that would actually *break*: their functionality schema
    /// is no longer satisfied under the change.
    pub broken_activities: Vec<NodeId>,
    /// Target recordsets whose loaded data is touched.
    pub affected_targets: Vec<NodeId>,
}

impl ImpactReport {
    /// Nothing is affected.
    pub fn is_clean(&self) -> bool {
        self.affected_activities.is_empty()
            && self.broken_activities.is_empty()
            && self.affected_targets.is_empty()
    }
}

/// The attributes at the output of `op` run over `input` that derive from
/// the `tainted` attributes at its input. The output schema
/// ([`UnaryOp::output`]) decides what survives: a tainted attribute stays
/// tainted while the output still carries it, and an operator that
/// consumes a tainted attribute taints everything it generates. So taint
/// flows through `$2€` from `dollar_cost` to `euro_cost`, stops at a
/// projection, and passes an in-place function or a grouper under its own
/// name.
fn propagate_through(
    op: &UnaryOp,
    input: &Schema,
    mut tainted: BTreeSet<Attr>,
) -> Result<BTreeSet<Attr>> {
    let output = op.output(input)?;
    let consumed = op.functionality().iter().any(|a| tainted.contains(a));
    tainted.retain(|a| output.contains(a));
    if consumed {
        tainted.extend(op.generated().iter().cloned());
    }
    Ok(tainted)
}

/// The one unary operator of `act`, `None` for a binary activity. A merged
/// activity exists only inside a search, so it is refused.
fn unary_of(act: &Activity) -> Result<Option<&UnaryOp>> {
    match &*act.op {
        Op::Unary(op) => Ok(Some(op)),
        Op::Binary(_) => Ok(None),
        Op::Merged(_) => Err(CoreError::MergedActivity {
            activity: act.id.to_string(),
        }),
    }
}

/// Forward impact of a change.
pub fn analyze(wf: &Workflow, change: &Change) -> Result<ImpactReport> {
    match change {
        Change::DropAttribute { source, attr } => attribute_impact(wf, *source, attr, true),
        Change::RenameAttribute { source, from, .. } => {
            // A rename breaks exactly what a drop breaks (consumers look the
            // attribute up by its reference name); it merely also suggests
            // the fix (re-map the naming registry).
            attribute_impact(wf, *source, from, true)
        }
        Change::ActivityFailure { node } => {
            let down = crate::schema_gen::downstream_of(wf.graph(), &[*node])?;
            let mut report = ImpactReport::default();
            for id in down {
                if id == *node {
                    continue;
                }
                match wf.graph().node(id)? {
                    Node::Activity(_) => report.affected_activities.push(id),
                    Node::Recordset(_) => {
                        if wf.graph().consumers(id)?.is_empty() {
                            report.affected_targets.push(id);
                        }
                    }
                }
            }
            Ok(report)
        }
    }
}

/// Attribute-level forward taint walk.
fn attribute_impact(
    wf: &Workflow,
    source: NodeId,
    attr: &Attr,
    breaks: bool,
) -> Result<ImpactReport> {
    let graph = wf.graph();
    let mut report = ImpactReport::default();
    // tainted[node] = set of attribute names at that node's output that
    // derive from the changed attribute.
    let order = graph.topo_order()?;
    let mut tainted: Vec<Vec<Attr>> = vec![Vec::new(); graph_cap(&order)];
    if graph.contains(source) {
        tainted[source.0 as usize] = vec![attr.clone()];
    }
    for &id in &order {
        if id == source {
            continue;
        }
        // Union of providers' tainted sets.
        let mut incoming: BTreeSet<Attr> = BTreeSet::new();
        for p in graph.providers(id)?.iter().flatten() {
            for a in &tainted[p.0 as usize] {
                incoming.insert(a.clone());
            }
        }
        if incoming.is_empty() {
            continue;
        }
        match graph.node(id)? {
            Node::Recordset(_) => {
                tainted[id.0 as usize] = incoming.into_iter().collect();
                if graph.consumers(id)?.is_empty() {
                    report.affected_targets.push(id);
                }
            }
            Node::Activity(act) => {
                report.affected_activities.push(id);
                let unary = unary_of(act)?;
                let consumes = |a: &Attr| unary.is_some_and(|op| op.functionality().contains(a));
                if breaks && incoming.iter().any(consumes) {
                    report.broken_activities.push(id);
                }
                let out = match (unary, act.inputs.first()) {
                    (Some(op), Some(input)) => propagate_through(op, input, incoming)?,
                    // Unions and joins pass attributes through.
                    _ => {
                        incoming.retain(|a| act.output.contains(a));
                        incoming
                    }
                };
                tainted[id.0 as usize] = out.into_iter().collect();
            }
        }
    }
    Ok(report)
}

fn graph_cap(order: &[NodeId]) -> usize {
    order.iter().map(|id| id.0 as usize + 1).max().unwrap_or(0)
}

/// One step of a lineage path: this attribute at this node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LineageStep {
    /// The node.
    pub node: NodeId,
    /// The attribute name at that node.
    pub attr: Attr,
}

/// The input attributes `op` derives its output attribute `attr` from:
/// a function's inputs (and the attribute itself, when the function keeps
/// its inputs), a surrogate key's production key, an aggregate's input;
/// anything else passes `attr` through.
fn derived_from(op: &UnaryOp, attr: &Attr) -> Vec<Attr> {
    match op {
        UnaryOp::Function(f) if f.output == *attr => {
            let mut from = f.inputs.clone();
            if f.keep_inputs {
                from.push(attr.clone());
            }
            from
        }
        UnaryOp::SurrogateKey { key, surrogate, .. } if surrogate == attr => vec![key.clone()],
        UnaryOp::Aggregate { agg, .. } => {
            let from: Vec<Attr> = agg
                .aggregates
                .iter()
                .filter(|s| s.output == *attr)
                .map(|s| s.input.clone())
                .collect();
            match from.is_empty() {
                true => vec![attr.clone()],
                false => from,
            }
        }
        UnaryOp::Function(_)
        | UnaryOp::SurrogateKey { .. }
        | UnaryOp::Filter { .. }
        | UnaryOp::NotNull { .. }
        | UnaryOp::PkCheck { .. }
        | UnaryOp::Dedup { .. }
        | UnaryOp::ProjectOut(_)
        | UnaryOp::AddField { .. } => vec![attr.clone()],
    }
}

/// Backward lineage: which source attributes (at which source recordsets)
/// feed `attr` as observed at `node`? Walks providers backwards, inverting
/// function applications (output → inputs), surrogate keys (surrogate →
/// production key) and aggregations (aggregate output → aggregated input).
pub fn lineage(wf: &Workflow, node: NodeId, attr: &Attr) -> Result<Vec<LineageStep>> {
    let graph = wf.graph();
    let mut sources = BTreeSet::new();
    let mut frontier: Vec<LineageStep> = vec![LineageStep {
        node,
        attr: attr.clone(),
    }];
    let mut seen: BTreeSet<LineageStep> = frontier.iter().cloned().collect();
    while let Some(step) = frontier.pop() {
        let providers: Vec<NodeId> = graph
            .providers(step.node)?
            .iter()
            .copied()
            .flatten()
            .collect();
        if providers.is_empty() {
            // A true source: record it if the attribute exists here.
            if graph.node(step.node)?.output_schema().contains(&step.attr) {
                sources.insert(step);
            }
            continue;
        }
        // What did this node's op derive the attribute from?
        let upstream_names: Vec<Attr> = match graph.node(step.node)? {
            Node::Recordset(_) => vec![step.attr.clone()],
            Node::Activity(act) => match unary_of(act)? {
                Some(op) => derived_from(op, &step.attr),
                // Unions and joins pass attributes through.
                None => vec![step.attr.clone()],
            },
        };
        for p in providers {
            let p_schema = graph.node(p)?.output_schema();
            for n in &upstream_names {
                if p_schema.contains(n) {
                    let next = LineageStep {
                        node: p,
                        attr: n.clone(),
                    };
                    if seen.insert(next.clone()) {
                        frontier.push(next);
                    }
                }
            }
        }
    }
    Ok(sources.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::{Aggregation, BinaryOp};
    use crate::workflow::WorkflowBuilder;

    /// S1(pkey, dollar_cost) ─ $2€ ─┐
    ///                              U ─ σ(euro_cost) ─ DW
    /// S2(pkey, euro_cost) ─ NN ────┘
    fn sample() -> (Workflow, NodeId, NodeId, NodeId, NodeId) {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["pkey", "dollar_cost"]), 10.0);
        let s2 = b.source("S2", Schema::of(["pkey", "euro_cost"]), 10.0);
        let d2e = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s1,
        );
        let nn = b.unary("NN", UnaryOp::not_null("euro_cost"), s2);
        let u = b.binary("U", BinaryOp::Union, d2e, nn);
        let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("euro_cost", 100.0)), u);
        let dw = b.target("DW", Schema::of(["pkey", "euro_cost"]), sel);
        (b.build().unwrap(), s1, s2, d2e, dw)
    }

    #[test]
    fn dropping_consumed_attribute_breaks_downstream() {
        let (wf, s1, _, d2e, dw) = sample();
        let report = analyze(
            &wf,
            &Change::DropAttribute {
                source: s1,
                attr: "dollar_cost".into(),
            },
        )
        .unwrap();
        assert!(report.broken_activities.contains(&d2e), "{report:?}");
        assert!(report.affected_targets.contains(&dw));
    }

    #[test]
    fn taint_flows_through_function_rename() {
        // dollar_cost is consumed by $2€, whose output euro_cost feeds σ:
        // the filter must appear in the affected (and broken) set.
        let (wf, s1, _, d2e, _) = sample();
        let report = analyze(
            &wf,
            &Change::DropAttribute {
                source: s1,
                attr: "dollar_cost".into(),
            },
        )
        .unwrap();
        let sigma = wf
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| wf.graph().activity(a).unwrap().label == "σ")
            .unwrap();
        assert!(report.affected_activities.contains(&sigma));
        assert!(report.broken_activities.contains(&d2e));
    }

    #[test]
    fn dropping_unrelated_attribute_affects_only_pass_through() {
        let (wf, s1, _, _, dw) = sample();
        // pkey is consumed by nothing; dropping it affects the flow (the
        // target loses a column) but breaks no activity.
        let report = analyze(
            &wf,
            &Change::DropAttribute {
                source: s1,
                attr: "pkey".into(),
            },
        )
        .unwrap();
        assert!(report.broken_activities.is_empty(), "{report:?}");
        assert!(report.affected_targets.contains(&dw));
    }

    #[test]
    fn change_on_one_branch_does_not_break_the_other() {
        let (wf, s1, _, _, _) = sample();
        let report = analyze(
            &wf,
            &Change::DropAttribute {
                source: s1,
                attr: "dollar_cost".into(),
            },
        )
        .unwrap();
        let nn = wf
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| wf.graph().activity(a).unwrap().label == "NN")
            .unwrap();
        assert!(!report.affected_activities.contains(&nn));
        assert!(!report.broken_activities.contains(&nn));
    }

    #[test]
    fn activity_failure_impacts_everything_downstream() {
        let (wf, _, _, d2e, dw) = sample();
        let report = analyze(&wf, &Change::ActivityFailure { node: d2e }).unwrap();
        assert!(report.affected_targets.contains(&dw));
        // The failing node itself is not listed.
        assert!(!report.affected_activities.contains(&d2e));
        // NN (other branch) is unaffected.
        let nn = wf
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| wf.graph().activity(a).unwrap().label == "NN")
            .unwrap();
        assert!(!report.affected_activities.contains(&nn));
    }

    #[test]
    fn rename_reports_like_drop() {
        let (wf, s1, _, d2e, _) = sample();
        let drop = analyze(
            &wf,
            &Change::DropAttribute {
                source: s1,
                attr: "dollar_cost".into(),
            },
        )
        .unwrap();
        let rename = analyze(
            &wf,
            &Change::RenameAttribute {
                source: s1,
                from: "dollar_cost".into(),
                to: "usd".into(),
            },
        )
        .unwrap();
        assert_eq!(drop, rename);
        assert!(rename.broken_activities.contains(&d2e));
    }

    #[test]
    fn lineage_traces_through_function_to_both_sources() {
        let (wf, s1, s2, _, dw) = sample();
        let steps = lineage(&wf, dw, &"euro_cost".into()).unwrap();
        let nodes: Vec<NodeId> = steps.iter().map(|s| s.node).collect();
        assert!(nodes.contains(&s1), "{steps:?}");
        assert!(nodes.contains(&s2), "{steps:?}");
        // At S1 the attribute is dollar_cost; at S2 it is euro_cost.
        assert!(steps
            .iter()
            .any(|s| s.node == s1 && s.attr == Attr::new("dollar_cost")));
        assert!(steps
            .iter()
            .any(|s| s.node == s2 && s.attr == Attr::new("euro_cost")));
    }

    #[test]
    fn lineage_through_aggregation_and_surrogate_key() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "v"]), 10.0);
        let agg = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["pkey"], "v", "total")),
            s,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("pkey", "sk", "DIM"), agg);
        let t = b.target("T", Schema::of(["sk", "total"]), sk);
        let wf = b.build().unwrap();
        // total <- v at the source.
        let steps = lineage(&wf, t, &"total".into()).unwrap();
        assert!(
            steps
                .iter()
                .any(|x| x.node == s && x.attr == Attr::new("v")),
            "{steps:?}"
        );
        // sk <- pkey at the source.
        let steps = lineage(&wf, t, &"sk".into()).unwrap();
        assert!(
            steps
                .iter()
                .any(|x| x.node == s && x.attr == Attr::new("pkey")),
            "{steps:?}"
        );
    }

    #[test]
    fn lineage_of_pass_through_attr_is_direct() {
        let (wf, s1, s2, _, dw) = sample();
        let steps = lineage(&wf, dw, &"pkey".into()).unwrap();
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.attr == Attr::new("pkey")));
        let nodes: Vec<NodeId> = steps.iter().map(|s| s.node).collect();
        assert!(nodes.contains(&s1) && nodes.contains(&s2));
    }

    #[test]
    fn impact_is_invariant_under_optimization() {
        // The set of *broken targets* of a source change must be the same
        // before and after optimization — transitions preserve semantics.
        use crate::cost::RowCountModel;
        use crate::opt::{HeuristicSearch, Optimizer};
        let (wf, s1, _, _, _) = sample();
        let best = HeuristicSearch::new()
            .run(&wf, &RowCountModel::default())
            .unwrap()
            .best;
        let before = analyze(
            &wf,
            &Change::DropAttribute {
                source: s1,
                attr: "dollar_cost".into(),
            },
        )
        .unwrap();
        let after = analyze(
            &best,
            &Change::DropAttribute {
                source: s1,
                attr: "dollar_cost".into(),
            },
        )
        .unwrap();
        assert_eq!(before.affected_targets, after.affected_targets);
    }

    #[test]
    fn a_projection_ends_the_taint_it_consumes() {
        let input = Schema::of(["x", "y"]);
        let x = BTreeSet::from([Attr::new("x")]);
        let out = propagate_through(&UnaryOp::project_out(["x"]), &input, x.clone()).unwrap();
        assert!(out.is_empty(), "{out:?}");
        // A pass-through keeps it; a consuming function moves it.
        let filter = UnaryOp::filter(Predicate::gt("y", 1));
        let out = propagate_through(&filter, &input, x.clone()).unwrap();
        assert_eq!(out, x);
        let f = UnaryOp::function("f", ["x"], "z");
        let out = propagate_through(&f, &input, x).unwrap();
        assert_eq!(out, BTreeSet::from([Attr::new("z")]));
    }

    /// A merged activity exists only inside a search: both walks refuse
    /// it with the typed error instead of reading through its chain.
    #[test]
    fn a_merged_activity_is_refused() {
        use crate::transition::{split_all, Merge, Transition};
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "dollar_cost"]), 10.0);
        let d2e = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s,
        );
        let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("euro_cost", 100.0)), d2e);
        let dw = b.target("DW", Schema::of(["pkey", "euro_cost"]), sel);
        let wf = b.build().unwrap();
        let merged = Merge::new(d2e, sel).apply(&wf).unwrap();
        let ids = |n| wf.graph().activity(n).unwrap().id.to_string();
        let refusal = CoreError::MergedActivity {
            activity: format!("{}+{}", ids(d2e), ids(sel)),
        };

        let drop = Change::DropAttribute {
            source: s,
            attr: "dollar_cost".into(),
        };
        assert_eq!(analyze(&merged, &drop).unwrap_err(), refusal);
        let euro = Attr::new("euro_cost");
        assert_eq!(lineage(&merged, dw, &euro).unwrap_err(), refusal);

        // Split back, both walk it like the workflow it came from.
        let split = split_all(&merged).unwrap();
        assert_eq!(
            analyze(&split, &drop).unwrap(),
            analyze(&wf, &drop).unwrap()
        );
        assert_eq!(
            lineage(&split, dw, &euro).unwrap(),
            lineage(&wf, dw, &euro).unwrap()
        );
    }

    #[test]
    fn clean_report() {
        let report = ImpactReport::default();
        assert!(report.is_clean());
    }
}
