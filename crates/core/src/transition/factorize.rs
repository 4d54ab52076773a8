//! The Factorize transition `FAC(a_b,a₁,a₂)` (§2.2, §3.3).
//!
//! Two homologous activities applied on flows converging to a binary
//! activity are replaced by a single activity right after it — "perform the
//! operation only once, on the merged flow". The paper's conditions:
//!
//! 1. `a₁` and `a₂` have the same operation (they are homologous);
//! 2. they have a common consumer `a_b`, which is a binary operation.
//!
//! In addition, the operation must actually commute with the binary
//! operator as a multiset transformation (see
//! [`distributable_through`]) — for a union any row-wise activity
//! qualifies; for a difference/intersection the activity must preserve row
//! identity (injective); for a join only key-constrained filters qualify.

use crate::activity::{Activity, ActivityId};
use crate::graph::NodeId;
use crate::schema::Schema;
use crate::semantics::{BinaryOp, UnaryOp};
use std::borrow::Cow;
use std::sync::Arc;

use crate::transition::{finalize, Rewire, Transition, TransitionError, TransitionKind};
use crate::workflow::Workflow;

/// Can an activity made of these unary links be moved across this binary
/// operator (in either direction: Factorize pulls it below the operator,
/// Distribute pushes clones above it) without changing the produced bag of
/// rows? Returns the reason when not.
pub fn distributable_through(links: &[UnaryOp], op: &BinaryOp) -> Result<(), String> {
    for l in links {
        if !l.is_row_wise() {
            return Err(format!(
                "{} is a blocking operator: γ(A)∪γ(B) ≠ γ(A∪B)",
                l.op_name()
            ));
        }
        match op {
            BinaryOp::Union => {}
            BinaryOp::Difference | BinaryOp::Intersection => match l {
                UnaryOp::Filter { .. } | UnaryOp::NotNull { .. } | UnaryOp::AddField { .. } => {}
                UnaryOp::Function(f) if f.injective => {}
                UnaryOp::SurrogateKey { .. } => {}
                UnaryOp::Function(f) => {
                    return Err(format!(
                        "non-injective function {} may collapse rows that {} compares",
                        f.function,
                        op.op_name()
                    ));
                }
                UnaryOp::ProjectOut(_) => {
                    return Err(format!(
                        "projection may collapse rows that {} compares",
                        op.op_name()
                    ));
                }
                UnaryOp::PkCheck { .. } | UnaryOp::Dedup { .. } | UnaryOp::Aggregate { .. } => {
                    return Err(format!("{} cannot cross a {}", l.op_name(), op.op_name()));
                }
            },
            BinaryOp::Join(on) => match l {
                UnaryOp::Filter { predicate, .. } => {
                    let fun = predicate.referenced_attrs();
                    if !fun.iter().all(|a| on.contains(a)) {
                        return Err("only filters over the join key can cross a join".to_owned());
                    }
                }
                UnaryOp::NotNull { attr, .. } => {
                    if !on.contains(attr) {
                        return Err("only NN over the join key can cross a join".to_owned());
                    }
                }
                UnaryOp::Function(_)
                | UnaryOp::ProjectOut(_)
                | UnaryOp::AddField { .. }
                | UnaryOp::SurrogateKey { .. }
                | UnaryOp::PkCheck { .. }
                | UnaryOp::Dedup { .. }
                | UnaryOp::Aggregate { .. } => {
                    return Err(format!("{} cannot cross a join", l.op_name()));
                }
            },
        }
    }
    Ok(())
}

/// `FAC(a_b,a₁,a₂)`: replace homologous `a₁`, `a₂` feeding binary `a_b` by
/// one equivalent activity placed right after `a_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Factorize {
    /// The binary activity the flows converge to.
    pub binary: NodeId,
    /// First homologous activity (direct provider of `binary`).
    pub a1: NodeId,
    /// Second homologous activity (direct provider of `binary`).
    pub a2: NodeId,
}

impl Factorize {
    /// Construct the transition.
    pub fn new(binary: NodeId, a1: NodeId, a2: NodeId) -> Self {
        Factorize { binary, a1, a2 }
    }

    fn structural_check(&self, wf: &Workflow) -> Result<(), TransitionError> {
        let g = wf.graph();
        let ab = g
            .activity(self.binary)
            .map_err(|_| TransitionError::NotBinary(self.binary))?;
        if !ab.is_binary() {
            return Err(TransitionError::NotBinary(self.binary));
        }
        if self.a1 == self.a2 {
            return Err(TransitionError::NotHomologous(self.a1, self.a2));
        }
        for a in [self.a1, self.a2] {
            let act = g.activity(a).map_err(|_| TransitionError::NotUnary(a))?;
            if !act.is_unary() {
                return Err(TransitionError::NotUnary(a));
            }
            let consumers = g.consumers(a)?;
            if consumers.len() != 1 {
                return Err(TransitionError::MultipleConsumers(a));
            }
            if consumers[0] != self.binary {
                return Err(TransitionError::NotAdjacent(a, self.binary));
            }
        }
        if !wf.are_homologous(self.a1, self.a2)? {
            return Err(TransitionError::NotHomologous(self.a1, self.a2));
        }
        // Arity was checked above, but a typed error costs nothing and
        // keeps the applicability path panic-free end to end.
        let links = g
            .activity(self.a1)?
            .unary_links()
            .ok_or(TransitionError::NotUnary(self.a1))?;
        let binop = ab
            .op
            .binary()
            .ok_or(TransitionError::NotBinary(self.binary))?;
        distributable_through(links, binop).map_err(|detail| {
            TransitionError::NotDistributable {
                node: self.a1,
                detail,
            }
        })?;
        Ok(())
    }
}

impl Rewire for Factorize {
    fn rewire(&self, wf: Cow<'_, Workflow>) -> Result<Workflow, TransitionError> {
        self.structural_check(&wf)?;
        let mut out = wf.into_owned();
        let g = &mut out.graph;

        // Ports on the binary fed by a1 / a2.
        let port1 = g
            .port_of(self.a1, self.binary)?
            .ok_or(TransitionError::NotAdjacent(self.a1, self.binary))?;
        let port2 = g
            .port_of(self.a2, self.binary)?
            .ok_or(TransitionError::NotAdjacent(self.a2, self.binary))?;
        let p1 = g.provider(self.a1, 0)?.ok_or(TransitionError::Graph(
            crate::error::CoreError::MissingProvider {
                node: self.a1,
                port: 0,
            },
        ))?;
        let p2 = g.provider(self.a2, 0)?.ok_or(TransitionError::Graph(
            crate::error::CoreError::MissingProvider {
                node: self.a2,
                port: 0,
            },
        ))?;

        // The replacement activity: a1's semantics under the factored id.
        let template = g.activity(self.a1)?;
        let new_id = ActivityId::factored(&template.id, &g.activity(self.a2)?.id);
        let new_act = Activity {
            id: new_id,
            label: template.label.clone(),
            op: Arc::clone(&template.op),
            inputs: template.inputs.clone(),
            output: Schema::empty(),
        };

        // Unhook a1, a2; reconnect their providers straight into the binary.
        g.disconnect(self.binary, port1)?;
        g.disconnect(self.binary, port2)?;
        g.disconnect(self.a1, 0)?;
        g.disconnect(self.a2, 0)?;
        g.connect(p1, self.binary, port1)?;
        g.connect(p2, self.binary, port2)?;
        g.remove(self.a1)?;
        g.remove(self.a2)?;

        // Insert the factored activity right after the binary.
        let a = g.add_activity(new_act);
        g.redirect_consumers(self.binary, a)?;
        g.connect(self.binary, a, 0)?;

        Ok(out)
    }
}

impl Transition for Factorize {
    fn kind(&self) -> TransitionKind {
        TransitionKind::Factorize
    }

    fn affected(&self, wf: &Workflow) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(5);
        nodes.extend([self.binary, self.a1, self.a2]);
        // The replacement activity may reuse a freed arena slot; covering
        // the providers keeps the dirty set conservative.
        for p in wf
            .graph()
            .providers(self.binary)
            .unwrap_or_default()
            .iter()
            .flatten()
        {
            nodes.push(*p);
        }
        nodes
    }

    fn apply(&self, wf: &Workflow) -> Result<Workflow, TransitionError> {
        finalize(self.rewire(Cow::Borrowed(wf))?, &self.affected(wf))
    }

    fn check(&self, wf: &Workflow) -> Result<(), TransitionError> {
        self.structural_check(wf)?;
        // Schema feasibility of the rewired graph still needs the dry run.
        self.apply(wf).map(|_| ())
    }

    fn describe(&self, wf: &Workflow) -> String {
        format!(
            "FAC({},{},{})",
            wf.priority_token(self.binary),
            wf.priority_token(self.a1),
            wf.priority_token(self.a2)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, RowCountModel};
    use crate::postcond::equivalent;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::Aggregation;
    use crate::workflow::WorkflowBuilder;

    /// Fig. 4 shape: SK on each branch before a union.
    fn fig4_initial() -> (Workflow, NodeId, NodeId, NodeId) {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 8.0);
        let sk1 = b.unary("SK1", UnaryOp::surrogate_key("k", "sk", "L"), s1);
        let sk2 = b.unary("SK2", UnaryOp::surrogate_key("k", "sk", "L"), s2);
        let u = b.binary("U", BinaryOp::Union, sk1, sk2);
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            u,
        );
        b.target("T", Schema::of(["sk", "v"]), sel);
        (b.build().unwrap(), u, sk1, sk2)
    }

    #[test]
    fn factorize_merges_homologous_sks() {
        let (wf, u, sk1, sk2) = fig4_initial();
        let fac = Factorize::new(u, sk1, sk2).apply(&wf).unwrap();
        assert!(equivalent(&wf, &fac).unwrap());
        // One fewer activity.
        assert_eq!(fac.activity_count(), wf.activity_count() - 1);
        // Cost drops: SK once over 16 rows (16·4=64) vs twice over 8 (2·24=48)…
        // with union free and σ unchanged this particular shape actually
        // *rises* under the row-count model (64 > 48), exactly the kind of
        // judgement the search algorithms make per-state.
        let m = RowCountModel::default();
        let (c0, c1) = (m.cost(&wf).unwrap(), m.cost(&fac).unwrap());
        assert!((c1 - c0).abs() > 1.0, "costs should differ: {c0} vs {c1}");
    }

    #[test]
    fn factorize_then_distribute_restores_signature() {
        use crate::transition::Distribute;
        let (wf, u, sk1, sk2) = fig4_initial();
        let fac = Factorize::new(u, sk1, sk2).apply(&wf).unwrap();
        // The factored node is the (only) consumer of the union.
        let new_a = fac.graph().consumers(u).unwrap()[0];
        let dis = Distribute::new(u, new_a).apply(&fac).unwrap();
        assert_eq!(wf.signature(), dis.signature());
    }

    #[test]
    fn swapped_roles_get_typed_errors_not_panics() {
        // Wrong node kinds in either role must come back as arity errors,
        // not reach the applicability analysis.
        let (wf, u, sk1, sk2) = fig4_initial();
        let err = Factorize::new(sk1, sk1, sk2).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotBinary(n) if n == sk1),
            "{err}"
        );
        let err = Factorize::new(u, u, sk2).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotUnary(n) if n == u),
            "{err}"
        );
    }

    #[test]
    fn non_homologous_pair_is_rejected() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["v"]), 8.0);
        let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 1)), s1);
        let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 2)), s2);
        let u = b.binary("U", BinaryOp::Union, f1, f2);
        b.target("T", Schema::of(["v"]), u);
        let wf = b.build().unwrap();
        let err = Factorize::new(u, f1, f2).apply(&wf).unwrap_err();
        assert!(matches!(err, TransitionError::NotHomologous(_, _)));
    }

    #[test]
    fn aggregations_cannot_factorize_through_union() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 8.0);
        let g1 = b.unary(
            "γ1",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
            s1,
        );
        let g2 = b.unary(
            "γ2",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
            s2,
        );
        let u = b.binary("U", BinaryOp::Union, g1, g2);
        b.target("T", Schema::of(["k", "v"]), u);
        let wf = b.build().unwrap();
        let err = Factorize::new(u, g1, g2).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotDistributable { .. }),
            "{err}"
        );
    }

    #[test]
    fn projection_cannot_factorize_through_difference() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 8.0);
        let p1 = b.unary("π1", UnaryOp::project_out(["v"]), s1);
        let p2 = b.unary("π2", UnaryOp::project_out(["v"]), s2);
        let d = b.binary("−", BinaryOp::Difference, p1, p2);
        b.target("T", Schema::of(["k"]), d);
        let wf = b.build().unwrap();
        let err = Factorize::new(d, p1, p2).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotDistributable { .. }),
            "{err}"
        );
    }

    #[test]
    fn filters_can_factorize_through_difference() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 8.0);
        let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 1)), s1);
        let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 1)), s2);
        let d = b.binary("−", BinaryOp::Difference, f1, f2);
        b.target("T", Schema::of(["k", "v"]), d);
        let wf = b.build().unwrap();
        let fac = Factorize::new(d, f1, f2).apply(&wf).unwrap();
        assert!(equivalent(&wf, &fac).unwrap());
    }

    #[test]
    fn key_filter_can_factorize_through_join_but_value_filter_cannot() {
        let build = |attr: &str| {
            let mut b = WorkflowBuilder::new();
            let s1 = b.source("S1", Schema::of(["k", "x"]), 8.0);
            let s2 = b.source("S2", Schema::of(["k", "x2"]), 8.0);
            let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt(attr, 1)), s1);
            let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt(attr, 1)), s2);
            let j = b.binary("J", BinaryOp::Join(vec!["k".into()]), f1, f2);
            b.target("T", Schema::of(["k", "x", "x2"]), j);
            (b.build(), j, f1, f2)
        };
        let (wf, j, f1, f2) = build("k");
        let wf = wf.unwrap();
        assert!(Factorize::new(j, f1, f2).apply(&wf).is_ok());
        // σ(x) does not even exist on branch 2, so the homologous check
        // already refuses; a key-mismatched filter is the cleaner probe:
        let err = distributable_through(
            &[UnaryOp::filter(Predicate::gt("x", 1))],
            &BinaryOp::Join(vec!["k".into()]),
        );
        assert!(err.is_err());
    }

    /// The `$2€` case at the binary level (Fig. 5 lifted to FAC): two
    /// homologous dollar→euro functions may not be factorized below a join
    /// whose key is the euro amount they generate — the join's
    /// functionality schema would be consumed before it exists.
    #[test]
    fn dollar2euro_cannot_factorize_below_join_on_generated_attribute() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["pkey", "dollar_cost"]), 8.0);
        let s2 = b.source("S2", Schema::of(["pkey2", "dollar_cost"]), 8.0);
        let f1 = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s1,
        );
        let f2 = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s2,
        );
        let j = b.binary("J", BinaryOp::Join(vec!["euro_cost".into()]), f1, f2);
        b.target("DW", Schema::of(["pkey", "euro_cost", "pkey2"]), j);
        let wf = b.build().unwrap();
        let err = Factorize::new(j, f1, f2).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotDistributable { .. }),
            "{err}"
        );
    }

    #[test]
    fn describe_uses_paper_notation() {
        let (wf, u, sk1, sk2) = fig4_initial();
        let d = Factorize::new(u, sk1, sk2).describe(&wf);
        assert!(d.starts_with("FAC("), "{d}");
    }
}
