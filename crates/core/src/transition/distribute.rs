//! The Distribute transition `DIS(a_b,a)` (§2.2, §3.3) — the reciprocal of
//! Factorize.
//!
//! An activity operating on the joint flow right after a binary activity is
//! cloned into each of the converging flows. The paper's conditions:
//!
//! 1. a binary activity `a_b` is the provider of `a`; two clones `a₁`, `a₂`
//!    are generated, one per path leading to `a_b`;
//! 2. the clones have the same operation as `a`.
//!
//! Distribution pays off when the activity is highly selective: pruning
//! rows before the (priced) binary operator and before other per-branch
//! work — the `c₂` case of Fig. 4.

use crate::activity::{Activity, ActivityId};
use crate::error::CoreError;
use crate::graph::NodeId;
use crate::transition::factorize::distributable_through;
use std::borrow::Cow;

use crate::transition::{finalize, Rewire, Transition, TransitionError, TransitionKind};
use crate::workflow::Workflow;

/// `DIS(a_b,a)`: clone `a` (the consumer of binary `a_b`) into both flows
/// converging to `a_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distribute {
    /// The binary activity.
    pub binary: NodeId,
    /// The activity to distribute (must be the single consumer of
    /// `binary`).
    pub activity: NodeId,
}

impl Distribute {
    /// Construct the transition.
    pub fn new(binary: NodeId, activity: NodeId) -> Self {
        Distribute { binary, activity }
    }

    fn structural_check(&self, wf: &Workflow) -> Result<(), TransitionError> {
        let g = wf.graph();
        let ab = g
            .activity(self.binary)
            .map_err(|_| TransitionError::NotBinary(self.binary))?;
        if !ab.is_binary() {
            return Err(TransitionError::NotBinary(self.binary));
        }
        let act = g
            .activity(self.activity)
            .map_err(|_| TransitionError::NotUnary(self.activity))?;
        if !act.is_unary() {
            return Err(TransitionError::NotUnary(self.activity));
        }
        // The binary must feed exactly this activity: otherwise other
        // consumers of the binary would suddenly observe processed data.
        let bin_consumers = g.consumers(self.binary)?;
        if bin_consumers.len() != 1 {
            return Err(TransitionError::MultipleConsumers(self.binary));
        }
        if bin_consumers[0] != self.activity {
            return Err(TransitionError::NotAdjacent(self.binary, self.activity));
        }
        // Arity was checked above, but a typed error costs nothing and
        // keeps the applicability path panic-free end to end.
        let links = act
            .unary_links()
            .ok_or(TransitionError::NotUnary(self.activity))?;
        let binop = ab
            .op
            .binary()
            .ok_or(TransitionError::NotBinary(self.binary))?;
        distributable_through(links, binop).map_err(|detail| {
            TransitionError::NotDistributable {
                node: self.activity,
                detail,
            }
        })?;
        Ok(())
    }
}

impl Rewire for Distribute {
    fn rewire(&self, wf: Cow<'_, Workflow>) -> Result<Workflow, TransitionError> {
        self.structural_check(&wf)?;
        let mut out = wf.into_owned();
        let g = &mut out.graph;

        let p1 = g.provider(self.binary, 0)?.ok_or(TransitionError::Graph(
            CoreError::MissingProvider {
                node: self.binary,
                port: 0,
            },
        ))?;
        let p2 = g.provider(self.binary, 1)?.ok_or(TransitionError::Graph(
            CoreError::MissingProvider {
                node: self.binary,
                port: 1,
            },
        ))?;

        let template = g.activity(self.activity)?;
        let (id1, id2) = ActivityId::distributed(&template.id);
        let (label, op) = (template.label.clone(), template.op.clone());

        // Detach `a` and hand its consumers to the binary.
        g.disconnect(self.activity, 0)?;
        g.redirect_consumers(self.activity, self.binary)?;
        g.remove(self.activity)?;

        // Splice one clone into each converging path.
        g.disconnect(self.binary, 0)?;
        g.disconnect(self.binary, 1)?;
        let c1 = g.add_activity(Activity::new(id1, label.clone(), op.clone()));
        let c2 = g.add_activity(Activity::new(id2, label, op));
        g.connect(p1, c1, 0)?;
        g.connect(c1, self.binary, 0)?;
        g.connect(p2, c2, 0)?;
        g.connect(c2, self.binary, 1)?;

        Ok(out)
    }
}

impl Transition for Distribute {
    fn kind(&self) -> TransitionKind {
        TransitionKind::Distribute
    }

    fn affected(&self, wf: &Workflow) -> Vec<NodeId> {
        // The clones are spliced in right after the binary's providers, so
        // the providers anchor the dirty set in the successor state.
        let mut nodes = Vec::with_capacity(4);
        nodes.extend([self.binary, self.activity]);
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

    fn describe(&self, wf: &Workflow) -> String {
        format!(
            "DIS({},{})",
            wf.priority_token(self.binary),
            wf.priority_token(self.activity)
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
    use crate::semantics::{Aggregation, BinaryOp, UnaryOp};
    use crate::workflow::WorkflowBuilder;

    /// Union of two sources with a selective filter on the joint flow.
    fn joint_filter() -> (Workflow, NodeId, NodeId) {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 8.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
            u,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), sel);
        b.target("T", Schema::of(["sk", "v"]), sk);
        (b.build().unwrap(), u, sel)
    }

    #[test]
    fn distribute_clones_into_both_branches() {
        let (wf, u, sel) = joint_filter();
        let dis = Distribute::new(u, sel).apply(&wf).unwrap();
        assert!(equivalent(&wf, &dis).unwrap());
        assert_eq!(dis.activity_count(), wf.activity_count() + 1);
        // Both providers of the union are now σ clones.
        for port in 0..2 {
            let p = dis.graph().provider(u, port).unwrap().unwrap();
            assert_eq!(dis.graph().activity(p).unwrap().label, "σ");
        }
    }

    #[test]
    fn distribute_reduces_cost_for_selective_filter() {
        // Under a priced union, pruning before the union is a win (under the
        // free-union model of Fig. 4 a lone filter distribution is
        // cost-neutral — the gains come from follow-up per-branch swaps).
        let (wf, u, sel) = joint_filter();
        let m = RowCountModel {
            union_free: false,
            ..RowCountModel::default()
        };
        let before = m.cost(&wf).unwrap();
        let after = m
            .cost(&Distribute::new(u, sel).apply(&wf).unwrap())
            .unwrap();
        assert!(after < before, "after={after} before={before}");
    }

    #[test]
    fn distribute_then_factorize_restores_signature() {
        use crate::transition::Factorize;
        let (wf, u, sel) = joint_filter();
        let dis = Distribute::new(u, sel).apply(&wf).unwrap();
        let p1 = dis.graph().provider(u, 0).unwrap().unwrap();
        let p2 = dis.graph().provider(u, 1).unwrap().unwrap();
        let fac = Factorize::new(u, p1, p2).apply(&dis).unwrap();
        assert_eq!(wf.signature(), fac.signature());
    }

    #[test]
    fn blocking_op_cannot_distribute() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 8.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let agg = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
            u,
        );
        b.target("T", Schema::of(["k", "v"]), agg);
        let wf = b.build().unwrap();
        let err = Distribute::new(u, agg).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotDistributable { .. }),
            "{err}"
        );
    }

    #[test]
    fn binary_with_other_consumers_cannot_lose_its_activity() {
        // u feeds both σ and a second recordset: distributing σ would change
        // what the recordset receives.
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["v"]), 8.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 0)), u);
        b.target("T1", Schema::of(["v"]), sel);
        b.target("RAW", Schema::of(["v"]), u);
        let wf = b.build().unwrap();
        let err = Distribute::new(u, sel).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::MultipleConsumers(_)),
            "{err}"
        );
    }

    #[test]
    fn swapped_roles_get_typed_errors_not_panics() {
        // Anchoring the transition on the wrong node kinds must surface the
        // arity errors, never reach the applicability analysis.
        let (wf, u, sel) = joint_filter();
        let err = Distribute::new(sel, sel).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotBinary(n) if n == sel),
            "{err}"
        );
        let err = Distribute::new(u, u).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotUnary(n) if n == u),
            "{err}"
        );
    }

    #[test]
    fn non_consumer_activity_is_rejected() {
        let (wf, u, _) = joint_filter();
        // SK is not the direct consumer of the union.
        let sk = wf
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| wf.graph().activity(a).unwrap().label == "SK")
            .unwrap();
        let err = Distribute::new(u, sk).apply(&wf).unwrap_err();
        assert!(matches!(err, TransitionError::NotAdjacent(_, _)), "{err}");
    }

    #[test]
    fn function_distributes_over_union() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "dc"]), 8.0);
        let s2 = b.source("S2", Schema::of(["k", "dc"]), 8.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let f = b.unary("$2E", UnaryOp::function("d2e", ["dc"], "ec"), u);
        b.target("T", Schema::of(["k", "ec"]), f);
        let wf = b.build().unwrap();
        let dis = Distribute::new(u, f).apply(&wf).unwrap();
        assert!(equivalent(&wf, &dis).unwrap());
    }

    /// The `$2€` case for DIS (Fig. 5 lifted to the binary level): a
    /// selection over the generated euro amount may not be distributed
    /// above a join — the branch without the dollar→euro function never
    /// sees `euro_cost`, so the clone's functionality schema would be
    /// violated there.
    #[test]
    fn dollar2euro_selection_cannot_distribute_above_join() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["pkey", "dollar_cost"]), 8.0);
        let s2 = b.source("S2", Schema::of(["pkey", "qty"]), 8.0);
        let f = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s1,
        );
        let j = b.binary("J", BinaryOp::Join(vec!["pkey".into()]), f, s2);
        let sel = b.unary(
            "σ(€)",
            UnaryOp::filter(Predicate::gt("euro_cost", 100.0)),
            j,
        );
        b.target("DW", Schema::of(["pkey", "euro_cost", "qty"]), sel);
        let wf = b.build().unwrap();
        let err = Distribute::new(j, sel).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::NotDistributable { .. }),
            "{err}"
        );
    }

    #[test]
    fn self_union_distributes_clones_from_same_provider() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["v"]), 8.0);
        let u = b.binary("U", BinaryOp::Union, s, s);
        let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 0)), u);
        b.target("T", Schema::of(["v"]), sel);
        let wf = b.build().unwrap();
        let dis = Distribute::new(u, sel).apply(&wf).unwrap();
        assert!(equivalent(&wf, &dis).unwrap());
        assert_eq!(dis.graph().consumers(s).unwrap().len(), 2);
    }
}
