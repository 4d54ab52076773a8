//! The Swap transition `SWA(a₁,a₂)` (§2.2, §3.3).
//!
//! Interchanges two adjacent unary activities. The applicability conditions
//! are the paper's four, verbatim:
//!
//! 1. `a₁` and `a₂` are adjacent in the graph (`a₁` provides `a₂`);
//! 2. both have a single input and output schema, and each output has
//!    exactly one consumer;
//! 3. the functionality schema of each is a subset of its input schema,
//!    both before and after the swap — this rejects pushing `σ(€)` before
//!    the `$2€` conversion (Fig. 5);
//! 4. the input schemata remain subsets of their providers' outputs after
//!    the swap — this rejects swapping past a projection that drops a
//!    needed attribute (Fig. 6);
//!
//! plus the semantic commutation rules of [`super::commute`], which keep
//! blocking operators exact (the `γ`-vs-`A2E` case is *allowed*, the
//! `γ`-vs-`σ(€COST)` case is *blocked*).

use std::borrow::Cow;
use std::sync::Arc;

use crate::graph::{Graph, Node, NodeId};
use crate::schema_gen::{judge_swap, regenerate_swap, Judged};
use crate::transition::commute::chains_commute_ok;
use crate::transition::{
    check_reached, check_target, refusal, Detail, Rewire, Transition, TransitionError,
    TransitionKind,
};
use crate::workflow::Workflow;

/// The three provider edges a swap writes, read off the state it rewires:
/// `(node, port, new provider)` for `second`, `first` and their consumer,
/// in that order — the successor's topological order of the three nodes
/// whose providers change, and the order [`Swap`] connects them in.
pub type Edges = [(NodeId, usize, NodeId); 3];

/// `SWA(a₁,a₂)`: swap two adjacent unary activities. The order of the two
/// fields does not matter; the transition discovers the orientation from
/// the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap {
    /// One activity.
    pub a1: NodeId,
    /// The other activity.
    pub a2: NodeId,
}

impl Swap {
    /// Construct a swap of the pair.
    pub fn new(a1: NodeId, a2: NodeId) -> Self {
        Swap { a1, a2 }
    }

    /// Determine (provider, consumer) orientation; checks conditions 1–2
    /// and the commutation rules, without building the successor. Allocates
    /// nothing: conditions 3 and 4 ask whether two attribute sets meet, read
    /// off the two activities, and a refusal carries the two nodes and
    /// names what they share only when it is displayed ([`Detail`]).
    fn structural_check(&self, wf: &Workflow) -> Result<(NodeId, NodeId), TransitionError> {
        let g = wf.graph();
        let (first, second) = if g.provider(self.a2, 0).ok().flatten() == Some(self.a1) {
            (self.a1, self.a2)
        } else if g.provider(self.a1, 0).ok().flatten() == Some(self.a2) {
            (self.a2, self.a1)
        } else {
            return Err(TransitionError::NotAdjacent(self.a1, self.a2));
        };
        let fa = g
            .activity(first)
            .map_err(|_| TransitionError::NotUnary(first))?;
        let sa = g
            .activity(second)
            .map_err(|_| TransitionError::NotUnary(second))?;
        if !fa.is_unary() {
            return Err(TransitionError::NotUnary(first));
        }
        if !sa.is_unary() {
            return Err(TransitionError::NotUnary(second));
        }
        // Condition 2: single consumer each. `first`'s single consumer is
        // `second` by adjacency; `second` must also have exactly one.
        if g.consumers(first)?.len() != 1 {
            return Err(TransitionError::MultipleConsumers(first));
        }
        if g.consumers(second)?.len() != 1 {
            return Err(TransitionError::MultipleConsumers(second));
        }
        let pair = || -> Result<[Arc<Node>; 2], TransitionError> {
            Ok([
                Arc::clone(g.node_arc(first)?),
                Arc::clone(g.node_arc(second)?),
            ])
        };
        // Semantic commutation (blocking operators, injectivity).
        let fl = fa.unary_links().ok_or(TransitionError::NotUnary(first))?;
        let sl = sa.unary_links().ok_or(TransitionError::NotUnary(second))?;
        if !chains_commute_ok(fl, sl) {
            return Err(TransitionError::NotCommutative {
                a: first,
                b: second,
                detail: Detail::Blocked(pair()?),
            });
        }
        // Condition 3 (after-swap direction): `second`, once moved before
        // `first`, must not need attributes `first` generates — Fig. 5.
        if !fa.all_generated(|a| !sa.needs(a)) {
            return Err(TransitionError::FunctionalityViolated {
                node: second,
                detail: Detail::Generates(pair()?),
            });
        }
        // Condition 4 (after-swap direction): `first`, once moved after
        // `second`, must not lose attributes `second` projects out — Fig. 6.
        if !sa.all_dropped(|a| !fa.needs(a)) {
            return Err(TransitionError::ProviderViolated {
                node: first,
                detail: Detail::ProjectsOut(pair()?),
            });
        }
        Ok((first, second))
    }

    /// The edges the swap will write on `wf` — `p → first → second → c`
    /// becomes `p → second → first → c` — or the refusal of its structural
    /// check. Read off the unrewired state, so a search can key, judge and
    /// price the successor before it builds it
    /// ([`Tokens::rewired`](crate::signature::Tokens::rewired) keys it).
    pub fn edges(&self, wf: &Workflow) -> Result<Edges, TransitionError> {
        let (first, second) = self.structural_check(wf)?;
        let g = wf.graph();
        let p = g
            .provider(first, 0)?
            .ok_or(TransitionError::NotAdjacent(first, second))?;
        let c = *g
            .consumers(second)?
            .first()
            .ok_or(TransitionError::MultipleConsumers(second))?;
        // The consumer list and the ports are two views of one edge; a
        // graph where they disagree is reported, not trusted.
        let cport = g
            .port_of(second, c)?
            .ok_or(TransitionError::NotAdjacent(second, c))?;
        Ok([(second, 0, p), (first, 0, second), (c, cport, first)])
    }

    /// The edge surgery: cut the three ports, then feed each from its new
    /// provider.
    pub(crate) fn relink(g: &mut Graph, edges: &Edges) -> Result<(), TransitionError> {
        for &(node, port, _) in edges {
            g.disconnect(node, port)?;
        }
        for &(node, port, provider) in edges {
            g.connect(provider, node, port)?;
        }
        Ok(())
    }

    /// [`crate::transition::finalize`] of a relinked swap, paid for by the
    /// three rewired nodes (`crate::schema_gen::regenerate_swap`): the
    /// schemata it derives, the refusal it reports and the targets it
    /// checks are the full walk's. `rest` is the walk past the consumer when
    /// the caller holds it.
    pub(crate) fn finalize(
        wf: &mut Workflow,
        edges: &Edges,
        rest: Option<&[NodeId]>,
    ) -> Result<(), TransitionError> {
        let [(second, ..), (first, ..), (c, ..)] = *edges;
        let mut targets = Vec::new();
        regenerate_swap(&mut wf.graph, [second, first, c], rest, &mut targets).map_err(refusal)?;
        check_reached(wf, &targets)
    }

    /// The verdict of [`Swap::finalize`] on the state `edges` were read
    /// off, before it is rewired: `Ok(true)` when the regeneration stops at
    /// the pair's consumer and the successor is legal, `Ok(false)` when the
    /// consumer's output changes — the walk then goes on, and only
    /// `finalize` on the built successor can judge it. A refusal is
    /// `finalize`'s, rule, node and detail. The three rewired nodes are
    /// derived through `edges` into locals (`crate::schema_gen::judge_swap`)
    /// and the consumer, when it is a target, is checked against its
    /// declared schema: that is all the walk would regenerate, and all
    /// `check_reached` would check.
    pub(crate) fn contained(wf: &Workflow, edges: &Edges) -> Result<bool, TransitionError> {
        match judge_swap(&wf.graph, edges).map_err(refusal)? {
            Judged::Contained => Ok(true),
            Judged::IntoTarget(target, flow) => check_target(target, &flow).map(|()| true),
            Judged::Escapes => Ok(false),
        }
    }

    /// [`Transition::apply`] on a state the caller owns — a shift chain's
    /// private copy: same checks, same successor, no clone. A refused swap
    /// may leave `wf` rewired or half-regenerated; the caller drops it.
    pub(crate) fn apply_in_place(&self, wf: &mut Workflow) -> Result<(), TransitionError> {
        let edges = self.edges(wf)?;
        Self::relink(&mut wf.graph, &edges)?;
        Self::finalize(wf, &edges, None)
    }
}

impl Rewire for Swap {
    fn rewire(&self, wf: Cow<'_, Workflow>) -> Result<Workflow, TransitionError> {
        let edges = self.edges(&wf)?;
        let mut out = wf.into_owned();
        Self::relink(&mut out.graph, &edges)?;
        Ok(out)
    }
}

impl Transition for Swap {
    fn kind(&self) -> TransitionKind {
        TransitionKind::Swap
    }

    fn affected(&self, _wf: &Workflow) -> Vec<NodeId> {
        vec![self.a1, self.a2]
    }

    fn apply(&self, wf: &Workflow) -> Result<Workflow, TransitionError> {
        // Conditions 3 and 4 in their full generality (both "before and
        // after" sides) reduce to the regeneration succeeding.
        let edges = self.edges(wf)?;
        let mut out = wf.clone();
        Self::relink(&mut out.graph, &edges)?;
        Self::finalize(&mut out, &edges, None)?;
        Ok(out)
    }

    fn describe(&self, wf: &Workflow) -> String {
        format!(
            "SWA({},{})",
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
    use crate::semantics::{Aggregation, UnaryOp};
    use crate::workflow::WorkflowBuilder;

    /// S → NN(b) → σ(a>1) → T
    fn two_filters() -> (Workflow, NodeId, NodeId) {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b"]), 100.0);
        let nn = b.unary("NN", UnaryOp::not_null("b").with_selectivity(0.9), s);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("a", 1)).with_selectivity(0.2),
            nn,
        );
        b.target("T", Schema::of(["a", "b"]), f);
        (b.build().unwrap(), nn, f)
    }

    #[test]
    fn swap_reorders_and_preserves_equivalence() {
        let (wf, nn, f) = two_filters();
        let swapped = Swap::new(nn, f).apply(&wf).unwrap();
        assert_ne!(wf.signature(), swapped.signature());
        assert!(equivalent(&wf, &swapped).unwrap());
        // σ now runs first.
        let order = swapped.activities().unwrap();
        assert_eq!(swapped.graph().activity(order[0]).unwrap().label, "σ");
    }

    #[test]
    fn swap_is_an_involution() {
        let (wf, nn, f) = two_filters();
        let once = Swap::new(nn, f).apply(&wf).unwrap();
        let twice = Swap::new(nn, f).apply(&once).unwrap();
        assert_eq!(wf.signature(), twice.signature());
    }

    #[test]
    fn swap_order_of_fields_is_irrelevant() {
        let (wf, nn, f) = two_filters();
        let s1 = Swap::new(nn, f).apply(&wf).unwrap();
        let s2 = Swap::new(f, nn).apply(&wf).unwrap();
        assert_eq!(s1.signature(), s2.signature());
    }

    #[test]
    fn swap_changes_cost_in_the_expected_direction() {
        let (wf, nn, f) = two_filters();
        let model = RowCountModel::default();
        let before = model.cost(&wf).unwrap();
        // Putting the more selective σ (0.2) first shrinks NN's input.
        let after = model.cost(&Swap::new(nn, f).apply(&wf).unwrap()).unwrap();
        assert!(after < before, "after={after} before={before}");
    }

    /// Fig. 5: σ(euro_cost) may not move before $2€ which generates it.
    #[test]
    fn fig5_selection_cannot_cross_generating_function() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "dollar_cost"]), 100.0);
        let f = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s,
        );
        let sel = b.unary(
            "σ(€)",
            UnaryOp::filter(Predicate::gt("euro_cost", 100.0)),
            f,
        );
        b.target("DW", Schema::of(["pkey", "euro_cost"]), sel);
        let wf = b.build().unwrap();
        let err = Swap::new(f, sel).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::FunctionalityViolated { .. }),
            "{err}"
        );
    }

    /// Fig. 6: a₁ cannot move after a π-out that drops what a₁ needs.
    #[test]
    fn fig6_projected_out_attribute_blocks_swap() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b"]), 100.0);
        let f = b.unary("σ(b)", UnaryOp::filter(Predicate::gt("b", 1)), s);
        let pout = b.unary("π-out", UnaryOp::project_out(["b"]), f);
        b.target("T", Schema::of(["a"]), pout);
        let wf = b.build().unwrap();
        let err = Swap::new(f, pout).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::ProviderViolated { .. }),
            "{err}"
        );
    }

    /// The running example's allowed case: γ swaps with the injective
    /// grouper transform A2E.
    #[test]
    fn aggregation_swaps_with_injective_grouper_function() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S2", Schema::of(["pkey", "date", "cost"]), 100.0);
        let a2e = b.unary("A2E", UnaryOp::function("am2eu", ["date"], "date"), s);
        let agg = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["pkey", "date"], "cost", "cost"))
                .with_selectivity(0.1),
            a2e,
        );
        b.target("T", Schema::of(["pkey", "date", "cost"]), agg);
        let wf = b.build().unwrap();
        let swapped = Swap::new(a2e, agg).apply(&wf).unwrap();
        assert!(equivalent(&wf, &swapped).unwrap());
        let order = swapped.activities().unwrap();
        assert_eq!(swapped.graph().activity(order[0]).unwrap().label, "γ");
    }

    /// …but σ over the aggregated value may not cross the γ, even though
    /// the reference name is reused.
    #[test]
    fn selection_on_aggregate_output_cannot_cross_aggregation() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "cost"]), 100.0);
        let agg = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["pkey"], "cost", "cost")),
            s,
        );
        let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("cost", 100)), agg);
        b.target("T", Schema::of(["pkey", "cost"]), sel);
        let wf = b.build().unwrap();
        let err = Swap::new(agg, sel).apply(&wf).unwrap_err();
        // Blocked either as a functionality clash (generated attr) or as a
        // non-commuting pair; both are correct refusals.
        assert!(
            matches!(
                err,
                TransitionError::FunctionalityViolated { .. }
                    | TransitionError::NotCommutative { .. }
            ),
            "{err}"
        );
    }

    /// A refusal carries the two activities and writes its text only when
    /// displayed; the text is what the structural check used to format on
    /// the spot. One message of each kind the check raises with a detail.
    #[test]
    fn a_refusal_displays_the_text_it_used_to_format() {
        // Condition 3, Fig. 5: σ(€) needs what $2€ generates.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "dollar_cost"]), 100.0);
        let f = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s,
        );
        let sel = b.unary(
            "σ(€)",
            UnaryOp::filter(Predicate::gt("euro_cost", 100.0)),
            f,
        );
        b.target("DW", Schema::of(["pkey", "euro_cost"]), sel);
        let wf = b.build().unwrap();
        assert_eq!(
            Swap::new(f, sel).edges(&wf).unwrap_err().to_string(),
            format!("functionality schema of {sel} violated: σ(€) needs [euro_cost], which $2E generates")
        );

        // Condition 4, Fig. 6: σ(b) needs what π-out drops.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b"]), 100.0);
        let f = b.unary("σ(b)", UnaryOp::filter(Predicate::gt("b", 1)), s);
        let pout = b.unary("π-out", UnaryOp::project_out(["b"]), f);
        b.target("T", Schema::of(["a"]), pout);
        let wf = b.build().unwrap();
        assert_eq!(
            Swap::new(pout, f).edges(&wf).unwrap_err().to_string(),
            format!(
                "input schema of {f} loses its provider: σ(b) needs [b], which π-out projects out"
            )
        );

        // The commutation rules: σ over an aggregated value may not cross γ.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "cost"]), 100.0);
        let agg = b.unary(
            "γ",
            UnaryOp::aggregate(Aggregation::sum(["pkey"], "cost", "cost")),
            s,
        );
        let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("cost", 100)), agg);
        b.target("T", Schema::of(["pkey", "cost"]), sel);
        let wf = b.build().unwrap();
        assert_eq!(
            Swap::new(agg, sel).edges(&wf).unwrap_err().to_string(),
            format!(
                "{agg} and {sel} do not commute: \
                 filter over [cost] touches non-grouping attributes of the aggregation"
            )
        );
    }

    #[test]
    fn non_adjacent_pair_is_rejected() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a"]), 10.0);
        let f1 = b.unary("f1", UnaryOp::filter(Predicate::gt("a", 1)), s);
        let f2 = b.unary("f2", UnaryOp::filter(Predicate::gt("a", 2)), f1);
        let f3 = b.unary("f3", UnaryOp::filter(Predicate::gt("a", 3)), f2);
        b.target("T", Schema::of(["a"]), f3);
        let wf = b.build().unwrap();
        let err = Swap::new(f1, f3).apply(&wf).unwrap_err();
        assert!(matches!(err, TransitionError::NotAdjacent(_, _)));
    }

    #[test]
    fn binary_activity_cannot_swap() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["a"]), 10.0);
        let s2 = b.source("S2", Schema::of(["a"]), 10.0);
        let u = b.binary("U", crate::semantics::BinaryOp::Union, s1, s2);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), u);
        b.target("T", Schema::of(["a"]), f);
        let wf = b.build().unwrap();
        let err = Swap::new(u, f).apply(&wf).unwrap_err();
        assert!(matches!(err, TransitionError::NotUnary(_)), "{err}");
    }

    #[test]
    fn multi_consumer_output_blocks_swap() {
        // f1 feeds both f2 and (via a second branch) a join — condition 2.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "a"]), 10.0);
        let f1 = b.unary("f1", UnaryOp::filter(Predicate::gt("a", 1)), s);
        let f2 = b.unary("f2", UnaryOp::filter(Predicate::gt("a", 2)), f1);
        let f3 = b.unary("f3", UnaryOp::filter(Predicate::gt("a", 3)), f1);
        let j = b.binary(
            "J",
            crate::semantics::BinaryOp::Join(vec!["k".into()]),
            f2,
            f3,
        );
        b.target("T", Schema::of(["k", "a"]), j);
        let wf = b.build().unwrap();
        let err = Swap::new(f1, f2).apply(&wf).unwrap_err();
        assert!(
            matches!(err, TransitionError::MultipleConsumers(_)),
            "{err}"
        );
    }

    #[test]
    fn swap_preserves_untouched_node_ids() {
        let (wf, nn, f) = two_filters();
        let swapped = Swap::new(nn, f).apply(&wf).unwrap();
        // Same node ids still live; only wiring changed.
        assert!(swapped.graph().contains(nn));
        assert!(swapped.graph().contains(f));
        assert_eq!(
            wf.graph().activity(nn).unwrap().id,
            swapped.graph().activity(nn).unwrap().id
        );
    }

    #[test]
    fn describe_uses_paper_notation() {
        let (wf, nn, f) = two_filters();
        assert_eq!(Swap::new(nn, f).describe(&wf), "SWA(2,3)");
    }
}
