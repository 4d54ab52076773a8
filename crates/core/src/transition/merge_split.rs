//! The Merge and Split transitions `MER(a₁₊₂,a₁,a₂)` / `SPL(a₁₊₂,a₁,a₂)`
//! (§2.2, §3.3).
//!
//! Merge "packages" two adjacent activities into a single indivisible node
//! — used to express design constraints ("a third activity may not be
//! placed between the two, or these two activities cannot be commuted") and
//! to proactively shrink the search space. Split unpackages: a merged
//! `a+b+c` splits into `a` and `b+c`, exactly as in the paper. Neither
//! changes semantics: the merged node carries the conjunction of its
//! members' post-conditions.

use crate::activity::{Activity, ActivityId, Op};
use crate::graph::NodeId;
use crate::semantics::UnaryOp;
use crate::transition::{finalize, Transition, TransitionError, TransitionKind};
use crate::workflow::Workflow;

/// Flattened (id, label, op) triple list of an activity's links.
fn parts_of(act: &Activity) -> Option<(Vec<ActivityId>, Vec<String>, Vec<UnaryOp>)> {
    match &*act.op {
        Op::Unary(op) => Some((
            vec![act.id.clone()],
            vec![act.label.to_string()],
            vec![op.clone()],
        )),
        Op::Merged(chain) => {
            let ids = match &act.id {
                ActivityId::Merged(parts) if parts.len() == chain.len() => parts.clone(),
                other => vec![other.clone()],
            };
            let labels: Vec<String> = {
                let ls: Vec<&str> = act.label.split('+').collect();
                if ls.len() == chain.len() {
                    ls.into_iter().map(str::to_owned).collect()
                } else {
                    chain.iter().map(|op| op.op_name()).collect()
                }
            };
            Some((ids, labels, chain.clone()))
        }
        Op::Binary(_) => None,
    }
}

/// The activity made of these links: a plain unary activity for one link,
/// a merged node otherwise.
fn assemble(ids: Vec<ActivityId>, labels: Vec<String>, ops: Vec<UnaryOp>) -> Activity {
    debug_assert_eq!(labels.len(), ops.len());
    if let ([id], [label], [op]) = (ids.as_slice(), labels.as_slice(), ops.as_slice()) {
        return Activity::new(id.clone(), label.clone(), Op::Unary(op.clone()));
    }
    Activity::new(ActivityId::Merged(ids), labels.join("+"), Op::Merged(ops))
}

/// `MER(a₁₊₂,a₁,a₂)`: package adjacent unary activities `a₁ → a₂` into one
/// node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Merge {
    /// Upstream activity.
    pub a1: NodeId,
    /// Downstream activity (direct consumer of `a1`).
    pub a2: NodeId,
}

impl Merge {
    /// Construct the transition.
    pub fn new(a1: NodeId, a2: NodeId) -> Self {
        Merge { a1, a2 }
    }
}

impl Transition for Merge {
    fn kind(&self) -> TransitionKind {
        TransitionKind::Merge
    }

    fn affected(&self, wf: &Workflow) -> Vec<NodeId> {
        let mut nodes = vec![self.a1, self.a2];
        if let Ok(Some(p)) = wf.graph().provider(self.a1, 0) {
            nodes.push(p);
        }
        nodes
    }

    fn apply(&self, wf: &Workflow) -> Result<Workflow, TransitionError> {
        let g = wf.graph();
        let first = g
            .activity(self.a1)
            .map_err(|_| TransitionError::NotUnary(self.a1))?;
        let second = g
            .activity(self.a2)
            .map_err(|_| TransitionError::NotUnary(self.a2))?;
        if !first.is_unary() {
            return Err(TransitionError::NotUnary(self.a1));
        }
        if !second.is_unary() {
            return Err(TransitionError::NotUnary(self.a2));
        }
        if g.provider(self.a2, 0)?
            .map(|p| p != self.a1)
            .unwrap_or(true)
        {
            return Err(TransitionError::NotAdjacent(self.a1, self.a2));
        }
        if g.consumers(self.a1)?.len() != 1 {
            return Err(TransitionError::MultipleConsumers(self.a1));
        }
        let (mut ids, mut labels, mut ops) =
            parts_of(first).ok_or(TransitionError::NotUnary(self.a1))?;
        let (ids2, labels2, ops2) = parts_of(second).ok_or(TransitionError::NotUnary(self.a2))?;
        ids.extend(ids2);
        labels.extend(labels2);
        ops.extend(ops2);
        let merged = assemble(ids, labels, ops);

        let mut out = wf.clone();
        let g = &mut out.graph;
        let p = g.provider(self.a1, 0)?.ok_or(TransitionError::Graph(
            crate::error::CoreError::MissingProvider {
                node: self.a1,
                port: 0,
            },
        ))?;
        g.disconnect(self.a1, 0)?;
        g.disconnect(self.a2, 0)?;
        let m = g.add_activity(merged);
        g.redirect_consumers(self.a2, m)?;
        g.remove(self.a2)?;
        g.remove(self.a1)?;
        g.connect(p, m, 0)?;
        finalize(out, &self.affected(wf))
    }

    fn describe(&self, wf: &Workflow) -> String {
        format!(
            "MER({},{})",
            wf.priority_token(self.a1),
            wf.priority_token(self.a2)
        )
    }
}

/// `SPL(a₁₊₂,a₁,a₂)`: unpackage a merged node into its first link and the
/// (possibly still merged) remainder — `a+b+c` → `a` and `b+c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// The merged activity.
    pub merged: NodeId,
}

impl Split {
    /// Construct the transition.
    pub fn new(merged: NodeId) -> Self {
        Split { merged }
    }
}

impl Transition for Split {
    fn kind(&self) -> TransitionKind {
        TransitionKind::Split
    }

    fn affected(&self, wf: &Workflow) -> Vec<NodeId> {
        let mut nodes = vec![self.merged];
        if let Ok(Some(p)) = wf.graph().provider(self.merged, 0) {
            nodes.push(p);
        }
        nodes
    }

    fn apply(&self, wf: &Workflow) -> Result<Workflow, TransitionError> {
        let g = wf.graph();
        let act = g
            .activity(self.merged)
            .map_err(|_| TransitionError::NotMerged(self.merged))?;
        let chain_len = match &*act.op {
            Op::Merged(chain) => chain.len(),
            _ => return Err(TransitionError::NotMerged(self.merged)),
        };
        if chain_len < 2 {
            return Err(TransitionError::NotMerged(self.merged));
        }
        let (ids, labels, ops) = parts_of(act).ok_or(TransitionError::NotMerged(self.merged))?;
        // One id per link, or the node cannot be taken apart. `Merge` only
        // builds such nodes; a hand-built one may carry any id.
        if ids.len() != ops.len() {
            return Err(TransitionError::NotMerged(self.merged));
        }
        let head = assemble(
            vec![ids[0].clone()],
            vec![labels[0].clone()],
            vec![ops[0].clone()],
        );
        let tail = assemble(ids[1..].to_vec(), labels[1..].to_vec(), ops[1..].to_vec());

        let mut out = wf.clone();
        let g = &mut out.graph;
        let p = g.provider(self.merged, 0)?.ok_or(TransitionError::Graph(
            crate::error::CoreError::MissingProvider {
                node: self.merged,
                port: 0,
            },
        ))?;
        g.disconnect(self.merged, 0)?;
        let h = g.add_activity(head);
        let t = g.add_activity(tail);
        g.redirect_consumers(self.merged, t)?;
        g.remove(self.merged)?;
        g.connect(p, h, 0)?;
        g.connect(h, t, 0)?;
        finalize(out, &self.affected(wf))
    }

    fn describe(&self, wf: &Workflow) -> String {
        format!("SPL({})", wf.priority_token(self.merged))
    }
}

/// Apply Split repeatedly until no merged activity remains (the
/// post-processing step of Heuristic Search).
pub fn split_all(wf: &Workflow) -> Result<Workflow, TransitionError> {
    let mut cur = wf.clone();
    loop {
        let merged = cur
            .activities()
            .map_err(TransitionError::Graph)?
            .into_iter()
            .find(|&a| matches!(cur.graph().activity(a).map(|x| &*x.op), Ok(Op::Merged(_))));
        match merged {
            Some(m) => cur = Split::new(m).apply(&cur)?,
            None => return Ok(cur),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postcond::equivalent;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::transition::Swap;
    use crate::workflow::WorkflowBuilder;

    fn three_chain() -> (Workflow, Vec<NodeId>) {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b", "c"]), 100.0);
        let f1 = b.unary("NN", UnaryOp::not_null("a"), s);
        let f2 = b.unary("σ", UnaryOp::filter(Predicate::gt("b", 1)), f1);
        let f3 = b.unary("π", UnaryOp::project_out(["c"]), f2);
        b.target("T", Schema::of(["a", "b"]), f3);
        (b.build().unwrap(), vec![f1, f2, f3])
    }

    #[test]
    fn merge_packages_and_preserves_equivalence() {
        let (wf, acts) = three_chain();
        let merged = Merge::new(acts[0], acts[1]).apply(&wf).unwrap();
        assert!(equivalent(&wf, &merged).unwrap());
        assert_eq!(merged.activity_count(), wf.activity_count() - 1);
        let sig = merged.signature().to_string();
        assert!(sig.contains("2+3"), "{sig}");
    }

    #[test]
    fn merge_then_split_restores_signature() {
        let (wf, acts) = three_chain();
        let merged = Merge::new(acts[0], acts[1]).apply(&wf).unwrap();
        let m = merged
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| matches!(*merged.graph().activity(a).unwrap().op, Op::Merged(_)))
            .unwrap();
        let split = Split::new(m).apply(&merged).unwrap();
        assert_eq!(wf.signature(), split.signature());
        // Labels survive the round trip.
        let labels: Vec<String> = split
            .activities()
            .unwrap()
            .iter()
            .map(|&a| split.graph().activity(a).unwrap().label.to_string())
            .collect();
        assert_eq!(labels, vec!["NN", "σ", "π"]);
    }

    #[test]
    fn triple_merge_splits_like_the_paper() {
        // a+b+c splits into a and b+c.
        let (wf, acts) = three_chain();
        let m1 = Merge::new(acts[0], acts[1]).apply(&wf).unwrap();
        let merged_node = m1
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| matches!(*m1.graph().activity(a).unwrap().op, Op::Merged(_)))
            .unwrap();
        let m2 = Merge::new(merged_node, acts[2]).apply(&m1).unwrap();
        let abc = m2
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| matches!(*m2.graph().activity(a).unwrap().op, Op::Merged(_)))
            .unwrap();
        assert_eq!(m2.graph().activity(abc).unwrap().label, "NN+σ+π");
        let split = Split::new(abc).apply(&m2).unwrap();
        let labels: Vec<String> = split
            .activities()
            .unwrap()
            .iter()
            .map(|&a| split.graph().activity(a).unwrap().label.to_string())
            .collect();
        assert_eq!(labels, vec!["NN", "σ+π"]);
    }

    #[test]
    fn split_all_unpacks_everything() {
        let (wf, acts) = three_chain();
        let m1 = Merge::new(acts[0], acts[1]).apply(&wf).unwrap();
        let merged_node = m1
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| matches!(*m1.graph().activity(a).unwrap().op, Op::Merged(_)))
            .unwrap();
        let m2 = Merge::new(merged_node, acts[2]).apply(&m1).unwrap();
        let flat = split_all(&m2).unwrap();
        assert_eq!(flat.signature(), wf.signature());
    }

    #[test]
    fn merged_node_swaps_as_a_unit() {
        // Merge σ+π, then swap the package with NN: the package moves as one.
        let (wf, acts) = three_chain();
        let merged = Merge::new(acts[1], acts[2]).apply(&wf).unwrap();
        let m = merged
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| matches!(*merged.graph().activity(a).unwrap().op, Op::Merged(_)))
            .unwrap();
        let swapped = Swap::new(acts[0], m).apply(&merged).unwrap();
        assert!(equivalent(&wf, &swapped).unwrap());
        let first = swapped.activities().unwrap()[0];
        assert_eq!(swapped.graph().activity(first).unwrap().label, "σ+π");
    }

    #[test]
    fn split_of_a_merged_node_whose_id_names_no_links_is_rejected() {
        // Regression: a two-link chain under a plain id split into `a` and
        // a one-link remainder with no id left for it, and `assemble`
        // panicked on `expect("one id")`.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b"]), 100.0);
        let f = b.unary("NN", UnaryOp::not_null("a"), s);
        b.target("T", Schema::of(["a", "b"]), f);
        let mut wf = b.build().unwrap();
        let chain = vec![
            UnaryOp::not_null("a"),
            UnaryOp::filter(Predicate::gt("b", 1)),
        ];
        wf.graph.activity_mut(f).unwrap().op = Op::Merged(chain).into();
        wf.validate().unwrap();
        let err = Split::new(f).apply(&wf).unwrap_err();
        assert_eq!(err, TransitionError::NotMerged(f));
        assert!(split_all(&wf).is_err());
    }

    #[test]
    fn split_of_plain_activity_is_rejected() {
        let (wf, acts) = three_chain();
        let err = Split::new(acts[0]).apply(&wf).unwrap_err();
        assert!(matches!(err, TransitionError::NotMerged(_)));
    }

    #[test]
    fn merge_of_non_adjacent_is_rejected() {
        let (wf, acts) = three_chain();
        let err = Merge::new(acts[0], acts[2]).apply(&wf).unwrap_err();
        assert!(matches!(err, TransitionError::NotAdjacent(_, _)));
    }

    #[test]
    fn merge_of_binary_is_rejected() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["a"]), 10.0);
        let s2 = b.source("S2", Schema::of(["a"]), 10.0);
        let u = b.binary("U", crate::semantics::BinaryOp::Union, s1, s2);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("a", 1)), u);
        b.target("T", Schema::of(["a"]), f);
        let wf = b.build().unwrap();
        let err = Merge::new(u, f).apply(&wf).unwrap_err();
        assert!(matches!(err, TransitionError::NotUnary(_)));
    }
}
