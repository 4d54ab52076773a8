//! State transitions (§2.2, §3.3): the generators of the search space.
//!
//! | Transition | Notation | Effect |
//! |---|---|---|
//! | [`Swap`] | `SWA(a₁,a₂)` | interchange two adjacent unary activities |
//! | [`Factorize`] | `FAC(a_b,a₁,a₂)` | replace homologous activities on converging flows by one activity after the binary |
//! | [`Distribute`] | `DIS(a_b,a)` | clone an activity from after a binary into both converging flows |
//! | [`Merge`] | `MER(a₁₊₂,a₁,a₂)` | package two adjacent activities into one indivisible node |
//! | [`Split`] | `SPL(a₁₊₂,a₁,a₂)` | unpackage a merged node |
//!
//! Every transition implements [`Transition`]: `check` encodes the paper's
//! numbered applicability conditions (plus the semantic-exactness rules of
//! [`commute`]) and `apply` produces the successor state with schemata
//! regenerated **only along the dirty downstream path** (from the touched
//! nodes towards the targets — everything upstream keeps its `Arc`-shared
//! payload). Applying a transition to a state it is not applicable to is
//! an error, never a panic, and never a silently wrong workflow.
//!
//! The same dirty set drives the searches' incremental state evaluation:
//! [`Transition::affected`] must conservatively cover every node whose
//! derived row count, structural hash or token the rewrite can change,
//! because delta repricing, rehashing and re-tokening start from exactly
//! those roots (`crate::cost::CostModel::reprice_from`,
//! `crate::signature::rehash_along`, `crate::signature::Tokens::along`).
//!
//! `apply` is two halves. The first — structural check, structure-sharing
//! clone, edge surgery — is the crate-private `Rewire::rewire` of the three
//! transitions the searches enumerate. The second, `finalize`, is a dirty
//! walk (`crate::schema_gen::downstream_of`) and what runs along it
//! (`finalize_along`: schema regeneration, the check of the targets it
//! reached, the debug `validate`). A swap's second half is its own
//! (`Swap::finalize`): the three nodes it rewired, and the walk past them
//! only when their consumer's output changed. The searches call the halves
//! themselves (`crate::opt::EvalState`): their pricing and keying need the
//! same walk, and a successor whose search key they already hold needs no
//! second half at all.

// Transitions run inside search workers inside daemon workers: a state a
// transition cannot handle must come back as a typed refusal.
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod commute;
mod distribute;
mod factorize;
mod merge_split;
mod swap;

pub use distribute::Distribute;
pub use factorize::{distributable_through, Factorize};
pub use merge_split::{split_all, Merge, Split};
pub use swap::{Edges, Swap};

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::error::CoreError;
use crate::graph::{Node, NodeId};
use crate::recordset::Recordset;
use crate::schema::Schema;
use crate::workflow::Workflow;

/// Which of the five transitions a value represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// `SWA`.
    Swap,
    /// `FAC`.
    Factorize,
    /// `DIS`.
    Distribute,
    /// `MER`.
    Merge,
    /// `SPL`.
    Split,
}

impl fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransitionKind::Swap => "SWA",
            TransitionKind::Factorize => "FAC",
            TransitionKind::Distribute => "DIS",
            TransitionKind::Merge => "MER",
            TransitionKind::Split => "SPL",
        })
    }
}

/// Why a transition is not applicable to a state.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionError {
    /// The involved activities are not adjacent in the graph (swap
    /// condition 1, merge precondition).
    NotAdjacent(NodeId, NodeId),
    /// An involved activity is not unary / does not have a single input and
    /// output schema (swap condition 2).
    NotUnary(NodeId),
    /// A node's output has more than one consumer (swap condition 2).
    MultipleConsumers(NodeId),
    /// Functionality schema would not be contained in the input schema
    /// after the rewiring (swap condition 3 — the Fig. 5 `$2€`/`σ(€)` case).
    FunctionalityViolated {
        /// The activity whose functionality schema breaks.
        node: NodeId,
        /// Human-readable description.
        detail: Detail,
    },
    /// An input schema would lose its provider attributes (swap
    /// condition 4 — the Fig. 6 projected-out case).
    ProviderViolated {
        /// The activity whose input breaks.
        node: NodeId,
        /// Human-readable description.
        detail: Detail,
    },
    /// The two activities do not commute semantically (blocking operators,
    /// non-injective functions across aggregations, …).
    NotCommutative {
        /// First activity.
        a: NodeId,
        /// Second activity.
        b: NodeId,
        /// Why.
        detail: Detail,
    },
    /// The activities are not homologous (factorize condition 1).
    NotHomologous(NodeId, NodeId),
    /// The designated node is not a binary activity (factorize/distribute
    /// condition 2).
    NotBinary(NodeId),
    /// The activity cannot be distributed/factorized through this binary
    /// operator (e.g. an aggregation over a union, a non-injective function
    /// over a difference).
    NotDistributable {
        /// The activity.
        node: NodeId,
        /// Why.
        detail: String,
    },
    /// Split requires a merged activity.
    NotMerged(NodeId),
    /// An underlying graph/schema error surfaced by the rewiring attempt.
    Graph(CoreError),
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionError::NotAdjacent(a, b) => write!(f, "{a} and {b} are not adjacent"),
            TransitionError::NotUnary(n) => write!(f, "{n} is not a unary activity"),
            TransitionError::MultipleConsumers(n) => {
                write!(f, "{n}'s output has more than one consumer")
            }
            TransitionError::FunctionalityViolated { node, detail } => {
                write!(f, "functionality schema of {node} violated: {detail}")
            }
            TransitionError::ProviderViolated { node, detail } => {
                write!(f, "input schema of {node} loses its provider: {detail}")
            }
            TransitionError::NotCommutative { a, b, detail } => {
                write!(f, "{a} and {b} do not commute: {detail}")
            }
            TransitionError::NotHomologous(a, b) => {
                write!(f, "{a} and {b} are not homologous")
            }
            TransitionError::NotBinary(n) => write!(f, "{n} is not a binary activity"),
            TransitionError::NotDistributable { node, detail } => {
                write!(f, "{node} cannot be distributed: {detail}")
            }
            TransitionError::NotMerged(n) => write!(f, "{n} is not a merged activity"),
            TransitionError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for TransitionError {}

/// The human-readable part of a refusal. A swap refused by its structural
/// check carries the two activities it judged — the state's own nodes,
/// shared — and writes its text only when displayed: a search counts
/// refusals by rule and never reads one, so refusing allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Detail {
    /// Text written when the refusal was raised.
    Text(String),
    /// Swap condition 3: `[first, second]`, and `second`, moved before
    /// `first`, needs attributes `first` generates.
    Generates([Arc<Node>; 2]),
    /// Swap condition 4: `[first, second]`, and `first`, moved after
    /// `second`, needs attributes `second` projects out.
    ProjectsOut([Arc<Node>; 2]),
    /// `[first, second]` do not commute (see [`commute`]).
    Blocked([Arc<Node>; 2]),
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pair = match self {
            Detail::Text(text) => return f.write_str(text),
            Detail::Generates(pair) | Detail::ProjectsOut(pair) | Detail::Blocked(pair) => pair,
        };
        let [Some(first), Some(second)] = pair.each_ref().map(|n| n.as_activity()) else {
            return Ok(());
        };
        match self {
            Detail::Generates(_) => {
                let clash = second.functionality().intersection(&first.generated());
                write!(
                    f,
                    "{} needs {clash}, which {} generates",
                    second.label, first.label
                )
            }
            Detail::ProjectsOut(_) => {
                let lost = first.functionality().intersection(&second.projected_out());
                write!(
                    f,
                    "{} needs {lost}, which {} projects out",
                    first.label, second.label
                )
            }
            // `Text` was written above.
            Detail::Blocked(_) | Detail::Text(_) => {
                if let (Some(fl), Some(sl)) = (first.unary_links(), second.unary_links()) {
                    commute::write_blocked(fl, sl, f);
                }
                Ok(())
            }
        }
    }
}

impl From<String> for Detail {
    fn from(text: String) -> Detail {
        Detail::Text(text)
    }
}

impl From<&str> for Detail {
    fn from(text: &str) -> Detail {
        Detail::Text(text.to_owned())
    }
}

impl From<CoreError> for TransitionError {
    fn from(e: CoreError) -> Self {
        TransitionError::Graph(e)
    }
}

/// A state transition `S' = T(S)`.
pub trait Transition: fmt::Debug {
    /// Which transition this is.
    fn kind(&self) -> TransitionKind;

    /// The nodes whose position/semantics the transition touches, queried
    /// against the *pre*-transition state; everything downstream of these in
    /// the successor is what the semi-incremental costing recomputes.
    /// Implementations must include every node whose output or cost can
    /// change — for Distribute that includes the binary's providers, since
    /// the clones are spliced in directly after them.
    fn affected(&self, wf: &Workflow) -> Vec<NodeId>;

    /// Produce the successor state, or explain why the transition is not
    /// applicable. Implementations clone the state, rewire, regenerate all
    /// schemata and re-validate; the input state is never mutated.
    fn apply(&self, wf: &Workflow) -> Result<Workflow, TransitionError>;

    /// Applicability test without constructing the successor. The default
    /// simply tries `apply` and drops the state; implementations may
    /// short-circuit cheap structural conditions first.
    fn check(&self, wf: &Workflow) -> Result<(), TransitionError> {
        self.apply(wf).map(|_| ())
    }

    /// Paper-style rendering, e.g. `SWA(3,4)`.
    fn describe(&self, wf: &Workflow) -> String;
}

/// The part of a search transition that comes before [`finalize`]: what the
/// searches' one-walk pipeline (`crate::opt::EvalState`) runs instead of
/// [`Transition::apply`], so that the dirty walk it needs anyway also
/// serves the regeneration, and a successor it already knows is never
/// regenerated at all. For the implementors `apply` is exactly
/// `rewire` + [`finalize`].
pub(crate) trait Rewire: Transition {
    /// Structural check, then the edge surgery — on a structure-sharing
    /// clone of a borrowed state, on the state itself when the caller
    /// hands it over (a shift chain's own copy). The returned state
    /// carries the pre-state's schemata and is a search state only once
    /// [`finalize_along`] has accepted it.
    fn rewire(&self, wf: Cow<'_, Workflow>) -> Result<Workflow, TransitionError>;
}

/// Finalize a rewired candidate: regenerate the schemata downstream of the
/// rewired nodes and re-check the state, mapping failures to transition
/// errors. Shared by all transition implementations.
///
/// `affected` are the transition's touched nodes as reported by
/// [`Transition::affected`] against the *pre*-state; everything upstream of
/// them is untouched by construction, so only the downstream slice is
/// re-derived.
pub(crate) fn finalize(mut wf: Workflow, affected: &[NodeId]) -> Result<Workflow, TransitionError> {
    finalize_in_place(&mut wf, affected)?;
    Ok(wf)
}

/// [`finalize`] on a state the caller owns; on failure the state is left
/// half-regenerated and must be dropped.
pub(crate) fn finalize_in_place(
    wf: &mut Workflow,
    affected: &[NodeId],
) -> Result<(), TransitionError> {
    let dirty = crate::schema_gen::downstream_of(&wf.graph, affected)?;
    finalize_along(wf, affected, &dirty)
}

/// [`finalize`] with the walk precomputed: `dirty` is
/// [`crate::schema_gen::downstream_of`] `affected` or a superset of it (a
/// chain's union), which regenerates
/// the same nodes — only `affected` and their direct consumers are forced,
/// everything else follows changes (`crate::schema_gen`). The full
/// structural validation runs in debug builds (and is exercised heavily by
/// the test suite); release-mode searches rely on the transitions'
/// structural invariants plus the always-on check of the targets the
/// regeneration reached ([`check_reached`]).
pub(crate) fn finalize_along(
    wf: &mut Workflow,
    affected: &[NodeId],
    dirty: &[NodeId],
) -> Result<(), TransitionError> {
    let mut targets = Vec::new();
    crate::schema_gen::regenerate_along(&mut wf.graph, affected, dirty, &mut targets)
        .map_err(refusal)?;
    check_reached(wf, &targets)
}

/// The refusal a failed regeneration stands for: a schema that cannot be
/// derived is a functionality violation of the node it failed at.
pub(crate) fn refusal(f: crate::schema_gen::RegenFailure) -> TransitionError {
    match f.error {
        CoreError::Schema(detail) => TransitionError::FunctionalityViolated {
            node: f.node,
            detail: Detail::Text(detail),
        },
        other => TransitionError::Graph(other),
    }
}

/// Equivalence condition (a), always on: every target the regeneration
/// reached must still receive its declared schema. Checking only those is
/// exact, by the contract every rewiring keeps: each edge it cuts or adds
/// ends at a start of the walk or at a direct consumer of one, both of
/// which the walk reaches. A target it did not reach therefore reads the
/// provider it read in the (valid) pre-state, whose output the walk left
/// as it was.
pub(crate) fn check_reached(wf: &Workflow, targets: &[NodeId]) -> Result<(), TransitionError> {
    for &t in targets {
        let r = wf.graph.recordset(t).map_err(TransitionError::Graph)?;
        if let Some(p) = wf.graph.provider(t, 0).map_err(TransitionError::Graph)? {
            let out = wf.graph.node(p).map_err(TransitionError::Graph)?;
            check_target(r, out.output_schema())?;
        }
    }
    #[cfg(debug_assertions)]
    wf.validate().map_err(TransitionError::Graph)?;
    Ok(())
}

/// [`check_reached`] for one target `r` that would receive `flow`.
pub(crate) fn check_target(r: &Recordset, flow: &Schema) -> Result<(), TransitionError> {
    if flow.same_attrs(&r.schema) {
        return Ok(());
    }
    Err(TransitionError::Graph(CoreError::Schema(format!(
        "target {} declares {} but would receive {}",
        r.name, r.schema, flow
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::UnaryOp;
    use crate::workflow::WorkflowBuilder;

    #[test]
    fn finalize_blames_the_activity_whose_schema_broke() {
        // Fig. 5: S → $2€ → σ(€) → T. `Swap` refuses the pair in its
        // structural check; rewire it by hand so the regeneration walk is
        // what meets σ(€) reading an attribute nothing upstream generates.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["pkey", "dollar_cost"]), 100.0);
        let f = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
            s,
        );
        let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("euro_cost", 100)), f);
        let t = b.target("T", Schema::of(["pkey", "euro_cost"]), sel);
        let wf = b.build().unwrap();

        let mut out = wf.clone();
        let g = &mut out.graph;
        for node in [f, sel, t] {
            g.disconnect(node, 0).unwrap();
        }
        g.connect(s, sel, 0).unwrap();
        g.connect(sel, f, 0).unwrap();
        g.connect(f, t, 0).unwrap();

        let err = finalize(out, &[f, sel]).unwrap_err();
        let TransitionError::FunctionalityViolated { node, .. } = &err else {
            panic!("expected a functionality violation, got {err:?}");
        };
        // Regression: this used to be `NodeId(u32::MAX)`, displayed as
        // "functionality schema of n4294967295 violated".
        assert_eq!(*node, sel, "{err}");
        assert_eq!(wf.graph().activity(*node).unwrap().label, "σ");
    }

    #[test]
    fn a_reached_target_that_would_receive_another_schema_refuses_the_state() {
        // S(a,b) → NN(a) → π-out(b) → T[a], rewired by hand to bypass the
        // projection: T is a direct consumer of the rewired NN, so the
        // walk reaches it, and the check must see `b` arrive.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["a", "b"]), 100.0);
        let nn = b.unary("NN", UnaryOp::not_null("a"), s);
        let drop = b.unary("π-out", UnaryOp::project_out(["b"]), nn);
        let t = b.target("T", Schema::of(["a"]), drop);
        let wf = b.build().unwrap();

        let mut out = wf.clone();
        out.graph.disconnect(t, 0).unwrap();
        out.graph.disconnect(drop, 0).unwrap();
        out.graph.connect(nn, t, 0).unwrap();
        let err = finalize(out, &[nn]).unwrap_err();
        assert!(
            matches!(&err, TransitionError::Graph(CoreError::Schema(m)) if m.contains("target T")),
            "{err}"
        );
    }

    #[test]
    fn kinds_render_paper_notation() {
        assert_eq!(TransitionKind::Swap.to_string(), "SWA");
        assert_eq!(TransitionKind::Factorize.to_string(), "FAC");
        assert_eq!(TransitionKind::Distribute.to_string(), "DIS");
        assert_eq!(TransitionKind::Merge.to_string(), "MER");
        assert_eq!(TransitionKind::Split.to_string(), "SPL");
    }

    #[test]
    fn errors_display() {
        let e = TransitionError::NotAdjacent(NodeId(1), NodeId(2));
        assert!(e.to_string().contains("not adjacent"));
        let e = TransitionError::NotCommutative {
            a: NodeId(1),
            b: NodeId(2),
            detail: "x".into(),
        };
        assert!(e.to_string().contains("do not commute"));
    }
}
