//! Incremental state evaluation: the carrier that makes state expansion
//! O(affected subgraph) instead of O(whole workflow), free for a successor
//! the search already holds, and — for a swap — deferred until the search
//! expands or returns the successor.
//!
//! Every built search state ([`EvalState`]) is paired with its flat
//! per-node pricing ([`CostVec`]) and per-slot token hashes ([`Tokens`]),
//! and keyed by [`signature::search_key`], a sum over its labelled provider
//! edges. A successor is then produced by one pipeline, in this order:
//!
//! 1. **rewire** — the transition's structural check, a structure-sharing
//!    clone and the edge surgery ([`Rewire::rewire`]);
//! 2. **walk** — `downstream_of(touched ∪ affected)` on the rewired graph,
//!    *once*; every later step runs over this one list;
//! 3. **key** — the walk re-tokened and every edge summed
//!    ([`Tokens::along`]). The key reads ids, edges and commutativity,
//!    never a schema, so it is already valid on the rewired state whose
//!    schemata are still the parent's;
//! 4. **ask** — the caller's "already have it" test. A key the search
//!    admitted belongs to a structurally identical state that passed
//!    step 5 when it was first produced, so a known successor can neither
//!    be a refusal nor be new: it comes back as [`Step::Known`] here,
//!    before anything is regenerated or priced;
//! 5. **finalize** — change-driven schema regeneration plus the always-on
//!    check of the targets it reached ([`finalize_along`]); a refusal is
//!    counted on `rej`;
//! 6. **reprice** — delta cost along the list.
//!
//! Everything upstream and on sibling branches is reused from the parent
//! bit-for-bit, so delta-evaluated totals and keys are *exactly* equal to
//! from-scratch ones (pinned by the equivalence property tests).
//!
//! A swap — most of every search's moves — is judged on the parent, without
//! building anything ([`EvalState::step_move`]), and pays for the three
//! nodes it rewires. Its structural check and the three provider edges it
//! will write are read off the parent; its key is the parent's with those
//! three edges exchanged ([`Tokens::rewired`]), with no walk; the verdict
//! derives the pair and its consumer through the edges into locals
//! (`Swap::contained`); so does the total ([`SwapPricing`]): when the
//! consumer hands on the parent's rows bit for bit, it is the parent's
//! slot-order sum with the three costs in place, and only otherwise is the
//! walk to the targets repriced through the edges as an overlay. What comes
//! back is a *pending* [`State`]: the parent, the edges, the key and the
//! total. Most successors a search admits it never expands, so most are
//! never built; one is built — clone, relink, `Swap::finalize`, the
//! parent's tokens and its pricing with three entries patched — only when a
//! search expands or returns it ([`State::build`]). The one swap judged by
//! building is the rare one whose consumer hands on a new schema: the walk
//! then goes on past it, and that successor is built on the spot.
//!
//! Models that override [`CostModel::cost`] with something richer than the
//! per-activity summation (`supports_delta() == false`, e.g. the physical
//! planner) fall back to `apply`, full `cost` and a key from scratch per
//! state, and are asked only then — same results, without the shortcut.

use std::borrow::Cow;
use std::sync::Arc;

use crate::cost::{reprice_total_with_edges, CostModel, CostVec, SwapPricing};
use crate::error::{CoreError, Result};
use crate::graph::NodeId;
use crate::opt::Move;
use crate::schema_gen::{downstream_into, downstream_of};
use crate::signature::{self, Tokens};
use crate::trace::Rejections;
use crate::transition::{finalize_along, Edges, Rewire, Swap, TransitionError};
use crate::workflow::Workflow;

/// What expanding one transition produced.
#[derive(Debug)]
pub(crate) enum Step {
    /// A successor the caller did not have, judged and priced.
    New(State),
    /// A successor the caller's test recognised by its fingerprint.
    Known {
        /// The fingerprint it was recognised by.
        fp: u128,
        /// The evaluation path the candidate was on (see
        /// [`EvalState::via_delta`]); telemetry only.
        via_delta: bool,
    },
}

impl Step {
    /// The candidate's fingerprint.
    pub fn fp(&self) -> u128 {
        match self {
            Step::New(next) => next.fp,
            Step::Known { fp, .. } => *fp,
        }
    }

    /// Was the candidate on the delta path ([`EvalState::via_delta`])?
    pub fn via_delta(&self) -> bool {
        match self {
            Step::New(next) => next.via_delta(),
            Step::Known { via_delta, .. } => *via_delta,
        }
    }
}

/// A search state as the searches hold it: its fingerprint and total, and
/// the state itself — built, or pending on its parent. Cloning one shares
/// the state; it never copies a workflow.
#[derive(Debug, Clone)]
pub(crate) struct State {
    /// The state's search key ([`signature::search_key`]; keys the visited
    /// sets).
    pub fp: u128,
    /// The state's total cost, to the bit what the built state carries.
    pub total: f64,
    form: Form,
}

#[derive(Debug, Clone)]
enum Form {
    Built(Arc<EvalState>),
    /// The swap along `edges`, judged legal on `parent` and not yet built.
    Pending {
        parent: Arc<EvalState>,
        edges: Edges,
    },
}

impl From<EvalState> for State {
    fn from(state: EvalState) -> State {
        Arc::new(state).into()
    }
}

impl From<Arc<EvalState>> for State {
    fn from(state: Arc<EvalState>) -> State {
        State {
            fp: state.fp,
            total: state.total,
            form: Form::Built(state),
        }
    }
}

impl State {
    /// Was this state priced through the delta path? A pending one was.
    pub fn via_delta(&self) -> bool {
        match &self.form {
            Form::Built(state) => state.via_delta,
            Form::Pending { .. } => true,
        }
    }

    /// The state, built: shared if it is, built from its parent if it is
    /// pending. A search calls this for the states it expands or returns.
    /// The searches ranked, deduplicated and cut a pending state on the
    /// fingerprint and total taken on its parent; a built state that
    /// disagrees with either (a cost model whose `activity_cost` reads
    /// schemata, say) is an error, not a silently different search.
    pub fn build(&self, model: &dyn CostModel) -> Result<Arc<EvalState>> {
        match &self.form {
            Form::Built(state) => Ok(Arc::clone(state)),
            Form::Pending { parent, edges } => {
                let state = parent.build_swap(edges, model)?;
                if (state.fp, state.total.to_bits()) != (self.fp, self.total.to_bits()) {
                    return Err(CoreError::Schema(format!(
                        "a pending swap built into fingerprint {:032x} and total {}, \
                         not the {:032x} and {} taken on its parent",
                        state.fp, state.total, self.fp, self.total
                    )));
                }
                Ok(Arc::new(state))
            }
        }
    }

    /// [`State::build`], keeping the built state in place of the pending
    /// one, for a state that stays held after it is read.
    pub fn built(&mut self, model: &dyn CostModel) -> Result<Arc<EvalState>> {
        let state = self.build(model)?;
        self.form = Form::Built(Arc::clone(&state));
        Ok(state)
    }
}

/// A built search state with everything needed to expand it incrementally.
#[derive(Debug)]
pub(crate) struct EvalState {
    /// The state itself.
    pub wf: Workflow,
    /// Total state cost (delta-maintained when the model supports it).
    pub total: f64,
    /// State search key ([`signature::search_key`]; keys the visited sets).
    pub fp: u128,
    /// Per-node pricing + tokens; `None` in the full-evaluation fallback.
    detail: Option<(CostVec, Tokens)>,
    /// How this state was priced: `true` for the delta path (tables reused
    /// along the dirty walk), `false` for from-scratch pricing. Telemetry
    /// only — `detail` presence is what gates the *next* expansion's path.
    via_delta: bool,
}

impl EvalState {
    /// Evaluate a state from scratch.
    pub fn full(wf: Workflow, model: &dyn CostModel) -> Result<EvalState> {
        if model.supports_delta() {
            let cost = model.price(&wf)?;
            let (tokens, fp) = signature::search_key(&wf);
            Ok(EvalState {
                total: cost.total,
                fp,
                detail: Some((cost, tokens)),
                wf,
                via_delta: false,
            })
        } else {
            let total = model.cost(&wf)?;
            let fp = signature::search_key(&wf).1;
            Ok(EvalState {
                wf,
                total,
                fp,
                detail: None,
                via_delta: false,
            })
        }
    }

    /// Was this state priced through the delta path (per-node tables reused
    /// along the dirty walk), as opposed to from-scratch pricing?
    pub fn via_delta(&self) -> bool {
        self.via_delta
    }

    /// The state's workflow, copied only if the state is still shared.
    pub fn into_workflow(self: Arc<Self>) -> Workflow {
        Arc::try_unwrap(self).map_or_else(|shared| shared.wf.clone(), |own| own.wf)
    }

    /// Expand one enumerated [`Move`]; `None` when it does not apply — in
    /// which case the rejection rule is counted on `rej` rather than
    /// silently discarded. `known` is the caller's "already have it" test.
    pub fn step_move(
        self: &Arc<Self>,
        mv: &Move,
        model: &dyn CostModel,
        known: impl Fn(u128) -> bool,
        rej: &mut Rejections,
    ) -> Option<Result<Step>> {
        match mv {
            Move::Swap(t) => self.step_swap(t, model, known, rej),
            Move::Factorize(t) => {
                self.step_chain(Cow::Borrowed(&self.wf), &[], t, model, known, rej)
            }
            Move::Distribute(t) => {
                self.step_chain(Cow::Borrowed(&self.wf), &[], t, model, known, rej)
            }
        }
    }

    /// Expand one swap; `None` when it does not apply — the rejection rule
    /// is counted on `rej`. The swap path of the module docs: the same
    /// fingerprint, total and verdict as the general pipeline, and a
    /// pending successor that builds into its successor.
    pub fn step_swap(
        self: &Arc<Self>,
        t: &Swap,
        model: &dyn CostModel,
        known: impl Fn(u128) -> bool,
        rej: &mut Rejections,
    ) -> Option<Result<Step>> {
        let step = match &self.detail {
            Some((cost, tokens)) => self.swap_successor(t, cost, tokens, model, known),
            None => self.successor(Cow::Borrowed(&self.wf), &[], t, model, known),
        };
        step.map_err(|e| rej.record(&e)).ok()
    }

    /// Close a chain of transitions with `t`. `shifted` is this state after
    /// the chain's earlier links and `touched` the union of their
    /// [`crate::transition::Transition::affected`] nodes; the successor is
    /// fingerprinted, regenerated and priced against *this* state's tables
    /// by one dirty walk over `touched` plus `t`'s own affected nodes, so
    /// `shifted` never is. A chain that owns its shifted copy hands it
    /// over, and `t` rewires it without another clone.
    ///
    /// Exact for the reason one link is. A link cuts only edges that end at
    /// one of its affected nodes, at a node it deletes, or at a consumer of
    /// an affected node, so a path that made a node dirty at one link still
    /// leads to it from some link's affected node after the later links. In
    /// the final graph every node whose providers or provider values
    /// changed anywhere along the chain is therefore downstream of
    /// `touched ∪ affected(t)`, and every other node keeps the value this
    /// state's tables hold for it (DESIGN §6a). The regeneration is `t`'s
    /// alone — `shifted` carries the schemata of its own links — and is
    /// forced from `t`'s affected nodes only; the rest of the union list it
    /// skips unless a change reaches it.
    pub fn step_chain<T: Rewire>(
        &self,
        shifted: Cow<'_, Workflow>,
        touched: &[NodeId],
        t: &T,
        model: &dyn CostModel,
        known: impl Fn(u128) -> bool,
        rej: &mut Rejections,
    ) -> Option<Result<Step>> {
        let step = self.successor(shifted, touched, t, model, known);
        step.map_err(|e| rej.record(&e)).ok()
    }

    /// The swap path of the module docs; errors as for
    /// [`EvalState::successor`].
    fn swap_successor(
        self: &Arc<Self>,
        t: &Swap,
        cost: &CostVec,
        tokens: &Tokens,
        model: &dyn CostModel,
        known: impl Fn(u128) -> bool,
    ) -> Result<Result<Step>, TransitionError> {
        let edges = t.edges(&self.wf)?;
        let fp = tokens.rewired(self.fp, &self.wf, &edges);
        if known(fp) {
            return Ok(Ok(Step::Known {
                fp,
                via_delta: true,
            }));
        }
        if !Swap::contained(&self.wf, &edges)? {
            let dirty = swap_walk(&self.wf, &edges)?;
            let next = self.build_along(&edges, Some(&dirty), cost, tokens, model)?;
            return Ok(next.map(|next| Step::New(next.into())));
        }
        let priced = SwapPricing::of(model, &self.wf, cost, &edges);
        let total = match priced.map(|priced| priced.total(&self.wf, cost)) {
            Ok(Some(total)) => Ok(total),
            Ok(None) => {
                let dirty = swap_walk(&self.wf, &edges)?;
                reprice_total_with_edges(model, &self.wf, cost, &dirty, &edges)
            }
            Err(e) => Err(e),
        };
        Ok(total.map(|total| {
            let parent = Arc::clone(self);
            Step::New(State {
                fp,
                total,
                form: Form::Pending { parent, edges },
            })
        }))
    }

    /// Build the swap along `edges` from this state: a pending successor
    /// [`EvalState::swap_successor`] judged legal, so a refusal here is a
    /// broken invariant, reported as an error.
    fn build_swap(&self, edges: &Edges, model: &dyn CostModel) -> Result<EvalState> {
        let broken = |e: TransitionError| match e {
            TransitionError::Graph(e) => e,
            e => CoreError::Schema(format!("a swap judged legal failed to build: {e}")),
        };
        let Some((cost, tokens)) = &self.detail else {
            return Err(CoreError::Schema(
                "a pending swap's parent has no tables".into(),
            ));
        };
        self.build_along(edges, None, cost, tokens, model)
            .map_err(broken)?
    }

    /// The swap along `edges` built from this state: clone, relink, the
    /// three-node `Swap::finalize`, the parent's tokens, its key with the
    /// three edges exchanged, and its pricing with the three nodes patched
    /// in. Only what escapes the pair's consumer is walked: its schema, by
    /// the regeneration, and its rows, by repricing the successor's walk.
    /// `dirty` is that walk when the caller holds it. Errors as for
    /// [`EvalState::successor`].
    fn build_along(
        &self,
        edges: &Edges,
        dirty: Option<&[NodeId]>,
        cost: &CostVec,
        tokens: &Tokens,
        model: &dyn CostModel,
    ) -> Result<Result<EvalState>, TransitionError> {
        let mut next = self.wf.clone();
        Swap::relink(&mut next.graph, edges)?;
        Swap::finalize(&mut next, edges, dirty.and_then(|walk| walk.get(3..)))?;
        let fp = tokens.rewired(self.fp, &self.wf, edges);
        let priced = SwapPricing::of(model, &self.wf, cost, edges);
        let cost = match priced.map(|priced| priced.patched(&next, cost)) {
            Ok(Some(cost)) => Ok(cost),
            Ok(None) => {
                let [(second, ..), (first, ..), _] = *edges;
                let walk = match dirty {
                    Some(walk) => Cow::Borrowed(walk),
                    None => Cow::Owned(downstream_of(next.graph(), &[second, first])?),
                };
                model.reprice_along(&next, cost, &walk)
            }
            Err(e) => Err(e),
        };
        Ok(cost.map(|cost| EvalState {
            total: cost.total,
            fp,
            detail: Some((cost, tokens.clone())),
            wf: next,
            via_delta: true,
        }))
    }

    /// The pipeline of the module docs. The outer error is a refusal of the
    /// transition, the inner one an evaluation failure.
    fn successor<T: Rewire>(
        &self,
        shifted: Cow<'_, Workflow>,
        touched: &[NodeId],
        t: &T,
        model: &dyn CostModel,
        known: impl Fn(u128) -> bool,
    ) -> Result<Result<Step>, TransitionError> {
        let Some((cost, tokens)) = &self.detail else {
            let next = t.apply(&shifted)?;
            return Ok(EvalState::full(next, model).map(|next| {
                if known(next.fp) {
                    let (fp, via_delta) = (next.fp, false);
                    Step::Known { fp, via_delta }
                } else {
                    Step::New(next.into())
                }
            }));
        };
        // `t`'s own affected nodes first: they are what the regeneration is
        // forced from, the chain's earlier ones only widen the walk. Read
        // off the pre-state, which the rewiring may consume.
        let mut walk = WALK.take();
        walk.roots.clear();
        walk.roots.extend(t.affected(&shifted));
        let own = walk.roots.len();
        walk.roots.extend_from_slice(touched);
        let step = t.rewire(shifted).and_then(|next| {
            let Walk { roots, dirty } = &mut walk;
            downstream_into(next.graph(), roots, dirty)?;
            Self::finalize_priced(next, &roots[..own], dirty, cost, tokens, model, known)
        });
        WALK.set(walk);
        step
    }

    /// The pipeline's steps 3–6 on the rewired `next`: key it along
    /// `dirty`, ask `known`, regenerate from `roots` and reprice.
    fn finalize_priced(
        mut next: Workflow,
        roots: &[NodeId],
        dirty: &[NodeId],
        cost: &CostVec,
        tokens: &Tokens,
        model: &dyn CostModel,
        known: impl Fn(u128) -> bool,
    ) -> Result<Result<Step>, TransitionError> {
        let (tokens, fp) = tokens.along(&next, dirty);
        if known(fp) {
            return Ok(Ok(Step::Known {
                fp,
                via_delta: true,
            }));
        }
        finalize_along(&mut next, roots, dirty)?;
        Ok(model.reprice_along(&next, cost, dirty).map(|cost| {
            Step::New(
                EvalState {
                    total: cost.total,
                    fp,
                    detail: Some((cost, tokens)),
                    wf: next,
                    via_delta: true,
                }
                .into(),
            )
        }))
    }
}

/// The lists a successor's walk fills — its roots and the walk itself —
/// kept by the calling thread between successors.
#[derive(Default)]
struct Walk {
    roots: Vec<NodeId>,
    dirty: Vec<NodeId>,
}

thread_local! {
    static WALK: std::cell::RefCell<Walk> = std::cell::RefCell::new(Walk::default());
}

/// The successor's walk for the swap along `edges`, read off the parent:
/// there `downstream_of` the pair reads `first, second, c, …` (the pair is
/// its only start-free prefix), and the successor's is the same list with
/// the pair traded.
fn swap_walk(wf: &Workflow, edges: &Edges) -> Result<Vec<NodeId>, TransitionError> {
    let [(second, ..), (first, ..), (c, ..)] = *edges;
    let mut dirty = downstream_of(wf.graph(), &[first, second])?;
    match dirty.as_mut_slice() {
        [a, b, d, ..] if (*a, *b, *d) == (first, second, c) => std::mem::swap(a, b),
        _ => return Err(TransitionError::NotAdjacent(first, second)),
    }
    Ok(dirty)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::cost::RowCountModel;
    use crate::opt::enumerate_moves;
    use crate::predicate::Predicate;
    use crate::rng::Rng;
    use crate::scalar::Scalar;
    use crate::schema::Schema;
    use crate::semantics::{BinaryOp, UnaryOp};
    use crate::transition::finalize;
    use crate::workflow::WorkflowBuilder;

    /// Two homologous branches into a union, then a tail whose last pair
    /// (`π-out(d)`, `ADD(d)`) passes Swap's structural check but not the
    /// regeneration: moved first, `ADD(d)` would generate a name its input
    /// still carries.
    fn converging() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let mut branch = |name: &str| {
            let s = b.source(name, Schema::of(["k", "v", "d"]), 1000.0);
            let nn = b.unary("NN", UnaryOp::not_null("v").with_selectivity(0.9), s);
            let sel = UnaryOp::filter(Predicate::gt("v", 1)).with_selectivity(0.4);
            let f = b.unary("σ", sel, nn);
            b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), f)
        };
        let (l, r) = (branch("S1"), branch("S2"));
        let u = b.binary("U", BinaryOp::Union, l, r);
        let late = UnaryOp::filter(Predicate::gt("d", 5)).with_selectivity(0.2);
        let f = b.unary("σ-late", late, u);
        let drop = b.unary("π-out", UnaryOp::project_out(["d"]), f);
        let add = UnaryOp::AddField {
            attr: "d".into(),
            value: Scalar::from("x"),
        };
        let add = b.unary("ADD", add, drop);
        b.target("T", Schema::of(["v", "sk", "d"]), add);
        b.build().unwrap()
    }

    fn rewire(mv: &Move, wf: &Workflow) -> std::result::Result<Workflow, TransitionError> {
        let wf = Cow::Borrowed(wf);
        match mv {
            Move::Swap(t) => t.rewire(wf),
            Move::Factorize(t) => t.rewire(wf),
            Move::Distribute(t) => t.rewire(wf),
        }
    }

    /// Step 3 before step 5: over seeded walks, for every enumerated move,
    /// the search key taken on the rewired state — schemata still the
    /// parent's, tokens re-taken along the walk — is the key of the
    /// finalized successor from scratch, and two
    /// candidates with one fingerprint get one verdict from `finalize`. That
    /// is what lets a search answer "known" for a candidate it never
    /// regenerated.
    #[test]
    fn the_fingerprint_of_a_rewired_state_is_final_and_decides_the_verdict() {
        let model = RowCountModel::default();
        let mut verdicts: HashMap<u128, bool> = HashMap::new();
        let (mut accepted, mut refused) = (0usize, 0usize);
        for seed in 0..24u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x0e0e);
            let mut cur = Arc::new(EvalState::full(converging(), &model).unwrap());
            for _ in 0..10 {
                let moves = enumerate_moves(&cur.wf).unwrap();
                let mut successors = Vec::new();
                for mv in &moves {
                    let at = mv.describe(&cur.wf);
                    let Ok(rewired) = rewire(mv, &cur.wf) else {
                        assert!(mv.apply(&cur.wf).is_err(), "{at}: structural refusal");
                        continue;
                    };
                    let affected = mv.affected(&cur.wf);
                    let dirty = downstream_of(rewired.graph(), &affected).unwrap();
                    let tokens = &cur.detail.as_ref().unwrap().1;
                    let (_, fp) = tokens.along(&rewired, &dirty);
                    let verdict = match finalize(rewired, &affected) {
                        Ok(next) => {
                            let scratch = signature::search_key(&next).1;
                            assert_eq!(fp, scratch, "{at}: fingerprint moved");
                            assert_eq!(next, mv.apply(&cur.wf).unwrap(), "{at}");
                            accepted += 1;
                            successors.push(*mv);
                            true
                        }
                        Err(_) => {
                            assert!(mv.apply(&cur.wf).is_err(), "{at}");
                            refused += 1;
                            false
                        }
                    };
                    let first = *verdicts.entry(fp).or_insert(verdict);
                    assert_eq!(first, verdict, "{at}: one fingerprint, two verdicts");

                    // The pipeline itself: a known fingerprint comes back
                    // before it is priced, a new one as the applied state.
                    let mut rej = Rejections::default();
                    let step = cur.step_move(mv, &model, |_| true, &mut rej);
                    assert!(matches!(step, Some(Ok(Step::Known { fp: k, .. })) if k == fp));
                    match cur.step_move(mv, &model, |_| false, &mut rej) {
                        Some(Ok(Step::New(next))) => {
                            assert!(verdict, "{at}");
                            assert_eq!(next.fp, fp, "{at}");
                            let next = next.build(&model).unwrap();
                            assert_eq!(next.wf, mv.apply(&cur.wf).unwrap(), "{at}");
                        }
                        None => assert!(!verdict && rej.total() == 1, "{at}"),
                        other => panic!("{at}: {other:?}"),
                    }
                }
                if successors.is_empty() {
                    break;
                }
                let mv = successors[rng.gen_range(0..successors.len())];
                let step = cur.step_move(&mv, &model, |_| false, &mut Rejections::default());
                let Some(Ok(Step::New(next))) = step else {
                    panic!("an accepted move must step");
                };
                cur = next.build(&model).unwrap();
            }
        }
        assert!(accepted > 500, "too few successors checked: {accepted}");
        assert!(refused > 0, "finalize never refused a rewired candidate");
    }

    /// `S → ADD(src) → SK(k→sk) → σ → T`: swapping the two generators
    /// changes the order their attributes are appended in, so the pair's
    /// consumer σ hands on a new schema and the walk must go on past it.
    fn generators() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 1000.0);
        let add = UnaryOp::AddField {
            attr: "src".into(),
            value: Scalar::from("S"),
        };
        let add = b.unary("ADD", add, s);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), add);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 1)), sk);
        b.target("T", Schema::of(["v", "src", "sk"]), f);
        b.build().unwrap()
    }

    /// What a swap's finalize was before it paid for three nodes: the
    /// change-driven walk over `downstream_of` the pair, then every target
    /// of the state checked. Returns the targets the walk reached.
    fn finalize_by_full_walk(
        wf: &mut Workflow,
        pair: &[NodeId],
        walk: &[NodeId],
    ) -> std::result::Result<Vec<NodeId>, TransitionError> {
        let mut reached = Vec::new();
        crate::schema_gen::regenerate_along(&mut wf.graph, pair, walk, &mut reached)
            .map_err(crate::transition::refusal)?;
        crate::transition::check_reached(wf, &wf.targets())?;
        Ok(reached)
    }

    /// The swap path against the general one. Over seeded walks from
    /// `converging()` (whose π-out/ADD pair feeds the target and is refused
    /// by the regeneration) and from `generators()` (whose ADD/SK pair
    /// changes its consumer's output), for every enumerated swap:
    ///
    /// * regenerating `second`, `first` and the consumer — and past it only
    ///   if its output changed, with the rest of the walk given or walked
    ///   anew — derives the schemata, the verdict (rule, node and detail)
    ///   and the reached targets the full walk does, checking targets only
    ///   where it reached gives the verdict that checking them all gives;
    /// * the parent's walk with the pair traded is the successor's walk;
    /// * the parent's search key with the three edges exchanged is the
    ///   rewired state's key from scratch.
    #[test]
    fn a_swap_paid_for_by_three_nodes_is_the_swap_the_full_walk_finalizes() {
        let model = RowCountModel::default();
        let (mut checked, mut refused, mut escaped, mut into_target) = (0, 0, 0, 0);
        let mut pout_add = false;
        for (start, fixture) in [(converging(), "converging"), (generators(), "generators")] {
            for seed in 0..12u64 {
                let mut rng = Rng::seed_from_u64(seed ^ 0x5a5a);
                let mut cur = Arc::new(EvalState::full(start.clone(), &model).unwrap());
                for step in 0..8 {
                    let wf = &cur.wf;
                    for mv in enumerate_moves(wf).unwrap() {
                        let Move::Swap(t) = mv else { continue };
                        let at = format!("{fixture} seed {seed} step {step}: {}", mv.describe(wf));
                        let Ok(edges) = t.edges(wf) else {
                            assert!(mv.apply(wf).is_err(), "{at}: structural refusal");
                            continue;
                        };
                        let [(second, ..), (first, ..), (c, ..)] = edges;
                        let mut rewired = wf.clone();
                        Swap::relink(&mut rewired.graph, &edges).unwrap();
                        let walk = downstream_of(rewired.graph(), &[t.a1, t.a2]).unwrap();
                        let mut traded = downstream_of(wf.graph(), &[first, second]).unwrap();
                        traded.swap(0, 1);
                        assert_eq!(traded, walk, "{at}: the pair-traded walk");

                        let mut full = rewired.clone();
                        let reference = finalize_by_full_walk(&mut full, &[t.a1, t.a2], &walk);
                        for rest in [walk.get(3..), None] {
                            let mut local = rewired.clone();
                            let mut reached = Vec::new();
                            let verdict = crate::schema_gen::regenerate_swap(
                                &mut local.graph,
                                [second, first, c],
                                rest,
                                &mut reached,
                            )
                            .map_err(crate::transition::refusal)
                            .and_then(|()| crate::transition::check_reached(&local, &reached));
                            match (&reference, verdict) {
                                (Ok(full_reached), Ok(())) => {
                                    assert_eq!(&reached, full_reached, "{at}: reached targets");
                                    assert_eq!(local.graph(), full.graph(), "{at}: schemata");
                                }
                                (Err(full_err), Err(err)) => assert_eq!(&err, full_err, "{at}"),
                                (full_verdict, verdict) => {
                                    panic!(
                                        "{at}: full walk {full_verdict:?}, three nodes {verdict:?}"
                                    )
                                }
                            }
                            let mut via_finalize = rewired.clone();
                            let verdict = Swap::finalize(&mut via_finalize, &edges, rest);
                            assert_eq!(verdict.is_ok(), reference.is_ok(), "{at}");
                        }

                        let tokens = &cur.detail.as_ref().unwrap().1;
                        let key = tokens.rewired(cur.fp, wf, &edges);
                        assert_eq!(key, signature::search_key(&rewired).1, "{at}");

                        checked += 1;
                        let consumer_is_target = rewired.targets().contains(&c);
                        into_target += usize::from(consumer_is_target);
                        if reference.is_err() {
                            refused += 1;
                        } else if full.graph().node(c).unwrap().output_schema()
                            != wf.graph().node(c).unwrap().output_schema()
                        {
                            escaped += 1;
                        }
                        let labels = |n: NodeId| wf.graph().node(n).unwrap().label().to_owned();
                        if (labels(first), labels(second)) == ("π-out".into(), "ADD".into()) {
                            assert!(consumer_is_target && reference.is_err(), "{at}");
                            pout_add = true;
                        }
                    }
                    let moves = enumerate_moves(&cur.wf).unwrap();
                    let mv = moves[rng.gen_range(0..moves.len())];
                    let step = cur.step_move(&mv, &model, |_| false, &mut Rejections::default());
                    if let Some(Ok(Step::New(next))) = step {
                        cur = next.build(&model).unwrap();
                    }
                }
            }
        }
        assert!(checked > 300, "too few swaps checked: {checked}");
        assert!(refused > 0, "no swap was refused by its regeneration");
        assert!(escaped > 0, "no swap changed its consumer's output");
        assert!(into_target > 0, "no swap fed a target");
        assert!(pout_add, "the π-out/ADD pair was never checked");
    }
    /// Per live node: the tokens and the pricing, bit for bit.
    fn same_tables(wf: &Workflow, a: (&CostVec, &Tokens), b: (&CostVec, &Tokens)) -> bool {
        wf.graph().iter().all(|(id, _)| {
            a.1.of(id) == b.1.of(id)
                && a.0.rows_out(id).to_bits() == b.0.rows_out(id).to_bits()
                && a.0.node_cost(id).to_bits() == b.0.node_cost(id).to_bits()
        }) && a.0.total.to_bits() == b.0.total.to_bits()
    }

    /// `S → σ → NN → T` whose target has since dropped `w` from its
    /// declared schema. No legal swap changes the attribute set a target
    /// receives, so the target check is a safety net the search fixtures
    /// never trip; this state trips it on every swap into `T`.
    fn drifted() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v", "w"]), 1000.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 1)), s);
        let nn = b.unary("NN", UnaryOp::not_null("w"), f);
        let t = b.target("T", Schema::of(["k", "v", "w"]), nn);
        let mut wf = b.build().unwrap();
        if let Ok(crate::graph::Node::Recordset(rs)) = wf.graph.node_mut(t) {
            rs.schema = Schema::of(["k", "v"]);
        }
        wf
    }

    /// `S → σ → NN → σ' → SK → T` over 777 rows, whose selectivities
    /// multiply to other bits in another order: a swapped pair's consumer
    /// may hand on rows that differ from the parent's in the last bit, and
    /// then SK's cost changes past it.
    fn rounding() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 777.0);
        let f = UnaryOp::filter(Predicate::gt("v", 1)).with_selectivity(0.9);
        let f = b.unary("σ", f, s);
        let nn = b.unary("NN", UnaryOp::not_null("v").with_selectivity(0.3), f);
        let g = UnaryOp::filter(Predicate::gt("v", 5)).with_selectivity(0.4);
        let g = b.unary("σ'", g, nn);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), g);
        b.target("T", Schema::of(["v", "sk"]), sk);
        b.build().unwrap()
    }

    /// A pending swap is the swap built. Over seeded walks from
    /// `converging()`, `generators()`, `drifted()` and `rounding()`, for every enumerated
    /// swap, what the parent alone says of the successor — the verdict
    /// (rule, node and detail), the search key and the total's bits — is
    /// what `Swap::apply`, `search_key` from scratch and `reprice_along`
    /// say on the built state; and the state a pending successor builds
    /// into, tables and all, is `Swap::apply`'s, its tokens `search_key`'s
    /// and its pricing both `reprice_along`'s and `price`'s from scratch.
    /// Counted, so none of it is vacuous: refusals, swaps into a target,
    /// refusals by the target check, swaps whose consumer hands on a new
    /// schema (built on the spot), the π-out/ADD pair refused at its
    /// target, and pending totals that stopped at the consumer and that
    /// walked past it.
    #[test]
    fn a_pending_swap_is_the_swap_built() {
        let model = RowCountModel::default();
        let (mut pending, mut refused, mut into_target, mut escaped) = (0, 0, 0, 0);
        let (mut pout_add, mut target_checked) = (0, 0);
        let (mut stopped, mut walked) = (0, 0);
        let fixtures = [
            (converging(), "converging"),
            (generators(), "generators"),
            (drifted(), "drifted"),
            (rounding(), "rounding"),
        ];
        for (start, fixture) in fixtures {
            for seed in 0..12u64 {
                let mut rng = Rng::seed_from_u64(seed ^ 0x9e9e);
                let mut cur = Arc::new(EvalState::full(start.clone(), &model).unwrap());
                for step in 0..8 {
                    let (wf, (cost, tokens)) = (&cur.wf, cur.detail.as_ref().unwrap());
                    for mv in enumerate_moves(wf).unwrap() {
                        let Move::Swap(t) = mv else { continue };
                        let at = format!("{fixture} seed {seed} step {step}: {}", mv.describe(wf));
                        let Ok(edges) = t.edges(wf) else { continue };
                        let [(second, ..), (first, ..), (c, ..)] = edges;
                        let mut walk = downstream_of(wf.graph(), &[first, second]).unwrap();
                        walk.swap(0, 1);
                        let is_target = wf.targets().contains(&c);
                        let label = |n: NodeId| wf.graph().node(n).unwrap().label().to_owned();
                        let is_pout_add = label(first) == "π-out" && label(second) == "ADD";
                        let applied = mv.apply(wf);
                        let next = match cur.swap_successor(&t, cost, tokens, &model, |_| false) {
                            Err(refusal) => {
                                let by_target = refusal.to_string().contains("target T declares");
                                target_checked += usize::from(by_target);
                                assert_eq!(Err(refusal), applied.map(drop), "{at}");
                                refused += 1;
                                pout_add += usize::from(is_pout_add && is_target);
                                continue;
                            }
                            Ok(Ok(Step::New(next))) => next,
                            Ok(other) => panic!("{at}: {other:?}"),
                        };
                        let applied = applied.unwrap_or_else(|e| panic!("{at}: {e}"));
                        assert!(!is_pout_add, "{at}: the π-out/ADD pair was accepted");
                        let (scratch_tokens, fp) = signature::search_key(&applied);
                        let along = model.reprice_along(&applied, cost, &walk).unwrap();
                        assert_eq!(next.fp, fp, "{at}: search key");
                        assert_eq!(next.total.to_bits(), along.total.to_bits(), "{at}: total");
                        match next.form {
                            Form::Pending { .. } => {
                                pending += 1;
                                let priced = SwapPricing::of(&model, wf, cost, &edges).unwrap();
                                match priced.total(wf, cost) {
                                    Some(_) => stopped += 1,
                                    None => walked += 1,
                                }
                            }
                            Form::Built(_) => escaped += 1,
                        }
                        into_target += usize::from(is_target);

                        let built = next.build(&model).unwrap();
                        assert_eq!(built.wf, applied, "{at}: the built state");
                        assert_eq!(
                            (built.fp, built.total.to_bits()),
                            (fp, next.total.to_bits())
                        );
                        let (cost_built, tokens_built) = built.detail.as_ref().unwrap();
                        let tables = (cost_built, tokens_built);
                        assert!(
                            same_tables(&applied, tables, (&along, &scratch_tokens)),
                            "{at}: tables along"
                        );
                        let scratch = model.price(&applied).unwrap();
                        assert!(
                            same_tables(&applied, tables, (&scratch, &scratch_tokens)),
                            "{at}: from scratch"
                        );
                    }
                    let moves = enumerate_moves(&cur.wf).unwrap();
                    let mv = moves[rng.gen_range(0..moves.len())];
                    let step = cur.step_move(&mv, &model, |_| false, &mut Rejections::default());
                    if let Some(Ok(Step::New(next))) = step {
                        cur = next.build(&model).unwrap();
                    }
                }
            }
        }
        assert!(pending > 300, "too few pending swaps checked: {pending}");
        assert!(stopped > 0, "no pending total stopped at the consumer");
        assert!(walked > 0, "no pending total walked past the consumer");
        assert!(refused > 0, "no swap was refused");
        assert!(into_target > 0, "no accepted swap fed a target");
        assert!(escaped > 0, "no swap changed its consumer's output");
        assert!(target_checked > 0, "the target check never refused a swap");
        assert!(
            pout_add > 0,
            "the π-out/ADD pair was never refused at its target"
        );
        println!("pending totals: {stopped} stopped at the consumer, {walked} walked");
    }
}
