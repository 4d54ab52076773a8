//! Incremental state evaluation: the carrier that makes state expansion
//! O(affected subgraph) instead of O(whole workflow).
//!
//! Every search state is paired with its flat per-node pricing
//! ([`CostVec`]) and per-node structural hashes ([`NodeHashes`]). Expanding
//! a state then costs one transition `apply`, one `downstream_of` walk over
//! the dirty subgraph (shared between repricing and rehashing), and a
//! handful of per-node recomputations — everything upstream and on sibling
//! branches is reused from the parent bit-for-bit, so delta-evaluated
//! totals and fingerprints are *exactly* equal to from-scratch ones (pinned
//! by the equivalence property tests).
//!
//! Models that override [`CostModel::cost`] with something richer than the
//! per-activity summation (`supports_delta() == false`, e.g. the physical
//! planner) fall back to full `cost` + scratch fingerprint per state — same
//! results as before, just without the shortcut.

use crate::cost::{CostModel, CostVec};
use crate::error::Result;
use crate::graph::NodeId;
use crate::opt::Move;
use crate::schema_gen;
use crate::signature::{self, NodeHashes};
use crate::trace::Rejections;
use crate::transition::Transition;
use crate::workflow::Workflow;

/// A search state with everything needed to expand it incrementally.
#[derive(Debug, Clone)]
pub(crate) struct EvalState {
    /// The state itself.
    pub wf: Workflow,
    /// Total state cost (delta-maintained when the model supports it).
    pub total: f64,
    /// State fingerprint (keys the visited sets).
    pub fp: u128,
    /// Per-node pricing + hashes; `None` in the full-evaluation fallback.
    detail: Option<(CostVec, NodeHashes)>,
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
            let (hashes, fp) = signature::hash_state(&wf);
            Ok(EvalState {
                total: cost.total,
                fp,
                detail: Some((cost, hashes)),
                wf,
                via_delta: false,
            })
        } else {
            let total = model.cost(&wf)?;
            let fp = wf.fingerprint();
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

    /// Expand one enumerated [`Move`]; `None` when it does not apply — in
    /// which case the rejection rule is counted on `rej` rather than
    /// silently discarded.
    pub fn step_move(
        &self,
        mv: &Move,
        model: &dyn CostModel,
        rej: &mut Rejections,
    ) -> Option<Result<EvalState>> {
        match mv.apply(&self.wf) {
            Ok(next) => Some(self.step_applied(next, &mv.affected(&self.wf), model)),
            Err(e) => {
                rej.record(&e);
                None
            }
        }
    }

    /// Expand one [`Transition`]; `None` when it does not apply — the
    /// rejection rule is counted on `rej`.
    pub fn step_transition<T: Transition>(
        &self,
        t: &T,
        model: &dyn CostModel,
        rej: &mut Rejections,
    ) -> Option<Result<EvalState>> {
        self.step_chain(&self.wf, Vec::new(), t, model, rej)
    }

    /// Close a chain of transitions with `t`. `shifted` is this state after
    /// the chain's earlier links and `touched` the union of their
    /// [`Transition::affected`] nodes; the successor is priced and
    /// fingerprinted against *this* state's tables by one dirty walk over
    /// `touched` plus `t`'s own affected nodes, so `shifted` never is.
    ///
    /// Exact for the reason one link is. A link cuts only edges that end at
    /// one of its affected nodes, at a node it deletes, or at a consumer of
    /// an affected node, so a path that made a node dirty at one link still
    /// leads to it from some link's affected node after the later links. In
    /// the final graph every node whose providers or provider values
    /// changed anywhere along the chain is therefore downstream of
    /// `touched ∪ affected(t)`, and every other node keeps the value this
    /// state's tables hold for it (DESIGN §6a).
    pub fn step_chain<T: Transition>(
        &self,
        shifted: &Workflow,
        mut touched: Vec<NodeId>,
        t: &T,
        model: &dyn CostModel,
        rej: &mut Rejections,
    ) -> Option<Result<EvalState>> {
        match t.apply(shifted) {
            Ok(next) => {
                touched.extend(t.affected(shifted));
                Some(self.step_applied(next, &touched, model))
            }
            Err(e) => {
                rej.record(&e);
                None
            }
        }
    }

    /// Price and fingerprint an already-applied successor, reusing this
    /// state's tables along the dirty downstream path.
    fn step_applied(
        &self,
        next: Workflow,
        affected: &[NodeId],
        model: &dyn CostModel,
    ) -> Result<EvalState> {
        let Some((cost, hashes)) = &self.detail else {
            return EvalState::full(next, model);
        };
        // One dirty walk, shared by repricing and rehashing.
        let dirty = schema_gen::downstream_of(next.graph(), affected)?;
        let cost = model.reprice_along(&next, cost, &dirty)?;
        let (hashes, fp) = signature::rehash_along(&next, hashes, &dirty);
        Ok(EvalState {
            total: cost.total,
            fp,
            detail: Some((cost, hashes)),
            wf: next,
            via_delta: true,
        })
    }
}
