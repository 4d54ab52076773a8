//! Heuristic Search (HS, Fig. 7) and HS-Greedy (§4.2).
//!
//! HS prunes the exhaustive space with the paper's four heuristics:
//!
//! 1. Factorize only homologous activities (with their binary);
//! 2. Distribute only activities that can be shifted in front of a binary;
//! 3. Apply Merge constraints before anything else;
//! 4. Divide and conquer: optimize swap order *per local group* instead of
//!    globally.
//!
//! The run proceeds in the paper's phases: pre-processing (merges, find
//! homologous pairs `H`, distributable activities `D`, local groups `L`),
//! Phase I (swaps within each local group), Phase II (`ShiftFrw` +
//! Factorize over `H`), Phase III (`ShiftBkw` + Distribute over `D` on
//! every Phase-II state), Phase IV (Phase I again on every state produced),
//! then post-processing (Split everything merged). HS-Greedy replaces the
//! per-group exhaustive swap exploration with hill climbing: only swaps
//! that immediately improve the cost are taken.
//!
//! Every state, in every phase, travels as a [`State`]: a swap successor
//! is judged, fingerprinted and priced against the state it was applied
//! to and held *pending* — built only when it is popped, climbed to or
//! accepted — and a Phase II/III candidate (a shift chain closed by one
//! FAC or DIS) is built and priced against the worklist state it started
//! from — one dirty walk over the union of the chain's affected nodes, so
//! the intermediate shift states are never priced or hashed. All candidate
//! batches go through one routine, [`Runner::batch`]; a candidate the
//! caller's set already holds comes back as [`Step::Known`], counted but
//! never judged or priced.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use crate::activity::{Activity, ActivityId};
use crate::cost::CostModel;
use crate::error::{CoreError, Result};
use crate::graph::{Graph, NodeId};
use crate::opt::{
    EvalState, Optimizer, Pacer, PhaseStat, SearchBudget, SearchOutcome, State, Step, Visited,
};
use crate::trace::{Collector, Rejections, Span};
use crate::transition::{Distribute, Factorize, Merge, Swap, Transition};
use crate::workflow::Workflow;

/// What the build phase of [`Runner::batch`] makes of one candidate move:
/// the successor, fingerprinted and (unless already known) priced against
/// the state the move was applied to, or `None` when the move did not
/// apply. An evaluation error stays inside, deferred to the admit phase so
/// it surfaces only if the admission reaches its item.
type Candidate = Option<Result<Step>>;

/// The "already have it" test [`Runner::batch`] hands its build phase.
type Known<'a> = &'a dyn Fn(u128) -> bool;

/// A Phase II/III candidate builder, for anchor tuples of `N` activities.
/// The `Vec` is the caller's buffer for the shift chain's touched nodes.
type ChainFn<const N: usize> = fn(
    &EvalState,
    &[Anchor; N],
    &mut Vec<NodeId>,
    &dyn CostModel,
    Known,
    &mut Rejections,
) -> Candidate;

/// The HS algorithm (Fig. 7).
#[derive(Debug, Clone, Default)]
pub struct HeuristicSearch {
    /// Resource bounds.
    pub budget: SearchBudget,
    /// Pairs of adjacent activities to merge during pre-processing (the
    /// `merg_cons` input of Fig. 7); they are split again before the result
    /// is returned.
    pub merge_constraints: Vec<(NodeId, NodeId)>,
}

impl HeuristicSearch {
    /// HS with the default budget and no merge constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// HS with a custom budget.
    pub fn with_budget(budget: SearchBudget) -> Self {
        HeuristicSearch {
            budget,
            merge_constraints: Vec::new(),
        }
    }

    /// Add a merge constraint.
    pub fn with_merge_constraint(mut self, a1: NodeId, a2: NodeId) -> Self {
        self.merge_constraints.push((a1, a2));
        self
    }
}

impl Optimizer for HeuristicSearch {
    fn name(&self) -> &str {
        "HS"
    }

    fn run(&self, wf: &Workflow, model: &dyn CostModel) -> Result<SearchOutcome> {
        Runner::new(model, self.budget, false).run(wf, &self.merge_constraints)
    }
}

/// HS-Greedy: Phase I/IV take only immediately-improving swaps.
#[derive(Debug, Clone, Default)]
pub struct HsGreedy {
    /// Resource bounds.
    pub budget: SearchBudget,
    /// Merge constraints, as for [`HeuristicSearch`].
    pub merge_constraints: Vec<(NodeId, NodeId)>,
}

impl HsGreedy {
    /// HS-Greedy with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// HS-Greedy with a custom budget.
    pub fn with_budget(budget: SearchBudget) -> Self {
        HsGreedy {
            budget,
            merge_constraints: Vec::new(),
        }
    }
}

impl Optimizer for HsGreedy {
    fn name(&self) -> &str {
        "HS-Greedy"
    }

    fn run(&self, wf: &Workflow, model: &dyn CostModel) -> Result<SearchOutcome> {
        Runner::new(model, self.budget, true).run(wf, &self.merge_constraints)
    }
}

struct Runner<'m> {
    model: &'m dyn CostModel,
    budget: SearchBudget,
    greedy: bool,
    started: Instant,
    pacer: Pacer,
    visited: Visited,
    budget_exhausted: bool,
    /// Per-local-group cap for the best-first swap exploration, sized from
    /// the budget and the group count so Phase I cannot starve the
    /// Factorize/Distribute phases.
    group_cap: usize,
    phase_stats: Vec<PhaseStat>,
    col: Collector,
    /// [`Runner::batch`]'s candidates, empty between batches: the buffer
    /// outlives them so that a batch allocates only what it admits.
    built: Vec<(Candidate, Rejections)>,
    /// The swap list of the local group being explored, refilled per
    /// expansion.
    swaps: Vec<Swap>,
}

/// Cap on states produced by the FAC/DIS worklists: the useful chains are
/// short (each activity factorizes/distributes once per lineage); past
/// this, additional interleavings are redundant.
const COLLECT_CAP: usize = 192;

/// Phase IV revisits only this many of the collected states, cheapest
/// first, so the swap re-optimization budget goes to candidates that can
/// actually beat S_MIN.
const PHASE4_CAP: usize = 6;

impl<'m> Runner<'m> {
    fn new(model: &'m dyn CostModel, budget: SearchBudget, greedy: bool) -> Self {
        let started = Instant::now();
        Runner {
            model,
            budget,
            greedy,
            started,
            pacer: Pacer::new(started, &budget),
            visited: Visited::new(budget.max_states),
            budget_exhausted: false,
            group_cap: 5040,
            phase_stats: Vec::new(),
            col: Collector::new(if greedy { "HS-Greedy" } else { "HS" }),
            built: Vec::new(),
            swaps: Vec::new(),
        }
    }

    /// Account one generated state against the budget: unique states count
    /// toward `max_states`, and every call ticks the throttled wall-clock
    /// watchdog. `via_delta` says which evaluation path it was on when it
    /// was created (delta repricing vs full pricing).
    ///
    /// A known state is a duplicate even once the set is full. A new state
    /// at the cap was priced (the batch was already in flight) but is not
    /// admitted, so `visited_states` can never overshoot `max_states` — it
    /// surfaces as `pruned` instead.
    fn record_eval(&mut self, fp: u128, via_delta: bool) {
        self.col.evaluated(via_delta);
        if self.visited.contains(fp) {
            self.col.deduplicated();
        } else {
            self.visited.insert(fp);
        }
        self.budget_exhausted |= self.visited.at_cap();
        self.budget_exhausted |= self.pacer.tick();
    }

    fn out_of_budget(&mut self) -> bool {
        self.budget_exhausted |= self.visited.at_cap();
        self.budget_exhausted
    }

    /// Build one candidate per item, every item first, then admit the
    /// produced states in item order. `admit` gets the item's index and its
    /// state, and returns `false` to drop the rest of the batch.
    ///
    /// Building every item before admitting any is what the search's
    /// deterministic counters are pinned to: each item's rejections are
    /// counted, even past the item where the budget or `admit` stops the
    /// batch, and every item is judged against `have` as it stood before
    /// the batch.
    ///
    /// `have` is the caller's set of states it wants no second copy of. The
    /// phases never overlap: the build phase reads it through a shared borrow
    /// (the `known` test — what it holds is not regenerated or priced), the
    /// admit phase then inserts into it and shows `admit` fresh states only.
    /// A known candidate is accounted like a priced duplicate.
    fn batch<T>(
        &mut self,
        items: &[T],
        mut have: Option<&mut HashSet<u128>>,
        mut build: impl FnMut(&T, Known, &mut Rejections) -> Candidate,
        mut admit: impl FnMut(usize, State) -> bool,
    ) -> Result<()> {
        let held = have.as_deref();
        let known = |fp: u128| held.is_some_and(|set| set.contains(&fp));
        let mut built = std::mem::take(&mut self.built);
        built.extend(items.iter().map(|item| {
            let mut rej = Rejections::default();
            (build(item, &known, &mut rej), rej)
        }));
        // Rejections first, over *every* item: all of them were built, so
        // the counts must not depend on where the budget (or `admit`)
        // stops the loop below.
        for (_, rej) in &built {
            self.col.rejections(rej);
        }
        for (i, (candidate, _)) in built.drain(..).enumerate() {
            // Per-item stop: without it one speculative batch could admit
            // states past `max_states` before the caller's boundary check
            // ran again.
            if self.out_of_budget() {
                break;
            }
            let Some(step) = candidate else { continue };
            let step = step?;
            self.record_eval(step.fp(), step.via_delta());
            let Step::New(next) = step else { continue };
            let repeat = have.as_deref_mut().is_some_and(|set| !set.insert(next.fp));
            if !repeat && !admit(i, next) {
                break;
            }
        }
        self.built = built;
        Ok(())
    }

    fn run(
        mut self,
        wf: &Workflow,
        merge_constraints: &[(NodeId, NodeId)],
    ) -> Result<SearchOutcome> {
        let mut s0 = EvalState::full(wf.clone(), self.model)?;
        let initial_cost = s0.total;

        // Pre-processing (Fig. 7 lines 4-8): apply all MER per constraints…
        if !merge_constraints.is_empty() {
            let mut merged = wf.clone();
            for &(a1, a2) in merge_constraints {
                merged = Merge::new(a1, a2)
                    .apply(&merged)
                    .map_err(|e| CoreError::Schema(format!("merge constraint failed: {e}")))?;
            }
            s0 = EvalState::full(merged, self.model)?;
        }
        // …then find H, D (recorded with their activity ids so that arena
        // slot reuse in later states cannot alias them) and L.
        let anchor = |node| Anchor::of(&s0.wf, node);
        let h: Vec<[Anchor; 3]> = (s0.wf.homologous_pairs()?.iter())
            .map(|&(a1, a2, ab)| Ok([anchor(a1)?, anchor(a2)?, anchor(ab)?]))
            .collect::<Result<_>>()?;
        let d: Vec<[Anchor; 2]> = (s0.wf.distributable_activities()?.iter())
            .map(|&(a, ab)| Ok([anchor(a)?, anchor(ab)?]))
            .collect::<Result<_>>()?;

        // Phase I (lines 9-13): swaps within each local group. The pacer
        // throttles clock sampling to every 1024 costed states; phase
        // boundaries re-sample unconditionally so a slow phase cannot hide
        // a blown time budget from the next one.
        let span = Span::start("I swaps");
        let mut smin = self.phase_swaps(s0.into())?;
        self.record_eval(smin.fp, smin.via_delta());
        self.phase_finished("I swaps", span, 1, smin.total);

        // Phase II (lines 14-20): ShiftFrw + FAC over H. A worklist chains
        // factorizations over different binaries (one FAC may enable
        // another); fingerprints dedup the produced states.
        let mut collected = vec![smin.clone()];
        let span = Span::start("II factorize");
        self.phase_chain(&h, vec![0], &mut collected, &mut smin, factorize_candidate)?;
        self.phase_finished("II factorize", span, collected.len(), smin.total);

        // Phase III (lines 21-28): ShiftBkw + DIS over D, on each Phase-II
        // state — again worklist-chained, so several activities can be
        // distributed in sequence (DIS σ then DIS SK). Activities
        // factorized in Phase II are not in D (Heuristic 2).
        let span = Span::start("III distribute");
        let all = (0..collected.len()).collect();
        self.phase_chain(&d, all, &mut collected, &mut smin, distribute_candidate)?;
        self.phase_finished("III distribute", span, collected.len(), smin.total);

        // Phase IV (lines 29-35): Phase I again on the collected states,
        // cheapest first by the totals they were priced at when produced.
        let span = Span::start("IV swaps");
        collected.sort_by(|a, b| a.total.total_cmp(&b.total));
        let pool = collected.len().min(PHASE4_CAP);
        for si in collected.into_iter().take(PHASE4_CAP) {
            if self.out_of_budget() {
                break;
            }
            let cand = self.phase_swaps(si)?;
            self.record_eval(cand.fp, cand.via_delta());
            if cand.total < smin.total {
                smin = cand;
            }
        }
        self.phase_finished("IV swaps", span, pool, smin.total);

        // Post-processing (line 36): split everything that was merged.
        let mut best = smin.build(self.model)?;
        if !merge_constraints.is_empty() {
            let split = crate::transition::split_all(&best.wf)
                .map_err(|e| CoreError::Schema(format!("post-split failed: {e}")))?;
            best = Arc::new(EvalState::full(split, self.model)?);
        }

        Ok(SearchOutcome {
            best_cost: best.total,
            best: best.into_workflow(),
            initial_cost,
            visited_states: self.visited.len(),
            elapsed: self.started.elapsed(),
            budget_exhausted: self.budget_exhausted,
            time_capped: self.pacer.time_up(),
            phase_stats: self.phase_stats,
            stats: self.col.finish(),
        })
    }

    /// Close a phase: re-sample the clock, then record the pool size the
    /// phase leaves behind and the best cost so far.
    fn phase_finished(&mut self, phase: &'static str, span: Span, pool: usize, best_cost: f64) {
        self.budget_exhausted |= self.pacer.check_now();
        self.col.frontier(pool);
        self.col.span(span);
        self.phase_stats.push(PhaseStat {
            phase,
            best_cost,
            visited_states: self.visited.len(),
        });
    }

    /// Phases II and III: pop a collected state, build one chain candidate
    /// per anchor tuple from it, and push every state not collected before
    /// onto `collected` and the worklist (which holds indices into
    /// `collected`), so chains compose across anchors.
    fn phase_chain<const N: usize>(
        &mut self,
        anchors: &[[Anchor; N]],
        mut worklist: Vec<usize>,
        collected: &mut Vec<State>,
        smin: &mut State,
        candidate: ChainFn<N>,
    ) -> Result<()> {
        let mut produced: HashSet<u128> = collected.iter().map(|s| s.fp).collect();
        let mut touched = Vec::new();
        while let Some(idx) = worklist.pop() {
            if collected.len() >= COLLECT_CAP {
                break;
            }
            let si = collected[idx].built(self.model)?;
            self.col.expanded(si.fp);
            let model = self.model;
            self.batch(
                anchors,
                Some(&mut produced),
                |anchor, known, rej| candidate(&si, anchor, &mut touched, model, known, rej),
                |_, next| {
                    if next.total < smin.total {
                        *smin = next.clone();
                    }
                    worklist.push(collected.len());
                    collected.push(next);
                    true
                },
            )?;
            if self.out_of_budget() {
                break;
            }
        }
        Ok(())
    }

    /// Phase I / Phase IV: optimize the swap order inside each local group
    /// (Heuristic 4 — divide and conquer), threading the best state from
    /// group to group. Exhaustive per-group exploration for HS, hill
    /// climbing for HS-Greedy.
    fn phase_swaps(&mut self, mut current: State) -> Result<State> {
        let groups = current.built(self.model)?.wf.local_groups()?;
        // Size the per-group exploration so Phase I takes at most ~1/6 of
        // the state budget even when every group is explored to its cap.
        // The upper clamp covers a 6-activity group (6! = 720) in full;
        // longer groups rely on the hill-climb seed plus best-first
        // refinement, which in practice reaches the per-group optimum far
        // earlier than full enumeration would.
        self.group_cap = (self.budget.max_states / (6 * groups.len().max(1))).clamp(120, 720);
        for group in groups {
            if self.out_of_budget() {
                break;
            }
            let members: BTreeSet<NodeId> = group.iter().copied().collect();
            current = if self.greedy {
                self.swap_greedy_sweep(current, &members)?
            } else {
                self.swap_exhaustive(current, &members)?
            };
        }
        Ok(current)
    }

    /// Orderings of one local group reachable by legal adjacent swaps,
    /// explored best-first (cheapest state expanded next) and capped per
    /// group so one long chain of freely-commuting activities cannot eat
    /// the whole budget before the Factorize/Distribute phases run. Swap
    /// preserves node ids, so group membership is stable across the
    /// exploration.
    fn swap_exhaustive(&mut self, mut state: State, members: &BTreeSet<NodeId>) -> Result<State> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Ordered (cost, state index) key for the best-first heap; the
        /// index both breaks ties deterministically and addresses the
        /// state side-table (Workflow itself has no Ord).
        #[derive(PartialEq)]
        struct Key(f64, usize);
        impl Eq for Key {}
        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Key {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }

        let cap = self.group_cap;
        // Hill-climb first: a cheap local optimum that the best-first
        // refinement can only improve on — under any truncation HS is at
        // least as good per group as HS-Greedy.
        let climbed = self.swap_hill_climb(state.built(self.model)?, members)?;
        self.record_eval(state.fp, state.via_delta());
        self.record_eval(climbed.fp, climbed.via_delta());
        let mut best = if climbed.total <= state.total {
            climbed.clone()
        } else {
            state.clone()
        };
        let mut seen = HashSet::from([state.fp, climbed.fp]);
        let mut heap =
            BinaryHeap::from([Reverse(Key(state.total, 0)), Reverse(Key(climbed.total, 1))]);
        let mut states: Vec<State> = vec![state, climbed];
        let mut expanded = 0usize;
        while let Some(Reverse(Key(_, idx))) = heap.pop() {
            if expanded >= cap || self.out_of_budget() {
                break;
            }
            let s = states[idx].built(self.model)?;
            expanded += 1;
            self.col.expanded(s.fp);
            let moves = self.group_swaps(&s.wf, members);
            let model = self.model;
            self.batch(
                &moves,
                Some(&mut seen),
                |sw, known, rej| s.step_swap(sw, model, known, rej),
                |_, next| {
                    if next.total < best.total {
                        best = next.clone();
                    }
                    heap.push(Reverse(Key(next.total, states.len())));
                    states.push(next);
                    true
                },
            )?;
            self.swaps = moves;
        }
        Ok(best)
    }

    /// HS's inner hill climb (used to seed the best-first exploration):
    /// repeatedly take the best strictly-improving swap in the group; stop
    /// at a local optimum.
    fn swap_hill_climb(
        &mut self,
        mut current: Arc<EvalState>,
        members: &BTreeSet<NodeId>,
    ) -> Result<State> {
        self.record_eval(current.fp, current.via_delta());
        while !self.out_of_budget() {
            self.col.expanded(current.fp);
            let moves = self.group_swaps(&current.wf, members);
            let model = self.model;
            // The first of the cheapest improving successors, in
            // enumeration order: a tie goes to the earlier move.
            let mut improved: Option<State> = None;
            self.batch(
                &moves,
                None,
                |sw, known, rej| current.step_swap(sw, model, known, rej),
                |_, next| {
                    if next.total < improved.as_ref().map_or(current.total, |s| s.total) {
                        improved = Some(next);
                    }
                    true
                },
            )?;
            self.swaps = moves;
            let Some(next) = improved else { break };
            current = next.build(model)?;
        }
        Ok(current.into())
    }

    /// HS-Greedy's Phase I/IV: one sweep over the group's adjacent pairs,
    /// taking a swap whenever it immediately improves the cost ("HS swaps
    /// only those that lead to a state with less cost", §4.2). A single
    /// pass moves each activity at most a step or two — long local groups
    /// stay under-optimized, which is exactly why the paper reports
    /// HS-Greedy degrading on large workflows.
    fn swap_greedy_sweep(&mut self, state: State, members: &BTreeSet<NodeId>) -> Result<State> {
        let mut current = state.build(self.model)?;
        self.record_eval(current.fp, current.via_delta());
        // The group's pair list is taken up front, as in Fig. 7; a pair
        // consumed by an earlier swap may no longer be adjacent, in which
        // case `apply` refuses and the sweep moves on.
        //
        // Each accepted swap changes the state the next pair is judged
        // against. One batch evaluates the remaining pairs *speculatively*
        // against the current state and is consumed in order up to the
        // first acceptance; the stale tail is thrown away, but its
        // rejections stay counted (it was evaluated), and the counters
        // are pinned to that.
        let moves = self.group_swaps(&current.wf, members);
        let mut start = 0;
        while start < moves.len() {
            self.col.expanded(current.fp);
            let model = self.model;
            let mut advance: Option<(State, usize)> = None;
            self.batch(
                &moves[start..],
                None,
                |sw, known, rej| current.step_swap(sw, model, known, rej),
                |off, next| {
                    let accept = next.total < current.total;
                    if accept {
                        advance = Some((next, start + off + 1));
                    }
                    !accept
                },
            )?;
            let Some((next, at)) = advance else { break };
            (current, start) = (next.build(model)?, at);
        }
        self.swaps = moves;
        Ok(current.into())
    }

    /// Adjacent swap candidates entirely inside one local group, in the
    /// runner's swap buffer; hand it back through `self.swaps` when done.
    fn group_swaps(&mut self, wf: &Workflow, members: &BTreeSet<NodeId>) -> Vec<Swap> {
        let g = wf.graph();
        let mut out = std::mem::take(&mut self.swaps);
        out.clear();
        for &a in members {
            let Ok(cs) = g.consumers(a) else { continue };
            if cs.len() == 1 && members.contains(&cs[0]) {
                out.push(Swap::new(a, cs[0]));
            }
        }
        out
    }
}

/// Phase II candidate (Fig. 7 lines 16-18): shift both homologous
/// activities forward to their binary, factorize them, and price the result
/// against `si`.
fn factorize_candidate(
    si: &EvalState,
    [a1, a2, ab]: &[Anchor; 3],
    touched: &mut Vec<NodeId>,
    model: &dyn CostModel,
    known: Known,
    rej: &mut Rejections,
) -> Candidate {
    let at = |a: &Anchor| a.locate(&si.wf);
    let (n1, n2, nb) = (at(a1)?, at(a2)?, at(ab)?);
    let mut s = Cow::Borrowed(&si.wf);
    touched.clear();
    shift(&mut s, n1, nb, touched, rej, forward)?;
    shift(&mut s, n2, nb, touched, rej, forward)?;
    si.step_chain(s, touched, &Factorize::new(nb, n1, n2), model, known, rej)
}

/// Phase III candidate (Fig. 7 lines 23-25): shift the activity back to
/// its binary, distribute it, and price the result against `si`.
fn distribute_candidate(
    si: &EvalState,
    [a, ab]: &[Anchor; 2],
    touched: &mut Vec<NodeId>,
    model: &dyn CostModel,
    known: Known,
    rej: &mut Rejections,
) -> Candidate {
    let (na, nb) = (a.locate(&si.wf)?, ab.locate(&si.wf)?);
    let mut s = Cow::Borrowed(&si.wf);
    touched.clear();
    shift(&mut s, na, nb, touched, rej, backward)?;
    si.step_chain(s, touched, &Distribute::new(nb, na), model, known, rej)
}

/// `ShiftFrw(a, a_b)` (Fig. 7): push `a` forward through its local group by
/// successive swaps until it is the direct provider of `a_b`. `None` if
/// some swap on the way is not applicable; the refusal is counted on `rej`
/// by its rule. Every node a swap moved is appended to `touched` — against
/// the returned state, the [`Transition::affected`] set of the whole shift.
pub fn shift_frw(
    wf: &Workflow,
    a: NodeId,
    ab: NodeId,
    touched: &mut Vec<NodeId>,
    rej: &mut Rejections,
) -> Option<Workflow> {
    let mut cur = Cow::Borrowed(wf);
    shift(&mut cur, a, ab, touched, rej, forward).map(|()| cur.into_owned())
}

/// `ShiftBkw(a, a_b)` (Fig. 7): pull `a` backward through its local group
/// until its provider is `a_b`. `None` if blocked; `touched` and `rej` as
/// for [`shift_frw`].
pub fn shift_bkw(
    wf: &Workflow,
    a: NodeId,
    ab: NodeId,
    touched: &mut Vec<NodeId>,
    rej: &mut Rejections,
) -> Option<Workflow> {
    let mut cur = Cow::Borrowed(wf);
    shift(&mut cur, a, ab, touched, rej, backward).map(|()| cur.into_owned())
}

/// The neighbour a forward shift swaps `a` with: its single consumer.
fn forward(g: &Graph, a: NodeId) -> Option<NodeId> {
    match g.consumers(a).ok()? {
        [c] => Some(*c),
        _ => None,
    }
}

/// The neighbour a backward shift swaps `a` with: its provider.
fn backward(g: &Graph, a: NodeId) -> Option<NodeId> {
    g.provider(a, 0).ok()?
}

/// The shift walk: swap `a` with its `neighbour` until that neighbour is
/// `ab`. `cur` is the chain's state: borrowed until a swap has to rewire it,
/// the chain's own copy from then on. The first swap's `apply` takes the
/// copy — only once its structural check has passed on the borrowed state —
/// and every later link rewires it in place. A refused link leaves it
/// unusable; `None` makes the caller drop it.
fn shift(
    cur: &mut Cow<'_, Workflow>,
    a: NodeId,
    ab: NodeId,
    touched: &mut Vec<NodeId>,
    rej: &mut Rejections,
    neighbour: fn(&Graph, NodeId) -> Option<NodeId>,
) -> Option<()> {
    for _ in 0..cur.activity_count() + 1 {
        let n = neighbour(cur.graph(), a)?;
        if n == ab {
            return Some(());
        }
        let swap = Swap::new(a, n);
        let applied = match cur {
            Cow::Owned(own) => swap.apply_in_place(own),
            Cow::Borrowed(wf) => swap.apply(wf).map(|next| *cur = Cow::Owned(next)),
        };
        applied.map_err(|e| rej.record(&e)).ok()?;
        touched.extend([a, n]);
    }
    None
}

/// A node reference hardened against arena slot reuse: the node id plus the
/// activity id that slot held when the anchor was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Anchor {
    node: NodeId,
    activity: ActivityId,
}

impl Anchor {
    fn of(wf: &Workflow, node: NodeId) -> Result<Anchor> {
        let activity = wf.graph().activity(node)?.id.clone();
        Ok(Anchor { node, activity })
    }

    /// Find this activity in a (possibly rewired) state: the remembered
    /// slot if it still holds it, else the first holder in arena order.
    /// Allocates nothing: most anchors a Phase II/III state is asked for
    /// name an activity it no longer holds, and the scan says so as cheaply
    /// as a map built per state would.
    fn locate(&self, wf: &Workflow) -> Option<NodeId> {
        let same = |a: &Activity| a.id == self.activity;
        let g = wf.graph();
        if g.activity(self.node).is_ok_and(same) {
            return Some(self.node);
        }
        g.iter()
            .find(|(_, n)| n.as_activity().is_some_and(same))
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RowCountModel;
    use crate::opt::ExhaustiveSearch;
    use crate::postcond::equivalent;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::{BinaryOp, UnaryOp};
    use crate::workflow::WorkflowBuilder;

    /// SK before a selective σ: optimal plan swaps them.
    fn swap_win() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 1000.0);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), s);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 10)).with_selectivity(0.1),
            sk,
        );
        b.target("T", Schema::of(["sk", "v"]), f);
        b.build().unwrap()
    }

    /// Converging flows with a distributable filter after the union.
    fn dis_win() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 512.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 512.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.25),
            u,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), sel);
        b.target("T", Schema::of(["sk", "v"]), sk);
        b.build().unwrap()
    }

    #[test]
    fn hs_matches_es_on_small_workflows() {
        // Table 1, "small" row: HS quality = 100 % of the ES optimum.
        let model = RowCountModel::default();
        for wf in [swap_win(), dis_win()] {
            let es = ExhaustiveSearch::new().run(&wf, &model).unwrap();
            let hs = HeuristicSearch::new().run(&wf, &model).unwrap();
            assert!(
                (hs.best_cost - es.best_cost).abs() < 1e-6,
                "HS {} vs ES {}",
                hs.best_cost,
                es.best_cost
            );
            assert!(equivalent(&wf, &hs.best).unwrap());
        }
    }

    #[test]
    fn hs_visits_fewer_states_than_es() {
        let model = RowCountModel::default();
        let wf = dis_win();
        let es = ExhaustiveSearch::new().run(&wf, &model).unwrap();
        let hs = HeuristicSearch::new().run(&wf, &model).unwrap();
        assert!(
            hs.visited_states <= es.visited_states,
            "HS {} vs ES {}",
            hs.visited_states,
            es.visited_states
        );
    }

    #[test]
    fn greedy_is_no_better_than_hs() {
        let model = RowCountModel::default();
        let wf = dis_win();
        let hs = HeuristicSearch::new().run(&wf, &model).unwrap();
        let hg = HsGreedy::new().run(&wf, &model).unwrap();
        assert!(hg.best_cost >= hs.best_cost - 1e-9);
        assert!(equivalent(&wf, &hg.best).unwrap());
    }

    #[test]
    fn hs_distributes_the_selective_filter() {
        let model = RowCountModel::default();
        let wf = dis_win();
        let hs = HeuristicSearch::new().run(&wf, &model).unwrap();
        assert!(hs.best_cost < hs.initial_cost);
        // The best state has σ clones on both branches.
        let sig = hs.best.signature().to_string();
        assert!(sig.contains('\''), "expected distributed clones in {sig}");
    }

    #[test]
    fn merge_constraint_keeps_pair_together_and_splits_after() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 100.0);
        let add = b.unary(
            "ADD",
            UnaryOp::AddField {
                attr: "src".into(),
                value: crate::scalar::Scalar::from("S"),
            },
            s,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), add);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.1),
            sk,
        );
        b.target("T", Schema::of(["src", "sk", "v"]), f);
        let wf = b.build().unwrap();
        let model = RowCountModel::default();
        let searches: [Box<dyn Optimizer>; 2] = [
            Box::new(HeuristicSearch::new().with_merge_constraint(add, sk)),
            Box::new(HsGreedy {
                merge_constraints: vec![(add, sk)],
                ..HsGreedy::new()
            }),
        ];
        for search in searches {
            let name = search.name().to_owned();
            let out = search.run(&wf, &model).unwrap();
            let best = &out.best;
            let acts = best.activities().unwrap();
            let label = |a: NodeId| best.graph().activity(a).unwrap().label.as_str();
            // Result is fully split again…
            assert!(
                acts.iter().all(|&a| {
                    !matches!(
                        *best.graph().activity(a).unwrap().op,
                        crate::activity::Op::Merged(_)
                    )
                }),
                "{name}"
            );
            // …equivalent, with the pair still adjacent, and the σ was
            // still pushed ahead of the package.
            assert!(equivalent(&wf, best).unwrap(), "{name}");
            let add = acts.iter().copied().find(|&a| label(a) == "ADD").unwrap();
            let next = best.graph().consumers(add).unwrap();
            assert_eq!(
                next.iter().map(|&a| label(a)).collect::<Vec<_>>(),
                ["SK"],
                "{name}"
            );
            assert!(out.best_cost < out.initial_cost, "{name}");
            assert_eq!(label(acts[0]), "σ", "{name}");
        }
    }

    #[test]
    fn shift_frw_and_bkw_roundtrip() {
        let wf = dis_win();
        let by_label = |label: &str| {
            let mut acts = wf.activities().unwrap().into_iter();
            acts.find(|&a| wf.graph().activity(a).unwrap().label == label)
                .unwrap()
        };
        // σ is the consumer of U: moving it back to U needs no swap.
        let (sel, u, sk) = (by_label("σ"), by_label("U"), by_label("SK"));
        let (mut touched, mut rej) = (Vec::new(), Rejections::default());
        let back = shift_bkw(&wf, sel, u, &mut touched, &mut rej).unwrap();
        assert_eq!(back.signature(), wf.signature());
        assert!(touched.is_empty(), "no swap was needed: {touched:?}");
        // SK can also be shifted back to the union (swapping past σ).
        let shifted = shift_bkw(&wf, sk, u, &mut touched, &mut rej).unwrap();
        assert_ne!(shifted.signature(), wf.signature());
        assert_eq!(touched, vec![sk, sel], "one swap, past σ");
        assert_eq!(rej.total(), 0);
        assert!(equivalent(&wf, &shifted).unwrap());
    }

    #[test]
    fn budget_is_respected() {
        let model = RowCountModel::default();
        let wf = dis_win();
        let hs = HeuristicSearch::with_budget(SearchBudget::states(2))
            .run(&wf, &model)
            .unwrap();
        assert!(hs.budget_exhausted);
        // Still returns a valid, equivalent state.
        assert!(equivalent(&wf, &hs.best).unwrap());
    }

    #[test]
    fn phase_stats_trace_the_fig7_structure() {
        let model = RowCountModel::default();
        let wf = dis_win();
        let out = HeuristicSearch::new().run(&wf, &model).unwrap();
        let phases: Vec<&str> = out.phase_stats.iter().map(|p| p.phase).collect();
        assert_eq!(
            phases,
            vec!["I swaps", "II factorize", "III distribute", "IV swaps"]
        );
        // Costs are monotone non-increasing across phases…
        for w in out.phase_stats.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost + 1e-9);
        }
        // …and the last snapshot matches the outcome.
        assert!((out.phase_stats.last().unwrap().best_cost - out.best_cost).abs() < 1e-9);
        // ES reports no phases.
        let es = crate::opt::ExhaustiveSearch::new()
            .run(&wf, &model)
            .unwrap();
        assert!(es.phase_stats.is_empty());
    }

    #[test]
    fn hs_is_deterministic() {
        let model = RowCountModel::default();
        let wf = dis_win();
        let a = HeuristicSearch::new().run(&wf, &model).unwrap();
        let b = HeuristicSearch::new().run(&wf, &model).unwrap();
        assert_eq!(a.best.signature(), b.best.signature());
    }
}
