//! The generation-synchronous search loop, and bounded-width Beam search.
//!
//! The paper caps ES at 40 hours and reports best-so-far on medium and
//! large workflows because the state space is exponential; the related
//! task-re-ordering literature (Kougka & Gounaris, PAPERS.md) frames
//! exhaustive and bounded re-ordering as one search that differs only in
//! which candidates survive a generation. This module holds that one
//! search, `search_generations`: without a cut it is ES
//! ([`crate::opt::ExhaustiveSearch`] calls it with `width = None`); with
//! the frontier truncated to the `width` cheapest states after each
//! generation's merge it is [`BeamSearch`]. `width = 1` degenerates to
//! steepest-descent hill climbing over fingerprint-distinct states, which
//! puts beam between HS and ES on the quality/time trade-off, with a knob
//! instead of a fixed phase recipe.
//!
//! ## The loop
//!
//! A generation's frontier is expanded in windows of [`EXPAND_WINDOW`]
//! states. Each state's moves are enumerated through a [`MoveMemo`]
//! (unchanged local groups skip re-scanning), the transitions applied, and
//! each successor evaluated *incrementally* — delta cost and search key
//! along the dirty downstream path only, or for a swap by the three edges
//! it rewrites ([`crate::opt::EvalState`]), reusing the parent's per-node
//! tables for everything a rewrite did not touch. Duplicate successors are
//! dropped against the visited set as it stood before the window; the
//! merge then takes the window's fresh result lists **in (frontier index,
//! move index) order**, inserting into the same set. The visited set also
//! owns the `max_states` cap: `visited_states` can never overshoot the
//! budget, and no window is expanded once the set is full — a binding
//! budget stops the work, not just the admission (see
//! [`crate::opt::expand_frontier`] for the per-state half of that).
//!
//! ## Determinism contract
//!
//! The incumbent and the beam cut use one total order: cost first
//! ([`f64::total_cmp`]), state [`Signature`] as the tie-break, never
//! arrival order. Distinct fingerprints have distinct signatures, so the
//! order — and therefore the surviving frontier, the best state, and every
//! deterministic counter — is a function of the workflow, the model and
//! a state-only budget. `tests/search_determinism.rs` runs ES and beam twice;
//! `tests/beam_width.rs` pins ES against constants captured before the
//! two loops were merged.

use std::sync::Arc;
use std::time::Instant;

use crate::cost::CostModel;
use crate::error::Result;
use crate::opt::{
    expand_frontier, Admit, EvalState, MoveMemo, Optimizer, Pacer, SearchBudget, SearchOutcome,
    State, Visited, EXPAND_WINDOW,
};
use crate::signature::Signature;
use crate::trace::{Collector, Span};
use crate::workflow::Workflow;

/// The beam-search algorithm: ES with a per-generation top-K frontier.
#[derive(Debug, Clone)]
pub struct BeamSearch {
    /// Resource bounds, shared with the other algorithms.
    pub budget: SearchBudget,
    /// Frontier width `K`: after each generation, only the `K` cheapest
    /// states (signature tie-break) survive. Clamped to ≥ 1.
    pub width: usize,
    /// Optional cross-run move-enumeration cache; `None` builds a fresh
    /// per-run memo (the one-shot default).
    shared_memo: Option<Arc<MoveMemo>>,
}

impl BeamSearch {
    /// Default frontier width — wide enough to keep the small/medium
    /// conformance scenarios exact, narrow enough to bound large ones.
    pub const DEFAULT_WIDTH: usize = 64;

    /// Beam with the default budget and width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Beam with a custom budget and the default width.
    pub fn with_budget(budget: SearchBudget) -> Self {
        BeamSearch {
            budget,
            width: Self::DEFAULT_WIDTH,
            shared_memo: None,
        }
    }

    /// Reuse a [`MoveMemo`] across runs instead of building a fresh one.
    /// Same soundness contract as
    /// [`crate::opt::ExhaustiveSearch::with_shared_memo`]: every sharing
    /// run must operate on states of one workflow family, and the search
    /// result is unchanged — only the memo telemetry covers the shared
    /// cache's traffic during this run.
    pub fn with_shared_memo(mut self, memo: Arc<MoveMemo>) -> Self {
        self.shared_memo = Some(memo);
        self
    }

    /// Set the frontier width (clamped to ≥ 1).
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = width.max(1);
        self
    }
}

/// Truncate a merged frontier to the `width` cheapest states under the
/// deterministic (cost, signature) order; returns the survivors in that
/// order and the number of states dropped.
///
/// Only what can survive is ordered: the `width`-th cheapest cost is found
/// by selection, every state strictly dearer is dropped unseen — neither
/// built nor given a signature — and the rest (the survivors, plus
/// whatever ties the boundary cost) goes through the full order.
fn truncate(
    mut frontier: Vec<State>,
    width: usize,
    model: &dyn CostModel,
) -> Result<(Vec<State>, u64)> {
    if frontier.len() <= width {
        return Ok((frontier, 0));
    }
    let dropped = (frontier.len() - width) as u64;
    let mut costs: Vec<f64> = frontier.iter().map(|s| s.total).collect();
    let boundary = *costs
        .select_nth_unstable_by(width.saturating_sub(1), f64::total_cmp)
        .1;
    frontier.retain(|s| s.total.total_cmp(&boundary).is_le());
    Ok((cheapest(frontier, width, model)?, dropped))
}

/// The `width` first states of `frontier` under the (cost, signature)
/// order, in that order. Only states that tie on cost with another are
/// built (and kept built: a survivor is expanded next) and given a
/// signature, once each.
fn cheapest(mut frontier: Vec<State>, width: usize, model: &dyn CostModel) -> Result<Vec<State>> {
    let mut order: Vec<usize> = (0..frontier.len()).collect();
    order.sort_unstable_by(|&a, &b| frontier[a].total.total_cmp(&frontier[b].total));
    let mut sigs: Vec<Option<Signature>> = vec![None; frontier.len()];
    for pair in order.windows(2) {
        if frontier[pair[0]]
            .total
            .total_cmp(&frontier[pair[1]].total)
            .is_eq()
        {
            for &i in pair {
                if sigs[i].is_none() {
                    sigs[i] = Some(frontier[i].built(model)?.wf.signature());
                }
            }
        }
    }
    order.sort_unstable_by(|&a, &b| {
        let by_cost = frontier[a].total.total_cmp(&frontier[b].total);
        by_cost.then_with(|| sigs[a].cmp(&sigs[b]))
    });
    let mut slots: Vec<Option<State>> = frontier.into_iter().map(Some).collect();
    Ok(order
        .iter()
        .take(width)
        .filter_map(|&i| slots[i].take())
        .collect())
}

impl Default for BeamSearch {
    fn default() -> Self {
        Self::with_budget(SearchBudget::default())
    }
}

impl Optimizer for BeamSearch {
    fn name(&self) -> &str {
        "Beam"
    }

    fn run(&self, wf: &Workflow, model: &dyn CostModel) -> Result<SearchOutcome> {
        search_generations(
            "Beam",
            Some(self.width.max(1)),
            &self.budget,
            self.shared_memo.as_deref(),
            wf,
            model,
        )
    }
}

/// The generation-synchronous BFS behind ES (`width = None`: every admitted
/// state is expanded) and beam (`Some(K)`: only the `K` cheapest survivors
/// of each generation are). `shared_memo = None` builds a fresh per-run
/// memo.
pub(super) fn search_generations(
    algorithm: &'static str,
    width: Option<usize>,
    budget: &SearchBudget,
    shared_memo: Option<&MoveMemo>,
    wf: &Workflow,
    model: &dyn CostModel,
) -> Result<SearchOutcome> {
    let started = Instant::now();
    let span = Span::start("search");
    let mut col = Collector::new(algorithm);
    if let Some(width) = width {
        col.beam_width(u64::try_from(width).unwrap_or(u64::MAX));
    }
    let mut pacer = Pacer::new(started, budget);
    let local_memo;
    let memo: &MoveMemo = match shared_memo {
        Some(m) => m,
        None => {
            local_memo = MoveMemo::new();
            &local_memo
        }
    };
    let (memo_h0, memo_m0) = memo.stats();
    let initial = State::from(EvalState::full(wf.clone(), model)?);
    let initial_cost = initial.total;
    col.evaluated(initial.via_delta());

    let mut visited = Visited::new(budget.max_states);
    visited.insert(initial.fp);

    // Best state tracked by (cost, signature): strictly cheaper wins; an
    // exact cost tie goes to the lexicographically smaller signature, so
    // the winner does not depend on arrival order. The full signature
    // string is only built lazily, for tie-breaks. The winning state is
    // built and shared once per improving generation (after the merge and
    // before the cut — the incumbent may well be a state a later
    // truncation drops from the frontier), not once per improvement.
    let mut best = initial.build(model)?;
    let mut best_cost = initial_cost;
    let mut best_sig: Option<Signature> = None;

    let mut frontier: Vec<State> = vec![initial];
    let mut budget_exhausted = false;

    while !frontier.is_empty() {
        if visited.at_cap() || pacer.check_now() {
            budget_exhausted = true;
            break;
        }
        col.frontier(frontier.len());
        // Expansion and merge alternate window by window, so the budget
        // stops *work*, not just admission: no window is expanded once the
        // visited set is full or the clock has run out, and the states of
        // the frontier it never reached are not expanded at all.
        let mut next_frontier: Vec<State> = Vec::new();
        let mut gen_best: Option<usize> = None;
        for window in frontier.chunks(EXPAND_WINDOW) {
            if budget_exhausted || visited.at_cap() || pacer.check_now() {
                budget_exhausted = true;
                break;
            }
            for state in window {
                col.expanded(state.fp);
            }
            // Results come back ordered by frontier index, successors
            // ordered by move index within each state. Rejected transitions
            // come back as per-state counter deltas instead of being
            // discarded.
            let expanded = expand_frontier(window, memo, model, &visited, visited.room());

            // Merge: deterministic order, one visited set. The window may
            // still have priced duplicate successors (two states can reach
            // the same *new* third state in one window); the insert drops
            // them here. Once the budget stops the merge, the window's
            // remaining chunks are only *counted* (they were evaluated
            // either way), never accepted — and an error in that discarded
            // region is dropped with them.
            let mut merging = true;
            for chunk in expanded {
                let chunk = match chunk {
                    Ok(c) => c,
                    Err(e) if merging => return Err(e),
                    Err(_) => continue,
                };
                col.rejections(&chunk.rej);
                for _ in 0..chunk.dedup_delta {
                    col.evaluated(true);
                    col.deduplicated();
                }
                for _ in 0..chunk.dedup_full {
                    col.evaluated(false);
                    col.deduplicated();
                }
                for mut next in chunk.fresh {
                    col.evaluated(next.via_delta());
                    if !merging {
                        continue;
                    }
                    if pacer.tick() {
                        budget_exhausted = true;
                        merging = false;
                        continue;
                    }
                    match visited.insert(next.fp) {
                        Admit::Duplicate => {
                            col.deduplicated();
                            continue;
                        }
                        Admit::CapReached => {
                            budget_exhausted = true;
                            merging = false;
                            continue;
                        }
                        Admit::Fresh => {}
                    }
                    let total = next.total;
                    let strict = total < best_cost;
                    let improves = strict || {
                        total == best_cost && {
                            // Reuse the lazily-built signatures: the
                            // incumbent's is computed at most once per
                            // reign, and a tie-winner donates its own.
                            let sig = next.built(model)?.wf.signature();
                            let wins = {
                                let cur = best_sig.get_or_insert_with(|| best.wf.signature());
                                sig < *cur
                            };
                            if wins {
                                best_sig = Some(sig);
                            }
                            wins
                        }
                    };
                    next_frontier.push(next);
                    if improves {
                        if strict {
                            best_sig = None;
                        }
                        best_cost = total;
                        gen_best = Some(next_frontier.len() - 1);
                    }
                }
            }
        }
        if let Some(i) = gen_best {
            best = next_frontier[i].built(model)?;
        }
        // The beam cut: keep the K cheapest survivors. Truncated states
        // stay in the visited set (they were admitted and count toward the
        // budget) but are never expanded, so they surface as `pruned` in
        // the accounting and as `truncated_states` in the beam telemetry.
        frontier = match width {
            Some(width) => {
                let (kept, dropped) = truncate(next_frontier, width, model)?;
                col.truncated(dropped);
                kept
            }
            None => next_frontier,
        };
        if budget_exhausted {
            break;
        }
    }

    let (hits, misses) = memo.stats();
    col.memo(hits.saturating_sub(memo_h0), misses.saturating_sub(memo_m0));
    col.span(span);
    Ok(SearchOutcome {
        best: best.into_workflow(),
        best_cost,
        initial_cost,
        visited_states: visited.len(),
        elapsed: started.elapsed(),
        budget_exhausted,
        time_capped: pacer.time_up(),
        phase_stats: Vec::new(),
        stats: col.finish(),
    })
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

    /// Expensive SK before a selective filter: the optimum is the swap.
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

    fn fac_dis() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 64.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 64.0);
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

    /// Distinct states to cut: the orderings of six commuting filters,
    /// breadth-first from the initial one.
    fn orderings(at_least: usize) -> Vec<State> {
        let mut b = WorkflowBuilder::new();
        let mut last = b.source("S", Schema::of(["a"]), 1000.0);
        for i in 0..6 {
            let op = UnaryOp::filter(Predicate::gt("a", i)).with_selectivity(0.5);
            last = b.unary("σ", op, last);
        }
        b.target("T", Schema::of(["a"]), last);
        let model = RowCountModel::default();
        let mut states = vec![State::from(
            EvalState::full(b.build().unwrap(), &model).unwrap(),
        )];
        let mut next = 0;
        while states.len() < at_least {
            let from = states[next].build(&model).unwrap();
            next += 1;
            for mv in crate::opt::enumerate_moves(&from.wf).unwrap() {
                let known = |fp| states.iter().any(|s| s.fp == fp);
                let mut rej = crate::trace::Rejections::default();
                if let Some(Ok(crate::opt::Step::New(s))) =
                    from.step_move(&mv, &model, known, &mut rej)
                {
                    states.push(s);
                }
            }
        }
        states
    }

    #[test]
    fn truncate_keeps_what_the_full_sort_keeps() {
        // `cheapest` over the whole frontier is the cut as it was before
        // the selection: order everything, keep the first `width`.
        let model = RowCountModel::default();
        // The totals below are made up, and a pending state must build
        // into its total: build every state before its total is replaced.
        let mut states = orderings(90);
        for s in &mut states {
            s.built(&model).unwrap();
        }
        let mut rng = crate::rng::Rng::seed_from_u64(0x7a7a);
        for case in 0..24 {
            let mut frontier = states.clone();
            // Heavy ties: 1, 3 or 12 distinct costs over ~90 states, so the
            // boundary cost is shared by states on both sides of the cut,
            // or (one cost) by all of them.
            let levels = [1u32, 3, 12][case % 3];
            for s in &mut frontier {
                s.total = f64::from(rng.gen_range(0..levels));
            }
            for width in [1, 2, 64, frontier.len() - 1, frontier.len()] {
                let at = format!("case {case}, width {width}");
                let expect = if width < frontier.len() {
                    cheapest(frontier.clone(), width, &model).unwrap()
                } else {
                    frontier.clone()
                };
                let (kept, dropped) = truncate(frontier.clone(), width, &model).unwrap();
                let fps = |states: &[State]| states.iter().map(|s| s.fp).collect::<Vec<_>>();
                assert_eq!(fps(&kept), fps(&expect), "{at}");
                assert_eq!(dropped as usize, frontier.len() - kept.len(), "{at}");
                let boundary = kept.iter().map(|s| s.total).fold(f64::MIN, f64::max);
                let cheaper = frontier.iter().filter(|s| s.total < boundary).count();
                assert!(cheaper < width, "{at}: a cheaper state was cut");
            }
        }
    }

    #[test]
    fn beam_finds_the_swap_optimum() {
        let wf = swap_win();
        let model = RowCountModel::default();
        let out = BeamSearch::new().run(&wf, &model).unwrap();
        assert!(!out.budget_exhausted);
        assert!(out.best_cost < out.initial_cost);
        let first = out.best.activities().unwrap()[0];
        assert_eq!(out.best.graph().activity(first).unwrap().label, "σ");
        assert!(equivalent(&wf, &out.best).unwrap());
        assert_eq!(out.stats.algorithm, "Beam");
        assert_eq!(out.stats.beam_width, BeamSearch::DEFAULT_WIDTH as u64);
    }

    #[test]
    fn width_one_still_improves_and_truncates() {
        let wf = fac_dis();
        let model = RowCountModel::default();
        let out = BeamSearch::new().with_width(1).run(&wf, &model).unwrap();
        assert!(out.best_cost <= out.initial_cost);
        assert!(
            out.stats.truncated_states > 0,
            "a width-1 beam on a branching space must truncate\n{}",
            out.stats.counters_json()
        );
        assert!(out.stats.reconciles(), "{}", out.stats.counters_json());
        assert!(
            out.stats.pruned >= out.stats.truncated_states,
            "truncated states must be a subset of pruned\n{}",
            out.stats.counters_json()
        );
        assert!(equivalent(&wf, &out.best).unwrap());
    }

    #[test]
    fn zero_width_is_clamped() {
        let wf = swap_win();
        let model = RowCountModel::default();
        let out = BeamSearch::new().with_width(0).run(&wf, &model).unwrap();
        assert_eq!(out.stats.beam_width, 1);
        assert!(out.best_cost <= out.initial_cost);
    }

    #[test]
    fn beam_respects_budget() {
        let wf = swap_win();
        let model = RowCountModel::default();
        let out = BeamSearch::with_budget(SearchBudget::states(1))
            .run(&wf, &model)
            .unwrap();
        assert!(out.budget_exhausted);
        assert!(out.visited_states <= 1);
    }

    #[test]
    fn es_finds_the_swap_optimum() {
        let wf = swap_win();
        let model = RowCountModel::default();
        let out = ExhaustiveSearch::new().run(&wf, &model).unwrap();
        assert!(!out.budget_exhausted);
        assert!(out.best_cost < out.initial_cost);
        // Optimal order: σ first.
        let first = out.best.activities().unwrap()[0];
        assert_eq!(out.best.graph().activity(first).unwrap().label, "σ");
        assert!(equivalent(&wf, &out.best).unwrap());
    }

    #[test]
    fn es_explores_fac_dis_space() {
        let wf = fac_dis();
        let model = RowCountModel::default();
        let out = ExhaustiveSearch::new().run(&wf, &model).unwrap();
        assert!(out.visited_states > 3, "visited {}", out.visited_states);
        assert!(out.best_cost < out.initial_cost);
        assert!(equivalent(&wf, &out.best).unwrap());
    }

    #[test]
    fn es_respects_budget() {
        let wf = swap_win();
        let model = RowCountModel::default();
        let out = ExhaustiveSearch::with_budget(SearchBudget::states(1))
            .run(&wf, &model)
            .unwrap();
        assert!(out.budget_exhausted);
        assert!(out.visited_states <= 2);
    }

    #[test]
    fn es_on_fixed_workflow_is_deterministic() {
        let wf = swap_win();
        let model = RowCountModel::default();
        let a = ExhaustiveSearch::new().run(&wf, &model).unwrap();
        let b = ExhaustiveSearch::new().run(&wf, &model).unwrap();
        assert_eq!(a.best.signature(), b.best.signature());
        assert_eq!(a.visited_states, b.visited_states);
    }
}
