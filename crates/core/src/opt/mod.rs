//! State-space search algorithms (§4): Exhaustive Search (ES), Heuristic
//! Search (HS, Fig. 7), its greedy variant (HS-Greedy), and bounded-width
//! Beam search ([`BeamSearch`] — between HS and ES on the quality/time
//! trade-off).
//!
//! All four share the same skeleton: states are [`Workflow`]s identified by
//! their [`crate::signature::Signature`]; successor states are produced by
//! the applicable [`Move`]s; a [`crate::cost::CostModel`] ranks them; the
//! state cost is maintained **semi-incrementally** (§4.1) — only the path
//! from the activities a transition touched towards the targets is
//! re-priced.

// A search runs inside daemon workers: a broken invariant here must come
// back as a typed error, never take the process down.
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod adaptive;
mod beam;
mod eval;
mod exhaustive;
mod heuristic;
mod memo;
mod visited;

pub use adaptive::{
    run_adaptive, AdaptiveConfig, AdaptiveReport, Calibration, Observation, PlanObserver,
    RoundReport,
};
pub use beam::BeamSearch;
pub(crate) use eval::{EvalState, State, Step};
pub use exhaustive::ExhaustiveSearch;
pub use heuristic::{shift_bkw, shift_frw, HeuristicSearch, HsGreedy};
pub use memo::MoveMemo;
pub(crate) use visited::{Admit, Visited};

use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::error::Result;
use crate::graph::NodeId;
use crate::trace::SearchStats;
use crate::transition::{Distribute, Factorize, Swap, Transition, TransitionError};
use crate::workflow::Workflow;

/// One applicable transition, as enumerated by [`enumerate_moves`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// A swap of two adjacent unary activities.
    Swap(Swap),
    /// A factorization of homologous providers of a binary activity.
    Factorize(Factorize),
    /// A distribution of the consumer of a binary activity.
    Distribute(Distribute),
}

impl Move {
    /// Apply the underlying transition.
    pub fn apply(&self, wf: &Workflow) -> Result<Workflow, TransitionError> {
        match self {
            Move::Swap(t) => t.apply(wf),
            Move::Factorize(t) => t.apply(wf),
            Move::Distribute(t) => t.apply(wf),
        }
    }

    /// Nodes the transition touches in the pre-state (for incremental
    /// costing).
    pub fn affected(&self, wf: &Workflow) -> Vec<NodeId> {
        match self {
            Move::Swap(t) => t.affected(wf),
            Move::Factorize(t) => t.affected(wf),
            Move::Distribute(t) => t.affected(wf),
        }
    }

    /// Paper-style rendering.
    pub fn describe(&self, wf: &Workflow) -> String {
        match self {
            Move::Swap(t) => t.describe(wf),
            Move::Factorize(t) => t.describe(wf),
            Move::Distribute(t) => t.describe(wf),
        }
    }
}

/// Enumerate every transition that *may* apply to a state (cheap structural
/// pre-filter; `apply` still re-checks in full):
///
/// * `SWA` for each provider/consumer pair of unary activities,
/// * `FAC` for each homologous pair directly feeding a binary activity,
/// * `DIS` for each binary activity whose single consumer is a row-wise
///   unary activity.
pub fn enumerate_moves(wf: &Workflow) -> Result<Vec<Move>> {
    let g = wf.graph();
    let mut moves = Vec::new();
    for &a in &wf.activities()? {
        let consumers = g.consumers(a)?;
        let single = (consumers.len() == 1).then(|| consumers[0]);
        if g.activity(a)?.is_unary() {
            // SWA with the (single) unary consumer.
            if let Some(c) = single.filter(|&c| g.activity(c).is_ok_and(|x| x.is_unary())) {
                moves.push(Move::Swap(Swap::new(a, c)));
            }
        } else {
            memo::binary_moves(wf, a, g.providers(a)?, single, &mut moves);
        }
    }
    Ok(moves)
}

/// Resource bounds for a search run. The paper let ES run "up to 40 hours";
/// these are the laptop-scale equivalent of that threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchBudget {
    /// Maximum number of distinct states to generate and cost.
    pub max_states: usize,
    /// Wall-clock limit.
    pub max_time: Duration,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_states: 200_000,
            max_time: Duration::from_secs(60),
        }
    }
}

impl SearchBudget {
    /// A budget bounded only by state count.
    pub fn states(max_states: usize) -> Self {
        SearchBudget {
            max_states,
            max_time: Duration::from_secs(u64::MAX / 4),
        }
    }

    /// Ignored: returns the budget unchanged, because every search runs on
    /// the calling thread. Kept only because the benchmark (`benchmark/`)
    /// still calls it; the benchmark change that stops calling it deletes it.
    pub fn with_parallelism(self, _n: usize) -> Self {
        self
    }

    /// Set the wall-clock cap. Servers use this to clamp client-supplied
    /// time budgets to a process-wide ceiling.
    pub fn with_max_time(mut self, max_time: Duration) -> Self {
        self.max_time = max_time;
        self
    }

    /// Is the budget spent?
    pub fn exhausted(&self, visited: usize, started: Instant) -> bool {
        visited >= self.max_states || started.elapsed() >= self.max_time
    }
}

/// Throttled wall-clock watchdog. `Instant::now()` is a syscall on most
/// platforms and the searches used to pay for it once per generated state;
/// the pacer samples the clock only every [`Pacer::STRIDE`] ticks and
/// remembers a deadline hit, so the budget's time limit costs ~1/1024th of
/// what it did while still stopping runs within a stride of the deadline.
#[derive(Debug)]
pub(crate) struct Pacer {
    started: Instant,
    max_time: Duration,
    ticks: u32,
    time_up: bool,
}

impl Pacer {
    /// Clock-sampling stride, in ticks.
    const STRIDE: u32 = 1024;

    pub(crate) fn new(started: Instant, budget: &SearchBudget) -> Self {
        Pacer {
            started,
            max_time: budget.max_time,
            ticks: 0,
            // Sample the clock once up front: a zero (or already-spent)
            // time budget must stop the run within its first few states,
            // not a full stride of work past the deadline.
            time_up: started.elapsed() >= budget.max_time,
        }
    }

    /// Count one unit of work (a generated state); returns `true` once the
    /// wall-clock limit has been observed.
    pub(crate) fn tick(&mut self) -> bool {
        self.ticks = self.ticks.wrapping_add(1);
        if !self.time_up && self.ticks.is_multiple_of(Self::STRIDE) {
            self.time_up = self.started.elapsed() >= self.max_time;
        }
        self.time_up
    }

    /// Sample the clock now, regardless of the stride. Used at coarse
    /// boundaries (per BFS generation, per HS phase) where one syscall is
    /// negligible.
    pub(crate) fn check_now(&mut self) -> bool {
        if !self.time_up {
            self.time_up = self.started.elapsed() >= self.max_time;
        }
        self.time_up
    }

    /// Has any sample so far seen the deadline? Reads no clock.
    pub(crate) fn time_up(&self) -> bool {
        self.time_up
    }
}

/// Per-frontier-state expansion result of the generation-synchronous loop
/// (ES/beam): the fresh successors, the rejection deltas, and counts of
/// successors pre-filtered as duplicates against the visited set.
#[derive(Debug)]
pub(crate) struct ExpandChunk {
    /// Successors not in the visited set when the expansion probed it, in
    /// move-enumeration order.
    pub(crate) fresh: Vec<State>,
    /// Rejection-rule deltas for this state's transition attempts.
    pub(crate) rej: crate::trace::Rejections,
    /// Duplicates recognised on the delta path — by their fingerprint,
    /// before regeneration and pricing.
    pub(crate) dedup_delta: u64,
    /// Duplicates dropped after full pricing (models without delta
    /// support).
    pub(crate) dedup_full: u64,
}

/// Frontier states expanded between two merges of the generation loop.
///
/// The state budget can only stop work at a merge, so the window bounds
/// what a search evaluates past its cap: at most `EXPAND_WINDOW` states'
/// move lists. Which successors get evaluated past the cap, and hence
/// every deterministic counter (`generated`, `pruned`, the rejection
/// counts), depends on where the merges fall, so the window is a constant
/// and not a budget field: changing it changes those counters, and
/// `tests/search_population.rs` pins them.
pub const EXPAND_WINDOW: usize = 8;

/// Expand one window of a BFS frontier. Each state is built (a pending
/// swap successor is built here, by the search that expands it), its moves
/// are enumerated through the [`MoveMemo`], each successor is fingerprinted
/// incrementally, the ones already in `visited` are dropped before they are
/// judged or priced, and the rest are priced. The caller inserts into
/// `visited` only after the whole window is back, so every state of the
/// window probes the set as it stood before the window. Results come back
/// in (frontier index, move index) order; an error stays with its state, so
/// the merge can drop it with the rest of a region it discards.
///
/// `room` is how many more states `visited` can admit. A state stops
/// producing successors once it holds `room` distinct ones that `visited`
/// lacks: after the merge each of them is in the set (inserted by this
/// state or by an earlier one of the window) unless the cap was hit first,
/// so the set grew by `room` and is full either way — whatever the state
/// would have produced next could only have been counted, never admitted.
pub(crate) fn expand_frontier(
    window: &[State],
    memo: &MoveMemo,
    model: &dyn CostModel,
    visited: &Visited,
    room: usize,
) -> Vec<Result<ExpandChunk>> {
    let expand = |state: &State| {
        let mut chunk = ExpandChunk {
            fresh: Vec::new(),
            rej: crate::trace::Rejections::default(),
            dedup_delta: 0,
            dedup_full: 0,
        };
        let mut distinct = 0usize;
        let state = state.build(model)?;
        for mv in memo.moves(&state.wf)? {
            if distinct >= room {
                break;
            }
            let known = |fp| visited.contains(fp);
            let Some(step) = state.step_move(&mv, model, known, &mut chunk.rej) else {
                continue;
            };
            match step? {
                Step::Known {
                    via_delta: true, ..
                } => chunk.dedup_delta += 1,
                Step::Known { .. } => chunk.dedup_full += 1,
                Step::New(next) => {
                    // Two moves of one state can meet in the same successor;
                    // the repeat goes to the merge (which counts it as a
                    // duplicate) but fills no room.
                    if chunk.fresh.iter().all(|seen| seen.fp != next.fp) {
                        distinct += 1;
                    }
                    chunk.fresh.push(next);
                }
            }
        }
        Ok(chunk)
    };
    window.iter().map(expand).collect()
}

/// The result of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best state found.
    pub best: Workflow,
    /// Its cost under the model the search ran with.
    pub best_cost: f64,
    /// Cost of the initial state.
    pub initial_cost: f64,
    /// Number of distinct states generated and costed.
    pub visited_states: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// `true` if the run stopped because the budget ran out (ES on medium
    /// and large workflows — the asterisked cells of Tables 1 and 2).
    pub budget_exhausted: bool,
    /// `true` if the run ever observed its wall-clock deadline. Only then
    /// can the outcome depend on the machine and its load: a run that is
    /// not time-capped is a pure function of (workflow, model, algorithm,
    /// state budget), which is what lets a server store and replay it.
    /// Conservative — a deadline first seen by the very last sample is
    /// flagged although it stopped nothing. Not part of
    /// [`SearchStats::counters_json`].
    pub time_capped: bool,
    /// Per-phase progress for phase-structured algorithms (HS, HS-Greedy):
    /// the best cost and cumulative visited-state count after each of the
    /// Fig. 7 phases. Empty for ES.
    pub phase_stats: Vec<PhaseStat>,
    /// Uniform search telemetry: state accounting, rejection-rule counters,
    /// frontier sizes, evaluation-path split, memo effectiveness, phase
    /// timing. The same schema for all three algorithms; see
    /// [`crate::trace`] for which fields are deterministic.
    pub stats: SearchStats,
}

/// Snapshot of a search after one of its phases (Fig. 7 structure).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name: `"I swaps"`, `"II factorize"`, `"III distribute"`,
    /// `"IV swaps"`.
    pub phase: &'static str,
    /// Best state cost when the phase ended.
    pub best_cost: f64,
    /// Distinct states visited so far (cumulative).
    pub visited_states: usize,
}

impl SearchOutcome {
    /// Improvement over the initial state, in percent — the measure of
    /// Table 2.
    pub fn improvement_pct(&self) -> f64 {
        if self.initial_cost <= 0.0 {
            0.0
        } else {
            100.0 * (self.initial_cost - self.best_cost) / self.initial_cost
        }
    }
}

/// A search algorithm over workflow states.
pub trait Optimizer {
    /// Algorithm name as used in the paper's tables.
    fn name(&self) -> &str;

    /// Optimize `wf` under `model`. What the run did — counters, frontier
    /// sizes, phase snapshots and timings — comes back on the outcome.
    fn run(&self, wf: &Workflow, model: &dyn CostModel) -> Result<SearchOutcome>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RowCountModel;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::{BinaryOp, UnaryOp};
    use crate::workflow::WorkflowBuilder;

    fn sample() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 100.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 100.0);
        let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 1)), s1);
        let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 1)), s2);
        let u = b.binary("U", BinaryOp::Union, f1, f2);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), u);
        b.target("T", Schema::of(["sk", "v"]), sk);
        b.build().unwrap()
    }

    #[test]
    fn enumerate_finds_all_three_kinds() {
        let wf = sample();
        let moves = enumerate_moves(&wf).unwrap();
        assert!(
            moves.iter().any(|m| matches!(m, Move::Factorize(_))),
            "{moves:?}"
        );
        assert!(
            moves.iter().any(|m| matches!(m, Move::Distribute(_))),
            "{moves:?}"
        );
        // No adjacent unary pairs here, so no swaps.
        assert!(!moves.iter().any(|m| matches!(m, Move::Swap(_))));
    }

    #[test]
    fn enumerated_moves_apply_cleanly() {
        let wf = sample();
        for m in enumerate_moves(&wf).unwrap() {
            let next = m.apply(&wf).expect("enumerated move must apply");
            assert!(crate::postcond::equivalent(&wf, &next).unwrap());
        }
    }

    #[test]
    fn budget_exhaustion() {
        let b = SearchBudget::states(10);
        let now = Instant::now();
        assert!(!b.exhausted(9, now));
        assert!(b.exhausted(10, now));
    }

    #[test]
    fn pacer_observes_a_zero_time_budget_before_the_first_stride() {
        // Regression: the pacer only sampled the clock every 1024 ticks,
        // so a `Duration::ZERO` budget burned a full stride of states past
        // its deadline.
        let budget = SearchBudget {
            max_time: Duration::ZERO,
            ..SearchBudget::default()
        };
        let mut pacer = Pacer::new(Instant::now(), &budget);
        assert!(pacer.tick(), "first tick must already see the deadline");

        // A generous budget still starts un-expired.
        let mut fresh = Pacer::new(Instant::now(), &SearchBudget::default());
        assert!(!fresh.tick());
    }

    #[test]
    fn all_algorithms_stop_promptly_on_a_zero_time_budget() {
        let wf = sample();
        let model = RowCountModel::default();
        let budget = SearchBudget {
            max_states: 100_000,
            max_time: Duration::ZERO,
        };
        let algos: [Box<dyn Optimizer>; 4] = [
            Box::new(ExhaustiveSearch::with_budget(budget)),
            Box::new(BeamSearch::with_budget(budget)),
            Box::new(HeuristicSearch::with_budget(budget)),
            Box::new(HsGreedy::with_budget(budget)),
        ];
        for algo in algos {
            let out = algo.run(&wf, &model).unwrap();
            assert!(out.budget_exhausted, "{} ignored the deadline", algo.name());
            assert!(out.time_capped, "{} did not flag the deadline", algo.name());
            // Within a handful of states, not a 1024-tick stride of them.
            assert!(
                out.visited_states <= 8,
                "{} visited {} states past a zero deadline",
                algo.name(),
                out.visited_states
            );
        }
    }

    #[test]
    fn visited_states_never_overshoot_the_state_budget() {
        let wf = sample();
        let model = RowCountModel::default();
        for max in [1usize, 2, 3, 7, 19] {
            let budget = SearchBudget::states(max);
            let algos: [Box<dyn Optimizer>; 4] = [
                Box::new(ExhaustiveSearch::with_budget(budget)),
                Box::new(BeamSearch::with_budget(budget)),
                Box::new(HeuristicSearch::with_budget(budget)),
                Box::new(HsGreedy::with_budget(budget)),
            ];
            for algo in algos {
                let out = algo.run(&wf, &model).unwrap();
                assert!(
                    out.visited_states <= max,
                    "{} visited {} states under a max_states of {max}",
                    algo.name(),
                    out.visited_states
                );
                assert!(!out.time_capped, "a state-only budget has no deadline");
            }
        }
    }

    #[test]
    fn improvement_pct() {
        let wf = sample();
        let out = SearchOutcome {
            best: wf.clone(),
            best_cost: 30.0,
            initial_cost: 100.0,
            visited_states: 1,
            elapsed: Duration::ZERO,
            budget_exhausted: false,
            time_capped: false,
            phase_stats: Vec::new(),
            stats: SearchStats::new("ES"),
        };
        assert!((out.improvement_pct() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn moves_describe() {
        let wf = sample();
        let moves = enumerate_moves(&wf).unwrap();
        let descriptions: Vec<String> = moves.iter().map(|m| m.describe(&wf)).collect();
        assert!(descriptions.iter().any(|d| d.starts_with("FAC(")));
        let _ = RowCountModel::default();
    }
}
