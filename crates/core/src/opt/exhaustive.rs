//! Exhaustive Search (ES, §4.2).
//!
//! "In the exhaustive approach we generate all the possible states that can
//! be generated by applying all the applicable transitions to every state."
//! The state space is a graph whose nodes are states and whose edges are
//! transitions; ES explores it breadth-first with a visited set keyed by
//! state fingerprint, then returns the cheapest state seen.
//!
//! The BFS itself is the generation-synchronous loop in
//! `opt/beam.rs`, run without a cut: every admitted state is expanded.
//!
//! The space is exponential; the paper capped ES at 40 hours and reported
//! the best-so-far for medium and large workflows. [`ExhaustiveSearch`]
//! does the same with a configurable [`SearchBudget`].

use std::sync::Arc;

use crate::cost::CostModel;
use crate::error::Result;
use crate::opt::beam::search_generations;
use crate::opt::{MoveMemo, Optimizer, SearchBudget, SearchOutcome};
use crate::workflow::Workflow;

/// The ES algorithm.
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveSearch {
    /// Resource bounds ("we let ES run up to 40 hours", laptop-scaled).
    pub budget: SearchBudget,
    /// Optional cross-run move-enumeration cache; `None` builds a fresh
    /// per-run memo (the one-shot default).
    shared_memo: Option<Arc<MoveMemo>>,
}

impl ExhaustiveSearch {
    /// ES with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// ES with a custom budget.
    pub fn with_budget(budget: SearchBudget) -> Self {
        ExhaustiveSearch {
            budget,
            shared_memo: None,
        }
    }

    /// Reuse a [`MoveMemo`] across runs instead of building a fresh one.
    ///
    /// Sound only when every run sharing the memo operates on states of
    /// one workflow *family* (stable activity-id → operator binding; see
    /// [`crate::text::family_digest`]): memo keys digest slot chains and
    /// activity ids, which only identify verdicts under that binding.
    /// [`MoveMemo::moves`] is deterministic regardless of cache contents,
    /// so sharing never changes the search result — only the reported
    /// memo hit/miss telemetry, which here covers the shared cache's
    /// traffic during this run (other runs may contribute concurrently).
    pub fn with_shared_memo(mut self, memo: Arc<MoveMemo>) -> Self {
        self.shared_memo = Some(memo);
        self
    }
}

impl Optimizer for ExhaustiveSearch {
    fn name(&self) -> &str {
        "ES"
    }

    fn run(&self, wf: &Workflow, model: &dyn CostModel) -> Result<SearchOutcome> {
        search_generations(
            "ES",
            None,
            &self.budget,
            self.shared_memo.as_deref(),
            wf,
            model,
        )
    }
}
