#![warn(missing_docs)]
// Search workers share state through borrows the compiler checks, nothing
// else.
#![forbid(unsafe_code)]
//! # etlopt-core
//!
//! Logical optimization of Extraction-Transformation-Loading (ETL) workflows,
//! reproducing *Simitsis, Vassiliadis, Sellis — "Optimizing ETL Processes in
//! Data Warehouses", ICDE 2005*.
//!
//! An ETL workflow is a directed acyclic graph whose nodes are **activities**
//! (filters, functions, aggregations, surrogate-key assignments, unions,
//! joins, …) and **recordsets** (source/target tables and files), and whose
//! edges are data-provider relationships. Optimization is modeled as
//! **state-space search**: every state is a complete workflow, and a set of
//! equivalence-preserving **transitions** — [`transition::Swap`],
//! [`transition::Factorize`], [`transition::Distribute`],
//! [`transition::Merge`], [`transition::Split`] — fabricates the space. A
//! [`cost::CostModel`] ranks states and the [`opt`] module provides the
//! paper's search algorithms: exhaustive ([`opt::ExhaustiveSearch`]),
//! heuristic ([`opt::HeuristicSearch`], Fig. 7 of the paper), greedy
//! ([`opt::HsGreedy`]), and bounded-width beam ([`opt::BeamSearch`]).
//!
//! ## Quick tour
//!
//! ```
//! use etlopt_core::prelude::*;
//!
//! // Build the classic "push the selection below the expensive op" workflow:
//! //   SRC --> $2€ --> σ(euro_cost > 100) --> DW
//! let mut b = WorkflowBuilder::new();
//! let src = b.source("SRC", Schema::of(["pkey", "dollar_cost"]), 1_000.0);
//! let f = b.unary(
//!     "$2E",
//!     UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
//!     src,
//! );
//! let sel = b.unary(
//!     "sigma(euro)",
//!     UnaryOp::filter(Predicate::gt("euro_cost", 100.0)).with_selectivity(0.1),
//!     f,
//! );
//! b.target("DW", Schema::of(["pkey", "euro_cost"]), sel);
//! let wf = b.build().unwrap();
//!
//! // Optimize. The selection cannot move below `$2E` (its functionality
//! // schema mentions `euro_cost`, which only exists after the function), so
//! // the optimizer must leave the order alone — exactly the paper's Fig. 5.
//! let model = RowCountModel::default();
//! let best = HeuristicSearch::new().run(&wf, &model).unwrap();
//! assert_eq!(best.best.signature(), wf.signature());
//! ```
//!
//! The crate has no dependencies; the sibling crate `etlopt-engine` executes
//! workflow states over real tuples so equivalence can also be verified
//! empirically.

pub mod activity;
pub mod cost;
pub mod error;
pub mod explain;
pub mod graph;
pub mod impact;
pub mod json;
pub mod naming;
pub mod opt;
pub mod oracle;
pub mod physical;
pub mod postcond;
pub mod predicate;
pub mod recordset;
pub mod rng;
pub mod scalar;
pub mod schema;
pub mod schema_gen;
pub mod semantics;
pub mod signature;
pub mod text;
pub mod trace;
pub mod transition;
pub mod workflow;

/// Convenient glob-import of the types needed for everyday use.
pub mod prelude {
    pub use crate::activity::{Activity, ActivityId};
    pub use crate::cost::{CostModel, RowCountModel};
    pub use crate::error::{CoreError, Result};
    pub use crate::graph::NodeId;
    pub use crate::naming::NamingRegistry;
    pub use crate::opt::{
        run_adaptive, AdaptiveConfig, AdaptiveReport, BeamSearch, ExhaustiveSearch,
        HeuristicSearch, HsGreedy, Optimizer, SearchBudget, SearchOutcome,
    };
    pub use crate::predicate::Predicate;
    pub use crate::recordset::Recordset;
    pub use crate::scalar::Scalar;
    pub use crate::schema::{Attr, Schema};
    pub use crate::semantics::{AggFunc, Aggregation, BinaryOp, FunctionApp, UnaryOp};
    pub use crate::signature::Signature;
    pub use crate::trace::SearchStats;
    pub use crate::transition::{
        Distribute, Factorize, Merge, Split, Swap, Transition, TransitionError, TransitionKind,
    };
    pub use crate::workflow::{Workflow, WorkflowBuilder};
}
