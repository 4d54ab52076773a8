#![warn(missing_docs)]
//! # etlopt-engine
//!
//! An in-memory execution engine for `etlopt-core` workflow states.
//!
//! The paper establishes transition correctness *formally* (the
//! post-condition calculus of §3.4). This crate closes the loop
//! *empirically*: it executes any validated [`etlopt_core::workflow::Workflow`]
//! over real tuples, so tests can assert that an optimized state produces
//! exactly the same bag of rows as the original — and count actually
//! processed rows to sanity-check the cost model's ranking.
//!
//! ```
//! use etlopt_core::prelude::*;
//! use etlopt_engine::{Catalog, Executor, Table};
//!
//! let mut b = WorkflowBuilder::new();
//! let src = b.source("S", Schema::of(["id", "v"]), 3.0);
//! let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 10)), src);
//! b.target("T", Schema::of(["id", "v"]), f);
//! let wf = b.build().unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog.insert("S", Table::from_rows(
//!     Schema::of(["id", "v"]),
//!     vec![
//!         vec![1.into(), 5.into()],
//!         vec![2.into(), 15.into()],
//!         vec![3.into(), 25.into()],
//!     ],
//! ).unwrap());
//!
//! let result = Executor::new(catalog).run(&wf).unwrap();
//! assert_eq!(result.target("T").unwrap().len(), 2);
//! ```

pub mod catalog;
pub mod error;
pub mod eval;
pub mod exec;
pub mod executor;
pub mod functions;
pub mod ops;
pub mod pool;
pub mod recordfile;
pub mod table;
pub mod validate;

pub use catalog::Catalog;
pub use error::{EngineError, Result};
pub use exec::{Backend, SharedCache, SharedCacheHandle, StreamConfig, StreamRun};
pub use executor::{ExecResult, ExecStats, Executor, Harvester};
pub use functions::FunctionRegistry;
pub use pool::{BufferId, BufferPool};
pub use table::{Row, Table};
pub use validate::{assert_equivalent_execution, equivalent_execution};
