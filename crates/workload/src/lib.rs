#![warn(missing_docs)]
//! # etlopt-workload
//!
//! Scenario builders and workload generation for the ICDE'05 evaluation.
//!
//! * [`scenarios`] — hand-built workflows, including the paper's running
//!   example (Fig. 1: `PARTS1`/`PARTS2` → `DW`) with matching data.
//! * [`generator`] — the seeded random workflow generator reproducing the
//!   evaluation's 40 test cases in their three size bands (small ≈ 15–25,
//!   medium ≈ 35–45, large ≈ 60–70 activities).
//! * [`datagen`] — random source tables and surrogate lookups for any
//!   generated workflow, so every scenario is executable end-to-end.
//! * [`mod@calibrate`] — the statistics-refresh loop: observed selectivities
//!   from an engine run fed back into the workflow's estimates.

pub mod calibrate;
pub mod datagen;
pub mod generator;
pub mod scenarios;

pub use calibrate::{calibrate, CalibrationStore, StoreDir, StoreError};
pub use generator::{Generator, GeneratorConfig, Scenario, SizeCategory};
