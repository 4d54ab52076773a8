//! Optimizer as a service: a multi-tenant daemon serving the ETL
//! optimizer over a std-only TCP line protocol.
//!
//! One process hosts many tenants and many workflows. Requests are
//! newline-delimited JSON envelopes ([`proto`]) carrying workflows in
//! the repository's `text` DSL; each runs on the connection thread that
//! read it, holding one of a bounded count of job slots ([`admission`],
//! [`server`]), with server-clamped budgets ([`job`]); sibling
//! requests share move memos and result caches, and a resubmitted request
//! is answered with the body it got last time — one tier of remembered
//! bodies, keyed by the clamped request — process-wide while calibration
//! stays tenant-scoped ([`state`]).
//!
//! The load-bearing invariant, stated once here and enforced by
//! construction in [`job::run_request`]: **response bodies are
//! byte-identical to the one-shot binaries for the same effective
//! request, at any concurrency, in any arrival order.** Shared state
//! only makes responses cheaper, never different; everything it can
//! change (hit counts, elapsed time) travels in the envelope's
//! non-canonical `meta` field.

#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod admission;
mod flags;
pub mod job;
pub mod json;
pub mod proto;
pub mod server;
pub mod state;

pub use flags::Flags;
pub use job::{catalog_digest, run_request, table_digest};
pub use proto::{Code, Op, Request, Response};
pub use server::{spawn, DrainReport, Server};
pub use state::{Family, Registry, ServerConfig};
