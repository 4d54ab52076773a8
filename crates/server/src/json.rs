//! The wire envelopes' JSON codec is the workspace's one codec,
//! [`etlopt_core::json`]; this path stays for callers that import it from
//! the server crate.

pub use etlopt_core::json::*;
