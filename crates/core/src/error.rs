//! Error types for workflow construction, validation and optimization.

use std::fmt;

use crate::graph::NodeId;

/// Crate-wide result alias.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;

/// Errors raised while building, validating or optimizing a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The graph contains a cycle; ETL workflows must be DAGs.
    CyclicGraph {
        /// A node that participates in the cycle.
        node: NodeId,
    },
    /// A node id does not exist (or was removed) in the graph.
    UnknownNode(NodeId),
    /// An activity input port is not fed by any provider.
    MissingProvider {
        /// The consumer whose port is dangling.
        node: NodeId,
        /// The dangling input port.
        port: usize,
    },
    /// A node has more providers on one port than allowed.
    DuplicateProvider {
        /// The consumer node.
        node: NodeId,
        /// The over-supplied port.
        port: usize,
    },
    /// An activity consumes an attribute its provider does not offer.
    UnresolvedAttribute {
        /// The consumer node.
        node: NodeId,
        /// Human-readable description of the missing attribute.
        attr: String,
    },
    /// An activity or recordset has no consumer (activities must feed
    /// something; only target recordsets may be sinks).
    DanglingOutput(NodeId),
    /// A source recordset is also written to, or a target is read from.
    InvalidRecordsetRole {
        /// The offending recordset node.
        node: NodeId,
        /// Explanation of the violated role.
        reason: String,
    },
    /// The workflow has no source or no target recordset.
    NoSourceOrTarget,
    /// The naming principle (§3.1) was violated while registering names.
    Naming(String),
    /// A schema-level inconsistency independent of graph shape.
    Schema(String),
    /// The optimizer exhausted its budget before finishing (only reported by
    /// searches configured to treat exhaustion as an error).
    BudgetExhausted {
        /// States explored before giving up.
        visited: usize,
    },
    /// A plan observation failed while the adaptive re-optimization loop
    /// was executing a chosen plan for feedback (the engine-side error,
    /// carried as text so the core crate stays engine-agnostic).
    Observation(String),
    /// A conformance fault-injection site does not describe a valid
    /// (function, filter) pair on the workflow it was applied to — the
    /// nodes have the wrong operator kinds, or the site went stale after a
    /// transition rewired the graph.
    InvalidFaultSite {
        /// The offending node of the site.
        node: NodeId,
        /// What exactly disqualifies the site.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::CyclicGraph { node } => {
                write!(f, "workflow graph contains a cycle through node {node}")
            }
            CoreError::UnknownNode(n) => write!(f, "unknown node id {n}"),
            CoreError::MissingProvider { node, port } => {
                write!(f, "node {node} input port {port} has no data provider")
            }
            CoreError::DuplicateProvider { node, port } => {
                write!(
                    f,
                    "node {node} input port {port} has more than one provider \
                     (use a UNION activity to combine flows)"
                )
            }
            CoreError::UnresolvedAttribute { node, attr } => {
                write!(
                    f,
                    "node {node} consumes attribute `{attr}` that no provider offers"
                )
            }
            CoreError::DanglingOutput(n) => {
                write!(f, "node {n} produces data that nothing consumes")
            }
            CoreError::InvalidRecordsetRole { node, reason } => {
                write!(f, "recordset {node} has an invalid role: {reason}")
            }
            CoreError::NoSourceOrTarget => {
                write!(
                    f,
                    "workflow must have at least one source and one target recordset"
                )
            }
            CoreError::Naming(msg) => write!(f, "naming principle violation: {msg}"),
            CoreError::Schema(msg) => write!(f, "schema error: {msg}"),
            CoreError::BudgetExhausted { visited } => {
                write!(f, "search budget exhausted after visiting {visited} states")
            }
            CoreError::Observation(msg) => {
                write!(f, "plan observation failed: {msg}")
            }
            CoreError::InvalidFaultSite { node, detail } => {
                write!(f, "invalid fault-injection site at node {node}: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::MissingProvider {
            node: NodeId(3),
            port: 1,
        };
        let s = e.to_string();
        assert!(s.contains("port 1"), "{s}");
        assert!(s.contains("no data provider"), "{s}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CoreError::NoSourceOrTarget, CoreError::NoSourceOrTarget);
        assert_ne!(
            CoreError::UnknownNode(NodeId(1)),
            CoreError::UnknownNode(NodeId(2))
        );
    }
}
