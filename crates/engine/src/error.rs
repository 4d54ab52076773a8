//! Engine errors.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T, E = EngineError> = std::result::Result<T, E>;

/// Errors raised while executing a workflow over data.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A source recordset has no table in the catalog.
    MissingSource(String),
    /// A table's rows do not match its schema width.
    RowArity {
        /// Table or context name.
        context: String,
        /// Expected number of columns.
        expected: usize,
        /// Actual number of values in the offending row.
        actual: usize,
    },
    /// A referenced attribute is missing from a schema at execution time.
    MissingAttribute {
        /// The attribute.
        attr: String,
        /// Where it was looked up.
        context: String,
    },
    /// An unknown scalar function was invoked.
    UnknownFunction(String),
    /// A scalar function failed.
    FunctionFailed {
        /// Function name.
        function: String,
        /// Failure description.
        reason: String,
    },
    /// A surrogate-key lookup had no entry and auto-assignment is disabled.
    LookupMiss {
        /// Lookup table name.
        lookup: String,
        /// The key value that missed.
        key: String,
    },
    /// A type error during evaluation (e.g. SUM over strings).
    Type(String),
    /// An underlying workflow/graph error.
    Core(etlopt_core::error::CoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MissingSource(name) => {
                write!(f, "no catalog table for source recordset `{name}`")
            }
            EngineError::RowArity {
                context,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{context}: row has {actual} values, schema has {expected}"
                )
            }
            EngineError::MissingAttribute { attr, context } => {
                write!(f, "attribute `{attr}` not found in {context}")
            }
            EngineError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            EngineError::FunctionFailed { function, reason } => {
                write!(f, "function `{function}` failed: {reason}")
            }
            EngineError::LookupMiss { lookup, key } => {
                write!(f, "lookup `{lookup}` has no surrogate for key {key}")
            }
            EngineError::Type(msg) => write!(f, "type error: {msg}"),
            EngineError::Core(e) => write!(f, "workflow error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<etlopt_core::error::CoreError> for EngineError {
    fn from(e: etlopt_core::error::CoreError) -> Self {
        EngineError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EngineError::MissingSource("S".into())
            .to_string()
            .contains("`S`"));
        let e = EngineError::RowArity {
            context: "T".into(),
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("2 values"));
    }
}
