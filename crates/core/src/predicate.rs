//! Row-level predicates for selection activities.
//!
//! Predicates are pure data in the core crate (the optimizer only ever needs
//! the set of attributes a predicate mentions — its *functionality schema* —
//! plus structural equality for homologous-activity detection). The
//! `etlopt-engine` crate evaluates them over rows with SQL-style three-valued
//! logic.

use std::fmt;

use crate::scalar::Scalar;
use crate::schema::{Attr, Schema};

/// Comparison operator for atomic predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// SQL-ish rendering.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A boolean predicate over the attributes of a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `attr <op> constant`.
    Cmp {
        /// Left-hand attribute.
        attr: Attr,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand constant.
        value: Scalar,
    },
    /// `attr <op> attr`.
    CmpAttr {
        /// Left-hand attribute.
        left: Attr,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand attribute.
        right: Attr,
    },
    /// `attr IS NOT NULL` — the paper's `NN` activity.
    IsNotNull(Attr),
    /// `attr IS NULL`.
    IsNull(Attr),
    /// `attr IN (v1, …, vk)` — domain/value checks.
    InList {
        /// Tested attribute.
        attr: Attr,
        /// Allowed values.
        values: Vec<Scalar>,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Constant TRUE (useful for generated workloads).
    True,
}

impl Predicate {
    /// `attr = value`.
    pub fn eq(attr: impl Into<Attr>, value: impl Into<Scalar>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }
    /// `attr <> value`.
    pub fn ne(attr: impl Into<Attr>, value: impl Into<Scalar>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Ne,
            value: value.into(),
        }
    }
    /// `attr > value`.
    pub fn gt(attr: impl Into<Attr>, value: impl Into<Scalar>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Gt,
            value: value.into(),
        }
    }
    /// `attr >= value`.
    pub fn ge(attr: impl Into<Attr>, value: impl Into<Scalar>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Ge,
            value: value.into(),
        }
    }
    /// `attr < value`.
    pub fn lt(attr: impl Into<Attr>, value: impl Into<Scalar>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Lt,
            value: value.into(),
        }
    }
    /// `attr <= value`.
    pub fn le(attr: impl Into<Attr>, value: impl Into<Scalar>) -> Self {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Le,
            value: value.into(),
        }
    }
    /// `attr IS NOT NULL`.
    pub fn not_null(attr: impl Into<Attr>) -> Self {
        Predicate::IsNotNull(attr.into())
    }
    /// `attr IN (values…)`.
    pub fn in_list<I, V>(attr: impl Into<Attr>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Scalar>,
    {
        Predicate::InList {
            attr: attr.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }
    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }
    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }
    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// The attributes the predicate mentions — its functionality schema.
    pub fn referenced_attrs(&self) -> Schema {
        Schema::build(|b| {
            self.all_attrs(&mut |a| {
                b.push(a);
                true
            });
        })
    }

    /// Visit the attributes the predicate mentions, left to right, while
    /// `f` returns `true`; returns whether every visit did. Allocates
    /// nothing. An attribute mentioned twice is visited twice.
    pub fn all_attrs<F: FnMut(&Attr) -> bool>(&self, f: &mut F) -> bool {
        match self {
            Predicate::Cmp { attr, .. }
            | Predicate::IsNotNull(attr)
            | Predicate::IsNull(attr)
            | Predicate::InList { attr, .. } => f(attr),
            Predicate::CmpAttr { left, right, .. } => f(left) && f(right),
            Predicate::And(a, b) | Predicate::Or(a, b) => a.all_attrs(f) && b.all_attrs(f),
            Predicate::Not(p) => p.all_attrs(f),
            Predicate::True => true,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { attr, op, value } => write!(f, "{attr}{}{value}", op.symbol()),
            Predicate::CmpAttr { left, op, right } => write!(f, "{left}{}{right}", op.symbol()),
            Predicate::IsNotNull(a) => write!(f, "{a} IS NOT NULL"),
            Predicate::IsNull(a) => write!(f, "{a} IS NULL"),
            Predicate::InList { attr, values } => {
                write!(f, "{attr} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT {p}"),
            Predicate::True => write!(f, "TRUE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let p = Predicate::gt("euro_cost", 100.0);
        assert_eq!(
            p,
            Predicate::Cmp {
                attr: Attr::new("euro_cost"),
                op: CmpOp::Gt,
                value: Scalar::Float(100.0)
            }
        );
    }

    #[test]
    fn referenced_attrs_walks_the_tree() {
        let p = Predicate::gt("a", 1)
            .and(Predicate::not_null("b").or(Predicate::eq("c", "x")))
            .not();
        let attrs = p.referenced_attrs();
        assert_eq!(attrs, Schema::of(["a", "b", "c"]));
    }

    #[test]
    fn referenced_attrs_dedups() {
        let p = Predicate::gt("a", 1).and(Predicate::lt("a", 10));
        assert_eq!(p.referenced_attrs(), Schema::of(["a"]));
    }

    #[test]
    fn cmp_attr_mentions_both_sides() {
        let p = Predicate::CmpAttr {
            left: Attr::new("x"),
            op: CmpOp::Le,
            right: Attr::new("y"),
        };
        assert_eq!(p.referenced_attrs(), Schema::of(["x", "y"]));
    }

    #[test]
    fn true_mentions_nothing() {
        assert!(Predicate::True.referenced_attrs().is_empty());
    }

    #[test]
    fn display_is_sql_like() {
        let p = Predicate::gt("cost", 100).and(Predicate::not_null("pkey"));
        assert_eq!(p.to_string(), "(cost>100 AND pkey IS NOT NULL)");
        let q = Predicate::in_list("dept", ["a", "b"]);
        assert_eq!(q.to_string(), "dept IN ('a','b')");
    }
}
