//! Predicate evaluation with SQL-style three-valued logic.

use std::cmp::Ordering;

use etlopt_core::predicate::{CmpOp, Predicate};
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::Attr;

use crate::error::Result;
use crate::table::{Row, Table};

/// Three-valued logic truth value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// NULL was involved.
    Unknown,
}

impl Truth {
    pub(crate) fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    pub(crate) fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    pub(crate) fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// WHERE-clause semantics: only TRUE passes.
    pub fn passes(self) -> bool {
        self == Truth::True
    }
}

pub(crate) fn compare(op: CmpOp, left: &Scalar, right: &Scalar) -> Truth {
    match left.compare(right) {
        None => Truth::Unknown,
        Some(ord) => {
            let holds = match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            };
            if holds {
                Truth::True
            } else {
                Truth::False
            }
        }
    }
}

/// Evaluate a predicate over one row of a table.
pub fn eval(pred: &Predicate, table: &Table, row: &Row) -> Result<Truth> {
    let get = |attr: &Attr| table.value(row, attr);
    Ok(match pred {
        Predicate::Cmp { attr, op, value } => compare(*op, get(attr)?, value),
        Predicate::CmpAttr { left, op, right } => compare(*op, get(left)?, get(right)?),
        Predicate::IsNotNull(attr) => {
            if get(attr)?.is_null() {
                Truth::False
            } else {
                Truth::True
            }
        }
        Predicate::IsNull(attr) => {
            if get(attr)?.is_null() {
                Truth::True
            } else {
                Truth::False
            }
        }
        Predicate::InList { attr, values } => {
            let v = get(attr)?;
            if v.is_null() {
                Truth::Unknown
            } else if values.iter().any(|x| v.compare(x) == Some(Ordering::Equal)) {
                Truth::True
            } else if values.iter().any(Scalar::is_null) {
                Truth::Unknown
            } else {
                Truth::False
            }
        }
        Predicate::And(a, b) => eval(a, table, row)?.and(eval(b, table, row)?),
        Predicate::Or(a, b) => eval(a, table, row)?.or(eval(b, table, row)?),
        Predicate::Not(p) => eval(p, table, row)?.not(),
        Predicate::True => Truth::True,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::schema::Schema;

    fn table() -> Table {
        Table::from_rows(
            Schema::of(["a", "b"]),
            vec![vec![Scalar::Int(5), Scalar::Null]],
        )
        .unwrap()
    }

    fn row_eval(p: &Predicate) -> Truth {
        let t = table();
        let row = t.rows()[0].clone();
        eval(p, &t, &row).unwrap()
    }

    #[test]
    fn comparisons() {
        assert!(row_eval(&Predicate::gt("a", 4)).passes());
        assert!(!row_eval(&Predicate::gt("a", 5)).passes());
        assert!(row_eval(&Predicate::ge("a", 5)).passes());
        assert!(row_eval(&Predicate::ne("a", 4)).passes());
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(row_eval(&Predicate::gt("b", 1)), Truth::Unknown);
        assert_eq!(row_eval(&Predicate::eq("b", 1)), Truth::Unknown);
        // NOT UNKNOWN is still UNKNOWN — row does not pass.
        assert_eq!(row_eval(&Predicate::eq("b", 1).not()), Truth::Unknown);
    }

    #[test]
    fn null_tests() {
        assert!(row_eval(&Predicate::IsNull(etlopt_core::schema::Attr::new("b"))).passes());
        assert!(row_eval(&Predicate::not_null("a")).passes());
        assert!(!row_eval(&Predicate::not_null("b")).passes());
    }

    #[test]
    fn three_valued_connectives() {
        // FALSE AND UNKNOWN = FALSE.
        let p = Predicate::gt("a", 99).and(Predicate::gt("b", 1));
        assert_eq!(row_eval(&p), Truth::False);
        // TRUE OR UNKNOWN = TRUE.
        let p = Predicate::gt("a", 1).or(Predicate::gt("b", 1));
        assert_eq!(row_eval(&p), Truth::True);
        // TRUE AND UNKNOWN = UNKNOWN.
        let p = Predicate::gt("a", 1).and(Predicate::gt("b", 1));
        assert_eq!(row_eval(&p), Truth::Unknown);
    }

    #[test]
    fn in_list_semantics() {
        assert!(row_eval(&Predicate::in_list("a", [4, 5])).passes());
        assert!(!row_eval(&Predicate::in_list("a", [1, 2])).passes());
        // NULL IN (…) is UNKNOWN.
        assert_eq!(row_eval(&Predicate::in_list("b", [1])), Truth::Unknown);
        // 5 IN (1, NULL) is UNKNOWN, not FALSE.
        let p = Predicate::InList {
            attr: "a".into(),
            values: vec![Scalar::Int(1), Scalar::Null],
        };
        assert_eq!(row_eval(&p), Truth::Unknown);
    }

    #[test]
    fn cross_type_comparison_is_unknown() {
        let t = Table::from_rows(Schema::of(["a"]), vec![vec![Scalar::from("text")]]).unwrap();
        let row = t.rows()[0].clone();
        assert_eq!(
            eval(&Predicate::gt("a", 1), &t, &row).unwrap(),
            Truth::Unknown
        );
    }
}
