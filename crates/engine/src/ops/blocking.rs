//! Blocking operators: primary-key check, duplicate elimination, group-by
//! aggregation.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::Attr;
use etlopt_core::semantics::{AggFunc, Aggregation};

use crate::error::{EngineError, Result};
use crate::ops::tuple_key;
use crate::table::{Row, Table};

/// `PK(key)`: keep the first row per key, drop later violators.
pub fn pk_check(key: &[Attr], input: &Table) -> Result<Table> {
    let cols: Vec<usize> = key.iter().map(|a| input.col(a)).collect::<Result<_>>()?;
    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut out = Table::empty(input.schema().clone());
    for row in input.rows() {
        let k = tuple_key(cols.iter().map(|&i| &row[i]));
        if let Entry::Vacant(e) = seen.entry(k) {
            e.insert(());
            out.push(row.clone())?;
        }
    }
    Ok(out)
}

/// `DD()`: whole-row duplicate elimination, keeping first occurrences.
pub fn dedup(input: &Table) -> Result<Table> {
    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut out = Table::empty(input.schema().clone());
    for row in input.rows() {
        let k = tuple_key(row.iter());
        if let Entry::Vacant(e) = seen.entry(k) {
            e.insert(());
            out.push(row.clone())?;
        }
    }
    Ok(out)
}

/// `γ(group_by; aggregates)`: output schema is groupers then aggregate
/// outputs, groups emitted in first-appearance order (deterministic).
/// Deliberately naive — a string key per row, every group's rows collected,
/// one pass over them per aggregate: the streaming executors aggregate
/// with `exec::keyed::GroupBy` and are compared against this.
pub fn aggregate(agg: &Aggregation, input: &Table) -> Result<Table> {
    let group_cols: Vec<usize> = agg
        .group_by
        .iter()
        .map(|a| input.col(a))
        .collect::<Result<_>>()?;
    let agg_cols: Vec<usize> = agg
        .aggregates
        .iter()
        .map(|s| input.col(&s.input))
        .collect::<Result<_>>()?;
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<&Row>> = HashMap::new();
    for row in input.rows() {
        let k = tuple_key(group_cols.iter().map(|&i| &row[i]));
        if !groups.contains_key(&k) {
            order.push(k.clone());
        }
        groups.entry(k).or_default().push(row);
    }
    let outputs = agg.aggregates.iter().map(|s| &s.output);
    let mut out = Table::empty(agg.group_by.iter().chain(outputs).cloned().collect());
    for k in &order {
        let rows = &groups[k];
        let mut row: Row = group_cols.iter().map(|&i| rows[0][i].clone()).collect();
        for (spec, &col) in agg.aggregates.iter().zip(&agg_cols) {
            let values = rows.iter().map(|r| &r[col]).filter(|v| !v.is_null());
            row.push(fold(spec.func, &values.collect::<Vec<_>>())?);
        }
        out.push(row)?;
    }
    Ok(out)
}

/// One aggregate over a group's non-NULL values, in row order. No values:
/// NULL (`COUNT`: 0).
fn fold(func: AggFunc, values: &[&Scalar]) -> Result<Scalar> {
    let sum = || {
        values.iter().try_fold(0.0, |sum, v| match v.as_f64() {
            Some(x) => Ok(sum + x),
            None => Err(EngineError::Type(format!(
                "cannot aggregate non-numeric value {v}"
            ))),
        })
    };
    let extreme = |wins: Ordering| {
        let mut best: Option<&Scalar> = None;
        for &v in values {
            if best.is_none_or(|b| v.total_cmp(b) == wins) {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Scalar::Null)
    };
    Ok(match func {
        AggFunc::Count => Scalar::Int(values.len() as i64),
        AggFunc::Sum | AggFunc::Avg if values.is_empty() => Scalar::Null,
        AggFunc::Sum => Scalar::Float(sum()?),
        AggFunc::Avg => Scalar::Float(sum()? / values.len() as f64),
        AggFunc::Min => extreme(Ordering::Less),
        AggFunc::Max => extreme(Ordering::Greater),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::schema::Schema;
    use etlopt_core::semantics::AggSpec;

    fn sample() -> Table {
        Table::from_rows(
            Schema::of(["k", "v"]),
            vec![
                vec![1.into(), 10.into()],
                vec![2.into(), 20.into()],
                vec![1.into(), 30.into()],
                vec![1.into(), Scalar::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn pk_check_keeps_first_per_key() {
        let out = pk_check(&[Attr::new("k")], &sample()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][1], Scalar::Int(10));
    }

    #[test]
    fn dedup_whole_rows() {
        let t = Table::from_rows(
            Schema::of(["a"]),
            vec![vec![1.into()], vec![1.into()], vec![2.into()]],
        )
        .unwrap();
        assert_eq!(dedup(&t).unwrap().len(), 2);
    }

    #[test]
    fn sum_ignores_nulls() {
        let agg = Aggregation::sum(["k"], "v", "total");
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k", "total"]));
        assert_eq!(out.len(), 2);
        // Group k=1: 10 + 30 (NULL ignored).
        assert_eq!(out.rows()[0], vec![Scalar::Int(1), Scalar::Float(40.0)]);
        assert_eq!(out.rows()[1], vec![Scalar::Int(2), Scalar::Float(20.0)]);
    }

    #[test]
    fn count_counts_non_nulls() {
        let agg = Aggregation::new(
            ["k"],
            vec![AggSpec {
                func: AggFunc::Count,
                input: "v".into(),
                output: "n".into(),
            }],
        );
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(out.rows()[0], vec![Scalar::Int(1), Scalar::Int(2)]);
    }

    #[test]
    fn min_max_avg() {
        let agg = Aggregation::new(
            ["k"],
            vec![
                AggSpec {
                    func: AggFunc::Min,
                    input: "v".into(),
                    output: "lo".into(),
                },
                AggSpec {
                    func: AggFunc::Max,
                    input: "v".into(),
                    output: "hi".into(),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    input: "v".into(),
                    output: "mean".into(),
                },
            ],
        );
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(
            out.rows()[0],
            vec![
                Scalar::Int(1),
                Scalar::Int(10),
                Scalar::Int(30),
                Scalar::Float(20.0)
            ]
        );
    }

    #[test]
    fn empty_group_aggregates_to_null() {
        let t =
            Table::from_rows(Schema::of(["k", "v"]), vec![vec![1.into(), Scalar::Null]]).unwrap();
        let agg = Aggregation::sum(["k"], "v", "s");
        let out = aggregate(&agg, &t).unwrap();
        assert_eq!(out.rows()[0][1], Scalar::Null);
    }

    #[test]
    fn sum_of_strings_is_a_type_error() {
        let t =
            Table::from_rows(Schema::of(["k", "v"]), vec![vec![1.into(), "oops".into()]]).unwrap();
        let agg = Aggregation::sum(["k"], "v", "s");
        assert!(matches!(
            aggregate(&agg, &t).unwrap_err(),
            EngineError::Type(_)
        ));
    }

    #[test]
    fn aggregate_reusing_input_name() {
        // SUM(v) → v, the paper's γ-SUM shape.
        let agg = Aggregation::sum(["k"], "v", "v");
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k", "v"]));
    }
}
