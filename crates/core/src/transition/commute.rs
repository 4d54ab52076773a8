//! Semantic commutation rules for pairs of unary operations.
//!
//! The paper's swap conditions 3 and 4 are *schema-level*: they reject
//! swaps that would leave an activity without the attributes it needs (the
//! `$2€`/`σ(€)` case of Fig. 5, the projected-out case of Fig. 6). They
//! rely on the naming principle to make name-identity coincide with
//! semantic identity. Two residual families of pairs pass the schema tests
//! yet do not commute as *multiset* transformations, and this module rules
//! on them explicitly so that every state the optimizer produces is exactly
//! equivalent when executed by the engine:
//!
//! 1. **Blocking × blocking** — two of {aggregation, dedup, PK check} never
//!    swap (e.g. `γ∘DD ≠ DD∘γ`).
//! 2. **Blocking × row-wise** — allowed only in the cases with an exactness
//!    argument: a filter over grouping attributes commutes with `γ`; an
//!    *injective* function over grouping attributes commutes with `γ` (the
//!    paper's `A2E`-before/after-`γ` example); a filter commutes with
//!    whole-row dedup; a filter over the key commutes with a PK check; an
//!    injective (or key-disjoint) function commutes with a PK check.
//!
//! Row-wise × row-wise pairs always commute once the schema conditions
//! hold: each transforms disjoint parts of every single row.

use crate::semantics::UnaryOp;

/// The verdict of a commutation query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The pair commutes (given that the schema-level swap conditions hold).
    Commutes,
    /// The pair does not commute; the payload says why.
    Blocked(String),
}

impl Verdict {
    /// Is this a positive verdict?
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Commutes)
    }
}

/// Do two unary operations commute as multiset transformations (assuming
/// the schema-level conditions are independently verified)? The relation is
/// symmetric.
pub fn ops_commute(a: &UnaryOp, b: &UnaryOp) -> Verdict {
    if a.is_row_wise() && b.is_row_wise() {
        return Verdict::Commutes;
    }
    if !a.is_row_wise() && !b.is_row_wise() {
        return Verdict::Blocked(format!(
            "{} and {} are both blocking operators",
            a.op_name(),
            b.op_name()
        ));
    }
    // Exactly one side is blocking; orient the query.
    let (blocking, row_wise) = if a.is_row_wise() { (b, a) } else { (a, b) };
    match blocking {
        UnaryOp::Aggregate { agg, .. } => match row_wise {
            UnaryOp::Filter { predicate, .. } => {
                let fun = predicate.referenced_attrs();
                if fun.iter().all(|x| agg.group_by.contains(x)) {
                    Verdict::Commutes
                } else {
                    Verdict::Blocked(format!(
                        "filter over {fun} touches non-grouping attributes of the aggregation"
                    ))
                }
            }
            UnaryOp::NotNull { attr, .. } => {
                if agg.group_by.contains(attr) {
                    Verdict::Commutes
                } else {
                    Verdict::Blocked(format!(
                        "NN({attr}) touches a non-grouping attribute of the aggregation"
                    ))
                }
            }
            UnaryOp::Function(f) => {
                let touches_groupers_only = f
                    .inputs
                    .iter()
                    .chain(std::iter::once(&f.output))
                    .all(|x| agg.group_by.contains(x));
                if !touches_groupers_only {
                    Verdict::Blocked(format!(
                        "function {} touches aggregated attributes",
                        f.function
                    ))
                } else if !f.injective {
                    Verdict::Blocked(format!(
                        "function {} is not injective: it may collapse groups",
                        f.function
                    ))
                } else {
                    // The paper's A2E case: an injective transform of a
                    // grouper neither merges nor splits groups.
                    Verdict::Commutes
                }
            }
            UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::Aggregate { .. } => Verdict::Blocked(format!(
                "{} does not commute with an aggregation",
                row_wise.op_name()
            )),
        },
        UnaryOp::Dedup { .. } => match row_wise {
            UnaryOp::Filter { .. } | UnaryOp::NotNull { .. } => Verdict::Commutes,
            UnaryOp::Function(f) if f.injective && f.keep_inputs => Verdict::Commutes,
            UnaryOp::Function(_)
            | UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::Aggregate { .. } => Verdict::Blocked(format!(
                "{} may change row identity across a whole-row dedup",
                row_wise.op_name()
            )),
        },
        UnaryOp::PkCheck { key, .. } => match row_wise {
            UnaryOp::Filter { predicate, .. } => {
                let fun = predicate.referenced_attrs();
                if fun.iter().all(|x| key.contains(x)) {
                    Verdict::Commutes
                } else {
                    Verdict::Blocked(
                        "filter over non-key attributes may change which duplicate survives"
                            .to_owned(),
                    )
                }
            }
            UnaryOp::NotNull { attr, .. } => {
                if key.contains(attr) {
                    Verdict::Commutes
                } else {
                    Verdict::Blocked(
                        "NN over a non-key attribute may change which duplicate survives"
                            .to_owned(),
                    )
                }
            }
            UnaryOp::Function(f) => {
                let disjoint =
                    f.inputs.iter().all(|x| !key.contains(x)) && !key.contains(&f.output);
                if disjoint || f.injective {
                    Verdict::Commutes
                } else {
                    Verdict::Blocked(format!(
                        "non-injective function {} rewrites key attributes",
                        f.function
                    ))
                }
            }
            UnaryOp::AddField { attr, .. } => {
                if key.contains(attr) {
                    Verdict::Blocked("ADD overwrites a key attribute".to_owned())
                } else {
                    Verdict::Commutes
                }
            }
            UnaryOp::ProjectOut(attrs) => {
                if attrs.iter().any(|x| key.contains(x)) {
                    Verdict::Blocked("projection drops a key attribute".to_owned())
                } else {
                    Verdict::Commutes
                }
            }
            UnaryOp::SurrogateKey { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::Aggregate { .. } => Verdict::Blocked(format!(
                "{} does not commute with a PK check",
                row_wise.op_name()
            )),
        },
        UnaryOp::Filter { .. }
        | UnaryOp::NotNull { .. }
        | UnaryOp::Function(_)
        | UnaryOp::ProjectOut(_)
        | UnaryOp::AddField { .. }
        | UnaryOp::SurrogateKey { .. } => Verdict::Blocked(format!(
            "unhandled blocking operator {}",
            blocking.op_name()
        )),
    }
}

/// Commutation for whole activities (merged chains commute iff every link
/// of one commutes with every link of the other).
pub fn chains_commute(a: &[UnaryOp], b: &[UnaryOp]) -> Verdict {
    for x in a {
        for y in b {
            if let Verdict::Blocked(why) = ops_commute(x, y) {
                return Verdict::Blocked(why);
            }
        }
    }
    Verdict::Commutes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::semantics::Aggregation;

    fn agg() -> UnaryOp {
        UnaryOp::aggregate(Aggregation::sum(["pkey", "date"], "cost", "cost"))
    }

    #[test]
    fn row_wise_pairs_commute() {
        let f = UnaryOp::filter(Predicate::gt("a", 1));
        let g = UnaryOp::function("f", ["b"], "c");
        assert!(ops_commute(&f, &g).is_ok());
    }

    #[test]
    fn blocking_pairs_never_commute() {
        let d = UnaryOp::Dedup { selectivity: 1.0 };
        assert!(!ops_commute(&agg(), &d).is_ok());
        assert!(!ops_commute(&d, &d.clone()).is_ok());
    }

    #[test]
    fn filter_on_groupers_commutes_with_aggregation() {
        let f = UnaryOp::filter(Predicate::eq("pkey", 5));
        assert!(ops_commute(&f, &agg()).is_ok());
        // Symmetric.
        assert!(ops_commute(&agg(), &f).is_ok());
    }

    #[test]
    fn filter_on_aggregated_attr_is_blocked() {
        let f = UnaryOp::filter(Predicate::gt("cost", 100));
        assert!(!ops_commute(&f, &agg()).is_ok());
    }

    #[test]
    fn injective_grouper_function_commutes_with_aggregation() {
        // The paper's A2E: in-place injective transform of the DATE grouper.
        let a2e = UnaryOp::function("am2eu", ["date"], "date");
        assert!(ops_commute(&a2e, &agg()).is_ok());
    }

    #[test]
    fn noninjective_grouper_function_is_blocked() {
        let trunc = UnaryOp::function_noninjective("month_of", ["date"], "date");
        assert!(!ops_commute(&trunc, &agg()).is_ok());
    }

    #[test]
    fn function_on_aggregated_attr_is_blocked() {
        // $2€ touches the aggregated cost: may not cross the γ.
        let d2e = UnaryOp::function("dollar2euro", ["cost"], "cost");
        assert!(!ops_commute(&d2e, &agg()).is_ok());
    }

    #[test]
    fn filter_commutes_with_dedup() {
        let f = UnaryOp::filter(Predicate::gt("a", 1));
        let d = UnaryOp::Dedup { selectivity: 1.0 };
        assert!(ops_commute(&f, &d).is_ok());
    }

    #[test]
    fn function_blocked_across_dedup_unless_kept_and_injective() {
        let d = UnaryOp::Dedup { selectivity: 1.0 };
        let replacing = UnaryOp::function("f", ["a"], "b");
        assert!(!ops_commute(&replacing, &d).is_ok());
        // `UnaryOp::function` constructs the Function variant by definition;
        // the destructure only exists to flip `keep_inputs`.
        let mut keeping = match UnaryOp::function("f", ["a"], "b") {
            UnaryOp::Function(f) => f,
            _ => unreachable!("UnaryOp::function always yields UnaryOp::Function"),
        };
        keeping.keep_inputs = true;
        assert!(ops_commute(&UnaryOp::Function(keeping), &d).is_ok());
    }

    #[test]
    fn pk_check_rules() {
        let pk = UnaryOp::PkCheck {
            key: vec!["k".into()],
            selectivity: 1.0,
        };
        assert!(ops_commute(&UnaryOp::filter(Predicate::eq("k", 1)), &pk).is_ok());
        assert!(!ops_commute(&UnaryOp::filter(Predicate::eq("v", 1)), &pk).is_ok());
        assert!(ops_commute(&UnaryOp::not_null("k"), &pk).is_ok());
        assert!(!ops_commute(&UnaryOp::not_null("v"), &pk).is_ok());
        // Key-disjoint function is fine; non-injective key rewrite is not.
        assert!(ops_commute(&UnaryOp::function("f", ["v"], "w"), &pk).is_ok());
        assert!(!ops_commute(&UnaryOp::function_noninjective("f", ["k"], "k"), &pk).is_ok());
        assert!(!ops_commute(&UnaryOp::project_out(["k"]), &pk).is_ok());
        assert!(ops_commute(&UnaryOp::project_out(["v"]), &pk).is_ok());
    }

    #[test]
    fn chains_commute_requires_all_pairs() {
        let chain_a = vec![
            UnaryOp::filter(Predicate::eq("pkey", 1)),
            UnaryOp::function("f", ["pkey"], "pkey"),
        ];
        let chain_b = vec![agg()];
        assert!(chains_commute(&chain_a, &chain_b).is_ok());
        let chain_c = vec![UnaryOp::filter(Predicate::gt("cost", 1))];
        assert!(!chains_commute(&chain_c, &chain_b).is_ok());
    }
}
