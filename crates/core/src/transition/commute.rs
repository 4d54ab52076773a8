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

use std::fmt;

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
    let mut why = String::new();
    if judge(a, b, Some(&mut why)) {
        Verdict::Commutes
    } else {
        Verdict::Blocked(why)
    }
}

/// Commutation for whole activities (merged chains commute iff every link
/// of one commutes with every link of the other).
pub fn chains_commute(a: &[UnaryOp], b: &[UnaryOp]) -> Verdict {
    let mut why = String::new();
    if judge_chains(a, b, Some(&mut why)) {
        Verdict::Commutes
    } else {
        Verdict::Blocked(why)
    }
}

/// [`chains_commute`]'s verdict, allocating nothing: a search asks this of
/// every swap it enumerates, and counts a refusal without reading why.
pub(crate) fn chains_commute_ok(a: &[UnaryOp], b: &[UnaryOp]) -> bool {
    judge_chains(a, b, None)
}

/// [`chains_commute`]'s reason for a blocked pair, written to `why`.
pub(crate) fn write_blocked(a: &[UnaryOp], b: &[UnaryOp], why: &mut dyn fmt::Write) {
    judge_chains(a, b, Some(why));
}

/// The chain rule: the first blocked pair of links, in order, decides.
fn judge_chains<'w>(
    a: &[UnaryOp],
    b: &[UnaryOp],
    mut why: Option<&mut (dyn fmt::Write + 'w)>,
) -> bool {
    for x in a {
        for y in b {
            if !judge(x, y, why.as_deref_mut()) {
                return false;
            }
        }
    }
    true
}

/// Refuse the pair: write the reason to `why` when the caller wants it,
/// and return `false`.
macro_rules! blocked {
    ($why:expr, $($fmt:tt)*) => {{
        if let Some(w) = $why {
            // A failed write only loses the reason's text, never the verdict.
            let _ = write!(w, $($fmt)*);
        }
        return false
    }};
}

/// The rules, once: `true` when `a` and `b` commute, else `false` with
/// the reason written to `why` (when given). Allocates nothing unless it
/// writes a reason.
fn judge<'w>(a: &UnaryOp, b: &UnaryOp, why: Option<&mut (dyn fmt::Write + 'w)>) -> bool {
    if a.is_row_wise() && b.is_row_wise() {
        return true;
    }
    if !a.is_row_wise() && !b.is_row_wise() {
        blocked!(
            why,
            "{} and {} are both blocking operators",
            a.op_name(),
            b.op_name()
        );
    }
    // Exactly one side is blocking; orient the query.
    let (blocking, row_wise) = if a.is_row_wise() { (b, a) } else { (a, b) };
    match blocking {
        UnaryOp::Aggregate { agg, .. } => match row_wise {
            UnaryOp::Filter { predicate, .. } => {
                if !predicate.all_attrs(&mut |x| agg.group_by.contains(x)) {
                    blocked!(
                        why,
                        "filter over {} touches non-grouping attributes of the aggregation",
                        predicate.referenced_attrs()
                    );
                }
                true
            }
            UnaryOp::NotNull { attr, .. } => {
                if !agg.group_by.contains(attr) {
                    blocked!(
                        why,
                        "NN({attr}) touches a non-grouping attribute of the aggregation"
                    );
                }
                true
            }
            UnaryOp::Function(f) => {
                let touches_groupers_only = f
                    .inputs
                    .iter()
                    .chain(std::iter::once(&f.output))
                    .all(|x| agg.group_by.contains(x));
                if !touches_groupers_only {
                    blocked!(why, "function {} touches aggregated attributes", f.function);
                }
                if !f.injective {
                    blocked!(
                        why,
                        "function {} is not injective: it may collapse groups",
                        f.function
                    );
                }
                // The paper's A2E case: an injective transform of a
                // grouper neither merges nor splits groups.
                true
            }
            UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::Aggregate { .. } => blocked!(
                why,
                "{} does not commute with an aggregation",
                row_wise.op_name()
            ),
        },
        UnaryOp::Dedup { .. } => match row_wise {
            UnaryOp::Filter { .. } | UnaryOp::NotNull { .. } => true,
            UnaryOp::Function(f) if f.injective && f.keep_inputs => true,
            UnaryOp::Function(_)
            | UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::Aggregate { .. } => blocked!(
                why,
                "{} may change row identity across a whole-row dedup",
                row_wise.op_name()
            ),
        },
        UnaryOp::PkCheck { key, .. } => match row_wise {
            UnaryOp::Filter { predicate, .. } => {
                if !predicate.all_attrs(&mut |x| key.contains(x)) {
                    blocked!(
                        why,
                        "filter over non-key attributes may change which duplicate survives"
                    );
                }
                true
            }
            UnaryOp::NotNull { attr, .. } => {
                if !key.contains(attr) {
                    blocked!(
                        why,
                        "NN over a non-key attribute may change which duplicate survives"
                    );
                }
                true
            }
            UnaryOp::Function(f) => {
                let disjoint =
                    f.inputs.iter().all(|x| !key.contains(x)) && !key.contains(&f.output);
                if !disjoint && !f.injective {
                    blocked!(
                        why,
                        "non-injective function {} rewrites key attributes",
                        f.function
                    );
                }
                true
            }
            UnaryOp::AddField { attr, .. } => {
                if key.contains(attr) {
                    blocked!(why, "ADD overwrites a key attribute");
                }
                true
            }
            UnaryOp::ProjectOut(attrs) => {
                if attrs.iter().any(|x| key.contains(x)) {
                    blocked!(why, "projection drops a key attribute");
                }
                true
            }
            UnaryOp::SurrogateKey { .. }
            | UnaryOp::PkCheck { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::Aggregate { .. } => blocked!(
                why,
                "{} does not commute with a PK check",
                row_wise.op_name()
            ),
        },
        UnaryOp::Filter { .. }
        | UnaryOp::NotNull { .. }
        | UnaryOp::Function(_)
        | UnaryOp::ProjectOut(_)
        | UnaryOp::AddField { .. }
        | UnaryOp::SurrogateKey { .. } => {
            blocked!(why, "unhandled blocking operator {}", blocking.op_name())
        }
    }
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
