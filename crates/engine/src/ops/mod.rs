//! Physical operators: one executable implementation per activity
//! semantics variant.
//!
//! Operators are batch-at-a-time (`Table` in, `Table` out), preserve input
//! row order (which keeps keep-first semantics like the PK check
//! deterministic), and produce output columns in exactly the order the
//! core's schema derivation dictates — so engine tables always line up with
//! the optimizer's derived schemata.

mod binary;
mod blocking;
mod surrogate;
mod unary;

pub use binary::exec_binary;

use etlopt_core::semantics::UnaryOp;

use crate::catalog::Catalog;
use crate::error::Result;
use crate::functions::FunctionRegistry;
use crate::table::Table;

/// Shared execution context.
pub struct ExecCtx<'a> {
    /// Scalar function implementations.
    pub functions: &'a FunctionRegistry,
    /// Source tables and surrogate lookups.
    pub catalog: &'a Catalog,
    /// Derive surrogates deterministically from the key when the lookup
    /// table has no entry (instead of failing).
    pub auto_lookup: bool,
}

/// Execute one unary operation.
pub fn exec_unary(op: &UnaryOp, input: &Table, ctx: &ExecCtx<'_>) -> Result<Table> {
    match op {
        UnaryOp::Filter { predicate, .. } => unary::filter(predicate, input),
        UnaryOp::NotNull { attr, .. } => unary::not_null(attr, input),
        UnaryOp::Function(f) => unary::function(f, input, ctx),
        UnaryOp::ProjectOut(attrs) => unary::project_out(attrs, input),
        UnaryOp::AddField { attr, value } => unary::add_field(attr, value, input),
        UnaryOp::PkCheck { key, .. } => blocking::pk_check(key, input),
        UnaryOp::Dedup { .. } => blocking::dedup(input),
        UnaryOp::Aggregate { agg, .. } => blocking::aggregate(agg, input),
        UnaryOp::SurrogateKey {
            key,
            surrogate,
            lookup,
        } => surrogate::surrogate_key(key, surrogate, lookup, input, ctx),
    }
}

/// Execute a chain of unary operations (a merged activity), returning the
/// final table and the total number of rows processed across the links.
pub fn exec_chain(chain: &[UnaryOp], input: &Table, ctx: &ExecCtx<'_>) -> Result<(Table, u64)> {
    let mut cur = input.clone();
    let mut processed = 0u64;
    for op in chain {
        processed += cur.len() as u64;
        cur = exec_unary(op, &cur, ctx)?;
    }
    Ok((cur, processed))
}

/// Canonical key string for a tuple of values (grouping, dedup, join and
/// bag arithmetic of the materializing reference only — private to `ops`;
/// the streaming executor keys on `exec::keyed`'s typed bytes, which have
/// these strings' equivalence classes). The unit separator keeps composite
/// keys unambiguous.
fn tuple_key<'a>(values: impl Iterator<Item = &'a etlopt_core::scalar::Scalar>) -> String {
    let mut out = String::new();
    for v in values {
        crate::catalog::write_canonical_key(&mut out, v);
        out.push('\u{1f}');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::predicate::Predicate;
    use etlopt_core::schema::Schema;

    fn ctx_fixture() -> (FunctionRegistry, Catalog) {
        (FunctionRegistry::builtin(), Catalog::new())
    }

    #[test]
    fn chain_counts_processed_rows_per_link() {
        let (f, c) = ctx_fixture();
        let ctx = ExecCtx {
            functions: &f,
            catalog: &c,
            auto_lookup: true,
        };
        let t =
            Table::from_rows(Schema::of(["v"]), (0..10).map(|i| vec![i.into()]).collect()).unwrap();
        // σ(v>=5) keeps 5 rows, then σ(v>=8) keeps 2.
        let chain = vec![
            UnaryOp::filter(Predicate::ge("v", 5)),
            UnaryOp::filter(Predicate::ge("v", 8)),
        ];
        let (out, processed) = exec_chain(&chain, &t, &ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(processed, 10 + 5);
    }

    /// The key bytes are load-bearing: they key the reference's join /
    /// group / dedup maps, define the equivalence classes `exec::keyed`
    /// must reproduce, and seed `auto_surrogate`. Pinned per `Scalar`
    /// variant.
    #[test]
    fn key_bytes_are_pinned_for_every_scalar_variant() {
        use crate::catalog::{auto_surrogate, canonical_key};
        use etlopt_core::scalar::Scalar;
        let cases: [(Scalar, &str); 13] = [
            (Scalar::Null, "Null"),
            (Scalar::Int(5), "i:5"),
            (Scalar::Int(-7), "i:-7"),
            (Scalar::Float(5.0), "i:5"),
            (Scalar::Float(-0.0), "i:0"),
            (Scalar::Float(2.5), "Float(2.5)"),
            (Scalar::Float(f64::NAN), "Float(NaN)"),
            (Scalar::Float(f64::INFINITY), "Float(inf)"),
            (Scalar::Float(1e300), "i:9223372036854775807"),
            (Scalar::Str("a\u{1f}b".into()), "Str(\"a\\u{1f}b\")"),
            (Scalar::Str(String::new()), "Str(\"\")"),
            (Scalar::Bool(true), "Bool(true)"),
            (Scalar::Date(-3), "Date(-3)"),
        ];
        for (value, expected) in &cases {
            assert_eq!(canonical_key(value), *expected, "{value:?}");
            assert_eq!(
                tuple_key(std::iter::once(value)),
                format!("{expected}\u{1f}"),
                "{value:?}"
            );
        }
        let whole: String = cases.iter().map(|(_, e)| format!("{e}\u{1f}")).collect();
        assert_eq!(tuple_key(cases.iter().map(|(v, _)| v)), whole);
        assert_eq!(
            auto_surrogate(&Scalar::Float(5.0)),
            Scalar::Int(1_550_680_885_121_691_614)
        );
    }

    #[test]
    fn tuple_key_distinguishes_boundaries() {
        use etlopt_core::scalar::Scalar;
        let a = [Scalar::from("ab"), Scalar::from("c")];
        let b = [Scalar::from("a"), Scalar::from("bc")];
        assert_ne!(tuple_key(a.iter()), tuple_key(b.iter()));
    }
}
