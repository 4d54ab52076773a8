//! The paper's processed-rows cost model.
//!
//! "We have used a simple cost model taking into consideration only the
//! number of processed rows based on simple formulae [15] and assigned
//! selectivities for the involved activities" (§4.2). The formulas follow
//! the Fig. 4 example: `n` for a scan-shaped operator (selection, not-null,
//! function application), `n·log₂n` for sort/lookup-shaped ones (surrogate
//! key, aggregation, duplicate elimination), and configurable pricing for
//! binary operators (Fig. 4 ignores the cost of union).

use crate::cost::CostModel;
use crate::semantics::{BinaryOp, UnaryOp};

/// `n·log₂n` with a floor so tiny inputs never price at zero or negative.
pub(crate) fn nlogn(n: f64) -> f64 {
    if n <= 1.0 {
        n
    } else {
        n * n.log2()
    }
}

/// The paper's row-count model.
#[derive(Debug, Clone, Copy)]
pub struct RowCountModel {
    /// Price union as free, as the Fig. 4 arithmetic does. When `false`,
    /// union costs `n₁ + n₂`.
    pub union_free: bool,
    /// Cost per row written into a recordset mid-flow (0 = pure logical
    /// model; the paper's setting, where I/O minimization "is not the
    /// primary problem").
    pub materialization_cost_per_row: f64,
}

impl Default for RowCountModel {
    fn default() -> Self {
        RowCountModel {
            union_free: true,
            materialization_cost_per_row: 0.0,
        }
    }
}

impl CostModel for RowCountModel {
    fn name(&self) -> &str {
        "row-count"
    }

    fn unary_cost(&self, op: &UnaryOp, n: f64) -> f64 {
        match op {
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::Function(_)
            | UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. } => n,
            UnaryOp::SurrogateKey { .. }
            | UnaryOp::Aggregate { .. }
            | UnaryOp::Dedup { .. }
            | UnaryOp::PkCheck { .. } => nlogn(n),
        }
    }

    fn binary_cost(&self, op: &BinaryOp, l: f64, r: f64) -> f64 {
        match op {
            BinaryOp::Union => {
                if self.union_free {
                    0.0
                } else {
                    l + r
                }
            }
            // Sort-merge shape for the comparing operators.
            BinaryOp::Join(_) | BinaryOp::Difference | BinaryOp::Intersection => {
                nlogn(l) + nlogn(r)
            }
        }
    }
}

/// A strictly linear model (every operator costs `n`, unions cost
/// `n₁ + n₂`). Used by ablation benches to show the optimizer's ranking is
/// not an artifact of the `n·log₂n` terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearModel;

impl CostModel for LinearModel {
    fn name(&self) -> &str {
        "linear"
    }

    fn unary_cost(&self, _: &UnaryOp, n: f64) -> f64 {
        n
    }

    fn binary_cost(&self, _: &BinaryOp, l: f64, r: f64) -> f64 {
        l + r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{binary, unary, Activity, ActivityId, Op};
    use crate::predicate::Predicate;
    use crate::semantics::Aggregation;

    fn act(op: UnaryOp) -> Activity {
        unary(1, "a", op)
    }

    #[test]
    fn scan_shaped_ops_cost_n() {
        let m = RowCountModel::default();
        assert_eq!(
            m.activity_cost(&act(UnaryOp::filter(Predicate::True)), &[8.0]),
            8.0
        );
        assert_eq!(m.activity_cost(&act(UnaryOp::not_null("a")), &[8.0]), 8.0);
        assert_eq!(
            m.activity_cost(&act(UnaryOp::function("f", ["a"], "b")), &[8.0]),
            8.0
        );
    }

    #[test]
    fn sort_shaped_ops_cost_nlogn() {
        let m = RowCountModel::default();
        // The Fig. 4 arithmetic: SK over 8 rows costs 8·log₂8 = 24.
        assert_eq!(
            m.activity_cost(&act(UnaryOp::surrogate_key("k", "s", "L")), &[8.0]),
            24.0
        );
        assert_eq!(
            m.activity_cost(
                &act(UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v"))),
                &[8.0]
            ),
            24.0
        );
    }

    #[test]
    fn tiny_inputs_never_price_at_zero() {
        let m = RowCountModel::default();
        let sk = act(UnaryOp::surrogate_key("k", "s", "L"));
        assert_eq!(m.activity_cost(&sk, &[1.0]), 1.0);
        assert_eq!(m.activity_cost(&sk, &[0.0]), 0.0);
        assert!(m.activity_cost(&sk, &[1.5]) > 0.0);
    }

    #[test]
    fn union_pricing_is_configurable() {
        let u = binary(1, "U", BinaryOp::Union);
        let free = RowCountModel::default();
        assert_eq!(free.activity_cost(&u, &[8.0, 8.0]), 0.0);
        let paid = RowCountModel {
            union_free: false,
            ..RowCountModel::default()
        };
        assert_eq!(paid.activity_cost(&u, &[8.0, 8.0]), 16.0);
    }

    #[test]
    fn merged_chain_prices_each_link_on_shrinking_flow() {
        let m = RowCountModel::default();
        let merged = Activity::new(
            ActivityId::Base(1),
            "m",
            Op::Merged(vec![
                UnaryOp::filter(Predicate::True).with_selectivity(0.5),
                UnaryOp::surrogate_key("k", "s", "L"),
            ]),
        );
        // σ over 8 rows (8) + SK over 4 rows (4·log₂4 = 8) = 16.
        assert_eq!(m.activity_cost(&merged, &[8.0]), 16.0);
    }

    #[test]
    fn linear_model_prices_everything_linearly() {
        let m = LinearModel;
        assert_eq!(
            m.activity_cost(&act(UnaryOp::surrogate_key("k", "s", "L")), &[8.0]),
            8.0
        );
        assert_eq!(
            m.activity_cost(&binary(1, "U", BinaryOp::Union), &[3.0, 4.0]),
            7.0
        );
    }

    /// The Fig. 4 example, paper arithmetic. Two converging flows of n = 8
    /// rows each; σ has selectivity 50 %; SK costs n·log₂n, σ costs n, union
    /// is free. The paper reports c1 = 2n·log₂n + n = 56,
    /// c2 = 2(n + (n/2)·log₂(n/2)) = 32, c3 = 2n + (n/2)·log₂(n/2) = 24.
    /// We assert the paper's own formulas verbatim…
    #[test]
    fn fig4_paper_formulas() {
        let n: f64 = 8.0;
        let c1 = 2.0 * n * n.log2() + n;
        let c2 = 2.0 * (n + (n / 2.0) * (n / 2.0).log2());
        let c3 = 2.0 * n + (n / 2.0) * (n / 2.0).log2();
        assert_eq!(c1, 56.0);
        assert_eq!(c2, 32.0);
        assert_eq!(c3, 24.0);
        assert!(
            c2 < c1 && c3 < c1,
            "DIS and FAC both beat the original state"
        );
    }

    /// …and the same three shapes priced mechanically by the model. Our
    /// price for the original state differs from the paper's c1 (the σ after
    /// the union processes 2n rows, which the paper's formula counts as n),
    /// but the paper's qualitative claim — both Distribute and Factorize
    /// reduce the cost — holds.
    #[test]
    fn fig4_model_pricing_preserves_the_ordering() {
        let m = RowCountModel::default();
        let n = 8.0;
        let sk = act(UnaryOp::surrogate_key("k", "s", "L"));
        let sel = act(UnaryOp::filter(Predicate::True).with_selectivity(0.5));
        // Case 1 (original): SK per branch, union, σ on the merged flow.
        let c1 = 2.0 * m.activity_cost(&sk, &[n]) + m.activity_cost(&sel, &[2.0 * n]);
        // Case 2 (distribute σ): σ per branch, SK per halved branch, union.
        let c2 = 2.0 * (m.activity_cost(&sel, &[n]) + m.activity_cost(&sk, &[n / 2.0]));
        // Case 3 (factorize SK): σ per branch, union, SK on the merged flow.
        let c3 = 2.0 * m.activity_cost(&sel, &[n]) + m.activity_cost(&sk, &[n]);
        assert_eq!(c1, 64.0);
        assert_eq!(c2, 32.0);
        assert_eq!(c3, 40.0);
        assert!(c2 < c1 && c3 < c1);
    }
}
