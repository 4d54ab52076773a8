//! Search telemetry: every algorithm must emit a `SearchStats` whose books
//! balance, in one uniform schema, and the paper's `$2€` applicability
//! guard must show up as a first-class rejection counter — not a silently
//! swallowed error.

use etlopt::core::opt::SearchBudget;
use etlopt::prelude::*;
use etlopt::workload::scenarios;

/// All three algorithms on the Fig. 1 running example, one stats block each.
fn fig1_outcomes() -> Vec<etlopt::core::opt::SearchOutcome> {
    let wf = scenarios::fig1();
    let model = RowCountModel::default();
    let budget = SearchBudget::states(2_000);
    vec![
        ExhaustiveSearch::with_budget(budget)
            .run(&wf, &model)
            .unwrap(),
        HeuristicSearch::with_budget(budget)
            .run(&wf, &model)
            .unwrap(),
        HsGreedy::with_budget(budget).run(&wf, &model).unwrap(),
    ]
}

#[test]
fn stats_totals_reconcile_on_the_running_example() {
    for out in fig1_outcomes() {
        let s = &out.stats;
        assert!(
            s.reconciles(),
            "{}: generated ({}) != deduplicated ({}) + expanded ({}) + pruned ({})",
            s.algorithm,
            s.generated,
            s.deduplicated,
            s.expanded,
            s.pruned
        );
        assert!(s.generated > 0, "{}: no states generated", s.algorithm);
        assert!(
            out.visited_states as u64 <= s.generated,
            "{}: visited more states than were generated",
            s.algorithm
        );
    }
}

#[test]
fn all_algorithms_emit_the_same_stats_schema() {
    let outs = fig1_outcomes();
    assert_eq!(outs[0].stats.algorithm, "ES");
    assert_eq!(outs[1].stats.algorithm, "HS");
    assert_eq!(outs[2].stats.algorithm, "HS-Greedy");
    for out in &outs {
        let s = &out.stats;
        // One schema for every algorithm: the rejection table always has
        // the same rules in the same order, and both JSON projections
        // carry the same top-level keys regardless of which search ran.
        let pairs = s.rejections.as_pairs();
        assert_eq!(pairs.len(), 11, "{}: rejection table resized", s.algorithm);
        assert_eq!(pairs[0].0, "not_adjacent");
        for key in [
            "\"algorithm\"",
            "\"generated\"",
            "\"deduplicated\"",
            "\"expanded\"",
            "\"pruned\"",
            "\"evaluation\"",
            "\"rejections\"",
            "\"frontier_sizes\"",
        ] {
            assert!(
                s.counters_json().contains(key),
                "{}: counters_json missing {key}",
                s.algorithm
            );
            assert!(
                s.to_json().contains(key),
                "{}: to_json missing {key}",
                s.algorithm
            );
        }
        for key in ["\"memo\"", "\"phases\""] {
            assert!(
                s.to_json().contains(key),
                "{}: runtime telemetry missing {key}",
                s.algorithm
            );
            assert!(
                !s.counters_json().contains(key),
                "{}: nondeterministic {key} leaked into the deterministic projection",
                s.algorithm
            );
        }
    }
    // The frontier trajectory is algorithm-specific, but every algorithm
    // must report at least one generation.
    for out in &outs {
        assert!(
            !out.stats.frontier_sizes.is_empty(),
            "{}: no frontier sizes recorded",
            out.stats.algorithm
        );
    }
}

#[test]
fn functionality_guard_rejections_are_counted() {
    // SRC → $2€(dollar_cost → euro_cost) → σ(euro_cost ≥ 100) → DW: the
    // paper's motivating faulty pushdown. Every search explores the swap
    // of σ before $2€ and must reject it via the functionality guard —
    // the rejection has to surface in the stats, not vanish.
    let mut b = WorkflowBuilder::new();
    let src = b.source("PARTS", Schema::of(["pkey", "dollar_cost"]), 1_000.0);
    let d2e = b.unary(
        "$2E",
        UnaryOp::function("dollar2euro", ["dollar_cost"], "euro_cost"),
        src,
    );
    let sel = b.unary(
        "σ",
        UnaryOp::filter(Predicate::ge("euro_cost", 100.0)).with_selectivity(0.4),
        d2e,
    );
    b.target("DW", Schema::of(["pkey", "euro_cost"]), sel);
    let wf = b.build().unwrap();

    let model = RowCountModel::default();
    let budget = SearchBudget::states(500);
    for out in [
        ExhaustiveSearch::with_budget(budget)
            .run(&wf, &model)
            .unwrap(),
        HeuristicSearch::with_budget(budget)
            .run(&wf, &model)
            .unwrap(),
        HsGreedy::with_budget(budget).run(&wf, &model).unwrap(),
    ] {
        let s = &out.stats;
        assert!(
            s.rejections.functionality_violated > 0,
            "{}: the σ-before-$2€ swap was never counted as a \
             functionality rejection\n{}",
            s.algorithm,
            s.counters_json()
        );
        assert!(s.reconciles(), "{}: books don't balance", s.algorithm);
    }
}
