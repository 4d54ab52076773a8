//! Search determinism: every algorithm's outcome (best cost, improvement,
//! best-state signature, visited states and the deterministic counters) is
//! a function of the workflow, the model and the budget — two runs of the
//! same search are byte-identical — and a binding state budget stops the
//! work within one expansion window.

use etlopt::core::opt::{SearchBudget, EXPAND_WINDOW};
use etlopt::prelude::*;
use etlopt::workload::{Generator, GeneratorConfig, SizeCategory};

/// Assert two outcomes are indistinguishable to a caller.
fn assert_same_outcome(label: &str, a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(
        a.best_cost.to_bits(),
        b.best_cost.to_bits(),
        "{label}: best_cost diverged ({} vs {})",
        a.best_cost,
        b.best_cost
    );
    assert_eq!(
        a.improvement_pct().to_bits(),
        b.improvement_pct().to_bits(),
        "{label}: improvement diverged"
    );
    assert_eq!(
        a.best.signature(),
        b.best.signature(),
        "{label}: best-state signature diverged"
    );
    assert_eq!(
        a.visited_states, b.visited_states,
        "{label}: visited-state accounting diverged"
    );
    // The deterministic projection of the search telemetry — every counter
    // except wall-clock timings and memo hit/miss counts — must be
    // byte-identical.
    assert_eq!(
        a.stats.counters_json(),
        b.stats.counters_json(),
        "{label}: trace counters diverged"
    );
    assert!(
        a.stats.reconciles() && b.stats.reconciles(),
        "{label}: generated != deduplicated + expanded + pruned\n{}\n{}",
        a.stats.counters_json(),
        b.stats.counters_json()
    );
}

fn scenarios() -> Vec<(String, etlopt::core::workflow::Workflow)> {
    let mut out = Vec::new();
    for seed in [3u64, 11, 27] {
        for category in [SizeCategory::Small, SizeCategory::Medium] {
            let s = Generator::generate(GeneratorConfig { seed, category });
            out.push((format!("{} (seed {seed})", s.name), s.workflow));
        }
    }
    out
}

#[test]
fn es_is_repeatable_on_generated_workloads() {
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        let run = || {
            ExhaustiveSearch::with_budget(SearchBudget::states(1_500))
                .run(&wf, &model)
                .unwrap()
        };
        assert_same_outcome(&format!("ES on {name}"), &run(), &run());
    }
}

#[test]
fn hs_is_repeatable_on_generated_workloads() {
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        let run = || {
            HeuristicSearch::with_budget(SearchBudget::states(4_000))
                .run(&wf, &model)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_same_outcome(&format!("HS on {name}"), &a, &b);
        assert_eq!(a.phase_stats, b.phase_stats, "HS phases on {name}");
    }
}

#[test]
fn greedy_is_repeatable_on_generated_workloads() {
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        let run = || {
            HsGreedy::with_budget(SearchBudget::states(4_000))
                .run(&wf, &model)
                .unwrap()
        };
        assert_same_outcome(&format!("HS-Greedy on {name}"), &run(), &run());
    }
}

#[test]
fn beam_is_repeatable_on_generated_workloads() {
    // Beam adds a deterministic truncation step on top of the ES expansion
    // loop; the contract is the same — and must hold at every width,
    // including widths small enough to actually truncate.
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        for width in [2usize, 64] {
            let run = || {
                BeamSearch::with_budget(SearchBudget::states(1_500))
                    .with_width(width)
                    .run(&wf, &model)
                    .unwrap()
            };
            assert_same_outcome(&format!("Beam w={width} on {name}"), &run(), &run());
        }
    }
}

#[test]
fn a_binding_state_budget_stops_expansion_within_one_window() {
    // ES and beam expand a generation window by window and stop at the
    // first merge that fills the budget. What they evaluate past the cap
    // (`generated − deduplicated − visited_states`: priced successors that
    // were neither known nor admitted) is therefore at most one window of
    // move lists — before, it was the whole rest of the last generation,
    // thousands of states on a medium workflow.
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        for cap in [1usize, 2, 3, 7, 19, 100, 400] {
            let budget = SearchBudget::states(cap);
            let outcomes = [
                ExhaustiveSearch::with_budget(budget)
                    .run(&wf, &model)
                    .unwrap(),
                BeamSearch::with_budget(budget).run(&wf, &model).unwrap(),
            ];
            for out in &outcomes {
                let label = format!("{} cap {cap} on {name}", out.stats.algorithm);
                assert!(out.visited_states <= cap, "{label}: overshot the budget");
                // A state has at most one SWA per unary activity and a FAC
                // plus a DIS per binary one; only DIS adds an activity, so
                // `g` generations deep there are at most `g` more of them.
                let widest = 2 * (wf.activity_count() + out.stats.frontier_sizes.len());
                let overhang =
                    out.stats.generated - out.stats.deduplicated - out.visited_states as u64;
                assert!(
                    overhang <= (EXPAND_WINDOW * widest) as u64,
                    "{label}: {overhang} states evaluated past the cap, window \
                     {EXPAND_WINDOW} × move lists of at most {widest}\n{}",
                    out.stats.counters_json()
                );
            }
        }
    }
}

#[test]
fn known_and_cap_pruned_candidates_interleave_identically_run_to_run() {
    // A candidate the search already holds is recognised by its fingerprint
    // in the batch's build phase and never priced; one past the cap is
    // priced and never admitted. Under a budget that binds mid-batch both
    // kinds fall into the same batches, and the counters they land in must
    // come out the same on every run.
    let model = RowCountModel::default();
    let wf = Generator::generate(GeneratorConfig {
        seed: 11,
        category: SizeCategory::Medium,
    })
    .workflow;
    for cap in [60usize, 150, 300] {
        let run = || -> [SearchOutcome; 2] {
            let budget = SearchBudget::states(cap);
            [
                HeuristicSearch::with_budget(budget)
                    .run(&wf, &model)
                    .unwrap(),
                BeamSearch::with_budget(budget).run(&wf, &model).unwrap(),
            ]
        };
        for (a, b) in run().iter().zip(&run()) {
            let label = format!("{} cap {cap}", a.stats.algorithm);
            assert!(a.budget_exhausted, "{label}: the budget must bind");
            assert!(a.stats.deduplicated > 0, "{label}: no known candidate");
            assert!(a.stats.pruned > 0, "{label}: no cap-pruned candidate");
            assert_same_outcome(&label, a, b);
        }
    }
}
