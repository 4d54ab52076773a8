//! Parallel search determinism: for every algorithm and any thread count,
//! the outcome (best cost, improvement, best-state signature) must be
//! byte-identical to the forced-sequential run. Parallelism may only change
//! wall-clock time, never the answer.

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
    // except wall-clock timings, memo hit/miss races and per-worker batch
    // splits — must be byte-identical: counters are merged in worker-index
    // order regardless of thread count.
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
fn es_parallel_matches_sequential_on_generated_workloads() {
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        let seq = ExhaustiveSearch::with_budget(SearchBudget::states(1_500).with_parallelism(1))
            .run(&wf, &model)
            .unwrap();
        let par = ExhaustiveSearch::with_budget(SearchBudget::states(1_500).with_parallelism(4))
            .run(&wf, &model)
            .unwrap();
        assert_same_outcome(&format!("ES on {name}"), &seq, &par);
    }
}

#[test]
fn hs_parallel_matches_sequential_on_generated_workloads() {
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        let seq = HeuristicSearch::with_budget(SearchBudget::states(4_000).with_parallelism(1))
            .run(&wf, &model)
            .unwrap();
        let par = HeuristicSearch::with_budget(SearchBudget::states(4_000).with_parallelism(4))
            .run(&wf, &model)
            .unwrap();
        assert_same_outcome(&format!("HS on {name}"), &seq, &par);
        assert_eq!(seq.phase_stats, par.phase_stats, "HS phases on {name}");
    }
}

#[test]
fn greedy_parallel_matches_sequential_on_generated_workloads() {
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        let seq = HsGreedy::with_budget(SearchBudget::states(4_000).with_parallelism(1))
            .run(&wf, &model)
            .unwrap();
        let par = HsGreedy::with_budget(SearchBudget::states(4_000).with_parallelism(4))
            .run(&wf, &model)
            .unwrap();
        assert_same_outcome(&format!("HS-Greedy on {name}"), &seq, &par);
    }
}

#[test]
fn beam_parallel_matches_sequential_on_generated_workloads() {
    // Beam adds a deterministic truncation step on top of the ES expansion
    // loop; the contract is the same — and must hold at every width,
    // including widths small enough to actually truncate.
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        for width in [2usize, 64] {
            let outcomes: Vec<_> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    BeamSearch::with_budget(SearchBudget::states(1_500).with_parallelism(threads))
                        .with_width(width)
                        .run(&wf, &model)
                        .unwrap()
                })
                .collect();
            for (i, par) in outcomes.iter().enumerate().skip(1) {
                assert_same_outcome(
                    &format!("Beam w={width} t={} on {name}", [1, 2, 4][i]),
                    &outcomes[0],
                    par,
                );
            }
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
    // thousands of states on a medium workflow. Where the windows fall is
    // the same at any thread count, so the counters stay byte-identical.
    let model = RowCountModel::default();
    for (name, wf) in scenarios() {
        for cap in [1usize, 2, 3, 7, 19, 100, 400] {
            let runs = |threads: usize| -> [SearchOutcome; 2] {
                let budget = SearchBudget::states(cap).with_parallelism(threads);
                [
                    ExhaustiveSearch::with_budget(budget)
                        .run(&wf, &model)
                        .unwrap(),
                    BeamSearch::with_budget(budget).run(&wf, &model).unwrap(),
                ]
            };
            let seq = runs(1);
            for out in &seq {
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
            for threads in [2usize, 4] {
                for (a, b) in seq.iter().zip(&runs(threads)) {
                    let label = format!("{} cap {cap} t={threads} on {name}", a.stats.algorithm);
                    assert_same_outcome(&label, a, b);
                }
            }
        }
    }
}

#[test]
fn default_parallelism_matches_forced_sequential() {
    // A budget nobody set a count on runs one thread (the per-window thread
    // spawning is a measured loss, see `SearchBudget::parallelism`) — and
    // its answer is the forced 1-thread run's.
    let model = RowCountModel::default();
    let s = Generator::generate(GeneratorConfig {
        seed: 42,
        category: SizeCategory::Medium,
    });
    assert_eq!(SearchBudget::states(1_500).threads(), 1);
    assert_eq!(SearchBudget::default().threads(), 1);
    let auto = ExhaustiveSearch::with_budget(SearchBudget::states(1_500))
        .run(&s.workflow, &model)
        .unwrap();
    let seq = ExhaustiveSearch::with_budget(SearchBudget::states(1_500).with_parallelism(1))
        .run(&s.workflow, &model)
        .unwrap();
    assert_same_outcome("ES default-vs-1", &auto, &seq);
}

#[test]
fn parallel_runs_are_repeatable() {
    // Two parallel runs with the same knob must agree with each other too
    // (no dependence on thread scheduling between runs).
    let model = RowCountModel::default();
    let s = Generator::generate(GeneratorConfig {
        seed: 8,
        category: SizeCategory::Medium,
    });
    let budget = SearchBudget::states(2_000).with_parallelism(4);
    let a = ExhaustiveSearch::with_budget(budget)
        .run(&s.workflow, &model)
        .unwrap();
    let b = ExhaustiveSearch::with_budget(budget)
        .run(&s.workflow, &model)
        .unwrap();
    assert_same_outcome("ES par-vs-par", &a, &b);
    let ha = HeuristicSearch::with_budget(budget)
        .run(&s.workflow, &model)
        .unwrap();
    let hb = HeuristicSearch::with_budget(budget)
        .run(&s.workflow, &model)
        .unwrap();
    assert_same_outcome("HS par-vs-par", &ha, &hb);
}

#[test]
fn known_and_cap_pruned_candidates_interleave_identically_at_any_parallelism() {
    // A candidate the search already holds is recognised by its fingerprint
    // in the workers' build phase and never priced; one past the cap is
    // priced and never admitted. Under a budget that binds mid-batch both
    // kinds fall into the same batches, and the counters they land in must
    // not depend on how many workers built the batch.
    let model = RowCountModel::default();
    let wf = Generator::generate(GeneratorConfig {
        seed: 11,
        category: SizeCategory::Medium,
    })
    .workflow;
    for cap in [60usize, 150, 300] {
        let run = |threads: usize| -> [SearchOutcome; 2] {
            let budget = SearchBudget::states(cap).with_parallelism(threads);
            [
                HeuristicSearch::with_budget(budget)
                    .run(&wf, &model)
                    .unwrap(),
                BeamSearch::with_budget(budget).run(&wf, &model).unwrap(),
            ]
        };
        let seq = run(1);
        for (a, b) in seq.iter().zip(&run(4)) {
            let label = format!("{} cap {cap}", a.stats.algorithm);
            assert!(a.budget_exhausted, "{label}: the budget must bind");
            assert!(a.stats.deduplicated > 0, "{label}: no known candidate");
            assert!(a.stats.pruned > 0, "{label}: no cap-pruned candidate");
            assert_same_outcome(&label, a, b);
        }
    }
}
