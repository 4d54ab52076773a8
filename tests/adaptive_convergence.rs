//! Properties of the adaptive calibrate → re-optimize → converge loop.
//!
//! * **Fig. 1 recovery** — deliberately skewed seed selectivities converge
//!   within 3 rounds, and the converged round's predicted target
//!   cardinalities match the observed ones within the oracle's
//!   failure-grade tolerance.
//! * **Fixpoint** — once the loop has converged, granting one more round
//!   over the same (now exact) calibration never changes the plan.
//! * **Monotonicity** — repriced under the *final* calibration, the round
//!   trajectory's plan costs never increase: each round's choice is at
//!   least as good as the last once both are judged by the same truth.
//! * **Determinism** — a 30-scenario seeded sweep converges within the
//!   4-round default budget, and the full `AdaptiveReport::to_json`
//!   trajectory is byte-identical between search parallelism 1 and 4.
//! * **One cost per plan** — a round that takes the search's fresh plan
//!   reports the same `f64` for it as the search did.

use etlopt::core::cost::{CostModel, RowCountModel};
use etlopt::core::opt::adaptive::seed_workflow;
use etlopt::core::opt::{
    run_adaptive, AdaptiveConfig, AdaptiveReport, HeuristicSearch, SearchBudget,
};
use etlopt::core::oracle::{predicted_target_rows, Tolerance};
use etlopt::core::workflow::Workflow;
use etlopt::engine::{Executor, Harvester};
use etlopt::workload::scenarios::{fig1, fig1_catalog};
use etlopt::workload::{CalibrationStore, Generator, GeneratorConfig, SizeCategory};

const FIG1_SEED: u64 = 7;

/// The paper's Fig. 1 workflow with seed selectivities skewed hard away
/// from the truth: NN 0.95→0.2, γ-SUM 1/30→0.9, σ(€) 0.4→0.95.
fn skewed_fig1() -> Workflow {
    let base = fig1();
    let g = base.graph();
    let mut wf = base.clone();
    for node in base.activities().unwrap() {
        let skew = match g.activity(node).unwrap().label.as_str() {
            "NN" => Some(0.2),
            "γ-SUM" => Some(0.9),
            "σ(€)" => Some(0.95),
            _ => None,
        };
        if let Some(s) = skew {
            wf.set_selectivity(node, s).unwrap();
        }
    }
    wf
}

fn fig1_harvester() -> Harvester {
    Harvester::new(Executor::new(fig1_catalog(FIG1_SEED, 300, 9000)))
}

/// Run the loop on a workflow with a fresh store; returns the report and
/// the harvested store.
fn run_loop(
    wf: &Workflow,
    parallelism: usize,
    rounds: usize,
    mut harvester: Harvester,
) -> (AdaptiveReport, CalibrationStore) {
    let model = RowCountModel::default();
    let optimizer =
        HeuristicSearch::with_budget(SearchBudget::states(600).with_parallelism(parallelism));
    let mut store = CalibrationStore::new();
    let report = run_adaptive(
        wf,
        &model,
        &optimizer,
        &mut harvester,
        &mut store,
        AdaptiveConfig::rounds(rounds),
    )
    .expect("adaptive loop runs");
    (report, store)
}

#[test]
fn fig1_skewed_selectivities_converge_within_three_rounds() {
    let wf = skewed_fig1();
    let (report, _) = run_loop(&wf, 1, 4, fig1_harvester());

    assert!(report.converged, "fig1 must converge: {:#?}", report.rounds);
    assert!(
        report.rounds_used() <= 3,
        "expected ≤3 rounds, took {}",
        report.rounds_used()
    );

    // Converged-round predictions must match what the engine actually
    // loaded, within the oracle's failure-grade target tolerance.
    let tol = Tolerance::new(0.002, 0.5);
    let last = report.final_round().unwrap();
    let model = RowCountModel::default();
    let predicted = predicted_target_rows(&last.plan, &model).unwrap();
    let observed = Executor::new(fig1_catalog(FIG1_SEED, 300, 9000))
        .run(&last.plan)
        .unwrap();
    for (target, table) in &observed.targets {
        let pred = predicted.get(target).copied().unwrap_or(0.0);
        assert!(
            tol.agrees(pred, table.len() as f64),
            "target `{target}`: predicted {pred}, observed {}",
            table.len()
        );
    }
}

#[test]
fn converged_loop_is_a_fixpoint() {
    // Run to convergence, then hand the *harvested* store and one more
    // round to a fresh loop: with exact calibration the plan must not
    // move — the very first round re-chooses the converged fingerprint.
    let wf = skewed_fig1();
    let (report, mut store) = run_loop(&wf, 1, 4, fig1_harvester());
    assert!(report.converged);
    let converged_fp = report.final_round().unwrap().fingerprint;

    let model = RowCountModel::default();
    let optimizer = HeuristicSearch::with_budget(SearchBudget::states(600));
    let mut harvester = fig1_harvester();
    let extra = run_adaptive(
        &wf,
        &model,
        &optimizer,
        &mut harvester,
        &mut store,
        AdaptiveConfig::rounds(1),
    )
    .expect("extra round runs");
    assert_eq!(
        extra.rounds[0].fingerprint,
        converged_fp,
        "one more round over exact calibration changed the plan: {} vs {}",
        extra.rounds[0].signature,
        report.final_round().unwrap().signature,
    );
}

#[test]
fn round_costs_are_monotone_under_final_calibration() {
    // The incumbent rule guarantees that, judged by any single fixed
    // calibration — here the final harvested store, the closest thing to
    // ground truth — the chosen plans never get worse round over round.
    let wf = skewed_fig1();
    let (report, store) = run_loop(&wf, 1, 4, fig1_harvester());
    let model = RowCountModel::default();

    let costs: Vec<f64> = report
        .rounds
        .iter()
        .map(|r| {
            let repriced = seed_workflow(&r.plan, &store).unwrap().workflow;
            model.cost(&repriced).unwrap()
        })
        .collect();
    for pair in costs.windows(2) {
        assert!(
            pair[1] <= pair[0] * (1.0 + 1e-9),
            "calibrated cost increased across rounds: {costs:?}"
        );
    }
}

#[test]
fn fig1_trajectory_is_identical_at_thread_counts_1_2_4() {
    let wf = skewed_fig1();
    let (seq, _) = run_loop(&wf, 1, 4, fig1_harvester());
    for threads in [2usize, 4] {
        let (par, _) = run_loop(&wf, threads, 4, fig1_harvester());
        assert_eq!(
            seq.to_json(),
            par.to_json(),
            "trajectory diverged at {threads} search workers"
        );
    }
}

#[test]
fn thirty_scenario_sweep_converges_and_is_thread_count_invariant() {
    let base_seed = 2005u64;
    for seed in base_seed..base_seed + 30 {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let catalog = || etlopt::workload::datagen::scenario_catalog(&s.workflow, 64, seed);
        let (seq, _) = run_loop(&s.workflow, 1, 4, Harvester::new(Executor::new(catalog())));
        assert!(
            seq.converged && seq.rounds_used() <= 4,
            "seed {seed}: no convergence in {} round(s)",
            seq.rounds_used()
        );

        let (par, _) = run_loop(&s.workflow, 4, 4, Harvester::new(Executor::new(catalog())));
        assert_eq!(
            seq.to_json(),
            par.to_json(),
            "seed {seed}: adaptive trajectory diverged between 1 and 4 search workers"
        );
    }
}

#[test]
fn a_round_that_takes_the_fresh_plan_reports_the_searchs_cost_for_it() {
    // The loop prices the plan the search returned exactly as the search
    // priced it: one plan, one cost, to the bit.
    let mut fresh = 0usize;
    for s in Generator::suite(2005, 30, 15, 3) {
        let catalog = etlopt::workload::datagen::catalog_for(&s.workflow, 64, 11);
        let (report, _) = run_loop(&s.workflow, 1, 4, Harvester::new(Executor::new(catalog)));
        for r in report.rounds.iter().filter(|r| !r.kept_incumbent) {
            assert_eq!(
                r.calibrated_cost.to_bits(),
                r.search_cost.to_bits(),
                "{} round {}: calibrated {} vs search {}",
                s.name,
                r.round,
                r.calibrated_cost,
                r.search_cost
            );
            fresh += 1;
        }
    }
    // Round 1 has no incumbent, so every scenario contributes one.
    assert!(fresh >= 48, "only {fresh} rounds took the fresh plan");
}
