//! End-to-end reproduction of the paper's running example (Fig. 1 → Fig. 2).

use etlopt::core::postcond::{equivalent, WorkflowCond};
use etlopt::prelude::*;
use etlopt::workload::scenarios;

#[test]
fn fig1_signature_is_the_papers() {
    // §4.1: "the signature of the state depicted in Fig. 1 is
    // ((1.3)//(2.4.5.6)).7.8.9".
    assert_eq!(
        scenarios::fig1().signature().to_string(),
        "((1.3)//(2.4.5.6)).7.8.9"
    );
}

#[test]
fn fig1_cond_g_matches_the_papers_conjunction() {
    // §3.4 lists Cond_G for Fig. 1; check the conjuncts we can name.
    let cond = WorkflowCond::of(&scenarios::fig1()).unwrap();
    let rendered = cond.render();
    for needle in [
        "PARTS1(",
        "PARTS2(",
        "NN(euro_cost)",
        "dollar2euro",
        "am2eu",
        "U()",
        "DW(",
    ] {
        assert!(rendered.contains(needle), "missing {needle} in {rendered}");
    }
}

#[test]
fn hs_reproduces_fig2() {
    let wf = scenarios::fig1();
    let model = RowCountModel::default();
    let out = HeuristicSearch::new().run(&wf, &model).unwrap();

    // Cheaper, formally equivalent.
    assert!(out.best_cost < out.initial_cost);
    assert!(equivalent(&wf, &out.best).unwrap());

    // Fig. 2 structure: the σ(€) was distributed into both branches…
    let sig = out.best.signature().to_string();
    assert!(
        sig.contains("8'1") && sig.contains("8'2"),
        "σ(€) clones expected in {sig}"
    );

    // …and on the PARTS2 branch the aggregation (6) now precedes the A2E
    // conversion (5) — the paper's γ/A2E swap.
    let pos_gamma = sig.find(".6").expect("γ in signature");
    let pos_a2e = sig.find(".5").expect("A2E in signature");
    assert!(pos_gamma < pos_a2e, "γ should run before A2E in {sig}");

    // Neither clone of σ(€) crossed the $2€ conversion (4) or the
    // aggregation (6): on the branch signature, 4 and 6 come before 8'2.
    let branch2 = sig
        .split("//")
        .find(|s| s.contains("2.4"))
        .expect("PARTS2 branch");
    let p4 = branch2.find('4').unwrap();
    let p6 = branch2.find('6').unwrap();
    let p8 = branch2.find("8'").unwrap();
    assert!(
        p4 < p8 && p6 < p8,
        "σ(€) must stay after $2€ and γ: {branch2}"
    );
}

#[test]
fn all_three_algorithms_agree_on_fig1() {
    let wf = scenarios::fig1();
    let model = RowCountModel::default();
    let es = ExhaustiveSearch::new().run(&wf, &model).unwrap();
    let hs = HeuristicSearch::new().run(&wf, &model).unwrap();
    let hg = HsGreedy::new().run(&wf, &model).unwrap();
    // Fig. 1 is small enough that ES terminates: HS must match its optimum.
    assert!(!es.budget_exhausted);
    assert!(
        (hs.best_cost - es.best_cost).abs() < 1e-9,
        "HS {} vs ES {}",
        hs.best_cost,
        es.best_cost
    );
    assert!(hg.best_cost >= hs.best_cost - 1e-9);
}

#[test]
fn optimized_fig1_loads_identical_data_and_does_less_work() {
    let wf = scenarios::fig1();
    let model = RowCountModel::default();
    let out = HeuristicSearch::new().run(&wf, &model).unwrap();

    let exec = Executor::new(scenarios::fig1_catalog(11, 240, 7200));
    let before = exec.run(&wf).unwrap();
    let after = exec.run(&out.best).unwrap();
    assert!(before
        .target("DW")
        .unwrap()
        .same_bag(after.target("DW").unwrap())
        .unwrap());
    assert!(
        after.stats.total() < before.stats.total(),
        "optimized plan should touch fewer rows: {} vs {}",
        after.stats.total(),
        before.stats.total()
    );
}

#[test]
fn fig1_merge_constraint_roundtrip() {
    // Merge the $2€/A2E pair as a design constraint; HS must respect it
    // (the pair stays adjacent in the result) and split it back.
    let wf = scenarios::fig1();
    let acts = wf.activities().unwrap();
    let d2e = acts
        .iter()
        .copied()
        .find(|&a| wf.graph().activity(a).unwrap().label == "$2E")
        .unwrap();
    let a2e = acts
        .iter()
        .copied()
        .find(|&a| wf.graph().activity(a).unwrap().label == "A2E")
        .unwrap();
    let model = RowCountModel::default();
    let out = HeuristicSearch::new()
        .with_merge_constraint(d2e, a2e)
        .run(&wf, &model)
        .unwrap();
    assert!(equivalent(&wf, &out.best).unwrap());
    // Split back: no merged activities remain.
    for a in out.best.activities().unwrap() {
        assert!(!matches!(
            *out.best.graph().activity(a).unwrap().op,
            etlopt::core::activity::Op::Merged(_)
        ));
    }
    // Constraint respected: A2E is still the direct consumer of $2E.
    let best = &out.best;
    let d2e_new = best
        .activities()
        .unwrap()
        .into_iter()
        .find(|&a| best.graph().activity(a).unwrap().label == "$2E")
        .unwrap();
    let consumer = best.graph().consumers(d2e_new).unwrap()[0];
    assert_eq!(best.graph().activity(consumer).unwrap().label, "A2E");
}

/// A merged activity exists only inside a search. Fig. 1 with its $2€ /
/// A2E pair merged is refused, with the activity named, by both engine
/// backends and by the physical planner; split back, it runs and plans.
#[test]
fn fig1_with_a_merged_pair_is_refused_after_the_search() {
    use etlopt::core::error::CoreError;
    use etlopt::core::physical::{plan, PhysicalConfig};
    use etlopt::core::transition::{split_all, Merge, Transition};
    use etlopt::engine::{Backend, EngineError};

    let wf = scenarios::fig1();
    let by_label = |label: &str| {
        wf.activities()
            .unwrap()
            .into_iter()
            .find(|&a| wf.graph().activity(a).unwrap().label == label)
            .unwrap()
    };
    let (d2e, a2e) = (by_label("$2E"), by_label("A2E"));
    let merged = Merge::new(d2e, a2e).apply(&wf).unwrap();
    let refusal = CoreError::MergedActivity {
        activity: format!(
            "{}+{}",
            wf.graph().activity(d2e).unwrap().id,
            wf.graph().activity(a2e).unwrap().id
        ),
    };

    let exec = Executor::new(scenarios::fig1_catalog(11, 240, 720));
    for backend in [Backend::Materialize, Backend::Stream] {
        let err = exec.clone().with_backend(backend).run(&merged).unwrap_err();
        assert_eq!(err, EngineError::Core(refusal.clone()), "{backend:?}");
    }
    let err = exec.run_stream(&merged).unwrap_err();
    assert_eq!(err, EngineError::Core(refusal.clone()));
    let err = plan(&merged, &PhysicalConfig::default()).unwrap_err();
    assert_eq!(err, refusal);
    assert!(err.to_string().contains("Split"), "{err}");

    let split = split_all(&merged).unwrap();
    assert!(exec.run(&split).is_ok());
    assert!(plan(&split, &PhysicalConfig::default()).is_ok());
}
