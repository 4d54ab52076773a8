//! The adaptive loop (`run_adaptive`) and its re-seeding step over the
//! in-memory [`CalibrationStore`], driven by a synthetic observer that
//! derives each plan's row traffic from fixed true selectivities — a
//! stand-in for the engine that keeps these checks independent of it.

use std::collections::BTreeMap;

use etlopt_core::opt::adaptive::{
    activity_key, seed_workflow, CalEntry, Calibration, Observation, PlanObserver,
};
use etlopt_core::prelude::*;
use etlopt_workload::CalibrationStore;

/// Two filters with inverted estimates over a 1000-row source; the
/// observer replays fixed "ground truth" statistics: σa really passes
/// 90 %, σb really passes 10 %.
fn misestimated() -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["v"]), 1000.0);
    let fa = b.unary(
        "σa",
        UnaryOp::filter(Predicate::ge("v", 10)).with_selectivity(0.1),
        s,
    );
    let fb = b.unary(
        "σb",
        UnaryOp::filter(Predicate::ge("v", 90)).with_selectivity(0.9),
        fa,
    );
    b.target("T", Schema::of(["v"]), fb);
    b.build().expect("valid workflow")
}

/// An observer that derives row traffic from the plan's own topology
/// using fixed true selectivities.
struct TrueSelectivities {
    source_rows: u64,
    truth: BTreeMap<String, f64>,
}

impl PlanObserver for TrueSelectivities {
    fn observe(&mut self, wf: &Workflow) -> Result<Observation> {
        let g = wf.graph();
        let mut obs = Observation::default();
        let mut rows: BTreeMap<NodeId, f64> = BTreeMap::new();
        for src in wf.sources() {
            let name = g.recordset(src)?.name.clone();
            obs.source_rows.insert(name, self.source_rows);
            rows.insert(src, self.source_rows as f64);
        }
        for id in g.topo_order()? {
            if let Ok(act) = g.activity(id) {
                let mut inp = 0.0;
                for p in g.providers(id)?.iter().flatten() {
                    inp += rows.get(p).copied().unwrap_or(0.0);
                }
                let key = act.id.to_string();
                let sel = self.truth.get(&key).copied().unwrap_or(1.0);
                let out = inp * sel;
                obs.rows_processed.insert(key.clone(), inp.round() as u64);
                obs.rows_out.insert(key, out.round() as u64);
                rows.insert(id, out);
            } else if let Ok(rs) = g.recordset(id) {
                if let Some(p) = g.provider(id, 0)? {
                    let r = rows.get(&p).copied().unwrap_or(0.0);
                    rows.insert(id, r);
                    if g.consumers(id)?.is_empty() {
                        obs.target_rows.insert(rs.name.clone(), r.round() as u64);
                    }
                }
            }
        }
        Ok(obs)
    }
}

fn truth() -> TrueSelectivities {
    TrueSelectivities {
        source_rows: 100,
        truth: [("2".to_owned(), 0.9), ("3".to_owned(), 0.1)]
            .into_iter()
            .collect(),
    }
}

fn run(cal: &mut CalibrationStore, rounds: usize) -> Result<AdaptiveReport> {
    run_adaptive(
        &misestimated(),
        &RowCountModel::default(),
        &HeuristicSearch::new(),
        &mut truth(),
        cal,
        AdaptiveConfig::rounds(rounds),
    )
}

/// The estimates of `wf`'s activities labelled `label`.
fn estimates(wf: &Workflow, label: &str) -> Vec<f64> {
    let g = wf.graph();
    wf.activities()
        .unwrap()
        .into_iter()
        .map(|id| g.activity(id).unwrap())
        .filter(|a| a.label == label)
        .map(Activity::selectivity)
        .collect()
}

/// The id of `wf`'s one activity labelled `label`.
fn id_of(wf: &Workflow, label: &str) -> ActivityId {
    let g = wf.graph();
    let ids = wf.activities().unwrap();
    let mut acts = ids.iter().map(|&id| g.activity(id).unwrap());
    acts.find(|a| a.label == label).unwrap().id.clone()
}

#[test]
fn a_clone_inherits_its_templates_entry_and_a_factored_product_pools_both() {
    // σ distributed over a union: both clones resolve to σ's entry.
    let mut b = WorkflowBuilder::new();
    let s1 = b.source("S1", Schema::of(["k", "v"]), 64.0);
    let s2 = b.source("S2", Schema::of(["k", "v"]), 32.0);
    let u = b.binary("U", BinaryOp::Union, s1, s2);
    let sel = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 0)), u);
    b.target("T", Schema::of(["k", "v"]), sel);
    let wf = b.build().unwrap();
    let mut cal = CalibrationStore::new();
    cal.record(activity_key(&id_of(&wf, "σ")), "σ", CalEntry::new(100, 25));
    let distributed = Distribute::new(u, sel).apply(&wf).unwrap();
    let seed = seed_workflow(&distributed, &cal).unwrap();
    assert_eq!(seed.seeded, 2, "both clones inherit the template's entry");
    assert_eq!(estimates(&seed.workflow, "σ"), [0.25, 0.25]);

    // Homologous filters factored out of both branches: the product pools
    // both originators, row-weighted.
    let mut b = WorkflowBuilder::new();
    let s1 = b.source("S1", Schema::of(["k", "v"]), 64.0);
    let s2 = b.source("S2", Schema::of(["k", "v"]), 32.0);
    let f1 = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 0)), s1);
    let f2 = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 0)), s2);
    let u = b.binary("U", BinaryOp::Union, f1, f2);
    b.target("T", Schema::of(["k", "v"]), u);
    let wf = b.build().unwrap();
    let g = wf.graph();
    let mut cal = CalibrationStore::new();
    let (a1, a2) = (&g.activity(f1).unwrap().id, &g.activity(f2).unwrap().id);
    cal.record(activity_key(a1), "a1", CalEntry::new(100, 25));
    cal.record(activity_key(a2), "a2", CalEntry::new(300, 30));
    let factored = Factorize::new(u, f1, f2).apply(&wf).unwrap();
    assert_eq!(id_of(&factored, "σ"), ActivityId::factored(a1, a2));
    let seed = seed_workflow(&factored, &cal).unwrap();
    assert_eq!(seed.seeded, 1);
    assert_eq!(estimates(&seed.workflow, "σ"), [55.0 / 400.0]);
}

#[test]
fn seed_reports_misses_instead_of_silent_passthrough() {
    let wf = misestimated();
    let cal = CalibrationStore::new();
    let seed = seed_workflow(&wf, &cal).unwrap();
    assert_eq!(seed.seeded, 0);
    assert_eq!(seed.missing, vec!["2".to_owned(), "3".to_owned()]);
    // Priors untouched.
    assert_eq!(seed.workflow.fingerprint(), wf.fingerprint());
}

#[test]
fn loop_converges_and_reorders_misestimated_filters() {
    let mut cal = CalibrationStore::new();
    let report = run(&mut cal, 4).unwrap();
    assert!(report.converged, "{:#?}", report.rounds.len());
    assert!(report.rounds_used() <= 3);
    let last = report.final_round().unwrap();
    // Converged plan puts the truly selective σb (id 3) first.
    let first = last.plan.activities().unwrap()[0];
    assert_eq!(last.plan.graph().activity(first).unwrap().label, "σb");
    // Prediction error collapses once calibration is exact.
    assert!(
        last.max_rel_error < 0.05,
        "late-round error should be small: {}",
        last.max_rel_error
    );
    assert!(report.rounds[0].mean_rel_error > last.mean_rel_error);
}

#[test]
fn one_more_round_is_a_fixpoint() {
    let mut cal = CalibrationStore::new();
    let report = run(&mut cal, 4).unwrap();
    assert!(report.converged);
    let final_fp = report.final_round().unwrap().fingerprint;
    // Calibration is exact now: one extra round must choose the same
    // plan again.
    let again = run(&mut cal, 1).unwrap();
    assert_eq!(again.rounds[0].fingerprint, final_fp);
}

#[test]
fn report_json_is_wellformed_and_carries_rounds() {
    let report = run(&mut CalibrationStore::new(), 4).unwrap();
    let json = report.to_json();
    assert!(json.contains("\"converged\": true"), "{json}");
    assert!(json.contains("\"round\": 1"), "{json}");
    assert!(json.contains("\"fingerprint\""), "{json}");
    assert_eq!(
        json.matches("\"round\":").count(),
        report.rounds_used(),
        "{json}"
    );
    let total = report.stats_total();
    assert!(total.generated > 0);
}

#[test]
fn zero_round_budget_is_an_error() {
    let err = run(&mut CalibrationStore::new(), 0);
    assert!(matches!(err, Err(CoreError::Observation(_))));
}
