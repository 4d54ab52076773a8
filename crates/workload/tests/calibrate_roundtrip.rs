//! Persistence laws for [`CalibrationStore`]: JSON round-trips losslessly,
//! merge is commutative and idempotent, and lookups that miss fall back to
//! the workflow's uncalibrated prior (with the `MIN_SELECTIVITY` clamp
//! guarding the zero-rows-observed edge).

use etlopt_core::opt::adaptive::{
    activity_key, activity_key_str, seed_workflow, CalEntry, Calibration,
};
use etlopt_core::prelude::*;
use etlopt_workload::calibrate::MIN_SELECTIVITY;
use etlopt_workload::CalibrationStore;

fn sample_store() -> CalibrationStore {
    let mut s = CalibrationStore::new();
    s.record(activity_key_str("3"), "3", CalEntry::new(300, 285));
    s.record(activity_key_str("2+5"), "2+5", CalEntry::new(9000, 300));
    s.record(activity_key_str("4'1"), "4'1", CalEntry::new(120, 48));
    s.record(activity_key_str("8"), "8", CalEntry::new(9300, 3720));
    s.record_source("PARTS1", 300);
    s.record_source("PARTS2", 9000);
    s
}

/// A two-filter chain whose first filter carries a deliberate prior, used
/// to observe what seeding does (and does not) touch.
fn two_filter_workflow() -> Workflow {
    let mut b = WorkflowBuilder::new();
    let src = b.source("S", Schema::of(["id", "v"]), 100.0);
    let f1 = b.unary(
        "sigma_a",
        UnaryOp::filter(Predicate::gt("v", 10)).with_selectivity(0.35),
        src,
    );
    let f2 = b.unary(
        "sigma_b",
        UnaryOp::filter(Predicate::gt("id", 0)).with_selectivity(0.8),
        f1,
    );
    b.target("T", Schema::of(["id", "v"]), f2);
    b.build().unwrap()
}

#[test]
fn json_roundtrip_is_lossless() {
    let store = sample_store();
    let text = store.to_json();
    let back = CalibrationStore::from_json(&text).expect("parse own output");
    assert_eq!(back, store);
    // And stable: re-serializing the parse reproduces the bytes.
    assert_eq!(back.to_json(), text);
}

#[test]
fn empty_store_roundtrips() {
    let store = CalibrationStore::new();
    let back = CalibrationStore::from_json(&store.to_json()).expect("parse empty");
    assert_eq!(back, store);
    assert!(back.is_empty());
}

#[test]
fn activity_names_are_escaped() {
    let mut store = CalibrationStore::new();
    store.record(activity_key_str("a\"b\\c"), "a\"b\\c", CalEntry::new(10, 5));
    store.record_source("s\"rc", 7);
    // Non-ASCII names must come back as the same characters, not as their
    // UTF-8 bytes read one by one.
    store.record(activity_key_str("σ-ÖST"), "σ-ÖST", CalEntry::new(3, 2));
    store.record_source("DIM_ÖST", 12_000);
    // Control characters must be written as escapes (raw they are not JSON).
    store.record(
        activity_key_str("a\tb\nc"),
        "a\tb\nc\u{1}",
        CalEntry::new(4, 4),
    );
    store.record_source("a\tb\nc", 9);
    // Tallies are exact over the whole u64 range, beyond what f64 holds.
    store.record(
        activity_key_str("big"),
        "big",
        CalEntry::new(u64::MAX, (1 << 53) + 1),
    );
    store.record_source("BIG", u64::MAX);
    let text = store.to_json();
    assert!(
        !text.chars().any(|c| c.is_control() && c != '\n'),
        "raw control character in {text:?}"
    );
    let back = CalibrationStore::from_json(&text).expect("parse escaped");
    assert_eq!(back, store);
    assert_eq!(back.source_rows("DIM_ÖST"), Some(12_000));
    assert_eq!(back.source_rows("BIG"), Some(u64::MAX));
}

#[test]
fn from_json_rejects_garbage() {
    assert!(CalibrationStore::from_json("not json").is_err());
    assert!(
        CalibrationStore::from_json("{\"version\": 2, \"sources\": {}, \"entries\": []}").is_err()
    );
    assert!(
        CalibrationStore::from_json("{\"version\": 1, \"entries\": [{\"rows_in\": 3}]}").is_err()
    );
    assert!(CalibrationStore::from_json("{}").is_err());
    // A tally the codec cannot hold exactly is an error, not a nearby value.
    for rows in ["18446744073709551616", "1e19", "-1", "1.5"] {
        let text = format!("{{\"version\": 1, \"sources\": {{\"S\": {rows}}}}}");
        assert!(CalibrationStore::from_json(&text).is_err(), "{rows}");
    }
}

#[test]
fn merge_is_commutative() {
    let a = sample_store();
    let mut b = CalibrationStore::new();
    // Overlapping key with *more* evidence, plus a fresh one.
    b.record(activity_key_str("3"), "3", CalEntry::new(600, 540));
    b.record(activity_key_str("9"), "9", CalEntry::new(50, 25));
    b.record_source("PARTS1", 450);
    b.record_source("LOOKUP", 32);

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba);

    // Max-evidence wins on the overlap.
    assert_eq!(
        ab.entry(activity_key_str("3")),
        Some(CalEntry::new(600, 540))
    );
    assert_eq!(ab.source_rows("PARTS1"), Some(450));
}

#[test]
fn merge_is_idempotent() {
    let a = sample_store();
    let mut twice = a.clone();
    twice.merge(&a);
    assert_eq!(twice, a);

    let mut b = CalibrationStore::new();
    b.record(activity_key_str("9"), "9", CalEntry::new(50, 25));
    let mut ab = a.clone();
    ab.merge(&b);
    let mut abb = ab.clone();
    abb.merge(&b);
    assert_eq!(abb, ab, "merging the same store again must be a no-op");
}

#[test]
fn unknown_fingerprint_falls_back_to_uncalibrated_prior() {
    let wf = two_filter_workflow();
    let g = wf.graph();

    // Calibrate only the *second* filter; the first must keep its prior.
    let (mut calibrated_node, mut prior_node) = (None, None);
    for node in wf.activities().unwrap() {
        let act = g.activity(node).unwrap();
        match act.label.as_str() {
            "sigma_a" => prior_node = Some((node, act.id.clone())),
            "sigma_b" => calibrated_node = Some((node, act.id.clone())),
            _ => {}
        }
    }
    let (prior_node, prior_id) = prior_node.unwrap();
    let (calibrated_node, calibrated_id) = calibrated_node.unwrap();

    let mut store = CalibrationStore::new();
    store.record(
        activity_key(&calibrated_id),
        &calibrated_id.to_string(),
        CalEntry::new(100, 20),
    );

    let outcome = seed_workflow(&wf, &store).unwrap();
    assert_eq!(outcome.seeded, 1);
    assert_eq!(outcome.missing, vec![prior_id.to_string()]);

    let seeded = outcome.workflow;
    let sg = seeded.graph();
    let prior_sel = sg.activity(prior_node).unwrap().selectivity();
    let cal_sel = sg.activity(calibrated_node).unwrap().selectivity();
    assert!(
        (prior_sel - 0.35).abs() < 1e-12,
        "unknown fingerprint must keep the uncalibrated prior, got {prior_sel}"
    );
    assert!(
        (cal_sel - 0.2).abs() < 1e-12,
        "calibrated selectivity, got {cal_sel}"
    );
}

#[test]
fn zero_rows_out_clamps_to_min_selectivity() {
    // Regression: an activity observed to pass zero rows must not seed a
    // zero selectivity (which would zero out every downstream cost).
    assert_eq!(
        MIN_SELECTIVITY,
        etlopt_core::opt::adaptive::SELECTIVITY_FLOOR,
        "one-shot and adaptive calibration must share the clamp"
    );
    let entry = CalEntry::new(1000, 0);
    assert_eq!(entry.selectivity(), Some(MIN_SELECTIVITY));

    // Zero evidence is different from zero output: no rows seen, no estimate.
    assert_eq!(CalEntry::new(0, 0).selectivity(), None);

    let wf = two_filter_workflow();
    let g = wf.graph();
    let mut store = CalibrationStore::new();
    for node in wf.activities().unwrap() {
        let act = g.activity(node).unwrap();
        store.record(
            activity_key(&act.id),
            &act.id.to_string(),
            CalEntry::new(100, 0),
        );
    }
    let outcome = seed_workflow(&wf, &store).unwrap();
    assert_eq!(outcome.seeded, 2);
    let sg = outcome.workflow.graph();
    for node in outcome.workflow.activities().unwrap() {
        let sel = sg.activity(node).unwrap().selectivity();
        assert!(
            (sel - MIN_SELECTIVITY).abs() < 1e-15,
            "zero-output activity must clamp to the floor, got {sel}"
        );
    }
}
