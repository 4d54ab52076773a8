//! Randomized property tests: every reachable state is equivalent to its
//! origin — formally (post-condition calculus, Theorem 2) and empirically
//! (the engine loads identical warehouse contents). Driven by the in-repo
//! seeded [`Rng`] (offline build — no `proptest`); failures name their seed.

use etlopt::core::opt::{enumerate_moves, Move};
use etlopt::core::postcond::equivalent;
use etlopt::core::rng::Rng;
use etlopt::core::signature::search_key;
use etlopt::prelude::*;
use etlopt::workload::{datagen, Generator, GeneratorConfig, SizeCategory};

/// Walk a pseudo-random path through the state space, returning the final
/// state, how many transitions were applied and how many *enumerated*
/// moves failed their full applicability re-check. Rejections are counted,
/// not swallowed: `enumerate_moves` is a structural pre-filter, so some
/// rejection is expected (commute checks run only in `apply`), but a
/// collapsing applicability rate means enumeration and application have
/// drifted apart — a bug this suite asserts against below.
fn random_walk(wf: &Workflow, picks: &[u8]) -> (Workflow, usize, usize) {
    let mut cur = wf.clone();
    let mut applied = 0;
    let mut rejected = 0;
    for &p in picks {
        let moves = enumerate_moves(&cur).unwrap();
        if moves.is_empty() {
            break;
        }
        let mv = moves[p as usize % moves.len()];
        match mv.apply(&cur) {
            Ok(next) => {
                cur = next;
                applied += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    (cur, applied, rejected)
}

/// Minimum fraction of attempted (enumerated, picked) moves that must
/// survive the full `apply` re-check, measured across the whole suite of
/// seeded walks. Measured applicability sits well above this (~0.81); the floor
/// trips if `enumerate_moves` starts over-promising (or `apply` starts
/// over-rejecting) — previously such drift was silently swallowed.
const APPLICABILITY_FLOOR: f64 = 0.60;

/// Enumerated moves must overwhelmingly survive their full applicability
/// re-check.
#[test]
fn enumerated_moves_mostly_apply() {
    let mut applied_total = 0usize;
    let mut rejected_total = 0usize;
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0707);
        let seed = rng.gen_range(0..400u64);
        let picks = picks(&mut rng, 8);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let (_, applied, rejected) = random_walk(&s.workflow, &picks);
        applied_total += applied;
        rejected_total += rejected;
    }
    let attempted = applied_total + rejected_total;
    assert!(attempted > 50, "suite too small to measure ({attempted})");
    let rate = applied_total as f64 / attempted as f64;
    assert!(
        rate >= APPLICABILITY_FLOOR,
        "applicability rate collapsed: {applied_total}/{attempted} = {rate:.2} \
         (floor {APPLICABILITY_FLOOR}) — enumerate_moves and apply have drifted apart"
    );
}

fn picks(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let n = rng.gen_range(1..max_len);
    (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect()
}

/// Theorem 2, executable: any chain of applicable transitions produces
/// a state with the same post-condition and target schemata.
#[test]
fn random_walks_preserve_formal_equivalence() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.gen_range(0..500u64);
        let picks = picks(&mut rng, 6);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let (end, applied, _) = random_walk(&s.workflow, &picks);
        assert!(equivalent(&s.workflow, &end).unwrap(), "case {case}");
        if applied > 0 {
            assert!(end.validate().is_ok(), "case {case}");
        }
    }
}

/// The engine agrees: the walked-to state loads identical warehouse
/// contents on real rows.
#[test]
fn random_walks_preserve_empirical_equivalence() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0101);
        let seed = rng.gen_range(0..200u64);
        let picks = picks(&mut rng, 5);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let (end, _, _) = random_walk(&s.workflow, &picks);
        let catalog = datagen::catalog_for(&s.workflow, 120, seed ^ 0xabcd);
        let exec = Executor::new(catalog);
        assert!(
            etlopt::engine::equivalent_execution(&exec, &s.workflow, &end).unwrap(),
            "case {case}"
        );
    }
}

/// A move and its inverse cancel: DIS then FAC of the clones restores
/// the signature (and vice versa where applicable).
#[test]
fn distribute_factorize_inverts() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0202);
        let seed = rng.gen_range(0..300u64);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let wf = &s.workflow;
        for mv in enumerate_moves(wf).unwrap() {
            if let Move::Distribute(d) = mv {
                let Ok(dis) = d.apply(wf) else { continue };
                let p1 = dis.graph().provider(d.binary, 0).unwrap().unwrap();
                let p2 = dis.graph().provider(d.binary, 1).unwrap().unwrap();
                let fac = etlopt::core::transition::Factorize::new(d.binary, p1, p2);
                use etlopt::core::transition::Transition;
                let back = fac.apply(&dis).unwrap();
                assert_eq!(wf.signature(), back.signature(), "case {case}");
            }
        }
    }
}

/// MER∘SPL is the identity (§2.2): on the benchmark's population, for
/// every adjacent unary pair `Merge` accepts, splitting the merged state
/// gives back the original's signature, search key, post-condition set
/// and priced total, to the bit.
#[test]
fn split_after_merge_is_the_identity() {
    use etlopt::core::postcond::WorkflowCond;
    use etlopt::core::transition::{split_all, Merge, Transition};
    let model = RowCountModel::default();
    let mut merged = 0usize;
    for s in Generator::suite(2005, 48, 29, 3) {
        let wf = &s.workflow;
        let key = search_key(wf).1;
        let cond = WorkflowCond::of(wf).unwrap();
        let total = model.price(wf).unwrap().total;
        for a in wf.activities().unwrap() {
            let [b] = wf.graph().consumers(a).unwrap()[..] else {
                continue;
            };
            let Ok(mer) = Merge::new(a, b).apply(wf) else {
                continue;
            };
            let back = split_all(&mer).unwrap();
            let at = format!("{}: {}", s.name, Merge::new(a, b).describe(wf));
            assert_eq!(back.signature(), wf.signature(), "{at}");
            assert_eq!(search_key(&back).1, key, "{at}");
            assert_eq!(WorkflowCond::of(&back).unwrap(), cond, "{at}");
            let back_total = model.price(&back).unwrap().total;
            assert_eq!(
                back_total.to_bits(),
                total.to_bits(),
                "{at}: {back_total} vs {total}"
            );
            merged += 1;
        }
    }
    // Every adjacent unary pair of the population, pinned so a `Merge`
    // that starts refusing pairs cannot thin the law out unseen.
    assert_eq!(merged, 2005);
}

/// Signatures identify states: two different walks that end in the same
/// signature are the same workflow graph up to slot numbering — their
/// costs agree under any model.
#[test]
fn equal_signatures_mean_equal_costs() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0303);
        let seed = rng.gen_range(0..200u64);
        let picks_a = picks(&mut rng, 5);
        let picks_b = picks(&mut rng, 5);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let (a, _, _) = random_walk(&s.workflow, &picks_a);
        let (b, _, _) = random_walk(&s.workflow, &picks_b);
        if a.signature() == b.signature() {
            let model = RowCountModel::default();
            assert!(
                (model.cost(&a).unwrap() - model.cost(&b).unwrap()).abs() < 1e-9,
                "case {case}"
            );
        }
    }
}

/// Generated workflows and the ends of seeded walks from them.
fn walked_states() -> Vec<Workflow> {
    let mut states: Vec<Workflow> = Vec::new();
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0404);
        let seed = rng.gen_range(0..200u64);
        let picks = picks(&mut rng, 5);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let (end, _, _) = random_walk(&s.workflow, &picks);
        states.push(s.workflow);
        states.push(end);
    }
    states
}

/// Fingerprints identify signatures: across walked-to states, fingerprint
/// equality must coincide with signature-string equality (the visited sets
/// key on the 128-bit fingerprint alone).
#[test]
fn fingerprint_equality_implies_signature_equality() {
    let states = walked_states();
    for x in &states {
        for y in &states {
            let fp_eq = x.fingerprint() == y.fingerprint();
            let sig_eq = x.signature() == y.signature();
            assert_eq!(
                fp_eq,
                sig_eq,
                "fingerprint/signature disagreement: {} vs {}",
                x.signature(),
                y.signature()
            );
        }
    }
}

/// Search keys identify signatures the same way: across walked-to states,
/// `signature::search_key` equality must coincide with signature-string
/// equality (the searches' visited sets key on it).
#[test]
fn search_key_equality_implies_signature_equality() {
    let states = walked_states();
    let keys: Vec<u128> = states.iter().map(|s| search_key(s).1).collect();
    for (x, kx) in states.iter().zip(&keys) {
        for (y, ky) in states.iter().zip(&keys) {
            let key_eq = kx == ky;
            let sig_eq = x.signature() == y.signature();
            assert_eq!(
                key_eq,
                sig_eq,
                "search key/signature disagreement: {} vs {}",
                x.signature(),
                y.signature()
            );
        }
    }
}

/// The optimizers only ever return equivalent states, and never a more
/// expensive one than the input.
#[test]
fn optimizers_return_equivalent_never_worse_states() {
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0505);
        let seed = rng.gen_range(0..120u64);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let model = RowCountModel::default();
        let budget = etlopt::core::opt::SearchBudget::states(3_000);
        for optimizer in [
            Box::new(HeuristicSearch::with_budget(budget)) as Box<dyn Optimizer>,
            Box::new(HsGreedy::with_budget(budget)),
            Box::new(ExhaustiveSearch::with_budget(budget)),
        ] {
            let out = optimizer.run(&s.workflow, &model).unwrap();
            assert!(out.best_cost <= out.initial_cost + 1e-9, "case {case}");
            assert!(equivalent(&s.workflow, &out.best).unwrap(), "case {case}");
        }
    }
}
