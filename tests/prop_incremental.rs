//! Randomized incremental-vs-scratch equivalence (the §4.1 invariant the
//! searches now rely on): along random transition walks, delta-repriced
//! costs and incrementally-rehashed fingerprints must equal their
//! from-scratch counterparts **bit-for-bit at every step** — totals,
//! per-node row counts, per-node costs, and per-node hashes alike. Driven
//! by the in-repo seeded [`Rng`] (offline build — no `proptest`); failures
//! name their seed. HS's Phase II/III candidates — a shift chain closed by
//! one FAC or DIS, priced by a single walk over the union of the links'
//! affected nodes — go through the same check. And `cost` is `price`'s
//! total to the bit, on initial and searched states alike.
//!
//! The search key (`signature::search_key`) is checked the same way: a
//! swap's key exchanged edge by edge and any other successor's re-tokened
//! along its walk equal the key from scratch, no two live nodes share a
//! token, and key equality coincides with signature equality.
//!
//! The same holds for the schemata (§3.2): after a transition they are
//! regenerated by a walk that stops wherever nothing changed, and every
//! node's `(inputs, output)` must equal what regenerating the whole graph
//! from scratch derives — see the second half of this file.

use etlopt::core::activity::Op;
use etlopt::core::cost::CostVec;
use etlopt::core::graph::Graph;
use etlopt::core::opt::{enumerate_moves, shift_bkw, shift_frw, Move, SearchBudget};
use etlopt::core::physical::PhysicalCostModel;
use etlopt::core::rng::Rng;
use etlopt::core::schema_gen::{self, downstream_of};
use etlopt::core::signature::{hash_state, rehash_along, search_key, NodeHashes, Tokens};
use etlopt::core::trace::Rejections;
use etlopt::prelude::*;
use etlopt::workload::{Generator, GeneratorConfig, SizeCategory};

fn picks(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let n = rng.gen_range(1..max_len);
    (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect()
}

/// No two live nodes of `wf` share a token — the premise that makes the
/// search key's edge set the signature's.
fn assert_tokens_unique(wf: &Workflow, tokens: &Tokens, at: &str) {
    let mut seen = std::collections::HashMap::new();
    for (id, _) in wf.graph().iter() {
        let token = wf.priority_token(id);
        if let Some(other) = seen.insert(token.clone(), id) {
            panic!("{at}: {other:?} and {id:?} share the token {token}");
        }
    }
    let mut hashes: Vec<u128> = wf.graph().iter().map(|(id, _)| tokens.of(id)).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), seen.len(), "{at}: two token hashes collide");
}

/// The search key of `next` and its tokens, taken as the searches take
/// them from a state with `tokens` — re-tokened along `dirty` — equal the
/// key and tokens of `next` from scratch.
fn assert_key_along_matches_scratch(
    next: &Workflow,
    tokens: &Tokens,
    dirty: &[NodeId],
    at: &str,
) -> (Tokens, u128) {
    let (along, key) = tokens.along(next, dirty);
    let (scratch, scratch_key) = search_key(next);
    assert_eq!(key, scratch_key, "{at}: search key along the walk diverged");
    for (id, _) in next.graph().iter() {
        assert_eq!(along.of(id), scratch.of(id), "{at}: token of {id:?}");
    }
    assert_tokens_unique(next, &scratch, at);
    (along, key)
}

/// `next` was reached from a state priced as `cost`, hashed as `hashes`
/// and keyed with `tokens` by rewirings that touched `affected`: one delta
/// evaluation along the dirty path downstream of `affected` must agree
/// exactly — total, per-node rows and costs, fingerprint, per-node hashes,
/// search key and tokens — with evaluating `next` from scratch. Returns
/// the delta tables.
fn assert_delta_matches_scratch(
    next: &Workflow,
    affected: &[NodeId],
    (cost, hashes, tokens): (&CostVec, &NodeHashes, &Tokens),
    model: &RowCountModel,
    at: &str,
) -> (CostVec, NodeHashes, Tokens) {
    // Delta cost vs from-scratch pricing.
    let delta = model.reprice_from(next, cost, affected).unwrap();
    let scratch = model.price(next).unwrap();
    assert_eq!(
        delta.total.to_bits(),
        scratch.total.to_bits(),
        "{at}: delta total {} != scratch total {}",
        delta.total,
        scratch.total,
    );
    for (id, _) in next.graph().iter() {
        assert_eq!(
            delta.rows_out(id).to_bits(),
            scratch.rows_out(id).to_bits(),
            "{at}: rows_out({id:?}) diverged",
        );
        assert_eq!(
            delta.node_cost(id).to_bits(),
            scratch.node_cost(id).to_bits(),
            "{at}: node_cost({id:?}) diverged",
        );
    }

    // Incremental fingerprint vs from-scratch hashing.
    let dirty = downstream_of(next.graph(), affected).unwrap();
    let (inc_hashes, inc_fp) = rehash_along(next, hashes, &dirty);
    let (scr_hashes, scr_fp) = hash_state(next);
    assert_eq!(inc_fp, scr_fp, "{at}: incremental fingerprint diverged");
    assert_eq!(scr_fp, next.fingerprint(), "{at}: fingerprint() must agree");
    for (id, _) in next.graph().iter() {
        assert_eq!(
            inc_hashes.of(id),
            scr_hashes.of(id),
            "{at}: node hash {id:?} diverged",
        );
    }
    let (tokens, _) = assert_key_along_matches_scratch(next, tokens, &dirty, at);
    (delta, inc_hashes, tokens)
}

/// Walk a pseudo-random transition path, checking at every applied step
/// that the delta evaluation (repriced from the parent's tables along the
/// dirty downstream path only) agrees exactly with a from-scratch
/// evaluation of the child. Returns the states visited.
fn checked_walk(wf: &Workflow, picks: &[u8], model: &RowCountModel, tag: &str) -> Vec<Workflow> {
    let mut states = vec![wf.clone()];
    let mut cur = wf.clone();
    let mut cost = model.price(&cur).unwrap();
    let (mut hashes, fp) = hash_state(&cur);
    assert_eq!(fp, cur.fingerprint(), "{tag}: fingerprint() must agree");
    let (mut tokens, mut key) = search_key(&cur);
    assert_tokens_unique(&cur, &tokens, tag);
    for &p in picks {
        let moves = enumerate_moves(&cur).unwrap();
        if moves.is_empty() {
            break;
        }
        let mv = moves[p as usize % moves.len()];
        let Ok(next) = mv.apply(&cur) else { continue };
        let at = format!("{tag}: after {}", mv.describe(&cur));
        if let Move::Swap(t) = mv {
            let swapped = tokens.rewired(key, &cur, &t.edges(&cur).unwrap());
            assert_eq!(swapped, search_key(&next).1, "{at}: swap key diverged");
        }
        let tables = (&cost, &hashes, &tokens);
        (cost, hashes, tokens) =
            assert_delta_matches_scratch(&next, &mv.affected(&cur), tables, model, &at);
        key = search_key(&next).1;
        cur = next;
        states.push(cur.clone());
    }
    states
}

/// Delta cost and incremental fingerprints agree with from-scratch
/// evaluation at every step of random walks over generated workflows.
#[test]
fn incremental_evaluation_matches_scratch_on_random_walks() {
    let model = RowCountModel::default();
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0909);
        let seed = rng.gen_range(0..400u64);
        let picks = picks(&mut rng, 8);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        checked_walk(&s.workflow, &picks, &model, &format!("case {case}"));
    }
}

/// Same invariant on medium workflows, where the dirty path is a small
/// fraction of the graph — the regime the delta evaluation exists for.
#[test]
fn incremental_evaluation_matches_scratch_on_medium_workflows() {
    let model = RowCountModel::default();
    for case in 0..6u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0a0a);
        let seed = rng.gen_range(0..100u64);
        let picks = picks(&mut rng, 6);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Medium,
        });
        checked_walk(&s.workflow, &picks, &model, &format!("medium case {case}"));
    }
}

/// Along walked paths, fingerprint equality and search-key equality must
/// still coincide with signature equality — the visited sets key on the
/// search key alone.
#[test]
fn walked_fingerprints_track_signatures() {
    let model = RowCountModel::default();
    let mut states: Vec<Workflow> = Vec::new();
    for case in 0..8u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0b0b);
        let seed = rng.gen_range(0..200u64);
        let picks = picks(&mut rng, 6);
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        states.extend(checked_walk(
            &s.workflow,
            &picks,
            &model,
            &format!("case {case}"),
        ));
    }
    for x in &states {
        for y in &states {
            assert_eq!(
                x.fingerprint() == y.fingerprint(),
                x.signature() == y.signature(),
                "fingerprint/signature disagreement: {} vs {}",
                x.signature(),
                y.signature()
            );
            assert_eq!(
                search_key(x).1 == search_key(y).1,
                x.signature() == y.signature(),
                "search key/signature disagreement: {} vs {}",
                x.signature(),
                y.signature()
            );
        }
    }
}

// ---- HS chain candidates: one walk over the union of affected nodes ------

/// The reference for a shift: swap `a` with whatever `neighbour` names, one
/// checked `Swap::apply` at a time, until that neighbour is `ab`.
fn shift_by_swaps(
    wf: &Workflow,
    a: NodeId,
    ab: NodeId,
    neighbour: impl Fn(&Workflow) -> Option<NodeId>,
) -> Option<Workflow> {
    let mut cur = wf.clone();
    for _ in 0..=cur.activity_count() {
        let n = neighbour(&cur)?;
        if n == ab {
            return Some(cur);
        }
        cur = Swap::new(a, n).apply(&cur).ok()?;
    }
    None
}

fn single_consumer(wf: &Workflow, a: NodeId) -> Option<NodeId> {
    match wf.graph().consumers(a).ok()? {
        [c] => Some(*c),
        _ => None,
    }
}

/// Every ShiftFrw×2 + FAC and ShiftBkw + DIS candidate HS would build from
/// `base` (Fig. 7, phases II and III): the chain applies exactly when the
/// link-by-link reference does and lands in the same state, and pricing it
/// against `base`'s tables by ONE walk over the union of the links'
/// affected nodes — the intermediate states never priced or hashed — is
/// bit-identical to evaluating it from scratch. Returns how many chains
/// (applied, were refused, applied after at least one real swap).
fn assert_chains_match_scratch(base: &Workflow, model: &RowCountModel, tag: &str) -> [usize; 3] {
    let cost = model.price(base).unwrap();
    let (hashes, _) = hash_state(base);
    let (tokens, _) = search_key(base);
    let mut tally = [0usize; 3];
    let mut check = |at: String,
                     chain: Option<(Workflow, Vec<NodeId>, bool)>,
                     reference: Option<Workflow>| match (chain, reference) {
        (Some((next, touched, swapped)), Some(reference)) => {
            assert_eq!(next.fingerprint(), reference.fingerprint(), "{at}");
            assert_delta_matches_scratch(&next, &touched, (&cost, &hashes, &tokens), model, &at);
            tally[0] += 1;
            tally[2] += usize::from(swapped);
        }
        (None, None) => tally[1] += 1,
        (chain, reference) => panic!(
            "{at}: the chain {} but link by link it {}",
            if chain.is_some() {
                "applied"
            } else {
                "was refused"
            },
            if reference.is_some() {
                "applies"
            } else {
                "is refused"
            },
        ),
    };
    for (a1, a2, ab) in base.homologous_pairs().unwrap() {
        let fac = Factorize::new(ab, a1, a2);
        let chain = (|| {
            let (mut touched, mut rej) = (Vec::new(), Rejections::default());
            let s = shift_frw(base, a1, ab, &mut touched, &mut rej)?;
            let s = shift_frw(&s, a2, ab, &mut touched, &mut rej)?;
            let swapped = !touched.is_empty();
            touched.extend(fac.affected(&s));
            Some((fac.apply(&s).ok()?, touched, swapped))
        })();
        let reference = (|| {
            let s = shift_by_swaps(base, a1, ab, |wf| single_consumer(wf, a1))?;
            let s = shift_by_swaps(&s, a2, ab, |wf| single_consumer(wf, a2))?;
            fac.apply(&s).ok()
        })();
        check(
            format!("{tag}: ShiftFrw×2 + {}", fac.describe(base)),
            chain,
            reference,
        );
    }
    for (a, ab) in base.distributable_activities().unwrap() {
        let dis = Distribute::new(ab, a);
        let chain = (|| {
            let (mut touched, mut rej) = (Vec::new(), Rejections::default());
            let s = shift_bkw(base, a, ab, &mut touched, &mut rej)?;
            let swapped = !touched.is_empty();
            touched.extend(dis.affected(&s));
            Some((dis.apply(&s).ok()?, touched, swapped))
        })();
        let reference = (|| {
            let s = shift_by_swaps(base, a, ab, |wf| wf.graph().provider(a, 0).ok()?)?;
            dis.apply(&s).ok()
        })();
        check(
            format!("{tag}: ShiftBkw + {}", dis.describe(base)),
            chain,
            reference,
        );
    }
    tally
}

/// Chain candidates are checked on the states of seeded walks, not only on
/// generated workflows: after a FAC or DIS the arena has free and recycled
/// slots, which is where a too-small dirty set would read stale tables.
#[test]
fn chain_candidates_priced_by_one_walk_match_scratch() {
    let model = RowCountModel::default();
    let mut tally = [0usize; 3];
    for case in 0..30u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0d0d);
        let seed = rng.gen_range(0..400u64);
        let category = if case % 5 == 0 {
            SizeCategory::Medium
        } else {
            SizeCategory::Small
        };
        let picks = picks(&mut rng, 6);
        let wf = Generator::generate(GeneratorConfig { seed, category }).workflow;
        for (step, state) in checked_walk(&wf, &picks, &model, "walk").iter().enumerate() {
            let tag = format!("case {case} (seed {seed}) step {step}");
            let counts = assert_chains_match_scratch(state, &model, &tag);
            for (total, n) in tally.iter_mut().zip(counts) {
                *total += n;
            }
        }
    }
    let [applied, refused, swapped] = tally;
    assert!(applied > 100, "too few chains applied: {tally:?}");
    assert!(refused > 0, "no chain was ever refused: {tally:?}");
    // A chain that needs no swap is a plain FAC/DIS.
    assert!(
        swapped > 0,
        "no applied chain ever needed a swap: {tally:?}"
    );
}

/// Under a model without delta support (`supports_delta() == false`, the
/// physical planner) a chain candidate has no tables to walk and is priced
/// by a full `cost` call instead. HS and HS-Greedy must still build, price
/// and collect their FAC/DIS chains, and report the model's own cost for
/// the state they return.
#[test]
fn chain_candidates_fall_back_to_full_evaluation_without_delta_support() {
    let model = PhysicalCostModel::default();
    assert!(!model.supports_delta());
    let mut chained = 0usize;
    for seed in [3u64, 11, 27] {
        let wf = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        })
        .workflow;
        let budget = SearchBudget::states(600);
        let algos: [Box<dyn Optimizer>; 2] = [
            Box::new(HeuristicSearch::with_budget(budget)),
            Box::new(HsGreedy::with_budget(budget)),
        ];
        for algo in algos {
            let out = algo.run(&wf, &model).unwrap();
            let at = format!("{} on seed {seed}", algo.name());
            assert_eq!(
                out.stats.repriced_delta, 0,
                "{at}: no state may be delta-priced"
            );
            assert_eq!(
                out.best_cost.to_bits(),
                model.cost(&out.best).unwrap().to_bits(),
                "{at}: reported cost is not the model's cost of the returned state"
            );
            assert!(out.stats.reconciles(), "{at}");
            // Pool sizes after phases I..IV: phases II/III grow the pool
            // only through chain candidates.
            chained += out.stats.frontier_sizes[2] - out.stats.frontier_sizes[0];
        }
    }
    assert!(chained > 0, "no chain candidate was ever collected");
}

/// A state has one price: `cost` is the slot-order total `price` gives,
/// to the bit, on the suite's initial states and on the best states HS,
/// HS-Greedy and beam search return for them.
#[test]
fn cost_is_the_price_total_on_initial_and_searched_states() {
    let model = RowCountModel::default();
    let budget = SearchBudget::states(400);
    let algos: [Box<dyn Optimizer>; 3] = [
        Box::new(HeuristicSearch::with_budget(budget)),
        Box::new(HsGreedy::with_budget(budget)),
        Box::new(BeamSearch::with_budget(budget)),
    ];
    let mut checked = 0usize;
    for s in Generator::suite(2005, 48, 29, 3) {
        let mut states = vec![("initial", s.workflow.clone())];
        for algo in &algos {
            states.push((algo.name(), algo.run(&s.workflow, &model).unwrap().best));
        }
        for (from, wf) in &states {
            let cost = model.cost(wf).unwrap();
            let price = model.price(wf).unwrap().total;
            assert_eq!(
                cost.to_bits(),
                price.to_bits(),
                "{} ({from}): cost {cost} != price {price}",
                s.name
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 320);
}

// ---- Schema regeneration: the change-cutoff walk vs from scratch --------

/// Every transition of the five kinds worth attempting on `wf`: the
/// enumerated SWA/FAC/DIS candidates, a MER for every adjacent unary pair,
/// and a SPL for every merged activity.
fn candidates(wf: &Workflow) -> Vec<Box<dyn Transition>> {
    let mut out: Vec<Box<dyn Transition>> = Vec::new();
    for mv in enumerate_moves(wf).unwrap() {
        match mv {
            Move::Swap(t) => {
                out.push(Box::new(t));
                out.push(Box::new(Merge::new(t.a1, t.a2)));
            }
            Move::Factorize(t) => out.push(Box::new(t)),
            Move::Distribute(t) => out.push(Box::new(t)),
        }
    }
    for id in wf.activities().unwrap() {
        if matches!(wf.graph().activity(id).unwrap().op, Op::Merged(_)) {
            out.push(Box::new(Split::new(id)));
        }
    }
    out
}

/// The search key over seeded walks of all five transitions: after every
/// applied SWA / FAC / DIS / MER / SPL, no two live nodes share a token, a
/// swap's key — its parent's with the three rewritten edges exchanged — and
/// any other successor's — re-tokened along its walk — equal the key from
/// scratch, and across every state reached key equality coincides with
/// signature equality.
#[test]
fn search_keys_follow_all_five_transitions() {
    let mut applied = [0usize; 5];
    let mut states: Vec<Workflow> = Vec::new();
    for case in 0..40u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0e0e);
        let seed = rng.gen_range(0..400u64);
        let category = if case % 5 == 0 {
            SizeCategory::Medium
        } else {
            SizeCategory::Small
        };
        let mut cur = Generator::generate(GeneratorConfig { seed, category }).workflow;
        let (mut tokens, mut key) = search_key(&cur);
        assert_tokens_unique(&cur, &tokens, &format!("case {case} (seed {seed})"));
        states.push(cur.clone());
        for step in 0..10 {
            let options = candidates(&cur);
            if options.is_empty() {
                break;
            }
            let t = &options[rng.gen_range(0..options.len())];
            let Ok(next) = t.apply(&cur) else { continue };
            let at = format!(
                "case {case} (seed {seed}) step {step}: {}",
                t.describe(&cur)
            );
            if t.kind() == TransitionKind::Swap {
                let [a1, a2] = t.affected(&cur)[..] else {
                    panic!("{at}: a swap affects its pair")
                };
                let edges = Swap::new(a1, a2).edges(&cur).unwrap();
                let swapped = tokens.rewired(key, &cur, &edges);
                assert_eq!(swapped, search_key(&next).1, "{at}: swap key diverged");
            }
            let dirty = downstream_of(next.graph(), &t.affected(&cur)).unwrap();
            (tokens, key) = assert_key_along_matches_scratch(&next, &tokens, &dirty, &at);
            applied[t.kind() as usize] += 1;
            cur = next;
            states.push(cur.clone());
        }
    }
    assert!(
        applied.iter().all(|&n| n > 0),
        "the walks must exercise all of SWA/FAC/DIS/MER/SPL: {applied:?}"
    );
    let keys: Vec<(u128, Signature)> = states
        .iter()
        .map(|s| (search_key(s).1, s.signature()))
        .collect();
    for (kx, sx) in &keys {
        for (ky, sy) in &keys {
            assert_eq!(
                kx == ky,
                sx == sy,
                "search key/signature disagreement: {sx} vs {sy}"
            );
        }
    }
}

/// Both graphs carry the same schemata on every node.
fn assert_same_schemata(g: &Graph, reference: &Graph, tag: &str) {
    for (id, node) in g.iter() {
        assert_eq!(
            node,
            reference.node(id).unwrap(),
            "{tag}: schemata of {id} differ from a from-scratch regeneration"
        );
    }
}

/// Every node of `g` carries exactly the schemata a from-scratch
/// regeneration of the same graph derives.
fn assert_regenerated(g: &Graph, tag: &str) {
    let mut scratch = g.clone();
    schema_gen::regenerate(&mut scratch)
        .unwrap_or_else(|e| panic!("{tag}: the accepted state does not regenerate: {e}"));
    assert_same_schemata(g, &scratch, tag);
}

/// Rewire `p → first → second → c` into `p → second → first → c` with no
/// applicability check at all — the raw input of the regeneration walk.
fn raw_swap(g: &mut Graph, first: NodeId, second: NodeId) {
    let p = g.provider(first, 0).unwrap().unwrap();
    let c = g.consumers(second).unwrap()[0];
    let cport = g.port_of(second, c).unwrap().unwrap();
    g.disconnect(first, 0).unwrap();
    g.disconnect(second, 0).unwrap();
    g.disconnect(c, cport).unwrap();
    g.connect(p, second, 0).unwrap();
    g.connect(second, first, 0).unwrap();
    g.connect(first, c, cport).unwrap();
}

/// On every swap-shaped pair of `wf` — legal or not — the cutoff walk and
/// the from-scratch walk agree: both accept and derive the same schemata,
/// or both reject (and the cutoff walk blames a live activity). Returns how
/// many pairs were rejected.
fn assert_walks_agree_on_raw_swaps(wf: &Workflow, tag: &str) -> usize {
    let mut rejected = 0;
    for mv in enumerate_moves(wf).unwrap() {
        let Move::Swap(t) = mv else { continue };
        let mut cut = wf.graph().clone();
        raw_swap(&mut cut, t.a1, t.a2);
        let mut scratch = cut.clone();
        let at = format!("{tag}: raw {}", mv.describe(wf));
        match (
            schema_gen::regenerate_downstream(&mut cut, &[t.a1, t.a2]),
            schema_gen::regenerate(&mut scratch),
        ) {
            (Ok(()), Ok(())) => assert_same_schemata(&cut, &scratch, &at),
            (Err(f), Err(_)) => {
                assert!(cut.activity(f.node).is_ok(), "{at}: blamed {}", f.node);
                rejected += 1;
            }
            (cutoff, full) => panic!("{at}: cutoff walk {cutoff:?} but from scratch {full:?}"),
        }
    }
    rejected
}

/// At every step of seeded random walks over all five transitions, the
/// successor's schemata equal a from-scratch regeneration, and the two
/// walks reject the same rewirings.
#[test]
fn cutoff_regeneration_matches_scratch_on_random_walks() {
    let mut applied = [0usize; 5];
    let mut rejected = 0;
    for case in 0..40u64 {
        let mut rng = Rng::seed_from_u64(case ^ 0x0c0c);
        let seed = rng.gen_range(0..400u64);
        let category = if case % 5 == 0 {
            SizeCategory::Medium
        } else {
            SizeCategory::Small
        };
        let mut cur = Generator::generate(GeneratorConfig { seed, category }).workflow;
        for step in 0..10 {
            let tag = format!("case {case} (seed {seed}) step {step}");
            rejected += assert_walks_agree_on_raw_swaps(&cur, &tag);
            let options = candidates(&cur);
            if options.is_empty() {
                break;
            }
            let t = &options[rng.gen_range(0..options.len())];
            let Ok(next) = t.apply(&cur) else { continue };
            assert_regenerated(next.graph(), &format!("{tag} after {}", t.describe(&cur)));
            applied[t.kind() as usize] += 1;
            cur = next;
        }
    }
    assert!(
        applied.iter().all(|&n| n > 0),
        "the walks must exercise all of SWA/FAC/DIS/MER/SPL: {applied:?}"
    );
    assert!(rejected > 0, "no raw swap was ever rejected");
}

/// The counter-example that fixes the cutoff rule. A second FAC places its
/// replacement activity in the arena slot the first FAC left free — a slot
/// that is *not* among the transition's `affected` nodes — with input
/// schemata copied from a homologous original (they already equal the
/// union's output) and no output yet. "Same inputs ⇒ keep the stored
/// output" would keep that empty output; only the rule that a direct
/// consumer of a rewired node is always re-derived catches it.
#[test]
fn a_factorized_activity_in_a_recycled_slot_gets_its_output_derived() {
    let filter = |lo: i64| UnaryOp::filter(Predicate::gt("v", lo)).with_selectivity(0.5);
    let mut b = WorkflowBuilder::new();
    let s1 = b.source("S1", Schema::of(["k", "v"]), 100.0);
    let s2 = b.source("S2", Schema::of(["k", "v"]), 100.0);
    let s3 = b.source("S3", Schema::of(["k", "v"]), 100.0);
    let a1 = b.unary("σa1", filter(1), s1);
    let a2 = b.unary("σa2", filter(1), s2);
    let u1 = b.binary("U1", BinaryOp::Union, a1, a2);
    let b1 = b.unary("σb1", filter(7), u1);
    let b2 = b.unary("σb2", filter(7), s3);
    let u2 = b.binary("U2", BinaryOp::Union, b1, b2);
    b.target("T", Schema::of(["k", "v"]), u2);
    let wf = b.build().unwrap();

    // The first FAC frees two slots and refills the lower one.
    let mid = Factorize::new(u1, a1, a2).apply(&wf).unwrap();
    assert_regenerated(mid.graph(), "first FAC");
    let second = Factorize::new(u2, b1, b2);
    let affected = second.affected(&mid);
    let next = second.apply(&mid).unwrap();
    let recycled: Vec<NodeId> = next
        .graph()
        .node_ids()
        .into_iter()
        .filter(|id| !mid.graph().contains(*id))
        .collect();
    assert_eq!(recycled.len(), 1, "one activity moved into a free slot");
    assert!(
        !affected.contains(&recycled[0]),
        "the scenario must put the new activity outside `affected` ({affected:?})"
    );
    assert_eq!(
        next.graph().activity(recycled[0]).unwrap().output,
        Schema::of(["k", "v"])
    );
    assert_regenerated(next.graph(), "second FAC");
}

// ---- The change-driven walk: what it re-derives and what it leaves ------

/// Do both states hold the *same allocation* for this node? A transition
/// clones a state by bumping one reference count per node, and the
/// regeneration writes copy-on-write, so a node it did not have to change
/// is still the parent's.
fn shared(a: &Workflow, b: &Workflow, id: NodeId) -> bool {
    std::ptr::eq(a.graph().node(id).unwrap(), b.graph().node(id).unwrap())
}

/// `S → ADD(src) → SK(k→sk) → σ1 → σ2 → NN → T`, generated attributes
/// appended in the order their activities run.
fn generators_then_filters() -> (Workflow, [NodeId; 7]) {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 1000.0);
    let add = UnaryOp::AddField {
        attr: "src".into(),
        value: etlopt::core::scalar::Scalar::from("S"),
    };
    let add = b.unary("ADD", add, s);
    let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), add);
    let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 1)), sk);
    let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 2)), f1);
    let nn = b.unary("NN", UnaryOp::not_null("v"), f2);
    let t = b.target("T", Schema::of(["v", "src", "sk"]), nn);
    (b.build().unwrap(), [s, add, sk, f1, f2, nn, t])
}

/// A swap whose pair hands on what it handed on before stops the walk at
/// the pair: nothing downstream is re-derived, or even copied.
#[test]
fn a_change_that_stays_inside_the_pair_leaves_everything_downstream_shared() {
    let (wf, nodes) = generators_then_filters();
    let [_, _, _, f1, f2, ..] = nodes;
    let next = Swap::new(f1, f2).apply(&wf).unwrap();
    assert_ne!(next.fingerprint(), wf.fingerprint());
    assert_regenerated(next.graph(), "σ1 ↔ σ2");
    // Two filters over one schema: not even the pair's own schemata moved.
    for id in nodes {
        assert!(shared(&wf, &next, id), "{id} was re-derived");
    }
}

/// A swap that changes the order the generated attributes are appended in
/// hands a different schema on, and the walk follows it hop by hop to the
/// target — which keeps its declared schema.
#[test]
fn a_change_that_escapes_the_pair_is_followed_to_the_target() {
    let (wf, nodes) = generators_then_filters();
    let [s, add, sk, f1, f2, nn, t] = nodes;
    assert_eq!(
        wf.graph().activity(nn).unwrap().output,
        Schema::of(["v", "src", "sk"])
    );
    let next = Swap::new(add, sk).apply(&wf).unwrap();
    assert_regenerated(next.graph(), "ADD ↔ SK");
    for id in [add, sk, f1, f2, nn] {
        assert!(!shared(&wf, &next, id), "{id} kept stale schemata");
    }
    // Two hops and more past the pair, the attribute order is the new one.
    assert_eq!(
        next.graph().activity(f2).unwrap().inputs[0],
        Schema::of(["v", "sk", "src"])
    );
    assert_eq!(
        next.graph().activity(nn).unwrap().output,
        Schema::of(["v", "sk", "src"])
    );
    for id in [s, t] {
        assert!(shared(&wf, &next, id), "{id} was re-derived");
    }
}
