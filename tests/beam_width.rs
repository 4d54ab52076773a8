//! Beam-width semantics on the pinned smoke seeds:
//!
//! * ES — the same generation loop with no cut — reproduces, bit for bit,
//!   the costs, visited counts and deterministic counters it reported
//!   before it shared that loop with beam (goldens below);
//! * across a width sweep, every answer improves on (or matches) the
//!   unoptimized plan, and the telemetry reconciles;
//! * for a fixed width, `best_cost` is monotone non-increasing in the
//!   *state budget*: a longer run is an exact prefix-extension of a
//!   shorter one, and the incumbent only ever improves.
//!
//! Note that `best_cost` is deliberately *not* asserted to be monotone in
//! the width: beam search is not monotone in K. A wider beam admits more
//! states into the visited set per generation, and a state it truncates is
//! treated as a duplicate if rediscovered later via a deeper path — so
//! widening can lose descendants that a narrow, deep descent finds
//! (observed on smoke seed 2: width 1 beats width 2 and, under a binding
//! state budget, even beats budget-capped ES by descending deeper). The
//! sound guarantees are the sweep bracket, budget monotonicity, and the
//! goldens below (ES, and HS / HS-Greedy, which ride in the same table).

use etlopt::conformance::SMOKE_SEEDS;
use etlopt::core::opt::SearchBudget;
use etlopt::prelude::*;
use etlopt::workload::{Generator, GeneratorConfig, SizeCategory};

fn budget() -> SearchBudget {
    // Generous enough that small scenarios run to frontier exhaustion.
    SearchBudget::states(4_000)
}

/// `(algorithm, seed, best_cost.to_bits(), visited_states, FNV-1a of the
/// deterministic counters)` under [`budget`] on the small scenario of each
/// smoke seed.
///
/// **ES rows.** The cost bits and visited counts were captured at commit
/// 9c4da12 — the last one where `exhaustive.rs` had a generation loop of
/// its own. ES and beam now run one loop, so comparing them would compare a
/// function with itself; these constants are what says ES did not move.
/// The counter digests were recaptured when expansion became
/// budget-bounded (ISSUE 13): all ten runs hit the 4 000-state cap, and the
/// counters used to include every successor the last generation evaluated
/// after the cap could no longer admit it (`generated`, `deduplicated`,
/// `pruned`, `expanded`, the rejection table). The search no longer does
/// that work, so those counts shrank; the accepted set — cost bits and
/// visited counts, left as captured — did not.
///
/// **HS / HS-Greedy rows.** Captured at commit ede71e0, the last one where
/// phases II/III priced their candidates from scratch as `(fingerprint,
/// Workflow, cost)` tuples; every state now travels as one delta-priced
/// carrier (ISSUE 14). Their digest leaves out the `"evaluation"` line of
/// `counters_json()` — the delta/full split is the one thing that change
/// was meant to move — and covers the rest: `generated`, `deduplicated`,
/// `expanded`, `pruned`, the rejection table and the per-phase pool sizes.
///
/// **All rows.** The counter digests were re-captured once more when
/// `counters_json()` lost the visited set's shard-occupancy line: each is
/// the previous digest's input with that line left out, so no counter
/// moved.
const GOLDENS: [(&str, u64, u64, usize, u64); 30] = [
    ("ES", 2, 0x4107ba953ba5e480, 4000, 0x9d12aa1c8699c71e),
    ("ES", 4, 0x40e011f38d941aad, 4000, 0x4cb30bdc4adaef5d),
    ("ES", 10, 0x40fa6d38bab4211a, 4000, 0x2503b33b8efb9f22),
    ("ES", 11, 0x40d11fdc2f38d95d, 4000, 0x87afd8ec30d45c39),
    ("ES", 13, 0x40f8c8f6c5302de3, 4000, 0x1e816c0e27df18f5),
    ("ES", 19, 0x40e6824ca920deea, 4000, 0x795e4d0e5029ec80),
    ("ES", 21, 0x41069e3bd65c0148, 4000, 0xcddf831b4d832d1e),
    ("ES", 22, 0x40eb58279fb09c5b, 4000, 0xb095b42a0756c225),
    ("ES", 27, 0x40f47b0df1fb186b, 4000, 0x5e8cbc7ecf7cf031),
    ("ES", 32, 0x40f34e23a63a4d50, 4000, 0x5e13e206805bac1a),
    ("HS", 2, 0x40ffd9a5e2f592cf, 4000, 0xee1c843f7e0088a1),
    ("HS", 4, 0x40db98b0ee9c2130, 4000, 0xca655293a9b1e50d),
    ("HS", 10, 0x40e67f3de37beebf, 4000, 0x623e61400aed5ecd),
    ("HS", 11, 0x40cdf3ee43b824bf, 3465, 0xe959fbd5f757e882),
    ("HS", 13, 0x40f372417bc5e66a, 4000, 0x0766cccad37b446e),
    ("HS", 19, 0x40e1061add899542, 4000, 0xfa2cfe08610e5aac),
    ("HS", 21, 0x4103fbbc8c580f59, 2053, 0x407a4588655fa215),
    ("HS", 22, 0x40e51f8dbf615cd6, 4000, 0x74c9ab1d87723159),
    ("HS", 27, 0x40f093119ef6b937, 4000, 0xbca973ca93714179),
    ("HS", 32, 0x40e8acf39eaf0fcd, 4000, 0xcebc24f12cb4b2d9),
    ("HS-Greedy", 2, 0x4102ed6376a1b21b, 268, 0x1e5e80037b09f91b),
    ("HS-Greedy", 4, 0x40dc87561bbb4447, 266, 0xcf345e13d1ec5cff),
    ("HS-Greedy", 10, 0x40f5658bc6933f4d, 283, 0xc22f9d55bd8a9e6a),
    ("HS-Greedy", 11, 0x40d0abc60b54c61f, 245, 0x2b0c5b06bfcf75b9),
    ("HS-Greedy", 13, 0x40f5e8fc47f49bb5, 212, 0x4b98fe5af0d306d8),
    ("HS-Greedy", 19, 0x40e36d70410b20e1, 266, 0x70c03bb7ca853ed8),
    ("HS-Greedy", 21, 0x4105ee3aa6c3d843, 122, 0x8a7b2ba8be7bda57),
    ("HS-Greedy", 22, 0x40e7e08a90182c19, 275, 0xc4c1c180e89767dc),
    ("HS-Greedy", 27, 0x40f3711bf21068d6, 269, 0x1310782bd60ccd05),
    ("HS-Greedy", 32, 0x40eb294f35325e13, 267, 0x830210d5e77baa1b),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn optimizer(algorithm: &str, budget: SearchBudget) -> Box<dyn Optimizer> {
    match algorithm {
        "ES" => Box::new(ExhaustiveSearch::with_budget(budget)),
        "HS" => Box::new(HeuristicSearch::with_budget(budget)),
        "HS-Greedy" => Box::new(HsGreedy::with_budget(budget)),
        other => panic!("no golden rows for {other}"),
    }
}

#[test]
fn searches_match_their_goldens() {
    let model = RowCountModel::default();
    for algorithm in ["ES", "HS", "HS-Greedy"] {
        let seeds: Vec<u64> = GOLDENS
            .iter()
            .filter(|g| g.0 == algorithm)
            .map(|g| g.1)
            .collect();
        assert_eq!(seeds, SMOKE_SEEDS, "{algorithm}");
    }
    for (algorithm, seed, cost_bits, visited, counters_digest) in GOLDENS {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let out = optimizer(algorithm, budget())
            .run(&s.workflow, &model)
            .unwrap();
        let at = format!("{algorithm} seed {seed}");
        assert_eq!(
            out.best_cost.to_bits(),
            cost_bits,
            "{at}: {}",
            out.best_cost
        );
        assert_eq!(out.visited_states, visited, "{at}");
        let counters: String = out
            .stats
            .counters_json()
            .split_inclusive('\n')
            .filter(|l| algorithm == "ES" || !l.contains("\"evaluation\""))
            .collect();
        assert_eq!(
            fnv1a(counters.as_bytes()),
            counters_digest,
            "{at}:\n{counters}"
        );
    }
}

#[test]
fn every_width_improves_on_the_initial_plan_and_reconciles() {
    let model = RowCountModel::default();
    let mut narrow_truncated = 0u64;
    for &seed in &SMOKE_SEEDS {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let es = ExhaustiveSearch::with_budget(budget())
            .run(&s.workflow, &model)
            .unwrap();
        for width in [1usize, 2, 4, 8, 32] {
            let beam = BeamSearch::with_budget(budget())
                .with_width(width)
                .run(&s.workflow, &model)
                .unwrap();
            assert!(
                beam.best_cost <= beam.initial_cost,
                "seed {seed}: beam width {width} regressed past the initial \
                 plan ({} > {})",
                beam.best_cost,
                beam.initial_cost
            );
            assert!(
                beam.stats.reconciles(),
                "seed {seed}: beam width {width} accounting does not reconcile"
            );
            if width == 1 {
                narrow_truncated += beam.stats.truncated_states;
            }
        }
        // The sweep's unbounded endpoint is ES itself: the loop with no cut.
        assert!(
            es.best_cost <= es.initial_cost && es.stats.reconciles(),
            "seed {seed}: ES endpoint of the sweep regressed or does not reconcile"
        );
        assert_eq!(es.stats.truncated_states, 0, "seed {seed}: ES truncated");
    }
    // Sanity: a width-1 beam really does truncate somewhere in the corpus
    // (otherwise the sweep exercised nothing).
    assert!(
        narrow_truncated > 0,
        "width-1 sweep never truncated a state"
    );
}

#[test]
fn best_cost_is_monotone_non_increasing_in_the_state_budget() {
    // A longer run is an exact prefix-extension of a shorter one — the
    // budget check never alters the expansion order, only where the run
    // stops — so the incumbent can only improve with more budget.
    let model = RowCountModel::default();
    for &seed in &SMOKE_SEEDS {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        for width in [1usize, 8, BeamSearch::DEFAULT_WIDTH] {
            let mut prev = f64::INFINITY;
            for states in [250usize, 1_000, 4_000] {
                let got = BeamSearch::with_budget(SearchBudget::states(states))
                    .with_width(width)
                    .run(&s.workflow, &model)
                    .unwrap()
                    .best_cost;
                assert!(
                    got <= prev,
                    "seed {seed} width {width}: raising the budget to \
                     {states} states worsened the cost ({prev} -> {got})"
                );
                prev = got;
            }
        }
    }
}
