//! Same plans, same counters: the four searches over the benchmark's
//! `search_plan` population, pinned by one digest per algorithm.
//!
//! A search optimisation may change what a generated state *costs to
//! produce*, never which states are produced: the rendered best plan, the
//! bits of `best_cost`, `visited_states` and every line of
//! `counters_json()` must come out the same, op for op. Three perf PRs each
//! rebuilt a throw-away dumper to prove that; this is the dumper, kept. The
//! digests below were captured at the commit *before* the change they were
//! first used to vet and must only be re-captured by a PR that changes the
//! search's behaviour on purpose (and says so).
//!
//! The population and budgets are the benchmark's
//! (`benchmark/src/workloads/search_plan.rs`): `Generator::suite(2005, 48,
//! 29, 3)`, each workflow rendered to text and parsed back as an op does,
//! ES at 100 states, HS / HS-Greedy / beam at 400. A debug build runs
//! parallelism 1 only (the debug-only `validate` after every transition
//! makes a pass slow); a `--release` build — CI's single-threaded release
//! step — also runs 2 and 4, which must reproduce the same digests.

use etlopt::core::opt::SearchBudget;
use etlopt::core::text;
use etlopt::prelude::*;
use etlopt::workload::Generator;

/// (algorithm, state budget, digest at the parent commit).
const PINNED: [(&str, usize, u64); 4] = [
    ("es", 100, 0x5710_1c13_f0d9_6128),
    ("hs", 400, 0xc647_f357_b78f_1f3f),
    ("hs-greedy", 400, 0x5e87_ef23_9337_a72b),
    ("beam", 400, 0xa9b6_ea42_8cf2_d672),
];

fn optimizer(algo: &str, states: usize, parallelism: usize) -> Box<dyn Optimizer> {
    let budget = SearchBudget::states(states).with_parallelism(parallelism);
    match algo {
        "es" => Box::new(ExhaustiveSearch::with_budget(budget)),
        "hs" => Box::new(HeuristicSearch::with_budget(budget)),
        "hs-greedy" => Box::new(HsGreedy::with_budget(budget)),
        _ => Box::new(BeamSearch::with_budget(budget)),
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn population_digests_match_the_parent_commit() {
    let model = RowCountModel::default();
    let population: Vec<Workflow> = Generator::suite(2005, 48, 29, 3)
        .iter()
        .map(|s| text::parse(&text::render(&s.workflow).unwrap()).unwrap())
        .collect();
    let levels: &[usize] = if cfg!(debug_assertions) {
        &[1]
    } else {
        &[1, 2, 4]
    };
    let mut mismatches = Vec::new();
    for &parallelism in levels {
        for (algo, states, pinned) in PINNED {
            let search = optimizer(algo, states, parallelism);
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for wf in &population {
                let out = search.run(wf, &model).unwrap();
                fnv1a(&mut digest, text::render(&out.best).unwrap().as_bytes());
                fnv1a(&mut digest, &out.best_cost.to_bits().to_le_bytes());
                fnv1a(&mut digest, &(out.visited_states as u64).to_le_bytes());
                fnv1a(&mut digest, out.stats.counters_json().as_bytes());
            }
            if digest != pinned {
                mismatches.push(format!(
                    "{algo} at parallelism {parallelism}: {digest:#018x}, pinned {pinned:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "plans or counters changed:\n{}",
        mismatches.join("\n")
    );
}
