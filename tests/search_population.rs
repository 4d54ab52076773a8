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
//! ES at 100 states, HS / HS-Greedy / beam at 400.

use etlopt::core::opt::SearchBudget;
use etlopt::core::text;
use etlopt::prelude::*;
use etlopt::workload::Generator;

/// (algorithm, state budget, digest at the parent commit).
///
/// Re-captured once when `counters_json()` lost the visited set's
/// shard-occupancy line: each value is the parent's digest with that line
/// left out, so plans, costs, visited counts and every other counter line
/// are unchanged.
const PINNED: [(&str, usize, u64); 4] = [
    ("es", 100, 0x2129_4d5b_3395_a0b6),
    ("hs", 400, 0xf848_a9d7_62c8_ec37),
    ("hs-greedy", 400, 0x3899_0e3b_2520_3cbf),
    ("beam", 400, 0x00ee_5337_958f_091b),
];

fn optimizer(algo: &str, states: usize) -> Box<dyn Optimizer> {
    let budget = SearchBudget::states(states);
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
    let mut mismatches = Vec::new();
    for (algo, states, pinned) in PINNED {
        let search = optimizer(algo, states);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for wf in &population {
            let out = search.run(wf, &model).unwrap();
            fnv1a(&mut digest, text::render(&out.best).unwrap().as_bytes());
            fnv1a(&mut digest, &out.best_cost.to_bits().to_le_bytes());
            fnv1a(&mut digest, &(out.visited_states as u64).to_le_bytes());
            fnv1a(&mut digest, out.stats.counters_json().as_bytes());
        }
        if digest != pinned {
            mismatches.push(format!("{algo}: {digest:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "plans or counters changed:\n{}",
        mismatches.join("\n")
    );
}
