//! Heap allocations per generated state, per algorithm, over the
//! benchmark's `search_plan` population (`Generator::suite(2005, 48, 29,
//! 3)`, ES at 100 states, HS / HS-Greedy / beam at 400 — the population
//! `tests/search_population.rs` pins the plans of).
//!
//! A search pays for a successor in allocations before anything else: a
//! structure-sharing clone, the per-node tables, the copy-on-write of every
//! node whose schemata change, the dirty walk's lists. This test counts
//! every `alloc` / `alloc_zeroed` / `realloc` made while the searches run
//! (parsing is outside the count) and divides by `SearchStats::generated`.
//! The ceilings are what the searches reached once a swap stopped
//! regenerating, target-checking and hashing past the three nodes it
//! rewires, and a swap successor the search never expands stopped being
//! built; a change that puts allocations back on the per-state path
//! fails here before it shows as lost throughput. Lower a ceiling when a
//! change earns it.
//!
//! Its own test binary, because it installs a counting global allocator,
//! and release-only: a debug build runs `Workflow::validate` after every
//! transition, which allocates on its own account.

#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use etlopt::core::opt::SearchBudget;
use etlopt::core::text;
use etlopt::prelude::*;
use etlopt::workload::Generator;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a relaxed atomic, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (algorithm, state budget, ceiling on allocations per generated state).
/// The count is deterministic; each ceiling is the value
/// reached, rounded up to a tenth. Before the swap path paid for three
/// nodes: ES 34.35, HS 29.91, HS-Greedy 130.79, beam 32.17. Before a swap
/// successor was built only when a search expands or returns it: ES 14.79,
/// HS 10.87, HS-Greedy 54.88, beam 14.41. Before ES and beam admitted
/// states through one set instead of sixteen sharded ones: ES 8.55, beam 9.78.
/// Before the search key and a swap's total stopped walking to the
/// targets, and a built swap successor shared its parent's tokens: ES
/// 8.42, HS 6.20, HS-Greedy 44.06, beam 9.70. Before schemata were shared
/// and schema facts read off the ops instead of built, with the search's
/// per-state lists kept across states: ES 6.80, HS 4.81, HS-Greedy 41.40,
/// beam 7.96, under ceilings of 7.4, 5.0, 43.3 and 8.6.
const CEILINGS: [(&str, usize, f64); 4] = [
    ("es", 100, 2.3),
    ("hs", 400, 1.3),
    ("hs-greedy", 400, 10.1),
    ("beam", 400, 3.3),
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

// The only test in this binary: the harness runs nothing else while it
// counts.
#[test]
fn allocations_per_generated_state_stay_under_their_ceilings() {
    let model = RowCountModel::default();
    let population: Vec<Workflow> = Generator::suite(2005, 48, 29, 3)
        .iter()
        .map(|s| text::parse(&text::render(&s.workflow).unwrap()).unwrap())
        .collect();
    let mut report = Vec::new();
    let mut over = Vec::new();
    for (algo, states, ceiling) in CEILINGS {
        let search = optimizer(algo, states);
        let (mut allocations, mut generated) = (0u64, 0u64);
        for wf in &population {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let out = search.run(wf, &model).unwrap();
            allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
            generated += out.stats.generated;
            drop(out);
        }
        let per_state = allocations as f64 / generated as f64;
        report.push(format!(
            "{algo}: {per_state:.2} allocations per generated state ({allocations} / {generated})"
        ));
        if per_state > ceiling {
            over.push(format!("{algo}: {per_state:.2} > {ceiling}"));
        }
    }
    println!("{}", report.join("\n"));
    assert!(
        over.is_empty(),
        "{}\n{}",
        over.join("\n"),
        report.join("\n")
    );
}
