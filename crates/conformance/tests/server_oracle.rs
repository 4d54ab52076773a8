//! Oracle-checked server responses: the optimizer-as-a-service daemon's
//! answers are judged by the same execution-backed equivalence oracle
//! that judges the one-shot sweep.
//!
//! One wire-protocol subtlety shapes the test: the text DSL normalizes
//! activity identifiers to fresh topological priorities on parse, so a
//! *re-parsed* optimized plan no longer carries the structured ids
//! (clones, factored pairs) the oracle's calibration transfer maps
//! observed statistics through. The oracle therefore judges the
//! *id-preserving* in-memory plan — after proving, byte-for-byte, that
//! the server returned exactly that plan: the same search construction
//! on the same parsed workflow must render to the server's `plan` text.
//! Target row counts and multiset digests are additionally cross-checked
//! against an independent execution of the returned plan text.

use etlopt_conformance::{scenario_executor, Oracle};
use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{BeamSearch, HeuristicSearch, Optimizer, SearchBudget};
use etlopt_core::text;
use etlopt_server::{json, run_request, table_digest, Code, Op, Registry, Request, ServerConfig};
use etlopt_workload::{Generator, GeneratorConfig, SizeCategory};

const ROWS_PER_SOURCE: usize = 64;
const SEARCH_STATES: usize = 600;

fn request(op: Op, workflow: &str, seed: u64, algo: &str) -> Request {
    Request {
        id: "oracle".to_owned(),
        tenant: "public".to_owned(),
        op,
        algo: algo.to_owned(),
        states: SEARCH_STATES,
        time_ms: 30_000,
        parallelism: 1,
        rows: ROWS_PER_SOURCE,
        seed,
        rounds: 6,
        warm: true,
        workflow: workflow.to_owned(),
    }
}

#[test]
fn server_execute_responses_pass_the_oracle() {
    // A shared registry across all scenarios and algorithms — the server
    // configuration under which sharing is most aggressive. The oracle
    // must hold anyway.
    let registry = Registry::new(ServerConfig::default());
    for seed in [2005, 2006, 2007, 2008] {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let wf_text = text::render(&s.workflow).expect("render workflow");
        // The workflow exactly as the server sees it (parse normalizes
        // activity ids, so the oracle's base must be this view too).
        let wf = text::parse(&wf_text).expect("parse workflow");
        let oracle = Oracle::new(&wf, scenario_executor(&wf, ROWS_PER_SOURCE, seed))
            .expect("original must execute");
        for algo in ["hs", "beam"] {
            let resp = run_request(&registry, &request(Op::Execute, &wf_text, seed, algo));
            assert_eq!(resp.code, Code::Ok, "seed {seed} {algo}: {}", resp.error);
            let body = json::parse(&resp.body).expect("parse body");
            let plan_text = body
                .get("plan")
                .and_then(json::Value::as_str)
                .expect("body has plan");

            // (a) The server returned exactly the plan the same search
            // construction produces in-memory…
            let budget = SearchBudget::states(SEARCH_STATES);
            let optimizer: Box<dyn Optimizer> = match algo {
                "hs" => Box::new(HeuristicSearch::with_budget(budget)),
                _ => Box::new(BeamSearch::with_budget(budget)),
            };
            let best = optimizer
                .run(&wf, &RowCountModel::default())
                .expect("search")
                .best;
            assert_eq!(
                text::render(&best).expect("render best"),
                plan_text,
                "seed {seed} {algo}: server plan differs from the reference search"
            );

            // …(b) and that plan passes the execution-backed oracle.
            let verdict = oracle.check(&best);
            assert!(
                verdict.passed(),
                "seed {seed} {algo}: server plan failed the oracle: {:?}",
                verdict.failure_lines()
            );

            // (c) The reported targets match an independent execution of
            // the returned plan *text*, row counts and digests both.
            let plan = text::parse(plan_text).expect("parse returned plan");
            let run = scenario_executor(&wf, ROWS_PER_SOURCE, seed)
                .run(&plan)
                .expect("reference execution");
            let targets = body.get("targets").expect("body has targets");
            for (name, table) in &run.targets {
                let entry = targets
                    .get(name)
                    .unwrap_or_else(|| panic!("seed {seed}: body missing target {name}"));
                assert_eq!(
                    entry.get("rows").and_then(json::Value::as_u64),
                    Some(table.len() as u64),
                    "seed {seed} {algo}: row count mismatch for target {name}"
                );
                assert_eq!(
                    entry.get("digest").and_then(json::Value::as_str),
                    Some(format!("{:016x}", table_digest(table)).as_str()),
                    "seed {seed} {algo}: digest mismatch for target {name}"
                );
            }
        }
    }
}

#[test]
fn shared_registry_never_changes_a_body_the_oracle_approved() {
    // Same request against a warm shared registry and a fresh one: every
    // body byte-identical (the conformance statement of the server's
    // determinism contract).
    let s = Generator::generate(GeneratorConfig {
        seed: 2005,
        category: SizeCategory::Small,
    });
    let wf_text = text::render(&s.workflow).expect("render workflow");
    let req = request(Op::Execute, &wf_text, 2005, "hs");

    let shared = Registry::new(ServerConfig::default());
    let warm_bodies: Vec<String> = (0..3)
        .map(|_| {
            let r = run_request(&shared, &req);
            assert_eq!(r.code, Code::Ok, "{}", r.error);
            r.body
        })
        .collect();
    let fresh = run_request(&Registry::new(ServerConfig::default()), &req);
    for (i, body) in warm_bodies.iter().enumerate() {
        assert_eq!(
            body, &fresh.body,
            "warm run {i} diverged from the fresh-registry body"
        );
    }
}
