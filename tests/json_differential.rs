//! `json::escape` against the character-by-character escape it replaced,
//! kept here as the reference, over the texts the daemon escapes most:
//! every workflow of the `serve_warm` population (`Generator::suite(2005,
//! 32, 0, 0)`), its searched plan, and the request and response lines that
//! carry them. `job` escapes plans inside canonical bodies, so a changed
//! byte here is a changed body. Random strings, every control character
//! and the decoder are compared in `etlopt_core::json`'s own tests.

use std::fmt::Write as _;

use etlopt::core::cost::RowCountModel;
use etlopt::core::json;
use etlopt::core::opt::{BeamSearch, Optimizer, SearchBudget};
use etlopt::core::text;
use etlopt::server::{Op, Request, Response};
use etlopt::workload::Generator;

/// `json::escape` as it was before it copied runs.
fn reference_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[test]
fn escape_matches_the_reference_on_the_serve_warm_population_and_its_plans() {
    for scenario in Generator::suite(2005, 32, 0, 0) {
        let workflow = text::render(&scenario.workflow).unwrap();
        let best = BeamSearch::with_budget(SearchBudget::states(200))
            .run(&scenario.workflow, &RowCountModel::default())
            .unwrap()
            .best;
        let plan = text::render(&best).unwrap();
        let body = format!("{{\"plan\":\"{}\"}}", reference_escape(&plan));
        for s in [&workflow, &plan, &body] {
            assert_eq!(json::escape(s), reference_escape(s), "{}", scenario.name);
        }

        let req = Request {
            id: scenario.name.clone(),
            tenant: "acme".to_owned(),
            op: Op::Execute,
            algo: "beam".to_owned(),
            states: 200,
            time_ms: 60_000,
            parallelism: 1,
            rows: 64,
            seed: 2005,
            rounds: 6,
            warm: true,
            workflow,
        };
        let line = req.render();
        assert_eq!(
            line,
            format!(
                concat!(
                    "{{\"id\":\"{}\",\"tenant\":\"acme\",\"op\":\"execute\",\"algo\":\"beam\",",
                    "\"states\":200,\"time_ms\":60000,\"parallelism\":1,\"rows\":64,",
                    "\"seed\":2005,\"rounds\":6,\"warm\":true,\"workflow\":\"{}\"}}"
                ),
                reference_escape(&req.id),
                reference_escape(&req.workflow)
            )
        );
        assert_eq!(Request::parse(&line).unwrap().workflow, req.workflow);

        let meta = "{\"elapsed_us\":4,\"plan_cache\":\"hit\"}";
        let line = Response::ok(&req.id, body.clone(), meta.to_owned()).render();
        assert_eq!(
            line,
            format!(
                "{{\"id\":\"{}\",\"code\":200,\"status\":\"ok\",\"body\":\"{}\",\"meta\":{meta}}}",
                reference_escape(&req.id),
                reference_escape(&body)
            )
        );
        let back = Response::parse(&line).unwrap();
        assert_eq!((back.body, back.meta), (body, meta.to_owned()));
    }
}
