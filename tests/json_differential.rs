//! `json::escape` against the character-by-character escape it replaced,
//! kept here as the reference, over the texts the daemon escapes most:
//! every workflow of the `serve_warm` population (`Generator::suite(2005,
//! 32, 0, 0)`), its searched plan, and the request and response lines that
//! carry them. `job` escapes plans inside canonical bodies, so a changed
//! byte here is a changed body. A reply the tier of remembered bodies
//! answers splices the body's stored wire form into its line; over the
//! same population that line must be the one rendered from the body
//! alone. Random strings, every control character, the word-at-a-time
//! run scanner and the decoder are compared in `etlopt_core::json`'s own
//! tests.

use std::fmt::Write as _;

use etlopt::core::cost::RowCountModel;
use etlopt::core::json;
use etlopt::core::opt::{BeamSearch, Optimizer, SearchBudget};
use etlopt::core::text;
use etlopt::server::{run_request, Code, Op, Registry, Request, Response, ServerConfig};
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

/// Send `req` until the tier answers it: a reply whose `meta` reads
/// `"run":"remembered"`.
fn remembered_reply(reg: &Registry, req: &Request) -> Response {
    for _ in 0..8 {
        let resp = run_request(reg, req);
        assert_eq!(resp.code, Code::Ok, "{}: {}", req.id, resp.error);
        if resp.meta.contains("\"run\":\"remembered\"") {
            return resp;
        }
    }
    panic!("{:?} {} was never remembered", req.op, req.id);
}

#[test]
fn a_remembered_reply_is_the_line_rendered_without_the_stored_copy() {
    let reg = Registry::new(ServerConfig::default());
    for (f, scenario) in Generator::suite(2005, 32, 0, 0).into_iter().enumerate() {
        let workflow = text::render(&scenario.workflow).unwrap();
        // A warm adaptive on the first eight families, as `serve_warm`
        // sends them, each from one of two tenants.
        let ops: &[Op] = if f < 8 {
            &[Op::Optimize, Op::Execute, Op::Adaptive]
        } else {
            &[Op::Optimize, Op::Execute]
        };
        for &op in ops {
            let req = Request {
                // An id that needs escapes of its own, around the splice.
                id: format!("{}\"\\\n\u{1}é", scenario.name),
                tenant: ["acme", "umbrella"][f % 2].to_owned(),
                op,
                algo: "beam".to_owned(),
                states: 600,
                time_ms: 60_000,
                parallelism: 1,
                rows: 64,
                seed: 2005,
                rounds: 4,
                warm: true,
                workflow: workflow.clone(),
            };
            let hit = remembered_reply(&reg, &req);
            let line = hit.render();
            let rebuilt = Response::ok(&hit.id, hit.body.clone(), hit.meta.clone());
            assert_eq!(line, rebuilt.render(), "{op:?} {}", scenario.name);
            assert_eq!(
                line,
                format!(
                    "{{\"id\":\"{}\",\"code\":200,\"status\":\"ok\",\"body\":\"{}\",\"meta\":{}}}",
                    reference_escape(&hit.id),
                    reference_escape(&hit.body),
                    hit.meta
                )
            );
            let back = Response::parse(&line).unwrap();
            assert_eq!((back.id, back.body), (req.id, hit.body));
        }
    }
}
