//! Live-server integration: concurrency byte-identity, admission
//! control (a full line is a 429, a line within its depth waits its
//! turn), multi-tenant shared-state wins, the tier of remembered bodies
//! (second-sight admission, exact keys, time-capped searches flagged and
//! never stored, one key per rows and seed) and the drain protocol, all
//! over real TCP connections against an in-process daemon.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use etlopt_core::text;
use etlopt_server::{
    json, run_request, spawn, Code, Op, Registry, Request, Response, Server, ServerConfig,
};
use etlopt_workload::{Generator, GeneratorConfig, SizeCategory};

/// A unique scratch directory per test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("etlopt_server_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn workflow_text(seed: u64, category: SizeCategory) -> String {
    let s = Generator::generate(GeneratorConfig { seed, category });
    text::render(&s.workflow).expect("render generated workflow")
}

fn request(id: &str, op: Op, workflow: &str) -> Request {
    Request {
        id: id.to_owned(),
        tenant: "public".to_owned(),
        op,
        algo: "hs".to_owned(),
        states: 600,
        time_ms: 30_000,
        parallelism: 1,
        rows: 64,
        seed: 2005,
        rounds: 6,
        warm: true,
        workflow: workflow.to_owned(),
    }
}

/// One request/response roundtrip on a fresh connection.
fn roundtrip(server: &Server, req: &Request) -> Response {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    roundtrip_on(&stream, req)
}

/// One request/response exchange on an existing connection.
fn roundtrip_on(stream: &TcpStream, req: &Request) -> Response {
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(format!("{}\n", req.render()).as_bytes())
        .expect("send");
    writer.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut line)
        .expect("receive");
    assert!(
        !line.is_empty(),
        "server dropped the connection instead of answering"
    );
    Response::parse(line.trim_end()).expect("parse response")
}

/// One member of the response's observational `meta`.
fn meta_field(resp: &Response, key: &str) -> json::Value {
    json::parse(&resp.meta)
        .expect("parse meta")
        .get(key)
        .unwrap_or_else(|| panic!("meta missing {key}: {}", resp.meta))
        .clone()
}

fn meta_u64(resp: &Response, key: &str) -> u64 {
    meta_field(resp, key).as_u64().expect("a count")
}

fn meta_str(resp: &Response, key: &str) -> String {
    meta_field(resp, key).as_str().expect("a string").to_owned()
}

/// The response's `meta.plan_cache`: `hit` or `miss`.
fn plan_cache(resp: &Response) -> String {
    meta_str(resp, "plan_cache")
}

/// The response's `meta.run`: `remembered`, `executed` or `none`.
fn run_of(resp: &Response) -> String {
    meta_str(resp, "run")
}

fn time_capped(resp: &Response) -> bool {
    meta_field(resp, "time_capped").as_bool().expect("a flag")
}

/// One counter of the daemon's `stats` body.
fn stat(server: &Server, key: &str) -> u64 {
    let stats = roundtrip(server, &request("stats", Op::Stats, ""));
    json::parse(&stats.body)
        .expect("stats body")
        .get(key)
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {}", stats.body))
}

/// What `etlopt-client oneshot` answers: the same job path on a registry
/// that has seen nothing.
fn oneshot(req: &Request) -> Response {
    let resp = run_request(&Registry::new(ServerConfig::default()), req);
    assert_eq!(resp.code, Code::Ok, "{}", resp.error);
    resp
}

fn body_field<'a>(body: &'a json::Value, key: &str) -> &'a json::Value {
    body.get(key)
        .unwrap_or_else(|| panic!("body missing {key}"))
}

#[test]
fn eight_concurrent_clients_get_bytes_identical_to_oneshot() {
    let server = spawn(ServerConfig::default()).expect("spawn server");
    let wf = workflow_text(2005, SizeCategory::Small);

    // The reference: the same request through the same job path against
    // a fresh, unshared registry — what `etlopt-client oneshot` runs.
    let reference = run_request(
        &Registry::new(ServerConfig::default()),
        &request("ref", Op::Execute, &wf),
    );
    assert_eq!(reference.code, Code::Ok, "{}", reference.error);

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let server = &server;
                let wf = &wf;
                scope.spawn(move || {
                    let resp = roundtrip(server, &request(&format!("c{i}"), Op::Execute, wf));
                    assert_eq!(resp.code, Code::Ok, "client {i}: {}", resp.error);
                    assert_eq!(resp.id, format!("c{i}"), "correlation id mismatch");
                    resp.body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(
            body, &reference.body,
            "client {i}'s body differs from the one-shot reference"
        );
    }
    let report = {
        server.shutdown();
        server.join()
    };
    assert_eq!(report.accepted, 8);
    assert_eq!(report.completed, 8, "admitted jobs must all complete");
}

#[test]
fn sibling_requests_share_cache_and_memo_and_tenants_stay_isolated() {
    let scratch = Scratch::new("sharing");
    let server = spawn(ServerConfig {
        store_dir: Some(scratch.0.join("stores")),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let wf = workflow_text(2005, SizeCategory::Small);

    // Client 1 (tenant acme): cold execute — populates the family's
    // shared result cache; beam search populates the shared move memo.
    let mut first = request("c1", Op::Execute, &wf);
    first.tenant = "acme".to_owned();
    first.algo = "beam".to_owned();
    let r1 = roundtrip(&server, &first);
    assert_eq!(r1.code, Code::Ok, "{}", r1.error);
    assert_eq!(meta_u64(&r1, "cache_hits"), 0, "first run must be cold");
    assert!(
        meta_u64(&r1, "cache_insertions") > 0,
        "first run must populate the shared cache: {}",
        r1.meta
    );

    // Client 2 (tenant umbrella): the same workflow family — the shared
    // cache and memo serve it even though the *tenant* differs, because
    // both are tenant-neutral layers.
    let mut second = request("c2", Op::Execute, &wf);
    second.tenant = "umbrella".to_owned();
    second.algo = "beam".to_owned();
    let r2 = roundtrip(&server, &second);
    assert_eq!(r2.code, Code::Ok, "{}", r2.error);
    assert!(
        meta_u64(&r2, "cache_hits") > 0,
        "sibling run must hit the shared result cache: {}",
        r2.meta
    );
    assert!(
        meta_u64(&r2, "memo_hits") > 0,
        "sibling run must hit the shared move memo: {}",
        r2.meta
    );
    assert_eq!(r2.body, r1.body, "shared state must never change the body");
    // It was also the family's second sight: it searched (the memo hits
    // above), executed, and left its body behind.
    assert_eq!(plan_cache(&r1), "miss");
    assert_eq!(plan_cache(&r2), "miss");
    assert_eq!(
        (run_of(&r1), run_of(&r2)),
        ("executed".into(), "executed".into())
    );
    assert_eq!(stat(&server, "bodies"), 1);

    // The same request a third time, from the first tenant again: the
    // tier is tenant-neutral for an execute, so no search runs (no memo
    // traffic) and nothing executes — the result cache is not even asked.
    let mut third = request("c2b", Op::Execute, &wf);
    third.tenant = "acme".to_owned();
    third.algo = "beam".to_owned();
    let r2b = roundtrip(&server, &third);
    assert_eq!(r2b.code, Code::Ok, "{}", r2b.error);
    assert_eq!(plan_cache(&r2b), "hit", "{}", r2b.meta);
    assert_eq!(meta_u64(&r2b, "searches"), 0, "{}", r2b.meta);
    assert_eq!(meta_u64(&r2b, "memo_hits"), 0, "{}", r2b.meta);
    assert_eq!(meta_u64(&r2b, "memo_misses"), 0, "{}", r2b.meta);
    assert_eq!(run_of(&r2b), "remembered", "{}", r2b.meta);
    assert_eq!(meta_u64(&r2b, "cache_hits"), 0, "{}", r2b.meta);
    assert_eq!(meta_u64(&r2b, "cache_misses"), 0, "{}", r2b.meta);
    assert_eq!(r2b.body, r1.body, "a remembered body is the same body");
    assert_eq!(stat(&server, "body_hits"), 1);

    // A true sibling — same text, another state budget — is another key:
    // it searches, the family's memo still serves it, and it executes
    // through the family's result cache.
    let mut sibling = third.clone();
    sibling.id = "c2c".to_owned();
    sibling.states = 500;
    let r2c = roundtrip(&server, &sibling);
    assert_eq!(r2c.code, Code::Ok, "{}", r2c.error);
    assert_eq!(plan_cache(&r2c), "miss", "{}", r2c.meta);
    assert_eq!(meta_u64(&r2c, "searches"), 1, "{}", r2c.meta);
    assert!(meta_u64(&r2c, "memo_hits") > 0, "{}", r2c.meta);
    assert_eq!(run_of(&r2c), "executed", "{}", r2c.meta);
    assert!(meta_u64(&r2c, "cache_hits") > 0, "{}", r2c.meta);
    assert_eq!(r2c.body, oneshot(&sibling).body);

    // Tenant acme accumulates calibration via a warm adaptive run…
    let mut adaptive = request("c3", Op::Adaptive, &wf);
    adaptive.tenant = "acme".to_owned();
    let r3 = roundtrip(&server, &adaptive);
    assert_eq!(r3.code, Code::Ok, "{}", r3.error);
    assert_eq!(meta_u64(&r3, "warm_entries"), 0, "acme starts cold");
    // Its loop runs: an empty store learns, so nothing is remembered.
    assert_eq!(plan_cache(&r3), "miss", "{}", r3.meta);
    assert!(meta_u64(&r3, "searches") >= 1, "{}", r3.meta);
    assert_eq!(run_of(&r3), "none", "{}", r3.meta);

    // …after which acme's *next* adaptive warm-starts…
    let mut warm = request("c4", Op::Adaptive, &wf);
    warm.tenant = "acme".to_owned();
    let r4 = roundtrip(&server, &warm);
    assert_eq!(r4.code, Code::Ok, "{}", r4.error);
    assert!(
        meta_u64(&r4, "warm_entries") > 0,
        "acme's second adaptive must warm-start from its calibration: {}",
        r4.meta
    );
    // …and a warm start means round 1 already seeds calibrated
    // selectivities into the search.
    let body = json::parse(&r4.body).expect("parse body");
    let report = json::parse(body_field(&body, "report").as_str().expect("report string"))
        .expect("parse report");
    let rounds = match body_field(&report, "rounds") {
        json::Value::Arr(r) => r,
        other => panic!("rounds: {other:?}"),
    };
    assert!(
        rounds[0]
            .get("seeded")
            .and_then(json::Value::as_u64)
            .expect("seeded")
            > 0,
        "warm adaptive must seed from calibration in round 1"
    );

    // Tenant initech shares the family's memo and cache but NOT acme's
    // calibration: its warm adaptive still starts cold (round 1 seeds
    // nothing) — the namespace isolation guarantee.
    let mut isolated = request("c5", Op::Adaptive, &wf);
    isolated.tenant = "initech".to_owned();
    let r5 = roundtrip(&server, &isolated);
    assert_eq!(r5.code, Code::Ok, "{}", r5.error);
    assert_eq!(
        meta_u64(&r5, "warm_entries"),
        0,
        "initech must not see acme's calibration: {}",
        r5.meta
    );
    let body5 = json::parse(&r5.body).expect("parse body");
    let report5 = json::parse(
        body_field(&body5, "report")
            .as_str()
            .expect("report string"),
    )
    .expect("parse report");
    let rounds5 = match body_field(&report5, "rounds") {
        json::Value::Arr(r) => r,
        other => panic!("rounds: {other:?}"),
    };
    assert_eq!(
        rounds5[0].get("seeded").and_then(json::Value::as_u64),
        Some(0),
        "initech's first round must seed nothing"
    );

    // The per-tenant stores really are namespaced on disk.
    assert!(scratch.0.join("stores").join("tacme").is_dir());
    assert!(scratch.0.join("stores").join("tinitech").is_dir());

    server.shutdown();
    server.join();
}

/// First sight computes and stores nothing, second sight computes and
/// stores, third is the remembered body — and all three bodies are the
/// one-shot body, for every algorithm and both search ops.
#[test]
fn first_second_and_replayed_bodies_equal_oneshot_for_every_algo_and_op() {
    let server = spawn(ServerConfig::default()).expect("spawn server");
    let mut stored = 0;
    for (a, algo) in ["es", "hs", "hs-greedy", "beam"].into_iter().enumerate() {
        for (o, op) in [Op::Optimize, Op::Execute].into_iter().enumerate() {
            // A family of its own per case, so each starts at a first sight.
            let wf = workflow_text(300 + (2 * a + o) as u64, SizeCategory::Small);
            let mut req = request("p", op, &wf);
            req.algo = algo.to_owned();
            let reference = oneshot(&req);
            for (sight, expect) in ["miss", "miss", "hit"].into_iter().enumerate() {
                let resp = roundtrip(&server, &req);
                assert_eq!(resp.code, Code::Ok, "{algo} {op:?}: {}", resp.error);
                assert_eq!(
                    resp.body, reference.body,
                    "{algo} {op:?} sight {sight}: body differs from one-shot"
                );
                assert_eq!(plan_cache(&resp), expect, "{algo} {op:?} sight {sight}");
                assert!(!time_capped(&resp), "{algo} {op:?}: 30 s never binds");
                // The third touches no data: no search, no catalog, no
                // executor, no result cache.
                let run = match (op, sight) {
                    (_, 2) => "remembered",
                    (Op::Execute, _) => "executed",
                    _ => "none",
                };
                assert_eq!(run_of(&resp), run, "{algo} {op:?} sight {sight}");
                if run == "remembered" {
                    for counter in ["cache_hits", "cache_misses", "cache_insertions"] {
                        assert_eq!(meta_u64(&resp, counter), 0, "{algo}: {}", resp.meta);
                    }
                }
                assert_eq!(
                    meta_u64(&resp, "searches"),
                    u64::from(expect == "miss"),
                    "{algo} {op:?} sight {sight}"
                );
                // Not stored on the first sight, stored on the second.
                if sight == 1 {
                    stored += 1;
                }
                assert_eq!(
                    stat(&server, "bodies"),
                    stored,
                    "{algo} {op:?} sight {sight}"
                );
            }
            // The other op of the same request is another key: its family
            // has been seen, so it computes, is stored, and is right.
            let mut other = req.clone();
            other.op = if op == Op::Optimize {
                Op::Execute
            } else {
                Op::Optimize
            };
            let resp = roundtrip(&server, &other);
            assert_eq!(plan_cache(&resp), "miss", "{algo} {:?}", other.op);
            assert_eq!(resp.body, oneshot(&other).body, "{algo} {:?}", other.op);
            stored += 1;
        }
    }
    assert_eq!(stat(&server, "bodies"), 16);
    assert_eq!(stat(&server, "body_hits"), 8);
    assert_eq!(stat(&server, "body_misses"), 24);
    assert_eq!(stat(&server, "body_evictions"), 0);
    assert!(stat(&server, "body_bytes") > 0);
    server.shutdown();
    server.join();
}

/// `rows` and `seed` are part of an `execute`'s key: each pair is computed
/// on its first sending after the family's first sight and remembered
/// from then on, and every body is the one-shot body.
#[test]
fn each_rows_and_seed_is_its_own_key_and_every_body_equals_oneshot() {
    let server = spawn(ServerConfig::default()).expect("spawn server");
    let wf = workflow_text(52, SizeCategory::Small);
    let req = request("r", Op::Execute, &wf);
    for run in ["executed", "executed", "remembered"] {
        assert_eq!(run_of(&roundtrip(&server, &req)), run);
    }
    assert_eq!(stat(&server, "bodies"), 1);
    let variants = [
        Request {
            rows: 32,
            ..req.clone()
        },
        Request {
            seed: 7,
            ..req.clone()
        },
        Request {
            rows: 32,
            seed: 7,
            ..req.clone()
        },
    ];
    for (i, variant) in variants.iter().enumerate() {
        let reference = oneshot(variant);
        assert_ne!(
            reference.body,
            oneshot(&req).body,
            "other data, other targets"
        );
        for (run, cache) in [("executed", "miss"), ("remembered", "hit")] {
            let resp = roundtrip(&server, variant);
            assert_eq!(resp.code, Code::Ok, "{}", resp.error);
            assert_eq!(
                (run_of(&resp), plan_cache(&resp)),
                (run.into(), cache.into())
            );
            assert_eq!(resp.body, reference.body, "variant {i} {run}");
        }
        assert_eq!(stat(&server, "bodies"), 2 + i as u64);
    }
    // The first pair is still remembered: nothing was evicted.
    let again = roundtrip(&server, &req);
    assert_eq!(run_of(&again), "remembered");
    assert_eq!(again.body, oneshot(&req).body);
    assert_eq!(stat(&server, "body_evictions"), 0);
    server.shutdown();
    server.join();
}

/// Eight clients race one never-stored request at a daemon that already
/// knows the family: however the misses and hits interleave, every body is
/// the one-shot body and exactly one is left.
#[test]
fn concurrent_misses_on_a_warm_family_all_match_oneshot_and_leave_one_body() {
    let server = spawn(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let wf = workflow_text(2005, SizeCategory::Medium);
    // First sight, under another budget: registers the family, stores
    // nothing.
    let mut first = request("warm", Op::Optimize, &wf);
    first.algo = "beam".to_owned();
    first.states = 50;
    assert_eq!(roundtrip(&server, &first).code, Code::Ok);
    assert_eq!(stat(&server, "bodies"), 0);

    let mut req = request("race", Op::Execute, &wf);
    req.algo = "beam".to_owned();
    let reference = oneshot(&req);
    // Connect first, then release all eight at once.
    let barrier = std::sync::Barrier::new(8);
    let replies: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let stream = TcpStream::connect(server.local_addr()).expect("connect");
                let (barrier, req) = (&barrier, &req);
                scope.spawn(move || {
                    barrier.wait();
                    roundtrip_on(&stream, req)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for resp in &replies {
        assert_eq!(resp.code, Code::Ok, "{}", resp.error);
        assert_eq!(resp.body, reference.body);
    }
    let misses = replies.iter().filter(|r| plan_cache(r) == "miss").count();
    assert!(misses >= 1, "somebody had to search");
    assert_eq!(stat(&server, "bodies"), 1, "{misses} misses, one body");
    assert!(replies.iter().any(|r| run_of(r) == "executed"));
    let after = roundtrip(&server, &req);
    assert_eq!(
        (plan_cache(&after), run_of(&after)),
        ("hit".into(), "remembered".into())
    );
    assert_eq!(after.body, reference.body);
    server.shutdown();
    server.join();
}

/// The key is the text, not the workflow: a comment and some spaces make
/// it another request, which searches and is still right.
#[test]
fn a_respelled_workflow_is_another_key_and_still_the_right_body() {
    let server = spawn(ServerConfig::default()).expect("spawn server");
    let wf = workflow_text(41, SizeCategory::Small);
    let req = request("t", Op::Execute, &wf);
    for expect in ["miss", "miss", "hit"] {
        assert_eq!(plan_cache(&roundtrip(&server, &req)), expect);
    }
    let respelled = format!(
        "# nightly load\n{}\n",
        wf.replace(" <- ", "   <-  ").replace('\n', "  \n\n")
    );
    assert_ne!(respelled, wf);
    assert_eq!(
        text::parse(&respelled).expect("parse").signature(),
        text::parse(&wf).expect("parse").signature(),
        "same workflow, spelled differently"
    );
    let again = request("t2", Op::Execute, &respelled);
    let resp = roundtrip(&server, &again);
    assert_eq!(plan_cache(&resp), "miss", "another text is another key");
    assert_eq!(resp.body, oneshot(&again).body);
    // Its family is the one already seen, so this first sending stored it.
    assert_eq!(stat(&server, "bodies"), 2);
    assert_eq!(plan_cache(&roundtrip(&server, &again)), "hit");
    server.shutdown();
    server.join();
}

/// A search that observed its deadline is the one body that may differ
/// between machines: it is flagged in `meta`, and never stored — not even
/// on the family's second and third sight.
#[test]
fn a_time_capped_search_is_flagged_in_meta_and_never_stored() {
    let server = spawn(ServerConfig::default()).expect("spawn server");
    let wf = workflow_text(2005, SizeCategory::Large);
    for algo in ["beam", "hs"] {
        let mut req = request("capped", Op::Optimize, &wf);
        req.algo = algo.to_owned();
        req.states = usize::MAX; // clamped to the ceiling: 20 000 states
        req.time_ms = 1;
        for sight in 0..3 {
            let resp = roundtrip(&server, &req);
            assert_eq!(resp.code, Code::Ok, "{algo}: {}", resp.error);
            assert!(resp.body.contains("\"time_ms\":1,"), "{}", resp.body);
            assert!(
                !resp.body.contains("time_capped"),
                "the flag is observational, never canonical"
            );
            assert!(time_capped(&resp), "{algo} sight {sight}: {}", resp.meta);
            assert_eq!(plan_cache(&resp), "miss", "{algo} sight {sight}");
            assert_eq!(stat(&server, "bodies"), 0, "{algo} sight {sight}");
        }
    }
    // The same text under a cap that does not bind is stored at once (the
    // family has been seen) and replayed.
    let mut req = request("roomy", Op::Optimize, &wf);
    req.algo = "hs".to_owned();
    let resp = roundtrip(&server, &req);
    assert!(!time_capped(&resp), "{}", resp.meta);
    assert_eq!(stat(&server, "bodies"), 1);
    assert_eq!(plan_cache(&roundtrip(&server, &req)), "hit");
    server.shutdown();
    server.join();
}

/// An `execute` generates its catalog from the searched plan, not from the
/// request text. That is the request's own catalog because a search never
/// touches source recordsets: same sources, same node order, so
/// `catalog_for` threads its one RNG through them identically.
#[test]
fn a_plan_generates_the_catalog_its_request_text_generates() {
    use etlopt_core::cost::RowCountModel;
    use etlopt_core::graph::Node;
    use etlopt_core::opt::{BeamSearch, Optimizer, SearchBudget};
    use etlopt_workload::datagen;

    for scenario in Generator::suite(2005, 48, 29, 3) {
        let wf = text::parse(&text::render(&scenario.workflow).expect("render")).expect("parse");
        let best = BeamSearch::with_budget(SearchBudget::states(600).with_parallelism(1))
            .run(&wf, &RowCountModel::default())
            .expect("search")
            .best;
        let names = |w: &etlopt_core::workflow::Workflow| -> Vec<String> {
            w.sources()
                .into_iter()
                .map(|id| match w.graph().node(id) {
                    Ok(Node::Recordset(rs)) => rs.name.clone(),
                    other => panic!("source is not a recordset: {other:?}"),
                })
                .collect()
        };
        assert_eq!(names(&wf), names(&best), "{}: source order", scenario.name);
        let (from_text, from_plan) = (
            datagen::catalog_for(&wf, 64, 2005),
            datagen::catalog_for(&best, 64, 2005),
        );
        for name in names(&wf) {
            assert!(from_text.table(&name).is_some(), "{name} not generated");
            assert_eq!(
                from_text.table(&name),
                from_plan.table(&name),
                "{}: source {name}",
                scenario.name
            );
        }
    }
}

/// Hold a one-slot daemon's slot with a slow adaptive job: 8 rounds of a
/// 4 000-state search are ≈ 0.14 s optimized and ≈ 2 s unoptimized, a
/// hundred times what a handful of clients takes to submit. Returns once
/// the daemon itself shows the job running, not after a fixed time: a job
/// registers its family as its first step, before any search or execution,
/// and `stats` is answered without admission. Clients sent next therefore
/// land at the very start of the job however fast the build is (a fixed
/// sleep outlived the whole job in release builds).
fn occupy_the_slot<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    server: &'scope Server,
) -> std::thread::ScopedJoinHandle<'scope, Response> {
    let slow_wf = workflow_text(2005, SizeCategory::Medium);
    let slow = scope.spawn(move || {
        let mut req = request("slow", Op::Adaptive, &slow_wf);
        req.states = 4_000;
        req.rows = 512;
        req.rounds = 8;
        roundtrip(server, &req)
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let poll = TcpStream::connect(server.local_addr()).expect("connect");
    loop {
        let stats = roundtrip_on(&poll, &request("poll", Op::Stats, ""));
        let families = json::parse(&stats.body)
            .expect("stats body")
            .get("families")
            .and_then(json::Value::as_u64);
        if families >= Some(1) {
            return slow;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the slow job never started"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Send one optimize per stream, all at once, and collect the codes.
fn flood<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    streams: Vec<TcpStream>,
    wf: &'scope str,
) -> Vec<Code> {
    let handles: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(i, stream)| {
            scope.spawn(move || {
                let resp = roundtrip_on(&stream, &request(&format!("f{i}"), Op::Optimize, wf));
                match resp.code {
                    Code::Ok => {}
                    Code::QueueFull => {
                        assert!(
                            resp.error.contains("queue full"),
                            "429 must say why: {}",
                            resp.error
                        );
                    }
                    other => panic!("unexpected code {other:?}: {}", resp.error),
                }
                resp.code
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect()
}

#[test]
fn admission_control_rejects_with_typed_429_not_dropped_connections() {
    // One slot, one place in line: with a slow job holding the slot and
    // one job waiting, every further submission is a typed 429.
    let server = spawn(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let fast_wf = workflow_text(77, SizeCategory::Small);

    std::thread::scope(|scope| {
        // The flood's 8 clients connect first, so that once the slot is
        // held nothing stands between them and admission but one write.
        let streams: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
            .collect();
        let slow = occupy_the_slot(scope, &server);
        // Capacity is 1 waiting place, so at least 7 must get typed 429
        // rejections; every connection gets a well-formed response either
        // way.
        let outcomes = flood(scope, streams, &fast_wf);
        let rejected = outcomes.iter().filter(|c| **c == Code::QueueFull).count();
        assert!(
            rejected >= 7,
            "with queue depth 1 and the slot held, at least 7 of 8 must be \
             rejected; got {rejected} ({outcomes:?})"
        );
        assert_eq!(slow.join().expect("slow client").code, Code::Ok);
    });

    let report = {
        server.shutdown();
        server.join()
    };
    assert_eq!(report.completed, report.accepted);
    assert!(report.rejected_full >= 7, "{report:?}");
}

#[test]
fn clients_queued_behind_a_slow_job_wait_for_the_slot_not_a_429() {
    // One slot, two places in line: two clients sent while the slot is
    // held both wait their turn and both get a 200.
    let server = spawn(ServerConfig {
        workers: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let fast_wf = workflow_text(77, SizeCategory::Small);

    std::thread::scope(|scope| {
        let streams: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
            .collect();
        let slow = occupy_the_slot(scope, &server);
        assert_eq!(flood(scope, streams, &fast_wf), vec![Code::Ok, Code::Ok]);
        assert_eq!(slow.join().expect("slow client").code, Code::Ok);
    });

    server.shutdown();
    let report = server.join();
    assert_eq!((report.accepted, report.completed), (3, 3), "{report:?}");
    assert_eq!(report.rejected_full, 0, "{report:?}");
}

#[test]
fn replies_over_the_write_buffer_size_do_not_wait_for_a_delayed_ack() {
    let server = spawn(ServerConfig::default()).expect("spawn server");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let id = "x".repeat(20_000);
    let started = std::time::Instant::now();
    for _ in 0..8 {
        let resp = roundtrip_on(&stream, &request(&id, Op::Ping, ""));
        assert_eq!((resp.code, resp.id.len()), (Code::Ok, id.len()));
    }
    // A reply whose newline trails it as a separate segment waits ≈ 40 ms
    // for the client's delayed ACK: eight of them take ≈ 350 ms.
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(150),
        "{elapsed:?}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_in_flight_jobs_and_refuses_late_arrivals() {
    let scratch = Scratch::new("drain");
    let drain_log = scratch.0.join("drain.log");
    let server = spawn(ServerConfig {
        workers: 2,
        drain_log: Some(drain_log.clone()),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let wf = workflow_text(2005, SizeCategory::Medium);

    std::thread::scope(|scope| {
        // Two in-flight jobs, slow enough to straddle the shutdown.
        let in_flight: Vec<_> = (0..2)
            .map(|i| {
                let server = &server;
                let wf = &wf;
                scope.spawn(move || {
                    let mut req = request(&format!("d{i}"), Op::Adaptive, wf);
                    req.rows = 512;
                    req.rounds = 8;
                    roundtrip(server, &req)
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(300));

        // Shutdown over the wire, mid-flight.
        let shutdown_stream =
            TcpStream::connect(server.local_addr()).expect("connect for shutdown");
        let resp = roundtrip_on(&shutdown_stream, &{
            let mut r = request("shut", Op::Ping, "");
            r.op = Op::Shutdown;
            r
        });
        assert_eq!(resp.code, Code::Ok, "{}", resp.error);
        assert!(resp.body.contains("draining"), "{}", resp.body);

        // Late arrival on the still-open shutdown connection: typed 503.
        let late = roundtrip_on(&shutdown_stream, &request("late", Op::Optimize, &wf));
        assert_eq!(late.code, Code::Draining, "late job must get a typed 503");
        assert!(late.error.contains("draining"), "{}", late.error);

        // The in-flight jobs still complete with real responses.
        for handle in in_flight {
            let resp = handle.join().expect("in-flight client");
            assert_eq!(
                resp.code,
                Code::Ok,
                "in-flight job must survive the drain: {}",
                resp.error
            );
        }
    });

    let report = server.join();
    assert_eq!(report.accepted, 2);
    assert_eq!(report.completed, 2, "drain dropped admitted jobs");
    assert_eq!(report.rejected_draining, 1);
    assert_eq!(report.accepted, report.completed);
    let log = std::fs::read_to_string(&drain_log).expect("drain log written");
    assert_eq!(
        log,
        "drain complete: accepted=2 completed=2 rejected_full=0 rejected_draining=1\n"
    );
}
