//! Live-server integration: concurrency byte-identity, admission
//! control, multi-tenant shared-state wins and the drain protocol, all
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

fn meta_u64(resp: &Response, key: &str) -> u64 {
    json::parse(&resp.meta)
        .expect("parse meta")
        .get(key)
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("meta missing {key}: {}", resp.meta))
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

    // Tenant acme accumulates calibration via a warm adaptive run…
    let mut adaptive = request("c3", Op::Adaptive, &wf);
    adaptive.tenant = "acme".to_owned();
    let r3 = roundtrip(&server, &adaptive);
    assert_eq!(r3.code, Code::Ok, "{}", r3.error);
    assert_eq!(meta_u64(&r3, "warm_entries"), 0, "acme starts cold");

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

#[test]
fn admission_control_rejects_with_typed_429_not_dropped_connections() {
    // One worker, one queue slot: with a slow job on the worker and one
    // in the queue, every further submission is a typed 429.
    let server = spawn(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let slow_wf = workflow_text(2005, SizeCategory::Medium);
    let fast_wf = workflow_text(77, SizeCategory::Small);

    std::thread::scope(|scope| {
        // The flood's 8 clients connect first, so that once the worker is
        // busy nothing stands between them and the queue but one write.
        let flood: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
            .collect();
        // Occupy the worker with a slow adaptive job: 8 rounds of a
        // 4 000-state search are ≈ 0.14 s optimized and ≈ 2 s unoptimized,
        // a hundred times what the flood below takes to submit.
        let slow = {
            let server = &server;
            let wf = slow_wf.clone();
            scope.spawn(move || {
                let mut req = request("slow", Op::Adaptive, &wf);
                req.states = 4_000;
                req.rows = 512;
                req.rounds = 8;
                roundtrip(server, &req)
            })
        };
        // Wait for the daemon itself to show the job on the worker, not
        // for a fixed time: a job registers its family as its first step,
        // before any search or execution, and `stats` is answered inline.
        // The flood then lands at the very start of the job however fast
        // the build is (a fixed sleep outlived the whole job in release
        // builds, and the flood found an idle worker).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let poll = TcpStream::connect(server.local_addr()).expect("connect");
        loop {
            let stats = roundtrip_on(&poll, &request("poll", Op::Stats, ""));
            let families = json::parse(&stats.body)
                .expect("stats body")
                .get("families")
                .and_then(json::Value::as_u64);
            if families >= Some(1) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the slow job never reached the worker"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        // Flood: 8 concurrent clients. Capacity is 1 waiting slot, so at
        // least 7 must get typed 429 rejections; every connection gets a
        // well-formed response either way.
        let outcomes: Vec<Code> = {
            let handles: Vec<_> = flood
                .into_iter()
                .enumerate()
                .map(|(i, stream)| {
                    let wf = &fast_wf;
                    scope.spawn(move || {
                        let resp =
                            roundtrip_on(&stream, &request(&format!("f{i}"), Op::Optimize, wf));
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
        };
        let rejected = outcomes.iter().filter(|c| **c == Code::QueueFull).count();
        assert!(
            rejected >= 7,
            "with queue depth 1 and a busy worker, at least 7 of 8 must be \
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
    let log = std::fs::read_to_string(&drain_log).expect("drain log written");
    assert!(
        log.contains("drain complete: accepted=2 completed=2"),
        "{log}"
    );
    assert!(log.contains("worker 0:"), "{log}");
}
