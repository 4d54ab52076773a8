//! `serve_warm` and `serve_cold`: the whole stack behind the daemon.
//!
//! An in-process `server::spawn` (2 workers, queue 16, calibration
//! persisted under a scratch `store_dir`) is driven over real TCP by **two
//! closed-loop clients** on persistent connections. Closed, because the
//! callers of an optimizer/ETL daemon are schedulers that wait for the
//! reply before submitting the next job; two, because the reference box
//! has two hardware threads and more clients would measure the box's
//! scheduler, not the daemon. One op is one request line out, one
//! response line back, parsed.
//!
//! * `serve_warm` — sibling traffic the shared registry was built for:
//!   a few dozen families, two tenants, every family's state filled by an
//!   untimed warm-up, so timed requests *read* the memo, the result cache
//!   and the calibration store.
//! * `serve_cold` — every request is a never-seen family against a fresh
//!   daemon: every lookup misses and every request *inserts*.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use etlopt_conformance::{scenario_executor, Oracle};
use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{BeamSearch, Optimizer, SearchBudget};
use etlopt_core::rng::Rng;
use etlopt_core::text;
use etlopt_server::json::{self, Value};
use etlopt_server::{
    run_request, spawn, Code, DrainReport, Op, Registry, Request, Response, Server, ServerConfig,
};
use etlopt_workload::{Generator, GeneratorConfig, SizeCategory};

use super::{
    equivalence_failures, micro, replay, shuffle, CheckResult, Metrics, Options, PassResult,
    Workload,
};
use crate::stats;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Cold,
}

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 16;
const TENANTS: [&str; 2] = ["acme", "umbrella"];

/// Request knobs (the daemon's own defaults for beam traffic). The time
/// cap equals the server's ceiling and never binds: the state budget
/// does, so bodies are the same on every machine.
const STATES: usize = 600;
const ROWS: usize = 1_024;
const ROUNDS: usize = 4;
const TIME_MS: u64 = 60_000;

/// Ops in one pass, both modes.
const OPS: usize = 240;

/// `serve_warm`: families in play, how many of them also take adaptive
/// traffic (each from one of the two tenants), and every how-many-th
/// request is adaptive. Thirty-two families keep a pass's median
/// independent of the seed's draw. An adaptive request costs twice any
/// other; the 8 of a pass are fewer than the 12 ops beyond the p95, so
/// the p95 lies among the heaviest execute and optimize requests, which
/// lie close together, and not on the step up to the adaptive ones.
const WARM_FAMILIES: usize = 32;
const WARM_ADAPTIVE_FAMILIES: usize = 8;
const WARM_ADAPTIVE_STRIDE: usize = 30;

/// `serve_cold`: every how-many-th family is medium. A medium request
/// costs up to three times a small one. The 10 of a pass are fewer than
/// the 12 ops beyond the p95, so the p95 lies among the heaviest small
/// requests, which lie close together, and not on the step between the
/// bands, where it moved by a quarter with the seed's draw when one family
/// in 8 was medium.
const COLD_MEDIUM_STRIDE: usize = 24;

/// Requests replayed stage by stage in the traced run.
const REPLAYED: usize = 80;

/// Every how-many-th optimize/execute body is recomputed by
/// `run_request` on a fresh registry.
const BODY_CHECK_STRIDE: usize = 16;

/// Every how-many-th family of `serve_cold` goes through the oracle
/// (every family of `serve_warm` does).
const COLD_ORACLE_STRIDE: usize = 8;

static STORE_DIRS: AtomicUsize = AtomicUsize::new(0);

fn server_config() -> ServerConfig {
    let n = STORE_DIRS.fetch_add(1, Ordering::Relaxed);
    ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        // Scratch space the runner created inside the checkout.
        store_dir: Some(std::env::temp_dir().join(format!("store-{n}"))),
        ..ServerConfig::default()
    }
}

/// One persistent client connection speaking the line protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Result<Client, String> {
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Client {
            writer: stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
            reader: BufReader::new(stream),
        })
    }

    /// `line` must end in `\n`.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One op of the population.
struct Job {
    req: Request,
    /// The request as sent: rendered once, in set-up, newline included.
    line: String,
    /// Index of the workflow the request carries.
    family: usize,
}

/// A reply, reduced to what checks and per-layer metrics read.
struct Reply {
    ms: f64,
    resp: Response,
    bytes: usize,
}

/// The response's observational `meta` object (`Null` when absent).
fn meta_of(resp: &Response) -> Value {
    json::parse(&resp.meta).unwrap_or(Value::Null)
}

fn field_u64(object: &Value, key: &str) -> u64 {
    object.get(key).and_then(Value::as_u64).unwrap_or(0)
}

pub struct Serve {
    mode: Mode,
    seed: u64,
    corrupt_reference: bool,
    /// Distinct workflows the jobs draw from.
    families: usize,
    jobs: Vec<Job>,
    /// Untimed requests that fill the shared state (`serve_warm` only).
    warmup: Vec<Job>,
    server: Option<Server>,
    /// First pass's replies, by op.
    first: Vec<Option<Reply>>,
    /// `meta` of the first traced pass's replies.
    traced_meta: Vec<MetaRow>,
}

/// The observational `meta` one response carried.
struct MetaRow {
    op: Op,
    cache_hits: u64,
    cache_misses: u64,
    cache_insertions: u64,
    harvest_runs: u64,
    warm_entries: u64,
}

/// Source recordsets a workflow text declares.
fn source_count(workflow: &str) -> usize {
    workflow
        .lines()
        .filter(|l| l.starts_with("source "))
        .count()
}

fn job(op: Op, tenant: &str, seed: u64, id: usize, family: usize, workflow: &str) -> Job {
    let req = Request {
        id: id.to_string(),
        tenant: tenant.to_owned(),
        op,
        algo: "beam".to_owned(),
        states: STATES,
        time_ms: TIME_MS,
        parallelism: 1,
        rows: ROWS,
        seed,
        rounds: ROUNDS,
        warm: true,
        workflow: workflow.to_owned(),
    };
    let line = format!("{}\n", req.render());
    Job { req, line, family }
}

impl Serve {
    pub fn setup(opts: Options, mode: Mode) -> Result<Serve, String> {
        let seed = opts.seed;
        let mut rng = Rng::seed_from_u64(seed);
        let render = |s: etlopt_workload::Scenario| {
            text::render(&s.workflow).map_err(|e| format!("render {}: {e}", s.name))
        };
        let (workflows, mut jobs, warmup) = match mode {
            Mode::Warm => {
                let workflows = Generator::suite(seed, WARM_FAMILIES, 0, 0)
                    .into_iter()
                    .map(render)
                    .collect::<Result<Vec<_>, _>>()?;
                // One adaptive request in 30, the rest half execute, half
                // optimize.
                let mut jobs = Vec::with_capacity(OPS);
                for i in 0..OPS {
                    let (op, family) = if i % WARM_ADAPTIVE_STRIDE == 0 {
                        let turn = i / WARM_ADAPTIVE_STRIDE;
                        (Op::Adaptive, turn % WARM_ADAPTIVE_FAMILIES)
                    } else if i % 2 == 0 {
                        (Op::Execute, rng.gen_range(0..WARM_FAMILIES))
                    } else {
                        (Op::Optimize, rng.gen_range(0..WARM_FAMILIES))
                    };
                    // An adaptive family belongs to one tenant, so its
                    // calibration store is the one the warm-up filled.
                    let tenant = match op {
                        Op::Adaptive => TENANTS[family % 2],
                        _ => TENANTS[(i / 2) % 2],
                    };
                    jobs.push(job(op, tenant, seed, i, family, &workflows[family]));
                }
                let mut warmup = Vec::new();
                for (f, wf) in workflows.iter().enumerate() {
                    warmup.push(job(Op::Execute, TENANTS[0], seed, f, f, wf));
                    if f < WARM_ADAPTIVE_FAMILIES {
                        warmup.push(job(Op::Adaptive, TENANTS[f % 2], seed, f, f, wf));
                    }
                }
                (workflows, jobs, warmup)
            }
            Mode::Cold => {
                // One never-seen family per request. Kinds and tenants
                // alternate, so every seed draws the same mix.
                let workflows = (0..OPS)
                    .map(|i| {
                        render(Generator::generate(GeneratorConfig {
                            seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                            category: if i % COLD_MEDIUM_STRIDE == COLD_MEDIUM_STRIDE - 1 {
                                SizeCategory::Medium
                            } else {
                                SizeCategory::Small
                            },
                        }))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let jobs = (0..OPS)
                    .map(|i| {
                        // Medium families all have an odd index: alternate
                        // among them as well.
                        let op = if (i + i / COLD_MEDIUM_STRIDE) % 2 == 0 {
                            Op::Optimize
                        } else {
                            Op::Execute
                        };
                        job(op, TENANTS[(i / 2) % 2], seed, i, i, &workflows[i])
                    })
                    .collect();
                (workflows, jobs, Vec::new())
            }
        };
        shuffle(&mut jobs, &mut rng);

        let server = spawn(server_config()).map_err(|e| format!("spawn daemon: {e}"))?;
        let serve = Serve {
            mode,
            seed,
            corrupt_reference: opts.corrupt_reference,
            families: workflows.len(),
            first: jobs.iter().map(|_| None).collect(),
            jobs,
            warmup,
            server: Some(server),
            traced_meta: Vec::new(),
        };
        // Caches fill in an untimed warm-up: users of a long-lived daemon
        // do not pay that cost per request.
        let warm = serve.drive(&serve.warmup, &mut Tracer::new(false))?;
        if let Some(bad) = warm.0.iter().flatten().find(|r| r.resp.code != Code::Ok) {
            return Err(format!("warm-up request failed: {}", bad.resp.error));
        }
        Ok(serve)
    }

    /// Send `jobs` through the two closed-loop clients. Returns each
    /// job's reply (or `None` if its connection failed) and the wall time
    /// from first send to last reply.
    fn drive(
        &self,
        jobs: &[Job],
        tracer: &mut Tracer,
    ) -> Result<(Vec<Option<Reply>>, f64), String> {
        let server = self.server.as_ref().ok_or("daemon is not running")?;
        let mut clients = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            clients.push(Client::connect(server)?);
        }
        let next = AtomicUsize::new(0);
        let started = Instant::now();
        let lanes: Vec<(Vec<(usize, Reply)>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .map(|mut client| {
                    let mut local = tracer.fork();
                    let next = &next;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break };
                            let id = i as u32;
                            let sent = Instant::now();
                            let op = local.enter(id, "op");
                            let wire = local.enter(id, "wire.roundtrip");
                            let reply = client.roundtrip(&job.line);
                            local.exit(wire);
                            let parse = local.enter(id, "proto.response_parse");
                            let resp = reply.and_then(|line| {
                                Response::parse(line.trim_end()).map(|r| (r, line.len()))
                            });
                            local.exit(parse);
                            local.exit(op);
                            let ms = sent.elapsed().as_secs_f64() * 1e3;
                            let Ok((resp, bytes)) = resp else { break };
                            if local.enabled {
                                // The only inside view of a live request.
                                let job_ns = field_u64(&meta_of(&resp), "elapsed_us") * 1_000;
                                local.synthetic(id, "server.job", wire, job_ns);
                            }
                            done.push((i, Reply { ms, resp, bytes }));
                        }
                        (done, local)
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let mut replies: Vec<Option<Reply>> = jobs.iter().map(|_| None).collect();
        for (done, local) in lanes {
            tracer.absorb(local);
            for (i, reply) in done {
                replies[i] = Some(reply);
            }
        }
        Ok((replies, wall_s))
    }

    fn stop_server(&mut self) -> Option<DrainReport> {
        self.server.take().map(|server| {
            server.shutdown();
            server.join()
        })
    }

    /// The plan an `execute` body carries must be the reference search's
    /// plan, and that plan must load what the unoptimised workflow loads
    /// (multiset-equal, surrogate keys rank-normalised).
    fn oracle_check(&self, job: &Job, body: &Value) -> Result<(), String> {
        let wf = text::parse(&job.req.workflow).map_err(|e| e.to_string())?;
        let oracle = Oracle::new(&wf, scenario_executor(&wf, ROWS, self.seed))
            .map_err(|e| format!("unoptimised workflow failed: {e}"))?;
        let best = BeamSearch::with_budget(SearchBudget::states(STATES).with_parallelism(1))
            .run(&wf, &RowCountModel::default())
            .map_err(|e| e.to_string())?
            .best;
        let plan = body.get("plan").and_then(Value::as_str).unwrap_or("");
        if text::render(&best).map_err(|e| e.to_string())? != plan {
            return Err("returned plan is not the reference search's plan".to_owned());
        }
        let broken = equivalence_failures(&oracle.check(&best));
        if broken.is_empty() {
            Ok(())
        } else {
            Err(broken.join("; "))
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop_server();
    }
}

/// An adaptive body must report a converged loop whose per-round
/// calibrated cost never rose.
fn adaptive_report_ok(body: &Value) -> bool {
    let Some(report) = body
        .get("report")
        .and_then(Value::as_str)
        .and_then(|r| json::parse(r).ok())
    else {
        return false;
    };
    let Some(Value::Arr(rounds)) = report.get("rounds") else {
        return false;
    };
    let costs: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.get("calibrated_cost").and_then(Value::as_f64))
        .collect();
    report.get("converged").and_then(Value::as_bool) == Some(true)
        && !costs.is_empty()
        && costs.windows(2).all(|w| w[1] <= w[0] * (1.0 + 1e-9))
}

impl Workload for Serve {
    fn ops_per_pass(&self) -> usize {
        self.jobs.len()
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn pass(&mut self, tracer: &mut Tracer) -> PassResult {
        let mut res = PassResult::default();
        if self.mode == Mode::Cold {
            // Untimed: every pass meets a daemon that has seen nothing.
            self.stop_server();
            self.server = spawn(server_config()).ok();
        }
        let (replies, wall_s) = match self.drive(&self.jobs, tracer) {
            Ok(done) => done,
            Err(_) => {
                res.failed = self.jobs.len() as u64;
                return res;
            }
        };
        res.wall_s = wall_s;
        let record_meta = tracer.enabled && self.traced_meta.is_empty();
        for (i, reply) in replies.into_iter().enumerate() {
            let Some(reply) = reply else {
                res.failed += 1;
                continue;
            };
            res.lat_ms.push(reply.ms);
            if reply.resp.code != Code::Ok {
                res.failed += 1;
                continue;
            }
            if record_meta {
                let meta = meta_of(&reply.resp);
                let m = |k| field_u64(&meta, k);
                self.traced_meta.push(MetaRow {
                    op: self.jobs[i].req.op,
                    cache_hits: m("cache_hits"),
                    cache_misses: m("cache_misses"),
                    cache_insertions: m("cache_insertions"),
                    harvest_runs: m("harvest_runs"),
                    warm_entries: m("warm_entries"),
                });
            }
            match &self.first[i] {
                // Bodies are canonical: the same request must get the same
                // bytes on every pass. (An adaptive body may legitimately
                // move with its tenant's store; it has its own check.)
                Some(first) => {
                    if self.jobs[i].req.op != Op::Adaptive && first.resp.body != reply.resp.body {
                        res.failed += 1;
                    }
                }
                None => self.first[i] = Some(reply),
            }
        }
        res
    }

    fn check(&mut self) -> CheckResult {
        let mut check = CheckResult::default();
        let mut oracle_done = vec![false; self.families];
        let mut corrupt = self.corrupt_reference;
        for (i, job) in self.jobs.iter().enumerate() {
            let label = || format!("op {i} ({})", job.req.op.name());
            let Some(reply) = &self.first[i] else {
                check.expect(false, || format!("{}: no reply", label()));
                continue;
            };
            check.expect(reply.resp.code == Code::Ok, || {
                format!(
                    "{}: code {}: {}",
                    label(),
                    reply.resp.code.as_u16(),
                    reply.resp.error
                )
            });
            let Ok(body) = json::parse(&reply.resp.body) else {
                check.expect(false, || format!("{}: body is not JSON", label()));
                continue;
            };
            if job.req.op == Op::Adaptive {
                check.expect(adaptive_report_ok(&body), || {
                    format!("{}: report not converged or not cost-monotone", label())
                });
                continue;
            }
            if i % BODY_CHECK_STRIDE == 0 {
                // The one-shot path on a registry that has seen nothing.
                let mut reference =
                    run_request(&Registry::new(ServerConfig::default()), &job.req).body;
                if std::mem::take(&mut corrupt) {
                    reference.push(' ');
                }
                check.expect(reference == reply.resp.body, || {
                    format!(
                        "{}: body differs from run_request on a fresh registry",
                        label()
                    )
                });
            }
            let stride = if self.mode == Mode::Cold {
                COLD_ORACLE_STRIDE
            } else {
                1
            };
            if job.req.op == Op::Execute && job.family % stride == 0 && !oracle_done[job.family] {
                oracle_done[job.family] = true;
                let verdict = self.oracle_check(job, &body);
                check.expect(verdict.is_ok(), || {
                    format!("{}: oracle: {}", label(), verdict.clone().unwrap_err())
                });
            }
        }
        check
    }

    fn plan_cost_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .filter_map(|r| json::parse(&r.resp.body).ok())
            .filter_map(|b| {
                let initial = b.get("initial_cost").and_then(Value::as_f64)?;
                let best = b.get("best_cost").and_then(Value::as_f64)?;
                (initial > 0.0).then_some(best / initial)
            })
            .collect();
        stats::geomean(&ratios)
    }

    fn layer_metrics(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> CheckResult {
        let mut check = CheckResult::default();
        let mut put = |k: &str, v: f64| {
            out.insert(k.to_owned(), v);
        };

        // serve / wire / job: the client's view of the live daemon.
        let op_kind: Vec<Op> = self.jobs.iter().map(|j| j.req.op).collect();
        let mut by_kind: [Vec<f64>; 3] = Default::default();
        let mut all = Vec::new();
        for s in tracer.spans().iter().filter(|s| s.name == "op") {
            let ms = s.dur_ns() as f64 / 1e6;
            all.push(ms);
            match op_kind[s.op_id as usize] {
                Op::Optimize => by_kind[0].push(ms),
                Op::Execute => by_kind[1].push(ms),
                _ => by_kind[2].push(ms),
            }
        }
        put("serve.optimize.latency_ms_p50", stats::median(&by_kind[0]));
        put("serve.execute.latency_ms_p50", stats::median(&by_kind[1]));
        put("serve.adaptive.latency_ms_p50", stats::median(&by_kind[2]));
        put("serve.latency_ms_p99", stats::percentile_of(&all, 0.99));
        put(
            "proto.response_parse_us_p50",
            stats::median(&tracer.durations_ms("proto.response_parse")) * 1e3,
        );
        let job_ms = tracer.durations_ms("server.job");
        put("job.elapsed_ms_p50", stats::median(&job_ms));
        // Round trip minus the job: socket write, connection thread,
        // queue wait, line parse, response write.
        let overhead: Vec<f64> = tracer
            .durations_ms("wire.roundtrip")
            .iter()
            .zip(&job_ms)
            .map(|(rt, job)| (rt - job).max(0.0))
            .collect();
        put("wire.overhead_ms_p50", stats::median(&overhead));
        put("wire.overhead_share", tracer.self_share("wire.roundtrip"));

        // cache / calibrate: per-request deltas the responses carried.
        let executes = self.traced_meta.iter().filter(|m| m.op == Op::Execute);
        let (hits, misses, insertions) = executes.fold((0, 0, 0), |acc, m| {
            (
                acc.0 + m.cache_hits,
                acc.1 + m.cache_misses,
                acc.2 + m.cache_insertions,
            )
        });
        put("cache.hits", hits as f64);
        put("cache.misses", misses as f64);
        put("cache.insertions", insertions as f64);
        put(
            "cache.hit_ratio",
            hits as f64 / ((hits + misses) as f64).max(1.0),
        );
        let adaptive: Vec<_> = self
            .traced_meta
            .iter()
            .filter(|m| m.op == Op::Adaptive)
            .collect();
        put(
            "calibrate.harvest_runs",
            stats::mean(
                &adaptive
                    .iter()
                    .map(|m| m.harvest_runs as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        put(
            "calibrate.warm_entries",
            stats::mean(
                &adaptive
                    .iter()
                    .map(|m| m.warm_entries as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        let rounds: Vec<f64> = self
            .jobs
            .iter()
            .zip(&self.first)
            .filter(|(j, _)| j.req.op == Op::Adaptive)
            .filter_map(|(_, r)| json::parse(&r.as_ref()?.resp.body).ok())
            .filter_map(|b| json::parse(b.get("report")?.as_str()?).ok())
            .filter_map(|r| r.get("rounds_used").and_then(Value::as_f64))
            .collect();
        put("calibrate.rounds", stats::mean(&rounds));

        // proto: sizes on the wire.
        put(
            "proto.request_bytes_mean",
            stats::mean(
                &self
                    .jobs
                    .iter()
                    .map(|j| j.line.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        put(
            "proto.response_bytes_mean",
            stats::mean(
                &self
                    .first
                    .iter()
                    .flatten()
                    .map(|r| r.bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        let mut renders = self.jobs.iter().cycle();
        put(
            "proto.request_render_us_p50",
            micro::median_us(200, || {
                if let Some(job) = renders.next() {
                    std::hint::black_box(job.req.render());
                }
            }),
        );

        // state / queue: the live registry, then the drain report.
        if let Some(server) = &self.server {
            let registry = server.registry();
            put(
                "state.stats_op_us_p50",
                micro::median_us(50, || {
                    std::hint::black_box(registry.stats_json());
                }),
            );
            if let Ok(stats_body) = json::parse(&registry.stats_json()) {
                let field = |k| stats_body.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                put("state.families", field("families"));
                put("state.memo_hits", field("memo_hits"));
                put("state.cache_hits", field("cache_hits"));
            }
            // The store an adaptive tenant accumulated, through the codec.
            let stored = self
                .jobs
                .iter()
                .find(|j| j.req.op == Op::Adaptive)
                .and_then(|j| {
                    let wf = text::parse(&j.req.workflow).ok()?;
                    let digest = text::family_digest(&wf).ok()?;
                    let store = registry.calibration(&j.req.tenant, digest).ok()?;
                    let copy = store.lock().ok()?.clone();
                    Some(copy)
                });
            if let Some(store) = stored {
                let path = std::env::temp_dir().join("calibration-microspan.json");
                put(
                    "calibrate.store_save_us_p50",
                    micro::median_us(20, || {
                        std::hint::black_box(store.save(&path).ok());
                    }),
                );
                put(
                    "calibrate.store_load_us_p50",
                    micro::median_us(20, || {
                        std::hint::black_box(etlopt_workload::CalibrationStore::load(&path).ok());
                    }),
                );
            }
        }
        if let Some(drain) = self.stop_server() {
            put("queue.rejected_429", drain.rejected_full as f64);
            put("queue.rejected_503", drain.rejected_draining as f64);
        }

        // The same request stream in-process: once through `run_request`
        // (no TCP, one thread), once stage by stage, on two registries
        // brought to the state the daemon was in.
        let (whole, staged) = (
            Registry::new(server_config()),
            Registry::new(server_config()),
        );
        for job in &self.warmup {
            run_request(&whole, &job.req);
            run_request(&staged, &job.req);
        }
        let mut whole_ms = Vec::new();
        let (mut parsed_bytes, mut generated_rows) = (0usize, 0usize);
        for (i, job) in self.jobs.iter().take(REPLAYED).enumerate() {
            let started = Instant::now();
            let reference = run_request(&whole, &job.req);
            whole_ms.push(started.elapsed().as_secs_f64() * 1e3);
            parsed_bytes += job.req.workflow.len();
            if job.req.op != Op::Optimize {
                generated_rows += source_count(&job.req.workflow) * ROWS;
            }
            let replayed = replay::replay(&staged, job.line.trim_end(), i as u32, tracer);
            // The stage table is only worth reading if it is the real path.
            check.expect(
                matches!(&replayed, Ok((_, body)) if *body == reference.body),
                || format!("replayed body of op {i} differs from run_request's"),
            );
        }
        put("job.run_request_ms_p50", stats::median(&whole_ms));
        let stage_us = |name: &str| stats::median(&tracer.durations_ms(name)) * 1e3;
        put(
            "proto.request_parse_us_p50",
            stage_us("proto.request_parse"),
        );
        put(
            "proto.response_render_us_p50",
            stage_us("proto.response_render"),
        );
        put("text.parse_us_p50", stage_us("text.parse"));
        put("text.render_us_p50", stage_us("text.render"));
        put("text.family_digest_us_p50", stage_us("text.family_digest"));
        let parse_s = tracer.durations_ms("text.parse").iter().sum::<f64>() / 1e3;
        put(
            "text.parse_mb_per_s",
            parsed_bytes as f64 / 1e6 / parse_s.max(1e-9),
        );
        put("opt.search_ms_p50", stage_us("opt.search") / 1e3);
        put("opt.self_share", tracer.self_share("opt.search"));
        put(
            "exec.run_stream_ms_p50",
            stage_us("exec.run_stream_shared") / 1e3,
        );
        put(
            "datagen.catalog_ms_p50",
            stage_us("datagen.catalog_for") / 1e3,
        );
        let catalog_s = tracer
            .durations_ms("datagen.catalog_for")
            .iter()
            .sum::<f64>()
            / 1e3;
        put(
            "datagen.rows_per_s",
            generated_rows as f64 / catalog_s.max(1e-9),
        );
        put("job.catalog_digest_us_p50", stage_us("job.catalog_digest"));
        put("job.table_digest_us_p50", stage_us("job.table_digest"));
        put(
            "calibrate.adaptive_ms_p50",
            stage_us("calibrate.adaptive") / 1e3,
        );
        check
    }
}
