//! Job execution: the one code path shared by server workers and the
//! client's `oneshot` mode.
//!
//! [`run_request`] is deliberately the *only* way a job op produces a
//! body, so "server responses are byte-identical to the one-shot
//! binaries" is true by construction: the server runs `run_request`
//! against the process-wide registry, `oneshot` runs it against a fresh
//! single-request registry, and the body bytes agree because everything
//! the shared state could change (cache hits, memo hits, elapsed time)
//! is reported in the envelope's non-canonical `meta`, never in `body`.
//!
//! Canonical-body rules:
//!
//! * search counters come from [`SearchStats::counters_json`], which
//!   excludes memo telemetry — a warm shared memo changes hit counts but
//!   not the counters the body carries;
//! * executed targets are reported as row counts plus a multiset digest,
//!   never per-activity [`ExecStats`] — a warm shared cache serves
//!   prefix results without re-running their activities, so per-activity
//!   stats are the one execution artifact that is *not*
//!   concurrency-stable.
//!
//! That contract makes an `optimize` / `execute` body a pure function of
//! (algorithm, clamped budgets, workflow text) — plus rows and seed for
//! the executed targets — whenever the search's time cap did not bind,
//! and it is what the registry's plan tier ([`crate::state`]) rests on:
//! such a body is always rendered from a `Plan`, which is either found
//! under the exact request before anything is parsed, or produced by
//! parsing and searching. A search that did observe its deadline is the
//! one place a body may differ between machines; it is flagged
//! `"time_capped":true` in `meta` and its plan is never stored.

use std::sync::Arc;
use std::time::{Duration, Instant};

use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{
    run_adaptive, AdaptiveConfig, BeamSearch, ExhaustiveSearch, HeuristicSearch, HsGreedy,
    MoveMemo, Optimizer, SearchBudget,
};
use etlopt_core::text;
use etlopt_core::workflow::Workflow;
use etlopt_engine::{Catalog, Executor, Harvester, Table};
use etlopt_workload::{datagen, CalibrationStore};

use crate::json;
use crate::proto::{Code, Op, Request, Response};
use crate::state::{relock, Family, Plan, PlanKey, Registry};

/// The seed tweak `etlopt-conformance::scenario_executor` applies before
/// generating the synthetic catalog; replicated here so a server
/// `execute` sees exactly the conformance suite's data for the same
/// (workflow, rows, seed) triple.
const DATA_SEED_TWEAK: u64 = 0xD1FF_C0DE;

/// A request after server-side clamping: the budgets the job actually
/// runs with. Clamped values are part of the canonical body, so a client
/// asking for more than the ceiling sees what it actually got — except
/// `parallelism`, which is a pure resource knob (results are
/// parallelism-invariant, enforced by the search-determinism suite) and
/// whose ceiling is machine-dependent: echoing it would break
/// byte-identity between servers with different core counts.
struct Effective {
    states: usize,
    time_ms: u64,
    rows: usize,
    rounds: usize,
    parallelism: usize,
}

fn clamp(req: &Request, reg: &Registry) -> Effective {
    let cfg = reg.config();
    // Ceilings are normalized with `.max(1)`: `clamp` panics when
    // min > max, and a zero ceiling in a hand-built config must degrade
    // to "smallest budget", never panic a worker thread (a panicked
    // worker strands every client queued behind it).
    Effective {
        states: req.states.clamp(1, cfg.max_states.max(1)),
        time_ms: req.time_ms.clamp(1, cfg.max_time_ms.max(1)),
        rows: req.rows.clamp(1, cfg.max_rows.max(1)),
        rounds: req.rounds.clamp(1, cfg.max_rounds.max(1)),
        parallelism: req.parallelism.clamp(1, cfg.max_parallelism.max(1)),
    }
}

fn build_optimizer(req: &Request, eff: &Effective, memo: Arc<MoveMemo>) -> Box<dyn Optimizer> {
    let budget = SearchBudget::states(eff.states)
        .with_max_time(Duration::from_millis(eff.time_ms))
        .with_parallelism(eff.parallelism);
    match req.algo.as_str() {
        "es" => Box::new(ExhaustiveSearch::with_budget(budget).with_shared_memo(memo)),
        "hs" => Box::new(HeuristicSearch::with_budget(budget)),
        "hs-greedy" => Box::new(HsGreedy::with_budget(budget)),
        // Request::parse validated the algo name already.
        _ => Box::new(BeamSearch::with_budget(budget).with_shared_memo(memo)),
    }
}

/// The synthetic catalog the one-shot conformance path would generate
/// for this request.
fn catalog_for_request(wf: &Workflow, rows: usize, seed: u64) -> Catalog {
    datagen::catalog_for(wf, rows, seed ^ DATA_SEED_TWEAK)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn feed(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Order-independent digest of the catalog generated for a job: each
/// source's name and [`table_digest`], folded in sorted-name order.
///
/// This is a load-bearing part of the shared-cache key (see
/// [`crate::state::Family::cache`]): [`datagen::catalog_for`] threads
/// *one* RNG across sources in declaration order, while family digests
/// and the engine's node fingerprints are declaration-order-canonical.
/// Two same-family workflows that declare their sources in a different
/// textual order therefore generate different per-source data under
/// identical (family, rows, seed) — only requests whose generated data
/// is bit-identical may share cached intermediates.
pub fn catalog_digest(wf: &Workflow, catalog: &Catalog) -> u64 {
    use etlopt_core::graph::Node;
    let mut entries: Vec<(&str, u64)> = Vec::new();
    for src in wf.sources() {
        let Ok(Node::Recordset(rs)) = wf.graph().node(src) else {
            continue;
        };
        if let Some(table) = catalog.table(&rs.name) {
            entries.push((rs.name.as_str(), table_digest(table)));
        }
    }
    entries.sort_unstable();
    let mut digest = FNV_OFFSET;
    for (name, table) in entries {
        feed(&mut digest, name.as_bytes());
        feed(&mut digest, b"\x1f");
        feed(&mut digest, &table.to_be_bytes());
    }
    digest
}

/// Order-independent digest of a table as a multiset of rows, over typed
/// scalar bytes (FNV-1a folded per row, row hashes sorted, then folded
/// with the schema). Stable across runs, platforms and — because it
/// ignores row order — across streaming/caching execution strategies.
pub fn table_digest(table: &Table) -> u64 {
    fn feed_scalar(h: &mut u64, s: &etlopt_core::scalar::Scalar) {
        use etlopt_core::scalar::Scalar;
        match s {
            Scalar::Null => feed(h, b"N"),
            Scalar::Int(i) => {
                feed(h, b"i");
                feed(h, &i.to_be_bytes());
            }
            Scalar::Float(f) => {
                feed(h, b"f");
                feed(h, &f.to_bits().to_be_bytes());
            }
            Scalar::Str(s) => {
                feed(h, b"s");
                feed(h, &(s.len() as u64).to_be_bytes());
                feed(h, s.as_bytes());
            }
            Scalar::Bool(b) => feed(h, if *b { b"b1" } else { b"b0" }),
            Scalar::Date(d) => {
                feed(h, b"d");
                feed(h, &d.to_be_bytes());
            }
        }
    }
    let mut row_hashes: Vec<u64> = table
        .rows()
        .iter()
        .map(|row| {
            let mut h = FNV_OFFSET;
            for s in row {
                feed_scalar(&mut h, s);
            }
            h
        })
        .collect();
    row_hashes.sort_unstable();
    let mut digest = FNV_OFFSET;
    for attr in table.schema().iter() {
        feed(&mut digest, attr.name().as_bytes());
        feed(&mut digest, b"\x1f");
    }
    for h in row_hashes {
        feed(&mut digest, &h.to_be_bytes());
    }
    digest
}

/// Observational (non-canonical) metadata accumulated while a job runs.
///
/// `plan_cache` is `"hit"`, `"miss"` or `"skip"` (adaptive never consults
/// the plan tier). On a hit no search ran in this request: `memo_hits` and
/// `memo_misses` are 0 and `time_capped` is `false` (a time-capped search
/// is never stored). `time_capped` is the one thing that tells a caller
/// the body may differ on another machine or under another load.
struct Meta {
    started: Instant,
    memo_hits: u64,
    memo_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_insertions: u64,
    harvest_runs: u64,
    warm_entries: usize,
    time_capped: bool,
    plan_cache: &'static str,
}

impl Meta {
    fn new() -> Meta {
        Meta {
            started: Instant::now(),
            memo_hits: 0,
            memo_misses: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_insertions: 0,
            harvest_runs: 0,
            warm_entries: 0,
            time_capped: false,
            plan_cache: "skip",
        }
    }

    /// Charge the job with what `memo` counted since `(hits, misses)`.
    fn memo_since(&mut self, memo: &MoveMemo, (hits, misses): (u64, u64)) {
        let (h, m) = memo.stats();
        self.memo_hits = h.saturating_sub(hits);
        self.memo_misses = m.saturating_sub(misses);
    }

    fn render(&self) -> String {
        format!(
            concat!(
                "{{\"elapsed_us\":{},\"memo_hits\":{},\"memo_misses\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_insertions\":{},",
                "\"harvest_runs\":{},\"warm_entries\":{},",
                "\"time_capped\":{},\"plan_cache\":\"{}\"}}"
            ),
            self.started.elapsed().as_micros(),
            self.memo_hits,
            self.memo_misses,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.harvest_runs,
            self.warm_entries,
            self.time_capped,
            self.plan_cache,
        )
    }
}

/// Run one request against `registry` and produce its response envelope.
/// Everything in the returned body is canonical: a fresh registry and a
/// warm shared one yield the same bytes for the same effective request.
pub fn run_request(registry: &Registry, req: &Request) -> Response {
    match req.op {
        Op::Ping => Response::ok(&req.id, "{\"op\":\"ping\"}".to_owned(), String::new()),
        Op::Stats => Response::ok(&req.id, registry.stats_json(), String::new()),
        // The server intercepts shutdown before run_request; reaching it
        // here (client oneshot mode) is a no-op acknowledgement.
        Op::Shutdown => Response::ok(
            &req.id,
            "{\"op\":\"shutdown\",\"draining\":true}".to_owned(),
            String::new(),
        ),
        Op::Optimize | Op::Execute | Op::Adaptive => run_job(registry, req),
    }
}

/// Why a job failed: the code it answers with, and the message.
type Failure = (Code, String);

fn internal(e: String) -> Failure {
    (Code::Internal, e)
}

fn run_job(registry: &Registry, req: &Request) -> Response {
    let eff = clamp(req, registry);
    let mut meta = Meta::new();
    let body = match req.op {
        Op::Adaptive => adaptive_body(req, &eff, registry, &mut meta),
        // Optimize and execute: one path, a body is always rendered from
        // a `Plan`; a plan-tier hit merely skips producing it.
        _ => plan_for(req, &eff, registry, &mut meta)
            .and_then(|plan| plan_body(req, &eff, &plan, &mut meta)),
    };
    match body {
        Ok(body) => Response::ok(&req.id, body, meta.render()),
        Err((code, e)) => Response::fail(&req.id, code, e),
    }
}

/// A request's workflow, parsed, with its family's shared state.
struct Parsed {
    wf: Workflow,
    digest: u128,
    family: Arc<Family>,
    /// Was the family in the registry before this request?
    seen: bool,
}

fn parse_workflow(req: &Request, registry: &Registry) -> Result<Parsed, Failure> {
    let wf =
        text::parse(&req.workflow).map_err(|e| (Code::BadRequest, format!("workflow: {e}")))?;
    let digest =
        text::family_digest(&wf).map_err(|e| (Code::BadRequest, format!("family digest: {e}")))?;
    let (family, seen) = registry.family_seen(digest);
    Ok(Parsed {
        wf,
        digest,
        family,
        seen,
    })
}

/// The plan an `optimize` / `execute` body is rendered from: the one
/// stored for this exact request, or else a fresh search's, looked up
/// before anything is parsed. No lock is held while searching — two
/// concurrent misses both search, and the second store is a no-op (their
/// plans are equal by the byte-identity contract). The fresh plan is
/// stored only if its family had been seen before this request (one-off
/// traffic stores nothing) and the search never observed its deadline (a
/// time-capped result is the one body that may differ across machines).
fn plan_for(
    req: &Request,
    eff: &Effective,
    registry: &Registry,
    meta: &mut Meta,
) -> Result<Arc<Plan>, Failure> {
    let key = PlanKey {
        algo: req.algo.clone(),
        states: eff.states,
        time_ms: eff.time_ms,
        text: req.workflow.clone(),
    };
    if let Some(plan) = registry.plan(&key) {
        meta.plan_cache = "hit";
        return Ok(plan);
    }
    meta.plan_cache = "miss";
    let Parsed {
        wf,
        digest,
        family,
        seen,
    } = parse_workflow(req, registry)?;
    let memo = family.memo();
    let before = memo.stats();
    let outcome = build_optimizer(req, eff, Arc::clone(&memo))
        .run(&wf, &RowCountModel::default())
        .map_err(|e| internal(format!("search: {e}")))?;
    meta.memo_since(&memo, before);
    meta.time_capped = outcome.time_capped;
    let plan_text =
        text::render(&outcome.best).map_err(|e| internal(format!("render plan: {e}")))?;
    let fragment = format!(
        concat!(
            "\"initial_cost\":{},\"best_cost\":{},\"visited_states\":{},",
            "\"budget_exhausted\":{},\"plan\":\"{}\",\"counters\":\"{}\""
        ),
        outcome.initial_cost,
        outcome.best_cost,
        outcome.visited_states,
        outcome.budget_exhausted,
        json::escape(&plan_text),
        json::escape(&outcome.stats.counters_json()),
    );
    let plan = Arc::new(Plan {
        digest,
        family,
        best: outcome.best,
        fragment,
    });
    if seen && !outcome.time_capped {
        registry.store_plan(key, Arc::clone(&plan));
    }
    Ok(plan)
}

/// Render an `optimize` / `execute` body from its plan.
fn plan_body(
    req: &Request,
    eff: &Effective,
    plan: &Plan,
    meta: &mut Meta,
) -> Result<String, Failure> {
    if req.op != Op::Execute {
        return Ok(format!(
            "{{\"op\":\"optimize\",\"algo\":\"{}\",\"family\":\"{:032x}\",\"states\":{},\"time_ms\":{},{}}}",
            req.algo, plan.digest, eff.states, eff.time_ms, plan.fragment,
        ));
    }
    // Generate the data before touching the cache: the cache key needs a
    // digest of the catalog actually generated (datagen is source-
    // declaration-order-sensitive; family digests are not). The plan keeps
    // the request workflow's sources, ids and order, so this is the
    // catalog the request's own text generates.
    let catalog = catalog_for_request(&plan.best, eff.rows, req.seed);
    let cache = plan
        .family
        .cache(eff.rows, req.seed, catalog_digest(&plan.best, &catalog));
    let (h0, m0, i0) = cache.counters();
    let run = Executor::new(catalog)
        .run_stream_shared(&plan.best, &cache)
        .map_err(|e| internal(format!("execute: {e}")))?;
    let (h1, m1, i1) = cache.counters();
    meta.cache_hits = h1.saturating_sub(h0);
    meta.cache_misses = m1.saturating_sub(m0);
    meta.cache_insertions = i1.saturating_sub(i0);
    let mut targets = String::new();
    for (name, table) in &run.result.targets {
        if !targets.is_empty() {
            targets.push(',');
        }
        targets.push_str(&format!(
            "\"{}\":{{\"rows\":{},\"digest\":\"{:016x}\"}}",
            json::escape(name),
            table.len(),
            table_digest(table),
        ));
    }
    Ok(format!(
        concat!(
            "{{\"op\":\"execute\",\"algo\":\"{}\",\"family\":\"{:032x}\",",
            "\"states\":{},\"time_ms\":{},\"rows\":{},\"seed\":{},",
            "{},\"targets\":{{{}}}}}"
        ),
        req.algo, plan.digest, eff.states, eff.time_ms, eff.rows, req.seed, plan.fragment, targets,
    ))
}

fn adaptive_body(
    req: &Request,
    eff: &Effective,
    registry: &Registry,
    meta: &mut Meta,
) -> Result<String, Failure> {
    let Parsed {
        wf, digest, family, ..
    } = parse_workflow(req, registry)?;
    let memo = family.memo();
    let before = memo.stats();
    let optimizer = build_optimizer(req, eff, Arc::clone(&memo));
    let model = RowCountModel::default();
    // Adaptive deliberately does NOT use the family's shared result
    // cache: calibration harvests per-activity statistics, and a
    // cache-served prefix executes no activities — a pre-warmed cache
    // would starve the harvester of observations and change the report.
    // The private per-job cache below still reuses prefixes *across
    // rounds*, exactly like the one-shot adaptive path; the cross-job
    // shared win for adaptive is the warm calibration store. Nor does it
    // touch the plan tier: its searches price with the tenant's
    // calibration, which no request key could capture.
    let mut harvester = Harvester::new(Executor::new(catalog_for_request(&wf, eff.rows, req.seed)));
    let cfg = AdaptiveConfig::rounds(eff.rounds);

    let report = if req.warm {
        // Warm: run against the tenant's accumulated calibration, hold
        // its lock for the whole loop (adaptive rounds interleave reads
        // and writes), persist afterwards.
        let store = registry
            .calibration(&req.tenant, digest)
            .map_err(|e| internal(format!("calibration store: {e}")))?;
        let mut guard = relock(store.lock());
        meta.warm_entries = guard.len();
        let report = run_adaptive(
            &wf,
            &model,
            optimizer.as_ref(),
            &mut harvester,
            &mut *guard,
            cfg,
        )
        .map_err(|e| internal(format!("adaptive: {e}")))?;
        registry
            .persist_calibration(&req.tenant, digest, &guard)
            .map_err(|e| internal(format!("calibration store: {e}")))?;
        report
    } else {
        // Cold: a throwaway store, never merged back — a pure baseline
        // run that cannot leak observations into the tenant's state.
        let mut store = CalibrationStore::new();
        run_adaptive(
            &wf,
            &model,
            optimizer.as_ref(),
            &mut harvester,
            &mut store,
            cfg,
        )
        .map_err(|e| internal(format!("adaptive: {e}")))?
    };
    meta.memo_since(&memo, before);
    meta.time_capped = report.rounds.iter().any(|r| r.time_capped);
    let counters = harvester.counters();
    meta.cache_hits = counters.cache_hits;
    meta.cache_misses = counters.cache_misses;
    meta.cache_insertions = counters.cache_insertions;
    meta.harvest_runs = harvester.runs();
    Ok(format!(
        concat!(
            "{{\"op\":\"adaptive\",\"algo\":\"{}\",\"family\":\"{:032x}\",",
            "\"states\":{},\"time_ms\":{},\"rows\":{},\"seed\":{},",
            "\"rounds\":{},\"warm\":{},\"report\":\"{}\"}}"
        ),
        req.algo,
        digest,
        eff.states,
        eff.time_ms,
        eff.rows,
        req.seed,
        eff.rounds,
        req.warm,
        json::escape(&report.to_json()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServerConfig;

    const WF: &str = concat!(
        "source \"S\" file rows=40 (pkey, cost, date)\n",
        "target \"DW\" table (pkey, cost, date)\n",
        "activity nn \"NotNull\" from \"S\" op not_null(cost) sel 0.9\n",
        "activity sk \"SK\" from nn op surrogate_key(pkey) sel 1.0\n",
        "edge sk -> \"DW\"\n",
    );

    /// A workflow in the repo's DSL; tests that only need *a* valid
    /// workflow parse whatever the current grammar accepts.
    fn sample_workflow() -> String {
        match text::parse(WF) {
            Ok(_) => WF.to_owned(),
            // Grammar drifted: fall back to rendering a generated one.
            Err(_) => {
                use etlopt_workload::{Generator, GeneratorConfig, SizeCategory};
                let s = Generator::generate(GeneratorConfig {
                    seed: 2005,
                    category: SizeCategory::Small,
                });
                text::render(&s.workflow).expect("render generated workflow")
            }
        }
    }

    fn request(op: Op, workflow: &str) -> Request {
        Request {
            id: "t".to_owned(),
            tenant: "public".to_owned(),
            op,
            algo: "hs".to_owned(),
            states: 600,
            time_ms: 10_000,
            parallelism: 1,
            rows: 64,
            seed: 2005,
            rounds: 6,
            warm: true,
            workflow: workflow.to_owned(),
        }
    }

    #[test]
    fn bodies_are_identical_across_fresh_and_warm_registries() {
        let wf = sample_workflow();
        for op in [Op::Optimize, Op::Execute, Op::Adaptive] {
            let mut req = request(op, &wf);
            // Warm adaptive is *deliberately* stateful (the tenant's
            // calibration accumulates across requests); the byte
            // contract for adaptive covers the cold baseline.
            if op == Op::Adaptive {
                req.warm = false;
            }
            let fresh = |_: ()| {
                let reg = Registry::new(ServerConfig::default());
                run_request(&reg, &req)
            };
            let a = fresh(());
            let b = fresh(());
            assert_eq!(a.code, Code::Ok, "{op:?}: {}", a.error);
            assert_eq!(a.body, b.body, "{op:?} body must be deterministic");

            // Warm registry: run the same request twice; second body must
            // match the first (and the fresh ones) byte-for-byte.
            let reg = Registry::new(ServerConfig::default());
            let c = run_request(&reg, &req);
            let d = run_request(&reg, &req);
            assert_eq!(c.body, a.body, "{op:?} warm registry changed the body");
            assert_eq!(d.body, a.body, "{op:?} second warm run changed the body");
        }
    }

    #[test]
    fn budgets_are_clamped_to_server_ceilings() {
        let wf = sample_workflow();
        let cfg = ServerConfig {
            max_states: 100,
            max_rows: 16,
            max_time_ms: 500,
            ..ServerConfig::default()
        };
        let reg = Registry::new(cfg);
        let mut req = request(Op::Execute, &wf);
        req.states = 50_000;
        req.rows = 100_000;
        req.time_ms = 3_600_000;
        let resp = run_request(&reg, &req);
        assert_eq!(resp.code, Code::Ok, "{}", resp.error);
        assert!(resp.body.contains("\"states\":100"), "{}", resp.body);
        assert!(resp.body.contains("\"rows\":16"), "{}", resp.body);
        assert!(resp.body.contains("\"time_ms\":500"), "{}", resp.body);
    }

    #[test]
    fn parallelism_is_clamped_and_zero_ceilings_cannot_panic() {
        let wf = sample_workflow();
        let reg = Registry::new(ServerConfig {
            max_parallelism: 2,
            ..ServerConfig::default()
        });
        let mut req = request(Op::Optimize, &wf);
        req.parallelism = 1_000_000;
        let eff = clamp(&req, &reg);
        assert_eq!(eff.parallelism, 2, "parallelism must honor the ceiling");

        // Zero ceilings: `x.clamp(1, 0)` panics (min > max), and a
        // panicked worker never respawns — degrade to budget 1 instead.
        let zero = Registry::new(ServerConfig {
            max_states: 0,
            max_time_ms: 0,
            max_rows: 0,
            max_rounds: 0,
            max_parallelism: 0,
            ..ServerConfig::default()
        });
        let eff = clamp(&req, &zero);
        assert_eq!(
            (
                eff.states,
                eff.time_ms,
                eff.rows,
                eff.rounds,
                eff.parallelism
            ),
            (1, 1, 1, 1, 1)
        );
        // And a full job against the degenerate config still answers.
        let resp = run_request(&zero, &request(Op::Execute, &wf));
        assert_eq!(resp.code, Code::Ok, "{}", resp.error);
    }

    /// Two same-family workflows whose sources are declared in opposite
    /// textual order: `datagen::catalog_for` threads one RNG across
    /// sources in declaration order, so the per-source data differs even
    /// though (family, rows, seed) agree. The shared result cache must
    /// key on the generated data too — otherwise the second workflow is
    /// served intermediates computed over the first one's catalog.
    ///
    /// The pair below is built to make the poisoning *observable*: node
    /// fingerprints digest recordset priorities (declaration order), not
    /// names, and family digests ignore graph wiring — so `g`, an
    /// aggregate (whose output schema depends only on its group/agg
    /// spec, never its input schema) wired to the priority-1 source in
    /// both texts, has the *same fingerprint* over `A`'s 1-attribute
    /// data in one workflow and `B`'s 2-attribute data in the other.
    /// Without the data component in the cache key, the second request
    /// is served the first one's aggregate.
    #[test]
    fn source_declaration_order_cannot_poison_the_shared_cache() {
        let ab = concat!(
            "source \"A\" table rows=40 (cost)\n",
            "source \"B\" table rows=40 (cost, date)\n",
            "activity g \"G1\" = aggregate group(cost) sum(cost -> t1) sel=0.5 <- \"A\"\n",
            "activity nn \"NN\" = not_null(date) sel=0.97 <- \"B\"\n",
            "activity g2 \"G2\" = aggregate group(cost) sum(cost -> t2) sel=0.5 <- \"B\"\n",
            "target \"T1\" table (cost, t1) <- g\n",
            "target \"T2\" table (cost, date) <- nn\n",
            "target \"T3\" table (cost, t2) <- g2\n",
        )
        .to_owned();
        let ba = concat!(
            "source \"B\" table rows=40 (cost, date)\n",
            "source \"A\" table rows=40 (cost)\n",
            "activity g \"G1\" = aggregate group(cost) sum(cost -> t1) sel=0.5 <- \"B\"\n",
            "activity nn \"NN\" = not_null(date) sel=0.97 <- \"B\"\n",
            "activity g2 \"G2\" = aggregate group(cost) sum(cost -> t2) sel=0.5 <- \"A\"\n",
            "target \"T1\" table (cost, t1) <- g\n",
            "target \"T2\" table (cost, date) <- nn\n",
            "target \"T3\" table (cost, t2) <- g2\n",
        )
        .to_owned();
        let wf_ab = text::parse(&ab).expect("parse ab");
        let wf_ba = text::parse(&ba).expect("parse ba");
        assert_eq!(
            text::family_digest(&wf_ab).unwrap(),
            text::family_digest(&wf_ba).unwrap(),
            "declaration order must not change the family"
        );
        // The hazard is real: same family, same (rows, seed), different
        // generated data — and the catalog digest tells them apart.
        let dig_ab = catalog_digest(&wf_ab, &catalog_for_request(&wf_ab, 64, 2005));
        let dig_ba = catalog_digest(&wf_ba, &catalog_for_request(&wf_ba, 64, 2005));
        assert_ne!(dig_ab, dig_ba, "swapped sources must re-key the cache");
        assert_eq!(
            dig_ab,
            catalog_digest(&wf_ab, &catalog_for_request(&wf_ab, 64, 2005)),
            "the digest itself is deterministic"
        );

        // One-shot references, each on a fresh registry.
        let fresh_ab = run_request(
            &Registry::new(ServerConfig::default()),
            &request(Op::Execute, &ab),
        );
        let fresh_ba = run_request(
            &Registry::new(ServerConfig::default()),
            &request(Op::Execute, &ba),
        );
        assert_eq!(fresh_ab.code, Code::Ok, "{}", fresh_ab.error);
        assert_eq!(fresh_ba.code, Code::Ok, "{}", fresh_ba.error);
        assert_ne!(
            fresh_ab.body, fresh_ba.body,
            "swapped declarations generate different data, so the \
             poisoning would be observable"
        );

        // Shared registry, ab first: ba must still match ITS one-shot
        // body, not inherit ab's cached intermediates.
        let reg = Registry::new(ServerConfig::default());
        let warm_ab = run_request(&reg, &request(Op::Execute, &ab));
        assert_eq!(warm_ab.body, fresh_ab.body);
        let warm_ba = run_request(&reg, &request(Op::Execute, &ba));
        assert_eq!(
            warm_ba.body, fresh_ba.body,
            "sibling with re-ordered sources was served the wrong catalog"
        );
    }

    #[test]
    fn malformed_workflows_are_bad_requests() {
        let reg = Registry::new(ServerConfig::default());
        let req = request(Op::Optimize, "this is not the DSL");
        let resp = run_request(&reg, &req);
        assert_eq!(resp.code, Code::BadRequest);
        assert!(resp.error.contains("workflow"), "{}", resp.error);
    }

    #[test]
    fn table_digest_is_order_independent_but_value_sensitive() {
        use etlopt_core::scalar::Scalar;
        use etlopt_core::schema::Schema;
        let schema = Schema::of(["a", "b"]);
        let t1 = Table::from_rows(
            schema.clone(),
            vec![
                vec![Scalar::Int(1), Scalar::Str("x".into())],
                vec![Scalar::Int(2), Scalar::Str("y".into())],
            ],
        )
        .unwrap();
        let t2 = Table::from_rows(
            schema.clone(),
            vec![
                vec![Scalar::Int(2), Scalar::Str("y".into())],
                vec![Scalar::Int(1), Scalar::Str("x".into())],
            ],
        )
        .unwrap();
        let t3 = Table::from_rows(
            schema,
            vec![
                vec![Scalar::Int(1), Scalar::Str("x".into())],
                vec![Scalar::Int(2), Scalar::Str("z".into())],
            ],
        )
        .unwrap();
        assert_eq!(table_digest(&t1), table_digest(&t2));
        assert_ne!(table_digest(&t1), table_digest(&t3));
    }
}
