//! Job execution: the one code path shared by the server's connection
//! threads and the client's `oneshot` mode.
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
//! * search counters come from
//!   [`etlopt_core::trace::SearchStats::counters_json`], which excludes
//!   memo telemetry — a warm shared memo changes hit counts but not the
//!   counters the body carries;
//! * executed targets are reported as row counts plus a multiset digest,
//!   never per-activity [`etlopt_engine::ExecStats`] — a warm shared
//!   cache serves prefix results without re-running their activities, so
//!   per-activity stats are the one execution artifact that is *not*
//!   concurrency-stable.
//!
//! That contract makes a body a pure function of the clamped request —
//! (algorithm, budgets, workflow text), plus rows and seed for executed
//! targets and rounds for an `adaptive` — whenever no search's time cap
//! bound; a warm `adaptive`'s is a function of that and of its tenant's
//! store before the loop. The registry's tier of remembered bodies
//! ([`crate::state`]) rests on it: every job op looks its `BodyKey` up
//! before anything is parsed; on a miss it parses, searches with the bare
//! optimizer, renders, and remembers the body under one admission rule
//! (`miss`). A search that did observe its deadline is the one place a
//! body may differ between machines; it is flagged `"time_capped":true` in
//! `meta` and its body is never remembered.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use etlopt_core::cost::RowCountModel;
use etlopt_core::graph::Node;
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
use crate::state::{relock, BodyKey, Family, Guard, Registry};

/// A request after server-side clamping: the budgets the job actually
/// runs with. Clamped values are part of the canonical body, so a client
/// asking for more than the ceiling sees what it actually got. A request's
/// `parallelism` is not here: it is ignored.
struct Effective {
    states: usize,
    time_ms: u64,
    rows: usize,
    rounds: usize,
}

fn clamp(req: &Request, reg: &Registry) -> Effective {
    let cfg = reg.config();
    // Ceilings are normalized with `.max(1)`: `clamp` panics when
    // min > max, and a zero ceiling in a hand-built config must degrade
    // to "smallest budget", not to a caught panic's `500` on every job.
    Effective {
        states: req.states.clamp(1, cfg.max_states.max(1)),
        time_ms: req.time_ms.clamp(1, cfg.max_time_ms.max(1)),
        rows: req.rows.clamp(1, cfg.max_rows.max(1)),
        rounds: req.rounds.clamp(1, cfg.max_rounds.max(1)),
    }
}

fn build_optimizer(req: &Request, eff: &Effective, memo: Arc<MoveMemo>) -> Box<dyn Optimizer> {
    let budget = SearchBudget::states(eff.states).with_max_time(Duration::from_millis(eff.time_ms));
    match req.algo.as_str() {
        "es" => Box::new(ExhaustiveSearch::with_budget(budget).with_shared_memo(memo)),
        "hs" => Box::new(HeuristicSearch::with_budget(budget)),
        "hs-greedy" => Box::new(HsGreedy::with_budget(budget)),
        // Request::parse validated the algo name already.
        _ => Box::new(BeamSearch::with_budget(budget).with_shared_memo(memo)),
    }
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
/// `run` is `"remembered"` exactly when the body came from the tier; then
/// `plan_cache` reads `"hit"`, `searches` and every count are 0 (nothing
/// remembered reaches a memo, the result cache or a harvester),
/// `time_capped` is `false` and a warm `adaptive`'s `warm_entries` is its
/// snapshot's length. Otherwise `plan_cache` reads `"miss"`, `run` is
/// `"executed"` for an `execute` and `"none"` for the others, and
/// `searches` counts the searches the request ran: one, or one per
/// adaptive round. `time_capped` is the one thing that tells a caller the
/// body may differ on another machine or under another load.
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
    searches: u64,
    run: &'static str,
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
            searches: 0,
            run: "none",
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
                "\"time_capped\":{},\"plan_cache\":\"{}\",",
                "\"searches\":{},\"run\":\"{}\"}}"
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
            if self.run == "remembered" {
                "hit"
            } else {
                "miss"
            },
            self.searches,
            self.run,
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
        // The server answers with this, then begins its drain; in client
        // oneshot mode there is nothing to drain.
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
    let key = body_key(req, &eff);
    let mut meta = Meta::new();
    if let Some((body, wire, entries)) = registry.remembered(&key) {
        meta.run = "remembered";
        meta.warm_entries = entries;
        return Response {
            wire: Some(wire),
            ..Response::ok(&req.id, body, meta.render())
        };
    }
    match miss(req, &eff, registry, key, &mut meta) {
        Ok(body) => Response::ok(&req.id, body, meta.render()),
        Err((code, e)) => Response::fail(&req.id, code, e),
    }
}

/// The tier's key for a request: the clamped fields its op's body depends
/// on, the others left at their defaults.
fn body_key(req: &Request, eff: &Effective) -> BodyKey {
    let adaptive = req.op == Op::Adaptive;
    let data = adaptive || req.op == Op::Execute;
    let warm = adaptive && req.warm;
    BodyKey {
        op: req.op,
        algo: req.algo.clone(),
        states: eff.states,
        time_ms: eff.time_ms,
        rows: if data { eff.rows } else { 0 },
        seed: if data { req.seed } else { 0 },
        rounds: if adaptive { eff.rounds } else { 0 },
        warm,
        tenant: if warm {
            req.tenant.clone()
        } else {
            String::new()
        },
        text: req.workflow.clone(),
    }
}

/// Compute a body the tier did not hold, and remember it under `key` if it
/// is admitted: its family had been seen before this request (one-off
/// traffic stores nothing), no search observed its deadline (a time-capped
/// body is the one that may differ across machines), and a warm adaptive's
/// loop left its store as it found it (the one case that yields a guard).
/// No lock is held meanwhile: two concurrent misses both compute, and the
/// second replaces an equal body.
fn miss(
    req: &Request,
    eff: &Effective,
    registry: &Registry,
    key: BodyKey,
    meta: &mut Meta,
) -> Result<String, Failure> {
    let parsed = parse_workflow(req, registry)?;
    let (body, guard) = match req.op {
        Op::Adaptive => adaptive_body(req, eff, registry, &parsed, meta)?,
        _ => (search_body(req, eff, &parsed, meta)?, None),
    };
    if parsed.seen && !meta.time_capped && (guard.is_some() || !key.warm) {
        registry.remember(key, body.clone(), guard);
    }
    Ok(body)
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

/// Search the request's workflow and render its `optimize` or `execute`
/// body. Sound to remember because the model is fixed: every search in
/// this module prices with `RowCountModel::default()`.
fn search_body(
    req: &Request,
    eff: &Effective,
    parsed: &Parsed,
    meta: &mut Meta,
) -> Result<String, Failure> {
    let memo = parsed.family.memo();
    let before = memo.stats();
    let search = |e| internal(format!("search: {e}"));
    let outcome = build_optimizer(req, eff, Arc::clone(&memo))
        .run(&parsed.wf, &RowCountModel::default())
        .map_err(search)?;
    meta.memo_since(&memo, before);
    meta.searches = 1;
    meta.time_capped = outcome.time_capped;
    let fragment = format!(
        concat!(
            "\"initial_cost\":{},\"best_cost\":{},\"visited_states\":{},",
            "\"budget_exhausted\":{},\"plan\":\"{}\",\"counters\":\"{}\""
        ),
        outcome.initial_cost,
        outcome.best_cost,
        outcome.visited_states,
        outcome.budget_exhausted,
        json::escape(&text::render(&outcome.best).map_err(search)?),
        json::escape(&outcome.stats.counters_json()),
    );
    if req.op != Op::Execute {
        return Ok(format!(
            "{{\"op\":\"optimize\",\"algo\":\"{}\",\"family\":\"{:032x}\",\"states\":{},\"time_ms\":{},{}}}",
            req.algo, parsed.digest, eff.states, eff.time_ms, fragment,
        ));
    }
    let targets = run_targets(req, eff, &outcome.best, &parsed.family, meta)?;
    meta.run = "executed";
    Ok(format!(
        concat!(
            "{{\"op\":\"execute\",\"algo\":\"{}\",\"family\":\"{:032x}\",",
            "\"states\":{},\"time_ms\":{},\"rows\":{},\"seed\":{},",
            "{},\"targets\":{{{}}}}}"
        ),
        req.algo, parsed.digest, eff.states, eff.time_ms, eff.rows, req.seed, fragment, targets,
    ))
}

/// Execute `best` over the request's synthetic data and render the
/// `targets` member of the body.
fn run_targets(
    req: &Request,
    eff: &Effective,
    best: &Workflow,
    family: &Family,
    meta: &mut Meta,
) -> Result<String, Failure> {
    // Generate the data before touching the cache: the cache key needs a
    // digest of the catalog actually generated (datagen is source-
    // declaration-order-sensitive; family digests are not). A search never
    // touches the request workflow's sources, ids or order, so this is the
    // catalog the request's own text generates.
    let catalog = datagen::scenario_catalog(best, eff.rows, req.seed);
    let cache = family.cache(eff.rows, req.seed, catalog_digest(best, &catalog));
    let (h0, m0, i0) = cache.counters();
    let run = Executor::new(catalog)
        .run_stream_shared(best, &cache)
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
    Ok(targets)
}

/// Run the adaptive loop and render its body, with the guard a warm body
/// is remembered by if the loop left the tenant's store unchanged.
fn adaptive_body(
    req: &Request,
    eff: &Effective,
    registry: &Registry,
    parsed: &Parsed,
    meta: &mut Meta,
) -> Result<(String, Option<Guard>), Failure> {
    let (wf, digest) = (&parsed.wf, parsed.digest);
    let memo = parsed.family.memo();
    let before = memo.stats();
    let optimizer = build_optimizer(req, eff, Arc::clone(&memo));
    let model = RowCountModel::default();
    // Adaptive deliberately does NOT use the family's shared result
    // cache: calibration harvests per-activity statistics, and a
    // cache-served prefix executes no activities — a pre-warmed cache
    // would starve the harvester of observations and change the report.
    // The private per-job cache below still reuses prefixes *across
    // rounds*, exactly like the one-shot adaptive path; the cross-job
    // shared wins for adaptive are the warm calibration store and the
    // bodies the tier remembers.
    let mut harvester = Harvester::new(Executor::new(datagen::scenario_catalog(
        wf, eff.rows, req.seed,
    )));
    let cfg = AdaptiveConfig::rounds(eff.rounds);

    let mut run = |store: &mut CalibrationStore| -> Result<String, Failure> {
        meta.warm_entries = store.len();
        let report = run_adaptive(wf, &model, optimizer.as_ref(), &mut harvester, store, cfg)
            .map_err(|e| internal(format!("adaptive: {e}")))?;
        meta.memo_since(&memo, before);
        meta.searches = report.rounds.len() as u64;
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
    };
    if !req.warm {
        // Cold: a throwaway store, never merged back — a pure baseline
        // run that cannot leak observations into the tenant's state.
        return Ok((run(&mut CalibrationStore::new())?, None));
    }
    // Warm: run against the tenant's accumulated calibration.
    let store = registry
        .calibration(&req.tenant, digest)
        .map_err(|e| internal(format!("calibration store: {e}")))?;
    let (body, rested) = run_warm(registry, &req.tenant, digest, &store, run)?;
    Ok((body, rested.map(|snapshot| Guard { store, snapshot })))
}

/// Run a warm adaptive's loop `run` on the tenant's `store`, holding its
/// lock throughout (rounds interleave reads and writes), and settle what
/// the loop did to it:
///
/// * the loop failed, or it taught the store something and the save
///   failed: the store is put back as it was, so memory never runs ahead
///   of the disk and the next request retries;
/// * it taught the store something: the store is saved;
/// * it left the store as it found it: there is nothing to save, and the
///   store comes back with the body — the snapshot that guards it.
fn run_warm(
    registry: &Registry,
    tenant: &str,
    digest: u128,
    store: &Mutex<CalibrationStore>,
    run: impl FnOnce(&mut CalibrationStore) -> Result<String, Failure>,
) -> Result<(String, Option<CalibrationStore>), Failure> {
    let mut guard = relock(store.lock());
    let unchanged = guard.clone();
    let body = match run(&mut guard) {
        Ok(body) => body,
        Err(e) => {
            *guard = unchanged;
            return Err(e);
        }
    };
    if *guard == unchanged {
        return Ok((body, Some(unchanged)));
    }
    if let Err(e) = registry.persist_calibration(tenant, digest, &guard) {
        *guard = unchanged;
        return Err(internal(format!("calibration store: {e}")));
    }
    Ok((body, None))
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
            // The second run was the family's second sight and left its
            // body behind: the third is that body, whatever the op — a cold
            // adaptive's included.
            let e = run_request(&reg, &req);
            assert_eq!(e.body, a.body, "{op:?} replayed run changed the body");
            assert!(meta_u64(&d, "searches") >= 1, "{op:?}: {}", d.meta);
            assert!(!remembered(&d), "{op:?}: {}", d.meta);
            assert_eq!(meta_u64(&e, "searches"), 0, "{op:?}: {}", e.meta);
            assert!(e.meta.contains("\"plan_cache\":\"hit\""), "{}", e.meta);
            assert!(remembered(&e), "{op:?}: {}", e.meta);
        }
    }

    fn meta_u64(resp: &Response, key: &str) -> u64 {
        json::parse(&resp.meta)
            .expect("meta")
            .get(key)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("meta missing {key}: {}", resp.meta))
    }

    fn stat(reg: &Registry, key: &str) -> u64 {
        json::parse(&reg.stats_json())
            .expect("stats")
            .get(key)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("stats missing {key}"))
    }

    fn generated(seed: u64, category: etlopt_workload::SizeCategory) -> String {
        use etlopt_workload::{Generator, GeneratorConfig};
        let s = Generator::generate(GeneratorConfig { seed, category });
        text::render(&s.workflow).expect("render generated workflow")
    }

    /// A warm beam adaptive over a generated small workflow.
    fn adaptive_request(tenant: &str, workflow: &str) -> Request {
        Request {
            tenant: tenant.to_owned(),
            algo: "beam".to_owned(),
            rows: 256,
            rounds: 4,
            ..request(Op::Adaptive, workflow)
        }
    }

    /// The tenant's store as it stands.
    fn store_of(reg: &Registry, req: &Request) -> CalibrationStore {
        let wf = text::parse(&req.workflow).expect("parse");
        let digest = text::family_digest(&wf).expect("digest");
        let store = reg.calibration(&req.tenant, digest).expect("store");
        let copy = relock(store.lock()).clone();
        copy
    }

    /// The reference: the loop over the bare optimizer with a memo of its
    /// own, here on a copy of the store. Returns the report and leaves
    /// `store` as the loop left it.
    fn bare_loop(req: &Request, reg: &Registry, store: &mut CalibrationStore) -> String {
        let eff = clamp(req, reg);
        let wf = text::parse(&req.workflow).expect("parse");
        let optimizer = build_optimizer(req, &eff, Arc::new(MoveMemo::new()));
        let mut harvester = Harvester::new(Executor::new(datagen::scenario_catalog(
            &wf, eff.rows, req.seed,
        )));
        run_adaptive(
            &wf,
            &RowCountModel::default(),
            optimizer.as_ref(),
            &mut harvester,
            store,
            AdaptiveConfig::rounds(eff.rounds),
        )
        .expect("bare adaptive loop")
        .to_json()
    }

    fn report_of(resp: &Response) -> String {
        assert_eq!(resp.code, Code::Ok, "{}", resp.error);
        json::parse(&resp.body)
            .expect("body")
            .get("report")
            .and_then(json::Value::as_str)
            .expect("report")
            .to_owned()
    }

    /// Send `req` and hold the reply to the bare loop run on a copy of the
    /// tenant's store: same report, same store afterwards.
    fn checked_adaptive(reg: &Registry, req: &Request) -> Response {
        let mut reference = store_of(reg, req);
        let expected = bare_loop(req, reg, &mut reference);
        let resp = run_request(reg, req);
        assert_eq!(report_of(&resp), expected, "tenant {}", req.tenant);
        assert_eq!(store_of(reg, req), reference, "tenant {}", req.tenant);
        resp
    }

    #[test]
    fn warm_adaptive_requests_answer_as_the_bare_loop_and_stop_searching_once_the_store_rests() {
        let wf = generated(2005, etlopt_workload::SizeCategory::Small);
        let reg = Registry::new(ServerConfig::default());
        // The family's first sight (nothing of it is stored).
        run_request(&reg, &request(Op::Optimize, &wf));
        let req = adaptive_request("acme", &wf);
        let mut rested = false;
        let mut replayed = 0;
        for i in 0..4 {
            let before = store_of(&reg, &req);
            let resp = checked_adaptive(&reg, &req);
            // A loop searches once a round; the body a request left behind
            // with the store at rest searches not at all.
            let searches = if rested { 0 } else { rounds_used(&resp) };
            assert_eq!(
                meta_u64(&resp, "searches"),
                searches,
                "request {i}: {}",
                resp.meta
            );
            assert_eq!(remembered(&resp), rested, "request {i}: {}", resp.meta);
            replayed += usize::from(rested);
            let expect = if rested { "hit" } else { "miss" };
            assert!(
                resp.meta.contains(&format!("\"plan_cache\":\"{expect}\"")),
                "{}",
                resp.meta
            );
            assert!(resp.meta.contains("\"time_capped\":false"), "{}", resp.meta);
            rested = store_of(&reg, &req) == before;
        }
        assert!(
            replayed >= 1,
            "the store never came to rest in four requests"
        );
    }

    fn rounds_used(resp: &Response) -> u64 {
        json::parse(&report_of(resp))
            .expect("report")
            .get("rounds_used")
            .and_then(json::Value::as_u64)
            .expect("rounds_used")
    }

    /// A warm request whose loop taught the store nothing writes nothing; a
    /// save that fails leaves memory where the disk is, so the next request
    /// saves.
    #[test]
    fn a_warm_adaptive_saves_its_store_only_when_it_changed_and_retries_a_failed_save() {
        let dir = std::env::temp_dir().join(format!("etlopt_job_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let root = dir.join("stores");
        let reg = Registry::new(ServerConfig {
            store_dir: Some(root.clone()),
            ..ServerConfig::default()
        });
        let wf = generated(2005, etlopt_workload::SizeCategory::Small);
        let req = adaptive_request("acme", &wf);
        let digest = text::family_digest(&text::parse(&wf).expect("parse")).expect("digest");
        let file = etlopt_workload::StoreDir::new(&root).path_for("acme", digest);

        // A directory where `CalibrationStore::save` puts its temporary
        // file: the save fails, the request is a 500, and the tenant's
        // store is as it was.
        let in_the_way = file.with_extension("json.tmp");
        std::fs::create_dir_all(&in_the_way).expect("block the temporary file");
        let failed = run_request(&reg, &req);
        assert_eq!(failed.code, Code::Internal, "{}", failed.body);
        assert!(
            failed.error.contains("calibration store"),
            "{}",
            failed.error
        );
        assert!(
            store_of(&reg, &req).is_empty(),
            "memory ran ahead of the disk"
        );
        assert!(!file.exists());
        // Out of the way again: the same request learns the same and saves.
        std::fs::remove_dir(&in_the_way).expect("unblock");
        assert_eq!(run_request(&reg, &req).code, Code::Ok);
        assert_eq!(
            CalibrationStore::load(&file).expect("saved store"),
            store_of(&reg, &req)
        );

        // Once the store rests, a request does not write it again.
        loop {
            let before = store_of(&reg, &req);
            assert_eq!(run_request(&reg, &req).code, Code::Ok);
            if store_of(&reg, &req) == before {
                break;
            }
        }
        std::fs::remove_file(&file).expect("remove the store file");
        assert_eq!(run_request(&reg, &req).code, Code::Ok);
        assert!(!file.exists(), "an unchanged store was written again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn remembered(resp: &Response) -> bool {
        resp.meta.contains("\"run\":\"remembered\"")
    }

    /// Send `req`, each reply checked against the bare loop, until a request
    /// leaves the tenant's store as it found it (at most six).
    fn bring_to_rest(reg: &Registry, req: &Request) {
        for _ in 0..6 {
            let before = store_of(reg, req);
            checked_adaptive(reg, req);
            if store_of(reg, req) == before {
                return;
            }
        }
        panic!("tenant {}'s store never came to rest", req.tenant);
    }

    #[test]
    fn once_the_store_rests_the_next_request_is_the_remembered_body() {
        let dir = std::env::temp_dir().join(format!("etlopt_job_rest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::new(ServerConfig {
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let wf = generated(2005, etlopt_workload::SizeCategory::Small);
        let req = adaptive_request("acme", &wf);
        bring_to_rest(&reg, &req);
        let digest = text::family_digest(&text::parse(&wf).expect("parse")).expect("digest");
        let file = etlopt_workload::StoreDir::new(&dir).path_for("acme", digest);
        std::fs::remove_file(&file).expect("the store was saved");
        assert_eq!(stat(&reg, "body_hits"), 0);

        for hit in 1..=2 {
            let resp = checked_adaptive(&reg, &req);
            assert!(remembered(&resp), "{}", resp.meta);
            assert!(
                resp.meta.contains("\"plan_cache\":\"hit\""),
                "{}",
                resp.meta
            );
            for k in [
                "searches",
                "harvest_runs",
                "cache_hits",
                "cache_misses",
                "cache_insertions",
                "memo_hits",
                "memo_misses",
            ] {
                assert_eq!(meta_u64(&resp, k), 0, "{k}: {}", resp.meta);
            }
            assert_eq!(
                meta_u64(&resp, "warm_entries"),
                store_of(&reg, &req).len() as u64
            );
            assert_eq!(stat(&reg, "body_hits"), hit);
        }
        assert!(!file.exists(), "a remembered adaptive wrote its store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_direct_write_to_the_store_makes_the_next_request_run_the_loop() {
        let wf = generated(2005, etlopt_workload::SizeCategory::Small);
        let reg = Registry::new(ServerConfig::default());
        let req = adaptive_request("acme", &wf);
        bring_to_rest(&reg, &req);
        assert!(remembered(&checked_adaptive(&reg, &req)));

        // Another holder of the store writes it: a source seen larger.
        use etlopt_core::opt::adaptive::Calibration;
        let parsed = text::parse(&wf).expect("parse");
        let src = parsed.sources()[0];
        let source = &parsed.graph().recordset(src).expect("source").name;
        let digest = text::family_digest(&parsed).expect("digest");
        let store = reg.calibration("acme", digest).expect("store");
        relock(store.lock()).record_source(source, 1_000_000);

        let resp = checked_adaptive(&reg, &req);
        assert!(!remembered(&resp), "{}", resp.meta);
        assert!(meta_u64(&resp, "harvest_runs") > 0, "{}", resp.meta);
        // The loop left the written store at rest: remembered anew.
        let resp = checked_adaptive(&reg, &req);
        assert!(remembered(&resp), "{}", resp.meta);
    }

    #[test]
    fn another_tenant_never_gets_a_remembered_body() {
        let wf = generated(2005, etlopt_workload::SizeCategory::Small);
        let reg = Registry::new(ServerConfig::default());
        let acme = adaptive_request("acme", &wf);
        bring_to_rest(&reg, &acme);
        assert!(remembered(&checked_adaptive(&reg, &acme)));

        // umbrella holds exactly acme's store and sends the same text: the
        // body it is owed is the same, yet acme's entry is not its entry.
        let umbrella = adaptive_request("umbrella", &wf);
        let digest = text::family_digest(&text::parse(&wf).expect("parse")).expect("digest");
        let store = reg.calibration("umbrella", digest).expect("store");
        relock(store.lock()).merge(&store_of(&reg, &acme));
        let resp = checked_adaptive(&reg, &umbrella);
        assert!(!remembered(&resp), "{}", resp.meta);
        assert!(meta_u64(&resp, "harvest_runs") > 0, "{}", resp.meta);
        // Its own loop left its store at rest: from now on its own entry.
        assert!(remembered(&checked_adaptive(&reg, &umbrella)));
        assert!(remembered(&checked_adaptive(&reg, &acme)));
        assert_eq!(stat(&reg, "body_hits"), 3);
    }

    #[test]
    fn a_time_capped_adaptive_is_flagged_and_never_remembered() {
        let wf = generated(2005, etlopt_workload::SizeCategory::Large);
        let reg = Registry::new(ServerConfig::default());
        run_request(&reg, &request(Op::Optimize, &wf));
        let req = Request {
            states: usize::MAX,
            time_ms: 1,
            rounds: 2,
            ..adaptive_request("acme", &wf)
        };
        for _ in 0..4 {
            let resp = run_request(&reg, &req);
            assert_eq!(resp.code, Code::Ok, "{}", resp.error);
            assert!(resp.meta.contains("\"time_capped\":true"), "{}", resp.meta);
            assert!(!remembered(&resp), "{}", resp.meta);
            assert!(meta_u64(&resp, "searches") >= 1, "{}", resp.meta);
            assert!(meta_u64(&resp, "harvest_runs") > 0, "{}", resp.meta);
        }
        assert_eq!((stat(&reg, "bodies"), stat(&reg, "body_hits")), (0, 0));
    }

    /// The one function that settles a warm loop, driven by stand-in loops.
    #[test]
    fn a_failed_loop_is_rolled_back_and_only_a_resting_one_returns_its_snapshot() {
        use etlopt_core::opt::adaptive::{CalEntry, Calibration};
        let reg = Registry::new(ServerConfig::default());
        let store = reg.calibration("acme", 7).expect("store");

        // A loop that harvested, then failed: the store is as it was.
        let failed = run_warm(&reg, "acme", 7, &store, |s| {
            s.record(1, "1", CalEntry::new(10, 5));
            Err(internal("round 2 failed".to_owned()))
        });
        assert_eq!(failed, Err((Code::Internal, "round 2 failed".to_owned())));
        assert!(
            relock(store.lock()).is_empty(),
            "memory ran ahead of the disk"
        );

        // One that taught the store something keeps what it taught and
        // returns no snapshot: its body is not the store's at rest.
        let taught = run_warm(&reg, "acme", 7, &store, |s| {
            s.record(1, "1", CalEntry::new(10, 5));
            Ok("taught".to_owned())
        });
        let learned = relock(store.lock()).clone();
        assert_eq!(taught, Ok(("taught".to_owned(), None)));
        assert_eq!(learned.len(), 1);

        // One that left the store as it found it returns the store.
        let rested = run_warm(&reg, "acme", 7, &store, |_| Ok("rested".to_owned()));
        assert_eq!(rested, Ok(("rested".to_owned(), Some(learned))));
    }

    /// Random interleavings of seven request shapes over one family, each
    /// reply held to a reference and its `run` predicted. Three warm
    /// adaptives — acme at two `rows` over one store, umbrella at one — are
    /// held to the bare loop run on reference stores that only the bare loop
    /// ever touches, and are remembered exactly when the last request of
    /// their shape to leave its store at rest left it as it is now. The
    /// store keeps max-evidence entries, so acme's larger shape can move the
    /// store under the smaller one's remembered body, never the reverse. An
    /// optimize, executes at two (rows, seed) pairs and a cold adaptive are
    /// held to the one-shot body, and are remembered exactly when their key
    /// was computed earlier in the same registry after the family's first
    /// sight: once the shape has been sent in the sequence. (The optimize is
    /// the first sight's own request, which computed it and stored nothing.)
    #[test]
    fn interleaved_adaptives_answer_as_the_bare_loop_on_reference_stores() {
        use etlopt_core::rng::Rng;
        let wf = generated(2005, etlopt_workload::SizeCategory::Small);
        let beam = |op| Request {
            algo: "beam".to_owned(),
            ..request(op, &wf)
        };
        let first_sight = beam(Op::Optimize);
        let warm = [
            adaptive_request("acme", &wf),
            Request {
                rows: 320,
                ..adaptive_request("acme", &wf)
            },
            adaptive_request("umbrella", &wf),
        ];
        let pure = [
            first_sight.clone(),
            beam(Op::Execute),
            Request {
                rows: 96,
                seed: 7,
                ..beam(Op::Execute)
            },
            Request {
                warm: false,
                ..adaptive_request("acme", &wf)
            },
        ];
        let oneshot: Vec<String> = pure
            .iter()
            .map(|req| run_request(&Registry::new(ServerConfig::default()), req).body)
            .collect();
        let mut rng = Rng::seed_from_u64(2005);
        let (mut hits, mut misses, mut invalidated, mut replayed) = (0, 0, 0, 0);
        for sequence in 0..16 {
            let reg = Registry::new(ServerConfig::default());
            run_request(&reg, &first_sight);
            let mut reference = [CalibrationStore::new(), CalibrationStore::new()];
            let mut rested: [Option<(CalibrationStore, String)>; 3] = Default::default();
            let mut sent = [false; 4];
            // Twenty-four steps at six warm draws in ten send each sequence
            // about as many warm requests as three warm shapes alone would
            // over ten, so that their stores move as often.
            for step in 0..24 {
                let draw = rng.gen_range(0..10usize);
                let shape = if draw < 6 { draw % 3 } else { draw - 3 };
                let at = format!("sequence {sequence}, step {step}, shape {shape}");
                let Some(req) = warm.get(shape) else {
                    let i = shape - warm.len();
                    let resp = run_request(&reg, &pure[i]);
                    assert_eq!(resp.body, oneshot[i], "{at}");
                    assert_eq!(remembered(&resp), sent[i], "{at}: {}", resp.meta);
                    replayed += usize::from(sent[i]);
                    sent[i] = true;
                    continue;
                };
                let tenant = usize::from(req.tenant == "umbrella");
                let before = reference[tenant].clone();
                let predicted = rested[shape].as_ref().filter(|(store, _)| *store == before);
                invalidated += usize::from(rested[shape].is_some() && predicted.is_none());
                let expected = bare_loop(req, &reg, &mut reference[tenant]);
                if let Some((_, report)) = predicted {
                    // The premise the tier replays on: what the bare loop
                    // answered over the store it left as is, it answers
                    // again (it is deterministic), and leaves the store so.
                    assert_eq!(&expected, report, "{at}");
                    assert_eq!(reference[tenant], before, "{at}");
                }
                let resp = run_request(&reg, req);
                assert_eq!(report_of(&resp), expected, "{at}");
                assert_eq!(store_of(&reg, req), reference[tenant], "{at}");
                let predicted = predicted.is_some();
                assert_eq!(remembered(&resp), predicted, "{at}: {}", resp.meta);
                if reference[tenant] == before {
                    rested[shape] = Some((before, expected));
                }
                if predicted {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert!(
            hits >= 16 && misses >= 16 && invalidated >= 4 && replayed >= 16,
            "{hits} hits, {misses} misses, {invalidated} invalidated, {replayed} replayed"
        );
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
    fn zero_ceilings_cannot_panic() {
        // Zero ceilings: `x.clamp(1, 0)` panics (min > max), which would
        // turn every job into a `500` — degrade to budget 1 instead.
        let wf = sample_workflow();
        let req = request(Op::Optimize, &wf);
        let zero = Registry::new(ServerConfig {
            max_states: 0,
            max_time_ms: 0,
            max_rows: 0,
            max_rounds: 0,
            ..ServerConfig::default()
        });
        let eff = clamp(&req, &zero);
        assert_eq!(
            (eff.states, eff.time_ms, eff.rows, eff.rounds),
            (1, 1, 1, 1)
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
        let dig_ab = catalog_digest(&wf_ab, &datagen::scenario_catalog(&wf_ab, 64, 2005));
        let dig_ba = catalog_digest(&wf_ba, &datagen::scenario_catalog(&wf_ba, 64, 2005));
        assert_ne!(dig_ab, dig_ba, "swapped sources must re-key the cache");
        assert_eq!(
            dig_ab,
            catalog_digest(&wf_ab, &datagen::scenario_catalog(&wf_ab, 64, 2005)),
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
