//! Stage-by-stage replay of a server request, in-process.
//!
//! From outside a live daemon only two things are visible per request:
//! the round trip and the `meta` the response carries. To say where a
//! request's time goes, the traced run replays the same request stream
//! through the public functions `job::run_request` composes, one span per
//! stage. The replayed body is compared byte for byte with
//! `run_request`'s own, so this stage list cannot drift from the real
//! path without the benchmark failing.
//!
//! The body layouts below restate `crates/server/src/job.rs` on purpose:
//! they are the *check*, not a second implementation anyone calls.

use std::sync::Arc;
use std::time::Duration;

use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{
    run_adaptive, AdaptiveConfig, BeamSearch, ExhaustiveSearch, HeuristicSearch, HsGreedy,
    MoveMemo, Optimizer, SearchBudget, SearchOutcome,
};
use etlopt_core::text;
use etlopt_engine::{Executor, Harvester};
use etlopt_server::{catalog_digest, json, table_digest, Op, Registry, Request, Response};
use etlopt_workload::{datagen, CalibrationStore};

use crate::trace::Tracer;

/// `etlopt_server::job`'s (private) data-seed tweak.
pub const DATA_SEED_TWEAK: u64 = 0xD1FF_C0DE;

fn optimizer(algo: &str, budget: SearchBudget, memo: Arc<MoveMemo>) -> Box<dyn Optimizer> {
    match algo {
        "es" => Box::new(ExhaustiveSearch::with_budget(budget).with_shared_memo(memo)),
        "hs" => Box::new(HeuristicSearch::with_budget(budget)),
        "hs-greedy" => Box::new(HsGreedy::with_budget(budget)),
        _ => Box::new(BeamSearch::with_budget(budget).with_shared_memo(memo)),
    }
}

fn outcome_fragment(outcome: &SearchOutcome, plan: &str) -> String {
    format!(
        concat!(
            "\"initial_cost\":{},\"best_cost\":{},\"visited_states\":{},",
            "\"budget_exhausted\":{},\"plan\":\"{}\",\"counters\":\"{}\""
        ),
        outcome.initial_cost,
        outcome.best_cost,
        outcome.visited_states,
        outcome.budget_exhausted,
        json::escape(plan),
        json::escape(&outcome.stats.counters_json()),
    )
}

/// Replay one request line against `registry`, recording a root `replay`
/// span with one child per stage, and return the rendered response line
/// and its body.
pub fn replay(
    registry: &Registry,
    line: &str,
    id: u32,
    tracer: &mut Tracer,
) -> Result<(String, String), String> {
    let root = tracer.enter(id, "replay");
    let result = stages(registry, line, id, tracer);
    tracer.exit(root);
    result
}

fn stages(
    registry: &Registry,
    line: &str,
    id: u32,
    tracer: &mut Tracer,
) -> Result<(String, String), String> {
    macro_rules! stage {
        ($name:literal, $body:expr) => {{
            let span = tracer.enter(id, $name);
            let value = $body;
            tracer.exit(span);
            value
        }};
    }

    let req = stage!("proto.request_parse", Request::parse(line))?;
    let wf = stage!("text.parse", text::parse(&req.workflow)).map_err(|e| e.to_string())?;
    let digest =
        stage!("text.family_digest", text::family_digest(&wf)).map_err(|e| e.to_string())?;
    let cfg = registry.config();
    let states = req.states.clamp(1, cfg.max_states.max(1));
    let time_ms = req.time_ms.clamp(1, cfg.max_time_ms.max(1));
    let rows = req.rows.clamp(1, cfg.max_rows.max(1));
    let rounds = req.rounds.clamp(1, cfg.max_rounds.max(1));
    let parallelism = req.parallelism.clamp(1, cfg.max_parallelism.max(1));
    let (family, memo) = stage!("state.family", {
        let family = registry.family(digest);
        let memo = family.memo();
        (family, memo)
    });
    let budget = SearchBudget::states(states)
        .with_max_time(Duration::from_millis(time_ms))
        .with_parallelism(parallelism);
    let optimizer = optimizer(&req.algo, budget, memo);
    let model = RowCountModel::default();

    let body = match req.op {
        Op::Optimize | Op::Execute => {
            let outcome =
                stage!("opt.search", optimizer.run(&wf, &model)).map_err(|e| e.to_string())?;
            let head = format!(
                "{{\"op\":\"{}\",\"algo\":\"{}\",\"family\":\"{:032x}\",\"states\":{},\"time_ms\":{},",
                req.op.name(),
                req.algo,
                digest,
                states,
                time_ms
            );
            if req.op == Op::Optimize {
                let plan = stage!("text.render", text::render(&outcome.best))
                    .map_err(|e| e.to_string())?;
                stage!(
                    "job.body",
                    format!("{head}{}}}", outcome_fragment(&outcome, &plan))
                )
            } else {
                let catalog = stage!(
                    "datagen.catalog_for",
                    datagen::catalog_for(&wf, rows, req.seed ^ DATA_SEED_TWEAK)
                );
                let data = stage!("job.catalog_digest", catalog_digest(&wf, &catalog));
                let cache = stage!("state.cache", family.cache(rows, req.seed, data));
                let exec = Executor::new(catalog);
                let run = stage!(
                    "exec.run_stream_shared",
                    exec.run_stream_shared(&outcome.best, &cache)
                )
                .map_err(|e| e.to_string())?;
                let digests: Vec<u64> = stage!(
                    "job.table_digest",
                    run.result.targets.values().map(table_digest).collect()
                );
                let plan = stage!("text.render", text::render(&outcome.best))
                    .map_err(|e| e.to_string())?;
                stage!("job.body", {
                    let targets: Vec<String> = run
                        .result
                        .targets
                        .iter()
                        .zip(&digests)
                        .map(|((name, table), digest)| {
                            format!(
                                "\"{}\":{{\"rows\":{},\"digest\":\"{:016x}\"}}",
                                json::escape(name),
                                table.len(),
                                digest
                            )
                        })
                        .collect();
                    format!(
                        "{head}\"rows\":{},\"seed\":{},{},\"targets\":{{{}}}}}",
                        rows,
                        req.seed,
                        outcome_fragment(&outcome, &plan),
                        targets.join(",")
                    )
                })
            }
        }
        Op::Adaptive => {
            let catalog = stage!(
                "datagen.catalog_for",
                datagen::catalog_for(&wf, rows, req.seed ^ DATA_SEED_TWEAK)
            );
            let mut harvester = Harvester::new(Executor::new(catalog));
            let cfg = AdaptiveConfig::rounds(rounds);
            let report = stage!("calibrate.adaptive", {
                if req.warm {
                    let store = registry
                        .calibration(&req.tenant, digest)
                        .map_err(|e| e.to_string())?;
                    let mut guard = store
                        .lock()
                        .map_err(|_| "calibration lock poisoned".to_owned())?;
                    let report = run_adaptive(
                        &wf,
                        &model,
                        optimizer.as_ref(),
                        &mut harvester,
                        &mut *guard,
                        cfg,
                    )
                    .map_err(|e| e.to_string())?;
                    registry
                        .persist_calibration(&req.tenant, digest, &guard)
                        .map_err(|e| e.to_string())?;
                    report
                } else {
                    let mut store = CalibrationStore::new();
                    run_adaptive(
                        &wf,
                        &model,
                        optimizer.as_ref(),
                        &mut harvester,
                        &mut store,
                        cfg,
                    )
                    .map_err(|e| e.to_string())?
                }
            });
            stage!(
                "job.body",
                format!(
                    concat!(
                        "{{\"op\":\"adaptive\",\"algo\":\"{}\",\"family\":\"{:032x}\",",
                        "\"states\":{},\"time_ms\":{},\"rows\":{},\"seed\":{},",
                        "\"rounds\":{},\"warm\":{},\"report\":\"{}\"}}"
                    ),
                    req.algo,
                    digest,
                    states,
                    time_ms,
                    rows,
                    req.seed,
                    rounds,
                    req.warm,
                    json::escape(&report.to_json()),
                )
            )
        }
        _ => {
            return Err(format!(
                "replay covers job ops only, got `{}`",
                req.op.name()
            ))
        }
    };
    let rendered = stage!(
        "proto.response_render",
        Response::ok(&req.id, body.clone(), "{}".to_owned()).render()
    );
    Ok((rendered, body))
}
