//! `engine_seq` and `engine_par2_spill`: the execution engine on its own.
//!
//! One op is one `Executor::run_stream` of a plan over a pre-built
//! catalog. Both workloads run the *same* plans over the *same* catalogs
//! and differ only in how the engine is configured, so they separate a
//! per-row cost (visible on both) from exchange, channel and pool cost
//! (visible only when the work is fanned out and the pool is too small):
//!
//! * `engine_seq` — one thread, default pool: the working set fits, the
//!   pool's resident path is the only one used, nothing spills.
//! * `engine_par2_spill` — two partition workers under the pipelined
//!   coordinator and an 8-page pool: fan-out, join-build and
//!   inter-segment buffers exceed the pool and spill and reload.
//!
//! Search does nothing here (plans are optimised once, in set-up).

use std::time::Instant;

use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{HeuristicSearch, Optimizer, SearchBudget};
use etlopt_core::rng::Rng;
use etlopt_core::trace::ExecCounters;
use etlopt_core::workflow::Workflow;
use etlopt_engine::{Backend, Catalog, ExecResult, ExecStats, Executor, StreamConfig};
use etlopt_server::table_digest;
use etlopt_workload::{datagen, scenarios, Generator};

use super::{micro, shuffle, CheckResult, Metrics, Options, PassResult, Workload};
use crate::stats;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sequential,
    Par2Spill,
}

/// Generated scenarios per size band. Each contributes its original and
/// its HS-optimised plan, so a pass is 2 × (150 + 47 + 3) = 400 ops.
const SMALL: usize = 150;
const MEDIUM: usize = 47;

/// Source volume of the three hand-built scenarios (Fig. 1, clickstream,
/// reconciliation). They are the few heavy ops of the population — 6 of
/// 400, so the p95, the 21st heaviest op, lies well beyond them and beyond
/// the handful of generated scenarios whose large sources make them spill
/// most, among generated scenarios that lie within a percent of each
/// other. There the p95 does not move when a seed draws a few heavy
/// scenarios more or fewer, nor when one op had no undisturbed pass. With
/// a population of 200 the p95 was the 11th heaviest op and sat on the
/// slope below those heavy ones, 4 % a rank.
const HAND_BUILT_ROWS: usize = 10_000;

/// A generated scenario's sources are sized so that its *unoptimised*
/// plan processes about this many rows. Generated filters range from
/// "drops 99 %" to "keeps everything", so at a fixed source volume op
/// cost would span two orders of magnitude and the median op would be
/// whichever scenario the seed happened to draw; at a fixed amount of
/// work the population is comparable from seed to seed, and the
/// optimised plan still shows what the optimiser saved.
const TARGET_ROWS_PROCESSED: f64 = 30_000.0;
const PILOT_ROWS: usize = 256;
const MAX_ROWS_PER_SOURCE: usize = 16_384;

/// Set-up search budget: enough for HS to finish its phases on the small
/// band, and a plan is a plan — the engine does not care how good it is.
const SETUP_STATES: usize = 200;

fn configure(catalog: Catalog, mode: Mode) -> Executor {
    let exec = Executor::new(catalog).with_backend(Backend::Stream);
    match mode {
        Mode::Sequential => exec,
        Mode::Par2Spill => exec.with_stream_config(StreamConfig {
            frame_budget: 8,
            parallelism: 2,
            ..StreamConfig::default()
        }),
    }
}

/// One catalog with the two plans that run over it.
struct Item {
    name: String,
    exec: Executor,
    plans: [Workflow; 2],
    rows_in: u64,
    /// `best_cost / initial_cost` of the set-up search.
    cost_ratio: f64,
    /// Rows per source and data seed, for the datagen microspan
    /// (generated scenarios only).
    generated: Option<(usize, u64)>,
}

/// What a run loaded, reduced to what the check compares.
#[derive(Clone, PartialEq, Eq)]
struct Loaded {
    digests: Vec<(String, usize, u64)>,
    stats: ExecStats,
}

impl Loaded {
    fn of(result: &ExecResult) -> Loaded {
        Loaded {
            digests: result
                .targets
                .iter()
                .map(|(name, t)| (name.clone(), t.len(), table_digest(t)))
                .collect(),
            stats: result.stats.clone(),
        }
    }
}

pub struct Engine {
    mode: Mode,
    corrupt_reference: bool,
    items: Vec<Item>,
    /// (item index, plan index), seed-shuffled.
    ops: Vec<(usize, usize)>,
    loaded: Vec<Option<Loaded>>,
    traced_counters: Option<ExecCounters>,
    /// Reference-backend time and source rows, recorded by `check`.
    materialize: (f64, u64),
}

fn source_rows(wf: &Workflow, catalog: &Catalog) -> u64 {
    wf.sources()
        .iter()
        .filter_map(|&s| wf.graph().recordset(s).ok())
        .filter_map(|rs| catalog.table(&rs.name))
        .map(|t| t.len() as u64)
        .sum()
}

impl Engine {
    pub fn setup(opts: Options, mode: Mode) -> Result<Engine, String> {
        let seed = opts.seed;
        let model = RowCountModel::default();
        let hs =
            HeuristicSearch::with_budget(SearchBudget::states(SETUP_STATES).with_parallelism(1));
        let mut items = Vec::new();
        let mut add = |name: String, wf: Workflow, catalog: Catalog, generated| {
            let out = hs
                .run(&wf, &model)
                .map_err(|e| format!("set-up search on {name}: {e}"))?;
            let rows_in = source_rows(&wf, &catalog);
            items.push(Item {
                name,
                exec: configure(catalog, mode),
                plans: [wf, out.best],
                rows_in,
                cost_ratio: if out.initial_cost > 0.0 {
                    out.best_cost / out.initial_cost
                } else {
                    1.0
                },
                generated,
            });
            Ok::<(), String>(())
        };

        let rows = HAND_BUILT_ROWS;
        add(
            format!("fig1@{rows}"),
            scenarios::fig1(),
            scenarios::fig1_catalog(seed, rows / 30 + 10, rows),
            None,
        )?;
        add(
            format!("clickstream@{rows}"),
            scenarios::clickstream(),
            scenarios::clickstream_catalog(seed, rows),
            None,
        )?;
        add(
            format!("reconciliation@{rows}"),
            scenarios::reconciliation(),
            scenarios::reconciliation_catalog(seed, rows),
            None,
        )?;
        for s in Generator::suite(seed, SMALL, MEDIUM, 0) {
            let pilot = Executor::new(datagen::catalog_for(&s.workflow, PILOT_ROWS, s.seed))
                .run_materialize(&s.workflow)
                .map_err(|e| format!("pilot run of {}: {e}", s.name))?;
            let per_source_row = pilot.stats.total() as f64 / PILOT_ROWS as f64;
            let rows = ((TARGET_ROWS_PROCESSED / per_source_row.max(1e-9)) as usize)
                .clamp(PILOT_ROWS, MAX_ROWS_PER_SOURCE);
            let catalog = datagen::catalog_for(&s.workflow, rows, s.seed);
            add(s.name.clone(), s.workflow, catalog, Some((rows, s.seed)))?;
        }

        let mut ops: Vec<(usize, usize)> =
            (0..items.len()).flat_map(|i| [(i, 0), (i, 1)]).collect();
        shuffle(&mut ops, &mut Rng::seed_from_u64(seed));
        let loaded = ops.iter().map(|_| None).collect();
        Ok(Engine {
            mode,
            corrupt_reference: opts.corrupt_reference,
            items,
            ops,
            loaded,
            traced_counters: None,
            materialize: (0.0, 0),
        })
    }

    /// Source rows per second of one pass over the population with a
    /// differently configured executor (diagnostics only).
    fn side_rate(&self, cfg: StreamConfig) -> f64 {
        let (mut rows, mut secs) = (0u64, 0.0f64);
        for item in &self.items {
            let exec = Executor::new(item.exec.catalog().clone())
                .with_backend(Backend::Stream)
                .with_stream_config(cfg);
            for plan in &item.plans {
                let started = Instant::now();
                if exec.run_stream(plan).is_ok() {
                    secs += started.elapsed().as_secs_f64();
                    rows += item.rows_in;
                }
            }
        }
        rows as f64 / secs.max(1e-9)
    }
}

impl Workload for Engine {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn pass(&mut self, tracer: &mut Tracer) -> PassResult {
        let mut res = PassResult::default();
        let mut counters = ExecCounters::default();
        for (n, &(i, p)) in self.ops.iter().enumerate() {
            let item = &self.items[i];
            let id = n as u32;
            let started = Instant::now();
            let op = tracer.enter(id, "op");
            let span = tracer.enter(id, "exec.run_stream");
            let run = item.exec.run_stream(&item.plans[p]);
            tracer.exit(span);
            tracer.exit(op);
            res.lat_ms.push(started.elapsed().as_secs_f64() * 1e3);

            // Untimed: digest what was loaded, on every run.
            match run {
                Err(_) => res.failed += 1,
                Ok(run) => {
                    counters.absorb(&run.counters);
                    let loaded = Loaded::of(&run.result);
                    match &self.loaded[n] {
                        Some(first) if *first != loaded => res.failed += 1,
                        Some(_) => {}
                        None => self.loaded[n] = Some(loaded),
                    }
                }
            }
        }
        res.wall_s = res.lat_ms.iter().sum::<f64>() / 1e3;
        if tracer.enabled && self.traced_counters.is_none() {
            self.traced_counters = Some(counters);
        }
        res
    }

    fn check(&mut self) -> CheckResult {
        let mut check = CheckResult::default();
        let (mut secs, mut rows) = (0.0f64, 0u64);
        for (n, &(i, p)) in self.ops.iter().enumerate() {
            let item = &self.items[i];
            let label = || format!("{} plan {p}", item.name);
            // The deliberately naive backend is the independent reference.
            let started = Instant::now();
            let reference = item.exec.run_materialize(&item.plans[p]);
            secs += started.elapsed().as_secs_f64();
            rows += item.rows_in;
            let mut reference = match reference {
                Ok(r) => Loaded::of(&r),
                Err(e) => {
                    check.expect(false, || format!("{}: reference failed: {e}", label()));
                    continue;
                }
            };
            if self.corrupt_reference && n == 0 {
                if let Some(d) = reference.digests.first_mut() {
                    d.2 ^= 1;
                }
            }
            check.expect(self.loaded[n].as_ref() == Some(&reference), || {
                format!(
                    "{}: targets or ExecStats differ from run_materialize",
                    label()
                )
            });
        }
        self.materialize = (secs, rows);
        check
    }

    fn plan_cost_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self.items.iter().map(|i| i.cost_ratio).collect();
        stats::geomean(&ratios)
    }

    fn layer_metrics(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> CheckResult {
        let run_ms = tracer.durations_ms("exec.run_stream");
        let pass_rows: u64 = self.ops.iter().map(|&(i, _)| self.items[i].rows_in).sum();
        let passes = run_ms.len() as f64 / self.ops.len() as f64;
        let seq_rate = pass_rows as f64 * passes / (run_ms.iter().sum::<f64>() / 1e3).max(1e-9);
        out.insert("exec.run_stream_ms_p50".to_owned(), stats::median(&run_ms));
        out.insert("exec.rows_per_s".to_owned(), seq_rate);
        out.insert("exec.rows_in".to_owned(), pass_rows as f64);
        let processed: u64 = self.loaded.iter().flatten().map(|l| l.stats.total()).sum();
        out.insert("exec.rows_processed".to_owned(), processed as f64);
        out.insert(
            "ops.materialize_rows_per_s".to_owned(),
            self.materialize.1 as f64 / self.materialize.0.max(1e-9),
        );

        if let Some(c) = &self.traced_counters {
            let mut put = |k: &str, v: u64| {
                out.insert(k.to_owned(), v as f64);
            };
            put("exec.batches", c.batches);
            put("exec.channel_high_water", c.channel_high_water);
            put("exec.pipeline_segments", c.pipeline_segments);
            put("exec.peak_inflight_tasks", c.peak_inflight_tasks);
            put("pool.pages_appended", c.pages_appended);
            put("pool.pages_staged", c.pages_staged);
            put("pool.pages_spilled", c.pages_spilled);
            put("pool.pages_reloaded", c.pages_reloaded);
            put("pool.evictions", c.evictions);
            put("pool.peak_resident_frames", c.peak_resident_frames);
            out.insert(
                "pool.reload_ratio".to_owned(),
                c.pages_reloaded as f64 / (c.pages_spilled as f64).max(1.0),
            );
            // The lanes count events (batches worked, times blocked), not
            // time: a share is that lane's part of all lane events.
            let (busy, send, recv): (u64, u64, u64) = (
                c.worker_busy.iter().sum(),
                c.worker_send_blocked.iter().sum(),
                c.worker_recv_blocked.iter().sum(),
            );
            let events = ((busy + send + recv) as f64).max(1.0);
            out.insert("exec.worker_busy_share".to_owned(), busy as f64 / events);
            out.insert(
                "exec.worker_send_blocked_share".to_owned(),
                send as f64 / events,
            );
            out.insert(
                "exec.worker_recv_blocked_share".to_owned(),
                recv as f64 / events,
            );
            let max = c.worker_rows.iter().copied().max().unwrap_or(0) as f64;
            let mean = stats::mean(&c.worker_rows.iter().map(|&r| r as f64).collect::<Vec<_>>());
            out.insert(
                "exec.worker_row_skew".to_owned(),
                if mean > 0.0 { max / mean } else { 0.0 },
            );
        }

        if self.mode == Mode::Sequential {
            // Diagnostics for ROADMAP's keep-one-coordinator decision: the
            // same population, default pool, two workers, both coordinators.
            let par2 = StreamConfig {
                parallelism: 2,
                ..StreamConfig::default()
            };
            let rate = self.side_rate(par2);
            out.insert("exec.par2.rows_per_s".to_owned(), rate);
            out.insert("exec.par2_speedup".to_owned(), rate / seq_rate.max(1e-9));
            out.insert(
                "exec.roundsync2.rows_per_s".to_owned(),
                self.side_rate(StreamConfig {
                    pipeline: false,
                    ..par2
                }),
            );
        }

        // The spill codec, on the largest Fig. 1 source.
        let biggest = self
            .items
            .iter()
            .filter_map(|i| i.exec.catalog().table("PARTS2"))
            .max_by_key(|t| t.len());
        if let Some(table) = biggest {
            micro::recordfile_microspans(table, out);
        }

        // Data generation, as set-up (and every server request) pays it.
        let mut ms = Vec::new();
        let (mut rows, mut secs) = (0u64, 0.0f64);
        let generated = self.items.iter().filter_map(|i| Some((i, i.generated?)));
        for (item, (per_source, data_seed)) in generated.take(32) {
            let started = Instant::now();
            std::hint::black_box(datagen::catalog_for(&item.plans[0], per_source, data_seed));
            let took = started.elapsed().as_secs_f64();
            ms.push(took * 1e3);
            secs += took;
            rows += item.rows_in;
        }
        out.insert("datagen.catalog_ms_p50".to_owned(), stats::median(&ms));
        out.insert(
            "datagen.rows_per_s".to_owned(),
            rows as f64 / secs.max(1e-9),
        );
        CheckResult::default()
    }
}
