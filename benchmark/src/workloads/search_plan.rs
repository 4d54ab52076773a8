//! `search_plan`: the paper's own axis — time to plan, and plan quality,
//! over a population of generated workflows.
//!
//! One op is what a caller of the optimizer pays for: parse one
//! pre-rendered workflow text, optimize it under a *state* budget with one
//! of the four algorithms, render the best plan. `core::opt` does nearly
//! all of the work and the engine none, so a search optimisation must show
//! here and an engine optimisation must not.

use std::time::Instant;

use etlopt_conformance::{scenario_executor, Oracle};
use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{
    BeamSearch, ExhaustiveSearch, HeuristicSearch, HsGreedy, Optimizer, SearchBudget,
};
use etlopt_core::rng::Rng;
use etlopt_core::text;
use etlopt_core::trace::SearchStats;
use etlopt_core::workflow::Workflow;
use etlopt_workload::{Generator, SizeCategory};

use super::{
    equivalence_failures, micro, shuffle, CheckResult, Metrics, Options, PassResult, Workload,
};
use crate::stats;
use crate::trace::Tracer;

/// Workflows per size band: 80 workflows × 4 algorithms = 320 ops, 16 of
/// them beyond the p95. The large band is kept to 3 workflows, so that its
/// 9 heavy ops (HS is cheap on large workflows) all lie beyond the p95 and
/// the p95 itself lies among the heaviest medium ops, where ops lie close
/// together. With the paper's 10 % of large workflows (§4.2) the p95 falls
/// inside the large band instead, whose ops are a factor of two apart, and
/// moves by a fifth with the seed's draw.
const SMALL: usize = 48;
const MEDIUM: usize = 29;
const LARGE: usize = 3;

/// Algorithms and their state budgets. The budgets are small so that a
/// pass over the population takes about three seconds and a run sees
/// every op several times; the wall-clock cap is left effectively
/// infinite, so the *state* budget is what binds and the work per op is
/// the same on every machine.
const ALGOS: [(&str, usize); 4] = [("es", 100), ("hs", 400), ("hs-greedy", 400), ("beam", 400)];

/// Rows per source for the oracle's executions (the conformance sweep's
/// own volume).
const ORACLE_ROWS: usize = 64;

fn optimizer(algo: &str, states: usize, parallelism: usize) -> Box<dyn Optimizer> {
    let budget = SearchBudget::states(states).with_parallelism(parallelism);
    match algo {
        "es" => Box::new(ExhaustiveSearch::with_budget(budget)),
        "hs" => Box::new(HeuristicSearch::with_budget(budget)),
        "hs-greedy" => Box::new(HsGreedy::with_budget(budget)),
        _ => Box::new(BeamSearch::with_budget(budget)),
    }
}

/// What the first pass produced for one op — the subject of the output
/// check, and the yardstick later passes must reproduce.
struct Produced {
    best: Workflow,
    best_cost: f64,
    initial_cost: f64,
    stats: SearchStats,
}

pub struct SearchPlan {
    texts: Vec<String>,
    categories: Vec<SizeCategory>,
    /// Per workflow, built from the workflow exactly as an op parses it
    /// (`text::parse` renumbers activity ids).
    oracles: Vec<Oracle>,
    algos: Vec<Box<dyn Optimizer>>,
    /// (workflow index, algorithm index), seed-shuffled.
    ops: Vec<(usize, usize)>,
    model: RowCountModel,
    produced: Vec<Option<Produced>>,
    /// Sum of the first traced pass's `SearchStats`.
    traced_stats: Option<SearchStats>,
}

impl SearchPlan {
    pub fn setup(opts: Options) -> Result<SearchPlan, String> {
        let suite = Generator::suite(opts.seed, SMALL, MEDIUM, LARGE);
        let mut texts = Vec::with_capacity(suite.len());
        let mut oracles = Vec::with_capacity(suite.len());
        for s in &suite {
            let text = text::render(&s.workflow).map_err(|e| format!("render {}: {e}", s.name))?;
            let parsed = text::parse(&text).map_err(|e| format!("parse {}: {e}", s.name))?;
            let exec = scenario_executor(&parsed, ORACLE_ROWS, s.seed);
            oracles
                .push(Oracle::new(&parsed, exec).map_err(|e| format!("oracle {}: {e}", s.name))?);
            texts.push(text);
        }
        let mut ops: Vec<(usize, usize)> = (0..suite.len())
            .flat_map(|w| (0..ALGOS.len()).map(move |a| (w, a)))
            .collect();
        shuffle(&mut ops, &mut Rng::seed_from_u64(opts.seed));
        let produced = ops.iter().map(|_| None).collect();
        Ok(SearchPlan {
            texts,
            categories: suite.iter().map(|s| s.category).collect(),
            oracles,
            algos: ALGOS.iter().map(|&(a, n)| optimizer(a, n, 1)).collect(),
            ops,
            model: RowCountModel::default(),
            produced,
            traced_stats: None,
        })
    }
}

impl Workload for SearchPlan {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn pass(&mut self, tracer: &mut Tracer) -> PassResult {
        let mut res = PassResult::default();
        let mut pass_stats = SearchStats::new("pass");
        for (i, &(w, a)) in self.ops.iter().enumerate() {
            let id = i as u32;
            let started = Instant::now();
            let op = tracer.enter(id, "op");
            let span = tracer.enter(id, "text.parse");
            let parsed = text::parse(&self.texts[w]);
            tracer.exit(span);
            let outcome = parsed.and_then(|wf| {
                let span = tracer.enter(id, "opt.search");
                let out = self.algos[a].run(&wf, &self.model);
                tracer.exit(span);
                out
            });
            let rendered = outcome.and_then(|out| {
                let span = tracer.enter(id, "text.render");
                let plan = text::render(&out.best);
                tracer.exit(span);
                plan.map(|p| (out, p))
            });
            tracer.exit(op);
            res.lat_ms.push(started.elapsed().as_secs_f64() * 1e3);

            match rendered {
                Err(_) => res.failed += 1,
                Ok((out, plan)) => {
                    std::hint::black_box(plan);
                    pass_stats.absorb(&out.stats);
                    match &self.produced[i] {
                        // Search is deterministic: every pass must find
                        // the first pass's plan at the first pass's price.
                        Some(first) => {
                            if first.best_cost.to_bits() != out.best_cost.to_bits()
                                || first.stats.generated != out.stats.generated
                            {
                                res.failed += 1;
                            }
                        }
                        None => {
                            self.produced[i] = Some(Produced {
                                best: out.best,
                                best_cost: out.best_cost,
                                initial_cost: out.initial_cost,
                                stats: out.stats,
                            })
                        }
                    }
                }
            }
        }
        res.wall_s = res.lat_ms.iter().sum::<f64>() / 1e3;
        if tracer.enabled && self.traced_stats.is_none() {
            self.traced_stats = Some(pass_stats);
        }
        res
    }

    fn check(&mut self) -> CheckResult {
        let mut check = CheckResult::default();
        for (i, &(w, a)) in self.ops.iter().enumerate() {
            let label = || format!("workflow {w} × {}", ALGOS[a].0);
            let Some(p) = &self.produced[i] else {
                check.expect(false, || format!("{}: produced no plan", label()));
                continue;
            };
            let broken = equivalence_failures(&self.oracles[w].check(&p.best));
            check.expect(broken.is_empty(), || {
                format!("{}: oracle: {}", label(), broken.join("; "))
            });
            check.expect(p.best_cost <= p.initial_cost, || {
                format!(
                    "{}: best {} above initial {}",
                    label(),
                    p.best_cost,
                    p.initial_cost
                )
            });
            check.expect(p.stats.reconciles(), || {
                format!("{}: generated ≠ deduplicated + expanded + pruned", label())
            });
        }
        check
    }

    fn plan_cost_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .produced
            .iter()
            .flatten()
            .filter(|p| p.initial_cost > 0.0)
            .map(|p| p.best_cost / p.initial_cost)
            .collect();
        stats::geomean(&ratios)
    }

    fn layer_metrics(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> CheckResult {
        let mut put = |k: &str, v: f64| {
            out.insert(k.to_owned(), v);
        };

        // text: spans around parse/render; bytes from the inputs.
        let parse_ms = tracer.durations_ms("text.parse");
        put("text.parse_us_p50", stats::median(&parse_ms) * 1e3);
        put(
            "text.render_us_p50",
            stats::median(&tracer.durations_ms("text.render")) * 1e3,
        );
        let parsed_bytes: usize = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "text.parse")
            .map(|s| self.texts[self.ops[s.op_id as usize].0].len())
            .sum();
        let parse_s = parse_ms.iter().sum::<f64>() / 1e3;
        put(
            "text.parse_mb_per_s",
            parsed_bytes as f64 / 1e6 / parse_s.max(1e-9),
        );

        // opt: time from the spans, work from the counters `run` returns.
        put(
            "opt.search_ms_p50",
            stats::median(&tracer.durations_ms("opt.search")),
        );
        put("opt.self_share", tracer.self_share("opt.search"));
        let mut secs = [0.0f64; ALGOS.len()];
        let mut calls = [0u64; ALGOS.len()];
        for s in tracer.spans().iter().filter(|s| s.name == "opt.search") {
            let a = self.ops[s.op_id as usize].1;
            secs[a] += s.dur_ns() as f64 / 1e9;
            calls[a] += 1;
        }
        for (a, (name, _)) in ALGOS.iter().enumerate() {
            // Every traced pass generates the same states per op.
            let generated: u64 = self
                .ops
                .iter()
                .zip(&self.produced)
                .filter(|((_, algo), _)| *algo == a)
                .filter_map(|(_, p)| p.as_ref().map(|p| p.stats.generated))
                .sum();
            let passes = calls[a] as f64 / (self.ops.len() / ALGOS.len()) as f64;
            put(
                &format!("opt.{}.states_per_s", name.replace('-', "_")),
                generated as f64 * passes / secs[a].max(1e-9),
            );
        }
        if let Some(s) = &self.traced_stats {
            let rejected = s.rejections.total();
            put("opt.generated", s.generated as f64);
            put("opt.expanded", s.expanded as f64);
            put("opt.deduplicated", s.deduplicated as f64);
            put("opt.pruned", s.pruned as f64);
            put(
                "opt.dedup_ratio",
                s.deduplicated as f64 / (s.generated as f64).max(1.0),
            );
            put("opt.delta_eval_share", s.delta_fraction());
            put(
                "opt.memo_hit_ratio",
                s.memo_hits as f64 / ((s.memo_hits + s.memo_misses) as f64).max(1.0),
            );
            put(
                "opt.rejected_share",
                rejected as f64 / ((rejected + s.generated) as f64).max(1.0),
            );
        }

        // Diagnostic: beam on the medium band at parallelism 2 against 1.
        let mediums: Vec<Workflow> = (0..self.texts.len())
            .filter(|&w| self.categories[w] == SizeCategory::Medium)
            .take(8)
            .filter_map(|w| text::parse(&self.texts[w]).ok())
            .collect();
        let rate = |parallelism: usize| {
            let beam = optimizer("beam", ALGOS[3].1, parallelism);
            let (mut states, mut secs) = (0u64, 0.0f64);
            for wf in &mediums {
                let started = Instant::now();
                if let Ok(out) = beam.run(wf, &self.model) {
                    secs += started.elapsed().as_secs_f64();
                    states += out.stats.generated;
                }
            }
            states as f64 / secs.max(1e-9)
        };
        let (seq, par2) = (rate(1), rate(2));
        put("opt.par2.states_per_s", par2);
        put("opt.par2_speedup", par2 / seq.max(1e-9));

        // cost / signature / workflow / transition microspans on one small
        // and one medium state of the population.
        let pick = |cat: SizeCategory| {
            (0..self.texts.len())
                .find(|&w| self.categories[w] == cat)
                .and_then(|w| text::parse(&self.texts[w]).ok())
        };
        let states: Vec<Workflow> = [pick(SizeCategory::Small), pick(SizeCategory::Medium)]
            .into_iter()
            .flatten()
            .collect();
        micro::search_microspans(&states, out);
        CheckResult::default()
    }
}
