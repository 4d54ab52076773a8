//! The conformance corpus sweep.
//!
//! For every seeded scenario, the sweep (1) builds the oracle from the
//! original workflow over seeded data, (2) runs each search algorithm
//! (ES, HS, HS-Greedy, Beam) and judges its best state, (3) replays a seeded
//! random transition chain and judges its end state. Failing chains are
//! shrunk by [`crate::minimize`] into replayable repros. The outcome is a
//! [`CorpusReport`] the driver serializes to `CONFORMANCE.json`.

use std::time::Instant;

use etlopt_core::cost::RowCountModel;
use etlopt_core::json;
use etlopt_core::opt::{
    run_adaptive, AdaptiveConfig, BeamSearch, ExhaustiveSearch, HeuristicSearch, HsGreedy,
    Optimizer, SearchBudget,
};
use etlopt_core::trace::SearchStats;
use etlopt_engine::Harvester;
use etlopt_workload::{CalibrationStore, Generator, Scenario, SizeCategory};

use crate::chain::{format_steps, random_chain, replay};
use crate::minimize::minimize_failure;
use crate::oracle::{scenario_executor, Oracle};

/// Sweep parameters. The defaults are the CI profile: 200 scenarios
/// (120 small / 60 medium / 20 large), four search algorithms plus one
/// random chain each.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Base seed; every scenario seed derives from it.
    pub base_seed: u64,
    /// Scenario counts per size band.
    pub small: usize,
    /// Medium-band scenario count.
    pub medium: usize,
    /// Large-band scenario count.
    pub large: usize,
    /// Rows generated per source recordset.
    pub rows_per_source: usize,
    /// State budget for each search run.
    pub search_states: usize,
    /// Length of the random transition chain per scenario.
    pub chain_len: usize,
    /// Round budget for the adaptive calibrate → re-optimize check per
    /// scenario (`0` disables the check — the default; the `--adaptive`
    /// flag enables it).
    pub adaptive_rounds: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            base_seed: 2005,
            small: 120,
            medium: 60,
            large: 20,
            rows_per_source: 64,
            search_states: 600,
            chain_len: 8,
            adaptive_rounds: 0,
        }
    }
}

impl CorpusConfig {
    /// Total scenario count.
    pub fn scenarios(&self) -> usize {
        self.small + self.medium + self.large
    }
}

/// One judged check within a scenario.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// `"ES"`, `"HS"`, `"HS-Greedy"` or `"chain"`.
    pub kind: String,
    /// Did the oracle pass the produced state?
    pub passed: bool,
    /// Failure one-liners (empty when passed).
    pub failures: Vec<String>,
    /// Warning-grade per-activity drift count.
    pub warnings: usize,
}

/// All checks of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario display name.
    pub name: String,
    /// Generator seed.
    pub seed: u64,
    /// Size band label.
    pub category: SizeCategory,
    /// Judged checks (one per algorithm + the chain).
    pub checks: Vec<CheckOutcome>,
    /// Step string of the scenario's random chain (for replay).
    pub chain_steps: String,
}

/// A failing check, carried up to the report (and, for chains, minimized).
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Scenario name.
    pub scenario: String,
    /// Generator seed.
    pub seed: u64,
    /// Size band.
    pub category: SizeCategory,
    /// Which check failed.
    pub kind: String,
    /// Failure one-liners.
    pub failures: Vec<String>,
    /// For chain failures: the minimized replay command.
    pub repro: Option<String>,
}

/// The sweep summary.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// The configuration the sweep ran with.
    pub config: CorpusConfig,
    /// Scenarios swept.
    pub scenarios: Vec<ScenarioOutcome>,
    /// All failing checks, minimized where possible.
    pub failed: Vec<FailureRecord>,
    /// Total checks judged.
    pub checks: usize,
    /// Checks that passed.
    pub passed: usize,
    /// Total warning-grade drift observations.
    pub warnings: usize,
    /// Adaptive-loop checks judged (0 unless the sweep ran `--adaptive`).
    pub adaptive_checks: usize,
    /// Adaptive-loop checks that converged *and* passed the oracle.
    pub adaptive_passed: usize,
    /// Wall-clock seconds of the whole sweep.
    pub elapsed_secs: f64,
    /// Search telemetry aggregated per algorithm (ES, HS, HS-Greedy, Beam)
    /// across every scenario, via [`SearchStats::absorb`].
    pub search_stats: Vec<SearchStats>,
}

impl CorpusReport {
    /// Pass rate in `[0, 1]`.
    pub fn pass_rate(&self) -> f64 {
        if self.checks == 0 {
            1.0
        } else {
            self.passed as f64 / self.checks as f64
        }
    }

    /// Pass rate of the adaptive-loop checks alone, in `[0, 1]`.
    pub fn adaptive_pass_rate(&self) -> f64 {
        if self.adaptive_checks == 0 {
            1.0
        } else {
            self.adaptive_passed as f64 / self.adaptive_checks as f64
        }
    }

    /// Serialize the aggregated per-algorithm search telemetry — the
    /// `--trace-json` artifact: one full [`SearchStats::to_json`] object
    /// per algorithm, summed over every scenario of the sweep.
    pub fn trace_json(&self) -> String {
        let entries: Vec<String> = self
            .search_stats
            .iter()
            .map(|s| {
                let body = s.to_json().lines().collect::<Vec<_>>().join("\n  ");
                format!("  \"{}\": {}", s.algorithm, body)
            })
            .collect();
        format!(
            "{{\n  \"scenarios\": {},\n{}\n}}\n",
            self.scenarios.len(),
            entries.join(",\n")
        )
    }

    /// Serialize to the `CONFORMANCE.json` document.
    pub fn to_json(&self, smoke: &SmokeReport) -> String {
        let mut failures = String::new();
        for (i, f) in self.failed.iter().enumerate() {
            if i > 0 {
                failures.push_str(",\n");
            }
            failures.push_str(&format!(
                concat!(
                    "    {{\"scenario\": \"{}\", \"seed\": {}, \"category\": \"{}\", ",
                    "\"kind\": \"{}\", \"failures\": [{}], \"repro\": {}}}"
                ),
                f.scenario,
                f.seed,
                f.category.label(),
                f.kind,
                f.failures
                    .iter()
                    .map(|s| format!("\"{}\"", json::escape(s)))
                    .collect::<Vec<_>>()
                    .join(", "),
                match &f.repro {
                    Some(cmd) => format!("\"{}\"", json::escape(cmd)),
                    None => "null".to_owned(),
                },
            ));
        }
        format!(
            concat!(
                "{{\n",
                "  \"base_seed\": {},\n",
                "  \"scenarios\": {},\n",
                "  \"bands\": {{\"small\": {}, \"medium\": {}, \"large\": {}}},\n",
                "  \"rows_per_source\": {},\n",
                "  \"search_states\": {},\n",
                "  \"checks\": {},\n",
                "  \"passed\": {},\n",
                "  \"failed\": {},\n",
                "  \"pass_rate\": {:.4},\n",
                "  \"activity_warnings\": {},\n",
                "  \"adaptive\": {{\"rounds\": {}, \"checks\": {}, \"passed\": {}, ",
                "\"pass_rate\": {:.4}}},\n",
                "  \"mutation_smoke\": {{\"injected\": {}, \"caught\": {}}},\n",
                "  \"elapsed_secs\": {:.2},\n",
                "  \"failures\": [\n{}\n  ]\n",
                "}}\n"
            ),
            self.config.base_seed,
            self.scenarios.len(),
            self.config.small,
            self.config.medium,
            self.config.large,
            self.config.rows_per_source,
            self.config.search_states,
            self.checks,
            self.passed,
            self.failed.len(),
            self.pass_rate(),
            self.warnings,
            self.config.adaptive_rounds,
            self.adaptive_checks,
            self.adaptive_passed,
            self.adaptive_pass_rate(),
            smoke.injected,
            smoke.caught,
            self.elapsed_secs,
            failures,
        )
    }
}

/// Run one scenario through all its checks. Each search run's telemetry is
/// absorbed into `agg` (indexed in ES, HS, HS-Greedy, Beam order).
fn sweep_scenario(s: &Scenario, cfg: &CorpusConfig, agg: &mut [SearchStats; 4]) -> ScenarioOutcome {
    let exec = scenario_executor(&s.workflow, cfg.rows_per_source, s.seed);
    let oracle = match Oracle::new(&s.workflow, exec) {
        Ok(o) => o,
        Err(e) => {
            return ScenarioOutcome {
                name: s.name.clone(),
                seed: s.seed,
                category: s.category,
                checks: vec![CheckOutcome {
                    kind: "original".into(),
                    passed: false,
                    failures: vec![format!("original failed to execute: {e}")],
                    warnings: 0,
                }],
                chain_steps: String::new(),
            }
        }
    };

    let model = RowCountModel::default();
    let budget = SearchBudget::states(cfg.search_states);
    let algos: [(&str, Box<dyn Optimizer>); 4] = [
        ("ES", Box::new(ExhaustiveSearch::with_budget(budget))),
        ("HS", Box::new(HeuristicSearch::with_budget(budget))),
        ("HS-Greedy", Box::new(HsGreedy::with_budget(budget))),
        ("Beam", Box::new(BeamSearch::with_budget(budget))),
    ];

    let mut checks = Vec::new();
    for (i, (name, algo)) in algos.iter().enumerate() {
        let outcome = match algo.run(&s.workflow, &model) {
            Ok(o) => o,
            Err(e) => {
                checks.push(CheckOutcome {
                    kind: (*name).into(),
                    passed: false,
                    failures: vec![format!("search failed: {e}")],
                    warnings: 0,
                });
                continue;
            }
        };
        agg[i].absorb(&outcome.stats);
        let v = oracle.check(&outcome.best);
        checks.push(CheckOutcome {
            kind: (*name).into(),
            passed: v.passed(),
            failures: v.failure_lines(),
            warnings: v.warnings.len(),
        });
    }

    // A seeded random chain, independent of the searches.
    let steps = random_chain(s.seed ^ 0xCAB1E, cfg.chain_len, false);
    let r = replay(&s.workflow, &steps);
    let v = oracle.check(&r.workflow);
    checks.push(CheckOutcome {
        kind: "chain".into(),
        passed: v.passed(),
        failures: v.failure_lines(),
        warnings: v.warnings.len(),
    });

    // The feedback loop: calibrate → re-optimize → converge, with the
    // final converged plan judged by the same oracle as the one-shot
    // searches. Failing to converge within the budget is itself a failure.
    if cfg.adaptive_rounds > 0 {
        checks.push(adaptive_check(s, cfg, &oracle));
    }

    ScenarioOutcome {
        name: s.name.clone(),
        seed: s.seed,
        category: s.category,
        checks,
        chain_steps: format_steps(&steps),
    }
}

/// Run the adaptive loop on one scenario and judge its converged plan.
/// The loop gets a fresh executor (same derived data seed as the oracle's,
/// so ground truth matches), a cold [`CalibrationStore`], and the HS
/// optimizer under the sweep's state budget.
fn adaptive_check(s: &Scenario, cfg: &CorpusConfig, oracle: &Oracle) -> CheckOutcome {
    let optimizer = HeuristicSearch::with_budget(SearchBudget::states(cfg.search_states));
    let mut harvester = Harvester::new(scenario_executor(&s.workflow, cfg.rows_per_source, s.seed));
    let mut store = CalibrationStore::new();
    let model = RowCountModel::default();

    let report = match run_adaptive(
        &s.workflow,
        &model,
        &optimizer,
        &mut harvester,
        &mut store,
        AdaptiveConfig::rounds(cfg.adaptive_rounds),
    ) {
        Ok(r) => r,
        Err(e) => {
            return CheckOutcome {
                kind: "adaptive".into(),
                passed: false,
                failures: vec![format!("adaptive loop failed: {e}")],
                warnings: 0,
            }
        }
    };

    let mut failures = Vec::new();
    let mut warnings = 0;
    if !report.converged {
        failures.push(format!(
            "adaptive loop did not converge within {} rounds",
            cfg.adaptive_rounds
        ));
    }
    match report.final_plan() {
        Some(plan) => {
            let v = oracle.check(plan);
            warnings = v.warnings.len();
            failures.extend(v.failure_lines());
        }
        None => failures.push("adaptive loop produced no plan".to_owned()),
    }
    CheckOutcome {
        kind: "adaptive".into(),
        passed: failures.is_empty(),
        failures,
        warnings,
    }
}

/// Seeds whose small-band scenario + seeded catalog make the `$2€`
/// faulty pushdown *observable* (boundary rows exist at 64 rows/source).
/// The harness tests itself against these: every injected fault here MUST
/// be caught. Seeds outside this list may produce mutants that are
/// extensionally identical on the sampled data — undetectable by any
/// execution oracle and deliberately not part of the smoke contract.
pub const SMOKE_SEEDS: [u64; 10] = [2, 4, 10, 11, 13, 19, 21, 22, 27, 32];

/// Result of the self-test: inject a known-bad rewrite per pinned seed and
/// demand the oracle flags it.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// Faults injected (seeds where a faulty site existed).
    pub injected: usize,
    /// Faults the oracle caught.
    pub caught: usize,
    /// Seeds whose injected fault escaped (must be empty).
    pub escaped: Vec<u64>,
}

/// Run the mutation smoke-test over [`SMOKE_SEEDS`].
pub fn mutation_smoke(rows_per_source: usize) -> SmokeReport {
    let mut report = SmokeReport {
        injected: 0,
        caught: 0,
        escaped: Vec::new(),
    };
    for &seed in &SMOKE_SEEDS {
        let s = Generator::generate(etlopt_workload::GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let exec = scenario_executor(&s.workflow, rows_per_source, seed);
        let Ok(oracle) = Oracle::new(&s.workflow, exec) else {
            report.escaped.push(seed);
            continue;
        };
        let r = replay(&s.workflow, &[crate::chain::Step::Faulty(0)]);
        if r.faulty_applied == 0 {
            report.escaped.push(seed);
            continue;
        }
        report.injected += 1;
        if oracle.check(&r.workflow).passed() {
            report.escaped.push(seed);
        } else {
            report.caught += 1;
        }
    }
    report
}

/// Run the full corpus. `progress` is called once per finished scenario
/// with `(index, total, name)` — the driver uses it for a live ticker.
pub fn run_corpus(
    cfg: &CorpusConfig,
    mut progress: impl FnMut(usize, usize, &str),
) -> CorpusReport {
    let started = Instant::now();
    let suite = Generator::suite(cfg.base_seed, cfg.small, cfg.medium, cfg.large);
    let total = suite.len();

    let mut scenarios = Vec::with_capacity(total);
    let mut failed = Vec::new();
    let (mut checks, mut passed, mut warnings) = (0usize, 0usize, 0usize);
    let mut agg = [
        SearchStats::new("ES"),
        SearchStats::new("HS"),
        SearchStats::new("HS-Greedy"),
        SearchStats::new("Beam"),
    ];

    let (mut adaptive_checks, mut adaptive_passed) = (0usize, 0usize);
    for (i, s) in suite.iter().enumerate() {
        let outcome = sweep_scenario(s, cfg, &mut agg);
        for c in &outcome.checks {
            checks += 1;
            warnings += c.warnings;
            if c.kind == "adaptive" {
                adaptive_checks += 1;
                if c.passed {
                    adaptive_passed += 1;
                }
            }
            if c.passed {
                passed += 1;
            } else {
                let repro = if c.kind == "chain" {
                    crate::chain::parse_steps(&outcome.chain_steps)
                        .ok()
                        .and_then(|steps| {
                            minimize_failure(s.seed, s.category, cfg.rows_per_source, &steps)
                        })
                        .map(|r| r.command)
                } else {
                    None
                };
                failed.push(FailureRecord {
                    scenario: outcome.name.clone(),
                    seed: s.seed,
                    category: s.category,
                    kind: c.kind.clone(),
                    failures: c.failures.clone(),
                    repro,
                });
            }
        }
        progress(i + 1, total, &outcome.name);
        scenarios.push(outcome);
    }

    CorpusReport {
        config: cfg.clone(),
        scenarios,
        failed,
        checks,
        passed,
        warnings,
        adaptive_checks,
        adaptive_passed,
        elapsed_secs: started.elapsed().as_secs_f64(),
        search_stats: agg.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: SmokeReport = SmokeReport {
        injected: 10,
        caught: 9,
        escaped: Vec::new(),
    };

    fn report_of(failed: Vec<FailureRecord>) -> CorpusReport {
        CorpusReport {
            config: CorpusConfig::default(),
            scenarios: Vec::new(),
            checks: failed.len(),
            failed,
            passed: 0,
            warnings: 0,
            adaptive_checks: 0,
            adaptive_passed: 0,
            elapsed_secs: 0.0,
            search_stats: Vec::new(),
        }
    }

    /// A trimmed sweep: every check must pass and the JSON document must
    /// carry the headline numbers. (The full ≥200-scenario corpus runs in
    /// the `conformance` binary / CI job.)
    #[test]
    fn mini_corpus_is_clean() {
        let cfg = CorpusConfig {
            small: 3,
            medium: 1,
            large: 0,
            search_states: 150,
            chain_len: 5,
            ..CorpusConfig::default()
        };
        let report = run_corpus(&cfg, |_, _, _| {});
        assert_eq!(report.scenarios.len(), 4);
        assert_eq!(report.checks, 20, "4 scenarios x (4 algos + 1 chain)");
        assert!(
            report.failed.is_empty(),
            "conformance failures: {:#?}",
            report.failed
        );
        assert!((report.pass_rate() - 1.0).abs() < 1e-9);
        let json = report.to_json(&SMOKE);
        assert!(json.contains("\"pass_rate\": 1.0000"));
        assert!(json.contains("\"checks\": 20"));
        // The aggregated telemetry covers all four algorithms and its
        // summed accounting still reconciles.
        assert_eq!(report.search_stats.len(), 4);
        for s in &report.search_stats {
            assert!(s.generated > 0, "{} absorbed no runs", s.algorithm);
            assert!(s.reconciles(), "{}: {}", s.algorithm, s.counters_json());
        }
        let trace = report.trace_json();
        for algo in ["\"ES\"", "\"HS\"", "\"HS-Greedy\"", "\"Beam\""] {
            assert!(trace.contains(algo), "{trace}");
        }
    }

    /// Failure strings embed error `Display`s and shell commands, which may
    /// hold anything; the document must stay parseable and give them back.
    #[test]
    fn failure_text_with_control_characters_stays_valid_json() {
        let nasty = "original failed to execute: line 1\n\tcol \\ \"quoted\"";
        let report = report_of(vec![FailureRecord {
            scenario: "small-2".to_owned(),
            seed: 2,
            category: SizeCategory::Small,
            kind: "chain".to_owned(),
            failures: vec![nasty.to_owned()],
            repro: Some(nasty.to_owned()),
        }]);
        let doc = json::parse(&report.to_json(&SMOKE)).expect("CONFORMANCE.json must parse");
        let Some(json::Value::Arr(failures)) = doc.get("failures") else {
            panic!("no failures array in {doc:?}");
        };
        assert_eq!(
            failures[0].get("repro").and_then(|v| v.as_str()),
            Some(nasty)
        );
        let Some(json::Value::Arr(texts)) = failures[0].get("failures") else {
            panic!("no failure texts in {doc:?}");
        };
        assert_eq!(texts[0].as_str(), Some(nasty));
    }

    /// `CONFORMANCE.json` is the only file that records the mutation
    /// smoke-test's counts, so they must be in it and it must still parse.
    #[test]
    fn to_json_carries_the_mutation_smoke_counts() {
        let doc = json::parse(&report_of(Vec::new()).to_json(&SMOKE)).expect("must parse");
        let smoke = doc.get("mutation_smoke").expect("mutation_smoke key");
        assert_eq!(smoke.get("injected").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(smoke.get("caught").and_then(|v| v.as_u64()), Some(9));
        assert!(doc.get("elapsed_secs").is_some());
    }

    /// With `adaptive_rounds` set, every scenario gains an adaptive-loop
    /// check, its pass rate is accounted separately, and the converged
    /// plans pass the same oracle as the one-shot searches.
    #[test]
    fn mini_corpus_adaptive_checks_pass() {
        let cfg = CorpusConfig {
            small: 2,
            medium: 0,
            large: 0,
            search_states: 150,
            chain_len: 5,
            adaptive_rounds: 4,
            ..CorpusConfig::default()
        };
        let report = run_corpus(&cfg, |_, _, _| {});
        assert_eq!(
            report.checks, 12,
            "2 scenarios x (4 algos + chain + adaptive)"
        );
        assert_eq!(report.adaptive_checks, 2);
        assert!(
            report.failed.is_empty(),
            "conformance failures: {:#?}",
            report.failed
        );
        assert_eq!(report.adaptive_passed, 2);
        let json = report.to_json(&SMOKE);
        assert!(
            json.contains("\"adaptive\": {\"rounds\": 4, \"checks\": 2, \"passed\": 2, \"pass_rate\": 1.0000}"),
            "{json}"
        );
    }
}
