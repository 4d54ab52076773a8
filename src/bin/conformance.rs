//! Differential conformance driver.
//!
//! ```text
//! conformance sweep  [--base-seed N] [--small N] [--medium N] [--large N]
//!                    [--rows N] [--states N] [--chain-len N]
//!                    [--adaptive] [--adaptive-rounds N]
//!                    [--out FILE] [--trace-json FILE]
//! conformance backends [--rows N] [--frame-budget N] [--batch-rows N]
//!                      [--trace-json FILE]
//! conformance replay --seed N --category small|medium|large --steps S
//!                    [--rows N]
//! conformance adaptive [--smoke] [--rounds N] [--rows N] [--seed N]
//!                      [--states N] [--out FILE] [--store FILE]
//! ```
//!
//! `sweep` generates the seeded scenario corpus, judges every search
//! algorithm's best state plus one random transition chain per scenario
//! with the execution-backed oracle, runs the mutation smoke-test, shrinks
//! any failing chain to a replayable repro, writes `CONFORMANCE.json` (the
//! full report, mutation smoke and runtime included) and prints its
//! headline to stdout. Exit code 1 on any conformance failure.
//!
//! `backends` runs every smoke-corpus scenario through both executor
//! backends (materializing and streaming) and demands identical targets
//! and bit-identical stats; when the frame budget is smaller than the
//! data volume it additionally asserts that the buffer pool really went
//! through its spill path. Aggregated execution counters go to stdout and
//! `--trace-json`.
//! Exit code 1 on any divergence.
//!
//! `replay` re-executes one chain — typically a minimizer-printed repro —
//! and reports the oracle's verdict. Exit code 1 if the oracle fails the
//! replayed state.
//!
//! `adaptive` demonstrates the calibrate → re-optimize → converge loop.
//! The default mode runs the paper's Fig. 1 workflow with *deliberately
//! skewed* seed selectivities against seeded data, prints the per-round
//! trajectory, and oracle-checks the converged plan; `--smoke` instead
//! sweeps the ten pinned smoke seeds' small scenarios. `--out` (default
//! `ADAPTIVE.json`) receives the `AdaptiveReport` JSON (or the smoke
//! summary); `--store FILE` loads the calibration store from FILE when it
//! exists and saves the harvested store back. Exit code 1 on
//! non-convergence or any oracle failure.

use std::process::ExitCode;

use etlopt::conformance::{
    backend_differential, format_steps, minimize_failure, mutation_smoke, parse_steps, replay,
    run_corpus, scenario_executor, CorpusConfig, Oracle, SMOKE_SEEDS,
};
use etlopt::core::cost::RowCountModel;
use etlopt::core::opt::{run_adaptive, AdaptiveConfig, HeuristicSearch, SearchBudget};
use etlopt::core::trace::ExecCounters;
use etlopt::engine::{Executor, Harvester, StreamConfig};
use etlopt::server::Flags;
use etlopt::workload::{CalibrationStore, Generator, GeneratorConfig, SizeCategory};

fn parse_category(s: &str) -> Result<SizeCategory, String> {
    match s {
        "small" => Ok(SizeCategory::Small),
        "medium" => Ok(SizeCategory::Medium),
        "large" => Ok(SizeCategory::Large),
        other => Err(format!("unknown category `{other}`")),
    }
}

fn sweep(mut flags: Flags) -> Result<ExitCode, String> {
    let defaults = CorpusConfig::default();
    // 6-round default: the 200-scenario sweep's slowest convergers need 5
    // rounds (one full-calibration round plus a confirming repeat) — a
    // 4-round budget flagged three legitimately-converging small
    // scenarios as failures. Pinned by `tests/adaptive_round_budget.rs`
    // in the conformance crate.
    let adaptive_default = if flags.take_flag("--adaptive") { 6 } else { 0 };
    let cfg = CorpusConfig {
        base_seed: flags.take_parsed("--base-seed", defaults.base_seed)?,
        small: flags.take_parsed("--small", defaults.small)?,
        medium: flags.take_parsed("--medium", defaults.medium)?,
        large: flags.take_parsed("--large", defaults.large)?,
        rows_per_source: flags.take_parsed("--rows", defaults.rows_per_source)?,
        search_states: flags.take_parsed("--states", defaults.search_states)?,
        chain_len: flags.take_parsed("--chain-len", defaults.chain_len)?,
        adaptive_rounds: flags.take_parsed("--adaptive-rounds", adaptive_default)?,
    };
    let out_path = flags
        .take("--out")
        .unwrap_or_else(|| "CONFORMANCE.json".to_owned());
    let trace_path = flags.take("--trace-json");
    flags.ensure_empty()?;

    eprintln!(
        "sweeping {} scenarios ({} small / {} medium / {} large), \
         {} search states…",
        cfg.scenarios(),
        cfg.small,
        cfg.medium,
        cfg.large,
        cfg.search_states,
    );

    let report = run_corpus(&cfg, |done, total, name| {
        if done % 25 == 0 || done == total {
            eprintln!("  [{done}/{total}] {name}");
        }
    });

    let smoke = mutation_smoke(cfg.rows_per_source);
    eprintln!(
        "mutation smoke: {}/{} injected faults caught",
        smoke.caught, smoke.injected
    );

    std::fs::write(&out_path, report.to_json(&smoke))
        .map_err(|e| format!("write {out_path}: {e}"))?;
    if let Some(path) = &trace_path {
        std::fs::write(path, report.trace_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("aggregated search telemetry written to {path}");
    }

    print!(
        concat!(
            "{{\n",
            "  \"scenarios\": {},\n",
            "  \"checks\": {},\n",
            "  \"pass_rate\": {:.4},\n",
            "  \"activity_warnings\": {},\n",
            "  \"mutation_smoke\": {{\"injected\": {}, \"caught\": {}}},\n",
            "  \"sweep_secs\": {:.2},\n",
            "  \"checks_per_sec\": {:.1}\n",
            "}}\n"
        ),
        report.scenarios.len(),
        report.checks,
        report.pass_rate(),
        report.warnings,
        smoke.injected,
        smoke.caught,
        report.elapsed_secs,
        report.checks as f64 / report.elapsed_secs.max(1e-9),
    );

    let mut failed = false;
    if !report.failed.is_empty() {
        failed = true;
        eprintln!("{} conformance failures:", report.failed.len());
        for f in &report.failed {
            eprintln!("  {} [{}] {}", f.scenario, f.kind, f.failures.join("; "));
            if let Some(repro) = &f.repro {
                eprintln!("    repro: {repro}");
            }
        }
    }
    if !smoke.escaped.is_empty() {
        failed = true;
        eprintln!(
            "mutation smoke FAILURE: faults escaped the oracle at seeds {:?}",
            smoke.escaped
        );
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn backends_cmd(mut flags: Flags) -> Result<ExitCode, String> {
    let rows: usize = flags.take_parsed("--rows", 96)?;
    let frame_budget: usize = flags.take_parsed("--frame-budget", 2)?;
    let batch_rows: usize = flags.take_parsed("--batch-rows", 8)?;
    let trace_path = flags.take("--trace-json");
    flags.ensure_empty()?;

    let cfg = StreamConfig {
        batch_rows,
        frame_budget,
        ..StreamConfig::default()
    };
    eprintln!(
        "backend differential over {} smoke scenarios, {rows} rows/source, \
         frame budget {frame_budget} × {batch_rows}-row pages…",
        SMOKE_SEEDS.len(),
    );

    let mut total = ExecCounters::default();
    let mut failures = Vec::new();
    for &seed in &SMOKE_SEEDS {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        match backend_differential(&s.workflow, rows, seed, cfg) {
            Ok(counters) => {
                eprintln!(
                    "  {}: ok ({} batches, {} spilled, {} reloaded)",
                    s.name, counters.batches, counters.pages_spilled, counters.pages_reloaded,
                );
                total.absorb(&counters);
            }
            Err(e) => {
                eprintln!("  {}: FAIL {e}", s.name);
                failures.push(format!("{}: {e}", s.name));
            }
        }
    }

    if let Some(path) = &trace_path {
        std::fs::write(path, total.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("aggregated execution counters written to {path}");
    }
    print!("{}", total.to_json());

    if !failures.is_empty() {
        eprintln!("{} backend divergences:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        return Ok(ExitCode::FAILURE);
    }
    // A budget below the smoke volume must really exercise the spill path;
    // a silent all-in-memory run would make this check vacuous.
    if frame_budget * batch_rows < rows && !total.spilled() {
        eprintln!(
            "backend differential FAILURE: frame budget {frame_budget} never spilled \
             ({} pages appended)",
            total.pages_appended,
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn replay_cmd(mut flags: Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags
        .take("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let category = parse_category(&flags.take("--category").ok_or("--category is required")?)?;
    let steps = parse_steps(&flags.take("--steps").ok_or("--steps is required")?)?;
    let rows: usize = flags.take_parsed("--rows", 64)?;
    let minimize = flags.take("--minimize").is_some_and(|v| v == "true");
    flags.ensure_empty()?;

    let s = Generator::generate(GeneratorConfig { seed, category });
    let exec = scenario_executor(&s.workflow, rows, seed);
    let oracle = Oracle::new(&s.workflow, exec).map_err(|e| format!("original failed: {e}"))?;
    let r = replay(&s.workflow, &steps);
    eprintln!(
        "replayed {} steps on {} ({} applied, {} rejected, {} skipped, {} faulty)",
        steps.len(),
        s.name,
        r.applied.len(),
        r.rejected,
        r.skipped,
        r.faulty_applied,
    );
    for line in &r.applied {
        eprintln!("  {line}");
    }
    let v = oracle.check(&r.workflow);
    if v.passed() {
        println!(
            "PASS: state conforms ({} activity warnings)",
            v.warnings.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAIL:");
        for line in v.failure_lines() {
            println!("  {line}");
        }
        if minimize {
            match minimize_failure(seed, category, rows, &steps) {
                Some(repro) => println!(
                    "minimized to {} step(s): {}\n{}",
                    repro.steps.len(),
                    format_steps(&repro.steps),
                    repro.command
                ),
                None => println!("failure did not reproduce under regeneration"),
            }
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Shared guts of both adaptive modes: run the loop on one workflow over
/// its executors, judge the converged plan, print the trajectory. Returns
/// `(report, oracle failure lines)`.
fn run_adaptive_scenario(
    wf: &etlopt::core::workflow::Workflow,
    oracle_exec: Executor,
    loop_exec: Executor,
    store: &mut CalibrationStore,
    rounds: usize,
    states: usize,
) -> Result<(etlopt::core::opt::AdaptiveReport, Vec<String>), String> {
    let oracle = Oracle::new(wf, oracle_exec).map_err(|e| format!("original failed: {e}"))?;
    let mut harvester = Harvester::new(loop_exec);
    let model = RowCountModel::default();
    let optimizer = HeuristicSearch::with_budget(SearchBudget::states(states));
    let report = run_adaptive(
        wf,
        &model,
        &optimizer,
        &mut harvester,
        store,
        AdaptiveConfig::rounds(rounds),
    )
    .map_err(|e| format!("adaptive loop failed: {e}"))?;
    let failures = match report.final_plan() {
        Some(plan) => oracle.check(plan).failure_lines(),
        None => vec!["adaptive loop produced no plan".to_owned()],
    };
    Ok((report, failures))
}

/// The Fig. 1 demo: skew the paper workflow's seed selectivities hard
/// (NN 0.95→0.2, γ-SUM 1/30→0.9, σ(€) 0.4→0.95) and let the loop walk
/// them back to the observed truth.
fn adaptive_fig1(
    seed: u64,
    rounds: usize,
    states: usize,
    store: &mut CalibrationStore,
) -> Result<(String, bool), String> {
    let base = etlopt::workload::scenarios::fig1();
    let g = base.graph();
    let mut wf = base.clone();
    for node in base.activities().map_err(|e| e.to_string())? {
        let act = g.activity(node).map_err(|e| e.to_string())?;
        let skew = match act.label.as_str() {
            "NN" => Some(0.2),
            "γ-SUM" => Some(0.9),
            "σ(€)" => Some(0.95),
            _ => None,
        };
        if let Some(s) = skew {
            wf.set_selectivity(node, s).map_err(|e| e.to_string())?;
        }
    }

    let catalog = || etlopt::workload::scenarios::fig1_catalog(seed, 300, 9000);
    let (report, failures) = run_adaptive_scenario(
        &wf,
        Executor::new(catalog()),
        Executor::new(catalog()),
        store,
        rounds,
        states,
    )?;
    print!("{}", etlopt::core::explain::adaptive_report(&report));
    let mut failed = false;
    if !report.converged {
        failed = true;
        eprintln!("FAIL: loop did not converge within {rounds} rounds");
    }
    for line in &failures {
        failed = true;
        eprintln!("FAIL: {line}");
    }
    Ok((report.to_json(), failed))
}

fn adaptive_cmd(mut flags: Flags) -> Result<ExitCode, String> {
    let smoke = flags.take_flag("--smoke");
    let rounds: usize = flags.take_parsed("--rounds", 4)?;
    let rows: usize = flags.take_parsed("--rows", 64)?;
    let seed: u64 = flags.take_parsed("--seed", 7)?;
    let states: usize = flags.take_parsed("--states", 600)?;
    let out_path = flags
        .take("--out")
        .unwrap_or_else(|| "ADAPTIVE.json".to_owned());
    let store_path = flags.take("--store");
    flags.ensure_empty()?;
    if smoke && store_path.is_some() {
        return Err("--store applies to the Fig. 1 demo, not --smoke".to_owned());
    }

    let (json, failed) = if smoke {
        eprintln!(
            "adaptive smoke over {} pinned seeds, {rounds}-round budget…",
            SMOKE_SEEDS.len()
        );
        let mut entries = Vec::new();
        let mut failed = false;
        for &s in &SMOKE_SEEDS {
            let scenario = Generator::generate(GeneratorConfig {
                seed: s,
                category: SizeCategory::Small,
            });
            let mut store = CalibrationStore::new();
            let (report, failures) = run_adaptive_scenario(
                &scenario.workflow,
                scenario_executor(&scenario.workflow, rows, s),
                scenario_executor(&scenario.workflow, rows, s),
                &mut store,
                rounds,
                states,
            )?;
            let ok = report.converged && failures.is_empty();
            eprintln!(
                "  seed {s}: {} in {} round(s){}",
                if ok { "ok" } else { "FAIL" },
                report.rounds_used(),
                if failures.is_empty() {
                    String::new()
                } else {
                    format!(" — {}", failures.join("; "))
                },
            );
            failed |= !ok;
            entries.push(format!(
                concat!(
                    "    {{\"seed\": {}, \"converged\": {}, \"rounds\": {}, ",
                    "\"oracle_failures\": {}}}"
                ),
                s,
                report.converged,
                report.rounds_used(),
                failures.len(),
            ));
        }
        (
            format!(
                "{{\n  \"round_budget\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
                rounds,
                entries.join(",\n")
            ),
            failed,
        )
    } else {
        eprintln!("adaptive Fig. 1 demo: skewed seed selectivities, {rounds}-round budget…");
        // Warm-start from a persisted store when one was given and exists;
        // harvested evidence is saved back below, so repeated runs
        // accumulate (merge is idempotent — re-observing is a no-op).
        let mut store = match &store_path {
            Some(p) if std::path::Path::new(p).exists() => {
                CalibrationStore::load(p).map_err(|e| e.to_string())?
            }
            _ => CalibrationStore::new(),
        };
        let result = adaptive_fig1(seed, rounds, states, &mut store)?;
        if let Some(p) = &store_path {
            store.save(p).map_err(|e| e.to_string())?;
            eprintln!(
                "calibration store ({} activities) saved to {p}",
                store.len()
            );
        }
        result
    };

    std::fs::write(&out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    eprintln!("adaptive report written to {out_path}");
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if args.is_empty() {
        "sweep".to_owned()
    } else {
        args.remove(0)
    };
    let result = match cmd.as_str() {
        "sweep" => sweep(Flags::new(args)),
        "backends" => backends_cmd(Flags::new(args)),
        "replay" => replay_cmd(Flags::new(args)),
        "adaptive" => adaptive_cmd(Flags::new(args)),
        other => Err(format!(
            "unknown command `{other}` (expected `sweep`, `backends`, `replay`, or `adaptive`)"
        )),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
