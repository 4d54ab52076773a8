//! Regenerate every table and figure of the ICDE'05 evaluation.
//!
//! ```text
//! cargo run --release --bin reproduce -- all
//! cargo run --release --bin reproduce -- table1 table2
//! cargo run --release --bin reproduce -- --paper all   # full 40-scenario suite
//! cargo run --release --bin reproduce -- --seed 7 table2
//! ```
//!
//! * `fig1`     — the running example: Fig. 1 → Fig. 2 via Heuristic Search.
//! * `fig4`     — the Factorize/Distribute cost arithmetic.
//! * `physical` — the physical planner on the running example.
//! * `phases`   — best cost after each HS phase, one scenario per band.
//! * `table1`   — quality of solution % (avg) per size band and algorithm.
//! * `table2`   — visited states, improvement % and time per band/algorithm.
//!
//! Budgets are state counts only, so every column except `time_ms` is a
//! function of the seed and the tree. Absolute numbers differ from the
//! paper (different machine, regenerated scenarios, budgeted ES); the
//! *shape* — who wins, by how much, where ES stops terminating — is the
//! reproduction target. See EXPERIMENTS.md.

use etlopt::core::cost::{CostModel, RowCountModel};
use etlopt::core::opt::{
    ExhaustiveSearch, HeuristicSearch, HsGreedy, Optimizer, SearchBudget, SearchOutcome,
};
use etlopt::engine::Executor;
use etlopt::workload::{scenarios, Generator, GeneratorConfig, Scenario, SizeCategory};

#[derive(Clone, Copy)]
struct Config {
    seed: u64,
    /// Full paper-scale suite (15/15/10) with generous budgets.
    paper: bool,
}

impl Config {
    fn suite(&self) -> Vec<Scenario> {
        if self.paper {
            Generator::paper_suite(self.seed)
        } else {
            Generator::suite(self.seed, 5, 4, 3)
        }
    }

    /// The laptop-scale analogue of the paper's 40-hour ES cap.
    fn es_budget(&self) -> SearchBudget {
        SearchBudget::states(if self.paper { 500_000 } else { 60_000 })
    }

    fn hs_budget(&self) -> SearchBudget {
        SearchBudget::states(if self.paper { 200_000 } else { 50_000 })
    }
}

struct RunStats {
    outcomes: Vec<SearchOutcome>,
}

impl RunStats {
    fn avg(&self, f: impl Fn(&SearchOutcome) -> f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(f).sum::<f64>() / self.outcomes.len() as f64
    }

    fn any_exhausted(&self) -> bool {
        self.outcomes.iter().any(|o| o.budget_exhausted)
    }
}

/// (band, avg activity count, per-algorithm stats, best cost per
/// scenario×algo).
type BandResult = (
    SizeCategory,
    f64,
    Vec<(&'static str, RunStats)>,
    Vec<Vec<f64>>,
);

fn run_band(cfg: &Config, category: SizeCategory, suite: &[Scenario]) -> BandResult {
    let model = RowCountModel::default();
    let scenarios: Vec<&Scenario> = suite.iter().filter(|s| s.category == category).collect();
    let avg_activities = scenarios
        .iter()
        .map(|s| s.workflow.activity_count() as f64)
        .sum::<f64>()
        / scenarios.len().max(1) as f64;

    let algos: Vec<(&'static str, Box<dyn Optimizer>)> = vec![
        (
            "ES",
            Box::new(ExhaustiveSearch::with_budget(cfg.es_budget())),
        ),
        (
            "HS",
            Box::new(HeuristicSearch::with_budget(cfg.hs_budget())),
        ),
        (
            "HS-Greedy",
            Box::new(HsGreedy::with_budget(cfg.hs_budget())),
        ),
    ];

    let mut per_algo: Vec<(&'static str, RunStats)> = Vec::new();
    // best_costs[scenario][algo]
    let mut best_costs: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    for (name, algo) in &algos {
        let mut outcomes = Vec::new();
        for (si, s) in scenarios.iter().enumerate() {
            let out = algo
                .run(&s.workflow, &model)
                .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", s.name));
            best_costs[si].push(out.best_cost);
            outcomes.push(out);
        }
        per_algo.push((name, RunStats { outcomes }));
    }
    (category, avg_activities, per_algo, best_costs)
}

/// Quality of solution (Table 1): the share of the best-achieved
/// improvement each algorithm realizes, averaged over the band.
fn quality(per_algo: &[(&'static str, RunStats)], best_costs: &[Vec<f64>]) -> Vec<f64> {
    let n_algos = per_algo.len();
    let mut sums = vec![0.0; n_algos];
    let mut count = 0usize;
    for (si, costs) in best_costs.iter().enumerate() {
        let initial = per_algo[0].1.outcomes[si].initial_cost;
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let best_improvement = initial - best;
        if best_improvement <= 0.0 {
            continue;
        }
        count += 1;
        for (ai, &c) in costs.iter().enumerate() {
            sums[ai] += 100.0 * (initial - c) / best_improvement;
        }
    }
    sums.iter()
        .map(|s| if count == 0 { 100.0 } else { s / count as f64 })
        .collect()
}

/// Run the three algorithms over every band once; both tables print from
/// the same results.
fn run_all_bands(cfg: &Config) -> Vec<BandResult> {
    let suite = cfg.suite();
    SizeCategory::all()
        .into_iter()
        .map(|category| run_band(cfg, category, &suite))
        .collect()
}

fn table1(bands: &[BandResult]) {
    println!("\nTable 1. Quality of solution");
    println!("{:-<72}", "");
    println!(
        "{:<10} {:>16} {:>16} {:>20}",
        "workflow", "ES quality %", "HS quality %", "HS-Greedy quality %"
    );
    for (category, _, per_algo, best_costs) in bands {
        let q = quality(per_algo, best_costs);
        let mark = |i: usize| {
            if per_algo[i].1.any_exhausted() {
                "*"
            } else {
                " "
            }
        };
        println!(
            "{:<10} {:>15.0}{} {:>15.0}{} {:>19.0}{}",
            category.label(),
            q[0],
            mark(0),
            q[1],
            mark(1),
            q[2],
            mark(2),
        );
    }
    println!("* the algorithm hit its budget (the paper's 40-hour ES cap, laptop-scaled);");
    println!("  quality = share of the best-known improvement achieved (avg over scenarios).");
}

fn table2(bands: &[BandResult]) {
    println!(
        "\nTable 2. Execution time, number of visited states and improvement wrt initial state"
    );
    println!("{:-<112}", "");
    println!(
        "{:<8} {:>6} | {:>9} {:>8} {:>8} | {:>9} {:>8} {:>8} | {:>9} {:>8} {:>8}",
        "", "", "ES", "", "", "HS", "", "", "HS-Grdy", "", ""
    );
    println!(
        "{:<8} {:>6} | {:>9} {:>8} {:>8} | {:>9} {:>8} {:>8} | {:>9} {:>8} {:>8}",
        "category",
        "acts",
        "states",
        "improv%",
        "time_ms",
        "states",
        "improv%",
        "time_ms",
        "states",
        "improv%",
        "time_ms"
    );
    for (category, acts, per_algo, _) in bands {
        let cell = |st: &RunStats| {
            (
                st.avg(|o| o.visited_states as f64),
                st.avg(SearchOutcome::improvement_pct),
                st.avg(|o| o.elapsed.as_secs_f64() * 1000.0),
                if st.any_exhausted() { "*" } else { "" },
            )
        };
        let (es_s, es_i, es_t, es_m) = cell(&per_algo[0].1);
        let (hs_s, hs_i, hs_t, hs_m) = cell(&per_algo[1].1);
        let (hg_s, hg_i, hg_t, hg_m) = cell(&per_algo[2].1);
        println!(
            "{:<8} {:>6.0} | {:>8.0}{:1} {:>8.1} {:>8.0} | {:>8.0}{:1} {:>8.1} {:>8.0} | {:>8.0}{:1} {:>8.1} {:>8.0}",
            category.label(),
            acts,
            es_s, es_m, es_i, es_t,
            hs_s, hs_m, hs_i, hs_t,
            hg_s, hg_m, hg_i, hg_t,
        );
    }
    println!(
        "* the algorithm did not terminate within its budget; values reflect its state when stopped."
    );
}

fn fig4() {
    println!("\nFig. 4 — Factorization and distribution example");
    let n: f64 = 8.0;
    let c1p = 2.0 * n * n.log2() + n;
    let c2p = 2.0 * (n + (n / 2.0) * (n / 2.0).log2());
    let c3p = 2.0 * n + (n / 2.0) * (n / 2.0).log2();
    println!("paper formulas  : c1 = {c1p:.0}, c2 = {c2p:.0}, c3 = {c3p:.0}");

    // The three states, derived through the actual transition system.
    let m = RowCountModel::default();
    use etlopt::core::predicate::Predicate;
    use etlopt::core::schema::Schema;
    use etlopt::core::semantics::{BinaryOp, UnaryOp};
    use etlopt::core::transition::{Distribute, Factorize, Swap, Transition};
    use etlopt::core::workflow::WorkflowBuilder;

    // Case 1 (original): SK per branch, union, σ on the joint flow.
    let mut b = WorkflowBuilder::new();
    let s1 = b.source("S1", Schema::of(["k", "v"]), n);
    let s2 = b.source("S2", Schema::of(["k", "v"]), n);
    let sk1 = b.unary("SK1", UnaryOp::surrogate_key("k", "sk", "L"), s1);
    let sk2 = b.unary("SK2", UnaryOp::surrogate_key("k", "sk", "L"), s2);
    let u = b.binary("U", BinaryOp::Union, sk1, sk2);
    let sel = b.unary(
        "σ",
        UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.5),
        u,
    );
    b.target("T", Schema::of(["sk", "v"]), sel);
    let case1 = b.build().expect("fig4 case 1");
    let c1 = m.cost(&case1).unwrap();

    // Case 2 (DIS): distribute σ above the union, then swap each clone
    // ahead of its branch's SK so the filter prunes first.
    let dis = Distribute::new(u, sel).apply(&case1).expect("DIS applies");
    let mut case2 = dis.clone();
    for port in 0..2 {
        let clone = case2.graph().provider(u, port).unwrap().unwrap();
        let sk = case2.graph().provider(clone, 0).unwrap().unwrap();
        case2 = Swap::new(sk, clone).apply(&case2).expect("swap applies");
    }
    let c2 = m.cost(&case2).unwrap();

    // Case 3 (FAC): from case 2, factorize the two homologous SKs into one
    // below the union.
    let fsk1 = case2.graph().provider(u, 0).unwrap().unwrap();
    let fsk2 = case2.graph().provider(u, 1).unwrap().unwrap();
    let case3 = Factorize::new(u, fsk1, fsk2)
        .apply(&case2)
        .expect("FAC applies");
    let c3 = m.cost(&case3).unwrap();

    println!("model pricing   : c1 = {c1:.0}, c2 = {c2:.0}, c3 = {c3:.0}");
    println!(
        "shape check     : DIS beats original = {} | FAC beats original = {}",
        c2 < c1,
        c3 < c1
    );
    println!("               (c2 matches the paper exactly; c1/c3 differ because the paper's");
    println!(
        "                formula counts the joint-flow σ over n instead of 2n rows — see EXPERIMENTS.md)"
    );
}

fn fig1() {
    println!("\nFig. 1 -> Fig. 2 — the running example optimized");
    let wf = scenarios::fig1();
    println!("initial  : {}", wf.signature());
    let model = RowCountModel::default();
    let out = HeuristicSearch::new().run(&wf, &model).expect("HS runs");
    println!("optimized: {}", out.best.signature());
    println!(
        "cost {:.0} -> {:.0} ({:.1}%), {} states visited",
        out.initial_cost,
        out.best_cost,
        out.improvement_pct(),
        out.visited_states
    );
    let exec = Executor::new(scenarios::fig1_catalog(2005, 300, 9000));
    let ok = etlopt::engine::equivalent_execution(&exec, &wf, &out.best).expect("both run");
    println!("empirical equivalence on PARTS1/PARTS2 data: {ok}");
    println!(
        "Fig. 2 structure: σ(€) distributed (clone ids present) = {}",
        out.best.signature().to_string().contains('\'')
    );
}

fn phases(cfg: &Config) {
    println!("\nPhase contribution (Fig. 7 ablation): best cost after each HS phase");
    let model = RowCountModel::default();
    for category in SizeCategory::all() {
        let s = Generator::generate(GeneratorConfig {
            seed: cfg.seed,
            category,
        });
        let out = HeuristicSearch::with_budget(cfg.hs_budget())
            .run(&s.workflow, &model)
            .expect("HS runs");
        print!(
            "  {:<7} initial {:>9.0}",
            category.label(),
            out.initial_cost
        );
        for ph in &out.phase_stats {
            print!(" | {} {:>9.0}", ph.phase, ph.best_cost);
        }
        println!(" | improvement {:.1}%", out.improvement_pct());
    }
}

fn physical() {
    use etlopt::core::physical::{plan, PhysicalConfig};
    println!("\nPhysical plan for the running example (future-work extension)");
    let wf = scenarios::fig1();
    for (label, cfg) in [
        (
            "roomy memory",
            PhysicalConfig {
                memory_rows: 1e6,
                lookup_rows: 1_000.0,
            },
        ),
        (
            "tight memory",
            PhysicalConfig {
                memory_rows: 50.0,
                lookup_rows: 1e6,
            },
        ),
    ] {
        let p = plan(&wf, &cfg).expect("plans");
        let mut choices: Vec<String> = p
            .choices
            .iter()
            .map(|(node, imp)| {
                format!(
                    "{}={}",
                    wf.graph()
                        .activity(*node)
                        .map(|a| a.label.clone())
                        .unwrap_or_default(),
                    imp.tag()
                )
            })
            .collect();
        choices.sort();
        println!(
            "  {label:<14} cost {:>9.0}   {}",
            p.total_cost,
            choices.join(" ")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        seed: 2005,
        paper: false,
    };
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => cfg.paper = true,
            "--seed" => match it.next().map(|s| s.parse()) {
                Some(Ok(seed)) => cfg.seed = seed,
                Some(Err(_)) | None => {
                    eprintln!("--seed takes an unsigned integer, e.g. `--seed 2005`");
                    std::process::exit(2);
                }
            },
            other => commands.push(other.to_owned()),
        }
    }
    if commands.is_empty() {
        commands.push("all".to_owned());
    }
    let mut bands: Option<Vec<BandResult>> = None;
    for c in &commands {
        match c.as_str() {
            "fig1" => fig1(),
            "fig4" => fig4(),
            "physical" => physical(),
            "phases" => phases(&cfg),
            "table1" => table1(bands.get_or_insert_with(|| run_all_bands(&cfg))),
            "table2" => table2(bands.get_or_insert_with(|| run_all_bands(&cfg))),
            "all" => {
                fig1();
                fig4();
                physical();
                phases(&cfg);
                let bands = bands.get_or_insert_with(|| run_all_bands(&cfg));
                table1(bands);
                table2(bands);
            }
            other => {
                eprintln!(
                    "unknown command `{other}`; use fig1|fig4|physical|phases|table1|table2|all"
                );
                std::process::exit(2);
            }
        }
    }
}
