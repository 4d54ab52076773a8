//! The benchmark's contract, read from `BENCHMARK.json` at the root of
//! the checkout: workload names, metric names with unit, direction and
//! regression bound, and the run length. The file is the single source
//! of truth — the harness emits exactly the metrics it names, and
//! refuses to emit one it does not.

use etlopt_server::json::{self, Value};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Metrics that are counts or pure functions of the inputs: two runs of
/// the same code on the same seed must agree on them bit for bit, so a
/// difference is a determinism bug in the program, not noise. (The
/// `pool.*` page counts are exact on `engine_seq` only: with two workers
/// and a spilling pool, eviction order depends on scheduling.)
pub const EXACT: &[&str] = &[
    "plan_cost_ratio",
    "opt.generated",
    "opt.expanded",
    "opt.deduplicated",
    "opt.pruned",
    "exec.rows_in",
    "exec.rows_processed",
    "exec.batches",
];

/// `pool.*` page counts, exact on `engine_seq` only.
pub const EXACT_ON_ENGINE_SEQ: &[&str] = &[
    "pool.pages_appended",
    "pool.pages_staged",
    "pool.pages_spilled",
    "pool.pages_reloaded",
    "pool.evictions",
    "pool.peak_resident_frames",
];

pub fn is_exact(workload: &str, metric: &str) -> bool {
    EXACT.contains(&metric) || (workload == "engine_seq" && EXACT_ON_ENGINE_SEQ.contains(&metric))
}

fn metric_list(root: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let Some(Value::Arr(items)) = root.get(key) else {
        return Err(format!("BENCHMARK.json: missing array `{key}`"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json: `{key}` entry lacks string `{k}`"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Read `BENCHMARK.json` from the current directory (the driver and
    /// `run.sh` both start the benchmark at the root of the checkout).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the root of the checkout): {e}"))?;
        let root = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let Some(Value::Arr(workloads)) = root.get("workloads") else {
            return Err("BENCHMARK.json: missing array `workloads`".to_owned());
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads: workloads
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
                .collect(),
            end_to_end: metric_list(&root, "end_to_end")?,
            per_layer: metric_list(&root, "per_layer")?,
        })
    }
}
