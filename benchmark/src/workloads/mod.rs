//! The five workloads and the interface the runner drives them through.
//!
//! Every workload is a **fixed, seed-generated population of ops** that
//! the runner executes in whole *passes* until the requested measuring
//! time is spent. Each op is reported at the fastest latency it showed in
//! any pass — the reference box's effective CPU speed wanders by a factor
//! of two within seconds, and the fastest of several tries is the one
//! estimate that disturbance cannot inflate — and the end-to-end latency
//! metrics are the median and p95 *across the population* of those. Counters
//! are read from the first pass only, so they repeat exactly for a seed no
//! matter how many passes the machine had time for.

pub mod engine;
pub mod micro;
pub mod replay;
pub mod search_plan;
pub mod serve;

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// Named measurements. The runner emits exactly the names
/// `BENCHMARK.json` lists and rejects any other.
pub type Metrics = BTreeMap<String, f64>;

/// What one pass over the op population measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Latency of every op of the pass, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Wall time of the timed phase, in seconds: the sum of the op spans
    /// for single-threaded loops, first-send to last-reply for the two
    /// closed-loop server clients. Output checks are never inside it.
    pub wall_s: f64,
    /// Ops that errored, were refused, or disagreed with an earlier pass.
    pub failed: u64,
}

/// Outcome of the output checks against the independent reference.
#[derive(Debug, Default)]
pub struct CheckResult {
    pub checked: u64,
    pub failed: u64,
    /// One line per failure, for the operator.
    pub notes: Vec<String>,
}

impl CheckResult {
    pub fn expect(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }
}

/// Knobs shared by every workload's set-up.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Test hook for the harness itself: flip one reference digest so the
    /// output check must fail (see README, "Does the check bite?").
    pub corrupt_reference: bool,
}

pub trait Workload {
    /// Ops in one pass.
    fn ops_per_pass(&self) -> usize;

    /// Closed-loop clients issuing the ops (1 for the in-process loops).
    fn clients(&self) -> usize {
        1
    }

    /// Run every op of the population once. Spans are recorded only when
    /// `tracer.enabled`.
    fn pass(&mut self, tracer: &mut Tracer) -> PassResult;

    /// Compare what the timed passes produced with the reference. Runs
    /// once, after timing.
    fn check(&mut self) -> CheckResult;

    /// Geometric mean of `best_cost / initial_cost` over the searches the
    /// workload made (set-up searches for the engine workloads).
    fn plan_cost_ratio(&self) -> f64;

    /// Per-layer metrics of a traced run: counters of the first traced
    /// pass, timings from `tracer`'s spans, plus the microspans and
    /// replays that belong to the layers this workload exercises. What a
    /// replay finds wrong is reported like any other failed check.
    fn layer_metrics(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> CheckResult;
}

pub const NAMES: [&str; 5] = [
    "search_plan",
    "engine_seq",
    "engine_par2_spill",
    "serve_warm",
    "serve_cold",
];

/// Build one workload from the seed. Everything here is set-up time.
pub fn setup(name: &str, opts: Options) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "search_plan" => Box::new(search_plan::SearchPlan::setup(opts)?),
        "engine_seq" => Box::new(engine::Engine::setup(opts, engine::Mode::Sequential)?),
        "engine_par2_spill" => Box::new(engine::Engine::setup(opts, engine::Mode::Par2Spill)?),
        "serve_warm" => Box::new(serve::Serve::setup(opts, serve::Mode::Warm)?),
        "serve_cold" => Box::new(serve::Serve::setup(opts, serve::Mode::Cold)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?})"
            ))
        }
    })
}

/// The oracle's verdict on *equivalence*: the candidate executes and loads
/// the same multiset into the same targets as the unoptimised workflow.
/// The oracle also cross-validates the cost model's predicted
/// cardinalities (off by 0.6 of a row on one workflow in a few hundred);
/// that judges the cost model, not the plan, and is not an output check.
pub fn equivalence_failures(verdict: &etlopt_conformance::Verdict) -> Vec<String> {
    use etlopt_conformance::Failure;
    verdict
        .failures
        .iter()
        .filter(|f| {
            matches!(
                f,
                Failure::Execution(_) | Failure::TargetSet { .. } | Failure::Multiset { .. }
            )
        })
        .map(Failure::to_string)
        .collect()
}

/// Deterministic Fisher–Yates shuffle on the repo's own generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut etlopt_core::rng::Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Directory for everything a run writes (spill files, calibration
/// stores, trace dumps): `benchmark/out/` under the current directory,
/// which is the root of the checkout.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("benchmark").join("out")
}
