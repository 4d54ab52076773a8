//! Feedback-driven re-optimization (§6 "future work" closed): calibrate →
//! re-optimize → converge.
//!
//! The paper's searches price states with *assigned* selectivities. This
//! module closes the loop against an execution engine: run the chosen
//! plan, harvest each activity's observed pass rate into a [`Calibration`]
//! keyed by u128 activity-identity fingerprints (so an observation made on
//! one state transfers to every sibling state that still contains the
//! activity — clones resolve to their template, factored products pool
//! both originators row-weighted), re-seed the workflow's estimates,
//! re-optimize, and repeat until the chosen plan's structural fingerprint
//! is stable or the round budget runs out.
//!
//! Layering: this module owns the model-side loop — observation and
//! calibration are traits ([`PlanObserver`], [`Calibration`]) so the core
//! crate never depends on the engine. The engine's `Harvester` implements
//! [`PlanObserver`] (cached re-runs over the shared prefix cache); the
//! workload crate's `CalibrationStore` implements [`Calibration`] with
//! JSON persistence and commutative/idempotent merge.
//!
//! Determinism contract (extends the search contract): same initial
//! workflow + same observer behaviour ⇒ byte-identical round trajectory —
//! per-round fingerprints, costs and deterministic counters. Everything
//! here iterates `BTreeMap`s and topologically-ordered node lists; nothing
//! samples clocks or entropy.

use std::collections::BTreeMap;

use crate::activity::{ActivityId, Op};
use crate::cost::CostModel;
use crate::error::{CoreError, Result};
use crate::opt::{Optimizer, SearchOutcome};
use crate::oracle::predicted_target_rows;
use crate::signature::Fp128;
use crate::trace::SearchStats;
use crate::workflow::Workflow;

/// Floor for calibrated selectivities: an activity that passed zero rows
/// on the observed sample still gets a tiny positive estimate (zero would
/// collapse every downstream plan to cost 0 and erase the ordering the
/// search ranks by).
pub const SELECTIVITY_FLOOR: f64 = 1e-4;

/// The u128 identity fingerprint of one activity — the key calibration
/// entries live under. Digests the activity's lifelong id (the paper's
/// stable priorities), *not* its position in any particular state, so the
/// key survives every transition that keeps the activity alive and
/// transfers across sibling states of the same search.
pub fn activity_key(id: &ActivityId) -> u128 {
    activity_key_str(&id.to_string())
}

/// [`activity_key`] over the id's canonical string rendering — the form
/// execution statistics are keyed by.
pub fn activity_key_str(id: &str) -> u128 {
    let mut fp = Fp128::new();
    fp.write(b"cal:");
    fp.write(id.as_bytes());
    fp.finish()
}

/// One calibration entry: observed row traffic through an activity. The
/// ratio is stored as raw tallies, not a float, so merge semantics stay
/// exact and the evidence weight (rows seen) is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CalEntry {
    /// Rows the activity processed (sum over its input ports).
    pub rows_in: u64,
    /// Rows it emitted.
    pub rows_out: u64,
}

impl CalEntry {
    /// An entry from raw tallies.
    pub fn new(rows_in: u64, rows_out: u64) -> CalEntry {
        CalEntry { rows_in, rows_out }
    }

    /// Observed selectivity, clamped to `[SELECTIVITY_FLOOR, 1.0]`.
    /// `None` when the activity processed nothing — a 0/0 ratio carries no
    /// evidence and must fall back to the assigned prior.
    pub fn selectivity(&self) -> Option<f64> {
        if self.rows_in == 0 {
            None
        } else {
            Some((self.rows_out as f64 / self.rows_in as f64).clamp(SELECTIVITY_FLOOR, 1.0))
        }
    }

    /// Max-evidence choice between two observations of the same activity:
    /// the entry that saw more rows wins (an activity observed early in
    /// the pipeline approximates its marginal selectivity better than one
    /// observed after upstream filters thinned the flow). Commutative and
    /// idempotent — the law the store's merge test pins down.
    pub fn prefer(self, other: CalEntry) -> CalEntry {
        if (other.rows_in, other.rows_out) > (self.rows_in, self.rows_out) {
            other
        } else {
            self
        }
    }

    /// Pool two entries as one combined observation (row-weighted — the
    /// combined selectivity of a factored product's two originators).
    pub fn pool(self, other: CalEntry) -> CalEntry {
        CalEntry {
            rows_in: self.rows_in.saturating_add(other.rows_in),
            rows_out: self.rows_out.saturating_add(other.rows_out),
        }
    }
}

/// A calibration source/sink the adaptive loop reads and feeds.
///
/// Contract: `record` must keep the max-evidence entry per key
/// ([`CalEntry::prefer`]), and `record_source` the largest observed
/// cardinality — both so that repeated harvests of the same run are
/// no-ops and merges of independently-built stores commute.
pub trait Calibration {
    /// The entry stored under an activity-identity fingerprint, if any.
    fn entry(&self, key: u128) -> Option<CalEntry>;
    /// Record an observation for `key`. `activity` is the id's canonical
    /// string (kept for diagnostics/serialization, not for lookup).
    fn record(&mut self, key: u128, activity: &str, entry: CalEntry);
    /// Observed cardinality of a source recordset, if any.
    fn source_rows(&self, name: &str) -> Option<u64>;
    /// Record a source recordset's observed cardinality.
    fn record_source(&mut self, name: &str, rows: u64);
}

/// Everything one plan execution tells the loop: per-activity row traffic
/// (keyed by the activity id's canonical string, exactly like the
/// engine's `ExecStats`), source cardinalities, and the rows each target
/// recordset received.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observation {
    /// Rows processed per activity id string.
    pub rows_processed: BTreeMap<String, u64>,
    /// Rows emitted per activity id string.
    pub rows_out: BTreeMap<String, u64>,
    /// Rows per source recordset name.
    pub source_rows: BTreeMap<String, u64>,
    /// Rows loaded per target recordset name.
    pub target_rows: BTreeMap<String, u64>,
}

/// Something that can execute a plan and report what it saw — the engine
/// side of the loop. Implementations must be deterministic: observing the
/// same plan twice must return the same numbers (modulo keys legitimately
/// absent because a shared-prefix cache short-circuited their subflow —
/// those entries were recorded identically on the run that populated the
/// cache).
pub trait PlanObserver {
    /// Execute `wf` and report the observed row traffic.
    fn observe(&mut self, wf: &Workflow) -> Result<Observation>;
}

/// Fold one observation into a calibration store.
pub fn harvest(cal: &mut dyn Calibration, obs: &Observation) {
    for (id, &rows_in) in &obs.rows_processed {
        let rows_out = obs.rows_out.get(id).copied().unwrap_or(0);
        cal.record(activity_key_str(id), id, CalEntry { rows_in, rows_out });
    }
    for (name, &rows) in &obs.source_rows {
        cal.record_source(name, rows);
    }
}

/// Is this the kind of activity whose selectivity calibration may
/// overwrite — a unary that carries an estimate
/// ([`UnaryOp::estimate`](crate::semantics::UnaryOp::estimate))?
/// Functions, surrogate keys and binaries keep their model-assigned
/// semantics.
pub fn is_adjustable(op: &Op) -> bool {
    matches!(op, Op::Unary(u) if u.estimate().is_some())
}

/// Resolve the calibration entry for an activity id: the exact key first,
/// then structurally — a clone inherits its template's entry, a factored
/// product pools both originators (row-weighted). A merged id exists only
/// inside a search, never in an executed plan, so it resolves to nothing
/// past its exact key. Mirrors the oracle's `stat_leaves` resolution, but
/// against the store instead of one run's statistics.
fn resolve_entry(id: &ActivityId, cal: &dyn Calibration) -> Option<CalEntry> {
    if let Some(e) = cal.entry(activity_key(id)) {
        return Some(e);
    }
    match id {
        ActivityId::Base(_) | ActivityId::Merged(_) => None,
        ActivityId::Cloned(base, _) => resolve_entry(base, cal),
        ActivityId::Factored(a, b) => match (resolve_entry(a, cal), resolve_entry(b, cal)) {
            (Some(ea), Some(eb)) => Some(ea.pool(eb)),
            (one, other) => one.or(other),
        },
    }
}

/// The result of re-seeding a workflow's estimates from a store.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The workflow with calibrated selectivities and source cardinalities.
    pub workflow: Workflow,
    /// Adjustable activities whose estimate was replaced by an observation.
    pub seeded: usize,
    /// Adjustable activities with no resolvable calibration — their
    /// assigned prior was kept (the explicit fallback the round report
    /// surfaces as `misses`).
    pub missing: Vec<String>,
}

/// Re-seed `wf`'s estimates from the store: every source whose observed
/// cardinality is known gets it as its row estimate; every adjustable
/// activity whose identity (or its structural ancestors') has been
/// observed gets the observed selectivity, clamped to
/// `[SELECTIVITY_FLOOR, 1.0]`. Unknown identities keep their assigned
/// prior and are reported in [`SeedOutcome::missing`] — never silently
/// treated as pass-throughs.
pub fn seed_workflow(wf: &Workflow, cal: &dyn Calibration) -> Result<SeedOutcome> {
    let mut out = wf.clone();
    let g = wf.graph();
    for src in wf.sources() {
        let name = &g.recordset(src)?.name;
        if let Some(rows) = cal.source_rows(name) {
            out.set_row_estimate(src, rows as f64)?;
        }
    }
    let mut seeded = 0usize;
    let mut missing = Vec::new();
    for node in wf.activities()? {
        let act = g.activity(node)?;
        if !is_adjustable(&act.op) {
            continue;
        }
        match resolve_entry(&act.id, cal).and_then(|e| e.selectivity()) {
            Some(s) => {
                out.set_selectivity(node, s)?;
                seeded += 1;
            }
            None => missing.push(act.id.to_string()),
        }
    }
    Ok(SeedOutcome {
        workflow: out,
        seeded,
        missing,
    })
}

/// Knobs for the adaptive loop. The search budget lives on the
/// [`Optimizer`] the loop is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Maximum calibrate → re-optimize rounds (≥ 1). Convergence needs at
    /// least two: the fingerprint must repeat.
    pub max_rounds: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { max_rounds: 4 }
    }
}

impl AdaptiveConfig {
    /// A loop bounded at `max_rounds` rounds.
    pub fn rounds(max_rounds: usize) -> Self {
        AdaptiveConfig { max_rounds }
    }
}

/// One round of the loop: what was chosen, what it cost under that
/// round's calibration, and how far the predictions were from what the
/// engine then observed.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// The plan this round chose (and executed).
    pub plan: Workflow,
    /// Structural fingerprint of the chosen plan — the convergence key.
    pub fingerprint: u128,
    /// The chosen plan's signature string.
    pub signature: String,
    /// Chosen plan's cost under this round's calibrated estimates.
    pub calibrated_cost: f64,
    /// Best cost the search itself reported this round.
    pub search_cost: f64,
    /// `true` when the previous round's plan was kept because the fresh
    /// search found nothing cheaper under the new calibration.
    pub kept_incumbent: bool,
    /// Adjustable activities seeded from observations this round.
    pub seeded: usize,
    /// Adjustable activities with no calibration (assigned prior kept).
    pub misses: usize,
    /// Mean relative error of predicted vs observed target cardinalities.
    pub mean_rel_error: f64,
    /// Worst relative error across targets.
    pub max_rel_error: f64,
    /// Telemetry of this round's search run.
    pub stats: SearchStats,
    /// Did this round's search observe its wall-clock deadline
    /// ([`SearchOutcome::time_capped`])? Not part of [`AdaptiveReport::to_json`].
    pub time_capped: bool,
}

/// The loop's typed outcome: the full round trajectory plus convergence.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Search algorithm the rounds ran.
    pub algorithm: String,
    /// Cost of the uncalibrated initial workflow under the model.
    pub initial_cost: f64,
    /// Round trajectory, in execution order.
    pub rounds: Vec<RoundReport>,
    /// Did the chosen plan's fingerprint repeat before the budget ran out?
    pub converged: bool,
}

impl AdaptiveReport {
    /// Rounds actually executed.
    pub fn rounds_used(&self) -> usize {
        self.rounds.len()
    }

    /// The last round, if any ran.
    pub fn final_round(&self) -> Option<&RoundReport> {
        self.rounds.last()
    }

    /// The converged (or best-so-far) plan.
    pub fn final_plan(&self) -> Option<&Workflow> {
        self.rounds.last().map(|r| &r.plan)
    }

    /// All rounds' search telemetry absorbed into one aggregate.
    pub fn stats_total(&self) -> SearchStats {
        let mut total = SearchStats::new("adaptive");
        for r in &self.rounds {
            total.absorb(&r.stats);
        }
        total
    }

    /// Deterministic JSON projection of the trajectory: every field is
    /// byte-identical run to run (costs and fingerprints by the search
    /// determinism contract, counters via
    /// [`SearchStats::counters_json`]).
    pub fn to_json(&self) -> String {
        let mut rounds = String::new();
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                rounds.push_str(",\n");
            }
            let counters = r
                .stats
                .counters_json()
                .lines()
                .collect::<Vec<_>>()
                .join("\n      ");
            rounds.push_str(&format!(
                concat!(
                    "    {{\n",
                    "      \"round\": {},\n",
                    "      \"fingerprint\": \"{:032x}\",\n",
                    "      \"signature\": \"{}\",\n",
                    "      \"calibrated_cost\": {},\n",
                    "      \"search_cost\": {},\n",
                    "      \"kept_incumbent\": {},\n",
                    "      \"seeded\": {},\n",
                    "      \"misses\": {},\n",
                    "      \"mean_rel_error\": {:.6},\n",
                    "      \"max_rel_error\": {:.6},\n",
                    "      \"counters\": {}\n",
                    "    }}"
                ),
                r.round,
                r.fingerprint,
                r.signature,
                r.calibrated_cost,
                r.search_cost,
                r.kept_incumbent,
                r.seeded,
                r.misses,
                r.mean_rel_error,
                r.max_rel_error,
                counters,
            ));
        }
        format!(
            concat!(
                "{{\n",
                "  \"algorithm\": \"{}\",\n",
                "  \"initial_cost\": {},\n",
                "  \"rounds_used\": {},\n",
                "  \"converged\": {},\n",
                "  \"rounds\": [\n{}\n  ]\n",
                "}}\n"
            ),
            self.algorithm,
            self.initial_cost,
            self.rounds_used(),
            self.converged,
            rounds,
        )
    }
}

/// Predicted-vs-observed target error of one round: `(mean, max)` of
/// `|predicted − observed| / max(observed, 1)` across targets.
fn target_error(predicted: &BTreeMap<String, f64>, observed: &BTreeMap<String, u64>) -> (f64, f64) {
    if observed.is_empty() {
        return (0.0, 0.0);
    }
    let (mut sum, mut max) = (0.0f64, 0.0f64);
    for (name, &rows) in observed {
        let pred = predicted.get(name).copied().unwrap_or(0.0);
        let rel = (pred - rows as f64).abs() / (rows as f64).max(1.0);
        sum += rel;
        max = max.max(rel);
    }
    (sum / observed.len() as f64, max)
}

/// The calibrate → re-optimize → converge loop.
///
/// Each round: re-seed the *original* workflow's estimates from the
/// store, search it, keep the previous round's plan if the fresh search
/// found nothing cheaper under the new calibration (the incumbent rule —
/// this makes the calibrated-cost trajectory non-increasing and the
/// fingerprint sequence convergence-friendly), execute the chosen plan,
/// harvest its observed statistics, and stop as soon as the chosen
/// fingerprint repeats.
pub fn run_adaptive(
    wf: &Workflow,
    model: &dyn CostModel,
    optimizer: &dyn Optimizer,
    observer: &mut dyn PlanObserver,
    cal: &mut dyn Calibration,
    cfg: AdaptiveConfig,
) -> Result<AdaptiveReport> {
    if cfg.max_rounds == 0 {
        return Err(CoreError::Observation(
            "adaptive loop needs at least one round".to_owned(),
        ));
    }
    let initial_cost = model.cost(wf)?;
    let mut report = AdaptiveReport {
        algorithm: optimizer.name().to_owned(),
        initial_cost,
        rounds: Vec::new(),
        converged: false,
    };
    let mut incumbent: Option<Workflow> = None;
    let mut prev_fp: Option<u128> = None;

    for round in 1..=cfg.max_rounds {
        let seed = seed_workflow(wf, cal)?;
        let outcome: SearchOutcome = optimizer.run(&seed.workflow, model)?;
        let search_cost = outcome.best_cost;

        // Incumbent rule: re-estimate the previous winner under the new
        // calibration and keep it unless the fresh search strictly beat
        // it. Both sides are priced by the same full-cost path so the
        // comparison is apples-to-apples.
        let candidate_cost = model.cost(&outcome.best)?;
        let (chosen, calibrated_cost, kept) = match &incumbent {
            Some(prev) => {
                let prev_seeded = seed_workflow(prev, cal)?.workflow;
                let prev_cost = model.cost(&prev_seeded)?;
                if prev_cost <= candidate_cost {
                    (prev_seeded, prev_cost, true)
                } else {
                    (outcome.best, candidate_cost, false)
                }
            }
            None => (outcome.best, candidate_cost, false),
        };
        let fingerprint = chosen.fingerprint();

        let obs = observer.observe(&chosen)?;
        let predicted = predicted_target_rows(&chosen, model)?;
        let (mean_rel_error, max_rel_error) = target_error(&predicted, &obs.target_rows);
        harvest(cal, &obs);

        report.rounds.push(RoundReport {
            round,
            fingerprint,
            signature: chosen.signature().as_str().to_owned(),
            plan: chosen.clone(),
            calibrated_cost,
            search_cost,
            kept_incumbent: kept,
            seeded: seed.seeded,
            misses: seed.missing.len(),
            mean_rel_error,
            max_rel_error,
            stats: outcome.stats,
            time_capped: outcome.time_capped,
        });

        if prev_fp == Some(fingerprint) {
            report.converged = true;
            return Ok(report);
        }
        prev_fp = Some(fingerprint);
        incumbent = Some(chosen);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_keys_are_stable_and_distinct() {
        let a = ActivityId::Base(3);
        let b = ActivityId::Base(4);
        assert_eq!(activity_key(&a), activity_key(&a));
        assert_ne!(activity_key(&a), activity_key(&b));
        // The key digests the canonical string, so a clone's key matches
        // neither its template nor other clones.
        let c = ActivityId::Cloned(Box::new(a.clone()), 1);
        assert_ne!(activity_key(&c), activity_key(&a));
        assert_eq!(activity_key(&c), activity_key_str("3'1"));
    }

    #[test]
    fn prefer_is_commutative_and_idempotent() {
        let a = CalEntry {
            rows_in: 100,
            rows_out: 90,
        };
        let b = CalEntry {
            rows_in: 90,
            rows_out: 10,
        };
        assert_eq!(a.prefer(b), b.prefer(a));
        assert_eq!(a.prefer(a), a);
        assert_eq!(a.prefer(b), a, "more evidence wins");
    }
}
