//! The execution-backed equivalence oracle.
//!
//! An [`Oracle`] is built once per scenario from the *original* workflow
//! and an executor over seeded data; [`Oracle::check`] then judges any
//! candidate state the optimizer (or a replayed chain) produced from it:
//!
//! 1. **Multiset equality** — the candidate must load exactly the same bag
//!    of rows into every target recordset, order-insensitive, with
//!    surrogate-key columns rank-normalized (two runs may number
//!    surrogates differently; only the key *structure* must match).
//! 2. **Cost cross-validation** — the row-count cost model, seeded with
//!    the selectivities *observed* on the original run, must predict the
//!    candidate's observed per-target cardinalities within a tight
//!    tolerance, and its per-activity processed-row counts within a loose
//!    one. Target-level drift is failure-grade: on the union-only corpus
//!    the model's propagation is exact, so drift means either a broken
//!    rewrite or a broken model. Activity-level drift is warning-grade
//!    (correlated predicates legitimately break the independence
//!    assumption mid-pipeline).

use std::collections::{BTreeMap, BTreeSet};

use etlopt_core::activity::{ActivityId, Op};
use etlopt_core::cost::RowCountModel;
use etlopt_core::graph::Node;
use etlopt_core::opt::adaptive::is_adjustable;
use etlopt_core::oracle::{
    cross_validate, predicted_processed_rows, predicted_target_rows, RowCountMismatch, Tolerance,
};
use etlopt_core::schema::Attr;
use etlopt_core::semantics::{BinaryOp, UnaryOp};
use etlopt_core::trace::ExecCounters;
use etlopt_core::workflow::Workflow;
use etlopt_engine::{Catalog, ExecResult, ExecStats, Executor, Result, StreamConfig};
use etlopt_workload::calibrate::MIN_SELECTIVITY;
use etlopt_workload::datagen;

/// One way a candidate state failed conformance.
#[derive(Debug, Clone)]
pub enum Failure {
    /// The candidate would not execute at all.
    Execution(String),
    /// The candidate loads a different set of target recordsets.
    TargetSet {
        /// Targets of the original.
        expected: Vec<String>,
        /// Targets of the candidate.
        actual: Vec<String>,
    },
    /// A target's bag of rows differs from the original's.
    Multiset {
        /// Target recordset name.
        target: String,
        /// Rows the original loaded.
        expected_rows: usize,
        /// Rows the candidate loaded.
        actual_rows: usize,
    },
    /// Predicted target cardinalities drifted outside tolerance.
    RowCountDrift(Vec<RowCountMismatch>),
    /// Adjustable activities in the candidate that the original run never
    /// observed, so no selectivity could be transferred. Cross-validating
    /// such a candidate would silently price the unobserved activities as
    /// selectivity-1 pass-throughs — an unsound baseline.
    Uncalibrated(Vec<String>),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Execution(e) => write!(f, "candidate failed to execute: {e}"),
            Failure::TargetSet { expected, actual } => {
                write!(
                    f,
                    "target set differs: expected {expected:?}, got {actual:?}"
                )
            }
            Failure::Multiset {
                target,
                expected_rows,
                actual_rows,
            } => write!(
                f,
                "target `{target}` multiset differs ({expected_rows} vs {actual_rows} rows)"
            ),
            Failure::RowCountDrift(ms) => {
                write!(f, "cost model drift: ")?;
                for (i, m) in ms.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{m}")?;
                }
                Ok(())
            }
            Failure::Uncalibrated(acts) => {
                write!(
                    f,
                    "no observed statistics for activities {acts:?}; cannot calibrate"
                )
            }
        }
    }
}

/// The oracle's judgement of one candidate.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Failure-grade findings; empty means the candidate conforms.
    pub failures: Vec<Failure>,
    /// Warning-grade per-activity prediction drift (reported, not fatal).
    pub warnings: Vec<RowCountMismatch>,
}

impl Verdict {
    /// Did the candidate pass?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summaries of all failures.
    pub fn failure_lines(&self) -> Vec<String> {
        self.failures.iter().map(Failure::to_string).collect()
    }
}

/// The standard executor for a seeded scenario: attribute-convention
/// random data for every source, `rows_per_source` rows each. The data
/// seed is derived from the scenario seed so a (seed, category, rows)
/// triple fully determines the oracle's inputs.
pub fn scenario_executor(wf: &Workflow, rows_per_source: usize, seed: u64) -> Executor {
    Executor::new(datagen::scenario_catalog(wf, rows_per_source, seed))
}

/// Run one scenario through **both executor backends** and demand exact
/// agreement: identical target tables (schema, rows, *and* row order) and
/// bit-identical [`ExecStats`]. This is stricter than the multiset oracle
/// on purpose — the streaming runtime must be observationally
/// indistinguishable from the materializing one, not merely equivalent.
/// Returns the streaming run's pool counters (so callers can additionally
/// assert that a small frame budget really spilled) or a one-line
/// description of the first divergence.
pub fn backend_differential(
    wf: &Workflow,
    rows_per_source: usize,
    seed: u64,
    cfg: StreamConfig,
) -> std::result::Result<ExecCounters, String> {
    let exec = scenario_executor(wf, rows_per_source, seed).with_stream_config(cfg);
    let mat = exec
        .run_materialize(wf)
        .map_err(|e| format!("materialize backend failed: {e}"))?;
    let stream = exec
        .run_stream(wf)
        .map_err(|e| format!("stream backend failed: {e}"))?;
    for (name, want) in &mat.targets {
        match stream.result.targets.get(name) {
            None => return Err(format!("stream backend lost target `{name}`")),
            Some(got) if got != want => {
                return Err(format!(
                    "target `{name}` diverges: materialize loaded {} rows, stream {} \
                     (tables must be identical including row order)",
                    want.len(),
                    got.len(),
                ));
            }
            Some(_) => {}
        }
    }
    if stream.result.targets.len() != mat.targets.len() {
        return Err(format!(
            "stream backend produced {} targets, materialize {}",
            stream.result.targets.len(),
            mat.targets.len(),
        ));
    }
    if stream.result.stats != mat.stats {
        return Err(format!(
            "ExecStats diverge: materialize {:?} vs stream {:?}",
            mat.stats, stream.result.stats,
        ));
    }
    Ok(stream.counters)
}

/// Execution-backed equivalence oracle for one original workflow.
#[derive(Debug)]
pub struct Oracle {
    exec: Executor,
    original: Workflow,
    base: ExecResult,
    /// Surrogate columns of the original, rank-normalized before multiset
    /// comparison.
    surrogates: Vec<Attr>,
    /// Failure-grade tolerance for per-target predictions.
    target_tol: Tolerance,
    /// Warning-grade tolerance for per-activity predictions.
    activity_tol: Tolerance,
}

impl Oracle {
    /// Build an oracle: runs the original once and caches its result.
    pub fn new(original: &Workflow, exec: Executor) -> Result<Self> {
        let base = exec.run(original)?;
        Ok(Oracle {
            exec,
            original: original.clone(),
            surrogates: surrogate_attrs(original),
            base,
            // Target predictions telescope exactly on union-only corpora
            // (products of observed ratios are order-invariant), so even a
            // one-row drift is failure-grade; the absolute slack only
            // absorbs float noise and the MIN_SELECTIVITY clamp.
            target_tol: Tolerance::new(0.002, 0.5),
            // Per-activity predictions legitimately drift mid-pipeline
            // (clone-pooled selectivities, correlated predicates) — loose,
            // and warning-grade only.
            activity_tol: Tolerance::new(0.25, 8.0),
        })
    }

    /// The executor (and with it the catalog) this oracle judges against.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The original workflow the oracle was built from.
    pub fn original(&self) -> &Workflow {
        &self.original
    }

    /// The cached original-run result.
    pub fn baseline(&self) -> &ExecResult {
        &self.base
    }

    /// Judge one candidate state against the original.
    pub fn check(&self, candidate: &Workflow) -> Verdict {
        let mut failures = Vec::new();
        let mut warnings = Vec::new();

        let run = match self.exec.run(candidate) {
            Ok(run) => run,
            Err(e) => {
                return Verdict {
                    failures: vec![Failure::Execution(e.to_string())],
                    warnings,
                }
            }
        };

        // 1. Per-target multiset equality, surrogates rank-normalized.
        let expected: Vec<String> = self.base.targets.keys().cloned().collect();
        let actual: Vec<String> = run.targets.keys().cloned().collect();
        if expected != actual {
            failures.push(Failure::TargetSet { expected, actual });
        } else {
            let mut norm_cols = self.surrogates.clone();
            for a in surrogate_attrs(candidate) {
                if !norm_cols.contains(&a) {
                    norm_cols.push(a);
                }
            }
            for (name, want) in &self.base.targets {
                let got = &run.targets[name];
                let same = want
                    .rank_normalized(&norm_cols)
                    .same_bag(&got.rank_normalized(&norm_cols))
                    .unwrap_or(false);
                if !same {
                    failures.push(Failure::Multiset {
                        target: name.clone(),
                        expected_rows: want.len(),
                        actual_rows: got.len(),
                    });
                }
            }
        }

        // 2. Cost cross-validation: predictions for the candidate topology
        // under the original run's observed statistics.
        match self.cross_validate_candidate(candidate, &run) {
            Ok((unobserved, target_drift, activity_drift)) => {
                if !unobserved.is_empty() {
                    failures.push(Failure::Uncalibrated(unobserved));
                }
                if !target_drift.is_empty() {
                    failures.push(Failure::RowCountDrift(target_drift));
                }
                warnings.extend(activity_drift);
            }
            Err(e) => failures.push(Failure::Execution(format!("cross-validation: {e}"))),
        }

        Verdict { failures, warnings }
    }

    /// Predicted-vs-observed row counts for a candidate: `(unobserved
    /// adjustable activities, failure-grade target drift, warning-grade
    /// activity drift)`. A non-empty unobserved list is failure-grade: it
    /// means the baseline itself would rest on uncalibrated priors.
    #[allow(clippy::type_complexity)]
    fn cross_validate_candidate(
        &self,
        candidate: &Workflow,
        run: &ExecResult,
    ) -> std::result::Result<(Vec<String>, Vec<RowCountMismatch>, Vec<RowCountMismatch>), String>
    {
        let transfer = transfer_calibration(&self.base.stats, candidate, self.exec.catalog())
            .map_err(|e| e.to_string())?;
        let calibrated = transfer.workflow;
        let model = RowCountModel::default();
        let skip = estimate_only_tokens(candidate).map_err(|e| e.to_string())?;

        let predicted_targets =
            predicted_target_rows(&calibrated, &model).map_err(|e| e.to_string())?;
        let observed_targets: BTreeMap<String, u64> = run
            .targets
            .iter()
            .map(|(name, t)| (name.clone(), t.len() as u64))
            .collect();
        let target_drift = cross_validate(
            &predicted_targets,
            &observed_targets,
            self.target_tol,
            |key| skip.contains(key),
        );

        let predicted_acts =
            predicted_processed_rows(&calibrated, &model).map_err(|e| e.to_string())?;
        let activity_drift = cross_validate(
            &predicted_acts,
            &run.stats.rows_processed,
            self.activity_tol,
            |key| skip.contains(key),
        );
        Ok((transfer.unobserved, target_drift, activity_drift))
    }
}

/// Every surrogate attribute a workflow's SK activities generate and its
/// targets still carry.
fn surrogate_attrs(wf: &Workflow) -> Vec<Attr> {
    let g = wf.graph();
    let mut out = Vec::new();
    let Ok(acts) = wf.activities() else {
        return out;
    };
    for id in acts {
        if let Ok(act) = g.activity(id) {
            collect_surrogates(&act.op, &mut out);
        }
    }
    out
}

fn collect_surrogates(op: &Op, out: &mut Vec<Attr>) {
    if let Op::Unary(UnaryOp::SurrogateKey { surrogate, .. }) = op {
        if !out.contains(surrogate) {
            out.push(surrogate.clone());
        }
    }
}

/// Stat keys whose cardinality the model only *estimates*: everything
/// downstream of a non-union binary (join/difference/intersection
/// cardinalities are guesses, union is exact `l + r`).
fn estimate_only_tokens(wf: &Workflow) -> etlopt_core::error::Result<BTreeSet<String>> {
    let g = wf.graph();
    let mut starts = Vec::new();
    for id in wf.activities()? {
        if let Op::Binary(op) = &*g.activity(id)?.op {
            if !matches!(op, BinaryOp::Union) {
                starts.push(id);
            }
        }
    }
    let mut out = BTreeSet::new();
    if starts.is_empty() {
        return Ok(out);
    }
    for id in etlopt_core::schema_gen::downstream_of(g, &starts)? {
        match g.node(id)? {
            Node::Activity(a) => {
                out.insert(a.id.to_string());
            }
            Node::Recordset(rs) => {
                out.insert(rs.name.clone());
            }
        }
    }
    Ok(out)
}

/// Resolve a candidate activity id to the original base activities whose
/// observed statistics should parameterize it: a distribution clone
/// inherits its template's stats, a factorization product pools both of
/// its originators' (row-weighted — exactly the combined selectivity of
/// the factored activity).
fn stat_leaves(id: &ActivityId, observed: &ExecStats, out: &mut Vec<ActivityId>) {
    if observed.rows_processed.contains_key(&id.to_string()) {
        out.push(id.clone());
        return;
    }
    match id {
        ActivityId::Cloned(base, _) => stat_leaves(base, observed, out),
        ActivityId::Factored(a, b) => {
            stat_leaves(a, observed, out);
            stat_leaves(b, observed, out);
        }
        // A merged id exists only inside a search; no run observes one.
        ActivityId::Base(_) | ActivityId::Merged(_) => {}
    }
}

/// The result of transferring observed statistics onto a candidate
/// topology: the re-estimated workflow, plus every adjustable activity the
/// observations could not reach.
#[derive(Debug, Clone)]
pub struct CalibrationTransfer {
    /// The candidate with observed source cardinalities and selectivities.
    pub workflow: Workflow,
    /// Adjustable activities with **no** observed statistic — neither the
    /// activity itself nor any originating base activity appears in the
    /// run's `rows_processed`. These keep their a-priori selectivity, so
    /// predictions through them are estimates, not transfers; callers must
    /// decide whether that is acceptable rather than have it papered over.
    pub unobserved: Vec<String>,
}

/// Re-estimate a candidate topology from the original run's observations:
/// every source recordset gets its actual catalog cardinality, every
/// cardinality-changing unary activity gets the selectivity observed for
/// its originating activities on the original run. The workflow in the
/// result is the state the cost model *should* price exactly on a
/// union-only workflow — the cross-validation baseline. Activities no
/// observation resolves for are reported in
/// [`CalibrationTransfer::unobserved`] instead of being silently left at
/// their (unvalidated) priors.
pub fn transfer_calibration(
    observed: &ExecStats,
    candidate: &Workflow,
    catalog: &Catalog,
) -> etlopt_core::error::Result<CalibrationTransfer> {
    let g = candidate.graph();
    let mut out = candidate.clone();
    let mut unobserved = Vec::new();

    for src in candidate.sources() {
        let name = &g.recordset(src)?.name;
        if let Some(table) = catalog.table(name) {
            out.set_row_estimate(src, table.len() as f64)?;
        }
    }

    for node in candidate.activities()? {
        let act = g.activity(node)?;
        if !is_adjustable(&act.op) {
            continue;
        }
        let mut leaves = Vec::new();
        stat_leaves(&act.id, observed, &mut leaves);
        if leaves.is_empty() {
            unobserved.push(act.id.to_string());
            continue;
        }
        let (mut inp, mut outp) = (0u64, 0u64);
        for leaf in &leaves {
            let key = leaf.to_string();
            inp += observed.rows_processed.get(&key).copied().unwrap_or(0);
            outp += observed.rows_out.get(&key).copied().unwrap_or(0);
        }
        if inp > 0 {
            let s = (outp as f64 / inp as f64).clamp(MIN_SELECTIVITY, 1.0);
            out.set_selectivity(node, s)?;
        }
    }
    Ok(CalibrationTransfer {
        workflow: out,
        unobserved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::opt::enumerate_moves;
    use etlopt_core::oracle::{apply_faulty_pushdown, faulty_pushdown_sites};
    use etlopt_workload::{Generator, GeneratorConfig, SizeCategory};

    fn scenario_oracle(seed: u64) -> (Workflow, Oracle) {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let exec = scenario_executor(&s.workflow, 80, seed);
        let oracle = Oracle::new(&s.workflow, exec).expect("original executes");
        (s.workflow, oracle)
    }

    #[test]
    fn original_passes_its_own_oracle() {
        let (wf, oracle) = scenario_oracle(3);
        let v = oracle.check(&wf);
        assert!(v.passed(), "{:?}", v.failures);
        // On the original topology the transferred predictions are exact:
        // no warning-grade drift either.
        assert!(v.warnings.is_empty(), "{:?}", v.warnings);
    }

    #[test]
    fn legitimate_transitions_pass() {
        let (wf, oracle) = scenario_oracle(5);
        let mut checked = 0;
        for mv in enumerate_moves(&wf).unwrap() {
            if let Ok(next) = mv.apply(&wf) {
                let v = oracle.check(&next);
                assert!(v.passed(), "{} failed: {:?}", mv.describe(&wf), v.failures);
                checked += 1;
            }
        }
        assert!(checked > 0, "scenario had no applicable moves");
    }

    #[test]
    fn faulty_pushdown_is_caught() {
        // Seed chosen so the seeded catalog has rows in the decision
        // boundary the faulty rewrite flips — without such rows the mutant
        // is extensionally identical and *no* execution oracle could (or
        // should) flag it.
        let (wf, oracle) = scenario_oracle(2);
        let sites = faulty_pushdown_sites(&wf).unwrap();
        assert!(!sites.is_empty(), "generated trap must provide a site");
        let bad = apply_faulty_pushdown(&wf, sites[0]).unwrap();
        let v = oracle.check(&bad);
        assert!(!v.passed(), "oracle must catch the $2€ pushdown");
        assert!(
            v.failures
                .iter()
                .any(|f| matches!(f, Failure::Multiset { .. })),
            "expected a multiset failure, got {:?}",
            v.failures
        );
    }

    #[test]
    fn transfer_reports_unobserved_activities() {
        // Doctor the stats so one filter was never observed — e.g. because
        // the plan that produced them had pruned it. The transfer must name
        // the miss instead of silently pricing it as a pass-through.
        use etlopt_core::prelude::*;

        let mut b = WorkflowBuilder::new();
        let src = b.source("S", Schema::of(["id", "v"]), 10.0);
        let f1 = b.unary("sa", UnaryOp::filter(Predicate::gt("v", 1)), src);
        let f2 = b.unary("sb", UnaryOp::filter(Predicate::gt("id", 1)), f1);
        b.target("T", Schema::of(["id", "v"]), f2);
        let wf = b.build().unwrap();

        let g = wf.graph();
        let mut ids: Vec<String> = wf
            .activities()
            .unwrap()
            .into_iter()
            .map(|n| g.activity(n).unwrap().id.to_string())
            .collect();
        ids.sort();
        let (observed_id, pruned_id) = (ids[0].clone(), ids[1].clone());

        let mut stats = ExecStats::default();
        stats.rows_processed.insert(observed_id, 10);
        stats.rows_out.insert(ids[0].clone(), 6);

        let transfer = transfer_calibration(&stats, &wf, &Catalog::new()).unwrap();
        assert_eq!(
            transfer.unobserved,
            vec![pruned_id],
            "the unobserved filter must be reported, not defaulted to selectivity 1"
        );
    }

    #[test]
    fn foreign_workflow_fails_target_set() {
        let (_, oracle) = scenario_oracle(11);
        let mut b = etlopt_core::workflow::WorkflowBuilder::new();
        let s = b.source("SRC1", etlopt_core::schema::Schema::of(["pkey"]), 10.0);
        b.target("ELSEWHERE", etlopt_core::schema::Schema::of(["pkey"]), s);
        let other = b.build().unwrap();
        let v = oracle.check(&other);
        assert!(v
            .failures
            .iter()
            .any(|f| matches!(f, Failure::TargetSet { .. })));
    }
}
