//! Engine-agnostic half of the differential conformance oracle.
//!
//! Theorem 2 guarantees that transition chains produce *equivalent*
//! workflows; the post-condition calculus ([`crate::postcond`]) proves this
//! formally. The conformance harness (crate `etlopt-conformance`) closes the
//! loop by executing optimizer-produced states on the real engine. This
//! module holds the pieces of that harness that do not need the engine:
//!
//! * [`predicted_processed_rows`] — per-activity processed-row predictions
//!   under a cost model, keyed exactly like the engine's `ExecStats` so the
//!   two sides can be joined;
//! * [`cross_validate`] — tolerance-based comparison of predicted vs
//!   observed row counts;
//! * [`ddmin`] — a delta-debugging minimizer that shrinks a failing
//!   transition chain to a (1-)minimal sub-chain that still fails.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::activity::Op;
use crate::cost::CostModel;
use crate::error::{CoreError, Result};
use crate::graph::{Node, NodeId};
use crate::predicate::Predicate;
use crate::schema::Attr;
use crate::semantics::UnaryOp;
use crate::workflow::Workflow;

/// Rows each activity is predicted to *process* (the sum of the estimated
/// rows arriving on each of its input ports), keyed by the activity's
/// stable id token — the same key the engine's `ExecStats::rows_processed`
/// uses, so predictions and observations join directly.
///
/// The estimates are the rows [`CostModel::price`] propagates, i.e. the
/// numbers the model actually prices states with.
pub fn predicted_processed_rows(
    wf: &Workflow,
    model: &dyn CostModel,
) -> Result<BTreeMap<String, f64>> {
    let priced = model.price(wf)?;
    let graph = wf.graph();
    let mut out = BTreeMap::new();
    for id in wf.activities()? {
        let act = graph.activity(id)?;
        let mut processed = 0.0;
        for p in graph.providers(id)?.iter().flatten() {
            processed += priced.rows_out(*p);
        }
        out.insert(act.id.to_string(), processed);
    }
    Ok(out)
}

/// Predicted rows loaded into each target recordset, keyed by target name
/// (joining with the engine's per-target tables).
pub fn predicted_target_rows(
    wf: &Workflow,
    model: &dyn CostModel,
) -> Result<BTreeMap<String, f64>> {
    let priced = model.price(wf)?;
    let graph = wf.graph();
    let mut out = BTreeMap::new();
    for t in wf.targets() {
        if let Node::Recordset(rs) = graph.node(t)? {
            out.insert(rs.name.clone(), priced.rows_out(t));
        }
    }
    Ok(out)
}

/// Acceptable deviation between a predicted and an observed row count. A
/// pair agrees when `|predicted − observed| ≤ max(absolute, relative ·
/// observed)` — the absolute slack absorbs rounding on tiny flows, the
/// relative slack absorbs estimation noise on large ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative slack against the observed count.
    pub relative: f64,
    /// Absolute slack in rows.
    pub absolute: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            relative: 0.05,
            absolute: 2.0,
        }
    }
}

impl Tolerance {
    /// A tolerance with the given relative and absolute slack.
    pub fn new(relative: f64, absolute: f64) -> Self {
        Tolerance { relative, absolute }
    }

    /// Do the two counts agree under this tolerance?
    pub fn agrees(&self, predicted: f64, observed: f64) -> bool {
        (predicted - observed).abs() <= self.absolute.max(self.relative * observed)
    }
}

/// One predicted-vs-observed disagreement found by [`cross_validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowCountMismatch {
    /// The joined key (activity id token or target name).
    pub key: String,
    /// The cost model's prediction.
    pub predicted: f64,
    /// What the engine observed.
    pub observed: f64,
}

impl std::fmt::Display for RowCountMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: predicted {:.1} rows, observed {:.0}",
            self.key, self.predicted, self.observed
        )
    }
}

/// Join predicted and observed row counts on their keys and return every
/// pair that disagrees under `tol`. A key present on only one side is
/// compared against zero, so phantom or missing activities surface as
/// mismatches too. `skip` filters keys exempt from validation (e.g.
/// activities downstream of a non-union binary, whose cardinality is a
/// genuine estimate rather than a propagated certainty).
pub fn cross_validate(
    predicted: &BTreeMap<String, f64>,
    observed: &BTreeMap<String, u64>,
    tol: Tolerance,
    mut skip: impl FnMut(&str) -> bool,
) -> Vec<RowCountMismatch> {
    let mut out = Vec::new();
    let keys: std::collections::BTreeSet<&String> =
        predicted.keys().chain(observed.keys()).collect();
    for key in keys {
        if skip(key) {
            continue;
        }
        let p = predicted.get(key).copied().unwrap_or(0.0);
        let o = observed.get(key).copied().unwrap_or(0) as f64;
        if !tol.agrees(p, o) {
            out.push(RowCountMismatch {
                key: key.clone(),
                predicted: p,
                observed: o,
            });
        }
    }
    out
}

/// A place where the paper's `$2€` pushdown error (Fig. 5) can be
/// injected: a function activity generating attribute *b* from *a*, whose
/// single consumer is a selection over *b*. [`Swap::check`] rejects this
/// pair (functionality violation); [`apply_faulty_pushdown`] commits it
/// anyway, producing a *valid, executable, semantically wrong* workflow
/// the conformance oracle must catch.
///
/// [`Swap::check`]: crate::transition::Swap
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultySite {
    /// The generating function activity.
    pub function: NodeId,
    /// The selection referencing the generated attribute.
    pub filter: NodeId,
}

/// Enumerate every [`FaultySite`] in `wf`, in topological order.
pub fn faulty_pushdown_sites(wf: &Workflow) -> Result<Vec<FaultySite>> {
    let g = wf.graph();
    let mut out = Vec::new();
    for &f in &wf.activities()? {
        let act = g.activity(f)?;
        let Op::Unary(UnaryOp::Function(app)) = &*act.op else {
            continue;
        };
        // Only genuine generations (fresh output name, single source
        // attribute) — in-place transforms have nothing to mis-rename.
        if app.inputs.len() != 1 || app.output == app.inputs[0] {
            continue;
        }
        let consumers = g.consumers(f)?;
        if consumers.len() != 1 {
            continue;
        }
        let s = consumers[0];
        let Ok(cons) = g.activity(s) else { continue };
        let Op::Unary(UnaryOp::Filter { predicate, .. }) = &*cons.op else {
            continue;
        };
        let referenced = predicate.referenced_attrs();
        if !referenced.contains(&app.output) {
            continue;
        }
        // The rewritten predicate must be evaluable above the function:
        // every attribute except the rewritten one has to exist in the
        // function's input schema (and so does the rewrite target).
        let input_schema = &act.inputs[0];
        let evaluable = referenced
            .iter()
            .filter(|a| **a != app.output)
            .all(|a| input_schema.contains(a))
            && input_schema.contains(&app.inputs[0]);
        if evaluable {
            out.push(FaultySite {
                function: f,
                filter: s,
            });
        }
    }
    Ok(out)
}

/// Recursively rename every mention of `from` to `to` in a predicate.
fn rename_attr(p: &mut Predicate, from: &Attr, to: &Attr) {
    let fix = |a: &mut Attr| {
        if a == from {
            *a = to.clone();
        }
    };
    match p {
        Predicate::Cmp { attr, .. } | Predicate::InList { attr, .. } => fix(attr),
        Predicate::CmpAttr { left, right, .. } => {
            fix(left);
            fix(right);
        }
        Predicate::IsNotNull(a) | Predicate::IsNull(a) => fix(a),
        Predicate::And(l, r) | Predicate::Or(l, r) => {
            rename_attr(l, from, to);
            rename_attr(r, from, to);
        }
        Predicate::Not(inner) => rename_attr(inner, from, to),
        Predicate::True => {}
    }
}

/// Commit the naive pushdown at `site`: rewrite the selection's predicate
/// from the function's output attribute back to its input attribute and
/// move the selection *above* the function — exactly the error the paper's
/// `$2€` example warns about. The result regenerates cleanly and executes,
/// but selects the wrong rows whenever the function is not the identity on
/// the predicate's decision boundary.
pub fn apply_faulty_pushdown(wf: &Workflow, site: FaultySite) -> Result<Workflow> {
    let (f, s) = (site.function, site.filter);
    // Shape guards first, with typed diagnostics: a site whose nodes are
    // not a (function, filter) pair can never become valid, so it deserves
    // better than the generic stale-site error below. `activity` itself
    // rejects recordset ids and ids from another arena.
    let (from, to) = match &*wf.graph.activity(f)?.op {
        Op::Unary(UnaryOp::Function(app)) => (app.output.clone(), app.inputs[0].clone()),
        _ => {
            return Err(CoreError::InvalidFaultSite {
                node: f,
                detail: "site.function is not an attribute-generating function activity".into(),
            })
        }
    };
    if !matches!(
        &*wf.graph.activity(s)?.op,
        Op::Unary(UnaryOp::Filter { .. })
    ) {
        return Err(CoreError::InvalidFaultSite {
            node: s,
            detail: "site.filter is not a filter activity".into(),
        });
    }
    // Re-validate the full site shape (single consumer, generated attribute
    // referenced, evaluable rewrite) on *this* workflow: sites go stale
    // once a transition rewires the graph around them.
    if !faulty_pushdown_sites(wf)?.contains(&site) {
        return Err(CoreError::InvalidFaultSite {
            node: f,
            detail: "site does not match this workflow (stale after a rewrite?)".into(),
        });
    }

    let mut out = wf.clone();
    let prov = out
        .graph
        .provider(f, 0)?
        .ok_or(CoreError::MissingProvider { node: f, port: 0 })?;
    // Splice: prov → σ → f → (σ's former consumers).
    out.graph.redirect_consumers(s, f)?;
    out.graph.disconnect(s, 0)?;
    out.graph.disconnect(f, 0)?;
    out.graph.connect(prov, s, 0)?;
    out.graph.connect(s, f, 0)?;

    let act = out.graph.activity_mut(s)?;
    match Arc::make_mut(&mut act.op) {
        Op::Unary(UnaryOp::Filter { predicate, .. }) => rename_attr(predicate, &from, &to),
        // Guarded above; keep a typed error rather than silently skipping
        // the rewrite and returning a workflow that was never spliced.
        _ => {
            return Err(CoreError::InvalidFaultSite {
                node: s,
                detail: "filter site changed shape during the splice".into(),
            })
        }
    }
    out.regenerate_schemata()?;
    Ok(out)
}

/// Zeller's `ddmin`: shrink `items` to a 1-minimal subsequence for which
/// `fails` still returns `true`. The caller guarantees `fails(items)`;
/// the result preserves the relative order of the surviving items and no
/// single further element can be removed without the failure vanishing.
///
/// The predicate is re-run O(n²) times in the worst case; conformance
/// chains are short (≤ a few dozen transitions), so this is cheap next to
/// the engine executions inside the predicate.
pub fn ddmin<T: Clone, F: FnMut(&[T]) -> bool>(items: &[T], mut fails: F) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    if current.is_empty() {
        return current;
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;

        // Try each chunk alone, then each complement.
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let subset: Vec<T> = current[start..end].to_vec();
            if subset.len() < current.len() && fails(&subset) {
                current = subset;
                granularity = 2;
                reduced = true;
                break;
            }
            let complement: Vec<T> = current[..start]
                .iter()
                .chain(current[end..].iter())
                .cloned()
                .collect();
            if !complement.is_empty() && complement.len() < current.len() && fails(&complement) {
                current = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }

        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RowCountModel;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::UnaryOp;
    use crate::workflow::WorkflowBuilder;

    #[test]
    fn predicted_rows_follow_selectivity_propagation() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["v"]), 100.0);
        let f = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 1)).with_selectivity(0.5),
            s,
        );
        let nn = b.unary("NN", UnaryOp::not_null("v").with_selectivity(0.9), f);
        b.target("T", Schema::of(["v"]), nn);
        let wf = b.build().unwrap();
        let model = RowCountModel::default();
        let rows = predicted_processed_rows(&wf, &model).unwrap();
        // σ is activity 2, NN is 3 (source is 1, target last).
        assert!((rows["2"] - 100.0).abs() < 1e-9);
        assert!((rows["3"] - 50.0).abs() < 1e-9);
        let targets = predicted_target_rows(&wf, &model).unwrap();
        assert!((targets["T"] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn tolerance_blends_absolute_and_relative() {
        let t = Tolerance::new(0.1, 2.0);
        assert!(t.agrees(0.0, 1.0)); // tiny flows: absolute slack
        assert!(t.agrees(105.0, 100.0)); // big flows: relative slack
        assert!(!t.agrees(120.0, 100.0));
    }

    #[test]
    fn cross_validate_reports_disagreements_and_phantoms() {
        let predicted: BTreeMap<String, f64> = [("a".into(), 100.0), ("b".into(), 10.0)]
            .into_iter()
            .collect();
        let observed: BTreeMap<String, u64> =
            [("a".into(), 100), ("c".into(), 50)].into_iter().collect();
        let bad = cross_validate(&predicted, &observed, Tolerance::default(), |_| false);
        let keys: Vec<&str> = bad.iter().map(|m| m.key.as_str()).collect();
        // "a" agrees; "b" predicted-but-unobserved; "c" observed-but-unpredicted.
        assert_eq!(keys, vec!["b", "c"]);
    }

    #[test]
    fn cross_validate_honors_skip() {
        let predicted: BTreeMap<String, f64> = [("a".into(), 100.0)].into_iter().collect();
        let observed: BTreeMap<String, u64> = [("a".into(), 1)].into_iter().collect();
        let bad = cross_validate(&predicted, &observed, Tolerance::default(), |k| k == "a");
        assert!(bad.is_empty());
    }

    #[test]
    fn ddmin_shrinks_to_the_failing_core() {
        // Failure iff both 3 and 7 are present.
        let items: Vec<u32> = (0..20).collect();
        let min = ddmin(&items, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(min, vec![3, 7]);
    }

    #[test]
    fn ddmin_single_culprit_and_order_preservation() {
        let items = vec![5, 9, 1, 9, 2];
        let min = ddmin(&items, |s| s.contains(&1));
        assert_eq!(min, vec![1]);
        // Order of a multi-element core is preserved.
        let min = ddmin(&items, |s| {
            s.iter()
                .position(|&x| x == 9)
                .is_some_and(|i| s[i + 1..].contains(&2))
        });
        assert_eq!(min, vec![9, 2]);
    }

    fn dollars_then_euro_filter() -> Workflow {
        // S --($2€: cost → cost_eur)--> σ(cost_eur > 100) --> T
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "cost"]), 100.0);
        let f = b.unary(
            "$2E",
            UnaryOp::function("dollar2euro", ["cost"], "cost_eur"),
            s,
        );
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("cost_eur", 100)).with_selectivity(0.5),
            f,
        );
        b.target("T", Schema::of(["k", "cost_eur"]), sel);
        b.build().unwrap()
    }

    #[test]
    fn faulty_site_found_and_matches_swap_rejection() {
        let wf = dollars_then_euro_filter();
        let sites = faulty_pushdown_sites(&wf).unwrap();
        assert_eq!(sites.len(), 1, "{sites:?}");
        // The legitimate transition machinery refuses this very swap.
        let site = sites[0];
        let swap = crate::transition::Swap::new(site.function, site.filter);
        use crate::transition::Transition;
        assert!(matches!(
            swap.apply(&wf),
            Err(crate::transition::TransitionError::FunctionalityViolated { .. })
        ));
    }

    #[test]
    fn faulty_pushdown_commits_the_error_but_stays_executable() {
        let wf = dollars_then_euro_filter();
        let site = faulty_pushdown_sites(&wf).unwrap()[0];
        let bad = apply_faulty_pushdown(&wf, site).unwrap();
        // Structurally sound: validates, same target schema, NOT equivalent.
        bad.validate().unwrap();
        let t = bad.targets()[0];
        assert_eq!(
            bad.graph().recordset(t).unwrap().schema,
            wf.graph().recordset(wf.targets()[0]).unwrap().schema,
        );
        assert!(!crate::postcond::equivalent(&wf, &bad).unwrap());
        // The filter now sits directly on the source and tests `cost`.
        let g = bad.graph();
        let filter = g.activity(site.filter).unwrap();
        let Op::Unary(UnaryOp::Filter { predicate, .. }) = &*filter.op else {
            panic!(
                "pushdown must leave the σ node a filter, found {:?}",
                filter.op
            );
        };
        assert!(predicate
            .referenced_attrs()
            .contains(&crate::schema::Attr::new("cost")));
        assert_eq!(g.provider(site.function, 0).unwrap(), Some(site.filter));
    }

    #[test]
    fn faulty_pushdown_rejects_malformed_sites_with_typed_errors() {
        let wf = dollars_then_euro_filter();
        let real = faulty_pushdown_sites(&wf).unwrap()[0];
        // "Filter" slot actually holds the function node.
        let err = apply_faulty_pushdown(
            &wf,
            FaultySite {
                function: real.function,
                filter: real.function,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidFaultSite { node, .. } if node == real.function),
            "{err}"
        );
        // "Function" slot actually holds the filter node.
        let err = apply_faulty_pushdown(
            &wf,
            FaultySite {
                function: real.filter,
                filter: real.filter,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidFaultSite { node, .. } if node == real.filter),
            "{err}"
        );
        // Well-typed but stale: valid node kinds that no longer form a site.
        let moved = apply_faulty_pushdown(&wf, real).unwrap();
        let err = apply_faulty_pushdown(&moved, real).unwrap_err();
        assert!(matches!(err, CoreError::InvalidFaultSite { .. }), "{err}");
        // A recordset id in either slot reports the graph-level error.
        let src = wf.sources()[0];
        let bogus = FaultySite {
            function: src,
            filter: real.filter,
        };
        assert!(apply_faulty_pushdown(&wf, bogus).is_err());
    }

    #[test]
    fn no_faulty_sites_without_generated_predicates() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["v"]), 10.0);
        let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 1)), s);
        b.target("T", Schema::of(["v"]), f);
        let wf = b.build().unwrap();
        assert!(faulty_pushdown_sites(&wf).unwrap().is_empty());
        // And a stale site errors instead of corrupting the workflow.
        let bogus = FaultySite {
            function: wf.activities().unwrap()[0],
            filter: wf.activities().unwrap()[0],
        };
        assert!(apply_faulty_pushdown(&wf, bogus).is_err());
    }

    #[test]
    fn ddmin_on_empty_and_fully_needed_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(ddmin(&empty, |_| true).is_empty());
        // Every element needed: nothing can be removed.
        let items = vec![1, 2, 3];
        let min = ddmin(&items, |s| s.len() == 3);
        assert_eq!(min, vec![1, 2, 3]);
    }
}
