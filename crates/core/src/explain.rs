//! Explain an optimization: a human-readable account of how an optimized
//! state differs from the original — which activities moved toward the
//! sources, which were distributed into parallel flows, which were
//! factorized into one.
//!
//! The stable activity identifiers (§4.1) make this possible without any
//! diffing heuristics: a [`crate::activity::ActivityId::Cloned`] id *is*
//! the record of a Distribute, a
//! [`crate::activity::ActivityId::Factored`] id of a Factorize, and
//! position changes of surviving base ids are Swaps.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write;

use crate::activity::ActivityId;
use crate::error::Result;
use crate::workflow::Workflow;

/// One difference between two states.
#[derive(Debug, Clone, PartialEq)]
pub enum EditKind {
    /// The activity was cloned into the flows converging to a binary
    /// activity (a Distribute survived into the final state).
    Distributed {
        /// The original activity's identifier.
        original: ActivityId,
        /// Number of clones in the final state.
        clones: usize,
    },
    /// Two (or more) homologous activities were replaced by one (a
    /// Factorize survived).
    Factorized {
        /// The replaced activities' identifiers.
        originals: Vec<ActivityId>,
    },
    /// The activity moved earlier in the execution order (pushed toward
    /// the sources).
    MovedEarlier {
        /// The activity.
        id: ActivityId,
        /// Positions gained in the topological order.
        by: usize,
    },
    /// The activity moved later in the execution order.
    MovedLater {
        /// The activity.
        id: ActivityId,
        /// Positions lost in the topological order.
        by: usize,
    },
}

/// A difference plus display context (labels).
#[derive(Debug, Clone, PartialEq)]
pub struct Edit {
    /// What happened.
    pub kind: EditKind,
    /// The label of the activity concerned (from the optimized state where
    /// it survives, from the original otherwise).
    pub label: String,
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EditKind::Distributed { original, clones } => write!(
                f,
                "DIS: `{}` (id {original}) was distributed into {clones} parallel flows",
                self.label
            ),
            EditKind::Factorized { originals } => {
                let ids: Vec<String> = originals.iter().map(ActivityId::to_string).collect();
                write!(
                    f,
                    "FAC: homologous `{}` (ids {}) were factorized into one activity on the joint flow",
                    self.label,
                    ids.join(", ")
                )
            }
            EditKind::MovedEarlier { id, by } => write!(
                f,
                "SWA: `{}` (id {id}) moved {by} position(s) toward the sources",
                self.label
            ),
            EditKind::MovedLater { id, by } => write!(
                f,
                "SWA: `{}` (id {id}) moved {by} position(s) toward the targets",
                self.label
            ),
        }
    }
}

/// Compare two states of the same workflow lineage and list the surviving
/// structural edits, most significant first (structure changes before pure
/// reorderings).
pub fn explain(original: &Workflow, optimized: &Workflow) -> Result<Vec<Edit>> {
    let mut edits = Vec::new();

    // Index both states by activity id, with topological positions.
    let index = |wf: &Workflow| -> Result<BTreeMap<ActivityId, (usize, String)>> {
        let mut map = BTreeMap::new();
        for (pos, node) in wf.activities()?.into_iter().enumerate() {
            let act = wf.graph().activity(node)?;
            map.insert(act.id.clone(), (pos, act.label.clone()));
        }
        Ok(map)
    };
    let before = index(original)?;
    let after = index(optimized)?;

    // Distributions: clones grouped by their original id.
    let mut clones: BTreeMap<ActivityId, (usize, String)> = BTreeMap::new();
    for (id, (_, label)) in &after {
        if let ActivityId::Cloned(of, _) = id {
            let entry = clones.entry((**of).clone()).or_insert((0, label.clone()));
            entry.0 += 1;
        }
    }
    for (original_id, (count, label)) in clones {
        edits.push(Edit {
            kind: EditKind::Distributed {
                original: original_id,
                clones: count,
            },
            label,
        });
    }

    // Factorizations: factored ids in the optimized state.
    for (id, (_, label)) in &after {
        if let ActivityId::Factored(a, b) = id {
            edits.push(Edit {
                kind: EditKind::Factorized {
                    originals: vec![(**a).clone(), (**b).clone()],
                },
                label: label.clone(),
            });
        }
    }

    // Reorderings of surviving base activities.
    for (id, (pos_before, _)) in &before {
        if let Some((pos_after, label)) = after.get(id) {
            if pos_after < pos_before {
                edits.push(Edit {
                    kind: EditKind::MovedEarlier {
                        id: id.clone(),
                        by: pos_before - pos_after,
                    },
                    label: label.clone(),
                });
            } else if pos_after > pos_before {
                edits.push(Edit {
                    kind: EditKind::MovedLater {
                        id: id.clone(),
                        by: pos_after - pos_before,
                    },
                    label: label.clone(),
                });
            }
        }
    }
    Ok(edits)
}

/// Render an explanation as one block of text (one edit per line), or a
/// "no changes" note.
pub fn explain_text(original: &Workflow, optimized: &Workflow) -> Result<String> {
    let edits = explain(original, optimized)?;
    if edits.is_empty() {
        return Ok("no structural changes — the initial state was already optimal".to_owned());
    }
    Ok(edits
        .iter()
        .map(Edit::to_string)
        .collect::<Vec<_>>()
        .join("\n"))
}

/// Render the adaptive loop's round trajectory — the feedback companion
/// of [`explain_text`]: one line per calibrate → re-optimize round, with
/// the chosen plan's calibrated cost, its predicted-vs-observed target
/// error, and the calibration coverage that round searched under.
pub fn adaptive_report(report: &crate::opt::AdaptiveReport) -> String {
    let mut out = String::with_capacity(512);
    let _ = writeln!(
        out,
        "adaptive re-optimization — {}, {} round(s), {}",
        report.algorithm,
        report.rounds_used(),
        if report.converged {
            "converged"
        } else {
            "round budget exhausted"
        }
    );
    let _ = writeln!(
        out,
        "  {:<5} {:>14} {:>10} {:>10} {:>9}  plan",
        "round", "calibrated", "err(mean)", "err(max)", "seeded"
    );
    for r in &report.rounds {
        let _ = writeln!(
            out,
            "  {:<5} {:>14.1} {:>10.4} {:>10.4} {:>6}/{:<2}  {}{}",
            r.round,
            r.calibrated_cost,
            r.mean_rel_error,
            r.max_rel_error,
            r.seeded,
            r.seeded + r.misses,
            r.signature,
            if r.kept_incumbent {
                "  [incumbent kept]"
            } else {
                ""
            }
        );
    }
    let total = report.stats_total();
    let _ = writeln!(
        out,
        "  searches   : {} states generated across rounds \
         ({} delta-repriced, {} full-priced)",
        total.generated, total.repriced_delta, total.repriced_full
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RowCountModel;
    use crate::opt::{HeuristicSearch, Optimizer};
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::{BinaryOp, UnaryOp};
    use crate::transition::{Distribute, Factorize, Swap, Transition};
    use crate::workflow::WorkflowBuilder;

    fn converging() -> (Workflow, crate::graph::NodeId, crate::graph::NodeId) {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 512.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 512.0);
        let u = b.binary("U", BinaryOp::Union, s1, s2);
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 0)).with_selectivity(0.25),
            u,
        );
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), sel);
        b.target("T", Schema::of(["sk", "v"]), sk);
        (b.build().unwrap(), u, sel)
    }

    #[test]
    fn identical_states_have_no_edits() {
        let (wf, _, _) = converging();
        assert!(explain(&wf, &wf).unwrap().is_empty());
        assert!(explain_text(&wf, &wf)
            .unwrap()
            .contains("no structural changes"));
    }

    #[test]
    fn distribution_is_reported() {
        let (wf, u, sel) = converging();
        let dis = Distribute::new(u, sel).apply(&wf).unwrap();
        let edits = explain(&wf, &dis).unwrap();
        assert!(
            edits
                .iter()
                .any(|e| matches!(e.kind, EditKind::Distributed { clones: 2, .. })),
            "{edits:?}"
        );
        let text = explain_text(&wf, &dis).unwrap();
        assert!(text.contains("DIS:"), "{text}");
        assert!(text.contains('σ'), "{text}");
    }

    #[test]
    fn factorization_is_reported() {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["v"]), 8.0);
        let s2 = b.source("S2", Schema::of(["v"]), 8.0);
        let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 1)), s1);
        let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 1)), s2);
        let u = b.binary("U", BinaryOp::Union, f1, f2);
        b.target("T", Schema::of(["v"]), u);
        let wf = b.build().unwrap();
        let fac = Factorize::new(u, f1, f2).apply(&wf).unwrap();
        let edits = explain(&wf, &fac).unwrap();
        assert!(
            edits.iter().any(
                |e| matches!(&e.kind, EditKind::Factorized { originals } if originals.len() == 2)
            ),
            "{edits:?}"
        );
    }

    #[test]
    fn swaps_are_reported_as_moves() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 100.0);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), s);
        let sel = b.unary(
            "σ",
            UnaryOp::filter(Predicate::gt("v", 1)).with_selectivity(0.1),
            sk,
        );
        b.target("T", Schema::of(["sk", "v"]), sel);
        let wf = b.build().unwrap();
        let swapped = Swap::new(sk, sel).apply(&wf).unwrap();
        let edits = explain(&wf, &swapped).unwrap();
        assert!(edits
            .iter()
            .any(|e| matches!(e.kind, EditKind::MovedEarlier { by: 1, .. })));
        assert!(edits
            .iter()
            .any(|e| matches!(e.kind, EditKind::MovedLater { by: 1, .. })));
    }

    #[test]
    fn full_optimization_explains_cleanly() {
        let (wf, _, _) = converging();
        let out = HeuristicSearch::new()
            .run(&wf, &RowCountModel::default())
            .unwrap();
        let text = explain_text(&wf, &out.best).unwrap();
        // The known optimum distributes both σ and SK.
        assert!(text.matches("DIS:").count() >= 1, "{text}");
    }
}
