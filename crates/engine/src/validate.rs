//! Empirical workflow equivalence.
//!
//! The optimizer's transitions are proven equivalence-preserving by the
//! post-condition calculus (§3.4). This module provides the executable
//! counterpart: two states are *empirically* equivalent on a catalog when
//! they load exactly the same bag of rows into each target recordset.
//! Property tests drive both notions against each other.

use std::collections::BTreeSet;

use etlopt_core::workflow::Workflow;

use crate::error::Result;
use crate::executor::Executor;

/// Run both states on the same executor and compare every target table as
/// a bag.
pub fn equivalent_execution(exec: &Executor, a: &Workflow, b: &Workflow) -> Result<bool> {
    let ra = exec.run(a)?;
    let rb = exec.run(b)?;
    let ka: BTreeSet<&String> = ra.targets.keys().collect();
    let kb: BTreeSet<&String> = rb.targets.keys().collect();
    if ka != kb {
        return Ok(false);
    }
    for (name, ta) in &ra.targets {
        if !ta.same_bag(&rb.targets[name])? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Panic with a diagnostic when the two states disagree on some target —
/// the assert-flavored variant for tests.
#[allow(clippy::expect_used)] // panicking on a failed run is this function's contract
pub fn assert_equivalent_execution(exec: &Executor, a: &Workflow, b: &Workflow) {
    let ra = exec.run(a).expect("state A must execute");
    let rb = exec.run(b).expect("state B must execute");
    assert_eq!(
        ra.targets.keys().collect::<Vec<_>>(),
        rb.targets.keys().collect::<Vec<_>>(),
        "target sets differ"
    );
    for (name, ta) in &ra.targets {
        let tb = &rb.targets[name];
        assert!(
            ta.same_bag(tb).expect("comparable targets"),
            "target `{name}` differs:\nA ({} rows): {:?}\nB ({} rows): {:?}",
            ta.len(),
            ta.sorted().rows().iter().take(10).collect::<Vec<_>>(),
            tb.len(),
            tb.sorted().rows().iter().take(10).collect::<Vec<_>>(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::table::Table;
    use etlopt_core::predicate::Predicate;
    use etlopt_core::schema::Schema;
    use etlopt_core::semantics::UnaryOp;
    use etlopt_core::transition::{Swap, Transition};
    use etlopt_core::workflow::WorkflowBuilder;

    fn setup() -> (Executor, Workflow) {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 8.0);
        let f1 = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 10)), s);
        let f2 = b.unary("NN", UnaryOp::not_null("k"), f1);
        b.target("T", Schema::of(["k", "v"]), f2);
        let wf = b.build().unwrap();

        let mut cat = Catalog::new();
        cat.insert(
            "S",
            Table::from_rows(
                Schema::of(["k", "v"]),
                vec![
                    vec![1.into(), 5.into()],
                    vec![etlopt_core::scalar::Scalar::Null, 20.into()],
                    vec![3.into(), 30.into()],
                ],
            )
            .unwrap(),
        );
        (Executor::new(cat), wf)
    }

    #[test]
    fn swapped_state_is_empirically_equivalent() {
        let (exec, wf) = setup();
        let acts = wf.activities().unwrap();
        let swapped = Swap::new(acts[0], acts[1]).apply(&wf).unwrap();
        assert!(equivalent_execution(&exec, &wf, &swapped).unwrap());
        assert_equivalent_execution(&exec, &wf, &swapped);
    }

    #[test]
    fn different_semantics_are_detected() {
        let (exec, wf) = setup();
        // A state with a different threshold is NOT equivalent.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 8.0);
        let f1 = b.unary("σ", UnaryOp::filter(Predicate::gt("v", 0)), s);
        let f2 = b.unary("NN", UnaryOp::not_null("k"), f1);
        b.target("T", Schema::of(["k", "v"]), f2);
        let other = b.build().unwrap();
        assert!(!equivalent_execution(&exec, &wf, &other).unwrap());
    }

    #[test]
    fn different_target_names_are_detected() {
        let (exec, wf) = setup();
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 8.0);
        b.target("OTHER", Schema::of(["k", "v"]), s);
        let other = b.build().unwrap();
        assert!(!equivalent_execution(&exec, &wf, &other).unwrap());
    }
}
