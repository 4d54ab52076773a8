//! `Swap::edges` against the structural check as it was written before it
//! read schema facts off the activities: allocated functionality,
//! generated and projected-out schemata, the commutation verdict's text,
//! and the refusal's detail formatted on the spot. Over every adjacent
//! pair of activities in the benchmark's `search_plan` population
//! (`Generator::suite(2005, 48, 29, 3)`) and in every swap successor of
//! those states, both orders of the pair, the two must agree on the
//! verdict, the orientation, the refusal rule and its displayed text.

use std::collections::BTreeMap;

use etlopt::core::graph::NodeId;
use etlopt::core::schema::Schema;
use etlopt::core::text;
use etlopt::core::transition::commute::{chains_commute, Verdict};
use etlopt::core::transition::{Swap, Transition, TransitionError};
use etlopt::prelude::*;
use etlopt::workload::Generator;

/// The structural check, allocating: `(first, second)` or the refusal.
fn reference(wf: &Workflow, a1: NodeId, a2: NodeId) -> Result<(NodeId, NodeId), TransitionError> {
    let g = wf.graph();
    let (first, second) = if g.provider(a2, 0).ok().flatten() == Some(a1) {
        (a1, a2)
    } else if g.provider(a1, 0).ok().flatten() == Some(a2) {
        (a2, a1)
    } else {
        return Err(TransitionError::NotAdjacent(a1, a2));
    };
    let fa = g
        .activity(first)
        .map_err(|_| TransitionError::NotUnary(first))?;
    let sa = g
        .activity(second)
        .map_err(|_| TransitionError::NotUnary(second))?;
    if !fa.is_unary() {
        return Err(TransitionError::NotUnary(first));
    }
    if !sa.is_unary() {
        return Err(TransitionError::NotUnary(second));
    }
    if g.consumers(first)?.len() != 1 {
        return Err(TransitionError::MultipleConsumers(first));
    }
    if g.consumers(second)?.len() != 1 {
        return Err(TransitionError::MultipleConsumers(second));
    }
    let (fl, sl) = (fa.unary_links().unwrap(), sa.unary_links().unwrap());
    if let Verdict::Blocked(why) = chains_commute(fl, sl) {
        return Err(TransitionError::NotCommutative {
            a: first,
            b: second,
            detail: why.into(),
        });
    }
    let meet = |x: &Schema, y: &Schema| x.iter().any(|a| y.contains(a));
    let gen_first = fa.generated();
    let fun_second = sa.functionality();
    if meet(&fun_second, &gen_first) {
        let clash = fun_second.intersection(&gen_first);
        return Err(TransitionError::FunctionalityViolated {
            node: second,
            detail: format!("{} needs {clash}, which {} generates", sa.label, fa.label).into(),
        });
    }
    let dropped = sa.projected_out();
    let fun_first = fa.functionality();
    if meet(&fun_first, &dropped) {
        let lost = fun_first.intersection(&dropped);
        return Err(TransitionError::ProviderViolated {
            node: first,
            detail: format!("{} needs {lost}, which {} projects out", fa.label, sa.label).into(),
        });
    }
    Ok((first, second))
}

/// Every (provider, consumer) pair of activities in `wf`.
fn adjacent_pairs(wf: &Workflow) -> Vec<(NodeId, NodeId)> {
    let g = wf.graph();
    let mut pairs = Vec::new();
    for (id, node) in g.iter() {
        if node.as_activity().is_none() {
            continue;
        }
        for &c in g.consumers(id).unwrap() {
            if g.activity(c).is_ok() {
                pairs.push((id, c));
            }
        }
    }
    pairs
}

/// The verdict's rule, as the search counts it.
fn rule(verdict: &Result<(NodeId, NodeId), TransitionError>) -> &'static str {
    match verdict {
        Ok(_) => "applies",
        Err(TransitionError::NotAdjacent(..)) => "not_adjacent",
        Err(TransitionError::NotUnary(_)) => "not_unary",
        Err(TransitionError::MultipleConsumers(_)) => "multiple_consumers",
        Err(TransitionError::NotCommutative { .. }) => "not_commutative",
        Err(TransitionError::FunctionalityViolated { .. }) => "functionality_violated",
        Err(TransitionError::ProviderViolated { .. }) => "provider_violated",
        Err(_) => "other",
    }
}

#[test]
fn swap_edges_agree_with_the_allocating_check_on_the_search_population() {
    let population: Vec<Workflow> = Generator::suite(2005, 48, 29, 3)
        .iter()
        .map(|s| text::parse(&text::render(&s.workflow).unwrap()).unwrap())
        .collect();
    let mut states = population.clone();
    for wf in &population {
        for (a, c) in adjacent_pairs(wf) {
            if let Ok(next) = Swap::new(a, c).apply(wf) {
                states.push(next);
            }
        }
    }
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for wf in &states {
        for (a, c) in adjacent_pairs(wf) {
            for (x, y) in [(a, c), (c, a)] {
                let want = reference(wf, x, y);
                // `(first, second)`, read off the edges the swap would write.
                let got = Swap::new(x, y).edges(wf).map(|e| (e[1].0, e[0].0));
                assert_eq!(rule(&got), rule(&want), "{x} {y}");
                match (&got, &want) {
                    (Ok(got), Ok(want)) => assert_eq!(got, want),
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    _ => unreachable!("the rules agreed"),
                }
                *by_rule.entry(rule(&want)).or_default() += 1;
            }
        }
    }
    println!("{} states, verdicts by rule: {by_rule:?}", states.len());
    // The accepting path and every rule that carries a detail were met.
    for rule in [
        "applies",
        "not_commutative",
        "functionality_violated",
        "provider_violated",
    ] {
        assert!(
            by_rule.get(rule).is_some_and(|&n| n > 0),
            "{rule}: {by_rule:?}"
        );
    }
}
