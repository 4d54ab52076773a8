//! Per-group transition memoization.
//!
//! Move enumeration re-derives, for every generated state, facts that a
//! rewrite elsewhere in the workflow cannot have changed: which adjacent
//! pairs of a local group can swap, and whether a binary's providers are
//! homologous / its consumer row-wise. [`MoveMemo`] caches those verdicts
//! across the states of one search run, keyed by a sub-fingerprint of the
//! local structure, so unchanged groups skip the payload re-scans (the
//! homologous check compares functionality/generated schemata — the
//! expensive part of enumeration).
//!
//! Soundness rests on two §4.1 facts. (1) SWA enumeration is shape-only
//! (unary, single consumer), so a group's swap list is determined by its
//! member *slot chain* alone — whatever activities occupy those slots, the
//! emitted `Swap(slot, slot)` moves are identical. (2) Activity ids are
//! lifelong and an id's operator payload never changes within a run, so
//! payload-dependent verdicts (homologous providers, row-wise consumer)
//! are determined by the participating ids — except for `Merged`
//! activities, whose derived schemata depend on their *position*; binaries
//! touching a merged provider bypass the cache entirely.
//!
//! A search builds its own memo unless it is handed one: the daemon keeps
//! one per workflow family and shares it across that family's jobs, which
//! run on their own connection threads. So the cache sits behind an
//! `RwLock`; two jobs racing on one key insert the identical value twice,
//! so results stay deterministic whatever the cache holds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::activity::Op;
use crate::error::Result;
use crate::graph::{Graph, NodeId};
use crate::opt::Move;
use crate::signature::Fp128;
use crate::transition::{Distribute, Factorize, Swap};
use crate::workflow::Workflow;

/// A per-search-run cache of move-enumeration verdicts.
#[derive(Debug, Default)]
pub struct MoveMemo {
    cache: RwLock<HashMap<u128, Vec<Move>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MoveMemo {
    /// An empty cache. One per search run: the id→payload mapping the keys
    /// rely on is only stable within a run.
    pub fn new() -> Self {
        Self::default()
    }

    /// (cache hits, cache misses) so far — bypassed lookups (merged
    /// activities) count as neither.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Memoized equivalent of [`crate::opt::enumerate_moves`]: the same
    /// move *set*, with each local group's swaps emitted at the group
    /// leader's topological position (instead of per member), and each
    /// binary's FAC/DIS at the binary's position. Deterministic for a given
    /// state regardless of cache contents.
    pub fn moves(&self, wf: &Workflow) -> Result<Vec<Move>> {
        let g = wf.graph();
        let mut out = Vec::new();
        for &a in &wf.activities()? {
            let act = g.activity(a)?;
            if act.is_unary() {
                if group_predecessor(g, a)?.is_some() {
                    continue; // not a group leader; counted with its leader
                }
                let chain = walk_chain(g, a)?;
                let mut key = Fp128::new();
                key.write(b"G");
                for m in &chain {
                    key.write(&m.0.to_le_bytes());
                }
                let key = key.finish();
                if !self.extend_cached(key, &mut out) {
                    let start = out.len();
                    for w in chain.windows(2) {
                        out.push(Move::Swap(Swap::new(w[0], w[1])));
                    }
                    self.insert(key, out[start..].to_vec());
                }
            } else {
                let providers = g.providers(a)?;
                let consumers = g.consumers(a)?;
                let c = (consumers.len() == 1).then(|| consumers[0]);
                let mut cacheable = true;
                let mut key = Fp128::new();
                key.write(b"B");
                key.write(&a.0.to_le_bytes());
                for p in providers.iter().chain(c.map(Some).iter()) {
                    use std::fmt::Write;
                    match p {
                        Some(p) => {
                            key.write(&p.0.to_le_bytes());
                            match g.activity(*p) {
                                Ok(pa) => {
                                    if matches!(pa.op, Op::Merged(_)) {
                                        cacheable = false;
                                    }
                                    let _ = write!(key, ":{};", pa.id);
                                }
                                Err(_) => key.write(b":r;"),
                            }
                        }
                        None => key.write(b"-"),
                    }
                }
                let key = key.finish();
                if cacheable && self.extend_cached(key, &mut out) {
                    continue;
                }
                let start = out.len();
                binary_moves(wf, a, providers, c, &mut out);
                if cacheable {
                    self.insert(key, out[start..].to_vec());
                }
            }
        }
        Ok(out)
    }

    fn extend_cached(&self, key: u128, out: &mut Vec<Move>) -> bool {
        // Entries are inserted whole, so the map is valid even if a thread
        // panicked while holding the lock: recover the guard.
        let map = self.cache.read().unwrap_or_else(|e| e.into_inner());
        match map.get(&key) {
            Some(v) => {
                out.extend_from_slice(v);
                self.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    fn insert(&self, key: u128, val: Vec<Move>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, val);
    }
}

/// FAC/DIS candidates of one binary `a`: `FAC` when its two providers are
/// homologous unary activities, `DIS` when its single consumer is a
/// row-wise unary one. [`crate::opt::enumerate_moves`] applies it too.
pub(super) fn binary_moves(
    wf: &Workflow,
    a: NodeId,
    providers: &[Option<NodeId>],
    single_consumer: Option<NodeId>,
    out: &mut Vec<Move>,
) {
    let g = wf.graph();
    if let (Some(Some(p1)), Some(Some(p2))) = (providers.first(), providers.get(1)) {
        let both_unary = g.activity(*p1).map(|x| x.is_unary()).unwrap_or(false)
            && g.activity(*p2).map(|x| x.is_unary()).unwrap_or(false);
        if both_unary && p1 != p2 && wf.are_homologous(*p1, *p2).unwrap_or(false) {
            out.push(Move::Factorize(Factorize::new(a, *p1, *p2)));
        }
    }
    if let Some(c) = single_consumer {
        if g.activity(c)
            .map(|x| x.is_unary() && x.is_row_wise())
            .unwrap_or(false)
        {
            out.push(Move::Distribute(Distribute::new(a, c)));
        }
    }
}

/// The unary group predecessor of `a`, if the pair `(p, a)` would be a SWA
/// candidate — mirrors the enumeration condition exactly.
fn group_predecessor(g: &Graph, a: NodeId) -> Result<Option<NodeId>> {
    if let Some(p) = g.provider(a, 0)? {
        if let Ok(pa) = g.activity(p) {
            if pa.is_unary() && g.consumers(p)?.len() == 1 {
                return Ok(Some(p));
            }
        }
    }
    Ok(None)
}

/// The maximal unary single-consumer chain starting at a group leader.
fn walk_chain(g: &Graph, leader: NodeId) -> Result<Vec<NodeId>> {
    let mut chain = vec![leader];
    let mut cur = leader;
    // Bounded to the arena size as a cycle guard.
    for _ in 0..=g.slot_capacity() {
        let consumers = g.consumers(cur)?;
        if consumers.len() != 1 {
            break;
        }
        let c = consumers[0];
        if !g.activity(c).map(|x| x.is_unary()).unwrap_or(false) {
            break;
        }
        chain.push(c);
        cur = c;
    }
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::enumerate_moves;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::semantics::{BinaryOp, UnaryOp};
    use crate::workflow::WorkflowBuilder;

    fn sample() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let s1 = b.source("S1", Schema::of(["k", "v"]), 100.0);
        let s2 = b.source("S2", Schema::of(["k", "v"]), 100.0);
        let f1 = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", 1)), s1);
        let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("v", 1)), s2);
        let u = b.binary("U", BinaryOp::Union, f1, f2);
        let sk = b.unary("SK", UnaryOp::surrogate_key("k", "sk", "L"), u);
        let nn = b.unary("NN", UnaryOp::not_null("v"), sk);
        b.target("T", Schema::of(["sk", "v"]), nn);
        b.build().unwrap()
    }

    #[test]
    fn memo_matches_enumerate_moves_as_a_set() {
        let wf = sample();
        let memo = MoveMemo::new();
        let cached = memo.moves(&wf).unwrap();
        let plain = enumerate_moves(&wf).unwrap();
        let as_set = |ms: &[Move]| {
            let mut v: Vec<String> = ms.iter().map(|m| format!("{m:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(as_set(&cached), as_set(&plain));
    }

    #[test]
    fn second_lookup_hits_every_group() {
        let wf = sample();
        let memo = MoveMemo::new();
        let first = memo.moves(&wf).unwrap();
        let (h0, m0) = memo.stats();
        assert_eq!(h0, 0);
        assert!(m0 > 0);
        let second = memo.moves(&wf).unwrap();
        let (h1, m1) = memo.stats();
        assert_eq!(first, second);
        assert_eq!(m1, m0, "no new misses on an identical state");
        assert_eq!(h1, m0, "every group and binary hit the cache");
    }

    #[test]
    fn rewrites_elsewhere_keep_sibling_groups_cached() {
        let wf = sample();
        let memo = MoveMemo::new();
        let moves = memo.moves(&wf).unwrap();
        let (_, misses_initial) = memo.stats();
        // Apply the first swap (in the SK/NN group after the union); the
        // σ1/σ2 leaders and the union's FAC/DIS context are untouched.
        let swap = moves
            .iter()
            .find(|m| matches!(m, Move::Swap(_)))
            .expect("sample has a swap");
        let next = swap.apply(&wf).unwrap();
        let _ = memo.moves(&next).unwrap();
        let (hits, misses) = memo.stats();
        assert!(
            hits > 0,
            "untouched groups must be served from cache (hits {hits}, misses {misses})"
        );
        // Only the rewritten group (and any binary whose context changed)
        // may miss.
        assert!(misses < misses_initial * 2);
    }
}
