//! The capped visited set every search admits states through.
//!
//! ES, beam, HS and HS-Greedy each admit a generated state once, by its
//! u128 structural fingerprint, under the `max_states` budget. [`Visited`]
//! is that set and that cap, and nothing else.
//!
//! ## Determinism contract
//!
//! A search inserts through `&mut self`, in its deterministic merge order
//! (frontier index, then move index). ES and beam expand a window of
//! states through a shared borrow of the set ([`Visited::contains`]) and
//! insert only once the whole window is back, so every state of a window
//! is probed against the set as it stood before the window — the pinned
//! counters depend on that. `tests/search_determinism.rs` and the unit
//! tests below pin this.
//!
//! ## Budget contract
//!
//! The set owns the `max_states` cap: once `len() == cap`, every further
//! insert returns [`Admit::CapReached`] without changing anything, so
//! `SearchOutcome::visited_states` can never overshoot the budget.

use std::collections::HashSet;

/// Outcome of offering a fingerprint to the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// The fingerprint was new and was admitted.
    Fresh,
    /// The fingerprint was already present; nothing changed.
    Duplicate,
    /// The set is at its `max_states` cap; nothing changed.
    CapReached,
}

/// A set of state fingerprints with a hard size cap.
///
/// See the module docs for the determinism and budget contracts.
#[derive(Debug)]
pub(crate) struct Visited {
    set: HashSet<u128>,
    cap: usize,
}

impl Visited {
    /// An empty set capped at `max_states` admitted fingerprints.
    pub(crate) fn new(max_states: usize) -> Visited {
        Visited {
            set: HashSet::new(),
            cap: max_states,
        }
    }

    /// Offer `fp` for admission. The cap is checked first: a full set
    /// answers [`Admit::CapReached`] even for a fingerprint it holds.
    pub(crate) fn insert(&mut self, fp: u128) -> Admit {
        if self.at_cap() {
            Admit::CapReached
        } else if self.set.insert(fp) {
            Admit::Fresh
        } else {
            Admit::Duplicate
        }
    }

    /// Is `fp` admitted?
    pub(crate) fn contains(&self, fp: u128) -> bool {
        self.set.contains(&fp)
    }

    /// Admitted fingerprints.
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// How many more fingerprints the cap admits.
    pub(crate) fn room(&self) -> usize {
        self.cap.saturating_sub(self.len())
    }

    /// Is the set at its `max_states` cap?
    pub(crate) fn at_cap(&self) -> bool {
        self.len() >= self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fingerprint stream (splitmix-style), so
    /// the differential test covers the whole fingerprint range without
    /// external RNG deps.
    fn fp_stream(seed: u64, n: usize) -> Vec<u128> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let hi = z ^ (z >> 31);
                (u128::from(hi) << 64) | u128::from(x)
            })
            .collect()
    }

    #[test]
    fn accepts_exactly_what_a_single_set_would() {
        // Differential baseline: a plain HashSet with the same cap logic.
        // One duplicate every 7 offers exercises the Duplicate arm.
        let mut stream = fp_stream(42, 400);
        for i in (6..stream.len()).step_by(7) {
            stream[i] = stream[i - 3];
        }
        for cap in [0, 1, 17, 100, 1000] {
            let mut visited = Visited::new(cap);
            let mut single: HashSet<u128> = HashSet::new();
            for &fp in &stream {
                let expect = if single.len() >= cap {
                    Admit::CapReached
                } else if single.insert(fp) {
                    Admit::Fresh
                } else {
                    Admit::Duplicate
                };
                assert_eq!(visited.insert(fp), expect, "cap {cap} fp {fp:x}");
                assert_eq!(visited.contains(fp), single.contains(&fp));
                assert_eq!(visited.room(), cap - single.len(), "cap {cap}");
            }
            assert_eq!(visited.len(), single.len(), "cap {cap}");
            assert!(visited.len() <= cap, "cap {cap} overshot");
        }
    }

    #[test]
    fn cap_zero_admits_nothing() {
        let mut v = Visited::new(0);
        assert!(v.at_cap());
        assert_eq!(v.insert(123), Admit::CapReached);
        assert!(!v.contains(123));
        assert_eq!((v.len(), v.room()), (0, 0));
    }
}
