//! Sharded visited set for the state-space searches.
//!
//! ES and beam dedup successor states by their u128 structural fingerprint.
//! A single `HashSet<u128>` behind the coordinator was fine at 10⁴ states
//! but becomes the scaling wall the ROADMAP calls out: every worker-side
//! membership probe had to funnel through the coordinator. The
//! [`ShardedVisited`] set partitions the fingerprint *range* across a fixed
//! number of shards (the top bits of the fingerprint pick the shard), each
//! behind its own lock, so expansion workers can probe membership through
//! `&self` concurrently while the coordinator remains the only writer.
//!
//! ## Determinism contract
//!
//! The shard count is **fixed** (16), not derived from the thread count, so
//! the shard-occupancy telemetry is byte-identical at any parallelism. The
//! accept/reject decision for every fingerprint is made by the coordinator,
//! which calls [`ShardedVisited::insert`] in deterministic (frontier index,
//! move index) merge order; workers only call the read-only
//! [`ShardedVisited::contains`] between merge rounds, when the set is
//! quiescent. The accepted state set is therefore exactly the set a single
//! `HashSet` with the same cap would accept, at any thread count —
//! `tests/search_determinism.rs` and the unit tests below pin this.
//!
//! ## Budget contract
//!
//! The set owns the `max_states` cap: once `len() == cap`, every further
//! insert returns [`Admit::CapReached`] without mutating anything, so
//! `SearchOutcome::visited_states` can never overshoot the budget (the old
//! generation-boundary check allowed most of a generation past it).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Outcome of offering a fingerprint to the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The fingerprint was new and was admitted.
    Fresh,
    /// The fingerprint was already present; nothing changed.
    Duplicate,
    /// The set is at its `max_states` cap; nothing changed.
    CapReached,
}

/// A fingerprint-range-partitioned visited set with a hard size cap.
///
/// See the module docs for the determinism and budget contracts.
#[derive(Debug)]
pub struct ShardedVisited {
    shards: Vec<Mutex<HashSet<u128>>>,
    /// Number of admitted fingerprints across all shards. Relaxed loads are
    /// exact under the coordinator-only-writer contract.
    len: AtomicUsize,
    cap: usize,
    /// `128 - log2(shard count)`: how far to shift a fingerprint right so
    /// its top bits select the shard (range partitioning).
    shift: u32,
}

impl ShardedVisited {
    /// Fixed shard count. Deliberately independent of the worker-thread
    /// count so shard occupancy is deterministic across parallelism.
    pub const SHARDS: usize = 16;

    /// An empty set capped at `max_states` admitted fingerprints.
    pub fn new(max_states: usize) -> ShardedVisited {
        let shards = (0..Self::SHARDS).map(|_| Mutex::default()).collect();
        ShardedVisited {
            shards,
            len: AtomicUsize::new(0),
            cap: max_states,
            shift: 128 - Self::SHARDS.trailing_zeros(),
        }
    }

    fn shard_of(&self, fp: u128) -> usize {
        // The fingerprint's top bits pick the shard: contiguous fingerprint
        // ranges map to the same shard, and FNV-mixed fingerprints spread
        // uniformly across them.
        (fp >> self.shift) as usize
    }

    fn shard(&self, idx: usize) -> std::sync::MutexGuard<'_, HashSet<u128>> {
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Offer `fp` for admission. Only the search coordinator calls this,
    /// in deterministic merge order; the cap check makes overshooting
    /// `max_states` impossible rather than merely unlikely.
    pub fn insert(&self, fp: u128) -> Admit {
        if self.len.load(Ordering::Relaxed) >= self.cap {
            return Admit::CapReached;
        }
        if self.shard(self.shard_of(fp)).insert(fp) {
            self.len.fetch_add(1, Ordering::Relaxed);
            Admit::Fresh
        } else {
            Admit::Duplicate
        }
    }

    /// Read-only membership probe. Safe to call from expansion workers
    /// concurrently with each other (the coordinator does not insert while
    /// workers run, so the answer is deterministic).
    pub fn contains(&self, fp: u128) -> bool {
        self.shard(self.shard_of(fp)).contains(&fp)
    }

    /// Admitted fingerprints across all shards.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is the set at its `max_states` cap?
    pub fn at_cap(&self) -> bool {
        self.len() >= self.cap
    }

    /// How many more fingerprints the cap admits.
    pub fn room(&self) -> usize {
        self.cap.saturating_sub(self.len())
    }

    /// Number of shards (constant; exposed for telemetry).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `(min, max)` shard occupancy — deterministic for a given accepted
    /// set, because the fingerprint → shard map does not depend on thread
    /// count or insertion order.
    pub fn occupancy(&self) -> (u64, u64) {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for idx in 0..self.shards.len() {
            let n = self.shard(idx).len() as u64;
            min = min.min(n);
            max = max.max(n);
        }
        (min.min(max), max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fingerprint stream (splitmix-style), so
    /// the differential tests cover all shards without external RNG deps.
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
            let sharded = ShardedVisited::new(cap);
            let mut single: HashSet<u128> = HashSet::new();
            for &fp in &stream {
                let expect = if single.len() >= cap {
                    Admit::CapReached
                } else if single.insert(fp) {
                    Admit::Fresh
                } else {
                    Admit::Duplicate
                };
                assert_eq!(sharded.insert(fp), expect, "cap {cap} fp {fp:x}");
                assert_eq!(sharded.contains(fp), single.contains(&fp));
            }
            assert_eq!(sharded.len(), single.len(), "cap {cap}");
            assert!(sharded.len() <= cap, "cap {cap} overshot");
        }
    }

    #[test]
    fn range_partitioning_uses_the_top_bits() {
        let v = ShardedVisited::new(1000);
        // Fingerprints differing only below the top 4 bits share a shard...
        assert_eq!(v.shard_of(0), v.shard_of(1));
        assert_eq!(v.shard_of(u128::MAX), v.shard_of(u128::MAX - 1));
        // ...and the extreme ranges land on the first and last shard.
        assert_eq!(v.shard_of(0), 0);
        assert_eq!(v.shard_of(u128::MAX), ShardedVisited::SHARDS - 1);
    }

    #[test]
    fn occupancy_is_a_function_of_the_accepted_set() {
        let fps = fp_stream(7, 256);
        let a = ShardedVisited::new(usize::MAX);
        for &fp in &fps {
            a.insert(fp);
        }
        // Same set, reversed insertion order: identical occupancy.
        let b = ShardedVisited::new(usize::MAX);
        for &fp in fps.iter().rev() {
            b.insert(fp);
        }
        assert_eq!(a.occupancy(), b.occupancy());
        assert_eq!(a.len(), 256);
        let (min, max) = a.occupancy();
        assert!(min <= max);
        assert!(max >= (256 / ShardedVisited::SHARDS) as u64);
    }

    #[test]
    fn concurrent_probes_match_sequential_answers() {
        // Workers probe `contains` while the set is quiescent; the answers
        // must match the single-threaded truth for every fingerprint.
        let fps = fp_stream(11, 512);
        let v = ShardedVisited::new(usize::MAX);
        for &fp in fps.iter().step_by(2) {
            v.insert(fp);
        }
        std::thread::scope(|scope| {
            for chunk in fps.chunks(128) {
                let (v, fps) = (&v, &fps);
                scope.spawn(move || {
                    for &fp in chunk {
                        assert_eq!(v.contains(fp), fps.iter().step_by(2).any(|&x| x == fp));
                    }
                });
            }
        });
    }

    #[test]
    fn cap_zero_admits_nothing() {
        let v = ShardedVisited::new(0);
        assert_eq!(v.insert(123), Admit::CapReached);
        assert!(v.is_empty());
        assert!(v.at_cap());
        assert_eq!(v.occupancy(), (0, 0));
        assert_eq!(v.shard_count(), ShardedVisited::SHARDS);
    }
}
