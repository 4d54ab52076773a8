//! The shared intermediate-result cache: fingerprint-keyed tables reused
//! across streaming runs, so equivalent states (or DAGs sharing a
//! subgraph) execute the common prefix once.
//!
//! Keys are the per-node structural hashes of
//! [`etlopt_core::signature::hash_state`] — a node's hash digests its
//! whole upstream subgraph *by activity identity*, so two states agree on
//! a key exactly when they compute the same intermediate from the same
//! sources. Because identity, not operator content, is hashed, the cache
//! is **scoped to one workflow family** (states derived from a common
//! initial workflow by transitions, which keep the id ↔ operator binding
//! fixed) — exactly the optimizer-search use case. And because the hash
//! says nothing about the *data*, it is also **scoped to one catalog**.
//! Callers create one `SharedCache` per (family, catalog) pair and must
//! not reuse it across either.
//!
//! Admission happens only at materialization boundaries (fan-out drains
//! and target drains), where the streaming runtime holds the full table
//! anyway — caching never forces extra materialization. Eviction is FIFO
//! over a total-row budget.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::table::Table;

/// Fingerprint-keyed result cache shared across streaming runs.
#[derive(Debug)]
pub struct SharedCache {
    max_rows: usize,
    rows: usize,
    entries: HashMap<u128, Arc<Table>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u128>,
    hits: u64,
    misses: u64,
    insertions: u64,
}

impl SharedCache {
    /// Default total-row budget: enough for every conformance scenario
    /// while staying far below any realistic catalog.
    pub const DEFAULT_MAX_ROWS: usize = 1 << 20;

    /// An empty cache with the default row budget.
    pub fn new() -> SharedCache {
        SharedCache::with_max_rows(SharedCache::DEFAULT_MAX_ROWS)
    }

    /// An empty cache holding at most `max_rows` total rows (≥ 1).
    pub fn with_max_rows(max_rows: usize) -> SharedCache {
        SharedCache {
            max_rows: max_rows.max(1),
            rows: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            insertions: 0,
        }
    }

    /// Look up a node fingerprint, counting a hit or miss.
    pub fn get(&mut self, key: u128) -> Option<Arc<Table>> {
        match self.entries.get(&key) {
            Some(t) => {
                self.hits += 1;
                Some(Arc::clone(t))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Admit a table under a fingerprint, evicting oldest entries past the
    /// row budget. Tables larger than the whole budget and already-present
    /// keys are ignored.
    pub fn insert(&mut self, key: u128, table: Arc<Table>) {
        if table.len() > self.max_rows || self.entries.contains_key(&key) {
            return;
        }
        while self.rows + table.len() > self.max_rows {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(t) = self.entries.remove(&old) {
                self.rows -= t.len();
            }
        }
        self.rows += table.len();
        self.entries.insert(key, table);
        self.order.push_back(key);
        self.insertions += 1;
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.rows
    }

    /// Lifetime (hits, misses, insertions).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.insertions)
    }
}

impl Default for SharedCache {
    fn default() -> Self {
        SharedCache::new()
    }
}

/// A clonable, thread-safe handle to one [`SharedCache`], so several
/// executors — concurrent server jobs, the adaptive loop's observer, a
/// warm-up pass — can populate and probe the same cache. The scoping
/// contract is unchanged: one handle per (workflow family, catalog) pair.
///
/// Locking is per *run*, not per lookup: [`crate::Executor::run_stream_shared`]
/// holds the lock for the whole execution, which keeps a run's hit/miss
/// accounting exact (the closure sees the cache quiescent) and costs
/// nothing across families, since distinct families use distinct handles.
#[derive(Debug, Clone, Default)]
pub struct SharedCacheHandle {
    inner: Arc<std::sync::Mutex<SharedCache>>,
}

impl SharedCacheHandle {
    /// Wrap a cache for sharing.
    pub fn new(cache: SharedCache) -> SharedCacheHandle {
        SharedCacheHandle {
            inner: Arc::new(std::sync::Mutex::new(cache)),
        }
    }

    /// Run `f` with exclusive access to the cache. A run that panicked
    /// under the lock does not fail the runs after it: an entry is only
    /// ever admitted as a whole finished table, so the cache it leaves
    /// behind is valid.
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut SharedCache) -> R) -> R {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// `(hits, misses, insertions)` accumulated over every run so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        self.with_cache(|c| c.counters())
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.with_cache(|c| c.len())
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.with_cache(|c| c.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::schema::Schema;

    fn table(rows: usize) -> Arc<Table> {
        Arc::new(
            Table::from_rows(
                Schema::of(["x"]),
                (0..rows).map(|i| vec![(i as i64).into()]).collect(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let mut c = SharedCache::new();
        assert!(c.get(7).is_none());
        c.insert(7, table(3));
        assert_eq!(c.get(7).unwrap().len(), 3);
        assert_eq!(c.counters(), (1, 1, 1));
    }

    #[test]
    fn fifo_eviction_respects_row_budget() {
        let mut c = SharedCache::with_max_rows(10);
        c.insert(1, table(4));
        c.insert(2, table(4));
        c.insert(3, table(4)); // evicts key 1
        assert_eq!(c.len(), 2);
        assert_eq!(c.cached_rows(), 8);
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn oversized_tables_and_duplicate_keys_are_ignored() {
        let mut c = SharedCache::with_max_rows(5);
        c.insert(1, table(6));
        assert!(c.is_empty());
        c.insert(2, table(2));
        c.insert(2, table(3)); // duplicate key: first wins
        assert_eq!(c.get(2).unwrap().len(), 2);
        assert_eq!(c.counters(), (1, 0, 1));
    }

    #[test]
    fn empty_tables_cache_fine() {
        let mut c = SharedCache::with_max_rows(1);
        c.insert(9, table(0));
        assert_eq!(c.get(9).unwrap().len(), 0);
    }
}
