//! A minimal scoped worker pool for the search algorithms.
//!
//! The searches are embarrassingly parallel per round: a frontier (or
//! candidate list) of independent states is expanded and priced, then the
//! results are merged by a single coordinator. [`Threads::map`] covers
//! exactly that shape — it evaluates a pure function over a slice on N
//! scoped threads and returns the results **in input order**, which is what
//! keeps the parallel searches bit-identical to their sequential runs: all
//! order-sensitive work (visited-set insertion, best-state selection)
//! happens in the coordinator, over an order-stable result vector.
//!
//! Work is distributed by an atomic cursor rather than pre-chunking:
//! expanding one state can be 100× the work of another (move counts differ
//! wildly), so static chunks would regularly leave workers idle. The cursor
//! hands out small contiguous *batches* instead of single indices — with
//! incremental state evaluation the per-item work is short enough that a
//! per-item `fetch_add` became a measurable contention point on wide
//! frontiers, while batches of a few items amortize it without giving up
//! meaningful balance (a batch is at most ~1/8th of one worker's fair
//! share).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::error::{CoreError, Result};

/// A worker-count handle; see [`Threads::map`].
#[derive(Debug)]
pub(crate) struct Threads {
    n: usize,
    /// Batches of work claimed per worker index, across every `map` call of
    /// this pool's lifetime. Runtime telemetry only: the claim cursor races
    /// under parallelism, so the split across workers is not deterministic
    /// (the *results* of `map` still are — they come back in input order).
    batches: Vec<AtomicU64>,
}

impl Threads {
    /// Below this many items the scoped-spawn overhead outweighs any
    /// speedup; run inline instead. Delta evaluation shrank per-item work,
    /// which pushed the break-even point up from the old threshold of 4.
    const MIN_PAR_ITEMS: usize = 8;

    /// A pool of `n` workers (clamped to at least 1).
    pub(crate) fn new(n: usize) -> Self {
        let n = n.max(1);
        Threads {
            n,
            batches: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Batches claimed per worker index so far (inline maps count one batch
    /// against worker 0).
    pub(crate) fn batch_counts(&self) -> Vec<u64> {
        self.batches
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Evaluate `f` over `items`, returning results in input order.
    ///
    /// With one worker (or a tiny input) this is a plain sequential map on
    /// the calling thread — the `parallelism = 1` knob therefore exercises
    /// the *same* code path the parallel run does, minus the threads.
    ///
    /// A panic in `f` on a worker thread comes back as
    /// [`CoreError::WorkerPanicked`] once every worker has been joined; it
    /// does not unwind through the caller.
    pub(crate) fn map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send + Sync,
        F: Fn(&T) -> R + Sync,
    {
        if self.n == 1 || items.len() < Self::MIN_PAR_ITEMS {
            if !items.is_empty() {
                self.batches[0].fetch_add(1, Ordering::Relaxed);
            }
            return Ok(items.iter().map(f).collect());
        }
        let slots: Vec<OnceLock<R>> = (0..items.len()).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let workers = self.n.min(items.len());
        // Batch size: 8 claims per worker keeps the tail balanced while
        // cutting cursor traffic by ~batch×.
        let batch = (items.len() / (workers * 8)).max(1);
        let joined: Vec<std::thread::Result<()>> = std::thread::scope(|scope| {
            let cursor = &cursor;
            let slots = &slots;
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let claimed = &self.batches[w];
                    scope.spawn(move || loop {
                        let start = cursor.fetch_add(batch, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        claimed.fetch_add(1, Ordering::Relaxed);
                        let end = (start + batch).min(items.len());
                        for i in start..end {
                            // A slot is claimed by exactly one worker (the
                            // cursor hands out each index once), so `set`
                            // cannot collide.
                            let _ = slots[i].set(f(&items[i]));
                        }
                    })
                })
                .collect();
            // Join every handle: the scope re-raises the panic of any
            // thread it has to join itself.
            handles.into_iter().map(|h| h.join()).collect()
        });
        if let Some(payload) = joined.into_iter().find_map(std::result::Result::err) {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            return Err(CoreError::WorkerPanicked(what));
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .ok_or_else(|| CoreError::WorkerPanicked("a result slot stayed empty".into()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = Threads::new(8).map(&items, |&x| x * 2).unwrap();
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        assert_eq!(
            Threads::new(1).map(&items, f).unwrap(),
            Threads::new(4).map(&items, f).unwrap()
        );
    }

    #[test]
    fn tiny_inputs_run_inline() {
        // Not observable directly, but must not deadlock or reorder.
        let out = Threads::new(16).map(&[1, 2, 3], |&x: &i32| x + 1).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn batched_claims_cover_every_slot() {
        // 1000 items / 3 workers → batch > 1; every index must still be
        // claimed exactly once and land in order.
        let items: Vec<usize> = (0..1000).collect();
        let out = Threads::new(3).map(&items, |&x| x + 1).unwrap();
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn batch_counts_cover_all_claims() {
        let t = Threads::new(4);
        let items: Vec<usize> = (0..100).collect();
        let _ = t.map(&items, |&x| x);
        let counts = t.batch_counts();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().sum::<u64>() > 0);
        // The inline path counts one batch against worker 0.
        let t1 = Threads::new(1);
        let _ = t1.map(&items, |&x| x);
        assert_eq!(t1.batch_counts(), vec![1]);
        // An empty map claims nothing.
        let t0 = Threads::new(1);
        let _ = t0.map(&[] as &[usize], |&x| x);
        assert_eq!(t0.batch_counts(), vec![0]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let out = Threads::new(0).map(&[5], |&x: &i32| x).unwrap();
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One huge item plus many small ones: completes and stays ordered.
        let items: Vec<u32> = std::iter::once(1_000_000)
            .chain(std::iter::repeat_n(10, 63))
            .collect();
        let work = |&n: &u32| (0..n).fold(0u64, |a, x| a ^ u64::from(x));
        let out = Threads::new(4).map(&items, work).unwrap();
        assert_eq!(out.len(), 64);
        assert_eq!(out, Threads::new(1).map(&items, work).unwrap());
    }

    #[test]
    fn a_panicking_worker_is_a_typed_error() {
        // Regression: the scope used to re-raise the panic in the caller,
        // and the slot collection `expect`ed every slot filled.
        let items: Vec<usize> = (0..64).collect();
        let err = Threads::new(4)
            .map(&items, |&x| {
                assert_ne!(x, 13, "unlucky item");
                x
            })
            .unwrap_err();
        let CoreError::WorkerPanicked(what) = &err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert!(what.contains("unlucky item"), "{what}");
    }
}
