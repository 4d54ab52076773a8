//! Bounded MPMC job queue with typed admission control.
//!
//! Connection threads `submit` (never block: a full queue is an immediate
//! typed rejection, which becomes a `429` on the wire), workers `recv`
//! (block until a job or shutdown). `close` starts the drain: submissions
//! are refused from that point, but queued jobs are still handed out
//! until the queue is empty, so in-flight work completes.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::state::relock;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// Queue at capacity: admission control. The payload is the depth cap.
    Full(usize),
    /// Queue closed: the server is draining for shutdown.
    Draining,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue (mutex + condvar; the
/// workspace is std-only).
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> JobQueue<T> {
    /// Lock the queue even if a thread panicked while holding it: every
    /// mutation is a single push, pop or flag store, so a poisoned guard
    /// is still consistent, and a worker that panicked here instead would
    /// never be respawned.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        relock(self.inner.lock())
    }

    /// A queue admitting at most `cap` waiting jobs (jobs already being
    /// run by a worker no longer count against the cap).
    pub fn new(cap: usize) -> JobQueue<T> {
        JobQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Try to enqueue. Never blocks: over-capacity and draining states
    /// are immediate typed rejections.
    pub fn submit(&self, item: T) -> Result<(), Rejected> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(Rejected::Draining);
        }
        if inner.items.len() >= self.cap {
            return Err(Rejected::Full(self.cap));
        }
        inner.items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the next job, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed *and* drained — the
    /// worker-exit signal.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = relock(self.ready.wait(inner));
        }
    }

    /// Close the queue: refuse new submissions, wake all workers. Queued
    /// jobs still drain. Idempotent.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        self.ready.notify_all();
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn over_capacity_is_a_typed_full_rejection() {
        let q = JobQueue::new(2);
        assert!(q.submit(1).is_ok());
        assert!(q.submit(2).is_ok());
        assert_eq!(q.submit(3), Err(Rejected::Full(2)));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_queued_jobs_then_signals_exit() {
        let q = JobQueue::new(4);
        q.submit(10).unwrap();
        q.submit(11).unwrap();
        q.close();
        assert_eq!(q.submit(12), Err(Rejected::Draining));
        assert_eq!(q.recv(), Some(10));
        assert_eq!(q.recv(), Some(11));
        assert_eq!(q.recv(), None);
        assert_eq!(q.recv(), None, "exit signal is sticky");
    }

    /// A thread that panics while holding the queue lock poisons it; the
    /// queue must keep serving (a panicking `recv` would kill a worker
    /// nothing respawns).
    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let q = Arc::new(JobQueue::new(2));
        q.submit(1).unwrap();
        let holder = Arc::clone(&q);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap();
            panic!("poison the job queue lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(q.inner.is_poisoned());

        assert_eq!(q.submit(2), Ok(()));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.submit(3), Err(Rejected::Full(2)));
        assert_eq!(q.recv(), Some(1));
        q.close();
        assert_eq!(q.submit(4), Err(Rejected::Draining));
        assert_eq!(q.recv(), Some(2));
        assert_eq!(q.recv(), None);
    }

    #[test]
    fn blocked_workers_wake_on_submit_and_close() {
        let q = Arc::new(JobQueue::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.recv() {
                    got.push(item);
                }
                got
            }));
        }
        for i in 0..20 {
            while q.submit(i).is_err() {
                std::thread::yield_now();
            }
        }
        // Let the workers drain before closing so all 20 are delivered.
        while q.depth() > 0 {
            std::thread::yield_now();
        }
        q.close();
        let mut all: Vec<i32> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }
}
