//! Admission control: a count of job slots.
//!
//! A job runs on the connection thread that read it, but only while that
//! thread holds a [`Slot`]. At most `slots` are held at once. Up to `depth`
//! further connections wait for one and are served in arrival order (each
//! takes a ticket); an entry beyond that is refused at once with
//! [`Rejected::Full`], a `429` on the wire. `close` starts the drain: new
//! entries are refused with [`Rejected::Draining`] (`503`), while
//! connections already waiting keep their place and still get their slot,
//! so admitted work is never dropped. `wait_idle` returns once nothing runs
//! or waits.

use std::sync::{Condvar, Mutex, MutexGuard};

use crate::state::relock;

/// Why an entry was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// Every slot held and the waiting line full. The payload is the
    /// waiting-line cap.
    Full(usize),
    /// Admission closed: the server is draining for shutdown.
    Draining,
}

struct State {
    /// Slots held.
    running: usize,
    /// Connections waiting for a slot. They hold the tickets
    /// `serving..serving + waiting`.
    waiting: usize,
    closed: bool,
    /// The ticket the next free slot goes to.
    serving: u64,
}

/// Job slots behind a mutex and a condvar (the workspace is std-only).
pub struct Admission {
    state: Mutex<State>,
    changed: Condvar,
    slots: usize,
    depth: usize,
}

/// A held job slot. Dropping it — normally or while a panic unwinds —
/// frees the slot for the next waiter.
pub struct Slot<'a> {
    admission: &'a Admission,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut st = self.admission.lock();
        st.running -= 1;
        self.admission.changed.notify_all();
    }
}

impl Admission {
    /// `slots` jobs run at once; `depth` more may wait. Both are at
    /// least 1.
    pub fn new(slots: usize, depth: usize) -> Admission {
        Admission {
            state: Mutex::new(State {
                running: 0,
                waiting: 0,
                closed: false,
                serving: 0,
            }),
            changed: Condvar::new(),
            slots: slots.max(1),
            depth: depth.max(1),
        }
    }

    /// Lock the state even if a thread panicked while holding it: every
    /// mutation is a counter step or a flag store, so a poisoned guard is
    /// still consistent.
    fn lock(&self) -> MutexGuard<'_, State> {
        relock(self.state.lock())
    }

    /// Take a slot: at once if one is free and nobody waits, else after
    /// every earlier waiter. Refuses without blocking when closed or when
    /// the waiting line is full. A connection that got in line before
    /// `close` still gets its slot.
    pub fn enter(&self) -> Result<Slot<'_>, Rejected> {
        let mut st = self.lock();
        if st.closed {
            return Err(Rejected::Draining);
        }
        if st.waiting >= self.depth {
            return Err(Rejected::Full(self.depth));
        }
        let ticket = st.serving + st.waiting as u64;
        st.waiting += 1;
        while st.serving != ticket || st.running >= self.slots {
            st = relock(self.changed.wait(st));
        }
        st.serving += 1;
        st.waiting -= 1;
        st.running += 1;
        if st.waiting > 0 && st.running < self.slots {
            // Several slots came free at once: the next ticket fits too.
            self.changed.notify_all();
        }
        Ok(Slot { admission: self })
    }

    /// Refuse new entries from now on. Returns whether this call closed
    /// admission (false when it already was).
    pub fn close(&self) -> bool {
        !std::mem::replace(&mut self.lock().closed, true)
    }

    /// Whether [`Admission::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Block until no slot is held and nobody waits. After `close` this
    /// is the end of the drain.
    pub fn wait_idle(&self) {
        let mut st = self.lock();
        while st.running > 0 || st.waiting > 0 {
            st = relock(self.changed.wait(st));
        }
    }
}

#[cfg(test)]
impl Admission {
    /// `(running, waiting)` right now.
    pub(crate) fn load(&self) -> (usize, usize) {
        let st = self.lock();
        (st.running, st.waiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::{self, JoinHandle};

    /// Spawn a thread that enters, records `tag` while it holds its slot,
    /// and returns what `enter` said.
    fn waiter(
        adm: &Arc<Admission>,
        order: &Arc<Mutex<Vec<usize>>>,
        tag: usize,
    ) -> JoinHandle<Result<(), Rejected>> {
        let adm = Arc::clone(adm);
        let order = Arc::clone(order);
        thread::spawn(move || {
            let _slot = adm.enter()?;
            order.lock().unwrap().push(tag);
            Ok(())
        })
    }

    /// Spin until `waiting` connections are in line.
    fn until_waiting(adm: &Admission, waiting: usize) {
        while adm.load().1 < waiting {
            thread::yield_now();
        }
    }

    #[test]
    fn over_slots_plus_depth_is_a_typed_full_rejection() {
        let adm = Arc::new(Admission::new(2, 2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let held = (adm.enter().unwrap(), adm.enter().unwrap());
        let waiters = [waiter(&adm, &order, 0), waiter(&adm, &order, 1)];
        until_waiting(&adm, 2);
        assert_eq!(adm.enter().err(), Some(Rejected::Full(2)));
        assert_eq!(adm.load(), (2, 2));
        drop(held);
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(()));
        }
        assert_eq!(adm.load(), (0, 0));
    }

    #[test]
    fn close_refuses_newcomers_but_serves_those_in_line() {
        let adm = Arc::new(Admission::new(1, 2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let held = adm.enter().unwrap();
        let waiters = [waiter(&adm, &order, 0), waiter(&adm, &order, 1)];
        until_waiting(&adm, 2);
        assert!(adm.close());
        assert!(!adm.close(), "close is idempotent");
        assert!(adm.is_closed());
        assert_eq!(adm.enter().err(), Some(Rejected::Draining));

        let idle = Arc::new(AtomicBool::new(false));
        let watcher = {
            let (adm, idle) = (Arc::clone(&adm), Arc::clone(&idle));
            thread::spawn(move || {
                adm.wait_idle();
                idle.store(true, Ordering::SeqCst);
            })
        };
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(!idle.load(Ordering::SeqCst), "a slot is held and two wait");
        drop(held);
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(()));
        }
        watcher.join().unwrap();
        assert!(idle.load(Ordering::SeqCst));
        assert_eq!(order.lock().unwrap().len(), 2);
        assert_eq!(adm.load(), (0, 0));
    }

    #[test]
    fn waiters_are_served_in_arrival_order() {
        // Several rounds: without tickets the wake-up order is up to the
        // scheduler and only sometimes matches.
        let adm = Arc::new(Admission::new(1, 3));
        for _ in 0..32 {
            let order = Arc::new(Mutex::new(Vec::new()));
            let held = adm.enter().unwrap();
            let mut waiters = Vec::new();
            for tag in 0..3 {
                waiters.push(waiter(&adm, &order, tag));
                until_waiting(&adm, tag + 1);
            }
            drop(held);
            for w in waiters {
                assert_eq!(w.join().unwrap(), Ok(()));
            }
            assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        }
    }

    #[test]
    fn a_panic_while_holding_a_slot_frees_it() {
        let adm = Arc::new(Admission::new(1, 1));
        let holder = Arc::clone(&adm);
        let panicked = thread::spawn(move || {
            let _slot = holder.enter().unwrap();
            panic!("job panicked while holding its slot");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(adm.load(), (0, 0));
        let slot = adm.enter();
        assert!(slot.is_ok(), "the freed slot is taken at once");
    }

    /// A thread that panics while holding the admission lock poisons it;
    /// admission must keep serving.
    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let adm = Arc::new(Admission::new(1, 1));
        let holder = Arc::clone(&adm);
        let panicked = thread::spawn(move || {
            let _guard = holder.state.lock().unwrap();
            panic!("poison the admission lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(adm.state.is_poisoned());

        let order = Arc::new(Mutex::new(Vec::new()));
        let held = adm.enter().unwrap();
        let w = waiter(&adm, &order, 0);
        until_waiting(&adm, 1);
        assert_eq!(adm.enter().err(), Some(Rejected::Full(1)));
        assert!(adm.close());
        assert_eq!(adm.enter().err(), Some(Rejected::Draining));
        drop(held);
        assert_eq!(w.join().unwrap(), Ok(()));
        adm.wait_idle();
        assert_eq!(adm.load(), (0, 0));
    }
}
