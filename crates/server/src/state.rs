//! Process-wide shared state: the multi-tenant registry.
//!
//! Scoping rules (the soundness argument lives with each structure):
//!
//! * **Move memos** are keyed by *family digest* alone. Memo entries are
//!   derived purely from workflow structure ([`MoveMemo`]'s keys digest
//!   slot chains and activity-id bindings), so any two requests in the
//!   same family — same id→operation bindings, same recordsets, per
//!   [`etlopt_core::text::family_digest`] — may share one memo
//!   process-wide, across tenants. Sharing never changes results, only
//!   skips recomputing applicable-move lists.
//! * **Result caches** are keyed by (family digest, rows-per-source,
//!   data seed, *catalog digest*). The last component exists because the
//!   synthetic catalog is **not** a pure function of the first three:
//!   [`etlopt_workload::datagen::catalog_for`] threads one RNG across
//!   sources in declaration order, while the family digest is
//!   declaration-order-canonical — so two same-family workflows that
//!   declare their sources in different textual order generate
//!   *different* per-source data. Keying by a digest of the generated
//!   tables themselves ([`crate::job::catalog_digest`]) means sharing
//!   happens exactly when the data is bit-identical, and is then safely
//!   process-wide across tenants.
//! * **Calibration** is keyed by (tenant, family digest) and is the one
//!   layer that is *not* shared across tenants: calibration stores
//!   observed selectivities, which feed back into costing. One tenant's
//!   observations must never re-price another tenant's plans, so each
//!   tenant gets an isolated store, optionally persisted under
//!   [`StoreDir`]'s escaped per-tenant directories.

// One job that panics while it holds a registry lock must not fail every
// later request: locks are taken through `relock`, never `expect`ed.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, LockResult, Mutex};

use etlopt_core::opt::MoveMemo;
use etlopt_engine::{SharedCache, SharedCacheHandle};
use etlopt_workload::{CalibrationStore, StoreDir, StoreError};

/// Take a registry lock even if a job panicked while holding it. Sound
/// because nothing behind these locks is ever torn: the maps only gain
/// whole entries, and a calibration store a panic interrupted holds the
/// observations merged so far — what a shorter run would have left.
pub(crate) fn relock<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server-process configuration: listen address, pool sizing, admission
/// caps and the per-job budget ceilings that clamp client requests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Admission control: jobs allowed to wait in the queue. Submissions
    /// beyond this are rejected with a typed `429`.
    pub queue_depth: usize,
    /// Ceiling on the per-job search-state budget.
    pub max_states: usize,
    /// Ceiling on the per-job wall-clock search budget, in milliseconds.
    pub max_time_ms: u64,
    /// Ceiling on synthetic rows per source for execute/adaptive jobs.
    pub max_rows: usize,
    /// Ceiling on adaptive rounds per job.
    pub max_rounds: usize,
    /// Ceiling on per-job search parallelism (threads inside one search).
    /// Unlike the other ceilings this one is a pure resource knob —
    /// search results are parallelism-invariant — so the clamped value is
    /// not echoed in the canonical body.
    pub max_parallelism: usize,
    /// Root directory for persisted per-tenant calibration; `None`
    /// keeps calibration in-memory only.
    pub store_dir: Option<PathBuf>,
    /// Where `Server::join` writes the shutdown drain report; `None`
    /// skips the log.
    pub drain_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 16,
            max_states: 20_000,
            max_time_ms: 60_000,
            max_rows: 4096,
            max_rounds: 8,
            max_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            store_dir: None,
            drain_log: None,
        }
    }
}

/// Shared optimizer state for one workflow family: the move memo and the
/// per-(rows, seed, catalog digest) result caches.
pub struct Family {
    memo: Arc<MoveMemo>,
    caches: Mutex<HashMap<(usize, u64, u64), SharedCacheHandle>>,
}

impl Family {
    fn new() -> Family {
        Family {
            memo: Arc::new(MoveMemo::new()),
            caches: Mutex::new(HashMap::new()),
        }
    }

    /// The family's shared move memo.
    pub fn memo(&self) -> Arc<MoveMemo> {
        Arc::clone(&self.memo)
    }

    /// The shared result cache for one synthetic dataset of this family,
    /// created on first touch. `data` is the digest of the *generated*
    /// catalog ([`crate::job::catalog_digest`]): datagen is
    /// declaration-order-sensitive while the family digest is not, so
    /// (rows, seed) alone could alias two different datasets and serve
    /// cached intermediates under the wrong catalog.
    pub fn cache(&self, rows: usize, seed: u64, data: u64) -> SharedCacheHandle {
        let mut caches = relock(self.caches.lock());
        caches
            .entry((rows, seed, data))
            .or_insert_with(|| SharedCacheHandle::new(SharedCache::new()))
            .clone()
    }

    fn cache_totals(&self) -> (usize, u64, u64, u64) {
        let caches = relock(self.caches.lock());
        let mut totals = (caches.len(), 0, 0, 0);
        for handle in caches.values() {
            let (h, m, i) = handle.counters();
            totals.1 += h;
            totals.2 += m;
            totals.3 += i;
        }
        totals
    }
}

/// One tenant's calibration stores, keyed by family digest.
struct Tenant {
    cals: Mutex<HashMap<u128, Arc<Mutex<CalibrationStore>>>>,
}

/// The process-wide registry behind all worker threads.
pub struct Registry {
    cfg: ServerConfig,
    families: Mutex<HashMap<u128, Arc<Family>>>,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
}

impl Registry {
    /// A fresh registry for `cfg`.
    pub fn new(cfg: ServerConfig) -> Registry {
        Registry {
            cfg,
            families: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The server configuration (budget ceilings live here).
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The shared state for one workflow family, created on first touch.
    pub fn family(&self, digest: u128) -> Arc<Family> {
        let mut families = relock(self.families.lock());
        Arc::clone(
            families
                .entry(digest)
                .or_insert_with(|| Arc::new(Family::new())),
        )
    }

    /// The calibration store for (tenant, family), created on first
    /// touch. With a configured `store_dir` the first touch warm-loads
    /// from disk; a corrupt store file is a typed error (surfaced to the
    /// client as a 500), never silently replaced by an empty store.
    pub fn calibration(
        &self,
        tenant: &str,
        family: u128,
    ) -> Result<Arc<Mutex<CalibrationStore>>, StoreError> {
        let tenant_state = {
            let mut tenants = relock(self.tenants.lock());
            Arc::clone(tenants.entry(tenant.to_owned()).or_insert_with(|| {
                Arc::new(Tenant {
                    cals: Mutex::new(HashMap::new()),
                })
            }))
        };
        let mut cals = relock(tenant_state.cals.lock());
        if let Some(store) = cals.get(&family) {
            return Ok(Arc::clone(store));
        }
        let store = match &self.cfg.store_dir {
            Some(root) => StoreDir::new(root)
                .load(tenant, family)?
                .unwrap_or_default(),
            None => CalibrationStore::new(),
        };
        let store = Arc::new(Mutex::new(store));
        cals.insert(family, Arc::clone(&store));
        Ok(store)
    }

    /// Persist one tenant's store for `family` if a store directory is
    /// configured.
    pub fn persist_calibration(
        &self,
        tenant: &str,
        family: u128,
        store: &CalibrationStore,
    ) -> Result<(), StoreError> {
        match &self.cfg.store_dir {
            Some(root) => StoreDir::new(root).save(tenant, family, store),
            None => Ok(()),
        }
    }

    /// Registry statistics as a JSON object line (the `stats` op).
    pub fn stats_json(&self) -> String {
        let families = relock(self.families.lock());
        let mut caches = 0usize;
        let (mut hits, mut misses, mut insertions) = (0u64, 0u64, 0u64);
        let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
        for fam in families.values() {
            let (n, h, m, i) = fam.cache_totals();
            caches += n;
            hits += h;
            misses += m;
            insertions += i;
            let (mh, mm) = fam.memo.stats();
            memo_hits += mh;
            memo_misses += mm;
        }
        let tenants = relock(self.tenants.lock()).len();
        format!(
            concat!(
                "{{\"op\":\"stats\",\"families\":{},\"tenants\":{},\"caches\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_insertions\":{},",
                "\"memo_hits\":{},\"memo_misses\":{}}}"
            ),
            families.len(),
            tenants,
            caches,
            hits,
            misses,
            insertions,
            memo_hits,
            memo_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_caches_are_created_once_and_shared() {
        let reg = Registry::new(ServerConfig::default());
        let f1 = reg.family(7);
        let f2 = reg.family(7);
        assert!(Arc::ptr_eq(&f1, &f2));
        assert!(Arc::ptr_eq(&f1.memo(), &f2.memo()));
        let c1 = f1.cache(64, 1, 7);
        c1.with_cache(|c| {
            c.insert(
                99,
                Arc::new(etlopt_engine::Table::empty(
                    etlopt_core::schema::Schema::empty(),
                )),
            )
        });
        assert_eq!(
            f2.cache(64, 1, 7).len(),
            1,
            "same (rows, seed, data) shares a cache"
        );
        assert_eq!(f2.cache(64, 2, 7).len(), 0, "different seed gets its own");
        assert_eq!(
            f2.cache(64, 1, 8).len(),
            0,
            "different generated data gets its own"
        );
        assert_eq!(
            reg.family(8).cache(64, 1, 7).len(),
            0,
            "different family too"
        );
    }

    #[test]
    fn calibration_is_tenant_scoped() {
        use etlopt_core::opt::adaptive::{CalEntry, Calibration};
        let reg = Registry::new(ServerConfig::default());
        let a = reg.calibration("acme", 5).unwrap();
        a.lock().unwrap().record(1, "1", CalEntry::new(10, 5));
        let b = reg.calibration("umbrella", 5).unwrap();
        assert!(
            b.lock().unwrap().is_empty(),
            "tenant umbrella must not see acme's calibration"
        );
        let a2 = reg.calibration("acme", 5).unwrap();
        assert!(Arc::ptr_eq(&a, &a2), "same tenant+family is one store");
    }

    #[test]
    fn a_job_that_panics_under_a_registry_lock_does_not_poison_later_requests() {
        let reg = Registry::new(ServerConfig::default());
        let fam = reg.family(7);
        fam.cache(64, 1, 0);
        let store = reg.calibration("acme", 7).unwrap();
        // Panic on another thread with every kind of registry lock held.
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _families = reg.families.lock().unwrap();
                    let _tenants = reg.tenants.lock().unwrap();
                    let _caches = fam.caches.lock().unwrap();
                    let _store = store.lock().unwrap();
                    panic!("job died holding the registry");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(reg.families.is_poisoned() && reg.tenants.is_poisoned());
        assert!(fam.caches.is_poisoned() && store.is_poisoned());

        assert!(Arc::ptr_eq(&reg.family(7), &fam), "known family survives");
        reg.family(8);
        assert_eq!(fam.cache(64, 1, 0).len(), 0);
        assert!(Arc::ptr_eq(&reg.calibration("acme", 7).unwrap(), &store));
        reg.calibration("umbrella", 7).unwrap();
        assert_eq!(relock(store.lock()).len(), 0);
        let v = crate::json::parse(&reg.stats_json()).unwrap();
        assert_eq!(
            v.get("families").and_then(crate::json::Value::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("tenants").and_then(crate::json::Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn stats_json_is_a_parseable_snapshot() {
        let reg = Registry::new(ServerConfig::default());
        reg.family(1).cache(64, 1, 0);
        reg.calibration("acme", 1).unwrap();
        let v = crate::json::parse(&reg.stats_json()).unwrap();
        assert_eq!(
            v.get("families").and_then(crate::json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("tenants").and_then(crate::json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("caches").and_then(crate::json::Value::as_u64),
            Some(1)
        );
    }
}
