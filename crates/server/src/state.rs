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
//! * **Remembered bodies** are keyed by the *clamped request*
//!   (`BodyKey`), process-wide across tenants. For each op the key holds
//!   exactly what its body depends on: algorithm, state budget, time cap
//!   and text; rows and seed for `execute` and `adaptive`; rounds and
//!   `warm` for `adaptive`, and the tenant for a warm one. [`crate::job`]
//!   fixes the cost model, so a search that was not time-capped is a pure
//!   function of (algorithm, state budget, workflow), and datagen and the
//!   engine are deterministic: an `optimize`, `execute` or cold `adaptive`
//!   body is a pure function of its key, and replaying it is
//!   indistinguishable from computing it again. A warm `adaptive` body is a
//!   pure function of its key and of the tenant's store before the loop, so
//!   its entry carries a `Guard`: the store, and a snapshot of it taken
//!   when the loop left it unchanged. It answers exactly while the store
//!   still *equals* the snapshot. Equality, not a version counter:
//!   [`Registry::calibration`] hands the store out, and any holder may
//!   write it. The key is the text itself, not a fingerprint of the parsed
//!   workflow: the body echoes a plan whose activity numbering follows the
//!   text's declaration order, datagen follows its source order, and a
//!   lookup must cost less than the parse it saves. A respelled workflow is
//!   another key — it searches, shares the family's memo and cache, and is
//!   right either way. One admission rule ([`crate::job`]): the family had
//!   been seen before the request (one-off traffic costs no memory), no
//!   search was time-capped, and a warm adaptive's loop left its store
//!   unchanged. An entry keeps the body and, escaped once when it is
//!   remembered, its wire form, which a hit's reply splices in whole
//!   ([`crate::proto`]). FIFO over one byte budget ([`TIER_BYTES`]).
//!
//! Lock order: a calibration store, then the tier. No path holds both
//! today: a guarded entry is cloned out under the tier's lock and compared
//! with its store after, and a body is remembered after its store's lock
//! is dropped. The tier's lock is never held while searching or executing.

// One job that panics while it holds a registry lock must not fail every
// later request: locks are taken through `relock`, never `expect`ed.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex};

use etlopt_core::opt::MoveMemo;
use etlopt_engine::{SharedCache, SharedCacheHandle};
use etlopt_workload::{CalibrationStore, StoreDir, StoreError};

use crate::json;
use crate::proto::Op;

/// Take a registry lock even if a job panicked while holding it. Sound
/// because nothing behind these locks is ever torn: the maps only gain
/// and drop whole entries, and a calibration store a panic interrupted holds the
/// observations merged so far — what a shorter run would have left.
pub(crate) fn relock<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server-process configuration: listen address, job slots, admission
/// caps and the per-job budget ceilings that clamp client requests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Jobs running at once: the number of job slots. Each job runs on
    /// the connection thread that read it while it holds a slot.
    pub workers: usize,
    /// Admission control: jobs allowed to wait for a slot. Submissions
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
    /// Ignored: every search runs on one thread, whatever a request's
    /// `parallelism` says. Kept only because the benchmark (`benchmark/`)
    /// reads it; the benchmark change that stops reading it deletes it.
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
            max_parallelism: 1,
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

    /// (caches, cached rows, hits, misses, insertions) over the family's
    /// result caches.
    fn cache_totals(&self) -> [u64; 5] {
        let caches = relock(self.caches.lock());
        let mut totals = [caches.len() as u64, 0, 0, 0, 0];
        for handle in caches.values() {
            let (rows, (h, m, i)) = handle.with_cache(|c| (c.cached_rows(), c.counters()));
            for (total, n) in totals[1..].iter_mut().zip([rows as u64, h, m, i]) {
                *total += n;
            }
        }
        totals
    }
}

/// Byte budget of the tier of remembered bodies (a constant, like the result
/// cache's row budget): about 2 000 `serve_warm`-shaped entries (≈ 8 KiB
/// each, most of it the body twice, raw and escaped, and the text).
pub const TIER_BYTES: usize = 16 << 20;

/// What an entry is charged besides its key's strings, its body, its wire
/// form and its snapshot's entries. Counting allocator over
/// `serve_warm`-shaped entries (its 32 workflows × optimize and execute,
/// and 8 warm adaptives with rested stores, copied up to 1 152 entries):
/// the key's `Arc` (136 bytes), the entry's `Arc` (112), the wire form's
/// `Arc` header (16), and the map and queue slots at their amortized growth
/// come to 315 over the mix and 326 over the unguarded entries alone.
const ENTRY_BYTES: usize = 336;

/// What a snapshot is charged per calibrated activity and per source,
/// besides its name: B-tree nodes, 116 bytes an entry over 24 rested stores
/// of generated small workflows (563 entries), 115 over the 8 above.
const CAL_ENTRY_BYTES: usize = 120;

/// What a body is remembered under: the clamped request, with exactly the
/// fields the op's body depends on ([`crate::job`] builds it). The others
/// stay 0, `false` or empty, and `parallelism` is never here: it is
/// ignored.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct BodyKey {
    pub(crate) op: Op,
    pub(crate) algo: String,
    pub(crate) states: usize,
    pub(crate) time_ms: u64,
    /// `execute` and `adaptive` only.
    pub(crate) rows: usize,
    /// `execute` and `adaptive` only.
    pub(crate) seed: u64,
    /// `adaptive` only.
    pub(crate) rounds: usize,
    /// `adaptive` only.
    pub(crate) warm: bool,
    /// A warm `adaptive`'s only.
    pub(crate) tenant: String,
    pub(crate) text: String,
}

/// What a warm adaptive's body was computed from: its tenant's store
/// (tenant stores are never evicted, so this is the one every later
/// request of the tenant and family locks), and that store as the loop
/// found and left it.
pub(crate) struct Guard {
    pub(crate) store: Arc<Mutex<CalibrationStore>>,
    pub(crate) snapshot: CalibrationStore,
}

/// A remembered body in both forms a hit hands out, and for a warm
/// adaptive the store it answers for.
struct Remembered {
    body: String,
    /// `body` escaped for the envelope's `body` string, once, when it is
    /// remembered: a hit's reply splices it in whole.
    wire: Arc<str>,
    guard: Option<Guard>,
}

impl Remembered {
    /// An entry for `body`, escaped once, here.
    fn new(body: String, guard: Option<Guard>) -> Remembered {
        let wire = json::escape(&body).into();
        Remembered { body, wire, guard }
    }

    /// Bytes the entry is charged, with its key.
    fn bytes(&self, key: &BodyKey) -> usize {
        let names = self.guard.iter().flat_map(|g| {
            let activities = g.snapshot.entries().map(|(_, id, _)| id.len());
            activities.chain(g.snapshot.sources().map(|(name, _)| name.len()))
        });
        ENTRY_BYTES
            + key.algo.len()
            + key.tenant.len()
            + key.text.len()
            + self.body.len()
            + self.wire.len()
            + names.map(|name| CAL_ENTRY_BYTES + name).sum::<usize>()
    }
}

/// The tier: key → remembered body, FIFO over one byte budget.
struct Tier {
    max_bytes: usize,
    bytes: usize,
    entries: HashMap<Arc<BodyKey>, (Arc<Remembered>, usize)>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Arc<BodyKey>>,
    evictions: u64,
}

impl Tier {
    fn new(max_bytes: usize) -> Tier {
        Tier {
            max_bytes,
            bytes: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            evictions: 0,
        }
    }

    /// Remember `entry` under `key`, then evict oldest entries until the
    /// budget holds. A resident entry under `key` is replaced in place (two
    /// concurrent misses computed equal bodies, or a guarded entry's store
    /// has moved since): it keeps its FIFO position and its charge follows.
    /// An entry larger than the whole budget is ignored.
    fn insert(&mut self, key: BodyKey, entry: Remembered) {
        let bytes = entry.bytes(&key);
        if bytes > self.max_bytes {
            return;
        }
        let entry = Arc::new(entry);
        if let Some((resident, charged)) = self.entries.get_mut(&key) {
            self.bytes = self.bytes - *charged + bytes;
            (*resident, *charged) = (entry, bytes);
        } else {
            let key = Arc::new(key);
            self.order.push_back(Arc::clone(&key));
            self.entries.insert(key, (entry, bytes));
            self.bytes += bytes;
        }
        while self.bytes > self.max_bytes {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some((_, freed)) = self.entries.remove(&old) {
                self.bytes -= freed;
                self.evictions += 1;
            }
        }
    }
}

/// One tenant's calibration stores, keyed by family digest.
struct Tenant {
    cals: Mutex<HashMap<u128, Arc<Mutex<CalibrationStore>>>>,
}

/// The process-wide registry every connection thread runs its jobs against.
pub struct Registry {
    cfg: ServerConfig,
    families: Mutex<HashMap<u128, Arc<Family>>>,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    tier: Mutex<Tier>,
    /// Lookups the tier answered, and lookups it did not (statistics).
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Registry {
    /// A fresh registry for `cfg`.
    pub fn new(cfg: ServerConfig) -> Registry {
        Registry {
            cfg,
            families: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            tier: Mutex::new(Tier::new(TIER_BYTES)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The server configuration (budget ceilings live here).
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The shared state for one workflow family, created on first touch.
    pub fn family(&self, digest: u128) -> Arc<Family> {
        self.family_seen(digest).0
    }

    /// [`Registry::family`], and whether the family already existed — the
    /// first part of the tier's admission rule.
    pub fn family_seen(&self, digest: u128) -> (Arc<Family>, bool) {
        match relock(self.families.lock()).entry(digest) {
            Entry::Occupied(e) => (Arc::clone(e.get()), true),
            Entry::Vacant(v) => (Arc::clone(v.insert(Arc::new(Family::new()))), false),
        }
    }

    /// The body remembered under `key`, its escaped wire form and its
    /// snapshot's length (0 for an unguarded entry), counting a hit or a
    /// miss. A guarded entry is cloned out under the tier's lock and
    /// compared with its store under the store's lock alone: a store that
    /// has moved since is a miss.
    pub(crate) fn remembered(&self, key: &BodyKey) -> Option<(String, Arc<str>, usize)> {
        let entry = relock(self.tier.lock())
            .entries
            .get(key)
            .map(|(entry, _)| Arc::clone(entry));
        let hit = entry.filter(|e| {
            e.guard
                .as_ref()
                .is_none_or(|g| *relock(g.store.lock()) == g.snapshot)
        });
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit.map(|e| {
            let entries = e.guard.as_ref().map_or(0, |g| g.snapshot.len());
            (e.body.clone(), Arc::clone(&e.wire), entries)
        })
    }

    /// Remember `body` under `key`, guarded for a warm adaptive, with its
    /// wire form, escaped before the tier's lock is taken. The caller has
    /// checked admission.
    pub(crate) fn remember(&self, key: BodyKey, body: String, guard: Option<Guard>) {
        let entry = Remembered::new(body, guard);
        relock(self.tier.lock()).insert(key, entry);
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
        let (bodies, body_bytes, body_evictions) = {
            let tier = relock(self.tier.lock());
            (tier.entries.len(), tier.bytes, tier.evictions)
        };
        let families = relock(self.families.lock());
        let mut caches = [0u64; 5];
        let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
        for fam in families.values() {
            for (total, n) in caches.iter_mut().zip(fam.cache_totals()) {
                *total += n;
            }
            let (mh, mm) = fam.memo.stats();
            memo_hits += mh;
            memo_misses += mm;
        }
        let tenants = relock(self.tenants.lock()).len();
        let [caches, cached_rows, hits, misses, insertions] = caches;
        format!(
            concat!(
                "{{\"op\":\"stats\",\"families\":{},\"tenants\":{},\"caches\":{},",
                "\"cached_rows\":{},\"cache_hits\":{},\"cache_misses\":{},",
                "\"cache_insertions\":{},\"memo_hits\":{},\"memo_misses\":{},",
                "\"bodies\":{},\"body_bytes\":{},\"body_hits\":{},",
                "\"body_misses\":{},\"body_evictions\":{}}}"
            ),
            families.len(),
            tenants,
            caches,
            cached_rows,
            hits,
            misses,
            insertions,
            memo_hits,
            memo_misses,
            bodies,
            body_bytes,
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            body_evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::opt::adaptive::{CalEntry, Calibration};

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

    fn key(op: Op, text: &str) -> BodyKey {
        BodyKey {
            op,
            algo: "beam".to_owned(),
            states: 600,
            time_ms: 60_000,
            rows: 0,
            seed: 0,
            rounds: 0,
            warm: false,
            tenant: String::new(),
            text: text.to_owned(),
        }
    }

    fn execute(text: &str) -> BodyKey {
        BodyKey {
            rows: 1024,
            seed: 1,
            ..key(Op::Execute, text)
        }
    }

    fn warm(tenant: &str, text: &str) -> BodyKey {
        BodyKey {
            rounds: 4,
            warm: true,
            tenant: tenant.to_owned(),
            ..BodyKey {
                op: Op::Adaptive,
                ..execute(text)
            }
        }
    }

    fn body(len: usize) -> Remembered {
        Remembered::new("b".repeat(len), None)
    }

    fn guard(store: &Arc<Mutex<CalibrationStore>>) -> Option<Guard> {
        Some(Guard {
            store: Arc::clone(store),
            snapshot: relock(store.lock()).clone(),
        })
    }

    /// A store of `n` activities (ids "1", "2", …) and one source "S".
    fn store_of(n: u64) -> CalibrationStore {
        let mut store = CalibrationStore::new();
        for i in 1..=n {
            store.record(u128::from(i), &i.to_string(), CalEntry::new(10 * i, i));
        }
        store.record_source("S", 1000);
        store
    }

    fn stat(reg: &Registry, k: &str) -> u64 {
        crate::json::parse(&reg.stats_json())
            .unwrap()
            .get(k)
            .and_then(crate::json::Value::as_u64)
            .unwrap()
    }

    #[test]
    fn family_seen_reports_the_first_sight_once() {
        let reg = Registry::new(ServerConfig::default());
        let (first, seen) = reg.family_seen(7);
        assert!(!seen, "a fresh registry has seen nothing");
        let (second, seen) = reg.family_seen(7);
        assert!(seen && Arc::ptr_eq(&first, &second));
        assert!(
            !reg.family_seen(8).1,
            "another family is its own first sight"
        );
        assert!(reg.family_seen(8).1);
    }

    #[test]
    fn the_tier_is_charged_exactly_and_evicts_fifo_across_kinds() {
        let store = Arc::new(Mutex::new(store_of(3)));
        // Algorithm, text, body and its wire form; a warm adaptive's tenant
        // and its four snapshot entries (three activities, one source) with
        // their names.
        let plain = ENTRY_BYTES + 4 + 1 + 100 + 100;
        assert_eq!(body(100).bytes(&key(Op::Optimize, "a")), plain);
        assert_eq!(body(100).bytes(&execute("a")), plain);
        let adaptive = plain + 4 + 4 * CAL_ENTRY_BYTES + (3 + 1);
        let guarded = |len| Remembered::new("b".repeat(len), guard(&store));
        assert_eq!(guarded(100).bytes(&warm("acme", "a")), adaptive);
        // The wire form is charged as escaped: ten quotes are twenty bytes.
        let quotes = Remembered::new("\"".repeat(10), None);
        assert_eq!(&*quotes.wire, "\\\"".repeat(10));
        assert_eq!(
            quotes.bytes(&key(Op::Optimize, "a")),
            ENTRY_BYTES + 4 + 1 + 10 + 20
        );

        let mut tier = Tier::new(2 * plain + adaptive);
        tier.insert(key(Op::Optimize, "a"), body(100));
        tier.insert(warm("acme", "a"), guarded(100));
        tier.insert(execute("a"), body(100));
        assert_eq!(
            (tier.entries.len(), tier.bytes, tier.evictions),
            (3, 2 * plain + adaptive, 0)
        );
        // Every part of the key is exact.
        for other in [
            key(Op::Execute, "a"),
            key(Op::Optimize, "a "),
            BodyKey {
                states: 601,
                ..key(Op::Optimize, "a")
            },
            BodyKey {
                time_ms: 59_999,
                ..key(Op::Optimize, "a")
            },
            BodyKey {
                algo: "es".to_owned(),
                ..key(Op::Optimize, "a")
            },
            BodyKey {
                rows: 1023,
                ..execute("a")
            },
            BodyKey {
                seed: 2,
                ..execute("a")
            },
            BodyKey {
                rounds: 3,
                ..warm("acme", "a")
            },
            BodyKey {
                warm: false,
                tenant: String::new(),
                ..warm("acme", "a")
            },
            warm("umbrella", "a"),
        ] {
            assert!(!tier.entries.contains_key(&other), "{other:?}");
        }

        // A guarded entry is replaced in place: it keeps its place in line,
        // and its charge follows the new entry.
        tier.insert(warm("acme", "a"), guarded(90));
        assert_eq!(tier.bytes, 2 * plain + adaptive - 20);
        assert_eq!(tier.entries[&warm("acme", "a")].0.body.len(), 90);
        assert_eq!((tier.order.len(), tier.evictions), (3, 0));
        // One queue for every kind: the optimize goes first, ...
        tier.insert(execute("b"), body(100));
        assert_eq!(tier.evictions, 1);
        assert!(!tier.entries.contains_key(&key(Op::Optimize, "a")));
        assert!(tier.entries.contains_key(&warm("acme", "a")));
        // ... then the adaptive, then the execute, to fit a larger entry.
        let larger = body(100 + adaptive / 2);
        let left = plain + larger.bytes(&execute("c"));
        assert!(left > plain + adaptive && left <= tier.max_bytes);
        tier.insert(execute("c"), larger);
        assert_eq!(tier.evictions, 3);
        assert!(
            tier.entries.contains_key(&execute("b")) && tier.entries.contains_key(&execute("c"))
        );
        assert_eq!((tier.entries.len(), tier.bytes), (2, left));
        assert_eq!(tier.order.len(), tier.entries.len());
        // One larger than the whole budget is ignored and evicts nothing.
        tier.insert(execute("d"), body(tier.max_bytes));
        assert!(!tier.entries.contains_key(&execute("d")));
        assert_eq!(
            (tier.entries.len(), tier.bytes, tier.evictions),
            (2, left, 3)
        );
    }

    #[test]
    fn a_guarded_body_answers_only_while_its_store_equals_the_snapshot() {
        let reg = Registry::new(ServerConfig::default());
        let store = reg.calibration("acme", 7).unwrap();
        *relock(store.lock()) = store_of(2);
        let key = warm("acme", "wf");
        reg.remember(key.clone(), "body".to_owned(), guard(&store));
        let hit = || reg.remembered(&key);
        assert_eq!(hit(), Some(("body".to_owned(), "body".into(), 2)));
        assert!(
            reg.remembered(&warm("umbrella", "wf")).is_none(),
            "the tenant is part of the key"
        );
        // Any write that changes the store — here the max-evidence rule
        // takes a larger observation — and the entry no longer answers.
        relock(store.lock()).record(1, "1", CalEntry::new(11, 1));
        assert_eq!(hit(), None);
        // A write that changes nothing leaves it answering.
        *relock(store.lock()) = store_of(2);
        relock(store.lock()).record_source("S", 999);
        assert_eq!(hit(), Some(("body".to_owned(), "body".into(), 2)));
        // An unguarded body answers whatever any store holds; its wire form
        // is the body escaped.
        reg.remember(execute("wf"), "\"t\"\n".to_owned(), None);
        assert_eq!(
            reg.remembered(&execute("wf")),
            Some(("\"t\"\n".to_owned(), "\\\"t\\\"\\n".into(), 0))
        );
        assert_eq!((stat(&reg, "bodies"), stat(&reg, "body_hits")), (2, 3));
        assert_eq!(stat(&reg, "body_misses"), 2);
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
        reg.remember(execute("w"), "t".to_owned(), None);
        reg.remember(warm("acme", "w"), "a".to_owned(), guard(&store));
        // Panic on another thread with every kind of registry lock held.
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _families = reg.families.lock().unwrap();
                    let _tenants = reg.tenants.lock().unwrap();
                    let _caches = fam.caches.lock().unwrap();
                    let _store = store.lock().unwrap();
                    let _tier = reg.tier.lock().unwrap();
                    panic!("job died holding the registry");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(reg.families.is_poisoned() && reg.tenants.is_poisoned());
        assert!(fam.caches.is_poisoned() && store.is_poisoned());
        assert!(reg.tier.is_poisoned());

        assert!(Arc::ptr_eq(&reg.family(7), &fam), "known family survives");
        reg.family(8);
        assert_eq!(fam.cache(64, 1, 0).len(), 0);
        assert!(Arc::ptr_eq(&reg.calibration("acme", 7).unwrap(), &store));
        reg.calibration("umbrella", 7).unwrap();
        assert_eq!(relock(store.lock()).len(), 0);
        // The tier serves what it held and records more.
        assert_eq!(
            reg.remembered(&execute("w")),
            Some(("t".to_owned(), "t".into(), 0)),
            "a remembered body survives"
        );
        reg.remember(execute("x"), "u".to_owned(), None);
        assert!(reg.remembered(&execute("x")).is_some());
        assert!(reg.remembered(&execute("y")).is_none());
        // The guarded body is compared with its poisoned store, and replaced.
        assert_eq!(
            reg.remembered(&warm("acme", "w")),
            Some(("a".to_owned(), "a".into(), 0))
        );
        reg.remember(warm("acme", "w"), "b".to_owned(), guard(&store));
        assert_eq!(
            reg.remembered(&warm("acme", "w")).map(|(body, ..)| body),
            Some("b".to_owned())
        );
        assert_eq!(
            (
                stat(&reg, "bodies"),
                stat(&reg, "body_hits"),
                stat(&reg, "body_misses")
            ),
            (3, 4, 1)
        );
        assert_eq!((stat(&reg, "families"), stat(&reg, "tenants")), (2, 2));
    }

    #[test]
    fn stats_json_is_a_parseable_snapshot() {
        use etlopt_core::{scalar::Scalar, schema::Schema};
        let reg = Registry::new(ServerConfig::default());
        let rows = vec![vec![Scalar::Int(1)], vec![Scalar::Int(2)]];
        let table = etlopt_engine::Table::from_rows(Schema::of(["a"]), rows).unwrap();
        reg.family(1)
            .cache(64, 1, 0)
            .with_cache(|c| c.insert(99, Arc::new(table)));
        reg.family(2).cache(64, 1, 0);
        reg.calibration("acme", 1).unwrap();
        for (k, expected) in [
            ("families", 2),
            ("tenants", 1),
            ("caches", 2),
            ("cached_rows", 2),
            ("cache_insertions", 1),
            ("bodies", 0),
            ("body_bytes", 0),
            ("body_hits", 0),
            ("body_misses", 0),
            ("body_evictions", 0),
        ] {
            assert_eq!(stat(&reg, k), expected, "{k}");
        }
    }
}
