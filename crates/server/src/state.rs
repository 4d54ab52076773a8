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
//! * **Plans** are keyed by the *exact request*: (algorithm, clamped
//!   state budget, clamped time cap, workflow text, the estimates the
//!   search read beyond that text), process-wide across tenants. A search
//!   that was not time-capped is a pure function of (algorithm, state
//!   budget, cost model, workflow), [`crate::job`] fixes the model, and the
//!   workflow is the text's parse with nothing but estimates replaced — so
//!   replaying a stored `Plan` is indistinguishable from searching again.
//!   The key is the text itself, not a fingerprint of the parsed workflow:
//!   the body echoes a plan whose activity numbering follows the text's
//!   declaration order, datagen follows its source order, and a lookup must
//!   cost less than the parse it saves. A different spelling of one
//!   workflow is a different key — it searches, shares the family's memo
//!   and cache as before, and is right either way. A plan is admitted only
//!   on the *second sight* of its family (a never-seen family stores
//!   nothing, so one-off traffic costs no memory) and never from a
//!   time-capped or failed search. FIFO over a fixed byte budget
//!   ([`PLAN_CACHE_BYTES`]). Two more things ride on a plan:
//!   * `optimize` / `execute` search the text as it stands (no estimates
//!     in the key); **`adaptive`** searches it re-seeded from the tenant's
//!     calibration, and the key then carries every estimate of the seeded
//!     workflow as `f64` bit patterns (`PlanKey::estimates`). The key
//!     holds the calibration's *values*, not the tenant: two tenants meet
//!     in one entry exactly when their calibrations agree on this
//!     workflow, and then the entry is what either would have computed.
//!     Bits and not a digest of them, for the reason the text is not
//!     digested: a collision would hand one tenant a plan priced with
//!     another's observations, and nothing downstream could tell.
//!   * a plan **remembers its runs**: per (clamped rows, seed) the rendered
//!     `targets` member of an `execute` body, a pure function of (plan,
//!     rows, seed) by datagen's and the engine's determinism contracts. No
//!     catalog digest is needed here, unlike in the result cache's key: the
//!     plan fixes the text, hence the source order, hence the data. A hit
//!     touches no data at all. A handful per plan ([`RUNS_PER_PLAN`]),
//!     FIFO, charged to the tier's byte budget; a plan that was never
//!     admitted remembers its one run until its request ends.
//! * **Remembered adaptives** share the tier's budget and its FIFO. A warm
//!   `adaptive` body is keyed by the tenant and the clamped request
//!   ([`AdaptiveKey`]: the text as is, like a plan's) and kept with a
//!   snapshot of the tenant's store taken when the loop left that store
//!   unchanged. With no round time-capped, the body is a pure function of
//!   the key and of the store before the loop, so it is replayed exactly
//!   while the store still *equals* the snapshot. Equality, not a version
//!   counter: [`Registry::calibration`] hands the store out, and any holder
//!   may write it. Only the tenant's own entry can ever answer it.
//!
//! Lock order: a calibration store, then the plans lock, then one plan's
//! runs lock (remembering a run, `stats`); a run *lookup* takes the runs
//! lock alone. No store lock is taken while the plans lock is held: a
//! remembered adaptive is cloned out under the plans lock and compared with
//! its store after. Neither the plans nor a runs lock is held while
//! searching or executing.

// One job that panics while it holds a registry lock must not fail every
// later request: locks are taken through `relock`, never `expect`ed.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex};

use etlopt_core::opt::{MoveMemo, SearchOutcome};
use etlopt_engine::{SharedCache, SharedCacheHandle};
use etlopt_workload::{CalibrationStore, StoreDir, StoreError};

/// Take a registry lock even if a job panicked while holding it. Sound
/// because nothing behind these locks is ever torn: the maps only gain
/// whole entries, and a calibration store a panic interrupted holds the
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

/// Byte budget of the plan tier, plans and remembered adaptives together (a
/// constant, like the result cache's row budget): about 650 small-workflow
/// plans, or 2 200 small-workflow adaptives (≈ 7.5 KiB each, most of it
/// text and body).
pub const PLAN_CACHE_BYTES: usize = 16 << 20;

/// Heap a stored plan's best state is charged per graph slot: parsed
/// workflows of the benchmark's `search_plan` population retain 561 bytes
/// per slot (counting allocator, 2 705 slots).
const SLOT_BYTES: usize = 576;

/// What a stored plan is charged besides its text, estimates, fragment and
/// best state. Counting allocator over the `search_plan` population × the
/// four algorithms at 600 states: a `SearchOutcome` is 384 bytes inline and
/// keeps at most 296 on the heap behind its phase and frontier vectors;
/// the rest of `Plan` (112), the `PlanKey` (88), their two `Arc` headers
/// and the entry's map and queue slots bring it to about 940.
const PLAN_BYTES: usize = 1024;

/// What a remembered run is charged besides its `targets` string: its
/// deque slot (32 bytes) and the `Arc<str>` header (16).
const RUN_BYTES: usize = 48;

/// Runs one plan remembers. A scheduler resubmits a pipeline with the
/// `rows` and `seed` it used the night before; the few slots beyond the
/// first are for fleets that share a text and differ in their data knobs.
pub const RUNS_PER_PLAN: usize = 4;

/// What a remembered adaptive is charged besides its tenant, its text, its
/// body and its snapshot's entries. Counting allocator over 24 rested
/// stores of generated small workflows at `serve_warm`'s knobs (beam, 600
/// states, 1 024 rows, 4 rounds): the entry's two `Arc`s (88 and 128
/// bytes), the body's `Arc` header, the algorithm string and the entry's
/// map and queue slots come to about 295.
const ADAPTIVE_BYTES: usize = 320;

/// What a snapshot is charged per calibrated activity and per source,
/// besides its name: B-tree nodes, 116 bytes an entry over the same 24
/// stores (563 entries).
const CAL_ENTRY_BYTES: usize = 120;

/// What a search is looked up by: everything its outcome depends on. Not
/// `rows` and `seed`, which only feed execution, nor `parallelism`, which
/// changes no result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub(crate) algo: String,
    pub(crate) states: usize,
    pub(crate) time_ms: u64,
    pub(crate) text: String,
    /// The estimates the searched workflow carries where they may differ
    /// from `text`'s: `f64::to_bits` of every activity's selectivity and
    /// every recordset's row estimate, in node order
    /// ([`crate::job::estimate_bits`]). Empty for `optimize` / `execute`,
    /// which search the text as it stands.
    pub(crate) estimates: Vec<u64>,
}

/// One remembered execution of a plan.
struct Run {
    rows: usize,
    seed: u64,
    /// The `targets` member of the `execute` body, rendered.
    targets: Arc<str>,
}

/// What a search leaves behind: what a body is rendered from, and what an
/// adaptive round is replayed from.
pub(crate) struct Plan {
    /// What the plan is stored under.
    pub(crate) key: Arc<PlanKey>,
    /// The request workflow's family digest.
    pub(crate) digest: u128,
    /// That family's shared state (families are never evicted, so a plan
    /// holding its family keeps nothing alive that would otherwise go).
    pub(crate) family: Arc<Family>,
    /// The search's outcome. `outcome.best` has the parsed request's node
    /// ids — an `execute` generates its catalog from its sources.
    pub(crate) outcome: SearchOutcome,
    /// The search-result members of the body, rendered.
    pub(crate) fragment: String,
    /// Oldest first, at most [`RUNS_PER_PLAN`], one per (rows, seed).
    runs: Mutex<VecDeque<Run>>,
}

impl Plan {
    pub(crate) fn new(
        key: Arc<PlanKey>,
        digest: u128,
        family: Arc<Family>,
        outcome: SearchOutcome,
        fragment: String,
    ) -> Plan {
        Plan {
            key,
            digest,
            family,
            outcome,
            fragment,
            runs: Mutex::new(VecDeque::new()),
        }
    }

    /// Bytes the plan is charged on admission.
    fn bytes(&self) -> usize {
        let runs = relock(self.runs.lock());
        PLAN_BYTES
            + self.key.text.len()
            + self.key.estimates.len() * std::mem::size_of::<u64>()
            + self.fragment.len()
            + self.outcome.best.graph().slot_capacity() * SLOT_BYTES
            + runs.iter().map(Run::bytes).sum::<usize>()
    }
}

impl Run {
    fn bytes(&self) -> usize {
        RUN_BYTES + self.targets.len()
    }
}

/// What a warm adaptive's body is remembered under: the tenant and every
/// clamped request field the body depends on. Not `parallelism`, which
/// changes no result, nor `warm`: only a warm adaptive is remembered.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct AdaptiveKey {
    pub(crate) tenant: String,
    pub(crate) algo: String,
    pub(crate) states: usize,
    pub(crate) time_ms: u64,
    pub(crate) rows: usize,
    pub(crate) seed: u64,
    pub(crate) rounds: usize,
    pub(crate) text: String,
}

/// A warm adaptive's rendered body and the store it was computed from.
struct Remembered {
    /// The tenant's store (tenant stores are never evicted, so this is the
    /// one every later request of the tenant and family locks).
    store: Arc<Mutex<CalibrationStore>>,
    /// The store as the loop found it and left it.
    snapshot: CalibrationStore,
    body: Arc<str>,
}

impl Remembered {
    /// Bytes the entry is charged, with its key.
    fn bytes(&self, key: &AdaptiveKey) -> usize {
        let activities = self.snapshot.entries().map(|(_, id, _)| id.len());
        let sources = self.snapshot.sources().map(|(name, _)| name.len());
        ADAPTIVE_BYTES
            + key.tenant.len()
            + key.text.len()
            + self.body.len()
            + activities
                .chain(sources)
                .map(|name| CAL_ENTRY_BYTES + name)
                .sum::<usize>()
    }
}

/// An entry of the tier, in FIFO order.
enum Resident {
    Plan(Arc<PlanKey>),
    Adaptive(Arc<AdaptiveKey>),
}

/// The plan tier: exact-request key → plan, and tenant + request →
/// remembered adaptive, FIFO together over one byte budget.
struct PlanCache {
    max_bytes: usize,
    bytes: usize,
    entries: HashMap<Arc<PlanKey>, (Arc<Plan>, usize)>,
    adaptives: HashMap<Arc<AdaptiveKey>, (Arc<Remembered>, usize)>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Resident>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    fn new(max_bytes: usize) -> PlanCache {
        PlanCache {
            max_bytes,
            bytes: 0,
            entries: HashMap::new(),
            adaptives: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        match self.entries.get(key) {
            Some((plan, _)) => {
                self.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Evict oldest entries, plans and adaptives alike, until `incoming`
    /// more bytes fit the budget.
    fn make_room(&mut self, incoming: usize) {
        while self.bytes + incoming > self.max_bytes {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            let freed = match old {
                Resident::Plan(key) => self.entries.remove(&key).map(|(_, bytes)| bytes),
                Resident::Adaptive(key) => self.adaptives.remove(&key).map(|(_, bytes)| bytes),
            };
            if let Some(freed) = freed {
                self.bytes -= freed;
                self.evictions += 1;
            }
        }
    }

    /// Admit `plan`, evicting oldest entries past the byte budget. An entry
    /// larger than the whole budget and an already-present key (a
    /// concurrent miss got there first; the bodies are equal) are ignored.
    fn insert(&mut self, plan: Arc<Plan>) {
        let bytes = plan.bytes();
        if bytes > self.max_bytes || self.entries.contains_key(&plan.key) {
            return;
        }
        self.make_room(bytes);
        self.bytes += bytes;
        self.order.push_back(Resident::Plan(Arc::clone(&plan.key)));
        self.entries.insert(Arc::clone(&plan.key), (plan, bytes));
    }

    /// Remember an adaptive under `key`. Unlike a plan, a resident entry is
    /// replaced (its snapshot is of a store that has moved since), in place:
    /// it keeps its FIFO position, and its charge follows the new entry. An
    /// entry larger than the whole budget is ignored.
    fn remember_adaptive(&mut self, key: AdaptiveKey, entry: Remembered) {
        let bytes = entry.bytes(&key);
        if bytes > self.max_bytes {
            return;
        }
        let entry = Arc::new(entry);
        if let Some((resident, charged)) = self.adaptives.get_mut(&key) {
            self.bytes = self.bytes - *charged + bytes;
            (*resident, *charged) = (entry, bytes);
            self.make_room(0);
            return;
        }
        self.make_room(bytes);
        self.bytes += bytes;
        let key = Arc::new(key);
        self.order.push_back(Resident::Adaptive(Arc::clone(&key)));
        self.adaptives.insert(key, (entry, bytes));
    }

    /// Remember one run on `plan`: the oldest goes once the plan holds
    /// [`RUNS_PER_PLAN`], a second run under the same (rows, seed) is
    /// dropped (two concurrent misses executed; their strings are equal).
    /// If `plan` is the stored one its charge follows, and the tier evicts
    /// as on an insert; a plan that was never admitted, or has been
    /// evicted, remembers for whoever still holds it and is charged nothing.
    fn remember(&mut self, plan: &Arc<Plan>, rows: usize, seed: u64, targets: Arc<str>) {
        let (added, freed) = {
            let mut runs = relock(plan.runs.lock());
            if runs.iter().any(|r| (r.rows, r.seed) == (rows, seed)) {
                return;
            }
            let evicted = if runs.len() >= RUNS_PER_PLAN {
                runs.pop_front()
            } else {
                None
            };
            let run = Run {
                rows,
                seed,
                targets,
            };
            let added = run.bytes();
            runs.push_back(run);
            (added, evicted.map_or(0, |r| r.bytes()))
        };
        match self.entries.get_mut(&*plan.key) {
            Some((stored, bytes)) if Arc::ptr_eq(stored, plan) => {
                *bytes = *bytes + added - freed;
                self.bytes = self.bytes + added - freed;
                self.make_room(0);
            }
            _ => {}
        }
    }

    /// Runs remembered across the stored plans.
    fn runs(&self) -> usize {
        self.entries
            .values()
            .map(|(plan, _)| relock(plan.runs.lock()).len())
            .sum()
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
    plans: Mutex<PlanCache>,
    /// `execute` requests answered from a remembered run (a statistic).
    run_hits: AtomicU64,
    /// `adaptive` requests answered from a remembered body (a statistic).
    adaptive_hits: AtomicU64,
}

impl Registry {
    /// A fresh registry for `cfg`.
    pub fn new(cfg: ServerConfig) -> Registry {
        Registry {
            cfg,
            families: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            plans: Mutex::new(PlanCache::new(PLAN_CACHE_BYTES)),
            run_hits: AtomicU64::new(0),
            adaptive_hits: AtomicU64::new(0),
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
    /// plan tier's admission test.
    pub fn family_seen(&self, digest: u128) -> (Arc<Family>, bool) {
        match relock(self.families.lock()).entry(digest) {
            Entry::Occupied(e) => (Arc::clone(e.get()), true),
            Entry::Vacant(v) => (Arc::clone(v.insert(Arc::new(Family::new()))), false),
        }
    }

    /// The stored plan for an exact request, counting a hit or a miss.
    pub(crate) fn plan(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        relock(self.plans.lock()).get(key)
    }

    /// Store a plan. The caller has checked admission: the family had been
    /// seen before and the search was not time-capped.
    pub(crate) fn store_plan(&self, plan: Arc<Plan>) {
        relock(self.plans.lock()).insert(plan);
    }

    /// The `targets` string `plan` remembers for (rows, seed), counting a
    /// hit. Takes the plan's runs lock only.
    pub(crate) fn run(&self, plan: &Plan, rows: usize, seed: u64) -> Option<Arc<str>> {
        let runs = relock(plan.runs.lock());
        let run = runs.iter().find(|r| (r.rows, r.seed) == (rows, seed))?;
        self.run_hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&run.targets))
    }

    /// Remember what executing `plan` over (rows, seed) rendered.
    pub(crate) fn remember_run(&self, plan: &Arc<Plan>, rows: usize, seed: u64, targets: Arc<str>) {
        relock(self.plans.lock()).remember(plan, rows, seed, targets);
    }

    /// The body remembered under `key`, if its tenant's store still equals
    /// the snapshot it was computed from, with that store's length; counts a
    /// hit. The entry is cloned out under the plans lock and compared under
    /// the store's lock alone.
    pub(crate) fn remembered_adaptive(&self, key: &AdaptiveKey) -> Option<(Arc<str>, usize)> {
        let entry = relock(self.plans.lock())
            .adaptives
            .get(key)
            .map(|(entry, _)| Arc::clone(entry))?;
        if *relock(entry.store.lock()) != entry.snapshot {
            return None;
        }
        self.adaptive_hits.fetch_add(1, Ordering::Relaxed);
        Some((Arc::clone(&entry.body), entry.snapshot.len()))
    }

    /// Remember a warm adaptive's `body`, computed by a loop that found
    /// `store` equal to `snapshot` and left it so. The caller holds the
    /// store's lock and has checked that no round was time-capped.
    pub(crate) fn remember_adaptive(
        &self,
        key: AdaptiveKey,
        store: &Arc<Mutex<CalibrationStore>>,
        snapshot: CalibrationStore,
        body: Arc<str>,
    ) {
        let entry = Remembered {
            store: Arc::clone(store),
            snapshot,
            body,
        };
        relock(self.plans.lock()).remember_adaptive(key, entry);
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
        let (plans, plan_bytes, plan_hits, plan_misses, plan_evictions, plan_runs) = {
            let p = relock(self.plans.lock());
            let runs = p.runs();
            (
                p.entries.len(),
                p.bytes,
                p.hits,
                p.misses,
                p.evictions,
                runs,
            )
        };
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
                "\"memo_hits\":{},\"memo_misses\":{},",
                "\"plans\":{},\"plan_bytes\":{},\"plan_hits\":{},",
                "\"plan_misses\":{},\"plan_evictions\":{},",
                "\"plan_runs\":{},\"run_hits\":{},\"adaptive_hits\":{}}}"
            ),
            families.len(),
            tenants,
            caches,
            hits,
            misses,
            insertions,
            memo_hits,
            memo_misses,
            plans,
            plan_bytes,
            plan_hits,
            plan_misses,
            plan_evictions,
            plan_runs,
            self.run_hits.load(Ordering::Relaxed),
            self.adaptive_hits.load(Ordering::Relaxed),
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

    fn key(text: &str) -> PlanKey {
        PlanKey {
            algo: "beam".to_owned(),
            states: 600,
            time_ms: 60_000,
            text: text.to_owned(),
            estimates: Vec::new(),
        }
    }

    /// A plan under `key`, its best state a three-node workflow.
    fn plan_under(key: PlanKey, fragment_len: usize) -> Arc<Plan> {
        let best = etlopt_core::text::parse(concat!(
            "source \"S\" table rows=10 (a)\n",
            "activity a1 \"NN\" = not_null(a) <- \"S\"\n",
            "target \"T\" table (a) <- a1\n",
        ))
        .unwrap();
        let outcome = SearchOutcome {
            best,
            best_cost: 1.0,
            initial_cost: 1.0,
            visited_states: 1,
            elapsed: std::time::Duration::ZERO,
            budget_exhausted: false,
            time_capped: false,
            phase_stats: Vec::new(),
            stats: etlopt_core::trace::SearchStats::new("BEAM"),
        };
        Arc::new(Plan::new(
            Arc::new(key),
            7,
            Arc::new(Family::new()),
            outcome,
            "f".repeat(fragment_len),
        ))
    }

    fn plan(text: &str, fragment_len: usize) -> Arc<Plan> {
        plan_under(key(text), fragment_len)
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
    fn plan_cache_is_fifo_over_its_byte_budget_and_exact_on_every_key_part() {
        // Every entry below is charged the same: one-letter text, 100-byte
        // fragment, the same three-node workflow.
        let entry = plan("a", 100).bytes();
        assert_eq!(
            entry,
            PLAN_BYTES + 1 + 100 + plan("a", 0).outcome.best.graph().slot_capacity() * SLOT_BYTES
        );
        let mut cache = PlanCache::new(3 * entry);
        for text in ["a", "b", "c"] {
            cache.insert(plan(text, 100));
        }
        assert_eq!((cache.entries.len(), cache.bytes), (3, 3 * entry));
        assert!(cache.get(&key("a")).is_some());
        // Every part of the key is exact.
        assert!(cache.get(&key("a ")).is_none(), "text");
        assert!(
            cache
                .get(&PlanKey {
                    states: 601,
                    ..key("a")
                })
                .is_none(),
            "states"
        );
        assert!(
            cache
                .get(&PlanKey {
                    time_ms: 59_999,
                    ..key("a")
                })
                .is_none(),
            "time cap"
        );
        assert!(
            cache
                .get(&PlanKey {
                    algo: "es".to_owned(),
                    ..key("a")
                })
                .is_none(),
            "algo"
        );
        assert!(
            cache
                .get(&PlanKey {
                    estimates: vec![0.5f64.to_bits()],
                    ..key("a")
                })
                .is_none(),
            "estimates"
        );
        assert_eq!((cache.hits, cache.misses), (1, 5));

        // A second insert under a resident key is a no-op: the first plan
        // stays (two concurrent misses computed equal plans).
        let resident = cache.get(&key("b")).unwrap();
        cache.insert(plan("b", 100));
        assert!(Arc::ptr_eq(&resident, &cache.get(&key("b")).unwrap()));
        assert_eq!(cache.bytes, 3 * entry);

        // The fourth entry evicts the oldest, not the most recently read.
        cache.insert(plan("d", 100));
        assert!(cache.get(&key("a")).is_none(), "oldest goes first");
        assert!(cache.get(&key("b")).is_some() && cache.get(&key("d")).is_some());
        assert_eq!(
            (cache.entries.len(), cache.bytes, cache.evictions),
            (3, 3 * entry, 1)
        );
        // A larger one makes room for itself by evicting as many as it needs.
        cache.insert(plan("e", 100 + entry));
        assert_eq!(
            (cache.entries.len(), cache.bytes, cache.evictions),
            (2, 3 * entry, 3)
        );
        assert!(cache.get(&key("d")).is_some() && cache.get(&key("e")).is_some());
        // One that exceeds the whole budget is never admitted and evicts
        // nothing.
        cache.insert(plan("f", 3 * entry));
        assert!(cache.get(&key("f")).is_none());
        assert_eq!(
            (cache.entries.len(), cache.bytes, cache.evictions),
            (2, 3 * entry, 3)
        );
        assert_eq!(cache.order.len(), cache.entries.len());

        // Estimates are charged, eight bytes each.
        let seeded = plan_under(
            PlanKey {
                estimates: vec![1, 2, 3],
                ..key("a")
            },
            100,
        );
        assert_eq!(seeded.bytes(), entry + 24);
    }

    #[test]
    fn a_plan_remembers_a_handful_of_runs_fifo_and_the_tier_is_charged_for_them() {
        let entry = plan("a", 100).bytes();
        let run = RUN_BYTES + 10;
        let reg = Registry::new(ServerConfig::default());
        let stored = plan("a", 100);
        reg.store_plan(Arc::clone(&stored));
        let stat = |k: &str| {
            crate::json::parse(&reg.stats_json())
                .unwrap()
                .get(k)
                .and_then(crate::json::Value::as_u64)
                .unwrap()
        };
        assert_eq!((stat("plan_bytes"), stat("plan_runs")), (entry as u64, 0));
        assert!(reg.run(&stored, 64, 1).is_none(), "nothing remembered yet");

        // One run per (rows, seed); a second under the same pair — two
        // concurrent misses both executed — is dropped, not charged.
        reg.remember_run(&stored, 64, 1, "targets-01".into());
        reg.remember_run(&stored, 64, 1, "targets-01".into());
        assert_eq!(reg.run(&stored, 64, 1).as_deref(), Some("targets-01"));
        assert!(reg.run(&stored, 64, 2).is_none(), "seed is part of the key");
        assert!(reg.run(&stored, 65, 1).is_none(), "so is rows");
        assert_eq!(
            (stat("plan_bytes"), stat("plan_runs"), stat("run_hits")),
            ((entry + run) as u64, 1, 1)
        );

        // The bound evicts the oldest run and gives its bytes back.
        for seed in 2..=RUNS_PER_PLAN as u64 {
            reg.remember_run(&stored, 64, seed, "targets-02".into());
        }
        assert_eq!(stat("plan_runs"), RUNS_PER_PLAN as u64);
        assert_eq!(stat("plan_bytes"), (entry + RUNS_PER_PLAN * run) as u64);
        reg.remember_run(&stored, 64, 99, "targets-99-longer".into());
        assert!(reg.run(&stored, 64, 1).is_none(), "oldest run goes first");
        assert!(reg.run(&stored, 64, 2).is_some() && reg.run(&stored, 64, 99).is_some());
        assert_eq!(stat("plan_runs"), RUNS_PER_PLAN as u64);
        assert_eq!(
            stat("plan_bytes"),
            (entry + RUNS_PER_PLAN * run + 7) as u64,
            "charged by the string's length"
        );

        // A plan that was never admitted remembers for whoever holds it and
        // is charged nothing — not even when a plan is stored under its key.
        let unadmitted = plan("a", 100);
        reg.remember_run(&unadmitted, 64, 1, "targets-01".into());
        assert_eq!(reg.run(&unadmitted, 64, 1).as_deref(), Some("targets-01"));
        assert_eq!(stat("plan_runs"), RUNS_PER_PLAN as u64);
        assert_eq!(stat("plan_bytes"), (entry + RUNS_PER_PLAN * run + 7) as u64);

        // A plan stored with its runs is charged for them on admission, and
        // evicting a plan gives back what its runs had added.
        let mut cache = PlanCache::new(2 * entry + run);
        let first = plan("x", 100);
        cache.insert(Arc::clone(&first));
        cache.remember(&first, 64, 1, "targets-01".into());
        assert_eq!(cache.bytes, entry + run);
        cache.insert(plan("y", 100));
        assert_eq!((cache.entries.len(), cache.bytes), (2, 2 * entry + run));
        // Growing a stored plan past the budget evicts as an insert would.
        let second = cache.get(&key("y")).unwrap();
        cache.remember(&second, 64, 1, "targets-01".into());
        assert_eq!(
            (cache.entries.len(), cache.bytes, cache.evictions),
            (1, entry + run, 1)
        );
        assert!(cache.get(&key("x")).is_none() && cache.get(&key("y")).is_some());
        cache.remember(&first, 64, 2, "targets-02".into());
        assert_eq!(
            cache.bytes,
            entry + run,
            "an evicted plan is charged nothing"
        );
        cache.insert(Arc::clone(&first));
        assert_eq!(
            (cache.entries.len(), cache.bytes, cache.runs()),
            (1, entry + 2 * run, 2),
            "re-admitted with both its runs, the older entry evicted"
        );
    }

    fn adaptive_key(tenant: &str, text: &str) -> AdaptiveKey {
        AdaptiveKey {
            tenant: tenant.to_owned(),
            algo: "beam".to_owned(),
            states: 600,
            time_ms: 60_000,
            rows: 1024,
            seed: 1,
            rounds: 4,
            text: text.to_owned(),
        }
    }

    /// A store of `n` activities (ids "1", "2", …) and one source "S".
    fn store_of(n: u64) -> CalibrationStore {
        use etlopt_core::opt::adaptive::{CalEntry, Calibration};
        let mut store = CalibrationStore::new();
        for i in 1..=n {
            store.record(u128::from(i), &i.to_string(), CalEntry::new(10 * i, i));
        }
        store.record_source("S", 1000);
        store
    }

    fn remembered(store: &Arc<Mutex<CalibrationStore>>, body_len: usize) -> Remembered {
        Remembered {
            store: Arc::clone(store),
            snapshot: relock(store.lock()).clone(),
            body: "b".repeat(body_len).into(),
        }
    }

    #[test]
    fn remembered_adaptives_are_charged_exactly_and_evicted_fifo_with_plans() {
        let store = Arc::new(Mutex::new(store_of(3)));
        let akey = adaptive_key("acme", "wf");
        let entry = remembered(&store, 100);
        // Tenant, text, body, then four entries (three activities, one
        // source) and their names.
        let bytes = ADAPTIVE_BYTES + 4 + 2 + 100 + 4 * CAL_ENTRY_BYTES + (3 + 1);
        assert_eq!(entry.bytes(&akey), bytes);

        let plan_bytes = plan("a", 100).bytes();
        let mut cache = PlanCache::new(2 * plan_bytes + bytes);
        cache.insert(plan("a", 100));
        cache.remember_adaptive(akey.clone(), entry);
        cache.insert(plan("b", 100));
        assert_eq!(cache.bytes, 2 * plan_bytes + bytes);
        // Replacing the entry keeps its place in line; its charge follows.
        cache.remember_adaptive(akey.clone(), remembered(&store, 90));
        assert_eq!(cache.bytes, 2 * plan_bytes + bytes - 10);
        assert_eq!(cache.order.len(), 3);
        // One queue for both kinds: plan a goes first, ...
        cache.insert(plan("c", 100));
        assert_eq!(cache.evictions, 1);
        assert!(cache.get(&key("a")).is_none() && cache.adaptives.contains_key(&akey));
        // ... then the adaptive, then plan b, to fit a larger plan d.
        cache.insert(plan("d", 100 + bytes));
        assert_eq!(cache.evictions, 3);
        assert!(cache.adaptives.is_empty() && cache.get(&key("b")).is_none());
        assert!(cache.get(&key("c")).is_some() && cache.get(&key("d")).is_some());
        assert_eq!(cache.bytes, 2 * plan_bytes + bytes);
        assert_eq!(cache.order.len(), cache.entries.len());
        // One larger than the whole budget is never admitted.
        cache.remember_adaptive(akey.clone(), remembered(&store, cache.max_bytes));
        assert!(cache.adaptives.is_empty());
        assert_eq!(cache.evictions, 3);
    }

    #[test]
    fn a_remembered_adaptive_answers_only_while_its_store_equals_the_snapshot() {
        use etlopt_core::opt::adaptive::{CalEntry, Calibration};
        let reg = Registry::new(ServerConfig::default());
        let store = reg.calibration("acme", 7).unwrap();
        *relock(store.lock()) = store_of(2);
        let key = adaptive_key("acme", "wf");
        let snapshot = relock(store.lock()).clone();
        reg.remember_adaptive(key.clone(), &store, snapshot, "body".into());
        let hit = || {
            reg.remembered_adaptive(&key)
                .map(|(b, n)| (b.to_string(), n))
        };
        assert_eq!(hit(), Some(("body".to_owned(), 2)));
        assert!(
            reg.remembered_adaptive(&adaptive_key("umbrella", "wf"))
                .is_none(),
            "the tenant is part of the key"
        );
        // Any write that changes the store — here the max-evidence rule
        // takes a larger observation — and the entry no longer answers.
        relock(store.lock()).record(1, "1", CalEntry::new(11, 1));
        assert_eq!(hit(), None);
        // A write that changes nothing leaves it answering.
        *relock(store.lock()) = store_of(2);
        relock(store.lock()).record_source("S", 999);
        assert_eq!(hit(), Some(("body".to_owned(), 2)));
        let v = crate::json::parse(&reg.stats_json()).unwrap();
        assert_eq!(
            v.get("adaptive_hits").and_then(crate::json::Value::as_u64),
            Some(2)
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
        let stored = plan("w", 8);
        reg.store_plan(Arc::clone(&stored));
        reg.remember_run(&stored, 64, 1, "t".into());
        let akey = adaptive_key("acme", "w");
        reg.remember_adaptive(akey.clone(), &store, CalibrationStore::new(), "a".into());
        // Panic on another thread with every kind of registry lock held.
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _families = reg.families.lock().unwrap();
                    let _tenants = reg.tenants.lock().unwrap();
                    let _caches = fam.caches.lock().unwrap();
                    let _store = store.lock().unwrap();
                    let _plans = reg.plans.lock().unwrap();
                    let _runs = stored.runs.lock().unwrap();
                    panic!("job died holding the registry");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(reg.families.is_poisoned() && reg.tenants.is_poisoned());
        assert!(fam.caches.is_poisoned() && store.is_poisoned());
        assert!(reg.plans.is_poisoned() && stored.runs.is_poisoned());

        assert!(Arc::ptr_eq(&reg.family(7), &fam), "known family survives");
        reg.family(8);
        assert_eq!(fam.cache(64, 1, 0).len(), 0);
        assert!(Arc::ptr_eq(&reg.calibration("acme", 7).unwrap(), &store));
        reg.calibration("umbrella", 7).unwrap();
        assert_eq!(relock(store.lock()).len(), 0);
        assert!(reg.plan(&key("w")).is_some(), "stored plan survives");
        assert_eq!(reg.run(&stored, 64, 1).as_deref(), Some("t"), "and its run");
        reg.remember_run(&stored, 64, 2, "u".into());
        assert!(reg.run(&stored, 64, 2).is_some());
        reg.store_plan(plan("x", 8));
        assert!(reg.plan(&key("x")).is_some() && reg.plan(&key("y")).is_none());
        // The remembered adaptive is compared with its poisoned store.
        let hit = reg
            .remembered_adaptive(&akey)
            .map(|(body, n)| (body.to_string(), n));
        assert_eq!(
            hit,
            Some(("a".to_owned(), 0)),
            "and the remembered adaptive"
        );
        reg.remember_adaptive(akey.clone(), &store, CalibrationStore::new(), "b".into());
        assert_eq!(
            reg.remembered_adaptive(&akey)
                .map(|(body, _)| body.to_string()),
            Some("b".to_owned())
        );
        let v = crate::json::parse(&reg.stats_json()).unwrap();
        let stat = |k| v.get(k).and_then(crate::json::Value::as_u64);
        assert_eq!(
            (stat("plans"), stat("plan_hits"), stat("plan_misses")),
            (Some(2), Some(2), Some(1))
        );
        assert_eq!((stat("plan_runs"), stat("run_hits")), (Some(2), Some(2)));
        assert_eq!(stat("adaptive_hits"), Some(2));
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
        for k in [
            "plans",
            "plan_bytes",
            "plan_hits",
            "plan_misses",
            "plan_evictions",
            "plan_runs",
            "run_hits",
            "adaptive_hits",
        ] {
            assert_eq!(
                v.get(k).and_then(crate::json::Value::as_u64),
                Some(0),
                "{k}"
            );
        }
    }
}
