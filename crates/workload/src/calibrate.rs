//! Selectivity calibration: run a workflow over real data, observe each
//! activity's actual pass rate, and feed it back into the workflow's
//! estimates before (re-)optimizing.
//!
//! The paper's optimizer is only as good as its "assigned selectivities"
//! (§4.2); this is the statistics-refresh loop a production deployment
//! would run between loads.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use etlopt_core::json::{self, Value};
use etlopt_core::opt::adaptive::{is_adjustable, CalEntry, Calibration};
use etlopt_core::workflow::Workflow;
use etlopt_engine::{Executor, Result};

/// Floor for calibrated selectivities: an activity that passed zero rows on
/// this sample still gets a tiny positive estimate (zero would make every
/// downstream plan collapse to cost 0). Shared with the adaptive loop's
/// clamp so one-shot and feedback-loop calibration agree.
pub const MIN_SELECTIVITY: f64 = etlopt_core::opt::adaptive::SELECTIVITY_FLOOR;

/// The persistent calibration layer of the adaptive re-optimization loop:
/// observed per-activity row traffic keyed by u128 activity-identity
/// fingerprints (`etlopt_core::opt::adaptive::activity_key`), plus
/// observed source cardinalities. Implements [`Calibration`] for the loop
/// and adds what a between-loads deployment needs on top: lossless JSON
/// round-tripping (through [`etlopt_core::json`]) and a
/// commutative, idempotent [`CalibrationStore::merge`] so stores built by
/// independent runs can be combined in any order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalibrationStore {
    /// key → (activity id string, observed tallies), key-ordered.
    entries: BTreeMap<u128, (String, CalEntry)>,
    /// source recordset name → observed cardinality.
    sources: BTreeMap<String, u64>,
}

impl CalibrationStore {
    /// An empty store.
    pub fn new() -> CalibrationStore {
        CalibrationStore::default()
    }

    /// Number of calibrated activities.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.sources.is_empty()
    }

    /// Entries in key order: `(key, activity id string, entry)`.
    pub fn entries(&self) -> impl Iterator<Item = (u128, &str, CalEntry)> {
        self.entries.iter().map(|(k, (a, e))| (*k, a.as_str(), *e))
    }

    /// Observed source cardinalities, name-ordered.
    pub fn sources(&self) -> impl Iterator<Item = (&str, u64)> {
        self.sources.iter().map(|(n, r)| (n.as_str(), *r))
    }

    /// Merge another store into this one. Per activity the max-evidence
    /// entry wins ([`CalEntry::prefer`]), per source the larger observed
    /// cardinality — so `merge` is commutative (the same store results
    /// whichever operand starts) and idempotent (`a.merge(&a)` is a
    /// no-op). The law the round-trip suite pins down.
    pub fn merge(&mut self, other: &CalibrationStore) {
        for (key, (activity, entry)) in &other.entries {
            self.record(*key, activity, *entry);
        }
        for (name, &rows) in &other.sources {
            self.record_source(name, rows);
        }
    }

    /// Serialize to JSON. Deterministic: entries in key order, sources in
    /// name order, tallies as raw integers (no floats to round-trip).
    pub fn to_json(&self) -> String {
        let sources: Vec<String> = self
            .sources
            .iter()
            .map(|(n, r)| format!("    \"{}\": {}", json::escape(n), r))
            .collect();
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|(k, (a, e))| {
                format!(
                    concat!(
                        "    {{\"key\": \"{:032x}\", \"activity\": \"{}\", ",
                        "\"rows_in\": {}, \"rows_out\": {}}}"
                    ),
                    k,
                    json::escape(a),
                    e.rows_in,
                    e.rows_out
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"version\": 1,\n",
                "  \"sources\": {{\n{}\n  }},\n",
                "  \"entries\": [\n{}\n  ]\n",
                "}}\n"
            ),
            sources.join(",\n"),
            entries.join(",\n"),
        )
    }

    /// Parse a store back from [`CalibrationStore::to_json`] output (or
    /// any JSON of the same shape). Returns a one-line description of the
    /// first syntax or schema problem.
    pub fn from_json(text: &str) -> std::result::Result<CalibrationStore, String> {
        let root = json::parse(text)?;
        let fields = root.as_obj().ok_or("calibration store is not an object")?;
        if !fields.contains_key("version") {
            return Err("calibration store has no `version`".to_owned());
        }
        let mut store = CalibrationStore::new();
        for (field, value) in fields {
            match field.as_str() {
                "version" => {
                    let v = exact_u64(value, "version")?;
                    if v != 1 {
                        return Err(format!("unsupported calibration store version {v}"));
                    }
                }
                "sources" => {
                    let sources = value.as_obj().ok_or("`sources` is not an object")?;
                    for (name, rows) in sources {
                        store.record_source(name, exact_u64(rows, name)?);
                    }
                }
                "entries" => {
                    let Value::Arr(entries) = value else {
                        return Err("`entries` is not an array".to_owned());
                    };
                    for entry in entries {
                        let (key, activity, entry) = parse_entry(entry)?;
                        store.record(key, activity, entry);
                    }
                }
                other => return Err(format!("unknown calibration store field `{other}`")),
            }
        }
        Ok(store)
    }

    /// Write the store to a file, atomically: the JSON goes to a sibling
    /// `<file name>.tmp`, is synced, and is renamed over `path`. A failed or
    /// interrupted save — disk full, a crash mid-write — therefore leaves
    /// the previous file as it was, never a truncated one that the next
    /// [`CalibrationStore::load`] would rightly refuse. (The directory is
    /// not synced: after a power loss the old file may still be the one
    /// there, which loads.) One writer per path at a time — the temporary
    /// name is fixed; the server saves under the store's own lock.
    pub fn save(&self, path: impl AsRef<Path>) -> std::result::Result<(), StoreError> {
        use std::io::Write;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let io = |at: &Path, source| StoreError::Io {
            path: at.to_path_buf(),
            source,
        };
        let written = std::fs::File::create(&tmp).and_then(|mut file| {
            file.write_all(self.to_json().as_bytes())?;
            file.sync_all()
        });
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(io(&tmp, e));
        }
        std::fs::rename(&tmp, path).map_err(|e| io(path, e))
    }

    /// Load a store from a file written by [`CalibrationStore::save`].
    ///
    /// Failures are typed so callers can distinguish "no store yet" from
    /// "a store exists but is corrupt": an unreadable path is
    /// [`StoreError::Io`], a file whose contents do not parse is
    /// [`StoreError::Malformed`]. Silently treating a corrupt file as an
    /// empty store would erase a deployment's accumulated calibration on
    /// the next save — malformed input must surface, never default.
    pub fn load(path: impl AsRef<Path>) -> std::result::Result<CalibrationStore, StoreError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| StoreError::Io {
            path: path.to_path_buf(),
            source: e,
        })?;
        CalibrationStore::from_json(&text).map_err(|detail| StoreError::Malformed {
            path: path.to_path_buf(),
            detail,
        })
    }
}

/// Why a calibration store could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written (missing, permissions, …).
    Io {
        /// The store path involved.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// The file exists and was read, but its contents are not a
    /// calibration store.
    Malformed {
        /// The store path involved.
        path: PathBuf,
        /// One-line description of the first syntax or schema problem.
        detail: String,
    },
}

impl StoreError {
    /// `true` when the file existed but failed to parse — the case a
    /// caller must never paper over with an empty store.
    pub fn is_malformed(&self) -> bool {
        matches!(self, StoreError::Malformed { .. })
    }

    /// `true` when the underlying I/O failure was "file not found" — the
    /// one case a cold-start caller may treat as an empty store.
    pub fn is_not_found(&self) -> bool {
        matches!(self, StoreError::Io { source, .. }
            if source.kind() == std::io::ErrorKind::NotFound)
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "calibration store {}: {source}", path.display())
            }
            StoreError::Malformed { path, detail } => {
                write!(
                    f,
                    "calibration store {} is malformed: {detail}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Malformed { .. } => None,
        }
    }
}

/// Filesystem layout for per-tenant, per-family calibration stores:
/// `root/<escaped tenant>/<family digest>.json`. The tenant directory is
/// the namespace boundary — one tenant's observed selectivities never
/// price another tenant's plans, because nothing below a tenant directory
/// is ever read for a different tenant. Family digests
/// ([`etlopt_core::text::family_digest`]) key the files because
/// calibration entries digest *activity identity*, which only means
/// anything within one workflow family.
#[derive(Debug, Clone)]
pub struct StoreDir {
    root: PathBuf,
}

impl StoreDir {
    /// A layout rooted at `root` (created lazily on first save).
    pub fn new(root: impl Into<PathBuf>) -> StoreDir {
        StoreDir { root: root.into() }
    }

    /// The layout root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file backing `(tenant, family)`.
    pub fn path_for(&self, tenant: &str, family: u128) -> PathBuf {
        self.root
            .join(escape_tenant(tenant))
            .join(format!("{family:032x}.json"))
    }

    /// Load the store for `(tenant, family)`. `Ok(None)` when no store
    /// exists yet; a store that exists but is corrupt is an error
    /// (see [`CalibrationStore::load`]).
    pub fn load(
        &self,
        tenant: &str,
        family: u128,
    ) -> std::result::Result<Option<CalibrationStore>, StoreError> {
        match CalibrationStore::load(self.path_for(tenant, family)) {
            Ok(store) => Ok(Some(store)),
            Err(e) if e.is_not_found() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Persist the store for `(tenant, family)`, creating directories as
    /// needed.
    pub fn save(
        &self,
        tenant: &str,
        family: u128,
        store: &CalibrationStore,
    ) -> std::result::Result<(), StoreError> {
        let path = self.path_for(tenant, family);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| StoreError::Io {
                path: dir.to_path_buf(),
                source: e,
            })?;
        }
        store.save(path)
    }
}

/// Injective filesystem-safe encoding of a tenant name: ASCII
/// alphanumerics, `-` and `.` pass through; every other byte (including
/// `_` itself, so the escape prefix cannot be forged) becomes `_xx` hex.
/// Distinct tenants therefore always map to distinct directories.
fn escape_tenant(tenant: &str) -> String {
    let mut out = String::with_capacity(tenant.len() + 8);
    out.push('t');
    for &b in tenant.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' => out.push(b as char),
            other => {
                out.push('_');
                out.push_str(&format!("{other:02x}"));
            }
        }
    }
    out
}

impl Calibration for CalibrationStore {
    fn entry(&self, key: u128) -> Option<CalEntry> {
        self.entries.get(&key).map(|(_, e)| *e)
    }

    fn record(&mut self, key: u128, activity: &str, entry: CalEntry) {
        self.entries
            .entry(key)
            .and_modify(|(_, e)| *e = e.prefer(entry))
            .or_insert_with(|| (activity.to_owned(), entry));
    }

    fn source_rows(&self, name: &str) -> Option<u64> {
        self.sources.get(name).copied()
    }

    fn record_source(&mut self, name: &str, rows: u64) {
        let slot = self.sources.entry(name.to_owned()).or_insert(rows);
        *slot = (*slot).max(rows);
    }
}

/// An exact `u64` field: row tallies span the full range, so a value the
/// codec could only hold rounded is an error, never a nearby number.
fn exact_u64(value: &Value, field: &str) -> std::result::Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("`{field}` is not an unsigned 64-bit integer"))
}

fn parse_entry(value: &Value) -> std::result::Result<(u128, &str, CalEntry), String> {
    let fields = value.as_obj().ok_or("calibration entry is not an object")?;
    let (mut key, mut activity) = (None, None);
    let mut entry = CalEntry::default();
    for (field, value) in fields {
        match field.as_str() {
            "key" => {
                let hex = value.as_str().ok_or("calibration key is not a string")?;
                key = Some(
                    u128::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad calibration key `{hex}`"))?,
                );
            }
            "activity" => activity = value.as_str(),
            "rows_in" => entry.rows_in = exact_u64(value, "rows_in")?,
            "rows_out" => entry.rows_out = exact_u64(value, "rows_out")?,
            other => return Err(format!("unknown entry field `{other}`")),
        }
    }
    match (key, activity) {
        (Some(k), Some(a)) => Ok((k, a, entry)),
        _ => Err("calibration entry missing `key` or `activity`".to_owned()),
    }
}

/// Execute `wf` on the executor's catalog and return a copy whose
/// cardinality-changing unary activities carry their *observed*
/// selectivities.
pub fn calibrate(wf: &Workflow, exec: &Executor) -> Result<Workflow> {
    let result = exec.run(wf)?;
    let mut out = wf.clone();
    for node in wf.activities().map_err(etlopt_engine::EngineError::Core)? {
        let act = wf
            .graph()
            .activity(node)
            .map_err(etlopt_engine::EngineError::Core)?;
        if !is_adjustable(&act.op) {
            continue;
        }
        if let Some(observed) = result.stats.observed_selectivity(&act.id.to_string()) {
            out.set_selectivity(node, observed.clamp(MIN_SELECTIVITY, 1.0))
                .map_err(etlopt_engine::EngineError::Core)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::cost::RowCountModel;
    use etlopt_core::opt::{HeuristicSearch, Optimizer};
    use etlopt_core::predicate::Predicate;
    use etlopt_core::scalar::Scalar;
    use etlopt_core::schema::Schema;
    use etlopt_core::semantics::UnaryOp;
    use etlopt_core::workflow::WorkflowBuilder;
    use etlopt_engine::{Catalog, Table};

    /// Two filters with *inverted* estimates: σa claims 0.1 but passes 90 %
    /// of rows; σb claims 0.9 but passes 10 %.
    fn misestimated() -> (Workflow, Executor) {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["v"]), 1000.0);
        let fa = b.unary(
            "σa",
            UnaryOp::filter(Predicate::ge("v", 10)).with_selectivity(0.1),
            s,
        );
        let fb = b.unary(
            "σb",
            UnaryOp::filter(Predicate::ge("v", 90)).with_selectivity(0.9),
            fa,
        );
        b.target("T", Schema::of(["v"]), fb);
        let wf = b.build().unwrap();

        let mut cat = Catalog::new();
        let rows: Vec<Vec<Scalar>> = (0..100i64).map(|i| vec![i.into()]).collect();
        cat.insert("S", Table::from_rows(Schema::of(["v"]), rows).unwrap());
        (wf, Executor::new(cat))
    }

    fn selectivity_of(wf: &Workflow, label: &str) -> f64 {
        let node = wf
            .activities()
            .unwrap()
            .into_iter()
            .find(|&a| wf.graph().activity(a).unwrap().label == label)
            .unwrap();
        wf.graph().activity(node).unwrap().selectivity()
    }

    #[test]
    fn a_failed_save_leaves_the_old_file_loadable() {
        let dir = std::env::temp_dir().join(format!("etlopt_cal_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let mut old = CalibrationStore::new();
        old.record(1, "1", CalEntry::new(10, 5));
        old.save(&path).unwrap();
        assert!(!dir.join("store.json.tmp").exists(), "renamed, not copied");

        // The write cannot even start: a directory sits where the
        // temporary file goes.
        std::fs::create_dir(dir.join("store.json.tmp")).unwrap();
        let mut new = old.clone();
        new.record(2, "2", CalEntry::new(20, 1));
        let err = new.save(&path).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(!err.is_malformed() && !err.is_not_found());
        assert_eq!(CalibrationStore::load(&path).unwrap(), old);

        // With the way clear the same save replaces the file whole.
        std::fs::remove_dir(dir.join("store.json.tmp")).unwrap();
        new.save(&path).unwrap();
        assert_eq!(CalibrationStore::load(&path).unwrap(), new);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn calibration_replaces_estimates_with_observations() {
        let (wf, exec) = misestimated();
        let calibrated = calibrate(&wf, &exec).unwrap();
        assert!((selectivity_of(&calibrated, "σa") - 0.9).abs() < 1e-9);
        // σb sees only rows ≥ 10 (90 of them), passes 10 → 1/9.
        assert!((selectivity_of(&calibrated, "σb") - 10.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_flips_the_optimizers_ordering() {
        let (wf, exec) = misestimated();
        let model = RowCountModel::default();
        // With the bogus estimates HS keeps σa first…
        let before = HeuristicSearch::new().run(&wf, &model).unwrap();
        let first = before.best.activities().unwrap()[0];
        assert_eq!(before.best.graph().activity(first).unwrap().label, "σa");
        // …after calibration, the truly selective σb moves to the front.
        let calibrated = calibrate(&wf, &exec).unwrap();
        let after = HeuristicSearch::new().run(&calibrated, &model).unwrap();
        let first = after.best.activities().unwrap()[0];
        assert_eq!(after.best.graph().activity(first).unwrap().label, "σb");
    }

    #[test]
    fn zero_pass_rate_clamps_to_floor() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["v"]), 10.0);
        let f = b.unary(
            "σ-none",
            UnaryOp::filter(Predicate::gt("v", 1_000_000)).with_selectivity(0.5),
            s,
        );
        b.target("T", Schema::of(["v"]), f);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert(
            "S",
            Table::from_rows(Schema::of(["v"]), vec![vec![1.into()], vec![2.into()]]).unwrap(),
        );
        let calibrated = calibrate(&wf, &Executor::new(cat)).unwrap();
        assert!((selectivity_of(&calibrated, "σ-none") - MIN_SELECTIVITY).abs() < 1e-12);
    }

    #[test]
    fn one_to_one_activities_are_untouched() {
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 10.0);
        let f = b.unary("f", UnaryOp::function("scale", ["v"], "v2"), s);
        b.target("T", Schema::of(["k", "v2"]), f);
        let wf = b.build().unwrap();
        let mut cat = Catalog::new();
        cat.insert(
            "S",
            Table::from_rows(Schema::of(["k", "v"]), vec![vec![1.into(), 2.0.into()]]).unwrap(),
        );
        let calibrated = calibrate(&wf, &Executor::new(cat)).unwrap();
        assert!((selectivity_of(&calibrated, "f") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibrated_workflow_stays_equivalent() {
        let (wf, exec) = misestimated();
        let calibrated = calibrate(&wf, &exec).unwrap();
        // Selectivities are metadata, not semantics.
        assert!(etlopt_core::postcond::equivalent(&wf, &calibrated).unwrap());
        assert!(etlopt_engine::equivalent_execution(&exec, &wf, &calibrated).unwrap());
    }
}
