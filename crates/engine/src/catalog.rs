//! The catalog: source tables and surrogate-key lookup tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use etlopt_core::scalar::Scalar;

use crate::table::Table;

/// One surrogate-key lookup table: canonical key rendering → surrogate.
pub(crate) type LookupTable = BTreeMap<String, Scalar>;

/// Maps source recordset names to tables and surrogate-key lookup names to
/// key→surrogate maps. Tables and lookup tables sit behind `Arc`s so the
/// streaming backend scans and probes them by handle instead of copying.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    lookups: BTreeMap<String, Arc<LookupTable>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a source table under a recordset name.
    pub fn insert(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Fetch a source table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// A shared handle to a source table (what a streaming scan holds).
    pub(crate) fn shared_table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    /// Register a surrogate-key lookup entry. Keys are stored under their
    /// canonical rendering so heterogeneous key types coexist.
    pub fn insert_lookup(&mut self, lookup: impl Into<String>, key: &Scalar, surrogate: Scalar) {
        Arc::make_mut(self.lookups.entry(lookup.into()).or_default())
            .insert(canonical_key(key), surrogate);
    }

    /// Resolve a surrogate for a key.
    pub fn lookup(&self, lookup: &str, key: &Scalar) -> Option<&Scalar> {
        self.lookups.get(lookup)?.get(&canonical_key(key))
    }

    /// A shared handle to a whole lookup table (a compiled `SK` kernel
    /// resolves the name once and probes the handle per row).
    pub(crate) fn lookup_table(&self, lookup: &str) -> Option<Arc<LookupTable>> {
        self.lookups.get(lookup).cloned()
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// Append the canonical string form of a key value (stable across runs)
/// to `out`. These bytes key the lookup tables and the materializing
/// reference's join / group / dedup maps and seed [`auto_surrogate`], so
/// they never change; `exec::keyed` encodes the same equivalence classes
/// without the string.
pub(crate) fn write_canonical_key(out: &mut String, key: &Scalar) {
    // Writing into a `String` cannot fail.
    let _ = match key {
        // Integral floats canonicalize to the integer form so Int(5) and
        // Float(5.0) hit the same lookup entry (they compare equal).
        Scalar::Float(f) if f.fract() == 0.0 && f.is_finite() => write!(out, "i:{}", *f as i64),
        Scalar::Int(i) => write!(out, "i:{i}"),
        other => write!(out, "{other:?}"),
    };
}

/// Canonical string form of a key value, stable across runs.
pub(crate) fn canonical_key(key: &Scalar) -> String {
    let mut out = String::new();
    write_canonical_key(&mut out, key);
    out
}

/// A deterministic surrogate derived from the key alone (FNV-1a 64). Used
/// when the executor runs with auto-assignment: being a pure function of
/// the key, it is stable under any re-ordering or cloning of the SK
/// activity — which is what makes equivalence checks exact.
pub fn auto_surrogate(key: &Scalar) -> Scalar {
    surrogate_of_canonical(&canonical_key(key))
}

/// [`auto_surrogate`] of a key whose canonical form is already rendered.
pub(crate) fn surrogate_of_canonical(s: &str) -> Scalar {
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    // Keep it positive and roomy.
    Scalar::Int((hash >> 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::schema::Schema;

    #[test]
    fn table_roundtrip() {
        let mut c = Catalog::new();
        c.insert("S", Table::empty(Schema::of(["a"])));
        assert!(c.table("S").is_some());
        assert!(c.table("T").is_none());
        assert_eq!(c.table_count(), 1);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut c = Catalog::new();
        c.insert_lookup("L", &Scalar::Int(5), Scalar::Int(1001));
        assert_eq!(c.lookup("L", &Scalar::Int(5)), Some(&Scalar::Int(1001)));
        assert_eq!(c.lookup("L", &Scalar::Int(6)), None);
        assert_eq!(c.lookup("M", &Scalar::Int(5)), None);
    }

    #[test]
    fn int_and_integral_float_keys_coincide() {
        let mut c = Catalog::new();
        c.insert_lookup("L", &Scalar::Int(5), Scalar::Int(1001));
        assert_eq!(c.lookup("L", &Scalar::Float(5.0)), Some(&Scalar::Int(1001)));
    }

    #[test]
    fn auto_surrogate_is_deterministic_and_distinguishes_keys() {
        let a = auto_surrogate(&Scalar::Int(1));
        let b = auto_surrogate(&Scalar::Int(1));
        let c = auto_surrogate(&Scalar::Int(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(auto_surrogate(&Scalar::Float(1.0)), a);
    }
}
