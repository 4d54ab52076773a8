//! Keyed operators, written once: keep-first (`PK`, `DD`), group-by (`γ`),
//! the join index (`⋈`) and bag multiplicities (`−`, `∩`), plus the
//! rows' routing hash — all over one typed key encoding.
//!
//! A key is the concatenation of its cells, each a tag byte and a
//! fixed-width little-endian payload (`Str`: a `u64` length, then the
//! bytes), so cells are self-delimiting and a tuple needs no separator.
//! Two keys are byte-equal exactly when the reference's `ops::tuple_key`
//! strings are: an integral finite `Float` is encoded as the `Int` it
//! saturates to (`5.0` ≡ `5`, `-0.0` ≡ `0`, `1e300` ≡ `i64::MAX`), every
//! NaN is one key, NULL is a key like any other.
//!
//! A [`KeyTable`] writes keys into a scratch buffer it reuses and interns
//! them into one arena, so a row costs no allocation; its slots are in
//! first-appearance order, the order `γ` emits its groups in. Every
//! executor runs these state machines the way it runs [`super::kernel`];
//! the materializing `ops::*` keep their string keys and their own
//! aggregate, and are what this module is tested against.

use std::cmp::Ordering;

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{AggFunc, Aggregation};

use crate::error::{EngineError, Result};
use crate::table::Row;

use super::kernel::{cols_of, Carrier};

fn encode_cell(out: &mut Vec<u8>, v: &Scalar) {
    let mut int = |i: i64| {
        out.push(1);
        out.extend_from_slice(&i.to_le_bytes());
    };
    match v {
        Scalar::Null => out.push(0),
        Scalar::Int(i) => int(*i),
        // The reference's condition and its saturating cast.
        Scalar::Float(f) if f.fract() == 0.0 && f.is_finite() => int(*f as i64),
        Scalar::Float(f) => {
            let bits = if f.is_nan() { f64::NAN } else { *f }.to_bits();
            out.push(2);
            out.extend_from_slice(&bits.to_le_bytes());
        }
        Scalar::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Scalar::Bool(b) => out.extend_from_slice(&[4, u8::from(*b)]),
        Scalar::Date(d) => {
            out.push(5);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Overwrite `out` with the key of `row`: the listed columns, or (`None`)
/// the whole row.
fn encode(out: &mut Vec<u8>, row: &[Scalar], cols: Option<&[usize]>) {
    out.clear();
    match cols {
        Some(cols) => cols.iter().for_each(|&c| encode_cell(out, &row[c])),
        None => row.iter().for_each(|v| encode_cell(out, v)),
    }
}

/// The one hash of encoded keys: a multiply-rotate fold over 8-byte words
/// and a murmur3 finalizer. A pure function of the bytes — it routes rows
/// across partitions, so it must agree between runs, processes and thread
/// counts (`HashMap`'s `RandomState` does not). Not collision-resistant:
/// a [`KeyTable`] compares key bytes, so a collision costs a probe.
fn hash_key(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Destination partition of `row` keyed on `cols`; `scratch` is the
/// caller's reused key buffer.
pub(crate) fn route(scratch: &mut Vec<u8>, row: &[Scalar], cols: &[usize], nparts: usize) -> usize {
    encode(scratch, row, Some(cols));
    (hash_key(scratch) % nparts as u64) as usize
}

/// Key → payload, one slot per distinct key in first-appearance order.
#[derive(Clone)]
struct KeyTable<V> {
    /// The key being looked up.
    scratch: Vec<u8>,
    /// Every interned key's bytes, back to back.
    arena: Vec<u8>,
    /// Per slot: its key's hash, where its bytes end in `arena`, its payload.
    slots: Vec<(u64, usize, V)>,
    /// Open-addressed, a power of two long and at most half full:
    /// slot + 1, or 0 for an empty bucket.
    index: Vec<usize>,
}

impl<V: Default> KeyTable<V> {
    fn new() -> Self {
        KeyTable {
            scratch: Vec::new(),
            arena: Vec::new(),
            slots: Vec::new(),
            index: vec![0; 16],
        }
    }

    /// The first bucket of a hash. Routing took the hash modulo the
    /// partition count, so one partition's keys agree on its low bits;
    /// the index reads the high half.
    fn bucket(&self, hash: u64) -> usize {
        hash.rotate_left(32) as usize & (self.index.len() - 1)
    }

    /// The slot of the key in `scratch`, or the empty bucket it belongs in.
    fn find(&self, hash: u64) -> std::result::Result<usize, usize> {
        let mut i = self.bucket(hash);
        while let Some(slot) = self.index[i].checked_sub(1) {
            let (h, end, _) = self.slots[slot];
            let start = slot.checked_sub(1).map_or(0, |prev| self.slots[prev].1);
            if h == hash && self.arena[start..end] == self.scratch[..] {
                return Ok(slot);
            }
            i = (i + 1) & (self.index.len() - 1);
        }
        Err(i)
    }

    /// The payload of `row`'s key, if a row with that key was entered.
    fn get(&mut self, row: &[Scalar], cols: Option<&[usize]>) -> Option<&mut V> {
        encode(&mut self.scratch, row, cols);
        let slot = self.find(hash_key(&self.scratch)).ok()?;
        Some(&mut self.slots[slot].2)
    }

    /// The slot of `row`'s key, its payload, and whether this row opened it.
    fn entry(&mut self, row: &[Scalar], cols: Option<&[usize]>) -> (usize, &mut V, bool) {
        encode(&mut self.scratch, row, cols);
        let hash = hash_key(&self.scratch);
        let (slot, new) = match self.find(hash) {
            Ok(slot) => (slot, false),
            Err(bucket) => {
                self.arena.extend_from_slice(&self.scratch);
                self.slots.push((hash, self.arena.len(), V::default()));
                self.index[bucket] = self.slots.len();
                if self.slots.len() * 2 > self.index.len() {
                    self.grow();
                }
                (self.slots.len() - 1, true)
            }
        };
        (slot, &mut self.slots[slot].2, new)
    }

    /// The payloads, in slot order.
    fn into_values(self) -> impl Iterator<Item = V> {
        self.slots.into_iter().map(|(_, _, value)| value)
    }

    fn grow(&mut self) {
        self.index = vec![0; self.index.len() * 2];
        for (slot, &(hash, ..)) in self.slots.iter().enumerate() {
            let mut i = self.bucket(hash);
            while self.index[i] != 0 {
                i = (i + 1) & (self.index.len() - 1);
            }
            self.index[i] = slot + 1;
        }
    }
}

/// Keep-first filtering across batches: `PK` (key columns) and `DD`
/// (`None`: whole rows).
pub(crate) struct KeepFirst {
    seen: KeyTable<()>,
    cols: Option<Vec<usize>>,
}

impl KeepFirst {
    pub(crate) fn new(cols: Option<Vec<usize>>) -> Self {
        let seen = KeyTable::new();
        KeepFirst { seen, cols }
    }

    /// Drop every row whose key an earlier row carried.
    pub(crate) fn retain<T: Carrier>(&mut self, batch: &mut Vec<T>) {
        batch.retain(|t| self.seen.entry(t.row(), self.cols.as_deref()).2);
    }
}

/// One aggregate column's accumulator. NULL inputs are skipped; a group
/// that saw none yields NULL (`COUNT`: 0).
#[derive(Clone)]
enum Acc {
    Sum(f64, u64),
    Avg(f64, u64),
    Count(u64),
    /// The extreme so far, and how a value that replaces it compares to it.
    Extreme(Option<Scalar>, Ordering),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Sum => Acc::Sum(0.0, 0),
            AggFunc::Avg => Acc::Avg(0.0, 0),
            AggFunc::Count => Acc::Count(0),
            AggFunc::Min => Acc::Extreme(None, Ordering::Less),
            AggFunc::Max => Acc::Extreme(None, Ordering::Greater),
        }
    }

    fn feed(&mut self, v: &Scalar) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Acc::Sum(sum, n) | Acc::Avg(sum, n) => {
                *sum += v.as_f64().ok_or_else(|| {
                    EngineError::Type(format!("cannot aggregate non-numeric value {v}"))
                })?;
                *n += 1;
            }
            Acc::Count(n) => *n += 1,
            Acc::Extreme(cur, wins) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c) == *wins) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Scalar {
        match self {
            Acc::Sum(_, 0) | Acc::Avg(_, 0) => Scalar::Null,
            Acc::Sum(sum, _) => Scalar::Float(sum),
            Acc::Avg(sum, n) => Scalar::Float(sum / n as f64),
            Acc::Count(n) => Scalar::Int(n as i64),
            Acc::Extreme(cur, _) => cur.unwrap_or(Scalar::Null),
        }
    }
}

/// `γ(group_by; aggregates)` across batches: one slot per group, emitted
/// in first-appearance order as groupers then aggregate outputs.
#[derive(Clone)]
pub(crate) struct GroupBy {
    /// Per group: the grouper cells of the row that opened it.
    groups: KeyTable<Row>,
    /// Per group, in slot order: one accumulator per aggregate.
    accs: Vec<Acc>,
    group_cols: Vec<usize>,
    agg_cols: Vec<usize>,
    funcs: Vec<AggFunc>,
    schema: Schema,
}

impl GroupBy {
    /// Resolves the grouping, then the aggregate columns against the input
    /// schema — the reference's order, so a missing attribute is the same
    /// error.
    pub(crate) fn new(agg: &Aggregation, input: &Schema) -> Result<Self> {
        let inputs = agg.aggregates.iter().map(|s| &s.input);
        let outputs = agg.aggregates.iter().map(|s| &s.output);
        Ok(GroupBy {
            groups: KeyTable::new(),
            accs: Vec::new(),
            group_cols: cols_of(&agg.group_by, input)?,
            agg_cols: cols_of(inputs, input)?,
            funcs: agg.aggregates.iter().map(|s| s.func).collect(),
            schema: agg.group_by.iter().chain(outputs).cloned().collect(),
        })
    }

    pub(crate) fn output_schema(&self) -> &Schema {
        &self.schema
    }

    /// Fold one row into its group; `true` when the row opened the group.
    pub(crate) fn feed_row(&mut self, row: &[Scalar]) -> Result<bool> {
        let (slot, cells, new) = self.groups.entry(row, Some(&self.group_cols));
        let n = self.funcs.len();
        if new {
            cells.reserve_exact(self.group_cols.len() + n);
            cells.extend(self.group_cols.iter().map(|&c| row[c].clone()));
            self.accs.extend(self.funcs.iter().map(|&f| Acc::new(f)));
        }
        for (acc, &col) in self.accs[slot * n..][..n].iter_mut().zip(&self.agg_cols) {
            acc.feed(&row[col])?;
        }
        Ok(new)
    }

    /// Drain the groups into output rows, leaving the state empty.
    pub(crate) fn finish(&mut self) -> Vec<Row> {
        let groups = std::mem::replace(&mut self.groups, KeyTable::new());
        let (n, mut accs) = (self.funcs.len(), std::mem::take(&mut self.accs).into_iter());
        let finish = |mut row: Row| {
            row.extend(accs.by_ref().take(n).map(Acc::finish));
            row
        };
        groups.into_values().map(finish).collect()
    }
}

/// The join index: build rows by key, probed in build order. A NULL in a
/// key column never joins — such rows are neither indexed nor matched.
#[derive(Clone)]
pub(crate) struct BuildProbe<T> {
    /// Per key: what the caller recorded for each build row, in order.
    hits: KeyTable<Vec<T>>,
    build_cols: Vec<usize>,
    probe_cols: Vec<usize>,
}

impl<T> BuildProbe<T> {
    /// The empty index of `left ⋈ right` on `on` (build right, probe
    /// left), and the right columns a joined row appends to its left row:
    /// those `left` lacks.
    pub(crate) fn plan(on: &[Attr], left: &Schema, right: &Schema) -> Result<(Self, Vec<usize>)> {
        let index = BuildProbe {
            probe_cols: cols_of(on, left)?,
            build_cols: cols_of(on, right)?,
            hits: KeyTable::new(),
        };
        let extra = (0..right.len()).filter(|&c| !left.contains(&right.attrs()[c]));
        Ok((index, extra.collect()))
    }

    /// Index one build-side row as `at`.
    pub(crate) fn insert(&mut self, row: &Row, at: T) {
        if !self.build_cols.iter().any(|&c| row[c].is_null()) {
            self.hits.entry(row, Some(&self.build_cols)).1.push(at);
        }
    }

    /// The build rows one probe-side row joins.
    pub(crate) fn probe(&mut self, row: &Row) -> &[T] {
        if self.probe_cols.iter().any(|&c| row[c].is_null()) {
            return &[];
        }
        match self.hits.get(row, Some(&self.probe_cols)) {
            Some(hits) => hits,
            None => &[],
        }
    }
}

/// Whole-row multiplicities of the right side of a bag difference or
/// intersection; each left row cancels against one right occurrence.
pub(crate) struct BagCounts {
    counts: KeyTable<usize>,
    /// Right columns in left order, when the layouts differ.
    right_cols: Option<Vec<usize>>,
}

impl BagCounts {
    pub(crate) fn new(right_cols: Option<Vec<usize>>) -> Self {
        let counts = KeyTable::new();
        BagCounts { counts, right_cols }
    }

    /// Count one right-side row.
    pub(crate) fn add(&mut self, row: &[Scalar]) {
        *self.counts.entry(row, self.right_cols.as_deref()).1 += 1;
    }

    /// Does a right occurrence remain for this left row? Uses it up:
    /// `∩` keeps the rows this holds for, `−` the others.
    pub(crate) fn cancel(&mut self, row: &Row) -> bool {
        match self.counts.get(row, None) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::canonical_key;
    use etlopt_core::rng::Rng;

    /// `ops::tuple_key`'s string (its bytes are pinned in `ops::tests`).
    fn string_key(row: &[Scalar]) -> String {
        row.iter()
            .map(|v| canonical_key(v) + "\u{1f}")
            .collect::<String>()
    }

    fn typed_key(row: &[Scalar]) -> Vec<u8> {
        let mut out = vec![0xAA]; // stale bytes: `encode` must overwrite
        encode(&mut out, row, None);
        out
    }

    fn any_scalar(rng: &mut Rng) -> Scalar {
        let ints = [0, 1, -1, 5, 255, 256, i64::MAX, i64::MIN, i64::MAX - 1];
        let floats = [
            0.0,
            -0.0,
            1.0,
            5.0,
            -1.0,
            2.5,
            -2.5,
            256.0,
            1e300,
            -1e300,
            9.3e18,
            i64::MAX as f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ff0_0000_dead_beef),
        ];
        let strs = [
            "", "a", "ab", "b", "c", "bc", "a\u{1f}b", "\u{1}", "i:5", "Null",
        ];
        match rng.gen_range(0..7u32) {
            0 => Scalar::Null,
            1 => Scalar::Int(ints[rng.gen_range(0..ints.len())]),
            2 => Scalar::Int(rng.gen_range(-3..4i64)),
            3 => Scalar::Float(floats[rng.gen_range(0..floats.len())]),
            4 => Scalar::from(strs[rng.gen_range(0..strs.len())]),
            5 => Scalar::Bool(rng.gen_bool(0.5)),
            _ => Scalar::Date(rng.gen_range(-2..3i64) as i32),
        }
    }

    /// Typed keys are byte-equal exactly when the reference's string keys
    /// are. Mutations, each failing here: encoding an integral `Float`
    /// under the float tag; taking a NaN's `to_bits` as is; dropping the
    /// `Str` length prefix.
    #[test]
    fn typed_keys_have_the_string_keys_equivalence_classes() {
        let pinned = [
            Scalar::Null,
            Scalar::Int(5),
            Scalar::Int(-7),
            Scalar::Float(5.0),
            Scalar::Float(-0.0),
            Scalar::Float(2.5),
            Scalar::Float(f64::NAN),
            Scalar::Float(f64::INFINITY),
            Scalar::Float(1e300),
            Scalar::Str("a\u{1f}b".into()),
            Scalar::Str(String::new()),
            Scalar::Bool(true),
            Scalar::Date(-3),
        ];
        for a in &pinned {
            for b in &pinned {
                let (a, b) = (std::slice::from_ref(a), std::slice::from_ref(b));
                assert_eq!(
                    typed_key(a) == typed_key(b),
                    string_key(a) == string_key(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
        assert_eq!(typed_key(&[5.0.into()]), typed_key(&[5.into()]));
        assert_eq!(typed_key(&[(-0.0).into()]), typed_key(&[0.into()]));
        assert_eq!(typed_key(&[1e300.into()]), typed_key(&[i64::MAX.into()]));

        let (ab_c, a_bc) = (["ab".into(), "c".into()], ["a".into(), "bc".into()]);
        assert_ne!(typed_key(&ab_c), typed_key(&a_bc));
        assert_ne!(string_key(&ab_c), string_key(&a_bc));

        let mut rng = Rng::seed_from_u64(0xC0DE);
        let (mut equal, mut distinct) = (0, 0);
        for case in 0..10_000 {
            let arity = rng.gen_range(1..4usize);
            let a: Row = (0..arity).map(|_| any_scalar(&mut rng)).collect();
            // Half the pairs differ in one cell only, so equal pairs occur.
            let mut b = a.clone();
            if rng.gen_bool(0.5) {
                b = (0..arity).map(|_| any_scalar(&mut rng)).collect();
            } else {
                let at = rng.gen_range(0..arity);
                b[at] = any_scalar(&mut rng);
            }
            let same = string_key(&a) == string_key(&b);
            assert_eq!(
                typed_key(&a) == typed_key(&b),
                same,
                "case {case}: {a:?} vs {b:?}"
            );
            if same {
                equal += 1;
            } else {
                distinct += 1;
            }
        }
        assert!(
            equal > 200 && distinct > 5000,
            "{equal} equal, {distinct} distinct"
        );
    }

    /// The routing hash is a pure function of the key bytes: these values
    /// hold in every process and at every thread count. Mutation: seeding
    /// the fold with 0 instead of the length fails the pinned values.
    #[test]
    fn routing_hash_is_pinned() {
        let rows: [Row; 3] = [
            vec![Scalar::Int(5)],
            vec![Scalar::Null, "ab".into()],
            vec![Scalar::Float(2.5), Scalar::Bool(true), Scalar::Date(-3)],
        ];
        let hashes = rows.map(|row| hash_key(&typed_key(&row)));
        assert_eq!(
            hashes,
            [
                2_637_118_623_506_013_874,
                7_491_614_102_590_587_503,
                310_252_298_448_429_917
            ]
        );
        assert_eq!(hash_key(&[]), 0);
        let mut key = Vec::new();
        let routed: Vec<usize> = (0..64)
            .map(|i| route(&mut key, &[Scalar::Int(i), Scalar::Null], &[0], 4))
            .collect();
        let per_part = |p| routed.iter().filter(|&&d| d == p).count();
        assert!((0..4).all(|p| per_part(p) >= 8), "{routed:?}");
        // `Float(5.0)` routes with `Int(5)`.
        assert_eq!(route(&mut key, &[Scalar::Float(5.0)], &[0], 4), routed[5]);
    }

    /// A table's slots are dense, first-appearance ordered and survive
    /// growth, and a slot is matched on its key bytes, not its hash alone.
    /// Mutation: dropping the byte comparison from `find` fails the last
    /// assertion (nothing else can — no test input collides in 64 bits).
    #[test]
    fn key_table_slots_are_in_first_appearance_order() {
        let mut table: KeyTable<usize> = KeyTable::new();
        let row = |i: usize| {
            let k = (i % 1000) as i64;
            vec![Scalar::Int(k), Scalar::from(format!("k{k}"))]
        };
        for i in 0..3000 {
            let (slot, seen, new) = table.entry(&row(i), None);
            *seen += 1;
            assert_eq!(
                (slot, *seen, new),
                (i % 1000, i / 1000 + 1, i < 1000),
                "row {i}"
            );
        }
        assert_eq!(table.get(&row(7), None), Some(&mut 3));
        assert_eq!(table.get(&[Scalar::Int(7)], None), None);
        assert!(table.index.len() >= 2 * table.slots.len());
        let ends: Vec<usize> = table.slots.iter().map(|s| s.1).collect();
        assert!(ends.windows(2).all(|w| w[0] < w[1]) && ends.len() == 1000);

        // Forge a collision: slot 0 holds key 1 but claims key 2's hash.
        let mut forged: KeyTable<usize> = KeyTable::new();
        forged.entry(&[Scalar::Int(1)], None);
        forged.slots[0].0 = hash_key(&typed_key(&[Scalar::Int(2)]));
        forged.index.fill(0);
        let bucket = forged.bucket(forged.slots[0].0);
        forged.index[bucket] = 1;
        assert_eq!(forged.get(&[Scalar::Int(2)], None), None);
    }

    /// Mutation: taking a group's grouper cells from its latest row
    /// instead of the row that opened it fails the first `finish`.
    #[test]
    fn group_by_drains_and_resets() {
        let agg = Aggregation::sum(["k"], "v", "v");
        let mut g = GroupBy::new(&agg, &Schema::of(["k", "v"])).unwrap();
        assert!(g.feed_row(&[2.into(), 1.5.into()]).unwrap());
        assert!(g.feed_row(&[1.into(), Scalar::Null]).unwrap());
        assert!(!g.feed_row(&[2.0.into(), 2.into()]).unwrap());
        assert_eq!(
            g.finish(),
            vec![vec![2.into(), 3.5.into()], vec![1.into(), Scalar::Null]]
        );
        assert!(g.finish().is_empty());
        assert!(g.feed_row(&[2.into(), 1.into()]).unwrap());
    }
}
