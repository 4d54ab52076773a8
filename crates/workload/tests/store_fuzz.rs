//! `CalibrationStore::from_json` and `StoreDir::load` under random stores
//! and byte damage, driven by `core::rng`. A store round-trips exactly
//! whatever its names hold (C0 controls, DEL, JSON metacharacters,
//! non-ASCII), through a string and through the tenant's file; a damaged
//! copy, as a string or as a file on disk, is a typed error or a store,
//! never a panic.

use etlopt_core::opt::adaptive::{CalEntry, Calibration};
use etlopt_core::rng::Rng;
use etlopt_workload::{CalibrationStore, StoreDir};

use std::path::PathBuf;

/// A unique scratch directory per test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("etlopt_store_fuzz_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A name of up to 12 characters: one in three a C0 control, the rest
/// drawn from ASCII, DEL, what JSON escapes, and 2-, 3- and 4-byte UTF-8.
fn name(rng: &mut Rng) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '{', '}', '\u{7f}', 'é', '€', 'σ', '\u{2028}',
        '\u{fffd}', '😀',
    ];
    (0..rng.gen_range(0..13usize))
        .map(|_| match rng.gen_range(0..3u32) {
            0 => char::from(rng.gen_range(0..32u32) as u8),
            _ => POOL[rng.gen_range(0..POOL.len())],
        })
        .collect()
}

/// A tally across the whole `u64` range: zero, the maximum, or any width.
fn tally(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64() >> rng.gen_range(0..64u32),
    }
}

fn random_store(rng: &mut Rng) -> CalibrationStore {
    let mut store = CalibrationStore::new();
    for _ in 0..rng.gen_range(0..10usize) {
        let key = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        let entry = CalEntry::new(tally(rng), tally(rng));
        store.record(key, &name(rng), entry);
    }
    for _ in 0..rng.gen_range(0..6usize) {
        let rows = tally(rng);
        store.record_source(&name(rng), rows);
    }
    store
}

/// Overwrite, truncate, or insert one of the bytes the JSON grammar gives
/// meaning to (and bytes that start multi-byte characters or are never
/// UTF-8), one to three times.
fn damage(rng: &mut Rng, bytes: &mut Vec<u8>) {
    const SALT: &[u8] = b"\"\\{}[],:0-9e.+nu \t\n\x00\xc3\xe2\xf0\xff";
    for _ in 0..rng.gen_range(1..4usize) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..3u32) {
            0 => bytes[at] = rng.next_u64() as u8,
            1 => bytes.truncate(at),
            _ => bytes.insert(at, SALT[rng.gen_range(0..SALT.len())]),
        }
    }
}

#[test]
fn random_stores_round_trip_exactly_through_a_string_and_a_file() {
    let scratch = Scratch::new("roundtrip");
    let dir = StoreDir::new(&scratch.0);
    let mut rng = Rng::seed_from_u64(0x5709_e000);
    let (mut controls, mut wide, mut sources) = (0, 0, 0);
    for i in 0..600u64 {
        let store = random_store(&mut rng);
        let text = store.to_json();
        assert_eq!(
            CalibrationStore::from_json(&text).as_ref(),
            Ok(&store),
            "{text}"
        );
        if i % 8 == 0 {
            let tenant = name(&mut rng);
            dir.save(&tenant, u128::from(i), &store).unwrap();
            assert_eq!(
                dir.load(&tenant, u128::from(i)).unwrap(),
                Some(store.clone())
            );
        }
        let names: Vec<&str> = store
            .entries()
            .map(|(_, id, _)| id)
            .chain(store.sources().map(|(n, _)| n))
            .collect();
        controls += names.iter().filter(|n| n.chars().any(|c| c < ' ')).count();
        wide += names.iter().filter(|n| !n.is_ascii()).count();
        sources += store.sources().count();
    }
    assert!(
        controls >= 500 && wide >= 500 && sources >= 500,
        "{controls} names with controls, {wide} non-ASCII, {sources} sources"
    );
}

#[test]
fn damaged_stores_are_a_typed_error_or_a_store_never_a_panic() {
    let scratch = Scratch::new("damage");
    let dir = StoreDir::new(&scratch.0);
    let path = dir.path_for("acme", 7);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut rng = Rng::seed_from_u64(0xda3a_6e00);
    let (mut parsed, mut refused, mut unreadable) = (0, 0, 0);
    for i in 0..3_000 {
        let mut bytes = random_store(&mut rng).to_json().into_bytes();
        damage(&mut rng, &mut bytes);
        match CalibrationStore::from_json(&String::from_utf8_lossy(&bytes)) {
            Ok(_) => parsed += 1,
            Err(detail) => {
                assert!(!detail.is_empty());
                refused += 1;
            }
        }
        if i % 4 != 0 {
            continue;
        }
        // On disk the bytes stay as damaged, invalid UTF-8 included.
        std::fs::write(&path, &bytes).unwrap();
        match dir.load("acme", 7) {
            Ok(store) => assert!(store.is_some(), "a file that exists is a store"),
            Err(e) if e.is_malformed() => {}
            Err(e) => {
                assert!(!e.is_not_found(), "{e}");
                unreadable += 1;
            }
        }
    }
    assert!(
        parsed >= 50 && refused >= 1_000 && unreadable >= 10,
        "{parsed} parsed, {refused} refused, {unreadable} not UTF-8 on disk"
    );
}
