//! Spill-correctness property test: under a frame budget far below the
//! intermediate volume, the streaming backend must stay **bit-identical**
//! to an effectively unbounded run — same target tables (schema, rows,
//! row order) and same `ExecStats` — while actually exercising the
//! eviction/spill/reload path. Driven by the in-repo seeded [`Rng`]
//! (offline build, no `proptest`); each case names its seed on failure.

use etlopt_core::predicate::Predicate;
use etlopt_core::rng::Rng;
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::Schema;
use etlopt_core::semantics::{Aggregation, BinaryOp, UnaryOp};
use etlopt_core::workflow::{Workflow, WorkflowBuilder};
use etlopt_engine::{Catalog, Executor, SharedCache, StreamConfig, Table};

const CASES: u64 = 48;

/// Tiny pool: two frames of eight rows — every materialization boundary
/// in these workflows overflows it.
const TINY: StreamConfig = StreamConfig {
    batch_rows: 8,
    frame_budget: 2,
    parallelism: 1,
    pipeline: true,
};

fn value(rng: &mut Rng) -> Scalar {
    match rng.gen_range(0..10u32) {
        0 => Scalar::Null,
        1..=4 => Scalar::Int(rng.gen_range(-50..50i64)),
        _ => Scalar::Float((rng.gen_range(-500.0..500.0f64) * 8.0).round() / 8.0),
    }
}

fn random_table(rng: &mut Rng, rows: usize) -> Table {
    random_table_as(rng, rows, ["k", "v"])
}

/// [`random_table`] under other column names.
fn random_table_as(rng: &mut Rng, rows: usize, names: [&str; 2]) -> Table {
    Table::from_rows(
        Schema::of(names),
        (0..rows)
            .map(|_| vec![Scalar::Int(rng.gen_range(0..12i64)), value(rng)])
            .collect(),
    )
    .expect("rows match schema")
}

/// A linear pipeline whose NN output fans out to a second target, so the
/// full (large) intermediate is drained through the pool.
fn fan_out_wf(cut: f64) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let nn = b.unary("NN", UnaryOp::not_null("v"), s);
    let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", cut)), nn);
    b.target("KEPT", Schema::of(["k", "v"]), f);
    b.target("RAW", Schema::of(["k", "v"]), nn);
    b.build().expect("workflow is well-formed")
}

/// Aggregation fed by a spilled fan-out boundary.
fn agg_wf(cut: f64) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let f = b.unary("σ", UnaryOp::filter(Predicate::le("v", cut)), s);
    let g = b.unary(
        "γ",
        UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
        f,
    );
    b.target("SUMS", Schema::of(["k", "v"]), g);
    b.target("KEPT", Schema::of(["k", "v"]), f);
    b.build().expect("workflow is well-formed")
}

/// Set algebra over two sources: difference and intersection both drain
/// their right side through the pool.
fn binary_wf(op: BinaryOp) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s1 = b.source("A", Schema::of(["k", "v"]), 200.0);
    let s2 = b.source("B", Schema::of(["k", "v"]), 200.0);
    let x = b.binary("⊖", op, s1, s2);
    b.target("OUT", Schema::of(["k", "v"]), x);
    b.build().expect("workflow is well-formed")
}

/// Keyed operators in the places the other workflows rarely put them,
/// over `A(k, v)`, `B(k, w)` and `C(k, v)`:
///
/// * `C → γc`: a keyed link first after a source.
/// * `NN` fans out to a target, a union's two sides and a join, so one
///   buffered set has four readers.
/// * `DD` is a keyed link first after a union and `γw` one first after a
///   join, grouping on a column the join did not match on.
fn reroute_wf(cut: f64) -> Workflow {
    let kv = || Schema::of(["k", "v"]);
    let mut b = WorkflowBuilder::new();
    let a = b.source("A", kv(), 200.0);
    let bw = b.source("B", Schema::of(["k", "w"]), 100.0);
    let c = b.source("C", kv(), 200.0);
    let gc = b.unary(
        "γc",
        UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
        c,
    );
    let nn = b.unary("NN", UnaryOp::not_null("v"), a);
    let hi = b.unary("HI", UnaryOp::filter(Predicate::gt("v", cut)), nn);
    let lo = b.unary("LO", UnaryOp::filter(Predicate::le("v", cut)), nn);
    let u = b.binary("∪", BinaryOp::Union, hi, lo);
    let dd = b.unary("DD", UnaryOp::Dedup { selectivity: 1.0 }, u);
    let j = b.binary("⋈", BinaryOp::Join(vec!["k".into()]), nn, bw);
    let gw = b.unary(
        "γw",
        UnaryOp::aggregate(Aggregation::sum(["w"], "v", "v")),
        j,
    );
    b.target("C_SUMS", kv(), gc);
    b.target("RAW", kv(), nn);
    b.target("DEDUP", kv(), dd);
    b.target("BY_W", Schema::of(["w", "v"]), gw);
    b.build().expect("workflow is well-formed")
}

/// Run `wf` on both backends with the tiny pool; demand bit-identical
/// results and return the streaming run's spilled-page count.
fn check(wf: &Workflow, catalog: Catalog, seed: u64) -> u64 {
    let exec = Executor::new(catalog).with_stream_config(TINY);
    let mat = exec.run_materialize(wf).expect("materialize executes");
    let run = exec.run_stream(wf).expect("stream executes");
    assert_eq!(mat.targets, run.result.targets, "seed {seed}: targets");
    assert_eq!(mat.stats, run.result.stats, "seed {seed}: stats");
    assert!(
        run.counters.peak_resident_frames <= TINY.frame_budget as u64,
        "seed {seed}: budget exceeded ({:?})",
        run.counters
    );
    run.counters.pages_spilled
}

#[test]
fn spilled_runs_stay_bit_identical() {
    let mut total_spilled = 0;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5117);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);

        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        total_spilled += check(&fan_out_wf(cut), cat, seed);

        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        total_spilled += check(&agg_wf(cut), cat, seed);

        let op = if seed % 2 == 0 {
            BinaryOp::Difference
        } else {
            BinaryOp::Intersection
        };
        let mut cat = Catalog::new();
        cat.insert("A", random_table(&mut rng, rows));
        cat.insert("B", random_table(&mut rng, rows / 2));
        total_spilled += check(&binary_wf(op), cat, seed);
    }
    // The corpus as a whole must have really gone through the spill path.
    assert!(total_spilled > 0, "tiny budget never spilled");
}

/// The keyed-operator placements of [`reroute_wf`] under the two-frame
/// pool: targets and `ExecStats` equal the materializing reference.
#[test]
fn keyed_operators_anywhere_stay_bit_identical() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9a17);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);
        let mut cat = Catalog::new();
        cat.insert("A", random_table(&mut rng, rows));
        cat.insert("B", random_table_as(&mut rng, rows / 4, ["k", "w"]));
        cat.insert("C", random_table(&mut rng, rows));
        check(&reroute_wf(cut), cat, seed);
    }
}

/// A butterfly: one source fans out into two filter branches that later
/// re-converge through a union into an aggregate, with one branch also
/// drained to its own target.
fn butterfly_wf(cut: f64) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let nn = b.unary("NN", UnaryOp::not_null("v"), s);
    let hi = b.unary("HI", UnaryOp::filter(Predicate::gt("v", cut)), nn);
    let lo = b.unary("LO", UnaryOp::filter(Predicate::le("v", cut)), nn);
    let u = b.binary("∪", BinaryOp::Union, hi, lo);
    let g = b.unary(
        "γ",
        UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
        u,
    );
    b.target("SUMS", Schema::of(["k", "v"]), g);
    b.target("HIGH", Schema::of(["k", "v"]), hi);
    b.build().expect("workflow is well-formed")
}

/// Every path a row can take through the pool, in one workflow over
/// three sources:
///
/// * `S` is read under its stored layout with a σ first: the source scan
///   fuses the filter and runs it on borrowed rows. Its NN output has two
///   consumers, so it is drained into a buffer and read back twice.
/// * `HI → DD → σ2` is a single-consumer chain through a dedup, and the
///   union and the difference both sit behind it.
/// * `P` is stored as `(v, k)` and declared `(k, v)`: the scan permutes,
///   so its σ stays above the scan, unfused.
/// * `K` feeds a PK check directly.
/// * The join's build side (`PK → w`) is drained into a buffer and read
///   back by row position.
fn grid_wf(cut: f64) -> Workflow {
    let kv = || Schema::of(["k", "v"]);
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", kv(), 200.0);
    let p = b.source("P", kv(), 200.0);
    let k = b.source("K", kv(), 60.0);
    let f = b.unary("σ1", UnaryOp::filter(Predicate::gt("v", cut - 300.0)), s);
    let nn = b.unary("NN", UnaryOp::not_null("v"), f);
    let hi = b.unary("HI", UnaryOp::filter(Predicate::gt("v", cut)), nn);
    let lo = b.unary("LO", UnaryOp::filter(Predicate::le("v", cut)), nn);
    let dd = b.unary("DD", UnaryOp::Dedup { selectivity: 1.0 }, hi);
    let f2 = b.unary("σ2", UnaryOp::filter(Predicate::gt("k", 1)), dd);
    let u = b.binary("∪", BinaryOp::Union, f2, lo);
    let pf = b.unary("σp", UnaryOp::filter(Predicate::le("v", cut + 200.0)), p);
    let x = b.binary("∖", BinaryOp::Difference, u, pf);
    let pk = b.unary(
        "PK",
        UnaryOp::PkCheck {
            key: vec!["k".into()],
            selectivity: 1.0,
        },
        k,
    );
    let w = b.unary("w", UnaryOp::function("scale", ["v"], "w"), pk);
    let j = b.binary("⋈", BinaryOp::Join(vec!["k".into()]), x, w);
    let g = b.unary(
        "γ",
        UnaryOp::aggregate(Aggregation::sum(["k"], "w", "w")),
        j,
    );
    b.target("JOINED", Schema::of(["k", "v", "w"]), j);
    b.target("SUMS", Schema::of(["k", "w"]), g);
    b.target("LOW", kv(), lo);
    b.build().expect("workflow is well-formed")
}

/// Those paths at frame budget 2 / 8 / 256 (everything spills / some of
/// it / nothing). Targets, row order and `ExecStats` must equal the
/// materializing reference at every budget, and a cached rerun at the
/// same budget must serve the same targets.
#[test]
fn every_pool_path_is_bit_identical_at_every_budget() {
    let mut spilled = 0;
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x6a1d);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-200.0..200.0f64);
        let wf = grid_wf(cut);
        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        let stored = random_table(&mut rng, rows / 2);
        cat.insert(
            "P",
            stored
                .reordered(&Schema::of(["v", "k"]))
                .expect("permuted layout"),
        );
        cat.insert("K", random_table(&mut rng, 60));
        let mat = Executor::new(cat.clone())
            .run_materialize(&wf)
            .expect("materialize executes");
        assert!(
            !mat.targets["JOINED"].is_empty(),
            "seed {seed}: vacuous join"
        );
        assert!(
            !mat.targets["LOW"].is_empty(),
            "seed {seed}: vacuous fan-out"
        );
        for frame_budget in [2usize, 8, 256] {
            let cfg = StreamConfig {
                frame_budget,
                ..TINY
            };
            let cell = format!("seed {seed}, {cfg:?}");
            let exec = Executor::new(cat.clone()).with_stream_config(cfg);
            let run = exec.run_stream(&wf).expect("stream executes");
            assert_eq!(mat.targets, run.result.targets, "{cell}: targets");
            assert_eq!(mat.stats, run.result.stats, "{cell}: stats");
            spilled += run.counters.pages_spilled;

            let mut cache = SharedCache::new();
            let first = exec
                .run_stream_cached(&wf, &mut cache)
                .expect("cached run executes");
            assert_eq!(mat.targets, first.result.targets, "{cell}: cached");
            assert_eq!(mat.stats, first.result.stats, "{cell}: cached stats");
            assert!(first.counters.cache_insertions > 0, "{cell}");
            let again = exec
                .run_stream_cached(&wf, &mut cache)
                .expect("cached rerun executes");
            assert_eq!(mat.targets, again.result.targets, "{cell}: rerun");
            assert!(again.counters.cache_hits > 0, "{cell}");
        }
    }
    assert!(spilled > 0, "the 2-frame cells never spilled");
}

/// Butterfly workflow (a shared NN output feeding independent HI and
/// LO branches, re-joined by a union) under the two-frame pool.
#[test]
fn butterfly_branches_stay_bit_identical() {
    for seed in 0..CASES / 4 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xb077);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);
        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        check(&butterfly_wf(cut), cat, seed);
    }
}

#[test]
fn empty_sources_never_spill_and_still_match() {
    for (wf, names) in [
        (fan_out_wf(0.0), &["S", ""][..]),
        (binary_wf(BinaryOp::Difference), &["A", "B"][..]),
    ] {
        let mut cat = Catalog::new();
        for name in names.iter().filter(|n| !n.is_empty()) {
            cat.insert(*name, Table::empty(Schema::of(["k", "v"])));
        }
        let spilled = check(&wf, cat, u64::MAX);
        assert_eq!(spilled, 0);
    }
}
