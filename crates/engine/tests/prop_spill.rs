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

/// The re-routes the other workflows rarely plan, over `A(k, v)`,
/// `B(k, w)` and `C(k, v)`:
///
/// * `C → γc`: a keyed link first after a source — a zero-link segment
///   routes the scanned rows.
/// * `NN` fans out to a target, a union's two sides and a join; the join
///   re-routes it, so one reader of a shared set routes.
/// * `DD` is a keyed link first after a union and `γw` one first after a
///   join (whose scheme is `k`, not `w`).
/// * The join's two sides both re-route (neither is keyed); the − / ∩ of
///   [`binary_wf`] covers the same for whole-row co-location.
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

/// Parallel variant of [`check`]: the pipelined partition-parallel
/// stream at `threads` workers must reproduce the 1-thread stream
/// bit-for-bit (targets *and* stats) under the same tiny pool. Returns
/// the parallel run's (spilled, staged) page counts so the corpus can
/// prove the shared pool really spilled and the pipeline really staged
/// inter-segment sets through it.
fn check_parallel(wf: &Workflow, catalog: Catalog, seed: u64, threads: usize) -> (u64, u64) {
    let base = Executor::new(catalog.clone())
        .with_stream_config(TINY)
        .run_stream(wf)
        .expect("1-thread stream executes");
    let cfg = StreamConfig {
        parallelism: threads,
        ..TINY
    };
    let par = Executor::new(catalog)
        .with_stream_config(cfg)
        .run_stream(wf)
        .expect("parallel stream executes");
    assert_eq!(
        base.result.targets, par.result.targets,
        "seed {seed}: targets at {threads} threads"
    );
    assert_eq!(
        base.result.stats, par.result.stats,
        "seed {seed}: stats at {threads} threads"
    );
    (par.counters.pages_spilled, par.counters.pages_staged)
}

/// The pipelined partition-parallel stream under the two-frame pool:
/// every case runs at 2 and 4 workers; targets and `ExecStats` must be
/// bit-identical to the 1-thread stream across the whole grid, and the
/// corpus as a whole must exercise both the parallel spill path and
/// inter-segment staging. The aggregation and dedup-free fan-out
/// workflows cover both re-routing (group-by) and re-route-free
/// (row-wise) plans; [`reroute_wf`] stages through a routed sink in every
/// run.
#[test]
fn parallel_spilled_runs_stay_bit_identical() {
    let mut total_spilled = 0;
    let mut total_staged = 0;
    let mut tally = |(spilled, staged): (u64, u64)| {
        total_spilled += spilled;
        total_staged += staged;
    };
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9a17);
        let drawn = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);
        for threads in [2usize, 4] {
            // Seeds 0, 1 and 2 put every source one row below, at and one
            // row above the size at which a scan fans out: a full batch
            // for every partition.
            let full = threads * TINY.batch_rows;
            let rows = if seed < 3 {
                full + seed as usize - 1
            } else {
                drawn
            };
            let mut cat = Catalog::new();
            cat.insert("S", random_table(&mut rng, rows));
            tally(check_parallel(&fan_out_wf(cut), cat, seed, threads));

            let mut cat = Catalog::new();
            cat.insert("S", random_table(&mut rng, rows));
            tally(check_parallel(&agg_wf(cut), cat, seed, threads));

            let op = if seed % 2 == 0 {
                BinaryOp::Difference
            } else {
                BinaryOp::Intersection
            };
            let mut cat = Catalog::new();
            cat.insert("A", random_table(&mut rng, rows));
            cat.insert("B", random_table(&mut rng, rows / 2));
            tally(check_parallel(&binary_wf(op), cat, seed, threads));

            let mut cat = Catalog::new();
            cat.insert("A", random_table(&mut rng, rows));
            cat.insert("B", random_table_as(&mut rng, rows / 4, ["k", "w"]));
            cat.insert("C", random_table(&mut rng, rows));
            let (spilled, staged) = check_parallel(&reroute_wf(cut), cat, seed, threads);
            assert!(staged > 0, "seed {seed}: re-routes staged nothing");
            tally((spilled, staged));
        }
    }
    assert!(total_spilled > 0, "tiny shared pool never spilled");
    assert!(total_staged > 0, "pipeline never staged pages");
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

/// Every path a staged row can take through the partitioned executor, in
/// one workflow over three sources:
///
/// * `S` is read under its stored layout with a σ first: the source scan
///   fuses the filter and runs it on borrowed rows. Its NN output has two
///   consumers (`fanout == 2`), so those staged pages are read shared.
/// * `HI → DD → σ2` is a `fanout == 1` chain cut before the dedup (which
///   needs whole rows co-located): `HI`'s sink routes, and its staged
///   pages are taken. The union and the difference both sit behind that
///   cut.
/// * `P` is stored as `(v, k)` and declared `(k, v)`: the scan permutes,
///   so its σ stays above the scan, unfused.
/// * `K` feeds a PK check directly: a zero-link segment scans it and
///   routes each row where `keyed::route` sends it.
/// * The join's build side (`PK`) is read back by row position and so is
///   never taken; its probe side is.
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

/// The determinism grid over those paths: 1 / 2 / 4 threads × frame
/// budget 2 / 8 / 256 (everything spills / some of it / nothing).
/// Targets, row order and `ExecStats` must equal the materializing
/// reference and the 1-thread stream in every cell, and a cached rerun
/// in the same cell must serve the same targets.
#[test]
fn every_staging_path_is_bit_identical_across_the_grid() {
    let mut staged = 0;
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
            for parallelism in [1usize, 2, 4] {
                let cfg = StreamConfig {
                    frame_budget,
                    parallelism,
                    ..TINY
                };
                let cell = format!("seed {seed}, {cfg:?}");
                let exec = Executor::new(cat.clone()).with_stream_config(cfg);
                let run = exec.run_stream(&wf).expect("stream executes");
                assert_eq!(mat.targets, run.result.targets, "{cell}: targets");
                assert_eq!(mat.stats, run.result.stats, "{cell}: stats");
                staged += run.counters.pages_staged;
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
    }
    assert!(staged > 0, "the parallel cells never staged a page");
    assert!(spilled > 0, "the 2-frame cells never spilled");
}

/// Butterfly workflow (a shared NN segment feeding independent HI and
/// LO branches, re-joined by a union): every parallel run stays
/// bit-identical to the 1-thread stream.
#[test]
fn butterfly_branches_stay_bit_identical() {
    for seed in 0..CASES / 4 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xb077);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);
        let wf = butterfly_wf(cut);
        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        let base = Executor::new(cat.clone())
            .with_stream_config(TINY)
            .run_stream(&wf)
            .expect("1-thread stream executes");
        let par = Executor::new(cat)
            .with_stream_config(StreamConfig {
                parallelism: 2,
                ..TINY
            })
            .run_stream(&wf)
            .expect("parallel stream executes");
        assert_eq!(base.result.targets, par.result.targets, "seed {seed}");
        assert_eq!(base.result.stats, par.result.stats, "seed {seed}");
    }
}

/// Pool-poison regression: a partition that panics mid-pipeline (here
/// via a scalar function that panics on a marked value while armed) must
/// surface as a typed `WorkerPanicked` error naming that partition — not
/// a deadlock, a poisoned pool mutex, or a propagated panic — and the same
/// executor must then run the workflow again. At 4 workers and 8-row
/// batches a task fans out from 32 input rows, so the cases cover a panic
/// in a task the caller runs inline, in the caller's own partition 0 of a
/// task that fans out, in a worker's partition, and in every partition at
/// once (the lowest wins). A watchdog thread bounds the wait so a
/// regression fails fast instead of hanging CI.
#[test]
fn panicking_worker_reports_typed_error_without_deadlock() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    const MARK: Scalar = Scalar::Int(1000);
    let armed = Arc::new(AtomicBool::new(true));
    let mut fns = etlopt_engine::FunctionRegistry::builtin();
    let trigger = Arc::clone(&armed);
    fns.register("boom", move |args: &[Scalar]| {
        if args[0] == MARK && trigger.load(Ordering::SeqCst) {
            panic!("injected worker panic");
        }
        Ok(args[0].clone())
    });

    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let f = b.unary("BOOM", UnaryOp::function("boom", ["v"], "w"), s);
    b.target("OUT", Schema::of(["k", "w"]), f);
    let wf = b.build().expect("workflow is well-formed");

    // (source rows, marked row positions, the partition that must be
    // named); partition `j` reads rows `j, j + 4, …`.
    let all: Vec<usize> = (0..200).collect();
    let cases: [(usize, &[usize], usize); 4] =
        [(31, &[1], 1), (64, &[4], 0), (64, &[6], 2), (200, &all, 0)];
    for (rows, marked, partition) in cases {
        let source = (0..rows)
            .map(|i| {
                let v = if marked.contains(&i) {
                    MARK
                } else {
                    Scalar::Float(i as f64)
                };
                vec![Scalar::Int(i as i64), v]
            })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(
            "S",
            Table::from_rows(Schema::of(["k", "v"]), source).expect("rows match schema"),
        );
        let exec = Executor::new(cat)
            .with_functions(fns.clone())
            .with_stream_config(StreamConfig {
                parallelism: 4,
                ..TINY
            });
        armed.store(true, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        let (wf, armed) = (wf.clone(), Arc::clone(&armed));
        std::thread::spawn(move || {
            let first = exec.run_stream(&wf);
            armed.store(false, Ordering::SeqCst);
            let _ = tx.send((first, exec.run_stream(&wf)));
        });
        let (first, second) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("pipeline must not deadlock on a panicking worker");
        let case = format!("{rows} rows, marks {marked:?}");
        match first {
            Err(etlopt_engine::EngineError::WorkerPanicked {
                partition: p,
                detail,
            }) => {
                assert_eq!(p, partition, "{case}: the panicking partition");
                assert!(
                    detail.contains("injected worker panic"),
                    "{case}: panic payload should be preserved: {detail}"
                );
            }
            other => panic!("{case}: expected WorkerPanicked, got {other:?}"),
        }
        let again = second.unwrap_or_else(|e| panic!("{case}: second run fails: {e:?}"));
        assert_eq!(again.result.targets["OUT"].len(), rows, "{case}");
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
