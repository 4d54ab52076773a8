//! Randomized property tests over the physical operators: the algebraic laws
//! the optimizer's transitions rely on must hold on arbitrary data. Driven by
//! the in-repo seeded [`Rng`] (the build environment is offline, so
//! `proptest` is unavailable); each case names its seed on failure.
//!
//! The second half pins the streaming engine's compiled row-wise kernels
//! (`exec::kernel`) to these same operators: rows, row order, `ExecStats`
//! and error variants equal the materializing reference — link by link,
//! and as whole chains fused into the scan's row program (over a source,
//! over a buffered fan-out, above a `∪` whose inputs take the chain or
//! refuse it, feeding `γ` and the right side of − / ∩), where the one
//! thing allowed to differ from the reference is which of two failing
//! links a run reports.

use std::cmp::Ordering;

use etlopt_core::graph::NodeId;
use etlopt_core::predicate::{CmpOp, Predicate};
use etlopt_core::rng::Rng;
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{Aggregation, BinaryOp, FunctionApp, UnaryOp};
use etlopt_core::workflow::{Workflow, WorkflowBuilder};
use etlopt_engine::ops::{exec_binary, exec_unary, ExecCtx};
use etlopt_engine::table::row_cmp;
use etlopt_engine::{Catalog, EngineError, Executor, FunctionRegistry, StreamConfig, Table};
use etlopt_workload::scenarios;

const CASES: u64 = 384;

fn value(rng: &mut Rng) -> Scalar {
    // 3:1 small ints to NULLs — duplicates are likely (bag semantics get
    // exercised) and NULLs hit the three-valued comparison paths.
    if rng.gen_bool(0.75) {
        Scalar::Int(rng.gen_range(0..20i64))
    } else {
        Scalar::Null
    }
}

fn table_kv(rng: &mut Rng) -> Table {
    let n = rng.gen_range(0..24usize);
    Table::from_rows(
        Schema::of(["k", "v"]),
        (0..n).map(|_| vec![value(rng), value(rng)]).collect(),
    )
    .unwrap()
}

fn with_ctx<R>(f: impl FnOnce(&ExecCtx<'_>) -> R) -> R {
    let functions = FunctionRegistry::builtin();
    let catalog = Catalog::new();
    let ctx = ExecCtx {
        functions: &functions,
        catalog: &catalog,
        auto_lookup: true,
    };
    f(&ctx)
}

/// σ distributes over bag union: σ(A ∪ B) = σ(A) ∪ σ(B).
#[test]
fn filter_distributes_over_union() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::gt("v", 7));
            let joint =
                exec_unary(&sel, &exec_binary(&BinaryOp::Union, &a, &b).unwrap(), ctx).unwrap();
            let split = exec_binary(
                &BinaryOp::Union,
                &exec_unary(&sel, &a, ctx).unwrap(),
                &exec_unary(&sel, &b, ctx).unwrap(),
            )
            .unwrap();
            assert!(joint.same_bag(&split).unwrap(), "seed {seed}");
        });
    }
}

/// σ distributes over bag difference and intersection.
#[test]
fn filter_distributes_over_difference_and_intersection() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::le("v", 10));
            for op in [BinaryOp::Difference, BinaryOp::Intersection] {
                let joint = exec_unary(&sel, &exec_binary(&op, &a, &b).unwrap(), ctx).unwrap();
                let split = exec_binary(
                    &op,
                    &exec_unary(&sel, &a, ctx).unwrap(),
                    &exec_unary(&sel, &b, ctx).unwrap(),
                )
                .unwrap();
                assert!(joint.same_bag(&split).unwrap(), "seed {seed} {op:?}");
            }
        });
    }
}

/// An injective per-row map distributes over difference, a collapsing
/// one does not necessarily — the rule behind `distributable_through`.
#[test]
fn injective_function_distributes_over_difference() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x2000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        with_ctx(|ctx| {
            let f = UnaryOp::function("negate", ["v"], "nv");
            let joint = exec_unary(
                &f,
                &exec_binary(&BinaryOp::Difference, &a, &b).unwrap(),
                ctx,
            )
            .unwrap();
            let split = exec_binary(
                &BinaryOp::Difference,
                &exec_unary(&f, &a, ctx).unwrap(),
                &exec_unary(&f, &b, ctx).unwrap(),
            )
            .unwrap();
            assert!(joint.same_bag(&split).unwrap(), "seed {seed}");
        });
    }
}

/// σ commutes with whole-row dedup.
#[test]
fn filter_commutes_with_dedup() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x3000);
        let a = table_kv(&mut rng);
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::gt("v", 5));
            let dd = UnaryOp::Dedup { selectivity: 1.0 };
            let fd = exec_unary(&dd, &exec_unary(&sel, &a, ctx).unwrap(), ctx).unwrap();
            let df = exec_unary(&sel, &exec_unary(&dd, &a, ctx).unwrap(), ctx).unwrap();
            assert!(fd.same_bag(&df).unwrap(), "seed {seed}");
        });
    }
}

/// A key-constrained σ commutes with the keep-first PK check (the
/// commute.rs rule); the engine's keep-first semantics make this exact.
#[test]
fn key_filter_commutes_with_pk_check() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x4000);
        let a = table_kv(&mut rng);
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::gt("k", 9));
            let pk = UnaryOp::PkCheck {
                key: vec![Attr::new("k")],
                selectivity: 1.0,
            };
            let fp = exec_unary(&pk, &exec_unary(&sel, &a, ctx).unwrap(), ctx).unwrap();
            let pf = exec_unary(&sel, &exec_unary(&pk, &a, ctx).unwrap(), ctx).unwrap();
            assert!(fp.same_bag(&pf).unwrap(), "seed {seed}");
        });
    }
}

/// A grouper-only filter commutes with aggregation.
#[test]
fn grouper_filter_commutes_with_aggregation() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5000);
        let a = table_kv(&mut rng);
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::le("k", 12));
            let agg = UnaryOp::aggregate(Aggregation::sum(["k"], "v", "total"));
            let fa = exec_unary(&agg, &exec_unary(&sel, &a, ctx).unwrap(), ctx).unwrap();
            let af = exec_unary(&sel, &exec_unary(&agg, &a, ctx).unwrap(), ctx).unwrap();
            assert!(fa.same_bag(&af).unwrap(), "seed {seed}");
        });
    }
}

/// Union cardinality is additive; difference plus intersection
/// partition the left bag.
#[test]
fn bag_cardinality_laws() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x6000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        let u = exec_binary(&BinaryOp::Union, &a, &b).unwrap();
        assert_eq!(u.len(), a.len() + b.len(), "seed {seed}");
        let d = exec_binary(&BinaryOp::Difference, &a, &b).unwrap();
        let i = exec_binary(&BinaryOp::Intersection, &a, &b).unwrap();
        assert_eq!(d.len() + i.len(), a.len(), "seed {seed}");
        // A − B and A ∩ B rebuild A.
        let rebuilt = exec_binary(&BinaryOp::Union, &d, &i).unwrap();
        assert!(rebuilt.same_bag(&a).unwrap(), "seed {seed}");
    }
}

/// Record-file round trip on arbitrary tables.
#[test]
fn recordfile_roundtrips() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x7000);
        let a = table_kv(&mut rng);
        let text = etlopt_engine::recordfile::write_str(&a);
        let back = etlopt_engine::recordfile::read_str(&text).unwrap();
        assert_eq!(back, a, "seed {seed}");
    }
}

/// same_bag is an equivalence relation on tables of one schema.
#[test]
fn same_bag_is_reflexive_and_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x8000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        assert!(a.same_bag(&a).unwrap(), "seed {seed}");
        assert_eq!(
            a.same_bag(&b).unwrap(),
            b.same_bag(&a).unwrap(),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Compiled kernels ≡ the materializing reference
// ---------------------------------------------------------------------

/// `k`: join-style keys, some as integral floats (`3.0` ≡ `3`); `n`:
/// numeric with NULL, NaN and integral floats; `s`: strings with NULL.
fn table_kns(rng: &mut Rng, rows: usize) -> Table {
    let k = |rng: &mut Rng| match rng.gen_range(0..6u32) {
        0 => Scalar::Float(rng.gen_range(0..8i64) as f64),
        _ => Scalar::Int(rng.gen_range(0..8i64)),
    };
    let n = |rng: &mut Rng| match rng.gen_range(0..8u32) {
        0 => Scalar::Null,
        1 => Scalar::Float(f64::NAN),
        2 => Scalar::Float(rng.gen_range(0..6i64) as f64),
        3 | 4 => Scalar::Int(rng.gen_range(-3..6i64)),
        _ => Scalar::Float((rng.gen_range(-3.0..6.0f64) * 4.0).round() / 4.0),
    };
    let s = |rng: &mut Rng| match rng.gen_range(0..5u32) {
        0 => Scalar::Null,
        i => Scalar::from(["a", "b", " c ", "12/31/2004"][i as usize - 1]),
    };
    Table::from_rows(
        Schema::of(["k", "n", "s"]),
        (0..rows).map(|_| vec![k(rng), n(rng), s(rng)]).collect(),
    )
    .unwrap()
}

fn function(name: &str, inputs: &[&str], output: &str, keep_inputs: bool) -> UnaryOp {
    UnaryOp::Function(FunctionApp {
        function: name.into(),
        inputs: inputs.iter().map(|a| Attr::new(*a)).collect(),
        output: Attr::new(output),
        keep_inputs,
        injective: false,
    })
}

/// Every row-wise operator form over `table_kns`.
fn row_wise_ops() -> Vec<UnaryOp> {
    let preds = [
        Predicate::gt("n", 2.5),
        Predicate::eq("s", "b"),
        Predicate::ne("k", 3),
        Predicate::CmpAttr {
            left: "n".into(),
            op: CmpOp::Lt,
            right: "k".into(),
        },
        Predicate::IsNull("s".into()),
        Predicate::not_null("n"),
        Predicate::InList {
            attr: "k".into(),
            values: vec![Scalar::Int(1), Scalar::Null, Scalar::Float(3.0)],
        },
        // UNKNOWN, not FALSE, for a non-member: only a NOT can tell.
        Predicate::InList {
            attr: "k".into(),
            values: vec![Scalar::Int(2), Scalar::Null],
        }
        .not(),
        Predicate::in_list("s", ["a", " c "]),
        Predicate::gt("n", 2)
            .and(Predicate::eq("s", "a").not())
            .or(Predicate::le("k", 1)),
        Predicate::True,
    ];
    let mut ops: Vec<UnaryOp> = preds.into_iter().map(UnaryOp::filter).collect();
    ops.extend([
        UnaryOp::not_null("n"),
        UnaryOp::not_null("s"),
        // In place, renaming, keeping its input.
        function("negate", &["n"], "n", false),
        function("negate", &["n"], "neg", false),
        function("uppercase", &["s"], "upper", true),
        // Multi-input: inputs dropped, one overwritten, all kept.
        function("concat", &["s", "k"], "sk", false),
        function("concat", &["s", "k"], "s", false),
        function("concat", &["k", "s"], "ks", true),
        UnaryOp::project_out(["n"]),
        UnaryOp::project_out(["s", "k"]),
        UnaryOp::AddField {
            attr: "src".into(),
            value: Scalar::from("S1"),
        },
        // Keys 0..4 hit the lookup table, the rest are derived.
        UnaryOp::surrogate_key("k", "sk", "L"),
    ]);
    ops
}

/// `S → chain → T`, one activity per link.
fn chain_wf(source: &Schema, chain: &[UnaryOp]) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let mut cur = b.source("S", source.clone(), 100.0);
    let mut schema = source.clone();
    for (i, op) in chain.iter().enumerate() {
        schema = op.output(&schema).unwrap();
        cur = b.unary(&format!("op{i}"), op.clone(), cur);
    }
    b.target("T", schema, cur);
    b.build().unwrap()
}

fn catalog_with(table: Table) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.insert("S", table);
    for key in 0..4 {
        catalog.insert_lookup("L", &Scalar::Int(key), Scalar::Int(1000 + key));
    }
    catalog
}

fn stream_cfg(batch_rows: usize) -> StreamConfig {
    StreamConfig {
        batch_rows,
        ..StreamConfig::default()
    }
}

/// NaN-proof table equality: same schema, same rows in the same order.
fn assert_same_table(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.schema(), want.schema(), "{what}");
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.rows().iter().zip(want.rows()).enumerate() {
        assert_eq!(
            row_cmp(g, w),
            Ordering::Equal,
            "{what}: row {i}: {g:?} vs {w:?}"
        );
    }
}

/// Every row-wise operator, directly above the scan (where a filter runs
/// on the scan's borrowed rows) and behind another link (where it edits
/// an owned batch): the streamed target equals `ops::exec_unary` applied
/// link by link, row for row.
#[test]
fn kernels_match_the_reference_row_for_row() {
    let ahead = function("normalize", &["k"], "k", false);
    for (n, op) in row_wise_ops().into_iter().enumerate() {
        for chain in [vec![op.clone()], vec![ahead.clone(), op.clone()]] {
            for seed in 0..12u64 {
                let mut rng = Rng::seed_from_u64(seed ^ 0x9000 ^ ((n as u64) << 16));
                let table = table_kns(&mut rng, 40);
                let catalog = catalog_with(table.clone());
                let functions = FunctionRegistry::builtin();
                let ctx = ExecCtx {
                    functions: &functions,
                    catalog: &catalog,
                    auto_lookup: true,
                };
                let want = chain
                    .iter()
                    .try_fold(table.clone(), |t, op| exec_unary(op, &t, &ctx))
                    .unwrap();
                let wf = chain_wf(table.schema(), &chain);
                let run = Executor::new(catalog.clone())
                    .with_stream_config(stream_cfg(7))
                    .run_stream(&wf)
                    .unwrap();
                let what = format!("{op} ({} links) seed {seed}", chain.len());
                assert_same_table(&run.result.targets["T"], &want, &what);
            }
        }
    }
}

/// A failing row fails every backend with the same error variant.
#[test]
fn kernel_failures_are_the_reference_failures() {
    let mut rng = Rng::seed_from_u64(0xA000);
    let table = table_kns(&mut rng, 40);
    let narrow = Table::from_rows(Schema::of(["k", "n"]), vec![vec![1.into(), 2.into()]]).unwrap();
    let cases: [(&str, UnaryOp, Table, bool); 3] = [
        (
            "non-numeric argument",
            function("scale", &["s"], "scaled", false),
            table.clone(),
            true,
        ),
        (
            "strict lookup miss",
            UnaryOp::surrogate_key("k", "sk", "L"),
            table.clone(),
            false,
        ),
        // The stored table lacks a column the source declares.
        ("missing attribute", UnaryOp::not_null("s"), narrow, true),
    ];
    for (what, op, stored, auto_lookup) in cases {
        let wf = chain_wf(table.schema(), &[op]);
        let exec = Executor::new(catalog_with(stored.clone())).with_stream_config(stream_cfg(7));
        let exec = if auto_lookup {
            exec
        } else {
            exec.with_strict_lookups()
        };
        let want = exec.run_materialize(&wf).unwrap_err();
        let expected = match what {
            "non-numeric argument" => matches!(want, EngineError::FunctionFailed { .. }),
            "strict lookup miss" => matches!(want, EngineError::LookupMiss { .. }),
            _ => matches!(want, EngineError::MissingAttribute { .. }),
        };
        assert!(expected, "{what}: reference raised {want:?}");
        let got = exec.run_stream(&wf).unwrap_err();
        assert_eq!(
            std::mem::discriminant(&got),
            std::mem::discriminant(&want),
            "{what}: {got:?} vs {want:?}"
        );
    }
}

/// The scan boundary: sources stored in non-declared column order (the
/// scan permutes as it clones, and keeps its filters above it) and a
/// source with two consumers (drained through the pool, re-read per
/// consumer), across batch sizes that split, straddle and swallow the
/// input. Targets and `ExecStats` equal `run_materialize`.
#[test]
fn scans_match_materialize_across_layouts_and_batch_sizes() {
    let two_consumers = {
        let mut b = WorkflowBuilder::new();
        let schema = Schema::of(["acct", "dollar_amt"]);
        let s = b.source("LEDGER_TODAY", schema.clone(), 100.0);
        let hi = b.unary("σ", UnaryOp::filter(Predicate::gt("dollar_amt", 500.0)), s);
        let nn = b.unary("NN", UnaryOp::not_null("acct"), s);
        b.target("HIGH", schema.clone(), hi);
        b.target("ALL", schema, nn);
        b.build().unwrap()
    };
    let cases = [
        (scenarios::fig1(), scenarios::fig1_catalog(11, 40, 300)),
        (
            scenarios::clickstream(),
            scenarios::clickstream_catalog(11, 300),
        ),
        (
            scenarios::reconciliation(),
            scenarios::reconciliation_catalog(11, 300),
        ),
        (two_consumers, scenarios::reconciliation_catalog(11, 300)),
    ];
    for (wf, stored) in cases {
        // Re-store every source with its columns reversed.
        let mut permuted = stored.clone();
        for src in wf.sources() {
            let name = &wf.graph().recordset(src).unwrap().name;
            permuted.insert(name.clone(), reversed(stored.table(name).unwrap()));
        }
        for catalog in [stored, permuted] {
            let want = Executor::new(catalog.clone()).run_materialize(&wf).unwrap();
            for batch_rows in [1, 7, 1024] {
                let run = Executor::new(catalog.clone())
                    .with_stream_config(stream_cfg(batch_rows))
                    .run_stream(&wf)
                    .unwrap();
                let what = format!("batch_rows {batch_rows}");
                assert_eq!(run.result.targets, want.targets, "{what}");
                assert_eq!(run.result.stats, want.stats, "{what}");
            }
        }
    }
}

/// Which error a fused chain surfaces: that of the first row, in scan
/// order, that fails, at the link where it fails. `scale(s)` cannot scale
/// row 7 and the strict `SK` behind it misses row 3's key, so every
/// streaming configuration reports the lookup miss — while the reference,
/// which runs `scale` over the whole table first, reports the function.
/// A link that would fail every row (an unknown function; the kernel's
/// unit tests do the same for a σ over an attribute its input lacks)
/// fails only if a row reaches it.
#[test]
fn a_fused_chain_reports_its_first_failing_row() {
    let rows = (0..12i64).map(|i| {
        let k = Scalar::Int(if i == 3 { 9 } else { i % 4 });
        let s = if i == 7 { "x".into() } else { Scalar::Int(i) };
        vec![k, s]
    });
    let table = Table::from_rows(Schema::of(["k", "s"]), rows.collect()).unwrap();
    let two_failing = chain_wf(
        table.schema(),
        &[
            function("scale", &["s"], "s", false),
            UnaryOp::surrogate_key("k", "sk", "L"),
        ],
    );
    let unknown = |keep: Predicate| {
        let dead = function("no_such_function", &["s"], "s", false);
        chain_wf(table.schema(), &[UnaryOp::filter(keep), dead])
    };
    let (unreached, reached) = (unknown(Predicate::gt("k", 100)), unknown(Predicate::True));
    let exec = |batch_rows| {
        Executor::new(catalog_with(table.clone()))
            .with_strict_lookups()
            .with_stream_config(stream_cfg(batch_rows))
    };
    let reference = exec(7).run_materialize(&two_failing).unwrap_err();
    assert!(matches!(reference, EngineError::FunctionFailed { .. }));
    for batch_rows in [1, 7, 1024] {
        let exec = exec(batch_rows);
        let what = format!("batch_rows {batch_rows}");
        let got = exec.run_stream(&two_failing).unwrap_err();
        assert!(
            matches!(got, EngineError::LookupMiss { .. }),
            "{what}: {got:?}"
        );
        let want = exec.run_materialize(&unreached).unwrap();
        let run = exec.run_stream(&unreached).unwrap();
        assert_eq!(run.result.targets, want.targets, "{what}");
        assert_eq!(run.result.stats, want.stats, "{what}");
        let got = exec.run_stream(&reached).unwrap_err();
        assert_eq!(got, exec.run_materialize(&reached).unwrap_err(), "{what}");
    }
}

/// A chain of `links` row-wise operators, each valid over the schema the
/// ones before it leave behind.
fn random_chain(rng: &mut Rng, input: &Schema, links: usize) -> Vec<UnaryOp> {
    let ops = row_wise_ops();
    let (mut chain, mut schema) = (Vec::new(), input.clone());
    while chain.len() < links {
        let op = &ops[rng.gen_range(0..ops.len())];
        if let Ok(out) = op.output(&schema) {
            chain.push(op.clone());
            schema = out;
        }
    }
    chain
}

/// `table` with its columns stored in reverse order.
fn reversed(table: &Table) -> Table {
    let mut attrs: Vec<Attr> = table.schema().iter().cloned().collect();
    attrs.reverse();
    table.reordered(&attrs.into_iter().collect()).unwrap()
}

/// Whole chains fused into the scan's row program: seeded random chains
/// of 2–6 links (plus the shapes the generator writes most: a filter
/// behind a function, π-out of a function's input, SK behind a filter,
/// ADD last) directly over a source, over a source buffered for two
/// consumers, feeding `γ`, and on both sides of − and ∩ — whose right
/// side, like `γ`'s input, is only lent. Targets row for row and
/// `ExecStats` equal `run_materialize` at every batch size, for sources
/// stored as declared and stored column-reversed.
///
/// The permuting scan keeps its links above it, and that case is run,
/// not skipped: over a source stored as declared the scan allocates
/// exactly the rows that reach the target, over the reversed one every
/// row it reads.
#[test]
fn fused_chains_match_the_reference_row_for_row() {
    let fixed = [
        vec![
            function("negate", &["n"], "n", false),
            UnaryOp::filter(Predicate::gt("n", 2.5)),
        ],
        vec![
            function("uppercase", &["s"], "upper", true),
            UnaryOp::project_out(["s", "k"]),
        ],
        vec![
            UnaryOp::filter(Predicate::ne("k", 3)),
            UnaryOp::surrogate_key("k", "sk", "L"),
        ],
    ];
    let add = UnaryOp::AddField {
        attr: "src".into(),
        value: Scalar::from("S1"),
    };
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xC000);
        let left = table_kns(&mut rng, 40);
        let mut rrows: Vec<_> = left.rows().iter().step_by(2).cloned().collect();
        rrows.extend(table_kns(&mut rng, 15).into_rows());
        let right = Table::from_rows(left.schema().clone(), rrows).unwrap();
        let mut chain = match fixed.get(seed as usize) {
            Some(chain) => chain.clone(),
            None => {
                let links = rng.gen_range(2..7usize);
                random_chain(&mut rng, left.schema(), links)
            }
        };
        if seed % 4 == 3 && add.output(&chain_schema(left.schema(), &chain)).is_ok() {
            chain.push(add.clone());
        }
        let out = chain_schema(left.schema(), &chain);
        let grouper = out.attrs()[out.len() - 1].clone();

        // One activity per link under `from`, so the program is fused
        // across activity boundaries.
        let extend = |b: &mut WorkflowBuilder, from, tag: &str| {
            let mut cur = from;
            for (i, op) in chain.iter().enumerate() {
                cur = b.unary(&format!("{tag}{i}"), op.clone(), cur);
            }
            cur
        };
        let direct = chain_wf(left.schema(), &chain);
        let buffered = {
            let mut b = WorkflowBuilder::new();
            let s = b.source("S", left.schema().clone(), 100.0);
            let end = extend(&mut b, s, "op");
            b.target("T", out.clone(), end);
            b.target("COPY", left.schema().clone(), s);
            b.build().unwrap()
        };
        let grouped = {
            let mut b = WorkflowBuilder::new();
            let s = b.source("S", left.schema().clone(), 100.0);
            let end = extend(&mut b, s, "op");
            let count = Aggregation::new(
                [grouper.clone()],
                vec![etlopt_core::semantics::AggSpec {
                    func: etlopt_core::semantics::AggFunc::Count,
                    input: out.attrs()[0].clone(),
                    output: "cnt".into(),
                }],
            );
            let agg = UnaryOp::aggregate(count);
            let schema = agg.output(&out).unwrap();
            let g = b.unary("γ", agg, end);
            b.target("T", schema, g);
            b.build().unwrap()
        };
        let bag = |op: BinaryOp| {
            let mut b = WorkflowBuilder::new();
            let s = b.source("S", left.schema().clone(), 100.0);
            let r = b.source("R", left.schema().clone(), 100.0);
            let (l, r) = (extend(&mut b, s, "l"), extend(&mut b, r, "r"));
            let x = b.binary("X", op, l, r);
            b.target("T", out.clone(), x);
            b.build().unwrap()
        };
        let shapes = [
            ("direct", direct),
            ("buffered", buffered),
            ("γ", grouped),
            ("−", bag(BinaryOp::Difference)),
            ("∩", bag(BinaryOp::Intersection)),
        ];

        let layouts = [
            (false, left.clone(), right.clone()),
            (true, reversed(&left), reversed(&right)),
        ];
        for (permuted, s, r) in layouts {
            let mut catalog = catalog_with(s);
            catalog.insert("R", r);
            for (shape, wf) in &shapes {
                let want = Executor::new(catalog.clone()).run_materialize(wf).unwrap();
                for batch_rows in [1, 7, 1024] {
                    let run = Executor::new(catalog.clone())
                        .with_stream_config(stream_cfg(batch_rows))
                        .run_stream(wf)
                        .unwrap();
                    let what = format!(
                        "seed {seed} {shape} {chain:?} permuted {permuted} batch_rows {batch_rows}"
                    );
                    for (name, table) in &want.targets {
                        assert_same_table(&run.result.targets[name], table, &what);
                    }
                    assert_eq!(run.result.stats, want.stats, "{what}");
                    if *shape == "direct" {
                        let c = &run.counters;
                        let (read, kept) = (left.len(), want.targets["T"].len());
                        let owned = if permuted { read } else { kept } as u64;
                        assert_eq!(c.rows_scanned, read as u64, "{what}");
                        assert_eq!(c.rows_materialized, owned, "{what}");
                    }
                }
            }
        }
    }
}

/// How one input of a `∪` reaches it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Side {
    /// A source stored as declared: the union's links fuse into its scan.
    Direct,
    /// A source with a second consumer, drained to the pool and re-read.
    Buffered,
    /// A source stored column-reversed: its scan permutes, so the links
    /// run over its owned batches.
    Reversed,
    /// A source declared column-reversed: as the union's right input it
    /// is reordered to the left layout, and the links run above that.
    Declared,
    /// Whole-row dedup ahead of the union: a stateful side.
    Deduped,
}

/// Random chains of 2–6 row-wise links above a `∪` of every pair of
/// sides, feeding a target, `γ`, and the right side of − and ∩ (the last
/// two only lend it): targets row for row and `ExecStats` equal
/// `run_materialize` at every batch size. Over two direct sides the scans
/// allocate exactly the rows that reach the target, and nothing for `γ`.
#[test]
fn chains_above_a_union_match_the_reference_row_for_row() {
    use Side::*;
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xD000);
        let left = table_kns(&mut rng, 40);
        let mut rrows: Vec<_> = left.rows().iter().step_by(3).cloned().collect();
        rrows.extend(table_kns(&mut rng, 20).into_rows());
        let right = Table::from_rows(left.schema().clone(), rrows).unwrap();
        // A chain that projects every column out leaves γ nothing to group.
        let (chain, out) = loop {
            let links = rng.gen_range(2..7usize);
            let chain = random_chain(&mut rng, left.schema(), links);
            let out = chain_schema(left.schema(), &chain);
            if !out.is_empty() {
                break (chain, out);
            }
        };
        let grouper = out.attrs()[out.len() - 1].clone();
        let declared = |side: Side| match side {
            Declared => reversed(&left).schema().clone(),
            _ => left.schema().clone(),
        };

        for (lside, rside) in [Direct, Buffered, Reversed, Deduped]
            .into_iter()
            .flat_map(|l| [Direct, Buffered, Reversed, Declared, Deduped].map(|r| (l, r)))
        {
            let mut catalog = catalog_with(match lside {
                Reversed => reversed(&left),
                _ => left.clone(),
            });
            catalog.insert(
                "R",
                match rside {
                    Reversed | Declared => reversed(&right),
                    _ => right.clone(),
                },
            );
            catalog.insert("L", left.clone());
            // `S ∪ R → chain`, then whatever `read` puts on top.
            let build = |read: &dyn Fn(&mut WorkflowBuilder, NodeId) -> (Schema, NodeId)| {
                let mut b = WorkflowBuilder::new();
                let mut ends = Vec::new();
                for (name, side) in [("S", lside), ("R", rside)] {
                    let schema = declared(side);
                    let mut end = b.source(name, schema.clone(), 100.0);
                    if side == Buffered {
                        b.target(&format!("{name}_COPY"), schema, end);
                    }
                    if side == Deduped {
                        end = b.unary(
                            &format!("DD_{name}"),
                            UnaryOp::Dedup { selectivity: 1.0 },
                            end,
                        );
                    }
                    ends.push(end);
                }
                let mut cur = b.binary("U", BinaryOp::Union, ends[0], ends[1]);
                for (i, op) in chain.iter().enumerate() {
                    cur = b.unary(&format!("u{i}"), op.clone(), cur);
                }
                let (schema, end) = read(&mut b, cur);
                b.target("T", schema, end);
                b.build().unwrap()
            };
            let count = UnaryOp::aggregate(Aggregation::new(
                [grouper.clone()],
                vec![etlopt_core::semantics::AggSpec {
                    func: etlopt_core::semantics::AggFunc::Count,
                    input: out.attrs()[0].clone(),
                    output: "cnt".into(),
                }],
            ));
            let bag = |op: BinaryOp| {
                build(&|b: &mut WorkflowBuilder, union| {
                    let mut cur = b.source("L", left.schema().clone(), 100.0);
                    for (i, link) in chain.iter().enumerate() {
                        cur = b.unary(&format!("l{i}"), link.clone(), cur);
                    }
                    (out.clone(), b.binary("X", op.clone(), cur, union))
                })
            };
            let shapes = [
                ("target", build(&|_, union| (out.clone(), union))),
                (
                    "γ",
                    build(&|b, union| {
                        (
                            count.output(&out).unwrap(),
                            b.unary("γ", count.clone(), union),
                        )
                    }),
                ),
                ("−", bag(BinaryOp::Difference)),
                ("∩", bag(BinaryOp::Intersection)),
            ];
            for (shape, wf) in &shapes {
                let want = Executor::new(catalog.clone()).run_materialize(wf).unwrap();
                for batch_rows in [1, 7, 1024] {
                    let run = Executor::new(catalog.clone())
                        .with_stream_config(stream_cfg(batch_rows))
                        .run_stream(wf)
                        .unwrap();
                    let what = format!(
                        "seed {seed} {lside:?} ∪ {rside:?} → {chain:?} → {shape} batch_rows {batch_rows}"
                    );
                    assert_eq!(
                        run.result.targets.keys().collect::<Vec<_>>(),
                        want.targets.keys().collect::<Vec<_>>(),
                        "{what}"
                    );
                    for (name, table) in &want.targets {
                        assert_same_table(&run.result.targets[name], table, &what);
                    }
                    assert_eq!(run.result.stats, want.stats, "{what}");
                    let owned = match *shape {
                        "target" => want.targets["T"].len() as u64,
                        _ => 0,
                    };
                    if (lside, rside) == (Direct, Direct) && *shape != "−" && *shape != "∩" {
                        let c = &run.counters;
                        assert_eq!(c.rows_scanned, (left.len() + right.len()) as u64, "{what}");
                        assert_eq!(c.rows_materialized, owned, "{what}");
                    }
                }
            }
        }
    }
}

/// One failing link above a `∪` fails the run with the reference's error —
/// the first failing row in union order — whether the row is on the left
/// or the right, the side is scanned or reordered, at every batch size.
#[test]
fn a_failing_link_above_a_union_is_the_reference_error() {
    let clean = |n: i64| {
        let rows = (0..n).map(|i| vec![Scalar::Int(i % 4), Scalar::Int(i)]);
        Table::from_rows(Schema::of(["k", "s"]), rows.collect()).unwrap()
    };
    // Row 5 cannot be scaled; row 6's key has no surrogate.
    let dirty = {
        let mut rows = clean(12).into_rows();
        rows[5][1] = "x".into();
        rows[6][0] = Scalar::Int(9);
        Table::from_rows(Schema::of(["k", "s"]), rows).unwrap()
    };
    let failing = [
        function("scale", &["s"], "s", false),
        UnaryOp::surrogate_key("k", "sk", "L"),
    ];
    for link in &failing {
        for (l, r) in [(dirty.clone(), clean(9)), (clean(9), dirty.clone())] {
            for (declared, stored) in [(false, false), (false, true), (true, true)] {
                let rschema = match declared {
                    true => reversed(&r).schema().clone(),
                    false => r.schema().clone(),
                };
                let mut b = WorkflowBuilder::new();
                let s = b.source("S", l.schema().clone(), 100.0);
                let rs = b.source("R", rschema, 100.0);
                let u = b.binary("U", BinaryOp::Union, s, rs);
                let keep = b.unary("σ", UnaryOp::filter(Predicate::ne("k", 2)), u);
                let end = b.unary("f", link.clone(), keep);
                b.target("T", link.output(l.schema()).unwrap(), end);
                let wf = b.build().unwrap();

                let mut catalog = catalog_with(l.clone());
                catalog.insert("R", if stored { reversed(&r) } else { r.clone() });
                let exec = |batch_rows| {
                    Executor::new(catalog.clone())
                        .with_strict_lookups()
                        .with_stream_config(stream_cfg(batch_rows))
                };
                let want = exec(7).run_materialize(&wf).unwrap_err();
                for batch_rows in [1, 7, 1024] {
                    let got = exec(batch_rows).run_stream(&wf).unwrap_err();
                    let what = format!(
                        "{link} declared {declared} stored {stored} batch_rows {batch_rows}"
                    );
                    assert_eq!(got, want, "{what}");
                }
            }
        }
    }
}

/// The schema `chain` leaves behind over `input`.
fn chain_schema(input: &Schema, chain: &[UnaryOp]) -> Schema {
    chain
        .iter()
        .fold(input.clone(), |schema, op| op.output(&schema).unwrap())
}

// ---------------------------------------------------------------------
// Keyed operators (PK, DD, γ, ⋈, ∪ / − / ∩) ≡ the materializing reference
// ---------------------------------------------------------------------

/// Key columns built to collide across representations: `g` holds `Int`s,
/// the integral `Float`s that equal them, NaN, NULL and a non-integral
/// float; `h` holds strings, NULL, a `Bool` and a `Date`; `v` is numeric
/// with NULLs — and always NULL when `g` is 7, so that group aggregates
/// nothing.
fn table_ghv(rng: &mut Rng, rows: usize) -> Table {
    let g = |rng: &mut Rng| match rng.gen_range(0..10u32) {
        0 => Scalar::Null,
        1 => Scalar::Float(f64::NAN),
        2 => Scalar::Float(rng.gen_range(0..4i64) as f64),
        3 => Scalar::Float(2.5),
        4 => Scalar::Int(7),
        _ => Scalar::Int(rng.gen_range(0..4i64)),
    };
    let h = |rng: &mut Rng| match rng.gen_range(0..6u32) {
        0 => Scalar::Null,
        1 => Scalar::Bool(true),
        2 => Scalar::Date(3),
        i => Scalar::from(["a", "b", "a\u{1f}b"][i as usize - 3]),
    };
    let v = |rng: &mut Rng| match rng.gen_range(0..5u32) {
        0 => Scalar::Null,
        1 => Scalar::Int(rng.gen_range(-3..6i64)),
        _ => Scalar::Float((rng.gen_range(-3.0..6.0f64) * 4.0).round() / 4.0),
    };
    let row = |rng: &mut Rng| {
        let g = g(rng);
        let v = match g {
            Scalar::Int(7) => Scalar::Null,
            _ => v(rng),
        };
        vec![g, h(rng), v]
    };
    Table::from_rows(
        Schema::of(["g", "h", "v"]),
        (0..rows).map(|_| row(rng)).collect(),
    )
    .unwrap()
}

fn every_agg_func(group_by: &[&str]) -> UnaryOp {
    use etlopt_core::semantics::{AggFunc, AggSpec};
    let funcs = [
        (AggFunc::Sum, "sum"),
        (AggFunc::Count, "count"),
        (AggFunc::Min, "min"),
        (AggFunc::Max, "max"),
        (AggFunc::Avg, "avg"),
    ];
    UnaryOp::aggregate(Aggregation::new(
        group_by.iter().copied(),
        funcs
            .into_iter()
            .map(|(func, output)| AggSpec {
                func,
                input: "v".into(),
                output: output.into(),
            })
            .collect(),
    ))
}

/// `left op right → T`; the right source is declared (and stored) in
/// `right`'s own column order.
fn binary_wf(op: &BinaryOp, left: &Schema, right: &Schema) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let l = b.source("S", left.clone(), 100.0);
    let r = b.source("R", right.clone(), 100.0);
    let x = b.binary("X", op.clone(), l, r);
    b.target("T", op.output(left, right).unwrap(), x);
    b.build().unwrap()
}

fn assert_matches_materialize(wf: &Workflow, catalog: &Catalog, what: &str) {
    let want = Executor::new(catalog.clone()).run_materialize(wf).unwrap();
    for batch_rows in [1, 7, 1024] {
        let cfg = stream_cfg(batch_rows);
        let run = Executor::new(catalog.clone())
            .with_stream_config(cfg)
            .run_stream(wf)
            .unwrap();
        let what = format!("{what} {cfg:?}");
        assert_eq!(
            run.result.targets.keys().collect::<Vec<_>>(),
            want.targets.keys().collect::<Vec<_>>(),
            "{what}"
        );
        for (name, table) in &run.result.targets {
            assert_same_table(table, &want.targets[name], &what);
        }
        assert_eq!(run.result.stats, want.stats, "{what}");
    }
}

/// The streaming executor's keyed operators against `run_materialize`
/// (which keeps its own string keys and its own aggregate): targets row
/// for row and `ExecStats`.
///
/// Mutations in `exec::keyed`, each failing here: encoding an integral
/// `Float` under the float tag (splits `Int` / `Float` groups and join
/// matches); `cancel` not using the occurrence up (multiplicities);
/// taking a group's grouper cells from its latest row. Not caught here, by
/// design: NaN payloads and `Str` boundaries (the `keyed` unit test pins
/// those), and dropping only one side's NULL-key skip in the join (the
/// other side's skip alone already keeps NULLs from matching).
#[test]
fn keyed_operators_match_the_reference_row_for_row() {
    let pk = |key: &[&str]| UnaryOp::PkCheck {
        key: key.iter().map(|a| Attr::new(*a)).collect(),
        selectivity: 1.0,
    };
    let unary = [
        pk(&["g"]),
        pk(&["g", "h"]),
        UnaryOp::Dedup { selectivity: 1.0 },
        every_agg_func(&[]),
        every_agg_func(&["g"]),
        every_agg_func(&["h", "g"]),
    ];
    for seed in 0..4u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xB000);
        let left = table_ghv(&mut rng, 60);
        for op in &unary {
            let wf = chain_wf(left.schema(), std::slice::from_ref(op));
            let what = format!("{op} seed {seed}");
            assert_matches_materialize(&wf, &catalog_with(left.clone()), &what);
        }

        // ∪ / − / ∩: the right side repeats some left rows (so
        // multiplicities matter) and is stored with its columns permuted.
        let mut rrows: Vec<_> = left.rows().iter().step_by(3).cloned().collect();
        rrows.extend(left.rows().iter().step_by(7).cloned());
        rrows.extend(table_ghv(&mut rng, 10).into_rows());
        let right = Table::from_rows(left.schema().clone(), rrows)
            .unwrap()
            .reordered(&Schema::of(["v", "g", "h"]))
            .unwrap();
        for op in [
            BinaryOp::Union,
            BinaryOp::Difference,
            BinaryOp::Intersection,
        ] {
            let wf = binary_wf(&op, left.schema(), right.schema());
            let mut catalog = catalog_with(left.clone());
            catalog.insert("R", right.clone());
            assert_matches_materialize(&wf, &catalog, &format!("{op} seed {seed}"));
        }

        // ⋈ on `g`: NULL keys on both sides never join, duplicate build
        // keys keep build order, `Float(1.0)` on the build side meets the
        // probe side's `Int(1)`.
        let dim = Table::from_rows(
            Schema::of(["name", "g"]),
            vec![
                vec!["one".into(), Scalar::Float(1.0)],
                vec!["null".into(), Scalar::Null],
                vec!["uno".into(), Scalar::Int(1)],
                vec!["two".into(), Scalar::Int(2)],
                vec!["nan".into(), Scalar::Float(f64::NAN)],
                vec!["half".into(), Scalar::Float(2.5)],
                vec!["eins".into(), Scalar::Float(1.0)],
            ],
        )
        .unwrap();
        let op = BinaryOp::Join(vec![Attr::new("g")]);
        let wf = binary_wf(&op, left.schema(), dim.schema());
        let mut catalog = catalog_with(left.clone());
        catalog.insert("R", dim);
        assert_matches_materialize(&wf, &catalog, &format!("join seed {seed}"));
    }
}
