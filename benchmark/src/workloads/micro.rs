//! Microspans: tight loops around one public function each, for the
//! layers too fine-grained to see from an op's span (a price, a
//! fingerprint, a clone) or off the op's path altogether (the spill
//! codec). They run only in the traced run, after the timed passes.

use std::time::Instant;

use etlopt_core::cost::{CostModel, RowCountModel};
use etlopt_core::opt::{enumerate_moves, Move};
use etlopt_core::schema_gen::downstream_of;
use etlopt_core::signature::{hash_state, rehash_along};
use etlopt_core::workflow::Workflow;
use etlopt_engine::{recordfile, Table};

use super::Metrics;
use crate::stats;

/// Mean nanoseconds of `f` over `iters` calls.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Median duration of `f` over `iters` calls, in microseconds.
pub fn median_us(iters: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&samples)
}

/// `cost.*`, `signature.*`, `workflow.*`, `transition.*`: what one
/// expansion of the search pays, from scratch and incrementally, across
/// the swap with the smallest dirty downstream set (the typical case the
/// delta path is built for). Reported as the mean over `states`.
pub fn search_microspans(states: &[Workflow], out: &mut Metrics) {
    let model = RowCountModel::default();
    let mut rows: Vec<[f64; 6]> = Vec::new();
    for wf in states {
        let Some(mv) = enumerate_moves(wf)
            .unwrap_or_default()
            .into_iter()
            .filter(|m| matches!(m, Move::Swap(_)))
            .filter_map(|m| {
                let next = m.apply(wf).ok()?;
                let dirty = downstream_of(next.graph(), &m.affected(wf)).ok()?;
                Some((dirty.len(), m))
            })
            .min_by_key(|(len, _)| *len)
            .map(|(_, m)| m)
        else {
            continue;
        };
        let (Ok(parent_cost), Ok(next)) = (model.price(wf), mv.apply(wf)) else {
            continue;
        };
        let (parent_hashes, _) = hash_state(wf);
        let affected = mv.affected(wf);
        rows.push([
            mean_ns(2_000, || {
                std::hint::black_box(model.price(&next).ok());
            }),
            mean_ns(2_000, || {
                std::hint::black_box(model.reprice_from(&next, &parent_cost, &affected).ok());
            }),
            mean_ns(2_000, || {
                std::hint::black_box(next.signature());
            }),
            mean_ns(2_000, || {
                if let Ok(dirty) = downstream_of(next.graph(), &affected) {
                    std::hint::black_box(rehash_along(&next, &parent_hashes, &dirty));
                }
            }),
            mean_ns(2_000, || {
                std::hint::black_box(wf.clone());
            }),
            mean_ns(500, || {
                std::hint::black_box(mv.apply(wf).ok());
            }),
        ]);
    }
    let names = [
        "cost.full_ns",
        "cost.reprice_ns",
        "signature.full_ns",
        "signature.incr_ns",
        "workflow.clone_ns",
        "transition.swap_ns",
    ];
    for (i, name) in names.iter().enumerate() {
        let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        out.insert((*name).to_owned(), stats::mean(&column));
    }
}

/// `recordfile.*`: the pool's spill codec on one table, MB of encoded
/// text per second each way.
pub fn recordfile_microspans(table: &Table, out: &mut Metrics) {
    const REPS: u32 = 5;
    let encoded = recordfile::write_str(table);
    let mb = encoded.len() as f64 / 1e6;
    let write_us = median_us(REPS, || {
        std::hint::black_box(recordfile::write_str(table));
    });
    let read_us = median_us(REPS, || {
        std::hint::black_box(recordfile::read_str(&encoded).ok());
    });
    out.insert(
        "recordfile.write_mb_per_s".to_owned(),
        mb / (write_us / 1e6).max(1e-9),
    );
    out.insert(
        "recordfile.read_mb_per_s".to_owned(),
        mb / (read_us / 1e6).max(1e-9),
    );
}
