//! Backend-differential conformance: every smoke-corpus scenario must
//! produce identical targets and bit-identical `ExecStats` on the
//! streaming backend and the materializing backend — both with the
//! default stream configuration and with a frame budget small enough to
//! force the buffer pool through its spill path.

use etlopt_conformance::{backend_differential, SMOKE_SEEDS};
use etlopt_core::trace::ExecCounters;
use etlopt_engine::StreamConfig;
use etlopt_workload::{Generator, GeneratorConfig, SizeCategory};

const ROWS_PER_SOURCE: usize = 96;

fn sweep(cfg: StreamConfig) -> ExecCounters {
    let mut total = ExecCounters::default();
    for &seed in &SMOKE_SEEDS {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let counters = backend_differential(&s.workflow, ROWS_PER_SOURCE, seed, cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        total.absorb(&counters);
    }
    total
}

#[test]
fn smoke_corpus_agrees_under_default_config() {
    let counters = sweep(StreamConfig::default());
    assert!(counters.batches > 0);
    // The default budget comfortably holds the smoke volumes in memory.
    assert_eq!(counters.pages_spilled, 0, "{counters:?}");
}

#[test]
fn smoke_corpus_agrees_under_tiny_frame_budget() {
    let counters = sweep(StreamConfig {
        batch_rows: 8,
        frame_budget: 2,
        parallelism: 1,
        ..StreamConfig::default()
    });
    // A 2-frame pool over 96-row sources in 8-row pages cannot hold any
    // materialization boundary: the spill path must actually run.
    assert!(counters.spilled(), "{counters:?}");
    assert!(counters.pages_reloaded > 0, "{counters:?}");
}

/// `parallelism` is ignored: at 4 the sweep runs the same stream, so
/// every counter, the pool's spill traffic included, equals the 1-worker
/// sweep's.
#[test]
fn smoke_corpus_runs_the_same_stream_at_any_parallelism() {
    let cfg = StreamConfig {
        batch_rows: 8,
        frame_budget: 4,
        ..StreamConfig::default()
    };
    let one = sweep(cfg);
    assert!(one.spilled(), "{one:?}");
    let four = sweep(StreamConfig {
        parallelism: 4,
        ..cfg
    });
    assert_eq!(four, one);
}
