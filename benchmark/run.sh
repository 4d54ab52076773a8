#!/usr/bin/env bash
# One script for CI: build offline, run the suite (one untraced and one
# traced run per workload, in one record), prove the output check bites,
# then run the quick self-check. Everything it writes goes under
# benchmark/out/ (git-ignored). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

"$bin" run --traced --out benchmark/out/result.json

# A corrupted reference digest must fail the run.
if "$bin" run --quick --workload engine_seq --corrupt-reference \
        --out benchmark/out/corrupt.json >/dev/null 2>&1; then
    echo "run.sh: a corrupted reference went unnoticed" >&2
    exit 1
fi

"$bin" selfcheck --quick
