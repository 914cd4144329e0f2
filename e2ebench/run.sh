#!/usr/bin/env bash
# Builds the release `p4bid` CLI and the benchmark from source, then runs
# the benchmark with the given arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload batch-mixed --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
# Outside a full checkout (no workspace to build) it exits non-zero
# without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p p4bid --bin p4bid >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
# Not `exec`: the benchmark reads its children's peak RSS, which must not
# include the compilers this script waited for.
"$CARGO_TARGET_DIR/release/e2ebench" --p4bid "$CARGO_TARGET_DIR/release/p4bid" "$@"
