#!/usr/bin/env bash
# Builds the kanon CLI and the benchmark from source, then runs one
# measurement:
#
#   bash perfbench/run.sh --workload art|adult --seed N --seconds S --trace 0|1
#
# Run from the root of a kanon checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); daemon state and traces go to
# .bench_work. The last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p kanon-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
export PERFBENCH_KANON_BIN="$CARGO_TARGET_DIR/release/kanon"
export PERFBENCH_WORK_DIR=".bench_work"
exec "$CARGO_TARGET_DIR/release/kanon-perfbench" "$@"
