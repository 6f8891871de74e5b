#!/usr/bin/env bash
# Runs the benchmark's unit and self-tests (reduced-size runs of every
# workload against a real daemon):
#
#   bash perfbench/test.sh
set -euo pipefail
cd "$(dirname "$0")/.."
# Absolute: cargo runs the tests from perfbench/, not from here.
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-.bench_build}")"
cargo build --release --offline --quiet -p kanon-cli
export PERFBENCH_KANON_BIN="$CARGO_TARGET_DIR/release/kanon"
cargo test --release --offline --manifest-path perfbench/Cargo.toml "$@"
