#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus all ablations.
# Usage: scripts/reproduce.sh [--full|--quick|--n N]
# Raw outputs land in results_*.txt at the repo root. They are local
# (git-ignored, not committed); EXPERIMENTS.md holds the tables.
set -euo pipefail
cd "$(dirname "$0")/.."
ARGS="${@:-}"
cargo build --release -p kanon-bench
BIN=target/release
run() { echo "== $1 $ARGS =="; "$BIN/$1" $ARGS | tee "results_$1.txt"; echo; }
run table1
run fig2
run fig3
run fig1_inclusions
run ablation_distance
run ablation_k1
run ablation_modified
run ablation_topdown
run ablation_recoding
run ablation_baselines
run query_utility
run global1k_stats
run epsilon_kk
run scaling
