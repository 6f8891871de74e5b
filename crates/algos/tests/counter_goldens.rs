//! Pinned work counters: the deterministic counter block, the loss and
//! the `(budget, spent)` of a tripped run, for fixed inputs. Each case
//! runs at 1, 2 and 8 workers.
//!
//! A count moved by a change to how work is *counted* (not to what work
//! is done) shows up here as a diff against the recorded string; a
//! changed budget trip point shows up as a different `(budget, spent)`.
//!
//! Recorded when the engine's opening scan began computing each pair's
//! join cost once (a triangle instead of one scan per slot): over `m`
//! clusters entering the merge loop, `signature_bytes_streamed` falls by
//! `m(m−1)/2 × r × 16` (`climb_fallback_hits` by `m(m−1)/2 × r` without
//! join tables) and nothing else moves — here `m = 592` (the distinct
//! tuples) and `r = 6`, so 16 793 856 bytes per monolithic run. The work
//! budget is the sum of the counters, so the same budget now buys more
//! merges before it trips (222 instead of 68).

use kanon_algos::{
    try_agglomerative_k_anonymize, try_sharded_k_anonymize, AgglomerativeConfig, Budgeted,
    ClusterDistance, ShardConfig,
};
use kanon_core::table::Table;
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_obs::Collector;
use kanon_parallel::with_threads;

/// `f`'s result and the deterministic counters it recorded.
fn counted<T>(f: impl FnOnce() -> T) -> (T, String) {
    let c = Collector::new();
    let out = {
        let _g = c.install();
        f()
    };
    (out, c.report().counters_json())
}

/// Asserts `run` reports `want` at 1, 2 and 8 workers.
fn pinned(case: &str, want: &str, run: impl Fn() -> String) {
    for threads in [1, 2, 8] {
        let got = with_threads(threads, &run);
        assert_eq!(got, want, "{case} at {threads} thread(s)");
    }
}

/// Loss bits and counters of an agglomerative run under `distance`.
fn agglomerative(table: &Table, costs: &NodeCostTable, distance: ClusterDistance) -> String {
    let cfg = AgglomerativeConfig::new(10).with_distance(distance);
    let (out, counters) = counted(|| try_agglomerative_k_anonymize(table, costs, &cfg));
    let out = out.unwrap();
    assert!(!out.is_exhausted());
    format!("{:016x} {counters}", out.into_inner().loss.to_bits())
}

#[test]
fn agglomerative_d1_and_d3_counters_are_pinned() {
    let table = art::generate(600, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    pinned("D1", GOLDEN_D1, || {
        agglomerative(&table, &costs, ClusterDistance::D1)
    });
    pinned("D3", GOLDEN_D3, || {
        agglomerative(&table, &costs, ClusterDistance::D3)
    });
}

#[test]
fn climb_only_counters_are_pinned() {
    let table = art::generate(600, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure).without_join_tables();
    pinned("climb-only D3", GOLDEN_CLIMB, || {
        agglomerative(&table, &costs, ClusterDistance::D3)
    });
}

#[test]
fn sharded_counters_are_pinned() {
    let table = art::generate(3000, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let cfg = ShardConfig::new(10).with_shard_max(200);
    pinned("sharded", GOLDEN_SHARDED, || {
        let (out, counters) = counted(|| try_sharded_k_anonymize(&table, &costs, &cfg));
        let out = out.unwrap().into_inner();
        format!("{:016x} {counters}", out.out.loss.to_bits())
    });
}

#[test]
fn a_mid_merge_budget_trip_is_pinned() {
    let table = art::generate(600, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let cfg = AgglomerativeConfig::new(10);
    pinned("budget", GOLDEN_BUDGET, || {
        let (out, counters) = counted(|| {
            kanon_obs::with_work_budget(BUDGET, || {
                try_agglomerative_k_anonymize(&table, &costs, &cfg)
            })
        });
        let Budgeted::BudgetExhausted {
            best_so_far,
            budget,
            spent,
        } = out.unwrap()
        else {
            panic!("a budget of {BUDGET} must trip");
        };
        format!(
            "({budget}, {spent}) {:016x} {counters}",
            best_so_far.loss.to_bits()
        )
    });
}

/// A budget the D3 run above exhausts part-way through its merge loop.
const BUDGET: u64 = 40_000_000;

const GOLDEN_D1: &str = concat!(
    "3ff9e9866a56bfa1 {",
    "\"merges_performed\":550,\"nn_rescans\":1243,",
    "\"join_table_hits\":54,\"climb_fallback_hits\":0,",
    "\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,\"scc_passes\":0,",
    "\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,",
    "\"k1_rows_expanded\":0,\"one_k_upgrades\":0,",
    "\"node_cost_tables\":0,\"cluster_dist_evals\":705897,",
    "\"cache_repairs\":577,\"signature_bytes_streamed\":51067392,",
    "\"mondrian_splits\":0,\"mondrian_groups_packed\":0,",
    "\"shards_built\":0,\"shard_rows_max\":0,\"boundary_repairs\":0,",
    "\"distinct_tuples\":592,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,",
    "\"serve_reopt_runs\":0,\"serve_journal_replays\":0,",
    "\"serve_rows_absorbed_eps\":0,",
    "\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_D3: &str = concat!(
    "3ff8a99e1e7748e4 {",
    "\"merges_performed\":540,\"nn_rescans\":1130,",
    "\"join_table_hits\":36,\"climb_fallback_hits\":0,",
    "\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,\"scc_passes\":0,",
    "\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,",
    "\"k1_rows_expanded\":0,\"one_k_upgrades\":0,",
    "\"node_cost_tables\":0,\"cluster_dist_evals\":677424,",
    "\"cache_repairs\":15573,\"signature_bytes_streamed\":48324672,",
    "\"mondrian_splits\":0,\"mondrian_groups_packed\":0,",
    "\"shards_built\":0,\"shard_rows_max\":0,\"boundary_repairs\":0,",
    "\"distinct_tuples\":592,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,",
    "\"serve_reopt_runs\":0,\"serve_journal_replays\":0,",
    "\"serve_rows_absorbed_eps\":0,",
    "\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_CLIMB: &str = concat!(
    "3ff8a99e1e7748e4 {",
    "\"merges_performed\":540,\"nn_rescans\":1130,",
    "\"join_table_hits\":0,\"climb_fallback_hits\":3020328,",
    "\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,\"scc_passes\":0,",
    "\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,",
    "\"k1_rows_expanded\":0,\"one_k_upgrades\":0,",
    "\"node_cost_tables\":0,\"cluster_dist_evals\":677424,",
    "\"cache_repairs\":15573,\"signature_bytes_streamed\":0,",
    "\"mondrian_splits\":0,\"mondrian_groups_packed\":0,",
    "\"shards_built\":0,\"shard_rows_max\":0,\"boundary_repairs\":0,",
    "\"distinct_tuples\":592,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,",
    "\"serve_reopt_runs\":0,\"serve_journal_replays\":0,",
    "\"serve_rows_absorbed_eps\":0,",
    "\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_SHARDED: &str = concat!(
    "3ff3e97108c9ce6c {",
    "\"merges_performed\":2699,\"nn_rescans\":4864,",
    "\"join_table_hits\":114408,\"climb_fallback_hits\":0,",
    "\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,\"scc_passes\":0,",
    "\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,",
    "\"k1_rows_expanded\":0,\"one_k_upgrades\":0,",
    "\"node_cost_tables\":0,\"cluster_dist_evals\":636951,",
    "\"cache_repairs\":11982,\"signature_bytes_streamed\":44804448,",
    "\"mondrian_splits\":0,\"mondrian_groups_packed\":0,",
    "\"shards_built\":22,\"shard_rows_max\":185,",
    "\"boundary_repairs\":19,\"distinct_tuples\":2718,",
    "\"serve_batches_applied\":0,\"serve_rows_ingested\":0,",
    "\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,",
    "\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_BUDGET: &str = concat!(
    "(40000000, 40207325) 3fff1f39ba8ecdcb {",
    "\"merges_performed\":222,\"nn_rescans\":912,\"join_table_hits\":0,",
    "\"climb_fallback_hits\":0,\"pair_cost_evals\":0,",
    "\"hk_augmenting_passes\":0,\"scc_passes\":0,",
    "\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,",
    "\"k1_rows_expanded\":0,\"one_k_upgrades\":0,",
    "\"node_cost_tables\":0,\"cluster_dist_evals\":587304,",
    "\"cache_repairs\":9655,\"signature_bytes_streamed\":39642528,",
    "\"mondrian_splits\":0,\"mondrian_groups_packed\":0,",
    "\"shards_built\":0,\"shard_rows_max\":0,\"boundary_repairs\":0,",
    "\"distinct_tuples\":592,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,",
    "\"serve_reopt_runs\":0,\"serve_journal_replays\":0,",
    "\"serve_rows_absorbed_eps\":0,",
    "\"serve_journal_bytes_compacted\":0",
    "}",
);
