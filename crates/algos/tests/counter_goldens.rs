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
//!
//! The row-scanning algorithms (Algorithm 3, the (k,k) and global (1,k)
//! pipelines, the forest and MDAV) are pinned twice per case: with the
//! cost table's fused join tables and without them, so both probe kinds
//! are counted. Their goldens were recorded before these algorithms
//! priced their candidates in batches, and a batch must count the same
//! probes and pairs as one call per candidate did.

use kanon_algos::{
    try_agglomerative_k_anonymize, try_forest_k_anonymize, try_global_1k_anonymize,
    try_k1_anonymize, try_kk_anonymize, try_mdav_k_anonymize, try_sharded_k_anonymize,
    AgglomerativeConfig, Budgeted, ClusterDistance, K1Method, KkConfig, ShardConfig,
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

/// Loss bits and counters of `run` under `costs`: one line per cost
/// table, fused first, then the same table climbing parent pointers.
fn fused_and_climbing(
    table: &Table,
    costs: &NodeCostTable,
    run: impl Fn(&NodeCostTable) -> f64,
) -> String {
    let climbing = costs.clone().without_join_tables();
    [costs, &climbing]
        .map(|c| {
            let (loss, counters) = counted(|| run(c));
            assert_eq!(table.num_rows(), TABLE_ROWS);
            format!("{:016x} {counters}", loss.to_bits())
        })
        .join("\n")
}

/// The row-scanning algorithms' inputs: 305 ART rows leave MDAV five
/// stragglers at k = 10.
const TABLE_ROWS: usize = 305;

fn row_scan_input() -> (Table, NodeCostTable) {
    let table = art::generate(TABLE_ROWS, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    (table, costs)
}

#[test]
fn nearest_neighbor_k1_counters_are_pinned() {
    let (table, costs) = row_scan_input();
    pinned("Algorithm 3", GOLDEN_K1_NN, || {
        fused_and_climbing(&table, &costs, |c| {
            try_k1_anonymize(&table, c, 10, K1Method::NearestNeighbors)
                .unwrap()
                .loss
        })
    });
}

#[test]
fn kk_counters_are_pinned() {
    let (table, costs) = row_scan_input();
    pinned("kk", GOLDEN_KK, || {
        fused_and_climbing(&table, &costs, |c| {
            try_kk_anonymize(&table, c, &KkConfig::new(10))
                .unwrap()
                .loss
        })
    });
}

#[test]
fn global_counters_are_pinned() {
    // At k = 10 this table needs no Algorithm 6 upgrade; at k = 3 it
    // needs 64.
    let (table, costs) = row_scan_input();
    pinned("global", GOLDEN_GLOBAL, || {
        fused_and_climbing(&table, &costs, |c| {
            try_global_1k_anonymize(&table, c, &KkConfig::new(3))
                .unwrap()
                .loss
        })
    });
}

#[test]
fn forest_counters_are_pinned() {
    let (table, costs) = row_scan_input();
    pinned("forest", GOLDEN_FOREST, || {
        fused_and_climbing(&table, &costs, |c| {
            try_forest_k_anonymize(&table, c, 10)
                .unwrap()
                .into_inner()
                .loss
        })
    });
}

#[test]
fn mdav_counters_are_pinned() {
    let (table, costs) = row_scan_input();
    pinned("MDAV", GOLDEN_MDAV, || {
        fused_and_climbing(&table, &costs, |c| {
            try_mdav_k_anonymize(&table, c, 10).unwrap().loss
        })
    });
}

const GOLDEN_K1_NN: &str = concat!(
    "400018f9ec19986f {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":16470,",
    "\"climb_fallback_hits\":0,\"pair_cost_evals\":92720,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,\"k1_rows_expanded\":305,",
    "\"one_k_upgrades\":0,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":8901120,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}\n",
    "400018f9ec19986f {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":0,",
    "\"climb_fallback_hits\":572790,\"pair_cost_evals\":92720,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,\"k1_rows_expanded\":305,",
    "\"one_k_upgrades\":0,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":0,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_KK: &str = concat!(
    "3ff7ea7d7ab15a12 {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":16626,",
    "\"climb_fallback_hits\":0,\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,\"k1_rows_expanded\":305,",
    "\"one_k_upgrades\":26,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":79370016,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}\n",
    "3ff7ea7d7ab15a12 {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":0,",
    "\"climb_fallback_hits\":4977252,\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,\"k1_rows_expanded\":305,",
    "\"one_k_upgrades\":26,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":0,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_GLOBAL: &str = concat!(
    "3fecef7628ba1894 {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":4296,",
    "\"climb_fallback_hits\":0,\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":65,\"oracle_recomputes\":65,\"upgrade_steps\":64,",
    "\"deficient_records\":56,\"forest_rounds\":0,\"k1_rows_expanded\":305,",
    "\"one_k_upgrades\":42,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":18788448,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}\n",
    "3fecef7628ba1894 {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":0,",
    "\"climb_fallback_hits\":1178574,\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":65,\"oracle_recomputes\":65,\"upgrade_steps\":64,",
    "\"deficient_records\":56,\"forest_rounds\":0,\"k1_rows_expanded\":305,",
    "\"one_k_upgrades\":42,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":0,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_FOREST: &str = concat!(
    "4000e76e838d1a2d {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":0,",
    "\"climb_fallback_hits\":0,\"pair_cost_evals\":101434,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":3,\"k1_rows_expanded\":0,",
    "\"one_k_upgrades\":0,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":9737664,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}\n",
    "4000e76e838d1a2d {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":0,",
    "\"climb_fallback_hits\":608604,\"pair_cost_evals\":101434,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":3,\"k1_rows_expanded\":0,",
    "\"one_k_upgrades\":0,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":0,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}",
);
const GOLDEN_MDAV: &str = concat!(
    "40005b0d783eb478 {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":22920,",
    "\"climb_fallback_hits\":0,\"pair_cost_evals\":7230,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,\"k1_rows_expanded\":0,",
    "\"one_k_upgrades\":0,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":946080,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}\n",
    "40005b0d783eb478 {",
    "\"merges_performed\":0,\"nn_rescans\":0,\"join_table_hits\":0,",
    "\"climb_fallback_hits\":82050,\"pair_cost_evals\":7230,\"hk_augmenting_passes\":0,",
    "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
    "\"deficient_records\":0,\"forest_rounds\":0,\"k1_rows_expanded\":0,",
    "\"one_k_upgrades\":0,\"node_cost_tables\":0,\"cluster_dist_evals\":0,",
    "\"cache_repairs\":0,\"signature_bytes_streamed\":0,\"mondrian_splits\":0,",
    "\"mondrian_groups_packed\":0,\"shards_built\":0,\"shard_rows_max\":0,",
    "\"boundary_repairs\":0,\"distinct_tuples\":0,\"serve_batches_applied\":0,",
    "\"serve_rows_ingested\":0,\"serve_rows_absorbed\":0,\"serve_reopt_runs\":0,",
    "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,\"serve_journal_bytes_compacted\":0",
    "}",
);
