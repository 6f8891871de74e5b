//! End-to-end guarantees of the shard-and-conquer pipeline, checked with
//! the independent `kanon-verify` crate (not the pipeline's own
//! bookkeeping):
//!
//! 1. On adversarial small tables (random rows, random k, aggressive
//!    shard caps) the sharded output is **globally** k-anonymous, and
//!    under the ℓ-diverse engine every output class keeps ≥ ℓ distinct
//!    sensitive values.
//! 2. Output is byte-identical across `KANON_THREADS` ∈ {1, 2, 8}.
//! 3. Under a tiny `KANON_WORK_BUDGET` the pipeline degrades to a
//!    `BudgetExhausted` result that still verifies.

use kanon_algos::{
    try_sharded_k_anonymize, try_sharded_l_diverse_k_anonymize, ShardConfig, ShardedOutput,
};
use kanon_core::record::Record;
use kanon_core::schema::{SchemaBuilder, SharedSchema};
use kanon_core::table::Table;
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_parallel::with_threads;
use kanon_verify::{is_k_anonymous, is_l_diverse};
use proptest::prelude::*;
use std::sync::Arc;

fn small_schema() -> SharedSchema {
    SchemaBuilder::new()
        .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
        .numeric_with_intervals("v", 0, 15, &[4, 8])
        .build_shared()
        .unwrap()
}

/// An adversarial random table: value skew, duplicates, and runs.
fn random_table(seed: u64, n: usize) -> Table {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let s = small_schema();
    let rows = (0..n)
        .map(|_| {
            let c = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(0..4)
            };
            let v = if rng.gen_bool(0.3) {
                7
            } else {
                rng.gen_range(0..16)
            };
            Record::from_raw([c, v])
        })
        .collect();
    Table::new(s, rows).unwrap()
}

fn fingerprint(out: &ShardedOutput) -> (String, u64, usize, usize, usize) {
    (
        format!("{:?}", out.out.clustering),
        out.out.loss.to_bits(),
        out.stats.shards_built,
        out.stats.shard_rows_max,
        out.stats.boundary_repairs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_k_holds_globally_and_across_threads(
        seed in any::<u64>(),
        n in 20usize..90,
        k in 2usize..5,
        shard_max in 8usize..30,
    ) {
        let table = random_table(seed, n);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let cfg = ShardConfig::new(k).with_shard_max(shard_max);
        let base = with_threads(1, || try_sharded_k_anonymize(&table, &costs, &cfg).unwrap().into_inner());
        prop_assert!(is_k_anonymous(&base.out.table, k));
        prop_assert!(kanon_core::generalize::is_generalization_of(&table, &base.out.table).unwrap());
        for threads in [2usize, 8] {
            let run = with_threads(threads, || try_sharded_k_anonymize(&table, &costs, &cfg).unwrap().into_inner());
            prop_assert_eq!(fingerprint(&run), fingerprint(&base), "threads = {}", threads);
        }
    }

    #[test]
    fn sharded_ldiv_holds_globally(
        seed in any::<u64>(),
        n in 24usize..80,
        k in 2usize..5,
        shard_max in 10usize..30,
    ) {
        let table = random_table(seed, n);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let sensitive: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let l = 2usize;
        let cfg = ShardConfig::new(k).with_l(l).with_shard_max(shard_max);
        let base = with_threads(1, || {
            try_sharded_l_diverse_k_anonymize(&table, &costs, &sensitive, &cfg).unwrap().into_inner()
        });
        prop_assert!(is_k_anonymous(&base.out.table, k));
        prop_assert!(is_l_diverse(&base.out.table, &sensitive, l).unwrap());
        let run = with_threads(8, || {
            try_sharded_l_diverse_k_anonymize(&table, &costs, &sensitive, &cfg).unwrap().into_inner()
        });
        prop_assert_eq!(fingerprint(&run), fingerprint(&base));
    }

    #[test]
    fn budget_exhaustion_still_verifies(
        seed in any::<u64>(),
        n in 40usize..90,
        budget in 1u64..40,
    ) {
        let table = random_table(seed, n);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let cfg = ShardConfig::new(3).with_shard_max(16);
        let out = kanon_obs::with_work_budget(budget, || {
            try_sharded_k_anonymize(&table, &costs, &cfg).unwrap()
        });
        // A tiny budget must trip (the partition alone counts work);
        // larger ones may or may not — either way the result verifies.
        let result = out.into_inner();
        prop_assert!(is_k_anonymous(&result.out.table, 3));
    }
}

#[test]
fn sharded_matches_art_scale_run() {
    // A mid-size ART run through shards stays verifiable and close to
    // the monolithic loss (the EXPERIMENTS E-S4 bound is checked on the
    // real bench datasets; this is the fast in-tree guard).
    let table = art::generate(600, 11);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let sharded = try_sharded_k_anonymize(&table, &costs, &ShardConfig::new(5).with_shard_max(150))
        .unwrap()
        .into_inner();
    assert!(is_k_anonymous(&sharded.out.table, 5));
    assert!(sharded.stats.shards_built >= 4);
    let mono = kanon_algos::try_agglomerative_k_anonymize(
        &table,
        &costs,
        &kanon_algos::AgglomerativeConfig::new(5),
    )
    .unwrap()
    .into_inner();
    // Sharding trades some loss for tractability; keep the overhead
    // bounded so regressions in the repair phase are visible.
    assert!(
        sharded.out.loss <= mono.loss * 1.30 + 1e-9,
        "sharded loss {} vs monolithic {}",
        sharded.out.loss,
        mono.loss
    );
}

#[test]
fn shards_reuse_the_worker_pool() {
    // Exercise the parallel dispatch path explicitly (threads > shards
    // forces the inner with_threads split) — output must match serial.
    let table = random_table(99, 80);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let cfg = ShardConfig::new(3).with_shard_max(30);
    let serial = with_threads(1, || {
        try_sharded_k_anonymize(&table, &costs, &cfg)
            .unwrap()
            .into_inner()
    });
    let wide = with_threads(8, || {
        try_sharded_k_anonymize(&table, &costs, &cfg)
            .unwrap()
            .into_inner()
    });
    assert_eq!(fingerprint(&serial), fingerprint(&wide));
    let _ = Arc::strong_count(table.schema()); // schema stays shared across shards
}
