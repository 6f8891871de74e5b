//! Determinism guarantees of the parallel execution layer and the join
//! kernel:
//!
//! 1. Every anonymizer produces **byte-identical** output at any worker
//!    count (`kanon_parallel::with_threads(1)` vs 2, 4 and 8 workers) —
//!    the primitives in `kanon-parallel` combine per-index results in
//!    index order, and all argmin/top-2 selections use total orders with
//!    index tie-breaks.
//! 2. The dense pairwise join table is a **pure speed knob**: rebuilding
//!    every hierarchy with a budget of `0` (climb-only joins) changes no
//!    clustering and no loss.
//! 3. The `kanon-obs` **work counters** are byte-identical at any worker
//!    count: per-index work is thread-count invariant (point 1) and
//!    counter addition commutes, so the deterministic counters section of
//!    a stats report must not change between 1 and N workers.

use kanon_algos::{
    k1_expansion, k1_nearest_neighbors, try_agglomerative_k_anonymize, try_best_k_anonymize,
    try_forest_k_anonymize, try_fulldomain_k_anonymize, try_global_1k_anonymize, try_kk_anonymize,
    try_l_diverse_k_anonymize, try_mondrian_k_anonymize, try_samarati_k_anonymize,
    try_sharded_k_anonymize, try_sharded_l_diverse_k_anonymize, AgglomerativeConfig,
    ClusterDistance, GlobalConfig, K1Method, KkConfig, LDiverseConfig, ShardConfig, ShardStats,
};
use kanon_core::table::Table;
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_parallel::with_threads;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs every algorithm family once and returns a comparable fingerprint:
/// per-algorithm loss plus the full generalized tables' debug rendering
/// (node ids per row — stricter than loss equality).
fn fingerprint(table: &Table, costs: &NodeCostTable, k: usize) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    for modified in [false, true] {
        let cfg = AgglomerativeConfig::new(k).with_modified(modified);
        let r = try_agglomerative_k_anonymize(table, costs, &cfg)
            .unwrap()
            .into_inner();
        out.push((
            format!("agglo-mod={modified}"),
            r.loss,
            format!("{:?}", r.clustering),
        ));
    }
    let r = try_forest_k_anonymize(table, costs, k)
        .unwrap()
        .into_inner();
    out.push(("forest".into(), r.loss, format!("{:?}", r.clustering)));
    let r = k1_nearest_neighbors(table, costs, k).unwrap();
    out.push(("k1-nn".into(), r.loss, format!("{:?}", r.table.rows())));
    let r = k1_expansion(table, costs, k).unwrap();
    out.push(("k1-exp".into(), r.loss, format!("{:?}", r.table.rows())));
    let sensitive: Vec<u32> = (0..table.num_rows()).map(|i| (i % 3) as u32).collect();
    let r = try_l_diverse_k_anonymize(table, costs, &sensitive, &LDiverseConfig::new(k, 2))
        .unwrap()
        .into_inner();
    out.push(("ldiv".into(), r.loss, format!("{:?}", r.clustering)));
    out
}

/// [`fingerprint`] plus the end-to-end pipelines built from those
/// families: (k,k) with either (k,1) stage, global (1,k), and the
/// best-k grid.
fn pipeline_fingerprint(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> Vec<(String, f64, String)> {
    let mut out = fingerprint(table, costs, k);
    for method in [K1Method::NearestNeighbors, K1Method::Expansion] {
        let r = try_kk_anonymize(table, costs, &KkConfig::new(k).with_method(method)).unwrap();
        out.push((
            format!("kk-{}", method.name()),
            r.loss,
            format!("{:?}", r.table.rows()),
        ));
    }
    let r = try_global_1k_anonymize(table, costs, &GlobalConfig::new(k)).unwrap();
    out.push((
        "global".into(),
        r.loss,
        format!(
            "{:?} {} {}",
            r.table.rows(),
            r.upgrade_steps,
            r.deficient_records
        ),
    ));
    let distances = [ClusterDistance::D1, ClusterDistance::D3];
    let (r, winner) = try_best_k_anonymize(table, costs, k, &distances, false)
        .unwrap()
        .into_inner();
    out.push((
        "best-k".into(),
        r.loss,
        format!("{winner:?} {:?}", r.clustering),
    ));
    out
}

/// The four distances of Sec. V-A.2 plus the asymmetric Nergiz–Clifton
/// variant.
const ALL_DISTANCES: [ClusterDistance; 5] = [
    ClusterDistance::D1,
    ClusterDistance::D2,
    ClusterDistance::D3,
    ClusterDistance::d4(),
    ClusterDistance::NergizClifton,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_algorithms_are_thread_count_invariant(seed in 0u64..1_000_000, k in 2usize..6) {
        // Large enough that every parallel primitive actually splits work
        // (above MIN_PARALLEL_ITEMS) yet small enough to run in CI.
        let table = art::generate(96, seed);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let serial = with_threads(1, || pipeline_fingerprint(&table, &costs, k));
        for threads in [2usize, 4, 8] {
            let parallel = with_threads(threads, || pipeline_fingerprint(&table, &costs, k));
            prop_assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                prop_assert_eq!(&s.0, &p.0);
                prop_assert!(
                    s.1.to_bits() == p.1.to_bits(),
                    "{}: loss differs at {} threads: {} vs {}", s.0, threads, s.1, p.1
                );
                prop_assert_eq!(&s.2, &p.2, "{}: output differs at {} threads", s.0, threads);
            }
        }
    }

    #[test]
    fn work_counters_are_thread_count_invariant(seed in 0u64..1_000_000, k in 2usize..6) {
        // The full pipeline — every algorithm family plus the cost-table
        // precompute and the Algorithm 5/6 chain — must report the exact
        // same deterministic counters at 1 and 8 workers. (Timers and
        // parallel-job tallies live outside counters_json by design.)
        use kanon_algos::{global_1k_from_kk, try_one_k_anonymize};
        use kanon_obs::Collector;
        let table = art::generate(96, seed);
        let run = |threads: usize| {
            let c = Collector::new();
            {
                let _g = c.install();
                with_threads(threads, || {
                    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
                    fingerprint(&table, &costs, k);
                    let k1 = k1_expansion(&table, &costs, k).unwrap();
                    let kk = try_one_k_anonymize(&table, &k1.table, &costs, k).unwrap();
                    global_1k_from_kk(&table, &kk.table, &costs, k).unwrap();
                });
            }
            c.report()
        };
        let serial = run(1);
        let parallel = run(8);
        prop_assert_eq!(
            serial.counters_json(),
            parallel.counters_json(),
            "deterministic counters differ across thread counts"
        );
        // Sanity: the pipeline actually exercised the instrumented paths.
        use kanon_obs::Counter;
        prop_assert!(serial.counter(Counter::MergesPerformed) > 0);
        // The packed-kernel byte counter is deterministic (bytes per
        // fused probe × probes, both thread-count invariant), so it
        // lives inside the counters_json equality above; check it
        // actually moved.
        prop_assert!(serial.counter(Counter::SignatureBytesStreamed) > 0);
        prop_assert!(serial.counter(Counter::PairCostEvals) > 0);
        prop_assert!(serial.counter(Counter::K1RowsExpanded) > 0);
        prop_assert!(serial.counter(Counter::SccPasses) > 0);
        prop_assert!(serial.counter(Counter::NodeCostTables) > 0);
        prop_assert!(
            serial.counter(Counter::OracleRecomputes)
                <= serial.counter(Counter::UpgradeSteps) + 1
        );
    }

    #[test]
    fn ldiversity_engine_matches_naive_reference(seed in 0u64..1_000_000, k in 2usize..6, l in 2usize..4) {
        // The engine-based ℓ-diversity run (shared nearest-neighbour
        // cache, O(n²) expected) must be byte-identical — clustering and
        // loss bits — to the original all-pairs O(n³) loop, which is
        // kept as `l_diverse_reference`. Random tables,
        // sizes straddling the parallel thresholds, every distance
        // function and both thread counts, so the cache's exactness
        // invariants, the engine's one distance path and the leftover
        // distribution (sort-once vs sort-per-push) are pinned together.
        let n = 40 + (seed as usize % 30);
        let table = art::generate(n, seed);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let sensitive: Vec<u32> = (0..n).map(|i| (i % 5) as u32).collect();
        for distance in ALL_DISTANCES {
            let cfg = LDiverseConfig { distance, ..LDiverseConfig::new(k, l) };
            let reference = kanon_algos::ldiversity::l_diverse_reference(
                &table, &costs, &sensitive, &cfg,
            ).unwrap();
            for threads in [1usize, 4] {
                let fast = with_threads(threads, || {
                    try_l_diverse_k_anonymize(&table, &costs, &sensitive, &cfg).unwrap().into_inner()
                });
                prop_assert_eq!(
                    format!("{:?}", &fast.clustering),
                    format!("{:?}", &reference.clustering),
                    "{}: clustering differs from naive reference (threads={})", distance, threads
                );
                prop_assert!(
                    fast.loss.to_bits() == reference.loss.to_bits(),
                    "{}: loss differs from naive reference: {} vs {} (threads={})",
                    distance, fast.loss, reference.loss, threads
                );
            }
        }
    }

    #[test]
    fn join_table_is_a_pure_speed_knob(seed in 0u64..1_000_000, k in 2usize..6) {
        let with_table = art::generate(72, seed);
        // Same rows under a schema whose hierarchies were rebuilt with a
        // zero node budget: every join falls back to the parent-pointer
        // climb.
        let climb_schema = Arc::new(with_table.schema().with_join_table_budget(0));
        let climb_only = Table::new(climb_schema, with_table.rows().to_vec()).unwrap();
        let costs_t = NodeCostTable::compute(&with_table, &EntropyMeasure);
        let costs_c = NodeCostTable::compute(&climb_only, &EntropyMeasure);
        let a = pipeline_fingerprint(&with_table, &costs_t, k);
        let b = pipeline_fingerprint(&climb_only, &costs_c, k);
        for (s, p) in a.iter().zip(&b) {
            prop_assert!(
                s.1.to_bits() == p.1.to_bits(),
                "{}: loss differs with join table on/off: {} vs {}", s.0, s.1, p.1
            );
            prop_assert_eq!(&s.2, &p.2, "{}: output differs with join table on/off", s.0);
        }
    }
}

#[test]
fn baselines_are_thread_count_invariant() {
    // The four baselines (full-domain, MDAV, Samarati, exhaustive
    // optimal) on sizes they can afford; the exhaustive oracle gets a
    // tiny table of its own.
    use kanon_algos::{
        try_fulldomain_k_anonymize, try_mdav_k_anonymize, try_optimal_k_anonymize,
        try_samarati_k_anonymize,
    };
    let table = art::generate(24, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let tiny = art::generate(9, 7);
    let tiny_costs = NodeCostTable::compute(&tiny, &EntropyMeasure);
    let k = 3;
    let run = || {
        vec![
            format!(
                "{:?}",
                try_fulldomain_k_anonymize(&table, &costs, k).unwrap()
            ),
            format!("{:?}", try_mdav_k_anonymize(&table, &costs, k).unwrap()),
            format!(
                "{:?}",
                try_samarati_k_anonymize(&table, &costs, k, 2).unwrap()
            ),
            format!(
                "{:?}",
                try_optimal_k_anonymize(&tiny, &tiny_costs, k).unwrap()
            ),
        ]
    };
    let serial = with_threads(1, run);
    for threads in [2usize, 8] {
        assert_eq!(with_threads(threads, run), serial, "threads = {threads}");
    }
}

#[test]
fn agglomerative_losses_are_pinned_for_every_distance() {
    // Loss bits of basic and modified Algorithm 1 under each distance on
    // one fixed table. A change in how the engine evaluates a distance —
    // operands swapped, or the one-sided `eval` where Nergiz–Clifton
    // needs `eval_symmetric` — moves at least one of these.
    const PINNED: [(bool, &str, u64); 10] = [
        (false, "D1", 0x3ff5d8b1d863bb51),
        (false, "D2", 0x3ff60bde9fcc6573),
        (false, "D3", 0x3ff4f6f5e59e73f1),
        (false, "D4", 0x3ff492e5e7c91651),
        (false, "NC", 0x3ff48df8a35a9ad7),
        (true, "D1", 0x3ff49e34a6b481be),
        (true, "D2", 0x3ff54caa968365f5),
        (true, "D3", 0x3ff4ebcc02006da8),
        (true, "D4", 0x3ff492e5e7c91651),
        (true, "NC", 0x3ff4833fa780ac23),
    ];
    let table = art::generate(150, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let mut got = Vec::new();
    for modified in [false, true] {
        for distance in ALL_DISTANCES {
            let cfg = AgglomerativeConfig::new(4)
                .with_distance(distance)
                .with_modified(modified);
            let out = try_agglomerative_k_anonymize(&table, &costs, &cfg)
                .unwrap()
                .into_inner();
            got.push((modified, distance.name(), out.loss.to_bits()));
        }
    }
    assert_eq!(got, PINNED);
}

#[test]
fn top_down_and_lattice_searches_are_pinned() {
    // Absolute results of the two shared searches — the top-down splitter
    // (Mondrian, the shard partitioner) and the full-domain lattice
    // (full-domain recoding, Samarati) — on one fixed table. The
    // cross-run tests above only compare runs with each other; a moved
    // split, shard boundary or lattice order changes these.
    let table = art::generate(300, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);

    let m = try_mondrian_k_anonymize(&table, &costs, 4)
        .unwrap()
        .into_inner();
    assert_eq!(
        (m.loss.to_bits(), m.clustering.num_clusters()),
        (0x3ff44650a675b78f, 58)
    );

    let rooted = vec![(0, 0), (17, 1), (123, 2), (250, 0)];
    let sensitive: Vec<u32> = (0..300u32).map(|i| i % 3).collect();
    let eight_shards = ShardStats {
        shards_built: 8,
        shard_rows_max: 49,
        boundary_repairs: 0,
    };
    let base = ShardConfig::new(4).with_shard_max(60);
    let runs = [
        try_sharded_k_anonymize(&table, &costs, &base),
        try_sharded_k_anonymize(&table, &costs, &base.clone().with_rooted_cells(rooted)),
        try_sharded_l_diverse_k_anonymize(&table, &costs, &sensitive, &base.with_l(2)),
    ];
    let got: Vec<_> = runs
        .into_iter()
        .map(|run| {
            let out = run.unwrap().into_inner();
            (out.stats, out.out.loss.to_bits())
        })
        .collect();
    assert_eq!(
        got,
        [
            (eight_shards, 0x3ff345d5327a885b),
            (eight_shards, 0x3ff38d60c43b799d),
            (eight_shards, 0x3ff39bbd688b694c),
        ]
    );

    let f = try_fulldomain_k_anonymize(&table, &costs, 4).unwrap();
    assert_eq!(
        (
            f.levels.0.as_slice(),
            f.nodes_tested,
            f.lattice_size,
            f.output.loss.to_bits()
        ),
        (&[1, 2, 1, 3, 0, 3][..], 1088, 1152, 0x3ffa4f0fb70ed4d5)
    );

    let s = try_samarati_k_anonymize(&table, &costs, 4, 3).unwrap();
    assert_eq!(
        (
            s.levels.as_slice(),
            s.height,
            s.suppressed.as_slice(),
            s.output.loss.to_bits()
        ),
        (
            &[1, 1, 1, 3, 0, 3][..],
            9,
            &[55, 112, 151][..],
            0x3ff7dcfe8f651313
        )
    );
}

#[test]
fn kk_and_global_outputs_are_pinned() {
    // Absolute results of Algorithm 5 after either (k,1) stage and of
    // Algorithm 6 on one fixed table: an FNV-1a hash over every output
    // node id, and the loss bits. A change in how an upgrade is priced
    // or applied moves at least one of these.
    fn rows_hash(rows: &[kanon_core::GeneralizedRecord]) -> u64 {
        rows.iter()
            .flat_map(|r| r.nodes())
            .fold(0xcbf2_9ce4_8422_2325, |h, n| {
                (h ^ u64::from(n.0)).wrapping_mul(0x0100_0000_01b3)
            })
    }
    let table = art::generate(300, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let mut got = Vec::new();
    for method in [K1Method::NearestNeighbors, K1Method::Expansion] {
        let r = try_kk_anonymize(&table, &costs, &KkConfig::new(4).with_method(method)).unwrap();
        got.push((method.name(), rows_hash(r.table.rows()), r.loss.to_bits()));
    }
    let r = try_global_1k_anonymize(&table, &costs, &GlobalConfig::new(4)).unwrap();
    got.push(("global", rows_hash(r.table.rows()), r.loss.to_bits()));
    assert_eq!(
        got,
        [
            ("Alg3+5", 0x760a0f4bd60f19a0, 0x3ff36a22bee2419e),
            ("Alg4+5", 0xf428edf362d44f79, 0x3fefd50ec5559782),
            ("global", 0x74837149e7414d76, 0x3ff02c01d1da1b9c),
        ]
    );
}
