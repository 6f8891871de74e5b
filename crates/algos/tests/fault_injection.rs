//! Fault-injection and budget-degradation tests for the algorithm layer.
//!
//! WARNING: the `kanon-fault` registry is process-global. Every test in
//! this binary goes through `kanon_fault::scoped` (which serializes armed
//! sections on a lock); budget-only tests use `scoped("")` so they cannot
//! observe another test's armed points. Do not add tests here that skip
//! `scoped` — put them in a different integration-test binary.

use kanon_algos::{
    try_agglomerative_k_anonymize, try_best_k_anonymize, try_forest_k_anonymize, try_kk_anonymize,
    try_l_diverse_k_anonymize, try_mondrian_k_anonymize, try_sharded_k_anonymize,
    try_sharded_l_diverse_k_anonymize, AgglomerativeConfig, Budgeted, ClusterDistance, KAnonOutput,
    KkConfig, LDiverseConfig, ShardConfig, ShardedOutput,
};
use kanon_core::{KanonError, KanonResult};
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_parallel::with_threads;
use kanon_verify::is_k_anonymous;

fn setup(n: usize, seed: u64) -> (kanon_core::Table, NodeCostTable) {
    let table = art::generate(n, seed);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    (table, costs)
}

#[test]
fn injected_merge_fault_is_a_typed_error() {
    let _faults = kanon_fault::scoped("algos/agglomerative/merge=once:2");
    let (table, costs) = setup(24, 7);
    let cfg = AgglomerativeConfig::new(3);
    let err = try_agglomerative_k_anonymize(&table, &costs, &cfg).unwrap_err();
    assert_eq!(
        err,
        KanonError::FaultInjected {
            point: "algos/agglomerative/merge".to_string()
        }
    );
    assert_eq!(err.exit_code(), 1);
}

/// A synthetic sensitive labelling with three classes: feasible for every
/// ℓ ≤ 3 and forcing genuine mixing during the merge loop.
fn sensitive_mod3(n: usize) -> Vec<u32> {
    (0..n).map(|i| (i % 3) as u32).collect()
}

/// Distinct sensitive values of the least diverse output class.
fn min_class_diversity(clustering: &kanon_core::cluster::Clustering, sensitive: &[u32]) -> usize {
    clustering
        .clusters()
        .iter()
        .map(|c| {
            let mut vals: Vec<u32> = c.iter().map(|&i| sensitive[i as usize]).collect();
            vals.sort_unstable();
            vals.dedup();
            vals.len()
        })
        .min()
        .unwrap()
}

#[test]
fn injected_ldiversity_merge_fault_is_a_typed_error() {
    // The engine arms the policy's failpoint, so the ℓ-diversity loop now
    // has the same fault surface as the plain agglomerative one.
    let _faults = kanon_fault::scoped("algos/ldiversity/merge=once:2");
    let (table, costs) = setup(24, 7);
    let sensitive = sensitive_mod3(24);
    let cfg = LDiverseConfig::new(3, 2);
    let err = try_l_diverse_k_anonymize(&table, &costs, &sensitive, &cfg).unwrap_err();
    assert_eq!(
        err,
        KanonError::FaultInjected {
            point: "algos/ldiversity/merge".to_string()
        }
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn budget_exhaustion_ldiversity_yields_valid_diverse_partial_result() {
    let _faults = kanon_fault::scoped("");
    let (table, costs) = setup(64, 21);
    let (k, l) = (4, 2);
    let sensitive = sensitive_mod3(64);
    let cfg = LDiverseConfig::new(k, l);
    let full = try_l_diverse_k_anonymize(&table, &costs, &sensitive, &cfg)
        .unwrap()
        .into_inner();
    let budgeted = kanon_obs::with_work_budget(500, || {
        try_l_diverse_k_anonymize(&table, &costs, &sensitive, &cfg).unwrap()
    });
    assert!(budgeted.is_exhausted(), "tiny budget must trip mid-run");
    let out = budgeted.into_inner();
    // Degraded output stays valid under BOTH constraints.
    assert!(out.clustering.min_cluster_size() >= k);
    assert!(is_k_anonymous(&out.table, k));
    assert!(min_class_diversity(&out.clustering, &sensitive) >= l);
    assert!(out.loss >= full.loss - 1e-12);
}

#[test]
fn injected_forest_round_fault_is_a_typed_error() {
    let _faults = kanon_fault::scoped("algos/forest/round=once:1");
    let (table, costs) = setup(24, 7);
    let err = try_forest_k_anonymize(&table, &costs, 3).unwrap_err();
    assert_eq!(
        err,
        KanonError::FaultInjected {
            point: "algos/forest/round".to_string()
        }
    );
}

#[test]
fn injected_k1_row_fault_is_typed_even_from_a_worker() {
    // The k1 row failpoint sits inside `kanon_parallel::map` closures, so
    // the injection travels panic → WorkerPanic{fault_point} → typed
    // error. Run above MIN_PARALLEL_ITEMS so work genuinely splits.
    let (table, costs) = setup(96, 11);
    for threads in [1usize, 4] {
        // Fresh scope per run: `once` ordinals are consumed globally.
        let _faults = kanon_fault::scoped("algos/k1/row=once:5");
        let err = with_threads(threads, || {
            try_kk_anonymize(&table, &costs, &KkConfig::new(3)).unwrap_err()
        });
        assert_eq!(
            err,
            KanonError::FaultInjected {
                point: "algos/k1/row".to_string()
            },
            "threads={threads}"
        );
    }
}

#[test]
fn injected_one_k_upgrade_fault_is_a_typed_error() {
    let _faults = kanon_fault::scoped("algos/one_k/upgrade=once:3");
    let (table, costs) = setup(24, 3);
    let err = try_kk_anonymize(&table, &costs, &KkConfig::new(3)).unwrap_err();
    assert_eq!(
        err,
        KanonError::FaultInjected {
            point: "algos/one_k/upgrade".to_string()
        }
    );
}

#[test]
fn every_mode_periodic_fault_fires_on_schedule() {
    // every:1000 never reached by a tiny run — must succeed; every:1
    // trips on the very first merge.
    let (table, costs) = setup(24, 9);
    let cfg = AgglomerativeConfig::new(3);
    {
        let _faults = kanon_fault::scoped("algos/agglomerative/merge=every:1000");
        assert!(try_agglomerative_k_anonymize(&table, &costs, &cfg).is_ok());
    }
    {
        let _faults = kanon_fault::scoped("algos/agglomerative/merge=every:1");
        assert!(try_agglomerative_k_anonymize(&table, &costs, &cfg).is_err());
    }
}

#[test]
fn budget_exhaustion_yields_valid_k_anonymous_partial_result() {
    let _faults = kanon_fault::scoped("");
    let (table, costs) = setup(64, 21);
    let k = 4;
    let cfg = AgglomerativeConfig::new(k);
    let full = try_agglomerative_k_anonymize(&table, &costs, &cfg)
        .unwrap()
        .into_inner();
    let budgeted = kanon_obs::with_work_budget(500, || {
        try_agglomerative_k_anonymize(&table, &costs, &cfg).unwrap()
    });
    assert!(budgeted.is_exhausted(), "tiny budget must trip mid-run");
    let out = budgeted.into_inner();
    assert!(out.clustering.min_cluster_size() >= k);
    assert!(is_k_anonymous(&out.table, k));
    // Degraded output is coarser (never better) than the full run.
    assert!(out.loss >= full.loss - 1e-12);
}

/// One budget-aware run, reporting its verdict and `{:?}` of its output.
type EntryPoint<'a> = &'a dyn Fn() -> (bool, String);

fn plain(out: &KAnonOutput) -> &KAnonOutput {
    out
}

fn winner(out: &(KAnonOutput, AgglomerativeConfig)) -> &KAnonOutput {
    &out.0
}

fn sharded(out: &ShardedOutput) -> &KAnonOutput {
    &out.out
}

/// Checks that a budget-aware run's output, degraded or not, is a
/// k-anonymous, ℓ-diverse partition of every row, and returns its
/// verdict and `{:?}`.
fn checked<T: std::fmt::Debug>(
    run: KanonResult<Budgeted<T>>,
    out: fn(&T) -> &KAnonOutput,
    (k, l, sensitive): (usize, usize, &[u32]),
) -> (bool, String) {
    let run = run.unwrap();
    let o = out(run.inner());
    assert!(o.clustering.min_cluster_size() >= k);
    assert!(is_k_anonymous(&o.table, k));
    let covered: usize = o.clustering.clusters().iter().map(Vec::len).sum();
    assert_eq!(covered, sensitive.len());
    assert!(min_class_diversity(&o.clustering, sensitive) >= l);
    (run.is_exhausted(), format!("{run:?}"))
}

#[test]
fn every_budget_trip_point_is_thread_count_invariant() {
    // The budget is measured in deterministic work units and checked at
    // serial checkpoints, so every budget-aware entry point must degrade
    // to valid, byte-identical output at every thread count. The smaller
    // budget trips each of them; the larger one trips the engine clients
    // after some merges and lets the others finish.
    let _faults = kanon_fault::scoped("");
    let (table, costs) = setup(96, 23);
    let sensitive = sensitive_mod3(96);
    let (t, c, s, k) = (&table, &costs, &sensitive[..], 4);
    let (kanon, ldiv) = ((k, 1, s), (k, 2, s));
    let agg = AgglomerativeConfig::new(k);
    let modified = agg.with_modified(true);
    let grid = ClusterDistance::paper_variants();
    let l_cfg = LDiverseConfig::new(k, 2);
    let shard = ShardConfig::new(k).with_l(2).with_shard_max(30);
    let entry_points: [(&str, EntryPoint); 8] = [
        ("agglomerative", &|| {
            checked(try_agglomerative_k_anonymize(t, c, &agg), plain, kanon)
        }),
        ("modified", &|| {
            checked(try_agglomerative_k_anonymize(t, c, &modified), plain, kanon)
        }),
        ("best-k", &|| {
            checked(try_best_k_anonymize(t, c, k, &grid, true), winner, kanon)
        }),
        ("forest", &|| {
            checked(try_forest_k_anonymize(t, c, k), plain, kanon)
        }),
        ("mondrian", &|| {
            checked(try_mondrian_k_anonymize(t, c, k), plain, kanon)
        }),
        ("l-diversity", &|| {
            checked(try_l_diverse_k_anonymize(t, c, s, &l_cfg), plain, ldiv)
        }),
        ("sharded k", &|| {
            checked(try_sharded_k_anonymize(t, c, &shard), sharded, kanon)
        }),
        ("sharded l", &|| {
            checked(
                try_sharded_l_diverse_k_anonymize(t, c, s, &shard),
                sharded,
                ldiv,
            )
        }),
    ];
    for (name, run) in entry_points {
        for budget in [2_000, 8_000_000] {
            let runs: Vec<(bool, String)> = [1usize, 2, 8]
                .iter()
                .map(|&threads| with_threads(threads, || kanon_obs::with_work_budget(budget, run)))
                .collect();
            assert_eq!(
                runs[0], runs[1],
                "{name} at budget {budget}: 1 vs 2 threads"
            );
            assert_eq!(
                runs[0], runs[2],
                "{name} at budget {budget}: 1 vs 8 threads"
            );
            if budget == 2_000 {
                assert!(runs[0].0, "{name}: budget {budget} must trip");
            }
        }
    }
}

#[test]
fn huge_budget_completes_identically_to_unbudgeted_run() {
    let _faults = kanon_fault::scoped("");
    let (table, costs) = setup(48, 24);
    let cfg = AgglomerativeConfig::new(3);
    let plain = try_agglomerative_k_anonymize(&table, &costs, &cfg)
        .unwrap()
        .into_inner();
    let budgeted = kanon_obs::with_work_budget(u64::MAX, || {
        try_agglomerative_k_anonymize(&table, &costs, &cfg).unwrap()
    });
    assert!(!budgeted.is_exhausted());
    let out = budgeted.into_inner();
    assert_eq!(
        format!("{:?}", out.clustering),
        format!("{:?}", plain.clustering)
    );
    assert_eq!(out.loss.to_bits(), plain.loss.to_bits());
}

#[test]
fn injected_mondrian_split_fault_is_a_typed_error() {
    let _faults = kanon_fault::scoped("algos/mondrian/split=once:1");
    let (table, costs) = setup(40, 13);
    let err = kanon_algos::try_mondrian_k_anonymize(&table, &costs, 3).unwrap_err();
    assert_eq!(
        err,
        KanonError::FaultInjected {
            point: "algos/mondrian/split".to_string()
        }
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn injected_shard_partition_fault_is_a_typed_error() {
    let _faults = kanon_fault::scoped("algos/shard/partition=once:1");
    let (table, costs) = setup(120, 21);
    let cfg = kanon_algos::ShardConfig::new(3).with_shard_max(30);
    let err = kanon_algos::try_sharded_k_anonymize(&table, &costs, &cfg).unwrap_err();
    assert_eq!(
        err,
        KanonError::FaultInjected {
            point: "algos/shard/partition".to_string()
        }
    );
    assert_eq!(err.exit_code(), 1);
}
