//! End-to-end integration tests: every anonymizer on every Sec. VI
//! dataset, validated with the independent `kanon-verify` checkers, plus
//! the paper's utility orderings.

use kanon::algos::{try_forest_k_anonymize, try_k1_anonymize, K1Method};
use kanon::prelude::*;
use kanon::verify::{
    is_1k_anonymous, is_global_1k_anonymous, is_k1_anonymous, is_k_anonymous, is_kk_anonymous,
};

fn datasets() -> Vec<(&'static str, Table)> {
    vec![
        ("ART", kanon::data::art::generate(120, 42)),
        ("ADT", kanon::data::adult::generate(120, 42)),
        ("CMC", kanon::data::cmc::generate(120, 42).table),
    ]
}

#[test]
fn agglomerative_outputs_verify_on_all_datasets() {
    for (name, table) in datasets() {
        for k in [2, 5] {
            for (mname, costs) in [
                ("EM", NodeCostTable::compute(&table, &EntropyMeasure)),
                ("LM", NodeCostTable::compute(&table, &LmMeasure)),
            ] {
                for d in ClusterDistance::paper_variants() {
                    let cfg = AgglomerativeConfig::new(k).with_distance(d);
                    let out = try_agglomerative_k_anonymize(&table, &costs, &cfg)
                        .unwrap()
                        .into_inner();
                    assert!(
                        is_k_anonymous(&out.table, k),
                        "{name}/{mname}/{d}: output not {k}-anonymous"
                    );
                    assert!(
                        kanon::core::generalize::is_generalization_of(&table, &out.table).unwrap(),
                        "{name}/{mname}/{d}: not a row-wise generalization"
                    );
                    assert!((out.loss - costs.table_loss(&out.table)).abs() < 1e-12);
                }
            }
        }
    }
}

#[test]
fn forest_outputs_verify_on_all_datasets() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        for k in [2, 5, 10] {
            let out = try_forest_k_anonymize(&table, &costs, k)
                .unwrap()
                .into_inner();
            assert!(is_k_anonymous(&out.table, k), "{name} k={k}");
            assert!(
                out.clustering.max_cluster_size() <= 3 * k.max(2) - 3,
                "{name} k={k}"
            );
        }
    }
}

#[test]
fn k1_outputs_verify_on_all_datasets() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        for k in [2, 5] {
            for method in [K1Method::NearestNeighbors, K1Method::Expansion] {
                let out = try_k1_anonymize(&table, &costs, k, method).unwrap();
                assert!(
                    is_k1_anonymous(&table, &out.table, k).unwrap(),
                    "{name} k={k} {method:?}"
                );
                assert!(kanon::core::generalize::is_generalization_of(&table, &out.table).unwrap());
            }
        }
    }
}

#[test]
fn kk_outputs_verify_on_all_datasets() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        for k in [2, 5] {
            let out = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
            assert!(
                is_kk_anonymous(&table, &out.table, k).unwrap(),
                "{name} k={k}"
            );
            assert!(is_1k_anonymous(&table, &out.table, k).unwrap());
            assert!(is_k1_anonymous(&table, &out.table, k).unwrap());
        }
    }
}

#[test]
fn global_outputs_verify_on_all_datasets() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let k = 3;
        let out = try_global_1k_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
        assert!(
            is_global_1k_anonymous(&table, &out.table, k).unwrap(),
            "{name}: global check failed"
        );
        assert!(is_kk_anonymous(&table, &out.table, k).unwrap());
    }
}

#[test]
fn utility_orderings_hold() {
    // The two headline comparisons of the paper, on every dataset and
    // measure: (k,k) ≤ best k-anon ≤ forest (the latter as a ≤ since on
    // tiny/clean tables they may tie).
    for (name, table) in datasets() {
        for (mname, costs) in [
            ("EM", NodeCostTable::compute(&table, &EntropyMeasure)),
            ("LM", NodeCostTable::compute(&table, &LmMeasure)),
        ] {
            let k = 5;
            let (best, _) =
                try_best_k_anonymize(&table, &costs, k, &ClusterDistance::paper_variants(), true)
                    .unwrap()
                    .into_inner();
            let forest = try_forest_k_anonymize(&table, &costs, k)
                .unwrap()
                .into_inner();
            let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
            assert!(
                best.loss <= forest.loss + 1e-9,
                "{name}/{mname}: best k-anon {} > forest {}",
                best.loss,
                forest.loss
            );
            assert!(
                kk.loss <= best.loss + 1e-9,
                "{name}/{mname}: kk {} > best k-anon {}",
                kk.loss,
                best.loss
            );
        }
    }
}

#[test]
fn losses_are_monotone_in_k() {
    // Larger k ⇒ a more constrained problem ⇒ the anonymizers lose more.
    // (Heuristics are not formally monotone, but on these workloads the
    // produced losses are — this is also the visual shape of Figs. 2–3.)
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let mut prev = 0.0;
        for k in [2, 4, 8, 16] {
            let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
            assert!(
                kk.loss >= prev - 1e-9,
                "{name}: loss decreased from {prev} to {} at k={k}",
                kk.loss
            );
            prev = kk.loss;
        }
    }
}

#[test]
fn use_of_best_k_anonymize_reports_valid_winner() {
    let table = kanon::data::art::generate(80, 9);
    let costs = NodeCostTable::compute(&table, &LmMeasure);
    let (out, cfg) =
        try_best_k_anonymize(&table, &costs, 4, &ClusterDistance::paper_variants(), true)
            .unwrap()
            .into_inner();
    // Re-running the winning configuration reproduces the winning loss.
    let again = try_agglomerative_k_anonymize(&table, &costs, &cfg)
        .unwrap()
        .into_inner();
    assert_eq!(out.loss, again.loss);
}
