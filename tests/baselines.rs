//! Integration tests for the baseline algorithms (forest, Mondrian-style,
//! MDAV, Samarati, optimal full-domain) on the Sec. VI datasets: all
//! produce valid k-anonymizations, and the documented utility orderings
//! hold where they are theorems (not heuristics).

use kanon::algos::{
    try_forest_k_anonymize, try_fulldomain_k_anonymize, try_mdav_k_anonymize,
    try_mondrian_k_anonymize, try_samarati_k_anonymize,
};
use kanon::prelude::*;
use kanon::verify::is_k_anonymous;

fn datasets() -> Vec<(&'static str, Table)> {
    vec![
        ("ART", kanon::data::art::generate(100, 21)),
        ("ADT", kanon::data::adult::generate(100, 21)),
        ("CMC", kanon::data::cmc::generate(100, 21).table),
    ]
}

#[test]
fn every_baseline_is_k_anonymous_on_every_dataset() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        for k in [2, 5] {
            for (alg, gtable) in [
                (
                    "forest",
                    try_forest_k_anonymize(&table, &costs, k)
                        .unwrap()
                        .into_inner()
                        .table,
                ),
                (
                    "mondrian",
                    try_mondrian_k_anonymize(&table, &costs, k)
                        .unwrap()
                        .into_inner()
                        .table,
                ),
                (
                    "mdav",
                    try_mdav_k_anonymize(&table, &costs, k).unwrap().table,
                ),
                (
                    "fulldomain",
                    try_fulldomain_k_anonymize(&table, &costs, k)
                        .unwrap()
                        .output
                        .table,
                ),
            ] {
                assert!(
                    is_k_anonymous(&gtable, k),
                    "{name}/{alg} k={k}: not k-anonymous"
                );
                assert!(
                    kanon::core::generalize::is_generalization_of(&table, &gtable).unwrap(),
                    "{name}/{alg} k={k}: not a row-wise generalization"
                );
            }
        }
    }
}

#[test]
fn samarati_with_zero_budget_is_k_anonymous() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        let out = try_samarati_k_anonymize(&table, &costs, 3, 0).unwrap();
        assert!(
            out.suppressed.is_empty(),
            "{name}: no budget, no suppression"
        );
        assert!(is_k_anonymous(&out.output.table, 3), "{name}");
    }
}

#[test]
fn samarati_budget_respects_limit() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        let budget = 5;
        let out = try_samarati_k_anonymize(&table, &costs, 4, budget).unwrap();
        assert!(
            out.suppressed.len() <= budget,
            "{name}: {} suppressions over budget {budget}",
            out.suppressed.len()
        );
        // Suppressed rows are published fully generalized.
        let schema = table.schema();
        for &row in &out.suppressed {
            let grec = out.output.table.row(row as usize);
            for j in 0..schema.num_attrs() {
                assert_eq!(grec.get(j), schema.attr(j).hierarchy().root());
            }
        }
    }
}

#[test]
fn fulldomain_never_beats_local_agglomerative_on_lm() {
    // Sec. III: local recoding dominates global recoding. Checked under
    // LM where the paper's argument is cleanest (monotone measure, the
    // local algorithm can always simulate the best global solution by
    // refining clusters of equal tuples).
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        for k in [2, 4] {
            let full = try_fulldomain_k_anonymize(&table, &costs, k).unwrap();
            let (local, _) =
                try_best_k_anonymize(&table, &costs, k, &ClusterDistance::paper_variants(), true)
                    .unwrap()
                    .into_inner();
            assert!(
                local.loss <= full.output.loss + 1e-9,
                "{name} k={k}: local {} > full-domain {}",
                local.loss,
                full.output.loss
            );
        }
    }
}

#[test]
fn forest_cluster_size_bound_holds_on_all_datasets() {
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        for k in [2, 3, 7] {
            let out = try_forest_k_anonymize(&table, &costs, k)
                .unwrap()
                .into_inner();
            assert!(
                out.clustering.max_cluster_size() <= 3 * k - 3 || k == 2,
                "{name} k={k}: max cluster {}",
                out.clustering.max_cluster_size()
            );
            if k == 2 {
                // 3k−3 = 3 for k = 2.
                assert!(out.clustering.max_cluster_size() <= 3, "{name}");
            }
        }
    }
}

#[test]
fn mdav_and_mondrian_are_competitive() {
    // Sanity: the extension baselines are never catastrophically worse
    // than the forest baseline (within 2×) — they are real algorithms,
    // not strawmen.
    for (name, table) in datasets() {
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let k = 5;
        let forest = try_forest_k_anonymize(&table, &costs, k)
            .unwrap()
            .into_inner()
            .loss;
        let mdav = try_mdav_k_anonymize(&table, &costs, k).unwrap().loss;
        let mondrian = try_mondrian_k_anonymize(&table, &costs, k)
            .unwrap()
            .into_inner()
            .loss;
        assert!(
            mdav <= 2.0 * forest + 1e-9,
            "{name}: mdav {mdav} vs forest {forest}"
        );
        assert!(
            mondrian <= 2.0 * forest + 1e-9,
            "{name}: mondrian {mondrian} vs forest {forest}"
        );
    }
}
