//! Oracle-backed property tests: every clustering-based heuristic is
//! sandwiched between the exhaustive optimum and its theoretical
//! guarantee on random tiny tables.

use kanon::algos::{
    k1_expansion, k1_nearest_neighbors, k1_optimal_bruteforce, try_forest_k_anonymize,
    try_fulldomain_k_anonymize, try_mondrian_k_anonymize, try_optimal_k_anonymize,
};
use kanon::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A tiny random table over a grouped schema (laminar by construction).
fn tiny_table(seed: u64, n: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = SchemaBuilder::new()
        .categorical_with_groups(
            "c",
            ["a", "b", "c", "d", "e", "f"],
            &[&["a", "b"], &["c", "d"], &["e", "f"], &["a", "b", "c", "d"]],
        )
        .categorical("x", ["p", "q", "r"])
        .build_shared()
        .unwrap();
    let rows = (0..n)
        .map(|_| Record::from_raw([rng.gen_range(0..6), rng.gen_range(0..3)]))
        .collect();
    Table::new(Arc::clone(&schema), rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No clustering-based heuristic beats the exhaustive optimum, under
    /// either experimental measure.
    #[test]
    fn optimum_lower_bounds_all_heuristics(seed in 0u64..500, k in 2usize..4) {
        let table = tiny_table(seed, 8);
        for costs in [
            NodeCostTable::compute(&table, &EntropyMeasure),
            NodeCostTable::compute(&table, &LmMeasure),
        ] {
            let opt = try_optimal_k_anonymize(&table, &costs, k).unwrap();
            for (name, loss) in [
                (
                    "agglomerative",
                    try_agglomerative_k_anonymize(&table, &costs, &AgglomerativeConfig::new(k))
                        .unwrap()
                        .into_inner()
                        .loss,
                ),
                ("forest", try_forest_k_anonymize(&table, &costs, k).unwrap().into_inner().loss),
                ("mondrian", try_mondrian_k_anonymize(&table, &costs, k).unwrap().into_inner().loss),
                (
                    "fulldomain",
                    try_fulldomain_k_anonymize(&table, &costs, k).unwrap().output.loss,
                ),
            ] {
                prop_assert!(
                    opt.loss <= loss + 1e-9,
                    "{name} beat the optimum: {} < {}",
                    loss,
                    opt.loss
                );
            }
        }
    }

    /// The forest baseline respects its 3(k−1)-approximation guarantee
    /// (checked under LM, the measure closest to the cost model the
    /// guarantee was proven for).
    #[test]
    fn forest_approximation_bound(seed in 0u64..500, k in 2usize..4) {
        let table = tiny_table(seed, 8);
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        let opt = try_optimal_k_anonymize(&table, &costs, k).unwrap();
        let forest = try_forest_k_anonymize(&table, &costs, k).unwrap().into_inner();
        if opt.loss > 1e-12 {
            prop_assert!(
                forest.loss <= 3.0 * (k as f64 - 1.0) * opt.loss + 1e-9,
                "forest {} > 3(k−1)·opt = {}",
                forest.loss,
                3.0 * (k as f64 - 1.0) * opt.loss
            );
        } else {
            // A zero-cost optimum means duplicate groups fill clusters; the
            // forest should find a zero-cost forest too (0-weight edges).
            prop_assert!(forest.loss <= 1e-9, "forest missed a free clustering");
        }
    }

    /// Algorithm 3's (k−1)-approximation of optimal (k,1) (Prop. 5.1),
    /// and Algorithm 4 never losing to Algorithm 3 in spirit: both stay
    /// above the brute-force (k,1) optimum.
    #[test]
    fn k1_bounds(seed in 0u64..300, k in 2usize..4) {
        let table = tiny_table(seed, 7);
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        let opt = k1_optimal_bruteforce(&table, &costs, k).unwrap();
        let nn = k1_nearest_neighbors(&table, &costs, k).unwrap();
        let exp = k1_expansion(&table, &costs, k).unwrap();
        prop_assert!(opt.loss <= nn.loss + 1e-9);
        prop_assert!(opt.loss <= exp.loss + 1e-9);
        prop_assert!(
            nn.loss <= (k - 1) as f64 * opt.loss + 1e-9,
            "Prop 5.1 violated: {} > {}·{}",
            nn.loss,
            k - 1,
            opt.loss
        );
    }

    /// Optimal k-anonymity loss is monotone in k (a strictly harder
    /// constraint can only cost more) — true for the *exact* optimum even
    /// though heuristics may wobble.
    #[test]
    fn optimal_is_monotone_in_k(seed in 0u64..300) {
        let table = tiny_table(seed, 8);
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        let l2 = try_optimal_k_anonymize(&table, &costs, 2).unwrap().loss;
        let l3 = try_optimal_k_anonymize(&table, &costs, 3).unwrap().loss;
        let l4 = try_optimal_k_anonymize(&table, &costs, 4).unwrap().loss;
        prop_assert!(l2 <= l3 + 1e-12);
        prop_assert!(l3 <= l4 + 1e-12);
    }
}
