//! Property-based integration tests (proptest) on the workspace's core
//! invariants: hierarchy closures, measure axioms, anonymizer guarantees,
//! the matching oracle, and CSV round-trips.
//!
//! Random laminar hierarchies are derived from seeds by recursive
//! interval splitting, which guarantees laminarity by construction and
//! keeps every case shrinkable to its seed.

use kanon::matching::{is_edge_in_some_perfect_matching_naive, AllowedEdges, BipartiteGraph};
use kanon::prelude::*;
use kanon::verify::{is_k1_anonymous, is_k_anonymous, is_kk_anonymous};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Builds a random laminar hierarchy over `0..size` by recursively
/// splitting intervals; returns the subsets (closed under construction).
fn random_laminar(size: usize, rng: &mut StdRng) -> Vec<Vec<ValueId>> {
    let mut subsets = Vec::new();
    let mut stack = vec![(0usize, size)];
    while let Some((lo, hi)) = stack.pop() {
        let len = hi - lo;
        if len <= 1 {
            continue;
        }
        if len < size && rng.gen_bool(0.8) {
            subsets.push((lo as u32..hi as u32).map(ValueId).collect());
        }
        if len >= 2 && rng.gen_bool(0.9) {
            let cut = lo + 1 + rng.gen_range(0..len - 1);
            stack.push((lo, cut));
            stack.push((cut, hi));
        }
    }
    subsets
}

/// A random schema (1–3 attributes, domains of 2–8 values) and a random
/// table of `n` rows over it.
fn random_table(seed: u64, n: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_attrs = rng.gen_range(1..=3);
    let mut attrs = Vec::new();
    for a in 0..num_attrs {
        let size = rng.gen_range(2..=8usize);
        let domain = AttributeDomain::anonymous(format!("A{a}"), size).unwrap();
        let subsets = random_laminar(size, &mut rng);
        let h = Hierarchy::from_subsets(size, &subsets).unwrap();
        attrs.push(kanon::core::Attribute::new(domain, h).unwrap());
    }
    let schema = Schema::new(attrs).unwrap().into_shared();
    let rows = (0..n)
        .map(|_| {
            Record::new(
                (0..schema.num_attrs())
                    .map(|j| ValueId(rng.gen_range(0..schema.attr(j).domain().size()) as u32)),
            )
        })
        .collect();
    Table::new(schema, rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Closure soundness and minimality: the closure contains every input
    /// value, and no permissible strict subset of it does.
    #[test]
    fn closure_is_minimal_superset(seed in 0u64..5000, size in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let subsets = random_laminar(size, &mut rng);
        let h = Hierarchy::from_subsets(size, &subsets).unwrap();
        // A random non-empty value set.
        let count = rng.gen_range(1..=size);
        let mut values: Vec<ValueId> = (0..size as u32).map(ValueId).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        values.truncate(count);
        let c = h.closure(values.iter().copied()).unwrap();
        for &v in &values {
            prop_assert!(h.contains(c, v), "closure must contain inputs");
        }
        // Minimality: every child of the closure misses some input value.
        for &child in h.children(c) {
            prop_assert!(
                !values.iter().all(|&v| h.contains(child, v)),
                "a child of the closure contains all inputs — closure not minimal"
            );
        }
    }

    /// Join is commutative, idempotent, monotone, and agrees with the
    /// subset-containment order.
    #[test]
    fn join_axioms(seed in 0u64..5000, size in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let subsets = random_laminar(size, &mut rng);
        let h = Hierarchy::from_subsets(size, &subsets).unwrap();
        let nodes: Vec<_> = h.node_ids().collect();
        let a = nodes[rng.gen_range(0..nodes.len())];
        let b = nodes[rng.gen_range(0..nodes.len())];
        let c = nodes[rng.gen_range(0..nodes.len())];
        prop_assert_eq!(h.join(a, b), h.join(b, a));
        prop_assert_eq!(h.join(a, a), a);
        prop_assert_eq!(h.join(h.join(a, b), c), h.join(a, h.join(b, c)));
        let j = h.join(a, b);
        prop_assert!(h.is_ancestor_or_eq(j, a) && h.is_ancestor_or_eq(j, b));
    }

    /// LM table loss lies in [0, 1]; entropy loss is non-negative and at
    /// most the per-attribute entropy bound; identity loses nothing.
    #[test]
    fn measure_bounds(seed in 0u64..2000) {
        let table = random_table(seed, 12);
        let lm = NodeCostTable::compute(&table, &LmMeasure);
        let em = NodeCostTable::compute(&table, &EntropyMeasure);
        let id = GeneralizedTable::identity_of(&table);
        prop_assert_eq!(lm.table_loss(&id), 0.0);
        prop_assert_eq!(em.table_loss(&id), 0.0);
        // Fully suppressed table.
        let star = GeneralizedRecord::new(table.schema().suppressed_nodes());
        let full = GeneralizedTable::new_unchecked(
            Arc::clone(table.schema()),
            (0..table.num_rows()).map(|_| star.clone()).collect(),
        );
        let lm_loss = lm.table_loss(&full);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&lm_loss));
        let em_loss = em.table_loss(&full);
        prop_assert!(em_loss >= 0.0 && em_loss.is_finite());
    }

    /// The agglomerative algorithm always yields a k-anonymous,
    /// row-wise-generalizing table, for every distance function.
    #[test]
    fn agglomerative_always_k_anonymous(seed in 0u64..300, k in 2usize..5) {
        let table = random_table(seed, 14);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        for d in ClusterDistance::paper_variants() {
            let cfg = AgglomerativeConfig { k, distance: d, modified: seed % 2 == 0 };
            let out = try_agglomerative_k_anonymize(&table, &costs, &cfg).unwrap().into_inner();
            prop_assert!(is_k_anonymous(&out.table, k));
            prop_assert!(
                kanon::core::generalize::is_generalization_of(&table, &out.table).unwrap()
            );
        }
    }

    /// The (k,k) pipeline always satisfies (k,k). (The paper's utility
    /// dominance over k-anonymity is an *empirical* claim about realistic
    /// data — checked in `tests/end_to_end.rs` on the Sec. VI datasets —
    /// not a pointwise guarantee of the heuristics, so it is not asserted
    /// here on adversarial random tables.)
    #[test]
    fn kk_pipeline_invariants(seed in 0u64..200, k in 2usize..5) {
        let table = random_table(seed, 14);
        let costs = NodeCostTable::compute(&table, &LmMeasure);
        let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
        prop_assert!(is_kk_anonymous(&table, &kk.table, k).unwrap());
        prop_assert!(is_k1_anonymous(&table, &kk.table, k).unwrap());
        prop_assert!(
            kanon::core::generalize::is_generalization_of(&table, &kk.table).unwrap()
        );
        prop_assert!((kk.loss - costs.table_loss(&kk.table)).abs() < 1e-12);
    }

    /// The SCC-based matching oracle agrees with the paper's naive
    /// Hopcroft–Karp edge test on random consistency-like graphs.
    #[test]
    fn matching_oracle_agrees_with_naive(seed in 0u64..2000, n in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v && rng.gen_bool(0.3) {
                    edges.push((u, v));
                }
            }
        }
        let g = BipartiteGraph::from_edges(n, n, &edges);
        let oracle = AllowedEdges::compute(&g);
        prop_assert!(oracle.has_perfect_matching());
        for u in 0..n {
            for &v in g.neighbors(u) {
                prop_assert_eq!(
                    oracle.is_allowed(u, v),
                    is_edge_in_some_perfect_matching_naive(&g, u, v),
                    "edge ({}, {})", u, v
                );
            }
        }
    }

    /// Global (1,k) conversion terminates, preserves (k,k), and reaches
    /// the required match counts.
    #[test]
    fn global_conversion_invariants(seed in 0u64..100) {
        let k = 2;
        let table = random_table(seed, 10);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let out = try_global_1k_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
        prop_assert!(kanon::verify::is_global_1k_anonymous(&table, &out.table, k).unwrap());
        prop_assert!(is_kk_anonymous(&table, &out.table, k).unwrap());
    }

    /// CSV round-trip: any table serializes and parses back identically.
    #[test]
    fn csv_roundtrip(seed in 0u64..2000) {
        let table = random_table(seed, 10);
        let text = kanon::data::table_to_csv(&table);
        let back = kanon::data::table_from_csv(table.schema(), &text, true).unwrap();
        prop_assert_eq!(table.rows(), back.rows());
    }

    /// Cluster translation: every row is consistent with its cluster's
    /// closure, and rows in one cluster share one generalized record.
    #[test]
    fn clustering_translation_sound(seed in 0u64..2000) {
        let table = random_table(seed, 12);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let m = rng.gen_range(1..=4usize);
        let assignment: Vec<u32> = (0..12)
            .map(|i| if i < m { i as u32 } else { rng.gen_range(0..m as u32) })
            .collect();
        let clustering = Clustering::from_assignment(assignment).unwrap();
        let g = clustering.to_generalized_table(&table).unwrap();
        for i in 0..table.num_rows() {
            prop_assert!(kanon::core::generalize::is_consistent(
                table.schema(),
                table.row(i),
                g.row(i)
            ));
            let c = clustering.cluster_of(i) as usize;
            let first = clustering.cluster(c)[0] as usize;
            prop_assert_eq!(g.row(i), g.row(first));
        }
    }
}
