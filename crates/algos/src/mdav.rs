//! **MDAV-style microaggregation** (Domingo-Ferrer & Mateo-Sanz) adapted
//! to the paper's hierarchy model — a third clustering baseline
//! (experiment E-A8) besides the forest algorithm and the Mondrian-style
//! splitter. Microaggregation is the dominant k-anonymization heuristic
//! in the statistical-disclosure-control literature, so it anchors the
//! paper's agglomerative family against that tradition.
//!
//! Classic MDAV works in Euclidean space; here distances are the cluster
//! costs `d({·,·})` of the active measure and the "centroid" of a record
//! set is its closure. Each round:
//!
//! 1. compute the closure of all remaining records;
//! 2. find the record `x` *farthest* from that closure (max `d({x} ∪ C)`
//!    proxy: `d` of the pair `{x, closure}`);
//! 3. group `x` with its `k−1` nearest remaining records into a cluster;
//! 4. if at least `2k` records remain, also build the mirror cluster
//!    around the record farthest from `x`;
//! 5. when fewer than `2k` remain, they form the last cluster.

use crate::agglomerative::KAnonOutput;
use crate::cost::{CostContext, SigArena};
use kanon_core::error::Result;
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;

/// Rows as leaf-arena slots.
fn slots(rows: &[u32]) -> Vec<usize> {
    rows.iter().map(|&r| r as usize).collect()
}

/// The row of `rows` with the largest cost in `dists` (ties: the first).
fn farthest(rows: &[u32], dists: &[f64]) -> u32 {
    let mut best = rows[0];
    let mut best_d = f64::NEG_INFINITY;
    for (&r, &d) in rows.iter().zip(dists) {
        if d.total_cmp(&best_d).is_gt() {
            best_d = d;
            best = r;
        }
    }
    best
}

/// MDAV round loop (the implementation behind
/// [`crate::try_mdav_k_anonymize`]).
pub(crate) fn mdav_impl(table: &Table, costs: &NodeCostTable, k: usize) -> Result<KAnonOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    let ctx = CostContext::new(table, costs);
    let leaves = ctx.leaf_arena();

    let mut remaining: Vec<u32> = (0..n as u32).collect();
    let mut clusters: Vec<Vec<u32>> = Vec::with_capacity(n / k);

    // Builds a cluster of `x` plus its k−1 nearest in `remaining`
    // (removing them from `remaining`).
    let take_cluster = |x: u32, remaining: &mut Vec<u32>| -> Vec<u32> {
        remaining.retain(|&r| r != x);
        let near = ctx
            .slot_scan(&leaves, x as usize)
            .priced(&slots(remaining), true);
        let mut dists: Vec<(f64, u32)> = near.into_iter().zip(remaining.iter().copied()).collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cluster = vec![x];
        for &(_, r) in dists.iter().take(k - 1) {
            cluster.push(r);
        }
        let taken: std::collections::BTreeSet<u32> = cluster.iter().copied().collect();
        remaining.retain(|r| !taken.contains(r));
        cluster.sort_unstable();
        cluster
    };

    while remaining.len() >= 2 * k {
        // Farthest record from the closure of all remaining records…
        let closure = ctx.closure_of(&remaining);
        let xr = farthest(
            &remaining,
            &ctx.scan(closure, &leaves).priced(&slots(&remaining), false),
        );
        // …and the record farthest from that one (the classic xr/xs pair).
        let others: Vec<u32> = remaining.iter().copied().filter(|&r| r != xr).collect();
        let xs = farthest(
            &others,
            &ctx.slot_scan(&leaves, xr as usize)
                .priced(&slots(&others), true),
        );
        clusters.push(take_cluster(xr, &mut remaining));
        if remaining.len() >= k && remaining.contains(&xs) {
            clusters.push(take_cluster(xs, &mut remaining));
        }
    }
    if !remaining.is_empty() {
        if remaining.len() >= k {
            remaining.sort_unstable();
            clusters.push(std::mem::take(&mut remaining));
        } else {
            // Fewer than k stragglers: absorb them into their nearest
            // cluster (by closure-join cost), one scan from each
            // straggler over the clusters' current closures.
            for &r in &remaining {
                let mut closures = SigArena::with_capacity(ctx.num_attrs(), clusters.len());
                for (ci, c) in clusters.iter().enumerate() {
                    let closure = ctx.closure_of(c);
                    closures.store(ci, &closure, c.len(), ctx.cost(&closure));
                }
                let every: Vec<usize> = (0..clusters.len()).collect();
                let dists = ctx
                    .scan(ctx.leaf_nodes(r as usize), &closures)
                    .priced(&every, false);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (ci, &d) in dists.iter().enumerate() {
                    if d.total_cmp(&best_d).is_lt() {
                        best_d = d;
                        best = ci;
                    }
                }
                clusters[best].push(r);
                clusters[best].sort_unstable();
            }
            remaining.clear();
        }
    }

    KAnonOutput::from_clusters(table, costs, clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_mdav_k_anonymize;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::KanonError;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn table(n: usize) -> Table {
        let s = SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"]],
            )
            .numeric_with_intervals("x", 0, 9, &[2, 4])
            .build_shared()
            .unwrap();
        let rows = (0..n)
            .map(|i| Record::from_raw([(i % 6) as u32, ((i * 7) % 10) as u32]))
            .collect();
        Table::new(Arc::clone(&s), rows).unwrap()
    }

    #[test]
    fn output_is_k_anonymous() {
        for n in [10, 17, 24] {
            let t = table(n);
            let costs = NodeCostTable::compute(&t, &EntropyMeasure);
            for k in [2, 3, 5] {
                let out = try_mdav_k_anonymize(&t, &costs, k).unwrap();
                assert!(
                    out.clustering.min_cluster_size() >= k,
                    "n={n} k={k}: min {}",
                    out.clustering.min_cluster_size()
                );
                assert_eq!(
                    out.clustering
                        .clusters()
                        .iter()
                        .map(Vec::len)
                        .sum::<usize>(),
                    n
                );
            }
        }
    }

    #[test]
    fn cluster_sizes_are_tight() {
        // MDAV builds clusters of exactly k except the last (≤ 2k−1).
        let t = table(23);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_mdav_k_anonymize(&t, &costs, 4).unwrap();
        let mut sizes: Vec<usize> = out.clustering.clusters().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert!(*sizes.last().unwrap() <= 2 * 4 - 1 + 3); // last + absorbed stragglers
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s >= 4));
    }

    #[test]
    fn deterministic() {
        let t = table(20);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let a = try_mdav_k_anonymize(&t, &costs, 3).unwrap();
        let b = try_mdav_k_anonymize(&t, &costs, 3).unwrap();
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn invalid_k_rejected() {
        let t = table(10);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        assert!(matches!(
            try_mdav_k_anonymize(&t, &costs, 0),
            Err(KanonError::Core(_))
        ));
        assert!(matches!(
            try_mdav_k_anonymize(&t, &costs, 11),
            Err(KanonError::Core(_))
        ));
    }

    #[test]
    fn k_equals_n_single_cluster() {
        let t = table(8);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let out = try_mdav_k_anonymize(&t, &costs, 8).unwrap();
        assert_eq!(out.clustering.num_clusters(), 1);
    }
}
