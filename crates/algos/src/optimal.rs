//! Exhaustive optimal k-anonymization for tiny tables — a test oracle.
//!
//! Enumerates every partition of the rows into clusters of size ≥ k and
//! returns one minimizing the clustering cost `Σ_S |S| · d(S) = n · Π`
//! (Eq. 7). The search walks the canonical set-partition tree (each row
//! joins an existing cluster or opens a new one) with a feasibility prune:
//! a partial partition is abandoned when the remaining rows cannot fill
//! every deficient cluster up to `k`.
//!
//! Optimal k-anonymity is NP-hard (Meyerson & Williams), so this is
//! intentionally exponential; use on `n ≲ 12`.

use crate::agglomerative::KAnonOutput;
use crate::cost::CostContext;
use kanon_core::error::Result;
use kanon_core::hierarchy::NodeId;
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;

struct Search<'a> {
    ctx: CostContext<'a>,
    k: usize,
    n: usize,
    /// Working clusters: members + closure nodes.
    clusters: Vec<(Vec<u32>, Vec<NodeId>)>,
    /// Best complete assignment found so far.
    best_cost: f64,
    best: Option<Vec<Vec<u32>>>,
}

impl Search<'_> {
    /// Cost of the current (complete) partition: Σ |S| · d(S).
    fn current_cost(&self) -> f64 {
        self.clusters
            .iter()
            .map(|(m, nodes)| m.len() as f64 * self.ctx.cost(nodes))
            .sum()
    }

    /// Can the remaining rows still fill all deficient clusters?
    fn feasible(&self, next_row: usize) -> bool {
        let remaining = self.n - next_row;
        let deficit: usize = self
            .clusters
            .iter()
            .map(|(m, _)| self.k.saturating_sub(m.len()))
            .sum();
        deficit <= remaining
    }

    fn recurse(&mut self, row: usize) {
        if !self.feasible(row) {
            return;
        }
        if row == self.n {
            // feasible(n) guarantees every cluster has ≥ k members.
            debug_assert!(self.clusters.iter().all(|(m, _)| m.len() >= self.k));
            let cost = self.current_cost();
            if cost.total_cmp(&self.best_cost).is_lt() {
                self.best_cost = cost;
                self.best = Some(self.clusters.iter().map(|(m, _)| m.clone()).collect());
            }
            return;
        }
        // Join an existing cluster.
        for c in 0..self.clusters.len() {
            let saved_nodes = self.clusters[c].1.clone();
            self.clusters[c].0.push(row as u32);
            let mut nodes = saved_nodes.clone();
            self.ctx.join_row_into(&mut nodes, row);
            self.clusters[c].1 = nodes;
            self.recurse(row + 1);
            self.clusters[c].0.pop();
            self.clusters[c].1 = saved_nodes;
        }
        // Open a new cluster (canonical: only as the last cluster).
        self.clusters
            .push((vec![row as u32], self.ctx.leaf_nodes(row)));
        self.recurse(row + 1);
        self.clusters.pop();
    }
}

/// Canonical set-partition search (the implementation behind
/// [`crate::try_optimal_k_anonymize`]).
pub(crate) fn optimal_impl(table: &Table, costs: &NodeCostTable, k: usize) -> Result<KAnonOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    let ctx = CostContext::new(table, costs);
    let mut search = Search {
        ctx,
        k,
        n,
        clusters: Vec::new(),
        best_cost: f64::INFINITY,
        best: None,
    };
    search.recurse(0);
    // kanon-lint: allow(L006) a full partition always exists for n >= k
    let clusters = search.best.expect("a full partition always exists (n ≥ k)");
    KAnonOutput::from_clusters(table, costs, clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::AgglomerativeConfig;
    use crate::distance::ClusterDistance;
    use crate::{try_agglomerative_k_anonymize, try_forest_k_anonymize, try_optimal_k_anonymize};
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_core::KanonError;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"], &["c", "d", "e", "f"]],
            )
            .categorical("x", ["p", "q"])
            .build_shared()
            .unwrap()
    }

    fn table(s: &SharedSchema) -> Table {
        let rows = vec![
            Record::from_raw([0, 0]),
            Record::from_raw([1, 1]),
            Record::from_raw([2, 0]),
            Record::from_raw([3, 0]),
            Record::from_raw([4, 1]),
            Record::from_raw([5, 1]),
            Record::from_raw([0, 1]),
        ];
        Table::new(Arc::clone(s), rows).unwrap()
    }

    #[test]
    fn optimal_is_k_anonymous() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [2, 3] {
            let out = try_optimal_k_anonymize(&t, &costs, k).unwrap();
            assert!(out.clustering.min_cluster_size() >= k);
        }
    }

    #[test]
    fn heuristics_never_beat_optimal() {
        let s = schema();
        let t = table(&s);
        for k in [2, 3] {
            for measure_loss in [
                NodeCostTable::compute(&t, &EntropyMeasure),
                NodeCostTable::compute(&t, &LmMeasure),
            ] {
                let opt = try_optimal_k_anonymize(&t, &measure_loss, k).unwrap();
                for d in ClusterDistance::paper_variants() {
                    let cfg = AgglomerativeConfig::new(k).with_distance(d);
                    let heur = try_agglomerative_k_anonymize(&t, &measure_loss, &cfg)
                        .unwrap()
                        .into_inner();
                    assert!(
                        opt.loss <= heur.loss + 1e-9,
                        "optimal {} > heuristic {} (k={k}, {d})",
                        opt.loss,
                        heur.loss
                    );
                }
                let forest = try_forest_k_anonymize(&t, &measure_loss, k)
                    .unwrap()
                    .into_inner();
                assert!(opt.loss <= forest.loss + 1e-9);
            }
        }
    }

    #[test]
    fn forest_respects_approximation_bound() {
        // 3(k−1)-approximation guarantee of the forest algorithm, tested
        // against the true optimum. (The bound is on the clustering cost,
        // which is proportional to the loss.)
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [2, 3] {
            let opt = try_optimal_k_anonymize(&t, &costs, k).unwrap();
            let forest = try_forest_k_anonymize(&t, &costs, k).unwrap().into_inner();
            if opt.loss > 0.0 {
                assert!(
                    forest.loss <= 3.0 * (k as f64 - 1.0) * opt.loss + 1e-9,
                    "k={k}: forest {} > 3(k−1)·opt {}",
                    forest.loss,
                    opt.loss
                );
            }
        }
    }

    #[test]
    fn k_equals_n_single_cluster() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_optimal_k_anonymize(&t, &costs, 7).unwrap();
        assert_eq!(out.clustering.num_clusters(), 1);
    }

    #[test]
    fn invalid_k_rejected() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        assert!(matches!(
            try_optimal_k_anonymize(&t, &costs, 0),
            Err(KanonError::Core(_))
        ));
        assert!(matches!(
            try_optimal_k_anonymize(&t, &costs, 8),
            Err(KanonError::Core(_))
        ));
    }
}
