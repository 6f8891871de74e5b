//! Front-door compositions: the end-to-end anonymizers a user calls.
//!
//! * [`crate::try_kk_anonymize`] — Sec. V-B: a (k,1)-anonymizer
//!   (Algorithm 3 or 4) followed by the (1,k)-anonymizer (Algorithm 5)
//!   ⇒ (k,k)-anonymity.
//! * [`crate::try_global_1k_anonymize`] — Sec. V-C: the (k,k) pipeline
//!   followed by Algorithm 6 ⇒ global (1,k)-anonymity.
//! * [`crate::try_best_k_anonymize`] — the paper's "best k-anon" row of
//!   Table I: the agglomerative algorithm over a set of distance
//!   functions (and optionally the modified variant), keeping the
//!   cheapest output.
//! * [`crate::try_sharded_k_anonymize`] and
//!   [`crate::try_sharded_l_diverse_k_anonymize`] — the large-n
//!   front door (DESIGN.md §5f): shard-and-conquer around the same
//!   clustering engine, for tables past its quadratic wall.

use crate::agglomerative::{agglomerative_impl, AgglomerativeConfig, KAnonOutput};
use crate::distance::ClusterDistance;
use crate::fallible::{Budget, Budgeted};
use crate::global_one_k::{global_1k_from_kk, GlobalOutput};
use crate::k1::{k1_expansion, k1_nearest_neighbors, GenOutput};
use crate::one_k::one_k_impl;
use kanon_core::error::Result;
use kanon_core::table::Table;
use kanon_measures::NodeCostTable;

/// Which (k,1)-anonymizer seeds the (k,k) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum K1Method {
    /// Algorithm 3: k−1 nearest neighbours ((k−1)-approximation).
    NearestNeighbors,
    /// Algorithm 4: greedy expansion (better in practice — the paper's
    /// and our default).
    #[default]
    Expansion,
}

impl K1Method {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            K1Method::NearestNeighbors => "Alg3+5",
            K1Method::Expansion => "Alg4+5",
        }
    }
}

/// Configuration of the (k,k) pipeline, and of the global (1,k)
/// pipeline that runs it before Algorithm 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KkConfig {
    /// The anonymity parameter.
    pub k: usize,
    /// The (k,1) stage.
    pub method: K1Method,
}

impl KkConfig {
    /// Defaults to the expansion method (Algorithm 4), which the paper
    /// found uniformly better.
    pub fn new(k: usize) -> Self {
        KkConfig {
            k,
            method: K1Method::default(),
        }
    }

    /// Selects the (k,1) stage.
    pub fn with_method(mut self, m: K1Method) -> Self {
        self.method = m;
        self
    }
}

pub(crate) fn k1_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    method: K1Method,
) -> Result<GenOutput> {
    match method {
        K1Method::NearestNeighbors => k1_nearest_neighbors(table, costs, k),
        K1Method::Expansion => k1_expansion(table, costs, k),
    }
}

pub(crate) fn kk_impl(table: &Table, costs: &NodeCostTable, cfg: &KkConfig) -> Result<GenOutput> {
    let k1 = k1_impl(table, costs, cfg.k, cfg.method)?;
    one_k_impl(table, &k1.table, costs, cfg.k)
}

pub(crate) fn global_impl(
    table: &Table,
    costs: &NodeCostTable,
    cfg: &KkConfig,
) -> Result<GlobalOutput> {
    let kk = kk_impl(table, costs, cfg)?;
    global_1k_from_kk(table, &kk.table, costs, cfg.k)
}

pub(crate) fn best_k_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    distances: &[ClusterDistance],
    include_modified: bool,
) -> Result<Budgeted<(KAnonOutput, AgglomerativeConfig)>> {
    assert!(!distances.is_empty(), "need at least one distance function");
    let variants: &[bool] = if include_modified {
        &[false, true]
    } else {
        &[false]
    };
    let configs: Vec<AgglomerativeConfig> = distances
        .iter()
        .flat_map(|&d| {
            variants.iter().map(move |&modified| AgglomerativeConfig {
                k,
                distance: d,
                modified,
            })
        })
        .collect();
    // The protocol's variants are independent whole runs — a coarse grid
    // (serial when a budget is armed, see `Budget::map_runs`); each run
    // arms and accounts its own budget. The winner is picked serially in
    // config order (strict `<`, so the earliest of equal-loss variants
    // wins, as in the serial sweep).
    let mut budget = Budget::observe();
    let outputs = budget.map_runs(configs.len(), |i| {
        agglomerative_impl(table, costs, &configs[i])
    });
    let mut best: Option<(KAnonOutput, AgglomerativeConfig)> = None;
    for (out, &cfg) in outputs.into_iter().zip(&configs) {
        let out = budget.absorb(out?);
        let better = match &best {
            None => true,
            Some((b, _)) => out.loss < b.loss,
        };
        if better {
            best = Some((out, cfg));
        }
    }
    // kanon-lint: allow(L006) the variant grid is non-empty, validated by the caller
    Ok(budget.finish(best.expect("at least one variant ran")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_best_k_anonymize, try_global_1k_anonymize, try_kk_anonymize};
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"], &["a", "b", "c", "d"]],
            )
            .categorical("x", ["p", "q"])
            .build_shared()
            .unwrap()
    }

    fn table(s: &SharedSchema) -> Table {
        let rows = vec![
            Record::from_raw([0, 0]),
            Record::from_raw([1, 0]),
            Record::from_raw([2, 1]),
            Record::from_raw([3, 1]),
            Record::from_raw([4, 0]),
            Record::from_raw([5, 1]),
            Record::from_raw([0, 1]),
            Record::from_raw([2, 0]),
        ];
        Table::new(Arc::clone(s), rows).unwrap()
    }

    #[test]
    fn kk_pipeline_satisfies_kk() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        for method in [K1Method::NearestNeighbors, K1Method::Expansion] {
            for k in [2, 3] {
                let cfg = KkConfig::new(k).with_method(method);
                let out = try_kk_anonymize(&t, &costs, &cfg).unwrap();
                let schema = t.schema();
                // (1,k) and (k,1) by direct count.
                use kanon_core::generalize::is_consistent;
                for rec in t.rows() {
                    let deg = out
                        .table
                        .rows()
                        .iter()
                        .filter(|g| is_consistent(schema, rec, g))
                        .count();
                    assert!(deg >= k, "{method:?} k={k}");
                }
                for g in out.table.rows() {
                    let deg = t
                        .rows()
                        .iter()
                        .filter(|r| is_consistent(schema, r, g))
                        .count();
                    assert!(deg >= k, "{method:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn kk_beats_best_k_anonymity() {
        // The paper's second headline: (k,k) improves on the best
        // k-anonymization (here: never worse).
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [2, 3] {
            let (kanon, _) =
                try_best_k_anonymize(&t, &costs, k, &ClusterDistance::paper_variants(), true)
                    .unwrap()
                    .into_inner();
            let kk = try_kk_anonymize(&t, &costs, &KkConfig::new(k)).unwrap();
            assert!(kk.loss <= kanon.loss + 1e-9, "k={k}");
        }
    }

    #[test]
    fn global_pipeline_is_global() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        for k in [2, 3] {
            let out = try_global_1k_anonymize(&t, &costs, &KkConfig::new(k)).unwrap();
            // Validate via the naive neighbour/match definitions.
            use kanon_core::generalize::consistency_adjacency;
            use kanon_matching::{AllowedEdges, BipartiteGraph};
            let adj = consistency_adjacency(&t, &out.table).unwrap();
            let g = BipartiteGraph::from_adjacency(t.num_rows(), &adj);
            let oracle = AllowedEdges::compute(&g);
            assert!(oracle.match_counts().into_iter().all(|c| c >= k), "k={k}");
        }
    }

    #[test]
    fn best_k_anonymize_reports_winner() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let (out, cfg) =
            try_best_k_anonymize(&t, &costs, 2, &ClusterDistance::paper_variants(), false)
                .unwrap()
                .into_inner();
        assert!(out.clustering.min_cluster_size() >= 2);
        assert!(ClusterDistance::paper_variants()
            .iter()
            .any(|d| d.name() == cfg.distance.name()));
        assert!(!cfg.modified);
    }

    #[test]
    fn method_names() {
        assert_eq!(K1Method::NearestNeighbors.name(), "Alg3+5");
        assert_eq!(K1Method::Expansion.name(), "Alg4+5");
        assert_eq!(K1Method::default(), K1Method::Expansion);
    }
}
