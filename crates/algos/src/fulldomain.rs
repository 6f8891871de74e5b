//! **Full-domain generalization** (global recoding) — the model of
//! LeFevre et al.'s Incognito, which the paper contrasts with its own
//! local-recoding model in Secs. II–III: *"local recoding is more
//! flexible, hence it offers higher utility."* This module makes that
//! claim testable (experiment E-A7).
//!
//! In full-domain generalization one recoding level per **attribute** is
//! chosen and applied to *every* record: level ℓ maps each value to the
//! ancestor ℓ steps above its leaf (clamped at the root). A lattice node
//! is a vector of levels; k-anonymity is **monotone** along lattice edges
//! (recoding coarser only merges equivalence classes), which is the
//! Incognito pruning property: once a node is k-anonymous, all its
//! ancestors are, so their k-checks can be skipped.
//!
//! [`crate::try_fulldomain_k_anonymize`] scans the shared lattice
//! (the `lattice` module, also behind [`crate::samarati`]) bottom-up with
//! that pruning and returns the minimum-loss k-anonymous node. Lattices
//! here are small (the paper's hierarchies are 2–5 levels deep), so
//! exhaustive enumeration with pruning is exact and fast; a lattice too
//! large to hold is a typed error.

use crate::agglomerative::KAnonOutput;
use crate::lattice::Lattice;
use kanon_core::error::Result;
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;

/// A full-domain recoding: one generalization level per attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecodingLevels(pub Vec<u8>);

/// Output of the full-domain anonymizer.
#[derive(Debug, Clone)]
pub struct FullDomainOutput {
    /// The clustering induced by the recoded equivalence classes,
    /// together with the generalized table and loss.
    pub output: KAnonOutput,
    /// The winning lattice node.
    pub levels: RecodingLevels,
    /// Number of lattice nodes whose k-anonymity had to be tested
    /// (after monotonicity pruning).
    pub nodes_tested: usize,
    /// Total lattice size.
    pub lattice_size: usize,
}

/// Full-domain lattice enumeration (the implementation behind
/// [`crate::try_fulldomain_k_anonymize`]).
pub(crate) fn fulldomain_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> Result<FullDomainOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    let r = table.num_attrs();
    let lattice = Lattice::new(table)?;

    // Nodes in non-decreasing height order, so that monotonicity pruning
    // (k-anonymous ⇒ ancestors k-anonymous) applies.
    let mut known_anonymous: Vec<&[u8]> = Vec::new();
    let mut nodes_tested = 0usize;
    let mut best: Option<(f64, usize)> = None;
    for node in 0..lattice.size() {
        let levels = lattice.node(node);
        // Monotonicity pruning: dominated by a known-anonymous node?
        let dominated = known_anonymous
            .iter()
            .any(|a| a.iter().zip(levels).all(|(&al, &l)| l >= al));
        if !dominated {
            nodes_tested += 1;
            let sizes = lattice.classes(levels, |size: &mut usize, _| *size += 1);
            if !sizes.values().all(|&size| size >= k) {
                continue;
            }
            known_anonymous.push(levels);
        }
        // Loss of this recoding, summed row by row.
        let mut sum = 0.0;
        for row in 0..n {
            for (j, v) in lattice.recode(levels, row).enumerate() {
                sum += costs.entry_cost(j, v);
            }
        }
        let loss = sum / (n as f64 * r as f64);
        if best.is_none_or(|(bl, _)| loss < bl) {
            best = Some((loss, node));
        }
    }

    // kanon-lint: allow(L006) the all-root node is always feasible, so best is Some
    let (_, node) = best.expect("the all-root node is always k-anonymous for k ≤ n");
    let levels = lattice.node(node);
    let output = lattice.publish(costs, (0..n).map(|i| lattice.recode(levels, i).collect()))?;
    Ok(FullDomainOutput {
        output,
        levels: RecodingLevels(levels.to_vec()),
        nodes_tested,
        lattice_size: lattice.size(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::AgglomerativeConfig;
    use crate::{try_agglomerative_k_anonymize, try_fulldomain_k_anonymize};
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::KanonError;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn table() -> Table {
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .numeric_with_intervals("x", 0, 7, &[2, 4])
            .build_shared()
            .unwrap();
        let mut rows = Vec::new();
        for i in 0..16u32 {
            rows.push(Record::from_raw([i % 4, (i * 3) % 8]));
        }
        Table::new(Arc::clone(&s), rows).unwrap()
    }

    #[test]
    fn output_is_k_anonymous() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [2, 4, 8] {
            let out = try_fulldomain_k_anonymize(&t, &costs, k).unwrap();
            assert!(out.output.clustering.min_cluster_size() >= k, "k={k}");
            assert!(kanon_core::generalize::is_generalization_of(&t, &out.output.table).unwrap());
        }
    }

    #[test]
    fn recoding_is_uniform_per_attribute() {
        // Global recoding: all records share the same level per attribute,
        // so every generalized entry of attribute j has the same height.
        let t = table();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let out = try_fulldomain_k_anonymize(&t, &costs, 4).unwrap();
        let schema = t.schema();
        for j in 0..schema.num_attrs() {
            let h = schema.attr(j).hierarchy();
            let levels: std::collections::BTreeSet<u32> = out
                .output
                .table
                .rows()
                .iter()
                .map(|grec| h.depth(grec.get(j)))
                .collect();
            // All depths equal OR clamped at the root (depth 0 mixes in
            // only when some leaves are shallower than the level).
            assert!(
                levels.len() <= 2,
                "attr {j}: non-uniform recoding {levels:?}"
            );
        }
    }

    #[test]
    fn local_recoding_is_at_least_as_good() {
        // The paper's Sec. III claim, now as an assertion: the local
        // agglomerative algorithm never loses to the *optimal* full-domain
        // recoding under the same measure.
        let t = table();
        for costs in [
            NodeCostTable::compute(&t, &EntropyMeasure),
            NodeCostTable::compute(&t, &LmMeasure),
        ] {
            for k in [2, 4] {
                let full = try_fulldomain_k_anonymize(&t, &costs, k).unwrap();
                let local = try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(k))
                    .unwrap()
                    .into_inner();
                assert!(
                    local.loss <= full.output.loss + 1e-9,
                    "k={k} {}: local {} > full-domain {}",
                    costs.measure_name(),
                    local.loss,
                    full.output.loss
                );
            }
        }
    }

    #[test]
    fn pruning_skips_dominated_nodes() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_fulldomain_k_anonymize(&t, &costs, 2).unwrap();
        assert!(out.nodes_tested <= out.lattice_size);
        assert!(out.lattice_size > 0);
        // Lattice of this schema: (2+1 levels for c) × (3+1 for x) = 12.
        assert_eq!(out.lattice_size, 12);
    }

    #[test]
    fn k_equals_n_suppresses_everything_or_less() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_fulldomain_k_anonymize(&t, &costs, 16).unwrap();
        assert_eq!(out.output.clustering.num_clusters(), 1);
    }

    #[test]
    fn invalid_k_rejected() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        assert!(matches!(
            try_fulldomain_k_anonymize(&t, &costs, 0),
            Err(KanonError::Core(_))
        ));
        assert!(matches!(
            try_fulldomain_k_anonymize(&t, &costs, 17),
            Err(KanonError::Core(_))
        ));
    }
}
