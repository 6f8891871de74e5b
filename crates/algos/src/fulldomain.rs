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
//! [`crate::try_fulldomain_k_anonymize`] enumerates the lattice bottom-up with that
//! pruning and returns the minimum-loss k-anonymous node. Lattices here
//! are small (the paper's hierarchies are 2–5 levels deep), so exhaustive
//! enumeration with pruning is exact and fast.

use crate::agglomerative::KAnonOutput;
use kanon_core::cluster::Clustering;
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::{Hierarchy, NodeId};
use kanon_core::table::Table;
use kanon_measures::NodeCostTable;
use std::collections::BTreeMap;

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

/// The ancestor of `leaf` exactly `steps` levels up, clamped at the root.
fn ancestor_at(h: &Hierarchy, leaf: NodeId, steps: u8) -> NodeId {
    let mut cur = leaf;
    for _ in 0..steps {
        match h.parent(cur) {
            Some(p) => cur = p,
            None => break,
        }
    }
    cur
}

/// Full-domain lattice enumeration (the implementation behind
/// [`crate::try_fulldomain_k_anonymize`]).
pub(crate) fn fulldomain_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> Result<FullDomainOutput> {
    let n = table.num_rows();
    if k == 0 || k > n {
        return Err(CoreError::InvalidK { k, n });
    }
    let schema = table.schema();
    let r = schema.num_attrs();

    // Per-attribute maximum level = the deepest leaf's depth.
    let max_level: Vec<u8> = (0..r)
        .map(|j| {
            let h = schema.attr(j).hierarchy();
            (0..h.domain_size() as u32)
                .map(|v| h.depth(h.leaf(kanon_core::ValueId(v))) as u8)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let lattice_size: usize = max_level.iter().map(|&m| m as usize + 1).product();

    // Precompute recodings: recode[j][level][value] = node.
    let recode: Vec<Vec<Vec<NodeId>>> = (0..r)
        .map(|j| {
            let h = schema.attr(j).hierarchy();
            (0..=max_level[j])
                .map(|l| {
                    (0..h.domain_size() as u32)
                        .map(|v| ancestor_at(h, h.leaf(kanon_core::ValueId(v)), l))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Enumerate lattice nodes in non-decreasing total level order so that
    // monotonicity pruning (k-anonymous ⇒ ancestors k-anonymous) applies.
    let mut nodes: Vec<Vec<u8>> = Vec::with_capacity(lattice_size);
    let mut cur = vec![0u8; r];
    loop {
        nodes.push(cur.clone());
        // Odometer increment.
        let mut j = 0;
        loop {
            if j == r {
                break;
            }
            if cur[j] < max_level[j] {
                cur[j] += 1;
                break;
            }
            cur[j] = 0;
            j += 1;
        }
        if j == r {
            break;
        }
    }
    nodes.sort_by_key(|levels| levels.iter().map(|&l| l as u32).sum::<u32>());

    let mut known_anonymous: Vec<Vec<u8>> = Vec::new();
    let mut nodes_tested = 0usize;
    let mut best: Option<(f64, Vec<u8>, Vec<NodeId>)> = None;

    let mut recoded: Vec<NodeId> = vec![NodeId(0); r];
    for levels in &nodes {
        // Monotonicity pruning: dominated by a known-anonymous node?
        let dominated = known_anonymous
            .iter()
            .any(|a| a.iter().zip(levels).all(|(&al, &l)| l >= al));
        let is_anon = if dominated {
            true
        } else {
            nodes_tested += 1;
            // Group rows by recoded tuple.
            let mut classes: BTreeMap<Vec<NodeId>, usize> = BTreeMap::new();
            for rec in table.rows() {
                for j in 0..r {
                    recoded[j] = recode[j][levels[j] as usize][rec.get(j).index()];
                }
                *classes.entry(recoded.clone()).or_insert(0) += 1;
            }
            let ok = classes.values().all(|&c| c >= k);
            if ok {
                known_anonymous.push(levels.clone());
            }
            ok
        };
        if !is_anon {
            continue;
        }
        // Loss of this recoding.
        let mut sum = 0.0;
        for rec in table.rows() {
            for j in 0..r {
                sum += costs.entry_cost(j, recode[j][levels[j] as usize][rec.get(j).index()]);
            }
        }
        let loss = sum / (n as f64 * r as f64);
        let better = match &best {
            None => true,
            Some((bl, ..)) => loss < *bl,
        };
        if better {
            best = Some((loss, levels.clone(), Vec::new()));
        }
    }

    // kanon-lint: allow(L006) the all-root node is always feasible, so best is Some
    let (_, levels, _) = best.expect("the all-root node is always k-anonymous for k ≤ n");

    // Materialize the winning recoding as a clustering (equivalence
    // classes of identical recoded tuples). The published table must be
    // the recoded tuples themselves — NOT per-class closures, which can
    // be strictly finer than the chosen lattice node and would make the
    // published loss disagree with the loss that ranked the nodes
    // (breaking the optimality contract and full-domain uniformity).
    let mut class_of: BTreeMap<Vec<NodeId>, u32> = BTreeMap::new();
    let mut assignment = Vec::with_capacity(n);
    let mut grows = Vec::with_capacity(n);
    for rec in table.rows() {
        let tuple: Vec<NodeId> = (0..r)
            .map(|j| recode[j][levels[j] as usize][rec.get(j).index()])
            .collect();
        let next = class_of.len() as u32;
        let id = *class_of.entry(tuple.clone()).or_insert(next);
        assignment.push(id);
        grows.push(kanon_core::GeneralizedRecord::new(tuple));
    }
    let clustering = Clustering::from_assignment(assignment)?;
    let gtable =
        kanon_core::GeneralizedTable::new_unchecked(std::sync::Arc::clone(table.schema()), grows);
    let loss = costs.table_loss(&gtable);
    Ok(FullDomainOutput {
        output: KAnonOutput {
            clustering,
            table: gtable,
            loss,
        },
        levels: RecodingLevels(levels),
        nodes_tested,
        lattice_size,
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
