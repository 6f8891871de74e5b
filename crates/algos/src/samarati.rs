//! **Samarati's algorithm** (TKDE 2001) — the original k-anonymization
//! algorithm, cited by the paper as reference \[18\]: full-domain
//! generalization plus a budget of at most `max_sup` *suppressed*
//! records. Included as the historical baseline (experiment E-A8).
//!
//! Samarati observed that, with a suppression budget, the set of feasible
//! lattice *heights* is upward-closed: if some node at height `h` can be
//! made k-anonymous by suppressing ≤ `max_sup` outlier records, so can
//! some node at every height above. Her algorithm binary-searches the
//! minimal feasible height, then returns a minimal-loss feasible node at
//! that height.
//!
//! Suppressed records are published fully generalized (all attributes at
//! the hierarchy root) — the conventional representation of record
//! suppression in this model.

use crate::agglomerative::KAnonOutput;
use kanon_core::cluster::Clustering;
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::NodeId;
use kanon_core::table::Table;
use kanon_measures::NodeCostTable;
// BTreeMap keyed by recoded tuples: `evaluate` accumulates the float loss
// while iterating the classes, so the iteration order must be a function
// of the data alone (float addition is not associative — a HashMap here
// made the published loss hasher-seed dependent in the last ulp).
use std::collections::BTreeMap;

/// Output of Samarati's algorithm.
#[derive(Debug, Clone)]
pub struct SamaratiOutput {
    /// Clustering + generalized table + loss.
    pub output: KAnonOutput,
    /// The winning lattice node (per-attribute levels).
    pub levels: Vec<u8>,
    /// Rows that were suppressed (published as all-root records).
    pub suppressed: Vec<u32>,
    /// The minimal feasible lattice height found by the binary search.
    pub height: u32,
}

/// Samarati height binary search (the implementation behind
/// [`crate::try_samarati_k_anonymize`]).
pub(crate) fn samarati_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    max_sup: usize,
) -> Result<SamaratiOutput> {
    let n = table.num_rows();
    if k == 0 || k > n {
        return Err(CoreError::InvalidK { k, n });
    }
    let schema = table.schema();
    let r = schema.num_attrs();

    let max_level: Vec<u8> = (0..r)
        .map(|j| {
            let h = schema.attr(j).hierarchy();
            (0..h.domain_size() as u32)
                .map(|v| h.depth(h.leaf(kanon_core::ValueId(v))) as u8)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let recode: Vec<Vec<Vec<NodeId>>> = (0..r)
        .map(|j| {
            let h = schema.attr(j).hierarchy();
            (0..=max_level[j])
                .map(|l| {
                    (0..h.domain_size() as u32)
                        .map(|v| {
                            let mut cur = h.leaf(kanon_core::ValueId(v));
                            for _ in 0..l {
                                match h.parent(cur) {
                                    Some(p) => cur = p,
                                    None => break,
                                }
                            }
                            cur
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    // All lattice nodes, grouped by height (sum of levels).
    let mut by_height: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut cur = vec![0u8; r];
    loop {
        let h: u32 = cur.iter().map(|&l| l as u32).sum();
        if by_height.len() <= h as usize {
            by_height.resize(h as usize + 1, Vec::new());
        }
        by_height[h as usize].push(cur.clone());
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
    let max_height = by_height.len() as u32 - 1;

    // Feasibility of a node: number of records in classes smaller than k
    // must be ≤ max_sup. Returns (feasible, suppressed rows, loss).
    let evaluate = |levels: &[u8]| -> (bool, Vec<u32>, f64) {
        let mut classes: BTreeMap<Vec<NodeId>, Vec<u32>> = BTreeMap::new();
        let mut recoded = vec![NodeId(0); r];
        for (i, rec) in table.rows().iter().enumerate() {
            for j in 0..r {
                recoded[j] = recode[j][levels[j] as usize][rec.get(j).index()];
            }
            classes.entry(recoded.clone()).or_default().push(i as u32);
        }
        let mut suppressed = Vec::new();
        let mut sum = 0.0;
        for (tuple, rows) in &classes {
            if rows.len() < k {
                suppressed.extend_from_slice(rows);
            } else {
                for (j, &node) in tuple.iter().enumerate() {
                    sum += costs.entry_cost(j, node) * rows.len() as f64;
                }
            }
        }
        // Suppressed rows are published all-root.
        for j in 0..r {
            let root = schema.attr(j).hierarchy().root();
            sum += costs.entry_cost(j, root) * suppressed.len() as f64;
        }
        let loss = sum / (n as f64 * r as f64);
        suppressed.sort_unstable();
        (suppressed.len() <= max_sup, suppressed, loss)
    };

    let height_feasible =
        |h: u32| -> bool { by_height[h as usize].iter().any(|node| evaluate(node).0) };

    // Binary search for the minimal feasible height. (The all-root node at
    // max height is always feasible, so the search is well-defined;
    // feasibility is monotone in height by Samarati's observation.)
    let (mut lo, mut hi) = (0u32, max_height);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if height_feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    // Minimal-loss feasible node at that height.
    let mut best: Option<(f64, Vec<u8>, Vec<u32>)> = None;
    for node in &by_height[lo as usize] {
        let (ok, suppressed, loss) = evaluate(node);
        if ok {
            let better = best.as_ref().is_none_or(|(bl, ..)| loss < *bl);
            if better {
                best = Some((loss, node.clone(), suppressed));
            }
        }
    }
    // kanon-lint: allow(L006) the binary search maintains a feasible height
    let (_, levels, suppressed) = best.expect("binary search returned a feasible height");

    // Materialize: suppressed rows form their own all-root "class"; note
    // that with fewer than k suppressed rows the published table is only
    // k-anonymous *outside* the suppressed records, which is the accepted
    // semantics of record suppression (those individuals are removed from
    // the linkage game entirely).
    let sup_set: std::collections::BTreeSet<u32> = suppressed.iter().copied().collect();
    let mut class_of: BTreeMap<Vec<NodeId>, u32> = BTreeMap::new();
    let mut assignment = Vec::with_capacity(n);
    let all_root: Vec<NodeId> = schema.suppressed_nodes();
    let mut recoded = vec![NodeId(0); r];
    let mut grows = Vec::with_capacity(n);
    for (i, rec) in table.rows().iter().enumerate() {
        let tuple = if sup_set.contains(&(i as u32)) {
            all_root.clone()
        } else {
            for j in 0..r {
                recoded[j] = recode[j][levels[j] as usize][rec.get(j).index()];
            }
            recoded.clone()
        };
        let next = class_of.len() as u32;
        let id = *class_of.entry(tuple.clone()).or_insert(next);
        assignment.push(id);
        grows.push(kanon_core::GeneralizedRecord::new(tuple));
    }
    let clustering = Clustering::from_assignment(assignment)?;
    // Publish the recoded tuples directly: suppressed rows must appear
    // fully generalized, NOT as the closure of the suppressed class
    // (which could be narrower and leak).
    let gtable =
        kanon_core::GeneralizedTable::new_unchecked(std::sync::Arc::clone(table.schema()), grows);
    let loss = costs.table_loss(&gtable);
    Ok(SamaratiOutput {
        output: KAnonOutput {
            clustering,
            table: gtable,
            loss,
        },
        levels,
        suppressed,
        height: lo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_fulldomain_k_anonymize, try_samarati_k_anonymize};
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::KanonError;
    use kanon_measures::LmMeasure;
    use std::sync::Arc;

    fn table() -> Table {
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .numeric_with_intervals("x", 0, 7, &[2, 4])
            .build_shared()
            .unwrap();
        let mut rows = Vec::new();
        for i in 0..15u32 {
            rows.push(Record::from_raw([i % 4, (i * 3) % 8]));
        }
        // One outlier that forces either heavy generalization or a
        // suppression.
        rows.push(Record::from_raw([3, 7]));
        Table::new(Arc::clone(&s), rows).unwrap()
    }

    #[test]
    fn zero_budget_matches_fulldomain_family() {
        // With max_sup = 0, Samarati solves the same problem as the
        // exhaustive full-domain search, restricted to minimal height; the
        // full-domain optimum can only be at least as good.
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let sam = try_samarati_k_anonymize(&t, &costs, 2, 0).unwrap();
        let full = try_fulldomain_k_anonymize(&t, &costs, 2).unwrap();
        assert!(sam.suppressed.is_empty());
        assert!(full.output.loss <= sam.output.loss + 1e-9);
        // And the Samarati output really is 2-anonymous.
        assert!(sam.output.clustering.min_cluster_size() >= 2);
    }

    #[test]
    fn suppression_budget_lowers_height_and_loss() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let strict = try_samarati_k_anonymize(&t, &costs, 3, 0).unwrap();
        let relaxed = try_samarati_k_anonymize(&t, &costs, 3, 2).unwrap();
        // A suppression budget can only lower (or keep) the minimal
        // feasible height; the loss usually follows but is not guaranteed
        // to (suppressed records are published fully generalized).
        assert!(relaxed.height <= strict.height);
        assert!(relaxed.suppressed.len() <= 2);
    }

    #[test]
    fn published_classes_respect_k_outside_suppressions() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_samarati_k_anonymize(&t, &costs, 3, 2).unwrap();
        let sup: std::collections::BTreeSet<u32> = out.suppressed.iter().copied().collect();
        for cluster in out.output.clustering.clusters() {
            let unsuppressed = cluster.iter().filter(|r| !sup.contains(r)).count();
            // Either an all-suppressed class, or a k-sized class (possibly
            // plus suppressed rows merged into the root class).
            assert!(
                unsuppressed == 0 || unsuppressed >= 3 || cluster.iter().all(|r| sup.contains(r)),
                "cluster {cluster:?} has {unsuppressed} unsuppressed rows"
            );
        }
    }

    #[test]
    fn invalid_k_rejected() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        assert!(matches!(
            try_samarati_k_anonymize(&t, &costs, 0, 0),
            Err(KanonError::Core(_))
        ));
        assert!(matches!(
            try_samarati_k_anonymize(&t, &costs, 17, 0),
            Err(KanonError::Core(_))
        ));
    }

    #[test]
    fn binary_search_height_is_minimal() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_samarati_k_anonymize(&t, &costs, 2, 0).unwrap();
        // No node strictly below the returned height may be feasible —
        // re-verify by checking the returned node's own height.
        let h: u32 = out.levels.iter().map(|&l| l as u32).sum();
        assert_eq!(h, out.height);
    }
}
