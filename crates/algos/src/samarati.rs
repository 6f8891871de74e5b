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
//! The lattice is the `lattice` module shared with [`crate::fulldomain`].

use crate::agglomerative::KAnonOutput;
use crate::lattice::Lattice;
use kanon_core::error::Result;
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;

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
    check_k(k, n)?;
    let schema = table.schema();
    let r = schema.num_attrs();
    let lattice = Lattice::new(table)?;

    // Feasibility of a node: number of records in classes smaller than k
    // must be ≤ max_sup. Returns (feasible, suppressed rows, loss).
    let evaluate = |levels: &[u8]| -> (bool, Vec<u32>, f64) {
        let mut suppressed = Vec::new();
        let mut sum = 0.0;
        let classes = lattice.classes(levels, |rows: &mut Vec<u32>, i| rows.push(i));
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

    let height_feasible = |h: u32| -> bool {
        lattice
            .at_height(h)
            .any(|node| evaluate(lattice.node(node)).0)
    };

    // Binary search for the minimal feasible height. (The all-root node at
    // max height is always feasible, so the search is well-defined;
    // feasibility is monotone in height by Samarati's observation.)
    let (mut lo, mut hi) = (0u32, lattice.max_height());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if height_feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    // Minimal-loss feasible node at that height.
    let mut best: Option<(f64, usize, Vec<u32>)> = None;
    for node in lattice.at_height(lo) {
        let (ok, suppressed, loss) = evaluate(lattice.node(node));
        if ok && best.as_ref().is_none_or(|(bl, ..)| loss < *bl) {
            best = Some((loss, node, suppressed));
        }
    }
    // kanon-lint: allow(L006) the binary search maintains a feasible height
    let (_, node, suppressed) = best.expect("binary search returned a feasible height");
    let levels = lattice.node(node);

    // Suppressed rows are published all-root and form their own class;
    // with fewer than k of them the table is k-anonymous only *outside*
    // them, the accepted semantics of record suppression.
    let all_root = schema.suppressed_nodes();
    let mut next_suppressed = suppressed.iter().peekable();
    let output = lattice.publish(
        costs,
        (0..n).map(|i| {
            if next_suppressed.next_if_eq(&&(i as u32)).is_some() {
                all_root.clone()
            } else {
                lattice.recode(levels, i).collect()
            }
        }),
    )?;
    Ok(SamaratiOutput {
        output,
        levels: levels.to_vec(),
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
