//! A Mondrian-style **top-down** k-anonymizer (LeFevre et al., adapted to
//! the paper's laminar-hierarchy model) — an extra baseline contrasting
//! the paper's bottom-up agglomerative family. Not part of the original
//! evaluation; included as an ablation (DESIGN.md E-A6) because top-down
//! partitioners are the other standard local-recoding approach. It also
//! powers the shard-and-conquer pre-partitioning stage
//! ([`crate::shard`]), which reuses the split machinery below.
//!
//! The algorithm keeps a queue of clusters, starting from one cluster
//! holding the whole table. For each cluster it considers, per attribute,
//! the partition of the cluster induced by the children of its closure
//! node, greedily packs those child groups into two bins of balanced
//! size, and performs the feasible (both bins ≥ k) binary split that
//! reduces the clustering cost `Σ |S| d(S)` the most. Clusters with no
//! feasible cost-reducing split are final. The result is k-anonymous by
//! construction.
//!
//! ## Rooted cells
//!
//! `--on-bad-row root` ingestion patches unreadable cells with the
//! attribute's first domain value and records them in
//! `IngestReport::rooted_cells` (kanon-data) — semantically
//! those cells hold the hierarchy *root* ("unknown"), not the patched
//! leaf. The splitter used to place every member by the child containing
//! its leaf value, panicking when a cell's effective value was an
//! interior/root node no child contains.
//! [`crate::try_mondrian_k_anonymize_rooted`] threads the rooted-cell
//! set through: a rooted attribute's closure is lifted to the root, and
//! an attribute whose closure node *is* some member's effective value is
//! unsplittable for that cluster. Truly inconsistent annotations (cells
//! outside the table) are a typed [`CoreError`] instead of a panic.

use crate::agglomerative::KAnonOutput;
use crate::cost::CostContext;
use crate::fallible::{Budget, Budgeted};
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::{Hierarchy, NodeId};
use kanon_core::schema::Schema;
use kanon_core::table::Table;
use kanon_measures::NodeCostTable;

/// Failpoint name firing once per Mondrian split attempt (see the
/// `kanon-fault` catalogue).
pub const MONDRIAN_FAIL_POINT: &str = "algos/mondrian/split";

/// Validated, sorted `(row, attr)` set of cells whose *effective* value
/// is the attribute's hierarchy root rather than the stored leaf (the
/// `--on-bad-row root` placeholder).
#[derive(Debug, Clone, Default)]
pub(crate) struct RootedCells {
    cells: Vec<(u32, u32)>,
}

impl RootedCells {
    /// Validates and indexes the raw `(row, attr)` pairs of an
    /// `kanon_data::IngestReport`. Out-of-range entries
    /// are inconsistent input, reported as a typed error.
    pub(crate) fn new(n: usize, num_attrs: usize, cells: &[(usize, usize)]) -> Result<Self> {
        let mut v = Vec::with_capacity(cells.len());
        for &(row, attr) in cells {
            if row >= n {
                return Err(CoreError::InconsistentInput(format!(
                    "rooted cell (row {row}, attr {attr}) is outside a table of {n} rows"
                )));
            }
            if attr >= num_attrs {
                return Err(CoreError::AttrOutOfRange { attr, num_attrs });
            }
            v.push((row as u32, attr as u32));
        }
        v.sort_unstable();
        v.dedup();
        Ok(RootedCells { cells: v })
    }

    /// True when no cell is rooted (the fast path stays untouched).
    pub(crate) fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether `(row, attr)` is rooted.
    pub(crate) fn is_rooted(&self, row: u32, attr: usize) -> bool {
        self.cells.binary_search(&(row, attr as u32)).is_ok()
    }

    /// The attributes rooted for `row`, ascending.
    pub(crate) fn attrs_of(&self, row: u32) -> impl Iterator<Item = usize> + '_ {
        let lo = self.cells.partition_point(|&(r, _)| r < row);
        self.cells[lo..]
            .iter()
            .take_while(move |&&(r, _)| r == row)
            .map(|&(_, a)| a as usize)
    }
}

/// Cluster closure with rooted cells honoured: the leaf-based closure,
/// then every attribute holding a rooted member cell lifted to the root
/// (the join of "unknown" with anything is the root).
pub(crate) fn closure_rooted(
    ctx: &CostContext<'_>,
    schema: &Schema,
    rooted: &RootedCells,
    members: &[u32],
) -> Vec<NodeId> {
    let mut nodes = ctx.closure_of(members);
    if !rooted.is_empty() {
        for &row in members {
            for j in rooted.attrs_of(row) {
                nodes[j] = schema.attr(j).hierarchy().root();
            }
        }
    }
    nodes
}

/// Partitions `members` by the child of `node` covering each member's
/// effective value at attribute `j`.
///
/// `Ok(None)` means the attribute is unsplittable for this cluster: some
/// member's effective node *is* `node` itself (a rooted cell at the
/// closure root — no child can contain it). `Err` means a member's value
/// escapes `node` entirely, which no closure computed by this crate can
/// produce — truly inconsistent input, surfaced as a typed error instead
/// of the historical `.expect` panic.
pub(crate) fn group_by_child(
    table: &Table,
    h: &Hierarchy,
    j: usize,
    node: NodeId,
    children: &[NodeId],
    members: &[u32],
    rooted: &RootedCells,
) -> Result<Option<Vec<Vec<u32>>>> {
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); children.len()];
    for &row in members {
        let eff = if rooted.is_rooted(row, j) {
            h.root()
        } else {
            h.leaf(table.row(row as usize).get(j))
        };
        if eff == node {
            return Ok(None);
        }
        match children.iter().position(|&c| h.is_ancestor_or_eq(c, eff)) {
            Some(ci) => groups[ci].push(row),
            None => {
                return Err(CoreError::InconsistentInput(format!(
                    "row {row}, attribute {j}: value lies outside its cluster's closure node"
                )))
            }
        }
    }
    Ok(Some(groups))
}

/// Greedy balanced packing of child groups into two bins (largest group
/// first, always into the currently smaller bin). Deterministic: ties go
/// to the left bin, and the group order is the stable child order.
pub(crate) fn pack_two_bins(groups: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
    let (mut left, mut right): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for g in order {
        if left.len() <= right.len() {
            left.extend_from_slice(&groups[g]);
        } else {
            right.extend_from_slice(&groups[g]);
        }
    }
    (left, right)
}

/// Mondrian implementation with budget-aware graceful degradation.
pub(crate) fn mondrian_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    rooted_cells: &[(usize, usize)],
) -> Result<Budgeted<KAnonOutput>> {
    let n = table.num_rows();
    if k == 0 || k > n {
        return Err(CoreError::InvalidK { k, n });
    }
    let schema = table.schema().as_ref();
    let rooted = RootedCells::new(n, schema.num_attrs(), rooted_cells)?;
    let _span = kanon_obs::span("mondrian");
    let ctx = CostContext::new(table, costs);

    let mut budget = Budget::arm();
    let mut queue: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
    let mut done: Vec<Vec<u32>> = Vec::new();

    while let Some(members) = queue.pop() {
        if members.len() < 2 * k {
            done.push(members);
            continue;
        }
        kanon_fault::fail_point!(MONDRIAN_FAIL_POINT);
        // Graceful degradation: every queue element already has ≥ k
        // members, so draining the queue into the output keeps the
        // clustering valid — just less refined than a full run.
        if budget.tripped() {
            done.push(members);
            done.append(&mut queue);
            break;
        }
        let closure = closure_rooted(&ctx, schema, &rooted, &members);
        let current_cost = members.len() as f64 * ctx.cost(&closure);

        // Best feasible binary split over attributes.
        let mut best: Option<(f64, usize, Vec<u32>, Vec<u32>)> = None;
        for (j, &node) in closure.iter().enumerate() {
            let h = schema.attr(j).hierarchy();
            let children = h.children(node);
            if children.len() < 2 {
                continue;
            }
            // Group members by the child of `node` covering their
            // effective value; a rooted cell at the closure node makes
            // the attribute unsplittable for this cluster.
            let groups = match group_by_child(table, h, j, node, children, &members, &rooted)? {
                Some(g) => g,
                None => continue,
            };
            let (left, right) = pack_two_bins(&groups);
            if left.len() < k || right.len() < k {
                continue;
            }
            let split_cost = left.len() as f64
                * ctx.cost(&closure_rooted(&ctx, schema, &rooted, &left))
                + right.len() as f64 * ctx.cost(&closure_rooted(&ctx, schema, &rooted, &right));
            if split_cost < current_cost - 1e-12 {
                let better = match &best {
                    None => true,
                    Some((bc, ..)) => split_cost < *bc,
                };
                if better {
                    best = Some((split_cost, groups.len(), left, right));
                }
            }
        }

        match best {
            Some((_, packed, left, right)) => {
                kanon_obs::count(kanon_obs::Counter::MondrianSplits, 1);
                kanon_obs::count(kanon_obs::Counter::MondrianGroupsPacked, packed as u64);
                queue.push(left);
                queue.push(right);
            }
            None => done.push(members),
        }
    }

    Ok(budget.finish(KAnonOutput::from_clusters(table, costs, done)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_mondrian_k_anonymize, try_mondrian_k_anonymize_rooted};
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::KanonError;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn table() -> Table {
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .numeric_with_intervals("age", 0, 19, &[5, 10])
            .build_shared()
            .unwrap();
        let mut rows = Vec::new();
        for i in 0..24u32 {
            rows.push(Record::from_raw([i % 4, (i * 7) % 20]));
        }
        Table::new(Arc::clone(&s), rows).unwrap()
    }

    #[test]
    fn output_is_k_anonymous() {
        let t = table();
        for k in [2, 3, 5, 12] {
            let costs = NodeCostTable::compute(&t, &EntropyMeasure);
            let out = try_mondrian_k_anonymize(&t, &costs, k)
                .unwrap()
                .into_inner();
            assert!(out.clustering.min_cluster_size() >= k, "k={k}");
            assert!(kanon_core::generalize::is_generalization_of(&t, &out.table).unwrap());
        }
    }

    #[test]
    fn splits_reduce_loss_vs_single_cluster() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_mondrian_k_anonymize(&t, &costs, 3)
            .unwrap()
            .into_inner();
        // One big cluster would cost the full-table closure cost.
        let all: Vec<u32> = (0..t.num_rows() as u32).collect();
        let ctx = crate::cost::CostContext::new(&t, &costs);
        let single_cost = ctx.cost(&ctx.closure_of(&all));
        assert!(out.loss < single_cost);
        assert!(out.clustering.num_clusters() > 1);
    }

    #[test]
    fn small_tables_stay_single_cluster() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let out = try_mondrian_k_anonymize(&t, &costs, 13)
            .unwrap()
            .into_inner();
        // 24 rows with k = 13: no split can give two bins ≥ 13.
        assert_eq!(out.clustering.num_clusters(), 1);
    }

    #[test]
    fn invalid_k_rejected() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        assert!(matches!(
            try_mondrian_k_anonymize(&t, &costs, 0),
            Err(KanonError::Core(_))
        ));
        assert!(matches!(
            try_mondrian_k_anonymize(&t, &costs, 25),
            Err(KanonError::Core(_))
        ));
    }

    #[test]
    fn deterministic() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let a = try_mondrian_k_anonymize(&t, &costs, 3)
            .unwrap()
            .into_inner();
        let b = try_mondrian_k_anonymize(&t, &costs, 3)
            .unwrap()
            .into_inner();
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn rooted_cell_round_trip_does_not_panic() {
        // Regression for the `.expect("laminar: …")` panic: ingest a table
        // under `--on-bad-row root`, then run Mondrian with the report's
        // rooted cells. The rooted attribute's closure is the root, which
        // no child contains — it must be treated as unsplittable, not a
        // panic.
        use kanon_data::{table_from_csv_with_policy, RowPolicy};
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .categorical("x", ["p", "q"])
            .build_shared()
            .unwrap();
        let mut text = String::new();
        for i in 0..16 {
            let c = ["a", "b", "c", "d", "??"][i % 5]; // every 5th cell unreadable
            let x = ["p", "q"][i % 2];
            text.push_str(&format!("{c},{x}\n"));
        }
        let (t, report) =
            table_from_csv_with_policy(&s, &text, false, RowPolicy::GeneralizeToRoot).unwrap();
        assert!(!report.rooted_cells.is_empty());
        for k in [2, 3, 5] {
            let costs = NodeCostTable::compute(&t, &EntropyMeasure);
            let out = try_mondrian_k_anonymize_rooted(&t, &costs, k, &report.rooted_cells)
                .unwrap()
                .into_inner();
            assert!(out.clustering.min_cluster_size() >= k, "k={k}");
            // Every cluster holding a rooted row must generalize the
            // rooted attribute to the root (the cell's true value is
            // unknown, so nothing narrower is sound).
            let h = t.schema().attr(0).hierarchy();
            for &(row, attr) in &report.rooted_cells {
                assert_eq!(attr, 0);
                assert_eq!(out.table.row(row).nodes()[0], h.root(), "row {row}");
            }
        }
    }

    #[test]
    fn rooted_cells_outside_the_table_are_typed_errors() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let err = try_mondrian_k_anonymize_rooted(&t, &costs, 3, &[(999, 0)]).unwrap_err();
        assert!(
            matches!(err, KanonError::Core(CoreError::InconsistentInput(_))),
            "{err}"
        );
        let err = try_mondrian_k_anonymize_rooted(&t, &costs, 3, &[(0, 9)]).unwrap_err();
        assert!(
            matches!(err, KanonError::Core(CoreError::AttrOutOfRange { .. })),
            "{err}"
        );
    }

    #[test]
    fn rooted_run_equals_plain_run_when_no_cells_are_rooted() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let plain = try_mondrian_k_anonymize(&t, &costs, 3)
            .unwrap()
            .into_inner();
        let rooted = try_mondrian_k_anonymize_rooted(&t, &costs, 3, &[])
            .unwrap()
            .into_inner();
        assert_eq!(plain.clustering, rooted.clustering);
        assert_eq!(plain.loss.to_bits(), rooted.loss.to_bits());
    }

    #[test]
    fn budget_exhaustion_degrades_to_valid_output() {
        let t = table();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let out = kanon_obs::with_work_budget(1, || {
            crate::try_mondrian_k_anonymize(&t, &costs, 3).unwrap()
        });
        assert!(out.is_exhausted());
        let out = out.into_inner();
        assert!(out.clustering.min_cluster_size() >= 3);
    }
}
