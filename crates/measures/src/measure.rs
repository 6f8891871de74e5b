//! The measure abstraction and the precomputed node-cost table.
//!
//! The paper's two experimental measures — entropy (Eq. 3) and LM (Eq. 4) —
//! share a crucial structural property (Sec. V-A.2): the loss decomposes as
//!
//! ```text
//! Π(D, g(D)) = (1/n) Σ_i c(R̄_i),   c(R̄) = (1/r) Σ_j cost_j(R̄(j))
//! ```
//!
//! where `cost_j(B)` depends only on the attribute `j`, the generalized
//! subset `B`, and the *original* table's statistics. Measures of this form
//! implement [`EntryMeasure`]; [`NodeCostTable`] precomputes `cost_j(B)`
//! for every hierarchy node once, so that the cluster cost
//! `d(S) = c(closure(S))` of Eq. (7) is an O(r) table lookup during
//! clustering.

use kanon_core::hierarchy::NodeId;
use kanon_core::record::GeneralizedRecord;
use kanon_core::schema::Schema;
use kanon_core::stats::TableStats;
use kanon_core::table::{GeneralizedTable, Table};

/// Context handed to measures when computing per-node costs.
pub struct MeasureContext<'a> {
    /// The schema of the table being anonymized.
    pub schema: &'a Schema,
    /// Per-attribute value counts of the original table.
    pub stats: &'a TableStats,
}

/// A per-entry information-loss measure: the cost of generalizing an entry
/// of attribute `attr` to the permissible subset `node`, independent of
/// which record the entry came from.
///
/// Implementors: [`crate::EntropyMeasure`] (Eq. 3), [`crate::LmMeasure`]
/// (Eq. 4), [`crate::TreeMeasure`] (the hierarchy-level measure of
/// Aggarwal et al.).
pub trait EntryMeasure {
    /// Short measure name for reports ("EM", "LM", …).
    fn name(&self) -> &'static str;

    /// Cost of generalizing an entry of `attr` to `node`. Sensible
    /// measures are zero on singleton leaves. Note that the entropy
    /// measure is *not* monotone along hierarchy edges in general
    /// (a skewed parent can have lower conditional entropy than a
    /// balanced child) — see the discussion in Gionis & Tassa (ESA 2007);
    /// LM and the tree measure are monotone.
    fn node_cost(&self, ctx: &MeasureContext<'_>, attr: usize, node: NodeId) -> f64;
}

/// Precomputed `cost_j(B)` for every attribute `j` and hierarchy node `B`
/// of a given (table, measure) pair.
///
/// All algorithm implementations in `kanon-algos` take a `NodeCostTable`,
/// which both fixes the measure and pins the statistics to the original
/// table (the paper's measures are always computed against the original
/// distribution, even as records get generalized).
#[derive(Debug, Clone)]
pub struct NodeCostTable {
    /// `costs[j][node]` = cost of generalizing attribute `j` to `node`.
    costs: Vec<Vec<f64>>,
    /// Number of attributes `r`.
    num_attrs: usize,
    /// Measure name, for reports.
    measure_name: &'static str,
}

impl NodeCostTable {
    /// Precomputes all node costs of `measure` over `table`.
    ///
    /// Node costs within each attribute are computed in parallel via
    /// `kanon-parallel` (entry measures are pure per-node functions, so
    /// the result is identical to the serial pass at any thread count).
    pub fn compute<M: EntryMeasure + Sync>(table: &Table, measure: &M) -> Self {
        let _span = kanon_obs::span("node_cost_table");
        kanon_obs::count(kanon_obs::Counter::NodeCostTables, 1);
        let schema = table.schema();
        let stats = TableStats::compute(table);
        let ctx = MeasureContext {
            schema,
            stats: &stats,
        };
        let costs = (0..schema.num_attrs())
            .map(|j| {
                let h = schema.attr(j).hierarchy();
                kanon_parallel::map(h.num_nodes(), |ni| {
                    measure.node_cost(&ctx, j, NodeId(ni as u32))
                })
            })
            .collect();
        NodeCostTable {
            costs,
            num_attrs: schema.num_attrs(),
            measure_name: measure.name(),
        }
    }

    /// The measure's name ("EM", "LM", …).
    #[inline]
    pub fn measure_name(&self) -> &'static str {
        self.measure_name
    }

    /// Number of attributes `r`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// Cost of one generalized entry.
    #[inline]
    pub fn entry_cost(&self, attr: usize, node: NodeId) -> f64 {
        self.costs[attr][node.index()]
    }

    /// The dense per-node cost row of one attribute, indexed by
    /// `NodeId::index()`. This is the flat view the clustering kernels
    /// hold on to so an entry cost is a single slice load.
    #[inline]
    pub fn attr_costs(&self, attr: usize) -> &[f64] {
        &self.costs[attr]
    }

    /// The generalization cost `c(R̄)` of a generalized record: the average
    /// entry cost over attributes (both Eq. 3 and Eq. 4 carry the `1/r`).
    pub fn record_cost(&self, grec: &GeneralizedRecord) -> f64 {
        self.nodes_cost(grec.nodes())
    }

    /// The cost of a generalized record given as a plain node slice —
    /// the cluster cost `d(S) = c(closure(S))` when fed closure nodes.
    pub fn nodes_cost(&self, nodes: &[NodeId]) -> f64 {
        let sum: f64 = nodes
            .iter()
            .enumerate()
            .map(|(j, &n)| self.costs[j][n.index()])
            .sum();
        sum / self.num_attrs as f64
    }

    /// The table loss `Π(D, g(D)) = (1/n) Σ_i c(R̄_i)` (Eq. 3 / Eq. 4).
    pub fn table_loss(&self, gtable: &GeneralizedTable) -> f64 {
        if gtable.num_rows() == 0 {
            return 0.0;
        }
        let sum: f64 = gtable.rows().iter().map(|r| self.record_cost(r)).sum();
        sum / gtable.num_rows() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use std::sync::Arc;

    /// A toy measure: cost = node size − 1 (un-normalized LM numerator).
    struct SizeMeasure;
    impl EntryMeasure for SizeMeasure {
        fn name(&self) -> &'static str {
            "SIZE"
        }
        fn node_cost(&self, ctx: &MeasureContext<'_>, attr: usize, node: NodeId) -> f64 {
            (ctx.schema.attr(attr).hierarchy().node_size(node) - 1) as f64
        }
    }

    #[test]
    fn record_and_table_costs_average_over_attrs() {
        let s = SchemaBuilder::new()
            .categorical("a", ["x", "y"])
            .categorical("b", ["p", "q", "r"])
            .build_shared()
            .unwrap();
        let t = Table::new(
            Arc::clone(&s),
            vec![Record::from_raw([0, 0]), Record::from_raw([1, 2])],
        )
        .unwrap();
        let costs = NodeCostTable::compute(&t, &SizeMeasure);
        assert_eq!(costs.measure_name(), "SIZE");

        // Fully suppressed record: ((2-1) + (3-1)) / 2 = 1.5
        let star = GeneralizedRecord::new(s.suppressed_nodes());
        assert!((costs.record_cost(&star) - 1.5).abs() < 1e-12);

        // Identity generalization costs 0.
        let g = GeneralizedTable::identity_of(&t);
        assert_eq!(costs.table_loss(&g), 0.0);

        // One suppressed row out of two: loss = 1.5/2.
        let g2 =
            GeneralizedTable::new_unchecked(Arc::clone(&s), vec![star.clone(), g.row(1).clone()]);
        assert!((costs.table_loss(&g2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn nodes_cost_matches_record_cost() {
        let s = SchemaBuilder::new()
            .categorical("a", ["x", "y"])
            .categorical("b", ["p", "q", "r"])
            .build_shared()
            .unwrap();
        let t = Table::new(Arc::clone(&s), vec![Record::from_raw([0, 0])]).unwrap();
        let costs = NodeCostTable::compute(&t, &SizeMeasure);
        let star = GeneralizedRecord::new(s.suppressed_nodes());
        assert_eq!(costs.record_cost(&star), costs.nodes_cost(star.nodes()));
    }
}
