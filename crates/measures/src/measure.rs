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
//! clustering. Next to each cost row it keeps the attribute's fused
//! join×cost table: `join(a, b)` and its cost for every node pair, so the
//! clustering kernels price a join with one probe.

use kanon_core::hierarchy::{Hierarchy, NodeId};
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

/// Node budget for the fused join×cost tables: an attribute whose
/// hierarchy has at most this many nodes gets one (memory: `limit²` × 16
/// bytes = 4 MiB worst case per attribute); larger hierarchies climb
/// parent pointers instead.
pub const JOIN_TABLE_LIMIT: usize = 512;

/// One entry of a fused join×cost table: the join of two nodes and that
/// join's cost, loaded together with a single probe.
#[derive(Debug, Clone, Copy)]
pub struct JoinEntry {
    /// The joined node `join(a, b)`, as a raw [`NodeId`] index.
    pub node: u32,
    /// The joined node's cost, bit-copied from the attribute's cost row.
    pub cost: f64,
}

/// Precomputed `cost_j(B)` for every attribute `j` and hierarchy node `B`
/// of a given (table, measure) pair, plus each attribute's fused
/// join×cost table.
///
/// All algorithm implementations in `kanon-algos` take a `NodeCostTable`,
/// which both fixes the measure and pins the statistics to the original
/// table (the paper's measures are always computed against the original
/// distribution, even as records get generalized).
#[derive(Debug, Clone)]
pub struct NodeCostTable {
    /// `costs[j][node]` = cost of generalizing attribute `j` to `node`.
    costs: Vec<Vec<f64>>,
    /// `joins[j][a * num_nodes + b]` = `join(a, b)` of attribute `j` and
    /// its cost; `None` for hierarchies over [`JOIN_TABLE_LIMIT`] nodes.
    joins: Vec<Option<Vec<JoinEntry>>>,
    /// Number of attributes `r`.
    num_attrs: usize,
    /// Measure name, for reports.
    measure_name: &'static str,
}

impl NodeCostTable {
    /// Precomputes all node costs of `measure` over `table`, and the
    /// fused join×cost table of every attribute whose hierarchy has at
    /// most [`JOIN_TABLE_LIMIT`] nodes (O(nodes²) each, built once here
    /// and borrowed by every clustering context over this table).
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
        let costs: Vec<Vec<f64>> = (0..schema.num_attrs())
            .map(|j| {
                let h = schema.attr(j).hierarchy();
                kanon_parallel::map(h.num_nodes(), |ni| {
                    measure.node_cost(&ctx, j, NodeId(ni as u32))
                })
            })
            .collect();
        let joins = costs
            .iter()
            .enumerate()
            .map(|(j, row)| {
                let h = schema.attr(j).hierarchy();
                (h.num_nodes() <= JOIN_TABLE_LIMIT).then(|| fused_joins(h, row))
            })
            .collect();
        NodeCostTable {
            costs,
            joins,
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

    /// The fused join×cost table of one attribute: `num_nodes²` entries,
    /// `join(a, b)` at `a * num_nodes + b`. `None` when the hierarchy is
    /// over [`JOIN_TABLE_LIMIT`] nodes or the tables were dropped
    /// ([`Self::without_join_tables`]); joins then climb parent pointers.
    #[inline]
    pub fn attr_joins(&self, attr: usize) -> Option<&[JoinEntry]> {
        self.joins[attr].as_deref()
    }

    /// This table with every fused join table dropped, so every join
    /// climbs parent pointers. Joins and costs are the same either way
    /// (each entry is copied from the climb and the cost row): dropping
    /// the tables only trades speed for memory.
    pub fn without_join_tables(mut self) -> Self {
        self.joins.iter_mut().for_each(|j| *j = None);
        self
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

/// One attribute's fused join×cost table: `join(a, b)` by parent-pointer
/// climb for every node pair, with the cost bit-copied from `cost_row`.
fn fused_joins(h: &Hierarchy, cost_row: &[f64]) -> Vec<JoinEntry> {
    h.node_ids()
        .flat_map(|a| {
            h.node_ids().map(move |b| {
                let node = h.join(a, b);
                JoinEntry {
                    node: node.0,
                    cost: cost_row[node.index()],
                }
            })
        })
        .collect()
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

    #[test]
    fn fused_entries_are_the_climb_with_bit_copied_costs() {
        use crate::EntropyMeasure;
        use kanon_core::domain::AttributeDomain;
        use kanon_core::schema::Attribute;
        let tables = [
            kanon_data::art::generate(60, 3),
            kanon_data::adult::generate(60, 3),
            kanon_data::cmc::generate(60, 3).table,
        ];
        for t in &tables {
            let costs = NodeCostTable::compute(t, &EntropyMeasure);
            let schema = t.schema();
            for j in 0..schema.num_attrs() {
                let h = schema.attr(j).hierarchy();
                let m = h.num_nodes();
                assert!(m <= JOIN_TABLE_LIMIT, "{}", schema.attr(j).name());
                let entries = costs.attr_joins(j).expect("under the node budget");
                assert_eq!(entries.len(), m * m);
                for a in h.node_ids() {
                    for b in h.node_ids() {
                        let e = entries[a.index() * m + b.index()];
                        let join = h.join(a, b);
                        assert_eq!(e.node, join.0, "{} {a} {b}", schema.attr(j).name());
                        assert_eq!(e.cost.to_bits(), costs.entry_cost(j, join).to_bits());
                    }
                }
            }
            let climb = costs.without_join_tables();
            assert!((0..schema.num_attrs()).all(|j| climb.attr_joins(j).is_none()));
        }
        // A 600-value interval ladder has 667 nodes: over the budget, so
        // its joins climb.
        let big = Attribute::new(
            AttributeDomain::anonymous("big", 600).unwrap(),
            Hierarchy::intervals(600, &[10, 100]).unwrap(),
        )
        .unwrap();
        assert_eq!(big.hierarchy().num_nodes(), 667);
        let s = SchemaBuilder::new()
            .categorical("a", ["x", "y"])
            .attribute(big)
            .build_shared()
            .unwrap();
        let t = Table::new(Arc::clone(&s), vec![Record::from_raw([0, 599])]).unwrap();
        let costs = NodeCostTable::compute(&t, &SizeMeasure);
        assert_eq!(costs.attr_joins(0).map(<[_]>::len), Some(9));
        assert!(costs.attr_joins(1).is_none());
    }
}
