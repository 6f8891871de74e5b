//! A Mondrian-style **top-down** k-anonymizer (LeFevre et al., adapted to
//! the paper's laminar-hierarchy model) — an extra baseline contrasting
//! the paper's bottom-up agglomerative family. Not part of the original
//! evaluation; included as an ablation (DESIGN.md E-A6) because top-down
//! partitioners are the other standard local-recoding approach.
//!
//! This module is one policy of the shared top-down splitter (the
//! `split` module, also behind [`crate::shard`]): a cluster of fewer than
//! `2k` rows is final, and the split taken is the one, with both bins
//! ≥ k rows, that reduces the clustering cost `Σ |S| d(S)` the most. The
//! result is k-anonymous by construction.
//! [`crate::try_mondrian_k_anonymize_rooted`] passes the rooted cells of
//! an `--on-bad-row root` ingest to the splitter.

use crate::agglomerative::KAnonOutput;
use crate::fallible::{Budget, Budgeted};
use crate::split::{SplitPolicy, Splitter};
use kanon_core::error::Result;
use kanon_core::hierarchy::NodeId;
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;

/// Failpoint name firing once per Mondrian split attempt (see the
/// `kanon-fault` catalogue).
pub const MONDRIAN_FAIL_POINT: &str = MondrianPolicy::SPLIT_POINT;

/// Mondrian's rules for the splitter.
struct MondrianPolicy {
    k: usize,
}

impl SplitPolicy for MondrianPolicy {
    const SPLIT_POINT: &'static str = "algos/mondrian/split";
    type Score = f64;

    fn is_final(&self, len: usize) -> bool {
        len < 2 * self.k
    }

    fn score(
        &self,
        splitter: &Splitter<'_>,
        members: &[u32],
        closure: &[NodeId],
        left: &[u32],
        right: &[u32],
    ) -> Option<f64> {
        if left.len() < self.k || right.len() < self.k {
            return None;
        }
        let ctx = splitter.ctx();
        let current_cost = members.len() as f64 * ctx.cost(closure);
        let split_cost = left.len() as f64 * ctx.cost(&splitter.closure(left))
            + right.len() as f64 * ctx.cost(&splitter.closure(right));
        (split_cost < current_cost - 1e-12).then_some(split_cost)
    }

    fn on_split(&self, packed: usize) {
        kanon_obs::count(kanon_obs::Counter::MondrianSplits, 1);
        kanon_obs::count(kanon_obs::Counter::MondrianGroupsPacked, packed as u64);
    }
}

/// Mondrian implementation with budget-aware graceful degradation.
pub(crate) fn mondrian_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
    rooted_cells: &[(usize, usize)],
) -> Result<Budgeted<KAnonOutput>> {
    check_k(k, table.num_rows())?;
    let _span = kanon_obs::span("mondrian");
    let splitter = Splitter::new(table, costs, rooted_cells)?;
    let mut budget = Budget::arm();
    let clusters = splitter.run(&MondrianPolicy { k }, &mut budget)?;
    Ok(budget.finish(KAnonOutput::from_clusters(table, costs, clusters)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_mondrian_k_anonymize, try_mondrian_k_anonymize_rooted};
    use kanon_core::error::CoreError;
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
