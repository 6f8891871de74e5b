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

use crate::agglomerative::KAnonOutput;
use crate::cost::CostContext;
use crate::fallible::{Budget, Budgeted};
use crate::split::{self, SplitPolicy};
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
        ctx: &CostContext<'_>,
        members: &[u32],
        closure: &[NodeId],
        left: &[u32],
        right: &[u32],
    ) -> Option<f64> {
        if left.len() < self.k || right.len() < self.k {
            return None;
        }
        let current_cost = members.len() as f64 * ctx.cost(closure);
        let split_cost = left.len() as f64 * ctx.cost(&ctx.closure_of(left))
            + right.len() as f64 * ctx.cost(&ctx.closure_of(right));
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
) -> Result<Budgeted<KAnonOutput>> {
    check_k(k, table.num_rows())?;
    let _span = kanon_obs::span("mondrian");
    let ctx = CostContext::new(table, costs);
    let mut budget = Budget::arm();
    let clusters = split::run(&ctx, &MondrianPolicy { k }, &mut budget)?;
    Ok(budget.finish(KAnonOutput::from_clusters(table, costs, clusters)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_mondrian_k_anonymize;
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
        // under `--on-bad-row root` and run Mondrian on it. A patched cell
        // holds its fallback value (the attribute's first domain value,
        // here "a") and is split on like any other, so the run equals the
        // run on the table with that value written in.
        use kanon_data::{table_from_csv_with_policy, RowPolicy};
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .categorical("x", ["p", "q"])
            .build_shared()
            .unwrap();
        let (mut patched, mut filled) = (String::new(), String::new());
        for i in 0..16 {
            let c = ["a", "b", "c", "d", "??"][i % 5]; // every 5th cell unreadable
            let x = ["p", "q"][i % 2];
            patched.push_str(&format!("{c},{x}\n"));
            filled.push_str(&format!("{},{x}\n", if c == "??" { "a" } else { c }));
        }
        let (t, report) =
            table_from_csv_with_policy(&s, &patched, false, RowPolicy::GeneralizeToRoot).unwrap();
        assert!(!report.rooted_cells.is_empty());
        let (f, report) =
            table_from_csv_with_policy(&s, &filled, false, RowPolicy::Strict).unwrap();
        assert!(report.is_clean());
        for k in [2, 3, 5] {
            let costs = NodeCostTable::compute(&t, &EntropyMeasure);
            let out = try_mondrian_k_anonymize(&t, &costs, k)
                .unwrap()
                .into_inner();
            assert!(out.clustering.min_cluster_size() >= k, "k={k}");
            let costs = NodeCostTable::compute(&f, &EntropyMeasure);
            let reference = try_mondrian_k_anonymize(&f, &costs, k)
                .unwrap()
                .into_inner();
            assert_eq!(out.clustering, reference.clustering, "k={k}");
            assert_eq!(out.loss.to_bits(), reference.loss.to_bits(), "k={k}");
            for row in 0..t.num_rows() {
                assert_eq!(
                    out.table.row(row),
                    reference.table.row(row),
                    "k={k} row {row}"
                );
            }
        }
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
