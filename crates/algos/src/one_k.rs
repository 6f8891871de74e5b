//! Algorithm 5 of Sec. V-B.2: the (1,k)-anonymizer.
//!
//! Given any generalization `g(D)` of `D`, further generalizes records of
//! `g(D)` until every *original* record is consistent with at least `k`
//! generalized records. Applied to a (k,1)-anonymization, the result is a
//! (k,k)-anonymization — the paper's recommended practical notion.
//!
//! For each original record `R_i` with fewer than `k` consistent
//! generalized records, the algorithm scans the non-consistent generalized
//! records `R̄_j` and upgrades the `k − ℓ` of them that are cheapest to
//! stretch, i.e. minimize `c(R̄_j + R_i) − c(R̄_j)`.

use crate::cost::CostContext;
use crate::k1::GenOutput;
use kanon_core::error::Result;
use kanon_core::generalize::is_consistent;
use kanon_core::table::{check_aligned, check_k, GeneralizedTable, Table};
use kanon_measures::NodeCostTable;

pub(crate) fn one_k_impl(
    table: &Table,
    gtable: &GeneralizedTable,
    costs: &NodeCostTable,
    k: usize,
) -> Result<GenOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    check_aligned(table, gtable)?;
    let _span = kanon_obs::span("one_k_anonymize");
    let ctx = CostContext::new(table, costs);
    let schema = table.schema();
    let mut out = gtable.clone();

    for i in 0..n {
        kanon_fault::fail_point!("algos/one_k/upgrade");
        let rec = table.row(i);
        // ℓ = number of generalized records consistent with R_i.
        let consistent: Vec<bool> = (0..n)
            .map(|j| is_consistent(schema, rec, out.row(j)))
            .collect();
        let ell = consistent.iter().filter(|&&c| c).count();
        if ell >= k {
            continue;
        }
        // Cheapest-to-stretch non-consistent records.
        let mut cand: Vec<(f64, usize)> = (0..n)
            .filter(|&j| !consistent[j])
            .map(|j| {
                let nodes = out.row(j).nodes();
                (ctx.join_row_cost(nodes, i) - ctx.cost(nodes), j)
            })
            .collect();
        let need = k - ell;
        kanon_obs::count(kanon_obs::Counter::OneKUpgrades, need as u64);
        debug_assert!(cand.len() >= need, "n ≥ k guarantees enough candidates");
        cand.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, j) in &cand[..need] {
            let mut nodes = out.row(j).nodes().to_vec();
            ctx.join_row_into(&mut nodes, i);
            *out.row_mut(j) = ctx.to_record(&nodes);
        }
    }

    let loss = costs.table_loss(&out);
    Ok(GenOutput { table: out, loss })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::k1::{k1_expansion, k1_nearest_neighbors};
    use crate::try_one_k_anonymize;
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_core::KanonError;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"]],
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
        ];
        Table::new(Arc::clone(s), rows).unwrap()
    }

    fn min_left_degree(t: &Table, g: &GeneralizedTable) -> usize {
        let schema = t.schema();
        t.rows()
            .iter()
            .map(|r| {
                g.rows()
                    .iter()
                    .filter(|gr| is_consistent(schema, r, gr))
                    .count()
            })
            .min()
            .unwrap()
    }

    #[test]
    fn upgrades_identity_to_1k() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let idg = GeneralizedTable::identity_of(&t);
        for k in [2, 3] {
            let out = try_one_k_anonymize(&t, &idg, &costs, k).unwrap();
            assert!(min_left_degree(&t, &out.table) >= k, "k={k}");
            // Output still generalizes the original row-wise.
            assert!(kanon_core::generalize::is_generalization_of(&t, &out.table).unwrap());
        }
    }

    #[test]
    fn composing_with_k1_gives_kk() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [2, 3] {
            for k1 in [
                k1_nearest_neighbors(&t, &costs, k).unwrap(),
                k1_expansion(&t, &costs, k).unwrap(),
            ] {
                let out = try_one_k_anonymize(&t, &k1.table, &costs, k).unwrap();
                // (1,k): every original consistent with ≥ k generalized.
                assert!(min_left_degree(&t, &out.table) >= k);
                // (k,1): preserved because rows only got MORE general.
                let schema = t.schema();
                for gr in out.table.rows() {
                    let cnt = t
                        .rows()
                        .iter()
                        .filter(|r| is_consistent(schema, r, gr))
                        .count();
                    assert!(cnt >= k);
                }
            }
        }
    }

    #[test]
    fn already_1k_input_is_unchanged() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        // Fully suppressed table is (1,n)-anonymous already.
        let star = kanon_core::GeneralizedRecord::new(s.suppressed_nodes());
        let g =
            GeneralizedTable::new(Arc::clone(&s), (0..6).map(|_| star.clone()).collect()).unwrap();
        let out = try_one_k_anonymize(&t, &g, &costs, 3).unwrap();
        assert_eq!(out.table.rows(), g.rows());
    }

    #[test]
    fn loss_never_decreases_relative_to_input() {
        // Algorithm 5 only generalizes further, so loss can only grow
        // under a monotone measure such as LM.
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let k1 = k1_expansion(&t, &costs, 2).unwrap();
        let out = try_one_k_anonymize(&t, &k1.table, &costs, 2).unwrap();
        assert!(out.loss >= k1.loss - 1e-12);
    }

    #[test]
    fn invalid_k_rejected() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let idg = GeneralizedTable::identity_of(&t);
        assert!(matches!(
            try_one_k_anonymize(&t, &idg, &costs, 0),
            Err(KanonError::Core(_))
        ));
        assert!(matches!(
            try_one_k_anonymize(&t, &idg, &costs, 7),
            Err(KanonError::Core(_))
        ));
    }
}
