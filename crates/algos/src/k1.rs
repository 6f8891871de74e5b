//! Algorithms 3 and 4 of Sec. V-B.1: (k,1)-anonymizers.
//!
//! A (k,1)-anonymization generalizes every record independently so that
//! its generalized form is consistent with at least `k` original records.
//!
//! * **Algorithm 3** ([`k1_nearest_neighbors`]) joins every record with
//!   its `k−1` nearest records under the pairwise cost `d({R_i, R_j})`;
//!   Prop. 5.1 gives it a `(k−1)`-approximation guarantee.
//! * **Algorithm 4** ([`k1_expansion`]) grows each record's set greedily,
//!   at every step adding the record minimizing the *marginal* cost
//!   `d(S ∪ {R_j}) − d(S)`. No guarantee, but the paper found it to
//!   perform much better in practice.
//!
//! Both run in O(k·n²) and are embarrassingly parallel across rows; the
//! row loop runs on `kanon_parallel::map` (the per-row computation is
//! pure, so results are identical at any thread count).

use crate::cost::CostContext;
use kanon_core::error::Result;
use kanon_core::table::{check_k, GeneralizedTable, Table};
use kanon_measures::NodeCostTable;
use std::sync::Arc;

/// Output of an anonymizer that produces a generalized table without an
/// underlying clustering ((k,1), (k,k), global (1,k)).
#[derive(Debug, Clone)]
pub struct GenOutput {
    /// The generalized table.
    pub table: GeneralizedTable,
    /// The information loss `Π(D, g(D))` under the supplied measure.
    pub loss: f64,
}

/// Algorithm 3: (k,1)-anonymization by nearest neighbours.
///
/// For each record `R_i`, finds the `k−1` records minimizing
/// `d({R_i, R_j})` (deterministic tie-break on the row index) and
/// publishes the closure of the k-set.
pub fn k1_nearest_neighbors(table: &Table, costs: &NodeCostTable, k: usize) -> Result<GenOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    let _span = kanon_obs::span("k1_nearest_neighbors");
    let ctx = CostContext::new(table, costs);
    let leaves = ctx.leaf_arena();

    let rows = kanon_parallel::map(n, |i| {
        kanon_fault::fail_point!("algos/k1/row");
        kanon_obs::count(kanon_obs::Counter::K1RowsExpanded, 1);
        if k == 1 {
            return ctx.to_record(&ctx.leaf_nodes(i));
        }
        // Distances to every other record, one batch; select the k−1
        // smallest.
        let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        let dist = ctx.slot_scan(&leaves, i).priced(&others, true);
        let mut cand: Vec<(f64, usize)> = dist.into_iter().zip(others).collect();
        cand.select_nth_unstable_by(k - 2, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut nodes = ctx.leaf_nodes(i);
        for &(_, j) in &cand[..k - 1] {
            ctx.join_row_into(&mut nodes, j);
        }
        ctx.to_record(&nodes)
    });

    let gtable = GeneralizedTable::new_unchecked(Arc::clone(table.schema()), rows);
    let loss = costs.table_loss(&gtable);
    Ok(GenOutput {
        table: gtable,
        loss,
    })
}

/// Algorithm 4: (k,1)-anonymization by greedy expansion.
///
/// For each record, starts from the singleton `S_i = {R_i}` and `k−1`
/// times adds the record `R_j ∉ S_i` minimizing
/// `dist(S_i, R_j) = d(S_i ∪ {R_j}) − d(S_i)` (tie-break on row index),
/// then publishes the closure of `S_i`.
pub fn k1_expansion(table: &Table, costs: &NodeCostTable, k: usize) -> Result<GenOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    let _span = kanon_obs::span("k1_expansion");
    let ctx = CostContext::new(table, costs);
    let leaves = ctx.leaf_arena();

    let rows = kanon_parallel::map(n, |i| {
        kanon_fault::fail_point!("algos/k1/row");
        kanon_obs::count(kanon_obs::Counter::K1RowsExpanded, 1);
        let mut nodes = ctx.leaf_nodes(i);
        if k == 1 {
            return ctx.to_record(&nodes);
        }
        // The rows not yet in the set, ascending, so the first of equal
        // deltas is the lowest row.
        let mut untaken: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        let mut cost = ctx.cost(&nodes);
        for _ in 1..k {
            let joined = ctx
                .scan(nodes.iter().copied(), &leaves)
                .priced(&untaken, false);
            let mut best = 0;
            let mut best_delta = f64::INFINITY;
            for (at, &c) in joined.iter().enumerate() {
                let delta = c - cost;
                if delta.total_cmp(&best_delta).is_lt() {
                    best_delta = delta;
                    best = at;
                }
            }
            ctx.join_row_into(&mut nodes, untaken.remove(best));
            cost = ctx.cost(&nodes);
        }
        ctx.to_record(&nodes)
    });

    let gtable = GeneralizedTable::new_unchecked(Arc::clone(table.schema()), rows);
    let loss = costs.table_loss(&gtable);
    Ok(GenOutput {
        table: gtable,
        loss,
    })
}

/// Exhaustive optimal (k,1)-anonymization for tiny tables (test oracle):
/// for every record, tries **all** `(k−1)`-subsets of the other records
/// and keeps the cheapest closure. O(n · C(n−1, k−1)) — use only for
/// n ≲ 15.
pub fn k1_optimal_bruteforce(table: &Table, costs: &NodeCostTable, k: usize) -> Result<GenOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    let ctx = CostContext::new(table, costs);

    /// Advances `combo` to the next lexicographic (|combo|)-combination of
    /// `0..n`; returns false when exhausted.
    fn next_combination(combo: &mut [usize], n: usize) -> bool {
        let k = combo.len();
        let mut i = k;
        while i > 0 {
            i -= 1;
            if combo[i] < n - k + i {
                combo[i] += 1;
                for j in i + 1..k {
                    combo[j] = combo[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }

    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        let mut best_nodes = None;
        let mut best_cost = f64::INFINITY;
        let mut combo: Vec<usize> = (0..k - 1).collect(); // indices into others
        loop {
            let mut nodes = ctx.leaf_nodes(i);
            for &ci in &combo {
                ctx.join_row_into(&mut nodes, others[ci]);
            }
            let c = ctx.cost(&nodes);
            if c.total_cmp(&best_cost).is_lt() {
                best_cost = c;
                best_nodes = Some(nodes);
            }
            if !next_combination(&mut combo, others.len()) {
                break;
            }
        }
        // kanon-lint: allow(L006) the combo loop always runs at least once
        rows.push(ctx.to_record(&best_nodes.expect("at least one combo")));
    }
    let gtable = GeneralizedTable::new_unchecked(Arc::clone(table.schema()), rows);
    let loss = costs.table_loss(&gtable);
    Ok(GenOutput {
        table: gtable,
        loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_measures::{EntropyMeasure, LmMeasure};

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"], &["a", "b", "c", "d"]],
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
            Record::from_raw([5, 0]),
        ];
        Table::new(Arc::clone(s), rows).unwrap()
    }

    fn check_k1(t: &Table, g: &GeneralizedTable, k: usize) {
        // Every generalized record must be consistent with ≥ k originals.
        let schema = t.schema();
        for grec in g.rows() {
            let count = t
                .rows()
                .iter()
                .filter(|r| kanon_core::generalize::is_consistent(schema, r, grec))
                .count();
            assert!(count >= k, "record covers only {count} originals");
        }
    }

    #[test]
    fn nearest_neighbors_produces_k1() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        for k in [1, 2, 3, 6] {
            let out = k1_nearest_neighbors(&t, &costs, k).unwrap();
            check_k1(&t, &out.table, k);
        }
    }

    #[test]
    fn expansion_produces_k1() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [1, 2, 3, 6] {
            let out = k1_expansion(&t, &costs, k).unwrap();
            check_k1(&t, &out.table, k);
        }
    }

    #[test]
    fn k1_is_cheaper_than_k_anonymity() {
        // (k,1) relaxes k-anonymity, so the best (k,1) loss can only be ≤
        // the loss of any k-anonymization. Compare against the
        // agglomerative output.
        use crate::agglomerative::AgglomerativeConfig;
        use crate::try_agglomerative_k_anonymize;
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let kanon = try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(2))
            .unwrap()
            .into_inner();
        let k1 = k1_expansion(&t, &costs, 2).unwrap();
        assert!(k1.loss <= kanon.loss + 1e-12);
    }

    #[test]
    fn expansion_never_worse_than_nn_on_these_inputs() {
        // Matches the paper's observation that Algorithm 4 beats
        // Algorithm 3 in practice (not a theorem — checked on this input).
        let s = schema();
        let t = table(&s);
        for k in [2, 3] {
            let costs = NodeCostTable::compute(&t, &EntropyMeasure);
            let nn = k1_nearest_neighbors(&t, &costs, k).unwrap();
            let exp = k1_expansion(&t, &costs, k).unwrap();
            assert!(exp.loss <= nn.loss + 1e-9, "k={k}");
        }
    }

    #[test]
    fn bruteforce_is_lower_bound() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [2, 3] {
            let opt = k1_optimal_bruteforce(&t, &costs, k).unwrap();
            check_k1(&t, &opt.table, k);
            let nn = k1_nearest_neighbors(&t, &costs, k).unwrap();
            let exp = k1_expansion(&t, &costs, k).unwrap();
            assert!(opt.loss <= nn.loss + 1e-12);
            assert!(opt.loss <= exp.loss + 1e-12);
        }
    }

    #[test]
    fn nn_approximation_bound_holds() {
        // Prop. 5.1: Algorithm 3 is a (k−1)-approximation of optimal (k,1).
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        for k in [2, 3] {
            let opt = k1_optimal_bruteforce(&t, &costs, k).unwrap();
            let nn = k1_nearest_neighbors(&t, &costs, k).unwrap();
            assert!(
                nn.loss <= (k - 1) as f64 * opt.loss + 1e-9,
                "k={k}: {} > {} × {}",
                nn.loss,
                k - 1,
                opt.loss
            );
        }
    }

    #[test]
    fn invalid_k_rejected() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        assert!(k1_nearest_neighbors(&t, &costs, 0).is_err());
        assert!(k1_nearest_neighbors(&t, &costs, 7).is_err());
        assert!(k1_expansion(&t, &costs, 0).is_err());
        assert!(k1_expansion(&t, &costs, 7).is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        // Build a table big enough to trigger the threaded path and check
        // it agrees with a sequential reference.
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .build_shared()
            .unwrap();
        let rows: Vec<Record> = (0..400).map(|i| Record::from_raw([i % 4])).collect();
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let par = k1_expansion(&t, &costs, 3).unwrap();
        // Sequential reference via the same per-row logic at n<256 is not
        // reachable here, so recompute twice and compare: determinism of
        // the parallel path.
        let par2 = k1_expansion(&t, &costs, 3).unwrap();
        assert_eq!(par.table.rows(), par2.table.rows());
        check_k1(&t, &par.table, 3);
    }
}
