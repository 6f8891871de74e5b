//! Algorithm 6 of Sec. V-C: transforming a (k,k)-anonymization into a
//! **global (1,k)-anonymization**.
//!
//! For every original record `R_i`, the algorithm computes its *matches*
//! `P ⊆ Q` (neighbours whose edge extends to a perfect matching of
//! `V_{D,g(D)}`, Def. 4.6). While `|P| < k`, it picks the non-match
//! neighbour `R̄_{j_h}` minimizing `d_h = c(R̄_i + R_{j_h}) − c(R̄_i)` and
//! generalizes `R̄_i` to also cover the original record `R_{j_h}`; this
//! upgrades `R̄_{j_h}` to a match of `R_i` (the pair `(R_i ↔ R̄_{j_h},
//! R_{j_h} ↔ R̄_i)` plus the identity pairing elsewhere is a perfect
//! matching).
//!
//! **Implementation note.** The paper tests each edge with a fresh
//! Hopcroft–Karp run (`O(√n · m²)` total). We use the all-edges oracle of
//! `kanon-matching` — matched edges plus alternating cycles found by one
//! SCC pass over the identity-matching residual digraph — and recompute it
//! **lazily**. Upgrades only *add* consistency edges, so matches never
//! disappear and a stale oracle's match lists are a lower bound on the
//! true ones; additionally, the record `R_{j_h}` absorbed by an upgrade of
//! `R̄_i` is a *guaranteed* new match of `R_i` (the swap matching above).
//! The loop therefore recomputes only when a record's known matches —
//! stale list plus guaranteed additions — still fall short of `k`, and
//! every pick and every deficiency decision is made against a fresh
//! oracle, so the output is byte-identical to recomputing after every
//! upgrade (the equivalence test pins this). The `oracle_recomputes` work
//! counter is bounded by `upgrade_steps + 1`: every recompute after the
//! initial one is triggered by at least one intervening upgrade.

use crate::cost::CostContext;
use kanon_core::error::{CoreError, Result};
use kanon_core::generalize::{consistency_adjacency, is_consistent, is_generalization_of};
use kanon_core::table::{check_aligned, check_k, GeneralizedTable, Table};
use kanon_matching::AllowedEdges;
use kanon_measures::NodeCostTable;
use kanon_obs::{count, Counter};

/// Output of Algorithm 6 with upgrade statistics.
#[derive(Debug, Clone)]
pub struct GlobalOutput {
    /// The globally (1,k)-anonymous table.
    pub table: GeneralizedTable,
    /// The information loss under the supplied measure.
    pub loss: f64,
    /// Number of record upgrades performed (`R̄_i ← R̄_i + R_{j_h}` steps).
    pub upgrade_steps: usize,
    /// Number of records that were deficient (had fewer than `k` matches)
    /// when first visited.
    pub deficient_records: usize,
}

/// Mutable adjacency of the consistency graph, kept incrementally.
struct ConsistencyState {
    /// `adj[i]` = generalized rows consistent with original row `i`
    /// (ascending).
    adj: Vec<Vec<u32>>,
}

impl ConsistencyState {
    fn build(table: &Table, gtable: &GeneralizedTable) -> Result<Self> {
        Ok(ConsistencyState {
            adj: consistency_adjacency(table, gtable)?,
        })
    }

    /// Generalized row `col` changed: recompute the column (which left
    /// rows are consistent with it). Only additions can occur because
    /// records only become more general.
    fn refresh_column(&mut self, table: &Table, gtable: &GeneralizedTable, col: usize) {
        let schema = table.schema();
        let colv = col as u32;
        for (i, list) in self.adj.iter_mut().enumerate() {
            if is_consistent(schema, table.row(i), gtable.row(col)) {
                if let Err(pos) = list.binary_search(&colv) {
                    list.insert(pos, colv);
                }
            }
        }
    }

    #[cfg(test)]
    fn graph(&self, n_right: usize) -> kanon_matching::BipartiteGraph {
        kanon_matching::BipartiteGraph::from_adjacency(n_right, &self.adj)
    }
}

/// Runs Algorithm 6 on a (k,k)-anonymization (any row-wise generalization
/// whose consistency graph has all degrees ≥ k works; the (k,k) property
/// of the input is validated in debug builds only).
pub fn global_1k_from_kk(
    table: &Table,
    gtable: &GeneralizedTable,
    costs: &NodeCostTable,
    k: usize,
) -> Result<GlobalOutput> {
    let n = table.num_rows();
    check_k(k, n)?;
    check_aligned(table, gtable)?;
    if !is_generalization_of(table, gtable)? {
        return Err(CoreError::InvalidClustering(
            "input to Algorithm 6 must be a row-wise generalization of the table".into(),
        ));
    }
    let _span = kanon_obs::span("global_1k_from_kk");
    let ctx = CostContext::new(table, costs);
    let mut out = gtable.clone();
    let mut state = ConsistencyState::build(table, &out)?;

    // The identity pairing R_i ↔ R̄_i is a perfect matching of the
    // consistency graph (generalization precondition), so the oracle is a
    // single SCC pass — no Hopcroft–Karp, no CSR graph materialization.
    let mut oracle = AllowedEdges::compute_identity_from_adjacency(&state.adj);
    count(Counter::OracleRecomputes, 1);
    // Whether `oracle` predates some upgrade. A stale oracle's match lists
    // are still valid lower bounds (upgrades only add edges).
    let mut stale = false;

    let mut upgrade_steps = 0usize;
    let mut deficient_records = 0usize;

    for i in 0..n {
        // Guaranteed matches of `i` beyond the (possibly stale) oracle's
        // list: the records absorbed by i's own upgrades since the last
        // recompute (each is a new match via the explicit swap matching —
        // see the module doc). Cleared on recompute, when the fresh list
        // subsumes them.
        let mut extra: Vec<u32> = Vec::new();
        let mut counted_deficient = false;
        // Paper line 8: "Return to Step 3" — re-derive P after each
        // upgrade until |P| ≥ k, recomputing lazily.
        loop {
            if oracle.matches_of(i).len() + extra.len() >= k {
                break;
            }
            if stale {
                oracle = AllowedEdges::compute_identity_from_adjacency(&state.adj);
                count(Counter::OracleRecomputes, 1);
                stale = false;
                extra.clear();
                continue;
            }
            // The oracle is exact from here on: |P| < k is certain, and
            // `extra` is empty.
            if !counted_deficient {
                counted_deficient = true;
                deficient_records += 1;
            }
            let matches = oracle.matches_of(i);
            // Non-match neighbours Q \ P, cheapest to absorb into R̄_i.
            let mut best: Option<(f64, u32)> = None;
            let ri = out.row(i).nodes();
            let ci = ctx.cost(ri);
            for &j in &state.adj[i] {
                if matches.binary_search(&j).is_ok() {
                    continue;
                }
                let dh = ctx.join_row_cost(ri, j as usize) - ci;
                let better = match best {
                    None => true,
                    Some((bd, bj)) => {
                        dh.total_cmp(&bd).is_lt() || (dh.total_cmp(&bd).is_eq() && j < bj)
                    }
                };
                if better {
                    best = Some((dh, j));
                }
            }
            let Some((_, jh)) = best else {
                // No non-match neighbour left: every neighbour is already a
                // match yet there are fewer than k of them, i.e. record i
                // has fewer than k neighbours. The input was not a
                // (1,k)-anonymization, violating the precondition.
                return Err(CoreError::InvalidClustering(format!(
                    "record {i} has only {} neighbours (< k = {k}); \
                     Algorithm 6 requires a (k,k)-anonymized input",
                    state.adj[i].len()
                )));
            };
            // Upgrade: R̄_i ← R̄_i + R_{j_h}.
            let mut upgraded = ri.to_vec();
            ctx.join_row_into(&mut upgraded, jh as usize);
            *out.row_mut(i) = ctx.to_record(&upgraded);
            upgrade_steps += 1;
            // Column i of the consistency graph changed; the oracle now
            // lags it, but R̄_{j_h} is already known to be a match of R_i.
            state.refresh_column(table, &out, i);
            extra.push(jh);
            stale = true;
        }
    }

    count(Counter::UpgradeSteps, upgrade_steps as u64);
    count(Counter::DeficientRecords, deficient_records as u64);
    let loss = costs.table_loss(&out);
    Ok(GlobalOutput {
        table: out,
        loss,
        upgrade_steps,
        deficient_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::k1::k1_expansion;
    use crate::try_one_k_anonymize;
    use kanon_core::generalize::record_join_ground;
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_matching::Matching;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    /// The pre-fix reference implementation: rebuilds the CSR graph and
    /// recomputes the full oracle after **every** upgrade. Kept verbatim
    /// (modulo counters) so the equivalence test can assert the lazy
    /// incremental oracle changes no output byte.
    fn global_1k_reference(
        table: &Table,
        gtable: &GeneralizedTable,
        costs: &NodeCostTable,
        k: usize,
    ) -> Result<GlobalOutput> {
        let n = table.num_rows();
        check_k(k, n)?;
        check_aligned(table, gtable)?;
        if !is_generalization_of(table, gtable)? {
            return Err(CoreError::InvalidClustering("not a generalization".into()));
        }
        let schema = table.schema();
        let mut out = gtable.clone();
        let mut state = ConsistencyState::build(table, &out)?;
        let identity = Matching {
            pair_left: (0..n as u32).collect(),
            pair_right: (0..n as u32).collect(),
            size: n,
        };
        let mut oracle = AllowedEdges::compute_with_matching(&state.graph(n), &identity);
        let mut upgrade_steps = 0usize;
        let mut deficient_records = 0usize;
        for i in 0..n {
            if oracle.matches_of(i).len() < k {
                deficient_records += 1;
            }
            while oracle.matches_of(i).len() < k {
                let matches = oracle.matches_of(i);
                let mut best: Option<(f64, u32)> = None;
                let ci = costs.record_cost(out.row(i));
                for &j in &state.adj[i] {
                    if matches.binary_search(&j).is_ok() {
                        continue;
                    }
                    let joined = record_join_ground(schema, out.row(i), table.row(j as usize));
                    let dh = costs.record_cost(&joined) - ci;
                    let better = match best {
                        None => true,
                        Some((bd, bj)) => {
                            dh.total_cmp(&bd).is_lt() || (dh.total_cmp(&bd).is_eq() && j < bj)
                        }
                    };
                    if better {
                        best = Some((dh, j));
                    }
                }
                let Some((_, jh)) = best else {
                    return Err(CoreError::InvalidClustering("input not (k,k)".into()));
                };
                let upgraded = record_join_ground(schema, out.row(i), table.row(jh as usize));
                *out.row_mut(i) = upgraded;
                upgrade_steps += 1;
                state.refresh_column(table, &out, i);
                oracle = AllowedEdges::compute_with_matching(&state.graph(n), &identity);
            }
        }
        let loss = costs.table_loss(&out);
        Ok(GlobalOutput {
            table: out,
            loss,
            upgrade_steps,
            deficient_records,
        })
    }

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
            Record::from_raw([5, 1]),
        ];
        Table::new(Arc::clone(s), rows).unwrap()
    }

    fn global_level(t: &Table, g: &GeneralizedTable) -> usize {
        let state = ConsistencyState::build(t, g).unwrap();
        let n = t.num_rows();
        let identity = Matching {
            pair_left: (0..n as u32).collect(),
            pair_right: (0..n as u32).collect(),
            size: n,
        };
        let oracle = AllowedEdges::compute_with_matching(&state.graph(n), &identity);
        oracle.match_counts().into_iter().min().unwrap()
    }

    #[test]
    fn kk_pipeline_becomes_global() {
        let s = schema();
        let t = table(&s);
        for k in [2, 3] {
            let costs = NodeCostTable::compute(&t, &EntropyMeasure);
            let k1 = k1_expansion(&t, &costs, k).unwrap();
            let kk = try_one_k_anonymize(&t, &k1.table, &costs, k).unwrap();
            let out = global_1k_from_kk(&t, &kk.table, &costs, k).unwrap();
            assert!(global_level(&t, &out.table) >= k, "k={k}");
            // Still a row-wise generalization.
            assert!(is_generalization_of(&t, &out.table).unwrap());
            // Loss only grows relative to the (k,k) input (monotone joins).
            assert!(out.loss >= kk.loss - 1e-12);
        }
    }

    #[test]
    fn already_global_input_is_untouched() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        // Fully suppressed: every permutation is a perfect matching.
        let star = kanon_core::GeneralizedRecord::new(s.suppressed_nodes());
        let g =
            GeneralizedTable::new(Arc::clone(&s), (0..6).map(|_| star.clone()).collect()).unwrap();
        let out = global_1k_from_kk(&t, &g, &costs, 3).unwrap();
        assert_eq!(out.upgrade_steps, 0);
        assert_eq!(out.deficient_records, 0);
        assert_eq!(out.table.rows(), g.rows());
    }

    #[test]
    fn rejects_non_generalization_input() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let idg = GeneralizedTable::identity_of(&t);
        // Swap two rows: no longer row-aligned.
        let mut bad = idg.clone();
        let r0 = bad.row(0).clone();
        let r1 = bad.row(1).clone();
        *bad.row_mut(0) = r1;
        *bad.row_mut(1) = r0;
        assert!(global_1k_from_kk(&t, &bad, &costs, 2).is_err());
    }

    #[test]
    fn invalid_k_rejected() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let idg = GeneralizedTable::identity_of(&t);
        assert!(global_1k_from_kk(&t, &idg, &costs, 0).is_err());
        assert!(global_1k_from_kk(&t, &idg, &costs, 7).is_err());
    }

    #[test]
    fn incremental_oracle_is_byte_identical_to_full_recompute() {
        // The lazy incremental oracle must not change a single output
        // byte relative to recomputing after every upgrade, across
        // measures, k values, and input generalizations.
        let s = schema();
        let t = table(&s);
        for k in [2, 3, 4] {
            for measure in ["EM", "LM"] {
                let costs = match measure {
                    "EM" => NodeCostTable::compute(&t, &EntropyMeasure),
                    _ => NodeCostTable::compute(&t, &LmMeasure),
                };
                let k1 = k1_expansion(&t, &costs, k).unwrap();
                let kk = try_one_k_anonymize(&t, &k1.table, &costs, k).unwrap();
                let fast = global_1k_from_kk(&t, &kk.table, &costs, k).unwrap();
                let refr = global_1k_reference(&t, &kk.table, &costs, k).unwrap();
                assert_eq!(
                    fast.table.rows(),
                    refr.table.rows(),
                    "k={k} measure={measure}: output tables differ"
                );
                assert_eq!(fast.upgrade_steps, refr.upgrade_steps, "k={k} {measure}");
                assert_eq!(
                    fast.deficient_records, refr.deficient_records,
                    "k={k} {measure}"
                );
                assert!((fast.loss - refr.loss).abs() < 1e-12, "k={k} {measure}");
            }
        }
    }

    #[test]
    fn oracle_recomputes_bounded_by_upgrades_plus_one() {
        // The acceptance criterion of the incremental fix: every oracle
        // recompute after the initial one is paid for by an upgrade.
        use kanon_obs::{Collector, Counter};
        let s = schema();
        let t = table(&s);
        for k in [2, 3] {
            let costs = NodeCostTable::compute(&t, &EntropyMeasure);
            let k1 = k1_expansion(&t, &costs, k).unwrap();
            let kk = try_one_k_anonymize(&t, &k1.table, &costs, k).unwrap();
            let c = Collector::new();
            let out = {
                let _g = c.install();
                global_1k_from_kk(&t, &kk.table, &costs, k).unwrap()
            };
            let r = c.report();
            assert_eq!(r.counter(Counter::UpgradeSteps), out.upgrade_steps as u64);
            assert_eq!(
                r.counter(Counter::DeficientRecords),
                out.deficient_records as u64
            );
            assert!(
                r.counter(Counter::OracleRecomputes) <= out.upgrade_steps as u64 + 1,
                "k={k}: {} recomputes for {} upgrades",
                r.counter(Counter::OracleRecomputes),
                out.upgrade_steps
            );
        }
    }

    #[test]
    fn upgrade_statistics_are_consistent() {
        let s = schema();
        let t = table(&s);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let k1 = k1_expansion(&t, &costs, 2).unwrap();
        let kk = try_one_k_anonymize(&t, &k1.table, &costs, 2).unwrap();
        let out = global_1k_from_kk(&t, &kk.table, &costs, 2).unwrap();
        // Every deficient record required at least one upgrade.
        assert!(out.upgrade_steps >= out.deficient_records);
    }
}
