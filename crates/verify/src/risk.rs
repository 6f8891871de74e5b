//! Re-identification **risk metrics** for published tables, translating
//! the Sec. IV-A adversary discussion into the vocabulary practitioners
//! use (cf. statistical disclosure control):
//!
//! * **journalist risk** — the adversary knows everyone's public data but
//!   not who is in the table (the paper's first adversary). A target's
//!   risk is `1 / #neighbours`: the chance of picking her record among
//!   the generalized records consistent with her public data.
//! * **prosecutor risk** — the adversary also knows the target is in the
//!   table and which subset of the population the table holds (the
//!   paper's second adversary). Risk is `1 / #matches`, using the
//!   perfect-matching pruning of Def. 4.6.
//!
//! (1,k)-anonymity caps journalist risk at `1/k`; global (1,k)-anonymity
//! caps prosecutor risk at `1/k` — these correspondences are asserted in
//! the tests.

use crate::graph::{consistency_graph, match_oracle};
use kanon_core::error::Result;
use kanon_core::table::{GeneralizedTable, Table};

/// Aggregate re-identification risk over all records of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskReport {
    /// Highest per-record risk (the weakest individual's exposure).
    pub max_risk: f64,
    /// Mean per-record risk — the expected fraction of records an
    /// adversary re-identifies by guessing optimally.
    pub avg_risk: f64,
    /// Number of records at the maximum risk.
    pub records_at_max: usize,
    /// Per-record candidate-set sizes (risk = 1/size), indexed by row.
    pub candidates: Vec<usize>,
}

impl RiskReport {
    fn from_candidates(candidates: Vec<usize>) -> RiskReport {
        let risks: Vec<f64> = candidates
            .iter()
            .map(|&c| if c == 0 { 1.0 } else { 1.0 / c as f64 })
            .collect();
        let max_risk = risks.iter().copied().fold(0.0, f64::max);
        let avg_risk = if risks.is_empty() {
            0.0
        } else {
            risks.iter().sum::<f64>() / risks.len() as f64
        };
        let records_at_max = risks.iter().filter(|&&r| r == max_risk).count();
        RiskReport {
            max_risk,
            avg_risk,
            records_at_max,
            candidates,
        }
    }

    /// Does every record meet the `1/k` risk threshold?
    pub fn meets_threshold(&self, k: usize) -> bool {
        self.max_risk <= 1.0 / k as f64 + 1e-12
    }
}

/// Journalist risk: candidate sets are the consistency neighbourhoods
/// (the paper's first adversary).
pub fn journalist_risk(table: &Table, gtable: &GeneralizedTable) -> Result<RiskReport> {
    let g = consistency_graph(table, gtable)?;
    let candidates = (0..g.n_left()).map(|u| g.degree(u)).collect();
    Ok(RiskReport::from_candidates(candidates))
}

/// Prosecutor risk: candidate sets are the *match* sets of Def. 4.6 (the
/// paper's second adversary, with perfect-matching pruning).
pub fn prosecutor_risk(table: &Table, gtable: &GeneralizedTable) -> Result<RiskReport> {
    let g = consistency_graph(table, gtable)?;
    let allowed = match_oracle(table, gtable, &g)?;
    Ok(RiskReport::from_candidates(allowed.match_counts()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::cluster::Clustering;
    use kanon_core::record::{GeneralizedRecord, Record};
    use kanon_core::schema::SchemaBuilder;
    use std::sync::Arc;

    fn table4() -> Table {
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .build_shared()
            .unwrap();
        let rows = (0..4).map(|v| Record::from_raw([v])).collect();
        Table::new(s, rows).unwrap()
    }

    #[test]
    fn identity_table_is_fully_exposed() {
        let t = table4();
        let g = GeneralizedTable::identity_of(&t);
        let j = journalist_risk(&t, &g).unwrap();
        assert_eq!(j.max_risk, 1.0);
        assert_eq!(j.avg_risk, 1.0);
        assert_eq!(j.records_at_max, 4);
        let p = prosecutor_risk(&t, &g).unwrap();
        assert_eq!(p.max_risk, 1.0);
    }

    #[test]
    fn pairwise_clusters_halve_the_risk() {
        let t = table4();
        let cl = Clustering::from_assignment(vec![0, 0, 1, 1]).unwrap();
        let g = cl.to_generalized_table(&t).unwrap();
        let j = journalist_risk(&t, &g).unwrap();
        assert!((j.max_risk - 0.5).abs() < 1e-12);
        assert!(j.meets_threshold(2));
        assert!(!j.meets_threshold(3));
        let p = prosecutor_risk(&t, &g).unwrap();
        assert!((p.max_risk - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prosecutor_risk_never_below_journalist() {
        // Matches ⊆ neighbours ⇒ prosecutor candidates ≤ journalist's ⇒
        // prosecutor risk ≥ journalist risk, per record.
        let t = table4();
        let s = t.schema();
        let h = s.attr(0).hierarchy();
        let root = h.root();
        let g = GeneralizedTable::new(
            Arc::clone(s),
            vec![
                GeneralizedRecord::new([h.leaf(kanon_core::ValueId(0))]),
                GeneralizedRecord::new([root]),
                GeneralizedRecord::new([root]),
                GeneralizedRecord::new([root]),
            ],
        )
        .unwrap();
        let j = journalist_risk(&t, &g).unwrap();
        let p = prosecutor_risk(&t, &g).unwrap();
        for (jc, pc) in j.candidates.iter().zip(&p.candidates) {
            assert!(pc <= jc);
        }
        assert!(p.max_risk >= j.max_risk - 1e-12);
    }

    #[test]
    fn anonymity_levels_cap_risks() {
        // (1,k) caps journalist risk at 1/k; global (1,k) caps prosecutor
        // risk at 1/k — on a genuine k-anonymization both hold.
        let t = table4();
        let cl = Clustering::from_assignment(vec![0, 0, 1, 1]).unwrap();
        let g = cl.to_generalized_table(&t).unwrap();
        let k = crate::checks::k_anonymity_level(&g);
        assert!(k >= 2);
        assert!(journalist_risk(&t, &g).unwrap().meets_threshold(k));
        assert!(prosecutor_risk(&t, &g).unwrap().meets_threshold(k));
    }

    #[test]
    fn empty_table_reports_zero() {
        let s = SchemaBuilder::new()
            .categorical("c", ["a"])
            .build_shared()
            .unwrap();
        let t = Table::new(Arc::clone(&s), vec![]).unwrap();
        let g = GeneralizedTable::new_unchecked(s, vec![]);
        let j = journalist_risk(&t, &g).unwrap();
        assert_eq!(j.avg_risk, 0.0);
        assert!(j.candidates.is_empty());
    }
}
