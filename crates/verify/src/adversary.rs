//! Adversary simulations for the Sec. IV-A security discussion.
//!
//! The paper distinguishes two adversaries:
//!
//! * [`Adversary1`] knows the public data of **all** individuals in the
//!   population (e.g. from a voter register) and the identity of some
//!   individuals in the database, but not the exact member subset. Her
//!   best linkage of a target is the set of generalized records
//!   *consistent* with the target's public record. She breaches privacy
//!   when that candidate set has fewer than `k` elements — precisely the
//!   failure (1,k)-anonymity guards against.
//!
//! * [`Adversary2`] additionally knows the exact subset of the population
//!   in the database — i.e. she knows `D` itself. She can reconstruct
//!   `V_{D,g(D)}` and prune every neighbour that cannot be completed to a
//!   perfect matching (a non-*match*), shrinking the candidate set below
//!   `k` even on (k,k)-anonymous tables. Global (1,k)-anonymity is exactly
//!   the defence against her.

use crate::graph::{consistency_graph, match_oracle};
use kanon_core::error::Result;
use kanon_core::generalize::is_consistent;
use kanon_core::record::Record;
use kanon_core::table::{GeneralizedTable, Table};

/// Outcome of an attack against one target record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkageResult {
    /// Row index of the target in the original table.
    pub target: usize,
    /// Indices of generalized records the adversary cannot rule out.
    pub candidates: Vec<u32>,
}

impl LinkageResult {
    /// Is the target linked to fewer than `k` records (a privacy breach
    /// under the paper's goal)?
    pub fn is_breach(&self, k: usize) -> bool {
        self.candidates.len() < k
    }

    /// Has the adversary pinned the target to a single record?
    pub fn is_reidentified(&self) -> bool {
        self.candidates.len() == 1
    }
}

/// Aggregate report of an attack against every record of a table.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Per-target linkage results, indexed by row.
    pub results: Vec<LinkageResult>,
    /// The anonymity parameter the attack was evaluated against.
    pub k: usize,
}

impl AttackReport {
    /// Rows whose candidate set is smaller than `k`.
    pub fn breached_rows(&self) -> Vec<usize> {
        self.results
            .iter()
            .filter(|r| r.is_breach(self.k))
            .map(|r| r.target)
            .collect()
    }

    /// Rows pinned to exactly one generalized record.
    pub fn reidentified_rows(&self) -> Vec<usize> {
        self.results
            .iter()
            .filter(|r| r.is_reidentified())
            .map(|r| r.target)
            .collect()
    }

    /// Fraction of rows breached.
    pub fn breach_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.breached_rows().len() as f64 / self.results.len() as f64
    }

    /// The smallest candidate-set size over all targets.
    pub fn min_candidates(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.candidates.len())
            .min()
            .unwrap_or(0)
    }
}

/// The first adversary of Sec. IV-A: links by consistency alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adversary1;

impl Adversary1 {
    /// Attacks a single target given its public record: the candidate set
    /// is every generalized record consistent with it.
    pub fn link_record(
        &self,
        public_record: &Record,
        gtable: &GeneralizedTable,
        target: usize,
    ) -> LinkageResult {
        let schema = gtable.schema();
        let candidates = gtable
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, g)| is_consistent(schema, public_record, g))
            .map(|(j, _)| j as u32)
            .collect();
        LinkageResult { target, candidates }
    }

    /// Attacks every record of the original table.
    pub fn attack(
        &self,
        table: &Table,
        gtable: &GeneralizedTable,
        k: usize,
    ) -> Result<AttackReport> {
        let g = consistency_graph(table, gtable)?;
        let results = (0..table.num_rows())
            .map(|i| LinkageResult {
                target: i,
                candidates: g.neighbors(i).to_vec(),
            })
            .collect();
        Ok(AttackReport { results, k })
    }
}

/// The second adversary of Sec. IV-A: knows `D` itself and prunes
/// non-matches via perfect-matching reasoning.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adversary2;

impl Adversary2 {
    /// Attacks every record: candidates are the *matches* of each original
    /// record in `V_{D,g(D)}` (Def. 4.6).
    pub fn attack(
        &self,
        table: &Table,
        gtable: &GeneralizedTable,
        k: usize,
    ) -> Result<AttackReport> {
        let g = consistency_graph(table, gtable)?;
        let n = table.num_rows();
        let allowed = match_oracle(table, gtable, &g)?;
        let results = (0..n)
            .map(|i| LinkageResult {
                target: i,
                candidates: allowed.matches_of(i).to_vec(),
            })
            .collect();
        Ok(AttackReport { results, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::record::GeneralizedRecord;
    use kanon_core::schema::SchemaBuilder;
    use std::sync::Arc;

    /// The (1,k) weakness example: identity rows + suppressed tail.
    /// Adversary 1 already re-identifies the untouched individuals.
    #[test]
    fn adversary1_breaches_naive_1k_table() {
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b", "c", "d", "e"])
            .build_shared()
            .unwrap();
        let rows: Vec<Record> = (0..5).map(|v| Record::from_raw([v])).collect();
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        let idg = GeneralizedTable::identity_of(&t);
        let star = GeneralizedRecord::new(s.suppressed_nodes());
        let g = GeneralizedTable::new(
            Arc::clone(&s),
            vec![
                idg.row(0).clone(),
                idg.row(1).clone(),
                idg.row(2).clone(),
                star.clone(),
                star,
            ],
        )
        .unwrap();
        let report = Adversary1.attack(&t, &g, 2).unwrap();
        // Untouched records 0..3 still have their identity row plus the two
        // stars (3 candidates) — candidate *counting* does not flag them…
        assert!(report.breached_rows().is_empty());
        // …but adversary 2's matching logic pins them exactly:
        let report2 = Adversary2.attack(&t, &g, 2).unwrap();
        assert_eq!(report2.breached_rows(), vec![0, 1, 2]);
        assert_eq!(report2.reidentified_rows(), vec![0, 1, 2]);
        assert!(report2.breach_rate() > 0.5);
    }

    #[test]
    fn adversary1_link_record_counts_consistent_rows() {
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b"])
            .build_shared()
            .unwrap();
        let t = Table::new(
            Arc::clone(&s),
            vec![Record::from_raw([0]), Record::from_raw([1])],
        )
        .unwrap();
        let star = GeneralizedRecord::new(s.suppressed_nodes());
        let g = GeneralizedTable::new(Arc::clone(&s), vec![star.clone(), star]).unwrap();
        let res = Adversary1.link_record(t.row(0), &g, 0);
        assert_eq!(res.candidates, vec![0, 1]);
        assert!(!res.is_breach(2));
        assert!(res.is_breach(3));
    }

    #[test]
    fn fully_suppressed_table_resists_both_adversaries() {
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b", "c"])
            .build_shared()
            .unwrap();
        let rows: Vec<Record> = (0..3).map(|v| Record::from_raw([v])).collect();
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        let star = GeneralizedRecord::new(s.suppressed_nodes());
        let g =
            GeneralizedTable::new(Arc::clone(&s), vec![star.clone(), star.clone(), star]).unwrap();
        let r1 = Adversary1.attack(&t, &g, 3).unwrap();
        let r2 = Adversary2.attack(&t, &g, 3).unwrap();
        assert!(r1.breached_rows().is_empty());
        assert!(r2.breached_rows().is_empty());
        assert_eq!(r1.min_candidates(), 3);
        assert_eq!(r2.min_candidates(), 3);
    }

    #[test]
    fn adversary2_never_beats_adversary1() {
        // Matches ⊆ neighbours, so adversary 2's candidate sets are never
        // larger.
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b", "c"])
            .build_shared()
            .unwrap();
        let t = Table::new(
            Arc::clone(&s),
            vec![
                Record::from_raw([0]),
                Record::from_raw([1]),
                Record::from_raw([2]),
            ],
        )
        .unwrap();
        let h = s.attr(0).hierarchy();
        let root = h.root();
        let g = GeneralizedTable::new(
            Arc::clone(&s),
            vec![
                GeneralizedRecord::new([h.leaf(kanon_core::ValueId(0))]),
                GeneralizedRecord::new([root]),
                GeneralizedRecord::new([root]),
            ],
        )
        .unwrap();
        let r1 = Adversary1.attack(&t, &g, 2).unwrap();
        let r2 = Adversary2.attack(&t, &g, 2).unwrap();
        for (a, b) in r1.results.iter().zip(&r2.results) {
            assert!(b.candidates.len() <= a.candidates.len());
            for c in &b.candidates {
                assert!(a.candidates.contains(c), "matches must be neighbours");
            }
        }
    }

    #[test]
    fn empty_report_rates() {
        let report = AttackReport {
            results: vec![],
            k: 2,
        };
        assert_eq!(report.breach_rate(), 0.0);
        assert_eq!(report.min_candidates(), 0);
    }
}
