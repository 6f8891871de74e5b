//! Tuple classes: a table read as a multiset of quasi-identifier tuples.
//!
//! Two rows with the same tuple are indistinguishable to every measure
//! and every generalization of Sec. III, so the clustering layers can
//! treat each distinct tuple once and carry its multiplicity (Bettini et
//! al., *The Role of Quasi-identifiers in k-Anonymity Revisited*, read a
//! table the same way). [`TupleClasses`] is that index: the distinct
//! tuples in first-occurrence order, how often each occurs, and the
//! class of every row.

use crate::record::Record;
use crate::table::Table;
use std::collections::BTreeMap;

/// The distinct tuples of a table (its *classes*) in first-occurrence
/// order, their multiplicities, and the row → class map. Built in
/// O(n log n) through an ordered map, so the numbering depends only on
/// the rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleClasses {
    class_of: Vec<u32>,
    first_rows: Vec<u32>,
    counts: Vec<u32>,
}

impl TupleClasses {
    /// Indexes the rows of `table`.
    pub fn of(table: &Table) -> Self {
        let mut ids: BTreeMap<&Record, u32> = BTreeMap::new();
        let mut first_rows = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let class_of = table
            .rows()
            .iter()
            .enumerate()
            .map(|(row, rec)| {
                let next = first_rows.len() as u32;
                let class = *ids.entry(rec).or_insert(next);
                if class == next {
                    first_rows.push(row as u32);
                    counts.push(0);
                }
                counts[class as usize] += 1;
                class
            })
            .collect();
        TupleClasses {
            class_of,
            first_rows,
            counts,
        }
    }

    /// Number of distinct tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.first_rows.len()
    }

    /// True for the index of an empty table.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.first_rows.is_empty()
    }

    /// The class of `row` (classes are numbered by first occurrence).
    #[inline]
    pub fn class_of(&self, row: usize) -> usize {
        self.class_of[row] as usize
    }

    /// The first row holding `class`'s tuple.
    #[inline]
    pub fn first_row(&self, class: usize) -> usize {
        self.first_rows[class] as usize
    }

    /// How many rows hold `class`'s tuple.
    #[inline]
    pub fn multiplicity(&self, class: usize) -> usize {
        self.counts[class] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    #[test]
    fn classes_follow_first_occurrence() {
        let s = SchemaBuilder::new()
            .categorical("x", ["a", "b", "c"])
            .categorical("y", ["p", "q"])
            .build_shared()
            .unwrap();
        let rows = [[2, 0], [0, 1], [2, 0], [1, 1], [0, 1], [2, 0]]
            .into_iter()
            .map(Record::from_raw)
            .collect();
        let t = Table::new(s, rows).unwrap();
        let c = TupleClasses::of(&t);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        let classes: Vec<usize> = (0..t.num_rows()).map(|r| c.class_of(r)).collect();
        assert_eq!(classes, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(
            (0..3).map(|k| c.first_row(k)).collect::<Vec<_>>(),
            [0, 1, 3]
        );
        assert_eq!(
            (0..3).map(|k| c.multiplicity(k)).collect::<Vec<_>>(),
            [3, 2, 1]
        );
    }
}
