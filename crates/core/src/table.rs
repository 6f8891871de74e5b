//! Tables: the public database `D = {R_1, …, R_n}` and its generalizations
//! `g(D) = {R̄_1, …, R̄_n}` (Sec. III).
//!
//! Both table types share a [`SharedSchema`]; row order is significant
//! because the paper's generalizations are *record-wise*: `R̄_i` is the
//! generalization of `R_i` (local recoding, Def. 3.2).

use crate::error::{CoreError, Result};
use crate::record::{GeneralizedRecord, Record};
use crate::schema::SharedSchema;
use std::sync::Arc;

/// An original (ground) table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SharedSchema,
    rows: Vec<Record>,
}

impl Table {
    /// Builds a table, validating every row against the schema.
    pub fn new(schema: SharedSchema, rows: Vec<Record>) -> Result<Self> {
        for r in &rows {
            schema.validate_values(r.values())?;
        }
        Ok(Table { schema, rows })
    }

    /// Builds a table without validation (for internal fast paths; rows
    /// must already be schema-valid).
    pub fn new_unchecked(schema: SharedSchema, rows: Vec<Record>) -> Self {
        Table { schema, rows }
    }

    /// The table's schema.
    #[inline]
    pub fn schema(&self) -> &SharedSchema {
        &self.schema
    }

    /// Number of records `n`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of public attributes `r`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.schema.num_attrs()
    }

    /// Access a row. Panics if out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &Record {
        &self.rows[i]
    }

    /// All rows.
    #[inline]
    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Appends the rows of `other`, which must be schema-valid for this
    /// table's schema (checked in debug builds for the attribute count).
    pub fn append_unchecked(&mut self, other: Table) {
        debug_assert_eq!(self.num_attrs(), other.num_attrs());
        self.rows.extend(other.rows);
    }

    /// Returns a new table containing only the selected row indices
    /// (useful for sampling experiment subsets).
    pub fn select_rows(&self, indices: &[usize]) -> Result<Table> {
        let mut rows = Vec::with_capacity(indices.len());
        for &i in indices {
            let r = self
                .rows
                .get(i)
                .ok_or_else(|| CoreError::InvalidClustering(format!("row {i} out of range")))?;
            rows.push(r.clone());
        }
        Ok(Table {
            schema: Arc::clone(&self.schema),
            rows,
        })
    }
}

/// A generalized table, row-aligned with the original it was derived from.
#[derive(Debug, Clone)]
pub struct GeneralizedTable {
    schema: SharedSchema,
    rows: Vec<GeneralizedRecord>,
}

impl GeneralizedTable {
    /// Builds a generalized table, validating every row against the schema.
    pub fn new(schema: SharedSchema, rows: Vec<GeneralizedRecord>) -> Result<Self> {
        for r in &rows {
            schema.validate_nodes(r.nodes())?;
        }
        Ok(GeneralizedTable { schema, rows })
    }

    /// Builds a generalized table without validation.
    pub fn new_unchecked(schema: SharedSchema, rows: Vec<GeneralizedRecord>) -> Self {
        GeneralizedTable { schema, rows }
    }

    /// The identity generalization of a table: every entry mapped to its
    /// singleton leaf node (no information loss).
    pub fn identity_of(table: &Table) -> GeneralizedTable {
        let schema = Arc::clone(table.schema());
        let rows = table
            .rows()
            .iter()
            .map(|r| {
                GeneralizedRecord::new(
                    r.values()
                        .iter()
                        .enumerate()
                        .map(|(j, &v)| schema.attr(j).hierarchy().leaf(v)),
                )
            })
            .collect();
        GeneralizedTable { schema, rows }
    }

    /// The table's schema.
    #[inline]
    pub fn schema(&self) -> &SharedSchema {
        &self.schema
    }

    /// Number of records.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of public attributes.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.schema.num_attrs()
    }

    /// Access a row. Panics if out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &GeneralizedRecord {
        &self.rows[i]
    }

    /// Mutable access to a row (Algorithms 5 and 6 update rows in place).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut GeneralizedRecord {
        &mut self.rows[i]
    }

    /// All rows.
    #[inline]
    pub fn rows(&self) -> &[GeneralizedRecord] {
        &self.rows
    }

    /// Renders the whole table (header + one line per row) for debugging
    /// and examples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (j, (_, a)) in self.schema.attrs().enumerate() {
            if j > 0 {
                out.push_str(" | ");
            }
            out.push_str(a.name());
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.display(&self.schema));
            out.push('\n');
        }
        out
    }
}

/// Validates that two tables are row-aligned over the same schema
/// (shared helper for cross-table operations).
pub fn check_aligned(table: &Table, gtable: &GeneralizedTable) -> Result<()> {
    if !Arc::ptr_eq(table.schema(), gtable.schema()) {
        return Err(CoreError::SchemaMismatch);
    }
    if table.num_rows() != gtable.num_rows() {
        return Err(CoreError::RowCountMismatch {
            left: table.num_rows(),
            right: gtable.num_rows(),
        });
    }
    Ok(())
}

/// Validates an anonymity parameter against a table of `n` rows:
/// `1 ≤ k ≤ n`, else [`CoreError::InvalidK`].
pub fn check_k(k: usize, n: usize) -> Result<()> {
    if k == 0 || k > n {
        return Err(CoreError::InvalidK { k, n });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::schema::SchemaBuilder;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical("g", ["M", "F"])
            .categorical("c", ["r", "g", "b"])
            .build_shared()
            .unwrap()
    }

    #[test]
    fn table_validates_rows() {
        let s = schema();
        let ok = Table::new(
            Arc::clone(&s),
            vec![Record::from_raw([0, 2]), Record::from_raw([1, 1])],
        );
        assert!(ok.is_ok());
        let bad = Table::new(Arc::clone(&s), vec![Record::from_raw([0, 3])]);
        assert!(bad.is_err());
    }

    #[test]
    fn identity_generalization_is_leafwise() {
        let s = schema();
        let t = Table::new(Arc::clone(&s), vec![Record::from_raw([1, 2])]).unwrap();
        let g = GeneralizedTable::identity_of(&t);
        assert_eq!(g.num_rows(), 1);
        let gr = g.row(0);
        for j in 0..2 {
            let h = s.attr(j).hierarchy();
            assert_eq!(gr.get(j), h.leaf(t.row(0).get(j)));
        }
    }

    #[test]
    fn check_aligned_detects_mismatches() {
        let s = schema();
        let t = Table::new(Arc::clone(&s), vec![Record::from_raw([0, 0])]).unwrap();
        let g_ok = GeneralizedTable::identity_of(&t);
        assert!(check_aligned(&t, &g_ok).is_ok());

        // Different row count.
        let g_short = GeneralizedTable::new_unchecked(Arc::clone(&s), vec![]);
        assert!(matches!(
            check_aligned(&t, &g_short).unwrap_err(),
            CoreError::RowCountMismatch { .. }
        ));

        // Different schema instance (even if structurally identical).
        let s2 = SchemaBuilder::new()
            .categorical("g", ["M", "F"])
            .categorical("c", ["r", "g", "b"])
            .build_shared()
            .unwrap();
        let t2 = Table::new(s2, vec![Record::from_raw([0, 0])]).unwrap();
        let g2 = GeneralizedTable::identity_of(&t2);
        assert!(matches!(
            check_aligned(&t, &g2).unwrap_err(),
            CoreError::SchemaMismatch
        ));
    }

    #[test]
    fn select_rows_subsets() {
        let s = schema();
        let t = Table::new(
            Arc::clone(&s),
            vec![
                Record::from_raw([0, 0]),
                Record::from_raw([1, 1]),
                Record::from_raw([0, 2]),
            ],
        )
        .unwrap();
        let sub = t.select_rows(&[2, 0]).unwrap();
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.row(0), t.row(2));
        assert!(t.select_rows(&[5]).is_err());
    }

    #[test]
    fn render_contains_header_and_rows() {
        let s = schema();
        let t = Table::new(Arc::clone(&s), vec![Record::from_raw([1, 0])]).unwrap();
        let g = GeneralizedTable::identity_of(&t);
        let out = g.render();
        assert!(out.starts_with("g | c\n"));
        assert!(out.contains("F, r"));
    }
}
