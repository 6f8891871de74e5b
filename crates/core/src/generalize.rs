//! Generalization operators: consistency (Def. 3.3), record joins
//! (`R̄ + R̄'`, Sec. V-B.2), closures of record sets, and the check that a
//! generalized table really is a generalization of an original one.

use crate::error::Result;
use crate::record::{GeneralizedRecord, Record};
use crate::schema::Schema;
use crate::table::{check_aligned, GeneralizedTable, Table};

/// Is the original record consistent with the generalized record, i.e.
/// `R(h) ∈ R̄(h)` for every attribute `h` (Def. 3.3)?
pub fn is_consistent(schema: &Schema, rec: &Record, grec: &GeneralizedRecord) -> bool {
    debug_assert_eq!(rec.arity(), schema.num_attrs());
    debug_assert_eq!(grec.arity(), schema.num_attrs());
    (0..schema.num_attrs()).all(|j| schema.attr(j).hierarchy().contains(grec.get(j), rec.get(j)))
}

/// The join `R̄ + R` of a generalized record with an original record: the
/// minimal generalized record generalizing `R̄` and consistent with `R`
/// (Algorithms 5 and 6). The algorithms join through `kanon-algos`'
/// cost kernel; this is the reference their tests check against.
pub fn record_join_ground(schema: &Schema, a: &GeneralizedRecord, r: &Record) -> GeneralizedRecord {
    GeneralizedRecord::new((0..schema.num_attrs()).map(|j| {
        let h = schema.attr(j).hierarchy();
        h.join(a.get(j), h.leaf(r.get(j)))
    }))
}

/// Closure of a set of rows of a table: the minimal generalized record
/// consistent with all of them ("the closure of the cluster", Sec. V-A.1).
/// Returns `None` for an empty row set.
pub fn closure_of_rows(table: &Table, rows: &[usize]) -> Option<GeneralizedRecord> {
    let (&first, rest) = rows.split_first()?;
    let schema = table.schema();
    let r = table.row(first);
    let mut acc = GeneralizedRecord::new(
        (0..schema.num_attrs()).map(|j| schema.attr(j).hierarchy().leaf(r.get(j))),
    );
    for &i in rest {
        let r = table.row(i);
        for j in 0..schema.num_attrs() {
            let h = schema.attr(j).hierarchy();
            acc.set(j, h.join(acc.get(j), h.leaf(r.get(j))));
        }
    }
    Some(acc)
}

/// Verifies that `gtable` is a generalization of `table` in the sense of
/// Def. 3.2: row-aligned, and `R̄_i` generalizes `R_i` for every `i`.
pub fn is_generalization_of(table: &Table, gtable: &GeneralizedTable) -> Result<bool> {
    check_aligned(table, gtable)?;
    let schema = table.schema();
    Ok((0..table.num_rows()).all(|i| is_consistent(schema, table.row(i), gtable.row(i))))
}

/// For each original record, the list of generalized rows it is consistent
/// with — the adjacency of the bipartite graph `V_{D,g(D)}` of Sec. IV.
/// `adj[i]` lists generalized row indices, ascending.
pub fn consistency_adjacency(table: &Table, gtable: &GeneralizedTable) -> Result<Vec<Vec<u32>>> {
    check_aligned(table, gtable)?;
    let schema = table.schema();
    let n = table.num_rows();
    let mut adj = vec![Vec::new(); n];
    for (i, item) in adj.iter_mut().enumerate() {
        let rec = table.row(i);
        for j in 0..n {
            if is_consistent(schema, rec, gtable.row(j)) {
                item.push(j as u32);
            }
        }
    }
    Ok(adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ValueId;
    use crate::record::Record;
    use crate::schema::{SchemaBuilder, SharedSchema};
    use std::sync::Arc;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .categorical("x", ["p", "q"])
            .build_shared()
            .unwrap()
    }

    fn table(s: &SharedSchema) -> Table {
        Table::new(
            Arc::clone(s),
            vec![
                Record::from_raw([0, 0]), // a,p
                Record::from_raw([1, 0]), // b,p
                Record::from_raw([2, 1]), // c,q
            ],
        )
        .unwrap()
    }

    #[test]
    fn consistency_basic() {
        let s = schema();
        let t = table(&s);
        let g = GeneralizedTable::identity_of(&t);
        // Every record is consistent with its own identity generalization…
        assert!(is_consistent(&s, t.row(0), g.row(0)));
        // …and not with a different one.
        assert!(!is_consistent(&s, t.row(0), g.row(2)));
    }

    #[test]
    fn suppressed_record_is_consistent_with_all() {
        let s = schema();
        let t = table(&s);
        let star = GeneralizedRecord::new(s.suppressed_nodes());
        for r in t.rows() {
            assert!(is_consistent(&s, r, &star));
        }
    }

    #[test]
    fn closure_of_pair_within_group() {
        let s = schema();
        let t = table(&s);
        // rows 0 ("a,p") and 1 ("b,p"): closure is ({a,b}, p)
        let c = closure_of_rows(&t, &[0, 1]).unwrap();
        let h0 = s.attr(0).hierarchy();
        assert_eq!(h0.values(c.get(0)).len(), 2);
        let h1 = s.attr(1).hierarchy();
        assert_eq!(c.get(1), h1.leaf(ValueId(0)));
        // Both rows are consistent with the closure.
        assert!(is_consistent(&s, t.row(0), &c));
        assert!(is_consistent(&s, t.row(1), &c));
        assert!(!is_consistent(&s, t.row(2), &c));
    }

    #[test]
    fn closure_across_groups_hits_root() {
        let s = schema();
        let t = table(&s);
        let c = closure_of_rows(&t, &[0, 2]).unwrap();
        let h0 = s.attr(0).hierarchy();
        assert_eq!(c.get(0), h0.root());
    }

    #[test]
    fn closure_of_empty_is_none() {
        let s = schema();
        let t = table(&s);
        assert!(closure_of_rows(&t, &[]).is_none());
    }

    #[test]
    fn join_ground_extends_minimally() {
        let s = schema();
        let t = table(&s);
        let g0 = GeneralizedRecord::new(
            (0..s.num_attrs()).map(|j| s.attr(j).hierarchy().leaf(t.row(0).get(j))),
        );
        let joined = record_join_ground(&s, &g0, t.row(1));
        assert!(is_consistent(&s, t.row(0), &joined));
        assert!(is_consistent(&s, t.row(1), &joined));
        // Minimal: attribute 0 generalizes to the pair {a,b}, not the root.
        let h0 = s.attr(0).hierarchy();
        assert_eq!(h0.node_size(joined.get(0)), 2);
    }

    #[test]
    fn is_generalization_checks_rowwise() {
        let s = schema();
        let t = table(&s);
        let mut g = GeneralizedTable::identity_of(&t);
        assert!(is_generalization_of(&t, &g).unwrap());
        // Swap rows 0 and 2: no longer a row-wise generalization.
        let r0 = g.row(0).clone();
        let r2 = g.row(2).clone();
        *g.row_mut(0) = r2;
        *g.row_mut(2) = r0;
        assert!(!is_generalization_of(&t, &g).unwrap());
    }

    #[test]
    fn adjacency_matches_consistency() {
        let s = schema();
        let t = table(&s);
        let mut g = GeneralizedTable::identity_of(&t);
        // Generalize row 1's first entry to {a,b}: row 0 becomes consistent
        // with generalized row 1 too.
        let h0 = s.attr(0).hierarchy();
        let pair = h0.closure([ValueId(0), ValueId(1)]).unwrap();
        g.row_mut(1).set(0, pair);
        let adj = consistency_adjacency(&t, &g).unwrap();
        assert_eq!(adj[0], vec![0, 1]);
        assert_eq!(adj[1], vec![1]);
        assert_eq!(adj[2], vec![2]);
    }
}
