//! Construction of the consistency bipartite graph `V_{D,g(D)}` (Sec. IV):
//! left vertices are the original records, right vertices the generalized
//! records, and an edge connects `R_i` to `R̄_j` iff they are consistent
//! (Def. 3.3).

use kanon_core::error::Result;
use kanon_core::generalize::{consistency_adjacency, is_generalization_of};
use kanon_core::table::{GeneralizedTable, Table};
use kanon_matching::{AllowedEdges, BipartiteGraph, Matching};

/// Builds `V_{D,g(D)}` as a [`BipartiteGraph`]. Fails if the tables are
/// not row-aligned over the same schema.
pub fn consistency_graph(table: &Table, gtable: &GeneralizedTable) -> Result<BipartiteGraph> {
    let adj = consistency_adjacency(table, gtable)?;
    Ok(BipartiteGraph::from_adjacency(gtable.num_rows(), &adj))
}

/// The matching oracle over `g`, the consistency graph of `(table,
/// gtable)`: which edges lie on some perfect matching (Def. 4.6). When
/// `g(D)` is a record-wise generalization of `D`, the identity pairing is
/// a perfect matching and seeds the oracle for free.
pub(crate) fn match_oracle(
    table: &Table,
    gtable: &GeneralizedTable,
    g: &BipartiteGraph,
) -> Result<AllowedEdges> {
    let n = table.num_rows();
    Ok(if n > 0 && is_generalization_of(table, gtable)? {
        let identity = Matching {
            pair_left: (0..n as u32).collect(),
            pair_right: (0..n as u32).collect(),
            size: n,
        };
        AllowedEdges::compute_with_matching(g, &identity)
    } else {
        AllowedEdges::compute(g)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::cluster::Clustering;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use std::sync::Arc;

    #[test]
    fn identity_generalization_gives_identity_edges_at_least() {
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
        let g = GeneralizedTable::identity_of(&t);
        let bg = consistency_graph(&t, &g).unwrap();
        assert_eq!(bg.n_left(), 3);
        assert_eq!(bg.n_right(), 3);
        for i in 0..3 {
            assert!(bg.has_edge(i, i as u32), "identity edge {i} must exist");
        }
        assert_eq!(bg.num_edges(), 3); // distinct values: only identity edges
    }

    #[test]
    fn clustered_generalization_connects_cluster_members() {
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .build_shared()
            .unwrap();
        let rows = (0..4).map(|v| Record::from_raw([v])).collect();
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        let cl = Clustering::from_assignment(vec![0, 0, 1, 1]).unwrap();
        let g = cl.to_generalized_table(&t).unwrap();
        let bg = consistency_graph(&t, &g).unwrap();
        // Each original record is consistent with both generalized records
        // of its own cluster and none of the other cluster's.
        assert_eq!(bg.neighbors(0), &[0, 1]);
        assert_eq!(bg.neighbors(1), &[0, 1]);
        assert_eq!(bg.neighbors(2), &[2, 3]);
        assert_eq!(bg.neighbors(3), &[2, 3]);
    }

    #[test]
    fn duplicate_original_records_share_neighbours() {
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b"])
            .build_shared()
            .unwrap();
        let t = Table::new(
            Arc::clone(&s),
            vec![Record::from_raw([0]), Record::from_raw([0])],
        )
        .unwrap();
        let g = GeneralizedTable::identity_of(&t);
        let bg = consistency_graph(&t, &g).unwrap();
        assert_eq!(bg.neighbors(0), &[0, 1]);
        assert_eq!(bg.neighbors(1), &[0, 1]);
    }
}
