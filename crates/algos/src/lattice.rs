//! The one **full-domain generalization lattice**, shared by the
//! Incognito-style scan ([`crate::fulldomain`]) and Samarati's height
//! binary search ([`crate::samarati`]): level bounds, recode table, every
//! node grouped by height (odometer order, attribute 0 fastest, within a
//! height), the classes a node induces, and the published table. Level ℓ
//! maps a value to its ancestor ℓ steps above the leaf, clamped at the
//! root.

use crate::agglomerative::KAnonOutput;
use kanon_core::cluster::Clustering;
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::NodeId;
use kanon_core::table::Table;
use kanon_core::{GeneralizedRecord, GeneralizedTable, ValueId};
use kanon_measures::NodeCostTable;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Every full-domain recoding of one table.
pub(crate) struct Lattice<'t> {
    table: &'t Table,
    /// `recode[j][level][value]`: the node `value` of attribute `j`
    /// recodes to at `level`.
    recode: Vec<Vec<Vec<NodeId>>>,
    /// All nodes by height, flat: node `i` is `levels[i·r .. (i+1)·r]`.
    levels: Vec<u8>,
    /// Nodes of height `h` are `height_start[h] .. height_start[h + 1]`.
    height_start: Vec<usize>,
}

impl<'t> Lattice<'t> {
    /// Builds the lattice of `table`'s schema; one too large to hold is a
    /// typed error, not an abort.
    pub(crate) fn new(table: &'t Table) -> Result<Self> {
        let schema = table.schema();
        let r = schema.num_attrs();
        // `recode[j][level][value]`, up to the deepest leaf's depth; a
        // level climbs one parent per step, clamped at the root.
        let recode: Vec<Vec<Vec<NodeId>>> = (0..r)
            .map(|j| {
                let h = schema.attr(j).hierarchy();
                let leaves: Vec<NodeId> = (0..h.domain_size() as u32)
                    .map(|v| h.leaf(ValueId(v)))
                    .collect();
                let top = leaves.iter().map(|&l| h.depth(l) as u8).max().unwrap_or(0);
                let mut by_level = vec![leaves];
                for _ in 0..top {
                    let below = &by_level[by_level.len() - 1];
                    let up = below.iter().map(|&n| h.parent(n).unwrap_or(n)).collect();
                    by_level.push(up);
                }
                by_level
            })
            .collect();
        let max_level: Vec<u8> = recode.iter().map(|l| (l.len() - 1) as u8).collect();

        let too_large = || {
            CoreError::InconsistentInput(format!(
                "the full-domain lattice over {r} attributes is too large to enumerate"
            ))
        };
        let size = max_level
            .iter()
            .try_fold(1usize, |acc, &m| acc.checked_mul(m as usize + 1))
            .ok_or_else(too_large)?;
        let bytes = size.checked_mul(r).ok_or_else(too_large)?;

        // Nodes per height: the coefficients of Π_j (1 + x + … + x^max_j).
        let mut per_height = vec![1usize];
        for &m in &max_level {
            let mut next = vec![0usize; per_height.len() + m as usize];
            for (h, &c) in per_height.iter().enumerate() {
                for slot in &mut next[h..=h + m as usize] {
                    *slot += c;
                }
            }
            per_height = next;
        }
        let height_start: Vec<usize> = std::iter::once(0)
            .chain(per_height.iter().scan(0, |acc, &c| {
                *acc += c;
                Some(*acc)
            }))
            .collect();

        let mut levels: Vec<u8> = Vec::new();
        levels.try_reserve_exact(bytes).map_err(|_| too_large())?;
        levels.resize(bytes, 0);
        // Odometer order, each node dealt to the next slot of its height.
        let mut fill = height_start.clone();
        let mut cur = vec![0u8; r];
        loop {
            let h: usize = cur.iter().map(|&l| l as usize).sum();
            let slot = fill[h];
            fill[h] += 1;
            levels[slot * r..(slot + 1) * r].copy_from_slice(&cur);
            let Some(j) = (0..r).find(|&j| cur[j] < max_level[j]) else {
                break;
            };
            cur[..j].fill(0);
            cur[j] += 1;
        }
        Ok(Lattice {
            table,
            recode,
            levels,
            height_start,
        })
    }

    /// Total number of lattice nodes.
    pub(crate) fn size(&self) -> usize {
        self.height_start[self.height_start.len() - 1]
    }

    /// The greatest node height (that of the all-root node).
    pub(crate) fn max_height(&self) -> u32 {
        self.height_start.len() as u32 - 2
    }

    /// The indices of the nodes of height `h`.
    pub(crate) fn at_height(&self, h: u32) -> Range<usize> {
        self.height_start[h as usize]..self.height_start[h as usize + 1]
    }

    /// The per-attribute levels of node `i`.
    pub(crate) fn node(&self, i: usize) -> &[u8] {
        let r = self.table.num_attrs();
        &self.levels[i * r..(i + 1) * r]
    }

    /// The tuple row `row` recodes to under `levels`.
    pub(crate) fn recode<'a>(
        &'a self,
        levels: &'a [u8],
        row: usize,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let rec = self.table.row(row);
        (0..levels.len()).map(move |j| self.recode[j][levels[j] as usize][rec.get(j).index()])
    }

    /// The classes of `levels`: each recoded tuple with its rows
    /// (ascending) folded by `add`, ordered by tuple so float sums over
    /// them depend on the data alone.
    pub(crate) fn classes<A: Default>(
        &self,
        levels: &[u8],
        add: impl Fn(&mut A, u32),
    ) -> BTreeMap<Vec<NodeId>, A> {
        let mut classes: BTreeMap<Vec<NodeId>, A> = BTreeMap::new();
        for i in 0..self.table.num_rows() {
            let tuple = self.recode(levels, i).collect();
            add(classes.entry(tuple).or_default(), i as u32);
        }
        classes
    }

    /// Publishes one tuple per row, in row order, as the generalized table
    /// itself — NOT per-class closures, which can be finer than the chosen
    /// node and would disagree with the loss that ranked it. Identical
    /// tuples form one cluster, numbered by first appearance.
    pub(crate) fn publish(
        &self,
        costs: &NodeCostTable,
        tuples: impl Iterator<Item = Vec<NodeId>>,
    ) -> Result<KAnonOutput> {
        let n = self.table.num_rows();
        let mut class_of: BTreeMap<Vec<NodeId>, u32> = BTreeMap::new();
        let mut assignment = Vec::with_capacity(n);
        let mut grows = Vec::with_capacity(n);
        for tuple in tuples {
            let next = class_of.len() as u32;
            let id = *class_of.entry(tuple.clone()).or_insert(next);
            assignment.push(id);
            grows.push(GeneralizedRecord::new(tuple));
        }
        let clustering = Clustering::from_assignment(assignment)?;
        let table = GeneralizedTable::new_unchecked(Arc::clone(self.table.schema()), grows);
        let loss = costs.table_loss(&table);
        Ok(KAnonOutput {
            clustering,
            table,
            loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{try_fulldomain_k_anonymize, try_samarati_k_anonymize};
    use kanon_core::error::CoreError;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::table::Table;
    use kanon_core::KanonError;
    use kanon_measures::{LmMeasure, NodeCostTable};

    /// Four rows over `r` attributes of five recoding levels each: a
    /// lattice of 5^r nodes.
    fn wide_table(r: usize) -> Table {
        let mut b = SchemaBuilder::new();
        for j in 0..r {
            b = b.numeric_with_intervals(format!("a{j}"), 0, 15, &[2, 4, 8]);
        }
        let schema = b.build_shared().unwrap();
        let rows = (0..4u32).map(|i| Record::from_raw(vec![i; r])).collect();
        Table::new(schema, rows).unwrap()
    }

    #[test]
    fn lattices_too_large_to_hold_are_typed_errors() {
        // 24 attributes: 5^24 nodes × 24 levels ≈ 1.4·10^18 bytes, which
        // no allocator grants. 28 attributes: 5^28 overflows `usize`.
        for r in [24, 28] {
            let t = wide_table(r);
            let costs = NodeCostTable::compute(&t, &LmMeasure);
            let errs = [
                try_fulldomain_k_anonymize(&t, &costs, 2).unwrap_err(),
                try_samarati_k_anonymize(&t, &costs, 2, 0).unwrap_err(),
            ];
            for err in errs {
                assert!(
                    matches!(&err, KanonError::Core(CoreError::InconsistentInput(m)) if m.contains("too large")),
                    "r = {r}: {err}"
                );
            }
        }
    }
}
