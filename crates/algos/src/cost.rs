//! Shared working context for the anonymization algorithms: closures as
//! per-attribute node vectors, incremental joins, and cluster costs
//! `d(S) = c(closure(S))` (Eq. 7) backed by a precomputed
//! [`NodeCostTable`].
//!
//! ## The fused signature kernel
//!
//! The hot read path of every algorithm is `cost(join(a, b))` per
//! attribute, evaluated O(n²) times. [`CostContext::new`] builds, per
//! attribute whose hierarchy carries its dense join table, one
//! interleaved `(node, cost)` entry per `(a, b)` pair, so a join and its
//! cost are one 16-byte probe. Attributes over the join-table node budget
//! keep the hierarchy and its cost row and climb parent pointers instead.
//! This one kernel serves every join and join cost of the crate: the four
//! cost entry points (`join_cost`, `arena_join_cost`, `join_row_cost`,
//! `pair_cost`) are thin calls into one fold over attribute-wise node
//! pairs, and the materializing joins read the node half of the same
//! probe. Costs in the fused table are bit-copied from the cost row and
//! summed in ascending-attribute order, so every result is bit-identical
//! to [`NodeCostTable::nodes_cost`] of the materialized join.
//!
//! Work accounting: cost probes and the node-vector joins
//! (`join_nodes_into`, `covers_row`) count
//! [`kanon_obs::Counter::SignatureBytesStreamed`] (bytes, thread-count
//! invariant); row joins (`join_row_into`, `closure_of`) count one
//! `JoinTableHits` per probe; every climb counts one `ClimbFallbackHits`.
//!
//! Row leaf signatures are also flattened once ([`CostContext::new`])
//! into a contiguous `n × r` lane (`row_sigs`), which turns
//! `pair_cost`/`join_row_cost` leaf lookups into array reads. The
//! engine-side analogue for *clusters* is [`SigArena`]: per-attribute
//! `u32` node lanes indexed by engine slot, evaluated with
//! [`CostContext::arena_join_cost`].

use kanon_core::hierarchy::{Hierarchy, NodeId};
use kanon_core::record::GeneralizedRecord;
use kanon_core::table::Table;
use kanon_measures::NodeCostTable;
use kanon_obs::Counter;
use std::sync::Arc;

/// One interleaved entry of a fused join×cost table: the joined node and
/// its measure cost, loaded together with a single probe.
#[derive(Clone, Copy)]
struct FusedEntry {
    node: u32,
    cost: f64,
}

/// Bytes one fused probe streams (the counter weight of
/// `SignatureBytesStreamed`).
const FUSED_PROBE_BYTES: u64 = std::mem::size_of::<FusedEntry>() as u64;

/// Per-attribute join/cost kernel.
enum AttrJoin<'a> {
    /// `entries[a * stride + b]` holds the join of nodes `a`, `b` and
    /// that join's cost: built from the hierarchy's dense join table.
    Fused {
        entries: Vec<FusedEntry>,
        stride: usize,
    },
    /// The hierarchy is over its join-table node budget (see
    /// [`kanon_core::hierarchy::JOIN_TABLE_LIMIT`]): joins climb parent
    /// pointers and read the cost row.
    Climb {
        hierarchy: &'a Hierarchy,
        cost_row: &'a [f64],
    },
}

impl<'a> AttrJoin<'a> {
    /// The kernel of one attribute: fused when the hierarchy has its
    /// dense join table. O(nodes²), bounded by the node budget —
    /// negligible next to the O(n²) scans it accelerates.
    fn new(hierarchy: &'a Hierarchy, cost_row: &'a [f64]) -> Self {
        if !hierarchy.has_join_table() {
            return AttrJoin::Climb {
                hierarchy,
                cost_row,
            };
        }
        let entries = hierarchy
            .node_ids()
            .flat_map(|a| {
                hierarchy.node_ids().map(move |b| {
                    let node = hierarchy.join(a, b);
                    FusedEntry {
                        node: node.0,
                        cost: cost_row[node.index()],
                    }
                })
            })
            .collect();
        AttrJoin::Fused {
            entries,
            stride: hierarchy.num_nodes(),
        }
    }

    /// `join(a, b)` and its cost. A fused probe adds its bytes to
    /// `streamed`; a climb counts one `ClimbFallbackHits`.
    #[inline]
    fn probe(&self, a: u32, b: u32, streamed: &mut u64) -> FusedEntry {
        match self {
            AttrJoin::Fused { entries, stride } => {
                *streamed += FUSED_PROBE_BYTES;
                entries[a as usize * stride + b as usize]
            }
            AttrJoin::Climb {
                hierarchy,
                cost_row,
            } => {
                kanon_obs::count(Counter::ClimbFallbackHits, 1);
                let node = hierarchy.join_uncached(NodeId(a), NodeId(b));
                FusedEntry {
                    node: node.0,
                    cost: cost_row[node.index()],
                }
            }
        }
    }
}

/// Flat SoA arena of cluster generalization signatures, indexed by
/// engine slot: `lanes[j][slot]` is the attribute-`j` closure node of
/// that slot's cluster, with the cluster's size and cost alongside. The
/// engine stores every active cluster here so distance scans stream
/// per-attribute `u32` lanes plus one fused probe each, instead of
/// chasing per-cluster `Vec<NodeId>` allocations.
#[derive(Debug)]
pub struct SigArena {
    /// One `u32` node-id lane per attribute, all `len()` slots long.
    lanes: Vec<Vec<u32>>,
    sizes: Vec<u32>,
    costs: Vec<f64>,
}

impl SigArena {
    /// An empty arena for `num_attrs` attributes, with room for
    /// `capacity` slots per lane.
    pub fn with_capacity(num_attrs: usize, capacity: usize) -> Self {
        SigArena {
            lanes: (0..num_attrs)
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
            sizes: Vec::with_capacity(capacity),
            costs: Vec::with_capacity(capacity),
        }
    }

    /// Number of stored slots.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when no slot has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Stores (or overwrites) the signature and stats of `slot`. Slots
    /// must be appended densely: `slot <= len()`.
    pub fn store(&mut self, slot: usize, nodes: &[NodeId], size: usize, cost: f64) {
        debug_assert_eq!(nodes.len(), self.lanes.len(), "signature arity");
        debug_assert!(slot <= self.len(), "arena slots are appended densely");
        if slot == self.len() {
            for (lane, n) in self.lanes.iter_mut().zip(nodes) {
                lane.push(n.0);
            }
            self.sizes.push(size as u32);
            self.costs.push(cost);
        } else {
            for (lane, n) in self.lanes.iter_mut().zip(nodes) {
                lane[slot] = n.0;
            }
            self.sizes[slot] = size as u32;
            self.costs[slot] = cost;
        }
    }

    /// Stored cluster size of `slot`.
    #[inline]
    pub fn size(&self, slot: usize) -> usize {
        self.sizes[slot] as usize
    }

    /// Stored cluster cost of `slot`.
    #[inline]
    pub fn cost(&self, slot: usize) -> f64 {
        self.costs[slot]
    }
}

/// Borrowed bundle of everything the algorithms need to evaluate cluster
/// costs: the original table (for record values), its schema, and the
/// measure's node costs — plus one join/cost kernel per attribute that
/// turns the hot `cost(join(a, b))` pair into one probe.
#[derive(Clone)]
pub struct CostContext<'a> {
    /// The original table `D`.
    pub table: &'a Table,
    /// Precomputed per-node measure costs over `D`.
    pub costs: &'a NodeCostTable,
    /// One kernel per attribute, resolved once at construction. Behind
    /// an `Arc` so cloning the context stays cheap.
    attrs: Arc<[AttrJoin<'a>]>,
    /// Flattened row leaf signatures, row-major `n × r`.
    row_sigs: Arc<[u32]>,
}

impl<'a> CostContext<'a> {
    /// Creates a context. The cost table must have been computed over a
    /// table with the same schema (same attribute count is asserted).
    pub fn new(table: &'a Table, costs: &'a NodeCostTable) -> Self {
        assert_eq!(
            table.num_attrs(),
            costs.num_attrs(),
            "cost table and table disagree on attribute count"
        );
        let schema = table.schema();
        let attrs: Arc<[AttrJoin<'a>]> = (0..schema.num_attrs())
            .map(|j| AttrJoin::new(schema.attr(j).hierarchy(), costs.attr_costs(j)))
            .collect();
        let mut row_sigs = Vec::with_capacity(table.num_rows() * attrs.len());
        for rec in table.rows() {
            for j in 0..attrs.len() {
                row_sigs.push(schema.attr(j).hierarchy().leaf(rec.get(j)).0);
            }
        }
        CostContext {
            table,
            costs,
            attrs,
            row_sigs: row_sigs.into(),
        }
    }

    /// Number of attributes `r`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.table.num_attrs()
    }

    /// Number of records `n`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    /// Leaf nodes of a row (the closure of a singleton cluster), read
    /// from the flattened row-signature lane.
    pub fn leaf_nodes(&self, row: usize) -> Vec<NodeId> {
        self.row_sig(row).iter().map(|&n| NodeId(n)).collect()
    }

    /// The flattened leaf signature of one row (`r` node ids).
    #[inline]
    fn row_sig(&self, row: usize) -> &[u32] {
        let r = self.attrs.len();
        &self.row_sigs[row * r..(row + 1) * r]
    }

    /// The one cost fold: `c(join)` of two signatures given as their
    /// attribute-wise node pairs, summed in ascending attribute order,
    /// counting the streamed bytes once per call.
    #[inline]
    fn fold_cost(&self, pairs: impl Iterator<Item = (u32, u32)>) -> f64 {
        let mut sum = 0.0;
        let mut streamed = 0u64;
        for (k, (a, b)) in self.attrs.iter().zip(pairs) {
            sum += k.probe(a, b, &mut streamed).cost;
        }
        kanon_obs::count(Counter::SignatureBytesStreamed, streamed);
        sum / self.attrs.len() as f64
    }

    /// Joins row `row` into the closure `acc` in place.
    pub fn join_row_into(&self, acc: &mut [NodeId], row: usize) {
        let mut streamed = 0u64;
        for ((slot, k), &leaf) in acc.iter_mut().zip(self.attrs.iter()).zip(self.row_sig(row)) {
            *slot = NodeId(k.probe(slot.0, leaf, &mut streamed).node);
        }
        // A materializing row join counts table hits, one per probe.
        kanon_obs::count(Counter::JoinTableHits, streamed / FUSED_PROBE_BYTES);
    }

    /// Joins closure `other` into `acc` in place: one probe per
    /// attribute.
    pub fn join_nodes_into(&self, acc: &mut [NodeId], other: &[NodeId]) {
        let mut streamed = 0u64;
        for ((slot, k), o) in acc.iter_mut().zip(self.attrs.iter()).zip(other) {
            *slot = NodeId(k.probe(slot.0, o.0, &mut streamed).node);
        }
        kanon_obs::count(Counter::SignatureBytesStreamed, streamed);
    }

    /// Cost of a closure: `d(S) = c(closure(S))`.
    #[inline]
    pub fn cost(&self, nodes: &[NodeId]) -> f64 {
        self.costs.nodes_cost(nodes)
    }

    /// Cost of the join of two closures without materializing it.
    pub fn join_cost(&self, a: &[NodeId], b: &[NodeId]) -> f64 {
        self.fold_cost(a.iter().zip(b).map(|(x, y)| (x.0, y.0)))
    }

    /// Cost of the join of two [`SigArena`] slots: the engine's packed
    /// scan path. The arena only changes *where* the signatures live
    /// (contiguous lanes instead of per-cluster vecs), so the result is
    /// bit-identical to [`Self::join_cost`].
    pub fn arena_join_cost(&self, arena: &SigArena, a: usize, b: usize) -> f64 {
        self.fold_cost(arena.lanes.iter().map(|lane| (lane[a], lane[b])))
    }

    /// True when the closure `nodes` already covers row `row`: joining
    /// the row changes no attribute's node, so the cluster's closure and
    /// its cost stay bit-identical. Allocation-free; stops at the first
    /// attribute the row escapes.
    pub fn covers_row(&self, nodes: &[NodeId], row: usize) -> bool {
        let mut streamed = 0u64;
        let covered = self
            .attrs
            .iter()
            .zip(self.row_sig(row))
            .zip(nodes)
            .all(|((k, &leaf), node)| k.probe(node.0, leaf, &mut streamed).node == node.0);
        kanon_obs::count(Counter::SignatureBytesStreamed, streamed);
        covered
    }

    /// Cost of the join of a closure with one row without materializing
    /// it, using the flattened row signature.
    pub fn join_row_cost(&self, a: &[NodeId], row: usize) -> f64 {
        self.fold_cost(a.iter().zip(self.row_sig(row)).map(|(x, &y)| (x.0, y)))
    }

    /// Pairwise record cost `d({R_i, R_j})` — the edge weight used by
    /// Algorithm 3 and the forest baseline.
    pub fn pair_cost(&self, i: usize, j: usize) -> f64 {
        kanon_obs::count(Counter::PairCostEvals, 1);
        let (si, sj) = (self.row_sig(i), self.row_sig(j));
        self.fold_cost(si.iter().copied().zip(sj.iter().copied()))
    }

    /// Closure of an explicit row set (panics on empty input).
    pub fn closure_of(&self, rows: &[u32]) -> Vec<NodeId> {
        let mut acc = self.leaf_nodes(rows[0] as usize);
        for &row in &rows[1..] {
            self.join_row_into(&mut acc, row as usize);
        }
        acc
    }

    /// Wraps a closure node vector into a [`GeneralizedRecord`].
    pub fn to_record(&self, nodes: &[NodeId]) -> GeneralizedRecord {
        GeneralizedRecord::new(nodes.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_measures::LmMeasure;
    use std::sync::Arc;

    fn setup() -> (Table, NodeCostTable) {
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .categorical("x", ["p", "q"])
            .build_shared()
            .unwrap();
        let t = Table::new(
            Arc::clone(&s),
            vec![
                Record::from_raw([0, 0]),
                Record::from_raw([1, 0]),
                Record::from_raw([2, 1]),
                Record::from_raw([3, 1]),
            ],
        )
        .unwrap();
        let c = NodeCostTable::compute(&t, &LmMeasure);
        (t, c)
    }

    #[test]
    fn singleton_cost_zero() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        for i in 0..4 {
            let nodes = ctx.leaf_nodes(i);
            assert_eq!(ctx.cost(&nodes), 0.0);
        }
    }

    #[test]
    fn pair_cost_symmetric_and_matches_closure() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(ctx.pair_cost(i, j), ctx.pair_cost(j, i));
                let closure = ctx.closure_of(&[i as u32, j as u32]);
                assert!((ctx.pair_cost(i, j) - ctx.cost(&closure)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn join_costs_agree_with_materialized_joins() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        let a = ctx.closure_of(&[0, 1]);
        let b = ctx.closure_of(&[2, 3]);
        let mut u = a.clone();
        ctx.join_nodes_into(&mut u, &b);
        assert!((ctx.join_cost(&a, &b) - ctx.cost(&u)).abs() < 1e-12);
        let mut ar = a.clone();
        ctx.join_row_into(&mut ar, 2);
        assert!((ctx.join_row_cost(&a, 2) - ctx.cost(&ar)).abs() < 1e-12);
    }

    #[test]
    fn covers_row_agrees_with_the_materialized_join() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        for rows in [&[0u32][..], &[0, 1], &[2, 3], &[0, 2]] {
            let closure = ctx.closure_of(rows);
            for row in 0..4 {
                let mut joined = closure.clone();
                ctx.join_row_into(&mut joined, row);
                assert_eq!(
                    ctx.covers_row(&closure, row),
                    joined == closure,
                    "{rows:?} ∋ {row}"
                );
            }
        }
    }

    #[test]
    fn arena_join_cost_is_bit_identical_to_vec_path() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        let a = ctx.closure_of(&[0, 1]);
        let b = ctx.closure_of(&[2, 3]);
        let mut arena = SigArena::with_capacity(ctx.num_attrs(), 2);
        arena.store(0, &a, 2, ctx.cost(&a));
        arena.store(1, &b, 2, ctx.cost(&b));
        assert_eq!(arena.len(), 2);
        assert_eq!(
            ctx.join_cost(&a, &b).to_bits(),
            ctx.arena_join_cost(&arena, 0, 1).to_bits(),
            "arena path must be bit-identical to the vec path"
        );
        assert_eq!(arena.size(0), 2);
        assert_eq!(arena.cost(1).to_bits(), ctx.cost(&b).to_bits());
        // Overwrite semantics: re-storing a slot replaces its lanes.
        arena.store(0, &b, 2, ctx.cost(&b));
        assert_eq!(
            ctx.arena_join_cost(&arena, 0, 1).to_bits(),
            ctx.join_cost(&b, &b).to_bits()
        );
    }

    #[test]
    fn fused_probes_stream_bytes_instead_of_join_table_hits() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        let a = ctx.closure_of(&[0]);
        let b = ctx.closure_of(&[1]);
        let col = kanon_obs::Collector::new();
        {
            let _g = col.install();
            ctx.join_cost(&a, &b);
            ctx.pair_cost(0, 2);
        }
        let r = col.report();
        // Two fused evaluations × two attributes × 16 bytes each.
        assert_eq!(
            r.counter(kanon_obs::Counter::SignatureBytesStreamed),
            2 * 2 * 16
        );
        assert_eq!(
            r.counter(kanon_obs::Counter::JoinTableHits),
            0,
            "distance evaluations must not touch the split join table"
        );
    }

    /// Rows over one attribute under the join-table node budget and one
    /// over it (a 600-value interval ladder, 667 nodes: climbs only).
    fn setup_mixed() -> (Table, NodeCostTable) {
        use kanon_core::domain::AttributeDomain;
        use kanon_core::hierarchy::JOIN_TABLE_LIMIT;
        use kanon_core::schema::Attribute;
        let big = Attribute::new(
            AttributeDomain::anonymous("big", 600).unwrap(),
            Hierarchy::intervals(600, &[10, 100]).unwrap(),
        )
        .unwrap();
        let s = SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .attribute(big)
            .build_shared()
            .unwrap();
        assert!(s.attr(0).hierarchy().has_join_table());
        assert!(s.attr(1).hierarchy().num_nodes() > JOIN_TABLE_LIMIT);
        assert!(!s.attr(1).hierarchy().has_join_table());
        let rows = [[0, 3], [1, 7], [0, 15], [2, 250], [3, 599], [1, 3]];
        let t = Table::new(
            Arc::clone(&s),
            rows.iter().map(|&r| Record::from_raw(r)).collect(),
        )
        .unwrap();
        let c = NodeCostTable::compute(&t, &LmMeasure);
        (t, c)
    }

    #[test]
    fn every_entry_point_matches_the_climb_reference_and_counts_its_probes() {
        use kanon_obs::{Collector, Counter};
        let (t, c) = setup_mixed();
        let ctx = CostContext::new(&t, &c);
        let schema = t.schema();
        let r = schema.num_attrs();
        let join = |a: &[NodeId], b: &[NodeId]| -> Vec<NodeId> {
            (0..r)
                .map(|j| schema.attr(j).hierarchy().join_uncached(a[j], b[j]))
                .collect()
        };
        let cost = |nodes: &[NodeId]| -> u64 {
            let mut sum = 0.0;
            for (j, &n) in nodes.iter().enumerate() {
                sum += c.entry_cost(j, n);
            }
            (sum / r as f64).to_bits()
        };
        let leaf = |row: usize| -> Vec<NodeId> {
            (0..r)
                .map(|j| schema.attr(j).hierarchy().leaf(t.row(row).get(j)))
                .collect()
        };
        let closure = |rows: &[u32]| -> Vec<NodeId> {
            rows[1..].iter().fold(leaf(rows[0] as usize), |acc, &i| {
                join(&acc, &leaf(i as usize))
            })
        };
        // [bytes streamed, join-table hits, climbs, pair evaluations].
        let counted = |f: &mut dyn FnMut()| -> [u64; 4] {
            let col = Collector::new();
            {
                let _g = col.install();
                f();
            }
            let rep = col.report();
            [
                Counter::SignatureBytesStreamed,
                Counter::JoinTableHits,
                Counter::ClimbFallbackHits,
                Counter::PairCostEvals,
            ]
            .map(|k| rep.counter(k))
        };
        // One fused probe (16 bytes) on attribute 0, one climb on 1.
        let streamed = [16, 0, 1, 0];

        let sets: [&[u32]; 6] = [&[0], &[1], &[0, 2], &[0, 1, 5], &[3, 4], &[0, 1, 2, 3]];
        for (x, &sa) in sets.iter().enumerate() {
            let a = closure(sa);
            let mut got = Vec::new();
            assert_eq!(counted(&mut || got = ctx.closure_of(sa)), {
                let joins = sa.len() as u64 - 1;
                [0, joins, joins, 0]
            });
            assert_eq!(got, a, "closure_of {sa:?}");
            for &sb in &sets[x..] {
                let b = closure(sb);
                let want = join(&a, &b);
                let mut bits = 0;
                assert_eq!(
                    counted(&mut || bits = ctx.join_cost(&a, &b).to_bits()),
                    streamed
                );
                assert_eq!(bits, cost(&want), "join_cost {sa:?} {sb:?}");
                let mut arena = SigArena::with_capacity(r, 2);
                arena.store(0, &a, sa.len(), ctx.cost(&a));
                arena.store(1, &b, sb.len(), ctx.cost(&b));
                assert_eq!(
                    counted(&mut || bits = ctx.arena_join_cost(&arena, 0, 1).to_bits()),
                    streamed
                );
                assert_eq!(bits, cost(&want), "arena_join_cost {sa:?} {sb:?}");
                let mut acc = a.clone();
                assert_eq!(counted(&mut || ctx.join_nodes_into(&mut acc, &b)), streamed);
                assert_eq!(acc, want, "join_nodes_into {sa:?} {sb:?}");
            }
            for row in 0..t.num_rows() {
                let want = join(&a, &leaf(row));
                let mut bits = 0;
                assert_eq!(
                    counted(&mut || bits = ctx.join_row_cost(&a, row).to_bits()),
                    streamed
                );
                assert_eq!(bits, cost(&want), "join_row_cost {sa:?} {row}");
                let mut acc = a.clone();
                assert_eq!(
                    counted(&mut || ctx.join_row_into(&mut acc, row)),
                    [0, 1, 1, 0]
                );
                assert_eq!(acc, want, "join_row_into {sa:?} {row}");
                // Stops at the first attribute the row escapes.
                let mut covered = false;
                let climbs = u64::from(want[0] == a[0]);
                assert_eq!(
                    counted(&mut || covered = ctx.covers_row(&a, row)),
                    [16, 0, climbs, 0]
                );
                assert_eq!(covered, want == a, "covers_row {sa:?} {row}");
            }
        }
        for i in 0..t.num_rows() {
            for j in 0..t.num_rows() {
                let mut bits = 0;
                assert_eq!(
                    counted(&mut || bits = ctx.pair_cost(i, j).to_bits()),
                    [16, 0, 1, 1]
                );
                assert_eq!(bits, cost(&join(&leaf(i), &leaf(j))), "pair_cost {i} {j}");
            }
        }
    }

    #[test]
    fn lm_pair_cost_values() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        // Rows 0,1 share x=p and group {a,b}: LM = ((2−1)/3 + 0)/2 = 1/6.
        assert!((ctx.pair_cost(0, 1) - 1.0 / 6.0).abs() < 1e-12);
        // Rows 0,2: attr c generalizes to root (3/3), x to root (1/1):
        // LM = (1 + 1)/2 = 1.
        assert!((ctx.pair_cost(0, 2) - 1.0).abs() < 1e-12);
    }
}
