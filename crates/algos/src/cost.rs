//! Shared working context for the anonymization algorithms: closures as
//! per-attribute node vectors, incremental joins, and cluster costs
//! `d(S) = c(closure(S))` (Eq. 7) backed by a precomputed
//! [`NodeCostTable`].
//!
//! ## The fused signature kernel
//!
//! The hot read path of every algorithm is `cost(join(a, b))` per
//! attribute, evaluated O(n²) times. With the split tables that is two
//! dependent probes — the dense LCA table, then the cost row — each a
//! pointer-chase into a different allocation. [`CostContext::new`] fuses
//! them: one interleaved `(node, cost)` entry per `(a, b)` pair, so a
//! distance evaluation streams exactly one 16-byte probe per attribute.
//! Fused probes count [`kanon_obs::Counter::SignatureBytesStreamed`]
//! (bytes, thread-count invariant) *instead of* `JoinTableHits`; the
//! materializing joins (`join_row_into`/`join_nodes_into`, O(n) merge
//! work) keep the split tables and the old counters. Costs in the fused
//! table are bit-copied from the cost row and summed in the same
//! ascending-attribute order, so every result is byte-identical to the
//! two-probe path.
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
use std::sync::Arc;

/// Per-attribute join/cost kernel: the hierarchy, its dense pairwise join
/// table (when built under the node budget — see
/// [`Hierarchy::rebuild_join_table`]), and the measure's dense cost row.
/// With the table present, `join ∘ cost` for one attribute is two array
/// loads; without it, the join falls back to the parent-pointer climb.
#[derive(Clone, Copy)]
struct AttrKernel<'a> {
    hierarchy: &'a Hierarchy,
    /// Dense `num_nodes × num_nodes` LCA table, row-major, or `None`
    /// when the hierarchy exceeded its join-table node budget.
    join_table: Option<&'a [u32]>,
    /// Stride of `join_table` rows (= the hierarchy's node count).
    num_nodes: usize,
    /// `cost_row[node.index()]` = measure cost of that node.
    cost_row: &'a [f64],
}

impl<'a> AttrKernel<'a> {
    #[inline]
    fn join(&self, a: NodeId, b: NodeId) -> NodeId {
        match self.join_table {
            Some(t) => {
                kanon_obs::count(kanon_obs::Counter::JoinTableHits, 1);
                NodeId(t[a.index() * self.num_nodes + b.index()])
            }
            None => {
                kanon_obs::count(kanon_obs::Counter::ClimbFallbackHits, 1);
                self.hierarchy.join_uncached(a, b)
            }
        }
    }

    #[inline]
    fn leaf(&self, v: kanon_core::domain::ValueId) -> NodeId {
        self.hierarchy.leaf(v)
    }

    #[inline]
    fn cost(&self, n: NodeId) -> f64 {
        self.cost_row[n.index()]
    }
}

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

/// Fused per-attribute table: `entries[a * stride + b]` holds the join
/// of nodes `a`,`b` *and* that join's cost, interleaved so the hot
/// `cost(join(a, b))` read is one contiguous probe instead of two
/// dependent lookups in separate allocations.
struct FusedAttr {
    entries: Vec<FusedEntry>,
    stride: usize,
}

impl FusedAttr {
    #[inline]
    fn probe(&self, a: u32, b: u32) -> FusedEntry {
        self.entries[a as usize * self.stride + b as usize]
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
/// measure's node costs — plus a per-attribute `AttrKernel` cache that
/// turns the hot `join`/`cost` pair into O(1) array loads.
#[derive(Clone)]
pub struct CostContext<'a> {
    /// The original table `D`.
    pub table: &'a Table,
    /// Precomputed per-node measure costs over `D`.
    pub costs: &'a NodeCostTable,
    /// One kernel per attribute, resolved once at construction.
    attrs: Vec<AttrKernel<'a>>,
    /// Fused `(join, cost)` tables, one per attribute with a dense join
    /// table (`None` = over the node budget, climb fallback). Behind an
    /// `Arc` so cloning the context stays cheap.
    fused: Arc<Vec<Option<FusedAttr>>>,
    /// Flattened row leaf signatures, row-major `n × r`.
    row_sigs: Arc<Vec<u32>>,
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
        let attrs: Vec<AttrKernel<'a>> = (0..schema.num_attrs())
            .map(|j| {
                let h = schema.attr(j).hierarchy();
                AttrKernel {
                    hierarchy: h,
                    join_table: h.join_table_slice(),
                    num_nodes: h.num_nodes(),
                    cost_row: costs.attr_costs(j),
                }
            })
            .collect();
        // Fuse each dense join table with its cost row: costs are
        // bit-copied, so fused sums are bit-identical to the two-probe
        // path. O(nodes²) per attribute, bounded by the join-table node
        // budget — negligible next to the O(n²) scans it accelerates.
        let fused = Arc::new(
            attrs
                .iter()
                .map(|k| {
                    k.join_table.map(|t| FusedAttr {
                        stride: k.num_nodes,
                        entries: t
                            .iter()
                            .map(|&n| FusedEntry {
                                node: n,
                                cost: k.cost_row[n as usize],
                            })
                            .collect(),
                    })
                })
                .collect(),
        );
        let r = attrs.len();
        let mut row_sigs = Vec::with_capacity(table.num_rows() * r);
        for row in 0..table.num_rows() {
            let rec = table.row(row);
            for (j, k) in attrs.iter().enumerate() {
                row_sigs.push(k.leaf(rec.get(j)).0);
            }
        }
        CostContext {
            table,
            costs,
            attrs,
            fused,
            row_sigs: Arc::new(row_sigs),
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

    /// `cost(join(a, b))` for attribute `j` plus the bytes streamed:
    /// one fused probe when the attribute has a fused table, else the
    /// split-table / climb fallback (which counts its own hits).
    #[inline]
    fn fused_cost(&self, j: usize, na: u32, nb: u32, streamed: &mut u64) -> f64 {
        match &self.fused[j] {
            Some(f) => {
                *streamed += FUSED_PROBE_BYTES;
                f.probe(na, nb).cost
            }
            None => {
                let k = &self.attrs[j];
                k.cost(k.join(NodeId(na), NodeId(nb)))
            }
        }
    }

    /// `join(a, b)` for attribute `j`: the fused table's interleaved
    /// node id where available (one probe), else the split-table /
    /// climb kernel.
    #[inline]
    fn fused_join(&self, j: usize, a: NodeId, b: NodeId, streamed: &mut u64) -> NodeId {
        match &self.fused[j] {
            Some(f) => {
                *streamed += FUSED_PROBE_BYTES;
                NodeId(f.probe(a.0, b.0).node)
            }
            None => self.attrs[j].join(a, b),
        }
    }

    /// Joins row `row` into the closure `acc` in place.
    pub fn join_row_into(&self, acc: &mut [NodeId], row: usize) {
        let rec = self.table.row(row);
        for (j, (slot, k)) in acc.iter_mut().zip(&self.attrs).enumerate() {
            *slot = k.join(*slot, k.leaf(rec.get(j)));
        }
    }

    /// Joins closure `other` into `acc` in place: one fused probe per
    /// attribute where available, the split-table/climb kernel otherwise.
    pub fn join_nodes_into(&self, acc: &mut [NodeId], other: &[NodeId]) {
        let mut streamed = 0u64;
        for (j, (slot, &o)) in acc.iter_mut().zip(other).enumerate() {
            *slot = self.fused_join(j, *slot, o, &mut streamed);
        }
        if streamed > 0 {
            kanon_obs::count(kanon_obs::Counter::SignatureBytesStreamed, streamed);
        }
    }

    /// Cost of a closure: `d(S) = c(closure(S))`.
    #[inline]
    pub fn cost(&self, nodes: &[NodeId]) -> f64 {
        self.costs.nodes_cost(nodes)
    }

    /// Cost of the join of two closures without materializing it: one
    /// fused probe per attribute.
    pub fn join_cost(&self, a: &[NodeId], b: &[NodeId]) -> f64 {
        let mut sum = 0.0;
        let mut streamed = 0u64;
        for (j, (&na, &nb)) in a.iter().zip(b).enumerate() {
            sum += self.fused_cost(j, na.0, nb.0, &mut streamed);
        }
        if streamed > 0 {
            kanon_obs::count(kanon_obs::Counter::SignatureBytesStreamed, streamed);
        }
        sum / self.num_attrs() as f64
    }

    /// Cost of the join of two [`SigArena`] slots: the engine's packed
    /// scan path. Same per-attribute values, same ascending-attribute
    /// summation order and same counters as [`Self::join_cost`], so the
    /// result is bit-identical — the arena only changes *where* the
    /// signatures live (contiguous lanes instead of per-cluster vecs).
    pub fn arena_join_cost(&self, arena: &SigArena, a: usize, b: usize) -> f64 {
        let mut sum = 0.0;
        let mut streamed = 0u64;
        for (j, lane) in arena.lanes.iter().enumerate() {
            sum += self.fused_cost(j, lane[a], lane[b], &mut streamed);
        }
        if streamed > 0 {
            kanon_obs::count(kanon_obs::Counter::SignatureBytesStreamed, streamed);
        }
        sum / self.num_attrs() as f64
    }

    /// True when the closure `nodes` already covers row `row`: joining
    /// the row changes no attribute's node, so the cluster's closure and
    /// its cost stay bit-identical. Allocation-free; stops at the first
    /// attribute the row escapes.
    pub fn covers_row(&self, nodes: &[NodeId], row: usize) -> bool {
        let mut streamed = 0u64;
        let covered = self
            .row_sig(row)
            .iter()
            .zip(nodes)
            .enumerate()
            .all(|(j, (&leaf, &node))| {
                self.fused_join(j, node, NodeId(leaf), &mut streamed) == node
            });
        if streamed > 0 {
            kanon_obs::count(kanon_obs::Counter::SignatureBytesStreamed, streamed);
        }
        covered
    }

    /// Cost of the join of a closure with one row without materializing
    /// it, using the flattened row signature.
    pub fn join_row_cost(&self, a: &[NodeId], row: usize) -> f64 {
        let sig = self.row_sig(row);
        let mut sum = 0.0;
        let mut streamed = 0u64;
        for (j, (&na, &nb)) in a.iter().zip(sig).enumerate() {
            sum += self.fused_cost(j, na.0, nb, &mut streamed);
        }
        if streamed > 0 {
            kanon_obs::count(kanon_obs::Counter::SignatureBytesStreamed, streamed);
        }
        sum / self.num_attrs() as f64
    }

    /// Pairwise record cost `d({R_i, R_j})` — the edge weight used by
    /// Algorithm 3 and the forest baseline. Streams the two flattened
    /// row signatures with one fused probe per attribute.
    pub fn pair_cost(&self, i: usize, j: usize) -> f64 {
        kanon_obs::count(kanon_obs::Counter::PairCostEvals, 1);
        let (si, sj) = (self.row_sig(i), self.row_sig(j));
        let mut sum = 0.0;
        let mut streamed = 0u64;
        for (a, (&na, &nb)) in si.iter().zip(sj).enumerate() {
            sum += self.fused_cost(a, na, nb, &mut streamed);
        }
        if streamed > 0 {
            kanon_obs::count(kanon_obs::Counter::SignatureBytesStreamed, streamed);
        }
        sum / self.num_attrs() as f64
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
