//! Shared working context for the anonymization algorithms: closures as
//! per-attribute node vectors, incremental joins, and cluster costs
//! `d(S) = c(closure(S))` (Eq. 7) backed by a precomputed
//! [`NodeCostTable`].
//!
//! ## The fused signature kernel
//!
//! The hot read path of every algorithm is `cost(join(a, b))` per
//! attribute, evaluated O(n²) times. [`NodeCostTable::compute`] builds,
//! once per cost table, one fused join×cost table per attribute whose
//! hierarchy has at most [`kanon_measures::JOIN_TABLE_LIMIT`] nodes: one
//! interleaved `(node, cost)` entry per `(a, b)` pair, so a join and its
//! cost are one 16-byte probe. [`CostContext::new`] only borrows those
//! tables; attributes without one keep the hierarchy and its cost row and
//! climb parent pointers instead. This one kernel serves every join and
//! join cost of the crate: the cost entry points (`join_cost`,
//! `join_row_cost`, `pair_cost`) are thin calls into one fold over
//! attribute-wise node pairs, the engine's [`SlotScan`] sums the same
//! probes from one slot's hoisted table rows over a whole batch of
//! candidates (attribute-major: one pass over the batch per attribute,
//! so the candidates' sums are independent adds rather than one chain
//! of dependent loads each), and the materializing joins
//! read the node half of the same probe. Costs in the fused table are
//! bit-copied from the cost row and summed in ascending-attribute order,
//! so every result is bit-identical to [`NodeCostTable::nodes_cost`] of
//! the materialized join. Joins are symmetric (the entries at `(a, b)`
//! and `(b, a)` are the same node with the same cost bits), so a join
//! cost does not depend on the side a scan starts from.
//!
//! Work accounting: cost probes and the node-vector joins
//! (`join_nodes_into`, `covers_row`) count
//! [`kanon_obs::Counter::SignatureBytesStreamed`] (bytes, thread-count
//! invariant); row joins (`join_row_into`, `closure_of`) count one
//! `JoinTableHits` per probe; every climb counts one `ClimbFallbackHits`;
//! every `pair_cost` counts one `PairCostEvals`. Probes add to a
//! [`Tally`] rather than counting one by one. The scan entry points
//! ([`SlotScan::join_costs`] once per batch; [`CostContext::covers_row`],
//! [`CostContext::join_row_cost`] and [`CostContext::pair_cost`] once
//! per candidate) add to the caller's tally, which the caller flushes
//! once per scan; the others flush their own.
//!
//! Row leaf signatures are flattened once per context
//! ([`CostContext::new`], O(n·r)) into a contiguous `n × r` lane
//! (`row_sigs`), which turns `pair_cost`/`join_row_cost` leaf lookups
//! into array reads. The engine-side analogue for *clusters* is
//! [`SigArena`]: per-attribute `u32` node lanes indexed by engine slot,
//! scanned through a [`SlotScan`].

use kanon_core::hierarchy::{Hierarchy, NodeId};
use kanon_core::record::GeneralizedRecord;
use kanon_core::table::Table;
use kanon_measures::{JoinEntry, NodeCostTable};
use kanon_obs::Counter;
use std::sync::Arc;

/// Bytes one fused probe streams (the counter weight of
/// `SignatureBytesStreamed`).
const FUSED_PROBE_BYTES: u64 = std::mem::size_of::<JoinEntry>() as u64;

/// Per-attribute join/cost kernel.
enum AttrJoin<'a> {
    /// `entries[a * stride + b]` holds the join of nodes `a`, `b` and
    /// that join's cost, borrowed from the cost table.
    Fused {
        entries: &'a [JoinEntry],
        stride: usize,
    },
    /// The cost table has no fused table for this attribute (the
    /// hierarchy is over [`kanon_measures::JOIN_TABLE_LIMIT`] nodes, or
    /// the tables were dropped): joins climb parent pointers and read the
    /// cost row.
    Climb {
        hierarchy: &'a Hierarchy,
        cost_row: &'a [f64],
    },
}

impl<'a> AttrJoin<'a> {
    /// The kernel of attribute `j`: fused when the cost table carries its
    /// join×cost table. O(1).
    fn new(hierarchy: &'a Hierarchy, costs: &'a NodeCostTable, j: usize) -> Self {
        match costs.attr_joins(j) {
            Some(entries) => {
                let stride = hierarchy.num_nodes();
                assert_eq!(
                    entries.len(),
                    stride * stride,
                    "cost table and table disagree on the hierarchy of attribute {j}"
                );
                AttrJoin::Fused { entries, stride }
            }
            None => AttrJoin::Climb {
                hierarchy,
                cost_row: costs.attr_costs(j),
            },
        }
    }

    /// `join(a, b)` and its cost, the probe added to `tally`.
    #[inline]
    fn probe(&self, a: u32, b: u32, tally: &mut Tally) -> JoinEntry {
        match self {
            AttrJoin::Fused { entries, stride } => {
                tally.fused += 1;
                entries[a as usize * stride + b as usize]
            }
            AttrJoin::Climb {
                hierarchy,
                cost_row,
            } => {
                tally.climbs += 1;
                let node = hierarchy.join(NodeId(a), NodeId(b));
                JoinEntry {
                    node: node.0,
                    cost: cost_row[node.index()],
                }
            }
        }
    }
}

/// Kernel work done but not yet counted: the fused probes made, the
/// climbs made instead, and the record pairs priced. A hot loop threads
/// one tally through all its probes and flushes it once, so a scan of m
/// candidates costs the collector at most three counts instead of at
/// least m. The totals are the same sums, so counters stay exact; a
/// tally must be flushed before the next work-budget checkpoint for
/// every trip point to stay where it was.
#[derive(Debug, Default)]
pub struct Tally {
    fused: u64,
    climbs: u64,
    pairs: u64,
}

impl Tally {
    /// Counts the fused probes as `SignatureBytesStreamed` bytes, the
    /// climbs as `ClimbFallbackHits` and the pairs as `PairCostEvals`.
    pub fn flush(self) {
        if self.fused > 0 {
            let bytes = self.fused * FUSED_PROBE_BYTES;
            kanon_obs::count(Counter::SignatureBytesStreamed, bytes);
        }
        if self.pairs > 0 {
            kanon_obs::count(Counter::PairCostEvals, self.pairs);
        }
        self.flush_climbs();
    }

    fn flush_climbs(&self) {
        if self.climbs > 0 {
            kanon_obs::count(Counter::ClimbFallbackHits, self.climbs);
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

/// One attribute of a [`SlotScan`]: the scanned slot's row of the fused
/// table, or its node and the kernel to climb from.
enum ScanAttr<'s> {
    Row(&'s [JoinEntry]),
    Climb(&'s AttrJoin<'s>, u32),
}

/// A scan from one [`SigArena`] slot, built once per scan by
/// [`CostContext::slot_scan`]: per attribute, the fused table row of the
/// slot's node (or the node to climb from), plus the arena's lanes.
/// [`SlotScan::join_costs`] then prices a whole batch of candidates with
/// one indexed read per attribute and candidate, the row arithmetic and
/// the slot's own lane reads done once per scan.
pub struct SlotScan<'s> {
    attrs: Vec<ScanAttr<'s>>,
    lanes: &'s [Vec<u32>],
}

impl SlotScan<'_> {
    /// The costs of the joins of the scanned slot with each slot of
    /// `others`, written to `out` (of the same length), their probes
    /// added to `tally`. Attribute-major: one pass over the batch per
    /// attribute, in ascending attribute order, so the sums of different
    /// candidates are independent adds instead of one chain of dependent
    /// loads per candidate. Each candidate's sum still starts at `0.0` and
    /// takes the attributes in ascending order, so every cost is
    /// bit-identical to [`CostContext::join_cost`] of the two slots'
    /// signatures, in either order. O(r · len), allocation-free.
    pub fn join_costs(&self, others: &[usize], out: &mut [f64], tally: &mut Tally) {
        assert_eq!(others.len(), out.len(), "one cost per candidate");
        out.fill(0.0);
        for (attr, lane) in self.attrs.iter().zip(self.lanes) {
            match *attr {
                ScanAttr::Row(row) => {
                    tally.fused += others.len() as u64;
                    for (sum, &other) in out.iter_mut().zip(others) {
                        *sum += row[lane[other] as usize].cost;
                    }
                }
                ScanAttr::Climb(kernel, a) => {
                    for (sum, &other) in out.iter_mut().zip(others) {
                        *sum += kernel.probe(a, lane[other], tally).cost;
                    }
                }
            }
        }
        let r = self.attrs.len() as f64;
        for sum in out.iter_mut() {
            *sum /= r;
        }
    }
}

/// Borrowed bundle of everything the algorithms need to evaluate cluster
/// costs: the original table (for record values), its schema, and the
/// measure's node costs — plus one join/cost kernel per attribute that
/// turns the hot `cost(join(a, b))` pair into one probe, borrowed from
/// the cost table.
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
    /// Creates a context: O(n·r), flattening the row leaf signatures and
    /// borrowing the cost table's fused join×cost tables. The cost table
    /// must have been computed over a table with the same schema (same
    /// attribute count is asserted).
    pub fn new(table: &'a Table, costs: &'a NodeCostTable) -> Self {
        assert_eq!(
            table.num_attrs(),
            costs.num_attrs(),
            "cost table and table disagree on attribute count"
        );
        let schema = table.schema();
        let attrs: Arc<[AttrJoin<'a>]> = (0..schema.num_attrs())
            .map(|j| AttrJoin::new(schema.attr(j).hierarchy(), costs, j))
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

    /// The cost fold of the entry points: `c(join)` of two signatures
    /// given as their attribute-wise node pairs, summed in ascending
    /// attribute order, its probes added to `tally`.
    #[inline]
    fn fold_cost(&self, pairs: impl Iterator<Item = (u32, u32)>, tally: &mut Tally) -> f64 {
        let mut sum = 0.0;
        for (k, (a, b)) in self.attrs.iter().zip(pairs) {
            sum += k.probe(a, b, tally).cost;
        }
        sum / self.attrs.len() as f64
    }

    /// Joins row `row` into the closure `acc` in place.
    pub fn join_row_into(&self, acc: &mut [NodeId], row: usize) {
        let mut tally = Tally::default();
        for ((slot, k), &leaf) in acc.iter_mut().zip(self.attrs.iter()).zip(self.row_sig(row)) {
            *slot = NodeId(k.probe(slot.0, leaf, &mut tally).node);
        }
        // A materializing row join counts table hits, one per fused
        // probe, instead of bytes.
        kanon_obs::count(Counter::JoinTableHits, tally.fused);
        tally.flush_climbs();
    }

    /// Joins closure `other` into `acc` in place: one probe per
    /// attribute.
    pub fn join_nodes_into(&self, acc: &mut [NodeId], other: &[NodeId]) {
        let mut tally = Tally::default();
        for ((slot, k), o) in acc.iter_mut().zip(self.attrs.iter()).zip(other) {
            *slot = NodeId(k.probe(slot.0, o.0, &mut tally).node);
        }
        tally.flush();
    }

    /// Cost of a closure: `d(S) = c(closure(S))`.
    #[inline]
    pub fn cost(&self, nodes: &[NodeId]) -> f64 {
        self.costs.nodes_cost(nodes)
    }

    /// Cost of the join of two closures without materializing it.
    pub fn join_cost(&self, a: &[NodeId], b: &[NodeId]) -> f64 {
        let mut tally = Tally::default();
        let cost = self.fold_cost(a.iter().zip(b).map(|(x, y)| (x.0, y.0)), &mut tally);
        tally.flush();
        cost
    }

    /// The scan from `slot` of `arena`: the engine's packed distance
    /// path. The arena only changes *where* the signatures live
    /// (contiguous lanes instead of per-cluster vecs), so every join cost
    /// the scan returns is bit-identical to [`Self::join_cost`]. O(r).
    pub fn slot_scan<'s>(&'s self, arena: &'s SigArena, slot: usize) -> SlotScan<'s> {
        let attrs = self
            .attrs
            .iter()
            .zip(&arena.lanes)
            .map(|(kernel, lane)| {
                let a = lane[slot];
                match kernel {
                    AttrJoin::Fused { entries, stride } => {
                        ScanAttr::Row(&entries[a as usize * stride..][..*stride])
                    }
                    AttrJoin::Climb { .. } => ScanAttr::Climb(kernel, a),
                }
            })
            .collect();
        SlotScan {
            attrs,
            lanes: &arena.lanes,
        }
    }

    /// True when the closure `nodes` already covers row `row`: joining
    /// the row changes no attribute's node, so the cluster's closure and
    /// its cost stay bit-identical. Allocation-free; stops at the first
    /// attribute the row escapes. Its probes are added to `tally`.
    pub fn covers_row(&self, nodes: &[NodeId], row: usize, tally: &mut Tally) -> bool {
        self.attrs
            .iter()
            .zip(self.row_sig(row))
            .zip(nodes)
            .all(|((k, &leaf), node)| k.probe(node.0, leaf, tally).node == node.0)
    }

    /// Cost of the join of a closure with one row without materializing
    /// it, using the flattened row signature. Its probes are added to
    /// `tally`.
    pub fn join_row_cost(&self, a: &[NodeId], row: usize, tally: &mut Tally) -> f64 {
        self.fold_cost(
            a.iter().zip(self.row_sig(row)).map(|(x, &y)| (x.0, y)),
            tally,
        )
    }

    /// Pairwise record cost `d({R_i, R_j})` — the edge weight used by
    /// Algorithm 3 and the forest baseline. The pair and its probes are
    /// added to `tally`.
    pub fn pair_cost(&self, i: usize, j: usize, tally: &mut Tally) -> f64 {
        tally.pairs += 1;
        let (si, sj) = (self.row_sig(i), self.row_sig(j));
        self.fold_cost(si.iter().copied().zip(sj.iter().copied()), tally)
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
                let pair = |i, j| ctx.pair_cost(i, j, &mut Tally::default());
                assert_eq!(pair(i, j), pair(j, i));
                let closure = ctx.closure_of(&[i as u32, j as u32]);
                assert!((pair(i, j) - ctx.cost(&closure)).abs() < 1e-12);
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
        let cost_u = ctx.join_row_cost(&a, 2, &mut Tally::default());
        assert!((cost_u - ctx.cost(&ar)).abs() < 1e-12);
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
                    ctx.covers_row(&closure, row, &mut Tally::default()),
                    joined == closure,
                    "{rows:?} ∋ {row}"
                );
            }
        }
    }

    #[test]
    fn slot_scans_are_bit_identical_to_the_vec_path() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        let a = ctx.closure_of(&[0, 1]);
        let b = ctx.closure_of(&[2, 3]);
        let mut arena = SigArena::with_capacity(ctx.num_attrs(), 2);
        arena.store(0, &a, 2, ctx.cost(&a));
        arena.store(1, &b, 2, ctx.cost(&b));
        assert_eq!(arena.len(), 2);
        let scanned = |arena: &SigArena, from: usize, to: usize| {
            let mut out = [0.0];
            ctx.slot_scan(arena, from)
                .join_costs(&[to], &mut out, &mut Tally::default());
            out[0].to_bits()
        };
        for (from, to) in [(0, 1), (1, 0)] {
            assert_eq!(
                ctx.join_cost(&a, &b).to_bits(),
                scanned(&arena, from, to),
                "arena path must be bit-identical to the vec path"
            );
        }
        assert_eq!(arena.size(0), 2);
        assert_eq!(arena.cost(1).to_bits(), ctx.cost(&b).to_bits());
        // Overwrite semantics: re-storing a slot replaces its lanes.
        arena.store(0, &b, 2, ctx.cost(&b));
        assert_eq!(scanned(&arena, 0, 1), ctx.join_cost(&b, &b).to_bits());
    }

    #[test]
    fn batched_join_costs_are_bit_identical_and_count_every_probe() {
        // Batches over every slot of an arena, in both scan directions,
        // fused and climbing: each cost equals the vec path's bits, and a
        // batch tallies exactly r probes per candidate.
        let (t, fused) = setup_mixed();
        let climbing = fused.clone().without_join_tables();
        let sets: [&[u32]; 6] = [&[0], &[1, 5], &[0, 2], &[3, 4], &[2], &[0, 1, 2, 3]];
        let batches: [&[usize]; 6] = [
            &[],
            &[3],
            &[5, 0, 4, 0],
            &[2, 1],
            &[4, 3, 2, 1, 0, 5],
            &[1, 1],
        ];
        for (costs, fused_attrs) in [(&fused, 1u64), (&climbing, 0)] {
            let ctx = CostContext::new(&t, costs);
            let r = ctx.num_attrs() as u64;
            let closures: Vec<Vec<NodeId>> = sets.iter().map(|s| ctx.closure_of(s)).collect();
            let mut arena = SigArena::with_capacity(ctx.num_attrs(), sets.len());
            for (slot, (c, s)) in closures.iter().zip(&sets).enumerate() {
                arena.store(slot, c, s.len(), ctx.cost(c));
            }
            for from in 0..sets.len() {
                let scan = ctx.slot_scan(&arena, from);
                for &batch in &batches {
                    let mut out = vec![f64::NAN; batch.len()];
                    let mut tally = Tally::default();
                    scan.join_costs(batch, &mut out, &mut tally);
                    let len = batch.len() as u64;
                    assert_eq!(tally.fused, len * fused_attrs, "{from} {batch:?}");
                    assert_eq!(tally.climbs, len * (r - fused_attrs), "{from} {batch:?}");
                    assert_eq!(tally.pairs, 0);
                    for (&to, got) in batch.iter().zip(&out) {
                        for (a, b) in [(from, to), (to, from)] {
                            let want = ctx.join_cost(&closures[a], &closures[b]);
                            assert_eq!(got.to_bits(), want.to_bits(), "{from} → {to}");
                        }
                    }
                }
            }
        }
        // Fully fused and fully climbing contexts count r × len of one
        // kind, as the collector reads the flushed tally.
        let (t, fused) = setup();
        for (costs, has_tables) in [
            (&fused, true),
            (&fused.clone().without_join_tables(), false),
        ] {
            let ctx = CostContext::new(&t, costs);
            let r = ctx.num_attrs() as u64;
            let mut arena = SigArena::with_capacity(ctx.num_attrs(), t.num_rows());
            for row in 0..t.num_rows() {
                let leaf = ctx.leaf_nodes(row);
                arena.store(row, &leaf, 1, ctx.cost(&leaf));
            }
            let col = kanon_obs::Collector::new();
            let batch = [3, 1, 2];
            let mut out = [0.0; 3];
            {
                let _g = col.install();
                let mut tally = Tally::default();
                ctx.slot_scan(&arena, 0)
                    .join_costs(&batch, &mut out, &mut tally);
                tally.flush();
            }
            for (&to, got) in batch.iter().zip(&out) {
                let want = ctx.join_cost(&ctx.leaf_nodes(0), &ctx.leaf_nodes(to));
                assert_eq!(got.to_bits(), want.to_bits(), "0 → {to}");
            }
            let rep = col.report();
            let (bytes, climbs) = if has_tables {
                (3 * r * FUSED_PROBE_BYTES, 0)
            } else {
                (0, 3 * r)
            };
            assert_eq!(rep.counter(Counter::SignatureBytesStreamed), bytes);
            assert_eq!(rep.counter(Counter::ClimbFallbackHits), climbs);
        }
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
            let mut tally = Tally::default();
            ctx.pair_cost(0, 2, &mut tally);
            tally.flush();
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
        use kanon_core::schema::Attribute;
        use kanon_measures::JOIN_TABLE_LIMIT;
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
        assert!(s.attr(1).hierarchy().num_nodes() > JOIN_TABLE_LIMIT);
        let rows = [[0, 3], [1, 7], [0, 15], [2, 250], [3, 599], [1, 3]];
        let t = Table::new(
            Arc::clone(&s),
            rows.iter().map(|&r| Record::from_raw(r)).collect(),
        )
        .unwrap();
        let c = NodeCostTable::compute(&t, &LmMeasure);
        assert!(c.attr_joins(0).is_some());
        assert!(c.attr_joins(1).is_none());
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
                .map(|j| schema.attr(j).hierarchy().join(a[j], b[j]))
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
        // The scan forms count nothing until their tally is flushed.
        let tallied = |f: &mut dyn FnMut(&mut Tally)| -> [u64; 4] {
            let mut tally = Tally::default();
            assert_eq!(counted(&mut || f(&mut tally)), [0; 4]);
            counted(&mut || std::mem::take(&mut tally).flush())
        };

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
                for (from, to) in [(0, 1), (1, 0)] {
                    let scan = ctx.slot_scan(&arena, from);
                    let mut out = [0.0];
                    assert_eq!(
                        tallied(&mut |t| {
                            scan.join_costs(&[to], &mut out, t);
                            bits = out[0].to_bits()
                        }),
                        streamed
                    );
                    assert_eq!(bits, cost(&want), "slot_scan {sa:?} {sb:?} from {from}");
                }
                let mut acc = a.clone();
                assert_eq!(counted(&mut || ctx.join_nodes_into(&mut acc, &b)), streamed);
                assert_eq!(acc, want, "join_nodes_into {sa:?} {sb:?}");
            }
            for row in 0..t.num_rows() {
                let want = join(&a, &leaf(row));
                let mut bits = 0;
                assert_eq!(
                    tallied(&mut |t| bits = ctx.join_row_cost(&a, row, t).to_bits()),
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
                    tallied(&mut |t| covered = ctx.covers_row(&a, row, t)),
                    [16, 0, climbs, 0]
                );
                assert_eq!(covered, want == a, "covers_row {sa:?} {row}");
            }
        }
        for i in 0..t.num_rows() {
            for j in 0..t.num_rows() {
                let mut bits = 0;
                assert_eq!(
                    tallied(&mut |t| bits = ctx.pair_cost(i, j, t).to_bits()),
                    [16, 0, 1, 1]
                );
                assert_eq!(bits, cost(&join(&leaf(i), &leaf(j))), "pair_cost {i} {j}");
            }
        }
    }

    #[test]
    fn contexts_borrow_the_cost_tables_join_entries() {
        let (t, c) = setup();
        let sub = t.select_rows(&[2, 3]).unwrap();
        for ctx in [
            CostContext::new(&t, &c),
            CostContext::new(&t, &c),
            CostContext::new(&sub, &c),
        ] {
            for (j, k) in ctx.attrs.iter().enumerate() {
                let AttrJoin::Fused { entries, .. } = k else {
                    panic!("attribute {j} fits the node budget");
                };
                let own = c.attr_joins(j).unwrap();
                assert!(std::ptr::eq(*entries, own), "attribute {j}: table copied");
            }
        }
    }

    #[test]
    fn lm_pair_cost_values() {
        let (t, c) = setup();
        let ctx = CostContext::new(&t, &c);
        // Rows 0,1 share x=p and group {a,b}: LM = ((2−1)/3 + 0)/2 = 1/6.
        let pair = |i, j| ctx.pair_cost(i, j, &mut Tally::default());
        assert!((pair(0, 1) - 1.0 / 6.0).abs() < 1e-12);
        // Rows 0,2: attr c generalizes to root (3/3), x to root (1/1):
        // LM = (1 + 1)/2 = 1.
        assert!((pair(0, 2) - 1.0).abs() < 1e-12);
    }
}
