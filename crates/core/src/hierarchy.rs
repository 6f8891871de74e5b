//! Generalization hierarchies: the collections `A_j ⊆ P(A_j)` of Def. 3.1.
//!
//! The paper allows each attribute a collection of *permissible generalized
//! subsets*. Every collection used in the paper (the explicit ART spec of
//! Sec. VI as well as the "semantically close" groupings for Adult and CMC)
//! is **laminar**: any two permissible subsets are either disjoint or
//! nested. A laminar family containing all singletons and the full domain
//! compiles into a tree — the familiar *domain generalization hierarchy* —
//! in which
//!
//! * leaves are the singletons `{a}` (no generalization),
//! * the root is the full domain `A_j` (total suppression),
//! * the **closure** of a set of values (the minimal permissible subset
//!   containing them, used by every algorithm in Sec. V) is the lowest
//!   common ancestor of their leaves.
//!
//! [`Hierarchy::from_subsets`] validates laminarity and rejects anything
//! else with a precise error; convenience builders cover the common shapes
//! (suppression-only, interval ladders for numeric attributes, level-wise
//! groupings).

use crate::domain::ValueId;
use crate::error::{CoreError, Result};
use std::fmt;

/// Index of a node within a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One permissible generalized subset, compiled into tree form.
#[derive(Debug, Clone)]
struct Node {
    /// Ground values covered by this node, sorted ascending.
    values: Vec<ValueId>,
    /// Parent in the laminar tree (`None` for the root).
    parent: Option<NodeId>,
    /// Children in the laminar tree.
    children: Vec<NodeId>,
    /// Distance from the root (root = 0).
    depth: u32,
    /// Height of the subtree rooted here (leaves = 0). This is the node's
    /// *generalization level* used by the tree measure.
    height: u32,
}

/// A compiled generalization hierarchy for one attribute.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    nodes: Vec<Node>,
    /// `leaf[v]` is the node id of the singleton `{v}`.
    leaf: Vec<NodeId>,
    root: NodeId,
    domain_size: usize,
    /// Dense LCA lookup (`join_table[a * num_nodes + b]`), precomputed for
    /// hierarchies up to [`JOIN_TABLE_LIMIT`] nodes. Joins are the hottest
    /// operation of every anonymization algorithm; a flat table turns the
    /// parent-pointer walk into one load.
    join_table: Option<Vec<u32>>,
}

/// Node budget for the dense join table: hierarchies with at most this
/// many nodes precompute it (memory: `limit²` × 4 bytes = 1 MiB worst
/// case per attribute). Override per schema with
/// [`crate::schema::Schema::with_join_table_budget`] (`0` drops the
/// tables).
pub const JOIN_TABLE_LIMIT: usize = 512;

impl Hierarchy {
    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// Suppression-only hierarchy: singletons plus the full domain.
    ///
    /// This is the model of Meyerson & Williams — an entry is either kept
    /// or fully suppressed.
    pub fn flat(domain_size: usize) -> Result<Self> {
        Self::from_subsets(domain_size, &[])
    }

    /// Builds a hierarchy from an arbitrary collection of permissible
    /// subsets (value-id lists). Singletons and the full domain are added
    /// automatically, exactly as in the paper's ART specification ("all of
    /// those collections include all singleton subsets as well as the
    /// entire set").
    ///
    /// Fails with [`CoreError::NotLaminar`] if two subsets overlap without
    /// nesting, [`CoreError::EmptySubset`] on empty subsets, and
    /// [`CoreError::ValueOutOfRange`] on out-of-domain values.
    pub fn from_subsets(domain_size: usize, subsets: &[Vec<ValueId>]) -> Result<Self> {
        if domain_size == 0 {
            return Err(CoreError::EmptyDomain);
        }
        // Normalize: sort + dedup each subset, validate ranges.
        let mut sets: Vec<Vec<ValueId>> = Vec::with_capacity(subsets.len() + domain_size + 1);
        for s in subsets {
            if s.is_empty() {
                return Err(CoreError::EmptySubset);
            }
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            for &v in &s {
                if v.index() >= domain_size {
                    return Err(CoreError::ValueOutOfRange {
                        value: v.0,
                        domain_size: domain_size as u32,
                    });
                }
            }
            sets.push(s);
        }
        // Add singletons and the full domain.
        for v in 0..domain_size as u32 {
            sets.push(vec![ValueId(v)]);
        }
        sets.push((0..domain_size as u32).map(ValueId).collect());

        // Dedup whole subsets.
        sets.sort();
        sets.dedup();
        // Order by decreasing size so parents precede children.
        sets.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));

        // Laminarity check + parent assignment. The minimal strict superset
        // among earlier (larger-or-equal-size) sets is the parent.
        let n = sets.len();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for i in 1..n {
            let mut best: Option<usize> = None;
            for j in 0..i {
                if sets[j].len() <= sets[i].len() {
                    // Same size but distinct ⇒ cannot nest; overlap check below.
                    if intersects(&sets[j], &sets[i]) {
                        return Err(CoreError::NotLaminar {
                            a: fmt_set(&sets[j]),
                            b: fmt_set(&sets[i]),
                        });
                    }
                    continue;
                }
                if is_subset(&sets[i], &sets[j]) {
                    match best {
                        None => best = Some(j),
                        Some(b) if sets[j].len() < sets[b].len() => best = Some(j),
                        _ => {}
                    }
                } else if intersects(&sets[j], &sets[i]) {
                    return Err(CoreError::NotLaminar {
                        a: fmt_set(&sets[j]),
                        b: fmt_set(&sets[i]),
                    });
                }
            }
            // The full domain is always present, so every non-root set has
            // a strict superset.
            // kanon-lint: allow(L006) the full domain is a strict superset of every other node
            parent[i] = Some(best.expect("full domain guarantees a parent"));
        }

        let mut nodes: Vec<Node> = sets
            .iter()
            .enumerate()
            .map(|(i, s)| Node {
                values: s.clone(),
                parent: parent[i].map(|p| NodeId(p as u32)),
                children: Vec::new(),
                depth: 0,
                height: 0,
            })
            .collect();
        #[allow(clippy::needless_range_loop)] // i indexes parent and names the node
        for i in 1..n {
            // kanon-lint: allow(L006) parent was assigned for every non-root just above
            let p = parent[i].unwrap();
            nodes[p].children.push(NodeId(i as u32));
        }
        // Depths: parents precede children in `sets` order (strictly larger),
        // so a forward pass suffices.
        #[allow(clippy::needless_range_loop)] // i indexes two arrays
        for i in 1..n {
            // kanon-lint: allow(L006) parent was assigned for every non-root just above
            let p = parent[i].unwrap();
            nodes[i].depth = nodes[p].depth + 1;
        }
        // Heights: children have larger indices, so a backward pass suffices.
        for i in (0..n).rev() {
            let h = nodes[i]
                .children
                .iter()
                .map(|c| nodes[c.index()].height + 1)
                .max()
                .unwrap_or(0);
            nodes[i].height = h;
        }

        let mut leaf = vec![NodeId(0); domain_size];
        for (i, node) in nodes.iter().enumerate() {
            if node.values.len() == 1 {
                leaf[node.values[0].index()] = NodeId(i as u32);
            }
        }

        let mut h = Hierarchy {
            nodes,
            leaf,
            root: NodeId(0),
            domain_size,
            join_table: None,
        };
        h.rebuild_join_table(JOIN_TABLE_LIMIT);
        Ok(h)
    }

    /// (Re)builds or drops the dense join table against a node budget:
    /// hierarchies with more than `budget` nodes fall back to the
    /// parent-pointer climb. Joins are identical either way — the table is
    /// precomputed *from* the climb — so this is purely a memory/speed
    /// trade-off.
    pub(crate) fn rebuild_join_table(&mut self, budget: usize) {
        let m = self.nodes.len();
        if m > budget {
            self.join_table = None;
            return;
        }
        let mut table = vec![0u32; m * m];
        for a in 0..m {
            for b in a..m {
                let j = self.join_uncached(NodeId(a as u32), NodeId(b as u32)).0;
                table[a * m + b] = j;
                table[b * m + a] = j;
            }
        }
        self.join_table = Some(table);
    }

    /// Is the dense join table materialized?
    #[inline]
    pub fn has_join_table(&self) -> bool {
        self.join_table.is_some()
    }

    /// Interval ladder for ordered (numeric) domains: level `l` partitions
    /// the domain `0..size` into blocks of `widths[l]` consecutive values
    /// (the last block may be shorter). Widths must be strictly increasing
    /// and each must be a multiple of the previous one so the levels nest.
    ///
    /// `Hierarchy::intervals(100, &[5, 10, 20])` models the paper's
    /// `age`-style generalizations `34 → {30..39} → {20..49} → *`.
    pub fn intervals(domain_size: usize, widths: &[usize]) -> Result<Self> {
        let mut prev = 1usize;
        for &w in widths {
            if w <= prev {
                return Err(CoreError::BadIntervalWidths(format!(
                    "width {w} does not strictly increase over {prev}"
                )));
            }
            if w % prev != 0 {
                return Err(CoreError::BadIntervalWidths(format!(
                    "width {w} is not a multiple of the previous width {prev}"
                )));
            }
            prev = w;
        }
        let mut subsets = Vec::new();
        for &w in widths {
            if w >= domain_size {
                continue; // would duplicate the root
            }
            let mut start = 0;
            while start < domain_size {
                let end = (start + w).min(domain_size);
                if end - start > 1 {
                    subsets.push((start as u32..end as u32).map(ValueId).collect());
                }
                start = end;
            }
        }
        Self::from_subsets(domain_size, &subsets)
    }

    /// Builds a hierarchy from named grouping levels: each level is a list
    /// of groups (value-id lists) that will become internal nodes. Levels
    /// need not partition the domain; ungrouped values attach to the root.
    /// This is the shape of the "semantically close" groupings used for the
    /// Adult and CMC schemas.
    pub fn from_groups(domain_size: usize, levels: &[Vec<Vec<ValueId>>]) -> Result<Self> {
        let mut subsets = Vec::new();
        for level in levels {
            for g in level {
                subsets.push(g.clone());
            }
        }
        Self::from_subsets(domain_size, &subsets)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of compiled nodes (permissible subsets).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Size of the underlying ground domain.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// The root node (the full domain / total suppression).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The leaf node for a ground value (its singleton subset).
    #[inline]
    pub fn leaf(&self, v: ValueId) -> NodeId {
        self.leaf[v.index()]
    }

    /// Ground values covered by a node, sorted ascending.
    #[inline]
    pub fn values(&self, n: NodeId) -> &[ValueId] {
        &self.nodes[n.index()].values
    }

    /// Number of ground values covered by a node (`|B|` in Eq. 4).
    #[inline]
    pub fn node_size(&self, n: NodeId) -> usize {
        self.nodes[n.index()].values.len()
    }

    /// Parent of a node, `None` for the root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].children
    }

    /// Distance of a node from the root (root = 0).
    #[inline]
    pub fn depth(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].depth
    }

    /// Height of the subtree under a node (leaves = 0); the node's
    /// generalization level for the tree measure.
    #[inline]
    pub fn level(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].height
    }

    /// Height of the whole hierarchy (= level of the root).
    #[inline]
    pub fn height(&self) -> u32 {
        self.nodes[self.root.index()].height
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Checked conversion of a raw index into a [`NodeId`] of this
    /// hierarchy.
    pub fn node_from_index(&self, idx: usize) -> Result<NodeId> {
        if idx < self.nodes.len() {
            Ok(NodeId(idx as u32))
        } else {
            Err(CoreError::NodeOutOfRange {
                node: idx as u32,
                num_nodes: self.nodes.len() as u32,
            })
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Does node `a` generalize (equal or strictly contain) node `b`?
    /// Equivalent to `values(b) ⊆ values(a)` thanks to laminarity.
    pub fn is_ancestor_or_eq(&self, a: NodeId, b: NodeId) -> bool {
        let da = self.depth(a);
        let mut cur = b;
        let mut dc = self.depth(b);
        while dc > da {
            // kanon-lint: allow(L006) depth > 0 implies a parent
            cur = self.parent(cur).expect("depth > 0 implies parent");
            dc -= 1;
        }
        cur == a
    }

    /// Does the generalized subset `n` contain the ground value `v`
    /// (the per-attribute half of Def. 3.3 consistency)?
    #[inline]
    pub fn contains(&self, n: NodeId, v: ValueId) -> bool {
        self.is_ancestor_or_eq(n, self.leaf(v))
    }

    /// Lowest common ancestor of two nodes — the **join** `B ∨ B'`: the
    /// minimal permissible subset containing both. This implements the
    /// record-join operator `R̄ + R̄'` of Sec. V-B.2, per attribute.
    #[inline]
    pub fn join(&self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(table) = &self.join_table {
            return NodeId(table[a.index() * self.nodes.len() + b.index()]);
        }
        self.join_uncached(a, b)
    }

    /// LCA by parent-pointer walk — the fallback for hierarchies over the
    /// join-table budget and the generator of the precomputed table.
    /// Public so benches can compare the climb against the O(1) lookup.
    pub fn join_uncached(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        let (mut da, mut db) = (self.depth(a), self.depth(b));
        while da > db {
            a = self.parent(a).unwrap(); // kanon-lint: allow(L006) depth > 0 implies a parent
            da -= 1;
        }
        while db > da {
            b = self.parent(b).unwrap(); // kanon-lint: allow(L006) depth > 0 implies a parent
            db -= 1;
        }
        while a != b {
            // kanon-lint: allow(L006) the LCA walk stays below the root
            a = self.parent(a).unwrap();
            // kanon-lint: allow(L006) the LCA walk stays below the root
            b = self.parent(b).unwrap();
        }
        a
    }

    /// Closure of a set of ground values: the minimal permissible subset
    /// containing all of them (LCA of their leaves). Returns `None` for an
    /// empty iterator.
    pub fn closure<I: IntoIterator<Item = ValueId>>(&self, values: I) -> Option<NodeId> {
        let mut it = values.into_iter();
        let first = it.next()?;
        let mut acc = self.leaf(first);
        for v in it {
            acc = self.join(acc, self.leaf(v));
        }
        Some(acc)
    }

    /// Finds the node representing exactly the given value set, if that set
    /// is permissible. Used by loaders that read generalized tables back in.
    pub fn node_of_exact_set(&self, values: &[ValueId]) -> Option<NodeId> {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let cand = self.closure(sorted.iter().copied())?;
        if self.values(cand) == sorted.as_slice() {
            Some(cand)
        } else {
            None
        }
    }

    /// Formats a node against a label function, e.g. `{30,31,…,39}` or a
    /// single label for leaves.
    pub fn format_node<'a, F>(&self, n: NodeId, label: F) -> String
    where
        F: Fn(ValueId) -> &'a str,
    {
        let vs = self.values(n);
        if vs.len() == 1 {
            label(vs[0]).to_string()
        } else if vs.len() == self.domain_size {
            "*".to_string()
        } else {
            let mut s = String::from("{");
            for (i, &v) in vs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(label(v));
            }
            s.push('}');
            s
        }
    }
}

#[inline]
fn is_subset(inner: &[ValueId], outer: &[ValueId]) -> bool {
    // Both sorted; standard merge scan.
    let mut j = 0;
    for &v in inner {
        while j < outer.len() && outer[j] < v {
            j += 1;
        }
        if j == outer.len() || outer[j] != v {
            return false;
        }
        j += 1;
    }
    true
}

#[inline]
fn intersects(a: &[ValueId], b: &[ValueId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

fn fmt_set(s: &[ValueId]) -> String {
    let items: Vec<String> = s.iter().map(|v| v.0.to_string()).collect();
    format!("{{{}}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }

    #[test]
    fn flat_hierarchy_shape() {
        let h = Hierarchy::flat(4).unwrap();
        assert_eq!(h.num_nodes(), 5); // root + 4 singletons
        assert_eq!(h.node_size(h.root()), 4);
        assert_eq!(h.height(), 1);
        for i in 0..4 {
            let l = h.leaf(v(i));
            assert_eq!(h.node_size(l), 1);
            assert_eq!(h.parent(l), Some(h.root()));
        }
    }

    #[test]
    fn art_a5_hierarchy() {
        // The paper's A5: 10 values; {a1,a2},{a3,a4},{a6,a7},{a8,a9},
        // {a1..a5},{a6..a10}.
        let subs = vec![
            vec![v(0), v(1)],
            vec![v(2), v(3)],
            vec![v(5), v(6)],
            vec![v(7), v(8)],
            vec![v(0), v(1), v(2), v(3), v(4)],
            vec![v(5), v(6), v(7), v(8), v(9)],
        ];
        let h = Hierarchy::from_subsets(10, &subs).unwrap();
        // root + 2 halves + 4 pairs + 10 singletons
        assert_eq!(h.num_nodes(), 17);
        // Closure of {a1, a3} is {a1..a5}.
        let c = h.closure([v(0), v(2)]).unwrap();
        assert_eq!(h.node_size(c), 5);
        // Closure of {a1, a10} is the root.
        let c = h.closure([v(0), v(9)]).unwrap();
        assert_eq!(c, h.root());
        // Closure of {a1, a2} is the pair itself.
        let c = h.closure([v(0), v(1)]).unwrap();
        assert_eq!(h.values(c), &[v(0), v(1)]);
    }

    #[test]
    fn rejects_non_laminar() {
        let subs = vec![vec![v(0), v(1)], vec![v(1), v(2)]];
        match Hierarchy::from_subsets(3, &subs).unwrap_err() {
            CoreError::NotLaminar { .. } => {}
            other => panic!("expected NotLaminar, got {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_value() {
        let subs = vec![vec![v(0), v(5)]];
        assert!(matches!(
            Hierarchy::from_subsets(3, &subs).unwrap_err(),
            CoreError::ValueOutOfRange { .. }
        ));
    }

    #[test]
    fn duplicate_subsets_are_merged() {
        let subs = vec![vec![v(0), v(1)], vec![v(1), v(0)]];
        let h = Hierarchy::from_subsets(3, &subs).unwrap();
        assert_eq!(h.num_nodes(), 5); // root + pair + 3 singletons
    }

    #[test]
    fn join_and_ancestry() {
        let subs = vec![vec![v(0), v(1)], vec![v(2), v(3)]];
        let h = Hierarchy::from_subsets(4, &subs).unwrap();
        let l0 = h.leaf(v(0));
        let l1 = h.leaf(v(1));
        let l2 = h.leaf(v(2));
        let pair01 = h.join(l0, l1);
        assert_eq!(h.values(pair01), &[v(0), v(1)]);
        assert_eq!(h.join(l0, l2), h.root());
        assert!(h.is_ancestor_or_eq(pair01, l0));
        assert!(!h.is_ancestor_or_eq(pair01, l2));
        assert!(h.is_ancestor_or_eq(h.root(), pair01));
        assert!(h.is_ancestor_or_eq(l0, l0));
        assert!(h.contains(pair01, v(1)));
        assert!(!h.contains(pair01, v(2)));
    }

    #[test]
    fn join_is_idempotent_commutative() {
        let subs = vec![vec![v(0), v(1)], vec![v(0), v(1), v(2)]];
        let h = Hierarchy::from_subsets(4, &subs).unwrap();
        for a in h.node_ids() {
            assert_eq!(h.join(a, a), a);
            for b in h.node_ids() {
                assert_eq!(h.join(a, b), h.join(b, a));
            }
        }
    }

    #[test]
    fn intervals_ladder() {
        let h = Hierarchy::intervals(20, &[5, 10]).unwrap();
        // levels: 4 blocks of 5, 2 blocks of 10, root, 20 singletons
        assert_eq!(h.num_nodes(), 20 + 4 + 2 + 1);
        let c = h.closure([v(0), v(4)]).unwrap();
        assert_eq!(h.node_size(c), 5);
        let c = h.closure([v(0), v(7)]).unwrap();
        assert_eq!(h.node_size(c), 10);
        let c = h.closure([v(0), v(15)]).unwrap();
        assert_eq!(c, h.root());
    }

    #[test]
    fn intervals_with_ragged_tail() {
        let h = Hierarchy::intervals(7, &[3]).unwrap();
        // blocks {0,1,2},{3,4,5},{6} — the singleton tail is dropped
        // (it duplicates an existing leaf).
        let c = h.closure([v(3), v(5)]).unwrap();
        assert_eq!(h.node_size(c), 3);
        let c = h.closure([v(5), v(6)]).unwrap();
        assert_eq!(c, h.root());
    }

    #[test]
    fn intervals_reject_bad_widths() {
        assert!(Hierarchy::intervals(10, &[4, 6]).is_err()); // 6 % 4 != 0
        assert!(Hierarchy::intervals(10, &[5, 5]).is_err()); // not increasing
    }

    #[test]
    fn levels_and_heights() {
        let h = Hierarchy::intervals(20, &[5, 10]).unwrap();
        assert_eq!(h.height(), 3);
        assert_eq!(h.level(h.leaf(v(0))), 0);
        let five = h.closure([v(0), v(4)]).unwrap();
        assert_eq!(h.level(five), 1);
        assert_eq!(h.depth(five), 2);
    }

    #[test]
    fn from_groups_merges_levels() {
        // Two levels: fine pairs and a coarse half; ungrouped values
        // attach directly to the root.
        let levels = vec![
            vec![vec![v(0), v(1)], vec![v(2), v(3)]],
            vec![vec![v(0), v(1), v(2), v(3)]],
        ];
        let h = Hierarchy::from_groups(6, &levels).unwrap();
        // root + half + 2 pairs + 6 singletons
        assert_eq!(h.num_nodes(), 10);
        let c = h.closure([v(0), v(2)]).unwrap();
        assert_eq!(h.node_size(c), 4);
        let c = h.closure([v(0), v(4)]).unwrap();
        assert_eq!(c, h.root());
        // v4's singleton hangs off the root.
        assert_eq!(h.parent(h.leaf(v(4))), Some(h.root()));
    }

    #[test]
    fn join_table_agrees_with_walk() {
        // Force both code paths to exist by checking a hierarchy below the
        // table limit agrees with pairwise closure computations.
        let subs = vec![
            vec![v(0), v(1)],
            vec![v(2), v(3)],
            vec![v(0), v(1), v(2), v(3)],
        ];
        let h = Hierarchy::from_subsets(6, &subs).unwrap();
        for a in h.node_ids() {
            for b in h.node_ids() {
                let j = h.join(a, b);
                // The join must contain both operands' value sets.
                assert!(h.is_ancestor_or_eq(j, a));
                assert!(h.is_ancestor_or_eq(j, b));
                // And be minimal: no child of j contains both.
                for &c in h.children(j) {
                    assert!(
                        !(h.is_ancestor_or_eq(c, a) && h.is_ancestor_or_eq(c, b)),
                        "join not minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn join_table_budget_is_a_pure_speed_knob() {
        let subs = vec![
            vec![v(0), v(1)],
            vec![v(2), v(3)],
            vec![v(0), v(1), v(2), v(3)],
        ];
        let with_table = Hierarchy::from_subsets(6, &subs).unwrap();
        assert!(with_table.has_join_table());
        let mut climb_only = with_table.clone();
        climb_only.rebuild_join_table(0);
        assert!(!climb_only.has_join_table());
        for a in with_table.node_ids() {
            for b in with_table.node_ids() {
                assert_eq!(with_table.join(a, b), climb_only.join(a, b));
                assert_eq!(with_table.join(a, b), climb_only.join_uncached(a, b));
            }
        }
        // Restoring a generous budget rebuilds the table.
        let mut restored = climb_only;
        restored.rebuild_join_table(JOIN_TABLE_LIMIT);
        assert!(restored.has_join_table());
        assert_eq!(
            restored.join_table, with_table.join_table,
            "rebuilt table must be identical"
        );
    }

    #[test]
    fn node_id_displays() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn closure_of_empty_is_none() {
        let h = Hierarchy::flat(3).unwrap();
        assert_eq!(h.closure(std::iter::empty()), None);
    }

    #[test]
    fn node_of_exact_set() {
        let subs = vec![vec![v(0), v(1)]];
        let h = Hierarchy::from_subsets(4, &subs).unwrap();
        assert!(h.node_of_exact_set(&[v(0), v(1)]).is_some());
        assert!(h.node_of_exact_set(&[v(1), v(0)]).is_some());
        assert!(h.node_of_exact_set(&[v(0), v(2)]).is_none()); // not permissible
        let root = h.node_of_exact_set(&[v(0), v(1), v(2), v(3)]).unwrap();
        assert_eq!(root, h.root());
    }

    #[test]
    fn format_node_shapes() {
        let d_label = ["x", "y", "z"];
        let h = Hierarchy::from_subsets(3, &[vec![v(0), v(1)]]).unwrap();
        let lf = |vv: ValueId| d_label[vv.index()];
        assert_eq!(h.format_node(h.leaf(v(2)), lf), "z");
        let pair = h.closure([v(0), v(1)]).unwrap();
        assert_eq!(h.format_node(pair, lf), "{x,y}");
        assert_eq!(h.format_node(h.root(), lf), "*");
    }
}
