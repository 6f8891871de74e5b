//! The one **top-down splitter** (LeFevre-style, on the paper's laminar
//! hierarchies), driven through a small [`SplitPolicy`] by the Mondrian
//! ablation ([`crate::mondrian`]) and the shard partitioner
//! ([`crate::shard`]).
//!
//! A LIFO queue starts from the whole table. A cluster the policy calls
//! final is output; otherwise the policy's fail point fires, the budget
//! is checkpointed, and per attribute the cluster is grouped by the
//! children of its closure node, the groups are packed into two balanced
//! bins, and the policy scores (or refuses) that split. The lowest score,
//! first attribute on ties, replaces the cluster (left, then right); a
//! cluster with no acceptable split is final. A tripped budget outputs
//! the cluster in hand and the whole queue as they stand.
//!
//! Rooted cells (`--on-bad-row root` placeholders, see
//! `IngestReport::rooted_cells` in kanon-data) hold the hierarchy root,
//! not their stored leaf: they lift their attribute's closure to the
//! root, and an attribute whose closure node *is* some member's value is
//! unsplittable for that cluster. Cells outside the table are a typed
//! [`CoreError`].

use crate::cost::CostContext;
use crate::fallible::Budget;
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::{Hierarchy, NodeId};
use kanon_core::table::Table;
use kanon_measures::NodeCostTable;

/// A client's rules: when a cluster is final, and how to score a split.
pub(crate) trait SplitPolicy {
    /// Fail point fired once per split attempt. Must be a string literal:
    /// kanon-lint resolves `P::SPLIT_POINT` by this constant's name.
    const SPLIT_POINT: &'static str;
    /// A split's score; the lowest wins.
    type Score: PartialOrd;

    /// Whether a cluster of `len` rows is output without a split attempt.
    fn is_final(&self, len: usize) -> bool;

    /// Scores splitting `members` (closure `closure`) into `left` and
    /// `right`; `None` refuses the split.
    fn score(
        &self,
        splitter: &Splitter<'_>,
        members: &[u32],
        closure: &[NodeId],
        left: &[u32],
        right: &[u32],
    ) -> Option<Self::Score>;

    /// Called per split taken, with the number of child groups packed.
    fn on_split(&self, _groups_packed: usize) {}
}

/// The splitter over one table: its cost context and rooted cells.
pub(crate) struct Splitter<'a> {
    ctx: CostContext<'a>,
    rooted: RootedCells,
}

impl<'a> Splitter<'a> {
    /// Validates the rooted cells, then builds the cost context.
    pub(crate) fn new(
        table: &'a Table,
        costs: &'a NodeCostTable,
        rooted_cells: &[(usize, usize)],
    ) -> Result<Self> {
        let rooted = RootedCells::new(table.num_rows(), table.num_attrs(), rooted_cells)?;
        Ok(Splitter {
            ctx: CostContext::new(table, costs),
            rooted,
        })
    }

    /// The cost context the splitter works in.
    pub(crate) fn ctx(&self) -> &CostContext<'a> {
        &self.ctx
    }

    /// Cluster closure with every attribute holding a rooted member cell
    /// lifted to the root.
    pub(crate) fn closure(&self, members: &[u32]) -> Vec<NodeId> {
        let mut nodes = self.ctx.closure_of(members);
        if !self.rooted.is_empty() {
            for &row in members {
                for j in self.rooted.attrs_of(row) {
                    nodes[j] = self.ctx.table.schema().attr(j).hierarchy().root();
                }
            }
        }
        nodes
    }

    /// Splits the whole table top-down under `policy` and returns the
    /// final clusters in the order they left the queue.
    pub(crate) fn run<P: SplitPolicy>(
        &self,
        policy: &P,
        budget: &mut Budget,
    ) -> Result<Vec<Vec<u32>>> {
        let schema = self.ctx.table.schema();
        let mut queue: Vec<Vec<u32>> = vec![(0..self.ctx.num_rows() as u32).collect()];
        let mut done: Vec<Vec<u32>> = Vec::new();
        while let Some(members) = queue.pop() {
            if policy.is_final(members.len()) {
                done.push(members);
                continue;
            }
            kanon_fault::fail_point!(P::SPLIT_POINT);
            if budget.tripped() {
                done.push(members);
                done.append(&mut queue);
                break;
            }
            let closure = self.closure(&members);
            let mut best: Option<(P::Score, usize, Bins)> = None;
            for (j, &node) in closure.iter().enumerate() {
                let h = schema.attr(j).hierarchy();
                let children = h.children(node);
                if children.len() < 2 {
                    continue;
                }
                let Some(groups) = self.group_by_child(h, j, node, children, &members)? else {
                    continue;
                };
                let (left, right) = pack_two_bins(&groups);
                let Some(score) = policy.score(self, &members, &closure, &left, &right) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                    best = Some((score, groups.len(), (left, right)));
                }
            }
            match best {
                Some((_, packed, (left, right))) => {
                    policy.on_split(packed);
                    queue.push(left);
                    queue.push(right);
                }
                None => done.push(members),
            }
        }
        Ok(done)
    }

    /// Partitions `members` by the child of `node` covering each member's
    /// effective value at attribute `j`.
    ///
    /// `Ok(None)`: unsplittable here, some member's effective node *is*
    /// `node` (a rooted cell). `Err`: a value escapes `node`, which no
    /// closure computed here can produce — inconsistent input.
    fn group_by_child(
        &self,
        h: &Hierarchy,
        j: usize,
        node: NodeId,
        children: &[NodeId],
        members: &[u32],
    ) -> Result<Option<Vec<Vec<u32>>>> {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); children.len()];
        for &row in members {
            let eff = if self.rooted.is_rooted(row, j) {
                h.root()
            } else {
                h.leaf(self.ctx.table.row(row as usize).get(j))
            };
            if eff == node {
                return Ok(None);
            }
            match children.iter().position(|&c| h.is_ancestor_or_eq(c, eff)) {
                Some(ci) => groups[ci].push(row),
                None => {
                    return Err(CoreError::InconsistentInput(format!(
                        "row {row}, attribute {j}: value lies outside its cluster's closure node"
                    )))
                }
            }
        }
        Ok(Some(groups))
    }
}

/// The two sides of a candidate split: left bin, right bin.
type Bins = (Vec<u32>, Vec<u32>);

/// Greedy balanced packing of child groups into two bins (largest group
/// first, always into the currently smaller bin). Deterministic: ties go
/// to the left bin, and the group order is the stable child order.
fn pack_two_bins(groups: &[Vec<u32>]) -> Bins {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
    let (mut left, mut right): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for g in order {
        if left.len() <= right.len() {
            left.extend_from_slice(&groups[g]);
        } else {
            right.extend_from_slice(&groups[g]);
        }
    }
    (left, right)
}

/// Validated, sorted `(row, attr)` set of rooted cells.
#[derive(Debug, Clone, Default)]
struct RootedCells {
    cells: Vec<(u32, u32)>,
}

impl RootedCells {
    /// Validates and indexes the raw `(row, attr)` pairs of an ingest
    /// report; out-of-range entries are typed errors.
    fn new(n: usize, num_attrs: usize, cells: &[(usize, usize)]) -> Result<Self> {
        let mut v = Vec::with_capacity(cells.len());
        for &(row, attr) in cells {
            if row >= n {
                return Err(CoreError::InconsistentInput(format!(
                    "rooted cell (row {row}, attr {attr}) is outside a table of {n} rows"
                )));
            }
            if attr >= num_attrs {
                return Err(CoreError::AttrOutOfRange { attr, num_attrs });
            }
            v.push((row as u32, attr as u32));
        }
        v.sort_unstable();
        v.dedup();
        Ok(RootedCells { cells: v })
    }

    /// True when no cell is rooted.
    fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether `(row, attr)` is rooted.
    fn is_rooted(&self, row: u32, attr: usize) -> bool {
        self.cells.binary_search(&(row, attr as u32)).is_ok()
    }

    /// The attributes rooted for `row`, ascending.
    fn attrs_of(&self, row: u32) -> impl Iterator<Item = usize> + '_ {
        let lo = self.cells.partition_point(|&(r, _)| r < row);
        self.cells[lo..]
            .iter()
            .take_while(move |&&(r, _)| r == row)
            .map(|&(_, a)| a as usize)
    }
}
