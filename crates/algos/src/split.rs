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
//! Every cell is read as its stored value, as everywhere else: a cell
//! patched under `--on-bad-row root` holds its fallback value and is
//! split on like any other.

use crate::cost::CostContext;
use crate::fallible::Budget;
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::{Hierarchy, NodeId};

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
        ctx: &CostContext<'_>,
        members: &[u32],
        closure: &[NodeId],
        left: &[u32],
        right: &[u32],
    ) -> Option<Self::Score>;

    /// Called per split taken, with the number of child groups packed.
    fn on_split(&self, _groups_packed: usize) {}
}

/// Splits the whole table of `ctx` top-down under `policy` and returns
/// the final clusters in the order they left the queue.
pub(crate) fn run<P: SplitPolicy>(
    ctx: &CostContext<'_>,
    policy: &P,
    budget: &mut Budget,
) -> Result<Vec<Vec<u32>>> {
    let schema = ctx.table.schema();
    let mut queue: Vec<Vec<u32>> = vec![(0..ctx.num_rows() as u32).collect()];
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
        let closure = ctx.closure_of(&members);
        let mut best: Option<(P::Score, usize, Bins)> = None;
        for (j, &node) in closure.iter().enumerate() {
            let h = schema.attr(j).hierarchy();
            let children = h.children(node);
            if children.len() < 2 {
                continue;
            }
            let groups = group_by_child(ctx, h, j, children, &members)?;
            let (left, right) = pack_two_bins(&groups);
            let Some(score) = policy.score(ctx, &members, &closure, &left, &right) else {
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

/// Partitions `members` by the child (of their closure node at attribute
/// `j`) covering each member's leaf. The node has ≥ 2 children, so it is
/// no leaf and each member's leaf lies under exactly one child; a leaf
/// under none is a typed error, not a panic.
fn group_by_child(
    ctx: &CostContext<'_>,
    h: &Hierarchy,
    j: usize,
    children: &[NodeId],
    members: &[u32],
) -> Result<Vec<Vec<u32>>> {
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); children.len()];
    for &row in members {
        let leaf = h.leaf(ctx.table.row(row as usize).get(j));
        match children.iter().position(|&c| h.is_ancestor_or_eq(c, leaf)) {
            Some(ci) => groups[ci].push(row),
            None => {
                return Err(CoreError::InconsistentInput(format!(
                    "row {row}, attribute {j}: value lies outside its cluster's closure node"
                )))
            }
        }
    }
    Ok(groups)
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
