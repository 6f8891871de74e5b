//! The **forest algorithm** — the paper's comparison baseline (Sec. V,
//! Sec. VI), re-implemented from Aggarwal et al., *Anonymizing Tables*
//! (ICDT 2005) / *Approximation Algorithms for k-Anonymity* (JPT 2005).
//! It guarantees a 3(k−1)-approximation of optimal k-anonymity.
//!
//! Phase 1 builds a spanning forest in which every tree has at least `k`
//! vertices: while some component is smaller than `k`, it is joined to its
//! nearest other component via the minimum-weight outgoing edge (edge
//! weights are pairwise record costs `d({R_u, R_v})` under the active
//! measure, so the baseline competes under the same cost model as our
//! algorithms). We batch these merges Borůvka-style — each round scans all
//! pairs once and merges every small component along its best edge — which
//! produces the same forest family in O(log k) rounds of O(n²) work.
//!
//! Phase 2 splits every tree with more than `3k − 3` vertices into parts
//! of size in `[k, 3k−3]`: root the tree, find a deepest vertex `v` whose
//! subtree has ≥ k vertices (so each child subtree has ≤ k−1), and cut
//! either a group of `v`'s child subtrees totalling in `[k, 2k−2]`
//! (keeping `v`, so the remainder stays connected) or, when the children
//! total exactly `k−1`, the whole subtree of `v` (size exactly `k`). The
//! remainder keeps ≥ k vertices, so induction applies.
//!
//! The resulting components (≥ k vertices each) become clusters; records
//! are replaced by cluster closures as usual.

use crate::agglomerative::KAnonOutput;
use crate::cost::CostContext;
use crate::fallible::{Budget, Budgeted};
use kanon_core::error::Result;
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;

/// Union-find with path compression and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    fn component_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }
}

/// Forest-baseline implementation with budget-aware graceful degradation.
pub(crate) fn forest_impl(
    table: &Table,
    costs: &NodeCostTable,
    k: usize,
) -> Result<Budgeted<KAnonOutput>> {
    let n = table.num_rows();
    check_k(k, n)?;
    let _span = kanon_obs::span("forest");
    let ctx = CostContext::new(table, costs);
    let leaves = ctx.leaf_arena();

    if k == 1 {
        let singletons = (0..n as u32).map(|row| vec![row]).collect();
        return KAnonOutput::from_clusters(table, costs, singletons).map(Budgeted::Complete);
    }

    let mut budget = Budget::arm();

    // ---------------- Phase 1: grow a forest with trees ≥ k ----------------
    let mut uf = UnionFind::new(n);
    let mut tree_edges: Vec<(u32, u32)> = Vec::with_capacity(n - 1);

    loop {
        // Which components are still small?
        let mut small_any = false;
        for u in 0..n as u32 {
            if uf.component_size(u) < k as u32 {
                small_any = true;
                break;
            }
        }
        if !small_any {
            break;
        }
        kanon_fault::fail_point!("algos/forest/round");
        if budget.tripped() {
            // Graceful degradation: skip the remaining O(n²) best-edge
            // scans and chain each small component to the first vertex
            // outside it (smallest vertex first — deterministic), so
            // every tree reaches ≥ k vertices at O(n) cost per link. Edge
            // weights are ignored here, trading generalization quality
            // for bounded work; Phase 2 still yields a valid k-anonymous
            // clustering.
            loop {
                let mut small_u = None;
                for u in 0..n as u32 {
                    if uf.component_size(u) < k as u32 {
                        small_u = Some(u);
                        break;
                    }
                }
                let Some(u) = small_u else { break };
                let ru = uf.find(u);
                let mut other = None;
                for v in 0..n as u32 {
                    if uf.find(v) != ru {
                        other = Some(v);
                        break;
                    }
                }
                // A lone component always has n ≥ k vertices, so `other`
                // exists whenever a small component does; break defensively.
                let Some(v) = other else { break };
                uf.union(u, v);
                tree_edges.push((u.min(v), u.max(v)));
            }
            break;
        }
        kanon_obs::count(kanon_obs::Counter::ForestRounds, 1);
        // Snapshot component roots and smallness once per round so the
        // pair scan below is a pure read (find() path-compresses).
        let mut root_of = vec![0u32; n];
        for u in 0..n as u32 {
            root_of[u as usize] = uf.find(u);
        }
        let small_root: Vec<bool> = (0..n).map(|x| uf.size[x] < k as u32).collect();
        // Best outgoing edge per small component root:
        // best[root] = (weight, u, v). The `better` predicate is a strict
        // total order on (weight, (u, v)), so per-root argmins merge
        // identically in any order — which lets the O(n²) pair-cost scan
        // run as a parallel chunked fold with per-chunk best tables.
        let better = |w: f64, u: u32, v: u32, e: &Option<(f64, u32, u32)>| -> bool {
            match e {
                None => true,
                Some((bw, bu, bv)) => match w.total_cmp(bw) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => (u, v) < (*bu, *bv),
                    std::cmp::Ordering::Greater => false,
                },
            }
        };
        // Each row scan prices its edges in one batch and counts its pair
        // evaluations and probes once, at its end.
        let scan_row = |acc: &mut Vec<Option<(f64, u32, u32)>>, u: usize| {
            let ru = root_of[u];
            let small_u = small_root[ru as usize];
            let others: Vec<usize> = (u + 1..n)
                .filter(|&v| {
                    let rv = root_of[v];
                    ru != rv && (small_u || small_root[rv as usize])
                })
                .collect();
            let weights = ctx.slot_scan(&leaves, u).priced(&others, true);
            for (&v, &w) in others.iter().zip(&weights) {
                let rv = root_of[v];
                for root in [ru, rv] {
                    if !small_root[root as usize] {
                        continue;
                    }
                    let e = &mut acc[root as usize];
                    if better(w, u as u32, v as u32, e) {
                        *e = Some((w, u as u32, v as u32));
                    }
                }
            }
        };
        // Row u costs O(n − u) pair evaluations; pairing row s with row
        // n−1−s gives every fold index the same O(n) work, so contiguous
        // chunks stay balanced across workers.
        let half = n.div_ceil(2);
        let best: Vec<Option<(f64, u32, u32)>> = kanon_parallel::fold_chunks(
            half,
            || vec![None; n],
            |acc, s| {
                scan_row(acc, s);
                let mirror = n - 1 - s;
                if mirror != s {
                    scan_row(acc, mirror);
                }
            },
            |mut a, b| {
                for (ea, eb) in a.iter_mut().zip(b) {
                    if let Some((w, u, v)) = eb {
                        if better(w, u, v, ea) {
                            *ea = Some((w, u, v));
                        }
                    }
                }
                a
            },
        );
        // Merge every small component along its chosen edge.
        let mut merged_any = false;
        for entry in best.iter().take(n) {
            if let Some((_, u, v)) = *entry {
                if uf.union(u, v) {
                    tree_edges.push((u, v));
                    merged_any = true;
                }
            }
        }
        debug_assert!(merged_any, "every small component has an outgoing edge");
        if !merged_any {
            break; // defensive: avoid an infinite loop on degenerate input
        }
    }

    // ---------------- Phase 2: split oversized trees ----------------
    // Group vertices and adjacency per component.
    let mut comp_of = vec![0u32; n];
    for u in 0..n as u32 {
        comp_of[u as usize] = uf.find(u);
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(u, v) in &tree_edges {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    // BTreeMap: components are drained in sorted root order, so cluster
    // numbering is a pure function of the input (L001 discipline).
    let mut comp_members: std::collections::BTreeMap<u32, Vec<u32>> =
        std::collections::BTreeMap::new();
    for u in 0..n as u32 {
        comp_members.entry(comp_of[u as usize]).or_default().push(u);
    }

    let max_size = 3 * k - 3;
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    for (_, members) in comp_members {
        split_tree(members, &adj, k, max_size, &mut clusters);
    }

    Ok(budget.finish(KAnonOutput::from_clusters(table, costs, clusters)?))
}

/// Recursively splits a tree (given by its member list and the global
/// adjacency) into clusters of size in `[k, max_size]`.
fn split_tree(
    mut members: Vec<u32>,
    adj: &[Vec<u32>],
    k: usize,
    max_size: usize,
    out: &mut Vec<Vec<u32>>,
) {
    loop {
        if members.len() <= max_size {
            debug_assert!(members.len() >= k);
            out.push(members);
            return;
        }
        // Root the tree at its first member and compute parents, orders
        // and subtree sizes restricted to `members`. Ordered maps keep the
        // whole splitter iteration-order free (L001): the DFS `order`
        // vector drives every traversal, the maps are lookups only.
        let in_tree: std::collections::BTreeSet<u32> = members.iter().copied().collect();
        let root = members[0];
        let mut parent: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        let mut order: Vec<u32> = Vec::with_capacity(members.len());
        let mut depth: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        parent.insert(root, root);
        depth.insert(root, 0);
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            order.push(u);
            for &v in &adj[u as usize] {
                if in_tree.contains(&v) && !parent.contains_key(&v) {
                    parent.insert(v, u);
                    depth.insert(v, depth[&u] + 1);
                    stack.push(v);
                }
            }
        }
        debug_assert_eq!(order.len(), members.len(), "component must be a tree");
        let mut subtree: std::collections::BTreeMap<u32, usize> =
            members.iter().map(|&u| (u, 1usize)).collect();
        for &u in order.iter().rev() {
            if u != root {
                let p = parent[&u];
                let s = subtree[&u];
                // kanon-lint: allow(L006) the parent map covers every non-root vertex
                *subtree.get_mut(&p).unwrap() += s;
            }
        }
        // Deepest vertex whose subtree has ≥ k vertices (ties: later in
        // DFS order, deterministic).
        let v = *order
            .iter()
            .filter(|&&u| subtree[&u] >= k)
            .max_by_key(|&&u| (depth[&u], u))
            // kanon-lint: allow(L006) the root subtree holds all n >= k vertices
            .expect("root subtree has ≥ k vertices");
        // Children of v and their subtree sizes (each ≤ k−1 by choice of v).
        let children: Vec<u32> = adj[v as usize]
            .iter()
            .copied()
            .filter(|&c| in_tree.contains(&c) && parent.get(&c) == Some(&v))
            .collect();
        let child_total: usize = children.iter().map(|c| subtree[c]).sum();
        debug_assert_eq!(child_total + 1, subtree[&v]);

        // Collect vertex sets of child subtrees on demand.
        let collect_subtree = |start: u32| -> Vec<u32> {
            let mut acc = Vec::new();
            let mut st = vec![start];
            while let Some(u) = st.pop() {
                acc.push(u);
                for &w in &adj[u as usize] {
                    if in_tree.contains(&w) && parent.get(&w) == Some(&u) {
                        st.push(w);
                    }
                }
            }
            acc
        };

        let cut: Vec<u32> = if child_total >= k {
            // Greedily group child subtrees until ≥ k (total ≤ 2k−2).
            let mut group = Vec::new();
            for &c in &children {
                group.extend(collect_subtree(c));
                if group.len() >= k {
                    break;
                }
            }
            debug_assert!(group.len() >= k && group.len() <= 2 * k - 2);
            group
        } else {
            // subtree(v) has exactly k vertices: cut it whole.
            let sub = collect_subtree(v);
            debug_assert_eq!(sub.len(), k);
            sub
        };
        let cut_set: std::collections::BTreeSet<u32> = cut.iter().copied().collect();
        members.retain(|u| !cut_set.contains(u));
        debug_assert!(members.len() >= k, "remainder must stay ≥ k");
        out.push(cut);
        // Loop continues with the remainder.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::AgglomerativeConfig;
    use crate::{try_agglomerative_k_anonymize, try_forest_k_anonymize};
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_core::KanonError;
    use kanon_measures::{EntropyMeasure, LmMeasure};
    use std::sync::Arc;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f", "g", "h"],
                &[
                    &["a", "b"],
                    &["c", "d"],
                    &["e", "f"],
                    &["g", "h"],
                    &["a", "b", "c", "d"],
                    &["e", "f", "g", "h"],
                ],
            )
            .build_shared()
            .unwrap()
    }

    fn table(s: &SharedSchema, copies: usize) -> Table {
        let mut rows = Vec::new();
        for _ in 0..copies {
            for v in 0..8 {
                rows.push(Record::from_raw([v]));
            }
        }
        Table::new(Arc::clone(s), rows).unwrap()
    }

    #[test]
    fn forest_output_is_k_anonymous_with_size_bound() {
        let s = schema();
        let t = table(&s, 3); // 24 records
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        for k in [2, 3, 4, 5] {
            let out = try_forest_k_anonymize(&t, &costs, k).unwrap().into_inner();
            assert!(out.clustering.min_cluster_size() >= k, "k={k}");
            assert!(
                out.clustering.max_cluster_size() <= 3 * k - 3,
                "k={k}: max cluster {} > 3k−3 = {}",
                out.clustering.max_cluster_size(),
                3 * k - 3
            );
        }
    }

    #[test]
    fn forest_handles_k_one_and_extremes() {
        let s = schema();
        let t = table(&s, 1);
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_forest_k_anonymize(&t, &costs, 1).unwrap().into_inner();
        assert_eq!(out.loss, 0.0);
        assert!(matches!(
            try_forest_k_anonymize(&t, &costs, 0),
            Err(KanonError::Core(_))
        ));
        assert!(matches!(
            try_forest_k_anonymize(&t, &costs, 9),
            Err(KanonError::Core(_))
        ));
    }

    #[test]
    fn forest_with_k_equal_n_has_single_cluster() {
        // 3k−3 ≥ n must hold for k = n ⇒ single cluster allowed only if
        // n ≤ 3n−3, true for n ≥ 2; the splitter must not split it.
        let s = schema();
        let t = table(&s, 1); // n = 8
        let costs = NodeCostTable::compute(&t, &LmMeasure);
        let out = try_forest_k_anonymize(&t, &costs, 8).unwrap().into_inner();
        assert_eq!(out.clustering.num_clusters(), 1);
    }

    #[test]
    fn agglomerative_matches_forest_on_clean_pairs() {
        // On data whose duplicates exactly fill clusters of size k, both
        // the agglomerative algorithm and the forest baseline find the
        // perfect (zero-extra-loss) clustering. (The paper's 20–50 %
        // aggregate advantage of the agglomerative algorithms is a
        // statistical statement over realistic data — exercised by the
        // bench harness, not assertable pointwise.)
        let s = schema();
        let t = table(&s, 2); // two copies of each value
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let forest = try_forest_k_anonymize(&t, &costs, 2).unwrap().into_inner();
        let agg = try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(2))
            .unwrap()
            .into_inner();
        assert_eq!(agg.loss, 0.0);
        assert_eq!(forest.loss, 0.0);
    }

    #[test]
    fn forest_is_deterministic() {
        let s = schema();
        let t = table(&s, 2);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let a = try_forest_k_anonymize(&t, &costs, 3).unwrap().into_inner();
        let b = try_forest_k_anonymize(&t, &costs, 3).unwrap().into_inner();
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn forest_output_is_pinned() {
        // Golden output: the exact cluster family, not just re-run
        // equality. Re-running in-process cannot catch platform- or
        // hasher-seed-dependent iteration orders; a pinned expectation
        // can. If an intentional algorithm change breaks this, re-pin by
        // printing `out.clustering.clusters()`.
        let s = schema();
        let t = table(&s, 2); // rows 0..8 and 8..16, value v = row % 8
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let out = try_forest_k_anonymize(&t, &costs, 2).unwrap().into_inner();
        let mut clusters: Vec<Vec<u32>> = out
            .clustering
            .clusters()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        clusters.sort();
        // Duplicate pairs (v, v+8) share a value, so the forest joins
        // exactly those zero-cost edges.
        let expected: Vec<Vec<u32>> = (0..8).map(|v| vec![v, v + 8]).collect();
        assert_eq!(clusters, expected);
        assert_eq!(out.loss, 0.0);
    }

    #[test]
    fn split_tree_star_shape() {
        // A star with 10 leaves (root 0) and k = 3: the splitter must cut
        // child groups, never stranding the centre.
        let n = 11;
        let mut adj = vec![Vec::new(); n];
        for leaf in 1..n as u32 {
            adj[0].push(leaf);
            adj[leaf as usize].push(0);
        }
        let mut out = Vec::new();
        split_tree((0..n as u32).collect(), &adj, 3, 6, &mut out);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, n);
        for c in &out {
            assert!(c.len() >= 3 && c.len() <= 6, "bad cluster size {}", c.len());
        }
    }

    #[test]
    fn split_tree_path_shape() {
        // A path of 20 vertices, k = 4, max 9.
        let n = 20;
        let mut adj = vec![Vec::new(); n];
        for u in 0..n - 1 {
            adj[u].push(u as u32 + 1);
            adj[u + 1].push(u as u32);
        }
        let mut out = Vec::new();
        split_tree((0..n as u32).collect(), &adj, 4, 9, &mut out);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, n);
        for c in &out {
            assert!(c.len() >= 4 && c.len() <= 9);
        }
    }
}
