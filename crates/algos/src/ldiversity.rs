//! ℓ-diverse k-anonymization — the extension the paper defers to future
//! work ("we believe ℓ-diversity fits also in our framework", Sec. II).
//!
//! The agglomerative machinery of Algorithm 1 adapts directly: a cluster
//! only *matures* when it both reaches size k **and** covers at least ℓ
//! distinct values of the sensitive attribute, so every equivalence class
//! of the output is simultaneously k-anonymous and distinct-ℓ-diverse.
//! Feasibility requires ℓ not to exceed the number of distinct sensitive
//! values, and no sensitive value may occur in more than ⌈n/ℓ⌉ records —
//! the standard eligibility condition; we check the first directly and
//! surface the second through a final validation pass.
//!
//! **Implementation note.** The merge loop runs on the shared
//! closest-pair engine ([`crate::engine`]) — the same per-cluster
//! nearest-neighbour cache and the same cluster distance as Algorithms
//! 1/2, so a run is O(n²) expected instead of the O(n³) all-pairs rescan
//! the first version of this module performed on every merge. This
//! module supplies only what ℓ-diversity changes: the sensitive-value
//! histogram each cluster carries and the two-part maturity condition.
//! Everything else — the k = ℓ = 1 identity, the budget combine and the
//! leftover distribution — is the engine's, shared with Algorithm 1.
//! The first version's all-pairs loop is preserved as
//! [`l_diverse_reference`]: the determinism suite proves the
//! engine-based run byte-identical to it, and the scaling bench uses it
//! as the n³ baseline.

use crate::agglomerative::KAnonOutput;
use crate::cost::CostContext;
use crate::distance::ClusterDistance;
use crate::engine::{self, ClusterPolicy};
use crate::fallible::Budgeted;
use kanon_core::error::{CoreError, Result};
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;
use std::collections::BTreeMap;

/// Configuration for [`crate::try_l_diverse_k_anonymize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LDiverseConfig {
    /// The anonymity parameter `k ≥ 1`.
    pub k: usize,
    /// The diversity parameter `ℓ ≥ 1` (distinct ℓ-diversity).
    pub l: usize,
    /// The cluster distance function.
    pub distance: ClusterDistance,
}

impl LDiverseConfig {
    /// k-anonymity + distinct-ℓ-diversity with the default distance (D3).
    pub fn new(k: usize, l: usize) -> Self {
        LDiverseConfig {
            k,
            l,
            distance: ClusterDistance::default(),
        }
    }
}

/// Sensitive value → count within a cluster.
type Histogram = BTreeMap<u32, u32>;

/// A working cluster carrying its sensitive-value histogram.
type Cluster = engine::Cluster<Histogram>;

/// The ℓ-diversity policy for the shared closest-pair engine: the
/// sensitive-value fold on merge and the two-part maturity condition
/// (size ≥ k ∧ distinct ≥ ℓ).
pub(crate) struct LDivPolicy<'s> {
    pub(crate) k: usize,
    pub(crate) l: usize,
    pub(crate) sensitive: &'s [u32],
}

impl ClusterPolicy for LDivPolicy<'_> {
    type Extra = Histogram;
    const FAIL_POINT: &'static str = "algos/ldiversity/merge";

    fn singleton_extra(&self, row: u32) -> Histogram {
        BTreeMap::from([(self.sensitive[row as usize], 1)])
    }

    fn fold(&self, into: &mut Histogram, from: Histogram) {
        for (v, c) in from {
            *into.entry(v).or_insert(0) += c;
        }
    }

    fn is_mature(&self, c: &Cluster) -> bool {
        c.size() >= self.k && c.extra.len() >= self.l
    }

    fn infeasible(&self, n: usize) -> String {
        format!(
            "cannot satisfy k = {} with \u{2113} = {} on {n} records",
            self.k, self.l
        )
    }
}

/// Validates `(k, ℓ, sensitive)` against the table and returns the number
/// of distinct sensitive values.
fn validate(table: &Table, sensitive: &[u32], cfg: &LDiverseConfig) -> Result<usize> {
    let n = table.num_rows();
    check_k(cfg.k, n)?;
    if sensitive.len() != n {
        return Err(CoreError::RowCountMismatch {
            left: n,
            right: sensitive.len(),
        });
    }
    let total_distinct = {
        let mut vals: Vec<u32> = sensitive.to_vec();
        vals.sort_unstable();
        vals.dedup();
        vals.len()
    };
    if cfg.l == 0 || cfg.l > total_distinct {
        return Err(CoreError::InvalidL {
            l: cfg.l,
            distinct: total_distinct,
        });
    }
    Ok(total_distinct)
}

/// ℓ-diverse member lists with budget-aware graceful degradation:
/// validate, build the policy, run the engine.
///
/// The engine's budget combine keeps the output valid: when nothing
/// matured, the combined cluster holds all n records — n ≥ k members,
/// all sensitive values — so it matures; and distributing leftover
/// records into mature clusters can only grow their sizes and
/// sensitive-value sets.
pub(crate) fn ldiversity_clusters(
    table: &Table,
    costs: &NodeCostTable,
    sensitive: &[u32],
    cfg: &LDiverseConfig,
) -> Result<Budgeted<Vec<Vec<u32>>>> {
    validate(table, sensitive, cfg)?;
    let _span = kanon_obs::span("ldiversity");
    let policy = LDivPolicy {
        k: cfg.k,
        l: cfg.l,
        sensitive,
    };
    engine::run(&CostContext::new(table, costs), cfg.distance, &policy)
}

/// ℓ-diverse implementation with budget-aware graceful degradation.
pub(crate) fn ldiversity_impl(
    table: &Table,
    costs: &NodeCostTable,
    sensitive: &[u32],
    cfg: &LDiverseConfig,
) -> Result<Budgeted<KAnonOutput>> {
    ldiversity_clusters(table, costs, sensitive, cfg)?
        .try_map(|clusters| KAnonOutput::from_clusters(table, costs, clusters))
}

/// The original all-pairs implementation, kept as the byte-level
/// reference for the engine-based run and as the O(n³) baseline of the
/// ℓ-diversity scaling bench (it re-scans every active pair on every
/// merge). Counts [`kanon_obs::Counter::ClusterDistEvals`] so the bench
/// can embed the n³-vs-n² evidence. Not part of the supported API.
#[doc(hidden)]
pub fn l_diverse_reference(
    table: &Table,
    costs: &NodeCostTable,
    sensitive: &[u32],
    cfg: &LDiverseConfig,
) -> Result<KAnonOutput> {
    let n = table.num_rows();
    validate(table, sensitive, cfg)?;
    let ctx = CostContext::new(table, costs);

    let policy = LDivPolicy {
        k: cfg.k,
        l: cfg.l,
        sensitive,
    };
    let singleton = |row: u32| Cluster::singleton(&ctx, row, policy.singleton_extra(row));

    if cfg.k == 1 && cfg.l == 1 {
        let singletons = (0..n as u32).map(|row| vec![row]).collect();
        return KAnonOutput::from_clusters(table, costs, singletons);
    }

    let mut slots: Vec<Option<Cluster>> = (0..n).map(|i| Some(singleton(i as u32))).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut done: Vec<Cluster> = Vec::new();

    let dist = |a: &Cluster, b: &Cluster, ctx: &CostContext<'_>| -> f64 {
        kanon_obs::count(kanon_obs::Counter::ClusterDistEvals, 1);
        let cost_u = ctx.join_cost(&a.nodes, &b.nodes);
        cfg.distance.eval_symmetric(
            a.size(),
            a.cost,
            b.size(),
            b.cost,
            a.size() + b.size(),
            cost_u,
        )
    };

    while active.len() > 1 {
        // Closest pair among active clusters (quadratic scan per merge).
        let mut best: Option<(usize, usize, f64)> = None;
        for x in 0..active.len() {
            for y in (x + 1)..active.len() {
                let (i, j) = (active[x], active[y]);
                // kanon-lint: allow(L006) active slots are live by construction
                let d = dist(slots[i].as_ref().unwrap(), slots[j].as_ref().unwrap(), &ctx);
                let better = match best {
                    None => true,
                    Some((.., bd)) => d.total_cmp(&bd).is_lt(),
                };
                if better {
                    best = Some((i, j, d));
                }
            }
        }
        // kanon-lint: allow(L006) the merge loop requires >= 2 active clusters
        let (i, j, _) = best.expect("≥ 2 active clusters");
        let a = slots[i].take().unwrap(); // kanon-lint: allow(L006) best indexes live slots
        let b = slots[j].take().unwrap(); // kanon-lint: allow(L006) best indexes live slots
        active.retain(|&s| s != i && s != j);

        let merged = Cluster::merge(&ctx, a, b, |x, y| policy.fold(x, y));
        if policy.is_mature(&merged) {
            done.push(merged);
        } else {
            let slot = slots.len();
            slots.push(Some(merged));
            active.push(slot);
        }
    }

    // Leftover cluster: distribute its records over mature clusters.
    if let Some(&slot) = active.first() {
        // kanon-lint: allow(L006) the first active slot is live
        let leftover = slots[slot].take().unwrap();
        if done.is_empty() {
            return Err(CoreError::InvalidClustering(policy.infeasible(n)));
        }
        for &row in &leftover.members {
            let single = singleton(row);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (ci, c) in done.iter().enumerate() {
                let d = dist(&single, c, &ctx);
                if d.total_cmp(&best_d).is_lt() {
                    best_d = d;
                    best = ci;
                }
            }
            let c = &mut done[best];
            c.members.push(row);
            c.members.sort_unstable();
            ctx.join_row_into(&mut c.nodes, row as usize);
            c.cost = ctx.cost(&c.nodes);
            *c.extra.entry(sensitive[row as usize]).or_insert(0) += 1;
        }
    }

    let clusters = done.into_iter().map(|c| c.members).collect();
    KAnonOutput::from_clusters(table, costs, clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_l_diverse_k_anonymize;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::KanonError;
    use kanon_measures::EntropyMeasure;
    use std::sync::Arc;

    fn setup(n: usize) -> (Table, Vec<u32>, NodeCostTable) {
        let s = SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"]],
            )
            .build_shared()
            .unwrap();
        let rows = (0..n).map(|i| Record::from_raw([(i % 6) as u32])).collect();
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        // Sensitive values alternate 0/1/2 — diversity requires mixing.
        let sensitive: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        (t, sensitive, costs)
    }

    fn class_diversity(out: &KAnonOutput, sensitive: &[u32]) -> usize {
        out.clustering
            .clusters()
            .iter()
            .map(|c| {
                let mut vals: Vec<u32> = c.iter().map(|&i| sensitive[i as usize]).collect();
                vals.sort_unstable();
                vals.dedup();
                vals.len()
            })
            .min()
            .unwrap()
    }

    #[test]
    fn output_is_k_anonymous_and_l_diverse() {
        let (t, sensitive, costs) = setup(18);
        for (k, l) in [(2, 2), (3, 2), (3, 3), (4, 2)] {
            let out = try_l_diverse_k_anonymize(&t, &costs, &sensitive, &LDiverseConfig::new(k, l))
                .unwrap()
                .into_inner();
            assert!(out.clustering.min_cluster_size() >= k, "k={k} l={l}");
            assert!(class_diversity(&out, &sensitive) >= l, "k={k} l={l}");
        }
    }

    #[test]
    fn diversity_may_cost_extra_loss() {
        // Without diversity, identical-value clusters are free; forcing
        // ℓ ≥ 2 must mix them, so loss can only grow.
        let (t, _, costs) = setup(12);
        // Sensitive values aligned with the attribute: cluster {a,a} would
        // be homogeneous.
        let sensitive: Vec<u32> = (0..12).map(|i| (i % 6) as u32 / 2).collect();
        let plain = crate::try_agglomerative_k_anonymize(
            &t,
            &costs,
            &crate::agglomerative::AgglomerativeConfig::new(2),
        )
        .unwrap()
        .into_inner();
        let diverse = try_l_diverse_k_anonymize(&t, &costs, &sensitive, &LDiverseConfig::new(2, 2))
            .unwrap()
            .into_inner();
        assert!(diverse.loss >= plain.loss - 1e-12);
        assert!(class_diversity(&diverse, &sensitive) >= 2);
    }

    #[test]
    fn infeasible_l_rejected_with_dedicated_error() {
        // Regression: this used to come back as `InvalidK { k: l }`, so
        // the message reported ℓ as "k". It must be `InvalidL` and the
        // message must name ℓ.
        let (t, _, costs) = setup(12);
        let homogeneous = vec![7u32; 12];
        let err = try_l_diverse_k_anonymize(&t, &costs, &homogeneous, &LDiverseConfig::new(2, 2))
            .unwrap_err();
        assert_eq!(
            err,
            KanonError::Core(CoreError::InvalidL { l: 2, distinct: 1 })
        );
        let msg = err.to_string();
        assert!(
            msg.contains("\u{2113}=2"),
            "message must name \u{2113}: {msg}"
        );
        assert!(
            !msg.contains("k="),
            "message must not call \u{2113} \"k\": {msg}"
        );
        // ℓ = 0 is rejected the same way.
        assert!(matches!(
            try_l_diverse_k_anonymize(&t, &costs, &homogeneous, &LDiverseConfig::new(2, 0)),
            Err(KanonError::Core(CoreError::InvalidL { l: 0, .. }))
        ));
    }

    #[test]
    fn k1_l1_is_identity() {
        let (t, sensitive, costs) = setup(12);
        let out = try_l_diverse_k_anonymize(&t, &costs, &sensitive, &LDiverseConfig::new(1, 1))
            .unwrap()
            .into_inner();
        assert_eq!(out.loss, 0.0);
    }

    #[test]
    fn length_mismatch_rejected() {
        let (t, _, costs) = setup(12);
        assert!(matches!(
            try_l_diverse_k_anonymize(&t, &costs, &[0, 1], &LDiverseConfig::new(2, 2)),
            Err(KanonError::Core(_))
        ));
    }

    #[test]
    fn matches_reference_including_leftover_distribution() {
        // Byte-level pinning of the engine-based run (with the
        // sort-once leftover distribution) against the original
        // sort-after-every-push all-pairs implementation, across sizes
        // that do and do not leave a leftover cluster. The proptest in
        // `tests/determinism.rs` extends this to random tables.
        for n in [7, 11, 12, 17, 18, 23] {
            let (t, sensitive, costs) = setup(n);
            for (k, l) in [(2, 2), (3, 2), (3, 3), (5, 2)] {
                let cfg = LDiverseConfig::new(k, l);
                let fast = try_l_diverse_k_anonymize(&t, &costs, &sensitive, &cfg)
                    .unwrap()
                    .into_inner();
                let refr = l_diverse_reference(&t, &costs, &sensitive, &cfg).unwrap();
                assert_eq!(fast.clustering, refr.clustering, "n={n} k={k} l={l}");
                assert_eq!(
                    fast.loss.to_bits(),
                    refr.loss.to_bits(),
                    "n={n} k={k} l={l}"
                );
            }
        }
    }

    #[test]
    fn empty_done_distribution_is_a_typed_error() {
        // Nothing maturing is unreachable through the entry point (the
        // final merge of all unmatured rows always matures — it has
        // n ≥ k members and every sensitive value), so drive the engine
        // directly with k > n. It must return the typed error naming
        // k and ℓ, not panic.
        let (t, sensitive, costs) = setup(6);
        let ctx = CostContext::new(&t, &costs);
        let policy = LDivPolicy {
            k: 7,
            l: 2,
            sensitive: &sensitive,
        };
        let err = engine::run(&ctx, ClusterDistance::D3, &policy).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClustering(_)));
        let msg = err.to_string();
        assert!(msg.contains("k = 7"), "{msg}");
        assert!(msg.contains("\u{2113} = 2"), "{msg}");
    }

    #[test]
    fn budget_exhaustion_degrades_to_valid_output() {
        let (t, sensitive, costs) = setup(18);
        let cfg = LDiverseConfig::new(3, 2);
        let out = kanon_obs::with_work_budget(1, || {
            crate::try_l_diverse_k_anonymize(&t, &costs, &sensitive, &cfg).unwrap()
        });
        assert!(out.is_exhausted());
        let out = out.into_inner();
        assert!(out.clustering.min_cluster_size() >= 3);
        assert!(class_diversity(&out, &sensitive) >= 2);
    }
}
