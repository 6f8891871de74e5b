//! Shard-and-conquer pipeline: k-anonymize (or ℓ-diversify) tables far
//! beyond what the quadratic clustering engines can touch monolithically.
//!
//! The paper's agglomerative family is Θ(n²) in distance evaluations, so
//! a million rows is out of reach directly. This module makes it
//! tractable in three deterministic phases:
//!
//! 1. **Partition** — the shared top-down splitter (the `split` module,
//!    also behind [`crate::mondrian`]) cuts the table into shards of
//!    at most
//!    [`ShardConfig::shard_max`] rows. Splits are chosen for *balance*
//!    (smallest size imbalance, lowest attribute index on ties) and are
//!    only taken when both sides keep ≥ k rows — and, under
//!    ℓ-diversity, ≥ ℓ distinct sensitive values — so every shard is
//!    independently solvable. A cluster with no feasible split stays as
//!    one oversized shard rather than violating the constraints.
//! 2. **Conquer** — each shard runs the shared clustering engine
//!    (basic Algorithm 1 under D3, or its ℓ-diverse variant) as a
//!    sub-table against the *global* [`NodeCostTable`], so per-shard
//!    costs are comparable and the union of per-shard clusterings is
//!    globally valid. The engine hands back member lists only; the
//!    generalized table and loss are built once, for the final
//!    clustering. Shards are dispatched like the best-k grid (one coarse
//!    task per shard with the remaining threads split evenly inside,
//!    serial under a budget) — byte-identical output at any
//!    `KANON_THREADS`.
//! 3. **Boundary repair** — shard borders can leave *twin* clusters on
//!    either side that generalize to the very same closure; merging such
//!    twins is free (the generalized table is unchanged) and undoes the
//!    needless fragmentation the cut introduced. Merges are counted as
//!    `boundary_repairs`. Every per-shard cluster is valid and merging
//!    only grows clusters, so a final check that each cluster holds ≥ k
//!    rows (and ℓ distinct sensitive values) never fails on a correct
//!    engine; if it does, the run returns
//!    [`CoreError::InconsistentInput`] rather than invalid output.
//!
//! Each phase runs under its own `kanon-obs` span below `sharded`:
//! `partition`, `shard_engines`, `boundary_repair` and `assemble` (the
//! generalized output).
//!
//! The work budget (`KANON_WORK_BUDGET`) is honoured at every phase:
//! partition checkpoints drain the queue into coarser shards, the
//! per-shard runs degrade internally, and the whole pipeline reports
//! [`Budgeted::BudgetExhausted`] while still returning a valid result.

use crate::agglomerative::{agglomerative_clusters, AgglomerativeConfig, KAnonOutput};
use crate::cost::CostContext;
use crate::fallible::{Budget, Budgeted};
use crate::ldiversity::{ldiversity_clusters, LDiverseConfig};
use crate::split::{self, SplitPolicy};
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::NodeId;
use kanon_core::table::{check_k, Table};
use kanon_measures::NodeCostTable;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Failpoint name firing once per shard-partition split attempt (see the
/// `kanon-fault` catalogue).
pub const SHARD_FAIL_POINT: &str = ShardPolicy::SPLIT_POINT;

/// Configuration for the shard-and-conquer pipeline.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The anonymity parameter `k ≥ 1`.
    pub k: usize,
    /// The diversity parameter `ℓ ≥ 1`; only consulted by
    /// [`crate::try_sharded_l_diverse_k_anonymize`].
    pub l: usize,
    /// Maximum rows per shard. Defaults to
    /// [`kanon_core::config::SHARD_MAX_DEFAULT`].
    pub shard_max: usize,
}

impl ShardConfig {
    /// Shard-and-conquer k-anonymity with the default shard cap. Each
    /// shard runs basic Algorithm 1 under D3.
    pub fn new(k: usize) -> Self {
        ShardConfig {
            k,
            l: 1,
            shard_max: kanon_core::config::SHARD_MAX_DEFAULT,
        }
    }

    /// Sets the diversity parameter ℓ.
    pub fn with_l(mut self, l: usize) -> Self {
        self.l = l;
        self
    }

    /// Sets the shard size cap.
    pub fn with_shard_max(mut self, shard_max: usize) -> Self {
        self.shard_max = shard_max;
        self
    }
}

/// Per-run shard statistics (mirrored into the `kanon-obs` counters
/// `shards_built`, `shard_rows_max`, `boundary_repairs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards the partition phase produced.
    pub shards_built: usize,
    /// Rows in the largest shard (≤ `shard_max` unless some cluster had
    /// no feasible split).
    pub shard_rows_max: usize,
    /// Cluster merges performed by the boundary-repair phase.
    pub boundary_repairs: usize,
}

/// Result of a shard-and-conquer run.
#[derive(Debug, Clone)]
pub struct ShardedOutput {
    /// The globally valid clustering, generalized table and loss.
    pub out: KAnonOutput,
    /// How the table was sharded and repaired.
    pub stats: ShardStats,
}

/// Distinct sensitive values among `members`.
fn distinct_of(sensitive: &[u32], members: &[u32]) -> usize {
    members
        .iter()
        .map(|&r| sensitive[r as usize])
        .collect::<BTreeSet<u32>>()
        .len()
}

/// The partition phase's rules for the splitter (phase 1 of the module
/// doc). No cost evaluations: balance is what bounds shard sizes fast.
struct ShardPolicy<'s> {
    cfg: &'s ShardConfig,
    sensitive: Option<&'s [u32]>,
}

impl SplitPolicy for ShardPolicy<'_> {
    const SPLIT_POINT: &'static str = "algos/shard/partition";
    type Score = usize;

    fn is_final(&self, len: usize) -> bool {
        len <= self.cfg.shard_max
    }

    fn score(
        &self,
        _ctx: &CostContext<'_>,
        _members: &[u32],
        _closure: &[NodeId],
        left: &[u32],
        right: &[u32],
    ) -> Option<usize> {
        let (k, l) = (self.cfg.k, self.cfg.l);
        if left.len() < k || right.len() < k {
            return None;
        }
        if let Some(s) = self.sensitive {
            if distinct_of(s, left) < l || distinct_of(s, right) < l {
                return None;
            }
        }
        Some(left.len().abs_diff(right.len()))
    }
}

/// The shard-and-conquer implementation. `sensitive` selects the
/// ℓ-diverse engine (with `cfg.l`) for the per-shard runs.
pub(crate) fn sharded_impl(
    table: &Table,
    costs: &NodeCostTable,
    sensitive: Option<&[u32]>,
    cfg: &ShardConfig,
) -> Result<Budgeted<ShardedOutput>> {
    let n = table.num_rows();
    check_k(cfg.k, n)?;
    if cfg.shard_max == 0 {
        return Err(CoreError::InconsistentInput(
            "shard-max must be at least 1".to_string(),
        ));
    }
    if let Some(s) = sensitive {
        if s.len() != n {
            return Err(CoreError::RowCountMismatch {
                left: n,
                right: s.len(),
            });
        }
    }
    let _span = kanon_obs::span("sharded");
    let ctx = CostContext::new(table, costs);

    let mut budget = Budget::arm();

    // Phase 1: partition into bounded shards (serial, deterministic). A
    // cluster with no feasible split stays one oversized shard; budget
    // degradation keeps every queue element as a (coarser) shard — the
    // per-shard engines still enforce k/ℓ, so validity holds.
    let phase = kanon_obs::span("partition");
    let mut shards = split::run(&ctx, &ShardPolicy { cfg, sensitive }, &mut budget)?;
    for s in &mut shards {
        s.sort_unstable();
    }
    // Disjoint sorted shards: lexicographic order == order by first row.
    shards.sort();
    drop(phase);
    let shard_rows_max = shards.iter().map(Vec::len).max().unwrap_or(0);
    kanon_obs::count(kanon_obs::Counter::ShardsBuilt, shards.len() as u64);
    kanon_obs::count(kanon_obs::Counter::ShardRowsMax, shard_rows_max as u64);

    // Phase 2: run the clustering engine per shard against the GLOBAL
    // cost table (losses stay comparable; sub-clusterings stay globally
    // valid), one whole run per shard as in the best-k grid (see
    // `Budget::map_runs`). Each run hands back its member lists, which
    // map back to global rows through the sorted shard.
    let run_one = |s: usize| -> Result<Budgeted<Vec<Vec<u32>>>> {
        let members = &shards[s];
        let records = members
            .iter()
            .map(|&r| table.row(r as usize).clone())
            .collect();
        let sub = Table::new(Arc::clone(table.schema()), records)?;
        match sensitive {
            None => agglomerative_clusters(&sub, costs, &AgglomerativeConfig::new(cfg.k)),
            Some(sv) => {
                let sub_sv: Vec<u32> = members.iter().map(|&r| sv[r as usize]).collect();
                let sub_cfg = LDiverseConfig::new(cfg.k, cfg.l);
                ldiversity_clusters(&sub, costs, &sub_sv, &sub_cfg)
            }
        }
    };
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    let phase = kanon_obs::span("shard_engines");
    for (s, result) in budget
        .map_runs(shards.len(), run_one)
        .into_iter()
        .enumerate()
    {
        for local in budget.absorb(result?) {
            clusters.push(local.iter().map(|&i| shards[s][i as usize]).collect());
        }
    }
    drop(phase);

    // Phase 3a: free boundary merges — clusters from different shards
    // whose closures coincide generalize identically, so merging them is
    // loss-neutral and k/ℓ-preserving.
    let phase = kanon_obs::span("boundary_repair");
    let mut keyed: Vec<(Vec<NodeId>, Vec<u32>)> = clusters
        .into_iter()
        .map(|c| (ctx.closure_of(&c), c))
        .collect();
    keyed.sort_by(|a, b| (&a.0, a.1[0]).cmp(&(&b.0, b.1[0])));
    let mut boundary_repairs = 0usize;
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    for (key, mut members) in keyed {
        match clusters.last_mut() {
            Some(last) if ctx.closure_of(last) == key => {
                last.append(&mut members);
                boundary_repairs += 1;
            }
            _ => clusters.push(members),
        }
    }
    for c in &mut clusters {
        c.sort_unstable();
    }

    // Phase 3b: per-shard clusters are valid and 3a only grows them, so
    // a cluster below k (or ℓ) means a broken engine: fail, never emit.
    if let Some(c) = clusters.iter().find(|c| {
        c.len() < cfg.k || sensitive.is_some_and(|s| distinct_of(s, c) < cfg.l.min(c.len()))
    }) {
        return Err(CoreError::InconsistentInput(format!(
            "shard run returned an invalid cluster of {} rows (k = {}, l = {})",
            c.len(),
            cfg.k,
            cfg.l
        )));
    }
    kanon_obs::count(kanon_obs::Counter::BoundaryRepairs, boundary_repairs as u64);
    drop(phase);

    // Close the span before `finish`: it drops the collector that
    // `Budget::arm` may have installed, and a span must close under the
    // collector it opened in.
    let phase = kanon_obs::span("assemble");
    clusters.sort_by_key(|c| c[0]);
    let out = KAnonOutput::from_clusters(table, costs, clusters)?;
    drop(phase);
    Ok(budget.finish(ShardedOutput {
        out,
        stats: ShardStats {
            shards_built: shards.len(),
            shard_rows_max,
            boundary_repairs,
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_sharded_k_anonymize, try_sharded_l_diverse_k_anonymize};
    use kanon_core::record::Record;
    use kanon_core::schema::{SchemaBuilder, SharedSchema};
    use kanon_core::KanonError;
    use kanon_measures::EntropyMeasure;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups("c", ["a", "b", "c", "d"], &[&["a", "b"], &["c", "d"]])
            .numeric_with_intervals("age", 0, 19, &[5, 10])
            .build_shared()
            .unwrap()
    }

    fn table(n: u32) -> Table {
        let s = schema();
        let rows = (0..n)
            .map(|i| Record::from_raw([i % 4, (i * 7) % 20]))
            .collect();
        Table::new(s, rows).unwrap()
    }

    #[test]
    fn sharded_output_is_k_anonymous_and_sharded() {
        let t = table(240);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let cfg = ShardConfig::new(3).with_shard_max(40);
        let out = try_sharded_k_anonymize(&t, &costs, &cfg)
            .unwrap()
            .into_inner();
        assert!(out.out.clustering.min_cluster_size() >= 3);
        assert!(out.stats.shards_built > 1, "{:?}", out.stats);
        assert!(out.stats.shard_rows_max <= 40, "{:?}", out.stats);
        assert!(kanon_core::generalize::is_generalization_of(&t, &out.out.table).unwrap());
    }

    #[test]
    fn sharded_run_reports_one_span_per_phase() {
        let t = table(240);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let cfg = ShardConfig::new(3).with_shard_max(40);
        let c = kanon_obs::Collector::new();
        {
            let _g = c.install();
            try_sharded_k_anonymize(&t, &costs, &cfg).unwrap();
        }
        let report = c.report();
        let sharded = report.phases.iter().find(|p| p.name == "sharded").unwrap();
        let phases: Vec<(&str, u64)> = sharded.children.iter().map(|p| (p.name, p.calls)).collect();
        assert_eq!(
            phases,
            [
                ("partition", 1),
                ("shard_engines", 1),
                ("boundary_repair", 1),
                ("assemble", 1)
            ]
        );
        // Every shard's engine run reports its three phases once, inside
        // its `agglomerative` span (which a worker files at the top level).
        fn calls(phases: &[kanon_obs::PhaseSnapshot], name: &str) -> u64 {
            phases
                .iter()
                .map(|p| u64::from(p.name == name) * p.calls + calls(&p.children, name))
                .sum()
        }
        let shards = report.counter(kanon_obs::Counter::ShardsBuilt);
        assert!(shards > 1, "{shards} shards");
        for phase in ["duplicate_replay", "initial_scan", "merge_loop"] {
            assert_eq!(calls(&report.phases, phase), shards, "{phase}");
        }
    }

    #[test]
    fn monolithic_when_table_fits_one_shard() {
        let t = table(60);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let sharded = try_sharded_k_anonymize(&t, &costs, &ShardConfig::new(4))
            .unwrap()
            .into_inner();
        assert_eq!(sharded.stats.shards_built, 1);
        let mono = crate::try_agglomerative_k_anonymize(&t, &costs, &AgglomerativeConfig::new(4))
            .unwrap()
            .into_inner();
        // Same partition (the sharded path renumbers clusters by first
        // member) and bitwise-identical loss.
        let mut a: Vec<_> = sharded.out.clustering.clusters().to_vec();
        let mut b: Vec<_> = mono.clustering.clusters().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(sharded.out.loss.to_bits(), mono.loss.to_bits());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let t = table(300);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let cfg = ShardConfig::new(3).with_shard_max(50);
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                kanon_parallel::with_threads(threads, || {
                    try_sharded_k_anonymize(&t, &costs, &cfg)
                        .unwrap()
                        .into_inner()
                })
            })
            .collect();
        assert_eq!(runs[0].out.clustering, runs[1].out.clustering);
        assert_eq!(runs[0].out.clustering, runs[2].out.clustering);
        assert_eq!(runs[0].out.loss.to_bits(), runs[1].out.loss.to_bits());
        assert_eq!(runs[0].out.loss.to_bits(), runs[2].out.loss.to_bits());
        assert_eq!(runs[0].stats, runs[2].stats);
    }

    #[test]
    fn ldiverse_shards_hold_global_l() {
        let t = table(240);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let sensitive: Vec<u32> = (0..240u32).map(|i| i % 3).collect();
        let cfg = ShardConfig::new(3).with_l(2).with_shard_max(40);
        let out = try_sharded_l_diverse_k_anonymize(&t, &costs, &sensitive, &cfg)
            .unwrap()
            .into_inner();
        assert!(out.out.clustering.min_cluster_size() >= 3);
        for c in out.out.clustering.clusters() {
            assert!(distinct_of(&sensitive, c) >= 2, "{c:?}");
        }
        assert!(out.stats.shards_built > 1);
    }

    #[test]
    fn sensitive_length_mismatch_is_a_typed_error() {
        let t = table(60);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let cfg = ShardConfig::new(3).with_l(2);
        let err = try_sharded_l_diverse_k_anonymize(&t, &costs, &[0, 1], &cfg).unwrap_err();
        assert!(
            matches!(err, KanonError::Core(CoreError::RowCountMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn budget_exhaustion_degrades_to_valid_output() {
        let t = table(240);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let cfg = ShardConfig::new(3).with_shard_max(40);
        let out = kanon_obs::with_work_budget(1, || {
            crate::try_sharded_k_anonymize(&t, &costs, &cfg).unwrap()
        });
        assert!(out.is_exhausted());
        assert!(out.inner().out.clustering.min_cluster_size() >= 3);
    }
}
