//! Resident anonymization state: the base-epoch cost table, the packed
//! signature arena, the mature (published) clusters, and the pending
//! singleton pool.
//!
//! ## Incremental model
//!
//! The daemon bootstraps from a base table of at least `k` rows (first
//! consumer of the sharded pipeline). Appended rows enter as pending
//! singletons. A batch apply runs in two phases:
//!
//! 1. **Absorption sweep** — each new row is probed against every
//!    mature cluster through the packed [`SigArena`]. A row is absorbed
//!    only when joining it leaves the cluster closure *bit-identical*
//!    (fused join cost equal to the stored closure cost and per-attr
//!    closure nodes unchanged), so absorption is free: published rows
//!    never change. The sweep parallelizes past the same measured
//!    break-even as the engine's distance scans
//!    ([`kanon_algos::engine::MIN_PAR_SCAN_EVALS`]).
//! 2. **Sub-clustering** — once ≥ k rows are pending, they are
//!    clustered with the agglomerative engine on a sub-table; the
//!    resulting clusters mature. Fewer than k pending rows stay
//!    unpublished (publishing them would break k-anonymity).
//!
//! All mutation is **staged**: nothing in `ServeState` changes until a
//! batch apply has fully succeeded, so an injected fault or budget trip
//! mid-apply leaves the state exactly as before and the request can be
//! retried verbatim.
//!
//! ## Determinism across recovery
//!
//! Work budgets are *relative*: every apply runs under a fresh
//! [`kanon_obs::Collector`], so `spent_work()` starts at zero and the
//! budget recorded in the journal reproduces the identical
//! `BudgetExhausted` cut during replay regardless of process history.

use std::path::Path;

use kanon_algos::cost::{CostContext, SigArena};
use kanon_algos::engine::MIN_PAR_SCAN_EVALS;
use kanon_algos::fallible::{try_agglomerative_k_anonymize, try_sharded_k_anonymize, Budgeted};
use kanon_algos::shard::ShardConfig;
use kanon_algos::AgglomerativeConfig;
use kanon_core::cluster::Clustering;
use kanon_core::error::{KanonError, KanonResult};
use kanon_core::hierarchy::NodeId;
use kanon_core::record::Record;
use kanon_core::schema::SharedSchema;
use kanon_core::table::Table;
use kanon_data::csv::{generalized_to_csv, table_from_csv_with_policy, RowPolicy};
use kanon_measures::{EntropyMeasure, LmMeasure, NodeCostTable};
use kanon_obs::{count, Counter};

use crate::journal::{read_journal, JournalRecord, RecordKind};

/// Fail point: top of every batch apply, before any staging.
pub const POINT_BATCH_APPLY: &str = "serve/batch/apply";
/// Fail point: before each journal record is re-applied on recovery.
pub const POINT_JOURNAL_REPLAY: &str = "serve/journal/replay";
/// Fail point: before a snapshot file is written.
pub const POINT_SNAPSHOT_WRITE: &str = "serve/snapshot/write";

/// Loss-measure selection, mirroring the CLI `--measure` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Entropy measure (`em`).
    Em,
    /// Loss metric (`lm`).
    Lm,
}

impl Measure {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Measure> {
        match s {
            "em" => Some(Measure::Em),
            "lm" => Some(Measure::Lm),
            _ => None,
        }
    }

    fn compute(self, table: &Table) -> NodeCostTable {
        match self {
            Measure::Em => NodeCostTable::compute(table, &EntropyMeasure),
            Measure::Lm => NodeCostTable::compute(table, &LmMeasure),
        }
    }
}

/// Static configuration of a serve instance. Not snapshotted: a restart
/// must be launched with the same flags (the snapshot header carries
/// `k` and the measure and restore cross-checks them).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The anonymity parameter `k ≥ 2`.
    pub k: usize,
    /// The information-loss measure costs are computed under.
    pub measure: Measure,
    /// Bad-row policy for batch ingestion.
    pub policy: RowPolicy,
    /// Shard size cap for bootstrap/re-optimization sharded runs.
    pub shard_max: usize,
    /// Re-optimize every N applied batches (0 = only on demand).
    pub reopt_every: u64,
    /// Default ε for the ε-bounded absorption tier (0 = tier off: only
    /// the exact free-absorption criterion applies). A `BATCH
    /// absorb_epsilon=X` request overrides it per batch. See
    /// [`ServeState::apply_batch`] for the criterion.
    pub absorb_epsilon: f64,
}

/// One mature (published) cluster.
#[derive(Debug, Clone)]
struct Mature {
    /// Global row ids, ascending.
    members: Vec<u32>,
    /// Per-attribute closure nodes.
    nodes: Vec<NodeId>,
    /// Closure cost under the base-epoch cost table.
    cost: f64,
}

/// What one successful batch apply did.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyReport {
    /// Batch sequence number.
    pub seq: u64,
    /// Rows ingested (after the bad-row policy).
    pub rows_in: usize,
    /// Rows suppressed by the bad-row policy.
    pub rows_suppressed: usize,
    /// Cells generalized to root by the bad-row policy.
    pub cells_rooted: usize,
    /// Rows absorbed into mature clusters (free + ε-bounded).
    pub absorbed: usize,
    /// The subset of `absorbed` taken through the ε-bounded tier — the
    /// join changed the cluster closure (raising its loss contribution
    /// by less than the batch's ε) instead of leaving it bit-identical.
    pub absorbed_eps: usize,
    /// Rows published through new clusters this apply.
    pub clustered: usize,
    /// Rows left pending (unpublished) after the apply.
    pub pending: usize,
    /// True when the sub-clustering hit its work budget and committed a
    /// valid partial (more generalized) result.
    pub budget_exhausted: bool,
}

/// Outcome of a re-optimization pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ReoptOutcome {
    /// Loss of the incremental clustering over the published rows.
    pub loss_incremental: f64,
    /// Loss of a from-scratch run over the same published rows.
    pub loss_scratch: f64,
    /// Relative drift `(incremental − scratch) / scratch` (0 when the
    /// scratch loss is 0).
    pub drift: f64,
    /// Mature clusters after adopting the from-scratch result.
    pub clusters: usize,
}

/// The daemon's resident state. All methods either succeed and commit
/// or fail and leave the state untouched.
#[derive(Debug)]
pub struct ServeState {
    schema: SharedSchema,
    cfg: ServeConfig,
    /// Base-epoch node costs: node-indexed, so valid for every
    /// same-schema table regardless of appended rows.
    costs: NodeCostTable,
    /// All rows ever accepted, base rows first, in arrival order.
    records: Vec<Record>,
    n_base: usize,
    matures: Vec<Mature>,
    /// Global ids of unpublished rows, ascending.
    pending: Vec<u32>,
    /// Packed signatures of the mature clusters (slot i ↔ matures[i]);
    /// probe slots are appended past `matures.len()` during a sweep and
    /// truncated away afterwards.
    arena: SigArena,
    seq: u64,
    batches_applied: u64,
    reopt_runs: u64,
    last_drift: Option<f64>,
}

impl ServeState {
    /// Bootstraps from a base table (≥ k rows) by running the sharded
    /// pipeline and adopting its clusters as the initial matures.
    pub fn bootstrap(table: Table, cfg: ServeConfig) -> KanonResult<ServeState> {
        if cfg.k < 2 {
            return Err(KanonError::Usage(format!(
                "serve needs k >= 2, got {}",
                cfg.k
            )));
        }
        if table.num_rows() < cfg.k {
            return Err(KanonError::Usage(format!(
                "serve needs a base table of at least k={} rows, got {}",
                cfg.k,
                table.num_rows()
            )));
        }
        let costs = cfg.measure.compute(&table);
        let out = try_sharded_k_anonymize(&table, &costs, &shard_config(&cfg))?
            .into_inner()
            .out;
        let schema = table.schema().clone();
        let n_base = table.num_rows();
        let records = table.rows().to_vec();
        let mut state = ServeState {
            schema,
            cfg,
            costs,
            records,
            n_base,
            matures: Vec::new(),
            pending: Vec::new(),
            arena: SigArena::with_capacity(0, 0),
            seq: 0,
            batches_applied: 0,
            reopt_runs: 0,
            last_drift: None,
        };
        state.adopt_clustering(&out.clustering);
        Ok(state)
    }

    /// Adopts a clustering over the *entire* current table: every row
    /// published, pending cleared, arena rebuilt.
    fn adopt_clustering(&mut self, clustering: &Clustering) {
        let table = self.table();
        let ctx = CostContext::new(&table, &self.costs);
        self.matures = clustering
            .clusters()
            .iter()
            .map(|members| {
                let mut members = members.clone();
                members.sort_unstable();
                let nodes = ctx.closure_of(&members);
                let cost = ctx.cost(&nodes);
                Mature {
                    members,
                    nodes,
                    cost,
                }
            })
            .collect();
        self.pending.clear();
        self.rebuild_arena();
    }

    fn table(&self) -> Table {
        Table::new_unchecked(self.schema.clone(), self.records.clone())
    }

    fn rebuild_arena(&mut self) {
        let mut arena = SigArena::with_capacity(self.schema.num_attrs(), self.matures.len());
        for (slot, m) in self.matures.iter().enumerate() {
            arena.store(slot, &m.nodes, m.members.len(), m.cost);
        }
        self.arena = arena;
    }

    /// Next batch sequence number (what the journal records before the
    /// matching [`apply_batch`](Self::apply_batch) call).
    pub fn next_seq(&self) -> u64 {
        self.seq + 1
    }

    /// Number of rows in the resident table.
    pub fn num_rows(&self) -> usize {
        self.records.len()
    }

    /// Number of published (mature-cluster) rows.
    pub fn published_rows(&self) -> usize {
        self.records.len() - self.pending.len()
    }

    /// Number of pending (unpublished) rows.
    pub fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// Number of mature clusters.
    pub fn mature_clusters(&self) -> usize {
        self.matures.len()
    }

    /// Batches applied since bootstrap (journal replays included).
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Re-optimization passes run since bootstrap.
    pub fn reopt_runs(&self) -> u64 {
        self.reopt_runs
    }

    /// Drift measured by the most recent re-optimization, if any.
    pub fn last_drift(&self) -> Option<f64> {
        self.last_drift
    }

    /// The configured re-optimization cadence (batches; 0 = manual).
    pub fn reopt_every(&self) -> u64 {
        self.cfg.reopt_every
    }

    /// The configured default ε of the ε-bounded absorption tier
    /// (0 = exact free absorption only).
    pub fn absorb_epsilon(&self) -> f64 {
        self.cfg.absorb_epsilon
    }

    /// Burns `seq` after a permanently failed (rolled-back) batch so it
    /// is never reused — the journal's rollback marker and any future
    /// batch record must carry distinct sequence numbers, or replay
    /// would cancel the wrong batch.
    pub fn note_rollback(&mut self, seq: u64) {
        if seq > self.seq {
            self.seq = seq;
        }
    }

    /// Applies one micro-batch of CSV rows (no header) under a relative
    /// work budget (`0` = unbounded) and an absorption tolerance
    /// `epsilon`. Staged: on any error the state is byte-identical to
    /// before the call.
    ///
    /// ## The ε-bounded absorption criterion
    ///
    /// With `epsilon == 0` the absorption sweep uses the exact free
    /// criterion: a row joins the *first* mature cluster whose closure
    /// the join leaves bit-identical. With `epsilon > 0` the sweep
    /// instead measures, for every mature cluster `C`, how much the
    /// join would raise that cluster's per-member loss:
    ///
    /// ```text
    /// raise(C, r) = cost(C ∪ {r}) − cost(C)
    /// ```
    ///
    /// A cluster is *admissible* when `raise < ε`, and `r` is absorbed
    /// into the admissible cluster with the smallest joined cost
    /// `cost(C ∪ {r})` (ties broken toward the lowest slot;
    /// [`f64::total_cmp`] throughout). A closure-preserving join
    /// raises the cluster's loss by exactly zero, so the admissible
    /// set is a superset of the free tier's for any ε > 0 — the tier
    /// differs in *placement*: instead of first fit it sends the row
    /// to the cheapest home that tolerates it, which is what bounds
    /// drift (under first fit, rows default into the widest clusters
    /// that happen to contain them). Every verdict is computed against
    /// the pre-batch state, so the sweep stays deterministic under any
    /// thread count and replays bit-identically from the journal's
    /// recorded ε.
    pub fn apply_batch(
        &mut self,
        body: &str,
        budget_units: u64,
        epsilon: f64,
    ) -> KanonResult<ApplyReport> {
        kanon_fault::fail_point!(POINT_BATCH_APPLY);
        let (batch, ingest) =
            table_from_csv_with_policy(&self.schema, body, false, self.cfg.policy)
                .map_err(KanonError::Core)?;
        let staged = if budget_units > 0 {
            kanon_obs::with_work_budget(budget_units, || self.stage_batch(&batch, epsilon))
        } else {
            self.stage_batch(&batch, epsilon)
        }?;
        // Commit point: everything below is infallible.
        let rows_in = batch.num_rows();
        self.records.extend(batch.rows().iter().cloned());
        for (slot, row) in &staged.absorbed {
            let m = &mut self.matures[*slot];
            let at = m.members.partition_point(|&x| x < *row);
            m.members.insert(at, *row);
        }
        for (slot, nodes, cost) in staged.widened {
            let m = &mut self.matures[slot];
            m.nodes = nodes;
            m.cost = cost;
        }
        self.matures.extend(staged.new_matures);
        self.pending = staged.pending;
        self.rebuild_arena();
        self.seq += 1;
        self.batches_applied += 1;
        count(Counter::ServeBatchesApplied, 1);
        count(Counter::ServeRowsIngested, rows_in as u64);
        count(Counter::ServeRowsAbsorbed, staged.absorbed.len() as u64);
        count(Counter::ServeRowsAbsorbedEps, staged.absorbed_eps as u64);
        Ok(ApplyReport {
            seq: self.seq,
            rows_in,
            rows_suppressed: ingest.suppressed_rows.len(),
            cells_rooted: ingest.rooted_cells.len(),
            absorbed: staged.absorbed.len(),
            absorbed_eps: staged.absorbed_eps,
            clustered: staged.clustered,
            pending: self.pending.len(),
            budget_exhausted: staged.budget_exhausted,
        })
    }

    /// Computes everything a batch apply will commit, without mutating
    /// `self` (the arena's probe tail is scratch and reset on entry).
    fn stage_batch(&mut self, batch: &Table, epsilon: f64) -> KanonResult<StagedApply> {
        let n0 = self.records.len();
        let mut records = self.records.clone();
        records.extend(batch.rows().iter().cloned());
        let table = Table::new_unchecked(self.schema.clone(), records);
        let ctx = CostContext::new(&table, &self.costs);

        // Absorption sweep. Probe signatures are appended to the arena
        // as slots M.., serially, then scanned read-only (possibly in
        // parallel); the tail is dropped again before this fn returns.
        let m_count = self.matures.len();
        self.arena.truncate(m_count); // defensive: drop any tail a prior unwind left behind
        let new_ids: Vec<u32> = (n0..table.num_rows()).map(|i| i as u32).collect();
        for (i, &row) in new_ids.iter().enumerate() {
            let leaves = ctx.leaf_nodes(row as usize);
            let cost = ctx.cost(&leaves);
            self.arena.store(m_count + i, &leaves, 1, cost);
        }
        let arena = &self.arena;
        let matures = &self.matures;
        let eps_on = epsilon.to_bits() != 0;
        let decide = |i: usize| -> Option<usize> {
            let row = new_ids[i];
            if eps_on {
                // ε tier: a cluster is admissible when the join raises
                // its per-member loss by less than ε — a closure-
                // preserving join raises it by exactly zero, so every
                // free home is admissible under any ε > 0. Among the
                // admissible homes the row takes the one that publishes
                // it most cheaply (smallest joined cost, ties toward
                // the lowest slot), instead of the free tier's first
                // fit. Verdicts are against the pre-batch matures, so
                // they are order-independent and parallel-safe.
                let leaves = ctx.leaf_nodes(row as usize);
                let mut best: Option<(f64, usize)> = None;
                for (s, mature) in matures.iter().enumerate() {
                    let mut joined = mature.nodes.clone();
                    ctx.join_nodes_into(&mut joined, &leaves);
                    let joined_cost = ctx.cost(&joined);
                    let raise = joined_cost - mature.cost;
                    let improves = match best {
                        None => true,
                        Some((b, _)) => joined_cost.total_cmp(&b).is_lt(),
                    };
                    if raise.total_cmp(&epsilon).is_lt() && improves {
                        best = Some((joined_cost, s));
                    }
                }
                return best.map(|(_, s)| s);
            }
            (0..m_count).find(|&s| {
                if ctx.arena_join_cost(arena, s, m_count + i).to_bits() != arena.cost(s).to_bits() {
                    return false;
                }
                // Cost equality is necessary; demand an unchanged
                // closure so absorption provably never moves published
                // output.
                let mut joined = matures[s].nodes.clone();
                ctx.join_nodes_into(&mut joined, &ctx.leaf_nodes(row as usize));
                joined == matures[s].nodes
            })
        };
        let verdicts: Vec<Option<usize>> = if new_ids.len() * m_count >= MIN_PAR_SCAN_EVALS {
            kanon_parallel::map(new_ids.len(), decide)
        } else {
            (0..new_ids.len()).map(decide).collect()
        };
        self.arena.truncate(m_count);

        let mut absorbed: Vec<(usize, u32)> = Vec::new();
        let mut pending = self.pending.clone();
        for (i, verdict) in verdicts.iter().enumerate() {
            match verdict {
                Some(slot) => absorbed.push((*slot, new_ids[i])),
                None => pending.push(new_ids[i]),
            }
        }

        // ε-joins may widen a cluster closure: recompute the nodes and
        // cost of every touched slot over all its absorbed rows (the
        // closure of the union — identical to what a snapshot restore
        // recomputes from the member list). Under ε = 0 closures are
        // unchanged by construction and this stays empty.
        let mut widened: Vec<(usize, Vec<NodeId>, f64)> = Vec::new();
        let mut absorbed_eps = 0usize;
        if eps_on {
            let mut by_slot: Vec<(usize, Vec<u32>)> = Vec::new();
            for &(slot, row) in &absorbed {
                match by_slot.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, rows)) => rows.push(row),
                    None => by_slot.push((slot, vec![row])),
                }
            }
            for (slot, rows) in by_slot {
                let mut joined = matures[slot].nodes.clone();
                for &row in &rows {
                    let before = joined.clone();
                    ctx.join_nodes_into(&mut joined, &ctx.leaf_nodes(row as usize));
                    if joined != before {
                        absorbed_eps += 1;
                    }
                }
                if joined != matures[slot].nodes {
                    let cost = ctx.cost(&joined);
                    widened.push((slot, joined, cost));
                }
            }
        }

        // Sub-cluster the pending pool once it can stand on its own.
        let mut new_matures = Vec::new();
        let mut clustered = 0;
        let mut budget_exhausted = false;
        if pending.len() >= self.cfg.k {
            let idx: Vec<usize> = pending.iter().map(|&r| r as usize).collect();
            let sub = table.select_rows(&idx).map_err(KanonError::Core)?;
            let run = try_agglomerative_k_anonymize(
                &sub,
                &self.costs,
                &AgglomerativeConfig::new(self.cfg.k),
            )?;
            budget_exhausted = matches!(run, Budgeted::BudgetExhausted { .. });
            let out = run.into_inner();
            for local in out.clustering.clusters() {
                let mut members: Vec<u32> = local.iter().map(|&li| pending[li as usize]).collect();
                members.sort_unstable();
                clustered += members.len();
                let nodes = ctx.closure_of(&members);
                let cost = ctx.cost(&nodes);
                new_matures.push(Mature {
                    members,
                    nodes,
                    cost,
                });
            }
            pending.clear();
        }
        pending.sort_unstable();
        Ok(StagedApply {
            absorbed,
            absorbed_eps,
            widened,
            new_matures,
            pending,
            clustered,
            budget_exhausted,
        })
    }

    /// Generalized CSV of every published row, ascending global id.
    pub fn published_csv(&self) -> KanonResult<String> {
        let (gtable, _) = self.published_gtable()?;
        Ok(generalized_to_csv(&gtable))
    }

    /// Information loss of the published rows under the serve measure.
    pub fn published_loss(&self) -> KanonResult<f64> {
        let (gtable, _) = self.published_gtable()?;
        Ok(self.costs.table_loss(&gtable))
    }

    /// The published rows as a generalized sub-table plus the global
    /// ids backing each of its rows (ascending).
    fn published_gtable(&self) -> KanonResult<(kanon_core::table::GeneralizedTable, Vec<usize>)> {
        let mut ids: Vec<(u32, usize)> = Vec::new();
        for (c, m) in self.matures.iter().enumerate() {
            for &row in &m.members {
                ids.push((row, c));
            }
        }
        ids.sort_unstable();
        let idx: Vec<usize> = ids.iter().map(|&(row, _)| row as usize).collect();
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); self.matures.len()];
        for (local, &(_, c)) in ids.iter().enumerate() {
            clusters[c].push(local as u32);
        }
        clusters.retain(|c| !c.is_empty());
        let table = self.table();
        let sub = table.select_rows(&idx).map_err(KanonError::Core)?;
        let clustering =
            Clustering::from_clusters(idx.len(), clusters).map_err(KanonError::Core)?;
        let gtable = clustering
            .to_generalized_table(&sub)
            .map_err(KanonError::Core)?;
        Ok((gtable, idx))
    }

    /// Relative loss drift of the incremental clustering against a
    /// from-scratch run: `(incremental - scratch) / scratch`, zero when
    /// the scratch loss is exactly zero.
    fn drift_of(loss_incremental: f64, loss_scratch: f64) -> f64 {
        if loss_scratch.total_cmp(&0.0) == std::cmp::Ordering::Equal {
            0.0
        } else {
            (loss_incremental - loss_scratch) / loss_scratch
        }
    }

    /// Measures loss drift against a fresh sharded run over the same
    /// published rows **without changing any state** — the read-only
    /// half of [`ServeState::reopt`], used by the E-S5 drift-curve
    /// experiment to watch drift accumulate across many batches.
    pub fn probe_drift(&self) -> KanonResult<ReoptOutcome> {
        let shard_cfg = shard_config(&self.cfg);
        let (gtable, idx) = self.published_gtable()?;
        let loss_incremental = self.costs.table_loss(&gtable);
        let table = self.table();
        let sub = table.select_rows(&idx).map_err(KanonError::Core)?;
        let loss_scratch = try_sharded_k_anonymize(&sub, &self.costs, &shard_cfg)?
            .into_inner()
            .out
            .loss;
        Ok(ReoptOutcome {
            loss_incremental,
            loss_scratch,
            drift: Self::drift_of(loss_incremental, loss_scratch),
            clusters: self.matures.len(),
        })
    }

    /// Re-optimizes from scratch: measures the incremental clustering's
    /// loss drift against a fresh sharded run over the published rows,
    /// then adopts a full-table fresh run (publishing everything,
    /// pending included). Unbudgeted — this is maintenance work.
    ///
    /// A successful reopt consumes a sequence number, exactly like a
    /// batch: the daemon journals an `O` record under that seq before
    /// calling this, so recovery replays the reopt at the same point in
    /// the batch sequence and reaches the same published clustering.
    pub fn reopt(&mut self) -> KanonResult<ReoptOutcome> {
        let shard_cfg = shard_config(&self.cfg);
        let table = self.table();
        let full = try_sharded_k_anonymize(&table, &self.costs, &shard_cfg)?
            .into_inner()
            .out;

        let (gtable, idx) = self.published_gtable()?;
        let loss_incremental = self.costs.table_loss(&gtable);
        let loss_scratch = if self.pending.is_empty() {
            // Published set == full table: reuse the run we already did.
            full.loss
        } else {
            let sub = table.select_rows(&idx).map_err(KanonError::Core)?;
            try_sharded_k_anonymize(&sub, &self.costs, &shard_cfg)?
                .into_inner()
                .out
                .loss
        };
        let drift = Self::drift_of(loss_incremental, loss_scratch);

        self.adopt_clustering(&full.clustering);
        self.seq += 1;
        self.reopt_runs += 1;
        self.last_drift = Some(drift);
        count(Counter::ServeReoptRuns, 1);
        Ok(ReoptOutcome {
            loss_incremental,
            loss_scratch,
            drift,
            clusters: self.matures.len(),
        })
    }

    // ------------------------------------------------------------------
    // Snapshot + journal recovery
    // ------------------------------------------------------------------

    /// Writes an atomic snapshot (`tmp` + fsync + rename) to `path`.
    /// Returns `Ok(false)` without writing when the
    /// `serve/snapshot/write` fail point fires — a failed snapshot only
    /// lengthens recovery, it never loses acknowledged batches.
    pub fn write_snapshot(&self, path: &Path) -> std::io::Result<bool> {
        if kanon_fault::armed() && kanon_fault::fires(POINT_SNAPSHOT_WRITE) {
            return Ok(false);
        }
        let mut text = format!(
            "KSNAP1 seq={} batches={} reopts={} base={} rows={} k={} measure={} drift={}\n",
            self.seq,
            self.batches_applied,
            self.reopt_runs,
            self.n_base,
            self.records.len(),
            self.cfg.k,
            match self.cfg.measure {
                Measure::Em => "em",
                Measure::Lm => "lm",
            },
            match self.last_drift {
                Some(d) => format!("{:016x}", d.to_bits()),
                None => "-".to_string(),
            }
        );
        text.push_str(&kanon_data::csv::table_to_csv(&self.table()));
        text.push_str(&format!("MATURES {}\n", self.matures.len()));
        for m in &self.matures {
            let ids: Vec<String> = m.members.iter().map(|r| r.to_string()).collect();
            text.push_str(&format!("M {}\n", ids.join(" ")));
        }
        let ids: Vec<String> = self.pending.iter().map(|r| r.to_string()).collect();
        text.push_str(&format!("PENDING {}\nEND\n", ids.join(" ")));

        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            use std::io::Write as _;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(true)
    }

    /// Restores state from a snapshot written by
    /// [`write_snapshot`](Self::write_snapshot). `cfg` must match the
    /// flags of the writing process (`k` and measure are
    /// cross-checked).
    pub fn restore_snapshot(
        text: &str,
        cfg: ServeConfig,
        schema: SharedSchema,
    ) -> KanonResult<ServeState> {
        let bad = |why: &str| KanonError::Usage(format!("corrupt snapshot: {why}"));
        let (header, rest) = text.split_once('\n').ok_or_else(|| bad("missing header"))?;
        let mut fields = header.split(' ');
        if fields.next() != Some("KSNAP1") {
            return Err(bad("bad magic"));
        }
        let mut seq = 0u64;
        let mut batches = 0u64;
        let mut reopts = 0u64;
        let mut n_base = 0usize;
        let mut n_rows = 0usize;
        let mut drift = None;
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad("bad header field"))?;
            match key {
                "seq" => seq = value.parse().map_err(|_| bad("bad seq"))?,
                "batches" => batches = value.parse().map_err(|_| bad("bad batches"))?,
                "reopts" => reopts = value.parse().map_err(|_| bad("bad reopts"))?,
                "base" => n_base = value.parse().map_err(|_| bad("bad base"))?,
                "rows" => n_rows = value.parse().map_err(|_| bad("bad rows"))?,
                "k" => {
                    let k: usize = value.parse().map_err(|_| bad("bad k"))?;
                    if k != cfg.k {
                        return Err(KanonError::Usage(format!(
                            "snapshot was taken with k={k} but serve was started with k={}",
                            cfg.k
                        )));
                    }
                }
                "measure" => {
                    let m = Measure::parse(value).ok_or_else(|| bad("bad measure"))?;
                    if m != cfg.measure {
                        return Err(KanonError::Usage(
                            "snapshot measure does not match --measure".to_string(),
                        ));
                    }
                }
                "drift" => {
                    if value != "-" {
                        let bits = u64::from_str_radix(value, 16).map_err(|_| bad("bad drift"))?;
                        drift = Some(f64::from_bits(bits));
                    }
                }
                _ => return Err(bad("unknown header field")),
            }
        }

        // The CSV block is n_rows data rows plus its header line.
        let mut lines = rest.split_inclusive('\n');
        let mut csv = String::new();
        for _ in 0..n_rows + 1 {
            csv.push_str(lines.next().ok_or_else(|| bad("truncated rows"))?);
        }
        let (table, _) = table_from_csv_with_policy(&schema, &csv, true, RowPolicy::Strict)
            .map_err(KanonError::Core)?;
        if table.num_rows() != n_rows {
            return Err(bad("row count mismatch"));
        }

        let parse_ids = |line: &str, tag: &str| -> KanonResult<Vec<u32>> {
            let body = line
                .trim_end_matches('\n')
                .strip_prefix(tag)
                .ok_or_else(|| bad("bad section tag"))?;
            body.split_whitespace()
                .map(|w| w.parse::<u32>().map_err(|_| bad("bad row id")))
                .collect()
        };
        let matures_line = lines.next().ok_or_else(|| bad("missing MATURES"))?;
        let n_matures: usize = matures_line
            .trim_end_matches('\n')
            .strip_prefix("MATURES ")
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| bad("bad MATURES line"))?;
        let mut member_lists = Vec::with_capacity(n_matures);
        for _ in 0..n_matures {
            let line = lines.next().ok_or_else(|| bad("truncated matures"))?;
            member_lists.push(parse_ids(line, "M ")?);
        }
        let pending_line = lines.next().ok_or_else(|| bad("missing PENDING"))?;
        let pending = if pending_line.trim_end_matches('\n') == "PENDING" {
            Vec::new()
        } else {
            parse_ids(pending_line, "PENDING ")?
        };
        if lines.next().map(|l| l.trim_end_matches('\n')) != Some("END") {
            return Err(bad("missing END marker"));
        }

        // Costs are pinned to the base epoch: recompute them from the
        // base prefix exactly as bootstrap did.
        let base = table
            .select_rows(&(0..n_base).collect::<Vec<_>>())
            .map_err(KanonError::Core)?;
        let costs = cfg.measure.compute(&base);
        let records = table.rows().to_vec();
        let mut state = ServeState {
            schema,
            cfg,
            costs,
            records,
            n_base,
            matures: Vec::new(),
            pending,
            arena: SigArena::with_capacity(0, 0),
            seq,
            batches_applied: batches,
            reopt_runs: reopts,
            last_drift: drift,
        };
        let table = state.table();
        let ctx = CostContext::new(&table, &state.costs);
        state.matures = member_lists
            .into_iter()
            .map(|members| {
                let nodes = ctx.closure_of(&members);
                let cost = ctx.cost(&nodes);
                Mature {
                    members,
                    nodes,
                    cost,
                }
            })
            .collect();
        drop(ctx);
        state.rebuild_arena();
        Ok(state)
    }

    /// Replays a journal on top of this state: every `B` and `O` record
    /// with `seq` beyond the snapshot — minus those cancelled by a later
    /// `R` rollback marker — is re-applied under its recorded relative
    /// budget. Deterministic code + relative budgets ⇒ the recovered
    /// state is byte-identical to the pre-crash state.
    ///
    /// One crash window needs repair rather than faithful re-execution:
    /// a record is journaled *before* its apply, and a permanent apply
    /// failure only gets its `R` marker after all retries. A `kill -9`
    /// inside that window leaves a journaled record whose replay fails
    /// with the same deterministic error. Since nothing can have been
    /// journaled after it, that record is necessarily the final one —
    /// so a permanently failing **final** record is rolled back at
    /// recovery time (the `R` marker is appended now) instead of
    /// wedging startup. A deterministic failure anywhere earlier means
    /// real corruption or non-determinism and still propagates.
    pub fn replay_journal(&mut self, path: &Path) -> KanonResult<u64> {
        // Repair a crash-torn tail *before* anything reopens the file
        // for appending (the recovery-rollback arm below does, and the
        // daemon reopens right after this returns): appending past a
        // tear would bury it mid-file, where the stop-at-first-bad-
        // record rule hides every later acknowledged record from the
        // next recovery.
        crate::journal::truncate_torn_tail(path)
            .map_err(|e| KanonError::Usage(format!("cannot repair journal tail: {e}")))?;
        let records = read_journal(path)
            .map_err(|e| KanonError::Usage(format!("cannot read journal: {e}")))?;
        crate::journal::validate_order(&records).map_err(KanonError::Usage)?;
        let rolled_back: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == RecordKind::Rollback)
            .map(|r| r.seq)
            .collect();
        let mut replayed = 0;
        for (idx, rec) in records.iter().enumerate() {
            if rec.seq <= self.seq
                || rec.kind == RecordKind::Rollback
                || rolled_back.contains(&rec.seq)
            {
                if rec.kind == RecordKind::Rollback && rec.seq > self.seq {
                    // Acknowledge the failed seq so new batches continue
                    // numbering after it.
                    self.seq = rec.seq;
                }
                continue;
            }
            kanon_fault::fail_point!(POINT_JOURNAL_REPLAY);
            // A gap means burned sequence numbers whose rollback markers
            // were compacted away with the covered prefix; the journal's
            // numbering is authoritative, so the replayed apply must
            // commit under the recorded seq.
            if rec.seq > self.seq + 1 {
                self.seq = rec.seq - 1;
            }
            let outcome = match rec.kind {
                RecordKind::Batch => {
                    let body = std::str::from_utf8(&rec.payload).map_err(|_| {
                        KanonError::Usage("journal payload is not UTF-8".to_string())
                    })?;
                    self.apply_replayed(rec, body)
                }
                RecordKind::Reopt => self.replay_reopt(rec),
                RecordKind::Rollback => unreachable!("rollbacks are filtered above"),
            };
            match outcome {
                Ok(()) => replayed += 1,
                Err(e) if idx == records.len() - 1 && !crate::transient(&e) => {
                    let mut journal = crate::journal::Journal::open(path)
                        .map_err(|je| KanonError::Usage(format!("cannot open journal: {je}")))?;
                    journal
                        .append(rec.seq, RecordKind::Rollback, 0, 0.0, b"")
                        .map_err(|je| {
                            KanonError::Usage(format!("cannot roll back journal tail: {je}"))
                        })?;
                    self.note_rollback(rec.seq);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(replayed)
    }

    fn apply_replayed(&mut self, rec: &JournalRecord, body: &str) -> KanonResult<()> {
        // Each replayed apply runs under its own fresh collector so the
        // recorded relative budget bites at the identical point it did
        // in the original process; the inner counters are then folded
        // into whatever collector the caller installed (the daemon's
        // `recovery` collector), so a recovered daemon can report the
        // replayed work distinctly from its own lifetime.
        let collector = kanon_obs::Collector::new();
        let guard = collector.install();
        let applied = self.apply_batch(body, rec.budget, rec.epsilon());
        drop(guard);
        crate::fold_report(&collector.report());
        count(Counter::ServeJournalReplays, 1);
        match applied {
            Ok(report) => {
                debug_assert_eq!(report.seq, rec.seq);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Re-runs a journaled re-optimization pass. Unbudgeted and
    /// deterministic, so the adopted clustering is byte-identical to
    /// the one the pre-crash process published.
    fn replay_reopt(&mut self, rec: &JournalRecord) -> KanonResult<()> {
        let collector = kanon_obs::Collector::new();
        let guard = collector.install();
        let out = self.reopt();
        drop(guard);
        crate::fold_report(&collector.report());
        count(Counter::ServeJournalReplays, 1);
        out.map(|_| {
            debug_assert_eq!(self.seq, rec.seq);
        })
    }
}

/// Sharded-run config for bootstrap/re-optimization; `shard_max == 0`
/// means "use the default cap, `SHARD_MAX_DEFAULT`".
fn shard_config(cfg: &ServeConfig) -> ShardConfig {
    let base = ShardConfig::new(cfg.k);
    if cfg.shard_max > 0 {
        base.with_shard_max(cfg.shard_max)
    } else {
        base
    }
}

/// Staged (uncommitted) outcome of a batch apply.
struct StagedApply {
    /// `(mature slot, global row id)` absorption assignments.
    absorbed: Vec<(usize, u32)>,
    /// How many absorptions went through the ε tier with a changed
    /// closure (0 whenever ε = 0).
    absorbed_eps: usize,
    /// Post-join closure nodes and cost of every slot an ε-join
    /// widened (empty whenever ε = 0).
    widened: Vec<(usize, Vec<NodeId>, f64)>,
    new_matures: Vec<Mature>,
    pending: Vec<u32>,
    clustered: usize,
    budget_exhausted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::schema::SchemaBuilder;

    fn schema() -> SharedSchema {
        // Two attributes with small two-level hierarchies, mirroring the
        // fixtures used across the algos crates.
        SchemaBuilder::new()
            .categorical_with_groups(
                "zip",
                ["10", "11", "20", "21"],
                &[&["10", "11"], &["20", "21"]],
            )
            .categorical_with_groups(
                "age",
                ["20s", "30s", "60s", "70s"],
                &[&["20s", "30s"], &["60s", "70s"]],
            )
            .build_shared()
            .unwrap()
    }

    fn base_csv() -> &'static str {
        "10,20s\n10,30s\n11,20s\n20,60s\n21,70s\n20,70s\n"
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            k: 2,
            measure: Measure::Lm,
            policy: RowPolicy::Strict,
            shard_max: 0,
            reopt_every: 0,
            absorb_epsilon: 0.0,
        }
    }

    fn boot() -> ServeState {
        let (table, _) =
            table_from_csv_with_policy(&schema(), base_csv(), false, RowPolicy::Strict).unwrap();
        ServeState::bootstrap(table, cfg()).unwrap()
    }

    fn fingerprint(s: &ServeState) -> String {
        let matures: Vec<String> = s
            .matures
            .iter()
            .map(|m| {
                format!(
                    "{:?}:{:?}:{:016x}",
                    m.members,
                    m.nodes.iter().map(|n| n.0).collect::<Vec<_>>(),
                    m.cost.to_bits()
                )
            })
            .collect();
        format!(
            "seq={} batches={} rows={} pending={:?} matures=[{}] out={:?}",
            s.seq,
            s.batches_applied,
            s.records.len(),
            s.pending,
            matures.join(";"),
            s.published_csv().unwrap()
        )
    }

    #[test]
    fn bootstrap_publishes_every_base_row() {
        let s = boot();
        assert_eq!(s.num_rows(), 6);
        assert_eq!(s.published_rows(), 6);
        assert_eq!(s.pending_rows(), 0);
        assert!(s.mature_clusters() >= 1);
        assert_eq!(s.published_csv().unwrap().lines().count(), 7); // header + 6 rows
    }

    #[test]
    fn bootstrap_rejects_tiny_base() {
        let (table, _) =
            table_from_csv_with_policy(&schema(), "10,20s\n", false, RowPolicy::Strict).unwrap();
        let err = ServeState::bootstrap(table, cfg()).unwrap_err();
        assert!(matches!(err, KanonError::Usage(_)));
    }

    #[test]
    fn small_batches_stay_pending_until_k() {
        let mut s = boot();
        let r = s.apply_batch("10,70s\n", 0, 0.0).unwrap();
        // The row either absorbs for free or waits as a pending singleton.
        assert_eq!(r.rows_in, 1);
        assert_eq!(r.absorbed + r.pending, 1);
        assert_eq!(s.num_rows(), 7);
    }

    #[test]
    fn pending_pool_clusters_once_it_reaches_k() {
        let mut s = boot();
        // Rows far from any existing closure (mixed zip branch + age branch).
        s.apply_batch("10,60s\n11,70s\n10,70s\n11,60s\n", 0, 0.0)
            .unwrap();
        assert_eq!(s.pending_rows() % 2, 0);
        assert_eq!(s.published_rows() + s.pending_rows(), 10);
        // All published rows appear in the output, ascending.
        let out = s.published_csv().unwrap();
        assert_eq!(out.lines().count(), 1 + s.published_rows());
    }

    #[test]
    fn absorption_only_happens_when_closure_is_unchanged() {
        let mut s = boot();
        let before = s.published_csv().unwrap();
        let r = s.apply_batch("10,20s\n", 0, 0.0).unwrap();
        if r.absorbed == 1 {
            // The pre-existing published rows must be untouched: the new
            // output is the old output with exactly one extra line.
            let after = s.published_csv().unwrap();
            assert_eq!(after.lines().count(), before.lines().count() + 1);
            for line in before.lines() {
                assert!(after.contains(line));
            }
        }
    }

    #[test]
    fn failed_apply_leaves_state_untouched() {
        let mut s = boot();
        let before = fingerprint(&s);
        // Unknown label -> CoreError under Strict policy.
        let err = s.apply_batch("99,20s\n", 0, 0.0).unwrap_err();
        assert!(matches!(err, KanonError::Core(_)));
        assert_eq!(fingerprint(&s), before);
        // An injected fault before staging also leaves no trace.
        let _g = kanon_fault::scoped(&format!("{POINT_BATCH_APPLY}=once:1"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.apply_batch("10,20s\n", 0, 0.0)
        }))
        .unwrap_err();
        let e = kanon_algos::fallible::error_from_panic(err);
        assert!(matches!(e, KanonError::FaultInjected { .. }));
        assert_eq!(fingerprint(&s), before);
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let mut s = boot();
        s.apply_batch("10,60s\n11,70s\n10,70s\n11,60s\n", 0, 0.0)
            .unwrap();
        s.apply_batch("10,20s\n", 0, 0.0).unwrap();
        let dir = std::env::temp_dir().join(format!("kanon-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        assert!(s.write_snapshot(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let restored = ServeState::restore_snapshot(&text, cfg(), schema()).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&s));
    }

    #[test]
    fn snapshot_k_mismatch_is_a_usage_error() {
        let s = boot();
        let dir = std::env::temp_dir().join(format!("kanon-serve-snapk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        s.write_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut wrong = cfg();
        wrong.k = 3;
        let err = ServeState::restore_snapshot(&text, wrong, schema()).unwrap_err();
        assert!(matches!(err, KanonError::Usage(_)));
    }

    #[test]
    fn replay_reproduces_live_state_byte_identically() {
        use crate::journal::{Journal, RecordKind};
        let dir = std::env::temp_dir().join(format!("kanon-serve-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("journal.log");

        let batches = ["10,60s\n11,70s\n", "10,70s\n11,60s\n", "10,20s\n21,60s\n"];
        // Live process: journal, then apply.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        for b in &batches {
            j.append(live.next_seq(), RecordKind::Batch, 0, 0.0, b.as_bytes())
                .unwrap();
            live.apply_batch(b, 0, 0.0).unwrap();
        }
        drop(j);

        // Crash-restart: bootstrap again, replay the journal.
        let mut recovered = boot();
        let replayed = recovered.replay_journal(&jpath).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(fingerprint(&recovered), fingerprint(&live));
    }

    #[test]
    fn replay_skips_rolled_back_batches() {
        use crate::journal::{Journal, RecordKind};
        let dir = std::env::temp_dir().join(format!("kanon-serve-rollback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("journal.log");

        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"10,60s\n11,70s\n")
            .unwrap();
        live.apply_batch("10,60s\n11,70s\n", 0, 0.0).unwrap();
        // Seq 2 was journaled but permanently failed -> rollback marker.
        j.append(2, RecordKind::Batch, 0, 0.0, b"10,70s\n").unwrap();
        j.append(2, RecordKind::Rollback, 0, 0.0, b"").unwrap();
        drop(j);

        let mut recovered = boot();
        let replayed = recovered.replay_journal(&jpath).unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(recovered.num_rows(), live.num_rows());
        // Rollback advances the sequence so the next accepted batch
        // does not reuse seq 2.
        assert_eq!(recovered.next_seq(), 3);
    }

    #[test]
    fn replay_reproduces_a_reopt_byte_identically() {
        use crate::journal::{Journal, RecordKind};
        let dir =
            std::env::temp_dir().join(format!("kanon-serve-reopt-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("journal.log");

        // Live process: batch, reopt, batch — each journaled first.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"10,60s\n11,70s\n")
            .unwrap();
        live.apply_batch("10,60s\n11,70s\n", 0, 0.0).unwrap();
        j.append(2, RecordKind::Reopt, 0, 0.0, b"").unwrap();
        live.reopt().unwrap();
        j.append(3, RecordKind::Batch, 0, 0.0, b"10,20s\n21,60s\n")
            .unwrap();
        live.apply_batch("10,20s\n21,60s\n", 0, 0.0).unwrap();
        drop(j);

        let mut recovered = boot();
        assert_eq!(recovered.replay_journal(&jpath).unwrap(), 3);
        assert_eq!(fingerprint(&recovered), fingerprint(&live));
        assert_eq!(recovered.reopt_runs(), live.reopt_runs());
        assert_eq!(
            recovered.last_drift().map(f64::to_bits),
            live.last_drift().map(f64::to_bits)
        );
    }

    #[test]
    fn permanently_failing_final_record_is_rolled_back_at_recovery() {
        use crate::journal::{read_journal, Journal, RecordKind};
        let dir =
            std::env::temp_dir().join(format!("kanon-serve-crashwindow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("journal.log");

        // The crash window: seq 2 was journaled, its apply failed
        // deterministically (bad label under Strict), and the process
        // died before appending the rollback marker.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"10,60s\n11,70s\n")
            .unwrap();
        live.apply_batch("10,60s\n11,70s\n", 0, 0.0).unwrap();
        j.append(2, RecordKind::Batch, 0, 0.0, b"99,99\n").unwrap();
        drop(j);

        // Recovery must not wedge: the final record is rolled back (the
        // `R` marker is appended now) and its seq burned.
        let mut recovered = boot();
        assert_eq!(recovered.replay_journal(&jpath).unwrap(), 1);
        assert_eq!(recovered.next_seq(), 3);
        assert_eq!(recovered.num_rows(), live.num_rows());
        let recs = read_journal(&jpath).unwrap();
        assert_eq!(recs.last().unwrap().kind, RecordKind::Rollback);
        assert_eq!(recs.last().unwrap().seq, 2);
        // A second recovery sees the marker and replays cleanly too.
        let mut again = boot();
        assert_eq!(again.replay_journal(&jpath).unwrap(), 1);
        assert_eq!(again.next_seq(), 3);
    }

    #[test]
    fn failing_mid_journal_record_still_propagates() {
        use crate::journal::{Journal, RecordKind};
        let dir = std::env::temp_dir().join(format!("kanon-serve-midfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("journal.log");

        // A deterministically failing record *followed by* another
        // record cannot be a crash window (the live process would have
        // rolled it back before journaling anything else) — that is
        // corruption, and replay must refuse to guess.
        let mut j = Journal::open(&jpath).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"99,99\n").unwrap();
        j.append(2, RecordKind::Batch, 0, 0.0, b"10,60s\n11,70s\n")
            .unwrap();
        drop(j);
        let err = boot().replay_journal(&jpath).unwrap_err();
        assert!(matches!(err, KanonError::Core(_)), "{err:?}");
    }

    #[test]
    fn budgeted_apply_is_deterministic_for_replay() {
        let batch = "10,60s\n11,70s\n10,70s\n11,60s\n20,20s\n21,30s\n";
        let run = |budget: u64| {
            let collector = kanon_obs::Collector::new();
            let _g = collector.install();
            let mut s = boot();
            s.apply_batch(batch, budget, 0.0).unwrap();
            fingerprint(&s)
        };
        // A tight budget produces a (possibly partial) result; the same
        // budget must reproduce it bit-for-bit.
        assert_eq!(run(50), run(50));
        assert_eq!(run(0), run(0));
    }

    #[test]
    fn tiny_epsilon_admits_free_joins_and_refuses_widening() {
        // "11,30s" absorbs for free: its leaves sit inside an existing
        // closure, so the join raises that cluster's loss by exactly
        // zero — admissible under every ε > 0. The tier is a superset
        // of free absorption, not a restriction of it.
        let mut s = boot();
        let r = s.apply_batch("11,30s\n", 0, 1e-12).unwrap();
        assert_eq!(r.absorbed, 1);
        assert_eq!(r.absorbed_eps, 0, "a free join must not count as an ε-join");

        // A row outside every closure can only enter by widening some
        // cluster, and any real widening raises that cluster's loss by
        // far more than 1e-12 — so under a tiny ε it pends, exactly as
        // the free tier would have it.
        let (table, _) = table_from_csv_with_policy(
            &schema(),
            "10,20s\n10,30s\n20,60s\n21,70s\n",
            false,
            RowPolicy::Strict,
        )
        .unwrap();
        let mut s = ServeState::bootstrap(table, cfg()).unwrap();
        let r = s.apply_batch("10,60s\n", 0, 1e-12).unwrap();
        assert_eq!(r.absorbed, 0);
        assert_eq!(r.pending, 1);
    }

    #[test]
    fn large_epsilon_widens_a_cluster_and_stays_consistent() {
        // A 4-row base whose two bootstrap clusters are both tight (no
        // fully-generalized cluster whose closure covers everything), so
        // "10,60s" cannot free-absorb — but a huge ε lets the cheapest
        // cluster widen around it.
        let (table, _) = table_from_csv_with_policy(
            &schema(),
            "10,20s\n10,30s\n20,60s\n21,70s\n",
            false,
            RowPolicy::Strict,
        )
        .unwrap();
        let mut s = ServeState::bootstrap(table, cfg()).unwrap();
        let before_clusters = s.mature_clusters();
        let free = s.apply_batch("10,60s\n", 0, 0.0).unwrap();
        assert_eq!(free.absorbed, 0, "premise: the row must not free-absorb");
        assert_eq!(free.pending, 1);

        let (table, _) = table_from_csv_with_policy(
            &schema(),
            "10,20s\n10,30s\n20,60s\n21,70s\n",
            false,
            RowPolicy::Strict,
        )
        .unwrap();
        let mut s = ServeState::bootstrap(table, cfg()).unwrap();
        let r = s.apply_batch("10,60s\n", 0, 1e9).unwrap();
        assert_eq!(r.absorbed, 1);
        assert_eq!(r.absorbed_eps, 1);
        assert_eq!(s.mature_clusters(), before_clusters);
        assert_eq!(s.pending_rows(), 0);
        // The widened closure must equal the closure a snapshot restore
        // recomputes from the member list — snapshot round-trip is the
        // sharpest check of that invariant.
        let dir = std::env::temp_dir().join(format!("kanon-serve-epssnap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        assert!(s.write_snapshot(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let restored = ServeState::restore_snapshot(&text, cfg(), schema()).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&s));
    }

    #[test]
    fn eps_batches_replay_byte_identically_from_the_journal() {
        use crate::journal::{Journal, RecordKind};
        let dir =
            std::env::temp_dir().join(format!("kanon-serve-epsreplay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("journal.log");

        // Mixed history: an ε batch between two exact ones, journaled
        // with its effective ε so replay re-runs the same criterion.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"10,60s\n11,70s\n")
            .unwrap();
        live.apply_batch("10,60s\n11,70s\n", 0, 0.0).unwrap();
        j.append(2, RecordKind::Batch, 0, 0.75, b"10,70s\n11,30s\n")
            .unwrap();
        live.apply_batch("10,70s\n11,30s\n", 0, 0.75).unwrap();
        j.append(3, RecordKind::Batch, 0, 0.0, b"10,20s\n").unwrap();
        live.apply_batch("10,20s\n", 0, 0.0).unwrap();
        drop(j);

        let mut recovered = boot();
        assert_eq!(recovered.replay_journal(&jpath).unwrap(), 3);
        assert_eq!(fingerprint(&recovered), fingerprint(&live));
    }

    #[test]
    fn replay_rejects_out_of_order_journals() {
        use crate::journal::{Journal, RecordKind};
        for (name, seqs) in [("dup", [1u64, 1]), ("decreasing", [2, 1])] {
            let dir = std::env::temp_dir().join(format!(
                "kanon-serve-seqcheck-{name}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let jpath = dir.join("journal.log");
            let mut j = Journal::open(&jpath).unwrap();
            j.append(seqs[0], RecordKind::Batch, 0, 0.0, b"10,20s\n")
                .unwrap();
            j.append(seqs[1], RecordKind::Batch, 0, 0.0, b"10,30s\n")
                .unwrap();
            drop(j);
            let err = boot().replay_journal(&jpath).unwrap_err();
            match err {
                KanonError::Usage(msg) => {
                    assert!(msg.contains("does not advance"), "{name}: {msg}")
                }
                other => panic!("{name}: wrong error {other:?}"),
            }
        }
        // Gaps stay fine: burned sequence numbers are normal.
        let dir = std::env::temp_dir().join(format!("kanon-serve-seqgap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("journal.log");
        let mut j = Journal::open(&jpath).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"10,20s\n").unwrap();
        j.append(5, RecordKind::Batch, 0, 0.0, b"10,30s\n").unwrap();
        drop(j);
        let mut s = boot();
        assert_eq!(s.replay_journal(&jpath).unwrap(), 2);
        assert_eq!(s.next_seq(), 6);
    }

    #[test]
    fn reopt_measures_drift_and_publishes_everything() {
        let mut s = boot();
        s.apply_batch("10,60s\n", 0, 0.0).unwrap();
        s.apply_batch("11,70s\n", 0, 0.0).unwrap();
        let out = s.reopt().unwrap();
        assert_eq!(s.pending_rows(), 0);
        assert_eq!(s.published_rows(), 8);
        assert!(
            out.drift >= -1e-9,
            "incremental should never beat scratch by much: {out:?}"
        );
        assert_eq!(s.last_drift(), Some(out.drift));
        assert_eq!(s.reopt_runs(), 1);
    }

    #[test]
    fn snapshot_write_fail_point_degrades_gracefully() {
        let s = boot();
        let dir = std::env::temp_dir().join(format!("kanon-serve-snapfp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let _g = kanon_fault::scoped(&format!("{POINT_SNAPSHOT_WRITE}=once:1"));
        assert!(!s.write_snapshot(&path).unwrap());
        assert!(!path.exists());
        // Second attempt (fault exhausted) succeeds.
        assert!(s.write_snapshot(&path).unwrap());
        assert!(path.exists());
    }

    mod compaction_equivalence {
        use super::*;
        use crate::journal::{Journal, RecordKind};
        use proptest::prelude::*;
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// A minimal daemon stand-in driving the exact WAL discipline of
        /// `kanon_serve::Daemon` — journal (fsync) before apply, `R`
        /// markers on failure, recovery via snapshot restore + replay —
        /// with snapshot+compaction either on (every 2 applied batches)
        /// or off (journal-only recovery).
        struct Rig {
            dir: PathBuf,
            snapshotting: bool,
            state: ServeState,
            journal: Journal,
        }

        impl Rig {
            fn open(dir: PathBuf, snapshotting: bool) -> Rig {
                std::fs::create_dir_all(&dir).unwrap();
                let snap = dir.join("state.snap");
                let jpath = dir.join("journal.log");
                let mut state = if snap.exists() {
                    let text = std::fs::read_to_string(&snap).unwrap();
                    ServeState::restore_snapshot(&text, cfg(), schema()).unwrap()
                } else {
                    let (table, _) =
                        table_from_csv_with_policy(&schema(), base_csv(), false, RowPolicy::Strict)
                            .unwrap();
                    ServeState::bootstrap(table, cfg()).unwrap()
                };
                state.replay_journal(&jpath).unwrap();
                let journal = Journal::open(&jpath).unwrap();
                Rig {
                    dir,
                    snapshotting,
                    state,
                    journal,
                }
            }

            fn batch(&mut self, body: &str, eps: f64) {
                let seq = self.state.next_seq();
                self.journal
                    .append(seq, RecordKind::Batch, 0, eps, body.as_bytes())
                    .unwrap();
                match self.state.apply_batch(body, 0, eps) {
                    Ok(_) => self.maybe_snapshot(),
                    Err(_) => {
                        self.journal
                            .append(seq, RecordKind::Rollback, 0, 0.0, b"")
                            .unwrap();
                        self.state.note_rollback(seq);
                    }
                }
            }

            fn reopt(&mut self) {
                let seq = self.state.next_seq();
                self.journal
                    .append(seq, RecordKind::Reopt, 0, 0.0, b"")
                    .unwrap();
                if self.state.reopt().is_err() {
                    self.journal
                        .append(seq, RecordKind::Rollback, 0, 0.0, b"")
                        .unwrap();
                    self.state.note_rollback(seq);
                }
            }

            fn maybe_snapshot(&mut self) {
                // `u64::is_multiple_of` needs Rust 1.87; MSRV is 1.75.
                #[allow(clippy::manual_is_multiple_of)]
                if self.snapshotting
                    && self.state.batches_applied() % 2 == 0
                    && self
                        .state
                        .write_snapshot(&self.dir.join("state.snap"))
                        .unwrap()
                {
                    self.journal.compact(self.state.next_seq() - 1).unwrap();
                }
            }

            /// `kill -9` and restart; `torn` leaves a half-written record
            /// at the journal tail, as a crash mid-append would.
            fn crash(self, torn: bool) -> Rig {
                let Rig {
                    dir, snapshotting, ..
                } = self;
                if torn {
                    let mut f = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(dir.join("journal.log"))
                        .unwrap();
                    std::io::Write::write_all(&mut f, b"KJ1 999 B 0 50 00000000\nxx").unwrap();
                }
                Rig::open(dir, snapshotting)
            }
        }

        fn fresh_dir(tag: &str) -> PathBuf {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("kanon-serve-prop-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// For any interleaving of plain/ε batches, reopts,
            /// rollbacks and (torn) crashes, recovery from snapshot +
            /// compacted journal is byte-identical to recovery from the
            /// full journal.
            #[test]
            fn compacted_recovery_equals_full_journal_recovery(
                ops in proptest::collection::vec(0u8..7, 0..12)
            ) {
                let mut a = Rig::open(fresh_dir("a"), true);
                let mut b = Rig::open(fresh_dir("b"), false);
                for op in ops {
                    match op {
                        0 => { a.batch("10,60s\n11,70s\n", 0.0); b.batch("10,60s\n11,70s\n", 0.0); }
                        1 => { a.batch("10,70s\n", 0.0); b.batch("10,70s\n", 0.0); }
                        2 => { a.batch("11,30s\n20,60s\n", 0.75); b.batch("11,30s\n20,60s\n", 0.75); }
                        3 => { a.batch("99,99\n", 0.0); b.batch("99,99\n", 0.0); } // rolls back
                        4 => { a.reopt(); b.reopt(); }
                        5 => { a = a.crash(false); b = b.crash(false); }
                        _ => { a = a.crash(true); b = b.crash(true); }
                    }
                    prop_assert_eq!(fingerprint(&a.state), fingerprint(&b.state));
                }
                // Final kill -9 on both: the recovered twins must match
                // bit for bit, and the compacting rig's journal must not
                // exceed the full one.
                let ja = std::fs::metadata(a.dir.join("journal.log")).map(|m| m.len()).unwrap_or(0);
                let jb = std::fs::metadata(b.dir.join("journal.log")).map(|m| m.len()).unwrap_or(0);
                prop_assert!(ja <= jb, "compacted journal larger than full: {} > {}", ja, jb);
                let a = a.crash(false);
                let b = b.crash(false);
                prop_assert_eq!(fingerprint(&a.state), fingerprint(&b.state));
                let _ = std::fs::remove_dir_all(&a.dir);
                let _ = std::fs::remove_dir_all(&b.dir);
            }
        }
    }
}
