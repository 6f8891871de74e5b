//! Resident anonymization state: every accepted row, the base-epoch cost
//! table, the mature (published) clusters and the pending pool.
//!
//! A k-anonymization is a clustering whose rows are each published as
//! the closure of their cluster (Sec. V-A.1, Eq. 7). [`ServeState`]
//! stores exactly that: one [`Table`] and one list of mature clusters,
//! each holding its member ids and its closure. The published table,
//! its loss and the snapshot are all derived from those two.
//!
//! Since every member of a cluster publishes the same line, each mature
//! caches that CSV line and its cost, and a row→cluster index
//! (`slot_of`) lists the published rows in id order. Rendering `OUTPUT`
//! is then one pass that appends cached lines; no cell is formatted at
//! commit time except in the clusters the commit created or widened.
//!
//! ## Incremental model
//!
//! The daemon bootstraps from a base table of at least `k` rows through
//! the sharded pipeline. Appended rows enter the pending pool. A batch
//! apply runs in two phases:
//!
//! 1. **Absorption sweep** — a row joins the first mature cluster whose
//!    stored closure already covers it ([`CostContext::covers_row`]).
//!    The closure is unchanged by such a join, so absorption is free:
//!    published rows never change. The sweep parallelizes past the same
//!    measured break-even as the engine's distance scans
//!    ([`kanon_algos::engine::MIN_PAR_SCAN_EVALS`]).
//! 2. **Sub-clustering** — once ≥ k rows are pending, the sharded
//!    pipeline clusters them on a sub-table, exactly as it clusters the
//!    base table, and the resulting clusters mature. A pool larger than
//!    the shard cap is split into shards rather than clustered in one
//!    quadratic run. Fewer than k pending rows stay unpublished
//!    (publishing them would break k-anonymity).
//!
//! All mutation is **staged**: `stage_batch` takes `&self` and returns
//! everything the apply will commit, so an injected fault or budget trip
//! mid-apply leaves the state exactly as before and the request can be
//! retried verbatim.
//!
//! ## Determinism across recovery
//!
//! Work budgets are *relative*: every apply and re-optimization, live or
//! replayed, runs under a fresh [`kanon_obs::Collector`] (`metered` in
//! the crate root), so `spent_work()` starts at zero and the budget
//! recorded in the journal reproduces the identical `BudgetExhausted`
//! cut during replay regardless of process history.

use std::path::Path;
use std::sync::Arc;

use kanon_algos::cost::{CostContext, Tally};
use kanon_algos::engine::MIN_PAR_SCAN_EVALS;
use kanon_algos::fallible::try_sharded_k_anonymize;
use kanon_algos::shard::ShardConfig;
use kanon_core::cluster::Clustering;
use kanon_core::error::{KanonError, KanonResult};
use kanon_core::hierarchy::NodeId;
use kanon_core::schema::{Schema, SharedSchema};
use kanon_core::table::Table;
use kanon_data::csv::{push_generalized_row, push_header, table_from_csv_with_policy, RowPolicy};
use kanon_measures::NodeCostTable;
use kanon_obs::{count, Counter};

use crate::journal::{read_journal, JournalRecord, RecordKind};

/// Fail point: top of every batch apply, before any staging.
pub const POINT_BATCH_APPLY: &str = "serve/batch/apply";
/// Fail point: before each journal record is re-applied on recovery.
pub const POINT_JOURNAL_REPLAY: &str = "serve/journal/replay";
/// Fail point: before a snapshot file is written.
pub const POINT_SNAPSHOT_WRITE: &str = "serve/snapshot/write";

/// Loss-measure selection, mirroring the CLI `--measure` flag.
pub use kanon_measures::Measure;

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
    /// Shard size cap (≥ 1) of every sharded run: bootstrap, pending-pool
    /// sub-clustering and re-optimization.
    pub shard_max: usize,
    /// Re-optimize every N applied batches (0 = only on demand).
    pub reopt_every: u64,
    /// Default ε for the ε-bounded absorption tier (0 = tier off: only
    /// the exact free-absorption criterion applies). A `BATCH
    /// absorb_epsilon=X` request overrides it per batch. See
    /// [`ServeState::apply_batch`] for the criterion.
    pub absorb_epsilon: f64,
}

/// The `slot_of` entry of a pending (unpublished) row.
const PENDING: u32 = u32::MAX;

/// One mature (published) cluster.
#[derive(Debug, Clone)]
struct Mature {
    /// Global row ids, ascending.
    members: Vec<u32>,
    /// Per-attribute closure nodes: what every member is published as.
    nodes: Vec<NodeId>,
    /// Closure cost under the base-epoch cost table.
    cost: f64,
    /// The closure as the LF-terminated CSV line every member publishes.
    line: String,
}

impl Mature {
    /// The cluster of `rows` (rows of `ctx.table`, any order) with its
    /// closure, cost and line. `global` maps a row of `ctx.table` to its
    /// global id and must preserve order, so members stay ascending.
    fn new(ctx: &CostContext, mut rows: Vec<u32>, global: impl Fn(u32) -> u32) -> Mature {
        rows.sort_unstable();
        let nodes = ctx.closure_of(&rows);
        let mut mature = Mature {
            members: rows.into_iter().map(global).collect(),
            nodes: Vec::new(),
            cost: 0.0,
            line: String::new(),
        };
        mature.set_closure(ctx.table.schema(), ctx.costs, nodes);
        mature
    }

    /// Stores `nodes` as the closure, with its cost and published line.
    fn set_closure(&mut self, schema: &Schema, costs: &NodeCostTable, nodes: Vec<NodeId>) {
        self.cost = costs.nodes_cost(&nodes);
        self.line.clear();
        push_generalized_row(&mut self.line, schema, &nodes);
        self.nodes = nodes;
    }
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
    cfg: ServeConfig,
    /// Base-epoch node costs: node-indexed, so valid for every
    /// same-schema table regardless of appended rows.
    costs: NodeCostTable,
    /// All rows ever accepted, base rows first, in arrival order; a
    /// row's index is its global id.
    table: Table,
    n_base: usize,
    matures: Vec<Mature>,
    /// Row → index of its mature cluster, [`PENDING`] for a pending row.
    slot_of: Vec<u32>,
    /// Global ids of unpublished rows, ascending.
    pending: Vec<u32>,
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
        let costs = cfg.measure.costs(&table);
        let out = try_sharded_k_anonymize(&table, &costs, &shard_config(&cfg))?
            .into_inner()
            .out;
        let mut state = ServeState {
            cfg,
            costs,
            n_base: table.num_rows(),
            table,
            matures: Vec::new(),
            slot_of: Vec::new(),
            pending: Vec::new(),
            seq: 0,
            batches_applied: 0,
            reopt_runs: 0,
            last_drift: None,
        };
        state.adopt_clustering(&out.clustering);
        Ok(state)
    }

    /// Adopts a clustering over the *entire* current table: every row
    /// published, pending cleared.
    fn adopt_clustering(&mut self, clustering: &Clustering) {
        let ctx = CostContext::new(&self.table, &self.costs);
        self.matures = clustering
            .clusters()
            .iter()
            .map(|members| Mature::new(&ctx, members.clone(), |row| row))
            .collect();
        self.pending.clear();
        self.index_slots();
    }

    /// Rebuilds `slot_of` from the matures; a row in none is pending.
    fn index_slots(&mut self) {
        self.slot_of = vec![PENDING; self.table.num_rows()];
        for (slot, m) in self.matures.iter().enumerate() {
            for &row in &m.members {
                self.slot_of[row as usize] = slot as u32;
            }
        }
    }

    /// Next batch sequence number (what the journal records before the
    /// matching [`apply_batch`](Self::apply_batch) call).
    pub fn next_seq(&self) -> u64 {
        self.seq + 1
    }

    /// Number of rows in the resident table.
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    /// Number of published (mature-cluster) rows.
    pub fn published_rows(&self) -> usize {
        self.table.num_rows() - self.pending.len()
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
    /// already covers it. With `epsilon > 0` the sweep
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
            table_from_csv_with_policy(self.table.schema(), body, false, self.cfg.policy)
                .map_err(KanonError::Core)?;
        let staged = if budget_units > 0 {
            kanon_obs::with_work_budget(budget_units, || self.stage_batch(&batch, epsilon))
        } else {
            self.stage_batch(&batch, epsilon)
        }?;
        // Commit point: everything below is infallible.
        let rows_in = batch.num_rows();
        self.table.append_unchecked(batch);
        self.slot_of.resize(self.table.num_rows(), PENDING);
        for &(slot, row) in &staged.absorbed {
            let m = &mut self.matures[slot];
            let at = m.members.partition_point(|&x| x < row);
            m.members.insert(at, row);
            self.slot_of[row as usize] = slot as u32;
        }
        for (slot, nodes) in staged.widened {
            self.matures[slot].set_closure(self.table.schema(), &self.costs, nodes);
        }
        for m in staged.new_matures {
            for &row in &m.members {
                self.slot_of[row as usize] = self.matures.len() as u32;
            }
            self.matures.push(m);
        }
        self.pending = staged.pending;
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

    /// Computes everything a batch apply will commit without touching
    /// `self`. It reads only the batch rows, the pending rows and the
    /// matures, so its cost is O(batch + pending), not O(table).
    fn stage_batch(&self, batch: &Table, epsilon: f64) -> KanonResult<StagedApply> {
        // Batch row i gets global id n0 + i at commit.
        let n0 = self.table.num_rows() as u32;
        let ctx = CostContext::new(batch, &self.costs);

        // Absorption sweep over the batch rows: every verdict reads the
        // pre-batch matures only, so the rows can be decided in any
        // order (or in parallel).
        let n_new = batch.num_rows();
        let matures = &self.matures;
        let eps_on = epsilon.to_bits() != 0;
        let decide = |row: usize| -> Option<usize> {
            if !eps_on {
                // One count per row, not one per mature it is tried on.
                let mut tally = Tally::default();
                let home = matures
                    .iter()
                    .position(|m| ctx.covers_row(&m.nodes, row, &mut tally));
                tally.flush();
                return home;
            }
            // ε tier: a cluster is admissible when the join raises its
            // per-member loss by less than ε — a closure-preserving join
            // raises it by exactly zero, so every free home is admissible
            // under any ε > 0. Among the admissible homes the row takes
            // the one that publishes it most cheaply (smallest joined
            // cost, ties toward the lowest slot), instead of the free
            // tier's first fit.
            let leaves = ctx.leaf_nodes(row);
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
            best.map(|(_, s)| s)
        };
        let verdicts: Vec<Option<usize>> = if n_new * matures.len() >= MIN_PAR_SCAN_EVALS {
            kanon_parallel::map(n_new, decide)
        } else {
            (0..n_new).map(decide).collect()
        };

        let mut absorbed: Vec<(usize, u32)> = Vec::new();
        let mut pending = self.pending.clone();
        for (i, verdict) in verdicts.into_iter().enumerate() {
            let row = n0 + i as u32;
            match verdict {
                Some(slot) => absorbed.push((slot, row)),
                None => pending.push(row),
            }
        }

        // ε-joins may widen a cluster closure: recompute the nodes of
        // every touched slot over all its absorbed rows (the closure of
        // the union — identical to what a snapshot restore recomputes
        // from the member list). Under ε = 0 closures are unchanged by
        // construction and this stays empty.
        let mut widened: Vec<(usize, Vec<NodeId>)> = Vec::new();
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
                    ctx.join_nodes_into(&mut joined, &ctx.leaf_nodes((row - n0) as usize));
                    if joined != before {
                        absorbed_eps += 1;
                    }
                }
                if joined != matures[slot].nodes {
                    widened.push((slot, joined));
                }
            }
        }

        // Sub-cluster the pending pool once it can stand on its own.
        let mut new_matures = Vec::new();
        let mut clustered = 0;
        let mut budget_exhausted = false;
        if pending.len() >= self.cfg.k {
            // The pool in id order: the old pending rows, then the
            // batch's, each ascending — sub-table row i is `pending[i]`.
            let rows = pending
                .iter()
                .map(|&row| match row.checked_sub(n0) {
                    Some(i) => batch.row(i as usize).clone(),
                    None => self.table.row(row as usize).clone(),
                })
                .collect();
            let sub = Table::new_unchecked(Arc::clone(self.table.schema()), rows);
            let run = try_sharded_k_anonymize(&sub, &self.costs, &shard_config(&self.cfg))?;
            budget_exhausted = run.is_exhausted();
            let out = run.into_inner().out;
            let sub_ctx = CostContext::new(&sub, &self.costs);
            new_matures = out
                .clustering
                .clusters()
                .iter()
                .map(|local| Mature::new(&sub_ctx, local.clone(), |i| pending[i as usize]))
                .collect();
            // First fit takes the lowest covering slot, so append the new
            // clusters cheapest first: a later row that two of them cover
            // then lands in the tighter one.
            new_matures.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            // The clustering covers the whole sub-table: every pending
            // row is now published.
            clustered = std::mem::take(&mut pending).len();
        }
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

    /// The mature cluster of every published row, ascending row id.
    fn published_matures(&self) -> impl Iterator<Item = &Mature> + '_ {
        (self.slot_of.iter())
            .filter(|&&slot| slot != PENDING)
            .map(|&slot| &self.matures[slot as usize])
    }

    /// Generalized CSV of every published row, ascending global id: the
    /// header, then each row's cached cluster line.
    pub fn published_csv(&self) -> KanonResult<String> {
        let mut out = String::new();
        push_header(&mut out, self.table.schema());
        let rows: usize = (self.matures.iter())
            .map(|m| m.line.len() * m.members.len())
            .sum();
        out.reserve(rows);
        for m in self.published_matures() {
            out.push_str(&m.line);
        }
        Ok(out)
    }

    /// Information loss of the published rows under the serve measure:
    /// the mean closure cost per published row, summed in row order
    /// (bit-identical to `NodeCostTable::table_loss` of the published
    /// table).
    pub fn published_loss(&self) -> KanonResult<f64> {
        let published = self.published_rows();
        if published == 0 {
            return Ok(0.0);
        }
        let sum: f64 = self.published_matures().map(|m| m.cost).sum();
        Ok(sum / published as f64)
    }

    /// Measures the loss drift of the published clustering against a
    /// fresh sharded run over the same published rows. `full_loss` is
    /// the loss of a fresh run over the whole table, reused as the
    /// scratch loss when nothing is pending (the two runs would then be
    /// the same run). `clusters` is the current mature count.
    fn measure_drift(&self, full_loss: Option<f64>) -> KanonResult<ReoptOutcome> {
        let loss_incremental = self.published_loss()?;
        let loss_scratch = match full_loss {
            Some(loss) if self.pending.is_empty() => loss,
            _ => {
                let idx: Vec<usize> = (0..self.table.num_rows())
                    .filter(|&row| self.slot_of[row] != PENDING)
                    .collect();
                let sub = self.table.select_rows(&idx).map_err(KanonError::Core)?;
                try_sharded_k_anonymize(&sub, &self.costs, &shard_config(&self.cfg))?
                    .into_inner()
                    .out
                    .loss
            }
        };
        // Relative drift, zero when the scratch loss is exactly zero.
        let drift = if loss_scratch.total_cmp(&0.0).is_eq() {
            0.0
        } else {
            (loss_incremental - loss_scratch) / loss_scratch
        };
        Ok(ReoptOutcome {
            loss_incremental,
            loss_scratch,
            drift,
            clusters: self.matures.len(),
        })
    }

    /// Measures loss drift against a fresh sharded run over the same
    /// published rows **without changing any state** — the read-only
    /// half of [`ServeState::reopt`], used by the E-S5 drift-curve
    /// experiment to watch drift accumulate across many batches.
    pub fn probe_drift(&self) -> KanonResult<ReoptOutcome> {
        self.measure_drift(None)
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
        let full = try_sharded_k_anonymize(&self.table, &self.costs, &shard_config(&self.cfg))?
            .into_inner()
            .out;
        let mut outcome = self.measure_drift(Some(full.loss))?;
        self.adopt_clustering(&full.clustering);
        self.seq += 1;
        self.reopt_runs += 1;
        self.last_drift = Some(outcome.drift);
        count(Counter::ServeReoptRuns, 1);
        outcome.clusters = self.matures.len();
        Ok(outcome)
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
            self.table.num_rows(),
            self.cfg.k,
            self.cfg.measure.name(),
            match self.last_drift {
                Some(d) => format!("{:016x}", d.to_bits()),
                None => "-".to_string(),
            }
        );
        text.push_str(&kanon_data::csv::table_to_csv(&self.table));
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
        for _ in 0..=n_rows {
            csv.push_str(lines.next().ok_or_else(|| bad("truncated rows"))?);
        }
        let (table, _) = table_from_csv_with_policy(&schema, &csv, true, RowPolicy::Strict)
            .map_err(KanonError::Core)?;
        if table.num_rows() != n_rows {
            return Err(bad("row count mismatch"));
        }
        if n_base > n_rows {
            return Err(bad("base larger than rows"));
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
        // The count is untrusted: the lines, not it, size the list.
        let mut member_lists = Vec::new();
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
        // Every row sits in exactly one place: one mature cluster of at
        // least k rows, or the pending pool.
        let mut placed = vec![false; n_rows];
        let mut place = |id: u32| -> KanonResult<()> {
            let seen = placed
                .get_mut(id as usize)
                .ok_or_else(|| bad(&format!("row id {id} out of range")))?;
            if std::mem::replace(seen, true) {
                return Err(bad(&format!("row {id} listed twice")));
            }
            Ok(())
        };
        for members in &member_lists {
            if members.is_empty() {
                return Err(bad("empty cluster"));
            }
            if members.len() < cfg.k {
                return Err(bad("cluster smaller than k"));
            }
            members.iter().try_for_each(|&id| place(id))?;
        }
        pending.iter().try_for_each(|&id| place(id))?;
        if let Some(row) = placed.iter().position(|&p| !p) {
            return Err(bad(&format!("row {row} neither clustered nor pending")));
        }

        // Costs are pinned to the base epoch: recompute them from the
        // base prefix exactly as bootstrap did.
        let base = table
            .select_rows(&(0..n_base).collect::<Vec<_>>())
            .map_err(KanonError::Core)?;
        let costs = cfg.measure.costs(&base);
        let ctx = CostContext::new(&table, &costs);
        let matures = member_lists
            .into_iter()
            .map(|members| Mature::new(&ctx, members, |row| row))
            .collect();
        drop(ctx);
        let mut state = ServeState {
            cfg,
            costs,
            table,
            n_base,
            matures,
            slot_of: Vec::new(),
            pending,
            seq,
            batches_applied: batches,
            reopt_runs: reopts,
            last_drift: drift,
        };
        state.index_slots();
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
            let outcome = self.replay_record(rec);
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

    /// Re-applies one journaled batch or reopt record. Like the live
    /// request, it runs under a fresh collector ([`crate::metered`]), so
    /// the recorded relative budget bites at the identical point it did
    /// in the original process; the counters are then folded into
    /// whatever collector the caller installed (the daemon's `recovery`
    /// collector), so a recovered daemon reports the replayed work apart
    /// from its own lifetime.
    fn replay_record(&mut self, rec: &JournalRecord) -> KanonResult<()> {
        let (outcome, report) = match rec.kind {
            RecordKind::Batch => {
                let body = std::str::from_utf8(&rec.payload)
                    .map_err(|_| KanonError::Usage("journal payload is not UTF-8".to_string()))?;
                crate::metered(|| self.apply_batch(body, rec.budget, rec.epsilon()).map(drop))
            }
            RecordKind::Reopt => crate::metered(|| self.reopt().map(drop)),
            RecordKind::Rollback => unreachable!("rollbacks are filtered above"),
        };
        crate::fold_report(&report);
        count(Counter::ServeJournalReplays, 1);
        debug_assert!(outcome.is_err() || self.seq == rec.seq);
        outcome
    }
}

/// Sharded-run config of bootstrap, pending sub-clustering and
/// re-optimization.
fn shard_config(cfg: &ServeConfig) -> ShardConfig {
    ShardConfig::new(cfg.k).with_shard_max(cfg.shard_max)
}

/// Staged (uncommitted) outcome of a batch apply.
struct StagedApply {
    /// `(mature slot, global row id)` absorption assignments.
    absorbed: Vec<(usize, u32)>,
    /// How many absorptions went through the ε tier with a changed
    /// closure (0 whenever ε = 0).
    absorbed_eps: usize,
    /// Post-join closure nodes of every slot an ε-join widened (empty
    /// whenever ε = 0).
    widened: Vec<(usize, Vec<NodeId>)>,
    new_matures: Vec<Mature>,
    pending: Vec<u32>,
    clustered: usize,
    budget_exhausted: bool,
}

#[cfg(test)]
mod tests {
    //! Fault points are process-wide, so every test here holds a
    //! `kanon_fault::scoped` guard for its whole run: `scoped("")` when
    //! it arms nothing, else a guard swapped at each arming point (old
    //! guard dropped first — the scope lock is not reentrant).

    use super::*;
    use crate::journal::Journal;
    use kanon_core::record::GeneralizedRecord;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::table::GeneralizedTable;
    use kanon_data::csv::generalized_to_csv;

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
            shard_max: kanon_core::config::SHARD_MAX_DEFAULT,
            reopt_every: 0,
            absorb_epsilon: 0.0,
        }
    }

    fn boot() -> ServeState {
        let (table, _) =
            table_from_csv_with_policy(&schema(), base_csv(), false, RowPolicy::Strict).unwrap();
        ServeState::bootstrap(table, cfg()).unwrap()
    }

    /// The published table as the render built it before clusters
    /// cached their lines: every published row, ascending global id, as
    /// its cluster's stored closure. The reference the cached render is
    /// checked against.
    fn reference_gtable(s: &ServeState) -> GeneralizedTable {
        let mut rows: Vec<(u32, &[NodeId])> = (s.matures.iter())
            .flat_map(|m| m.members.iter().map(|&row| (row, m.nodes.as_slice())))
            .collect();
        rows.sort_unstable_by_key(|&(row, _)| row);
        GeneralizedTable::new_unchecked(
            Arc::clone(s.table.schema()),
            rows.into_iter()
                .map(|(_, nodes)| GeneralizedRecord::new(nodes.iter().copied()))
                .collect(),
        )
    }

    /// Asserts that `OUTPUT`'s CSV and loss equal the reference render's
    /// bytes and bits.
    fn assert_render_matches_reference(s: &ServeState) {
        let reference = reference_gtable(s);
        assert_eq!(s.published_csv().unwrap(), generalized_to_csv(&reference));
        assert_eq!(
            s.published_loss().unwrap().to_bits(),
            s.costs.table_loss(&reference).to_bits()
        );
    }

    /// The whole state as one string. Also checks the invariants the
    /// render relies on: every mature's stored closure, cost and line
    /// are those of its member list, `slot_of` maps each row to its
    /// cluster, and the render equals the reference render.
    fn fingerprint(s: &ServeState) -> String {
        let ctx = CostContext::new(&s.table, &s.costs);
        let mut slot_of = vec![PENDING; s.table.num_rows()];
        for (slot, m) in s.matures.iter().enumerate() {
            let fresh = Mature::new(&ctx, m.members.clone(), |row| row);
            assert_eq!(fresh.nodes, m.nodes, "{:?}", m.members);
            assert_eq!(fresh.cost.to_bits(), m.cost.to_bits());
            assert_eq!(fresh.line, m.line);
            for &row in &m.members {
                slot_of[row as usize] = slot as u32;
            }
        }
        assert_eq!(slot_of, s.slot_of);
        assert_render_matches_reference(s);
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
            s.table.num_rows(),
            s.pending,
            matures.join(";"),
            s.published_csv().unwrap()
        )
    }

    /// A 4-row base whose two bootstrap clusters are both tight: no
    /// closure covers a row that mixes the zip and age branches.
    fn boot_tight() -> ServeState {
        let (table, _) = table_from_csv_with_policy(
            &schema(),
            "10,20s\n10,30s\n20,60s\n21,70s\n",
            false,
            RowPolicy::Strict,
        )
        .unwrap();
        ServeState::bootstrap(table, cfg()).unwrap()
    }

    /// Journals `body` under the next seq, then applies it: the
    /// daemon's write-ahead order.
    fn journal_then_apply(s: &mut ServeState, j: &mut Journal, body: &str, eps: f64) {
        j.append(s.next_seq(), RecordKind::Batch, 0, eps, body.as_bytes())
            .unwrap();
        s.apply_batch(body, 0, eps).unwrap();
    }

    /// A fresh, empty directory for one test's journal or snapshot.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kanon-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The base state with its matures replaced by clusters of the
    /// given base rows, in slot order.
    fn with_matures(slots: &[&[u32]]) -> ServeState {
        let mut s = boot();
        let ctx = CostContext::new(&s.table, &s.costs);
        let matures = slots
            .iter()
            .map(|m| Mature::new(&ctx, m.to_vec(), |row| row))
            .collect();
        drop(ctx);
        s.matures = matures;
        s.index_slots();
        s
    }

    #[test]
    fn a_row_covered_by_two_matures_goes_to_the_lower_slot() {
        let _faults = kanon_fault::scoped("");
        // "10,30s" lies inside both closures: {10,20s / 10,30s} is
        // (10, 20s–30s) and the other four base rows span the root.
        let tight: &[u32] = &[0, 1];
        let wide: &[u32] = &[2, 3, 4, 5];
        for slots in [[tight, wide], [wide, tight]] {
            let mut s = with_matures(&slots);
            let r = s.apply_batch("10,30s\n", 0, 0.0).unwrap();
            assert_eq!(r.absorbed, 1);
            let mut first = slots[0].to_vec();
            first.push(6);
            assert_eq!(s.matures[0].members, first, "first fit, not best fit");
            assert_eq!(s.matures[1].members, slots[1]);
            fingerprint(&s);
        }
    }

    #[test]
    fn parallel_absorption_sweep_is_thread_count_invariant() {
        let _faults = kanon_fault::scoped("");
        let full = kanon_data::art::generate(600, 5);
        let base = full.select_rows(&(0..400).collect::<Vec<_>>()).unwrap();
        let batch = full.select_rows(&(400..600).collect::<Vec<_>>()).unwrap();
        let csv = kanon_data::csv::table_to_csv(&batch);
        let body = csv.split_once('\n').unwrap().1;
        let run = |threads: usize, epsilon: f64| {
            kanon_parallel::with_threads(threads, || {
                let cfg = ServeConfig {
                    k: 3,
                    measure: Measure::Em,
                    ..cfg()
                };
                let mut s = ServeState::bootstrap(base.clone(), cfg).unwrap();
                assert!(
                    batch.num_rows() * s.mature_clusters() >= MIN_PAR_SCAN_EVALS,
                    "premise: the sweep must cross the parallel cutover"
                );
                let (applied, counters) = crate::metered(|| s.apply_batch(body, 0, epsilon));
                applied.unwrap();
                let dispatched =
                    counters.runtime_counter(kanon_obs::RuntimeCounter::PoolTasksDispatched);
                assert_eq!(
                    dispatched > 0,
                    threads > 1,
                    "{threads} threads: {dispatched} tasks"
                );
                (fingerprint(&s), counters.counters_json())
            })
        };
        // The counters are pinned to values recorded before the sweep
        // tallied its probes per row: one count per row moves no total.
        // Re-recorded when the engine's opening scan began probing each
        // pair once: the 61 pending tuples' scan streams
        // 61·60/2 × 6 attributes × 16 bytes = 175 680 fewer bytes.
        for (epsilon, golden) in [(0.0, SWEEP_GOLDEN_FREE), (0.05, SWEEP_GOLDEN_EPS)] {
            let serial = run(1, epsilon);
            assert_eq!(serial.1, golden, "ε = {epsilon}");
            for threads in [2, 8] {
                assert_eq!(
                    run(threads, epsilon),
                    serial,
                    "ε = {epsilon}, {threads} threads"
                );
            }
        }
    }

    const SWEEP_GOLDEN_FREE: &str = concat!(
        "{",
        "\"merges_performed\":40,\"nn_rescans\":100,",
        "\"join_table_hits\":732,\"climb_fallback_hits\":0,",
        "\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,",
        "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
        "\"deficient_records\":0,\"forest_rounds\":0,",
        "\"k1_rows_expanded\":0,\"one_k_upgrades\":0,",
        "\"node_cost_tables\":0,\"cluster_dist_evals\":5485,",
        "\"cache_repairs\":359,\"signature_bytes_streamed\":920112,",
        "\"mondrian_splits\":0,\"mondrian_groups_packed\":0,",
        "\"shards_built\":1,\"shard_rows_max\":61,",
        "\"boundary_repairs\":0,\"distinct_tuples\":61,",
        "\"serve_batches_applied\":1,\"serve_rows_ingested\":200,",
        "\"serve_rows_absorbed\":139,\"serve_reopt_runs\":0,",
        "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,",
        "\"serve_journal_bytes_compacted\":0",
        "}",
    );
    const SWEEP_GOLDEN_EPS: &str = concat!(
        "{",
        "\"merges_performed\":40,\"nn_rescans\":100,",
        "\"join_table_hits\":732,\"climb_fallback_hits\":0,",
        "\"pair_cost_evals\":0,\"hk_augmenting_passes\":0,",
        "\"scc_passes\":0,\"oracle_recomputes\":0,\"upgrade_steps\":0,",
        "\"deficient_records\":0,\"forest_rounds\":0,",
        "\"k1_rows_expanded\":0,\"one_k_upgrades\":0,",
        "\"node_cost_tables\":0,\"cluster_dist_evals\":5485,",
        "\"cache_repairs\":359,\"signature_bytes_streamed\":2904384,",
        "\"mondrian_splits\":0,\"mondrian_groups_packed\":0,",
        "\"shards_built\":1,\"shard_rows_max\":61,",
        "\"boundary_repairs\":0,\"distinct_tuples\":61,",
        "\"serve_batches_applied\":1,\"serve_rows_ingested\":200,",
        "\"serve_rows_absorbed\":139,\"serve_reopt_runs\":0,",
        "\"serve_journal_replays\":0,\"serve_rows_absorbed_eps\":0,",
        "\"serve_journal_bytes_compacted\":0",
        "}",
    );

    #[test]
    fn bootstrap_publishes_every_base_row() {
        let _faults = kanon_fault::scoped("");
        let s = boot();
        assert_eq!(s.num_rows(), 6);
        assert_eq!(s.published_rows(), 6);
        assert_eq!(s.pending_rows(), 0);
        assert!(s.mature_clusters() >= 1);
        assert_eq!(s.published_csv().unwrap().lines().count(), 7); // header + 6 rows
    }

    #[test]
    fn bootstrap_rejects_tiny_base() {
        let _faults = kanon_fault::scoped("");
        let (table, _) =
            table_from_csv_with_policy(&schema(), "10,20s\n", false, RowPolicy::Strict).unwrap();
        let err = ServeState::bootstrap(table, cfg()).unwrap_err();
        assert!(matches!(err, KanonError::Usage(_)));
    }

    #[test]
    fn small_batches_stay_pending_until_k() {
        let _faults = kanon_fault::scoped("");
        let mut s = boot();
        let r = s.apply_batch("10,70s\n", 0, 0.0).unwrap();
        // The row either absorbs for free or waits as a pending singleton.
        assert_eq!(r.rows_in, 1);
        assert_eq!(r.absorbed + r.pending, 1);
        assert_eq!(s.num_rows(), 7);
    }

    #[test]
    fn pending_pool_clusters_once_it_reaches_k() {
        let _faults = kanon_fault::scoped("");
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
    fn new_clusters_are_appended_cheapest_first() {
        let _faults = kanon_fault::scoped("");
        // No bootstrap closure covers these rows; the pair with the
        // higher row ids (6, 7) has the tighter closure.
        let mut s = boot_tight();
        s.apply_batch("10,60s\n11,70s\n20,20s\n20,30s\n", 0, 0.0)
            .unwrap();
        let new: Vec<(&[u32], f64)> = (s.matures[2..].iter())
            .map(|m| (m.members.as_slice(), m.cost))
            .collect();
        assert_eq!(new.len(), 2, "{new:?}");
        assert_eq!((new[0].0, new[1].0), (&[6, 7][..], &[4, 5][..]), "{new:?}");
        assert!(new[0].1 < new[1].1, "{new:?}");
    }

    #[test]
    fn absorption_only_happens_when_closure_is_unchanged() {
        let _faults = kanon_fault::scoped("");
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
        let mut _faults = kanon_fault::scoped("");
        let mut s = boot();
        let before = fingerprint(&s);
        // Unknown label -> CoreError under Strict policy.
        let err = s.apply_batch("99,20s\n", 0, 0.0).unwrap_err();
        assert!(matches!(err, KanonError::Core(_)));
        assert_eq!(fingerprint(&s), before);
        // An injected fault before staging also leaves no trace.
        drop(_faults);
        _faults = kanon_fault::scoped(&format!("{POINT_BATCH_APPLY}=once:1"));
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
        let _faults = kanon_fault::scoped("");
        let mut s = boot();
        s.apply_batch("10,60s\n11,70s\n10,70s\n11,60s\n", 0, 0.0)
            .unwrap();
        s.apply_batch("10,20s\n", 0, 0.0).unwrap();
        let path = scratch_dir("snap").join("state.snap");
        assert!(s.write_snapshot(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let restored = ServeState::restore_snapshot(&text, cfg(), schema()).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&s));
    }

    /// A valid snapshot, as text, whose last row is pending: the boot
    /// state plus one batch row, moved from its cluster to the pool.
    fn snapshot_text(tag: &str) -> String {
        let mut s = boot();
        s.apply_batch("10,20s\n", 0, 0.0).unwrap();
        let path = scratch_dir(tag).join("state.snap");
        assert!(s.write_snapshot(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(" rows=7 ") && text.contains("\nM 0 1 6\n"),
            "{text}"
        );
        let text = text.replace("\nM 0 1 6\n", "\nM 0 1\n");
        text.replace("\nPENDING \n", "\nPENDING 6\n")
    }

    /// `text` with its first line starting `prefix` replaced by `line`.
    fn edit_line(text: &str, prefix: &str, line: &str) -> String {
        let at = text.find(&format!("\n{prefix}")).unwrap() + 1;
        let end = at + text[at..].find('\n').unwrap();
        format!("{}{line}{}", &text[..at], &text[end..])
    }

    fn corrupt_reason(text: &str) -> String {
        match ServeState::restore_snapshot(text, cfg(), schema()) {
            Err(KanonError::Usage(why)) => why,
            other => panic!("expected a corrupt-snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_with_bad_membership_is_rejected() {
        let _faults = kanon_fault::scoped("");
        let text = snapshot_text("snapbad");
        assert!(ServeState::restore_snapshot(&text, cfg(), schema()).is_ok());
        let cases = [
            (
                "M ",
                "M 0 99999",
                "corrupt snapshot: row id 99999 out of range",
            ),
            (
                "PENDING",
                "PENDING 7",
                "corrupt snapshot: row id 7 out of range",
            ),
            ("M ", "M ", "corrupt snapshot: empty cluster"),
            ("M ", "M 0", "corrupt snapshot: cluster smaller than k"),
            ("M ", "M 0 2", "corrupt snapshot: row 2 listed twice"),
            (
                "PENDING",
                "PENDING 0 6",
                "corrupt snapshot: row 0 listed twice",
            ),
            (
                "PENDING",
                "PENDING",
                "corrupt snapshot: row 6 neither clustered nor pending",
            ),
        ];
        for (prefix, line, why) in cases {
            assert_eq!(
                corrupt_reason(&edit_line(&text, prefix, line)),
                why,
                "{line}"
            );
        }
    }

    #[test]
    fn snapshot_count_does_not_size_allocations() {
        let _faults = kanon_fault::scoped("");
        let text = snapshot_text("snapcount");
        let huge = edit_line(&text, "MATURES", &format!("MATURES {}", usize::MAX));
        assert_eq!(corrupt_reason(&huge), "corrupt snapshot: bad section tag");
        let rows = text.replacen(" rows=7 ", &format!(" rows={} ", usize::MAX), 1);
        assert_ne!(rows, text);
        assert_eq!(corrupt_reason(&rows), "corrupt snapshot: truncated rows");
        let base = text.replacen(" base=6 ", &format!(" base={} ", usize::MAX), 1);
        assert_ne!(base, text);
        assert_eq!(
            corrupt_reason(&base),
            "corrupt snapshot: base larger than rows"
        );
    }

    #[test]
    fn snapshot_k_mismatch_is_a_usage_error() {
        let _faults = kanon_fault::scoped("");
        let s = boot();
        let path = scratch_dir("snapk").join("state.snap");
        s.write_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut wrong = cfg();
        wrong.k = 3;
        let err = ServeState::restore_snapshot(&text, wrong, schema()).unwrap_err();
        assert!(matches!(err, KanonError::Usage(_)));
    }

    #[test]
    fn replay_reproduces_live_state_byte_identically() {
        let _faults = kanon_fault::scoped("");
        let jpath = scratch_dir("replay").join("journal.log");

        let batches = ["10,60s\n11,70s\n", "10,70s\n11,60s\n", "10,20s\n21,60s\n"];
        // Live process: journal, then apply.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        for b in &batches {
            journal_then_apply(&mut live, &mut j, b, 0.0);
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
        let _faults = kanon_fault::scoped("");
        let jpath = scratch_dir("rollback").join("journal.log");

        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        journal_then_apply(&mut live, &mut j, "10,60s\n11,70s\n", 0.0);
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
        let _faults = kanon_fault::scoped("");
        let jpath = scratch_dir("reopt-replay").join("journal.log");

        // Live process: batch, reopt, batch — each journaled first.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        journal_then_apply(&mut live, &mut j, "10,60s\n11,70s\n", 0.0);
        j.append(2, RecordKind::Reopt, 0, 0.0, b"").unwrap();
        live.reopt().unwrap();
        journal_then_apply(&mut live, &mut j, "10,20s\n21,60s\n", 0.0);
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
        let _faults = kanon_fault::scoped("");
        let jpath = scratch_dir("crashwindow").join("journal.log");

        // The crash window: seq 2 was journaled, its apply failed
        // deterministically (bad label under Strict), and the process
        // died before appending the rollback marker.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        journal_then_apply(&mut live, &mut j, "10,60s\n11,70s\n", 0.0);
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
        let _faults = kanon_fault::scoped("");
        let jpath = scratch_dir("midfail").join("journal.log");

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
        let _faults = kanon_fault::scoped("");
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
        let _faults = kanon_fault::scoped("");
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
        let mut s = boot_tight();
        let r = s.apply_batch("10,60s\n", 0, 1e-12).unwrap();
        assert_eq!(r.absorbed, 0);
        assert_eq!(r.pending, 1);
    }

    #[test]
    fn large_epsilon_widens_a_cluster_and_stays_consistent() {
        let _faults = kanon_fault::scoped("");
        // A 4-row base whose two bootstrap clusters are both tight (no
        // fully-generalized cluster whose closure covers everything), so
        // "10,60s" cannot free-absorb — but a huge ε lets the cheapest
        // cluster widen around it.
        let mut s = boot_tight();
        let before_clusters = s.mature_clusters();
        let free = s.apply_batch("10,60s\n", 0, 0.0).unwrap();
        assert_eq!(free.absorbed, 0, "premise: the row must not free-absorb");
        assert_eq!(free.pending, 1);

        let mut s = boot_tight();
        let r = s.apply_batch("10,60s\n", 0, 1e9).unwrap();
        assert_eq!(r.absorbed, 1);
        assert_eq!(r.absorbed_eps, 1);
        assert_eq!(s.mature_clusters(), before_clusters);
        assert_eq!(s.pending_rows(), 0);
        // The widened closure must equal the closure a snapshot restore
        // recomputes from the member list — snapshot round-trip is the
        // sharpest check of that invariant.
        let path = scratch_dir("epssnap").join("state.snap");
        assert!(s.write_snapshot(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let restored = ServeState::restore_snapshot(&text, cfg(), schema()).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&s));
    }

    #[test]
    fn eps_batches_replay_byte_identically_from_the_journal() {
        let _faults = kanon_fault::scoped("");
        let jpath = scratch_dir("epsreplay").join("journal.log");

        // Mixed history: an ε batch between two exact ones, journaled
        // with its effective ε so replay re-runs the same criterion.
        let mut live = boot();
        let mut j = Journal::open(&jpath).unwrap();
        journal_then_apply(&mut live, &mut j, "10,60s\n11,70s\n", 0.0);
        journal_then_apply(&mut live, &mut j, "10,70s\n11,30s\n", 0.75);
        journal_then_apply(&mut live, &mut j, "10,20s\n", 0.0);
        drop(j);

        let mut recovered = boot();
        assert_eq!(recovered.replay_journal(&jpath).unwrap(), 3);
        assert_eq!(fingerprint(&recovered), fingerprint(&live));
    }

    #[test]
    fn replay_rejects_out_of_order_journals() {
        let _faults = kanon_fault::scoped("");
        for (name, seqs) in [("dup", [1u64, 1]), ("decreasing", [2, 1])] {
            let jpath = scratch_dir(&format!("seqcheck-{name}")).join("journal.log");
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
        let jpath = scratch_dir("seqgap").join("journal.log");
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
        let _faults = kanon_fault::scoped("");
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

    /// A schema whose every published cell needs CSV quoting: the leaf
    /// labels hold a double quote and the inner nodes `{…,…}` a comma.
    fn quoting_schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "size",
                ["4\"", "5\"", "8\"", "9\""],
                &[&["4\"", "5\""], &["8\"", "9\""]],
            )
            .categorical_with_groups(
                "zip",
                ["10", "11", "20", "21"],
                &[&["10", "11"], &["20", "21"]],
            )
            .build_shared()
            .unwrap()
    }

    #[test]
    fn cached_render_matches_the_reference_render_at_every_step() {
        let _faults = kanon_fault::scoped("");
        let schema = quoting_schema();
        let dir = scratch_dir("render");
        let jpath = dir.join("journal.log");
        let boot = || {
            let base = "\"4\"\"\",10\n\"5\"\"\",10\n\"8\"\"\",20\n\"9\"\"\",21\n";
            let (table, _) =
                table_from_csv_with_policy(&schema, base, false, RowPolicy::Strict).unwrap();
            ServeState::bootstrap(table, cfg()).unwrap()
        };
        let mut s = boot();
        assert_render_matches_reference(&s);
        let out = s.published_csv().unwrap();
        assert!(
            out.contains("\n\"{4\"\",5\"\"}\",10\n"),
            "premise: quoted cells\n{out}"
        );
        let mut j = Journal::open(&jpath).unwrap();
        let step = |s: &mut ServeState, j: &mut Journal, body: &str, eps: f64| {
            j.append(s.next_seq(), RecordKind::Batch, 0, eps, body.as_bytes())
                .unwrap();
            let r = s.apply_batch(body, 0, eps).unwrap();
            fingerprint(s);
            r
        };
        // Free absorption: the row lies inside the first closure.
        let r = step(&mut s, &mut j, "\"5\"\"\",10\n", 0.0);
        assert_eq!((r.absorbed, r.absorbed_eps), (1, 0), "{r:?}");
        // Pending sub-clustering: no closure covers either row.
        let r = step(&mut s, &mut j, "\"4\"\"\",20\n\"5\"\"\",21\n", 0.0);
        assert_eq!((r.absorbed, r.clustered), (0, 2), "{r:?}");
        // ε widening: a huge ε lets a cluster grow around the row.
        let r = step(&mut s, &mut j, "\"8\"\"\",10\n", 1e9);
        assert_eq!(r.absorbed_eps, 1, "{r:?}");
        // REOPT, journaled first, then one more batch on the new clusters.
        j.append(s.next_seq(), RecordKind::Reopt, 0, 0.0, b"")
            .unwrap();
        s.reopt().unwrap();
        fingerprint(&s);
        step(&mut s, &mut j, "\"9\"\"\",11\n\"4\"\"\",21\n", 0.0);
        drop(j);

        // Snapshot restore and journal replay rebuild the cached lines
        // and the row index: both render the live bytes.
        let snap = dir.join("state.snap");
        assert!(s.write_snapshot(&snap).unwrap());
        let text = std::fs::read_to_string(&snap).unwrap();
        let restored = ServeState::restore_snapshot(&text, cfg(), schema.clone()).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&s));
        let mut replayed = boot();
        assert_eq!(replayed.replay_journal(&jpath).unwrap(), 5);
        assert_eq!(fingerprint(&replayed), fingerprint(&s));
    }

    #[test]
    fn snapshot_write_fail_point_degrades_gracefully() {
        let mut _faults = kanon_fault::scoped("");
        let s = boot();
        let path = scratch_dir("snapfp").join("state.snap");
        drop(_faults);
        _faults = kanon_fault::scoped(&format!("{POINT_SNAPSHOT_WRITE}=once:1"));
        assert!(!s.write_snapshot(&path).unwrap());
        assert!(!path.exists());
        // Second attempt (fault exhausted) succeeds.
        assert!(s.write_snapshot(&path).unwrap());
        assert!(path.exists());
    }

    mod compaction_equivalence {
        use super::*;
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
                if self.snapshotting
                    && self.state.batches_applied().is_multiple_of(2)
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
                let _faults = kanon_fault::scoped("");
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
