//! The shared closest-pair clustering engine.
//!
//! Every agglomerative anonymizer in this workspace has the same inner
//! loop: keep a pool of *active* clusters, repeatedly unify the two
//! closest ones, and move a cluster to the output once it satisfies a
//! maturity condition (size ≥ k for plain k-anonymity; size ≥ k *and*
//! ℓ distinct sensitive values for ℓ-diversity). Rescanning all pairs on
//! every merge makes that loop O(n³); this module keeps a per-cluster
//! nearest-neighbour cache that makes it O(n²) expected, shared by
//! every variant of the loop.
//!
//! ## What the engine owns
//!
//! * the working `Cluster` — members, closure nodes and closure cost,
//!   plus a policy-defined extra — with its singleton, merge and
//!   budget-combine steps;
//! * the one cluster distance: the paper defines every distance from
//!   sizes and closure costs alone (Sec. V-A.2), so the engine mirrors
//!   each cluster into a [`SigArena`], prices joins through one
//!   [`SlotScan`] per scan, and evaluates the run's `RunDistance`
//!   (D3's `log2` read from a table) in one place. Every scan hands its
//!   candidates to the kernel as slot batches (a row of the opening
//!   triangle, the active slots on either side of the scanned one, a
//!   newcomer chunk), whose join costs `SlotScan::join_costs` sums one
//!   attribute at a time into a scratch buffer before they are priced;
//! * the per-cluster **top-2 nearest-neighbour cache** (`NearestPair`
//!   with the `Runner` exactness state machine) and its repair rules;
//! * the triangular opening scan (one join cost per pair, both
//!   orientations priced from it) and the batched cache-repair rescans,
//!   parallel through `kanon-parallel` and byte-identical at any worker
//!   count;
//! * the whole run of Algorithm 1: the singletons (retiring those that
//!   are already mature, which covers k = 1), the replay of the loop's
//!   zero-distance prefix per tuple class (below), the merge loop with a
//!   `kanon-fault` failpoint (`ClusterPolicy::FAIL_POINT`) and the
//!   deterministic work-budget checkpoint (`KANON_WORK_BUDGET`) at the
//!   top of every iteration, the global-min selection with its
//!   debug-build exactness assert, the `kanon-obs` counters
//!   (`distinct_tuples`, `merges_performed`, `cluster_dist_evals`,
//!   `cache_repairs`, `nn_rescans`), the phase spans
//!   (`duplicate_replay`, `initial_scan`, `merge_loop`), and the leftover
//!   distribution of line 10.
//!
//! ## Duplicates
//!
//! Rows with one tuple are at distance 0 under EM and LM, and nothing
//! else is, so the loop opens by merging copies. When the costs and the
//! distance make that exact (`zero_distance_is_duplicate`: leaves cost
//! 0, inner LCAs cost more, D1 or D3), `replay_duplicates` makes those
//! merges per [`TupleClasses`] class in the loop's order, from two cache
//! rules, without a distance evaluation; the loop then starts from the
//! survivors. The output, merge count and failpoint hits match the plain
//! loop, which the unit tests keep as the oracle.
//!
//! ## What callers own
//!
//! The `ClusterPolicy`: a singleton's extra, how extras fold on merge,
//! when a cluster matures, an optional post-maturity eviction, and the
//! text of the error raised when nothing matures. Outside the engine
//! they keep input validation. `run` returns the final member lists,
//! marked with the budget verdict.
//!
//! ## Determinism contract
//!
//! All selections use the total order of `closer` (distance, then slot
//! index), every parallel primitive combines per-index results in index
//! order, and counters sum per-index work: each scan, parallel chunk and
//! repair pass tallies its work locally and counts the total once, so
//! chunk boundaries move no total. Clusterings, losses and the
//! deterministic counter block are therefore byte-identical at any
//! `KANON_THREADS`. The determinism proptests pin this for both engine
//! clients.

use crate::cost::{CostContext, SigArena, SlotScan, Tally};
use crate::distance::{ClusterDistance, RunDistance};
use crate::fallible::{Budget, Budgeted};
use kanon_core::classes::TupleClasses;
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::NodeId;
use kanon_obs::Counter;
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

/// Minimum estimated distance evaluations in one batch before the
/// engine fans the batch out to the worker pool. Measured, not guessed:
/// `benches/engine_rescan.rs` times warm-pool batched dispatches
/// against the serial pass over batch sizes. The constant was set when
/// one fused-kernel evaluation took ~47 ns and a warm dispatch
/// ~25–35 µs end to end, a break-even of ~1100 evals for 2 workers and
/// ~600 for 8, as the conservative next power of two above the worst
/// case. Since scans price attribute-major batches through a hoisted
/// [`SlotScan`] one evaluation takes ~15 ns on a shared 2-vCPU host,
/// which moves the computed 2-worker break-even to ~3300–4000 evals;
/// there the measured pool and serial curves cross between 4096 and
/// 16 384. The constant stays until it can be re-tuned on dedicated
/// cores (see EXPERIMENTS.md E-S3; the old per-call-spawn layer gated
/// on ~64 *items* regardless of per-item cost, which is what made small
/// repair batches negative).
/// Public because every packed distance scan in the workspace — the
/// engine's own rescans and the serve daemon's absorption sweep over
/// resident mature-cluster signatures — faces the same break-even, so
/// they must share one measured constant instead of re-guessing it.
pub const MIN_PAR_SCAN_EVALS: usize = 2048;

/// One working cluster: sorted members, closure nodes and closure cost,
/// plus the policy's extra (`()` for Algorithms 1–2, the sensitive-value
/// histogram for ℓ-diversity).
#[derive(Debug)]
pub(crate) struct Cluster<X> {
    pub(crate) members: Vec<u32>,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) cost: f64,
    pub(crate) extra: X,
}

impl<X> Cluster<X> {
    /// The one-record cluster `{row}`.
    pub(crate) fn singleton(ctx: &CostContext<'_>, row: u32, extra: X) -> Self {
        let nodes = ctx.leaf_nodes(row as usize);
        let cost = ctx.cost(&nodes);
        Cluster {
            members: vec![row],
            nodes,
            cost,
            extra,
        }
    }

    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.members.len()
    }

    /// Unifies two clusters: members stay sorted, the closure is the
    /// join, and `fold` merges `b`'s extra into `a`'s.
    pub(crate) fn merge(
        ctx: &CostContext<'_>,
        a: Self,
        b: Self,
        fold: impl FnOnce(&mut X, X),
    ) -> Self {
        let mut members = a.members;
        members.extend_from_slice(&b.members);
        members.sort_unstable();
        let mut nodes = a.nodes;
        ctx.join_nodes_into(&mut nodes, &b.nodes);
        let cost = ctx.cost(&nodes);
        let mut extra = a.extra;
        fold(&mut extra, b.extra);
        Cluster {
            members,
            nodes,
            cost,
            extra,
        }
    }
}

/// The maturity policy a caller plugs into [`run`]. The engine owns the
/// cluster and its distance; a policy only says how extras combine and
/// when a cluster may leave the pool. Implementations must be pure —
/// the engine relies on every call with the same inputs giving the same
/// answer.
pub(crate) trait ClusterPolicy: Sync {
    /// Per-cluster data beyond members and closure.
    type Extra: Send + Sync;

    /// Name of the `kanon-fault` failpoint armed at the top of every
    /// merge iteration (see the catalogue in `kanon-fault`'s docs).
    const FAIL_POINT: &'static str;

    /// The extra of the singleton `{row}`.
    fn singleton_extra(&self, row: u32) -> Self::Extra;

    /// Folds `from` (the second merge operand's extra) into `into`.
    fn fold(&self, into: &mut Self::Extra, from: Self::Extra);

    /// Has this cluster matured (ready to move to the output)?
    fn is_mature(&self, c: &Cluster<Self::Extra>) -> bool;

    /// Hook invoked on a cluster that just matured, *before* it is moved
    /// to the output; returns clusters to re-activate. Algorithm 2 uses
    /// this to shrink ripe clusters back to size k and recycle the
    /// evicted records as singletons. The default recycles nothing.
    fn on_mature(
        &self,
        ctx: &CostContext<'_>,
        c: &mut Cluster<Self::Extra>,
    ) -> Vec<Cluster<Self::Extra>> {
        let _ = (ctx, c);
        Vec::new()
    }

    /// Text of the [`CoreError::InvalidClustering`] raised when no
    /// cluster of the `n` rows matured, so the leftover has nowhere to go.
    fn infeasible(&self, n: usize) -> String;
}

/// Nearest-neighbour cache entry: distance and target slot.
#[derive(Debug, Clone, Copy)]
struct Nearest {
    dist: f64,
    target: usize,
}

/// What a slot knows about its runner-up candidate.
#[derive(Debug, Clone, Copy)]
enum Runner {
    /// Exact knowledge: `Some` = the true 2nd-nearest at last full scan
    /// (maintained through newcomer insertions), `None` = fewer than two
    /// candidates existed. Every candidate outside the top-2 is at least
    /// as far as the runner-up.
    Exact(Option<Nearest>),
    /// Unknown: the previous runner-up was promoted to best by a
    /// fallback. The invariant that survives is weaker — every candidate
    /// outside the cache is at least as far as the *best* — so newcomers
    /// may still take over best, but the runner slot must not be filled
    /// (an unseen candidate could be closer), and the next best-death
    /// forces a full rescan.
    Unknown,
}

/// Top-2 nearest neighbours of a slot. Keeping the runner-up lets a slot
/// whose nearest neighbour was merged away fall back without a full
/// rescan; the [`Runner`] state tracks exactly when that shortcut is
/// sound.
#[derive(Debug, Clone, Copy)]
struct NearestPair {
    best: Nearest,
    second: Runner,
}

/// Strict "closer" order with deterministic index tie-break.
#[inline]
pub(crate) fn closer(d1: f64, t1: usize, d2: f64, t2: usize) -> bool {
    d1.total_cmp(&d2).is_lt() || (d1 == d2 && t1 < t2)
}

/// The two nearest candidates seen so far under `closer`. Of equal
/// candidates the first seen stays ahead.
#[derive(Debug, Clone, Copy, Default)]
struct Top2 {
    best: Option<Nearest>,
    second: Option<Nearest>,
}

impl Top2 {
    #[inline]
    fn push(&mut self, dist: f64, target: usize) {
        let cand = Nearest { dist, target };
        match self.best {
            None => self.best = Some(cand),
            Some(b) if closer(dist, target, b.dist, b.target) => {
                self.second = self.best;
                self.best = Some(cand);
            }
            Some(_) => match self.second {
                None => self.second = Some(cand),
                Some(sn) if closer(dist, target, sn.dist, sn.target) => self.second = Some(cand),
                Some(_) => {}
            },
        }
    }

    /// Takes in the top-2 of candidates that arrive after this one's.
    fn merge(&mut self, later: Top2) {
        for n in [later.best, later.second].into_iter().flatten() {
            self.push(n.dist, n.target);
        }
    }

    /// The cache entry, with an exact runner-up.
    fn finish(self) -> Option<NearestPair> {
        self.best.map(|b| NearestPair {
            best: b,
            second: Runner::Exact(self.second),
        })
    }
}

/// The two nearest of `(distance, slot)` candidates under `closer`, with
/// an exact runner-up.
fn top2(candidates: impl Iterator<Item = (f64, usize)>) -> Option<NearestPair> {
    let mut top = Top2::default();
    for (dist, target) in candidates {
        top.push(dist, target);
    }
    top.finish()
}

/// Row cuts that split the upper triangle of an `n × n` pair matrix into
/// at most `bands` bands of rows with about equal pair counts (row `i`
/// holds the `n − 1 − i` pairs `(i, j > i)`). Starts at 0, ends at `n`.
fn band_cuts(n: usize, bands: usize) -> Vec<usize> {
    let total = n * n.saturating_sub(1) / 2;
    let mut cuts = vec![0];
    let mut before = 0;
    for i in 0..n {
        if cuts.len() < bands && before * bands >= total * cuts.len() && i > 0 {
            cuts.push(i);
        }
        before += n - 1 - i;
    }
    cuts.push(n);
    cuts
}

struct State<'p, 'a, P: ClusterPolicy> {
    ctx: &'p CostContext<'a>,
    distance: RunDistance,
    /// Cluster storage; `None` = slot retired (merged away or matured).
    slots: Vec<Option<Cluster<P::Extra>>>,
    /// Slots that are currently active (immature clusters, the γ̂ of the
    /// paper).
    active: Vec<usize>,
    /// Per-slot nearest-neighbour cache (meaningful for active slots).
    nearest: Vec<Option<NearestPair>>,
    /// Every slot's signature, size and cost, kept in lock-step with
    /// `slots`: distance scans stream its contiguous lanes instead of
    /// chasing per-cluster heap vectors.
    arena: SigArena,
    /// Scratch (reused across merges): slots needing a full rescan.
    repair_scratch: Vec<usize>,
    /// Scratch (reused across merges): newcomer distance buffer.
    dist_scratch: Vec<f64>,
}

impl<'p, 'a, P: ClusterPolicy> State<'p, 'a, P> {
    /// The state of a merge loop over the immature `initial` clusters:
    /// one active slot each, in order, with every slot's top-2 from the
    /// opening scan.
    fn new(
        ctx: &'p CostContext<'a>,
        distance: ClusterDistance,
        initial: Vec<Cluster<P::Extra>>,
    ) -> Self {
        let n = initial.len();
        let rows = initial.iter().map(Cluster::size).sum();
        // Capacity 2n+1 covers the worst case: every merge adds one slot,
        // and n clusters admit at most n−1 merges plus recycled
        // singletons; the arena appends densely past that anyway.
        let mut st = State {
            ctx,
            distance: RunDistance::new(distance, rows),
            slots: Vec::with_capacity(n),
            active: (0..n).collect(),
            nearest: Vec::with_capacity(n),
            arena: SigArena::with_capacity(ctx.num_attrs(), 2 * n + 1),
            repair_scratch: Vec::new(),
            dist_scratch: Vec::new(),
        };
        for c in initial {
            st.push_slot(c);
        }
        st.nearest = st.opening_scan();
        st
    }

    /// `dist(a, b)` between two stored slots whose join costs `cost_u`:
    /// the one place a cluster distance is evaluated. The caller counts
    /// the evaluation.
    #[inline]
    fn price(&self, a: usize, b: usize, cost_u: f64) -> f64 {
        let arena = &self.arena;
        self.distance.eval(
            arena.size(a),
            arena.cost(a),
            arena.size(b),
            arena.cost(b),
            cost_u,
        )
    }

    /// The scan from `slot`, for pricing its joins with other slots.
    fn scan(&self, slot: usize) -> SlotScan<'_> {
        self.ctx.slot_scan(&self.arena, slot)
    }

    /// Every slot's top-2 over all the others — what `scan_nearest` of
    /// each slot returns, from one join cost per pair. Walks the upper
    /// triangle row by row: pair `(i, j)`, `i < j`, prices `dist(i, j)`
    /// into slot `i`'s top-2 and `dist(j, i)` into slot `j`'s from the
    /// same join cost (joins are symmetric; the two orientations are
    /// priced apart because subtraction is not). Each slot receives its
    /// candidates in ascending slot order, as its own scan over
    /// `active = 0..n` would, so the caches and the counted
    /// `nn_rescans` and `cluster_dist_evals` equal those of the `n`
    /// scans; `signature_bytes_streamed` and `climb_fallback_hits` halve.
    ///
    /// Past the dispatch cutover, rows split into bands of about equal
    /// pair counts, one per worker, each with its own top-2 array; the
    /// arrays merge in band order. `closer` is a total order, so a
    /// merged top-2 equals the serial one at any band count, and each
    /// pair is priced once in any band split.
    fn opening_scan(&self) -> Vec<Option<NearestPair>> {
        let n = self.slots.len();
        kanon_obs::count(Counter::NnRescans, n as u64);
        // Still `0..n` here, so row i's batch is `active[i + 1..]`.
        debug_assert!(self.active.iter().copied().eq(0..n), "opening slots");
        let band = |rows: Range<usize>| {
            let mut tops = vec![Top2::default(); n];
            let mut costs = vec![0.0; n];
            let (mut evals, mut tally) = (0u64, Tally::default());
            for i in rows {
                let batch = &self.active[i + 1..];
                let costs = &mut costs[..batch.len()];
                self.scan(i).join_costs(batch, costs, &mut tally);
                for (&j, &cost_u) in batch.iter().zip(costs.iter()) {
                    tops[i].push(self.price(i, j, cost_u), j);
                    tops[j].push(self.price(j, i, cost_u), i);
                }
                evals += 2 * batch.len() as u64;
            }
            kanon_obs::count(Counter::ClusterDistEvals, evals);
            tally.flush();
            tops
        };
        let bands = if n * n.saturating_sub(1) >= MIN_PAR_SCAN_EVALS {
            kanon_parallel::num_threads()
        } else {
            1
        };
        let cuts = band_cuts(n, bands);
        let mut bands =
            kanon_parallel::map_coarse(cuts.len() - 1, |b| band(cuts[b]..cuts[b + 1])).into_iter();
        // kanon-lint: allow(L006) band_cuts yields at least one band
        let mut tops = bands.next().expect("at least one band");
        for later in bands {
            for (top, l) in tops.iter_mut().zip(later) {
                top.merge(l);
            }
        }
        tops.into_iter().map(Top2::finish).collect()
    }

    /// Stores `cluster` in a new slot and mirrors it into the arena.
    fn push_slot(&mut self, cluster: Cluster<P::Extra>) -> usize {
        let slot = self.slots.len();
        self.arena
            .store(slot, &cluster.nodes, cluster.size(), cluster.cost);
        self.slots.push(Some(cluster));
        self.nearest.push(None);
        slot
    }

    /// Scans all active slots (except `slot`) for the two nearest
    /// neighbours of `slot`. Deterministic tie-break on slot index. The
    /// candidates are priced as batches, the active slots on either side
    /// of `slot`, so they arrive in active order. The scan's work is
    /// counted once, at its end.
    fn scan_nearest(&self, slot: usize) -> Option<NearestPair> {
        let scan = self.scan(slot);
        let mut costs = vec![0.0; self.active.len()];
        let (mut top, mut evals, mut tally) = (Top2::default(), 0u64, Tally::default());
        for batch in self.active.split(|&other| other == slot) {
            let costs = &mut costs[..batch.len()];
            scan.join_costs(batch, costs, &mut tally);
            for (&other, &cost_u) in batch.iter().zip(costs.iter()) {
                top.push(self.price(slot, other, cost_u), other);
            }
            evals += batch.len() as u64;
        }
        kanon_obs::count(Counter::NnRescans, 1);
        kanon_obs::count(Counter::ClusterDistEvals, evals);
        tally.flush();
        top.finish()
    }

    /// Adds a cluster as a new active slot; refreshes its own cache and
    /// lets every other active slot consider it as a nearer neighbour.
    fn add_active(&mut self, cluster: Cluster<P::Extra>) -> usize {
        let slot = self.push_slot(cluster);
        // Let existing actives insert the newcomer into their top-2, so
        // that later fallbacks (repair) remain exact without rescans.
        // The O(active) distance evaluations are pure reads — computed in
        // parallel into the reused scratch buffer; the cache updates
        // below are applied serially in active order, so the bookkeeping
        // is identical to the serial pass. One evaluation is a handful
        // of fused probes, so fan out only past the measured cutover.
        // Each chunk counts its work once, at its end.
        let mut dists = std::mem::take(&mut self.dist_scratch);
        dists.clear();
        dists.resize(self.active.len(), 0.0);
        {
            let this = &*self;
            let scan = this.scan(slot);
            let eval_chunk = |base: usize, chunk: &mut [f64]| {
                let others = &this.active[base..base + chunk.len()];
                let mut tally = Tally::default();
                scan.join_costs(others, chunk, &mut tally);
                for (d, &other) in chunk.iter_mut().zip(others) {
                    *d = this.price(other, slot, *d);
                }
                kanon_obs::count(Counter::ClusterDistEvals, chunk.len() as u64);
                tally.flush();
            };
            if this.active.len() >= MIN_PAR_SCAN_EVALS {
                kanon_parallel::for_each_chunk_mut(&mut dists, eval_chunk);
            } else {
                eval_chunk(0, &mut dists);
            }
        }
        for (&other, &d) in self.active.iter().zip(&dists) {
            let cand = Nearest {
                dist: d,
                target: slot,
            };
            match &mut self.nearest[other] {
                e @ None => {
                    *e = Some(NearestPair {
                        best: cand,
                        second: Runner::Exact(None),
                    })
                }
                Some(pair) => {
                    let b = pair.best;
                    let b_dead = self.slots[b.target].is_none();
                    if closer(d, slot, b.dist, b.target) {
                        // Newcomer becomes best. Pushing the (alive) old
                        // best into the runner slot restores exactness:
                        // every outside candidate was ≥ the old runner-up
                        // (Exact) or ≥ the old best (Unknown), and the old
                        // best is ≤ both bounds.
                        pair.second = if b_dead {
                            pair.second
                        } else {
                            Runner::Exact(Some(b))
                        };
                        pair.best = cand;
                    } else if b_dead && d == b.dist {
                        // Equal-distance adoption of a dead best: runner
                        // knowledge is unaffected.
                        pair.best = cand;
                    } else {
                        // Newcomer is not the best; it may only enter an
                        // *exact* runner slot (with an Unknown runner, an
                        // unseen candidate could still be closer than it).
                        if let Runner::Exact(sec) = &mut pair.second {
                            match sec {
                                None => *sec = Some(cand),
                                Some(sn) if closer(d, slot, sn.dist, sn.target) => {
                                    *sec = Some(cand)
                                }
                                Some(_) => {}
                            }
                        }
                    }
                }
            }
        }
        // The newcomer's own top-2 reuses the distances just computed —
        // `eval_symmetric` is symmetric — so no distance is evaluated
        // twice.
        self.nearest[slot] = top2(dists.iter().copied().zip(self.active.iter().copied()));
        self.dist_scratch = dists;
        self.active.push(slot);
        slot
    }

    /// Removes a slot from the active set (retiring or maturing it).
    fn deactivate(&mut self, slot: usize) {
        if let Some(pos) = self.active.iter().position(|&s| s == slot) {
            self.active.swap_remove(pos);
        }
    }

    /// Repairs caches whose best target died: fall back to an *exact*
    /// runner-up when it is still alive (sound — see [`Runner`]),
    /// otherwise do a full top-2 rescan.
    fn repair_caches(&mut self) {
        // Cheap serial pass: keep fresh entries, fall back to an exact
        // live runner-up, and collect the slots that need a full rescan
        // (typically zero or a handful per merge — not worth threads).
        let mut need = std::mem::take(&mut self.repair_scratch);
        need.clear();
        let mut repairs = 0u64;
        for idx in 0..self.active.len() {
            let slot = self.active[idx];
            let repaired = match self.nearest[slot] {
                None => None,
                Some(pair) => {
                    if self.slots[pair.best.target].is_some() {
                        Some(pair) // fresh
                    } else {
                        match pair.second {
                            Runner::Exact(Some(sn)) if self.slots[sn.target].is_some() => {
                                repairs += 1;
                                Some(NearestPair {
                                    best: sn,
                                    second: Runner::Unknown,
                                })
                            }
                            _ => None,
                        }
                    }
                }
            };
            match repaired {
                Some(p) => self.nearest[slot] = Some(p),
                None => need.push(slot),
            }
        }
        kanon_obs::count(Counter::CacheRepairs, repairs);
        if need.is_empty() {
            self.repair_scratch = need;
            return;
        }
        // Full rescans are O(active) distance evaluations each — the
        // expensive, pure part. Few in number, so the per-item threshold
        // of `map` never triggers; gate on the total *evaluation* count
        // of the batch (rescans × actives), the measured break-even for
        // a warm-pool dispatch, and use the coarse variant.
        let rescanned: Vec<Option<NearestPair>> =
            if need.len() * self.active.len() >= MIN_PAR_SCAN_EVALS {
                let this = &*self;
                kanon_parallel::map_coarse(need.len(), |i| this.scan_nearest(need[i]))
            } else {
                need.iter().map(|&s| self.scan_nearest(s)).collect()
            };
        for (&slot, r) in need.iter().zip(rescanned) {
            self.nearest[slot] = r;
        }
        self.repair_scratch = need;
    }

    /// Debug-build check: the selected merge distance equals the true
    /// global minimum over all active pairs (the cache's exactness
    /// invariant). Tie *partners* may differ between the cache and a
    /// fresh rescan; the minimal *value* must not. Its tally is never
    /// flushed, so a debug build reports the same work counters, and
    /// trips the work budget at the same point, as a release build.
    #[cfg(debug_assertions)]
    fn is_global_min_distance(&self, d: f64) -> bool {
        let mut uncounted = Tally::default();
        let mut min = f64::INFINITY;
        let mut costs = vec![0.0; self.active.len()];
        for (x, &a) in self.active.iter().enumerate() {
            let others = &self.active[x + 1..];
            let costs = &mut costs[..others.len()];
            self.scan(a).join_costs(others, costs, &mut uncounted);
            for (&b, &cost_u) in others.iter().zip(costs.iter()) {
                let dd = self.price(a, b, cost_u);
                if dd < min {
                    min = dd;
                }
            }
        }
        d.total_cmp(&min).is_eq() || (d - min).abs() < 1e-12
    }

    /// The active slot whose cached nearest neighbour is globally closest.
    fn closest_pair(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for &slot in &self.active {
            if let Some(pair) = self.nearest[slot] {
                let n = pair.best;
                let better = match best {
                    None => true,
                    Some((bs, bt, bd)) => {
                        n.dist.total_cmp(&bd).is_lt()
                            || (n.dist == bd && (slot, n.target) < (bs, bt))
                    }
                };
                if better {
                    best = Some((slot, n.target, n.dist));
                }
            }
        }
        best
    }
}

/// Runs Algorithm 1 under `distance` and `policy` over every row of
/// `ctx`'s table and returns the final clusters' member lists.
///
/// Singletons that are already mature retire at once (k = 1). The rest
/// enter the merge loop, which runs until at most one cluster is left
/// active (or the work budget trips). Per iteration: arm
/// [`ClusterPolicy::FAIL_POINT`], checkpoint the deterministic work
/// budget, select the globally closest active pair from the caches,
/// merge it, and either output it (mature — recycling whatever
/// [`ClusterPolicy::on_mature`] evicts) or re-activate it. Selection
/// order is total (distance, then `(slot, target)`), so the merge
/// sequence — and therefore the output — is byte-identical at any
/// thread count. When [`zero_distance_is_duplicate`] holds, the loop's
/// zero-distance prefix is replayed per tuple class by
/// [`replay_duplicates`] instead, with the same merges in the same order.
///
/// When the budget trips with several immature clusters outstanding,
/// the engine skips the remaining O(n²) work and combines them all into
/// one cluster (ascending first-member order, deterministic), which is
/// output if it matures. A last immature cluster is the leftover of
/// line 10: each of its records joins the mature cluster `S`
/// minimizing `dist({R}, S)`, and the run fails with
/// [`CoreError::InvalidClustering`] when no cluster matured.
pub(crate) fn run<P: ClusterPolicy>(
    ctx: &CostContext<'_>,
    distance: ClusterDistance,
    policy: &P,
) -> Result<Budgeted<Vec<Vec<u32>>>> {
    run_engine(ctx, distance, policy, true)
}

/// [`run`], with the duplicate replay allowed or not.
fn run_engine<P: ClusterPolicy>(
    ctx: &CostContext<'_>,
    distance: ClusterDistance,
    policy: &P,
    replay: bool,
) -> Result<Budgeted<Vec<Vec<u32>>>> {
    let mut budget = Budget::arm();
    let n = ctx.num_rows();
    let classes = TupleClasses::of(ctx.table);
    kanon_obs::count(Counter::DistinctTuples, classes.len() as u64);
    let (mut done, initial): (Vec<_>, Vec<_>) = (0..n as u32)
        .map(|row| Cluster::singleton(ctx, row, policy.singleton_extra(row)))
        .partition(|c| policy.is_mature(c));
    let leftover = if initial.is_empty() {
        None
    } else if replay && zero_distance_is_duplicate(ctx, distance, &classes) {
        let (survivors, tripped) = {
            let _span = kanon_obs::span("duplicate_replay");
            replay_duplicates(ctx, policy, &classes, &mut budget, initial, &mut done)
        };
        if tripped {
            combine_unfinished(ctx, policy, survivors, &mut done)
        } else {
            merge_loop(ctx, distance, policy, &mut budget, survivors, &mut done)
        }
    } else {
        merge_loop(ctx, distance, policy, &mut budget, initial, &mut done)
    };
    if let Some(leftover) = leftover {
        if done.is_empty() {
            return Err(CoreError::InvalidClustering(policy.infeasible(n)));
        }
        // Pushes are sequential (each one updates the target's closure
        // and cost, which the next record's choice sees), but member
        // order feeds neither, so each touched cluster is sorted once.
        let mut touched = vec![false; done.len()];
        for &row in &leftover.members {
            let nodes = ctx.leaf_nodes(row as usize);
            let cost = ctx.cost(&nodes);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (ci, c) in done.iter().enumerate() {
                let cost_u = ctx.join_cost(&nodes, &c.nodes);
                let d = distance.eval(1, cost, c.size(), c.cost, c.size() + 1, cost_u);
                if d.total_cmp(&best_d).is_lt() {
                    best_d = d;
                    best = ci;
                }
            }
            let c = &mut done[best];
            c.members.push(row);
            ctx.join_row_into(&mut c.nodes, row as usize);
            c.cost = ctx.cost(&c.nodes);
            touched[best] = true;
        }
        for (c, _) in done.iter_mut().zip(&touched).filter(|(_, &t)| t) {
            c.members.sort_unstable();
        }
    }
    Ok(budget.finish(done.into_iter().map(|c| c.members).collect()))
}

/// True when, in this run, a zero cluster distance means "the same
/// tuple": then the merge loop's opening merges all join copies of one
/// tuple, and [`replay_duplicates`] can make them without a distance
/// evaluation. Checked once per run:
///
/// * every leaf present in the run costs 0 and every node costs ≥ 0;
/// * every node that is the LCA of two distinct present leaves costs
///   more than 0 — so two single-tuple clusters are at distance 0
///   exactly when their tuples agree (`SuppressionMeasure`, whose inner
///   nodes cost 0, fails here);
/// * the distance is D1 or D3. Growing a cluster of one tuple then
///   strictly moves its distance to every other tuple (D1 up, D3 down),
///   so no nearest-neighbour cache ever keeps an equal-distance newcomer
///   of another class, and the scan that opens [`merge_loop`] after the
///   replay finds exactly the neighbours the plain loop would hold. D2,
///   D4 and NC ignore sizes: a cache whose neighbour grew adopts the
///   grown cluster where a fresh scan would pick a lower slot at the same
///   distance, so they run the plain loop.
fn zero_distance_is_duplicate(
    ctx: &CostContext<'_>,
    distance: ClusterDistance,
    classes: &TupleClasses,
) -> bool {
    if !matches!(distance, ClusterDistance::D1 | ClusterDistance::D3) {
        return false;
    }
    let schema = ctx.table.schema();
    (0..ctx.num_attrs()).all(|j| {
        let h = schema.attr(j).hierarchy();
        let cost = ctx.costs.attr_costs(j);
        if !cost.iter().all(|&c| c >= 0.0) {
            return false;
        }
        // Climb from each present leaf until the first node an earlier
        // climb reached: that node is the LCA of two distinct present
        // leaves, and every such LCA is met this way.
        let mut reached = vec![false; h.num_nodes()];
        (0..classes.len()).all(|class| {
            let leaf = h.leaf(ctx.table.row(classes.first_row(class)).get(j));
            if reached[leaf.index()] {
                return true;
            }
            reached[leaf.index()] = true;
            if cost[leaf.index()].abs().total_cmp(&0.0).is_ne() {
                return false;
            }
            let mut node = leaf;
            while let Some(up) = h.parent(node) {
                if reached[up.index()] {
                    return cost[up.index()] > 0.0;
                }
                reached[up.index()] = true;
                node = up;
            }
            true
        })
    })
}

/// Makes the merges the merge loop makes while its global minimum
/// distance is 0, in the same order, without evaluating a distance;
/// returns the surviving clusters in slot order, and whether the budget
/// tripped first.
///
/// Under [`zero_distance_is_duplicate`] the loop's caches are simple
/// inside one tuple class. The loop selects the lowest slot `i` with a
/// zero-distance neighbour — the front of the lowest class with two
/// active clusters — and merges it with its cached nearest neighbour,
/// which is one of two slots:
///
/// * the second slot of the class, when the class has only singletons
///   or has just matured a cluster: the opening scan, and every repair
///   after a maturity, give each slot the lowest live copy (a repair
///   falls back to an exact runner-up or rescans, and both find the
///   lowest live candidate);
/// * the class's last slot, when its previous merge stayed immature: the
///   merged cluster is the newest slot, and every copy whose cached
///   neighbour just merged away adopts it at the same distance 0, even
///   where a lower live copy exists.
///
/// Slots are numbered as in the loop (the immature singletons, then one
/// per merged or recycled cluster), so the survivors keep the loop's
/// tie-break order. Clusters recycled by [`ClusterPolicy::on_mature`]
/// are carved from the matured cluster and keep its tuple. Each merge
/// arms the failpoint and checkpoints the budget first, as the loop does.
fn replay_duplicates<P: ClusterPolicy>(
    ctx: &CostContext<'_>,
    policy: &P,
    classes: &TupleClasses,
    budget: &mut Budget,
    initial: Vec<Cluster<P::Extra>>,
    done: &mut Vec<Cluster<P::Extra>>,
) -> (Vec<Cluster<P::Extra>>, bool) {
    // Per class: its active slots, ascending (new slots are the largest),
    // and whether its last merge stayed immature.
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); classes.len()];
    let mut grown = vec![false; classes.len()];
    let mut slots: Vec<Option<Cluster<P::Extra>>> = Vec::with_capacity(2 * initial.len());
    for c in initial {
        queues[classes.class_of(c.members[0] as usize)].push_back(slots.len());
        slots.push(Some(c));
    }
    // Classes with two or more active slots, keyed by their lowest slot.
    let mut ready: BTreeSet<(usize, usize)> = queues
        .iter()
        .enumerate()
        .filter(|(_, q)| q.len() >= 2)
        .map(|(class, q)| (q[0], class))
        .collect();
    while let Some((i, class)) = ready.pop_first() {
        kanon_fault::fail_point!(P::FAIL_POINT);
        if budget.tripped() {
            return (slots.into_iter().flatten().collect(), true);
        }
        let q = &mut queues[class];
        q.pop_front();
        let j = if grown[class] {
            q.pop_back()
        } else {
            q.pop_front()
        };
        // kanon-lint: allow(L006) a ready class holds two or more live slots
        let j = j.expect("ready class has a second slot");
        // kanon-lint: allow(L006) queued slots are live
        let a = slots[i].take().expect("queued slot i live");
        // kanon-lint: allow(L006) queued slots are live
        let b = slots[j].take().expect("queued slot j live");
        kanon_obs::count(Counter::MergesPerformed, 1);

        let mut merged = Cluster::merge(ctx, a, b, |x, y| policy.fold(x, y));
        let mature = policy.is_mature(&merged);
        let fresh = if mature {
            let recycled = policy.on_mature(ctx, &mut merged);
            done.push(merged);
            recycled
        } else {
            vec![merged]
        };
        grown[class] = !mature;
        for c in fresh {
            debug_assert_eq!(classes.class_of(c.members[0] as usize), class);
            queues[class].push_back(slots.len());
            slots.push(Some(c));
        }
        if queues[class].len() >= 2 {
            ready.insert((queues[class][0], class));
        }
    }
    (slots.into_iter().flatten().collect(), false)
}

/// The closest-pair merge loop over the immature `initial` clusters:
/// pushes every cluster that matures onto `done` and returns the one
/// still immature at the end, if any.
fn merge_loop<P: ClusterPolicy>(
    ctx: &CostContext<'_>,
    distance: ClusterDistance,
    policy: &P,
    budget: &mut Budget,
    initial: Vec<Cluster<P::Extra>>,
    done: &mut Vec<Cluster<P::Extra>>,
) -> Option<Cluster<P::Extra>> {
    let mut st = {
        let _span = kanon_obs::span("initial_scan");
        State::<P>::new(ctx, distance, initial)
    };
    let _span = kanon_obs::span("merge_loop");
    while st.active.len() > 1 {
        kanon_fault::fail_point!(P::FAIL_POINT);
        if budget.tripped() {
            break;
        }
        // kanon-lint: allow(L006) two or more active clusters guarantee a closest pair
        let (i, j, _d) = st.closest_pair().expect("≥2 active clusters have a pair");
        #[cfg(debug_assertions)]
        assert!(
            st.is_global_min_distance(_d),
            "nearest-neighbour cache returned a non-minimal pair"
        );
        // kanon-lint: allow(L006) closest_pair returns live slots
        let a = st.slots[i].take().expect("slot i live");
        // kanon-lint: allow(L006) closest_pair returns live slots
        let b = st.slots[j].take().expect("slot j live");
        st.deactivate(i);
        st.deactivate(j);
        kanon_obs::count(Counter::MergesPerformed, 1);

        let mut merged = Cluster::merge(ctx, a, b, |x, y| policy.fold(x, y));
        if policy.is_mature(&merged) {
            let recycled = policy.on_mature(ctx, &mut merged);
            done.push(merged);
            st.repair_caches();
            for c in recycled {
                st.add_active(c);
            }
        } else {
            st.add_active(merged);
            st.repair_caches();
        }
    }

    let remaining: Vec<Cluster<P::Extra>> = st
        .active
        .iter()
        // kanon-lint: allow(L006) active slots are live by construction
        .map(|&slot| st.slots[slot].take().expect("active slot live"))
        .collect();
    combine_unfinished(ctx, policy, remaining, done)
}

/// The end of a run: with two or more clusters `remaining` the budget
/// tripped, so they combine into one (ascending first-member order),
/// pushed onto `done` if it matures. Returns the cluster still immature,
/// if any.
fn combine_unfinished<P: ClusterPolicy>(
    ctx: &CostContext<'_>,
    policy: &P,
    mut remaining: Vec<Cluster<P::Extra>>,
    done: &mut Vec<Cluster<P::Extra>>,
) -> Option<Cluster<P::Extra>> {
    if remaining.len() > 1 {
        remaining.sort_by_key(|c| c.members[0]);
        let mut combined = remaining.swap_remove(0);
        for c in remaining.drain(..) {
            combined.members.extend_from_slice(&c.members);
            ctx.join_nodes_into(&mut combined.nodes, &c.nodes);
            policy.fold(&mut combined.extra, c.extra);
        }
        combined.members.sort_unstable();
        combined.cost = ctx.cost(&combined.nodes);
        if policy.is_mature(&combined) {
            done.push(combined);
        } else {
            remaining.push(combined);
        }
    }
    remaining.pop()
}

#[cfg(test)]
mod tests {
    //! Engine unit tests over a table with a trivially checkable optimal
    //! structure: one categorical attribute whose hierarchy pairs its
    //! six values as {a,b}, {c,d}, {e,f}, and maturity = size ≥ k. The
    //! algorithm-level pinning (byte-identity to naive references,
    //! budget semantics, fault injection) lives in the integration
    //! suites.

    use super::*;
    use kanon_core::record::Record;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::table::Table;
    use kanon_measures::{EntropyMeasure, LmMeasure, NodeCostTable, SuppressionMeasure};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Rows holding `values` (indices into a..f) and their EM costs.
    fn paired(values: impl IntoIterator<Item = u32>) -> (Table, NodeCostTable) {
        let s = SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"]],
            )
            .build_shared()
            .unwrap();
        let rows = values.into_iter().map(|v| Record::from_raw([v])).collect();
        let t = Table::new(Arc::clone(&s), rows).unwrap();
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        (t, costs)
    }

    struct SizePolicy {
        k: usize,
    }

    impl ClusterPolicy for SizePolicy {
        type Extra = ();
        const FAIL_POINT: &'static str = "algos/agglomerative/merge";

        fn singleton_extra(&self, _: u32) {}

        fn fold(&self, _: &mut (), _: ()) {}

        fn is_mature(&self, c: &Cluster<()>) -> bool {
            c.size() >= self.k
        }

        fn infeasible(&self, n: usize) -> String {
            format!("cannot satisfy k = {} on {n} records", self.k)
        }
    }

    fn run_sized(ctx: &CostContext<'_>, k: usize) -> Result<Budgeted<Vec<Vec<u32>>>> {
        run(ctx, ClusterDistance::D3, &SizePolicy { k })
    }

    /// The member lists of a complete run, in ascending first-row order.
    fn complete(out: Result<Budgeted<Vec<Vec<u32>>>>) -> Vec<Vec<u32>> {
        let out = out.unwrap();
        assert!(!out.is_exhausted());
        let mut clusters = out.into_inner();
        clusters.sort();
        clusters
    }

    #[test]
    fn natural_pairs_merge_first() {
        // One row per value: the engine must unify exactly the pairs the
        // hierarchy groups.
        let (t, costs) = paired(0..6);
        let ctx = CostContext::new(&t, &costs);
        assert_eq!(
            complete(run_sized(&ctx, 2)),
            vec![vec![0, 1], vec![2, 3], vec![4, 5]]
        );
    }

    #[test]
    fn leftover_row_joins_its_nearest_mature_cluster() {
        // Rows a, b, c, d, c with k = 2: {c, c} and {a, b} mature, and
        // the leftover row `d` joins {c, c} (closure {c, d}) rather than
        // {a, b} (closure: the root).
        let (t, costs) = paired([0, 1, 2, 3, 2]);
        let ctx = CostContext::new(&t, &costs);
        assert_eq!(
            complete(run_sized(&ctx, 2)),
            vec![vec![0, 1], vec![2, 3, 4]]
        );
    }

    #[test]
    fn k1_run_retires_every_singleton_without_merging() {
        let (t, costs) = paired(0..6);
        let ctx = CostContext::new(&t, &costs);
        let c = kanon_obs::Collector::new();
        let out = {
            let _g = c.install();
            complete(run_sized(&ctx, 1))
        };
        assert_eq!(out, (0..6).map(|row| vec![row]).collect::<Vec<_>>());
        let r = c.report();
        assert_eq!(r.counter(Counter::MergesPerformed), 0);
        assert_eq!(r.counter(Counter::ClusterDistEvals), 0);
    }

    #[test]
    fn on_mature_recycles_evictions() {
        // A policy that evicts the largest row of every matured cluster
        // back into the pool: the recycled singletons must keep merging
        // until every row is consumed.
        struct Evicting(std::sync::atomic::AtomicUsize);
        impl ClusterPolicy for Evicting {
            type Extra = ();
            const FAIL_POINT: &'static str = "algos/agglomerative/merge";
            fn singleton_extra(&self, _: u32) {}
            fn fold(&self, _: &mut (), _: ()) {}
            fn is_mature(&self, c: &Cluster<()>) -> bool {
                c.size() >= 3
            }
            fn on_mature(&self, ctx: &CostContext<'_>, c: &mut Cluster<()>) -> Vec<Cluster<()>> {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                // kanon-lint: allow(L006) matured clusters are non-empty
                let evicted = c.members.pop().expect("matured cluster is non-empty");
                vec![Cluster::singleton(ctx, evicted, ())]
            }
            fn infeasible(&self, n: usize) -> String {
                format!("nothing matured among {n} records")
            }
        }
        let (t, costs) = paired((0..7).map(|v| v % 6));
        let ctx = CostContext::new(&t, &costs);
        let policy = Evicting(Default::default());
        let clusters = complete(run(&ctx, ClusterDistance::D3, &policy));
        assert!(policy.0.into_inner() > 0, "some cluster matured");
        let mut rows: Vec<u32> = clusters.iter().flatten().copied().collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..7).collect::<Vec<_>>(), "recycling lost records");
        // Every output cluster kept at least the two rows left after its
        // eviction; the leftover distribution only adds rows.
        assert!(clusters.iter().all(|c| c.len() >= 2), "{clusters:?}");
    }

    #[test]
    fn budget_exhaustion_combines_every_unfinished_cluster() {
        let (t, costs) = paired((0..32).map(|v| v % 6));
        let ctx = CostContext::new(&t, &costs);
        let all: Vec<u32> = (0..32).collect();
        // Nothing merges (the initial scan alone exceeds the budget), so
        // all 32 singletons combine into one mature cluster at k = 4 …
        let out = kanon_obs::with_work_budget(1, || run_sized(&ctx, 4)).unwrap();
        let Budgeted::BudgetExhausted {
            best_so_far,
            budget,
            spent,
        } = out
        else {
            panic!("budget of 1 must trip");
        };
        assert_eq!((budget, best_so_far), (1, vec![all]));
        assert!(spent >= 1);
        // … and at k = 64 even the combination cannot mature, so the
        // leftover has nowhere to go: a typed error, budget or not.
        let infeasible =
            CoreError::InvalidClustering("cannot satisfy k = 64 on 32 records".to_string());
        let err = kanon_obs::with_work_budget(1, || run_sized(&ctx, 64)).unwrap_err();
        assert_eq!(err, infeasible);
        assert_eq!(run_sized(&ctx, 64).unwrap_err(), infeasible);
    }

    #[test]
    fn parallel_scans_count_their_work_exactly() {
        // Past MIN_PAR_SCAN_EVALS active slots, a repair with several
        // rescans goes through `map_coarse` and a newcomer's distances
        // through `for_each_chunk_mut`; each scan or chunk counts its
        // work once. Both steps run directly on a `State`: the full merge
        // loop is cubic in a debug build.
        let n = MIN_PAR_SCAN_EVALS + 200;
        let t = kanon_data::art::generate(n, 3);
        let costs = NodeCostTable::compute(&t, &EntropyMeasure);
        let ctx = CostContext::new(&t, &costs);
        let probe_bytes = std::mem::size_of::<kanon_measures::JoinEntry>() as u64;
        let run = |threads: usize| {
            kanon_parallel::with_threads(threads, || {
                let initial = (0..n as u32)
                    .map(|row| Cluster::singleton(&ctx, row, ()))
                    .collect();
                let mut st = State::<SizePolicy>::new(&ctx, ClusterDistance::D3, initial);
                // Retire both cached neighbours of four probe slots, as
                // maturing merges would: each probe then needs a rescan.
                let (mut probes, mut retired) = (Vec::new(), BTreeSet::new());
                for s in 0..n {
                    let pair = st.nearest[s].unwrap();
                    let Runner::Exact(Some(second)) = pair.second else {
                        panic!("the initial scan leaves exact runners-up");
                    };
                    let top = [pair.best.target, second.target];
                    if !retired.contains(&s) && !top.iter().any(|x| probes.contains(x)) {
                        retired.extend(top);
                        probes.push(s);
                    }
                    if probes.len() == 4 {
                        break;
                    }
                }
                let mut gone: Vec<Cluster<()>> = retired
                    .iter()
                    .map(|&s| {
                        st.deactivate(s);
                        st.slots[s].take().unwrap()
                    })
                    .collect();
                let mut merged = Some(Cluster::merge(
                    &ctx,
                    gone.swap_remove(0),
                    gone.swap_remove(0),
                    |_, _| {},
                ));
                let active = st.active.len() as u64;
                assert!(
                    active as usize >= MIN_PAR_SCAN_EVALS,
                    "premise: chunked newcomer pass"
                );
                let step = |f: &mut dyn FnMut()| {
                    let c = kanon_obs::Collector::new();
                    {
                        let _g = c.install();
                        f();
                    }
                    c.report()
                };
                let repair = step(&mut || st.repair_caches());
                let add = step(&mut || {
                    st.add_active(merged.take().unwrap());
                });
                let bytes = |evals: u64| evals * ctx.num_attrs() as u64 * probe_bytes;
                // The repair rescans every slot whose top-2 both died: the
                // probes at least, each over every other active slot.
                let rescans = repair.counter(Counter::NnRescans);
                assert!(rescans >= probes.len() as u64, "{rescans} rescans");
                assert_eq!(
                    repair.counter(Counter::ClusterDistEvals),
                    rescans * (active - 1)
                );
                assert_eq!(add.counter(Counter::NnRescans), 0);
                assert_eq!(add.counter(Counter::ClusterDistEvals), active);
                for (r, evals) in [(&repair, rescans * (active - 1)), (&add, active)] {
                    assert_eq!(r.counter(Counter::SignatureBytesStreamed), bytes(evals));
                    let dispatched =
                        r.runtime_counter(kanon_obs::RuntimeCounter::PoolTasksDispatched);
                    assert_eq!(
                        dispatched > 0,
                        threads > 1,
                        "{threads} threads: {dispatched} tasks"
                    );
                }
                let caches: Vec<String> = st.nearest.iter().map(|p| format!("{p:?}")).collect();
                (repair.counters_json(), add.counters_json(), caches)
            })
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert!(run(threads) == serial, "{threads} threads differ from 1");
        }
    }

    /// `f`'s result and the report of what it recorded.
    fn reported<T>(f: impl FnOnce() -> T) -> (T, kanon_obs::Report) {
        let c = kanon_obs::Collector::new();
        let out = {
            let _g = c.install();
            f()
        };
        (out, c.report())
    }

    #[test]
    fn opening_triangle_equals_one_scan_per_slot() {
        // The triangle's caches are those of a per-slot scan of every
        // slot, bit for bit, at any worker count, under every distance,
        // with fused and climbing kernels; it counts the same rescans and
        // evaluations and probes each pair's join once instead of twice.
        let n = 120;
        let t = kanon_data::art::generate(n, 5);
        let fused = NodeCostTable::compute(&t, &EntropyMeasure);
        let climbing = fused.clone().without_join_tables();
        let (pairs, r) = ((n * (n - 1) / 2) as u64, t.num_attrs() as u64);
        let probe_bytes = std::mem::size_of::<kanon_measures::JoinEntry>() as u64;
        assert!(
            2 * pairs as usize >= MIN_PAR_SCAN_EVALS,
            "premise: banded past 1 thread"
        );
        for (costs, has_tables) in [(&fused, true), (&climbing, false)] {
            let ctx = CostContext::new(&t, costs);
            for distance in [
                ClusterDistance::D1,
                ClusterDistance::D2,
                ClusterDistance::D3,
                ClusterDistance::d4(),
                ClusterDistance::NergizClifton,
            ] {
                let mut first: Option<(String, String)> = None;
                for threads in [1, 2, 8] {
                    let (caches, opening) = kanon_parallel::with_threads(threads, || {
                        let initial = (0..n as u32)
                            .map(|row| Cluster::singleton(&ctx, row, ()))
                            .collect();
                        let (st, opening) =
                            reported(|| State::<SizePolicy>::new(&ctx, distance, initial));
                        let (scans, per_slot) =
                            reported(|| (0..n).map(|s| st.scan_nearest(s)).collect::<Vec<_>>());
                        let caches = format!("{:?}", st.nearest);
                        let case =
                            format!("{distance} at {threads} thread(s), tables {has_tables}");
                        assert_eq!(caches, format!("{scans:?}"), "{case}");
                        for c in [Counter::NnRescans, Counter::ClusterDistEvals] {
                            assert_eq!(opening.counter(c), per_slot.counter(c), "{case}");
                        }
                        let (bytes, climbs) = if has_tables {
                            (pairs * r * probe_bytes, 0)
                        } else {
                            (0, pairs * r)
                        };
                        for (c, once) in [
                            (Counter::SignatureBytesStreamed, bytes),
                            (Counter::ClimbFallbackHits, climbs),
                        ] {
                            assert_eq!(opening.counter(c), once, "{case}");
                            assert_eq!(per_slot.counter(c) - opening.counter(c), once, "{case}");
                        }
                        (caches, opening.counters_json())
                    });
                    match &first {
                        None => first = Some((caches, opening)),
                        Some(serial) => assert!(
                            serial == &(caches, opening),
                            "{distance}: {threads} threads differ from 1"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn band_cuts_split_the_triangle_evenly() {
        for n in [2usize, 3, 50, 1000] {
            let total = n * (n - 1) / 2;
            for bands in [1usize, 2, 3, 8] {
                let cuts = band_cuts(n, bands);
                assert_eq!((cuts[0], cuts[cuts.len() - 1]), (0, n));
                assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
                assert!(cuts.len() - 1 <= bands, "{n} {bands}: {cuts:?}");
                // Each band holds its share of the pairs, give or take the
                // one row that crosses the boundary.
                for w in cuts.windows(2) {
                    let held: usize = (w[0]..w[1]).map(|i| n - 1 - i).sum();
                    assert!(held <= total / bands + n, "{n} {bands}: {cuts:?}");
                }
            }
        }
    }

    #[test]
    fn engine_counts_its_work() {
        // Rows a..f, a..f, a..d at k = 4: a–d occur three times, e and f
        // twice. The replay makes the ten duplicate merges without a
        // distance evaluation; the loop scans the six survivors once (6
        // rescans, 30 evaluations) and pairs them in three mature merges
        // whose caches all stay fresh.
        let (t, costs) = paired((0..16).map(|v| v % 6));
        let ctx = CostContext::new(&t, &costs);
        let c = kanon_obs::Collector::new();
        {
            let _g = c.install();
            run_sized(&ctx, 4).unwrap();
        }
        let r = c.report();
        assert_eq!(r.counter(Counter::DistinctTuples), 6);
        assert_eq!(r.counter(Counter::MergesPerformed), 13);
        assert_eq!(r.counter(Counter::NnRescans), 6);
        assert_eq!(r.counter(Counter::CacheRepairs), 0);
        // The same in debug builds: the exactness assert counts nothing.
        assert_eq!(r.counter(Counter::ClusterDistEvals), 30);
    }

    /// A policy that logs every merge as its two operands' rows, in
    /// operand order, and matures at size ≥ k.
    struct LoggingPolicy {
        k: usize,
        log: std::sync::Mutex<Vec<(Vec<u32>, Vec<u32>)>>,
    }

    impl ClusterPolicy for LoggingPolicy {
        type Extra = Vec<u32>;
        const FAIL_POINT: &'static str = "algos/agglomerative/merge";

        fn singleton_extra(&self, row: u32) -> Vec<u32> {
            vec![row]
        }

        fn fold(&self, into: &mut Vec<u32>, from: Vec<u32>) {
            self.log.lock().unwrap().push((into.clone(), from.clone()));
            into.extend(from);
        }

        fn is_mature(&self, c: &Cluster<Vec<u32>>) -> bool {
            c.size() >= self.k
        }

        fn infeasible(&self, n: usize) -> String {
            format!("cannot satisfy k = {} on {n} records", self.k)
        }
    }

    #[test]
    fn grown_duplicate_adopts_the_merged_cluster() {
        // Four copies of `a` (rows 0–3) and one `c` at k = 5. After
        // {0, 1} merges, rows 2 and 3 both cached row 0 as their nearest
        // neighbour; it merged away, so both adopt the merged cluster at
        // the same distance 0. Row 2 then joins {0, 1} rather than the
        // live lower-slot copy row 3, and so does row 3 after it.
        let (t, costs) = paired([0, 0, 0, 0, 2]);
        let ctx = CostContext::new(&t, &costs);
        let logged = |replay: bool| {
            let policy = LoggingPolicy {
                k: 5,
                log: Default::default(),
            };
            let out = run_engine(&ctx, ClusterDistance::D3, &policy, replay).unwrap();
            (out, policy.log.into_inner().unwrap())
        };
        let (out, log) = logged(true);
        assert_eq!(out, Budgeted::Complete(vec![vec![0, 1, 2, 3, 4]]));
        let expected: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![0], vec![1]),
            (vec![2], vec![0, 1]),
            (vec![3], vec![2, 0, 1]),
            (vec![4], vec![3, 2, 0, 1]),
        ];
        assert_eq!(log, expected);
        assert_eq!(
            logged(false),
            (out, log),
            "the plain loop merges the same way"
        );
    }

    #[test]
    fn suppression_costs_fall_back_to_the_plain_loop() {
        // Suppression prices the inner node {a, b} at 0, so rows a and b
        // are at distance 0 without being copies: the replay must not
        // run, and the output is the plain loop's.
        let (t, _) = paired([0, 1, 0, 2, 1, 3, 0]);
        let sup = NodeCostTable::compute(&t, &SuppressionMeasure);
        let ctx = CostContext::new(&t, &sup);
        let classes = TupleClasses::of(&t);
        assert!(!zero_distance_is_duplicate(
            &ctx,
            ClusterDistance::D3,
            &classes
        ));
        let policy = SizePolicy { k: 3 };
        let counted = |replay: bool| {
            let c = kanon_obs::Collector::new();
            let out = {
                let _g = c.install();
                run_engine(&ctx, ClusterDistance::D3, &policy, replay).unwrap()
            };
            (out, c.report().counters_json())
        };
        assert_eq!(counted(true), counted(false));
        // EM and LM price every inner node above two present leaves.
        let em = NodeCostTable::compute(&t, &EntropyMeasure);
        let lm = NodeCostTable::compute(&t, &LmMeasure);
        for costs in [&em, &lm] {
            let ctx = CostContext::new(&t, costs);
            assert!(zero_distance_is_duplicate(
                &ctx,
                ClusterDistance::D3,
                &classes
            ));
            assert!(zero_distance_is_duplicate(
                &ctx,
                ClusterDistance::D1,
                &classes
            ));
            for d in [
                ClusterDistance::D2,
                ClusterDistance::d4(),
                ClusterDistance::NergizClifton,
            ] {
                assert!(!zero_distance_is_duplicate(&ctx, d, &classes), "{d}");
            }
        }
    }

    /// A three-attribute schema with hierarchies of depth 1 and 2 and at
    /// most six values per attribute.
    fn small_schema() -> kanon_core::schema::SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "c",
                ["a", "b", "c", "d", "e", "f"],
                &[&["a", "b"], &["c", "d"], &["e", "f"]],
            )
            .categorical_with_groups("g", ["w", "x", "y", "z"], &[&["w", "x"], &["y", "z"]])
            .categorical("h", ["p", "q", "r"])
            .build_shared()
            .unwrap()
    }

    /// `f`'s result and the merges it performed.
    fn with_merges<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let c = kanon_obs::Collector::new();
        let out = {
            let _g = c.install();
            f()
        };
        (out, c.report().counter(Counter::MergesPerformed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The replay plus the loop make exactly the plain loop's run:
        /// the same member lists in the same output order, and the same
        /// number of merges, on duplicate-heavy tables under every
        /// distance, EM and LM, Algorithms 1 and 2, and ℓ-diversity —
        /// and, for a policy that logs them, the same merges in order.
        #[test]
        fn replay_matches_the_plain_merge_loop(
            pool in vec(0u32..72, 1..8),
            picks in vec(0usize..8, 1..48),
            sensitive in vec(0u32..3, 48..49),
            k in 0usize..4,
            distance in 0usize..5,
            lm in any::<bool>(),
            algo in 0usize..5,
        ) {
            // Rows drawn from a pool of at most seven tuples.
            let rows = picks
                .iter()
                .map(|&p| {
                    let v = pool[p % pool.len()];
                    Record::from_raw([v % 6, v / 6 % 4, v / 24])
                })
                .collect();
            let k = [1, 2, 3, 10][k];
            let distance = [
                ClusterDistance::D1,
                ClusterDistance::D2,
                ClusterDistance::D3,
                ClusterDistance::d4(),
                ClusterDistance::NergizClifton,
            ][distance];
            let t = Table::new(small_schema(), rows).unwrap();
            let costs = if lm {
                NodeCostTable::compute(&t, &LmMeasure)
            } else {
                NodeCostTable::compute(&t, &EntropyMeasure)
            };
            let ctx = CostContext::new(&t, &costs);
            let sensitive = &sensitive[..t.num_rows()];
            let both = |replay: bool| match algo {
                0 | 1 => {
                    let policy = crate::agglomerative::Alg1Policy { distance, k, modified: algo == 1 };
                    (with_merges(|| run_engine(&ctx, distance, &policy, replay)), vec![])
                }
                2 | 3 => {
                    let policy = crate::ldiversity::LDivPolicy { k, l: algo - 1, sensitive };
                    (with_merges(|| run_engine(&ctx, distance, &policy, replay)), vec![])
                }
                _ => {
                    let policy = LoggingPolicy { k, log: Default::default() };
                    let out = with_merges(|| run_engine(&ctx, distance, &policy, replay));
                    (out, policy.log.into_inner().unwrap())
                }
            };
            prop_assert_eq!(both(true), both(false));
        }
    }

    #[test]
    fn size_blind_distances_keep_the_plain_loop() {
        // Rows a, c, e, c at k = 4. After {c, c} merges, row a's cached
        // neighbour (row 1, a `c`) is gone, and every size-blind distance
        // puts the merged {c, c} at row 1's distance, so the cache adopts
        // it: the plain loop merges a into {c, c}. A scan made after the
        // replay would pick the lower slot at that distance, row e, and
        // merge a with e. D1 and D3 move the distance as {c, c} grows, so
        // there both agree. Only they pass the guard.
        let (t, costs) = paired([0, 2, 4, 2]);
        let ctx = CostContext::new(&t, &costs);
        let classes = TupleClasses::of(&t);
        let log = |distance: ClusterDistance, forced: bool| {
            let policy = LoggingPolicy {
                k: 4,
                log: Default::default(),
            };
            if forced {
                let mut budget = Budget::observe();
                let (mut done, initial) = (
                    Vec::new(),
                    (0..4)
                        .map(|row| Cluster::singleton(&ctx, row, vec![row]))
                        .collect(),
                );
                let (survivors, _) =
                    replay_duplicates(&ctx, &policy, &classes, &mut budget, initial, &mut done);
                merge_loop(&ctx, distance, &policy, &mut budget, survivors, &mut done);
            } else {
                run_engine(&ctx, distance, &policy, false).unwrap();
            }
            policy.log.into_inner().unwrap()
        };
        for d in ClusterDistance::paper_variants()
            .into_iter()
            .chain([ClusterDistance::NergizClifton])
        {
            let exact = zero_distance_is_duplicate(&ctx, d, &classes);
            assert_eq!(log(d, true) == log(d, false), exact, "{d}");
        }
        assert_eq!(
            log(ClusterDistance::D2, false),
            vec![
                (vec![1], vec![3]),
                (vec![0], vec![1, 3]),
                (vec![2], vec![0, 1, 3]),
            ]
        );
    }
}
