//! # kanon-obs
//!
//! The workspace's observability layer: deterministic named work counters
//! and hierarchical phase timers, built on `std` alone (no external
//! dependencies, per the workspace's from-scratch policy — DESIGN.md).
//!
//! ## Model
//!
//! A [`Collector`] is installed on a thread with [`Collector::install`];
//! while installed, every [`count`] and [`span`] call on that thread (and
//! on any `kanon-parallel` worker thread, which re-installs the caller's
//! collector) records into it. With no collector installed the fast path
//! is a single relaxed atomic load, so instrumented hot loops cost nothing
//! when observability is off.
//!
//! A handle taken by [`current`] remembers the innermost span open where
//! it was taken, and spans opened where it is installed nest under that
//! span. So a worker's spans file under the span that dispatched the
//! work, and the phase tree's names, nesting and call counts are the same
//! at any thread count. Only the order of siblings first opened by
//! concurrent workers, and the wall times, may differ.
//!
//! ## Determinism discipline
//!
//! Counters come in two classes:
//!
//! * **Deterministic** ([`Counter`]): increments are attached to a unit of
//!   algorithmic work (a merge, a rescan, a join evaluation, an SCC pass).
//!   Because every `kanon-parallel` primitive performs *exactly the same
//!   per-index work* at any worker count and counter addition is
//!   commutative, totals are **byte-identical at any thread count** — the
//!   same discipline that makes the algorithms themselves thread-count
//!   invariant (index-ordered reduction), applied to observability. The
//!   determinism proptests assert this.
//! * **Runtime** (phase wall-clocks, parallel job/worker tallies): these
//!   legitimately vary run-to-run and thread-count-to-thread-count, and
//!   live in a separate report section that determinism comparisons
//!   exclude.
//!
//! [`Report::counters_json`] renders *only* the deterministic section (in
//! fixed [`Counter::ALL`] order, all keys always present), so two reports
//! with equal counts serialize to byte-identical strings.
//!
//! ## Count once per scan
//!
//! With a collector installed, one [`count`] is a thread-local borrow
//! plus an atomic add on a cache line that every worker shares. A hot
//! loop therefore tallies its work in local integers and makes one
//! `count` per scan, per parallel chunk or per swept row. The totals are
//! the same sums. The work budget reads the counter sum at its
//! checkpoints, so trip points stay put as long as every tally is
//! flushed before the next budget checkpoint; flushing before the scan
//! returns is enough, since checkpoints run only between scans.
//!
//! ## Contract
//!
//! The `KANON_STATS` environment variable (read per call, never cached —
//! unlike `KANON_THREADS`, see `kanon-parallel`) and the CLI
//! `--stats[=json]` flag both select a [`StatsFormat`]; `json` emits the
//! machine-readable form, anything else truthy emits the human table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The deterministic work counters. Every variant's total is invariant
/// under the worker-thread count (see the module docs for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Cluster merges performed by the agglomerative algorithms.
    MergesPerformed,
    /// Full nearest-neighbour scans (initial pass + cache-repair rescans).
    NnRescans,
    /// Row joins answered by a fused join×cost table, one per probe.
    JoinTableHits,
    /// Hierarchy joins that fell back to the parent-pointer climb.
    ClimbFallbackHits,
    /// Pairwise record-cost evaluations `d({R_i, R_j})`.
    PairCostEvals,
    /// Hopcroft–Karp BFS/DFS augmenting passes (phases, not paths).
    HkAugmentingPasses,
    /// Tarjan SCC passes over a residual digraph.
    SccPasses,
    /// Full recomputations of the allowed-edges oracle (Algorithm 6).
    OracleRecomputes,
    /// Record upgrades `R̄_i ← R̄_i + R_{j_h}` performed by Algorithm 6.
    UpgradeSteps,
    /// Records found deficient (< k matches) when first visited (Alg. 6).
    DeficientRecords,
    /// Borůvka rounds of the forest baseline's phase 1.
    ForestRounds,
    /// Rows processed by the (k,1)-anonymizers (Algorithms 3 and 4).
    K1RowsExpanded,
    /// Record stretches performed by the (1,k)-anonymizer (Algorithm 5).
    OneKUpgrades,
    /// Node-cost tables precomputed over a (table, measure) pair.
    NodeCostTables,
    /// Cluster-to-cluster distance evaluations performed by the shared
    /// closest-pair engine (`kanon_algos::engine`).
    ClusterDistEvals,
    /// Nearest-neighbour cache entries repaired via the exact runner-up
    /// shortcut (full rescans are counted under `NnRescans` instead).
    CacheRepairs,
    /// Bytes streamed through the packed signature kernel's fused
    /// join/cost tables (16 bytes per fused probe: one interleaved
    /// `(node, cost)` entry). Fused probes count here *instead of*
    /// `JoinTableHits` — the per-probe byte weight is fixed, so the total
    /// is as thread-count invariant as the probe count itself.
    SignatureBytesStreamed,
    /// Accepted binary splits in the Mondrian-style top-down
    /// k-anonymizer (one per queue element that splits).
    MondrianSplits,
    /// Child groups packed into the two bins of accepted Mondrian
    /// splits (the fan-out of the chosen attribute, summed over splits).
    MondrianGroupsPacked,
    /// Shards produced by the shard-and-conquer pre-partitioning stage
    /// (recorded once per sharded run, after partitioning).
    ShardsBuilt,
    /// Rows in the largest shard of a sharded run (recorded once per
    /// run — an additive gauge, thread-count invariant because the
    /// partition stage is serial and deterministic).
    ShardRowsMax,
    /// Boundary-repair merges performed after the per-shard runs
    /// (re-merges of clusters with equal closures).
    BoundaryRepairs,
    /// Distinct quasi-identifier tuples among the rows entering the
    /// clustering engine, summed over engine runs (a sharded run counts
    /// every shard's).
    DistinctTuples,
    /// Micro-batches applied by the `kanon serve` daemon (journal
    /// replays at recovery count here too — a replay *is* an apply).
    ServeBatchesApplied,
    /// Rows ingested by the serve daemon's batch-apply path (after the
    /// `--on-bad-row` policy; suppressed rows are not counted).
    ServeRowsIngested,
    /// Batch rows absorbed into a resident mature cluster by the serve
    /// daemon's absorption sweep: free joins (closure unchanged) plus the
    /// ε-bounded joins also counted in [`Counter::ServeRowsAbsorbedEps`].
    ServeRowsAbsorbed,
    /// From-scratch re-optimization passes run by the serve daemon.
    ServeReoptRuns,
    /// Journal records replayed during serve daemon recovery.
    ServeJournalReplays,
    /// Rows absorbed into a mature cluster through the ε-bounded tier
    /// (the join changed the cluster closure but raised its loss
    /// contribution by less than the configured `absorb_epsilon`).
    ServeRowsAbsorbedEps,
    /// Journal bytes reclaimed by post-snapshot compaction (the
    /// snapshot-covered prefix atomically rewritten away).
    ServeJournalBytesCompacted,
}

impl Counter {
    /// Every counter, in canonical report order.
    pub const ALL: [Counter; 30] = [
        Counter::MergesPerformed,
        Counter::NnRescans,
        Counter::JoinTableHits,
        Counter::ClimbFallbackHits,
        Counter::PairCostEvals,
        Counter::HkAugmentingPasses,
        Counter::SccPasses,
        Counter::OracleRecomputes,
        Counter::UpgradeSteps,
        Counter::DeficientRecords,
        Counter::ForestRounds,
        Counter::K1RowsExpanded,
        Counter::OneKUpgrades,
        Counter::NodeCostTables,
        Counter::ClusterDistEvals,
        Counter::CacheRepairs,
        Counter::SignatureBytesStreamed,
        Counter::MondrianSplits,
        Counter::MondrianGroupsPacked,
        Counter::ShardsBuilt,
        Counter::ShardRowsMax,
        Counter::BoundaryRepairs,
        Counter::DistinctTuples,
        Counter::ServeBatchesApplied,
        Counter::ServeRowsIngested,
        Counter::ServeRowsAbsorbed,
        Counter::ServeReoptRuns,
        Counter::ServeJournalReplays,
        Counter::ServeRowsAbsorbedEps,
        Counter::ServeJournalBytesCompacted,
    ];

    /// The counter's canonical snake_case name (the JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::MergesPerformed => "merges_performed",
            Counter::NnRescans => "nn_rescans",
            Counter::JoinTableHits => "join_table_hits",
            Counter::ClimbFallbackHits => "climb_fallback_hits",
            Counter::PairCostEvals => "pair_cost_evals",
            Counter::HkAugmentingPasses => "hk_augmenting_passes",
            Counter::SccPasses => "scc_passes",
            Counter::OracleRecomputes => "oracle_recomputes",
            Counter::UpgradeSteps => "upgrade_steps",
            Counter::DeficientRecords => "deficient_records",
            Counter::ForestRounds => "forest_rounds",
            Counter::K1RowsExpanded => "k1_rows_expanded",
            Counter::OneKUpgrades => "one_k_upgrades",
            Counter::NodeCostTables => "node_cost_tables",
            Counter::ClusterDistEvals => "cluster_dist_evals",
            Counter::CacheRepairs => "cache_repairs",
            Counter::SignatureBytesStreamed => "signature_bytes_streamed",
            Counter::MondrianSplits => "mondrian_splits",
            Counter::MondrianGroupsPacked => "mondrian_groups_packed",
            Counter::ShardsBuilt => "shards_built",
            Counter::ShardRowsMax => "shard_rows_max",
            Counter::BoundaryRepairs => "boundary_repairs",
            Counter::DistinctTuples => "distinct_tuples",
            Counter::ServeBatchesApplied => "serve_batches_applied",
            Counter::ServeRowsIngested => "serve_rows_ingested",
            Counter::ServeRowsAbsorbed => "serve_rows_absorbed",
            Counter::ServeReoptRuns => "serve_reopt_runs",
            Counter::ServeJournalReplays => "serve_journal_replays",
            Counter::ServeRowsAbsorbedEps => "serve_rows_absorbed_eps",
            Counter::ServeJournalBytesCompacted => "serve_journal_bytes_compacted",
        }
    }
}

/// Runtime (non-deterministic) counters: infrastructure tallies that
/// legitimately vary with the thread count, pool warm-up state, and
/// scheduler timing. They live in the report's runtime section next to
/// `parallel_jobs`/`max_workers`, are rendered by `--stats`, and are
/// **excluded** from [`Report::counters_json`] and every determinism
/// comparison. Incremented via [`count_runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum RuntimeCounter {
    /// Tasks handed to the persistent worker pool (one per chunk of a
    /// parallel dispatch; 0 for serially-executed jobs).
    PoolTasksDispatched,
    /// Times a parked pool worker was woken from its condvar wait to
    /// execute work.
    PoolParkWakes,
    /// OS threads spawned into the persistent pool. Zero after warm-up:
    /// a steady-state dispatch reuses parked workers instead of
    /// spawning.
    PoolThreadsSpawned,
}

impl RuntimeCounter {
    /// Every runtime counter, in canonical report order.
    pub const ALL: [RuntimeCounter; 3] = [
        RuntimeCounter::PoolTasksDispatched,
        RuntimeCounter::PoolParkWakes,
        RuntimeCounter::PoolThreadsSpawned,
    ];

    /// The counter's canonical snake_case name (the JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            RuntimeCounter::PoolTasksDispatched => "pool_tasks_dispatched",
            RuntimeCounter::PoolParkWakes => "pool_park_wakes",
            RuntimeCounter::PoolThreadsSpawned => "pool_threads_spawned",
        }
    }
}

const NUM_RUNTIME_COUNTERS: usize = RuntimeCounter::ALL.len();

const NUM_COUNTERS: usize = Counter::ALL.len();

/// One node of the phase tree (mutable, arena form).
struct PhaseNode {
    name: &'static str,
    calls: u64,
    nanos: u128,
    children: Vec<usize>,
}

#[derive(Default)]
struct PhaseArena {
    nodes: Vec<PhaseNode>,
    roots: Vec<usize>,
}

impl PhaseArena {
    /// Finds or creates the child named `name` under `parent`
    /// (`None` = root level) and returns its index.
    fn child(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let list = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = list.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(PhaseNode {
            name,
            calls: 0,
            nanos: 0,
            children: Vec::new(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }
}

struct Inner {
    counters: [AtomicU64; NUM_COUNTERS],
    runtime: [AtomicU64; NUM_RUNTIME_COUNTERS],
    parallel_jobs: AtomicU64,
    max_workers: AtomicU64,
    phases: Mutex<PhaseArena>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            runtime: std::array::from_fn(|_| AtomicU64::new(0)),
            parallel_jobs: AtomicU64::new(0),
            max_workers: AtomicU64::new(0),
            phases: Mutex::new(PhaseArena::default()),
        }
    }
}

/// Number of collectors currently installed anywhere in the process.
/// `count`/`span` early-out on a single relaxed load when this is zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The collector installed on this thread, if any.
    static CURRENT: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };
    /// The stack of open span arena indices on this thread.
    static SPAN_STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// A handle to a stats collector. Cloning is cheap (`Arc`); clones share
/// the same counters, so a collector can be installed on many worker
/// threads at once.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
    /// The span that spans opened under this handle nest in: the
    /// innermost open span where [`current`] took it, `None` for the
    /// root level.
    under: Option<usize>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Creates a fresh collector with all counters at zero.
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner::new()),
            under: None,
        }
    }

    /// Installs this collector on the current thread until the returned
    /// guard is dropped. The previous collector (if any) is restored on
    /// drop; its open spans are shelved and restored likewise. Spans
    /// opened meanwhile nest under the span this handle was taken in (see
    /// [`current`]), or at the root level for a new collector.
    pub fn install(&self) -> InstallGuard {
        install_current(Some(self.clone()))
    }

    /// A consistent snapshot of everything recorded so far.
    pub fn report(&self) -> Report {
        let counters: Vec<(&'static str, u64)> = Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.inner.counters[c as usize].load(Relaxed)))
            .collect();
        let arena = self.inner.phases.lock().expect("phase arena poisoned");
        fn snap(arena: &PhaseArena, idx: usize) -> PhaseSnapshot {
            let n = &arena.nodes[idx];
            PhaseSnapshot {
                name: n.name,
                calls: n.calls,
                wall_ms: n.nanos as f64 / 1e6,
                children: n.children.iter().map(|&c| snap(arena, c)).collect(),
            }
        }
        Report {
            counters,
            runtime: RuntimeCounter::ALL
                .iter()
                .map(|&c| (c.name(), self.inner.runtime[c as usize].load(Relaxed)))
                .collect(),
            parallel_jobs: self.inner.parallel_jobs.load(Relaxed),
            max_workers: self.inner.max_workers.load(Relaxed),
            phases: arena.roots.iter().map(|&r| snap(&arena, r)).collect(),
        }
    }
}

/// Restores the previously installed collector (and span stack) on drop.
pub struct InstallGuard {
    prev: Option<Arc<Inner>>,
    prev_stack: Vec<usize>,
    active: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        ACTIVE.fetch_sub(1, Relaxed);
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        SPAN_STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.prev_stack));
    }
}

/// Installs `collector` (or nothing) on the current thread. The `None`
/// form is a no-op guard — it exists so `kanon-parallel` can propagate
/// "whatever the caller had installed" into its scoped workers without
/// branching.
pub fn install_current(collector: Option<Collector>) -> InstallGuard {
    match collector {
        None => InstallGuard {
            prev: None,
            prev_stack: Vec::new(),
            active: false,
        },
        Some(c) => {
            ACTIVE.fetch_add(1, Relaxed);
            let prev = CURRENT.with(|cur| cur.borrow_mut().replace(Arc::clone(&c.inner)));
            let stack = c.under.into_iter().collect();
            let prev_stack = SPAN_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), stack));
            InstallGuard {
                prev,
                prev_stack,
                active: true,
            }
        }
    }
}

/// The collector installed on the current thread, if any, as a handle
/// under this thread's innermost open span. `kanon-parallel` captures
/// this before dispatching work and re-installs it on each worker, which
/// is what makes worker-side increments land in the caller's collector
/// and worker-side spans nest under the caller's open span.
pub fn current() -> Option<Collector> {
    if ACTIVE.load(Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|inner| Collector {
            inner: Arc::clone(inner),
            under: SPAN_STACK.with(|s| s.borrow().last().copied()),
        })
    })
}

/// Adds `n` to a deterministic counter on the current thread's collector.
/// A single relaxed atomic load when no collector is installed anywhere.
#[inline]
pub fn count(c: Counter, n: u64) {
    if ACTIVE.load(Relaxed) == 0 {
        return;
    }
    count_installed(c, n);
}

#[inline(never)]
fn count_installed(c: Counter, n: u64) {
    CURRENT.with(|cur| {
        if let Some(inner) = &*cur.borrow() {
            inner.counters[c as usize].fetch_add(n, Relaxed);
        }
    });
}

/// Adds `n` to a runtime (non-deterministic) counter on the current
/// thread's collector. Same fast path as [`count`]; totals land in the
/// report's runtime section, outside every determinism comparison.
#[inline]
pub fn count_runtime(c: RuntimeCounter, n: u64) {
    if ACTIVE.load(Relaxed) == 0 {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(inner) = &*cur.borrow() {
            inner.runtime[c as usize].fetch_add(n, Relaxed);
        }
    });
}

/// Records one parallel job dispatch with its effective worker count.
/// Runtime information — worker counts legitimately differ across thread
/// configurations, so this lives outside the deterministic section.
pub fn record_parallel_job(workers: usize) {
    if ACTIVE.load(Relaxed) == 0 {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(inner) = &*cur.borrow() {
            inner.parallel_jobs.fetch_add(1, Relaxed);
            inner.max_workers.fetch_max(workers as u64, Relaxed);
        }
    });
}

/// An open phase span; records its wall time (and one call) into the
/// phase tree when dropped.
pub struct Span {
    open: Option<(Arc<Inner>, usize, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, idx, start)) = self.open.take() {
            let elapsed = start.elapsed().as_nanos();
            let mut arena = inner.phases.lock().expect("phase arena poisoned");
            arena.nodes[idx].calls += 1;
            arena.nodes[idx].nanos += elapsed;
            drop(arena);
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                debug_assert_eq!(stack.last().copied(), Some(idx), "span drop order");
                stack.pop();
            });
        }
    }
}

/// Opens a phase span named `name`, nested under the innermost open span
/// of the current thread. Repeated spans with the same name and parent
/// aggregate (calls and wall time) into one tree node. A no-op when no
/// collector is installed.
pub fn span(name: &'static str) -> Span {
    if ACTIVE.load(Relaxed) == 0 {
        return Span { open: None };
    }
    let inner = match CURRENT.with(|c| c.borrow().clone()) {
        Some(i) => i,
        None => return Span { open: None },
    };
    let idx = {
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
        let mut arena = inner.phases.lock().expect("phase arena poisoned");
        arena.child(parent, name)
    };
    SPAN_STACK.with(|s| s.borrow_mut().push(idx));
    Span {
        open: Some((inner, idx, Instant::now())),
    }
}

/// One node of the snapshotted phase tree.
#[derive(Debug, Clone)]
pub struct PhaseSnapshot {
    /// Span name.
    pub name: &'static str,
    /// Times the span was opened.
    pub calls: u64,
    /// Total wall-clock milliseconds across all calls.
    pub wall_ms: f64,
    /// Nested spans.
    pub children: Vec<PhaseSnapshot>,
}

/// An immutable snapshot of a collector, ready for rendering.
#[derive(Debug, Clone)]
pub struct Report {
    /// Deterministic counters in [`Counter::ALL`] order (every key always
    /// present, zeros included).
    counters: Vec<(&'static str, u64)>,
    /// Runtime counters in [`RuntimeCounter::ALL`] order (runtime
    /// section — excluded from determinism comparisons).
    runtime: Vec<(&'static str, u64)>,
    /// Parallel jobs dispatched (runtime section).
    pub parallel_jobs: u64,
    /// Largest effective worker count seen (runtime section).
    pub max_workers: u64,
    /// The phase tree (runtime section).
    pub phases: Vec<PhaseSnapshot>,
}

fn push_json_phases(out: &mut String, phases: &[PhaseSnapshot]) {
    out.push('[');
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"calls\":{},\"wall_ms\":{:.3},\"children\":",
            p.name, p.calls, p.wall_ms
        ));
        push_json_phases(out, &p.children);
        out.push('}');
    }
    out.push(']');
}

impl Report {
    /// The value of one deterministic counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].1
    }

    /// The value of one runtime counter.
    pub fn runtime_counter(&self, c: RuntimeCounter) -> u64 {
        self.runtime[c as usize].1
    }

    /// The runtime counters as `(name, value)` pairs in canonical order.
    pub fn runtime_counters(&self) -> &[(&'static str, u64)] {
        &self.runtime
    }

    /// The deterministic counters as `(name, value)` pairs in canonical
    /// order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// JSON object of **only** the deterministic counters, in fixed key
    /// order with every key present — byte-identical across runs with
    /// equal counts, which is what the thread-count-invariance tests and
    /// the CI regression gate compare.
    pub fn counters_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push('}');
        out
    }

    /// Full single-line JSON report: `counters` (deterministic) plus
    /// `parallel` and `phases` (runtime — excluded from determinism
    /// comparisons).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":");
        out.push_str(&self.counters_json());
        out.push_str(&format!(
            ",\"parallel\":{{\"jobs\":{},\"max_workers\":{}",
            self.parallel_jobs, self.max_workers
        ));
        for (name, v) in &self.runtime {
            out.push_str(&format!(",\"{name}\":{v}"));
        }
        out.push_str("},\"phases\":");
        push_json_phases(&mut out, &self.phases);
        out.push('}');
        out
    }

    /// Human-readable table: counters, parallel summary, indented phase
    /// tree with wall times.
    pub fn render_table(&self) -> String {
        let mut out = String::from("work counters\n");
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("  {name:<width$}  {v}\n"));
        }
        out.push_str(&format!(
            "parallel: {} jobs, max {} workers\n",
            self.parallel_jobs, self.max_workers
        ));
        for (name, v) in &self.runtime {
            out.push_str(&format!("  {name}  {v}\n"));
        }
        if !self.phases.is_empty() {
            out.push_str("phases (wall-clock)\n");
            fn render(out: &mut String, p: &PhaseSnapshot, depth: usize) {
                out.push_str(&format!(
                    "{:indent$}{} — {:.2} ms ({} call{})\n",
                    "",
                    p.name,
                    p.wall_ms,
                    p.calls,
                    if p.calls == 1 { "" } else { "s" },
                    indent = 2 + 2 * depth
                ));
                for c in &p.children {
                    render(out, c, depth + 1);
                }
            }
            for p in &self.phases {
                render(&mut out, p, 0);
            }
        }
        out
    }
}

/// Output formats of the stats report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable aligned table.
    Table,
    /// Single-line machine-readable JSON.
    Json,
}

/// Parses a stats-mode string (`KANON_STATS` value or `--stats=…`
/// argument): empty / `1` / `table` / `human` → table, `json` → JSON,
/// `0` / `off` / `false` → none.
pub fn parse_stats_format(value: &str) -> Option<StatsFormat> {
    match value.trim().to_ascii_lowercase().as_str() {
        "json" => Some(StatsFormat::Json),
        "0" | "off" | "false" | "none" => None,
        _ => Some(StatsFormat::Table),
    }
}

/// Reads the `KANON_STATS` environment variable. Unlike `KANON_THREADS`
/// (snapshotted once per process by `kanon-parallel`), this is read fresh
/// on every call: stats collection is set up at entry points, not in hot
/// loops, so there is nothing to cache.
pub fn env_stats_format() -> Option<StatsFormat> {
    std::env::var("KANON_STATS")
        .ok()
        .and_then(|v| parse_stats_format(&v))
}

// ---------------------------------------------------------------------------
// Deterministic work budget
// ---------------------------------------------------------------------------

thread_local! {
    /// In-process override installed by [`with_work_budget`].
    static BUDGET_OVERRIDE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Designated config point for `KANON_WORK_BUDGET` (lint rule L003):
/// snapshotted once per process, like `KANON_THREADS`. `0`, empty or
/// unparsable values mean "unlimited".
fn env_work_budget() -> Option<u64> {
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("KANON_WORK_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
    })
}

/// The active deterministic work budget, if any: the [`with_work_budget`]
/// override when inside one, else the `KANON_WORK_BUDGET` snapshot.
///
/// The budget is measured in *work units* — the sum of all deterministic
/// counters ([`spent_work`]) — so it is byte-identical across thread
/// counts and machines: the same run always trips at the same point.
pub fn work_budget() -> Option<u64> {
    BUDGET_OVERRIDE.with(Cell::get).or_else(env_work_budget)
}

/// Runs `f` with the work budget pinned to `budget` work units on this
/// thread, restoring the previous value afterwards (panic-safe). The
/// in-process analogue of setting `KANON_WORK_BUDGET`.
pub fn with_work_budget<T>(budget: u64, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET_OVERRIDE.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET_OVERRIDE.with(|b| b.replace(Some(budget))));
    f()
}

/// Total work spent so far on the current thread's collector: the sum of
/// every deterministic counter. Returns 0 when no collector is installed
/// (budget checks are then vacuous — entry points that honour a budget
/// install a collector when one is armed).
pub fn spent_work() -> u64 {
    if ACTIVE.load(Relaxed) == 0 {
        return 0;
    }
    CURRENT.with(|cur| match &*cur.borrow() {
        Some(inner) => Counter::ALL
            .iter()
            .map(|&c| inner.counters[c as usize].load(Relaxed))
            .sum(),
        None => 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_installed_collector_only() {
        // No collector: a count is a no-op (and must not panic).
        count(Counter::MergesPerformed, 3);
        let c = Collector::new();
        {
            let _g = c.install();
            count(Counter::MergesPerformed, 2);
            count(Counter::SccPasses, 1);
        }
        // After the guard drops, counting no longer lands in `c`.
        count(Counter::MergesPerformed, 100);
        let r = c.report();
        assert_eq!(r.counter(Counter::MergesPerformed), 2);
        assert_eq!(r.counter(Counter::SccPasses), 1);
        assert_eq!(r.counter(Counter::NnRescans), 0);
    }

    #[test]
    fn install_is_reentrant_and_restores() {
        let outer = Collector::new();
        let inner = Collector::new();
        let _g1 = outer.install();
        count(Counter::UpgradeSteps, 1);
        {
            let _g2 = inner.install();
            count(Counter::UpgradeSteps, 10);
        }
        count(Counter::UpgradeSteps, 1);
        assert_eq!(outer.report().counter(Counter::UpgradeSteps), 2);
        assert_eq!(inner.report().counter(Counter::UpgradeSteps), 10);
    }

    #[test]
    fn clones_share_counters_across_threads() {
        let c = Collector::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    let _g = c.install();
                    count(Counter::JoinTableHits, 5);
                });
            }
        });
        assert_eq!(c.report().counter(Counter::JoinTableHits), 20);
    }

    #[test]
    fn counters_json_is_stable_and_complete() {
        let a = Collector::new();
        let b = Collector::new();
        for c in [&a, &b] {
            let _g = c.install();
            count(Counter::MergesPerformed, 7);
            count(Counter::OracleRecomputes, 2);
        }
        let ja = a.report().counters_json();
        let jb = b.report().counters_json();
        assert_eq!(ja, jb, "equal counts must serialize identically");
        for c in Counter::ALL {
            assert!(ja.contains(&format!("\"{}\":", c.name())), "{}", c.name());
        }
        // Fixed order: merges first, compacted journal bytes last.
        assert!(ja.starts_with("{\"merges_performed\":7"));
        assert!(ja.ends_with("\"serve_journal_bytes_compacted\":0}"));
    }

    #[test]
    fn runtime_counters_stay_out_of_deterministic_block() {
        let c = Collector::new();
        {
            let _g = c.install();
            count_runtime(RuntimeCounter::PoolTasksDispatched, 4);
            count_runtime(RuntimeCounter::PoolParkWakes, 3);
        }
        let r = c.report();
        assert_eq!(r.runtime_counter(RuntimeCounter::PoolTasksDispatched), 4);
        assert_eq!(r.runtime_counter(RuntimeCounter::PoolParkWakes), 3);
        assert_eq!(r.runtime_counter(RuntimeCounter::PoolThreadsSpawned), 0);
        // Runtime tallies must not leak into the determinism-compared
        // block, but must show up in the full report and the table.
        assert!(!r.counters_json().contains("pool_"));
        assert!(r.to_json().contains("\"pool_tasks_dispatched\":4"));
        assert!(r.to_json().contains("\"pool_park_wakes\":3"));
        assert!(r.render_table().contains("pool_tasks_dispatched"));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let c = Collector::new();
        {
            let _g = c.install();
            for _ in 0..3 {
                let _outer = span("outer");
                let _inner = span("inner");
            }
        }
        let r = c.report();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].name, "outer");
        assert_eq!(r.phases[0].calls, 3);
        assert_eq!(r.phases[0].children.len(), 1);
        assert_eq!(r.phases[0].children[0].name, "inner");
        assert_eq!(r.phases[0].children[0].calls, 3);
        let json = r.to_json();
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"phases\":[{\"name\":\"outer\""));
    }

    #[test]
    fn spans_under_a_current_handle_nest_where_it_was_taken() {
        let c = Collector::new();
        {
            let _g = c.install();
            let _outer = span("outer");
            let handle = current().unwrap();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let _g = handle.install();
                        let _worker = span("worker");
                    });
                }
            });
            // Installing the handle shelves this thread's stack, and
            // dropping the guard restores it.
            {
                let _g = handle.install();
                let _inline = span("inline");
            }
            let _after = span("after");
        }
        let r = c.report();
        assert_eq!(r.phases.len(), 1, "{:?}", r.phases);
        let names: Vec<(&str, u64)> = r.phases[0]
            .children
            .iter()
            .map(|p| (p.name, p.calls))
            .collect();
        assert_eq!(names, [("worker", 2), ("inline", 1), ("after", 1)]);
    }

    #[test]
    fn parallel_jobs_are_runtime_section_only() {
        let c = Collector::new();
        {
            let _g = c.install();
            record_parallel_job(4);
            record_parallel_job(8);
        }
        let r = c.report();
        assert_eq!(r.parallel_jobs, 2);
        assert_eq!(r.max_workers, 8);
        // Not part of the deterministic block.
        assert!(!r.counters_json().contains("jobs"));
    }

    #[test]
    fn format_parsing() {
        assert_eq!(parse_stats_format("json"), Some(StatsFormat::Json));
        assert_eq!(parse_stats_format("JSON"), Some(StatsFormat::Json));
        assert_eq!(parse_stats_format("1"), Some(StatsFormat::Table));
        assert_eq!(parse_stats_format(""), Some(StatsFormat::Table));
        assert_eq!(parse_stats_format("table"), Some(StatsFormat::Table));
        assert_eq!(parse_stats_format("0"), None);
        assert_eq!(parse_stats_format("off"), None);
    }

    #[test]
    fn render_table_lists_everything() {
        let c = Collector::new();
        {
            let _g = c.install();
            count(Counter::ClimbFallbackHits, 9);
            let _s = span("phase");
        }
        let t = c.report().render_table();
        assert!(t.contains("climb_fallback_hits"));
        assert!(t.contains('9'));
        assert!(t.contains("phase"));
    }

    #[test]
    fn with_work_budget_overrides_and_restores() {
        let before = work_budget();
        with_work_budget(42, || {
            assert_eq!(work_budget(), Some(42));
            with_work_budget(7, || assert_eq!(work_budget(), Some(7)));
            assert_eq!(work_budget(), Some(42));
        });
        assert_eq!(work_budget(), before);
    }

    #[test]
    fn with_work_budget_restores_on_panic() {
        let before = work_budget();
        let r = std::panic::catch_unwind(|| with_work_budget(5, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(work_budget(), before);
    }

    #[test]
    fn spent_work_sums_all_counters() {
        assert_eq!(spent_work(), 0);
        let c = Collector::new();
        let _g = c.install();
        assert_eq!(spent_work(), 0);
        count(Counter::MergesPerformed, 3);
        count(Counter::NnRescans, 4);
        assert_eq!(spent_work(), 7);
    }
}
