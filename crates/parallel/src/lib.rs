//! # kanon-parallel
//!
//! The workspace's parallel execution layer: chunked map, fold and
//! parallel-for primitives over a **persistent worker pool** (`pool`
//! module) — lazily started, condvar-parked workers that survive across
//! dispatches — built only on `std` primitives, no external
//! dependencies, per the workspace's from-scratch policy (DESIGN.md).
//!
//! Every primitive is a short body over one private chunked core: the
//! index range `0..n` is cut into contiguous chunks of
//! `n.div_ceil(threads)` items (a pure function of `(n, threads)`), the
//! pool runs one task per chunk, and the per-chunk outputs come back in
//! chunk order. Every primitive is therefore **deterministic**: results
//! are byte-identical to a serial run at any thread count. [`map`] keeps
//! each index's result in its own slot; [`for_each_chunk_mut`] hands
//! each chunk its own disjoint sub-slice; [`fold_chunks`] folds each
//! chunk left-to-right and merges the chunk accumulators in chunk order.
//! Algorithms built on these primitives therefore make identical
//! decisions whether they run on 1 thread or 64 — which is what lets the
//! hot loops of `kanon-algos`, `kanon-measures`, and `kanon-bench`
//! parallelize without perturbing a single merge decision.
//!
//! ## Thread-count control
//!
//! The worker count is, in order of precedence:
//!
//! 1. a scoped override installed by [`with_threads`] (used by tests and
//!    the scaling bench to pin the count),
//! 2. the `KANON_THREADS` environment variable (a positive integer,
//!    **snapshotted once per process** — see below),
//! 3. `std::thread::available_parallelism()`.
//!
//! `KANON_THREADS` is read exactly once, on the first call into any
//! primitive, and cached for the life of the process; mutating the
//! variable afterwards (e.g. via `std::env::set_var`) has **no effect**.
//! This is deliberate: a mid-process env flip could change chunk
//! boundaries between two halves of one algorithm run, and env access from
//! concurrently running workers is a data race in spirit even where it is
//! not one in fact. [`with_threads`] is the only supported in-process
//! override. A regression test pins this snapshot behavior.
//!
//! Jobs smaller than [`MIN_PARALLEL_ITEMS`] items run inline on the caller
//! thread: a dispatch costs more than small scans save.
//!
//! ## Observability
//!
//! Every parallel dispatch captures the caller's `kanon-obs` collector and
//! re-installs it in each chunk task, so deterministic work counters
//! incremented inside worker closures land in the same collector as the
//! caller's — totals stay byte-identical at any thread count because the
//! per-index work is identical and counter addition commutes. Each
//! dispatch also records its effective worker count, and the pool its
//! task, wake and spawn tallies, into the collector's runtime
//! (non-deterministic) section.
//!
//! ## Panic isolation
//!
//! A panic inside a chunk never unwinds through the pool. Every chunk
//! body runs under `catch_unwind`; panics are collected per chunk and,
//! once **all** chunks have finished (so shared `kanon-obs` counters are
//! fully flushed), converted into a typed [`WorkerPanic`] whose worker
//! index is the chunk index. When several chunks panic, the lowest index
//! wins — deterministically, regardless of which thread happened to fault
//! first on the wall clock. The infallible primitives re-raise the
//! `WorkerPanic` as a panic payload (for the fallible entry points in
//! `kanon-algos` to downcast); [`try_map`] returns it as an `Err`
//! directly. Injected faults from `kanon-fault` keep their identity end
//! to end via [`WorkerPanic::fault_point`].
//!
//! Each chunk (and the inline serial path, as worker 0) passes through
//! the `parallel/worker` failpoint with **index semantics** (see
//! `kanon_fault::worker_hit`), so tests can deterministically crash one
//! specific chunk.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// kanon-lint: allow(L004) the persistent worker pool must hand borrowed job
// state to long-lived threads, which safe Rust cannot express; all unsafe is
// confined to src/pool.rs behind a documented safety argument, and the rest
// of the crate stays deny(unsafe_code).

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

#[allow(unsafe_code)]
mod pool;

/// Below this many items, primitives run serially on the caller thread.
pub const MIN_PARALLEL_ITEMS: usize = 64;

/// Name of the failpoint every worker passes through (index semantics:
/// `parallel/worker=panic:K` crashes worker `K` on each dispatch).
pub const WORKER_FAIL_POINT: &str = "parallel/worker";

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The `KANON_THREADS` setting, snapshotted on first use.
///
/// The environment is consulted exactly once per process and the parsed
/// value cached in a `OnceLock`; later changes to the variable are
/// silently ignored. Use [`with_threads`] to change the worker count
/// within a process — it is the only supported in-process override.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("KANON_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// The worker-thread count currently in effect (override → `KANON_THREADS`
/// → hardware parallelism).
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Runs `f` with the worker count pinned to `n` on this thread (parallel
/// primitives called from `f` — including deep inside the algorithm crates
/// — use `n` workers). The previous override is restored on exit, panic
/// included.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Effective worker count for a job of `n` items.
fn workers_for(n: usize) -> usize {
    if n < MIN_PARALLEL_ITEMS {
        1
    } else {
        num_threads().min(n).max(1)
    }
}

/// Number of live pool worker threads. Zero before the first parallel
/// dispatch and again after [`shutdown_pool`]; flat between dispatches
/// once the pool is warm (the `pool_threads_spawned` runtime counter is
/// the per-run view of the same fact).
pub fn pool_worker_count() -> usize {
    pool::worker_count()
}

/// Stops and joins every persistent pool worker, returning the process
/// to its pre-first-dispatch state; a later dispatch lazily restarts
/// the pool. Safe to call concurrently with in-flight dispatches (they
/// complete on the calling thread). Intended for tests asserting clean
/// thread hygiene and for embedders that want no background threads
/// while idle.
pub fn shutdown_pool() {
    pool::shutdown()
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

/// Typed error describing a panic isolated inside a parallel primitive.
///
/// When several chunks panic in one dispatch, the **lowest chunk
/// index** is reported — after every chunk has finished, so the choice is
/// deterministic and shared obs counters are fully flushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the (lowest) panicking chunk; the serial inline path
    /// reports worker 0.
    pub worker: usize,
    /// The panic message, when the payload was a string (or a
    /// recognised injected fault).
    pub message: String,
    /// `Some(point)` when the panic was a typed `kanon_fault`
    /// injection (`every:`/`once:` modes) rather than an organic bug.
    pub fault_point: Option<String>,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

impl WorkerPanic {
    fn from_payload(worker: usize, payload: Box<dyn Any + Send>) -> WorkerPanic {
        // A nested parallel dispatch already produced a typed error:
        // keep it unchanged (its worker index names the inner culprit).
        let payload = match payload.downcast::<WorkerPanic>() {
            Ok(inner) => return *inner,
            Err(p) => p,
        };
        // A typed fault injection keeps its identity.
        let payload = match payload.downcast::<kanon_fault::InjectedFault>() {
            Ok(fault) => {
                return WorkerPanic {
                    worker,
                    message: fault.to_string(),
                    fault_point: Some(fault.point),
                }
            }
            Err(p) => p,
        };
        WorkerPanic {
            worker,
            message: panic_message(payload.as_ref()),
            fault_point: None,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Per-dispatch panic collector. Chunks run their body through
/// [`PanicSink::run`]; once every chunk has finished,
/// [`PanicSink::check`] turns the recorded panics (if any) into one
/// deterministic [`WorkerPanic`].
#[derive(Default)]
struct PanicSink {
    panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>>,
}

impl PanicSink {
    /// Runs one worker body with the worker failpoint armed and any
    /// panic isolated into the sink.
    fn run(&self, worker: usize, body: impl FnOnce()) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            kanon_fault::worker_hit(WORKER_FAIL_POINT, worker);
            body()
        }));
        if let Err(payload) = result {
            self.panics
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((worker, payload));
        }
    }

    /// Consumes the sink: `Err` with the lowest panicking worker's typed
    /// error if any worker panicked, `Ok` otherwise.
    fn check(self) -> Result<(), WorkerPanic> {
        let mut panics = self.panics.into_inner().unwrap_or_else(|e| e.into_inner());
        if panics.is_empty() {
            return Ok(());
        }
        panics.sort_by_key(|(worker, _)| *worker);
        let (worker, payload) = panics.swap_remove(0);
        Err(WorkerPanic::from_payload(worker, payload))
    }
}

/// Re-raises a [`WorkerPanic`] as a panic payload (used by the
/// infallible primitives; the fallible `try_*` entry points in
/// `kanon-algos` downcast it back).
fn raise(e: WorkerPanic) -> ! {
    std::panic::panic_any(e)
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Serial inline execution (as worker 0) with panic isolation.
fn serial_run<T>(body: impl FnOnce() -> T) -> Result<T, WorkerPanic> {
    let sink = PanicSink::default();
    let mut out = None;
    sink.run(0, || out = Some(body()));
    sink.check()?;
    Ok(out.expect("serial body completed"))
}

/// Items per chunk when `0..n` is split over `threads` workers: the whole
/// range when serial, else `n.div_ceil(threads)` (the last chunk may be
/// shorter). A pure function of `(n, threads)`.
fn chunk_len(n: usize, threads: usize) -> usize {
    if threads <= 1 {
        n
    } else {
        n.div_ceil(threads)
    }
}

/// The chunked core every primitive runs on: returns
/// `body(chunk_index, chunk_range)` for each contiguous chunk of `0..n`,
/// in chunk order.
///
/// With `threads <= 1` (or `n == 0`) the one chunk `0..n` runs inline
/// on the caller thread, as worker 0. Otherwise the pool runs one task
/// per chunk of [`chunk_len`] items; each task re-installs the caller's
/// obs collector and runs its body under the panic sink with its chunk
/// index as the worker index, and writes only its own output slot
/// (a per-chunk `Mutex`, locked once and never contended). Which pool
/// thread runs which chunk therefore never shows in the result.
fn run_chunks<T, F>(n: usize, threads: usize, body: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    if threads <= 1 || n == 0 {
        return serial_run(|| vec![body(0, 0..n)]);
    }
    kanon_obs::record_parallel_job(threads);
    let obs = kanon_obs::current();
    let chunk = chunk_len(n, threads);
    let outputs: Vec<Mutex<Option<T>>> = (0..n.div_ceil(chunk)).map(|_| Mutex::new(None)).collect();
    let sink = PanicSink::default();
    pool::dispatch(outputs.len(), threads, &|t| {
        let _obs = kanon_obs::install_current(obs.clone());
        sink.run(t, || {
            let out = body(t, t * chunk..((t + 1) * chunk).min(n));
            *outputs[t].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        });
    });
    sink.check()?;
    Ok(outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every chunk ran")
        })
        .collect())
}

/// Maps `f` over `0..n` on `threads` workers, results in index order.
fn map_on<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut chunks =
        run_chunks(n, threads, |_, range| range.map(&f).collect::<Vec<T>>())?.into_iter();
    let mut out = chunks.next().expect("at least one chunk");
    for chunk in chunks {
        out.extend(chunk);
    }
    Ok(out)
}

/// Maps `f` over `0..n`, returning results in index order. `f` runs
/// concurrently across contiguous index chunks; the output is identical to
/// `(0..n).map(f).collect()` for any thread count. A worker panic is
/// re-raised as a typed [`WorkerPanic`] payload; use [`try_map`] to
/// receive it as a value instead.
pub fn map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_map(n, f).unwrap_or_else(|e| raise(e))
}

/// Fallible form of [`map`]: isolates worker panics (and the inline
/// serial path, as worker 0) and returns them as a typed
/// [`WorkerPanic`]. On success the output is byte-identical to [`map`]
/// at any thread count.
pub fn try_map<T, F>(n: usize, f: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_on(n, workers_for(n), f)
}

/// Runs `f` over contiguous, disjoint chunks of `data`, in parallel.
/// `f(chunk_start, chunk)` may mutate its chunk freely; chunk boundaries
/// depend only on `data.len()` and the thread count, and since each index
/// is processed exactly once by a pure-per-index `f`, results are
/// identical to the serial pass. Worker panics re-raise as a typed
/// [`WorkerPanic`] payload after all workers join.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let threads = workers_for(n);
    // One sub-slice per chunk of the core's split (an empty slice is
    // still the one serial chunk).
    let slices: Vec<Mutex<&mut [T]>> = if n == 0 {
        vec![Mutex::new(data)]
    } else {
        data.chunks_mut(chunk_len(n, threads))
            .map(Mutex::new)
            .collect()
    };
    run_chunks(n, threads, |t, range| {
        f(
            range.start,
            &mut slices[t].lock().unwrap_or_else(|e| e.into_inner()),
        )
    })
    .unwrap_or_else(|e| raise(e));
}

/// Like [`map`], but parallelizes even below [`MIN_PARALLEL_ITEMS`]:
/// intended for **coarse-grained** jobs (whole algorithm runs, experiment
/// grid cells) where each of a handful of items is worth milliseconds or
/// more and the per-thread spawn cost is noise. Results are in index
/// order, identical to the serial map. Worker panics re-raise as a typed
/// [`WorkerPanic`] payload.
pub fn map_coarse<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_on(n, num_threads().min(n).max(1), f).unwrap_or_else(|e| raise(e))
}

/// Chunked fold over `0..n` with per-chunk accumulators: each worker folds
/// its contiguous index chunk left-to-right into a fresh `identity()`
/// accumulator via `fold`, and the per-chunk accumulators are merged in
/// chunk order with `merge`. For a `merge` consistent with `fold` (i.e.
/// the fold is a homomorphism, as with per-slot argmin tables under a
/// total order) the result is identical to the serial fold at any thread
/// count. Worker panics re-raise as a typed [`WorkerPanic`] payload.
///
/// One accumulator per *chunk*, not per index, so a large accumulator
/// (e.g. a per-component best-edge table) costs one allocation per worker.
pub fn fold_chunks<T, I, F, R>(n: usize, identity: I, fold: F, merge: R) -> T
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, usize) + Sync,
    R: Fn(T, T) -> T,
{
    let partials = run_chunks(n, workers_for(n), |_, range| {
        let mut acc = identity();
        for i in range {
            fold(&mut acc, i);
        }
        acc
    })
    .unwrap_or_else(|e| raise(e));
    let mut iter = partials.into_iter();
    let first = iter.next().expect("at least one chunk");
    iter.fold(first, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_at_any_thread_count() {
        let n = 1000;
        let serial: Vec<u64> = (0..n)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for t in [1, 2, 3, 4, 7, 16] {
            let par = with_threads(t, || map(n, |i| (i as u64).wrapping_mul(2654435761)));
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn small_jobs_run_inline() {
        // Below the threshold the caller thread does all the work; verify
        // via a non-Sync-hostile side effect ordering proxy: results only.
        let out = with_threads(8, || map(MIN_PARALLEL_ITEMS - 1, |i| i * i));
        assert_eq!(
            out,
            (0..MIN_PARALLEL_ITEMS - 1)
                .map(|i| i * i)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn for_each_chunk_mut_covers_every_index_once() {
        let n = 777;
        let mut data = vec![0u32; n];
        for t in [1, 2, 4, 9] {
            data.iter_mut().for_each(|x| *x = 0);
            with_threads(t, || {
                for_each_chunk_mut(&mut data, |base, chunk| {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        *slot += (base + off) as u32 + 1;
                    }
                })
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1),
                "threads={t}"
            );
        }
    }

    #[test]
    fn map_coarse_parallelizes_small_jobs_deterministically() {
        let serial: Vec<usize> = (0..8).map(|i| i * 3).collect();
        for t in [1, 2, 4, 16] {
            let par = with_threads(t, || map_coarse(8, |i| i * 3));
            assert_eq!(par, serial, "threads={t}");
        }
        assert!(map_coarse(0, |i| i).is_empty());
    }

    #[test]
    fn fold_chunks_matches_serial_argmin_table() {
        // Per-slot argmin table: the canonical forest-round accumulator.
        let n = 900;
        let slots = 7;
        let key = |i: usize| ((i as u64).wrapping_mul(2654435761) % 1000) as f64;
        let run = || {
            fold_chunks(
                n,
                || vec![None::<(f64, usize)>; slots],
                |acc, i| {
                    let s = i % slots;
                    let cand = (key(i), i);
                    let better = match acc[s] {
                        None => true,
                        Some(cur) => {
                            cand.0.total_cmp(&cur.0).is_lt() || (cand.0 == cur.0 && cand.1 < cur.1)
                        }
                    };
                    if better {
                        acc[s] = Some(cand);
                    }
                },
                |mut a, b| {
                    for (sa, sb) in a.iter_mut().zip(b) {
                        let take = match (&sa, &sb) {
                            (_, None) => false,
                            (None, Some(_)) => true,
                            (Some(cur), Some(cand)) => {
                                cand.0.total_cmp(&cur.0).is_lt()
                                    || (cand.0 == cur.0 && cand.1 < cur.1)
                            }
                        };
                        if take {
                            *sa = sb;
                        }
                    }
                    a
                },
            )
        };
        let serial = with_threads(1, run);
        for t in [2, 3, 8] {
            assert_eq!(with_threads(t, run), serial, "threads={t}");
        }
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let outer = num_threads();
        with_threads(3, || assert_eq!(num_threads(), 3));
        assert_eq!(num_threads(), outer);
        let res = std::panic::catch_unwind(|| with_threads(2, || panic!("boom")));
        assert!(res.is_err());
        assert_eq!(num_threads(), outer);
        // Nested overrides: innermost wins, then unwinds correctly.
        with_threads(4, || {
            assert_eq!(num_threads(), 4);
            with_threads(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 4);
        });
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
        with_threads(0, || assert_eq!(num_threads(), 1)); // clamped
    }

    #[test]
    fn env_threads_is_snapshotted_once_per_process() {
        // Regression test for the documented KANON_THREADS snapshot
        // semantics: the variable is read on first use and cached; later
        // mutations are ignored and `with_threads` is the only supported
        // in-process override.
        //
        // Prime the cache first so this test races with nothing — every
        // other test in this binary also goes through num_threads().
        let before = num_threads();
        let saved = std::env::var("KANON_THREADS").ok();
        std::env::set_var("KANON_THREADS", (before + 7).to_string());
        assert_eq!(
            num_threads(),
            before,
            "KANON_THREADS changes after first use must be ignored"
        );
        // with_threads still works, and unwinds back to the snapshot.
        with_threads(before + 7, || assert_eq!(num_threads(), before + 7));
        assert_eq!(num_threads(), before);
        match saved {
            Some(v) => std::env::set_var("KANON_THREADS", v),
            None => std::env::remove_var("KANON_THREADS"),
        }
    }

    #[test]
    fn obs_counters_propagate_into_workers() {
        // Counts made inside worker closures must land in the caller's
        // collector, and totals must be thread-count invariant.
        use kanon_obs::{count, Collector, Counter};
        let n = 1000;
        let run = |threads: usize| {
            let c = Collector::new();
            {
                let _g = c.install();
                with_threads(threads, || {
                    map(n, |i| {
                        count(Counter::PairCostEvals, 1);
                        i
                    })
                });
            }
            c.report()
        };
        let serial = run(1);
        assert_eq!(serial.counter(Counter::PairCostEvals), n as u64);
        for t in [2, 4, 8] {
            let par = run(t);
            assert_eq!(par.counters_json(), serial.counters_json(), "threads={t}");
            assert!(par.max_workers >= 2, "threads={t}");
        }
    }

    #[test]
    fn worker_panic_surfaces_typed_error_with_counters_flushed() {
        // Regression test: a panicking closure inside `map` used to
        // re-raise through std::thread::scope with a *generic* payload
        // ("a scoped thread panicked"), losing the message and any
        // typing. It must now surface a WorkerPanic naming the worker
        // and carrying the message — and counters incremented by the
        // surviving workers must still be flushed.
        use kanon_obs::{count, Collector, Counter};
        let n = 1000;
        let c = Collector::new();
        let result = {
            let _g = c.install();
            with_threads(4, || {
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    map(n, |i| {
                        count(Counter::PairCostEvals, 1);
                        if i == n - 1 {
                            panic!("poisoned index {i}");
                        }
                        i
                    })
                }))
            })
        };
        let payload = result.expect_err("map must re-raise the worker panic");
        let wp = payload
            .downcast::<WorkerPanic>()
            .expect("payload must be a typed WorkerPanic");
        assert_eq!(wp.worker, 3, "index 999 lives in the last of 4 chunks");
        assert!(wp.message.contains("poisoned index"), "{}", wp.message);
        assert_eq!(wp.fault_point, None);
        // Every index counted before the panic (the panicking index
        // counts first, then unwinds), so the flush must be complete.
        assert_eq!(c.report().counter(Counter::PairCostEvals), n as u64);
    }

    #[test]
    fn try_map_isolates_panics_at_any_thread_count() {
        for t in [1, 2, 8] {
            let r = with_threads(t, || {
                try_map(200, |i| if i == 5 { panic!("boom") } else { i })
            });
            let e = r.expect_err("panic must surface as Err");
            assert_eq!(e.worker, 0, "index 5 is in the first chunk (threads={t})");
            assert!(e.message.contains("boom"));
        }
        assert_eq!(
            try_map(100, |i| i).expect("clean run"),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lowest_worker_index_wins_deterministically() {
        // Every index panics, so every worker panics; the reported
        // worker must always be 0 regardless of wall-clock order.
        for t in [2, 3, 8] {
            let e = with_threads(t, || try_map(640, |i| -> usize { panic!("boom {i}") }))
                .expect_err("all workers panic");
            assert_eq!(e.worker, 0, "threads={t}");
            assert!(e.message.contains("boom 0"), "threads={t}: {}", e.message);
        }
    }

    #[test]
    fn chunk_split_is_pinned() {
        // (n, threads, chunk bases, pool tasks of one `map`). The split is
        // a pure function of `(n, threads)`; these figures pin it, the
        // serial cutoff below MIN_PARALLEL_ITEMS and the task count per
        // dispatch, for every primitive that shares it.
        use kanon_obs::{Collector, RuntimeCounter};
        use std::sync::atomic::{AtomicUsize, Ordering};
        const SPLITS: &[(usize, usize, &[usize], u64)] = &[
            (0, 1, &[0], 0),
            (0, 2, &[0], 0),
            (0, 3, &[0], 0),
            (0, 4, &[0], 0),
            (0, 7, &[0], 0),
            (1, 1, &[0], 0),
            (1, 2, &[0], 0),
            (1, 3, &[0], 0),
            (1, 4, &[0], 0),
            (1, 7, &[0], 0),
            (64, 1, &[0], 0),
            (64, 2, &[0, 32], 2),
            (64, 3, &[0, 22, 44], 3),
            (64, 4, &[0, 16, 32, 48], 4),
            (64, 7, &[0, 10, 20, 30, 40, 50, 60], 7),
            (65, 1, &[0], 0),
            (65, 2, &[0, 33], 2),
            (65, 3, &[0, 22, 44], 3),
            (65, 4, &[0, 17, 34, 51], 4),
            (65, 7, &[0, 10, 20, 30, 40, 50, 60], 7),
            (100, 1, &[0], 0),
            (100, 2, &[0, 50], 2),
            (100, 3, &[0, 34, 68], 3),
            (100, 4, &[0, 25, 50, 75], 4),
            (100, 7, &[0, 15, 30, 45, 60, 75, 90], 7),
            (1000, 1, &[0], 0),
            (1000, 2, &[0, 500], 2),
            (1000, 3, &[0, 334, 668], 3),
            (1000, 4, &[0, 250, 500, 750], 4),
            (1000, 7, &[0, 143, 286, 429, 572, 715, 858], 7),
        ];
        for &(n, threads, bases, tasks) in SPLITS {
            let at = format!("n={n} threads={threads}");
            with_threads(threads, || {
                let seen = Mutex::new(Vec::new());
                for_each_chunk_mut(&mut vec![0u8; n], |base, _| {
                    seen.lock().unwrap().push(base);
                });
                let mut seen = seen.into_inner().unwrap();
                seen.sort_unstable();
                assert_eq!(seen, bases, "for_each_chunk_mut bases, {at}");

                let identities = AtomicUsize::new(0);
                fold_chunks(
                    n,
                    || {
                        identities.fetch_add(1, Ordering::Relaxed);
                    },
                    |_, _| {},
                    |a, _| a,
                );
                assert_eq!(
                    identities.into_inner(),
                    bases.len(),
                    "fold_chunks identities, {at}"
                );

                let c = Collector::new();
                {
                    let _g = c.install();
                    map(n, |i| i);
                }
                let dispatched = c
                    .report()
                    .runtime_counter(RuntimeCounter::PoolTasksDispatched);
                assert_eq!(dispatched, tasks, "map pool tasks, {at}");
            });
        }
    }
}
