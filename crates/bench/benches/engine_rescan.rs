//! Criterion micro-benchmark behind the engine's parallel-dispatch
//! cutover (`MIN_PAR_SCAN_EVALS` in `kanon-algos/src/engine.rs`).
//!
//! The persistent worker pool makes a dispatch cheap but not free: the
//! caller publishes a job, wakes parked workers, and waits on a condvar.
//! Whether a batch of distance evaluations is worth dispatching therefore
//! depends on the *total evaluation count* of the batch, not the item
//! count — one fused-kernel evaluation is a few tens of nanoseconds, so
//! the dispatch overhead amortizes only past a couple of thousand
//! evaluations. This bench measures exactly that curve:
//!
//! * `serial/EVALS`: one pass of distance evaluations priced as the
//!   engine prices them: batches of 256 candidate slots, each batch's
//!   join costs from one attribute-major `SlotScan::join_costs` of one
//!   `SigArena` slot, then `eval_symmetric` on the stored sizes and
//!   costs;
//! * `pool/EVALS`:   the same evaluations through `for_each_chunk_mut`
//!   on a warm pool, as the engine's newcomer pass dispatches them
//!   (criterion's warm-up phase spawns the workers; the timed region
//!   only ever reuses them).
//!
//! The crossover of the two curves is the measured value recorded in
//! EXPERIMENTS.md E-S3 and baked into `MIN_PAR_SCAN_EVALS`.
//!
//! Run with: `cargo bench -p kanon-bench --bench engine_rescan`

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_algos::cost::Tally;
use kanon_algos::{ClusterDistance, CostContext};
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use std::hint::black_box;

fn bench_dispatch_breakeven(c: &mut Criterion) {
    let n = 4096usize;
    let table = art::generate(n, 42);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let ctx = CostContext::new(&table, &costs);
    let distance = ClusterDistance::default();
    // One arena slot per row, as the engine stores its initial
    // singletons — the newcomer pass evaluates one distance per active
    // slot, so one "item" here is one evaluation, matching the units of
    // MIN_PAR_SCAN_EVALS.
    let arena = ctx.leaf_arena();
    // Evaluation `i` prices candidate slot `others[i]` from a scan of
    // slot `i / BATCH % 64`: consecutive evaluations share a scan and
    // one batched join-cost call, as the candidates of one engine scan do.
    const BATCH: usize = 256;
    let others: Vec<usize> = (0..16384).map(|i| (i * 7 + 1) % n).collect();
    let scans: Vec<_> = (0..64).map(|a| ctx.slot_scan(&arena, a)).collect();
    // Prices evaluations `base..base + out.len()` into `out`.
    let eval_range = |base: usize, out: &mut [f64]| {
        // No collector is installed: the tally is left uncounted.
        let mut tally = Tally::default();
        let mut start = base;
        for chunk in out.chunks_mut(BATCH) {
            let a = start / BATCH % 64;
            let batch = &others[start..start + chunk.len()];
            scans[a].join_costs(batch, chunk, &mut tally);
            for (d, &b) in chunk.iter_mut().zip(batch) {
                *d = distance.eval_symmetric(
                    arena.size(a),
                    arena.cost(a),
                    arena.size(b),
                    arena.cost(b),
                    arena.size(a) + arena.size(b),
                    *d,
                );
            }
            start += chunk.len();
        }
    };

    let mut group = c.benchmark_group("engine_rescan");
    for evals in [256usize, 512, 1024, 2048, 4096, 16384] {
        let mut dists = vec![0.0f64; evals];
        group.bench_with_input(BenchmarkId::new("serial", evals), &evals, |bch, _| {
            bch.iter(|| {
                eval_range(black_box(0), &mut dists);
                dists[0]
            })
        });
        group.bench_with_input(BenchmarkId::new("pool", evals), &evals, |bch, _| {
            bch.iter(|| {
                kanon_parallel::for_each_chunk_mut(&mut dists, |base, chunk| {
                    eval_range(black_box(base), chunk)
                });
                dists[0]
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch_breakeven);
criterion_main!(benches);
