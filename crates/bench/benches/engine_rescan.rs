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
//! * `serial/EVALS`: a plain loop of distance evaluations, each the
//!   engine's own: one `SlotScan::join_cost` from a scan of one
//!   `SigArena` slot (built once per 64 evaluations, as a scan amortizes
//!   it over its candidates), then `eval_symmetric` on the stored sizes
//!   and costs;
//! * `pool/EVALS`:   the same evaluations through `map_coarse` on a warm
//!   pool (criterion's warm-up phase spawns the workers; the timed region
//!   only ever reuses them).
//!
//! The crossover of the two curves is the measured value recorded in
//! EXPERIMENTS.md E-S3 and baked into `MIN_PAR_SCAN_EVALS`.
//!
//! Run with: `cargo bench -p kanon-bench --bench engine_rescan`

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_algos::cost::{SigArena, Tally};
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
    let mut arena = SigArena::with_capacity(ctx.num_attrs(), n);
    for i in 0..n {
        let nodes = ctx.leaf_nodes(i);
        arena.store(i, &nodes, 1, ctx.cost(&nodes));
    }
    // Scans from the first 64 slots; evaluation `i` scans from slot
    // `i / 64 % 64`, so consecutive evaluations share a scan.
    let scans: Vec<_> = (0..64).map(|a| ctx.slot_scan(&arena, a)).collect();
    let eval = |i: usize| {
        let (a, b) = (i / 64 % 64, (i * 7 + 1) % n);
        // No collector is installed: the tally is left uncounted.
        let cost_u = scans[a].join_cost(b, &mut Tally::default());
        distance.eval_symmetric(
            arena.size(a),
            arena.cost(a),
            arena.size(b),
            arena.cost(b),
            arena.size(a) + arena.size(b),
            cost_u,
        )
    };

    let mut group = c.benchmark_group("engine_rescan");
    for evals in [256usize, 512, 1024, 2048, 4096, 16384] {
        group.bench_with_input(BenchmarkId::new("serial", evals), &evals, |bch, &m| {
            bch.iter(|| {
                let mut acc = 0.0f64;
                for i in 0..m {
                    acc += eval(black_box(i));
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("pool", evals), &evals, |bch, &m| {
            bch.iter(|| kanon_parallel::map_coarse(m, |i| eval(black_box(i))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch_breakeven);
criterion_main!(benches);
