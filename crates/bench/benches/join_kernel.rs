//! Criterion micro-benchmarks for the O(1) join kernel.
//!
//! * `hierarchy_join`: `Hierarchy::join` (the parent-pointer climb)
//!   against a probe of the fused join×cost table that
//!   `NodeCostTable::compute` builds for hierarchies under the node
//!   budget, on the same hierarchy and the same pseudo-random node pairs.
//! * `pair_scan`: pairwise row costs priced as Algorithm 3 and the
//!   forest price them, one `SlotScan::join_costs` batch of 64 rows from
//!   each of 16 rows of the leaf arena: one read of the scanning row's
//!   hoisted fused-table row per attribute and candidate, the
//!   interleaved `(join, cost)` table that serves every join and join
//!   cost in `kanon-algos`. Against the same scans over the cost table
//!   with its join tables dropped (`without_join_tables`: a climb and a
//!   cost-row read per attribute), on the same batches.
//!
//! Run with: `cargo bench -p kanon-bench --bench join_kernel`

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_algos::cost::Tally;
use kanon_algos::CostContext;
use kanon_core::hierarchy::NodeId;
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use std::hint::black_box;

/// Fixed pseudo-random pair stream (splitmix-style) over `0..m`,
/// identical for both variants of a group.
fn pairs(m: u64) -> Vec<(usize, usize)> {
    (0..1024u64)
        .map(|i| {
            let mut x = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58476D1CE4E5B9);
            ((x % m) as usize, ((x >> 32) % m) as usize)
        })
        .collect()
}

fn bench_hierarchy_join(c: &mut Criterion) {
    let table = art::generate(64, 42);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let schema = table.schema();
    // The widest hierarchy of the ART schema gives the deepest climbs.
    let j = (0..schema.num_attrs())
        .max_by_key(|&j| schema.attr(j).hierarchy().num_nodes())
        .unwrap();
    let h = schema.attr(j).hierarchy();
    let entries = costs
        .attr_joins(j)
        .expect("ART hierarchies fit the node budget");
    let m = h.num_nodes();
    let pairs = pairs(m as u64);

    let mut group = c.benchmark_group("hierarchy_join");
    group.bench_function(BenchmarkId::new("fused", m), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(x, y) in &pairs {
                acc ^= entries[black_box(x) * m + black_box(y)].node;
            }
            acc
        })
    });
    group.bench_function(BenchmarkId::new("climb", m), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(x, y) in &pairs {
                acc ^= h
                    .join(NodeId(black_box(x) as u32), NodeId(black_box(y) as u32))
                    .0;
            }
            acc
        })
    });
    group.finish();
}

fn bench_pair_scan(c: &mut Criterion) {
    const BATCH: usize = 64;
    let n = 2048usize;
    let table = art::generate(n, 42);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let climb_costs = costs.clone().without_join_tables();
    let fused = CostContext::new(&table, &costs);
    let climb = CostContext::new(&table, &climb_costs);
    let leaves = fused.leaf_arena();
    // Each batch scans from the first row of its first pair over the
    // second rows of its 64 pairs; the other pairs' first rows go unused.
    let pairs = pairs(n as u64);
    let batches: Vec<(usize, Vec<usize>)> = pairs
        .chunks(BATCH)
        .map(|chunk| (chunk[0].0, chunk.iter().map(|&(_, j)| j).collect()))
        .collect();

    let mut group = c.benchmark_group("pair_scan");
    for (name, ctx) in [("fused", &fused), ("climb", &climb)] {
        group.bench_function(BenchmarkId::new(name, n), |b| {
            let mut out = [0.0; BATCH];
            b.iter(|| {
                // No collector is installed: the tally is left uncounted.
                let mut tally = Tally::default();
                let mut acc = 0.0f64;
                for (i, others) in &batches {
                    ctx.slot_scan(&leaves, black_box(*i)).join_costs(
                        black_box(others),
                        &mut out,
                        &mut tally,
                    );
                    acc += out.iter().sum::<f64>();
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hierarchy_join, bench_pair_scan);
criterion_main!(benches);
