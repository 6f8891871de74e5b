//! Criterion micro-benchmarks for the O(1) join kernel.
//!
//! * `hierarchy_join`: `Hierarchy::join` (dense LCA-table lookup, which
//!   `Hierarchy::has_join_table` reports for hierarchies under the node
//!   budget) against `Hierarchy::join_uncached` (the parent-pointer climb
//!   that `CostContext` falls back to over the budget) on the same
//!   hierarchy and the same pseudo-random node pairs.
//! * `pair_cost`: `CostContext::pair_cost`, one probe per attribute of
//!   the fused interleaved `(join, cost)` table that serves every join
//!   and join cost in `kanon-algos`, against the split form (a
//!   `Hierarchy::join` lookup *then* a separate cost-row probe per
//!   attribute) on the same row pairs.
//!
//! Run with: `cargo bench -p kanon-bench --bench join_kernel`

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_algos::CostContext;
use kanon_core::hierarchy::NodeId;
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use std::hint::black_box;

fn bench_hierarchy_join(c: &mut Criterion) {
    let table = art::generate(64, 42);
    let schema = table.schema();
    // The widest hierarchy of the ART schema gives the deepest climbs.
    let h = (0..schema.num_attrs())
        .map(|j| schema.attr(j).hierarchy())
        .max_by_key(|h| h.num_nodes())
        .unwrap();
    assert!(h.has_join_table(), "ART hierarchies fit the default budget");
    let m = h.num_nodes() as u64;
    // Fixed pseudo-random pair stream (splitmix-style), identical for
    // both variants.
    let pairs: Vec<(NodeId, NodeId)> = (0..1024u64)
        .map(|i| {
            let mut x = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58476D1CE4E5B9);
            (NodeId((x % m) as u32), NodeId(((x >> 32) % m) as u32))
        })
        .collect();

    let mut group = c.benchmark_group("hierarchy_join");
    group.bench_function(BenchmarkId::new("table", h.num_nodes()), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(x, y) in &pairs {
                acc ^= h.join(black_box(x), black_box(y)).0;
            }
            acc
        })
    });
    group.bench_function(BenchmarkId::new("climb", h.num_nodes()), |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(x, y) in &pairs {
                acc ^= h.join_uncached(black_box(x), black_box(y)).0;
            }
            acc
        })
    });
    group.finish();
}

fn bench_fused_pair_cost(c: &mut Criterion) {
    let n = 2048usize;
    let table = art::generate(n, 42);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let ctx = CostContext::new(&table, &costs);
    let schema = table.schema();
    let hs: Vec<_> = (0..schema.num_attrs())
        .map(|j| schema.attr(j).hierarchy())
        .collect();
    let sigs: Vec<Vec<NodeId>> = (0..n).map(|i| ctx.leaf_nodes(i)).collect();
    let pairs: Vec<(usize, usize)> = (0..1024u64)
        .map(|i| {
            let mut x = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58476D1CE4E5B9);
            ((x % n as u64) as usize, ((x >> 32) % n as u64) as usize)
        })
        .collect();

    let mut group = c.benchmark_group("pair_cost");
    group.bench_function(BenchmarkId::new("fused", n), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(i, j) in &pairs {
                acc += ctx.pair_cost(black_box(i), black_box(j));
            }
            acc
        })
    });
    group.bench_function(BenchmarkId::new("split", n), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(i, j) in &pairs {
                let (si, sj) = (&sigs[black_box(i)], &sigs[black_box(j)]);
                let mut sum = 0.0;
                for (a, h) in hs.iter().enumerate() {
                    let u = h.join(si[a], sj[a]);
                    sum += costs.entry_cost(a, u);
                }
                acc += sum / hs.len() as f64;
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hierarchy_join, bench_fused_pair_cost);
criterion_main!(benches);
