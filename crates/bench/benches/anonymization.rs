//! Criterion micro-benchmarks for the core anonymization algorithms
//! (experiment E-S1: the Sec. V complexity claims).
//!
//! Run with: `cargo bench -p kanon-bench`

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_algos::{
    global_1k_from_kk, k1_expansion, k1_nearest_neighbors, try_agglomerative_k_anonymize,
    try_forest_k_anonymize, try_kk_anonymize, try_one_k_anonymize, AgglomerativeConfig,
    ClusterDistance, KkConfig,
};
use kanon_data::art;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use std::hint::black_box;

const K: usize = 5;

fn bench_agglomerative(c: &mut Criterion) {
    let mut group = c.benchmark_group("agglomerative");
    group.sample_size(10);
    for n in [100usize, 200, 400] {
        let table = art::generate(n, 42);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        group.bench_with_input(BenchmarkId::new("basic_d3", n), &n, |b, _| {
            b.iter(|| {
                try_agglomerative_k_anonymize(
                    black_box(&table),
                    &costs,
                    &AgglomerativeConfig::new(K),
                )
                .unwrap()
                .into_inner()
            })
        });
        group.bench_with_input(BenchmarkId::new("modified_d4", n), &n, |b, _| {
            b.iter(|| {
                try_agglomerative_k_anonymize(
                    black_box(&table),
                    &costs,
                    &AgglomerativeConfig::new(K)
                        .with_distance(ClusterDistance::d4())
                        .with_modified(true),
                )
                .unwrap()
                .into_inner()
            })
        });
    }
    group.finish();
}

fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest");
    group.sample_size(10);
    for n in [100usize, 200, 400] {
        let table = art::generate(n, 42);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                try_forest_k_anonymize(black_box(&table), &costs, K)
                    .unwrap()
                    .into_inner()
            })
        });
    }
    group.finish();
}

fn bench_k1(c: &mut Criterion) {
    let mut group = c.benchmark_group("k1");
    group.sample_size(10);
    for n in [100usize, 200, 400] {
        let table = art::generate(n, 42);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        group.bench_with_input(BenchmarkId::new("nearest_neighbors", n), &n, |b, _| {
            b.iter(|| k1_nearest_neighbors(black_box(&table), &costs, K).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("expansion", n), &n, |b, _| {
            b.iter(|| k1_expansion(black_box(&table), &costs, K).unwrap())
        });
    }
    group.finish();
}

fn bench_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipelines");
    group.sample_size(10);
    for n in [100usize, 200] {
        let table = art::generate(n, 42);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        group.bench_with_input(BenchmarkId::new("kk", n), &n, |b, _| {
            b.iter(|| try_kk_anonymize(black_box(&table), &costs, &KkConfig::new(K)).unwrap())
        });
        let k1 = k1_expansion(&table, &costs, K).unwrap();
        group.bench_with_input(BenchmarkId::new("one_k_stage", n), &n, |b, _| {
            b.iter(|| try_one_k_anonymize(black_box(&table), &k1.table, &costs, K).unwrap())
        });
        let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(K)).unwrap();
        group.bench_with_input(BenchmarkId::new("global_stage", n), &n, |b, _| {
            b.iter(|| global_1k_from_kk(black_box(&table), &kk.table, &costs, K).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_agglomerative,
    bench_forest,
    bench_k1,
    bench_pipelines
);
criterion_main!(benches);
