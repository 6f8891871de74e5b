//! Criterion micro-benchmark pinning the ℓ-diversity closest-pair fix:
//! the shared nearest-neighbour-cache engine (`try_l_diverse_k_anonymize`,
//! O(n²) expected distance evaluations) against the original all-pairs
//! merge loop kept verbatim as `l_diverse_reference` (O(n³)).
//!
//! Sizes are deliberately small — the reference is cubic, and criterion
//! repeats every cell many times. The full-size separation (n up to
//! 4000, with embedded `cluster_dist_evals` counters) lives in the
//! `ldiv_scaling` binary and `BENCH_ldiversity.json`.
//!
//! Run with: `cargo bench -p kanon-bench --bench ldiversity`

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kanon_algos::{ldiversity::l_diverse_reference, try_l_diverse_k_anonymize, LDiverseConfig};
use kanon_data::art;
use kanon_measures::Measure;
use std::hint::black_box;

fn bench_ldiversity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ldiversity");
    group.sample_size(10);
    for n in [100usize, 200, 400] {
        let table = art::generate(n, 42);
        let costs = Measure::Em.costs(&table);
        let sensitive: Vec<u32> = (0..n).map(|i| (i % 5) as u32).collect();
        let cfg = LDiverseConfig::new(5, 3);
        group.bench_with_input(BenchmarkId::new("engine", n), &n, |b, _| {
            b.iter(|| {
                try_l_diverse_k_anonymize(black_box(&table), &costs, &sensitive, &cfg)
                    .unwrap()
                    .into_inner()
                    .loss
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| {
                l_diverse_reference(black_box(&table), &costs, &sensitive, &cfg)
                    .unwrap()
                    .loss
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ldiversity);
criterion_main!(benches);
