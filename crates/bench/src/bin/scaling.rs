//! Experiment E-S1 — runtime scaling of the main algorithms in `n` and in
//! the worker-thread count, supporting the complexity claims of Sec. V
//! (O(n²) agglomerative, O(k·n²) for the (k,k) pipeline) and measuring
//! the speedup of the `kanon-parallel` execution layer.
//!
//! Emits one JSON row per (algo, n, threads) cell to `BENCH_scaling.json`
//! (see EXPERIMENTS.md for the format) and a human-readable summary to
//! stdout. Losses are printed so a reader can verify that thread count
//! changes wall time only — never the output.
//!
//! Usage:
//! `cargo run --release -p kanon-bench --bin scaling -- \
//!    [--n 1000,2000,5000] [--k 10] [--seed 42] [--threads 1,2,4,8] \
//!    [--algos agglom,forest,kk,ldiv,sharded] [--shard-max 2000] \
//!    [--out BENCH_scaling.json]`
//!
//! The `sharded` algo is the shard-and-conquer pipeline (E-S4); it is
//! the only arm that scales to n = 10⁶, so large-n runs should pass
//! `--algos sharded` alone.

#![forbid(unsafe_code)]

use kanon_algos::{
    try_agglomerative_k_anonymize, try_forest_k_anonymize, try_kk_anonymize,
    try_l_diverse_k_anonymize, try_sharded_k_anonymize, AgglomerativeConfig, KkConfig,
    LDiverseConfig, ShardConfig,
};
use kanon_data::art;
use kanon_measures::Measure;
use std::time::Instant;

struct Row {
    algo: &'static str,
    n: usize,
    k: usize,
    threads: usize,
    wall_ms: f64,
    loss: f64,
    /// Deterministic work counters of the run, pre-rendered as a JSON
    /// object (`kanon_obs::Report::counters_json` — fixed key order, so
    /// rows for the same cell at different thread counts must be
    /// byte-identical here).
    counters: String,
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|p| p.trim().parse().expect("numeric list argument"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ns = vec![1000usize, 2000, 5000];
    let mut k = 10usize;
    let mut seed = 42u64;
    // The default ladder exposes the scaling *curve*, not just the two
    // endpoints — a pool-dispatch regression that only hurts small
    // fan-outs shows up at 2 threads long before it shows at 8.
    let mut threads = vec![1usize, 2, 4, 8];
    let mut algos = vec![
        "agglom".to_string(),
        "forest".to_string(),
        "kk".to_string(),
        "ldiv".to_string(),
    ];
    let mut shard_max = 2000usize;
    let mut out_path = "BENCH_scaling.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match flag.as_str() {
            "--n" => ns = parse_list(&val(&mut it)),
            "--k" => k = val(&mut it).parse().expect("--k"),
            "--seed" => seed = val(&mut it).parse().expect("--seed"),
            "--threads" => threads = parse_list(&val(&mut it)),
            "--algos" => {
                algos = val(&mut it)
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            "--shard-max" => shard_max = val(&mut it).parse().expect("--shard-max"),
            "--out" => out_path = val(&mut it),
            other => panic!("unknown flag {other}"),
        }
    }
    threads.sort_unstable();
    threads.dedup();

    println!("SCALING — ART, k = {k}, entropy measure, D3 (seed {seed})");
    println!(
        "{:<8} {:>7} {:>8} {:>12} {:>12}",
        "algo", "n", "threads", "wall_ms", "loss"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &n in &ns {
        let t = art::generate(n, seed);
        let costs = Measure::Em.costs(&t);
        // Sensitive labelling for the ldiv rows: five classes, feasible
        // for ℓ = 3 and independent of the quasi-identifiers (same
        // scheme as the ldiv_scaling binary).
        let sensitive: Vec<u32> = (0..n).map(|i| (i % 5) as u32).collect();
        for algo in &algos {
            for &tc in &threads {
                let collector = kanon_obs::Collector::new();
                let (loss, wall_ms) = {
                    let _obs = collector.install();
                    kanon_parallel::with_threads(tc, || {
                        let start = Instant::now();
                        let loss = match algo.as_str() {
                            "agglom" => {
                                try_agglomerative_k_anonymize(
                                    &t,
                                    &costs,
                                    &AgglomerativeConfig::new(k),
                                )
                                .unwrap()
                                .into_inner()
                                .loss
                            }
                            "forest" => {
                                try_forest_k_anonymize(&t, &costs, k)
                                    .unwrap()
                                    .into_inner()
                                    .loss
                            }
                            "kk" => {
                                try_kk_anonymize(&t, &costs, &KkConfig::new(k))
                                    .unwrap()
                                    .loss
                            }
                            "ldiv" => {
                                let cfg = LDiverseConfig::new(k, 3);
                                try_l_diverse_k_anonymize(&t, &costs, &sensitive, &cfg)
                                    .unwrap()
                                    .into_inner()
                                    .loss
                            }
                            "sharded" => {
                                let cfg = ShardConfig::new(k).with_shard_max(shard_max);
                                try_sharded_k_anonymize(&t, &costs, &cfg)
                                    .unwrap()
                                    .into_inner()
                                    .out
                                    .loss
                            }
                            other => panic!("unknown algo {other} (agglom|forest|kk|ldiv|sharded)"),
                        };
                        (loss, start.elapsed().as_secs_f64() * 1e3)
                    })
                };
                println!("{algo:<8} {n:>7} {tc:>8} {wall_ms:>12.1} {loss:>12.6}");
                rows.push(Row {
                    algo: match algo.as_str() {
                        "agglom" => "agglom",
                        "forest" => "forest",
                        "ldiv" => "ldiv",
                        "sharded" => "sharded",
                        _ => "kk",
                    },
                    n,
                    k,
                    threads: tc,
                    wall_ms,
                    loss,
                    counters: collector.report().counters_json(),
                });
            }
        }
    }

    // Serial-vs-max speedup summary per (algo, n).
    if threads.len() >= 2 {
        let (lo, hi) = (threads[0], *threads.last().unwrap());
        println!("\nspeedup ({lo} → {hi} threads):");
        for &n in &ns {
            for algo in &algos {
                let ms = |tc: usize| {
                    rows.iter()
                        .find(|r| r.algo == algo.as_str() && r.n == n && r.threads == tc)
                        .map(|r| r.wall_ms)
                };
                if let (Some(a), Some(b)) = (ms(lo), ms(hi)) {
                    println!("  {algo:<8} n={n:<6} {:.2}x", a / b);
                }
            }
        }
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"algo\": \"{}\", \"n\": {}, \"k\": {}, \"threads\": {}, \"wall_ms\": {:.3}, \"loss\": {:.12}, \"counters\": {}}}{}\n",
            r.algo,
            r.n,
            r.k,
            r.threads,
            r.wall_ms,
            r.loss,
            r.counters,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).expect("write scaling rows");
    println!("\nwrote {} rows to {out_path}", rows.len());
}
