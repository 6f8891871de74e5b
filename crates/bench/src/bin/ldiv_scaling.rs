//! Experiment E-S2 — runtime scaling of ℓ-diverse k-anonymization,
//! comparing the shared nearest-neighbour-cache clustering engine
//! (`try_l_diverse_k_anonymize`, expected O(n²) distance evaluations)
//! against the original all-pairs closest-pair loop kept verbatim as
//! `l_diverse_reference` (O(n³) distance evaluations).
//!
//! Emits one JSON row per (algo, n, threads) cell to
//! `BENCH_ldiversity.json` (see EXPERIMENTS.md for the format) and a
//! human-readable summary to stdout. Every row embeds the deterministic
//! work counters of its run — `cluster_dist_evals` is the load-bearing
//! one: it grows ~n² for the engine and ~n³ for the reference, which is
//! the point of the experiment. Losses are printed so a reader can verify
//! the two implementations produce identical output.
//!
//! The reference is cubic, so its large-n cells dominate wall time; cap
//! them with `--naive-max-n` (rows above the cap are skipped and reported
//! as skipped, never silently dropped).
//!
//! Usage:
//! `cargo run --release -p kanon-bench --bin ldiv_scaling -- \
//!    [--n 500,1000,2000,4000] [--k 10] [--l 3] [--seed 42] \
//!    [--threads 1,8] [--algos engine,naive] [--naive-max-n 4000] \
//!    [--out BENCH_ldiversity.json]`

#![forbid(unsafe_code)]

use kanon_algos::{ldiversity::l_diverse_reference, try_l_diverse_k_anonymize, LDiverseConfig};
use kanon_data::art;
use kanon_measures::Measure;
use std::time::Instant;

struct Row {
    algo: &'static str,
    n: usize,
    k: usize,
    l: usize,
    threads: usize,
    wall_ms: f64,
    loss: f64,
    /// Deterministic work counters of the run, pre-rendered as a JSON
    /// object (`kanon_obs::Report::counters_json` — fixed key order).
    counters: String,
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|p| p.trim().parse().expect("numeric list argument"))
        .collect()
}

/// Sensitive labelling with five classes — feasible for every ℓ ≤ 5 and
/// mixing freely with the quasi-identifier clustering, so the merge loop
/// genuinely has to work for diversity.
fn sensitive_mod5(n: usize) -> Vec<u32> {
    (0..n).map(|i| (i % 5) as u32).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ns = vec![500usize, 1000, 2000, 4000];
    let mut k = 10usize;
    let mut l = 3usize;
    let mut seed = 42u64;
    let mut threads = vec![
        1usize,
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    ];
    let mut algos = vec!["engine".to_string(), "naive".to_string()];
    let mut naive_max_n = usize::MAX;
    let mut out_path = "BENCH_ldiversity.json".to_string();
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
            "--l" => l = val(&mut it).parse().expect("--l"),
            "--seed" => seed = val(&mut it).parse().expect("--seed"),
            "--threads" => threads = parse_list(&val(&mut it)),
            "--algos" => {
                algos = val(&mut it)
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            "--naive-max-n" => naive_max_n = val(&mut it).parse().expect("--naive-max-n"),
            "--out" => out_path = val(&mut it),
            other => panic!("unknown flag {other}"),
        }
    }
    threads.sort_unstable();
    threads.dedup();

    println!("LDIV SCALING — ART, k = {k}, ℓ = {l}, entropy measure (seed {seed})");
    println!(
        "{:<8} {:>7} {:>8} {:>12} {:>12} {:>16}",
        "algo", "n", "threads", "wall_ms", "loss", "dist_evals"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &n in &ns {
        let t = art::generate(n, seed);
        let costs = Measure::Em.costs(&t);
        let sensitive = sensitive_mod5(n);
        let cfg = LDiverseConfig::new(k, l);
        for algo in &algos {
            // The reference is single-threaded by construction; running it
            // once per thread count would only repeat the same cell.
            let cell_threads: &[usize] = match algo.as_str() {
                "naive" => &threads[..1],
                _ => &threads,
            };
            if algo == "naive" && n > naive_max_n {
                println!("{algo:<8} {n:>7} {:>8}", "skipped (above --naive-max-n)");
                continue;
            }
            for &tc in cell_threads {
                let collector = kanon_obs::Collector::new();
                let (loss, wall_ms) = {
                    let _obs = collector.install();
                    kanon_parallel::with_threads(tc, || {
                        let start = Instant::now();
                        let loss = match algo.as_str() {
                            "engine" => {
                                try_l_diverse_k_anonymize(&t, &costs, &sensitive, &cfg)
                                    .unwrap()
                                    .into_inner()
                                    .loss
                            }
                            "naive" => {
                                l_diverse_reference(&t, &costs, &sensitive, &cfg)
                                    .unwrap()
                                    .loss
                            }
                            other => panic!("unknown algo {other} (engine|naive)"),
                        };
                        (loss, start.elapsed().as_secs_f64() * 1e3)
                    })
                };
                let report = collector.report();
                let evals = report.counter(kanon_obs::Counter::ClusterDistEvals);
                println!("{algo:<8} {n:>7} {tc:>8} {wall_ms:>12.1} {loss:>12.6} {evals:>16}");
                rows.push(Row {
                    algo: if algo == "engine" {
                        "ldiv_engine"
                    } else {
                        "ldiv_naive"
                    },
                    n,
                    k,
                    l,
                    threads: tc,
                    wall_ms,
                    loss,
                    counters: report.counters_json(),
                });
            }
        }
    }

    // Naive-vs-engine speedup summary per n (serial cells, so the factor
    // isolates the algorithmic win from the parallel one).
    println!("\nspeedup (naive / engine, 1 thread):");
    for &n in &ns {
        let ms = |algo: &str| {
            rows.iter()
                .find(|r| r.algo == algo && r.n == n && r.threads == 1)
                .map(|r| r.wall_ms)
        };
        if let (Some(naive), Some(engine)) = (ms("ldiv_naive"), ms("ldiv_engine")) {
            println!("  n={n:<6} {:.2}x", naive / engine);
        }
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"algo\": \"{}\", \"n\": {}, \"k\": {}, \"l\": {}, \"threads\": {}, \"wall_ms\": {:.3}, \"loss\": {:.12}, \"counters\": {}}}{}\n",
            r.algo,
            r.n,
            r.k,
            r.l,
            r.threads,
            r.wall_ms,
            r.loss,
            r.counters,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).expect("write ldiv scaling rows");
    println!("\nwrote {} rows to {out_path}", rows.len());
}
