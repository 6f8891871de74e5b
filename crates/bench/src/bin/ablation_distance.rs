//! Experiment E-A1 — ablation over the four distance functions of
//! Sec. V-A.2, reproducing the paper's "additional conclusion" that
//! Eq. (10) (D3) and Eq. (11) (D4) consistently give the best results.
//!
//! Usage: `cargo run --release -p kanon-bench --bin ablation_distance -- [--full] [--n N]`

#![forbid(unsafe_code)]

use kanon_algos::{try_agglomerative_k_anonymize, AgglomerativeConfig, ClusterDistance};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_measures::Measure;

fn main() {
    let args = Args::from_env();
    println!("ABLATION — distance functions D1–D4 (basic agglomerative algorithm)\n");

    // Rank sums over all (dataset, measure, k) cells: lower = better.
    let mut rank_sum = [0usize; 4];
    let mut cells = 0usize;

    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        for measure in Measure::ALL {
            let costs = measure.costs(&dataset.table);
            let mut table = TextTable::new(
                std::iter::once(format!("{} {}", name.label(), measure.label()))
                    .chain(args.ks.iter().map(|k| format!("k={k}"))),
            );
            let mut losses: Vec<Vec<f64>> = Vec::new();
            for d in ClusterDistance::paper_variants() {
                let mut row = vec![d.name().to_string()];
                let mut per_k = Vec::new();
                for &k in &args.ks {
                    let cfg = AgglomerativeConfig::new(k).with_distance(d);
                    let out = try_agglomerative_k_anonymize(&dataset.table, &costs, &cfg)
                        .unwrap()
                        .into_inner();
                    row.push(format!("{:.3}", out.loss));
                    per_k.push(out.loss);
                }
                losses.push(per_k);
                table.row(row);
            }
            println!("{}", render_table(&table));
            #[allow(clippy::needless_range_loop)] // k_idx indexes a column across rows
            for k_idx in 0..args.ks.len() {
                let mut order: Vec<usize> = (0..4).collect();
                order.sort_by(|&a, &b| losses[a][k_idx].total_cmp(&losses[b][k_idx]));
                for (rank, &d_idx) in order.iter().enumerate() {
                    rank_sum[d_idx] += rank;
                }
                cells += 1;
            }
        }
    }

    println!("mean rank across {cells} cells (0 = always best):");
    for (i, d) in ClusterDistance::paper_variants().iter().enumerate() {
        println!("  {}: {:.2}", d.name(), rank_sum[i] as f64 / cells as f64);
    }
    println!("\npaper's conclusion: D3 (Eq. 10) and D4 (Eq. 11) consistently best.");
}
