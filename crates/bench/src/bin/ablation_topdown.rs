//! Experiment E-A6 (extension) — bottom-up vs top-down local recoding:
//! the paper's agglomerative family against a Mondrian-style top-down
//! splitter over the same hierarchies and measures. Contextualizes the
//! paper's design choice of agglomeration (Sec. V-A) against the other
//! standard partitioning paradigm.
//!
//! Usage: `cargo run --release -p kanon-bench --bin ablation_topdown -- [--n N]`

#![forbid(unsafe_code)]

use kanon_algos::{try_agglomerative_k_anonymize, try_mondrian_k_anonymize, AgglomerativeConfig};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_measures::Measure;

fn main() {
    let args = Args::from_env();
    println!("ABLATION — bottom-up (agglomerative, D3) vs top-down (Mondrian-style)\n");

    let mut agg_wins = 0usize;
    let mut cells = 0usize;
    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        for measure in Measure::ALL {
            let costs = measure.costs(&dataset.table);
            let mut table = TextTable::new(
                std::iter::once(format!("{} {}", name.label(), measure.label()))
                    .chain(args.ks.iter().map(|k| format!("k={k}"))),
            );
            let mut agg_row = vec!["agglomerative".to_string()];
            let mut mon_row = vec!["mondrian".to_string()];
            for &k in &args.ks {
                let agg = try_agglomerative_k_anonymize(
                    &dataset.table,
                    &costs,
                    &AgglomerativeConfig::new(k),
                )
                .unwrap()
                .into_inner();
                let mon = try_mondrian_k_anonymize(&dataset.table, &costs, k)
                    .unwrap()
                    .into_inner();
                agg_row.push(format!("{:.3}", agg.loss));
                mon_row.push(format!("{:.3}", mon.loss));
                cells += 1;
                if agg.loss <= mon.loss + 1e-12 {
                    agg_wins += 1;
                }
            }
            table.row(agg_row);
            table.row(mon_row);
            println!("{}", render_table(&table));
        }
    }
    println!(
        "agglomerative at least as good in {agg_wins}/{cells} cells — local\n\
         bottom-up merging exploits record-level structure that axis-aligned\n\
         top-down splits cannot reach (the reason the paper builds on it)."
    );
}
