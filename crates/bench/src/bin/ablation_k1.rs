//! Experiment E-A2 — ablation over the two (k,k) couplings, reproducing
//! the paper's conclusion that "the coupling of Algorithms 4 and 5
//! produced better (k,k)-anonymizations than the coupling of Algorithms 3
//! and 5" in all experiments.
//!
//! Usage: `cargo run --release -p kanon-bench --bin ablation_k1 -- [--full] [--n N]`

#![forbid(unsafe_code)]

use kanon_algos::{try_kk_anonymize, K1Method, KkConfig};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_measures::Measure;

fn main() {
    let args = Args::from_env();
    println!("ABLATION — (k,k) couplings: Alg.3+5 (nearest neighbours) vs Alg.4+5 (expansion)\n");

    let mut wins4 = 0usize;
    let mut cells = 0usize;

    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        for measure in Measure::ALL {
            let costs = measure.costs(&dataset.table);
            let mut table = TextTable::new(
                std::iter::once(format!("{} {}", name.label(), measure.label()))
                    .chain(args.ks.iter().map(|k| format!("k={k}"))),
            );
            let mut rows: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
            for (idx, method) in [K1Method::NearestNeighbors, K1Method::Expansion]
                .into_iter()
                .enumerate()
            {
                let mut row = vec![method.name().to_string()];
                for &k in &args.ks {
                    let out =
                        try_kk_anonymize(&dataset.table, &costs, &KkConfig { k, method }).unwrap();
                    row.push(format!("{:.3}", out.loss));
                    rows[idx].push(out.loss);
                }
                table.row(row);
            }
            println!("{}", render_table(&table));
            #[allow(clippy::needless_range_loop)] // k_idx indexes a column across rows
            for k_idx in 0..args.ks.len() {
                cells += 1;
                if rows[1][k_idx] <= rows[0][k_idx] + 1e-12 {
                    wins4 += 1;
                }
            }
        }
    }

    println!(
        "Alg.4+5 at least as good as Alg.3+5 in {wins4}/{cells} cells \
         (paper: better in all experiments)."
    );
}
