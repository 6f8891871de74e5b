//! Experiment E-X1 — the paper's **Sec. VII open question**, implemented:
//!
//! > "For real-life datasets, it might be true that (k,k)-anonymization
//! > (or perhaps a ((1+ε)k, (1+ε)k)-anonymization for a suitably chosen
//! > ε) yields solutions that satisfy also global (1,k)-anonymity."
//!
//! For each dataset and k, this sweeps ε ∈ {0, 0.2, 0.4, …, 1.0}, builds a
//! (⌈(1+ε)k⌉, ⌈(1+ε)k⌉)-anonymization, and reports (a) the fraction of
//! records with ≥ k *matches* (global-deficiency), and (b) the loss —
//! locating the ε at which (k',k')-anonymity subsumes global
//! (1,k)-anonymity and what it costs relative to running Algorithm 6.
//!
//! Usage: `cargo run --release -p kanon-bench --bin epsilon_kk -- [--n N] [--k 5,10]`

#![forbid(unsafe_code)]

use kanon_algos::{global_1k_from_kk, try_kk_anonymize, KkConfig};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_core::generalize::consistency_adjacency;
use kanon_matching::{AllowedEdges, BipartiteGraph, Matching};
use kanon_measures::Measure;

fn main() {
    let mut args = Args::from_env();
    if args.n_override.is_none() && !args.full {
        args.n_override = Some(if args.quick { 150 } else { 400 });
    }
    if args.ks == [5, 10, 15, 20] {
        args.ks = vec![5, 10];
    }
    println!(
        "EPSILON SWEEP — does ((1+ε)k,(1+ε)k)-anonymity imply global (1,k)-anonymity?\n\
         (the paper's Sec. VII conjecture)\n"
    );

    let mut table_out = TextTable::new([
        "dataset/k",
        "eps",
        "k'",
        "min matches",
        "deficient",
        "loss",
        "alg6 loss",
    ]);

    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        let costs = Measure::Em.costs(&dataset.table);
        let n = dataset.table.num_rows();
        for &k in &args.ks {
            // Reference: exact global (1,k) via Algorithm 6 on plain (k,k).
            let kk = try_kk_anonymize(&dataset.table, &costs, &KkConfig::new(k)).unwrap();
            let alg6 = global_1k_from_kk(&dataset.table, &kk.table, &costs, k).unwrap();

            for eps_step in 0..=5 {
                let eps = eps_step as f64 * 0.2;
                let k_prime = ((1.0 + eps) * k as f64).ceil() as usize;
                if k_prime >= n {
                    continue;
                }
                let out =
                    try_kk_anonymize(&dataset.table, &costs, &KkConfig::new(k_prime)).unwrap();
                // Match counts of the (k',k') table, against threshold k.
                let adj = consistency_adjacency(&dataset.table, &out.table).unwrap();
                let g = BipartiteGraph::from_adjacency(n, &adj);
                let identity = Matching {
                    pair_left: (0..n as u32).collect(),
                    pair_right: (0..n as u32).collect(),
                    size: n,
                };
                let oracle = AllowedEdges::compute_with_matching(&g, &identity);
                let counts = oracle.match_counts();
                let min_matches = counts.iter().copied().min().unwrap();
                let deficient = counts.iter().filter(|&&c| c < k).count();
                table_out.row([
                    format!("{} k={k}", name.label()),
                    format!("{eps:.1}"),
                    format!("{k_prime}"),
                    format!("{min_matches}"),
                    format!("{deficient}"),
                    format!("{:.3}", out.loss),
                    if eps_step == 0 {
                        format!("{:.3}", alg6.loss)
                    } else {
                        String::new()
                    },
                ]);
            }
        }
    }
    println!("{}", render_table(&table_out));
    println!(
        "reading: 'deficient = 0' means the (k',k') table is already globally\n\
         (1,k)-anonymous with no matching post-processing; compare its loss to\n\
         the 'alg6 loss' column (exact conversion of the plain (k,k) table)."
    );
}
