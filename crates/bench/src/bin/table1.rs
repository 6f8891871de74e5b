//! Experiment E-T1 — regenerates **Table I** ("Summary of results"):
//! six blocks (3 datasets × 2 measures), rows best-k-anon / forest /
//! (k,k)-anon, columns k ∈ {5, 10, 15, 20}.
//!
//! Usage: `cargo run --release -p kanon-bench --bin table1 -- [--full|--quick] [--n N] [--seed S]`
//!
//! Prints measured losses alongside the paper's reference values (our
//! ADT/CMC are synthetic look-alikes, so shapes — orderings and ratios —
//! are the comparison target, not absolute numbers; see EXPERIMENTS.md).

#![forbid(unsafe_code)]

use kanon_bench::{
    load_dataset, render_table, run_best_k_anon, run_forest, run_kk_best, Args, DatasetName,
    TextTable,
};
use kanon_measures::Measure;

/// Paper's Table I values: `[dataset][measure][row][k_index]`.
/// Rows: best k-anon, forest, (k,k)-anon. k ∈ {5, 10, 15, 20}.
const PAPER: [[[[f64; 4]; 3]; 2]; 3] = [
    // ART
    [
        // EM
        [
            [0.65, 0.98, 1.13, 1.22],
            [0.89, 1.25, 1.42, 1.51],
            [0.53, 0.83, 0.99, 1.08],
        ],
        // LM
        [
            [0.12, 0.19, 0.23, 0.25],
            [0.15, 0.24, 0.28, 0.31],
            [0.10, 0.16, 0.19, 0.22],
        ],
    ],
    // ADT
    [
        [
            [0.66, 0.93, 1.08, 1.18],
            [1.02, 1.45, 1.63, 1.73],
            [0.50, 0.75, 0.90, 1.00],
        ],
        [
            [0.14, 0.20, 0.24, 0.26],
            [0.22, 0.37, 0.46, 0.53],
            [0.09, 0.13, 0.16, 0.18],
        ],
    ],
    // CMC
    [
        [
            [0.67, 0.95, 1.08, 1.20],
            [0.99, 1.31, 1.46, 1.53],
            [0.54, 0.80, 0.98, 1.10],
        ],
        [
            [0.14, 0.21, 0.25, 0.28],
            [0.19, 0.31, 0.40, 0.44],
            [0.11, 0.17, 0.20, 0.23],
        ],
    ],
];

const ROW_NAMES: [&str; 3] = ["best k-anon", "forest", "(k,k)-anon"];

fn main() {
    let args = Args::from_env();
    println!("TABLE I — SUMMARY OF RESULTS (measured vs paper)\n");

    let mut avg_entry_loss: Vec<(String, f64, f64)> = Vec::new();

    for (d_idx, name) in DatasetName::ALL.iter().enumerate() {
        let dataset = load_dataset(*name, &args);
        println!(
            "dataset {} (n = {}, seed = {})",
            name.label(),
            dataset.table.num_rows(),
            args.seed
        );
        for (m_idx, measure) in Measure::ALL.iter().enumerate() {
            let costs = measure.costs(&dataset.table);
            let mut table = TextTable::new(
                std::iter::once(format!("{} {}", name.label(), measure.label())).chain(
                    args.ks
                        .iter()
                        .flat_map(|k| [format!("k={k}"), "(paper)".to_string()]),
                ),
            );
            let mut losses: Vec<Vec<f64>> = vec![Vec::new(); 3];
            for (row_idx, row_name) in ROW_NAMES.iter().enumerate() {
                let mut cells = vec![row_name.to_string()];
                for (k_idx, &k) in args.ks.iter().enumerate() {
                    let res = match row_idx {
                        0 => run_best_k_anon(&dataset.table, &costs, k),
                        1 => run_forest(&dataset.table, &costs, k),
                        _ => run_kk_best(&dataset.table, &costs, k),
                    };
                    losses[row_idx].push(res.loss);
                    cells.push(format!("{:.2}", res.loss));
                    // Paper reference only defined for the default k grid.
                    let reference = if args.ks == [5, 10, 15, 20] {
                        format!("{:.2}", PAPER[d_idx][m_idx][row_idx][k_idx])
                    } else {
                        "-".to_string()
                    };
                    cells.push(reference);
                }
                table.row(cells);
            }
            println!("{}", render_table(&table));
            // Shape checks the paper highlights.
            let (best, forest, kk) = (&losses[0], &losses[1], &losses[2]);
            let improve_forest: Vec<f64> = best
                .iter()
                .zip(forest)
                .map(|(b, f)| 100.0 * (1.0 - b / f))
                .collect();
            let improve_kk: Vec<f64> = kk
                .iter()
                .zip(best)
                .map(|(kkl, b)| 100.0 * (1.0 - kkl / b))
                .collect();
            println!(
                "  best k-anon vs forest: {} improvement",
                improve_forest
                    .iter()
                    .map(|p| format!("{p:+.0}%"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            println!(
                "  (k,k) vs best k-anon:  {} improvement (paper: 10%-30%)\n",
                improve_kk
                    .iter()
                    .map(|p| format!("{p:+.0}%"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            if args.ks.first() == Some(&5) {
                avg_entry_loss.push((
                    format!("{} {}", name.label(), measure.label()),
                    best[0],
                    kk[0],
                ));
            }
        }
    }

    // E-A4: the paper's observation that per-entry loss at a given k is
    // roughly dataset-independent (~0.66 bits EM / ~0.13 LM at k=5 for
    // best k-anon).
    if !avg_entry_loss.is_empty() {
        println!("per-entry loss at k=5 (paper: ≈0.66 bits EM, ≈0.13 LM units, best k-anon):");
        for (label, best, kk) in avg_entry_loss {
            println!("  {label}: best k-anon {best:.3}, (k,k) {kk:.3}");
        }
    }
}
