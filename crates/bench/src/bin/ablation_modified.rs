//! Experiment E-A3 — ablation of the Algorithm 2 correction, reproducing
//! the paper's conclusion: "the corrections made in the modified
//! agglomerative algorithm usually reduce the information loss …
//! however, those improvements are negligible for [D3 and D4]".
//!
//! Usage: `cargo run --release -p kanon-bench --bin ablation_modified -- [--full] [--n N]`

#![forbid(unsafe_code)]

use kanon_algos::{try_agglomerative_k_anonymize, AgglomerativeConfig, ClusterDistance};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_measures::Measure;

fn main() {
    let args = Args::from_env();
    println!("ABLATION — basic (Alg.1) vs modified (Alg.2) agglomerative algorithm\n");

    // Average relative improvement (%) of the modification, per distance.
    let mut improvement_sum = [0.0f64; 4];
    let mut cells = 0usize;

    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        for measure in Measure::ALL {
            let costs = measure.costs(&dataset.table);
            let mut table = TextTable::new(
                std::iter::once(format!("{} {}", name.label(), measure.label()))
                    .chain(args.ks.iter().map(|k| format!("k={k}"))),
            );
            for (d_idx, d) in ClusterDistance::paper_variants().into_iter().enumerate() {
                let mut basic_row = vec![format!("{} basic", d.name())];
                let mut mod_row = vec![format!("{} modified", d.name())];
                for &k in &args.ks {
                    let basic = try_agglomerative_k_anonymize(
                        &dataset.table,
                        &costs,
                        &AgglomerativeConfig::new(k).with_distance(d),
                    )
                    .unwrap()
                    .into_inner();
                    let modified = try_agglomerative_k_anonymize(
                        &dataset.table,
                        &costs,
                        &AgglomerativeConfig::new(k)
                            .with_distance(d)
                            .with_modified(true),
                    )
                    .unwrap()
                    .into_inner();
                    basic_row.push(format!("{:.3}", basic.loss));
                    mod_row.push(format!("{:.3}", modified.loss));
                    if basic.loss > 0.0 {
                        improvement_sum[d_idx] += 100.0 * (1.0 - modified.loss / basic.loss);
                    }
                }
                cells += args.ks.len();
                table.row(basic_row);
                table.row(mod_row);
            }
            println!("{}", render_table(&table));
        }
    }

    let per_distance = cells as f64 / 4.0;
    println!("mean improvement of the Alg.2 correction (positive = helps):");
    for (i, d) in ClusterDistance::paper_variants().iter().enumerate() {
        println!("  {}: {:+.2}%", d.name(), improvement_sum[i] / per_distance);
    }
    println!("\npaper's conclusion: usually helps, negligibly for D3/D4.");
}
