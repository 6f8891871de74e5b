//! Experiment E-X2 (extension) — **task-level utility**: mean relative
//! error of random COUNT queries answered on the anonymized tables, the
//! utility lens of the Sec. II related work (Kifer & Gehrke; Xiao & Tao).
//! Shows that the paper's entropy/LM gains translate into better query
//! answers, not just better abstract scores.
//!
//! Usage: `cargo run --release -p kanon-bench --bin query_utility -- [--n N] [--k 5,10]`

#![forbid(unsafe_code)]

use kanon_algos::{
    try_agglomerative_k_anonymize, try_forest_k_anonymize, try_global_1k_anonymize,
    try_kk_anonymize, AgglomerativeConfig, KkConfig,
};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_measures::{mean_relative_error, Measure, QueryWorkload};

fn main() {
    let mut args = Args::from_env();
    if args.n_override.is_none() && !args.full {
        args.n_override = Some(if args.quick { 200 } else { 600 });
    }
    if args.ks == [5, 10, 15, 20] {
        args.ks = vec![5, 10, 20];
    }
    let num_queries = 400;
    let dims = 2;
    println!(
        "QUERY UTILITY — mean relative error of {num_queries} random {dims}-dimensional\n\
         COUNT queries (uniform-spread estimator; lower = better)\n"
    );

    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        let workload = QueryWorkload::random(dataset.table.schema(), num_queries, dims, 2024);
        let costs = Measure::Em.costs(&dataset.table);
        let mut table = TextTable::new(
            std::iter::once(format!("{} (n={})", name.label(), dataset.table.num_rows()))
                .chain(args.ks.iter().map(|k| format!("k={k}"))),
        );
        let mut rows: Vec<(&str, Vec<f64>)> = vec![
            ("k-anon (agglom)", Vec::new()),
            ("forest", Vec::new()),
            ("(k,k)", Vec::new()),
            ("global (1,k)", Vec::new()),
        ];
        for &k in &args.ks {
            let kanon =
                try_agglomerative_k_anonymize(&dataset.table, &costs, &AgglomerativeConfig::new(k))
                    .unwrap()
                    .into_inner();
            let forest = try_forest_k_anonymize(&dataset.table, &costs, k)
                .unwrap()
                .into_inner();
            let kk = try_kk_anonymize(&dataset.table, &costs, &KkConfig::new(k)).unwrap();
            let global =
                try_global_1k_anonymize(&dataset.table, &costs, &KkConfig::new(k)).unwrap();
            for (row, gtable) in
                rows.iter_mut()
                    .zip([&kanon.table, &forest.table, &kk.table, &global.table])
            {
                row.1
                    .push(mean_relative_error(&dataset.table, gtable, &workload).unwrap());
            }
        }
        for (label, errs) in &rows {
            let mut cells = vec![label.to_string()];
            cells.extend(errs.iter().map(|e| format!("{e:.3}")));
            table.row(cells);
        }
        println!("{}", render_table(&table));
    }
    println!(
        "expected shape: the same ordering as the information-loss measures —\n\
         (k,k) answers queries most accurately, the forest baseline least —\n\
         showing the paper's utility gains are real at the analysis level."
    );
}
