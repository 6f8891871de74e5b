//! Experiment E-A8 (extension) — the full baseline panorama: the paper's
//! agglomerative algorithm against every other classic k-anonymization
//! approach implemented in this workspace, under identical hierarchies
//! and measures:
//!
//! * forest (Aggarwal et al., the paper's own baseline);
//! * Mondrian-style top-down splitting (LeFevre et al. flavour);
//! * MDAV-style microaggregation (Domingo-Ferrer & Mateo-Sanz);
//! * Samarati's binary search (full-domain + suppression budget 1 %);
//! * optimal full-domain recoding (Incognito-style exhaustive);
//! * and the paper's (k,k) pipeline as the utility frontier.
//!
//! Usage: `cargo run --release -p kanon-bench --bin ablation_baselines -- [--n N]`

#![forbid(unsafe_code)]

use kanon_algos::{
    try_agglomerative_k_anonymize, try_forest_k_anonymize, try_fulldomain_k_anonymize,
    try_kk_anonymize, try_mdav_k_anonymize, try_mondrian_k_anonymize, try_samarati_k_anonymize,
    AgglomerativeConfig, KkConfig,
};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_measures::Measure;

fn main() {
    let mut args = Args::from_env();
    if args.n_override.is_none() && !args.full {
        args.n_override = Some(if args.quick { 150 } else { 500 });
    }
    println!("ABLATION — baseline panorama (loss under each measure; lower = better)\n");

    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        let n = dataset.table.num_rows();
        let max_sup = n / 100; // Samarati's customary ~1 % budget
        for measure in Measure::ALL {
            let costs = measure.costs(&dataset.table);
            let mut table = TextTable::new(
                std::iter::once(format!("{} {}", name.label(), measure.label()))
                    .chain(args.ks.iter().map(|k| format!("k={k}"))),
            );
            let mut rows: Vec<(String, Vec<f64>)> = vec![
                ("agglomerative (paper)".into(), Vec::new()),
                ("forest".into(), Vec::new()),
                ("mondrian".into(), Vec::new()),
                ("mdav".into(), Vec::new()),
                ("samarati (1% sup)".into(), Vec::new()),
                ("full-domain opt".into(), Vec::new()),
                ("(k,k) (paper)".into(), Vec::new()),
            ];
            for &k in &args.ks {
                rows[0].1.push(
                    try_agglomerative_k_anonymize(
                        &dataset.table,
                        &costs,
                        &AgglomerativeConfig::new(k),
                    )
                    .unwrap()
                    .into_inner()
                    .loss,
                );
                rows[1].1.push(
                    try_forest_k_anonymize(&dataset.table, &costs, k)
                        .unwrap()
                        .into_inner()
                        .loss,
                );
                rows[2].1.push(
                    try_mondrian_k_anonymize(&dataset.table, &costs, k)
                        .unwrap()
                        .into_inner()
                        .loss,
                );
                rows[3].1.push(
                    try_mdav_k_anonymize(&dataset.table, &costs, k)
                        .unwrap()
                        .loss,
                );
                rows[4].1.push(
                    try_samarati_k_anonymize(&dataset.table, &costs, k, max_sup)
                        .unwrap()
                        .output
                        .loss,
                );
                rows[5].1.push(
                    try_fulldomain_k_anonymize(&dataset.table, &costs, k)
                        .unwrap()
                        .output
                        .loss,
                );
                rows[6].1.push(
                    try_kk_anonymize(&dataset.table, &costs, &KkConfig::new(k))
                        .unwrap()
                        .loss,
                );
            }
            for (label, losses) in &rows {
                let mut cells = vec![label.clone()];
                cells.extend(losses.iter().map(|l| format!("{l:.3}")));
                table.row(cells);
            }
            println!("{}", render_table(&table));
        }
    }
    println!(
        "expected shape: the paper's agglomerative family leads the k-anonymity\n\
         baselines; (k,k) sits below all of them; full-domain methods trail the\n\
         local-recoding ones (Sec. III)."
    );
}
