//! Experiment E-A5 — (k,k) → global (1,k) conversion statistics
//! (Sec. V-C and the paper's closing observations):
//!
//! * neighbour degrees of (k,k) tables lie between k and 2k "in all of
//!   our experiments";
//! * "in almost all of our experiments, one such step was sufficient" to
//!   lift a deficient record to k matches;
//! * the extra information loss of going global.
//!
//! Usage: `cargo run --release -p kanon-bench --bin global1k_stats -- [--n N] [--k 5,10]`

#![forbid(unsafe_code)]

use kanon_algos::{global_1k_from_kk, try_kk_anonymize, KkConfig};
use kanon_bench::{load_dataset, render_table, Args, DatasetName, TextTable};
use kanon_measures::Measure;
use kanon_verify::consistency_graph;

fn main() {
    let mut args = Args::from_env();
    if args.n_override.is_none() && !args.full {
        // Algorithm 6 is the most expensive step; keep the default modest.
        args.n_override = Some(if args.quick { 150 } else { 400 });
    }
    println!("GLOBAL (1,k) — conversion statistics from (k,k) tables (Alg.6)\n");

    let mut table = TextTable::new([
        "dataset/k",
        "kk loss",
        "global loss",
        "extra %",
        "deficient",
        "upgrades",
        "min deg",
        "max deg",
        "2k",
    ]);

    for name in DatasetName::ALL {
        let dataset = load_dataset(name, &args);
        let costs = Measure::Em.costs(&dataset.table);
        for &k in &args.ks {
            if k >= dataset.table.num_rows() {
                continue;
            }
            let kk = try_kk_anonymize(&dataset.table, &costs, &KkConfig::new(k)).unwrap();
            // Degree statistics of the (k,k) consistency graph.
            let graph = consistency_graph(&dataset.table, &kk.table).unwrap();
            let degrees: Vec<usize> = (0..graph.n_left()).map(|u| graph.degree(u)).collect();
            let min_deg = degrees.iter().copied().min().unwrap();
            let max_deg = degrees.iter().copied().max().unwrap();

            let global = global_1k_from_kk(&dataset.table, &kk.table, &costs, k).unwrap();
            let extra = if kk.loss > 0.0 {
                100.0 * (global.loss / kk.loss - 1.0)
            } else {
                0.0
            };
            table.row([
                format!("{} k={k}", name.label()),
                format!("{:.3}", kk.loss),
                format!("{:.3}", global.loss),
                format!("{extra:+.1}%"),
                format!("{}", global.deficient_records),
                format!("{}", global.upgrade_steps),
                format!("{min_deg}"),
                format!("{max_deg}"),
                format!("{}", 2 * k),
            ]);
        }
    }
    println!("{}", render_table(&table));
    println!(
        "paper's observations: degrees within [k, 2k]; usually one upgrade per\n\
         deficient record; the open question (Sec. VII) is how often (k,k)\n\
         tables are already global — 'deficient = 0' rows answer it here."
    );
}
