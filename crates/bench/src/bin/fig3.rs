//! Experiment E-F3 — regenerates **Figure 3**: information loss vs k on
//! the Adult dataset under the LM measure, series k-anon / forest /
//! (k,k)-anon.
//!
//! Usage: `cargo run --release -p kanon-bench --bin fig3 -- [--full] [--n N]`

#![forbid(unsafe_code)]

use kanon_bench::{
    load_dataset, render_series, run_best_k_anon, run_forest, run_kk_best, series_to_csv, Args,
    DatasetName, Series,
};
use kanon_measures::Measure;

fn main() {
    let args = Args::from_env();
    let dataset = load_dataset(DatasetName::Adt, &args);
    let costs = Measure::Lm.costs(&dataset.table);

    let mut kanon = Vec::new();
    let mut forest = Vec::new();
    let mut kk = Vec::new();
    for &k in &args.ks {
        kanon.push((k, run_best_k_anon(&dataset.table, &costs, k).loss));
        forest.push((k, run_forest(&dataset.table, &costs, k).loss));
        kk.push((k, run_kk_best(&dataset.table, &costs, k).loss));
    }

    let series = vec![
        Series {
            label: "k-anon.".into(),
            points: kanon,
        },
        Series {
            label: "forest alg.".into(),
            points: forest,
        },
        Series {
            label: "(k,k)-anon.".into(),
            points: kk,
        },
    ];
    println!(
        "{}",
        render_series(
            &format!(
                "FIGURE 3 — comparison of algorithms by the LM measure \
                 (ADT, n = {}, seed = {})\n\
                 paper shape: forest > k-anon > (k,k), with the forest gap \
                 wider than under the entropy measure",
                dataset.table.num_rows(),
                args.seed
            ),
            &series
        )
    );

    // Machine-readable companion output for plotting pipelines.
    let csv_path = concat!(env!("CARGO_BIN_NAME"), "_points.csv");
    if std::fs::write(csv_path, series_to_csv(&series)).is_ok() {
        println!("(series also written to {csv_path})");
    }

    let ok_order = series[1]
        .points
        .iter()
        .zip(&series[0].points)
        .zip(&series[2].points)
        .all(|((f, k), kkp)| f.1 >= k.1 && k.1 >= kkp.1);
    println!(
        "shape check (forest ≥ k-anon ≥ (k,k) at every k): {}",
        if ok_order { "HOLDS" } else { "VIOLATED" }
    );
}
