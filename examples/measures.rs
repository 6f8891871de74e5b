//! Comparing information-loss measures on the same anonymization task —
//! the paper's Sec. II tour (entropy, LM, tree, non-uniform entropy, DM,
//! CM) as running code, including CSV export of the published table.
//!
//! Run with: `cargo run --release --example measures`

use kanon::measures::{
    classification_metric, discernibility_per_record, nonuniform_entropy_loss, TreeMeasure,
};
use kanon::prelude::*;

fn main() {
    // CMC comes with a class label (contraceptive method), which the CM
    // measure needs.
    let labeled = kanon::data::cmc::generate(400, 13);
    let table = &labeled.table;
    let k = 5;

    println!(
        "CMC-like table: {} records; anonymizing with k = {k} under each measure\n",
        table.num_rows()
    );

    // Optimize under EM, LM and the tree measure, evaluate under all.
    let em_costs = NodeCostTable::compute(table, &EntropyMeasure);
    let lm_costs = NodeCostTable::compute(table, &LmMeasure);
    let tm_costs = NodeCostTable::compute(table, &TreeMeasure);

    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "optimized under", "EM", "LM", "TM", "NE", "DM/n", "CM"
    );
    for (name, costs) in [
        ("entropy (Eq. 3)", &em_costs),
        ("LM (Eq. 4)", &lm_costs),
        ("tree measure", &tm_costs),
    ] {
        let out = try_kk_anonymize(table, costs, &KkConfig::new(k)).unwrap();
        let em = em_costs.table_loss(&out.table);
        let lm = lm_costs.table_loss(&out.table);
        let tm = tm_costs.table_loss(&out.table);
        let ne = nonuniform_entropy_loss(table, &out.table).unwrap();
        let dm = discernibility_per_record(&out.table);
        let cm = classification_metric(&out.table, &labeled.labels).unwrap();
        println!("{name:<22} {em:>8.4} {lm:>8.4} {tm:>8.4} {ne:>8.4} {dm:>8.1} {cm:>8.4}");
    }

    println!(
        "\nreading the grid: each row minimizes its own diagonal-ish column;\n\
         the entropy measure is distribution-aware (cheap to merge values that\n\
         rarely co-occur), LM and the tree measure are purely structural."
    );

    // Export the LM-optimized table as CSV — the hand-off artifact a data
    // custodian would actually publish.
    let out = try_kk_anonymize(table, &lm_costs, &KkConfig::new(k)).unwrap();
    let csv = kanon::data::generalized_to_csv(&out.table);
    let preview: Vec<&str> = csv.lines().take(6).collect();
    println!("\npublished CSV (first rows):\n{}", preview.join("\n"));
}
