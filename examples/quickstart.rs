//! Quickstart: anonymize a table under all of the paper's notions and
//! compare the utility you keep.
//!
//! Run with: `cargo run --release --example quickstart`

use kanon::prelude::*;
use kanon::verify::AnonymityProfile;

fn main() {
    // 1. A dataset. Here: the paper's synthetic ART workload (Sec. VI);
    //    swap in `kanon::data::adult::generate` or your own CSV via
    //    `kanon::data::table_from_csv` + a `SchemaBuilder` schema.
    let table = kanon::data::art::generate(300, 42);
    println!(
        "original table: {} records, {} quasi-identifiers\n",
        table.num_rows(),
        table.num_attrs()
    );

    // 2. A measure. The entropy measure (Eq. 3) charges each generalized
    //    entry the conditional entropy of the subset it was blurred into.
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);

    let k = 5;

    // 3a. Classic k-anonymity via the paper's agglomerative algorithm
    //     (Algorithm 1, distance D3 — one of the two best in the paper).
    let kanon_out = try_agglomerative_k_anonymize(
        &table,
        &costs,
        &AgglomerativeConfig::new(k).with_distance(ClusterDistance::D3),
    )
    .unwrap()
    .into_inner();

    // 3b. (k,k)-anonymity (Algorithms 4 + 5): same practical privacy
    //     against an adversary who knows individuals' public data, with
    //     strictly better utility.
    let kk_out = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();

    // 3c. Global (1,k)-anonymity (…+ Algorithm 6): safe even against an
    //     adversary who knows the exact member set of the database.
    let global_out = try_global_1k_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();

    println!("information loss (entropy measure, lower = more utility):");
    println!("  k-anonymity       : {:.4} bits/entry", kanon_out.loss);
    println!(
        "  (k,k)-anonymity   : {:.4} bits/entry   ({:+.1}% vs k-anon)",
        kk_out.loss,
        100.0 * (kk_out.loss / kanon_out.loss - 1.0)
    );
    println!(
        "  global (1,k)      : {:.4} bits/entry   ({} records needed upgrading)",
        global_out.loss, global_out.deficient_records
    );

    // 4. Verify what was achieved — never trust, always check.
    for (name, gtable) in [
        ("k-anonymity", &kanon_out.table),
        ("(k,k)", &kk_out.table),
        ("global (1,k)", &global_out.table),
    ] {
        let p = AnonymityProfile::compute(&table, gtable).unwrap();
        println!(
            "  {name:<14} profile: k-anon {}, (1,k) {}, (k,1) {}, (k,k) {}, global {}",
            p.k_anonymity, p.one_k, p.k_one, p.kk, p.global_1k
        );
    }

    // 5. Peek at the published data.
    println!("\nfirst rows of the (k,k)-anonymized table:");
    for i in 0..5 {
        println!("  {}", kk_out.table.row(i).display(table.schema()));
    }
}
