//! The security story of Sec. IV-A, played out:
//!
//! 1. naive (1,k)-anonymity is worthless — the paper's counterexample
//!    (identity rows + a suppressed tail) re-identifies most individuals;
//! 2. (k,k)-anonymity defeats the realistic adversary (Adversary 1) but
//!    can fall to the omniscient Adversary 2, who knows the exact member
//!    set and prunes non-matches via perfect-matching reasoning;
//! 3. global (1,k)-anonymity (Algorithm 6) restores full k-anonymity-level
//!    protection even against Adversary 2.
//!
//! Run with: `cargo run --release --example adversary`

use kanon::algos::global_1k_from_kk;
use kanon::prelude::*;
use kanon::verify::{Adversary1, Adversary2};
use std::sync::Arc;

fn main() {
    let k = 3;

    // ---------------------------------------------------------------
    // Act 1: the (1,k) trap (Sec. IV-A counterexample).
    // ---------------------------------------------------------------
    println!("=== Act 1: (1,k)-anonymity is not enough ===");
    let schema = SchemaBuilder::new()
        .categorical(
            "city",
            ["Athens", "Bergen", "Cusco", "Dakar", "Esbjerg", "Fukuoka"],
        )
        .build_shared()
        .unwrap();
    let rows: Vec<Record> = (0..6).map(|v| Record::from_raw([v])).collect();
    let table = Table::new(Arc::clone(&schema), rows).unwrap();

    // Leave n−k records untouched; fully suppress the last k.
    let identity = GeneralizedTable::identity_of(&table);
    let star = GeneralizedRecord::new(schema.suppressed_nodes());
    let mut bad_rows: Vec<GeneralizedRecord> = (0..3).map(|i| identity.row(i).clone()).collect();
    bad_rows.extend((0..3).map(|_| star.clone()));
    let bad = GeneralizedTable::new(Arc::clone(&schema), bad_rows).unwrap();

    let one_k = kanon::verify::one_k_level(&table, &bad).unwrap();
    println!("the published table is (1,{one_k})-anonymous — sounds private…");
    let report = Adversary2.attack(&table, &bad, k).unwrap();
    println!(
        "…but the matching adversary re-identifies rows {:?} outright.\n",
        report.reidentified_rows()
    );

    // ---------------------------------------------------------------
    // Act 2: (k,k) vs the two adversaries.
    // ---------------------------------------------------------------
    println!("=== Act 2: (k,k)-anonymity and the omniscient adversary ===");
    let table = kanon::data::art::generate(60, 7);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();

    let r1 = Adversary1.attack(&table, &kk.table, k).unwrap();
    println!(
        "Adversary 1 (knows everyone's public data): weakest link {} ≥ k = {k} → defended",
        r1.min_candidates()
    );
    assert!(r1.breached_rows().is_empty());

    let r2 = Adversary2.attack(&table, &kk.table, k).unwrap();
    println!(
        "Adversary 2 (also knows WHO is in the table): weakest link {} — {} record(s) breached",
        r2.min_candidates(),
        r2.breached_rows().len()
    );

    // ---------------------------------------------------------------
    // Act 3: Algorithm 6 closes the gap.
    // ---------------------------------------------------------------
    println!("\n=== Act 3: global (1,k)-anonymity ===");
    let global = global_1k_from_kk(&table, &kk.table, &costs, k).unwrap();
    let r2 = Adversary2.attack(&table, &global.table, k).unwrap();
    println!(
        "after Algorithm 6 ({} upgrades for {} deficient records): weakest link {} ≥ k = {k} → defended",
        global.upgrade_steps, global.deficient_records, r2.min_candidates()
    );
    assert!(r2.breached_rows().is_empty());
    println!(
        "extra information loss paid for global protection: {:.4} → {:.4} bits/entry ({:+.1}%)",
        kk.loss,
        global.loss,
        100.0 * (global.loss / kk.loss - 1.0)
    );
    println!(
        "\nthe paper's practical advice: when the adversary plausibly knows the\n\
         exact member set, convert to global (1,k); otherwise (k,k) already\n\
         provides k-anonymity-level protection at lower cost."
    );
}
