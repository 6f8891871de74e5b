//! The paper's motivating scenario (Sec. I): a hospital must publish
//! patient data for research while protecting the individuals. The
//! public attributes (age, gender, zipcode) can be linked against a voter
//! register; the private attribute (diagnosis) must not be attributable
//! to fewer than k candidates.
//!
//! This example builds a custom schema with `SchemaBuilder`, anonymizes
//! with (k,k)-anonymity, and shows that the published table resists
//! linkage while staying useful.
//!
//! Run with: `cargo run --release --example hospital`

use kanon::prelude::*;
use kanon::verify::{Adversary1, AnonymityProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    // Public schema: the quasi-identifiers the adversary can look up.
    // Zipcodes generalize by prefix (1000-blocks), ages by 5/10-year bands
    // — exactly the example generalizations of Sec. III.
    let zipcodes: Vec<String> = (0..40).map(|i| format!("68{:03}", 400 + i)).collect();
    let schema = SchemaBuilder::new()
        .numeric_with_intervals("age", 18, 97, &[5, 10, 20])
        .categorical("gender", ["M", "F"])
        .categorical_with_groups(
            "zipcode",
            zipcodes.iter().map(String::as_str),
            &[
                // Two neighbourhoods of 20 zip codes each.
                &[
                    "68400", "68401", "68402", "68403", "68404", "68405", "68406", "68407",
                    "68408", "68409", "68410", "68411", "68412", "68413", "68414", "68415",
                    "68416", "68417", "68418", "68419",
                ],
                &[
                    "68420", "68421", "68422", "68423", "68424", "68425", "68426", "68427",
                    "68428", "68429", "68430", "68431", "68432", "68433", "68434", "68435",
                    "68436", "68437", "68438", "68439",
                ],
            ],
        )
        .build_shared()
        .unwrap();

    // Synthesize a patient roster (public part) + diagnoses (private part).
    let diagnoses = ["flu", "diabetes", "fracture", "hypertension", "asthma"];
    let mut rng = StdRng::seed_from_u64(2024);
    let n = 400;
    let mut rows = Vec::with_capacity(n);
    let mut private = Vec::with_capacity(n);
    for _ in 0..n {
        let age = rng.gen_range(0..80u32);
        let gender = rng.gen_range(0..2u32);
        let zip = rng.gen_range(0..40u32);
        rows.push(Record::from_raw([age, gender, zip]));
        private.push(diagnoses[rng.gen_range(0..diagnoses.len())]);
    }
    let table = Table::new(Arc::clone(&schema), rows).unwrap();

    println!("hospital roster: {} patients", table.num_rows());
    println!(
        "example patient: ({}) with diagnosis {:?}\n",
        table.row(0).display(&schema),
        private[0]
    );

    // Publish with (k,k)-anonymity, k = 4, LM measure.
    let k = 4;
    let costs = NodeCostTable::compute(&table, &LmMeasure);
    let published = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();

    println!(
        "published (k,k)-anonymized table (k = {k}), LM loss = {:.3}:",
        published.loss
    );
    for (grec, diagnosis) in published.table.rows().iter().zip(&private).take(6) {
        println!("  {}  | diagnosis: {}", grec.display(&schema), diagnosis);
    }

    // The linkage test: an adversary holding the voter register (all
    // public records) tries to pin each patient down.
    let report = Adversary1.attack(&table, &published.table, k).unwrap();
    println!(
        "\nlinkage attack with full public knowledge: weakest patient links to {} records \
         (k = {k}); breached: {}",
        report.min_candidates(),
        report.breached_rows().len()
    );
    assert!(report.breached_rows().is_empty());

    let profile = AnonymityProfile::compute(&table, &published.table).unwrap();
    println!(
        "anonymity profile: (1,k) {} / (k,1) {} / (k,k) {}",
        profile.one_k, profile.k_one, profile.kk
    );

    // Utility contrast: classic k-anonymity on the same data loses more.
    let classic = try_agglomerative_k_anonymize(&table, &costs, &AgglomerativeConfig::new(k))
        .unwrap()
        .into_inner();
    println!(
        "\nutility: (k,k) keeps {:.1}% of the information classic k-anonymity \
         gives up (LM {:.3} vs {:.3})",
        100.0 * (1.0 - published.loss / classic.loss),
        published.loss,
        classic.loss
    );
}
