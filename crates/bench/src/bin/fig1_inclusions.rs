//! Experiment E-F1 — machine-checks **Figure 1** (the inclusion diagram of
//! the five anonymization classes) and Propositions 4.5 / 4.7.
//!
//! Figure 1 is structural, not empirical; we regenerate it by verifying,
//! with the `kanon-verify` checkers:
//!
//! 1. the witness tables from the Prop. 4.5 proof exhibit every strict
//!    inclusion: `A^k ⊊ A^(k,k) ⊊ A^(1,k)`, `A^(k,k) ⊊ A^(k,1)`, and
//!    incomparability of `A^(1,k)` and `A^(k,1)`;
//! 2. on random ART tables, every k-anonymization lies in all five
//!    classes, and every (k,k)-anonymization lies in `A^(1,k) ∩ A^(k,1)`
//!    (sampled inclusion checks of the diagram's containments);
//! 3. global (1,k) sits between `A^k` and `A^(1,k)`.
//!
//! Usage: `cargo run --release -p kanon-bench --bin fig1_inclusions`

#![forbid(unsafe_code)]

use kanon_algos::{try_agglomerative_k_anonymize, try_kk_anonymize, AgglomerativeConfig, KkConfig};
use kanon_core::record::{GeneralizedRecord, Record};
use kanon_core::schema::{SchemaBuilder, SharedSchema};
use kanon_core::table::{GeneralizedTable, Table};
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_verify::AnonymityProfile;
use std::sync::Arc;

fn check(name: &str, ok: bool) {
    println!("  [{}] {name}", if ok { "ok" } else { "FAIL" });
    assert!(ok, "inclusion check failed: {name}");
}

/// The 3-record table from the proof of Prop. 4.5 and its four witness
/// generalizations.
fn proof_witnesses() -> (SharedSchema, Table, [GeneralizedTable; 4]) {
    let s = SchemaBuilder::new()
        .categorical("A1", ["1", "2"])
        .categorical("A2", ["3", "4"])
        .build_shared()
        .unwrap();
    let t = Table::new(
        Arc::clone(&s),
        vec![
            Record::from_raw([0, 0]), // (1,3)
            Record::from_raw([0, 1]), // (1,4)
            Record::from_raw([1, 1]), // (2,4)
        ],
    )
    .unwrap();
    let g = |a1: Option<u32>, a2: Option<u32>| {
        let h1 = s.attr(0).hierarchy();
        let h2 = s.attr(1).hierarchy();
        GeneralizedRecord::new([
            a1.map_or(h1.root(), |v| h1.leaf(kanon_core::ValueId(v))),
            a2.map_or(h2.root(), |v| h2.leaf(kanon_core::ValueId(v))),
        ])
    };
    let table2anon = GeneralizedTable::new(
        Arc::clone(&s),
        vec![g(None, None), g(None, None), g(None, None)],
    )
    .unwrap();
    let table12 = GeneralizedTable::new(
        Arc::clone(&s),
        vec![g(Some(0), Some(0)), g(None, None), g(None, Some(1))],
    )
    .unwrap();
    let table21 = GeneralizedTable::new(
        Arc::clone(&s),
        vec![g(Some(0), None), g(None, Some(1)), g(None, Some(1))],
    )
    .unwrap();
    let table22 = GeneralizedTable::new(
        Arc::clone(&s),
        vec![g(Some(0), None), g(None, None), g(None, Some(1))],
    )
    .unwrap();
    (s, t, [table2anon, table12, table21, table22])
}

fn main() {
    println!("FIGURE 1 — interrelations between the five classes of k-type anonymizations\n");

    println!("Prop. 4.5 witnesses (k = 2, the paper's proof table):");
    let (_s, t, [g_k, g_1k, g_k1, g_kk]) = proof_witnesses();

    let p = AnonymityProfile::compute(&t, &g_k).unwrap();
    check("the 2-anon witness is in all five classes", {
        p.k_anonymity >= 2 && p.one_k >= 2 && p.k_one >= 2 && p.kk >= 2 && p.global_1k >= 2
    });

    let p = AnonymityProfile::compute(&t, &g_1k).unwrap();
    check(
        "the (1,2) witness is (1,2) but not (2,1)",
        p.one_k >= 2 && p.k_one < 2,
    );

    let p = AnonymityProfile::compute(&t, &g_k1).unwrap();
    check(
        "the (2,1) witness is (2,1) but not (1,2)",
        p.k_one >= 2 && p.one_k < 2,
    );

    let p = AnonymityProfile::compute(&t, &g_kk).unwrap();
    check(
        "the (2,2) witness is (2,2) but not 2-anonymous",
        p.kk >= 2 && p.k_anonymity < 2,
    );
    check(
        "…and that witness is also globally (1,2)-anonymous",
        p.global_1k >= 2,
    );

    println!("\nSampled containments on random ART tables (k = 3):");
    let k = 3;
    for seed in 0..5u64 {
        let table = kanon_data::art::generate(60, seed);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);

        let kanon = try_agglomerative_k_anonymize(&table, &costs, &AgglomerativeConfig::new(k))
            .unwrap()
            .into_inner();
        let p = AnonymityProfile::compute(&table, &kanon.table).unwrap();
        check(
            &format!("seed {seed}: A^k ⊆ A^(k,k) ⊆ A^(1,k), A^(k,1) and A^k ⊆ A^G(1,k)"),
            p.k_anonymity >= k && p.kk >= k && p.one_k >= k && p.k_one >= k && p.global_1k >= k,
        );

        let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
        let p = AnonymityProfile::compute(&table, &kk.table).unwrap();
        check(
            &format!("seed {seed}: (k,k) output lies in A^(1,k) ∩ A^(k,1)"),
            p.kk >= k && p.one_k >= k && p.k_one >= k,
        );
    }

    println!("\nFigure 1 diagram verified: every depicted inclusion and strictness witnessed.");
}
