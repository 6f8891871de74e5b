//! Integration tests of the Sec. IV-A security discussion: which
//! anonymization notions withstand which adversary.

use kanon::algos::global_1k_from_kk;
use kanon::prelude::*;
use kanon::verify::{Adversary1, Adversary2};
use std::sync::Arc;

#[test]
fn kanonymous_tables_resist_both_adversaries() {
    let table = kanon::data::art::generate(80, 3);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let k = 4;
    let out = try_agglomerative_k_anonymize(&table, &costs, &AgglomerativeConfig::new(k))
        .unwrap()
        .into_inner();
    assert!(Adversary1
        .attack(&table, &out.table, k)
        .unwrap()
        .breached_rows()
        .is_empty());
    assert!(Adversary2
        .attack(&table, &out.table, k)
        .unwrap()
        .breached_rows()
        .is_empty());
}

#[test]
fn kk_tables_resist_adversary1() {
    for seed in [1u64, 2, 3, 4] {
        let table = kanon::data::art::generate(70, seed);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let k = 3;
        let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
        let report = Adversary1.attack(&table, &kk.table, k).unwrap();
        assert!(
            report.breached_rows().is_empty(),
            "seed {seed}: adversary 1 must not breach a (k,k) table"
        );
    }
}

#[test]
fn global_tables_resist_adversary2() {
    for seed in [1u64, 2, 3] {
        let table = kanon::data::art::generate(70, seed);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);
        let k = 3;
        let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
        let global = global_1k_from_kk(&table, &kk.table, &costs, k).unwrap();
        let report = Adversary2.attack(&table, &global.table, k).unwrap();
        assert!(
            report.breached_rows().is_empty(),
            "seed {seed}: adversary 2 must not breach a global (1,k) table"
        );
    }
}

#[test]
fn the_paper_counterexample_breaches() {
    // Sec. IV-A: identity rows + suppressed tail is (1,k)-anonymous yet
    // most individuals are exposed — even by candidate counting once the
    // adversary reasons via matchings.
    let s = SchemaBuilder::new()
        .categorical("v", ["a", "b", "c", "d", "e", "f", "g", "h"])
        .build_shared()
        .unwrap();
    let rows: Vec<Record> = (0..8).map(|v| Record::from_raw([v])).collect();
    let table = Table::new(Arc::clone(&s), rows).unwrap();
    let k = 3;
    let identity = GeneralizedTable::identity_of(&table);
    let star = GeneralizedRecord::new(s.suppressed_nodes());
    let mut grows: Vec<GeneralizedRecord> = (0..5).map(|i| identity.row(i).clone()).collect();
    grows.extend((0..3).map(|_| star.clone()));
    let bad = GeneralizedTable::new(Arc::clone(&s), grows).unwrap();

    // It *is* (1,k)-anonymous…
    assert!(kanon::verify::is_1k_anonymous(&table, &bad, k).unwrap());
    // …but the matching adversary re-identifies all 5 untouched rows.
    let report = Adversary2.attack(&table, &bad, k).unwrap();
    assert_eq!(report.reidentified_rows(), vec![0, 1, 2, 3, 4]);
    assert!(report.breach_rate() >= 5.0 / 8.0 - 1e-9);
}

#[test]
fn adversary2_candidates_are_subset_of_adversary1() {
    let table = kanon::data::cmc::generate(60, 11).table;
    let costs = NodeCostTable::compute(&table, &LmMeasure);
    let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(3)).unwrap();
    let r1 = Adversary1.attack(&table, &kk.table, 3).unwrap();
    let r2 = Adversary2.attack(&table, &kk.table, 3).unwrap();
    for (a, b) in r1.results.iter().zip(&r2.results) {
        for c in &b.candidates {
            assert!(a.candidates.contains(c));
        }
    }
}

#[test]
fn attack_reports_are_complete() {
    let table = kanon::data::art::generate(40, 5);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(2)).unwrap();
    let report = Adversary1.attack(&table, &kk.table, 2).unwrap();
    assert_eq!(report.results.len(), 40);
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.target, i);
        assert!(!r.candidates.is_empty());
    }
}
