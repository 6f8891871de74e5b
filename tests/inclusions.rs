//! Integration test for Propositions 4.5 and 4.7: the inclusion diagram of
//! Figure 1, checked both on the paper's proof witnesses and on sampled
//! algorithm outputs.

use kanon::prelude::*;
use kanon::verify::AnonymityProfile;
use std::sync::Arc;

/// The paper's 3-record proof table over attributes {1,2} and {3,4}.
fn proof_table() -> (kanon::core::SharedSchema, Table) {
    let s = SchemaBuilder::new()
        .categorical("A1", ["1", "2"])
        .categorical("A2", ["3", "4"])
        .build_shared()
        .unwrap();
    let t = Table::new(
        Arc::clone(&s),
        vec![
            Record::from_raw([0, 0]),
            Record::from_raw([0, 1]),
            Record::from_raw([1, 1]),
        ],
    )
    .unwrap();
    (s, t)
}

fn grec(s: &kanon::core::SharedSchema, a1: Option<u32>, a2: Option<u32>) -> GeneralizedRecord {
    let h1 = s.attr(0).hierarchy();
    let h2 = s.attr(1).hierarchy();
    GeneralizedRecord::new([
        a1.map_or(h1.root(), |v| h1.leaf(ValueId(v))),
        a2.map_or(h2.root(), |v| h2.leaf(ValueId(v))),
    ])
}

#[test]
fn proposition_4_5_strictness_witnesses() {
    let (s, t) = proof_table();

    // Column "(1,2)-anon" of the proof: in A^(1,2) \ A^(2,1).
    let g = GeneralizedTable::new(
        Arc::clone(&s),
        vec![
            grec(&s, Some(0), Some(0)),
            grec(&s, None, None),
            grec(&s, None, Some(1)),
        ],
    )
    .unwrap();
    let p = AnonymityProfile::compute(&t, &g).unwrap();
    assert!(p.one_k >= 2 && p.k_one < 2);

    // Column "(2,1)-anon": in A^(2,1) \ A^(1,2).
    let g = GeneralizedTable::new(
        Arc::clone(&s),
        vec![
            grec(&s, Some(0), None),
            grec(&s, None, Some(1)),
            grec(&s, None, Some(1)),
        ],
    )
    .unwrap();
    let p = AnonymityProfile::compute(&t, &g).unwrap();
    assert!(p.k_one >= 2 && p.one_k < 2);

    // Column "(2,2)-anon": in A^(2,2) \ A^2.
    let g = GeneralizedTable::new(
        Arc::clone(&s),
        vec![
            grec(&s, Some(0), None),
            grec(&s, None, None),
            grec(&s, None, Some(1)),
        ],
    )
    .unwrap();
    let p = AnonymityProfile::compute(&t, &g).unwrap();
    assert!(p.kk >= 2 && p.k_anonymity < 2);
}

#[test]
fn inclusion_chain_on_algorithm_outputs() {
    // For every output of every anonymizer: the profile must witness
    // A^k ⊆ A^{G,(1,k)} ⊆ A^(1,k) and A^k ⊆ A^(k,k) = A^(1,k) ∩ A^(k,1).
    let k = 3;
    for seed in [1u64, 2, 3] {
        let table = kanon::data::art::generate(50, seed);
        let costs = NodeCostTable::compute(&table, &EntropyMeasure);

        let kanon_out = try_agglomerative_k_anonymize(&table, &costs, &AgglomerativeConfig::new(k))
            .unwrap()
            .into_inner();
        let p = AnonymityProfile::compute(&table, &kanon_out.table).unwrap();
        assert!(p.k_anonymity >= k);
        assert!(p.global_1k >= p.k_anonymity, "A^k ⊆ A^{{G,(1,k)}}");
        assert!(p.one_k >= p.global_1k, "A^{{G,(1,k)}} ⊆ A^(1,k)");
        assert!(p.kk >= p.k_anonymity, "A^k ⊆ A^(k,k)");
        assert_eq!(p.kk, p.one_k.min(p.k_one), "(k,k) = (1,k) ∧ (k,1)");

        let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
        let p = AnonymityProfile::compute(&table, &kk.table).unwrap();
        assert!(p.kk >= k);
        assert!(p.one_k >= k && p.k_one >= k);
        // Matches are neighbours: global level never exceeds (1,k) level.
        assert!(p.global_1k <= p.one_k);
    }
}

#[test]
fn global_output_is_global_but_rarely_k_anonymous() {
    let k = 3;
    let table = kanon::data::art::generate(60, 4);
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let out = try_global_1k_anonymize(&table, &costs, &KkConfig::new(k)).unwrap();
    let p = AnonymityProfile::compute(&table, &out.table).unwrap();
    assert!(p.global_1k >= k);
    assert!(p.kk >= k);
    // Strictness of A^k ⊊ A^{G,(1,k)} in practice: the global output is a
    // local-recoding table whose rows are almost never k-duplicated.
    assert!(p.k_anonymity < k, "found an accidental k-anonymization");
}
