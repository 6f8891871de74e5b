//! Cross-measure integration tests: the relationships between the
//! measures of Sec. II on real anonymization outputs.

use kanon::measures::{
    class_sizes, classification_metric, discernibility, discernibility_per_record,
    nonuniform_entropy_loss, SuppressionMeasure, TreeMeasure,
};
use kanon::prelude::*;

#[test]
fn all_measures_agree_identity_is_free() {
    let table = kanon::data::art::generate(60, 1);
    let id = GeneralizedTable::identity_of(&table);
    for costs in [
        NodeCostTable::compute(&table, &EntropyMeasure),
        NodeCostTable::compute(&table, &LmMeasure),
        NodeCostTable::compute(&table, &TreeMeasure),
        NodeCostTable::compute(&table, &SuppressionMeasure),
    ] {
        assert_eq!(costs.table_loss(&id), 0.0, "{}", costs.measure_name());
    }
    assert_eq!(nonuniform_entropy_loss(&table, &id).unwrap(), 0.0);
}

#[test]
fn suppression_lower_bounds_lm() {
    // SUP charges only root entries, LM charges those 1 as well plus all
    // partial generalizations: SUP ≤ LM pointwise, hence on table losses.
    let table = kanon::data::art::generate(80, 2);
    let em = NodeCostTable::compute(&table, &EntropyMeasure);
    let out = try_kk_anonymize(&table, &em, &KkConfig::new(4)).unwrap();
    let lm = NodeCostTable::compute(&table, &LmMeasure);
    let sup = NodeCostTable::compute(&table, &SuppressionMeasure);
    assert!(sup.table_loss(&out.table) <= lm.table_loss(&out.table) + 1e-12);
}

#[test]
fn nonuniform_entropy_upper_bounds_basic_on_clusterings() {
    // For cluster-shaped generalizations, NE's per-class average is the
    // class's empirical entropy, which the basic measure H(X|B) can only
    // underestimate (B may contain values absent from the class is the
    // exception — so we only check the inequality direction that holds:
    // both non-negative and NE finite).
    let table = kanon::data::adult::generate(80, 3);
    let em = NodeCostTable::compute(&table, &EntropyMeasure);
    let out = try_agglomerative_k_anonymize(&table, &em, &AgglomerativeConfig::new(4))
        .unwrap()
        .into_inner();
    let ne = nonuniform_entropy_loss(&table, &out.table).unwrap();
    let basic = em.table_loss(&out.table);
    assert!(ne.is_finite() && ne >= 0.0);
    assert!(basic >= 0.0);
}

#[test]
fn discernibility_reflects_class_structure() {
    let table = kanon::data::art::generate(90, 4);
    let em = NodeCostTable::compute(&table, &EntropyMeasure);
    for k in [3, 9] {
        let out = try_agglomerative_k_anonymize(&table, &em, &AgglomerativeConfig::new(k))
            .unwrap()
            .into_inner();
        let sizes = class_sizes(&out.table);
        // Class sizes sum to n and respect k.
        assert_eq!(sizes.iter().sum::<usize>(), 90);
        assert!(*sizes.last().unwrap() >= k);
        // DM equals the sum of squared class sizes.
        let dm: u64 = sizes.iter().map(|&s| (s * s) as u64).sum();
        assert_eq!(discernibility(&out.table), dm);
        // DM/n is at least the minimum class size (and at least k).
        assert!(discernibility_per_record(&out.table) >= k as f64);
    }
}

#[test]
fn discernibility_grows_with_k() {
    let table = kanon::data::cmc::generate(120, 5).table;
    let em = NodeCostTable::compute(&table, &EntropyMeasure);
    let mut prev = 0.0;
    for k in [2, 4, 8] {
        let out = try_agglomerative_k_anonymize(&table, &em, &AgglomerativeConfig::new(k))
            .unwrap()
            .into_inner();
        let dm = discernibility_per_record(&out.table);
        assert!(dm >= prev, "DM/n should not shrink as k grows");
        prev = dm;
    }
}

#[test]
fn classification_metric_on_cmc_labels() {
    let labeled = kanon::data::cmc::generate(150, 6);
    let em = NodeCostTable::compute(&labeled.table, &EntropyMeasure);
    let out = try_agglomerative_k_anonymize(&labeled.table, &em, &AgglomerativeConfig::new(5))
        .unwrap()
        .into_inner();
    let cm = classification_metric(&out.table, &labeled.labels).unwrap();
    // CM is a fraction of records, bounded by the size of the two minority
    // classes.
    assert!((0.0..=1.0).contains(&cm));
    // The identity table groups only *duplicate* records; its CM is tiny
    // (only duplicate groups with mixed labels contribute).
    let id = GeneralizedTable::identity_of(&labeled.table);
    let cm_id = classification_metric(&id, &labeled.labels).unwrap();
    assert!((0.0..=1.0).contains(&cm_id));
    assert!(cm_id < 0.5, "identity CM should be small, got {cm_id}");
}

#[test]
fn measure_choice_changes_the_output() {
    // Optimizing under EM vs LM yields genuinely different anonymizations
    // on skewed data (the distance functions see different geometry).
    let table = kanon::data::adult::generate(150, 7);
    let em = NodeCostTable::compute(&table, &EntropyMeasure);
    let lm = NodeCostTable::compute(&table, &LmMeasure);
    let out_em = try_kk_anonymize(&table, &em, &KkConfig::new(5)).unwrap();
    let out_lm = try_kk_anonymize(&table, &lm, &KkConfig::new(5)).unwrap();
    // Each output should be at least as good as the other *under its own
    // objective* (they were optimized for it).
    assert!(em.table_loss(&out_em.table) <= em.table_loss(&out_lm.table) + 1e-9);
    assert!(lm.table_loss(&out_lm.table) <= lm.table_loss(&out_em.table) + 1e-9);
}
