//! The **Contraceptive Method Choice (CMC)** workload — Sec. VI.
//!
//! The paper's second real dataset is the 1987 National Indonesia
//! Contraceptive Prevalence Survey subset from the UCI repository
//! (1 473 records; the paper rounds to 1 500): nine demographic and
//! socio-economic attributes plus the contraceptive-method class label.
//!
//! As with Adult, the raw file is not redistributable here, so this module
//! provides a synthetic generator matching the published marginals (with
//! age↔children and education↔standard-of-living dependencies) and a
//! loader for the real `cmc.data` file. The class label (1 = no use,
//! 2 = long-term, 3 = short-term) is returned alongside the table for use
//! with the CM measure.

use crate::csv::{clamp_int_cell, convert_row, parse_csv, IngestReport, RowPolicy};
use crate::sampling::Categorical;
use kanon_core::error::{CoreError, Result};
use kanon_core::record::Record;
use kanon_core::schema::{SchemaBuilder, SharedSchema};
use kanon_core::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Youngest wife age in the domain.
pub const AGE_MIN: i64 = 16;
/// Oldest wife age in the domain.
pub const AGE_MAX: i64 = 49;
/// Largest number of children in the domain.
pub const CHILDREN_MAX: i64 = 16;
/// The number of records in the real dataset.
pub const REAL_SIZE: usize = 1473;

/// A table together with its class labels (for the CM measure).
#[derive(Debug, Clone)]
pub struct LabeledTable {
    /// The quasi-identifier table.
    pub table: Table,
    /// `labels[i]` ∈ {1, 2, 3}: contraceptive method of row `i`.
    pub labels: Vec<u32>,
}

/// Builds the CMC schema: nine quasi-identifiers with interval/group
/// hierarchies.
pub fn schema() -> SharedSchema {
    SchemaBuilder::new()
        .numeric_with_intervals("wife-age", AGE_MIN, AGE_MAX, &[5, 10])
        .categorical_with_groups(
            "wife-education",
            ["1", "2", "3", "4"],
            &[&["1", "2"], &["3", "4"]],
        )
        .categorical_with_groups(
            "husband-education",
            ["1", "2", "3", "4"],
            &[&["1", "2"], &["3", "4"]],
        )
        .numeric_with_intervals("children", 0, CHILDREN_MAX, &[2, 4, 8])
        .categorical("wife-religion", ["0", "1"])
        .categorical("wife-working", ["0", "1"])
        .categorical_with_groups(
            "husband-occupation",
            ["1", "2", "3", "4"],
            &[&["1", "2"], &["3", "4"]],
        )
        .categorical_with_groups(
            "standard-of-living",
            ["1", "2", "3", "4"],
            &[&["1", "2"], &["3", "4"]],
        )
        .categorical("media-exposure", ["0", "1"])
        .build_shared()
        // kanon-lint: allow(L006) static schema literal, covered by unit tests
        .expect("cmc schema is well-formed")
}

struct Sampler {
    age: Categorical,
    wife_edu: Categorical,
    husband_edu_by_wife: [Categorical; 4],
    religion: Categorical,
    working: Categorical,
    husband_occ: Categorical,
    living_by_edu: [Categorical; 4],
    media_by_edu: [Categorical; 4],
}

impl Sampler {
    fn new() -> Self {
        let age_weights: Vec<f64> = (AGE_MIN..=AGE_MAX)
            .map(|a| match a {
                16..=19 => 0.4,
                20..=24 => 1.0,
                25..=29 => 1.3,
                30..=34 => 1.2,
                35..=39 => 1.0,
                40..=44 => 0.8,
                _ => 0.6,
            })
            .collect();
        Sampler {
            age: Categorical::new(&age_weights),
            // Published marginals: education skews high.
            wife_edu: Categorical::new(&[0.103, 0.227, 0.278, 0.393]),
            // Husbands' education correlates with wives'.
            husband_edu_by_wife: [
                Categorical::new(&[0.30, 0.40, 0.20, 0.10]),
                Categorical::new(&[0.10, 0.35, 0.35, 0.20]),
                Categorical::new(&[0.03, 0.15, 0.42, 0.40]),
                Categorical::new(&[0.01, 0.04, 0.20, 0.75]),
            ],
            religion: Categorical::new(&[0.15, 0.85]), // 1 = Islam, 85 %
            working: Categorical::new(&[0.25, 0.75]),  // 1 = not working, 75 %
            husband_occ: Categorical::new(&[0.296, 0.293, 0.281, 0.130]),
            living_by_edu: [
                Categorical::new(&[0.25, 0.30, 0.28, 0.17]),
                Categorical::new(&[0.12, 0.22, 0.34, 0.32]),
                Categorical::new(&[0.05, 0.14, 0.32, 0.49]),
                Categorical::new(&[0.02, 0.06, 0.22, 0.70]),
            ],
            media_by_edu: [
                Categorical::new(&[0.75, 0.25]),
                Categorical::new(&[0.92, 0.08]),
                Categorical::new(&[0.96, 0.04]),
                Categorical::new(&[0.99, 0.01]),
            ],
        }
    }

    fn sample_row<R: Rng>(&self, rng: &mut R) -> (Record, u32) {
        let age_idx = self.age.sample(rng);
        let age = AGE_MIN + age_idx as i64;
        let wife_edu = self.wife_edu.sample(rng);
        let husband_edu = self.husband_edu_by_wife[wife_edu].sample(rng);
        // Children grows with age (roughly Poisson-like with age-dependent
        // mean, truncated to the domain).
        let mean = ((age - 15) as f64 / 7.0).min(4.5);
        let mut children = 0i64;
        // Simple geometric-ish accumulation to keep the generator cheap
        // and deterministic per rng stream.
        while children < CHILDREN_MAX && rng.gen::<f64>() < mean / (mean + 1.5) {
            children += 1;
        }
        let religion = self.religion.sample(rng);
        let working = self.working.sample(rng);
        let husband_occ = self.husband_occ.sample(rng);
        let living = self.living_by_edu[wife_edu].sample(rng);
        let media = self.media_by_edu[wife_edu].sample(rng);

        // Class label: no-use dominates for low education / few children;
        // short-term for younger educated women; long-term for older ones.
        let label = {
            let u: f64 = rng.gen();
            let (p_no, p_long) = if children == 0 {
                (0.85, 0.03)
            } else if wife_edu >= 2 && age < 35 {
                (0.25, 0.20)
            } else if wife_edu >= 2 {
                (0.35, 0.35)
            } else {
                (0.55, 0.15)
            };
            if u < p_no {
                1
            } else if u < p_no + p_long {
                2
            } else {
                3
            }
        };

        let rec = Record::from_raw([
            age_idx as u32,
            wife_edu as u32,
            husband_edu as u32,
            children as u32,
            religion as u32,
            working as u32,
            husband_occ as u32,
            living as u32,
            media as u32,
        ]);
        (rec, label)
    }
}

/// Generates a CMC-like table of `n` records with the given seed.
pub fn generate(n: usize, seed: u64) -> LabeledTable {
    generate_with_schema(&schema(), n, seed)
}

/// Generates CMC-like rows against an existing CMC schema.
pub fn generate_with_schema(schema: &SharedSchema, n: usize, seed: u64) -> LabeledTable {
    assert_eq!(schema.num_attrs(), 9, "not a CMC schema");
    let sampler = Sampler::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let (rec, label) = sampler.sample_row(&mut rng);
        rows.push(rec);
        labels.push(label);
    }
    LabeledTable {
        table: Table::new_unchecked(Arc::clone(schema), rows),
        labels,
    }
}

/// Loads the real UCI `cmc.data` CSV (10 comma-separated integer columns:
/// nine attributes + class label). Out-of-domain ages/children are
/// clamped.
pub fn load_csv(text: &str) -> Result<LabeledTable> {
    load_csv_with_policy(text, RowPolicy::Strict).map(|(t, _)| t)
}

/// Like [`load_csv`], but routes rows that fail to parse (non-numeric
/// fields, unknown labels, or injected `data/csv/row` faults) through
/// `policy`. Rows with fewer than 10 columns are skipped. The class label
/// is read first: it has no "root" to fall back to, so under the
/// non-strict policies an unreadable label suppresses the row. The nine
/// attributes, with age and children clamped into the domain, are then
/// converted by the same code as any schema CSV row (`csv::convert_row`).
pub fn load_csv_with_policy(text: &str, policy: RowPolicy) -> Result<(LabeledTable, IngestReport)> {
    let schema = schema();
    let mut report = IngestReport::default();
    let mut records = Vec::new();
    let mut labels = Vec::new();
    for (row_idx, fields) in parse_csv(text).iter().enumerate() {
        if fields.len() < 10 {
            continue;
        }
        let label = match fields[9].trim().parse::<i64>() {
            Ok(l) => l as u32,
            Err(_) if policy == RowPolicy::Strict => {
                return Err(CoreError::UnknownLabel {
                    attr: "cmc".into(),
                    label: fields[9].trim().to_string(),
                })
            }
            Err(_) => {
                report.suppressed_rows.push(row_idx);
                continue;
            }
        };
        let mut cells = fields[..9].to_vec();
        clamp_int_cell(&mut cells[0], AGE_MIN, AGE_MAX);
        clamp_int_cell(&mut cells[3], 0, CHILDREN_MAX);
        if let Some(rec) = convert_row(&schema, &cells, row_idx, policy, &mut report)? {
            records.push(rec);
            labels.push(label);
        }
    }
    Ok((
        LabeledTable {
            table: Table::new(schema, records)?,
            labels,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::TableStats;

    #[test]
    fn schema_shape() {
        let s = schema();
        assert_eq!(s.num_attrs(), 9);
        assert_eq!(s.attr(0).domain().size(), 34); // ages 16..=49
        assert_eq!(s.attr(3).domain().size(), 17); // children 0..=16
                                                   // Education groups {1,2} and {3,4} exist.
        let edu = s.attr(1);
        let v1 = edu.domain().value_of("1").unwrap();
        let v2 = edu.domain().value_of("2").unwrap();
        let c = edu.hierarchy().closure([v1, v2]).unwrap();
        assert_eq!(edu.hierarchy().node_size(c), 2);
    }

    #[test]
    fn generator_matches_marginals() {
        let lt = generate(30_000, 3);
        let stats = TableStats::compute(&lt.table);
        let s = lt.table.schema();
        // Religion: 85 % Islam (value "1").
        let islam = s.attr(4).domain().value_of("1").unwrap();
        let p = stats.attr(4).probability(islam);
        assert!((p - 0.85).abs() < 0.02, "islam share {p}");
        // Wife education level 4 ≈ 39 %.
        let e4 = s.attr(1).domain().value_of("4").unwrap();
        let p = stats.attr(1).probability(e4);
        assert!((p - 0.393).abs() < 0.02, "edu4 share {p}");
    }

    #[test]
    fn labels_cover_three_classes() {
        let lt = generate(10_000, 9);
        assert_eq!(lt.labels.len(), 10_000);
        let mut counts = [0usize; 4];
        for &l in &lt.labels {
            counts[l as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        for c in &counts[1..] {
            assert!(*c > 500, "all classes should be populated: {counts:?}");
        }
    }

    #[test]
    fn age_children_correlation() {
        let lt = generate(20_000, 4);
        let (mut young_children, mut young_n) = (0u64, 0u64);
        let (mut old_children, mut old_n) = (0u64, 0u64);
        for rec in lt.table.rows() {
            let age = AGE_MIN + rec.get(0).index() as i64;
            let children = rec.get(3).index() as u64;
            if age < 25 {
                young_children += children;
                young_n += 1;
            } else if age > 40 {
                old_children += children;
                old_n += 1;
            }
        }
        let young_avg = young_children as f64 / young_n as f64;
        let old_avg = old_children as f64 / old_n as f64;
        assert!(young_avg + 1.0 < old_avg, "young {young_avg} old {old_avg}");
    }

    #[test]
    fn load_csv_parses_real_format() {
        let text = "24,2,3,3,1,1,2,3,0,1\n45,1,3,10,1,1,3,4,0,1\n99,4,4,20,1,0,1,1,1,3\n";
        let lt = load_csv(text).unwrap();
        assert_eq!(lt.table.num_rows(), 3);
        assert_eq!(lt.labels, vec![1, 1, 3]);
        let s = lt.table.schema();
        // Row 3: age 99 clamped to 49, children 20 clamped to 16.
        assert_eq!(s.attr(0).domain().label(lt.table.row(2).get(0)), "49");
        assert_eq!(s.attr(3).domain().label(lt.table.row(2).get(3)), "16");
    }

    #[test]
    fn deterministic() {
        let a = generate(200, 8);
        let b = generate(200, 8);
        assert_eq!(a.table.rows(), b.table.rows());
        assert_eq!(a.labels, b.labels);
    }
}
