//! The **Adult (ADT)** workload — Sec. VI.
//!
//! The paper uses a 5 000-record sample of the UCI Adult census extract
//! with nine quasi-identifiers (age, work-class, education-level,
//! marital-status, occupation, family-relationship, race, sex,
//! native-country) and hierarchies "grouping together values that are
//! semantically close" (e.g. education-level → high-school / college /
//! advanced-degrees).
//!
//! The raw UCI file is not redistributable here, so this module offers two
//! paths (see DESIGN.md §2):
//!
//! * [`generate`] — a synthetic Adult-like sampler whose marginals match
//!   the published statistics of the real dataset, with mild realistic
//!   dependencies (marital-status and relationship depend on age and sex;
//!   occupation depends on education). All algorithms see the data only
//!   through per-attribute distributions and co-occurrence structure, so
//!   this preserves the qualitative behaviour of the evaluation.
//! * [`load_csv`] — a loader for the real `adult.data` file if the user
//!   supplies one (comma-separated UCI format; rows with `?` in a public
//!   attribute are skipped, as is customary).

use crate::csv::{clamp_int_cell, convert_row, parse_csv, IngestReport, RowPolicy};
use crate::sampling::Categorical;
use kanon_core::error::Result;
use kanon_core::record::Record;
use kanon_core::schema::{SchemaBuilder, SharedSchema};
use kanon_core::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Youngest age in the domain (as in UCI Adult).
pub const AGE_MIN: i64 = 17;
/// Oldest age in the domain (UCI Adult caps at 90).
pub const AGE_MAX: i64 = 90;

const WORKCLASS: [&str; 8] = [
    "Private",
    "Self-emp-not-inc",
    "Self-emp-inc",
    "Federal-gov",
    "Local-gov",
    "State-gov",
    "Without-pay",
    "Never-worked",
];

const EDUCATION: [&str; 16] = [
    "Preschool",
    "1st-4th",
    "5th-6th",
    "7th-8th",
    "9th",
    "10th",
    "11th",
    "12th",
    "HS-grad",
    "Some-college",
    "Assoc-voc",
    "Assoc-acdm",
    "Bachelors",
    "Masters",
    "Prof-school",
    "Doctorate",
];

const MARITAL: [&str; 7] = [
    "Never-married",
    "Married-civ-spouse",
    "Married-AF-spouse",
    "Married-spouse-absent",
    "Separated",
    "Divorced",
    "Widowed",
];

const OCCUPATION: [&str; 14] = [
    "Exec-managerial",
    "Prof-specialty",
    "Tech-support",
    "Adm-clerical",
    "Sales",
    "Craft-repair",
    "Machine-op-inspct",
    "Transport-moving",
    "Handlers-cleaners",
    "Farming-fishing",
    "Other-service",
    "Protective-serv",
    "Priv-house-serv",
    "Armed-Forces",
];

const RELATIONSHIP: [&str; 6] = [
    "Husband",
    "Wife",
    "Own-child",
    "Other-relative",
    "Not-in-family",
    "Unmarried",
];

const RACE: [&str; 5] = [
    "White",
    "Black",
    "Asian-Pac-Islander",
    "Amer-Indian-Eskimo",
    "Other",
];

const SEX: [&str; 2] = ["Male", "Female"];

const COUNTRY: [&str; 41] = [
    // North America
    "United-States",
    "Canada",
    "Outlying-US(Guam-USVI-etc)",
    // Latin America & Caribbean
    "Mexico",
    "Puerto-Rico",
    "Cuba",
    "Jamaica",
    "Haiti",
    "Dominican-Republic",
    "El-Salvador",
    "Guatemala",
    "Honduras",
    "Nicaragua",
    "Columbia",
    "Ecuador",
    "Peru",
    "Trinadad&Tobago",
    // Europe
    "England",
    "Germany",
    "France",
    "Italy",
    "Poland",
    "Portugal",
    "Greece",
    "Ireland",
    "Scotland",
    "Yugoslavia",
    "Hungary",
    "Holand-Netherlands",
    // Asia & Pacific
    "Philippines",
    "India",
    "China",
    "Japan",
    "Vietnam",
    "Taiwan",
    "Iran",
    "South",
    "Hong",
    "Cambodia",
    "Thailand",
    "Laos",
];

/// Builds the Adult schema: nine quasi-identifiers with semantically
/// grouped hierarchies, mirroring the paper's description.
pub fn schema() -> SharedSchema {
    SchemaBuilder::new()
        // age 17..=90 → 5-year and 10-year bands (34 → {30..39} style).
        .numeric_with_intervals("age", AGE_MIN, AGE_MAX, &[5, 10])
        .categorical_with_groups(
            "workclass",
            WORKCLASS,
            &[
                &["Self-emp-not-inc", "Self-emp-inc"],
                &["Federal-gov", "Local-gov", "State-gov"],
                &["Without-pay", "Never-worked"],
            ],
        )
        .categorical_with_groups(
            "education",
            EDUCATION,
            &[
                // The paper's three groups: high-school, college, advanced.
                &[
                    "Preschool",
                    "1st-4th",
                    "5th-6th",
                    "7th-8th",
                    "9th",
                    "10th",
                    "11th",
                    "12th",
                    "HS-grad",
                ],
                &["Some-college", "Assoc-voc", "Assoc-acdm", "Bachelors"],
                &["Masters", "Prof-school", "Doctorate"],
                // Finer bands inside high-school, still semantically close.
                &["Preschool", "1st-4th", "5th-6th", "7th-8th"],
                &["9th", "10th", "11th", "12th"],
            ],
        )
        .categorical_with_groups(
            "marital-status",
            MARITAL,
            &[
                &[
                    "Married-civ-spouse",
                    "Married-AF-spouse",
                    "Married-spouse-absent",
                ],
                &["Separated", "Divorced", "Widowed"],
            ],
        )
        .categorical_with_groups(
            "occupation",
            OCCUPATION,
            &[
                &[
                    "Exec-managerial",
                    "Prof-specialty",
                    "Tech-support",
                    "Adm-clerical",
                    "Sales",
                ],
                &[
                    "Craft-repair",
                    "Machine-op-inspct",
                    "Transport-moving",
                    "Handlers-cleaners",
                    "Farming-fishing",
                ],
                &[
                    "Other-service",
                    "Protective-serv",
                    "Priv-house-serv",
                    "Armed-Forces",
                ],
            ],
        )
        .categorical_with_groups(
            "relationship",
            RELATIONSHIP,
            &[
                &["Husband", "Wife"],
                &["Own-child", "Other-relative"],
                &["Not-in-family", "Unmarried"],
            ],
        )
        .categorical_with_groups(
            "race",
            RACE,
            &[&["Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"]],
        )
        .categorical("sex", SEX)
        .categorical_with_groups(
            "native-country",
            COUNTRY,
            &[
                &["United-States", "Canada", "Outlying-US(Guam-USVI-etc)"],
                &[
                    "Mexico",
                    "Puerto-Rico",
                    "Cuba",
                    "Jamaica",
                    "Haiti",
                    "Dominican-Republic",
                    "El-Salvador",
                    "Guatemala",
                    "Honduras",
                    "Nicaragua",
                    "Columbia",
                    "Ecuador",
                    "Peru",
                    "Trinadad&Tobago",
                ],
                &[
                    "England",
                    "Germany",
                    "France",
                    "Italy",
                    "Poland",
                    "Portugal",
                    "Greece",
                    "Ireland",
                    "Scotland",
                    "Yugoslavia",
                    "Hungary",
                    "Holand-Netherlands",
                ],
                &[
                    "Philippines",
                    "India",
                    "China",
                    "Japan",
                    "Vietnam",
                    "Taiwan",
                    "Iran",
                    "South",
                    "Hong",
                    "Cambodia",
                    "Thailand",
                    "Laos",
                ],
            ],
        )
        .build_shared()
        // kanon-lint: allow(L006) static schema literal, covered by unit tests
        .expect("adult schema is well-formed")
}

/// Per-decade age weights (published Adult age histogram, approximate).
fn age_distribution() -> Categorical {
    let mut weights = Vec::with_capacity((AGE_MAX - AGE_MIN + 1) as usize);
    for age in AGE_MIN..=AGE_MAX {
        let w = match age {
            17..=19 => 2.0,
            20..=29 => 2.5,
            30..=39 => 2.6,
            40..=49 => 2.1,
            50..=59 => 1.3,
            60..=69 => 0.65,
            70..=79 => 0.20,
            _ => 0.06,
        };
        weights.push(w);
    }
    Categorical::new(&weights)
}

struct Sampler {
    age: Categorical,
    workclass: Categorical,
    education: Categorical,
    sex: Categorical,
    race: Categorical,
    country: Categorical,
    marital_young: Categorical,
    marital_mid: Categorical,
    marital_old: Categorical,
    occ_low_edu: Categorical,
    occ_mid_edu: Categorical,
    occ_high_edu: Categorical,
}

impl Sampler {
    fn new() -> Self {
        Sampler {
            age: age_distribution(),
            // Private, SE-not-inc, SE-inc, Fed, Local, State, W/o-pay, Never
            workclass: Categorical::new(&[
                0.695, 0.079, 0.035, 0.029, 0.064, 0.041, 0.0004, 0.0002,
            ]),
            // In EDUCATION order (Preschool … Doctorate).
            education: Categorical::new(&[
                0.002, 0.005, 0.010, 0.020, 0.016, 0.028, 0.037, 0.013, 0.322, 0.223, 0.042, 0.033,
                0.164, 0.054, 0.018, 0.013,
            ]),
            sex: Categorical::new(&[0.669, 0.331]),
            race: Categorical::new(&[0.854, 0.096, 0.031, 0.010, 0.008]),
            country: {
                // US-heavy with a realistic long tail over the remaining 40.
                let mut w = vec![0.895];
                let tail = [
                    0.004, 0.0005, // Canada, Outlying-US
                    0.020, 0.0035, 0.003, 0.0025, 0.0015, 0.002, 0.0032, 0.002, 0.0004, 0.001,
                    0.0018, 0.0009, 0.0014, 0.0005, // Latin America
                    0.0028, 0.0042, 0.0009, 0.0022, 0.0018, 0.0011, 0.0009, 0.0007, 0.0004, 0.0005,
                    0.0004, 0.0001, // Europe
                    0.0061, 0.0031, 0.0023, 0.0019, 0.002, 0.0016, 0.0013, 0.0019, 0.0006, 0.0006,
                    0.0005, 0.0005, // Asia
                ];
                w.extend_from_slice(&tail);
                assert_eq!(w.len(), COUNTRY.len());
                Categorical::new(&w)
            },
            // Marital status by age band, in MARITAL order:
            // Never, Married-civ, Married-AF, Spouse-absent, Sep, Div, Wid.
            marital_young: Categorical::new(&[0.75, 0.18, 0.002, 0.01, 0.02, 0.035, 0.003]),
            marital_mid: Categorical::new(&[0.22, 0.55, 0.001, 0.015, 0.04, 0.16, 0.014]),
            marital_old: Categorical::new(&[0.06, 0.58, 0.0005, 0.012, 0.03, 0.20, 0.12]),
            // Occupation by education band, in OCCUPATION order.
            occ_low_edu: Categorical::new(&[
                0.05, 0.03, 0.01, 0.09, 0.09, 0.17, 0.11, 0.08, 0.08, 0.05, 0.19, 0.02, 0.015,
                0.0005,
            ]),
            occ_mid_edu: Categorical::new(&[
                0.13, 0.10, 0.04, 0.14, 0.13, 0.12, 0.05, 0.04, 0.03, 0.02, 0.09, 0.02, 0.003,
                0.0003,
            ]),
            occ_high_edu: Categorical::new(&[
                0.24, 0.38, 0.04, 0.06, 0.10, 0.03, 0.01, 0.01, 0.005, 0.01, 0.03, 0.015, 0.001,
                0.0003,
            ]),
        }
    }

    fn sample_row<R: Rng>(&self, rng: &mut R) -> Record {
        let age_idx = self.age.sample(rng);
        let age = AGE_MIN + age_idx as i64;
        let workclass = self.workclass.sample(rng);
        let education = self.education.sample(rng);
        let sex = self.sex.sample(rng);
        let race = self.race.sample(rng);
        let country = self.country.sample(rng);

        let marital = if age < 26 {
            self.marital_young.sample(rng)
        } else if age < 50 {
            self.marital_mid.sample(rng)
        } else {
            self.marital_old.sample(rng)
        };

        // Relationship follows marital status and sex.
        let relationship = if marital == 1 || marital == 2 {
            // Married: husband/wife by sex (with a small "spouse absent"
            // style leak into other categories).
            if sex == 0 {
                0 // Husband
            } else {
                1 // Wife
            }
        } else if age < 25 && marital == 0 {
            // Young and never married: usually own-child.
            if rng.gen::<f64>() < 0.7 {
                2 // Own-child
            } else {
                4 // Not-in-family
            }
        } else if rng.gen::<f64>() < 0.55 {
            4 // Not-in-family
        } else if rng.gen::<f64>() < 0.65 {
            5 // Unmarried
        } else {
            3 // Other-relative
        };

        // Occupation follows the education band (indices into EDUCATION:
        // 0..=8 high-school, 9..=12 college, 13..=15 advanced).
        let occupation = if education <= 8 {
            self.occ_low_edu.sample(rng)
        } else if education <= 12 {
            self.occ_mid_edu.sample(rng)
        } else {
            self.occ_high_edu.sample(rng)
        };

        Record::from_raw([
            age_idx as u32,
            workclass as u32,
            education as u32,
            marital as u32,
            occupation as u32,
            relationship as u32,
            race as u32,
            sex as u32,
            country as u32,
        ])
    }
}

/// Generates an Adult-like table of `n` records with the given seed.
pub fn generate(n: usize, seed: u64) -> Table {
    generate_with_schema(&schema(), n, seed)
}

/// Generates Adult-like rows against an existing Adult schema.
pub fn generate_with_schema(schema: &SharedSchema, n: usize, seed: u64) -> Table {
    assert_eq!(schema.num_attrs(), 9, "not an Adult schema");
    let sampler = Sampler::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n).map(|_| sampler.sample_row(&mut rng)).collect();
    Table::new_unchecked(Arc::clone(schema), rows)
}

/// Column indices of the nine public attributes within the 15-column UCI
/// `adult.data` format.
const UCI_COLUMNS: [usize; 9] = [
    0,  // age
    1,  // workclass
    3,  // education
    5,  // marital-status
    6,  // occupation
    7,  // relationship
    8,  // race
    9,  // sex
    13, // native-country
];

/// Loads the real UCI `adult.data` CSV (no header; 15 columns). Rows with
/// a missing (`?`) public attribute are skipped; at most `limit` rows are
/// kept when `limit` is non-zero (the paper samples n = 5000).
pub fn load_csv(text: &str, limit: usize) -> Result<Table> {
    load_csv_with_policy(text, limit, RowPolicy::Strict).map(|(t, _)| t)
}

/// Like [`load_csv`], but routes rows that fail to parse (unknown labels,
/// unparsable ages, or injected `data/csv/row` faults) through `policy`.
/// Rows with a missing (`?`) attribute or fewer than 14 columns are still
/// silently skipped — that is UCI data semantics, not a parse fault — and
/// keep their row index. Every other row has its age clamped into the
/// domain and is converted by the same code as any schema CSV row
/// (`csv::convert_row`); report indices count every parsed row.
pub fn load_csv_with_policy(
    text: &str,
    limit: usize,
    policy: RowPolicy,
) -> Result<(Table, IngestReport)> {
    let schema = schema();
    let mut report = IngestReport::default();
    let mut records = Vec::new();
    for (row_idx, fields) in parse_csv(text).iter().enumerate() {
        if fields.len() < 14 || UCI_COLUMNS.iter().any(|&c| fields[c].trim() == "?") {
            continue; // blank/short line, or a missing public attribute
        }
        let mut cells: Vec<String> = UCI_COLUMNS.iter().map(|&c| fields[c].clone()).collect();
        clamp_int_cell(&mut cells[0], AGE_MIN, AGE_MAX);
        if let Some(rec) = convert_row(&schema, &cells, row_idx, policy, &mut report)? {
            records.push(rec);
            if records.len() == limit {
                break;
            }
        }
    }
    Ok((Table::new(schema, records)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::TableStats;

    #[test]
    fn schema_has_nine_attrs_with_hierarchies() {
        let s = schema();
        assert_eq!(s.num_attrs(), 9);
        let names: Vec<&str> = s.attrs().map(|(_, a)| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "age",
                "workclass",
                "education",
                "marital-status",
                "occupation",
                "relationship",
                "race",
                "sex",
                "native-country"
            ]
        );
        // Education collapses into the paper's three groups.
        let edu = s.attr(2);
        let hs = edu.domain().value_of("HS-grad").unwrap();
        let pre = edu.domain().value_of("Preschool").unwrap();
        let c = edu.hierarchy().closure([hs, pre]).unwrap();
        assert_eq!(edu.hierarchy().node_size(c), 9);
        let ba = edu.domain().value_of("Bachelors").unwrap();
        let c = edu.hierarchy().closure([hs, ba]).unwrap();
        assert_eq!(c, edu.hierarchy().root());
    }

    #[test]
    fn age_hierarchy_bands() {
        let s = schema();
        let age = s.attr(0);
        let a30 = age.domain().value_of("32").unwrap();
        let a31 = age.domain().value_of("36").unwrap();
        let c = age.hierarchy().closure([a30, a31]).unwrap();
        // 32 and 36 are both in the index band [15..20) → a 5-wide band.
        assert!(age.hierarchy().node_size(c) <= 10);
        assert!(age.hierarchy().node_size(c) >= 5);
    }

    #[test]
    fn generated_marginals_are_realistic() {
        let t = generate(30_000, 5);
        let s = t.schema();
        let stats = TableStats::compute(&t);
        // Sex ratio ≈ 2:1.
        let male = s.attr(7).domain().value_of("Male").unwrap();
        let p = stats.attr(7).probability(male);
        assert!((p - 0.669).abs() < 0.02, "male share {p}");
        // Private work class dominates (≈ 0.74 after weight
        // normalization; the UCI share among *known* values is ~0.70).
        let private = s.attr(1).domain().value_of("Private").unwrap();
        let p = stats.attr(1).probability(private);
        assert!((0.68..0.78).contains(&p), "private share {p}");
        // US-born dominates.
        let us = s.attr(8).domain().value_of("United-States").unwrap();
        let p = stats.attr(8).probability(us);
        assert!((p - 0.895).abs() < 0.02, "US share {p}");
    }

    #[test]
    fn correlations_are_present() {
        let t = generate(30_000, 5);
        let s = t.schema();
        let married = s.attr(3).domain().value_of("Married-civ-spouse").unwrap();
        // Married share among the young must be well below the share among
        // the middle-aged.
        let (mut young_married, mut young_total) = (0usize, 0usize);
        let (mut mid_married, mut mid_total) = (0usize, 0usize);
        for rec in t.rows() {
            let age = AGE_MIN + rec.get(0).index() as i64;
            if age < 26 {
                young_total += 1;
                if rec.get(3) == married {
                    young_married += 1;
                }
            } else if age < 50 {
                mid_total += 1;
                if rec.get(3) == married {
                    mid_married += 1;
                }
            }
        }
        let young_rate = young_married as f64 / young_total as f64;
        let mid_rate = mid_married as f64 / mid_total as f64;
        assert!(
            young_rate + 0.2 < mid_rate,
            "young {young_rate} vs mid {mid_rate}"
        );
    }

    #[test]
    fn load_csv_parses_uci_rows() {
        let line1 = "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, \
                     Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n";
        let line2 = "50, ?, 83311, HS-grad, 9, Divorced, Sales, Unmarried, Black, Female, \
                     0, 0, 13, Mexico, >50K\n"; // '?' workclass → skipped
        let line3 = "95, Private, 1, Doctorate, 16, Widowed, Prof-specialty, Wife, White, \
                     Female, 0, 0, 40, India, >50K\n"; // age 95 → clamped to 90
        let text = format!("{line1}{line2}{line3}");
        let t = load_csv(&text, 0).unwrap();
        assert_eq!(t.num_rows(), 2);
        let s = t.schema();
        assert_eq!(s.attr(0).domain().label(t.row(0).get(0)), "39");
        assert_eq!(s.attr(0).domain().label(t.row(1).get(0)), "90");
        assert_eq!(s.attr(2).domain().label(t.row(0).get(2)), "Bachelors");
    }

    #[test]
    fn load_csv_respects_limit() {
        let row = "39, Private, 1, HS-grad, 9, Divorced, Sales, Unmarried, White, Male, \
                   0, 0, 40, United-States, <=50K\n";
        let text = row.repeat(5);
        let t = load_csv(&text, 3).unwrap();
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(100, 1);
        let b = generate(100, 1);
        assert_eq!(a.rows(), b.rows());
    }
}
