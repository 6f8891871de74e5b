//! # kanon-data
//!
//! Workloads for *"k-Anonymization Revisited"* (ICDE 2008), Sec. VI:
//!
//! * [`art`] — the paper's artificial dataset, generated from the exact
//!   distributions and generalization collections it specifies;
//! * [`adult`] — Adult (ADT): a synthetic look-alike generator matching
//!   the published marginals of the UCI Adult dataset, plus a loader for
//!   the real `adult.data` file (see DESIGN.md §2 for the substitution
//!   rationale);
//! * [`cmc`] — Contraceptive Method Choice: same treatment, labels
//!   included for the CM measure;
//! * [`csv`] — dependency-free CSV I/O for tables and generalized tables,
//!   and the one row conversion every table reader shares, the Adult and
//!   CMC loaders included (the `data/csv/row` fail point, the [`RowPolicy`]);
//! * [`chunked`] — the one ingestion loop, fed by a stream or by text
//!   (peak transient memory is O(longest row), not O(file) — the on-ramp
//!   for million-row tables);
//! * [`sampling`] — seeded categorical sampling shared by the generators.
//!
//! All generators take explicit seeds and are fully deterministic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adult;
pub mod art;
pub mod chunked;
pub mod cmc;
pub mod csv;
pub mod reconstruct;
pub mod sampling;
pub mod schema_text;

pub use chunked::{table_from_path_with_policy, table_from_reader_with_policy};
pub use csv::{
    generalized_from_csv, generalized_to_csv, parse_csv, parse_csv_report, table_from_csv,
    table_from_csv_with_policy, table_to_csv, write_csv, CsvParseReport, IngestReport, RowPolicy,
    ROW_FAIL_POINT,
};
pub use reconstruct::{reconstruct, ReconstructionModel};
pub use schema_text::{parse_schema, schema_to_text};
