//! # kanon-measures
//!
//! Information-loss measures for *"k-Anonymization Revisited"* (ICDE 2008).
//!
//! The paper's experiments use two measures, both implemented here as
//! [`EntryMeasure`]s whose node costs are precomputed into a
//! [`NodeCostTable`]:
//!
//! * [`EntropyMeasure`] — the entropy measure Π_E of Eq. (3);
//! * [`LmMeasure`] — the LM measure of Eq. (4).
//!
//! [`Measure`] selects between the two by their `em`/`lm` spelling.
//!
//! The related-work measures reviewed in Sec. II are provided as well:
//! [`TreeMeasure`] (Aggarwal et al.), [`SuppressionMeasure`] (Meyerson &
//! Williams), [`nonuniform_entropy_loss`] (the non-uniform entropy
//! variant of Gionis & Tassa), [`discernibility`](mod@discernibility) (DM, Bayardo & Agrawal)
//! and [`classification_metric`] (CM, Iyengar).
//!
//! ```
//! use kanon_core::{Record, SchemaBuilder, Table, GeneralizedTable};
//! use kanon_measures::{EntropyMeasure, NodeCostTable};
//! use std::sync::Arc;
//!
//! let schema = SchemaBuilder::new()
//!     .categorical("gender", ["M", "F"])
//!     .build_shared()
//!     .unwrap();
//! let table = Table::new(
//!     Arc::clone(&schema),
//!     vec![Record::from_raw([0]), Record::from_raw([1])],
//! )
//! .unwrap();
//! let costs = NodeCostTable::compute(&table, &EntropyMeasure);
//! // Suppressing a uniform binary attribute costs exactly one bit.
//! let root = schema.attr(0).hierarchy().root();
//! assert_eq!(costs.entry_cost(0, root), 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classification;
pub mod discernibility;
pub mod entropy;
pub mod lm;
pub mod measure;
pub mod nonuniform;
pub mod queries;
pub mod select;
pub mod suppression;
pub mod tree;

pub use classification::classification_metric;
pub use discernibility::{class_sizes, discernibility, discernibility_per_record};
pub use entropy::EntropyMeasure;
pub use lm::LmMeasure;
pub use measure::{EntryMeasure, JoinEntry, MeasureContext, NodeCostTable, JOIN_TABLE_LIMIT};
pub use nonuniform::nonuniform_entropy_loss;
pub use queries::{mean_relative_error, CountQuery, QueryWorkload};
pub use select::Measure;
pub use suppression::SuppressionMeasure;
pub use tree::TreeMeasure;
