//! # kanon-algos
//!
//! The anonymization algorithms of *"k-Anonymization Revisited"*
//! (Gionis, Mazza, Tassa; ICDE 2008), Sec. V, plus the baselines they are
//! evaluated against:
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Algorithm 1 (basic agglomerative k-anonymizer) | [`try_agglomerative_k_anonymize`] |
//! | Algorithm 2 (modified agglomerative) | [`AgglomerativeConfig::modified`] |
//! | Distance functions (8)–(11) + Nergiz–Clifton | [`ClusterDistance`] |
//! | Algorithm 3 ((k,1) by nearest neighbours) | [`k1_nearest_neighbors`] |
//! | Algorithm 4 ((k,1) by expansion) | [`k1_expansion`] |
//! | Algorithm 5 ((1,k)-anonymizer) | [`try_one_k_anonymize`] |
//! | Algorithm 6 ((k,k) → global (1,k)) | [`global_1k_from_kk`] |
//! | Forest baseline (Aggarwal et al., 3(k−1)-approx) | [`try_forest_k_anonymize`] |
//! | Exhaustive optima (test oracles) | [`try_optimal_k_anonymize`], [`k1_optimal_bruteforce`] |
//! | End-to-end pipelines | [`try_kk_anonymize`], [`try_global_1k_anonymize`], [`try_best_k_anonymize`] |
//! | Shard-and-conquer scale-out (n → 10⁶) | [`try_sharded_k_anonymize`], [`try_sharded_l_diverse_k_anonymize`] |
//!
//! Each algorithm has one entry point, a `try_*` function (see
//! [`fallible`]) returning [`kanon_core::KanonResult`]. Those that honour
//! the work budget wrap their output in [`Budgeted`]; call
//! [`Budgeted::into_inner`] when a best-effort result is good enough.
//!
//! All algorithms are parameterized by a precomputed
//! [`kanon_measures::NodeCostTable`], so they work identically under the
//! entropy measure (Eq. 3), the LM measure (Eq. 4), or any custom
//! [`kanon_measures::EntryMeasure`].
//!
//! ```
//! use kanon_algos::{try_kk_anonymize, KkConfig};
//! use kanon_core::{Record, SchemaBuilder, Table};
//! use kanon_measures::{LmMeasure, NodeCostTable};
//! use std::sync::Arc;
//!
//! let schema = SchemaBuilder::new()
//!     .numeric_with_intervals("age", 20, 39, &[5, 10])
//!     .build_shared()
//!     .unwrap();
//! let rows = (0..20).map(|i| Record::from_raw([i])).collect();
//! let table = Table::new(Arc::clone(&schema), rows).unwrap();
//! let costs = NodeCostTable::compute(&table, &LmMeasure);
//!
//! let out = try_kk_anonymize(&table, &costs, &KkConfig::new(5)).unwrap();
//! // Every 5-year band holds 5 records: the (k,1) stage pays one band…
//! assert!(out.loss > 0.0 && out.loss < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agglomerative;
pub mod cost;
pub mod distance;
pub mod engine;
pub mod fallible;
pub mod forest;
pub mod fulldomain;
pub mod global_one_k;
pub mod k1;
mod lattice;
pub mod ldiversity;
pub mod mdav;
pub mod mondrian;
pub mod one_k;
pub mod optimal;
pub mod pipeline;
pub mod samarati;
pub mod shard;
mod split;

pub use agglomerative::{AgglomerativeConfig, KAnonOutput};
pub use cost::CostContext;
pub use distance::{ClusterDistance, DEFAULT_EPSILON};
pub use fallible::{
    error_from_panic, try_agglomerative_k_anonymize, try_best_k_anonymize, try_forest_k_anonymize,
    try_fulldomain_k_anonymize, try_global_1k_anonymize, try_k1_anonymize, try_kk_anonymize,
    try_l_diverse_k_anonymize, try_mdav_k_anonymize, try_mondrian_k_anonymize, try_one_k_anonymize,
    try_optimal_k_anonymize, try_samarati_k_anonymize, try_sharded_k_anonymize,
    try_sharded_l_diverse_k_anonymize, Budgeted,
};
pub use fulldomain::{FullDomainOutput, RecodingLevels};
pub use global_one_k::{global_1k_from_kk, GlobalOutput};
pub use k1::{k1_expansion, k1_nearest_neighbors, k1_optimal_bruteforce, GenOutput};
pub use ldiversity::LDiverseConfig;
pub use pipeline::{K1Method, KkConfig};
pub use samarati::SamaratiOutput;
pub use shard::{ShardConfig, ShardStats, ShardedOutput};
