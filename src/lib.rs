//! # kanon — k-Anonymization Revisited, in Rust
//!
//! Facade crate re-exporting the whole workspace. See the individual
//! sub-crates for detail:
//!
//! * [`core`] (`kanon-core`) — data model: domains, hierarchies, tables.
//! * [`measures`] (`kanon-measures`) — information-loss measures.
//! * [`matching`] (`kanon-matching`) — bipartite matching engine.
//! * [`algos`] (`kanon-algos`) — the paper's Algorithms 1–6 and baselines.
//! * [`verify`] (`kanon-verify`) — anonymity checkers and adversaries.
//! * [`data`] (`kanon-data`) — dataset generators and CSV I/O.
//!
//! ## Quickstart
//!
//! ```
//! use kanon::prelude::*;
//!
//! // Generate the paper's synthetic ART dataset (Sec. VI).
//! let table = kanon::data::art::generate(200, 42);
//!
//! // Precompute entropy-measure node costs (Eq. 3).
//! let costs = NodeCostTable::compute(&table, &EntropyMeasure);
//!
//! // k-anonymize with the agglomerative algorithm (Alg. 1, distance D3).
//! let cfg = AgglomerativeConfig::new(5).with_distance(ClusterDistance::D3);
//! let out = try_agglomerative_k_anonymize(&table, &costs, &cfg)
//!     .unwrap()
//!     .into_inner();
//! assert!(kanon::verify::is_k_anonymous(&out.table, 5));
//!
//! // (k,k)-anonymize — same privacy against a realistic adversary,
//! // strictly better utility.
//! let kk = try_kk_anonymize(&table, &costs, &KkConfig::new(5)).unwrap();
//! assert!(kanon::verify::is_kk_anonymous(&table, &kk.table, 5).unwrap());
//! let em_k = costs.table_loss(&out.table);
//! let em_kk = costs.table_loss(&kk.table);
//! assert!(em_kk <= em_k + 1e-9);
//! ```

#![forbid(unsafe_code)]

pub use kanon_algos as algos;
pub use kanon_core as core;
pub use kanon_data as data;
pub use kanon_matching as matching;
pub use kanon_measures as measures;
pub use kanon_verify as verify;

/// Commonly used items, importable with `use kanon::prelude::*`.
pub mod prelude {
    pub use kanon_algos::{
        k1_expansion, k1_nearest_neighbors, try_agglomerative_k_anonymize, try_best_k_anonymize,
        try_forest_k_anonymize, try_global_1k_anonymize, try_kk_anonymize, try_one_k_anonymize,
        AgglomerativeConfig, Budgeted, ClusterDistance, K1Method, KkConfig,
    };
    pub use kanon_core::{
        AttributeDomain, Clustering, GeneralizedRecord, GeneralizedTable, Hierarchy, Record,
        Schema, SchemaBuilder, Table, ValueId,
    };
    pub use kanon_measures::{EntropyMeasure, LmMeasure, NodeCostTable};
}
