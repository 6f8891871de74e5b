//! # kanon-core
//!
//! Data model for the `kanon` workspace — a Rust reproduction of
//! *"k-Anonymization Revisited"* (Gionis, Mazza, Tassa; ICDE 2008).
//!
//! This crate implements Sec. III of the paper:
//!
//! * [`domain`] — finite attribute domains `A_j`;
//! * [`hierarchy`] — permissible generalized-subset collections
//!   `𝒜_j ⊆ P(A_j)` (Def. 3.1), compiled from laminar families into
//!   generalization trees with O(depth) closures;
//! * [`schema`] — ordered quasi-identifier schemas;
//! * [`record`] / [`table`] — the databases `D` and `g(D)` of Eq. (1) and
//!   Def. 3.2 (local recoding: row-aligned generalizations);
//! * [`classes`] — a table as a multiset: its distinct tuples, their
//!   multiplicities and the row → class map;
//! * [`generalize`] — consistency (Def. 3.3), record joins `R̄ + R̄'`,
//!   closures of record sets;
//! * [`cluster`] — partitions `γ` and their translation into generalized
//!   tables via cluster closures;
//! * [`stats`] — the empirical distributions `Pr(X_j = a)` feeding the
//!   entropy measure.
//!
//! Higher layers build on this crate: `kanon-measures` (information loss),
//! `kanon-algos` (the anonymization algorithms of Sec. V), `kanon-verify`
//! (the anonymity notions of Sec. IV and the adversary models), and
//! `kanon-data` (the Sec. VI workloads).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classes;
pub mod cluster;
pub mod config;
pub mod domain;
pub mod error;
pub mod generalize;
pub mod hierarchy;
pub mod record;
pub mod schema;
pub mod stats;
pub mod table;

pub use classes::TupleClasses;
pub use cluster::Clustering;
pub use domain::{AttrId, AttributeDomain, ValueId};
pub use error::{CoreError, KanonError, KanonResult, Result};
pub use hierarchy::{Hierarchy, NodeId};
pub use record::{GeneralizedRecord, Record};
pub use schema::{Attribute, Schema, SchemaBuilder, SharedSchema};
pub use stats::TableStats;
pub use table::{GeneralizedTable, Table};
