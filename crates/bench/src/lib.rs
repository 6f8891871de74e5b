//! # kanon-bench
//!
//! Experiment harness regenerating every table and figure of
//! *"k-Anonymization Revisited"* (ICDE 2008). Each paper artefact has a
//! dedicated binary (see DESIGN.md §4 for the experiment index):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table I (summary of results) |
//! | `fig2` | Figure 2 (entropy measure on Adult) |
//! | `fig3` | Figure 3 (LM measure on Adult) |
//! | `fig1_inclusions` | Figure 1 (anonymity-class inclusions, machine-checked) |
//! | `ablation_distance` | distance functions D1–D4 comparison |
//! | `ablation_k1` | Alg.3+5 vs Alg.4+5 couplings |
//! | `ablation_modified` | basic vs modified agglomerative |
//! | `ablation_topdown` | bottom-up agglomerative vs top-down Mondrian (E-A6) |
//! | `ablation_recoding` | local vs full-domain (global) recoding (E-A7) |
//! | `ablation_baselines` | every baseline side by side: forest, MDAV, Mondrian, full-domain, Samarati (E-A8) |
//! | `global1k_stats` | (k,k) → global (1,k) statistics |
//! | `scaling` | runtime scaling in n |
//! | `ldiv_scaling` | ℓ-diversity engine-vs-naive scaling (E-S2) |
//! | `serve_drift` | loss drift of incremental serving vs from-scratch runs (E-S5) |
//! | `epsilon_kk` | ((1+ε)k,(1+ε)k) vs global (1,k), the Sec. VII open question (E-X1) |
//! | `query_utility` | COUNT-query relative error on anonymized tables (E-X2) |
//!
//! This library holds the shared machinery: dataset loading, the three
//! competitor protocols of Table I, and plain-text table/series
//! rendering. Measures are selected with [`kanon_measures::Measure`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod datasets;
pub mod render;
pub mod runner;

pub use args::Args;
pub use datasets::{load_dataset, Dataset, DatasetName};
pub use render::{render_series, render_table, series_to_csv, Series, TextTable};
pub use runner::{run_best_k_anon, run_forest, run_kk_best, CompetitorResult, PAPER_KS};
