//! # certa-datagen
//!
//! Seeded synthetic versions of the twelve DeepMatcher benchmark datasets the
//! paper evaluates on (Table 1): Abt-Buy, Amazon-Google, BeerAdvo-RateBeer,
//! DBLP-ACM, DBLP-Scholar, Fodors-Zagats, iTunes-Amazon, Walmart-Amazon, and
//! the four "Dirty" variants.
//!
//! The real CSVs are not redistributable/downloadable in this environment, so
//! each dataset is *simulated*: a seeded generator creates underlying
//! entities from a domain vocabulary, renders two differently-formatted views
//! (one per source), corrupts them through the noise channels real ER data
//! exhibits (token drops, abbreviations, typos, missing values, numeric
//! reformatting — plus attribute-value migration for the Dirty variants), and
//! assembles labeled train/test pair splits with blocking-based hard
//! negatives. This preserves the behaviour the paper's experiments probe.
//!
//! Entry point: [`generate`]. Everything is deterministic in
//! `(DatasetId, Scale, seed)`.

pub mod corrupt;
pub mod entity;
pub mod generator;
pub mod io;
pub mod spec;
pub mod splits;
pub mod stats;
pub mod vocab;

pub use generator::generate;
pub use io::{load_deepmatcher_dir, write_deepmatcher_dir, CsvError};
pub use spec::{DatasetId, DatasetSpec, Domain, Scale};
pub use stats::{dataset_stats, table1_rows, DatasetStats};
