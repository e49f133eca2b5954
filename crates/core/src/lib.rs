//! LevelDB++ core: five secondary-indexing techniques over the LSM engine.
//!
//! This crate is the paper's primary contribution: a unified database
//! ([`SecondaryDb`]) supporting `GET`/`PUT`/`DEL` on the primary key plus
//! `LOOKUP(A, a, K)` and `RANGELOOKUP(A, a, b, K)` on secondary attributes,
//! backed by a per-attribute choice of index:
//!
//! | [`IndexKind`]            | Mechanism |
//! |--------------------------|-----------|
//! | `Embedded`               | per-block bloom filters + zone maps inside the primary table's SSTables (paper §3) |
//! | `EagerStandalone`        | posting-list table, read-modify-write per write (§4.1.1) |
//! | `LazyStandalone`         | posting-list fragments merged at compaction via a merge operator (§4.1.2) |
//! | `CompositeStandalone`    | `(secondary ‖ primary)` composite-key table, prefix scans (§4.2) |
//!
//! [`cost`] implements the analytical I/O models of the paper's Tables 3
//! and 5, and [`advisor`] the index-selection strategy of its Figure 2.

pub mod advisor;
pub mod cost;
pub mod doc;
pub mod indexes;
pub mod secondary_db;
pub mod topk;

pub use doc::{Document, JsonAttrExtractor};
pub use indexes::{IndexKind, LookupHit};
pub use ldbpp_lsm::check::{CheckCode, IntegrityReport, Violation};
pub use secondary_db::{
    shard_layout, DegradedStats, HealReport, Partial, ReadMode, SecondaryDb, SecondaryDbOptions,
};
