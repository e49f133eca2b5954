//! A LevelDB-style LSM storage engine, extended for secondary indexing.
//!
//! This crate is the storage substrate of the LevelDB++ reproduction. It is
//! a from-scratch, single-node, leveled LSM tree modelled closely on Google
//! LevelDB:
//!
//! * [`memtable`] — an insertion-only skiplist keyed by *internal keys*
//!   (`user_key ‖ seq ‖ type`).
//! * [`wal`] — the 32 KiB-block write-ahead log format with CRC32C record
//!   framing and crash recovery.
//! * [`block`] / [`table`] — SSTables: prefix-compressed data blocks with
//!   restart points, per-block primary-key bloom filters, and — the paper's
//!   Embedded Index — per-block **secondary-attribute bloom filters and zone
//!   maps** plus file-level zone maps.
//! * [`version`] — MANIFEST-backed version sets with leveled file metadata.
//! * [`compaction`] — synchronous leveled compaction (L0 file-count trigger,
//!   10× level sizing, round-robin file pick) with a RocksDB-style
//!   [`merge::MergeOperator`] hook used by the Lazy stand-alone index to
//!   merge posting-list fragments.
//! * [`mod@env`] — pluggable storage ([`env::MemEnv`], [`env::DiskEnv`]) with
//!   fine-grained I/O accounting ([`env::IoStats`]) so experiments can
//!   report block-access counts exactly as the paper does.
//! * [`repair`] — self-healing: [`repair::repair_db`] rebuilds a damaged
//!   database from whatever is readable, quarantining the rest in `lost/`;
//!   [`options::DbOptions::paranoid_checks`] selects between abort-on-first
//!   -error and permissive salvage behaviour at run time.
//!
//! The engine has one flush pipeline and two executors for it (see [`db`]
//! for the full protocol): by default the write that fills the memtable
//! runs the flush and its compactions itself, deliberately synchronous and
//! deterministic (the paper chose single-threaded LevelDB "so we can easily
//! isolate and explain the performance differences of the various indexing
//! methods"); setting [`options::DbOptions::background_work`] hands the
//! same work to a dedicated worker thread, keeping maintenance off the
//! write path while reads stay lock-free in both modes.

#![deny(missing_docs)]

pub mod attr;
pub mod block;
pub mod cache;
pub mod check;
pub mod compaction;
pub mod compress;
pub mod db;
pub mod env;
pub mod filter;
pub mod ikey;
pub mod iterator;
pub mod memtable;
pub mod merge;
pub mod model_bugs;
pub mod options;
pub mod repair;
pub mod sync;
pub mod table;
#[cfg(feature = "check")]
pub mod vclock;
pub mod version;
pub mod wal;
pub mod write_batch;
pub mod zonemap;

pub use attr::{AttrExtractor, AttrValue};
pub use check::{check_db, CheckCode, IntegrityReport, Violation};
pub use db::{Db, DbOptions};
pub use env::{DiskEnv, Env, IoStats, MemEnv};
pub use ikey::{InternalKey, ValueType};
pub use iterator::DbIterator;
pub use merge::MergeOperator;
pub use repair::{repair_db, RepairReport};
