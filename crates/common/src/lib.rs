//! Shared primitives for the LevelDB++ workspace.
//!
//! This crate hosts the low-level building blocks every other crate relies
//! on:
//!
//! * [`error`] — the common [`Error`]/[`Result`] types.
//! * [`coding`] — LevelDB-style fixed and varint integer encodings.
//! * [`crc32c`] — the Castagnoli CRC used to checksum log records and table
//!   footers, including LevelDB's masking trick.
//! * [`json`] — a small self-contained JSON value model, parser and writer.
//!   The paper stores record values and posting lists as JSON; we implement
//!   JSON in-house because `serde_json` is outside the approved dependency
//!   set.
//! * [`mod@counters`] — the [`counters!`] macro: each counter set declared
//!   once, its snapshot, delta, sum and JSON form derived from that list.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod coding;
pub mod counters;
pub mod crc32c;
pub mod error;
pub mod json;

pub use error::{Error, Result};
pub use json::Value;
