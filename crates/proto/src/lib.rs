//! # ldbpp-proto — the LevelDB++ network layer
//!
//! The wire protocol ([`wire`]), blocking client ([`client`]), and
//! threaded TCP server ([`server`]) that put the paper's five
//! operations — PUT, GET, DEL, LOOKUP, RANGELOOKUP — plus BATCH, STATS
//! and SHUTDOWN on a socket in front of a sharded
//! [`SecondaryDb`](ldbpp_core::secondary_db::SecondaryDb).
//!
//! The `ldbpp_server` binary in the workspace root is a thin CLI around
//! [`Server::start`]; tests and benchmarks embed the same server
//! in-process.
//!
//! The fault-tolerance layer (DESIGN.md §18) lives here too: [`fault`]
//! (a chaos proxy and fault-injecting stream for exercising the stack
//! under packet loss, delay, and truncation), [`retry`] (a reconnecting
//! client with bounded backoff and idempotent writes), and [`dedup`]
//! (the server-side write-dedup window that makes those retries safe).

#![deny(missing_docs)]

pub mod client;
pub mod dedup;
pub mod drain;
pub mod fault;
pub mod retry;
pub mod server;
pub mod wire;

pub use client::Client;
pub use dedup::{DedupConfig, DedupMap, DedupStats};
pub use fault::{
    ByteFaultPlan, ChaosProxy, DirectedFaults, FaultStream, NetFault, NetFaultPlan,
    NetFaultSnapshot, NetFaultStats, XorShift,
};
pub use retry::{backoff_sleep, RetryClient, RetryPolicy, RetryStats};
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::{
    encode_frame, read_frame, ErrorCode, Hit, Request, Response, WireValue, WriteOp, MAX_FRAME_LEN,
    MIN_FRAME_LEN,
};
