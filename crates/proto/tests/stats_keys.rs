//! The STATS document's key paths, pinned against a literal list.
//!
//! Readers of STATS look keys up by name and often fall back to zero
//! when one is missing, so a renamed or dropped counter would read as
//! "nothing happened" instead of failing. This test lists every path by
//! hand: a change to the document's shape has to change this list too.

use std::sync::Arc;
use std::time::Duration;

use ldbpp_common::json::Value;
use ldbpp_core::indexes::IndexKind;
use ldbpp_core::secondary_db::{SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::env::MemEnv;
use ldbpp_lsm::options::DbOptions;
use ldbpp_proto::{Client, Server, ServerConfig};

/// Every `IoSnapshot` field, as each `*_io` object reports it.
const IO_KEYS: [&str; 27] = [
    "block_reads",
    "block_read_bytes",
    "cache_hits",
    "table_opens",
    "compaction_blocks_read",
    "compaction_bytes_read",
    "compaction_blocks_written",
    "compaction_bytes_written",
    "flush_blocks_written",
    "flush_bytes_written",
    "wal_bytes_written",
    "bloom_checks",
    "bloom_negatives",
    "zonemap_prunes",
    "file_zonemap_prunes",
    "compactions",
    "flushes",
    "injected_faults",
    "wal_replays",
    "manifest_replays",
    "wal_records_salvaged",
    "wal_bytes_dropped",
    "corrupt_blocks_skipped",
    "group_commits",
    "grouped_writes",
    "wal_syncs",
    "group_size_hist",
];

/// Every path outside the `*_io` objects.
const OTHER_KEYS: [&str; 15] = [
    "shards",
    "degraded.degraded_reads",
    "degraded.failed_shard_reads",
    "server.connections",
    "server.accepted",
    "server.rejected_busy",
    "server.requests",
    "server.protocol_errors",
    "server.shed_busy",
    "server.draining",
    "server.dedup.hits",
    "server.dedup.sessions",
    "server.dedup.evicted_sessions",
    "integrity.clean",
    "integrity.violations",
];

/// The dotted path of every non-object value in `v`.
fn leaf_paths(v: &Value, prefix: &str, out: &mut Vec<String>) {
    match v {
        Value::Object(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                leaf_paths(child, &path, out);
            }
        }
        _ => out.push(prefix.to_string()),
    }
}

#[test]
fn stats_key_paths_match_the_pinned_list() {
    let db = Arc::new(
        SecondaryDb::open(
            MemEnv::new(),
            "db",
            SecondaryDbOptions {
                base: DbOptions::small(),
                shards: 2,
                ..Default::default()
            },
            &[("UserID", IndexKind::LazyStandalone)],
        )
        .expect("open in-memory db"),
    );
    let cfg = ServerConfig {
        read_poll: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let handle = Server::start(db, "127.0.0.1:0", cfg).expect("start server");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.put(b"k1", br#"{"UserID":"u1"}"#).expect("put");
    let stats = Value::parse(&client.stats(true).expect("stats")).expect("STATS is JSON");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");

    let mut got = Vec::new();
    leaf_paths(&stats, "", &mut got);
    got.sort();
    let mut want: Vec<String> = ["primary_io", "index_io", "merged_io"]
        .iter()
        .flat_map(|io| IO_KEYS.iter().map(move |k| format!("{io}.{k}")))
        .chain(OTHER_KEYS.iter().map(|k| k.to_string()))
        .collect();
    want.sort();
    assert_eq!(got, want);
}
