//! Scatter-gather correctness: a hash-partitioned [`SecondaryDb`] must be
//! observationally identical to a single-engine one.
//!
//! The property: feed the same single-threaded op stream to a 1-shard and
//! an N-shard database, then every `LOOKUP`, `RANGELOOKUP`, `GET`, and
//! `scan_primary` returns *identical* results — same hits, same order,
//! same K-bounding, and (because all shards allocate from one
//! [`ldbpp_lsm::db::SharedSequence`] clock) the same sequence numbers —
//! for all five index techniques. Plus deterministic unit tests for the
//! layout descriptor's hard-error contract.

use ldbpp_common::json::Value;
use ldbpp_core::doc::Document;
use ldbpp_core::{IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::db::DbOptions;
use ldbpp_lsm::env::{Env, FaultEnv, MemEnv};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const ALL_KINDS: [IndexKind; 5] = [
    IndexKind::None,
    IndexKind::Embedded,
    IndexKind::EagerStandalone,
    IndexKind::LazyStandalone,
    IndexKind::CompositeStandalone,
];

#[derive(Debug, Clone)]
enum Op {
    /// Put `key-{0}` with attribute value `{1}`.
    Put(u8, i64),
    /// Delete `key-{0}` (may or may not exist).
    Delete(u8),
    /// Flush memtables (and stand-alone index tables) everywhere.
    Flush,
}

/// Small pools so overwrites, deletes, and multi-hit postings all occur.
fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            6 => (0u8..24, 0i64..6).prop_map(|(k, v)| Op::Put(k, v)),
            2 => (0u8..24).prop_map(Op::Delete),
            1 => Just(Op::Flush),
        ],
        1..60,
    )
}

fn tiny_opts() -> DbOptions {
    let mut base = DbOptions::small();
    // Force flushes/compactions inside the op stream, not just at the end.
    base.write_buffer_size = 1536;
    base.max_file_size = 1024;
    base.l0_compaction_trigger = 2;
    base
}

fn open_with_shards(shards: usize, kind: IndexKind) -> SecondaryDb {
    SecondaryDb::open(
        MemEnv::new(),
        "db",
        SecondaryDbOptions {
            base: tiny_opts(),
            shards,
            ..Default::default()
        },
        &[("A", kind)],
    )
    .expect("open")
}

fn apply(db: &SecondaryDb, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                let mut doc = Document::new();
                doc.set("A", Value::Int(*v));
                doc.set("Pad", Value::str(format!("padding-{k}-{v}")));
                db.put(format!("key-{k:03}"), &doc).expect("put");
            }
            Op::Delete(k) => db.delete(format!("key-{k:03}")).expect("delete"),
            Op::Flush => db.flush().expect("flush"),
        }
    }
}

/// Assert every read API agrees between the two databases.
fn assert_equivalent(kind: IndexKind, one: &SecondaryDb, many: &SecondaryDb) {
    for k in [None, Some(1), Some(3), Some(100)] {
        for v in 0i64..6 {
            let a = one.lookup("A", &Value::Int(v), k).expect("lookup/1");
            let b = many.lookup("A", &Value::Int(v), k).expect("lookup/N");
            assert_eq!(a, b, "{kind}: LOOKUP(A={v}, k={k:?}) diverged");
        }
        for (lo, hi) in [(0i64, 5), (1, 3), (2, 2)] {
            let a = one
                .range_lookup("A", &Value::Int(lo), &Value::Int(hi), k)
                .expect("range/1");
            let b = many
                .range_lookup("A", &Value::Int(lo), &Value::Int(hi), k)
                .expect("range/N");
            assert_eq!(a, b, "{kind}: RANGELOOKUP([{lo},{hi}], k={k:?}) diverged");
        }
    }
    for limit in [None, Some(5)] {
        let a = one
            .scan_primary(b"key-", b"key-999", limit)
            .expect("scan/1");
        let b = many
            .scan_primary(b"key-", b"key-999", limit)
            .expect("scan/N");
        assert_eq!(a, b, "{kind}: scan_primary(limit={limit:?}) diverged");
    }
    for key_id in 0u8..24 {
        let pk = format!("key-{key_id:03}");
        assert_eq!(
            one.get(&pk).expect("get/1"),
            many.get(&pk).expect("get/N"),
            "{kind}: GET({pk}) diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn sharded_reads_match_single_engine(ops in op_strategy()) {
        for kind in ALL_KINDS {
            let one = open_with_shards(1, kind);
            let many = open_with_shards(3, kind);
            apply(&one, &ops);
            apply(&many, &ops);
            assert_equivalent(kind, &one, &many);
            // Both settle clean: the structural catalogue holds per shard.
            let report = many.check_integrity();
            prop_assert!(report.is_clean(), "{kind}: sharded db dirty: {report}");
        }
    }
}

// -- layout descriptor contract ---------------------------------------------

#[test]
fn sharded_db_persists_across_reopen() {
    let env: Arc<dyn Env> = MemEnv::new();
    let opts = || SecondaryDbOptions {
        base: tiny_opts(),
        shards: 2,
        ..Default::default()
    };
    {
        let db = SecondaryDb::open(
            env.clone(),
            "db",
            opts(),
            &[("A", IndexKind::CompositeStandalone)],
        )
        .expect("open");
        for i in 0..40i64 {
            let mut doc = Document::new();
            doc.set("A", Value::Int(i % 4));
            db.put(format!("k{i}"), &doc).expect("put");
        }
        db.flush().expect("flush");
        assert_eq!(db.shard_count(), 2);
    }
    let db = SecondaryDb::open(env, "db", opts(), &[("A", IndexKind::CompositeStandalone)])
        .expect("reopen");
    let hits = db.lookup("A", &Value::Int(1), None).expect("lookup");
    assert_eq!(hits.len(), 10);
    assert!(db.check_integrity().is_clean());
}

#[test]
fn shard_count_mismatch_is_a_hard_error() {
    let env: Arc<dyn Env> = MemEnv::new();
    let opts = |shards| SecondaryDbOptions {
        base: tiny_opts(),
        shards,
        ..Default::default()
    };
    SecondaryDb::open(env.clone(), "db", opts(2), &[]).expect("create 2-shard db");
    for wrong in [1usize, 3, 4] {
        let err = SecondaryDb::open(env.clone(), "db", opts(wrong), &[])
            .err()
            .expect("reopen with wrong shard count must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("shard layout mismatch"),
            "unexpected error: {msg}"
        );
    }
    // The recorded count still works.
    SecondaryDb::open(env, "db", opts(2), &[]).expect("correct count reopens");
}

#[test]
fn unsharded_db_refuses_sharded_open() {
    let env: Arc<dyn Env> = MemEnv::new();
    let opts = |shards| SecondaryDbOptions {
        base: tiny_opts(),
        shards,
        ..Default::default()
    };
    let mut doc = Document::new();
    doc.set("A", Value::Int(1));
    let specs = [("A", IndexKind::LazyStandalone)];
    {
        let db = SecondaryDb::open(env.clone(), "db", opts(1), &specs).expect("open");
        // One shard draws sequences from the shared clock exactly as the
        // engine alone would: 1, 2, 3, …
        for (i, pk) in ["k1", "k2", "k3"].into_iter().enumerate() {
            assert_eq!(db.put(pk, &doc).expect("put"), i as u64 + 1);
        }
        db.flush().expect("flush");
    }
    {
        // A reopen continues at the recovered last sequence + 1.
        let db = SecondaryDb::open(env.clone(), "db", opts(1), &specs).expect("reopen");
        assert_eq!(db.put("k4", &doc).expect("put"), 4);
        db.delete("k4").expect("delete");
        assert_eq!(db.put("k5", &doc).expect("put"), 6);
    }
    // No LAYOUT descriptor is ever written at shards = 1.
    assert!(!env.exists("db/LAYOUT"));
    let err = SecondaryDb::open(env.clone(), "db", opts(2), &[])
        .err()
        .expect("sharded open over an unsharded db must fail");
    assert!(err.to_string().contains("unsharded"), "got: {err}");
    // And the refusal left the database untouched.
    let db = SecondaryDb::open(env, "db", opts(1), &specs).expect("reopen after refusal");
    assert!(db.get("k1").expect("get").is_some());
    assert_eq!(db.put("k6", &doc).expect("put"), 7);
}

#[test]
fn corruption_is_confined_to_the_affected_shard() {
    let fault = FaultEnv::new(MemEnv::new());
    let env: Arc<dyn Env> = fault.clone();
    let opts = || SecondaryDbOptions {
        base: tiny_opts(),
        shards: 2,
        ..Default::default()
    };
    {
        let db = SecondaryDb::open(env.clone(), "db", opts(), &[]).expect("open");
        for i in 0..40i64 {
            let mut doc = Document::new();
            doc.set("A", Value::Int(i));
            db.put(format!("k{i}"), &doc).expect("put");
        }
        db.flush().expect("flush");
    }
    // Truncate a table file in shard 1's primary; shard 0 is untouched.
    let table = env
        .list("db/shard-1")
        .expect("list")
        .into_iter()
        .find(|n| n.ends_with(".ldb"))
        .expect("shard-1 has a flushed table");
    fault
        .truncate_file(&format!("db/shard-1/{table}"), 64)
        .expect("truncate");

    let db = SecondaryDb::open(env, "db", opts(), &[]).expect("reopen");
    // The damage is detected, and every violation is attributed to the
    // shard that holds it.
    let report = db.check_integrity();
    assert!(!report.is_clean(), "truncated table must be detected");
    for v in &report.violations {
        assert!(
            v.detail.starts_with("shard-1"),
            "violation leaked outside shard-1: {v}"
        );
    }
    // Keys routed to the healthy shard keep serving.
    let mut healthy_reads = 0;
    for i in 0..40i64 {
        let pk = format!("k{i}");
        if db.shard_of(&pk) == 0 {
            assert!(
                db.get(&pk).expect("healthy shard must serve").is_some(),
                "lost {pk} on the uncorrupted shard"
            );
            healthy_reads += 1;
        }
    }
    assert!(healthy_reads > 0, "degenerate routing: no keys on shard 0");
}

#[test]
fn writes_route_to_exactly_one_shard() {
    let db = open_with_shards(4, IndexKind::None);
    // Sequence numbers come from the shared clock: N single-threaded puts
    // allocate exactly 1..=N regardless of which shard each lands on.
    for i in 0..50i64 {
        let mut doc = Document::new();
        doc.set("A", Value::Int(i));
        let seq = db.put(format!("k{i}"), &doc).expect("put");
        assert_eq!(seq, (i + 1) as u64);
    }
    // Routing is total and stable, and with 50 keys over 4 shards every
    // shard almost surely holds something.
    let mut per_shard = vec![0usize; db.shard_count()];
    for i in 0..50i64 {
        let s = db.shard_of(format!("k{i}"));
        assert_eq!(s, db.shard_of(format!("k{i}")));
        per_shard[s] += 1;
    }
    assert_eq!(per_shard.iter().sum::<usize>(), 50);
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "degenerate routing: {per_shard:?}"
    );
}
