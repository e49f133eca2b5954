//! The streaming read path against a materialized reference model.
//!
//! Random PUT/DEL/MERGE workloads (with interleaved flushes, so entries
//! scatter across the memtable, L0 and deeper levels) must produce exactly
//! the same keys, sequence numbers and values from the lazy iterator stack
//! as a brute-force `BTreeMap` fold — for full scans, for bounded range
//! scans, and for seek targets that land on keys, between keys (mid-block)
//! and past the end of the store.

use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::merge::ConcatMerge;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn opts() -> DbOptions {
    DbOptions {
        block_size: 512,
        write_buffer_size: 4 << 10,
        max_file_size: 2 << 10,
        base_level_bytes: 16 << 10,
        merge_operator: Some(Arc::new(ConcatMerge)),
        ..DbOptions::small()
    }
}

/// One workload step: 0-1 = put, 2 = delete, 3 = merge, 4 = flush.
type Op = (u8, usize, Vec<u8>);

fn key(i: usize) -> Vec<u8> {
    format!("k{i:02}").into_bytes()
}

/// Replay `ops` into both the engine and the model; returns the model as
/// `key -> (newest_seq, resolved_value)`.
fn replay(db: &Db, ops: &[Op]) -> BTreeMap<Vec<u8>, (u64, Vec<u8>)> {
    let mut model: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
    let mut seq = 0u64;
    for (kind, ki, val) in ops {
        let k = key(*ki);
        match kind {
            0 | 1 => {
                db.put(&k, val).unwrap();
                seq += 1;
                model.insert(k, (seq, val.clone()));
            }
            2 => {
                db.delete(&k).unwrap();
                seq += 1;
                model.remove(&k);
            }
            3 => {
                db.merge(&k, val).unwrap();
                seq += 1;
                // ConcatMerge: operands append onto the base (or nothing).
                let mut folded = model.get(&k).map(|(_, v)| v.clone()).unwrap_or_default();
                folded.extend_from_slice(val);
                model.insert(k, (seq, folded));
            }
            _ => db.flush().unwrap(),
        }
    }
    model
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..5,
            0usize..24,
            "[a-z]{0,6}".prop_map(String::into_bytes),
        ),
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_scan_matches_model(ops in op_strategy()) {
        let db = Db::open_in_memory(opts()).unwrap();
        let model = replay(&db, &ops);
        let mut it = db.resolved_iter().unwrap();
        it.seek_to_first();
        let mut got = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            got.push(e);
        }
        let want: Vec<_> = model
            .iter()
            .map(|(k, (s, v))| (k.clone(), *s, v.clone()))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn seeks_match_model(ops in op_strategy()) {
        let db = Db::open_in_memory(opts()).unwrap();
        let model = replay(&db, &ops);
        // Probe on keys, between keys (suffixed probes sort mid-block,
        // between one key and the next) and past the end of the keyspace.
        let mut probes: Vec<Vec<u8>> = (0..24).map(key).collect();
        probes.extend((0..24).map(|i| {
            let mut p = key(i);
            p.push(b'~');
            p
        }));
        probes.push(b"zzzz".to_vec());
        for probe in probes {
            let mut it = db.resolved_iter().unwrap();
            it.seek(&probe);
            let got = it.next_entry().unwrap();
            let want = model
                .range(probe.clone()..)
                .next()
                .map(|(k, (s, v))| (k.clone(), *s, v.clone()));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn range_scans_match_model(ops in op_strategy()) {
        let db = Db::open_in_memory(opts()).unwrap();
        let model = replay(&db, &ops);
        for (a, b) in [(0usize, 5usize), (3, 3), (7, 20), (0, 23), (21, 23)] {
            let (lo, hi) = (key(a), key(b));
            let mut it = db.range_iter(&lo, &hi).unwrap();
            let mut got = Vec::new();
            while let Some(e) = it.next_entry().unwrap() {
                got.push(e);
            }
            let want: Vec<_> = model
                .range(lo..=hi)
                .map(|(k, (s, v))| (k.clone(), *s, v.clone()))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}

/// The lazy stack's contract: building the source iterators does zero
/// table opens and zero block reads; the first seek opens only what it
/// lands in.
#[test]
fn source_iterators_open_nothing_before_first_seek() {
    use ldbpp_lsm::env::MemEnv;

    let env = MemEnv::new();
    let db = Db::open(env.clone(), "db", opts()).unwrap();
    for i in 0..600 {
        db.put(&key(i % 24), format!("v{i:04}").as_bytes()).unwrap();
        if i % 150 == 149 {
            db.flush().unwrap();
        }
    }
    drop(db);
    // Reopen so the table cache is cold: any table open now is observable.
    let db = Db::open(env, "db", opts()).unwrap();
    assert!(
        db.current_version().files.iter().flatten().count() > 0,
        "need on-disk files for the assertion to mean anything"
    );

    let before = db.stats().snapshot();
    let sources = db.source_iterators().unwrap();
    let built = db.stats().snapshot().since(&before);
    assert_eq!(
        built.table_opens, 0,
        "building the stack must not open tables"
    );
    assert_eq!(
        built.block_reads, 0,
        "building the stack must not read blocks"
    );

    let probe = ldbpp_lsm::ikey::InternalKey::for_seek(b"k10", ldbpp_lsm::ikey::MAX_SEQUENCE);
    let mut opened = false;
    for (_, mut it) in sources {
        it.seek(probe.as_bytes());
        opened = opened || it.valid();
    }
    assert!(opened, "a seek must position at least one source");
    let after = db.stats().snapshot().since(&before);
    assert!(after.table_opens > 0, "the seek itself opens tables lazily");
}

/// A cursor built before a compaction still reads every key after it: the
/// compaction's inputs stay on disk while the cursor's version is alive.
/// (A file deleted under a lazy cursor fails to open, and the cursor ends
/// there without an error — keys silently missing from a scan.)
#[test]
fn a_cursor_outlives_the_compaction_of_its_files() {
    use ldbpp_lsm::env::MemEnv;

    let db = Db::open(
        MemEnv::new(),
        "db",
        DbOptions {
            auto_compact: false,
            ..opts()
        },
    )
    .unwrap();
    for i in 0..600 {
        db.put(&key(i % 24), format!("v{i:04}").as_bytes()).unwrap();
        if i % 150 == 149 {
            db.flush().unwrap();
        }
    }
    let mut it = db.resolved_iter().unwrap();
    db.major_compact().unwrap();
    it.seek_to_first();
    let mut keys = 0;
    while it.next_entry().unwrap().is_some() {
        keys += 1;
    }
    assert_eq!(keys, 24);
}
