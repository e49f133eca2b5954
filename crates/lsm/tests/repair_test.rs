//! End-to-end tests for [`ldbpp_lsm::repair_db`]: seed every corruption
//! the mutation catalogue uses (byte flips, truncation, lost MANIFEST /
//! CURRENT, garbage files, torn WALs) into an otherwise-healthy database
//! and assert that repair + reopen yields a structurally clean tree with
//! every record outside the quarantined files still readable.

use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::{Env, FaultEnv, MemEnv};
use ldbpp_lsm::repair::repair_db;
use ldbpp_lsm::version::{current_file_name, table_file_name};
use proptest::prelude::*;
use std::sync::Arc;

const DB: &str = "repairdb";

fn opts() -> DbOptions {
    DbOptions {
        auto_compact: false,
        ..DbOptions::small()
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("key{i:04}").into_bytes()
}

fn val(i: usize) -> Vec<u8> {
    format!("value-{i:04}-{}", "x".repeat(40)).into_bytes()
}

/// Two overlapping L0 files (evens then odds), nothing in the WAL.
fn build(env: Arc<dyn Env>) -> Db {
    let db = Db::open(env, DB, opts()).unwrap();
    for i in (0..40).step_by(2) {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    for i in (1..40).step_by(2) {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    db
}

fn assert_all_readable(db: &Db, n: usize) {
    for i in 0..n {
        assert_eq!(
            db.get(&key(i)).unwrap().as_deref(),
            Some(val(i).as_slice()),
            "key {i} lost"
        );
    }
}

#[test]
fn repair_keeps_index_tree_operations_out_of_the_primary() {
    use ldbpp_lsm::write_batch::{BatchOp, WriteBatch};
    let env: Arc<dyn Env> = MemEnv::new();
    let trees = [(format!("{DB}_idx"), opts())];
    let db = Db::open_with_trees(env.clone(), DB, opts(), &trees).unwrap();
    for i in 0..20 {
        let mut batch = WriteBatch::new();
        batch.put(&key(i), &val(i));
        batch.push(&BatchOp::put(
            1,
            format!("posting{i:04}").as_bytes(),
            &key(i),
        ));
        db.write(&mut batch).unwrap();
    }
    drop(db); // everything still in the shard's one log

    let report = repair_db(&env, DB, &opts()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.wal_index_ops_left, 20);
    // No posting became a record of the primary ...
    let primary = Db::open(env.clone(), DB, opts()).unwrap();
    let mut it = primary.resolved_iter().unwrap();
    it.seek_to_first();
    let mut records = 0;
    while let Some((k, _, _)) = it.next_entry().unwrap() {
        assert!(k.starts_with(b"key"), "{:?}", String::from_utf8_lossy(&k));
        records += 1;
    }
    assert_eq!(records, 20);
    drop(it);
    drop(primary);
    // ... and none was lost: the log stayed, below the repaired MANIFEST's
    // log number, and the next open through the shard feeds the tree.
    let db = Db::open_with_trees(env.clone(), DB, opts(), &trees).unwrap();
    assert_all_readable(&db, 20);
    for i in 0..20 {
        let posting = db.trees()[0].get(format!("posting{i:04}").as_bytes());
        assert_eq!(posting.unwrap(), Some(key(i)), "posting {i} lost");
    }
    assert!(db.check_integrity().is_clean());
}

#[test]
fn repair_of_clean_db_is_lossless() {
    let env: Arc<dyn Env> = MemEnv::new();
    drop(build(env.clone()));
    let report = repair_db(&env, DB, &opts()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.tables_kept, 2);
    assert_eq!(report.entries_recovered, 40);
    let db = Db::open(env, DB, opts()).unwrap();
    assert_all_readable(&db, 40);
    assert!(db.check_integrity().is_clean());
}

#[test]
fn repair_survives_lost_manifest_and_current() {
    let env_impl = MemEnv::new();
    let env: Arc<dyn Env> = env_impl.clone();
    drop(build(env.clone()));
    // Destroy the metadata the repairer is designed to distrust.
    for name in env.list(DB).unwrap() {
        if name.starts_with("MANIFEST-") {
            env.remove(&format!("{DB}/{name}")).unwrap();
        }
    }
    env.remove(&current_file_name(DB)).unwrap();
    let report = repair_db(&env, DB, &opts()).unwrap();
    assert_eq!(report.tables_kept, 2);
    let db = Db::open(env, DB, opts()).unwrap();
    assert_all_readable(&db, 40);
    assert!(db.check_integrity().is_clean());
    let _ = env_impl;
}

#[test]
fn repair_rewrites_table_with_flipped_byte() {
    let base = MemEnv::new();
    let fault = FaultEnv::new(base);
    let env: Arc<dyn Env> = fault.clone();
    let db = build(env.clone());
    let victim = db.current_version().files[0][0].number;
    drop(db);
    // Offset 32 lands in the first data block; with 1 KiB blocks each file
    // has several, so the other blocks' entries survive a rewrite.
    fault.flip_byte(&table_file_name(DB, victim), 32).unwrap();
    let report = repair_db(&env, DB, &opts()).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.tables_kept + report.tables_rewritten, 2);
    assert!(report.corrupt_blocks_skipped >= 1, "{report:?}");
    assert_eq!(
        report.quarantined,
        vec![format!("{victim:06}.ldb")],
        "damaged original must be quarantined, not deleted"
    );
    let db = Db::open(env, DB, opts()).unwrap();
    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
    // Entries outside the corrupt block are still readable.
    let alive = (0..40)
        .filter(|i| db.get(&key(*i)).unwrap().is_some())
        .count();
    assert!(alive >= 20, "only {alive}/40 keys survive");
}

#[test]
fn repair_quarantines_garbage_table() {
    let env: Arc<dyn Env> = MemEnv::new();
    drop(build(env.clone()));
    env.write_all(&format!("{DB}/999999.ldb"), b"not a table at all")
        .unwrap();
    let report = repair_db(&env, DB, &opts()).unwrap();
    assert_eq!(report.tables_kept, 2);
    assert_eq!(report.quarantined, vec!["999999.ldb".to_string()]);
    let db = Db::open(env, DB, opts()).unwrap();
    assert_all_readable(&db, 40);
    assert!(db.check_integrity().is_clean());
}

#[test]
fn repair_converts_orphaned_wal_into_l0_table() {
    let env: Arc<dyn Env> = MemEnv::new();
    let db = build(env.clone());
    // Ten more writes that only exist in the WAL.
    for i in 40..50 {
        db.put(&key(i), &val(i)).unwrap();
    }
    drop(db);
    // Lose the metadata: only the directory scan can find the WAL now.
    for name in env.list(DB).unwrap() {
        if name.starts_with("MANIFEST-") {
            env.remove(&format!("{DB}/{name}")).unwrap();
        }
    }
    env.remove(&current_file_name(DB)).unwrap();
    let report = repair_db(&env, DB, &opts()).unwrap();
    assert!(report.tables_from_wal >= 1, "{report:?}");
    assert!(report.wal_records_recovered >= 10, "{report:?}");
    let db = Db::open(env, DB, opts()).unwrap();
    assert_all_readable(&db, 50);
    assert!(db.check_integrity().is_clean());
}

#[test]
fn repair_resynchronizes_torn_wal() {
    let base = MemEnv::new();
    let fault = FaultEnv::new(base);
    let env: Arc<dyn Env> = fault.clone();
    let db = Db::open(env.clone(), DB, opts()).unwrap();
    for i in 0..20 {
        db.put(&key(i), &val(i)).unwrap();
    }
    drop(db);
    // Flip a byte inside an early WAL record: paranoid recovery would
    // refuse; repair resynchronizes and keeps the later records.
    let log = env
        .list(DB)
        .unwrap()
        .into_iter()
        .find(|n| n.ends_with(".log"))
        .unwrap();
    fault.flip_byte(&format!("{DB}/{log}"), 20).unwrap();
    let report = repair_db(&env, DB, &opts()).unwrap();
    assert!(report.wal_records_salvaged >= 1, "{report:?}");
    assert!(report.wal_bytes_dropped > 0, "{report:?}");
    assert!(
        report.quarantined.contains(&log),
        "torn log must be kept for forensics: {report:?}"
    );
    let db = Db::open(env, DB, opts()).unwrap();
    assert!(db.check_integrity().is_clean());
    // The flip destroys the whole first 32 KiB WAL block (all 20 records
    // fit in it), so nothing is recoverable — but nothing errors either.
    let readable = (0..20)
        .filter(|i| db.get(&key(*i)).unwrap().is_some())
        .count();
    assert!(readable <= 20);
}

#[test]
fn repair_preserves_recency_across_overwrites() {
    let env: Arc<dyn Env> = MemEnv::new();
    let db = Db::open(env.clone(), DB, opts()).unwrap();
    // Same key written in two files; the newer value must win after repair
    // even though repair renumbers the files.
    db.put(b"k", b"old").unwrap();
    db.flush().unwrap();
    db.put(b"k", b"new").unwrap();
    db.flush().unwrap();
    db.delete(b"gone").unwrap();
    db.flush().unwrap();
    drop(db);
    env.remove(&current_file_name(DB)).unwrap();
    let report = repair_db(&env, DB, &opts()).unwrap();
    assert!(report.tables_kept >= 2, "{report:?}");
    let db = Db::open(env, DB, opts()).unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(b"new".as_slice()));
    assert!(db.check_integrity().is_clean());
}

#[test]
fn repair_on_empty_directory_refuses() {
    let env_impl = MemEnv::new();
    let env: Arc<dyn Env> = env_impl;
    let err = repair_db(&env, "nosuchdb", &opts()).unwrap_err();
    assert!(err.to_string().contains("not a database"), "{err}");
}

#[test]
fn repaired_db_accepts_new_writes_without_collisions() {
    let base = MemEnv::new();
    let fault = FaultEnv::new(base);
    let env: Arc<dyn Env> = fault.clone();
    let db = build(env.clone());
    let victim = db.current_version().files[0][0].number;
    drop(db);
    fault.flip_byte(&table_file_name(DB, victim), 32).unwrap();
    let _report = repair_db(&env, DB, &opts()).unwrap();
    let db = Db::open(env.clone(), DB, opts()).unwrap();
    let before = db.last_sequence();
    for i in 100..120 {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    db.major_compact().unwrap();
    assert!(db.last_sequence() > before);
    for i in 100..120 {
        assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(val(i).as_slice()));
    }
    assert!(db.check_integrity().is_clean());
    // And the WAL file name allocated by open must not collide with a
    // renumbered survivor.
    drop(db);
    let db = Db::open(env, DB, opts()).unwrap();
    assert!(db.check_integrity().is_clean());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random byte flips and truncations over every file in a populated
    /// database: repair never errors, the reopened tree is structurally
    /// clean, and every readable value is one the database actually acked.
    #[test]
    fn prop_repair_roundtrip(
        flips in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..6),
        truncate in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        let base = MemEnv::new();
        let fault = FaultEnv::new(base);
        let env: Arc<dyn Env> = fault.clone();
        let db = Db::open(env.clone(), DB, opts()).unwrap();
        for i in 0..60 {
            db.put(&key(i), &val(i)).unwrap();
            if i % 20 == 19 {
                db.flush().unwrap();
            }
        }
        drop(db);
        let names: Vec<String> = env
            .list(DB)
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".ldb") || n.ends_with(".log") || n.starts_with("MANIFEST-"))
            .collect();
        prop_assert!(!names.is_empty());
        for (fsel, osel) in &flips {
            let name = &names[(fsel * names.len() as f64) as usize % names.len()];
            let path = format!("{DB}/{name}");
            let len = env.read_all(&path).unwrap().len();
            if len > 0 {
                let off = (osel * len as f64) as u64 % len as u64;
                fault.flip_byte(&path, off).unwrap();
            }
        }
        let (do_truncate, fsel, ksel) = truncate;
        if do_truncate < 0.5 {
            let name = &names[(fsel * names.len() as f64) as usize % names.len()];
            let path = format!("{DB}/{name}");
            let len = env.read_all(&path).unwrap().len();
            fault.truncate_file(&path, (ksel * len as f64) as u64).unwrap();
        }
        let _report = repair_db(&env, DB, &opts()).unwrap();
        let db = Db::open(env, DB, opts()).unwrap();
        let report = db.check_integrity();
        prop_assert!(report.is_clean(), "{report}");
        // Nothing fabricated: every surviving record matches what was put.
        let mut it = db.resolved_iter().unwrap();
        it.seek_to_first();
        while let Some((k, _seq, v)) = it.next_entry().unwrap() {
            let text = String::from_utf8(k).unwrap();
            let i: usize = text.strip_prefix("key").unwrap().parse().unwrap();
            prop_assert!(i < 60);
            prop_assert_eq!(v, val(i));
        }
    }
}
