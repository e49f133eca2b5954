//! Disk-full ([`ldbpp_common::Error::NoSpace`]) fault injection: a full
//! disk during flush or compaction must leave the database fully readable
//! and surface a clean, retryable error — not a panic, not corruption.

use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::{Env, FaultEnv, FaultErrorKind, FaultOp, FaultPlan, MemEnv};
use std::sync::Arc;

const DB: &str = "fulldb";

fn opts(background: bool) -> DbOptions {
    DbOptions {
        auto_compact: false,
        background_work: background,
        ..DbOptions::small()
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("key{i:04}").into_bytes()
}

fn val(i: usize) -> Vec<u8> {
    format!("value-{i:04}-{}", "x".repeat(40)).into_bytes()
}

/// Fail the next table-file creation with a full disk.
fn no_space_on_next_table(fault: &FaultEnv) {
    fault.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::NewWritable, 0)),
        match_path: Some(".ldb".to_string()),
        error_kind: FaultErrorKind::NoSpace,
        ..Default::default()
    });
}

/// A full disk fails the flush cleanly, and the retry succeeds without
/// leaving the log file the failed attempt froze the memtable under.
#[test]
fn full_disk_during_flush_is_retryable() {
    for background in [false, true] {
        let fault = FaultEnv::new(MemEnv::new());
        let env: Arc<dyn Env> = fault.clone();
        let db = Db::open(env, DB, opts(background)).unwrap();
        for i in 0..20 {
            db.put(&key(i), &val(i)).unwrap();
        }
        // The fault is for the flush `flush()` runs, not a worker's.
        db.wait_for_background_idle().unwrap();
        no_space_on_next_table(&fault);
        let err = db.flush().unwrap_err();
        assert!(err.is_no_space(), "wrong error kind: {err}");
        // Nothing was lost: every write is still served (from memory).
        for i in 0..20 {
            assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(val(i).as_slice()));
        }
        // Space freed: the retry succeeds and the data reaches L0.
        fault.set_plan(FaultPlan::default());
        db.flush().unwrap();
        assert!(!db.current_version().files[0].is_empty());
        for i in 0..20 {
            assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(val(i).as_slice()));
        }
        let mut logs = fault.list(DB).unwrap();
        logs.retain(|f| f.ends_with(".log"));
        assert_eq!(
            logs.len(),
            1,
            "a failed flush leaked a log file (bg: {background}): {logs:?}"
        );
        let report = db.check_integrity();
        assert!(report.is_clean(), "{report}");
    }
}

#[test]
fn full_disk_during_compaction_is_retryable() {
    let fault = FaultEnv::new(MemEnv::new());
    let env: Arc<dyn Env> = fault.clone();
    let db = Db::open(env, DB, opts(false)).unwrap();
    for i in 0..20 {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    for i in 20..40 {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    no_space_on_next_table(&fault);
    let err = db.major_compact().unwrap_err();
    assert!(err.is_no_space(), "wrong error kind: {err}");
    // The input files are untouched; reads keep working.
    for i in 0..40 {
        assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(val(i).as_slice()));
    }
    fault.set_plan(FaultPlan::default());
    db.major_compact().unwrap();
    for i in 0..40 {
        assert_eq!(db.get(&key(i)).unwrap().as_deref(), Some(val(i).as_slice()));
    }
    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn full_disk_on_wal_append_surfaces_no_space() {
    let fault = FaultEnv::new(MemEnv::new());
    let env: Arc<dyn Env> = fault.clone();
    let db = Db::open(env, DB, opts(false)).unwrap();
    db.put(b"before", b"v").unwrap();
    fault.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Append, 0)),
        match_path: Some(".log".to_string()),
        error_kind: FaultErrorKind::NoSpace,
        ..Default::default()
    });
    let err = db.put(b"rejected", b"v").unwrap_err();
    assert!(err.is_no_space(), "wrong error kind: {err}");
    // Data written before the fault stays readable.
    assert_eq!(db.get(b"before").unwrap().as_deref(), Some(b"v".as_slice()));
}
