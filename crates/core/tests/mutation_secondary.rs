//! Mutation tests for the cross-table invariant: stand-alone index entries
//! must not reference primary keys with no record at all. Seeds ghost
//! entries directly into index tables (behind the facade's back — the
//! write path itself cannot produce one, an entry and its record being one
//! commit) and asserts `check_integrity` reports each with a precise
//! diagnostic — plus clean-database and erased-history-tolerance checks.

use ldbpp_common::coding::put_fixed64;
use ldbpp_common::json::Value;
use ldbpp_core::indexes::{encode_postings, Posting};
use ldbpp_core::{
    CheckCode, Document, IndexKind, IntegrityReport, SecondaryDb, SecondaryDbOptions,
};
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::MemEnv;
use std::sync::Arc;

fn doc(color: &str) -> Document {
    let mut d = Document::new();
    d.set("Color", Value::str(color));
    d
}

fn base() -> DbOptions {
    DbOptions {
        auto_compact: false,
        ..DbOptions::small()
    }
}

fn open(env: &Arc<MemEnv>, kind: IndexKind) -> SecondaryDb {
    let opts = SecondaryDbOptions {
        base: base(),
        ..Default::default()
    };
    SecondaryDb::open(env.clone(), "sdb", opts, &[("Color", kind)]).unwrap()
}

/// Write one raw entry into the closed database's `Color` index table and
/// flush it, as a bug below the facade would.
fn seed_index_entry(env: &Arc<MemEnv>, kind: IndexKind, key: &[u8], value: &[u8]) {
    let opts = DbOptions {
        wal_enabled: false,
        ..kind.table_options(&base()).unwrap()
    };
    let table = Db::open(env.clone(), "sdb_idx_Color", opts).unwrap();
    assert!(table.tree_sequence() > 0, "wrong index directory name");
    if kind == IndexKind::LazyStandalone {
        table.merge(key, value).unwrap();
    } else {
        table.put(key, value).unwrap();
    }
    table.flush().unwrap();
}

/// A database holding one real record (`pk1`, red) plus a seeded index
/// entry, reopened and checked.
fn check_with_seeded_entry(kind: IndexKind, key: &[u8], value: &[u8]) -> IntegrityReport {
    let env = MemEnv::new();
    let db = open(&env, kind);
    db.put("pk1", &doc("red")).unwrap();
    db.flush().unwrap();
    assert!(db.check_integrity().is_clean());
    drop(db);
    seed_index_entry(&env, kind, key, value);
    open(&env, kind).check_integrity()
}

fn dangling_details(report: &IntegrityReport) -> Vec<&str> {
    report
        .violations
        .iter()
        .filter(|v| v.code == CheckCode::DanglingIndexEntry)
        .map(|v| v.detail.as_str())
        .collect()
}

#[test]
fn ghost_posting_in_eager_index_detected() {
    // A posting for a primary key that was never written. Its sequence is
    // beyond anything the primary assigned: no sequence excuses an entry
    // without a record.
    let list = encode_postings(&[
        Posting::insert(b"ghost".to_vec(), 1_000_000),
        Posting::insert(b"pk1".to_vec(), 1),
    ])
    .unwrap();
    let report = check_with_seeded_entry(
        IndexKind::EagerStandalone,
        &AttrValue::str("red").encode(),
        &list,
    );
    let dangling = dangling_details(&report);
    assert_eq!(dangling.len(), 1, "{report}");
    assert!(dangling[0].contains("ghost"), "{report}");
    assert!(dangling[0].contains("Eager index 'Color'"), "{report}");
}

#[test]
fn ghost_posting_in_lazy_index_detected() {
    let fragment = encode_postings(&[Posting::insert(b"ghost".to_vec(), 1_000_000)]).unwrap();
    let report = check_with_seeded_entry(
        IndexKind::LazyStandalone,
        &AttrValue::str("blue").encode(),
        &fragment,
    );
    let dangling = dangling_details(&report);
    assert_eq!(dangling.len(), 1, "{report}");
    assert!(dangling[0].contains("ghost"), "{report}");
    assert!(dangling[0].contains("Lazy index 'Color'"), "{report}");
}

#[test]
fn ghost_entry_in_composite_index_detected() {
    // Forge a composite entry (secondary ‖ pk → seq) by hand.
    let mut key = AttrValue::str("blue").encode_composite();
    key.extend_from_slice(b"ghost");
    let mut seq_bytes = Vec::new();
    put_fixed64(&mut seq_bytes, 1_000_000);
    let report = check_with_seeded_entry(IndexKind::CompositeStandalone, &key, &seq_bytes);
    let dangling = dangling_details(&report);
    assert_eq!(dangling.len(), 1, "{report}");
    assert!(dangling[0].contains("ghost"), "{report}");
    assert!(dangling[0].contains("Composite index 'Color'"), "{report}");
}

#[test]
fn tombstoned_primary_is_not_dangling() {
    // A stale posting whose primary key still carries a tombstone is
    // absorbed by read-time validation, not a violation.
    let env = MemEnv::new();
    let db = open(&env, IndexKind::EagerStandalone);
    db.put("pk1", &doc("red")).unwrap();
    db.put("pk2", &doc("red")).unwrap();
    // Tombstone on the primary alone; the index is not told.
    db.primary().delete(b"pk2").unwrap();

    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
    let hits = db.lookup("Color", &Value::str("red"), None).unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn dangling_check_disarms_after_history_erasure() {
    // Once base-level compaction discards a key's entire history, a stale
    // posting can legitimately reference a pk with no record: the strict
    // cross-check must disarm rather than cry corruption. Nothing here
    // crashes — which is why the `erased_keys` gate outlives the atomic
    // commit.
    let env = MemEnv::new();
    let db = open(&env, IndexKind::EagerStandalone);
    db.put("pk1", &doc("red")).unwrap();
    // Update pk1 red→blue: the red posting goes stale (the write path only
    // touches the new value's list — the paper's lazy-cleanup contract).
    db.put("pk1", &doc("blue")).unwrap();
    // Delete pk1 (the index only cleans the blue list), then compact the
    // tombstone away at the base level.
    db.flush().unwrap();
    db.delete("pk1").unwrap();
    db.flush().unwrap();
    db.primary().major_compact().unwrap();
    assert!(db.primary().erased_keys() > 0);
    assert!(db.primary().newest_record(b"pk1").unwrap().is_none());

    // The red posting for pk1 now dangles — legitimately.
    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn rebuild_hides_a_misfiled_lazy_posting_from_ranges() {
    // A posting filed under the wrong value but carrying its record's
    // sequence passes validation by sequence, and the checker (which looks
    // for dangling entries only) does not see it. `rebuild_indexes`
    // tombstones every list before replaying the primary; a RANGELOOKUP
    // must not read the fragments under that tombstone.
    let env = MemEnv::new();
    let db = open(&env, IndexKind::LazyStandalone);
    let seq = db.put("pk1", &doc("red")).unwrap();
    db.flush().unwrap();
    drop(db);
    let misfiled = encode_postings(&[Posting::insert(b"pk1".to_vec(), seq)]).unwrap();
    seed_index_entry(
        &env,
        IndexKind::LazyStandalone,
        &AttrValue::str("blue").encode(),
        &misfiled,
    );
    let db = open(&env, IndexKind::LazyStandalone);
    let (lo, hi) = (Value::str("a"), Value::str("c"));
    assert_eq!(db.range_lookup("Color", &lo, &hi, None).unwrap().len(), 1);
    db.rebuild_indexes().unwrap();
    assert!(db.range_lookup("Color", &lo, &hi, None).unwrap().is_empty());
    assert!(db
        .lookup("Color", &Value::str("blue"), None)
        .unwrap()
        .is_empty());
    assert_eq!(
        db.lookup("Color", &Value::str("red"), None).unwrap().len(),
        1
    );
}
