//! Mutation tests for the index ≡ primary check: entries seeded directly
//! into index tables (behind the facade's back — the write path itself
//! cannot produce them, an entry and its record being one commit), each
//! of which changes an answer, must be reported as `IndexMismatch` with a
//! diagnostic naming the key, and `heal` must rebuild the index and
//! restore the right answer. Stale entries, which reads drop, must not be
//! reported.

use ldbpp_common::coding::put_fixed64;
use ldbpp_common::json::Value;
use ldbpp_core::indexes::{encode_postings, Posting};
use ldbpp_core::{
    CheckCode, Document, IndexKind, IntegrityReport, LookupHit, SecondaryDb, SecondaryDbOptions,
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

/// Write into the closed database's `Color` index table and flush it, as
/// a bug below the facade would.
fn with_index_table(env: &Arc<MemEnv>, kind: IndexKind, write: impl FnOnce(&Db)) {
    let opts = DbOptions {
        wal_enabled: false,
        ..kind.table_options(&base()).unwrap()
    };
    let table = Db::open(env.clone(), "sdb_idx_Color", opts).unwrap();
    assert!(table.tree_sequence() > 0, "wrong index directory name");
    write(&table);
    table.flush().unwrap();
}

/// Add one raw entry to the closed database's `Color` index table.
fn seed_index_entry(env: &Arc<MemEnv>, kind: IndexKind, key: &[u8], value: &[u8]) {
    with_index_table(env, kind, |table| {
        if kind == IndexKind::LazyStandalone {
            table.merge(key, value).unwrap();
        } else {
            table.put(key, value).unwrap();
        }
    });
}

/// File `pk` at `seq` under `color` in the closed database's index.
fn seed_posting(env: &Arc<MemEnv>, kind: IndexKind, color: &str, pk: &str, seq: u64) {
    let value = AttrValue::str(color);
    if kind == IndexKind::CompositeStandalone {
        let mut seq_bytes = Vec::new();
        put_fixed64(&mut seq_bytes, seq);
        seed_index_entry(env, kind, &composite_key(&value, pk), &seq_bytes);
    } else {
        let list = encode_postings(&[Posting::insert(pk.as_bytes().to_vec(), seq)]).unwrap();
        seed_index_entry(env, kind, &value.encode(), &list);
    }
}

fn composite_key(value: &AttrValue, pk: &str) -> Vec<u8> {
    let mut key = value.encode_composite();
    key.extend_from_slice(pk.as_bytes());
    key
}

fn keys(hits: Vec<LookupHit>) -> Vec<String> {
    hits.into_iter()
        .map(|h| String::from_utf8(h.key).unwrap())
        .collect()
}

fn lookup(db: &SecondaryDb, color: &str) -> Vec<String> {
    keys(db.lookup("Color", &Value::str(color), None).unwrap())
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

fn mismatch_details(report: &IntegrityReport) -> Vec<&str> {
    report
        .violations
        .iter()
        .filter(|v| v.code == CheckCode::IndexMismatch)
        .map(|v| v.detail.as_str())
        .collect()
}

/// Assert `db` reports exactly one mismatch, naming `kind`'s index and
/// containing `needle`; then heal it and assert the rebuild left it clean.
fn assert_one_mismatch_then_heal(db: &SecondaryDb, kind: IndexKind, needle: &str) {
    let report = db.check_integrity();
    let details = mismatch_details(&report);
    assert_eq!(details.len(), 1, "{report}");
    assert!(details[0].contains(needle), "{report}");
    assert!(
        details[0].contains(&format!("{kind} index 'Color'")),
        "{report}"
    );
    let heal = db.heal().unwrap();
    assert!(heal.rebuilt, "{heal:?}");
    assert!(heal.is_clean(), "{heal:?}");
}

#[test]
fn ghost_posting_in_eager_index_detected() {
    // A posting for a primary key that was never written, at a sequence
    // no commit handed out.
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
    let mismatches = mismatch_details(&report);
    assert_eq!(mismatches.len(), 1, "{report}");
    assert!(mismatches[0].contains("ghost"), "{report}");
    assert!(
        mismatches[0].contains("beyond the last sequence"),
        "{report}"
    );
    assert!(mismatches[0].contains("Eager index 'Color'"), "{report}");
}

#[test]
fn ghost_posting_in_lazy_index_detected() {
    let fragment = encode_postings(&[Posting::insert(b"ghost".to_vec(), 1_000_000)]).unwrap();
    let report = check_with_seeded_entry(
        IndexKind::LazyStandalone,
        &AttrValue::str("blue").encode(),
        &fragment,
    );
    let mismatches = mismatch_details(&report);
    assert_eq!(mismatches.len(), 1, "{report}");
    assert!(mismatches[0].contains("ghost"), "{report}");
    assert!(
        mismatches[0].contains("beyond the last sequence"),
        "{report}"
    );
    assert!(mismatches[0].contains("Lazy index 'Color'"), "{report}");
}

#[test]
fn ghost_entry_in_composite_index_detected() {
    // Forge a composite entry (secondary ‖ pk → seq) by hand.
    let key = composite_key(&AttrValue::str("blue"), "ghost");
    let mut seq_bytes = Vec::new();
    put_fixed64(&mut seq_bytes, 1_000_000);
    let report = check_with_seeded_entry(IndexKind::CompositeStandalone, &key, &seq_bytes);
    let mismatches = mismatch_details(&report);
    assert_eq!(mismatches.len(), 1, "{report}");
    assert!(mismatches[0].contains("ghost"), "{report}");
    assert!(
        mismatches[0].contains("beyond the last sequence"),
        "{report}"
    );
    assert!(
        mismatches[0].contains("Composite index 'Color'"),
        "{report}"
    );
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
fn stale_posting_of_an_erased_key_is_clean() {
    // Once base-level compaction discards a key's entire history, a stale
    // posting names a pk with no record at all. Reads drop it like any
    // other stale posting, so it is no violation.
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
    assert!(db.primary().newest_record(b"pk1").unwrap().is_none());

    // The red posting for pk1 now names no record — legitimately.
    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
}

/// An index that lost the entry of a live record: LOOKUP misses the
/// record until `heal` rebuilds the index.
fn lost_entry_is_found_and_healed(kind: IndexKind) {
    let env = MemEnv::new();
    let db = open(&env, kind);
    db.put("pk1", &doc("red")).unwrap();
    let seq2 = db.put("pk2", &doc("red")).unwrap();
    db.flush().unwrap();
    drop(db);
    let red = AttrValue::str("red");
    with_index_table(&env, kind, |table| {
        let list = encode_postings(&[Posting::insert(b"pk2".to_vec(), seq2)]).unwrap();
        let _ = match kind {
            IndexKind::CompositeStandalone => table.delete(&composite_key(&red, "pk1")),
            IndexKind::EagerStandalone => table.put(&red.encode(), &list),
            // Cut the fragment chain, as a rebuild does, then re-add pk2.
            _ => table
                .delete(&red.encode())
                .and_then(|_| table.merge(&red.encode(), &list)),
        }
        .unwrap();
    });
    let db = open(&env, kind);
    assert_eq!(lookup(&db, "red"), ["pk2"]);
    assert_one_mismatch_then_heal(&db, kind, "record \"pk1\"");
    assert_eq!(lookup(&db, "red"), ["pk2", "pk1"]);
}

#[test]
fn lost_eager_entry_is_found_and_healed() {
    lost_entry_is_found_and_healed(IndexKind::EagerStandalone);
}

#[test]
fn lost_lazy_entry_is_found_and_healed() {
    lost_entry_is_found_and_healed(IndexKind::LazyStandalone);
}

#[test]
fn lost_composite_entry_is_found_and_healed() {
    lost_entry_is_found_and_healed(IndexKind::CompositeStandalone);
}

/// A posting filed under another value, carrying its record's sequence:
/// it passes validation by sequence, so LOOKUP returns the record for the
/// wrong value until `heal` rebuilds the index.
fn misfiled_posting_is_found_and_healed(kind: IndexKind) {
    let env = MemEnv::new();
    let db = open(&env, kind);
    let seq = db.put("pk1", &doc("red")).unwrap();
    db.flush().unwrap();
    drop(db);
    seed_posting(&env, kind, "blue", "pk1", seq);
    let db = open(&env, kind);
    assert_eq!(lookup(&db, "blue"), ["pk1"]);
    assert_one_mismatch_then_heal(&db, kind, "is current, but the record holds");
    assert!(lookup(&db, "blue").is_empty());
    assert_eq!(lookup(&db, "red"), ["pk1"]);
}

#[test]
fn misfiled_eager_posting_is_found_and_healed() {
    misfiled_posting_is_found_and_healed(IndexKind::EagerStandalone);
}

#[test]
fn misfiled_lazy_posting_is_found_and_healed() {
    misfiled_posting_is_found_and_healed(IndexKind::LazyStandalone);
}

#[test]
fn misfiled_composite_posting_is_found_and_healed() {
    misfiled_posting_is_found_and_healed(IndexKind::CompositeStandalone);
}

#[test]
fn a_posting_newer_than_its_record_is_found_and_healed() {
    // A RANGELOOKUP decides a key by its newest posting: one above the
    // record's own sequence hides the record from any range spanning both
    // values.
    let env = MemEnv::new();
    let kind = IndexKind::LazyStandalone;
    let db = open(&env, kind);
    db.put("pk1", &doc("red")).unwrap();
    let seq2 = db.put("pk2", &doc("red")).unwrap();
    db.flush().unwrap();
    drop(db);
    seed_posting(&env, kind, "blue", "pk1", seq2);
    let db = open(&env, kind);
    let range = |db: &SecondaryDb| {
        let (lo, hi) = (Value::str("a"), Value::str("z"));
        keys(db.range_lookup("Color", &lo, &hi, None).unwrap())
    };
    assert_eq!(range(&db), ["pk2"]);
    assert_one_mismatch_then_heal(&db, kind, "is not older than its record");
    assert_eq!(range(&db), ["pk2", "pk1"]);
}

#[test]
fn rebuild_hides_a_misfiled_lazy_posting_from_ranges() {
    // A posting filed under the wrong value but carrying its record's
    // sequence passes validation by sequence. `rebuild_indexes` tombstones
    // every list before replaying the primary; a RANGELOOKUP must not read
    // the fragments under that tombstone.
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
    assert!(db.check_integrity().has(CheckCode::IndexMismatch));
    db.rebuild_indexes().unwrap();
    assert!(db.range_lookup("Color", &lo, &hi, None).unwrap().is_empty());
    assert!(db.check_integrity().is_clean());
    assert!(db
        .lookup("Color", &Value::str("blue"), None)
        .unwrap()
        .is_empty());
    assert_eq!(
        db.lookup("Color", &Value::str("red"), None).unwrap().len(),
        1
    );
}
