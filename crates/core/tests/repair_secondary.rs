//! Self-healing round trip for the full facade: corrupt a populated
//! [`SecondaryDb`] (primary and index tables alike), run
//! [`ldbpp_lsm::repair_db`] over every table directory, reopen, and
//! [`SecondaryDb::heal`] — every surviving record must be readable via GET
//! *and* via all five lookup techniques, and `check_integrity` must end
//! clean.

use ldbpp_common::json::Value;
use ldbpp_core::indexes::{encode_postings, Posting};
use ldbpp_core::{Document, IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::{Env, FaultEnv, MemEnv};
use ldbpp_lsm::repair::repair_db;
use std::collections::BTreeSet;
use std::sync::Arc;

const DB: &str = "sdb";
const SPECS: &[(&str, IndexKind)] = &[
    ("Embed", IndexKind::Embedded),
    ("Eager", IndexKind::EagerStandalone),
    ("Lazy", IndexKind::LazyStandalone),
    ("Comp", IndexKind::CompositeStandalone),
    ("Plain", IndexKind::None),
];
/// The stand-alone index table directories, named by [`SecondaryDb::open`].
const INDEX_DIRS: &[&str] = &["sdb_idx_Eager", "sdb_idx_Lazy", "sdb_idx_Comp"];

fn base_opts() -> DbOptions {
    DbOptions {
        auto_compact: false,
        ..DbOptions::small()
    }
}

fn open(env: Arc<dyn Env>) -> SecondaryDb {
    SecondaryDb::open(
        env,
        DB,
        SecondaryDbOptions {
            base: base_opts(),
            ..Default::default()
        },
        SPECS,
    )
    .unwrap()
}

fn pk(i: usize) -> String {
    format!("pk{i:03}")
}

fn group(i: usize) -> String {
    format!("g{}", i % 4)
}

fn doc(i: usize) -> Document {
    let mut d = Document::new();
    for attr in ["Embed", "Eager", "Lazy", "Comp", "Plain"] {
        d.set(attr, Value::str(group(i)));
    }
    d.set("N", Value::Int(i as i64));
    d
}

/// Populate 40 records across 4 groups and flush everything to tables.
fn populate(db: &SecondaryDb) {
    for i in 0..40 {
        db.put(pk(i), &doc(i)).unwrap();
    }
    db.flush().unwrap();
}

/// Repair the primary directory and every stand-alone index directory.
fn repair_all(env: &Arc<dyn Env>) {
    // The primary's table format includes the Embedded attribute's
    // per-block metadata, which rewrites must regenerate.
    let primary_opts = DbOptions {
        indexed_attrs: vec!["Embed".to_string()],
        extractor: Some(Arc::new(ldbpp_core::JsonAttrExtractor)),
        ..base_opts()
    };
    let _ = repair_db(env, DB, &primary_opts).unwrap();
    for dir in INDEX_DIRS {
        let _ = repair_db(env, dir, &base_opts()).unwrap();
    }
}

/// Every record the repaired primary still holds must be reachable through
/// GET and through each of the five techniques (four indexes + full scan).
fn assert_survivors_fully_readable(db: &SecondaryDb) {
    let survivors: Vec<usize> = (0..40)
        .filter(|i| db.get(pk(*i)).unwrap().is_some())
        .collect();
    assert!(!survivors.is_empty(), "repair lost everything");
    for g in 0..4 {
        let expect: BTreeSet<String> = survivors
            .iter()
            .filter(|i| *i % 4 == g)
            .map(|i| pk(*i))
            .collect();
        for attr in ["Embed", "Eager", "Lazy", "Comp", "Plain"] {
            let hits = db
                .lookup(attr, &Value::str(format!("g{g}")), None)
                .unwrap_or_else(|e| panic!("{attr} lookup failed: {e}"));
            let got: BTreeSet<String> = hits
                .iter()
                .map(|h| String::from_utf8(h.key.clone()).unwrap())
                .collect();
            assert_eq!(
                got, expect,
                "{attr} lookup for g{g} disagrees with the primary"
            );
        }
    }
}

#[test]
fn heal_is_a_noop_on_a_clean_database() {
    let env: Arc<dyn Env> = MemEnv::new();
    let db = open(env);
    populate(&db);
    let report = db.heal().unwrap();
    assert!(!report.rebuilt, "{report:?}");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.replayed, 0);
    assert_survivors_fully_readable(&db);
}

#[test]
fn heal_after_primary_corruption_and_repair() {
    let fault = FaultEnv::new(MemEnv::new());
    let env: Arc<dyn Env> = fault.clone();
    drop({
        let db = open(env.clone());
        populate(&db);
        db
    });
    // Bit rot inside a primary data block: some records die with it, and
    // every stand-alone index now holds postings for the dead.
    let table = env
        .list(DB)
        .unwrap()
        .into_iter()
        .find(|n| n.ends_with(".ldb"))
        .unwrap();
    fault.flip_byte(&format!("{DB}/{table}"), 32).unwrap();

    repair_all(&env);
    let db = open(env);
    let heal = db.heal().unwrap();
    assert!(
        heal.rebuilt,
        "dangling postings must force a rebuild: {heal:?}"
    );
    assert!(heal.is_clean(), "{heal:?}");
    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
    assert_survivors_fully_readable(&db);
}

#[test]
fn heal_after_index_corruption_and_repair() {
    let fault = FaultEnv::new(MemEnv::new());
    let env: Arc<dyn Env> = fault.clone();
    drop({
        let db = open(env.clone());
        populate(&db);
        db
    });
    // Seed a ghost posting the way a write-path bug would, then damage the
    // index table with bit rot (the primary stays intact throughout).
    {
        let table_opts = DbOptions {
            wal_enabled: false,
            ..base_opts()
        };
        let table = Db::open(env.clone(), "sdb_idx_Eager", table_opts).unwrap();
        let key = ldbpp_lsm::attr::AttrValue::str("g0").encode();
        let mut list =
            ldbpp_core::indexes::decode_postings(&table.get(&key).unwrap().unwrap()).unwrap();
        list.insert(0, Posting::insert(b"ghost".to_vec(), 1));
        table.put(&key, &encode_postings(&list).unwrap()).unwrap();
        table.flush().unwrap();
    }
    let eager_table = env
        .list("sdb_idx_Eager")
        .unwrap()
        .into_iter()
        .find(|n| n.ends_with(".ldb"))
        .unwrap();
    fault
        .flip_byte(&format!("sdb_idx_Eager/{eager_table}"), 32)
        .unwrap();

    repair_all(&env);
    let db = open(env);
    let heal = db.heal().unwrap();
    assert!(heal.rebuilt, "{heal:?}");
    assert!(heal.is_clean(), "{heal:?}");
    assert_eq!(heal.replayed, 40, "all records replay into the indexes");
    assert_survivors_fully_readable(&db);
    // The ghost is gone from the rebuilt index, not just filtered at read
    // time.
    let hits = db.lookup("Eager", &Value::str("g0"), None).unwrap();
    assert!(hits.iter().all(|h| h.key != b"ghost"));
}

#[test]
fn heal_after_the_primarys_newest_tables_are_lost() {
    // The primary loses its newest tables and its MANIFEST, so repair
    // brings it back with a last sequence below entries its index trees
    // flushed. Commits after the reopen must still draw sequences past
    // those entries: the rebuild's tombstones have to sort above the
    // stale index entries they shadow.
    let env: Arc<dyn Env> = MemEnv::new();
    let tables = |env: &Arc<dyn Env>| -> BTreeSet<String> {
        let names = env.list(DB).unwrap().into_iter();
        names.filter(|n| n.ends_with(".ldb")).collect()
    };
    let old = {
        let db = open(env.clone());
        populate(&db);
        let old = tables(&env);
        for i in 40..80 {
            db.put(pk(i), &doc(i)).unwrap();
        }
        db.flush().unwrap();
        old
    };
    for name in env.list(DB).unwrap() {
        let newer_table = name.ends_with(".ldb") && !old.contains(&name);
        if newer_table || name.starts_with("MANIFEST-") {
            env.remove(&format!("{DB}/{name}")).unwrap();
        }
    }

    repair_all(&env);
    let db = open(env);
    assert!((40..80).all(|i| db.get(pk(i)).unwrap().is_none()));
    let heal = db.heal().unwrap();
    assert!(heal.rebuilt, "{heal:?}");
    assert!(heal.is_clean(), "{heal:?}");
    // Compaction orders a tree's entries by sequence alone: a tombstone
    // that drew a sequence below a stale entry's would lose to it here.
    db.flush().unwrap();
    for tree in db.primary().trees() {
        tree.major_compact().unwrap();
    }
    let report = db.check_integrity();
    assert!(report.is_clean(), "{report}");
    assert_survivors_fully_readable(&db);
}
