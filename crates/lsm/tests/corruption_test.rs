//! Fault-injection: corrupted files must surface as `Corruption` errors
//! (or be safely truncated, for WAL tails) — never as panics or silent
//! wrong answers.

use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::{Env, MemEnv};

fn tiny_opts() -> DbOptions {
    DbOptions {
        block_size: 512,
        write_buffer_size: 4 << 10,
        max_file_size: 2 << 10,
        base_level_bytes: 16 << 10,
        ..DbOptions::small()
    }
}

fn k(i: usize) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn load(env: &std::sync::Arc<MemEnv>, n: usize) {
    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    for i in 0..n {
        db.put(&k(i), format!("value-{i}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
}

fn table_files(env: &MemEnv) -> Vec<String> {
    env.list("db")
        .unwrap()
        .into_iter()
        .filter(|f| f.ends_with(".ldb"))
        .map(|f| format!("db/{f}"))
        .collect()
}

#[test]
fn flipped_data_block_byte_is_detected() {
    let env = MemEnv::new();
    load(&env, 2000);
    // Corrupt one byte near the front (a data block) of every table.
    for path in table_files(&env) {
        let mut data = env.read_all(&path).unwrap();
        data[10] ^= 0xff;
        env.write_all(&path, &data).unwrap();
    }
    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    let mut errors = 0;
    let mut wrong = 0;
    for i in 0..2000 {
        match db.get(&k(i)) {
            Err(e) => {
                assert!(e.is_corruption(), "unexpected error kind: {e}");
                errors += 1;
            }
            Ok(Some(v)) => {
                if v != format!("value-{i}").as_bytes() {
                    wrong += 1;
                }
            }
            Ok(None) => wrong += 1,
        }
    }
    assert!(errors > 0, "corruption must be detected somewhere");
    assert_eq!(wrong, 0, "no silent wrong answers allowed");
}

#[test]
fn truncated_table_footer_fails_open_cleanly() {
    let env = MemEnv::new();
    load(&env, 500);
    for path in table_files(&env) {
        let data = env.read_all(&path).unwrap();
        env.write_all(&path, &data[..data.len() - 8]).unwrap();
    }
    // Reads reach the corrupted footer and report corruption.
    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    let mut saw_error = false;
    for i in 0..500 {
        if let Err(e) = db.get(&k(i)) {
            assert!(e.is_corruption() || e.is_not_found(), "{e}");
            saw_error = true;
        }
    }
    assert!(saw_error);
}

#[test]
fn corrupt_manifest_fails_open() {
    let env = MemEnv::new();
    load(&env, 300);
    let manifest = env
        .list("db")
        .unwrap()
        .into_iter()
        .find(|f| f.starts_with("MANIFEST"))
        .unwrap();
    let path = format!("db/{manifest}");
    let mut data = env.read_all(&path).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0xff;
    env.write_all(&path, &data).unwrap();
    assert!(Db::open(env.clone(), "db", tiny_opts()).is_err());
}

#[test]
fn wal_tail_truncation_recovers_prefix() {
    let env = MemEnv::new();
    {
        let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.put(b"c", b"3").unwrap();
    }
    // Chop the WAL mid-record (simulated crash during the last write).
    let log = env
        .list("db")
        .unwrap()
        .into_iter()
        .rfind(|f| f.ends_with(".log"))
        .unwrap();
    let path = format!("db/{log}");
    let data = env.read_all(&path).unwrap();
    env.write_all(&path, &data[..data.len() - 3]).unwrap();

    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    assert_eq!(db.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
    // The torn last record is gone, not garbled.
    assert_eq!(db.get(b"c").unwrap(), None);
    // And the store remains writable.
    db.put(b"c", b"3-again").unwrap();
    assert_eq!(db.get(b"c").unwrap().as_deref(), Some(&b"3-again"[..]));
}

#[test]
fn missing_current_creates_fresh_db() {
    let env = MemEnv::new();
    load(&env, 100);
    env.remove("db/CURRENT").unwrap();
    // Without CURRENT the engine treats the directory as a new database
    // (LevelDB semantics without paranoid checks).
    let db = Db::open(env.clone(), "db", tiny_opts()).unwrap();
    assert_eq!(db.get(&k(1)).unwrap(), None);
    db.put(b"fresh", b"start").unwrap();
    assert_eq!(db.get(b"fresh").unwrap().as_deref(), Some(&b"start"[..]));
}

/// Every key a full scan yields, or the error that ended it.
fn scan_keys(db: &Db) -> ldbpp_common::Result<Vec<Vec<u8>>> {
    let mut it = db.resolved_iter()?;
    it.seek_to_first();
    let mut keys = Vec::new();
    while let Some((key, _, _)) = it.next_entry()? {
        keys.push(key);
    }
    Ok(keys)
}

#[test]
fn scans_and_compactions_fail_on_a_corrupt_block() {
    // One byte flipped a third of the way into a table. GET fails on the
    // damaged block's keys; a scan and a compaction read the same block
    // and must fail as well, not end short — a compaction that went on
    // would drop records for good. Permissive mode skips the block in a
    // scan, as it does in a GET, and counts it.
    let env = MemEnv::new();
    let opts = DbOptions {
        auto_compact: false,
        ..DbOptions::small()
    };
    {
        let db = Db::open(env.clone(), "db", opts.clone()).unwrap();
        for i in 0..600 {
            db.put(&k(i), format!("value-{i}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
    }
    let path = table_files(&env).into_iter().max().unwrap();
    let mut data = env.read_all(&path).unwrap();
    let at = data.len() / 3;
    data[at] ^= 0xff;
    env.write_all(&path, &data).unwrap();

    let db = Db::open(env.clone(), "db", opts.clone()).unwrap();
    let readable: Vec<Vec<u8>> = (0..600).map(k).filter(|key| db.get(key).is_ok()).collect();
    assert!(readable.len() < 600, "the flip damaged no block");
    assert!(matches!(scan_keys(&db), Err(e) if e.is_corruption()));
    assert!(matches!(db.major_compact(), Err(e) if e.is_corruption()));
    assert!(readable.iter().all(|key| db.get(key).unwrap().is_some()));
    drop(db);

    let db = Db::open(env.clone(), "db", opts.clone()).unwrap();
    assert!(!db.check_integrity().is_clean());
    drop(db);

    let permissive = DbOptions {
        paranoid_checks: false,
        ..opts
    };
    let db = Db::open(env, "db", permissive).unwrap();
    let scanned = scan_keys(&db).unwrap();
    assert!(
        scanned == readable,
        "{} scanned, {} readable",
        scanned.len(),
        readable.len()
    );
    assert!(db.stats().snapshot().corrupt_blocks_skipped > 0);
}
