//! One commit log for several LSM trees (`Db::open_with_trees`): a batch
//! that spans trees is one WAL record and one sync, visible in every tree
//! at once; recovery replays the one log into every tree exactly once,
//! whatever the order of flushes and crashes; a log file outlives every
//! tree that still needs it.
//!
//! The fed tree folds its operands with [`ConcatMerge`], which is not
//! idempotent: an operand replayed twice shows up twice in the value.

use ldbpp_common::{Error, Result};
use ldbpp_lsm::db::{CommitView, Db, DbOptions, DeriveOps};
use ldbpp_lsm::env::{Env, FaultEnv, MemEnv};
use ldbpp_lsm::merge::ConcatMerge;
use ldbpp_lsm::write_batch::{BatchOp, WriteBatch};
use std::sync::{Arc, Barrier};

const PRIMARY: &str = "db";
const TREE: &str = "db_idx";

fn opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 2 << 10,
        max_file_size: 1 << 10,
        l0_compaction_trigger: 2,
        ..DbOptions::small()
    }
}

fn tree_opts() -> DbOptions {
    DbOptions {
        merge_operator: Some(Arc::new(ConcatMerge)),
        ..opts()
    }
}

fn open(env: Arc<dyn Env>) -> Db {
    Db::open_with_trees(env, PRIMARY, opts(), &[(TREE.to_string(), tree_opts())]).unwrap()
}

fn key(i: usize) -> Vec<u8> {
    format!("key{:02}", i % 7).into_bytes()
}

fn operand(i: usize) -> Vec<u8> {
    format!("+{i:03}").into_bytes()
}

/// `PUT key(i)` in the primary and a merge of `operand(i)` onto `acc` and
/// onto `key(i)` in the fed tree: one batch.
fn write(db: &Db, i: usize) -> u64 {
    let mut batch = WriteBatch::new();
    batch.put(&key(i), &operand(i));
    batch.push(&BatchOp::merge(1, b"acc", &operand(i)));
    batch.push(&BatchOp::merge(1, &key(i), &operand(i)));
    db.write(&mut batch).unwrap()
}

/// What `0..n` writes must have left in both trees: each operand once.
fn assert_holds_exactly(db: &Db, n: usize, context: &str) {
    let tree = &db.trees()[0];
    let acc: Vec<u8> = (0..n).flat_map(operand).collect();
    assert_eq!(
        tree.get(b"acc").unwrap().unwrap_or_default(),
        acc,
        "{context}: accumulator"
    );
    for k in 0..7.min(n) {
        let per_key: Vec<u8> = (k..n).step_by(7).flat_map(operand).collect();
        assert_eq!(tree.get(&key(k)).unwrap().unwrap(), per_key, "{context}");
        let newest = (k..n).step_by(7).next_back().unwrap();
        assert_eq!(
            db.get(&key(k)).unwrap().unwrap(),
            operand(newest),
            "{context}"
        );
    }
}

fn log_files(env: &Arc<MemEnv>, dir: &str) -> Vec<String> {
    let mut logs: Vec<String> = env
        .list(dir)
        .unwrap()
        .into_iter()
        .filter(|f| f.ends_with(".log"))
        .collect();
    logs.sort();
    logs
}

#[test]
fn a_batch_spanning_trees_is_one_record_one_sync_one_sequence_range() {
    let env = MemEnv::new();
    let db = Db::open_with_trees(
        env.clone(),
        PRIMARY,
        DbOptions {
            wal_sync: true,
            ..opts()
        },
        &[(TREE.to_string(), tree_opts())],
    )
    .unwrap();
    let tree = &db.trees()[0];
    for i in 0..10 {
        // Three operations, three sequence numbers, whatever their trees.
        assert_eq!(write(&db, i), 3 * i as u64 + 1);
    }
    let (own, fed) = (db.stats().snapshot(), tree.stats().snapshot());
    assert_eq!((own.wal_syncs, fed.wal_syncs), (10, 0));
    assert_eq!(own.group_commits, 10);
    // The fed tree is charged the bytes of its own operations; the
    // record header stays with the log's owner.
    assert_eq!(own.wal_bytes_written, 10 * (12 + (1 + 1 + 5 + 1 + 4)));
    assert_eq!(
        fed.wal_bytes_written,
        10 * ((1 + 1 + 1 + 3 + 1 + 4) + (1 + 1 + 1 + 5 + 1 + 4))
    );
    assert_eq!((db.last_sequence(), tree.last_sequence()), (30, 30));
    assert_eq!((db.tree_sequence(), tree.tree_sequence()), (30, 30));
    assert!(log_files(&env, TREE).is_empty(), "a fed tree has no log");
    assert_holds_exactly(&db, 10, "live");

    // A fed tree takes no writes of its own, and a batch cannot name a
    // tree the shard does not have.
    assert!(tree.put(b"k", b"v").is_err());
    let mut batch = WriteBatch::new();
    batch.push(&BatchOp::put(2, b"k", b"v"));
    assert!(db.write(&mut batch).is_err());
    assert_eq!(db.last_sequence(), 30, "a refused batch mutates nothing");
}

/// Read-modify-write of one fed-tree key, derived inside the commit.
struct Tally;

impl DeriveOps for Tally {
    fn derive(
        &self,
        view: &CommitView<'_>,
        seq: u64,
        op: &BatchOp,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        let mut seen = view.get(1, b"tally")?.unwrap_or_default();
        seen.extend_from_slice(&op.key);
        out.push(BatchOp::put(1, b"tally", &seen));
        out.push(BatchOp::put(1, &op.key, &seq.to_be_bytes()));
        Ok(())
    }
}

#[test]
fn derived_operations_see_their_group_and_share_their_sources_sequence() {
    let db = Arc::new(open(MemEnv::new()));
    let tree = &db.trees()[0];
    const WRITERS: usize = 4;
    const EACH: usize = 100;
    let start = Barrier::new(WRITERS);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (db, start) = (Arc::clone(&db), &start);
            s.spawn(move || {
                start.wait();
                for i in 0..EACH {
                    let mut batch = WriteBatch::new();
                    let key = format!("{w}{i:03}");
                    batch.put(key.as_bytes(), b"v");
                    let seq = db.write_derived(&mut batch, Arc::new(Tally)).unwrap();
                    // The derived entry sits at the record's own sequence.
                    let entry = db.trees()[0].get(key.as_bytes()).unwrap().unwrap();
                    assert_eq!(entry, seq.to_be_bytes());
                }
            });
        }
    });
    // One sequence number per batch: derived operations take none.
    assert_eq!(db.last_sequence(), (WRITERS * EACH) as u64);
    // Whichever batches shared a group, every read-modify-write saw the
    // one before it: no key is missing from the tally.
    let tally = tree.get(b"tally").unwrap().unwrap();
    assert_eq!(tally.len(), WRITERS * EACH * 4);
    for w in 0..WRITERS {
        for i in 0..EACH {
            let key = format!("{w}{i:03}");
            assert!(tally.chunks(4).any(|c| c == key.as_bytes()), "{key} lost");
        }
    }
}

/// Primary-only writes of more than one `write_buffer_size`: the primary's
/// memtable fills, flushes and rotates the log; no fed tree is touched.
fn pad(db: &Db, round: usize) {
    for i in 0..8 {
        db.put(format!("pad{round}-{i}").as_bytes(), &[0u8; 400])
            .unwrap();
    }
}

#[test]
fn a_log_file_outlives_every_tree_that_still_needs_it() {
    let env = MemEnv::new();
    let db = open(env.clone());
    for i in 0..5 {
        write(&db, i);
    }
    let before = log_files(&env, PRIMARY);
    assert_eq!(before.len(), 1);
    // The primary rotates the log, but the fed tree still has the old
    // file's operations in memory only.
    pad(&db, 0);
    let after_primary = log_files(&env, PRIMARY);
    assert_eq!(after_primary.len(), 2, "{after_primary:?}");
    assert!(after_primary.contains(&before[0]));
    drop(db);

    // "Crash" here: the old file feeds the fed tree alone — the primary
    // holds its records in L0 already and must not take them twice.
    let db = open(env.deep_clone());
    assert_holds_exactly(&db, 5, "reopen after primary-only flush");
    drop(db);

    let db = open(env.clone());
    assert_eq!(
        log_files(&env, PRIMARY).len(),
        1,
        "recovery flushed every tree"
    );
    for i in 5..9 {
        write(&db, i);
    }
    pad(&db, 1);
    assert_eq!(log_files(&env, PRIMARY).len(), 2);
    db.flush().unwrap();
    assert_eq!(
        log_files(&env, PRIMARY).len(),
        1,
        "a flush of the shard releases the rotated file"
    );
    assert_holds_exactly(&db, 9, "live");
}

#[test]
fn a_slow_tree_does_not_hold_log_files_without_bound() {
    for background_work in [false, true] {
        let env = MemEnv::new();
        let with = |o: DbOptions| DbOptions {
            background_work,
            ..o
        };
        let trees = [(TREE.to_string(), with(tree_opts()))];
        let db = Db::open_with_trees(env.clone(), PRIMARY, with(opts()), &trees).unwrap();
        // One operation in the fed tree, then primary-only traffic: the
        // tree's memtable never fills, and every log file since waits for it.
        write(&db, 0);
        let mut most = 0;
        for round in 0..60 {
            pad(&db, round);
            db.wait_for_background_idle().unwrap();
            most = most.max(log_files(&env, PRIMARY).len());
        }
        // Four closed files per tree of the shard, one being closed, one open.
        assert!(
            most <= 4 * 2 + 2,
            "{most} log files (bg: {background_work})"
        );
        assert_eq!(db.trees()[0].stats().snapshot().flushes, 1);
        assert_holds_exactly(&db, 1, "live");
        drop(db);
        let db = Db::open_with_trees(env.clone(), PRIMARY, with(opts()), &trees).unwrap();
        assert_holds_exactly(&db, 1, "reopened");
    }
}

#[test]
fn the_trees_of_a_shard_may_be_reordered_and_extended_between_opens() {
    const OTHER: &str = "db_other";
    let env = MemEnv::new();
    let both = |first: &str, second: &str| {
        let trees = [first, second].map(|t| (t.to_string(), tree_opts()));
        Db::open_with_trees(env.clone(), PRIMARY, opts(), &trees).unwrap()
    };
    let db = open(env.clone());
    for i in 0..20 {
        write(&db, i);
    }
    drop(db); // nothing flushed: every operation is in the log alone

    // TREE was tree 1 of the log being replayed and is tree 2 of this open.
    let db = both(OTHER, TREE);
    assert_eq!(db.trees()[0].tree_sequence(), 0, "{OTHER} took {TREE}'s");
    let holds = |db: &Db, at: usize| {
        let acc: Vec<u8> = (0..20).flat_map(operand).collect();
        assert_eq!(db.trees()[at].get(b"acc").unwrap().unwrap(), acc);
        assert_eq!(db.trees()[1 - at].get(b"acc").unwrap(), None);
        assert_eq!(db.trees()[1 - at].get(b"new").unwrap().unwrap(), b"+++");
    };
    let mut batch = WriteBatch::new();
    batch.push(&BatchOp::merge(1, b"new", b"+++"));
    db.write(&mut batch).unwrap();
    holds(&db, 1);
    drop(db);

    // Without OTHER its operation stays in the log, for the open that
    // brings it back — in whichever position.
    assert_eq!(open(env.clone()).trees()[0].get(b"new").unwrap(), None);
    assert!(log_files(&env, PRIMARY).len() > 1);
    holds(&both(TREE, OTHER), 0);
    assert_eq!(log_files(&env, PRIMARY).len(), 1);
    holds(&both(OTHER, TREE), 1);
}

#[test]
fn recovery_applies_each_operation_to_each_tree_exactly_once() {
    // Flushes of either tree at arbitrary points, then a crash (no clean
    // shutdown), then a crash at every operation of the recovering open —
    // including the fed tree's recovery flush, which commits the tree's
    // own progress before the primary's MANIFEST knows — then a clean open.
    let env = MemEnv::new();
    let db = open(env.clone());
    const N: usize = 60;
    for i in 0..N {
        write(&db, i);
        match i {
            9 | 31 => db.flush().unwrap(),
            17 | 44 => db.trees()[0].flush().unwrap(),
            _ => {}
        }
    }
    drop(db);

    let probe = FaultEnv::new(env.deep_clone());
    assert_holds_exactly(&open(probe.clone()), N, "uninterrupted recovery");
    let open_ops = probe.op_count();
    assert!(
        open_ops > 10,
        "recovery too small to sweep ({open_ops} ops)"
    );
    for k in 0..open_ops {
        let image = env.deep_clone();
        let fenv = FaultEnv::new(image.clone());
        fenv.set_crash_point(k);
        drop(Db::open_with_trees(
            fenv,
            PRIMARY,
            opts(),
            &[(TREE.to_string(), tree_opts())],
        ));
        let db = open(image.deep_clone());
        assert_holds_exactly(
            &db,
            N,
            &format!("after recovery crash at op {k}/{open_ops}"),
        );
        assert!(db.check_integrity().is_clean());
        assert!(db.trees()[0].check_integrity().is_clean());
    }
}

#[test]
fn an_open_without_the_trees_keeps_their_operations_in_the_log() {
    let env = MemEnv::new();
    let db = open(env.clone());
    for i in 0..6 {
        write(&db, i);
    }
    drop(db);
    // A tool opens the primary's directory alone: it recovers the primary
    // and must leave the log for the tree it does not know.
    let alone = Db::open(env.clone(), PRIMARY, opts()).unwrap();
    assert_eq!(alone.get(&key(5)).unwrap().unwrap(), operand(5));
    alone.put(b"extra", b"1").unwrap();
    alone.flush().unwrap();
    drop(alone);
    let db = open(env.clone());
    assert_holds_exactly(&db, 6, "after an open without the tree");
    assert_eq!(db.get(b"extra").unwrap().unwrap(), b"1");
    assert_eq!(log_files(&env, PRIMARY).len(), 1);
}

#[test]
fn a_log_in_a_trees_directory_fails_the_open() {
    // A fed tree keeps no log of its own: one found in its directory is a
    // format this engine does not read. The open refuses, naming the file,
    // and leaves it where it is.
    let env = MemEnv::new();
    drop(open(env.clone()));
    drop(Db::open(env.clone(), TREE, tree_opts()).unwrap());
    let stray = log_files(&env, TREE);
    assert_eq!(stray.len(), 1);
    let err = Db::open_with_trees(
        env.clone(),
        PRIMARY,
        opts(),
        &[(TREE.to_string(), tree_opts())],
    )
    .err()
    .expect("a log in a fed tree's directory must fail the open");
    assert!(matches!(err, Error::NotSupported(_)), "{err}");
    assert!(err.to_string().contains(&stray[0]), "{err}");
    assert_eq!(log_files(&env, TREE), stray);
}
