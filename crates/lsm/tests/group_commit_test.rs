//! Group-commit writer queue: multi-writer correctness, grouping
//! behaviour, failure contract, and single-writer determinism.
//!
//! The protocol under test is DESIGN.md §14: concurrent writers enqueue
//! batches, the queue-front leader commits a prefix of the queue as one
//! WAL record + one memtable publish under one sequence allocation, and
//! followers are woken with rebased start sequences. These tests pin the
//! user-visible contract — every acknowledged write is readable, sequence
//! ranges never overlap, a failed group fails all of its members, and an
//! uncontended single writer stays byte-for-byte deterministic.

use ldbpp_lsm::db::{CommitView, Db, DbOptions, DeriveOps};
use ldbpp_lsm::env::{Env, FaultEnv, FaultOp, FaultPlan, MemEnv, SyncLatencyEnv};
use ldbpp_lsm::write_batch::{BatchOp, WriteBatch};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

fn opts(background: bool) -> DbOptions {
    DbOptions {
        write_buffer_size: 32 << 10,
        max_file_size: 8 << 10,
        base_level_bytes: 64 << 10,
        background_work: background,
        ..DbOptions::small()
    }
}

/// N writer threads, each issuing M batches (some multi-op) on disjoint
/// keys. Afterwards: every acknowledged write is readable with its exact
/// value, per-thread start sequences are strictly increasing in issue
/// order, and the sequence ranges `[start, start + count)` of all batches
/// are globally disjoint — the group leader rebased follower sequences
/// correctly.
#[test]
fn concurrent_writers_acked_readable_with_disjoint_sequence_ranges() {
    const THREADS: usize = 8;
    const BATCHES: usize = 150;

    let db = Arc::new(Db::open_in_memory(opts(true)).unwrap());
    let mut acks: Vec<Vec<(u64, u32)>> = Vec::new(); // (start_seq, count) per thread
    thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let mut acked = Vec::with_capacity(BATCHES);
                    for i in 0..BATCHES {
                        // Every third batch carries three ops, so follower
                        // rebasing must account for unequal batch sizes.
                        let ops = if i % 3 == 0 { 3 } else { 1 };
                        let mut batch = WriteBatch::new();
                        for j in 0..ops {
                            batch.put(
                                format!("w{t}-{i:04}-{j}").as_bytes(),
                                format!("value-{t}-{i}-{j}").as_bytes(),
                            );
                        }
                        let seq = db.write(&mut batch).unwrap();
                        acked.push((seq, ops as u32));
                    }
                    acked
                })
            })
            .collect();
        for h in handles {
            acks.push(h.join().unwrap());
        }
    });

    // Per-thread: start sequences strictly increase in issue order.
    for (t, thread_acks) in acks.iter().enumerate() {
        for pair in thread_acks.windows(2) {
            assert!(
                pair[0].0 + u64::from(pair[0].1) <= pair[1].0,
                "thread {t}: batch sequences overlap or regress: {pair:?}"
            );
        }
    }

    // Globally: all [start, start+count) ranges disjoint.
    let mut ranges: Vec<(u64, u32)> = acks.iter().flatten().copied().collect();
    ranges.sort_unstable();
    for pair in ranges.windows(2) {
        assert!(
            pair[0].0 + u64::from(pair[0].1) <= pair[1].0,
            "sequence ranges of two batches overlap: {pair:?}"
        );
    }

    // Every acknowledged write is readable with its exact value, and its
    // per-op sequence is the batch start plus the op's offset.
    for (t, thread_acks) in acks.iter().enumerate() {
        for (i, &(start, count)) in thread_acks.iter().enumerate() {
            for j in 0..count as usize {
                let key = format!("w{t}-{i:04}-{j}");
                assert_eq!(
                    db.get(key.as_bytes()).unwrap().as_deref(),
                    Some(format!("value-{t}-{i}-{j}").as_bytes()),
                    "acked write {key} lost"
                );
                let (_, seq, _) = db.newest_record(key.as_bytes()).unwrap().unwrap();
                assert_eq!(
                    seq,
                    start + j as u64,
                    "op {key} not at its rebased sequence"
                );
            }
        }
    }

    // Accounting: every batch went through the group-commit path.
    let snap = db.stats().snapshot();
    assert_eq!(snap.grouped_writes, (THREADS * BATCHES) as u64);
    assert!(snap.group_commits >= 1 && snap.group_commits <= snap.grouped_writes);
    assert_eq!(snap.group_size_hist.iter().sum::<u64>(), snap.group_commits);
}

/// Under fsync-bound contention, groups of more than one batch must
/// actually form (the leader's sync window lets followers pile up), and
/// the fsync count equals the group-commit count — one sync per group,
/// amortized across its members.
#[test]
fn groups_form_under_fsync_bound_contention() {
    const THREADS: usize = 4;
    const WRITES: usize = 60;

    let env = SyncLatencyEnv::new(MemEnv::new(), Duration::from_millis(1));
    let mut o = opts(true);
    o.wal_sync = true;
    let db = Arc::new(Db::open(env, "db", o).unwrap());
    let before = db.stats().snapshot();
    thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..WRITES {
                    db.put(
                        format!("g{t}-{i:04}").as_bytes(),
                        format!("v-{t}-{i}").as_bytes(),
                    )
                    .unwrap();
                }
            });
        }
    });
    let snap = db.stats().snapshot().since(&before);
    assert_eq!(snap.grouped_writes, (THREADS * WRITES) as u64);
    assert!(
        snap.group_commits < snap.grouped_writes,
        "no group of ≥ 2 formed under contention: {} commits for {} writes",
        snap.group_commits,
        snap.grouped_writes
    );
    assert_eq!(
        snap.wal_syncs, snap.group_commits,
        "fsync policy must cost exactly one sync per group"
    );
    assert_eq!(snap.group_size_hist.iter().sum::<u64>(), snap.group_commits);
    for t in 0..THREADS {
        for i in 0..WRITES {
            assert!(
                db.get(format!("g{t}-{i:04}").as_bytes()).unwrap().is_some(),
                "acked write g{t}-{i:04} lost"
            );
        }
    }
}

/// The failure contract (DESIGN.md §14): when a group's WAL append fails,
/// the database is poisoned sticky-fatally, every batch that reports an
/// error leaves nothing behind, and every batch that was acknowledged
/// before the fault is still readable.
#[test]
fn failed_wal_append_poisons_and_unacked_writes_are_absent() {
    const THREADS: usize = 4;
    const WRITES: usize = 40;

    let fenv = FaultEnv::new(MemEnv::new());
    let mut o = opts(true);
    o.wal_sync = true;
    let db = Arc::new(Db::open(fenv.clone(), "db", o).unwrap());
    // Fail one WAL append somewhere in the middle of the contended run.
    fenv.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Append, 30)),
        match_path: Some(".log".to_string()),
        ..FaultPlan::default()
    });

    let mut results: Vec<Vec<(String, bool)>> = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    (0..WRITES)
                        .map(|i| {
                            let key = format!("f{t}-{i:04}");
                            let acked = db.put(key.as_bytes(), b"value").is_ok();
                            (key, acked)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().unwrap());
        }
    });

    let failed: usize = results.iter().flatten().filter(|(_, acked)| !acked).count();
    assert!(failed >= 1, "the injected append fault reached no writer");
    assert!(
        db.fatal_error().is_some(),
        "failed WAL append must poison the database"
    );
    db.put(b"after", b"x")
        .expect_err("write after poisoning must be refused");

    for (key, acked) in results.iter().flatten() {
        let got = db.get(key.as_bytes()).unwrap();
        if *acked {
            assert!(got.is_some(), "acked write {key} lost after poisoning");
        } else {
            assert!(got.is_none(), "failed write {key} leaked into the database");
        }
    }
}

/// A derivation that signals `entered`, waits for `release`, then panics —
/// a commit leader dying mid-commit at a moment the test chooses.
struct PanicOnRelease {
    entered: Barrier,
    release: Barrier,
}

impl DeriveOps for PanicOnRelease {
    fn derive(
        &self,
        _view: &CommitView<'_>,
        _seq: u64,
        _op: &BatchOp,
        _out: &mut Vec<BatchOp>,
    ) -> ldbpp_common::Result<()> {
        self.entered.wait();
        self.release.wait();
        panic!("derivation panics mid-commit");
    }
}

/// The failure contract's unwind row (DESIGN.md §14.3): a leader that
/// panics mid-commit poisons the database and still pops its group and
/// promotes the next writer, so a write queued behind it fails promptly
/// instead of waiting forever — and a reopen serves every write
/// acknowledged before the panic. In both modes.
#[test]
fn panicking_leader_fails_queued_writers_instead_of_wedging() {
    for background in [false, true] {
        let env = MemEnv::new();
        let db = Arc::new(Db::open(env.clone(), "db", opts(background)).unwrap());
        for i in 0..20 {
            db.put(format!("acked-{i:02}").as_bytes(), b"v").unwrap();
        }
        let deriver = Arc::new(PanicOnRelease {
            entered: Barrier::new(2),
            release: Barrier::new(2),
        });
        let leader = {
            let (db, deriver) = (Arc::clone(&db), Arc::clone(&deriver));
            thread::spawn(move || {
                let mut batch = WriteBatch::new();
                batch.put(b"doomed", b"v");
                db.write_derived(&mut batch, deriver)
            })
        };
        // The leader now sits at the queue front, inside its commit.
        deriver.entered.wait();
        let (tx, rx) = mpsc::channel();
        let follower = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let _ = tx.send(db.put(b"queued", b"v"));
            })
        };
        // Let the leader panic. Either interleaving checks the contract: a
        // writer queued behind the leader must be promoted and refused, one
        // arriving after the panic must be refused at once — and without
        // the unwind path both wait forever behind the departed leader.
        // The pause only makes the queued case the likely one.
        thread::sleep(Duration::from_millis(100));
        deriver.release.wait();
        assert!(leader.join().is_err(), "the leader's panic must propagate");
        let queued = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| {
                panic!("writer queued behind a panicked leader is wedged (bg: {background})")
            });
        assert!(
            queued.is_err(),
            "a write after a panicked commit must be refused (bg: {background})"
        );
        follower.join().unwrap();
        assert!(db.fatal_error().is_some(), "a panicked commit must poison");
        drop(db);

        let db = Db::open(env, "db", opts(background)).unwrap();
        for i in 0..20 {
            assert_eq!(
                db.get(format!("acked-{i:02}").as_bytes())
                    .unwrap()
                    .as_deref(),
                Some(&b"v"[..]),
                "write acked before the panic lost (bg: {background})"
            );
        }
        db.put(b"after", b"reopen").unwrap();
    }
}

/// Capture every file of a database image as `path → bytes`.
fn image_of(env: &MemEnv) -> BTreeMap<String, Vec<u8>> {
    env.list("db")
        .unwrap()
        .into_iter()
        .map(|name| {
            let path = format!("db/{name}");
            let bytes = env.read_all(&path).unwrap();
            (path, bytes)
        })
        .collect()
}

/// A single uncontended writer in foreground mode is always a group of
/// one, and a group of one emits the byte-identical WAL record the
/// pre-queue engine emitted — so two identical runs produce two
/// byte-for-byte identical filesystem images.
#[test]
fn single_writer_foreground_is_byte_for_byte_deterministic() {
    let run = || {
        let env = MemEnv::new();
        let db = Db::open(env.clone(), "db", opts(false)).unwrap();
        for i in 0..600usize {
            match i % 7 {
                0 => {
                    let mut b = WriteBatch::new();
                    b.put(format!("k{:03}", i % 50).as_bytes(), b"multi-1");
                    b.delete(format!("k{:03}", (i + 9) % 50).as_bytes());
                    db.write(&mut b).unwrap();
                }
                6 => {
                    db.delete(format!("k{:03}", i % 50).as_bytes()).unwrap();
                }
                _ => {
                    db.put(
                        format!("k{:03}", i % 50).as_bytes(),
                        format!("value-{i}-{}", "y".repeat(40)).as_bytes(),
                    )
                    .unwrap();
                }
            }
        }
        drop(db);
        image_of(&env)
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "two identical foreground runs created different file sets"
    );
    for (path, bytes) in &a {
        assert_eq!(
            Some(bytes),
            b.get(path),
            "file {path} differs between identical foreground runs"
        );
    }
}
