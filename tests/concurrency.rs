//! Concurrency stress: the paper's Appendix C examines concurrency effects
//! on the index variants; here we verify the engine is safe and coherent
//! under concurrent readers + a writer (the engine serializes internally —
//! these tests pin down absence of deadlocks, panics and torn reads).

use leveldbpp::{DbOptions, Document, IndexKind, SecondaryDb, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

fn opts() -> DbOptions {
    DbOptions {
        block_size: 512,
        write_buffer_size: 8 << 10,
        max_file_size: 4 << 10,
        base_level_bytes: 32 << 10,
        ..DbOptions::small()
    }
}

#[test]
fn concurrent_readers_during_writes() {
    let db = Arc::new(
        SecondaryDb::open_in_memory(opts(), &[("UserID", IndexKind::LazyStandalone)]).unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicUsize::new(0));

    thread::scope(|s| {
        // Writer: streams tweets in.
        {
            let db = Arc::clone(&db);
            let stop = stop.clone();
            let written = written.clone();
            s.spawn(move || {
                for i in 0..4000usize {
                    let mut doc = Document::new();
                    doc.set("UserID", Value::str(format!("u{}", i % 10)))
                        .set("Text", Value::str(format!("tweet {i}")));
                    db.put(format!("t{i:06}"), &doc).unwrap();
                    written.store(i + 1, Ordering::Release);
                }
                stop.store(true, Ordering::Release);
            });
        }
        // GET readers: whatever was acknowledged written must be readable.
        for reader in 0..3 {
            let db = Arc::clone(&db);
            let stop = stop.clone();
            let written = written.clone();
            s.spawn(move || {
                let mut checked = 0usize;
                while !stop.load(Ordering::Acquire) || checked < 100 {
                    let upto = written.load(Ordering::Acquire);
                    if upto == 0 {
                        continue;
                    }
                    let i = (checked * 7919 + reader) % upto;
                    let doc = db.get(format!("t{i:06}")).unwrap();
                    assert!(doc.is_some(), "acknowledged write t{i:06} must be visible");
                    checked += 1;
                    if checked > 5000 {
                        break;
                    }
                }
            });
        }
        // LOOKUP reader: results are always internally consistent.
        {
            let db = Arc::clone(&db);
            let stop = stop.clone();
            s.spawn(move || {
                let mut rounds = 0;
                while !stop.load(Ordering::Acquire) && rounds < 500 {
                    let hits = db.lookup("UserID", &Value::str("u3"), Some(5)).unwrap();
                    for w in hits.windows(2) {
                        assert!(w[0].seq > w[1].seq, "ordering under concurrency");
                    }
                    for h in &hits {
                        assert_eq!(h.doc.get("UserID").unwrap().as_str(), Some("u3"));
                    }
                    rounds += 1;
                }
            });
        }
    });

    // Post-conditions: everything written is indexed.
    let total: usize = (0..10)
        .map(|u| {
            db.lookup("UserID", &Value::str(format!("u{u}")), None)
                .unwrap()
                .len()
        })
        .sum();
    assert_eq!(total, 4000);
}

#[test]
fn background_pipeline_writer_readers_stress() {
    use leveldbpp::{Db, MemEnv};
    let env = MemEnv::new();
    let bg_opts = DbOptions {
        background_work: true,
        l0_slowdown_trigger: 6,
        l0_stall_trigger: 10,
        ..opts()
    };
    let db = Arc::new(Db::open(env.clone(), "bgdb", bg_opts.clone()).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicUsize::new(0));
    const N: usize = 3000;

    thread::scope(|s| {
        // Writer: the flush/compaction worker runs concurrently the whole
        // time (tiny buffers force constant churn).
        {
            let db = Arc::clone(&db);
            let stop = stop.clone();
            let written = written.clone();
            s.spawn(move || {
                let mut last_seq = 0u64;
                for i in 0..N {
                    let key = format!("k{i:06}");
                    let value = format!("{key}=v{i}:{}", "x".repeat(32));
                    let seq = db.put(key.as_bytes(), value.as_bytes()).unwrap();
                    assert!(seq > last_seq, "assigned sequences must be monotone");
                    last_seq = seq;
                    written.store(i + 1, Ordering::Release);
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Readers: every acknowledged write must be readable in full (a
        // torn read would surface as a value mismatch), and the published
        // sequence number must never go backwards.
        for reader in 0..3usize {
            let db = Arc::clone(&db);
            let stop = stop.clone();
            let written = written.clone();
            s.spawn(move || {
                let mut checked = 0usize;
                let mut seen_seq = 0u64;
                while !stop.load(Ordering::Acquire) || checked < 200 {
                    let seq = db.last_sequence();
                    assert!(seq >= seen_seq, "published sequence must be monotone");
                    seen_seq = seq;
                    let upto = written.load(Ordering::Acquire);
                    if upto == 0 {
                        continue;
                    }
                    let i = (checked * 6151 + reader) % upto;
                    let key = format!("k{i:06}");
                    let expected = format!("{key}=v{i}:{}", "x".repeat(32));
                    let got = db.get(key.as_bytes()).unwrap();
                    assert_eq!(
                        got.as_deref(),
                        Some(expected.as_bytes()),
                        "torn or missing read for {key}"
                    );
                    checked += 1;
                    if checked > 4000 {
                        break;
                    }
                }
            });
        }
    });

    // Settle the tree and re-verify everything.
    db.wait_for_background_idle().unwrap();
    for i in 0..N {
        let key = format!("k{i:06}");
        assert!(
            db.get(key.as_bytes()).unwrap().is_some(),
            "{key} must survive background churn"
        );
    }
    assert!(
        db.level_file_counts().iter().skip(1).any(|&n| n > 0),
        "background compactions should have populated deeper levels"
    );

    // Reopen from the same env: the WAL for a frozen-but-unflushed
    // memtable is only deleted after its flush installs, so recovery
    // replays every acknowledged write.
    drop(Arc::try_unwrap(db).unwrap_or_else(|_| panic!("all Db clones should be gone")));
    let db = Db::open(env, "bgdb", bg_opts).unwrap();
    for i in (0..N).step_by(97) {
        let key = format!("k{i:06}");
        assert!(
            db.get(key.as_bytes()).unwrap().is_some(),
            "{key} must survive reopen"
        );
    }
}

#[test]
fn background_secondary_db_indexes_stay_coherent() {
    let base = DbOptions {
        background_work: true,
        ..opts()
    };
    let db =
        Arc::new(SecondaryDb::open_in_memory(base, &[("UserID", IndexKind::Embedded)]).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    const N: usize = 2500;

    thread::scope(|s| {
        {
            let db = Arc::clone(&db);
            let stop = stop.clone();
            s.spawn(move || {
                for i in 0..N {
                    let mut doc = Document::new();
                    doc.set("UserID", Value::str(format!("u{}", i % 10)))
                        .set("Text", Value::str(format!("tweet {i}")));
                    db.put(format!("t{i:06}"), &doc).unwrap();
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Lookups race the writer and the flush worker; results must stay
        // internally consistent (recency-ordered, attribute matches).
        for _ in 0..2 {
            let db = Arc::clone(&db);
            let stop = stop.clone();
            s.spawn(move || {
                let mut rounds = 0;
                while !stop.load(Ordering::Acquire) && rounds < 400 {
                    let hits = db.lookup("UserID", &Value::str("u4"), Some(5)).unwrap();
                    for w in hits.windows(2) {
                        assert!(
                            w[0].seq > w[1].seq,
                            "recency ordering under churn: {:?}",
                            hits.iter()
                                .map(|h| (String::from_utf8_lossy(&h.key).into_owned(), h.seq))
                                .collect::<Vec<_>>()
                        );
                    }
                    for h in &hits {
                        assert_eq!(h.doc.get("UserID").unwrap().as_str(), Some("u4"));
                    }
                    rounds += 1;
                }
            });
        }
    });

    // After the worker settles, the index must account for every record.
    db.wait_for_background_idle().unwrap();
    let total: usize = (0..10)
        .map(|u| {
            db.lookup("UserID", &Value::str(format!("u{u}")), None)
                .unwrap()
                .len()
        })
        .sum();
    assert_eq!(total, N);
}

/// Contended writers through the group-commit queue: N threads × M keys
/// of disjoint key spaces, all writing concurrently. Every acknowledged
/// write must be readable with its exact value, per-writer sequence
/// numbers must be monotone in issue order, and the group-commit
/// accounting must cover every logical batch (grouped_writes == total
/// puts, histogram sums to the commit count).
#[test]
fn contended_writers_group_commit_correctness() {
    use leveldbpp::{Db, MemEnv};
    const THREADS: usize = 8;
    const M: usize = 400;

    let env = MemEnv::new();
    let bg_opts = DbOptions {
        background_work: true,
        ..opts()
    };
    let db = Arc::new(Db::open(env.clone(), "gcdb", bg_opts.clone()).unwrap());

    thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let mut last_seq = 0u64;
                for i in 0..M {
                    let key = format!("w{t}-{i:05}");
                    let value = format!("{key}={}", "g".repeat(24));
                    let seq = db.put(key.as_bytes(), value.as_bytes()).unwrap();
                    assert!(
                        seq > last_seq,
                        "writer {t}: sequence regressed ({seq} after {last_seq})"
                    );
                    last_seq = seq;
                }
            });
        }
    });

    db.wait_for_background_idle().unwrap();
    for t in 0..THREADS {
        for i in 0..M {
            let key = format!("w{t}-{i:05}");
            let expected = format!("{key}={}", "g".repeat(24));
            assert_eq!(
                db.get(key.as_bytes()).unwrap().as_deref(),
                Some(expected.as_bytes()),
                "acked write {key} lost or torn"
            );
        }
    }
    let snap = db.stats().snapshot();
    assert_eq!(snap.grouped_writes, (THREADS * M) as u64);
    assert!(snap.group_commits >= 1);
    assert_eq!(snap.group_size_hist.iter().sum::<u64>(), snap.group_commits);

    // Reopen: the grouped WAL records replay like any other batch.
    drop(Arc::try_unwrap(db).unwrap_or_else(|_| panic!("all Db clones should be gone")));
    let db = Db::open(env, "gcdb", bg_opts).unwrap();
    for t in 0..THREADS {
        for i in (0..M).step_by(89) {
            let key = format!("w{t}-{i:05}");
            assert!(
                db.get(key.as_bytes()).unwrap().is_some(),
                "{key} must survive reopen"
            );
        }
    }
}

/// Concurrent `SecondaryDb` writers: a document and its index entries are
/// one batch even when the batches of different writers share one group
/// commit — every acknowledged document must be reachable both by primary
/// GET and by index LOOKUP afterwards.
#[test]
fn contended_secondary_writers_stay_indexed() {
    const THREADS: usize = 4;
    const M: usize = 500;

    let base = DbOptions {
        background_work: true,
        ..opts()
    };
    let db = Arc::new(
        SecondaryDb::open_in_memory(base, &[("UserID", IndexKind::LazyStandalone)]).unwrap(),
    );

    thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..M {
                    let mut doc = Document::new();
                    doc.set("UserID", Value::str(format!("u{}", (t * M + i) % 10)))
                        .set("Text", Value::str(format!("tweet {t}/{i}")));
                    db.put(format!("c{t}-{i:05}"), &doc).unwrap();
                }
            });
        }
    });

    db.wait_for_background_idle().unwrap();
    for t in 0..THREADS {
        for i in 0..M {
            assert!(
                db.get(format!("c{t}-{i:05}")).unwrap().is_some(),
                "acked document c{t}-{i:05} lost"
            );
        }
    }
    let total: usize = (0..10)
        .map(|u| {
            db.lookup("UserID", &Value::str(format!("u{u}")), None)
                .unwrap()
                .len()
        })
        .sum();
    assert_eq!(total, THREADS * M, "index lost documents under contention");
}

/// Four writers add different keys under *one* attribute value of an
/// Eager index, whose every PUT is a read-modify-write of that value's
/// posting list. The read and the write happen inside the shard's commit,
/// so no writer can overwrite a list it has not seen: all 800 postings
/// survive (an unlocked get-then-put drops some, a false negative nothing
/// repairs), and each carries the sequence its own PUT was given — the
/// record's, not a guess made before the commit.
#[test]
fn eager_concurrent_same_value_keeps_every_posting() {
    const THREADS: usize = 4;
    const M: usize = 200;

    let db = Arc::new(
        SecondaryDb::open_in_memory(opts(), &[("UserID", IndexKind::EagerStandalone)]).unwrap(),
    );
    let start = std::sync::Barrier::new(THREADS);
    let acked: Vec<Vec<(String, u64)>> = thread::scope(|s| {
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (db, start) = (Arc::clone(&db), &start);
                s.spawn(move || {
                    let mut doc = Document::new();
                    doc.set("UserID", Value::str("everyone"));
                    start.wait();
                    (0..M)
                        .map(|i| {
                            let pk = format!("e{t}-{i:04}");
                            let seq = db.put(&pk, &doc).unwrap();
                            (pk, seq)
                        })
                        .collect()
                })
            })
            .collect();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let hits = db.lookup("UserID", &Value::str("everyone"), None).unwrap();
    assert_eq!(hits.len(), THREADS * M, "postings lost under contention");
    let by_key: std::collections::HashMap<&[u8], u64> =
        hits.iter().map(|h| (h.key.as_slice(), h.seq)).collect();
    for (pk, seq) in acked.iter().flatten() {
        assert_eq!(
            by_key.get(pk.as_bytes()),
            Some(seq),
            "{pk}: LookupHit.seq is not the sequence of the record"
        );
    }
    assert!(db.check_integrity().is_clean());
}

#[test]
fn parallel_lookups_on_static_data_agree() {
    let db =
        Arc::new(SecondaryDb::open_in_memory(opts(), &[("UserID", IndexKind::Embedded)]).unwrap());
    for i in 0..2000usize {
        let mut doc = Document::new();
        doc.set("UserID", Value::str(format!("u{}", i % 7)));
        db.put(format!("t{i:05}"), &doc).unwrap();
    }
    db.flush().unwrap();
    let baseline: Vec<usize> = (0..7)
        .map(|u| {
            db.lookup("UserID", &Value::str(format!("u{u}")), None)
                .unwrap()
                .len()
        })
        .collect();

    thread::scope(|s| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let baseline = baseline.clone();
            s.spawn(move || {
                for round in 0..50 {
                    let u = round % 7;
                    let hits = db
                        .lookup("UserID", &Value::str(format!("u{u}")), None)
                        .unwrap();
                    assert_eq!(hits.len(), baseline[u], "u{u}");
                }
            });
        }
    });
}
