//! Crash-recovery harness for the primary LSM engine.
//!
//! The core invariant, checked at every possible crash point of a scripted
//! mixed workload (PUT/DEL/MERGE with flushes and compactions, in both
//! foreground and background mode):
//!
//! * every **acknowledged** write is durable after reopen,
//! * every **unacknowledged** write is atomically absent,
//! * MANIFEST replay yields a valid version (reopen succeeds and every file
//!   the recovered version references exists),
//! * the reopened database accepts new writes.
//!
//! The sweep works in two passes: a probe run with no faults counts the
//! workload's mutating filesystem operations `M`, then for each crash point
//! `k` the same workload is replayed against a fresh `FaultEnv` that fails
//! every operation with index `>= k` — freezing the simulated filesystem
//! exactly as a power cut at that instant would. The frozen image is
//! deep-cloned and reopened cold.
//!
//! By default the sweep is capped (see `sweep_points`) so the suite stays
//! fast; set `CRASH_SWEEP_FULL=1` to test every operation index.

use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::{Env, FaultEnv, FaultOp, FaultPlan, MemEnv};
use ldbpp_lsm::merge::ConcatMerge;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Workload scripting
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Put(usize, usize),
    Del(usize),
    Merge(usize, usize),
    Flush,
    Compact,
}

fn key(i: usize) -> Vec<u8> {
    format!("key{:02}", i % 8).into_bytes()
}

fn val(i: usize) -> Vec<u8> {
    format!("value-{i:04}-{}", "x".repeat(60)).into_bytes()
}

fn operand(i: usize) -> Vec<u8> {
    format!("+m{i}").into_bytes()
}

/// Deterministic mixed script from an LCG seed.
fn script(len: usize, seed: u64) -> Vec<Op> {
    let mut x = seed;
    let mut next = move |m: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    (0..len)
        .map(|i| match next(12) {
            0..=6 => Op::Put(next(8) as usize, i),
            7 | 8 => Op::Merge(next(8) as usize, i),
            9 => Op::Del(next(8) as usize),
            10 => Op::Flush,
            _ => Op::Compact,
        })
        .collect()
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Fold one acknowledged op into the in-memory model (mirrors ConcatMerge).
fn apply(model: &mut Model, op: &Op) {
    match op {
        Op::Put(k, v) => {
            model.insert(key(*k), val(*v));
        }
        Op::Del(k) => {
            model.remove(&key(*k));
        }
        Op::Merge(k, v) => {
            model
                .entry(key(*k))
                .or_default()
                .extend_from_slice(&operand(*v));
        }
        Op::Flush | Op::Compact => {}
    }
}

fn opts(background: bool) -> DbOptions {
    let mut o = DbOptions::small();
    o.write_buffer_size = 1536;
    o.max_file_size = 1024;
    o.base_level_bytes = 4096;
    o.l0_compaction_trigger = 2;
    o.merge_operator = Some(Arc::new(ConcatMerge));
    o.background_work = background;
    o
}

/// Crash points to test for a workload with `total` mutating operations:
/// every index when `CRASH_SWEEP_FULL=1` (or the workload is small), a dense
/// prefix plus an even stride otherwise.
fn sweep_points(total: u64) -> Vec<u64> {
    let full = std::env::var("CRASH_SWEEP_FULL").is_ok_and(|v| v == "1");
    let cap: u64 = 400;
    if full || total <= cap {
        return (0..total).collect();
    }
    let dense = 32.min(total);
    let mut points: Vec<u64> = (0..dense).collect();
    let step = ((total - dense) / (cap - dense)).max(1);
    let mut k = dense;
    while k < total {
        points.push(k);
        k += step;
    }
    points
}

// ---------------------------------------------------------------------------
// One run, one check
// ---------------------------------------------------------------------------

struct RunResult {
    /// Detached post-crash filesystem image.
    image: Arc<MemEnv>,
    /// Fold of the acknowledged operations.
    model: Model,
    /// Mutating operations issued over the whole run (probe runs).
    total_ops: u64,
}

/// Drive `ops` against a fresh database on a `FaultEnv`, optionally crashing
/// at operation `crash_at`. Ops keep being issued after the crash point (they
/// all fail, like syscalls after a power cut would) so acknowledgement
/// tracking stays honest.
fn run_once(ops: &[Op], background: bool, crash_at: Option<u64>) -> RunResult {
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    if let Some(k) = crash_at {
        fenv.set_crash_point(k);
    }
    let mut model = Model::new();
    let db = Db::open(fenv.clone(), "db", opts(background));
    if let Ok(db) = &db {
        for op in ops {
            let acked = match op {
                Op::Put(k, v) => db.put(&key(*k), &val(*v)).is_ok(),
                Op::Del(k) => db.delete(&key(*k)).is_ok(),
                Op::Merge(k, v) => db.merge(&key(*k), &operand(*v)).is_ok(),
                Op::Flush => {
                    let _ = db.flush();
                    false
                }
                Op::Compact => {
                    let _ = db.compact();
                    false
                }
            };
            if acked {
                apply(&mut model, op);
            }
        }
    }
    drop(db); // joins the background worker before the image is cloned
    RunResult {
        image: mem.deep_clone(),
        model,
        total_ops: fenv.op_count(),
    }
}

/// Reopen a (possibly crashed) image and check every recovery invariant
/// against the acknowledged-ops model.
fn check_recovery(image: Arc<MemEnv>, model: &Model, context: &str) {
    let db = Db::open(image.clone(), "db", opts(false))
        .unwrap_or_else(|e| panic!("reopen must succeed ({context}): {e}"));

    // MANIFEST replay yielded a valid version: every referenced file exists.
    let version = db.current_version();
    for files in &version.files {
        for f in files {
            let path = ldbpp_lsm::version::table_file_name("db", f.number);
            assert!(
                image.exists(&path),
                "recovered version references missing file {path} ({context})"
            );
        }
    }

    // The recovered structure passes the full invariant catalogue.
    let report = db.check_integrity();
    assert!(
        report.is_clean(),
        "integrity violations after recovery ({context}):\n{report}"
    );

    // Acked writes durable, un-acked writes absent: full contents match.
    let mut it = db.resolved_iter().expect("resolved_iter");
    it.seek_to_first();
    let mut got = Model::new();
    while let Some((k, _seq, v)) = it.next_entry().expect("iterate recovered db") {
        got.insert(k, v);
    }
    assert_eq!(
        &got, model,
        "recovered contents diverge from acknowledged ops ({context})"
    );

    // The reopened database accepts and serves new writes.
    db.put(b"probe-key", b"probe-value")
        .expect("post-recovery put");
    assert_eq!(
        db.get(b"probe-key").expect("post-recovery get").as_deref(),
        Some(&b"probe-value"[..]),
        "post-recovery write not visible ({context})"
    );
}

fn crash_sweep(background: bool) {
    let full = std::env::var("CRASH_SWEEP_FULL").is_ok_and(|v| v == "1");
    let ops = script(if full { 100 } else { 40 }, 0xC0FFEE);
    let probe = run_once(&ops, background, None);
    check_recovery(probe.image, &probe.model, "no crash");
    assert!(probe.total_ops > 50, "workload too small to be interesting");
    for k in sweep_points(probe.total_ops) {
        let run = run_once(&ops, background, Some(k));
        check_recovery(
            run.image,
            &run.model,
            &format!("crash at op {k}/{} bg={background}", probe.total_ops),
        );
    }
}

// ---------------------------------------------------------------------------
// The sweeps
// ---------------------------------------------------------------------------

#[test]
fn crash_sweep_foreground() {
    crash_sweep(false);
}

#[test]
fn crash_sweep_background() {
    crash_sweep(true);
}

// ---------------------------------------------------------------------------
// Multi-writer grouped workload (group commit, DESIGN.md §14)
// ---------------------------------------------------------------------------

/// One logical batch issued by a writer thread: two keys that must be
/// durable together or absent together, the value both carry, and whether
/// the write was acknowledged.
struct MwBatch {
    keys: [Vec<u8>; 2],
    value: Vec<u8>,
    acked: bool,
}

struct MwRun {
    image: Arc<MemEnv>,
    batches: Vec<MwBatch>,
    total_ops: u64,
}

const MW_THREADS: usize = 4;

fn mw_opts() -> DbOptions {
    let mut o = opts(true);
    // Sync once per group so the sweep also crashes at Sync indices and
    // exercises the append-ok/sync-failed window.
    o.wal_sync = true;
    o.merge_operator = None;
    o
}

/// Drive `writes` two-op batches per thread from `MW_THREADS` concurrent
/// writers against a `FaultEnv`, optionally crashing at operation
/// `crash_at`. Threads keep issuing after the crash point (everything
/// fails, as syscalls after a power cut would) so acknowledgement
/// tracking stays honest. Keys are disjoint per thread, so the recovered
/// image is checkable without knowing the interleaving.
fn mw_run(writes: usize, crash_at: Option<u64>) -> MwRun {
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    if let Some(k) = crash_at {
        fenv.set_crash_point(k);
    }
    let db = Db::open(fenv.clone(), "db", mw_opts());
    let mut batches = Vec::new();
    if let Ok(db) = &db {
        let mut per_thread: Vec<Vec<MwBatch>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..MW_THREADS)
                .map(|t| {
                    let db = &db;
                    s.spawn(move || {
                        (0..writes)
                            .map(|i| {
                                let keys = [
                                    format!("t{t}-a{i:03}").into_bytes(),
                                    format!("t{t}-b{i:03}").into_bytes(),
                                ];
                                let value =
                                    format!("mw-{t}-{i:03}-{}", "z".repeat(40)).into_bytes();
                                let mut batch = ldbpp_lsm::write_batch::WriteBatch::new();
                                batch.put(&keys[0], &value);
                                batch.put(&keys[1], &value);
                                let acked = db.write(&mut batch).is_ok();
                                MwBatch { keys, value, acked }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().expect("mw writer thread panicked"));
            }
        });
        batches = per_thread.into_iter().flatten().collect();
    }
    drop(db); // joins the background worker before the image is cloned
    MwRun {
        image: mem.deep_clone(),
        batches,
        total_ops: fenv.op_count(),
    }
}

/// Reopen a (possibly crashed) multi-writer image and check the per-batch
/// contract: acked ⇒ both keys durable with the exact value; un-acked ⇒
/// both keys present together or absent together (a successful append
/// followed by a crashed fsync leaves a durable-but-unacknowledged batch,
/// which is allowed — a torn batch is not). Structural integrity must be
/// clean and the database writable.
fn check_mw_recovery(run: &MwRun, context: &str) {
    let image = run.image.deep_clone();
    let db = Db::open(image, "db", opts(false))
        .unwrap_or_else(|e| panic!("mw reopen must succeed ({context}): {e}"));

    let report = db.check_integrity();
    assert!(
        report.is_clean(),
        "integrity violations after mw recovery ({context}):\n{report}"
    );

    for batch in &run.batches {
        let got: Vec<Option<Vec<u8>>> = batch
            .keys
            .iter()
            .map(|k| db.get(k).expect("mw get"))
            .collect();
        if batch.acked {
            for (key, v) in batch.keys.iter().zip(&got) {
                assert_eq!(
                    v.as_deref(),
                    Some(batch.value.as_slice()),
                    "acked batch key {:?} lost or wrong ({context})",
                    String::from_utf8_lossy(key)
                );
            }
        } else {
            let present = got.iter().filter(|v| v.is_some()).count();
            assert!(
                present == 0 || present == got.len(),
                "un-acked batch torn ({context}): {:?} → {} of {} keys present",
                String::from_utf8_lossy(&batch.keys[0]),
                present,
                got.len()
            );
            for v in got.iter().flatten() {
                assert_eq!(
                    v.as_slice(),
                    batch.value.as_slice(),
                    "un-acked-but-durable batch has wrong value ({context})"
                );
            }
        }
    }

    db.put(b"probe-key", b"probe-value")
        .expect("post-recovery put (mw)");
    assert_eq!(
        db.get(b"probe-key")
            .expect("post-recovery get (mw)")
            .as_deref(),
        Some(&b"probe-value"[..]),
        "post-recovery write not visible ({context})"
    );
}

/// Crash a contended multi-writer grouped workload at every I/O-operation
/// index (capped like the single-writer sweeps). The probe run's op count
/// bounds the sweep; individual crashed runs interleave differently, which
/// is fine — each run is checked against its own acknowledgement log.
#[test]
fn crash_sweep_multi_writer_grouped() {
    let full = std::env::var("CRASH_SWEEP_FULL").is_ok_and(|v| v == "1");
    let writes = if full { 60 } else { 25 };
    let probe = mw_run(writes, None);
    assert!(
        probe.batches.iter().all(|b| b.acked),
        "no-crash probe must acknowledge every batch"
    );
    check_mw_recovery(&probe, "no crash");
    assert!(
        probe.total_ops > 50,
        "mw workload too small to be interesting"
    );
    for k in sweep_points(probe.total_ops) {
        let run = mw_run(writes, Some(k));
        check_mw_recovery(&run, &format!("crash at op {k}/{}", probe.total_ops));
    }
}

/// Crashing *during recovery* must not lose anything: a database with a
/// populated tree and a non-empty WAL is reopened with a crash at every
/// operation index of the open itself, then reopened cleanly.
#[test]
fn crash_during_recovery_sweep() {
    // Build a dirty image: tables in two levels plus unflushed WAL records.
    let base = run_once(&script(28, 0xBEEF), false, None);

    // Probe: how many mutating ops does recovery itself issue?
    let probe_env = FaultEnv::new(base.image.deep_clone());
    drop(Db::open(probe_env.clone(), "db", opts(false)).expect("probe reopen"));
    let open_ops = probe_env.op_count();
    assert!(open_ops > 0, "recovery issued no mutating ops");

    for k in sweep_points(open_ops) {
        let image = base.image.deep_clone();
        let fenv = FaultEnv::new(image.clone());
        fenv.set_crash_point(k);
        // The interrupted open may succeed or fail; either way the image it
        // leaves behind must recover to the same contents.
        drop(Db::open(fenv, "db", opts(false)));
        check_recovery(
            image.deep_clone(),
            &base.model,
            &format!("crash during recovery at op {k}"),
        );
    }
}

/// Pinned regression: recovery must not double-apply MERGE records.
///
/// Found by `crash_during_recovery_sweep`: recovery used to `log_and_apply`
/// each replay-forced flush immediately, while the WAL that produced it
/// stayed current in the MANIFEST. Crashing after such a flush left the
/// merged operands both in L0 *and* replayable — the next recovery
/// concatenated every ConcatMerge operand twice. Recovery now installs all
/// replay flushes and the fresh log number in one atomic MANIFEST record.
#[test]
fn regression_recovery_flush_does_not_double_apply_merges() {
    // A WAL of nothing but merges, big enough to force >1 flush on replay.
    let mem = MemEnv::new();
    let mut big = opts(false);
    big.write_buffer_size = 1 << 20; // everything stays in the WAL
    let db = Db::open(mem.clone(), "db", big).unwrap();
    let mut expect = Vec::new();
    for i in 0..40 {
        db.merge(b"acc", &val(i)).unwrap();
        expect.extend_from_slice(&val(i));
    }
    drop(db);

    // Crash at every op of a recovery that flushes mid-replay, then reopen
    // cleanly: the accumulator must hold each operand exactly once.
    let probe = FaultEnv::new(mem.deep_clone());
    drop(Db::open(probe.clone(), "db", opts(false)).expect("probe reopen"));
    for k in 0..probe.op_count() {
        let image = mem.deep_clone();
        let fenv = FaultEnv::new(image.clone());
        fenv.set_crash_point(k);
        drop(Db::open(fenv, "db", opts(false)));
        let db = Db::open(image.deep_clone(), "db", opts(false))
            .unwrap_or_else(|e| panic!("reopen after recovery crash at {k}: {e}"));
        assert_eq!(
            db.get(b"acc").unwrap().as_deref(),
            Some(expect.as_slice()),
            "merge operands double-applied after recovery crash at op {k}"
        );
    }
}

/// Pinned regression: a failed CURRENT install must leave the old pointer
/// valid, and the leftovers must be garbage-collected.
///
/// CURRENT is installed by writing `CURRENT.tmp` and renaming it over the
/// pointer. If the rename fails mid-recovery, the old CURRENT still names a
/// complete MANIFEST, so a clean reopen recovers everything; the orphan
/// `CURRENT.tmp` and the abandoned new MANIFEST are then removed so stale
/// manifest numbers cannot accumulate (or, worse, be picked up later).
#[test]
fn failed_current_rename_leaves_old_manifest_valid() {
    let mem = MemEnv::new();
    let db = Db::open(mem.clone(), "db", opts(false)).unwrap();
    for i in 0..8 {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    drop(db);

    let fenv = FaultEnv::new(mem.clone());
    fenv.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Rename, 0)),
        match_path: Some("CURRENT".to_string()),
        ..FaultPlan::default()
    });
    assert!(
        Db::open(fenv, "db", opts(false)).is_err(),
        "failed CURRENT rename must fail the open"
    );
    assert!(
        mem.exists("db/CURRENT.tmp"),
        "orphan tmp expected after failed rename"
    );

    let db = Db::open(mem.clone(), "db", opts(false)).expect("old CURRENT must still be valid");
    for i in 0..8 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
    drop(db);
    assert!(!mem.exists("db/CURRENT.tmp"), "orphan CURRENT.tmp not GC'd");
    let manifests: Vec<String> = mem
        .list("db")
        .unwrap()
        .into_iter()
        .filter(|f| f.starts_with("MANIFEST-"))
        .collect();
    assert_eq!(
        manifests.len(),
        1,
        "stale MANIFESTs not GC'd: {manifests:?}"
    );
    let current = String::from_utf8(mem.read_all("db/CURRENT").unwrap()).unwrap();
    assert_eq!(
        current.trim(),
        manifests[0],
        "CURRENT must name the surviving MANIFEST"
    );
}

// ---------------------------------------------------------------------------
// Torn tails and corruption
// ---------------------------------------------------------------------------

/// Truncating the WAL at any byte yields some prefix of the acknowledged
/// operations — never an error, never a fabricated or reordered write.
#[test]
fn wal_truncation_byte_sweep() {
    let mem = MemEnv::new();
    let mut o = opts(false);
    o.write_buffer_size = 1 << 20; // keep everything in the WAL
    let db = Db::open(mem.clone(), "db", o.clone()).unwrap();
    let n = 12usize;
    let mut prefixes: Vec<Model> = vec![Model::new()];
    for i in 0..n {
        let op = if i % 5 == 4 {
            Op::Del(i % 3)
        } else {
            Op::Put(i % 3, i)
        };
        match op {
            Op::Put(k, v) => {
                db.put(&key(k), &val(v)).unwrap();
            }
            Op::Del(k) => {
                db.delete(&key(k)).unwrap();
            }
            _ => unreachable!(),
        }
        let mut next = prefixes.last().unwrap().clone();
        apply(&mut next, &op);
        prefixes.push(next);
    }
    drop(db);

    let wal_name = {
        let names = mem.list("db").unwrap();
        let logs: Vec<&String> = names.iter().filter(|f| f.ends_with(".log")).collect();
        assert_eq!(logs.len(), 1, "expected one WAL, got {names:?}");
        format!("db/{}", logs[0])
    };
    let wal_len = mem.file_size(&wal_name).unwrap();

    let full = std::env::var("CRASH_SWEEP_FULL").is_ok_and(|v| v == "1");
    let stride = if full { 1 } else { 7 };
    let mut cut = 0;
    while cut <= wal_len {
        let image = mem.deep_clone();
        let fenv = FaultEnv::new(image.clone());
        fenv.truncate_file(&wal_name, cut).unwrap();
        let db = Db::open(image, "db", o.clone())
            .unwrap_or_else(|e| panic!("truncated tail at byte {cut} must reopen: {e}"));
        let mut it = db.resolved_iter().unwrap();
        it.seek_to_first();
        let mut got = Model::new();
        while let Some((k, _seq, v)) = it.next_entry().unwrap() {
            got.insert(k, v);
        }
        assert!(
            prefixes.contains(&got),
            "truncation at byte {cut} is not a prefix state"
        );
        cut += stride;
    }
}

/// A flipped byte inside a WAL record is reported as corruption at open —
/// not a panic, and not silently treated as clean end-of-log.
#[test]
fn wal_byte_flip_reports_corruption() {
    let mem = MemEnv::new();
    let mut o = opts(false);
    o.write_buffer_size = 1 << 20;
    let db = Db::open(mem.clone(), "db", o.clone()).unwrap();
    for i in 0..6 {
        db.put(&key(i), &val(i)).unwrap();
    }
    drop(db);
    let wal_name = mem
        .list("db")
        .unwrap()
        .into_iter()
        .find(|f| f.ends_with(".log"))
        .map(|f| format!("db/{f}"))
        .unwrap();
    let image = mem.deep_clone();
    let fenv = FaultEnv::new(image.clone());
    fenv.flip_byte(&wal_name, 10).unwrap(); // inside the first record
    match Db::open(image, "db", o) {
        Ok(_) => panic!("corrupt WAL must fail open"),
        Err(err) => assert!(err.is_corruption(), "want corruption, got {err:?}"),
    }
}

/// A flipped byte in the MANIFEST is likewise detected at open.
#[test]
fn manifest_byte_flip_reports_corruption() {
    let mem = MemEnv::new();
    let db = Db::open(mem.clone(), "db", opts(false)).unwrap();
    for i in 0..20 {
        db.put(&key(i), &val(i)).unwrap();
    }
    db.flush().unwrap();
    drop(db);
    let manifest = mem
        .list("db")
        .unwrap()
        .into_iter()
        .find(|f| f.starts_with("MANIFEST-"))
        .map(|f| format!("db/{f}"))
        .unwrap();
    let image = mem.deep_clone();
    let fenv = FaultEnv::new(image.clone());
    fenv.flip_byte(&manifest, 12).unwrap();
    assert!(
        Db::open(image, "db", opts(false)).is_err(),
        "corrupt MANIFEST must fail open"
    );
}

// ---------------------------------------------------------------------------
// Transient faults: error propagation, retryability, read-only poisoning
// ---------------------------------------------------------------------------

/// A transient fault while building an SSTable propagates as `Err`, leaves
/// no orphan file — no table, and no log once the retry succeeds — and
/// the flush is retryable: the database stays fully usable, in either mode.
#[test]
fn table_build_fault_is_retryable() {
    for background in [false, true] {
        let mem = MemEnv::new();
        let fenv = FaultEnv::new(mem.clone());
        let db = Db::open(fenv.clone(), "db", opts(background)).unwrap();
        for i in 0..10 {
            db.put(&key(i), &val(i)).unwrap();
        }
        // A worker flush racing the fault would park it as `bg_error`;
        // this test is about the flush `flush()` runs itself.
        db.wait_for_background_idle().unwrap();
        let files = |suffix: &str| -> Vec<String> {
            let mut names = mem.list("db").unwrap();
            names.retain(|f| f.ends_with(suffix));
            names
        };
        let tables_before = files(".ldb").len();
        fenv.set_plan(FaultPlan {
            fail_kind_at: Some((FaultOp::Append, 0)),
            match_path: Some(".ldb".to_string()),
            ..FaultPlan::default()
        });
        let err = db
            .flush()
            .expect_err("flush must surface the injected fault");
        assert!(err.is_io(), "want Io, got {err:?}");
        assert_eq!(
            files(".ldb").len(),
            tables_before,
            "failed flush left an orphan table file (bg: {background})"
        );
        assert!(
            db.fatal_error().is_none(),
            "table-build fault must not poison"
        );

        fenv.clear_plan();
        db.flush().expect("flush must succeed on retry");
        assert_eq!(
            files(".log").len(),
            1,
            "failed flush leaked a log file (bg: {background}): {:?}",
            files(".log")
        );
        for i in 2..10 {
            // keys wrap mod 8, so key(0)/key(1) were overwritten by i = 8, 9
            assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
        }
        db.put(b"after", b"retry").unwrap();
    }
}

/// A failed WAL append poisons the write path (the writer's framing no
/// longer matches the file tail): reads keep working, every mutating call
/// returns the sticky error, and reopening recovers exactly the
/// acknowledged writes.
#[test]
fn wal_append_fault_makes_db_read_only_until_reopen() {
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    let db = Db::open(fenv.clone(), "db", opts(false)).unwrap();
    for i in 0..5 {
        db.put(&key(i), &val(i)).unwrap();
    }
    // Fail the *data* append of the next WAL record (its header append is
    // match #0), leaving a torn header-only record at the tail.
    fenv.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Append, 1)),
        match_path: Some(".log".to_string()),
        ..FaultPlan::default()
    });
    let err = db.put(&key(6), &val(6)).expect_err("put must fail");
    assert!(err.is_io());
    fenv.clear_plan();

    // Sticky: still failing with no fault scheduled, reads unaffected.
    assert!(
        db.put(&key(7), &val(7)).is_err(),
        "write path must stay poisoned"
    );
    assert!(db.flush().is_err(), "flush must stay poisoned");
    assert!(db.fatal_error().is_some());
    assert_eq!(db.get(&key(1)).unwrap(), Some(val(1)));
    drop(db);

    // Reopen: acked writes recovered, un-acked (torn) record absent, and
    // the database is writable again.
    let image = mem.deep_clone();
    let db = Db::open(image, "db", opts(false)).unwrap();
    for i in 0..5 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
    assert_eq!(db.get(&key(6)).unwrap(), None, "torn write must be absent");
    assert!(db.fatal_error().is_none());
    db.put(&key(6), &val(6)).unwrap();
}

/// A failed MANIFEST append poisons the same way; reopen recovers.
#[test]
fn manifest_append_fault_poisons_then_recovers() {
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    let db = Db::open(fenv.clone(), "db", opts(false)).unwrap();
    for i in 0..10 {
        db.put(&key(i), &val(i)).unwrap();
    }
    fenv.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Append, 0)),
        match_path: Some("MANIFEST".to_string()),
        ..FaultPlan::default()
    });
    let err = db
        .flush()
        .expect_err("flush must surface the manifest fault");
    assert!(err.is_io());
    fenv.clear_plan();
    assert!(db.fatal_error().is_some(), "manifest fault must poison");
    assert!(db.put(b"x", b"y").is_err());
    assert_eq!(db.get(&key(3)).unwrap(), Some(val(3)));
    drop(db);

    let db = Db::open(mem.deep_clone(), "db", opts(false)).unwrap();
    for i in 2..10 {
        // keys wrap mod 8, so key(0)/key(1) were overwritten by i = 8, 9
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
    db.put(b"x", b"y").unwrap();
}

/// In background mode a worker-side fault parks as `bg_error` and surfaces
/// to the caller instead of panicking the worker thread.
#[test]
fn background_fault_surfaces_to_writers() {
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    let db = Db::open(fenv.clone(), "db", opts(true)).unwrap();
    for i in 0..5 {
        db.put(&key(i), &val(i)).unwrap();
    }
    fenv.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Append, 0)),
        match_path: Some(".ldb".to_string()),
        ..FaultPlan::default()
    });
    let err = db.flush().expect_err("background flush fault must surface");
    assert!(err.is_io(), "want Io, got {err:?}");
    drop(db);
    // Nothing acked was lost: the WAL still holds everything.
    let db = Db::open(mem.deep_clone(), "db", opts(false)).unwrap();
    for i in 0..5 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
}

// ---------------------------------------------------------------------------
// Recovery accounting
// ---------------------------------------------------------------------------

/// `IoStats` reports how much work recovery did: one `wal_replays` per
/// replayed record, `manifest_replays` for the version edits, and
/// `injected_faults` mirrored from the fault env.
#[test]
fn recovery_work_is_accounted() {
    let mem = MemEnv::new();
    let mut o = opts(false);
    o.write_buffer_size = 1 << 20;
    let db = Db::open(mem.clone(), "db", o.clone()).unwrap();
    for i in 0..7 {
        db.put(&key(i), &val(i)).unwrap();
    }
    drop(db);

    let db = Db::open(mem.clone(), "db", o.clone()).unwrap();
    let s = db.stats().snapshot();
    assert_eq!(s.wal_replays, 7, "one replay per WAL record");
    assert!(s.manifest_replays >= 1, "recovery replays manifest edits");
    assert_eq!(s.injected_faults, 0);
    db.flush().unwrap();
    drop(db);

    // After a flush the WAL is empty: nothing to replay.
    let db = Db::open(mem.clone(), "db", o.clone()).unwrap();
    assert_eq!(db.stats().snapshot().wal_replays, 0);
    drop(db);

    // Injected faults are mirrored into the db's own stats on request.
    let fenv = FaultEnv::new(mem.clone());
    let db = Db::open(fenv.clone(), "db", o).unwrap();
    fenv.mirror_stats(db.stats());
    fenv.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Append, 0)),
        match_path: Some(".log".to_string()),
        ..FaultPlan::default()
    });
    assert!(db.put(b"k", b"v").is_err());
    assert_eq!(fenv.faults_injected(), 1);
    assert_eq!(db.stats().snapshot().injected_faults, 1);
}

// ---------------------------------------------------------------------------
// Property-based crashes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workload, random crash fraction, both modes: the recovery
    /// invariants hold.
    #[test]
    fn prop_random_crash_recovers_acked_prefix(
        seed in any::<u64>(),
        len in 8usize..32,
        crash_fraction in 0.0f64..1.0,
        background in any::<bool>(),
    ) {
        let ops = script(len, seed);
        let probe = run_once(&ops, background, None);
        let k = ((probe.total_ops as f64) * crash_fraction) as u64;
        let run = run_once(&ops, background, Some(k));
        check_recovery(
            run.image,
            &run.model,
            &format!("prop seed={seed} len={len} k={k} bg={background}"),
        );
    }
}
