//! Crash-recovery harness for `SecondaryDb`: all five index techniques.
//!
//! A scripted PUT/DELETE workload over a small attribute domain runs against
//! a [`FaultEnv`]; for every I/O-operation index the filesystem is frozen
//! mid-write, deep-cloned, and reopened cold. After recovery:
//!
//! * the primary table holds exactly the acknowledged operations (plus, at
//!   most, the single in-flight operation the crash interrupted — its
//!   record can reach the log without the acknowledgement reaching the
//!   caller);
//! * **index ≡ primary**: a record and its index entries are one log
//!   record, so `check_integrity` reports no violation at all — no
//!   `IndexMismatch`, with no tolerance — every acknowledged PUT is
//!   both GETtable and LOOKUPable, and every index answers `LOOKUP` and
//!   `RANGELOOKUP` **identically to a model rebuilt from the recovered
//!   primary** (a false negative is permanent data loss);
//! * the reopened database accepts new writes and indexes them.
//!
//! Each index kind is swept in both foreground and background mode; set
//! `CRASH_SWEEP_FULL=1` to sweep every operation index instead of the
//! capped default. Two further sweeps aim at the seams of the one-log
//! design: with `wal_sync`, the crash points between a commit's WAL append
//! and its memtable inserts; and the crash points of a *recovering* open,
//! where each index tree flushes and commits its own progress.

use ldbpp_common::json::Value;
use ldbpp_core::{CheckCode, Document, IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::db::DbOptions;
use ldbpp_lsm::env::{FaultEnv, MemEnv};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const ATTR: &str = "Color";

const ALL_KINDS: [IndexKind; 5] = [
    IndexKind::Embedded,
    IndexKind::EagerStandalone,
    IndexKind::LazyStandalone,
    IndexKind::CompositeStandalone,
    IndexKind::None,
];

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `Put(pk, color, salt)` — upsert document `pk` with `Color = color`.
    Put(usize, usize, usize),
    Del(usize),
    Flush,
    Compact,
}

fn pk(i: usize) -> String {
    format!("pk{}", i % 6)
}

fn color(c: usize) -> Value {
    Value::str(format!("c{}", c % 4))
}

fn doc(c: usize, salt: usize) -> Document {
    let mut d = Document::new();
    d.set(ATTR, color(c));
    d.set("Salt", Value::Int(salt as i64));
    d.set("Pad", Value::str("y".repeat(40)));
    d
}

fn script(len: usize, seed: u64) -> Vec<Op> {
    let mut x = seed;
    let mut next = move |m: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    (0..len)
        .map(|i| match next(10) {
            0..=6 => Op::Put(next(6) as usize, next(4) as usize, i),
            7 => Op::Del(next(6) as usize),
            8 => Op::Flush,
            _ => Op::Compact,
        })
        .collect()
}

/// Primary-table model: pk → (color index, salt).
type Model = BTreeMap<String, (usize, usize)>;

fn apply(model: &mut Model, op: &Op) {
    match op {
        Op::Put(k, c, salt) => {
            model.insert(pk(*k), (*c % 4, *salt));
        }
        Op::Del(k) => {
            model.remove(&pk(*k));
        }
        Op::Flush | Op::Compact => {}
    }
}

/// How a run's engine is configured.
#[derive(Debug, Clone, Copy)]
struct Mode {
    background: bool,
    wal_sync: bool,
}

impl From<bool> for Mode {
    fn from(background: bool) -> Mode {
        Mode {
            background,
            wal_sync: false,
        }
    }
}

fn opts(mode: Mode) -> SecondaryDbOptions {
    let mut base = DbOptions::small();
    base.write_buffer_size = 1536;
    base.max_file_size = 1024;
    base.l0_compaction_trigger = 2;
    base.background_work = mode.background;
    base.wal_sync = mode.wal_sync;
    SecondaryDbOptions {
        base,
        ..Default::default()
    }
}

fn open_db(
    env: Arc<MemEnv>,
    kind: IndexKind,
    mode: impl Into<Mode>,
) -> ldbpp_common::Result<SecondaryDb> {
    open_db_fault(FaultEnv::new(env), kind, mode)
}

fn open_db_fault(
    env: Arc<FaultEnv>,
    kind: IndexKind,
    mode: impl Into<Mode>,
) -> ldbpp_common::Result<SecondaryDb> {
    SecondaryDb::open(env, "db", opts(mode.into()), &[(ATTR, kind)])
}

fn sweep_points(total: u64) -> Vec<u64> {
    let full = std::env::var("CRASH_SWEEP_FULL").is_ok_and(|v| v == "1");
    let cap: u64 = 250;
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
    image: Arc<MemEnv>,
    /// Fold of the acknowledged operations.
    acked: Model,
    /// Fold of the acked operations plus the first failed one — the
    /// in-flight state a crash can legitimately persist.
    with_inflight: Model,
    total_ops: u64,
}

fn run_once(
    ops: &[Op],
    kind: IndexKind,
    mode: impl Into<Mode>,
    crash_at: Option<u64>,
) -> RunResult {
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    if let Some(k) = crash_at {
        fenv.set_crash_point(k);
    }
    let mut acked = Model::new();
    let mut with_inflight: Option<Model> = None;
    let db = open_db_fault(fenv.clone(), kind, mode);
    if let Ok(db) = &db {
        for op in ops {
            let ok = match op {
                Op::Put(k, c, salt) => db.put(pk(*k), &doc(*c, *salt)).is_ok(),
                Op::Del(k) => db.delete(pk(*k)).is_ok(),
                // Maintenance ops don't change contents and carry no
                // durability promise — keep them out of ack tracking.
                Op::Flush => {
                    let _ = db.flush();
                    continue;
                }
                Op::Compact => {
                    let _ = db.primary().compact();
                    continue;
                }
            };
            if ok {
                assert!(
                    with_inflight.is_none(),
                    "op acked after an earlier crash-failed op — acks must form a prefix"
                );
                apply(&mut acked, op);
            } else if with_inflight.is_none() {
                let mut m = acked.clone();
                apply(&mut m, op);
                with_inflight = Some(m);
            }
        }
    }
    drop(db); // joins background workers before the image is frozen
    RunResult {
        image: mem.deep_clone(),
        with_inflight: with_inflight.unwrap_or_else(|| acked.clone()),
        acked,
        total_ops: fenv.op_count(),
    }
}

fn model_doc_matches(doc: &Document, (c, salt): (usize, usize)) -> bool {
    doc.get(ATTR) == Some(&color(c)) && doc.get("Salt") == Some(&Value::Int(salt as i64))
}

/// Reopen the crashed image and verify every recovery invariant. Returns
/// the recovered primary contents.
fn check_recovery(run: &RunResult, kind: IndexKind, context: &str) -> Model {
    let db = open_db(run.image.deep_clone(), kind, false)
        .unwrap_or_else(|e| panic!("reopen must succeed ({context}): {e}"));

    // -- Structure: primary and every index table pass the invariant
    //    catalogue, including the exact index ≡ primary comparison. --
    let report = db.check_integrity();
    assert!(
        !report.has(CheckCode::IndexMismatch) && report.is_clean(),
        "integrity violations after recovery ({context}):\n{report}"
    );

    // -- Primary: exactly the acked fold, or acked + the in-flight op. --
    let mut recovered = Model::new();
    {
        let mut it = db.primary().resolved_iter().expect("resolved_iter");
        it.seek_to_first();
        while let Some((k, _seq, v)) = it.next_entry().expect("scan recovered primary") {
            let d = Document::parse(&v).expect("recovered value must parse");
            let c = (0..4)
                .find(|c| d.get(ATTR) == Some(&color(*c)))
                .unwrap_or_else(|| panic!("unknown color in recovered doc ({context})"));
            let salt = match d.get("Salt") {
                Some(Value::Int(s)) => *s as usize,
                other => panic!("bad Salt {other:?} ({context})"),
            };
            recovered.insert(String::from_utf8(k).unwrap(), (c, salt));
        }
    }
    assert!(
        recovered == run.acked || recovered == run.with_inflight,
        "recovered primary is neither the acked fold nor acked+inflight \
         ({context})\n got: {recovered:?}\n acked: {:?}\n with_inflight: {:?}",
        run.acked,
        run.with_inflight
    );

    // -- Every acknowledged PUT (that the in-flight operation did not
    //    overwrite) is GETtable and LOOKUPable. --
    for (k, (c, salt)) in &run.acked {
        if recovered.get(k) != Some(&(*c, *salt)) {
            continue;
        }
        let got = db
            .get(k)
            .unwrap()
            .unwrap_or_else(|| panic!("acked {k} lost ({context})"));
        assert!(
            model_doc_matches(&got, (*c, *salt)),
            "acked {k} stale ({context})"
        );
        let hits = db.lookup(ATTR, &color(*c), None).unwrap();
        assert!(
            hits.iter().any(|h| h.key == k.as_bytes()),
            "acked {k} not LOOKUPable ({context})"
        );
    }

    // -- Indexes: identical answers to a model over the recovered primary. --
    for c in 0..4 {
        let expect: BTreeSet<String> = recovered
            .iter()
            .filter(|(_, (rc, _))| *rc == c)
            .map(|(k, _)| k.clone())
            .collect();
        let hits = db
            .lookup(ATTR, &color(c), None)
            .unwrap_or_else(|e| panic!("lookup c{c} failed ({context}): {e}"));
        let got: BTreeSet<String> = hits
            .iter()
            .map(|h| String::from_utf8(h.key.clone()).unwrap())
            .collect();
        assert_eq!(got.len(), hits.len(), "duplicate lookup hits ({context})");
        assert_eq!(got, expect, "LOOKUP(c{c}) diverges from model ({context})");
        for h in &hits {
            assert!(
                model_doc_matches(
                    &h.doc,
                    recovered[&String::from_utf8(h.key.clone()).unwrap()]
                ),
                "lookup returned a stale document ({context})"
            );
        }
        // Top-1 must come from the same answer set.
        let top = db.lookup(ATTR, &color(c), Some(1)).unwrap();
        assert_eq!(top.len(), expect.len().min(1));
        for h in &top {
            assert!(got.contains(&String::from_utf8(h.key.clone()).unwrap()));
        }
    }

    // RANGELOOKUP over the middle of the domain: c1..=c2.
    let expect: BTreeSet<String> = recovered
        .iter()
        .filter(|(_, (rc, _))| *rc == 1 || *rc == 2)
        .map(|(k, _)| k.clone())
        .collect();
    let got: BTreeSet<String> = db
        .range_lookup(ATTR, &color(1), &color(2), None)
        .unwrap_or_else(|e| panic!("range_lookup failed ({context}): {e}"))
        .into_iter()
        .map(|h| String::from_utf8(h.key).unwrap())
        .collect();
    assert_eq!(
        got, expect,
        "RANGELOOKUP(c1..=c2) diverges from model ({context})"
    );

    // -- Usability: new writes are accepted and indexed. --
    db.put("fresh", &doc(3, 9999)).expect("post-recovery put");
    let hits = db.lookup(ATTR, &color(3), None).unwrap();
    assert!(
        hits.iter().any(|h| h.key == b"fresh"),
        "post-recovery write not indexed ({context})"
    );
    recovered
}

fn crash_sweep(kind: IndexKind, background: bool) {
    let full = std::env::var("CRASH_SWEEP_FULL").is_ok_and(|v| v == "1");
    let ops = script(if full { 60 } else { 24 }, 0xFEEDBEEF);
    let probe = run_once(&ops, kind, background, None);
    check_recovery(&probe, kind, &format!("{kind:?} no crash"));
    assert!(
        probe.total_ops > 60,
        "workload too small to exercise crash recovery ({} ops)",
        probe.total_ops
    );
    for k in sweep_points(probe.total_ops) {
        let run = run_once(&ops, kind, background, Some(k));
        check_recovery(
            &run,
            kind,
            &format!(
                "{kind:?} crash at op {k}/{} bg={background}",
                probe.total_ops
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// The ten sweeps: five index techniques × two modes
// ---------------------------------------------------------------------------

#[test]
fn crash_sweep_embedded() {
    crash_sweep(IndexKind::Embedded, false);
}

#[test]
fn crash_sweep_embedded_background() {
    crash_sweep(IndexKind::Embedded, true);
}

#[test]
fn crash_sweep_eager() {
    crash_sweep(IndexKind::EagerStandalone, false);
}

#[test]
fn crash_sweep_eager_background() {
    crash_sweep(IndexKind::EagerStandalone, true);
}

#[test]
fn crash_sweep_lazy() {
    crash_sweep(IndexKind::LazyStandalone, false);
}

#[test]
fn crash_sweep_lazy_background() {
    crash_sweep(IndexKind::LazyStandalone, true);
}

#[test]
fn crash_sweep_composite() {
    crash_sweep(IndexKind::CompositeStandalone, false);
}

#[test]
fn crash_sweep_composite_background() {
    crash_sweep(IndexKind::CompositeStandalone, true);
}

#[test]
fn crash_sweep_unindexed() {
    crash_sweep(IndexKind::None, false);
}

#[test]
fn crash_sweep_unindexed_background() {
    crash_sweep(IndexKind::None, true);
}

// ---------------------------------------------------------------------------
// The seams of the one-log design
// ---------------------------------------------------------------------------

/// With `wal_sync` every commit is an append, then a sync, then the
/// memtable inserts. A crash at the sync leaves the record in the log and
/// in no memtable — neither the primary's nor any index tree's: the caller
/// saw an error, and recovery must bring the operation back whole (record
/// *and* index entries) or not at all.
#[test]
fn crash_sweep_between_wal_append_and_memtable_apply() {
    let ops = script(16, 0xA11CE);
    for kind in ALL_KINDS {
        for background in [false, true] {
            let mode = Mode {
                background,
                wal_sync: true,
            };
            let probe = run_once(&ops, kind, mode, None);
            let mut came_back_whole = 0;
            for k in sweep_points(probe.total_ops) {
                let run = run_once(&ops, kind, mode, Some(k));
                let context = format!("{kind:?} synced crash at op {k} bg={background}");
                let recovered = check_recovery(&run, kind, &context);
                if recovered != run.acked {
                    came_back_whole += 1;
                }
            }
            assert!(
                came_back_whole > 0,
                "{kind:?} bg={background}: no crash point landed between append and apply"
            );
        }
    }
}

/// Crash a *recovering* open at every one of its operations. Recovery
/// replays the one log into every tree and each index tree's flush commits
/// that tree's progress in its own MANIFEST, before the primary's; the
/// next open must skip exactly what each tree already holds. (The Lazy
/// index's operands are MERGEs: `shard_log_test.rs` in `ldbpp-lsm` pins
/// that none is applied twice with an operator that would show it.)
#[test]
fn crash_sweep_during_recovery_flush_of_index_trees() {
    let ops = script(24, 0xFEEDBEEF);
    for kind in ALL_KINDS {
        for background in [false, true] {
            // A dirty image: tables in both trees plus an unflushed log.
            let probe = run_once(&ops, kind, background, None);
            let base = run_once(&ops, kind, background, Some(probe.total_ops * 7 / 8));
            let recovering = FaultEnv::new(base.image.deep_clone());
            drop(open_db_fault(recovering.clone(), kind, false).expect("probe reopen"));
            for j in sweep_points(recovering.op_count()) {
                let image = base.image.deep_clone();
                let fenv = FaultEnv::new(image.clone());
                fenv.set_crash_point(j);
                // The interrupted open may succeed or fail; either way the
                // image it leaves behind must recover to the same contents.
                drop(open_db_fault(fenv, kind, false));
                let run = RunResult {
                    image,
                    acked: base.acked.clone(),
                    with_inflight: base.with_inflight.clone(),
                    total_ops: 0,
                };
                check_recovery(
                    &run,
                    kind,
                    &format!("{kind:?} bg={background} recovery crash at op {j}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned regressions
// ---------------------------------------------------------------------------

/// Pinned regression: a crash splitting a single PUT must never produce a
/// false negative.
///
/// `SecondaryDb::put` used to write the primary before the stand-alone
/// indexes; a crash in between persisted the document with no index entry —
/// a *permanent* false negative (validation can absorb extra index entries,
/// never missing ones). The document and its index entries are now one log
/// record: there is no in-between. This sweeps every operation index of
/// one PUT and demands any primary-visible document be found through the
/// index.
#[test]
fn regression_crash_inside_put_never_loses_index_entry() {
    for kind in [
        IndexKind::EagerStandalone,
        IndexKind::LazyStandalone,
        IndexKind::CompositeStandalone,
    ] {
        let probe = run_once(&[Op::Put(0, 2, 7)], kind, false, None);
        for k in 0..probe.total_ops {
            let run = run_once(&[Op::Put(0, 2, 7)], kind, false, Some(k));
            let db = open_db(run.image.deep_clone(), kind, false)
                .unwrap_or_else(|e| panic!("reopen ({kind:?} k={k}): {e}"));
            if db.get(pk(0)).unwrap().is_some() {
                let hits = db.lookup(ATTR, &color(2), None).unwrap();
                assert!(
                    hits.iter().any(|h| h.key == pk(0).as_bytes()),
                    "{kind:?}: primary-visible put missing from index after crash at op {k}"
                );
            }
        }
    }
}

/// Pinned regression: the index list may change while index operations
/// sit unflushed in the log.
///
/// The log numbered the shard's index trees by their position in the list
/// of the open that wrote it, and the replaying open read the numbers
/// against its *own* list: declaring a second index in front of the first
/// sent every unflushed posting to the wrong tree — 20 acknowledged
/// records, none of them LOOKUPable, for good. A log file now names the
/// trees its numbers stand for.
#[test]
fn regression_unflushed_index_operations_survive_a_changed_index_list() {
    let env = MemEnv::new();
    let open = |specs: &[(&str, IndexKind)]| {
        SecondaryDb::open(env.clone(), "db", opts(false.into()), specs).unwrap()
    };
    let (lazy, composite) = (IndexKind::LazyStandalone, IndexKind::CompositeStandalone);
    let db = open(&[(ATTR, lazy)]);
    for i in 0..20 {
        db.put(format!("k{i:02}"), &doc(i, i)).unwrap();
    }
    drop(db); // a crash: nothing was flushed
    for specs in [
        [("Salt", composite), (ATTR, lazy)], // extended in front
        [(ATTR, lazy), ("Salt", composite)], // reordered
    ] {
        let db = open(&specs);
        db.backfill_indexes().unwrap();
        let by_color: usize = (0..4)
            .map(|c| db.lookup(ATTR, &color(c), None).unwrap().len())
            .sum();
        assert_eq!(by_color, 20, "{specs:?}");
        let by_salt = db.range_lookup("Salt", &Value::Int(0), &Value::Int(19), None);
        assert_eq!(by_salt.unwrap().len(), 20, "{specs:?}");
        let report = db.check_integrity();
        assert!(report.is_clean(), "{specs:?}: {:?}", report.violations);
        // Leave the next open a log that numbers the trees this way round.
        db.put("k00", &doc(0, 0)).unwrap();
    }
}

/// Pinned regression: a crash cannot split a DELETE — the tombstone and the
/// index cleanup are one log record — and never resurrects a document.
#[test]
fn regression_crash_inside_delete_leaves_no_ghosts() {
    for kind in [
        IndexKind::EagerStandalone,
        IndexKind::LazyStandalone,
        IndexKind::CompositeStandalone,
    ] {
        let ops = [Op::Put(0, 2, 7), Op::Flush, Op::Del(0)];
        let probe = run_once(&ops, kind, false, None);
        for k in 0..probe.total_ops {
            let run = run_once(&ops, kind, false, Some(k));
            let db = open_db(run.image.deep_clone(), kind, false)
                .unwrap_or_else(|e| panic!("reopen ({kind:?} k={k}): {e}"));
            let present = db.get(pk(0)).unwrap().is_some();
            let hits = db.lookup(ATTR, &color(2), None).unwrap();
            let found = hits.iter().any(|h| h.key == pk(0).as_bytes());
            assert_eq!(
                found, present,
                "{kind:?}: index and primary disagree about a deleted doc \
                 after crash at op {k}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property-based crashes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random workload, random crash point, random index technique, both
    /// modes: full primary/secondary equivalence after recovery.
    #[test]
    fn prop_random_crash_keeps_indexes_equivalent(
        seed in any::<u64>(),
        len in 6usize..20,
        crash_fraction in 0.0f64..1.0,
        kind_sel in 0usize..5,
        background in any::<bool>(),
    ) {
        let kind = ALL_KINDS[kind_sel];
        let ops = script(len, seed);
        let probe = run_once(&ops, kind, background, None);
        let k = ((probe.total_ops as f64) * crash_fraction) as u64;
        let run = run_once(&ops, kind, background, Some(k));
        check_recovery(
            &run,
            kind,
            &format!("prop {kind:?} seed={seed} len={len} k={k} bg={background}"),
        );
    }
}
