//! Model (b): scatter-gather reads racing writes on the shared
//! sequence clock (DESIGN.md §15).
//!
//! Three bounded scenarios over a real [`SecondaryDb`]:
//!
//! * [`scan_vs_put`] — a two-shard store; one writer puts two keys on
//!   *different* shards back-to-back while a reader runs a
//!   scatter-gather `scan_primary`. The oracle demands linearizability:
//!   the scan must not return the second put's key without the first —
//!   exactly the cross-shard read-skew the per-shard snapshot pinning
//!   (pinned `SharedSequence::current()` fanned out to every shard's
//!   cursor) exists to prevent.
//! * [`eager_range`] — a single shard with an Eager index whose
//!   prepopulated posting lists contain a stale high-sequence entry; a
//!   reader's `range_lookup(K=2)` races an unrelated writer. With the
//!   seeded PR 7 K-prefix truncation re-enabled, the stale entry crowds
//!   a valid candidate out of the heap and the lookup under-fills K.
//! * [`delete_vs_lookup`] — a delete races an index reader on an
//!   Eager-indexed shard. The tombstone and the index cleanup are one
//!   commit, published at once: no window exists in which the lookup
//!   misses a record a later point-get still finds, and the WGL checker
//!   accepts every history.

use crate::explore::Instance;
use crate::lin::{check_linearizable, Recorder, Spec};
use ldbpp_common::json::Value;
use ldbpp_core::{CheckCode, Document, IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::env::MemEnv;
use ldbpp_lsm::model_bugs::{self, Fault};
use std::collections::BTreeSet;
use std::sync::Arc;

/// History operations for the linearizability-checked scenarios.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `SecondaryDb::put(pk, {})` (scan scenario) or
    /// `put(pk, {A: 999})` (range scenario).
    Put(String),
    /// `SecondaryDb::scan_primary` over the whole key range.
    Scan,
    /// `SecondaryDb::range_lookup("A", 1, 3, K=2)`.
    Range,
    /// `SecondaryDb::delete(pk)`.
    Delete(String),
    /// `SecondaryDb::lookup("A", 7, None)`.
    Lookup,
    /// `SecondaryDb::get(pk)`.
    Get(String),
}

/// Observed return values.
#[derive(Debug, Clone, PartialEq)]
pub enum Ret {
    /// Sequence number a put returned.
    Seq(u64),
    /// Primary keys a scan or range lookup returned, in result order.
    Keys(Vec<String>),
    /// Whether a point-get found a record.
    Found(bool),
    /// A delete completed.
    Unit,
}

fn open(shards: usize, specs: &[(&str, IndexKind)]) -> Arc<SecondaryDb> {
    let opts = SecondaryDbOptions {
        base: super::model_opts(),
        shards,
        ..Default::default()
    };
    Arc::new(SecondaryDb::open(MemEnv::new(), "sc", opts, specs).expect("open"))
}

fn doc(attr: i64) -> Document {
    let mut d = Document::new();
    d.set("A", Value::Int(attr));
    d
}

// ---------------------------------------------------------------------------
// scan_vs_put
// ---------------------------------------------------------------------------

/// Serial oracle for [`scan_vs_put`]: a sequence counter plus the set
/// of inserted keys; a scan returns the set in key order.
struct ScanSpec;

impl Spec for ScanSpec {
    type Op = Op;
    type Ret = Ret;
    type State = (u64, BTreeSet<String>);

    fn init(&self) -> Self::State {
        (0, BTreeSet::new())
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        let mut next = state.clone();
        match op {
            Op::Put(pk) => {
                next.0 += 1;
                next.1.insert(pk.clone());
                let seq = next.0;
                (next, Ret::Seq(seq))
            }
            Op::Scan => {
                let keys = state.1.iter().cloned().collect();
                (next, Ret::Keys(keys))
            }
            _ => unreachable!("no other ops in this scenario"),
        }
    }
}

/// Two shards, one writer putting a key on each shard in order, one
/// scatter-gather scanner. Clean iff cross-shard scans are snapshot
/// consistent.
pub fn scan_vs_put() -> Instance {
    super::reset_faults();
    let db = open(2, &[]);
    // Two keys that hash-route to different shards, named so the
    // shard-0 key sorts first (the read-skew witness needs the scan to
    // visit the first-written key's shard before the second's).
    let mut on0 = None;
    let mut on1 = None;
    for i in 0..64 {
        let k = format!("k{i:02}");
        match db.shard_of(&k) {
            0 if on0.is_none() => on0 = Some(k),
            1 if on1.is_none() => on1 = Some(k),
            _ => {}
        }
    }
    let (first, second) = (on0.expect("shard-0 key"), on1.expect("shard-1 key"));
    let rec = Recorder::<Op, Ret>::new();

    let writer = {
        let db = Arc::clone(&db);
        let rec = Arc::clone(&rec);
        let (first, second) = (first.clone(), second.clone());
        move || {
            for pk in [first, second] {
                let inv = rec.invoke();
                let seq = db.put(&pk, &Document::new()).expect("put");
                rec.finish(inv, Op::Put(pk), Ret::Seq(seq));
            }
        }
    };
    let scanner = {
        let db = Arc::clone(&db);
        let rec = Arc::clone(&rec);
        move || {
            let inv = rec.invoke();
            let rows = db.scan_primary("k", "kzz", None).expect("scan");
            let keys = rows
                .into_iter()
                .map(|(pk, _)| String::from_utf8(pk).expect("utf8 pk"))
                .collect();
            rec.finish(inv, Op::Scan, Ret::Keys(keys));
        }
    };

    Instance {
        threads: vec![
            ("writer".to_string(), Box::new(writer)),
            ("scanner".to_string(), Box::new(scanner)),
        ],
        check: Box::new(move || check_linearizable(&ScanSpec, &rec.take())),
    }
}

// ---------------------------------------------------------------------------
// eager_range
// ---------------------------------------------------------------------------

/// Serial oracle for [`eager_range`]: the prepopulated index state is
/// fixed and the concurrent writer stays outside the queried range, so
/// the range lookup has exactly one correct answer.
struct RangeSpec;

impl Spec for RangeSpec {
    type Op = Op;
    type Ret = Ret;
    type State = u64;

    fn init(&self) -> Self::State {
        5 // five prepopulation puts
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        match op {
            Op::Put(_) => (state + 1, Ret::Seq(state + 1)),
            Op::Range => (
                *state,
                Ret::Keys(vec!["pk3".to_string(), "pk2".to_string()]),
            ),
            _ => unreachable!("no other ops in this scenario"),
        }
    }
}

/// Single Eager-indexed shard with a stale high-sequence posting; a
/// K=2 range lookup races an out-of-range writer. `k_prefix_bug`
/// re-enables the PR 7 truncation of the candidates to K before
/// validation.
pub fn eager_range(k_prefix_bug: bool) -> Instance {
    super::reset_faults();
    model_bugs::set(Fault::EagerKPrefix, k_prefix_bug);
    let db = open(1, &[("A", IndexKind::EagerStandalone)]);
    // Prepopulate (sequences 1..=5). The two updates of pk1 leave a
    // stale `(pk1, seq 4)` posting at the top of value 2's list while
    // pk1's live value (100) is outside the queried range [1, 3].
    db.put("pk1", &doc(1)).expect("prep");
    db.put("pk2", &doc(2)).expect("prep");
    db.put("pk3", &doc(3)).expect("prep");
    db.put("pk1", &doc(2)).expect("prep");
    db.put("pk1", &doc(100)).expect("prep");
    let rec = Recorder::<Op, Ret>::new();

    let writer = {
        let db = Arc::clone(&db);
        let rec = Arc::clone(&rec);
        move || {
            let inv = rec.invoke();
            let seq = db.put("pk4", &doc(999)).expect("put");
            rec.finish(inv, Op::Put("pk4".to_string()), Ret::Seq(seq));
        }
    };
    let reader = {
        let db = Arc::clone(&db);
        let rec = Arc::clone(&rec);
        move || {
            let inv = rec.invoke();
            let hits = db
                .range_lookup("A", &Value::Int(1), &Value::Int(3), Some(2))
                .expect("range_lookup");
            let keys = hits
                .into_iter()
                .map(|h| String::from_utf8(h.key).expect("utf8 pk"))
                .collect();
            rec.finish(inv, Op::Range, Ret::Keys(keys));
        }
    };

    Instance {
        threads: vec![
            ("writer".to_string(), Box::new(writer)),
            ("reader".to_string(), Box::new(reader)),
        ],
        check: Box::new(move || check_linearizable(&RangeSpec, &rec.take())),
    }
}

// ---------------------------------------------------------------------------
// delete_vs_lookup
// ---------------------------------------------------------------------------

/// Serial oracle for [`delete_vs_lookup`]: one live record, one delete.
/// A lookup sees the record iff it linearizes before the delete, and a
/// point-get must agree — once a lookup has observed the deletion, no
/// later operation may resurrect the record.
struct DeleteSpec;

impl Spec for DeleteSpec {
    type Op = Op;
    type Ret = Ret;
    type State = bool; // is "px" still live?

    fn init(&self) -> Self::State {
        true
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        match op {
            Op::Delete(_) => (false, Ret::Unit),
            Op::Lookup => {
                let keys = if *state {
                    vec!["px".to_string()]
                } else {
                    Vec::new()
                };
                (*state, Ret::Keys(keys))
            }
            Op::Get(_) => (*state, Ret::Found(*state)),
            _ => unreachable!("no other ops in this scenario"),
        }
    }
}

/// A delete racing a reader (index lookup, then point-get) on an
/// Eager-indexed shard. The primary tombstone and the rewritten posting
/// list become visible in one publish, so every window is linearizable:
/// `Lookup -> []` is never followed by `Get -> found`.
///
/// The final state must additionally pass the index ≡ primary check with
/// no mismatch.
pub fn delete_vs_lookup() -> Instance {
    super::reset_faults();
    let db = open(1, &[("A", IndexKind::EagerStandalone)]);
    db.put("px", &doc(7)).expect("prep");
    let rec = Recorder::<Op, Ret>::new();

    let deleter = {
        let db = Arc::clone(&db);
        let rec = Arc::clone(&rec);
        move || {
            let inv = rec.invoke();
            db.delete("px").expect("delete");
            rec.finish(inv, Op::Delete("px".to_string()), Ret::Unit);
        }
    };
    let reader = {
        let db = Arc::clone(&db);
        let rec = Arc::clone(&rec);
        move || {
            let inv = rec.invoke();
            let hits = db.lookup("A", &Value::Int(7), None).expect("lookup");
            let keys = hits
                .into_iter()
                .map(|h| String::from_utf8(h.key).expect("utf8 pk"))
                .collect();
            rec.finish(inv, Op::Lookup, Ret::Keys(keys));
            let inv = rec.invoke();
            let found = db.get("px").expect("get").is_some();
            rec.finish(inv, Op::Get("px".to_string()), Ret::Found(found));
        }
    };

    Instance {
        threads: vec![
            ("deleter".to_string(), Box::new(deleter)),
            ("reader".to_string(), Box::new(reader)),
        ],
        check: Box::new(move || {
            check_linearizable(&DeleteSpec, &rec.take())?;
            let report = db.check_integrity();
            let mismatches: Vec<String> = report
                .violations
                .iter()
                .filter(|v| v.code == CheckCode::IndexMismatch)
                .map(|v| v.detail.clone())
                .collect();
            if mismatches.is_empty() {
                Ok(())
            } else {
                Err(format!("index ≢ primary: {}", mismatches.join("; ")))
            }
        }),
    }
}
