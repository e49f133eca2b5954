//! Model (a): group-commit leader handoff + sequence rebase
//! (DESIGN.md §14).
//!
//! Two writers race `Db::put` on one engine — the schedule space covers
//! both one-batch-each and leader-collects-both groupings, plus every
//! placement of the leader handoff — while a reader polls
//! `last_sequence()` and point-reads both keys. The oracle is a serial
//! KV map with a monotone sequence counter: puts must return the
//! globally next sequence number and reads must see a prefix-consistent
//! state.
//!
//! [`two_trees`] runs the same race one layer up, where a batch spans
//! two LSM trees: two writers `put` records sharing one attribute value
//! into a shard with a Composite index, and the reader cuts both trees at
//! one published sequence. The oracle is the atomic-commit contract: no
//! index entry without its primary record at the same snapshot, and every
//! entry — and every `LookupHit` — carries its record's own sequence.
//!
//! Seeded faults ([`Config`]):
//!
//! * `early_publish` — `last_seq` is Release-stored *before* the
//!   memtable insert; the vclock `consume` detector fires on the
//!   reader's Acquire load.
//! * `skip_leader_notify` — the retiring leader promotes its successor
//!   without `notify_one`; the lost wakeup surfaces as a deadlock.
//! * `index_before_wal` — the leader inserts and publishes the index
//!   tree's half of a group before the WAL append and the primary
//!   insert; [`two_trees`]' reader finds the orphan entry.

use crate::explore::Instance;
use crate::lin::{check_linearizable, Recorder, Spec};
use ldbpp_common::coding::decode_fixed64;
use ldbpp_common::json::Value;
use ldbpp_core::{Document, IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::Db;
use ldbpp_lsm::env::MemEnv;
use ldbpp_lsm::ikey::ValueType;
use ldbpp_lsm::model_bugs::{self, Fault};
use std::sync::Arc;

/// Seeded-fault switches for this model (all off = correct engine).
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Publish `last_seq` before the memtable insert (bug A).
    pub early_publish: bool,
    /// Drop the condvar notify on leader handoff (bug B).
    pub skip_leader_notify: bool,
    /// Insert and publish index-tree operations before the WAL append
    /// and the primary insert (bug C; only [`two_trees`] has an index).
    pub index_before_wal: bool,
}

impl Config {
    fn install(self) {
        super::reset_faults();
        model_bugs::set(Fault::PublishBeforeInsert, self.early_publish);
        model_bugs::set(Fault::SkipLeaderNotify, self.skip_leader_notify);
        model_bugs::set(Fault::IndexBeforeWal, self.index_before_wal);
    }
}

/// History operations: key puts, point reads, and sequence polls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `Db::put(key, key.to_uppercase())`.
    Put(&'static str),
    /// `Db::get(key)`.
    Read(&'static str),
    /// `Db::last_sequence()`.
    LastSeq,
}

/// Observed return values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ret {
    /// Sequence number a put or `LastSeq` returned.
    Seq(u64),
    /// Value a read returned (mapped back to the static key set).
    Doc(Option<&'static str>),
}

/// Serial oracle: (last sequence, value of "a", value of "b").
struct KvSpec;

impl Spec for KvSpec {
    type Op = Op;
    type Ret = Ret;
    type State = (u64, Option<&'static str>, Option<&'static str>);

    fn init(&self) -> Self::State {
        (0, None, None)
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        let mut next = *state;
        match op {
            Op::Put("a") => {
                next.0 += 1;
                next.1 = Some("A");
                (next, Ret::Seq(next.0))
            }
            Op::Put(_) => {
                next.0 += 1;
                next.2 = Some("B");
                (next, Ret::Seq(next.0))
            }
            Op::Read("a") => (next, Ret::Doc(state.1)),
            Op::Read(_) => (next, Ret::Doc(state.2)),
            Op::LastSeq => (next, Ret::Seq(state.0)),
        }
    }
}

/// Build one disposable run of the model.
pub fn instance(cfg: Config) -> Instance {
    cfg.install();
    let db = Arc::new(Db::open(MemEnv::new(), "gc", super::model_opts()).expect("open"));
    let rec = Recorder::<Op, Ret>::new();

    fn writer(
        db: Arc<Db>,
        rec: Arc<Recorder<Op, Ret>>,
        key: &'static str,
        val: &'static [u8],
    ) -> impl FnOnce() + Send {
        move || {
            let inv = rec.invoke();
            let seq = db.put(key.as_bytes(), val).expect("put");
            rec.finish(inv, Op::Put(key), Ret::Seq(seq));
        }
    }
    let reader = {
        let db = Arc::clone(&db);
        let rec = Arc::clone(&rec);
        move || {
            let inv = rec.invoke();
            let seq = db.last_sequence();
            rec.finish(inv, Op::LastSeq, Ret::Seq(seq));
            for key in ["a", "b"] {
                let inv = rec.invoke();
                let got = db.get(key.as_bytes()).expect("get");
                let doc = match got.as_deref() {
                    None => None,
                    Some(b"A") => Some("A"),
                    Some(b"B") => Some("B"),
                    Some(other) => panic!("unexpected value {other:?}"),
                };
                rec.finish(inv, Op::Read(key), Ret::Doc(doc));
            }
        }
    };

    let wa = writer(Arc::clone(&db), Arc::clone(&rec), "a", b"A");
    let wb = writer(Arc::clone(&db), Arc::clone(&rec), "b", b"B");
    Instance {
        threads: vec![
            ("writer-a".to_string(), Box::new(wa)),
            ("writer-b".to_string(), Box::new(wb)),
            ("reader".to_string(), Box::new(reader)),
        ],
        check: Box::new(move || {
            let events = rec.take();
            check_linearizable(&KvSpec, &events)?;
            drop(db);
            Ok(())
        }),
    }
}

/// Build one run of the two-tree model: two writers, each one `put`
/// under attribute value 7, into one shard with a Composite index; a
/// reader that cuts the index tree and the primary at one published
/// sequence, then runs a `lookup`.
pub fn two_trees(cfg: Config) -> Instance {
    cfg.install();
    let opts = SecondaryDbOptions {
        base: super::model_opts(),
        ..Default::default()
    };
    let specs = [("A", IndexKind::CompositeStandalone)];
    let db = Arc::new(SecondaryDb::open(MemEnv::new(), "gc2", opts, &specs).expect("open"));
    let seqs = Recorder::<&'static str, u64>::new();

    let writer = |pk: &'static str| {
        let (db, seqs) = (Arc::clone(&db), Arc::clone(&seqs));
        move || {
            let mut doc = Document::new();
            doc.set("A", Value::Int(7));
            let inv = seqs.invoke();
            let seq = db.put(pk, &doc).expect("put");
            seqs.finish(inv, pk, seq);
        }
    };
    let reader = {
        let db = Arc::clone(&db);
        move || {
            let primary = db.primary();
            let index = &primary.trees()[0];
            // One cut through both trees.
            let snap = primary.last_sequence();
            let mut entries = index
                .range_iter_at(b"", &[0xff; 16], snap)
                .expect("index scan");
            while let Some((key, _, value)) = entries.next_entry().expect("index entry") {
                let (_, pk) = AttrValue::decode_composite(&key).expect("composite key");
                let mut record = None;
                primary
                    .fold_key_sources_at(pk, Some(snap), |_, versions| {
                        record = versions.first().map(|(vtype, _, seq)| (*vtype, *seq));
                        std::ops::ControlFlow::Break(())
                    })
                    .expect("primary read");
                let pk = String::from_utf8_lossy(pk);
                assert_eq!(
                    record,
                    Some((ValueType::Value, decode_fixed64(&value))),
                    "index entry for {pk} without its primary record at snapshot {snap}"
                );
            }
            for hit in db.lookup("A", &Value::Int(7), None).expect("lookup") {
                let record = primary.newest_record(&hit.key).expect("primary read");
                assert_eq!(
                    record.map(|(vtype, seq, _)| (vtype, seq)),
                    Some((ValueType::Value, hit.seq)),
                    "LookupHit.seq is not its record's sequence"
                );
            }
        }
    };

    Instance {
        threads: vec![
            ("writer-a".to_string(), Box::new(writer("a"))),
            ("writer-b".to_string(), Box::new(writer("b"))),
            ("reader".to_string(), Box::new(reader)),
        ],
        check: Box::new(move || {
            // One sequence number per PUT, index entries included.
            let mut got: Vec<u64> = seqs.take().iter().map(|e| e.ret).collect();
            got.sort_unstable();
            if got != [1, 2] {
                return Err(format!("puts returned sequences {got:?}, want [1, 2]"));
            }
            let report = db.check_integrity();
            if !report.is_clean() {
                return Err(format!("integrity violations: {report}"));
            }
            Ok(())
        }),
    }
}
