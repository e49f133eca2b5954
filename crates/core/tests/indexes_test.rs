//! Head-to-head correctness tests: all index techniques must return the
//! same answers as a brute-force model, across flushes, compactions,
//! updates and deletes.

use ldbpp_common::json::Value;
use ldbpp_core::{Document, IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::db::DbOptions;
use ldbpp_lsm::env::MemEnv;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

fn tiny_opts() -> DbOptions {
    DbOptions {
        block_size: 512,
        write_buffer_size: 4 << 10,
        max_file_size: 2 << 10,
        base_level_bytes: 16 << 10,
        ..DbOptions::small()
    }
}

const ALL_KINDS: [IndexKind; 4] = [
    IndexKind::Embedded,
    IndexKind::EagerStandalone,
    IndexKind::LazyStandalone,
    IndexKind::CompositeStandalone,
];

fn tweet(user: usize, time: i64, text: &str) -> Document {
    let mut d = Document::new();
    d.set("UserID", Value::str(format!("u{user}")))
        .set("CreationTime", Value::Int(time))
        .set("Text", Value::str(text));
    d
}

fn open_with(kind: IndexKind) -> SecondaryDb {
    SecondaryDb::open_in_memory(tiny_opts(), &[("UserID", kind), ("CreationTime", kind)]).unwrap()
}

/// A brute-force reference: pk → (user, time, seq).
#[derive(Default)]
struct Model {
    rows: HashMap<String, (usize, i64, u64)>,
}

impl Model {
    fn put(&mut self, pk: &str, user: usize, time: i64, seq: u64) {
        self.rows.insert(pk.to_string(), (user, time, seq));
    }
    fn delete(&mut self, pk: &str) {
        self.rows.remove(pk);
    }
    /// The K newest `(pk, seq)` whose row matches `q`, newest first.
    fn query(&self, q: &Query, k: Option<usize>) -> Vec<(String, u64)> {
        let mut hits: Vec<(String, u64)> = self
            .rows
            .iter()
            .filter(|(_, &(user, time, _))| q.matches(user, time))
            .map(|(pk, (_, _, seq))| (pk.clone(), *seq))
            .collect();
        hits.sort_by_key(|h| std::cmp::Reverse(h.1));
        hits.truncate(k.unwrap_or(usize::MAX));
        hits
    }
}

/// A LOOKUP (`lo == hi`) or RANGELOOKUP over the tweets' attributes. User
/// ids are strings (`"u3"`), so a user range is a string range, as the
/// benchmark runs it.
#[derive(Debug)]
enum Query {
    User(usize, usize),
    Time(i64, i64),
}

impl Query {
    fn matches(&self, user: usize, time: i64) -> bool {
        match *self {
            Query::User(lo, hi) => (lo..=hi).contains(&user),
            Query::Time(lo, hi) => (lo..=hi).contains(&time),
        }
    }

    fn run(&self, db: &SecondaryDb, k: Option<usize>) -> Vec<(String, u64)> {
        let (attr, lo, hi) = match *self {
            Query::User(lo, hi) => (
                "UserID",
                Value::str(format!("u{lo}")),
                Value::str(format!("u{hi}")),
            ),
            Query::Time(lo, hi) => ("CreationTime", Value::Int(lo), Value::Int(hi)),
        };
        let hits = if lo == hi {
            db.lookup(attr, &lo, k)
        } else {
            db.range_lookup(attr, &lo, &hi, k)
        };
        hit_keys(&hits.unwrap())
    }
}

fn hit_keys(hits: &[ldbpp_core::LookupHit]) -> Vec<(String, u64)> {
    hits.iter()
        .map(|h| (String::from_utf8(h.key.clone()).unwrap(), h.seq))
        .collect()
}

#[test]
fn all_kinds_basic_lookup() {
    for kind in ALL_KINDS {
        let db = open_with(kind);
        for i in 0..200usize {
            db.put(format!("t{i:04}"), &tweet(i % 7, 1000 + i as i64, "hello"))
                .unwrap();
        }
        let hits = db.lookup("UserID", &Value::str("u3"), None).unwrap();
        let expect = (0..200).filter(|i| i % 7 == 3).count();
        assert_eq!(hits.len(), expect, "{kind}: all matches");
        // Newest first.
        for w in hits.windows(2) {
            assert!(w[0].seq > w[1].seq, "{kind}: ordering");
        }
        // Every hit really has the value.
        for h in &hits {
            assert_eq!(h.doc.get("UserID").unwrap().as_str(), Some("u3"));
        }
        // Top-K prefix.
        let top3 = db.lookup("UserID", &Value::str("u3"), Some(3)).unwrap();
        assert_eq!(hit_keys(&top3), hit_keys(&hits)[..3].to_vec(), "{kind}");
        // Absent value.
        assert!(db
            .lookup("UserID", &Value::str("nobody"), None)
            .unwrap()
            .is_empty());
    }
}

#[test]
fn all_kinds_survive_flush_and_compaction() {
    for kind in ALL_KINDS {
        let db = open_with(kind);
        let n = 1200usize;
        for i in 0..n {
            db.put(format!("t{i:05}"), &tweet(i % 25, 1000 + i as i64, "body"))
                .unwrap();
        }
        db.flush().unwrap();
        let counts = db.primary().level_file_counts();
        assert!(
            counts[1..].iter().sum::<usize>() > 0,
            "{kind}: deep levels exist {counts:?}"
        );
        let hits = db.lookup("UserID", &Value::str("u10"), None).unwrap();
        assert_eq!(hits.len(), n / 25, "{kind}");
        let top5 = db.lookup("UserID", &Value::str("u10"), Some(5)).unwrap();
        assert_eq!(hit_keys(&top5), hit_keys(&hits)[..5].to_vec(), "{kind}");
    }
}

#[test]
fn all_kinds_updates_invalidate_stale_entries() {
    for kind in ALL_KINDS {
        let db = open_with(kind);
        // t1 posted by u1, then "moves" to u2 (the paper's Example 3).
        db.put("t1", &tweet(1, 100, "v1")).unwrap();
        db.put("t2", &tweet(1, 101, "v1")).unwrap();
        db.put("t1", &tweet(2, 102, "v2")).unwrap();

        let u1 = db.lookup("UserID", &Value::str("u1"), None).unwrap();
        assert_eq!(
            hit_keys(&u1)
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>(),
            vec!["t2"],
            "{kind}: stale u1 entry for t1 must be filtered"
        );
        let u2 = db.lookup("UserID", &Value::str("u2"), None).unwrap();
        assert_eq!(u2.len(), 1, "{kind}");
        assert_eq!(u2[0].key, b"t1", "{kind}");
    }
}

#[test]
fn all_kinds_deletes_hide_records() {
    for kind in ALL_KINDS {
        let db = open_with(kind);
        for i in 0..50usize {
            db.put(format!("t{i:02}"), &tweet(1, i as i64, "x"))
                .unwrap();
        }
        for i in (0..50usize).step_by(2) {
            db.delete(format!("t{i:02}")).unwrap();
        }
        let hits = db.lookup("UserID", &Value::str("u1"), None).unwrap();
        assert_eq!(hits.len(), 25, "{kind}");
        for h in &hits {
            let id: usize = String::from_utf8(h.key[1..].to_vec())
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(id % 2, 1, "{kind}: deleted tweet {id} leaked");
        }
        // Deletes through a flush too.
        db.flush().unwrap();
        let hits = db.lookup("UserID", &Value::str("u1"), Some(10)).unwrap();
        assert_eq!(hits.len(), 10, "{kind}");
        // RANGELOOKUP hides them as well: a window of deleted records only
        // is empty.
        let window = db
            .range_lookup("CreationTime", &Value::Int(20), &Value::Int(20), None)
            .unwrap();
        assert!(window.is_empty(), "{kind}: deleted tweet t20 in range");
        let window = db
            .range_lookup("CreationTime", &Value::Int(0), &Value::Int(49), None)
            .unwrap();
        assert_eq!(window.len(), 25, "{kind}");
    }
}

#[test]
fn all_kinds_range_lookup_on_time() {
    for kind in ALL_KINDS {
        let db = open_with(kind);
        for i in 0..400usize {
            db.put(format!("t{i:04}"), &tweet(i % 5, 1000 + i as i64, "x"))
                .unwrap();
        }
        let hits = db
            .range_lookup("CreationTime", &Value::Int(1100), &Value::Int(1149), None)
            .unwrap();
        assert_eq!(hits.len(), 50, "{kind}");
        for h in &hits {
            let t = h.doc.get("CreationTime").unwrap().as_int().unwrap();
            assert!((1100..=1149).contains(&t), "{kind}");
        }
        for w in hits.windows(2) {
            assert!(w[0].seq > w[1].seq, "{kind}");
        }
        let top7 = db
            .range_lookup(
                "CreationTime",
                &Value::Int(1100),
                &Value::Int(1149),
                Some(7),
            )
            .unwrap();
        assert_eq!(hit_keys(&top7), hit_keys(&hits)[..7].to_vec(), "{kind}");
        // Empty range.
        assert!(db
            .range_lookup("CreationTime", &Value::Int(1), &Value::Int(2), None)
            .unwrap()
            .is_empty());
        // Inverted range rejected.
        assert!(db
            .range_lookup("CreationTime", &Value::Int(9), &Value::Int(1), None)
            .is_err());
    }
}

/// The seed the oracle has always run; its workload is unchanged.
const PINNED_SEED: u64 = 0x1337;

/// The swept seeds: the pinned one, then seeds derived from it.
/// `INDEX_SWEEP_FULL=1` (set by scripts/ci.sh, in the manner of the crash
/// sweep's `CRASH_SWEEP_FULL`) sweeps more of them.
fn sweep_seeds() -> Vec<u64> {
    let full = std::env::var("INDEX_SWEEP_FULL").is_ok_and(|v| v == "1");
    let derived = if full { 15 } else { 1 };
    let derive = |i: u64| PINNED_SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    std::iter::once(PINNED_SEED)
        .chain((1..=derived).map(derive))
        .collect()
}

#[test]
fn randomized_model_equivalence() {
    // Random interleaving of puts/updates/deletes, swept over seeds, all
    // five techniques, one and two shards and foreground and background
    // maintenance; every query is compared with the brute-force model on
    // `(pk, seq)`.
    let kinds = [
        IndexKind::None,
        ALL_KINDS[0],
        ALL_KINDS[1],
        ALL_KINDS[2],
        ALL_KINDS[3],
    ];
    for seed in sweep_seeds() {
        for kind in kinds {
            for shards in [1, 2] {
                for background_work in [false, true] {
                    let base = DbOptions {
                        background_work,
                        ..tiny_opts()
                    };
                    let db = SecondaryDb::open(
                        MemEnv::new(),
                        "db",
                        SecondaryDbOptions {
                            base,
                            shards,
                            ..Default::default()
                        },
                        &[("UserID", kind), ("CreationTime", kind)],
                    )
                    .unwrap();
                    let ctx = format!("{kind} seed {seed:#x} shards {shards} bg {background_work}");
                    let pinned = seed == PINNED_SEED && shards == 1 && !background_work;
                    check_against_model(&db, seed, kind, pinned, &ctx);
                }
            }
        }
    }
}

/// Drive one database through the seeded workload, querying it every 250
/// steps. Eager, Lazy, Composite and NoIndex must match the model exactly
/// at every K. The Embedded Index is exact at K = ∞; at a bounded K it is
/// held to the paper's contract — every hit current and in range, newest
/// first, `min(K, matches)` of them — because its level-end stop (§3) can
/// return an older match than a deeper level holds. On the pinned
/// configuration every technique also passes the oracle's original
/// strict queries.
fn check_against_model(db: &SecondaryDb, seed: u64, kind: IndexKind, pinned: bool, ctx: &str) {
    let mut model = Model::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recent_times = [0i64; 3];
    for step in 0..1500usize {
        let op: f64 = rng.random();
        if op < 0.75 {
            let pk = format!("t{:03}", rng.random_range(0..300));
            let user = rng.random_range(0..8);
            let time = rng.random_range(0..500i64);
            let seq = db.put(&pk, &tweet(user, time, "body")).unwrap();
            model.put(&pk, user, time, seq);
            recent_times[step % 3] = time;
        } else {
            let pk = format!("t{:03}", rng.random_range(0..300));
            db.delete(&pk).unwrap();
            model.delete(&pk);
        }
        if step % 250 != 249 {
            continue;
        }
        let mut queries: Vec<Query> = (0..8).map(|u| Query::User(u, u)).collect();
        queries.extend([Query::User(1, 3), Query::User(0, 7), Query::User(6, 7)]);
        queries.extend(recent_times.iter().map(|&t| Query::Time(t, t)));
        queries.extend([
            Query::Time(0, 499),
            Query::Time(100, 150),
            Query::Time(400, 450),
        ]);
        for q in &queries {
            let all = model.query(q, None);
            for k in [Some(1), Some(3), Some(10), None] {
                let got = q.run(db, k);
                let want = model.query(q, k);
                let at = format!("{ctx}: step {step} {q:?} k {k:?}");
                if kind != IndexKind::Embedded || k.is_none() {
                    assert_eq!(got, want, "{at}");
                    continue;
                }
                assert_eq!(got.len(), want.len(), "{at}");
                assert!(got.iter().all(|hit| all.contains(hit)), "{at}: {got:?}");
                assert!(got.windows(2).all(|w| w[0].1 > w[1].1), "{at}: {got:?}");
            }
        }
        db.wait_for_background_idle().unwrap();
        let report = db.check_integrity();
        assert!(report.is_clean(), "{ctx}: step {step}: {report}");
        if pinned {
            for user in 0..8 {
                for k in [Some(1), Some(5), None] {
                    let q = Query::User(user, user);
                    assert_eq!(
                        q.run(db, k),
                        model.query(&q, k),
                        "{ctx}: step {step} {q:?} k {k:?}"
                    );
                }
            }
            for (lo, hi) in [(0i64, 499), (100, 150), (400, 450)] {
                let q = Query::Time(lo, hi);
                assert_eq!(
                    q.run(db, Some(10)),
                    model.query(&q, Some(10)),
                    "{ctx}: step {step} {q:?}"
                );
            }
        }
    }
}

/// A Lazy RANGELOOKUP over a layout the level-by-level walk misreads:
/// record `p` first has tag "a", then tag "c". Round-robin compaction has
/// pushed list "c", which holds `(p, new seq)`, to L2, while list "a",
/// holding `(p, old seq)`, is still in L1. A walk that stops at the end of
/// the first level that fills K reports `p` under its old sequence; the
/// answer is `p` at its new one.
#[test]
fn lazy_range_reads_below_an_older_list_in_a_higher_level() {
    let base = DbOptions {
        write_buffer_size: 64 << 10,
        l0_compaction_trigger: 1,
        base_level_bytes: 600,
        auto_compact: false,
        ..tiny_opts()
    };
    let db = SecondaryDb::open(
        MemEnv::new(),
        "db",
        SecondaryDbOptions {
            base,
            shards: 1,
            ..Default::default()
        },
        &[("Tag", IndexKind::LazyStandalone)],
    )
    .unwrap();
    let tree = std::sync::Arc::clone(&db.primary().trees()[0]);
    let put = |pk: &str, tag: &str| {
        let mut d = Document::new();
        d.set("Tag", Value::str(tag));
        db.put(pk, &d).unwrap()
    };
    let settle = || {
        db.flush().unwrap();
        tree.compact().unwrap();
    };
    // A long list "b" goes through L1 to L2: L1's round-robin pointer now
    // sits at "b".
    for i in 0..100 {
        put(&format!("b{i:03}"), "b");
    }
    settle();
    // `(p, old)` lands in L1 in a file under the level's size target.
    put("p", "a");
    settle();
    // A long list "c" ending in `(p, new)` lands in L1 too; the level is
    // then over its target, and the pointer picks the file after "b".
    for i in 0..100 {
        put(&format!("c{i:03}"), "c");
    }
    let new = put("p", "c");
    settle();
    assert_eq!(&tree.level_file_counts()[..3], &[0, 1, 2], "index layout");

    let (lo, hi) = (Value::str("a"), Value::str("c"));
    let top = db.range_lookup("Tag", &lo, &hi, Some(1)).unwrap();
    assert_eq!(hit_keys(&top), vec![("p".to_string(), new)]);
    let all = db.range_lookup("Tag", &lo, &hi, None).unwrap();
    assert_eq!(all.len(), 201);
    assert_eq!(hit_keys(&all)[0], ("p".to_string(), new));
    assert!(all.windows(2).all(|w| w[0].seq > w[1].seq));
}

/// `rebuild_indexes` replays the primary in sequence order, so a Lazy
/// list's fragments lie newest-first down the index tree, as its LOOKUP
/// walk expects. Replayed in key order, records written in descending key
/// order would put the oldest posting in the newest source.
#[test]
fn rebuild_replays_records_in_sequence_order() {
    let db =
        SecondaryDb::open_in_memory(tiny_opts(), &[("UserID", IndexKind::LazyStandalone)]).unwrap();
    for i in (0..400).rev() {
        db.put(format!("t{i:04}"), &tweet(1, i, "body")).unwrap();
    }
    db.rebuild_indexes().unwrap();
    let top = db.lookup("UserID", &Value::str("u1"), Some(1)).unwrap();
    assert_eq!(hit_keys(&top), vec![("t0000".to_string(), 400)]);
}

#[test]
fn no_index_fallback_scans() {
    let db = SecondaryDb::open_in_memory(tiny_opts(), &[("UserID", IndexKind::None)]).unwrap();
    for i in 0..300usize {
        db.put(format!("t{i:03}"), &tweet(i % 4, i as i64, "x"))
            .unwrap();
    }
    let hits = db.lookup("UserID", &Value::str("u2"), Some(5)).unwrap();
    assert_eq!(hits.len(), 5);
    for w in hits.windows(2) {
        assert!(w[0].seq > w[1].seq);
    }
    // Undeclared attribute errors.
    assert!(db.lookup("Nope", &Value::str("x"), None).is_err());
}

#[test]
fn mixed_index_kinds_coexist() {
    let db = SecondaryDb::open_in_memory(
        tiny_opts(),
        &[
            ("UserID", IndexKind::LazyStandalone),
            ("CreationTime", IndexKind::Embedded),
        ],
    )
    .unwrap();
    for i in 0..500usize {
        db.put(format!("t{i:03}"), &tweet(i % 6, 1000 + i as i64, "x"))
            .unwrap();
    }
    assert_eq!(db.index_kind("UserID"), IndexKind::LazyStandalone);
    assert_eq!(db.index_kind("CreationTime"), IndexKind::Embedded);
    assert_eq!(db.index_kind("Other"), IndexKind::None);
    let by_user = db.lookup("UserID", &Value::str("u2"), Some(3)).unwrap();
    assert_eq!(by_user.len(), 3);
    let by_time = db
        .range_lookup("CreationTime", &Value::Int(1200), &Value::Int(1210), None)
        .unwrap();
    assert_eq!(by_time.len(), 11);
}

#[test]
fn embedded_has_no_index_table_standalone_do() {
    for kind in ALL_KINDS {
        let db = open_with(kind);
        for i in 0..800usize {
            db.put(format!("t{i:04}"), &tweet(i % 10, i as i64, "abcdefgh"))
                .unwrap();
        }
        db.flush().unwrap();
        if kind == IndexKind::Embedded {
            assert_eq!(db.index_bytes(), 0, "{kind}");
        } else {
            assert!(db.index_bytes() > 0, "{kind}");
        }
        assert!(db.primary_bytes() > 0);
        assert_eq!(db.total_bytes(), db.primary_bytes() + db.index_bytes());
    }
}

#[test]
fn get_and_missing_attr_records() {
    let db = open_with(IndexKind::LazyStandalone);
    // A record lacking the indexed attribute is storable and findable by
    // primary key, and simply absent from the index.
    let mut d = Document::new();
    d.set("Text", Value::str("no user"));
    db.put("t0", &d).unwrap();
    db.put("t1", &tweet(1, 1, "has user")).unwrap();
    assert_eq!(db.get("t0").unwrap().unwrap(), d);
    assert!(db.get("missing").unwrap().is_none());
    let hits = db.lookup("UserID", &Value::str("u1"), None).unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn lookup_rejects_non_scalar_values() {
    let db = open_with(IndexKind::LazyStandalone);
    assert!(db.lookup("UserID", &Value::Array(vec![]), None).is_err());
    assert!(db.lookup("UserID", &Value::Null, None).is_err());
}

#[test]
fn embedded_validation_modes_agree_on_exactness() {
    use ldbpp_core::indexes::EmbeddedValidation;

    // Build three identical datasets with heavy update churn, then compare
    // lookup results across validation modes.
    let build = |mode: EmbeddedValidation| {
        let db = SecondaryDb::open(
            MemEnv::new(),
            "db",
            SecondaryDbOptions {
                base: tiny_opts(),
                embedded_validation: mode,
                ..Default::default()
            },
            &[("UserID", IndexKind::Embedded)],
        )
        .unwrap();
        for i in 0..900usize {
            db.put(format!("t{:03}", i % 300), &tweet(i % 9, i as i64, "x"))
                .unwrap();
        }
        db
    };
    let confirmed = build(EmbeddedValidation::GetLiteConfirmed);
    let full = build(EmbeddedValidation::FullGet);
    let lite = build(EmbeddedValidation::GetLiteOnly);
    for user in 0..9 {
        let v = Value::str(format!("u{user}"));
        let a = hit_keys(&confirmed.lookup("UserID", &v, None).unwrap());
        let b = hit_keys(&full.lookup("UserID", &v, None).unwrap());
        assert_eq!(a, b, "confirmed must equal the exact baseline (u{user})");
        // Pure GetLite may only lose results (bloom false positives), never
        // fabricate them.
        let c = hit_keys(&lite.lookup("UserID", &v, None).unwrap());
        for hit in &c {
            assert!(b.contains(hit), "GetLiteOnly fabricated {hit:?}");
        }
    }
}

#[test]
fn scan_primary_range() {
    let db = open_with(IndexKind::Embedded);
    for i in 0..200usize {
        db.put(format!("t{i:04}"), &tweet(i % 3, i as i64, "x"))
            .unwrap();
    }
    let rows = db.scan_primary("t0050", "t0059", None).unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(rows[0].0, b"t0050");
    assert_eq!(rows[9].0, b"t0059");
    for w in rows.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
    let limited = db.scan_primary("t0000", "t9999", Some(7)).unwrap();
    assert_eq!(limited.len(), 7);
    assert!(db.scan_primary("z", "a", None).is_err());
    // Deleted keys are skipped.
    db.delete("t0055").unwrap();
    let rows = db.scan_primary("t0050", "t0059", None).unwrap();
    assert_eq!(rows.len(), 9);
}

#[test]
fn conjunctive_lookup_intersects_predicates() {
    for kind in [IndexKind::LazyStandalone, IndexKind::Embedded] {
        let db =
            SecondaryDb::open_in_memory(tiny_opts(), &[("UserID", kind), ("CreationTime", kind)])
                .unwrap();
        // Users cycle mod 5, times cycle mod 7: each (user, time) pair is
        // rare, exercising the over-fetch loop.
        for i in 0..700usize {
            db.put(format!("t{i:04}"), &tweet(i % 5, (i % 7) as i64, "conj"))
                .unwrap();
        }
        let hits = db
            .lookup_all(
                &[
                    ("UserID", Value::str("u2")),
                    ("CreationTime", Value::Int(3)),
                ],
                Some(5),
            )
            .unwrap();
        assert_eq!(hits.len(), 5, "{kind}");
        for h in &hits {
            assert_eq!(h.doc.get("UserID").unwrap().as_str(), Some("u2"), "{kind}");
            assert_eq!(h.doc.get("CreationTime").unwrap().as_int(), Some(3));
        }
        for w in hits.windows(2) {
            assert!(w[0].seq > w[1].seq, "{kind}");
        }
        // Unbounded conjunction: exact count (i ≡ 2 mod 5 and ≡ 3 mod 7
        // ⇒ i ≡ 17 mod 35 ⇒ 20 of 700).
        let all = db
            .lookup_all(
                &[
                    ("UserID", Value::str("u2")),
                    ("CreationTime", Value::Int(3)),
                ],
                None,
            )
            .unwrap();
        assert_eq!(all.len(), 20, "{kind}");
        // Impossible conjunction.
        let none = db
            .lookup_all(
                &[("UserID", Value::str("u2")), ("UserID", Value::str("u3"))],
                None,
            )
            .unwrap();
        assert!(none.is_empty(), "{kind}");
        // Empty predicate list rejected.
        assert!(db.lookup_all(&[], None).is_err());
    }
}

mod io_shapes {
    //! The paper's core I/O mechanisms as executable assertions.
    use super::*;

    fn loaded(kind: IndexKind, n: usize) -> SecondaryDb {
        let db = open_with(kind);
        for i in 0..n {
            db.put(format!("t{i:05}"), &tweet(i % 40, 1000 + i as i64, "io"))
                .unwrap();
        }
        db.flush().unwrap();
        db
    }

    #[test]
    fn embedded_absent_value_reads_no_blocks() {
        let db = loaded(IndexKind::Embedded, 3000);
        let before = db.primary_io();
        // An absent value *inside* the zone-map range, so pruning falls
        // to the bloom filters.
        let hits = db.lookup("UserID", &Value::str("u20x"), None).unwrap();
        assert!(hits.is_empty());
        let io = db.primary_io().since(&before);
        // Bloom filters answer from memory; only false positives (~0.8 %
        // at 10 bits/key) cost a block read.
        assert!(io.bloom_checks > 200, "filters must have been probed");
        let fp_reads = io.block_reads as f64 / io.bloom_checks as f64;
        assert!(
            fp_reads < 0.03,
            "absent-value lookup read {} blocks over {} probes",
            io.block_reads,
            io.bloom_checks
        );
    }

    #[test]
    fn lazy_topk1_reads_far_fewer_blocks_than_unbounded() {
        let db = loaded(IndexKind::LazyStandalone, 3000);
        let user = Value::str("u7");
        let before = db.primary_io().block_reads + db.index_io().block_reads;
        db.lookup("UserID", &user, Some(1)).unwrap();
        let k1 = db.primary_io().block_reads + db.index_io().block_reads - before;

        let before = db.primary_io().block_reads + db.index_io().block_reads;
        let all = db.lookup("UserID", &user, None).unwrap();
        let kall = db.primary_io().block_reads + db.index_io().block_reads - before;
        assert!(all.len() > 20);
        assert!(
            kall >= k1 * 5,
            "early exit must save I/O: K=1 {k1} vs all {kall}"
        );
    }

    #[test]
    fn composite_topk1_validation_io_bounded_by_posting_list_length() {
        // Same keyspace, 10× different posting-list lengths: 600 docs over
        // 40 users (15 per user) vs 6000 (150 per user).
        let small = loaded(IndexKind::CompositeStandalone, 600);
        let large = loaded(IndexKind::CompositeStandalone, 6000);

        let probe = Value::str("u7");
        let reads_k1 = |db: &SecondaryDb| {
            let before = db.primary_io().block_reads;
            let hits = db.lookup("UserID", &probe, Some(1)).unwrap();
            assert_eq!(hits.len(), 1);
            db.primary_io().block_reads - before
        };
        let small_k1 = reads_k1(&small);
        let large_k1 = reads_k1(&large);
        // LOOKUP(A, a, 1) validates candidates newest-first and stops at
        // the first confirmed hit, so primary-side data-block reads stay
        // bounded no matter how long the posting list grows. (The index
        // table itself must still be range-scanned — composite entries are
        // not time-ordered across levels, the paper's §4.2 caveat.)
        assert!(
            large_k1 <= small_k1 + 4,
            "K=1 validation reads must not scale with posting length: \
             {small_k1} blocks at 15 postings vs {large_k1} at 150"
        );

        // Unbounded validation on the long list dwarfs K=1.
        let before = large.primary_io().block_reads;
        let all = large.lookup("UserID", &probe, None).unwrap();
        let large_all = large.primary_io().block_reads - before;
        assert!(all.len() >= 100);
        assert!(
            large_all >= large_k1.max(1) * 10,
            "early exit must save validation I/O: K=1 {large_k1} vs all {large_all}"
        );
    }

    #[test]
    fn eager_lookup_is_one_index_read() {
        let db = loaded(IndexKind::EagerStandalone, 2000);
        // Warm the table metadata, then measure steady-state index reads.
        db.lookup("UserID", &Value::str("u3"), Some(1)).unwrap();
        let before = db.index_io();
        for u in 4..14 {
            db.lookup("UserID", &Value::str(format!("u{u}")), Some(1))
                .unwrap();
        }
        let reads = db.index_io().since(&before).block_reads as f64 / 10.0;
        assert!(
            reads <= 2.5,
            "Eager should read ~1 index block per lookup, measured {reads}"
        );
    }

    #[test]
    fn file_level_zone_maps_prune_out_of_range_queries() {
        let db = loaded(IndexKind::Embedded, 3000);
        let before = db.primary_io();
        // Query far outside the CreationTime range: every file prunes at
        // the metadata level.
        let hits = db
            .range_lookup("CreationTime", &Value::Int(1), &Value::Int(2), None)
            .unwrap();
        assert!(hits.is_empty());
        let io = db.primary_io().since(&before);
        assert_eq!(io.block_reads, 0, "no data blocks for an impossible range");
        assert!(io.file_zonemap_prunes > 0, "whole files must be pruned");
    }

    #[test]
    fn getlite_keeps_embedded_hit_validation_free_of_data_io() {
        // On a static store (no updates), valid matches require no extra
        // reads beyond the scanned blocks themselves: GetLite answers from
        // metadata and never triggers the confirming probe.
        let db = loaded(IndexKind::Embedded, 2000);
        let before = db.primary_io();
        let hits = db.lookup("UserID", &Value::str("u5"), None).unwrap();
        let io = db.primary_io().since(&before);
        assert!(!hits.is_empty());
        // Every read block can contain at most a handful of matches; the
        // total reads must stay at the scan level (≪ matches × levels).
        assert!(
            io.block_reads <= hits.len() as u64 + 40,
            "{} reads for {} hits",
            io.block_reads,
            hits.len()
        );
    }
}

#[test]
fn non_utf8_pk_rejected_before_primary_write() {
    // Posting-list indexes can't serialize non-UTF-8 keys; the rejection
    // must happen *before* the primary write so tables never diverge.
    let db = open_with(IndexKind::LazyStandalone);
    let pk = [0xffu8, 0xfe, b'x'];
    let err = db.put(&pk[..], &tweet(1, 1, "x")).unwrap_err();
    assert!(err.to_string().contains("UTF-8"));
    assert!(
        db.get(&pk[..]).unwrap().is_none(),
        "primary must be untouched"
    );
    // Composite and Embedded handle arbitrary bytes fine.
    for kind in [IndexKind::CompositeStandalone, IndexKind::Embedded] {
        let db = open_with(kind);
        db.put(&pk[..], &tweet(1, 1, "x")).unwrap();
        assert!(db.get(&pk[..]).unwrap().is_some(), "{kind}");
        let hits = db.lookup("UserID", &Value::str("u1"), None).unwrap();
        assert_eq!(hits.len(), 1, "{kind}");
    }
}

/// A seeded stream of puts, updates and deletes against Lazy + Composite,
/// run in foreground mode.
fn seeded_stream(db: &SecondaryDb, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..600 {
        let pk = format!("t{:03}", rng.random_range(0..150));
        if rng.random::<f64>() < 0.85 {
            let (user, time) = (rng.random_range(0..8), rng.random_range(0..500i64));
            db.put(&pk, &tweet(user, time, "body")).unwrap();
        } else {
            db.delete(&pk).unwrap();
        }
    }
}

fn lazy_and_composite(base: DbOptions) -> SecondaryDb {
    let specs = [
        ("UserID", IndexKind::LazyStandalone),
        ("CreationTime", IndexKind::CompositeStandalone),
    ];
    let opts = ldbpp_core::SecondaryDbOptions {
        base,
        ..Default::default()
    };
    SecondaryDb::open(ldbpp_lsm::env::MemEnv::new(), "db", opts, &specs).unwrap()
}

#[test]
fn one_sync_per_put_with_two_standalone_indexes() {
    // The primary's WAL is the shard's only commit log: a PUT with two
    // stand-alone indexes is one record and one sync, not three.
    let db = lazy_and_composite(DbOptions {
        wal_sync: true,
        ..tiny_opts()
    });
    let puts = 300u64;
    for i in 0..puts as usize {
        db.put(format!("t{i:04}"), &tweet(i % 9, i as i64, "hello"))
            .unwrap();
    }
    let (primary, index) = (db.primary_io(), db.index_io());
    assert_eq!(primary.wal_syncs, puts);
    assert_eq!(index.wal_syncs, 0);
    // What the indexes add to a PUT still shows on their side of the
    // ledger (Fig. 8): the bytes of the operations they take.
    assert!(index.wal_bytes_written > 0);
    assert!(index.wal_bytes_written < primary.wal_bytes_written);
    // Each tree keeps its own flushes and levels.
    assert!(primary.flushes > 0 && index.flushes > 0);
}

#[test]
fn a_sparse_index_does_not_pin_the_log_without_bound() {
    // One record in twenty thousand has the indexed attribute: the index
    // tree's memtable never fills, and every log file since that record
    // waits for the tree. Past four files per tree of the shard, the tree
    // is flushed for the log's sake.
    let env = ldbpp_lsm::env::MemEnv::new();
    let opts = ldbpp_core::SecondaryDbOptions {
        base: tiny_opts(),
        ..Default::default()
    };
    let specs = [("Rare", IndexKind::CompositeStandalone)];
    let db = SecondaryDb::open(env.clone(), "db", opts, &specs).unwrap();
    let mut rare = tweet(1, 1, "x");
    rare.set("Rare", Value::Int(7));
    db.put("rare", &rare).unwrap();
    for i in 0..20_000 {
        db.put(format!("t{i:05}"), &tweet(i % 9, i as i64, "hello"))
            .unwrap();
    }
    let logs = ldbpp_lsm::env::Env::list(&*env, "db").unwrap();
    let logs = logs.iter().filter(|f| f.ends_with(".log")).count();
    assert!(logs <= 4 * 2 + 2, "{logs} log files");
    assert_eq!(db.lookup("Rare", &Value::Int(7), None).unwrap().len(), 1);
}

#[test]
fn foreground_counters_are_deterministic() {
    // Two runs of one seeded stream: identical counters on both sides —
    // which is what lets the paper's cumulative-I/O figures reproduce.
    let run = || {
        let db = lazy_and_composite(tiny_opts());
        seeded_stream(&db, 0xD1CE);
        db.flush().unwrap();
        (db.primary_io(), db.index_io())
    };
    let (first, second) = (run(), run());
    assert!(first.0.compactions > 0 && first.1.compactions > 0);
    assert_eq!(first, second);
}

/// A Lazy index tree's merge operator never turns an operand it cannot
/// read into a shorter posting list: compaction fails with a corruption
/// error, the inputs stay installed, and after a reopen every earlier
/// fragment is still on disk and every other list still reads whole.
#[test]
fn malformed_lazy_operand_fails_compaction_without_losing_postings() {
    use ldbpp_core::indexes::{decode_postings, encode_postings, Posting};
    use ldbpp_lsm::attr::AttrValue;
    use ldbpp_lsm::db::Db;
    use ldbpp_lsm::env::{Env, MemEnv};
    use std::ops::ControlFlow;
    use std::sync::Arc;

    let opts = IndexKind::LazyStandalone
        .table_options(&DbOptions {
            background_work: false,
            l0_compaction_trigger: 64,
            l0_slowdown_trigger: 64,
            l0_stall_trigger: 64,
            ..tiny_opts()
        })
        .unwrap();
    let env: Arc<dyn Env> = MemEnv::new();
    let u1 = AttrValue::str("u1").encode();
    let u2 = AttrValue::str("u2").encode();
    let fragment = |pk: &str, seq: u64| encode_postings(&[Posting::insert(pk, seq)]).unwrap();
    {
        let db = Db::open(env.clone(), "lazy", opts.clone()).unwrap();
        for seq in 1..=3 {
            db.merge(&u1, &fragment(&format!("t{seq}"), seq)).unwrap();
            db.merge(&u2, &fragment(&format!("s{seq}"), seq)).unwrap();
            db.flush().unwrap();
        }
        db.merge(&u1, br#"[["t9","#).unwrap();
        db.flush().unwrap();
        let e = db.major_compact().unwrap_err();
        assert!(e.is_corruption(), "{e}");
        let e = db.get(&u1).unwrap_err();
        assert!(e.is_corruption(), "{e}");
    }
    let db = Db::open(env, "lazy", opts).unwrap();
    let e = db.get(&u1).unwrap_err();
    assert!(
        e.is_corruption(),
        "a malformed operand must never read as a shorter list: {e}"
    );
    let u2_list = decode_postings(&db.get(&u2).unwrap().unwrap()).unwrap();
    let u2_pks: Vec<&[u8]> = u2_list.iter().map(|p| p.pk.as_slice()).collect();
    assert_eq!(u2_pks, [&b"s3"[..], b"s2", b"s1"]);
    // Every earlier u1 fragment is still there, next to the bad operand.
    let mut pks = Vec::new();
    let mut bad = 0;
    db.fold_key_sources(&u1, |_, entries| {
        for (_, bytes, _) in entries {
            match decode_postings(bytes) {
                Ok(list) => pks.extend(list.into_iter().map(|p| p.pk)),
                Err(_) => bad += 1,
            }
        }
        ControlFlow::Continue(())
    })
    .unwrap();
    pks.sort();
    assert_eq!(pks, [b"t1".to_vec(), b"t2".to_vec(), b"t3".to_vec()]);
    assert_eq!(bad, 1);
}
