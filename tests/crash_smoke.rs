//! Tier-1 crash-recovery smoke test through the `leveldbpp` facade.
//!
//! A bounded version of the exhaustive harnesses in
//! `crates/lsm/tests/crash.rs` and `crates/core/tests/crash_secondary.rs`:
//! one mixed workload per index technique, crashed at a spread of I/O
//! operation indices in foreground and background mode, reopened, and
//! checked for primary/secondary equivalence — a record and its index
//! entries are one log record, so the integrity check must come back with
//! no index mismatch, tolerating none. Kept deliberately small so the root test suite stays fast;
//! the per-crate harnesses do the full per-index, per-mode sweeps.

use leveldbpp::{
    CheckCode, Document, FaultEnv, IndexKind, MemEnv, SecondaryDb, SecondaryDbOptions, Value,
};
use std::collections::BTreeSet;
use std::sync::Arc;

const ATTR: &str = "City";

fn doc(city: &str, n: i64) -> Document {
    let mut d = Document::new();
    d.set(ATTR, Value::str(city));
    d.set("N", Value::Int(n));
    d
}

fn opts() -> SecondaryDbOptions {
    mode_opts(false)
}

fn mode_opts(background: bool) -> SecondaryDbOptions {
    let mut base = leveldbpp::DbOptions::small();
    base.write_buffer_size = 1024;
    base.background_work = background;
    SecondaryDbOptions {
        base,
        // CI re-runs this suite with LDBPP_SHARDS=2 to sweep the sharded
        // engine through the same crash points (scripts/ci.sh).
        shards: SecondaryDbOptions::shards_from_env(),
        ..Default::default()
    }
}

/// Drive a fixed workload against a fault env, crashing at op `crash_at`;
/// return the image and the set of acknowledged puts (pk, city).
fn run(kind: IndexKind, background: bool, crash_at: u64) -> (Arc<MemEnv>, Vec<(String, String)>) {
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    fenv.set_crash_point(crash_at);
    let mut acked = Vec::new();
    if let Ok(db) = SecondaryDb::open(fenv, "db", mode_opts(background), &[(ATTR, kind)]) {
        for i in 0..12i64 {
            let pk = format!("k{i}");
            let city = format!("city{}", i % 3);
            if db.put(&pk, &doc(&city, i)).is_ok() {
                acked.push((pk, city));
            }
            if i == 6 {
                let _ = db.flush();
            }
        }
    }
    (mem.deep_clone(), acked)
}

#[test]
fn crash_recovery_smoke_all_index_kinds() {
    for background in [false, true] {
        smoke_all_index_kinds(background);
    }
}

fn smoke_all_index_kinds(background: bool) {
    for kind in [
        IndexKind::Embedded,
        IndexKind::EagerStandalone,
        IndexKind::LazyStandalone,
        IndexKind::CompositeStandalone,
        IndexKind::None,
    ] {
        // Probe for the total op count, then crash at a spread of points.
        let total = {
            let mem = MemEnv::new();
            let fenv = FaultEnv::new(mem);
            let db = SecondaryDb::open(fenv.clone(), "db", mode_opts(background), &[(ATTR, kind)])
                .unwrap();
            for i in 0..12i64 {
                db.put(format!("k{i}"), &doc(&format!("city{}", i % 3), i))
                    .unwrap();
                if i == 6 {
                    db.flush().unwrap();
                }
            }
            drop(db);
            fenv.op_count()
        };

        let step = (total / 12).max(1);
        let mut k = 0;
        while k <= total {
            let (image, acked) = run(kind, background, k);
            let db = SecondaryDb::open(image, "db", opts(), &[(ATTR, kind)])
                .unwrap_or_else(|e| panic!("{kind:?}: reopen after crash at {k} failed: {e}"));

            // Index ≡ primary, with no tolerance...
            let report = db.check_integrity();
            assert!(
                !report.has(CheckCode::IndexMismatch) && report.is_clean(),
                "{kind:?} bg={background}: crash at op {k}:\n{report}"
            );
            // ...every acked put is durable...
            for (pk, _) in &acked {
                assert!(
                    db.get(pk).unwrap().is_some(),
                    "{kind:?}: acked put {pk} lost after crash at op {k}"
                );
            }
            // ...and every index answer matches the recovered primary.
            for c in 0..3 {
                let city = format!("city{c}");
                let expect: BTreeSet<&str> = acked
                    .iter()
                    .filter(|(_, ct)| *ct == city)
                    .map(|(pk, _)| pk.as_str())
                    .collect();
                let got: BTreeSet<String> = db
                    .lookup(ATTR, &Value::str(city.clone()), None)
                    .unwrap()
                    .into_iter()
                    .map(|h| String::from_utf8(h.key).unwrap())
                    .collect();
                let got: BTreeSet<&str> = got.iter().map(String::as_str).collect();
                assert_eq!(
                    got, expect,
                    "{kind:?}: LOOKUP({city}) diverges after crash at op {k}"
                );
            }
            k += step;
        }
    }
}

/// Transient write errors surface as `Err` and the engine recovers: the
/// failure-model contract in DESIGN.md §11, exercised end-to-end.
#[test]
fn transient_fault_surfaces_and_reopen_recovers() {
    use leveldbpp::{FaultOp, FaultPlan};
    let mem = MemEnv::new();
    let fenv = FaultEnv::new(mem.clone());
    let db = SecondaryDb::open(
        fenv.clone(),
        "db",
        opts(),
        &[(ATTR, IndexKind::LazyStandalone)],
    )
    .unwrap();
    for i in 0..4i64 {
        db.put(format!("k{i}"), &doc("gent", i)).unwrap();
    }
    fenv.set_plan(FaultPlan {
        fail_kind_at: Some((FaultOp::Append, 0)),
        ..FaultPlan::default()
    });
    assert!(
        db.put("k9", &doc("gent", 9)).is_err(),
        "injected fault must surface"
    );
    fenv.clear_plan();
    drop(db);

    let db = SecondaryDb::open(
        mem.deep_clone(),
        "db",
        opts(),
        &[(ATTR, IndexKind::LazyStandalone)],
    )
    .unwrap();
    assert!(
        db.get("k9").unwrap().is_none(),
        "un-acked write must be absent"
    );
    let hits = db.lookup(ATTR, &Value::str("gent"), None).unwrap();
    assert_eq!(hits.len(), 4, "acked writes must survive reopen");
    db.put("k9", &doc("gent", 9)).unwrap();
}
