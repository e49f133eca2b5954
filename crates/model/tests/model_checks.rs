//! Schedule exploration of the three protocol models: clean sweeps of
//! the correct engine, seeded-fault detection with replayable seeds,
//! and replay determinism. The regression corpus of minimized seeds
//! lives in `tests/corpus.rs`.
#![cfg(feature = "check")]

use ldbpp_model::explore::{replay, ExploreOutcome, Explorer, Instance};
use ldbpp_model::models::{drain, group_commit, scatter};

/// A clean sweep must actually cover the space the issue budgets for.
const MIN_SCHEDULES: u64 = 1000;

fn assert_clean(outcome: &ExploreOutcome, what: &str) {
    if let Some(v) = &outcome.violation {
        panic!(
            "{what}: unexpected violation on seed {}\n  {}",
            v.seed, v.description
        );
    }
    assert!(
        outcome.stats.schedules >= MIN_SCHEDULES || outcome.stats.exhausted,
        "{what}: only {} schedules explored without exhausting the space",
        outcome.stats.schedules
    );
}

/// Explore until a violation is found, assert one was, print its seed,
/// and prove the seed replays the violation deterministically on the
/// first try.
fn assert_caught(mut factory: impl FnMut() -> Instance, what: &str, expect: &str) {
    let outcome = Explorer::bounded().explore(&mut factory);
    let v = outcome.violation.unwrap_or_else(|| {
        panic!(
            "{what}: seeded bug not caught in {} schedules",
            outcome.stats.schedules
        )
    });
    println!(
        "{what}: caught after {} schedules, seed {} — {}",
        outcome.stats.schedules, v.seed, v.description
    );
    assert!(
        v.description.contains(expect),
        "{what}: violation does not mention {expect:?}: {}",
        v.description
    );
    let replayed = replay(&v.seed, factory())
        .unwrap_or_else(|e| panic!("{what}: replay of {} diverged: {e}", v.seed))
        .unwrap_or_else(|| panic!("{what}: replay of {} did not reproduce", v.seed));
    // Compare by the expected marker, not byte equality: descriptions
    // embed raw global ids (lock numbers, vclock domain ids) that
    // differ between explorations within one process.
    assert!(
        replayed.description.contains(expect),
        "{what}: replay produced a different violation: {}",
        replayed.description
    );
}

// ---------------------------------------------------------------------------
// (a) group commit: leader handoff + sequence rebase
// ---------------------------------------------------------------------------

#[test]
fn group_commit_sweep_is_clean() {
    let _g = ldbpp_model::exclusive();
    // Sleep sets collapse the WAL-less write path's schedule space
    // below the coverage floor at the default bound; allow extra
    // preemptions to sweep deeper interleavings of the handoff.
    let explorer = Explorer {
        preemption_bound: 4,
        ..Explorer::bounded()
    };
    let outcome = explorer.explore(&mut || group_commit::instance(group_commit::Config::default()));
    assert_clean(&outcome, "group-commit");
    println!(
        "group-commit: {} schedules, exhausted: {}",
        outcome.stats.schedules, outcome.stats.exhausted
    );
}

#[test]
fn group_commit_catches_early_publish() {
    let _g = ldbpp_model::exclusive();
    let cfg = group_commit::Config {
        early_publish: true,
        ..Default::default()
    };
    // The reader's Acquire load observes a sequence with no publication
    // record: the vclock consume detector panics.
    assert_caught(|| group_commit::instance(cfg), "early-publish", "vclock");
}

#[test]
fn group_commit_catches_lost_leader_wakeup() {
    let _g = ldbpp_model::exclusive();
    let cfg = group_commit::Config {
        skip_leader_notify: true,
        ..Default::default()
    };
    // A follower promoted without notify_one sleeps forever: deadlock.
    assert_caught(|| group_commit::instance(cfg), "skip-notify", "deadlock");
}

#[test]
fn two_tree_commit_sweep_is_clean() {
    let _g = ldbpp_model::exclusive();
    let outcome = Explorer::bounded()
        .explore(&mut || group_commit::two_trees(group_commit::Config::default()));
    assert_clean(&outcome, "two-tree-commit");
    println!(
        "two-tree-commit: {} schedules, exhausted: {}",
        outcome.stats.schedules, outcome.stats.exhausted
    );
}

#[test]
fn two_tree_commit_catches_index_before_wal() {
    let _g = ldbpp_model::exclusive();
    let cfg = group_commit::Config {
        index_before_wal: true,
        ..Default::default()
    };
    // The index tree's half of a group is visible before the primary's:
    // the reader's cut finds an entry whose record does not exist yet.
    assert_caught(
        || group_commit::two_trees(cfg),
        "index-before-wal",
        "without its primary record",
    );
}

// ---------------------------------------------------------------------------
// (b) scatter-gather reads vs. the shared sequence clock
// ---------------------------------------------------------------------------

#[test]
fn scan_vs_put_sweep_is_clean() {
    let _g = ldbpp_model::exclusive();
    let outcome = Explorer::bounded().explore(&mut || scatter::scan_vs_put(false));
    assert_clean(&outcome, "scan-vs-put");
    println!(
        "scan-vs-put: {} schedules, exhausted: {}",
        outcome.stats.schedules, outcome.stats.exhausted
    );
}

#[test]
fn scan_vs_put_catches_unpinned_scan() {
    let _g = ldbpp_model::exclusive();
    // Each shard's cursor cut at its own latest sequence: a scan that
    // read shard 0 before both puts and shard 1 after them returns the
    // second key without the first.
    assert_caught(
        || scatter::scan_vs_put(true),
        "unpinned-scan",
        "not linearizable",
    );
}

#[test]
fn eager_range_sweep_is_clean() {
    let _g = ldbpp_model::exclusive();
    let outcome = Explorer::bounded().explore(&mut || scatter::eager_range(false));
    assert_clean(&outcome, "eager-range");
}

#[test]
fn eager_range_catches_k_prefix_truncation() {
    let _g = ldbpp_model::exclusive();
    // PR 7's bug re-enabled: the candidate heap truncated at K before
    // validation under-fills the result; the serial oracle rejects it.
    assert_caught(
        || scatter::eager_range(true),
        "eager-k-prefix",
        "not linearizable",
    );
}

#[test]
fn delete_vs_lookup_sweep_is_clean() {
    let _g = ldbpp_model::exclusive();
    let outcome = Explorer::bounded().explore(&mut scatter::delete_vs_lookup);
    assert_clean(&outcome, "delete-vs-lookup");
}

// ---------------------------------------------------------------------------
// (c) SHUTDOWN drain vs. in-flight BATCH
// ---------------------------------------------------------------------------

#[test]
fn drain_sweep_is_clean() {
    let _g = ldbpp_model::exclusive();
    // The drain model is tiny, so a deeper preemption bound is
    // affordable and needed to clear the 1000-schedule coverage floor.
    let explorer = Explorer {
        preemption_bound: 3,
        ..Explorer::bounded()
    };
    let outcome = explorer.explore(&mut || drain::drain(false));
    assert_clean(&outcome, "drain");
    println!(
        "drain: {} schedules, exhausted: {}",
        outcome.stats.schedules, outcome.stats.exhausted
    );
}

#[test]
fn drain_catches_late_registration() {
    let _g = ldbpp_model::exclusive();
    // Check-then-register TOCTOU: the gate drains inside the window and
    // the shutdown flush misses an acknowledged batch.
    assert_caught(|| drain::drain(true), "late-register", "acknowledged");
}
