//! Minimized-schedule regression corpus: the witness seed for every
//! seeded protocol bug, replayed deterministically — no exploration, one
//! schedule per test. A corpus failure means either the detector rotted
//! (violation no longer reproduced) or the model's instruction stream
//! changed (replay divergence); in the latter case re-mint the seed from
//! the corresponding `model_checks` catch test and update it here.
#![cfg(feature = "check")]

use ldbpp_model::explore::{replay, Instance};
use ldbpp_model::models::{drain, group_commit, scatter};

/// Replay `seed` against a fresh instance and require the violation to
/// reproduce on the first (and only) run, mentioning `expect`.
fn assert_replays(seed: &str, instance: Instance, what: &str, expect: &str) {
    let v = replay(seed, instance)
        .unwrap_or_else(|e| panic!("{what}: corpus seed {seed} diverged: {e}"))
        .unwrap_or_else(|| panic!("{what}: corpus seed {seed} no longer reproduces"));
    assert!(
        v.description.contains(expect),
        "{what}: corpus seed {seed} reproduced a different violation: {}",
        v.description
    );
}

#[test]
fn corpus_group_commit_early_publish() {
    let _g = ldbpp_model::exclusive();
    let cfg = group_commit::Config {
        early_publish: true,
        ..Default::default()
    };
    assert_replays(
        "v1:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1:ec3b8283",
        group_commit::instance(cfg),
        "early-publish",
        "vclock",
    );
}

#[test]
fn corpus_group_commit_lost_leader_wakeup() {
    let _g = ldbpp_model::exclusive();
    let cfg = group_commit::Config {
        skip_leader_notify: true,
        ..Default::default()
    };
    assert_replays(
        "v1:0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.0.0.0.0.0.0.0.0.0.0:dfdf04a2",
        group_commit::instance(cfg),
        "skip-notify",
        "deadlock",
    );
}

#[test]
fn corpus_eager_k_prefix_truncation() {
    let _g = ldbpp_model::exclusive();
    assert_replays(
        "v1:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0:df5fa2a0",
        scatter::eager_range(true),
        "eager-k-prefix",
        "not linearizable",
    );
}

#[test]
fn corpus_unpinned_scan_read_skew() {
    let _g = ldbpp_model::exclusive();
    assert_replays(
        "v1:0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0:cef6c32d",
        scatter::scan_vs_put(true),
        "unpinned-scan",
        "not linearizable",
    );
}

#[test]
fn corpus_index_tree_before_wal() {
    let _g = ldbpp_model::exclusive();
    let cfg = group_commit::Config {
        index_before_wal: true,
        ..Default::default()
    };
    assert_replays(
        "v1:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1.1.1.1.1.1.1:bf72df4d",
        group_commit::two_trees(cfg),
        "index-before-wal",
        "without its primary record",
    );
}

#[test]
fn corpus_drain_late_registration() {
    let _g = ldbpp_model::exclusive();
    assert_replays(
        "v1:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1.1.1.1.0.0.0.0:b6cd7643",
        drain::drain(true),
        "late-register",
        "acknowledged",
    );
}
