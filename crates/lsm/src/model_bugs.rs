//! Seeded ordering bugs for the model checker: one table for the engine
//! and the index layer above it. Every fault is off unless a `check`
//! build's test switches it on — without the feature [`enabled`] is a
//! constant `false` and the seeded branches compile away.
//!
//! The `ldbpp-model` explorer proves its detectors actually fire by
//! deliberately re-introducing ordering bugs the engine has (or could
//! have) had, and asserting the exploration finds a failing schedule and
//! prints a replayable seed. Flags are read at the affected code site on
//! every execution; model tests run serialised (the explorer holds a
//! process-wide lock), so a flag set inside one model's instance factory
//! cannot leak into a concurrently running model.

#[cfg(feature = "check")]
use std::sync::atomic::{AtomicBool, Ordering};

/// The seeded faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Release-store `last_seq` *before* the memtable insert in
    /// `append_group`, breaking the publish happens-before edge readers
    /// rely on (a reader can Acquire-load a sequence whose entries are not
    /// yet visible). Caught by the vclock consume check.
    PublishBeforeInsert,
    /// `finish_group` promotes the next queue-front writer (sets
    /// `state.leader`) but drops the condvar notify. A follower that
    /// already entered `cond.wait` sleeps forever — the classic lost
    /// wakeup. Caught by the scheduler's deadlock detector.
    SkipLeaderNotify,
    /// Apply a group's index-tree operations and publish them *before*
    /// the WAL append and the primary insert: a reader can find an index
    /// entry whose primary record does not exist at the same snapshot —
    /// the state a crash between the two steps would also make durable.
    IndexBeforeWal,
    /// The PR 7 Eager range-lookup bug, re-homed in the stand-alone
    /// indexes' shared top-K loop: truncate the first batch of postings to
    /// K *before* validating them against the primary. Stale postings then
    /// crowd out valid older entries and the lookup under-fills K — caught
    /// by the model's serial-oracle history check.
    EagerKPrefix,
    /// `scan_primary` opens each shard's cursor at that shard's latest
    /// sequence instead of the clock value pinned before the first shard
    /// is read: a write committed on a later shard while an earlier one
    /// was being read shows up without the writes before it — cross-shard
    /// read skew, caught by the model's serial-oracle history check.
    UnpinnedScan,
}

#[cfg(feature = "check")]
static FLAGS: [AtomicBool; 5] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

/// Whether `fault` is switched on.
#[inline]
pub fn enabled(fault: Fault) -> bool {
    #[cfg(feature = "check")]
    return FLAGS[fault as usize].load(Ordering::Relaxed);
    #[cfg(not(feature = "check"))]
    {
        let _ = fault;
        false
    }
}

/// Switch `fault` on or off.
#[cfg(feature = "check")]
pub fn set(fault: Fault, on: bool) {
    FLAGS[fault as usize].store(on, Ordering::Relaxed);
}

/// Switch every fault off.
#[cfg(feature = "check")]
pub fn reset() {
    for flag in &FLAGS {
        flag.store(false, Ordering::Relaxed);
    }
}
