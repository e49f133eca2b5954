//! `ldbpp-model`: a loom-style deterministic model checker for the
//! engine's concurrent protocols (DESIGN.md §17).
//!
//! Under `--features check` the vendored `parking_lot`/`crossbeam` shims
//! route every lock acquisition, condvar wait/notify, channel op, and
//! instrumented atomic access through a cooperative scheduler that runs
//! exactly one thread at a time and parks the rest. The model threads are
//! exactly the ones a model names: a sharded read visits its shards on
//! the caller's thread, so a reader is one model thread. `explore` drives
//! that scheduler through a bounded depth-first enumeration of thread
//! interleavings (with preemption bounding and sleep-set pruning), and
//! `lin` checks the operation histories each schedule records against
//! a serial oracle (Wing & Gong's linearizability algorithm).
//!
//! `models` contains small bounded models (2–3 threads, a handful of
//! operations) of three real protocols:
//!
//! * group-commit leader handoff + sequence rebase (DESIGN.md §14),
//! * scatter-gather reads — one reader thread visiting the shards in
//!   order — racing a group commit on the shared sequence clock (§15),
//! * `SHUTDOWN` drain vs. an in-flight `BATCH` (§16).
//!
//! Every violation prints a replayable schedule seed; feeding the seed
//! back to `explore::replay` re-executes that exact interleaving
//! deterministically.
//!
//! Without the `check` feature this crate is intentionally empty — the
//! default build compiles zero scheduler instrumentation.

#[cfg(feature = "check")]
pub mod explore;
#[cfg(feature = "check")]
pub mod lin;
#[cfg(feature = "check")]
pub mod models;

/// Serialize model-checking tests within the process.
///
/// The cooperative scheduler is a process-wide singleton (thread-local
/// batons plus global registries), and the seeded-bug flags and vclock
/// generation counter are process globals too, so two explorations must
/// never overlap. Every test takes this lock first.
#[cfg(feature = "check")]
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
