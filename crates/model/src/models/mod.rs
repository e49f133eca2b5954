//! Bounded models of the engine's three concurrent protocols.
//!
//! Each model builds a tiny real engine instance (in-memory env, WAL
//! off, no background work), runs 2–3 model threads against it under
//! the cooperative scheduler, and checks every completed schedule
//! against a serial oracle or an integrity invariant. The factories
//! also (re)set the seeded-bug flags (`ldbpp_lsm::model_bugs`, one table
//! for every layer) so a sweep always starts from a known
//! fault configuration, and reset the vclock registry — the previous
//! instance is dropped by the explorer before a factory runs again.

pub mod drain;
pub mod group_commit;
pub mod scatter;

/// Reset every process-global seeded-bug flag to "off" and clear the
/// vclock registry. Every model factory calls this first, then flips
/// only the faults it wants.
pub(crate) fn reset_faults() {
    ldbpp_lsm::vclock::reset();
    ldbpp_lsm::model_bugs::reset();
}

/// Engine options shared by the bounded models: tiny buffers, no WAL
/// (fewer scheduling points; durability is not what these models
/// check), and strictly foreground work so the only concurrency is the
/// model's own threads.
pub(crate) fn model_opts() -> ldbpp_lsm::db::DbOptions {
    ldbpp_lsm::db::DbOptions {
        wal_enabled: false,
        wal_sync: false,
        background_work: false,
        auto_compact: false,
        ..ldbpp_lsm::db::DbOptions::small()
    }
}
