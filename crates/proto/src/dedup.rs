//! The bounded write-dedup window that makes client retries idempotent
//! (DESIGN.md §18).
//!
//! A retrying client cannot distinguish "the request was lost before
//! the server saw it" from "the server committed it but the ack was
//! lost". Resending is only safe if the server recognizes the second
//! attempt. [`DedupMap`] provides that recognition: each client retry
//! session ([`crate::wire::Request::Hello`]) owns a window of its most
//! recent write outcomes keyed by request id, and
//! [`DedupMap::execute`] runs a write at most once per `(session, id)`
//! — a duplicate gets the recorded response back (same committed
//! sequence number), and a duplicate arriving while the first attempt
//! is still executing *waits* for it instead of racing it.
//!
//! Both the window and the session table are bounded: per session the
//! `window` most recent responses are kept (a client with `a` in-flight
//! requests never needs more than `a` — this implementation serves one
//! request per connection at a time, so even a tiny window is
//! generous), and the least-recently-used session is dropped when more
//! than `max_sessions` are tracked. An evicted entry degrades to
//! at-least-once for a retry that arrives later than `window` writes —
//! the classic bounded-memory trade-off, documented, not hidden.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::wire::Response;

/// Sizing knobs for [`DedupMap`].
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Completed write responses remembered per session.
    pub window: usize,
    /// Sessions tracked before LRU eviction.
    pub max_sessions: usize,
}

impl Default for DedupConfig {
    fn default() -> DedupConfig {
        DedupConfig {
            window: 256,
            max_sessions: 1024,
        }
    }
}

#[derive(Debug, Default)]
struct Session {
    /// Completed write outcomes, keyed by request id. BTreeMap so the
    /// window trims oldest-id-first (ids are monotonic per session).
    completed: BTreeMap<u64, Response>,
    /// Request ids currently executing on some connection thread.
    in_flight: HashSet<u64>,
    /// LRU stamp (monotonic ticks of the map).
    touched: u64,
}

#[derive(Debug, Default)]
struct Inner {
    sessions: HashMap<u64, Session>,
    tick: u64,
}

/// The dedup table. One per server; shared by all connection threads.
#[derive(Debug)]
pub struct DedupMap {
    cfg: DedupConfig,
    inner: Mutex<Inner>,
    /// Signalled when an in-flight write completes, waking duplicate
    /// attempts parked in [`DedupMap::execute`].
    done: Condvar,
    /// Retries answered from the window, and sessions evicted.
    stats: DedupCounters,
}

ldbpp_common::counters! {
    /// The dedup window's counters, reported under STATS `server.dedup`.
    pub struct DedupCounters;
    /// A copy of [`DedupCounters`].
    pub struct DedupStats;
    /// Retries answered from the window (writes *not* re-applied).
    hits,
    /// Sessions dropped by LRU eviction.
    evicted_sessions,
}

impl DedupMap {
    /// An empty table with the given bounds.
    pub fn new(cfg: DedupConfig) -> DedupMap {
        DedupMap {
            cfg,
            inner: Mutex::new(Inner::default()),
            done: Condvar::new(),
            stats: DedupCounters::default(),
        }
    }

    /// Run `work` (a write against the engine) at most once per
    /// `(session, id)`:
    ///
    /// * first attempt — runs `work`, records and returns its response;
    /// * duplicate after completion — returns the recorded response
    ///   without running `work`;
    /// * duplicate while the first attempt is executing — blocks until
    ///   it completes, then returns its response.
    ///
    /// The lock is *not* held while `work` runs.
    pub fn execute(&self, session: u64, id: u64, work: impl FnOnce() -> Response) -> Response {
        let mut inner = self.inner.lock();
        loop {
            let tick = inner.tick;
            inner.tick += 1;
            let entry = inner.sessions.entry(session).or_default();
            entry.touched = tick;
            if let Some(resp) = entry.completed.get(&id) {
                let resp = resp.clone();
                DedupCounters::add(&self.stats.hits, 1);
                return resp;
            }
            if entry.in_flight.contains(&id) {
                // A duplicate of a write that is executing right now
                // (e.g. the client timed out faster than the engine
                // committed). Wait for the first attempt — re-running
                // it would double-apply.
                let _ = self
                    .done
                    .wait_timeout(&mut inner, Duration::from_millis(50));
                continue;
            }
            entry.in_flight.insert(id);
            break;
        }
        drop(inner);
        let resp = work();
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.sessions.get_mut(&session) {
            entry.in_flight.remove(&id);
            entry.completed.insert(id, resp.clone());
            while entry.completed.len() > self.cfg.window {
                entry.completed.pop_first();
            }
        }
        self.evict_excess(&mut inner);
        drop(inner);
        self.done.notify_all();
        resp
    }

    /// Current counters.
    pub fn stats(&self) -> DedupStats {
        self.stats.snapshot()
    }

    /// Sessions currently tracked (a gauge, not a counter).
    pub fn sessions(&self) -> u64 {
        self.inner.lock().sessions.len() as u64
    }

    /// Drop least-recently-used sessions above the bound. Sessions with
    /// writes still executing are never evicted (their completion
    /// records the response into the entry).
    fn evict_excess(&self, inner: &mut Inner) {
        while inner.sessions.len() > self.cfg.max_sessions {
            let victim = inner
                .sessions
                .iter()
                .filter(|(_, s)| s.in_flight.is_empty())
                .min_by_key(|(_, s)| s.touched)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    inner.sessions.remove(&k);
                    DedupCounters::add(&self.stats.evicted_sessions, 1);
                }
                None => break, // everything is mid-write; try next time
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbpp_lsm::sync::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn seq(n: u64) -> Response {
        Response::Seq(n)
    }

    #[test]
    fn duplicate_returns_recorded_response_without_rerunning() {
        let map = DedupMap::new(DedupConfig::default());
        let runs = AtomicU64::new(0);
        let r1 = map.execute(7, 1, || {
            runs.fetch_add(1, Ordering::SeqCst);
            seq(41)
        });
        let r2 = map.execute(7, 1, || {
            runs.fetch_add(1, Ordering::SeqCst);
            seq(999)
        });
        assert_eq!(r1, seq(41));
        assert_eq!(r2, seq(41), "retry must see the first attempt's ack");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "work ran exactly once");
        assert_eq!(map.stats().hits, 1);
    }

    #[test]
    fn distinct_ids_and_sessions_do_not_collide() {
        let map = DedupMap::new(DedupConfig::default());
        assert_eq!(map.execute(1, 1, || seq(10)), seq(10));
        assert_eq!(map.execute(1, 2, || seq(11)), seq(11));
        assert_eq!(map.execute(2, 1, || seq(12)), seq(12));
        assert_eq!(map.stats().hits, 0);
        assert_eq!(map.sessions(), 2);
    }

    #[test]
    fn window_trims_oldest_ids() {
        let map = DedupMap::new(DedupConfig {
            window: 2,
            max_sessions: 8,
        });
        for id in 1..=3u64 {
            map.execute(1, id, || seq(id + 100));
        }
        // id 1 fell out of the window: a very late retry re-runs.
        let runs = AtomicU64::new(0);
        map.execute(1, 1, || {
            runs.fetch_add(1, Ordering::SeqCst);
            seq(500)
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // ids 2 and 3 are still deduped.
        assert_eq!(map.execute(1, 3, || seq(0)), seq(103));
    }

    #[test]
    fn sessions_are_lru_evicted() {
        let map = DedupMap::new(DedupConfig {
            window: 4,
            max_sessions: 2,
        });
        map.execute(1, 1, || seq(1));
        map.execute(2, 1, || seq(2));
        map.execute(3, 1, || seq(3)); // evicts session 1
        assert_eq!(map.sessions(), 2);
        assert_eq!(map.stats().evicted_sessions, 1);
        // Session 1's window is gone: its retry re-runs (at-least-once
        // beyond the bound, by design).
        let runs = AtomicU64::new(0);
        map.execute(1, 1, || {
            runs.fetch_add(1, Ordering::SeqCst);
            seq(9)
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_duplicate_waits_for_first_attempt() {
        let map = Arc::new(DedupMap::new(DedupConfig::default()));
        let runs = Arc::new(AtomicU64::new(0));
        let m2 = Arc::clone(&map);
        let r2 = Arc::clone(&runs);
        let slow = std::thread::spawn(move || {
            m2.execute(5, 1, || {
                r2.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(100));
                seq(77)
            })
        });
        // Let the slow attempt take the in-flight slot first.
        std::thread::sleep(Duration::from_millis(20));
        let dup = map.execute(5, 1, || {
            runs.fetch_add(1, Ordering::SeqCst);
            seq(666)
        });
        assert_eq!(dup, seq(77), "duplicate must wait, not race");
        assert_eq!(slow.join().unwrap(), seq(77));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }
}
