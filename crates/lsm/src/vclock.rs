//! Lightweight vector-clock checker for the lock-free read path
//! (compiled only with the `check` feature).
//!
//! The engine's read path is lock-free: writers append to the WAL and
//! memtable under `inner`, then Release-store the new tail sequence into
//! `DbCore::last_seq`; readers Acquire-load `last_seq` and only then
//! clone the `Arc<ReadState>`. The correctness claim is a happens-before
//! edge: *every entry with sequence ≤ the loaded value is fully inserted
//! and visible in the cloned state*.
//!
//! This module checks that claim at runtime. Each `Db` instance is a
//! *domain* with its own sequence space. Threads carry vector clocks;
//! the instrumented code reports three event kinds:
//!
//! * [`Domain::publish`] — called by the writer after the memtable
//!   insert, immediately before the Release store. Bumps the writer's
//!   clock component, records `(seq, clock)` as the newest publication,
//!   and verifies publications are strictly monotonic. A non-monotonic
//!   publication whose clock is *concurrent* with the previous one (no
//!   causal order either way) is two writers racing the publish edge —
//!   exactly the race the `inner` mutex must prevent.
//! * [`Domain::consume`] — called by readers right after the
//!   Acquire-load. Verifies the loaded sequence has actually been
//!   published (a load observing a sequence with no publication record
//!   means the store was reordered before the insert) and joins the
//!   domain's cumulative publication clock into the reader's clock,
//!   mirroring the Release/Acquire synchronisation.
//! * [`observe`] — called from the memtable when a snapshot-bounded
//!   iterator yields an entry. Verifies the entry respects the snapshot
//!   filter and that its sequence was published: a visible entry above
//!   the domain's publication watermark is a write leaking to readers
//!   without the happens-before edge.
//!
//! A second domain kind, [`SeqDomain`], covers the *cross-shard*
//! `SharedSequence` clock (DESIGN.md §15): `allocate` hands out
//! sequence ranges via a SeqCst RMW chain, so successive allocations
//! are totally ordered and transitively synchronised — the checker
//! verifies ranges never overlap and never dip below the observed
//! recovery watermark, and propagates the RMW chain's happens-before
//! into thread clocks. (Range/watermark bookkeeping assumes checker
//! calls happen in RMW order; under the model scheduler this is exact
//! because execution is serialised, and in ordinary `check` tests
//! opens — the only `observe` callers — don't race allocations.)
//!
//! All state lives behind one `std::sync` mutex; the module is compiled
//! out entirely without `check`, so the production read path keeps its
//! zero-overhead claim. [`reset`] clears every clock between model
//! executions (thousands of short-lived threads would otherwise grow
//! clock vectors without bound); callers must drop all live domains
//! first.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex as StdMutex;

use crate::ikey::MAX_SEQUENCE;

/// A vector clock: one logical-time component per participating thread.
type Clock = Vec<u64>;

fn join(into: &mut Clock, other: &Clock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(other.iter()) {
        *a = (*a).max(*b);
    }
}

/// `true` if `a ≤ b` component-wise (i.e. `a` happened-before or equals `b`).
fn dominated(a: &Clock, b: &Clock) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
}

struct DomainState {
    /// Newest published sequence (recovery base when no publish yet).
    published: u64,
    /// Thread slot of the newest publisher, if any.
    publisher: Option<usize>,
    /// Publisher's clock at the newest publication.
    pub_clock: Clock,
    /// Join of every publication clock — what a Release/Acquire-paired
    /// reader is entitled to inherit.
    cumulative: Clock,
}

/// One `SharedSequence` clock's allocation history.
struct SeqDomainState {
    /// Allocated ranges `start -> end` (inclusive), pairwise disjoint.
    ranges: BTreeMap<u64, u64>,
    /// Highest sequence `observe`d (a recovered on-disk tail).
    watermark: u64,
    /// Join of every allocator/observer clock (the RMW chain's
    /// cumulative happens-before).
    cumulative: Clock,
}

#[derive(Default)]
struct State {
    clocks: Vec<Clock>,
    thread_names: Vec<String>,
    domains: HashMap<u64, DomainState>,
    seq_domains: HashMap<u64, SeqDomainState>,
}

static STATE: StdMutex<Option<State>> = StdMutex::new(None);

/// Domain ids stay process-unique across [`reset`] so a stale stamped
/// id (e.g. in a memtable that outlived its domain) can never alias a
/// newly registered domain.
static NEXT_DOMAIN: AtomicU64 = AtomicU64::new(1);

/// Bumped by [`reset`]; thread slots from older generations are
/// re-registered on next use.
static GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SLOT: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };
}

fn with_state<R>(f: impl FnOnce(&mut State, usize) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let st = guard.get_or_insert_with(State::default);
    let gen = GENERATION.load(Ordering::Relaxed);
    let slot = SLOT.with(|s| {
        let (slot_gen, idx) = s.get();
        if slot_gen != gen || idx == usize::MAX {
            let fresh = st.clocks.len();
            s.set((gen, fresh));
            st.clocks.push(Vec::new());
            st.thread_names.push(
                std::thread::current()
                    .name()
                    .unwrap_or("<unnamed>")
                    .to_string(),
            );
            fresh
        } else {
            idx
        }
    });
    f(st, slot)
}

/// Drop all checker state (clocks, thread slots, domain records) and
/// start a fresh generation. The model-checker explorer calls this
/// between executions — each run spawns fresh threads, and clock
/// vectors are indexed by thread slot, so thousands of runs would
/// otherwise grow every clock to thousands of components.
///
/// Callers must ensure no live [`Domain`]/[`SeqDomain`] spans the
/// reset (drop the previous execution's `Db`s first): publishing on a
/// cleared domain panics as "unregistered".
pub fn reset() {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// One `Db` instance's sequence space in the checker. Created at open
/// with the recovered tail sequence as the publication base; dropping it
/// unregisters the domain.
pub struct Domain {
    id: u64,
}

impl Domain {
    /// Register a new domain whose sequences start at `base` (the
    /// recovered `last_sequence`; nothing below it needs a publication
    /// record).
    pub fn new(base: u64) -> Domain {
        with_state(|st, _| {
            let id = NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed);
            st.domains.insert(
                id,
                DomainState {
                    published: base,
                    publisher: None,
                    pub_clock: Vec::new(),
                    cumulative: Vec::new(),
                },
            );
            Domain { id }
        })
    }

    /// Move the publication base to `base`: the trees of one shard share
    /// a domain that is registered before recovery knows the tail
    /// sequence. Only valid before the first [`Domain::publish`].
    pub fn set_base(&self, base: u64) {
        with_state(|st, _| {
            if let Some(ds) = st.domains.get_mut(&self.id) {
                ds.published = base;
            }
        });
    }

    /// The domain's process-unique id (stamped into memtables so
    /// [`observe`] can find the right sequence space).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Writer-side publication edge: record that every sequence up to
    /// `seq` is now fully inserted. Must be called *after* the memtable
    /// insert and *before* the Release store of `last_seq`.
    ///
    /// Panics if publications are not strictly monotonic — either two
    /// writers raced the publish edge (clocks concurrent) or sequence
    /// bookkeeping regressed (clocks ordered).
    pub fn publish(&self, seq: u64) {
        with_state(|st, slot| {
            let names = &st.thread_names;
            let me = names[slot].clone();
            // Split borrows: clone the clock first, then look up the domain.
            let ds = st
                .domains
                .get_mut(&self.id)
                .expect("publish on unregistered vclock domain");
            if seq <= ds.published {
                let prev = ds
                    .publisher
                    .map(|p| names.get(p).cloned().unwrap_or_default())
                    .unwrap_or_else(|| "<recovery>".to_string());
                let my_clock = st.clocks[slot].clone();
                let relation = if dominated(&ds.pub_clock, &my_clock) {
                    "the previous publication is in this thread's causal past \
                     (sequence bookkeeping regressed)"
                } else {
                    "the previous publication is CONCURRENT with this thread \
                     (two writers raced the publish edge; `inner` did not \
                     serialize them)"
                };
                panic!(
                    "vclock: non-monotonic publication in domain {}: thread '{me}' \
                     publishing seq {seq} but seq {} was already published by \
                     thread '{prev}'; {relation}\n  publisher clock: {:?}\n  this \
                     thread's clock: {:?}",
                    self.id, ds.published, ds.pub_clock, my_clock
                );
            }
            let clock = &mut st.clocks[slot];
            if clock.len() <= slot {
                clock.resize(slot + 1, 0);
            }
            clock[slot] += 1;
            let snapshot = clock.clone();
            ds.published = seq;
            ds.publisher = Some(slot);
            ds.pub_clock = snapshot.clone();
            join(&mut ds.cumulative, &snapshot);
        });
    }

    /// Reader-side consumption edge: called right after the Acquire-load
    /// of `last_seq` returned `seq`. Joins the domain's cumulative
    /// publication clock into this thread's clock.
    ///
    /// Panics if `seq` exceeds the newest publication — the Acquire-load
    /// observed a sequence whose insert has no publication record, i.e.
    /// the Release store was reordered before the memtable insert.
    pub fn consume(&self, seq: u64) {
        with_state(|st, slot| {
            let Some(ds) = st.domains.get(&self.id) else {
                return;
            };
            if seq > ds.published {
                let me = st.thread_names[slot].clone();
                panic!(
                    "vclock: thread '{me}' Acquire-loaded seq {seq} in domain {} \
                     but the newest publication is seq {}: the last_seq \
                     Release/Acquire pairing is broken (store reordered before \
                     the memtable insert?)",
                    self.id, ds.published
                );
            }
            let cum = ds.cumulative.clone();
            join(&mut st.clocks[slot], &cum);
        });
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        with_state(|st, _| {
            st.domains.remove(&self.id);
        });
    }
}

/// Memtable-side visibility check: a snapshot-bounded iterator is about
/// to yield the entry `seq` under `snapshot`. No-op for unstamped
/// memtables (`domain == 0`), unbounded snapshots, or already-dropped
/// domains.
///
/// Panics if the entry escapes the snapshot filter or was never
/// published (visible write without the happens-before edge).
pub fn observe(domain: u64, seq: u64, snapshot: u64) {
    if domain == 0 || snapshot == MAX_SEQUENCE {
        return;
    }
    with_state(|st, slot| {
        let Some(ds) = st.domains.get(&domain) else {
            return;
        };
        if seq > snapshot {
            panic!(
                "vclock: memtable in domain {domain} yielded seq {seq} above \
                 snapshot {snapshot}: snapshot filter violated"
            );
        }
        if seq > ds.published {
            let me = st.thread_names[slot].clone();
            panic!(
                "vclock: thread '{me}' observed memtable entry seq {seq} in \
                 domain {domain} but the newest publication is seq {}: a write \
                 is visible to readers without the publish happens-before edge",
                ds.published
            );
        }
    });
}

/// One `SharedSequence` clock's sequence space in the checker
/// (cross-shard allocate/observe edges, DESIGN.md §15). Created by
/// `SharedSequence::new` with the base watermark; dropping it
/// unregisters the domain.
pub struct SeqDomain {
    id: u64,
}

impl SeqDomain {
    /// Register a new shared-clock domain; sequences at or below `base`
    /// are considered already handed out.
    pub fn new(base: u64) -> SeqDomain {
        with_state(|st, _| {
            let id = NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed);
            st.seq_domains.insert(
                id,
                SeqDomainState {
                    ranges: BTreeMap::new(),
                    watermark: base,
                    cumulative: Vec::new(),
                },
            );
            SeqDomain { id }
        })
    }

    /// Allocation edge: this thread's `allocate(n)` RMW returned the
    /// range `[start, start + n - 1]`. Verifies the range is disjoint
    /// from every earlier allocation and above the observed watermark
    /// (either failure means two shards could stamp the same sequence),
    /// then joins clocks both ways — each SeqCst RMW synchronises with
    /// the whole chain before it.
    pub fn allocate(&self, start: u64, n: u64) {
        if n == 0 {
            return;
        }
        let end = start + (n - 1);
        with_state(|st, slot| {
            let Some(ds) = st.seq_domains.get_mut(&self.id) else {
                return;
            };
            if let Some((&prev_start, &prev_end)) = ds.ranges.range(..=end).next_back() {
                if prev_end >= start {
                    let me = st.thread_names[slot].clone();
                    panic!(
                        "vclock: shared-clock domain {}: thread '{me}' allocated \
                         seq range [{start}, {end}] overlapping the earlier \
                         allocation [{prev_start}, {prev_end}] — the clock handed \
                         out the same sequence twice",
                        self.id
                    );
                }
            }
            if start <= ds.watermark {
                let me = st.thread_names[slot].clone();
                panic!(
                    "vclock: shared-clock domain {}: thread '{me}' allocated seq \
                     range [{start}, {end}] at or below the observed watermark \
                     {} — recovered sequences could be re-issued",
                    self.id, ds.watermark
                );
            }
            // The watermark stays what `observe` saw: two shards' leaders
            // report their allocations here in either order, and folding
            // range ends into it would flag the later report of the
            // earlier range.
            ds.ranges.insert(start, end);
            let clock = &mut st.clocks[slot];
            if clock.len() <= slot {
                clock.resize(slot + 1, 0);
            }
            clock[slot] += 1;
            join(&mut ds.cumulative, clock);
            let cum = ds.cumulative.clone();
            join(&mut st.clocks[slot], &cum);
        });
    }

    /// Observation edge: `observe(seq)` ran `fetch_max(seq)` (recovery
    /// advancing the clock past an on-disk tail). Raises the watermark
    /// and joins clocks both ways (fetch_max is part of the RMW chain).
    pub fn observe(&self, seq: u64) {
        with_state(|st, slot| {
            let Some(ds) = st.seq_domains.get_mut(&self.id) else {
                return;
            };
            ds.watermark = ds.watermark.max(seq);
            let clock = &mut st.clocks[slot];
            if clock.len() <= slot {
                clock.resize(slot + 1, 0);
            }
            clock[slot] += 1;
            join(&mut ds.cumulative, clock);
            let cum = ds.cumulative.clone();
            join(&mut st.clocks[slot], &cum);
        });
    }

    /// Load edge: `current()` SeqCst-loaded the clock. Pure acquire —
    /// joins the chain's cumulative clock into this thread's clock
    /// without contributing to it.
    pub fn load(&self) {
        with_state(|st, slot| {
            let Some(ds) = st.seq_domains.get(&self.id) else {
                return;
            };
            let cum = ds.cumulative.clone();
            join(&mut st.clocks[slot], &cum);
        });
    }
}

impl Drop for SeqDomain {
    fn drop(&mut self) {
        with_state(|st, _| {
            st.seq_domains.remove(&self.id);
        });
    }
}
