//! Deterministic cooperative scheduler for model checking (`check` builds).
//!
//! This module is the execution substrate of the `ldbpp-model` checker
//! (DESIGN.md §17). A *model run* executes a small fixed set of threads
//! over real engine code, but serialises them completely: at every
//! instrumented operation — lock acquisition, condvar wait/notify,
//! atomic access, channel send/recv — the thread parks and a
//! coordinator decides who runs next. Exactly one model thread is ever
//! runnable between decisions, so
//!
//! * every interleaving is a sequence of coordinator choices that an
//!   explorer can enumerate and replay bit-for-bit, and
//! * the underlying `std::sync` primitives are only ever acquired when
//!   the scheduler's *logical* bookkeeping guarantees they are free, so
//!   real blocking never happens inside a model run.
//!
//! Threads that are not part of a model run (the coordinator itself,
//! ordinary test threads, production code) carry no scheduler context
//! in TLS and fall straight through every hook to the plain `std`
//! behaviour. The default (no `check`) build compiles none of this.
//!
//! ## Logical state
//!
//! The coordinator mirrors each primitive's state (mutex owner, rwlock
//! reader/writer sets, condvar wait queues) keyed by the same lazy ids
//! `lockcheck` assigns. A blocked operation is represented as a
//! *pending op*; the coordinator computes the enabled subset at each
//! quiescent point and asks a caller-supplied picker to choose. Condvar
//! semantics are modelled faithfully: `wait` releases the mutex and
//! moves the thread to the condvar's FIFO queue in one step (so lost
//! wakeups are representable), `notify` moves waiters to a pending
//! mutex-reacquire, and there are no spurious wakeups (a scheduler that
//! controls every switch never needs them — schedules that would arise
//! from a spurious wakeup also arise from an adversarial notify order).
//!
//! ## Failure modes
//!
//! A model run ends in one of: clean termination (all threads
//! finished), a panic in a model thread (assertion, lockcheck cycle,
//! vclock violation — the first one wins), a *deadlock* (threads
//! remain but no pending op is enabled — this is how lost wakeups
//! surface), or a *step-budget* overrun (livelock backstop). Any
//! failure aborts the run: every parked thread is woken into a
//! [`SchedAbort`] panic that unwinds its stack (running guard
//! destructors, so logical lock state stays consistent) and the
//! coordinator reports the failure to the explorer, which prints a
//! replayable schedule seed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as RawU64, Ordering as RawOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use crate::lockcheck::LockId;

/// Panic payload used to unwind model threads when a run is aborted
/// (failure elsewhere, deadlock, step budget). Not a bug in the model:
/// the catch in the thread wrapper recognises it and finishes quietly.
pub struct SchedAbort;

/// What kind of operation a parked thread wants to perform next.
///
/// The kind (together with [`PendingOp::obj`]) drives enabledness,
/// preemption-free runs, and the independence relation used for
/// sleep-set pruning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Thread registered, about to run its body (always enabled).
    Start,
    /// `Mutex::lock`; enabled when the mutex is logically free.
    MutexLock,
    /// `Mutex::try_lock`; always enabled (may be granted as a failure).
    MutexTryLock,
    /// `RwLock::read`; enabled when no logical writer holds the lock.
    RwRead,
    /// `RwLock::write`; enabled when no logical reader or writer.
    RwWrite,
    /// Re-acquire the mutex after a condvar wait was notified.
    CondReacquire,
    /// `Condvar::notify_one` / `notify_all`; always enabled.
    CondNotify,
    /// Instrumented atomic load; always enabled.
    AtomicLoad,
    /// Instrumented atomic store; always enabled.
    AtomicStore,
    /// Instrumented atomic read-modify-write; always enabled.
    AtomicRmw,
    /// Channel send (unbounded, always enabled).
    ChanSend,
    /// Channel receive; gated on "message available or disconnected".
    ChanRecv,
    /// Predicate-gated wait (e.g. drain "active ≤ waiters"); enabled
    /// when the predicate, evaluated by the coordinator at a quiescent
    /// point, returns true.
    Gate,
    /// Plain yield point; always enabled.
    Yield,
}

/// A parked thread's declared next operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PendingOp {
    /// Operation kind.
    pub kind: OpKind,
    /// Identity of the object operated on (lock id, atomic id or channel
    /// id). Ids are only comparable within the same [`Class`].
    pub obj: u64,
    /// Whether enabledness is decided by a caller-supplied predicate.
    /// Gated ops are conservatively dependent with everything.
    pub gated: bool,
}

/// Coarse object-id namespace of an op; ids from different classes come
/// from different counters and must never be compared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Lock,
    Cv,
    Atomic,
    Chan,
    /// Start/Yield: commute with everything (see `independent`).
    Free,
}

impl PendingOp {
    fn class(&self) -> Class {
        match self.kind {
            OpKind::MutexLock
            | OpKind::MutexTryLock
            | OpKind::RwRead
            | OpKind::RwWrite
            | OpKind::CondReacquire => Class::Lock,
            OpKind::CondNotify => Class::Cv,
            OpKind::AtomicLoad | OpKind::AtomicStore | OpKind::AtomicRmw => Class::Atomic,
            OpKind::ChanSend | OpKind::ChanRecv => Class::Chan,
            OpKind::Start | OpKind::Yield | OpKind::Gate => Class::Free,
        }
    }

    /// Conservative independence (commutativity) relation for sleep-set
    /// pruning: two enabled ops are independent iff executing them in
    /// either order yields the same state. Over-approximating
    /// dependence is sound (less pruning); the only aggressive case
    /// here is `Free`-class ops, which touch no shared object state.
    pub fn independent(&self, other: &PendingOp) -> bool {
        if self.gated || other.gated {
            return false; // predicate may read anything
        }
        let (ca, cb) = (self.class(), other.class());
        if ca == Class::Free || cb == Class::Free {
            return true; // start/yield commute with everything
        }
        if ca != cb || self.obj != other.obj {
            return true; // disjoint object state
        }
        match ca {
            Class::Lock => self.kind == OpKind::RwRead && other.kind == OpKind::RwRead,
            Class::Atomic => self.kind == OpKind::AtomicLoad && other.kind == OpKind::AtomicLoad,
            _ => false,
        }
    }
}

/// One entry of the enabled set handed to the picker.
#[derive(Clone, Debug)]
pub struct EnabledOp {
    /// Thread index (position in the `execute` thread list).
    pub thread: usize,
    /// The operation that thread is parked on.
    pub op: PendingOp,
}

/// Why a model run failed.
#[derive(Debug, Clone)]
pub enum Failure {
    /// A model thread panicked (assertion, lockcheck, vclock, seeded
    /// bug detector). Only the first panic is recorded.
    Panic {
        /// Index of the panicking thread.
        thread: usize,
        /// Name of the panicking thread.
        name: String,
        /// Panic payload rendered to a string.
        message: String,
    },
    /// No pending op is enabled but threads remain: a real deadlock or
    /// a lost wakeup.
    Deadlock {
        /// `(thread index, thread name, what it is blocked on)`.
        blocked: Vec<(usize, String, String)>,
    },
    /// The run exceeded the step budget (livelock backstop).
    StepBudget {
        /// The budget that was exhausted.
        steps: u64,
    },
}

impl Failure {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        match self {
            Failure::Panic {
                thread,
                name,
                message,
            } => format!("thread #{thread} '{name}' panicked: {message}"),
            Failure::Deadlock { blocked } => {
                let parts: Vec<String> = blocked
                    .iter()
                    .map(|(i, n, w)| format!("#{i} '{n}' blocked on {w}"))
                    .collect();
                format!("deadlock: {}", parts.join("; "))
            }
            Failure::StepBudget { steps } => {
                format!("step budget exhausted after {steps} scheduled operations (livelock?)")
            }
        }
    }
}

/// Outcome of one fully-executed (or aborted) model run.
#[derive(Debug)]
pub struct ExecReport {
    /// `None` on clean termination.
    pub failure: Option<Failure>,
    /// Number of scheduling decisions granted.
    pub steps: u64,
}

type GatePred = Arc<dyn Fn() -> bool + Send + Sync>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TStatus {
    /// Slot registered; OS thread not yet parked at its start point.
    Starting,
    /// Granted and executing real code between yield points.
    Running,
    /// Parked with a pending op, waiting to be granted.
    Parked,
    /// In a condvar's wait queue (not schedulable until notified).
    CvWaiting(u64),
    Finished,
}

struct ThreadState {
    name: String,
    status: TStatus,
    pending: Option<PendingOp>,
    gate: Option<GatePred>,
    scheduled: bool,
    /// Result of a granted `MutexTryLock` (true = acquired).
    try_ok: bool,
}

#[derive(Default)]
struct RwSt {
    writer: Option<usize>,
    readers: Vec<usize>,
}

struct SchedState {
    threads: Vec<ThreadState>,
    /// Logical mutex owners (also used for condvar reacquisition).
    mutexes: HashMap<u64, Option<usize>>,
    rwlocks: HashMap<u64, RwSt>,
    /// Condvar FIFO wait queues: `(thread, mutex to reacquire)`.
    cvs: HashMap<u64, Vec<(usize, u64)>>,
    failure: Option<Failure>,
    aborting: bool,
    steps: u64,
    last_granted: Option<usize>,
}

struct Scheduler {
    st: StdMutex<SchedState>,
    cv: StdCondvar,
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            st: StdMutex::new(SchedState {
                threads: Vec::new(),
                mutexes: HashMap::new(),
                rwlocks: HashMap::new(),
                cvs: HashMap::new(),
                failure: None,
                aborting: false,
                steps: 0,
                last_granted: None,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[derive(Clone)]
struct Ctx {
    sched: Arc<Scheduler>,
    me: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the calling thread is a registered model thread of an active
/// run (i.e. whether scheduler hooks will intercept its operations).
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Object-id counter for scheduler-managed objects that have no
/// `lockcheck` identity (atomics, channels). Distinct id space from
/// lock ids; ops only compare ids within one class.
static NEXT_OBJ: RawU64 = RawU64::new(1);

fn next_obj_id() -> u64 {
    NEXT_OBJ.fetch_add(1, RawOrdering::Relaxed)
}

/// Lazily-assigned identity for instrumented atomics/channels, same
/// shape as `lockcheck::LockId` so construction stays `const`.
pub struct ObjId(RawU64);

impl ObjId {
    /// Unassigned id (assigned on first instrumented access).
    pub const fn new() -> ObjId {
        ObjId(RawU64::new(0))
    }

    fn get(&self) -> u64 {
        let cur = self.0.load(RawOrdering::Relaxed);
        if cur != 0 {
            return cur;
        }
        let fresh = next_obj_id();
        match self
            .0
            .compare_exchange(0, fresh, RawOrdering::Relaxed, RawOrdering::Relaxed)
        {
            Ok(_) => fresh,
            Err(raced) => raced,
        }
    }
}

impl Default for ObjId {
    fn default() -> Self {
        ObjId::new()
    }
}

/// Park the current model thread with `op` pending and block until the
/// coordinator grants it. Panics with [`SchedAbort`] if the run aborts.
fn yield_for(ctx: &Ctx, op: PendingOp, gate: Option<GatePred>) {
    let mut st = ctx.sched.lock();
    {
        let t = &mut st.threads[ctx.me];
        t.status = TStatus::Parked;
        t.pending = Some(op);
        t.gate = gate;
        t.scheduled = false;
    }
    ctx.sched.cv.notify_all();
    loop {
        if st.aborting && !st.threads[ctx.me].scheduled {
            st.threads[ctx.me].pending = None;
            st.threads[ctx.me].gate = None;
            drop(st);
            panic::panic_any(SchedAbort);
        }
        if st.threads[ctx.me].scheduled {
            break;
        }
        st = ctx.sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let t = &mut st.threads[ctx.me];
    t.scheduled = false;
    t.status = TStatus::Running;
    t.pending = None;
    t.gate = None;
}

// ---------------------------------------------------------------------------
// Hooks used by the shim primitives (lib.rs) and by instrumented code.
// All are no-ops (returning `None`/`false`) on non-model threads.
// ---------------------------------------------------------------------------

/// Which logical lock state a [`Grant`] releases on drop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GrantKind {
    Mutex,
    Read,
    Write,
}

/// Logical-ownership token for a scheduler-managed lock acquisition.
/// Dropping it (when the shim guard drops) releases the logical lock;
/// condvar wait disarms it instead (the wait itself releases).
pub struct Grant {
    sched: Arc<Scheduler>,
    obj: u64,
    kind: GrantKind,
    me: usize,
    armed: bool,
}

impl Grant {
    fn disarm(mut self) -> u64 {
        self.armed = false;
        self.obj
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = self.sched.lock();
        match self.kind {
            GrantKind::Mutex => {
                st.mutexes.insert(self.obj, None);
            }
            GrantKind::Read => {
                if let Some(rw) = st.rwlocks.get_mut(&self.obj) {
                    if let Some(pos) = rw.readers.iter().position(|&r| r == self.me) {
                        rw.readers.swap_remove(pos);
                    }
                }
            }
            GrantKind::Write => {
                if let Some(rw) = st.rwlocks.get_mut(&self.obj) {
                    rw.writer = None;
                }
            }
        }
    }
}

fn lock_point(id: &LockId, kind: OpKind, grant_kind: GrantKind) -> Option<Grant> {
    let ctx = current()?;
    let obj = id.get();
    yield_for(
        &ctx,
        PendingOp {
            kind,
            obj,
            gated: false,
        },
        None,
    );
    Some(Grant {
        sched: ctx.sched,
        obj,
        kind: grant_kind,
        me: ctx.me,
        armed: true,
    })
}

/// Scheduling point for `Mutex::lock`. `None` when not under a model
/// run; otherwise parks until the logical mutex is granted.
pub(crate) fn mutex_lock(id: &LockId) -> Option<Grant> {
    lock_point(id, OpKind::MutexLock, GrantKind::Mutex)
}

/// Scheduling point for `Mutex::try_lock`. `None` when not under a
/// model run; `Some(None)` = would block; `Some(Some(grant))` = taken.
pub(crate) fn mutex_try_lock(id: &LockId) -> Option<Option<Grant>> {
    let ctx = current()?;
    let obj = id.get();
    yield_for(
        &ctx,
        PendingOp {
            kind: OpKind::MutexTryLock,
            obj,
            gated: false,
        },
        None,
    );
    let ok = ctx.sched.lock().threads[ctx.me].try_ok;
    Some(ok.then(|| Grant {
        sched: ctx.sched,
        obj,
        kind: GrantKind::Mutex,
        me: ctx.me,
        armed: true,
    }))
}

/// Scheduling point for `RwLock::read`.
pub(crate) fn rw_read(id: &LockId) -> Option<Grant> {
    lock_point(id, OpKind::RwRead, GrantKind::Read)
}

/// Scheduling point for `RwLock::write`.
pub(crate) fn rw_write(id: &LockId) -> Option<Grant> {
    lock_point(id, OpKind::RwWrite, GrantKind::Write)
}

/// Condvar wait under the scheduler: atomically (from the model's point
/// of view) release the mutex `grant` covers and join `cv`'s wait
/// queue; block until notified *and* the mutex is logically
/// re-granted. Returns the new grant for the re-acquired mutex.
pub(crate) fn condvar_wait(cv: &LockId, grant: Grant) -> Grant {
    let ctx = current().expect("condvar_wait called off a model thread");
    let sched = Arc::clone(&ctx.sched);
    let cv_id = cv.get();
    let mutex_obj = grant.disarm();
    let mut st = sched.lock();
    st.mutexes.insert(mutex_obj, None);
    st.cvs.entry(cv_id).or_default().push((ctx.me, mutex_obj));
    {
        let t = &mut st.threads[ctx.me];
        t.status = TStatus::CvWaiting(cv_id);
        t.pending = None;
        t.scheduled = false;
    }
    sched.cv.notify_all();
    loop {
        if st.aborting && !st.threads[ctx.me].scheduled {
            // Leave the cv queue consistent for the deadlock report.
            if let Some(q) = st.cvs.get_mut(&cv_id) {
                q.retain(|&(t, _)| t != ctx.me);
            }
            drop(st);
            panic::panic_any(SchedAbort);
        }
        if st.threads[ctx.me].scheduled {
            break;
        }
        st = sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let t = &mut st.threads[ctx.me];
    t.scheduled = false;
    t.status = TStatus::Running;
    t.pending = None;
    drop(st);
    Grant {
        sched,
        obj: mutex_obj,
        kind: GrantKind::Mutex,
        me: ctx.me,
        armed: true,
    }
}

/// Timed condvar wait under the scheduler. The model has no clock, so
/// the wait is modelled as the always-legal "timeout raced the notify"
/// outcome: release the mutex, yield (a scheduling point at which any
/// notifier can run), re-acquire, and report that the timeout fired.
/// The thread never joins the cv queue — a notify during the window is
/// a permitted no-op. Predicate loops around `wait_timeout` thereby
/// degenerate to a schedulable poll, which the coordinator can
/// interleave like any other op sequence.
pub(crate) fn condvar_wait_timeout(grant: Grant) -> Grant {
    let ctx = current().expect("condvar_wait_timeout called off a model thread");
    let mutex_obj = grant.disarm();
    ctx.sched.lock().mutexes.insert(mutex_obj, None);
    // The release above is observed at this yield (yield_for notifies
    // the coordinator), so a parked notifier or lock waiter can run
    // before we ask for the mutex back.
    yield_for(
        &ctx,
        PendingOp {
            kind: OpKind::Yield,
            obj: 0,
            gated: false,
        },
        None,
    );
    yield_for(
        &ctx,
        PendingOp {
            kind: OpKind::CondReacquire,
            obj: mutex_obj,
            gated: false,
        },
        None,
    );
    Grant {
        sched: ctx.sched,
        obj: mutex_obj,
        kind: GrantKind::Mutex,
        me: ctx.me,
        armed: true,
    }
}

/// Condvar notify under the scheduler: a scheduling point, then moves
/// up to one (or all) waiters from the cv queue to a pending
/// mutex-reacquire. Returns false when not under a model run.
pub(crate) fn condvar_notify(cv: &LockId, all: bool) -> bool {
    let Some(ctx) = current() else {
        return false;
    };
    let cv_id = cv.get();
    yield_for(
        &ctx,
        PendingOp {
            kind: OpKind::CondNotify,
            obj: cv_id,
            gated: false,
        },
        None,
    );
    let mut st = ctx.sched.lock();
    let woken: Vec<(usize, u64)> = match st.cvs.get_mut(&cv_id) {
        Some(q) if !q.is_empty() => {
            let n = if all { q.len() } else { 1 };
            q.drain(..n).collect()
        }
        _ => Vec::new(),
    };
    for (w, mutex_obj) in woken {
        let t = &mut st.threads[w];
        t.status = TStatus::Parked;
        t.pending = Some(PendingOp {
            kind: OpKind::CondReacquire,
            obj: mutex_obj,
            gated: false,
        });
    }
    true
}

/// Generic always-enabled scheduling point (atomics, channel sends,
/// explicit yields). Returns false when not under a model run.
pub fn op_point(kind: OpKind, obj: u64) -> bool {
    let Some(ctx) = current() else {
        return false;
    };
    yield_for(
        &ctx,
        PendingOp {
            kind,
            obj,
            gated: false,
        },
        None,
    );
    true
}

/// Predicate-gated scheduling point: parks until `pred` (evaluated by
/// the coordinator at quiescent points) returns true. Returns false
/// when not under a model run, in which case the caller must wait by
/// its own means. Used for drain ("active ≤ waiters") and channel recv.
pub fn blocking_point(kind: OpKind, obj: u64, pred: GatePred) -> bool {
    let Some(ctx) = current() else {
        return false;
    };
    yield_for(
        &ctx,
        PendingOp {
            kind,
            obj,
            gated: true,
        },
        Some(pred),
    );
    true
}

/// Explicit yield point for model code.
pub fn yield_now() {
    op_point(OpKind::Yield, 0);
}

// ---------------------------------------------------------------------------
// Model threads.
// ---------------------------------------------------------------------------

/// Run model thread `ctx.me`'s body under the scheduler; `execute`
/// registers its slot *before* the OS thread spawns, so the coordinator
/// never races it. Panics (including [`SchedAbort`]) are recorded, then
/// re-thrown.
fn run_child<R>(ctx: Ctx, f: impl FnOnce() -> R) -> R {
    CURRENT.with(|c| *c.borrow_mut() = Some(ctx.clone()));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        yield_for(
            &ctx,
            PendingOp {
                kind: OpKind::Start,
                obj: 0,
                gated: false,
            },
            None,
        );
        f()
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);
    match result {
        Ok(v) => {
            finish_thread(&ctx.sched, ctx.me, None);
            v
        }
        Err(payload) => {
            finish_thread(&ctx.sched, ctx.me, Some(&*payload));
            panic::resume_unwind(payload)
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn finish_thread(sched: &Arc<Scheduler>, me: usize, payload: Option<&(dyn std::any::Any + Send)>) {
    let mut st = sched.lock();
    if let Some(p) = payload {
        if !p.is::<SchedAbort>() && st.failure.is_none() {
            let name = st.threads[me].name.clone();
            st.failure = Some(Failure::Panic {
                thread: me,
                name,
                message: panic_message(p),
            });
            st.aborting = true;
        }
    }
    st.threads[me].status = TStatus::Finished;
    sched.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Instrumented atomics.
// ---------------------------------------------------------------------------

/// Atomic integer/bool types that park at every access when the calling
/// thread is part of a model run, and behave exactly like
/// `std::sync::atomic` otherwise. Engine code selects these via
/// `ldbpp_lsm::sync` so the default build re-exports plain std types.
pub mod atomic {
    use super::{op_point, ObjId, OpKind};
    pub use std::sync::atomic::Ordering;

    macro_rules! instrumented_atomic {
        ($name:ident, $raw:ident, $prim:ty) => {
            /// Scheduler-instrumented drop-in for the std atomic of the
            /// same name (subset of the API the engine uses).
            pub struct $name {
                id: ObjId,
                v: std::sync::atomic::$raw,
            }

            impl $name {
                /// Create a new atomic with the given initial value.
                pub const fn new(v: $prim) -> $name {
                    $name {
                        id: ObjId::new(),
                        v: std::sync::atomic::$raw::new(v),
                    }
                }

                /// Atomic load (scheduling point under a model run).
                pub fn load(&self, order: Ordering) -> $prim {
                    op_point(OpKind::AtomicLoad, self.id.get());
                    self.v.load(order)
                }

                /// Atomic store (scheduling point under a model run).
                pub fn store(&self, val: $prim, order: Ordering) {
                    op_point(OpKind::AtomicStore, self.id.get());
                    self.v.store(val, order)
                }

                /// Atomic swap (scheduling point under a model run).
                pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                    op_point(OpKind::AtomicRmw, self.id.get());
                    self.v.swap(val, order)
                }

                /// Compare-and-exchange (scheduling point under a model run).
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    op_point(OpKind::AtomicRmw, self.id.get());
                    self.v.compare_exchange(current, new, success, failure)
                }

                /// Mutable access without instrumentation (exclusive).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.v.get_mut()
                }

                /// Consume the atomic, returning the inner value.
                pub fn into_inner(self) -> $prim {
                    self.v.into_inner()
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // No scheduling point: Debug is diagnostic-only.
                    self.v.fmt(f)
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }
        };
    }

    instrumented_atomic!(AtomicU64, AtomicU64, u64);
    instrumented_atomic!(AtomicUsize, AtomicUsize, usize);
    instrumented_atomic!(AtomicBool, AtomicBool, bool);

    macro_rules! instrumented_fetch {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Atomic add (scheduling point under a model run).
                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    op_point(OpKind::AtomicRmw, self.id.get());
                    self.v.fetch_add(val, order)
                }

                /// Atomic subtract (scheduling point under a model run).
                pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                    op_point(OpKind::AtomicRmw, self.id.get());
                    self.v.fetch_sub(val, order)
                }

                /// Atomic max (scheduling point under a model run).
                pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                    op_point(OpKind::AtomicRmw, self.id.get());
                    self.v.fetch_max(val, order)
                }
            }
        };
    }

    instrumented_fetch!(AtomicU64, u64);
    instrumented_fetch!(AtomicUsize, usize);
}

// ---------------------------------------------------------------------------
// Channel identity (logical state lives in the crossbeam shim).
// ---------------------------------------------------------------------------

/// Draw a fresh channel id (crossbeam shim; the channel's logical
/// length/sender-count state lives in the shim, enabledness is
/// expressed via [`blocking_point`]).
pub fn chan_id() -> u64 {
    next_obj_id()
}

// ---------------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------------

/// Serialises model runs process-wide: logical lock state is keyed by
/// process-global ids and TLS, so two concurrent runs (e.g. parallel
/// `#[test]`s) must take turns.
static EXEC: StdMutex<()> = StdMutex::new(());

/// Suppress default panic printing for model threads: panics there are
/// either deliberate aborts or captured and reported with a schedule
/// seed; the default hook would print thousands of backtraces during
/// exploration. Installed once, delegates for non-model threads.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !active() {
                prev(info);
            }
        }));
    });
}

fn quiescent(st: &SchedState) -> bool {
    st.threads
        .iter()
        .all(|t| !matches!(t.status, TStatus::Starting | TStatus::Running))
}

fn all_finished(st: &SchedState) -> bool {
    st.threads.iter().all(|t| t.status == TStatus::Finished)
}

fn op_enabled(st: &SchedState, t: &ThreadState, op: &PendingOp) -> bool {
    if op.gated {
        return t.gate.as_ref().is_some_and(|g| g());
    }
    match op.kind {
        OpKind::MutexLock | OpKind::CondReacquire => {
            st.mutexes.get(&op.obj).copied().flatten().is_none()
        }
        OpKind::RwRead => st.rwlocks.get(&op.obj).is_none_or(|rw| rw.writer.is_none()),
        OpKind::RwWrite => st
            .rwlocks
            .get(&op.obj)
            .is_none_or(|rw| rw.writer.is_none() && rw.readers.is_empty()),
        _ => true, // Start, try-lock, notify, atomics, sends, yields
    }
}

fn enabled_set(st: &SchedState) -> Vec<EnabledOp> {
    let mut out = Vec::new();
    for (i, t) in st.threads.iter().enumerate() {
        if t.status != TStatus::Parked {
            continue;
        }
        let Some(op) = t.pending else { continue };
        if op_enabled(st, t, &op) {
            out.push(EnabledOp { thread: i, op });
        }
    }
    out
}

fn describe_block(st: &SchedState, t: &ThreadState) -> String {
    match t.status {
        TStatus::CvWaiting(cv) => format!("Condvar#{cv} (waiting, never notified)"),
        TStatus::Parked => match t.pending {
            Some(op) => {
                let holder = match op.kind {
                    OpKind::MutexLock | OpKind::CondReacquire => st
                        .mutexes
                        .get(&op.obj)
                        .copied()
                        .flatten()
                        .map(|h| format!(" held by #{h} '{}'", st.threads[h].name)),
                    _ => None,
                };
                format!("{:?}#{}{}", op.kind, op.obj, holder.unwrap_or_default())
            }
            None => "<no pending op>".to_string(),
        },
        s => format!("<{s:?}>"),
    }
}

fn grant(st: &mut SchedState, thread: usize) {
    let op = st.threads[thread]
        .pending
        .expect("granting a thread with no pending op");
    match op.kind {
        OpKind::MutexLock | OpKind::CondReacquire => {
            st.mutexes.insert(op.obj, Some(thread));
        }
        OpKind::MutexTryLock => {
            let slot = st.mutexes.entry(op.obj).or_insert(None);
            if slot.is_none() {
                *slot = Some(thread);
                st.threads[thread].try_ok = true;
            } else {
                st.threads[thread].try_ok = false;
            }
        }
        OpKind::RwRead => {
            st.rwlocks.entry(op.obj).or_default().readers.push(thread);
        }
        OpKind::RwWrite => {
            st.rwlocks.entry(op.obj).or_default().writer = Some(thread);
        }
        _ => {}
    }
    st.steps += 1;
    st.last_granted = Some(thread);
    // Considered Running from the moment of the grant (the OS thread
    // may take a while to wake): keeps the quiescence check and the
    // enabled set from seeing a granted thread as still parked.
    st.threads[thread].status = TStatus::Running;
    st.threads[thread].scheduled = true;
}

/// Run one complete model execution.
///
/// Spawns one OS thread per `(name, body)` pair, serialises them
/// through the scheduler, and calls `picker(enabled, last_granted)` at
/// every scheduling decision; the picker returns an index into
/// `enabled`. The enabled set is sorted by thread index, so a picker
/// replaying a recorded choice list reproduces the exact interleaving.
///
/// Returns when every thread has finished or the run was aborted
/// (failure/deadlock/step budget). Only one execution runs at a time
/// process-wide.
pub fn execute(
    threads: Vec<(String, Box<dyn FnOnce() + Send>)>,
    max_steps: u64,
    picker: &mut dyn FnMut(&[EnabledOp], Option<usize>) -> usize,
) -> ExecReport {
    install_quiet_panic_hook();
    let _exec = EXEC.lock().unwrap_or_else(|e| e.into_inner());
    let sched = Arc::new(Scheduler::new());
    {
        let mut st = sched.lock();
        for (name, _) in &threads {
            st.threads.push(ThreadState {
                name: name.clone(),
                status: TStatus::Starting,
                pending: None,
                gate: None,
                scheduled: false,
                try_ok: false,
            });
        }
    }
    let mut handles = Vec::with_capacity(threads.len());
    for (i, (name, body)) in threads.into_iter().enumerate() {
        let s = Arc::clone(&sched);
        let h = std::thread::Builder::new()
            .name(format!("model:{name}"))
            .spawn(move || {
                let ctx = Ctx { sched: s, me: i };
                // Swallow the rethrown panic: failures are reported via
                // the run's Failure, not via process unwinding.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| run_child(ctx, body)));
            })
            .expect("spawn model thread");
        handles.push(h);
    }

    loop {
        let mut st = sched.lock();
        while !quiescent(&st) {
            st = sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.failure.is_some() || all_finished(&st) {
            if !all_finished(&st) {
                st.aborting = true;
                sched.cv.notify_all();
                while !all_finished(&st) {
                    st = sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
            break;
        }
        let enabled = enabled_set(&st);
        if enabled.is_empty() {
            let blocked: Vec<(usize, String, String)> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != TStatus::Finished)
                .map(|(i, t)| (i, t.name.clone(), describe_block(&st, t)))
                .collect();
            st.failure = Some(Failure::Deadlock { blocked });
            continue; // next iteration takes the abort path
        }
        if st.steps >= max_steps {
            st.failure = Some(Failure::StepBudget { steps: st.steps });
            continue;
        }
        let last = st.last_granted;
        // All model threads are parked: nothing mutates scheduler or
        // model state while the picker runs, so holding the lock is
        // safe and keeps the decision atomic.
        let choice = picker(&enabled, last);
        assert!(
            choice < enabled.len(),
            "picker returned {choice} for an enabled set of {}",
            enabled.len()
        );
        grant(&mut st, enabled[choice].thread);
        sched.cv.notify_all();
    }

    let report = {
        let st = sched.lock();
        ExecReport {
            failure: st.failure.clone(),
            steps: st.steps,
        }
    };
    for h in handles {
        let _ = h.join();
    }
    report
}
