//! The write path of a [`Db`]: the group-commit writer queue and its
//! leader (DESIGN.md §14), the index operations a commit derives
//! ([`DeriveOps`], [`CommitView`]), and the sequence a shard publishes
//! ([`SharedSequence`] and the shard's published last sequence).

use super::{Db, DbCore, DbInner};
use crate::env::IoStats;
use crate::ikey::{self, ValueType};
use crate::model_bugs::{self, Fault};
use crate::sync::{AtomicU64, Ordering};
use crate::write_batch::{self, BatchOp, WriteBatch};
use ldbpp_common::{Error, Result};
use parking_lot::{Condvar, Mutex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// A monotone sequence-number allocator shared by the `Db` instances of a
/// store, so that writes routed across hash-partitioned engine shards
/// still carry one global recency clock (the ordering key of every top-K
/// lookup). `SecondaryDb` installs one at every shard count.
///
/// Install the same clock in each shard's
/// [`DbOptions::sequence_clock`](super::DbOptions::sequence_clock)
/// before opening it. During recovery every shard calls
/// [`SharedSequence::observe`] with its recovered last sequence, so the
/// clock starts past everything already durable in any shard; afterwards
/// each group commit draws its contiguous sequence range from the clock
/// (`SharedSequence::allocate`) instead of `last_sequence + 1`. Per-shard
/// sequence spaces therefore become sparse (a shard only owns the ranges
/// its own commits drew), which the engine tolerates everywhere — WAL
/// records carry their own start sequence and the MANIFEST only tracks the
/// per-shard maximum.
///
/// A clock installed in one `Db` alone observes that database's last
/// sequence and then hands out `last + 1`, `last + 2`, … — the numbers the
/// database would allocate without a clock — so a one-shard store writes
/// the same bytes either way.
pub struct SharedSequence {
    v: AtomicU64,
    /// Checker-only domain tracking allocate/observe/load happens-before
    /// edges and range disjointness on this clock (DESIGN.md §17).
    #[cfg(feature = "check")]
    vc: crate::vclock::SeqDomain,
}

impl SharedSequence {
    /// A fresh clock starting at sequence 0 (first allocation returns 1).
    pub fn new() -> Arc<SharedSequence> {
        Arc::new(SharedSequence::default())
    }

    /// Raise the clock to at least `seq` (used while recovering a shard:
    /// nothing allocated later may collide with what is already durable).
    pub fn observe(&self, seq: u64) {
        self.v.fetch_max(seq, Ordering::SeqCst);
        #[cfg(feature = "check")]
        self.vc.observe(seq);
    }

    /// The last sequence number handed out (or observed) so far.
    pub fn current(&self) -> u64 {
        let seq = self.v.load(Ordering::SeqCst);
        #[cfg(feature = "check")]
        self.vc.load();
        seq
    }

    /// Reserve `n` consecutive sequence numbers; returns the first.
    pub(crate) fn allocate(&self, n: u64) -> u64 {
        let start = self.v.fetch_add(n, Ordering::SeqCst) + 1;
        #[cfg(feature = "check")]
        self.vc.allocate(start, n);
        start
    }
}

impl Default for SharedSequence {
    fn default() -> SharedSequence {
        SharedSequence {
            v: AtomicU64::new(0),
            #[cfg(feature = "check")]
            vc: crate::vclock::SeqDomain::new(0),
        }
    }
}

impl std::fmt::Debug for SharedSequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SharedSequence").field(&self.v).finish()
    }
}

/// What a `Db` that owns a commit log shares with the trees it feeds
/// ([`Db::open_with_trees`]): one published sequence, so that a reader
/// finds an index entry exactly when it finds the record it points to.
pub(super) struct ShardLog {
    /// The newest sequence visible to readers of any tree. Stored with
    /// `Release` *after* the memtable inserts, so a reader that loads it
    /// with `Acquire` before cloning a tree's `ReadState` is guaranteed to
    /// see every acknowledged write at or below the loaded value.
    pub(super) last_seq: AtomicU64,
    /// Vector-clock domain checking the `last_seq` publish/consume edges
    /// at runtime (`check` builds only; see [`crate::vclock`]).
    #[cfg(feature = "check")]
    pub(super) vc: crate::vclock::Domain,
}

impl ShardLog {
    pub(super) fn new() -> Arc<ShardLog> {
        Arc::new(ShardLog {
            last_seq: AtomicU64::new(0),
            #[cfg(feature = "check")]
            vc: crate::vclock::Domain::new(0),
        })
    }
}

/// Derives, inside the commit, what a write to the log-owning table
/// implies for the trees it commits for (see [`Db::write_derived`]).
pub trait DeriveOps: Send + Sync {
    /// Called by the group-commit leader once per tree-0 operation of the
    /// batch, after `op`'s sequence number `seq` is allocated and before
    /// anything is logged. Push the implied operations (each naming its
    /// tree, `1..=trees`) onto `out`; they are logged and inserted with
    /// `op`, under its sequence number. Read the shard through `view`
    /// only. An error fails the group with nothing written.
    fn derive(
        &self,
        view: &CommitView<'_>,
        seq: u64,
        op: &BatchOp,
        out: &mut Vec<BatchOp>,
    ) -> Result<()>;
}

/// Point reads of a shard's trees as a commit in progress must see them:
/// the published state overlaid with the group's earlier operations, which
/// the memtables do not yet hold.
pub struct CommitView<'a> {
    core: &'a DbCore,
    earlier: &'a [BatchOp],
}

impl CommitView<'_> {
    /// The newest value of `key` in `tree` (0: the log-owning table).
    /// Pending merge operands are not folded in: no deriver reads a key
    /// it merges into.
    pub fn get(&self, tree: u32, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut pending = self.earlier.iter().rev();
        if let Some(op) =
            pending.find(|op| op.tree == tree && op.key == key && op.vtype != ValueType::Merge)
        {
            return Ok((op.vtype == ValueType::Value).then(|| op.value.clone()));
        }
        match tree.checked_sub(1) {
            None => self.core.get_resolved(key, None),
            Some(i) => match self.core.trees.get(i as usize) {
                Some(tree) => tree.get(key),
                None => Err(Error::invalid(format!("no tree {tree} in this shard"))),
            },
        }
    }
}

/// One queued logical write: the encoded operation bodies of a single
/// [`WriteBatch`] plus the slot its group's leader fills with the outcome.
///
/// The request is the unit of the group-commit protocol (DESIGN.md §14):
/// the queue-front request's thread is the *leader*; it commits a prefix
/// of the queue as one WAL record, then either hands each follower its
/// start sequence (or the group's shared error) through `state`, or —
/// for the next request still in the queue — hands over leadership.
pub(super) struct WriteRequest {
    /// Operation count of this batch.
    count: u32,
    /// Encoded operation bodies ([`WriteBatch::op_bytes`]).
    body: Vec<u8>,
    /// What the batch's tree-0 operations imply for the other trees.
    derive: Option<Arc<dyn DeriveOps>>,
    /// Outcome slot; a leaf lock (acquired while holding nothing else by
    /// waiting followers, and nothing below it by the leader).
    state: Mutex<WriteOutcome>,
    /// Signalled when `state` gains a result or leadership.
    cond: Condvar,
}

impl WriteRequest {
    fn new(batch: &WriteBatch, derive: Option<Arc<dyn DeriveOps>>) -> Arc<WriteRequest> {
        Arc::new(WriteRequest {
            count: batch.count(),
            body: batch.op_bytes().to_vec(),
            derive,
            state: Mutex::new(WriteOutcome::default()),
            cond: Condvar::new(),
        })
    }
}

/// What a follower wakes up to: a result, or a promotion to leader.
#[derive(Default)]
struct WriteOutcome {
    /// The batch's start sequence number, or the group's shared error.
    result: Option<Result<u64>>,
    /// Set when the previous leader hands this (queue-front) request the
    /// leader role instead of a result.
    leader: bool,
}

impl Db {
    /// Insert or overwrite `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<u64> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(&mut batch)
    }

    /// Delete `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<u64> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(&mut batch)
    }

    /// Append a merge operand for `key` (requires a configured
    /// [`crate::merge::MergeOperator`]).
    pub fn merge(&self, key: &[u8], operand: &[u8]) -> Result<u64> {
        let mut batch = WriteBatch::new();
        batch.merge(key, operand);
        self.write(&mut batch)
    }

    /// Apply a batch atomically. Returns the sequence number of its first
    /// operation.
    ///
    /// Concurrent callers go through the group-commit writer queue
    /// (DESIGN.md §14): each enqueues its batch, the queue-front *leader*
    /// commits a prefix of the queue as one WAL record (one append, at
    /// most one fsync, one memtable publish), and followers are woken
    /// with their rebased start sequences. A single uncontended writer is
    /// always its own leader of a group of one, producing byte-for-byte
    /// the WAL record the pre-queue engine produced.
    ///
    /// A leader that finds the memtable full freezes it and hands it to
    /// the drain round: in foreground mode it runs the round (flush, then
    /// due compactions) itself before logging; in background mode the
    /// worker does, and the leader stalls only under L0 backpressure (see
    /// [`DbOptions::l0_slowdown_trigger`](super::DbOptions::l0_slowdown_trigger) /
    /// [`DbOptions::l0_stall_trigger`](super::DbOptions::l0_stall_trigger)).
    pub fn write(&self, batch: &mut WriteBatch) -> Result<u64> {
        self.write_request(batch, None)
    }

    /// [`Db::write`], with the operations `batch` implies for the trees
    /// this table commits for derived inside the commit: the group leader
    /// hands each tree-0 operation to `derive` once its sequence number is
    /// known, and logs, inserts and publishes what `derive` returns with
    /// it. What `derive` reads and writes is therefore serialised with
    /// every other commit of the shard — a read-modify-write of an index
    /// entry cannot lose an update, and an index entry carries the
    /// sequence number of the very record it points to.
    pub fn write_derived(&self, batch: &mut WriteBatch, derive: Arc<dyn DeriveOps>) -> Result<u64> {
        self.write_request(batch, Some(derive))
    }

    /// A view of the shard outside any commit: the published state alone.
    /// For maintenance that emits index operations from a quiesced table
    /// (rebuild, backfill) through the same code a commit runs.
    pub fn commit_view(&self) -> CommitView<'_> {
        CommitView {
            core: &self.core,
            earlier: &[],
        }
    }

    fn write_request(
        &self,
        batch: &mut WriteBatch,
        derive: Option<Arc<dyn DeriveOps>>,
    ) -> Result<u64> {
        if batch.is_empty() {
            return Err(Error::invalid("empty write batch"));
        }
        let core = &self.core;
        if core.tree_id != 0 {
            return Err(Error::not_supported(
                "this tree is written through the commit log of the table it was opened under",
            ));
        }
        core.check_fatal()?;
        let req = WriteRequest::new(batch, derive);
        let is_leader = {
            let mut writers = core.writers.lock();
            let was_empty = writers.is_empty();
            writers.push_back(Arc::clone(&req));
            was_empty
        };
        if !is_leader {
            // Follower: wait on our own slot for a result or a promotion.
            // The guard is dropped before leading, so `state` stays a
            // leaf in the lock graph.
            let mut state = req.state.lock();
            loop {
                if let Some(result) = state.result.take() {
                    return result;
                }
                if state.leader {
                    break;
                }
                req.cond.wait(&mut state);
            }
        }
        core.lead_group(&req)
    }
}

impl DbCore {
    /// Lead one group commit on behalf of `own` (the queue-front request)
    /// and return `own`'s result.
    ///
    /// Every exit path pops the committed group (at minimum `own` itself)
    /// from the writer queue and promotes the next queued request to
    /// leader — otherwise the queue would deadlock behind a request
    /// nobody is driving. That includes a panic (in a [`DeriveOps`] or a
    /// memtable insert): the record may be in the WAL without its inserts,
    /// so the leader poisons the database and hands the whole group that
    /// error before the panic resumes. The clean-up runs with the panic
    /// caught rather than from a drop guard: it takes locks, and a lock
    /// that panics during an unwind (as the model checker's do when it
    /// aborts a run) would abort the process.
    fn lead_group(&self, own: &Arc<WriteRequest>) -> Result<u64> {
        let (group, outcome) =
            match panic::catch_unwind(AssertUnwindSafe(|| self.commit_group(own))) {
                Ok(committed) => committed,
                Err(payload) => {
                    let fatal = self.set_fatal(Error::corruption(
                        "a group commit panicked: the log may hold a record its memtables lack",
                    ));
                    let _ = self.finish_group(own, &self.collect_group(own), Err(fatal));
                    panic::resume_unwind(payload)
                }
            };
        self.finish_group(own, &group, outcome)
    }

    /// Make room, collect the group and commit it. Returns the committed
    /// (or failed) group — always containing at least `own` — plus the
    /// group's shared outcome: the group start sequence, or the error
    /// every member gets.
    fn commit_group(&self, own: &Arc<WriteRequest>) -> (Vec<Arc<WriteRequest>>, Result<u64>) {
        // A promoted leader may be running after a previous group
        // poisoned the database; re-check before touching anything.
        if let Err(e) = self.check_fatal() {
            return (vec![Arc::clone(own)], Err(e));
        }
        self.maybe_slowdown();
        match self.make_room(self.inner.lock(), false) {
            Ok(mut inner) => {
                let group = self.collect_group(own);
                let outcome = self.commit(&mut inner, &group);
                (group, outcome)
            }
            // Make-room failure fails only the leader (LevelDB's
            // contract): queued followers may well succeed once the
            // backlog clears, so they get a fresh leader, not our error.
            Err(e) => (vec![Arc::clone(own)], Err(e)),
        }
    }

    /// Collect the leader's group: the queue-front prefix whose payload
    /// bytes fit the group cap ([`DbOptions::max_group_commit_bytes`]).
    /// The leader's own batch always fits; when it is small the cap is
    /// tightened (LevelDB's refinement) so a tiny write's latency is
    /// never held hostage by a large group forming behind it.
    fn collect_group(&self, own: &Arc<WriteRequest>) -> Vec<Arc<WriteRequest>> {
        let writers = self.writers.lock();
        debug_assert!(writers.front().is_some_and(|f| Arc::ptr_eq(f, own)));
        let small = self.opts.max_group_commit_bytes / 8;
        let cap = if own.body.len() <= small {
            own.body.len() + small
        } else {
            self.opts.max_group_commit_bytes
        };
        let mut total = 0usize;
        let mut group = Vec::new();
        for req in writers.iter() {
            if !group.is_empty() && total + req.body.len() > cap {
                break;
            }
            total += req.body.len();
            group.push(Arc::clone(req));
        }
        group
    }

    /// One WAL append (+ at most one fsync) + one publish for a whole
    /// group, under one sequence allocation, across every tree the group
    /// touches. Caller holds `inner` and has already made room in this
    /// table.
    fn commit(&self, inner: &mut DbInner, group: &[Arc<WriteRequest>]) -> Result<u64> {
        let total_count: u64 = group.iter().map(|r| u64::from(r.count)).sum();
        // A clock (every `SecondaryDb` shard has one) hands out globally
        // unique, monotone ranges; without one, allocation is
        // `last_sequence + 1`.
        let start_seq = match &self.opts.sequence_clock {
            Some(clock) => clock.allocate(total_count),
            None => inner.versions.last_sequence + 1,
        };
        if ikey::MAX_SEQUENCE - start_seq < total_count {
            return Err(Error::invalid("sequence space exhausted"));
        }
        let last_seq = start_seq + total_count - 1;
        // Decode every body and derive what it implies for the other trees
        // before touching the WAL or a memtable, so a malformed batch or a
        // failed derivation fails the group with no state mutated at all.
        let (ops, payload, tree_bytes) = self.plan(group, start_seq)?;
        let fed: Vec<usize> = (1..tree_bytes.len())
            .filter(|tree| tree_bytes[*tree] > 0)
            .collect();
        for tree in &fed {
            let core = &self.trees[tree - 1].core;
            core.maybe_slowdown();
            core.make_room(core.inner.lock(), false)?;
        }
        let index_first = model_bugs::enabled(Fault::IndexBeforeWal);
        if index_first {
            self.insert_fed(&fed, start_seq, &ops);
            self.publish(last_seq);
        }
        if let Some(wal) = inner.wal.as_mut() {
            // A failed append leaves a partial record at the WAL tail;
            // recovery reads it as a clean truncated-tail EOF, but only
            // if nothing is appended after it — poison the write path.
            // Every batch in the group shared the failed record, so
            // every member gets the error (the failure contract of
            // DESIGN.md §14).
            if let Err(e) = wal.add_record(&payload) {
                return Err(self.set_fatal(e));
            }
            if self.opts.wal_sync {
                // A failed fsync means unknown durability for a record
                // the policy promises durable — poison, like a failed
                // append.
                if let Err(e) = wal.sync() {
                    return Err(self.set_fatal(e));
                }
                IoStats::add(&self.stats.wal_syncs, 1);
            }
            // Each tree is charged the bytes of the operations it takes;
            // the record's header and its syncs are this table's.
            IoStats::add(&self.stats.wal_bytes_written, tree_bytes[0]);
            for tree in &fed {
                let stats = &self.trees[tree - 1].core.stats;
                IoStats::add(&stats.wal_bytes_written, tree_bytes[*tree]);
            }
        }
        if model_bugs::enabled(Fault::PublishBeforeInsert) {
            self.shard.last_seq.store(last_seq, Ordering::Release);
        }
        self.insert(
            inner,
            write_batch::sequenced(start_seq, &ops).filter(|(_, op)| op.tree == 0),
        );
        inner.versions.last_sequence = last_seq;
        if !index_first {
            self.insert_fed(&fed, start_seq, &ops);
            self.publish(last_seq);
        }
        IoStats::add(&self.stats.group_commits, 1);
        IoStats::add(&self.stats.grouped_writes, group.len() as u64);
        IoStats::add(
            &self.stats.group_size_hist[IoStats::group_size_bucket(group.len())],
            1,
        );
        Ok(start_seq)
    }

    /// Decode a group's batches, run their derivations, and lay out the
    /// WAL record: the operations in log order, the record's payload, and
    /// the payload bytes each tree (by number) accounts for.
    fn plan(
        &self,
        group: &[Arc<WriteRequest>],
        start_seq: u64,
    ) -> Result<(Vec<BatchOp>, Vec<u8>, Vec<u64>)> {
        let mut ops: Vec<BatchOp> = Vec::new();
        let mut seq = start_seq;
        for req in group {
            for op in write_batch::decode_ops(&req.body, req.count)? {
                let mut derived = Vec::new();
                if let (Some(derive), 0) = (&req.derive, op.tree) {
                    let view = CommitView {
                        core: self,
                        earlier: &ops,
                    };
                    derive.derive(&view, seq, &op, &mut derived)?;
                }
                // A derived operation shares its source's sequence number,
                // so it cannot share its tree.
                let unknown = |op: &BatchOp| op.tree as usize > self.trees.len();
                if unknown(&op) || derived.iter().any(|d| d.tree == 0 || unknown(d)) {
                    return Err(Error::invalid(format!(
                        "operation for a tree outside this shard of {}",
                        self.trees.len() + 1
                    )));
                }
                ops.push(op);
                ops.extend(derived.into_iter().map(|mut op| {
                    op.derived = true;
                    op
                }));
                seq += 1;
            }
        }
        let mut payload = write_batch::payload_header(start_seq, ops.len() as u32);
        let mut tree_bytes = vec![0u64; self.trees.len() + 1];
        tree_bytes[0] = payload.len() as u64;
        for op in &ops {
            let before = payload.len();
            write_batch::encode_op(
                &mut payload,
                op.tree,
                op.derived,
                op.vtype,
                &op.key,
                &op.value,
            );
            tree_bytes[op.tree as usize] += (payload.len() - before) as u64;
        }
        Ok((ops, payload, tree_bytes))
    }

    /// Insert operations of this tree into its active memtable. Caller
    /// holds `inner`; the shard's commit leader and its recovery are the
    /// only callers, one at a time and in sequence order.
    pub(super) fn insert<'a>(
        &self,
        inner: &mut DbInner,
        ops: impl Iterator<Item = (u64, &'a BatchOp)>,
    ) {
        let rs = self.read_state();
        let mut mem = rs.mem.write();
        for (seq, op) in ops {
            mem.add(seq, op.vtype, &op.key, &op.value);
            inner.versions.last_sequence = inner.versions.last_sequence.max(seq);
        }
    }

    /// Insert a committed group's operations into the fed trees `fed`.
    fn insert_fed(&self, fed: &[usize], start_seq: u64, ops: &[BatchOp]) {
        for tree in fed {
            let core = &self.trees[tree - 1].core;
            core.insert(
                &mut core.inner.lock(),
                write_batch::sequenced(start_seq, ops).filter(|(_, op)| op.tree as usize == *tree),
            );
        }
    }

    /// Make every sequence up to `seq` visible to readers of every tree.
    /// Only after the memtable inserts: a reader that Acquire-loads the
    /// value is guaranteed to find the entries.
    fn publish(&self, seq: u64) {
        #[cfg(feature = "check")]
        self.shard.vc.publish(seq);
        self.shard.last_seq.store(seq, Ordering::Release);
    }

    /// Pop the group from the queue, hand leadership to the next queued
    /// writer, and distribute per-batch results (rebased start sequences,
    /// or the shared error) to every follower in the group. Returns
    /// `own`'s result. Caller holds no locks.
    fn finish_group(
        &self,
        own: &Arc<WriteRequest>,
        group: &[Arc<WriteRequest>],
        outcome: Result<u64>,
    ) -> Result<u64> {
        let next = {
            let mut writers = self.writers.lock();
            for _ in 0..group.len() {
                writers.pop_front();
            }
            writers.front().cloned()
        };
        if let Some(next) = next {
            let mut state = next.state.lock();
            state.leader = true;
            // Seeded bug (model-checker fault injection, off by default):
            // promote the next leader but drop the wakeup. A follower that
            // already entered `cond.wait` sleeps forever — the classic lost
            // notify, caught by the scheduler's deadlock detector.
            if !model_bugs::enabled(Fault::SkipLeaderNotify) {
                next.cond.notify_one();
            }
        }
        // Sequence rebasing: batch i's start sequence is the group start
        // plus the operation counts of batches 0..i.
        let mut own_result = outcome.clone();
        let mut next_seq = outcome;
        for req in group {
            let result = next_seq.clone();
            if let Ok(seq) = &mut next_seq {
                *seq += u64::from(req.count);
            }
            if Arc::ptr_eq(req, own) {
                own_result = result;
            } else {
                let mut state = req.state.lock();
                state.result = Some(result);
                req.cond.notify_one();
            }
        }
        own_result
    }
}
