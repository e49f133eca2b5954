//! The database: write path, read path, flushes and compactions.
//!
//! One pipeline, two executors. A memtable that reaches
//! `write_buffer_size` (or is flushed on request) is *frozen*: the log
//! rotates and the same memtable moves from `mem` to `imm`. A *drain
//! round* then flushes `imm` to L0 — installing the table and releasing
//! the logs no tree needs any more — and runs the compactions that made
//! due. `background_work` only chooses who runs the round:
//!
//! * **Foreground** (`background_work: false`, the default): the write
//!   that froze the memtable, before it logs its own record. This mirrors
//!   the paper's single-threaded LevelDB — per-operation costs are
//!   directly attributable, which is what its experiments measure, and
//!   every run is byte-for-byte deterministic.
//! * **Background** (`background_work: true`): a dedicated worker thread,
//!   so writes return after the WAL append and memtable insert. L0
//!   backpressure (slowdown / stall triggers) keeps the worker from
//!   falling behind unboundedly.
//!
//! [`Db::flush`] runs the round on the calling thread in both modes. Reads
//! are lock-free with respect to the write path: a reader grabs an `Arc`
//! snapshot of `(mem, imm, version)` and proceeds without ever taking the
//! big mutex, while flushes and compactions install new snapshots
//! atomically.

use crate::cache::LruCache;
use crate::compaction::{pick_compaction, resolve_key_run_with_snapshot, CompactionJob, RunEntry};
use crate::env::{Env, IoStats};
use crate::ikey::{self, InternalKey, ValueType};
use crate::iterator::{DbIterator, MergingIterator};
use crate::memtable::{MemTable, SnapshotMemIter};
use crate::merge::MergeOperatorRef;
use crate::model_bugs::{self, Fault};
pub use crate::options::DbOptions;
use crate::sync::{AtomicU64, Ordering};
use crate::table::{BlockCache, ConcatIter, ReadPurpose, Table, TableBuilder, TableProvider};
use crate::version::{
    current_file_name, current_tmp_file_name, log_file_name, table_file_name, FileMetaData,
    Version, VersionEdit, VersionSet,
};
use crate::wal::{LogReader, LogWriter};
use crate::write_batch::{self, BatchOp, WriteBatch};
use crossbeam::channel::{unbounded, Receiver, Sender};
use ldbpp_common::{Error, Result};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::Duration;

/// A monotone sequence-number allocator shared by several `Db` instances,
/// so that writes routed across hash-partitioned engine shards still carry
/// one global recency clock (the ordering key of every top-K lookup).
///
/// Install the same clock in each shard's [`DbOptions::sequence_clock`]
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
/// Without a clock installed (the default, and the only configuration the
/// single-shard paper reproduction uses) sequence allocation is unchanged
/// and byte-for-byte deterministic.
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
        Arc::new(SharedSequence {
            v: AtomicU64::new(0),
            #[cfg(feature = "check")]
            vc: crate::vclock::SeqDomain::new(0),
        })
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

/// Identifies where a key's entries came from, in newest-to-oldest order:
/// the memtable, the frozen (flushing) memtable, then each L0 file (newest
/// file first), then each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySource {
    /// The active memtable.
    Mem,
    /// The frozen memtable awaiting its flush (seen by a reader racing a
    /// drain round, in either mode).
    Imm,
    /// An L0 file (by file number).
    L0File(u64),
    /// A level ≥ 1.
    Level(usize),
}

/// The read-path snapshot: everything a GET or scan needs, published as one
/// immutable `Arc` so readers never take the big mutex.
///
/// Invariant: at a freeze the *same* `Arc<RwLock<MemTable>>` moves from the
/// `mem` slot to the `imm` slot, so a reader still holding an older
/// `ReadState` keeps seeing those entries; and a flush installs the new
/// version (containing the L0 file) in the same swap that clears `imm`, so
/// every acknowledged write is visible in exactly one place at all times.
struct ReadState {
    mem: Arc<RwLock<MemTable>>,
    imm: Option<Arc<RwLock<MemTable>>>,
    version: Arc<Version>,
}

/// WAL bookkeeping carried from a memtable freeze to its flush install.
#[derive(Clone)]
struct PendingFlush {
    /// Log number to record in the manifest at install (recovery then
    /// replays only logs at or after it).
    new_log: Option<u64>,
    /// Largest sequence number contained in the frozen memtable.
    boundary_seq: u64,
}

/// What a `Db` that owns a commit log shares with the trees it feeds
/// ([`Db::open_with_trees`]): one published sequence, so that a reader
/// finds an index entry exactly when it finds the record it points to.
struct ShardLog {
    /// The newest sequence visible to readers of any tree. Stored with
    /// `Release` *after* the memtable inserts, so a reader that loads it
    /// with `Acquire` before cloning a tree's `ReadState` is guaranteed to
    /// see every acknowledged write at or below the loaded value.
    last_seq: AtomicU64,
    /// Vector-clock domain checking the `last_seq` publish/consume edges
    /// at runtime (`check` builds only; see [`crate::vclock`]).
    #[cfg(feature = "check")]
    vc: crate::vclock::Domain,
}

impl ShardLog {
    fn new() -> Arc<ShardLog> {
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

/// State that only writers and the maintenance path touch.
struct DbInner {
    wal: Option<LogWriter>,
    versions: VersionSet,
    mem_generation: u64,
    pending_flush: Option<PendingFlush>,
    /// Closed log files still on disk, oldest first, as `(number, largest
    /// sequence in the file)`; see [`DbCore::gc_logs`].
    closed_logs: Vec<(u64, u64)>,
}

enum WorkerMsg {
    Kick,
    Shutdown,
}

/// One queued logical write: the encoded operation bodies of a single
/// [`WriteBatch`] plus the slot its group's leader fills with the outcome.
///
/// The request is the unit of the group-commit protocol (DESIGN.md §14):
/// the queue-front request's thread is the *leader*; it commits a prefix
/// of the queue as one WAL record, then either hands each follower its
/// start sequence (or the group's shared error) through `state`, or —
/// for the next request still in the queue — hands over leadership.
struct WriteRequest {
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

/// Shared core of a [`Db`]: everything the public handle and the background
/// worker both need.
///
/// Lock order (outermost first): `maintenance` → `inner` → {`writers`,
/// `read` → memtable latch} → leaves (`tables`, `pinned`, `bg_error`,
/// `pending_gc`, `live_versions`, `work_tx`, per-request
/// [`WriteRequest::state`]). Never acquire leftwards while holding a
/// lock to the right. Across the trees of a shard the log owner comes
/// first: it takes a fed tree's `maintenance` and `inner` while holding
/// its own, never the reverse. The write path adds two disciplines on top
/// (DESIGN.md §14): `writers` is only ever held briefly (enqueue, group
/// collection, group pop — never across I/O or a condvar wait), and a
/// request's `state` is never held while acquiring any other lock.
struct DbCore {
    name: String,
    opts: DbOptions,
    env: Arc<dyn Env>,
    stats: Arc<IoStats>,
    block_cache: Option<BlockCache>,
    inner: Mutex<DbInner>,
    /// The published read snapshot; swapped atomically on freeze, flush
    /// install and compaction install (always while holding `inner`).
    read: RwLock<Arc<ReadState>>,
    /// The published sequence of the shard.
    shard: Arc<ShardLog>,
    /// 0 for a table that owns its commit log; `i` for the `i`-th tree
    /// fed by another table's log (never written directly).
    tree_id: u32,
    /// The trees this table's log commits for ([`Db::open_with_trees`]).
    trees: Vec<Arc<Db>>,
    /// Largest sequence number already flushed to L0 (memtable-side
    /// secondary indexes prune their maps against this watermark).
    flushed_seq: AtomicU64,
    /// Serializes flushes and compactions — held for a drain round (by the
    /// worker or inline) and by `flush`/`compact` calls.
    maintenance: Mutex<()>,
    /// Signalled (with `inner` state already updated) after every flush or
    /// compaction install and on background errors; writers stalled in
    /// `make_room` and `wait_for_background_idle` wait on it via `inner`.
    work_cond: Condvar,
    /// Table reader cache, keyed by file number.
    tables: Mutex<LruCache<u64, Arc<Table>>>,
    /// Pinned snapshot sequences → pin count. Compactions preserve every
    /// version at or below the largest pinned sequence.
    pinned: Arc<Mutex<BTreeMap<u64, usize>>>,
    /// First error hit by the background worker; surfaced to writers.
    bg_error: Mutex<Option<Error>>,
    /// Sticky fatal error: set when an append to the WAL or the MANIFEST
    /// fails. Both are framed logs whose writer tracks its block offset in
    /// memory — after a failed append the file tail and the writer's idea
    /// of it disagree, so any further record could be mis-framed and turn a
    /// crash-safe truncated tail into mid-file corruption that loses
    /// *acknowledged* writes on recovery. Every mutating entry point
    /// (`write`, `flush`, `compact`, `major_compact`) refuses with this
    /// error once set: the database is read-only until reopened, and reopen
    /// recovers everything acknowledged before the fault.
    fatal: Mutex<Option<Error>>,
    /// Weak refs to every installed version; used by [`DbCore::gc`] to
    /// decide which compaction inputs are still reachable by readers.
    live_versions: Mutex<Vec<Weak<Version>>>,
    /// Compaction input files awaiting deletion (deferred while a live
    /// reader snapshot still references them).
    pending_gc: Mutex<Vec<u64>>,
    /// Channel to the background worker (None in foreground mode and
    /// after shutdown).
    work_tx: Mutex<Option<Sender<WorkerMsg>>>,
    /// Group-commit writer queue (DESIGN.md §14). Invariants: a request
    /// is in the queue from enqueue until its group's leader pops the
    /// whole group after distributing leadership; the front request's
    /// thread is the only leader; only the leader pops.
    writers: Mutex<VecDeque<Arc<WriteRequest>>>,
}

/// A LevelDB-style LSM key-value store.
///
/// ```
/// use ldbpp_lsm::db::{Db, DbOptions};
///
/// let db = Db::open_in_memory(DbOptions::small()).unwrap();
/// db.put(b"k", b"v").unwrap();
/// assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
/// db.delete(b"k").unwrap();
/// assert_eq!(db.get(b"k").unwrap(), None);
/// ```
pub struct Db {
    core: Arc<DbCore>,
    worker: Option<thread::JoinHandle<()>>,
}

impl Db {
    /// Open (creating or recovering) a database at `name` within `env`.
    pub fn open(env: Arc<dyn Env>, name: &str, opts: DbOptions) -> Result<Db> {
        Db::open_tree(env, name, opts, ShardLog::new(), 0, Vec::new())
    }

    /// Open `name` as the commit log and the sequence domain of a shard of
    /// several LSM trees: itself (tree 0) and, for each `(directory,
    /// options)` of `trees`, tree `i + 1` — returned by [`Db::trees`].
    ///
    /// Each fed tree is a `Db` of its own — MANIFEST, memtable and
    /// `write_buffer_size` trigger, levels, compaction, [`IoStats`] — but
    /// has no log and refuses direct writes: it receives the operations
    /// that batches written to this table carry for it ([`BatchOp::tree`])
    /// or imply for it ([`Db::write_derived`]). One batch is one WAL record
    /// and at most one fsync however many trees it touches, and becomes
    /// visible in all of them at once.
    ///
    /// Recovery replays the one log into every tree. A log file names the
    /// trees it was written for (by the last component of their directory),
    /// so `trees` may change order or grow between opens, and is kept while
    /// it holds operations of a tree this open was not given. Each tree
    /// records in its own MANIFEST the sequence it has flushed through and
    /// takes only operations above it, so nothing is applied twice; a file
    /// goes once every tree has flushed through its last operation. A WAL
    /// in a tree's own directory (from a build in which every tree logged
    /// for itself) is replayed into the tree once, here, and deleted.
    pub fn open_with_trees(
        env: Arc<dyn Env>,
        name: &str,
        opts: DbOptions,
        trees: &[(String, DbOptions)],
    ) -> Result<Db> {
        let shard = ShardLog::new();
        let mut fed = Vec::with_capacity(trees.len());
        for (i, (tree_name, tree_opts)) in trees.iter().enumerate() {
            let tree_opts = DbOptions {
                wal_enabled: false,
                sequence_clock: None,
                ..tree_opts.clone()
            };
            fed.push(Arc::new(Db::open_tree(
                Arc::clone(&env),
                tree_name,
                tree_opts,
                Arc::clone(&shard),
                i as u32 + 1,
                Vec::new(),
            )?));
        }
        Db::open_tree(env, name, opts, shard, 0, fed)
    }

    fn open_tree(
        env: Arc<dyn Env>,
        name: &str,
        opts: DbOptions,
        shard: Arc<ShardLog>,
        tree_id: u32,
        trees: Vec<Arc<Db>>,
    ) -> Result<Db> {
        env.mkdir_all(name)?;
        let stats = IoStats::new();
        let block_cache: Option<BlockCache> = if opts.block_cache_bytes > 0 {
            Some(Arc::new(Mutex::new(LruCache::new(opts.block_cache_bytes))))
        } else {
            None
        };

        let preexisting = env.exists(&current_file_name(name));
        let mut versions = if preexisting {
            VersionSet::recover(Arc::clone(&env), name, opts.num_levels)?
        } else {
            VersionSet::create(Arc::clone(&env), name, opts.num_levels)?
        };

        let mut mem = MemTable::new();
        let mut mem_generation = 0;

        IoStats::add(&stats.manifest_replays, versions.recovered_edits);

        // Replay the WAL files. Into this table go the records of files at
        // or after the recorded log number (a file below it is still on
        // disk for a fed tree's sake); into a fed tree, the operations
        // above what it has flushed. Flushes of this table
        // forced by replay accumulate into `recovery_edit`, which is logged
        // once — together with the fresh WAL's number — below, so that a
        // crash at any point during recovery leaves the MANIFEST unchanged
        // and the replay idempotent (see `flush_memtable_impl`).
        let mut recovery_edit = VersionEdit::default();
        let mut closed_logs: Vec<(u64, u64)> = Vec::new();
        let mut drained = false;
        if preexisting {
            let mut log_numbers: Vec<u64> = env
                .list(name)?
                .iter()
                .filter_map(|f| f.strip_suffix(".log").and_then(|n| n.parse::<u64>().ok()))
                .collect();
            log_numbers.sort_unstable();
            for number in log_numbers {
                let own = number >= versions.log_number;
                drained |= own;
                let data = env.read_all(&log_file_name(name, number))?;
                let mut max_seq = 0u64;
                // The trees the file's operation tags number, and whether
                // it holds operations of one this open was not given (the
                // file must then outlive the open).
                let mut route: Vec<Option<&Arc<Db>>> = Vec::new();
                let mut foreign = false;
                // Paranoid mode aborts recovery at the first corrupt record;
                // permissive mode resynchronizes at the next block boundary
                // and keeps replaying whatever is still readable.
                let mut reader = if opts.paranoid_checks {
                    LogReader::new(&data)
                } else {
                    LogReader::new_salvaging(&data)
                };
                while let Some(record) = reader.read_record()? {
                    if let Some(names) = write_batch::decode_tree_names(&record) {
                        let given = |n| trees.iter().find(|t| base_name(t.name()).as_bytes() == n);
                        route = names.iter().map(|n| given(n.as_slice())).collect();
                        continue;
                    }
                    let decoded = match WriteBatch::decode(&record) {
                        Ok(d) => d,
                        // A record can pass its CRC yet fail to decode (e.g.
                        // a partially-synced sector rewritten with stale
                        // data). Same policy as a CRC mismatch.
                        Err(e) if !opts.paranoid_checks => {
                            IoStats::add(&stats.wal_records_salvaged, 1);
                            IoStats::add(&stats.wal_bytes_dropped, record.len() as u64);
                            let _ = e;
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    IoStats::add(&stats.wal_replays, 1);
                    let (start_seq, ops) = decoded;
                    for (seq, op) in write_batch::sequenced(start_seq, &ops) {
                        max_seq = max_seq.max(seq);
                        match op.tree.checked_sub(1) {
                            None if own => mem.add(seq, op.vtype, &op.key, &op.value),
                            None => {}
                            Some(i) => match route.get(i as usize).copied().flatten() {
                                Some(tree) => tree.core.replay_op(seq, op)?,
                                None => foreign = true,
                            },
                        }
                    }
                    versions.last_sequence = versions.last_sequence.max(max_seq);
                    if mem.approximate_bytes() >= opts.write_buffer_size {
                        flush_memtable_impl(
                            &opts,
                            &env,
                            &stats,
                            name,
                            &mut versions,
                            &mut mem,
                            &mut recovery_edit,
                        )?;
                        mem_generation += 1;
                    }
                }
                IoStats::add(&stats.wal_records_salvaged, reader.records_salvaged());
                IoStats::add(&stats.wal_bytes_dropped, reader.bytes_dropped());
                if !foreign {
                    closed_logs.push((number, max_seq));
                }
            }
            if !mem.is_empty() {
                flush_memtable_impl(
                    &opts,
                    &env,
                    &stats,
                    name,
                    &mut versions,
                    &mut mem,
                    &mut recovery_edit,
                )?;
                mem_generation += 1;
            }
            // Each tree's flush commits, in its own MANIFEST, how far its
            // replay got; a crash before this table's edit below replays
            // the same files and the tree skips what it already holds.
            for tree in &trees {
                tree.flush()?;
            }
        }

        // Fresh WAL, installed atomically with the recovery flushes: one
        // MANIFEST record moves the database from "replay the old WALs"
        // to "recovered files + new WAL" with no intermediate state.
        let wal = if opts.wal_enabled {
            let log_number = versions.new_file_number();
            recovery_edit.log_number = Some(log_number);
            Some(start_log(&env, name, log_number, &trees)?)
        } else {
            // No successor file to name: retire the replayed ones by
            // number, or the next open would apply them a second time.
            if drained {
                recovery_edit.log_number = Some(versions.new_file_number());
            }
            None
        };
        // Sequence numbers a fed tree drew for itself under a build that
        // gave it a log of its own must not be handed out again.
        for tree in &trees {
            versions.last_sequence = versions.last_sequence.max(tree.tree_sequence());
        }
        // Whatever this open replayed into the table is in L0 now; a fed
        // tree that replayed nothing keeps the mark its MANIFEST holds.
        if tree_id == 0 || drained {
            versions.flushed_seq = versions.last_sequence;
        }
        if recovery_edit.log_number.is_some() || !recovery_edit.new_files.is_empty() {
            versions.log_and_apply(recovery_edit)?;
        }

        let version = versions.current();
        let last_sequence = versions.last_sequence;
        if tree_id == 0 {
            shard.last_seq.store(last_sequence, Ordering::Release);
            #[cfg(feature = "check")]
            shard.vc.set_base(last_sequence);
        }
        // A shared clock must start past everything this shard already
        // holds, or a later allocation could collide with recovered data.
        if let Some(clock) = &opts.sequence_clock {
            clock.observe(last_sequence);
        }
        let table_cache_entries = opts.table_cache_entries.max(16);
        let background = opts.background_work;
        #[cfg(feature = "check")]
        mem.set_vc_domain(shard.vc.id());
        let flushed_seq = versions.flushed_seq;
        let core = Arc::new(DbCore {
            name: name.to_string(),
            opts,
            env,
            stats,
            block_cache,
            inner: Mutex::new(DbInner {
                wal,
                versions,
                mem_generation,
                pending_flush: None,
                closed_logs,
            }),
            read: RwLock::new(Arc::new(ReadState {
                mem: Arc::new(RwLock::new(mem)),
                imm: None,
                version: Arc::clone(&version),
            })),
            shard,
            tree_id,
            trees,
            flushed_seq: AtomicU64::new(flushed_seq),
            maintenance: Mutex::new(()),
            work_cond: Condvar::new(),
            tables: Mutex::new(LruCache::new(table_cache_entries)),
            pinned: Arc::new(Mutex::new(BTreeMap::new())),
            bg_error: Mutex::new(None),
            fatal: Mutex::new(None),
            live_versions: Mutex::new(vec![Arc::downgrade(&version)]),
            pending_gc: Mutex::new(Vec::new()),
            work_tx: Mutex::new(None),
            writers: Mutex::new(VecDeque::new()),
        });
        core.remove_obsolete_files();
        core.gc_logs(&mut core.inner.lock())?;

        let worker = if background {
            let (tx, rx) = unbounded();
            *core.work_tx.lock() = Some(tx);
            let worker_core = Arc::clone(&core);
            let handle = thread::Builder::new()
                .name("ldbpp-bg".to_string())
                .spawn(move || worker_loop(&worker_core, rx))
                .map_err(Error::from)?;
            Some(handle)
        } else {
            None
        };
        Ok(Db { core, worker })
    }

    /// Convenience: open in a fresh in-memory environment.
    pub fn open_in_memory(opts: DbOptions) -> Result<Db> {
        Db::open(crate::env::MemEnv::new(), "db", opts)
    }

    /// The configuration this database was opened with.
    pub fn options(&self) -> &DbOptions {
        &self.core.opts
    }

    /// I/O counters for this database instance.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.core.stats)
    }

    /// The environment this database lives in.
    pub fn env(&self) -> Arc<dyn Env> {
        Arc::clone(&self.core.env)
    }

    /// The database's directory name within its environment.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// The trees this table's log commits for, in the order given to
    /// [`Db::open_with_trees`] (tree `i + 1` at index `i`).
    pub fn trees(&self) -> &[Arc<Db>] {
        &self.core.trees
    }

    /// The most recently published sequence number of the shard.
    pub fn last_sequence(&self) -> u64 {
        self.core.last_sequence()
    }

    /// The largest sequence number of an operation on *this* tree: the
    /// shard's last sequence for a table that owns its log, possibly less
    /// — 0 if nothing was ever written to it — for a tree fed by one.
    pub fn tree_sequence(&self) -> u64 {
        self.core.inner.lock().versions.last_sequence
    }

    /// Cumulative count of user keys whose entire history was discarded by
    /// base-level compaction (newest surviving record was a tombstone).
    /// Persisted in the MANIFEST, so it survives reopen. While zero, every
    /// key ever written still has at least one record (possibly a
    /// tombstone) somewhere in the tree — the property the integrity
    /// checker's dangling-index-entry rule relies on.
    pub fn erased_keys(&self) -> u64 {
        self.core.inner.lock().versions.erased_keys
    }

    /// Bumped every time a memtable's contents reach L0 (callers
    /// maintaining memtable-side indexes use this to know when entries
    /// have left memory).
    pub fn mem_generation(&self) -> u64 {
        self.core.inner.lock().mem_generation
    }

    /// Largest sequence number whose entries have been flushed out of the
    /// in-memory tables (active + frozen) into L0. Memtable-side secondary
    /// indexes prune their maps against this watermark.
    pub fn flushed_through(&self) -> u64 {
        self.core.flushed_seq.load(Ordering::Acquire)
    }

    /// Total bytes of live SSTables.
    pub fn table_bytes(&self) -> u64 {
        self.core.read_state().version.total_bytes()
    }

    /// The current version (file layout snapshot).
    pub fn current_version(&self) -> Arc<Version> {
        Arc::clone(&self.core.read_state().version)
    }

    /// Per-level file counts, for diagnostics.
    pub fn level_file_counts(&self) -> Vec<usize> {
        let v = self.current_version();
        v.files.iter().map(|f| f.len()).collect()
    }

    // -- write path ---------------------------------------------------------

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
    /// [`DbOptions::l0_slowdown_trigger`] / [`DbOptions::l0_stall_trigger`]).
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

    /// Flush all in-memory entries, of this table and of the trees it
    /// commits for, to L0 (then run any due compactions, unless
    /// `auto_compact` is off), on the calling thread in either mode.
    pub fn flush(&self) -> Result<()> {
        for tree in &self.core.trees {
            tree.flush()?;
        }
        self.core.check_fatal()?;
        let _maintenance = self.core.maintenance.lock();
        self.core.flush_all_locked()?;
        self.core.gc_logs(&mut self.core.inner.lock())?;
        if self.core.opts.auto_compact {
            self.core.run_compactions()?;
        }
        Ok(())
    }

    /// Run compactions until no level is over threshold (normally invoked
    /// automatically by writes, or by the background worker).
    pub fn compact(&self) -> Result<()> {
        self.core.check_fatal()?;
        let _maintenance = self.core.maintenance.lock();
        self.core.run_compactions()
    }

    /// The sticky fatal error, if a WAL or MANIFEST append has failed. The
    /// database is read-only while this is `Some`; reopening recovers every
    /// write acknowledged before the fault.
    pub fn fatal_error(&self) -> Option<Error> {
        self.core.fatal.lock().clone()
    }

    /// Major compaction: flush the memtable and push every level's data
    /// down until it all rests in the deepest populated level, rewriting
    /// every SSTable along the way.
    ///
    /// Useful for (a) reclaiming all shadowed versions and tombstones at
    /// once, and (b) re-materializing tables under the *current* options —
    /// e.g. after declaring a new Embedded-Index attribute on an existing
    /// database, a major compaction rebuilds every file with the new
    /// per-block filters and zone maps.
    pub fn major_compact(&self) -> Result<()> {
        self.core.check_fatal()?;
        let _maintenance = self.core.maintenance.lock();
        self.core.flush_all_locked()?;
        for level in 0..self.core.opts.num_levels - 1 {
            let (job, version) = {
                let inner = self.core.inner.lock();
                let version = inner.versions.current();
                let inputs_lo = version.files[level].clone();
                if inputs_lo.is_empty() {
                    continue;
                }
                let Some(lo) = inputs_lo
                    .iter()
                    .map(|f| ikey::user_key(&f.smallest).to_vec())
                    .min()
                else {
                    continue;
                };
                let Some(hi) = inputs_lo
                    .iter()
                    .map(|f| ikey::user_key(&f.largest).to_vec())
                    .max()
                else {
                    continue;
                };
                let inputs_hi = version.overlapping_files(level + 1, &lo, &hi);
                (
                    CompactionJob {
                        level,
                        inputs_lo,
                        inputs_hi,
                    },
                    version,
                )
            };
            self.core.do_compaction(job, version)?;
        }
        Ok(())
    }

    /// Block until the background worker has no pending flush and no due
    /// compaction (no-op in foreground mode). Returns any error the worker
    /// hit. Useful in tests and benchmarks that want a settled tree.
    pub fn wait_for_background_idle(&self) -> Result<()> {
        for tree in &self.core.trees {
            tree.wait_for_background_idle()?;
        }
        if !self.core.opts.background_work {
            return Ok(());
        }
        let core = &self.core;
        let mut inner = core.inner.lock();
        loop {
            core.check_bg_error()?;
            let rs = core.read_state();
            let flush_pending = rs.imm.is_some();
            let compaction_due = core.opts.auto_compact
                && pick_compaction(&core.opts, &rs.version, &inner.versions.compact_pointer)
                    .is_some();
            if !flush_pending && !compaction_due {
                return Ok(());
            }
            core.kick_worker();
            core.work_cond.wait(&mut inner);
        }
    }
    // -- read path ----------------------------------------------------------

    /// Open (via the table cache) the reader for a live file.
    pub fn open_table(&self, meta: &FileMetaData) -> Result<Arc<Table>> {
        self.core.open_table(meta)
    }

    /// Point lookup on the primary key.
    ///
    /// Walks sources newest-to-oldest and stops at the first `Value` or
    /// `Deletion`; merge operands encountered on the way are folded onto
    /// whatever base is found (or onto nothing).
    pub fn get(&self, user_key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.get_resolved(user_key, None)
    }

    /// The sequence number a read started now would observe — usable later
    /// with [`Db::get_at`] for repeatable (snapshot) reads.
    pub fn snapshot_seq(&self) -> u64 {
        self.last_sequence()
    }

    /// Pin the current state: while the returned handle is alive,
    /// compactions preserve every version at or below its sequence, so
    /// [`Db::get_at`] against it is exact no matter how much churn and
    /// compaction happens afterwards. Dropping the handle releases the
    /// guarantee (space is reclaimed by later compactions).
    pub fn pin_snapshot(&self) -> SnapshotHandle {
        let seq = self.last_sequence();
        *self.core.pinned.lock().entry(seq).or_insert(0) += 1;
        SnapshotHandle {
            seq,
            registry: Arc::clone(&self.core.pinned),
        }
    }

    /// Point lookup as of an earlier snapshot sequence: returns the value
    /// `user_key` had when [`Db::snapshot_seq`] returned `snapshot`.
    ///
    /// Note: snapshots are best-effort across compactions — the engine
    /// keeps no snapshot list, so versions older than `snapshot` may have
    /// been compacted away; in that case the newest surviving version at or
    /// below `snapshot` is returned. Within the memtables and unrelated
    /// levels the read is exact, which covers the read-your-writes and
    /// repeatable-read patterns tests rely on. [`Db::pin_snapshot`] makes
    /// the guarantee exact.
    pub fn get_at(&self, user_key: &[u8], snapshot: u64) -> Result<Option<Vec<u8>>> {
        self.core.get_resolved(user_key, Some(snapshot))
    }

    /// A human-readable summary of the tree shape and I/O counters —
    /// LevelDB's `GetProperty("leveldb.stats")` equivalent.
    pub fn debug_summary(&self) -> String {
        use std::fmt::Write as _;
        let rs = self.core.read_state();
        let generation = self.core.inner.lock().mem_generation;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "seq={} mem={}B imm={} gen={}",
            self.last_sequence(),
            rs.mem.read().approximate_bytes(),
            rs.imm.as_ref().map_or(0, |m| m.read().approximate_bytes()),
            generation
        );
        for (level, files) in rs.version.files.iter().enumerate() {
            if files.is_empty() {
                continue;
            }
            let bytes: u64 = files.iter().map(|f| f.file_size).sum();
            let entries: u64 = files.iter().map(|f| f.num_entries).sum();
            let _ = writeln!(
                out,
                "L{level}: {} files, {} B, {} entries",
                files.len(),
                bytes,
                entries
            );
        }
        let s = self.core.stats.snapshot();
        let _ = writeln!(
            out,
            "io: reads={} cache_hits={} flushes={} compactions={} compaction_io={}B wal={}B",
            s.block_reads,
            s.cache_hits,
            s.flushes,
            s.compactions,
            s.compaction_bytes_read + s.compaction_bytes_written,
            s.wal_bytes_written
        );
        out
    }

    /// Visit each source that may hold `user_key`, newest first, with the
    /// entries found there (each newest-first). The closure may break to
    /// stop early — this is how GET avoids touching deeper levels and how
    /// the Lazy index stops once top-K is satisfied.
    pub fn fold_key_sources<F>(&self, user_key: &[u8], visit: F) -> Result<()>
    where
        F: FnMut(KeySource, &[(ValueType, Vec<u8>, u64)]) -> ControlFlow<()>,
    {
        self.fold_key_sources_at(user_key, None, visit)
    }

    /// [`Db::fold_key_sources`] against an explicit snapshot sequence
    /// (`None` = latest). Entries newer than the snapshot are invisible.
    pub fn fold_key_sources_at<F>(
        &self,
        user_key: &[u8],
        snapshot: Option<u64>,
        visit: F,
    ) -> Result<()>
    where
        F: FnMut(KeySource, &[(ValueType, Vec<u8>, u64)]) -> ControlFlow<()>,
    {
        self.core.fold_key_sources_at(user_key, snapshot, visit)
    }

    /// The paper's `GetLite(k, currentLevel)`: is there a version of
    /// `user_key` newer than the candidate found in `found_in` — in a
    /// source above it, or in an L0 file newer than its own — judged purely
    /// from in-memory metadata (memtables + index blocks + primary bloom
    /// filters)? No data-block I/O. Bloom false positives make this
    /// conservatively over-report presence.
    pub fn get_lite(&self, user_key: &[u8], found_in: KeySource) -> bool {
        let latest = self.last_sequence();
        self.core.vc_consume(latest);
        let rs = self.core.read_state();
        let holds = |m: &RwLock<MemTable>| m.read().entries_for(user_key, latest).next().is_some();
        let below_level = match found_in {
            KeySource::Mem => return false,
            KeySource::Imm => return holds(&rs.mem),
            KeySource::L0File(_) => 1,
            KeySource::Level(level) => level,
        };
        if holds(&rs.mem) || rs.imm.as_deref().is_some_and(holds) {
            return true;
        }
        let outcome = probe_files_for_key(&rs.version, user_key, below_level, |source, f| {
            let newer = match (source, found_in) {
                (KeySource::L0File(number), KeySource::L0File(found)) => number > found,
                _ => true,
            };
            // An unreadable table fails safe: it may hold a newer version.
            let may = newer
                && self
                    .core
                    .open_table(f)
                    .map_or(true, |table| table.primary_may_contain(user_key));
            Ok(if may {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        });
        matches!(outcome, Ok(ControlFlow::Break(())))
    }

    /// Newest in-memory entry for `user_key` (type and sequence), if any —
    /// covers both the active and the frozen memtable. Used to validate
    /// candidates found by memtable-side secondary indexes.
    pub fn mem_newest(&self, user_key: &[u8]) -> Option<(ValueType, u64)> {
        let latest = self.last_sequence();
        self.core.vc_consume(latest);
        let rs = self.core.read_state();
        if let Some(found) = rs
            .mem
            .read()
            .entries_for(user_key, latest)
            .next()
            .map(|(t, _, s)| (t, s))
        {
            return Some(found);
        }
        rs.imm.as_ref().and_then(|imm| {
            imm.read()
                .entries_for(user_key, latest)
                .next()
                .map(|(t, _, s)| (t, s))
        })
    }

    /// The newest record for `user_key` across the whole tree — **including
    /// tombstones**, which [`Db::get`] resolves away. `None` means no source
    /// holds any trace of the key (a tombstone compacted to nothing at the
    /// base level also reports `None`). Used by the integrity checker to
    /// distinguish "deleted" from "never written", and to confirm `GetLite`
    /// positives exactly.
    pub fn newest_record(&self, user_key: &[u8]) -> Result<Option<(ValueType, u64)>> {
        let mut found = None;
        self.fold_key_sources_at(user_key, None, |_, entries| {
            if let Some((t, _, s)) = entries.first() {
                found = Some((*t, *s));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        })?;
        Ok(found)
    }

    /// One iterator per source (memtables, each L0 file newest-first, each
    /// deeper level), in newest-to-oldest order — the paper's stand-alone
    /// indexes scan "level by level".
    ///
    /// Every source is **lazy**: the memtables are walked in place through
    /// the snapshot's latch (no `copy_out` clone) and SSTables are opened
    /// through the table cache only when a seek lands in them — building
    /// the stack performs zero `open_table` calls.
    pub fn source_iterators(&self) -> Result<Vec<(KeySource, Box<dyn DbIterator>)>> {
        self.source_iterators_range(None)
    }

    /// [`Db::source_iterators`] restricted to the inclusive user-key range
    /// `[lo, hi]`: files whose key range misses it contribute no iterator,
    /// so a range scan touches only overlapping files (and, through the
    /// lazy [`ConcatIter`], opens them only when the scan reaches them).
    pub fn source_iterators_range(
        &self,
        range: Option<(&[u8], &[u8])>,
    ) -> Result<Vec<(KeySource, Box<dyn DbIterator>)>> {
        // Load the sequence *before* cloning the read state (see
        // `fold_key_sources_at`): the memtable iterators pin this snapshot
        // so concurrent background-mode writers stay invisible.
        let latest = self.last_sequence();
        self.core.vc_consume(latest);
        let rs = self.core.read_state();
        let provider: Arc<dyn TableProvider> = Arc::clone(&self.core) as Arc<dyn TableProvider>;
        let mut out: Vec<(KeySource, Box<dyn DbIterator>)> = Vec::new();
        out.push((
            KeySource::Mem,
            Box::new(SnapshotMemIter::new(Arc::clone(&rs.mem), latest)),
        ));
        if let Some(imm) = &rs.imm {
            out.push((
                KeySource::Imm,
                Box::new(SnapshotMemIter::new(Arc::clone(imm), latest)),
            ));
        }
        let version = &rs.version;
        let overlaps =
            |f: &FileMetaData| range.is_none_or(|(lo, hi)| f.overlaps_user_range(lo, hi));
        // L0 files overlap each other, so each is its own source (newest
        // first); a singleton ConcatIter defers the open until first seek.
        for f in &version.files[0] {
            if !overlaps(f) {
                continue;
            }
            out.push((
                KeySource::L0File(f.number),
                Box::new(ConcatIter::new(
                    Arc::clone(&provider),
                    vec![Arc::clone(f)],
                    ReadPurpose::Query,
                )),
            ));
        }
        for level in 1..version.num_levels() {
            // Levels ≥ 1 are sorted and disjoint: a concatenating iterator
            // binary-searches the file list on seek, touching one file per
            // level (the paper's per-level cost model).
            let files: Vec<Arc<FileMetaData>> = version.files[level]
                .iter()
                .filter(|f| overlaps(f))
                .cloned()
                .collect();
            if files.is_empty() {
                continue;
            }
            out.push((
                KeySource::Level(level),
                Box::new(ConcatIter::new(
                    Arc::clone(&provider),
                    files,
                    ReadPurpose::Query,
                )),
            ));
        }
        Ok(out)
    }

    /// A resolved iterator over the whole database: yields each live user
    /// key's newest value (tombstones skipped, merge operands folded).
    /// Unpositioned — callers must seek first.
    pub fn resolved_iter(&self) -> Result<ResolvedIter> {
        let sources = self.source_iterators()?;
        Ok(self.resolve_sources(sources, None))
    }

    /// A resolved iterator over the inclusive user-key range `[lo, hi]`,
    /// already positioned at `lo`: only sources overlapping the range are
    /// merged and the stream ends after the last key ≤ `hi`, so the scan
    /// touches only overlapping blocks.
    pub fn range_iter(&self, lo: &[u8], hi: &[u8]) -> Result<ResolvedIter> {
        let sources = self.source_iterators_range(Some((lo, hi)))?;
        let mut it = self.resolve_sources(sources, Some(hi.to_vec()));
        it.seek(lo);
        Ok(it)
    }

    /// [`Db::range_iter`] pinned at `snapshot`: entries with a sequence
    /// greater than `snapshot` are invisible, so the scan observes the
    /// database as of that point in sequence time even while concurrent
    /// writers keep appending. Tombstones above the snapshot are ignored
    /// too — a key deleted after the pin still yields its pinned value.
    ///
    /// The cursor holds its sources (memtables, version) from creation,
    /// so compactions starting mid-scan cannot perturb it; as with
    /// [`Db::get_at`], versions compacted away *before* creation are
    /// best-effort, and [`Db::pin_snapshot`] makes them exact.
    pub fn range_iter_at(&self, lo: &[u8], hi: &[u8], snapshot: u64) -> Result<ResolvedIter> {
        let sources = self.source_iterators_range(Some((lo, hi)))?;
        let mut it = self.resolve_sources(sources, Some(hi.to_vec()));
        it.snapshot = Some(snapshot);
        it.seek(lo);
        Ok(it)
    }

    fn resolve_sources(
        &self,
        sources: Vec<(KeySource, Box<dyn DbIterator>)>,
        end: Option<Vec<u8>>,
    ) -> ResolvedIter {
        let children: Vec<Box<dyn DbIterator>> = sources.into_iter().map(|(_, it)| it).collect();
        ResolvedIter {
            it: MergingIterator::new(children),
            merge_op: self.core.opts.merge_operator.clone(),
            positioned: false,
            end,
            snapshot: None,
        }
    }
}

/// Visit every file that may contain `user_key` in levels `0..below_level`,
/// newest first (each qualifying L0 file in the version's newest-first
/// order, then the one candidate per deeper level). The single probe loop
/// behind [`Db::fold_key_sources_at`] and [`Db::get_lite`].
fn probe_files_for_key<F>(
    version: &Version,
    user_key: &[u8],
    below_level: usize,
    mut visit: F,
) -> Result<ControlFlow<()>>
where
    F: FnMut(KeySource, &FileMetaData) -> Result<ControlFlow<()>>,
{
    for level in 0..below_level.min(version.num_levels()) {
        for f in version.files_for_key(level, user_key) {
            let source = if level == 0 {
                KeySource::L0File(f.number)
            } else {
                KeySource::Level(level)
            };
            if let ControlFlow::Break(()) = visit(source, &f)? {
                return Ok(ControlFlow::Break(()));
            }
        }
    }
    Ok(ControlFlow::Continue(()))
}

impl Drop for Db {
    fn drop(&mut self) {
        if let Some(handle) = self.worker.take() {
            // Unflushed memtable contents survive in the WAL (the log file
            // backing a frozen memtable is only deleted after its flush
            // installs), so recovery replays everything still in memory.
            if let Some(tx) = self.core.work_tx.lock().take() {
                let _ = tx.send(WorkerMsg::Shutdown);
            }
            let _ = handle.join();
            self.core.gc();
        }
    }
}

impl DbCore {
    /// Clone the current read snapshot. Holds the `read` lock only for the
    /// duration of the `Arc` clone.
    fn read_state(&self) -> Arc<ReadState> {
        Arc::clone(&self.read.read())
    }

    /// Check-mode hook for the reader side of the `last_seq` edge: the
    /// caller just Acquire-loaded `_seq` and is about to clone the read
    /// state. No-op (and fully compiled out) without the `check` feature.
    #[inline]
    fn vc_consume(&self, _seq: u64) {
        #[cfg(feature = "check")]
        self.shard.vc.consume(_seq);
    }

    /// A fresh active memtable (stamped with this DB's vector-clock
    /// domain in check builds).
    fn fresh_memtable(&self) -> MemTable {
        #[cfg_attr(not(feature = "check"), allow(unused_mut))]
        let mut mem = MemTable::new();
        #[cfg(feature = "check")]
        mem.set_vc_domain(self.shard.vc.id());
        mem
    }

    /// Publish a new read snapshot derived from the current one. Callers
    /// must hold `inner` — that is what makes the freeze/install state
    /// machine race-free against stalled writers re-checking it.
    fn install_read_state<F: FnOnce(&ReadState) -> ReadState>(&self, f: F) {
        let mut slot = self.read.write();
        let next = f(&slot);
        *slot = Arc::new(next);
    }

    fn kick_worker(&self) {
        if let Some(tx) = self.work_tx.lock().as_ref() {
            let _ = tx.send(WorkerMsg::Kick);
        }
    }

    fn check_bg_error(&self) -> Result<()> {
        match &*self.bg_error.lock() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Refuse mutating work once a log append has failed (see the `fatal`
    /// field for why the database must go read-only).
    fn check_fatal(&self) -> Result<()> {
        match &*self.fatal.lock() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Record a failed WAL/MANIFEST append as the sticky fatal error (first
    /// one wins) and hand the error back for propagation.
    fn set_fatal(&self, e: Error) -> Error {
        let mut slot = self.fatal.lock();
        if slot.is_none() {
            *slot = Some(e.clone());
        }
        e
    }

    fn get_resolved(&self, user_key: &[u8], snapshot: Option<u64>) -> Result<Option<Vec<u8>>> {
        enum Outcome {
            Found(Vec<u8>),
            Deleted,
        }
        let mut operands: Vec<Vec<u8>> = Vec::new(); // newest first
        let mut outcome: Option<Outcome> = None;
        self.fold_key_sources_at(user_key, snapshot, |_, entries| {
            for (vtype, value, _seq) in entries {
                match vtype {
                    ValueType::Value => {
                        outcome = Some(Outcome::Found(value.clone()));
                        return ControlFlow::Break(());
                    }
                    ValueType::Deletion => {
                        outcome = Some(Outcome::Deleted);
                        return ControlFlow::Break(());
                    }
                    ValueType::Merge => operands.push(value.clone()),
                }
            }
            ControlFlow::Continue(())
        })?;
        if operands.is_empty() {
            return Ok(match outcome {
                Some(Outcome::Found(v)) => Some(v),
                _ => None,
            });
        }
        let Some(op) = &self.opts.merge_operator else {
            return Err(Error::not_supported(
                "merge entries present but no merge operator configured",
            ));
        };
        operands.reverse(); // oldest first
        let refs: Vec<&[u8]> = operands.iter().map(|o| o.as_slice()).collect();
        let base = match &outcome {
            Some(Outcome::Found(v)) => Some(v.as_slice()),
            _ => None,
        };
        op.full_merge(user_key, base, &refs).map(Some)
    }

    /// Visit each source that may hold `user_key` as of `snapshot` (`None` =
    /// latest), newest first; see [`Db::fold_key_sources`].
    fn fold_key_sources_at<F>(
        &self,
        user_key: &[u8],
        snapshot: Option<u64>,
        mut visit: F,
    ) -> Result<()>
    where
        F: FnMut(KeySource, &[(ValueType, Vec<u8>, u64)]) -> ControlFlow<()>,
    {
        // Load the sequence *before* cloning the read state: every write
        // acknowledged at or below it is then guaranteed visible in the
        // snapshot (memtables or version).
        let latest = self.last_sequence();
        self.vc_consume(latest);
        let rs = self.read_state();
        let snapshot = snapshot.unwrap_or(latest);

        let mem_entries: Vec<(ValueType, Vec<u8>, u64)> = rs
            .mem
            .read()
            .entries_for(user_key, snapshot)
            .map(|(t, v, s)| (t, v.to_vec(), s))
            .collect();
        if !mem_entries.is_empty() {
            if let ControlFlow::Break(()) = visit(KeySource::Mem, &mem_entries) {
                return Ok(());
            }
        }
        if let Some(imm) = &rs.imm {
            let imm_entries: Vec<(ValueType, Vec<u8>, u64)> = imm
                .read()
                .entries_for(user_key, snapshot)
                .map(|(t, v, s)| (t, v.to_vec(), s))
                .collect();
            if !imm_entries.is_empty() {
                if let ControlFlow::Break(()) = visit(KeySource::Imm, &imm_entries) {
                    return Ok(());
                }
            }
        }

        let version = &rs.version;
        let paranoid = self.opts.paranoid_checks;
        let _ = probe_files_for_key(version, user_key, usize::MAX, |source, f| {
            let read = (|| {
                let table = self.open_table(f)?;
                table.entries_for(user_key, snapshot, ReadPurpose::Query)
            })();
            let entries = match read {
                Ok(entries) => entries,
                Err(e) if e.is_corruption() => {
                    // Evict the cached reader either way: the file may be
                    // replaced on disk (e.g. by `crate::repair::repair_db`)
                    // and the stale handle's cached footer and index would
                    // keep poisoning reads after the fix.
                    self.evict_table(f.number);
                    if paranoid {
                        return Err(e);
                    }
                    // Permissive degradation: treat the corrupt data as
                    // absent-with-diagnostic and keep probing older sources.
                    IoStats::add(&self.stats.corrupt_blocks_skipped, 1);
                    return Ok(ControlFlow::Continue(()));
                }
                Err(e) => return Err(e),
            };
            if entries.is_empty() {
                return Ok(ControlFlow::Continue(()));
            }
            Ok(visit(source, &entries))
        })?;
        Ok(())
    }

    // -- write path ---------------------------------------------------------

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
            Ok(mut inner) => self.append_group(&mut inner, own),
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
    fn append_group(
        &self,
        inner: &mut DbInner,
        own: &Arc<WriteRequest>,
    ) -> (Vec<Arc<WriteRequest>>, Result<u64>) {
        let group = self.collect_group(own);
        let outcome = self.commit(inner, &group);
        (group, outcome)
    }

    fn commit(&self, inner: &mut DbInner, group: &[Arc<WriteRequest>]) -> Result<u64> {
        let total_count: u64 = group.iter().map(|r| u64::from(r.count)).sum();
        // A shared clock (multi-shard routing) hands out globally unique,
        // monotone ranges; without one, allocation is the classic
        // `last_sequence + 1` and stays byte-for-byte deterministic.
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
    fn insert<'a>(&self, inner: &mut DbInner, ops: impl Iterator<Item = (u64, &'a BatchOp)>) {
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

    /// One operation of the shard's log, replayed at open into this fed
    /// tree — unless the tree's tables already hold it.
    fn replay_op(&self, seq: u64, op: &BatchOp) -> Result<()> {
        if seq <= self.flushed_seq.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut inner = self.make_room(self.inner.lock(), false)?;
        self.insert(&mut inner, std::iter::once((seq, op)));
        Ok(())
    }

    fn last_sequence(&self) -> u64 {
        self.shard.last_seq.load(Ordering::Acquire)
    }

    /// Make every sequence up to `seq` visible to readers of every tree.
    /// Only after the memtable inserts: a reader that Acquire-loads the
    /// value is guaranteed to find the entries.
    fn publish(&self, seq: u64) {
        #[cfg(feature = "check")]
        self.shard.vc.publish(seq);
        self.shard.last_seq.store(seq, Ordering::Release);
    }

    /// The largest sequence number below which every operation on this
    /// tree is in its tables.
    fn durable_through(&self) -> u64 {
        let rs = self.read_state();
        if rs.imm.is_none() && rs.mem.read().is_empty() {
            u64::MAX
        } else {
            self.flushed_seq.load(Ordering::Acquire)
        }
    }

    /// Delete the closed log files no tree of the shard needs any more.
    /// A tree that fills slowly must not hold them without bound: past
    /// four per tree (RocksDB's `max_total_wal_size` default is four times
    /// the memtable budget) the trees the oldest file waits for flush what
    /// they have. Caller holds `inner`.
    fn gc_logs(&self, inner: &mut DbInner) -> Result<()> {
        if inner.closed_logs.len() > 4 * (self.trees.len() + 1) {
            let oldest = inner.closed_logs[0].1;
            for tree in &self.trees {
                if tree.core.durable_through() < oldest {
                    tree.core.make_room(tree.core.inner.lock(), true)?;
                }
            }
        }
        let trees = self.trees.iter().map(|t| t.core.durable_through());
        let durable = trees.fold(self.durable_through(), u64::min);
        inner.closed_logs.retain(|(number, max_seq)| {
            if durable < *max_seq {
                return true;
            }
            let _ = self.env.remove(&log_file_name(&self.name, *number));
            false
        });
        Ok(())
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

    /// One-millisecond write delay once L0 reaches the slowdown trigger
    /// (LevelDB's gradual backpressure). Runs before any lock is taken.
    fn maybe_slowdown(&self) {
        if !self.opts.auto_compact {
            return;
        }
        let l0 = self.read_state().version.files[0].len();
        if l0 >= self.opts.l0_slowdown_trigger {
            self.kick_worker();
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Make room in the active memtable: freeze it once it reaches
    /// `write_buffer_size` — or, with `force`, until whatever it holds has
    /// reached L0 — and hand the frozen memtable to the drain round.
    /// Waits out a previous freeze that is still unflushed, and L0 at the
    /// hard trigger. Takes `inner` and gives it back; it is released while
    /// a round runs or is awaited.
    fn make_room<'a>(
        &'a self,
        mut inner: MutexGuard<'a, DbInner>,
        force: bool,
    ) -> Result<MutexGuard<'a, DbInner>> {
        loop {
            self.check_bg_error()?;
            // No read state is held across a round: its version would
            // keep the round's compaction inputs on disk.
            let (bytes, frozen, l0) = {
                let rs = self.read_state();
                let bytes = rs.mem.read().approximate_bytes();
                (bytes, rs.imm.is_some(), rs.version.files[0].len())
            };
            // Forced, wait until whatever there is has reached L0.
            let pending = force && (bytes > 0 || frozen);
            if bytes < self.opts.write_buffer_size && !pending {
                return Ok(inner);
            }
            // Hard stall: flushing another memtable would only grow L0.
            let stalled = self.opts.auto_compact && l0 >= self.opts.l0_stall_trigger;
            if frozen || stalled {
                inner = self.drain_due(inner, true)?;
                continue;
            }
            self.swap_memtable(&mut inner)?;
            inner = self.drain_due(inner, false)?;
            if !force {
                return Ok(inner);
            }
        }
    }

    /// Hand the pipeline's due work to its executor. With a worker, wake
    /// it and, with `wait`, sleep until it next installs something.
    /// Without one, run the drain round on this thread; `inner` is released
    /// for it, as the lock order is `maintenance` → `inner`.
    fn drain_due<'a>(
        &'a self,
        mut inner: MutexGuard<'a, DbInner>,
        wait: bool,
    ) -> Result<MutexGuard<'a, DbInner>> {
        if self.opts.background_work {
            self.kick_worker();
            if wait {
                self.work_cond.wait(&mut inner);
            }
            return Ok(inner);
        }
        drop(inner);
        {
            let _maintenance = self.maintenance.lock();
            self.drain()?;
        }
        Ok(self.inner.lock())
    }

    /// One drain round: flush the frozen memtable, then run due
    /// compactions — a newly frozen memtable first whenever there is one —
    /// until neither is left. Caller holds `maintenance`.
    fn drain(&self) -> Result<()> {
        while self.flush_imm()? || (self.opts.auto_compact && self.run_one_compaction()?) {}
        Ok(())
    }

    /// Freeze the active memtable as `imm`, install a fresh one and rotate
    /// the WAL: the only place a log rotates. Caller holds `inner`; `imm`
    /// must be empty.
    fn swap_memtable(&self, inner: &mut DbInner) -> Result<()> {
        let pending = if self.opts.wal_enabled {
            let old_log = inner.versions.log_number;
            let number = inner.versions.new_file_number();
            inner.wal = Some(start_log(&self.env, &self.name, number, &self.trees)?);
            inner
                .closed_logs
                .push((old_log, inner.versions.last_sequence));
            PendingFlush {
                new_log: Some(number),
                boundary_seq: inner.versions.last_sequence,
            }
        } else {
            PendingFlush {
                new_log: None,
                boundary_seq: inner.versions.last_sequence,
            }
        };
        inner.pending_flush = Some(pending);
        self.install_read_state(|cur| ReadState {
            mem: Arc::new(RwLock::new(self.fresh_memtable())),
            imm: Some(Arc::clone(&cur.mem)),
            version: Arc::clone(&cur.version),
        });
        Ok(())
    }

    /// Flush the frozen memtable, if any: the only way a memtable reaches
    /// L0 after open. The table is built without holding `inner` — readers
    /// and writers proceed — and the result is installed under `inner` in
    /// one read-state swap, which also releases the logs no tree needs any
    /// more. Caller holds `maintenance`. Returns whether a flush happened.
    fn flush_imm(&self) -> Result<bool> {
        let (imm, pending) = {
            let inner = self.inner.lock();
            let rs = self.read_state();
            match &rs.imm {
                None => return Ok(false),
                Some(m) => (Arc::clone(m), inner.pending_flush.clone()),
            }
        };
        let number = self.inner.lock().versions.new_file_number();
        let meta = build_l0_table(
            &self.opts,
            &self.env,
            &self.stats,
            &self.name,
            number,
            &imm.read(),
        )?;

        let mut inner = self.inner.lock();
        let mut edit = VersionEdit {
            log_number: pending.as_ref().and_then(|p| p.new_log),
            ..Default::default()
        };
        edit.add_file(0, meta);
        if let Some(p) = &pending {
            inner.versions.flushed_seq = p.boundary_seq;
        }
        inner
            .versions
            .log_and_apply(edit)
            .map_err(|e| self.set_fatal(e))?;
        let new_version = inner.versions.current();
        self.install_read_state(|cur| ReadState {
            mem: Arc::clone(&cur.mem),
            imm: None,
            version: Arc::clone(&new_version),
        });
        self.live_versions.lock().push(Arc::downgrade(&new_version));
        inner.mem_generation += 1;
        if let Some(p) = &pending {
            self.flushed_seq.store(p.boundary_seq, Ordering::Release);
        }
        inner.pending_flush = None;
        let released = self.gc_logs(&mut inner);
        drop(inner);
        self.work_cond.notify_all();
        released.map(|()| true)
    }

    /// Flush everything in memory (frozen, then active) to L0. Caller
    /// holds `maintenance`.
    fn flush_all_locked(&self) -> Result<()> {
        self.check_bg_error()?;
        loop {
            self.flush_imm()?;
            let mut inner = self.inner.lock();
            let rs = self.read_state();
            if rs.imm.is_some() {
                // A racing writer froze the new memtable while we flushed;
                // go around again.
                continue;
            }
            if rs.mem.read().is_empty() {
                return Ok(());
            }
            self.swap_memtable(&mut inner)?;
        }
    }

    /// Run compactions until no level is over threshold. Caller holds
    /// `maintenance`.
    fn run_compactions(&self) -> Result<()> {
        while self.run_one_compaction()? {}
        Ok(())
    }

    /// Pick and run at most one due compaction. Caller holds
    /// `maintenance`. Returns whether one ran.
    fn run_one_compaction(&self) -> Result<bool> {
        let (job, version) = {
            let inner = self.inner.lock();
            let version = inner.versions.current();
            match pick_compaction(&self.opts, &version, &inner.versions.compact_pointer) {
                Some(job) => (job, version),
                None => return Ok(false),
            }
        };
        self.do_compaction(job, version)?;
        Ok(true)
    }

    /// Merge the job's inputs into `output_level` and install the result.
    /// Caller holds `maintenance` (which is what keeps `version` — the
    /// version the job was picked from — current throughout). The big
    /// mutex is only taken briefly, for file-number allocation and the
    /// final install, so reads and background-mode writes proceed.
    fn do_compaction(&self, job: CompactionJob, version: Arc<Version>) -> Result<()> {
        let output_level = job.output_level();

        let mut children: Vec<Box<dyn DbIterator>> = Vec::new();
        for f in job.all_inputs() {
            let table = self.open_table(f)?;
            children.push(Box::new(table.iter(ReadPurpose::Compaction)));
        }
        let mut merged = MergingIterator::new(children);
        merged.seek_to_first();

        let merge_op = self.opts.merge_operator.clone();
        let snapshot_boundary = self.snapshot_boundary();
        let mut outputs: Vec<(u64, crate::table::TableMeta)> = Vec::new();
        let mut builder: Option<(u64, TableBuilder)> = None;
        let mut run_key: Vec<u8> = Vec::new();
        let mut run: Vec<RunEntry> = Vec::new();
        // User keys whose full history this compaction discards (newest
        // record a tombstone, merging into the base level). Folded into the
        // manifest-persisted counter at install time; the integrity checker
        // uses it to bound what dangling index entries can prove.
        let erased = std::cell::Cell::new(0u64);

        let merge_result = (|| -> Result<()> {
            let emit_run = |builder: &mut Option<(u64, TableBuilder)>,
                            outputs: &mut Vec<(u64, crate::table::TableMeta)>,
                            key: &[u8],
                            run: &[RunEntry]|
             -> Result<()> {
                if run.is_empty() {
                    return Ok(());
                }
                let is_base = version.is_base_level_for_key(output_level, key);
                let resolved = resolve_key_run_with_snapshot(
                    key,
                    run,
                    is_base,
                    merge_op.as_deref(),
                    snapshot_boundary,
                )?;
                if resolved.is_empty() {
                    erased.set(erased.get() + 1);
                    return Ok(());
                }
                // Rotate output files only between user keys so a key's entries
                // never straddle files within a level.
                let full = builder
                    .as_ref()
                    .is_some_and(|(_, b)| b.estimated_size() >= self.opts.max_file_size as u64);
                if full {
                    if let Some((number, b)) = builder.take() {
                        outputs.push((number, b.finish()?));
                    }
                }
                if builder.is_none() {
                    let number = self.inner.lock().versions.new_file_number();
                    let file = self
                        .env
                        .new_writable(&table_file_name(&self.name, number))?;
                    *builder = Some((number, TableBuilder::new(&self.opts, file)));
                }
                if let Some((_, b)) = builder.as_mut() {
                    for (vtype, seq, value) in &resolved {
                        b.add(&InternalKey::new(key, *seq, *vtype).0, value)?;
                    }
                }
                Ok(())
            };

            let mut entries_since_imm_check = 0usize;
            while merged.valid() {
                // Like LevelDB's `DoCompactionWork`, give a frozen memtable
                // priority over the compaction in flight: without this, a
                // writer that fills the active memtable mid-compaction stalls
                // for the whole compaction instead of one short flush. Checked
                // every few entries to keep the common-path cost negligible.
                entries_since_imm_check += 1;
                if entries_since_imm_check >= 64 {
                    entries_since_imm_check = 0;
                    if self.read_state().imm.is_some() {
                        self.flush_imm()?;
                    }
                }
                let (user_key, seq, vtype) = ikey::parse_internal_key(merged.key())?;
                if user_key != run_key.as_slice() {
                    let prev_key = std::mem::replace(&mut run_key, user_key.to_vec());
                    let prev_run = std::mem::take(&mut run);
                    emit_run(&mut builder, &mut outputs, &prev_key, &prev_run)?;
                }
                run.push((vtype, seq, merged.value().to_vec()));
                merged.next();
            }
            let prev_key = std::mem::take(&mut run_key);
            let prev_run = std::mem::take(&mut run);
            emit_run(&mut builder, &mut outputs, &prev_key, &prev_run)?;
            if let Some((number, b)) = builder.take() {
                if b.num_entries() > 0 {
                    outputs.push((number, b.finish()?));
                } else {
                    let _ = self.env.remove(&table_file_name(&self.name, number));
                }
            }
            Ok(())
        })();
        if let Err(e) = merge_result {
            // None of the outputs were installed; drop the partial and the
            // finished-but-orphaned files so a failed compaction leaves the
            // directory clean (it is retryable — inputs are untouched).
            if let Some((number, _)) = builder.take() {
                let _ = self.env.remove(&table_file_name(&self.name, number));
            }
            for (number, _) in &outputs {
                let _ = self.env.remove(&table_file_name(&self.name, *number));
            }
            return Err(e);
        }

        // Install the result.
        let mut edit = VersionEdit::default();
        for f in job.all_inputs() {
            let level = if job.inputs_lo.iter().any(|x| x.number == f.number) {
                job.level
            } else {
                output_level
            };
            edit.delete_file(level, f.number);
        }
        let mut written_bytes = 0u64;
        let mut written_blocks = 0u64;
        for (number, meta) in &outputs {
            written_bytes += meta.file_size;
            written_blocks += meta.num_blocks;
            edit.add_file(
                output_level,
                FileMetaData {
                    number: *number,
                    file_size: meta.file_size,
                    num_entries: meta.num_entries,
                    num_blocks: meta.num_blocks,
                    smallest: meta.smallest.clone(),
                    largest: meta.largest.clone(),
                    sec_file_zones: meta.sec_file_zones.clone(),
                },
            );
        }
        if let Some(largest) = job
            .inputs_lo
            .iter()
            .map(|f| f.largest.clone())
            .max_by(|a, b| ikey::compare_internal(a, b))
        {
            edit.compact_pointers.push((job.level, largest));
        }
        IoStats::add(&self.stats.compaction_bytes_written, written_bytes);
        IoStats::add(&self.stats.compaction_blocks_written, written_blocks);
        IoStats::add(&self.stats.compactions, 1);

        {
            let mut inner = self.inner.lock();
            inner.versions.erased_keys += erased.get();
            if let Err(e) = inner.versions.log_and_apply(edit) {
                // The outputs were never installed; drop the orphan files
                // before surfacing the (poisoning) error.
                drop(inner);
                for (number, _) in &outputs {
                    let _ = self.env.remove(&table_file_name(&self.name, *number));
                }
                return Err(self.set_fatal(e));
            }
            let new_version = inner.versions.current();
            self.install_read_state(|cur| ReadState {
                mem: Arc::clone(&cur.mem),
                imm: cur.imm.clone(),
                version: Arc::clone(&new_version),
            });
            self.live_versions.lock().push(Arc::downgrade(&new_version));
        }
        self.work_cond.notify_all();

        // Queue the inputs for deletion; `gc` drops whatever no live
        // reader snapshot still references. (Drop our own references
        // first — `merged` holds the input tables, `version` the old
        // layout — so the single-threaded path reclaims them immediately,
        // in the same order the seed engine did.)
        self.pending_gc
            .lock()
            .extend(job.all_inputs().map(|f| f.number));
        drop(merged);
        drop(version);
        self.gc();
        Ok(())
    }

    fn snapshot_boundary(&self) -> Option<u64> {
        self.pinned.lock().keys().next_back().copied()
    }

    /// Delete queued compaction inputs that no installed-or-still-
    /// referenced version contains. Files kept alive by a reader's
    /// `ReadState` stay on disk until a later `gc` call.
    fn gc(&self) {
        let mut pending = self.pending_gc.lock();
        if pending.is_empty() {
            return;
        }
        let live: HashSet<u64> = {
            let mut versions = self.live_versions.lock();
            versions.retain(|w| w.strong_count() > 0);
            let mut live = HashSet::new();
            for weak in versions.iter() {
                if let Some(v) = weak.upgrade() {
                    for files in &v.files {
                        for f in files {
                            live.insert(f.number);
                        }
                    }
                }
            }
            live
        };
        let mut deferred = Vec::new();
        for number in pending.drain(..) {
            if live.contains(&number) {
                deferred.push(number);
                continue;
            }
            self.tables.lock().remove(&number);
            let _ = self.env.remove(&table_file_name(&self.name, number));
        }
        *pending = deferred;
    }

    fn remove_obsolete_files(&self) {
        let (live, manifest_number) = {
            let inner = self.inner.lock();
            let live: HashSet<u64> = inner.versions.live_files().into_iter().collect();
            (live, inner.versions.manifest_number())
        };
        let Ok(names) = self.env.list(&self.name) else {
            return;
        };
        for fname in names {
            if let Some(numtext) = fname.strip_suffix(".ldb") {
                if let Ok(number) = numtext.parse::<u64>() {
                    if !live.contains(&number) {
                        self.tables.lock().remove(&number);
                        let _ = self.env.remove(&format!("{}/{}", self.name, fname));
                    }
                }
            } else if let Some(numtext) = fname.strip_prefix("MANIFEST-") {
                // Superseded manifests (a crash between writing a fresh
                // manifest and repointing CURRENT leaves one behind).
                if let Ok(number) = numtext.parse::<u64>() {
                    if number != manifest_number {
                        let _ = self.env.remove(&format!("{}/{}", self.name, fname));
                    }
                }
            } else if format!("{}/{}", self.name, fname) == current_tmp_file_name(&self.name) {
                // Staging file orphaned by a crash before the CURRENT rename.
                let _ = self.env.remove(&current_tmp_file_name(&self.name));
            }
        }
    }

    /// Drop the cached reader for table `number` so the next access
    /// re-opens the file. Called whenever a read through the cache reports
    /// corruption: the on-disk file may since have been replaced (by
    /// [`crate::repair::repair_db`] or an operator restoring a backup) and
    /// a stale handle would keep serving the corrupt footer and index.
    pub(crate) fn evict_table(&self, number: u64) {
        self.tables.lock().remove(&number);
    }

    /// Open (via the table cache) the reader for a live file. Cache misses
    /// count as `table_opens` (footer + index + filter block I/O).
    fn open_table(&self, meta: &FileMetaData) -> Result<Arc<Table>> {
        let mut tables = self.tables.lock();
        if let Some(t) = tables.get(&meta.number) {
            return Ok(t);
        }
        IoStats::add(&self.stats.table_opens, 1);
        let file = self
            .env
            .open_random(&table_file_name(&self.name, meta.number))?;
        let table = Table::open(
            file,
            meta.number,
            Arc::clone(&self.stats),
            self.block_cache.clone(),
        )?;
        tables.insert(meta.number, Arc::clone(&table), 1);
        Ok(table)
    }
}

impl TableProvider for DbCore {
    fn open_table(&self, meta: &FileMetaData) -> Result<Arc<Table>> {
        DbCore::open_table(self, meta)
    }
}

/// The last component of a directory name: what a tree is called in the
/// log (a database keeps its logs when its parent directory moves).
fn base_name(name: &str) -> &str {
    name.rsplit('/').next().unwrap_or(name)
}

/// Create log file `number` of the table at `name`. A log that commits for
/// other trees opens by naming them ([`write_batch::encode_tree_names`]);
/// that record is no operation and is charged to no tree's counters.
fn start_log(env: &Arc<dyn Env>, name: &str, number: u64, trees: &[Arc<Db>]) -> Result<LogWriter> {
    let mut wal = LogWriter::new(env.new_writable(&log_file_name(name, number))?);
    if !trees.is_empty() {
        let names = trees.iter().map(|t| base_name(t.name()));
        wal.add_record(&write_batch::encode_tree_names(names))?;
    }
    Ok(wal)
}

/// Background worker: waits for kicks, then runs a drain round.
fn worker_loop(core: &DbCore, rx: Receiver<WorkerMsg>) {
    loop {
        match rx.recv() {
            Ok(WorkerMsg::Shutdown) | Err(_) => return,
            Ok(WorkerMsg::Kick) => {}
        }
        // Drain queued kicks so one round covers them all.
        loop {
            match rx.try_recv() {
                Ok(WorkerMsg::Shutdown) => return,
                Ok(WorkerMsg::Kick) => continue,
                Err(_) => break,
            }
        }
        let _maintenance = core.maintenance.lock();
        if let Err(e) = core.drain() {
            // Park the error for the next writer and wake any stalled ones
            // so they can surface it.
            *core.bg_error.lock() = Some(e);
            core.work_cond.notify_all();
        }
    }
}

/// A pinned snapshot (see [`Db::pin_snapshot`]). Dropping it unpins.
pub struct SnapshotHandle {
    seq: u64,
    registry: Arc<Mutex<BTreeMap<u64, usize>>>,
}

impl SnapshotHandle {
    /// The pinned sequence number; pass to [`Db::get_at`] or
    /// [`Db::fold_key_sources_at`].
    pub fn sequence(&self) -> u64 {
        self.seq
    }
}

impl Drop for SnapshotHandle {
    fn drop(&mut self) {
        let mut reg = self.registry.lock();
        if let Some(count) = reg.get_mut(&self.seq) {
            *count -= 1;
            if *count == 0 {
                reg.remove(&self.seq);
            }
        }
    }
}

/// Recovery-time flush: used while replaying WALs, before the `DbCore`
/// exists.
///
/// The new L0 file is recorded into `edit` but **not** logged to the
/// MANIFEST here. Recovery applies one combined edit — all replay flushes
/// plus the fresh WAL's log number — atomically at the end of `Db::open`.
/// If we crash before that point the MANIFEST is unchanged, the old WALs
/// are still current, and the next recovery replays them from scratch
/// (the half-built tables are unreferenced orphans, removed by
/// `remove_obsolete_files`). Logging each flush eagerly instead would
/// persist the flushed records in L0 while the WAL that produced them
/// stays replayable — a second recovery would then apply non-idempotent
/// MERGE records twice.
fn flush_memtable_impl(
    opts: &DbOptions,
    env: &Arc<dyn Env>,
    stats: &Arc<IoStats>,
    name: &str,
    versions: &mut VersionSet,
    mem: &mut MemTable,
    edit: &mut VersionEdit,
) -> Result<()> {
    if mem.is_empty() {
        return Ok(());
    }
    let number = versions.new_file_number();
    edit.add_file(0, build_l0_table(opts, env, stats, name, number, mem)?);
    *mem = MemTable::new();
    Ok(())
}

/// Build SSTable `number` of database `name` from a memtable and return
/// its metadata (counted against the flush I/O stats).
fn build_l0_table(
    opts: &DbOptions,
    env: &Arc<dyn Env>,
    stats: &IoStats,
    name: &str,
    number: u64,
    mem: &MemTable,
) -> Result<FileMetaData> {
    let path = table_file_name(name, number);
    let built = (|| -> Result<crate::table::TableMeta> {
        let file = env.new_writable(&path)?;
        let mut builder = TableBuilder::new(opts, file);
        let mut it = mem.iter();
        it.seek_to_first();
        while it.valid() {
            builder.add(it.key(), it.value())?;
            it.next();
        }
        builder.finish()
    })();
    let meta = match built {
        Ok(meta) => meta,
        Err(e) => {
            // The partial table was never installed; drop it so a
            // transient fault leaves no orphan behind. The memtable and
            // WAL are untouched, so the flush is retryable.
            let _ = env.remove(&path);
            return Err(e);
        }
    };
    IoStats::add(&stats.flush_bytes_written, meta.file_size);
    IoStats::add(&stats.flush_blocks_written, meta.num_blocks);
    IoStats::add(&stats.flushes, 1);
    Ok(FileMetaData {
        number,
        file_size: meta.file_size,
        num_entries: meta.num_entries,
        num_blocks: meta.num_blocks,
        smallest: meta.smallest,
        largest: meta.largest,
        sec_file_zones: meta.sec_file_zones,
    })
}

/// One live entry from a [`ResolvedIter`]: `(user_key, seq, value)`.
pub type ResolvedEntry = (Vec<u8>, u64, Vec<u8>);

/// Iterator yielding `(user_key, seq, value)` for each live key.
pub struct ResolvedIter {
    it: MergingIterator,
    merge_op: Option<MergeOperatorRef>,
    positioned: bool,
    /// Inclusive user-key upper bound ([`Db::range_iter`]); the stream
    /// ends at the first key beyond it without touching further blocks.
    end: Option<Vec<u8>>,
    /// Sequence-time pin ([`Db::range_iter_at`]): entries newer than
    /// this are skipped, exposing the pre-pin version of each key.
    snapshot: Option<u64>,
}

impl ResolvedIter {
    /// Position at the first live entry ≥ `user_key`.
    pub fn seek(&mut self, user_key: &[u8]) {
        self.it
            .seek(&InternalKey::for_seek(user_key, ikey::MAX_SEQUENCE).0);
        self.positioned = true;
    }

    /// Position at the first live entry.
    pub fn seek_to_first(&mut self) {
        self.it.seek_to_first();
        self.positioned = true;
    }

    /// The next live `(user_key, newest_seq, value)`.
    pub fn next_entry(&mut self) -> Result<Option<ResolvedEntry>> {
        assert!(self.positioned, "seek before iterating");
        while self.it.valid() {
            let (user_key, newest_seq, newest_type) = ikey::parse_internal_key(self.it.key())?;
            if let Some(end) = &self.end {
                if user_key > end.as_slice() {
                    return Ok(None);
                }
            }
            // Versions of one key sort newest-first, so stepping past the
            // too-new ones lands on the newest entry at or below the pin;
            // from there resolution proceeds as usual.
            if self.snapshot.is_some_and(|snap| newest_seq > snap) {
                self.it.next();
                continue;
            }
            let user_key = user_key.to_vec();

            match newest_type {
                ValueType::Value => {
                    let value = self.it.value().to_vec();
                    self.skip_rest_of_key(&user_key)?;
                    return Ok(Some((user_key, newest_seq, value)));
                }
                ValueType::Deletion => {
                    self.skip_rest_of_key(&user_key)?;
                    continue;
                }
                ValueType::Merge => {
                    // Collect operands down to a base or the end of the run.
                    let mut operands: Vec<Vec<u8>> = vec![self.it.value().to_vec()];
                    let mut base: Option<Vec<u8>> = None;
                    self.it.next();
                    while self.it.valid() {
                        let (uk, _seq, vt) = ikey::parse_internal_key(self.it.key())?;
                        if uk != user_key.as_slice() {
                            break;
                        }
                        match vt {
                            ValueType::Merge => operands.push(self.it.value().to_vec()),
                            ValueType::Value => {
                                base = Some(self.it.value().to_vec());
                                self.it.next();
                                break;
                            }
                            ValueType::Deletion => {
                                self.it.next();
                                break;
                            }
                        }
                        self.it.next();
                    }
                    self.skip_rest_of_key(&user_key)?;
                    let Some(op) = &self.merge_op else {
                        return Err(Error::not_supported(
                            "merge entries present but no merge operator configured",
                        ));
                    };
                    operands.reverse();
                    let refs: Vec<&[u8]> = operands.iter().map(|o| o.as_slice()).collect();
                    let folded = op.full_merge(&user_key, base.as_deref(), &refs)?;
                    return Ok(Some((user_key, newest_seq, folded)));
                }
            }
        }
        Ok(None)
    }

    fn skip_rest_of_key(&mut self, user_key: &[u8]) -> Result<()> {
        // After handling the newest entry, discard older versions. For
        // Value/Deletion the iterator still sits on the handled entry.
        if self.it.valid() {
            let (uk, _, _) = ikey::parse_internal_key(self.it.key())?;
            if uk != user_key {
                return Ok(());
            }
        }
        while self.it.valid() {
            let (uk, _, _) = ikey::parse_internal_key(self.it.key())?;
            if uk != user_key {
                break;
            }
            self.it.next();
        }
        Ok(())
    }
}
