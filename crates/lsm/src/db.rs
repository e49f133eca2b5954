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
//!
//! This file opens a database and serves its reads. The write path (the
//! group-commit queue and its leader) lives in `db/commit.rs`, the replay
//! of the log at open in `db/recovery.rs`, and the flush and compaction
//! pipeline with its background worker in `db/flush.rs`.

mod commit;
mod flush;
mod recovery;

pub use self::commit::{CommitView, DeriveOps, SharedSequence};
use self::commit::{ShardLog, WriteRequest};
use crate::cache::LruCache;
use crate::env::{Env, IoStats};
use crate::ikey::{self, InternalKey, ValueType};
use crate::iterator::{DbIterator, MergingIterator};
use crate::memtable::{MemTable, SnapshotMemIter};
use crate::merge::{self, MergeOperatorRef};
pub use crate::options::DbOptions;
use crate::sync::{AtomicU64, Ordering};
use crate::table::{BlockCache, ConcatIter, ReadPurpose, Table, TableProvider};
use crate::version::{table_file_name, FileMetaData, Version, VersionSet};
use crate::wal::LogWriter;
use crossbeam::channel::Sender;
use ldbpp_common::{Error, Result};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::{Arc, Weak};
use std::thread;

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
    /// that batches written to this table carry for it
    /// ([`BatchOp::tree`](crate::write_batch::BatchOp::tree))
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
    /// goes once every tree has flushed through its last operation. A fed
    /// tree keeps no log of its own: a `.log` file in its directory fails
    /// the open with [`Error::NotSupported`] naming the file, which is
    /// left in place.
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

    /// The sticky fatal error, if a WAL or MANIFEST append has failed. The
    /// database is read-only while this is `Some`; reopening recovers every
    /// write acknowledged before the fault.
    pub fn fatal_error(&self) -> Option<Error> {
        self.core.fatal.lock().clone()
    }

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
    ///
    /// A file source is one of `version`'s, the version the caller's scan
    /// walks. Once a flush or compaction has installed another, a newer
    /// record may have moved to the candidate's level or below, where
    /// "above it" no longer looks, so the answer is a conservative `true`.
    pub fn get_lite(&self, user_key: &[u8], found_in: KeySource, version: &Version) -> bool {
        let latest = self.last_sequence();
        self.core.vc_consume(latest);
        let rs = self.core.read_state();
        let holds = |m: &RwLock<MemTable>| m.read().entries_for(user_key, latest).next().is_some();
        let below_level = match found_in {
            KeySource::Mem => return false,
            KeySource::Imm => return holds(&rs.mem),
            _ if !std::ptr::eq(&*rs.version, version) => return true,
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
        let newest = |m: &RwLock<MemTable>| {
            let mem = m.read();
            let found = mem.entries_for(user_key, latest).next();
            found.map(|(t, _, s)| (t, s))
        };
        newest(&rs.mem).or_else(|| rs.imm.as_deref().and_then(newest))
    }

    /// The newest record for `user_key` across the whole tree — its type,
    /// sequence and value bytes (empty for a tombstone) — **including
    /// tombstones**, which [`Db::get`] resolves away. `None` means no source
    /// holds any trace of the key (a tombstone compacted to nothing at the
    /// base level also reports `None`). One fold over the sources, the same
    /// I/O as a GET: how a posting or a `GetLite` positive is validated.
    pub fn newest_record(&self, user_key: &[u8]) -> Result<Option<(ValueType, u64, Vec<u8>)>> {
        let mut found = None;
        self.fold_key_sources_at(user_key, None, |_, entries| {
            if let Some((t, v, s)) = entries.first() {
                found = Some((*t, *s, v.clone()));
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
        // Permissive mode skips a corrupt file or block and counts it, as
        // a GET does.
        let skip_corrupt = (!self.core.opts.paranoid_checks).then(|| Arc::clone(&self.core.stats));
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
                    Arc::clone(version),
                    vec![Arc::clone(f)],
                    ReadPurpose::Query,
                    skip_corrupt.clone(),
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
                    Arc::clone(version),
                    files,
                    ReadPurpose::Query,
                    skip_corrupt.clone(),
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
        let mut operands: Vec<Vec<u8>> = Vec::new(); // newest first
        let mut base: Option<Vec<u8>> = None;
        self.fold_key_sources_at(user_key, snapshot, |_, entries| {
            for (vtype, value, _seq) in entries {
                match vtype {
                    ValueType::Value => {
                        base = Some(value.clone());
                        return ControlFlow::Break(());
                    }
                    ValueType::Deletion => return ControlFlow::Break(()),
                    ValueType::Merge => operands.push(value.clone()),
                }
            }
            ControlFlow::Continue(())
        })?;
        if operands.is_empty() {
            return Ok(base);
        }
        let op = self.opts.merge_operator.as_ref();
        merge::fold_newest_first(op, user_key, base.as_deref(), operands).map(Some)
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

        let imm = rs.imm.as_ref().map(|imm| (KeySource::Imm, imm));
        for (source, mem) in std::iter::once((KeySource::Mem, &rs.mem)).chain(imm) {
            let entries: Vec<(ValueType, Vec<u8>, u64)> = mem
                .read()
                .entries_for(user_key, snapshot)
                .map(|(t, v, s)| (t, v.to_vec(), s))
                .collect();
            if !entries.is_empty() && visit(source, &entries).is_break() {
                return Ok(());
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

    fn last_sequence(&self) -> u64 {
        self.shard.last_seq.load(Ordering::Acquire)
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

    /// The next live `(user_key, newest_seq, value)`. A source that failed
    /// to read makes the end of the stream an error, not a short answer.
    pub fn next_entry(&mut self) -> Result<Option<ResolvedEntry>> {
        assert!(self.positioned, "seek before iterating");
        while self.it.valid() {
            let (user_key, newest_seq, newest_type) = ikey::parse_internal_key(self.it.key())?;
            if let Some(end) = &self.end {
                if user_key > end.as_slice() {
                    self.it.status()?;
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
                    let op = self.merge_op.as_ref();
                    let folded =
                        merge::fold_newest_first(op, &user_key, base.as_deref(), operands)?;
                    return Ok(Some((user_key, newest_seq, folded)));
                }
            }
        }
        self.it.status()?;
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
