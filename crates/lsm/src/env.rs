//! Storage abstraction and I/O accounting.
//!
//! Everything the engine persists goes through an [`Env`], mirroring
//! LevelDB's `Env` so that tests and experiments can run against an
//! in-memory filesystem ([`MemEnv`]) while production uses real files
//! ([`DiskEnv`]).
//!
//! [`IoStats`] is the instrument panel for the paper's experiments: each
//! [`crate::db::Db`] owns one and bumps the counters for block reads, cache
//! hits, compaction and flush I/O, WAL bytes, bloom-filter probes and
//! zone-map prunes. Stand-alone index tables are separate `Db` instances, so
//! data-table and index-table I/O are naturally separable as in the paper's
//! Tables 3 and 5.

use ldbpp_common::{Error, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A file being appended to (WAL, SSTable under construction, MANIFEST).
pub trait WritableFile: Send {
    /// Append bytes to the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Flush buffered data to durable storage (no-op for [`MemEnv`]).
    fn sync(&mut self) -> Result<()>;
    /// Bytes written so far.
    fn len(&self) -> u64;
    /// True if nothing has been written.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A completed, immutable file read at arbitrary offsets (SSTables).
pub trait RandomAccessFile: Send + Sync {
    /// Read exactly `len` bytes starting at `offset`.
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Total file size in bytes.
    fn size(&self) -> u64;
}

/// The storage environment: a minimal filesystem interface.
pub trait Env: Send + Sync {
    /// Create (or truncate) a file for appending.
    fn new_writable(&self, path: &str) -> Result<Box<dyn WritableFile>>;
    /// Open an existing file for random-access reads.
    fn open_random(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>>;
    /// Read an entire file into memory (logs, MANIFEST, CURRENT).
    fn read_all(&self, path: &str) -> Result<Vec<u8>>;
    /// Atomically create a file with the given contents (CURRENT pointer).
    fn write_all(&self, path: &str, data: &[u8]) -> Result<()>;
    /// Delete a file.
    fn remove(&self, path: &str) -> Result<()>;
    /// Rename a file (used for atomic MANIFEST swaps).
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Whether a file exists.
    fn exists(&self, path: &str) -> bool;
    /// List file names (not paths) under a directory.
    fn list(&self, dir: &str) -> Result<Vec<String>>;
    /// Size of a file in bytes.
    fn file_size(&self, path: &str) -> Result<u64>;
    /// Create a directory (and parents). No-op if present.
    fn mkdir_all(&self, dir: &str) -> Result<()>;
}

// ---------------------------------------------------------------------------
// I/O statistics
// ---------------------------------------------------------------------------

/// Category of a counted I/O or filter event. Useful for labelling report
/// rows; the raw counters below are the primary interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoCategory {
    /// Data-block read in service of a query (GET/LOOKUP/scan).
    QueryBlockRead,
    /// Block read during compaction.
    CompactionRead,
    /// Block written during compaction.
    CompactionWrite,
    /// Block written during a memtable flush.
    FlushWrite,
    /// WAL append.
    WalWrite,
}

/// Declares every scalar I/O counter once and generates from that one list
/// [`IoStats`], [`IoSnapshot`], [`IoStats::snapshot`],
/// [`IoSnapshot::since`], the [`std::ops::Add`] impl and
/// [`IoSnapshot::counters`], so a new counter joins all of them or none.
/// Each entry is the [`IoStats`] field's doc, its name, and the
/// [`IoSnapshot`] field's doc. `group_size_hist` is an array and is
/// written out beside the generated fields.
macro_rules! io_counters {
    ($($(#[doc = $stats_doc:literal])* $name:ident => $snap_doc:literal,)*) => {
        /// Cumulative I/O and filter-probe counters for one table (one `Db`).
        ///
        /// All counters are monotonically increasing; [`IoStats::snapshot`] captures
        /// a point-in-time copy so experiments can difference two snapshots around a
        /// phase.
        #[derive(Debug, Default)]
        pub struct IoStats {
            $($(#[doc = $stats_doc])* pub $name: AtomicU64,)*
            /// Histogram of group sizes, in logical batches per group commit.
            /// Buckets count groups of size 1, 2, 3–4, 5–8, 9–16 and ≥ 17
            /// respectively (see [`IoStats::group_size_bucket`]); the bucket for
            /// a group's size is incremented once per group commit.
            pub group_size_hist: [AtomicU64; 6],
        }

        /// A point-in-time copy of [`IoStats`]; each field freezes the counter of
        /// the same name.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct IoSnapshot {
            $(#[doc = $snap_doc] pub $name: u64,)*
            /// Histogram of group sizes (buckets: 1, 2, 3–4, 5–8, 9–16, ≥ 17).
            pub group_size_hist: [u64; 6],
        }

        impl IoStats {
            /// Capture the current counter values.
            pub fn snapshot(&self) -> IoSnapshot {
                IoSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    group_size_hist: std::array::from_fn(|i| {
                        self.group_size_hist[i].load(Ordering::Relaxed)
                    }),
                }
            }
        }

        impl IoSnapshot {
            /// Counter-wise difference (`self - earlier`).
            pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
                IoSnapshot {
                    $($name: self.$name - earlier.$name,)*
                    group_size_hist: std::array::from_fn(|i| {
                        self.group_size_hist[i] - earlier.group_size_hist[i]
                    }),
                }
            }

            /// Every scalar counter as `(field name, value)`, in declaration
            /// order (`group_size_hist` is not included).
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name)),*].into_iter()
            }
        }

        impl std::ops::Add for IoSnapshot {
            type Output = IoSnapshot;

            /// Counter-wise sum.
            fn add(self, b: IoSnapshot) -> IoSnapshot {
                IoSnapshot {
                    $($name: self.$name + b.$name,)*
                    group_size_hist: std::array::from_fn(|i| {
                        self.group_size_hist[i] + b.group_size_hist[i]
                    }),
                }
            }
        }
    };
}

io_counters! {
    /// Count of data blocks fetched from storage for queries; incremented
    /// once per block read that missed (or bypassed) the block cache.
    block_reads => "Data blocks fetched from storage for queries (excludes cache hits).",
    /// Bytes (compressed, on-storage size) fetched by those query block
    /// reads; incremented together with `block_reads`.
    block_read_bytes => "Bytes fetched for those block reads.",
    /// Count of query block requests served by the block cache;
    /// incremented once per cache hit (no storage read happened).
    cache_hits => "Query block requests served by the block cache.",
    /// Count of SSTable footer/index loads caused by table-cache misses;
    /// incremented once per table opened. The lazy read path promises
    /// zero of these before an iterator's first seek.
    table_opens => "SSTable footer/index loads caused by table-cache misses.",
    /// Count of blocks read by compactions; incremented once per input
    /// block as compaction input iterators advance.
    compaction_blocks_read => "Blocks read by compactions.",
    /// Bytes (on-storage size) read by compactions; incremented together
    /// with `compaction_blocks_read`.
    compaction_bytes_read => "Bytes read by compactions.",
    /// Count of blocks written by compactions; incremented once per
    /// output block flushed by a compaction's table builder.
    compaction_blocks_written => "Blocks written by compactions.",
    /// Bytes (on-storage size) written by compactions; incremented
    /// together with `compaction_blocks_written`.
    compaction_bytes_written => "Bytes written by compactions.",
    /// Count of blocks written by memtable flushes; incremented once per
    /// output block while building an L0 table.
    flush_blocks_written => "Blocks written by memtable flushes.",
    /// Bytes (on-storage size) written by memtable flushes; incremented
    /// together with `flush_blocks_written`.
    flush_bytes_written => "Bytes written by memtable flushes.",
    /// Bytes of batch payload appended to the write-ahead log (excludes
    /// the log format's per-record framing); incremented once per
    /// successful group-commit WAL append.
    wal_bytes_written => "Bytes appended to the write-ahead log.",
    /// Count of bloom-filter membership probes; incremented once per
    /// filter consulted (CPU cost tracker — the paper notes this cost
    /// "cannot be neglected" for the Embedded Index).
    bloom_checks => "Bloom-filter membership probes.",
    /// Count of probes answered "definitely absent"; incremented when a
    /// bloom probe lets a read skip a block or file entirely.
    bloom_negatives => "Probes answered \"definitely absent\".",
    /// Count of blocks skipped thanks to per-block zone maps; incremented
    /// once per block a range predicate pruned without reading it.
    zonemap_prunes => "Blocks skipped thanks to zone maps.",
    /// Count of whole files skipped thanks to file-level zone maps;
    /// incremented once per file pruned before any block I/O.
    file_zonemap_prunes => "Whole files skipped thanks to file-level zone maps.",
    /// Count of compactions run; incremented once per completed
    /// compaction (foreground or background).
    compactions => "Number of compactions run.",
    /// Count of memtable flushes; incremented once per L0 table installed
    /// from a (frozen or live) memtable.
    flushes => "Number of memtable flushes.",
    /// Count of faults injected by a [`FaultEnv`] mirroring into these
    /// stats; incremented once per injected failure (see
    /// [`FaultEnv::mirror_stats`]).
    injected_faults => "Faults injected by a [`FaultEnv`] mirroring into these stats.",
    /// Count of WAL records replayed into the memtable while opening the
    /// database; incremented once per batch record during recovery.
    wal_replays => "WAL records replayed into the memtable while opening the database.",
    /// Count of MANIFEST version edits applied while recovering the
    /// version state; incremented once per edit during open.
    manifest_replays => "MANIFEST version edits applied while recovering the version state.",
    /// Count of corruption events the salvaging WAL reader resynchronized
    /// past during recovery; incremented once per resync (permissive mode
    /// only; see `DbOptions::paranoid_checks`).
    wal_records_salvaged => "Corruption events the salvaging WAL reader resynchronized past.",
    /// Bytes of WAL content dropped while resynchronizing past
    /// corruption; incremented by the skipped span per salvage event.
    wal_bytes_dropped => "WAL bytes dropped while resynchronizing past corruption.",
    /// Count of corrupt table blocks treated as absent by permissive
    /// reads instead of failing the query (the "absent-with-diagnostic"
    /// counter); incremented once per corrupt block skipped.
    corrupt_blocks_skipped => "Corrupt table blocks treated as absent by permissive reads.",
    /// Count of group commits: each is one leader round that appended one
    /// WAL record covering ≥ 1 logical batch; incremented once per round.
    /// `grouped_writes / group_commits` is the mean group size.
    group_commits => "Group commits (leader rounds, one WAL record each).",
    /// Count of logical batches committed through the group-commit queue
    /// (every `Db::put` / `delete` / `merge` / `write` is one logical
    /// batch); incremented by the group size once per group commit.
    grouped_writes => "Logical batches committed through the group-commit queue.",
    /// Count of WAL fsyncs issued by the write path; incremented once per
    /// group commit when `DbOptions::wal_sync` is on (zero otherwise —
    /// flush/compaction table syncs are not counted here).
    wal_syncs => "WAL fsyncs issued by the write path.",
}

impl IoSnapshot {
    /// Total blocks touched by compaction (read + written) — the paper's
    /// "cumulative I/O cost for compaction" metric.
    pub fn compaction_io_blocks(&self) -> u64 {
        self.compaction_blocks_read + self.compaction_blocks_written
    }

    /// Total bytes physically written (flush + compaction + WAL) — the
    /// numerator of write amplification.
    pub fn bytes_written(&self) -> u64 {
        self.flush_bytes_written + self.compaction_bytes_written + self.wal_bytes_written
    }

    /// Counter-wise sum of any number of snapshots — the aggregation
    /// helper for everything that reports across several tables at once:
    /// a [`crate::db::Db`] per engine shard, or one per stand-alone index.
    /// An empty iterator yields the zero snapshot, so callers need no
    /// special case for "no shards / no indexes".
    pub fn merge<I>(snapshots: I) -> IoSnapshot
    where
        I: IntoIterator<Item = IoSnapshot>,
    {
        snapshots
            .into_iter()
            .fold(IoSnapshot::default(), |acc, s| acc + s)
    }
}

impl IoStats {
    /// New zeroed counters.
    pub fn new() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Bump a counter by `n` (relaxed; counters are advisory).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Index into [`IoStats::group_size_hist`] for a group of `n` logical
    /// batches (buckets: 1, 2, 3–4, 5–8, 9–16, ≥ 17).
    pub fn group_size_bucket(n: usize) -> usize {
        match n {
            0..=1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            _ => 5,
        }
    }
}

// ---------------------------------------------------------------------------
// MemEnv
// ---------------------------------------------------------------------------

type MemFile = Arc<RwLock<Vec<u8>>>;

/// An in-memory filesystem.
///
/// Used by unit tests, integration tests and — following the paper's focus
/// on *block-access counts* as the robust metric — by the experiment
/// harness, where it removes physical-disk variance from measurements.
#[derive(Default)]
pub struct MemEnv {
    files: RwLock<HashMap<String, MemFile>>,
}

impl MemEnv {
    /// Create an empty in-memory filesystem.
    pub fn new() -> Arc<MemEnv> {
        Arc::new(MemEnv::default())
    }

    /// Total bytes stored across all files (database "size on disk").
    pub fn total_bytes(&self) -> u64 {
        self.files
            .read()
            .values()
            .map(|f| f.read().len() as u64)
            .sum()
    }

    /// Deep-copy the entire filesystem image into a fresh, independent
    /// [`MemEnv`].
    ///
    /// This is the "crash snapshot" primitive: a [`FaultEnv`] freezes the
    /// image by failing every mutating operation past a crash point, and
    /// `deep_clone` then yields a detached copy that a fresh database can be
    /// reopened from — exactly what a machine would see after a power cut.
    /// File contents are copied byte-for-byte, so writers still holding
    /// handles into the original cannot leak post-crash bytes into the clone.
    pub fn deep_clone(&self) -> Arc<MemEnv> {
        let files = self.files.read();
        let copied: HashMap<String, MemFile> = files
            .iter()
            .map(|(path, file)| {
                (
                    path.clone(),
                    Arc::new(RwLock::new(file.read().clone())) as MemFile,
                )
            })
            .collect();
        Arc::new(MemEnv {
            files: RwLock::new(copied),
        })
    }

    fn get(&self, path: &str) -> Result<MemFile> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| Error::not_found(path.to_string()))
    }
}

struct MemWritable {
    file: MemFile,
}

impl WritableFile for MemWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.write().extend_from_slice(data);
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
    fn len(&self) -> u64 {
        self.file.read().len() as u64
    }
}

struct MemRandom {
    file: MemFile,
}

impl RandomAccessFile for MemRandom {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = self.file.read();
        let start = offset as usize;
        let end = start + len;
        if end > data.len() {
            return Err(Error::corruption(format!(
                "read past EOF: {}..{} of {}",
                start,
                end,
                data.len()
            )));
        }
        Ok(data[start..end].to_vec())
    }
    fn size(&self) -> u64 {
        self.file.read().len() as u64
    }
}

impl Env for MemEnv {
    fn new_writable(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let file: MemFile = Arc::new(RwLock::new(Vec::new()));
        self.files.write().insert(path.to_string(), file.clone());
        Ok(Box::new(MemWritable { file }))
    }

    fn open_random(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(MemRandom {
            file: self.get(path)?,
        }))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        Ok(self.get(path)?.read().clone())
    }

    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        self.files
            .write()
            .insert(path.to_string(), Arc::new(RwLock::new(data.to_vec())));
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Error::not_found(path.to_string()))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.write();
        let f = files
            .remove(from)
            .ok_or_else(|| Error::not_found(from.to_string()))?;
        files.insert(to.to_string(), f);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        let prefix = if dir.is_empty() || dir.ends_with('/') {
            dir.to_string()
        } else {
            format!("{dir}/")
        };
        let files = self.files.read();
        let mut names: Vec<String> = files
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter(|rest| !rest.is_empty() && !rest.contains('/'))
            .map(str::to_string)
            .collect();
        names.sort();
        Ok(names)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        Ok(self.get(path)?.read().len() as u64)
    }

    fn mkdir_all(&self, _dir: &str) -> Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SyncLatencyEnv
// ---------------------------------------------------------------------------

/// An [`Env`] decorator that charges a fixed wall-clock latency for every
/// [`WritableFile::sync`], simulating the fsync cost of a real device on
/// top of a (free-to-sync) [`MemEnv`].
///
/// The write-scaling experiment (EXPERIMENTS.md) uses this to build an
/// *fsync-bound* configuration deterministically: with
/// `DbOptions::wal_sync` on, each group commit pays exactly one delayed
/// sync, so aggregate throughput measures how well group commit amortizes
/// the scarce resource across concurrent writers — without the variance
/// of a physical disk.
pub struct SyncLatencyEnv {
    inner: Arc<dyn Env>,
    delay: std::time::Duration,
}

impl SyncLatencyEnv {
    /// Wrap `inner`, delaying every `sync` by `delay`.
    pub fn new(inner: Arc<dyn Env>, delay: std::time::Duration) -> Arc<SyncLatencyEnv> {
        Arc::new(SyncLatencyEnv { inner, delay })
    }
}

struct SyncLatencyWritable {
    inner: Box<dyn WritableFile>,
    delay: std::time::Duration,
}

impl WritableFile for SyncLatencyWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)
    }
    fn sync(&mut self) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.sync()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for SyncLatencyEnv {
    fn new_writable(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(SyncLatencyWritable {
            inner: self.inner.new_writable(path)?,
            delay: self.delay,
        }))
    }

    fn open_random(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        self.inner.open_random(path)
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        self.inner.read_all(path)
    }

    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        self.inner.write_all(path, data)
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.inner.remove(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }

    fn mkdir_all(&self, dir: &str) -> Result<()> {
        self.inner.mkdir_all(dir)
    }
}

// ---------------------------------------------------------------------------
// FaultEnv
// ---------------------------------------------------------------------------

/// The class of a mutating filesystem operation, as counted — and optionally
/// failed — by a [`FaultEnv`].
///
/// Read operations are never counted or failed: the model is a crash or a
/// write error, not a flaky disk on the read path (corrupted *contents* are
/// produced with [`FaultEnv::flip_byte`] / [`FaultEnv::truncate_file`]
/// instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`Env::new_writable`] — creating or truncating a file.
    NewWritable,
    /// [`WritableFile::append`] on a file created through the fault env.
    Append,
    /// [`WritableFile::sync`] on a file created through the fault env.
    Sync,
    /// [`Env::write_all`] — the atomic whole-file write (CURRENT pointer).
    WriteAll,
    /// [`Env::remove`].
    Remove,
    /// [`Env::rename`].
    Rename,
}

impl FaultOp {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            FaultOp::NewWritable => 0,
            FaultOp::Append => 1,
            FaultOp::Sync => 2,
            FaultOp::WriteAll => 3,
            FaultOp::Remove => 4,
            FaultOp::Rename => 5,
        }
    }
}

/// Which error an injected fault surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultErrorKind {
    /// A generic I/O failure ([`Error::Io`]) — the default.
    #[default]
    Io,
    /// A full disk ([`Error::NoSpace`]): the write is refused but nothing
    /// already stored is damaged, and retrying after space is freed should
    /// succeed.
    NoSpace,
}

/// What a [`FaultEnv`] should fail, expressed over operation indices.
///
/// Every mutating operation gets a global index (0-based, in issue order)
/// and a per-class index; a plan fires on either. The default plan injects
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Simulated crash: every mutating operation with global index
    /// `>= crash_at` fails with [`Error::Io`], freezing the filesystem
    /// image exactly as it stood after `crash_at` operations. Combine with
    /// [`MemEnv::deep_clone`] to reopen a database from that image.
    pub crash_at: Option<u64>,
    /// Transient fault: the single operation with this global index fails
    /// once; everything before and after proceeds normally.
    pub fail_at: Option<u64>,
    /// Transient fault targeted by class: fail the `k`-th operation of the
    /// given class **that matches [`FaultPlan::match_path`]**, counted from
    /// the moment the plan was installed — e.g. "the next `Append` to a path
    /// containing `MANIFEST`" is `(FaultOp::Append, 0)` with `match_path:
    /// Some("MANIFEST")`.
    pub fail_kind_at: Option<(FaultOp, u64)>,
    /// Restrict injection to operations whose path contains this substring
    /// (e.g. `"MANIFEST"` or `".log"`). The global and per-class counters
    /// are unaffected, so indices stay comparable across plans.
    pub match_path: Option<String>,
    /// What error the injected fault surfaces as — [`FaultErrorKind::Io`]
    /// by default, or [`FaultErrorKind::NoSpace`] to simulate a full disk
    /// for whichever op class the plan targets.
    pub error_kind: FaultErrorKind,
}

struct FaultState {
    /// Global mutating-operation counter (also counts non-matching ops).
    ops: AtomicU64,
    /// Per-[`FaultOp`]-class counters.
    class_ops: [AtomicU64; FaultOp::COUNT],
    /// Faults injected so far.
    faults: AtomicU64,
    /// Operations matching the current plan's class + path filter, counted
    /// since the plan was installed (drives [`FaultPlan::fail_kind_at`]).
    plan_matches: AtomicU64,
    plan: RwLock<FaultPlan>,
    /// Optional [`IoStats`] whose `injected_faults` counter mirrors `faults`.
    mirror: RwLock<Option<Arc<IoStats>>>,
}

impl FaultState {
    /// Count one mutating operation and decide whether to fail it.
    fn check(&self, op: FaultOp, path: &str) -> Result<()> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        let k = self.class_ops[op.index()].fetch_add(1, Ordering::SeqCst);
        let plan = self.plan.read().clone();
        let path_matches = plan
            .match_path
            .as_ref()
            .is_none_or(|sub| path.contains(sub.as_str()));
        let mut hit = false;
        if path_matches {
            hit |= plan.crash_at.is_some_and(|c| n >= c) || plan.fail_at == Some(n);
            if let Some((class, target)) = plan.fail_kind_at {
                if class == op {
                    hit |= self.plan_matches.fetch_add(1, Ordering::SeqCst) == target;
                }
            }
        }
        if !hit {
            return Ok(());
        }
        self.faults.fetch_add(1, Ordering::SeqCst);
        if let Some(stats) = self.mirror.read().as_ref() {
            IoStats::add(&stats.injected_faults, 1);
        }
        let msg = format!("injected fault: op #{n} ({op:?} #{k}) on {path:?}");
        Err(match plan.error_kind {
            FaultErrorKind::Io => Error::io(msg),
            FaultErrorKind::NoSpace => Error::no_space(msg),
        })
    }
}

/// A deterministic fault-injecting decorator around any [`Env`].
///
/// All mutating operations (`new_writable`, `append`, `sync`, `write_all`,
/// `remove`, `rename`) are assigned a global 0-based index in issue order;
/// a [`FaultPlan`] picks which indices fail with [`Error::Io`]. Because the
/// engine is deterministic over [`MemEnv`] in foreground mode, a probe run
/// without faults yields the total operation count `M`, and a sweep can then
/// replay the same workload once per crash point `k < M` — covering every
/// possible crash prefix of the I/O trace.
///
/// Two fault shapes are supported:
/// - **crash** ([`FaultPlan::crash_at`]): every op at index `>= k` fails,
///   freezing the underlying image mid-write, exactly as a power cut would;
///   snapshot it with [`MemEnv::deep_clone`] and reopen.
/// - **transient** ([`FaultPlan::fail_at`] / [`FaultPlan::fail_kind_at`]):
///   one op fails once — for testing error propagation and retryability.
///
/// [`FaultEnv::truncate_file`] and [`FaultEnv::flip_byte`] mutate file
/// contents directly (bypassing the plan) to simulate torn tails and media
/// corruption.
pub struct FaultEnv {
    inner: Arc<dyn Env>,
    state: Arc<FaultState>,
}

impl FaultEnv {
    /// Wrap `inner` with fault injection. Starts with an empty plan (no
    /// faults) and all counters at zero.
    pub fn new(inner: Arc<dyn Env>) -> Arc<FaultEnv> {
        Arc::new(FaultEnv {
            inner,
            state: Arc::new(FaultState {
                ops: AtomicU64::new(0),
                class_ops: Default::default(),
                faults: AtomicU64::new(0),
                plan_matches: AtomicU64::new(0),
                plan: RwLock::new(FaultPlan::default()),
                mirror: RwLock::new(None),
            }),
        })
    }

    /// Replace the fault plan. Resets the match counter that drives
    /// [`FaultPlan::fail_kind_at`] (global and per-class counters keep
    /// their values).
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut slot = self.state.plan.write();
        self.state.plan_matches.store(0, Ordering::SeqCst);
        *slot = plan;
    }

    /// Convenience: crash at global operation index `n` (see
    /// [`FaultPlan::crash_at`]).
    pub fn set_crash_point(&self, n: u64) {
        self.set_plan(FaultPlan {
            crash_at: Some(n),
            ..FaultPlan::default()
        });
    }

    /// Remove all scheduled faults (counters keep their values).
    pub fn clear_plan(&self) {
        self.set_plan(FaultPlan::default());
    }

    /// Mutating operations issued so far (including ones that failed).
    pub fn op_count(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.faults.load(Ordering::SeqCst)
    }

    /// Also mirror every injected fault into `stats.injected_faults`, so a
    /// database's own [`IoStats`] can report how much abuse it absorbed.
    pub fn mirror_stats(&self, stats: Arc<IoStats>) {
        *self.state.mirror.write() = Some(stats);
    }

    /// Truncate `path` to its first `keep` bytes — a torn tail, as left by a
    /// crash mid-append. Bypasses the fault plan and counters.
    pub fn truncate_file(&self, path: &str, keep: u64) -> Result<()> {
        let mut data = self.inner.read_all(path)?;
        data.truncate(keep as usize);
        self.inner.write_all(path, &data)
    }

    /// XOR the byte at `offset` in `path` with `0xff` — media corruption.
    /// Bypasses the fault plan and counters.
    pub fn flip_byte(&self, path: &str, offset: u64) -> Result<()> {
        let mut data = self.inner.read_all(path)?;
        let i = offset as usize;
        if i >= data.len() {
            return Err(Error::invalid(format!(
                "flip_byte offset {i} past EOF {}",
                data.len()
            )));
        }
        data[i] ^= 0xff;
        self.inner.write_all(path, &data)
    }
}

/// Writable file wrapper that routes `append`/`sync` through the fault plan.
struct FaultWritable {
    inner: Box<dyn WritableFile>,
    path: String,
    state: Arc<FaultState>,
}

impl WritableFile for FaultWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.state.check(FaultOp::Append, &self.path)?;
        self.inner.append(data)
    }
    fn sync(&mut self) -> Result<()> {
        self.state.check(FaultOp::Sync, &self.path)?;
        self.inner.sync()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for FaultEnv {
    fn new_writable(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.state.check(FaultOp::NewWritable, path)?;
        Ok(Box::new(FaultWritable {
            inner: self.inner.new_writable(path)?,
            path: path.to_string(),
            state: self.state.clone(),
        }))
    }

    fn open_random(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        self.inner.open_random(path)
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        self.inner.read_all(path)
    }

    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        self.state.check(FaultOp::WriteAll, path)?;
        self.inner.write_all(path, data)
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.state.check(FaultOp::Remove, path)?;
        self.inner.remove(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.state.check(FaultOp::Rename, to)?;
        self.inner.rename(from, to)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }

    fn mkdir_all(&self, dir: &str) -> Result<()> {
        self.inner.mkdir_all(dir)
    }
}

// ---------------------------------------------------------------------------
// DiskEnv
// ---------------------------------------------------------------------------

/// The real-filesystem environment.
#[derive(Default)]
pub struct DiskEnv;

impl DiskEnv {
    /// Create a disk environment.
    pub fn new() -> Arc<DiskEnv> {
        Arc::new(DiskEnv)
    }
}

struct DiskWritable {
    file: std::io::BufWriter<std::fs::File>,
    written: u64,
}

impl WritableFile for DiskWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.write_all(data)?;
        self.written += data.len() as u64;
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }
    fn len(&self) -> u64 {
        self.written
    }
}

impl Drop for DiskWritable {
    fn drop(&mut self) {
        let _ = self.file.flush();
    }
}

struct DiskRandom {
    file: parking_lot::Mutex<std::fs::File>,
    size: u64,
}

impl RandomAccessFile for DiskRandom {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }
    fn size(&self) -> u64 {
        self.size
    }
}

impl Env for DiskEnv {
    fn new_writable(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(path)?;
        Ok(Box::new(DiskWritable {
            file: std::io::BufWriter::new(file),
            written: 0,
        }))
    }

    fn open_random(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let file = std::fs::File::open(path)?;
        let size = file.metadata()?.len();
        Ok(Arc::new(DiskRandom {
            file: parking_lot::Mutex::new(file),
            size,
        }))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        Ok(std::fs::read(path)?)
    }

    fn write_all(&self, path: &str, data: &[u8]) -> Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Write to a temp file then rename for atomicity.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, data)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        std::path::Path::new(path).exists()
    }

    fn list(&self, dir: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn mkdir_all(&self, dir: &str) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_env(env: &dyn Env, root: &str) {
        env.mkdir_all(root).unwrap();
        let path = format!("{root}/a.txt");

        // Write via writable file.
        let mut w = env.new_writable(&path).unwrap();
        w.append(b"hello ").unwrap();
        w.append(b"world").unwrap();
        w.sync().unwrap();
        assert_eq!(w.len(), 11);
        drop(w);

        assert!(env.exists(&path));
        assert_eq!(env.file_size(&path).unwrap(), 11);
        assert_eq!(env.read_all(&path).unwrap(), b"hello world");

        // Random access.
        let r = env.open_random(&path).unwrap();
        assert_eq!(r.size(), 11);
        assert_eq!(r.read(6, 5).unwrap(), b"world");
        assert!(r.read(8, 10).is_err());

        // write_all + rename + list + remove.
        let p2 = format!("{root}/b.txt");
        env.write_all(&p2, b"two").unwrap();
        let p3 = format!("{root}/c.txt");
        env.rename(&p2, &p3).unwrap();
        assert!(!env.exists(&p2));
        assert_eq!(env.read_all(&p3).unwrap(), b"two");

        let names = env.list(root).unwrap();
        assert_eq!(names, vec!["a.txt".to_string(), "c.txt".to_string()]);

        env.remove(&p3).unwrap();
        assert!(!env.exists(&p3));
        assert!(env.read_all(&p3).is_err());
    }

    #[test]
    fn memenv_basic() {
        let env = MemEnv::new();
        exercise_env(env.as_ref(), "db");
        assert_eq!(env.total_bytes(), 11);
    }

    #[test]
    fn diskenv_basic() {
        let dir = std::env::temp_dir().join(format!("ldbpp-env-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = DiskEnv::new();
        exercise_env(env.as_ref(), dir.to_str().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memenv_overwrite_on_create() {
        let env = MemEnv::new();
        let mut w = env.new_writable("f").unwrap();
        w.append(b"aaaa").unwrap();
        drop(w);
        let w2 = env.new_writable("f").unwrap();
        assert_eq!(w2.len(), 0);
        assert!(w2.is_empty());
    }

    #[test]
    fn memenv_list_is_shallow() {
        let env = MemEnv::new();
        env.write_all("db/a", b"1").unwrap();
        env.write_all("db/sub/b", b"2").unwrap();
        env.write_all("other/c", b"3").unwrap();
        assert_eq!(env.list("db").unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn iostats_snapshot_and_diff() {
        let stats = IoStats::new();
        IoStats::add(&stats.block_reads, 5);
        IoStats::add(&stats.wal_bytes_written, 100);
        let s1 = stats.snapshot();
        assert_eq!(s1.block_reads, 5);
        IoStats::add(&stats.block_reads, 2);
        IoStats::add(&stats.compaction_blocks_read, 3);
        IoStats::add(&stats.compaction_blocks_written, 4);
        let s2 = stats.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.block_reads, 2);
        assert_eq!(d.compaction_io_blocks(), 7);
        assert_eq!(s2.bytes_written(), 100);
    }
}
