//! Opening a [`Db`]: MANIFEST recovery, then the replay of the log files
//! — each operation routed by the tree names its file opens with, into
//! this table or into a fed tree above the sequence that tree has flushed
//! — and the fresh log that replaces them.

use super::commit::ShardLog;
use super::flush::{build_l0_table, worker_loop};
use super::{Db, DbCore, DbInner, ReadState};
use crate::cache::LruCache;
use crate::env::{Env, IoStats};
use crate::memtable::MemTable;
use crate::options::DbOptions;
use crate::sync::{AtomicU64, Ordering};
use crate::table::BlockCache;
use crate::version::{current_file_name, log_file_name, VersionEdit, VersionSet};
use crate::wal::{LogReader, LogWriter};
use crate::write_batch::{self, BatchOp, WriteBatch};
use crossbeam::channel::unbounded;
use ldbpp_common::{Error, Result};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::thread;

impl Db {
    pub(super) fn open_tree(
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
            // A fed tree's operations live in the log of the table it is
            // opened under; a log in its own directory is a format this
            // engine does not read. Refuse rather than skip it, and leave
            // the file where it is.
            if tree_id != 0 {
                if let Some(number) = log_numbers.first() {
                    return Err(Error::not_supported(format!(
                        "{}: a tree fed by another table's log keeps no log of its own",
                        log_file_name(name, *number)
                    )));
                }
            }
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
                        Err(_) if !opts.paranoid_checks => {
                            IoStats::add(&stats.wal_records_salvaged, 1);
                            IoStats::add(&stats.wal_bytes_dropped, record.len() as u64);
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
        // A fed tree can hold sequences its log owner no longer knows of:
        // repair of a primary that lost its newest tables and its MANIFEST
        // recovers a lower last sequence than its trees flushed. Handing
        // those sequences out again would let a new entry sort below a
        // stale one in the same tree.
        for tree in &trees {
            versions.last_sequence = versions.last_sequence.max(tree.tree_sequence());
        }
        // Whatever this open replayed into the table is in L0 now; a fed
        // tree keeps the mark its MANIFEST holds (the log owner's open
        // replays into it afterwards).
        if tree_id == 0 {
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
}

impl DbCore {
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
}

/// The last component of a directory name: what a tree is called in the
/// log (a database keeps its logs when its parent directory moves).
fn base_name(name: &str) -> &str {
    name.rsplit('/').next().unwrap_or(name)
}

/// Create log file `number` of the table at `name`. A log that commits for
/// other trees opens by naming them ([`write_batch::encode_tree_names`]);
/// that record is no operation and is charged to no tree's counters.
pub(super) fn start_log(
    env: &Arc<dyn Env>,
    name: &str,
    number: u64,
    trees: &[Arc<Db>],
) -> Result<LogWriter> {
    let mut wal = LogWriter::new(env.new_writable(&log_file_name(name, number))?);
    if !trees.is_empty() {
        let names = trees.iter().map(|t| base_name(t.name()));
        wal.add_record(&write_batch::encode_tree_names(names))?;
    }
    Ok(wal)
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
