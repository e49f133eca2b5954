//! The maintenance pipeline of a [`Db`]: freezing a full memtable
//! (`make_room`, `swap_memtable`), the drain round that flushes it and
//! runs due compactions (`flush_imm`, `drain`), compaction install, log
//! and table garbage collection, and the background worker.

use super::recovery::start_log;
use super::{Db, DbCore, DbInner, PendingFlush, ReadState, WorkerMsg};
use crate::compaction::{pick_compaction, resolve_key_run_with_snapshot, CompactionJob, RunEntry};
use crate::env::{Env, IoStats};
use crate::ikey::{self, InternalKey};
use crate::iterator::{DbIterator, MergingIterator};
use crate::memtable::MemTable;
use crate::options::DbOptions;
use crate::sync::Ordering;
use crate::table::{ReadPurpose, TableBuilder};
use crate::version::{
    current_tmp_file_name, log_file_name, table_file_name, FileMetaData, Version, VersionEdit,
};
use crossbeam::channel::Receiver;
use ldbpp_common::Result;
use parking_lot::{MutexGuard, RwLock};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

impl Db {
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
}

impl DbCore {
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
    pub(super) fn gc_logs(&self, inner: &mut DbInner) -> Result<()> {
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

    /// One-millisecond write delay once L0 reaches the slowdown trigger
    /// (LevelDB's gradual backpressure). Runs before any lock is taken.
    pub(super) fn maybe_slowdown(&self) {
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
    pub(super) fn make_room<'a>(
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
    pub(super) fn gc(&self) {
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

    pub(super) fn remove_obsolete_files(&self) {
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
}

/// Background worker: waits for kicks, then runs a drain round.
pub(super) fn worker_loop(core: &DbCore, rx: Receiver<WorkerMsg>) {
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

/// Build SSTable `number` of database `name` from a memtable and return
/// its metadata (counted against the flush I/O stats).
pub(super) fn build_l0_table(
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
