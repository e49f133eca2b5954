//! `repair_db`: rebuild a database from whatever is readable on disk.
//!
//! Modelled on LevelDB's `RepairDB`. The repairer deliberately ignores
//! CURRENT and the MANIFEST — the files most likely to be damaged or lying
//! after a crash or bit rot — and instead treats the directory listing as
//! the source of truth:
//!
//! 1. Every `NNNNNN.ldb` file is **fully scanned**. Its metadata
//!    (smallest/largest keys, entry and block counts, sequence bounds,
//!    file-level zone maps) is re-derived from the scan rather than trusted
//!    from any manifest. Files with corrupt blocks are rewritten from the
//!    surviving entries; files whose footer or index cannot be read are
//!    quarantined.
//! 2. Every `NNNNNN.log` WAL is replayed in salvage mode (resynchronizing
//!    at the next 32 KiB block boundary after a bad record, see
//!    [`crate::wal::LogReader::new_salvaging`]) and its records are
//!    converted into fresh L0 tables.
//! 3. Nothing is deleted on suspicion: unreadable or partly-readable
//!    originals move into a `lost/` quarantine subdirectory so an operator
//!    (or a better tool) can do forensics later.
//! 4. Survivors are renumbered in ascending max-sequence order and a new
//!    MANIFEST is synthesized placing **all of them in level 0**. L0 is the
//!    only level that tolerates arbitrary overlap, and its files are probed
//!    newest-number-first — so the renumbering restores recency order and
//!    normal compaction re-sorts the tree from there.
//!
//! The database must not be open while `repair_db` runs.

use crate::block::Block;
use crate::env::{Env, IoStats};
use crate::ikey::{self, compare_internal};
use crate::memtable::MemTable;
use crate::options::DbOptions;
use crate::table::{read_block_contents, BlockHandle, Footer, Table, TableBuilder, FOOTER_SIZE};
use crate::version::{
    current_tmp_file_name, install_current, log_file_name, manifest_file_name, table_file_name,
    FileMetaData, VersionEdit,
};
use crate::wal::{LogReader, LogWriter};
use crate::write_batch::{self, WriteBatch};
use ldbpp_common::{Error, Result};
use std::sync::Arc;

/// What [`repair_db`] did, file by file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use = "inspect the report: quarantined files mean acked writes were lost"]
pub struct RepairReport {
    /// Tables that scanned clean and were kept in place (metadata
    /// re-derived from the scan).
    pub tables_kept: usize,
    /// Tables with corrupt blocks whose surviving entries were rewritten
    /// into a fresh file (the damaged original is quarantined).
    pub tables_rewritten: usize,
    /// New L0 tables built from salvaged WAL records.
    pub tables_from_wal: usize,
    /// File names (relative to the database directory) moved into `lost/`.
    pub quarantined: Vec<String>,
    /// Data blocks skipped because their checksum or framing was bad.
    pub corrupt_blocks_skipped: u64,
    /// WAL records recovered into L0 tables.
    pub wal_records_recovered: u64,
    /// Operations in the WAL that belong to the index trees of the shard.
    /// They were kept out of this table's L0 and left in their log file
    /// (unless it was quarantined) for the trees to replay.
    pub wal_index_ops_left: u64,
    /// WAL corruption events resynchronized past (see
    /// [`crate::wal::LogReader::records_salvaged`]).
    pub wal_records_salvaged: u64,
    /// WAL bytes dropped while resynchronizing.
    pub wal_bytes_dropped: u64,
    /// Entries preserved across all surviving tables.
    pub entries_recovered: u64,
    /// Highest sequence number observed anywhere (recorded in the new
    /// MANIFEST so future writes cannot collide with salvaged history).
    pub last_sequence: u64,
}

impl RepairReport {
    /// True when nothing was quarantined, rewritten, or dropped — the
    /// directory contained only clean files.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.tables_rewritten == 0
            && self.corrupt_blocks_skipped == 0
            && self.wal_records_salvaged == 0
            && self.wal_bytes_dropped == 0
    }
}

/// Outcome of scanning one `.ldb` file.
enum TableScan {
    /// Footer, index, every data block and the in-memory metadata all
    /// check out: keep the file, trust only the re-derived metadata.
    Intact {
        meta: FileMetaData,
        max_seq: u64,
        entries: u64,
    },
    /// Some blocks (or the reader metadata) are damaged but entries
    /// survive: rewrite them into a fresh table.
    Partial {
        survivors: Vec<(Vec<u8>, Vec<u8>)>,
        corrupt_blocks: u64,
    },
    /// Nothing usable (bad footer/index, or every block corrupt).
    Unreadable { corrupt_blocks: u64 },
}

/// One survivor table awaiting renumbering: `(max_seq, current number,
/// metadata)`.
struct Survivor {
    max_seq: u64,
    number: u64,
    meta: FileMetaData,
}

/// Rebuild the database in `dbname` from whatever is readable, ignoring
/// CURRENT and any MANIFEST. See the module docs for the full salvage
/// policy. `opts` must describe the table format of the files being
/// repaired (same `indexed_attrs`/`extractor` the database was built with,
/// so rewritten tables regain their embedded secondary metadata).
///
/// On success the directory holds a fresh MANIFEST + CURRENT naming every
/// survivor in L0, and `lost/` holds everything that could not be saved.
/// The next [`crate::db::Db::open`] proceeds normally.
pub fn repair_db(env: &Arc<dyn Env>, dbname: &str, opts: &DbOptions) -> Result<RepairReport> {
    let names = env.list(dbname)?;
    let mut report = RepairReport::default();

    // Classify the directory. Numbers from *any* file (including garbage
    // manifests) raise the floor for fresh allocations.
    let mut table_numbers: Vec<u64> = Vec::new();
    let mut log_numbers: Vec<u64> = Vec::new();
    let mut manifest_names: Vec<String> = Vec::new();
    let mut max_number = 0u64;
    for fname in &names {
        if let Some(numtext) = fname.strip_suffix(".ldb") {
            if let Ok(n) = numtext.parse::<u64>() {
                table_numbers.push(n);
                max_number = max_number.max(n);
            }
        } else if let Some(numtext) = fname.strip_suffix(".log") {
            if let Ok(n) = numtext.parse::<u64>() {
                log_numbers.push(n);
                max_number = max_number.max(n);
            }
        } else if let Some(numtext) = fname.strip_prefix("MANIFEST-") {
            manifest_names.push(fname.clone());
            if let Ok(n) = numtext.parse::<u64>() {
                max_number = max_number.max(n);
            }
        }
    }
    if table_numbers.is_empty() && log_numbers.is_empty() && manifest_names.is_empty() {
        return Err(Error::invalid(format!(
            "{dbname}: not a database directory (no tables, logs, or manifests)"
        )));
    }
    table_numbers.sort_unstable();
    log_numbers.sort_unstable();
    let mut next_number = max_number + 1;

    // Best-effort scan of the old manifests (salvaging reader — they may be
    // the very thing that is corrupt) for the last_sequence floor.
    let mut last_sequence = 0u64;
    for fname in &manifest_names {
        let Ok(data) = env.read_all(&format!("{dbname}/{fname}")) else {
            continue;
        };
        let mut reader = LogReader::new_salvaging(&data);
        while let Ok(Some(record)) = reader.read_record() {
            let Ok(edit) = VersionEdit::decode(&record) else {
                continue;
            };
            if let Some(v) = edit.last_sequence {
                last_sequence = last_sequence.max(v);
            }
        }
    }

    // Salvage every table file.
    let mut survivors: Vec<Survivor> = Vec::new();
    for number in table_numbers {
        let fname = format!("{number:06}.ldb");
        match scan_table(env, dbname, number) {
            TableScan::Intact {
                meta,
                max_seq,
                entries,
            } => {
                report.tables_kept += 1;
                report.entries_recovered += entries;
                last_sequence = last_sequence.max(max_seq);
                survivors.push(Survivor {
                    max_seq,
                    number,
                    meta,
                });
            }
            TableScan::Partial {
                survivors: entries,
                corrupt_blocks,
            } => {
                report.corrupt_blocks_skipped += corrupt_blocks;
                let new_number = next_number;
                next_number += 1;
                let (meta, max_seq) = build_table(env, opts, dbname, new_number, &entries)?;
                report.tables_rewritten += 1;
                report.entries_recovered += meta.num_entries;
                last_sequence = last_sequence.max(max_seq);
                survivors.push(Survivor {
                    max_seq,
                    number: new_number,
                    meta,
                });
                quarantine(env, dbname, &fname, &mut report)?;
            }
            TableScan::Unreadable { corrupt_blocks } => {
                report.corrupt_blocks_skipped += corrupt_blocks;
                quarantine(env, dbname, &fname, &mut report)?;
            }
        }
    }

    // Convert every WAL into fresh L0 tables. WAL records are the newest
    // data in the directory, so these tables naturally sort last in the
    // max-sequence renumbering below.
    for number in log_numbers {
        let fname = format!("{number:06}.log");
        let Ok(data) = env.read_all(&log_file_name(dbname, number)) else {
            quarantine(env, dbname, &fname, &mut report)?;
            continue;
        };
        let mut reader = LogReader::new_salvaging(&data);
        let mut mem = MemTable::new();
        let mut decode_failures = 0u64;
        let mut wal_max_seq = 0u64;
        let mut index_ops = 0u64;
        while let Some(record) = reader.read_record()? {
            if write_batch::decode_tree_names(&record).is_some() {
                continue; // the file's list of index trees: no operation
            }
            let Ok((seq, ops)) = WriteBatch::decode(&record) else {
                decode_failures += 1;
                report.wal_bytes_dropped += record.len() as u64;
                continue;
            };
            for (seq, op) in write_batch::sequenced(seq, &ops) {
                // The log of a shard also carries the operations of its
                // index trees; they are no records of this table.
                if op.tree == 0 {
                    mem.add(seq, op.vtype, &op.key, &op.value);
                } else {
                    index_ops += 1;
                }
                wal_max_seq = wal_max_seq.max(seq);
            }
            report.wal_records_recovered += 1;
            if mem.approximate_bytes() >= opts.write_buffer_size {
                let new_number = next_number;
                next_number += 1;
                let (meta, max_seq) = build_table_from_mem(env, opts, dbname, new_number, &mem)?;
                report.tables_from_wal += 1;
                report.entries_recovered += meta.num_entries;
                survivors.push(Survivor {
                    max_seq,
                    number: new_number,
                    meta,
                });
                mem = MemTable::new();
            }
        }
        if !mem.is_empty() {
            let new_number = next_number;
            next_number += 1;
            let (meta, max_seq) = build_table_from_mem(env, opts, dbname, new_number, &mem)?;
            report.tables_from_wal += 1;
            report.entries_recovered += meta.num_entries;
            survivors.push(Survivor {
                max_seq,
                number: new_number,
                meta,
            });
        }
        last_sequence = last_sequence.max(wal_max_seq);
        report.wal_records_salvaged += reader.records_salvaged() + decode_failures;
        report.wal_bytes_dropped += reader.bytes_dropped();
        if reader.records_salvaged() > 0 || reader.bytes_dropped() > 0 || decode_failures > 0 {
            // The log lost data: keep the original for forensics.
            quarantine(env, dbname, &fname, &mut report)?;
        } else if index_ops == 0 {
            let _ = env.remove(&log_file_name(dbname, number));
        }
        // Otherwise the file stays where it is, below the log number the
        // new MANIFEST records: the next open through the shard skips
        // this table's records in it (they are in L0 now) and hands each
        // index tree what the tree has not flushed.
        report.wal_index_ops_left += index_ops;
    }

    // Renumber survivors so L0's newest-number-first probe order matches
    // recency: ascending max sequence gets ascending file numbers. (A
    // compaction output keeps old entries under a high file number, so the
    // original numbers are *not* a recency order.)
    survivors.sort_by_key(|s| (s.max_seq, s.number));
    for s in &mut survivors {
        let new_number = next_number;
        next_number += 1;
        env.rename(
            &table_file_name(dbname, s.number),
            &table_file_name(dbname, new_number),
        )?;
        s.number = new_number;
        s.meta.number = new_number;
    }

    // Synthesize the new MANIFEST: one snapshot edit, every survivor in L0.
    let manifest_number = next_number;
    next_number += 1;
    let log_number = next_number; // reserved; Db::open creates the next WAL above it
    next_number += 1;
    let mut edit = VersionEdit {
        log_number: Some(log_number),
        next_file_number: Some(next_number),
        last_sequence: Some(last_sequence),
        flushed_seq: Some(last_sequence),
        ..Default::default()
    };
    for s in &survivors {
        edit.add_file(0, s.meta.clone());
    }
    let mut manifest =
        LogWriter::new(env.new_writable(&manifest_file_name(dbname, manifest_number))?);
    manifest.add_record(&edit.encode())?;
    manifest.sync()?;
    install_current(env.as_ref(), dbname, manifest_number)?;

    // Only now that CURRENT points at the new MANIFEST are the old ones
    // garbage. (A crash before this point leaves them for the next repair.)
    for fname in &manifest_names {
        let _ = env.remove(&format!("{dbname}/{fname}"));
    }
    if env.exists(&current_tmp_file_name(dbname)) {
        let _ = env.remove(&current_tmp_file_name(dbname));
    }

    report.last_sequence = last_sequence;
    Ok(report)
}

/// Move `{dbname}/{fname}` into the `lost/` quarantine subdirectory and
/// record it in the report. Nothing is ever deleted on suspicion.
fn quarantine(
    env: &Arc<dyn Env>,
    dbname: &str,
    fname: &str,
    report: &mut RepairReport,
) -> Result<()> {
    env.mkdir_all(&format!("{dbname}/lost"))?;
    env.rename(
        &format!("{dbname}/{fname}"),
        &format!("{dbname}/lost/{fname}"),
    )?;
    report.quarantined.push(fname.to_string());
    Ok(())
}

/// Full scan of one table file. Trusts nothing: the footer and index are
/// needed to find the blocks at all, but every data block is read and
/// CRC-verified, every key parsed, and the overall ordering checked.
fn scan_table(env: &Arc<dyn Env>, dbname: &str, number: u64) -> TableScan {
    let path = table_file_name(dbname, number);
    let Ok(file) = env.open_random(&path) else {
        return TableScan::Unreadable { corrupt_blocks: 0 };
    };
    let size = file.size();
    if size < FOOTER_SIZE as u64 {
        return TableScan::Unreadable { corrupt_blocks: 0 };
    }
    let footer = match file
        .read(size - FOOTER_SIZE as u64, FOOTER_SIZE)
        .and_then(|bytes| Footer::decode(&bytes))
    {
        Ok(f) => f,
        Err(_) => return TableScan::Unreadable { corrupt_blocks: 0 },
    };
    let index =
        match read_block_contents(file.as_ref(), footer.index_handle, None).and_then(Block::new) {
            Ok(b) => b,
            Err(_) => return TableScan::Unreadable { corrupt_blocks: 0 },
        };
    let mut handles: Vec<BlockHandle> = Vec::new();
    let mut it = index.iter(compare_internal);
    it.seek_to_first();
    while it.valid() {
        match BlockHandle::decode_from(it.value()) {
            Ok((h, _)) => handles.push(h),
            Err(_) => return TableScan::Unreadable { corrupt_blocks: 0 },
        }
        it.next();
    }

    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut corrupt_blocks = 0u64;
    let mut max_seq = 0u64;
    for h in &handles {
        let block = match read_block_contents(file.as_ref(), *h, None).and_then(Block::new) {
            Ok(b) => b,
            Err(_) => {
                corrupt_blocks += 1;
                continue;
            }
        };
        // Validate the whole block before committing any of its entries.
        let mut block_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut block_max_seq = 0u64;
        let mut ok = true;
        let mut bit = block.iter(compare_internal);
        bit.seek_to_first();
        while bit.valid() {
            match ikey::parse_internal_key(bit.key()) {
                Ok((_, seq, _)) => block_max_seq = block_max_seq.max(seq),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            block_entries.push((bit.key().to_vec(), bit.value().to_vec()));
            bit.next();
        }
        if !ok {
            corrupt_blocks += 1;
            continue;
        }
        entries.extend(block_entries);
        max_seq = max_seq.max(block_max_seq);
    }
    if entries.is_empty() {
        return TableScan::Unreadable { corrupt_blocks };
    }
    let ordered = entries
        .windows(2)
        .all(|w| compare_internal(&w[0].0, &w[1].0).is_lt());

    if corrupt_blocks == 0 && ordered {
        // The reader metadata (filters, secondary meta) must also load, or
        // the kept file would fail at query time; a metadata failure
        // demotes the file to the rewrite path, which regenerates it.
        let stats = IoStats::new();
        if let Ok(table) = Table::open(file, number, stats, None) {
            let sec_file_zones = table
                .secondary_attrs()
                .filter_map(|attr| {
                    table
                        .sec_file_zone(attr)
                        .map(|z| (attr.to_string(), z.clone()))
                })
                .collect();
            let num_entries = entries.len() as u64;
            let meta = FileMetaData {
                number,
                file_size: size,
                num_entries,
                num_blocks: handles.len() as u64,
                smallest: entries[0].0.clone(),
                largest: entries[entries.len() - 1].0.clone(),
                sec_file_zones,
            };
            return TableScan::Intact {
                meta,
                max_seq,
                entries: num_entries,
            };
        }
    }

    // Survivors must be strictly increasing for the builder; sort and drop
    // duplicate internal keys (possible only if the index lied).
    entries.sort_by(|a, b| compare_internal(&a.0, &b.0));
    entries.dedup_by(|a, b| compare_internal(&a.0, &b.0).is_eq());
    TableScan::Partial {
        survivors: entries,
        corrupt_blocks,
    }
}

/// Build table `number` from sorted `(internal key, value)` entries,
/// returning the re-derived metadata and the highest sequence inside.
fn build_table(
    env: &Arc<dyn Env>,
    opts: &DbOptions,
    dbname: &str,
    number: u64,
    entries: &[(Vec<u8>, Vec<u8>)],
) -> Result<(FileMetaData, u64)> {
    let file = env.new_writable(&table_file_name(dbname, number))?;
    let mut builder = TableBuilder::new(opts, file);
    let mut max_seq = 0u64;
    for (key, value) in entries {
        let (_, seq, _) = ikey::parse_internal_key(key)?;
        max_seq = max_seq.max(seq);
        builder.add(key, value)?;
    }
    let meta = builder.finish()?;
    Ok((
        FileMetaData {
            number,
            file_size: meta.file_size,
            num_entries: meta.num_entries,
            num_blocks: meta.num_blocks,
            smallest: meta.smallest,
            largest: meta.largest,
            sec_file_zones: meta.sec_file_zones,
        },
        max_seq,
    ))
}

/// Build table `number` from a salvaged-WAL memtable.
fn build_table_from_mem(
    env: &Arc<dyn Env>,
    opts: &DbOptions,
    dbname: &str,
    number: u64,
    mem: &MemTable,
) -> Result<(FileMetaData, u64)> {
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut it = mem.iter();
    it.seek_to_first();
    while it.valid() {
        entries.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    build_table(env, opts, dbname, number, &entries)
}
