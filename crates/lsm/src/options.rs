//! Database configuration.

use crate::attr::AttrExtractor;
use crate::compress::Compression;
use crate::merge::MergeOperatorRef;
use std::sync::Arc;

/// Tuning knobs for a [`crate::db::Db`].
///
/// Defaults mirror LevelDB's production configuration; [`DbOptions::small`]
/// scales every size down so unit tests and laptop-scale experiments still
/// produce multi-level trees (the paper's behaviours — level-by-level scan
/// costs, write amplification, compaction churn — all require several
/// populated levels).
#[derive(Clone)]
pub struct DbOptions {
    /// Target uncompressed size of a data block.
    pub block_size: usize,
    /// Restart point interval inside blocks.
    pub restart_interval: usize,
    /// Memtable size that triggers a flush to L0.
    pub write_buffer_size: usize,
    /// Target size of an SSTable produced by compaction.
    pub max_file_size: usize,
    /// Number of L0 files that triggers an L0→L1 compaction.
    pub l0_compaction_trigger: usize,
    /// Size ratio between adjacent levels (LevelDB uses 10).
    pub level_size_multiplier: u64,
    /// Target total bytes for level 1.
    pub base_level_bytes: u64,
    /// Maximum number of levels.
    pub num_levels: usize,
    /// Bloom filter budget, bits per key (paper default 10; Appendix C.1
    /// sweeps 2–20).
    pub bloom_bits_per_key: usize,
    /// Block compression (paper default: Snappy → our snaplite).
    pub compression: Compression,
    /// Secondary attributes embedded into every SSTable (per-block blooms +
    /// zone maps). Empty for plain tables and all stand-alone index tables.
    pub indexed_attrs: Vec<String>,
    /// Extracts attribute values from record values; required when
    /// `indexed_attrs` is non-empty.
    pub extractor: Option<Arc<dyn AttrExtractor>>,
    /// Merge operator folding [`crate::ikey::ValueType::Merge`] operands
    /// (used by Lazy stand-alone index tables).
    pub merge_operator: Option<MergeOperatorRef>,
    /// Block cache capacity in bytes (0 disables it — the paper's default).
    pub block_cache_bytes: usize,
    /// Max open table readers (LevelDB `max_open_files`; the paper sets it
    /// large so all filter metadata stays resident).
    pub table_cache_entries: usize,
    /// Write WAL records for each write (disable only for bulk loads that
    /// can be regenerated).
    pub wal_enabled: bool,
    /// Run due compactions inline with writes (the default, matching the
    /// paper's synchronous single-threaded setup). When false, only
    /// memtable flushes happen automatically and compactions wait for an
    /// explicit [`crate::db::Db::compact`] — useful for bulk loads and for
    /// experiments that want to observe a tree in a specific shape.
    pub auto_compact: bool,
    /// Run flushes and compactions on a dedicated background worker thread
    /// (LevelDB's architecture): a full memtable is frozen (`mem` → `imm`)
    /// and handed to the worker, so writes return after the WAL append and
    /// memtable insert instead of paying for the flush — and any compaction
    /// it triggers — inline.
    ///
    /// Default **false**: the foreground mode is single-threaded and
    /// byte-for-byte deterministic, which the paper reproduction relies on
    /// (`repro` block-access counts). Reads never take the big mutex in
    /// either mode.
    pub background_work: bool,
    /// Background mode only: number of L0 files at which each write is
    /// delayed ~1 ms (LevelDB's `kL0_SlowdownWritesTrigger`) so the
    /// compactor can catch up gradually instead of stalling ingest all at
    /// once.
    pub l0_slowdown_trigger: usize,
    /// Background mode only: number of L0 files at which writes block
    /// until compaction brings L0 back under the threshold (LevelDB's
    /// `kL0_StopWritesTrigger`). Ignored when `auto_compact` is off, since
    /// nothing would ever reduce L0.
    pub l0_stall_trigger: usize,
    /// Upper bound, in WAL-payload bytes, on one group commit.
    ///
    /// Concurrent writers enqueue on the writer queue; the queue-front
    /// *leader* drains queued batches into a single WAL record (one
    /// append, at most one fsync, one memtable publish) until the next
    /// batch would push the group past this size. The leader's own batch
    /// always commits, even when it alone exceeds the cap. When the
    /// leader's batch is small (≤ 1/8 of the cap) the effective cap is
    /// tightened to `leader_bytes + cap/8` — LevelDB's refinement — so a
    /// tiny write's latency is never held hostage by a huge group forming
    /// behind it. See DESIGN.md §14 for the full protocol.
    pub max_group_commit_bytes: usize,
    /// Sync the WAL to durable storage once per group commit.
    ///
    /// Default **false** (LevelDB's non-`sync` writes): an acknowledged
    /// write survives a process crash (the record is in the OS page
    /// cache) but a power cut may drop the buffered tail. When **true**,
    /// every group pays exactly one [`crate::env::WritableFile::sync`]
    /// after its WAL append, and group commit amortizes that fsync across
    /// all batches in the group — the amortization measured by the
    /// contended write-scaling experiment (EXPERIMENTS.md).
    pub wal_sync: bool,
    /// Abort on the first sign of stored-data corruption (LevelDB's
    /// `paranoid_checks`, here defaulted **on**).
    ///
    /// * **true** — a WAL checksum mismatch fails recovery and a corrupt
    ///   data block fails the read that touched it: nothing is silently
    ///   dropped, and the operator is expected to run
    ///   [`crate::repair::repair_db`].
    /// * **false** — *permissive* mode: WAL recovery resynchronizes at the
    ///   next 32 KiB block boundary and keeps replaying (counting
    ///   `wal_records_salvaged` / `wal_bytes_dropped` in
    ///   [`crate::env::IoStats`]), and reads treat a corrupt data block as
    ///   absent-with-diagnostic (`corrupt_blocks_skipped`) instead of a
    ///   query error — serving every record that is still readable.
    pub paranoid_checks: bool,
    /// Sequence-number allocator the database's commits draw from (see
    /// [`crate::db::SharedSequence`]). `SecondaryDb` installs one clock in
    /// every shard's primary, one shard or many. `None` — the default for
    /// a `Db` opened on its own — allocates `last_sequence + 1` per
    /// database; a clock that only this database uses hands out the same
    /// numbers.
    pub sequence_clock: Option<Arc<crate::db::SharedSequence>>,
}

impl std::fmt::Debug for DbOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbOptions")
            .field("block_size", &self.block_size)
            .field("write_buffer_size", &self.write_buffer_size)
            .field("max_file_size", &self.max_file_size)
            .field("l0_compaction_trigger", &self.l0_compaction_trigger)
            .field("level_size_multiplier", &self.level_size_multiplier)
            .field("base_level_bytes", &self.base_level_bytes)
            .field("num_levels", &self.num_levels)
            .field("bloom_bits_per_key", &self.bloom_bits_per_key)
            .field("compression", &self.compression)
            .field("indexed_attrs", &self.indexed_attrs)
            .field("block_cache_bytes", &self.block_cache_bytes)
            .field("background_work", &self.background_work)
            .field("l0_slowdown_trigger", &self.l0_slowdown_trigger)
            .field("l0_stall_trigger", &self.l0_stall_trigger)
            .field("max_group_commit_bytes", &self.max_group_commit_bytes)
            .field("wal_sync", &self.wal_sync)
            .field("paranoid_checks", &self.paranoid_checks)
            .finish_non_exhaustive()
    }
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            block_size: 4096,
            restart_interval: 16,
            write_buffer_size: 4 << 20,
            max_file_size: 2 << 20,
            l0_compaction_trigger: 4,
            level_size_multiplier: 10,
            base_level_bytes: 10 << 20,
            num_levels: 7,
            bloom_bits_per_key: 10,
            compression: Compression::Snaplite,
            indexed_attrs: Vec::new(),
            extractor: None,
            merge_operator: None,
            block_cache_bytes: 0,
            table_cache_entries: 30_000,
            wal_enabled: true,
            auto_compact: true,
            background_work: false,
            l0_slowdown_trigger: 8,
            l0_stall_trigger: 12,
            max_group_commit_bytes: 1 << 20,
            wal_sync: false,
            paranoid_checks: true,
            sequence_clock: None,
        }
    }
}

impl DbOptions {
    /// A configuration scaled down ~256× so tests and laptop experiments
    /// build deep trees from tens of thousands of records.
    pub fn small() -> DbOptions {
        DbOptions {
            block_size: 1024,
            restart_interval: 16,
            write_buffer_size: 16 << 10,
            max_file_size: 8 << 10,
            l0_compaction_trigger: 4,
            level_size_multiplier: 10,
            base_level_bytes: 64 << 10,
            num_levels: 7,
            bloom_bits_per_key: 10,
            compression: Compression::Snaplite,
            indexed_attrs: Vec::new(),
            extractor: None,
            merge_operator: None,
            block_cache_bytes: 0,
            table_cache_entries: 30_000,
            wal_enabled: true,
            auto_compact: true,
            background_work: false,
            l0_slowdown_trigger: 8,
            l0_stall_trigger: 12,
            max_group_commit_bytes: 64 << 10,
            wal_sync: false,
            paranoid_checks: true,
            sequence_clock: None,
        }
    }

    /// Maximum total bytes allowed in `level` before it is compaction
    /// eligible (levels ≥ 1; L0 is triggered by file count).
    pub fn max_bytes_for_level(&self, level: usize) -> u64 {
        let mut bytes = self.base_level_bytes;
        for _ in 1..level.max(1) {
            bytes = bytes.saturating_mul(self.level_size_multiplier);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_targets_grow_geometrically() {
        let o = DbOptions::default();
        assert_eq!(o.max_bytes_for_level(1), 10 << 20);
        assert_eq!(o.max_bytes_for_level(2), 100 << 20);
        assert_eq!(o.max_bytes_for_level(3), 1000 << 20);
    }

    #[test]
    fn small_preset_is_small() {
        let o = DbOptions::small();
        assert!(o.write_buffer_size < DbOptions::default().write_buffer_size);
        assert!(o.max_file_size <= o.write_buffer_size);
    }

    #[test]
    fn debug_impl_renders() {
        let o = DbOptions::small();
        let s = format!("{o:?}");
        assert!(s.contains("block_size"));
    }
}
