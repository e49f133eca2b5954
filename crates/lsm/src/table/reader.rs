//! SSTable reader: in-memory metadata (index, blooms, zone maps) plus
//! on-demand, checksummed, cache-aware data-block reads.

use crate::attr::AttrValue;
use crate::block::{Block, BlockIter};
use crate::env::{IoStats, RandomAccessFile};
use crate::filter::FilterBlockReader;
use crate::ikey::{self, compare_internal, InternalKey, ValueType};
use crate::iterator::DbIterator;
use crate::table::builder::decode_secmeta;
use crate::table::format::{read_block_contents, BlockHandle, Footer, ReadPurpose, FOOTER_SIZE};
use crate::version::{FileMetaData, Version};
use crate::zonemap::{ZoneEntry, ZoneMap};
use ldbpp_common::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared block cache type: keyed by (table id, block offset).
pub type BlockCache = Arc<Mutex<crate::cache::LruCache<(u64, u64), Arc<Block>>>>;

struct SecondaryMeta {
    filters: FilterBlockReader,
    zones: ZoneMap,
    file_zone: ZoneEntry,
}

/// An open SSTable.
pub struct Table {
    table_id: u64,
    file: Arc<dyn RandomAccessFile>,
    stats: Arc<IoStats>,
    cache: Option<BlockCache>,
    block_handles: Vec<BlockHandle>,
    block_last_keys: Vec<Vec<u8>>,
    primary_filters: FilterBlockReader,
    secondary: HashMap<String, SecondaryMeta>,
}

impl Table {
    /// Open a table: reads footer, index block and all filter metadata into
    /// memory.
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        table_id: u64,
        stats: Arc<IoStats>,
        cache: Option<BlockCache>,
    ) -> Result<Arc<Table>> {
        let size = file.size();
        if size < FOOTER_SIZE as u64 {
            return Err(Error::corruption("table smaller than footer"));
        }
        let footer_bytes = file.read(size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let footer = Footer::decode(&footer_bytes)?;

        let index_data = read_block_contents(file.as_ref(), footer.index_handle, None)?;
        let index = Block::new(index_data)?;
        let mut block_handles = Vec::new();
        let mut block_last_keys = Vec::new();
        let mut it = index.iter(compare_internal);
        it.seek_to_first();
        while it.valid() {
            let (handle, _) = BlockHandle::decode_from(it.value())?;
            block_handles.push(handle);
            block_last_keys.push(it.key().to_vec());
            it.next();
        }

        let filter_data = read_block_contents(file.as_ref(), footer.filter_handle, None)?;
        let primary_filters = FilterBlockReader::new(filter_data)?;
        if primary_filters.len() != block_handles.len() {
            return Err(Error::corruption("filter/block count mismatch"));
        }

        let secmeta_data = read_block_contents(file.as_ref(), footer.secmeta_handle, None)?;
        let mut secondary = HashMap::new();
        for (attr, filter_bytes, zones) in decode_secmeta(&secmeta_data)? {
            let filters = FilterBlockReader::new(filter_bytes)?;
            if filters.len() != block_handles.len() || zones.len() != block_handles.len() {
                return Err(Error::corruption("secondary meta count mismatch"));
            }
            let file_zone = zones.file_entry();
            secondary.insert(
                attr,
                SecondaryMeta {
                    filters,
                    zones,
                    file_zone,
                },
            );
        }

        Ok(Arc::new(Table {
            table_id,
            file,
            stats,
            cache,
            block_handles,
            block_last_keys,
            primary_filters,
            secondary,
        }))
    }

    /// File number / cache identity of this table.
    pub fn id(&self) -> u64 {
        self.table_id
    }

    /// The stats sink this table reports into.
    pub fn stats_handle(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Number of data blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_handles.len()
    }

    /// Attributes carrying embedded secondary metadata.
    pub fn secondary_attrs(&self) -> impl Iterator<Item = &str> {
        self.secondary.keys().map(|s| s.as_str())
    }

    /// The user key of the last entry in block `i` (from the in-memory
    /// index block).
    pub fn block_last_user_key(&self, i: usize) -> Option<&[u8]> {
        self.block_last_keys.get(i).map(|k| ikey::user_key(k))
    }

    /// Index of the first block whose last key is ≥ `ikey` — the only block
    /// that can contain `ikey`. `None` if `ikey` is past the end.
    pub fn block_for(&self, ikey_bytes: &[u8]) -> Option<usize> {
        let idx = self
            .block_last_keys
            .partition_point(|last| compare_internal(last, ikey_bytes).is_lt());
        (idx < self.block_handles.len()).then_some(idx)
    }

    /// Probe block `i`'s primary bloom filter (counted as a filter check).
    pub fn primary_may_contain_block(&self, i: usize, user_key: &[u8]) -> bool {
        IoStats::add(&self.stats.bloom_checks, 1);
        let hit = self.primary_filters.may_contain(i, user_key);
        if !hit {
            IoStats::add(&self.stats.bloom_negatives, 1);
        }
        hit
    }

    /// Purely in-memory presence check for `user_key`: index seek + primary
    /// bloom. False positives possible, false negatives not. This is the
    /// table half of the paper's `GetLite`.
    pub fn primary_may_contain(&self, user_key: &[u8]) -> bool {
        let probe = InternalKey::for_seek(user_key, ikey::MAX_SEQUENCE);
        match self.block_for(&probe.0) {
            Some(i) => self.primary_may_contain_block(i, user_key),
            None => false,
        }
    }

    /// Probe block `i`'s secondary bloom for an attribute value. Tables
    /// without metadata for `attr` answer `true` (cannot prune).
    pub fn sec_may_contain(&self, attr: &str, value: &AttrValue, i: usize) -> bool {
        match self.secondary.get(attr) {
            Some(meta) => {
                IoStats::add(&self.stats.bloom_checks, 1);
                let hit = meta.filters.may_contain(i, &value.filter_bytes());
                if !hit {
                    IoStats::add(&self.stats.bloom_negatives, 1);
                }
                hit
            }
            None => true,
        }
    }

    /// Block `i`'s zone map for `attr`, if the table carries one.
    pub fn sec_zone(&self, attr: &str, i: usize) -> Option<&ZoneEntry> {
        self.secondary.get(attr).and_then(|m| m.zones.blocks.get(i))
    }

    /// Zone-map check: may block `i` contain a value in `[lo, hi]`?
    /// Counts a prune when the answer is no.
    pub fn sec_zone_overlaps(&self, attr: &str, lo: &AttrValue, hi: &AttrValue, i: usize) -> bool {
        match self.sec_zone(attr, i) {
            Some(zone) => {
                let hit = zone.overlaps(lo, hi);
                if !hit {
                    IoStats::add(&self.stats.zonemap_prunes, 1);
                }
                hit
            }
            None => true,
        }
    }

    /// The file-level zone map for `attr` (union of block zones).
    pub fn sec_file_zone(&self, attr: &str) -> Option<&ZoneEntry> {
        self.secondary.get(attr).map(|m| &m.file_zone)
    }

    /// Read (possibly from cache) data block `i`.
    pub fn read_data_block(&self, i: usize, purpose: ReadPurpose) -> Result<Arc<Block>> {
        let handle = *self
            .block_handles
            .get(i)
            .ok_or_else(|| Error::invalid(format!("block {i} of {}", self.block_handles.len())))?;
        if purpose == ReadPurpose::Query {
            if let Some(cache) = &self.cache {
                if let Some(b) = cache.lock().get(&(self.table_id, handle.offset)) {
                    IoStats::add(&self.stats.cache_hits, 1);
                    return Ok(b);
                }
            }
        }
        let contents =
            read_block_contents(self.file.as_ref(), handle, Some((&self.stats, purpose)))?;
        let block = Block::new(contents)?;
        if purpose == ReadPurpose::Query {
            if let Some(cache) = &self.cache {
                let charge = block.size();
                cache
                    .lock()
                    .insert((self.table_id, handle.offset), Arc::clone(&block), charge);
            }
        }
        Ok(block)
    }

    /// All entries for `user_key` visible at `snapshot`, newest first.
    ///
    /// Probes the bloom filter before the first block read; continuation
    /// blocks (the key spilling over a block boundary) are read directly.
    pub fn entries_for(
        &self,
        user_key: &[u8],
        snapshot: u64,
        purpose: ReadPurpose,
    ) -> Result<Vec<(ValueType, Vec<u8>, u64)>> {
        let mut out = Vec::new();
        let probe = InternalKey::for_seek(user_key, snapshot);
        let Some(mut block_idx) = self.block_for(&probe.0) else {
            return Ok(out);
        };
        if !self.primary_may_contain_block(block_idx, user_key) {
            return Ok(out);
        }
        let mut first = true;
        loop {
            let block = self.read_data_block(block_idx, purpose)?;
            let mut it = block.iter(compare_internal);
            if first {
                it.seek(&probe.0);
                first = false;
            } else {
                it.seek_to_first();
            }
            while it.valid() {
                let (uk, seq, vtype) = ikey::parse_internal_key(it.key())?;
                if uk != user_key {
                    return Ok(out);
                }
                if seq <= snapshot {
                    out.push((vtype, it.value().to_vec(), seq));
                }
                it.next();
            }
            // The block ended while every scanned entry still matched the
            // key, so entries may spill into the next block.
            block_idx += 1;
            if block_idx >= self.block_handles.len() {
                return Ok(out);
            }
        }
    }

    /// An iterator over every entry of the table; a block that fails to
    /// read ends it, with the error as its [`DbIterator::status`].
    pub fn iter(self: &Arc<Table>, purpose: ReadPurpose) -> TableIter {
        TableIter {
            table: Arc::clone(self),
            purpose,
            block_idx: 0,
            block_iter: None,
            skip_corrupt: false,
            error: None,
        }
    }
}

/// Opens SSTables on demand, normally through the table cache.
///
/// Implemented by the database core so that lazy iterators ([`ConcatIter`])
/// can defer footer/index loads until a seek actually lands in a file, while
/// still sharing the process-wide table cache. Cache misses bump the
/// `table_opens` counter in [`IoStats`].
pub trait TableProvider: Send + Sync {
    /// Open (or fetch from cache) the table for `meta`.
    fn open_table(&self, meta: &FileMetaData) -> Result<Arc<Table>>;
}

/// Concatenates the iterators of a level's sorted, disjoint files: seeks
/// binary-search the file list and open exactly one file, so a positioned
/// scan touches only the files it passes through — the paper's per-level
/// cost model (one probe per level, not per file).
///
/// Files are opened **lazily** through a [`TableProvider`]: constructing the
/// iterator performs no I/O at all, and a seek opens exactly the file it
/// lands in (later files open only if the scan crosses into them).
pub struct ConcatIter {
    provider: Arc<dyn TableProvider>,
    /// The version `files` were taken from. Holding it keeps them on disk:
    /// a compacted-away file is deleted only once no live version lists
    /// it.
    _version: Arc<Version>,
    /// The level's files, ordered by key range (disjoint for levels ≥ 1).
    files: Vec<Arc<FileMetaData>>,
    purpose: ReadPurpose,
    /// Permissive reads (`paranoid_checks` off): where to count a corrupt
    /// file or block the scan skips. `None`: corruption ends the scan.
    skip_corrupt: Option<Arc<IoStats>>,
    file_idx: usize,
    iter: Option<TableIter>,
    error: Option<Error>,
}

impl ConcatIter {
    /// Build from a level's file metadata in `version`, ordered by key
    /// range. No file is opened until the first seek.
    pub fn new(
        provider: Arc<dyn TableProvider>,
        version: Arc<Version>,
        files: Vec<Arc<FileMetaData>>,
        purpose: ReadPurpose,
        skip_corrupt: Option<Arc<IoStats>>,
    ) -> ConcatIter {
        ConcatIter {
            provider,
            _version: version,
            files,
            purpose,
            skip_corrupt,
            file_idx: 0,
            iter: None,
            error: None,
        }
    }

    /// Open file `idx`, or in permissive mode the first later one that is
    /// not corrupt. A failure ends the iterator and becomes its status.
    fn open_file(&mut self, mut idx: usize) -> bool {
        self.iter = None;
        while idx < self.files.len() {
            match self.provider.open_table(&self.files[idx]) {
                Ok(table) => {
                    self.file_idx = idx;
                    let mut it = table.iter(self.purpose);
                    it.skip_corrupt = self.skip_corrupt.is_some();
                    self.iter = Some(it);
                    return true;
                }
                Err(e) => match &self.skip_corrupt {
                    Some(stats) if e.is_corruption() => {
                        IoStats::add(&stats.corrupt_blocks_skipped, 1);
                        idx += 1;
                    }
                    _ => {
                        self.error = Some(e);
                        return false;
                    }
                },
            }
        }
        false
    }

    /// Move past exhausted files; a failed file stays, for its status.
    fn skip_exhausted(&mut self) {
        while self
            .iter
            .as_ref()
            .is_some_and(|it| !it.valid() && it.status().is_ok())
        {
            if !self.open_file(self.file_idx + 1) {
                return;
            }
            if let Some(it) = self.iter.as_mut() {
                it.seek_to_first();
            }
        }
    }
}

impl crate::iterator::DbIterator for ConcatIter {
    fn seek_to_first(&mut self) {
        if self.open_file(0) {
            self.iter.as_mut().unwrap().seek_to_first();
            self.skip_exhausted();
        }
    }

    fn seek(&mut self, target: &[u8]) {
        // First file whose largest key is ≥ target can contain it.
        let idx = self
            .files
            .partition_point(|f| compare_internal(&f.largest, target).is_lt());
        if self.open_file(idx) {
            self.iter.as_mut().unwrap().seek(target);
            self.skip_exhausted();
        }
    }

    fn valid(&self) -> bool {
        self.iter.as_ref().map(|it| it.valid()).unwrap_or(false)
    }

    fn next(&mut self) {
        if let Some(it) = self.iter.as_mut() {
            it.next();
        }
        self.skip_exhausted();
    }

    fn key(&self) -> &[u8] {
        self.iter.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => self.iter.as_ref().map_or(Ok(()), |it| it.status()),
        }
    }
}

/// Two-level iterator over a table's entries.
pub struct TableIter {
    table: Arc<Table>,
    purpose: ReadPurpose,
    block_idx: usize,
    block_iter: Option<BlockIter>,
    /// Permissive reads: skip a corrupt block, counted as
    /// `corrupt_blocks_skipped`, instead of ending with an error.
    skip_corrupt: bool,
    error: Option<Error>,
}

impl TableIter {
    /// Load block `idx`, or in permissive mode the first later one that is
    /// not corrupt. A failure ends the iterator and becomes its status.
    fn load_block(&mut self, mut idx: usize) -> bool {
        self.block_iter = None;
        while idx < self.table.num_blocks() {
            match self.table.read_data_block(idx, self.purpose) {
                Ok(block) => {
                    self.block_idx = idx;
                    self.block_iter = Some(block.iter(compare_internal));
                    return true;
                }
                Err(e) if self.skip_corrupt && e.is_corruption() => {
                    IoStats::add(&self.table.stats.corrupt_blocks_skipped, 1);
                    idx += 1;
                }
                Err(e) => {
                    self.error = Some(e);
                    return false;
                }
            }
        }
        false
    }

    fn skip_empty_blocks(&mut self) {
        while self
            .block_iter
            .as_ref()
            .map(|it| !it.valid())
            .unwrap_or(false)
        {
            let next = self.block_idx + 1;
            if !self.load_block(next) {
                return;
            }
            if let Some(it) = self.block_iter.as_mut() {
                it.seek_to_first();
            }
        }
    }
}

impl DbIterator for TableIter {
    fn seek_to_first(&mut self) {
        if self.load_block(0) {
            self.block_iter.as_mut().unwrap().seek_to_first();
            self.skip_empty_blocks();
        }
    }

    fn seek(&mut self, target: &[u8]) {
        match self.table.block_for(target) {
            Some(idx) => {
                if self.load_block(idx) {
                    self.block_iter.as_mut().unwrap().seek(target);
                    self.skip_empty_blocks();
                }
            }
            None => self.block_iter = None,
        }
    }

    fn valid(&self) -> bool {
        self.block_iter
            .as_ref()
            .map(|it| it.valid())
            .unwrap_or(false)
    }

    fn next(&mut self) {
        if let Some(it) = self.block_iter.as_mut() {
            it.next();
        }
        self.skip_empty_blocks();
    }

    fn key(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.block_iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        self.error.clone().map_or(Ok(()), Err)
    }
}
