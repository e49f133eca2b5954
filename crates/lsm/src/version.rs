//! Versions: which SSTables are live at which level, persisted via a
//! MANIFEST log of version edits (LevelDB's scheme, simplified).

use crate::env::Env;
use crate::ikey::{self, compare_internal};
use crate::wal::{LogReader, LogWriter};
use crate::zonemap::ZoneEntry;
use ldbpp_common::coding::{
    get_length_prefixed, get_varint32, get_varint64, put_length_prefixed, put_varint32,
    put_varint64,
};
use ldbpp_common::{Error, Result};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// File names
// ---------------------------------------------------------------------------

/// `<db>/NNNNNN.ldb`
pub fn table_file_name(db: &str, number: u64) -> String {
    format!("{db}/{number:06}.ldb")
}

/// `<db>/NNNNNN.log`
pub fn log_file_name(db: &str, number: u64) -> String {
    format!("{db}/{number:06}.log")
}

/// `<db>/MANIFEST-NNNNNN`
pub fn manifest_file_name(db: &str, number: u64) -> String {
    format!("{db}/MANIFEST-{number:06}")
}

/// `<db>/CURRENT`
pub fn current_file_name(db: &str) -> String {
    format!("{db}/CURRENT")
}

/// `<db>/CURRENT.tmp` — staging file for atomic CURRENT installs.
pub fn current_tmp_file_name(db: &str) -> String {
    format!("{db}/CURRENT.tmp")
}

/// Point CURRENT at `MANIFEST-<manifest_number>`.
///
/// Written to a temporary file first and renamed into place, so a crash
/// between the two steps leaves the old CURRENT intact (still naming a
/// complete, replayable manifest) plus an orphan `CURRENT.tmp` that the next
/// open garbage-collects.
pub(crate) fn install_current(env: &dyn Env, dbname: &str, manifest_number: u64) -> Result<()> {
    let tmp = current_tmp_file_name(dbname);
    env.write_all(&tmp, format!("MANIFEST-{manifest_number:06}\n").as_bytes())?;
    env.rename(&tmp, &current_file_name(dbname))
}

// ---------------------------------------------------------------------------
// File metadata
// ---------------------------------------------------------------------------

/// Metadata for one live SSTable.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMetaData {
    /// File number (names the file on disk).
    pub number: u64,
    /// Size in bytes.
    pub file_size: u64,
    /// Number of entries.
    pub num_entries: u64,
    /// Number of data blocks.
    pub num_blocks: u64,
    /// Smallest internal key in the file.
    pub smallest: Vec<u8>,
    /// Largest internal key in the file.
    pub largest: Vec<u8>,
    /// File-level zone map per embedded secondary attribute. Checked before
    /// opening the file at all ("we also store one zone map for each SSTable
    /// file, in a global metadata file" — paper §3).
    pub sec_file_zones: Vec<(String, ZoneEntry)>,
}

impl FileMetaData {
    /// Whether `[smallest, largest]` user-key range may contain `user_key`.
    pub fn may_contain_user_key(&self, user_key: &[u8]) -> bool {
        ikey::user_key(&self.smallest) <= user_key && user_key <= ikey::user_key(&self.largest)
    }

    /// Whether this file's user-key range overlaps `[lo, hi]` (inclusive).
    pub fn overlaps_user_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        ikey::user_key(&self.largest) >= lo && ikey::user_key(&self.smallest) <= hi
    }

    /// File-level zone entry for `attr`, if recorded.
    pub fn file_zone(&self, attr: &str) -> Option<&ZoneEntry> {
        self.sec_file_zones
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, z)| z)
    }

    fn encode_to(&self, out: &mut Vec<u8>) {
        put_varint64(out, self.number);
        put_varint64(out, self.file_size);
        put_varint64(out, self.num_entries);
        put_varint64(out, self.num_blocks);
        put_length_prefixed(out, &self.smallest);
        put_length_prefixed(out, &self.largest);
        put_varint32(out, self.sec_file_zones.len() as u32);
        for (attr, zone) in &self.sec_file_zones {
            put_length_prefixed(out, attr.as_bytes());
            let mut z = Vec::new();
            zone.encode(&mut z);
            put_length_prefixed(out, &z);
        }
    }

    fn decode_from(src: &[u8]) -> Result<(FileMetaData, usize)> {
        let mut pos = 0;
        let (number, n) = get_varint64(&src[pos..])?;
        pos += n;
        let (file_size, n) = get_varint64(&src[pos..])?;
        pos += n;
        let (num_entries, n) = get_varint64(&src[pos..])?;
        pos += n;
        let (num_blocks, n) = get_varint64(&src[pos..])?;
        pos += n;
        let (smallest, n) = get_length_prefixed(&src[pos..])?;
        pos += n;
        let (largest, n) = get_length_prefixed(&src[pos..])?;
        pos += n;
        let (zone_count, n) = get_varint32(&src[pos..])?;
        pos += n;
        let mut sec_file_zones = Vec::with_capacity(zone_count as usize);
        for _ in 0..zone_count {
            let (attr, n) = get_length_prefixed(&src[pos..])?;
            pos += n;
            let (zdata, n) = get_length_prefixed(&src[pos..])?;
            pos += n;
            let (zone, _) = ZoneEntry::decode(zdata)?;
            let attr = String::from_utf8(attr.to_vec())
                .map_err(|_| Error::corruption("bad attr name in manifest"))?;
            sec_file_zones.push((attr, zone));
        }
        Ok((
            FileMetaData {
                number,
                file_size,
                num_entries,
                num_blocks,
                smallest: smallest.to_vec(),
                largest: largest.to_vec(),
                sec_file_zones,
            },
            pos,
        ))
    }
}

// ---------------------------------------------------------------------------
// Version
// ---------------------------------------------------------------------------

/// An immutable snapshot of the LSM tree shape.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `files[level]` — L0 ordered newest-first (by file number), deeper
    /// levels ordered by smallest key with disjoint ranges.
    pub files: Vec<Vec<Arc<FileMetaData>>>,
}

impl Version {
    /// An empty version with `num_levels` levels.
    pub fn new(num_levels: usize) -> Version {
        Version {
            files: vec![Vec::new(); num_levels],
        }
    }

    /// Number of levels configured.
    pub fn num_levels(&self) -> usize {
        self.files.len()
    }

    /// Index just past the deepest non-empty level (0 when empty).
    pub fn deepest_populated(&self) -> usize {
        self.files
            .iter()
            .rposition(|f| !f.is_empty())
            .map(|i| i + 1)
            .unwrap_or(0)
    }

    /// Total bytes in a level.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.files
            .get(level)
            .map(|fs| fs.iter().map(|f| f.file_size).sum())
            .unwrap_or(0)
    }

    /// Total bytes across all levels.
    pub fn total_bytes(&self) -> u64 {
        (0..self.files.len()).map(|l| self.level_bytes(l)).sum()
    }

    /// Total file count.
    pub fn num_files(&self) -> usize {
        self.files.iter().map(|f| f.len()).sum()
    }

    /// Files in `level` whose range may contain `user_key`. For L0 this may
    /// be several files (ordered newest-first); for deeper levels at most
    /// one.
    pub fn files_for_key(&self, level: usize, user_key: &[u8]) -> Vec<Arc<FileMetaData>> {
        match self.files.get(level) {
            None => Vec::new(),
            Some(files) if level == 0 => files
                .iter()
                .filter(|f| f.may_contain_user_key(user_key))
                .cloned()
                .collect(),
            Some(files) => {
                // Binary search on disjoint sorted ranges.
                let idx = files.partition_point(|f| ikey::user_key(&f.largest) < user_key);
                match files.get(idx) {
                    Some(f) if f.may_contain_user_key(user_key) => vec![Arc::clone(f)],
                    _ => Vec::new(),
                }
            }
        }
    }

    /// Files in `level` overlapping the user-key range `[lo, hi]`.
    pub fn overlapping_files(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<FileMetaData>> {
        self.files
            .get(level)
            .map(|files| {
                files
                    .iter()
                    .filter(|f| f.overlaps_user_range(lo, hi))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True if no file in any level deeper than `level` overlaps `user_key`
    /// — the tombstone-drop test during compaction.
    pub fn is_base_level_for_key(&self, level: usize, user_key: &[u8]) -> bool {
        for deeper in (level + 1)..self.files.len() {
            if !self.files_for_key(deeper, user_key).is_empty() {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// VersionEdit
// ---------------------------------------------------------------------------

const TAG_LOG_NUMBER: u32 = 1;
const TAG_NEXT_FILE: u32 = 2;
const TAG_LAST_SEQ: u32 = 3;
const TAG_COMPACT_POINTER: u32 = 4;
const TAG_DELETED_FILE: u32 = 5;
const TAG_NEW_FILE: u32 = 6;
const TAG_ERASED_KEYS: u32 = 7;
const TAG_FLUSHED_SEQ: u32 = 8;

/// A delta between two versions, logged to the MANIFEST.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionEdit {
    /// New WAL file number (older logs are obsolete).
    pub log_number: Option<u64>,
    /// High-water mark for file numbers.
    pub next_file_number: Option<u64>,
    /// Last sequence number used.
    pub last_sequence: Option<u64>,
    /// Cumulative count of user keys whose entire history has been erased
    /// by base-level compaction (newest record was a tombstone). Monotone;
    /// consumed by the integrity checker to decide whether a dangling
    /// secondary-index entry is provably corruption or merely stale.
    pub erased_keys: Option<u64>,
    /// Largest sequence number whose operations on this tree are all in
    /// its tables. A tree fed by another table's commit log (a stand-alone
    /// index) replays only operations above it, so a log record is never
    /// applied twice however flushes and crashes interleave.
    pub flushed_seq: Option<u64>,
    /// Round-robin compaction cursors: (level, largest key compacted).
    pub compact_pointers: Vec<(usize, Vec<u8>)>,
    /// Files removed: (level, file number).
    pub deleted_files: Vec<(usize, u64)>,
    /// Files added: (level, metadata).
    pub new_files: Vec<(usize, FileMetaData)>,
}

impl VersionEdit {
    /// Record a new file.
    pub fn add_file(&mut self, level: usize, meta: FileMetaData) {
        self.new_files.push((level, meta));
    }

    /// Record a deletion.
    pub fn delete_file(&mut self, level: usize, number: u64) {
        self.deleted_files.push((level, number));
    }

    /// Serialize for the MANIFEST.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            put_varint32(&mut out, TAG_LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint32(&mut out, TAG_NEXT_FILE);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint32(&mut out, TAG_LAST_SEQ);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.erased_keys {
            put_varint32(&mut out, TAG_ERASED_KEYS);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.flushed_seq {
            put_varint32(&mut out, TAG_FLUSHED_SEQ);
            put_varint64(&mut out, v);
        }
        for (level, key) in &self.compact_pointers {
            put_varint32(&mut out, TAG_COMPACT_POINTER);
            put_varint32(&mut out, *level as u32);
            put_length_prefixed(&mut out, key);
        }
        for (level, number) in &self.deleted_files {
            put_varint32(&mut out, TAG_DELETED_FILE);
            put_varint32(&mut out, *level as u32);
            put_varint64(&mut out, *number);
        }
        for (level, meta) in &self.new_files {
            put_varint32(&mut out, TAG_NEW_FILE);
            put_varint32(&mut out, *level as u32);
            meta.encode_to(&mut out);
        }
        out
    }

    /// Parse a MANIFEST record.
    pub fn decode(src: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        let mut pos = 0;
        while pos < src.len() {
            let (tag, n) = get_varint32(&src[pos..])?;
            pos += n;
            match tag {
                TAG_LOG_NUMBER => {
                    let (v, n) = get_varint64(&src[pos..])?;
                    pos += n;
                    edit.log_number = Some(v);
                }
                TAG_NEXT_FILE => {
                    let (v, n) = get_varint64(&src[pos..])?;
                    pos += n;
                    edit.next_file_number = Some(v);
                }
                TAG_LAST_SEQ => {
                    let (v, n) = get_varint64(&src[pos..])?;
                    pos += n;
                    edit.last_sequence = Some(v);
                }
                TAG_ERASED_KEYS => {
                    let (v, n) = get_varint64(&src[pos..])?;
                    pos += n;
                    edit.erased_keys = Some(v);
                }
                TAG_FLUSHED_SEQ => {
                    let (v, n) = get_varint64(&src[pos..])?;
                    pos += n;
                    edit.flushed_seq = Some(v);
                }
                TAG_COMPACT_POINTER => {
                    let (level, n) = get_varint32(&src[pos..])?;
                    pos += n;
                    let (key, n) = get_length_prefixed(&src[pos..])?;
                    pos += n;
                    edit.compact_pointers.push((level as usize, key.to_vec()));
                }
                TAG_DELETED_FILE => {
                    let (level, n) = get_varint32(&src[pos..])?;
                    pos += n;
                    let (number, n) = get_varint64(&src[pos..])?;
                    pos += n;
                    edit.deleted_files.push((level as usize, number));
                }
                TAG_NEW_FILE => {
                    let (level, n) = get_varint32(&src[pos..])?;
                    pos += n;
                    let (meta, n) = FileMetaData::decode_from(&src[pos..])?;
                    pos += n;
                    edit.new_files.push((level as usize, meta));
                }
                _ => return Err(Error::corruption(format!("bad version edit tag {tag}"))),
            }
        }
        Ok(edit)
    }
}

// ---------------------------------------------------------------------------
// VersionSet
// ---------------------------------------------------------------------------

/// Owns the current [`Version`], the MANIFEST, and the file/sequence
/// counters.
pub struct VersionSet {
    env: Arc<dyn Env>,
    dbname: String,
    num_levels: usize,
    current: Arc<Version>,
    manifest: LogWriter,
    /// Next file number to hand out.
    pub next_file_number: u64,
    /// Last sequence number assigned to a write.
    pub last_sequence: u64,
    /// Current WAL file number.
    pub log_number: u64,
    /// Cumulative count of user keys fully erased at the base level (see
    /// [`VersionEdit::erased_keys`]). Persisted with every edit.
    pub erased_keys: u64,
    /// See [`VersionEdit::flushed_seq`]. Persisted with every edit; a
    /// MANIFEST written before the field existed recovers it as
    /// `last_sequence` (such a tree was flushed whole by its own recovery).
    pub flushed_seq: u64,
    /// Round-robin compaction cursors per level.
    pub compact_pointer: Vec<Vec<u8>>,
    /// Number of the MANIFEST file currently being appended to.
    manifest_number: u64,
    /// MANIFEST version edits applied by [`VersionSet::recover`] (0 for a
    /// freshly created database) — surfaced as `IoStats::manifest_replays`.
    pub recovered_edits: u64,
}

impl VersionSet {
    /// Create a brand-new database state (writes MANIFEST + CURRENT).
    pub fn create(env: Arc<dyn Env>, dbname: &str, num_levels: usize) -> Result<VersionSet> {
        env.mkdir_all(dbname)?;
        let manifest_number = 1u64;
        let manifest_path = manifest_file_name(dbname, manifest_number);
        let mut manifest = LogWriter::new(env.new_writable(&manifest_path)?);
        let edit = VersionEdit {
            log_number: Some(2),
            next_file_number: Some(3),
            last_sequence: Some(0),
            ..Default::default()
        };
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        install_current(env.as_ref(), dbname, manifest_number)?;
        Ok(VersionSet {
            env,
            dbname: dbname.to_string(),
            num_levels,
            current: Arc::new(Version::new(num_levels)),
            manifest,
            next_file_number: 3,
            last_sequence: 0,
            log_number: 2,
            erased_keys: 0,
            flushed_seq: 0,
            compact_pointer: vec![Vec::new(); num_levels],
            manifest_number,
            recovered_edits: 0,
        })
    }

    /// Recover database state from CURRENT + MANIFEST.
    pub fn recover(env: Arc<dyn Env>, dbname: &str, num_levels: usize) -> Result<VersionSet> {
        let current = env.read_all(&current_file_name(dbname))?;
        let manifest_name = std::str::from_utf8(&current)
            .map_err(|_| Error::corruption("bad CURRENT"))?
            .trim();
        let manifest_path = format!("{dbname}/{manifest_name}");
        let data = env.read_all(&manifest_path)?;
        let mut reader = LogReader::new(&data);

        let mut version = Version::new(num_levels);
        let mut next_file_number = 3;
        let mut last_sequence = 0;
        let mut log_number = 2;
        let mut erased_keys = 0;
        let mut flushed_seq = None;
        let mut compact_pointer = vec![Vec::new(); num_levels];
        let mut recovered_edits = 0u64;
        while let Some(record) = reader.read_record()? {
            recovered_edits += 1;
            let edit = VersionEdit::decode(&record)?;
            version = apply_edit(&version, &edit, num_levels)?;
            if let Some(v) = edit.next_file_number {
                next_file_number = v;
            }
            if let Some(v) = edit.last_sequence {
                last_sequence = v;
            }
            if let Some(v) = edit.log_number {
                log_number = v;
            }
            if let Some(v) = edit.erased_keys {
                erased_keys = v;
            }
            if edit.flushed_seq.is_some() {
                flushed_seq = edit.flushed_seq;
            }
            for (level, key) in edit.compact_pointers {
                if level < num_levels {
                    compact_pointer[level] = key;
                }
            }
        }

        let flushed_seq = flushed_seq.unwrap_or(last_sequence);

        // Re-open the manifest for appending: rewrite a fresh manifest with
        // a snapshot edit (simpler than appending to the old one).
        let manifest_number = next_file_number;
        let next_file_number = next_file_number + 1;
        let manifest_path = manifest_file_name(dbname, manifest_number);
        let mut manifest = LogWriter::new(env.new_writable(&manifest_path)?);
        let mut snapshot = VersionEdit {
            log_number: Some(log_number),
            next_file_number: Some(next_file_number),
            last_sequence: Some(last_sequence),
            erased_keys: Some(erased_keys),
            flushed_seq: Some(flushed_seq),
            ..Default::default()
        };
        for (level, files) in version.files.iter().enumerate() {
            for f in files {
                snapshot.new_files.push((level, (**f).clone()));
            }
        }
        for (level, key) in compact_pointer.iter().enumerate() {
            if !key.is_empty() {
                snapshot.compact_pointers.push((level, key.clone()));
            }
        }
        manifest.add_record(&snapshot.encode())?;
        manifest.sync()?;
        install_current(env.as_ref(), dbname, manifest_number)?;

        Ok(VersionSet {
            env,
            dbname: dbname.to_string(),
            num_levels,
            current: Arc::new(version),
            manifest,
            next_file_number,
            last_sequence,
            log_number,
            erased_keys,
            flushed_seq,
            compact_pointer,
            manifest_number,
            recovered_edits,
        })
    }

    /// The live version.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// Allocate a fresh file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Apply an edit: log it to the MANIFEST and install the new version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<()> {
        edit.next_file_number = Some(self.next_file_number);
        edit.last_sequence = Some(self.last_sequence);
        edit.erased_keys = Some(self.erased_keys);
        edit.flushed_seq = Some(self.flushed_seq);
        if edit.log_number.is_none() {
            edit.log_number = Some(self.log_number);
        }
        let new_version = apply_edit(&self.current, &edit, self.num_levels)?;
        self.manifest.add_record(&edit.encode())?;
        self.manifest.sync()?;
        for (level, key) in &edit.compact_pointers {
            if *level < self.num_levels {
                self.compact_pointer[*level] = key.clone();
            }
        }
        if let Some(v) = edit.log_number {
            self.log_number = v;
        }
        self.current = Arc::new(new_version);
        Ok(())
    }

    /// Names of all live table files (for garbage collection).
    pub fn live_files(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for files in &self.current.files {
            for f in files {
                out.push(f.number);
            }
        }
        out
    }

    /// The database directory name this set manages.
    pub fn dbname(&self) -> &str {
        &self.dbname
    }

    /// Number of the MANIFEST file currently in use (older `MANIFEST-*`
    /// files are garbage).
    pub fn manifest_number(&self) -> u64 {
        self.manifest_number
    }

    /// The environment backing this set.
    pub fn env(&self) -> &Arc<dyn Env> {
        &self.env
    }
}

/// Pure-functionally apply `edit` to `base`.
fn apply_edit(base: &Version, edit: &VersionEdit, num_levels: usize) -> Result<Version> {
    let mut files = base.files.clone();
    files.resize(num_levels, Vec::new());
    for (level, number) in &edit.deleted_files {
        if *level >= files.len() {
            return Err(Error::corruption("delete beyond max level"));
        }
        let before = files[*level].len();
        files[*level].retain(|f| f.number != *number);
        if files[*level].len() == before {
            return Err(Error::corruption(format!(
                "deleted file {number} not in level {level}"
            )));
        }
    }
    for (level, meta) in &edit.new_files {
        if *level >= files.len() {
            return Err(Error::corruption("add beyond max level"));
        }
        files[*level].push(Arc::new(meta.clone()));
    }
    // L0: newest file first. Deeper levels: sorted by smallest key.
    files[0].sort_by_key(|f| std::cmp::Reverse(f.number));
    for level_files in files.iter_mut().skip(1) {
        level_files.sort_by(|a, b| compare_internal(&a.smallest, &b.smallest));
    }
    Ok(Version { files })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;
    use crate::ikey::{InternalKey, ValueType};

    fn meta(number: u64, lo: &[u8], hi: &[u8]) -> FileMetaData {
        FileMetaData {
            number,
            file_size: 1000,
            num_entries: 10,
            num_blocks: 2,
            smallest: InternalKey::new(lo, 100, ValueType::Value).0,
            largest: InternalKey::new(hi, 1, ValueType::Value).0,
            sec_file_zones: vec![("CreationTime".to_string(), {
                let mut z = ZoneEntry::new();
                z.update(&crate::attr::AttrValue::Int(number as i64 * 100));
                z
            })],
        }
    }

    #[test]
    fn edit_roundtrip() {
        let mut edit = VersionEdit {
            log_number: Some(7),
            next_file_number: Some(12),
            last_sequence: Some(999),
            ..Default::default()
        };
        edit.compact_pointers.push((2, b"ptr".to_vec()));
        edit.delete_file(1, 4);
        edit.add_file(2, meta(9, b"a", b"m"));
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
    }

    #[test]
    fn edit_decode_rejects_bad_tag() {
        assert!(VersionEdit::decode(&[99]).is_err());
    }

    #[test]
    fn version_queries() {
        let mut v = Version::new(4);
        v.files[0] = vec![Arc::new(meta(5, b"a", b"z")), Arc::new(meta(3, b"c", b"f"))];
        v.files[1] = vec![Arc::new(meta(1, b"a", b"c")), Arc::new(meta(2, b"d", b"f"))];

        // L0: all overlapping files.
        let hits = v.files_for_key(0, b"d");
        assert_eq!(hits.len(), 2);
        let hits = v.files_for_key(0, b"b");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].number, 5);

        // L1: binary search.
        let hits = v.files_for_key(1, b"e");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].number, 2);
        assert!(v.files_for_key(1, b"x").is_empty());
        assert!(v.files_for_key(9, b"a").is_empty());

        // Range overlap.
        let hits = v.overlapping_files(1, b"b", b"d");
        assert_eq!(hits.len(), 2);
        let hits = v.overlapping_files(1, b"g", b"z");
        assert!(hits.is_empty());

        // Byte accounting.
        assert_eq!(v.level_bytes(0), 2000);
        assert_eq!(v.total_bytes(), 4000);
        assert_eq!(v.num_files(), 4);
        assert_eq!(v.deepest_populated(), 2);

        // Base-level check.
        assert!(!v.is_base_level_for_key(0, b"e"));
        assert!(v.is_base_level_for_key(1, b"e"));
        assert!(v.is_base_level_for_key(0, b"zz"));
    }

    #[test]
    fn create_and_reapply() {
        let env = MemEnv::new();
        let mut vs = VersionSet::create(env.clone(), "db", 7).unwrap();
        assert_eq!(vs.current().num_files(), 0);

        let mut edit = VersionEdit::default();
        edit.add_file(0, meta(10, b"a", b"m"));
        vs.last_sequence = 50;
        vs.log_and_apply(edit).unwrap();
        assert_eq!(vs.current().num_files(), 1);

        let mut edit = VersionEdit::default();
        edit.delete_file(0, 10);
        edit.add_file(1, meta(11, b"a", b"m"));
        vs.log_and_apply(edit).unwrap();
        let v = vs.current();
        assert!(v.files[0].is_empty());
        assert_eq!(v.files[1].len(), 1);
        assert_eq!(vs.live_files(), vec![11]);
    }

    #[test]
    fn recover_restores_state() {
        let env = MemEnv::new();
        {
            let mut vs = VersionSet::create(env.clone(), "db", 7).unwrap();
            let mut edit = VersionEdit::default();
            edit.add_file(0, meta(10, b"a", b"m"));
            edit.add_file(1, meta(11, b"n", b"z"));
            edit.compact_pointers.push((1, b"q".to_vec()));
            vs.last_sequence = 123;
            vs.next_file_number = 20;
            vs.log_and_apply(edit).unwrap();
        }
        let vs = VersionSet::recover(env.clone(), "db", 7).unwrap();
        assert_eq!(vs.last_sequence, 123);
        assert!(vs.next_file_number > 20);
        let v = vs.current();
        assert_eq!(v.files[0].len(), 1);
        assert_eq!(v.files[1].len(), 1);
        assert_eq!(vs.compact_pointer[1], b"q".to_vec());
        // File-level zone maps survive recovery.
        assert!(v.files[1][0].file_zone("CreationTime").is_some());
    }

    #[test]
    fn recover_twice_is_stable() {
        let env = MemEnv::new();
        {
            let mut vs = VersionSet::create(env.clone(), "db", 7).unwrap();
            let mut edit = VersionEdit::default();
            edit.add_file(2, meta(10, b"a", b"m"));
            vs.log_and_apply(edit).unwrap();
        }
        let _ = VersionSet::recover(env.clone(), "db", 7).unwrap();
        let vs2 = VersionSet::recover(env.clone(), "db", 7).unwrap();
        assert_eq!(vs2.current().files[2].len(), 1);
    }

    #[test]
    fn apply_edit_rejects_phantom_delete() {
        let base = Version::new(3);
        let mut edit = VersionEdit::default();
        edit.delete_file(0, 42);
        assert!(apply_edit(&base, &edit, 3).is_err());
    }

    #[test]
    fn file_name_helpers() {
        assert_eq!(table_file_name("db", 7), "db/000007.ldb");
        assert_eq!(log_file_name("db", 12), "db/000012.log");
        assert_eq!(manifest_file_name("db", 1), "db/MANIFEST-000001");
        assert_eq!(current_file_name("db"), "db/CURRENT");
    }
}
