//! Structural invariant checker: validates a database's on-disk and
//! in-memory structure against the invariants the engine relies on.
//!
//! [`Db::check_integrity`] walks the current version and reports every
//! violation it finds instead of stopping at the first, so a corrupted
//! database yields a full diagnosis in one pass. The catalogue:
//!
//! * **File set** — every file the version references exists with the
//!   recorded size ([`CheckCode::MissingFile`], [`CheckCode::FileSize`]);
//!   no unreferenced `.ldb` files linger ([`CheckCode::OrphanFile`]).
//! * **Level structure** — L0 ordered newest-first by file number, deeper
//!   levels ordered by smallest key with pairwise-disjoint user-key ranges
//!   ([`CheckCode::LevelOrder`], [`CheckCode::LevelOverlap`]).
//! * **Per-file deep check** — each table opens and all its blocks decode
//!   ([`CheckCode::TableUnreadable`]); entries are strictly ascending in
//!   internal-key order and agree with the index block
//!   ([`CheckCode::KeyOrder`]); the manifest metadata matches the actual
//!   smallest/largest keys, entry count and block count
//!   ([`CheckCode::FileBounds`], [`CheckCode::EntryCount`],
//!   [`CheckCode::BlockCount`]); no entry's sequence exceeds the
//!   database's last sequence ([`CheckCode::SequenceBeyondLast`]); every
//!   stored key passes its block's primary bloom filter and — when an
//!   extractor is configured — every value's indexed attributes pass the
//!   block/file/manifest secondary filters and zone maps
//!   ([`CheckCode::BloomFalseNegative`], [`CheckCode::ZoneMapLie`]).
//! * **Manifest agreement** — replaying `CURRENT` → `MANIFEST` from disk
//!   reproduces exactly the live version's file set
//!   ([`CheckCode::ManifestMismatch`]).
//!
//! The checker is meant for a quiesced database — freshly opened, or one
//! with no maintenance in flight. A concurrent compaction can legitimately
//! create not-yet-referenced output files or defer deletions for pinned
//! snapshots, which the file-set check would report as orphans.
//!
//! The comparison of each stand-alone index with its primary lives in
//! `ldbpp-core`, which knows the index encodings; it folds its findings
//! into the same [`IntegrityReport`] under [`CheckCode::IndexMismatch`].

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use crate::db::Db;
use crate::ikey::{self, compare_internal, ValueType};
use crate::table::ReadPurpose;
use crate::version::{current_file_name, table_file_name, FileMetaData, VersionEdit};
use crate::wal::LogReader;

/// The class of invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckCode {
    /// Files within a level are mis-ordered (L0 not newest-first, or a
    /// deeper level not ascending by smallest key).
    LevelOrder,
    /// Two files in the same L1+ level have overlapping user-key ranges.
    LevelOverlap,
    /// A file's recorded smallest/largest keys disagree with its contents.
    FileBounds,
    /// A file's recorded entry count disagrees with its contents.
    EntryCount,
    /// A file's recorded block count disagrees with its contents.
    BlockCount,
    /// A file's on-disk size disagrees with its recorded size.
    FileSize,
    /// The version references a file that does not exist.
    MissingFile,
    /// An unreferenced table file exists in the database directory.
    OrphanFile,
    /// Replaying the MANIFEST does not reproduce the live version.
    ManifestMismatch,
    /// An entry's sequence number exceeds the database's last sequence.
    SequenceBeyondLast,
    /// Entries out of internal-key order, duplicated, or unparsable; or
    /// the index block disagrees with a data block's contents.
    KeyOrder,
    /// A table or one of its blocks cannot be read or decoded.
    TableUnreadable,
    /// A stored key or attribute value fails its own bloom filter — reads
    /// would silently miss it.
    BloomFalseNegative,
    /// A stored attribute value falls outside its block, file, or
    /// manifest zone map — zone pruning would silently skip it.
    ZoneMapLie,
    /// A stand-alone index disagrees with its primary in a way that can
    /// change an answer: a live record without its posting, a current
    /// posting under the wrong value, or a posting newer than its record
    /// or than the last sequence (reported by `ldbpp-core`).
    IndexMismatch,
}

impl fmt::Display for CheckCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CheckCode::LevelOrder => "level-order",
            CheckCode::LevelOverlap => "level-overlap",
            CheckCode::FileBounds => "file-bounds",
            CheckCode::EntryCount => "entry-count",
            CheckCode::BlockCount => "block-count",
            CheckCode::FileSize => "file-size",
            CheckCode::MissingFile => "missing-file",
            CheckCode::OrphanFile => "orphan-file",
            CheckCode::ManifestMismatch => "manifest-mismatch",
            CheckCode::SequenceBeyondLast => "sequence-beyond-last",
            CheckCode::KeyOrder => "key-order",
            CheckCode::TableUnreadable => "table-unreadable",
            CheckCode::BloomFalseNegative => "bloom-false-negative",
            CheckCode::ZoneMapLie => "zone-map-lie",
            CheckCode::IndexMismatch => "index-mismatch",
        };
        f.pad(name)
    }
}

/// One broken invariant, with a human-readable diagnosis.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub code: CheckCode,
    /// What exactly is wrong (file, level, keys, expected vs. actual).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.detail)
    }
}

/// Everything [`Db::check_integrity`] found. Empty means the database
/// passed every check.
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
}

impl IntegrityReport {
    /// `true` when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when at least one violation carries `code`.
    pub fn has(&self, code: CheckCode) -> bool {
        self.violations.iter().any(|v| v.code == code)
    }

    /// Record a violation.
    pub fn push(&mut self, code: CheckCode, detail: impl Into<String>) {
        self.violations.push(Violation {
            code,
            detail: detail.into(),
        });
    }

    /// Fold another report into this one, prefixing each detail with
    /// `context` (used by `ldbpp-core` to merge per-index-table reports).
    pub fn merge(&mut self, context: &str, other: IntegrityReport) {
        for v in other.violations {
            self.violations.push(Violation {
                code: v.code,
                detail: format!("{context}: {}", v.detail),
            });
        }
    }
}

impl fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "integrity check: clean");
        }
        writeln!(f, "integrity check: {} violation(s)", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

fn fmt_key(key: &[u8]) -> String {
    match ikey::parse_internal_key(key) {
        Ok((uk, seq, t)) => format!("{:?}@{seq}:{t:?}", String::from_utf8_lossy(uk)),
        Err(_) => format!("<unparsable {key:02x?}>"),
    }
}

/// Per-run state: the report plus a `(file, code)` dedup set so one lying
/// zone map yields one violation, not one per entry.
struct Checker {
    report: IntegrityReport,
    seen: HashSet<(u64, CheckCode)>,
}

impl Checker {
    fn file_violation(&mut self, file: u64, code: CheckCode, detail: String) {
        if self.seen.insert((file, code)) {
            self.report.push(code, detail);
        }
    }
}

/// Run every structural check against `db`. Never fails: read errors
/// become [`CheckCode::TableUnreadable`] violations in the report.
#[must_use = "the report lists violations; ignoring it defeats the check"]
pub fn check_db(db: &Db) -> IntegrityReport {
    let mut ck = Checker {
        report: IntegrityReport::default(),
        seen: HashSet::new(),
    };
    let version = db.current_version();
    let last_seq = db.last_sequence();
    let env = db.env();
    let name = db.name();

    // -- File set: every referenced file exists at its recorded size. -------
    let mut live: BTreeSet<u64> = BTreeSet::new();
    for files in &version.files {
        for meta in files {
            live.insert(meta.number);
            let path = table_file_name(name, meta.number);
            if !env.exists(&path) {
                ck.report.push(
                    CheckCode::MissingFile,
                    format!("version references {path}, which does not exist"),
                );
            } else {
                match env.file_size(&path) {
                    Ok(size) if size != meta.file_size => ck.report.push(
                        CheckCode::FileSize,
                        format!(
                            "{path} is {size} bytes on disk but the manifest \
                             records {}",
                            meta.file_size
                        ),
                    ),
                    Ok(_) => {}
                    Err(e) => ck.report.push(
                        CheckCode::TableUnreadable,
                        format!("cannot stat {path}: {e}"),
                    ),
                }
            }
        }
    }
    match env.list(name) {
        Ok(entries) => {
            for entry in entries {
                if let Some(stem) = entry.strip_suffix(".ldb") {
                    match stem.parse::<u64>() {
                        Ok(n) if live.contains(&n) => {}
                        Ok(n) => ck.report.push(
                            CheckCode::OrphanFile,
                            format!("{name}/{entry} (file {n}) is not referenced by the version"),
                        ),
                        Err(_) => ck.report.push(
                            CheckCode::OrphanFile,
                            format!("{name}/{entry} has an unparsable table file name"),
                        ),
                    }
                }
            }
        }
        Err(e) => ck.report.push(
            CheckCode::TableUnreadable,
            format!("cannot list {name}: {e}"),
        ),
    }

    // -- Level structure: ordering and disjointness. ------------------------
    for (level, files) in version.files.iter().enumerate() {
        for meta in files {
            if compare_internal(&meta.smallest, &meta.largest).is_gt() {
                ck.report.push(
                    CheckCode::FileBounds,
                    format!(
                        "L{level} file {}: smallest {} sorts after largest {}",
                        meta.number,
                        fmt_key(&meta.smallest),
                        fmt_key(&meta.largest)
                    ),
                );
            }
        }
        for pair in files.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if level == 0 {
                if a.number <= b.number {
                    ck.report.push(
                        CheckCode::LevelOrder,
                        format!(
                            "L0 not newest-first: file {} listed before file {}",
                            a.number, b.number
                        ),
                    );
                }
            } else {
                if compare_internal(&a.smallest, &b.smallest).is_ge() {
                    ck.report.push(
                        CheckCode::LevelOrder,
                        format!(
                            "L{level} not ascending: file {} ({}) listed before \
                             file {} ({})",
                            a.number,
                            fmt_key(&a.smallest),
                            b.number,
                            fmt_key(&b.smallest)
                        ),
                    );
                }
                if ikey::user_key(&a.largest) >= ikey::user_key(&b.smallest) {
                    ck.report.push(
                        CheckCode::LevelOverlap,
                        format!(
                            "L{level} files {} and {} overlap: {} is not below {}",
                            a.number,
                            b.number,
                            fmt_key(&a.largest),
                            fmt_key(&b.smallest)
                        ),
                    );
                }
            }
        }
    }

    // -- Per-file deep check. -----------------------------------------------
    for (level, files) in version.files.iter().enumerate() {
        for meta in files {
            if !env.exists(&table_file_name(name, meta.number)) {
                continue; // already reported as MissingFile
            }
            check_file(&mut ck, db, level, meta, last_seq);
        }
    }

    // -- Manifest agreement. ------------------------------------------------
    check_manifest(&mut ck.report, db, &version.files, last_seq);

    ck.report
}

/// Deep-check one table file against its manifest metadata.
fn check_file(ck: &mut Checker, db: &Db, level: usize, meta: &FileMetaData, last_seq: u64) {
    let fileno = meta.number;
    let table = match db.open_table(meta) {
        Ok(t) => t,
        Err(e) => {
            ck.file_violation(
                fileno,
                CheckCode::TableUnreadable,
                format!("L{level} file {fileno}: cannot open: {e}"),
            );
            return;
        }
    };
    if table.num_blocks() as u64 != meta.num_blocks {
        ck.file_violation(
            fileno,
            CheckCode::BlockCount,
            format!(
                "L{level} file {fileno}: {} data blocks on disk but the \
                 manifest records {}",
                table.num_blocks(),
                meta.num_blocks
            ),
        );
    }

    let extractor = db.options().extractor.clone();
    let attrs: Vec<String> = table.secondary_attrs().map(String::from).collect();

    let mut prev_key: Option<Vec<u8>> = None;
    let mut first_key: Option<Vec<u8>> = None;
    let mut entries: u64 = 0;
    for i in 0..table.num_blocks() {
        let block = match table.read_data_block(i, ReadPurpose::Compaction) {
            Ok(b) => b,
            Err(e) => {
                ck.file_violation(
                    fileno,
                    CheckCode::TableUnreadable,
                    format!("L{level} file {fileno}: cannot read block {i}: {e}"),
                );
                return; // counts below would be meaningless
            }
        };
        let mut it = block.iter(compare_internal);
        it.seek_to_first();
        let mut block_last: Option<Vec<u8>> = None;
        while it.valid() {
            let key = it.key().to_vec();
            entries += 1;
            if let Some(prev) = &prev_key {
                if compare_internal(prev, &key).is_ge() {
                    ck.file_violation(
                        fileno,
                        CheckCode::KeyOrder,
                        format!(
                            "L{level} file {fileno} block {i}: {} does not sort \
                             after {}",
                            fmt_key(&key),
                            fmt_key(prev)
                        ),
                    );
                }
            }
            match ikey::parse_internal_key(&key) {
                Ok((uk, seq, vtype)) => {
                    if seq > last_seq {
                        ck.file_violation(
                            fileno,
                            CheckCode::SequenceBeyondLast,
                            format!(
                                "L{level} file {fileno} block {i}: entry {} has \
                                 sequence {seq} beyond the database's last \
                                 sequence {last_seq}",
                                fmt_key(&key)
                            ),
                        );
                    }
                    if !table.primary_may_contain_block(i, uk) {
                        ck.file_violation(
                            fileno,
                            CheckCode::BloomFalseNegative,
                            format!(
                                "L{level} file {fileno} block {i}: stored key {} \
                                 fails the block's primary bloom filter",
                                fmt_key(&key)
                            ),
                        );
                    }
                    if vtype == ValueType::Value {
                        if let Some(extractor) = &extractor {
                            check_entry_zones(
                                ck,
                                &table,
                                meta,
                                level,
                                i,
                                &key,
                                it.value(),
                                &attrs,
                                extractor.as_ref(),
                            );
                        }
                    }
                }
                Err(_) => {
                    ck.file_violation(
                        fileno,
                        CheckCode::KeyOrder,
                        format!(
                            "L{level} file {fileno} block {i}: unparsable \
                             internal key {:02x?}",
                            &key
                        ),
                    );
                }
            }
            if first_key.is_none() {
                first_key = Some(key.clone());
            }
            block_last = Some(key.clone());
            prev_key = Some(key);
            it.next();
        }
        // The in-memory index block must name this block's actual last key.
        if let (Some(last), Some(idx_uk)) = (&block_last, table.block_last_user_key(i)) {
            if ikey::user_key(last) != idx_uk {
                ck.file_violation(
                    fileno,
                    CheckCode::KeyOrder,
                    format!(
                        "L{level} file {fileno} block {i}: index block records \
                         last user key {:?} but the block ends at {}",
                        String::from_utf8_lossy(idx_uk),
                        fmt_key(last)
                    ),
                );
            }
        }
    }

    if entries != meta.num_entries {
        ck.file_violation(
            fileno,
            CheckCode::EntryCount,
            format!(
                "L{level} file {fileno}: {entries} entries on disk but the \
                 manifest records {}",
                meta.num_entries
            ),
        );
    }
    if let Some(first) = &first_key {
        if first != &meta.smallest {
            ck.file_violation(
                fileno,
                CheckCode::FileBounds,
                format!(
                    "L{level} file {fileno}: first key {} but the manifest \
                     records smallest {}",
                    fmt_key(first),
                    fmt_key(&meta.smallest)
                ),
            );
        }
    }
    if let Some(last) = &prev_key {
        if last != &meta.largest {
            ck.file_violation(
                fileno,
                CheckCode::FileBounds,
                format!(
                    "L{level} file {fileno}: last key {} but the manifest \
                     records largest {}",
                    fmt_key(last),
                    fmt_key(&meta.largest)
                ),
            );
        }
    }
}

/// Check one Value entry's extracted attributes against every secondary
/// structure that claims to cover it: block bloom, block zone, file zone,
/// and the manifest's file zone.
#[allow(clippy::too_many_arguments)] // a call-site-local helper, not API
fn check_entry_zones(
    ck: &mut Checker,
    table: &crate::table::Table,
    meta: &FileMetaData,
    level: usize,
    block: usize,
    key: &[u8],
    value: &[u8],
    attrs: &[String],
    extractor: &dyn crate::attr::AttrExtractor,
) {
    let fileno = meta.number;
    // One extraction per record for all attributes.
    for (attr, av) in attrs.iter().zip(extractor.extract_many(attrs, value)) {
        let Some(av) = av else {
            continue;
        };
        if !table.sec_may_contain(attr, &av, block) {
            ck.file_violation(
                fileno,
                CheckCode::BloomFalseNegative,
                format!(
                    "L{level} file {fileno} block {block}: entry {} has \
                     {attr}={av:?} but fails the block's secondary bloom filter",
                    fmt_key(key)
                ),
            );
        }
        if let Some(zone) = table.sec_zone(attr, block) {
            if !zone.may_contain(&av) {
                ck.file_violation(
                    fileno,
                    CheckCode::ZoneMapLie,
                    format!(
                        "L{level} file {fileno} block {block}: entry {} has \
                         {attr}={av:?} outside the block zone map",
                        fmt_key(key)
                    ),
                );
            }
        }
        if let Some(zone) = table.sec_file_zone(attr) {
            if !zone.may_contain(&av) {
                ck.file_violation(
                    fileno,
                    CheckCode::ZoneMapLie,
                    format!(
                        "L{level} file {fileno}: entry {} has {attr}={av:?} \
                         outside the file zone map",
                        fmt_key(key)
                    ),
                );
            }
        }
        if let Some(zone) = meta.file_zone(attr) {
            if !zone.may_contain(&av) {
                ck.file_violation(
                    fileno,
                    CheckCode::ZoneMapLie,
                    format!(
                        "L{level} file {fileno}: entry {} has {attr}={av:?} \
                         outside the manifest's file zone map",
                        fmt_key(key)
                    ),
                );
            }
        }
    }
}

/// Replay `CURRENT` → `MANIFEST` from disk and compare the resulting
/// file set (and last sequence) with the live version.
fn check_manifest(
    report: &mut IntegrityReport,
    db: &Db,
    live: &[Vec<std::sync::Arc<FileMetaData>>],
    last_seq: u64,
) {
    let env = db.env();
    let name = db.name();
    let current = match env.read_all(&current_file_name(name)) {
        Ok(c) => c,
        Err(e) => {
            report.push(
                CheckCode::ManifestMismatch,
                format!("cannot read {name}/CURRENT: {e}"),
            );
            return;
        }
    };
    let manifest_name = String::from_utf8_lossy(&current).trim().to_string();
    let manifest_path = format!("{name}/{manifest_name}");
    let data = match env.read_all(&manifest_path) {
        Ok(d) => d,
        Err(e) => {
            report.push(
                CheckCode::ManifestMismatch,
                format!("CURRENT names {manifest_path}, which cannot be read: {e}"),
            );
            return;
        }
    };

    let mut levels: Vec<BTreeSet<u64>> = Vec::new();
    let mut manifest_last_seq: Option<u64> = None;
    let mut reader = LogReader::new(&data);
    loop {
        let record = match reader.read_record() {
            Ok(Some(r)) => r,
            Ok(None) => break,
            Err(e) => {
                report.push(
                    CheckCode::ManifestMismatch,
                    format!("{manifest_path}: corrupt manifest record: {e}"),
                );
                return;
            }
        };
        let edit = match VersionEdit::decode(&record) {
            Ok(e) => e,
            Err(e) => {
                report.push(
                    CheckCode::ManifestMismatch,
                    format!("{manifest_path}: undecodable version edit: {e}"),
                );
                return;
            }
        };
        if let Some(s) = edit.last_sequence {
            manifest_last_seq = Some(s);
        }
        for (level, number) in &edit.deleted_files {
            let removed = levels.get_mut(*level).is_some_and(|l| l.remove(number));
            if !removed {
                report.push(
                    CheckCode::ManifestMismatch,
                    format!(
                        "{manifest_path}: edit deletes file {number} from \
                         L{level}, which does not hold it"
                    ),
                );
            }
        }
        for (level, meta) in &edit.new_files {
            if levels.len() <= *level {
                levels.resize_with(*level + 1, BTreeSet::new);
            }
            levels[*level].insert(meta.number);
        }
    }

    for level in 0..levels.len().max(live.len()) {
        let from_manifest = levels.get(level).cloned().unwrap_or_default();
        let from_version: BTreeSet<u64> = live
            .get(level)
            .map(|files| files.iter().map(|f| f.number).collect())
            .unwrap_or_default();
        if from_manifest != from_version {
            report.push(
                CheckCode::ManifestMismatch,
                format!(
                    "L{level}: manifest replay yields files {from_manifest:?} \
                     but the live version holds {from_version:?}"
                ),
            );
        }
    }
    if let Some(m) = manifest_last_seq {
        if m > last_seq {
            report.push(
                CheckCode::SequenceBeyondLast,
                format!(
                    "manifest records last sequence {m} beyond the live \
                     database's {last_seq}"
                ),
            );
        }
    }
}

impl Db {
    /// Run the full structural invariant catalogue against this database
    /// (see the [module docs](self) for what is checked). Intended for a
    /// quiesced database; never fails — read errors become
    /// [`CheckCode::TableUnreadable`] violations.
    #[must_use = "the report lists violations; ignoring it defeats the check"]
    pub fn check_integrity(&self) -> IntegrityReport {
        check_db(self)
    }
}
