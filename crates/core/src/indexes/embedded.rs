//! The Embedded Index (paper §3): no separate index structure.
//!
//! Secondary lookups scan the primary table level by level, pruning data
//! blocks with the in-memory per-block bloom filters and zone maps that the
//! table builder embedded into every SSTable. Matches are validated with
//! `GetLite` — a metadata-only check for newer versions above the match's
//! level — so a hit costs no extra data-block I/O (the record itself was
//! already read while scanning its block).
//!
//! For the memtable, an in-memory B-tree on `(attr value, pk)` is
//! maintained on every write and pruned down to the still-in-memory
//! entries whenever a memtable reaches L0 (SSTable filters take over from
//! there; with background flushes the entries frozen in the immutable
//! memtable stay until their flush installs).

use crate::doc::{extract_attr, Document};
use crate::indexes::{IndexKind, LookupHit, SecondaryIndex};
use crate::topk::TopK;
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::{Db, KeySource};
use ldbpp_lsm::env::IoStats;
use ldbpp_lsm::ikey::{compare_internal, parse_internal_key, ValueType};
use ldbpp_lsm::table::ReadPurpose;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};

struct MemIndex {
    generation: u64,
    /// (encoded attr value, pk) → seq of the insertion.
    map: BTreeMap<(Vec<u8>, Vec<u8>), u64>,
}

/// How Embedded-Index candidates are checked for staleness (an ablation
/// of the paper's §3 `GetLite` optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmbeddedValidation {
    /// The paper's `GetLite` (metadata-only, no data-block I/O), with a
    /// confirming newest-version probe when it answers "maybe newer" —
    /// bloom false positives then cost one extra read instead of silently
    /// dropping a valid result. This is the default.
    #[default]
    GetLiteConfirmed,
    /// The paper's `GetLite` verbatim: purely in-memory, so a bloom false
    /// positive *invalidates a valid match* (bounded by the filter's
    /// false-positive rate). Cheapest; slightly lossy.
    GetLiteOnly,
    /// Validate every candidate with a full newest-version probe (what a
    /// regular GET would do) — the unoptimized baseline the paper compares
    /// `GetLite` against ("we do not need to perform disk I/O, which a
    /// regular GET operation would do").
    FullGet,
}

/// The embedded (bloom filter + zone map) secondary index.
///
/// Concurrency note: the memtable-side B-tree is updated *after* the
/// primary write returns, so a lookup racing a put from another thread may
/// not yet see that put's newest version (bounded staleness, never
/// corruption). Writes from the observing thread are always visible.
pub struct EmbeddedIndex {
    attr: String,
    validation: EmbeddedValidation,
    mem: Mutex<MemIndex>,
}

struct Candidate {
    pk: Vec<u8>,
    doc: Document,
}

impl EmbeddedIndex {
    /// Create the in-memory side of an embedded index on `attr`. The
    /// on-disk side lives inside the primary table's SSTables, so the
    /// primary [`Db`] must have been opened with `attr` in
    /// `DbOptions::indexed_attrs`.
    pub fn new(attr: &str) -> EmbeddedIndex {
        EmbeddedIndex::with_validation(attr, EmbeddedValidation::default())
    }

    /// Like [`EmbeddedIndex::new`] with an explicit validation mode.
    pub fn with_validation(attr: &str, validation: EmbeddedValidation) -> EmbeddedIndex {
        EmbeddedIndex {
            attr: attr.to_string(),
            validation,
            mem: Mutex::new(MemIndex {
                generation: 0,
                map: BTreeMap::new(),
            }),
        }
    }

    fn sync_generation(&self, primary: &Db) {
        let gen = primary.mem_generation();
        let mut mem = self.mem.lock();
        if mem.generation != gen {
            // Entries at or below the flushed watermark are covered by the
            // SSTable-side filters now; anything newer is still in the
            // active (or frozen) memtable and must be kept — with
            // background flushes, writes keep landing while a freeze is in
            // flight.
            let flushed = primary.flushed_through();
            mem.map.retain(|_, seq| *seq > flushed);
            mem.generation = gen;
        }
    }

    /// Memtable-side candidates with encoded attr value in
    /// `[lo_enc, hi_enc]`, validated against the newest memtable version.
    /// Every admitted pk is recorded in `admitted` so the SSTable scan can
    /// skip it: with background flushes the same record can be installed
    /// as an L0 file between this pass and the version snapshot, and
    /// admitting both copies would return a duplicate hit.
    fn mem_candidates(
        &self,
        primary: &Db,
        lo_enc: &[u8],
        hi_enc: &[u8],
        heap: &mut TopK<Candidate>,
        admitted: &mut HashSet<Vec<u8>>,
    ) -> Result<()> {
        self.sync_generation(primary);
        let mem = self.mem.lock();
        let start = (lo_enc.to_vec(), Vec::new());
        for ((enc, pk), &seq) in mem.map.range(start..) {
            if enc.as_slice() > hi_enc {
                break;
            }
            if !heap.would_admit(seq) {
                continue;
            }
            // Valid iff this is still the newest version of pk (the
            // memtable is the newest source, so checking it suffices).
            match primary.mem_newest(pk) {
                Some((ValueType::Value, newest_seq)) if newest_seq == seq => {}
                _ => continue,
            }
            let Some(bytes) = primary.get(pk)? else {
                continue;
            };
            let doc = Document::parse(&bytes)?;
            if heap.add(
                seq,
                Candidate {
                    pk: pk.clone(),
                    doc,
                },
            ) {
                admitted.insert(pk.clone());
            }
        }
        Ok(())
    }

    /// The level-by-level scan shared by LOOKUP and RANGELOOKUP
    /// (Algorithms 5 and 8). `point` enables bloom-filter pruning (equality
    /// probes only); zone maps prune in both modes.
    fn scan(
        &self,
        primary: &Db,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
        point: bool,
    ) -> Result<Vec<LookupHit>> {
        let mut heap: TopK<Candidate> = TopK::new(k);
        let mut from_mem: HashSet<Vec<u8>> = HashSet::new();
        self.mem_candidates(
            primary,
            &lo.encode(),
            &hi.encode(),
            &mut heap,
            &mut from_mem,
        )?;
        // The memtable is "level −1": stop early if already satisfied.
        if heap.is_full() {
            return Ok(finish(heap));
        }

        let version = primary.current_version();
        let stats = primary.stats();
        for level in 0..version.num_levels() {
            if version.files[level].is_empty() {
                continue;
            }
            for file in &version.files[level] {
                // File-level zone map from the version metadata: prune the
                // whole file without opening it.
                if let Some(zone) = file.file_zone(&self.attr) {
                    if !zone.overlaps(lo, hi) {
                        IoStats::add(&stats.file_zonemap_prunes, 1);
                        continue;
                    }
                }
                let table = primary.open_table(file)?;
                let source = if level == 0 {
                    KeySource::L0File(file.number)
                } else {
                    KeySource::Level(level)
                };
                // Versions of one pk are contiguous in the file, newest
                // first; only the first version encountered counts. A
                // candidate whose pk also appears at the tail of the
                // previous (possibly pruned) block has a newer version
                // there, detected via the in-memory index keys.
                let mut seen_in_file: HashSet<Vec<u8>> = HashSet::new();
                for b in 0..table.num_blocks() {
                    if !table.sec_zone_overlaps(&self.attr, lo, hi, b) {
                        continue;
                    }
                    if point && !table.sec_may_contain(&self.attr, lo, b) {
                        continue;
                    }
                    let block = table.read_data_block(b, ReadPurpose::Query)?;
                    let mut it = block.iter(compare_internal);
                    it.seek_to_first();
                    while it.valid() {
                        let (uk, seq, vtype) = parse_internal_key(it.key())?;
                        let uk_owned = uk.to_vec();
                        let first_version_in_file = seen_in_file.insert(uk_owned.clone())
                            && !(b > 0 && table.block_last_user_key(b - 1) == Some(uk));
                        if vtype != ValueType::Value {
                            it.next();
                            continue;
                        }
                        // The attribute is read from the record's bytes; a
                        // record that is not a valid document never matches.
                        let matches = match extract_attr(it.value(), &self.attr) {
                            Ok(Some(v)) => *lo <= v && v <= *hi,
                            _ => false,
                        };
                        if matches {
                            let uk_vec = uk_owned;
                            // `from_mem`: this record was already admitted
                            // from the memtable-side index; its memtable may
                            // since have been installed as an L0 file, so the
                            // copy found here is the same (pk, seq) again.
                            if first_version_in_file
                                && !from_mem.contains(uk)
                                && heap.would_admit(seq)
                            {
                                // GetLite: a newer version above this level
                                // invalidates the match — checked purely
                                // from in-memory metadata. Under the
                                // default mode a positive is confirmed with
                                // one real newest-version probe (counted
                                // I/O), so bloom false positives cannot
                                // drop valid results.
                                let confirm_newest = |uk: &[u8]| -> Result<bool> {
                                    Ok(!matches!(
                                        primary.newest_record(uk)?,
                                        Some((ValueType::Value, s, _)) if s == seq
                                    ))
                                };
                                let maybe_newer = || primary.get_lite(uk, source, &version);
                                let invalid = match self.validation {
                                    EmbeddedValidation::GetLiteConfirmed => {
                                        maybe_newer() && confirm_newest(uk)?
                                    }
                                    EmbeddedValidation::GetLiteOnly => maybe_newer(),
                                    EmbeddedValidation::FullGet => confirm_newest(uk)?,
                                };
                                if !invalid {
                                    let doc = Document::parse(it.value())?;
                                    heap.add(seq, Candidate { pk: uk_vec, doc });
                                }
                            }
                        }
                        it.next();
                    }
                }
            }
            // "We must always scan until the end of a level before
            // termination."
            if heap.is_full() {
                break;
            }
        }
        Ok(finish(heap))
    }
}

fn finish(heap: TopK<Candidate>) -> Vec<LookupHit> {
    heap.into_sorted()
        .into_iter()
        .map(|(seq, c)| LookupHit {
            key: c.pk,
            seq,
            doc: c.doc,
        })
        .collect()
}

impl SecondaryIndex for EmbeddedIndex {
    fn attr(&self) -> &str {
        &self.attr
    }

    fn kind(&self) -> IndexKind {
        IndexKind::Embedded
    }

    fn after_put(&self, primary: &Db, pk: &[u8], doc: &Document, seq: u64) {
        // Called after the primary write, so the generation reflects any
        // flush that write triggered and the entry lands in the B-tree for
        // the *current* memtable. A DEL needs no counterpart: candidates
        // are validated against the newest memtable version anyway.
        self.sync_generation(primary);
        if let Some(value) = doc.attr(&self.attr) {
            self.mem
                .lock()
                .map
                .insert((value.encode(), pk.to_vec()), seq);
        }
    }

    fn query(
        &self,
        primary: &Db,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        self.scan(primary, lo, hi, k, lo == hi)
    }
}
