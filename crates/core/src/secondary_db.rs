//! The unified database facade: LevelDB++.
//!
//! A [`SecondaryDb`] is a router over `N` hash-partitioned **engine
//! shards**. Each shard is an independent primary LSM table — its own
//! directory, memtable, WAL, group-commit queue, and background worker —
//! plus, per indexed attribute, one of the paper's index techniques. A
//! stand-alone index is an LSM tree of its own next to the primary, but
//! the primary's WAL is the shard's only commit log: a write and the
//! index entries it implies are one record, one sequence number, and
//! become visible together. The
//! facade exposes exactly the paper's operation set (Table 1): `GET`,
//! `PUT`, `DEL`, `LOOKUP(A, a, K)` and `RANGELOOKUP(A, a, b, K)`.
//!
//! * **Writes** route by a hash of the primary key: a `PUT`/`DEL` touches
//!   exactly one shard and is one group-commit batch of that shard
//!   (DESIGN.md §14) — atomic across its primary table and its indexes,
//!   at every crash point.
//! * **Reads** (`LOOKUP`, `RANGELOOKUP`, `scan_primary`) visit every
//!   shard in order on the calling thread and gather through the
//!   K-bounded merges in [`crate::topk`].
//!   Cross-shard recency ordering is exact because all shards allocate
//!   sequence numbers from one shared [`SharedSequence`] clock.
//! * **Maintenance** (`check_integrity`, `heal`, `flush`, backfill /
//!   rebuild, size and I/O accessors) fans out and aggregates per-shard
//!   results.
//!
//! Every shard count takes the same path: one shard is a router over one
//! engine, with the clock handing out `last + 1` exactly as the engine
//! alone would. Only the directory layout differs — a single shard lives
//! at `name` itself with no `LAYOUT` descriptor. See DESIGN.md §15 for
//! the full sharding model.

use crate::doc::{extract_attr, extract_attrs, Document, JsonAttrExtractor};
use crate::indexes::{
    check_against_primary, clear_index_table, CompositeIndex, EagerIndex, EmbeddedIndex,
    EmbeddedValidation, IndexKind, LazyIndex, LookupHit, SecondaryIndex,
};
use crate::topk::{merge_key_ordered, merge_newest_first, TopK};
use ldbpp_common::json::Value;
use ldbpp_common::{Error, Result};
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::check::{CheckCode, IntegrityReport};
use ldbpp_lsm::db::{CommitView, Db, DbOptions, DeriveOps, SharedSequence};
use ldbpp_lsm::env::{Env, IoSnapshot, MemEnv};
use ldbpp_lsm::ikey::ValueType;
use ldbpp_lsm::model_bugs::{self, Fault};
use ldbpp_lsm::sync::{AtomicU64, Ordering};
use ldbpp_lsm::write_batch::{BatchOp, WriteBatch};
use std::sync::Arc;

/// How a scatter-gather read treats a failing shard (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Any shard error fails the whole read (the historical behavior):
    /// the caller either sees the complete answer or an error.
    #[default]
    Strict,
    /// Opt-in availability-over-completeness: shards that cannot be read
    /// — their query errors, or their engine carries a sticky
    /// [`fatal_error`](ldbpp_lsm::db::Db::fatal_error) poison — are
    /// skipped, and the surviving shards' results are returned tagged
    /// with the failed-shard set. Only an *all*-shards failure is an
    /// error.
    Degraded,
}

/// A scatter-gather result that may be missing some shards' contribution.
///
/// `failed_shards` is empty for a complete result; a non-empty set means
/// `value` is correct for every shard *not* listed — records routed to a
/// failed shard are simply absent, never wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partial<T> {
    /// The merged result from the shards that answered.
    pub value: T,
    /// Indexes of shards whose contribution is missing.
    pub failed_shards: Vec<usize>,
}

impl<T> Partial<T> {
    /// True when no shard failed.
    pub fn is_complete(&self) -> bool {
        self.failed_shards.is_empty()
    }
}

/// Rows of a primary-key range scan: `(key, document)` pairs in key
/// order.
pub type ScanRows = Vec<(Vec<u8>, Document)>;

/// Degraded-read counters (surfaced through the server's STATS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedStats {
    /// Degraded-mode reads that returned with at least one shard missing.
    pub degraded_reads: u64,
    /// Individual shard failures skipped by degraded reads (≥
    /// `degraded_reads`; one read can lose several shards).
    pub failed_shard_reads: u64,
}

/// Configuration for a [`SecondaryDb`].
#[derive(Clone, Debug)]
pub struct SecondaryDbOptions {
    /// Sizing/compression options applied to every shard's primary table
    /// and (unless overridden) every stand-alone index table.
    pub base: DbOptions,
    /// Validation mode for Embedded indexes (ablation knob; the default
    /// GetLite-with-confirmation is both exact and cheap).
    pub embedded_validation: EmbeddedValidation,
    /// Number of hash-partitioned engine shards.
    ///
    /// `1` (the default) keeps the single engine directly at `name`, with
    /// no `LAYOUT` descriptor. `N > 1` splits the key space by
    /// primary-key hash over `N` independent engines under
    /// `name/shard-0 .. name/shard-N-1`, recorded in a root-level
    /// `LAYOUT` descriptor that [`SecondaryDb::open`] validates on every
    /// reopen — a shard-count mismatch is a hard error, never a silent
    /// reshard. Either way every shard draws its sequence numbers from one
    /// shared clock. `0` is treated as `1`.
    pub shards: usize,
}

impl Default for SecondaryDbOptions {
    fn default() -> Self {
        SecondaryDbOptions {
            base: DbOptions::default(),
            embedded_validation: EmbeddedValidation::default(),
            shards: 1,
        }
    }
}

impl SecondaryDbOptions {
    /// Shard count from the `LDBPP_SHARDS` environment variable, falling
    /// back to `1` when unset, unparsable, or zero. Lets existing test
    /// suites and smoke scripts run against a sharded engine without code
    /// changes ([`SecondaryDb::open_in_memory`] honours it).
    pub fn shards_from_env() -> usize {
        std::env::var("LDBPP_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n >= 1)
            .unwrap_or(1)
    }
}

/// Convert a JSON scalar to a typed attribute value.
pub fn attr_from_json(v: &Value) -> Result<AttrValue> {
    match v {
        Value::Str(s) => Ok(AttrValue::str(s.clone())),
        Value::Int(i) => Ok(AttrValue::Int(*i)),
        other => Err(Error::invalid(format!(
            "attribute values must be strings or integers, got {other}"
        ))),
    }
}

/// What [`SecondaryDb::heal`] found and did (aggregated over all shards).
#[must_use = "healing may have left violations; inspect the report"]
#[derive(Debug, Clone, Default)]
pub struct HealReport {
    /// Violations [`SecondaryDb::check_integrity`] reported before healing.
    pub violations_before: usize,
    /// Violations remaining after healing (0 when the rebuild succeeded;
    /// equal to `violations_before` when no rebuild was needed or the
    /// damage is in the primary table, which index rebuilds cannot fix).
    pub violations_after: usize,
    /// Whether any shard's index tables were dropped and rebuilt.
    pub rebuilt: bool,
    /// Primary records replayed into stand-alone indexes by the rebuild.
    pub replayed: usize,
}

impl HealReport {
    /// True when no violations remain.
    pub fn is_clean(&self) -> bool {
        self.violations_after == 0
    }

    fn absorb(&mut self, other: HealReport) {
        self.violations_before += other.violations_before;
        self.violations_after += other.violations_after;
        self.rebuilt |= other.rebuilt;
        self.replayed += other.replayed;
    }
}

// -- shard layout descriptor ------------------------------------------------

/// First line of the root-level `LAYOUT` descriptor.
const LAYOUT_MAGIC: &str = "ldbpp-shard-layout v1";
/// The only routing hash this engine speaks; recorded so a future hash
/// change cannot silently misroute an existing database.
const ROUTING_HASH: &str = "fnv1a64";

fn layout_path(root: &str) -> String {
    format!("{root}/LAYOUT")
}

fn shard_dir(root: &str, shard: usize) -> String {
    format!("{root}/shard-{shard}")
}

/// Read the shard count recorded in `root`'s `LAYOUT` descriptor.
///
/// Returns `Ok(None)` when no descriptor exists (a single-shard
/// database, or nothing at all); `Ok(Some(n))` for a sharded root; an
/// error when the descriptor is present but unreadable, malformed, or
/// declares a routing hash this build does not implement. Shared with
/// `ldbpp_tool`, which uses it to discover shard directories for `check`
/// and `repair`.
pub fn shard_layout(env: &Arc<dyn Env>, root: &str) -> Result<Option<usize>> {
    let path = layout_path(root);
    if !env.exists(&path) {
        return Ok(None);
    }
    let data = env.read_all(&path)?;
    let text = std::str::from_utf8(&data)
        .map_err(|_| Error::corruption(format!("{path}: layout descriptor is not UTF-8")))?;
    let mut lines = text.lines();
    if lines.next() != Some(LAYOUT_MAGIC) {
        return Err(Error::corruption(format!(
            "{path}: bad layout magic (expected '{LAYOUT_MAGIC}')"
        )));
    }
    let mut shards = None;
    for line in lines {
        if let Some(n) = line.strip_prefix("shards=") {
            shards = n.parse::<usize>().ok();
        } else if let Some(h) = line.strip_prefix("hash=") {
            if h != ROUTING_HASH {
                return Err(Error::not_supported(format!(
                    "{path}: routing hash '{h}' not supported (expected '{ROUTING_HASH}')"
                )));
            }
        }
    }
    match shards {
        Some(n) if n >= 1 => Ok(Some(n)),
        _ => Err(Error::corruption(format!(
            "{path}: missing or invalid shard count"
        ))),
    }
}

fn write_layout(env: &Arc<dyn Env>, root: &str, shards: usize) -> Result<()> {
    env.mkdir_all(root)?;
    let body = format!("{LAYOUT_MAGIC}\nshards={shards}\nhash={ROUTING_HASH}\n");
    env.write_all(&layout_path(root), body.as_bytes())
}

/// FNV-1a 64-bit over the primary key — the routing hash. Stable across
/// platforms and recorded in the layout descriptor, because every byte of
/// on-disk state depends on it: rehashing an existing database would
/// strand records on the wrong shard.
fn route_hash(pk: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in pk {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// -- one engine shard -------------------------------------------------------

/// One hash-partition of the key space: an independent primary `Db` plus
/// this shard's slice of every declared index. All the single-engine
/// semantics (atomic commits, validation, healing) live here;
/// [`SecondaryDb`] routes and aggregates.
struct EngineShard {
    primary: Arc<Db>,
    /// Shared with the [`IndexOps`] of every write in flight.
    indexes: Arc<Vec<Box<dyn SecondaryIndex>>>,
    /// Attributes declared with [`IndexKind::None`] (full-scan fallback).
    unindexed: Vec<String>,
}

/// What one PUT or DEL implies for the shard's stand-alone index trees,
/// worked out by the commit that carries it.
struct IndexOps {
    indexes: Arc<Vec<Box<dyn SecondaryIndex>>>,
    /// For a PUT, the record's value of each index's attribute (taken
    /// from the document before it was serialised); empty for a DEL.
    values: Vec<Option<AttrValue>>,
}

impl DeriveOps for IndexOps {
    fn derive(
        &self,
        view: &CommitView<'_>,
        seq: u64,
        op: &BatchOp,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        match op.vtype {
            ValueType::Value => {
                for (index, value) in self.indexes.iter().zip(&self.values) {
                    if let Some(value) = value {
                        index.on_put(view, &op.key, value, seq, out)?;
                    }
                }
            }
            // The indexes need the record the DEL removes, to find which
            // posting list / composite key to mark. Read inside the
            // commit, it is the record the tombstone actually shadows.
            ValueType::Deletion => {
                if let Some(bytes) = view.get(0, &op.key)? {
                    let attrs: Vec<&str> = self.indexes.iter().map(|i| i.attr()).collect();
                    let old = extract_attrs(&bytes, &attrs)?;
                    for (index, value) in self.indexes.iter().zip(old) {
                        if let Some(value) = value {
                            index.on_delete(view, &op.key, &value, seq, out)?;
                        }
                    }
                }
            }
            ValueType::Merge => {}
        }
        Ok(())
    }
}

impl EngineShard {
    fn open(
        env: &Arc<dyn Env>,
        name: &str,
        opts: &SecondaryDbOptions,
        specs: &[(&str, IndexKind)],
        clock: &Arc<SharedSequence>,
    ) -> Result<EngineShard> {
        let mut primary_opts = opts.base.clone();
        primary_opts.sequence_clock = Some(Arc::clone(clock));
        let embedded_attrs: Vec<String> = specs
            .iter()
            .filter(|(_, k)| *k == IndexKind::Embedded)
            .map(|(a, _)| a.to_string())
            .collect();
        if !embedded_attrs.is_empty() {
            primary_opts.indexed_attrs = embedded_attrs;
            primary_opts.extractor = Some(Arc::new(JsonAttrExtractor));
        }
        // One tree per stand-alone index, in declaration order, all behind
        // the primary's commit log.
        let trees: Vec<(String, DbOptions)> = specs
            .iter()
            .filter_map(|(attr, kind)| {
                let table_opts = kind.table_options(&opts.base)?;
                Some((format!("{name}_idx_{attr}"), table_opts))
            })
            .collect();
        let primary = Arc::new(Db::open_with_trees(
            Arc::clone(env),
            name,
            primary_opts,
            &trees,
        )?);

        let mut indexes: Vec<Box<dyn SecondaryIndex>> = Vec::new();
        let mut unindexed = Vec::new();
        let mut tables = (1u32..).zip(primary.trees().iter().cloned());
        for (attr, kind) in specs {
            let index: Box<dyn SecondaryIndex> = match kind {
                IndexKind::None => {
                    unindexed.push(attr.to_string());
                    continue;
                }
                IndexKind::Embedded => Box::new(EmbeddedIndex::with_validation(
                    attr,
                    opts.embedded_validation,
                )),
                standalone => {
                    let Some((tree, table)) = tables.next() else {
                        return Err(Error::invalid("index tree missing from its shard"));
                    };
                    match standalone {
                        IndexKind::EagerStandalone => Box::new(EagerIndex::new(attr, tree, table)),
                        IndexKind::LazyStandalone => Box::new(LazyIndex::new(attr, tree, table)),
                        _ => Box::new(CompositeIndex::new(attr, tree, table)),
                    }
                }
            };
            indexes.push(index);
        }
        Ok(EngineShard {
            primary,
            indexes: Arc::new(indexes),
            unindexed,
        })
    }

    /// The index handling `attr`, if any.
    fn index_for(&self, attr: &str) -> Option<&dyn SecondaryIndex> {
        self.indexes
            .iter()
            .map(|b| b.as_ref())
            .find(|i| i.attr() == attr)
    }

    /// Commit a one-operation batch together with what it implies for
    /// the stand-alone indexes.
    fn commit(&self, batch: &mut WriteBatch, values: Vec<Option<AttrValue>>) -> Result<u64> {
        if self.primary.trees().is_empty() {
            return self.primary.write(batch);
        }
        let ops = IndexOps {
            indexes: Arc::clone(&self.indexes),
            values,
        };
        self.primary.write_derived(batch, Arc::new(ops))
    }

    /// Write a record and maintain this shard's indexes: one commit, so a
    /// crash leaves the record with all of its index entries or none of
    /// either, and every entry carries the record's own sequence number.
    fn put(&self, pk: &[u8], doc: &Document) -> Result<u64> {
        let values = if self.primary.trees().is_empty() {
            Vec::new()
        } else {
            self.indexes.iter().map(|i| doc.attr(i.attr())).collect()
        };
        let mut batch = WriteBatch::new();
        batch.put(pk, &doc.to_bytes());
        let seq = self.commit(&mut batch, values)?;
        // The Embedded Index shadows the memtable: it records the sequence
        // of an entry that exists, so it comes after the commit (it is
        // memory-only — rebuilt on recovery — so the ordering has no
        // crash-consistency cost).
        for index in self.indexes.iter() {
            index.after_put(&self.primary, pk, doc, seq);
        }
        Ok(seq)
    }

    /// Delete a record and maintain this shard's indexes, in one commit.
    fn delete(&self, pk: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(pk);
        self.commit(&mut batch, Vec::new()).map(|_| ())
    }

    /// This shard's `RANGELOOKUP` (a `LOOKUP` is `lo == hi`; the range is
    /// already validated by the router): dispatch to the index, the
    /// full-scan fallback, or an error. Hits come back newest-first,
    /// K-bounded.
    fn query(
        &self,
        attr: &str,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        match self.index_for(attr) {
            Some(index) => index.query(&self.primary, lo, hi, k),
            None if self.unindexed.iter().any(|a| a == attr) => {
                self.full_scan_on(attr, |v| lo <= v && v <= hi, k)
            }
            None => Err(Error::not_supported(format!(
                "no index declared on attribute '{attr}'"
            ))),
        }
    }

    /// This shard's slice of a primary-key range scan, in key order,
    /// pinned at `snapshot` (the shared clock's value, so every shard cuts
    /// at the same point).
    fn scan_primary(
        &self,
        lo: &[u8],
        hi: &[u8],
        limit: Option<usize>,
        snapshot: u64,
    ) -> Result<Vec<(Vec<u8>, Document)>> {
        let snapshot = if model_bugs::enabled(Fault::UnpinnedScan) {
            self.primary.last_sequence()
        } else {
            snapshot
        };
        // Bounded cursor: only files overlapping [lo, hi] are merged and
        // the stream ends at hi without touching further blocks.
        let mut it = self.primary.range_iter_at(lo, hi, snapshot)?;
        let mut out = Vec::new();
        while let Some((key, _seq, bytes)) = it.next_entry()? {
            out.push((key, Document::parse(&bytes)?));
            if limit.is_some_and(|l| out.len() >= l) {
                break;
            }
        }
        Ok(out)
    }

    /// The NoIndex baseline: scan this shard's entire primary table.
    fn full_scan_on(
        &self,
        attr: &str,
        pred: impl Fn(&AttrValue) -> bool,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        let mut heap: TopK<(Vec<u8>, Document)> = TopK::new(k);
        let mut it = self.primary.resolved_iter()?;
        it.seek_to_first();
        while let Some((pk, seq, bytes)) = it.next_entry()? {
            // A record that is not a valid document never matches.
            if let Ok(Some(v)) = extract_attr(&bytes, attr) {
                if pred(&v) && heap.would_admit(seq) {
                    heap.add(seq, (pk, Document::parse(&bytes)?));
                }
            }
        }
        Ok(heap
            .into_sorted()
            .into_iter()
            .map(|(seq, (key, doc))| LookupHit { key, seq, doc })
            .collect())
    }

    /// Run the full structural invariant catalogue over this shard.
    fn check_integrity(&self) -> IntegrityReport {
        let mut report = self.primary.check_integrity();
        report.violations.extend(self.check_indexes().violations);
        report
    }

    /// The index part of [`EngineShard::check_integrity`]: the LSM checker
    /// over each index tree, then the exact comparison with the primary.
    fn check_indexes(&self) -> IntegrityReport {
        let mut report = IntegrityReport::default();
        for index in self.indexes.iter() {
            if let Some((_, table)) = index.tree() {
                let ctx = format!("{} index '{}'", index.kind(), index.attr());
                report.merge(&ctx, table.check_integrity());
            }
        }
        if let Err(e) = check_against_primary(&self.primary, &self.indexes, &mut report) {
            report.push(
                CheckCode::TableUnreadable,
                format!("index ≡ primary scan failed: {e}"),
            );
        }
        report
    }

    /// Backfill late-declared indexes on this shard; see
    /// [`SecondaryDb::backfill_indexes`].
    fn backfill_indexes(&self) -> Result<usize> {
        self.compact_if_embedded_stale()?;
        let to_fill: Vec<&dyn SecondaryIndex> = self
            .indexes
            .iter()
            .map(|b| b.as_ref())
            // Never written: no operation was ever applied to its tree.
            .filter(|i| {
                i.tree()
                    .is_some_and(|(_, table)| table.tree_sequence() == 0)
            })
            .collect();
        if to_fill.is_empty() {
            return Ok(0);
        }
        self.replay_primary_into(&to_fill)
    }

    /// Drop and rebuild this shard's indexes; see
    /// [`SecondaryDb::rebuild_indexes`].
    fn rebuild_indexes(&self) -> Result<usize> {
        self.compact_if_embedded_stale()?;
        let standalone: Vec<&dyn SecondaryIndex> = self
            .indexes
            .iter()
            .map(|b| b.as_ref())
            .filter(|i| i.kind() != IndexKind::Embedded)
            .collect();
        if standalone.is_empty() {
            return Ok(0);
        }
        for (tree, table) in standalone.iter().filter_map(|i| i.tree()) {
            clear_index_table(&self.primary, tree, table)?;
        }
        self.replay_primary_into(&standalone)
    }

    /// Embedded attrs: any file missing the attribute's file-level zone
    /// map predates the declaration (or survived repair verbatim);
    /// rewrite every file with regenerated per-block filters + zone maps.
    fn compact_if_embedded_stale(&self) -> Result<()> {
        let embedded_attrs: Vec<&str> = self
            .indexes
            .iter()
            .filter(|i| i.kind() == IndexKind::Embedded)
            .map(|i| i.attr())
            .collect();
        if embedded_attrs.is_empty() {
            return Ok(());
        }
        let version = self.primary.current_version();
        let stale = version.files.iter().flatten().any(|f| {
            embedded_attrs
                .iter()
                .any(|attr| f.file_zone(attr).is_none())
        });
        if stale {
            self.primary.major_compact()?;
        }
        Ok(())
    }

    /// Replay every live primary record into `targets` with its original
    /// sequence number, in sequence order (so a Lazy list's fragments lie
    /// newest-first down the sources, as its LOOKUP walk needs): one commit
    /// of index-tree operations per record, emitted by the code a PUT runs.
    /// Idempotent — postings and composite entries dedup by primary key.
    fn replay_primary_into(&self, targets: &[&dyn SecondaryIndex]) -> Result<usize> {
        let attrs: Vec<&str> = targets.iter().map(|i| i.attr()).collect();
        let mut records = Vec::new();
        let mut it = self.primary.resolved_iter()?;
        it.seek_to_first();
        while let Some((pk, seq, bytes)) = it.next_entry()? {
            if let Ok(values) = extract_attrs(&bytes, &attrs) {
                records.push((seq, pk, values));
            }
        }
        records.sort_unstable_by_key(|(seq, _, _)| *seq);
        let view = self.primary.commit_view();
        for (seq, pk, values) in &records {
            let mut ops = Vec::new();
            for (index, value) in targets.iter().zip(values) {
                if let Some(value) = value {
                    index.on_put(&view, pk, value, *seq, &mut ops)?;
                }
            }
            let mut batch = WriteBatch::new();
            for op in &ops {
                batch.push(op);
            }
            if !batch.is_empty() {
                self.primary.write(&mut batch)?;
            }
        }
        Ok(records.len())
    }

    /// Check this shard and, if its indexes disagree with its primary,
    /// rebuild them and re-check; see [`SecondaryDb::heal`].
    fn heal(&self) -> Result<HealReport> {
        let indexes = self.check_indexes().violations.len();
        let violations_before = self.primary.check_integrity().violations.len() + indexes;
        let rebuilt = indexes > 0;
        let replayed = if rebuilt { self.rebuild_indexes()? } else { 0 };
        let violations_after = match rebuilt {
            true => self.check_integrity().violations.len(),
            false => violations_before,
        };
        Ok(HealReport {
            violations_before,
            violations_after,
            rebuilt,
            replayed,
        })
    }

    /// Combined I/O snapshot of this shard's stand-alone index tables.
    fn index_io(&self) -> IoSnapshot {
        IoSnapshot::merge(self.primary.trees().iter().map(|t| t.stats().snapshot()))
    }
}

/// A key-value store with secondary indexes — the paper's LevelDB++.
///
/// ```
/// use ldbpp_core::{Document, IndexKind, SecondaryDb};
/// use ldbpp_common::json::Value;
/// use ldbpp_lsm::db::DbOptions;
///
/// let db = SecondaryDb::open_in_memory(
///     DbOptions::small(),
///     &[("UserID", IndexKind::CompositeStandalone)],
/// ).unwrap();
///
/// let mut doc = Document::new();
/// doc.set("UserID", Value::str("alice"));
/// db.put("t1", &doc).unwrap();
///
/// let hits = db.lookup("UserID", &Value::str("alice"), None).unwrap();
/// assert_eq!(hits[0].key, b"t1");
/// assert!(db.get("t1").unwrap().is_some());
/// db.delete("t1").unwrap();
/// assert!(db.get("t1").unwrap().is_none());
/// ```
pub struct SecondaryDb {
    shards: Vec<EngineShard>,
    /// The sequence clock every shard's commits draw from, which keeps
    /// top-K recency ordering globally meaningful.
    clock: Arc<SharedSequence>,
    /// Degraded reads that returned partial results.
    degraded_reads: AtomicU64,
    /// Shard failures skipped by degraded reads.
    failed_shard_reads: AtomicU64,
}

impl SecondaryDb {
    /// Open a database at `name` with the given per-attribute indexes.
    ///
    /// With `opts.shards == 1` (the default) the primary table lives
    /// directly at `name` and stand-alone index tables at
    /// `{name}_idx_{attr}`, with no layout descriptor.
    ///
    /// With `opts.shards == N > 1`, `name` becomes a root directory
    /// holding a `LAYOUT` descriptor plus `N` shard engines
    /// (`name/shard-i` primaries, `name/shard-i_idx_{attr}` index
    /// tables). Reopening validates the descriptor: a shard count
    /// mismatch — including asking for shards on an existing unsharded
    /// database — is a hard error, never a silent reshard.
    pub fn open(
        env: Arc<dyn Env>,
        name: &str,
        opts: SecondaryDbOptions,
        specs: &[(&str, IndexKind)],
    ) -> Result<SecondaryDb> {
        let requested = opts.shards.max(1);
        let shard_count = match shard_layout(&env, name)? {
            Some(recorded) if recorded != requested => {
                return Err(Error::invalid(format!(
                    "{name}: shard layout mismatch: directory records {recorded} shard(s) but \
                     open requested {requested}; resharding is not supported — reopen with \
                     shards = {recorded}"
                )));
            }
            Some(recorded) => recorded,
            None => {
                if requested > 1 {
                    if env.exists(&format!("{name}/CURRENT")) {
                        return Err(Error::invalid(format!(
                            "{name}: existing unsharded database cannot be opened with \
                             shards = {requested}; reopen with shards = 1"
                        )));
                    }
                    write_layout(&env, name, requested)?;
                }
                requested
            }
        };
        let clock = SharedSequence::new();
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let shard_name = if shard_count == 1 {
                name.to_string()
            } else {
                shard_dir(name, i)
            };
            shards.push(EngineShard::open(&env, &shard_name, &opts, specs, &clock)?);
        }
        Ok(SecondaryDb {
            shards,
            clock,
            degraded_reads: AtomicU64::new(0),
            failed_shard_reads: AtomicU64::new(0),
        })
    }

    /// Open in a fresh in-memory environment (tests, examples, benches).
    ///
    /// Honours `LDBPP_SHARDS` (see
    /// [`SecondaryDbOptions::shards_from_env`]), so existing suites can be
    /// re-run against a sharded engine by exporting the variable.
    pub fn open_in_memory(base: DbOptions, specs: &[(&str, IndexKind)]) -> Result<SecondaryDb> {
        SecondaryDb::open(
            MemEnv::new(),
            "db",
            SecondaryDbOptions {
                base,
                shards: SecondaryDbOptions::shards_from_env(),
                ..Default::default()
            },
            specs,
        )
    }

    /// Number of engine shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `pk` routes to (always 0 at `shards = 1`).
    pub fn shard_of(&self, pk: impl AsRef<[u8]>) -> usize {
        (route_hash(pk.as_ref()) % self.shards.len() as u64) as usize
    }

    /// The primary table of shard 0 — at `shards = 1` (the default), *the*
    /// primary table. Single-engine experiments and tools use this; code
    /// that must work sharded should use [`SecondaryDb::shard_primary`].
    pub fn primary(&self) -> &Arc<Db> {
        &self.shards[0].primary
    }

    /// The primary table of shard `i`, if it exists.
    pub fn shard_primary(&self, i: usize) -> Option<&Arc<Db>> {
        self.shards.get(i).map(|s| &s.primary)
    }

    /// Run the full structural invariant catalogue — the LSM checker over
    /// every shard's primary table, then over every stand-alone index
    /// table, plus the exact comparison of every stand-alone index with
    /// its primary (DESIGN.md §12.3: a missing, misfiled, or too-new
    /// posting is a [`CheckCode::IndexMismatch`]; a stale one, which
    /// reads drop, is not). Each violation is prefixed with its shard
    /// (`shard-i: …`), so corruption is attributed to — and confined
    /// within — the shard that holds it. Intended for a quiesced database;
    /// never fails — errors while scanning an index become violations in
    /// the report.
    #[must_use = "the report lists violations; ignoring it defeats the check"]
    pub fn check_integrity(&self) -> IntegrityReport {
        let mut report = IntegrityReport::default();
        for (i, shard) in self.shards.iter().enumerate() {
            report.merge(&format!("shard-{i}"), shard.check_integrity());
        }
        report
    }

    /// Which technique indexes `attr` (identical on every shard).
    pub fn index_kind(&self, attr: &str) -> IndexKind {
        match self.shards[0].index_for(attr) {
            Some(i) => i.kind(),
            None => IndexKind::None,
        }
    }

    /// Run `query` against every shard in order, on the calling thread,
    /// and gather the answers in shard order, so downstream merges are
    /// deterministic. Strict returns the first shard error and reads no
    /// further shard. Degraded skips a failing shard — its query errors or
    /// its engine is poisoned by a sticky fatal error (its answer could
    /// not be trusted to be current) — and reports which. All shards
    /// failing is still an error (the first one), not an empty success.
    fn read_shards<T>(
        &self,
        mode: ReadMode,
        query: impl Fn(&EngineShard) -> Result<T>,
    ) -> Result<Partial<Vec<T>>> {
        let mut value = Vec::with_capacity(self.shards.len());
        let mut failed_shards = Vec::new();
        let mut first_err = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let fatal = match mode {
                ReadMode::Strict => None,
                ReadMode::Degraded => shard.primary.fatal_error(),
            };
            let outcome = match fatal {
                Some(fatal) => Err(Error::io(format!("shard poisoned: {fatal}"))),
                None => query(shard),
            };
            match outcome {
                Ok(v) => value.push(v),
                Err(e) if mode == ReadMode::Strict => return Err(e),
                Err(e) => {
                    failed_shards.push(i);
                    first_err.get_or_insert(e);
                }
            }
        }
        if value.is_empty() {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        if !failed_shards.is_empty() {
            self.degraded_reads.fetch_add(1, Ordering::Relaxed);
            self.failed_shard_reads
                .fetch_add(failed_shards.len() as u64, Ordering::Relaxed);
        }
        Ok(Partial {
            value,
            failed_shards,
        })
    }

    // -- Table 1 operations --------------------------------------------------

    /// `PUT(k, v)`: write (or overwrite) a record on its shard and
    /// maintain that shard's indexes. Exactly one shard is touched.
    pub fn put(&self, pk: impl AsRef<[u8]>, doc: &Document) -> Result<u64> {
        let pk = pk.as_ref();
        if pk.is_empty() {
            return Err(Error::invalid("empty primary key"));
        }
        let shard = &self.shards[self.shard_of(pk)];
        // Reject inputs an index would refuse before they reach the commit,
        // where a failed derivation fails every write grouped with it
        // (posting-list indexes serialize keys into JSON).
        let needs_text_pk = shard.indexes.iter().any(|i| {
            matches!(
                i.kind(),
                IndexKind::EagerStandalone | IndexKind::LazyStandalone
            )
        });
        if needs_text_pk && std::str::from_utf8(pk).is_err() {
            return Err(Error::invalid(
                "posting-list indexes require UTF-8 primary keys",
            ));
        }
        shard.put(pk, doc)
    }

    /// `DEL(k)`: delete a record on its shard and maintain that shard's
    /// indexes. Exactly one shard is touched.
    pub fn delete(&self, pk: impl AsRef<[u8]>) -> Result<()> {
        let pk = pk.as_ref();
        self.shards[self.shard_of(pk)].delete(pk)
    }

    /// `GET(k)`: fetch a record by primary key (routed, single shard).
    pub fn get(&self, pk: impl AsRef<[u8]>) -> Result<Option<Document>> {
        let pk = pk.as_ref();
        match self.shards[self.shard_of(pk)].primary.get(pk)? {
            Some(bytes) => Ok(Some(Document::parse(&bytes)?)),
            None => Ok(None),
        }
    }

    /// `LOOKUP(A, a, K)`: the K most recent records with `val(A) = a`,
    /// scattered across every shard and gathered newest-first.
    pub fn lookup(&self, attr: &str, value: &Value, k: Option<usize>) -> Result<Vec<LookupHit>> {
        self.lookup_mode(attr, value, k, ReadMode::Strict)
            .map(|p| p.value)
    }

    /// [`SecondaryDb::lookup`] under an explicit [`ReadMode`]. In
    /// degraded mode the result may be partial; inspect
    /// [`Partial::failed_shards`].
    pub fn lookup_mode(
        &self,
        attr: &str,
        value: &Value,
        k: Option<usize>,
        mode: ReadMode,
    ) -> Result<Partial<Vec<LookupHit>>> {
        self.range_lookup_mode(attr, value, value, k, mode)
    }

    /// `RANGELOOKUP(A, a, b, K)`: the K most recent records with
    /// `a ≤ val(A) ≤ b`, scattered across every shard and gathered
    /// newest-first.
    pub fn range_lookup(
        &self,
        attr: &str,
        lo: &Value,
        hi: &Value,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        self.range_lookup_mode(attr, lo, hi, k, ReadMode::Strict)
            .map(|p| p.value)
    }

    /// [`SecondaryDb::range_lookup`] under an explicit [`ReadMode`].
    pub fn range_lookup_mode(
        &self,
        attr: &str,
        lo: &Value,
        hi: &Value,
        k: Option<usize>,
        mode: ReadMode,
    ) -> Result<Partial<Vec<LookupHit>>> {
        let (lo, hi) = (attr_from_json(lo)?, attr_from_json(hi)?);
        if lo > hi {
            return Err(Error::invalid("inverted range"));
        }
        let per_shard = self.read_shards(mode, |shard| shard.query(attr, &lo, &hi, k))?;
        Ok(Partial {
            value: merge_newest_first(per_shard.value, k, |h| h.seq),
            failed_shards: per_shard.failed_shards,
        })
    }

    /// Range scan over **primary keys** in `[lo, hi]` (inclusive),
    /// newest-version-resolved, in key order — LevelDB's range-query API
    /// surfaced through the facade. Each shard streams its own bounded
    /// cursor; the per-shard key-ordered slices are gathered through a
    /// K-bounded merge (hash partitioning interleaves keys across shards,
    /// so the merge is what restores global key order).
    pub fn scan_primary(
        &self,
        lo: impl AsRef<[u8]>,
        hi: impl AsRef<[u8]>,
        limit: Option<usize>,
    ) -> Result<Vec<(Vec<u8>, Document)>> {
        self.scan_primary_mode(lo, hi, limit, ReadMode::Strict)
            .map(|p| p.value)
    }

    /// [`SecondaryDb::scan_primary`] under an explicit [`ReadMode`]: in
    /// degraded mode, keys routed to a failed shard are absent from the
    /// scan and the shard is listed in [`Partial::failed_shards`].
    pub fn scan_primary_mode(
        &self,
        lo: impl AsRef<[u8]>,
        hi: impl AsRef<[u8]>,
        limit: Option<usize>,
        mode: ReadMode,
    ) -> Result<Partial<ScanRows>> {
        let (lo, hi) = (lo.as_ref(), hi.as_ref());
        if lo > hi {
            return Err(Error::invalid("inverted range"));
        }
        // Pin the scan at the shared clock *before* reading any shard:
        // every shard cursor cuts at the same sequence, so a scan cannot
        // return a later write on one shard while missing an earlier write
        // on another (cross-shard read skew). Anything committed before the
        // pin is at or below it; anything allocated after is above it.
        let snapshot = self.clock.current();
        let per_shard =
            self.read_shards(mode, |shard| shard.scan_primary(lo, hi, limit, snapshot))?;
        Ok(Partial {
            value: merge_key_ordered(per_shard.value, limit, |(key, _)| key.clone()),
            failed_shards: per_shard.failed_shards,
        })
    }

    /// Conjunctive multi-attribute lookup: the K most recent records
    /// matching **all** of the given `(attribute, value)` equality
    /// predicates — the multi-dimensional search the paper cites HyperDex
    /// and Innesto for, expressed over this engine's per-attribute indexes.
    ///
    /// Strategy: probe the indexed attribute expected to be most selective
    /// (the first indexed one given), then filter its hits on the remaining
    /// predicates — a standard index-intersection plan specialized to one
    /// driving index. The driving probe is itself a scatter-gather
    /// [`SecondaryDb::lookup`], so the plan is unchanged by sharding.
    pub fn lookup_all(
        &self,
        predicates: &[(&str, Value)],
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        if predicates.is_empty() {
            return Err(Error::invalid("lookup_all needs at least one predicate"));
        }
        // Driving attribute: the first with a real index.
        let driver = predicates
            .iter()
            .position(|(attr, _)| self.shards[0].index_for(attr).is_some())
            .unwrap_or(0);
        let (driver_attr, driver_value) = &predicates[driver];
        let rest: Vec<(&str, AttrValue)> = predicates
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != driver)
            .map(|(_, (attr, value))| Ok((*attr, attr_from_json(value)?)))
            .collect::<Result<_>>()?;

        // Over-fetch from the driving index, filter, repeat with a larger
        // K until satisfied or exhausted.
        let mut fetch = k.map(|k| (k * 4).max(16));
        loop {
            let hits = self.lookup(driver_attr, driver_value, fetch)?;
            let exhausted = fetch.is_none_or(|f| hits.len() < f);
            let filtered: Vec<LookupHit> = hits
                .into_iter()
                .filter(|h| {
                    rest.iter()
                        .all(|(attr, want)| h.doc.attr(attr).as_ref() == Some(want))
                })
                .collect();
            if k.is_none_or(|k| filtered.len() >= k) || exhausted {
                let mut filtered = filtered;
                filtered.truncate(k.unwrap_or(usize::MAX));
                return Ok(filtered);
            }
            fetch = fetch.map(|f| f * 4);
        }
    }

    // -- maintenance & accounting ---------------------------------------------

    /// Build indexes that were declared after data already existed, on
    /// every shard.
    ///
    /// Two cases are handled per shard:
    ///
    /// * **Stand-alone indexes whose tables have never been written** are
    ///   populated by scanning every live primary record and replaying
    ///   `on_put` with the record's original sequence number (so recency
    ///   ordering is preserved). The operation is idempotent — postings
    ///   and composite entries dedup by primary key.
    /// * **Embedded attributes missing from existing SSTables** trigger a
    ///   major compaction of the shard's primary table, which rewrites
    ///   every file with the now-declared per-block filters and zone maps.
    ///
    /// Returns the number of records replayed into stand-alone indexes,
    /// summed over shards.
    pub fn backfill_indexes(&self) -> Result<usize> {
        let mut replayed = 0;
        for shard in &self.shards {
            replayed += shard.backfill_indexes()?;
        }
        Ok(replayed)
    }

    /// Drop and rebuild every index from a scan of its shard's primary
    /// table.
    ///
    /// The recovery-path counterpart of [`SecondaryDb::backfill_indexes`]:
    /// where backfill only populates indexes that have *never* been
    /// written, a rebuild assumes the existing index state is suspect —
    /// typically after [`ldbpp_lsm::repair_db`] quarantined index SSTables
    /// or salvaged a subset of the primary — and replaces it wholesale:
    ///
    /// * **Stand-alone indexes** are cleared (every surviving index key is
    ///   tombstoned, so the rebuild shadows any stale on-disk state by
    ///   sequence order) and repopulated by replaying `on_put` for every
    ///   live primary record with its original sequence number.
    /// * **Embedded attributes** missing from any live SSTable's file-level
    ///   zone map trigger a major compaction, which rewrites every file
    ///   with regenerated per-block filters and zone maps.
    ///
    /// Returns the number of records replayed into stand-alone indexes,
    /// summed over shards.
    pub fn rebuild_indexes(&self) -> Result<usize> {
        let mut replayed = 0;
        for shard in &self.shards {
            replayed += shard.rebuild_indexes()?;
        }
        Ok(replayed)
    }

    /// Check integrity and, if any shard's indexes disagree with its
    /// primary, rebuild that shard's indexes and re-check — the
    /// self-healing step that follows [`ldbpp_lsm::repair_db`]. Healing is
    /// per shard: a rebuild is triggered only on shards whose indexes
    /// contribute violations (index mismatches, unreadable index tables),
    /// so damage confined to one shard never causes rebuild churn
    /// — or downtime — on the others. Damage confined to a primary table
    /// is reported untouched, since rebuilding indexes from a broken
    /// primary cannot help. The returned report aggregates all shards.
    pub fn heal(&self) -> Result<HealReport> {
        let mut total = HealReport::default();
        for shard in &self.shards {
            total.absorb(shard.heal()?);
        }
        Ok(total)
    }

    /// Flush every shard's primary memtable and stand-alone index tables.
    pub fn flush(&self) -> Result<()> {
        self.shards.iter().try_for_each(|s| s.primary.flush())
    }

    /// With `background_work` enabled, block until every shard's primary
    /// table and stand-alone index tables have no pending background flush
    /// or compaction (no-op otherwise). Call before measuring tree shapes
    /// or byte counts so the numbers describe a settled database.
    pub fn wait_for_background_idle(&self) -> Result<()> {
        self.shards
            .iter()
            .try_for_each(|s| s.primary.wait_for_background_idle())
    }

    /// Bytes of live SSTables across every shard's primary table.
    pub fn primary_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.primary.table_bytes()).sum()
    }

    /// Bytes of live SSTables across all stand-alone index tables of all
    /// shards.
    pub fn index_bytes(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.primary.trees())
            .map(|t| t.table_bytes())
            .sum()
    }

    /// Total database size (primary + indexes, all shards).
    pub fn total_bytes(&self) -> u64 {
        self.primary_bytes() + self.index_bytes()
    }

    /// Per-attribute stand-alone index table sizes, summed over shards
    /// (embedded attrs report 0).
    pub fn index_bytes_by_attr(&self) -> Vec<(String, u64)> {
        self.shards[0]
            .indexes
            .iter()
            .enumerate()
            .map(|(pos, i)| {
                let total = self
                    .shards
                    .iter()
                    .filter_map(|s| s.indexes.get(pos))
                    .filter_map(|idx| idx.tree())
                    .map(|(_, table)| table.table_bytes())
                    .sum();
                (i.attr().to_string(), total)
            })
            .collect()
    }

    /// The live I/O counters of one attribute's stand-alone index table on
    /// shard 0 — at `shards = 1`, *the* index table. (A live
    /// [`ldbpp_lsm::env::IoStats`] handle cannot be aggregated across
    /// shards; for cross-shard totals snapshot [`SecondaryDb::index_io`].)
    pub fn index_stats_of(&self, attr: &str) -> Option<Arc<ldbpp_lsm::env::IoStats>> {
        let (_, table) = self.shards[0].index_for(attr)?.tree()?;
        Some(table.stats())
    }

    /// Combined I/O snapshot of every stand-alone index table on every
    /// shard.
    pub fn index_io(&self) -> IoSnapshot {
        IoSnapshot::merge(self.shards.iter().map(EngineShard::index_io))
    }

    /// Combined I/O snapshot of every shard's primary table.
    pub fn primary_io(&self) -> IoSnapshot {
        IoSnapshot::merge(self.shards.iter().map(|s| s.primary.stats().snapshot()))
    }

    /// Degraded-read counters since open.
    pub fn degraded_stats(&self) -> DegradedStats {
        DegradedStats {
            degraded_reads: self.degraded_reads.load(Ordering::Relaxed),
            failed_shard_reads: self.failed_shard_reads.load(Ordering::Relaxed),
        }
    }
}
