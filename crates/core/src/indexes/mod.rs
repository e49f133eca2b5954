//! The secondary-index implementations and their shared plumbing.

mod composite;
mod eager;
mod embedded;
mod lazy;
mod posting;

pub use composite::CompositeIndex;
pub use eager::EagerIndex;
pub use embedded::{EmbeddedIndex, EmbeddedValidation};
pub use lazy::{LazyIndex, PostingListMerge};
pub use posting::{decode_postings, encode_postings, Posting};

use crate::doc::{extract_attr, Document};
use crate::indexes::posting::fold_postings;
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::check::{CheckCode, IntegrityReport};
use ldbpp_lsm::db::{CommitView, Db, DbOptions};
use ldbpp_lsm::write_batch::{BatchOp, WriteBatch};
use std::sync::Arc;

/// Which secondary-index technique an attribute uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// No index: LOOKUP/RANGELOOKUP fall back to a full scan.
    None,
    /// Per-block bloom filters + zone maps embedded in the primary table
    /// (paper §3).
    Embedded,
    /// Stand-alone posting-list table, read-modify-write per write (§4.1.1).
    EagerStandalone,
    /// Stand-alone posting-list table, append-only fragments merged during
    /// compaction (§4.1.2).
    LazyStandalone,
    /// Stand-alone `(secondary ‖ primary)` composite-key table (§4.2).
    CompositeStandalone,
}

impl IndexKind {
    /// The options of the LSM tree a stand-alone technique keeps — `base`'s
    /// sizing, no embedded attributes, the Lazy index's merge operator —
    /// or `None` for a technique without a tree of its own.
    pub fn table_options(self, base: &DbOptions) -> Option<DbOptions> {
        let merge_operator: Option<ldbpp_lsm::merge::MergeOperatorRef> = match self {
            IndexKind::None | IndexKind::Embedded => return None,
            IndexKind::EagerStandalone | IndexKind::CompositeStandalone => None,
            IndexKind::LazyStandalone => Some(Arc::new(PostingListMerge)),
        };
        Some(DbOptions {
            indexed_attrs: Vec::new(),
            extractor: None,
            merge_operator,
            ..base.clone()
        })
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::None => "NoIndex",
            IndexKind::Embedded => "Embedded",
            IndexKind::EagerStandalone => "Eager",
            IndexKind::LazyStandalone => "Lazy",
            IndexKind::CompositeStandalone => "Composite",
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so width/alignment format specs work.
        f.pad(self.name())
    }
}

/// One result of a LOOKUP / RANGELOOKUP: the record plus its insertion
/// sequence number (the recency key for top-K).
#[derive(Debug, Clone, PartialEq)]
pub struct LookupHit {
    /// Primary key.
    pub key: Vec<u8>,
    /// Sequence number the record was written at.
    pub seq: u64,
    /// The record.
    pub doc: Document,
}

/// The common interface all four index implementations provide.
///
/// A stand-alone index is one tree of its shard's commit log
/// ([`Db::open_with_trees`]). It never writes to its table: `on_put` /
/// `on_delete` run *inside* the primary write's commit and emit the
/// operations the write implies for the index tree, which the commit
/// logs, inserts and publishes together with the primary record. `seq` is
/// that record's sequence number, so postings and composite entries carry
/// the global recency clock; reads go through `view`, which also shows
/// the commit's earlier operations.
pub trait SecondaryIndex: Send + Sync {
    /// The indexed attribute.
    fn attr(&self) -> &str;
    /// Which technique this is.
    fn kind(&self) -> IndexKind;
    /// Emit the index-tree operations for a PUT at `pk` of a record whose
    /// indexed attribute is `value`.
    fn on_put(
        &self,
        _view: &CommitView<'_>,
        _pk: &[u8],
        _value: &AttrValue,
        _seq: u64,
        _out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        Ok(())
    }
    /// Emit the index-tree operations for a DEL of `pk` whose latest
    /// record had the indexed attribute `old_value`.
    fn on_delete(
        &self,
        _view: &CommitView<'_>,
        _pk: &[u8],
        _old_value: &AttrValue,
        _seq: u64,
        _out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        Ok(())
    }
    /// Memory-side bookkeeping once a PUT is committed and visible (the
    /// Embedded Index's memtable-side B-tree).
    fn after_put(&self, _primary: &Db, _pk: &[u8], _doc: &Document, _seq: u64) {}
    /// `LOOKUP(A, a, K)`: the K most recent valid records with
    /// `val(A) = a` (K = None ⇒ all).
    fn lookup(&self, primary: &Db, value: &AttrValue, k: Option<usize>) -> Result<Vec<LookupHit>>;
    /// `RANGELOOKUP(A, a, b, K)`: the K most recent valid records with
    /// `a ≤ val(A) ≤ b`.
    fn range_lookup(
        &self,
        primary: &Db,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>>;
    /// The tree of a stand-alone index — its number in the shard's
    /// commit log and its table — or `None` for the Embedded Index, whose
    /// structure lives inside primary SSTables and is regenerated by
    /// compaction.
    fn tree(&self) -> Option<(u32, &Arc<Db>)> {
        None
    }
    /// Fold this index's structural violations into `report`: the LSM
    /// checker over any stand-alone table, plus the cross-check that no
    /// live index entry references a primary key with no record at all.
    ///
    /// An entry whose primary key still carries a tombstone is a stale
    /// leftover that read-time validation absorbs, not a violation. The
    /// cross-check is gated on [`Db::erased_keys`]` == 0`: an update
    /// (u1 → u2) leaves the u1 entry behind by design, and once a delete's
    /// tombstone has been compacted away at the base level that entry's
    /// primary key has no record at all — legitimately, crashes or no
    /// crashes. Short of that, an index entry and its primary record are
    /// one commit, and a crash can separate them at no point.
    ///
    /// Default: nothing to check (the Embedded Index has no structure of
    /// its own beyond the primary table, which is checked separately).
    fn check_integrity(&self, _primary: &Db, _report: &mut IntegrityReport) -> Result<()> {
        Ok(())
    }
}

/// Shared [`SecondaryIndex::check_integrity`] body for the two
/// posting-list indexes (Eager and Lazy): run the LSM checker on the index
/// table, then verify every live posting references a primary key that has
/// *some* record (value or tombstone). Deletion markers are skipped.
pub(crate) fn check_posting_table(
    kind: IndexKind,
    attr: &str,
    table: &Db,
    primary: &Db,
    report: &mut IntegrityReport,
) -> Result<()> {
    let ctx = format!("{kind} index '{attr}'");
    report.merge(&ctx, table.check_integrity());
    // Once the primary has fully erased any key at the base level, a stale
    // posting (left behind by an update, then orphaned by a delete whose
    // tombstone was compacted away) is indistinguishable from corruption —
    // the dangling cross-check is only sound while nothing was ever erased.
    let strict = primary.erased_keys() == 0;
    let mut it = table.resolved_iter()?;
    it.seek_to_first();
    while let Some((key, _seq, value)) = it.next_entry()? {
        let postings = match posting::decode_postings(&value) {
            Ok(p) => p,
            Err(e) => {
                report.push(
                    CheckCode::TableUnreadable,
                    format!("{ctx}: undecodable posting list at key {key:02x?}: {e}"),
                );
                continue;
            }
        };
        // Fold to the newest posting per primary key: older entries are
        // shadowed and never consulted, so only the newest can dangle.
        for p in fold_postings(&[postings], true) {
            if !strict || p.deleted {
                continue;
            }
            if primary.newest_record(&p.pk)?.is_none() {
                report.push(
                    CheckCode::DanglingIndexEntry,
                    format!(
                        "{ctx}: posting {:?} (seq {}) references a primary key \
                         with no record",
                        String::from_utf8_lossy(&p.pk),
                        p.seq
                    ),
                );
            }
        }
    }
    Ok(())
}

/// Remove every persisted entry of a stand-alone index's tree in
/// preparation for a full rebuild from the primary (see
/// [`crate::SecondaryDb::rebuild_indexes`]): tombstone every live key of
/// index tree `tree`, in one commit of `primary`'s log, so the rebuild
/// that follows shadows any older on-disk state by sequence order. The
/// Lazy index's merge-operand chains are cut the same way — a deletion
/// marker newer than every fragment ends operand collection at the
/// boundary. Returns the number of index keys cleared.
pub(crate) fn clear_index_table(primary: &Db, tree: u32, table: &Db) -> Result<usize> {
    let mut batch = WriteBatch::new();
    let mut it = table.resolved_iter()?;
    it.seek_to_first();
    while let Some((key, _seq, _value)) = it.next_entry()? {
        batch.push(&BatchOp::delete(tree, &key));
    }
    if !batch.is_empty() {
        primary.write(&mut batch)?;
    }
    Ok(batch.count() as usize)
}

/// Fetch `pk` from the primary table and keep it only if `pred` holds on
/// its attribute `attr` — the stand-alone indexes' validity check ("we
/// make sure val(A_i) = a for each entry ... as there could be invalid
/// keys in the postings list caused by updates on the data table"). The
/// attribute is read from the record's bytes; the document is parsed only
/// for a hit.
pub(crate) fn fetch_if_valid(
    primary: &Db,
    pk: &[u8],
    attr: &str,
    pred: impl Fn(&AttrValue) -> bool,
) -> Result<Option<Document>> {
    let Some(bytes) = primary.get(pk)? else {
        return Ok(None);
    };
    match extract_attr(&bytes, attr)? {
        Some(v) if pred(&v) => Document::parse(&bytes).map(Some),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(IndexKind::Embedded.name(), "Embedded");
        assert_eq!(IndexKind::EagerStandalone.to_string(), "Eager");
        assert_eq!(IndexKind::LazyStandalone.name(), "Lazy");
        assert_eq!(IndexKind::CompositeStandalone.name(), "Composite");
        assert_eq!(IndexKind::None.name(), "NoIndex");
    }
}
