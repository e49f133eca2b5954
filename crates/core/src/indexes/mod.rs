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

use crate::doc::{extract_attrs, Document};
use crate::indexes::posting::fold_postings;
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::check::{CheckCode, IntegrityReport};
use ldbpp_lsm::db::{CommitView, Db, DbOptions};
use ldbpp_lsm::ikey::ValueType;
use ldbpp_lsm::model_bugs::{self, Fault};
use ldbpp_lsm::write_batch::{BatchOp, WriteBatch};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
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
/// the commit's earlier operations. What an index holds is checked
/// against its primary through [`SecondaryIndex::live_entries`], by the
/// one rule reads use: a posting is current iff it carries its record's
/// sequence.
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
    /// `RANGELOOKUP(A, lo, hi, K)`: the K most recent valid records with
    /// `lo ≤ val(A) ≤ hi`, newest first (K = None ⇒ all). `LOOKUP(A, a, K)`
    /// is the query with `lo == hi == a`.
    ///
    /// A stand-alone index answers it by walking its table into a
    /// `TopKLoop`, which validates every candidate; the Embedded Index
    /// scans the primary and validates with `GetLite`.
    fn query(
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
    /// Every live entry of a stand-alone index's table as `(value,
    /// posting)`, newest posting per `(value, pk)`, read through
    /// [`Db::resolved_iter`] so an index-tree tombstone hides what it
    /// hides from queries. What the index ≡ primary check compares.
    ///
    /// Default: a posting-list table (Eager and Lazy), each key an encoded
    /// value and each resolved value its list; no entries without a tree.
    fn live_entries(&self) -> Result<Vec<(AttrValue, Posting)>> {
        let mut out = Vec::new();
        let Some((_, table)) = self.tree() else {
            return Ok(out);
        };
        let mut it = table.resolved_iter()?;
        it.seek_to_first();
        while let Some((key, _seq, list)) = it.next_entry()? {
            let value = AttrValue::decode(&key)?;
            for p in fold_postings(&[decode_postings(&list)?], true) {
                out.push((value.clone(), p));
            }
        }
        Ok(out)
    }
}

/// The exact index ≡ primary check (DESIGN.md §12.3), the one place that
/// decides what makes a stand-alone index wrong. A posting `(v, pk, seq)`
/// is current iff the primary's newest record for `pk` is a `Value` at
/// `seq` (the `TopKLoop` rule); any other is stale, and reads drop it. An
/// [`CheckCode::IndexMismatch`] is what changes an answer: a live record
/// without a current posting under its value (missing), a current posting
/// under another value (misfiled), a posting not older than its key's
/// newest record, and one above the primary's last sequence.
pub(crate) fn check_against_primary(
    primary: &Db,
    indexes: &[Box<dyn SecondaryIndex>],
    report: &mut IntegrityReport,
) -> Result<()> {
    let attrs: Vec<&str> = indexes.iter().map(|i| i.attr()).collect();
    // Every live record: its sequence and each attribute's value, taken as
    // a rebuild takes them. A record that is not a document has none.
    let mut records: BTreeMap<Vec<u8>, (u64, Vec<Option<AttrValue>>)> = BTreeMap::new();
    let mut it = primary.resolved_iter()?;
    it.seek_to_first();
    while let Some((pk, seq, bytes)) = it.next_entry()? {
        let values = extract_attrs(&bytes, &attrs).unwrap_or_else(|_| vec![None; attrs.len()]);
        records.insert(pk, (seq, values));
    }
    let clock = primary.last_sequence();
    for (i, index) in indexes.iter().enumerate() {
        if index.tree().is_none() {
            continue; // the Embedded Index lives in the primary's own tables
        }
        let ctx = format!("{} index '{}'", index.kind(), index.attr());
        let mut current = HashSet::new();
        for (value, p) in index.live_entries()? {
            let problem = match records.get(&p.pk) {
                _ if p.seq > clock => Some(format!("is beyond the last sequence {clock}")),
                Some((seq, values)) if p.seq == *seq && !p.deleted => {
                    let filed = values[i].as_ref() == Some(&value);
                    if filed {
                        current.insert(p.pk.clone());
                    }
                    (!filed).then(|| format!("is current, but the record holds {:?}", values[i]))
                }
                Some((seq, _)) => {
                    (p.seq >= *seq).then(|| format!("is not older than its record (seq {seq})"))
                }
                // No live record: only a tombstone can be older than it.
                None => (primary.newest_record(&p.pk)?)
                    .filter(|(_, seq, _)| p.seq > *seq)
                    .map(|(_, seq, _)| format!("is newer than its record (seq {seq})")),
            };
            if let Some(problem) = problem {
                let pk = String::from_utf8_lossy(&p.pk);
                let detail = format!("{ctx}: posting {value:?}→{pk:?} (seq {}) {problem}", p.seq);
                report.push(CheckCode::IndexMismatch, detail);
            }
        }
        for (pk, (seq, values)) in &records {
            let Some(value) = values[i].as_ref().filter(|_| !current.contains(pk)) else {
                continue;
            };
            let pk = String::from_utf8_lossy(pk);
            let detail = format!("{ctx}: record {pk:?} (seq {seq}) has no posting under {value:?}");
            report.push(CheckCode::IndexMismatch, detail);
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

/// The one top-K loop of the stand-alone indexes: the paper's Algorithm 1
/// heap, validating by sequence and stopping exactly at K hits.
///
/// An index only walks its table. It hands the loop batches of postings
/// ([`TopKLoop::batch`]), each with a *bound*: every posting the walk has
/// yet to hand over has a sequence below it. The loop keeps all postings in
/// one max-heap on `seq`; after each batch it pops while the top is at or
/// above the bound, so postings leave the heap in global recency order.
///
/// The newest popped posting of a primary key decides that key. A delete
/// marker hides it. An insert is a hit iff the primary's newest record for
/// the key is a `Value` at exactly the posting's sequence — a posting
/// carries its record's sequence, so this is the whole validity check (the
/// paper fetches the record and tests `val(A)`; its `GetLite` already
/// compares sequences). Older postings of a decided key are skipped: if the
/// newest one is stale, the primary holds something newer still. A
/// `Document` is parsed only for a hit.
pub(crate) struct TopKLoop<'a> {
    primary: &'a Db,
    k: usize,
    heap: BinaryHeap<(u64, bool, Vec<u8>)>,
    decided: HashSet<Vec<u8>>,
    hits: Vec<LookupHit>,
    first_batch: bool,
}

impl<'a> TopKLoop<'a> {
    /// A loop collecting at most `k` hits (`None` = all) from `primary`.
    pub(crate) fn new(primary: &'a Db, k: Option<usize>) -> TopKLoop<'a> {
        TopKLoop {
            primary,
            k: k.unwrap_or(usize::MAX),
            heap: BinaryHeap::new(),
            decided: HashSet::new(),
            hits: Vec::new(),
            first_batch: true,
        }
    }

    /// Take a batch of postings, then validate every held posting whose
    /// sequence is at or above `bound`. Returns `true` once K hits are
    /// found: the walk can stop.
    pub(crate) fn batch(&mut self, mut postings: Vec<Posting>, bound: u64) -> Result<bool> {
        // Seeded bug (model-checker fault injection, off by default):
        // truncate the first batch to K before validating, so stale
        // postings crowd out valid older ones and the query under-fills K.
        if std::mem::take(&mut self.first_batch) && model_bugs::enabled(Fault::EagerKPrefix) {
            postings.truncate(self.k);
        }
        self.heap
            .extend(postings.into_iter().map(|p| (p.seq, p.deleted, p.pk)));
        while self.hits.len() < self.k {
            let Some(top) = self.heap.peek_mut().filter(|top| top.0 >= bound) else {
                return Ok(false);
            };
            let (seq, deleted, pk) = PeekMut::pop(top);
            if self.decided.contains(&pk) {
                continue;
            }
            if !deleted {
                if let Some((ValueType::Value, newest, bytes)) = self.primary.newest_record(&pk)? {
                    if newest == seq {
                        let doc = Document::parse(&bytes)?;
                        self.hits.push(LookupHit {
                            key: pk.clone(),
                            seq,
                            doc,
                        });
                    }
                }
            }
            self.decided.insert(pk);
        }
        Ok(true)
    }

    /// Validate whatever the walk left in the heap and return the hits,
    /// newest first.
    pub(crate) fn finish(mut self) -> Result<Vec<LookupHit>> {
        self.batch(Vec::new(), 0)?;
        Ok(self.hits)
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
