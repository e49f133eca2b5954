//! The Lazy stand-alone index (paper §4.1.2).
//!
//! Writes append posting-list *fragments* (`PUT(a_i, [k])` and nothing
//! else); fragments scatter across levels and are merged (a) during
//! compaction via [`PostingListMerge`], and (b) at query time, where the
//! walk hands every fragment it reads to the shared top-K loop
//! (`TopKLoop`), which validates postings by sequence.
//!
//! A LOOKUP walks one key's fragments source by source and can stop as
//! soon as top-K is satisfied, since fragments of one key are time-ordered
//! across levels (Algorithm 3). A RANGELOOKUP reads every source in range:
//! fragments of *different* keys are not time-ordered across levels once
//! round-robin compaction has pushed some of them deeper, so the paper's
//! level-end stop (Algorithm 6) could return an older posting of a record
//! than a deeper level holds.

use crate::indexes::posting::{decode_postings, encode_postings, fold_postings, Posting};
use crate::indexes::{IndexKind, LookupHit, SecondaryIndex, TopKLoop};
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::{CommitView, Db};
use ldbpp_lsm::ikey::{self, InternalKey, ValueType};
use ldbpp_lsm::merge::MergeOperator;
use ldbpp_lsm::write_batch::BatchOp;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Merge operator folding posting-list fragments during compaction — the
/// paper's "the old postings list of u is merged with (u, {t4}) later,
/// during the periodic compaction phase".
#[derive(Debug, Default, Clone, Copy)]
pub struct PostingListMerge;

impl MergeOperator for PostingListMerge {
    fn full_merge(&self, _key: &[u8], base: Option<&[u8]>, operands: &[&[u8]]) -> Result<Vec<u8>> {
        // Operands arrive oldest first; fold_postings wants newest first.
        // A base value (a previously finalized list) is the oldest of all.
        let mut lists = decode_newest_first(operands)?;
        if let Some(b) = base {
            lists.push(decode_postings(b)?);
        }
        // Nothing older can survive below a full merge: markers drop.
        encode_postings(&fold_postings(&lists, false))
    }

    fn partial_merge(&self, _key: &[u8], operands: &[&[u8]], at_bottom: bool) -> Result<Vec<u8>> {
        // Deletion markers must survive while older fragments may still
        // exist in deeper levels.
        encode_postings(&fold_postings(&decode_newest_first(operands)?, !at_bottom))
    }
}

/// Decode merge operands (given oldest first) into lists, newest first.
fn decode_newest_first(operands: &[&[u8]]) -> Result<Vec<Vec<Posting>>> {
    operands
        .iter()
        .rev()
        .map(|op| decode_postings(op))
        .collect()
}

/// Stand-alone posting-list index with lazy (append-only) updates.
pub struct LazyIndex {
    attr: String,
    tree: u32,
    table: Arc<Db>,
}

impl LazyIndex {
    /// The index on `attr` kept in `table` (opened with
    /// [`PostingListMerge`]), tree `tree` of its shard's commit log.
    pub fn new(attr: &str, tree: u32, table: Arc<Db>) -> LazyIndex {
        LazyIndex {
            attr: attr.to_string(),
            tree,
            table,
        }
    }

    /// LOOKUP's walk (Algorithm 3): one key's fragments, newest first —
    /// memtables, each L0 file, each level — one batch per fragment. One
    /// key's versions are time-ordered down the sources, so nothing still
    /// to come is as new as the smallest posting sequence seen so far:
    /// that is each batch's bound, and the walk stops at the fragment
    /// after which the loop holds K hits, reading no source beyond it.
    fn walk_key(&self, key: &[u8], top: &mut TopKLoop<'_>) -> Result<()> {
        let mut bound = u64::MAX;
        let mut failed = None;
        self.table.fold_key_sources(key, |_src, entries| {
            for (vtype, bytes, _seq) in entries {
                if *vtype == ValueType::Deletion {
                    return ControlFlow::Break(()); // a cleared list: nothing older counts
                }
                let step = decode_postings(bytes).and_then(|postings| {
                    bound = postings.iter().fold(bound, |b, p| b.min(p.seq));
                    top.batch(postings, bound)
                });
                match step {
                    Ok(false) => {}
                    Ok(true) => return ControlFlow::Break(()),
                    Err(e) => {
                        failed = Some(e);
                        return ControlFlow::Break(());
                    }
                }
            }
            ControlFlow::Continue(())
        })?;
        failed.map_or(Ok(()), Err)
    }

    /// RANGELOOKUP's walk: every posting of every key in `[lo, hi]` from
    /// every source. Unlike one key's fragments, different keys are not
    /// time-ordered across levels once round-robin compaction has pushed
    /// some of them deeper, so no source bounds the ones below it: the
    /// paper's level-end stop (Algorithm 6) is not taken.
    fn range_postings(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<Posting>> {
        let mut postings = Vec::new();
        // Keys whose list a newer source cleared (a tombstone written by
        // `rebuild_indexes`): their older fragments do not count.
        let mut cleared: HashSet<Vec<u8>> = HashSet::new();
        // Index keys are exactly `AttrValue::encode`, so the encoded bounds
        // give the source stack a tight range: files outside it contribute
        // no iterator, and the lazy ConcatIters open nothing until the seek.
        for (_src, mut it) in self.table.source_iterators_range(Some((lo, hi)))? {
            it.seek(&InternalKey::for_seek(lo, ikey::MAX_SEQUENCE).0);
            while it.valid() {
                let (key, _seq, vtype) = ikey::parse_internal_key(it.key())?;
                if key > hi {
                    break;
                }
                if vtype == ValueType::Deletion {
                    cleared.insert(key.to_vec());
                } else if !cleared.contains(key) {
                    postings.extend(decode_postings(it.value())?);
                }
                it.next();
            }
            it.status()?;
        }
        Ok(postings)
    }
}

impl SecondaryIndex for LazyIndex {
    fn attr(&self) -> &str {
        &self.attr
    }

    fn kind(&self) -> IndexKind {
        IndexKind::LazyStandalone
    }

    fn on_put(
        &self,
        _view: &CommitView<'_>,
        pk: &[u8],
        value: &AttrValue,
        seq: u64,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        let fragment = encode_postings(&[Posting::insert(pk.to_vec(), seq)])?;
        out.push(BatchOp::merge(self.tree, &value.encode(), &fragment));
        Ok(())
    }

    fn on_delete(
        &self,
        _view: &CommitView<'_>,
        pk: &[u8],
        old_value: &AttrValue,
        seq: u64,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        let marker = encode_postings(&[Posting::delete(pk.to_vec(), seq)])?;
        out.push(BatchOp::merge(self.tree, &old_value.encode(), &marker));
        Ok(())
    }

    fn query(
        &self,
        primary: &Db,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        let mut top = TopKLoop::new(primary, k);
        if lo == hi {
            self.walk_key(&lo.encode(), &mut top)?;
        } else {
            top.batch(self.range_postings(&lo.encode(), &hi.encode())?, 0)?;
        }
        top.finish()
    }

    fn tree(&self) -> Option<(u32, &Arc<Db>)> {
        Some((self.tree, &self.table))
    }
}
