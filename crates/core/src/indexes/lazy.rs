//! The Lazy stand-alone index (paper §4.1.2).
//!
//! Writes append posting-list *fragments* (`PUT(a_i, [k])` and nothing
//! else); fragments scatter across levels and are merged (a) during
//! compaction via [`PostingListMerge`], and (b) at query time by scanning
//! level by level. Lookups can stop as soon as top-K is satisfied at the
//! end of a level, since fragments of one key are time-ordered across
//! levels.

use crate::indexes::posting::{decode_postings, encode_postings, fold_postings, Posting};
use crate::indexes::{fetch_if_valid, IndexKind, LookupHit, SecondaryIndex};
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::{CommitView, Db};
use ldbpp_lsm::ikey::{self, InternalKey, ValueType};
use ldbpp_lsm::merge::MergeOperator;
use ldbpp_lsm::write_batch::BatchOp;
use std::collections::{HashMap, HashSet};
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

    fn lookup(&self, primary: &Db, value: &AttrValue, k: Option<usize>) -> Result<Vec<LookupHit>> {
        // Algorithm 3: walk the fragments level by level (newest first);
        // after each level, stop if top-K is satisfied.
        let mut hits: Vec<LookupHit> = Vec::new();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut validation_error = None;
        self.table
            .fold_key_sources(&value.encode(), |_src, entries| {
                for (vtype, bytes, _entry_seq) in entries {
                    match vtype {
                        ValueType::Deletion => return ControlFlow::Break(()),
                        ValueType::Merge | ValueType::Value => {
                            let postings = match decode_postings(bytes) {
                                Ok(p) => p,
                                Err(e) => {
                                    validation_error = Some(e);
                                    return ControlFlow::Break(());
                                }
                            };
                            for p in postings {
                                if !seen.insert(p.pk.clone()) {
                                    continue; // newer entry for this pk already seen
                                }
                                if p.deleted {
                                    continue;
                                }
                                match fetch_if_valid(primary, &p.pk, &self.attr, |v| v == value) {
                                    Ok(Some(doc)) => hits.push(LookupHit {
                                        key: p.pk,
                                        seq: p.seq,
                                        doc,
                                    }),
                                    Ok(None) => {}
                                    Err(e) => {
                                        validation_error = Some(e);
                                        return ControlFlow::Break(());
                                    }
                                }
                                if k.is_some_and(|k| hits.len() >= k) {
                                    return ControlFlow::Break(());
                                }
                            }
                        }
                    }
                }
                // End of one level: terminate early if top-K found.
                if k.is_some_and(|k| hits.len() >= k) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })?;
        if let Some(e) = validation_error {
            return Err(e);
        }
        hits.sort_by_key(|h| std::cmp::Reverse(h.seq));
        hits.truncate(k.unwrap_or(usize::MAX));
        Ok(hits)
    }

    fn range_lookup(
        &self,
        primary: &Db,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        // Algorithm 6: force the range iterator to scan level by level,
        // because each secondary key's list may be fragmented across
        // levels.
        let lo_enc = lo.encode();
        let hi_enc = hi.encode();
        let mut best: HashMap<Vec<u8>, Posting> = HashMap::new();
        let mut hits: Vec<LookupHit> = Vec::new();
        let mut validated: HashSet<Vec<u8>> = HashSet::new();
        let in_range = |v: &AttrValue| lo <= v && v <= hi;

        // Index keys are exactly `AttrValue::encode`, so the encoded bounds
        // give the source stack a tight range: files outside it contribute
        // no iterator, and the lazy ConcatIters open nothing until the seek.
        for (_src, mut it) in self
            .table
            .source_iterators_range(Some((&lo_enc, &hi_enc)))?
        {
            it.seek(&InternalKey::for_seek(&lo_enc, ikey::MAX_SEQUENCE).0);
            while it.valid() {
                let (user_key, _seq, vtype) = ikey::parse_internal_key(it.key())?;
                let av = AttrValue::decode(user_key)?;
                if av > *hi {
                    break;
                }
                if vtype != ValueType::Deletion {
                    for p in decode_postings(it.value())? {
                        let candidate = best.entry(p.pk.clone()).or_insert_with(|| p.clone());
                        if p.seq > candidate.seq {
                            *candidate = p;
                        }
                    }
                }
                it.next();
            }
            // Validate the current candidate pool newest-first; stop at the
            // end of a level once K hits are confirmed.
            let mut pool: Vec<&Posting> = best.values().filter(|p| !p.deleted).collect();
            pool.sort_by_key(|p| std::cmp::Reverse(p.seq));
            for p in pool {
                if k.is_some_and(|k| hits.len() >= k) {
                    break;
                }
                if !validated.insert(p.pk.clone()) {
                    continue;
                }
                if let Some(doc) = fetch_if_valid(primary, &p.pk, &self.attr, in_range)? {
                    hits.push(LookupHit {
                        key: p.pk.clone(),
                        seq: p.seq,
                        doc,
                    });
                }
            }
            if k.is_some_and(|k| hits.len() >= k) {
                break;
            }
        }
        hits.sort_by_key(|h| std::cmp::Reverse(h.seq));
        hits.truncate(k.unwrap_or(usize::MAX));
        Ok(hits)
    }

    fn tree(&self) -> Option<(u32, &Arc<Db>)> {
        Some((self.tree, &self.table))
    }

    fn check_integrity(
        &self,
        primary: &Db,
        report: &mut ldbpp_lsm::check::IntegrityReport,
    ) -> Result<()> {
        crate::indexes::check_posting_table(self.kind(), &self.attr, &self.table, primary, report)
    }
}
