//! The Eager stand-alone index (paper §4.1.1).
//!
//! A separate LSM table maps each attribute value to its full posting list.
//! Every PUT does a read-modify-write of that list ("first reads the
//! current postings list of a_i, adds k to the list and writes back the
//! updated list") — which is why the paper finds its write amplification
//! explodes (`WAMF = PL_S · 2·(N+1)·(L−1)`).

use crate::indexes::posting::{decode_postings, encode_postings, fold_postings, Posting};
use crate::indexes::{fetch_if_valid, IndexKind, LookupHit, SecondaryIndex};
use crate::topk::TopK;
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::{CommitView, Db};
use ldbpp_lsm::model_bugs::{self, Fault};
use ldbpp_lsm::write_batch::BatchOp;
use std::sync::Arc;

/// Stand-alone posting-list index with eager (in-place) updates.
pub struct EagerIndex {
    attr: String,
    tree: u32,
    table: Arc<Db>,
}

impl EagerIndex {
    /// The index on `attr` kept in `table`, tree `tree` of its shard's
    /// commit log.
    pub fn new(attr: &str, tree: u32, table: Arc<Db>) -> EagerIndex {
        EagerIndex {
            attr: attr.to_string(),
            tree,
            table,
        }
    }

    /// Read the list of `value` as the commit sees it and emit its
    /// replacement. The commit serialises the pair with every other write
    /// of the shard, so two writers under one value cannot lose a posting.
    fn read_modify_write(
        &self,
        view: &CommitView<'_>,
        value: &AttrValue,
        update: impl FnOnce(Vec<Posting>) -> Vec<Posting>,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        let key = value.encode();
        let current = match view.get(self.tree, &key)? {
            Some(bytes) => decode_postings(&bytes)?,
            None => Vec::new(),
        };
        let updated = update(current);
        out.push(BatchOp::put(self.tree, &key, &encode_postings(&updated)?));
        Ok(())
    }
}

impl SecondaryIndex for EagerIndex {
    fn attr(&self) -> &str {
        &self.attr
    }

    fn kind(&self) -> IndexKind {
        IndexKind::EagerStandalone
    }

    fn on_put(
        &self,
        view: &CommitView<'_>,
        pk: &[u8],
        value: &AttrValue,
        seq: u64,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        let entry = Posting::insert(pk.to_vec(), seq);
        let keep_newest = move |current| {
            // Keep at most one entry per primary key (the new one).
            fold_postings(&[vec![entry], current], true)
        };
        self.read_modify_write(view, value, keep_newest, out)
    }

    fn on_delete(
        &self,
        view: &CommitView<'_>,
        pk: &[u8],
        old_value: &AttrValue,
        _seq: u64,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        // Eager updates can physically remove the key from the list.
        let remove = |mut current: Vec<Posting>| {
            current.retain(|p| p.pk != pk);
            current
        };
        self.read_modify_write(view, old_value, remove, out)
    }

    fn lookup(&self, primary: &Db, value: &AttrValue, k: Option<usize>) -> Result<Vec<LookupHit>> {
        // One read suffices: the newest list shadows all older ones
        // (Algorithm 2).
        let postings = match self.table.get(&value.encode())? {
            Some(bytes) => decode_postings(&bytes)?,
            None => return Ok(Vec::new()),
        };
        let mut hits = Vec::new();
        for p in postings {
            if p.deleted {
                continue;
            }
            if let Some(doc) = fetch_if_valid(primary, &p.pk, &self.attr, |v| v == value)? {
                hits.push(LookupHit {
                    key: p.pk,
                    seq: p.seq,
                    doc,
                });
                if Some(hits.len()) == k {
                    break;
                }
            }
        }
        Ok(hits)
    }

    fn range_lookup(
        &self,
        primary: &Db,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        // Stream every matching list into a min-heap keyed by sequence
        // number (Algorithm: "retrieve primary keys from the posting list
        // ... add to the min-heap"). Each list is fully decoded by the
        // cursor anyway, so admitting all live entries costs no extra I/O
        // — and, unlike truncating each list to a K-prefix up front, it
        // cannot under-fill K when stale entries (updates that moved a key
        // to another value) occupy a list's newest slots: validation below
        // keeps drawing older candidates until K *valid* hits are found.
        // Index keys are exactly `AttrValue::encode`, so the encoded
        // bounds make a tight range for the lazy cursor: no list outside
        // `[lo, hi]` is decoded and no index file outside the range is
        // opened.
        // Seeded bug (model-checker fault injection, off by default):
        // bound the candidate heap at K before validation, re-creating
        // the under-fill described above.
        let cap = k.filter(|_| model_bugs::enabled(Fault::EagerKPrefix));
        let mut candidates: TopK<Vec<u8>> = TopK::new(cap);
        let mut it = self.table.range_iter(&lo.encode(), &hi.encode())?;
        while let Some((key, _seq, bytes)) = it.next_entry()? {
            let av = AttrValue::decode(&key)?;
            if av > *hi {
                break; // defensive: range_iter already ends at hi
            }
            for p in decode_postings(&bytes)? {
                if !p.deleted {
                    candidates.add(p.seq, p.pk);
                }
            }
        }
        let in_range = |v: &AttrValue| lo <= v && v <= hi;
        let mut hits = Vec::new();
        // A pk can appear under several attribute values (stale entries
        // from updates); only its newest candidate may produce a hit.
        let mut seen = std::collections::HashSet::new();
        for (seq, pk) in candidates.into_sorted() {
            if Some(hits.len()) == k {
                break;
            }
            if !seen.insert(pk.clone()) {
                continue;
            }
            if let Some(doc) = fetch_if_valid(primary, &pk, &self.attr, in_range)? {
                hits.push(LookupHit { key: pk, seq, doc });
            }
        }
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
