//! The Eager stand-alone index (paper §4.1.1).
//!
//! A separate LSM table maps each attribute value to its full posting list.
//! Every PUT does a read-modify-write of that list ("first reads the
//! current postings list of a_i, adds k to the list and writes back the
//! updated list") — which is why the paper finds its write amplification
//! explodes (`WAMF = PL_S · 2·(N+1)·(L−1)`).

use crate::indexes::posting::{decode_postings, encode_postings, fold_postings, Posting};
use crate::indexes::{IndexKind, LookupHit, SecondaryIndex, TopKLoop};
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::{CommitView, Db};
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

    fn query(
        &self,
        primary: &Db,
        lo: &AttrValue,
        hi: &AttrValue,
        k: Option<usize>,
    ) -> Result<Vec<LookupHit>> {
        // Every list in range, as one batch. A LOOKUP reads its one list
        // with a GET: the newest list shadows all older ones (Algorithm 2).
        // A range streams the lists through a cursor whose bounds are the
        // encoded values (index keys are exactly `AttrValue::encode`), so
        // no list outside `[lo, hi]` is decoded and no index file outside
        // the range is opened. A stale posting (its record moved to another
        // value) stays in the old value's list; the loop drops it.
        let mut postings = Vec::new();
        if lo == hi {
            if let Some(bytes) = self.table.get(&lo.encode())? {
                postings = decode_postings(&bytes)?;
            }
        } else {
            let mut it = self.table.range_iter(&lo.encode(), &hi.encode())?;
            while let Some((_key, _seq, bytes)) = it.next_entry()? {
                postings.extend(decode_postings(&bytes)?);
            }
        }
        let mut top = TopKLoop::new(primary, k);
        top.batch(postings, 0)?;
        top.finish()
    }

    fn tree(&self) -> Option<(u32, &Arc<Db>)> {
        Some((self.tree, &self.table))
    }
}
