//! The Composite stand-alone index (paper §4.2).
//!
//! Each index entry's key is `encode_composite(secondary) ‖ primary_key`;
//! the value stores only the sequence number. A secondary lookup is a
//! prefix range scan. Because compaction picks files round-robin by key
//! range, composite entries for one secondary key are *not* time-ordered
//! across levels, so lookups must traverse every level before top-K can be
//! decided — the paper's explanation for Composite losing to Lazy at small
//! top-K.

use crate::indexes::{IndexKind, LookupHit, Posting, SecondaryIndex, TopKLoop};
use ldbpp_common::coding::{decode_fixed64, put_fixed64};
use ldbpp_common::Result;
use ldbpp_lsm::attr::AttrValue;
use ldbpp_lsm::db::{CommitView, Db, ResolvedIter};
use ldbpp_lsm::write_batch::BatchOp;
use std::sync::Arc;

/// Stand-alone composite-key index.
pub struct CompositeIndex {
    attr: String,
    tree: u32,
    table: Arc<Db>,
}

impl CompositeIndex {
    /// The index on `attr` kept in `table`, tree `tree` of its shard's
    /// commit log.
    pub fn new(attr: &str, tree: u32, table: Arc<Db>) -> CompositeIndex {
        CompositeIndex {
            attr: attr.to_string(),
            tree,
            table,
        }
    }

    fn composite_key(value: &AttrValue, pk: &[u8]) -> Vec<u8> {
        let mut key = value.encode_composite();
        key.extend_from_slice(pk);
        key
    }

    /// Every index entry with `lo ≤ secondary ≤ hi`, as a posting, from
    /// **all** levels: one secondary key's entries are not time-ordered
    /// across levels, so nothing short of the full range scan bounds them.
    ///
    /// Streams through a bounded [`Db::range_iter`]: index files outside
    /// `[lo, successor(hi)]` are never opened and the merge stops at the
    /// range end, so the scan cost tracks the posting range, not the table.
    fn scan(&self, lo: &AttrValue, hi: &AttrValue) -> Result<Vec<Posting>> {
        let lo_key = lo.encode_composite();
        let it = match prefix_successor(hi.encode_composite()) {
            // `successor(hi‖…)` over-approximates the inclusive bound on
            // full composite keys; the exact `av > hi` check in `entries`
            // trims the at-most-one surplus key.
            Some(end) => self.table.range_iter(&lo_key, &end)?,
            None => {
                // All-0xFF prefix: no finite successor, scan unbounded.
                let mut it = self.table.resolved_iter()?;
                it.seek(&lo_key);
                it
            }
        };
        entries(it, Some(hi), |_, p| p)
    }
}

/// The entries a positioned cursor yields up to secondary value `hi`, each
/// `(value, posting)` mapped by `f`; a malformed entry is skipped.
fn entries<T>(
    mut it: ResolvedIter,
    hi: Option<&AttrValue>,
    f: impl Fn(AttrValue, Posting) -> T,
) -> Result<Vec<T>> {
    let mut out = Vec::new();
    while let Some((key, _seq, value)) = it.next_entry()? {
        let (av, pk) = AttrValue::decode_composite(&key)?;
        if hi.is_some_and(|hi| av > *hi) {
            break;
        }
        if value.len() == 8 {
            out.push(f(av, Posting::insert(pk, decode_fixed64(&value))));
        }
    }
    Ok(out)
}

/// Smallest byte string strictly greater than every string that starts
/// with `prefix` (`None` when the prefix is all `0xFF` — no successor).
fn prefix_successor(mut prefix: Vec<u8>) -> Option<Vec<u8>> {
    while let Some(last) = prefix.last_mut() {
        if *last == 0xFF {
            prefix.pop();
        } else {
            *last += 1;
            return Some(prefix);
        }
    }
    None
}

impl SecondaryIndex for CompositeIndex {
    fn attr(&self) -> &str {
        &self.attr
    }

    fn kind(&self) -> IndexKind {
        IndexKind::CompositeStandalone
    }

    fn on_put(
        &self,
        _view: &CommitView<'_>,
        pk: &[u8],
        value: &AttrValue,
        seq: u64,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        let mut seq_bytes = Vec::with_capacity(8);
        put_fixed64(&mut seq_bytes, seq);
        let key = Self::composite_key(value, pk);
        out.push(BatchOp::put(self.tree, &key, &seq_bytes));
        Ok(())
    }

    fn on_delete(
        &self,
        _view: &CommitView<'_>,
        pk: &[u8],
        old_value: &AttrValue,
        _seq: u64,
        out: &mut Vec<BatchOp>,
    ) -> Result<()> {
        // "A DEL operation inserts the composite key with a deletion marker
        // in [the] index table": an LSM tombstone on the composite key.
        let key = Self::composite_key(old_value, pk);
        out.push(BatchOp::delete(self.tree, &key));
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
        top.batch(self.scan(lo, hi)?, 0)?;
        top.finish()
    }

    fn tree(&self) -> Option<(u32, &Arc<Db>)> {
        Some((self.tree, &self.table))
    }

    fn live_entries(&self) -> Result<Vec<(AttrValue, Posting)>> {
        let mut it = self.table.resolved_iter()?;
        it.seek_to_first();
        entries(it, None, |v, p| (v, p))
    }
}
