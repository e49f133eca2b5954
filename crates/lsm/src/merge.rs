//! RocksDB-style merge operator hook.
//!
//! The Lazy stand-alone index writes posting-list *fragments*:
//! `PUT(a_i, [k])` appends a new operand instead of read-modify-writing the
//! full list. Fragments for the same secondary key accumulate across levels
//! and are folded (a) at query time by `Db::get`, and (b) physically during
//! compaction — exactly the paper's "the old postings list of u is merged
//! with (u,{t4}) later, during the periodic compaction phase".

use ldbpp_common::{Error, Result};
use std::sync::Arc;

/// Folds merge operands for a table.
///
/// Operands are always presented **oldest first**. An associative operator
/// (like posting-list union) may be folded incrementally at any level.
///
/// An operand or base the operator cannot read is an error, never a
/// shorter value: the read or compaction that met it fails and the
/// entries stay on disk as they were.
pub trait MergeOperator: Send + Sync {
    /// Fold `operands` on top of an optional base value into a full value.
    ///
    /// Called by `get` after collecting every visible operand, and by
    /// compaction when operands meet a base `Value` record.
    fn full_merge(&self, key: &[u8], base: Option<&[u8]>, operands: &[&[u8]]) -> Result<Vec<u8>>;

    /// Combine adjacent operands into a single replacement operand during
    /// compaction (no base value in sight). `at_bottom` is true when no
    /// older data for `key` can exist below the compaction output — the
    /// operator may then discard deletion markers it carries.
    fn partial_merge(&self, key: &[u8], operands: &[&[u8]], at_bottom: bool) -> Result<Vec<u8>>;
}

/// A merge operator that concatenates operands byte-wise (test helper and
/// simplest useful semantics).
#[derive(Debug, Default, Clone, Copy)]
pub struct ConcatMerge;

impl MergeOperator for ConcatMerge {
    fn full_merge(&self, _key: &[u8], base: Option<&[u8]>, operands: &[&[u8]]) -> Result<Vec<u8>> {
        let mut out = base.map(|b| b.to_vec()).unwrap_or_default();
        for op in operands {
            out.extend_from_slice(op);
        }
        Ok(out)
    }

    fn partial_merge(&self, _key: &[u8], operands: &[&[u8]], _at_bottom: bool) -> Result<Vec<u8>> {
        Ok(operands.concat())
    }
}

/// Shared handle to a merge operator.
pub type MergeOperatorRef = Arc<dyn MergeOperator>;

/// Fold the operands a read collected for `key` — **newest first**, the
/// order sources yield them — onto `base` (`None` when the run ended at a
/// tombstone or at the oldest entry). The one fold behind point reads and
/// resolved iterators.
pub(crate) fn fold_newest_first(
    op: Option<&MergeOperatorRef>,
    key: &[u8],
    base: Option<&[u8]>,
    mut operands: Vec<Vec<u8>>,
) -> Result<Vec<u8>> {
    let Some(op) = op else {
        return Err(Error::not_supported(
            "merge entries present but no merge operator configured",
        ));
    };
    operands.reverse();
    let refs: Vec<&[u8]> = operands.iter().map(Vec::as_slice).collect();
    op.full_merge(key, base, &refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_full_merge() {
        let m = ConcatMerge;
        assert_eq!(
            m.full_merge(b"k", Some(b"a"), &[b"b", b"c"]).unwrap(),
            b"abc"
        );
        assert_eq!(m.full_merge(b"k", None, &[b"x"]).unwrap(), b"x");
        assert_eq!(m.full_merge(b"k", None, &[]).unwrap(), b"");
    }

    #[test]
    fn concat_partial_merge() {
        let m = ConcatMerge;
        assert_eq!(
            m.partial_merge(b"k", &[b"1", b"2", b"3"], false).unwrap(),
            b"123"
        );
        assert_eq!(m.partial_merge(b"k", &[], true).unwrap(), b"");
    }
}
