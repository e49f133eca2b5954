//! Iterator abstractions: the `DbIterator` trait and a merging iterator.
//!
//! All iterators in the engine yield **encoded internal keys** in
//! internal-key order (user key ascending, sequence descending). Higher
//! layers decide how to interpret duplicate user keys, tombstones and merge
//! operands.

use crate::ikey::compare_internal;
use ldbpp_common::Result;
use std::cmp::Ordering;

/// A forward iterator over (internal key, value) pairs.
pub trait DbIterator {
    /// Position at the first entry.
    fn seek_to_first(&mut self);
    /// Position at the first entry with internal key ≥ `target`.
    fn seek(&mut self, target: &[u8]);
    /// Whether the iterator points at an entry.
    fn valid(&self) -> bool;
    /// Advance (requires `valid()`).
    fn next(&mut self);
    /// Current encoded internal key (requires `valid()`).
    fn key(&self) -> &[u8];
    /// Current value (requires `valid()`).
    fn value(&self) -> &[u8];
    /// Why the iterator stopped early, if it did: a source that fails to
    /// read goes invalid and keeps the error here. Read it once the
    /// iterator is invalid or the caller stops, not per entry.
    fn status(&self) -> Result<()> {
        Ok(())
    }
}

/// Merges child iterators into one sorted stream.
///
/// Ties (identical internal keys cannot occur; identical user keys differ by
/// sequence) resolve by key comparison alone. With `n` children the merge
/// does an `O(n)` scan per step — `n` is the handful of levels plus L0
/// files, so a heap would be overkill (and this matches LevelDB).
pub struct MergingIterator {
    children: Vec<Box<dyn DbIterator>>,
    current: Option<usize>,
}

impl MergingIterator {
    /// Merge the given children.
    pub fn new(children: Vec<Box<dyn DbIterator>>) -> MergingIterator {
        MergingIterator {
            children,
            current: None,
        }
    }

    fn find_smallest(&mut self) {
        let mut best: Option<usize> = None;
        for (i, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if compare_internal(child.key(), self.children[b].key()) == Ordering::Less {
                        best = Some(i);
                    }
                }
            }
        }
        self.current = best;
    }
}

impl DbIterator for MergingIterator {
    fn seek_to_first(&mut self) {
        for c in &mut self.children {
            c.seek_to_first();
        }
        self.find_smallest();
    }

    fn seek(&mut self, target: &[u8]) {
        for c in &mut self.children {
            c.seek(target);
        }
        self.find_smallest();
    }

    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn next(&mut self) {
        if let Some(i) = self.current {
            self.children[i].next();
            self.find_smallest();
        }
    }

    fn key(&self) -> &[u8] {
        self.children[self.current.expect("valid")].key()
    }

    fn value(&self) -> &[u8] {
        self.children[self.current.expect("valid")].value()
    }

    /// The first child's error: a failed child drops out of the merge, so
    /// the merged stream would otherwise end short without one.
    fn status(&self) -> Result<()> {
        self.children.iter().try_for_each(|c| c.status())
    }
}

/// An iterator over an in-memory vector of (internal key, value) pairs —
/// used by tests and by the memtable snapshot path.
pub struct VecIterator {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
    valid: bool,
}

impl VecIterator {
    /// Build from entries already sorted by internal key.
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> VecIterator {
        debug_assert!(entries
            .windows(2)
            .all(|w| compare_internal(&w[0].0, &w[1].0) == Ordering::Less));
        VecIterator {
            entries,
            pos: 0,
            valid: false,
        }
    }
}

impl DbIterator for VecIterator {
    fn seek_to_first(&mut self) {
        self.pos = 0;
        self.valid = !self.entries.is_empty();
    }

    fn seek(&mut self, target: &[u8]) {
        self.pos = self
            .entries
            .partition_point(|(k, _)| compare_internal(k, target) == Ordering::Less);
        self.valid = self.pos < self.entries.len();
    }

    fn valid(&self) -> bool {
        self.valid
    }

    fn next(&mut self) {
        debug_assert!(self.valid);
        self.pos += 1;
        self.valid = self.pos < self.entries.len();
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ikey::{InternalKey, ValueType};

    fn ik(key: &[u8], seq: u64) -> Vec<u8> {
        InternalKey::new(key, seq, ValueType::Value).0
    }

    fn vec_iter(entries: &[(&[u8], u64)]) -> Box<dyn DbIterator> {
        let mut v: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(k, s)| (ik(k, *s), format!("{s}").into_bytes()))
            .collect();
        v.sort_by(|a, b| compare_internal(&a.0, &b.0));
        Box::new(VecIterator::new(v))
    }

    fn drain(it: &mut dyn DbIterator) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        while it.valid() {
            let (uk, seq, _) = crate::ikey::parse_internal_key(it.key()).unwrap();
            out.push((uk.to_vec(), seq));
            it.next();
        }
        out
    }

    #[test]
    fn merge_two_sources() {
        let a = vec_iter(&[(b"a", 1), (b"c", 3)]);
        let b = vec_iter(&[(b"b", 2), (b"d", 4)]);
        let mut m = MergingIterator::new(vec![a, b]);
        m.seek_to_first();
        let out = drain(&mut m);
        assert_eq!(
            out,
            vec![
                (b"a".to_vec(), 1),
                (b"b".to_vec(), 2),
                (b"c".to_vec(), 3),
                (b"d".to_vec(), 4)
            ]
        );
    }

    #[test]
    fn merge_same_user_key_orders_by_seq_desc() {
        let a = vec_iter(&[(b"k", 5)]);
        let b = vec_iter(&[(b"k", 9), (b"k", 1)]);
        let mut m = MergingIterator::new(vec![a, b]);
        m.seek_to_first();
        let out = drain(&mut m);
        assert_eq!(
            out,
            vec![(b"k".to_vec(), 9), (b"k".to_vec(), 5), (b"k".to_vec(), 1)]
        );
    }

    #[test]
    fn merge_seek() {
        let a = vec_iter(&[(b"a", 1), (b"m", 2)]);
        let b = vec_iter(&[(b"f", 3), (b"z", 4)]);
        let mut m = MergingIterator::new(vec![a, b]);
        m.seek(&InternalKey::for_seek(b"f", u64::MAX >> 8).0);
        let out = drain(&mut m);
        assert_eq!(
            out,
            vec![(b"f".to_vec(), 3), (b"m".to_vec(), 2), (b"z".to_vec(), 4)]
        );
    }

    #[test]
    fn merge_empty_children() {
        let mut m = MergingIterator::new(vec![vec_iter(&[]), vec_iter(&[])]);
        m.seek_to_first();
        assert!(!m.valid());
        let mut m2 = MergingIterator::new(vec![]);
        m2.seek_to_first();
        assert!(!m2.valid());
    }

    #[test]
    fn vec_iterator_seek_bounds() {
        let mut it = VecIterator::new(vec![(ik(b"b", 1), b"v".to_vec())]);
        it.seek(&InternalKey::for_seek(b"a", u64::MAX >> 8).0);
        assert!(it.valid());
        it.seek(&InternalKey::for_seek(b"c", u64::MAX >> 8).0);
        assert!(!it.valid());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ikey::{parse_internal_key, InternalKey, ValueType};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Merging N disjoint-or-overlapping sorted sources equals sorting
        /// their union.
        #[test]
        fn prop_merge_equals_sorted_union(
            sources in proptest::collection::vec(
                proptest::collection::vec(("[a-e]{1,3}", 0u64..50), 0..20), 1..5)
        ) {
            let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut children: Vec<Box<dyn DbIterator>> = Vec::new();
            let mut uniq = 0u64;
            for entries in &sources {
                let mut v: Vec<(Vec<u8>, Vec<u8>)> = entries
                    .iter()
                    .map(|(k, s)| {
                        // Make internal keys unique by perturbing seq with a
                        // counter (same (key, seq) twice would be invalid).
                        uniq += 1;
                        (
                            InternalKey::new(k.as_bytes(), s * 1000 + uniq, ValueType::Value).0,
                            format!("{s}").into_bytes(),
                        )
                    })
                    .collect();
                v.sort_by(|a, b| compare_internal(&a.0, &b.0));
                v.dedup_by(|a, b| a.0 == b.0);
                all.extend(v.iter().cloned());
                children.push(Box::new(VecIterator::new(v)));
            }
            all.sort_by(|a, b| compare_internal(&a.0, &b.0));

            let mut m = MergingIterator::new(children);
            m.seek_to_first();
            let mut got = Vec::new();
            while m.valid() {
                got.push((m.key().to_vec(), m.value().to_vec()));
                m.next();
            }
            prop_assert_eq!(got, all);
        }

        /// Seeking the merged iterator is a lower bound over the union.
        #[test]
        fn prop_merge_seek_lower_bound(
            keys in proptest::collection::btree_set("[a-e]{1,3}", 1..30),
            target in "[a-f]{1,3}"
        ) {
            let entries: Vec<(Vec<u8>, Vec<u8>)> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    (InternalKey::new(k.as_bytes(), i as u64 + 1, ValueType::Value).0, vec![])
                })
                .collect();
            // Split across two sources round-robin.
            let (a, b): (Vec<_>, Vec<_>) = entries
                .iter()
                .cloned()
                .enumerate()
                .partition(|(i, _)| i % 2 == 0);
            type Tagged = Vec<(usize, (Vec<u8>, Vec<u8>))>;
            let strip = |v: Tagged| v.into_iter().map(|(_, e)| e).collect::<Vec<_>>();
            let mut m = MergingIterator::new(vec![
                Box::new(VecIterator::new(strip(a))),
                Box::new(VecIterator::new(strip(b))),
            ]);
            m.seek(&InternalKey::for_seek(target.as_bytes(), u64::MAX >> 8).0);
            let expected = keys.iter().find(|k| k.as_str() >= target.as_str());
            match expected {
                Some(k) => {
                    prop_assert!(m.valid());
                    let (uk, _, _) = parse_internal_key(m.key()).unwrap();
                    prop_assert_eq!(uk, k.as_bytes());
                }
                None => prop_assert!(!m.valid()),
            }
        }
    }
}
