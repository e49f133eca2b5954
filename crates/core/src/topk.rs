//! The top-K min-heap of the paper's Algorithm 1, plus the multi-shard
//! K-bounded merges used by the scatter-gather read path.
//!
//! "To efficiently compute the top-k entries, we maintain a min-heap
//! ordered by the sequence number": the heap keeps the K most-recent
//! candidates; a new candidate replaces the root only if it is newer.
//!
//! A hash-partitioned [`crate::SecondaryDb`] answers LOOKUP/RANGELOOKUP by
//! asking every shard for its own (already K-bounded, newest-first) hit
//! list and merging the lists through [`merge_newest_first`]; primary-key
//! range scans gather per-shard key-ordered streams through
//! [`merge_key_ordered`]. Both merges stop as soon as K results are out,
//! touching at most `K + shards - 1` input entries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A bounded min-heap keeping the `k` entries with the largest sequence
/// numbers (`k = None` ⇒ unbounded, the paper's "no limit on top-k").
#[derive(Debug)]
pub struct TopK<T> {
    k: Option<usize>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    items: Vec<Option<(u64, T)>>,
}

impl<T> TopK<T> {
    /// A heap bounded at `k` entries (`None` = unbounded).
    pub fn new(k: Option<usize>) -> TopK<T> {
        TopK {
            k,
            heap: BinaryHeap::new(),
            items: Vec::new(),
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True once `k` entries are held (never true when unbounded).
    pub fn is_full(&self) -> bool {
        match self.k {
            Some(k) => self.heap.len() >= k,
            None => false,
        }
    }

    /// Would a candidate with sequence `seq` be admitted right now?
    ///
    /// The paper's Algorithm 1 check: admitted if the heap is not full, or
    /// if `seq` is newer than the oldest retained entry. Calling this
    /// before the (possibly expensive) validity check saves work.
    pub fn would_admit(&self, seq: u64) -> bool {
        if !self.is_full() {
            return true;
        }
        match self.heap.peek() {
            Some(Reverse((min_seq, _))) => seq > *min_seq,
            None => false, // only reachable with k = 0
        }
    }

    /// Offer a candidate; returns true if it was admitted.
    pub fn add(&mut self, seq: u64, item: T) -> bool {
        if !self.would_admit(seq) {
            return false;
        }
        if self.is_full() {
            if let Some(Reverse((_, idx))) = self.heap.pop() {
                self.items[idx as usize] = None;
            }
        }
        let idx = self.items.len() as u64;
        self.items.push(Some((seq, item)));
        self.heap.push(Reverse((seq, idx)));
        true
    }

    /// Drain into a list ordered newest-first.
    pub fn into_sorted(self) -> Vec<(u64, T)> {
        let mut out: Vec<(u64, T)> = self.items.into_iter().flatten().collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.0));
        out
    }
}

/// K-bounded heap merge of per-shard top-K results.
///
/// Every input list must already be sorted newest-first (descending
/// sequence) — exactly what each index technique's `query`
/// returns — and the output preserves that order globally: the K largest
/// sequences across all lists, ties broken toward the lower shard index so
/// the merge is deterministic even for equal sequences (which cannot occur
/// between shards sharing one [`ldbpp_lsm::db::SharedSequence`] clock, but
/// can in ad-hoc unit-test inputs). `k = None` concatenates everything in
/// global recency order.
pub fn merge_newest_first<T>(
    lists: Vec<Vec<T>>,
    k: Option<usize>,
    seq_of: impl Fn(&T) -> u64,
) -> Vec<T> {
    merge_by_rank(lists, k, |item| Reverse(seq_of(item)))
}

/// Bounded heap merge of per-shard key-ordered streams (ascending by the
/// rank `key_of` returns) — the scatter-gather form of a primary-key range
/// scan, where each shard contributes a disjoint, sorted slice of the key
/// space. Ties (impossible for hash-partitioned primaries, possible in
/// arbitrary inputs) break toward the lower shard index.
pub fn merge_key_ordered<T, R: Ord>(
    lists: Vec<Vec<T>>,
    limit: Option<usize>,
    key_of: impl Fn(&T) -> R,
) -> Vec<T> {
    merge_by_rank(lists, limit, key_of)
}

/// Shared merge body: repeatedly emit the head with the smallest rank
/// (`Reverse<seq>` for newest-first merges, the key itself for ascending
/// ones), stopping at `k`. The heap holds one entry per non-exhausted
/// list, so the merge is `O((k + n) log n)` for `n` shards.
fn merge_by_rank<T, R: Ord>(
    mut lists: Vec<Vec<T>>,
    k: Option<usize>,
    rank_of: impl Fn(&T) -> R,
) -> Vec<T> {
    if k == Some(0) {
        return Vec::new();
    }
    // Single-shard fast path: the list is already in output order.
    if lists.len() == 1 {
        let mut only = lists.pop().unwrap_or_default();
        if let Some(k) = k {
            only.truncate(k);
        }
        return only;
    }
    let mut iters: Vec<std::vec::IntoIter<T>> = lists.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<T>> = iters.iter_mut().map(Iterator::next).collect();
    // Min-heap via Reverse: pop order is (rank asc, shard index asc).
    let mut heap: BinaryHeap<Reverse<(R, usize)>> = heads
        .iter()
        .enumerate()
        .filter_map(|(shard, head)| head.as_ref().map(|t| Reverse((rank_of(t), shard))))
        .collect();
    let mut out = Vec::new();
    while let Some(Reverse((_, shard))) = heap.pop() {
        // Invariant: every heap entry was pushed together with its head.
        let Some(item) = heads[shard].take() else {
            continue;
        };
        out.push(item);
        if k.is_some_and(|k| out.len() >= k) {
            break;
        }
        if let Some(next) = iters[shard].next() {
            heap.push(Reverse((rank_of(&next), shard)));
            heads[shard] = Some(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_newest() {
        let mut h = TopK::new(Some(3));
        for seq in [5u64, 1, 9, 3, 7, 2] {
            h.add(seq, format!("v{seq}"));
        }
        let out = h.into_sorted();
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![9, 7, 5]);
        assert_eq!(out[0].1, "v9");
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut h = TopK::new(None);
        for seq in 0..100u64 {
            assert!(h.add(seq, seq));
        }
        assert!(!h.is_full());
        assert_eq!(h.len(), 100);
        let out = h.into_sorted();
        assert_eq!(out.first().unwrap().0, 99);
        assert_eq!(out.last().unwrap().0, 0);
    }

    #[test]
    fn would_admit_respects_bound() {
        let mut h = TopK::new(Some(2));
        assert!(h.would_admit(0));
        h.add(10, ());
        h.add(20, ());
        assert!(h.is_full());
        assert!(!h.would_admit(5));
        assert!(!h.would_admit(10), "ties lose to incumbents");
        assert!(h.would_admit(15));
        assert!(h.add(15, ()));
        let seqs: Vec<u64> = h.into_sorted().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![20, 15]);
    }

    #[test]
    fn rejected_candidates_not_stored() {
        let mut h = TopK::new(Some(1));
        h.add(9, "keep");
        assert!(!h.add(3, "drop"));
        assert_eq!(h.len(), 1);
        assert_eq!(h.into_sorted(), vec![(9, "keep")]);
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut h = TopK::new(Some(0));
        assert!(!h.add(5, ()));
        assert!(h.is_empty());
    }

    #[test]
    fn merge_newest_first_is_k_bounded_and_ordered() {
        let lists = vec![
            vec![(9u64, "a9"), (5, "a5"), (1, "a1")],
            vec![(8u64, "b8"), (7, "b7"), (2, "b2")],
        ];
        let out = merge_newest_first(lists.clone(), Some(4), |e| e.0);
        assert_eq!(out, vec![(9, "a9"), (8, "b8"), (7, "b7"), (5, "a5")]);
        let all = merge_newest_first(lists, None, |e| e.0);
        let seqs: Vec<u64> = all.iter().map(|e| e.0).collect();
        assert_eq!(seqs, vec![9, 8, 7, 5, 2, 1]);
    }

    #[test]
    fn merge_newest_first_breaks_ties_by_shard_index() {
        let lists = vec![vec![(5u64, "shard0")], vec![(5u64, "shard1")]];
        let out = merge_newest_first(lists, None, |e| e.0);
        assert_eq!(out, vec![(5, "shard0"), (5, "shard1")]);
    }

    #[test]
    fn merge_newest_first_single_list_passthrough() {
        let out = merge_newest_first(vec![vec![(3u64, ()), (1, ())]], Some(1), |e| e.0);
        assert_eq!(out, vec![(3, ())]);
        assert!(merge_newest_first(Vec::<Vec<(u64, ())>>::new(), None, |e| e.0).is_empty());
        assert!(merge_newest_first(vec![vec![(3u64, ())]], Some(0), |e| e.0).is_empty());
    }

    #[test]
    fn merge_key_ordered_interleaves_disjoint_ranges() {
        let lists = vec![
            vec![b"b".to_vec(), b"d".to_vec()],
            vec![b"a".to_vec(), b"c".to_vec(), b"e".to_vec()],
        ];
        let out = merge_key_ordered(lists, None, Clone::clone);
        assert_eq!(
            out,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec(),
            ]
        );
        let bounded = merge_key_ordered(vec![vec![2u64, 9], vec![1, 3]], Some(3), |&k| k);
        assert_eq!(bounded, vec![1, 2, 3]);
    }
}
