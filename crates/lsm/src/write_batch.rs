//! Atomic write batches.
//!
//! A `WriteBatch` serializes a group of PUT/DEL/MERGE operations into one
//! WAL record and one memtable application, with consecutive sequence
//! numbers. Encoding mirrors LevelDB: `seq(8) count(4)` header followed by
//! tagged, length-prefixed records.
//!
//! A shard's commit log carries the operations of several LSM trees — the
//! primary table (tree 0) and one tree per stand-alone index. An operation
//! for tree `t > 0` sets `TREE_BIT` in its type byte and is followed by
//! `varint32(t)`, the tree's position in the list its log file opens with
//! (`encode_tree_names`); a tree-0 operation is encoded exactly as
//! before, so a batch that touches no index tree is byte-identical to the
//! pre-tag format. Operations the group-commit leader *derives* from a primary
//! operation additionally set `DERIVED_BIT`: they consume no sequence
//! number of their own and share the one of the operation they follow.

use crate::ikey::ValueType;
use ldbpp_common::coding::{
    decode_fixed32, decode_fixed64, get_length_prefixed, get_varint32, put_fixed32, put_fixed64,
    put_length_prefixed, put_varint32,
};
use ldbpp_common::{Error, Result};

const HEADER: usize = 12;
/// Type-byte flag: the operation belongs to the tree whose id follows.
const TREE_BIT: u8 = 0x80;
/// Type-byte flag: the operation shares the previous operation's sequence.
const DERIVED_BIT: u8 = 0x40;

/// A reusable batch of writes applied atomically.
#[derive(Debug, Clone)]
pub struct WriteBatch {
    rep: Vec<u8>,
    count: u32,
}

impl Default for WriteBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch {
            rep: vec![0u8; HEADER],
            count: 0,
        }
    }

    /// Queue a PUT.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.add(0, ValueType::Value, key, value);
    }

    /// Queue a DEL.
    pub fn delete(&mut self, key: &[u8]) {
        self.add(0, ValueType::Deletion, key, &[]);
    }

    /// Queue a MERGE operand.
    pub fn merge(&mut self, key: &[u8], operand: &[u8]) {
        self.add(0, ValueType::Merge, key, operand);
    }

    /// Queue `op` for the tree it names. Every queued operation takes a
    /// sequence number of its own ([`BatchOp::derived`] is the commit
    /// leader's to set, and ignored here).
    pub fn push(&mut self, op: &BatchOp) {
        self.add(op.tree, op.vtype, &op.key, &op.value);
    }

    fn add(&mut self, tree: u32, vtype: ValueType, key: &[u8], value: &[u8]) {
        encode_op(&mut self.rep, tree, false, vtype, key, value);
        self.count += 1;
    }

    /// Number of queued operations.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Remove all operations.
    pub fn clear(&mut self) {
        self.rep.truncate(HEADER);
        self.rep[..HEADER].fill(0);
        self.count = 0;
    }

    /// The encoded operation bodies — everything after the 12-byte
    /// header. This is the unit of concatenation for group commit:
    /// bodies from several batches glued behind a single header decode
    /// as one batch with consecutive sequence numbers.
    pub fn op_bytes(&self) -> &[u8] {
        &self.rep[HEADER..]
    }

    /// Stamp the starting sequence number and return the WAL payload.
    pub fn encode(&mut self, seq: u64) -> &[u8] {
        let mut head = Vec::with_capacity(HEADER);
        put_fixed64(&mut head, seq);
        put_fixed32(&mut head, self.count);
        self.rep[..HEADER].copy_from_slice(&head);
        &self.rep
    }

    /// Decode a WAL payload into `(start_seq, ops)`. Pair the operations
    /// with their sequence numbers through [`sequenced`].
    pub fn decode(payload: &[u8]) -> Result<(u64, Vec<BatchOp>)> {
        if payload.len() < HEADER {
            return Err(Error::corruption("write batch too small"));
        }
        let seq = decode_fixed64(&payload[..8]);
        let count = decode_fixed32(&payload[8..12]);
        Ok((seq, decode_ops(&payload[HEADER..], count)?))
    }

    /// Iterate the queued operations without consuming the batch.
    pub fn ops(&self) -> Result<Vec<BatchOp>> {
        decode_ops(self.op_bytes(), self.count)
    }
}

/// Append the encoding of one operation.
pub(crate) fn encode_op(
    out: &mut Vec<u8>,
    tree: u32,
    derived: bool,
    vtype: ValueType,
    key: &[u8],
    value: &[u8],
) {
    let mut tag = vtype as u8;
    if tree != 0 {
        tag |= TREE_BIT;
    }
    if derived {
        tag |= DERIVED_BIT;
    }
    out.push(tag);
    if tree != 0 {
        put_varint32(out, tree);
    }
    put_length_prefixed(out, key);
    if vtype != ValueType::Deletion {
        put_length_prefixed(out, value);
    }
}

/// Start a WAL payload: the `seq(8) count(4)` header, to be followed by
/// `count` encoded operations.
///
/// A payload that holds one batch's [`WriteBatch::op_bytes`] is
/// byte-for-byte [`WriteBatch::encode`] on that batch, and one that holds
/// several batches' bodies in queue order decodes with
/// [`WriteBatch::decode`] like a single batch — the WAL format does not
/// know about groups, and recovery replays one without knowing it was one.
pub(crate) fn payload_header(start_seq: u64, count: u32) -> Vec<u8> {
    let mut payload = Vec::with_capacity(HEADER);
    put_fixed64(&mut payload, start_seq);
    put_fixed32(&mut payload, count);
    payload
}

/// The record that opens a log file which carries other trees' operations:
/// a zeroed header (no batch has a count of 0), then the name of tree 1,
/// of tree 2, … The numbers in operation tags are positions in *this*
/// list and mean nothing outside the file, so a shard reopened with its
/// trees reordered or extended still routes each operation to its tree.
pub(crate) fn encode_tree_names<'a>(names: impl Iterator<Item = &'a str>) -> Vec<u8> {
    let mut payload = vec![0u8; HEADER];
    for name in names {
        put_length_prefixed(&mut payload, name.as_bytes());
    }
    payload
}

/// The inverse of [`encode_tree_names`]; `None` for any other record.
pub(crate) fn decode_tree_names(payload: &[u8]) -> Option<Vec<Vec<u8>>> {
    if payload.len() <= HEADER || payload[..HEADER] != [0u8; HEADER] {
        return None;
    }
    let mut names = Vec::new();
    let mut rest = &payload[HEADER..];
    while !rest.is_empty() {
        let (name, n) = get_length_prefixed(rest).ok()?;
        names.push(name.to_vec());
        rest = &rest[n..];
    }
    Some(names)
}

/// Decode `count` operations from a headerless operation-body slice (the
/// inverse of [`WriteBatch::op_bytes`]).
pub fn decode_ops(body: &[u8], count: u32) -> Result<Vec<BatchOp>> {
    let mut ops = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    for _ in 0..count {
        if pos >= body.len() {
            return Err(Error::corruption("write batch truncated"));
        }
        let tag = body[pos];
        pos += 1;
        let vtype = ValueType::from_u8(tag & !(TREE_BIT | DERIVED_BIT))?;
        let tree = if tag & TREE_BIT != 0 {
            let (tree, n) = get_varint32(&body[pos..])?;
            pos += n;
            tree
        } else {
            0
        };
        let (key, n) = get_length_prefixed(&body[pos..])?;
        pos += n;
        let value = match vtype {
            ValueType::Deletion => Vec::new(),
            _ => {
                let (v, n) = get_length_prefixed(&body[pos..])?;
                pos += n;
                v.to_vec()
            }
        };
        ops.push(BatchOp {
            vtype,
            key: key.to_vec(),
            value,
            tree,
            derived: tag & DERIVED_BIT != 0,
        });
    }
    if pos != body.len() {
        return Err(Error::corruption("write batch trailing bytes"));
    }
    if ops.first().is_some_and(|op| op.derived) {
        return Err(Error::corruption("write batch starts with a derived op"));
    }
    Ok(ops)
}

/// Pair each operation of a batch starting at `start_seq` with its
/// sequence number: one more than the previous operation's, or the same
/// for a derived one.
pub fn sequenced(start_seq: u64, ops: &[BatchOp]) -> impl Iterator<Item = (u64, &BatchOp)> {
    let mut next = start_seq;
    ops.iter().map(move |op| {
        if !op.derived {
            next += 1;
        }
        (next - 1, op)
    })
}

/// One decoded operation from a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOp {
    /// PUT / DEL / MERGE.
    pub vtype: ValueType,
    /// User key.
    pub key: Vec<u8>,
    /// Value or merge operand (empty for DEL).
    pub value: Vec<u8>,
    /// The tree the operation belongs to: 0 for the table that owns the
    /// log, `i` for the `i`-th tree it commits for.
    pub tree: u32,
    /// Derived by the commit leader from the operation before it, whose
    /// sequence number it shares.
    pub derived: bool,
}

impl BatchOp {
    fn new(tree: u32, vtype: ValueType, key: &[u8], value: &[u8]) -> BatchOp {
        BatchOp {
            vtype,
            key: key.to_vec(),
            value: value.to_vec(),
            tree,
            derived: false,
        }
    }

    /// A PUT in `tree`.
    pub fn put(tree: u32, key: &[u8], value: &[u8]) -> BatchOp {
        BatchOp::new(tree, ValueType::Value, key, value)
    }

    /// A DEL in `tree`.
    pub fn delete(tree: u32, key: &[u8]) -> BatchOp {
        BatchOp::new(tree, ValueType::Deletion, key, &[])
    }

    /// A MERGE operand in `tree`.
    pub fn merge(tree: u32, key: &[u8], operand: &[u8]) -> BatchOp {
        BatchOp::new(tree, ValueType::Merge, key, operand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut b = WriteBatch::new();
        b.put(b"k1", b"v1");
        b.delete(b"k2");
        b.merge(b"k3", b"[\"t1\"]");
        assert_eq!(b.count(), 3);
        let payload = b.encode(100).to_vec();
        let (seq, ops) = WriteBatch::decode(&payload).unwrap();
        assert_eq!(seq, 100);
        assert_eq!(
            ops,
            vec![
                BatchOp::put(0, b"k1", b"v1"),
                BatchOp::delete(0, b"k2"),
                BatchOp::merge(0, b"k3", b"[\"t1\"]"),
            ]
        );
    }

    #[test]
    fn clear_resets() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.encode(1).len(), HEADER);
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(WriteBatch::decode(&[]).is_err());
        assert!(WriteBatch::decode(&[0u8; 11]).is_err());
    }

    #[test]
    fn truncated_ops_rejected() {
        let mut b = WriteBatch::new();
        b.put(b"key", b"value");
        let payload = b.encode(1).to_vec();
        assert!(WriteBatch::decode(&payload[..payload.len() - 2]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = WriteBatch::new();
        b.put(b"key", b"value");
        let mut payload = b.encode(1).to_vec();
        payload.push(0);
        assert!(WriteBatch::decode(&payload).is_err());
    }

    #[test]
    fn group_of_one_matches_single_encode() {
        let mut b = WriteBatch::new();
        b.put(b"k1", b"v1");
        b.delete(b"k2");
        let single = b.encode(42).to_vec();
        let mut grouped = payload_header(42, b.count());
        grouped.extend_from_slice(b.op_bytes());
        assert_eq!(single, grouped, "group of 1 must be byte-identical");
    }

    #[test]
    fn group_concatenation_decodes_with_rebased_sequences() {
        let mut a = WriteBatch::new();
        a.put(b"a1", b"x");
        a.put(b"a2", b"y");
        let mut b = WriteBatch::new();
        b.delete(b"b1");
        let mut c = WriteBatch::new();
        c.merge(b"c1", b"[\"t\"]");
        let mut payload = payload_header(100, a.count() + b.count() + c.count());
        for batch in [&a, &b, &c] {
            payload.extend_from_slice(batch.op_bytes());
        }
        let (seq, ops) = WriteBatch::decode(&payload).unwrap();
        assert_eq!(seq, 100);
        assert_eq!(ops.len(), 4);
        // Queue order is preserved: batch b's op sits at offset 2 → seq 102,
        // batch c's at offset 3 → seq 103 (sequence rebasing by prefix count).
        assert_eq!(ops[0].key, b"a1");
        assert_eq!(ops[2].vtype, ValueType::Deletion);
        assert_eq!(ops[3].vtype, ValueType::Merge);
    }

    #[test]
    fn decode_ops_roundtrips_op_bytes() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        b.delete(b"d");
        let ops = decode_ops(b.op_bytes(), b.count()).unwrap();
        assert_eq!(ops, b.ops().unwrap());
        assert!(decode_ops(b.op_bytes(), b.count() + 1).is_err());
        assert!(decode_ops(&b.op_bytes()[..3], b.count()).is_err());
    }

    #[test]
    fn ops_view() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.delete(b"b");
        let ops = b.ops().unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].vtype, ValueType::Deletion);
    }

    #[test]
    fn untagged_batch_is_byte_identical_to_the_pre_tag_format() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        b.delete(b"d");
        b.merge(b"m", b"o");
        let mut want = vec![ValueType::Value as u8, 1, b'k', 1, b'v'];
        want.extend([ValueType::Deletion as u8, 1, b'd']);
        want.extend([ValueType::Merge as u8, 1, b'm', 1, b'o']);
        assert_eq!(b.op_bytes(), want);
    }

    #[test]
    fn tree_tags_and_derived_ops_roundtrip_and_share_sequences() {
        // What a leader logs for PUT(k) with two index trees, then a
        // caller-tagged index op: the derived ops ride on k's sequence.
        let ops = [
            BatchOp::put(0, b"k", b"doc"),
            BatchOp::merge(1, b"u1", b"[k]"),
            BatchOp::put(300, b"u1k", b"seq"),
            BatchOp::delete(2, b"old"),
        ];
        let mut payload = payload_header(7, ops.len() as u32);
        for (i, op) in ops.iter().enumerate() {
            encode_op(
                &mut payload,
                op.tree,
                i == 1 || i == 2,
                op.vtype,
                &op.key,
                &op.value,
            );
        }
        let (start, decoded) = WriteBatch::decode(&payload).unwrap();
        let seqs: Vec<(u64, u32, bool)> = sequenced(start, &decoded)
            .map(|(seq, op)| (seq, op.tree, op.derived))
            .collect();
        assert_eq!(
            seqs,
            vec![(7, 0, false), (7, 1, true), (7, 300, true), (8, 2, false)]
        );
        for (got, want) in decoded.iter().zip(&ops) {
            assert_eq!(
                (&got.key, &got.value, got.vtype),
                (&want.key, &want.value, want.vtype)
            );
        }
        // The list a log file opens with decodes as no batch, and no
        // batch as a list.
        let names = encode_tree_names(["db_idx_UserID", "db_idx_Time"].into_iter());
        assert!(WriteBatch::decode(&names).is_err());
        assert_eq!(
            decode_tree_names(&names).unwrap(),
            [b"db_idx_UserID".to_vec(), b"db_idx_Time".to_vec()]
        );
        assert_eq!(decode_tree_names(&payload), None);
        // A record cannot open with a derived op: there is nothing to
        // share a sequence with.
        let mut bad = payload_header(1, 1);
        encode_op(&mut bad, 1, true, ValueType::Merge, b"u1", b"[k]");
        assert!(WriteBatch::decode(&bad).is_err());
    }
}
