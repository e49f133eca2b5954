//! Posting lists serialized as JSON arrays (paper §4.1: "Posting lists can
//! be serialized as a single JSON array").
//!
//! Each entry is `[pk, seq]` for an insertion or `[pk, seq, 1]` for a
//! deletion marker ("DEL ... maintains a deletion marker which is used
//! during merge in compaction to remove the deleted entry"). Lists are kept
//! ordered by sequence number, newest first, so a top-K read needs only a
//! K-prefix.
//!
//! The codec reads and writes those bytes straight from and to
//! [`Posting`]s through `ldbpp_common::json`'s [`Reader`] and
//! [`write_string`], in one linear pass and without a `Value` tree. It
//! accepts exactly the lists a `Value` parse followed by a shape check
//! would: any JSON whitespace and string escapes, entries of arity 2 or 3,
//! a non-negative `i64` sequence number, and any JSON value as the third
//! element (a marker when it is the integer 1).

use ldbpp_common::json::{write_string, Reader, Scalar};
use ldbpp_common::{Error, Result};
use std::fmt::Write;

/// One posting-list entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Primary key (UTF-8; posting-list indexes require text keys).
    pub pk: Vec<u8>,
    /// Sequence number of the write that created this entry.
    pub seq: u64,
    /// True for deletion markers.
    pub deleted: bool,
}

impl Posting {
    /// An insertion entry.
    pub fn insert(pk: impl Into<Vec<u8>>, seq: u64) -> Posting {
        Posting {
            pk: pk.into(),
            seq,
            deleted: false,
        }
    }

    /// A deletion marker.
    pub fn delete(pk: impl Into<Vec<u8>>, seq: u64) -> Posting {
        Posting {
            pk: pk.into(),
            seq,
            deleted: true,
        }
    }
}

/// Serialize a posting list to its JSON representation.
pub fn encode_postings(list: &[Posting]) -> Result<Vec<u8>> {
    let mut out = String::with_capacity(2 + list.iter().map(|p| p.pk.len() + 16).sum::<usize>());
    out.push('[');
    for (i, p) in list.iter().enumerate() {
        let pk = std::str::from_utf8(&p.pk)
            .map_err(|_| Error::invalid("posting-list indexes require UTF-8 primary keys"))?;
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_string(pk, &mut out);
        // Sequence numbers are written as the i64 a JSON integer holds.
        let _ = write!(out, ",{}", p.seq as i64);
        if p.deleted {
            out.push_str(",1");
        }
        out.push(']');
    }
    out.push(']');
    Ok(out.into_bytes())
}

/// Parse a JSON posting list.
pub fn decode_postings(bytes: &[u8]) -> Result<Vec<Posting>> {
    let mut out = Vec::new();
    let mut r = Reader::new(bytes);
    r.array(0, |r, _| {
        let mut pk = None;
        let mut seq = None;
        let mut deleted = false;
        r.array(1, |r, i| {
            match (i, r.scalar(2)?) {
                (0, Some(Scalar::Str(s))) => pk = Some(s.into_bytes()),
                (0, _) => return Err(Error::corruption("posting pk not a string")),
                (1, Some(Scalar::Int(n))) if n >= 0 => seq = Some(n as u64),
                (1, _) => return Err(Error::corruption("posting seq not a non-negative int")),
                (2, v) => deleted = v == Some(Scalar::Int(1)),
                _ => return Err(Error::corruption("posting entry arity")),
            }
            Ok(())
        })?;
        match (pk, seq) {
            (Some(pk), Some(seq)) => {
                out.push(Posting { pk, seq, deleted });
                Ok(())
            }
            _ => Err(Error::corruption("posting entry arity")),
        }
    })?;
    r.finish()?;
    Ok(out)
}

/// Fold several posting lists, **newest list first**, into one list sorted
/// newest-first with one entry per primary key (the newest wins). When
/// `keep_markers` is false, deletion markers are dropped from the output
/// (safe once nothing older can exist underneath).
pub fn fold_postings(lists: &[Vec<Posting>], keep_markers: bool) -> Vec<Posting> {
    let mut out: Vec<Posting> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
    for list in lists {
        for p in list {
            if seen.insert(p.pk.clone()) {
                out.push(p.clone());
            }
        }
    }
    out.sort_by_key(|p| std::cmp::Reverse(p.seq));
    if !keep_markers {
        out.retain(|p| !p.deleted);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbpp_common::json::Value;
    use proptest::prelude::*;

    /// The `Value`-tree encoder the codec replaced: the oracle for its
    /// bytes.
    fn encode_via_value(list: &[Posting]) -> Result<Vec<u8>> {
        let mut items = Vec::with_capacity(list.len());
        for p in list {
            let pk = std::str::from_utf8(&p.pk)
                .map_err(|_| Error::invalid("posting-list indexes require UTF-8 primary keys"))?;
            let mut entry = vec![Value::str(pk), Value::Int(p.seq as i64)];
            if p.deleted {
                entry.push(Value::Int(1));
            }
            items.push(Value::Array(entry));
        }
        Ok(Value::Array(items).to_json().into_bytes())
    }

    /// The `Value`-tree decoder the codec replaced: the oracle for what it
    /// accepts and rejects.
    fn decode_via_value(bytes: &[u8]) -> Result<Vec<Posting>> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| Error::corruption("posting list not UTF-8"))?;
        let value = Value::parse(text)?;
        let items = value
            .as_array()
            .ok_or_else(|| Error::corruption("posting list not an array"))?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let entry = item
                .as_array()
                .ok_or_else(|| Error::corruption("posting entry not an array"))?;
            if entry.len() < 2 || entry.len() > 3 {
                return Err(Error::corruption("posting entry arity"));
            }
            let pk = entry[0]
                .as_str()
                .ok_or_else(|| Error::corruption("posting pk not a string"))?;
            let seq = entry[1]
                .as_int()
                .ok_or_else(|| Error::corruption("posting seq not an int"))?;
            if seq < 0 {
                return Err(Error::corruption("negative posting seq"));
            }
            let deleted = match entry.get(2) {
                None => false,
                Some(v) => v.as_int() == Some(1),
            };
            out.push(Posting {
                pk: pk.as_bytes().to_vec(),
                seq: seq as u64,
                deleted,
            });
        }
        Ok(out)
    }

    /// The codec and the oracle agree on `bytes`: the same list, or both
    /// reject it as corruption.
    fn decodes_like_oracle(bytes: &[u8]) {
        match (decode_postings(bytes), decode_via_value(bytes)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{:?}", String::from_utf8_lossy(bytes)),
            (Err(a), Err(b)) => {
                assert!(a.is_corruption() && b.is_corruption(), "{a} / {b}")
            }
            (a, b) => panic!(
                "{:?}: codec {a:?}, oracle {b:?}",
                String::from_utf8_lossy(bytes)
            ),
        }
    }

    fn arb_postings() -> impl Strategy<Value = Vec<Posting>> {
        proptest::collection::vec(
            (
                // Quotes, backslashes, control characters and non-ASCII
                // exercise the string escaping.
                "[a-z0-9\"\\\\\n\t\u{1}é😀/]{0,6}",
                0u64..(1 << 40),
                any::<bool>(),
            )
                .prop_map(|(pk, seq, deleted)| Posting {
                    pk: pk.into_bytes(),
                    seq,
                    deleted,
                }),
            0..12,
        )
    }

    /// `bytes` after up to four edits drawn from `seed`: truncation, a bit
    /// flip, an inserted JSON-ish byte (structure, digits, whitespace,
    /// escapes, invalid UTF-8) or a deleted byte.
    fn mutate(bytes: &[u8], seed: u64) -> Vec<u8> {
        let mut rng = TestRng::for_case("posting::mutate", seed);
        let mut out = bytes.to_vec();
        for _ in 0..=rng.below(4) {
            let at = rng.below(out.len() as u64 + 1) as usize;
            match rng.below(4) {
                0 => out.truncate(at),
                1 if at < out.len() => out[at] ^= 1 << rng.below(8),
                2 => {
                    const ALPHABET: &[u8] = b"[]{},:\"\\u0123456789-.eE +\t\nnull\x01\xff";
                    out.insert(at, ALPHABET[rng.below(ALPHABET.len() as u64) as usize]);
                }
                _ if at < out.len() => {
                    out.remove(at);
                }
                _ => {}
            }
        }
        out
    }

    proptest! {
        #[test]
        fn prop_encode_is_byte_identical_to_value_codec(list in arb_postings()) {
            let bytes = encode_postings(&list).unwrap();
            prop_assert_eq!(&bytes, &encode_via_value(&list).unwrap());
            prop_assert_eq!(decode_postings(&bytes).unwrap(), list);
        }

        #[test]
        fn prop_decode_agrees_with_value_codec(list in arb_postings(), seed in any::<u64>()) {
            let bytes = encode_postings(&list).unwrap();
            decodes_like_oracle(&bytes);
            decodes_like_oracle(&mutate(&bytes, seed));
            // Whitespace between every token, and an escaped pk.
            let text = String::from_utf8(bytes).unwrap();
            decodes_like_oracle(text.replace(',', " ,\r\n").replace('[', "[ ").as_bytes());
            decodes_like_oracle(text.replacen("[\"", "[\"\\u0041\\n", 1).as_bytes());
        }
    }

    #[test]
    fn decode_matches_oracle_on_edge_cases() {
        for text in [
            "[]",
            " [ ] ",
            "[[\"a\",0]]",
            "[[\"a\",-0]]",
            "[[\"a\",1,1]]",
            "[[\"a\",1,2]]",
            "[[\"a\",1,-1]]",
            "[[\"a\",1,1.0]]",
            "[[\"a\",1,\"1\"]]",
            "[[\"a\",1,null]]",
            "[[\"a\",1,[1,{\"x\":[]}]]]",
            "[[\"a\",1,[1,]]]",
            "[[\"\\u0041\\\"\",5]]",
            "[[\"\\ud83d\\ude00\",5]]",
            "[[\"a\",9223372036854775807]]",
            "[[\"a\",9223372036854775808]]",
            "[[\"a\",1e3]]",
            "[[\"a\",1.0]]",
            "[[\"a\",01]]",
            "[[\"a\",1],]",
            "[[\"a\",1]] x",
            "[[\"a\"]]",
            "[[1,1]]",
            "[[],[\"a\",1]]",
            "[[\"a\",1,1,1]]",
            "[{}]",
            "{}",
            "",
        ] {
            decodes_like_oracle(text.as_bytes());
        }
        let deep = format!("[[\"a\",1,{}{}]]", "[".repeat(130), "]".repeat(130));
        decodes_like_oracle(deep.as_bytes());
        decodes_like_oracle(b"[[\"\xff\",1]]");
    }

    /// Decoding is linear in the list: 10 000 postings (1.1 MB) decode and
    /// encode far inside the bound even in a debug build. A decoder that
    /// re-validates the rest of the input per character needs minutes.
    #[test]
    fn codec_time_is_linear() {
        let list: Vec<Posting> = (0..10_000u64)
            .map(|i| Posting {
                pk: format!("tweet{i:08}/{}", "x".repeat(90)).into_bytes(),
                seq: i * 7,
                deleted: i % 5 == 0,
            })
            .collect();
        let start = std::time::Instant::now();
        let bytes = encode_postings(&list).unwrap();
        assert!(bytes.len() > 1_000_000);
        assert_eq!(decode_postings(&bytes).unwrap(), list);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "took {elapsed:?}"
        );
    }

    #[test]
    fn roundtrip() {
        let list = vec![
            Posting::insert("t9", 9),
            Posting::insert("t5", 5),
            Posting::delete("t3", 3),
        ];
        let bytes = encode_postings(&list).unwrap();
        assert_eq!(
            std::str::from_utf8(&bytes).unwrap(),
            r#"[["t9",9],["t5",5],["t3",3,1]]"#
        );
        assert_eq!(decode_postings(&bytes).unwrap(), list);
    }

    #[test]
    fn empty_list() {
        let bytes = encode_postings(&[]).unwrap();
        assert_eq!(decode_postings(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn rejects_non_utf8_pk() {
        assert!(encode_postings(&[Posting::insert(vec![0xff, 0xfe], 1)]).is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"{}"[..],
            b"[1]",
            b"[[1,2]]",
            b"[[\"pk\"]]",
            b"[[\"pk\",\"x\"]]",
            b"[[\"pk\",-4]]",
            b"[[\"pk\",1,2,3]]",
        ] {
            assert!(decode_postings(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fold_newest_wins_per_pk() {
        let newer = vec![Posting::insert("a", 9), Posting::insert("b", 8)];
        let older = vec![Posting::insert("a", 3), Posting::insert("c", 2)];
        let folded = fold_postings(&[newer, older], true);
        assert_eq!(
            folded,
            vec![
                Posting::insert("a", 9),
                Posting::insert("b", 8),
                Posting::insert("c", 2)
            ]
        );
    }

    #[test]
    fn fold_deletion_markers() {
        let newer = vec![Posting::delete("a", 9)];
        let older = vec![Posting::insert("a", 3), Posting::insert("b", 2)];
        let kept = fold_postings(&[newer.clone(), older.clone()], true);
        assert_eq!(kept, vec![Posting::delete("a", 9), Posting::insert("b", 2)]);
        let dropped = fold_postings(&[newer, older], false);
        assert_eq!(dropped, vec![Posting::insert("b", 2)]);
    }

    #[test]
    fn fold_reinsert_after_delete() {
        // pk re-inserted after deletion: the newest (insert) wins.
        let newest = vec![Posting::insert("a", 15)];
        let middle = vec![Posting::delete("a", 10)];
        let oldest = vec![Posting::insert("a", 5)];
        let folded = fold_postings(&[newest, middle, oldest], true);
        assert_eq!(folded, vec![Posting::insert("a", 15)]);
    }
}
