//! Block compression.
//!
//! The paper runs LevelDB with Snappy block compression by default and
//! repeats key experiments uncompressed (Appendix C.2). Snappy itself is a
//! C++ library outside our dependency budget, so we implement **snaplite**,
//! a small byte-oriented LZ77 compressor in the same spirit: greedy
//! hash-table match finding, literals + back-reference copies, varint
//! lengths, no entropy coding. Like Snappy it prioritizes speed and
//! simplicity over ratio, which preserves the experiment-relevant
//! behaviour: blocks shrink (JSON bodies compress well) and decompression
//! adds CPU to the read path.
//!
//! Stream layout: varint uncompressed length, then tagged ops:
//! * literal: `0x00 | varint len | bytes`
//! * copy:    `0x01 | varint len | varint distance`

use ldbpp_common::coding::{get_varint64, put_varint64};
use ldbpp_common::{Error, Result};
use std::cell::RefCell;

/// Compression selector stored in each block trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// Store blocks raw.
    None,
    /// Compress with [`compress`] (snaplite).
    #[default]
    Snaplite,
}

impl Compression {
    /// Trailer byte.
    pub fn to_u8(self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::Snaplite => 1,
        }
    }

    /// Decode a trailer byte.
    pub fn from_u8(b: u8) -> Result<Compression> {
        match b {
            0 => Ok(Compression::None),
            1 => Ok(Compression::Snaplite),
            _ => Err(Error::corruption(format!("bad compression tag {b}"))),
        }
    }
}

const MIN_MATCH: usize = 4;
const MAX_DISTANCE: usize = 1 << 16;
const HASH_BITS: u32 = 14;

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// The four bytes of `data` at `at`, little-endian.
#[inline]
fn load4(data: &[u8], at: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(w)
}

/// The eight bytes of `data` at `at`, little-endian.
#[inline]
fn load8(data: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Length of the common run of `input` at `candidate` and at `pos`
/// (`candidate < pos`), given that the first [`MIN_MATCH`] bytes agree.
#[inline]
fn match_len(input: &[u8], candidate: usize, pos: usize) -> usize {
    let mut len = MIN_MATCH;
    while pos + len + 8 <= input.len() {
        let diff = load8(input, candidate + len) ^ load8(input, pos + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while pos + len < input.len() && input[candidate + len] == input[pos + len] {
        len += 1;
    }
    len
}

/// The match finder's hash table, kept per thread and reused across calls
/// so that a 1 KiB block does not pay for clearing 16 Ki slots.
///
/// A slot holds `base + pos` for the position `pos` of the call that
/// stored it. Each call starts at a `base` past every value an earlier call
/// can have stored, so a slot below the current base reads as empty: the
/// same matches as a freshly cleared table, with no memset.
struct MatchTable {
    slots: Box<[u32; 1 << HASH_BITS]>,
    base: u32,
}

thread_local! {
    static MATCH_TABLE: RefCell<MatchTable> = RefCell::new(MatchTable {
        slots: Box::new([0; 1 << HASH_BITS]),
        base: 1,
    });
}

/// Compress `input` with snaplite.
///
/// # Panics
///
/// If `input` holds `u32::MAX` bytes (4 GiB) or more: the match table
/// stores positions as `u32`. Blocks are kilobytes.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_varint64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }
    let len = match u32::try_from(input.len()) {
        Ok(len) if len < u32::MAX => len,
        _ => panic!("snaplite input of {} bytes is too long", input.len()),
    };

    MATCH_TABLE.with_borrow_mut(|table| {
        if table.base.checked_add(len).is_none() {
            table.slots.fill(0);
            table.base = 1;
        }
        let base = table.base;
        table.base += len;

        let mut pos = 0usize;
        let mut literal_start = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let word = load4(input, pos);
            let slot = &mut table.slots[hash4(word)];
            let stored = std::mem::replace(slot, base + pos as u32);
            if stored >= base {
                let candidate = (stored - base) as usize;
                if pos - candidate <= MAX_DISTANCE && load4(input, candidate) == word {
                    let run = match_len(input, candidate, pos);
                    emit_literal(&mut out, &input[literal_start..pos]);
                    emit_copy(&mut out, run, pos - candidate);
                    pos += run;
                    literal_start = pos;
                    continue;
                }
            }
            pos += 1;
        }
        emit_literal(&mut out, &input[literal_start..]);
    });
    out
}

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    if lit.is_empty() {
        return;
    }
    out.push(0x00);
    put_varint64(out, lit.len() as u64);
    out.extend_from_slice(lit);
}

fn emit_copy(out: &mut Vec<u8>, len: usize, distance: usize) {
    out.push(0x01);
    put_varint64(out, len as u64);
    put_varint64(out, distance as u64);
}

/// Decompress a snaplite stream.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    let (expected_len, mut pos) = get_varint64(input)?;
    if expected_len > (1 << 32) {
        return Err(Error::corruption("snaplite length implausible"));
    }
    let expected_len = expected_len as usize;
    // A valid stream cannot expand more than ~256× per input byte (copy ops
    // are ≥ 3 bytes encoding ≥ 4 output bytes each), but guard allocation on
    // the declared length only after sanity-checking it against the input.
    let mut out = Vec::with_capacity(expected_len.min(1 << 22));
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        match tag {
            0x00 => {
                let (len, n) = get_varint64(&input[pos..])?;
                pos += n;
                let len = len as usize;
                if pos + len > input.len() {
                    return Err(Error::corruption("snaplite literal past end"));
                }
                out.extend_from_slice(&input[pos..pos + len]);
                pos += len;
            }
            0x01 => {
                let (len, n) = get_varint64(&input[pos..])?;
                pos += n;
                let (dist, n2) = get_varint64(&input[pos..])?;
                pos += n2;
                let (len, dist) = (len as usize, dist as usize);
                if dist == 0 || dist > out.len() {
                    return Err(Error::corruption("snaplite bad copy distance"));
                }
                if len > expected_len - out.len() {
                    return Err(Error::corruption("snaplite copy overruns output"));
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copies are legal (RLE-style): the copy
                    // reads bytes it has just written, so go byte-wise.
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
            }
            _ => return Err(Error::corruption(format!("snaplite bad tag {tag}"))),
        }
        if out.len() > expected_len {
            return Err(Error::corruption("snaplite output overrun"));
        }
    }
    if out.len() != expected_len {
        return Err(Error::corruption(format!(
            "snaplite length mismatch: got {} want {}",
            out.len(),
            expected_len
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbpp_workload::{SeedStats, TweetGenerator};
    use proptest::prelude::*;

    /// The compressor before its hash table was reused across calls, with
    /// a freshly cleared table each time: the oracle for the bytes
    /// [`compress`] must produce.
    fn compress_fresh_table(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        put_varint64(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }

        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut literal_start = 0usize;

        while pos + MIN_MATCH <= input.len() {
            let h = hash4(load4(input, pos));
            let candidate = table[h];
            table[h] = pos;
            if candidate != usize::MAX
                && pos - candidate <= MAX_DISTANCE
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH]
            {
                let mut len = MIN_MATCH;
                while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                emit_literal(&mut out, &input[literal_start..pos]);
                emit_copy(&mut out, len, pos - candidate);
                pos += len;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        emit_literal(&mut out, &input[literal_start..]);
        out
    }

    /// Key/document records from the workload generator, back to back: what
    /// a data block holds.
    fn tweet_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for t in TweetGenerator::new(SeedStats::default(), n, seed).take(n) {
            out.extend_from_slice(t.id.as_bytes());
            out.extend_from_slice(t.document().to_json().as_bytes());
        }
        out
    }

    #[test]
    fn reused_table_matches_fresh_table_on_tweet_blocks() {
        let data = tweet_bytes(400, 7);
        // Many calls in a row on one thread, so a slot left by an earlier
        // call that leaked in as a match would change the output. Repeating
        // a block and switching block sizes make such a leak likely.
        for block in [1024, 4096, 1024, 4096, 100, 4096] {
            for chunk in data.chunks(block) {
                for _ in 0..2 {
                    let got = compress(chunk);
                    assert_eq!(got, compress_fresh_table(chunk), "block size {block}");
                    assert_eq!(decompress(&got).unwrap(), chunk);
                }
            }
        }
    }

    #[test]
    fn slot_from_an_earlier_call_is_not_a_match() {
        // In `current`, the "wxyz" at 36 lies inside a copy, so the scan
        // never stores it and the one at 42 is a literal. `earlier` stores
        // "wxyz" at 36; were that slot live, 42 would copy from it.
        let u = b"ABCDEFGHIJKLwx";
        let current = [&u[..], b"0123456789", u, b"yz--wxyz"].concat();
        let earlier = [&(0x80u8..0xa4).collect::<Vec<u8>>()[..], b"wxyz"].concat();
        compress(&earlier);
        let got = compress(&current);
        assert_eq!(got, compress_fresh_table(&current));
        assert_eq!(decompress(&got).unwrap(), current);
    }

    #[test]
    fn table_reset_on_base_overflow_keeps_bytes() {
        let data = tweet_bytes(20, 3);
        compress(&data);
        MATCH_TABLE.with_borrow_mut(|t| t.base = u32::MAX - 10);
        assert_eq!(compress(&data), compress_fresh_table(&data));
        assert_eq!(MATCH_TABLE.with_borrow(|t| t.base), 1 + data.len() as u32);
        assert_eq!(compress(&data), compress_fresh_table(&data));
    }

    /// A stream of literal and copy ops for `decompress` cases.
    fn stream(expected_len: u64, ops: &[(u8, &[u64], &[u8])]) -> Vec<u8> {
        let mut s = Vec::new();
        put_varint64(&mut s, expected_len);
        for (tag, varints, bytes) in ops {
            s.push(*tag);
            for &v in *varints {
                put_varint64(&mut s, v);
            }
            s.extend_from_slice(bytes);
        }
        s
    }

    #[test]
    fn copy_with_distance_equal_to_length() {
        let s = stream(8, &[(0x00, &[4], b"abcd"), (0x01, &[4, 4], b"")]);
        assert_eq!(decompress(&s).unwrap(), b"abcdabcd");
    }

    #[test]
    fn copy_with_distance_below_length_repeats() {
        let s = stream(9, &[(0x00, &[2], b"ab"), (0x01, &[7, 2], b"")]);
        assert_eq!(decompress(&s).unwrap(), b"ababababa");
        let s = stream(6, &[(0x00, &[1], b"z"), (0x01, &[5, 1], b"")]);
        assert_eq!(decompress(&s).unwrap(), b"zzzzzz");
    }

    #[test]
    fn bad_copies_rejected() {
        // Distance zero, distance past the output, and a copy past the
        // declared length.
        for s in [
            stream(8, &[(0x00, &[4], b"abcd"), (0x01, &[4, 0], b"")]),
            stream(8, &[(0x00, &[4], b"abcd"), (0x01, &[4, 5], b"")]),
            stream(7, &[(0x00, &[4], b"abcd"), (0x01, &[4, 4], b"")]),
            stream(3, &[(0x00, &[4], b"abcd")]),
            stream(8, &[(0x00, &[9], b"abcd")]),
        ] {
            assert!(decompress(&s).is_err(), "{s:?}");
        }
    }

    #[test]
    fn empty_roundtrip() {
        let c = compress(b"");
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn simple_roundtrip() {
        let data = b"hello world hello world hello world";
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len(), "repetitive data should shrink");
    }

    #[test]
    fn json_tweets_compress_well() {
        // Simulated paper workload: repetitive JSON structure.
        let mut data = Vec::new();
        for i in 0..50 {
            data.extend_from_slice(
                format!(
                    r#"{{"UserID":"u{}","Text":"some tweet body text here","CreationTime":{}}}"#,
                    i % 7,
                    1_528_070_000 + i
                )
                .as_bytes(),
            );
        }
        let c = compress(&data);
        assert!(
            (c.len() as f64) < 0.6 * data.len() as f64,
            "ratio {}/{}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: no matches, pure literal passthrough.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rle_overlapping_copy() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_rejected() {
        let c = compress(b"abcdabcdabcdabcd");
        // Bad tag.
        let mut bad = c.clone();
        let idx = 1; // first op tag position (after 1-byte varint length)
        bad[idx] = 0x7f;
        assert!(decompress(&bad).is_err());
        // Truncation.
        assert!(decompress(&c[..c.len() - 1]).is_err());
        // Length mismatch.
        let mut bad2 = c.clone();
        bad2[0] = bad2[0].wrapping_add(1);
        assert!(decompress(&bad2).is_err());
    }

    #[test]
    fn compression_tag_roundtrip() {
        for c in [Compression::None, Compression::Snaplite] {
            assert_eq!(Compression::from_u8(c.to_u8()).unwrap(), c);
        }
        assert!(Compression::from_u8(9).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..8192)) {
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn prop_matches_fresh_table(data in proptest::collection::vec(0u8..4, 0..4096)) {
            prop_assert_eq!(compress(&data), compress_fresh_table(&data));
        }

        #[test]
        fn prop_decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decompress(&data);
        }
    }
}
