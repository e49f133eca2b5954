//! CRC32C (Castagnoli) with LevelDB's mask/unmask scheme.
//!
//! Log records and table footers are protected by CRC32C. LevelDB
//! additionally *masks* stored CRCs so that computing the CRC of a string
//! that itself contains embedded CRCs does not degrade the checksum; we
//! reproduce that behaviour bit-for-bit.
//!
//! Every block read and every frame pays a CRC, so the kernel runs at
//! memory speed: on x86-64 CPUs with SSE4.2 it uses the `crc32`
//! instruction eight bytes at a time, picked at runtime; everywhere else
//! it falls back to slicing-by-8 tables. Both paths compute the same
//! values.

/// The Castagnoli polynomial, reflected.
const POLY: u32 = 0x82f6_3b78;

/// Slicing-by-8 tables, built at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Compute the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extend a running CRC32C with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `extend_sse42` only requires SSE4.2, which the runtime
        // check above has just confirmed this CPU supports.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_slicing8(crc, data)
}

/// [`extend`] with the SSE4.2 `crc32` instruction, eight bytes at a time.
/// Calling it is sound only on a CPU that has SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = u64::from(!crc);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        c = _mm_crc32_u64(c, u64::from_le_bytes(w));
    }
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// [`extend`] with slicing-by-8 tables: the portable path.
fn extend_slicing8(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][word[4] as usize]
            ^ t[2][word[5] as usize]
            ^ t[1][word[6] as usize]
            ^ t[0][word[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Mask a CRC prior to storage (LevelDB trick).
pub fn mask(crc: u32) -> u32 {
    (crc.rotate_right(15)).wrapping_add(MASK_DELTA)
}

/// Undo [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time CRC32C straight from the polynomial: the oracle both
    /// fast paths are checked against.
    fn reference(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        !c
    }

    type Extend = fn(u32, &[u8]) -> u32;

    /// Every implementation under test: the dispatching entry point, the
    /// portable fallback and, where the CPU has it, the SSE4.2 path.
    fn paths() -> Vec<(&'static str, Extend)> {
        let mut paths: Vec<(&'static str, Extend)> =
            vec![("extend", extend), ("slicing8", extend_slicing8)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            paths.push(("sse42", |crc, data| {
                // SAFETY: guarded by the SSE4.2 runtime check just above.
                unsafe { extend_sse42(crc, data) }
            }));
        }
        paths
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors for CRC32C.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        for (name, f) in paths() {
            assert_eq!(f(0, &[0u8; 32]), 0x8a91_36aa, "{name}");
            assert_eq!(f(0, &[0xffu8; 32]), 0x62a8_ab43, "{name}");
            assert_eq!(f(0, &ascending), 0x46dd_794e, "{name}");
            assert_eq!(f(0, &descending), 0x113f_db5c, "{name}");
        }
    }

    #[test]
    fn standard_check_value() {
        // The canonical "123456789" check value for CRC-32C.
        for (name, f) in paths() {
            assert_eq!(f(0, b"123456789"), 0xe306_9283, "{name}");
        }
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn every_length_and_alignment_matches_reference() {
        let buf: Vec<u8> = (0..320u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for (name, f) in paths() {
            for start in 0..8 {
                for len in 0..=300 {
                    let data = &buf[start..start + len];
                    for seed in [0, 0xdead_beef] {
                        assert_eq!(
                            f(seed, data),
                            reference(seed, data),
                            "{name} start={start} len={len} seed={seed:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extend_equals_whole() {
        let data = b"hello world, this is leveldb++";
        for (name, f) in paths() {
            let whole = f(0, data);
            let split = f(f(0, &data[..10]), &data[10..]);
            assert_eq!(whole, split, "{name}");
        }
    }

    #[test]
    fn mask_roundtrip_and_differs() {
        let crc = crc32c(b"foo");
        assert_ne!(mask(crc), crc);
        assert_eq!(unmask(mask(crc)), crc);
    }

    proptest! {
        #[test]
        fn prop_mask_roundtrip(v in any::<u32>()) {
            prop_assert_eq!(unmask(mask(v)), v);
        }

        #[test]
        fn prop_extend_split(data in proptest::collection::vec(any::<u8>(), 0..256), split in 0usize..256) {
            let split = split.min(data.len());
            for (name, f) in paths() {
                let whole = f(0, &data);
                let halves = f(f(0, &data[..split]), &data[split..]);
                prop_assert_eq!(whole, halves, "{}", name);
                prop_assert_eq!(whole, reference(0, &data), "{}", name);
            }
        }
    }
}
