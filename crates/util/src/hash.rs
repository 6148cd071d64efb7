//! The workspace's two non-cryptographic checksums, each in exactly one
//! place: CRC-32 (granule containers, journal frames) and FNV-1a 64
//! (content digests, journal state checksums, shard placement).
//!
//! Both are defined byte-by-byte, so any implementation that consumes the
//! same bytes in the same order yields the same value; the CRC below reads
//! eight bytes per step (slice-by-8) and is checked against the bit-at-a-time
//! definition in the tests.

/// Reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes — the slice-by-8 lookup tables (`[0]` is the classic
/// byte-at-a-time table).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_chain(0, data)
}

/// Continue a CRC-32: `crc32_chain(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_chain(prev: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !prev;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_chain(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a 64 digest: `fnv1a64_chain(fnv1a64(a), b) ==
/// fnv1a64(a ++ b)`.
pub fn fnv1a64_chain(prev: u64, bytes: &[u8]) -> u64 {
    let mut h = prev;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng64, Xoshiro256};

    /// The definition: one bit per step, no tables.
    fn crc32_bitwise(prev: u32, data: &[u8]) -> u32 {
        let mut crc = !prev;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_matches_bitwise_reference_on_random_lengths_and_offsets() {
        let mut rng = Xoshiro256::seed_from(0xC4C);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        for len in (0..64).chain((64..=4096).step_by(61)) {
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(0, s), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn crc32_chains_like_the_journal_frame_checksum() {
        // frame_crc = CRC over the 4 length bytes, continued over the payload.
        let mut rng = Xoshiro256::seed_from(7);
        for len in [1usize, 5, 8, 9, 63, 64, 1000, 4093] {
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let head = (len as u32).to_le_bytes();
            let whole: Vec<u8> = head.iter().chain(&payload).copied().collect();
            let chained = crc32_chain(crc32(&head), &payload);
            assert_eq!(chained, crc32(&whole));
            assert_eq!(
                chained,
                crc32_bitwise(crc32_bitwise(0, &head), &payload),
                "len {len}"
            );
        }
    }

    #[test]
    fn fnv1a64_known_vectors_and_chaining() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_chain(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
