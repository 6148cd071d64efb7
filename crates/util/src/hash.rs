//! The workspace's two non-cryptographic checksums, each in exactly one
//! place: CRC-32 (granule containers, journal frames) and FNV-1a 64
//! (content digests, journal state checksums, shard placement).
//!
//! Both are defined byte-by-byte, so any implementation that consumes the
//! same bytes in the same order yields the same value. The CRC folds 64
//! bytes per step by carry-less multiplication where the CPU has it and
//! reads eight bytes per step (slice-by-8) everywhere else; the tests check
//! both paths against the bit-at-a-time definition.

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
///
/// Inputs of 128 bytes or more are folded by carry-less multiplication on
/// an x86-64 CPU with `pclmulqdq` and `sse4.1` (std caches the CPUID
/// answer); shorter inputs and other hosts take the slice-by-8 table.
pub fn crc32_chain(prev: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN && clmul::available() {
        // SAFETY: `available` has just confirmed both target features.
        return unsafe { clmul::crc32_chain(prev, data) };
    }
    crc32_table(prev, data)
}

/// Shortest input worth the carry-less path: two folding rounds.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const CLMUL_MIN: usize = 128;

/// [`crc32_chain`] by the slice-by-8 table, on any host and any length.
fn crc32_table(prev: u32, data: &[u8]) -> u32 {
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

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009, in its
/// bit-reflected form). The register is four 128-bit lanes; each step
/// multiplies every lane by `x^512 mod P` and adds the next 64 input bytes,
/// which is polynomial arithmetic modulo `P`, so the remainder is the one
/// the table computes byte by byte. The lanes are then folded into one, that
/// one to 64 bits, and a Barrett reduction leaves the 32-bit register; the
/// tail of fewer than 16 bytes goes through the table.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^n mod P`, bit-reflected and shifted left by one (the product of
    /// two reflected 64-bit halves lands one bit low), for the distances `n`
    /// a lane is moved: 512 ± 32 across four lanes, 128 ± 32 across one, and
    /// 64 for the last half-lane. The tests derive them from the polynomial.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// Barrett's pair, both 33 bits and bit-reflected: `P` itself and
    /// `⌊x^64 / P⌋`.
    pub(super) const P: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs [`crc32_chain`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::crc32_chain`] on a CPU with `pclmulqdq` and `sse4.1`;
    /// inputs shorter than 64 bytes go to the table whole.
    ///
    /// # Safety
    /// The CPU must support both target features ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn crc32_chain(prev: u32, data: &[u8]) -> u32 {
        if data.len() < 64 {
            return super::crc32_table(prev, data);
        }
        // SAFETY: `c[..16]` bounds-checks the 16 bytes the unaligned load reads.
        let load = |c: &[u8]| _mm_loadu_si128(c[..16].as_ptr().cast());
        let fold = |a: __m128i, b: __m128i, k: __m128i| {
            let lo = _mm_clmulepi64_si128(a, k, 0x00);
            let hi = _mm_clmulepi64_si128(a, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(lo, hi), b)
        };
        let (first, rest) = data.split_at(64);
        let mut x = [0, 1, 2, 3].map(|i| load(&first[16 * i..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!prev as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut wide = rest.chunks_exact(64);
        for c in &mut wide {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = fold(*lane, load(&c[16 * i..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut narrow = wide.remainder().chunks_exact(16);
        for c in &mut narrow {
            acc = fold(acc, load(c), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: the quotient's low 32 bits times `P` cancel all but the
        // remainder, which the reflected layout leaves in bits 32..64.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        super::crc32_table(!crc, narrow.remainder())
    }
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

    type CrcFn = fn(u32, &[u8]) -> u32;

    /// Both CRC paths, called directly: the table on every host, the
    /// carry-less one where the CPU has it (its absence is printed).
    fn crc_paths() -> Vec<(&'static str, CrcFn)> {
        let mut paths: Vec<(&'static str, CrcFn)> = vec![("table", crc32_table)];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: the CPU has the features `clmul::crc32_chain` needs.
            paths.push(("clmul", |prev, data| unsafe {
                clmul::crc32_chain(prev, data)
            }));
            return paths;
        }
        eprintln!("no pclmulqdq + sse4.1 on this host: the carry-less CRC path was skipped");
        paths
    }

    fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn both_crc_paths_match_the_bitwise_definition_at_every_length_and_offset() {
        let buf = random_bytes(0xC1, 4096 + 16);
        for start in 0..16 {
            // The definition of every prefix, one byte further each time.
            let mut expected = vec![0u32];
            for &b in &buf[start..start + 4096] {
                expected.push(crc32_bitwise(*expected.last().unwrap(), &[b]));
            }
            for (name, crc) in crc_paths() {
                for (len, &want) in expected.iter().enumerate() {
                    let got = crc(0, &buf[start..start + len]);
                    assert_eq!(got, want, "{name}: len {len} start {start}");
                }
            }
        }
        let big = random_bytes(0xC2, 1 << 20);
        let want = crc32_bitwise(0, &big);
        for (name, crc) in crc_paths() {
            assert_eq!(crc(0, &big), want, "{name}: 1 MiB");
            assert_eq!(
                crc(0x1234_5678, &big),
                crc32_bitwise(0x1234_5678, &big),
                "{name}"
            );
        }
    }

    #[test]
    fn crc32_chain_split_at_random_points_equals_the_whole() {
        let buf = random_bytes(0xC3, 20_000);
        let want = crc32_bitwise(0, &buf);
        let mut rng = Xoshiro256::seed_from(0xC4);
        for round in 0..200 {
            // Early rounds cut pieces shorter than the carry-less minimum,
            // so the stream alternates between the two paths.
            let max_piece = if round < 100 { 2 * CLMUL_MIN } else { 5_000 };
            let (mut at, mut crc) = (0, 0);
            while at < buf.len() {
                let n = (1 + rng.next_u64() as usize % max_piece).min(buf.len() - at);
                crc = crc32_chain(crc, &buf[at..at + n]);
                at += n;
            }
            assert_eq!(crc, want, "round {round}");
        }
    }

    #[test]
    fn both_crc_paths_chain_like_the_journal_frame_checksum() {
        for len in [0usize, 63, 64, 127, 128, 129, 1000, 4093, 65_536 + 5] {
            let payload = random_bytes(len as u64, len);
            let head = (len as u32).to_le_bytes();
            let want = crc32_bitwise(crc32_bitwise(0, &head), &payload);
            for (name, crc) in crc_paths() {
                assert_eq!(crc(crc(0, &head), &payload), want, "{name}: len {len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_constants_are_powers_of_x_modulo_the_polynomial() {
        // The polynomial in normal bit order, x^32 included.
        const P_NORMAL: u64 = 0x1_04C1_1DB7;
        let x_pow_mod = |n: u32| {
            (0..n).fold(1u64, |r, _| {
                let r = r << 1;
                if r >> 32 & 1 == 1 {
                    r ^ P_NORMAL
                } else {
                    r
                }
            })
        };
        let folded = |n| ((x_pow_mod(n) as u32).reverse_bits() as i64) << 1;
        assert_eq!(clmul::K1, folded(4 * 128 + 32));
        assert_eq!(clmul::K2, folded(4 * 128 - 32));
        assert_eq!(clmul::K3, folded(128 + 32));
        assert_eq!(clmul::K4, folded(128 - 32));
        assert_eq!(clmul::K5, folded(64));
        // ⌊x^64 / P⌋ by long division, then both 33-bit values reflected.
        let (mut rem, mut quot) = (1u128 << 64, 0u128);
        for shift in (0..=32).rev() {
            if rem >> (32 + shift) & 1 == 1 {
                rem ^= (P_NORMAL as u128) << shift;
                quot |= 1 << shift;
            }
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(clmul::P, reflect33(P_NORMAL));
        assert_eq!(clmul::MU, reflect33(quot as u64));
    }

    #[test]
    fn fnv1a64_known_vectors_and_chaining() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_chain(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
