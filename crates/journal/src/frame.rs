//! On-disk frame format: `[u32 len][u32 crc32][payload]`, little-endian.
//!
//! The CRC covers the length field *and* the payload, so corruption of
//! either is detected; the length is additionally sanity-bounded so a
//! corrupted length cannot make recovery read gigabytes. Zero-length
//! frames are rejected outright: a post-power-loss zero-filled region
//! would otherwise decode as an endless run of "valid" empty frames
//! (`crc32(b"") == 0`, and all-zero header bytes spell `len == 0,
//! crc == 0`). Journal events are never empty, so `len == 0` is always
//! corruption. Decoding never fails hard — a bad frame yields
//! `FrameOutcome::Torn`, which recovery treats as "the journal ends here".

/// Upper bound on a single frame's payload. Events are small JSON blobs;
/// anything larger is corruption.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Header size in bytes (length + checksum).
pub const HEADER_LEN: usize = 8;

/// CRC-32 (IEEE 802.3, reflected) over `data` — [`eoml_util::hash::crc32`].
pub fn crc32(data: &[u8]) -> u32 {
    eoml_util::hash::crc32(data)
}

/// The frame checksum: CRC-32 chained over the 4 length bytes then the
/// payload, so a frame whose length field was zero-filled (or otherwise
/// altered) fails verification even if the payload bytes still match.
fn frame_crc(len: u32, payload: &[u8]) -> u32 {
    eoml_util::hash::crc32_chain(crc32(&len.to_le_bytes()), payload)
}

/// Serialise one frame. Payloads must be non-empty: an empty frame is
/// indistinguishable from zero-filled corruption and is rejected by
/// [`decode_at`].
pub fn encode(payload: &[u8]) -> Vec<u8> {
    assert!(!payload.is_empty(), "frame payload must be non-empty");
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload too large"
    );
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&frame_crc(len, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of attempting to decode the frame starting at some offset.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameOutcome<'a> {
    /// A complete, checksum-valid frame; `next` is the offset just past it.
    Ok { payload: &'a [u8], next: usize },
    /// The buffer ends exactly at a frame boundary.
    End,
    /// Truncated header, truncated payload, implausible or zero length, or
    /// checksum mismatch — a torn tail.
    Torn,
}

/// Decode the frame starting at `offset` in `buf`.
pub fn decode_at(buf: &[u8], offset: usize) -> FrameOutcome<'_> {
    if offset == buf.len() {
        return FrameOutcome::End;
    }
    let Some(header) = buf.get(offset..offset + HEADER_LEN) else {
        return FrameOutcome::Torn;
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    // len == 0 is the zero-fill signature (see module docs); real frames
    // always carry a payload.
    if len == 0 || len > MAX_FRAME_LEN {
        return FrameOutcome::Torn;
    }
    let start = offset + HEADER_LEN;
    let Some(payload) = buf.get(start..start + len as usize) else {
        return FrameOutcome::Torn;
    };
    if frame_crc(len, payload) != crc {
        return FrameOutcome::Torn;
    }
    FrameOutcome::Ok {
        payload,
        next: start + len as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_crc_is_the_crc_of_length_then_payload() {
        let whole = [&5u32.to_le_bytes()[..], b"hello"].concat();
        assert_eq!(frame_crc(5, b"hello"), crc32(&whole));
    }

    #[test]
    fn roundtrip_single_frame() {
        let buf = encode(b"hello");
        match decode_at(&buf, 0) {
            FrameOutcome::Ok { payload, next } => {
                assert_eq!(payload, b"hello");
                assert_eq!(next, buf.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(decode_at(&buf, buf.len()), FrameOutcome::End);
    }

    #[test]
    fn truncation_and_corruption_are_torn() {
        let buf = encode(b"payload");
        for cut in 0..buf.len() {
            if cut == 0 {
                assert_eq!(decode_at(&buf[..cut], 0), FrameOutcome::End);
            } else {
                assert_eq!(decode_at(&buf[..cut], 0), FrameOutcome::Torn, "cut {cut}");
            }
        }
        let mut bad = buf.clone();
        *bad.last_mut().expect("non-empty") ^= 0xff;
        assert_eq!(decode_at(&bad, 0), FrameOutcome::Torn);
    }

    #[test]
    fn implausible_length_is_torn() {
        let mut buf = vec![0u8; 16];
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_at(&buf, 0), FrameOutcome::Torn);
    }

    #[test]
    fn zero_filled_region_is_torn_not_valid_frames() {
        // Classic post-power-loss block zero-fill: an all-zero region must
        // read as a torn tail, not as checksum-valid empty frames.
        for n in [1, HEADER_LEN, HEADER_LEN + 1, 512, 4096] {
            let zeros = vec![0u8; n];
            assert_eq!(decode_at(&zeros, 0), FrameOutcome::Torn, "{n} zero bytes");
        }
    }

    #[test]
    fn corrupted_length_field_fails_the_checksum() {
        // Same payload bytes, tampered length: the CRC covers the length
        // field, so this cannot decode even if the payload CRC matches.
        let mut buf = encode(b"abcd");
        // Shrink the declared length to 3; payload prefix "abc" is intact.
        buf[0..4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_at(&buf, 0), FrameOutcome::Torn);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn encoding_an_empty_payload_panics() {
        let _ = encode(b"");
    }
}
