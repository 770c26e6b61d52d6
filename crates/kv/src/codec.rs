//! Checked fixed-width and varint reads for on-disk formats.
//!
//! Every decoder in this crate parses untrusted bytes (a torn WAL, a
//! bit-flipped SSTable). These helpers replace `try_into().expect(..)`
//! slicing with reads that surface short input as [`KvError::Corruption`]
//! instead of panicking, so a damaged file degrades into an error the
//! caller can report.

use crate::error::{KvError, Result};

/// Reads a little-endian `u32` at `buf[at..at + 4]`.
pub(crate) fn u32_le(buf: &[u8], at: usize, what: &str) -> Result<u32> {
    match at.checked_add(4).and_then(|end| buf.get(at..end)) {
        Some(b) => Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        None => Err(KvError::corruption(format!("{what}: truncated u32 at offset {at}"))),
    }
}

/// Reads a little-endian `u64` at `buf[at..at + 8]`.
pub(crate) fn u64_le(buf: &[u8], at: usize, what: &str) -> Result<u64> {
    match at.checked_add(8).and_then(|end| buf.get(at..end)) {
        Some(b) => Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])),
        None => Err(KvError::corruption(format!("{what}: truncated u64 at offset {at}"))),
    }
}

/// Appends `v` as an LEB128 varint (7 bits per byte, low group first).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads the LEB128 varint at `buf[*at..]` and advances `*at` past it.
pub(crate) fn varint(buf: &[u8], at: &mut usize, what: &str) -> Result<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&b) = buf.get(*at) else { break };
        *at += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(KvError::corruption(format!("{what}: truncated or over-long varint")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_bounds() {
        let buf = 0xDEADBEEFu32.to_le_bytes();
        assert_eq!(u32_le(&buf, 0, "t").unwrap(), 0xDEADBEEF);
        let buf = 0x0123_4567_89AB_CDEFu64.to_le_bytes();
        assert_eq!(u64_le(&buf, 0, "t").unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn short_input_is_corruption_not_panic() {
        assert!(matches!(u32_le(&[1, 2, 3], 0, "t"), Err(KvError::Corruption { .. })));
        assert!(matches!(u64_le(&[0; 8], 1, "t"), Err(KvError::Corruption { .. })));
        // Offsets near usize::MAX must not overflow the slice bound.
        assert!(matches!(u32_le(&[0; 4], usize::MAX - 1, "t"), Err(KvError::Corruption { .. })));
    }

    #[test]
    fn varints_roundtrip_and_reject_damage() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 32, u64::MAX];
        for v in values {
            put_varint(&mut buf, v);
        }
        let mut at = 0;
        for v in values {
            assert_eq!(varint(&buf, &mut at, "t").unwrap(), v);
        }
        assert_eq!(at, buf.len());
        assert!(matches!(varint(&[0x80], &mut 0, "t"), Err(KvError::Corruption { .. })));
        assert!(matches!(varint(&[0xFF; 11], &mut 0, "t"), Err(KvError::Corruption { .. })));
    }
}
