//! CRC32C (Castagnoli) checksum, slicing-by-8 software implementation.
//!
//! Protects WAL records, SSTable blocks and the SSTable key directory, so
//! it runs over every byte written and every block read on a cache miss.
//! Eight 256-entry tables consume eight input bytes per step instead of
//! one; polynomial and values are those of the bytewise loop it replaced,
//! so data written before the change verifies unchanged. Implemented
//! in-repo to keep the dependency set minimal.

/// `TABLES[0]` is the classic bytewise table for polynomial 0x82F63B78
/// (reflected); `TABLES[k][i]` is the CRC of byte `i` followed by `k` zero
/// bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
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
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Feeds `data` into the running (pre-inverted) CRC state.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// Computes the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Computes the CRC32C over several buffers, as if concatenated.
pub fn crc32c_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |crc, part| update(crc, part))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slicing implementation replaced, kept
    /// as the reference it must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn slicing_equals_bytewise_at_every_length_alignment_and_split() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(167) ^ (i >> 2)) as u8).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let data = &buf[align..align + len];
                let want = bytewise(data);
                assert_eq!(crc32c(data), want, "align {align} len {len}");
                for cut in 0..=len {
                    let (a, b) = data.split_at(cut);
                    assert_eq!(crc32c_parts(&[a, b]), want, "align {align} len {len} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn parts_equal_concatenation() {
        let data = b"hello world, this is a crc test";
        let whole = crc32c(data);
        let split = crc32c_parts(&[&data[..7], &data[7..20], &data[20..]]);
        assert_eq!(whole, split);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"some block payload".to_vec();
        let before = crc32c(&data);
        data[5] ^= 0x01;
        assert_ne!(before, crc32c(&data));
    }
}
