//! CRC32C (Castagnoli) checksum, slicing-by-8 in three lanes.
//!
//! Protects WAL records, SSTable blocks and the SSTable key directory, so
//! it runs over every byte written and every block read on a cache miss.
//! Eight 256-entry tables consume eight input bytes per step instead of
//! one. A step waits on the one before it, so each 3·`LANE`-byte stride is
//! fed as three independent chains, one per `LANE` bytes, in one loop, and
//! the three states are joined by advancing the earlier ones over the
//! bytes after them (`SHIFT`). Bytes past the last whole stride go through
//! one chain. Polynomial and values are those of the bytewise loop the
//! slicing replaced, so data written before either change verifies
//! unchanged. Implemented in-repo to keep the dependency set minimal.

/// The CRC32C polynomial, reflected.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic bytewise table for polynomial 0x82F63B78
/// (reflected); `TABLES[k][i]` is the CRC of byte `i` followed by `k` zero
/// bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

/// Bytes per lane in a three-lane stride.
const LANE: usize = 256;

/// `SHIFT[k][i]` is the state `i << 8k` advanced over `LANE` zero bytes.
/// Advancing a state over zero bytes is linear in the state, so a whole
/// state is advanced by the XOR of four lookups, one per byte.
static SHIFT: [[u32; 256]; 4] = build_shift();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        t[0][i] = advance(i as u32, 8);
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

const fn build_shift() -> [[u32; 256]; 4] {
    // The images of the 32 single-bit states; every other state is an XOR of them.
    let mut bits = [0u32; 32];
    let mut b = 0;
    while b < 32 {
        bits[b] = advance(1 << b, 8 * LANE);
        b += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let mut b = 0;
            while b < 8 {
                if i >> b & 1 != 0 {
                    t[k][i] ^= bits[8 * k + b];
                }
                b += 1;
            }
            i += 1;
        }
        k += 1;
    }
    t
}

/// The state `crc` advanced over `n` zero bits, one bit at a time.
const fn advance(mut crc: u32, n: usize) -> u32 {
    let mut bit = 0;
    while bit < n {
        crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
        bit += 1;
    }
    crc
}

/// The state `crc` advanced over `LANE` bytes of zeros.
fn shift(crc: u32) -> u32 {
    let s = &SHIFT;
    s[0][(crc & 0xFF) as usize]
        ^ s[1][((crc >> 8) & 0xFF) as usize]
        ^ s[2][((crc >> 16) & 0xFF) as usize]
        ^ s[3][(crc >> 24) as usize]
}

/// Feeds one 8-byte chunk into the state `crc`. Inlined by force: as a
/// call, the three lanes' steps run one after another.
#[inline(always)]
fn step(crc: u32, c: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Feeds `data` into the running (pre-inverted) CRC state.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut strides = data.chunks_exact(3 * LANE);
    for stride in &mut strides {
        let (a, rest) = stride.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        // Lanes b and c start from 0: the state over a‖b‖c is
        // shift(shift(a's) ^ b's) ^ c's.
        let (mut ca, mut cb, mut cc) = (crc, 0, 0);
        for ((x, y), z) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
            ca = step(ca, x);
            cb = step(cb, y);
            cc = step(cc, z);
        }
        crc = shift(shift(ca) ^ cb) ^ cc;
    }
    let mut chunks = strides.remainder().chunks_exact(8);
    for c in &mut chunks {
        crc = step(crc, c);
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
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

    /// Lengths up to two strides of three lanes and past them, so every
    /// path runs: no stride, whole strides, and strides plus a remainder of
    /// 8-byte chunks and single bytes.
    const LONGEST: usize = 6 * LANE + 17;

    #[test]
    fn slicing_equals_bytewise_at_every_length_alignment_and_split() {
        let buf: Vec<u8> =
            (0..LONGEST + 8).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        // Every cut up to 64 bytes, and each lane boundary and one byte
        // either side, so a second part starts mid-lane and mid-stride.
        let lanes = (LANE..=6 * LANE).step_by(LANE).flat_map(|b| [b - 1, b, b + 1]);
        let cuts: Vec<usize> = (0..=64).chain(lanes).collect();
        for align in 0..8 {
            for len in 0..=LONGEST {
                let data = &buf[align..align + len];
                let want = bytewise(data);
                assert_eq!(crc32c(data), want, "align {align} len {len}");
                for &cut in cuts.iter().filter(|&&cut| cut <= len) {
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
