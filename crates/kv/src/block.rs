//! SSTable data blocks.
//!
//! A block is the unit of I/O and of checksum protection. Layout:
//!
//! ```text
//! entry*  := [flag: u8][klen: u32][vlen: u32][key][value]
//! trailer := [n_entries: u32][crc32c: u32 over all preceding bytes]
//! ```
//!
//! `flag` distinguishes puts from tombstones (deletes must survive into
//! SSTables so compaction can shadow older values). Entries within a block
//! are sorted by key; the table's key directory says which slot holds
//! which key, so a block is only ever indexed, never searched.

use crate::crc::crc32c;
use crate::error::{KvError, Result};
use crate::types::Bytes;

const FLAG_PUT: u8 = 0;
const FLAG_TOMBSTONE: u8 = 1;

/// One decoded block entry: a key and either a value or a tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// Entry key.
    pub key: Bytes,
    /// `None` marks a tombstone.
    pub value: Option<Bytes>,
}

/// Builds an encoded block from sorted entries.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    n_entries: u32,
    last_key: Vec<u8>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry. Keys must arrive in strictly increasing order.
    ///
    /// # Panics
    /// Panics in debug builds on out-of-order keys.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(
            self.n_entries == 0 || key > self.last_key.as_slice(),
            "block entries must be strictly increasing"
        );
        let (flag, val) = match value {
            Some(v) => (FLAG_PUT, v),
            None => (FLAG_TOMBSTONE, &[][..]),
        };
        self.buf.push(flag);
        self.buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&(val.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(val);
        self.n_entries += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
    }

    /// Current encoded size, including the trailer that `finish` will add.
    pub fn encoded_size(&self) -> usize {
        self.buf.len() + 8
    }

    /// Number of entries added so far.
    pub fn len(&self) -> u32 {
        self.n_entries
    }

    /// True when no entries were added.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Seals the block, appending the trailer.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.extend_from_slice(&self.n_entries.to_le_bytes());
        let crc = crc32c(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// A decoded, validated block. Its entries are views of the one buffer
/// the block was read into, so decoding copies no key and no value.
#[derive(Debug, Clone)]
pub struct Block {
    entries: Vec<BlockEntry>,
}

impl Block {
    /// Decodes and checksum-validates an encoded block, keeping `buf` as
    /// the storage of every entry it hands out.
    pub fn decode(buf: Bytes) -> Result<Self> {
        if buf.len() < 8 {
            return Err(KvError::corruption("block shorter than trailer"));
        }
        let (body, _) = buf.split_at(buf.len() - 4);
        let stored_crc = crate::codec::u32_le(&buf, buf.len() - 4, "block trailer")?;
        if crc32c(body) != stored_crc {
            return Err(KvError::corruption("block checksum mismatch"));
        }
        let payload_len = body.len() - 4;
        let n_entries = crate::codec::u32_le(body, payload_len, "block entry count")? as usize;
        let view = |from: usize, to: usize, what: &str| {
            buf.slice(from..to)
                .ok_or_else(|| KvError::corruption(format!("block {what} truncated")))
        };

        // Every entry costs at least its 9-byte header, which bounds the
        // allocation by the payload's length.
        let mut entries = Vec::with_capacity(n_entries.min(payload_len / 9));
        let mut pos = 0usize;
        for _ in 0..n_entries {
            if pos + 9 > payload_len {
                return Err(KvError::corruption("block entry header truncated"));
            }
            let flag = body.get(pos).copied().unwrap_or_default();
            let klen = crate::codec::u32_le(body, pos + 1, "block entry klen")? as usize;
            let vlen = crate::codec::u32_le(body, pos + 5, "block entry vlen")? as usize;
            pos += 9;
            let key_end = pos
                .checked_add(klen)
                .ok_or_else(|| KvError::corruption("block entry length overflow"))?;
            let end = key_end
                .checked_add(vlen)
                .ok_or_else(|| KvError::corruption("block entry length overflow"))?;
            if end > payload_len {
                return Err(KvError::corruption("block entry body truncated"));
            }
            let key = view(pos, key_end, "entry key")?;
            let value = match flag {
                FLAG_PUT => Some(view(key_end, end, "entry value")?),
                FLAG_TOMBSTONE if vlen == 0 => None,
                _ => return Err(KvError::corruption("unknown block entry flag")),
            };
            entries.push(BlockEntry { key, value });
            pos = end;
        }
        if pos != payload_len {
            return Err(KvError::corruption("trailing bytes in block payload"));
        }
        Ok(Block { entries })
    }

    /// The entries, sorted by key.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_sample() -> Vec<u8> {
        let mut b = BlockBuilder::new();
        b.add(b"apple", Some(b"red"));
        b.add(b"banana", Some(b"yellow"));
        b.add(b"cherry", None); // tombstone
        b.add(b"date", Some(b""));
        b.finish()
    }

    #[test]
    fn roundtrip() {
        let block = Block::decode(Bytes::from(build_sample())).unwrap();
        let e = block.entries();
        assert_eq!(e.len(), 4);
        assert_eq!(e[0].key.as_ref(), b"apple");
        assert_eq!(e[0].value.as_deref(), Some(&b"red"[..]));
        assert_eq!(e[2].value, None, "tombstone preserved");
        assert_eq!(e[3].value.as_deref(), Some(&b""[..]), "empty value is not a tombstone");
    }

    #[test]
    fn corruption_detected() {
        let mut buf = build_sample();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        assert!(matches!(Block::decode(Bytes::from(buf)), Err(KvError::Corruption { .. })));
    }

    #[test]
    fn truncated_block_rejected() {
        let buf = build_sample();
        for cut in [0, 4, 7, buf.len() - 1] {
            assert!(
                Block::decode(Bytes::copy_from_slice(&buf[..cut])).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn empty_block_roundtrip() {
        let buf = BlockBuilder::new().finish();
        let block = Block::decode(Bytes::from(buf)).unwrap();
        assert!(block.entries().is_empty());
    }

    #[test]
    fn encoded_size_is_exact() {
        let mut b = BlockBuilder::new();
        b.add(b"k1", Some(b"v1"));
        b.add(b"k2", None);
        let predicted = b.encoded_size();
        assert_eq!(b.finish().len(), predicted);
    }
}
