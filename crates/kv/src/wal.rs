//! Write-ahead log.
//!
//! Every mutation is appended to the WAL before entering the memtable, so a
//! crash between write and flush loses nothing. Record layout:
//!
//! ```text
//! record := [len: u32][crc32c: u32][payload]
//! payload := [type: u8][klen: u32][key][value]     (type 0 = put, 1 = delete)
//! ```
//!
//! Replay is tolerant of a torn tail: the first record that fails its
//! length or checksum ends recovery (standard crash-consistency behaviour —
//! a torn record can only be the unacknowledged last write).

use crate::crc::crc32c;
use crate::error::{KvError, Result};
use crate::types::Bytes;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const TYPE_PUT: u8 = 0;
const TYPE_DELETE: u8 = 1;

/// An append-only write-ahead log.
#[derive(Debug)]
pub struct Wal {
    writer: BufWriter<File>,
    path: PathBuf,
    /// fsync after every append (durable but slow); otherwise only on
    /// [`Wal::sync`].
    sync_on_write: bool,
}

impl Wal {
    /// Creates a new WAL, truncating any existing file at `path`.
    pub fn create(path: &Path, sync_on_write: bool) -> Result<Self> {
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(Wal { writer: BufWriter::new(file), path: path.to_path_buf(), sync_on_write })
    }

    /// Opens an existing WAL for appending (after replay).
    pub fn open_append(path: &Path, sync_on_write: bool) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal { writer: BufWriter::new(file), path: path.to_path_buf(), sync_on_write })
    }

    /// Logs a put.
    pub fn append_put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.append(TYPE_PUT, key, value)
    }

    /// Logs a delete.
    pub fn append_delete(&mut self, key: &[u8]) -> Result<()> {
        self.append(TYPE_DELETE, key, &[])
    }

    fn append(&mut self, rtype: u8, key: &[u8], value: &[u8]) -> Result<()> {
        let payload_len = 1 + 4 + key.len() + value.len();
        let klen = (key.len() as u32).to_le_bytes();
        let crc = crc32c_payload(rtype, key, value);
        self.writer.write_all(&(payload_len as u32).to_le_bytes())?;
        self.writer.write_all(&crc.to_le_bytes())?;
        self.writer.write_all(&[rtype])?;
        self.writer.write_all(&klen)?;
        self.writer.write_all(key)?;
        self.writer.write_all(value)?;
        if self.sync_on_write {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffers and fsyncs the file.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Consumes the WAL *without* flushing its buffer — used when rotating
    /// after a flush, where everything buffered is already durable in an
    /// SSTable and a late buffered write would corrupt the fresh log.
    pub fn discard(self) {
        let (_file, _buffer) = self.writer.into_parts();
        // Both parts drop without any further write.
    }

    /// Replays a WAL file, returning the logged operations in order.
    /// Returns an empty vec when the file does not exist. A torn tail ends
    /// replay silently; corruption *before* the tail is reported.
    pub fn replay(path: &Path) -> Result<Vec<(Bytes, Option<Bytes>)>> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        let mut ops = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            if pos + 8 > buf.len() {
                break; // torn length/crc header
            }
            let len = crate::codec::u32_le(&buf, pos, "WAL record length")? as usize;
            let crc = crate::codec::u32_le(&buf, pos + 4, "WAL record checksum")?;
            let body_start = pos + 8;
            let body_end = match body_start.checked_add(len) {
                Some(e) if e <= buf.len() => e,
                _ => break, // torn body
            };
            // trass-lint: allow(panic-surface) record bounds are checked against the buffer length before the CRC/body split
            let body = &buf[body_start..body_end];
            if crc32c(body) != crc {
                if body_end == buf.len() {
                    break; // torn final record
                }
                return Err(KvError::corruption(format!(
                    "WAL record at offset {pos} failed checksum mid-file"
                )));
            }
            if body.len() < 5 {
                return Err(KvError::corruption("WAL record too short"));
            }
            let rtype = body[0];
            let klen = crate::codec::u32_le(body, 1, "WAL key length")? as usize;
            if 5 + klen > body.len() {
                return Err(KvError::corruption("WAL key length out of range"));
            }
            // trass-lint: allow(panic-surface) record bounds are checked against the buffer length before the CRC/body split
            let key = Bytes::copy_from_slice(&body[5..5 + klen]);
            // trass-lint: allow(panic-surface) record bounds are checked against the buffer length before the CRC/body split
            let value = &body[5 + klen..];
            match rtype {
                TYPE_PUT => ops.push((key, Some(Bytes::copy_from_slice(value)))),
                TYPE_DELETE if value.is_empty() => ops.push((key, None)),
                _ => return Err(KvError::corruption("WAL unknown record type")),
            }
            pos = body_end;
        }
        Ok(ops)
    }
}

fn crc32c_payload(rtype: u8, key: &[u8], value: &[u8]) -> u32 {
    crate::crc::crc32c_parts(&[&[rtype], &(key.len() as u32).to_le_bytes(), key, value])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trass-wal-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn roundtrip_puts_and_deletes() {
        let path = temp_wal("roundtrip");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append_put(b"k1", b"v1").unwrap();
            wal.append_delete(b"k2").unwrap();
            wal.append_put(b"k3", b"").unwrap();
            wal.sync().unwrap();
        }
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0], (Bytes::from(&b"k1"[..]), Some(Bytes::from(&b"v1"[..]))));
        assert_eq!(ops[1], (Bytes::from(&b"k2"[..]), None));
        assert_eq!(ops[2], (Bytes::from(&b"k3"[..]), Some(Bytes::new())));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = temp_wal("missing").join("nope.log");
        assert!(Wal::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = temp_wal("torn");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append_put(b"good", b"value").unwrap();
            wal.append_put(b"torn", b"never-acked").unwrap();
            wal.sync().unwrap();
        }
        // Truncate mid-way through the second record.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0.as_ref(), b"good");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = temp_wal("midcorrupt");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append_put(b"first", b"aaaa").unwrap();
            wal.append_put(b"second", b"bbbb").unwrap();
            wal.sync().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0xFF; // corrupt inside the first record
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(Wal::replay(&path), Err(KvError::Corruption { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_reopen_preserves_order() {
        let path = temp_wal("reopen");
        {
            let mut wal = Wal::create(&path, false).unwrap();
            wal.append_put(b"a", b"1").unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open_append(&path, false).unwrap();
            wal.append_put(b"b", b"2").unwrap();
            wal.sync().unwrap();
        }
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].0.as_ref(), b"a");
        assert_eq!(ops[1].0.as_ref(), b"b");
        std::fs::remove_file(&path).ok();
    }
}
