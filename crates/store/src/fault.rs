//! Fault injection for crash-recovery tests.
//!
//! Three tools:
//!
//! * [`FaultFile`] mutates files on disk the way real failures do —
//!   torn writes (the file ends mid-record), bit flips (a storage or
//!   transfer error that CRCs must catch), and byte-range overwrites.
//! * [`ShortReader`] wraps any [`Read`] and returns at most `max_chunk`
//!   bytes per call, optionally splitting a read at one chosen absolute
//!   offset — exercising the (easy to get wrong) partial-read handling
//!   of decode paths.
//! * [`CountingWriter`] wraps any [`Write`] and counts the calls that
//!   reach it — each one a `write(2)`/`writev(2)` on a socket or file —
//!   optionally accepting at most `max_chunk` bytes per call to
//!   exercise partial-write handling.
//!
//! Everything here is test infrastructure, but it lives in the library
//! (not `#[cfg(test)]`) so downstream crates — `fasea-sim`'s recovery
//! tests, the integration crash matrix — can drive the same faults.

use std::fs::{self, OpenOptions};
use std::io::{self, IoSlice, Read, Write};
use std::path::{Path, PathBuf};

/// Handle for injecting storage faults into one file.
#[derive(Debug, Clone)]
pub struct FaultFile {
    path: PathBuf,
}

impl FaultFile {
    /// Targets `path` (which must exist when a fault is injected).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FaultFile { path: path.into() }
    }

    /// The targeted path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length in bytes.
    pub fn len(&self) -> io::Result<u64> {
        Ok(fs::metadata(&self.path)?.len())
    }

    /// `true` if the file is empty.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Simulates a torn write: the file is cut to `keep_bytes`, as if
    /// the process died while the tail was still in flight.
    pub fn torn_write(&self, keep_bytes: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(keep_bytes)?;
        f.sync_all()
    }

    /// Flips bit `bit` (0–7) of the byte at `offset`.
    pub fn flip_bit(&self, offset: u64, bit: u8) -> io::Result<()> {
        assert!(bit < 8, "bit index out of range");
        let mut bytes = fs::read(&self.path)?;
        let idx = offset as usize;
        if idx >= bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("flip offset {offset} beyond file of {} bytes", bytes.len()),
            ));
        }
        bytes[idx] ^= 1 << bit;
        fs::write(&self.path, bytes)
    }

    /// Overwrites `data.len()` bytes starting at `offset` (a localised
    /// scribble, e.g. a misdirected write).
    pub fn overwrite(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut bytes = fs::read(&self.path)?;
        let start = offset as usize;
        let end = start + data.len();
        if end > bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "overwrite {start}..{end} beyond file of {} bytes",
                    bytes.len()
                ),
            ));
        }
        bytes[start..end].copy_from_slice(data);
        fs::write(&self.path, bytes)
    }

    /// Appends `garbage` to the file (e.g. a partially-written next
    /// record of unknown shape).
    pub fn append_garbage(&self, garbage: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = OpenOptions::new().append(true).open(&self.path)?;
        f.write_all(garbage)?;
        f.sync_all()
    }
}

/// A [`Read`] adapter that never returns more than `max_chunk` bytes
/// per call and additionally splits one read exactly at `split_at`
/// bytes from the start of the stream. Decode paths that assume `read`
/// fills the buffer break under this adapter; correct ones don't.
#[derive(Debug)]
pub struct ShortReader<R> {
    inner: R,
    max_chunk: usize,
    split_at: Option<u64>,
    position: u64,
}

impl<R: Read> ShortReader<R> {
    /// Caps every read at `max_chunk` bytes (must be ≥ 1).
    pub fn new(inner: R, max_chunk: usize) -> Self {
        assert!(max_chunk >= 1, "max_chunk must be at least 1");
        ShortReader {
            inner,
            max_chunk,
            split_at: None,
            position: 0,
        }
    }

    /// Additionally forces a read boundary at absolute offset
    /// `split_at` — the read that would straddle it is cut short.
    pub fn with_split(mut self, split_at: u64) -> Self {
        self.split_at = Some(split_at);
        self
    }
}

impl<R: Read> Read for ShortReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut limit = buf.len().min(self.max_chunk);
        if let Some(split) = self.split_at {
            if self.position < split {
                let until_split = (split - self.position) as usize;
                limit = limit.min(until_split);
            }
        }
        let n = self.inner.read(&mut buf[..limit])?;
        self.position += n as u64;
        Ok(n)
    }
}

/// A [`Write`] adapter that counts the `write` and `write_vectored`
/// calls reaching it. Framing code that must hand each frame to the
/// sink in one call is checked with it; a cap set by
/// [`with_max_chunk`](CountingWriter::with_max_chunk) makes every call
/// accept at most that many bytes, as a socket under pressure may.
#[derive(Debug)]
pub struct CountingWriter<W> {
    inner: W,
    calls: usize,
    max_chunk: usize,
}

impl<W: Write> CountingWriter<W> {
    /// Wraps `inner`, accepting whole buffers.
    pub fn new(inner: W) -> Self {
        CountingWriter {
            inner,
            calls: 0,
            max_chunk: usize::MAX,
        }
    }

    /// Accepts at most `max_chunk` bytes (≥ 1) per call.
    pub fn with_max_chunk(mut self, max_chunk: usize) -> Self {
        assert!(max_chunk >= 1, "max_chunk must be at least 1");
        self.max_chunk = max_chunk;
        self
    }

    /// `write` plus `write_vectored` calls so far.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// The wrapped writer.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        let n = buf.len().min(self.max_chunk);
        self.inner.write_all(&buf[..n])?;
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.calls += 1;
        let mut budget = self.max_chunk;
        let mut written = 0;
        for buf in bufs {
            let n = buf.len().min(budget);
            self.inner.write_all(&buf[..n])?;
            written += n;
            budget -= n;
            if budget == 0 {
                break;
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{read_frame, write_frame, FrameOutcome, Record};

    fn tmp_file(name: &str, contents: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("fasea-fault-{name}-{}", std::process::id()));
        fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn torn_write_truncates() {
        let path = tmp_file("torn", &[1, 2, 3, 4, 5, 6]);
        let f = FaultFile::new(&path);
        f.torn_write(2).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![1, 2]);
        assert_eq!(f.len().unwrap(), 2);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn flip_bit_flips_exactly_one() {
        let path = tmp_file("flip", &[0b0000_0000; 4]);
        let f = FaultFile::new(&path);
        f.flip_bit(2, 5).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![0, 0, 0b0010_0000, 0]);
        assert!(f.flip_bit(99, 0).is_err());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn overwrite_and_append() {
        let path = tmp_file("scribble", &[9; 8]);
        let f = FaultFile::new(&path);
        f.overwrite(3, &[1, 2]).unwrap();
        f.append_garbage(&[7, 7]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![9, 9, 9, 1, 2, 9, 9, 9, 7, 7]);
        assert!(f.overwrite(9, &[1, 1]).is_err());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn short_reader_chunks_and_splits() {
        let data: Vec<u8> = (0..64).collect();
        let mut r = ShortReader::new(&data[..], 5).with_split(13);
        let mut out = Vec::new();
        let mut buf = [0u8; 32];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 5);
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn frame_decoding_survives_short_reads() {
        let mut buf = Vec::new();
        let rec = Record::Feedback {
            t: 5,
            accepts: vec![true, false, true],
        };
        write_frame(&mut buf, 11, &rec).unwrap();
        for chunk in 1..8 {
            for split in 0..buf.len() as u64 {
                let mut r = ShortReader::new(&buf[..], chunk).with_split(split);
                match read_frame(&mut r).unwrap() {
                    FrameOutcome::Ok { seq, record, .. } => {
                        assert_eq!(seq, 11);
                        assert_eq!(record, rec);
                    }
                    other => panic!("chunk {chunk} split {split}: {other:?}"),
                }
            }
        }
    }
}
