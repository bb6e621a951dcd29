//! The spill log: durable home of evicted estimator state.
//!
//! One append-only file of CRC-framed records (the same
//! `len | crc32 | payload` framing as the round WAL, via
//! `fasea-store`'s raw-frame primitives). Each payload is
//! `key (u64 LE) | kind (u8) | blob`, where `kind` tags the record
//! type:
//!
//! * [`KIND_USER_EXACT`] — a user's exact estimator blob
//!   ([`crate::codec::encode_exact`]), keyed by user id;
//! * [`KIND_COHORT`] — a cohort prior's exact blob, keyed by cohort id;
//! * [`KIND_USER_SKETCH`] — a user's frequent-directions sketch record
//!   ([`crate::codec::encode_sketch_into`]), keyed by user id.
//!
//! Re-spilling a key appends a new frame; the in-memory index keeps
//! only the latest offset per `(kind, key)`, so on the recovery scan
//! **the last frame per key wins** — the on-disk analogue of
//! last-writer-wins.
//!
//! ## Batched appends
//!
//! Demotion under memory pressure happens in runs (the store demotes
//! every victim over budget in one sweep), so the log exposes a batch
//! API: [`SpillLog::batch_begin`] / [`SpillLog::batch_add`] /
//! [`SpillLog::batch_commit`]. A batch stages frames into one reused
//! write buffer and commits them with a single seek + write, so a run
//! of N demotions costs one syscall and — once the buffers have grown
//! to steady-state capacity — zero allocations. [`SpillLog::append`]
//! is a batch of one.
//!
//! ## Crash safety
//!
//! * A committed batch is a contiguous run of frames; a crash mid-write
//!   leaves a torn tail that the opening scan CRC-rejects and
//!   truncates, exactly like the WAL's segment recovery. Earlier frames
//!   of the same batch survive individually (each carries its own CRC).
//! * Compaction writes a complete next-generation file
//!   (`spill-<g+1>.log.tmp`), fsyncs it, then renames it into place —
//!   the rename is the commit point. Stale `.tmp` files and older
//!   generations found at open are deleted.
//! * The header carries an instance fingerprint; opening a directory
//!   that belongs to a different store instance is refused rather than
//!   silently mixing state.

use crate::ModelsError;
use fasea_store::{parse_raw_frame, read_raw_frame, write_raw_frame, FrameParse, RawFrame};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a spill log file.
pub const SPILL_MAGIC: &[u8; 8] = b"FASEASPL";
/// Current on-disk format version (v2 added the record-kind byte).
pub const SPILL_VERSION: u32 = 2;

/// Record kind: a user's exact estimator blob.
pub const KIND_USER_EXACT: u8 = 0;
/// Record kind: a cohort prior's exact estimator blob.
pub const KIND_COHORT: u8 = 1;
/// Record kind: a user's frequent-directions sketch record.
pub const KIND_USER_SKETCH: u8 = 2;

const HEADER_LEN: u64 = 8 + 4 + 8;
/// `key (8) | kind (1)` prefix of every payload.
const PAYLOAD_PREFIX: usize = 9;
/// Compact when dead bytes exceed both live bytes and this floor.
const COMPACT_MIN_GARBAGE: u64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    /// Whole-frame length (header + payload) for accounting.
    frame_len: u64,
}

/// An append-only, CRC-framed, compacting store of spilled models.
#[derive(Debug)]
pub struct SpillLog {
    dir: PathBuf,
    generation: u64,
    file: File,
    write_pos: u64,
    fingerprint: u64,
    index: HashMap<(u8, u64), Slot>,
    live_bytes: u64,
    appends: u64,
    compactions: u64,
    /// Reused staging buffers for the batch API: framed bytes awaiting
    /// the commit write, the payload scratch, and the staged index
    /// entries `(kind, key, offset, frame_len)`.
    batch_buf: Vec<u8>,
    payload_buf: Vec<u8>,
    staged: Vec<(u8, u64, u64, u64)>,
    in_batch: bool,
}

fn log_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("spill-{generation:06}.log"))
}

fn write_header(file: &mut File, fingerprint: u64) -> std::io::Result<()> {
    file.write_all(SPILL_MAGIC)?;
    file.write_all(&SPILL_VERSION.to_le_bytes())?;
    file.write_all(&fingerprint.to_le_bytes())?;
    file.sync_data()
}

fn read_header(file: &mut File, fingerprint: u64) -> Result<(), ModelsError> {
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if &magic != SPILL_MAGIC {
        return Err(ModelsError::Spill("not a spill log"));
    }
    let mut word = [0u8; 4];
    file.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != SPILL_VERSION {
        return Err(ModelsError::Spill("unsupported spill log version"));
    }
    let mut fp = [0u8; 8];
    file.read_exact(&mut fp)?;
    if u64::from_le_bytes(fp) != fingerprint {
        return Err(ModelsError::Spill("spill log belongs to another store"));
    }
    Ok(())
}

impl SpillLog {
    /// Opens (or creates) the spill log in `dir`, recovering its index
    /// by scanning frames and truncating any torn tail. `fingerprint`
    /// ties the directory to one store instance.
    pub fn open(dir: &Path, fingerprint: u64) -> Result<Self, ModelsError> {
        fs::create_dir_all(dir)?;
        let mut generations: Vec<u64> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // A compaction that never reached its rename commit.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(g) = name
                .strip_prefix("spill-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                generations.push(g);
            }
        }
        generations.sort_unstable();
        let generation = match generations.last() {
            Some(&g) => {
                // Older generations were superseded by a committed
                // compaction that crashed before deleting them.
                for &old in &generations[..generations.len() - 1] {
                    let _ = fs::remove_file(log_path(dir, old));
                }
                g
            }
            None => {
                let mut file = File::create(log_path(dir, 0))?;
                write_header(&mut file, fingerprint)?;
                0
            }
        };

        let path = log_path(dir, generation);
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        read_header(&mut file, fingerprint)?;

        // Scan: last frame per (kind, key) wins; stop at the first torn
        // frame and truncate the file back to the valid prefix.
        let mut index: HashMap<(u8, u64), Slot> = HashMap::new();
        let mut reader = BufReader::new(&mut file);
        let mut good_end = HEADER_LEN;
        loop {
            match read_raw_frame(&mut reader)? {
                RawFrame::Eof => break,
                RawFrame::Torn { .. } => {
                    drop(reader);
                    file.set_len(good_end)?;
                    file.sync_data()?;
                    break;
                }
                RawFrame::Payload { payload, bytes } => {
                    if payload.len() < PAYLOAD_PREFIX {
                        drop(reader);
                        file.set_len(good_end)?;
                        file.sync_data()?;
                        break;
                    }
                    let key = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    let kind = payload[8];
                    index.insert(
                        (kind, key),
                        Slot {
                            offset: good_end,
                            frame_len: bytes,
                        },
                    );
                    good_end += bytes;
                }
            }
        }
        let live_bytes = index.values().map(|s| s.frame_len).sum();
        Ok(SpillLog {
            dir: dir.to_path_buf(),
            generation,
            file,
            write_pos: good_end,
            fingerprint,
            index,
            live_bytes,
            appends: 0,
            compactions: 0,
            batch_buf: Vec::new(),
            payload_buf: Vec::new(),
            staged: Vec::new(),
            in_batch: false,
        })
    }

    /// Starts a batch of appends. Frames staged with
    /// [`SpillLog::batch_add`] hit the file — and become readable — only
    /// at [`SpillLog::batch_commit`].
    ///
    /// # Panics
    /// Panics if a batch is already open.
    pub fn batch_begin(&mut self) {
        assert!(!self.in_batch, "spill batch already open");
        self.in_batch = true;
        self.batch_buf.clear();
        self.staged.clear();
    }

    /// Stages one `(kind, key)` record into the open batch. Reuses the
    /// log's staging buffers — allocation-free once they have grown to
    /// the batch's steady-state size.
    ///
    /// # Errors
    /// I/O errors from framing (buffer writes cannot fail in practice).
    ///
    /// # Panics
    /// Panics if no batch is open.
    pub fn batch_add(&mut self, kind: u8, key: u64, blob: &[u8]) -> Result<(), ModelsError> {
        assert!(self.in_batch, "batch_add outside a spill batch");
        self.payload_buf.clear();
        self.payload_buf.extend_from_slice(&key.to_le_bytes());
        self.payload_buf.push(kind);
        self.payload_buf.extend_from_slice(blob);
        let offset = self.write_pos + self.batch_buf.len() as u64;
        let bytes = write_raw_frame(&mut self.batch_buf, &self.payload_buf)?;
        self.staged.push((kind, key, offset, bytes));
        Ok(())
    }

    /// Commits the open batch: one seek + one write for every staged
    /// frame, then index/accounting updates and (possibly) a
    /// compaction.
    ///
    /// # Errors
    /// I/O failures; the batch is closed either way (a failed write
    /// leaves a torn tail for the next open to truncate).
    ///
    /// # Panics
    /// Panics if no batch is open.
    pub fn batch_commit(&mut self) -> Result<(), ModelsError> {
        assert!(self.in_batch, "batch_commit outside a spill batch");
        self.in_batch = false;
        if self.staged.is_empty() {
            return Ok(());
        }
        self.file.seek(SeekFrom::Start(self.write_pos))?;
        self.file.write_all(&self.batch_buf)?;
        self.write_pos += self.batch_buf.len() as u64;
        for i in 0..self.staged.len() {
            let (kind, key, offset, frame_len) = self.staged[i];
            if let Some(old) = self.index.insert((kind, key), Slot { offset, frame_len }) {
                self.live_bytes -= old.frame_len;
            }
            self.live_bytes += frame_len;
            self.appends += 1;
        }
        self.staged.clear();
        self.batch_buf.clear();
        self.maybe_compact()?;
        Ok(())
    }

    /// Appends (or replaces) one record — a batch of one. Durable once
    /// [`SpillLog::sync`] returns; the write itself is buffered by the
    /// OS like WAL appends under `FsyncPolicy::Never`.
    pub fn append(&mut self, kind: u8, key: u64, blob: &[u8]) -> Result<(), ModelsError> {
        self.batch_begin();
        self.batch_add(kind, key, blob)?;
        self.batch_commit()
    }

    /// Reads back the latest blob for `(kind, key)`, CRC-verified.
    /// `None` if the key has never been spilled (or was cleared). Takes
    /// `&self`: the read seeks a borrowed handle, leaving append state
    /// untouched (appends re-seek to their own write position). The
    /// index knows the whole frame's length, so the frame arrives in one
    /// read and is checked in memory.
    pub fn read(&self, kind: u8, key: u64) -> Result<Option<Vec<u8>>, ModelsError> {
        debug_assert!(!self.in_batch, "reads during an open batch see stale state");
        let slot = match self.index.get(&(kind, key)) {
            Some(s) => *s,
            None => return Ok(None),
        };
        let checksum_failed = ModelsError::Spill("spilled record failed its checksum");
        let mut frame = vec![0u8; slot.frame_len as usize];
        let mut file = &self.file;
        file.seek(SeekFrom::Start(slot.offset))?;
        match file.read_exact(&mut frame) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(checksum_failed),
            Err(e) => return Err(e.into()),
        }
        match parse_raw_frame(&frame) {
            FrameParse::Frame { payload, consumed } if consumed == frame.len() => {
                if payload.len() < PAYLOAD_PREFIX
                    || u64::from_le_bytes(payload[..8].try_into().unwrap()) != key
                    || payload[8] != kind
                {
                    return Err(ModelsError::Spill("spill index points at wrong record"));
                }
                let mut blob = payload;
                blob.drain(..PAYLOAD_PREFIX);
                Ok(Some(blob))
            }
            _ => Err(checksum_failed),
        }
    }

    /// Whether `(kind, key)` has a live spilled record.
    pub fn contains(&self, kind: u8, key: u64) -> bool {
        self.index.contains_key(&(kind, key))
    }

    /// Live keys of one record kind, ascending — deterministic
    /// enumeration for rehydration (e.g. cohort priors at open).
    pub fn live_keys_sorted(&self, kind: u8) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .index
            .keys()
            .filter(|(k, _)| *k == kind)
            .map(|(_, key)| *key)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Drops every record and starts a fresh generation — used when a
    /// snapshot restore supersedes all spilled state.
    pub fn clear(&mut self) -> Result<(), ModelsError> {
        let next = self.generation + 1;
        let path = log_path(&self.dir, next);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        write_header(&mut file, self.fingerprint)?;
        let _ = fs::remove_file(log_path(&self.dir, self.generation));
        self.generation = next;
        self.file = file;
        self.write_pos = HEADER_LEN;
        self.index.clear();
        self.live_bytes = 0;
        Ok(())
    }

    /// Flushes appends to disk (fdatasync).
    pub fn sync(&mut self) -> Result<(), ModelsError> {
        self.file.sync_data()?;
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<(), ModelsError> {
        let total = self.write_pos - HEADER_LEN;
        let garbage = total - self.live_bytes;
        if garbage <= self.live_bytes || garbage < COMPACT_MIN_GARBAGE {
            return Ok(());
        }
        self.compact()
    }

    /// Rewrites the log with only live records (latest frame per key),
    /// committing via rename. Record order is sorted by `(kind, key)`,
    /// so the compacted file's bytes are a pure function of the live
    /// state.
    pub fn compact(&mut self) -> Result<(), ModelsError> {
        let next = self.generation + 1;
        let tmp = self.dir.join(format!("spill-{next:06}.log.tmp"));
        let mut out = File::create(&tmp)?;
        write_header(&mut out, self.fingerprint)?;

        let mut keys: Vec<(u8, u64)> = self.index.keys().copied().collect();
        keys.sort_unstable();
        let mut new_index = HashMap::with_capacity(keys.len());
        let mut pos = HEADER_LEN;
        for (kind, key) in keys {
            let blob = self
                .read(kind, key)?
                .ok_or(ModelsError::Spill("live record vanished during compaction"))?;
            let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + blob.len());
            payload.extend_from_slice(&key.to_le_bytes());
            payload.push(kind);
            payload.extend_from_slice(&blob);
            let bytes = write_raw_frame(&mut out, &payload)?;
            new_index.insert(
                (kind, key),
                Slot {
                    offset: pos,
                    frame_len: bytes,
                },
            );
            pos += bytes;
        }
        out.sync_data()?;
        let committed = log_path(&self.dir, next);
        fs::rename(&tmp, &committed)?;
        let old = log_path(&self.dir, self.generation);
        self.file = OpenOptions::new().read(true).write(true).open(&committed)?;
        let _ = fs::remove_file(old);
        self.generation = next;
        self.write_pos = pos;
        self.index = new_index;
        self.live_bytes = pos - HEADER_LEN;
        self.compactions += 1;
        Ok(())
    }

    /// Number of keys with a live spilled record (all kinds).
    pub fn live_users(&self) -> usize {
        self.index.len()
    }

    /// Bytes of live (latest-generation) frames.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Total file size, dead frames included.
    pub fn file_bytes(&self) -> u64 {
        self.write_pos
    }

    /// Lifetime append count (this open).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Lifetime compaction count (this open).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fasea-models-spill-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_read_round_trip_survives_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let mut log = SpillLog::open(&dir, 42).unwrap();
            log.append(KIND_USER_EXACT, 7, b"seven-v1").unwrap();
            log.append(KIND_USER_EXACT, 9, b"nine").unwrap();
            log.append(KIND_USER_EXACT, 7, b"seven-v2").unwrap();
            log.sync().unwrap();
            assert_eq!(log.read(KIND_USER_EXACT, 7).unwrap().unwrap(), b"seven-v2");
            assert_eq!(log.live_users(), 2);
        }
        let log = SpillLog::open(&dir, 42).unwrap();
        assert_eq!(log.read(KIND_USER_EXACT, 7).unwrap().unwrap(), b"seven-v2");
        assert_eq!(log.read(KIND_USER_EXACT, 9).unwrap().unwrap(), b"nine");
        assert_eq!(log.read(KIND_USER_EXACT, 8).unwrap(), None);
        assert_eq!(log.live_users(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kinds_are_independent_namespaces() {
        let dir = temp_dir("kinds");
        {
            let mut log = SpillLog::open(&dir, 11).unwrap();
            log.append(KIND_USER_EXACT, 5, b"user-five").unwrap();
            log.append(KIND_COHORT, 5, b"cohort-five").unwrap();
            log.append(KIND_USER_SKETCH, 5, b"sketch-five").unwrap();
            log.sync().unwrap();
        }
        let log = SpillLog::open(&dir, 11).unwrap();
        assert_eq!(log.read(KIND_USER_EXACT, 5).unwrap().unwrap(), b"user-five");
        assert_eq!(log.read(KIND_COHORT, 5).unwrap().unwrap(), b"cohort-five");
        assert_eq!(
            log.read(KIND_USER_SKETCH, 5).unwrap().unwrap(),
            b"sketch-five"
        );
        assert_eq!(log.live_users(), 3);
        assert_eq!(log.live_keys_sorted(KIND_COHORT), vec![5]);
        assert!(log.live_keys_sorted(3).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_appends_commit_atomically_and_read_back() {
        let dir = temp_dir("batch");
        let mut log = SpillLog::open(&dir, 9).unwrap();
        log.batch_begin();
        for k in 0..20u64 {
            log.batch_add(KIND_USER_EXACT, k, &[k as u8; 64]).unwrap();
        }
        // Nothing is readable (or counted) before commit.
        assert_eq!(log.live_users(), 0);
        assert_eq!(log.appends(), 0);
        log.batch_commit().unwrap();
        assert_eq!(log.live_users(), 20);
        assert_eq!(log.appends(), 20);
        for k in 0..20u64 {
            assert_eq!(
                log.read(KIND_USER_EXACT, k).unwrap().unwrap(),
                vec![k as u8; 64]
            );
        }
        // A batch replacing earlier keys reclaims their live bytes.
        let live_before = log.live_bytes();
        log.batch_begin();
        log.batch_add(KIND_USER_EXACT, 3, &[0xEE; 64]).unwrap();
        log.batch_commit().unwrap();
        assert_eq!(log.live_bytes(), live_before);
        assert_eq!(log.read(KIND_USER_EXACT, 3).unwrap().unwrap(), [0xEE; 64]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_commit_is_a_noop() {
        let dir = temp_dir("emptybatch");
        let mut log = SpillLog::open(&dir, 1).unwrap();
        log.batch_begin();
        log.batch_commit().unwrap();
        assert_eq!(log.file_bytes(), HEADER_LEN);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let path;
        {
            let mut log = SpillLog::open(&dir, 1).unwrap();
            log.append(KIND_USER_EXACT, 1, b"alpha").unwrap();
            log.append(KIND_USER_EXACT, 2, b"beta").unwrap();
            log.sync().unwrap();
            path = log_path(&dir, 0);
        }
        // Simulate a crash mid-append: garbage tail bytes.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 11]).unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();
        let mut log = SpillLog::open(&dir, 1).unwrap();
        assert_eq!(log.read(KIND_USER_EXACT, 1).unwrap().unwrap(), b"alpha");
        assert_eq!(log.read(KIND_USER_EXACT, 2).unwrap().unwrap(), b"beta");
        assert!(fs::metadata(&path).unwrap().len() < before);
        // The truncated log accepts new appends at the repaired tail.
        log.append(KIND_USER_EXACT, 3, b"gamma").unwrap();
        assert_eq!(log.read(KIND_USER_EXACT, 3).unwrap().unwrap(), b"gamma");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_refused() {
        let dir = temp_dir("foreign");
        drop(SpillLog::open(&dir, 5).unwrap());
        assert!(matches!(
            SpillLog::open(&dir, 6),
            Err(ModelsError::Spill(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_frames_and_commits_atomically() {
        let dir = temp_dir("compact");
        let mut log = SpillLog::open(&dir, 3).unwrap();
        for round in 0..10u8 {
            for user in 0..8u64 {
                log.append(KIND_USER_EXACT, user, &[round; 100]).unwrap();
            }
        }
        log.append(KIND_COHORT, 1, &[0x77; 50]).unwrap();
        let before = log.file_bytes();
        log.compact().unwrap();
        assert!(log.file_bytes() < before);
        assert_eq!(log.live_users(), 9);
        for user in 0..8u64 {
            assert_eq!(
                log.read(KIND_USER_EXACT, user).unwrap().unwrap(),
                vec![9u8; 100]
            );
        }
        assert_eq!(log.read(KIND_COHORT, 1).unwrap().unwrap(), vec![0x77; 50]);
        drop(log);
        // The committed generation is what reopen finds.
        let log = SpillLog::open(&dir, 3).unwrap();
        assert_eq!(log.live_users(), 9);
        assert_eq!(
            log.read(KIND_USER_EXACT, 4).unwrap().unwrap(),
            vec![9u8; 100]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_bytes_are_a_pure_function_of_live_state() {
        // Two logs that arrive at the same live state through different
        // append orders compact to byte-identical files.
        let dir_a = temp_dir("pure-a");
        let dir_b = temp_dir("pure-b");
        let mut a = SpillLog::open(&dir_a, 4).unwrap();
        let mut b = SpillLog::open(&dir_b, 4).unwrap();
        a.append(KIND_USER_EXACT, 1, b"one").unwrap();
        a.append(KIND_COHORT, 0, b"coh").unwrap();
        a.append(KIND_USER_EXACT, 2, b"two").unwrap();
        b.append(KIND_USER_EXACT, 2, b"stale").unwrap();
        b.append(KIND_USER_EXACT, 2, b"two").unwrap();
        b.append(KIND_USER_EXACT, 1, b"one").unwrap();
        b.append(KIND_COHORT, 0, b"coh").unwrap();
        a.compact().unwrap();
        b.compact().unwrap();
        let bytes_a = fs::read(log_path(&dir_a, 1)).unwrap();
        let bytes_b = fs::read(log_path(&dir_b, 1)).unwrap();
        assert_eq!(bytes_a, bytes_b);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn stale_tmp_from_crashed_compaction_is_removed() {
        let dir = temp_dir("tmp");
        {
            let mut log = SpillLog::open(&dir, 8).unwrap();
            log.append(KIND_USER_EXACT, 1, b"keep").unwrap();
            log.sync().unwrap();
        }
        fs::write(dir.join("spill-000001.log.tmp"), b"half-written").unwrap();
        let log = SpillLog::open(&dir, 8).unwrap();
        assert_eq!(log.read(KIND_USER_EXACT, 1).unwrap().unwrap(), b"keep");
        assert!(!dir.join("spill-000001.log.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_starts_a_fresh_generation() {
        let dir = temp_dir("clear");
        let mut log = SpillLog::open(&dir, 2).unwrap();
        log.append(KIND_USER_EXACT, 1, b"old").unwrap();
        log.clear().unwrap();
        assert_eq!(log.live_users(), 0);
        assert_eq!(log.read(KIND_USER_EXACT, 1).unwrap(), None);
        log.append(KIND_USER_EXACT, 1, b"new").unwrap();
        drop(log);
        let log = SpillLog::open(&dir, 2).unwrap();
        assert_eq!(log.read(KIND_USER_EXACT, 1).unwrap().unwrap(), b"new");
        let _ = fs::remove_dir_all(&dir);
    }
}
