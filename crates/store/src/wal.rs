//! The segmented write-ahead log.
//!
//! A WAL directory holds segment files named `wal-<first_seq>.log`
//! (20-digit zero-padded decimal, so lexicographic order is sequence
//! order). Each segment starts with a 32-byte self-describing header:
//!
//! ```text
//! magic       "FASEAWAL"   8 bytes
//! version     u32          4 bytes
//! reserved    u32          4 bytes   (zero)
//! fingerprint u64          8 bytes   (service-instance fingerprint)
//! first_seq   u64          8 bytes   (seq of the segment's first record)
//! ```
//!
//! followed by framed records (see [`crate::record`]). The writer
//! rotates to a fresh segment once the current one crosses
//! [`WalOptions::segment_bytes`].
//!
//! ## Crash semantics
//!
//! * A crash mid-append leaves a torn frame at the end of the **final**
//!   segment; [`Wal::open`] truncates the file back to the last intact
//!   frame boundary and continues. Nothing before the torn frame is
//!   touched. (A bit flip inside the final segment is indistinguishable
//!   from a torn tail and is handled the same way — the log recovers to
//!   the longest intact prefix, never to a corrupt record.)
//! * A failed CRC in a segment that has **successors** cannot be a torn
//!   write — records after the damage were once acknowledged — and is
//!   reported as [`StoreError::CorruptSegment`] rather than silently
//!   dropped, since discarding them would fork history.
//! * Segment headers embed the service-instance fingerprint; replaying
//!   a log into a differently-configured service fails with
//!   [`StoreError::ForeignInstance`] instead of corrupting state.
//!
//! Durability is tunable per append via [`FsyncPolicy`].

use crate::record::{encode_frame_into, read_frame, FrameOutcome, Record};
use crate::StoreError;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of every WAL segment.
pub const MAGIC: &[u8; 8] = b"FASEAWAL";
/// Current segment-format version. Version 2 changed
/// [`crate::record::context_hash`] to fold whole 64-bit words, so a v1
/// log's `Propose` hashes would not verify; it is refused up front with
/// [`StoreError::BadVersion`] instead of failing replay part-way.
pub const VERSION: u32 = 2;
/// Size of the segment header in bytes.
pub const HEADER_BYTES: u64 = 32;

/// When `append` forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — maximum durability, slowest.
    Always,
    /// `fsync` after every `n` records (and on rotation/snapshot).
    EveryN(u32),
    /// Never `fsync` from `append`; the OS flushes when it pleases.
    /// A crash may lose the most recent acknowledged records, but the
    /// log still recovers to a *prefix* of history (torn-tail rule).
    Never,
}

impl FsyncPolicy {
    /// Short stable label used in reports and benches.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one reaches this many
    /// bytes (header included). Small values are useful in tests.
    pub segment_bytes: u64,
    /// Durability policy for `append`.
    pub fsync: FsyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::EveryN(32),
        }
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// Every intact record, in sequence order.
    pub records: Vec<(u64, Record)>,
    /// Bytes of torn tail truncated from the final segment (0 when the
    /// shutdown was clean).
    pub truncated_bytes: u64,
}

/// The append side of the log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    fingerprint: u64,
    options: WalOptions,
    file: File,
    segment_path: PathBuf,
    segment_len: u64,
    next_seq: u64,
    unsynced: u32,
    /// `fsync`s issued through [`Wal::sync`] since open.
    fsyncs: u64,
    /// Encoded frames waiting for their one `write`; kept between
    /// appends so steady-state appends reuse its capacity.
    frames: Vec<u8>,
}

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

fn encode_header(fingerprint: u64, first_seq: u64) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[0..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    // bytes 12..16 reserved, zero
    h[16..24].copy_from_slice(&fingerprint.to_le_bytes());
    h[24..32].copy_from_slice(&first_seq.to_le_bytes());
    h
}

fn read_header(path: &Path, r: &mut impl Read, expected_fp: u64) -> Result<u64, StoreError> {
    let mut h = [0u8; HEADER_BYTES as usize];
    let mut filled = 0;
    while filled < h.len() {
        match r
            .read(&mut h[filled..])
            .map_err(|e| StoreError::io("read header", path, &e))?
        {
            0 => {
                return Err(StoreError::CorruptSegment {
                    path: path.display().to_string(),
                    what: "shorter than its header".to_string(),
                })
            }
            n => filled += n,
        }
    }
    if &h[0..8] != MAGIC {
        return Err(StoreError::NotAWalSegment {
            path: path.display().to_string(),
        });
    }
    let version = u32::from_le_bytes(h[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    let fp = u64::from_le_bytes(h[16..24].try_into().unwrap());
    if fp != expected_fp {
        return Err(StoreError::ForeignInstance {
            expected: expected_fp,
            found: fp,
        });
    }
    Ok(u64::from_le_bytes(h[24..32].try_into().unwrap()))
}

/// Lists segment files in `dir` in sequence order.
fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("list segments", dir, &e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("list segments", dir, &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("wal-") && name.ends_with(".log") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Scans one segment, appending intact records to `records` and byte
/// boundaries (positions after the header and after each intact frame)
/// to `boundaries`. Returns the clean length of the file, whether a
/// torn tail was found, and the sequence number expected of the next
/// segment (`first_seq` + records in this one).
fn scan_segment(
    path: &Path,
    expected_fp: u64,
    expected_first_seq: Option<u64>,
    records: &mut Vec<(u64, Record)>,
    boundaries: &mut Vec<(PathBuf, u64)>,
) -> Result<(u64, Option<&'static str>, u64), StoreError> {
    let file = File::open(path).map_err(|e| StoreError::io("open segment", path, &e))?;
    let mut r = BufReader::new(file);
    let first_seq = read_header(path, &mut r, expected_fp)?;
    if let Some(expect) = expected_first_seq {
        if first_seq != expect {
            return Err(StoreError::SequenceGap {
                expected: expect,
                found: first_seq,
            });
        }
    }
    boundaries.push((path.to_path_buf(), HEADER_BYTES));
    let mut clean_len = HEADER_BYTES;
    let mut expect_seq = first_seq;
    loop {
        match read_frame(&mut r).map_err(|e| StoreError::io("read record", path, &e))? {
            FrameOutcome::Eof => return Ok((clean_len, None, expect_seq)),
            FrameOutcome::Torn { why } => return Ok((clean_len, Some(why), expect_seq)),
            FrameOutcome::Ok { seq, record, bytes } => {
                if seq != expect_seq {
                    return Err(StoreError::SequenceGap {
                        expected: expect_seq,
                        found: seq,
                    });
                }
                clean_len += bytes;
                expect_seq += 1;
                records.push((seq, record));
                boundaries.push((path.to_path_buf(), clean_len));
            }
        }
    }
}

impl Wal {
    /// Opens (or initialises) the log in `dir`, recovering from a torn
    /// tail if the last shutdown was a crash.
    ///
    /// Returns the writer plus everything intact on disk — the caller
    /// replays [`Recovered::records`] into its in-memory state.
    ///
    /// # Errors
    /// I/O failures, foreign-instance logs, and corruption anywhere
    /// other than the final segment's truncatable tail.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        options: WalOptions,
    ) -> Result<(Self, Recovered), StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create wal dir", dir, &e))?;
        let segments = list_segments(dir)?;
        let mut records = Vec::new();
        let mut boundaries = Vec::new();
        let mut truncated_bytes = 0u64;

        if segments.is_empty() {
            let (file, segment_path) = create_segment(dir, fingerprint, 0)?;
            return Ok((
                Wal {
                    dir: dir.to_path_buf(),
                    fingerprint,
                    options,
                    file,
                    segment_path,
                    segment_len: HEADER_BYTES,
                    next_seq: 0,
                    unsynced: 0,
                    fsyncs: 0,
                    frames: Vec::new(),
                },
                Recovered {
                    records,
                    truncated_bytes,
                },
            ));
        }

        let mut expected_first: Option<u64> = None;
        let mut last_clean_len = 0u64;
        let mut next_seq = 0u64;
        for (i, path) in segments.iter().enumerate() {
            let is_last = i == segments.len() - 1;
            let (clean_len, torn, seq_after) = scan_segment(
                path,
                fingerprint,
                expected_first,
                &mut records,
                &mut boundaries,
            )?;
            if let Some(why) = torn {
                if !is_last {
                    // Damage with acknowledged history after it: refuse.
                    return Err(StoreError::CorruptSegment {
                        path: path.display().to_string(),
                        what: format!("{why}, but later segments exist"),
                    });
                }
                let disk_len = fs::metadata(path)
                    .map_err(|e| StoreError::io("stat segment", path, &e))?
                    .len();
                truncated_bytes = disk_len - clean_len;
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| StoreError::io("open segment for truncate", path, &e))?;
                f.set_len(clean_len)
                    .map_err(|e| StoreError::io("truncate torn tail", path, &e))?;
                f.sync_all()
                    .map_err(|e| StoreError::io("sync truncated segment", path, &e))?;
            }
            last_clean_len = clean_len;
            expected_first = Some(seq_after);
            next_seq = seq_after;
        }
        let segment_path = segments.last().unwrap().clone();
        let mut file = OpenOptions::new()
            .write(true)
            .open(&segment_path)
            .map_err(|e| StoreError::io("open segment for append", &segment_path, &e))?;
        file.seek(SeekFrom::Start(last_clean_len))
            .map_err(|e| StoreError::io("seek to append position", &segment_path, &e))?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                fingerprint,
                options,
                file,
                segment_path,
                segment_len: last_clean_len,
                next_seq,
                unsynced: 0,
                fsyncs: 0,
                frames: Vec::new(),
            },
            Recovered {
                records,
                truncated_bytes,
            },
        ))
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active segment's path (diagnostics/tests).
    pub fn current_segment(&self) -> &Path {
        &self.segment_path
    }

    /// Appends one record, applying the fsync policy, rotating the
    /// segment when full. Returns the record's sequence number.
    ///
    /// After an `Err` the writer must be considered poisoned: the
    /// in-memory service may have diverged from the log, and the safe
    /// continuation is to drop the service and recover from disk.
    pub fn append(&mut self, record: &Record) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        self.append_all_unsynced([record])?;
        self.apply_fsync_policy()?;
        Ok(seq)
    }

    /// Appends `records` in order *without* applying the fsync policy
    /// (rotation still happens when a segment fills, and rotation
    /// remains a durability point). Their frames are encoded into one buffer and reach the file in a
    /// single write per segment: when a segment fills mid-batch, the
    /// frames so far are written and the log rotates after exactly the
    /// record where one-at-a-time appends would have rotated, so the
    /// segments are byte-identical either way. The group-commit
    /// pipeline uses this to write a whole batch and then apply the
    /// policy once via [`Wal::apply_fsync_policy`], so N records share
    /// one write and one fsync.
    ///
    /// A record whose frame exceeds [`crate::record::MAX_PAYLOAD`] is
    /// refused with nothing of it written (the records before it are);
    /// any other error poisons the writer, as for [`Wal::append`].
    pub fn append_all_unsynced<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a Record>,
    ) -> Result<(), StoreError> {
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        let outcome = self.append_frames(&mut frames, records);
        self.frames = frames;
        outcome
    }

    fn append_frames<'a>(
        &mut self,
        frames: &mut Vec<u8>,
        records: impl IntoIterator<Item = &'a Record>,
    ) -> Result<(), StoreError> {
        for record in records {
            let bytes = match encode_frame_into(frames, self.next_seq, record) {
                Ok(bytes) => bytes,
                Err(e) => {
                    self.write_frames(frames)?;
                    return Err(StoreError::io("append record", &self.segment_path, &e));
                }
            };
            self.next_seq += 1;
            self.segment_len += bytes;
            self.unsynced += 1;
            if self.segment_len >= self.options.segment_bytes {
                self.write_frames(frames)?;
                self.rotate()?;
            }
        }
        self.write_frames(frames)
    }

    /// Hands the buffered frames to the file in one write.
    fn write_frames(&mut self, frames: &mut Vec<u8>) -> Result<(), StoreError> {
        if frames.is_empty() {
            return Ok(());
        }
        let written = self
            .file
            .write_all(frames)
            .map_err(|e| StoreError::io("append record", &self.segment_path, &e));
        frames.clear();
        written
    }

    /// Applies the configured fsync policy to everything appended since
    /// the last sync: `Always` syncs unconditionally, `EveryN(n)` syncs
    /// once at least `n` records are pending, `Never` does nothing.
    pub fn apply_fsync_policy(&mut self) -> Result<(), StoreError> {
        match self.options.fsync {
            FsyncPolicy::Always => {
                if self.unsynced > 0 {
                    self.sync()?;
                }
            }
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Records appended since the last fsync (diagnostics/tests — the
    /// every-N regression test asserts this resets at rotation and
    /// snapshot boundaries rather than drifting).
    pub fn unsynced_records(&self) -> u32 {
        self.unsynced
    }

    /// The configured fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.options.fsync
    }

    /// Segment fsyncs issued since open — by the policy, barriers and
    /// rotation (diagnostics/tests).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file
            .flush()
            .and_then(|_| self.file.sync_all())
            .map_err(|e| StoreError::io("fsync segment", &self.segment_path, &e))?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Closes the current segment and starts a fresh one (also done
    /// automatically when a segment fills). The old segment is synced
    /// first so rotation is a durability point regardless of policy.
    /// A no-op (beyond the sync) if the current segment holds no
    /// records yet — the fresh segment would carry the same first
    /// sequence number as the existing one.
    pub fn rotate(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        if self.segment_len == HEADER_BYTES {
            return Ok(());
        }
        let (file, path) = create_segment(&self.dir, self.fingerprint, self.next_seq)?;
        self.file = file;
        self.segment_path = path;
        self.segment_len = HEADER_BYTES;
        Ok(())
    }

    /// Deletes every segment whose records all have sequence numbers
    /// below `seq` (never the active segment). Called after a snapshot
    /// at `seq` makes those records redundant. Returns the number of
    /// segments removed.
    pub fn compact_below(&mut self, seq: u64) -> Result<usize, StoreError> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for pair in segments.windows(2) {
            let (path, next) = (&pair[0], &pair[1]);
            if *path == self.segment_path {
                break;
            }
            // The segment's records end where the next segment starts.
            let next_first = first_seq_of(next)?;
            if next_first <= seq {
                fs::remove_file(path).map_err(|e| StoreError::io("remove segment", path, &e))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

fn first_seq_of(path: &Path) -> Result<u64, StoreError> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().to_string())
        .unwrap_or_default();
    name.strip_prefix("wal-")
        .and_then(|s| s.strip_suffix(".log"))
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| StoreError::CorruptSegment {
            path: path.display().to_string(),
            what: "unparsable segment file name".to_string(),
        })
}

fn create_segment(
    dir: &Path,
    fingerprint: u64,
    first_seq: u64,
) -> Result<(File, PathBuf), StoreError> {
    let path = dir.join(segment_name(first_seq));
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| StoreError::io("create segment", &path, &e))?;
    file.write_all(&encode_header(fingerprint, first_seq))
        .map_err(|e| StoreError::io("write header", &path, &e))?;
    file.sync_all()
        .map_err(|e| StoreError::io("sync new segment", &path, &e))?;
    // Make the directory entry durable too, so the segment survives a
    // crash immediately after rotation (POSIX requires syncing the
    // parent directory for that). A failure poisons like a failed
    // fsync: records in the new segment could otherwise be acked and
    // then lost with its directory entry.
    sync_dir(dir)?;
    Ok((file, path))
}

/// Fsyncs directory `dir`, making the entries created or renamed in it
/// durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StoreError::io("sync directory", dir, &e))
}

/// What [`scan`] finds: `(records, boundaries, torn_tail_reason)` —
/// every intact `(seq, record)`, the byte position after the header and
/// after each intact frame of every segment (kill targets for crash
/// tests), and whether the final segment ends in a torn tail.
pub type ScanOutcome = (
    Vec<(u64, Record)>,
    Vec<(PathBuf, u64)>,
    Option<&'static str>,
);

/// Read-only scan of a log directory: every intact record plus the byte
/// boundaries after the header and after each record of every segment,
/// in order. Used by crash-matrix tests to kill a log at an arbitrary
/// record boundary, and by tooling that inspects logs without opening
/// them for append.
///
/// # Errors
/// Same validation as [`Wal::open`], except a torn tail is reported in
/// the outcome (nothing is truncated).
pub fn scan(dir: &Path, fingerprint: u64) -> Result<ScanOutcome, StoreError> {
    let segments = list_segments(dir)?;
    let mut records = Vec::new();
    let mut boundaries = Vec::new();
    let mut expected_first = None;
    let mut torn = None;
    for (i, path) in segments.iter().enumerate() {
        let is_last = i == segments.len() - 1;
        let (_, t, seq_after) = scan_segment(
            path,
            fingerprint,
            expected_first,
            &mut records,
            &mut boundaries,
        )?;
        if let Some(why) = t {
            if !is_last {
                return Err(StoreError::CorruptSegment {
                    path: path.display().to_string(),
                    what: format!("{why}, but later segments exist"),
                });
            }
            torn = Some(why);
        }
        expected_first = Some(seq_after);
    }
    Ok((records, boundaries, torn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultFile;
    use std::path::Path;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fasea-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn marker(n: u64) -> Record {
        Record::SnapshotMarker { snapshot_seq: n }
    }

    fn feedback(t: u64, len: usize) -> Record {
        Record::Feedback {
            t,
            accepts: vec![t.is_multiple_of(2); len],
        }
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = tmp("round-trip");
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Never,
        };
        let mut appended = Vec::new();
        {
            let (mut wal, rec) = Wal::open(&dir, 42, opts).unwrap();
            assert!(rec.records.is_empty());
            for t in 0..50u64 {
                let r = feedback(t, 3);
                let seq = wal.append(&r).unwrap();
                assert_eq!(seq, t);
                appended.push((seq, r));
            }
            wal.sync().unwrap();
        }
        let (wal, rec) = Wal::open(&dir, 42, opts).unwrap();
        assert_eq!(rec.records, appended);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(wal.next_seq(), 50);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmp("rotation");
        let opts = WalOptions {
            segment_bytes: 128,
            fsync: FsyncPolicy::Never,
        };
        {
            let (mut wal, _) = Wal::open(&dir, 7, opts).unwrap();
            for t in 0..40u64 {
                wal.append(&feedback(t, 2)).unwrap();
            }
            wal.sync().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "expected rotation, got {segments:?}");
        let (_, rec) = Wal::open(&dir, 7, opts).unwrap();
        assert_eq!(rec.records.len(), 40);
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every segment file in `dir`, name and bytes, in order.
    fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        list_segments(dir)
            .unwrap()
            .iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().to_string();
                (name, fs::read(p).unwrap())
            })
            .collect()
    }

    #[test]
    fn batched_appends_rotate_where_single_appends_do() {
        // Mixed record sizes so rotations fall mid-batch, at batch ends
        // and inside runs of small records alike.
        let records: Vec<Record> = (0..60u64)
            .map(|t| feedback(t, 1 + (t % 7) as usize * 9))
            .collect();
        let opts = WalOptions {
            segment_bytes: 300,
            fsync: FsyncPolicy::Never,
        };
        let single = tmp("batch-single");
        {
            let (mut wal, _) = Wal::open(&single, 3, opts).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let batched = tmp("batch-batched");
        {
            let (mut wal, _) = Wal::open(&batched, 3, opts).unwrap();
            for chunk in records.chunks(11) {
                wal.append_all_unsynced(chunk).unwrap();
            }
            assert_eq!(wal.next_seq(), 60);
        }
        let segments = segment_files(&single);
        assert!(segments.len() > 3, "too few rotations to compare");
        assert_eq!(segment_files(&batched), segments);
        fs::remove_dir_all(&single).unwrap();
        fs::remove_dir_all(&batched).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp("torn-tail");
        let opts = WalOptions::default();
        {
            let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
            for t in 0..10u64 {
                wal.append(&feedback(t, 4)).unwrap();
            }
            wal.sync().unwrap();
        }
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        FaultFile::new(&seg).torn_write(len - 3).unwrap();

        let (mut wal, rec) = Wal::open(&dir, 1, opts).unwrap();
        assert_eq!(rec.records.len(), 9, "torn final record dropped");
        assert!(rec.truncated_bytes > 0);
        assert_eq!(wal.next_seq(), 9);
        // The log accepts appends at the recovered position.
        assert_eq!(wal.append(&feedback(9, 4)).unwrap(), 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_final_segment_recovers_longest_intact_prefix() {
        let dir = tmp("bit-flip");
        let opts = WalOptions::default();
        {
            let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
            for t in 0..10u64 {
                wal.append(&feedback(t, 4)).unwrap();
            }
            wal.sync().unwrap();
        }
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        // A flip inside the final segment is indistinguishable from a
        // torn tail; open() recovers the longest intact prefix and must
        // never hand back a corrupt record.
        FaultFile::new(&seg).flip_bit(HEADER_BYTES + 30, 3).unwrap();
        let (_, rec) = Wal::open(&dir, 1, opts).unwrap();
        assert!(rec.records.len() < 10);
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_non_final_segment_is_an_error() {
        let dir = tmp("mid-corrupt");
        let opts = WalOptions {
            segment_bytes: 128,
            fsync: FsyncPolicy::Never,
        };
        {
            let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
            for t in 0..40u64 {
                wal.append(&feedback(t, 2)).unwrap();
            }
            wal.sync().unwrap();
        }
        let first = list_segments(&dir).unwrap().remove(0);
        FaultFile::new(&first)
            .flip_bit(HEADER_BYTES + 10, 0)
            .unwrap();
        match Wal::open(&dir, 1, opts) {
            Err(StoreError::CorruptSegment { .. }) => {}
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_fingerprint_rejected() {
        let dir = tmp("foreign");
        let opts = WalOptions::default();
        {
            let (mut wal, _) = Wal::open(&dir, 0xAAAA, opts).unwrap();
            wal.append(&marker(0)).unwrap();
            wal.sync().unwrap();
        }
        match Wal::open(&dir, 0xBBBB, opts) {
            Err(StoreError::ForeignInstance { expected, found }) => {
                assert_eq!(expected, 0xBBBB);
                assert_eq!(found, 0xAAAA);
            }
            other => panic!("expected ForeignInstance, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_segment_rejected() {
        let dir = tmp("version");
        let opts = WalOptions::default();
        {
            let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
            wal.append(&marker(0)).unwrap();
            wal.sync().unwrap();
        }
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&seg, bytes).unwrap();
        assert_eq!(
            Wal::open(&dir, 1, opts).unwrap_err(),
            StoreError::BadVersion { found: 1 }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_is_refused_and_acked_records_survive() {
        // An append whose frame no reader would accept must fail without
        // writing, not be acked and then truncated away with every
        // record after it.
        let dir = tmp("oversized");
        let opts = WalOptions {
            segment_bytes: 64 << 20,
            fsync: FsyncPolicy::Always,
        };
        let huge = Record::Feedback {
            t: 1,
            accepts: vec![true; crate::record::MAX_PAYLOAD as usize + 1],
        };
        {
            let (mut wal, _) = Wal::open(&dir, 5, opts).unwrap();
            assert_eq!(wal.append(&feedback(0, 3)).unwrap(), 0);
            match wal.append(&huge) {
                Err(StoreError::Io { kind, .. }) => {
                    assert_eq!(kind, std::io::ErrorKind::InvalidInput)
                }
                other => panic!("oversized append returned {other:?}"),
            }
            assert_eq!(wal.append(&feedback(2, 3)).unwrap(), 1);
        }
        let (_, rec) = Wal::open(&dir, 5, opts).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records, vec![(0, feedback(0, 3)), (1, feedback(2, 3))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tmp("magic");
        let opts = WalOptions::default();
        {
            let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
            wal.append(&marker(0)).unwrap();
            wal.sync().unwrap();
        }
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        FaultFile::new(&seg).flip_bit(0, 0).unwrap();
        assert!(matches!(
            Wal::open(&dir, 1, opts),
            Err(StoreError::NotAWalSegment { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_removes_only_covered_segments() {
        let dir = tmp("compact");
        let opts = WalOptions {
            segment_bytes: 128,
            fsync: FsyncPolicy::Never,
        };
        let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
        for t in 0..40u64 {
            wal.append(&feedback(t, 2)).unwrap();
        }
        let before = list_segments(&dir).unwrap().len();
        assert!(before > 2);
        // Snapshot at the start of the current segment: everything in
        // earlier segments is covered.
        let snapshot_seq = first_seq_of(Path::new(wal.current_segment())).unwrap();
        let removed = wal.compact_below(snapshot_seq).unwrap();
        assert_eq!(removed, before - 1);
        // The log still opens cleanly and the surviving records chain
        // (one post-compaction append, since the fresh segment starts
        // empty after the final rotation).
        wal.append(&feedback(40, 2)).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, 1, opts).unwrap();
        assert_eq!(rec.records.first().map(|(s, _)| *s), Some(snapshot_seq));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_all_append() {
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(4),
            FsyncPolicy::Never,
        ] {
            let dir = tmp(&format!("fsync-{}", fsync.label()));
            let opts = WalOptions {
                segment_bytes: 1 << 20,
                fsync,
            };
            let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
            for t in 0..10u64 {
                wal.append(&feedback(t, 1)).unwrap();
            }
            drop(wal);
            let (_, rec) = Wal::open(&dir, 1, opts).unwrap();
            assert_eq!(rec.records.len(), 10);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn every_n_counter_resets_at_rotation_and_keeps_cadence() {
        // Regression: the every-N counter must restart from zero at a
        // rotation (rotation itself syncs, so the rotated-away records
        // are a durability point) instead of carrying a stale phase
        // into the new segment.
        let dir = tmp("every-n-rotation");
        let opts = WalOptions {
            // Header (32) + six 31-byte feedback frames = 218, so a
            // rotation lands on the 6th append — mid-cadence of
            // EveryN(4), two past the policy sync.
            segment_bytes: 210,
            fsync: FsyncPolicy::EveryN(4),
        };
        let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
        let mut seen_rotation_reset = false;
        let mut seen_policy_sync = false;
        let mut after_sync = 0u32;
        for t in 0..32u64 {
            let before_segment = wal.current_segment().to_path_buf();
            let before_unsynced = wal.unsynced_records();
            wal.append(&feedback(t, 2)).unwrap();
            let rotated = wal.current_segment() != before_segment;
            if rotated {
                // Rotation synced: nothing may be left pending.
                assert_eq!(
                    wal.unsynced_records(),
                    0,
                    "rotation at t={t} left unsynced records"
                );
                seen_rotation_reset = true;
                after_sync = 0;
            } else if wal.unsynced_records() == 0 {
                // A policy-driven sync: must fire exactly when the 4th
                // pending record lands, never earlier or later.
                assert_eq!(
                    before_unsynced + 1,
                    4,
                    "EveryN(4) synced after {} records at t={t}",
                    before_unsynced + 1
                );
                seen_policy_sync = true;
                after_sync = 0;
            } else {
                after_sync += 1;
                assert_eq!(
                    wal.unsynced_records(),
                    after_sync,
                    "unsynced counter drifted at t={t}"
                );
                assert!(
                    wal.unsynced_records() < 4,
                    "counter passed the EveryN threshold without syncing at t={t}"
                );
            }
        }
        assert!(
            seen_rotation_reset,
            "test never exercised a rotation; shrink segment_bytes"
        );
        assert!(
            seen_policy_sync,
            "test never exercised an EveryN policy sync; grow segment_bytes"
        );
        // Snapshot boundary: an explicit sync (what a snapshot performs
        // first) also restarts the cadence.
        wal.append(&feedback(100, 2)).unwrap();
        if wal.unsynced_records() == 0 {
            wal.append(&feedback(101, 2)).unwrap();
        }
        assert!(wal.unsynced_records() > 0);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_records(), 0);
        // Everything written is recoverable.
        drop(wal);
        let (_, rec) = Wal::open(&dir, 1, opts).unwrap();
        assert!(rec.records.len() >= 33);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_reports_boundaries_and_torn_tail() {
        let dir = tmp("scan");
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Never,
        };
        {
            let (mut wal, _) = Wal::open(&dir, 1, opts).unwrap();
            for t in 0..5u64 {
                wal.append(&feedback(t, 2)).unwrap();
            }
            wal.sync().unwrap();
        }
        let (records, boundaries, torn) = scan(&dir, 1).unwrap();
        assert_eq!(records.len(), 5);
        assert!(torn.is_none());
        // Header boundary + one per record.
        assert_eq!(boundaries.len(), 6);
        assert_eq!(boundaries[0].1, HEADER_BYTES);
        // Tear the tail: scan reports it without modifying the file.
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        FaultFile::new(&seg).torn_write(len - 1).unwrap();
        let (records, _, torn) = scan(&dir, 1).unwrap();
        assert_eq!(records.len(), 4);
        assert!(torn.is_some());
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            len - 1,
            "scan must not truncate"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
