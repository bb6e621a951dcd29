//! Full service snapshots.
//!
//! A [`ServiceSnapshot`] is a point-in-time image of everything the
//! arrangement service needs to resume: the round counter, remaining
//! per-event capacities, cumulative regret accounting, the pending
//! proposal (if the service crashed between `propose` and `feedback`),
//! and an opaque policy-state blob (estimator matrices plus any
//! policy-private RNG state — `fasea-sim` owns its encoding).
//!
//! Snapshots are written with the classic temp-file + `rename` dance:
//! the bytes (including a trailing CRC-32) go to
//! `<name>.tmp-<pid>`, are fsynced, and only then renamed over the
//! final path, so a crash mid-snapshot can never damage an existing
//! snapshot. Files are named `snap-<seq>.snap` where `seq` is the WAL
//! sequence number the snapshot covers up to (exclusive); after the
//! rename, WAL segments containing only records below `seq` are
//! compactable.
//!
//! File layout (little-endian):
//!
//! ```text
//! magic        "FASEASNP"    8 bytes
//! version      u32
//! fingerprint  u64
//! seq          u64     first WAL seq NOT covered by this snapshot
//! t            u64     completed rounds
//! rounds       u64     ┐
//! arranged     u64     │ regret accounting
//! rewards      u64     ┘
//! n_events     u32
//! remaining    u32 × n_events
//! has_pending  u8
//! [pending]    arr_len u32, arrangement u32×len,
//!              num_events u32, dim u32, contexts f64×(n·d)
//! name_len     u32
//! policy_name  utf-8 bytes
//! state_len    u32
//! policy_state bytes
//! crc          u32     CRC-32 of everything above
//! ```

use crate::crc::crc32;
use crate::StoreError;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of every service snapshot.
pub const MAGIC: &[u8; 8] = b"FASEASNP";
/// Current snapshot-format version.
pub const VERSION: u32 = 1;

/// A proposal that was pending (awaiting user feedback) at snapshot
/// time. Carried so recovery surfaces the crashed-mid-round state
/// instead of silently re-proposing.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingProposal {
    /// Arranged event indices.
    pub arrangement: Vec<u32>,
    /// Number of events in the revealed context block.
    pub num_events: u32,
    /// Context dimension `d`.
    pub dim: u32,
    /// Row-major revealed contexts.
    pub contexts: Vec<f64>,
}

/// A point-in-time image of the arrangement service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    /// Service-instance fingerprint (must match the WAL's).
    pub fingerprint: u64,
    /// First WAL sequence number *not* covered by this snapshot;
    /// recovery replays records with `seq >= this`.
    pub seq: u64,
    /// Completed rounds at snapshot time.
    pub t: u64,
    /// Regret accounting: rounds recorded.
    pub rounds: u64,
    /// Regret accounting: total events arranged.
    pub arranged: u64,
    /// Regret accounting: total events accepted.
    pub rewards: u64,
    /// Remaining capacity per event.
    pub remaining: Vec<u32>,
    /// The pending proposal, if the service was mid-round.
    pub pending: Option<PendingProposal>,
    /// Name of the wrapped policy (sanity-checked on restore).
    pub policy_name: String,
    /// Opaque policy state blob (encoded by `fasea-sim`).
    pub policy_state: Vec<u8>,
}

impl ServiceSnapshot {
    /// Serialises the snapshot, CRC trailer included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.policy_state.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.t.to_le_bytes());
        out.extend_from_slice(&self.rounds.to_le_bytes());
        out.extend_from_slice(&self.arranged.to_le_bytes());
        out.extend_from_slice(&self.rewards.to_le_bytes());
        out.extend_from_slice(&(self.remaining.len() as u32).to_le_bytes());
        for &c in &self.remaining {
            out.extend_from_slice(&c.to_le_bytes());
        }
        match &self.pending {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&(p.arrangement.len() as u32).to_le_bytes());
                for &v in &p.arrangement {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&p.num_events.to_le_bytes());
                out.extend_from_slice(&p.dim.to_le_bytes());
                for &x in &p.contexts {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(self.policy_name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.policy_name.as_bytes());
        out.extend_from_slice(&(self.policy_state.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.policy_state);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a snapshot blob, verifying magic, version and CRC.
    ///
    /// # Errors
    /// [`StoreError::NotASnapshot`], [`StoreError::BadVersion`], or
    /// [`StoreError::CorruptSnapshot`] on any structural damage.
    pub fn decode(path: &Path, blob: &[u8]) -> Result<Self, StoreError> {
        let pstr = || path.display().to_string();
        let corrupt = |what: &str| StoreError::CorruptSnapshot {
            path: pstr(),
            what: what.to_string(),
        };
        if blob.len() < 12 || &blob[0..8] != MAGIC {
            return Err(StoreError::NotASnapshot { path: pstr() });
        }
        let version = u32::from_le_bytes(blob[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::BadVersion { found: version });
        }
        if blob.len() < 16 {
            return Err(corrupt("shorter than its trailer"));
        }
        let (body, trailer) = blob.split_at(blob.len() - 4);
        let expect_crc = u32::from_le_bytes(trailer.try_into().unwrap());
        if crc32(body) != expect_crc {
            return Err(corrupt("checksum mismatch"));
        }

        let mut at = 12usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            if *at + n > body.len() {
                return Err(StoreError::CorruptSnapshot {
                    path: pstr(),
                    what: "body truncated".to_string(),
                });
            }
            let s = &body[*at..*at + n];
            *at += n;
            Ok(s)
        };
        let u64_at = |at: &mut usize| -> Result<u64, StoreError> {
            Ok(u64::from_le_bytes(take(at, 8)?.try_into().unwrap()))
        };
        let u32_at = |at: &mut usize| -> Result<u32, StoreError> {
            Ok(u32::from_le_bytes(take(at, 4)?.try_into().unwrap()))
        };

        let fingerprint = u64_at(&mut at)?;
        let seq = u64_at(&mut at)?;
        let t = u64_at(&mut at)?;
        let rounds = u64_at(&mut at)?;
        let arranged = u64_at(&mut at)?;
        let rewards = u64_at(&mut at)?;
        let n_events = u32_at(&mut at)? as usize;
        if n_events > 1 << 24 {
            return Err(corrupt("implausible event count"));
        }
        let mut remaining = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            remaining.push(u32_at(&mut at)?);
        }
        let pending = match take(&mut at, 1)?[0] {
            0 => None,
            1 => {
                let arr_len = u32_at(&mut at)? as usize;
                let mut arrangement = Vec::with_capacity(arr_len);
                for _ in 0..arr_len {
                    arrangement.push(u32_at(&mut at)?);
                }
                let num_events = u32_at(&mut at)?;
                let dim = u32_at(&mut at)?;
                let cells = (num_events as usize)
                    .checked_mul(dim as usize)
                    .filter(|&c| c <= 1 << 28)
                    .ok_or_else(|| corrupt("context shape overflow"))?;
                let raw = take(&mut at, 8 * cells)?;
                let contexts = raw
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Some(PendingProposal {
                    arrangement,
                    num_events,
                    dim,
                    contexts,
                })
            }
            _ => return Err(corrupt("invalid pending flag")),
        };
        let name_len = u32_at(&mut at)? as usize;
        let policy_name = String::from_utf8(take(&mut at, name_len)?.to_vec())
            .map_err(|_| corrupt("policy name is not utf-8"))?;
        let state_len = u32_at(&mut at)? as usize;
        let policy_state = take(&mut at, state_len)?.to_vec();
        if at != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(ServiceSnapshot {
            fingerprint,
            seq,
            t,
            rounds,
            arranged,
            rewards,
            remaining,
            pending,
            policy_name,
            policy_state,
        })
    }

    /// Writes the snapshot atomically into `dir` as `snap-<seq>.snap`
    /// (temp file + fsync + rename + directory fsync). Returns the
    /// final path.
    ///
    /// # Errors
    /// I/O failures only; an existing snapshot is never left damaged.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create snapshot dir", dir, &e))?;
        let final_path = dir.join(snapshot_name(self.seq));
        let tmp_path = dir.join(format!("snap-{:020}.tmp-{}", self.seq, std::process::id()));
        let bytes = self.encode();
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp_path)
            .map_err(|e| StoreError::io("create snapshot temp", &tmp_path, &e))?;
        f.write_all(&bytes)
            .and_then(|_| f.sync_all())
            .map_err(|e| StoreError::io("write snapshot", &tmp_path, &e))?;
        drop(f);
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| StoreError::io("rename snapshot", &final_path, &e))?;
        // Until the directory is synced the rename may not survive a
        // crash; compacting the log below this snapshot before then
        // could lose history, so a failure here is a store error.
        crate::wal::sync_dir(dir)?;
        Ok(final_path)
    }

    /// Loads and validates one snapshot file.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let mut blob = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut blob))
            .map_err(|e| StoreError::io("read snapshot", path, &e))?;
        Self::decode(path, &blob)
    }
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

/// Finds the newest *valid* snapshot for this instance in `dir`,
/// scanning candidates from highest sequence downward and skipping any
/// that fail validation (a half-damaged snapshot must not block
/// recovery — an older intact one plus a longer WAL replay is always
/// available). Returns `None` when no usable snapshot exists.
///
/// # Errors
/// Only directory-listing I/O failures; individually corrupt or
/// foreign snapshot files are skipped.
pub fn latest_snapshot(
    dir: &Path,
    fingerprint: u64,
) -> Result<Option<ServiceSnapshot>, StoreError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io("list snapshots", dir, &e)),
    };
    let mut candidates = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("list snapshots", dir, &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("snap-") && name.ends_with(".snap") {
            candidates.push(entry.path());
        }
    }
    candidates.sort();
    for path in candidates.iter().rev() {
        match ServiceSnapshot::load(path) {
            Ok(snap) if snap.fingerprint == fingerprint => return Ok(Some(snap)),
            // Foreign or damaged snapshots are skipped, not fatal.
            Ok(_) | Err(_) => continue,
        }
    }
    Ok(None)
}

/// Removes snapshots older than the newest `keep` (house-keeping after
/// a successful snapshot). Returns the number removed.
pub fn prune_snapshots(dir: &Path, keep: usize) -> Result<usize, StoreError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(StoreError::io("list snapshots", dir, &e)),
    };
    let mut candidates = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("list snapshots", dir, &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("snap-") && name.ends_with(".snap") {
            candidates.push(entry.path());
        }
    }
    candidates.sort();
    let mut removed = 0;
    if candidates.len() > keep {
        for path in &candidates[..candidates.len() - keep] {
            fs::remove_file(path).map_err(|e| StoreError::io("remove snapshot", path, &e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultFile;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fasea-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(seq: u64) -> ServiceSnapshot {
        ServiceSnapshot {
            fingerprint: 0xFEED,
            seq,
            t: 12,
            rounds: 12,
            arranged: 30,
            rewards: 17,
            remaining: vec![3, 0, 5],
            pending: Some(PendingProposal {
                arrangement: vec![2, 0],
                num_events: 3,
                dim: 2,
                contexts: vec![0.1, -0.2, 0.3, 0.0, 0.5, 0.9],
            }),
            policy_name: "UCB".to_string(),
            policy_state: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample(99);
        let blob = snap.encode();
        let decoded = ServiceSnapshot::decode(Path::new("x"), &blob).unwrap();
        assert_eq!(decoded, snap);
        // And without a pending proposal.
        let mut snap = sample(100);
        snap.pending = None;
        let decoded = ServiceSnapshot::decode(Path::new("x"), &snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn every_bit_flip_detected() {
        let blob = sample(5).encode();
        for byte in 0..blob.len() {
            let mut copy = blob.clone();
            copy[byte] ^= 0x10;
            assert!(
                ServiceSnapshot::decode(Path::new("x"), &copy).is_err(),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn every_truncation_detected() {
        let blob = sample(5).encode();
        for cut in 0..blob.len() {
            assert!(
                ServiceSnapshot::decode(Path::new("x"), &blob[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn atomic_write_and_latest() {
        let dir = tmp("atomic");
        sample(10).write_atomic(&dir).unwrap();
        sample(25).write_atomic(&dir).unwrap();
        let latest = latest_snapshot(&dir, 0xFEED).unwrap().unwrap();
        assert_eq!(latest.seq, 25);
        // Foreign fingerprint: nothing usable.
        assert!(latest_snapshot(&dir, 0xDEAD).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_newest_falls_back_to_older() {
        let dir = tmp("fallback");
        sample(10).write_atomic(&dir).unwrap();
        let newest = sample(25).write_atomic(&dir).unwrap();
        FaultFile::new(&newest).flip_bit(40, 2).unwrap();
        let latest = latest_snapshot(&dir, 0xFEED).unwrap().unwrap();
        assert_eq!(latest.seq, 10, "should fall back past the damaged snapshot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp("prune");
        for seq in [1u64, 2, 3, 4] {
            sample(seq).write_atomic(&dir).unwrap();
        }
        let removed = prune_snapshots(&dir, 2).unwrap();
        assert_eq!(removed, 2);
        let latest = latest_snapshot(&dir, 0xFEED).unwrap().unwrap();
        assert_eq!(latest.seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}
