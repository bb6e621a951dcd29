//! # fasea-store
//!
//! Durable state for the FASEA arrangement service: a CRC-checked
//! write-ahead round log with segment rotation, atomically-written
//! service snapshots, and a fault-injection harness for crash-recovery
//! testing.
//!
//! The arrangement protocol (paper Definition 3) is *irrevocable*: once
//! an arrangement is proposed to a user it cannot be retracted, and
//! once feedback is consumed the learner has moved. A process crash
//! must therefore never lose a proposal that a user may have seen, and
//! never double-propose a round. This crate provides the storage
//! primitives; `fasea-sim`'s `DurableArrangementService` composes them
//! into the recovery protocol:
//!
//! * [`wal`] — append-only segmented log of [`Record`]s, each framed
//!   with a length prefix and CRC-32. A torn final record (crash
//!   mid-write) is truncated away on open; corruption anywhere earlier
//!   is reported, never silently skipped. Segment headers carry an
//!   instance fingerprint so a log can never be replayed into the
//!   wrong service.
//! * [`group`] — the group-commit pipeline every durable service writes
//!   its WAL through: appends land in an in-memory commit queue tagged
//!   with a monotone LSN, a commit pass (run by a blocked caller on its
//!   own thread, or by the syncer thread) writes + fsyncs whole batches,
//!   and a `durable_lsn` watermark tells callers when a record may be
//!   acknowledged. N concurrent producers share one fsync instead of
//!   paying one each.
//! * [`snapshot`] — a full point-in-time image of the service (round
//!   counter, remaining capacities, regret accounting, the pending
//!   proposal if any, and an opaque policy-state blob), written via
//!   temp-file + rename so a crash during snapshotting leaves the
//!   previous snapshot intact. A snapshot at WAL sequence `S` makes
//!   every record below `S` compactable.
//! * [`fault`] — [`FaultFile`] and [`ShortReader`], which inject torn
//!   writes, bit flips and short reads at chosen offsets to drive the
//!   recovery test matrix.
//!
//! The crate is deliberately dependency-free (std only) and speaks in
//! plain types (`Vec<u32>` capacities, row-major `Vec<f64>` contexts,
//! opaque `Vec<u8>` policy blobs); `fasea-sim` owns the conversion to
//! and from domain types.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod crc;
pub mod fault;
pub mod group;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use crc::{crc32, Crc32};
pub use fault::{CountingWriter, FaultFile, ShortReader};
pub use group::{live_commit_syncers, CommitNotifier, CommitObserver, GroupCommitWal};
pub use record::{
    context_hash, parse_raw_frame, read_raw_frame, write_raw_frame, FrameParse, RawFrame, Record,
    MAX_PAYLOAD,
};
pub use snapshot::{PendingProposal, ServiceSnapshot};
pub use wal::{FsyncPolicy, Wal, WalOptions};

/// Frame tag for [`Record::Propose`].
pub const TAG_PROPOSE: u8 = 1;
/// Frame tag for [`Record::Feedback`].
pub const TAG_FEEDBACK: u8 = 2;
/// Frame tag for [`Record::SnapshotMarker`].
pub const TAG_SNAPSHOT_MARKER: u8 = 3;
/// Frame tag for [`Record::TxnPrepare`].
pub const TAG_TXN_PREPARE: u8 = 4;
/// Frame tag for [`Record::TxnCommit`].
pub const TAG_TXN_COMMIT: u8 = 5;
/// Frame tag for [`Record::TxnAbort`].
pub const TAG_TXN_ABORT: u8 = 6;
/// Frame tag for [`Record::Lifecycle`].
pub const TAG_LIFECYCLE: u8 = 7;

/// Errors surfaced by the store.
///
/// The type is `Clone + PartialEq + Eq` (it carries
/// [`std::io::ErrorKind`] plus context rather than `std::io::Error`) so
/// that `fasea-sim` can embed it in its `ServiceError` without losing
/// that enum's derives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io {
        /// What the store was doing ("open segment", "append", …).
        op: &'static str,
        /// The underlying error kind.
        kind: std::io::ErrorKind,
        /// The path involved.
        path: String,
    },
    /// The file is not a FASEA WAL segment (bad magic).
    NotAWalSegment {
        /// Offending path.
        path: String,
    },
    /// The file is not a FASEA service snapshot (bad magic).
    NotASnapshot {
        /// Offending path.
        path: String,
    },
    /// The on-disk format version is not supported.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The log or snapshot was written by a different service instance
    /// (fingerprint mismatch) and must not be replayed here.
    ForeignInstance {
        /// Fingerprint this service derives from its configuration.
        expected: u64,
        /// Fingerprint found in the file header.
        found: u64,
    },
    /// A record failed its CRC or decoded to garbage somewhere other
    /// than the truncatable tail of the final segment.
    CorruptRecord {
        /// Sequence number, when knowable.
        seq: Option<u64>,
        /// What was wrong.
        what: &'static str,
    },
    /// A segment-level structural problem (bad header length, records
    /// out of order, a torn record followed by later segments, …).
    CorruptSegment {
        /// Offending segment path.
        path: String,
        /// What was wrong.
        what: String,
    },
    /// Record sequence numbers are not gap-free.
    SequenceGap {
        /// Sequence number expected next.
        expected: u64,
        /// Sequence number found.
        found: u64,
    },
    /// A snapshot file failed validation.
    CorruptSnapshot {
        /// Offending path.
        path: String,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, kind, path } => {
                write!(f, "i/o failure during {op} on {path}: {kind:?}")
            }
            StoreError::NotAWalSegment { path } => {
                write!(f, "{path} is not a FASEA WAL segment")
            }
            StoreError::NotASnapshot { path } => {
                write!(f, "{path} is not a FASEA service snapshot")
            }
            StoreError::BadVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::ForeignInstance { expected, found } => write!(
                f,
                "log belongs to a different service instance \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            StoreError::CorruptRecord { seq, what } => match seq {
                Some(s) => write!(f, "corrupt record at seq {s}: {what}"),
                None => write!(f, "corrupt record: {what}"),
            },
            StoreError::CorruptSegment { path, what } => {
                write!(f, "corrupt segment {path}: {what}")
            }
            StoreError::SequenceGap { expected, found } => {
                write!(f, "sequence gap: expected {expected}, found {found}")
            }
            StoreError::CorruptSnapshot { path, what } => {
                write!(f, "corrupt snapshot {path}: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Wraps an [`std::io::Error`] with operation and path context.
    pub fn io(op: &'static str, path: &std::path::Path, err: &std::io::Error) -> Self {
        StoreError::Io {
            op,
            kind: err.kind(),
            path: path.display().to_string(),
        }
    }
}
