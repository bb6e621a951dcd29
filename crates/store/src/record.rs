//! WAL record types and their binary codec.
//!
//! Every mutation of the arrangement service is one [`Record`]. Records
//! are framed on disk as
//!
//! ```text
//! len  u32   payload length in bytes
//! crc  u32   CRC-32 of the payload
//! payload    tag u8 | seq u64 | body
//! ```
//!
//! (all integers little-endian). The frame is what makes torn writes
//! detectable: a record cut short by a crash either has fewer bytes
//! than `len` promises or fails the CRC, and the tail of the final
//! segment is truncated back to the last intact frame. The sequence
//! number inside the payload makes records self-identifying, so replay
//! can verify the log is gap-free even across segment boundaries.
//!
//! Record bodies:
//!
//! | tag | record           | body |
//! |-----|------------------|------|
//! | 1   | `Propose`        | `t u64, user_capacity u32, num_events u32, dim u32, contexts f64×(n·d), arr_len u32, arrangement u32×len, context_hash u64` |
//! | 2   | `Feedback`       | `t u64, len u32, accepts u8×len` |
//! | 3   | `SnapshotMarker` | `snapshot_seq u64` |
//! | 4   | `TxnPrepare`     | `txn u64, len u32, (event u32, dec u32)×len` |
//! | 5   | `TxnCommit`      | `txn u64` |
//! | 6   | `TxnAbort`       | `txn u64` |
//! | 7   | `Lifecycle`      | `t u64, event u32, capacity u32` |
//!
//! `Propose` logs the *full* revealed context block, not just its hash:
//! recovery re-executes the policy's `select` on the logged contexts
//! and cross-checks the resulting arrangement against the logged one,
//! which both rebuilds policy-internal state (score caches, RNG
//! advancement) and detects non-deterministic replay. The hash is kept
//! as a cheap end-to-end integrity check on the context floats.

use crate::crc::crc32;
use crate::{
    StoreError, TAG_FEEDBACK, TAG_LIFECYCLE, TAG_PROPOSE, TAG_SNAPSHOT_MARKER, TAG_TXN_ABORT,
    TAG_TXN_COMMIT, TAG_TXN_PREPARE,
};
use std::io::{self, IoSlice, Read, Write};

/// Upper bound on a record payload (16 MiB). A `len` above this is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// One durable mutation of the arrangement service.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An arrangement was proposed to the arriving user at round `t`.
    /// Logged *after* the policy computed it (compute-then-log): if the
    /// process dies before this record is durable, recovery re-draws
    /// the identical proposal from the replayed policy state.
    Propose {
        /// Round index of the proposal.
        t: u64,
        /// The arriving user's capacity `c_u`.
        user_capacity: u32,
        /// Number of events in the revealed context block.
        num_events: u32,
        /// Context dimension `d`.
        dim: u32,
        /// Row-major revealed contexts (`num_events × dim`).
        contexts: Vec<f64>,
        /// Arranged event indices.
        arrangement: Vec<u32>,
        /// Word-wise FNV-1a hash of the contexts ([`context_hash`]), a
        /// fast integrity check.
        context_hash: u64,
    },
    /// The user's accept/reject answers for the pending proposal of
    /// round `t`. Logged *before* being applied (log-then-apply).
    Feedback {
        /// Round index the feedback answers.
        t: u64,
        /// Accept/reject per arranged slot.
        accepts: Vec<bool>,
    },
    /// A service snapshot covering every record with sequence number
    /// `< snapshot_seq` exists on disk; older segments are compactable.
    SnapshotMarker {
        /// First sequence number *not* covered by the snapshot.
        snapshot_seq: u64,
    },
    /// Phase 1 of a cross-shard capacity transaction: this shard's
    /// write set (per-event capacity decrements) for transaction `txn`.
    /// Written to a *shard* log and made durable before the coordinator
    /// takes its commit decision; a prepare without a matching
    /// [`Record::TxnCommit`] or [`Record::TxnAbort`] later in the log
    /// is in-doubt and resolved from the coordinator log on recovery.
    TxnPrepare {
        /// Transaction id (the coordinator's round index, or a repair
        /// id with the high bit set).
        txn: u64,
        /// The write set: `(event id, capacity decrement)` pairs, in
        /// ascending event order.
        decs: Vec<(u32, u32)>,
    },
    /// Phase 2 outcome: the decrements of the matching
    /// [`Record::TxnPrepare`] took effect.
    TxnCommit {
        /// Transaction id being committed.
        txn: u64,
    },
    /// Phase 2 outcome: the matching [`Record::TxnPrepare`] was
    /// discarded without effect.
    TxnAbort {
        /// Transaction id being aborted.
        txn: u64,
    },
    /// One event-lifecycle action applied immediately before round `t`:
    /// the event's remaining capacity was *set* to `capacity` (0 =
    /// closed/expired; a later record re-opens it). Set-capacity
    /// semantics make replay idempotent. Appears in service round logs
    /// (coordinator churn decisions) and in shard logs (the owning
    /// shard's durable copy of the same decision).
    Lifecycle {
        /// Round index the action fires before.
        t: u64,
        /// The event being re-planned.
        event: u32,
        /// The new remaining capacity (0 closes the event).
        capacity: u32,
    },
}

impl Record {
    /// The frame tag byte for this record type.
    pub fn tag(&self) -> u8 {
        match self {
            Record::Propose { .. } => TAG_PROPOSE,
            Record::Feedback { .. } => TAG_FEEDBACK,
            Record::SnapshotMarker { .. } => TAG_SNAPSHOT_MARKER,
            Record::TxnPrepare { .. } => TAG_TXN_PREPARE,
            Record::TxnCommit { .. } => TAG_TXN_COMMIT,
            Record::TxnAbort { .. } => TAG_TXN_ABORT,
            Record::Lifecycle { .. } => TAG_LIFECYCLE,
        }
    }

    /// Short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Propose { .. } => "Propose",
            Record::Feedback { .. } => "Feedback",
            Record::SnapshotMarker { .. } => "SnapshotMarker",
            Record::TxnPrepare { .. } => "TxnPrepare",
            Record::TxnCommit { .. } => "TxnCommit",
            Record::TxnAbort { .. } => "TxnAbort",
            Record::Lifecycle { .. } => "Lifecycle",
        }
    }
}

/// Word-wise FNV-1a over a context block, the `context_hash` carried
/// by [`Record::Propose`]: each value's 64-bit pattern is folded in
/// whole, `h = (h ^ x.to_bits()) · FNV_PRIME`, one multiply per f64
/// instead of eight. (WAL format v1 folded the eight bytes one at a
/// time; [`crate::wal::VERSION`] 2 marks the change.)
pub fn context_hash(contexts: &[f64]) -> u64 {
    contexts.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Payload length of a [`Record::Propose`] over `num_events × dim`
/// contexts with `arranged` events: 41 fixed bytes (tag, seq, t,
/// user_capacity, num_events, dim, arr_len, context_hash), 8 per context
/// cell and 4 per arranged event. Saturates instead of overflowing, so
/// callers can compare the result against [`MAX_PAYLOAD`] for any shape.
pub fn propose_payload_len(num_events: usize, dim: usize, arranged: usize) -> u64 {
    let cells = (num_events as u64).saturating_mul(dim as u64);
    (41u64)
        .saturating_add(cells.saturating_mul(8))
        .saturating_add((arranged as u64).saturating_mul(4))
}

/// Serialises the payload (`tag | seq | body`) of one record.
pub fn encode_payload(seq: u64, record: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_payload_into(&mut out, seq, record);
    out
}

/// Appends the payload (`tag | seq | body`) of one record to `out`.
fn encode_payload_into(out: &mut Vec<u8>, seq: u64, record: &Record) {
    out.push(record.tag());
    out.extend_from_slice(&seq.to_le_bytes());
    match record {
        Record::Propose {
            t,
            user_capacity,
            num_events,
            dim,
            contexts,
            arrangement,
            context_hash,
        } => {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&user_capacity.to_le_bytes());
            out.extend_from_slice(&num_events.to_le_bytes());
            out.extend_from_slice(&dim.to_le_bytes());
            for v in contexts {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(arrangement.len() as u32).to_le_bytes());
            for v in arrangement {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&context_hash.to_le_bytes());
        }
        Record::Feedback { t, accepts } => {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&(accepts.len() as u32).to_le_bytes());
            out.extend(accepts.iter().map(|&b| b as u8));
        }
        Record::SnapshotMarker { snapshot_seq } => {
            out.extend_from_slice(&snapshot_seq.to_le_bytes());
        }
        Record::TxnPrepare { txn, decs } => {
            out.extend_from_slice(&txn.to_le_bytes());
            out.extend_from_slice(&(decs.len() as u32).to_le_bytes());
            for (event, dec) in decs {
                out.extend_from_slice(&event.to_le_bytes());
                out.extend_from_slice(&dec.to_le_bytes());
            }
        }
        Record::TxnCommit { txn } => {
            out.extend_from_slice(&txn.to_le_bytes());
        }
        Record::TxnAbort { txn } => {
            out.extend_from_slice(&txn.to_le_bytes());
        }
        Record::Lifecycle { t, event, capacity } => {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&event.to_le_bytes());
            out.extend_from_slice(&capacity.to_le_bytes());
        }
    }
}

fn oversized(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"),
    )
}

/// The 8-byte frame header (`len | crc`) for `payload`.
fn frame_header(payload: &[u8]) -> [u8; 8] {
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Writes one raw frame (`len | crc | payload`) to `w` in a single
/// vectored write (more only if the writer accepts part of it), so a
/// frame on a `TCP_NODELAY` socket leaves as one segment and the
/// payload is never copied. Returns the number of bytes written. This
/// is the framing primitive shared by the WAL and by `fasea-serve`'s
/// wire protocol; the payload is opaque.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`], with nothing written, when the
/// payload exceeds [`MAX_PAYLOAD`]: every reader rejects such a frame as
/// torn, so writing it would ack a record that recovery then drops.
/// Otherwise, the writer's own errors.
pub fn write_raw_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<u64> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(oversized(payload.len()));
    }
    let header = frame_header(payload);
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(8 + payload.len() as u64)
}

/// Appends one framed record (`len | crc | payload`) to `out` and
/// returns the frame's size in bytes. The WAL encodes a whole batch of
/// records this way and hands it to the file in one write.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`], with `out` left as it was, when the
/// payload exceeds [`MAX_PAYLOAD`] (see [`write_raw_frame`]).
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, seq: u64, record: &Record) -> io::Result<u64> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    encode_payload_into(out, seq, record);
    let payload = &out[start + 8..];
    if payload.len() > MAX_PAYLOAD as usize {
        let len = payload.len();
        out.truncate(start);
        return Err(oversized(len));
    }
    let header = frame_header(payload);
    out[start..start + 8].copy_from_slice(&header);
    Ok((out.len() - start) as u64)
}

/// Writes one framed record (`len | crc | payload`) to `w` with a
/// single `write_all`. Returns the number of bytes written.
pub fn write_frame<W: Write>(w: &mut W, seq: u64, record: &Record) -> io::Result<u64> {
    let mut frame = Vec::with_capacity(72);
    let bytes = encode_frame_into(&mut frame, seq, record)?;
    w.write_all(&frame)?;
    Ok(bytes)
}

/// Outcome of reading one frame from a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// A fully intact record.
    Ok {
        /// The record's sequence number.
        seq: u64,
        /// The decoded record.
        record: Record,
        /// Frame size in bytes (header + payload).
        bytes: u64,
    },
    /// Clean end of stream: zero bytes remained.
    Eof,
    /// The stream ends inside a frame, or the frame fails its CRC or
    /// decodes to garbage — a torn or corrupted tail. `valid_prefix`
    /// additional bytes (always 0 here) are *not* part of the damage;
    /// the caller truncates the file back to the frame start.
    Torn {
        /// Human-readable reason the frame was rejected.
        why: &'static str,
    },
}

/// Outcome of reading one raw frame from a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum RawFrame {
    /// A CRC-valid payload.
    Payload {
        /// The opaque frame payload.
        payload: Vec<u8>,
        /// Frame size in bytes (header + payload).
        bytes: u64,
    },
    /// Clean end of stream: zero bytes remained.
    Eof,
    /// The stream ends inside a frame, the length field is implausible,
    /// or the payload fails its CRC.
    Torn {
        /// Human-readable reason the frame was rejected.
        why: &'static str,
    },
}

/// Reads one raw frame (`len | crc | payload`). Partial reads (as
/// produced by [`crate::fault::ShortReader`]) are handled by
/// `read_exact`; only a genuine end-of-stream inside a frame reports
/// [`RawFrame::Torn`].
pub fn read_raw_frame<R: Read>(r: &mut R) -> io::Result<RawFrame> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes) from a torn length field.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(RawFrame::Eof),
            0 => {
                return Ok(RawFrame::Torn {
                    why: "torn length field",
                })
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_PAYLOAD {
        return Ok(RawFrame::Torn {
            why: "implausible payload length",
        });
    }
    let mut crc_buf = [0u8; 4];
    if read_exact_or_eof(r, &mut crc_buf)?.is_none() {
        return Ok(RawFrame::Torn {
            why: "torn checksum field",
        });
    }
    let expect_crc = u32::from_le_bytes(crc_buf);
    let mut payload = vec![0u8; len as usize];
    if read_exact_or_eof(r, &mut payload)?.is_none() {
        return Ok(RawFrame::Torn {
            why: "torn payload",
        });
    }
    if crc32(&payload) != expect_crc {
        return Ok(RawFrame::Torn {
            why: "checksum mismatch",
        });
    }
    Ok(RawFrame::Payload {
        payload,
        bytes: 8 + len as u64,
    })
}

/// Incremental-parse outcome for one raw frame sitting at the front of
/// a byte buffer — the non-blocking dual of [`read_raw_frame`], used by
/// network readers that accumulate bytes under read timeouts.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameParse {
    /// The buffer does not yet hold a complete frame; read more bytes.
    NeedMore,
    /// A CRC-valid frame was parsed.
    Frame {
        /// The opaque frame payload.
        payload: Vec<u8>,
        /// Bytes to drain from the front of the buffer.
        consumed: usize,
    },
    /// The buffer front is not a valid frame (implausible length or CRC
    /// failure); the stream is unrecoverably desynchronised.
    Bad {
        /// Human-readable reason the frame was rejected.
        why: &'static str,
    },
}

/// Attempts to parse one raw frame from the front of `buf`.
pub fn parse_raw_frame(buf: &[u8]) -> FrameParse {
    if buf.len() < 4 {
        return FrameParse::NeedMore;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len == 0 || len > MAX_PAYLOAD {
        return FrameParse::Bad {
            why: "implausible payload length",
        };
    }
    let total = 8 + len as usize;
    if buf.len() < total {
        return FrameParse::NeedMore;
    }
    let expect_crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload = &buf[8..total];
    if crc32(payload) != expect_crc {
        return FrameParse::Bad {
            why: "checksum mismatch",
        };
    }
    FrameParse::Frame {
        payload: payload.to_vec(),
        consumed: total,
    }
}

/// Reads one framed record. Partial reads (as produced by
/// [`crate::fault::ShortReader`]) are handled by `read_exact`; only a
/// genuine end-of-stream inside a frame reports [`FrameOutcome::Torn`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<FrameOutcome> {
    let (payload, bytes) = match read_raw_frame(r)? {
        RawFrame::Eof => return Ok(FrameOutcome::Eof),
        RawFrame::Torn { why } => return Ok(FrameOutcome::Torn { why }),
        RawFrame::Payload { payload, bytes } => (payload, bytes),
    };
    match decode_payload(&payload) {
        Ok((seq, record)) => Ok(FrameOutcome::Ok { seq, record, bytes }),
        // CRC passed but the payload is malformed: an encoder/decoder
        // mismatch rather than disk damage, but still a rejection.
        Err(_) => Ok(FrameOutcome::Torn {
            why: "undecodable payload",
        }),
    }
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<Option<()>> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => return Ok(None),
            n => filled += n,
        }
    }
    Ok(Some(()))
}

/// Decodes a payload (`tag | seq | body`) produced by
/// [`encode_payload`].
pub fn decode_payload(payload: &[u8]) -> Result<(u64, Record), StoreError> {
    let mut at = 0usize;
    let corrupt = |what: &'static str| StoreError::CorruptRecord { seq: None, what };
    let take = |at: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        if *at + n > payload.len() {
            return Err(corrupt("payload truncated"));
        }
        let s = &payload[*at..*at + n];
        *at += n;
        Ok(s)
    };

    let tag = take(&mut at, 1)?[0];
    let seq = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
    let record = match tag {
        TAG_PROPOSE => {
            let t = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            let user_capacity = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            let num_events = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            let dim = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            let cells = (num_events as usize)
                .checked_mul(dim as usize)
                .ok_or_else(|| corrupt("context shape overflow"))?;
            let raw = take(&mut at, 8 * cells)?;
            let contexts: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let arr_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            if arr_len > num_events {
                return Err(corrupt("arrangement longer than event set"));
            }
            let raw = take(&mut at, 4 * arr_len as usize)?;
            let arrangement: Vec<u32> = raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            if arrangement.iter().any(|&v| v >= num_events) {
                return Err(corrupt("arranged event out of range"));
            }
            let context_hash = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            Record::Propose {
                t,
                user_capacity,
                num_events,
                dim,
                contexts,
                arrangement,
                context_hash,
            }
        }
        TAG_FEEDBACK => {
            let t = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            let len = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            let raw = take(&mut at, len as usize)?;
            if raw.iter().any(|&b| b > 1) {
                return Err(corrupt("feedback byte is not a bool"));
            }
            let accepts = raw.iter().map(|&b| b == 1).collect();
            Record::Feedback { t, accepts }
        }
        TAG_SNAPSHOT_MARKER => {
            let snapshot_seq = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            Record::SnapshotMarker { snapshot_seq }
        }
        TAG_TXN_PREPARE => {
            let txn = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            let len = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            let bytes = (len as usize)
                .checked_mul(8)
                .ok_or_else(|| corrupt("write-set length overflow"))?;
            let raw = take(&mut at, bytes)?;
            let decs: Vec<(u32, u32)> = raw
                .chunks_exact(8)
                .map(|c| {
                    (
                        u32::from_le_bytes(c[..4].try_into().unwrap()),
                        u32::from_le_bytes(c[4..].try_into().unwrap()),
                    )
                })
                .collect();
            if decs.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(corrupt("write set not in ascending event order"));
            }
            Record::TxnPrepare { txn, decs }
        }
        TAG_TXN_COMMIT => {
            let txn = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            Record::TxnCommit { txn }
        }
        TAG_TXN_ABORT => {
            let txn = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            Record::TxnAbort { txn }
        }
        TAG_LIFECYCLE => {
            let t = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
            let event = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            let capacity = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap());
            Record::Lifecycle { t, event, capacity }
        }
        _ => return Err(corrupt("unknown record tag")),
    };
    if at != payload.len() {
        return Err(corrupt("trailing payload bytes"));
    }
    Ok((seq, record))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_propose() -> Record {
        let contexts: Vec<f64> = (0..6).map(|i| i as f64 * 0.25 - 0.5).collect();
        Record::Propose {
            t: 41,
            user_capacity: 3,
            num_events: 3,
            dim: 2,
            context_hash: context_hash(&contexts),
            contexts,
            arrangement: vec![2, 0],
        }
    }

    #[test]
    fn round_trip_all_kinds() {
        let records = [
            sample_propose(),
            Record::Feedback {
                t: 41,
                accepts: vec![true, false],
            },
            Record::SnapshotMarker { snapshot_seq: 84 },
            Record::TxnPrepare {
                txn: 41,
                decs: vec![(2, 1), (7, 3)],
            },
            Record::TxnPrepare {
                txn: (1 << 63) | 9,
                decs: vec![],
            },
            Record::TxnCommit { txn: 41 },
            Record::TxnAbort { txn: 42 },
            Record::Lifecycle {
                t: 43,
                event: 7,
                capacity: 0,
            },
            Record::Lifecycle {
                t: 44,
                event: 7,
                capacity: 12,
            },
        ];
        for (i, rec) in records.iter().enumerate() {
            let payload = encode_payload(1000 + i as u64, rec);
            let (seq, decoded) = decode_payload(&payload).unwrap();
            assert_eq!(seq, 1000 + i as u64);
            assert_eq!(&decoded, rec);
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let rec = sample_propose();
        let bytes = write_frame(&mut buf, 7, &rec).unwrap();
        assert_eq!(bytes as usize, buf.len());
        let mut r = &buf[..];
        match read_frame(&mut r).unwrap() {
            FrameOutcome::Ok {
                seq,
                record,
                bytes: b,
            } => {
                assert_eq!(seq, 7);
                assert_eq!(record, rec);
                assert_eq!(b, bytes);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(read_frame(&mut r).unwrap(), FrameOutcome::Eof);
    }

    #[test]
    fn torn_frame_detected_at_every_cut() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, &sample_propose()).unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_frame(&mut r).unwrap(), FrameOutcome::Torn { .. }),
                "cut at {cut} not reported as torn"
            );
        }
    }

    #[test]
    fn bit_flip_detected_everywhere_in_payload() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            3,
            &Record::Feedback {
                t: 9,
                accepts: vec![true, true, false],
            },
        )
        .unwrap();
        // Flipping any bit after the length field must fail the CRC (a
        // flip inside `len` instead yields a torn/implausible frame).
        for byte in 4..buf.len() {
            for bit in 0..8 {
                let mut copy = buf.clone();
                copy[byte] ^= 1 << bit;
                let mut r = &copy[..];
                assert!(
                    matches!(read_frame(&mut r).unwrap(), FrameOutcome::Torn { .. }),
                    "flip at {byte}:{bit} accepted"
                );
            }
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r).unwrap(),
            FrameOutcome::Torn {
                why: "implausible payload length"
            }
        ));
    }

    #[test]
    fn decode_rejects_structural_garbage() {
        // Unknown tag.
        let mut payload = encode_payload(0, &Record::SnapshotMarker { snapshot_seq: 1 });
        payload[0] = 99;
        assert!(decode_payload(&payload).is_err());
        // Arrangement index out of range.
        let bad = Record::Propose {
            t: 0,
            user_capacity: 1,
            num_events: 2,
            dim: 1,
            contexts: vec![0.0, 0.0],
            arrangement: vec![5],
            context_hash: 0,
        };
        let payload = encode_payload(0, &bad);
        assert!(decode_payload(&payload).is_err());
        // Trailing bytes.
        let mut payload = encode_payload(0, &Record::SnapshotMarker { snapshot_seq: 1 });
        payload.push(0);
        assert!(decode_payload(&payload).is_err());
        // Prepare write set out of order (also catches duplicates).
        let bad = Record::TxnPrepare {
            txn: 3,
            decs: vec![(5, 1), (5, 2)],
        };
        assert!(decode_payload(&encode_payload(0, &bad)).is_err());
        // Prepare whose length field promises more pairs than exist.
        let mut payload = encode_payload(
            0,
            &Record::TxnPrepare {
                txn: 3,
                decs: vec![(1, 1)],
            },
        );
        let at = 1 + 8 + 8; // tag | seq | txn → length field
        payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_payload(&payload).is_err());
    }

    #[test]
    fn raw_frame_round_trip_and_parse() {
        let payload = b"serve-payload".to_vec();
        let mut buf = Vec::new();
        let bytes = write_raw_frame(&mut buf, &payload).unwrap();
        assert_eq!(bytes as usize, buf.len());
        // Streaming read.
        let mut r = &buf[..];
        assert_eq!(
            read_raw_frame(&mut r).unwrap(),
            RawFrame::Payload {
                payload: payload.clone(),
                bytes
            }
        );
        assert_eq!(read_raw_frame(&mut r).unwrap(), RawFrame::Eof);
        // Incremental parse: every prefix short of the full frame needs
        // more bytes; the full buffer parses exactly once.
        for cut in 0..buf.len() {
            assert_eq!(parse_raw_frame(&buf[..cut]), FrameParse::NeedMore);
        }
        match parse_raw_frame(&buf) {
            FrameParse::Frame {
                payload: p,
                consumed,
            } => {
                assert_eq!(p, payload);
                assert_eq!(consumed, buf.len());
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn parse_raw_frame_rejects_corruption() {
        let mut buf = Vec::new();
        write_raw_frame(&mut buf, b"x".repeat(16).as_slice()).unwrap();
        // Bit flip in the payload → CRC failure.
        let mut flipped = buf.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(
            parse_raw_frame(&flipped),
            FrameParse::Bad {
                why: "checksum mismatch"
            }
        ));
        // Oversized length field.
        let mut oversized = buf.clone();
        oversized[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_raw_frame(&oversized),
            FrameParse::Bad {
                why: "implausible payload length"
            }
        ));
    }

    #[test]
    fn context_hash_is_order_sensitive() {
        assert_ne!(context_hash(&[1.0, 2.0]), context_hash(&[2.0, 1.0]));
        assert_eq!(context_hash(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn context_hash_golden() {
        // Pins the word-wise definition that WAL format v2 records carry;
        // a change here must bump `wal::VERSION` again.
        let block: Vec<f64> = (0..6).map(|i| i as f64 * 0.25 - 0.5).collect();
        assert_eq!(context_hash(&block), 0xeaac_fcfa_299d_713d);
    }

    #[test]
    fn propose_payload_len_matches_encoding() {
        for (n, d, arranged) in [(3usize, 2usize, 2usize), (1, 1, 0), (40, 5, 7)] {
            let rec = Record::Propose {
                t: 1,
                user_capacity: 9,
                num_events: n as u32,
                dim: d as u32,
                contexts: vec![0.5; n * d],
                arrangement: (0..arranged as u32).collect(),
                context_hash: 0,
            };
            assert_eq!(
                encode_payload(3, &rec).len() as u64,
                propose_payload_len(n, d, arranged)
            );
        }
        assert_eq!(propose_payload_len(usize::MAX, 2, 0), u64::MAX);
    }

    #[test]
    fn oversized_payload_is_refused_without_writing() {
        let mut buf = Vec::new();
        let err = write_raw_frame(&mut buf, &vec![0u8; MAX_PAYLOAD as usize + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty());
        // The largest legal payload still frames and reads back.
        let payload = vec![7u8; MAX_PAYLOAD as usize];
        write_raw_frame(&mut buf, &payload).unwrap();
        assert!(matches!(
            parse_raw_frame(&buf),
            FrameParse::Frame { consumed, .. } if consumed == buf.len()
        ));
    }

    #[test]
    fn a_frame_reaches_the_writer_in_one_call() {
        use crate::fault::CountingWriter;
        // A raw frame (the wire path) leaves in one vectored write.
        let payload = vec![0x5au8; 80 << 10];
        let mut sink = CountingWriter::new(Vec::new());
        let bytes = write_raw_frame(&mut sink, &payload).unwrap();
        assert_eq!(sink.calls(), 1);
        assert_eq!(bytes as usize, sink.get_ref().len());
        // A WAL record frame is encoded whole and written once.
        let rec = Record::Feedback {
            t: 3,
            accepts: vec![true, false, true],
        };
        let mut sink = CountingWriter::new(Vec::new());
        write_frame(&mut sink, 9, &rec).unwrap();
        assert_eq!(sink.calls(), 1);
        let mut encoded = Vec::new();
        encode_frame_into(&mut encoded, 9, &rec).unwrap();
        assert_eq!(sink.get_ref(), &encoded);
        let mut r = &encoded[..];
        assert!(matches!(
            read_frame(&mut r).unwrap(),
            FrameOutcome::Ok { seq: 9, record, .. } if record == rec
        ));
    }

    #[test]
    fn partial_vectored_writes_still_frame_exactly() {
        use crate::fault::CountingWriter;
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut whole = Vec::new();
        write_raw_frame(&mut whole, &payload).unwrap();
        for chunk in [1usize, 3, 7, 8, 9, 500, 1007] {
            let mut sink = CountingWriter::new(Vec::new()).with_max_chunk(chunk);
            write_raw_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.calls(), whole.len().div_ceil(chunk), "chunk {chunk}");
            assert_eq!(sink.into_inner(), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn oversized_frame_leaves_the_buffer_as_it_was() {
        let mut out = vec![1u8, 2, 3];
        let huge = Record::Feedback {
            t: 0,
            accepts: vec![false; MAX_PAYLOAD as usize],
        };
        let err = encode_frame_into(&mut out, 0, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, vec![1u8, 2, 3]);
    }
}
