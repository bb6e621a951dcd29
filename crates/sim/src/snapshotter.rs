//! Background snapshotter for the durable service.
//!
//! An inline snapshot stops the round loop for the whole
//! write–rename–compact cycle. `snapshot_async` instead *clones* the
//! service's (small: `O(d²)` policy state plus capacities) image under
//! single-writer ownership and hands it to a [`Snapshotter`] thread,
//! which performs the slow parts off the critical path:
//!
//! 1. a [`sync_barrier`](fasea_store::GroupCommitWal::sync_barrier), so
//!    every record the snapshot covers is fsynced before the snapshot
//!    can make it compactable;
//! 2. the atomic temp-file + rename snapshot write;
//! 3. WAL rotation, the `SnapshotMarker` append and
//!    `compact_below(seq)` — all enqueued through the commit queue, so
//!    they are totally ordered with the actor's concurrent appends;
//! 4. pruning of old snapshots.
//!
//! A crash at any point is safe: before the rename the old snapshot is
//! intact and the WAL suffix replays; after the rename the new snapshot
//! is complete and compaction is merely repeated work. The snapshotter
//! publishes the seq of the newest completed snapshot
//! ([`Snapshotter::published_seq`]); its first storage error poisons it
//! (later requests are dropped) and is surfaced at
//! [`Snapshotter::close`].

use fasea_store::snapshot::prune_snapshots;
use fasea_store::{GroupCommitWal, Record, ServiceSnapshot, StoreError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Live snapshotter threads across the whole process — the serving
/// layer's drain test asserts this returns to zero after a graceful
/// shutdown, i.e. that closing the service joined its snapshotter.
static LIVE_SNAPSHOTTERS: AtomicUsize = AtomicUsize::new(0);

/// Number of [`Snapshotter`] threads currently alive in this process.
pub fn live_snapshotters() -> usize {
    LIVE_SNAPSHOTTERS.load(Ordering::SeqCst)
}

struct SnapShared {
    /// Seq of the newest snapshot fully written, rotated and compacted.
    published_seq: AtomicU64,
    /// First storage error; poisons the snapshotter.
    error: Mutex<Option<StoreError>>,
}

/// Handle to the background snapshot thread. Dropping it (or calling
/// [`close`](Snapshotter::close)) finishes queued snapshots and joins
/// the thread.
pub struct Snapshotter {
    tx: Option<Sender<ServiceSnapshot>>,
    worker: Option<JoinHandle<()>>,
    shared: Arc<SnapShared>,
}

impl std::fmt::Debug for Snapshotter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshotter")
            .field("published_seq", &self.published_seq())
            .finish()
    }
}

impl Snapshotter {
    /// Spawns the snapshot thread for the given group-commit log and
    /// snapshot directory, keeping `keep` snapshots after each prune.
    pub fn spawn(wal: Arc<GroupCommitWal>, dir: PathBuf, keep: usize) -> Self {
        let shared = Arc::new(SnapShared {
            published_seq: AtomicU64::new(0),
            error: Mutex::new(None),
        });
        let for_thread = Arc::clone(&shared);
        // Counted on the spawning side so the liveness counter is
        // already accurate when `spawn` returns.
        LIVE_SNAPSHOTTERS.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel::<ServiceSnapshot>();
        let worker = std::thread::Builder::new()
            .name("fasea-snapshotter".into())
            .spawn(move || {
                struct LiveGuard;
                impl Drop for LiveGuard {
                    fn drop(&mut self) {
                        LIVE_SNAPSHOTTERS.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                let _live = LiveGuard;
                while let Ok(snap) = rx.recv() {
                    if for_thread
                        .error
                        .lock()
                        .expect("snapshotter poisoned")
                        .is_some()
                    {
                        // Poisoned: drop further requests; the WAL still
                        // holds everything, so nothing is lost.
                        continue;
                    }
                    let seq = snap.seq;
                    match run_snapshot(&wal, &dir, keep, snap) {
                        Ok(_) => {
                            for_thread.published_seq.store(seq, Ordering::Release);
                        }
                        Err(e) => {
                            *for_thread.error.lock().expect("snapshotter poisoned") = Some(e);
                        }
                    }
                }
            })
            .inspect_err(|_| {
                LIVE_SNAPSHOTTERS.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn snapshotter");
        Snapshotter {
            tx: Some(tx),
            worker: Some(worker),
            shared,
        }
    }

    /// Queues a snapshot image for background processing. Returns
    /// immediately; completion is visible via
    /// [`published_seq`](Snapshotter::published_seq).
    ///
    /// # Errors
    /// The snapshotter's poisoning error, if a previous snapshot failed.
    pub fn request(&self, snap: ServiceSnapshot) -> Result<(), StoreError> {
        if let Some(e) = self.error() {
            return Err(e);
        }
        self.tx
            .as_ref()
            .expect("snapshotter already closed")
            .send(snap)
            .expect("snapshotter thread gone");
        Ok(())
    }

    /// Seq of the newest fully completed snapshot (0 if none yet).
    pub fn published_seq(&self) -> u64 {
        self.shared.published_seq.load(Ordering::Acquire)
    }

    /// The snapshotter's poisoning error, if any snapshot failed.
    pub fn error(&self) -> Option<StoreError> {
        self.shared
            .error
            .lock()
            .expect("snapshotter poisoned")
            .clone()
    }

    /// Finishes queued snapshots, joins the thread, and reports the
    /// first error (if any). Called by the durable service's close.
    ///
    /// # Errors
    /// The snapshotter's poisoning error — queued-but-failed snapshots
    /// lose nothing (the WAL still covers them), but the caller should
    /// know compaction stalled.
    pub fn close(mut self) -> Result<(), StoreError> {
        self.join();
        match self.error() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn join(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.worker.take() {
            h.join().expect("snapshotter panicked");
        }
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        self.join();
    }
}

/// The full snapshot cycle, shared by the background thread, the inline
/// `snapshot` and the final snapshot of `close`: barrier-sync, write +
/// rename, rotate, marker, compact, prune.
pub(crate) fn run_snapshot(
    wal: &GroupCommitWal,
    dir: &Path,
    keep: usize,
    snap: ServiceSnapshot,
) -> Result<PathBuf, StoreError> {
    // Everything the snapshot covers must be durable before the
    // snapshot may exist (it makes those records compactable).
    wal.sync_barrier()?;
    let seq = snap.seq;
    let path = snap.write_atomic(dir)?;
    // Ordered through the commit queue — concurrent appends from the
    // round loop interleave safely before/after these.
    wal.rotate()?;
    wal.append(Record::SnapshotMarker { snapshot_seq: seq })?;
    wal.compact_below(seq)?;
    prune_snapshots(dir, keep.max(1))?;
    Ok(path)
}
