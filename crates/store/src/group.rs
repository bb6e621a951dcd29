//! Group-commit pipeline over the [`Wal`](crate::wal::Wal).
//!
//! The PR 1 durability design puts every append — and, under
//! [`FsyncPolicy::Always`](crate::wal::FsyncPolicy), a full `fsync` —
//! inline on the caller. That is correct but serialises the service's
//! round loop behind disk latency: N concurrent clients pay N fsyncs.
//! [`GroupCommitWal`] decouples the two halves:
//!
//! * **Front end** (any thread): [`GroupCommitWal::append`] assigns the
//!   record a monotone LSN (identical to the sequence number the `Wal`
//!   will give it), pushes it onto an in-memory commit queue and
//!   returns immediately.
//! * **Syncer** (one dedicated thread, owns the `Wal`): drains the
//!   whole queue, writes the batch's records with one write via
//!   [`Wal::append_all_unsynced`](crate::wal::Wal::append_all_unsynced),
//!   then applies the fsync policy **once** for the batch — so N queued
//!   records share a single write + fsync syscall pair — and publishes
//!   the durability watermark.
//!
//! The watermark [`GroupCommitWal::durable_lsn`] is a *count*: every
//! record with `lsn < durable_lsn()` has reached the durability level
//! the configured policy promises (`Always` ⇒ fsynced; `EveryN`/`Never`
//! ⇒ written to the OS, exactly the PR 1/2 acknowledgement semantics).
//! Callers that acknowledge work to the outside world wait on the
//! watermark ([`GroupCommitWal::wait_durable`]) before replying, which
//! preserves acked-implies-durable while letting the round loop run
//! ahead of the disk.
//!
//! # Records nobody waits on
//!
//! [`GroupCommitWal::append_unawaited`] enqueues a record that no
//! caller acknowledges on its own (the service's `Propose`, whose reply
//! does not wait for durability). A batch holding only such records is
//! written at once but neither fsynced nor published: the watermark
//! stays put and the observer does not fire. The records ride the next
//! publishing batch — one that carries an awaited append or a
//! [`sync_barrier`](GroupCommitWal::sync_barrier), is forced by a
//! [`wait_durable`](GroupCommitWal::wait_durable) on one of them, or is
//! the final drain of [`close`](GroupCommitWal::close) — and share its
//! single fsync. So a served round (`Propose` then `Feedback`) costs
//! one fsync, and the meaning of the watermark does not change.
//!
//! Maintenance operations ([`rotate`](GroupCommitWal::rotate),
//! [`compact_below`](GroupCommitWal::compact_below),
//! [`sync_barrier`](GroupCommitWal::sync_barrier)) travel through the
//! same queue, so they are totally ordered with the appends around them
//! — the asynchronous snapshotter in `fasea-sim` relies on this to
//! rotate and compact without ever touching the `Wal` from a second
//! thread.
//!
//! # Failure model
//!
//! The first storage error poisons the pipeline: the error is published
//! to every current and future caller (appends fail fast, waiters wake
//! with the error), and the syncer parks — keeping the `Wal` so
//! [`GroupCommitWal::close`] can still hand it back — until closed.
//! This mirrors the PR 1 rule that a failed append poisons the service.

use crate::record::Record;
use crate::wal::{FsyncPolicy, Wal};
use crate::StoreError;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live commit-syncer threads across the whole process — the serving
/// layer's drain test asserts this returns to zero after a graceful
/// shutdown, i.e. that closing the service joined its syncer.
static LIVE_SYNCERS: AtomicUsize = AtomicUsize::new(0);

/// Number of [`GroupCommitWal`] syncer threads currently alive in this
/// process.
pub fn live_commit_syncers() -> usize {
    LIVE_SYNCERS.load(Ordering::SeqCst)
}

/// Observer invoked by the syncer after each published batch with
/// `(batch_size, commit_latency)`: the number of records the batch
/// made durable (unawaited records it carried included) and the
/// latency from the oldest wait on any of them — an awaited record's
/// enqueue, a barrier, or a `wait_durable` — to durability.
pub type CommitObserver = Arc<dyn Fn(usize, Duration) + Send + Sync>;

/// Notifier invoked by the syncer whenever the durability watermark
/// advances, with the new [`GroupCommitWal::durable_lsn`] value. The
/// serve actor installs one that sends the client replies withheld
/// until their records are durable, straight from the syncer thread.
pub type CommitNotifier = Arc<dyn Fn(u64) + Send + Sync>;

/// One unit of ordered work for the syncer.
enum Task {
    /// Append `record` (its LSN was assigned at enqueue time and the
    /// `Wal` will reproduce it). `awaited` is `false` for a record
    /// nobody waits on, which alone does not make its batch publish;
    /// `enqueued` feeds the commit-latency observer.
    Append {
        record: Record,
        enqueued: Instant,
        awaited: bool,
    },
    /// Close the current segment and start a fresh one.
    Rotate,
    /// Delete fully-covered segments below `seq`.
    CompactBelow(u64),
    /// Force an fsync regardless of policy and bump the barrier
    /// counter; [`GroupCommitWal::sync_barrier`] waits on it from
    /// `enqueued`.
    SyncBarrier { enqueued: Instant },
}

struct State {
    queue: VecDeque<Task>,
    /// The LSN the next append will receive — always equal to the
    /// `Wal`'s `next_seq` plus the queued appends.
    next_lsn: u64,
    /// Barriers enqueued / completed; a `sync_barrier` caller waits for
    /// its ticket.
    barriers_issued: u64,
    barriers_done: u64,
    /// One past the newest LSN the syncer will publish unasked: the
    /// newest awaited append, barrier or registered wait. A
    /// `wait_durable` below it needs no extra sync.
    awaited_end: u64,
    /// When a `wait_durable` on an unawaited record registered its
    /// need: the syncer's next pass publishes even if it writes nothing
    /// awaited.
    sync_wanted: Option<Instant>,
    /// First storage error; poisons the pipeline.
    error: Option<StoreError>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals the syncer: work queued or shutdown requested.
    work_cv: Condvar,
    /// Signals callers: watermark advanced, barrier done, or error.
    progress_cv: Condvar,
    /// The durability watermark (count semantics: `lsn < durable` ⇒
    /// durable per policy). Written only by the syncer while holding
    /// `state`; read lock-free by anyone.
    durable: AtomicU64,
    observer: Mutex<Option<CommitObserver>>,
    notifier: Mutex<Option<CommitNotifier>>,
}

/// A [`Wal`](crate::wal::Wal) fronted by an in-memory commit queue and
/// a dedicated syncer thread. See the [module docs](self) for the
/// protocol.
pub struct GroupCommitWal {
    shared: Arc<Shared>,
    /// `Some` until [`close`](GroupCommitWal::close) joins it.
    syncer: Option<JoinHandle<Wal>>,
    policy: FsyncPolicy,
}

impl fmt::Debug for GroupCommitWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupCommitWal")
            .field("durable_lsn", &self.durable_lsn())
            .field("next_lsn", &self.next_lsn())
            .field("policy", &self.policy)
            .finish()
    }
}

impl GroupCommitWal {
    /// Takes ownership of `wal` and spawns the syncer thread. Records
    /// already in the log count as durable (`durable_lsn` starts at the
    /// `Wal`'s `next_seq`).
    pub fn spawn(wal: Wal) -> Self {
        let policy = wal.fsync_policy();
        let next = wal.next_seq();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_lsn: next,
                barriers_issued: 0,
                barriers_done: 0,
                awaited_end: next,
                sync_wanted: None,
                error: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            progress_cv: Condvar::new(),
            durable: AtomicU64::new(next),
            observer: Mutex::new(None),
            notifier: Mutex::new(None),
        });
        let for_thread = Arc::clone(&shared);
        // Counted on the spawning side so the liveness counter is
        // already accurate when `spawn` returns; the syncer's drop
        // guard decrements on exit.
        LIVE_SYNCERS.fetch_add(1, Ordering::SeqCst);
        let syncer = std::thread::Builder::new()
            .name("fasea-commit-syncer".into())
            .spawn(move || syncer_loop(wal, for_thread))
            .inspect_err(|_| {
                LIVE_SYNCERS.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn commit syncer");
        GroupCommitWal {
            shared,
            syncer: Some(syncer),
            policy,
        }
    }

    /// Installs (or clears) the per-batch metrics observer.
    pub fn set_commit_observer(&self, observer: Option<CommitObserver>) {
        *self.shared.observer.lock().expect("observer poisoned") = observer;
    }

    /// Installs (or clears) the watermark-advance notifier.
    pub fn set_commit_notifier(&self, notifier: Option<CommitNotifier>) {
        *self.shared.notifier.lock().expect("notifier poisoned") = notifier;
    }

    /// Enqueues one record for the syncer and returns its LSN — the
    /// exact sequence number the underlying `Wal` will assign. The
    /// record is **not yet durable**; acknowledge it only once
    /// [`durable_lsn`](GroupCommitWal::durable_lsn) exceeds the
    /// returned LSN. Its batch is fsynced (per policy) and published.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous batch failed.
    pub fn append(&self, record: Record) -> Result<u64, StoreError> {
        self.push_append(record, true)
    }

    /// Like [`append`](GroupCommitWal::append), for a record nobody
    /// acknowledges on its own: it is written at once but made durable
    /// only with the next publishing batch (see the [module
    /// docs](self)). A [`wait_durable`](GroupCommitWal::wait_durable)
    /// on its LSN still returns once it is durable.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous batch failed.
    pub fn append_unawaited(&self, record: Record) -> Result<u64, StoreError> {
        self.push_append(record, false)
    }

    fn push_append(&self, record: Record, awaited: bool) -> Result<u64, StoreError> {
        let mut st = self.lock_state();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        if awaited {
            st.awaited_end = st.next_lsn;
        }
        st.queue.push_back(Task::Append {
            record,
            enqueued: Instant::now(),
            awaited,
        });
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(lsn)
    }

    /// Enqueues a segment rotation, ordered after everything already
    /// queued.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous batch failed.
    pub fn rotate(&self) -> Result<(), StoreError> {
        self.enqueue_maintenance(Task::Rotate)
    }

    /// Enqueues compaction of segments fully below `seq`, ordered after
    /// everything already queued.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous batch failed.
    pub fn compact_below(&self, seq: u64) -> Result<(), StoreError> {
        self.enqueue_maintenance(Task::CompactBelow(seq))
    }

    fn enqueue_maintenance(&self, task: Task) -> Result<(), StoreError> {
        let mut st = self.lock_state();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        st.queue.push_back(task);
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Enqueues a forced fsync ordered after everything already queued
    /// and blocks until it has completed — on return, every previously
    /// appended record is fsynced regardless of policy. The snapshotter
    /// uses this before writing a snapshot that makes records
    /// compactable.
    ///
    /// # Errors
    /// The pipeline's poisoning error.
    pub fn sync_barrier(&self) -> Result<(), StoreError> {
        let mut st = self.lock_state();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        st.barriers_issued += 1;
        let ticket = st.barriers_issued;
        st.awaited_end = st.next_lsn;
        st.queue.push_back(Task::SyncBarrier {
            enqueued: Instant::now(),
        });
        self.shared.work_cv.notify_one();
        while st.barriers_done < ticket {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            st = self
                .shared
                .progress_cv
                .wait(st)
                .expect("group commit state poisoned");
        }
        Ok(())
    }

    /// The durability watermark: every record whose LSN is *strictly
    /// below* this value has reached the durability level the fsync
    /// policy promises. Lock-free.
    pub fn durable_lsn(&self) -> u64 {
        self.shared.durable.load(Ordering::Acquire)
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.lock_state().next_lsn
    }

    /// Records enqueued but not yet handed to the `Wal` (diagnostics).
    pub fn queued(&self) -> usize {
        self.lock_state().queue.len()
    }

    /// The underlying log's fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The pipeline's poisoning error, if any batch has failed.
    pub fn error(&self) -> Option<StoreError> {
        self.lock_state().error.clone()
    }

    /// Blocks until `lsn` is covered by the watermark (`durable_lsn() >
    /// lsn`) and returns the watermark. If nothing the syncer will
    /// publish on its own covers `lsn` (it is an
    /// [unawaited](GroupCommitWal::append_unawaited) record), this
    /// registers the need and wakes the syncer.
    ///
    /// # Errors
    /// The pipeline's poisoning error — in that case the record may or
    /// may not have reached disk and the caller must *not* acknowledge
    /// it.
    pub fn wait_durable(&self, lsn: u64) -> Result<u64, StoreError> {
        // Fast path: already covered.
        let seen = self.durable_lsn();
        if seen > lsn {
            return Ok(seen);
        }
        let mut st = self.lock_state();
        loop {
            // `durable` is only stored while `state` is held, so
            // re-checking under the lock cannot miss a wakeup.
            let seen = self.durable_lsn();
            if seen > lsn {
                return Ok(seen);
            }
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if lsn >= st.awaited_end {
                st.awaited_end = lsn + 1;
                st.sync_wanted.get_or_insert_with(Instant::now);
                self.shared.work_cv.notify_one();
            }
            st = self
                .shared
                .progress_cv
                .wait(st)
                .expect("group commit state poisoned");
        }
    }

    /// Shuts the pipeline down: the syncer drains everything still
    /// queued (unless already poisoned), publishes it — unawaited
    /// records included — with the fsync policy applied, and hands the
    /// `Wal` back for synchronous use (final snapshot, close protocol).
    ///
    /// # Errors
    /// The pipeline's poisoning error. The `Wal` is dropped in that
    /// case — per the PR 1 rule, the safe continuation after a storage
    /// failure is to re-open and recover from disk, not to keep
    /// appending to a writer of unknown state.
    pub fn close(mut self) -> Result<Wal, StoreError> {
        let wal = self.join_syncer();
        match self.lock_state().error.clone() {
            None => Ok(wal),
            Some(e) => Err(e),
        }
    }

    fn join_syncer(&mut self) -> Wal {
        {
            let mut st = self.lock_state();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.syncer
            .take()
            .expect("syncer already joined")
            .join()
            .expect("commit syncer panicked")
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared
            .state
            .lock()
            .expect("group commit state poisoned")
    }
}

impl Drop for GroupCommitWal {
    fn drop(&mut self) {
        if self.syncer.is_some() {
            // Not closed explicitly: still drain and join so nothing
            // queued is silently lost and no thread leaks.
            let _ = self.join_syncer();
        }
    }
}

/// The syncer thread: drains the queue in whole batches, writes each
/// run of appends with one write, and — when the batch holds anything
/// someone waits on — applies the fsync policy once and publishes the
/// watermark. Returns the `Wal` at shutdown so `close()` can hand it
/// back.
fn syncer_loop(mut wal: Wal, shared: Arc<Shared>) -> Wal {
    struct LiveGuard;
    impl Drop for LiveGuard {
        fn drop(&mut self) {
            LIVE_SYNCERS.fetch_sub(1, Ordering::SeqCst);
        }
    }
    // The matching increment happened in `GroupCommitWal::spawn`.
    let _live = LiveGuard;

    let mut batch: Vec<Task> = Vec::new();
    let mut run: Vec<Record> = Vec::new();
    // Records written but not yet published (unawaited ones waiting
    // for a batch that publishes).
    let mut unpublished = 0usize;
    loop {
        // Wait for work; on shutdown keep draining, then publish
        // whatever is still unpublished, before returning.
        let (wanted, closing) = {
            let mut st = shared.state.lock().expect("group commit state poisoned");
            loop {
                if st.error.is_some() {
                    // Poisoned: drop the queue (nothing was acked) and
                    // park until shutdown.
                    st.queue.clear();
                    st.sync_wanted = None;
                } else if !st.queue.is_empty()
                    || st.sync_wanted.is_some()
                    || (st.shutdown && unpublished > 0)
                {
                    break;
                }
                if st.shutdown {
                    return wal;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .expect("group commit state poisoned");
            }
            batch.extend(st.queue.drain(..));
            (st.sync_wanted.take(), st.shutdown)
        };

        // The oldest wait this batch answers, if any: its awaited
        // appends, its barriers, or a registered `wait_durable`.
        let mut waited_since = wanted;
        let mut appended = 0usize;
        let mut barriers = 0u64;
        let mut outcome: Result<(), StoreError> = Ok(());
        for task in batch.drain(..) {
            if outcome.is_err() {
                continue;
            }
            outcome = match task {
                Task::Append {
                    record,
                    enqueued,
                    awaited,
                } => {
                    if awaited {
                        waited_since = earliest(waited_since, enqueued);
                    }
                    run.push(record);
                    Ok(())
                }
                Task::Rotate => {
                    write_run(&mut wal, &mut run, &mut appended).and_then(|()| wal.rotate())
                }
                Task::CompactBelow(seq) => write_run(&mut wal, &mut run, &mut appended)
                    .and_then(|()| wal.compact_below(seq).map(|_| ())),
                Task::SyncBarrier { enqueued } => {
                    waited_since = earliest(waited_since, enqueued);
                    write_run(&mut wal, &mut run, &mut appended).and_then(|()| {
                        wal.sync().map(|()| {
                            barriers += 1;
                        })
                    })
                }
            };
        }
        if outcome.is_ok() {
            outcome = write_run(&mut wal, &mut run, &mut appended);
        }
        run.clear();
        unpublished += appended;
        let publish = waited_since.is_some() || closing;
        if outcome.is_ok() && !publish {
            // Only unawaited records: written, left for the next
            // publishing batch to fsync.
            continue;
        }
        if outcome.is_ok() && unpublished > 0 {
            // One policy application for the whole batch: this is the
            // group commit — N records, at most one fsync.
            outcome = wal.apply_fsync_policy();
        }

        let watermark = wal.next_seq();
        let published = {
            let mut st = shared.state.lock().expect("group commit state poisoned");
            match &outcome {
                Ok(()) => {
                    // `Always` reached here post-fsync; `EveryN`/`Never`
                    // post-write — exactly the per-policy durability
                    // point the synchronous path acknowledged at.
                    shared.durable.store(watermark, Ordering::Release);
                    st.barriers_done += barriers;
                    true
                }
                Err(e) => {
                    st.error = Some(e.clone());
                    false
                }
            }
        };
        shared.progress_cv.notify_all();

        if published {
            let records = std::mem::take(&mut unpublished);
            if records > 0 {
                let observer = shared.observer.lock().expect("observer poisoned").clone();
                if let Some(obs) = observer {
                    let latency = waited_since.map_or(Duration::ZERO, |at| at.elapsed());
                    obs(records, latency);
                }
            }
            let notifier = shared.notifier.lock().expect("notifier poisoned").clone();
            if let Some(notify) = notifier {
                notify(watermark);
            }
        }
    }
}

fn earliest(a: Option<Instant>, b: Instant) -> Option<Instant> {
    Some(a.map_or(b, |a| a.min(b)))
}

/// Writes the pending run of appends with one write and counts them.
fn write_run(wal: &mut Wal, run: &mut Vec<Record>, appended: &mut usize) -> Result<(), StoreError> {
    if run.is_empty() {
        return Ok(());
    }
    let first = wal.next_seq();
    wal.append_all_unsynced(run.iter())?;
    // LSN-order invariant: `append` promised each caller `next_lsn` at
    // enqueue time, which is only honest if the single-writer syncer
    // sees a dense FIFO queue — the run must occupy exactly the next
    // `run.len()` sequence numbers. Served rounds are acked off these
    // LSNs, so drift here would silently reorder acked durability.
    debug_assert_eq!(
        wal.next_seq(),
        first + run.len() as u64,
        "group-commit WAL assigned a non-dense sequence"
    );
    *appended += run.len();
    run.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalOptions;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fasea-group-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn feedback(t: u64, len: usize) -> Record {
        Record::Feedback {
            t,
            accepts: vec![t.is_multiple_of(2); len],
        }
    }

    fn open_wal(dir: &std::path::Path, fsync: FsyncPolicy) -> Wal {
        let opts = WalOptions {
            segment_bytes: u64::MAX,
            fsync,
        };
        Wal::open(dir, 7, opts).unwrap().0
    }

    #[test]
    fn batched_appends_reach_disk_identically_to_direct_appends() {
        let dir = tmp("parity");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        let mut last = 0;
        for t in 0..50u64 {
            last = group.append(feedback(t, 3)).unwrap();
            assert_eq!(last, t, "LSN must equal the Wal sequence number");
        }
        let watermark = group.wait_durable(last).unwrap();
        assert!(watermark > last);
        let wal = group.close().unwrap();
        drop(wal);

        let dir2 = tmp("parity-direct");
        let mut direct = open_wal(&dir2, FsyncPolicy::Always);
        for t in 0..50u64 {
            direct.append(&feedback(t, 3)).unwrap();
        }
        drop(direct);

        let (grouped, _, torn_a) = crate::wal::scan(&dir, 7).unwrap();
        let (directly, _, torn_b) = crate::wal::scan(&dir2, 7).unwrap();
        assert_eq!(torn_a, None);
        assert_eq!(torn_b, None);
        assert_eq!(grouped, directly, "grouped and direct logs diverge");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn maintenance_tasks_are_ordered_with_appends() {
        let dir = tmp("maintenance");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Never));
        for t in 0..10u64 {
            group.append(feedback(t, 2)).unwrap();
        }
        group.rotate().unwrap();
        let marker_lsn = group
            .append(Record::SnapshotMarker { snapshot_seq: 10 })
            .unwrap();
        assert_eq!(marker_lsn, 10);
        group.compact_below(10).unwrap();
        group.sync_barrier().unwrap();
        // After the barrier everything is on disk and the first segment
        // (records 0..10) is gone.
        assert!(group.durable_lsn() > marker_lsn);
        let (records, _, _) = crate::wal::scan(&dir, 7).unwrap();
        assert_eq!(records.len(), 1, "compaction kept old records");
        assert!(matches!(
            records[0].1,
            Record::SnapshotMarker { snapshot_seq: 10 }
        ));
        let wal = group.close().unwrap();
        assert_eq!(wal.next_seq(), 11);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_drains_the_queue_and_joins_the_syncer() {
        let dir = tmp("drain");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::EveryN(16)));
        // Other tests spawn/close syncers concurrently, so only a lower
        // bound is stable here.
        assert!(live_commit_syncers() >= 1);
        for t in 0..100u64 {
            group.append(feedback(t, 1)).unwrap();
        }
        // No waiting: close must still land all 100 records.
        let wal = group.close().unwrap();
        assert_eq!(wal.next_seq(), 100);
        drop(wal);
        let (records, _, _) = crate::wal::scan(&dir, 7).unwrap();
        assert_eq!(records.len(), 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appenders_get_distinct_ordered_lsns() {
        let dir = tmp("concurrent");
        let group = Arc::new(GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Never)));
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let g = Arc::clone(&group);
            handles.push(std::thread::spawn(move || {
                let mut lsns = Vec::new();
                for i in 0..25u64 {
                    lsns.push(g.append(feedback(worker * 100 + i, 1)).unwrap());
                }
                lsns
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..100).collect();
        assert_eq!(all, expect, "LSNs must be dense and unique");
        group.wait_durable(99).unwrap();
        let group = Arc::try_unwrap(group).expect("sole owner");
        let wal = group.close().unwrap();
        // On-disk sequence numbers are the assigned LSNs, gap-free.
        assert_eq!(wal.next_seq(), 100);
        drop(wal);
        let (records, _, _) = crate::wal::scan(&dir, 7).unwrap();
        for (i, (seq, _)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observer_and_notifier_fire_with_consistent_values() {
        let dir = tmp("observer");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        let batched = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicU64::new(0));
        let b = Arc::clone(&batched);
        group.set_commit_observer(Some(Arc::new(move |n, _latency| {
            b.fetch_add(n, Ordering::SeqCst);
        })));
        let hw = Arc::clone(&high_water);
        group.set_commit_notifier(Some(Arc::new(move |durable| {
            hw.fetch_max(durable, Ordering::SeqCst);
        })));
        let mut last = 0;
        for t in 0..40u64 {
            last = group.append(feedback(t, 2)).unwrap();
        }
        group.wait_durable(last).unwrap();
        assert_eq!(batched.load(Ordering::SeqCst), 40);
        assert!(high_water.load(Ordering::SeqCst) >= 40);
        group.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Observer calls and the records they reported, as counters.
    fn counting_observer(group: &GroupCommitWal) -> (Arc<AtomicUsize>, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let records = Arc::new(AtomicUsize::new(0));
        let (c, r) = (Arc::clone(&calls), Arc::clone(&records));
        group.set_commit_observer(Some(Arc::new(move |n, _latency| {
            c.fetch_add(1, Ordering::SeqCst);
            r.fetch_add(n, Ordering::SeqCst);
        })));
        (calls, records)
    }

    /// Waits until the syncer has taken everything queued, then gives
    /// it time to finish writing the batch.
    fn let_syncer_settle(group: &GroupCommitWal) {
        while group.queued() > 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn unawaited_appends_move_no_watermark_fsync_nothing_and_stay_unobserved() {
        let dir = tmp("unawaited");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        let (calls, _) = counting_observer(&group);
        let notified = Arc::new(AtomicUsize::new(0));
        let n = Arc::clone(&notified);
        group.set_commit_notifier(Some(Arc::new(move |_| {
            n.fetch_add(1, Ordering::SeqCst);
        })));
        for t in 0..5u64 {
            assert_eq!(group.append_unawaited(feedback(t, 2)).unwrap(), t);
            let_syncer_settle(&group);
        }
        assert_eq!(group.durable_lsn(), 0, "watermark moved");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "observer fired");
        assert_eq!(notified.load(Ordering::SeqCst), 0, "notifier fired");
        // Written but never fsynced: the only fsync is close's.
        let wal = group.close().unwrap();
        assert_eq!(wal.fsyncs(), 1);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_awaited_append_publishes_unawaited_ones_in_one_fsync() {
        let dir = tmp("carried");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        let (calls, records) = counting_observer(&group);
        for t in 0..4u64 {
            group.append_unawaited(feedback(t, 2)).unwrap();
        }
        let_syncer_settle(&group);
        let awaited = group.append(feedback(4, 2)).unwrap();
        assert_eq!(group.wait_durable(awaited).unwrap(), 5);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one published batch");
        assert_eq!(records.load(Ordering::SeqCst), 5, "batch counts all five");
        let wal = group.close().unwrap();
        assert_eq!(wal.fsyncs(), 1, "one fsync covers all five records");
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wait_durable_on_an_unawaited_record_forces_the_sync() {
        let dir = tmp("forced");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        let (calls, records) = counting_observer(&group);
        let mut last = 0;
        for t in 0..3u64 {
            last = group.append_unawaited(feedback(t, 2)).unwrap();
        }
        // Nothing else is coming: the wait alone must publish.
        assert_eq!(group.wait_durable(last).unwrap(), 3);
        assert_eq!(group.durable_lsn(), 3);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(records.load(Ordering::SeqCst), 3);
        // Waiting on an earlier one now returns at once.
        assert_eq!(group.wait_durable(0).unwrap(), 3);
        let wal = group.close().unwrap();
        assert_eq!(wal.fsyncs(), 1);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_leaves_unawaited_records_on_disk() {
        let dir = tmp("unawaited-close");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        for t in 0..4u64 {
            group.append_unawaited(feedback(t, 3)).unwrap();
        }
        let wal = group.close().unwrap();
        assert_eq!(wal.next_seq(), 4);
        assert_eq!(wal.unsynced_records(), 0, "close left records unsynced");
        drop(wal);
        let (found, _, torn) = crate::wal::scan(&dir, 7).unwrap();
        assert_eq!(torn, None);
        let expect: Vec<(u64, Record)> = (0..4u64).map(|t| (t, feedback(t, 3))).collect();
        assert_eq!(found, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_of_an_unawaited_record_poisons() {
        let dir = tmp("unawaited-poison");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        let first = group.append(feedback(0, 2)).unwrap();
        group.wait_durable(first).unwrap();
        // No reader accepts a frame this large, so the write is refused.
        let huge = Record::Feedback {
            t: 1,
            accepts: vec![true; crate::record::MAX_PAYLOAD as usize + 1],
        };
        let lsn = group.append_unawaited(huge).unwrap();
        let err = group.wait_durable(lsn).unwrap_err();
        assert!(
            matches!(err, StoreError::Io { kind, .. } if kind == std::io::ErrorKind::InvalidInput),
            "{err:?}"
        );
        assert_eq!(group.durable_lsn(), 1, "the failed record was published");
        assert_eq!(group.error(), Some(err.clone()));
        assert_eq!(group.append(feedback(2, 2)).unwrap_err(), err);
        assert_eq!(group.close().unwrap_err(), err);
        let (found, _, _) = crate::wal::scan(&dir, 7).unwrap();
        assert_eq!(found, vec![(0, feedback(0, 2))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
