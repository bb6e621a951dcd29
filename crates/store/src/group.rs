//! Group-commit pipeline over the [`Wal`](crate::wal::Wal) — the only
//! way the durable service writes its log.
//!
//! Appends and log maintenance go through one in-memory commit queue,
//! and one **commit pass** turns the queue into log writes:
//!
//! * **Front end** (any thread): [`GroupCommitWal::append`] assigns the
//!   record a monotone LSN (identical to the sequence number the `Wal`
//!   will give it), pushes it onto the queue and returns immediately.
//! * **Commit pass** (one at a time, on whichever thread runs it):
//!   takes the whole queue, writes the batch's records with one write
//!   via [`Wal::append_all_unsynced`](crate::wal::Wal::append_all_unsynced),
//!   then applies the fsync policy **once** for the batch — so N queued
//!   records share a single write + fsync syscall pair — and publishes
//!   the durability watermark.
//!
//! # Who runs the pass
//!
//! A caller that blocks on durability —
//! [`commit`](GroupCommitWal::commit),
//! [`wait_durable`](GroupCommitWal::wait_durable) or
//! [`sync_barrier`](GroupCommitWal::sync_barrier) — runs the pass itself,
//! on its own thread, whenever no pass is already running; if one is,
//! it parks until that pass ends and then looks again. So a lone
//! in-process caller pays no thread handoff: `commit` neither wakes the
//! syncer nor waits for it. The dedicated syncer thread runs the same
//! pass for work nobody blocks on: the non-blocking appends of the
//! served path, whose acknowledgements ride the
//! [`CommitNotifier`], and the snapshotter's rotation and compaction.
//!
//! The watermark [`GroupCommitWal::durable_lsn`] is a *count*: every
//! record with `lsn < durable_lsn()` has reached the durability level
//! the configured policy promises (`Always` ⇒ fsynced; `EveryN`/`Never`
//! ⇒ written to the OS). Callers that acknowledge work to the outside
//! world gate the reply on the watermark, which preserves
//! acked-implies-durable while letting the round loop run ahead of the
//! disk.
//!
//! # Records nobody waits on
//!
//! [`GroupCommitWal::append_unawaited`] enqueues a record that no
//! caller acknowledges on its own (the service's `Propose`, whose reply
//! does not wait for durability). A syncer pass holding only such
//! records writes them at once but neither fsyncs nor publishes: the
//! watermark stays put and the observer does not fire. The records ride
//! the next publishing pass — one that carries an awaited append or a
//! barrier, runs for a blocked caller, or is the final drain of
//! [`close`](GroupCommitWal::close) — and share its single fsync. So a
//! served round (`Propose` then `Feedback`) costs one fsync, and the
//! meaning of the watermark does not change.
//!
//! Maintenance operations ([`rotate`](GroupCommitWal::rotate),
//! [`compact_below`](GroupCommitWal::compact_below),
//! [`sync_barrier`](GroupCommitWal::sync_barrier)) travel through the
//! same queue, so they are totally ordered with the appends around them
//! — the asynchronous snapshotter in `fasea-sim` relies on this to
//! rotate and compact without ever touching the `Wal` outside a pass.
//!
//! # Failure model
//!
//! The first storage error poisons the pipeline, whichever thread's
//! pass hit it: the error is published to every current and future
//! caller (appends fail fast, parked waiters wake with the error), and
//! the syncer parks until closed. A failed append must poison the
//! service: the in-memory state may be ahead of the log.

use crate::record::Record;
use crate::wal::{FsyncPolicy, Wal};
use crate::StoreError;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// Observer invoked after each published pass, on the thread that ran
/// it, with `(batch_size, commit_latency)`: the number of records the
/// pass made durable (unawaited records it carried included) and the
/// latency from the oldest wait on any of them — an awaited record's
/// enqueue, a barrier, or a blocked caller's wait — to durability.
pub type CommitObserver = Arc<dyn Fn(usize, Duration) + Send + Sync>;

/// Notifier invoked whenever the durability watermark advances, on the
/// thread whose pass advanced it, with the new
/// [`GroupCommitWal::durable_lsn`] value. The serve actor installs one
/// that sends the client replies withheld until their records are
/// durable.
pub type CommitNotifier = Arc<dyn Fn(u64) + Send + Sync>;

/// One unit of ordered work for a commit pass.
enum Task {
    /// Append `record` (its LSN was assigned at enqueue time and the
    /// `Wal` will reproduce it). `awaited` is when someone began
    /// waiting on it (its enqueue), for the commit-latency observer;
    /// `None` for a record nobody waits on, which alone does not make a
    /// syncer pass publish.
    Append {
        record: Record,
        awaited: Option<Instant>,
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
    /// The previous pass's drained batch, kept for its capacity: a pass
    /// swaps it in for the queue, so steady-state passes allocate
    /// nothing.
    spare: VecDeque<Task>,
    /// The LSN the next append will receive — always equal to the
    /// `Wal`'s `next_seq` plus the queued appends.
    next_lsn: u64,
    /// Barriers enqueued / completed; a `sync_barrier` caller waits for
    /// its ticket.
    barriers_issued: u64,
    barriers_done: u64,
    /// Records written by earlier passes but not yet published
    /// (unawaited ones waiting for a pass that publishes).
    unpublished: usize,
    /// A commit pass is running; no other may start.
    committing: bool,
    /// Callers parked on `progress_cv`; a pass wakes them only if any.
    parked: usize,
    /// First storage error; poisons the pipeline.
    error: Option<StoreError>,
    shutdown: bool,
}

/// What a commit pass writes with and reports to: the log, the pass's
/// reusable run buffer and the installed hooks. Apart from installing
/// a hook, only the thread running the pass locks it (taken after
/// `state` is released, held to the end of the pass's callbacks), so
/// the lock is uncontended; `None` once [`GroupCommitWal::close`] took
/// the log.
struct Committer {
    wal: Wal,
    run: Vec<Record>,
    observer: Option<CommitObserver>,
    notifier: Option<CommitNotifier>,
}

struct Shared {
    state: Mutex<State>,
    /// Signals the syncer: work queued or shutdown requested.
    work_cv: Condvar,
    /// Signals parked callers: a pass ended (watermark advanced,
    /// barrier done, error, or the pass slot is free again).
    progress_cv: Condvar,
    /// The durability watermark (count semantics: `lsn < durable` ⇒
    /// durable per policy). Written only by a pass while holding
    /// `state`; read lock-free by anyone.
    durable: AtomicU64,
    committer: Mutex<Option<Committer>>,
}

/// A [`Wal`](crate::wal::Wal) fronted by an in-memory commit queue,
/// committed by blocked callers and a syncer thread. See the [module
/// docs](self) for the protocol.
pub struct GroupCommitWal {
    shared: Arc<Shared>,
    /// `Some` until [`close`](GroupCommitWal::close) joins it.
    syncer: Option<JoinHandle<()>>,
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
                spare: VecDeque::new(),
                next_lsn: next,
                barriers_issued: 0,
                barriers_done: 0,
                unpublished: 0,
                committing: false,
                parked: 0,
                error: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            progress_cv: Condvar::new(),
            durable: AtomicU64::new(next),
            committer: Mutex::new(Some(Committer {
                wal,
                run: Vec::new(),
                observer: None,
                notifier: None,
            })),
        });
        let for_thread = Arc::clone(&shared);
        // Counted on the spawning side so the liveness counter is
        // already accurate when `spawn` returns; the syncer's drop
        // guard decrements on exit.
        LIVE_SYNCERS.fetch_add(1, Ordering::SeqCst);
        let syncer = std::thread::Builder::new()
            .name("fasea-commit-syncer".into())
            .spawn(move || syncer_loop(&for_thread))
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

    /// Installs (or clears) the per-pass metrics observer. Waits for a
    /// running pass to finish its callbacks.
    pub fn set_commit_observer(&self, observer: Option<CommitObserver>) {
        self.with_committer(|c| c.observer = observer);
    }

    /// Installs (or clears) the watermark-advance notifier. Waits for a
    /// running pass to finish its callbacks.
    pub fn set_commit_notifier(&self, notifier: Option<CommitNotifier>) {
        self.with_committer(|c| c.notifier = notifier);
    }

    fn with_committer(&self, f: impl FnOnce(&mut Committer)) {
        let mut guard = self.shared.committer.lock().expect("committer poisoned");
        f(guard.as_mut().expect("group commit log closed"))
    }

    /// Enqueues one record for the syncer and returns its LSN — the
    /// exact sequence number the underlying `Wal` will assign. The
    /// record is **not yet durable**; acknowledge it only once
    /// [`durable_lsn`](GroupCommitWal::durable_lsn) exceeds the
    /// returned LSN. Its pass is fsynced (per policy) and published.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous pass failed.
    pub fn append(&self, record: Record) -> Result<u64, StoreError> {
        self.enqueue_append(record, Some(Instant::now()))
    }

    /// Like [`append`](GroupCommitWal::append), for a record nobody
    /// acknowledges on its own: it is written at once but made durable
    /// only with the next publishing pass (see the [module
    /// docs](self)). A [`wait_durable`](GroupCommitWal::wait_durable)
    /// on its LSN still returns once it is durable.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous pass failed.
    pub fn append_unawaited(&self, record: Record) -> Result<u64, StoreError> {
        self.enqueue_append(record, None)
    }

    /// Appends one record and blocks until it is durable, returning its
    /// LSN. The syncer is not woken: the caller runs the commit pass on
    /// its own thread (see the [module docs](self)).
    ///
    /// # Errors
    /// The pipeline's poisoning error — the record may or may not have
    /// reached disk and the caller must *not* acknowledge it.
    pub fn commit(&self, record: Record) -> Result<u64, StoreError> {
        let since = Instant::now();
        let mut st = self.lock_state();
        let lsn = push_append(&mut st, record, Some(since))?;
        self.wait_until(st, since, |st, durable| durable > lsn || st.error.is_some())?;
        Ok(lsn)
    }

    fn enqueue_append(&self, record: Record, awaited: Option<Instant>) -> Result<u64, StoreError> {
        let lsn = push_append(&mut self.lock_state(), record, awaited)?;
        self.shared.work_cv.notify_one();
        Ok(lsn)
    }

    /// Enqueues a segment rotation, ordered after everything already
    /// queued.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous pass failed.
    pub fn rotate(&self) -> Result<(), StoreError> {
        self.enqueue_maintenance(Task::Rotate)
    }

    /// Enqueues compaction of segments fully below `seq`, ordered after
    /// everything already queued.
    ///
    /// # Errors
    /// The pipeline's poisoning error, if a previous pass failed.
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
        let since = Instant::now();
        let mut st = self.lock_state();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        st.barriers_issued += 1;
        let ticket = st.barriers_issued;
        st.queue.push_back(Task::SyncBarrier { enqueued: since });
        self.wait_until(st, since, |st, _| {
            st.barriers_done >= ticket || st.error.is_some()
        })
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

    /// The pipeline's poisoning error, if any pass has failed.
    pub fn error(&self) -> Option<StoreError> {
        self.lock_state().error.clone()
    }

    /// Blocks until `lsn` is covered by the watermark (`durable_lsn() >
    /// lsn`) and returns the watermark, running the commit pass on this
    /// thread if no pass is running — which also publishes a record
    /// nobody else waits on.
    ///
    /// # Errors
    /// The pipeline's poisoning error — in that case the record may or
    /// may not have reached disk and the caller must *not* acknowledge
    /// it.
    ///
    /// # Panics
    /// If `lsn` was never handed out by an append.
    pub fn wait_durable(&self, lsn: u64) -> Result<u64, StoreError> {
        // Fast path: already covered.
        let seen = self.durable_lsn();
        if seen > lsn {
            return Ok(seen);
        }
        let st = self.lock_state();
        assert!(lsn < st.next_lsn, "wait_durable on unassigned LSN {lsn}");
        self.wait_until(st, Instant::now(), |st, durable| {
            durable > lsn || st.error.is_some()
        })?;
        Ok(self.durable_lsn())
    }

    /// The caller-runs loop behind every blocking call: until `done`
    /// holds (given the state and the watermark), run the commit pass
    /// here whenever none is running, else park until the running one
    /// ends. `since` is when the caller began waiting. Returns the
    /// pipeline's error if it is poisoned once `done` holds.
    fn wait_until<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        since: Instant,
        done: impl Fn(&State, u64) -> bool,
    ) -> Result<(), StoreError> {
        // `durable` is only stored while `state` is held, so checking it
        // under the lock cannot miss a wakeup.
        while !done(&st, self.durable_lsn()) {
            if st.committing {
                st.parked += 1;
                st = self
                    .shared
                    .progress_cv
                    .wait(st)
                    .expect("group commit state poisoned");
                st.parked -= 1;
            } else {
                commit_pass(&self.shared, st, Some(since));
                st = self.lock_state();
            }
        }
        match &st.error {
            None => Ok(()),
            Some(e) => Err(e.clone()),
        }
    }

    /// Shuts the pipeline down: the syncer drains everything still
    /// queued (unless already poisoned), publishes it — unawaited
    /// records included — with the fsync policy applied, and hands the
    /// `Wal` back for synchronous use.
    ///
    /// # Errors
    /// The pipeline's poisoning error. The `Wal` is dropped in that
    /// case — the safe continuation after a storage failure is to
    /// re-open and recover from disk, not to keep appending to a writer
    /// of unknown state.
    pub fn close(mut self) -> Result<Wal, StoreError> {
        self.join_syncer();
        if let Some(e) = self.lock_state().error.clone() {
            return Err(e);
        }
        let committer = self
            .shared
            .committer
            .lock()
            .expect("committer poisoned")
            .take()
            .expect("group commit log closed twice");
        Ok(committer.wal)
    }

    fn join_syncer(&mut self) {
        self.lock_state().shutdown = true;
        self.shared.work_cv.notify_all();
        self.syncer
            .take()
            .expect("syncer already joined")
            .join()
            .expect("commit syncer panicked");
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
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
            self.join_syncer();
        }
    }
}

/// Assigns `record` the next LSN and queues it (without waking
/// anyone).
fn push_append(
    st: &mut State,
    record: Record,
    awaited: Option<Instant>,
) -> Result<u64, StoreError> {
    if let Some(e) = &st.error {
        return Err(e.clone());
    }
    let lsn = st.next_lsn;
    st.next_lsn += 1;
    st.queue.push_back(Task::Append { record, awaited });
    Ok(lsn)
}

/// The syncer thread: runs a commit pass whenever work is queued and no
/// caller is running one; at shutdown it drains the queue and publishes
/// whatever is still unpublished before returning.
fn syncer_loop(shared: &Shared) {
    struct LiveGuard;
    impl Drop for LiveGuard {
        fn drop(&mut self) {
            LIVE_SYNCERS.fetch_sub(1, Ordering::SeqCst);
        }
    }
    // The matching increment happened in `GroupCommitWal::spawn`.
    let _live = LiveGuard;

    let mut st = shared.state.lock().expect("group commit state poisoned");
    loop {
        if st.error.is_some() {
            // Poisoned: drop the queue (nothing in it was acked) and
            // park until shutdown.
            st.queue.clear();
        } else if !st.committing && (!st.queue.is_empty() || (st.shutdown && st.unpublished > 0)) {
            commit_pass(shared, st, None);
            st = shared.state.lock().expect("group commit state poisoned");
            continue;
        }
        if st.shutdown && !st.committing {
            return;
        }
        st = shared
            .work_cv
            .wait(st)
            .expect("group commit state poisoned");
    }
}

/// One commit pass — the only code that touches the `Wal` while the
/// pipeline is open; `State::committing` keeps it exclusive. It takes
/// everything queued, writes each run of appends with one write, and —
/// when the batch holds anything someone waits on, a blocked caller
/// runs it (`caller` = when that caller began waiting), or the
/// pipeline is closing — applies the fsync policy once and publishes
/// the watermark. The syncer runs it with `caller = None`. The
/// observer and notifier run before the next pass may write, so they
/// see the watermark advance in order whichever threads ran the passes.
fn commit_pass(shared: &Shared, mut st: MutexGuard<'_, State>, caller: Option<Instant>) {
    st.committing = true;
    let closing = st.shutdown;
    let mut unpublished = st.unpublished;
    let spare = std::mem::take(&mut st.spare);
    let mut batch = std::mem::replace(&mut st.queue, spare);
    drop(st);
    let mut guard = shared.committer.lock().expect("committer poisoned");
    let Committer {
        wal,
        run,
        observer,
        notifier,
    } = guard.as_mut().expect("commit pass after close");

    // The oldest wait this pass answers, if any: its caller's, its
    // awaited appends' or its barriers'.
    let mut waited_since = caller;
    let mut barriers = 0u64;
    let mut outcome: Result<(), StoreError> = Ok(());
    for task in batch.drain(..) {
        if outcome.is_err() {
            continue;
        }
        outcome = match task {
            Task::Append { record, awaited } => {
                if let Some(enqueued) = awaited {
                    waited_since = earliest(waited_since, enqueued);
                }
                run.push(record);
                Ok(())
            }
            Task::Rotate => write_run(wal, run, &mut unpublished).and_then(|()| wal.rotate()),
            Task::CompactBelow(seq) => write_run(wal, run, &mut unpublished)
                .and_then(|()| wal.compact_below(seq).map(|_| ())),
            Task::SyncBarrier { enqueued } => {
                waited_since = earliest(waited_since, enqueued);
                write_run(wal, run, &mut unpublished).and_then(|()| {
                    wal.sync().map(|()| {
                        barriers += 1;
                    })
                })
            }
        };
    }
    if outcome.is_ok() {
        outcome = write_run(wal, run, &mut unpublished);
    }
    run.clear();
    let publish = waited_since.is_some() || closing;
    if outcome.is_ok() && publish && unpublished > 0 {
        // One policy application for the whole batch: this is the
        // group commit — N records, at most one fsync.
        outcome = wal.apply_fsync_policy();
    }
    let watermark = wal.next_seq();

    let mut st = shared.state.lock().expect("group commit state poisoned");
    st.committing = false;
    st.spare = batch;
    let published = match &outcome {
        Ok(()) if publish => {
            // `Always` reached here post-fsync; `EveryN`/`Never`
            // post-write — the per-policy durability point.
            shared.durable.store(watermark, Ordering::Release);
            st.barriers_done += barriers;
            st.unpublished = 0;
            true
        }
        Ok(()) => {
            // Only unawaited records: written, left for the next
            // publishing pass to fsync.
            st.unpublished = unpublished;
            false
        }
        Err(e) => {
            st.error = Some(e.clone());
            false
        }
    };
    let wake_parked = st.parked > 0;
    // Work queued behind a caller's pass is the syncer's to commit.
    let wake_syncer = caller.is_some() && (!st.queue.is_empty() || st.shutdown);
    drop(st);
    if wake_parked {
        shared.progress_cv.notify_all();
    }
    if wake_syncer {
        shared.work_cv.notify_one();
    }

    if published {
        if unpublished > 0 {
            if let Some(observe) = observer {
                let latency = waited_since.map_or(Duration::ZERO, |at| at.elapsed());
                observe(unpublished, latency);
            }
        }
        if let Some(notify) = notifier {
            notify(watermark);
        }
    }
    drop(guard);
}

fn earliest(a: Option<Instant>, b: Instant) -> Option<Instant> {
    Some(a.map_or(b, |a| a.min(b)))
}

/// Writes the pending run of appends with one write and counts them as
/// unpublished.
fn write_run(
    wal: &mut Wal,
    run: &mut Vec<Record>,
    unpublished: &mut usize,
) -> Result<(), StoreError> {
    if run.is_empty() {
        return Ok(());
    }
    let first = wal.next_seq();
    wal.append_all_unsynced(run.iter())?;
    // LSN-order invariant: every append was promised `next_lsn` at
    // enqueue time, which is only honest if passes are exclusive and
    // each takes a dense FIFO prefix of the queue — the run must occupy
    // exactly the next `run.len()` sequence numbers. Served rounds are
    // acked off these LSNs, so drift here would silently reorder acked
    // durability.
    debug_assert_eq!(
        wal.next_seq(),
        first + run.len() as u64,
        "group-commit WAL assigned a non-dense sequence"
    );
    *unpublished += run.len();
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

    /// Every segment file in `dir`, in name (= sequence) order, with
    /// its bytes.
    fn segment_bytes(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                (
                    p.file_name().unwrap().to_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn a_lone_blocking_append_commits_on_the_callers_thread() {
        let dir = tmp("caller-runs");
        let group = GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&ran_on);
        group.set_commit_observer(Some(Arc::new(move |n, _latency| {
            r.lock().unwrap().push((n, std::thread::current().id()));
        })));
        let me = std::thread::current().id();
        for t in 0..5u64 {
            let lsn = group.commit(feedback(t, 2)).unwrap();
            assert_eq!(lsn, t);
            assert!(group.durable_lsn() > lsn, "commit returned before durable");
        }
        // Each commit published its own record, on this thread, before
        // it returned: no pass was left to the syncer.
        assert_eq!(*ran_on.lock().unwrap(), vec![(1, me); 5]);
        let wal = group.close().unwrap();
        assert_eq!(wal.fsyncs(), 5, "one fsync per lone blocking append");
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appenders_get_distinct_ordered_lsns() {
        const PER_THREAD: u64 = 40;
        let dir = tmp("mixed");
        let group = Arc::new(GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Never)));
        let notified = Arc::new(Mutex::new(Vec::new()));
        let n = Arc::clone(&notified);
        group.set_commit_notifier(Some(Arc::new(move |durable| {
            n.lock().unwrap().push(durable);
        })));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sampler = {
            let (g, stop) = (Arc::clone(&group), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut seen = 0;
                while !stop.load(Ordering::SeqCst) {
                    let now = g.durable_lsn();
                    assert!(now >= seen, "watermark went back from {seen} to {now}");
                    seen = now;
                }
            })
        };
        // Two blocking appenders, one awaited and one unawaited deferred
        // appender; the deferred ones wait on every fifth record.
        let workers: Vec<_> = (0..4u64)
            .map(|worker| {
                let g = Arc::clone(&group);
                std::thread::spawn(move || {
                    let mut logged = Vec::new();
                    for i in 0..PER_THREAD {
                        let record = feedback(worker * 1000 + i, 1 + (i % 5) as usize);
                        let lsn = match worker {
                            0 | 1 => g.commit(record.clone()).unwrap(),
                            2 => g.append(record.clone()).unwrap(),
                            _ => g.append_unawaited(record.clone()).unwrap(),
                        };
                        if worker >= 2 && i % 5 == 4 {
                            assert!(g.wait_durable(lsn).unwrap() > lsn);
                        }
                        logged.push((lsn, record));
                    }
                    logged
                })
            })
            .collect();
        let mut logged: Vec<(u64, Record)> = workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        stop.store(true, Ordering::SeqCst);
        sampler.join().unwrap();
        logged.sort_by_key(|(lsn, _)| *lsn);
        let lsns: Vec<u64> = logged.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(
            lsns,
            (0..4 * PER_THREAD).collect::<Vec<_>>(),
            "LSNs not dense"
        );
        let group = Arc::try_unwrap(group).expect("sole owner");
        assert_eq!(group.close().unwrap().next_seq(), 4 * PER_THREAD);
        let notified = notified.lock().unwrap().clone();
        assert!(
            notified.windows(2).all(|w| w[0] <= w[1]),
            "notifier saw the watermark out of order: {notified:?}"
        );

        // The same records, one `Wal::append` each, in LSN order.
        let dir2 = tmp("mixed-direct");
        let mut direct = open_wal(&dir2, FsyncPolicy::Never);
        for (_, record) in &logged {
            direct.append(record).unwrap();
        }
        drop(direct);
        assert_eq!(segment_bytes(&dir), segment_bytes(&dir2));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn a_failed_caller_run_pass_poisons_every_waiter() {
        let dir = tmp("caller-poison");
        let group = Arc::new(GroupCommitWal::spawn(open_wal(&dir, FsyncPolicy::Always)));
        group.commit(feedback(0, 2)).unwrap();
        // Hold the log so the next pass stalls once it has started.
        let held = group.shared.committer.lock().unwrap();
        // No reader accepts a frame this large, so the write is refused.
        let huge = Record::Feedback {
            t: 1,
            accepts: vec![true; crate::record::MAX_PAYLOAD as usize + 1],
        };
        let runner = {
            let g = Arc::clone(&group);
            std::thread::spawn(move || g.commit(huge))
        };
        while !group.lock_state().committing {
            std::thread::yield_now();
        }
        // Two callers park behind the stalled pass: a deferred append
        // waited on, and a barrier.
        let appender = {
            let g = Arc::clone(&group);
            std::thread::spawn(move || {
                let lsn = g.append(feedback(2, 2))?;
                g.wait_durable(lsn)
            })
        };
        let barrier = {
            let g = Arc::clone(&group);
            std::thread::spawn(move || g.sync_barrier())
        };
        while group.lock_state().parked < 2 {
            std::thread::yield_now();
        }
        drop(held);

        let err = runner.join().unwrap().unwrap_err();
        assert!(
            matches!(err, StoreError::Io { kind, .. } if kind == std::io::ErrorKind::InvalidInput),
            "{err:?}"
        );
        assert_eq!(appender.join().unwrap().unwrap_err(), err);
        assert_eq!(barrier.join().unwrap().unwrap_err(), err);
        assert_eq!(group.durable_lsn(), 1, "the failed record was published");
        assert_eq!(group.commit(feedback(3, 2)).unwrap_err(), err);
        assert_eq!(group.append(feedback(3, 2)).unwrap_err(), err);
        let group = Arc::try_unwrap(group).expect("sole owner");
        assert_eq!(group.close().unwrap_err(), err);
        let (found, _, _) = crate::wal::scan(&dir, 7).unwrap();
        assert_eq!(found, vec![(0, feedback(0, 2))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
