//! Shard-local state, the per-shard transaction log, and the shard
//! service actor.
//!
//! Each shard owns the capacity counters of its member events, a
//! [`GroupCommitWal`] (with its dedicated syncer thread) holding only
//! transaction records, and a long-lived actor thread that serves the
//! coordinator's requests: top-k candidate queries during `propose`,
//! and the prepare/commit/abort legs of the cross-shard capacity
//! transaction during `feedback`.
//!
//! ## Two-phase transaction state machine
//!
//! A shard's log is a sequence of [`Record::TxnPrepare`] /
//! [`Record::TxnCommit`] / [`Record::TxnAbort`] records; the shard's
//! in-memory state is exactly the fold of that sequence:
//!
//! * `Prepare{txn, decs}` — the write set is staged in the prepared
//!   map. The record is made **durable before acking** (the ack is what
//!   licenses the coordinator to commit), so a committed transaction's
//!   write set can never be lost: the commit record always sits after
//!   its durable prepare in the same log.
//! * `Commit{txn}` — the staged write set is applied to the capacity
//!   counters and unstaged; for normal (non-repair) ids the
//!   `committed_below` watermark advances, which is what makes
//!   re-delivered prepares/commits of already-committed rounds no-ops.
//! * `Abort{txn}` — the staged write set is dropped.
//!
//! A prepare with no later commit or abort is **in-doubt**; the
//! coordinator resolves it on recovery from its own round log
//! ([`ShardState::resolve_in_doubt`]) and then repairs any decrements a
//! torn shard log lost outright ([`ShardState::reconcile`]).
//!
//! Shard logs are never compacted in this version — they hold two tiny
//! records per involved round, and replay is a linear fold. (The
//! coordinator's round log keeps its usual snapshot + compaction
//! machinery.)

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use fasea_bandit::subset_top_k;
use fasea_store::{FsyncPolicy, GroupCommitWal, Record, StoreError, Wal, WalOptions};

/// High bit marking a *repair* transaction id. Repair transactions
/// (written by [`ShardState::reconcile`] to re-apply decrements a torn
/// shard log lost) must never collide with round ids, and must not
/// advance the `committed_below` idempotence watermark — a repair for
/// recovery at round `t` says nothing about round `t` having committed.
pub(crate) const REPAIR_BIT: u64 = 1 << 63;

/// A request from the coordinator to one shard actor.
#[derive(Debug)]
pub(crate) enum Request {
    /// Append the shard's top-`k` candidates (by the oracle's total
    /// order) for the staged score vector.
    TopK {
        /// Ranking prefix size.
        k: usize,
    },
    /// Phase 1: stage + durably log this write set.
    Prepare {
        /// Transaction id (round index, or repair id).
        txn: u64,
        /// `(event, decrement)` pairs, ascending by event.
        decs: Vec<(u32, u32)>,
    },
    /// Phase 2: apply the staged write set.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Phase 2 alternative: drop the staged write set.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Event lifecycle re-plan: durably log and install a new remaining
    /// capacity for a member event (set-capacity semantics, already
    /// clamped by the coordinator).
    Lifecycle {
        /// Coordinator round counter when the re-plan was decided.
        t: u64,
        /// Member event id.
        event: u32,
        /// New remaining capacity.
        capacity: u32,
    },
    /// The shard's `(event, remaining)` pairs (diagnostics/tests).
    Remaining,
    /// Barrier: everything appended so far is durable on return.
    Sync,
    /// Close the shard log and exit the actor thread.
    Close,
}

/// A shard actor's answer.
#[derive(Debug)]
pub(crate) enum Reply {
    /// Top-k candidate ids, best-first.
    TopK(Vec<u32>),
    /// Outcome of a log-touching request.
    Done(Result<(), StoreError>),
    /// `(event, remaining)` pairs, ascending by event.
    Remaining(Vec<(u32, u32)>),
}

/// Mixes the coordinator's service fingerprint with the shard index so
/// a shard log can never be replayed into the wrong shard (or the
/// coordinator log into a shard). Same FNV-1a step as
/// `service_fingerprint`.
pub fn shard_fingerprint(service_fingerprint: u64, shard: usize) -> u64 {
    let mut h = service_fingerprint ^ 0x5A4D_u64;
    for b in (shard as u64).to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One shard's recovered, mutable state: member capacity counters, the
/// transaction log, and the two-phase bookkeeping. Lives on the
/// coordinator thread during open/resolve/reconcile, then moves into
/// the actor thread.
pub(crate) struct ShardState {
    /// Event ids this shard owns, ascending.
    members: Vec<u32>,
    /// Remaining capacity per member (parallel to `members`).
    remaining: Vec<u32>,
    wal: Option<GroupCommitWal>,
    /// Staged (prepared, undecided) write sets by transaction id.
    prepared: BTreeMap<u64, Vec<(u32, u32)>>,
    /// One past the highest *committed* normal transaction id: a
    /// prepare or commit for `txn < committed_below` is a re-delivered
    /// duplicate and acks as a no-op.
    committed_below: u64,
}

impl ShardState {
    /// Opens (or creates) the shard log at `dir` and folds it back into
    /// the shard state. `capacities` is the full instance capacity
    /// vector; only member entries are read.
    pub(crate) fn open(
        dir: &Path,
        fingerprint: u64,
        members: Vec<u32>,
        capacities: &[u32],
        segment_bytes: u64,
        fsync: FsyncPolicy,
    ) -> Result<ShardState, StoreError> {
        let (wal, recovered) = Wal::open(
            dir,
            fingerprint,
            WalOptions {
                segment_bytes,
                fsync,
            },
        )?;
        let remaining = members.iter().map(|&v| capacities[v as usize]).collect();
        let mut state = ShardState {
            members,
            remaining,
            wal: Some(GroupCommitWal::spawn(wal)),
            prepared: BTreeMap::new(),
            committed_below: 0,
        };
        for (seq, record) in &recovered.records {
            state.fold(*seq, record)?;
        }
        Ok(state)
    }

    /// Applies one logged record to the state (replay path). The live
    /// paths append first and then route through this same fold, so
    /// recovery is the identical state machine.
    fn fold(&mut self, seq: u64, record: &Record) -> Result<(), StoreError> {
        match record {
            Record::TxnPrepare { txn, decs } => {
                self.check_members(seq, decs)?;
                self.prepared.insert(*txn, decs.clone());
            }
            Record::TxnCommit { txn } => {
                if let Some(decs) = self.prepared.remove(txn) {
                    self.apply(&decs);
                }
                if txn & REPAIR_BIT == 0 {
                    self.committed_below = self.committed_below.max(txn + 1);
                }
            }
            Record::TxnAbort { txn } => {
                self.prepared.remove(txn);
            }
            Record::Lifecycle {
                event, capacity, ..
            } => {
                let i =
                    self.members
                        .binary_search(event)
                        .map_err(|_| StoreError::CorruptRecord {
                            seq: Some(seq),
                            what: "lifecycle record names an event this shard does not own",
                        })?;
                self.remaining[i] = *capacity;
            }
            _ => {
                return Err(StoreError::CorruptRecord {
                    seq: Some(seq),
                    what: "non-transaction record in a shard log",
                })
            }
        }
        Ok(())
    }

    fn check_members(&self, seq: u64, decs: &[(u32, u32)]) -> Result<(), StoreError> {
        for (event, _) in decs {
            if self.members.binary_search(event).is_err() {
                return Err(StoreError::CorruptRecord {
                    seq: Some(seq),
                    what: "prepare write set names an event this shard does not own",
                });
            }
        }
        Ok(())
    }

    fn apply(&mut self, decs: &[(u32, u32)]) {
        for &(event, dec) in decs {
            let i = self
                .members
                .binary_search(&event)
                .expect("write set checked against members at prepare");
            self.remaining[i] = self.remaining[i].saturating_sub(dec);
        }
    }

    fn wal(&self) -> &GroupCommitWal {
        self.wal.as_ref().expect("shard log open")
    }

    /// Phase 1. Durable before the `Ok` ack; a re-delivered prepare for
    /// an already-committed round is a no-op ack.
    pub(crate) fn prepare(&mut self, txn: u64, decs: Vec<(u32, u32)>) -> Result<(), StoreError> {
        if txn & REPAIR_BIT == 0 && txn < self.committed_below {
            return Ok(());
        }
        self.check_members(self.wal().next_lsn(), &decs)?;
        let record = Record::TxnPrepare {
            txn,
            decs: decs.clone(),
        };
        self.wal().commit(record)?;
        self.prepared.insert(txn, decs);
        Ok(())
    }

    /// Phase 2 commit. The commit record's durability may lag (it can
    /// be re-derived from the coordinator log), so this does not wait
    /// for the syncer.
    pub(crate) fn commit(&mut self, txn: u64) -> Result<(), StoreError> {
        if !self.prepared.contains_key(&txn) {
            // Re-delivered commit of an already-committed round.
            return Ok(());
        }
        let seq = self.wal().append(Record::TxnCommit { txn })?;
        self.fold(seq, &Record::TxnCommit { txn })
    }

    /// Lifecycle re-plan for a member event. Durable before the `Ok`
    /// ack — the coordinator's own `Lifecycle` record is already on
    /// disk by the time this runs, and replaying either log reproduces
    /// the same counter (set-capacity records are idempotent).
    ///
    /// Like [`ShardState::prepare`], a re-plan decided at a round this
    /// shard has already committed past is a re-delivered duplicate
    /// (the coordinator is re-running history after losing log tail)
    /// and acks as a no-op — applying it would clobber the decrements
    /// of the later rounds, which no-op on their own re-delivery.
    pub(crate) fn lifecycle(
        &mut self,
        t: u64,
        event: u32,
        capacity: u32,
    ) -> Result<(), StoreError> {
        if t < self.committed_below {
            return Ok(());
        }
        if self.members.binary_search(&event).is_err() {
            return Err(StoreError::CorruptRecord {
                seq: Some(self.wal().next_lsn()),
                what: "lifecycle record names an event this shard does not own",
            });
        }
        let record = Record::Lifecycle { t, event, capacity };
        let seq = self.wal().commit(record.clone())?;
        self.fold(seq, &record)
    }

    /// Phase 2 abort.
    pub(crate) fn abort(&mut self, txn: u64) -> Result<(), StoreError> {
        if !self.prepared.contains_key(&txn) {
            return Ok(());
        }
        let seq = self.wal().append(Record::TxnAbort { txn })?;
        self.fold(seq, &Record::TxnAbort { txn })
    }

    /// Resolves every in-doubt (prepared, undecided) transaction from
    /// the coordinator's recovered round counter: round `txn` committed
    /// iff the coordinator completed it (`txn < rounds_completed` —
    /// its `Feedback` record, the commit decision, is durable). An
    /// in-doubt *repair* transaction is always aborted: the
    /// reconciliation that wrote it re-runs right after this and
    /// recomputes the diff from scratch.
    pub(crate) fn resolve_in_doubt(&mut self, rounds_completed: u64) -> Result<(), StoreError> {
        let in_doubt: Vec<u64> = self.prepared.keys().copied().collect();
        for txn in in_doubt {
            if txn & REPAIR_BIT == 0 && txn < rounds_completed {
                self.commit(txn)?;
            } else {
                self.abort(txn)?;
            }
        }
        self.wal().sync_barrier()
    }

    /// Brings the shard's counters back in line with the coordinator's
    /// capacity mirror after in-doubt resolution.
    ///
    /// The committed watermark decides who is authoritative. If the
    /// shard committed a round whose `Feedback` record the coordinator
    /// lost (`committed_below > rounds_completed`), the shard is
    /// **ahead**: its counters embed decrements — and lifecycle
    /// re-plans, which fan out in the same order — from rounds the
    /// coordinator is about to re-run, so its counters may sit on
    /// either side of the stale mirror. Write nothing: the coordinator
    /// re-proposes identically (determinism), and the re-delivered
    /// prepares/commits/lifecycles all no-op against `committed_below`
    /// while the mirror catches up.
    ///
    /// Otherwise everything the shard's log holds belongs to rounds the
    /// coordinator already completed, so any divergence from the mirror
    /// is durably-acked work a torn shard log lost:
    ///
    /// * counter **above** the mirror — lost decrements; write one
    ///   repair transaction (prepare + commit, [`REPAIR_BIT`]-tagged
    ///   id) re-applying them, so the log stays the full history of
    ///   every counter change;
    /// * counter **below** the mirror — a lost lifecycle *raise*; write
    ///   a repair `Lifecycle` record lifting the counter back to the
    ///   mirror.
    pub(crate) fn reconcile(
        &mut self,
        mirror: &[u32],
        rounds_completed: u64,
    ) -> Result<(), StoreError> {
        if self.committed_below > rounds_completed {
            return Ok(());
        }
        let mut decs = Vec::new();
        let mut raises = Vec::new();
        for (i, &event) in self.members.iter().enumerate() {
            let expected = mirror[event as usize];
            if self.remaining[i] > expected {
                decs.push((event, self.remaining[i] - expected));
            } else if self.remaining[i] < expected {
                raises.push((event, expected));
            }
        }
        if decs.is_empty() && raises.is_empty() {
            return Ok(());
        }
        for (event, capacity) in raises {
            self.lifecycle(rounds_completed, event, capacity)?;
        }
        if !decs.is_empty() {
            let txn = REPAIR_BIT | rounds_completed;
            self.prepare(txn, decs)?;
            self.commit(txn)?;
        }
        self.wal().sync_barrier()
    }

    pub(crate) fn remaining_pairs(&self) -> Vec<(u32, u32)> {
        self.members
            .iter()
            .copied()
            .zip(self.remaining.iter().copied())
            .collect()
    }

    fn close(&mut self) -> Result<(), StoreError> {
        let wal = self.wal.take().expect("shard log open");
        let mut wal = wal.close()?;
        wal.sync()
    }
}

/// The coordinator's handle to one shard actor: the request sender, the
/// reply receiver (mutex-wrapped — replies are only read while holding
/// the coordinator's fan-out, never concurrently), and the live queue
/// depth.
pub(crate) struct ShardChannel {
    tx: Sender<Request>,
    rx: Mutex<Receiver<Reply>>,
    depth: Arc<AtomicU64>,
    /// Peak queue depth observed at fan-out since last drained by the
    /// metrics layer ([`u64::MAX`] = no sample).
    sampled_depth: AtomicU64,
}

impl ShardChannel {
    /// Moves `state` into a new actor thread and returns the channel
    /// plus the join handle.
    pub(crate) fn spawn(
        state: ShardState,
        shard: usize,
        staging: Arc<RwLock<Vec<f64>>>,
    ) -> (ShardChannel, JoinHandle<()>) {
        let (tx, req_rx) = channel::<Request>();
        let (reply_tx, rx) = channel::<Reply>();
        let depth = Arc::new(AtomicU64::new(0));
        let actor_depth = Arc::clone(&depth);
        let join = std::thread::Builder::new()
            .name(format!("fasea-shard-{shard}"))
            .spawn(move || run_actor(state, req_rx, reply_tx, staging, actor_depth))
            .expect("spawn shard actor");
        (
            ShardChannel {
                tx,
                rx: Mutex::new(rx),
                depth,
                sampled_depth: AtomicU64::new(u64::MAX),
            },
            join,
        )
    }

    /// Enqueues a request. Panics if the actor thread is gone — that
    /// only happens after `Close` or an actor panic, both of which end
    /// the service.
    pub(crate) fn send(&self, req: Request) {
        self.depth.fetch_add(1, Ordering::AcqRel);
        self.tx.send(req).expect("shard actor disconnected");
    }

    /// Receives the next reply (requests and replies are strictly
    /// paired per shard, so fan-out is send-all-then-recv-all).
    pub(crate) fn recv(&self) -> Reply {
        self.rx
            .lock()
            .expect("shard reply receiver poisoned")
            .recv()
            .expect("shard actor disconnected")
    }

    /// Folds the current queue depth into the peak sample.
    pub(crate) fn sample_depth(&self) {
        let now = self.depth.load(Ordering::Acquire);
        let prev = self.sampled_depth.load(Ordering::Relaxed);
        if prev == u64::MAX || now > prev {
            self.sampled_depth.store(now, Ordering::Relaxed);
        }
    }

    /// Drains the peak queue-depth sample (`None` if nothing was
    /// sampled since the last drain).
    pub(crate) fn take_sampled_depth(&self) -> Option<u64> {
        match self.sampled_depth.swap(u64::MAX, Ordering::Relaxed) {
            u64::MAX => None,
            d => Some(d),
        }
    }
}

fn run_actor(
    mut state: ShardState,
    rx: Receiver<Request>,
    reply: Sender<Reply>,
    staging: Arc<RwLock<Vec<f64>>>,
    depth: Arc<AtomicU64>,
) {
    let mut scratch = Vec::new();
    while let Ok(req) = rx.recv() {
        let done = matches!(req, Request::Close);
        let out = match req {
            Request::TopK { k } => {
                let scores = staging.read().expect("score staging poisoned");
                subset_top_k(&scores, &state.members, k, &mut scratch);
                Reply::TopK(scratch.clone())
            }
            Request::Prepare { txn, decs } => Reply::Done(state.prepare(txn, decs)),
            Request::Commit { txn } => Reply::Done(state.commit(txn)),
            Request::Abort { txn } => Reply::Done(state.abort(txn)),
            Request::Lifecycle { t, event, capacity } => {
                Reply::Done(state.lifecycle(t, event, capacity))
            }
            Request::Remaining => Reply::Remaining(state.remaining_pairs()),
            Request::Sync => Reply::Done(state.wal().sync_barrier()),
            Request::Close => Reply::Done(state.close()),
        };
        depth.fetch_sub(1, Ordering::AcqRel);
        if reply.send(out).is_err() || done {
            return;
        }
    }
    // Request channel dropped without Close: the coordinator was
    // dropped crash-style. The GroupCommitWal's own drop drains its
    // queue, so nothing appended is lost.
}
