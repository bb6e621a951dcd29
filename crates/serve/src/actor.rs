//! The service actor: a single thread that owns the
//! [`DurableArrangementService`] and executes commands strictly
//! sequentially, exactly as the FASEA protocol demands.
//!
//! Workers never touch the service directly — they send [`Command`]s
//! over a channel with a per-request reply sender. Round ownership is
//! brokered here: a `CLAIM` either grants a round immediately, parks
//! the claimant in a bounded FIFO (the backpressure point — a full
//! queue answers [`ErrorCode::Overloaded`]), or is refused while
//! draining. If a grant-holder disconnects, its round (including an
//! already-logged pending proposal) is re-granted to the next waiter
//! under the *same* round number.
//!
//! # Optimistic concurrent admission
//!
//! With `pipeline_depth > 1` the actor grants up to that many
//! *consecutive* rounds at once: the head grant is the round the
//! service is actually at (`rounds_completed()`), later grants carry
//! future round numbers. Clients of future rounds may send their
//! `PROPOSE` early; the actor buffers it untouched. When the head
//! round's feedback lands, the next buffered proposal is *promoted*:
//! executed against the service in strict round order, so it is scored
//! and arranged against exactly the state a depth-1 run would show it,
//! and the WAL records the exact depth-1 interleaving. Nothing is
//! scored ahead of its round: Definition 3 applies round `t`'s feedback
//! before round `t + 1` is proposed, so a score vector computed early
//! is stale whenever round `t` arranged anything. Depth therefore
//! overlaps only future rounds' network turnaround and decode with the
//! head round's work and commit wait; the actor itself stays
//! single-threaded, and the final WAL and state are bit-equal to
//! `pipeline_depth = 1` (gated by `tests/serve_end_to_end.rs`).
//!
//! # Group commit: deferred acknowledgements
//!
//! When the service runs with group commit, rounds are applied to the
//! in-memory state immediately (so the *next* round can be granted
//! while the log writes are still in flight) but the round-completing
//! `FEEDBACK_OK` reply is withheld in an [`AckQueue`] until the
//! store's `durable_lsn` watermark covers the round's last LSN — an
//! acked round still implies a durable round, exactly as in the
//! synchronous path, but N concurrent sessions now share one fsync.
//! The commit syncer flushes the queue directly from its own thread
//! via the commit notifier (no actor wake-up needed), and the actor
//! re-flushes after every push to close the race where the watermark
//! advanced between the append and the push.
//!
//! `PROPOSED` is *not* withheld: `propose` is compute-then-log (see
//! DESIGN.md §8) — a crash that loses an unacknowledged-by-fsync
//! Propose record recovers to the pre-round state and re-draws the
//! *identical* arrangement when the round is re-delivered, because the
//! policy's RNG position is restored from the log; recovery asserts
//! this bit-exactly (`RecoveryDiverged`). The propose record still
//! travels the commit queue in LSN order, so it is always durable
//! before the feedback that completes its round is acknowledged.
//! Keeping the proposal ack off the fsync keeps the fsync out of the
//! round-sequential critical path: the only durability wait left per
//! round overlaps the next round's network turnaround.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fasea_core::{ContextMatrix, UserArrival};
use fasea_sim::ServiceError;

use crate::backend::BackendService;
use crate::metrics::Metrics;
use crate::proto::{ErrorCode, Response, WireStats};

/// A command sent from a worker to the service actor. Every variant
/// carrying a `reply` is answered with exactly one [`Response`] (unless
/// the worker has already hung up, in which case the reply is dropped).
pub enum Command {
    /// Session handshake.
    Hello {
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// Request ownership of the next round.
    Claim {
        /// Session id of the claimant.
        conn: u64,
        /// When the claim left the worker (queue-wait metric).
        enqueued: Instant,
        /// Reply channel; answered when granted, refused, or draining.
        reply: Sender<Response>,
    },
    /// Give the claimed round back without proposing.
    Release {
        /// Session id.
        conn: u64,
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// Propose an arrangement for the owned round.
    Propose {
        /// Session id.
        conn: u64,
        /// The arriving user's capacity.
        user_capacity: u32,
        /// Context rows.
        num_events: u32,
        /// Context dimension.
        dim: u32,
        /// Row-major context block.
        contexts: Vec<f64>,
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// Answer the pending proposal of the owned round.
    Feedback {
        /// Session id.
        conn: u64,
        /// Accept/reject per arranged slot.
        accepts: Vec<bool>,
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// Health + metrics snapshot.
    Stats {
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// Begin a graceful drain: refuse new claims, answer parked ones
    /// with `ShuttingDown`, let in-flight rounds finish.
    Shutdown {
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// The session's connection closed; release anything it owns.
    Disconnect {
        /// Session id.
        conn: u64,
    },
}

/// What the actor thread returns once the command channel closes and
/// the service has been flushed to disk.
pub struct CloseReport {
    /// Rounds completed at close.
    pub rounds_completed: u64,
    /// Final snapshot path, if any state existed to snapshot.
    pub snapshot: Option<PathBuf>,
    /// The close-time error, if syncing or snapshotting failed.
    pub error: Option<ServiceError>,
}

struct Waiter {
    conn: u64,
    enqueued: Instant,
    reply: Sender<Response>,
}

/// A reply withheld until the group-commit watermark covers its LSN.
struct PendingAck {
    lsn: u64,
    reply: Sender<Response>,
    response: Response,
}

/// Replies awaiting durability, in LSN order (the actor is the only
/// pusher and its LSNs are monotone). Shared with the commit syncer,
/// which flushes it from the commit notifier the moment a batch's
/// watermark is published — client acks ride the fsync that made them
/// durable instead of waiting for the actor's next poll tick.
struct AckQueue {
    inner: Mutex<VecDeque<PendingAck>>,
}

impl AckQueue {
    fn new() -> Self {
        AckQueue {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, lsn: u64, reply: Sender<Response>, response: Response) {
        self.inner
            .lock()
            .expect("ack queue poisoned")
            .push_back(PendingAck {
                lsn,
                reply,
                response,
            });
    }

    /// Sends every withheld reply whose record the watermark covers
    /// (count semantics: `lsn < durable`).
    fn flush(&self, durable: u64) {
        let mut q = self.inner.lock().expect("ack queue poisoned");
        while q.front().is_some_and(|p| p.lsn < durable) {
            let p = q.pop_front().expect("non-empty after front check");
            let _ = p.reply.send(p.response);
        }
    }

    /// Answers every still-withheld reply with a typed error; used when
    /// the commit pipeline fails and the records will never be durable.
    fn fail_all(&self, code: ErrorCode, detail: &str) {
        let mut q = self.inner.lock().expect("ack queue poisoned");
        for p in q.drain(..) {
            let _ = p.reply.send(Response::Error {
                code,
                detail: detail.to_string(),
            });
        }
    }
}

/// One granted in-flight round. Grants are held in round order; the
/// front grant is the round the service will execute next.
struct Grant {
    /// The session holding the grant; `None` after a release or
    /// disconnect until the slot is re-granted (the round number is
    /// already promised, so the slot survives its holder).
    conn: Option<u64>,
    /// The round number promised to the holder.
    t: u64,
    /// An early `PROPOSE` for a future round, executed at promotion.
    buffered: Option<BufferedPropose>,
}

/// A `PROPOSE` that arrived before its round became the head round.
struct BufferedPropose {
    user: UserArrival,
    reply: Sender<Response>,
}

/// The actor state machine. Owns the durable service for its lifetime.
pub struct ServiceActor {
    svc: BackendService,
    rx: Receiver<Command>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    max_inflight: usize,
    poll_interval: Duration,
    /// Maximum concurrently granted rounds (1 = sequential admission).
    pipeline_depth: usize,
    /// Granted in-flight rounds, in round order (head first).
    grants: VecDeque<Grant>,
    /// Workspace model-tier counters already drained into the metrics.
    tier_seen: fasea_bandit::ModelTierStats,
    waiters: VecDeque<Waiter>,
    /// Set once a store-level failure makes further writes unsafe.
    poisoned: bool,
    /// Replies withheld until their LSN is durable (group commit only).
    acks: Arc<AckQueue>,
    /// Request an async snapshot every this many completed rounds.
    snapshot_every: Option<u64>,
    /// Event lifecycle schedule, applied (and durably logged) before a
    /// round is granted to a claimant.
    churn: fasea_core::ChurnSchedule,
    /// One past the last round whose churn actions were applied in this
    /// process life (earlier rounds' records replay from the WAL).
    churn_applied_through: u64,
}

fn error_response(code: ErrorCode, detail: impl Into<String>) -> Response {
    Response::Error {
        code,
        detail: detail.into(),
    }
}

/// Maps a service-level failure onto its wire error code.
pub fn service_error_code(err: &ServiceError) -> ErrorCode {
    match err {
        ServiceError::FeedbackPending => ErrorCode::FeedbackPending,
        ServiceError::NoPendingProposal => ErrorCode::NoPendingProposal,
        ServiceError::FeedbackLengthMismatch { .. } => ErrorCode::FeedbackLengthMismatch,
        ServiceError::ContextShapeMismatch => ErrorCode::ContextShapeMismatch,
        ServiceError::PolicyProducedInfeasible(_) => ErrorCode::PolicyInfeasible,
        _ => ErrorCode::StoreFailure,
    }
}

fn is_store_failure(err: &ServiceError) -> bool {
    service_error_code(err) == ErrorCode::StoreFailure
}

impl ServiceActor {
    /// Builds the actor. `shutdown` is shared with the server: the
    /// actor observes it to drain, and raises it itself on fatal store
    /// errors or a `SHUTDOWN` request. `snapshot_every` requests an
    /// asynchronous snapshot every that many completed rounds.
    ///
    /// With group commit enabled this hooks the commit syncer: the
    /// notifier flushes deferred acks as each batch becomes durable,
    /// and the observer feeds the `fsync_batch_size` /
    /// `commit_latency_us` histograms.
    ///
    /// `pipeline_depth` bounds concurrently granted rounds (clamped to
    /// at least 1; 1 reproduces the strictly sequential admission).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        svc: impl Into<BackendService>,
        rx: Receiver<Command>,
        metrics: Arc<Metrics>,
        shutdown: Arc<AtomicBool>,
        max_inflight: usize,
        poll_interval: Duration,
        pipeline_depth: usize,
        snapshot_every: Option<u64>,
        churn: fasea_core::ChurnSchedule,
    ) -> Self {
        let svc = svc.into();
        let acks = Arc::new(AckQueue::new());
        if svc.group_commit_enabled() {
            let for_notifier = Arc::clone(&acks);
            svc.set_commit_notifier(Some(Arc::new(move |durable| {
                for_notifier.flush(durable);
            })));
            let for_observer = Arc::clone(&metrics);
            svc.set_commit_observer(Some(Arc::new(move |batch, latency| {
                for_observer.fsync_batch_size.observe_value(batch as u64);
                for_observer.commit_latency_us.observe(latency);
            })));
        }
        ServiceActor {
            svc,
            rx,
            metrics,
            shutdown,
            max_inflight: max_inflight.max(1),
            poll_interval,
            pipeline_depth: pipeline_depth.max(1),
            grants: VecDeque::new(),
            tier_seen: fasea_bandit::ModelTierStats::default(),
            waiters: VecDeque::new(),
            poisoned: false,
            acks,
            snapshot_every: snapshot_every.filter(|&n| n > 0),
            churn,
            churn_applied_through: 0,
        }
    }

    /// Runs until every command sender is gone, then flushes and
    /// snapshots the service.
    pub fn run(mut self) -> CloseReport {
        loop {
            match self.rx.recv_timeout(self.poll_interval) {
                Ok(cmd) => self.handle(cmd),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if self.draining() {
                self.refuse_waiters();
            } else {
                self.grant_next();
            }
        }
        self.refuse_waiters();
        self.settle_acks();
        let rounds_completed = self.svc.rounds_completed();
        match self.svc.close() {
            Ok(snapshot) => CloseReport {
                rounds_completed,
                snapshot,
                error: None,
            },
            Err(err) => CloseReport {
                rounds_completed,
                snapshot: None,
                error: Some(err),
            },
        }
    }

    fn draining(&self) -> bool {
        self.poisoned || self.shutdown.load(Ordering::SeqCst)
    }

    /// Resolves every still-deferred reply before the service closes:
    /// force one last sync so the watermark covers everything appended,
    /// then flush; if even that fails, the records were lost and the
    /// withheld replies become typed store errors (never false acks).
    fn settle_acks(&mut self) {
        match self.svc.sync() {
            Ok(()) => self.acks.flush(self.svc.durable_lsn()),
            Err(_) => {
                self.acks.flush(self.svc.durable_lsn());
                self.acks.fail_all(
                    ErrorCode::StoreFailure,
                    "commit pipeline failed before this round reached disk",
                );
            }
        }
    }

    /// Kicks off a background snapshot at the configured round cadence.
    fn maybe_snapshot(&mut self) {
        let Some(every) = self.snapshot_every else {
            return;
        };
        let rounds = self.svc.rounds_completed();
        if rounds > 0 && rounds.is_multiple_of(every) {
            if let Err(err) = self.svc.snapshot_async() {
                if is_store_failure(&err) {
                    self.poisoned = true;
                    self.shutdown.store(true, Ordering::SeqCst);
                }
            }
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Hello { reply } => {
                let health = self.svc.health();
                let _ = reply.send(Response::HelloOk {
                    fingerprint: health.fingerprint,
                    num_events: self.svc.service().instance().num_events() as u32,
                    dim: self.svc.service().instance().dim() as u32,
                    rounds_completed: health.rounds_completed,
                    has_pending: health.has_pending,
                });
            }
            Command::Claim {
                conn,
                enqueued,
                reply,
            } => self.handle_claim(conn, enqueued, reply),
            Command::Release { conn, reply } => {
                let Some(idx) = self.grant_index(conn) else {
                    self.metrics.protocol_errors.incr();
                    let _ = reply.send(error_response(
                        ErrorCode::NotRoundOwner,
                        "RELEASE from a session that does not own a round",
                    ));
                    return;
                };
                // The round number was promised, so the slot stays and
                // is re-granted to the next waiter under the same `t`.
                self.grants[idx].conn = None;
                self.grants[idx].buffered = None;
                self.metrics.releases.incr();
                let _ = reply.send(Response::ReleaseOk);
            }
            Command::Propose {
                conn,
                user_capacity,
                num_events,
                dim,
                contexts,
                reply,
            } => self.handle_propose(conn, user_capacity, num_events, dim, contexts, reply),
            Command::Feedback {
                conn,
                accepts,
                reply,
            } => self.handle_feedback(conn, &accepts, reply),
            Command::Stats { reply } => {
                self.metrics.stats_requests.incr();
                let _ = reply.send(Response::StatsOk(self.wire_stats()));
            }
            Command::Shutdown { reply } => {
                self.shutdown.store(true, Ordering::SeqCst);
                let _ = reply.send(Response::ShutdownOk);
            }
            Command::Disconnect { conn } => {
                self.waiters.retain(|w| w.conn != conn);
                for g in self.grants.iter_mut().filter(|g| g.conn == Some(conn)) {
                    g.conn = None;
                    // A buffered proposal dies with its connection: it
                    // was never executed against the service, so the
                    // round is simply re-granted un-proposed.
                    g.buffered = None;
                    self.metrics.reassigned_rounds.incr();
                }
            }
        }
    }

    fn handle_claim(&mut self, conn: u64, enqueued: Instant, reply: Sender<Response>) {
        if self.draining() {
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::ShuttingDown,
                "server is draining",
            ));
            return;
        }
        if self.grant_index(conn).is_some() {
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::Internal,
                "CLAIM from a session that already holds a round",
            ));
            return;
        }
        self.metrics.claims.incr();
        if self.waiters.len() >= self.max_inflight {
            self.metrics.overloaded.incr();
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::Overloaded,
                format!("claim queue full ({} waiting)", self.waiters.len()),
            ));
            return;
        }
        self.waiters.push_back(Waiter {
            conn,
            enqueued,
            reply,
        });
        self.grant_next();
    }

    /// Applies round `t`'s lifecycle actions, exactly once per round
    /// per process life. Skipped while a proposal is pending (the
    /// actions already ran before that propose was logged); re-applied
    /// records after a crash are idempotent set-capacity writes.
    fn apply_churn(&mut self, t: u64) {
        if self.churn_applied_through > t || self.svc.pending_arrangement().is_some() {
            return;
        }
        self.churn_applied_through = t + 1;
        let actions = self.churn.actions_at(t).to_vec();
        for a in actions {
            if let Err(err) = self.svc.lifecycle(a.event, a.capacity) {
                if is_store_failure(&err) {
                    self.poisoned = true;
                    self.shutdown.store(true, Ordering::SeqCst);
                }
                return;
            }
        }
    }

    /// The grant slot `conn` currently holds, if any.
    fn grant_index(&self, conn: u64) -> Option<usize> {
        self.grants.iter().position(|g| g.conn == Some(conn))
    }

    /// Hands rounds to the oldest live waiters: vacated slots first
    /// (their round numbers are already promised), then fresh future
    /// rounds while fewer than `pipeline_depth` grants are out.
    fn grant_next(&mut self) {
        loop {
            let base = self.svc.rounds_completed();
            let slot_t = if let Some(g) = self.grants.iter().find(|g| g.conn.is_none()) {
                g.t
            } else if self.grants.len() < self.pipeline_depth {
                self.grants.back().map_or(base, |g| g.t + 1)
            } else {
                return;
            };
            let Some(w) = self.waiters.pop_front() else {
                return;
            };
            self.metrics.queue_wait_us.observe(w.enqueued.elapsed());
            // Only the head round can have service-side state attached:
            // churn is applied (and logged) when its round activates,
            // and a recovered/reassigned pending proposal is handed to
            // the new holder. Future rounds are granted bare.
            let pending = if slot_t == base {
                self.apply_churn(slot_t);
                self.svc
                    .pending_arrangement()
                    .map(|a| a.events().iter().map(|v| v.index() as u32).collect())
            } else {
                None
            };
            if w.reply
                .send(Response::Claimed { t: slot_t, pending })
                .is_ok()
            {
                if let Some(g) = self
                    .grants
                    .iter_mut()
                    .find(|g| g.conn.is_none() && g.t == slot_t)
                {
                    g.conn = Some(w.conn);
                } else {
                    self.grants.push_back(Grant {
                        conn: Some(w.conn),
                        t: slot_t,
                        buffered: None,
                    });
                }
                self.metrics
                    .pipeline_depth
                    .observe_value(self.grants.len() as u64);
            }
            // A dead reply channel means the claimant's worker already
            // hung up — fall through and try the next waiter.
        }
    }

    fn refuse_waiters(&mut self) {
        for w in self.waiters.drain(..) {
            self.metrics.protocol_errors.incr();
            let _ = w.reply.send(error_response(
                ErrorCode::ShuttingDown,
                "server is draining",
            ));
        }
    }

    fn handle_propose(
        &mut self,
        conn: u64,
        user_capacity: u32,
        num_events: u32,
        dim: u32,
        contexts: Vec<f64>,
        reply: Sender<Response>,
    ) {
        let Some(idx) = self.grant_index(conn) else {
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::NotRoundOwner,
                "PROPOSE from a session that does not own a round",
            ));
            return;
        };
        let instance = self.svc.service().instance();
        if num_events as usize != instance.num_events()
            || dim as usize != instance.dim()
            || contexts.len() != (num_events as usize) * (dim as usize)
        {
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::ContextShapeMismatch,
                format!(
                    "context block is {num_events}x{dim}, instance is {}x{}",
                    instance.num_events(),
                    instance.dim()
                ),
            ));
            return;
        }
        let user = UserArrival::new(
            user_capacity,
            ContextMatrix::from_rows(num_events as usize, dim as usize, contexts),
        );
        if idx == 0 {
            // Head round: execute now, exactly as sequential admission.
            self.apply_churn(self.grants[0].t);
            self.execute_propose(user, reply);
            return;
        }
        // Future round: buffer for in-order promotion. Double-propose
        // on the same grant mirrors the head's FeedbackPending error.
        if self.grants[idx].buffered.is_some() {
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::FeedbackPending,
                format!(
                    "round {} already has a buffered proposal",
                    self.grants[idx].t
                ),
            ));
            return;
        }
        self.grants[idx].buffered = Some(BufferedPropose { user, reply });
    }

    /// Executes a proposal for the head round and replies. Shared by
    /// the direct head-propose path and buffered-proposal promotion.
    fn execute_propose(&mut self, user: UserArrival, reply: Sender<Response>) {
        let t = self.svc.rounds_completed();
        let started = Instant::now();
        if self.svc.group_commit_enabled() {
            match self.svc.propose_deferred(&user) {
                Ok((arrangement, _lsn)) => {
                    self.metrics.propose_us.observe(started.elapsed());
                    self.metrics.proposes.incr();
                    self.svc.drain_shard_metrics(&self.metrics);
                    // Replied immediately: compute-then-log makes an
                    // undurable Propose harmless (recovery re-draws it
                    // identically), and its LSN precedes the feedback
                    // LSN this round's completion ack will wait on.
                    let _ = reply.send(Response::Proposed {
                        t,
                        arrangement: arrangement
                            .events()
                            .iter()
                            .map(|v| v.index() as u32)
                            .collect(),
                    });
                }
                Err(err) => self.reply_service_error(err, &reply),
            }
            return;
        }
        match self.svc.propose(&user) {
            Ok(arrangement) => {
                self.metrics.propose_us.observe(started.elapsed());
                self.metrics.proposes.incr();
                self.svc.drain_shard_metrics(&self.metrics);
                let _ = reply.send(Response::Proposed {
                    t,
                    arrangement: arrangement
                        .events()
                        .iter()
                        .map(|v| v.index() as u32)
                        .collect(),
                });
            }
            Err(err) => self.reply_service_error(err, &reply),
        }
    }

    /// Folds newly accumulated workspace model-tier counters (cohort
    /// select hits, sketch promotions) into the serving metrics. Stays
    /// all-zero for policies without a backing estimator store.
    fn drain_model_tier_metrics(&mut self) {
        let s = self.svc.model_tier_stats();
        self.metrics
            .cohort_hits
            .add(s.cohort_hits - self.tier_seen.cohort_hits);
        self.metrics
            .sketch_promotions
            .add(s.sketch_promotions - self.tier_seen.sketch_promotions);
        self.tier_seen = s;
    }

    /// After the head round completed: if the next grant already sent
    /// its proposal, execute it now — in round order, which is what
    /// keeps the WAL bit-equal to sequential admission.
    fn promote_buffered(&mut self) {
        let Some(head) = self.grants.front_mut() else {
            return;
        };
        let Some(b) = head.buffered.take() else {
            return;
        };
        let t = head.t;
        self.apply_churn(t);
        self.execute_propose(b.user, b.reply);
    }

    /// Withholds `response` until `lsn` is durable. The push-then-flush
    /// order closes the race against the syncer: the entry is either
    /// flushed here (watermark already advanced) or by a later notifier
    /// call — never stranded, never sent twice (the queue pops under
    /// one lock).
    fn defer_ack(&mut self, lsn: u64, reply: Sender<Response>, response: Response) {
        self.acks.push(lsn, reply, response);
        self.acks.flush(self.svc.durable_lsn());
    }

    fn handle_feedback(&mut self, conn: u64, accepts: &[bool], reply: Sender<Response>) {
        let Some(idx) = self.grant_index(conn) else {
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::NotRoundOwner,
                "FEEDBACK from a session that does not own a round",
            ));
            return;
        };
        if idx != 0 {
            // Only the head round can have a pending proposal in the
            // service; a future-round holder has nothing to answer yet.
            self.metrics.protocol_errors.incr();
            let _ = reply.send(error_response(
                ErrorCode::NoPendingProposal,
                format!("round {} is not yet active", self.grants[idx].t),
            ));
            return;
        }
        let t = self.svc.rounds_completed();
        let started = Instant::now();
        if self.svc.group_commit_enabled() {
            match self.svc.feedback_deferred(accepts) {
                Ok((reward, lsn)) => {
                    self.metrics.feedback_us.observe(started.elapsed());
                    self.metrics.feedbacks.incr();
                    self.svc.drain_shard_metrics(&self.metrics);
                    self.drain_model_tier_metrics();
                    // The round is complete in memory: retire its grant
                    // *now* so the next round proceeds while this
                    // round's records are still being fsynced — the
                    // pipelining that lets N sessions share one fsync.
                    self.grants.pop_front();
                    self.defer_ack(lsn, reply, Response::FeedbackOk { t, reward });
                    self.maybe_snapshot();
                    self.promote_buffered();
                }
                Err(err) => self.reply_service_error(err, &reply),
            }
            return;
        }
        match self.svc.feedback(accepts) {
            Ok(reward) => {
                self.metrics.feedback_us.observe(started.elapsed());
                self.metrics.feedbacks.incr();
                self.svc.drain_shard_metrics(&self.metrics);
                self.drain_model_tier_metrics();
                self.grants.pop_front();
                let _ = reply.send(Response::FeedbackOk { t, reward });
                self.maybe_snapshot();
                self.promote_buffered();
            }
            Err(err) => self.reply_service_error(err, &reply),
        }
    }

    /// Replies with the typed wire error for `err`; a store-level
    /// failure additionally poisons the actor and raises the shutdown
    /// flag, since the WAL can no longer be trusted to advance.
    fn reply_service_error(&mut self, err: ServiceError, reply: &Sender<Response>) {
        self.metrics.protocol_errors.incr();
        if is_store_failure(&err) {
            self.poisoned = true;
            self.shutdown.store(true, Ordering::SeqCst);
            // Whatever the watermark already covers is genuinely
            // durable and may still be acked; everything behind the
            // failure never will be — fail those now rather than let
            // the sessions time out.
            self.acks.flush(self.svc.durable_lsn());
            self.acks.fail_all(
                ErrorCode::StoreFailure,
                "commit pipeline failed before this round reached disk",
            );
        }
        let _ = reply.send(error_response(service_error_code(&err), err.to_string()));
    }

    fn wire_stats(&self) -> WireStats {
        let health = self.svc.health();
        WireStats {
            fingerprint: health.fingerprint,
            rounds_completed: health.rounds_completed,
            total_arranged: health.total_arranged,
            total_rewards: health.total_rewards,
            available_events: health.available_events as u32,
            has_pending: health.has_pending,
            next_seq: health.next_seq,
            counters: self.metrics.wire_counters(),
            histograms: self.metrics.wire_histograms(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_bandit::LinUcb;
    use fasea_core::ProblemInstance;
    use fasea_sim::{DurableArrangementService, DurableOptions};
    use fasea_store::FsyncPolicy;
    use std::sync::mpsc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fasea-serve-actor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spawn_actor(
        tag: &str,
    ) -> (
        Sender<Command>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<CloseReport>,
    ) {
        spawn_actor_with(tag, DurableOptions::new().with_fsync(FsyncPolicy::Never), 1)
    }

    fn spawn_actor_with(
        tag: &str,
        options: DurableOptions,
        pipeline_depth: usize,
    ) -> (
        Sender<Command>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<CloseReport>,
    ) {
        let dir = temp_dir(tag);
        let instance = ProblemInstance::basic(4, 2);
        let svc = DurableArrangementService::open(
            &dir,
            instance,
            Box::new(LinUcb::new(2, 1.0, 2.0)),
            options,
        )
        .unwrap();
        let (tx, rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let actor = ServiceActor::new(
            svc,
            rx,
            Arc::new(Metrics::default()),
            Arc::clone(&shutdown),
            2,
            Duration::from_millis(10),
            pipeline_depth,
            None,
            fasea_core::ChurnSchedule::none(),
        );
        let handle = std::thread::spawn(move || actor.run());
        (tx, shutdown, handle)
    }

    fn rpc(tx: &Sender<Command>, build: impl FnOnce(Sender<Response>) -> Command) -> Response {
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(build(reply_tx)).unwrap();
        reply_rx.recv_timeout(Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn claim_propose_feedback_cycle_and_ownership() {
        let (tx, _shutdown, handle) = spawn_actor("cycle");
        let granted = rpc(&tx, |reply| Command::Claim {
            conn: 1,
            enqueued: Instant::now(),
            reply,
        });
        assert_eq!(
            granted,
            Response::Claimed {
                t: 0,
                pending: None
            }
        );
        // A stranger may not propose.
        let resp = rpc(&tx, |reply| Command::Propose {
            conn: 2,
            user_capacity: 1,
            num_events: 4,
            dim: 2,
            contexts: vec![0.5; 8],
            reply,
        });
        assert!(
            matches!(&resp, Response::Error { code, .. } if *code == ErrorCode::NotRoundOwner),
            "{resp:?}"
        );
        // The owner proposes and answers feedback.
        let resp = rpc(&tx, |reply| Command::Propose {
            conn: 1,
            user_capacity: 1,
            num_events: 4,
            dim: 2,
            contexts: vec![0.5; 8],
            reply,
        });
        let arrangement = match resp {
            Response::Proposed { t: 0, arrangement } => arrangement,
            other => panic!("{other:?}"),
        };
        let resp = rpc(&tx, |reply| Command::Feedback {
            conn: 1,
            accepts: vec![true; arrangement.len()],
            reply,
        });
        assert!(
            matches!(resp, Response::FeedbackOk { t: 0, .. }),
            "{resp:?}"
        );
        drop(tx);
        let report = handle.join().unwrap();
        assert_eq!(report.rounds_completed, 1);
        assert!(report.error.is_none());
        assert!(report.snapshot.is_some());
    }

    #[test]
    fn group_commit_defers_acks_until_durable() {
        let (tx, _shutdown, handle) = spawn_actor_with(
            "group-acks",
            DurableOptions::new()
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(true),
            1,
        );
        // Rounds still ack in order and carry the right round indices;
        // each blocking rpc() below only returns once the commit syncer
        // (or the actor's own flush) released the deferred reply, so
        // completing all of them proves acks are never stranded.
        for t in 0..5u64 {
            let granted = rpc(&tx, |reply| Command::Claim {
                conn: 1,
                enqueued: Instant::now(),
                reply,
            });
            assert!(matches!(granted, Response::Claimed { .. }), "{granted:?}");
            let resp = rpc(&tx, |reply| Command::Propose {
                conn: 1,
                user_capacity: 1,
                num_events: 4,
                dim: 2,
                contexts: vec![0.5; 8],
                reply,
            });
            let arrangement = match resp {
                Response::Proposed {
                    t: got,
                    arrangement,
                } if got == t => arrangement,
                other => panic!("{other:?}"),
            };
            let resp = rpc(&tx, |reply| Command::Feedback {
                conn: 1,
                accepts: vec![true; arrangement.len()],
                reply,
            });
            assert!(
                matches!(&resp, Response::FeedbackOk { t: got, .. } if *got == t),
                "{resp:?}"
            );
        }
        drop(tx);
        let report = handle.join().unwrap();
        assert_eq!(report.rounds_completed, 5);
        assert!(report.error.is_none(), "{:?}", report.error);
    }

    #[test]
    fn overload_and_disconnect_reassignment() {
        let (tx, _shutdown, handle) = spawn_actor("overload");
        // conn 1 owns the round; conns 2 and 3 fill the wait queue
        // (max_inflight = 2); conn 4 is refused.
        let r1 = rpc(&tx, |reply| Command::Claim {
            conn: 1,
            enqueued: Instant::now(),
            reply,
        });
        assert!(matches!(r1, Response::Claimed { .. }));
        let (w2_tx, w2_rx) = mpsc::channel();
        tx.send(Command::Claim {
            conn: 2,
            enqueued: Instant::now(),
            reply: w2_tx,
        })
        .unwrap();
        let (w3_tx, w3_rx) = mpsc::channel();
        tx.send(Command::Claim {
            conn: 3,
            enqueued: Instant::now(),
            reply: w3_tx,
        })
        .unwrap();
        // Let the actor park both waiters before overflowing.
        std::thread::sleep(Duration::from_millis(50));
        let r4 = rpc(&tx, |reply| Command::Claim {
            conn: 4,
            enqueued: Instant::now(),
            reply,
        });
        assert!(
            matches!(&r4, Response::Error { code, .. } if *code == ErrorCode::Overloaded),
            "{r4:?}"
        );
        // Owner disconnects: the round passes to conn 2, then a release
        // passes it to conn 3.
        tx.send(Command::Disconnect { conn: 1 }).unwrap();
        let g2 = w2_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            g2,
            Response::Claimed {
                t: 0,
                pending: None
            }
        );
        let rel = rpc(&tx, |reply| Command::Release { conn: 2, reply });
        assert_eq!(rel, Response::ReleaseOk);
        let g3 = w3_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(g3, Response::Claimed { .. }), "{g3:?}");
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn pipelined_admission_promotes_buffered_proposals_in_order() {
        let (tx, _shutdown, handle) = spawn_actor_with(
            "pipelined",
            DurableOptions::new().with_fsync(FsyncPolicy::Never),
            2,
        );
        // Both rounds granted concurrently, in round order.
        let g1 = rpc(&tx, |reply| Command::Claim {
            conn: 1,
            enqueued: Instant::now(),
            reply,
        });
        assert_eq!(
            g1,
            Response::Claimed {
                t: 0,
                pending: None
            }
        );
        let g2 = rpc(&tx, |reply| Command::Claim {
            conn: 2,
            enqueued: Instant::now(),
            reply,
        });
        assert_eq!(
            g2,
            Response::Claimed {
                t: 1,
                pending: None
            }
        );
        // A future-round holder has nothing to answer yet.
        let early = rpc(&tx, |reply| Command::Feedback {
            conn: 2,
            accepts: vec![true],
            reply,
        });
        assert!(
            matches!(&early, Response::Error { code, .. } if *code == ErrorCode::NoPendingProposal),
            "{early:?}"
        );
        // Round 1's proposal arrives before round 0 even proposed: it
        // is buffered, with the reply withheld until promotion.
        let (p2_tx, p2_rx) = mpsc::channel();
        tx.send(Command::Propose {
            conn: 2,
            user_capacity: 1,
            num_events: 4,
            dim: 2,
            contexts: vec![0.25; 8],
            reply: p2_tx,
        })
        .unwrap();
        // A second early proposal on the same grant is refused.
        let dup = rpc(&tx, |reply| Command::Propose {
            conn: 2,
            user_capacity: 1,
            num_events: 4,
            dim: 2,
            contexts: vec![0.25; 8],
            reply,
        });
        assert!(
            matches!(&dup, Response::Error { code, .. } if *code == ErrorCode::FeedbackPending),
            "{dup:?}"
        );
        assert!(
            p2_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "buffered proposal must not execute before its round"
        );
        // Head round runs; its feedback promotes the buffered proposal.
        let resp = rpc(&tx, |reply| Command::Propose {
            conn: 1,
            user_capacity: 1,
            num_events: 4,
            dim: 2,
            contexts: vec![0.5; 8],
            reply,
        });
        let arrangement = match resp {
            Response::Proposed { t: 0, arrangement } => arrangement,
            other => panic!("{other:?}"),
        };
        let resp = rpc(&tx, |reply| Command::Feedback {
            conn: 1,
            accepts: vec![true; arrangement.len()],
            reply,
        });
        assert!(
            matches!(resp, Response::FeedbackOk { t: 0, .. }),
            "{resp:?}"
        );
        let promoted = p2_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let arrangement = match promoted {
            Response::Proposed { t: 1, arrangement } => arrangement,
            other => panic!("{other:?}"),
        };
        let resp = rpc(&tx, |reply| Command::Feedback {
            conn: 2,
            accepts: vec![true; arrangement.len()],
            reply,
        });
        assert!(
            matches!(resp, Response::FeedbackOk { t: 1, .. }),
            "{resp:?}"
        );
        drop(tx);
        let report = handle.join().unwrap();
        assert_eq!(report.rounds_completed, 2);
        assert!(report.error.is_none());
    }

    #[test]
    fn disconnected_future_grant_is_regranted_unproposed() {
        let (tx, _shutdown, handle) = spawn_actor_with(
            "future-drop",
            DurableOptions::new().with_fsync(FsyncPolicy::Never),
            2,
        );
        let g1 = rpc(&tx, |reply| Command::Claim {
            conn: 1,
            enqueued: Instant::now(),
            reply,
        });
        assert!(matches!(g1, Response::Claimed { t: 0, .. }));
        let g2 = rpc(&tx, |reply| Command::Claim {
            conn: 2,
            enqueued: Instant::now(),
            reply,
        });
        assert!(matches!(g2, Response::Claimed { t: 1, .. }));
        // conn 2 buffers a proposal, then dies: the slot is re-granted
        // under the same round number and the buffered proposal is
        // discarded with its connection.
        let (p2_tx, _p2_rx) = mpsc::channel();
        tx.send(Command::Propose {
            conn: 2,
            user_capacity: 1,
            num_events: 4,
            dim: 2,
            contexts: vec![0.25; 8],
            reply: p2_tx,
        })
        .unwrap();
        tx.send(Command::Disconnect { conn: 2 }).unwrap();
        let g3 = rpc(&tx, |reply| Command::Claim {
            conn: 3,
            enqueued: Instant::now(),
            reply,
        });
        assert_eq!(
            g3,
            Response::Claimed {
                t: 1,
                pending: None
            }
        );
        // Both rounds complete normally, with different contexts for
        // round 1 than the dropped proposal carried.
        for (conn, contexts) in [(1u64, vec![0.5; 8]), (3, vec![0.75; 8])] {
            let resp = rpc(&tx, |reply| Command::Propose {
                conn,
                user_capacity: 1,
                num_events: 4,
                dim: 2,
                contexts,
                reply,
            });
            let arrangement = match resp {
                Response::Proposed { arrangement, .. } => arrangement,
                other => panic!("{other:?}"),
            };
            let resp = rpc(&tx, |reply| Command::Feedback {
                conn,
                accepts: vec![true; arrangement.len()],
                reply,
            });
            assert!(matches!(resp, Response::FeedbackOk { .. }), "{resp:?}");
        }
        drop(tx);
        let report = handle.join().unwrap();
        assert_eq!(report.rounds_completed, 2);
        assert!(report.error.is_none());
    }

    #[test]
    fn shutdown_drains_waiters() {
        let (tx, shutdown, handle) = spawn_actor("drain");
        let r1 = rpc(&tx, |reply| Command::Claim {
            conn: 1,
            enqueued: Instant::now(),
            reply,
        });
        assert!(matches!(r1, Response::Claimed { .. }));
        let (w2_tx, w2_rx) = mpsc::channel();
        tx.send(Command::Claim {
            conn: 2,
            enqueued: Instant::now(),
            reply: w2_tx,
        })
        .unwrap();
        let r = rpc(&tx, |reply| Command::Shutdown { reply });
        assert_eq!(r, Response::ShutdownOk);
        assert!(shutdown.load(Ordering::SeqCst));
        let g2 = w2_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            matches!(&g2, Response::Error { code, .. } if *code == ErrorCode::ShuttingDown),
            "{g2:?}"
        );
        // New claims are refused while draining.
        let r3 = rpc(&tx, |reply| Command::Claim {
            conn: 3,
            enqueued: Instant::now(),
            reply,
        });
        assert!(
            matches!(&r3, Response::Error { code, .. } if *code == ErrorCode::ShuttingDown),
            "{r3:?}"
        );
        drop(tx);
        handle.join().unwrap();
    }
}
