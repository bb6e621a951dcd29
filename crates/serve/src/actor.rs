//! The service actor: the state machine that owns the
//! [`DurableArrangementService`] and executes commands strictly
//! sequentially, exactly as the FASEA protocol demands.
//!
//! The server keeps one [`ServiceActor`] behind one `Mutex`, and each
//! worker runs [`ServiceActor::handle`] on its own thread for the
//! [`Command`] it just decoded — the lock is the single-writer rule,
//! and there is no actor thread to hop to. Most commands are answered
//! on the spot; a reply that must wait (a parked `CLAIM`, a buffered
//! future-round `PROPOSE`, a `FEEDBACK_OK` gated on durability) is sent
//! later on the reply sender the command carries. Round ownership is
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
//! sequential, and the final WAL and state are bit-equal to
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
//! via the commit notifier (no actor lock needed), and the actor
//! re-flushes after every push to close the race where the watermark
//! advanced between the append and the push.
//!
//! `PROPOSED` is *not* withheld: `propose` is compute-then-log (see
//! DESIGN.md §8) — a crash that loses an unacknowledged-by-fsync
//! Propose record recovers to the pre-round state and re-draws the
//! *identical* arrangement when the round is re-delivered, because the
//! policy's RNG position is restored from the log; recovery asserts
//! this bit-exactly (`RecoveryDiverged`). Since nobody waits on it,
//! the Propose record is written at once but fsynced only with the
//! round's `Feedback` record, in LSN order, so it is always durable
//! before the feedback that completes its round is acknowledged — one
//! fsync per round. Keeping the proposal ack off the fsync keeps the
//! fsync out of the round-sequential critical path: the only
//! durability wait left per round overlaps the next round's network
//! turnaround.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fasea_core::{ContextMatrix, UserArrival};
use fasea_sim::ServiceError;

use crate::backend::BackendService;
use crate::metrics::Metrics;
use crate::proto::{ErrorCode, Response, WireStats};

/// One decoded request for the service actor. [`ServiceActor::handle`]
/// answers every command exactly once: directly, or — for the
/// variants carrying a `reply` — later on that sender (unless the
/// worker has already hung up, in which case the reply is dropped).
pub enum Command {
    /// Session handshake.
    Hello,
    /// Request ownership of the next round.
    Claim {
        /// Session id of the claimant.
        conn: u64,
        /// When the claim left the worker (queue-wait metric).
        enqueued: Instant,
        /// Where the grant goes if the claim is parked.
        reply: Sender<Response>,
    },
    /// Give the claimed round back without proposing.
    Release {
        /// Session id.
        conn: u64,
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
        /// Where the reply goes if a future round's proposal is
        /// buffered until its round becomes the head round.
        reply: Sender<Response>,
    },
    /// Answer the pending proposal of the owned round.
    Feedback {
        /// Session id.
        conn: u64,
        /// Accept/reject per arranged slot.
        accepts: Vec<bool>,
        /// Where `FEEDBACK_OK` goes once the round is durable (group
        /// commit).
        reply: Sender<Response>,
    },
    /// Health + metrics snapshot.
    Stats,
    /// Begin a graceful drain: refuse new claims, answer parked ones
    /// with `ShuttingDown`, let in-flight rounds finish.
    Shutdown,
}

/// What [`ServiceActor::close`] returns once the service has been
/// flushed to disk.
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

/// The actor state machine. Owns the durable service for its lifetime;
/// callers serialise access to it (the server holds it in one `Mutex`).
pub struct ServiceActor {
    svc: BackendService,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    max_inflight: usize,
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
    pub fn new(
        svc: impl Into<BackendService>,
        metrics: Arc<Metrics>,
        shutdown: Arc<AtomicBool>,
        max_inflight: usize,
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
            metrics,
            shutdown,
            max_inflight: max_inflight.max(1),
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

    /// The admission tick, run after every command and periodically by
    /// the server: grants free rounds to parked claimants, or refuses
    /// them all while draining.
    pub fn tick(&mut self) {
        if self.draining() {
            self.refuse_waiters();
        } else {
            self.grant_next();
        }
    }

    /// Ends the service once no command can arrive any more: refuses
    /// parked claims, settles withheld acks, then flushes and
    /// snapshots the service.
    pub fn close(mut self) -> CloseReport {
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

    /// Executes one command. Returns its reply, or `None` when the
    /// reply is deferred to the command's `reply` sender: a parked (or
    /// just granted) `CLAIM`, a buffered future-round `PROPOSE`, or a
    /// `FEEDBACK_OK` waiting for the commit watermark. Ends with the
    /// admission [`tick`](ServiceActor::tick).
    pub fn handle(&mut self, cmd: Command) -> Option<Response> {
        let reply = self.execute(cmd);
        self.tick();
        reply
    }

    fn execute(&mut self, cmd: Command) -> Option<Response> {
        match cmd {
            Command::Hello => {
                let health = self.svc.health();
                Some(Response::HelloOk {
                    fingerprint: health.fingerprint,
                    num_events: self.svc.service().instance().num_events() as u32,
                    dim: self.svc.service().instance().dim() as u32,
                    rounds_completed: health.rounds_completed,
                    has_pending: health.has_pending,
                })
            }
            Command::Claim {
                conn,
                enqueued,
                reply,
            } => self.handle_claim(conn, enqueued, reply),
            Command::Release { conn } => {
                let Some(idx) = self.grant_index(conn) else {
                    self.metrics.protocol_errors.incr();
                    return Some(error_response(
                        ErrorCode::NotRoundOwner,
                        "RELEASE from a session that does not own a round",
                    ));
                };
                // The round number was promised, so the slot stays and
                // is re-granted to the next waiter under the same `t`.
                self.grants[idx].conn = None;
                self.grants[idx].buffered = None;
                self.metrics.releases.incr();
                Some(Response::ReleaseOk)
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
            Command::Stats => {
                self.metrics.stats_requests.incr();
                Some(Response::StatsOk(self.wire_stats()))
            }
            Command::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Some(Response::ShutdownOk)
            }
        }
    }

    /// The session's connection closed: forget its parked claims and
    /// release every round it holds for re-grant, then run the
    /// admission tick.
    pub fn disconnect(&mut self, conn: u64) {
        self.waiters.retain(|w| w.conn != conn);
        for g in self.grants.iter_mut().filter(|g| g.conn == Some(conn)) {
            g.conn = None;
            // A buffered proposal dies with its connection: it was
            // never executed against the service, so the round is
            // simply re-granted un-proposed.
            g.buffered = None;
            self.metrics.reassigned_rounds.incr();
        }
        self.tick();
    }

    fn handle_claim(
        &mut self,
        conn: u64,
        enqueued: Instant,
        reply: Sender<Response>,
    ) -> Option<Response> {
        if self.draining() {
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::ShuttingDown,
                "server is draining",
            ));
        }
        if self.grant_index(conn).is_some() {
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::Internal,
                "CLAIM from a session that already holds a round",
            ));
        }
        self.metrics.claims.incr();
        if self.waiters.len() >= self.max_inflight {
            self.metrics.overloaded.incr();
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::Overloaded,
                format!("claim queue full ({} waiting)", self.waiters.len()),
            ));
        }
        // Parked in FIFO order; the grant (possibly right away, by the
        // tick that ends `handle`) arrives on `reply`.
        self.waiters.push_back(Waiter {
            conn,
            enqueued,
            reply,
        });
        None
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
    ) -> Option<Response> {
        let Some(idx) = self.grant_index(conn) else {
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::NotRoundOwner,
                "PROPOSE from a session that does not own a round",
            ));
        };
        let instance = self.svc.service().instance();
        if num_events as usize != instance.num_events()
            || dim as usize != instance.dim()
            || contexts.len() != (num_events as usize) * (dim as usize)
        {
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::ContextShapeMismatch,
                format!(
                    "context block is {num_events}x{dim}, instance is {}x{}",
                    instance.num_events(),
                    instance.dim()
                ),
            ));
        }
        let user = UserArrival::new(
            user_capacity,
            ContextMatrix::from_rows(num_events as usize, dim as usize, contexts),
        );
        if idx == 0 {
            // Head round: execute now, exactly as sequential admission.
            self.apply_churn(self.grants[0].t);
            return Some(self.execute_propose(user));
        }
        // Future round: buffer for in-order promotion. Double-propose
        // on the same grant mirrors the head's FeedbackPending error.
        if self.grants[idx].buffered.is_some() {
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::FeedbackPending,
                format!(
                    "round {} already has a buffered proposal",
                    self.grants[idx].t
                ),
            ));
        }
        self.grants[idx].buffered = Some(BufferedPropose { user, reply });
        None
    }

    /// Executes a proposal for the head round and returns the reply.
    /// Shared by the direct head-propose path and buffered-proposal
    /// promotion.
    fn execute_propose(&mut self, user: UserArrival) -> Response {
        let t = self.svc.rounds_completed();
        let started = Instant::now();
        // With group commit the reply does not wait for the Propose
        // record: compute-then-log makes an undurable Propose harmless
        // (recovery re-draws it identically), and its LSN precedes the
        // feedback LSN this round's completion ack will wait on.
        let proposed = if self.svc.group_commit_enabled() {
            self.svc.propose_deferred(&user).map(|(a, _lsn)| a)
        } else {
            self.svc.propose(&user)
        };
        match proposed {
            Ok(arrangement) => {
                self.metrics.propose_us.observe(started.elapsed());
                self.metrics.proposes.incr();
                self.svc.drain_shard_metrics(&self.metrics);
                Response::Proposed {
                    t,
                    arrangement: arrangement
                        .events()
                        .iter()
                        .map(|v| v.index() as u32)
                        .collect(),
                }
            }
            Err(err) => self.service_error_reply(err),
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
        let response = self.execute_propose(b.user);
        let _ = b.reply.send(response);
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

    fn handle_feedback(
        &mut self,
        conn: u64,
        accepts: &[bool],
        reply: Sender<Response>,
    ) -> Option<Response> {
        let Some(idx) = self.grant_index(conn) else {
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::NotRoundOwner,
                "FEEDBACK from a session that does not own a round",
            ));
        };
        if idx != 0 {
            // Only the head round can have a pending proposal in the
            // service; a future-round holder has nothing to answer yet.
            self.metrics.protocol_errors.incr();
            return Some(error_response(
                ErrorCode::NoPendingProposal,
                format!("round {} is not yet active", self.grants[idx].t),
            ));
        }
        let t = self.svc.rounds_completed();
        let started = Instant::now();
        if self.svc.group_commit_enabled() {
            return match self.svc.feedback_deferred(accepts) {
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
                    None
                }
                Err(err) => Some(self.service_error_reply(err)),
            };
        }
        match self.svc.feedback(accepts) {
            Ok(reward) => {
                self.metrics.feedback_us.observe(started.elapsed());
                self.metrics.feedbacks.incr();
                self.svc.drain_shard_metrics(&self.metrics);
                self.drain_model_tier_metrics();
                self.grants.pop_front();
                self.maybe_snapshot();
                self.promote_buffered();
                Some(Response::FeedbackOk { t, reward })
            }
            Err(err) => Some(self.service_error_reply(err)),
        }
    }

    /// The typed wire error for `err`; a store-level failure
    /// additionally poisons the actor and raises the shutdown flag,
    /// since the WAL can no longer be trusted to advance.
    fn service_error_reply(&mut self, err: ServiceError) -> Response {
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
        error_response(service_error_code(&err), err.to_string())
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
    use std::sync::mpsc::{self, Receiver};
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fasea-serve-actor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn new_actor(tag: &str) -> (ServiceActor, Arc<AtomicBool>) {
        new_actor_with(tag, DurableOptions::new().with_fsync(FsyncPolicy::Never), 1)
    }

    fn new_actor_with(
        tag: &str,
        options: DurableOptions,
        pipeline_depth: usize,
    ) -> (ServiceActor, Arc<AtomicBool>) {
        let dir = temp_dir(tag);
        let instance = ProblemInstance::basic(4, 2);
        let svc = DurableArrangementService::open(
            &dir,
            instance,
            Box::new(LinUcb::new(2, 1.0, 2.0)),
            options,
        )
        .unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let actor = ServiceActor::new(
            svc,
            Arc::new(Metrics::default()),
            Arc::clone(&shutdown),
            2,
            pipeline_depth,
            None,
            fasea_core::ChurnSchedule::none(),
        );
        (actor, shutdown)
    }

    /// One session: its id and the channel its deferred replies reach.
    struct Conn {
        id: u64,
        tx: Sender<Response>,
        rx: Receiver<Response>,
    }

    impl Conn {
        fn new(id: u64) -> Self {
            let (tx, rx) = mpsc::channel();
            Conn { id, tx, rx }
        }

        fn claim(&self) -> Command {
            Command::Claim {
                conn: self.id,
                enqueued: Instant::now(),
                reply: self.tx.clone(),
            }
        }

        fn propose(&self, cell: f64) -> Command {
            Command::Propose {
                conn: self.id,
                user_capacity: 1,
                num_events: 4,
                dim: 2,
                contexts: vec![cell; 8],
                reply: self.tx.clone(),
            }
        }

        fn feedback(&self, accepts: Vec<bool>) -> Command {
            Command::Feedback {
                conn: self.id,
                accepts,
                reply: self.tx.clone(),
            }
        }

        /// The next deferred reply.
        fn deferred(&self) -> Response {
            self.rx.recv_timeout(Duration::from_secs(5)).unwrap()
        }

        /// Whether a deferred reply is waiting.
        fn has_reply(&self) -> bool {
            self.rx.try_recv().is_ok()
        }

        /// Runs `cmd` for this session and returns its reply, immediate
        /// or deferred — what the worker writes back.
        fn call(&self, actor: &mut ServiceActor, cmd: Command) -> Response {
            actor.handle(cmd).unwrap_or_else(|| self.deferred())
        }
    }

    fn is_error(resp: &Response, want: ErrorCode) -> bool {
        matches!(resp, Response::Error { code, .. } if *code == want)
    }

    #[test]
    fn claim_propose_feedback_cycle_and_ownership() {
        let (mut actor, _shutdown) = new_actor("cycle");
        let (owner, stranger) = (Conn::new(1), Conn::new(2));
        let granted = owner.call(&mut actor, owner.claim());
        assert_eq!(
            granted,
            Response::Claimed {
                t: 0,
                pending: None
            }
        );
        // A stranger may not propose.
        let resp = stranger.call(&mut actor, stranger.propose(0.5));
        assert!(is_error(&resp, ErrorCode::NotRoundOwner), "{resp:?}");
        // The owner proposes and answers feedback.
        let resp = owner.call(&mut actor, owner.propose(0.5));
        let arrangement = match resp {
            Response::Proposed { t: 0, arrangement } => arrangement,
            other => panic!("{other:?}"),
        };
        let resp = owner.call(&mut actor, owner.feedback(vec![true; arrangement.len()]));
        assert!(
            matches!(resp, Response::FeedbackOk { t: 0, .. }),
            "{resp:?}"
        );
        let report = actor.close();
        assert_eq!(report.rounds_completed, 1);
        assert!(report.error.is_none());
        assert!(report.snapshot.is_some());
    }

    #[test]
    fn group_commit_defers_acks_until_durable() {
        let (mut actor, _shutdown) = new_actor_with(
            "group-acks",
            DurableOptions::new()
                .with_fsync(FsyncPolicy::Always)
                .with_group_commit(true),
            1,
        );
        let conn = Conn::new(1);
        // Rounds still ack in order and carry the right round indices.
        // Each FEEDBACK_OK is withheld by `handle` and only arrives once
        // the commit syncer (or the actor's own flush) released it, so
        // receiving all of them proves acks are never stranded.
        for t in 0..5u64 {
            let granted = conn.call(&mut actor, conn.claim());
            assert!(matches!(granted, Response::Claimed { .. }), "{granted:?}");
            let resp = conn.call(&mut actor, conn.propose(0.5));
            let arrangement = match resp {
                Response::Proposed {
                    t: got,
                    arrangement,
                } if got == t => arrangement,
                other => panic!("{other:?}"),
            };
            let immediate = actor.handle(conn.feedback(vec![true; arrangement.len()]));
            assert_eq!(immediate, None, "FEEDBACK_OK must wait for the watermark");
            let resp = conn.deferred();
            assert!(
                matches!(&resp, Response::FeedbackOk { t: got, .. } if *got == t),
                "{resp:?}"
            );
        }
        let report = actor.close();
        assert_eq!(report.rounds_completed, 5);
        assert!(report.error.is_none(), "{:?}", report.error);
    }

    #[test]
    fn overload_and_disconnect_reassignment() {
        let (mut actor, _shutdown) = new_actor("overload");
        let conns: Vec<Conn> = (1..=4).map(Conn::new).collect();
        // conn 1 owns the round; conns 2 and 3 fill the wait queue
        // (max_inflight = 2); conn 4 is refused.
        let r1 = conns[0].call(&mut actor, conns[0].claim());
        assert!(matches!(r1, Response::Claimed { .. }));
        assert_eq!(actor.handle(conns[1].claim()), None);
        assert_eq!(actor.handle(conns[2].claim()), None);
        let r4 = conns[3].call(&mut actor, conns[3].claim());
        assert!(is_error(&r4, ErrorCode::Overloaded), "{r4:?}");
        // Owner disconnects: the round passes to conn 2, then a release
        // passes it to conn 3.
        actor.disconnect(1);
        assert_eq!(
            conns[1].deferred(),
            Response::Claimed {
                t: 0,
                pending: None
            }
        );
        assert!(!conns[2].has_reply(), "conn 3 granted ahead of its turn");
        let rel = conns[1].call(&mut actor, Command::Release { conn: 2 });
        assert_eq!(rel, Response::ReleaseOk);
        let g3 = conns[2].deferred();
        assert!(matches!(g3, Response::Claimed { .. }), "{g3:?}");
        actor.close();
    }

    #[test]
    fn pipelined_admission_promotes_buffered_proposals_in_order() {
        let (mut actor, _shutdown) = new_actor_with(
            "pipelined",
            DurableOptions::new().with_fsync(FsyncPolicy::Never),
            2,
        );
        let (c1, c2) = (Conn::new(1), Conn::new(2));
        // Both rounds granted concurrently, in round order.
        let g1 = c1.call(&mut actor, c1.claim());
        assert_eq!(
            g1,
            Response::Claimed {
                t: 0,
                pending: None
            }
        );
        let g2 = c2.call(&mut actor, c2.claim());
        assert_eq!(
            g2,
            Response::Claimed {
                t: 1,
                pending: None
            }
        );
        // A future-round holder has nothing to answer yet.
        let early = c2.call(&mut actor, c2.feedback(vec![true]));
        assert!(is_error(&early, ErrorCode::NoPendingProposal), "{early:?}");
        // Round 1's proposal arrives before round 0 even proposed: it
        // is buffered, with the reply withheld until promotion.
        assert_eq!(actor.handle(c2.propose(0.25)), None);
        // A second early proposal on the same grant is refused.
        let dup = actor.handle(c2.propose(0.25)).expect("refused at once");
        assert!(is_error(&dup, ErrorCode::FeedbackPending), "{dup:?}");
        assert!(
            !c2.has_reply(),
            "buffered proposal must not execute before its round"
        );
        // Head round runs; its feedback promotes the buffered proposal.
        let resp = c1.call(&mut actor, c1.propose(0.5));
        let arrangement = match resp {
            Response::Proposed { t: 0, arrangement } => arrangement,
            other => panic!("{other:?}"),
        };
        let resp = c1.call(&mut actor, c1.feedback(vec![true; arrangement.len()]));
        assert!(
            matches!(resp, Response::FeedbackOk { t: 0, .. }),
            "{resp:?}"
        );
        let arrangement = match c2.deferred() {
            Response::Proposed { t: 1, arrangement } => arrangement,
            other => panic!("{other:?}"),
        };
        let resp = c2.call(&mut actor, c2.feedback(vec![true; arrangement.len()]));
        assert!(
            matches!(resp, Response::FeedbackOk { t: 1, .. }),
            "{resp:?}"
        );
        let report = actor.close();
        assert_eq!(report.rounds_completed, 2);
        assert!(report.error.is_none());
    }

    #[test]
    fn disconnected_future_grant_is_regranted_unproposed() {
        let (mut actor, _shutdown) = new_actor_with(
            "future-drop",
            DurableOptions::new().with_fsync(FsyncPolicy::Never),
            2,
        );
        let (c1, c2, c3) = (Conn::new(1), Conn::new(2), Conn::new(3));
        let g1 = c1.call(&mut actor, c1.claim());
        assert!(matches!(g1, Response::Claimed { t: 0, .. }));
        let g2 = c2.call(&mut actor, c2.claim());
        assert!(matches!(g2, Response::Claimed { t: 1, .. }));
        // conn 2 buffers a proposal, then dies: the slot is re-granted
        // under the same round number and the buffered proposal is
        // discarded with its connection.
        assert_eq!(actor.handle(c2.propose(0.25)), None);
        actor.disconnect(2);
        let g3 = c3.call(&mut actor, c3.claim());
        assert_eq!(
            g3,
            Response::Claimed {
                t: 1,
                pending: None
            }
        );
        // Both rounds complete normally, with different contexts for
        // round 1 than the dropped proposal carried.
        for (conn, cell) in [(&c1, 0.5), (&c3, 0.75)] {
            let resp = conn.call(&mut actor, conn.propose(cell));
            let arrangement = match resp {
                Response::Proposed { arrangement, .. } => arrangement,
                other => panic!("{other:?}"),
            };
            let resp = conn.call(&mut actor, conn.feedback(vec![true; arrangement.len()]));
            assert!(matches!(resp, Response::FeedbackOk { .. }), "{resp:?}");
        }
        assert!(!c2.has_reply(), "the dropped proposal was executed");
        let report = actor.close();
        assert_eq!(report.rounds_completed, 2);
        assert!(report.error.is_none());
    }

    #[test]
    fn shutdown_drains_waiters() {
        let (mut actor, shutdown) = new_actor("drain");
        let (c1, c2, c3) = (Conn::new(1), Conn::new(2), Conn::new(3));
        let r1 = c1.call(&mut actor, c1.claim());
        assert!(matches!(r1, Response::Claimed { .. }));
        assert_eq!(actor.handle(c2.claim()), None);
        let r = actor.handle(Command::Shutdown);
        assert_eq!(r, Some(Response::ShutdownOk));
        assert!(shutdown.load(Ordering::SeqCst));
        let g2 = c2.deferred();
        assert!(is_error(&g2, ErrorCode::ShuttingDown), "{g2:?}");
        // New claims are refused while draining.
        let r3 = c3.call(&mut actor, c3.claim());
        assert!(is_error(&r3, ErrorCode::ShuttingDown), "{r3:?}");
        actor.close();
    }

    #[test]
    fn tick_refuses_waiters_once_shutdown_is_raised_outside() {
        // The server's own shutdown flag (not the SHUTDOWN verb): the
        // accept loop's periodic tick is what answers parked claims.
        let (mut actor, shutdown) = new_actor("drain-tick");
        let (c1, c2) = (Conn::new(1), Conn::new(2));
        assert!(matches!(
            c1.call(&mut actor, c1.claim()),
            Response::Claimed { .. }
        ));
        assert_eq!(actor.handle(c2.claim()), None);
        shutdown.store(true, Ordering::SeqCst);
        assert!(!c2.has_reply());
        actor.tick();
        let g2 = c2.deferred();
        assert!(is_error(&g2, ErrorCode::ShuttingDown), "{g2:?}");
        actor.close();
    }
}
