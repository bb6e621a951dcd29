//! Crash-safe wrapper around [`ArrangementService`].
//!
//! A [`DurableArrangementService`] writes every protocol step to a
//! [`fasea_store`] write-ahead log and can be reopened after a crash
//! with *byte-identical* state — estimator matrices, policy RNG
//! position, remaining capacities, round counter and regret accounting
//! all match what an uninterrupted run would hold. The irrevocability
//! rule of the FASEA protocol (Definition 3) is what makes this
//! non-negotiable: a proposal a user may have seen cannot be retracted,
//! so it must never be lost, and a round must never be proposed twice.
//!
//! ## Logging discipline
//!
//! * **`propose` is compute-then-log.** The policy selects first, then
//!   the full round input (contexts, capacity) *and* the decision are
//!   appended as a `Propose` record. If the process dies before the
//!   record is durable, nothing was exposed that recovery must honour —
//!   and because the policy's RNG position is itself recovered from the
//!   log (via snapshot + replay), re-proposing after restart draws
//!   exactly the same arrangement.
//! * **`feedback` is validate-log-apply.** The answers are checked
//!   against the pending proposal, appended as a `Feedback` record, and
//!   only then applied to the learner and capacities. A crash between
//!   append and apply replays the record on reopen.
//!
//! ## Recovery
//!
//! [`DurableArrangementService::open`] loads the newest valid snapshot
//! (if any), restores the policy's state blob into the caller-supplied
//! policy, then replays the WAL suffix. Replay *re-executes* each
//! `Propose` through the real policy and compares the decision with the
//! logged one — divergence (a changed policy, seed, or numeric
//! environment) aborts recovery with
//! [`ServiceError::RecoveryDiverged`] instead of silently forking
//! history. A log that ends after a `Propose` but before its `Feedback`
//! surfaces as [`has_pending`](DurableArrangementService::has_pending):
//! the caller decides whether to re-deliver the proposal or record a
//! rejection; the service never silently re-proposes.
//!
//! Logs and snapshots are bound to a *service fingerprint* (instance
//! shape, capacities, conflicts, mode, policy name), so state from a
//! differently-configured service is rejected up front.

use crate::service::{ArrangementService, ServiceError};
use crate::snapshotter::{run_snapshot, Snapshotter};
use fasea_bandit::Policy;
use fasea_core::{
    Arrangement, ContextMatrix, EventId, ProblemInstance, ProblemMode, RegretAccounting,
    UserArrival,
};
use fasea_store::record::{propose_payload_len, MAX_PAYLOAD};
use fasea_store::snapshot::{latest_snapshot, prune_snapshots};
use fasea_store::wal::Recovered;
pub use fasea_store::FsyncPolicy;
use fasea_store::{
    context_hash, CommitNotifier, CommitObserver, GroupCommitWal, PendingProposal, Record,
    ServiceSnapshot, StoreError, Wal, WalOptions,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Tuning for the durable service.
///
/// Marked `#[non_exhaustive]`: construct it with [`DurableOptions::new`]
/// (or `Default::default()`) and refine with the builder methods, so new
/// durability knobs can be added without breaking downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DurableOptions {
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// How many snapshots to keep on disk (older ones are pruned after
    /// each successful snapshot; at least 1).
    pub snapshots_kept: usize,
    /// Route appends through the group-commit pipeline: a dedicated
    /// syncer thread batches writes + fsyncs (N records share one
    /// syscall pair) and snapshots run on a background thread. The
    /// durability *guarantee* is unchanged per fsync policy — the
    /// blocking [`DurableArrangementService::propose`] /
    /// [`DurableArrangementService::feedback`] wait for the watermark,
    /// and the `_deferred` variants hand the caller an LSN to gate its
    /// own acknowledgements on.
    pub group_commit: bool,
    /// Which arrangement [`fasea_bandit::Oracle`] the service runs.
    /// The default ([`fasea_bandit::OracleKind::Greedy`]) is
    /// bit-identical to the historical behaviour and keeps existing
    /// logs valid; a non-greedy oracle changes decisions, so its name
    /// is mixed into the service fingerprint and the oracle is
    /// installed *before* WAL replay (recovery re-executes proposals
    /// through it).
    pub oracle: fasea_bandit::OracleOptions,
    /// An extra salt mixed into the service fingerprint when non-zero.
    /// `0` (the default) contributes nothing, keeping existing logs
    /// valid. Callers whose policy construction takes knobs invisible
    /// to [`service_fingerprint`] — e.g. a personalized model store's
    /// cohort or sketched-state configuration, which change decisions
    /// without changing the policy name — must fold those knobs into
    /// this salt so stale logs are rejected instead of replaying
    /// divergently.
    pub fingerprint_salt: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::EveryN(32),
            snapshots_kept: 2,
            group_commit: false,
            oracle: fasea_bandit::OracleOptions::new(),
            fingerprint_salt: 0,
        }
    }
}

impl DurableOptions {
    /// The default tuning (4 MiB segments, fsync every 32 appends, two
    /// snapshots kept).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the WAL segment rotation threshold in bytes.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Sets when appends reach stable storage.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets how many snapshots to keep on disk (clamped to at least 1
    /// by the pruning logic).
    pub fn with_snapshots_kept(mut self, kept: usize) -> Self {
        self.snapshots_kept = kept;
        self
    }

    /// Enables (or disables) the group-commit pipeline + background
    /// snapshotter. See [`DurableOptions::group_commit`].
    pub fn with_group_commit(mut self, enabled: bool) -> Self {
        self.group_commit = enabled;
        self
    }

    /// Selects the arrangement oracle. See [`DurableOptions::oracle`].
    pub fn with_oracle(mut self, oracle: fasea_bandit::OracleOptions) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the extra fingerprint salt. See
    /// [`DurableOptions::fingerprint_salt`].
    pub fn with_fingerprint_salt(mut self, salt: u64) -> Self {
        self.fingerprint_salt = salt;
        self
    }
}

/// A point-in-time health summary of a [`DurableArrangementService`],
/// cheap to build and plain data — the serving layer exposes it over
/// the wire (`STATS`) and in periodic log lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceHealth {
    /// The wrapped policy's stable name.
    pub policy_name: String,
    /// The service fingerprint (instance shape + capacities + conflicts
    /// + mode + policy name).
    pub fingerprint: u64,
    /// Rounds completed (proposal + feedback pairs).
    pub rounds_completed: u64,
    /// `true` if a proposal awaits feedback.
    pub has_pending: bool,
    /// Events that still have remaining capacity.
    pub available_events: usize,
    /// Sum of remaining capacity over all events.
    pub remaining_total: u64,
    /// Total slots arranged over completed rounds.
    pub total_arranged: u64,
    /// Total slots accepted over completed rounds.
    pub total_rewards: u64,
    /// WAL sequence number the next append will receive.
    pub next_seq: u64,
    /// Durability watermark: records with LSN strictly below this have
    /// reached the level the fsync policy promises. Equal to `next_seq`
    /// without group commit (appends were synchronous); may trail it
    /// while a group-commit batch is in flight.
    pub durable_lsn: u64,
}

/// How appends reach the log: synchronously on the caller, or through
/// the group-commit queue.
enum WalBackend {
    /// PR 1 semantics: the caller's thread writes (and per policy
    /// fsyncs) inline; everything appended is immediately at its
    /// policy durability level.
    Direct(Wal),
    /// Appends enqueue; the syncer thread batches them. `Arc` because
    /// the background snapshotter holds a second handle for its ordered
    /// rotate/marker/compact tasks.
    Grouped(Arc<GroupCommitWal>),
}

impl WalBackend {
    /// Appends one record, returning its LSN. Under `Direct` the record
    /// is at its policy durability level on return; under `Grouped` it
    /// is durable only once the watermark passes the LSN.
    fn append(&mut self, record: Record) -> Result<u64, StoreError> {
        match self {
            WalBackend::Direct(w) => w.append(&record),
            WalBackend::Grouped(g) => g.append(record),
        }
    }

    /// Like [`append`](WalBackend::append), for a record nobody waits
    /// on: under `Grouped` it is fsynced with the next record someone
    /// does wait on (or on demand by `wait_durable`), not on its own.
    fn append_unawaited(&mut self, record: Record) -> Result<u64, StoreError> {
        match self {
            WalBackend::Direct(w) => w.append(&record),
            WalBackend::Grouped(g) => g.append_unawaited(record),
        }
    }

    /// The LSN the next append will receive.
    fn next_seq(&self) -> u64 {
        match self {
            WalBackend::Direct(w) => w.next_seq(),
            WalBackend::Grouped(g) => g.next_lsn(),
        }
    }

    /// The durability watermark (count semantics).
    fn durable_lsn(&self) -> u64 {
        match self {
            // Synchronous appends: everything written is already at its
            // policy durability level.
            WalBackend::Direct(w) => w.next_seq(),
            WalBackend::Grouped(g) => g.durable_lsn(),
        }
    }

    /// Blocks until `lsn` is covered by the watermark. No-op under
    /// `Direct`.
    fn wait_durable(&self, lsn: u64) -> Result<(), StoreError> {
        match self {
            WalBackend::Direct(_) => Ok(()),
            WalBackend::Grouped(g) => g.wait_durable(lsn).map(|_| ()),
        }
    }

    /// Forces everything appended so far to stable storage.
    fn sync(&mut self) -> Result<(), StoreError> {
        match self {
            WalBackend::Direct(w) => w.sync(),
            WalBackend::Grouped(g) => g.sync_barrier(),
        }
    }
}

/// Crash-safe arrangement service: [`ArrangementService`] + WAL +
/// snapshots.
pub struct DurableArrangementService {
    service: ArrangementService,
    wal: WalBackend,
    /// Background snapshot thread; `Some` iff group commit is on.
    snapshotter: Option<Snapshotter>,
    dir: PathBuf,
    fingerprint: u64,
    options: DurableOptions,
}

/// FNV-1a fingerprint of everything that must match between the
/// persisted state and the recovering service: instance shape,
/// capacities, conflicts, mode, and the policy's name.
pub fn service_fingerprint(instance: &ProblemInstance, policy_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(b"fasea-service-v1");
    eat(&(instance.num_events() as u64).to_le_bytes());
    eat(&(instance.dim() as u64).to_le_bytes());
    eat(&[match instance.mode() {
        ProblemMode::Fasea => 1u8,
        ProblemMode::BasicContextual => 2u8,
    }]);
    for &c in instance.capacities() {
        eat(&c.to_le_bytes());
    }
    let n = instance.num_events();
    for i in 0..n {
        for j in (i + 1)..n {
            if instance.conflicts().are_conflicting(EventId(i), EventId(j)) {
                eat(&(i as u32).to_le_bytes());
                eat(&(j as u32).to_le_bytes());
            }
        }
    }
    eat(policy_name.as_bytes());
    h
}

/// [`service_fingerprint`] with the configured oracle mixed in. The
/// default greedy oracle contributes nothing — logs written before
/// oracles were configurable stay valid — while any other oracle's
/// name perturbs the fingerprint, since its decisions (and therefore
/// the log contents) differ.
pub fn service_fingerprint_with_oracle(
    instance: &ProblemInstance,
    policy_name: &str,
    oracle: &fasea_bandit::OracleOptions,
) -> u64 {
    let mut h = service_fingerprint(instance, policy_name);
    if oracle.kind != fasea_bandit::OracleKind::Greedy {
        for &b in oracle.name().as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Folds an extra salt into a service fingerprint. Zero contributes
/// nothing (the identity), matching
/// [`DurableOptions::fingerprint_salt`]'s default; any non-zero salt
/// is FNV-folded byte-wise so distinct salts land on distinct
/// fingerprints.
pub fn fold_fingerprint_salt(mut h: u64, salt: u64) -> u64 {
    if salt != 0 {
        for &b in &salt.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

impl DurableArrangementService {
    /// Opens the durable service in `dir`, recovering persisted state
    /// if any exists; a fresh directory starts a fresh service. The
    /// supplied `policy` must be constructed with the same parameters
    /// (dimension, λ, α/ε/δ, seed) as the one that wrote the state —
    /// its learning state is overwritten from the snapshot, and replay
    /// verifies its decisions against the log.
    ///
    /// # Errors
    /// Store-level failures ([`ServiceError::Store`]), snapshot
    /// restoration failures ([`ServiceError::Snapshot`] /
    /// [`ServiceError::PolicyMismatch`]), and replay divergence
    /// ([`ServiceError::RecoveryDiverged`]). An instance whose largest
    /// `Propose` record would exceed the WAL's per-record limit is
    /// refused with [`ServiceError::InstanceTooWide`] before anything
    /// touches `dir`.
    pub fn open(
        dir: &Path,
        instance: ProblemInstance,
        mut policy: Box<dyn Policy>,
        options: DurableOptions,
    ) -> Result<Self, ServiceError> {
        let n = instance.num_events();
        let record_bytes = propose_payload_len(n, instance.dim(), n);
        if record_bytes > u64::from(MAX_PAYLOAD) {
            return Err(ServiceError::InstanceTooWide {
                record_bytes,
                limit: MAX_PAYLOAD,
            });
        }
        let fingerprint = fold_fingerprint_salt(
            service_fingerprint_with_oracle(&instance, policy.name(), &options.oracle),
            options.fingerprint_salt,
        );
        let snapshot = latest_snapshot(dir, fingerprint)?;
        let wal_options = WalOptions {
            segment_bytes: options.segment_bytes,
            fsync: options.fsync,
        };
        let (wal, recovered) = Wal::open(dir, fingerprint, wal_options)?;

        let (mut service, replay_from) = match snapshot {
            Some(snap) => {
                if snap.policy_name != policy.name() {
                    return Err(ServiceError::PolicyMismatch {
                        expected: snap.policy_name,
                        found: policy.name().to_string(),
                    });
                }
                policy.restore_state(&snap.policy_state)?;
                let pending = snap.pending.as_ref().map(pending_to_domain).transpose()?;
                let accounting =
                    RegretAccounting::from_parts(snap.rounds, snap.arranged, snap.rewards);
                let service = ArrangementService::from_parts(
                    instance,
                    policy,
                    snap.remaining.clone(),
                    snap.t,
                    pending,
                    accounting,
                )?;
                (service, snap.seq)
            }
            None => (ArrangementService::new(instance, policy), 0),
        };

        // Install the oracle before replay so recovery runs through the
        // same decision path the service will serve with.
        service.install_oracle(Some(options.oracle.build()));

        replay(&mut service, &recovered, replay_from)?;

        let (wal, snapshotter) = if options.group_commit {
            let group = Arc::new(GroupCommitWal::spawn(wal));
            let snapshotter = Snapshotter::spawn(
                Arc::clone(&group),
                dir.to_path_buf(),
                options.snapshots_kept.max(1),
            );
            (WalBackend::Grouped(group), Some(snapshotter))
        } else {
            (WalBackend::Direct(wal), None)
        };

        Ok(DurableArrangementService {
            service,
            wal,
            snapshotter,
            dir: dir.to_path_buf(),
            fingerprint,
            options,
        })
    }

    /// Proposes an arrangement for the arriving user and logs the full
    /// round input plus the decision. See
    /// [`ArrangementService::propose`] for protocol errors.
    ///
    /// Blocks until the record reaches its policy durability level —
    /// with group commit, that means waiting for the watermark. Use
    /// [`propose_deferred`](DurableArrangementService::propose_deferred)
    /// to pipeline instead.
    ///
    /// # Errors
    /// Protocol violations, or [`ServiceError::Store`] if the append
    /// fails — after which the service must be dropped and reopened
    /// (in-memory state may be ahead of the log).
    pub fn propose(&mut self, user: &UserArrival) -> Result<Arrangement, ServiceError> {
        let (arrangement, lsn) = self.propose_deferred(user)?;
        self.wal.wait_durable(lsn)?;
        Ok(arrangement)
    }

    /// Like [`propose`](DurableArrangementService::propose) but does
    /// *not* wait for durability: returns the arrangement plus the
    /// `Propose` record's LSN. The proposal may be acted on in memory
    /// immediately (the next round can start), but it must not be
    /// acknowledged to the outside world until
    /// [`durable_lsn`](DurableArrangementService::durable_lsn) exceeds
    /// the returned LSN. Without group commit the record is already
    /// durable on return, so gating on the LSN is a no-op.
    ///
    /// Losing a not-yet-durable `Propose` to a crash is safe even if
    /// later rounds were arranged in memory: proposals are
    /// compute-then-log and the policy's RNG position is recovered from
    /// the log, so replay re-draws the identical proposal.
    ///
    /// With group commit nobody waits on the record itself, so it is
    /// fsynced together with the round's `Feedback` (or the next record
    /// anyone waits on) rather than on its own; a
    /// [`wait_durable`](DurableArrangementService::wait_durable) on the
    /// returned LSN forces it out.
    ///
    /// # Errors
    /// As [`propose`](DurableArrangementService::propose).
    pub fn propose_deferred(
        &mut self,
        user: &UserArrival,
    ) -> Result<(Arrangement, u64), ServiceError> {
        let t = self.service.rounds_completed();
        let arrangement = self.service.propose(user)?;
        let contexts = user.contexts.as_slice().to_vec();
        let record = Record::Propose {
            t,
            user_capacity: user.capacity,
            num_events: user.contexts.num_events() as u32,
            dim: user.contexts.dim() as u32,
            context_hash: context_hash(&contexts),
            contexts,
            arrangement: arrangement.iter().map(|v| v.index() as u32).collect(),
        };
        let lsn = self.wal.append_unawaited(record)?;
        Ok((arrangement, lsn))
    }

    /// Records the user's answers for the pending proposal: validated
    /// against the pending arrangement, logged, then applied. See
    /// [`ArrangementService::feedback`] for protocol errors.
    ///
    /// Blocks until the record reaches its policy durability level;
    /// [`feedback_deferred`](DurableArrangementService::feedback_deferred)
    /// pipelines instead.
    ///
    /// # Errors
    /// Protocol violations leave no trace in the log;
    /// [`ServiceError::Store`] poisons the service (drop and reopen).
    pub fn feedback(&mut self, accepted: &[bool]) -> Result<u32, ServiceError> {
        let (rewards, lsn) = self.feedback_deferred(accepted)?;
        self.wal.wait_durable(lsn)?;
        Ok(rewards)
    }

    /// Like [`feedback`](DurableArrangementService::feedback) but does
    /// *not* wait for durability: the feedback is applied to the
    /// learner immediately (the round completes in memory and the next
    /// proposal can be drawn), and the caller receives the `Feedback`
    /// record's LSN to gate its acknowledgement on. A crash before the
    /// record is durable recovers to the pre-feedback state — safe
    /// precisely because the answers were never acknowledged.
    ///
    /// # Errors
    /// As [`feedback`](DurableArrangementService::feedback).
    pub fn feedback_deferred(&mut self, accepted: &[bool]) -> Result<(u32, u64), ServiceError> {
        // Validate *before* logging so an invalid call cannot corrupt
        // the record stream.
        match self.service.pending() {
            None => return Err(ServiceError::NoPendingProposal),
            Some((a, _)) if a.len() != accepted.len() => {
                return Err(ServiceError::FeedbackLengthMismatch {
                    expected: a.len(),
                    got: accepted.len(),
                })
            }
            Some(_) => {}
        }
        let t = self.service.rounds_completed();
        let lsn = self.wal.append(Record::Feedback {
            t,
            accepts: accepted.to_vec(),
        })?;
        let rewards = self.service.feedback(accepted)?;
        Ok((rewards, lsn))
    }

    /// Applies one event-lifecycle action (validate-log-apply, like
    /// feedback): sets `event`'s remaining capacity to `capacity`
    /// (clamped to the instance's planned capacity), durably logging a
    /// `Lifecycle` record first so crash recovery replays the churn
    /// byte-identically. Blocks until the record reaches its policy
    /// durability level. Returns the capacity actually installed.
    ///
    /// Idempotent per round: set-capacity semantics mean a driver that
    /// re-issues the round's churn actions after recovery cannot
    /// corrupt state.
    ///
    /// # Errors
    /// [`ServiceError::FeedbackPending`] while a proposal is in flight,
    /// [`ServiceError::EventOutOfRange`], or [`ServiceError::Store`]
    /// if the append fails (drop and reopen).
    pub fn lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError> {
        // Validate *before* logging so an invalid call cannot corrupt
        // the record stream.
        if self.service.has_pending() {
            return Err(ServiceError::FeedbackPending);
        }
        let num_events = self.service.instance().num_events();
        if event as usize >= num_events {
            return Err(ServiceError::EventOutOfRange { event, num_events });
        }
        let t = self.service.rounds_completed();
        let lsn = self.wal.append(Record::Lifecycle { t, event, capacity })?;
        let installed = self.service.apply_lifecycle(event, capacity)?;
        self.wal.wait_durable(lsn)?;
        Ok(installed)
    }

    /// Clones the full service state into a [`ServiceSnapshot`] image
    /// covering every record below `seq`. Cheap: `O(d²)` policy state
    /// plus the capacity vector.
    fn build_snapshot(&self, seq: u64) -> ServiceSnapshot {
        let accounting = self.service.accounting();
        ServiceSnapshot {
            fingerprint: self.fingerprint,
            seq,
            t: self.service.rounds_completed(),
            rounds: accounting.rounds(),
            arranged: accounting.total_arranged(),
            rewards: accounting.total_rewards(),
            remaining: self.service.remaining().to_vec(),
            pending: self.service.pending().map(|(a, ctx)| PendingProposal {
                arrangement: a.iter().map(|v| v.index() as u32).collect(),
                num_events: ctx.num_events() as u32,
                dim: ctx.dim() as u32,
                contexts: ctx.as_slice().to_vec(),
            }),
            policy_name: self.service.policy().name().to_string(),
            policy_state: self.service.policy().save_state(),
        }
    }

    /// Writes a full service snapshot atomically, then rotates the WAL,
    /// logs a `SnapshotMarker`, compacts fully-covered segments and
    /// prunes old snapshots. Returns the snapshot path. Synchronous on
    /// the calling thread regardless of backend; see
    /// [`snapshot_async`](DurableArrangementService::snapshot_async)
    /// for the non-blocking variant.
    ///
    /// # Errors
    /// [`ServiceError::Store`] on any I/O failure; an existing snapshot
    /// is never damaged (temp-file + rename).
    pub fn snapshot(&mut self) -> Result<PathBuf, ServiceError> {
        let seq = self.wal.next_seq();
        let snap = self.build_snapshot(seq);
        let keep = self.options.snapshots_kept.max(1);
        match &mut self.wal {
            WalBackend::Direct(wal) => {
                // Everything the snapshot covers must be durable first.
                wal.sync()?;
                let path = snap.write_atomic(&self.dir)?;
                wal.rotate()?;
                wal.append(&Record::SnapshotMarker { snapshot_seq: seq })?;
                wal.compact_below(seq)?;
                prune_snapshots(&self.dir, keep)?;
                Ok(path)
            }
            WalBackend::Grouped(group) => {
                // Same cycle the background snapshotter runs, inline.
                run_snapshot(group, &self.dir, keep, snap).map_err(ServiceError::from)
            }
        }
    }

    /// Hands a snapshot image to the background snapshotter and returns
    /// immediately; the write/rename/rotate/compact cycle runs off the
    /// round loop, and completion is visible via
    /// [`snapshot_published_seq`](DurableArrangementService::snapshot_published_seq).
    /// Without group commit there is no snapshotter thread, so this
    /// falls back to the synchronous
    /// [`snapshot`](DurableArrangementService::snapshot).
    ///
    /// # Errors
    /// [`ServiceError::Store`] — for the async path, only a *previous*
    /// background snapshot failure is reported here; the current
    /// request's failure surfaces on the next call or at close.
    pub fn snapshot_async(&mut self) -> Result<(), ServiceError> {
        match &self.snapshotter {
            Some(snapshotter) => {
                let seq = self.wal.next_seq();
                let image = self.build_snapshot(seq);
                snapshotter.request(image).map_err(ServiceError::from)
            }
            None => self.snapshot().map(|_| ()),
        }
    }

    /// Seq covered by the newest *completed* background snapshot (0
    /// before the first one; always 0 without group commit — the
    /// synchronous path returns its result directly).
    pub fn snapshot_published_seq(&self) -> u64 {
        self.snapshotter.as_ref().map_or(0, |s| s.published_seq())
    }

    /// Forces all appended records to stable storage regardless of the
    /// fsync policy. With group commit this is a barrier through the
    /// commit queue: on return everything previously appended is
    /// fsynced.
    ///
    /// # Errors
    /// [`ServiceError::Store`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), ServiceError> {
        self.wal.sync().map_err(ServiceError::from)
    }

    /// The durability watermark: records with LSN strictly below this
    /// have reached the level the fsync policy promises. Gate external
    /// acknowledgements of `_deferred` results on it. Lock-free.
    pub fn durable_lsn(&self) -> u64 {
        self.wal.durable_lsn()
    }

    /// Blocks until `lsn` is covered by the watermark. No-op without
    /// group commit.
    ///
    /// # Errors
    /// The pipeline's poisoning error — the record may or may not be on
    /// disk, so the caller must not acknowledge it.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), ServiceError> {
        self.wal.wait_durable(lsn).map_err(ServiceError::from)
    }

    /// `true` if appends run through the group-commit pipeline.
    pub fn group_commit_enabled(&self) -> bool {
        matches!(self.wal, WalBackend::Grouped(_))
    }

    /// Installs (or clears) the group-commit batch observer, invoked by
    /// the syncer after each published batch with `(batch_size,
    /// commit_latency)`. No-op without group commit.
    pub fn set_commit_observer(&self, observer: Option<CommitObserver>) {
        if let WalBackend::Grouped(g) = &self.wal {
            g.set_commit_observer(observer);
        }
    }

    /// Installs (or clears) the watermark-advance notifier, invoked by
    /// the syncer with the new watermark after each published batch.
    /// No-op without group commit.
    pub fn set_commit_notifier(&self, notifier: Option<CommitNotifier>) {
        if let WalBackend::Grouped(g) = &self.wal {
            g.set_commit_notifier(notifier);
        }
    }

    /// The wrapped in-memory service (all read accessors).
    pub fn service(&self) -> &ArrangementService {
        &self.service
    }

    /// Installs (or removes) an external [`fasea_bandit::Arranger`] in
    /// the wrapped policy's workspace (see
    /// [`ArrangementService::install_arranger`]). The sharded
    /// coordinator installs its router here *after* `open` — recovery
    /// replay runs the local oracle, which produces identical
    /// arrangements by the arranger contract.
    pub fn install_arranger(
        &mut self,
        arranger: Option<std::sync::Arc<dyn fasea_bandit::Arranger>>,
    ) {
        self.service.install_arranger(arranger);
    }

    /// `true` if a proposal awaits feedback — including one recovered
    /// from a log that ended mid-round. The caller decides how to
    /// resolve it; the service never silently re-proposes.
    pub fn has_pending(&self) -> bool {
        self.service.has_pending()
    }

    /// The pending arrangement, if any (e.g. to re-deliver it to the
    /// user after a crash).
    pub fn pending_arrangement(&self) -> Option<&Arrangement> {
        self.service.pending().map(|(a, _)| a)
    }

    /// Rounds completed (proposal + feedback pairs).
    pub fn rounds_completed(&self) -> u64 {
        self.service.rounds_completed()
    }

    /// This service's instance fingerprint (diagnostics).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The WAL sequence number the next append will receive
    /// (diagnostics/tests).
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// A point-in-time health summary (round counter, pending state,
    /// capacity headroom, accounting totals). Plain data, safe to ship
    /// across threads or the wire.
    pub fn health(&self) -> ServiceHealth {
        let accounting = self.service.accounting();
        ServiceHealth {
            policy_name: self.service.policy_name().to_string(),
            fingerprint: self.fingerprint,
            rounds_completed: self.service.rounds_completed(),
            has_pending: self.service.has_pending(),
            available_events: self.service.available_events(),
            remaining_total: self.service.remaining().iter().map(|&c| c as u64).sum(),
            total_arranged: accounting.total_arranged(),
            total_rewards: accounting.total_rewards(),
            next_seq: self.wal.next_seq(),
            durable_lsn: self.wal.durable_lsn(),
        }
    }

    /// Graceful shutdown: joins the snapshotter and commit syncer (if
    /// group commit is on — every queued record is drained first),
    /// forces every appended record to stable storage, writes a final
    /// snapshot (so the next open skips replay), and consumes the
    /// service. Returns the snapshot path.
    ///
    /// A snapshot is only written once at least one record exists —
    /// closing a service that never completed a round leaves the
    /// directory untouched and returns `None`.
    ///
    /// # Errors
    /// [`ServiceError::Store`] on any I/O failure; the WAL is synced
    /// before snapshotting, so even a failed snapshot loses nothing.
    pub fn close(self) -> Result<Option<PathBuf>, ServiceError> {
        let DurableArrangementService {
            service,
            wal,
            snapshotter,
            dir,
            fingerprint,
            options,
        } = self;
        // Join the snapshotter first: it drops its `GroupCommitWal`
        // handle, making the syncer uniquely owned below.
        if let Some(s) = snapshotter {
            s.close()?;
        }
        let wal = match wal {
            WalBackend::Direct(w) => w,
            WalBackend::Grouped(g) => Arc::try_unwrap(g)
                .expect("group-commit handle uniquely owned after snapshotter join")
                .close()?,
        };
        // Collapse to the direct backend for the final synchronous
        // snapshot — the syncer is gone, so the Wal is single-threaded
        // again.
        let mut svc = DurableArrangementService {
            service,
            wal: WalBackend::Direct(wal),
            snapshotter: None,
            dir,
            fingerprint,
            options,
        };
        svc.wal.sync()?;
        if svc.wal.next_seq() == 0 {
            return Ok(None);
        }
        svc.snapshot().map(Some)
    }
}

fn pending_to_domain(p: &PendingProposal) -> Result<(Arrangement, ContextMatrix), ServiceError> {
    let n = p.num_events as usize;
    let d = p.dim as usize;
    if p.contexts.len() != n * d || p.arrangement.iter().any(|&v| v as usize >= n) {
        return Err(ServiceError::ContextShapeMismatch);
    }
    let ctx = ContextMatrix::from_rows(n, d, p.contexts.clone());
    let arrangement =
        Arrangement::new(p.arrangement.iter().map(|&v| EventId(v as usize)).collect());
    Ok((arrangement, ctx))
}

/// Replays the WAL suffix (`seq >= replay_from`) through the live
/// service, re-executing proposals and verifying them against the log.
fn replay(
    service: &mut ArrangementService,
    recovered: &Recovered,
    replay_from: u64,
) -> Result<(), ServiceError> {
    for (seq, record) in &recovered.records {
        if *seq < replay_from {
            continue;
        }
        let seq = *seq;
        match record {
            Record::SnapshotMarker { .. } => {}
            Record::Propose {
                t,
                user_capacity,
                num_events,
                dim,
                contexts,
                arrangement,
                context_hash: logged_hash,
            } => {
                if *t != service.rounds_completed() {
                    return Err(ServiceError::RecoveryDiverged {
                        seq,
                        detail: format!(
                            "Propose for round {t} but service is at round {}",
                            service.rounds_completed()
                        ),
                    });
                }
                if context_hash(contexts) != *logged_hash {
                    return Err(ServiceError::RecoveryDiverged {
                        seq,
                        detail: "context hash mismatch inside a CRC-valid record".to_string(),
                    });
                }
                let n = *num_events as usize;
                let d = *dim as usize;
                if contexts.len() != n * d {
                    return Err(ServiceError::RecoveryDiverged {
                        seq,
                        detail: "context block shape is inconsistent".to_string(),
                    });
                }
                let user = UserArrival::new(
                    *user_capacity,
                    ContextMatrix::from_rows(n, d, contexts.clone()),
                );
                let replayed = service.propose(&user)?;
                let logged: Vec<EventId> =
                    arrangement.iter().map(|&v| EventId(v as usize)).collect();
                if replayed.events() != logged.as_slice() {
                    return Err(ServiceError::RecoveryDiverged {
                        seq,
                        detail: format!(
                            "replayed arrangement {:?} != logged {:?}",
                            replayed.events(),
                            logged
                        ),
                    });
                }
            }
            Record::Feedback { t, accepts } => {
                if *t != service.rounds_completed() {
                    return Err(ServiceError::RecoveryDiverged {
                        seq,
                        detail: format!(
                            "Feedback for round {t} but service is at round {}",
                            service.rounds_completed()
                        ),
                    });
                }
                service.feedback(accepts).map_err(|e| match e {
                    // A protocol error during replay is log damage, not
                    // a caller mistake.
                    ServiceError::NoPendingProposal
                    | ServiceError::FeedbackLengthMismatch { .. } => {
                        ServiceError::RecoveryDiverged {
                            seq,
                            detail: format!("feedback replay rejected: {e}"),
                        }
                    }
                    other => other,
                })?;
            }
            Record::Lifecycle { t, event, capacity } => {
                if *t != service.rounds_completed() {
                    return Err(ServiceError::RecoveryDiverged {
                        seq,
                        detail: format!(
                            "Lifecycle for round {t} but service is at round {}",
                            service.rounds_completed()
                        ),
                    });
                }
                service.apply_lifecycle(*event, *capacity).map_err(|e| {
                    ServiceError::RecoveryDiverged {
                        seq,
                        detail: format!("lifecycle replay rejected: {e}"),
                    }
                })?;
            }
            // Transaction records belong to *shard* logs (fasea-shard);
            // one in a coordinator/single-service log is damage.
            Record::TxnPrepare { .. } | Record::TxnCommit { .. } | Record::TxnAbort { .. } => {
                return Err(ServiceError::RecoveryDiverged {
                    seq,
                    detail: format!("{} record in a service round log", record.kind()),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_bandit::{LinUcb, ThompsonSampling};
    use fasea_core::{ConflictGraph, ProblemMode};
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fasea-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn instance() -> ProblemInstance {
        ProblemInstance::new(
            vec![30, 30, 30, 30],
            ConflictGraph::from_pairs(4, &[(0, 3)]),
            2,
            ProblemMode::Fasea,
        )
    }

    fn arrival(round: u64) -> UserArrival {
        let mut ctx = ContextMatrix::from_fn(4, 2, |v, j| {
            (((round as usize * 5 + v * 3 + j) % 7) as f64) / 7.0 - 0.2
        });
        ctx.normalize_rows();
        UserArrival::new(2, ctx)
    }

    fn accepts_for(round: u64, a: &Arrangement) -> Vec<bool> {
        a.iter()
            .map(|v| (round as usize + v.index()).is_multiple_of(3))
            .collect()
    }

    fn ts_policy() -> Box<dyn Policy> {
        Box::new(ThompsonSampling::new(2, 1.0, 0.1, 17))
    }

    #[test]
    fn fresh_open_then_reopen_resumes_identically() {
        let dir = tmp("resume");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let reference_state;
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
            for round in 0..25 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
            }
            reference_state = svc.service().policy().save_state();
        }
        // Reopen (clean shutdown) and verify everything matches.
        let mut svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 25);
        assert_eq!(svc.service().policy().save_state(), reference_state);
        assert!(!svc.has_pending());
        // The recovered service keeps serving.
        let a = svc.propose(&arrival(25)).unwrap();
        svc.feedback(&accepts_for(25, &a)).unwrap();
        assert_eq!(svc.rounds_completed(), 26);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_round_surfaces_pending_proposal() {
        let dir = tmp("pending");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Always,
            ..Default::default()
        };
        let proposed;
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
            for round in 0..5 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
            }
            proposed = svc.propose(&arrival(5)).unwrap();
            // Drop without feedback: crash mid-round.
        }
        let mut svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert!(
            svc.has_pending(),
            "recovered service must surface the pending round"
        );
        assert_eq!(
            svc.pending_arrangement().unwrap().events(),
            proposed.events()
        );
        assert_eq!(svc.rounds_completed(), 5);
        // Double-propose is still rejected; feedback completes it.
        assert!(matches!(
            svc.propose(&arrival(6)),
            Err(ServiceError::FeedbackPending)
        ));
        svc.feedback(&accepts_for(5, &proposed)).unwrap();
        assert_eq!(svc.rounds_completed(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_recovery_uses_it() {
        let dir = tmp("snapshot");
        let opts = DurableOptions::new()
            .with_segment_bytes(512)
            .with_fsync(FsyncPolicy::Never)
            .with_snapshots_kept(1);
        let reference_state;
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
            for round in 0..30 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
                if round % 10 == 9 {
                    svc.snapshot().unwrap();
                }
            }
            reference_state = svc.service().policy().save_state();
        }
        // Compaction actually removed early segments.
        let segments: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .collect();
        assert!(
            segments.len() < 4,
            "expected compaction to leave few segments, found {}",
            segments.len()
        );
        let svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 30);
        assert_eq!(svc.service().policy().save_state(), reference_state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn instance_too_wide_to_log_is_refused_at_open() {
        // Two events of a million dimensions: one Propose record would
        // carry ~17.6 MB of contexts, above the 16 MiB frame limit.
        let dir = tmp("too-wide");
        let dim = 1_100_000;
        let wide = ProblemInstance::new(
            vec![1, 1],
            ConflictGraph::from_pairs(2, &[]),
            dim,
            ProblemMode::Fasea,
        );
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        match DurableArrangementService::open(&dir, wide, ts_policy(), opts) {
            Err(ServiceError::InstanceTooWide {
                record_bytes,
                limit,
            }) => {
                assert_eq!(record_bytes, propose_payload_len(2, dim, 2));
                assert_eq!(limit, MAX_PAYLOAD);
            }
            Err(other) => panic!("expected InstanceTooWide, got {other:?}"),
            Ok(_) => panic!("a too-wide instance was opened"),
        }
        assert!(!dir.exists(), "a refused open must not touch the directory");
    }

    #[test]
    fn foreign_instance_rejected() {
        let dir = tmp("foreign");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
            let a = svc.propose(&arrival(0)).unwrap();
            svc.feedback(&accepts_for(0, &a)).unwrap();
            svc.sync().unwrap();
        }
        // Different capacities => different fingerprint => rejected.
        let other = ProblemInstance::new(
            vec![5, 5, 5, 5],
            ConflictGraph::from_pairs(4, &[(0, 3)]),
            2,
            ProblemMode::Fasea,
        );
        assert!(matches!(
            DurableArrangementService::open(&dir, other, ts_policy(), opts),
            Err(ServiceError::Store(
                fasea_store::StoreError::ForeignInstance { .. }
            ))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn divergent_policy_seed_detected_on_replay() {
        let dir = tmp("diverge");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
            for round in 0..10 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
            }
            svc.sync().unwrap();
        }
        // Same policy name (same fingerprint) but different seed: the
        // replayed decisions will not match the logged ones.
        let wrong_seed: Box<dyn Policy> = Box::new(ThompsonSampling::new(2, 1.0, 0.1, 9999));
        match DurableArrangementService::open(&dir, instance(), wrong_seed, opts) {
            Err(ServiceError::RecoveryDiverged { .. }) => {}
            other => panic!("expected RecoveryDiverged, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn health_reflects_state_and_close_snapshots() {
        let dir = tmp("health");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let mut svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        let fresh = svc.health();
        assert_eq!(fresh.rounds_completed, 0);
        assert!(!fresh.has_pending);
        assert_eq!(fresh.policy_name, "TS");
        assert_eq!(fresh.remaining_total, 120);
        for round in 0..8 {
            let a = svc.propose(&arrival(round)).unwrap();
            svc.feedback(&accepts_for(round, &a)).unwrap();
        }
        let a = svc.propose(&arrival(8)).unwrap();
        let h = svc.health();
        assert_eq!(h.rounds_completed, 8);
        assert!(h.has_pending);
        assert_eq!(h.fingerprint, svc.fingerprint());
        assert!(h.total_arranged >= h.total_rewards);
        svc.feedback(&accepts_for(8, &a)).unwrap();
        let reference_state = svc.service().policy().save_state();
        // Graceful close writes a snapshot; reopen resumes from it.
        let snap = svc.close().unwrap();
        assert!(snap.is_some(), "close after rounds must snapshot");
        let svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 9);
        assert_eq!(svc.service().policy().save_state(), reference_state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_on_untouched_service_writes_nothing() {
        let dir = tmp("close-empty");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.close().unwrap(), None);
        let snapshots: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("snap"))
            .collect();
        assert!(snapshots.is_empty(), "no snapshot for an untouched service");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_run_recovers_identically_to_direct_run() {
        // The same workload through the group-commit pipeline must
        // leave a log that recovers to byte-identical policy state —
        // and the blocking API must keep acked-implies-durable (the
        // watermark covers every completed call).
        let direct_dir = tmp("gc-direct");
        let grouped_dir = tmp("gc-grouped");
        let direct_opts = DurableOptions {
            fsync: FsyncPolicy::Always,
            ..Default::default()
        };
        let grouped_opts = direct_opts.with_group_commit(true);

        let reference_state;
        {
            let mut svc =
                DurableArrangementService::open(&direct_dir, instance(), ts_policy(), direct_opts)
                    .unwrap();
            for round in 0..20 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
            }
            reference_state = svc.service().policy().save_state();
        }
        {
            let mut svc = DurableArrangementService::open(
                &grouped_dir,
                instance(),
                ts_policy(),
                grouped_opts,
            )
            .unwrap();
            assert!(svc.group_commit_enabled());
            for round in 0..20 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
                // Blocking API: the watermark covers everything acked.
                assert_eq!(svc.durable_lsn(), svc.next_seq());
            }
            assert_eq!(svc.service().policy().save_state(), reference_state);
            // Simulated crash: drop without close; the syncer drains.
        }
        let svc =
            DurableArrangementService::open(&grouped_dir, instance(), ts_policy(), grouped_opts)
                .unwrap();
        assert_eq!(svc.rounds_completed(), 20);
        assert_eq!(svc.service().policy().save_state(), reference_state);
        fs::remove_dir_all(&direct_dir).unwrap();
        fs::remove_dir_all(&grouped_dir).unwrap();
    }

    #[test]
    fn deferred_rounds_pipeline_and_watermark_gates_acks() {
        let dir = tmp("gc-deferred");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Always,
            ..Default::default()
        }
        .with_group_commit(true);
        let reference_state;
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
            let mut last_lsn = 0;
            for round in 0..30 {
                // No waiting between rounds: the round loop runs ahead
                // of the disk, replies would be gated on the LSNs.
                let (a, propose_lsn) = svc.propose_deferred(&arrival(round)).unwrap();
                let (_, feedback_lsn) = svc.feedback_deferred(&accepts_for(round, &a)).unwrap();
                assert_eq!(feedback_lsn, propose_lsn + 1);
                last_lsn = feedback_lsn;
            }
            svc.wait_durable(last_lsn).unwrap();
            assert!(svc.durable_lsn() > last_lsn);
            reference_state = svc.service().policy().save_state();
            let snap = svc.close().unwrap();
            assert!(snap.is_some());
        }
        let svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 30);
        assert_eq!(svc.service().policy().save_state(), reference_state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blocking_propose_under_group_commit_returns_durable() {
        // `propose` appends a record nobody else waits on; its own wait
        // must force the fsync instead of hanging for a feedback.
        let dir = tmp("gc-blocking-propose");
        let opts = DurableOptions::new()
            .with_fsync(FsyncPolicy::Always)
            .with_group_commit(true);
        let mut svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        for round in 0..3 {
            let a = svc.propose(&arrival(round)).unwrap();
            assert_eq!(svc.durable_lsn(), svc.next_seq(), "round {round}");
            svc.feedback(&accepts_for(round, &a)).unwrap();
            assert_eq!(svc.durable_lsn(), svc.next_seq(), "round {round}");
        }
        // A deferred proposal alone stays unpublished until waited on.
        let (_, lsn) = svc.propose_deferred(&arrival(3)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(svc.durable_lsn(), lsn);
        svc.wait_durable(lsn).unwrap();
        assert_eq!(svc.durable_lsn(), lsn + 1);
        svc.close().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn async_snapshot_compacts_in_background_and_recovers() {
        let dir = tmp("gc-async-snap");
        let opts = DurableOptions::new()
            .with_segment_bytes(512)
            .with_fsync(FsyncPolicy::Never)
            .with_snapshots_kept(1)
            .with_group_commit(true);
        let reference_state;
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
            for round in 0..30 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
                if round % 10 == 9 {
                    svc.snapshot_async().unwrap();
                }
            }
            // Wait for the last background snapshot to publish, then
            // verify it actually compacted.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while svc.snapshot_published_seq() < 40 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "background snapshot never published (at {})",
                    svc.snapshot_published_seq()
                );
                std::thread::yield_now();
            }
            reference_state = svc.service().policy().save_state();
            svc.close().unwrap();
        }
        let segments: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .collect();
        assert!(
            segments.len() < 4,
            "expected background compaction to leave few segments, found {}",
            segments.len()
        );
        let svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 30);
        assert_eq!(svc.service().policy().save_state(), reference_state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_joins_syncer_and_snapshotter() {
        let dir = tmp("gc-join");
        let opts = DurableOptions::new()
            .with_fsync(FsyncPolicy::EveryN(8))
            .with_group_commit(true);
        let mut svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert!(fasea_store::live_commit_syncers() >= 1);
        assert!(crate::live_snapshotters() >= 1);
        for round in 0..10 {
            let (a, _) = svc.propose_deferred(&arrival(round)).unwrap();
            svc.feedback_deferred(&accepts_for(round, &a)).unwrap();
        }
        svc.snapshot_async().unwrap();
        // Close must drain the queue, finish the snapshot, and join
        // both threads — nothing may be lost.
        svc.close().unwrap();
        let svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lifecycle_records_replay_byte_identically() {
        // Interleave churn with rounds, crash (drop without close),
        // reopen: the recovered state must equal the uninterrupted run.
        let dir = tmp("lifecycle");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let churn = [(3u64, 2u32, 0u32), (3, 0, 1), (7, 2, 30), (11, 1, 0)];
        let run = |dir: &Path, rounds: std::ops::Range<u64>| {
            let mut svc =
                DurableArrangementService::open(dir, instance(), ts_policy(), opts).unwrap();
            for round in rounds {
                for &(at, event, cap) in &churn {
                    if at == round {
                        svc.lifecycle(event, cap).unwrap();
                    }
                }
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
            }
            svc
        };
        let reference_dir = tmp("lifecycle-ref");
        let reference = run(&reference_dir, 0..20);
        let ref_state = reference.service().policy().save_state();
        let ref_remaining = reference.service().remaining().to_vec();
        drop(reference);

        {
            let svc = run(&dir, 0..13);
            drop(svc); // crash: no close, no snapshot
        }
        let mut svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 13);
        for round in 13..20 {
            let a = svc.propose(&arrival(round)).unwrap();
            svc.feedback(&accepts_for(round, &a)).unwrap();
        }
        assert_eq!(svc.service().remaining(), &ref_remaining[..]);
        assert_eq!(svc.service().policy().save_state(), ref_state);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&reference_dir).unwrap();
    }

    #[test]
    fn lifecycle_validates_before_logging() {
        let dir = tmp("lifecycle-validate");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let mut svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert!(matches!(
            svc.lifecycle(99, 1),
            Err(ServiceError::EventOutOfRange { .. })
        ));
        let a = svc.propose(&arrival(0)).unwrap();
        assert!(matches!(
            svc.lifecycle(0, 1),
            Err(ServiceError::FeedbackPending)
        ));
        svc.feedback(&accepts_for(0, &a)).unwrap();
        // Re-open clamps to planned capacity (30 in `instance()`).
        assert_eq!(svc.lifecycle(0, 99).unwrap(), 30);
        // Neither rejected call left a record behind: reopen replays
        // cleanly.
        drop(svc);
        let svc = DurableArrangementService::open(&dir, instance(), ts_policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_greedy_oracle_changes_fingerprint_and_recovers() {
        let dir = tmp("oracle-tabu");
        let greedy_opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let tabu_opts = greedy_opts.with_oracle(fasea_bandit::OracleOptions::tabu());
        {
            let mut svc =
                DurableArrangementService::open(&dir, instance(), ts_policy(), tabu_opts).unwrap();
            for round in 0..15 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
            }
            svc.sync().unwrap();
        }
        // A greedy-configured open must refuse the tabu log (different
        // fingerprint), not silently diverge.
        assert!(matches!(
            DurableArrangementService::open(&dir, instance(), ts_policy(), greedy_opts),
            Err(ServiceError::Store(
                fasea_store::StoreError::ForeignInstance { .. }
            ))
        ));
        // The matching oracle replays the log through TabuOracle.
        let svc =
            DurableArrangementService::open(&dir, instance(), ts_policy(), tabu_opts).unwrap();
        assert_eq!(svc.rounds_completed(), 15);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deterministic_policy_recovers_without_snapshot_support_too() {
        // LinUcb is RNG-free: pure replay (no snapshot taken) must
        // land in the same state as the uninterrupted run.
        let dir = tmp("ucb");
        let opts = DurableOptions {
            fsync: FsyncPolicy::EveryN(3),
            ..Default::default()
        };
        let ucb = || -> Box<dyn Policy> { Box::new(LinUcb::new(2, 1.0, 2.0)) };
        let reference_state;
        {
            let mut svc = DurableArrangementService::open(&dir, instance(), ucb(), opts).unwrap();
            for round in 0..20 {
                let a = svc.propose(&arrival(round)).unwrap();
                svc.feedback(&accepts_for(round, &a)).unwrap();
            }
            reference_state = svc.service().policy().save_state();
        }
        let svc = DurableArrangementService::open(&dir, instance(), ucb(), opts).unwrap();
        assert_eq!(svc.service().policy().save_state(), reference_state);
        fs::remove_dir_all(&dir).unwrap();
    }
}
