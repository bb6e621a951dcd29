//! A production-style arrangement service.
//!
//! [`crate::runner`] drives policies against a *simulated* platform.
//! This module is the inverse packaging: an [`ArrangementService`] wraps
//! one policy and the live platform state (remaining capacities,
//! conflicts) behind the two calls a real EBSN backend would make —
//! `propose` when a user logs in, `feedback` when their
//! accept/reject decisions come back — enforcing the FASEA protocol
//! (Definition 3) at the API boundary:
//!
//! * arrangements are validated against capacities and conflicts before
//!   leaving the service;
//! * a proposal is **irrevocable**: the next proposal can only be made
//!   after feedback for the previous one has been recorded;
//! * feedback must match the pending arrangement slot-for-slot;
//! * accepted events decrement shared remaining capacity.
//!
//! The `arrangement_service` example wraps this in a line-oriented
//! stdin/stdout protocol.

use fasea_bandit::{Policy, SelectionView, SnapshotError};
use fasea_core::{
    validate_arrangement, Arrangement, ContextMatrix, EventId, Feedback, ProblemInstance,
    RegretAccounting, UserArrival,
};
use fasea_store::StoreError;
use std::fmt;
use std::sync::Arc;

/// Protocol violations and invariant breaches surfaced by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// `propose` was called while an earlier proposal still awaits
    /// feedback (arrangements are irrevocable and strictly sequential).
    FeedbackPending,
    /// `feedback` was called with no outstanding proposal.
    NoPendingProposal,
    /// Feedback length does not match the pending arrangement.
    FeedbackLengthMismatch {
        /// Slots in the pending arrangement.
        expected: usize,
        /// Slots supplied.
        got: usize,
    },
    /// The context block does not match the instance (|V| or d), or
    /// carries a non-finite entry (no estimator can learn from it).
    ContextShapeMismatch,
    /// The wrapped policy produced an infeasible arrangement — a policy
    /// bug that the service refuses to expose to users.
    PolicyProducedInfeasible(String),
    /// The durable store failed (I/O, corruption, foreign log, …).
    Store(StoreError),
    /// A state snapshot could not be decoded or restored.
    Snapshot(SnapshotError),
    /// Deterministic WAL replay produced a different decision than the
    /// logged one — the policy, RNG stream, or numeric environment
    /// changed since the log was written, and recovery refuses to
    /// fabricate history.
    RecoveryDiverged {
        /// WAL sequence number of the diverging record.
        seq: u64,
        /// What differed.
        detail: String,
    },
    /// The persisted state belongs to a different policy than the one
    /// supplied for recovery.
    PolicyMismatch {
        /// Policy name in the persisted state.
        expected: String,
        /// Name of the policy supplied.
        found: String,
    },
    /// The instance is too wide to log: a `Propose` record carrying its
    /// full context block and a full-width arrangement would exceed the
    /// WAL's per-record limit ([`fasea_store::record::MAX_PAYLOAD`]).
    InstanceTooWide {
        /// Payload bytes of the largest `Propose` record.
        record_bytes: u64,
        /// The per-record payload limit in bytes.
        limit: u32,
    },
    /// A lifecycle action named an event outside the instance.
    EventOutOfRange {
        /// The offending event id.
        event: u32,
        /// Number of events in the instance.
        num_events: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::FeedbackPending => {
                write!(f, "previous arrangement still awaits feedback")
            }
            ServiceError::NoPendingProposal => write!(f, "no arrangement awaiting feedback"),
            ServiceError::FeedbackLengthMismatch { expected, got } => {
                write!(f, "feedback for {got} events but {expected} were arranged")
            }
            ServiceError::ContextShapeMismatch => {
                write!(
                    f,
                    "context block does not match the instance shape or is not finite"
                )
            }
            ServiceError::PolicyProducedInfeasible(why) => {
                write!(f, "policy produced an infeasible arrangement: {why}")
            }
            ServiceError::Store(e) => write!(f, "durable store failure: {e}"),
            ServiceError::Snapshot(e) => write!(f, "snapshot failure: {e}"),
            ServiceError::RecoveryDiverged { seq, detail } => {
                write!(f, "replay diverged from the log at seq {seq}: {detail}")
            }
            ServiceError::PolicyMismatch { expected, found } => {
                write!(
                    f,
                    "persisted state is for policy {expected:?}, not {found:?}"
                )
            }
            ServiceError::InstanceTooWide {
                record_bytes,
                limit,
            } => write!(
                f,
                "instance too wide to log: a Propose record would be {record_bytes} bytes, \
                 above the {limit}-byte WAL record limit"
            ),
            ServiceError::EventOutOfRange { event, num_events } => {
                write!(
                    f,
                    "lifecycle action names event {event} but the instance has {num_events} events"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl From<SnapshotError> for ServiceError {
    fn from(e: SnapshotError) -> Self {
        ServiceError::Snapshot(e)
    }
}

/// The live arrangement service.
pub struct ArrangementService {
    policy: Box<dyn Policy>,
    instance: ProblemInstance,
    remaining: Vec<u32>,
    t: u64,
    /// The arrangement awaiting feedback, if any.
    pending: Option<Arrangement>,
    /// Full-shape context block reused across rounds: zero except for
    /// the pending arrangement's rows, which hold the contexts `select`
    /// saw. `observe` reads only those rows, so a round copies `c_u`
    /// rows instead of the whole `|V|·d` block.
    pending_contexts: ContextMatrix,
    accounting: RegretAccounting,
    // Selection buffer reused across proposals; the policy's own
    // workspace holds the scoring scratch, so a proposal's hot path
    // allocates only the pending/returned arrangement copies.
    scratch: Arrangement,
}

impl ArrangementService {
    /// Creates the service with full capacities.
    pub fn new(instance: ProblemInstance, policy: Box<dyn Policy>) -> Self {
        let remaining = instance.capacities().to_vec();
        let pending_contexts = ContextMatrix::zeros(instance.num_events(), instance.dim());
        ArrangementService {
            policy,
            instance,
            remaining,
            t: 0,
            pending: None,
            pending_contexts,
            accounting: RegretAccounting::new(),
            scratch: Arrangement::empty(),
        }
    }

    /// The wrapped policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Rounds completed (proposal + feedback pairs).
    pub fn rounds_completed(&self) -> u64 {
        self.t
    }

    /// Remaining capacity per event.
    pub fn remaining(&self) -> &[u32] {
        &self.remaining
    }

    /// Cumulative accounting over completed rounds.
    pub fn accounting(&self) -> &RegretAccounting {
        &self.accounting
    }

    /// `true` if a proposal awaits feedback.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The pending proposal and its context block, if a proposal awaits
    /// feedback. The block has the instance's full shape, but only the
    /// arranged events' rows are the contexts the proposal was computed
    /// from; every other row is zero. Those rows are all that
    /// [`Policy::observe`] reads, and all a snapshot needs to finish the
    /// round.
    pub fn pending(&self) -> Option<(&Arrangement, &ContextMatrix)> {
        self.pending.as_ref().map(|a| (a, &self.pending_contexts))
    }

    /// Read access to the wrapped policy (state snapshots).
    pub fn policy(&self) -> &dyn Policy {
        self.policy.as_ref()
    }

    /// Installs (or removes, with `None`) an external
    /// [`fasea_bandit::Arranger`] in the wrapped policy's workspace —
    /// the seam the sharded coordinator uses to fan the Oracle-Greedy
    /// top-k ranking out over shard actors. The arranger contract
    /// (arrangements equal to the serial oracle) means this too can be
    /// flipped at any round boundary without perturbing decisions.
    pub fn install_arranger(&mut self, arranger: Option<Arc<dyn fasea_bandit::Arranger>>) {
        self.policy.workspace_mut().set_arranger(arranger);
    }

    /// Installs (or removes, with `None`) an [`fasea_bandit::Oracle`]
    /// in the wrapped policy's workspace — the arrangement step every
    /// selection runs through. `None` (and an explicit
    /// [`fasea_bandit::GreedyOracle`]) keep the paper's Oracle-Greedy
    /// behaviour bit-for-bit; a different oracle changes decisions and
    /// therefore belongs in the durable fingerprint (see
    /// [`crate::durable::DurableOptions::with_oracle`]).
    pub fn install_oracle(&mut self, oracle: Option<Arc<dyn fasea_bandit::Oracle>>) {
        self.policy.workspace_mut().set_oracle(oracle);
    }

    /// Applies one event-lifecycle action at a round boundary: sets
    /// `event`'s remaining capacity to `capacity`, clamped to the
    /// instance's planned capacity (a re-plan can shrink, close, or
    /// restore an event, never grow it beyond the fingerprinted
    /// instance). Set-capacity semantics make re-application
    /// idempotent. Returns the capacity actually installed.
    ///
    /// # Errors
    /// [`ServiceError::FeedbackPending`] if a proposal is in flight
    /// (capacities under a pending arrangement are frozen — mutating
    /// them could invalidate an irrevocable proposal), or
    /// [`ServiceError::EventOutOfRange`].
    pub fn apply_lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError> {
        if self.pending.is_some() {
            return Err(ServiceError::FeedbackPending);
        }
        let e = event as usize;
        if e >= self.remaining.len() {
            return Err(ServiceError::EventOutOfRange {
                event,
                num_events: self.remaining.len(),
            });
        }
        let clamped = capacity.min(self.instance.capacities()[e]);
        self.remaining[e] = clamped;
        Ok(clamped)
    }

    /// The immutable problem description this service runs on.
    pub fn instance(&self) -> &ProblemInstance {
        &self.instance
    }

    /// Reassembles a service from recovered state: a policy whose
    /// learning state was already restored, the remaining capacities,
    /// the round counter, the pending proposal (if the service went
    /// down mid-round), and the accounting totals. Used by
    /// [`crate::durable::DurableArrangementService`] after loading a
    /// snapshot; prefer [`ArrangementService::new`] everywhere else.
    ///
    /// # Errors
    /// [`ServiceError::ContextShapeMismatch`] if `remaining` or the
    /// pending context block do not match the instance shape, or if any
    /// recovered remaining capacity exceeds the instance capacity. Only
    /// the pending arrangement's rows of the block are kept.
    pub fn from_parts(
        instance: ProblemInstance,
        policy: Box<dyn Policy>,
        remaining: Vec<u32>,
        t: u64,
        pending: Option<(Arrangement, ContextMatrix)>,
        accounting: RegretAccounting,
    ) -> Result<Self, ServiceError> {
        if remaining.len() != instance.num_events()
            || remaining
                .iter()
                .zip(instance.capacities())
                .any(|(&r, &c)| r > c)
        {
            return Err(ServiceError::ContextShapeMismatch);
        }
        let mut pending_contexts = ContextMatrix::zeros(instance.num_events(), instance.dim());
        if let Some((a, ctx)) = &pending {
            if ctx.num_events() != instance.num_events()
                || ctx.dim() != instance.dim()
                || a.iter().any(|v| v.index() >= instance.num_events())
            {
                return Err(ServiceError::ContextShapeMismatch);
            }
            for v in a.iter() {
                pending_contexts
                    .context_mut(v)
                    .copy_from_slice(ctx.context(v));
            }
        }
        Ok(ArrangementService {
            policy,
            instance,
            remaining,
            t,
            pending: pending.map(|(a, _)| a),
            pending_contexts,
            accounting,
            scratch: Arrangement::empty(),
        })
    }

    /// Proposes an arrangement for the arriving user. The proposal is
    /// pending until [`ArrangementService::feedback`] is called.
    ///
    /// # Errors
    /// [`ServiceError::FeedbackPending`] if called out of order,
    /// [`ServiceError::ContextShapeMismatch`] on malformed input (a
    /// wrong shape or a non-finite entry), or
    /// [`ServiceError::PolicyProducedInfeasible`] if the wrapped policy
    /// misbehaves (the service re-validates every proposal). A refused
    /// proposal leaves no trace: the policy has not run, so a sampling
    /// policy's RNG has not moved.
    pub fn propose(&mut self, user: &UserArrival) -> Result<Arrangement, ServiceError> {
        if self.pending.is_some() {
            return Err(ServiceError::FeedbackPending);
        }
        // Refuse non-finite contexts before `select`: the estimator
        // would reject them only at `observe`, after the proposal was
        // exposed (and, durably, logged).
        if user.contexts.num_events() != self.instance.num_events()
            || user.contexts.dim() != self.instance.dim()
            || !user.contexts.is_finite()
        {
            return Err(ServiceError::ContextShapeMismatch);
        }
        let view = SelectionView {
            t: self.t,
            user_capacity: user.capacity,
            contexts: &user.contexts,
            conflicts: self.instance.conflicts(),
            remaining: &self.remaining,
        };
        self.policy.select_into(&view, &mut self.scratch);
        validate_arrangement(
            &self.scratch,
            self.instance.conflicts(),
            &self.remaining,
            user.capacity,
        )
        .map_err(|e| ServiceError::PolicyProducedInfeasible(e.to_string()))?;
        for v in self.scratch.iter() {
            self.pending_contexts
                .context_mut(v)
                .copy_from_slice(user.contexts.context(v));
        }
        self.pending = Some(self.scratch.clone());
        Ok(self.scratch.clone())
    }

    /// Records the user's accept/reject answers for the pending
    /// proposal, updates the learner, and decrements capacities of
    /// accepted events. Returns the round reward.
    ///
    /// # Errors
    /// [`ServiceError::NoPendingProposal`] or
    /// [`ServiceError::FeedbackLengthMismatch`].
    pub fn feedback(&mut self, accepted: &[bool]) -> Result<u32, ServiceError> {
        let arrangement = self.pending.take().ok_or(ServiceError::NoPendingProposal)?;
        if accepted.len() != arrangement.len() {
            // Restore the pending state: the caller may retry correctly.
            let expected = arrangement.len();
            self.pending = Some(arrangement);
            return Err(ServiceError::FeedbackLengthMismatch {
                expected,
                got: accepted.len(),
            });
        }
        let fb = Feedback::new(accepted.to_vec());
        for (v, ok) in fb.zip(&arrangement) {
            if ok {
                // Validation at propose time guarantees remaining > 0.
                self.remaining[v.index()] -= 1;
            }
        }
        self.policy
            .observe(self.t, &self.pending_contexts, &arrangement, &fb);
        for v in arrangement.iter() {
            self.pending_contexts.context_mut(v).fill(0.0);
        }
        // An observe over a non-empty arrangement updates learner state,
        // so any score set stashed by `Policy::prefetch_scores` before
        // this point is now stale. Empty arrangements are no-ops for
        // every policy (estimators fold in one rank-1 update per
        // *arranged* event), so the epoch — and with it any stash —
        // survives them.
        if !arrangement.is_empty() {
            self.policy.workspace_mut().bump_model_epoch();
        }
        let reward = fb.reward();
        self.accounting.record_round(arrangement.len(), reward);
        self.t += 1;
        Ok(reward)
    }

    /// Number of events that still have capacity.
    pub fn available_events(&self) -> usize {
        self.remaining.iter().filter(|&&c| c > 0).count()
    }

    /// Remaining capacity of one event.
    pub fn remaining_capacity(&self, v: EventId) -> u32 {
        self.remaining[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_bandit::LinUcb;
    use fasea_core::{ConflictGraph, ProblemMode};

    fn service(caps: Vec<u32>) -> ArrangementService {
        let n = caps.len();
        let instance = ProblemInstance::new(caps, ConflictGraph::new(n), 2, ProblemMode::Fasea);
        ArrangementService::new(instance, Box::new(LinUcb::new(2, 1.0, 2.0)))
    }

    fn arrival(n: usize, cu: u32) -> UserArrival {
        let mut ctx = ContextMatrix::from_fn(n, 2, |v, j| ((v + j + 1) % 3) as f64 * 0.3);
        ctx.normalize_rows();
        UserArrival::new(cu, ctx)
    }

    #[test]
    fn propose_feedback_cycle() {
        let mut svc = service(vec![2, 2, 2]);
        let user = arrival(3, 2);
        let a = svc.propose(&user).unwrap();
        assert!(!a.is_empty());
        assert!(svc.has_pending());
        let reward = svc.feedback(&vec![true; a.len()]).unwrap();
        assert_eq!(reward as usize, a.len());
        assert_eq!(svc.rounds_completed(), 1);
        assert!(!svc.has_pending());
        // Accepted events lost capacity.
        let consumed: u32 = a.iter().map(|v| 2 - svc.remaining_capacity(v)).sum();
        assert_eq!(consumed as usize, a.len());
    }

    #[test]
    fn double_propose_rejected() {
        let mut svc = service(vec![1, 1]);
        let user = arrival(2, 1);
        let _ = svc.propose(&user).unwrap();
        assert_eq!(svc.propose(&user), Err(ServiceError::FeedbackPending));
    }

    #[test]
    fn feedback_without_proposal_rejected() {
        let mut svc = service(vec![1]);
        assert_eq!(svc.feedback(&[true]), Err(ServiceError::NoPendingProposal));
    }

    #[test]
    fn mismatched_feedback_keeps_pending_state() {
        let mut svc = service(vec![1, 1, 1]);
        let user = arrival(3, 2);
        let a = svc.propose(&user).unwrap();
        let err = svc.feedback(&vec![true; a.len() + 1]).unwrap_err();
        assert!(matches!(err, ServiceError::FeedbackLengthMismatch { .. }));
        // Still pending; correct feedback now succeeds.
        assert!(svc.has_pending());
        assert!(svc.feedback(&vec![false; a.len()]).is_ok());
    }

    #[test]
    fn context_shape_checked() {
        let mut svc = service(vec![1, 1]);
        let bad = UserArrival::new(1, ContextMatrix::zeros(3, 2));
        assert_eq!(svc.propose(&bad), Err(ServiceError::ContextShapeMismatch));
        let bad_dim = UserArrival::new(1, ContextMatrix::zeros(2, 5));
        assert_eq!(
            svc.propose(&bad_dim),
            Err(ServiceError::ContextShapeMismatch)
        );
    }

    #[test]
    fn feedback_bumps_model_epoch_only_for_nonempty_arrangements() {
        let mut svc = service(vec![2, 2, 2]);
        let epoch = |svc: &ArrangementService| svc.policy().workspace().model_epoch();

        // Accepting feedback updates the model, so the epoch advances.
        let a = svc.propose(&arrival(3, 2)).unwrap();
        assert!(!a.is_empty());
        let before = epoch(&svc);
        svc.feedback(&vec![true; a.len()]).unwrap();
        assert_eq!(epoch(&svc), before + 1);

        // Rejects still update the estimator of every arranged event, so
        // an all-reject round over a non-empty arrangement bumps it too.
        let b = svc.propose(&arrival(3, 1)).unwrap();
        assert!(!b.is_empty());
        let before = epoch(&svc);
        svc.feedback(&vec![false; b.len()]).unwrap();
        assert_eq!(epoch(&svc), before + 1);

        // An empty arrangement is a no-op for the learner: epoch kept.
        let empty = svc.propose(&arrival(3, 0)).unwrap();
        assert!(empty.is_empty());
        let before = epoch(&svc);
        svc.feedback(&[]).unwrap();
        assert_eq!(epoch(&svc), before);
    }

    #[test]
    fn capacities_deplete_until_no_events_available() {
        let mut svc = service(vec![1, 1]);
        for _ in 0..2 {
            let user = arrival(2, 2);
            let a = svc.propose(&user).unwrap();
            svc.feedback(&vec![true; a.len()]).unwrap();
        }
        assert_eq!(svc.available_events(), 0);
        // Further proposals return empty arrangements, legally.
        let user = arrival(2, 2);
        let a = svc.propose(&user).unwrap();
        assert!(a.is_empty());
        svc.feedback(&[]).unwrap();
    }

    #[test]
    fn lifecycle_sets_clamps_and_respects_pending() {
        let mut svc = service(vec![3, 5]);
        assert_eq!(svc.apply_lifecycle(0, 0).unwrap(), 0);
        assert_eq!(svc.remaining(), &[0, 5]);
        // Re-open clamps to the planned capacity.
        assert_eq!(svc.apply_lifecycle(0, 99).unwrap(), 3);
        assert_eq!(svc.remaining(), &[3, 5]);
        assert_eq!(
            svc.apply_lifecycle(7, 1),
            Err(ServiceError::EventOutOfRange {
                event: 7,
                num_events: 2
            })
        );
        // Frozen while a proposal is pending.
        let user = arrival(2, 1);
        let a = svc.propose(&user).unwrap();
        assert_eq!(
            svc.apply_lifecycle(1, 1),
            Err(ServiceError::FeedbackPending)
        );
        svc.feedback(&vec![false; a.len()]).unwrap();
        assert_eq!(svc.apply_lifecycle(1, 1).unwrap(), 1);
    }

    #[test]
    fn installed_oracle_changes_the_arrangement_step() {
        // A closed event (capacity 0) must never be proposed no matter
        // which oracle is installed.
        let mut svc = service(vec![2, 2, 2]);
        svc.install_oracle(Some(fasea_bandit::OracleOptions::tabu().build()));
        svc.apply_lifecycle(1, 0).unwrap();
        let user = arrival(3, 3);
        let a = svc.propose(&user).unwrap();
        assert!(a.iter().all(|v| v != EventId(1)));
        svc.feedback(&vec![true; a.len()]).unwrap();
        svc.install_oracle(None);
        let a = svc.propose(&arrival(3, 2)).unwrap();
        svc.feedback(&vec![false; a.len()]).unwrap();
    }

    /// A service that is sent a NaN-carrying round (refused) and one
    /// that never sees it must stay in lockstep: the refusal happens
    /// before `select`, so not even a sampling policy's RNG moves.
    fn assert_non_finite_round_leaves_no_trace(make: impl Fn() -> Box<dyn Policy>) {
        let n = 6;
        let instance =
            || ProblemInstance::new(vec![50; n], ConflictGraph::new(n), 2, ProblemMode::Fasea);
        let mut refused = ArrangementService::new(instance(), make());
        let mut clean = ArrangementService::new(instance(), make());
        for round in 0..12 {
            if round == 4 || round == 9 {
                let mut bad = arrival(n, 2);
                let poison = if round == 4 { f64::NAN } else { f64::INFINITY };
                bad.contexts.context_mut(EventId(3))[1] = poison;
                assert_eq!(
                    refused.propose(&bad),
                    Err(ServiceError::ContextShapeMismatch)
                );
                assert!(!refused.has_pending());
            }
            let user = arrival(n, 2);
            let a = refused.propose(&user).unwrap();
            assert_eq!(a, clean.propose(&user).unwrap(), "round {round} diverged");
            let fb: Vec<bool> = a.iter().map(|v| v.index() % 2 == 0).collect();
            refused.feedback(&fb).unwrap();
            clean.feedback(&fb).unwrap();
        }
        assert_eq!(refused.policy().save_state(), clean.policy().save_state());
        assert_eq!(refused.accounting(), clean.accounting());
        assert_eq!(refused.rounds_completed(), 12);
    }

    #[test]
    fn non_finite_contexts_are_refused_before_select() {
        assert_non_finite_round_leaves_no_trace(|| Box::new(LinUcb::new(2, 1.0, 2.0)));
        assert_non_finite_round_leaves_no_trace(|| {
            Box::new(fasea_bandit::ThompsonSampling::new(2, 1.0, 0.1, 7))
        });
    }

    #[test]
    fn pending_block_holds_only_the_arranged_rows() {
        let mut svc = service(vec![5, 5, 5, 5]);
        let user = arrival(4, 2);
        let a = svc.propose(&user).unwrap();
        let (pending, block) = svc.pending().unwrap();
        assert_eq!(pending, &a);
        for v in 0..4 {
            let v = EventId(v);
            let want: &[f64] = if a.contains(v) {
                user.contexts.context(v)
            } else {
                &[0.0, 0.0]
            };
            assert_eq!(block.context(v), want);
        }
        svc.feedback(&vec![true; a.len()]).unwrap();
        // Reused for the next round, with the previous rows cleared.
        let b = svc.propose(&arrival(4, 1)).unwrap();
        let (_, block) = svc.pending().unwrap();
        for v in (0..4).map(EventId).filter(|&v| !b.contains(v)) {
            assert_eq!(block.context(v), &[0.0, 0.0]);
        }
    }

    #[test]
    fn learner_adapts_across_rounds() {
        // Feed 30 rounds where only event 0 is ever accepted; the
        // learner should then rank event 0 first.
        let mut svc = service(vec![100, 100]);
        for _ in 0..30 {
            let user = arrival(2, 2);
            let a = svc.propose(&user).unwrap();
            let fb: Vec<bool> = a.iter().map(|v| v == EventId(0)).collect();
            svc.feedback(&fb).unwrap();
        }
        let user = arrival(2, 1);
        let a = svc.propose(&user).unwrap();
        svc.feedback(&vec![true; a.len()]).unwrap();
        assert_eq!(a.events(), &[EventId(0)]);
        assert!(svc.accounting().total_rewards() > 0);
        assert_eq!(svc.policy_name(), "UCB");
    }
}
