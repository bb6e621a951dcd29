//! The sharded coordinator: a [`DurableArrangementService`] front whose
//! ranking fans out over shard actors and whose feedback commits
//! cross-shard capacity decrements with a two-phase protocol.

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use fasea_bandit::{Arranger, Policy};
use fasea_core::{Arrangement, ProblemInstance, UserArrival};
use fasea_sim::{
    ArrangementService, DurableArrangementService, DurableOptions, ServiceError, ServiceHealth,
};
use fasea_store::{CommitNotifier, CommitObserver};

use crate::actor::{shard_fingerprint, Reply, Request, ShardChannel, ShardState};
use crate::plan::ShardPlan;
use crate::router::{ShardRouter, ShardTimings};

/// A [`DurableArrangementService`] partitioned over N shard actors,
/// with the identical surface and — by construction — the identical
/// byte-for-byte behaviour.
///
/// Layout under `dir`:
///
/// ```text
/// dir/coordinator/   the inner durable service: round WAL + snapshots
/// dir/shard-000/     shard 0's transaction log
/// dir/shard-001/     …
/// ```
///
/// The **coordinator** owns everything decision-making: the policy
/// (scores and RNG), the capacity mirror the oracle reads, the round
/// WAL and snapshots. The **shards** own the authoritative per-event
/// capacity counters of their members plus a transaction log. Two
/// operations cross the boundary:
///
/// * `propose` — the policy scores as usual; the installed
///   [`ShardRouter`] replaces the local top-k ranking with a fan-out
///   over the shards' [`fasea_bandit::subset_top_k`] answers, merged
///   under the oracle's own comparator. Identical arrangements to the
///   single-actor service (merge theorem on the gathered form of
///   [`fasea_bandit::Oracle::arrange_gathered`]).
/// * `feedback` — accepted events become per-shard write sets. Phase 1
///   sends `Prepare{txn = round, decs}` to the involved shards in
///   ascending shard order; each makes the prepare durable before
///   acking. Only then does the coordinator append its `Feedback`
///   record — *the* commit decision. Phase 2 fans `Commit{txn}` out in
///   the same order. Recovery resolves an in-doubt prepare by asking
///   whether the coordinator completed the round, then repairs any
///   counter drift against the mirror — see
///   [`crate::actor`]'s state-machine docs.
///
/// Both orders (shard assignment and commit fan-out) are pure
/// functions of the instance and the round, which is the determinism
/// claim the golden parity tests pin down: an N-shard run's
/// coordinator state — including policy RNG — is byte-identical to the
/// single-actor run's.
pub struct ShardedArrangementService {
    inner: DurableArrangementService,
    plan: ShardPlan,
    channels: Arc<Vec<ShardChannel>>,
    timings: Arc<ShardTimings>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl ShardedArrangementService {
    /// Opens (or creates) the sharded service: opens the coordinator,
    /// opens and replays every shard log, resolves in-doubt
    /// transactions against the coordinator's round counter, repairs
    /// counter drift against the capacity mirror, then spawns the
    /// shard actors and installs the routing arranger.
    ///
    /// # Errors
    /// Everything [`DurableArrangementService::open`] can return, plus
    /// [`ServiceError::Store`] for shard-log damage.
    pub fn open(
        dir: &Path,
        instance: ProblemInstance,
        policy: Box<dyn Policy>,
        options: DurableOptions,
        num_shards: usize,
    ) -> Result<Self, ServiceError> {
        assert!(num_shards >= 1, "at least one shard");
        let plan = ShardPlan::build(instance.conflicts(), num_shards);
        let capacities = instance.capacities().to_vec();
        // Same oracle the coordinator installs for replay: the router
        // reuses it so the sharded selection matches the local one
        // bit for bit.
        let oracle = options.oracle.build();
        let mut inner =
            DurableArrangementService::open(&dir.join("coordinator"), instance, policy, options)?;

        let fingerprint = inner.fingerprint();
        let mut states = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let state = ShardState::open(
                &dir.join(format!("shard-{s:03}")),
                shard_fingerprint(fingerprint, s),
                plan.members(s).to_vec(),
                &capacities,
                options.segment_bytes,
                options.fsync,
            )
            .map_err(ServiceError::Store)?;
            states.push(state);
        }

        // Recovery: decide every in-doubt transaction from the
        // coordinator's durable history, then repair what torn shard
        // logs lost. Order matters — resolution may apply write sets
        // reconciliation would otherwise double-count.
        let completed = inner.rounds_completed();
        let mirror = inner.service().remaining().to_vec();
        for state in &mut states {
            state
                .resolve_in_doubt(completed)
                .map_err(ServiceError::Store)?;
            state
                .reconcile(&mirror, completed)
                .map_err(ServiceError::Store)?;
        }

        let staging = Arc::new(RwLock::new(Vec::new()));
        let mut channels = Vec::with_capacity(num_shards);
        let mut joins = Vec::with_capacity(num_shards);
        for (s, state) in states.into_iter().enumerate() {
            let (channel, join) = ShardChannel::spawn(state, s, Arc::clone(&staging));
            channels.push(channel);
            joins.push(join);
        }
        let channels = Arc::new(channels);
        let timings = Arc::new(ShardTimings::new());
        let router = Arc::new(ShardRouter::new(
            Arc::clone(&channels),
            staging,
            Arc::clone(&timings),
            oracle,
        ));
        // Installed *after* open: recovery replay ran the local oracle,
        // which produces identical arrangements by the arranger
        // contract, so the replay cross-check cannot diverge.
        inner.install_arranger(Some(router as Arc<dyn Arranger>));

        Ok(ShardedArrangementService {
            inner,
            plan,
            channels,
            timings,
            joins,
        })
    }

    /// Proposes an arrangement for `user` — the policy runs on the
    /// coordinator, the ranking fans out over the shards.
    pub fn propose(&mut self, user: &UserArrival) -> Result<Arrangement, ServiceError> {
        self.inner.propose(user)
    }

    /// [`DurableArrangementService::propose_deferred`] over the
    /// sharded ranking.
    pub fn propose_deferred(
        &mut self,
        user: &UserArrival,
    ) -> Result<(Arrangement, u64), ServiceError> {
        self.inner.propose_deferred(user)
    }

    /// Applies feedback with the cross-shard two-phase commit, waiting
    /// for the coordinator record's durability (blocking form).
    pub fn feedback(&mut self, accepted: &[bool]) -> Result<u32, ServiceError> {
        let staged = self.stage_commit(accepted)?;
        let result = self.inner.feedback(accepted);
        self.finish_commit(staged, result.is_ok())?;
        result
    }

    /// Applies feedback with the cross-shard two-phase commit,
    /// returning the coordinator LSN to gate acknowledgements on
    /// (deferred form).
    pub fn feedback_deferred(&mut self, accepted: &[bool]) -> Result<(u32, u64), ServiceError> {
        let staged = self.stage_commit(accepted)?;
        let result = self.inner.feedback_deferred(accepted);
        self.finish_commit(staged, result.is_ok())?;
        result
    }

    /// Event lifecycle re-plan ([`DurableArrangementService::lifecycle`])
    /// fanned out to the owning shard.
    ///
    /// The coordinator's `Lifecycle` record is the decision: it is
    /// durable (and applied to the capacity mirror) *before* the owning
    /// shard logs and installs its own copy. A crash in between leaves
    /// the shard's counter stale, which recovery's
    /// reconciliation repairs from the mirror — a lost lower shows up
    /// as drift-above, a lost raise as drift-below with no committed
    /// round to explain it.
    ///
    /// Returns the installed remaining capacity (clamped to the planned
    /// capacity), like the inner call.
    pub fn lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError> {
        let t = self.inner.rounds_completed();
        let installed = self.inner.lifecycle(event, capacity)?;
        let shard = self.plan.shard_of(event);
        self.channels[shard].send(Request::Lifecycle {
            t,
            event,
            capacity: installed,
        });
        match self.channels[shard].recv() {
            Reply::Done(r) => r.map_err(ServiceError::Store)?,
            other => panic!("shard answered Lifecycle with {other:?}"),
        }
        Ok(installed)
    }

    /// Phase 1: validates the feedback shape, builds the per-shard
    /// write sets, and durably prepares them on every involved shard
    /// (ascending shard order). Returns the staged transaction, or
    /// `None` when no event was accepted (no shard involvement — the
    /// round is coordinator-only).
    fn stage_commit(
        &mut self,
        accepted: &[bool],
    ) -> Result<Option<(u64, Vec<usize>, Instant)>, ServiceError> {
        let pending = self
            .inner
            .pending_arrangement()
            .ok_or(ServiceError::NoPendingProposal)?;
        if pending.len() != accepted.len() {
            return Err(ServiceError::FeedbackLengthMismatch {
                expected: pending.len(),
                got: accepted.len(),
            });
        }
        let mut by_shard: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.plan.num_shards()];
        for (slot, v) in pending.iter().enumerate() {
            if accepted[slot] {
                let event = v.index() as u32;
                by_shard[self.plan.shard_of(event)].push((event, 1));
            }
        }
        let involved: Vec<usize> = (0..by_shard.len())
            .filter(|&s| !by_shard[s].is_empty())
            .collect();
        if involved.is_empty() {
            return Ok(None);
        }
        let txn = self.inner.rounds_completed();
        let started = Instant::now();
        for &s in &involved {
            // Arrangement order is the greedy visiting order; the
            // write-set encoding wants ascending event ids.
            by_shard[s].sort_unstable_by_key(|&(event, _)| event);
            self.channels[s].send(Request::Prepare {
                txn,
                decs: std::mem::take(&mut by_shard[s]),
            });
        }
        for &s in &involved {
            self.channels[s].sample_depth();
        }
        let mut first_err = None;
        for &s in &involved {
            match self.channels[s].recv() {
                Reply::Done(Ok(())) => {}
                Reply::Done(Err(e)) => first_err = first_err.or(Some(e)),
                other => panic!("shard answered Prepare with {other:?}"),
            }
        }
        if let Some(e) = first_err {
            // Best effort: unstage what did prepare, then surface the
            // failure. Anything left in-doubt resolves on reopen.
            self.abort_all(txn, &involved);
            return Err(ServiceError::Store(e));
        }
        Ok(Some((txn, involved, started)))
    }

    /// Phase 2: fans `Commit` (or, when the coordinator's own append
    /// failed, `Abort`) out to the involved shards in ascending order.
    fn finish_commit(
        &mut self,
        staged: Option<(u64, Vec<usize>, Instant)>,
        committed: bool,
    ) -> Result<(), ServiceError> {
        let Some((txn, involved, started)) = staged else {
            return Ok(());
        };
        if !committed {
            self.abort_all(txn, &involved);
            return Ok(());
        }
        for &s in &involved {
            self.channels[s].send(Request::Commit { txn });
        }
        let mut first_err = None;
        for &s in &involved {
            match self.channels[s].recv() {
                Reply::Done(Ok(())) => {}
                Reply::Done(Err(e)) => first_err = first_err.or(Some(e)),
                other => panic!("shard answered Commit with {other:?}"),
            }
        }
        self.timings.record_commit(started.elapsed());
        first_err.map_or(Ok(()), |e| Err(ServiceError::Store(e)))
    }

    fn abort_all(&self, txn: u64, involved: &[usize]) {
        for &s in involved {
            self.channels[s].send(Request::Abort { txn });
        }
        for &s in involved {
            let _ = self.channels[s].recv();
        }
    }

    /// The shard plan in force (pure function of instance + N).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Shard `s`'s authoritative `(event, remaining)` counters
    /// (diagnostics/tests — one actor round-trip).
    pub fn shard_remaining(&self, s: usize) -> Vec<(u32, u32)> {
        self.channels[s].send(Request::Remaining);
        match self.channels[s].recv() {
            Reply::Remaining(pairs) => pairs,
            other => panic!("shard answered Remaining with {other:?}"),
        }
    }

    /// Drains the latest shard-route duration sample (µs), if any.
    pub fn take_route_us(&self) -> Option<u64> {
        self.timings.take_route_us()
    }

    /// Drains the latest cross-shard-commit duration sample (µs), if
    /// any.
    pub fn take_commit_us(&self) -> Option<u64> {
        self.timings.take_commit_us()
    }

    /// Drains the peak queue-depth sample of every shard (index =
    /// shard id; `None` = no fan-out since last drain).
    pub fn take_queue_depths(&self) -> Vec<Option<u64>> {
        self.channels
            .iter()
            .map(|ch| ch.take_sampled_depth())
            .collect()
    }

    // ---- delegated surface (same as DurableArrangementService) ----

    /// See [`DurableArrangementService::sync`]; also barriers every
    /// shard log.
    pub fn sync(&mut self) -> Result<(), ServiceError> {
        self.inner.sync()?;
        for ch in self.channels.iter() {
            ch.send(Request::Sync);
        }
        let mut first_err = None;
        for ch in self.channels.iter() {
            match ch.recv() {
                Reply::Done(Ok(())) => {}
                Reply::Done(Err(e)) => first_err = first_err.or(Some(e)),
                other => panic!("shard answered Sync with {other:?}"),
            }
        }
        first_err.map_or(Ok(()), |e| Err(ServiceError::Store(e)))
    }

    /// See [`DurableArrangementService::snapshot_async`] (coordinator
    /// only; shard logs are replayed in full, never compacted).
    pub fn snapshot_async(&mut self) -> Result<(), ServiceError> {
        self.inner.snapshot_async()
    }

    /// See [`DurableArrangementService::snapshot_published_seq`].
    pub fn snapshot_published_seq(&self) -> u64 {
        self.inner.snapshot_published_seq()
    }

    /// See [`DurableArrangementService::durable_lsn`] (coordinator
    /// round log).
    pub fn durable_lsn(&self) -> u64 {
        self.inner.durable_lsn()
    }

    /// See [`DurableArrangementService::set_commit_observer`].
    pub fn set_commit_observer(&self, observer: Option<CommitObserver>) {
        self.inner.set_commit_observer(observer);
    }

    /// See [`DurableArrangementService::set_commit_notifier`].
    pub fn set_commit_notifier(&self, notifier: Option<CommitNotifier>) {
        self.inner.set_commit_notifier(notifier);
    }

    /// The wrapped in-memory service (all read accessors).
    pub fn service(&self) -> &ArrangementService {
        self.inner.service()
    }

    /// See [`DurableArrangementService::has_pending`].
    pub fn has_pending(&self) -> bool {
        self.inner.has_pending()
    }

    /// See [`DurableArrangementService::pending_arrangement`].
    pub fn pending_arrangement(&self) -> Option<&Arrangement> {
        self.inner.pending_arrangement()
    }

    /// See [`DurableArrangementService::rounds_completed`].
    pub fn rounds_completed(&self) -> u64 {
        self.inner.rounds_completed()
    }

    /// See [`DurableArrangementService::fingerprint`] — the coordinator
    /// fingerprint; shard logs mix in their index on top of it.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    /// See [`DurableArrangementService::next_seq`] (coordinator round
    /// log).
    pub fn next_seq(&self) -> u64 {
        self.inner.next_seq()
    }

    /// See [`DurableArrangementService::health`] (coordinator view).
    pub fn health(&self) -> ServiceHealth {
        self.inner.health()
    }

    /// Closes every shard (sync + join actor threads) and then the
    /// coordinator (final sync + snapshot). Returns the coordinator's
    /// snapshot path as [`DurableArrangementService::close`] does.
    pub fn close(mut self) -> Result<Option<PathBuf>, ServiceError> {
        self.inner.install_arranger(None);
        let mut first_err = None;
        for ch in self.channels.iter() {
            ch.send(Request::Close);
        }
        for ch in self.channels.iter() {
            match ch.recv() {
                Reply::Done(Ok(())) => {}
                Reply::Done(Err(e)) => first_err = first_err.or(Some(e)),
                other => panic!("shard answered Close with {other:?}"),
            }
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
        let snapshot = self.inner.close()?;
        first_err.map_or(Ok(snapshot), |e| Err(ServiceError::Store(e)))
    }
}

impl std::fmt::Debug for ShardedArrangementService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedArrangementService")
            .field("shards", &self.plan.num_shards())
            .field("rounds_completed", &self.rounds_completed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_bandit::ThompsonSampling;
    use fasea_core::{ConflictGraph, ContextMatrix, ProblemMode};
    use fasea_store::FsyncPolicy;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fasea-shard-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn instance() -> ProblemInstance {
        // Components {0,5}, {2,3}, singletons 1/4/6/7 — splits across
        // 1..=4 shards in interesting ways.
        ProblemInstance::new(
            vec![9, 9, 9, 9, 9, 9, 9, 9],
            ConflictGraph::from_pairs(8, &[(0, 5), (2, 3)]),
            3,
            ProblemMode::Fasea,
        )
    }

    fn arrival(round: u64) -> UserArrival {
        let mut ctx = ContextMatrix::from_fn(8, 3, |v, j| {
            (((round as usize * 5 + v * 3 + j) % 11) as f64) / 11.0 - 0.3
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
        Box::new(ThompsonSampling::new(3, 1.0, 0.1, 23))
    }

    fn opts() -> DurableOptions {
        let mut o = DurableOptions::default();
        o.fsync = FsyncPolicy::Never;
        o
    }

    fn drive(svc: &mut ShardedArrangementService, rounds: std::ops::Range<u64>) {
        for round in rounds {
            let a = svc.propose(&arrival(round)).unwrap();
            svc.feedback(&accepts_for(round, &a)).unwrap();
        }
    }

    /// Full observable state of the single-actor reference run.
    fn reference(rounds: u64) -> (Vec<Vec<bool>>, Vec<u32>, Vec<u8>) {
        // Tests run in parallel and several build a reference: each
        // needs its own directory.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = tmp(&format!("reference-{n}"));
        let mut svc =
            DurableArrangementService::open(&dir, instance(), ts_policy(), opts()).unwrap();
        let mut accepts = Vec::new();
        for round in 0..rounds {
            let a = svc.propose(&arrival(round)).unwrap();
            let acc = accepts_for(round, &a);
            svc.feedback(&acc).unwrap();
            accepts.push(acc);
        }
        let remaining = svc.service().remaining().to_vec();
        let policy = svc.service().policy().save_state();
        let _ = fs::remove_dir_all(&dir);
        (accepts, remaining, policy)
    }

    #[test]
    fn sharded_run_is_byte_identical_to_single_actor() {
        let (_, ref_remaining, ref_policy) = reference(40);
        for shards in [1usize, 2, 3, 4] {
            let dir = tmp(&format!("parity-{shards}"));
            let mut svc =
                ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), shards)
                    .unwrap();
            drive(&mut svc, 0..40);
            assert_eq!(
                svc.service().remaining(),
                &ref_remaining[..],
                "{shards} shards"
            );
            assert_eq!(
                svc.service().policy().save_state(),
                ref_policy,
                "{shards} shards: policy state (incl. RNG) must match single-actor"
            );
            // Shard counters agree with the coordinator mirror.
            for s in 0..shards {
                for (event, rem) in svc.shard_remaining(s) {
                    assert_eq!(rem, ref_remaining[event as usize]);
                }
            }
            svc.close().unwrap();
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn clean_close_and_reopen_resumes_identically() {
        let (_, ref_remaining, ref_policy) = reference(30);
        let dir = tmp("reopen");
        {
            let mut svc =
                ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 3).unwrap();
            drive(&mut svc, 0..12);
            svc.close().unwrap();
        }
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 3).unwrap();
        assert_eq!(svc.rounds_completed(), 12);
        drive(&mut svc, 12..30);
        assert_eq!(svc.service().remaining(), &ref_remaining[..]);
        assert_eq!(svc.service().policy().save_state(), ref_policy);
        svc.close().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_style_drop_recovers_and_continues() {
        let (_, ref_remaining, ref_policy) = reference(30);
        let dir = tmp("crash");
        {
            let mut svc =
                ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 4).unwrap();
            drive(&mut svc, 0..17);
            // Leave a pending proposal in flight, then drop without
            // close — actor threads see the hangup; WAL drops drain.
            let _ = svc.propose(&arrival(17)).unwrap();
        }
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 4).unwrap();
        assert_eq!(svc.rounds_completed(), 17);
        // The pending proposal survives recovery exactly as it does on
        // the single-actor service.
        assert!(svc.has_pending());
        let a = svc.pending_arrangement().unwrap().clone();
        svc.feedback(&accepts_for(17, &a)).unwrap();
        drive(&mut svc, 18..30);
        assert_eq!(svc.service().remaining(), &ref_remaining[..]);
        assert_eq!(svc.service().policy().save_state(), ref_policy);
        for s in 0..4 {
            for (event, rem) in svc.shard_remaining(s) {
                assert_eq!(rem, ref_remaining[event as usize]);
            }
        }
        svc.close().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn feedback_shape_errors_leave_no_staged_transactions() {
        let dir = tmp("shape");
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 2).unwrap();
        assert!(matches!(
            svc.feedback(&[true]),
            Err(ServiceError::NoPendingProposal)
        ));
        let a = svc.propose(&arrival(0)).unwrap();
        let err = svc.feedback(&vec![true; a.len() + 1]).unwrap_err();
        assert!(matches!(err, ServiceError::FeedbackLengthMismatch { .. }));
        // The round is still pending and completes normally after the
        // shape error — nothing was prepared on any shard.
        svc.feedback(&accepts_for(0, &a)).unwrap();
        assert_eq!(svc.rounds_completed(), 1);
        svc.close().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_samples_drain_once() {
        let dir = tmp("metrics");
        let mut svc =
            ShardedArrangementService::open(&dir, instance(), ts_policy(), opts(), 2).unwrap();
        let a = svc.propose(&arrival(0)).unwrap();
        assert!(svc.take_route_us().is_some());
        assert!(svc.take_route_us().is_none(), "drained");
        svc.feedback(&vec![true; a.len()]).unwrap();
        assert!(svc.take_commit_us().is_some());
        assert!(svc.take_commit_us().is_none(), "drained");
        let depths = svc.take_queue_depths();
        assert_eq!(depths.len(), 2);
        assert!(depths.iter().any(|d| d.is_some()));
        svc.close().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
