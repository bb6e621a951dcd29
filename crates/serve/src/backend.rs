//! The actor's service backend: a single-actor
//! [`DurableArrangementService`] or a sharded
//! [`ShardedArrangementService`], behind one delegating enum.
//!
//! The two services expose the same surface by design (the sharded one
//! is byte-identical to the single-actor one — see `fasea-shard`), so
//! the actor state machine is written once against [`BackendService`]
//! and the only sharding-aware code in this crate is the metrics drain
//! in [`BackendService::drain_shard_metrics`].

use std::path::PathBuf;

use fasea_core::{Arrangement, UserArrival};
use fasea_shard::ShardedArrangementService;
use fasea_sim::{ArrangementService, DurableArrangementService, ServiceError, ServiceHealth};
use fasea_store::{CommitNotifier, CommitObserver};

use crate::metrics::Metrics;

/// Either service the actor can own. Construct via the `From` impls
/// (so `Server::spawn` and `ServiceActor::new` accept both transparently).
pub enum BackendService {
    /// The unsharded durable service.
    Single(DurableArrangementService),
    /// The N-shard service with cross-shard two-phase commit.
    Sharded(ShardedArrangementService),
}

impl From<DurableArrangementService> for BackendService {
    fn from(svc: DurableArrangementService) -> Self {
        BackendService::Single(svc)
    }
}

impl From<ShardedArrangementService> for BackendService {
    fn from(svc: ShardedArrangementService) -> Self {
        BackendService::Sharded(svc)
    }
}

macro_rules! delegate {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        match $self {
            BackendService::Single(s) => s.$method($($arg),*),
            BackendService::Sharded(s) => s.$method($($arg),*),
        }
    };
}

impl BackendService {
    /// Number of shards (1 for the single-actor backend).
    pub fn num_shards(&self) -> usize {
        match self {
            BackendService::Single(_) => 1,
            BackendService::Sharded(s) => s.num_shards(),
        }
    }

    /// Feeds any pending shard timing / queue-depth samples into the
    /// metrics registry. A no-op on the single-actor backend, so the
    /// three shard histograms stay empty there.
    pub fn drain_shard_metrics(&self, metrics: &Metrics) {
        let BackendService::Sharded(s) = self else {
            return;
        };
        if let Some(us) = s.take_route_us() {
            metrics.shard_route_us.observe_value(us);
        }
        if let Some(us) = s.take_commit_us() {
            metrics.cross_shard_commit_us.observe_value(us);
        }
        for depth in s.take_queue_depths().into_iter().flatten() {
            metrics.shard_queue_depth.observe_value(depth);
        }
    }

    /// See [`DurableArrangementService::propose_deferred`].
    pub fn propose_deferred(
        &mut self,
        user: &UserArrival,
    ) -> Result<(Arrangement, u64), ServiceError> {
        delegate!(self.propose_deferred(user))
    }

    /// See [`DurableArrangementService::feedback_deferred`].
    pub fn feedback_deferred(&mut self, accepted: &[bool]) -> Result<(u32, u64), ServiceError> {
        delegate!(self.feedback_deferred(accepted))
    }

    /// See [`DurableArrangementService::lifecycle`] — an event capacity
    /// re-plan, fanned out to the owning shard on the sharded backend.
    pub fn lifecycle(&mut self, event: u32, capacity: u32) -> Result<u32, ServiceError> {
        delegate!(self.lifecycle(event, capacity))
    }

    /// See [`DurableArrangementService::sync`].
    pub fn sync(&mut self) -> Result<(), ServiceError> {
        delegate!(self.sync())
    }

    /// See [`DurableArrangementService::snapshot_async`].
    pub fn snapshot_async(&mut self) -> Result<(), ServiceError> {
        delegate!(self.snapshot_async())
    }

    /// See [`DurableArrangementService::durable_lsn`].
    pub fn durable_lsn(&self) -> u64 {
        delegate!(self.durable_lsn())
    }

    /// See [`DurableArrangementService::set_commit_observer`].
    pub fn set_commit_observer(&self, observer: Option<CommitObserver>) {
        delegate!(self.set_commit_observer(observer))
    }

    /// See [`DurableArrangementService::set_commit_notifier`].
    pub fn set_commit_notifier(&self, notifier: Option<CommitNotifier>) {
        delegate!(self.set_commit_notifier(notifier))
    }

    /// See [`DurableArrangementService::service`].
    pub fn service(&self) -> &ArrangementService {
        delegate!(self.service())
    }

    /// Cumulative model-tier counters of the policy workspace —
    /// cohort-prior select hits and sketch-record promotions, published
    /// by the personalized policies (all-zero for global policies). The
    /// actor drains deltas into its metrics.
    pub fn model_tier_stats(&self) -> fasea_bandit::ModelTierStats {
        self.service().policy().workspace().model_tier_stats()
    }

    /// See [`DurableArrangementService::pending_arrangement`].
    pub fn pending_arrangement(&self) -> Option<&Arrangement> {
        delegate!(self.pending_arrangement())
    }

    /// See [`DurableArrangementService::rounds_completed`].
    pub fn rounds_completed(&self) -> u64 {
        delegate!(self.rounds_completed())
    }

    /// See [`DurableArrangementService::health`].
    pub fn health(&self) -> ServiceHealth {
        delegate!(self.health())
    }

    /// See [`DurableArrangementService::close`].
    pub fn close(self) -> Result<Option<PathBuf>, ServiceError> {
        delegate!(self.close())
    }
}
