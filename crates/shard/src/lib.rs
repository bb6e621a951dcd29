//! # fasea-shard
//!
//! Sharded event universe with deterministic cross-shard commit.
//!
//! Partitions the event set into N shards — keeping conflict-graph
//! components intact ([`ShardPlan`]) — and runs one single-writer
//! actor per shard, each owning the authoritative capacity counters of
//! its members plus its own [`fasea_store::GroupCommitWal`] transaction
//! log. A coordinator (the unchanged
//! [`fasea_sim::DurableArrangementService`]) keeps the policy, the
//! round WAL and the snapshots; two operations cross the boundary:
//!
//! * **Routing** — the configured [`fasea_bandit::Oracle`]'s candidate
//!   ranking fans out as per-shard `subset_top_k` queries and merges
//!   under the oracle's own comparator, which provably reproduces the
//!   serial candidate order (see
//!   [`fasea_bandit::Oracle::arrange_gathered`]).
//! * **Commit** — accepted events become per-shard write sets committed
//!   with a two-phase protocol: durable `TxnPrepare` on every involved
//!   shard *before* the coordinator's `Feedback` record (the commit
//!   decision), then a `TxnCommit` fan-out whose durability may lag
//!   because it is re-derivable. Recovery replays every shard log,
//!   resolves in-doubt prepares against the coordinator's round
//!   counter, and repairs counter drift against the capacity mirror.
//!
//! The headline property is **determinism**: an N-shard
//! [`ShardedArrangementService`] run is byte-identical — arrangements,
//! rewards, capacity counters, and the policy's RNG state — to the
//! single-actor [`fasea_sim::DurableArrangementService`] run, because
//! scoring and every RNG draw stay on the coordinator and the shards
//! only rank finished scores.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

mod actor;
mod plan;
mod router;
mod service;

pub use actor::shard_fingerprint;
pub use plan::ShardPlan;
pub use service::ShardedArrangementService;
