//! # fasea
//!
//! A Rust implementation of **Feedback-Aware Social Event-participant
//! Arrangement** (FASEA) — She, Tong, Chen & Song, SIGMOD 2017 — the
//! contextual combinatorial bandit formulation of online
//! event-participant arrangement on event-based social networks.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the problem model: events, conflicts, capacities,
//!   contexts, arrangements, the linear payoff model and the simulated
//!   platform environment.
//! * [`bandit`] — the policies: Thompson Sampling (Algorithm 1), the
//!   Oracle-Greedy arrangement oracle (Algorithm 2), UCB (Algorithm 3),
//!   eGreedy (Algorithm 4), Exploit, Random, OPT, and the
//!   OnlineGreedy-GEACC comparator.
//! * [`datagen`] — Table 4 synthetic workloads and the Table 3
//!   real-dataset analogue.
//! * [`sim`] — the simulation engine, metrics and reporting, including
//!   the crash-safe [`DurableArrangementService`].
//! * [`models`] — the million-user personalized estimator store: COW
//!   priors, quantized warm residency, deterministic LRU demotion, and
//!   a CRC-framed spill log — plus the store-backed `PersonalizedUcb`
//!   and `PersonalizedTs` policies.
//! * [`store`] — the write-ahead round log and snapshot store backing
//!   durability.
//! * [`serve`] — the concurrent TCP serving layer over the durable
//!   service: framed wire protocol, single-writer actor, worker pool,
//!   metrics, and the matching blocking client.
//! * [`shard`] — the sharded event universe: component-preserving
//!   partition, per-shard transaction logs, deterministic cross-shard
//!   two-phase commit, byte-identical to the single-actor service.
//! * [`stats`] / [`linalg`] — the statistical and numerical substrates.
//!
//! ## Quickstart
//!
//! ```
//! use fasea::datagen::{SyntheticConfig, SyntheticWorkload};
//! use fasea::bandit::{LinUcb, RandomPolicy, Policy};
//! use fasea::sim::{run_simulation, RunConfig};
//!
//! // A small instance: 50 events, d = 5, default capacities/conflicts.
//! let workload = SyntheticWorkload::generate(SyntheticConfig {
//!     num_events: 50,
//!     dim: 5,
//!     ..Default::default()
//! });
//! let mut policies: Vec<Box<dyn Policy>> = vec![
//!     Box::new(LinUcb::new(5, 1.0, 2.0)),
//!     Box::new(RandomPolicy::new(7)),
//! ];
//! let result = run_simulation(&workload, &mut policies, &RunConfig::paper(500));
//! // UCB learns; Random does not.
//! assert!(result.policies[0].accounting.total_rewards()
//!     >= result.policies[1].accounting.total_rewards());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// The FASEA problem model (re-export of `fasea-core`).
pub use fasea_core as core;

/// Bandit policies and the arrangement oracle (re-export of
/// `fasea-bandit`).
pub use fasea_bandit as bandit;

/// Workload generators (re-export of `fasea-datagen`).
pub use fasea_datagen as datagen;

/// Simulation engine and reporting (re-export of `fasea-sim`).
pub use fasea_sim as sim;

/// Personalized per-user model store (re-export of `fasea-models`).
pub use fasea_models as models;

/// Durable storage: write-ahead log and snapshots (re-export of
/// `fasea-store`).
pub use fasea_store as store;

/// Network serving layer (re-export of `fasea-serve`).
pub use fasea_serve as serve;

/// Sharded event universe with deterministic cross-shard commit
/// (re-export of `fasea-shard`).
pub use fasea_shard as shard;

pub use fasea_shard::ShardedArrangementService;
pub use fasea_sim::{ArrangementService, DurableArrangementService, DurableOptions, ServiceError};
pub use fasea_store::FsyncPolicy;

pub mod error;
pub use error::FaseaError;

/// Statistics substrate (re-export of `fasea-stats`).
pub use fasea_stats as stats;

/// Linear-algebra substrate (re-export of `fasea-linalg`).
pub use fasea_linalg as linalg;
