//! # fasea-sim
//!
//! Simulation engine, metrics and reporting for the FASEA experiments.
//!
//! The engine drives the Definition 3 loop for a *set* of policies
//! simultaneously over one shared arrival stream:
//!
//! * one round's contexts are generated once and shown to every policy
//!   (the paper compares five algorithms plus OPT on the same inputs);
//! * each policy owns a private clone of the [`fasea_core::Environment`],
//!   so capacity depletion is per-strategy but the acceptance coins are
//!   **common random numbers** — if two policies arrange the same event
//!   at the same time step they see the same accept/reject;
//! * [`fasea_bandit::Opt`] runs alongside as the regret reference
//!   (synthetic data), or the analytic "Full Knowledge" bound supplies
//!   the reference reward (real data);
//! * metrics are snapshotted at the paper's checkpoint grid
//!   ([`paper_checkpoints`]): cumulative accept ratio, total rewards,
//!   total regret, regret ratio, and optionally the Kendall-τ rank
//!   correlation between the policy's last selection scores and the
//!   ground-truth expected rewards (Figure 2);
//! * per-round wall time and a structural memory estimate reproduce the
//!   efficiency columns of Tables 5 and 6.
//!
//! [`sweep::run_parallel`] fans independent experiment cells out over
//! scoped threads.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod durable;
pub mod memory;
pub mod multi_user;
pub mod plot;
pub mod real_runner;
pub mod report;
pub mod rotating;
pub mod runner;
pub mod service;
pub mod snapshotter;
pub mod sweep;

pub use durable::{
    fold_fingerprint_salt, service_fingerprint, service_fingerprint_with_oracle,
    DurableArrangementService, DurableOptions, ServiceHealth,
};
pub use memory::MemoryModel;
pub use multi_user::{
    run_multi_user, run_multi_user_stored, LearnerArchitecture, MultiUserRunResult,
};
pub use real_runner::{run_real, CuMode, RealRunConfig, RealRunResult};
pub use report::{ascii_chart, write_csv, AsciiTable, CsvTable, CsvWriter};
pub use rotating::{run_rotating, RotatingRunResult};
pub use runner::{
    paper_checkpoints, run_simulation, Checkpoint, PolicyRunResult, RunConfig, SimulationResult,
};
pub use service::{ArrangementService, ServiceError};
pub use snapshotter::{live_snapshotters, Snapshotter};
