//! # fasea-bandit
//!
//! Contextual combinatorial bandit policies for the FASEA problem —
//! the algorithmic contribution of the paper.
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 (TS) | [`ThompsonSampling`] |
//! | Algorithm 2 (Oracle-Greedy) | [`GreedyOracle`] |
//! | Algorithm 3 (UCB) | [`LinUcb`] |
//! | Algorithm 4 (eGreedy) | [`EpsilonGreedy`] |
//! | Exploit heuristic (α=0 / ε=0) | [`Exploit`] |
//! | Random baseline | [`RandomPolicy`] |
//! | OPT / "Full Knowledge" reference | [`Opt`] |
//! | OnlineGreedy-GEACC \[39\] comparator | [`StaticScorePolicy`] |
//!
//! All learning policies share the [`RidgeEstimator`]: the Gram matrix
//! `Y = λI + Σ x xᵀ` with incrementally maintained inverse, the
//! reward-weighted sum `b = Σ r x`, and the ridge estimate `θ̂ = Y⁻¹ b`
//! (line "θ̂_t ← Y⁻¹ b" of every algorithm in the paper).
//!
//! Every policy implements [`Policy`]: `select` proposes an arrangement
//! for the current user, `observe` consumes the user's feedback, and
//! `last_scores` exposes the per-event scores the most recent selection
//! used (the experiment harness ranks these against the ground truth for
//! the paper's Figure 2 Kendall-τ analysis).
//!
//! ## Quick example
//!
//! ```
//! use fasea_bandit::{LinUcb, Policy, SelectionView};
//! use fasea_core::{ConflictGraph, ContextMatrix, EventId};
//!
//! let mut ucb = LinUcb::new(3, 1.0, 2.0); // d=3, λ=1, α=2
//! let contexts = ContextMatrix::from_rows(2, 3, vec![
//!     0.5, 0.1, 0.0,
//!     0.0, 0.7, 0.1,
//! ]);
//! let conflicts = ConflictGraph::new(2);
//! let remaining = [10u32, 10];
//! let view = SelectionView {
//!     t: 0,
//!     user_capacity: 1,
//!     contexts: &contexts,
//!     conflicts: &conflicts,
//!     remaining: &remaining,
//! };
//! let arrangement = ucb.select(&view);
//! assert_eq!(arrangement.len(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

mod diagnostics;
mod egreedy;
mod estimator;
mod exploit;
mod opt;
mod oracle;
mod oracle_api;
mod policy;
mod prune;
mod random;
mod snapshot;
mod static_score;
mod ts;
mod ucb;
mod workspace;

pub use diagnostics::EllipticalPotential;
pub use egreedy::EpsilonGreedy;
pub use estimator::RidgeEstimator;
pub use exploit::Exploit;
pub use opt::Opt;
pub use oracle::{oracle_exhaustive, positive_score_sum, subset_top_k};
pub use oracle_api::{
    GreedyOracle, Oracle, OracleKind, OracleOptions, OracleWorkspace, TabuFitness, TabuOracle,
};
pub use policy::{Policy, SelectionView};
pub use random::RandomPolicy;
pub use snapshot::{restore_estimator, save_estimator, SnapshotError, MAGIC as SNAPSHOT_MAGIC};
pub use static_score::StaticScorePolicy;
pub use ts::ThompsonSampling;
pub use ucb::LinUcb;
pub use workspace::{Arranger, ModelTierStats, PrefetchStats, ScoreStats, ScoreWorkspace};
