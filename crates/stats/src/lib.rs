//! # fasea-stats
//!
//! Random distributions, rank statistics and streaming statistics for the
//! FASEA reproduction.
//!
//! The paper's synthetic workload (Table 4) draws the weight vector `θ`
//! and the per-round contexts `x_{t,v}` from Uniform[-1,1], Normal(0,1),
//! Power(2) and a per-dimension "shuffle" mixture of the three; event
//! capacities follow Normal distributions and user capacities
//! Uniform{1..5}. Its evaluation (Figure 2) ranks algorithms by the
//! **Kendall rank correlation** between estimated and true expected event
//! rewards. This crate supplies all of those primitives:
//!
//! * [`dist`] — scalar distributions implemented from scratch on top of a
//!   raw uniform bit source ([`rand`] is used only as the generator of
//!   uniform `f64`s).
//! * [`mvn`] — sampling from `N(θ̂, q² Y⁻¹)` given a Cholesky factor of
//!   `Y` (Thompson Sampling's line 7).
//! * [`kendall`] — Kendall's τ in both the naive `O(n²)` form and
//!   Knight's `O(n log n)` merge-sort form.
//! * [`crn`] — counter-based *common random numbers*: a stateless hash
//!   `u(seed, t, v) ∈ [0,1)` so that every policy in an experiment faces
//!   exactly the same acceptance coin flips (variance reduction, and the
//!   reason regret curves across policies are directly comparable).
//! * [`summary`] — Welford online moments and fixed-width histograms.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod crn;
pub mod dist;
pub mod kendall;
pub mod mvn;
pub mod quantile;
pub mod summary;

pub use crn::CoinStream;
pub use dist::{Bernoulli, Distribution, Normal, PowerLaw, Uniform};
pub use kendall::{kendall_tau, kendall_tau_naive};
pub use mvn::sample_gaussian_with_precision_factor;
pub use quantile::P2Quantile;
pub use summary::{Histogram, RunningStats};

/// Re-exported seedable RNG used across the workspace so every crate
/// agrees on one generator type.
pub type Rng = rand::rngs::StdRng;

/// Builds the workspace-standard RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}

/// Exports the RNG's exact internal state, so durable snapshots can
/// resume a policy's private randomness mid-stream (crash recovery must
/// re-draw precisely the values the uninterrupted run would have).
pub fn rng_state(rng: &Rng) -> [u8; 32] {
    rng.to_state_bytes()
}

/// Rebuilds an RNG from a state exported by [`rng_state`], continuing
/// the stream exactly where it left off.
pub fn rng_from_state(state: [u8; 32]) -> Rng {
    Rng::from_state_bytes(state)
}
