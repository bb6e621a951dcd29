//! # fasea-models
//!
//! A **million-user personalized estimator store** for FASEA: per-user
//! `RidgeEstimator`s behind a stable `UserId -> ModelHandle` API, built
//! for populations far larger than RAM wants to hold in exact f64.
//!
//! The paper fits one global θ per policy; serving real event-based
//! social networks means one model per user (or cohort). Three
//! mechanisms keep that affordable:
//!
//! * **Cohort prior chain** ([`EstimatorStore`]) — a three-level
//!   copy-on-write chain *global prior → cohort prior → user delta*:
//!   users hash deterministically into cohorts, early feedback folds
//!   into a shared per-cohort `RidgeEstimator`, and users whose state
//!   has not diverged alias their cohort at zero private bytes.
//! * **Quantized residency tier** ([`QuantizedModel`]) — idle resident
//!   models are demoted to an `i16` fixed-point copy (upper-triangle
//!   `Y⁻¹`, `b`, `θ̂`) for approximate reads, with `state_bytes()`
//!   accounting against configurable hot/warm byte budgets.
//! * **Sketched per-user state** ([`SketchWarm`], opt-in) — private
//!   state as a rank-`r` frequent-directions sketch of the Gram update
//!   plus the exact `b` vector, `O(r·d)` bytes instead of `O(d²)`,
//!   reconstructed against the cohort prior on promotion.
//! * **WAL-backed spill** ([`SpillLog`]) — demoted models' exact bits
//!   go to an append-only, CRC-framed, crash-safe log (the same
//!   framing as `fasea-store`'s WAL) and fault back in on access.
//!
//! Eviction order is deterministic — `(last_access_seq, handle)` — and
//! the spill codec ([`codec`]) is bit-preserving, so **a run under a
//! tiny memory budget produces bit-equal arrangements, regret and RNG
//! streams to an unbounded run**. The [`PersonalizedUcb`] /
//! [`PersonalizedTs`] policy shells plug the store into every existing
//! driver (simulator, durable service, network serving layer) through
//! the ordinary `fasea_bandit::Policy` trait.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod policy;
pub mod quant;
pub mod spill;
pub mod store;

pub use policy::{PersonalizedTs, PersonalizedUcb, UserSchedule};
pub use quant::{QuantizedModel, SketchWarm};
pub use spill::SpillLog;
pub use store::{EstimatorStore, ModelHandle, StateMode, StoreConfig, StoreStats, UserId};

/// Errors surfaced by the model store subsystem.
#[derive(Debug)]
pub enum ModelsError {
    /// An I/O failure in the spill log.
    Io(std::io::Error),
    /// A malformed exact blob or store snapshot.
    Codec(&'static str),
    /// Numerically invalid restored state.
    Linalg(fasea_linalg::LinalgError),
    /// A spill log structural problem (bad header, missing record…).
    Spill(&'static str),
    /// An invalid store configuration.
    Config(&'static str),
    /// A handle that this store never issued.
    UnknownHandle,
}

impl std::fmt::Display for ModelsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelsError::Io(e) => write!(f, "spill I/O error: {e}"),
            ModelsError::Codec(s) => write!(f, "model codec error: {s}"),
            ModelsError::Linalg(e) => write!(f, "restored state is invalid: {e}"),
            ModelsError::Spill(s) => write!(f, "spill log error: {s}"),
            ModelsError::Config(s) => write!(f, "store configuration error: {s}"),
            ModelsError::UnknownHandle => write!(f, "unknown model handle"),
        }
    }
}

impl std::error::Error for ModelsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelsError::Io(e) => Some(e),
            ModelsError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelsError {
    fn from(e: std::io::Error) -> Self {
        ModelsError::Io(e)
    }
}
