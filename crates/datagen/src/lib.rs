//! # fasea-datagen
//!
//! Workload generators for the FASEA reproduction.
//!
//! Two data sources drive the paper's evaluation (Section 5.1):
//!
//! 1. **Synthetic** (Table 4) — [`synthetic`] implements every cell of
//!    the configuration grid: `|V| ∈ {100, 500, 1000}`, `T = 100 000`,
//!    `d ∈ {1, 5, 10, 15, 20}`, `θ`/`x` from Uniform[-1,1] / Power(2) /
//!    N(0,1) / per-dimension "shuffle", unit normalisation, event
//!    capacities `c_v ∼ N(µ, σ)`, user capacities `c_u ∼ U{1..5}`,
//!    and conflict ratios `cr ∈ {0, 0.25, 0.5, 0.75, 1}`.
//!    Contexts are generated **lazily per round** from counter-derived
//!    seeds — the default grid would otherwise need `10⁹` floats — so
//!    every policy deterministically sees the same arrival stream.
//!
//! 2. **Real-data analogue** (Table 3) — [`real`] synthesises the
//!    Damai.com study the authors ran: 50 Beijing events with the exact
//!    Table 3 schema (6 categories / 24 sub-categories, performers,
//!    country/district, lowest-price band, day-of-week, normalised
//!    distance), binary-coded categorical features concatenated to
//!    `d = 20` and divided by `d`; conflicts from overlapping date/time
//!    slots; and 19 users whose fixed Yes/No ground-truth labels are
//!    generated from per-user linear preference scores, with Yes-counts
//!    matching the paper's `c_u = full` row exactly
//!    (12, 26, 11, …, 17). See `DESIGN.md` §4 for the substitution
//!    rationale.
//!
//! [`mis`] provides the exact maximum-independent-set solver behind the
//! real dataset's "Full Knowledge" reference column.
//!
//! Two further generators implement the paper's extension Remarks
//! (Section 2): [`multi_user`] — populations of recurring users with
//! individual hidden `θ_u`'s over shared event capacities (Remark 1) —
//! and [`rotating`] — time-varying event sets `V_t` on a weekday-style
//! calendar (Remark 2).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod encode;
pub mod mis;
pub mod multi_user;
pub mod real;
pub mod rotating;
pub mod synthetic;

pub use multi_user::{MultiUserConfig, MultiUserWorkload};
pub use real::{RealDataset, RealEvent, RealUser};
pub use rotating::RotatingSchedule;
pub use synthetic::{
    ArrivalGenerator, CapacityModel, SyntheticConfig, SyntheticWorkload, ValueDistribution,
};
