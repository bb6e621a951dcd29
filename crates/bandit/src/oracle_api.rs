//! The public arrangement-oracle API: the [`Oracle`] trait, its
//! reusable [`OracleWorkspace`] scratch, the [`OracleOptions`] builder,
//! and the two shipped implementations — [`GreedyOracle`] (Algorithm 2,
//! bit-equal to the historical free functions) and [`TabuOracle`]
//! (deterministic tabu-search local improvement).
//!
//! ## Why a trait
//!
//! Until this module existed the oracle was four free functions
//! hard-wired through [`crate::ScoreWorkspace::arrange_into`], the
//! durable service and the shard coordinator. The trait turns the
//! arrangement step into a seam: policies score, the installed oracle
//! arranges, and every layer (in-process, sharded, durable replay)
//! dispatches through the same object-safe interface. The free
//! functions lived on for one release as `#[deprecated]` thin wrappers
//! and have since been removed; the trait is the only entry point.
//!
//! ## Determinism contract
//!
//! An [`Oracle`] must be a **pure function** of
//! `(scores, conflicts, remaining, user_capacity)` — no RNG, no
//! ambient state — because the WAL `Propose` records are verified on
//! recovery by re-running the policy *and* the installed oracle and
//! cross-checking the arrangement. [`GreedyOracle`] additionally
//! guarantees that the serial and gathered paths are bit-equal to each
//! other; [`TabuOracle`] guarantees feasibility
//! (conflict-free, capacity-respecting, `≤ c_u` events) and determinism
//! but deliberately trades the greedy visiting order for local-search
//! quality.
//!
//! ## Example
//!
//! The paper's Example 3 (UCB, round 1) through the trait:
//!
//! ```
//! use fasea_bandit::{GreedyOracle, Oracle, OracleWorkspace};
//! use fasea_core::{Arrangement, ConflictGraph, EventId};
//!
//! let conflicts = ConflictGraph::from_pairs(4, &[(0, 1)]);
//! let oracle = GreedyOracle;
//! let mut ws = OracleWorkspace::new();
//! let mut out = Arrangement::empty();
//! oracle.arrange_into(&[1.10, 0.49, 0.82, 2.00], &conflicts, &[1; 4], 2, &mut ws, &mut out);
//! assert_eq!(out.events(), &[EventId(3), EventId(0)]);
//! ```

use crate::oracle::{greedy_dist_into, greedy_into};
use fasea_core::{Arrangement, ConflictGraph, EventId};
use std::sync::Arc;

/// Reusable scratch for [`Oracle`] implementations.
///
/// Owns the ranking/mask buffers the greedy paths use plus the
/// local-search scratch of [`TabuOracle`]; every buffer grows on first
/// use and is reused afterwards, so a steady-state arrangement performs
/// zero heap allocations regardless of the installed oracle (the
/// counting-allocator tests assert this through the policy path).
#[derive(Debug, Clone, Default)]
pub struct OracleWorkspace {
    /// Ranked candidate prefix (the oracle's visiting order).
    pub(crate) order: Vec<u32>,
    /// Conflict bitmask words for the greedy scan.
    pub(crate) mask: Vec<u64>,
    /// Tabu search: the current working arrangement.
    pub(crate) current: Vec<u32>,
    /// Tabu search: the best arrangement seen so far.
    pub(crate) best: Vec<u32>,
    /// Tabu search: recently removed events, oldest first.
    pub(crate) tabu: Vec<u32>,
}

impl OracleWorkspace {
    /// An empty workspace; buffers grow on first arrangement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Approximate bytes held by the workspace buffers.
    pub fn state_bytes(&self) -> usize {
        self.order.len() * std::mem::size_of::<u32>()
            + self.mask.len() * std::mem::size_of::<u64>()
            + (self.current.len() + self.best.len() + self.tabu.len()) * std::mem::size_of::<u32>()
    }
}

/// An arrangement oracle: given per-event scores and the feasibility
/// constraints (conflict graph, remaining capacities, the user's
/// capacity `c_u`), produce the arrangement for one round.
///
/// Object-safe so services can hold `Arc<dyn Oracle>` and swap
/// implementations at configuration time ([`OracleOptions::build`]).
///
/// Implementations **must** be deterministic pure functions of their
/// arguments (see the module docs — recovery replays through the
/// installed oracle) and must produce *feasible* arrangements: at most
/// `user_capacity` events, pairwise conflict-free, every arranged
/// event with `remaining > 0`.
pub trait Oracle: Send + Sync + std::fmt::Debug {
    /// Short stable name (`"greedy"`, `"tabu"`) — used in diagnostics,
    /// CLI flags, bench tables and the durable-log fingerprint.
    fn name(&self) -> &'static str;

    /// `true` only for Algorithm 2 itself ([`GreedyOracle`]): an oracle
    /// that reads scores solely through the greedy visiting order, so a
    /// pruned UCB round whose exact scores cover the ranked prefix can
    /// be arranged without scoring the rest (see
    /// [`crate::ScoreWorkspace::arrange_into`]). Every other oracle
    /// receives a complete score vector. Defaults to `false`.
    fn is_greedy(&self) -> bool {
        false
    }

    /// Fills `out` with the arrangement for one round.
    ///
    /// `ws` is reusable scratch owned by the caller; its contents on
    /// entry are ignored.
    ///
    /// # Panics
    /// Implementations panic if `scores.len()`, the conflict graph and
    /// `remaining` disagree on `|V|`.
    fn arrange_into(
        &self,
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        user_capacity: u32,
        ws: &mut OracleWorkspace,
        out: &mut Arrangement,
    );

    /// The merge seam for distributed rankings: like
    /// [`Oracle::arrange_into`], but candidate ranking may be gathered
    /// from external per-shard top-k passes. `gather` is called with a
    /// prefix size `k` and must append every shard's
    /// [`crate::subset_top_k`] candidates for that `k`.
    ///
    /// The default implementation ignores `gather` and arranges
    /// locally — correct for any oracle whose caller holds the full
    /// score vector (the shard coordinator does), merely forgoing the
    /// distributed ranking. [`GreedyOracle`] overrides it with the
    /// sort-merge-truncate ranking that is bit-equal to its serial
    /// visiting order.
    #[allow(clippy::too_many_arguments)]
    fn arrange_gathered(
        &self,
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        user_capacity: u32,
        ws: &mut OracleWorkspace,
        out: &mut Arrangement,
        gather: &mut dyn FnMut(usize, &mut Vec<u32>),
    ) {
        let _ = gather;
        self.arrange_into(scores, conflicts, remaining, user_capacity, ws, out);
    }
}

/// Algorithm 2 (Oracle-Greedy) behind the [`Oracle`] trait — every
/// path produces **bit-equal** arrangements:
///
/// * serial: the bounded-insertion top-k prefix ranking;
/// * gathered ([`Oracle::arrange_gathered`]): the external-shard
///   sort-merge-truncate over per-shard [`crate::subset_top_k`] passes.
///
/// The equality is asserted by the `oracle_equivalence` property tests
/// and the `shard_parity` golden gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyOracle;

impl Oracle for GreedyOracle {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn is_greedy(&self) -> bool {
        true
    }

    fn arrange_into(
        &self,
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        user_capacity: u32,
        ws: &mut OracleWorkspace,
        out: &mut Arrangement,
    ) {
        greedy_into(
            scores,
            conflicts,
            remaining,
            user_capacity,
            &mut ws.order,
            &mut ws.mask,
            out,
        );
    }

    fn arrange_gathered(
        &self,
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        user_capacity: u32,
        ws: &mut OracleWorkspace,
        out: &mut Arrangement,
        gather: &mut dyn FnMut(usize, &mut Vec<u32>),
    ) {
        greedy_dist_into(
            scores,
            conflicts,
            remaining,
            user_capacity,
            &mut ws.order,
            &mut ws.mask,
            out,
            gather,
        );
    }
}

/// The objective a [`TabuOracle`] move is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TabuFitness {
    /// Maximise expected attendance: the sum of the **positive** scores
    /// of the arranged events (the quantity Theorem 1 bounds).
    #[default]
    MaxAttendance,
    /// Balance fill: each event's positive score is weighted by
    /// `remaining / (remaining + 1)`, de-prioritising nearly-full
    /// events so load spreads across the catalogue.
    BalancedFill,
}

impl TabuFitness {
    /// One event's contribution to the arrangement fitness. The total
    /// is additive over arranged events, which keeps neighbour
    /// evaluation O(1) per move.
    #[inline]
    fn contrib(self, scores: &[f64], remaining: &[u32], v: u32) -> f64 {
        let s = scores[v as usize].max(0.0);
        match self {
            TabuFitness::MaxAttendance => s,
            TabuFitness::BalancedFill => {
                let r = remaining[v as usize] as f64;
                s * (r / (r + 1.0))
            }
        }
    }
}

/// Deterministic tabu-search local improvement over the greedy seed
/// (in the style of classic event-organizer tabu schedulers: a bounded
/// tabu list of recently removed events, best-neighbour moves even
/// when worsening, global-best tracking).
///
/// Each round: seed with [`GreedyOracle`]'s arrangement, rank a bounded
/// candidate prefix, then perform up to `attempts` moves. A move either
/// **adds** a feasible candidate (if the arrangement is below `c_u`) or
/// **swaps** one arranged event for a candidate that stays feasible;
/// the best-fitness non-tabu move is applied even when it worsens the
/// current fitness (that is what lets the search leave the greedy local
/// optimum — e.g. a star-conflict centre blocking `c_u` leaves), the
/// swapped-out event becomes tabu, and the best arrangement ever seen
/// is returned.
///
/// Fully deterministic: no RNG, ties break towards the lower candidate
/// id then the lower swapped-out position, so equal inputs give equal
/// arrangements on every run and on recovery replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TabuOracle {
    options: OracleOptions,
}

impl TabuOracle {
    /// A tabu oracle with the given knobs (`kind` is ignored — the
    /// value is whatever this constructor is handed).
    pub fn new(options: OracleOptions) -> Self {
        TabuOracle { options }
    }

    /// The configured options.
    pub fn options(&self) -> &OracleOptions {
        &self.options
    }

    fn fitness_of(&self, events: &[u32], scores: &[f64], remaining: &[u32]) -> f64 {
        events
            .iter()
            .map(|&v| self.options.tabu_fitness.contrib(scores, remaining, v))
            .sum()
    }
}

impl Default for TabuOracle {
    fn default() -> Self {
        TabuOracle::new(OracleOptions::tabu())
    }
}

/// One candidate move of the tabu search.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Move {
    fitness: f64,
    add: u32,
    /// Position in `current` being replaced, or `usize::MAX` for a
    /// pure add.
    remove_at: usize,
}

impl Oracle for TabuOracle {
    fn name(&self) -> &'static str {
        "tabu"
    }

    fn arrange_into(
        &self,
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        user_capacity: u32,
        ws: &mut OracleWorkspace,
        out: &mut Arrangement,
    ) {
        // Seed with the greedy arrangement (also validates the slice
        // lengths agree on |V|).
        GreedyOracle.arrange_into(scores, conflicts, remaining, user_capacity, ws, out);
        let n = scores.len();
        let cu = user_capacity as usize;
        if n == 0 || cu == 0 {
            return;
        }

        // Candidate neighbourhood: a bounded top-ranked prefix under
        // the same total order the greedy oracle visits (score
        // descending, index ascending), restricted to non-full events.
        // Bounding it keeps a move O(prefix · c_u) instead of O(|V|).
        let prefix = cu.saturating_mul(8).max(64).min(n);
        crate::oracle::ranked_prefix(scores, remaining, prefix, &mut ws.order);

        let OracleWorkspace {
            order,
            current,
            best,
            tabu,
            ..
        } = ws;
        current.clear();
        current.extend(out.iter().map(|e| e.index() as u32));
        best.clone_from(current);
        let mut best_fit = self.fitness_of(best, scores, remaining);
        let mut current_fit = best_fit;
        tabu.clear();
        let tabu_cap = self.options.tabu_len as usize;

        for _attempt in 0..self.options.tabu_attempts {
            let mut chosen: Option<Move> = None;
            for &v in order.iter() {
                if current.contains(&v) || tabu.contains(&v) {
                    continue;
                }
                debug_assert!(
                    remaining[v as usize] > 0,
                    "ranked_prefix admitted a full event"
                );
                let gain = self.options.tabu_fitness.contrib(scores, remaining, v);
                // How many current members does v conflict with, and
                // where is the (unique, if single) offender?
                let mut offenders = 0usize;
                let mut offender_at = usize::MAX;
                for (i, &w) in current.iter().enumerate() {
                    if conflicts.are_conflicting(EventId(v as usize), EventId(w as usize)) {
                        offenders += 1;
                        offender_at = i;
                        if offenders > 1 {
                            break;
                        }
                    }
                }
                let candidate = if offenders == 0 && current.len() < cu {
                    // Pure add.
                    Some(Move {
                        fitness: current_fit + gain,
                        add: v,
                        remove_at: usize::MAX,
                    })
                } else if offenders == 1 {
                    // Swap out the unique offender.
                    let w = current[offender_at];
                    let loss = self.options.tabu_fitness.contrib(scores, remaining, w);
                    Some(Move {
                        fitness: current_fit + gain - loss,
                        add: v,
                        remove_at: offender_at,
                    })
                } else if offenders == 0 && !current.is_empty() {
                    // Arrangement is at capacity and v conflicts with
                    // nothing: swap out the lowest-contribution member
                    // (first such position — deterministic).
                    let (at, w) = current
                        .iter()
                        .copied()
                        .enumerate()
                        .min_by(|&(ai, aw), &(bi, bw)| {
                            let ca = self.options.tabu_fitness.contrib(scores, remaining, aw);
                            let cb = self.options.tabu_fitness.contrib(scores, remaining, bw);
                            ca.partial_cmp(&cb)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(ai.cmp(&bi))
                        })
                        .expect("current is non-empty");
                    let loss = self.options.tabu_fitness.contrib(scores, remaining, w);
                    Some(Move {
                        fitness: current_fit + gain - loss,
                        add: v,
                        remove_at: at,
                    })
                } else {
                    None
                };
                // Keep the best move; candidates iterate in ranking
                // order, so ties keep the earlier (better-ranked) one.
                if let Some(m) = candidate {
                    if chosen.is_none_or(|c| m.fitness > c.fitness) {
                        chosen = Some(m);
                    }
                }
            }
            let Some(m) = chosen else { break };
            if m.remove_at == usize::MAX {
                current.push(m.add);
            } else {
                let removed = std::mem::replace(&mut current[m.remove_at], m.add);
                tabu.push(removed);
                if tabu.len() > tabu_cap {
                    tabu.remove(0);
                }
            }
            // The incremental `m.fitness` is for move *selection*; the
            // accepted state recomputes the exact sum so float drift
            // cannot accumulate across attempts.
            current_fit = self.fitness_of(current, scores, remaining);
            if current_fit > best_fit {
                best_fit = current_fit;
                best.clone_from(current);
            }
        }

        out.clear();
        for &v in best.iter() {
            out.push(EventId(v as usize));
        }
    }
}

/// Which [`Oracle`] implementation [`OracleOptions::build`] constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleKind {
    /// [`GreedyOracle`] — Algorithm 2, the paper's oracle and the
    /// default everywhere.
    #[default]
    Greedy,
    /// [`TabuOracle`] — tabu-search local improvement over the greedy
    /// seed.
    Tabu,
}

/// Configuration for constructing an [`Oracle`] — the builder-style
/// companion to `RunConfig`/`DurableOptions` (same `#[non_exhaustive]`
/// and `with_*` convention, and `Copy` so it can ride inside
/// `DurableOptions`).
///
/// ```
/// use fasea_bandit::{OracleKind, OracleOptions, TabuFitness};
///
/// let opts = OracleOptions::tabu()
///     .with_tabu_attempts(40)
///     .with_tabu_fitness(TabuFitness::BalancedFill);
/// assert_eq!(opts.kind, OracleKind::Tabu);
/// let oracle = opts.build();
/// assert_eq!(oracle.name(), "tabu");
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOptions {
    /// Which implementation to build. Default [`OracleKind::Greedy`].
    pub kind: OracleKind,
    /// Tabu search: maximum number of moves per round. Default 20.
    pub tabu_attempts: u32,
    /// Tabu search: tabu-list capacity (recently swapped-out events
    /// that may not re-enter). Default 5.
    pub tabu_len: u32,
    /// Tabu search: the move objective. Default
    /// [`TabuFitness::MaxAttendance`].
    pub tabu_fitness: TabuFitness,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            kind: OracleKind::Greedy,
            tabu_attempts: 20,
            tabu_len: 5,
            tabu_fitness: TabuFitness::MaxAttendance,
        }
    }
}

impl OracleOptions {
    /// Defaults: the greedy oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defaults with [`OracleKind::Greedy`] (explicit form of
    /// [`OracleOptions::new`]).
    pub fn greedy() -> Self {
        Self::default()
    }

    /// Defaults with [`OracleKind::Tabu`].
    pub fn tabu() -> Self {
        OracleOptions {
            kind: OracleKind::Tabu,
            ..Self::default()
        }
    }

    /// Sets the implementation kind.
    pub fn with_kind(mut self, kind: OracleKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the tabu move budget per round.
    pub fn with_tabu_attempts(mut self, attempts: u32) -> Self {
        self.tabu_attempts = attempts;
        self
    }

    /// Sets the tabu-list capacity.
    pub fn with_tabu_len(mut self, len: u32) -> Self {
        self.tabu_len = len;
        self
    }

    /// Sets the tabu move objective.
    pub fn with_tabu_fitness(mut self, fitness: TabuFitness) -> Self {
        self.tabu_fitness = fitness;
        self
    }

    /// The stable name of the oracle these options build (`"greedy"` /
    /// `"tabu"`) — what `--oracle` accepts and what the durable-log
    /// fingerprint mixes in for non-default oracles.
    pub fn name(&self) -> &'static str {
        match self.kind {
            OracleKind::Greedy => "greedy",
            OracleKind::Tabu => "tabu",
        }
    }

    /// Parses an `--oracle` flag value. Accepts `"greedy"` and
    /// `"tabu"`; returns `None` for anything else.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "greedy" => Some(Self::greedy()),
            "tabu" => Some(Self::tabu()),
            _ => None,
        }
    }

    /// Constructs the configured oracle.
    pub fn build(&self) -> Arc<dyn Oracle> {
        match self.kind {
            OracleKind::Greedy => Arc::new(GreedyOracle),
            OracleKind::Tabu => Arc::new(TabuOracle::new(*self)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::greedy;

    fn arrange(
        oracle: &dyn Oracle,
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        cu: u32,
    ) -> Arrangement {
        let mut ws = OracleWorkspace::new();
        let mut out = Arrangement::empty();
        oracle.arrange_into(scores, conflicts, remaining, cu, &mut ws, &mut out);
        out
    }

    fn assert_feasible(a: &Arrangement, conflicts: &ConflictGraph, remaining: &[u32], cu: u32) {
        assert!(a.len() <= cu as usize, "arrangement exceeds c_u");
        let events: Vec<usize> = a.iter().map(|e| e.index()).collect();
        for (i, &v) in events.iter().enumerate() {
            assert!(remaining[v] > 0, "arranged full event {v}");
            for &w in &events[..i] {
                assert!(v != w, "duplicate event {v}");
                assert!(
                    !conflicts.are_conflicting(EventId(v), EventId(w)),
                    "conflicting pair ({v},{w}) arranged"
                );
            }
        }
    }

    #[test]
    fn greedy_oracle_is_bit_equal_to_free_function() {
        let n = 200usize;
        let scores: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(2654435761) >> 9) % 997) as f64 / 99.0 - 3.0)
            .collect();
        let pairs: Vec<(usize, usize)> = (0..n / 7).map(|i| (i, i + n / 2)).collect();
        let g = ConflictGraph::from_pairs(n, &pairs);
        let remaining: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        for cu in [0u32, 1, 3, 17, 100] {
            let via_trait = arrange(&GreedyOracle, &scores, &g, &remaining, cu);
            let legacy = greedy(&scores, &g, &remaining, cu);
            assert_eq!(via_trait, legacy, "cu={cu}");
        }
    }

    #[test]
    fn greedy_oracle_gathered_matches_serial() {
        let n = 120usize;
        let scores: Vec<f64> = (0..n).map(|i| ((i * 37) % 100) as f64 / 10.0).collect();
        let g = ConflictGraph::from_pairs(n, &[(0, 60), (5, 65)]);
        let remaining: Vec<u32> = (0..n).map(|i| (i % 2) as u32 + 1).collect();
        let members: Vec<Vec<u32>> = (0..3)
            .map(|s| (0..n as u32).filter(|v| (*v as usize) % 3 == s).collect())
            .collect();
        let mut ws = OracleWorkspace::new();
        let mut out = Arrangement::empty();
        let mut scratch = Vec::new();
        GreedyOracle.arrange_gathered(
            &scores,
            &g,
            &remaining,
            5,
            &mut ws,
            &mut out,
            &mut |k, buf| {
                for m in &members {
                    crate::subset_top_k(&scores, m, k, &mut scratch);
                    buf.extend_from_slice(&scratch);
                }
            },
        );
        assert_eq!(out, greedy(&scores, &g, &remaining, 5));
    }

    #[test]
    fn tabu_escapes_the_star_trap() {
        // Greedy is trapped at the star centre (Theorem 1's adversarial
        // instance); tabu swaps it out and collects the leaves.
        let g = ConflictGraph::from_pairs(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let scores = [0.51, 0.5, 0.5, 0.5, 0.5];
        let remaining = [1u32; 5];
        let greedy_a = arrange(&GreedyOracle, &scores, &g, &remaining, 4);
        assert_eq!(greedy_a.len(), 1);
        let tabu = TabuOracle::default();
        let a = arrange(&tabu, &scores, &g, &remaining, 4);
        assert_feasible(&a, &g, &remaining, 4);
        let mut ids: Vec<usize> = a.iter().map(|e| e.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4], "tabu failed to leave the centre");
    }

    #[test]
    fn tabu_is_deterministic_and_feasible_across_shapes() {
        for seed in 0u64..6 {
            let n = 40 + (seed as usize) * 17;
            let scores: Vec<f64> = (0..n)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(seed);
                    ((h >> 16) % 2000) as f64 / 100.0 - 5.0
                })
                .collect();
            let pairs: Vec<(usize, usize)> = (0..n / 3).map(|i| (i, n - 1 - i)).collect();
            let pairs: Vec<(usize, usize)> = pairs.into_iter().filter(|(a, b)| a != b).collect();
            let g = ConflictGraph::from_pairs(n, &pairs);
            let remaining: Vec<u32> = (0..n).map(|i| ((i + seed as usize) % 3) as u32).collect();
            let tabu = TabuOracle::default();
            for cu in [1u32, 2, 5, 9] {
                let a = arrange(&tabu, &scores, &g, &remaining, cu);
                let b = arrange(&tabu, &scores, &g, &remaining, cu);
                assert_eq!(a, b, "tabu not deterministic (seed={seed}, cu={cu})");
                assert_feasible(&a, &g, &remaining, cu);
            }
        }
    }

    #[test]
    fn tabu_never_loses_to_its_greedy_seed() {
        // Best-ever tracking starts at the greedy seed, so the returned
        // fitness can only improve on it.
        for seed in 0u64..4 {
            let n = 60usize;
            let scores: Vec<f64> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 977);
                    ((h >> 8) % 1000) as f64 / 100.0
                })
                .collect();
            let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, i + n / 2)).collect();
            let g = ConflictGraph::from_pairs(n, &pairs);
            let remaining = vec![2u32; n];
            let tabu = TabuOracle::default();
            for cu in [2u32, 4, 8] {
                let seed_a = greedy(&scores, &g, &remaining, cu);
                let improved = arrange(&tabu, &scores, &g, &remaining, cu);
                let fit = |a: &Arrangement| crate::positive_score_sum(a, &scores);
                assert!(
                    fit(&improved) >= fit(&seed_a) - 1e-12,
                    "tabu returned worse than its seed (seed={seed}, cu={cu})"
                );
            }
        }
    }

    #[test]
    fn balanced_fill_prefers_emptier_events() {
        // Two equal-score events, one nearly full: balanced fill picks
        // the emptier one when only one fits.
        let g = ConflictGraph::from_pairs(2, &[(0, 1)]);
        let scores = [1.0, 1.0];
        let remaining = [1u32, 50];
        let balanced =
            TabuOracle::new(OracleOptions::tabu().with_tabu_fitness(TabuFitness::BalancedFill));
        let a = arrange(&balanced, &scores, &g, &remaining, 1);
        assert_eq!(a.events(), &[EventId(1)]);
    }

    #[test]
    fn options_parse_and_build() {
        assert_eq!(OracleOptions::parse("greedy").unwrap().name(), "greedy");
        assert_eq!(OracleOptions::parse("tabu").unwrap().name(), "tabu");
        assert!(OracleOptions::parse("annealing").is_none());
        assert_eq!(OracleOptions::greedy().build().name(), "greedy");
        assert_eq!(OracleOptions::tabu().build().name(), "tabu");
        let custom = OracleOptions::new()
            .with_kind(OracleKind::Tabu)
            .with_tabu_attempts(3)
            .with_tabu_len(2);
        assert_eq!(custom.tabu_attempts, 3);
        assert_eq!(custom.tabu_len, 2);
    }

    #[test]
    fn zero_capacity_and_empty_instance() {
        let g = ConflictGraph::new(0);
        for oracle in [&GreedyOracle as &dyn Oracle, &TabuOracle::default()] {
            assert!(arrange(oracle, &[], &g, &[], 4).is_empty());
        }
        let g3 = ConflictGraph::new(3);
        for oracle in [&GreedyOracle as &dyn Oracle, &TabuOracle::default()] {
            assert!(arrange(oracle, &[1.0, 2.0, 3.0], &g3, &[1; 3], 0).is_empty());
        }
    }
}
