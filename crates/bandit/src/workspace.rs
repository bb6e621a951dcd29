//! Reusable per-policy scoring scratch for the batched selection path.

use crate::prune::{self, PruneScratch};
use crate::{Oracle, OracleWorkspace, SelectionView};
use fasea_core::{Arrangement, ContextMatrix};
use fasea_linalg::Matrix;
use std::sync::Arc;

/// A pluggable replacement for the oracle ranking step of
/// [`ScoreWorkspace::arrange_into`].
///
/// When installed ([`ScoreWorkspace::set_arranger`]), the workspace
/// hands the arranger the finished score vector plus its reusable
/// [`OracleWorkspace`] scratch and lets it fill `out` — instead of
/// running the locally installed [`Oracle`]. The sharded coordinator
/// uses this seam to fan the top-k ranking out over shard actors
/// (via [`Oracle::arrange_gathered`]) while scoring and every RNG draw
/// still happen exactly once, in the policy, on the calling thread —
/// which is what keeps an N-shard run byte-identical to the
/// single-actor run.
///
/// **Contract:** the arrangement written to `out` must equal what the
/// service's configured [`Oracle`] produces locally on the same inputs
/// (for the default [`crate::GreedyOracle`], that is the greedy
/// capacity-aware arrangement). Everything downstream (the
/// WAL `Propose` records, recovery's replay cross-check, the golden
/// parity tests) assumes it.
///
/// `Send + Sync` because the owning workspace lives inside policies
/// that cross thread boundaries; `Debug` so the workspace's derives
/// survive.
pub trait Arranger: Send + Sync + std::fmt::Debug {
    /// Fills `out` with the arrangement for `scores` under `view`,
    /// reusing `ws` as scratch.
    fn arrange(
        &self,
        scores: &[f64],
        view: &SelectionView<'_>,
        ws: &mut OracleWorkspace,
        out: &mut Arrangement,
    );
}

/// Per-policy scratch for one scoring round: the score vector the
/// arrangement oracle consumes, the UCB width buffer, and the oracle's
/// [`OracleWorkspace`] (visiting-order, conflict-mask and local-search
/// buffers).
///
/// Every buffer is grown on first use and **reused** afterwards, so once
/// the workspace has seen the instance size a steady-state
/// [`crate::Policy::select_into`] round performs zero heap allocations
/// (asserted by the counting-allocator test in `tests/alloc_free.rs`).
///
/// Policies own one workspace each (it is part of the policy struct, so
/// it survives across rounds and across the service layers); external
/// callers that drive [`crate::Policy::score_into`] directly — the
/// benches and the property tests — may hold their own.
///
/// Invalidation: the workspace caches nothing derived from the
/// estimator — θ̂ staleness is tracked inside [`crate::RidgeEstimator`]
/// and invalidated by `observe`. The workspace's `scores` are only
/// meaningful between a `score_into` and the next `observe`; they are
/// overwritten wholesale at the start of each round.
///
/// ## Oracle dispatch
///
/// [`ScoreWorkspace::arrange_into`] picks the arrangement engine in
/// precedence order:
///
/// 1. an installed [`Arranger`] ([`ScoreWorkspace::set_arranger`]) —
///    the sharded coordinator's distributed ranking;
/// 2. an installed [`Oracle`] ([`ScoreWorkspace::set_oracle`]) — e.g.
///    [`crate::TabuOracle`], or an explicit [`crate::GreedyOracle`];
/// 3. the built-in default: [`crate::GreedyOracle`] semantics —
///    bit-identical to an explicitly installed greedy oracle.
///
/// ## Pruned UCB rounds
///
/// [`ScoreWorkspace::score_ucb`] scores a wide UCB round exactly only
/// where Oracle-Greedy's initial ranked prefix can reach (DESIGN.md §10
/// "Pruned scoring"); every other entry holds `-∞`, below every exact
/// one. Such a round is *incomplete* until
/// [`ScoreWorkspace::complete_scores`] fills in the rest with the same
/// kernel, bit for bit. [`ScoreWorkspace::arrange_into`] completes it
/// itself whenever the arrangement step would read past the exact set:
/// the greedy scan widening past its initial prefix, an installed
/// [`Arranger`], or any oracle other than [`crate::GreedyOracle`].
/// [`ScoreWorkspace::last_scores`] is `None` for an incomplete round,
/// so no caller reads a partial vector as a full one.
/// [`ScoreWorkspace::score_stats`] counts the exact share.
///
/// ## Pipelined score prefetch
///
/// The round engines may compute a round's scores *early* — while the
/// previous round's log records are still in the commit queue — and
/// stash them with [`ScoreWorkspace::stash_prefetch`]. Scores are a
/// pure function of (learner state, contexts, `t`) for every shipped
/// policy — they never read `view.remaining` — so a stash stays valid
/// exactly until the next feedback that touches the model. That moment
/// is tracked by the **model epoch**: the service layers call
/// [`ScoreWorkspace::bump_model_epoch`] whenever `observe` actually
/// updated learner state (a non-empty arrangement's feedback).
/// [`ScoreWorkspace::take_prefetch`] consumes a stash only when both
/// the round index and the epoch still match; otherwise the stash is
/// dropped and the caller recomputes — determinism is preserved either
/// way, the epoch tag only decides whether the early work is reused.
#[derive(Debug, Clone, Default)]
pub struct ScoreWorkspace {
    scores: Vec<f64>,
    widths: Vec<f64>,
    oracle_ws: OracleWorkspace,
    oracle: Option<Arc<dyn Oracle>>,
    arranger: Option<Arc<dyn Arranger>>,
    scored_once: bool,
    model_epoch: u64,
    prefetch: PrefetchSlot,
    prefetch_stats: PrefetchStats,
    tier_stats: ModelTierStats,
    prune: PruneScratch,
    /// The score buffer holds a pruned round not yet completed.
    pruned: bool,
    /// Exact entries written by this round's scoring pass.
    round_exact: usize,
    score_stats: ScoreStats,
}

/// Stashed early-computed scores for one future round, tagged with the
/// model epoch they were computed under. Buffers are swapped (not
/// reallocated) on hit, so steady-state pipelined rounds stay
/// allocation-free once warm.
#[derive(Debug, Clone, Default)]
struct PrefetchSlot {
    valid: bool,
    complete: bool,
    t: u64,
    epoch: u64,
    scores: Vec<f64>,
    widths: Vec<f64>,
}

/// Cumulative outcome counters of the epoch-tagged score prefetch
/// ([`ScoreWorkspace::take_prefetch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Rounds whose stashed score set was reused verbatim.
    pub hits: u64,
    /// Rounds that found a stale stash (round or epoch mismatch) and
    /// recomputed their scores from scratch.
    pub recomputes: u64,
}

/// Cumulative scoring counters of a workspace: how many events its
/// rounds scored exactly, against how many they ranked. Every policy's
/// round is exact in full; only a pruned UCB round
/// ([`ScoreWorkspace::score_ucb`]) scores fewer, and a completion
/// ([`ScoreWorkspace::complete_scores`]) adds the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreStats {
    /// Rounds scored (marked by [`ScoreWorkspace::mark_scored`]).
    pub rounds: u64,
    /// Events across those rounds (`Σ |V|`).
    pub events: u64,
    /// Events the rounds' own scoring pass scored exactly.
    pub exact: u64,
    /// Events a later completion scored.
    pub completed: u64,
    /// Rounds that pruned.
    pub pruned_rounds: u64,
    /// Pruned rounds that were later completed.
    pub completions: u64,
}

impl ScoreStats {
    /// `(exact + completed) / events`: the share of events that were
    /// scored exactly on any path — the scoring work done, against 1
    /// for full scoring. 0 before the first round.
    pub fn exact_share(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            (self.exact + self.completed) as f64 / self.events as f64
        }
    }
}

/// Cumulative model-tier counters mirrored from a backing per-user
/// estimator store by policies that own one (the personalized policy
/// shells in `fasea-models`). Living on the workspace lets the serving
/// layers export them through the ordinary `Policy::workspace()` seam
/// without a dependency on the store type. Stays all-zero for global
/// (non-personalized) policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelTierStats {
    /// Cold-user selections served through a materialized cohort prior
    /// instead of the global prior.
    pub cohort_hits: u64,
    /// Promotions that reconstructed a user's exact model from its
    /// rank-r sketch record (sketched state mode only).
    pub sketch_promotions: u64,
}

impl ScoreWorkspace {
    /// An empty workspace; buffers grow on first round.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace with score/width capacity for `num_events` events.
    pub fn with_capacity(num_events: usize) -> Self {
        ScoreWorkspace {
            scores: Vec::with_capacity(num_events),
            widths: Vec::with_capacity(num_events),
            ..Self::default()
        }
    }

    /// Resizes the score buffer for `|V| = num_events` and returns it.
    /// Old contents are not cleared — every policy overwrites all `|V|`
    /// entries.
    pub fn scores_mut(&mut self, num_events: usize) -> &mut [f64] {
        self.pruned = false;
        self.round_exact = num_events;
        self.scores.resize(num_events, 0.0);
        &mut self.scores
    }

    /// Like [`ScoreWorkspace::scores_mut`] but also sizes and returns the
    /// width buffer (UCB's batched `√(xᵀY⁻¹x)` lands here).
    pub fn scores_and_widths_mut(&mut self, num_events: usize) -> (&mut [f64], &mut [f64]) {
        self.pruned = false;
        self.round_exact = num_events;
        self.scores.resize(num_events, 0.0);
        self.widths.resize(num_events, 0.0);
        (&mut self.scores, &mut self.widths)
    }

    /// Scores a UCB round: `r̂_v = x_v·θ̂ + α·√(x_vᵀY⁻¹x_v)` for the events
    /// of `view`, with `theta` = θ̂ and `y_inv` = Y⁻¹ of the policy's
    /// estimator.
    ///
    /// A wide round (`|V| ≥ 1024`, ranked prefix below `|V|`) prunes: it
    /// scores exactly only the events Oracle-Greedy's initial prefix can
    /// reach, and stays incomplete (see *Pruned UCB rounds* in the type
    /// docs). A round that cannot prune, or whose bounds turn out too
    /// loose, runs the full pass. After a too-loose round the next 1, 2,
    /// 4, … (up to 64) rounds skip the attempt. Every exact entry is
    /// bit-identical either way.
    pub fn score_ucb(
        &mut self,
        view: &SelectionView<'_>,
        theta: &[f64],
        y_inv: &Matrix,
        alpha: f64,
    ) {
        let (n, dim) = (view.num_events(), view.dim());
        if prune::worth_pruning(n, dim, view.user_capacity) && self.prune.should_try() {
            let exact = prune::score_pruned(
                &mut self.prune,
                view,
                y_inv,
                theta,
                alpha,
                &mut self.scores,
                &mut self.widths,
            );
            self.prune.record(exact.is_some());
            if let Some(exact) = exact {
                self.pruned = true;
                self.round_exact = exact;
                return;
            }
        }
        let (s, w) = self.scores_and_widths_mut(n);
        prune::ucb_block(y_inv, theta, alpha, view.contexts.as_slice(), dim, s, w);
    }

    /// Fills in every score a pruned round left out, from the same
    /// `contexts` the round was scored on, with the round's own θ̂ and
    /// Y⁻¹ (kept by the workspace, so this holds after `observe`). The
    /// result is bit-identical to a full round. A no-op when the last
    /// round is complete.
    ///
    /// # Panics
    /// Panics if `contexts` does not have the pruned round's `|V|`.
    pub fn complete_scores(&mut self, contexts: &ContextMatrix) {
        if !self.pruned {
            return;
        }
        let (n, dim) = (contexts.num_events(), contexts.dim());
        assert_eq!(
            n,
            self.scores.len(),
            "complete_scores: contexts do not match the pruned round"
        );
        self.prune
            .model
            .score_block(contexts.as_slice(), dim, &mut self.scores, &mut self.widths);
        self.pruned = false;
        self.score_stats.completed += (n - self.round_exact) as u64;
        self.score_stats.completions += 1;
    }

    /// Cumulative exact/total scoring counters since construction.
    pub fn score_stats(&self) -> ScoreStats {
        self.score_stats
    }

    /// Installs (or removes, with `None`) the [`Oracle`] that owns the
    /// arrangement step of [`ScoreWorkspace::arrange_into`]. `None`
    /// means the built-in [`crate::GreedyOracle`] semantics. An
    /// installed [`Arranger`] still takes precedence.
    pub fn set_oracle(&mut self, oracle: Option<Arc<dyn Oracle>>) {
        self.oracle = oracle;
    }

    /// The installed oracle, if any.
    pub fn oracle(&self) -> Option<&Arc<dyn Oracle>> {
        self.oracle.as_ref()
    }

    /// Installs (or removes, with `None`) an external [`Arranger`] that
    /// replaces the local oracle in [`ScoreWorkspace::arrange_into`].
    /// Takes precedence over an installed [`Oracle`].
    pub fn set_arranger(&mut self, arranger: Option<Arc<dyn Arranger>>) {
        self.arranger = arranger;
    }

    /// The installed external arranger, if any.
    pub fn arranger(&self) -> Option<&Arc<dyn Arranger>> {
        self.arranger.as_ref()
    }

    /// The scores written by the most recent `score_into` round. Until
    /// a pruned round is completed (while
    /// [`ScoreWorkspace::last_scores`] is `None`), the entries outside
    /// its exact set hold `-∞`.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The widths written by the most recent UCB round (empty for
    /// policies that never score widths; stale outside the exact set of
    /// a pruned round).
    pub fn widths(&self) -> &[f64] {
        &self.widths
    }

    /// `Some(scores)` once at least one round has been scored and the
    /// last round's vector is complete — backs the default
    /// [`crate::Policy::last_scores`]. `None` after a pruned round until
    /// [`ScoreWorkspace::complete_scores`].
    pub fn last_scores(&self) -> Option<&[f64]> {
        (self.scored_once && !self.pruned).then_some(self.scores.as_slice())
    }

    /// Marks the score buffer as holding a scored round, and counts it
    /// in [`ScoreWorkspace::score_stats`].
    pub fn mark_scored(&mut self) {
        self.scored_once = true;
        let st = &mut self.score_stats;
        st.rounds += 1;
        st.events += self.scores.len() as u64;
        st.exact += self.round_exact.min(self.scores.len()) as u64;
        st.pruned_rounds += u64::from(self.pruned);
    }

    /// The current model-version epoch. Stashed prefetches are valid
    /// only at the epoch they were computed under — see the *Pipelined
    /// score prefetch* section of the type docs.
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch
    }

    /// Records that learner state changed (an `observe` with a
    /// non-empty arrangement). Any stashed prefetch becomes stale and
    /// will be recomputed on [`ScoreWorkspace::take_prefetch`].
    pub fn bump_model_epoch(&mut self) {
        self.model_epoch += 1;
    }

    /// Stashes the score/width buffers of the round just computed as a
    /// prefetched score set for round `t`, tagged with the current
    /// model epoch. At most one stash is held; a new stash replaces the
    /// old one. Stash buffers are reused across rounds, so steady-state
    /// pipelining allocates nothing once warm.
    ///
    /// A pruned round is not stashed: its score set is incomplete, and
    /// the next `take_prefetch` counts a recompute instead.
    pub fn stash_prefetch(&mut self, t: u64) {
        let slot = &mut self.prefetch;
        slot.scores.clear();
        slot.scores.extend_from_slice(&self.scores);
        slot.widths.clear();
        slot.widths.extend_from_slice(&self.widths);
        slot.t = t;
        slot.epoch = self.model_epoch;
        slot.valid = true;
        slot.complete = !self.pruned;
    }

    /// Consumes the stash for round `t` if one is held **and** still
    /// valid (same round, same model epoch): the stashed scores/widths
    /// are swapped into the live buffers and `true` is returned — the
    /// caller skips `score_into`. A stale stash is dropped (counted as
    /// a recompute) and `false` is returned — the caller must score
    /// from scratch. With no stash held this is a cheap no-op returning
    /// `false` and touches no counter.
    pub fn take_prefetch(&mut self, t: u64) -> bool {
        let slot = &mut self.prefetch;
        if !slot.valid {
            return false;
        }
        slot.valid = false;
        if slot.t == t && slot.epoch == self.model_epoch && slot.complete {
            std::mem::swap(&mut self.scores, &mut slot.scores);
            std::mem::swap(&mut self.widths, &mut slot.widths);
            // Only complete score sets are stashed.
            self.pruned = false;
            self.round_exact = self.scores.len();
            self.prefetch_stats.hits += 1;
            true
        } else {
            self.prefetch_stats.recomputes += 1;
            false
        }
    }

    /// Whether a (possibly stale) prefetched score set is currently
    /// stashed. Diagnostic — [`ScoreWorkspace::take_prefetch`] is the
    /// consuming check.
    pub fn has_prefetch(&self) -> bool {
        self.prefetch.valid
    }

    /// Drops the stash without counting anything. Callers must do this
    /// when the *inputs* a stash was computed from are withdrawn (e.g.
    /// a buffered serve proposal dies with its connection and the round
    /// may later be re-proposed with different contexts) — the (round,
    /// epoch) tag alone cannot see a context change.
    pub fn clear_prefetch(&mut self) {
        self.prefetch.valid = false;
    }

    /// Cumulative prefetch hit/recompute counters since construction.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch_stats
    }

    /// Cumulative model-tier counters mirrored from a backing estimator
    /// store — all-zero unless the owning policy publishes them via
    /// [`ScoreWorkspace::set_model_tier_stats`].
    pub fn model_tier_stats(&self) -> ModelTierStats {
        self.tier_stats
    }

    /// Publishes the owning policy's current model-tier counters.
    /// Counters are cumulative; policies overwrite (not add) on every
    /// observe so the workspace always reflects the store's totals.
    pub fn set_model_tier_stats(&mut self, stats: ModelTierStats) {
        self.tier_stats = stats;
    }

    /// Runs the installed arrangement engine over the workspace's
    /// scores into a caller-owned arrangement, reusing the workspace's
    /// [`OracleWorkspace`] buffers — see the *Oracle dispatch* section
    /// of the type docs for the precedence order. With no oracle or
    /// arranger installed this is the allocation-free
    /// [`crate::GreedyOracle`] path.
    ///
    /// After a pruned round, Oracle-Greedy first arranges from the
    /// initial ranked prefix alone, which the exact set certifies, and
    /// ranks only the exactly scored events for it (every other entry
    /// is `-∞`, below all of them). When that prefix runs dry, or
    /// another engine is installed, the round is completed first
    /// ([`ScoreWorkspace::complete_scores`] on `view.contexts`) and
    /// arranged from the full vector.
    pub fn arrange_into(&mut self, view: &SelectionView<'_>, out: &mut Arrangement) {
        if self.pruned {
            let greedy =
                self.arranger.is_none() && self.oracle.as_ref().is_none_or(|o| o.is_greedy());
            let OracleWorkspace { order, mask, .. } = &mut self.oracle_ws;
            if greedy
                && crate::oracle::greedy_prefix_into(
                    &self.scores,
                    self.prune.exact_ids(),
                    view.conflicts,
                    view.remaining,
                    view.user_capacity,
                    order,
                    mask,
                    out,
                )
            {
                return;
            }
            self.complete_scores(view.contexts);
        }
        let ScoreWorkspace {
            scores,
            oracle_ws,
            oracle,
            arranger,
            ..
        } = self;
        if let Some(arranger) = arranger {
            arranger.arrange(scores, view, oracle_ws, out);
            return;
        }
        if let Some(oracle) = oracle {
            oracle.arrange_into(
                scores,
                view.conflicts,
                view.remaining,
                view.user_capacity,
                oracle_ws,
                out,
            );
            return;
        }
        crate::GreedyOracle.arrange_into(
            scores,
            view.conflicts,
            view.remaining,
            view.user_capacity,
            oracle_ws,
            out,
        );
    }

    /// Approximate bytes held by the workspace buffers (for
    /// [`crate::Policy::state_bytes`] accounting).
    pub fn state_bytes(&self) -> usize {
        (self.scores.len()
            + self.widths.len()
            + self.prefetch.scores.len()
            + self.prefetch.widths.len())
            * std::mem::size_of::<f64>()
            + self.oracle_ws.state_bytes()
            + self.prune.state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyOracle, TabuOracle};
    use fasea_core::{ConflictGraph, ContextMatrix};

    #[test]
    fn buffers_resize_and_persist() {
        let mut ws = ScoreWorkspace::new();
        assert!(ws.last_scores().is_none());
        ws.scores_mut(4).copy_from_slice(&[0.1, 0.9, 0.5, 0.7]);
        ws.mark_scored();
        assert_eq!(ws.last_scores().unwrap().len(), 4);
        let (s, w) = ws.scores_and_widths_mut(4);
        assert_eq!(s.len(), 4);
        assert_eq!(w.len(), 4);
        assert!(ws.state_bytes() >= 64);
    }

    #[test]
    fn arrange_into_matches_oracle_greedy() {
        let g = ConflictGraph::from_pairs(4, &[(0, 1)]);
        let contexts = ContextMatrix::zeros(4, 1);
        let remaining = [1u32; 4];
        let view = SelectionView {
            t: 0,
            user_capacity: 2,
            contexts: &contexts,
            conflicts: &g,
            remaining: &remaining,
        };
        let scores = [1.10, 0.49, 0.82, 2.00];
        let mut ws = ScoreWorkspace::new();
        ws.scores_mut(4).copy_from_slice(&scores);
        let mut out = Arrangement::empty();
        ws.arrange_into(&view, &mut out);
        let reference = crate::oracle::greedy(&scores, &g, &remaining, 2);
        assert_eq!(out, reference);
        // Reuse: a second round through the same buffers agrees too.
        ws.arrange_into(&view, &mut out);
        assert_eq!(out, reference);
        // An explicitly installed GreedyOracle is bit-identical to the
        // built-in default path.
        ws.set_oracle(Some(Arc::new(GreedyOracle)));
        ws.arrange_into(&view, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn installed_oracle_owns_the_arrangement_step() {
        use fasea_core::EventId;
        // The star trap: greedy keeps the centre, tabu escapes to the
        // leaves — observable only if the installed oracle really runs.
        let g = ConflictGraph::from_pairs(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let contexts = ContextMatrix::zeros(5, 1);
        let remaining = [1u32; 5];
        let view = SelectionView {
            t: 0,
            user_capacity: 4,
            contexts: &contexts,
            conflicts: &g,
            remaining: &remaining,
        };
        let mut ws = ScoreWorkspace::new();
        ws.scores_mut(5)
            .copy_from_slice(&[0.51, 0.5, 0.5, 0.5, 0.5]);
        let mut out = Arrangement::empty();
        ws.arrange_into(&view, &mut out);
        assert_eq!(out.events(), &[EventId(0)]);
        ws.set_oracle(Some(Arc::new(TabuOracle::default())));
        assert!(ws.oracle().is_some());
        ws.arrange_into(&view, &mut out);
        assert_eq!(out.len(), 4, "tabu oracle was not dispatched");
        // Uninstalling restores the greedy default.
        ws.set_oracle(None);
        ws.arrange_into(&view, &mut out);
        assert_eq!(out.events(), &[EventId(0)]);
    }

    #[test]
    fn installed_arranger_owns_the_arrangement_step() {
        use fasea_core::EventId;

        #[derive(Debug)]
        struct Fixed;
        impl Arranger for Fixed {
            fn arrange(
                &self,
                scores: &[f64],
                _view: &SelectionView<'_>,
                _ws: &mut OracleWorkspace,
                out: &mut Arrangement,
            ) {
                assert_eq!(scores.len(), 4);
                out.clear();
                out.push(EventId(3));
            }
        }

        let g = ConflictGraph::new(4);
        let contexts = ContextMatrix::zeros(4, 1);
        let remaining = [1u32; 4];
        let view = SelectionView {
            t: 0,
            user_capacity: 2,
            contexts: &contexts,
            conflicts: &g,
            remaining: &remaining,
        };
        let mut ws = ScoreWorkspace::new();
        ws.scores_mut(4).copy_from_slice(&[1.0, 2.0, 3.0, 0.5]);
        ws.set_arranger(Some(Arc::new(Fixed)));
        assert!(ws.arranger().is_some());
        let mut out = Arrangement::empty();
        ws.arrange_into(&view, &mut out);
        assert_eq!(out.events(), &[EventId(3)]);
        // Uninstalling restores the local oracle.
        ws.set_arranger(None);
        ws.arrange_into(&view, &mut out);
        assert_eq!(out.events(), &[EventId(2), EventId(1)]);
    }

    #[test]
    fn prefetch_round_trip_and_epoch_invalidation() {
        let mut ws = ScoreWorkspace::new();
        // No stash held: take is a no-op and counts nothing.
        assert!(!ws.take_prefetch(7));
        assert_eq!(ws.prefetch_stats(), PrefetchStats::default());

        ws.scores_mut(3).copy_from_slice(&[0.1, 0.2, 0.3]);
        ws.stash_prefetch(7);
        assert!(ws.has_prefetch());
        // Scribble over the live buffer: the stash must restore it.
        ws.scores_mut(3).copy_from_slice(&[9.0, 9.0, 9.0]);
        assert!(ws.take_prefetch(7));
        assert_eq!(ws.scores(), &[0.1, 0.2, 0.3]);
        assert!(!ws.has_prefetch());
        assert_eq!(ws.prefetch_stats().hits, 1);

        // Round mismatch drops the stash and counts a recompute.
        ws.stash_prefetch(8);
        assert!(!ws.take_prefetch(9));
        assert_eq!(ws.prefetch_stats().recomputes, 1);

        // Epoch mismatch (model touched after the stash) likewise.
        ws.stash_prefetch(10);
        let before = ws.model_epoch();
        ws.bump_model_epoch();
        assert_eq!(ws.model_epoch(), before + 1);
        assert!(!ws.take_prefetch(10));
        assert_eq!(
            ws.prefetch_stats(),
            PrefetchStats {
                hits: 1,
                recomputes: 2
            }
        );

        // A fresh stash at the new epoch hits again.
        ws.stash_prefetch(11);
        assert!(ws.take_prefetch(11));
        assert_eq!(ws.prefetch_stats().hits, 2);
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut ws = ScoreWorkspace::with_capacity(128);
        let s = ws.scores_mut(128);
        assert_eq!(s.len(), 128);
    }
}
