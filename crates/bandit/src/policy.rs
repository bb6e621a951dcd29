//! The policy interface shared by every FASEA strategy.

use crate::{ScoreWorkspace, SnapshotError};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, Feedback};

/// Everything a policy may look at when arranging events for the current
/// user: the round index, the user's capacity `c_u`, the revealed
/// contexts `x_{t,v}`, the conflict graph `CF`, and the *current*
/// remaining capacities (public platform state — the number of free seats
/// per event is visible on a real EBSN).
///
/// Deliberately absent: the true `θ` and the feedback coins. Only
/// [`crate::Opt`] is constructed with knowledge of `θ`.
#[derive(Debug, Clone, Copy)]
pub struct SelectionView<'a> {
    /// Time step `t` (0-based; policies that need the paper's 1-based `t`
    /// in formulas, such as TS's `ln(t/δ)`, use `t + 1`).
    pub t: u64,
    /// The user's capacity `c_u`.
    pub user_capacity: u32,
    /// Revealed contexts, one row per event.
    pub contexts: &'a ContextMatrix,
    /// Conflicting event pairs.
    pub conflicts: &'a ConflictGraph,
    /// Remaining capacity per event.
    pub remaining: &'a [u32],
}

impl SelectionView<'_> {
    /// Number of events `|V|`.
    pub fn num_events(&self) -> usize {
        self.contexts.num_events()
    }

    /// Context dimension `d`.
    pub fn dim(&self) -> usize {
        self.contexts.dim()
    }
}

/// A FASEA arrangement strategy.
///
/// The simulator drives the Definition 3 loop:
///
/// ```text
/// for t in 0..T {
///     policy.select_into(&view, &mut arrangement);     // propose A_t
///     let outcome = environment.step(t, &user, &arrangement)?;
///     policy.observe(t, &user.contexts, &arrangement, &outcome.feedback);
/// }
/// ```
///
/// The scoring surface is **batched**: a policy implements
/// [`Policy::score_into`], which writes one score per event into a
/// [`ScoreWorkspace`], and inherits `select` / `select_into` — they run
/// `score_into` followed by Oracle-Greedy over the workspace buffers.
/// Scoring takes `&mut self` because several policies consume their own
/// randomness (TS's posterior sample, eGreedy's exploration coin) or
/// refresh a cached `θ̂`.
///
/// Policies are `Send`: the serving layer (`fasea-serve`) moves a boxed
/// policy — inside its `ArrangementService` — onto a dedicated writer
/// thread. Every policy is plain owned data, so this costs nothing.
pub trait Policy: Send {
    /// Short stable name used in reports ("UCB", "TS", …).
    fn name(&self) -> &'static str;

    /// Scores all `|V|` events of the round in one batched pass,
    /// writing into `ws`.
    ///
    /// ## Contract
    ///
    /// * Write **exactly** `view.num_events()` scores, obtained from
    ///   `ws.scores_mut(view.num_events())` (or
    ///   `ws.scores_and_widths_mut` when a width buffer is needed),
    ///   overwriting every entry — the buffer may hold a previous
    ///   round's values.
    /// * Use the matrix-at-a-time linalg kernels
    ///   (`ShermanMorrisonInverse::widths_into`,
    ///   `Matrix::quadratic_forms_batch`, `solve_into`) rather than
    ///   per-event scalar calls: steady-state rounds of the built-in
    ///   learning policies perform **zero heap allocations**, and the
    ///   counting-allocator test holds the bar for UCB, Exploit and
    ///   eGreedy.
    /// * `ws` is normally the policy's own workspace (threaded through
    ///   [`Policy::select_into`]), but implementations must not rely on
    ///   that: any workspace handed in must end up with this round's
    ///   scores. Policy state (estimator, RNG) lives on `self`, never in
    ///   the workspace.
    /// * Determinism: a policy must draw the same RNG stream and produce
    ///   bit-identical scores whether driven through `select`,
    ///   `select_into`, or `score_into` directly — crash recovery
    ///   re-executes selection against logged contexts and compares.
    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace);

    /// Borrows the policy's own workspace (scores of the most recent
    /// round, oracle scratch).
    fn workspace(&self) -> &ScoreWorkspace;

    /// Mutably borrows the policy's own workspace — `select_into`
    /// threads it through `score_into` and the oracle.
    fn workspace_mut(&mut self) -> &mut ScoreWorkspace;

    /// Proposes an arrangement for the current user. The default scores
    /// through [`Policy::score_into`] and arranges with Oracle-Greedy;
    /// the returned arrangement is freshly allocated — hot loops use
    /// [`Policy::select_into`] with a reused buffer instead.
    ///
    /// Implementations must produce a feasible arrangement (≤ `c_u`
    /// events, non-conflicting, all with remaining capacity) — the
    /// environment re-validates and an error there is a policy bug.
    fn select(&mut self, view: &SelectionView<'_>) -> Arrangement {
        let mut out = Arrangement::empty();
        self.select_into(view, &mut out);
        out
    }

    /// [`Policy::select`] into a caller-owned arrangement buffer: scores
    /// with `score_into` into the policy's workspace, marks the round,
    /// then runs Oracle-Greedy reusing the workspace's scratch. With a
    /// warm workspace and a reused `out`, a steady-state round is
    /// allocation-free for the non-sampling policies.
    fn select_into(&mut self, view: &SelectionView<'_>, out: &mut Arrangement) {
        // Move the workspace out so `self` stays free for `score_into`
        // (a plain field re-borrow is impossible through the trait).
        // `ScoreWorkspace` is a bundle of `Vec`s, so `take` is move-only.
        let mut ws = std::mem::take(self.workspace_mut());
        // A valid prefetched score set for this round (same round, same
        // model epoch — see `ScoreWorkspace::take_prefetch`) substitutes
        // for `score_into` verbatim; the arrangement itself is always
        // computed fresh against the live `view.remaining`.
        if !ws.take_prefetch(view.t) {
            self.score_into(view, &mut ws);
        }
        ws.mark_scored();
        ws.arrange_into(view, out);
        *self.workspace_mut() = ws;
    }

    /// `true` when [`Policy::score_into`] consumes no policy randomness
    /// and does not mutate learner state: scores are a pure function of
    /// (estimator state, contexts, `t`). Speculative callers — the serve
    /// actor's optimistic admission — may only prefetch *ahead of an
    /// unresolved round* for such policies, because a discarded
    /// speculation then costs one recompute instead of a double RNG
    /// draw. Callers that can guarantee nothing intervenes between
    /// prefetch and use (the simulator's in-order pipeline) may prefetch
    /// any policy. Defaults to `false` — the safe answer for sampling
    /// policies.
    fn scoring_is_deterministic(&self) -> bool {
        false
    }

    /// Computes round `view.t`'s scores now and stashes them in the
    /// workspace tagged with the current model epoch
    /// ([`ScoreWorkspace::stash_prefetch`]). A later
    /// [`Policy::select_into`] for the same round reuses the stash if no
    /// intervening feedback bumped the epoch, and recomputes otherwise.
    ///
    /// Callers that cannot rule out an intervening model update before
    /// the round is driven must check
    /// [`Policy::scoring_is_deterministic`] first: prefetching a
    /// sampling policy and then discarding the stash would consume its
    /// RNG twice and fork the deterministic replay.
    fn prefetch_scores(&mut self, view: &SelectionView<'_>) {
        let mut ws = std::mem::take(self.workspace_mut());
        self.score_into(view, &mut ws);
        ws.stash_prefetch(view.t);
        *self.workspace_mut() = ws;
    }

    /// Consumes the user's feedback on the arranged events.
    ///
    /// `contexts` has the round's full `|V| × d` shape, and the rows of
    /// the arranged events equal the block shown to `select` at time
    /// `t`. Nothing else is promised: the services pass a reused block
    /// whose other rows are zero, so an implementation must read only
    /// `contexts.context(v)` for `v` in `arrangement`.
    fn observe(
        &mut self,
        t: u64,
        contexts: &ContextMatrix,
        arrangement: &Arrangement,
        feedback: &Feedback,
    );

    /// Per-event scores used by the most recent `select` call, indexed by
    /// event id; `None` before the first selection, and after a pruned
    /// UCB round until [`ScoreWorkspace::complete_scores`] fills it in
    /// (see [`ScoreWorkspace::score_ucb`]). The harness ranks these
    /// against the ground-truth expected rewards to reproduce the
    /// paper's Kendall-τ plot (Figure 2). The default reads the policy's
    /// workspace.
    fn last_scores(&self) -> Option<&[f64]> {
        self.workspace().last_scores()
    }

    /// Approximate bytes of learner state (excluding the shared input
    /// data), for the paper's memory columns in Tables 5 and 6.
    fn state_bytes(&self) -> usize;

    /// Serialises the policy's durable learning state (estimator
    /// matrices, private RNG position, exploration counters) for a
    /// service snapshot. Policies whose behaviour is fully determined
    /// by their constructor parameters return an empty blob (the
    /// default).
    ///
    /// Per-round ephemera (`last_scores`, caches) are deliberately
    /// excluded: crash recovery re-executes `select` on the logged
    /// contexts, which rebuilds them.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state produced by [`Policy::save_state`] into a
    /// freshly-constructed policy with identical parameters.
    ///
    /// # Errors
    /// [`SnapshotError`] if the blob is damaged, shaped for different
    /// parameters, or the policy is stateless but the blob is not.
    fn restore_state(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        if blob.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(
                "policy carries no restorable state but blob is non-empty",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_core::EventId;

    /// A trivial policy used to exercise the trait object surface: event
    /// 0 always outranks the rest.
    struct AlwaysFirst {
        ws: ScoreWorkspace,
    }

    impl Policy for AlwaysFirst {
        fn name(&self) -> &'static str {
            "AlwaysFirst"
        }
        fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
            let scores = ws.scores_mut(view.num_events());
            scores.fill(0.0);
            if let Some(first) = scores.first_mut() {
                *first = 1.0;
            }
        }
        fn workspace(&self) -> &ScoreWorkspace {
            &self.ws
        }
        fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
            &mut self.ws
        }
        fn observe(&mut self, _: u64, _: &ContextMatrix, _: &Arrangement, _: &Feedback) {}
        fn state_bytes(&self) -> usize {
            self.ws.state_bytes()
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut p: Box<dyn Policy> = Box::new(AlwaysFirst {
            ws: ScoreWorkspace::new(),
        });
        let contexts = ContextMatrix::zeros(3, 2);
        let conflicts = ConflictGraph::new(3);
        let remaining = [1u32, 1, 1];
        let view = SelectionView {
            t: 0,
            user_capacity: 1,
            contexts: &contexts,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        assert_eq!(view.num_events(), 3);
        assert_eq!(view.dim(), 2);
        assert!(p.last_scores().is_none());
        let a = p.select(&view);
        assert_eq!(a.events(), &[EventId(0)]);
        assert_eq!(p.last_scores().unwrap().len(), 3);
        assert_eq!(p.name(), "AlwaysFirst");
        assert!(p.state_bytes() >= 24);
    }

    #[test]
    fn prefetched_select_matches_fresh_select() {
        let mut fresh = AlwaysFirst {
            ws: ScoreWorkspace::new(),
        };
        let mut pipelined = AlwaysFirst {
            ws: ScoreWorkspace::new(),
        };
        let contexts = ContextMatrix::zeros(4, 2);
        let conflicts = ConflictGraph::new(4);
        let remaining = [2u32; 4];
        let view = SelectionView {
            t: 5,
            user_capacity: 2,
            contexts: &contexts,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        assert!(!pipelined.scoring_is_deterministic(), "trait default");
        pipelined.prefetch_scores(&view);
        assert!(pipelined.workspace().has_prefetch());
        let a = pipelined.select(&view);
        assert_eq!(a, fresh.select(&view));
        assert_eq!(pipelined.workspace().prefetch_stats().hits, 1);
        // A stash for a different round is discarded, not reused.
        pipelined.prefetch_scores(&view);
        let later = SelectionView { t: 6, ..view };
        assert_eq!(pipelined.select(&later), fresh.select(&later));
        assert_eq!(pipelined.workspace().prefetch_stats().recomputes, 1);
    }

    #[test]
    fn select_into_reuses_buffer_and_matches_select() {
        let mut p = AlwaysFirst {
            ws: ScoreWorkspace::new(),
        };
        let contexts = ContextMatrix::zeros(4, 2);
        let conflicts = ConflictGraph::new(4);
        let remaining = [2u32; 4];
        let view = SelectionView {
            t: 0,
            user_capacity: 2,
            contexts: &contexts,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        let owned = p.select(&view);
        let mut reused = Arrangement::new(vec![EventId(3), EventId(2), EventId(1)]);
        p.select_into(&view, &mut reused);
        assert_eq!(owned, reused, "select and select_into must agree");
        // And again, to prove the cleared buffer doesn't leak old events.
        p.select_into(&view, &mut reused);
        assert_eq!(owned, reused);
    }
}
