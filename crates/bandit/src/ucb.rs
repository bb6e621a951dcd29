//! UCB — the paper's Algorithm 3, adapted from the contextual
//! combinatorial UCB of Qin, Chen & Zhu (SDM'14) / LinUCB.

use crate::{Policy, RidgeEstimator, ScoreWorkspace, SelectionView};
use fasea_core::{Arrangement, ContextMatrix, Feedback};

/// Contextual combinatorial UCB (Algorithm 3).
///
/// Per round: estimate `θ̂_t = Y⁻¹b`, score each event with
/// `r̂_{t,v} = x_{t,v}ᵀθ̂_t + α √(x_{t,v}ᵀ Y⁻¹ x_{t,v})`, and hand the
/// scores to Oracle-Greedy. The additive width is loose for
/// under-explored directions, so those events periodically win the
/// ranking — this is what rescues UCB from the dead-lock Exploit falls
/// into on the real dataset (all-zero feedback leaves `θ̂` frozen, but
/// the width still shrinks along arranged directions, rotating the
/// arrangement).
#[derive(Debug, Clone)]
pub struct LinUcb {
    estimator: RidgeEstimator,
    alpha: f64,
    ws: ScoreWorkspace,
}

impl LinUcb {
    /// Creates UCB with ridge strength `lambda` and exploration
    /// coefficient `alpha` (paper default α = 2).
    ///
    /// # Panics
    /// Panics if `alpha < 0` (use [`crate::Exploit`] for α = 0 — it is
    /// the same policy minus the width computation).
    pub fn new(dim: usize, lambda: f64, alpha: f64) -> Self {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "LinUcb: alpha must be >= 0"
        );
        LinUcb {
            estimator: RidgeEstimator::new(dim, lambda),
            alpha,
            ws: ScoreWorkspace::new(),
        }
    }

    /// Exploration coefficient α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Read access to the shared estimator (diagnostics/tests).
    pub fn estimator(&self) -> &RidgeEstimator {
        &self.estimator
    }
}

impl Policy for LinUcb {
    fn name(&self) -> &'static str {
        "UCB"
    }

    // Scores are θ̂ᵀx + α·√(xᵀY⁻¹x): pure linear algebra on the
    // estimator's sufficient statistics, no RNG — safe to prefetch
    // speculatively.
    fn scoring_is_deterministic(&self) -> bool {
        true
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        // θ̂ and Y⁻¹ borrowed together: no per-round clone. The workspace
        // runs the fused dot/width kernel matrix-at-a-time over the
        // context block, or, on a wide round, only over the events
        // Oracle-Greedy can reach (DESIGN.md §10 "Pruned scoring").
        let (theta, sm) = self.estimator.theta_and_inverse();
        ws.score_ucb(view, theta.as_slice(), sm.y_inv(), self.alpha);
    }

    fn workspace(&self) -> &ScoreWorkspace {
        &self.ws
    }

    fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
        &mut self.ws
    }

    fn observe(
        &mut self,
        _t: u64,
        contexts: &ContextMatrix,
        arrangement: &Arrangement,
        feedback: &Feedback,
    ) {
        for (v, accepted) in feedback.zip(arrangement) {
            let r = if accepted { 1.0 } else { 0.0 };
            self.estimator
                .observe(contexts.context(v), r)
                .expect("LinUcb: estimator update failed");
        }
    }

    fn state_bytes(&self) -> usize {
        self.estimator.state_bytes() + self.ws.state_bytes()
    }

    fn save_state(&self) -> Vec<u8> {
        crate::snapshot::save_estimator(&self.estimator)
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<(), crate::SnapshotError> {
        let est = crate::snapshot::restore_estimator(blob)?;
        crate::snapshot::check_estimator_shape(&est, &self.estimator)?;
        self.estimator = est;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_core::{ConflictGraph, EventId};

    fn view<'a>(
        contexts: &'a ContextMatrix,
        conflicts: &'a ConflictGraph,
        remaining: &'a [u32],
        cu: u32,
        t: u64,
    ) -> SelectionView<'a> {
        SelectionView {
            t,
            user_capacity: cu,
            contexts,
            conflicts,
            remaining,
        }
    }

    #[test]
    fn cold_start_prefers_unexplored_large_norm_contexts() {
        // With θ̂ = 0, score = α‖x‖/√λ: the larger-norm context wins.
        let mut ucb = LinUcb::new(2, 1.0, 2.0);
        let ctx = ContextMatrix::from_rows(2, 2, vec![0.9, 0.0, 0.1, 0.0]);
        let g = ConflictGraph::new(2);
        let a = ucb.select(&view(&ctx, &g, &[1, 1], 1, 0));
        assert_eq!(a.events(), &[EventId(0)]);
        let s = ucb.last_scores().unwrap();
        assert!((s[0] - 2.0 * 0.9).abs() < 1e-12);
        assert!((s[1] - 2.0 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn width_rotates_arrangements_under_all_zero_feedback() {
        // The real-dataset dead-lock scenario: identical contexts every
        // round, feedback always 0. Exploit would freeze; UCB must
        // eventually try a different event.
        let mut ucb = LinUcb::new(2, 1.0, 2.0);
        let ctx = ContextMatrix::from_rows(3, 2, vec![1.0, 0.0, 0.8, 0.1, 0.0, 0.9]);
        let g = ConflictGraph::new(3);
        let remaining = [100u32; 3];
        let mut seen = std::collections::HashSet::new();
        for t in 0..30 {
            let a = ucb.select(&view(&ctx, &g, &remaining, 1, t));
            seen.insert(a.events()[0]);
            let f = Feedback::new(vec![false]);
            ucb.observe(t, &ctx, &a, &f);
        }
        assert!(
            seen.len() >= 2,
            "UCB failed to rotate arrangements: {seen:?}"
        );
    }

    #[test]
    fn learns_the_better_event() {
        // Event 0 has true reward 0.9, event 1 has 0.1. After enough
        // feedback UCB must favour event 0.
        let mut ucb = LinUcb::new(2, 1.0, 1.0);
        let ctx = ContextMatrix::from_rows(2, 2, vec![0.9, 0.1, 0.1, 0.9]);
        let g = ConflictGraph::new(2);
        let remaining = [1000u32; 2];
        for t in 0..300 {
            let a = ucb.select(&view(&ctx, &g, &remaining, 1, t));
            // Simulated feedback: accept iff event 0 (deterministic).
            let fb: Vec<bool> = a.iter().map(|v| v == EventId(0)).collect();
            ucb.observe(t, &ctx, &a, &Feedback::new(fb));
        }
        let a = ucb.select(&view(&ctx, &g, &remaining, 1, 300));
        assert_eq!(a.events(), &[EventId(0)]);
    }

    #[test]
    fn respects_constraints_via_oracle() {
        let mut ucb = LinUcb::new(1, 1.0, 2.0);
        let ctx = ContextMatrix::from_rows(3, 1, vec![0.9, 0.8, 0.7]);
        let g = ConflictGraph::from_pairs(3, &[(0, 1)]);
        let a = ucb.select(&view(&ctx, &g, &[1, 1, 0], 2, 0));
        // Event 2 full; 0 and 1 conflict => only one of {0,1}.
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn alpha_zero_equals_point_estimates() {
        let mut ucb = LinUcb::new(2, 1.0, 0.0);
        let ctx = ContextMatrix::from_rows(2, 2, vec![0.5, 0.0, 0.0, 0.5]);
        let g = ConflictGraph::new(2);
        let _ = ucb.select(&view(&ctx, &g, &[1, 1], 1, 0));
        let s = ucb.last_scores().unwrap();
        // θ̂ = 0 at cold start, so both scores are exactly 0.
        assert_eq!(s, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 0")]
    fn negative_alpha_rejected() {
        let _ = LinUcb::new(2, 1.0, -1.0);
    }

    #[test]
    fn theta_not_recomputed_per_select() {
        // The pre-batched hot path recomputed (and cloned) θ̂ on every
        // select; the workspace path must only refresh it after observe.
        let mut ucb = LinUcb::new(2, 1.0, 2.0);
        let ctx = ContextMatrix::from_rows(2, 2, vec![0.9, 0.0, 0.1, 0.2]);
        let g = ConflictGraph::new(2);
        let remaining = [10u32; 2];
        for t in 0..5 {
            let _ = ucb.select(&view(&ctx, &g, &remaining, 1, t));
        }
        assert_eq!(
            ucb.estimator().theta_recomputes(),
            0,
            "select alone must never recompute θ̂"
        );
        let a = ucb.select(&view(&ctx, &g, &remaining, 1, 5));
        ucb.observe(5, &ctx, &a, &Feedback::new(vec![true]));
        for t in 6..10 {
            let _ = ucb.select(&view(&ctx, &g, &remaining, 1, t));
        }
        assert_eq!(
            ucb.estimator().theta_recomputes(),
            1,
            "exactly one recompute after one observe batch"
        );
    }

    #[test]
    fn state_bytes_nonzero() {
        let ucb = LinUcb::new(20, 1.0, 2.0);
        assert!(ucb.state_bytes() >= 2 * 20 * 20 * 8);
        assert!(ucb.last_scores().is_none());
        assert_eq!(ucb.name(), "UCB");
        assert_eq!(ucb.alpha(), 2.0);
    }
}
