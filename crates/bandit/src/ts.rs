//! Thompson Sampling — the paper's Algorithm 1, extending the
//! linear-payoff TS of Agrawal & Goyal to the contextual combinatorial
//! setting.

use crate::{Policy, RidgeEstimator, ScoreWorkspace, SelectionView};
use fasea_core::{Arrangement, ContextMatrix, Feedback};
use fasea_stats::sample_gaussian_with_precision_factor;

/// Thompson Sampling (Algorithm 1).
///
/// Per round:
///
/// 1. `q ← R √(9 d ln(t/δ))` (line 5; `R = 1` under FASEA because
///    rewards lie in `[xᵀθ − 1, xᵀθ + 1]`),
/// 2. `θ̂_t ← Y⁻¹ b` (line 6),
/// 3. sample `θ̃_t ∼ N(θ̂_t, q² Y⁻¹)` (line 7) — implemented as
///    `θ̂ + q·L⁻ᵀ z` from a Cholesky factor `Y = L Lᵀ`,
/// 4. score every event with `x_{t,v}ᵀ θ̃_t` and run Oracle-Greedy.
///
/// The paper's headline negative result lives here: because all events
/// share one `θ`, the per-round sampling noise perturbs *every* event
/// score coherently and the arrangement chases the noise — Figure 2's
/// fluctuating Kendall correlation. The effect grows with `d` (Figure 4)
/// since `q ∝ √d` and a `d`-dimensional sample carries more noise.
#[derive(Debug, Clone)]
pub struct ThompsonSampling {
    estimator: RidgeEstimator,
    delta: f64,
    r_sub_gaussian: f64,
    rng: fasea_stats::Rng,
    ws: ScoreWorkspace,
}

impl ThompsonSampling {
    /// Creates TS with ridge strength `lambda`, confidence parameter
    /// `delta` (paper default δ = 0.1), sub-Gaussian scale `R = 1`, and
    /// a policy-private RNG seed.
    ///
    /// # Panics
    /// Panics if `delta ∉ (0, 1)`.
    pub fn new(dim: usize, lambda: f64, delta: f64, seed: u64) -> Self {
        Self::with_r(dim, lambda, delta, 1.0, seed)
    }

    /// Full constructor exposing `R` (the paper fixes `R = 1` under
    /// FASEA; other values support the basic-bandit ablations).
    ///
    /// # Panics
    /// Panics if `delta ∉ (0, 1)` or `R < 0`.
    pub fn with_r(dim: usize, lambda: f64, delta: f64, r: f64, seed: u64) -> Self {
        assert!(
            delta > 0.0 && delta < 1.0,
            "ThompsonSampling: delta must be in (0, 1)"
        );
        assert!(r >= 0.0, "ThompsonSampling: R must be non-negative");
        ThompsonSampling {
            estimator: RidgeEstimator::new(dim, lambda),
            delta,
            r_sub_gaussian: r,
            rng: fasea_stats::rng_from_seed(seed),
            ws: ScoreWorkspace::new(),
        }
    }

    /// Confidence parameter δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The sampling scale `q = R √(9 d ln(t/δ))` at (1-based) time `t`.
    pub fn sampling_scale(&self, t_one_based: u64) -> f64 {
        let d = self.estimator.dim() as f64;
        let t = t_one_based.max(1) as f64;
        self.r_sub_gaussian * (9.0 * d * (t / self.delta).ln()).sqrt()
    }

    /// Read access to the estimator (diagnostics/tests).
    pub fn estimator(&self) -> &RidgeEstimator {
        &self.estimator
    }
}

impl Policy for ThompsonSampling {
    fn name(&self) -> &'static str {
        "TS"
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        // TS's posterior sample is inherently allocating (Cholesky of Y
        // plus the sampled θ̃); the zero-alloc bar applies to the
        // deterministic-score policies only. RNG draw order (d Gaussians
        // per round) is identical to the pre-batched path.
        let q = self.sampling_scale(view.t + 1);
        let theta_hat = self.estimator.theta_hat().clone();
        let chol = self
            .estimator
            .gram_cholesky()
            .expect("ThompsonSampling: Y must stay SPD");
        let theta_tilde =
            sample_gaussian_with_precision_factor(&theta_hat, q, &chol, &mut self.rng);
        crate::exploit::dot_scores(
            view.contexts,
            theta_tilde.as_slice(),
            ws.scores_mut(view.num_events()),
        );
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
            self.estimator
                .observe(contexts.context(v), if accepted { 1.0 } else { 0.0 })
                .expect("ThompsonSampling: estimator update failed");
        }
    }

    fn state_bytes(&self) -> usize {
        // Estimator + workspace + the RNG state (StdRng is a ChaCha12 core).
        self.estimator.state_bytes()
            + self.ws.state_bytes()
            + std::mem::size_of::<fasea_stats::Rng>()
    }

    fn save_state(&self) -> Vec<u8> {
        // framed estimator | rng state (32 bytes). The RNG position is
        // part of durable state: recovery must re-draw exactly the
        // posterior samples the uninterrupted run would have drawn.
        let mut out = Vec::new();
        crate::snapshot::write_estimator_framed(&mut out, &self.estimator);
        out.extend_from_slice(&fasea_stats::rng_state(&self.rng));
        out
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<(), crate::SnapshotError> {
        let mut at = 0usize;
        let est = crate::snapshot::read_estimator_framed(blob, &mut at)?;
        crate::snapshot::check_estimator_shape(&est, &self.estimator)?;
        let rng = crate::snapshot::read_array::<32>(blob, &mut at)?;
        if at != blob.len() {
            return Err(crate::SnapshotError::Corrupt("trailing policy-state bytes"));
        }
        self.estimator = est;
        self.rng = fasea_stats::rng_from_state(rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_core::{ConflictGraph, EventId};

    fn make_view<'a>(
        ctx: &'a ContextMatrix,
        g: &'a ConflictGraph,
        rem: &'a [u32],
        cu: u32,
        t: u64,
    ) -> SelectionView<'a> {
        SelectionView {
            t,
            user_capacity: cu,
            contexts: ctx,
            conflicts: g,
            remaining: rem,
        }
    }

    #[test]
    fn sampling_scale_formula() {
        let ts = ThompsonSampling::new(20, 1.0, 0.1, 0);
        // q = 1 * sqrt(9 * 20 * ln(100/0.1))
        let expect = (9.0 * 20.0 * (100.0f64 / 0.1).ln()).sqrt();
        assert!((ts.sampling_scale(100) - expect).abs() < 1e-12);
        // R scales linearly.
        let ts2 = ThompsonSampling::with_r(20, 1.0, 0.1, 2.0, 0);
        assert!((ts2.sampling_scale(100) - 2.0 * expect).abs() < 1e-12);
    }

    #[test]
    fn scale_grows_with_dimension() {
        let t5 = ThompsonSampling::new(5, 1.0, 0.1, 0);
        let t20 = ThompsonSampling::new(20, 1.0, 0.1, 0);
        assert!(t20.sampling_scale(10) > t5.sampling_scale(10));
        assert!((t20.sampling_scale(10) / t5.sampling_scale(10) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_delta_means_more_exploration() {
        let a = ThompsonSampling::new(5, 1.0, 0.05, 0);
        let b = ThompsonSampling::new(5, 1.0, 0.2, 0);
        assert!(a.sampling_scale(10) > b.sampling_scale(10));
    }

    #[test]
    fn selections_are_noisy_across_rounds() {
        // Unlike Exploit, TS with fixed contexts and no feedback must
        // rotate arrangements — the sample changes every round.
        let mut ts = ThompsonSampling::new(3, 1.0, 0.1, 7);
        let ctx = ContextMatrix::from_rows(
            4,
            3,
            vec![0.5, 0.1, 0.0, 0.1, 0.5, 0.0, 0.0, 0.1, 0.5, 0.3, 0.3, 0.3],
        );
        let g = ConflictGraph::new(4);
        let rem = [100u32; 4];
        let mut seen = std::collections::HashSet::new();
        for t in 0..40 {
            let a = ts.select(&make_view(&ctx, &g, &rem, 1, t));
            seen.insert(a.events()[0]);
        }
        assert!(seen.len() >= 2, "TS never rotated: {seen:?}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let ctx = ContextMatrix::from_rows(3, 2, vec![0.4, 0.1, 0.1, 0.4, 0.3, 0.3]);
        let g = ConflictGraph::new(3);
        let rem = [10u32; 3];
        let mut a = ThompsonSampling::new(2, 1.0, 0.1, 99);
        let mut b = ThompsonSampling::new(2, 1.0, 0.1, 99);
        for t in 0..20 {
            let sa = a.select(&make_view(&ctx, &g, &rem, 2, t));
            let sb = b.select(&make_view(&ctx, &g, &rem, 2, t));
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn learns_under_strong_signal() {
        // Even TS should converge when one event is always accepted and
        // the others never, in low dimension (d=1 is where the paper
        // finds TS competitive).
        let mut ts = ThompsonSampling::new(1, 1.0, 0.1, 3);
        let ctx = ContextMatrix::from_rows(2, 1, vec![1.0, -1.0]);
        let g = ConflictGraph::new(2);
        let rem = [10_000u32; 2];
        for t in 0..500 {
            let a = ts.select(&make_view(&ctx, &g, &rem, 1, t));
            let fb: Vec<bool> = a.iter().map(|v| v == EventId(0)).collect();
            ts.observe(t, &ctx, &a, &Feedback::new(fb));
        }
        // After 500 rounds the point estimate must be decisively positive.
        let mut est = ts.estimator.clone();
        assert!(est.point_estimate(&[1.0]) > 0.3);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn rejects_bad_delta() {
        let _ = ThompsonSampling::new(2, 1.0, 1.5, 0);
    }

    #[test]
    fn feasibility_respected() {
        let mut ts = ThompsonSampling::new(2, 1.0, 0.1, 0);
        let ctx = ContextMatrix::from_rows(3, 2, vec![0.9, 0.0, 0.8, 0.1, 0.7, 0.2]);
        let g = ConflictGraph::complete(3);
        let rem = [1u32, 0, 1];
        let a = ts.select(&make_view(&ctx, &g, &rem, 3, 5));
        assert!(a.len() <= 1); // complete conflicts
        if let Some(&v) = a.events().first() {
            assert!(rem[v.index()] > 0);
        }
    }

    #[test]
    fn name_and_params() {
        let ts = ThompsonSampling::new(2, 1.0, 0.2, 0);
        assert_eq!(ts.name(), "TS");
        assert_eq!(ts.delta(), 0.2);
        assert!(ts.last_scores().is_none());
        assert!(ts.state_bytes() > 0);
    }
}
