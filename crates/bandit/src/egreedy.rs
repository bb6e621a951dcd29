//! eGreedy — the paper's Algorithm 4 (ε-greedy heuristic).

use crate::{Policy, RidgeEstimator, ScoreWorkspace, SelectionView};
use fasea_core::{Arrangement, ContextMatrix, Feedback};
use rand::Rng as _;

/// ε-greedy (Algorithm 4): with probability ε arrange up to `c_u`
/// non-conflicting, non-full events uniformly at random (exploration);
/// otherwise arrange greedily on the point estimates `x_{t,v}ᵀθ̂_t`
/// (exploitation). Feedback updates the shared ridge estimator in both
/// branches (lines 14–15 run unconditionally).
///
/// Random arrangement is implemented by drawing i.i.d. uniform priorities
/// and handing them to Oracle-Greedy — a uniformly random visiting order,
/// exactly "at most `c_u` non-conflicting events selected randomly"
/// (line 7).
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    estimator: RidgeEstimator,
    epsilon: f64,
    rng: fasea_stats::Rng,
    ws: ScoreWorkspace,
    exploration_rounds: u64,
}

impl EpsilonGreedy {
    /// Creates eGreedy with ridge strength `lambda` and exploration
    /// probability `epsilon` (paper default ε = 0.1).
    ///
    /// # Panics
    /// Panics if `epsilon ∉ [0, 1]`.
    pub fn new(dim: usize, lambda: f64, epsilon: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "EpsilonGreedy: epsilon must be in [0, 1]"
        );
        EpsilonGreedy {
            estimator: RidgeEstimator::new(dim, lambda),
            epsilon,
            rng: fasea_stats::rng_from_seed(seed),
            ws: ScoreWorkspace::new(),
            exploration_rounds: 0,
        }
    }

    /// Exploration probability ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// How many rounds took the exploration branch so far.
    pub fn exploration_rounds(&self) -> u64 {
        self.exploration_rounds
    }

    /// Read access to the estimator.
    pub fn estimator(&self) -> &RidgeEstimator {
        &self.estimator
    }
}

impl Policy for EpsilonGreedy {
    fn name(&self) -> &'static str {
        "eGreedy"
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        // RNG draw order is durable state: one coin, then (explore only)
        // one priority per event — identical to the pre-batched path.
        let explore = self.rng.gen::<f64>() <= self.epsilon;
        if explore {
            self.exploration_rounds += 1;
            for s in ws.scores_mut(view.num_events()) {
                *s = self.rng.gen::<f64>();
            }
        } else {
            let theta = self.estimator.theta_hat().as_slice();
            crate::exploit::dot_scores(view.contexts, theta, ws.scores_mut(view.num_events()));
        }
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
                .expect("EpsilonGreedy: estimator update failed");
        }
    }

    fn state_bytes(&self) -> usize {
        self.estimator.state_bytes()
            + self.ws.state_bytes()
            + std::mem::size_of::<fasea_stats::Rng>()
    }

    fn save_state(&self) -> Vec<u8> {
        // framed estimator | rng state (32) | exploration_rounds (8).
        let mut out = Vec::new();
        crate::snapshot::write_estimator_framed(&mut out, &self.estimator);
        out.extend_from_slice(&fasea_stats::rng_state(&self.rng));
        out.extend_from_slice(&self.exploration_rounds.to_le_bytes());
        out
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<(), crate::SnapshotError> {
        let mut at = 0usize;
        let est = crate::snapshot::read_estimator_framed(blob, &mut at)?;
        crate::snapshot::check_estimator_shape(&est, &self.estimator)?;
        let rng = crate::snapshot::read_array::<32>(blob, &mut at)?;
        let rounds = crate::snapshot::read_array::<8>(blob, &mut at)?;
        if at != blob.len() {
            return Err(crate::SnapshotError::Corrupt("trailing policy-state bytes"));
        }
        self.estimator = est;
        self.rng = fasea_stats::rng_from_state(rng);
        self.exploration_rounds = u64::from_le_bytes(rounds);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_core::ConflictGraph;

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
    fn exploration_frequency_matches_epsilon() {
        let mut p = EpsilonGreedy::new(2, 1.0, 0.25, 11);
        let ctx = ContextMatrix::from_rows(2, 2, vec![0.5, 0.0, 0.0, 0.5]);
        let g = ConflictGraph::new(2);
        let rem = [u32::MAX; 2];
        let n = 20_000;
        for t in 0..n {
            let _ = p.select(&make_view(&ctx, &g, &rem, 1, t));
        }
        let frac = p.exploration_rounds() as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn epsilon_zero_is_pure_exploitation() {
        let mut p = EpsilonGreedy::new(2, 1.0, 0.0, 1);
        let ctx = ContextMatrix::from_rows(2, 2, vec![0.5, 0.0, 0.0, 0.5]);
        let g = ConflictGraph::new(2);
        let rem = [10u32; 2];
        for t in 0..100 {
            let _ = p.select(&make_view(&ctx, &g, &rem, 1, t));
        }
        assert_eq!(p.exploration_rounds(), 0);
    }

    #[test]
    fn epsilon_one_is_pure_exploration() {
        let mut p = EpsilonGreedy::new(2, 1.0, 1.0, 1);
        let ctx = ContextMatrix::from_rows(2, 2, vec![0.5, 0.0, 0.0, 0.5]);
        let g = ConflictGraph::new(2);
        let rem = [10u32; 2];
        for t in 0..50 {
            let _ = p.select(&make_view(&ctx, &g, &rem, 1, t));
        }
        assert_eq!(p.exploration_rounds(), 50);
    }

    #[test]
    fn escapes_the_exploit_deadlock() {
        // Fixed contexts, all feedback 0: the random branch must
        // eventually try a different event (the paper's argument for why
        // eGreedy beats Exploit on u₈/u₁₀/u₁₆).
        let mut p = EpsilonGreedy::new(2, 1.0, 0.2, 5);
        let ctx = ContextMatrix::from_rows(3, 2, vec![1.0, 0.0, 0.8, 0.1, 0.0, 0.9]);
        let g = ConflictGraph::new(3);
        let rem = [1000u32; 3];
        let mut seen = std::collections::HashSet::new();
        for t in 0..100 {
            let a = p.select(&make_view(&ctx, &g, &rem, 1, t));
            seen.insert(a.events()[0]);
            p.observe(t, &ctx, &a, &Feedback::new(vec![false]));
        }
        assert!(seen.len() >= 2, "eGreedy never explored: {seen:?}");
    }

    #[test]
    fn respects_conflicts_in_both_branches() {
        let mut p = EpsilonGreedy::new(1, 1.0, 0.5, 3);
        let ctx = ContextMatrix::from_rows(4, 1, vec![0.9, 0.8, 0.7, 0.6]);
        let g = ConflictGraph::complete(4);
        let rem = [1u32; 4];
        for t in 0..50 {
            let a = p.select(&make_view(&ctx, &g, &rem, 3, t));
            assert!(a.len() <= 1, "conflicting arrangement at t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn rejects_bad_epsilon() {
        let _ = EpsilonGreedy::new(2, 1.0, 1.5, 0);
    }

    #[test]
    fn accessors() {
        let p = EpsilonGreedy::new(3, 1.0, 0.1, 0);
        assert_eq!(p.name(), "eGreedy");
        assert_eq!(p.epsilon(), 0.1);
        assert!(p.last_scores().is_none());
        assert_eq!(p.estimator().dim(), 3);
    }
}
