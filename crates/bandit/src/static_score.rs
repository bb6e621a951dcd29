//! Static-score policies: the OnlineGreedy-GEACC comparator.

use crate::{Policy, ScoreWorkspace, SelectionView};
use fasea_core::{Arrangement, ContextMatrix, Feedback};

/// A feedback-oblivious policy that greedily arranges on a **fixed**
/// per-event score vector under the usual capacity/conflict constraints.
///
/// This is how the paper's real-dataset comparator *OnlineGreedy-GEACC*
/// (She et al., TKDE'16, reference \[39\]) behaves under FASEA's lens:
/// its interestingness values are computed once from event tags and the
/// user's preferred tags, and "since OnlineGreedy-GEACC does not change
/// its strategy based on the observed feedbacks, it keeps making the
/// same arrangement even running in multiple rounds" (Section 5.2).
/// `fasea-datagen` computes the tag-overlap interestingness scores and
/// wraps them in this policy under the display name `"Online"`.
#[derive(Debug, Clone)]
pub struct StaticScorePolicy {
    name: &'static str,
    scores: Vec<f64>,
    ws: ScoreWorkspace,
}

impl StaticScorePolicy {
    /// Creates the policy from fixed per-event scores.
    ///
    /// # Panics
    /// Panics if `scores` is empty or contains non-finite values.
    pub fn new(name: &'static str, scores: Vec<f64>) -> Self {
        assert!(
            !scores.is_empty(),
            "StaticScorePolicy: scores must be non-empty"
        );
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "StaticScorePolicy: scores must be finite"
        );
        StaticScorePolicy {
            name,
            scores,
            ws: ScoreWorkspace::new(),
        }
    }

    /// The fixed scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

impl Policy for StaticScorePolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    // Fixed score table, no RNG — safe to prefetch speculatively.
    fn scoring_is_deterministic(&self) -> bool {
        true
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        let n = view.num_events();
        assert_eq!(
            self.scores.len(),
            n,
            "StaticScorePolicy: score vector does not match |V|"
        );
        ws.scores_mut(n).copy_from_slice(&self.scores);
    }

    fn workspace(&self) -> &ScoreWorkspace {
        &self.ws
    }

    fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
        &mut self.ws
    }

    fn observe(&mut self, _: u64, _: &ContextMatrix, _: &Arrangement, _: &Feedback) {
        // Feedback-oblivious by construction.
    }

    fn state_bytes(&self) -> usize {
        self.scores.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_core::{ConflictGraph, EventId};

    #[test]
    fn repeats_the_same_arrangement_every_round() {
        let mut p = StaticScorePolicy::new("Online", vec![0.3, 0.9, 0.1, 0.7]);
        let ctx = ContextMatrix::zeros(4, 1);
        let g = ConflictGraph::new(4);
        let rem = [100u32; 4];
        let view = SelectionView {
            t: 0,
            user_capacity: 2,
            contexts: &ctx,
            conflicts: &g,
            remaining: &rem,
        };
        let first = p.select(&view);
        assert_eq!(first.events(), &[EventId(1), EventId(3)]);
        for t in 1..20 {
            let view = SelectionView { t, ..view };
            let a = p.select(&view);
            p.observe(t, &ctx, &a, &Feedback::new(vec![false, false]));
            assert_eq!(a, first);
        }
    }

    #[test]
    fn adapts_only_to_capacity_exhaustion() {
        let mut p = StaticScorePolicy::new("Online", vec![0.9, 0.5]);
        let ctx = ContextMatrix::zeros(2, 1);
        let g = ConflictGraph::new(2);
        let view_full = SelectionView {
            t: 0,
            user_capacity: 1,
            contexts: &ctx,
            conflicts: &g,
            remaining: &[1, 1],
        };
        assert_eq!(p.select(&view_full).events(), &[EventId(0)]);
        // Once event 0 is full, the next-best event takes its place.
        let view_depleted = SelectionView {
            remaining: &[0, 1],
            ..view_full
        };
        assert_eq!(p.select(&view_depleted).events(), &[EventId(1)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_scores() {
        let _ = StaticScorePolicy::new("Online", vec![]);
    }

    #[test]
    #[should_panic(expected = "does not match |V|")]
    fn rejects_mismatched_instance() {
        let mut p = StaticScorePolicy::new("Online", vec![0.5]);
        let ctx = ContextMatrix::zeros(2, 1);
        let g = ConflictGraph::new(2);
        let view = SelectionView {
            t: 0,
            user_capacity: 1,
            contexts: &ctx,
            conflicts: &g,
            remaining: &[1, 1],
        };
        let _ = p.select(&view);
    }

    #[test]
    fn accessors() {
        let p = StaticScorePolicy::new("Online", vec![0.1, 0.2]);
        assert_eq!(p.name(), "Online");
        assert_eq!(p.scores(), &[0.1, 0.2]);
        assert_eq!(p.state_bytes(), 16);
        assert!(p.last_scores().is_none());
    }
}
