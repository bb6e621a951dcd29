//! OPT — the clairvoyant reference strategy.

use crate::{Policy, ScoreWorkspace, SelectionView};
use fasea_core::{Arrangement, ContextMatrix, Feedback, LinearPayoffModel};

/// The reference strategy the paper measures regret against: it knows the
/// true `θ` and "uses Oracle-Greedy to select events greedily based on
/// the true expected rewards of the events" (Section 5.1).
///
/// OPT runs against its **own** capacity state in the simulator — it
/// consumes events like any other strategy, which is why its cumulative
/// reward flattens once it exhausts all capacities (the paper observes
/// this at `t = 65 664` under the default setting) and every learner's
/// total regret then drops.
#[derive(Debug, Clone)]
pub struct Opt {
    model: LinearPayoffModel,
    ws: ScoreWorkspace,
}

impl Opt {
    /// Creates OPT from the ground-truth payoff model.
    pub fn new(model: LinearPayoffModel) -> Self {
        Opt {
            model,
            ws: ScoreWorkspace::new(),
        }
    }

    /// The ground truth it plays with.
    pub fn model(&self) -> &LinearPayoffModel {
        &self.model
    }
}

impl Policy for Opt {
    fn name(&self) -> &'static str {
        "OPT"
    }

    // Scores are the model's expected rewards — deterministic in the
    // contexts, no RNG — safe to prefetch speculatively.
    fn scoring_is_deterministic(&self) -> bool {
        true
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        for (v, s) in ws.scores_mut(view.num_events()).iter_mut().enumerate() {
            *s = self
                .model
                .expected_reward(view.contexts, fasea_core::EventId(v));
        }
    }

    fn workspace(&self) -> &ScoreWorkspace {
        &self.ws
    }

    fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
        &mut self.ws
    }

    fn observe(&mut self, _: u64, _: &ContextMatrix, _: &Arrangement, _: &Feedback) {
        // Clairvoyant: nothing to learn.
    }

    fn state_bytes(&self) -> usize {
        self.model.dim() * std::mem::size_of::<f64>() + self.ws.state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_core::{ConflictGraph, EventId};
    use fasea_linalg::Vector;

    #[test]
    fn picks_true_best_events() {
        let model = LinearPayoffModel::new(Vector::from([1.0, 0.0]));
        let mut opt = Opt::new(model);
        let ctx = ContextMatrix::from_rows(3, 2, vec![0.2, 0.9, 0.8, 0.0, 0.5, 0.5]);
        let g = ConflictGraph::new(3);
        let rem = [1u32; 3];
        let view = SelectionView {
            t: 0,
            user_capacity: 2,
            contexts: &ctx,
            conflicts: &g,
            remaining: &rem,
        };
        let a = opt.select(&view);
        // True rewards: 0.2, 0.8, 0.5 => events 1 then 2.
        assert_eq!(a.events(), &[EventId(1), EventId(2)]);
        let s = opt.last_scores().unwrap();
        assert!((s[1] - 0.8).abs() < 1e-15);
    }

    #[test]
    fn scores_equal_true_expected_rewards() {
        let model = LinearPayoffModel::new(Vector::from([0.5, -0.5]));
        let mut opt = Opt::new(model.clone());
        let ctx = ContextMatrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let g = ConflictGraph::new(2);
        let rem = [1u32; 2];
        let view = SelectionView {
            t: 3,
            user_capacity: 1,
            contexts: &ctx,
            conflicts: &g,
            remaining: &rem,
        };
        let _ = opt.select(&view);
        let s = opt.last_scores().unwrap();
        assert_eq!(s[0], model.expected_reward(&ctx, EventId(0)));
        assert_eq!(s[1], model.expected_reward(&ctx, EventId(1)));
        assert_eq!(opt.name(), "OPT");
    }
}
