//! The main synthetic-data simulation loop.

use fasea_bandit::{Opt, Policy, SelectionView};
use fasea_core::{Environment, RegretAccounting, RewardModel, UserArrival};
use fasea_datagen::SyntheticWorkload;
use fasea_stats::{kendall_tau, CoinStream, P2Quantile, RunningStats};
use std::time::Instant;

/// The paper's checkpoint grid: `100, 200, …, 1000, 2000, …` up to the
/// horizon (the Figure 2 sampling schedule, reused for every time-series
/// plot). Always includes the final round.
pub fn paper_checkpoints(horizon: u64) -> Vec<u64> {
    let mut cps = Vec::new();
    let mut t = 100;
    while t < 1000.min(horizon) {
        cps.push(t);
        t += 100;
    }
    let mut t = 1000;
    while t < horizon {
        cps.push(t);
        t += 1000;
    }
    cps.push(horizon);
    cps.dedup();
    cps
}

/// Simulation configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`RunConfig::new`] or
/// [`RunConfig::paper`] and refine with the builder methods — new knobs
/// can then land without breaking downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunConfig {
    /// Number of rounds to play.
    pub horizon: u64,
    /// Sorted checkpoint times (1-based round counts) at which metric
    /// snapshots are taken. Defaults to [`paper_checkpoints`].
    pub checkpoints: Vec<u64>,
    /// Track Kendall τ of policy scores vs ground truth at checkpoints.
    pub track_kendall: bool,
    /// Measure per-round wall time per policy.
    pub measure_time: bool,
    /// Seed of the common-random-number feedback stream.
    pub feedback_seed: u64,
    /// Which arrangement [`fasea_bandit::Oracle`] every policy (and the
    /// OPT reference) runs its selections through. The default greedy
    /// oracle is bit-identical to the historical behaviour.
    pub oracle: fasea_bandit::OracleOptions,
    /// Event lifecycle schedule: capacity re-plans applied to every
    /// environment — including OPT's — at round boundaries, so regret
    /// is measured against a *moving* optimum. Default: no churn.
    pub churn: fasea_core::ChurnSchedule,
}

impl RunConfig {
    /// Minimal config: one checkpoint at the horizon, no Kendall
    /// tracking, no timing, default feedback seed. Refine with the
    /// builder methods.
    pub fn new(horizon: u64) -> Self {
        RunConfig {
            horizon,
            checkpoints: vec![horizon],
            track_kendall: false,
            measure_time: false,
            feedback_seed: 0xFEEDBAC4,
            oracle: fasea_bandit::OracleOptions::new(),
            churn: fasea_core::ChurnSchedule::none(),
        }
    }

    /// Paper-style config for a given horizon.
    pub fn paper(horizon: u64) -> Self {
        RunConfig {
            horizon,
            checkpoints: paper_checkpoints(horizon),
            track_kendall: false,
            measure_time: true,
            feedback_seed: 0xFEEDBAC4,
            oracle: fasea_bandit::OracleOptions::new(),
            churn: fasea_core::ChurnSchedule::none(),
        }
    }

    /// Replaces the checkpoint grid (must be sorted, 1-based).
    pub fn with_checkpoints(mut self, checkpoints: Vec<u64>) -> Self {
        self.checkpoints = checkpoints;
        self
    }

    /// Enables Kendall tracking (Figure 2).
    pub fn with_kendall(mut self) -> Self {
        self.track_kendall = true;
        self
    }

    /// Sets whether per-round wall time is measured.
    pub fn with_timing(mut self, measure: bool) -> Self {
        self.measure_time = measure;
        self
    }

    /// Sets the seed of the common-random-number feedback stream.
    pub fn with_feedback_seed(mut self, seed: u64) -> Self {
        self.feedback_seed = seed;
        self
    }

    /// Selects the arrangement oracle. See [`RunConfig::oracle`].
    pub fn with_oracle(mut self, oracle: fasea_bandit::OracleOptions) -> Self {
        self.oracle = oracle;
        self
    }

    /// Installs an event lifecycle schedule. See [`RunConfig::churn`].
    pub fn with_churn(mut self, churn: fasea_core::ChurnSchedule) -> Self {
        self.churn = churn;
        self
    }
}

/// One metric snapshot (one x-axis point of the paper's figures).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Round count at the snapshot (1-based: after `t` rounds).
    pub t: u64,
    /// Cumulative accept ratio.
    pub accept_ratio: f64,
    /// Cumulative total rewards.
    pub total_rewards: u64,
    /// Cumulative total regret vs the reference strategy.
    pub total_regret: i64,
    /// Regret ratio (regret / rewards).
    pub regret_ratio: f64,
    /// Kendall τ vs ground truth at this round, if tracked.
    pub kendall_tau: Option<f64>,
}

/// Results for one policy over the full run.
#[derive(Debug, Clone)]
pub struct PolicyRunResult {
    /// Policy display name.
    pub name: String,
    /// Snapshots at the configured checkpoints.
    pub checkpoints: Vec<Checkpoint>,
    /// Final cumulative accounting.
    pub accounting: RegretAccounting,
    /// Mean per-round wall time in seconds (select + observe), if
    /// measured.
    pub avg_round_secs: f64,
    /// 95th-percentile per-round wall time in seconds (P² estimate) —
    /// the latency tail an online platform actually answers users with.
    pub p95_round_secs: f64,
    /// Structural memory estimate in MB (policy state + shared input).
    pub memory_mb: f64,
}

/// Results of one simulation: every learning policy plus the reference.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Per-policy results, in input order.
    pub policies: Vec<PolicyRunResult>,
    /// The reference (OPT) strategy's own result (regret vs itself = 0).
    pub reference: PolicyRunResult,
    /// Round at which the reference exhausted all event capacity, if it
    /// did (the paper's sudden-regret-drop time, e.g. t = 65 664).
    pub reference_exhausted_at: Option<u64>,
}

struct PolicyState<'a, M: RewardModel + Clone> {
    policy: &'a mut dyn Policy,
    env: Environment<M>,
    accounting: RegretAccounting,
    time: RunningStats,
    time_p95: P2Quantile,
    checkpoints: Vec<Checkpoint>,
    // Reused across rounds so the select path stays allocation-free.
    arrangement: fasea_core::Arrangement,
}

/// Runs `policies` plus an OPT reference over the workload's arrival
/// stream. Policies are driven in lockstep so they share each round's
/// contexts and acceptance coins.
pub fn run_simulation(
    workload: &SyntheticWorkload,
    policies: &mut [Box<dyn Policy>],
    config: &RunConfig,
) -> SimulationResult {
    let model = workload.model.clone();
    let mut opt_policy = Opt::new(model.clone());
    let memory = crate::MemoryModel::for_instance(&workload.instance);

    // The configured arrangement oracle runs every policy's selections
    // — and OPT's, so the regret baseline uses the same combinatorial
    // subroutine. It is removed again after the run.
    let oracle = config.oracle.build();
    opt_policy.workspace_mut().set_oracle(Some(oracle.clone()));
    for p in policies.iter_mut() {
        p.workspace_mut().set_oracle(Some(oracle.clone()));
    }

    let coins = CoinStream::new(config.feedback_seed);
    let mut opt_state = PolicyState {
        policy: &mut opt_policy,
        env: Environment::new(workload.instance.clone(), model.clone(), coins),
        accounting: RegretAccounting::new(),
        time: RunningStats::new(),
        time_p95: P2Quantile::new(0.95),
        checkpoints: Vec::new(),
        arrangement: fasea_core::Arrangement::empty(),
    };
    let mut states: Vec<PolicyState<'_, _>> = policies
        .iter_mut()
        .map(|p| PolicyState {
            policy: p.as_mut(),
            env: Environment::new(workload.instance.clone(), model.clone(), coins),
            accounting: RegretAccounting::new(),
            time: RunningStats::new(),
            time_p95: P2Quantile::new(0.95),
            checkpoints: Vec::new(),
            arrangement: fasea_core::Arrangement::empty(),
        })
        .collect();

    let mut reference_exhausted_at = None;
    let mut next_cp = 0usize;
    let mut truth_buf: Vec<f64> = Vec::new();

    for t in 0..config.horizon {
        // Lifecycle churn lands before the round's arrival is served.
        // Every environment — OPT's included — re-plans identically, so
        // regret is measured against the *moving* optimum.
        for action in config.churn.actions_at(t) {
            opt_state.env.apply_lifecycle(action.event, action.capacity);
            for st in states.iter_mut() {
                st.env.apply_lifecycle(action.event, action.capacity);
            }
        }

        let arrival = workload.arrivals.arrival(t);
        let at_checkpoint =
            next_cp < config.checkpoints.len() && t + 1 == config.checkpoints[next_cp];

        // Ground-truth expected rewards this round (for Kendall).
        if config.track_kendall && at_checkpoint {
            truth_buf.clear();
            truth_buf.extend(
                (0..workload.instance.num_events())
                    .map(|v| model.expected_reward(&arrival.contexts, fasea_core::EventId(v))),
            );
        }

        // Reference strategy first (it defines the regret baseline).
        step_policy(&mut opt_state, t, &arrival, config.measure_time);
        if reference_exhausted_at.is_none() && opt_state.env.is_exhausted() {
            reference_exhausted_at = Some(t + 1);
        }

        for st in states.iter_mut() {
            step_policy(st, t, &arrival, config.measure_time);
        }

        if at_checkpoint {
            let opt_acc = opt_state.accounting;
            let truth = config
                .track_kendall
                .then_some((truth_buf.as_slice(), &arrival.contexts));
            push_checkpoint(&mut opt_state, t + 1, &opt_acc, truth);
            for st in states.iter_mut() {
                push_checkpoint(st, t + 1, &opt_acc, truth);
            }
            next_cp += 1;
        }
    }

    let finish = |st: PolicyState<'_, _>| -> PolicyRunResult {
        PolicyRunResult {
            name: st.policy.name().to_string(),
            memory_mb: memory.total_mb(st.policy.state_bytes()),
            checkpoints: st.checkpoints,
            accounting: st.accounting,
            avg_round_secs: st.time.mean(),
            p95_round_secs: st.time_p95.value().unwrap_or(0.0),
        }
    };

    let result = SimulationResult {
        reference: finish(opt_state),
        policies: states.into_iter().map(finish).collect(),
        reference_exhausted_at,
    };

    // The oracle belongs to this run's config, not to the caller's
    // policies.
    for p in policies.iter_mut() {
        p.workspace_mut().set_oracle(None);
    }
    result
}

fn step_policy<M: RewardModel + Clone>(
    st: &mut PolicyState<'_, M>,
    t: u64,
    arrival: &UserArrival,
    measure_time: bool,
) {
    let view = SelectionView {
        t,
        user_capacity: arrival.capacity,
        contexts: &arrival.contexts,
        conflicts: st.env.instance().conflicts(),
        remaining: st.env.remaining(),
    };
    let start = measure_time.then(Instant::now);
    // Batched path into the per-policy arrangement buffer: with a warm
    // workspace, steady-state rounds of the learning policies allocate
    // nothing.
    st.policy.select_into(&view, &mut st.arrangement);
    let outcome = st
        .env
        .step(t, arrival, &st.arrangement)
        .unwrap_or_else(|e| {
            panic!(
                "policy {} proposed an infeasible arrangement: {e}",
                st.policy.name()
            )
        });
    st.policy
        .observe(t, &arrival.contexts, &st.arrangement, &outcome.feedback);
    // Keep the workspace's model epoch in step with learner updates so
    // a score set stashed by `Policy::prefetch_scores` can never be
    // reused across a model change.
    if !st.arrangement.is_empty() {
        st.policy.workspace_mut().bump_model_epoch();
    }
    if let Some(s) = start {
        let secs = s.elapsed().as_secs_f64();
        st.time.push(secs);
        st.time_p95.push(secs);
    }
    st.accounting
        .record_round(st.arrangement.len(), outcome.reward);
}

fn push_checkpoint<M: RewardModel + Clone>(
    st: &mut PolicyState<'_, M>,
    t: u64,
    reference: &RegretAccounting,
    truth: Option<(&[f64], &fasea_core::ContextMatrix)>,
) {
    let tau = truth.and_then(|(truth, contexts)| {
        // A pruned UCB round scored only what Oracle-Greedy could
        // reach; Kendall-τ ranks every event, so finish the vector.
        st.policy.workspace_mut().complete_scores(contexts);
        st.policy
            .last_scores()
            .and_then(|scores| kendall_tau(scores, truth))
    });
    st.checkpoints.push(Checkpoint {
        t,
        accept_ratio: st.accounting.accept_ratio(),
        total_rewards: st.accounting.total_rewards(),
        total_regret: st.accounting.regret_vs(reference),
        regret_ratio: st.accounting.regret_ratio_vs(reference),
        kendall_tau: tau,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_bandit::{EpsilonGreedy, Exploit, LinUcb, RandomPolicy, ThompsonSampling};
    use fasea_datagen::SyntheticConfig;

    fn small_workload(seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::generate(SyntheticConfig {
            num_events: 30,
            horizon: 2000,
            dim: 5,
            conflict_ratio: 0.2,
            seed,
            ..Default::default()
        })
    }

    fn full_policy_set(d: usize, seed: u64) -> Vec<Box<dyn Policy>> {
        vec![
            Box::new(LinUcb::new(d, 1.0, 2.0)),
            Box::new(ThompsonSampling::new(d, 1.0, 0.1, seed)),
            Box::new(EpsilonGreedy::new(d, 1.0, 0.1, seed ^ 1)),
            Box::new(Exploit::new(d, 1.0)),
            Box::new(RandomPolicy::new(seed ^ 2)),
        ]
    }

    #[test]
    fn paper_checkpoints_grid() {
        let cps = paper_checkpoints(100_000);
        assert_eq!(cps[0], 100);
        assert_eq!(cps[8], 900);
        assert_eq!(cps[9], 1000);
        assert_eq!(cps[10], 2000);
        assert_eq!(*cps.last().unwrap(), 100_000);
        assert_eq!(cps.len(), 9 + 100);
        // Short horizons truncate cleanly.
        assert_eq!(paper_checkpoints(500), vec![100, 200, 300, 400, 500]);
        assert_eq!(
            paper_checkpoints(1000),
            vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
        );
    }

    #[test]
    fn simulation_runs_and_reports_all_policies() {
        let w = small_workload(11);
        let mut policies = full_policy_set(5, 7);
        let cfg = RunConfig {
            horizon: 500,
            checkpoints: vec![100, 250, 500],
            track_kendall: true,
            measure_time: true,
            feedback_seed: 42,
            ..RunConfig::new(1)
        };
        let res = run_simulation(&w, &mut policies, &cfg);
        assert_eq!(res.policies.len(), 5);
        assert_eq!(res.reference.name, "OPT");
        for p in &res.policies {
            assert_eq!(p.checkpoints.len(), 3);
            assert!(p.accounting.rounds() == 500);
            assert!(p.avg_round_secs >= 0.0);
            assert!(p.memory_mb > 0.0);
            // Kendall was tracked for every checkpoint.
            assert!(p.checkpoints.iter().all(|c| c.kendall_tau.is_some()));
        }
        // OPT's regret vs itself is identically zero.
        assert!(res
            .reference
            .checkpoints
            .iter()
            .all(|c| c.total_regret == 0));
    }

    #[test]
    fn opt_beats_random_by_a_margin() {
        let w = small_workload(5);
        let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(RandomPolicy::new(3))];
        let cfg = RunConfig {
            horizon: 2000,
            checkpoints: vec![2000],
            track_kendall: false,
            measure_time: false,
            feedback_seed: 9,
            ..RunConfig::new(1)
        };
        let res = run_simulation(&w, &mut policies, &cfg);
        let random_rewards = res.policies[0].accounting.total_rewards();
        let opt_rewards = res.reference.accounting.total_rewards();
        assert!(
            opt_rewards as f64 > random_rewards as f64 * 1.15,
            "OPT {opt_rewards} vs Random {random_rewards}"
        );
    }

    #[test]
    fn ucb_outperforms_random_on_long_runs() {
        let w = small_workload(8);
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(LinUcb::new(5, 1.0, 2.0)),
            Box::new(RandomPolicy::new(4)),
        ];
        let cfg = RunConfig {
            horizon: 2000,
            checkpoints: vec![2000],
            track_kendall: false,
            measure_time: false,
            feedback_seed: 10,
            ..RunConfig::new(1)
        };
        let res = run_simulation(&w, &mut policies, &cfg);
        let ucb = res.policies[0].accounting.total_rewards();
        let random = res.policies[1].accounting.total_rewards();
        assert!(ucb > random, "UCB {ucb} <= Random {random}");
    }

    #[test]
    fn regret_is_cumulative_and_consistent() {
        let w = small_workload(13);
        let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(Exploit::new(5, 1.0))];
        let cfg = RunConfig {
            horizon: 300,
            checkpoints: vec![100, 200, 300],
            track_kendall: false,
            measure_time: false,
            feedback_seed: 17,
            ..RunConfig::new(1)
        };
        let res = run_simulation(&w, &mut policies, &cfg);
        let p = &res.policies[0];
        for c in &p.checkpoints {
            // regret == opt_rewards_at_t - policy_rewards_at_t; both are
            // non-decreasing, and the relation regret_ratio = regret /
            // rewards must hold exactly.
            if c.total_rewards > 0 {
                let expect = c.total_regret as f64 / c.total_rewards as f64;
                assert!((c.regret_ratio - expect).abs() < 1e-12);
            }
            assert!((0.0..=1.0).contains(&c.accept_ratio));
        }
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let w = small_workload(21);
        let cfg = RunConfig {
            horizon: 200,
            checkpoints: vec![200],
            track_kendall: false,
            measure_time: false,
            feedback_seed: 5,
            ..RunConfig::new(1)
        };
        let mut p1: Vec<Box<dyn Policy>> = vec![Box::new(ThompsonSampling::new(5, 1.0, 0.1, 2))];
        let mut p2: Vec<Box<dyn Policy>> = vec![Box::new(ThompsonSampling::new(5, 1.0, 0.1, 2))];
        let r1 = run_simulation(&w, &mut p1, &cfg);
        let r2 = run_simulation(&w, &mut p2, &cfg);
        assert_eq!(
            r1.policies[0].accounting.total_rewards(),
            r2.policies[0].accounting.total_rewards()
        );
        assert_eq!(
            r1.reference.accounting.total_rewards(),
            r2.reference.accounting.total_rewards()
        );
    }

    #[test]
    fn capacity_exhaustion_is_detected() {
        // Tiny capacities: OPT must exhaust all events well before the
        // horizon, flattening its reward curve.
        let w = SyntheticWorkload::generate(SyntheticConfig {
            num_events: 5,
            dim: 3,
            capacity: fasea_datagen::CapacityModel {
                mean: 3.0,
                std: 0.0,
            },
            conflict_ratio: 0.0,
            horizon: 5000,
            seed: 33,
            ..Default::default()
        });
        let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(RandomPolicy::new(1))];
        let cfg = RunConfig {
            horizon: 5000,
            checkpoints: vec![5000],
            track_kendall: false,
            measure_time: false,
            feedback_seed: 2,
            ..RunConfig::new(1)
        };
        let res = run_simulation(&w, &mut policies, &cfg);
        let exhausted = res.reference_exhausted_at.expect("OPT never exhausted");
        assert!(exhausted < 5000);
        // Total OPT rewards equal the total capacity (15).
        assert_eq!(res.reference.accounting.total_rewards(), 15);
    }

    #[test]
    fn churn_applies_to_every_policy_and_stays_deterministic() {
        let w = small_workload(29);
        let churn = fasea_core::ChurnSchedule::generate(w.instance.capacities(), 400, 25, 0xC0FFEE);
        assert!(!churn.is_empty());
        let cfg = RunConfig::new(400)
            .with_checkpoints(vec![200, 400])
            .with_feedback_seed(6)
            .with_churn(churn);
        let mut p1: Vec<Box<dyn Policy>> = vec![Box::new(LinUcb::new(5, 1.0, 2.0))];
        let mut p2: Vec<Box<dyn Policy>> = vec![Box::new(LinUcb::new(5, 1.0, 2.0))];
        let r1 = run_simulation(&w, &mut p1, &cfg.clone());
        let r2 = run_simulation(&w, &mut p2, &cfg);
        assert_eq!(r1.policies[0].checkpoints, r2.policies[0].checkpoints);
        // OPT's environment churns too, so regret against the moving
        // optimum is still identically zero for OPT itself.
        assert!(r1.reference.checkpoints.iter().all(|c| c.total_regret == 0));
    }

    #[test]
    fn tabu_oracle_drives_a_full_run() {
        let w = small_workload(31);
        let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(Exploit::new(5, 1.0))];
        let cfg = RunConfig::new(200)
            .with_checkpoints(vec![200])
            .with_oracle(fasea_bandit::OracleOptions::tabu());
        let res = run_simulation(&w, &mut policies, &cfg);
        assert_eq!(res.policies[0].accounting.rounds(), 200);
        assert!(res.policies[0].accounting.total_rewards() > 0);
    }
}
