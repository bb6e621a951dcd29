//! Golden determinism tests: the whole pipeline — workload generation,
//! policy randomness, common-random-number feedback — is a pure function
//! of its seeds. These tests pin concrete totals for a small fixed
//! configuration so that any accidental change to RNG consumption order,
//! hashing, or update algebra shows up as a diff here.
//!
//! If an *intentional* change (e.g. a new distribution draw order)
//! breaks these, regenerate the constants with
//! `cargo test --test determinism_golden -- --nocapture` after
//! reviewing that the change is wanted.

use fasea::bandit::{
    EpsilonGreedy, Exploit, LinUcb, Policy, RandomPolicy, ScorePool, ThompsonSampling,
};
use fasea::datagen::{SyntheticConfig, SyntheticWorkload};
use fasea::sim::{run_simulation, RunConfig};
use std::sync::Arc;

fn golden_run() -> Vec<(String, u64)> {
    golden_run_with(None)
}

/// The golden run, every policy scoring through `pool` when one is
/// forced (a 1-thread pool forces serial), else choosing by itself.
fn golden_run_with(pool: Option<usize>) -> Vec<(String, u64)> {
    let horizon = 600;
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        num_events: 40,
        dim: 6,
        horizon,
        seed: 0xA0,
        ..Default::default()
    });
    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(LinUcb::new(6, 1.0, 2.0)),
        Box::new(ThompsonSampling::new(6, 1.0, 0.1, 11)),
        Box::new(EpsilonGreedy::new(6, 1.0, 0.1, 12)),
        Box::new(Exploit::new(6, 1.0)),
        Box::new(RandomPolicy::new(13)),
    ];
    if let Some(threads) = pool {
        let pool = Arc::new(ScorePool::new(threads));
        for p in &mut policies {
            p.workspace_mut().set_score_pool(Some(Arc::clone(&pool)));
        }
    }
    let cfg = RunConfig::new(horizon).with_feedback_seed(0xFEED);
    let result = run_simulation(&workload, &mut policies, &cfg);
    let mut rows: Vec<(String, u64)> = result
        .policies
        .iter()
        .map(|p| (p.name.clone(), p.accounting.total_rewards()))
        .collect();
    rows.push((
        result.reference.name.clone(),
        result.reference.accounting.total_rewards(),
    ));
    rows
}

#[test]
fn run_is_bit_reproducible() {
    let a = golden_run();
    let b = golden_run();
    assert_eq!(a, b, "two identical runs diverged");
    for (name, rewards) in &a {
        println!("golden: {name} = {rewards}");
    }
    // Structural sanity on the pinned run (ordering, not exact values,
    // so the test is robust to intentional reseeding while still
    // catching broken determinism via the equality above).
    let get = |n: &str| a.iter().find(|(name, _)| name == n).unwrap().1;
    assert!(get("UCB") > get("Random"));
    assert!(get("Exploit") > get("Random"));
    assert!(get("OPT") >= get("UCB"));
}

#[test]
fn parallel_scoring_matches_serial_golden() {
    // The ScorePool shards the score scan but must be bit-invisible:
    // the same run forced through a 4-thread pool lands on the
    // identical golden totals as one forced serial, for every policy
    // (and the OPT reference).
    let serial = golden_run_with(Some(1));
    let pooled = golden_run_with(Some(4));
    assert_eq!(serial, pooled, "parallel scoring changed a golden total");
}

/// At a 5000×20 view the workspace scores through the shared pool by
/// itself on a multi-core host (serially on one core). Either way a run
/// must equal one forced serial through the seam: the same accounting
/// triple and the same policy-state bytes.
#[test]
fn automatic_pooling_matches_forced_serial_at_a_wide_view() {
    use fasea::core::EventId;
    use fasea::sim::ArrangementService;
    use fasea::stats::CoinStream;
    const ROUNDS: u64 = 200;
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        num_events: 5000,
        dim: 20,
        horizon: ROUNDS,
        seed: 0xA1,
        ..Default::default()
    });
    let coins = CoinStream::new(0xFEED);
    let run = |mut policy: Box<dyn Policy>, forced: Option<Arc<ScorePool>>| {
        let auto = forced.is_none();
        policy.workspace_mut().set_score_pool(forced);
        let mut svc = ArrangementService::new(workload.instance.clone(), policy);
        for t in 0..ROUNDS {
            let arrival = workload.arrivals.arrival(t);
            let arranged = svc.propose(&arrival).unwrap();
            let accepts: Vec<bool> = arranged
                .iter()
                .map(|v: EventId| {
                    coins.uniform(t, v.index() as u64)
                        < workload.model.expected_reward(&arrival.contexts, v)
                })
                .collect();
            svc.feedback(&accepts).unwrap();
        }
        if auto && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            // The live service's workspace holds the shared pool.
            assert!(
                Arc::strong_count(&fasea::bandit::shared_score_pool()) > 1,
                "a 5000×20 view did not pick the shared pool on a multi-core host"
            );
        }
        let accounting = svc.accounting();
        (
            svc.rounds_completed(),
            accounting.total_arranged(),
            accounting.total_rewards(),
            svc.policy().save_state(),
        )
    };
    let serial = || Some(Arc::new(ScorePool::new(1)));
    let ucb = || Box::new(LinUcb::new(20, 1.0, 2.0)) as Box<dyn Policy>;
    let ts = || Box::new(ThompsonSampling::new(20, 1.0, 0.1, 11)) as Box<dyn Policy>;
    for (name, make) in [("UCB", &ucb as &dyn Fn() -> Box<dyn Policy>), ("TS", &ts)] {
        let auto = run(make(), None);
        assert!(auto.2 > 0, "{name}: no rewards, the check is vacuous");
        assert_eq!(auto, run(make(), serial()), "{name}: pooled run diverged");
    }
}

#[test]
fn workload_generation_is_reproducible() {
    let cfg = SyntheticConfig {
        num_events: 25,
        dim: 5,
        seed: 777,
        ..Default::default()
    };
    let a = SyntheticWorkload::generate(cfg.clone());
    let b = SyntheticWorkload::generate(cfg);
    assert_eq!(a.model.theta().as_slice(), b.model.theta().as_slice());
    assert_eq!(a.instance.capacities(), b.instance.capacities());
    assert_eq!(
        a.instance.conflicts().num_conflicts(),
        b.instance.conflicts().num_conflicts()
    );
    for t in [0u64, 1, 99, 12345] {
        assert_eq!(
            a.arrivals.arrival(t).contexts,
            b.arrivals.arrival(t).contexts
        );
    }
}

#[test]
fn real_dataset_is_reproducible_across_processes() {
    // The canonical seed must always give the paper's c_u row — this is
    // the cross-process anchor for Table 7.
    use fasea::datagen::real::PAPER_YES_COUNTS;
    use fasea::datagen::RealDataset;
    let d = RealDataset::generate(2016);
    let counts: Vec<usize> = (0..d.num_users()).map(|u| d.yes_count(u)).collect();
    assert_eq!(counts.as_slice(), PAPER_YES_COUNTS.as_slice());
}
