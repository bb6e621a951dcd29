//! Golden spill-determinism test: a store-backed personalized policy
//! run under a *tiny* memory budget — forcing constant COW
//! materialization, quantized demotion, warm eviction, and spill-log
//! faulting — must be **bit-equal** to the same run with an unbounded
//! store, for every observable: the arrangement digest, the regret
//! accounting, the OPT co-simulation, the complete serialized policy
//! state, and (for Thompson Sampling) the posterior-RNG position.
//!
//! This is the `fasea-models` headline contract (residency is a cache,
//! never an approximation, on the decision path), checked through the
//! real multi-user runner across both shipped policies. The budget is
//! sized so the test is vacuous-proof: it asserts the constrained run
//! actually demoted, evicted, and faulted.

use fasea::bandit::Policy;
use fasea::datagen::{MultiUserConfig, MultiUserWorkload, SyntheticConfig};
use fasea::models::{
    EstimatorStore, PersonalizedTs, PersonalizedUcb, StoreConfig, StoreStats, UserId, UserSchedule,
};
use fasea::sim::run_multi_user_stored;
use fasea::stats::crn::mix64;
use std::path::PathBuf;

const DIM: usize = 5;
const HORIZON: u64 = 1500;
const SEED: u64 = 0x60_1DE2;

fn workload() -> MultiUserWorkload {
    MultiUserWorkload::generate(MultiUserConfig {
        base: SyntheticConfig {
            num_events: 25,
            dim: DIM,
            seed: SEED,
            ..Default::default()
        },
        population: 60,
        heterogeneity: 0.9,
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fasea-models-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One exact d=5 model is (2·25 + 3·5)·8 = 520 bytes plus estimator
/// overhead; a hot budget of 2 KiB holds only a couple of models for a
/// population of 60, so nearly every round faults, and a warm budget of
/// 256 bytes keeps the quantized tier churning too.
fn tiny_budget(dir: &PathBuf) -> StoreConfig {
    StoreConfig::bounded(DIM, 1.0, 2048, 256, dir)
}

fn schedule() -> UserSchedule {
    let w = workload();
    UserSchedule::new(w.schedule_seed(), w.population())
}

fn open(config: StoreConfig) -> EstimatorStore {
    EstimatorStore::new(config).expect("open store")
}

/// Runs the budgeted and the unbounded instance of one policy over the
/// same workload and asserts bit-equality of everything observable,
/// plus the vacuity guards. Returns nothing: panics describe the first
/// divergence.
fn check_pair<P: Policy>(
    tag: &str,
    mut budgeted: P,
    mut unbounded: P,
    stats_of: impl Fn(&P) -> StoreStats,
) {
    let w = workload();
    let rb = run_multi_user_stored(&w, &mut budgeted, HORIZON, SEED ^ 0xFB);
    let ru = run_multi_user_stored(&w, &mut unbounded, HORIZON, SEED ^ 0xFB);

    // Bit-equality of everything observable.
    assert_eq!(
        rb.arrangement_digest, ru.arrangement_digest,
        "{tag}: arrangements diverged under the memory budget"
    );
    assert_eq!(
        rb.accounting.total_rewards(),
        ru.accounting.total_rewards(),
        "{tag}: rewards diverged"
    );
    assert_eq!(
        rb.accounting.total_arranged(),
        ru.accounting.total_arranged(),
        "{tag}: arranged totals diverged"
    );
    assert_eq!(rb.opt_rewards, ru.opt_rewards, "{tag}: OPT diverged");
    assert_eq!(
        budgeted.save_state(),
        unbounded.save_state(),
        "{tag}: serialized policy state diverged"
    );

    // Vacuity guard: the budget must have actually bound.
    let stats = stats_of(&budgeted);
    assert_eq!(stats.users, 60, "{tag}: population not fully seen");
    assert!(
        stats.demotions > 100,
        "{tag}: budget never demoted (demotions={})",
        stats.demotions
    );
    assert!(
        stats.evictions > 10,
        "{tag}: warm tier never evicted (evictions={})",
        stats.evictions
    );
    assert!(
        stats.faults > 100,
        "{tag}: spill never faulted back (faults={})",
        stats.faults
    );
    let unbounded_stats = stats_of(&unbounded);
    assert_eq!(unbounded_stats.demotions, 0);
    assert_eq!(unbounded_stats.spilled, 0);
}

#[test]
fn tiny_budget_ucb_run_is_bit_equal_to_unbounded() {
    let dir = temp_dir("ucb");
    check_pair(
        "ucb",
        PersonalizedUcb::new(open(tiny_budget(&dir)), schedule(), 2.0),
        PersonalizedUcb::new(open(StoreConfig::unbounded(DIM, 1.0)), schedule(), 2.0),
        |p| p.store().stats(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_budget_ts_run_is_bit_equal_to_unbounded() {
    let seed = mix64(SEED ^ 0x75);
    let dir = temp_dir("ts");
    let budgeted = PersonalizedTs::new(open(tiny_budget(&dir)), schedule(), 0.1, seed);
    let unbounded = PersonalizedTs::new(
        open(StoreConfig::unbounded(DIM, 1.0)),
        schedule(),
        0.1,
        seed,
    );
    check_pair("ts", budgeted, unbounded, |p| p.store().stats());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ts_posterior_rng_position_is_residency_independent() {
    // The TS Gaussian stream is positional (d draws per round) — a
    // budgeted and an unbounded run end at the same RNG state even
    // though their residency histories differ completely.
    let seed = mix64(SEED ^ 0x75);
    let dir = temp_dir("ts-rng");
    let mut budgeted = PersonalizedTs::new(open(tiny_budget(&dir)), schedule(), 0.1, seed);
    let mut unbounded = PersonalizedTs::new(
        open(StoreConfig::unbounded(DIM, 1.0)),
        schedule(),
        0.1,
        seed,
    );
    let w = workload();
    let _ = run_multi_user_stored(&w, &mut budgeted, 500, SEED ^ 0xFB);
    let _ = run_multi_user_stored(&w, &mut unbounded, 500, SEED ^ 0xFB);
    assert_eq!(budgeted.rng_digest(), unbounded.rng_digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budgeted_state_restores_into_an_unbounded_store_and_continues_in_lockstep() {
    // Crash-safe restore across *different* budget configurations: a
    // blob saved mid-run by the tiny-budget policy restores into a
    // fresh unbounded policy losslessly.
    let seed = mix64(SEED ^ 0x75);
    let w = workload();
    let dir = temp_dir("restore");
    let mut budgeted = PersonalizedTs::new(open(tiny_budget(&dir)), schedule(), 0.1, seed);
    let _ = run_multi_user_stored(&w, &mut budgeted, 400, SEED ^ 0xFB);

    let blob = budgeted.save_state();
    let mut resumed = PersonalizedTs::new(
        open(StoreConfig::unbounded(DIM, 1.0)),
        schedule(),
        0.1,
        seed,
    );
    resumed
        .restore_state(&blob)
        .expect("restore across budget configurations");
    assert_eq!(blob, resumed.save_state(), "restore is not lossless");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Residency accounting at population scale, in every tiering mode: an
/// [`EstimatorStore`] of 20k users at d=8 runs a seed phase (one
/// observation per user) and then a fixed number of select + observe
/// rounds on the multi-user hash schedule, enforcing the budget after
/// every observe as the runner does. The budgets hold a few thousand
/// exact models, so the bounded modes demote, spill and fault
/// throughout.
#[test]
fn residency_invariants_hold_in_every_tiering_mode() {
    const USERS: usize = 20_000;
    const D: usize = 8;
    const STEADY_ROUNDS: u64 = 40_000;
    const HOT_BUDGET: usize = 4 << 20;
    const WARM_BUDGET: usize = 1 << 20;
    const COHORTS: usize = 16;
    /// Observations a cold user folds into its cohort prior before
    /// materializing: low enough that most users materialize within
    /// the steady rounds, so the cohort modes tier private models too.
    const COHORT_FOLDS: u64 = 1;

    /// A cheap deterministic context for step `t`.
    fn context(t: u64, x: &mut [f64]) {
        let mut h = mix64(t ^ 0xC0DE);
        for v in x.iter_mut() {
            h = mix64(h);
            *v = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
    }

    // (bounded, cohorts, sketched)
    let modes = [
        (false, 0, false),
        (true, 0, false),
        (true, COHORTS, false),
        (true, COHORTS, true),
    ];
    for (bounded, cohorts, sketched) in modes {
        let tag = format!("bounded={bounded} cohorts={cohorts} sketched={sketched}");
        let dir = temp_dir(&format!("residency-{bounded}-{cohorts}-{sketched}"));
        let mut config = if bounded {
            StoreConfig::bounded(D, 1.0, HOT_BUDGET, WARM_BUDGET, &dir)
        } else {
            StoreConfig::unbounded(D, 1.0)
        };
        if cohorts > 0 {
            config = config.with_cohorts(cohorts, mix64(0xC040_0947), COHORT_FOLDS);
        }
        if sketched {
            config = config.with_sketched(4);
        }
        let mut store = open(config);
        let mut x = [0.0f64; D];

        // Seed: a COW materialization per user in flat mode, a cohort
        // fold in cohort mode.
        for u in 0..USERS as u64 {
            context(u, &mut x);
            let h = store.resolve(UserId(u));
            store.observe(h, &x, (u % 2) as f64, u).unwrap();
            store.enforce_budget(u).unwrap();
        }
        // Steady: one select + one observe per round.
        let schedule = UserSchedule::new(mix64(0x5EED ^ USERS as u64), USERS);
        for t in USERS as u64..USERS as u64 + STEADY_ROUNDS {
            context(t, &mut x);
            let h = store.resolve(UserId(schedule.user_at(t)));
            let est = store.estimator_for_select(h, t).unwrap();
            assert!(est.point_estimate(&x).is_finite(), "{tag}");
            store.observe(h, &x, (t % 2) as f64, t).unwrap();
            store.enforce_budget(t).unwrap();
        }

        let stats = store.stats();
        assert_eq!(stats.users, USERS, "{tag}: every user must be interned");
        if cohorts == 0 {
            assert_eq!(stats.cold, 0, "{tag}: the seed phase leaves no cold user");
        } else {
            // One seed observation is below the fold threshold, so the
            // cohort tier must have carried traffic.
            assert!(stats.cohorts_materialized > 0, "{tag}: no cohort built");
            assert!(stats.cohort_folds > 0, "{tag}: no observation folded");
            assert!(stats.cohort_hits > 0, "{tag}: no select served by a cohort");
        }
        if bounded {
            assert!(
                stats.hot_bytes <= HOT_BUDGET && stats.warm_bytes <= WARM_BUDGET,
                "{tag}: over budget: hot {}B/{HOT_BUDGET}B warm {}B/{WARM_BUDGET}B",
                stats.hot_bytes,
                stats.warm_bytes,
            );
            assert!(stats.demotions > 0, "{tag}: the budget never bound");
            assert!(stats.faults > 0, "{tag}: nothing faulted back");
        } else {
            assert_eq!(stats.demotions, 0, "{tag}");
        }
        if sketched {
            assert!(
                stats.sketch_promotions > 0,
                "{tag}: faulted {} times without a sketch promotion",
                stats.faults
            );
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
