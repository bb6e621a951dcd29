//! Sharded-service acceptance suite, driven end-to-end through the
//! `fasea` facade:
//!
//! 1. **Golden parity** — for every policy the repo ships (all seven)
//!    and N ∈ {1, 2, 4} shards, an N-shard run's coordinator state —
//!    capacities, regret accounting, and the policy's full saved state
//!    *including its RNG position* — must be byte-identical to the
//!    single-actor [`DurableArrangementService`] run on the same seed.
//! 2. **Cross-shard 2PC kill matrix** — the process is killed at every
//!    record boundary of every shard transaction log, and at every
//!    boundary of the coordinator round log (which includes the window
//!    after a shard committed but before the coordinator's Feedback —
//!    the "shard ahead" case — and the window after prepares but
//!    before the commit decision — the in-doubt case). Every crash
//!    image must recover with shard counters convergent with the
//!    coordinator mirror and continue to a final state byte-identical
//!    to the uninterrupted reference.
//! 3. **Targeted in-doubt resolution** — combined coordinator + shard
//!    cuts that strand a transaction exactly in-doubt, once where the
//!    coordinator's Feedback survived (must resolve to commit) and
//!    once where it did not (must resolve to abort).
//! 4. **Sharded serving crash-resume** — a sharded server dies
//!    mid-load with a proposal outstanding; a fresh sharded server on
//!    the same directory recovers every shard plus the coordinator and
//!    the wire-driven continuation matches the in-process reference
//!    with no acked round lost.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fasea::bandit::{
    EpsilonGreedy, Exploit, LinUcb, Opt, Policy, RandomPolicy, StaticScorePolicy, ThompsonSampling,
};
use fasea::core::EventId;
use fasea::datagen::{SyntheticConfig, SyntheticWorkload};
use fasea::serve::{ClientConfig, ServeClient, Server, ServerConfig};
use fasea::shard::shard_fingerprint;
use fasea::sim::{ArrangementService, DurableOptions};
use fasea::store::{wal, FaultFile, Record};
use fasea::{DurableArrangementService, FsyncPolicy, ShardedArrangementService};

const DIM: usize = 3;
const NUM_EVENTS: usize = 12;

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: 0x0005_AA2D_5EED,
        ..SyntheticConfig::default()
    })
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fasea-shard-par-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Recursive copy — the sharded layout nests shard logs in
/// subdirectories.
fn copy_tree(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), to).unwrap();
        }
    }
}

/// All seven policies, fresh per call so two runs start identically.
fn all_policies() -> Vec<(&'static str, Box<dyn Policy>)> {
    let w = workload();
    let static_scores: Vec<f64> = (0..NUM_EVENTS)
        .map(|v| ((v * 37) % 23) as f64 / 23.0)
        .collect();
    vec![
        (
            "ucb",
            Box::new(LinUcb::new(DIM, 1.0, 2.0)) as Box<dyn Policy>,
        ),
        (
            "ts",
            Box::new(ThompsonSampling::new(DIM, 1.0, 0.1, 0xA11CE)),
        ),
        (
            "egreedy",
            Box::new(EpsilonGreedy::new(DIM, 1.0, 0.1, 0xB0B)),
        ),
        ("exploit", Box::new(Exploit::new(DIM, 1.0))),
        ("opt", Box::new(Opt::new(w.model.clone()))),
        ("random", Box::new(RandomPolicy::new(0xC0DE))),
        (
            "static",
            Box::new(StaticScorePolicy::new("static", static_scores)),
        ),
    ]
}

fn policy_named(name: &str) -> Box<dyn Policy> {
    all_policies()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| p)
        .unwrap()
}

fn opts() -> DurableOptions {
    DurableOptions::new()
        .with_segment_bytes(u64::MAX)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshots_kept(1)
}

/// Everything that must match between a sharded and a single-actor run.
#[derive(Debug, Clone, PartialEq)]
struct StateDigest {
    t: u64,
    remaining: Vec<u32>,
    arranged: u64,
    rewards: u64,
    has_pending: bool,
    policy_state: Vec<u8>,
}

fn digest_of(svc: &ArrangementService, t: u64, has_pending: bool) -> StateDigest {
    StateDigest {
        t,
        remaining: svc.remaining().to_vec(),
        arranged: svc.accounting().total_arranged(),
        rewards: svc.accounting().total_rewards(),
        has_pending,
        policy_state: svc.policy().save_state(),
    }
}

fn digest_single(svc: &DurableArrangementService) -> StateDigest {
    digest_of(svc.service(), svc.rounds_completed(), svc.has_pending())
}

fn digest_sharded(svc: &ShardedArrangementService) -> StateDigest {
    digest_of(svc.service(), svc.rounds_completed(), svc.has_pending())
}

/// CRN acceptance for round `t` — identical no matter which service
/// executes the round.
fn accepts_for(w: &SyntheticWorkload, t: u64, arranged: &[EventId]) -> Vec<bool> {
    let coins = fasea::stats::CoinStream::new(0xFEED_C0DE);
    let arrival = w.arrivals.arrival(t);
    arranged
        .iter()
        .map(|&v| {
            coins.uniform(t, v.index() as u64) < w.model.accept_probability(&arrival.contexts, v)
        })
        .collect()
}

fn run_single(svc: &mut DurableArrangementService, w: &SyntheticWorkload, upto: u64) {
    while svc.rounds_completed() < upto {
        let t = svc.rounds_completed();
        let a = if let Some(p) = svc.pending_arrangement() {
            p.clone()
        } else {
            svc.propose(&w.arrivals.arrival(t)).unwrap()
        };
        let accepts = accepts_for(w, t, a.events());
        svc.feedback(&accepts).unwrap();
    }
}

fn run_sharded(svc: &mut ShardedArrangementService, w: &SyntheticWorkload, upto: u64) {
    while svc.rounds_completed() < upto {
        let t = svc.rounds_completed();
        let a = if let Some(p) = svc.pending_arrangement() {
            p.clone()
        } else {
            svc.propose(&w.arrivals.arrival(t)).unwrap()
        };
        let accepts = accepts_for(w, t, a.events());
        svc.feedback(&accepts).unwrap();
    }
}

/// Asserts every shard's authoritative counters agree with the
/// coordinator's capacity mirror.
fn assert_counters_match_mirror(svc: &ShardedArrangementService, context: &str) {
    let mirror = svc.service().remaining().to_vec();
    for s in 0..svc.num_shards() {
        for (event, rem) in svc.shard_remaining(s) {
            assert_eq!(
                rem, mirror[event as usize],
                "{context}: shard {s} counter for event {event} diverged from the mirror"
            );
        }
    }
}

#[test]
fn golden_parity_every_policy_every_shard_count() {
    const ROUNDS: u64 = 60;
    let w = workload();
    for (name, _) in all_policies() {
        // Single-actor reference for this policy.
        let ref_dir = tmp(&format!("golden-ref-{name}"));
        let reference = {
            let mut svc = DurableArrangementService::open(
                &ref_dir,
                w.instance.clone(),
                policy_named(name),
                opts(),
            )
            .unwrap();
            run_single(&mut svc, &w, ROUNDS);
            let d = digest_single(&svc);
            drop(svc);
            fs::remove_dir_all(&ref_dir).unwrap();
            d
        };

        for shards in [1usize, 2, 4] {
            let dir = tmp(&format!("golden-{name}-{shards}"));
            let mut svc = ShardedArrangementService::open(
                &dir,
                w.instance.clone(),
                policy_named(name),
                opts(),
                shards,
            )
            .unwrap();
            run_sharded(&mut svc, &w, ROUNDS);
            assert_eq!(
                digest_sharded(&svc),
                reference,
                "{name} over {shards} shards diverged from the single-actor run"
            );
            assert_counters_match_mirror(&svc, &format!("{name}/{shards}"));
            svc.close().unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The shared fixture for the kill-matrix tests: a 2-shard reference
/// run synced to disk, plus the final digest of its continuation.
struct KillFixture {
    base: PathBuf,
    w: SyntheticWorkload,
    reference_final: StateDigest,
    fingerprint: u64,
}

const KILL_SHARDS: usize = 2;
const KILL_ROUNDS: u64 = 24;
const KILL_END: u64 = 40;

impl KillFixture {
    fn build(tag: &str) -> KillFixture {
        let w = workload();
        let base = tmp(&format!("kill-base-{tag}"));
        let fingerprint = {
            let mut svc = ShardedArrangementService::open(
                &base,
                w.instance.clone(),
                policy_named("ts"),
                opts(),
                KILL_SHARDS,
            )
            .unwrap();
            run_sharded(&mut svc, &w, KILL_ROUNDS);
            svc.sync().unwrap();
            svc.fingerprint()
            // Dropped without close: a crash image with every record
            // through round KILL_ROUNDS durable in all three logs.
        };
        let reference_final = {
            let cont = tmp(&format!("kill-cont-{tag}"));
            copy_tree(&base, &cont);
            let mut svc = ShardedArrangementService::open(
                &cont,
                w.instance.clone(),
                policy_named("ts"),
                opts(),
                KILL_SHARDS,
            )
            .unwrap();
            run_sharded(&mut svc, &w, KILL_END);
            let d = digest_sharded(&svc);
            drop(svc);
            fs::remove_dir_all(&cont).unwrap();
            d
        };
        KillFixture {
            base,
            w,
            reference_final,
            fingerprint,
        }
    }

    /// Reopens a crash image, checks recovery invariants, continues to
    /// the end, and requires byte-identical convergence.
    ///
    /// With `resolved_shard = Some(s)` the coordinator log was also
    /// truncated: shard `s` (whose in-doubt transaction was just
    /// resolved) must land exactly on the mirror, while uncut shards
    /// may legitimately sit *ahead* of it — recovery only repairs
    /// shards that fell behind; ahead converges via the
    /// `committed_below` watermark as rounds are re-run.
    fn recover_and_verify(&self, scratch: &Path, context: &str, resolved_shard: Option<usize>) {
        let mut svc = ShardedArrangementService::open(
            scratch,
            self.w.instance.clone(),
            policy_named("ts"),
            opts(),
            KILL_SHARDS,
        )
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
        match resolved_shard {
            // After open, in-doubt resolution + reconciliation must
            // leave every shard counter exactly on the coordinator
            // mirror.
            None => assert_counters_match_mirror(&svc, context),
            Some(cut) => {
                let mirror = svc.service().remaining().to_vec();
                for s in 0..svc.num_shards() {
                    for (event, rem) in svc.shard_remaining(s) {
                        if s == cut {
                            assert_eq!(
                                rem, mirror[event as usize],
                                "{context}: resolved shard {s} missed the mirror on event {event}"
                            );
                        } else {
                            assert!(
                                rem <= mirror[event as usize],
                                "{context}: shard {s} fell behind the mirror on event {event}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            svc.rounds_completed() <= KILL_ROUNDS,
            "{context}: recovered beyond the reference"
        );
        run_sharded(&mut svc, &self.w, KILL_END);
        assert_eq!(
            digest_sharded(&svc),
            self.reference_final,
            "{context}: continuation diverged from the uninterrupted reference"
        );
        assert_counters_match_mirror(&svc, &format!("{context} (final)"));
    }
}

#[test]
fn kill_matrix_every_shard_log_boundary() {
    let fx = KillFixture::build("shardlog");
    let scratch = tmp("kill-shardlog-scratch");
    for s in 0..KILL_SHARDS {
        let shard_dir = fx.base.join(format!("shard-{s:03}"));
        let (records, boundaries, torn) =
            wal::scan(&shard_dir, shard_fingerprint(fx.fingerprint, s)).unwrap();
        assert!(torn.is_none());
        assert!(
            records.len() >= 4,
            "shard {s} saw too little traffic for a meaningful matrix"
        );
        // Kill after exactly k shard-log records: k = 0 is "before the
        // first prepare", odd positions sit between a prepare and its
        // commit (the in-doubt window), and cuts inside a round's
        // prepare/commit pair are the mid-commit-fan-out images.
        for (k, (segment, offset)) in boundaries.iter().enumerate() {
            copy_tree(&fx.base, &scratch);
            FaultFile::new(
                scratch
                    .join(format!("shard-{s:03}"))
                    .join(segment.file_name().unwrap()),
            )
            .torn_write(*offset)
            .unwrap();
            fx.recover_and_verify(&scratch, &format!("shard {s} cut at boundary {k}"), None);
        }
    }
    fs::remove_dir_all(&fx.base).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn kill_matrix_every_coordinator_boundary() {
    let fx = KillFixture::build("coord");
    let coord_dir = fx.base.join("coordinator");
    let (records, boundaries, torn) = wal::scan(&coord_dir, fx.fingerprint).unwrap();
    assert_eq!(records.len(), 2 * KILL_ROUNDS as usize);
    assert!(torn.is_none());
    let scratch = tmp("kill-coord-scratch");
    // Cutting the coordinator at boundary 2t+1 keeps round t's Propose
    // but loses its Feedback while both shards hold the prepare *and*
    // commit for t — the "shard ahead" image. Recovery must not repair
    // backwards; the re-run of round t must no-op against the shards'
    // committed_below watermark and converge.
    for (k, (segment, offset)) in boundaries.iter().enumerate() {
        copy_tree(&fx.base, &scratch);
        FaultFile::new(
            scratch
                .join("coordinator")
                .join(segment.file_name().unwrap()),
        )
        .torn_write(*offset)
        .unwrap();
        let mut svc = ShardedArrangementService::open(
            &scratch,
            fx.w.instance.clone(),
            policy_named("ts"),
            opts(),
            KILL_SHARDS,
        )
        .unwrap_or_else(|e| panic!("coordinator cut at boundary {k}: recovery failed: {e}"));
        assert_eq!(svc.rounds_completed() as usize, k / 2);
        // Shards may legitimately be *ahead* of the mirror here; they
        // must never be behind it (reconciliation repairs that side).
        let mirror = svc.service().remaining().to_vec();
        for s in 0..KILL_SHARDS {
            for (event, rem) in svc.shard_remaining(s) {
                assert!(
                    rem <= mirror[event as usize],
                    "coordinator cut {k}: shard {s} is behind the mirror on event {event}"
                );
            }
        }
        run_sharded(&mut svc, &fx.w, KILL_END);
        assert_eq!(
            digest_sharded(&svc),
            fx.reference_final,
            "coordinator cut at boundary {k}: continuation diverged"
        );
        assert_counters_match_mirror(&svc, &format!("coordinator cut {k} (final)"));
        drop(svc);
    }
    fs::remove_dir_all(&fx.base).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn in_doubt_transactions_resolve_by_coordinator_decision() {
    let fx = KillFixture::build("indoubt");
    let coord_dir = fx.base.join("coordinator");
    let (_, coord_bounds, _) = wal::scan(&coord_dir, fx.fingerprint).unwrap();

    // Map each shard's transactions to the boundary right after their
    // prepare record — the exact in-doubt cut point.
    let mut prepare_cut: Vec<BTreeMap<u64, (PathBuf, u64)>> = Vec::new();
    for s in 0..KILL_SHARDS {
        let shard_dir = fx.base.join(format!("shard-{s:03}"));
        let (records, bounds, _) =
            wal::scan(&shard_dir, shard_fingerprint(fx.fingerprint, s)).unwrap();
        let mut cuts = BTreeMap::new();
        for (i, (_, record)) in records.iter().enumerate() {
            if let Record::TxnPrepare { txn, .. } = record {
                cuts.insert(*txn, bounds[i + 1].clone());
            }
        }
        prepare_cut.push(cuts);
    }

    let scratch = tmp("indoubt-scratch");
    let rounds: Vec<u64> = (0..KILL_ROUNDS).step_by(7).collect();
    for &t in &rounds {
        // Pick a shard that actually prepared round t (a round may
        // accept no event on a given shard).
        let Some(s) = (0..KILL_SHARDS).find(|&s| prepare_cut[s].contains_key(&t)) else {
            continue;
        };
        let (segment, offset) = prepare_cut[s][&t].clone();
        for feedback_survived in [true, false] {
            copy_tree(&fx.base, &scratch);
            // Strand shard s with round t prepared but undecided.
            FaultFile::new(
                scratch
                    .join(format!("shard-{s:03}"))
                    .join(segment.file_name().unwrap()),
            )
            .torn_write(offset)
            .unwrap();
            // Coordinator cut after the Feedback (commit decision
            // durable → must resolve commit) or after only the Propose
            // (decision lost → must resolve abort).
            let coord_cut = if feedback_survived {
                2 * t + 2
            } else {
                2 * t + 1
            };
            let (cseg, coff) = &coord_bounds[coord_cut as usize];
            FaultFile::new(scratch.join("coordinator").join(cseg.file_name().unwrap()))
                .torn_write(*coff)
                .unwrap();
            fx.recover_and_verify(
                &scratch,
                &format!("in-doubt round {t} on shard {s}, feedback_survived={feedback_survived}"),
                Some(s),
            );
        }
    }
    fs::remove_dir_all(&fx.base).unwrap();
    let _ = fs::remove_dir_all(&scratch);
}

// ---- oracle-equivalence gate ----

/// The `Oracle`-trait redesign must be invisible for the default
/// oracle: explicitly installing [`OracleOptions::greedy`] — on the
/// single actor and over {1, 2, 4} shards — must reproduce the
/// default-options single-actor digest bit for bit (capacities,
/// accounting, and policy state including RNG position) for every
/// policy the repo ships.
#[test]
fn greedy_oracle_through_trait_is_bit_equal_across_shards() {
    use fasea::bandit::OracleOptions;
    const ROUNDS: u64 = 40;
    let w = workload();
    for (name, _) in all_policies() {
        let ref_dir = tmp(&format!("oracle-ref-{name}"));
        let reference = {
            let mut svc = DurableArrangementService::open(
                &ref_dir,
                w.instance.clone(),
                policy_named(name),
                opts(),
            )
            .unwrap();
            run_single(&mut svc, &w, ROUNDS);
            let d = digest_single(&svc);
            drop(svc);
            fs::remove_dir_all(&ref_dir).unwrap();
            d
        };

        let dir = tmp(&format!("oracle-single-{name}"));
        let mut svc = DurableArrangementService::open(
            &dir,
            w.instance.clone(),
            policy_named(name),
            opts().with_oracle(OracleOptions::greedy()),
        )
        .unwrap();
        run_single(&mut svc, &w, ROUNDS);
        assert_eq!(
            digest_single(&svc),
            reference,
            "{name}: trait greedy on the single actor diverged"
        );
        drop(svc);
        fs::remove_dir_all(&dir).unwrap();

        for shards in [1usize, 2, 4] {
            let dir = tmp(&format!("oracle-shard-{name}-{shards}"));
            let mut svc = ShardedArrangementService::open(
                &dir,
                w.instance.clone(),
                policy_named(name),
                opts().with_oracle(OracleOptions::greedy()),
                shards,
            )
            .unwrap();
            run_sharded(&mut svc, &w, ROUNDS);
            assert_eq!(
                digest_sharded(&svc),
                reference,
                "{name}: trait greedy over {shards} shards diverged"
            );
            svc.close().unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A non-default oracle must flow through sharding and recovery replay
/// identically too: a tabu run over 2 shards equals the single-actor
/// tabu run, and both differ from greedy (the options are not inert).
#[test]
fn tabu_oracle_shards_identically_to_single_actor() {
    use fasea::bandit::OracleOptions;
    const ROUNDS: u64 = 40;
    let w = workload();
    let tabu_opts = || opts().with_oracle(OracleOptions::tabu());

    let single = {
        let dir = tmp("tabu-single");
        let mut svc = DurableArrangementService::open(
            &dir,
            w.instance.clone(),
            policy_named("ts"),
            tabu_opts(),
        )
        .unwrap();
        run_single(&mut svc, &w, ROUNDS);
        let d = digest_single(&svc);
        drop(svc);
        fs::remove_dir_all(&dir).unwrap();
        d
    };
    let greedy = {
        let dir = tmp("tabu-greedy-ref");
        let mut svc =
            DurableArrangementService::open(&dir, w.instance.clone(), policy_named("ts"), opts())
                .unwrap();
        run_single(&mut svc, &w, ROUNDS);
        let d = digest_single(&svc);
        drop(svc);
        fs::remove_dir_all(&dir).unwrap();
        d
    };
    assert_ne!(
        single.policy_state, greedy.policy_state,
        "tabu must actually change decisions on this workload"
    );

    let dir = tmp("tabu-sharded");
    let mut svc = ShardedArrangementService::open(
        &dir,
        w.instance.clone(),
        policy_named("ts"),
        tabu_opts(),
        2,
    )
    .unwrap();
    run_sharded(&mut svc, &w, ROUNDS);
    assert_eq!(
        digest_sharded(&svc),
        single,
        "sharded tabu diverged from the single-actor tabu run"
    );
    assert_counters_match_mirror(&svc, "tabu/2");
    svc.close().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

// ---- event churn: golden determinism under kills ----

/// The deterministic churn schedule every churned test shares. Period 3
/// over the kill-matrix horizon puts several Lifecycle records in both
/// the coordinator log and every shard log before the kill round: the
/// 2-shard plan isolates event 11 (its own conflict component) on
/// shard 1, and this seed re-plans event 11 at t = 9 and t = 21.
fn kill_churn() -> fasea::core::ChurnSchedule {
    fasea::core::ChurnSchedule::generate(workload().instance.capacities(), KILL_END, 3, 0x5)
}

/// Drives a churned sharded run: round-`t` lifecycle actions are
/// applied (and durably logged) immediately before round `t` is
/// proposed. Recovery images re-apply the actions of the recovered
/// round — set-capacity semantics make that idempotent.
fn run_sharded_churned(
    svc: &mut ShardedArrangementService,
    w: &SyntheticWorkload,
    churn: &fasea::core::ChurnSchedule,
    upto: u64,
) {
    while svc.rounds_completed() < upto {
        let t = svc.rounds_completed();
        let a = if let Some(p) = svc.pending_arrangement() {
            p.clone()
        } else {
            for action in churn.actions_at(t) {
                svc.lifecycle(action.event, action.capacity).unwrap();
            }
            svc.propose(&w.arrivals.arrival(t)).unwrap()
        };
        let accepts = accepts_for(w, t, a.events());
        svc.feedback(&accepts).unwrap();
    }
}

/// Single-actor analogue of [`run_sharded_churned`].
fn run_single_churned(
    svc: &mut DurableArrangementService,
    w: &SyntheticWorkload,
    churn: &fasea::core::ChurnSchedule,
    upto: u64,
) {
    while svc.rounds_completed() < upto {
        let t = svc.rounds_completed();
        let a = if let Some(p) = svc.pending_arrangement() {
            p.clone()
        } else {
            for action in churn.actions_at(t) {
                svc.lifecycle(action.event, action.capacity).unwrap();
            }
            svc.propose(&w.arrivals.arrival(t)).unwrap()
        };
        let accepts = accepts_for(w, t, a.events());
        svc.feedback(&accepts).unwrap();
    }
}

/// Golden churn determinism: a churned sharded run (a) equals the
/// churned single-actor run bit for bit, and (b) killed at **every**
/// record boundary of every shard log and of the coordinator log —
/// which now interleaves `Lifecycle` records with Propose/Feedback —
/// recovers and continues to the identical final state with no acked
/// round lost.
#[test]
fn churned_kill_matrix_recovers_byte_identically() {
    let w = workload();
    let churn = kill_churn();
    assert!(
        churn.actions().iter().any(|a| a.at < KILL_ROUNDS),
        "schedule must churn before the kill round for the matrix to mean anything"
    );

    // Single-actor churned reference.
    let single_final = {
        let dir = tmp("churn-single");
        let mut svc =
            DurableArrangementService::open(&dir, w.instance.clone(), policy_named("ts"), opts())
                .unwrap();
        run_single_churned(&mut svc, &w, &churn, KILL_END);
        let d = digest_single(&svc);
        drop(svc);
        fs::remove_dir_all(&dir).unwrap();
        d
    };

    // Churned sharded crash image at KILL_ROUNDS + its continuation.
    let base = tmp("churn-kill-base");
    let fingerprint = {
        let mut svc = ShardedArrangementService::open(
            &base,
            w.instance.clone(),
            policy_named("ts"),
            opts(),
            KILL_SHARDS,
        )
        .unwrap();
        run_sharded_churned(&mut svc, &w, &churn, KILL_ROUNDS);
        svc.sync().unwrap();
        svc.fingerprint()
    };
    let reference_final = {
        let cont = tmp("churn-kill-cont");
        copy_tree(&base, &cont);
        let mut svc = ShardedArrangementService::open(
            &cont,
            w.instance.clone(),
            policy_named("ts"),
            opts(),
            KILL_SHARDS,
        )
        .unwrap();
        run_sharded_churned(&mut svc, &w, &churn, KILL_END);
        let d = digest_sharded(&svc);
        drop(svc);
        fs::remove_dir_all(&cont).unwrap();
        d
    };
    assert_eq!(
        reference_final, single_final,
        "churned sharded run diverged from the churned single-actor run"
    );

    // Kill at every boundary of every log. Lifecycle records appear in
    // both the shard logs (the owning shard's durable copy) and the
    // coordinator log, so this sweep covers every new record type.
    let scratch = tmp("churn-kill-scratch");
    let mut cut_points: Vec<(PathBuf, PathBuf, u64, String)> = Vec::new();
    for s in 0..KILL_SHARDS {
        let shard_dir = base.join(format!("shard-{s:03}"));
        let (records, boundaries, torn) =
            wal::scan(&shard_dir, shard_fingerprint(fingerprint, s)).unwrap();
        assert!(torn.is_none());
        assert!(
            records
                .iter()
                .any(|(_, r)| matches!(r, Record::Lifecycle { .. })),
            "shard {s} logged no Lifecycle record — the schedule never touched its events?"
        );
        for (k, (segment, offset)) in boundaries.iter().enumerate() {
            cut_points.push((
                shard_dir.clone(),
                segment.clone(),
                *offset,
                format!("shard {s} boundary {k}"),
            ));
        }
    }
    let coord_dir = base.join("coordinator");
    let (coord_records, coord_bounds, _) = wal::scan(&coord_dir, fingerprint).unwrap();
    assert!(
        coord_records
            .iter()
            .any(|(_, r)| matches!(r, Record::Lifecycle { .. })),
        "coordinator logged no Lifecycle record"
    );
    for (k, (segment, offset)) in coord_bounds.iter().enumerate() {
        cut_points.push((
            coord_dir.clone(),
            segment.clone(),
            *offset,
            format!("coordinator boundary {k}"),
        ));
    }

    for (dir, segment, offset, context) in cut_points {
        copy_tree(&base, &scratch);
        let rel = dir.file_name().unwrap();
        FaultFile::new(scratch.join(rel).join(segment.file_name().unwrap()))
            .torn_write(offset)
            .unwrap();
        let mut svc = ShardedArrangementService::open(
            &scratch,
            w.instance.clone(),
            policy_named("ts"),
            opts(),
            KILL_SHARDS,
        )
        .unwrap_or_else(|e| panic!("{context}: churned recovery failed: {e}"));
        assert!(
            svc.rounds_completed() <= KILL_ROUNDS,
            "{context}: recovered beyond the crash image"
        );
        run_sharded_churned(&mut svc, &w, &churn, KILL_END);
        assert_eq!(
            digest_sharded(&svc),
            reference_final,
            "{context}: churned continuation diverged"
        );
        assert_counters_match_mirror(&svc, &format!("{context} (final)"));
        drop(svc);
    }
    fs::remove_dir_all(&base).unwrap();
    let _ = fs::remove_dir_all(&scratch);
}

// ---- sharded serving over the wire ----

fn serve_spec_workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: 10,
        dim: DIM,
        seed: 0x000E_2E5A_A2D0,
        ..SyntheticConfig::default()
    })
}

fn open_sharded(dir: &Path, shards: usize) -> ShardedArrangementService {
    let w = serve_spec_workload();
    ShardedArrangementService::open(
        dir,
        w.instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
        shards,
    )
    .unwrap()
}

fn drive_wire(addr: &str, rounds: u64, fed: &AtomicU64) {
    let w = serve_spec_workload();
    let coins = fasea::stats::CoinStream::new(0xFEED_C0DE);
    let mut client = ServeClient::connect(addr.to_string(), ClientConfig::default()).unwrap();
    loop {
        let claimed = client.claim().unwrap();
        if claimed.t >= rounds {
            client.release().unwrap();
            return;
        }
        let t = claimed.t;
        let arrival = w.arrivals.arrival(t);
        let arrangement = match claimed.pending {
            Some(pending) => pending,
            None => {
                client
                    .propose(
                        arrival.capacity,
                        w.instance.num_events() as u32,
                        w.instance.dim() as u32,
                        arrival.contexts.as_slice().to_vec(),
                    )
                    .unwrap()
                    .1
            }
        };
        let accepts: Vec<bool> = arrangement
            .iter()
            .map(|&v| {
                coins.uniform(t, v as u64)
                    < w.model
                        .accept_probability(&arrival.contexts, EventId(v as usize))
            })
            .collect();
        client.feedback(&accepts).unwrap();
        fed.fetch_add(1, Ordering::Relaxed);
    }
}

fn wire_reference(rounds: u64) -> (u64, u64, u64) {
    let w = serve_spec_workload();
    let coins = fasea::stats::CoinStream::new(0xFEED_C0DE);
    let mut svc = ArrangementService::new(w.instance.clone(), Box::new(LinUcb::new(DIM, 1.0, 2.0)));
    for t in 0..rounds {
        let arrival = w.arrivals.arrival(t);
        let arrangement = svc.propose(&arrival).unwrap();
        let accepts: Vec<bool> = arrangement
            .events()
            .iter()
            .map(|&v| {
                coins.uniform(t, v.index() as u64)
                    < w.model.accept_probability(&arrival.contexts, v)
            })
            .collect();
        svc.feedback(&accepts).unwrap();
    }
    (
        svc.rounds_completed(),
        svc.accounting().total_arranged(),
        svc.accounting().total_rewards(),
    )
}

#[test]
fn sharded_server_crash_resume_loses_no_acked_round() {
    const ROUNDS: u64 = 120;
    const CRASH_AT: u64 = 50;
    let dir = tmp("serve-crash");
    fs::create_dir_all(&dir).unwrap();
    let w = serve_spec_workload();

    // Phase 1: a sharded server takes load over the wire, then the
    // process "dies" mid-round — proposal logged, feedback never sent,
    // no close, no shard Close requests (the actors see the hangup).
    {
        let handle = Server::spawn(
            open_sharded(&dir, 2),
            "127.0.0.1:0",
            ServerConfig {
                stats_interval: None,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.local_addr().to_string();
        let fed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drive_wire(&addr, CRASH_AT, &fed));
            }
        });
        assert_eq!(fed.load(Ordering::Relaxed), CRASH_AT);
        // Leave a proposal in flight so recovery has an in-doubt round.
        let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        let claimed = client.claim().unwrap();
        assert_eq!(claimed.t, CRASH_AT);
        let arrival = w.arrivals.arrival(CRASH_AT);
        client
            .propose(
                arrival.capacity,
                w.instance.num_events() as u32,
                w.instance.dim() as u32,
                arrival.contexts.as_slice().to_vec(),
            )
            .unwrap();
        // Crash: hang up with the proposal unanswered, then tear the
        // server down without a SHUTDOWN verb — every acked round and
        // the proposal itself are already durable, which is the test
        // harness analogue of the WAL's crash guarantee.
        drop(client);
        handle.initiate_shutdown();
        let report = handle.join();
        assert!(report.close.error.is_none());
    }

    // Phase 2: a fresh sharded server recovers the directory; the
    // handshake must advertise the pending round and the continuation
    // must match the uninterrupted in-process reference exactly.
    let handle = Server::spawn(
        open_sharded(&dir, 2),
        "127.0.0.1:0",
        ServerConfig {
            stats_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let info = ServeClient::connect(addr.clone(), ClientConfig::default())
        .unwrap()
        .info()
        .unwrap();
    assert_eq!(info.rounds_completed, CRASH_AT, "an acked round was lost");
    assert!(info.has_pending, "the in-flight proposal must survive");

    let fed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| drive_wire(&addr, ROUNDS, &fed));
        }
    });
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS - CRASH_AT);

    let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        (
            stats.rounds_completed,
            stats.total_arranged,
            stats.total_rewards
        ),
        wire_reference(ROUNDS),
        "sharded crash + network resume must equal the uninterrupted run"
    );
    // The sharded route/commit histograms saw traffic.
    assert!(
        stats
            .histograms
            .iter()
            .any(|h| h.name == "shard_route_us" && h.count > 0),
        "shard_route_us never observed"
    );
    assert!(
        stats
            .histograms
            .iter()
            .any(|h| h.name == "cross_shard_commit_us" && h.count > 0),
        "cross_shard_commit_us never observed"
    );

    handle.initiate_shutdown();
    assert!(handle.join().close.error.is_none());
    let _ = fs::remove_dir_all(&dir);
}
