//! Property test: parallel scoring is **bit-equal** to serial scoring.
//!
//! For every policy, every forced pool width in {1, 2, 3, 8}, and a set of
//! instance shapes chosen to hit the sharding edge cases — `|V|` not a
//! multiple of the chunk size (ragged tail chunk), `|V|` smaller than
//! the thread count, conflict-dense rankings that force the oracle's
//! retry widening, and rounds where every event is full (empty
//! arrangements) — a pooled policy and a twin forced serial (a 1-thread
//! pool) are driven in lockstep through select/observe rounds and must
//! produce:
//!
//! * bit-identical scores (`f64::to_bits`, not approximate), and
//! * identical arrangements,
//!
//! on every round. RNG-consuming policies (TS, eGreedy, Random) are
//! constructed from the same seed on both sides; their draws stay on
//! the caller thread, so the streams must coincide exactly.

use fasea_bandit::{
    EpsilonGreedy, Exploit, LinUcb, Opt, Policy, RandomPolicy, ScorePool, StaticScorePolicy,
    ThompsonSampling, SCORE_CHUNK,
};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, Feedback, LinearPayoffModel};
use fasea_linalg::Vector;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

struct Instance {
    label: &'static str,
    contexts: ContextMatrix,
    conflicts: ConflictGraph,
    remaining: Vec<u32>,
    rounds: u64,
}

fn instances() -> Vec<Instance> {
    let mut out = Vec::new();
    // Small: fewer events than any multi-thread pool has workers.
    out.push(Instance {
        label: "tiny",
        contexts: ContextMatrix::from_fn(3, 4, |v, j| ((v * 5 + j * 3 + 1) % 7) as f64 / 7.0),
        conflicts: ConflictGraph::from_pairs(3, &[(0, 2)]),
        remaining: vec![50; 3],
        rounds: 25,
    });
    // Medium with dense conflicts around the score top: exercises the
    // oracle's retry widening on both paths.
    let n = 90;
    let pairs: Vec<(usize, usize)> = (1..60).map(|v| (0, v)).collect();
    out.push(Instance {
        label: "conflict-dense",
        contexts: ContextMatrix::from_fn(n, 6, |v, j| ((v * 7 + j * 11 + 2) % 13) as f64 / 13.0),
        conflicts: ConflictGraph::from_pairs(n, &pairs),
        remaining: vec![8; n],
        rounds: 25,
    });
    // All events full: arrangements must be empty (and equal) while the
    // score scan still runs over every event.
    out.push(Instance {
        label: "all-full",
        contexts: ContextMatrix::from_fn(40, 5, |v, j| ((v + j) % 9) as f64 / 9.0),
        conflicts: ConflictGraph::new(40),
        remaining: vec![0; 40],
        rounds: 8,
    });
    // Large with a ragged tail chunk: |V| = SCORE_CHUNK + 137 spans two
    // chunks, the second partial and (at 137 ∤ 8 boundary-wise) ending
    // mid-lane-group.
    let n = SCORE_CHUNK + 137;
    out.push(Instance {
        label: "ragged-tail",
        contexts: ContextMatrix::from_fn(n, 6, |v, j| {
            (((v * 31 + j * 17 + 3) % 101) as f64) / 101.0
        }),
        conflicts: ConflictGraph::from_pairs(n, &[(5, 2100), (7, 8), (100, 200)]),
        remaining: (0..n).map(|v| if v % 11 == 0 { 0 } else { 30 }).collect(),
        rounds: 4,
    });
    out
}

/// Drives `serial` and `pooled` in lockstep over the instance and
/// asserts bit-equal scores and equal arrangements every round.
fn assert_lockstep_equal(
    mut serial: Box<dyn Policy>,
    mut pooled: Box<dyn Policy>,
    threads: usize,
    inst: &Instance,
) {
    serial
        .workspace_mut()
        .set_score_pool(Some(Arc::new(ScorePool::new(1))));
    pooled
        .workspace_mut()
        .set_score_pool(Some(Arc::new(ScorePool::new(threads))));
    let mut a_serial = Arrangement::empty();
    let mut a_pooled = Arrangement::empty();
    for t in 0..inst.rounds {
        let view = fasea_bandit::SelectionView {
            t,
            user_capacity: 4,
            contexts: &inst.contexts,
            conflicts: &inst.conflicts,
            remaining: &inst.remaining,
        };
        serial.select_into(&view, &mut a_serial);
        pooled.select_into(&view, &mut a_pooled);
        // A wide UCB round prunes to the events Oracle-Greedy can reach;
        // completing it (through the pool, on the pooled side) yields
        // the full vector both sides must agree on.
        serial.workspace_mut().complete_scores(&inst.contexts);
        pooled.workspace_mut().complete_scores(&inst.contexts);
        let s = serial.last_scores().expect("serial scored");
        let p = pooled.last_scores().expect("pooled scored");
        assert_eq!(s.len(), p.len());
        for (v, (a, b)) in s.iter().zip(p).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}[{} threads] t={t}: score of event {v} diverged ({a} vs {b})",
                inst.label,
                threads,
            );
        }
        assert_eq!(
            a_serial, a_pooled,
            "{}[{} threads] t={t}: arrangements diverged",
            inst.label, threads,
        );
        let fb = Feedback::new(
            a_serial
                .iter()
                .map(|v| (t as usize + v.index()).is_multiple_of(3))
                .collect(),
        );
        serial.observe(t, &inst.contexts, &a_serial, &fb);
        pooled.observe(t, &inst.contexts, &a_pooled, &fb);
    }
}

fn policy_pairs(dim: usize, num_events: usize) -> Vec<(Box<dyn Policy>, Box<dyn Policy>)> {
    let theta = Vector::from((0..dim).map(|j| 0.3 + 0.1 * j as f64).collect::<Vec<_>>());
    let static_scores: Vec<f64> = (0..num_events)
        .map(|v| ((v * 13 + 5) % 17) as f64)
        .collect();
    vec![
        (
            Box::new(LinUcb::new(dim, 1.0, 2.0)) as Box<dyn Policy>,
            Box::new(LinUcb::new(dim, 1.0, 2.0)) as Box<dyn Policy>,
        ),
        (
            Box::new(Exploit::new(dim, 1.0)),
            Box::new(Exploit::new(dim, 1.0)),
        ),
        (
            Box::new(ThompsonSampling::new(dim, 1.0, 0.1, 42)),
            Box::new(ThompsonSampling::new(dim, 1.0, 0.1, 42)),
        ),
        // ε = 0.5: both branches run inside a 25-round window with
        // overwhelming probability.
        (
            Box::new(EpsilonGreedy::new(dim, 1.0, 0.5, 9)),
            Box::new(EpsilonGreedy::new(dim, 1.0, 0.5, 9)),
        ),
        (
            Box::new(Opt::new(LinearPayoffModel::new(theta.clone()))),
            Box::new(Opt::new(LinearPayoffModel::new(theta))),
        ),
        (
            Box::new(StaticScorePolicy::new("Online", static_scores.clone())),
            Box::new(StaticScorePolicy::new("Online", static_scores)),
        ),
        // Random never fans out (pure RNG priorities) but must tolerate
        // an installed pool unchanged.
        (
            Box::new(RandomPolicy::new(7)),
            Box::new(RandomPolicy::new(7)),
        ),
    ]
}

#[test]
fn all_policies_bit_equal_across_thread_counts() {
    for inst in &instances() {
        let dim = inst.contexts.dim();
        let n = inst.contexts.num_events();
        for &threads in &THREAD_COUNTS {
            for (serial, pooled) in policy_pairs(dim, n) {
                assert_lockstep_equal(serial, pooled, threads, inst);
            }
        }
    }
}

#[test]
fn empty_instance_with_pool_installed() {
    let mut p = Exploit::new(3, 1.0);
    p.workspace_mut()
        .set_score_pool(Some(Arc::new(ScorePool::new(4))));
    let contexts = ContextMatrix::zeros(0, 3);
    let conflicts = ConflictGraph::new(0);
    let view = fasea_bandit::SelectionView {
        t: 0,
        user_capacity: 2,
        contexts: &contexts,
        conflicts: &conflicts,
        remaining: &[],
    };
    let a = p.select(&view);
    assert!(a.is_empty());
}
