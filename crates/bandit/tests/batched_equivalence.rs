//! The batched scoring path must agree with the legacy scalar path.
//!
//! Before the workspace redesign, policies scored one event at a time:
//! clone `θ̂`, then per event `xᵀθ̂ + α·√(xᵀY⁻¹x)` through scalar calls.
//! The batched kernels were written to preserve the exact per-row
//! summation order, so the agreement here is checked to 1e-12 — and in
//! practice is bit-exact, which the determinism/recovery machinery
//! relies on.

use fasea_bandit::{Exploit, LinUcb, Policy, RidgeEstimator, SelectionView};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, EventId, Feedback};

/// Deterministic xorshift for reproducible pseudo-random cases without
/// dragging a stats dependency into the test.
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_contexts(rng: &mut XorShift, n: usize, d: usize) -> ContextMatrix {
    let data: Vec<f64> = (0..n * d).map(|_| rng.next_f64() - 0.3).collect();
    ContextMatrix::from_rows(n, d, data)
}

/// The pre-redesign scalar scoring of UCB, reimplemented against the
/// public estimator API: per-event point estimate plus α times the
/// per-event confidence width.
fn legacy_ucb_scores(estimator: &RidgeEstimator, alpha: f64, contexts: &ContextMatrix) -> Vec<f64> {
    let mut est = estimator.clone();
    (0..contexts.num_events())
        .map(|v| {
            let x = contexts.context(EventId(v));
            est.point_estimate(x) + alpha * est.confidence_width(x)
        })
        .collect()
}

fn legacy_exploit_scores(estimator: &RidgeEstimator, contexts: &ContextMatrix) -> Vec<f64> {
    let mut est = estimator.clone();
    (0..contexts.num_events())
        .map(|v| est.point_estimate(contexts.context(EventId(v))))
        .collect()
}

#[test]
fn batched_ucb_matches_legacy_scalar_path_across_random_cases() {
    let mut rng = XorShift(0x5EED_CAFE);
    for case in 0..40u64 {
        let n = 5 + (case as usize % 4) * 17; // 5..56 events
        let d = 2 + (case as usize % 5); // 2..6 dims
        let mut ucb = LinUcb::new(d, 1.0, 2.0);
        let conflicts = ConflictGraph::new(n);
        let remaining = vec![100u32; n];

        // Random learning history so Y⁻¹ and θ̂ are non-trivial.
        let mut out = Arrangement::empty();
        for t in 0..12 {
            let ctx = random_contexts(&mut rng, n, d);
            let view = SelectionView {
                t,
                user_capacity: 3,
                contexts: &ctx,
                conflicts: &conflicts,
                remaining: &remaining,
            };
            ucb.select_into(&view, &mut out);
            let fb = Feedback::new(
                (0..out.len())
                    .map(|i| (t as usize + i).is_multiple_of(2))
                    .collect(),
            );
            ucb.observe(t, &ctx, &out, &fb);
        }

        let ctx = random_contexts(&mut rng, n, d);
        let view = SelectionView {
            t: 12,
            user_capacity: 3,
            contexts: &ctx,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        let legacy = legacy_ucb_scores(ucb.estimator(), ucb.alpha(), &ctx);
        let _ = ucb.select(&view);
        let batched = ucb.last_scores().expect("scores after select");
        assert_eq!(batched.len(), legacy.len());
        for (v, (b, l)) in batched.iter().zip(&legacy).enumerate() {
            assert!(
                (b - l).abs() <= 1e-12,
                "case {case}, event {v}: batched {b} vs legacy {l}"
            );
        }
    }
}

#[test]
fn batched_exploit_matches_legacy_scalar_path() {
    let mut rng = XorShift(0xD15EA5E);
    for case in 0..20u64 {
        let n = 10 + (case as usize % 3) * 25;
        let d = 3 + (case as usize % 4);
        let mut p = Exploit::new(d, 0.5);
        let conflicts = ConflictGraph::new(n);
        let remaining = vec![50u32; n];

        let mut out = Arrangement::empty();
        for t in 0..10 {
            let ctx = random_contexts(&mut rng, n, d);
            let view = SelectionView {
                t,
                user_capacity: 2,
                contexts: &ctx,
                conflicts: &conflicts,
                remaining: &remaining,
            };
            p.select_into(&view, &mut out);
            let fb = Feedback::new((0..out.len()).map(|i| i % 2 == 0).collect());
            p.observe(t, &ctx, &out, &fb);
        }

        let ctx = random_contexts(&mut rng, n, d);
        let view = SelectionView {
            t: 10,
            user_capacity: 2,
            contexts: &ctx,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        let legacy = legacy_exploit_scores(p.estimator(), &ctx);
        let _ = p.select(&view);
        let batched = p.last_scores().expect("scores after select");
        for (v, (b, l)) in batched.iter().zip(&legacy).enumerate() {
            assert!(
                (b - l).abs() <= 1e-12,
                "case {case}, event {v}: batched {b} vs legacy {l}"
            );
        }
    }
}

#[test]
fn batched_ucb_width_pass_is_bit_exact_with_scalar_widths() {
    // Stronger than the 1e-12 contract: the batched width kernel keeps
    // the per-row summation order, so it is bit-identical to the scalar
    // `confidence_width` calls.
    let mut rng = XorShift(0xBEEF);
    let (n, d) = (33, 5);
    let mut est = RidgeEstimator::new(d, 1.0);
    for _ in 0..50 {
        let x: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
        est.observe(&x, rng.next_f64().round()).unwrap();
    }
    let ctx = random_contexts(&mut rng, n, d);
    let mut batched = vec![0.0; n];
    est.widths_into(ctx.as_slice(), &mut batched);
    for (v, b) in batched.iter().enumerate() {
        let scalar = est.confidence_width(ctx.context(EventId(v)));
        assert_eq!(
            b.to_bits(),
            scalar.to_bits(),
            "event {v}: batched width differs in bits"
        );
    }
}

/// Full UCB scores the way every round computed them before pruning:
/// the fused dot/width kernel over the whole context block.
fn full_ucb_scores(estimator: &RidgeEstimator, alpha: f64, contexts: &ContextMatrix) -> Vec<f64> {
    let mut est = estimator.clone();
    let (theta, sm) = est.theta_and_inverse();
    let n = contexts.num_events();
    let (mut s, mut w) = (vec![0.0; n], vec![0.0; n]);
    sm.widths_and_dots_into(
        contexts.as_slice(),
        contexts.dim(),
        theta.as_slice(),
        &mut w,
        &mut s,
    );
    for (si, wi) in s.iter_mut().zip(&w) {
        *si += alpha * wi;
    }
    s
}

/// A wide round's contexts with the shapes pruning must survive: rows
/// of every norm, all-zero rows and rows with a zero entry (both take
/// the kernel's scalar path), and large duplicated rows whose exact
/// scores tie near the top of the ranking.
fn hostile_contexts(rng: &mut XorShift, n: usize, d: usize) -> ContextMatrix {
    let mut data = Vec::with_capacity(n * d);
    for v in 0..n {
        let scale = 0.2 + 2.8 * rng.next_f64();
        for j in 0..d {
            let x = (rng.next_f64() - 0.3) * scale;
            data.push(if v % 97 == 0 || (v % 13 == 0 && j == v % d) {
                0.0
            } else {
                x
            });
        }
    }
    let big: Vec<f64> = (0..d).map(|j| 4.0 - 0.3 * j as f64).collect();
    for v in [40, 41, 640, 641, 642] {
        data[v * d..(v + 1) * d].copy_from_slice(&big);
    }
    ContextMatrix::from_rows(n, d, data)
}

/// One round's feasibility setting; the cycle covers arranging within
/// the initial prefix, the ×4 widening, and the `k = n` fallback.
fn scenario(
    round: u64,
    n: usize,
    sparse: &ConflictGraph,
    dense: &ConflictGraph,
) -> (ConflictGraph, Vec<u32>, u32) {
    match round % 4 {
        // Plentiful capacity: greedy fills from the initial prefix.
        0 => (sparse.clone(), vec![1_000; n], 4),
        // 99% sold out: the prefix runs dry, widens ×4 and falls back
        // to ranking all `n`.
        1 => (
            sparse.clone(),
            (0..n).map(|v| u32::from(v % 100 == 7) * 1_000).collect(),
            16,
        ),
        // Dense conflicts (seven cliques): `c_u = 8` can never fill, so
        // greedy ranks everything; `c_u = 5` usually fills in the prefix.
        2 => (
            dense.clone(),
            vec![1_000; n],
            if round % 8 == 2 { 8 } else { 5 },
        ),
        // Half the events sold out: fills in the prefix or after one
        // widening.
        _ => (
            sparse.clone(),
            (0..n).map(|v| u32::from(v % 2 == 0) * 1_000).collect(),
            8,
        ),
    }
}

#[test]
fn pruned_ucb_rounds_equal_full_scoring() {
    use fasea_bandit::{GreedyOracle, Oracle, OracleWorkspace};

    let (n, d) = (1200usize, 5usize);
    let mut rng = XorShift(0x9E37_79B9);
    let pairs: Vec<(usize, usize)> = (0..n / 10).map(|i| (i, i + n / 2)).collect();
    let sparse = ConflictGraph::from_pairs(n, &pairs);
    let dense_pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|v| ((v + 7)..n).step_by(7).map(move |w| (v, w)))
        .collect();
    let dense = ConflictGraph::from_pairs(n, &dense_pairs);

    let mut policies: Vec<LinUcb> = [0.0, 0.5, 2.0]
        .iter()
        .map(|&alpha| LinUcb::new(d, 1.0, alpha))
        .collect();
    let mut out = Arrangement::empty();
    let mut reference = Arrangement::empty();
    let mut oracle_ws = OracleWorkspace::new();
    let mut stayed_pruned = 0u64;
    // Past the estimator's 4096-update Y⁻¹ refresh for every α.
    let mut t = 0u64;
    while policies
        .iter()
        .any(|p| p.estimator().observations() <= 4_400)
    {
        let ctx = hostile_contexts(&mut rng, n, d);
        let (conflicts, remaining, cu) = scenario(t, n, &sparse, &dense);
        let view = SelectionView {
            t,
            user_capacity: cu,
            contexts: &ctx,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        let coins: Vec<bool> = (0..16).map(|_| rng.next_f64() < 0.3).collect();
        for ucb in &mut policies {
            let alpha = ucb.alpha();
            let full = full_ucb_scores(ucb.estimator(), alpha, &ctx);
            GreedyOracle.arrange_into(
                &full,
                &conflicts,
                &remaining,
                cu,
                &mut oracle_ws,
                &mut reference,
            );
            ucb.select_into(&view, &mut out);
            assert_eq!(
                out, reference,
                "α={alpha} t={t}: arrangement differs from full scoring"
            );

            let ws = ucb.workspace();
            // A pruned round stays incomplete — and hides its partial
            // vector — unless arranging it needed the full one.
            if ucb.last_scores().is_none() {
                stayed_pruned += 1;
                let mut exact = Vec::new();
                let mut best_pruned = f64::NEG_INFINITY;
                for (v, (p, f)) in ws.scores().iter().zip(&full).enumerate() {
                    if *p == f64::NEG_INFINITY {
                        best_pruned = best_pruned.max(*f);
                    } else {
                        exact.push(*p);
                        assert_eq!(
                            p.to_bits(),
                            f.to_bits(),
                            "α={alpha} t={t}: exact score {v} differs in bits"
                        );
                    }
                }
                // Every pruned event ranks strictly below the k-th best
                // exact score, k being greedy's initial prefix.
                let k = (4 * cu as usize).max(32);
                assert!(
                    exact.len() >= k && exact.len() < n,
                    "α={alpha} t={t}: {} exact entries",
                    exact.len()
                );
                exact.sort_by(|a, b| b.total_cmp(a));
                assert!(
                    best_pruned < exact[k - 1],
                    "α={alpha} t={t}: a pruned event reaches the prefix"
                );
            }
            ucb.workspace_mut().complete_scores(&ctx);
            let completed = ucb.last_scores().expect("complete after completion");
            for (v, (c, f)) in completed.iter().zip(&full).enumerate() {
                assert_eq!(
                    c.to_bits(),
                    f.to_bits(),
                    "α={alpha} t={t}: completed score {v} differs in bits"
                );
            }
            let fb = Feedback::new(coins[..out.len()].to_vec());
            ucb.observe(t, &ctx, &out, &fb);
        }
        t += 1;
    }

    for ucb in &policies {
        let stats = ucb.workspace().score_stats();
        assert!(
            stats.pruned_rounds > t / 4,
            "α={}: only {} of {t} rounds pruned",
            ucb.alpha(),
            stats.pruned_rounds
        );
        assert!(
            stats.completions > 0,
            "α={}: no round widened past its exact set",
            ucb.alpha()
        );
        // Completion here is forced every round; the scoring pass
        // alone must have skipped most events.
        let first_pass = stats.exact as f64 / stats.events as f64;
        assert!(
            first_pass < 0.5,
            "α={}: first-pass exact share {first_pass}",
            ucb.alpha()
        );
        assert_eq!(stats.exact + stats.completed, stats.events);
    }
    assert!(
        stayed_pruned > 0,
        "no round arranged from its exact set alone"
    );
}

#[test]
fn pruned_ucb_completes_for_a_non_greedy_oracle() {
    use fasea_bandit::{Oracle, OracleWorkspace, TabuOracle};
    use std::sync::Arc;

    let (n, d) = (1500usize, 6usize);
    let mut rng = XorShift(0xA11CE);
    let conflicts = ConflictGraph::from_pairs(n, &[(0, 1), (5, 900)]);
    let remaining = vec![100u32; n];
    let tabu = TabuOracle::default();
    let mut ucb = LinUcb::new(d, 1.0, 2.0);
    ucb.workspace_mut().set_oracle(Some(Arc::new(tabu)));
    let mut out = Arrangement::empty();
    let mut reference = Arrangement::empty();
    let mut oracle_ws = OracleWorkspace::new();
    for t in 0..60 {
        let ctx = hostile_contexts(&mut rng, n, d);
        let view = SelectionView {
            t,
            user_capacity: 5,
            contexts: &ctx,
            conflicts: &conflicts,
            remaining: &remaining,
        };
        let full = full_ucb_scores(ucb.estimator(), 2.0, &ctx);
        tabu.arrange_into(
            &full,
            &conflicts,
            &remaining,
            5,
            &mut oracle_ws,
            &mut reference,
        );
        ucb.select_into(&view, &mut out);
        assert_eq!(out, reference, "t={t}: tabu arrangement differs");
        assert!(
            ucb.last_scores().is_some(),
            "tabu read a partial score vector"
        );
        let fb = Feedback::new(
            (0..out.len())
                .map(|i| (t as usize + i).is_multiple_of(3))
                .collect(),
        );
        ucb.observe(t, &ctx, &out, &fb);
    }
    let stats = ucb.workspace().score_stats();
    assert_eq!(stats.pruned_rounds, stats.completions);
}
