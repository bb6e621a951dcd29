//! Oracle-Greedy (Algorithm 2) and an exhaustive reference oracle.

use fasea_core::{Arrangement, ConflictGraph, EventId};

/// Algorithm 2 of the paper: visit events in non-increasing order of
/// estimated reward `r̂_{t,v}`; stop once `|A_t| = c_u`; add each visited
/// event iff it is non-full and conflicts with nothing already arranged.
///
/// Two paper-faithful subtleties:
///
/// * **Negative scores are arranged too.** The paper argues (Section 3)
///   that events with `r̂ ≤ 0` are only reached when nothing better fits,
///   their true reward may still be positive, and including them can
///   only gain — so there is no positivity filter here.
/// * **Ties break towards the lower event id**, making the oracle fully
///   deterministic given the scores (the paper's C++ `sort` is also
///   stable in effect because scores there are continuous).
///
/// Complexity: `O(|V| log |V|)` sort + `O(c_u |V| / 64)` masked conflict
/// checks, matching the paper's `|V|(log|V| + c_u)` analysis.
///
/// See [`crate::GreedyOracle`] for an example through the trait (the
/// paper's Example 3). This allocating form is crate-internal; the
/// public entry point is the [`crate::Oracle`] trait.
///
/// # Panics
/// Panics if `scores.len()`, the conflict graph and `remaining` disagree
/// on `|V|`.
#[cfg(test)]
pub(crate) fn greedy(
    scores: &[f64],
    conflicts: &ConflictGraph,
    remaining: &[u32],
    user_capacity: u32,
) -> Arrangement {
    let mut order = Vec::new();
    let mut mask = Vec::new();
    let mut arrangement = Arrangement::empty();
    greedy_into(
        scores,
        conflicts,
        remaining,
        user_capacity,
        &mut order,
        &mut mask,
        &mut arrangement,
    );
    arrangement
}

/// The allocation-free Oracle-Greedy core — Algorithm 2 into
/// caller-owned buffers; what the batched selection path uses through
/// [`crate::GreedyOracle::arrange_into`].
///
/// `order` and `mask` are scratch (their contents on entry are ignored;
/// [`crate::ScoreWorkspace`] owns them on the policy path) and `out` is
/// cleared then filled with the arrangement. Once the three buffers have
/// reached the instance size, repeat calls allocate nothing. The
/// arrangement produced is identical to [`greedy`]'s.
///
/// # Panics
/// Panics if `scores.len()`, the conflict graph and `remaining` disagree
/// on `|V|`.
pub(crate) fn greedy_into(
    scores: &[f64],
    conflicts: &ConflictGraph,
    remaining: &[u32],
    user_capacity: u32,
    order: &mut Vec<u32>,
    mask: &mut Vec<u64>,
    out: &mut Arrangement,
) {
    let n = scores.len();
    assert_eq!(n, conflicts.num_events(), "oracle_greedy: |V| mismatch");
    assert_eq!(n, remaining.len(), "oracle_greedy: capacity slice mismatch");
    out.clear();
    if user_capacity == 0 || n == 0 {
        return;
    }
    // Rank events by score, descending; ties by index ascending. The
    // index tiebreak makes this a total order with every pair
    // distinct, so the greedy scan only ever needs a *prefix* of the
    // full ranking: a single bounded-insertion pass keeps the top `k`
    // candidates sorted (one comparison per event, an O(k) shift only
    // when an event beats the current k-th best), and ranking more is
    // needed only when conflicts/capacity exhaust the prefix before
    // the arrangement fills. At |V| = 10k this replaces an O(n log n)
    // full sort — formerly the dominant per-round cost — with an O(n)
    // scan, and it is what makes the batched round's latency budget.
    // Everything stays in-place on the reused buffers, so the path
    // remains allocation-free once `order` has reached its steady
    // capacity.
    //
    // (With NaN scores no consistent order exists: `ranks_before`
    // falls back to the index for incomparable pairs — the same
    // pairwise fallback the sort comparator uses — but, as with the
    // old full sort, the overall ranking under NaN is unspecified.
    // Arrangements from NaN scores are not meaningful either way.)
    let mut k = initial_prefix(n, user_capacity);
    loop {
        if k < n && k <= FULL_SORT_CUTOFF {
            // Bounded-insertion top-k: `order` holds the best `k` seen
            // so far, sorted best-first.
            order.clear();
            for v in 0..n as u32 {
                if order.len() == k {
                    if !ranks_before(scores, v, order[k - 1]) {
                        continue;
                    }
                    order.pop();
                }
                let pos = order.partition_point(|&o| ranks_before(scores, o, v));
                order.insert(pos, v);
            }
        } else {
            k = n;
            full_sort(scores, n, order);
        }

        greedy_scan(order, conflicts, remaining, user_capacity, mask, out);
        if out.len() >= user_capacity as usize || k == n {
            return;
        }
        // The prefix ran dry before the arrangement filled: rank a
        // larger prefix and redo the (cheap) greedy scan from scratch.
        k = k.saturating_mul(4).min(n);
    }
}

/// Oracle-Greedy's first pass over a pruned round's exact set: the
/// initial prefix ([`initial_prefix`]) ranked from `candidates` alone,
/// then the greedy scan. Returns `true` with the arrangement
/// [`greedy_into`] gives, or `false` when that prefix runs dry short of
/// `c_u` (`out` then holds its partial arrangement, and the caller
/// completes the scores and runs [`greedy_into`]).
///
/// The caller guarantees that `candidates` (any order, no duplicates)
/// holds at least `k` events and that every other event ranks below
/// the k-th best of them — as a pruned round's `-∞` entries rank below
/// its k-th best exact score, which is above `-∞`. The index tiebreak
/// makes the ranking a strict total order, so the top `k` of the list
/// is then the top `k` of the whole vector, in the same order, and
/// ranking `|candidates|` events instead of `|V|` changes nothing but
/// the cost.
///
/// # Panics
/// Panics if `scores.len()`, the conflict graph and `remaining` disagree
/// on `|V|`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_prefix_into(
    scores: &[f64],
    candidates: &[u32],
    conflicts: &ConflictGraph,
    remaining: &[u32],
    user_capacity: u32,
    order: &mut Vec<u32>,
    mask: &mut Vec<u64>,
    out: &mut Arrangement,
) -> bool {
    let n = scores.len();
    assert_eq!(n, conflicts.num_events(), "oracle_greedy: |V| mismatch");
    assert_eq!(n, remaining.len(), "oracle_greedy: capacity slice mismatch");
    let k = initial_prefix(n, user_capacity);
    debug_assert!(
        candidates.len() >= k,
        "greedy_prefix_into: too few candidates"
    );
    subset_top_k(scores, candidates, k, order);
    greedy_scan(order, conflicts, remaining, user_capacity, mask, out);
    out.len() >= user_capacity as usize
}

/// The ranked prefix Oracle-Greedy starts from: `max(32, 4·c_u)`
/// events (all of them for small `|V|`), enough slack that one pass
/// suffices unless conflicts are dense around the top of the ranking.
pub(crate) fn initial_prefix(n: usize, user_capacity: u32) -> usize {
    (user_capacity as usize).saturating_mul(4).max(32).min(n)
}

/// Past this prefix size the O(k) insertion shifts stop paying for
/// themselves and one full sort is cheaper.
pub(crate) const FULL_SORT_CUTOFF: usize = 2048;

/// The oracle's total visiting order: score descending, index ascending
/// on ties (or on NaN-incomparable pairs — see the comment in
/// [`greedy_into`]).
#[inline]
fn ranks_before(scores: &[f64], a: u32, b: u32) -> bool {
    match scores[a as usize].partial_cmp(&scores[b as usize]) {
        Some(std::cmp::Ordering::Greater) => true,
        Some(std::cmp::Ordering::Less) => false,
        _ => a < b,
    }
}

/// Ranks all `n` events into `order` under the same total order as
/// [`ranks_before`] (for finite scores).
fn full_sort(scores: &[f64], n: usize, order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..n as u32);
    order.sort_unstable_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

/// The Algorithm 2 greedy pass over a ranked candidate prefix: visit in
/// order, skip full or conflicting events, stop at `c_u`. Shared by the
/// serial and gathered oracles so their scans are the same code.
fn greedy_scan(
    order: &[u32],
    conflicts: &ConflictGraph,
    remaining: &[u32],
    user_capacity: u32,
    mask: &mut Vec<u64>,
    out: &mut Arrangement,
) {
    out.clear();
    mask.clear();
    mask.resize(conflicts.mask_words(), 0);
    for &vi in order.iter() {
        if out.len() >= user_capacity as usize {
            break;
        }
        let v = EventId(vi as usize);
        if remaining[vi as usize] == 0 {
            continue;
        }
        if conflicts.conflicts_with_mask(v, mask) {
            continue;
        }
        conflicts.mark_mask(v, mask);
        out.push(v);
    }
}

/// Bounded-insertion top-`k` over an arbitrary *subset* of events: the
/// at most `min(k, members.len())` best-ranked members under the
/// oracle's total order (score descending, index ascending on ties),
/// appended to `out` best-first. This is the per-shard half of the
/// gathered ranking ([`crate::GreedyOracle`]'s `arrange_gathered`): a
/// shard actor runs it over the event ids it owns and ships the result
/// to the coordinator.
///
/// The same bounded-insertion scan as the serial oracle —
/// one comparison per member, an O(k) shift only when a member beats
/// the current k-th best — so a shard's pass is O(|members|) for the
/// k values the oracle asks for. (This per-shard primitive is a public
/// free function by design: it is the half of the gathered ranking that
/// runs *on* the shard actors, below the [`crate::Oracle`] seam.)
///
/// # Panics
/// Debug-panics if a member id is out of range for `scores`.
pub fn subset_top_k(scores: &[f64], members: &[u32], k: usize, out: &mut Vec<u32>) {
    out.clear();
    if k == 0 {
        return;
    }
    for &v in members {
        debug_assert!((v as usize) < scores.len(), "subset_top_k: id out of range");
        if out.len() == k {
            if !ranks_before(scores, v, out[k - 1]) {
                continue;
            }
            out.pop();
        }
        let pos = out.partition_point(|&o| ranks_before(scores, o, v));
        out.insert(pos, v);
    }
}

/// [`greedy_into`] with the candidate ranking gathered from
/// *external* per-shard top-k passes — **identical arrangements** to
/// the serial oracle for finite scores.
///
/// `gather` is called with the prefix size `k` and must append every
/// shard's [`subset_top_k`] candidates for that `k` to the supplied
/// buffer (order across shards is irrelevant — the merge re-sorts).
/// The merge sorts the union under the oracle's total order
/// ([`ranks_before`]: score descending, index ascending), truncates to
/// `k`, and greedy-scans. Why that equals the serial ranking: the index
/// tiebreak makes the ranking a strict total order, so the global
/// top-`k` is a unique set; every global top-`k` member is in its own
/// shard's top-`k` (it beats everything it beats globally), so the
/// union contains the global top-`k` and sort + truncate recovers
/// exactly the serial visiting prefix.
///
/// Retry-on-conflict widening (×4) re-invokes `gather` with the larger
/// `k`; past [`FULL_SORT_CUTOFF`] (or at `k = n`) the coordinator falls
/// back to its local full sort and the shards are not consulted — the
/// same fallback the serial path takes.
///
/// # Panics
/// Panics if `scores.len()`, the conflict graph and `remaining`
/// disagree on `|V|`, or if `gather` appends an out-of-range id.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_dist_into(
    scores: &[f64],
    conflicts: &ConflictGraph,
    remaining: &[u32],
    user_capacity: u32,
    order: &mut Vec<u32>,
    mask: &mut Vec<u64>,
    out: &mut Arrangement,
    gather: &mut dyn FnMut(usize, &mut Vec<u32>),
) {
    let n = scores.len();
    assert_eq!(n, conflicts.num_events(), "oracle_greedy: |V| mismatch");
    assert_eq!(n, remaining.len(), "oracle_greedy: capacity slice mismatch");
    out.clear();
    if user_capacity == 0 || n == 0 {
        return;
    }
    let mut k = initial_prefix(n, user_capacity);
    loop {
        if k < n && k <= FULL_SORT_CUTOFF {
            order.clear();
            gather(k, order);
            assert!(
                order.iter().all(|&v| (v as usize) < n),
                "oracle_greedy_dist: gathered id out of range"
            );
            order.sort_unstable_by(|&a, &b| {
                scores[b as usize]
                    .partial_cmp(&scores[a as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order.truncate(k);
        } else {
            k = n;
            full_sort(scores, n, order);
        }

        greedy_scan(order, conflicts, remaining, user_capacity, mask, out);
        if out.len() >= user_capacity as usize || k == n {
            return;
        }
        k = k.saturating_mul(4).min(n);
    }
}

/// Bounded-insertion top-`k` over the **non-full** events under the
/// oracle's total order ([`ranks_before`]) — the candidate
/// neighbourhood [`crate::TabuOracle`] explores. `out` holds at most
/// `k` ids, best-first.
pub(crate) fn ranked_prefix(scores: &[f64], remaining: &[u32], k: usize, out: &mut Vec<u32>) {
    debug_assert_eq!(scores.len(), remaining.len(), "ranked_prefix: |V| mismatch");
    out.clear();
    if k == 0 {
        return;
    }
    for v in 0..scores.len() as u32 {
        if remaining[v as usize] == 0 {
            continue;
        }
        if out.len() == k {
            if !ranks_before(scores, v, out[k - 1]) {
                continue;
            }
            out.pop();
        }
        let pos = out.partition_point(|&o| ranks_before(scores, o, v));
        out.insert(pos, v);
    }
}

/// Sum of the **positive** scores of an arrangement — the quantity
/// Theorem 1's `1/c_u` approximation guarantee speaks about
/// (`Σ_{v∈A_t | r̂>0} r̂_{t,v}`).
pub fn positive_score_sum(arrangement: &Arrangement, scores: &[f64]) -> f64 {
    arrangement
        .iter()
        .map(|v| scores[v.index()])
        .filter(|&s| s > 0.0)
        .sum()
}

/// Exhaustive oracle: the feasible arrangement maximising the sum of
/// positive scores, found by branch-and-bound over subsets. Exponential —
/// strictly a test/verification tool for `|V| ≤ ~20`; the experiment
/// harness never calls it.
///
/// # Panics
/// Panics on slice-length mismatch or `|V| > 25` (guard against
/// accidental exponential blow-up).
pub fn oracle_exhaustive(
    scores: &[f64],
    conflicts: &ConflictGraph,
    remaining: &[u32],
    user_capacity: u32,
) -> Arrangement {
    let n = scores.len();
    assert_eq!(n, conflicts.num_events(), "oracle_exhaustive: |V| mismatch");
    assert_eq!(n, remaining.len(), "oracle_exhaustive: capacity mismatch");
    assert!(n <= 25, "oracle_exhaustive is a test-only tool (|V| ≤ 25)");

    // Only events with positive score and free capacity can improve the
    // objective.
    let candidates: Vec<usize> = (0..n)
        .filter(|&v| scores[v] > 0.0 && remaining[v] > 0)
        .collect();

    let mut best_set: Vec<usize> = Vec::new();
    let mut best_score = 0.0f64;
    let mut current: Vec<usize> = Vec::new();

    // A plain recursive closure would need unstable recursion; the
    // argument list mirrors the search state and stays local to this
    // test-oriented solver.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        idx: usize,
        current_score: f64,
        candidates: &[usize],
        scores: &[f64],
        conflicts: &ConflictGraph,
        cap: usize,
        current: &mut Vec<usize>,
        best_set: &mut Vec<usize>,
        best_score: &mut f64,
    ) {
        if current_score > *best_score {
            *best_score = current_score;
            best_set.clone_from(current);
        }
        if idx == candidates.len() || current.len() == cap {
            return;
        }
        // Bound: even taking every remaining candidate cannot help?
        let rest: f64 = candidates[idx..].iter().map(|&v| scores[v]).sum();
        if current_score + rest <= *best_score {
            return;
        }
        let v = candidates[idx];
        // Branch 1: include v if feasible.
        if !current
            .iter()
            .any(|&w| conflicts.are_conflicting(EventId(v), EventId(w)))
        {
            current.push(v);
            recurse(
                idx + 1,
                current_score + scores[v],
                candidates,
                scores,
                conflicts,
                cap,
                current,
                best_set,
                best_score,
            );
            current.pop();
        }
        // Branch 2: skip v.
        recurse(
            idx + 1,
            current_score,
            candidates,
            scores,
            conflicts,
            cap,
            current,
            best_set,
            best_score,
        );
    }

    recurse(
        0,
        0.0,
        &candidates,
        scores,
        conflicts,
        user_capacity as usize,
        &mut current,
        &mut best_set,
        &mut best_score,
    );
    best_set.sort_unstable();
    Arrangement::new(best_set.into_iter().map(EventId).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(a: &Arrangement) -> Vec<usize> {
        let mut v: Vec<usize> = a.iter().map(|e| e.index()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn greedy_picks_top_scores_without_conflicts() {
        let g = ConflictGraph::new(4);
        let a = greedy(&[0.1, 0.9, 0.5, 0.7], &g, &[1; 4], 2);
        assert_eq!(a.events(), &[EventId(1), EventId(3)]);
    }

    #[test]
    fn greedy_respects_conflicts() {
        // Paper's running example: v1 conflicts v2 (0-based: 0 and 1).
        let g = ConflictGraph::from_pairs(4, &[(0, 1)]);
        // Example 3 (UCB round 1): scores 1.10, 0.49, 0.82, 2.00, c_u = 2
        // => v4 then v1 are arranged.
        let a = greedy(&[1.10, 0.49, 0.82, 2.00], &g, &[1; 4], 2);
        assert_eq!(a.events(), &[EventId(3), EventId(0)]);
    }

    #[test]
    fn greedy_paper_example_ts_round1() {
        // Example 2 (TS round 1): estimated rewards −3.94, −0.30, 1.74,
        // −13.07, conflicts {v1,v2}, c_u = 2 => v3 then v2.
        let g = ConflictGraph::from_pairs(4, &[(0, 1)]);
        let a = greedy(&[-3.94, -0.30, 1.74, -13.07], &g, &[1; 4], 2);
        assert_eq!(a.events(), &[EventId(2), EventId(1)]);
    }

    #[test]
    fn greedy_includes_negative_scores_when_room_remains() {
        let g = ConflictGraph::new(3);
        let a = greedy(&[-0.5, -0.1, -0.9], &g, &[1; 3], 2);
        // Visits in order v2(−0.1), v1(−0.5): both arranged.
        assert_eq!(a.events(), &[EventId(1), EventId(0)]);
    }

    #[test]
    fn greedy_skips_full_events() {
        let g = ConflictGraph::new(3);
        let a = greedy(&[0.9, 0.5, 0.1], &g, &[0, 1, 1], 2);
        assert_eq!(a.events(), &[EventId(1), EventId(2)]);
    }

    #[test]
    fn greedy_stops_at_user_capacity() {
        let g = ConflictGraph::new(5);
        let a = greedy(&[0.5; 5], &g, &[1; 5], 3);
        assert_eq!(a.len(), 3);
        // Tie-break towards lower ids.
        assert_eq!(a.events(), &[EventId(0), EventId(1), EventId(2)]);
    }

    #[test]
    fn greedy_zero_capacity_user() {
        let g = ConflictGraph::new(3);
        assert!(greedy(&[1.0, 1.0, 1.0], &g, &[1; 3], 0).is_empty());
    }

    #[test]
    fn greedy_complete_conflicts_arranges_single_event() {
        let g = ConflictGraph::complete(6);
        let a = greedy(&[0.1, 0.2, 0.9, 0.3, 0.4, 0.5], &g, &[1; 6], 4);
        assert_eq!(a.events(), &[EventId(2)]);
    }

    #[test]
    fn greedy_is_deterministic() {
        let g = ConflictGraph::from_pairs(6, &[(0, 1), (2, 3)]);
        let scores = [0.3, 0.3, 0.3, 0.3, 0.3, 0.3];
        let a1 = greedy(&scores, &g, &[1; 6], 3);
        let a2 = greedy(&scores, &g, &[1; 6], 3);
        assert_eq!(a1, a2);
    }

    #[test]
    fn exhaustive_beats_or_matches_greedy() {
        let g = ConflictGraph::from_pairs(5, &[(0, 1), (1, 2), (3, 4)]);
        let scores = [0.5, 0.9, 0.5, 0.2, 0.3];
        let greedy = greedy(&scores, &g, &[1; 5], 2);
        let best = oracle_exhaustive(&scores, &g, &[1; 5], 2);
        assert!(positive_score_sum(&best, &scores) >= positive_score_sum(&greedy, &scores) - 1e-12);
        // Greedy takes v2 (0.9, blocking v1 and v3) then v5 (0.3) = 1.2;
        // the optimum {v2, v5} = 1.2 coincides here — check the exact set.
        assert_eq!(ids(&best), vec![1, 4]);
        assert!((positive_score_sum(&best, &scores) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn theorem1_bound_on_adversarial_instance() {
        // Star conflict: centre scores slightly higher, blocking c_u leaves.
        let g = ConflictGraph::from_pairs(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let scores = [0.51, 0.5, 0.5, 0.5, 0.5];
        let cu = 4u32;
        let greedy = greedy(&scores, &g, &[1; 5], cu);
        let best = oracle_exhaustive(&scores, &g, &[1; 5], cu);
        let gs = positive_score_sum(&greedy, &scores);
        let bs = positive_score_sum(&best, &scores);
        assert_eq!(ids(&greedy), vec![0]); // trapped at the centre
        assert_eq!(ids(&best), vec![1, 2, 3, 4]);
        assert!(
            gs >= bs / cu as f64 - 1e-12,
            "Theorem 1 violated: {gs} < {bs}/{cu}"
        );
    }

    #[test]
    fn exhaustive_respects_capacity_and_conflicts() {
        let g = ConflictGraph::from_pairs(4, &[(0, 1)]);
        let best = oracle_exhaustive(&[1.0, 1.0, 1.0, 1.0], &g, &[1, 1, 0, 1], 2);
        // v2 is full; {v0 or v1} + v3.
        assert_eq!(best.len(), 2);
        assert!(ids(&best).contains(&3));
    }

    #[test]
    fn positive_score_sum_ignores_negatives() {
        let a = Arrangement::new(vec![EventId(0), EventId(1), EventId(2)]);
        assert!((positive_score_sum(&a, &[0.5, -0.2, 0.3]) - 0.8).abs() < 1e-15);
    }

    #[test]
    fn empty_instance() {
        let g = ConflictGraph::new(0);
        assert!(greedy(&[], &g, &[], 3).is_empty());
        assert!(oracle_exhaustive(&[], &g, &[], 3).is_empty());
    }

    #[test]
    fn into_retries_when_top_k_prefix_runs_dry() {
        // The 150 highest-scored events are all full, so the initial
        // top-k prefix (k = max(32, 4·cu)) yields nothing usable and
        // the ranking must grow — through one ×4 retry and into the
        // full-sort fallback — before the arrangement can fill.
        let n = 200usize;
        let scores: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let mut remaining = vec![0u32; n];
        for r in remaining.iter_mut().skip(150) {
            *r = 10;
        }
        let g = ConflictGraph::new(n);
        let cu = 5u32;
        let mut order = Vec::new();
        let mut mask = Vec::new();
        let mut out = Arrangement::empty();
        greedy_into(&scores, &g, &remaining, cu, &mut order, &mut mask, &mut out);
        let expected: Vec<usize> = (150..155).collect();
        assert_eq!(ids(&out), expected);
        assert_eq!(out, greedy(&scores, &g, &remaining, cu));
    }

    #[test]
    fn ranking_the_candidates_equals_ranking_the_full_vector() {
        // 60 candidates listed out of index order, 15 at each of four
        // scores so the k-th score is tied across the cut (broken by
        // index); every other entry is -∞, as after a pruned round.
        let n = 400usize;
        let mut cands: Vec<u32> = (0..60).map(|i| (i * 37 % n) as u32).collect();
        cands.sort_unstable_by_key(|&v| (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut scores = vec![f64::NEG_INFINITY; n];
        for (j, &v) in cands.iter().enumerate() {
            scores[v as usize] = (j % 4) as f64 - 2.0;
        }
        let pairs: Vec<(usize, usize)> = cands
            .windows(2)
            .step_by(3)
            .map(|w| (w[0] as usize, w[1] as usize))
            .collect();
        let g = ConflictGraph::from_pairs(n, &pairs);
        let all: Vec<u32> = (0..n as u32).collect();
        // k = 32, 48 and 60 (every candidate).
        for cu in [1u32, 3, 8, 12, 15] {
            let k = initial_prefix(n, cu);
            let mut full_order = Vec::new();
            subset_top_k(&scores, &all, k, &mut full_order);
            if k < cands.len() {
                let kth = scores[full_order[k - 1] as usize];
                assert!(
                    cands
                        .iter()
                        .any(|&v| scores[v as usize] == kth && !full_order.contains(&v)),
                    "cu={cu}: the cut must split a tie"
                );
            }
            for dry in [false, true] {
                // All open, or every candidate above the lowest score
                // sold out, so the prefix runs dry.
                let remaining: Vec<u32> = (0..n)
                    .map(|v| u32::from(!dry || scores[v] < -1.0))
                    .collect();
                let (mut order, mut mask) = (Vec::new(), Vec::new());
                let mut out = Arrangement::empty();
                let done = greedy_prefix_into(
                    &scores, &cands, &g, &remaining, cu, &mut order, &mut mask, &mut out,
                );
                assert_eq!(order, full_order, "cu={cu} dry={dry}");
                if done {
                    assert_eq!(out, greedy(&scores, &g, &remaining, cu), "cu={cu}");
                }
                assert!(done || dry, "cu={cu}: an open prefix fills");
                assert!(
                    !done || !dry || k == cands.len(),
                    "cu={cu}: the prefix runs dry"
                );
            }
        }
    }

    /// Drives the dist oracle over `shards` disjoint member lists
    /// (simulated in-process) and asserts the serial arrangement.
    fn assert_dist_matches_serial(
        scores: &[f64],
        conflicts: &ConflictGraph,
        remaining: &[u32],
        cu: u32,
        shards: usize,
    ) {
        let n = scores.len();
        // Round-robin membership: deliberately *not* component-aligned —
        // the merge theorem needs only disjoint covering subsets.
        let members: Vec<Vec<u32>> = (0..shards)
            .map(|s| {
                (0..n as u32)
                    .filter(|v| (*v as usize) % shards == s)
                    .collect()
            })
            .collect();
        let serial = greedy(scores, conflicts, remaining, cu);
        let mut order = Vec::new();
        let mut mask = Vec::new();
        let mut out = Arrangement::empty();
        let mut scratch = Vec::new();
        greedy_dist_into(
            scores,
            conflicts,
            remaining,
            cu,
            &mut order,
            &mut mask,
            &mut out,
            &mut |k, order| {
                for m in &members {
                    subset_top_k(scores, m, k, &mut scratch);
                    order.extend_from_slice(&scratch);
                }
            },
        );
        assert_eq!(
            out, serial,
            "dist oracle diverged (cu={cu}, shards={shards})"
        );
    }

    #[test]
    fn dist_matches_serial_across_shapes() {
        let n = 500usize;
        let scores: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(2654435761) >> 7) % 100) as f64 / 10.0)
            .collect();
        let pairs: Vec<(usize, usize)> = (0..n / 10).map(|i| (i, i + n / 2)).collect();
        let g = ConflictGraph::from_pairs(n, &pairs);
        let remaining: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        for shards in [1usize, 2, 4, 7] {
            for cu in [0u32, 1, 5, 64] {
                assert_dist_matches_serial(&scores, &g, &remaining, cu, shards);
            }
        }
    }

    #[test]
    fn dist_matches_serial_through_retry_widening() {
        // Dry-prefix instance: only the 50 worst-scored events have
        // capacity, forcing the ×4 widening and the local full-sort
        // fallback past the cutoff.
        let n = 300usize;
        let scores: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let mut remaining = vec![0u32; n];
        for r in remaining.iter_mut().skip(n - 50) {
            *r = 10;
        }
        let g = ConflictGraph::new(n);
        assert_dist_matches_serial(&scores, &g, &remaining, 5, 3);
    }

    #[test]
    fn subset_top_k_ranks_like_the_oracle() {
        let scores = [0.5, 0.9, 0.9, 0.1, 0.7];
        let mut out = Vec::new();
        subset_top_k(&scores, &[0, 1, 2, 3, 4], 3, &mut out);
        // Tie between 1 and 2 breaks to the lower id.
        assert_eq!(out, vec![1, 2, 4]);
        subset_top_k(&scores, &[3, 0], 8, &mut out);
        assert_eq!(out, vec![0, 3]);
        subset_top_k(&scores, &[3, 0], 0, &mut out);
        assert!(out.is_empty());
        subset_top_k(&scores, &[], 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn into_retries_when_conflicts_exhaust_prefix() {
        // Same dry-prefix shape driven by conflicts instead of
        // capacity: the top-scored event conflicts with the next 60,
        // so after arranging it the rest of the first prefix is dead.
        let n = 100usize;
        let scores: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let pairs: Vec<(usize, usize)> = (1..=60).map(|v| (0, v)).collect();
        let g = ConflictGraph::from_pairs(n, &pairs);
        let remaining = vec![1u32; n];
        let cu = 4u32;
        let mut order = Vec::new();
        let mut mask = Vec::new();
        let mut out = Arrangement::empty();
        greedy_into(&scores, &g, &remaining, cu, &mut order, &mut mask, &mut out);
        // Event 0 first, then the best non-conflicting ones: 61, 62, 63.
        assert_eq!(ids(&out), vec![0, 61, 62, 63]);
        assert_eq!(out, greedy(&scores, &g, &remaining, cu));
    }
}
