//! Exact bound-pruned UCB scoring: score only the events Oracle-Greedy
//! can reach.
//!
//! Oracle-Greedy reads the top [`initial_prefix`] events of the
//! ranking (`k = max(32, 4·c_u)`) and widens only when that prefix runs
//! dry. A UCB round therefore needs exact scores only for events that
//! could rank in that prefix. One `O(d)` pass bounds every event's
//! score from above; the events are then scored exactly in descending
//! bound order for as long as a bound still reaches the current k-th
//! exact score. Every other event provably ranks below all `k` of them.
//!
//! Exact scores come from the same lane kernel as full scoring
//! ([`ucb_block`] over gathered rows), and a row's result does not depend
//! on its neighbours (DESIGN.md §10), so every exact entry is
//! bit-identical to the full vector's and so is the arrangement. The
//! bound, its rounding margin and the completion rule are derived in
//! DESIGN.md §10 "Pruned scoring".

use crate::oracle::{initial_prefix, FULL_SORT_CUTOFF};
use crate::SelectionView;
use fasea_core::{ContextMatrix, EventId};
use fasea_linalg::{dots_and_sq_norms_into, Matrix};

/// Smallest `|V|` at which a UCB round tries to prune. Below it the
/// full pass costs tens of microseconds (~32 µs at 500×20 on a 2-core
/// host), so the served shapes keep the plain full pass.
pub(crate) const PRUNE_MIN_EVENTS: usize = 1024;

/// Rows per gathered exact batch: a multiple of the kernel's 8-event
/// lane group, and small, so the k-th exact score tightens often.
const BATCH: usize = 32;

/// Bounds per block of the top-k pass.
const TOP_BLOCK: usize = 16;

/// Relative margin on each upper bound, `2⁻⁴⁶ = 128` units of roundoff:
/// it covers the rounding of the exact score's last two operations and
/// of the bound's own arithmetic (DESIGN.md §10 derives `≤ 8u`).
const MARGIN_REL: f64 = 1.0 / (1u64 << 46) as f64;

/// Most rounds a fallback makes the pruning attempt skip: after a round
/// whose bounds were too loose, the next 1, 2, 4, … up to this many
/// rounds score in full without trying. Skipping changes cost only,
/// never a bit of the result.
const MAX_BACKOFF: u32 = 64;

/// Absolute margin per unit of `1 + α`: covers the absolute error of
/// subnormal products, which no relative term bounds (`√` of the
/// worst-case `(d² + 2d)·2⁻¹⁰⁷⁵` at `d ≤ 64` is below `1e-159`).
const MARGIN_ABS: f64 = 1e-150;

/// The exact UCB kernel over a row-major block `xs`:
/// `s = x·θ̂ + α·√(max(xᵀY⁻¹x, 0))` into `s`, the width into `w`. Full
/// scoring, gathered batches and completion all go through it, so a
/// row's bits are the same on every path.
pub(crate) fn ucb_block(
    y_inv: &Matrix,
    theta: &[f64],
    alpha: f64,
    xs: &[f64],
    dim: usize,
    s: &mut [f64],
    w: &mut [f64],
) {
    y_inv.quadratic_forms_and_dots_batch(xs, dim, theta, w, s);
    for (si, wi) in s.iter_mut().zip(w.iter_mut()) {
        *wi = wi.max(0.0).sqrt();
        *si += alpha * *wi;
    }
}

/// Whether a round of this shape may prune: wide enough to pay, a
/// ranked prefix smaller than `|V|`, and a prefix the bounded-insertion
/// ranking serves (past [`FULL_SORT_CUTOFF`] greedy sorts everything,
/// and every score would be read).
pub(crate) fn worth_pruning(n: usize, dim: usize, user_capacity: u32) -> bool {
    let k = initial_prefix(n, user_capacity);
    dim > 0 && n >= PRUNE_MIN_EVENTS && k < n && k <= FULL_SORT_CUTOFF
}

/// `Y⁻¹`, `θ̂` and `α` of the most recent pruned round, copied into the
/// workspace so it can finish the score vector after the policy has
/// returned (and after `observe` has moved the estimator on).
#[derive(Debug, Clone, Default)]
pub(crate) struct UcbModel {
    y_inv: Option<Matrix>,
    theta: Vec<f64>,
    alpha: f64,
}

impl UcbModel {
    /// Copies the round's parameters in, reusing the buffers.
    fn set(&mut self, y_inv: &Matrix, theta: &[f64], alpha: f64) {
        match &mut self.y_inv {
            Some(m) if m.rows() == y_inv.rows() => {
                for r in 0..y_inv.rows() {
                    m.row_mut(r).copy_from_slice(y_inv.row(r));
                }
            }
            slot => *slot = Some(y_inv.clone()),
        }
        self.theta.clear();
        self.theta.extend_from_slice(theta);
        self.alpha = alpha;
    }

    /// [`ucb_block`] with the stored parameters.
    pub(crate) fn score_block(&self, xs: &[f64], dim: usize, s: &mut [f64], w: &mut [f64]) {
        let y_inv = self.y_inv.as_ref().expect("UcbModel: no round stored");
        ucb_block(y_inv, &self.theta, self.alpha, xs, dim, s, w);
    }

    /// Bytes held.
    fn state_bytes(&self) -> usize {
        let m = self.y_inv.as_ref().map_or(0, |m| m.rows() * m.cols());
        (m + self.theta.len()) * std::mem::size_of::<f64>()
    }
}

/// Reusable scratch of the pruned round.
#[derive(Debug, Clone, Default)]
pub(crate) struct PruneScratch {
    /// The round's parameters, for completion.
    pub(crate) model: UcbModel,
    /// Upper bound per event (margin included); `-∞` once scored.
    ub: Vec<f64>,
    /// `‖x_v‖²` per event.
    sq: Vec<f64>,
    /// The `k` largest bounds, best first.
    top: Vec<u32>,
    /// Their bounds.
    top_ub: Vec<f64>,
    /// Largest bound per block of [`TOP_BLOCK`].
    block_max: Vec<f64>,
    /// Events whose bound reaches the k-th exact score; after a pruned
    /// round, every event scored exactly.
    cand: Vec<u32>,
    /// Gathered context rows of one batch.
    rows: Vec<f64>,
    /// The `k` best exact scores so far, ascending.
    best: Vec<f64>,
    /// Rounds the next attempts still skip, and the current backoff.
    skip: u32,
    backoff: u32,
}

impl PruneScratch {
    /// Whether this round should try to prune, counting a skipped round
    /// against the backoff of the last fallback.
    pub(crate) fn should_try(&mut self) -> bool {
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        true
    }

    /// Records an attempt's outcome: success clears the backoff, a
    /// fallback doubles it (up to [`MAX_BACKOFF`]).
    pub(crate) fn record(&mut self, pruned: bool) {
        self.backoff = if pruned {
            0
        } else {
            (self.backoff * 2).clamp(1, MAX_BACKOFF)
        };
        self.skip = self.backoff;
    }

    /// The events the last pruned round scored exactly, best bound
    /// first. Every other entry of its score vector is `-∞`, below all
    /// of theirs.
    pub(crate) fn exact_ids(&self) -> &[u32] {
        &self.cand
    }

    /// Bytes held by the scratch buffers.
    pub(crate) fn state_bytes(&self) -> usize {
        (self.ub.len()
            + self.sq.len()
            + self.top_ub.len()
            + self.block_max.len()
            + self.rows.len()
            + self.best.len())
            * std::mem::size_of::<f64>()
            + (self.top.len() + self.cand.len()) * std::mem::size_of::<u32>()
            + self.model.state_bytes()
    }
}

/// A certified upper bound on `xᵀY⁻¹x / ‖x‖²` for the `Y⁻¹` the kernel
/// reads, rounding of the kernel included: the Gershgorin bound of the
/// symmetric part, `maxᵢ Σⱼ (|mᵢⱼ| + |mⱼᵢ|)/2`, inflated by
/// `8(d+4)` units of roundoff. `+∞` if the matrix holds a NaN.
fn gershgorin(m: &Matrix) -> f64 {
    let d = m.rows();
    let mut g = 0.0f64;
    for i in 0..d {
        let row = m.row(i);
        let mut r = 0.0;
        for (j, &mij) in row.iter().enumerate() {
            r += 0.5 * (mij.abs() + m[(j, i)].abs());
        }
        if r.is_nan() {
            return f64::INFINITY;
        }
        g = g.max(r);
    }
    g * (1.0 + 4.0 * (d as f64 + 4.0) * f64::EPSILON)
}

/// The `k` largest of `ub` (no NaN) into `top`, best first, ties to
/// the lower id — the order Oracle-Greedy ranks in — with their bounds
/// in `top_ub`.
///
/// A bounded insertion in id order, against the k-th bound held so far
/// (`floor`); a [`TOP_BLOCK`] of bounds none of which beats it is
/// skipped in one test. Before `k` are held, bounds below `lo` are
/// skipped the same way: `lo`, the k-th largest block maximum, is a
/// floor no top-k bound is below (k blocks each hold a bound at least
/// that large), so few bounds are ever inserted.
fn top_bounds(
    ub: &[f64],
    k: usize,
    block_max: &mut Vec<f64>,
    top: &mut Vec<u32>,
    top_ub: &mut Vec<f64>,
) {
    top.clear();
    top_ub.clear();
    if k == 0 {
        return;
    }
    block_max.clear();
    block_max.extend(ub.chunks(TOP_BLOCK).map(|b| {
        b.iter()
            .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m })
    }));
    let lo = if block_max.len() >= k {
        *block_max
            .select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a))
            .1
    } else {
        f64::NEG_INFINITY
    };
    let mut floor = f64::NEG_INFINITY;
    for (c, block) in ub.chunks(TOP_BLOCK).enumerate() {
        let hit = if top.len() == k {
            block.iter().fold(false, |hit, &b| hit | (b > floor))
        } else {
            block.iter().fold(false, |hit, &b| hit | (b >= lo))
        };
        if !hit {
            continue;
        }
        for (i, &b) in block.iter().enumerate() {
            if top.len() == k {
                if b <= floor {
                    continue;
                }
                top.pop();
                top_ub.pop();
            } else if b < lo {
                continue;
            }
            let pos = top_ub.partition_point(|&o| o >= b);
            top.insert(pos, (c * TOP_BLOCK + i) as u32);
            top_ub.insert(pos, b);
            if top.len() == k {
                floor = top_ub[k - 1];
            }
        }
    }
}

/// Scores a pruned UCB round of `view` into `scores`/`widths`:
/// exact entries for every event that can rank in Oracle-Greedy's
/// initial prefix, `-∞` for the rest (below every exact entry). Returns
/// the number of exact entries, or `None` when this round is better
/// scored in full (bounds too loose to prune, or a non-finite exact
/// score) — the buffers then hold nothing usable and the caller runs
/// the full pass.
pub(crate) fn score_pruned(
    scratch: &mut PruneScratch,
    view: &SelectionView<'_>,
    y_inv: &Matrix,
    theta: &[f64],
    alpha: f64,
    scores: &mut Vec<f64>,
    widths: &mut Vec<f64>,
) -> Option<usize> {
    let contexts = view.contexts;
    let (n, d) = (contexts.num_events(), contexts.dim());
    let k = initial_prefix(n, view.user_capacity);
    scratch.model.set(y_inv, theta, alpha);
    let PruneScratch {
        model,
        ub,
        sq,
        top,
        top_ub,
        block_max,
        cand,
        rows,
        best,
        ..
    } = scratch;

    // Bound pass: one O(d) sweep for `x·θ̂` (bit-identical to the exact
    // kernel's dot) and `‖x‖²`, then the bounds, keeping the k largest.
    let lambda = gershgorin(y_inv);
    let abs_margin = MARGIN_ABS * (1.0 + alpha);
    ub.resize(n, 0.0);
    sq.resize(n, 0.0);
    dots_and_sq_norms_into(contexts.as_slice(), d, theta, ub, sq);
    // The bounds in a branch-free loop the compiler vectorises…
    for (u, &q) in ub.iter_mut().zip(sq.iter()) {
        let p = *u;
        let a = alpha * (lambda * q).sqrt();
        let b = (p + a) + (MARGIN_REL * (p.abs() + a) + abs_margin);
        *u = if b.is_nan() { f64::INFINITY } else { b };
    }
    // …then the k largest.
    top_bounds(ub, k, block_max, top, top_ub);

    scores.clear();
    scores.resize(n, f64::NEG_INFINITY);
    widths.resize(n, 0.0);
    best.clear();
    let mut out = Exact {
        model,
        contexts,
        rows,
        scores,
        widths,
        best,
        k,
    };

    // Threshold pass: the top-k by bound first, then every event whose
    // bound still reaches the k-th exact score, best bound first.
    if !out.score(top, ub) {
        return None;
    }
    let s_k = out.best[0];
    if s_k == f64::NEG_INFINITY {
        return None;
    }
    cand.clear();
    // Reserve for the worst case once, so no later round grows it.
    cand.reserve(n);
    cand.extend((0..n as u32).filter(|&v| ub[v as usize] >= s_k));
    if cand.len() > n / 4 {
        return None;
    }
    cand.sort_unstable_by(|&a, &b| ub[b as usize].total_cmp(&ub[a as usize]));
    let mut done = 0;
    while done < cand.len() {
        let s_k = out.best[0];
        let run = cand[done..]
            .iter()
            .take(BATCH)
            .take_while(|&&v| ub[v as usize] >= s_k)
            .count();
        if run == 0 {
            break;
        }
        if !out.score(&cand[done..done + run], ub) {
            return None;
        }
        done += run;
    }
    // Keep the exact set for the oracle, best bound first — the top k,
    // then the scored candidates — so its ranking fills with likely
    // winners early (`cand` has room: it never holds a top-k id).
    cand.truncate(done);
    cand.extend_from_slice(top);
    cand.rotate_right(top.len());
    Some(k + done)
}

/// Where a pruned round's exact scores go.
struct Exact<'a> {
    model: &'a UcbModel,
    contexts: &'a ContextMatrix,
    /// Gathered rows of one batch.
    rows: &'a mut Vec<f64>,
    scores: &'a mut [f64],
    widths: &'a mut [f64],
    /// The `k` best exact scores so far, ascending.
    best: &'a mut Vec<f64>,
    k: usize,
}

impl Exact<'_> {
    /// Exact scores of the events `ids`, gathered `BATCH` rows at a
    /// time through [`UcbModel::score_block`]; each is written out,
    /// folded into the `k` best, and its bound in `ub` retired. `false`
    /// on a NaN score: the greedy order is then unspecified, so the
    /// caller falls back to full scoring.
    fn score(&mut self, ids: &[u32], ub: &mut [f64]) -> bool {
        let d = self.contexts.dim();
        let mut s = [0.0f64; BATCH];
        let mut w = [0.0f64; BATCH];
        for chunk in ids.chunks(BATCH) {
            self.rows.clear();
            for &v in chunk {
                self.rows
                    .extend_from_slice(self.contexts.context(EventId(v as usize)));
            }
            let m = chunk.len();
            self.model
                .score_block(self.rows, d, &mut s[..m], &mut w[..m]);
            for (i, &v) in chunk.iter().enumerate() {
                let (v, si) = (v as usize, s[i]);
                if si.is_nan() {
                    return false;
                }
                self.scores[v] = si;
                self.widths[v] = w[i];
                ub[v] = f64::NEG_INFINITY;
                if self.best.len() == self.k {
                    if si <= self.best[0] {
                        continue;
                    }
                    self.best.remove(0);
                }
                let pos = self.best.partition_point(|&b| b < si);
                self.best.insert(pos, si);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_bounds_equals_a_full_sort_with_ties_to_the_lower_id() {
        let reference = |ub: &[f64], k: usize| {
            let mut all: Vec<u32> = (0..ub.len() as u32).collect();
            all.sort_by(|&a, &b| {
                ub[b as usize]
                    .partial_cmp(&ub[a as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            all.truncate(k);
            all
        };
        let (mut block_max, mut top, mut top_ub) = (Vec::new(), Vec::new(), Vec::new());
        for n in [0usize, 1, 15, 16, 17, 100, 1000, 1031] {
            for levels in [2u64, 7, 1 << 40] {
                // Few distinct values, so ties straddle the k-th bound;
                // ±0 compare equal, +∞ stands for a NaN bound.
                let ub: Vec<f64> = (0..n as u64)
                    .map(
                        |i| match (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) % levels {
                            0 => -0.0,
                            1 => 0.0,
                            2 => f64::INFINITY,
                            h => h as f64 - 1e3,
                        },
                    )
                    .collect();
                for k in [0usize, 1, 5, 32, 64, n] {
                    top_bounds(&ub, k.min(n), &mut block_max, &mut top, &mut top_ub);
                    assert_eq!(top, reference(&ub, k.min(n)), "n={n} levels={levels} k={k}");
                    assert!(top.iter().zip(&top_ub).all(|(&v, &b)| ub[v as usize] == b));
                }
            }
        }
    }
}
