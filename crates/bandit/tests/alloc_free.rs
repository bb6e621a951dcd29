//! The zero-allocation bar for the batched scoring hot path.
//!
//! A counting `GlobalAlloc` wraps the system allocator and tallies
//! per-thread allocation bytes/calls. After a warm-up round (which may
//! grow workspace buffers), every steady-state `select_into` + `observe`
//! round of the deterministic-score learning policies — UCB, Exploit,
//! eGreedy — must allocate **zero** bytes, UCB's pruned wide rounds
//! included.
//!
//! Caveats encoded here:
//! * rounds stay far below the estimator's Cholesky refresh interval
//!   (4096 observations), which legitimately allocates;
//! * `Feedback` values are pre-built outside the measured region — the
//!   bar is on the policy, not on the harness's own bookkeeping;
//! * TS is exempt: its posterior sample factors `Y` every round.

use fasea_bandit::{EpsilonGreedy, Exploit, LinUcb, Policy, SelectionView};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, Feedback};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters are
// const-initialised thread-locals, so no allocation happens on the
// accounting path itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        CALLS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        CALLS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth counts as fresh allocation of the new block.
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        CALLS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes and calls allocated on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    let b0 = BYTES.with(|c| c.get());
    let c0 = CALLS.with(|c| c.get());
    f();
    (BYTES.with(|c| c.get()) - b0, CALLS.with(|c| c.get()) - c0)
}

const NUM_EVENTS: usize = 60;
const DIM: usize = 8;

fn fixture() -> (ContextMatrix, ConflictGraph, Vec<u32>) {
    let ctx = ContextMatrix::from_fn(NUM_EVENTS, DIM, |v, j| {
        (((v * 7 + j * 3 + 1) % 11) as f64) / 11.0
    });
    let conflicts =
        ConflictGraph::from_pairs(NUM_EVENTS, &[(0, 1), (2, 3), (10, 20), (30, 40), (41, 42)]);
    let remaining = vec![1_000u32; NUM_EVENTS];
    (ctx, conflicts, remaining)
}

/// A view wide enough for UCB to prune (`|V| ≥ 1024`): hashed contexts
/// whose row norms are skewed towards zero, so from the first round
/// most events' score bounds fall short of the ranked prefix.
fn wide_fixture() -> (ContextMatrix, ConflictGraph, Vec<u32>) {
    let n = 2_048;
    let unit = |i: usize| {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        h as f64 / (1u64 << 53) as f64
    };
    let ctx = ContextMatrix::from_fn(n, DIM, |v, j| {
        (unit(v * DIM + j) - 0.3) * (0.02 + unit(v + 7_919).powi(4))
    });
    let conflicts = ConflictGraph::from_pairs(n, &[(0, 1), (2, 3), (10, 2000)]);
    (ctx, conflicts, vec![1_000u32; n])
}

/// Warm the policy (growing its workspace and arrangement buffers),
/// then assert that `rounds` further select+observe rounds allocate
/// exactly zero bytes.
fn assert_steady_state_rounds_allocate_zero(policy: Box<dyn Policy>, label: &str) {
    assert_steady_state_rounds_allocate_zero_on(policy, label, fixture());
}

fn assert_steady_state_rounds_allocate_zero_on(
    mut policy: Box<dyn Policy>,
    label: &str,
    (ctx, conflicts, remaining): (ContextMatrix, ConflictGraph, Vec<u32>),
) -> Box<dyn Policy> {
    let cu = 4u32;
    let mut out = Arrangement::empty();

    let view_at = |t: u64| SelectionView {
        t,
        user_capacity: cu,
        contexts: &ctx,
        conflicts: &conflicts,
        remaining: &remaining,
    };

    // Warm-up: buffers grow to their steady-state sizes here, and the
    // cached θ̂ refresh path runs at least once.
    for t in 0..16 {
        let view = view_at(t);
        policy.select_into(&view, &mut out);
        let fb = Feedback::new(vec![t % 2 == 0; out.len()]);
        policy.observe(t, &ctx, &out, &fb);
    }

    // Pre-build feedback for every measured round: the harness's own
    // Vec<bool> must not count against the policy. `cu` bounds the
    // arrangement length.
    let feedbacks: Vec<Feedback> = (0..64)
        .map(|t| Feedback::new((0..cu as usize).map(|i| (t + i) % 3 == 0).collect()))
        .collect();

    let rounds = 64u64;
    let (bytes, calls) = allocations_during(|| {
        for t in 16..16 + rounds {
            let view = view_at(t);
            policy.select_into(&view, &mut out);
            assert_eq!(out.len(), cu as usize, "{label}: capacity not filled");
            let fb = &feedbacks[(t - 16) as usize];
            policy.observe(t, &ctx, &out, fb);
        }
    });
    assert_eq!(
        (bytes, calls),
        (0, 0),
        "{label}: steady-state rounds allocated {bytes} bytes in {calls} calls"
    );
    policy
}

#[test]
fn ucb_steady_state_rounds_are_allocation_free() {
    assert_steady_state_rounds_allocate_zero(Box::new(LinUcb::new(DIM, 1.0, 2.0)), "UCB");
}

#[test]
fn ucb_pruned_rounds_are_allocation_free() {
    // At |V| = 2048 UCB scores only the events Oracle-Greedy can reach;
    // those rounds must stay allocation-free too, and must really prune.
    let policy = assert_steady_state_rounds_allocate_zero_on(
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        "UCB (pruned)",
        wide_fixture(),
    );
    let stats = policy.workspace().score_stats();
    assert!(
        stats.pruned_rounds >= 64,
        "only {} of {} rounds pruned",
        stats.pruned_rounds,
        stats.rounds
    );
}

#[test]
fn exploit_steady_state_rounds_are_allocation_free() {
    assert_steady_state_rounds_allocate_zero(Box::new(Exploit::new(DIM, 1.0)), "Exploit");
}

#[test]
fn egreedy_steady_state_rounds_are_allocation_free() {
    // ε = 0.5 exercises both the explore and the exploit branch inside
    // the measured region with overwhelming probability over 64 rounds.
    assert_steady_state_rounds_allocate_zero(
        Box::new(EpsilonGreedy::new(DIM, 1.0, 0.5, 7)),
        "eGreedy",
    );
}

#[test]
fn counting_allocator_actually_counts() {
    // Guard against a silently broken harness: a Vec allocation must be
    // visible to the counter, or the zero assertions above are vacuous.
    let (bytes, calls) = allocations_during(|| {
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
    });
    assert!(bytes >= 32 * 8, "allocation went uncounted: {bytes}");
    assert!(calls >= 1);
}
