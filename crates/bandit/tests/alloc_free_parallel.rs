//! The zero-allocation bar extended to the **parallel** scoring path.
//!
//! Unlike `tests/alloc_free.rs`, whose thread-local counters cannot see
//! pool workers, this binary counts allocations **globally** (atomics),
//! so a single worker-side allocation — in the kernels, in the pool's
//! dispatch, in the sharded oracle — fails the test. That only works
//! because this file is its own test process with exactly one `#[test]`
//! (libtest would otherwise run tests on sibling threads and pollute
//! the counters), covering all three deterministic-score policies
//! sequentially.
//!
//! The claim under test: once the workspace, shard scratch, and pool
//! are warm, a steady-state `select_into` + `observe` round through the
//! process-shared [`ScorePool`] allocates zero bytes on *any* thread —
//! dispatch is condvar + atomics (futex-backed on Linux), chunks run
//! the existing allocation-free kernels into pre-sized shard slices,
//! and the oracle merge reuses workspace buffers.

use fasea_bandit::{shared_score_pool, EpsilonGreedy, Exploit, LinUcb, Policy, SelectionView};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, Feedback};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters are
// static atomics, so the accounting path itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes and calls allocated **process-wide** while `f` runs.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    let b0 = BYTES.load(Ordering::SeqCst);
    let c0 = CALLS.load(Ordering::SeqCst);
    f();
    (
        BYTES.load(Ordering::SeqCst) - b0,
        CALLS.load(Ordering::SeqCst) - c0,
    )
}

// Larger than the serial fixture so the instance spans two pool chunks
// (ragged tail) and the shard scratch is meaningfully exercised.
const NUM_EVENTS: usize = fasea_bandit::SCORE_CHUNK + 200;
const DIM: usize = 8;

fn fixture() -> (ContextMatrix, ConflictGraph, Vec<u32>) {
    let ctx = ContextMatrix::from_fn(NUM_EVENTS, DIM, |v, j| {
        (((v * 7 + j * 3 + 1) % 11) as f64) / 11.0
    });
    let conflicts =
        ConflictGraph::from_pairs(NUM_EVENTS, &[(0, 1), (2, 3), (10, 20), (30, 40), (41, 42)]);
    let remaining = vec![100_000u32; NUM_EVENTS];
    (ctx, conflicts, remaining)
}

fn assert_parallel_steady_state_allocates_zero(mut policy: Box<dyn Policy>, label: &str) {
    let (ctx, conflicts, remaining) = fixture();
    let cu = 4u32;
    let mut out = Arrangement::empty();
    // The pool automatic scoring uses, forced so the pooled path runs
    // at this shape (on a one-core host it has no workers and the
    // round is serial). Thread startup allocates (libstd records the
    // thread name for the stack-overflow handler); sync with it so only
    // steady-state rounds are measured.
    let pool = shared_score_pool();
    pool.wait_ready();
    policy.workspace_mut().set_score_pool(Some(pool));

    let view_at = |t: u64| SelectionView {
        t,
        user_capacity: cu,
        contexts: &ctx,
        conflicts: &conflicts,
        remaining: &remaining,
    };

    // Warm-up: workspace + shard scratch grow, workers finish starting,
    // the cached θ̂ refresh path runs at least once.
    for t in 0..16 {
        let view = view_at(t);
        policy.select_into(&view, &mut out);
        let fb = Feedback::new(vec![t % 2 == 0; out.len()]);
        policy.observe(t, &ctx, &out, &fb);
    }

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
        "{label}: steady-state parallel rounds allocated {bytes} bytes in {calls} calls"
    );
}

#[test]
fn parallel_steady_state_rounds_are_allocation_free() {
    // Harness guard first: a Vec allocation must be visible globally,
    // or the zero assertions below are vacuous.
    let (bytes, calls) = allocations_during(|| {
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
    });
    assert!(bytes >= 32 * 8, "allocation went uncounted: {bytes}");
    assert!(calls >= 1);

    assert_parallel_steady_state_allocates_zero(Box::new(LinUcb::new(DIM, 1.0, 2.0)), "UCB");
    assert_parallel_steady_state_allocates_zero(Box::new(Exploit::new(DIM, 1.0)), "Exploit");
    // ε = 0.5 exercises both branches inside the measured region with
    // overwhelming probability over 64 rounds.
    assert_parallel_steady_state_allocates_zero(
        Box::new(EpsilonGreedy::new(DIM, 1.0, 0.5, 7)),
        "eGreedy",
    );
}
