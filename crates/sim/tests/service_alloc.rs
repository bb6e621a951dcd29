//! Allocation bar for a steady-state served round at the sim-wide
//! shape (|V| = 5000, d = 20).
//!
//! The service keeps one reused pending block and copies only the
//! arranged rows into it, and UCB scoring (full or pruned) runs on
//! reused workspace buffers, so a warm `propose` + `feedback` allocates
//! just the small arrangement copies its API hands out — not the
//! 800 KB context block a per-proposal clone would take.
//!
//! A counting `GlobalAlloc` tallies bytes on every thread, so nothing a
//! round does elsewhere escapes the count.

use fasea_bandit::LinUcb;
use fasea_core::UserArrival;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_sim::ArrangementService;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a
// plain atomic, so counting allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NUM_EVENTS: usize = 5_000;
const DIM: usize = 20;

#[test]
fn steady_state_round_allocates_under_one_kib() {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: 20_171,
        ..SyntheticConfig::default()
    });
    let arrivals: Vec<UserArrival> = (0..16).map(|t| workload.arrivals.arrival(t)).collect();
    let mut svc = ArrangementService::new(
        workload.instance.clone(),
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
    );
    let mut answers = Vec::with_capacity(64);
    let mut round = |svc: &mut ArrangementService, t: usize| {
        let a = svc.propose(&arrivals[t % arrivals.len()]).unwrap();
        answers.clear();
        answers.extend(a.iter().map(|v| (t + v.index()).is_multiple_of(3)));
        svc.feedback(&answers).unwrap();
    };
    // Warm-up: every buffer reaches its steady size.
    for t in 0..40 {
        round(&mut svc, t);
    }
    for t in 40..80 {
        let before = BYTES.load(Ordering::Relaxed);
        round(&mut svc, t);
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        assert!(
            bytes < 1024,
            "round {t} allocated {bytes} bytes (a full context copy is {} bytes)",
            NUM_EVENTS * DIM * 8
        );
    }
}
