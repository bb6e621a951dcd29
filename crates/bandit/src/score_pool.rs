//! `ScorePool` — the deterministic intra-round parallel scoring engine.
//!
//! One FASEA round scores all `|V|` events for the arriving user and
//! then runs Oracle-Greedy. The scores are independent given the shared
//! `Y⁻¹`/`θ̂` state, so the scan is embarrassingly parallel — but the
//! golden-determinism, CRN, and WAL-replay machinery all require the
//! parallel scores to be **bit-identical** to the serial path. The pool
//! guarantees that by construction:
//!
//! * The event range is cut into fixed-size chunks of [`SCORE_CHUNK`]
//!   events. Chunk boundaries depend only on `|V|` and the chunk size —
//!   never on the thread count or on scheduling — and `SCORE_CHUNK` is a
//!   multiple of [`fasea_linalg::QF_LANES`], so every chunk starts a
//!   lane group exactly where the serial kernel would. Running the
//!   existing `_into` kernels on each chunk therefore reproduces the
//!   serial bits no matter which worker runs which chunk, or in what
//!   order.
//! * Each chunk writes a **disjoint** sub-slice of the caller's output
//!   buffers ([`ShardWriter`]), so there is no reduction whose order
//!   could vary.
//! * RNG-consuming score paths (TS posterior draws, eGreedy coins and
//!   exploration priorities, Random priorities) never enter the pool —
//!   they stay on the caller thread in the exact pre-parallel draw
//!   order.
//!
//! The pool is persistent: `threads − 1` std workers are spawned once
//! and parked on a condvar between rounds, so per-round dispatch costs
//! two mutex acquisitions and no heap allocation (Linux mutexes and
//! condvars are futex-based) — the zero-alloc steady state of the
//! batched scoring path extends to the parallel path, which the
//! counting-allocator test in `tests/alloc_free_parallel.rs` asserts.
//! The caller participates in chunk execution, so `threads = 1`
//! degrades to the serial path.
//!
//! Nobody sizes a pool by hand: [`crate::ScoreWorkspace`] decides per
//! view with [`pool_pays_off`] and, when pooling pays, borrows the one
//! process-wide [`shared_score_pool`], sized to the host's cores.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// Events per parallel chunk. A multiple of [`fasea_linalg::QF_LANES`]
/// (so chunk starts coincide with serial lane-group starts — the
/// bit-equality contract) that is large enough to amortise the claim
/// atomics and small enough to load-balance `|V| = 100k` over 8 workers.
pub const SCORE_CHUNK: usize = 2048;

const _: () = assert!(
    SCORE_CHUNK.is_multiple_of(fasea_linalg::QF_LANES),
    "SCORE_CHUNK must be a multiple of the kernel lane width"
);

/// Smallest `|V|·d` the automatic choice scores through the shared
/// pool. Measured by the `scoring_hot_path` bench on a 2-core host
/// (`BENCH_scoring.json`): the smallest measured `|V|·d` at which a
/// 2-thread pool lost no more than 1% to serial on any run, for UCB
/// (`d²` work per event) and TS (`d` per event) alike. Below it the
/// dispatch cost more than the second core saved on some runs.
pub(crate) const POOL_MIN_WORK: usize = 100_000;

/// The automatic scoring choice: does a view of `num_events × dim`
/// score faster through a pool on a host with `cores` cores? Never on
/// one core, never for a view of a single chunk (there is nothing to
/// split), otherwise once the work reaches [`POOL_MIN_WORK`].
pub(crate) fn pool_pays_off(num_events: usize, dim: usize, cores: usize) -> bool {
    cores > 1 && num_events > SCORE_CHUNK && num_events * dim >= POOL_MIN_WORK
}

/// The host's available parallelism, read once per process.
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide pool automatic scoring uses, sized to the host's
/// cores. The process keeps only a [`Weak`] handle: the pool lives while
/// some workspace holds it and is dropped — its workers joined — when
/// the last one lets go; the next call builds a fresh one.
pub fn shared_score_pool() -> Arc<ScorePool> {
    static SHARED: Mutex<Weak<ScorePool>> = Mutex::new(Weak::new());
    let mut slot = SHARED.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(pool) = slot.upgrade() {
        return pool;
    }
    let pool = Arc::new(ScorePool::new(host_cores()));
    *slot = Arc::downgrade(&pool);
    pool
}

/// Live pool workers across the whole process — the serving layer's
/// drain test asserts this returns to zero after a graceful shutdown,
/// i.e. that dropping the last service handle joined every worker.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of `ScorePool` worker threads currently alive in this
/// process (excludes callers, which only borrow into the pool during
/// [`ScorePool::run`]).
pub fn live_score_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// A type-erased borrow of the per-chunk closure. Sound because the
/// pointer is only dereferenced by a worker holding a validly claimed
/// chunk of the *current* epoch, and [`ScorePool::run`] does not return
/// (ending the closure's lifetime) until every chunk of its epoch has
/// completed — stale wake-ups fail the epoch check in `claim` and never
/// touch the pointer.
#[derive(Copy, Clone)]
struct RawJob(*const (dyn Fn(usize, Range<usize>) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared across workers by reference)
// and the lifetime discipline above keeps it alive for every deref.
unsafe impl Send for RawJob {}

struct Gate {
    /// Monotone dispatch counter; workers run a job at most once.
    epoch: u64,
    /// The current job + its geometry; overwritten by each dispatch.
    job: Option<(RawJob, usize, usize)>, // (f, n, chunk)
    /// Last epoch whose chunks have all completed.
    finished_epoch: u64,
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Packed `(epoch as u32) << 32 | next_chunk`: claims are CAS-gated
    /// on the epoch so a worker that slept through a whole round can
    /// never steal a chunk index from a later dispatch.
    claim: AtomicU64,
    /// Chunks of the current epoch not yet completed; the worker that
    /// takes it to zero signals `done_cv`.
    pending: AtomicUsize,
    /// Set if a per-chunk closure panicked; the caller re-raises.
    panicked: AtomicBool,
    /// Held by the caller whose job the workers are running; a second
    /// caller that finds it set runs its chunks itself. Taken with an
    /// `Acquire` swap, released with a `Release` store after the job is
    /// cleared, so the next owner sees the previous dispatch finished.
    busy: AtomicBool,
    /// Workers that have completed OS-level thread startup and entered
    /// the dispatch loop (see [`ScorePool::wait_ready`]).
    started: AtomicUsize,
}

impl Shared {
    /// Claims the next chunk index of `epoch32`, or `None` if the pool
    /// has moved on to a different epoch.
    fn claim_chunk(&self, epoch32: u32) -> Option<usize> {
        let mut cur = self.claim.load(Ordering::Acquire);
        loop {
            if (cur >> 32) as u32 != epoch32 {
                return None;
            }
            match self.claim.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((cur & u32::MAX as u64) as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Runs chunks of `epoch` until the claim counter passes the end.
    /// Both workers and the dispatching caller execute this.
    fn run_chunks(&self, job: RawJob, n: usize, chunk: usize, epoch: u64) {
        let num_chunks = n.div_ceil(chunk);
        let epoch32 = epoch as u32;
        while let Some(c) = self.claim_chunk(epoch32) {
            if c >= num_chunks {
                return;
            }
            let start = c * chunk;
            let end = (start + chunk).min(n);
            // SAFETY: chunk `c` of this epoch was claimed exactly once
            // (CAS above), so the job is still borrowed by the blocked
            // `run` call; see `RawJob`.
            let f = unsafe { &*job.0 };
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c, start..end)));
            if outcome.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut gate = self.gate.lock().expect("score pool gate poisoned");
                gate.finished_epoch = epoch;
                drop(gate);
                self.done_cv.notify_all();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    struct LiveGuard;
    impl Drop for LiveGuard {
        fn drop(&mut self) {
            LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
        }
    }
    LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
    let _guard = LiveGuard;
    shared.started.fetch_add(1, Ordering::SeqCst);

    let mut seen_epoch = 0u64;
    loop {
        let (job, n, chunk, epoch) = {
            let mut gate = shared.gate.lock().expect("score pool gate poisoned");
            loop {
                if gate.shutdown {
                    return;
                }
                if gate.epoch != seen_epoch {
                    if let Some((job, n, chunk)) = gate.job {
                        seen_epoch = gate.epoch;
                        break (job, n, chunk, gate.epoch);
                    }
                }
                gate = shared.work_cv.wait(gate).expect("score pool gate poisoned");
            }
        };
        shared.run_chunks(job, n, chunk, epoch);
    }
}

/// A persistent worker pool for deterministic intra-round parallel
/// scoring (see the module docs for the determinism argument).
///
/// Workspaces hold the pool as an `Arc` ([`shared_score_pool`], or one
/// forced through [`crate::ScoreWorkspace::set_score_pool`]), so one
/// pool serves every policy in the process. Dropping the last `Arc`
/// signals and joins all workers — graceful service drains lean on this
/// (asserted via [`live_score_workers`]).
pub struct ScorePool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Caller-visible parallelism: workers + the participating caller.
    threads: usize,
}

impl ScorePool {
    /// Creates a pool with `threads` total participants: `threads − 1`
    /// parked worker threads plus the caller, which executes chunks
    /// itself during [`ScorePool::run`]. `threads ≤ 1` spawns no
    /// workers (the pool degrades to the serial path).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                epoch: 0,
                job: None,
                finished_epoch: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            busy: AtomicBool::new(false),
            started: AtomicUsize::new(0),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fasea-score-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn score pool worker")
            })
            .collect();
        ScorePool {
            shared,
            handles,
            threads,
        }
    }

    /// Total participants (workers + caller) this pool was sized for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Blocks (yielding) until every worker has finished OS-level
    /// thread startup and entered the dispatch loop.
    ///
    /// Correctness never requires this — [`ScorePool::run`] completes
    /// all chunks regardless, with the caller picking up whatever
    /// still-starting workers haven't claimed. It matters for
    /// *measurement*: thread startup allocates (libstd's stack-overflow
    /// handler records the thread name), so the zero-allocation tests
    /// and benches call this once after construction to keep startup
    /// out of the measured region.
    pub fn wait_ready(&self) {
        while self.shared.started.load(Ordering::SeqCst) < self.handles.len() {
            std::thread::yield_now();
        }
    }

    /// Runs `f(chunk_index, event_range)` once for every
    /// `chunk_size`-sized chunk of `0..n`, spread over the workers and
    /// the calling thread, and returns when **all** chunks completed.
    /// Chunk geometry is a pure function of `(n, chunk_size)` — workers
    /// race only for *which* chunk they execute, never for its bounds.
    ///
    /// Steady-state allocation-free: dispatch uses the pre-spawned
    /// workers, a condvar, and atomics only.
    ///
    /// One caller at a time owns the workers. A caller that finds them
    /// busy runs all of its chunks itself, in order — the same chunk
    /// geometry, so the same bits — instead of waiting. `f` must be
    /// `Sync` because multiple threads execute it concurrently on
    /// disjoint chunks.
    ///
    /// # Panics
    /// Re-raises (as a panic on the caller) if any per-chunk closure
    /// panicked.
    pub fn run(&self, n: usize, chunk_size: usize, f: &(dyn Fn(usize, Range<usize>) + Sync)) {
        assert!(chunk_size > 0, "ScorePool::run: chunk_size must be > 0");
        if n == 0 {
            return;
        }
        let num_chunks = n.div_ceil(chunk_size);
        if self.shared.busy.swap(true, Ordering::Acquire) {
            for c in 0..num_chunks {
                let start = c * chunk_size;
                f(c, start..(start + chunk_size).min(n));
            }
            return;
        }
        // SAFETY (lifetime erasure): `run` blocks until every chunk of
        // this epoch completes, so `f` outlives all dereferences; the
        // epoch check in `claim_chunk` stops stale workers from
        // touching the pointer afterwards.
        let job = RawJob(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, Range<usize>) + Sync),
                *const (dyn Fn(usize, Range<usize>) + Sync + 'static),
            >(f as *const _)
        });
        let epoch = {
            let mut gate = self.shared.gate.lock().expect("score pool gate poisoned");
            gate.epoch += 1;
            let epoch = gate.epoch;
            gate.job = Some((job, n, chunk_size));
            self.shared.pending.store(num_chunks, Ordering::Release);
            self.shared
                .claim
                .store((epoch as u32 as u64) << 32, Ordering::Release);
            self.shared.work_cv.notify_all();
            epoch
        };
        // The caller is a full participant.
        self.shared.run_chunks(job, n, chunk_size, epoch);
        let mut gate = self.shared.gate.lock().expect("score pool gate poisoned");
        while gate.finished_epoch < epoch {
            gate = self
                .shared
                .done_cv
                .wait(gate)
                .expect("score pool gate poisoned");
        }
        // Nobody dereferences the erased pointer past this point.
        gate.job = None;
        drop(gate);
        self.shared.busy.store(false, Ordering::Release);
        if self.shared.panicked.swap(false, Ordering::AcqRel) {
            panic!("ScorePool: a per-chunk scoring closure panicked");
        }
    }
}

impl Drop for ScorePool {
    fn drop(&mut self) {
        {
            let mut gate = match self.shared.gate.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            gate.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ScorePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScorePool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Hands each pool chunk a mutable view of its own sub-range of one
/// output buffer, bypassing the borrow checker for the (provably
/// disjoint) concurrent writes.
///
/// Soundness contract: concurrent callers must pass **disjoint** ranges
/// — which the pool guarantees, because every chunk index is claimed by
/// exactly one worker and chunk geometry is fixed — and the buffer must
/// outlive the [`ScorePool::run`] call, which borrows the writer.
pub(crate) struct ShardWriter<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the writer only exposes raw provenance; disjointness of the
// actual accesses is the contract documented above.
unsafe impl<T: Send> Send for ShardWriter<T> {}
unsafe impl<T: Send> Sync for ShardWriter<T> {}

impl<T> ShardWriter<T> {
    pub(crate) fn new(buf: &mut [T]) -> Self {
        ShardWriter {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// The sub-slice for `range`.
    ///
    /// # Safety
    /// `range` must lie within the original buffer and not overlap any
    /// range given out to a concurrently running chunk.
    #[allow(clippy::mut_from_ref)] // disjointness is the documented contract
    pub(crate) unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

/// `scores[i] = ⟨x_v, theta⟩` for the `i`-th event `v` of `range` — the
/// dot-product score scan shared by Exploit, TS (after its serial
/// posterior draw) and eGreedy's exploit branch, run over the whole
/// event range or one pool chunk of it.
pub(crate) fn dot_scores(
    contexts: &fasea_core::ContextMatrix,
    theta: &[f64],
    range: Range<usize>,
    scores: &mut [f64],
) {
    for (s, v) in scores.iter_mut().zip(range) {
        *s = fasea_linalg::dot_slices(contexts.context(fasea_core::EventId(v)), theta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_range_exactly_once() {
        let pool = ScorePool::new(4);
        let n = 3 * SCORE_CHUNK + 17; // ragged tail chunk
        let mut hits = vec![0u8; n];
        let writer = ShardWriter::new(&mut hits);
        pool.run(n, SCORE_CHUNK, &|_c, range| {
            // SAFETY: pool chunks are disjoint.
            let slot = unsafe { writer.slice(range) };
            for h in slot {
                *h += 1;
            }
        });
        assert!(hits.iter().all(|&h| h == 1), "a chunk ran 0 or 2 times");
    }

    #[test]
    fn chunk_index_matches_range() {
        let pool = ScorePool::new(3);
        let n = 2 * SCORE_CHUNK + 5;
        let seen = Mutex::new(Vec::new());
        pool.run(n, SCORE_CHUNK, &|c, range| {
            assert_eq!(range.start, c * SCORE_CHUNK);
            assert_eq!(range.end, ((c + 1) * SCORE_CHUNK).min(n));
            seen.lock().unwrap().push(c);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn reusable_across_rounds_and_sizes() {
        let pool = ScorePool::new(2);
        for round in 1..20usize {
            let n = round * 37;
            let total = AtomicUsize::new(0);
            pool.run(n, 64, &|_c, range| {
                total.fetch_add(range.len(), Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn empty_range_is_a_noop() {
        let pool = ScorePool::new(2);
        pool.run(0, SCORE_CHUNK, &|_, _| panic!("must not run"));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ScorePool::new(1);
        assert_eq!(pool.threads(), 1);
        let total = AtomicUsize::new(0);
        pool.run(100, 8, &|_c, r| {
            total.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn cut_over_pins_the_benchmark_shapes() {
        for cores in [2, 4, 64] {
            // The served and model-store shapes stay serial...
            assert!(!pool_pays_off(200, 5, cores));
            assert!(!pool_pays_off(500, 20, cores));
            assert!(!pool_pays_off(100, 8, cores));
            // ...and the wide in-process shape pools.
            assert!(pool_pays_off(5000, 20, cores));
        }
        // One core never pools, however wide the view.
        for (n, d) in [(5000, 20), (100_000, 20), (1_000_000, 5)] {
            assert!(!pool_pays_off(n, d, 1));
        }
        // A single chunk has nothing to split.
        assert!(!pool_pays_off(SCORE_CHUNK, 1024, 8));
    }

    #[test]
    fn shared_pool_is_one_per_process_and_sized_to_the_host() {
        let a = shared_score_pool();
        let b = shared_score_pool();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), host_cores());
    }

    #[test]
    fn concurrent_callers_each_run_every_chunk_once() {
        // Caller A's chunks 0 and 1 occupy both participants of a
        // 2-thread pool (A's thread and the worker) until caller B's
        // whole call has returned, so the calls overlap while A's
        // chunks 2.. are still unclaimed. Every chunk of both calls
        // must run exactly once.
        const CHUNKS: usize = 16;
        let n = CHUNKS * SCORE_CHUNK;
        let pool = ScorePool::new(2);
        let a_running = std::sync::Barrier::new(3);
        let b_returned = std::sync::Barrier::new(3);
        let a_hits: [AtomicUsize; CHUNKS] = Default::default();
        let b_hits: [AtomicUsize; CHUNKS] = Default::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run(n, SCORE_CHUNK, &|c, _| {
                    if c < 2 {
                        a_running.wait();
                        b_returned.wait();
                    }
                    a_hits[c].fetch_add(1, Ordering::Relaxed);
                });
            });
            a_running.wait();
            pool.run(n, SCORE_CHUNK, &|c, _| {
                b_hits[c].fetch_add(1, Ordering::Relaxed);
            });
            b_returned.wait();
        });
        for (c, (a, b)) in a_hits.iter().zip(&b_hits).enumerate() {
            assert_eq!(a.load(Ordering::Relaxed), 1, "caller A, chunk {c}");
            assert_eq!(b.load(Ordering::Relaxed), 1, "caller B, chunk {c}");
        }
    }

    #[test]
    fn drop_joins_all_workers() {
        let before = live_score_workers();
        {
            let pool = ScorePool::new(5);
            assert_eq!(pool.threads(), 5);
            // Workers may still be starting; run once to sync with them.
            pool.run(1, 1, &|_, _| {});
        }
        // Drop joined the 4 workers: the live counter is back where it
        // started (other tests may hold pools of their own, so compare
        // relatively).
        assert!(live_score_workers() <= before);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ScorePool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(4 * SCORE_CHUNK, SCORE_CHUNK, &|c, _| {
                if c == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "chunk panic must reach the caller");
        // The pool survives and later rounds still work.
        let total = AtomicUsize::new(0);
        pool.run(10, 4, &|_c, r| {
            total.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }
}
