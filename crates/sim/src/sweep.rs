//! Parallel execution of independent experiment cells.
//!
//! A paper figure is typically a sweep — the same simulation repeated
//! over a parameter grid (|V|, d, cr, λ, α, …). Cells are independent,
//! so they fan out over scoped threads, bounded by the available
//! parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `jobs` (one closure per experiment cell) with at most
/// `max_threads` running concurrently, returning results in input order.
///
/// `max_threads = 0` means "use available parallelism".
///
/// Workers race a single atomic work index over the cell array, so
/// each `fetch_add` hands out one cell exactly once. A cell's lock is
/// taken twice, uncontended: once to take the job, once to store its
/// result.
pub fn run_parallel<T, F>(jobs: Vec<F>, max_threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        max_threads
    };
    let n = jobs.len();
    // One work cell per job: the job going in, its result coming out.
    let cells: Vec<Mutex<(Option<F>, Option<T>)>> = jobs
        .into_iter()
        .map(|f| Mutex::new((Some(f), None)))
        .collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                // Relaxed suffices: claim uniqueness comes from the RMW
                // itself, and result visibility from the cell's lock.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else {
                    break;
                };
                let f = cell.lock().expect("sweep cell poisoned").0.take();
                let result = f.expect("sweep job claimed twice")();
                cell.lock().expect("sweep cell poisoned").1 = Some(result);
            });
        }
    });

    cells
        .into_iter()
        .map(|c| {
            c.into_inner()
                .expect("sweep cell poisoned")
                .1
                .expect("sweep job did not produce a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let jobs: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        let out = run_parallel(jobs, 4);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn runs_with_single_thread() {
        let jobs: Vec<_> = (0..5).map(|i| move || i + 1).collect();
        assert_eq!(run_parallel(jobs, 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_means_available_parallelism() {
        let jobs: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_parallel(jobs, 0), vec![0, 1, 2]);
    }

    #[test]
    fn empty_job_list() {
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![];
        let out: Vec<i32> = run_parallel(jobs, 2);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_actually_run_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                let live = &live;
                let peak = &peak;
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        run_parallel(jobs, 4);
        assert!(peak.load(Ordering::SeqCst) >= 2, "no observed concurrency");
    }
}
