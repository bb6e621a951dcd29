//! Greedy vs tabu arrangement oracles: fitness and latency, side by
//! side, through the [`Oracle`] trait both run in production.
//!
//! For each `|V|` cell the same score vector, conflict graph and
//! capacities are arranged by:
//!
//! * `greedy`        — [`GreedyOracle`] (Algorithm 2, the default);
//! * `tabu-max`      — [`TabuOracle`] maximising expected attendance;
//! * `tabu-balanced` — [`TabuOracle`] with the balanced-fill objective.
//!
//! Two numbers per cell: `rounds_per_sec` (arrange calls per second on
//! a warm workspace) and `attendance` (the sum of positive scores of
//! the arranged events — the MaxAttendance objective, so the greedy row
//! is the baseline the tabu rows must not undercut).
//!
//! Output: one line per cell on stdout, and the table through
//! [`BenchReport`] — that is how the committed `BENCH_oracle.json` is
//! produced:
//!
//! ```text
//! FASEA_BENCH_JSON=BENCH_oracle.json cargo bench --bench oracle_compare
//! ```

use fasea_bandit::{OracleOptions, TabuFitness};
use fasea_bench::{budget, BenchReport, Field};
use fasea_core::Arrangement;
use fasea_datagen::synthetic::generate_conflicts;
use fasea_stats::rng_from_seed;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn scores_for(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 * 0.7311).sin() + 1.0) / 2.0)
        .collect()
}

/// Mean ns per call of `f`, measured in ~1 ms batches until the budget
/// is spent.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let warm_start = Instant::now();
    while warm_start.elapsed() < budget / 10 {
        f();
    }
    let probe_start = Instant::now();
    f();
    let probe = probe_start.elapsed().max(Duration::from_nanos(20));
    let batch = (Duration::from_millis(1).as_nanos() / probe.as_nanos()).clamp(1, 100_000) as u64;

    let mut iters = 0u64;
    let mut total = Duration::ZERO;
    let run_start = Instant::now();
    while run_start.elapsed() < budget {
        let batch_start = Instant::now();
        for _ in 0..batch {
            f();
        }
        total += batch_start.elapsed();
        iters += batch;
    }
    total.as_nanos() as f64 / iters.max(1) as f64
}

struct Cell {
    oracle: &'static str,
    num_events: usize,
    rounds_per_sec: f64,
    attendance: f64,
    arranged: usize,
}

fn bench_cell(opts: &OracleOptions, num_events: usize, budget: Duration) -> Cell {
    let mut rng = rng_from_seed(0x0AC1_E000 ^ num_events as u64);
    let conflicts = generate_conflicts(num_events, 0.25, &mut rng);
    let scores = scores_for(num_events);
    let remaining: Vec<u32> = (0..num_events).map(|v| 1 + (v % 7) as u32).collect();
    let cu = 5u32;

    let oracle = opts.build();
    let mut ws = fasea_bandit::OracleWorkspace::new();
    let mut out = Arrangement::empty();
    oracle.arrange_into(&scores, &conflicts, &remaining, cu, &mut ws, &mut out);
    let attendance: f64 = out
        .events()
        .iter()
        .map(|v| scores[v.index()].max(0.0))
        .sum();
    let arranged = out.len();

    let ns = time_ns(budget, || {
        oracle.arrange_into(&scores, &conflicts, &remaining, cu, &mut ws, &mut out);
        black_box(out.len());
    });
    Cell {
        oracle: opts.name(),
        num_events,
        rounds_per_sec: 1e9 / ns,
        attendance,
        arranged,
    }
}

fn main() {
    let budget = budget();
    let variants: &[(&'static str, OracleOptions)] = &[
        ("greedy", OracleOptions::greedy()),
        (
            "tabu-max",
            OracleOptions::tabu().with_tabu_fitness(TabuFitness::MaxAttendance),
        ),
        (
            "tabu-balanced",
            OracleOptions::tabu().with_tabu_fitness(TabuFitness::BalancedFill),
        ),
    ];

    let mut report = BenchReport::new("oracle_compare", "rounds_per_sec");
    for &n in &[500usize, 5000] {
        for (label, opts) in variants {
            let mut cell = bench_cell(opts, n, budget);
            cell.oracle = label;
            println!(
                "oracle_compare/{}/{n:<8} {:>12.0} rounds/s   attendance: {:>8.3}   arranged: {}",
                cell.oracle, cell.rounds_per_sec, cell.attendance, cell.arranged,
            );
            report.cell(vec![
                ("oracle", cell.oracle.into()),
                ("num_events", cell.num_events.into()),
                ("rounds_per_sec", Field::fixed(cell.rounds_per_sec, 1)),
                ("attendance", Field::fixed(cell.attendance, 3)),
                ("arranged", cell.arranged.into()),
            ]);
        }
    }
    report.write_if_requested();
}
