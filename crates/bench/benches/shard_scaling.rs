//! Sharded-service round throughput: rounds/sec of the in-process
//! [`ShardedArrangementService`] at 1, 2 and 4 shards against the
//! single-actor [`DurableArrangementService`] baseline on the same
//! workload.
//!
//! The sharded service is byte-identical to the baseline (see
//! `tests/shard_parity.rs`), so this bench isolates the *cost of the
//! machinery*: per-round the coordinator stages scores, fans
//! `subset_top_k` queries out to the shard actors, merges the ranked
//! candidates, and commits the accepted write sets with durable
//! prepares plus a commit fan-out. Both sides run `FsyncPolicy::Never`
//! so the numbers compare coordination overhead, not disk stalls —
//! with fsync on, per-shard logs would additionally spread the fsync
//! load across files.
//!
//! Output: one line per cell on stdout, and the table through
//! [`BenchReport`] — that is how the committed `BENCH_shard.json` is
//! produced:
//!
//! ```text
//! FASEA_BENCH_MS=2000 FASEA_BENCH_JSON=BENCH_shard.json \
//!     cargo bench --bench shard_scaling
//! ```

use std::time::{Duration, Instant};

use fasea_bandit::LinUcb;
use fasea_bench::{budget, BenchReport, Field};
use fasea_core::EventId;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_shard::ShardedArrangementService;
use fasea_sim::{DurableArrangementService, DurableOptions};
use fasea_stats::CoinStream;
use fasea_store::FsyncPolicy;

const SEED: u64 = 0x0005_AA2D_BE7C;
const NUM_EVENTS: usize = 200;
const DIM: usize = 5;

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: SEED,
        ..SyntheticConfig::default()
    })
}

fn opts() -> DurableOptions {
    DurableOptions::new()
        .with_fsync(FsyncPolicy::Never)
        .with_segment_bytes(u64::MAX)
}

struct Cell {
    mode: &'static str,
    shards: usize,
    rounds: u64,
    rounds_per_sec: f64,
}

/// One feedback round against whichever service: CRN acceptance coins
/// keyed on (t, event) so every cell sees the identical trajectory.
macro_rules! drive_round {
    ($svc:expr, $wl:expr, $coins:expr) => {{
        let t = $svc.rounds_completed();
        let arrival = $wl.arrivals.arrival(t);
        let arrangement = $svc.propose(&arrival).unwrap();
        let accepts: Vec<bool> = arrangement
            .events()
            .iter()
            .map(|&v| {
                $coins.uniform(t, v.index() as u64)
                    < $wl
                        .model
                        .accept_probability(&arrival.contexts, EventId(v.index()))
            })
            .collect();
        $svc.feedback(&accepts).unwrap();
    }};
}

fn run_cell(mode: &'static str, shards: usize, window: Duration) -> Cell {
    let dir = std::env::temp_dir().join(format!(
        "fasea-bench-shard-scaling-{mode}-{shards}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wl = workload();
    let coins = CoinStream::new(SEED ^ 0xFEED);
    let policy = Box::new(LinUcb::new(DIM, 1.0, 2.0));

    let mut rounds = 0u64;
    let started;
    let elapsed;
    if shards == 0 {
        let mut svc =
            DurableArrangementService::open(&dir, wl.instance.clone(), policy, opts()).unwrap();
        // Warm-up outside the timed window.
        for _ in 0..8 {
            drive_round!(svc, wl, coins);
        }
        started = Instant::now();
        let deadline = started + window;
        while Instant::now() < deadline {
            drive_round!(svc, wl, coins);
            rounds += 1;
        }
        elapsed = started.elapsed();
        svc.close().unwrap();
    } else {
        let mut svc =
            ShardedArrangementService::open(&dir, wl.instance.clone(), policy, opts(), shards)
                .unwrap();
        for _ in 0..8 {
            drive_round!(svc, wl, coins);
        }
        started = Instant::now();
        let deadline = started + window;
        while Instant::now() < deadline {
            drive_round!(svc, wl, coins);
            rounds += 1;
        }
        elapsed = started.elapsed();
        svc.close().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);

    Cell {
        mode,
        shards,
        rounds,
        rounds_per_sec: rounds as f64 / elapsed.as_secs_f64(),
    }
}

fn main() {
    let window = budget();
    let mut report = BenchReport::new("shard_scaling", "rounds_per_sec");
    report.meta("fsync", "never");
    if report.host_cores() == 1 {
        println!(
            "warning: single-core host — the coordinator and every shard actor \
             share one core, so the fan-out rounds are pure overhead and shard \
             scaling is understated"
        );
    }

    let grid: &[(&'static str, usize)] = &[
        ("single_actor", 0),
        ("sharded", 1),
        ("sharded", 2),
        ("sharded", 4),
    ];
    let mut baseline = None;
    for &(mode, shards) in grid {
        let cell = run_cell(mode, shards, window);
        println!(
            "shard_scaling/{}/shards={}   {:>8} rounds   {:>10.1} rounds/sec",
            cell.mode, cell.shards, cell.rounds, cell.rounds_per_sec,
        );
        let relative = baseline.map(|base| cell.rounds_per_sec / base);
        if let Some(relative) = relative {
            println!("sharded({}) vs single_actor: {relative:.2}x", cell.shards);
        } else {
            baseline = Some(cell.rounds_per_sec);
        }
        report.cell(vec![
            ("mode", cell.mode.into()),
            ("shards", cell.shards.into()),
            ("rounds", cell.rounds.into()),
            ("rounds_per_sec", Field::fixed(cell.rounds_per_sec, 1)),
            (
                "relative_to_single_actor",
                relative.map(|r| Field::fixed(r, 2)).into(),
            ),
        ]);
    }
    report.write_if_requested();
}
