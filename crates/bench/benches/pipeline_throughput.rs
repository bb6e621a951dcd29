//! Grant-ahead serving throughput at *equal durability* (every acked
//! round fsynced before the client proceeds): a loopback server at
//! `pipeline_depth` ∈ {1, 4} under four concurrent clients. Depth 1
//! admits one round at a time (each client's claim waits for the
//! previous round's feedback); depth 4 grants four consecutive rounds
//! at once, so future rounds' network turnaround and decode overlap the
//! head round. The actor stays single-threaded and executes every round
//! in order, so depth adds no compute parallelism.
//!
//! Every event has a capacity the measurement window cannot exhaust,
//! and each cell ends by asserting over STATS that no event ran dry:
//! a drained instance would time mostly empty rounds.
//!
//! Output: one line per cell on stdout, and the table through
//! [`BenchReport`] — that is how the committed `BENCH_pipeline.json` is
//! produced:
//!
//! ```text
//! FASEA_BENCH_MS=2000 FASEA_BENCH_JSON=BENCH_pipeline.json \
//!     cargo bench --bench pipeline_throughput
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fasea_bandit::LinUcb;
use fasea_bench::{budget, BenchReport, Field};
use fasea_core::EventId;
use fasea_datagen::{CapacityModel, SyntheticConfig, SyntheticWorkload};
use fasea_serve::{ClientConfig, ServeClient, Server, ServerConfig};
use fasea_sim::{DurableArrangementService, DurableOptions};
use fasea_stats::CoinStream;
use fasea_store::FsyncPolicy;

const SEED: u64 = 0x919E_5EED;
const NUM_EVENTS: usize = 30;
const DIM: usize = 5;
const CLIENTS: usize = 4;

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: SEED,
        capacity: CapacityModel {
            mean: 1e6,
            std: 0.0,
        },
        ..SyntheticConfig::default()
    })
}

fn durable_opts() -> DurableOptions {
    DurableOptions::new().with_fsync(FsyncPolicy::Always)
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fasea-bench-pipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Cell {
    depth: usize,
    clients: usize,
    rounds: u64,
    rounds_per_sec: f64,
}

fn drive_one_round(client: &mut ServeClient, workload: &SyntheticWorkload, coins: &CoinStream) {
    let claimed = client.claim().unwrap();
    let t = claimed.t;
    let arrival = workload.arrivals.arrival(t);
    let arrangement = match claimed.pending {
        Some(pending) => pending,
        None => {
            client
                .propose(
                    arrival.capacity,
                    NUM_EVENTS as u32,
                    DIM as u32,
                    arrival.contexts.as_slice().to_vec(),
                )
                .unwrap()
                .1
        }
    };
    let accepts: Vec<bool> = arrangement
        .iter()
        .map(|&v| {
            coins.uniform(t, v as u64)
                < workload
                    .model
                    .accept_probability(&arrival.contexts, EventId(v as usize))
        })
        .collect();
    client.feedback(&accepts).unwrap();
}

/// Four concurrent loopback clients against a server at the given
/// admission depth, group commit on, fsync before ack.
fn run_serve_cell(depth: usize, window: Duration) -> Cell {
    let dir = tmp(&format!("serve-{depth}"));
    let svc = DurableArrangementService::open(
        &dir,
        workload().instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        durable_opts(),
    )
    .unwrap();
    let handle = Server::spawn(
        svc,
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS,
            pipeline_depth: depth,
            stats_interval: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();

    // Warm up the connection path outside the timed window.
    {
        let wl = workload();
        let coins = CoinStream::new(SEED ^ 0xFEED);
        let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        for _ in 0..4 {
            drive_one_round(&mut client, &wl, &coins);
        }
    }

    let completed = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + window;
    crossbeam::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let addr = addr.clone();
            let completed = &completed;
            s.spawn(move |_| {
                let wl = workload();
                let coins = CoinStream::new(SEED ^ 0xFEED);
                let mut client = ServeClient::connect(
                    addr,
                    ClientConfig {
                        read_timeout: Duration::from_secs(120),
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                // At least one round per client, so a smoke-sized
                // window still drives every cell.
                loop {
                    drive_one_round(&mut client, &wl, &coins);
                    completed.fetch_add(1, Ordering::Relaxed);
                    if Instant::now() >= deadline {
                        break;
                    }
                }
            });
        }
    })
    .unwrap();
    let elapsed = started.elapsed();

    let stats = ServeClient::connect(addr, ClientConfig::default())
        .unwrap()
        .stats()
        .unwrap();
    assert_eq!(
        stats.available_events, NUM_EVENTS as u32,
        "depth {depth}: an event ran out of capacity inside the window"
    );

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none(), "{:?}", report.close.error);
    let _ = std::fs::remove_dir_all(&dir);

    let rounds = completed.load(Ordering::Relaxed);
    Cell {
        depth,
        clients: CLIENTS,
        rounds,
        rounds_per_sec: rounds as f64 / elapsed.as_secs_f64(),
    }
}

fn main() {
    let window = budget();
    let mut report = BenchReport::new("pipeline_throughput", "rounds_per_sec");
    report.meta("durability", "fsync_before_ack");
    let host_cores = report.host_cores();
    if host_cores < CLIENTS {
        println!(
            "WARNING: host has {host_cores} core(s) for {CLIENTS} loopback clients plus the \
             server's workers, actor and syncer, so clients compete with the server for CPU. \
             Depth>1 overlaps network turnaround and fsync waits, not compute (the actor \
             is single-threaded); quote its ratio together with host_cores."
        );
    }
    if host_cores == 1 {
        // `check-bench` rejects >1x speedups on a single-core host
        // unless the table says where they come from.
        report.meta(
            "caveat",
            "single-core host: clients and server share one core; depth>1 gains reflect \
             overlap with network and fsync waits only",
        );
    }

    let mut base = None;
    for depth in [1usize, 4] {
        let cell = run_serve_cell(depth, window);
        println!(
            "pipeline_throughput/serve/depth={}/clients={}   {:>8} rounds   {:>10.1} rounds/sec",
            cell.depth, cell.clients, cell.rounds, cell.rounds_per_sec,
        );
        let speedup = base.map(|base| cell.rounds_per_sec / base);
        if let Some(speedup) = speedup {
            println!("serve depth {} vs depth 1: {speedup:.2}x", cell.depth);
        } else {
            base = Some(cell.rounds_per_sec);
        }
        report.cell(vec![
            ("layer", "serve".into()),
            ("pipeline_depth", cell.depth.into()),
            ("clients", cell.clients.into()),
            ("rounds", cell.rounds.into()),
            ("rounds_per_sec", Field::fixed(cell.rounds_per_sec, 1)),
            (
                "speedup_vs_depth1",
                speedup.map(|s| Field::fixed(s, 2)).into(),
            ),
        ]);
    }
    report.write_if_requested();
}
