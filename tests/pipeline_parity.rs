//! Grant-ahead serving acceptance: a `pipeline_depth = 4` server dies
//! with the head proposal logged *and* a future round granted with a
//! buffered proposal (≥ 2 rounds in flight). Recovery must lose no
//! acked round, surface the pending proposal, and the continuation
//! must match the sequential in-process reference.
//!
//! Serve-level parity of depth > 1 against depth 1, including a
//! sampling policy's full state, lives in `tests/serve_end_to_end.rs`.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fasea::bandit::LinUcb;
use fasea::core::EventId;
use fasea::datagen::{SyntheticConfig, SyntheticWorkload};
use fasea::serve::{ClientConfig, ServeClient, Server, ServerConfig};
use fasea::sim::{ArrangementService, DurableOptions};
use fasea::{DurableArrangementService, FsyncPolicy};

const DIM: usize = 3;
const NUM_EVENTS: usize = 12;

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: 0x0009_717E_5EED,
        ..SyntheticConfig::default()
    })
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fasea-pipe-par-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// CRN acceptance for round `t` — identical no matter which engine
/// executes the round.
fn accepts_for(w: &SyntheticWorkload, t: u64, arranged: &[EventId]) -> Vec<bool> {
    let coins = fasea::stats::CoinStream::new(0xFEED_C0DE);
    let arrival = w.arrivals.arrival(t);
    arranged
        .iter()
        .map(|&v| {
            coins.uniform(t, v.index() as u64) < w.model.accept_probability(&arrival.contexts, v)
        })
        .collect()
}

fn serve_config() -> ServerConfig {
    ServerConfig {
        stats_interval: None,
        pipeline_depth: 4,
        claim_wait_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn open_serve_service(dir: &std::path::Path) -> DurableArrangementService {
    DurableArrangementService::open(
        dir,
        workload().instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
    )
    .unwrap()
}

fn drive_wire(addr: &str, rounds: u64, fed: &AtomicU64) {
    let w = workload();
    let mut client = ServeClient::connect(addr.to_string(), ClientConfig::default()).unwrap();
    loop {
        let claimed = client.claim().unwrap();
        if claimed.t >= rounds {
            client.release().unwrap();
            return;
        }
        let t = claimed.t;
        let arrival = w.arrivals.arrival(t);
        let arrangement = match claimed.pending {
            Some(pending) => pending,
            None => {
                client
                    .propose(
                        arrival.capacity,
                        w.instance.num_events() as u32,
                        w.instance.dim() as u32,
                        arrival.contexts.as_slice().to_vec(),
                    )
                    .unwrap()
                    .1
            }
        };
        let events: Vec<EventId> = arrangement.iter().map(|&v| EventId(v as usize)).collect();
        let accepts = accepts_for(&w, t, &events);
        client.feedback(&accepts).unwrap();
        fed.fetch_add(1, Ordering::Relaxed);
    }
}

fn wire_reference(rounds: u64) -> (u64, u64, u64) {
    let w = workload();
    let mut svc = ArrangementService::new(w.instance.clone(), Box::new(LinUcb::new(DIM, 1.0, 2.0)));
    for t in 0..rounds {
        let arrival = w.arrivals.arrival(t);
        let arrangement = svc.propose(&arrival).unwrap();
        let accepts = accepts_for(&w, t, arrangement.events());
        svc.feedback(&accepts).unwrap();
    }
    (
        svc.rounds_completed(),
        svc.accounting().total_arranged(),
        svc.accounting().total_rewards(),
    )
}

/// A `pipeline_depth = 4` server dies with ≥ 2 rounds in flight: the
/// head round's proposal is durably logged, and a *future* round is
/// granted with a buffered proposal that never reached the WAL. Recovery must lose no acked round, hand the
/// pending proposal to the first claimant, drop the never-executed
/// future round without a trace, and the continuation must equal the
/// sequential in-process reference.
#[test]
fn pipelined_server_crash_with_rounds_in_flight_loses_no_acked_round() {
    const ROUNDS: u64 = 90;
    const CRASH_AT: u64 = 40;
    let dir = tmp("serve-crash");
    fs::create_dir_all(&dir).unwrap();
    let w = workload();

    // Phase 1: drive to the crash round, then strand two rounds.
    {
        let handle =
            Server::spawn(open_serve_service(&dir), "127.0.0.1:0", serve_config()).unwrap();
        let addr = handle.local_addr().to_string();
        let fed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drive_wire(&addr, CRASH_AT, &fed));
            }
        });
        assert_eq!(fed.load(Ordering::Relaxed), CRASH_AT);

        // Head round CRASH_AT: proposal logged, feedback never sent.
        let mut head = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        let claimed = head.claim().unwrap();
        assert_eq!(claimed.t, CRASH_AT);
        let arrival = w.arrivals.arrival(CRASH_AT);
        head.propose(
            arrival.capacity,
            w.instance.num_events() as u32,
            w.instance.dim() as u32,
            arrival.contexts.as_slice().to_vec(),
        )
        .unwrap();

        // Future round CRASH_AT + 1: granted concurrently, its proposal
        // buffered in the actor but never executed — the second
        // in-flight round at crash time.
        let mut future = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        let claimed = future.claim().unwrap();
        assert_eq!(
            claimed.t,
            CRASH_AT + 1,
            "depth-4 server must overlap grants"
        );
        let future_thread = std::thread::spawn(move || {
            let arrival = workload().arrivals.arrival(CRASH_AT + 1);
            // Withheld until promotion, which never comes: the reply is
            // an error once the server drains. Either way the proposal
            // was buffered first, which is what the crash image needs.
            let _ = future.propose(
                arrival.capacity,
                NUM_EVENTS as u32,
                DIM as u32,
                arrival.contexts.as_slice().to_vec(),
            );
        });
        // Let the actor buffer the future proposal.
        std::thread::sleep(Duration::from_millis(300));

        drop(head);
        handle.initiate_shutdown();
        let report = handle.join();
        assert!(report.close.error.is_none());
        future_thread.join().unwrap();
    }

    // Phase 2: recovery. No acked round lost, the pending head proposal
    // survives, the buffered future round left no trace.
    let handle = Server::spawn(open_serve_service(&dir), "127.0.0.1:0", serve_config()).unwrap();
    let addr = handle.local_addr().to_string();
    let info = ServeClient::connect(addr.clone(), ClientConfig::default())
        .unwrap()
        .info()
        .unwrap();
    assert_eq!(info.rounds_completed, CRASH_AT, "an acked round was lost");
    assert!(
        info.has_pending,
        "the logged proposal must survive the crash"
    );

    let fed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| drive_wire(&addr, ROUNDS, &fed));
        }
    });
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS - CRASH_AT);

    let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        (
            stats.rounds_completed,
            stats.total_arranged,
            stats.total_rewards
        ),
        wire_reference(ROUNDS),
        "pipelined crash + resume must equal the sequential run"
    );

    handle.initiate_shutdown();
    assert!(handle.join().close.error.is_none());
    let _ = fs::remove_dir_all(&dir);
}
