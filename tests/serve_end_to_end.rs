//! End-to-end serving-layer checks at the workspace level:
//!
//! 1. **Wire parity** — several concurrent clients drive a live server
//!    with CRN feedback; the final accounting must be *identical* to an
//!    in-process run of the same seed (the networked service is
//!    observationally equivalent to the library).
//! 2. **Grant-ahead parity** — at `pipeline_depth = 4`, for a
//!    deterministic and a sampling policy, the served run's recovered
//!    state (capacities and full policy state) equals the sequential
//!    in-process run.
//! 3. **Crash resume** — a server process dies with a proposal
//!    outstanding; a new server over the same directory recovers from
//!    the WAL, hands the pending round to the first network claimant,
//!    and the completed run still matches the uninterrupted reference.

use std::sync::atomic::{AtomicU64, Ordering};

use fasea::core::EventId;
use fasea::serve::{ClaimedRound, ClientConfig, ServeClient, Server, ServerConfig, ServerHandle};
use fasea::sim::{ArrangementService, DurableOptions};
use fasea::{DurableArrangementService, FsyncPolicy};
use fasea_experiments::serve_cmd::WorkloadSpec;

const ROUNDS: u64 = 200;
const CLIENTS: usize = 3;

fn spec() -> WorkloadSpec {
    spec_for("ucb")
}

fn spec_for(policy: &str) -> WorkloadSpec {
    WorkloadSpec {
        seed: 0xE2E_5EED,
        events: 10,
        dim: 3,
        policy: policy.into(),
        users: 10_000,
        model_budget_mb: 0,
        ..WorkloadSpec::default()
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fasea-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_service(dir: &std::path::Path, spec: &WorkloadSpec) -> DurableArrangementService {
    DurableArrangementService::open(
        dir,
        spec.workload().instance,
        spec.policy().unwrap(),
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
    )
    .unwrap()
}

fn start_server(dir: &std::path::Path) -> ServerHandle {
    start_server_depth(dir, &spec(), 1)
}

fn start_server_depth(
    dir: &std::path::Path,
    spec: &WorkloadSpec,
    pipeline_depth: usize,
) -> ServerHandle {
    Server::spawn(
        open_service(dir, spec),
        "127.0.0.1:0",
        ServerConfig {
            stats_interval: None,
            pipeline_depth,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn connect(addr: &str) -> ServeClient {
    ServeClient::connect(addr.to_string(), ClientConfig::default()).unwrap()
}

/// Drives rounds over a new session until the server's counter reaches
/// `rounds`.
fn drive(spec: &WorkloadSpec, addr: &str, rounds: u64, fed: &AtomicU64) {
    drive_session(spec, connect(addr), None, rounds, fed);
}

/// Plays `held`, a round `client` has already claimed, if any; then
/// claims and plays rounds until the server's counter reaches `rounds`.
fn drive_session(
    spec: &WorkloadSpec,
    mut client: ServeClient,
    mut held: Option<ClaimedRound>,
    rounds: u64,
    fed: &AtomicU64,
) {
    let workload = spec.workload();
    let coins = spec.feedback_coins();
    loop {
        let claimed = match held.take() {
            Some(claimed) => claimed,
            None => client.claim().unwrap(),
        };
        if claimed.t >= rounds {
            client.release().unwrap();
            return;
        }
        let t = claimed.t;
        let arrival = workload.arrivals.arrival(t);
        let arrangement = match claimed.pending {
            Some(pending) => pending,
            None => {
                client
                    .propose(
                        arrival.capacity,
                        workload.instance.num_events() as u32,
                        workload.instance.dim() as u32,
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
        fed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The uninterrupted in-process reference: same workload, same policy,
/// same coins.
fn reference(spec: &WorkloadSpec, rounds: u64) -> ArrangementService {
    let workload = spec.workload();
    let coins = spec.feedback_coins();
    let mut svc = ArrangementService::new(workload.instance.clone(), spec.policy().unwrap());
    for t in 0..rounds {
        let arrival = workload.arrivals.arrival(t);
        let arrangement = svc.propose(&arrival).unwrap();
        let accepts: Vec<bool> = arrangement
            .events()
            .iter()
            .map(|&v| {
                coins.uniform(t, v.index() as u64)
                    < workload.model.accept_probability(&arrival.contexts, v)
            })
            .collect();
        svc.feedback(&accepts).unwrap();
    }
    svc
}

fn triple(svc: &ArrangementService) -> (u64, u64, u64) {
    (
        svc.rounds_completed(),
        svc.accounting().total_arranged(),
        svc.accounting().total_rewards(),
    )
}

fn server_triple(addr: &str) -> (u64, u64, u64) {
    let mut client = ServeClient::connect(addr.to_string(), ClientConfig::default()).unwrap();
    let stats = client.stats().unwrap();
    (
        stats.rounds_completed,
        stats.total_arranged,
        stats.total_rewards,
    )
}

#[test]
fn concurrent_clients_match_in_process_run() {
    let dir = temp_dir("parity");
    let handle = start_server(&dir);
    let addr = handle.local_addr().to_string();
    let fed = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| drive(&spec(), &addr, ROUNDS, &fed));
        }
    });
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS, "every round fed once");
    assert_eq!(
        server_triple(&addr),
        triple(&reference(&spec(), ROUNDS)),
        "networked accounting must equal the in-process run"
    );

    // Zero protocol errors end to end.
    let metrics = handle.metrics();
    assert_eq!(metrics.protocol_errors.get(), 0);
    assert_eq!(metrics.decode_errors.get(), 0);
    assert_eq!(metrics.overloaded.get(), 0);

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none());
    assert_eq!(report.close.rounds_completed, ROUNDS);
    assert!(report.close.snapshot.is_some(), "drain must snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Grant-ahead admission (`pipeline_depth > 1`): concurrent clients
/// hold several consecutive rounds at once, yet for a deterministic
/// (`ucb`) and a sampling (`ts`) policy alike the served run equals the
/// strictly sequential in-process run — the accounting over the wire,
/// and, after reopening the directory, the capacities and the full
/// policy state including its RNG position. That pins that grant-ahead
/// never scores a round twice or forks a sampling policy's RNG. The
/// STATS response carries the `pipeline_depth` histogram the loadgen
/// prints.
#[test]
fn pipelined_admission_matches_sequential_and_reports_stats() {
    for policy in ["ucb", "ts"] {
        let spec = spec_for(policy);
        let dir = temp_dir(&format!("pipelined-{policy}"));
        let handle = start_server_depth(&dir, &spec, 4);
        let addr = handle.local_addr().to_string();
        let fed = AtomicU64::new(0);

        // Overlap deterministically: one session holds round 0 while a
        // second claims round 1, so a grant at depth 2 is always
        // recorded; then both, and the other clients, drive to the end.
        let (mut first, mut second) = (connect(&addr), connect(&addr));
        let round0 = first.claim().unwrap();
        let round1 = second.claim().unwrap();
        assert_eq!((round0.t, round1.t), (0, 1), "{policy}: grant-ahead");
        std::thread::scope(|s| {
            let (spec, fed) = (&spec, &fed);
            s.spawn(move || drive_session(spec, first, Some(round0), ROUNDS, fed));
            s.spawn(move || drive_session(spec, second, Some(round1), ROUNDS, fed));
            for _ in 2..CLIENTS {
                s.spawn(|| drive(spec, &addr, ROUNDS, fed));
            }
        });
        assert_eq!(fed.load(Ordering::Relaxed), ROUNDS, "every round fed once");
        let expected = reference(&spec, ROUNDS);
        assert_eq!(
            server_triple(&addr),
            triple(&expected),
            "{policy}: depth-4 admission must equal the sequential run"
        );

        let mut client = ServeClient::connect(addr.clone(), ClientConfig::default()).unwrap();
        let stats = client.stats().unwrap();
        let depth_hist = stats
            .histograms
            .iter()
            .find(|h| h.name == "pipeline_depth")
            .expect("STATS must export the pipeline_depth histogram");
        assert!(depth_hist.count > 0, "every grant records its depth");
        assert!(
            depth_hist.max_us > 1,
            "{policy}: concurrent clients must actually overlap rounds (observed depth > 1)"
        );
        assert!(
            stats.render().contains("hist pipeline_depth"),
            "loadgen STATS output missing the pipeline_depth histogram"
        );

        handle.initiate_shutdown();
        let report = handle.join();
        assert!(report.close.error.is_none());
        assert_eq!(report.close.rounds_completed, ROUNDS);

        let reopened = open_service(&dir, &spec);
        assert_eq!(reopened.rounds_completed(), ROUNDS);
        assert!(!reopened.has_pending());
        assert_eq!(
            reopened.service().remaining(),
            expected.remaining(),
            "{policy}: capacities diverged from the sequential run"
        );
        assert_eq!(
            reopened.service().policy().save_state(),
            expected.policy().save_state(),
            "{policy}: policy state diverged from the sequential run"
        );
        reopened.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_with_pending_round_resumes_over_the_wire() {
    let dir = temp_dir("resume");
    let crash_at: u64 = 40;

    // Phase 1: a service dies with round `crash_at` proposed but not
    // answered (drop without close = crash; the WAL holds the record).
    {
        let spec = spec();
        let workload = spec.workload();
        let coins = spec.feedback_coins();
        let mut svc = open_service(&dir, &spec);
        for t in 0..crash_at {
            let arrival = workload.arrivals.arrival(t);
            let arrangement = svc.propose(&arrival).unwrap();
            let accepts: Vec<bool> = arrangement
                .events()
                .iter()
                .map(|&v| {
                    coins.uniform(t, v.index() as u64)
                        < workload.model.accept_probability(&arrival.contexts, v)
                })
                .collect();
            svc.feedback(&accepts).unwrap();
        }
        svc.propose(&workload.arrivals.arrival(crash_at)).unwrap();
        svc.sync().unwrap();
        // svc dropped here without feedback and without close().
    }

    // Phase 2: a fresh server recovers the directory; network clients
    // pick up mid-stream. The first claimant receives the pending
    // arrangement for round `crash_at` and answers it without
    // re-proposing.
    let handle = start_server(&dir);
    let addr = handle.local_addr().to_string();
    let info = ServeClient::connect(addr.clone(), ClientConfig::default())
        .unwrap()
        .info()
        .unwrap();
    assert_eq!(info.rounds_completed, crash_at);
    assert!(info.has_pending, "handshake must advertise recovery state");

    let fed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| drive(&spec(), &addr, ROUNDS, &fed));
        }
    });
    // The pending round plus everything after it, each exactly once.
    assert_eq!(fed.load(Ordering::Relaxed), ROUNDS - crash_at);
    assert_eq!(
        server_triple(&addr),
        triple(&reference(&spec(), ROUNDS)),
        "crash + network resume must equal the uninterrupted run"
    );

    handle.initiate_shutdown();
    assert!(handle.join().close.error.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
