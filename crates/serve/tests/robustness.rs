//! Fuzz-ish robustness: hostile bytes on the wire must produce a typed
//! protocol error or a clean close — never a panic, and never corrupted
//! service state.
//!
//! Attack classes (mirroring the store's fault-injection harness, but
//! aimed at the socket instead of the log): truncated frames,
//! bit-flipped frames, oversized length prefixes, pure garbage, and
//! CRC-valid frames whose payloads are undecodable. After every attack
//! the same server must still complete a clean round, and its round
//! counter must only ever advance by the rounds *we* completed.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fasea_bandit::LinUcb;
use fasea_core::ProblemInstance;
use fasea_serve::{
    decode_request, decode_response, encode_request, encode_response, ClientConfig, ErrorCode,
    Request, Response, ServeClient, Server, ServerConfig, ServerHandle,
};
use fasea_sim::{DurableArrangementService, DurableOptions};
use fasea_store::{parse_raw_frame, write_raw_frame, FrameParse, FsyncPolicy};

const DIM: usize = 3;

fn start_server(tag: &str) -> (ServerHandle, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("fasea-serve-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let svc = DurableArrangementService::open(
        &dir,
        ProblemInstance::basic(6, DIM),
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
    )
    .unwrap();
    let config = ServerConfig {
        read_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(10),
        stats_interval: None,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(svc, "127.0.0.1:0", config).unwrap();
    (handle, dir)
}

fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Reads frames until one decodes as a response; `None` means the
/// server closed the connection cleanly instead of answering.
fn read_response(stream: &mut TcpStream) -> Option<Response> {
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match parse_raw_frame(&buf) {
            FrameParse::Frame { payload, consumed } => {
                buf.drain(..consumed);
                let (_, response) = decode_response(&payload).expect("server sent valid frame");
                return Some(response);
            }
            FrameParse::Bad { why } => panic!("server sent a corrupt frame: {why}"),
            FrameParse::NeedMore => {}
        }
        match stream.read(&mut tmp) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) => panic!("read from server failed: {e}"),
        }
    }
}

fn expect_error(stream: &mut TcpStream, want: ErrorCode) {
    match read_response(stream) {
        Some(Response::Error { code, .. }) => assert_eq!(code, want),
        Some(other) => panic!("wanted {want} error, got {other:?}"),
        None => panic!("wanted {want} error, server closed instead"),
    }
}

/// Completes one clean claim→propose→feedback round and returns the
/// round index the server assigned.
fn run_clean_round(handle: &ServerHandle) -> u64 {
    let mut client =
        ServeClient::connect(handle.local_addr().to_string(), ClientConfig::default()).unwrap();
    let claimed = client.claim().unwrap();
    let arrangement = match claimed.pending {
        Some(pending) => pending,
        None => {
            client
                .propose(2, 6, DIM as u32, vec![0.4; 6 * DIM])
                .unwrap()
                .1
        }
    };
    let accepts = vec![true; arrangement.len()];
    let (t, _) = client.feedback(&accepts).unwrap();
    assert_eq!(t, claimed.t);
    t
}

fn rounds_completed(handle: &ServerHandle) -> u64 {
    let mut client =
        ServeClient::connect(handle.local_addr().to_string(), ClientConfig::default()).unwrap();
    client.stats().unwrap().rounds_completed
}

/// Deterministic xorshift for reproducible "random" garbage.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn hostile_streams_get_typed_errors_or_clean_close() {
    let (handle, dir) = start_server("hostile");

    // 1. Pure garbage: an implausible length prefix.
    {
        let mut s = raw_connect(&handle);
        s.write_all(&[0xFF; 64]).unwrap();
        expect_error(&mut s, ErrorCode::BadFrame);
        assert_eq!(read_response(&mut s), None, "connection must close");
    }

    // 2. Oversized length field (larger than MAX_PAYLOAD).
    {
        let mut s = raw_connect(&handle);
        let mut msg = ((64u32 << 20).to_le_bytes()).to_vec();
        msg.extend_from_slice(&[0u8; 32]);
        s.write_all(&msg).unwrap();
        expect_error(&mut s, ErrorCode::BadFrame);
    }

    // 3. Bit-flipped frames: each flip must yield BadFrame (checksum
    //    catches it) or, if the flip lands in the length prefix, either
    //    BadFrame or a mid-frame timeout — never a panic or a bogus
    //    success.
    {
        let good = {
            let mut framed = Vec::new();
            write_raw_frame(&mut framed, &encode_request(1, &Request::Claim)).unwrap();
            framed
        };
        let mut rng = XorShift(0x5EED);
        for _ in 0..24 {
            let mut corrupted = good.clone();
            let bit = (rng.next() as usize) % (corrupted.len() * 8);
            corrupted[bit / 8] ^= 1 << (bit % 8);
            if corrupted == good {
                continue;
            }
            let mut s = raw_connect(&handle);
            s.write_all(&corrupted).unwrap();
            match read_response(&mut s) {
                Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
                Some(other) => panic!("corrupt frame produced {other:?}"),
                None => {} // clean close (e.g. shrunken length → stall → timeout close)
            }
        }
    }

    // 4. Truncated frame then abrupt client death: server must not care.
    {
        let good = {
            let mut framed = Vec::new();
            write_raw_frame(&mut framed, &encode_request(1, &Request::Stats)).unwrap();
            framed
        };
        let mut s = raw_connect(&handle);
        s.write_all(&good[..good.len() / 2]).unwrap();
        drop(s); // vanish mid-frame
    }

    // 5. CRC-valid frame, undecodable payload (unknown verb): typed
    //    error AND the session survives to speak proper protocol.
    {
        let mut s = raw_connect(&handle);
        let mut framed = Vec::new();
        write_raw_frame(&mut framed, &[0x42u8, 1, 2, 3]).unwrap();
        s.write_all(&framed).unwrap();
        expect_error(&mut s, ErrorCode::BadFrame);
        let mut hello = Vec::new();
        write_raw_frame(
            &mut hello,
            &encode_request(
                9,
                &Request::Hello {
                    magic: fasea_serve::CLIENT_MAGIC,
                    version: fasea_serve::PROTOCOL_VERSION,
                },
            ),
        )
        .unwrap();
        s.write_all(&hello).unwrap();
        match read_response(&mut s) {
            Some(Response::HelloOk { .. }) => {}
            other => panic!("session should survive a decodable-frame error: {other:?}"),
        }
    }

    // 6. Bad handshake values: typed BadHello.
    {
        let mut s = raw_connect(&handle);
        let mut framed = Vec::new();
        write_raw_frame(
            &mut framed,
            &encode_request(
                1,
                &Request::Hello {
                    magic: 0xDEAD_BEEF,
                    version: 99,
                },
            ),
        )
        .unwrap();
        s.write_all(&framed).unwrap();
        expect_error(&mut s, ErrorCode::BadHello);
    }

    // 7. Protocol-state abuse: feedback without owning a round.
    {
        let mut client =
            ServeClient::connect(handle.local_addr().to_string(), ClientConfig::default()).unwrap();
        let err = client.feedback(&[true]).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::NotRoundOwner));
    }

    // None of the above advanced the round counter; a clean round still
    // works and lands at t = 0.
    assert_eq!(rounds_completed(&handle), 0);
    assert_eq!(run_clean_round(&handle), 0);
    assert_eq!(rounds_completed(&handle), 1);

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none());
    assert_eq!(report.close.rounds_completed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A group-commit server must serve rounds with deferred acks, surface
/// the commit histograms through `STATS`, run its periodic background
/// snapshots, and — on graceful drain — join the commit syncer and
/// snapshotter threads (this is the only test in this binary that
/// creates them, so the process-wide liveness counters are ours).
#[test]
fn group_commit_server_defers_acks_and_drains_cleanly() {
    let dir = std::env::temp_dir().join(format!("fasea-serve-robust-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let svc = DurableArrangementService::open(
        &dir,
        ProblemInstance::basic(6, DIM),
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new()
            .with_fsync(FsyncPolicy::Always)
            .with_group_commit(true),
    )
    .unwrap();
    let config = ServerConfig {
        read_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(10),
        stats_interval: None,
        snapshot_every_rounds: Some(3),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(svc, "127.0.0.1:0", config).unwrap();
    assert!(
        fasea_sim::live_snapshotters() >= 1,
        "group-commit server should have spawned its snapshotter"
    );
    assert!(
        fasea_store::live_commit_syncers() >= 1,
        "group-commit server should have spawned its commit syncer"
    );

    const ROUNDS: u64 = 8;
    for t in 0..ROUNDS {
        assert_eq!(run_clean_round(&handle), t);
    }

    // The commit histograms are visible through STATS and have seen
    // every logged record (2 per round, plus snapshot markers).
    let stats = {
        let mut client =
            ServeClient::connect(handle.local_addr().to_string(), ClientConfig::default()).unwrap();
        client.stats().unwrap()
    };
    assert_eq!(stats.rounds_completed, ROUNDS);
    let batch = stats
        .histograms
        .iter()
        .find(|h| h.name == "fsync_batch_size")
        .expect("STATS must carry the fsync_batch_size histogram");
    assert!(batch.count > 0, "no group-commit batches were observed");
    assert!(
        batch.sum_us >= 2 * ROUNDS,
        "batches covered {} records, want at least {}",
        batch.sum_us,
        2 * ROUNDS
    );
    let latency = stats
        .histograms
        .iter()
        .find(|h| h.name == "commit_latency_us")
        .expect("STATS must carry the commit_latency_us histogram");
    assert_eq!(
        latency.count, batch.count,
        "one latency observation per batch"
    );

    handle.initiate_shutdown();
    let report = handle.join();
    assert!(report.close.error.is_none(), "{:?}", report.close.error);
    assert_eq!(report.close.rounds_completed, ROUNDS);
    assert!(report.close.snapshot.is_some());
    // Graceful drain joined the pipeline threads.
    assert_eq!(
        fasea_store::live_commit_syncers(),
        0,
        "drain left the commit syncer running"
    );
    assert_eq!(
        fasea_sim::live_snapshotters(),
        0,
        "drain left the snapshotter running"
    );

    // Every acked round survived: reopening replays to the same count.
    let reopened = DurableArrangementService::open(
        &dir,
        ProblemInstance::basic(6, DIM),
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        DurableOptions::new()
            .with_fsync(FsyncPolicy::Always)
            .with_group_commit(true),
    )
    .unwrap();
    assert_eq!(reopened.rounds_completed(), ROUNDS);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decoder-level fuzzing, no sockets: random mutations of valid
/// payloads must decode to the original, a different valid message, or
/// a typed violation — never panic. (Response payloads too: the client
/// decodes untrusted server bytes.)
#[test]
fn decoder_survives_bit_flips_and_garbage() {
    let requests = [
        encode_request(
            1,
            &Request::Hello {
                magic: fasea_serve::CLIENT_MAGIC,
                version: 1,
            },
        ),
        encode_request(2, &Request::Claim),
        encode_request(
            3,
            &Request::Propose {
                user_capacity: 2,
                num_events: 3,
                dim: 2,
                contexts: vec![0.1; 6],
            },
        ),
        encode_request(
            4,
            &Request::Feedback {
                accepts: vec![true, false],
            },
        ),
    ];
    let responses = [
        encode_response(
            1,
            &Response::Claimed {
                t: 7,
                pending: Some(vec![2, 0]),
            },
        ),
        encode_response(
            2,
            &Response::Error {
                code: ErrorCode::Overloaded,
                detail: "q".into(),
            },
        ),
    ];
    let mut rng = XorShift(0xFA5E_A5EE_D000_0001);
    for payload in &requests {
        for _ in 0..500 {
            let mut mutated = payload.clone();
            for _ in 0..=(rng.next() % 3) {
                let bit = (rng.next() as usize) % (mutated.len() * 8);
                mutated[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = decode_request(&mutated); // must not panic
            let truncated = &mutated[..(rng.next() as usize) % (mutated.len() + 1)];
            let _ = decode_request(truncated);
        }
    }
    for payload in &responses {
        for _ in 0..500 {
            let mut mutated = payload.clone();
            let bit = (rng.next() as usize) % (mutated.len() * 8);
            mutated[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_response(&mutated);
        }
    }
    // Pure garbage of many lengths.
    for len in 0..64 {
        let junk: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = decode_request(&junk);
        let _ = decode_response(&junk);
    }
}
