//! Crash-recovery acceptance suite for the durable arrangement service.
//!
//! Three families of tests, all driven end-to-end through the `fasea`
//! facade:
//!
//! 1. **Kill matrix** — a 500-round reference run is killed at *every*
//!    record boundary of its WAL; each truncated copy is recovered and
//!    its capacities, round counter, regret accounting and full policy
//!    state (estimator + RNG position) must match the uninterrupted
//!    reference at that exact point, with no round ever re-proposed.
//! 2. **Fault matrix** — torn writes, bit flips and appended garbage
//!    injected with [`fasea::store::FaultFile`]; recovery must never
//!    panic, must keep only CRC-intact prefixes, and must reject
//!    damage that sits *before* acknowledged history.
//! 3. **Golden determinism** — a run crashed twice (once between
//!    rounds, once mid-proposal) and recovered must end with regret
//!    accounting and policy state byte-identical to an uninterrupted
//!    run with the same seed.
//! 4. **Group-commit matrix** — the same kill-at-every-boundary drill
//!    against a *pipelined* run (deferred acks outstanding, commit
//!    queue non-empty, batches torn mid-record), plus crashes on both
//!    sides of the async snapshotter's temp-file rename. The pipelined
//!    run must recover byte-identically from every prefix and never
//!    lose a round whose feedback acknowledgement was released.
//! 5. **Round edges** — a snapshot taken with a proposal pending (whose
//!    context block keeps only the arranged rows), and a non-finite
//!    context refused before anything is logged; both reopen to the
//!    uninterrupted run's digest.

use fasea::bandit::{Policy, ThompsonSampling};
use fasea::core::{
    Arrangement, ConflictGraph, ContextMatrix, EventId, ProblemInstance, ProblemMode, UserArrival,
};
use fasea::sim::DurableOptions;
use fasea::store::{wal, FaultFile, StoreError};
use fasea::{DurableArrangementService, FsyncPolicy, ServiceError};
use std::fs;
use std::path::{Path, PathBuf};

const NUM_EVENTS: usize = 8;
const DIM: usize = 3;
const SEED: u64 = 20170514;

fn instance() -> ProblemInstance {
    ProblemInstance::new(
        vec![400; NUM_EVENTS],
        ConflictGraph::from_pairs(NUM_EVENTS, &[(0, 5), (2, 6), (3, 7)]),
        DIM,
        ProblemMode::Fasea,
    )
}

fn policy() -> Box<dyn Policy> {
    // Thompson Sampling: the RNG-heaviest policy, so recovery must
    // restore the exact sampler position, not just the estimator.
    Box::new(ThompsonSampling::new(DIM, 1.0, 0.1, SEED))
}

fn arrival(round: u64) -> UserArrival {
    let mut ctx = ContextMatrix::from_fn(NUM_EVENTS, DIM, |v, j| {
        let x = (round as usize)
            .wrapping_mul(31)
            .wrapping_add(v * 7 + j * 13)
            % 101;
        x as f64 / 101.0 - 0.35
    });
    ctx.normalize_rows();
    UserArrival::new(2, ctx)
}

fn accepts_for(round: u64, a: &Arrangement) -> Vec<bool> {
    a.iter()
        .map(|v| (round as usize + 2 * v.index()).is_multiple_of(3))
        .collect()
}

fn run_rounds(svc: &mut DurableArrangementService, upto: u64) {
    while svc.rounds_completed() < upto {
        let round = svc.rounds_completed();
        if svc.has_pending() {
            let pending = svc.pending_arrangement().unwrap().clone();
            svc.feedback(&accepts_for(round, &pending)).unwrap();
            continue;
        }
        let a = svc.propose(&arrival(round)).unwrap();
        svc.feedback(&accepts_for(round, &a)).unwrap();
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fasea-recovery-{name}-{}", std::process::id()))
}

/// Everything that must survive a crash, captured from a live service.
#[derive(Debug, Clone, PartialEq)]
struct StateDigest {
    t: u64,
    remaining: Vec<u32>,
    rounds: u64,
    arranged: u64,
    rewards: u64,
    has_pending: bool,
    policy_state: Vec<u8>,
}

fn digest(svc: &DurableArrangementService) -> StateDigest {
    let acc = svc.service().accounting();
    StateDigest {
        t: svc.rounds_completed(),
        remaining: svc.service().remaining().to_vec(),
        rounds: acc.rounds(),
        arranged: acc.total_arranged(),
        rewards: acc.total_rewards(),
        has_pending: svc.has_pending(),
        policy_state: svc.service().policy().save_state(),
    }
}

#[test]
fn kill_at_every_record_boundary_recovers_exactly() {
    const ROUNDS: u64 = 500;
    let ref_dir = tmp("kill-ref");
    let _ = fs::remove_dir_all(&ref_dir);
    // One segment so the whole history is a single kill target.
    let opts = DurableOptions::new()
        .with_segment_bytes(u64::MAX)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshots_kept(1);

    // Reference run, capturing the expected state after the k-th record
    // (k = 0 is the freshly-opened service; odd k ends mid-round).
    let mut expected: Vec<StateDigest> = Vec::with_capacity(2 * ROUNDS as usize + 1);
    {
        let mut svc =
            DurableArrangementService::open(&ref_dir, instance(), policy(), opts).unwrap();
        expected.push(digest(&svc));
        for round in 0..ROUNDS {
            let a = svc.propose(&arrival(round)).unwrap();
            expected.push(digest(&svc));
            svc.feedback(&accepts_for(round, &a)).unwrap();
            expected.push(digest(&svc));
        }
        svc.sync().unwrap();
    }

    let fingerprint = {
        let svc = DurableArrangementService::open(&ref_dir, instance(), policy(), opts).unwrap();
        svc.fingerprint()
    };
    let (records, boundaries, torn) = wal::scan(&ref_dir, fingerprint).unwrap();
    assert_eq!(records.len(), 2 * ROUNDS as usize);
    assert_eq!(boundaries.len(), 2 * ROUNDS as usize + 1);
    assert!(torn.is_none());
    let reference_final = expected.last().unwrap().clone();

    let scratch = tmp("kill-scratch");
    for (k, (segment, offset)) in boundaries.iter().enumerate() {
        // Kill the process after exactly k records reached the disk.
        copy_dir(&ref_dir, &scratch);
        let victim = FaultFile::new(scratch.join(segment.file_name().unwrap()));
        victim.torn_write(*offset).unwrap();

        let mut svc =
            DurableArrangementService::open(&scratch, instance(), policy(), opts).unwrap();
        let got = digest(&svc);
        assert_eq!(
            got, expected[k],
            "state mismatch after kill at record boundary {k}"
        );
        assert_eq!(
            got.has_pending,
            k % 2 == 1,
            "pending parity wrong at boundary {k}"
        );

        // No round is ever double-proposed: with a pending proposal the
        // service refuses a new one; without, the next proposal is for
        // the next uncompleted round.
        if got.has_pending {
            assert!(matches!(
                svc.propose(&arrival(got.t)),
                Err(ServiceError::FeedbackPending)
            ));
        }

        // For a spread of prefixes, finish the run and require the end
        // state to be byte-identical to the uninterrupted reference.
        if k % 83 == 0 || k == boundaries.len() - 1 {
            run_rounds(&mut svc, ROUNDS);
            assert_eq!(
                digest(&svc),
                reference_final,
                "continuation from boundary {k} diverged from the reference run"
            );
        }
    }

    fs::remove_dir_all(&ref_dir).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn group_commit_kill_matrix_recovers_exactly() {
    const ROUNDS: u64 = 80;
    let group_opts = DurableOptions::new()
        .with_segment_bytes(u64::MAX)
        .with_fsync(FsyncPolicy::Always)
        .with_snapshots_kept(1);

    // Reference run through the pipelined API: state advances while
    // earlier batches are still in flight, so at any instant the commit
    // queue may be non-empty — exactly the "ack computed, fsync
    // pending" window the serve actor lives in. Every 16 rounds the run
    // acknowledges the way the actor does (wait for the feedback LSN to
    // be covered by the watermark) and records how much history was
    // necessarily on disk at that moment.
    let ref_dir = tmp("gc-kill-ref");
    let _ = fs::remove_dir_all(&ref_dir);
    let mut expected: Vec<StateDigest> = Vec::with_capacity(2 * ROUNDS as usize + 1);
    // (records on disk when the ack was released, rounds acked by then)
    let mut acked: Vec<(u64, u64)> = Vec::new();
    {
        let mut svc =
            DurableArrangementService::open(&ref_dir, instance(), policy(), group_opts).unwrap();
        expected.push(digest(&svc));
        for round in 0..ROUNDS {
            let (a, propose_lsn) = svc.propose_deferred(&arrival(round)).unwrap();
            assert_eq!(propose_lsn, 2 * round, "propose LSN must be the WAL seq");
            expected.push(digest(&svc));
            let (_, feedback_lsn) = svc.feedback_deferred(&accepts_for(round, &a)).unwrap();
            assert_eq!(feedback_lsn, 2 * round + 1);
            expected.push(digest(&svc));
            if (round + 1).is_multiple_of(16) {
                // The ack point: once this returns, every record up to
                // and including feedback_lsn is on stable storage, so
                // any later crash image contains them.
                svc.wait_durable(feedback_lsn).unwrap();
                assert!(svc.durable_lsn() > feedback_lsn);
                acked.push((feedback_lsn + 1, round + 1));
            }
        }
        svc.sync().unwrap();
        assert_eq!(svc.durable_lsn(), 2 * ROUNDS);
        // Crash, not close: drop drains the queue but writes no
        // snapshot, leaving the bare log a kill would leave.
    }

    let fingerprint = {
        let svc =
            DurableArrangementService::open(&ref_dir, instance(), policy(), group_opts).unwrap();
        svc.fingerprint()
    };
    let (records, boundaries, torn) = wal::scan(&ref_dir, fingerprint).unwrap();
    assert_eq!(records.len(), 2 * ROUNDS as usize);
    assert!(torn.is_none());
    let reference_final = expected.last().unwrap().clone();

    let scratch = tmp("gc-kill-scratch");
    for (k, (segment, offset)) in boundaries.iter().enumerate() {
        // Kill with exactly k records on disk — every reachable crash
        // image of the pipelined run is some such prefix.
        copy_dir(&ref_dir, &scratch);
        FaultFile::new(scratch.join(segment.file_name().unwrap()))
            .torn_write(*offset)
            .unwrap();

        let mut svc =
            DurableArrangementService::open(&scratch, instance(), policy(), group_opts).unwrap();
        let got = digest(&svc);
        assert_eq!(
            got, expected[k],
            "state mismatch after group-commit kill at record boundary {k}"
        );

        // No acked round lost: when round r's ack was released the log
        // already held `recs` records, so only boundaries k ≥ recs are
        // reachable afterwards — and at those, recovery must retain
        // every acked round.
        let floor = acked
            .iter()
            .filter(|&&(recs, _)| recs <= k as u64)
            .map(|&(_, rounds)| rounds)
            .max()
            .unwrap_or(0);
        assert!(
            got.t >= floor,
            "boundary {k} lost an acked round: recovered t = {} < {floor}",
            got.t
        );

        if got.has_pending {
            assert!(matches!(
                svc.propose(&arrival(got.t)),
                Err(ServiceError::FeedbackPending)
            ));
        }

        // For a spread of prefixes, re-drive through the group pipeline
        // to the end: compute-then-log means the recovered RNG re-draws
        // the lost suffix identically.
        if k % 37 == 0 || k == boundaries.len() - 1 {
            run_rounds(&mut svc, ROUNDS);
            assert_eq!(
                digest(&svc),
                reference_final,
                "continuation from boundary {k} diverged from the reference run"
            );
        }
    }

    // A batch torn *mid-record* — the crash landed part-way through the
    // syncer's batched write — must recover to the last complete
    // record, never to a half-applied one.
    for k in [4usize, 37, 90, 2 * ROUNDS as usize - 1] {
        let (segment, next_off) = &boundaries[k + 1];
        copy_dir(&ref_dir, &scratch);
        FaultFile::new(scratch.join(segment.file_name().unwrap()))
            .torn_write(next_off - 3)
            .unwrap();
        let svc =
            DurableArrangementService::open(&scratch, instance(), policy(), group_opts).unwrap();
        assert_eq!(
            digest(&svc),
            expected[k],
            "mid-record cut inside record {k} must land on boundary {k}"
        );
    }

    fs::remove_dir_all(&ref_dir).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn group_commit_snapshot_crash_points_recover() {
    const ROUNDS: u64 = 60;
    const CRASH_AT: u64 = 40;
    let opts = DurableOptions::new()
        .with_segment_bytes(4096)
        .with_fsync(FsyncPolicy::Always)
        .with_snapshots_kept(2);

    // Base image: a multi-segment group-commit log up to round 40,
    // dropped without close so no snapshot exists yet.
    let base = tmp("gc-snap-base");
    let _ = fs::remove_dir_all(&base);
    let at_crash = {
        let mut svc = DurableArrangementService::open(&base, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, CRASH_AT);
        svc.sync().unwrap();
        digest(&svc)
    };

    // Reference: continue the base image untouched to the end.
    let reference_final = {
        let cont = tmp("gc-snap-cont");
        copy_dir(&base, &cont);
        let mut svc = DurableArrangementService::open(&cont, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, ROUNDS);
        let d = digest(&svc);
        drop(svc);
        fs::remove_dir_all(&cont).unwrap();
        d
    };

    // Crash *before* the rename: the snapshotter died after writing its
    // temp file. The orphan `.tmp-<pid>` must be ignored — recovery
    // replays the intact WAL as if no snapshot was ever attempted.
    {
        let scratch = tmp("gc-snap-prerename");
        copy_dir(&base, &scratch);
        fs::write(
            scratch.join(format!("snap-{:020}.tmp-{}", 2 * CRASH_AT, 12345)),
            b"half-written snapshot image from a dead snapshotter",
        )
        .unwrap();
        let mut svc =
            DurableArrangementService::open(&scratch, instance(), policy(), opts).unwrap();
        assert_eq!(
            digest(&svc),
            at_crash,
            "orphan snapshot temp file changed recovery"
        );

        // Re-drive to the end with a *live* async snapshot mid-way: the
        // published-seq watermark must advance and the snapshot must
        // not perturb the arrangement state.
        run_rounds(&mut svc, 50);
        svc.snapshot_async().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while svc.snapshot_published_seq() < 100 {
            assert!(
                std::time::Instant::now() < deadline,
                "async snapshot never published (seq = {})",
                svc.snapshot_published_seq()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        run_rounds(&mut svc, ROUNDS);
        assert_eq!(digest(&svc), reference_final);
        drop(svc);

        // And the snapshot it published must itself recover exactly.
        let svc = DurableArrangementService::open(&scratch, instance(), policy(), opts).unwrap();
        assert_eq!(digest(&svc), reference_final);
        drop(svc);
        fs::remove_dir_all(&scratch).unwrap();
    }

    // Crash *after* the rename but before WAL compaction: the snapshot
    // file is live while the full pre-snapshot history is still on
    // disk. Recovery must load the snapshot and skip every record below
    // its seq instead of double-applying them.
    {
        let snap_src = tmp("gc-snap-src");
        copy_dir(&base, &snap_src);
        let snap_path = {
            let mut svc =
                DurableArrangementService::open(&snap_src, instance(), policy(), opts).unwrap();
            svc.snapshot().unwrap()
        };
        let scratch = tmp("gc-snap-postrename");
        copy_dir(&base, &scratch);
        fs::copy(&snap_path, scratch.join(snap_path.file_name().unwrap())).unwrap();
        let mut svc =
            DurableArrangementService::open(&scratch, instance(), policy(), opts).unwrap();
        assert_eq!(
            digest(&svc),
            at_crash,
            "snapshot + uncompacted history must not double-apply records"
        );
        run_rounds(&mut svc, ROUNDS);
        assert_eq!(digest(&svc), reference_final);
        drop(svc);
        fs::remove_dir_all(&snap_src).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }

    fs::remove_dir_all(&base).unwrap();
}

#[test]
fn fault_matrix_torn_writes_bit_flips_and_garbage() {
    const ROUNDS: u64 = 40;
    let ref_dir = tmp("fault-ref");
    let _ = fs::remove_dir_all(&ref_dir);
    let opts = DurableOptions::new()
        .with_segment_bytes(u64::MAX)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshots_kept(1);
    {
        let mut svc =
            DurableArrangementService::open(&ref_dir, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, ROUNDS);
        svc.sync().unwrap();
    }
    let segment = fs::read_dir(&ref_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .unwrap()
        .file_name();
    let full_len = fs::metadata(ref_dir.join(&segment)).unwrap().len();

    let scratch = tmp("fault-scratch");
    let reopen = |dir: &Path| DurableArrangementService::open(dir, instance(), policy(), opts);

    // Torn writes at a spread of byte lengths. A file cut inside its
    // own header is rejected (headers are fsynced at creation, so a
    // short header means tampering, not a crash); any cut after the
    // header recovers a prefix and the service stays usable.
    let mut keep = 0u64;
    while keep < full_len {
        copy_dir(&ref_dir, &scratch);
        FaultFile::new(scratch.join(&segment))
            .torn_write(keep)
            .unwrap();
        if keep < 32 {
            assert!(matches!(
                reopen(&scratch),
                Err(ServiceError::Store(StoreError::CorruptSegment { .. }))
            ));
        } else {
            let mut svc = reopen(&scratch)
                .unwrap_or_else(|e| panic!("torn write at {keep} bytes must recover, got {e}"));
            assert!(svc.rounds_completed() <= ROUNDS);
            let target = svc.rounds_completed() + 3;
            run_rounds(&mut svc, target);
        }
        keep += 611; // co-prime with the record sizes: hits every phase
    }

    // Single bit flips across the file: never a panic — either a
    // longest-intact-prefix recovery or a typed store error.
    let mut offset = 1u64;
    while offset < full_len {
        copy_dir(&ref_dir, &scratch);
        FaultFile::new(scratch.join(&segment))
            .flip_bit(offset, (offset % 8) as u8)
            .unwrap();
        match reopen(&scratch) {
            Ok(mut svc) => {
                assert!(svc.rounds_completed() <= ROUNDS);
                let target = svc.rounds_completed() + 3;
                run_rounds(&mut svc, target);
            }
            Err(ServiceError::Store(_)) | Err(ServiceError::Snapshot(_)) => {}
            Err(other) => panic!("bit flip at offset {offset} surfaced {other}"),
        }
        offset += 467;
    }

    // Garbage appended past the clean tail is discarded as torn.
    copy_dir(&ref_dir, &scratch);
    FaultFile::new(scratch.join(&segment))
        .append_garbage(&[0xAB; 37])
        .unwrap();
    let svc = reopen(&scratch).unwrap();
    assert_eq!(svc.rounds_completed(), ROUNDS);

    fs::remove_dir_all(&ref_dir).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn corruption_before_acknowledged_history_is_rejected() {
    // Multi-segment log; damage in a *non-final* segment must be a
    // refusal, not a silent truncation that forks history.
    let dir = tmp("nonfinal");
    let _ = fs::remove_dir_all(&dir);
    let opts = DurableOptions::new()
        .with_segment_bytes(2048)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshots_kept(1);
    {
        let mut svc = DurableArrangementService::open(&dir, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, 60);
        svc.sync().unwrap();
    }
    let mut segments: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "test needs a rotated log");

    // Flip a record byte in the first (oldest) segment.
    FaultFile::new(&segments[0]).flip_bit(100, 3).unwrap();
    match DurableArrangementService::open(&dir, instance(), policy(), opts) {
        Err(ServiceError::Store(StoreError::CorruptSegment { .. })) => {}
        other => panic!("expected CorruptSegment, got {:?}", other.map(|_| ())),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_crashed_run_matches_uninterrupted_run_exactly() {
    const ROUNDS: u64 = 300;
    let snapshot_at = |svc: &mut DurableArrangementService| {
        if svc.rounds_completed().is_multiple_of(75) && svc.rounds_completed() > 0 {
            svc.snapshot().unwrap();
        }
    };
    let opts = DurableOptions::new()
        .with_segment_bytes(8192)
        .with_fsync(FsyncPolicy::EveryN(8))
        .with_snapshots_kept(2);

    // Uninterrupted reference.
    let dir_a = tmp("golden-a");
    let _ = fs::remove_dir_all(&dir_a);
    let reference = {
        let mut svc = DurableArrangementService::open(&dir_a, instance(), policy(), opts).unwrap();
        while svc.rounds_completed() < ROUNDS {
            let round = svc.rounds_completed();
            let a = svc.propose(&arrival(round)).unwrap();
            svc.feedback(&accepts_for(round, &a)).unwrap();
            snapshot_at(&mut svc);
        }
        digest(&svc)
    };

    // Same seed, crashed twice: once between rounds, once mid-proposal.
    let dir_b = tmp("golden-b");
    let _ = fs::remove_dir_all(&dir_b);
    {
        let mut svc = DurableArrangementService::open(&dir_b, instance(), policy(), opts).unwrap();
        while svc.rounds_completed() < 137 {
            let round = svc.rounds_completed();
            let a = svc.propose(&arrival(round)).unwrap();
            svc.feedback(&accepts_for(round, &a)).unwrap();
            snapshot_at(&mut svc);
        }
        // Crash #1: drop between rounds.
    }
    {
        let mut svc = DurableArrangementService::open(&dir_b, instance(), policy(), opts).unwrap();
        assert_eq!(svc.rounds_completed(), 137);
        while svc.rounds_completed() < 190 {
            let round = svc.rounds_completed();
            let a = svc.propose(&arrival(round)).unwrap();
            svc.feedback(&accepts_for(round, &a)).unwrap();
            snapshot_at(&mut svc);
        }
        let _ = svc.propose(&arrival(190)).unwrap();
        // Crash #2: drop with the proposal for round 190 outstanding.
    }
    let crashed = {
        let mut svc = DurableArrangementService::open(&dir_b, instance(), policy(), opts).unwrap();
        assert!(
            svc.has_pending(),
            "mid-proposal crash must surface the pending round"
        );
        while svc.rounds_completed() < ROUNDS {
            let round = svc.rounds_completed();
            let a = if let Some(p) = svc.pending_arrangement() {
                p.clone()
            } else {
                svc.propose(&arrival(round)).unwrap()
            };
            svc.feedback(&accepts_for(round, &a)).unwrap();
            snapshot_at(&mut svc);
        }
        digest(&svc)
    };

    // Byte-identical regret accounting *and* policy state: the crashed
    // run is indistinguishable from the uninterrupted one.
    assert_eq!(crashed, reference);
    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn snapshot_with_a_pending_proposal_recovers_exactly() {
    // The service keeps only the arranged rows of a pending proposal's
    // context block; a snapshot taken mid-round must still carry what
    // the round's feedback needs to update the learner identically.
    const ROUNDS: u64 = 120;
    let opts = DurableOptions::new().with_fsync(FsyncPolicy::EveryN(8));

    let dir_a = tmp("pending-snap-a");
    let _ = fs::remove_dir_all(&dir_a);
    let reference = {
        let mut svc = DurableArrangementService::open(&dir_a, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, ROUNDS);
        digest(&svc)
    };

    let dir_b = tmp("pending-snap-b");
    let _ = fs::remove_dir_all(&dir_b);
    let at_crash = {
        let mut svc = DurableArrangementService::open(&dir_b, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, 57);
        let a = svc.propose(&arrival(57)).unwrap();
        svc.snapshot().unwrap();
        let (pending, block) = svc.service().pending().unwrap();
        assert_eq!(pending, &a);
        for v in (0..NUM_EVENTS).map(EventId).filter(|&v| !a.contains(v)) {
            assert!(block.context(v).iter().all(|&x| x == 0.0));
        }
        digest(&svc)
        // Crash: dropped with round 57 outstanding, just after the
        // snapshot that covers it.
    };
    let mut svc = DurableArrangementService::open(&dir_b, instance(), policy(), opts).unwrap();
    assert_eq!(digest(&svc), at_crash);
    assert!(
        svc.has_pending(),
        "the snapshot's pending round must be restored"
    );
    run_rounds(&mut svc, ROUNDS);
    assert_eq!(digest(&svc), reference);
    drop(svc);
    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn non_finite_context_is_refused_and_logs_nothing() {
    // A NaN used to pass `propose`, reach the log, and panic in the
    // estimator at feedback — and again on every replay. It must now be
    // refused before `select`: nothing logged, no RNG drawn, the next
    // round proceeds, and a reopen recovers byte-identically.
    const ROUNDS: u64 = 60;
    let opts = DurableOptions::new().with_fsync(FsyncPolicy::EveryN(8));

    let dir_a = tmp("nonfinite-a");
    let _ = fs::remove_dir_all(&dir_a);
    let reference = {
        let mut svc = DurableArrangementService::open(&dir_a, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, ROUNDS);
        digest(&svc)
    };

    let dir_b = tmp("nonfinite-b");
    let _ = fs::remove_dir_all(&dir_b);
    let before_drop = {
        let mut svc = DurableArrangementService::open(&dir_b, instance(), policy(), opts).unwrap();
        run_rounds(&mut svc, 25);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = arrival(25);
            bad.contexts.context_mut(EventId(4))[1] = poison;
            let seq = svc.next_seq();
            assert_eq!(svc.propose(&bad), Err(ServiceError::ContextShapeMismatch));
            assert_eq!(svc.next_seq(), seq, "a refused round must log nothing");
            assert!(!svc.has_pending());
        }
        run_rounds(&mut svc, ROUNDS);
        digest(&svc)
    };
    assert_eq!(before_drop, reference);
    let svc = DurableArrangementService::open(&dir_b, instance(), policy(), opts).unwrap();
    assert_eq!(digest(&svc), reference);
    drop(svc);
    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}
