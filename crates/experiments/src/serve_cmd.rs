//! `fasea-exp serve` and `fasea-exp loadgen` — run the FASEA network
//! service and drive load against it.
//!
//! Both sides derive the *same* synthetic workload from `--seed`
//! (instance, payoff model, arrival stream), and the loadgen computes
//! feedback with common random numbers keyed on `(t, v)` exactly like
//! [`fasea_core::Environment`]. Because contexts travel the wire as
//! exact IEEE-754 bytes and rounds execute strictly sequentially, the
//! server's final accept/regret accounting is **byte-identical** to an
//! in-process run of the same seed — `loadgen --verify-local` checks
//! precisely that.
//!
//! ```text
//! fasea-exp serve   [--addr HOST:PORT] [--dir DIR] [--seed S] [--events N]
//!                   [--dim D] [--workers N]
//!                   [--policy ucb|ts|egreedy|multi-ucb|multi-ts]
//!                   [--users N] [--model-budget-mb M]
//!                   [--cohorts N] [--cohort-folds K]
//!                   [--state exact|sketched] [--sketch-rank R]
//!                   [--fsync always|everyn|never]
//!                   [--snapshot-every N]
//!                   [--shards N] [--oracle greedy|tabu]
//!                   [--churn N] [--churn-horizon H]
//!                   [--pipeline-depth N]
//! fasea-exp loadgen [--addr HOST:PORT] [--rounds N] [--clients N] [--seed S]
//!                   [--events N] [--dim D] [--policy ...] [--users N]
//!                   [--cohorts N] [--cohort-folds K]
//!                   [--state exact|sketched] [--sketch-rank R]
//!                   [--verify-local] [--shutdown]
//!                   [--oracle greedy|tabu] [--churn N] [--churn-horizon H]
//! ```
//!
//! `--oracle` swaps the arrangement oracle (non-greedy oracles perturb
//! the fingerprint, so both sides must agree); `--churn N` drives a
//! deterministic event-lifecycle schedule — the server re-plans
//! capacities at each round boundary and logs every applied action as a
//! durable `Lifecycle` record, and the loadgen's `--verify-local`
//! replica replays the identical schedule in-process.
//!
//! The `multi-*` policies route every estimator lookup through a
//! `fasea-models` [`EstimatorStore`] keyed on a deterministic
//! round → user schedule over `--users` recurring users;
//! `--model-budget-mb` bounds the hot tier, spilling cold models to
//! `DIR/model-spill` through the store's CRC-framed log. `--cohorts`
//! turns on the store's three-level cohort prior chain and `--state
//! sketched` demotes private state as rank-`--sketch-rank` sketches;
//! both change decisions, so they perturb the wire fingerprint and
//! must match between server and loadgen. `--verify-local` requires
//! `--state exact`: sketched demotions trade bit-parity for regret
//! parity, so the unbounded in-process replica cannot match a
//! budgeted sketched server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fasea_bandit::{EpsilonGreedy, LinUcb, Policy, ThompsonSampling};
use fasea_core::EventId;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_models::{EstimatorStore, PersonalizedTs, PersonalizedUcb, StoreConfig, UserSchedule};
use fasea_serve::{
    BackendService, ClientConfig, ClientError, ErrorCode, ServeClient, Server, ServerConfig,
    WireStats,
};
use fasea_shard::ShardedArrangementService;
use fasea_sim::{
    service_fingerprint_with_oracle, ArrangementService, DurableArrangementService, DurableOptions,
};
use fasea_stats::crn::mix64;
use fasea_stats::CoinStream;
use fasea_store::FsyncPolicy;

/// Workload knobs shared by `serve` and `loadgen`. Both processes must
/// agree on these for the fingerprint handshake to pass.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Master seed.
    pub seed: u64,
    /// Events `|V|`.
    pub events: usize,
    /// Context dimension `d`.
    pub dim: usize,
    /// Policy id: `ucb`, `ts`, `egreedy`, `multi-ucb`, or `multi-ts`.
    pub policy: String,
    /// Recurring-user population for the `multi-*` policies.
    pub users: usize,
    /// Hot-tier budget in MiB for the `multi-*` policies
    /// (0 = unbounded, no spill directory needed).
    pub model_budget_mb: u64,
    /// Cohort count for the `multi-*` model store's prior chain
    /// (0 = flat). Changes decisions, so it perturbs the fingerprint —
    /// server and loadgen must agree.
    pub cohorts: usize,
    /// Cold observations folded into a cohort prior before a user
    /// COW-materializes (with `cohorts > 0`).
    pub cohort_folds: u64,
    /// Per-user state mode for the `multi-*` store: `exact` or
    /// `sketched`. Sketched demotion is lossy by design, so a bounded
    /// sketched server will not replay bit-equal under
    /// `--verify-local`; the flag still perturbs the fingerprint so
    /// both sides must agree.
    pub state: String,
    /// Sketch rank `r` (with `--state sketched`).
    pub sketch_rank: usize,
    /// Arrangement oracle (`--oracle greedy|tabu`). Non-greedy oracles
    /// perturb the service fingerprint, so both sides must agree.
    pub oracle: fasea_bandit::OracleOptions,
    /// Event-churn period in rounds (`--churn N`, 0 = static universe).
    /// Server and loadgen must pass the same value for
    /// `--verify-local` to replay the same moving capacity vector.
    pub churn_period: u64,
    /// Horizon the churn schedule is generated up to (`--churn-horizon`;
    /// actions past it never fire). Part of the shared spec like the
    /// seed: both sides must agree.
    pub churn_horizon: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 0x5EED_FA5E_A5E2,
            events: 40,
            dim: 5,
            policy: "ucb".into(),
            users: 10_000,
            model_budget_mb: 0,
            cohorts: 0,
            cohort_folds: 8,
            state: "exact".into(),
            sketch_rank: 4,
            oracle: fasea_bandit::OracleOptions::greedy(),
            churn_period: 0,
            churn_horizon: 100_000,
        }
    }
}

impl WorkloadSpec {
    /// Generates the deterministic workload for this spec.
    pub fn workload(&self) -> SyntheticWorkload {
        SyntheticWorkload::generate(SyntheticConfig {
            num_events: self.events,
            dim: self.dim,
            seed: self.seed,
            ..SyntheticConfig::default()
        })
    }

    /// Builds the policy for this spec (deterministic per seed).
    /// `multi-*` policies require `model_budget_mb == 0` here; use
    /// [`WorkloadSpec::policy_in`] to supply a spill directory.
    pub fn policy(&self) -> Result<Box<dyn Policy>, String> {
        self.policy_in(None)
    }

    /// Builds the policy, with a spill directory for budget-bounded
    /// `multi-*` model stores. The directory is created on demand.
    pub fn policy_in(
        &self,
        spill_dir: Option<&std::path::Path>,
    ) -> Result<Box<dyn Policy>, String> {
        match self.policy.as_str() {
            "ucb" => Ok(Box::new(LinUcb::new(self.dim, 1.0, 2.0))),
            "ts" => Ok(Box::new(ThompsonSampling::new(
                self.dim,
                1.0,
                0.1,
                mix64(self.seed ^ 0x7507_11CE),
            ))),
            "egreedy" => Ok(Box::new(EpsilonGreedy::new(
                self.dim,
                1.0,
                0.1,
                mix64(self.seed ^ 0xE9_4EED),
            ))),
            "multi-ucb" | "multi-ts" => {
                let mut config = if self.model_budget_mb == 0 {
                    StoreConfig::unbounded(self.dim, 1.0)
                } else {
                    let dir = spill_dir
                        .ok_or("--model-budget-mb needs a durable --dir for the spill log")?;
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("create {}: {e}", dir.display()))?;
                    let hot = (self.model_budget_mb as usize) << 20;
                    StoreConfig::bounded(self.dim, 1.0, hot, hot / 4, dir)
                };
                if self.cohorts > 0 {
                    config =
                        config.with_cohorts(self.cohorts, self.cohort_salt(), self.cohort_folds);
                }
                match self.state.as_str() {
                    "exact" => {}
                    "sketched" => config = config.with_sketched(self.sketch_rank),
                    other => return Err(format!("unknown --state '{other}' (exact|sketched)")),
                }
                let store =
                    EstimatorStore::new(config).map_err(|e| format!("open model store: {e}"))?;
                // The same schedule salt the multi-user workload
                // generator uses, so server-side models line up with
                // datagen's per-user ground truth.
                let schedule = UserSchedule::new(mix64(self.seed ^ 0x5C4E_D01E), self.users);
                if self.policy == "multi-ucb" {
                    Ok(Box::new(PersonalizedUcb::new(store, schedule, 2.0)))
                } else {
                    Ok(Box::new(PersonalizedTs::new(
                        store,
                        schedule,
                        0.1,
                        mix64(self.seed ^ 0x7507_11CE),
                    )))
                }
            }
            other => Err(format!(
                "unknown policy '{other}' (ucb|ts|egreedy|multi-ucb|multi-ts)"
            )),
        }
    }

    /// The deterministic cohort salt of this spec — the same
    /// seed-derived constant `fasea-exp multi-user` uses, distinct
    /// from the schedule salt so cohort assignment and round→user
    /// mapping stay independent.
    pub fn cohort_salt(&self) -> u64 {
        mix64(self.seed ^ 0xC040_0947)
    }

    /// The extra service-fingerprint salt this spec's model store
    /// configuration contributes: zero for the default flat/exact
    /// store (existing logs stay valid), non-zero whenever cohorts or
    /// sketched state would change decisions.
    pub fn model_fingerprint_salt(&self) -> u64 {
        let mut salt = 0u64;
        if self.cohorts > 0 {
            salt ^= mix64(0x00C0_0947 ^ self.cohorts as u64)
                ^ mix64(self.cohort_salt() ^ self.cohort_folds);
        }
        if self.state == "sketched" {
            salt ^= mix64(0x005C_E7C4 ^ self.sketch_rank as u64);
        }
        salt
    }

    /// The coin stream every load client (and the in-process reference)
    /// uses for acceptance draws — keyed only on the master seed, so
    /// feedback for `(t, v)` is identical no matter which client
    /// executes the round.
    pub fn feedback_coins(&self) -> CoinStream {
        CoinStream::new(mix64(self.seed ^ 0xFEED_BACC_0FFE_E123))
    }

    /// The churn schedule this spec asks for (empty unless `--churn`).
    /// A pure function of the spec, so the server and the loadgen's
    /// `--verify-local` replica derive the identical moving universe.
    pub fn churn(&self) -> fasea_core::ChurnSchedule {
        if self.churn_period == 0 {
            return fasea_core::ChurnSchedule::none();
        }
        let workload = self.workload();
        fasea_core::ChurnSchedule::generate(
            workload.instance.capacities(),
            self.churn_horizon,
            self.churn_period,
            mix64(self.seed ^ 0xC4A2_11FE),
        )
    }

    /// The wire fingerprint for this spec: the instance/policy
    /// fingerprint with the configured oracle mixed in (greedy — the
    /// default — contributes nothing).
    pub fn fingerprint(&self) -> Result<u64, String> {
        let workload = self.workload();
        let policy = self.policy()?;
        Ok(fasea_sim::fold_fingerprint_salt(
            service_fingerprint_with_oracle(&workload.instance, policy.name(), &self.oracle),
            self.model_fingerprint_salt(),
        ))
    }
}

pub(crate) fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err("flags come in --name value pairs".into());
    }
    args.chunks(2)
        .map(|pair| {
            let flag = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got '{}'", pair[0]))?;
            Ok((flag.to_string(), pair[1].clone()))
        })
        .collect()
}

pub(crate) fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("invalid number '{value}' for --{flag}"))
}

/// `fasea-exp serve`: open (or recover) the durable service and serve
/// it until a client sends `SHUTDOWN` (or the process is killed).
///
/// # Errors
/// Flag parse failures, store open failures, and bind failures.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let mut spec = WorkloadSpec::default();
    let mut addr = "127.0.0.1:4650".to_string();
    let mut dir = std::path::PathBuf::from("serve-state");
    let mut config = ServerConfig::default();
    let mut fsync = FsyncPolicy::EveryN(32);
    let mut shards: usize = 0;
    for (flag, value) in parse_flags(args)? {
        match flag.as_str() {
            "addr" => addr = value,
            "dir" => dir = value.into(),
            "seed" => spec.seed = parse_u64(&flag, &value)?,
            "events" => spec.events = parse_u64(&flag, &value)? as usize,
            "dim" => spec.dim = parse_u64(&flag, &value)? as usize,
            "workers" => config.workers = parse_u64(&flag, &value)? as usize,
            "policy" => spec.policy = value,
            "users" => spec.users = parse_u64(&flag, &value)?.max(1) as usize,
            "model-budget-mb" => spec.model_budget_mb = parse_u64(&flag, &value)?,
            "cohorts" => spec.cohorts = parse_u64(&flag, &value)? as usize,
            "cohort-folds" => spec.cohort_folds = parse_u64(&flag, &value)?,
            "state" => spec.state = value,
            "sketch-rank" => spec.sketch_rank = parse_u64(&flag, &value)? as usize,
            "fsync" => {
                fsync = match value.as_str() {
                    "always" => FsyncPolicy::Always,
                    "everyn" => FsyncPolicy::EveryN(32),
                    "never" => FsyncPolicy::Never,
                    other => return Err(format!("unknown --fsync '{other}'")),
                }
            }
            // Sharded backend: partition the event universe over N
            // shard actors with cross-shard two-phase commit. 0 (the
            // default) keeps the classic single-actor service; any
            // N ≥ 1 serves the identical byte-for-byte state through
            // fasea-shard (N = 1 exercises the 2PC machinery with no
            // actual cross-shard traffic).
            "shards" => shards = parse_u64(&flag, &value)? as usize,
            "snapshot-every" => {
                config.snapshot_every_rounds = Some(parse_u64(&flag, &value)?).filter(|&n| n > 0)
            }
            "oracle" => {
                spec.oracle = fasea_bandit::OracleOptions::parse(&value)
                    .ok_or_else(|| format!("unknown --oracle '{value}' (greedy|tabu)"))?
            }
            "churn" => spec.churn_period = parse_u64(&flag, &value)?,
            "churn-horizon" => spec.churn_horizon = parse_u64(&flag, &value)?,
            // Optimistic concurrent admission: grant up to N consecutive
            // rounds at once. Arrangements and the WAL stay bit-equal to
            // depth 1 (conflicts re-score in round order); see DESIGN §15.
            "pipeline-depth" => config.pipeline_depth = parse_u64(&flag, &value)?.max(1) as usize,
            other => return Err(format!("unknown flag --{other} for serve")),
        }
    }
    let workload = spec.workload();
    let policy = spec.policy_in(Some(&dir.join("model-spill")))?;
    let fingerprint = fasea_sim::fold_fingerprint_salt(
        service_fingerprint_with_oracle(&workload.instance, policy.name(), &spec.oracle),
        spec.model_fingerprint_salt(),
    );
    config.churn = spec.churn();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let options = DurableOptions::new()
        .with_fsync(fsync)
        .with_oracle(spec.oracle)
        .with_fingerprint_salt(spec.model_fingerprint_salt());
    let svc: BackendService = if shards >= 1 {
        ShardedArrangementService::open(&dir, workload.instance, policy, options, shards)
            .map_err(|e| format!("open sharded service in {}: {e}", dir.display()))?
            .into()
    } else {
        DurableArrangementService::open(&dir, workload.instance, policy, options)
            .map_err(|e| format!("open durable service in {}: {e}", dir.display()))?
            .into()
    };
    let health = svc.health();
    println!(
        "recovered rounds={} pending={} next_seq={} shards={}",
        health.rounds_completed,
        health.has_pending,
        health.next_seq,
        svc.num_shards(),
    );
    let num_shards = svc.num_shards();
    let handle =
        Server::spawn(svc, &addr as &str, config).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "listening on {} fingerprint={fingerprint:#018x} policy={} seed={:#x} events={} dim={} shards={}",
        handle.local_addr(),
        spec.policy,
        spec.seed,
        spec.events,
        spec.dim,
        num_shards,
    );
    let report = handle.join();
    if let Some(err) = report.close.error {
        return Err(format!("close failed: {err}"));
    }
    println!(
        "shut down cleanly: rounds={} snapshot={:?}",
        report.close.rounds_completed,
        report.close.snapshot.as_deref()
    );
    Ok(())
}

struct LoadStats {
    rounds_fed: AtomicU64,
    rewards: AtomicU64,
    protocol_errors: AtomicU64,
    transport_retries: AtomicU64,
    backoffs: AtomicU64,
}

/// `fasea-exp loadgen`: drive `--clients` concurrent sessions against a
/// running server until `--rounds` total rounds are complete, then
/// print server stats and (optionally) verify the server's accounting
/// against an in-process run of the same seed.
///
/// # Errors
/// Flag parse failures, connection failures past the retry budget, any
/// unexpected protocol error, or an accounting mismatch under
/// `--verify-local`.
pub fn loadgen_main(args: &[String]) -> Result<(), String> {
    let mut spec = WorkloadSpec::default();
    let mut addr = "127.0.0.1:4650".to_string();
    let mut rounds: u64 = 10_000;
    let mut clients: usize = 4;
    let mut verify_local = false;
    let mut shutdown = false;
    for (flag, value) in parse_flags(args)? {
        match flag.as_str() {
            "addr" => addr = value,
            "rounds" => rounds = parse_u64(&flag, &value)?,
            "clients" => clients = parse_u64(&flag, &value)?.max(1) as usize,
            "seed" => spec.seed = parse_u64(&flag, &value)?,
            "events" => spec.events = parse_u64(&flag, &value)? as usize,
            "dim" => spec.dim = parse_u64(&flag, &value)? as usize,
            "policy" => spec.policy = value,
            "users" => spec.users = parse_u64(&flag, &value)?.max(1) as usize,
            "cohorts" => spec.cohorts = parse_u64(&flag, &value)? as usize,
            "cohort-folds" => spec.cohort_folds = parse_u64(&flag, &value)?,
            "state" => spec.state = value,
            "sketch-rank" => spec.sketch_rank = parse_u64(&flag, &value)? as usize,
            "verify-local" => verify_local = value == "true" || value == "1",
            "shutdown" => shutdown = value == "true" || value == "1",
            "oracle" => {
                spec.oracle = fasea_bandit::OracleOptions::parse(&value)
                    .ok_or_else(|| format!("unknown --oracle '{value}' (greedy|tabu)"))?
            }
            "churn" => spec.churn_period = parse_u64(&flag, &value)?,
            "churn-horizon" => spec.churn_horizon = parse_u64(&flag, &value)?,
            other => return Err(format!("unknown flag --{other} for loadgen")),
        }
    }
    if verify_local && spec.state == "sketched" {
        return Err(
            "--verify-local needs --state exact: sketched demotions are lossy by design \
             (regret-parity gated, see `fasea-exp multi-user`), so a budgeted server can \
             never be bit-equal to the unbounded in-process replica"
                .to_string(),
        );
    }

    let stats = LoadStats {
        rounds_fed: AtomicU64::new(0),
        rewards: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
        transport_retries: AtomicU64::new(0),
        backoffs: AtomicU64::new(0),
    };
    let spec = Arc::new(spec);
    let started = Instant::now();
    crossbeam::thread::scope(|s| {
        for client_id in 0..clients {
            let spec = Arc::clone(&spec);
            let stats = &stats;
            let addr = &addr;
            s.spawn(move |_| {
                if let Err(e) = drive_client(&spec, addr, rounds, stats) {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("client {client_id}: {e}");
                }
            });
        }
    })
    .map_err(|_| "a load client panicked".to_string())?;
    let elapsed = started.elapsed();

    // One control connection for the final server-side numbers.
    let mut control = ServeClient::connect(addr.clone(), ClientConfig::default())
        .map_err(|e| format!("control connection: {e}"))?;
    let server_stats = control.stats().map_err(|e| format!("STATS failed: {e}"))?;
    let protocol_errors = stats.protocol_errors.load(Ordering::Relaxed);
    println!(
        "loadgen: {} rounds fed by {clients} clients in {:.2}s ({:.0} rounds/s) — \
         client rewards={} transport_retries={} backoffs={} protocol_errors={protocol_errors}",
        stats.rounds_fed.load(Ordering::Relaxed),
        elapsed.as_secs_f64(),
        stats.rounds_fed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.rewards.load(Ordering::Relaxed),
        stats.transport_retries.load(Ordering::Relaxed),
        stats.backoffs.load(Ordering::Relaxed),
    );
    print!("{}", server_stats.render());

    let mut failed = protocol_errors > 0;
    if protocol_errors > 0 {
        eprintln!("FAIL: {protocol_errors} protocol error(s) during load");
    }
    if server_stats.rounds_completed < rounds {
        eprintln!(
            "FAIL: server completed {} rounds, wanted ≥ {rounds}",
            server_stats.rounds_completed
        );
        failed = true;
    }
    if verify_local && !verify_against_local(&spec, rounds, &server_stats)? {
        failed = true;
    }
    if shutdown {
        control
            .shutdown_server()
            .map_err(|e| format!("SHUTDOWN failed: {e}"))?;
        println!("server shutdown requested");
    }
    if failed {
        return Err("loadgen checks failed".into());
    }
    Ok(())
}

/// One load client: claim → propose (unless recovering a pending
/// proposal) → CRN feedback, reconnecting through transport errors,
/// until the server's round counter reaches `rounds`.
fn drive_client(
    spec: &WorkloadSpec,
    addr: &str,
    rounds: u64,
    stats: &LoadStats,
) -> Result<(), String> {
    let workload = spec.workload();
    let coins = spec.feedback_coins();
    let mut client = ServeClient::connect(addr.to_string(), ClientConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    let expected_fingerprint = spec.fingerprint()?;
    if let Some(info) = client.info() {
        if info.fingerprint != expected_fingerprint {
            return Err(format!(
                "server fingerprint {:#018x} does not match workload {:#018x} — \
                 differing --seed/--events/--dim/--policy/--oracle/--cohorts/--state?",
                info.fingerprint, expected_fingerprint
            ));
        }
    }
    loop {
        match run_one_round(&mut client, &workload, &coins, rounds, stats) {
            Ok(RoundOutcome::Fed) | Ok(RoundOutcome::Idle) => {}
            Ok(RoundOutcome::Done) => return Ok(()),
            Err(e) if e.is_transport() => {
                stats.transport_retries.fetch_add(1, Ordering::Relaxed);
                client.reconnect().map_err(|e| format!("reconnect: {e}"))?;
            }
            Err(ClientError::Protocol { code, detail }) => match code {
                // Typed backpressure / races are part of normal
                // operation, not protocol violations.
                ErrorCode::Overloaded => {
                    stats.backoffs.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(20));
                }
                ErrorCode::ShuttingDown => return Ok(()),
                _ => return Err(format!("protocol error {code}: {detail}")),
            },
            Err(e) => return Err(format!("client error: {e}")),
        }
    }
}

enum RoundOutcome {
    Fed,
    Idle,
    Done,
}

fn run_one_round(
    client: &mut ServeClient,
    workload: &SyntheticWorkload,
    coins: &CoinStream,
    rounds: u64,
    stats: &LoadStats,
) -> Result<RoundOutcome, ClientError> {
    let claimed = client.claim()?;
    let t = claimed.t;
    if t >= rounds {
        client.release()?;
        return Ok(RoundOutcome::Done);
    }
    let arrival = workload.arrivals.arrival(t);
    let arrangement = match claimed.pending {
        Some(pending) => pending,
        None => {
            let (_, arrangement) = client.propose(
                arrival.capacity,
                workload.instance.num_events() as u32,
                workload.instance.dim() as u32,
                arrival.contexts.as_slice().to_vec(),
            )?;
            arrangement
        }
    };
    // The Environment's acceptance rule, reproduced with common random
    // numbers keyed on (t, v): identical no matter which client (or
    // server process incarnation) executes the round.
    let accepts: Vec<bool> = arrangement
        .iter()
        .map(|&v| {
            let event = EventId(v as usize);
            coins.uniform(t, v as u64) < workload.model.accept_probability(&arrival.contexts, event)
        })
        .collect();
    let (_, reward) = client.feedback(&accepts)?;
    stats.rounds_fed.fetch_add(1, Ordering::Relaxed);
    stats.rewards.fetch_add(reward as u64, Ordering::Relaxed);
    if arrangement.is_empty() {
        Ok(RoundOutcome::Idle)
    } else {
        Ok(RoundOutcome::Fed)
    }
}

/// Replays the same workload through an in-process
/// [`ArrangementService`] and compares the accounting triple. CRN
/// feedback makes the comparison exact.
fn verify_against_local(
    spec: &WorkloadSpec,
    rounds: u64,
    server_stats: &WireStats,
) -> Result<bool, String> {
    let workload = spec.workload();
    let policy = spec.policy()?;
    let coins = spec.feedback_coins();
    let churn = spec.churn();
    let mut svc = ArrangementService::new(workload.instance.clone(), policy);
    svc.install_oracle(Some(spec.oracle.build()));
    for t in 0..rounds {
        // The server applies round-t churn before granting round t; the
        // replica must re-plan at the same boundary to stay in lockstep.
        for action in churn.actions_at(t) {
            svc.apply_lifecycle(action.event, action.capacity)
                .map_err(|e| format!("local lifecycle t={t}: {e}"))?;
        }
        let arrival = workload.arrivals.arrival(t);
        let arrangement = svc
            .propose(&arrival)
            .map_err(|e| format!("local propose t={t}: {e}"))?;
        let accepts: Vec<bool> = arrangement
            .events()
            .iter()
            .map(|&v| {
                coins.uniform(t, v.index() as u64)
                    < workload.model.accept_probability(&arrival.contexts, v)
            })
            .collect();
        svc.feedback(&accepts)
            .map_err(|e| format!("local feedback t={t}: {e}"))?;
    }
    let local = (
        svc.rounds_completed(),
        svc.accounting().total_arranged(),
        svc.accounting().total_rewards(),
    );
    let remote = (
        server_stats.rounds_completed,
        server_stats.total_arranged,
        server_stats.total_rewards,
    );
    if local == remote {
        println!(
            "verify-local OK: rounds={} arranged={} rewards={} (networked == in-process)",
            local.0, local.1, local.2
        );
        Ok(true)
    } else {
        eprintln!("FAIL verify-local: in-process {local:?} != server {remote:?}");
        Ok(false)
    }
}
