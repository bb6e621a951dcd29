//! Per-round scoring latency of the batched `Policy` path: old vs new
//! for UCB, serial vs pooled vs automatic for UCB and TS — the
//! measurement behind the serial/pooled cut-over in
//! `fasea_bandit::ScoreWorkspace` — and pruned vs full UCB scoring.
//!
//! The pre-redesign UCB round scored one event at a time — clone `θ̂`,
//! allocate a `Vector` per event for the confidence width, allocate the
//! oracle's order/mask scratch and a fresh `Arrangement` — while the
//! batched path (`select_into` + `ScoreWorkspace`) runs the same
//! arithmetic through `widths_into` with zero steady-state allocations.
//! Each cell times `select_into` on identical learner state along:
//!
//! * `legacy` — the reconstructed pre-redesign scalar round (UCB only);
//! * `serial` — forced serial (a 1-thread pool through the
//!   workspace's `set_score_pool` seam);
//! * `pooled` — forced through a pool of one thread per core (at least
//!   two, so a one-core host still measures the dispatch overhead);
//! * `auto`   — the workspace's own choice, which pools only once
//!   `|V|·d` reaches the measured cut-over on a multi-core host;
//! * `full`   — UCB only: every event scored by the fused kernel, with
//!   the automatic pool choice — LinUCB's round before pruned scoring.
//!
//! From `|V| = 1024` on, LinUCB prunes: it scores exactly only the
//! events Oracle-Greedy's initial prefix can reach (DESIGN.md §10), so
//! `serial`/`pooled`/`auto` time that path and `exact_share` records the
//! share of events the timed round scored exactly. The `PRUNE_GRID`
//! cells warm UCB on the sim-wide generator's arrivals (unit-norm
//! contexts, answers from its ground truth) for `warm_rounds` rounds —
//! 0 is the cold first round — and time the next arrival, so they show
//! the pruned round at the point of the horizon it is measured at.
//!
//! UCB's per-event work grows with `d²` (the width), TS's with `d`
//! (one dot product after a serial posterior draw), so the pair brackets
//! the cut-over from both sides. All paths produce bit-identical scores
//! and arrangements (asserted before timing), so every ratio is pure
//! overhead, not numerics. The grid brackets the benchmark workloads'
//! shapes (`200×5`, `500×20`, `100×8`, `5000×20`) and the cut-over.
//!
//! The JSON records `host_cores` next to `threads`: pooled ratios are a
//! property of the machine they were measured on.
//!
//! Output: one line per cell on stdout, and the table through
//! [`BenchReport`] — that is how the committed `BENCH_scoring.json` is
//! produced:
//!
//! ```text
//! FASEA_BENCH_MS=1000 FASEA_BENCH_JSON=BENCH_scoring.json \
//!     cargo bench --bench scoring_hot_path
//! ```

use fasea_bandit::ScoreWorkspace;
use fasea_bandit::{
    GreedyOracle, LinUcb, Oracle, OracleWorkspace, Policy, RidgeEstimator, ScorePool,
    SelectionView, ThompsonSampling,
};
use fasea_bench::{budget, BenchReport, Field};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, EventId, Feedback, UserArrival};
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_stats::CoinStream;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(|V|, d)` cells. The conflict graph is a dense `|V|²` bit matrix,
/// so `|V|` stays at 20k (50 MB).
const GRID: &[(usize, usize)] = &[
    (100, 8),
    (200, 5),
    (500, 20),
    (1_000, 20),
    (2_500, 8),
    (2_500, 20),
    (4_000, 5),
    (4_000, 20),
    (5_000, 5),
    (5_000, 20),
    (10_000, 5),
    (10_000, 20),
    (20_000, 5),
];

/// Warm-up rounds before timing: enough for non-trivial `Y⁻¹` and `θ̂`.
const WARM_ROUNDS: u64 = 32;

/// `(|V|, d)` shapes of the pruned-versus-full cells, each timed cold
/// and after each of `PRUNE_WARM` warm-up rounds.
const PRUNE_GRID: &[(usize, usize)] = &[(2_500, 20), (5_000, 20), (10_000, 20)];
const PRUNE_WARM: &[u64] = &[0, 1_000];

/// UCB scored the way LinUCB scored before pruning: the fused dot/width
/// kernel over every event, pooled when the workspace's cut-over says
/// so.
struct FullUcb {
    estimator: RidgeEstimator,
    alpha: f64,
    ws: ScoreWorkspace,
}

impl Policy for FullUcb {
    fn name(&self) -> &'static str {
        "UCB-full"
    }

    fn score_into(&mut self, view: &SelectionView<'_>, ws: &mut ScoreWorkspace) {
        let alpha = self.alpha;
        let (ctx, dim) = (view.contexts.as_slice(), view.dim());
        let (theta, sm) = self.estimator.theta_and_inverse();
        let theta = theta.as_slice();
        ws.fill_scores_and_widths(view, |range, s, w| {
            sm.widths_and_dots_range_into(ctx, dim, theta, range.start, w, s);
            for (si, wi) in s.iter_mut().zip(w.iter()) {
                *si += alpha * wi;
            }
        });
    }

    fn workspace(&self) -> &ScoreWorkspace {
        &self.ws
    }

    fn workspace_mut(&mut self) -> &mut ScoreWorkspace {
        &mut self.ws
    }

    fn observe(&mut self, _: u64, contexts: &ContextMatrix, a: &Arrangement, fb: &Feedback) {
        for (v, accepted) in fb.zip(a) {
            let r = if accepted { 1.0 } else { 0.0 };
            self.estimator.observe(contexts.context(v), r).unwrap();
        }
    }

    fn state_bytes(&self) -> usize {
        self.estimator.state_bytes()
    }
}

fn full_ucb(dim: usize) -> Box<dyn Policy> {
    Box::new(FullUcb {
        estimator: RidgeEstimator::new(dim, 1.0),
        alpha: 2.0,
        ws: ScoreWorkspace::new(),
    })
}

/// The pre-redesign scalar UCB scoring round and its allocations: per-round
/// `θ̂` clone, per-event `Vector` allocation inside `confidence_width`,
/// and a cold greedy-oracle call (fresh workspace and arrangement every
/// round, the legacy `oracle_greedy` allocation profile).
struct LegacyUcb {
    estimator: RidgeEstimator,
    alpha: f64,
    scores: Vec<f64>,
}

impl LegacyUcb {
    fn select(&mut self, view: &SelectionView<'_>) -> Arrangement {
        let n = view.num_events();
        self.scores.resize(n, 0.0);
        black_box(self.estimator.theta_hat().clone());
        for v in 0..n {
            let x = view.contexts.context(EventId(v));
            let point = self.estimator.point_estimate(x);
            let width = self.estimator.confidence_width(x);
            self.scores[v] = point + self.alpha * width;
        }
        let mut ws = OracleWorkspace::new();
        let mut out = Arrangement::empty();
        GreedyOracle.arrange_into(
            &self.scores,
            view.conflicts,
            view.remaining,
            view.user_capacity,
            &mut ws,
            &mut out,
        );
        out
    }
}

/// Deterministic xorshift so fixtures need no `rand` dependency.
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Ucb,
    Ts,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Ucb => "UCB",
            Kind::Ts => "TS",
        }
    }
}

struct Fixture {
    contexts: ContextMatrix,
    conflicts: ConflictGraph,
    remaining: Vec<u32>,
}

impl Fixture {
    fn new(num_events: usize, dim: usize) -> Self {
        let mut rng = XorShift(0x5C0_71A6 ^ (num_events as u64) << 8 ^ dim as u64);
        let contexts = ContextMatrix::from_fn(num_events, dim, |_, _| rng.next_f64());
        // A sparse conflict graph, enough for the oracle's mask checks
        // to run but not to dominate timing.
        let pairs: Vec<(usize, usize)> = (0..num_events / 10)
            .map(|i| (i, i + num_events / 2))
            .collect();
        Fixture {
            conflicts: ConflictGraph::from_pairs(num_events, &pairs),
            remaining: vec![u32::MAX; num_events],
            contexts,
        }
    }

    fn view(&self, t: u64) -> SelectionView<'_> {
        SelectionView {
            t,
            user_capacity: 5,
            contexts: &self.contexts,
            conflicts: &self.conflicts,
            remaining: &self.remaining,
        }
    }
}

/// Runs the warm-up rounds on `policy`.
fn warm(policy: &mut dyn Policy, fx: &Fixture) {
    let mut out = Arrangement::empty();
    for t in 0..WARM_ROUNDS {
        policy.select_into(&fx.view(t), &mut out);
        let fb = Feedback::new(
            (0..out.len())
                .map(|i| (t as usize + i).is_multiple_of(2))
                .collect(),
        );
        policy.observe(t, &fx.contexts, &out, &fb);
    }
}

/// A warmed policy of `kind` scoring through `pool` (`None`: the
/// workspace's automatic choice). Every call builds the same learner
/// state, RNG position included.
fn warmed(kind: Kind, fx: &Fixture, pool: Option<Arc<ScorePool>>) -> Box<dyn Policy> {
    let dim = fx.contexts.dim();
    let mut policy: Box<dyn Policy> = match kind {
        Kind::Ucb => Box::new(LinUcb::new(dim, 1.0, 2.0)),
        Kind::Ts => Box::new(ThompsonSampling::new(dim, 1.0, 0.1, 0x75)),
    };
    policy.workspace_mut().set_score_pool(pool);
    warm(policy.as_mut(), fx);
    policy
}

struct Cell {
    policy: &'static str,
    num_events: usize,
    dim: usize,
    warm_rounds: u64,
    /// UCB only.
    legacy_ns: Option<f64>,
    serial_ns: f64,
    pooled_ns: f64,
    auto_ns: f64,
    /// UCB only.
    full_ns: Option<f64>,
    /// Share of events the automatic path's timed round scored exactly.
    exact_share: f64,
}

/// Median ns per call of each of `fs`, timed in ~1 ms batches taken
/// in turn until `budget` is spent. A burst of other load on the host
/// lands on neighbouring batches of every path alike, and the median
/// drops it, so the ratios between paths stay paired.
fn time_interleaved(budget: Duration, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let warm_start = Instant::now();
    while warm_start.elapsed() < budget / 10 {
        fs.iter_mut().for_each(|f| f());
    }
    let batches: Vec<u32> = fs
        .iter_mut()
        .map(|f| {
            let probe_start = Instant::now();
            f();
            let probe = probe_start.elapsed().max(Duration::from_nanos(20));
            (Duration::from_millis(1).as_nanos() / probe.as_nanos()).clamp(1, 100_000) as u32
        })
        .collect();
    let mut samples = vec![Vec::new(); fs.len()];
    let run_start = Instant::now();
    while run_start.elapsed() < budget || samples[0].len() < 5 {
        for ((f, &batch), s) in fs.iter_mut().zip(&batches).zip(&mut samples) {
            let batch_start = Instant::now();
            for _ in 0..batch {
                f();
            }
            s.push(batch_start.elapsed().as_nanos() as f64 / f64::from(batch));
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

/// One `select_into` of `view` through `policy`, as a timed closure.
fn select_round<'a>(
    policy: &'a mut Box<dyn Policy>,
    view: &'a SelectionView<'a>,
) -> impl FnMut() + 'a {
    let mut out = Arrangement::empty();
    move || {
        policy.select_into(black_box(view), &mut out);
        black_box(out.len());
    }
}

/// Selects `view` through every path, completes any pruned round, and
/// asserts that all paths arranged and scored bit-identically. Returns
/// the reference arrangement and scores, and the automatic path's
/// exact share (taken before completion).
fn assert_paths_agree(
    paths: &mut [Box<dyn Policy>],
    view: &SelectionView<'_>,
) -> (Arrangement, Vec<f64>, f64) {
    let mut reference: Option<(Arrangement, Vec<f64>)> = None;
    let mut exact_share = 1.0;
    for (i, policy) in paths.iter_mut().enumerate() {
        let mut out = Arrangement::empty();
        let before = policy.workspace().score_stats();
        policy.select_into(view, &mut out);
        if i == 2 {
            let after = policy.workspace().score_stats();
            exact_share = (after.exact - before.exact) as f64 / view.num_events() as f64;
        }
        policy.workspace_mut().complete_scores(view.contexts);
        let scores = policy.last_scores().expect("scores after select");
        match &reference {
            None => reference = Some((out, scores.to_vec())),
            Some((ref_out, ref_scores)) => {
                assert_eq!(out.events(), ref_out.events(), "paths diverge");
                for (v, (a, b)) in scores.iter().zip(ref_scores).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "score {v} differs in bits");
                }
            }
        }
    }
    let (out, scores) = reference.expect("at least one path");
    (out, scores, exact_share)
}

/// Times one round of `select_into` (no observe: the learner state
/// stays fixed) along each path, after asserting that every path
/// scores and arranges the first timed round bit-identically.
fn bench_cell(kind: Kind, fx: &Fixture, budget: Duration, pool: &Arc<ScorePool>) -> Cell {
    let view = fx.view(WARM_ROUNDS);
    let mut paths = vec![
        warmed(kind, fx, Some(Arc::new(ScorePool::new(1)))),
        warmed(kind, fx, Some(Arc::clone(pool))),
        warmed(kind, fx, None),
    ];
    if matches!(kind, Kind::Ucb) {
        let mut full = full_ucb(fx.contexts.dim());
        warm(full.as_mut(), fx);
        paths.push(full);
    }
    let (ref_out, ref_scores, exact_share) = assert_paths_agree(&mut paths, &view);

    let mut selects: Vec<_> = paths
        .iter_mut()
        .map(|policy| select_round(policy, &view))
        .collect();
    let mut timed: Vec<&mut dyn FnMut()> =
        selects.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
    let mut legacy = matches!(kind, Kind::Ucb).then(|| {
        // Same scores, same arrangement — the paths differ only in cost.
        let mut ucb = LinUcb::new(fx.contexts.dim(), 1.0, 2.0);
        warm(&mut ucb, fx);
        let mut legacy = LegacyUcb {
            estimator: ucb.estimator().clone(),
            alpha: ucb.alpha(),
            scores: Vec::new(),
        };
        assert_eq!(
            legacy.select(&view).events(),
            ref_out.events(),
            "legacy diverges"
        );
        for (v, (a, b)) in legacy.scores.iter().zip(&ref_scores).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "legacy score {v} differs in bits");
        }
        legacy
    });
    let mut legacy_select = legacy.as_mut().map(|legacy| {
        || {
            black_box(legacy.select(black_box(&view)).len());
        }
    });
    timed.extend(legacy_select.as_mut().map(|f| f as &mut dyn FnMut()));
    let ns = time_interleaved(budget, &mut timed);
    Cell {
        policy: kind.name(),
        num_events: fx.contexts.num_events(),
        dim: fx.contexts.dim(),
        warm_rounds: WARM_ROUNDS,
        legacy_ns: ns.get(4).copied(),
        serial_ns: ns[0],
        pooled_ns: ns[1],
        auto_ns: ns[2],
        full_ns: ns.get(3).copied(),
        exact_share,
    }
}

/// A pruned-versus-full cell: UCB warmed for `warm_rounds` rounds on the
/// sim-wide generator at `|V| × d`, then the next arrival timed along
/// the serial, pooled, automatic and full paths.
fn bench_prune_cell(
    num_events: usize,
    dim: usize,
    warm_rounds: u64,
    budget: Duration,
    pool: &Arc<ScorePool>,
) -> Cell {
    let workload = SyntheticWorkload::generate(SyntheticConfig {
        num_events,
        dim,
        seed: 20_171,
        ..SyntheticConfig::default()
    });
    let mut paths: Vec<Box<dyn Policy>> = vec![
        Box::new(LinUcb::new(dim, 1.0, 2.0)),
        Box::new(LinUcb::new(dim, 1.0, 2.0)),
        Box::new(LinUcb::new(dim, 1.0, 2.0)),
        full_ucb(dim),
    ];
    paths[0]
        .workspace_mut()
        .set_score_pool(Some(Arc::new(ScorePool::new(1))));
    paths[1]
        .workspace_mut()
        .set_score_pool(Some(Arc::clone(pool)));
    let conflicts = workload.instance.conflicts();
    let remaining = vec![u32::MAX; num_events];
    fn view<'a>(
        t: u64,
        user: &'a UserArrival,
        conflicts: &'a ConflictGraph,
        remaining: &'a [u32],
    ) -> SelectionView<'a> {
        SelectionView {
            t,
            user_capacity: user.capacity,
            contexts: &user.contexts,
            conflicts,
            remaining,
        }
    }
    let mut out = Arrangement::empty();
    for t in 0..warm_rounds {
        let user = workload.arrivals.arrival(t);
        let mut answers: Option<Feedback> = None;
        for policy in &mut paths {
            policy.select_into(&view(t, &user, conflicts, &remaining), &mut out);
            let fb = answers.get_or_insert_with(|| {
                let coins = CoinStream::new(0xC0_1D);
                Feedback::new(
                    out.iter()
                        .map(|v| {
                            coins.uniform(t, v.index() as u64)
                                < workload.model.accept_probability(&user.contexts, v)
                        })
                        .collect(),
                )
            });
            policy.observe(t, &user.contexts, &out, fb);
        }
    }
    let user = workload.arrivals.arrival(warm_rounds);
    let view = view(warm_rounds, &user, conflicts, &remaining);
    let (_, _, exact_share) = assert_paths_agree(&mut paths, &view);
    let mut selects: Vec<_> = paths
        .iter_mut()
        .map(|policy| select_round(policy, &view))
        .collect();
    let mut timed: Vec<&mut dyn FnMut()> =
        selects.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
    let ns = time_interleaved(budget, &mut timed);
    Cell {
        policy: "UCB",
        num_events,
        dim,
        warm_rounds,
        legacy_ns: None,
        serial_ns: ns[0],
        pooled_ns: ns[1],
        auto_ns: ns[2],
        full_ns: Some(ns[3]),
        exact_share,
    }
}

/// Prints one cell and adds it to the table.
fn record(report: &mut BenchReport, threads: usize, c: &Cell) {
    let legacy = c
        .legacy_ns
        .map_or_else(|| "             -".into(), |ns| format!("{ns:>11.0} ns"));
    let full = c
        .full_ns
        .map_or_else(|| "             -".into(), |ns| format!("{ns:>11.0} ns"));
    println!(
        "scoring_hot_path/{:<3} {:>6}x{:<3} warm {:>4}  legacy: {legacy}   serial: {:>10.0} ns   pooled[{threads}t]: {:>10.0} ns ({:.2}x)   auto: {:>10.0} ns ({:.2}x)   full: {full}   exact share {:.3}",
        c.policy,
        c.num_events,
        c.dim,
        c.warm_rounds,
        c.serial_ns,
        c.pooled_ns,
        c.serial_ns / c.pooled_ns,
        c.auto_ns,
        c.serial_ns / c.auto_ns,
        c.exact_share,
    );
    report.cell(vec![
        ("policy", c.policy.into()),
        ("num_events", c.num_events.into()),
        ("dim", c.dim.into()),
        ("work", (c.num_events * c.dim).into()),
        ("warm_rounds", c.warm_rounds.into()),
        (
            "legacy_ns",
            c.legacy_ns.map(|ns| Field::fixed(ns, 1)).into(),
        ),
        ("serial_ns", Field::fixed(c.serial_ns, 1)),
        ("pooled_ns", Field::fixed(c.pooled_ns, 1)),
        ("auto_ns", Field::fixed(c.auto_ns, 1)),
        ("full_ns", c.full_ns.map(|ns| Field::fixed(ns, 1)).into()),
        ("exact_share", Field::fixed(c.exact_share, 4)),
        (
            "speedup",
            c.legacy_ns
                .map(|ns| Field::fixed(ns / c.serial_ns, 2))
                .into(),
        ),
        (
            "parallel_speedup",
            Field::fixed(c.serial_ns / c.pooled_ns, 2),
        ),
        ("auto_speedup", Field::fixed(c.serial_ns / c.auto_ns, 2)),
        (
            "pruned_speedup",
            c.full_ns.map(|ns| Field::fixed(ns / c.auto_ns, 2)).into(),
        ),
    ]);
}

fn main() {
    let budget = budget();
    let mut report = BenchReport::new("scoring_hot_path", "ns_per_round");
    let threads = report.host_cores().max(2);
    report.meta("threads", threads);
    let pool = Arc::new(ScorePool::new(threads));
    // Keep worker-thread startup out of the first cell's timing.
    pool.wait_ready();
    if report.host_cores() == 1 {
        println!(
            "warning: single-core host — pooled < serial measures ScorePool dispatch \
             overhead, not a scaling regression"
        );
    }

    for &(num_events, dim) in GRID {
        let fx = Fixture::new(num_events, dim);
        for kind in [Kind::Ucb, Kind::Ts] {
            record(&mut report, threads, &bench_cell(kind, &fx, budget, &pool));
        }
    }
    for &(num_events, dim) in PRUNE_GRID {
        for &warm_rounds in PRUNE_WARM {
            let c = bench_prune_cell(num_events, dim, warm_rounds, budget, &pool);
            record(&mut report, threads, &c);
        }
    }

    report.write_if_requested();
}
