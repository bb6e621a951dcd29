//! Per-round scoring latency of the batched `Policy` path: old vs new
//! for UCB, and serial vs pooled vs automatic for UCB and TS — the
//! measurement behind the serial/pooled cut-over in
//! `fasea_bandit::ScoreWorkspace`.
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
//!   `|V|·d` reaches the measured cut-over on a multi-core host.
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

use fasea_bandit::{
    GreedyOracle, LinUcb, Oracle, OracleWorkspace, Policy, RidgeEstimator, ScorePool,
    SelectionView, ThompsonSampling,
};
use fasea_bench::{budget, BenchReport, Field};
use fasea_core::{Arrangement, ConflictGraph, ContextMatrix, EventId, Feedback};
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
    /// UCB only.
    legacy_ns: Option<f64>,
    serial_ns: f64,
    pooled_ns: f64,
    auto_ns: f64,
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

/// Times one round of `select_into` (no observe: the learner state
/// stays fixed) along each path, after asserting that every path
/// scores and arranges the first timed round bit-identically.
fn bench_cell(kind: Kind, fx: &Fixture, budget: Duration, pool: &Arc<ScorePool>) -> Cell {
    let view = fx.view(WARM_ROUNDS);
    let mut paths = [
        warmed(kind, fx, Some(Arc::new(ScorePool::new(1)))),
        warmed(kind, fx, Some(Arc::clone(pool))),
        warmed(kind, fx, None),
    ];
    let mut reference: Option<(Arrangement, Vec<f64>)> = None;
    for policy in &mut paths {
        let mut out = Arrangement::empty();
        policy.select_into(&view, &mut out);
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
    let (ref_out, ref_scores) = reference.expect("three paths");

    let mut selects = paths.each_mut().map(|policy| select_round(policy, &view));
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
        legacy_ns: ns.get(3).copied(),
        serial_ns: ns[0],
        pooled_ns: ns[1],
        auto_ns: ns[2],
    }
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
            let c = bench_cell(kind, &fx, budget, &pool);
            let legacy = c
                .legacy_ns
                .map_or_else(|| "             -".into(), |ns| format!("{ns:>11.0} ns"));
            println!(
                "scoring_hot_path/{:<3} {:>6}x{:<3} legacy: {legacy}   serial: {:>10.0} ns   pooled[{threads}t]: {:>10.0} ns ({:.2}x)   auto: {:>10.0} ns ({:.2}x)",
                c.policy,
                c.num_events,
                c.dim,
                c.serial_ns,
                c.pooled_ns,
                c.serial_ns / c.pooled_ns,
                c.auto_ns,
                c.serial_ns / c.auto_ns,
            );
            report.cell(vec![
                ("policy", c.policy.into()),
                ("num_events", c.num_events.into()),
                ("dim", c.dim.into()),
                ("work", (c.num_events * c.dim).into()),
                (
                    "legacy_ns",
                    c.legacy_ns.map(|ns| Field::fixed(ns, 1)).into(),
                ),
                ("serial_ns", Field::fixed(c.serial_ns, 1)),
                ("pooled_ns", Field::fixed(c.pooled_ns, 1)),
                ("auto_ns", Field::fixed(c.auto_ns, 1)),
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
            ]);
        }
    }

    report.write_if_requested();
}
