//! Lock-free serving metrics: named atomic counters plus fixed-bucket
//! latency histograms, cheap enough to update on every request and
//! snapshot without pausing the workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::proto::WireHistogram;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, microseconds) of the histogram buckets; the
/// implicit final bucket is unbounded.
const BUCKET_BOUNDS_US: [u64; 17] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    1_000_000,
];

const NUM_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A fixed-bucket latency histogram in microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        self.observe_value(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one raw value against the same bucket bounds. Used for
    /// unit-less histograms (e.g. batch sizes); the wire summary reuses
    /// the microsecond field names regardless of unit.
    pub fn observe_value(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bucket bound covering quantile `q` in `[0, 1]`. Returns
    /// `max_us` for the unbounded bucket (and for an empty histogram, 0).
    fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i < BUCKET_BOUNDS_US.len() {
                    BUCKET_BOUNDS_US[i]
                } else {
                    self.max_us.load(Ordering::Relaxed)
                };
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Summarises this histogram for the wire.
    pub fn snapshot(&self, name: &str) -> WireHistogram {
        WireHistogram {
            name: name.to_string(),
            count: self.count(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

macro_rules! registry {
    (
        counters { $( $(#[$cmeta:meta])* $counter:ident ),+ $(,)? }
        histograms { $( $(#[$hmeta:meta])* $hist:ident ),+ $(,)? }
    ) => {
        /// The serving-layer metrics registry. One instance per server,
        /// shared by every worker thread and the service actor.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $( $(#[$cmeta])* pub $counter: Counter, )+
            $( $(#[$hmeta])* pub $hist: Histogram, )+
        }

        impl Metrics {
            /// All counters as `(name, value)` pairs, in declaration order.
            pub fn wire_counters(&self) -> Vec<(String, u64)> {
                vec![ $( (stringify!($counter).to_string(), self.$counter.get()), )+ ]
            }

            /// All histogram summaries, in declaration order.
            pub fn wire_histograms(&self) -> Vec<WireHistogram> {
                vec![ $( self.$hist.snapshot(stringify!($hist)), )+ ]
            }
        }
    };
}

registry! {
    counters {
        /// TCP connections accepted.
        connections_opened,
        /// TCP connections closed (any reason).
        connections_closed,
        /// Requests decoded and dispatched.
        requests,
        /// `CLAIM` requests granted or queued.
        claims,
        /// Proposals durably logged.
        proposes,
        /// Feedback rounds completed.
        feedbacks,
        /// Rounds released un-proposed.
        releases,
        /// `STATS` requests served.
        stats_requests,
        /// Frames or payloads that failed to decode.
        decode_errors,
        /// Typed `ERROR` responses sent (any code).
        protocol_errors,
        /// Claims rejected because the wait queue was full.
        overloaded,
        /// Rounds re-granted after their owner disconnected.
        reassigned_rounds,
        /// Cold-user selections served through a materialized cohort
        /// prior (personalized policies with `--cohorts` only).
        cohort_hits,
        /// Promotions that reconstructed a user model from its rank-r
        /// sketch record (`--state sketched` only).
        sketch_promotions,
    }
    histograms {
        /// Service-side propose latency (validate + policy + WAL append).
        propose_us,
        /// Service-side feedback latency (update + WAL append).
        feedback_us,
        /// Frame decode + payload parse latency.
        decode_us,
        /// Time a `CLAIM` waited in the grant queue.
        queue_wait_us,
        /// Records per group-commit batch (unit-less; one observation
        /// per fsync, so `count` is the number of batch commits).
        fsync_batch_size,
        /// Queue-to-durable latency of the oldest record in each
        /// group-commit batch.
        commit_latency_us,
        /// Candidate fan-out (route + merge) latency across the shard
        /// actors; empty on a single-actor server.
        shard_route_us,
        /// Cross-shard two-phase commit latency (prepare fan-out through
        /// commit fan-out); empty on a single-actor server.
        cross_shard_commit_us,
        /// Peak per-shard request-queue depth sampled at each fan-out
        /// (unit-less; one observation per shard per drain).
        shard_queue_depth,
        /// Granted in-flight rounds at each grant (unit-less; depth 1
        /// means fully sequential admission).
        pipeline_depth,
    }
}

impl Metrics {
    /// One-line operational summary for the periodic server log.
    pub fn log_line(&self) -> String {
        format!(
            "conns={}/{} requests={} claims={} proposes={} feedbacks={} releases={} \
             errors={{decode={} protocol={} overloaded={}}} reassigned={} \
             propose_p95≤{}µs feedback_p95≤{}µs queue_p95≤{}µs",
            self.connections_opened.get(),
            self.connections_closed.get(),
            self.requests.get(),
            self.claims.get(),
            self.proposes.get(),
            self.feedbacks.get(),
            self.releases.get(),
            self.decode_errors.get(),
            self.protocol_errors.get(),
            self.overloaded.get(),
            self.reassigned_rounds.get(),
            self.propose_us.quantile_us(0.95),
            self.feedback_us.quantile_us(0.95),
            self.queue_wait_us.quantile_us(0.95),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 700] {
            h.observe(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        // Nine of ten observations land in the ≤5µs bucket.
        assert_eq!(h.quantile_us(0.50), 5);
        assert_eq!(h.quantile_us(0.90), 5);
        // The p95 rank (10th observation) lands in the ≤1000µs bucket.
        assert_eq!(h.quantile_us(0.95), 1_000);
        let snap = h.snapshot("x");
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum_us, 9 * 3 + 700);
        assert_eq!(snap.max_us, 700);
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let h = Histogram::default();
        h.observe(Duration::from_secs(3));
        assert_eq!(h.quantile_us(0.5), 3_000_000);
    }

    #[test]
    fn registry_exports_in_declaration_order() {
        let m = Metrics::default();
        m.requests.add(2);
        let counters = m.wire_counters();
        assert_eq!(counters[0].0, "connections_opened");
        assert!(counters.iter().any(|(n, v)| n == "requests" && *v == 2));
        assert!(counters.iter().any(|(n, _)| n == "cohort_hits"));
        assert!(counters.iter().any(|(n, _)| n == "sketch_promotions"));
        let hists = m.wire_histograms();
        assert_eq!(hists[0].name, "propose_us");
        assert_eq!(hists.len(), 10);
        assert!(hists.iter().any(|h| h.name == "pipeline_depth"));
        assert!(hists.iter().any(|h| h.name == "fsync_batch_size"));
        assert!(hists.iter().any(|h| h.name == "commit_latency_us"));
        assert!(hists.iter().any(|h| h.name == "shard_route_us"));
        assert!(hists.iter().any(|h| h.name == "cross_shard_commit_us"));
        assert!(hists.iter().any(|h| h.name == "shard_queue_depth"));
        assert!(!m.log_line().is_empty());
    }

    #[test]
    fn observe_value_buckets_raw_values() {
        let h = Histogram::default();
        for batch in [1u64, 8, 8, 64] {
            h.observe_value(batch);
        }
        assert_eq!(h.count(), 4);
        let snap = h.snapshot("fsync_batch_size");
        assert_eq!(snap.sum_us, 81);
        assert_eq!(snap.max_us, 64);
        // Three of four observations are ≤ 10.
        assert_eq!(h.quantile_us(0.75), 10);
    }
}
