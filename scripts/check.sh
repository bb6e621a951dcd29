#!/usr/bin/env bash
# Full local gate: formatting, lints, and the whole test suite.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --workspace

# No caller may use a deprecated API. (The PR 8-deprecated
# oracle_greedy* free-function wrappers this gate was added for have
# since been removed outright; the gate stays for whatever deprecates
# next.)
echo "==> cargo check with -D deprecated"
RUSTFLAGS="${RUSTFLAGS:-} -D deprecated" cargo check -q --workspace --all-targets

echo "==> cargo build --examples"
cargo build -q --examples

echo "==> cargo bench --no-run"
cargo bench -q --no-run

# Pruned UCB scoring against the full kernel: identical arrangements
# and bit-equal exact entries over hostile rows, score ties, three α
# values, widening and `k = n` fallbacks, and a horizon past the
# estimator's 4096-update Y⁻¹ refresh — in release, the build the
# benchmark measures.
echo "==> pruned-equals-full UCB scoring (release)"
cargo test -q --release -p fasea-bandit --test batched_equivalence pruned

# The pruned round allocates nothing in steady state, in the build the
# benchmark measures: the policy round alone, and a 5000×20
# propose+feedback round through the service. The workspace step above
# runs them unoptimised, and a root `cargo test -q` not at all.
echo "==> zero-allocation pruned rounds (release)"
cargo test -q --release -p fasea-bandit --test alloc_free
cargo test -q --release -p fasea-sim --test service_alloc

# Spill determinism: a personalized-policy run under a tiny model-store
# memory budget (constant demotion/eviction/faulting through the spill
# log) must stay bit-equal to the unbounded run for both policies.
echo "==> models spill-determinism golden tests"
cargo test -q --test models_spill_determinism

# Cohort + sketched multi-user CLI smoke: a budgeted cohort run must
# verify bit-equal to unbounded, and a sketched run must pass the
# regret-parity gate against its exact control.
echo "==> multi-user cohort/sketched determinism smoke"
cargo test -q -p fasea-experiments --lib -- \
  cohort_mode_budgeted_run_is_bit_equal_to_unbounded \
  sketched_mode_passes_regret_parity_at_d_16

# Sharded-vs-single byte parity: every policy at 1/2/4 shards must land
# on the identical StateDigest (capacities, accounting, policy RNG) as
# the single-actor service, and the 2PC kill matrix must recover from a
# cut at every shard-log and coordinator-log record boundary.
echo "==> sharded-vs-single parity + 2PC kill matrix"
cargo test -q --test shard_parity

# Oracle-trait equivalence gate: GreedyOracle routed through the Oracle
# trait must stay bit-equal to the pre-trait reference for all 7
# policies on the single actor and over shards {1,2,4}, and TabuOracle
# must shard identically to its single-actor run.
echo "==> oracle-trait equivalence (greedy bit-equal, tabu shard parity)"
cargo test -q --test shard_parity oracle

# Churn golden: a churning sharded run (lifecycle records on every
# shard log and the coordinator log) killed at every record boundary
# must recover and finish byte-identical to the single-actor churned
# run, counters equal to the capacity mirror.
echo "==> churned lifecycle kill matrix"
cargo test -q --test shard_parity churned_kill_matrix_recovers_byte_identically

# Grant-ahead crash safety: a depth-4 server killed with >= 2 rounds in
# flight (head proposal logged, future proposal buffered) must lose no
# acked round and resume to the sequential run's accounting. Depth-4
# vs depth-1 state parity for UCB and TS is in tests/serve_end_to_end.rs
# (run by the workspace test step above).
echo "==> grant-ahead in-flight crash recovery"
cargo test -q --test pipeline_parity

# The served stack in the build the benchmark measures: workers run
# commands under the actor lock while the accept loop ticks admission,
# so these worker/accept-loop interleavings (hostile peers, drain,
# crash-resume, grant-ahead crash recovery) also run optimised.
echo "==> served stack: robustness, end-to-end, grant-ahead parity (release)"
cargo test -q --release -p fasea-serve --test robustness
cargo test -q --release --test serve_end_to_end --test pipeline_parity

# The commit pipeline in the build the benchmark measures: every kill
# matrix and the group-commit unit tests run the syncer and caller-runs
# interleavings (a blocked caller commits on its own thread while the
# syncer commits deferred appends), whose timing differs from debug.
echo "==> store recovery kill matrices + group commit (release)"
cargo test -q --release --test store_recovery
cargo test -q --release -p fasea-store --lib group

# Smoke the grant-ahead bench (~1s): exercises the serve depth 1 / 4
# cells, the few-cores warning path, and each cell's closing STATS
# assertion that no event ran out of capacity. The committed
# BENCH_pipeline.json comes from a full-budget run, not this smoke.
echo "==> pipeline_throughput smoke (FASEA_BENCH_MS=25)"
FASEA_BENCH_MS=25 cargo bench -q -p fasea-bench --bench pipeline_throughput

# Smoke the greedy-vs-tabu oracle bench (~1s). The committed
# BENCH_oracle.json comes from a full-budget run, not this smoke.
echo "==> oracle_compare smoke (FASEA_BENCH_MS=25)"
FASEA_BENCH_MS=25 cargo bench -q -p fasea-bench --bench oracle_compare

# Smoke the sharding bench (~1s): the single actor and 1/2/4 shards
# with fsync off. The committed BENCH_shard.json comes from a
# full-budget run, not this smoke.
echo "==> shard_scaling smoke (FASEA_BENCH_MS=25)"
FASEA_BENCH_MS=25 cargo bench -q -p fasea-bench --bench shard_scaling

# End-to-end smoke of the benchmark package (its own workspace, so the
# workspace test run above skips it): all four workloads at quick size,
# untraced and traced, with served replay parity, so wire framing and the
# current WAL format run through a real server.
echo "==> fasea-benchmark smoke (four workloads, quick size)"
cargo test -q --release --manifest-path benchmark/Cargo.toml

# Every committed bench-result table must still parse and keep the
# shared schema (object with "bench"/"units"/"host_cores"/non-empty
# "cells" of flat scalar cells with one key set) so downstream tooling
# never reads a drifted artefact.
echo "==> check-bench (committed BENCH_*.json schema)"
cargo run -q -p fasea-experiments --bin fasea-exp -- check-bench BENCH_*.json

echo "All checks passed."
