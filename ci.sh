#!/usr/bin/env bash
# CI gate, in two stages:
#   1. tier-1: plain build + the full ctest suite (must stay green), then
#      the pipebench selftest.
#   2. sanitizers: the concurrency stress suites plus the vectorized/scalar
#      parity fuzz under AddressSanitizer and ThreadSanitizer — the
#      enforcement mechanism for the lifetime and lock rules in DESIGN.md §5
#      (broker topic ownership, OLAP table ownership, the shared executor /
#      cooperative JobRunner and its barrier checkpoints, fetched views
#      pinned across topic migration and DLQ reinjection), for the memory
#      safety of the vectorized segment engine's raw-buffer kernels, and for
#      the bounds-checked common/bytes.h readers that decode possibly corrupt
#      blobs (rows, row batches, checkpoints, window state, segments), and
#      for the audited per-message produce path (ProduceRow's in-place uid,
#      the single-record append into the log arena, Chaperone's uid sets),
#      and for the bounded-state soak (checkpoint retention, Chaperone window
#      finalization and the compact log index under a crash and restore).
#   3. perf smoke: bench_c5's filtered group-by in the Release tier-1 build
#      must show the vectorized engine no slower than the scalar oracle
#      (UBERRT_PERF_GATE); the honest ratio + core count land in BENCH_c5.json.
#      bench_stream_throughput likewise gates the batched/zero-copy stream
#      path against the per-message baseline (ratios in BENCH_stream.json),
#      bench_compute_throughput gates the batch-at-a-time dataflow
#      (ElementBatch channels, operator chaining, flat-hash keyed state)
#      against the per-record baseline (ratios in BENCH_compute.json),
#      bench_tiering gates the warm-tier footprint and the cluster
#      memory budget (curves in BENCH_tiering.json), and bench_c14_slas
#      fails if any dashboard batch waits out its 5 s freshness give-up
#      (stalls in BENCH_c14.json).
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: plain build + full test suite =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

# Benchmark selftest (builds pipebench's own Release tree): wrapped queries
# must match unwrapped ones and the traced pump must match PumpOnce.
echo "== pipebench selftest =="
python3 pipebench/run.py --selftest

CONCURRENCY_SUITES="common_executor_test|stream_log_test|stream_broker_concurrency_test|olap_cluster_concurrency_test|chaos_soak_test|olap_vectorized_parity_test|olap_morsel_parity_test|olap_upsert_recovery_test|olap_tiering_test|allactive_drill_test|compute_batch_parity_test|stream_federation_test|stream_dlq_proxy_test|olap_segment_test|olap_table_test|compute_barrier_checkpoint_test|compute_job_runner_test|compute_management_test|compute_window_operator_test|compute_checkpoint_test|storage_metadata_test|sql_engine_test|stream_replication_test|core_platform_test|stream_broker_test|bounded_state_soak_test"
for SAN in address thread; do
  echo "== sanitizer gate: ${SAN} =="
  cmake -B "build-${SAN}" -S . -DUBERRT_SANITIZE="${SAN}"
  cmake --build "build-${SAN}" -j --target \
    common_executor_test stream_log_test stream_broker_concurrency_test \
    olap_cluster_concurrency_test chaos_soak_test olap_vectorized_parity_test \
    olap_morsel_parity_test olap_upsert_recovery_test olap_tiering_test \
    allactive_drill_test compute_batch_parity_test stream_federation_test \
    stream_dlq_proxy_test olap_segment_test olap_table_test \
    compute_barrier_checkpoint_test compute_job_runner_test compute_management_test \
    compute_window_operator_test compute_checkpoint_test storage_metadata_test sql_engine_test \
    stream_replication_test core_platform_test stream_broker_test bounded_state_soak_test
  ctest --test-dir "build-${SAN}" --output-on-failure -R "^(${CONCURRENCY_SUITES})$"
done

# Chaos gate: the end-to-end soak must hold its invariants (no acked message
# lost, exact counts across crash/restart, zero-loss failover, sheds only at
# declared priorities during drills) for multiple seeds under TSan, not just
# the default.
for SEED in 7 1337; do
  echo "== chaos gate: thread sanitizer, seed ${SEED} =="
  UBERRT_CHAOS_SEED="${SEED}" \
    ctest --test-dir build-thread --output-on-failure -R '^chaos_soak_test$'
done

# Failover drill gate (TSan): planned + unplanned drills under live traffic
# record MTTR / bounded replay / per-priority sheds / SLA violations into
# BENCH_drills.json; the suite fails if any critical traffic is shed or any
# acked message is lost while best-effort shedding is active.
echo "== failover drill gate: thread sanitizer =="
ctest --test-dir build-thread --output-on-failure -R '^allactive_drill_test$'
cp build-thread/tests/BENCH_drills.json .

# Perf smoke: the vectorized engine must not regress below the scalar
# row-at-a-time oracle on the bench_c5 filtered group-by (Release build).
echo "== perf smoke: vectorized vs scalar (bench_c5) =="
cmake --build build -j --target bench_c5_pinot_vs_druid
(cd build && UBERRT_PERF_GATE=1 ./bench/bench_c5_pinot_vs_druid)

# Perf smoke: the batched/zero-copy stream log must not regress below the
# retained per-message produce/fetch baseline (Release build).
echo "== perf smoke: batched vs per-message stream log (bench_stream_throughput) =="
cmake --build build -j --target bench_stream_throughput
(cd build && UBERRT_PERF_GATE=1 ./bench/bench_stream_throughput)

# Perf smoke: the batch-at-a-time compute runtime (ElementBatch channels,
# operator chaining, flat-hash keyed state) must not regress below the
# retained per-record dataflow on either the windowed-aggregation or the
# window-join pipeline (Release build; ratios in BENCH_compute.json).
echo "== perf smoke: batched vs per-record dataflow (bench_compute_throughput) =="
cmake --build build -j --target bench_compute_throughput
(cd build && UBERRT_PERF_GATE=1 ./bench/bench_compute_throughput)

# Perf smoke: 64-way dashboard concurrency — the morsel-parallel scatter
# must hold p99 within tolerance of the serial broker and the result cache
# must beat serial at p50 (tolerances documented in bench_concurrency.cc).
echo "== perf smoke: 64-way concurrency (bench_concurrency) =="
cmake --build build -j --target bench_concurrency
(cd build && UBERRT_PERF_GATE=1 ./bench/bench_concurrency)

# Perf smoke: the segment tier sweep — the all-warm footprint must stay
# under 0.5x the all-hot footprint, and a budget at 40% of all-hot must hold
# within 1.1x across a query pass with bitwise-identical results
# (BENCH_tiering.json records the footprint/latency curve per tier mix).
echo "== perf smoke: segment tiers under memory budget (bench_tiering) =="
cmake --build build -j --target bench_tiering
(cd build && UBERRT_PERF_GATE=1 ./bench/bench_tiering)

# Perf smoke: every produced dashboard batch must become queryable before
# bench_c14_slas gives up on it at 5 s; a stall means a window stayed open
# after its records were read (stalls in BENCH_c14.json).
echo "== perf smoke: dashboard freshness without stalls (bench_c14_slas) =="
cmake --build build -j --target bench_c14_slas
(cd build && UBERRT_PERF_GATE=1 ./bench/bench_c14_slas)

# Regenerate the remaining headline bench artifacts (ungated: these record
# measured values next to the paper's claims) and persist every BENCH_*.json
# at the repo root so the numbers ride along with the code that produced
# them.
echo "== bench artifacts =="
cmake --build build -j --target bench_c4_pinot_vs_es bench_c7_segment_recovery \
  bench_c8_pushdown
(cd build && ./bench/bench_c4_pinot_vs_es && ./bench/bench_c7_segment_recovery \
  && ./bench/bench_c8_pushdown)
cp build/BENCH_*.json .

echo "CI OK"
