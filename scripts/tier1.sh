#!/usr/bin/env bash
# Tier-1 verification:
#   1. the full build + test suite (ROADMAP.md's canonical command), then
#   2. the concurrency-sensitive suites — thread pool, parallel runner
#      determinism, simulator — rebuilt and rerun under ThreadSanitizer so
#      data races in the pool or the repetition merge path fail loudly, then
#   3. the fault-injection and failure-recovery suites, plus the DP
#      selector's equivalence suites, rebuilt and rerun under ASan+UBSan
#      (abandoned-tour prefix walks, runner retry paths, event-trace
#      bookkeeping and the DP's lazy-table indexing are exactly where an
#      off-by-one would hide), then
#   4. a Release (-O3, NDEBUG) stage: the selector-equivalence suites rerun
#      at the optimization level performance numbers are quoted at (the DP
#      bound-prune and fused scan are exactly the code whose floating-point
#      behaviour could shift under optimization), plus a smoke run of the
#      micro benches so a broken bench binary fails tier-1, not bench day
#      (the DP's m = 18 panels, cold and warm, take milliseconds now that a
#      call pays only for the states it reaches).
#
# The ASan stage also carries the durability net: the checkpoint envelope /
# writer / corruption-fuzz suites, the checkpoint-resume equivalence matrix
# and the crash harness (CheckpointCrash forks the test binary and _exit()s
# mid-write). --skip-crash excludes the fork-based crash tests on platforms
# where fork inside a sanitized test binary is awkward; everything else
# still runs.
#
# Each filtered ctest call passes --no-tests=error, so a -R list that test
# retirements have emptied fails the stage instead of passing silently.
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan] [--skip-release]
#                         [--skip-crash]
#   MCS_ASAN=0 in the environment also skips the ASan stage.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

SKIP_TSAN=0
SKIP_ASAN=0
SKIP_RELEASE=0
SKIP_CRASH=0
for arg in "$@"; do
  case "${arg}" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-release) SKIP_RELEASE=1 ;;
    --skip-crash) SKIP_CRASH=1 ;;
    *) echo "tier1: unknown argument ${arg}" >&2; exit 2 ;;
  esac
done
CRASH_EXCLUDE=()
if [[ "${SKIP_CRASH}" == "1" ]]; then
  CRASH_EXCLUDE=(-E 'CheckpointCrash')
fi
if [[ "${MCS_ASAN:-1}" == "0" ]]; then
  SKIP_ASAN=1
fi

cmake -B build -S .
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

if [[ "${SKIP_TSAN}" == "1" ]]; then
  echo "tier1: skipping ThreadSanitizer stage"
else
  cmake -B build-tsan -S . -DMCS_TSAN=ON
  cmake --build build-tsan -j "${JOBS}" --target test_common test_model test_integration test_sim
  # Every session-engine suite below compares against the serial
  # one-user-at-a-time oracle (tests/sim/serial_reference.h: a test-held
  # replay from public APIs that builds instances by brute force and pays,
  # records and delivers every leg as it is walked).
  # PlanEquivalence drives the round loop through plan_threads 2 and 8 —
  # plan workers gathering candidates concurrently from the round's shared,
  # frozen task index — so it must stay in the TSan net alongside the
  # thread-pool/runner suites.
  # PlanMemoEquivalence is the memo-equivalence stage: each worker runs the
  # memo tables of its cells, and memoized campaigns must stay
  # bit-identical (and race-free) under TSan.
  # ShardEquivalence drives the same loop (parallel pre-pass, cell keys,
  # per-cell gather and planning over the SoA stores) at shard counts 1-8
  # and auto — the widest concurrent surface in the simulator — including
  # UnevenCellPartitionKeepsPlansAndMemoStats, a few thousand users over
  # uneven cells at workers 1, 2, 3 and 8.
  # CommitEquivalence drives the buffered parallel commit (segment walk +
  # ordered merge + row-grouped delivery apply) at shard counts 0-8 and
  # auto and plan threads 1 and 4 — every thread-local effect buffer and
  # its merge runs under TSan here.
  # NeighborCache drives the round-start recount's pooled count pass (up to
  # 4 workers writing disjoint count slots against one shared user grid).
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan --output-on-failure \
    --no-tests=error -R 'ThreadPool|ParallelForEach|ParallelRunner|Determinism|Runner|Simulator|PlanEquivalence|PlanMemoEquivalence|RepriceEquivalence|ShardEquivalence|CommitEquivalence|NeighborCache'
fi

if [[ "${SKIP_ASAN}" == "1" ]]; then
  echo "tier1: skipping ASan+UBSan stage"
else
  cmake -B build-asan -S . -DMCS_ASAN=ON
  cmake --build build-asan -j "${JOBS}" --target test_sim test_integration test_select
  # Checkpoint* picks up the envelope/writer suites, the corruption fuzzers,
  # the resume-equivalence matrix, the RunnerCheckpoint recovery tests and
  # the fork-based CheckpointCrash kill-mid-write harness (unless
  # --skip-crash); decode and the directory-fallback walk are exactly the
  # code that must never read past a truncated buffer. CommitEquivalence
  # drives abandoned-tour prefix walks at stress fault rates through the
  # buffered commit's segment buffers and row-grouped apply.
  # DpEquivalence, DpSelector and PruneCandidatesInto drive the DP's lazy
  # table: the pending-bitmap words, per-mask live words and row offsets
  # are where an out-of-range access would hide, and the reused arena keeps
  # stale rows that only a live bit may expose.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    --no-tests=error -R 'Fault|RunnerFailure|Simulator|EventLog|Checkpoint|SerializeWorld|CommitEquivalence|DpEquivalence|DpSelector|PruneCandidatesInto' \
    "${CRASH_EXCLUDE[@]}"
fi

if [[ "${SKIP_RELEASE}" == "1" ]]; then
  echo "tier1: skipping Release stage"
else
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "${JOBS}" \
    --target test_select test_sim test_incentive test_model test_geo \
    bench_selector_scaling bench_campaign_throughput bench_incentive_micro \
    bench_checkpoint
  # Selector equivalence plus the plan/memo/reprice/neighbor-cache
  # equivalence suites at the optimization level performance numbers are
  # quoted at (bit-identity claims must hold under -O3 as well). PlanMemo
  # covers both the unit proofs and the campaign-level memo equivalence;
  # BudgetTracker pins the compensated-sum overdraft bound under -O3.
  # CheckpointResume joins the -O3 net: bit-identical resume is a
  # floating-point identity claim just like the selector equivalences.
  # ShardEquivalence: the round loop == the serial reference is likewise a
  # floating-point identity claim; it includes the sparse-index and
  # shared-start worlds whose gathers run on cells sized to the open tasks
  # and reuse repeated (start, reach) queries. FrozenGrid: every loop
  # gathers candidates with an inflated-radius query on the round's
  # FrozenGrid and then the exact reach predicate; the gather is exact only
  # if that query never under-collects and its hits do not depend on the
  # cell size (the round index sizes cells to the open-task count;
  # FrozenGridProperty sweeps area/64 up to one cell over the whole area),
  # which must hold under -O3 too. CommitEquivalence: the
  # batch commit's merge replays payments and deliveries in the order the
  # serial one-user-at-a-time reference commits them — bit-identity that
  # must survive -O3 exactly like the others. DemandIndicator/DemandLevel:
  # their bit-exact sweep tests are the one pin of the mechanisms' fused
  # column sweep (demand_from_fields) against the per-task demand() and
  # levels_for() oracles.
  ctest --test-dir build-release --output-on-failure -j "${JOBS}" \
    --no-tests=error -R 'DpEquivalence|PruneCandidatesInto|SolverEquivalence|DpSelector|PlanEquivalence|PlanMemo|RepriceEquivalence|OnDemandReprice|SteeredReprice|DemandIndicator|DemandLevel\.|DemandLevelProperty|NeighborCache|BudgetTracker|CheckpointResume|CheckpointEnvelope|ShardEquivalence|CommitEquivalence|FrozenGrid'
  ./build-release/bench/bench_selector_scaling --benchmark_min_time=0.01 \
    --benchmark_filter='BM_DpSelector/(14|18)|BM_DpSelectorColdArena/18|BM_DpSelectorUnpruned/14|BM_GreedySelector/14' >/dev/null
  # The 100k-user round-loop run (shards=1: buffered commit on one worker) and
  # BM_CampaignReprice join the smoke set: a large-world bench that no
  # longer builds or runs must fail tier-1, not bench day. Only the 100k
  # runs (trailing slash keeps the 1M configs out — they are minutes of
  # work and belong to bench day).
  ./build-release/bench/bench_campaign_throughput --benchmark_min_time=0.01 \
    --benchmark_filter='BM_Campaign/greedy/50|BM_CampaignPlanThreads/100/8|BM_CampaignSharded/100000/1/|BM_CampaignReprice/100000/1/' >/dev/null
  # Checkpoint write/load smoke: a broken durability bench (or a checkpoint
  # layer that stopped round-tripping under -O3) fails tier-1 here.
  ./build-release/bench/bench_checkpoint --benchmark_min_time=0.01 \
    --benchmark_filter='BM_CheckpointWrite|BM_CheckpointLoad' >/dev/null
  # The steady-state repricing path must stay allocation-free; the bench
  # counts operator-new calls per iteration and reports them as a counter.
  ALLOC_OUT="$(./build-release/bench/bench_incentive_micro --benchmark_min_time=0.01 \
    --benchmark_filter='BM_UpdateRewardsSteadyState/100')"
  echo "${ALLOC_OUT}" | tail -n 1
  if ! grep -Eq 'allocs_per_iter=0($|[^.0-9])' <<<"${ALLOC_OUT}"; then
    echo "tier1: BM_UpdateRewardsSteadyState allocates in steady state" >&2
    exit 1
  fi
  # The round-start neighbor recount (every user moved) must stay off the
  # heap at 1 and at 4 workers: the user grid is rebuilt in place and the
  # pooled count pass submits closures that fit std::function's inline
  # storage into a queue that reuses its slots.
  RECOUNT_OUT="$(./build-release/bench/bench_incentive_micro --benchmark_min_time=0.01 \
    --benchmark_filter='BM_NeighborRecountSteadyState/(1|4)/')"
  echo "${RECOUNT_OUT}" | tail -n 2
  if [[ "$(grep -c 'BM_NeighborRecountSteadyState' <<<"${RECOUNT_OUT}")" != 2 ]] ||
     [[ "$(grep -Ec 'allocs_per_iter=0($|[^.0-9])' <<<"${RECOUNT_OUT}")" != 2 ]] ||
     [[ "$(grep -Ec 'recounts_per_iter=1($|[^.0-9])' <<<"${RECOUNT_OUT}")" != 2 ]]; then
    echo "tier1: BM_NeighborRecountSteadyState allocates or skips the recount" >&2
    exit 1
  fi
fi

echo "tier1: OK"
