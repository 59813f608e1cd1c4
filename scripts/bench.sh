#!/usr/bin/env bash
# Release benchmark driver. Performance numbers quoted anywhere in this repo
# must come from this script: it configures an optimized Release build
# (`build-release/`), regenerates every figure/ablation table in `results/`,
# and runs the google-benchmark micro suites with machine-readable output:
#
#   results/BENCH_selector.json  — bench_selector_scaling, merged with the
#       committed pre-optimization Release baseline
#       (results/BENCH_selector_baseline_pre_pr.json) and annotated with
#       per-benchmark CPU-time speedups so the DP-optimization claim stays
#       checkable from one file.
#   results/BENCH_campaign.json  — bench_campaign_throughput (end-to-end
#       campaigns/s per selector, plus the BM_CampaignPlanThreads
#       plan-thread scaling sweep at 100/1k/10k users), merged with the
#       committed pre-PR Release baseline
#       (results/BENCH_campaign_baseline_pre_pr.json) and annotated with
#       per-benchmark CPU-time speedups, same shape as BENCH_selector.json.
#
# Figure tables are deterministic (fixed seeds, thread-count invariant
# aggregation), so regenerating them from a Release binary must reproduce
# the checked-in text bit for bit; the micro-benchmark .txt captures are
# timing snapshots and will differ run to run.
#
# After regenerating BENCH_campaign.json, scripts/bench_gate.py compares the
# fresh capture against the committed HEAD version of the same file and
# fails the run when any gated campaign-throughput series lost more than 15%
# — a regression has to be acknowledged (--skip-gate), never committed
# silently.
#
# Usage: scripts/bench.sh [--skip-figures] [--skip-micro] [--skip-gate]
#                         [--min-time=<t>]
#   --min-time takes a google-benchmark duration in seconds as a plain
#   double, e.g. 0.05 (default: the library's 0.5) and only affects the
#   micro suites.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
BUILD=build-release

SKIP_FIGURES=0
SKIP_MICRO=0
SKIP_GATE=0
MIN_TIME=""
for arg in "$@"; do
  case "${arg}" in
    --skip-figures) SKIP_FIGURES=1 ;;
    --skip-micro) SKIP_MICRO=1 ;;
    --skip-gate) SKIP_GATE=1 ;;
    --min-time=*) MIN_TIME="${arg#--min-time=}" ;;
    *) echo "bench: unknown argument ${arg}" >&2; exit 2 ;;
  esac
done

MICRO_ARGS=()
if [[ -n "${MIN_TIME}" ]]; then
  MICRO_ARGS+=("--benchmark_min_time=${MIN_TIME}")
fi

cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD}" -j "${JOBS}"
mkdir -p results

# Paper figures, ablations and extensions: plain-text tables. Keep this list
# in sync with the mcs_add_figure() targets in bench/CMakeLists.txt.
FIGURES=(
  bench_ahp_tables
  bench_fig5_dp_vs_greedy
  bench_fig6_coverage
  bench_fig7_completeness
  bench_fig8_measurements
  bench_fig9_balance
  bench_ablation_factors
  bench_ablation_levels
  bench_ablation_radius
  bench_ablation_selector
  bench_ext_mobility
  bench_ext_reward_dynamics
  bench_ext_fairness
  bench_significance
  bench_ext_adaptive_budget
)

if [[ "${SKIP_FIGURES}" == "1" ]]; then
  echo "bench: skipping figure regeneration"
else
  for fig in "${FIGURES[@]}"; do
    echo "bench: ${fig}"
    "./${BUILD}/bench/${fig}" > "results/${fig}.txt"
  done
  # The fault-tolerance headline sweep is recorded in the labor-limited
  # regime (EXPERIMENTS.md): scarce workers, ample budget, baseline
  # abandon/loss churn; also dumps the ext_fault_*.csv series.
  echo "bench: bench_ext_fault_tolerance"
  ./${BUILD}/bench/bench_ext_fault_tolerance \
    --users=60 --budget=5000 --loss=0.1 --abandon=0.05 --reps=20 \
    --csv-dir=results > results/bench_ext_fault_tolerance.txt
fi

if [[ "${SKIP_MICRO}" == "1" ]]; then
  echo "bench: skipping micro benchmarks"
else
  SELECTOR_TMP="$(mktemp)"
  "./${BUILD}/bench/bench_selector_scaling" "${MICRO_ARGS[@]+"${MICRO_ARGS[@]}"}" \
    --benchmark_out="${SELECTOR_TMP}" --benchmark_out_format=json \
    | tee results/bench_selector_scaling.txt

  # Fold the committed pre-optimization baseline into BENCH_selector.json so
  # the speedup is auditable without digging through git history.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${SELECTOR_TMP}" results/BENCH_selector_baseline_pre_pr.json \
      results/BENCH_selector.json <<'PY'
import json, os, sys

cur_path, base_path, out_path = sys.argv[1:4]
with open(cur_path) as f:
    cur = json.load(f)
merged = {"current": cur}
if os.path.exists(base_path):
    with open(base_path) as f:
        base = json.load(f)
    merged["baseline_pre_pr"] = base

    def cpu_times(run):
        return {b["name"]: b["cpu_time"] for b in run.get("benchmarks", [])
                if b.get("run_type", "iteration") == "iteration"}

    b_t, c_t = cpu_times(base), cpu_times(cur)
    merged["speedup_cpu_time_vs_baseline"] = {
        name: round(b_t[name] / c_t[name], 3)
        for name in c_t if name in b_t and c_t[name] > 0.0
    }
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
PY
  else
    cp "${SELECTOR_TMP}" results/BENCH_selector.json
  fi
  rm -f "${SELECTOR_TMP}"

  CAMPAIGN_TMP="$(mktemp)"
  "./${BUILD}/bench/bench_campaign_throughput" "${MICRO_ARGS[@]+"${MICRO_ARGS[@]}"}" \
    --benchmark_out="${CAMPAIGN_TMP}" --benchmark_out_format=json \
    | tee results/bench_campaign_throughput.txt

  # Same baseline fold as the selector suite: the pre-PR Release run rides
  # along inside BENCH_campaign.json with CPU-time speedups per benchmark.
  # The BM_CampaignMemo pairs are additionally distilled into a "plan_memo"
  # section: campaigns/s with the memo off vs on, the off->on speedup and
  # the memo hit rate, per user count. The BM_CampaignReprice pairs become a
  # "reprice_phase" section: reprice seconds for the serial vs the
  # auto-threaded sweep plus the reduction against the committed HEAD
  # capture's BM_CampaignSharded shards=1 reprice timer (the pre-PR release
  # numbers), so the reprice-sharding claim is auditable from one file.
  if command -v python3 >/dev/null 2>&1; then
    HEAD_CAMPAIGN="$(mktemp)"
    git show HEAD:results/BENCH_campaign.json > "${HEAD_CAMPAIGN}" \
      2>/dev/null || : > "${HEAD_CAMPAIGN}"
    python3 - "${CAMPAIGN_TMP}" results/BENCH_campaign_baseline_pre_pr.json \
      results/BENCH_campaign.json "${HEAD_CAMPAIGN}" <<'PY'
import json, os, re, sys

cur_path, base_path, out_path, head_path = sys.argv[1:5]
with open(cur_path) as f:
    cur = json.load(f)
merged = {"current": cur}
if os.path.exists(base_path):
    with open(base_path) as f:
        base = json.load(f)
    merged["baseline_pre_pr"] = base

    # Best repetition per name (repetition runs emit duplicates, with a
    # "/repeats:N" name suffix a single-run baseline lacks), matching the
    # bench_gate folding.
    def cpu_times(run):
        out = {}
        for b in run.get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue
            t = b.get("cpu_time", 0.0)
            if t > 0.0:
                name = re.sub(r"/repeats:\d+$", "", b["name"])
                out[name] = min(out.get(name, t), t)
        return out

    b_t, c_t = cpu_times(base), cpu_times(cur)
    merged["speedup_cpu_time_vs_baseline"] = {
        name: round(b_t[name] / c_t[name], 3)
        for name in c_t if name in b_t
    }

memo = {}
for b in cur.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    parts = b["name"].split("/")
    if parts[0] != "BM_CampaignMemo" or len(parts) < 3:
        continue
    users, memo_on = parts[1], parts[2] == "1"
    entry = memo.setdefault(users, {})
    key = "memo_on" if memo_on else "memo_off"
    entry[key + "_campaigns_per_s"] = round(b.get("items_per_second", 0.0), 4)
    if memo_on:
        entry["hit_rate"] = round(b.get("hit_rate", 0.0), 4)
for entry in memo.values():
    off = entry.get("memo_off_campaigns_per_s")
    on = entry.get("memo_on_campaigns_per_s")
    if off and on:
        entry["speedup_campaigns_per_s"] = round(on / off, 3)
if memo:
    merged["plan_memo"] = memo

# Reprice A/B: best (min) phase_reprice_s per series across the
# single-iteration repetitions, serial (range(1)=0) vs auto-threaded.
reprice = {}
for b in cur.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    parts = b["name"].split("/")
    if parts[0] != "BM_CampaignReprice" or len(parts) < 3:
        continue
    users, key = parts[1], "threaded" if parts[2] == "1" else "serial"
    entry = reprice.setdefault(users, {})
    t = b.get("phase_reprice_s", 0.0)
    prev = entry.get(key + "_reprice_s")
    entry[key + "_reprice_s"] = round(min(prev, t) if prev else t, 4)

# Pre-PR reprice timers: the committed HEAD capture's shards=1 sharded runs.
head_reprice = {}
if os.path.getsize(head_path) > 0:
    with open(head_path) as f:
        head = json.load(f)
    head = head.get("current", head)
    for b in head.get("benchmarks", []):
        parts = b["name"].split("/")
        if parts[0] == "BM_CampaignSharded" and len(parts) >= 3 \
                and parts[2] == "1" and "phase_reprice_s" in b:
            head_reprice[parts[1]] = b["phase_reprice_s"]

for users, entry in reprice.items():
    serial = entry.get("serial_reprice_s")
    threaded = entry.get("threaded_reprice_s")
    if serial and threaded:
        entry["speedup_threaded_vs_serial"] = round(serial / threaded, 3)
    if serial and head_reprice.get(users):
        entry["prev_release_reprice_s"] = round(head_reprice[users], 4)
        entry["reduction_vs_prev_release"] = round(
            head_reprice[users] / serial, 3)
if reprice:
    merged["reprice_phase"] = reprice

with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
PY
    rm -f "${HEAD_CAMPAIGN}"
  else
    cp "${CAMPAIGN_TMP}" results/BENCH_campaign.json
  fi
  rm -f "${CAMPAIGN_TMP}"


  "./${BUILD}/bench/bench_incentive_micro" "${MICRO_ARGS[@]+"${MICRO_ARGS[@]}"}" \
    | tee results/bench_incentive_micro.txt

  # Throughput regression gate: fresh numbers vs the committed HEAD
  # captures of the same files. Skipped per file when it has no committed
  # version yet (first bench day); skipped entirely without python3.
  if [[ "${SKIP_GATE}" == "1" ]]; then
    echo "bench: skipping regression gate"
  elif command -v python3 >/dev/null 2>&1; then
    GATE_BASE="$(mktemp)"
    if git show HEAD:results/BENCH_campaign.json > "${GATE_BASE}" 2>/dev/null; then
      python3 scripts/bench_gate.py results/BENCH_campaign.json "${GATE_BASE}"
    else
      echo "bench: no committed BENCH_campaign.json baseline; gate skipped"
    fi
    if git show HEAD:results/BENCH_selector.json > "${GATE_BASE}" 2>/dev/null; then
      python3 scripts/bench_gate.py results/BENCH_selector.json "${GATE_BASE}" \
        --series='^BM_(DpSelector|GreedySelector|BranchBound)'
    else
      echo "bench: no committed BENCH_selector.json baseline; gate skipped"
    fi
    rm -f "${GATE_BASE}"
  fi
fi

echo "bench: OK"
