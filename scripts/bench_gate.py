#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly generated google-benchmark JSON capture against the
committed baseline of the same file and fails (exit 1) when any pinned
series regresses by more than the threshold. Wired into scripts/bench.sh so
a bench-day regeneration that silently lost throughput fails loudly instead
of being committed as the new normal.

Usage:
  bench_gate.py FRESH BASELINE [--threshold=0.15] [--series=REGEX]

FRESH and BASELINE are either raw google-benchmark JSON files or the merged
results/BENCH_*.json shape ({"current": <benchmark json>, ...}); BASELINE is
typically materialized with `git show HEAD:results/BENCH_campaign.json`.

When a capture was taken with --benchmark_repetitions=N, every repetition
appears as its own "iteration" entry under the same name; the gate keeps
the best repetition per name (min cpu_time / max items_per_second), which
is the standard scheduling-noise filter — the best-of-N of a healthy build
is stable where the mean is not.

For each benchmark name matched by --series and present in both captures,
the gate compares `items_per_second` when the benchmark reports it (higher
is better) and `cpu_time` otherwise (lower is better). The default series
covers the campaign-throughput families whose numbers are quoted in
EXPERIMENTS.md; single-iteration large-world runs (BM_CampaignSharded, the
1M BM_CampaignReprice pair) are excluded by default
because one sample has no noise floor to gate against. The 100k
BM_CampaignReprice pair runs 3 repetitions, so it is gated (best-of-3
campaigns/s).
"""

import argparse
import json
import re
import sys


def better_of(a, b):
    """The better of two same-name benchmark entries: max items_per_second
    when both report it, else min cpu_time."""
    if "items_per_second" in a and "items_per_second" in b:
        return a if a["items_per_second"] >= b["items_per_second"] else b
    return a if a.get("cpu_time", 0.0) <= b.get("cpu_time", 0.0) else b


def normalize_name(name):
    """Strip the "/repeats:N" suffix repetition runs append, so a
    repetitions capture stays comparable with a single-run baseline (and
    vice versa)."""
    return re.sub(r"/repeats:\d+$", "", name)


def load_benchmarks(path):
    """Name -> best benchmark entry, for raw or merged ("current") captures.

    Repetition runs emit one "iteration" entry per repetition under the same
    name (plus aggregate entries, which are skipped); duplicates keep the
    best repetition instead of whichever happened to come last. Names are
    normalized via normalize_name.
    """
    with open(path) as f:
        doc = json.load(f)
    if "current" in doc and isinstance(doc["current"], dict):
        doc = doc["current"]
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        name = normalize_name(b["name"])
        out[name] = better_of(out[name], b) if name in out else b
    return out


def compare(fresh, base, threshold, series_regex):
    """Gate the overlapping series; returns (checked, failure_lines)."""
    series = re.compile(series_regex)
    checked = 0
    failures = []
    for name, fb in sorted(fresh.items()):
        if not series.search(name) or name not in base:
            continue
        bb = base[name]
        if "items_per_second" in fb and "items_per_second" in bb:
            old, new = bb["items_per_second"], fb["items_per_second"]
            if old <= 0.0:
                continue
            checked += 1
            change = (new - old) / old  # negative = slower
            label = "items/s"
        else:
            old, new = bb.get("cpu_time", 0.0), fb.get("cpu_time", 0.0)
            if old <= 0.0 or new <= 0.0:
                continue
            checked += 1
            change = (old - new) / old  # negative = slower
            label = "cpu_time"
        if change < -threshold:
            failures.append(
                f"  {name}: {label} {old:.4g} -> {new:.4g} "
                f"({change * 100.0:+.1f}%)")
    return checked, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument(
        "--series",
        default=r"^BM_Campaign(/|PlanThreads/|Memo/|Threaded|Reprice/100000/)",
        help="regex of benchmark names to gate (default: the campaign "
             "throughput families)")
    args = ap.parse_args()

    fresh = load_benchmarks(args.fresh)
    base = load_benchmarks(args.baseline)
    checked, failures = compare(fresh, base, args.threshold, args.series)

    if checked == 0:
        print("bench_gate: no overlapping gated series; nothing to check")
        return 0
    if failures:
        print(f"bench_gate: {len(failures)} series regressed more than "
              f"{args.threshold * 100.0:.0f}% vs baseline:")
        print("\n".join(failures))
        return 1
    print(f"bench_gate: OK ({checked} series within "
          f"{args.threshold * 100.0:.0f}% of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
