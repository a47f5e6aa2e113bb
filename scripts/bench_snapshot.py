#!/usr/bin/env python3
"""Benchmark snapshotter: runs the google-benchmark micro suite and distills
its output into a small, diffable JSON file — one entry per benchmark with
nearest-rank p50/p99 over the repetitions — so perf regressions show up as a
reviewable artifact rather than scrollback.

Usage:
    scripts/bench_snapshot.py [--bench PATH] [--out PATH]
                              [--filter REGEX] [--repetitions N]

Defaults: runs ./build/bench/bench_micro with 5 repetitions and writes
BENCH_<YYYY-MM-DD>.json in the repo root. `--filter` is passed through as
--benchmark_filter to run a subset (e.g. --filter 'BM_Histogram.*').

Output schema (version 1):
    {
      "schema": 1,
      "date": "2026-08-08",
      "repetitions": 5,
      "context": {"cpu_model": "...", "cores": 4, "gemm_isa": "avx2",
                  "repetitions": 5},
      "benchmarks": {
        "<name>": {"p50_ns": float, "p99_ns": float, "mean_ns": float,
                   "time_unit_reported": "ns", "samples": int}
      }
    }
All times are normalized to nanoseconds regardless of each benchmark's
reported unit, so entries compare across the suite. "context" names the
machine the numbers came from; scripts/bench_compare.py gives no verdict
between snapshots whose contexts differ. Snapshots written before it existed
have no "context" and still load.

stdlib-only on purpose: this must run in CI and in bare containers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def nearest_rank(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank quantile (ceil semantics), matching the C++
    LatencyHistogram contract: rank = clamp(ceil(q*N), 1, N), 1-based."""
    n = len(sorted_xs)
    rank = min(max(math.ceil(q * n), 1), n)
    return sorted_xs[rank - 1]


def run_benchmarks(bench: Path, filter_re: str | None,
                   repetitions: int) -> dict:
    cmd = [
        str(bench),
        "--benchmark_format=json",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=false",
    ]
    if filter_re:
        cmd.append(f"--benchmark_filter={filter_re}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_snapshot: {bench} exited {proc.returncode}")
    return json.loads(proc.stdout)


def distill(report: dict) -> dict:
    """Group repetition rows by benchmark name and reduce to percentiles."""
    samples_ns: dict[str, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    for row in report.get("benchmarks", []):
        # Skip the aggregate rows google-benchmark appends (mean/median/
        # stddev/cv); raw repetition rows have run_type "iteration".
        if row.get("run_type") != "iteration":
            continue
        name = row.get("run_name", row["name"])
        unit = row.get("time_unit", "ns")
        samples_ns[name].append(row["real_time"] * TIME_UNIT_NS[unit])
        units[name] = unit

    out = {}
    for name in sorted(samples_ns):
        xs = sorted(samples_ns[name])
        out[name] = {
            "p50_ns": nearest_rank(xs, 0.50),
            "p99_ns": nearest_rank(xs, 0.99),
            "mean_ns": sum(xs) / len(xs),
            "time_unit_reported": units[name],
            "samples": len(xs),
        }
    return out


def cpu_model() -> str:
    """The CPU's marketing name ("model name" in /proc/cpuinfo on Linux)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_context(report: dict, repetitions: int) -> dict:
    """What a comparison must hold equal: CPU, core count, GEMM kernel level
    (bench_micro records the active one in its report context; an old binary
    does not, so fall back to the EUGENE_GEMM_ISA override), repetitions."""
    ctx = report.get("context", {})
    return {
        "cpu_model": cpu_model(),
        "cores": ctx.get("num_cpus") or os.cpu_count(),
        "gemm_isa": ctx.get("gemm_isa")
        or os.environ.get("EUGENE_GEMM_ISA", "unknown"),
        "repetitions": repetitions,
    }


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", type=Path,
                    default=repo_root / "build" / "bench" / "bench_micro")
    ap.add_argument("--out", type=Path, default=None,
                    help="output path (default: BENCH_<date>.json in repo root)")
    ap.add_argument("--filter", default=None,
                    help="--benchmark_filter regex passed to the suite")
    ap.add_argument("--repetitions", type=int, default=5)
    args = ap.parse_args()

    if not args.bench.exists():
        raise SystemExit(f"bench_snapshot: {args.bench} not built "
                         "(cmake --build build --target bench_micro)")

    date = datetime.date.today().isoformat()
    out_path = args.out or repo_root / f"BENCH_{date}.json"
    report = run_benchmarks(args.bench, args.filter, args.repetitions)
    snapshot = {
        "schema": 1,
        "date": date,
        "repetitions": args.repetitions,
        "context": machine_context(report, args.repetitions),
        "benchmarks": distill(report),
    }
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"bench_snapshot: {len(snapshot['benchmarks'])} benchmarks -> "
          f"{out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
