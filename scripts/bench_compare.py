#!/usr/bin/env python3
"""Benchmark regression guard: compares a freshly produced bench_snapshot.py
JSON against the committed baseline and calls out p50 drifts.

By design this is a *tripwire, not a gate*: microbenchmark numbers on shared
CI runners are noisy, so a regression prints a loud ::warning (GitHub
annotation syntax) and the job stays green. A human decides whether the drift
is real — pass --fail to make regressions fatal when running on quiet
hardware.

Usage:
    scripts/bench_compare.py --current fresh.json [--baseline BENCH_X.json]
                             [--threshold 0.25] [--fail]

Defaults: baseline is the lexicographically newest BENCH_*.json in the repo
root (the date-stamped naming makes newest == latest); threshold 0.25 means
"warn when p50 grew by more than 25%". Benchmarks present on only one side
are listed informationally — a renamed benchmark should ship with a refreshed
baseline in the same PR.

Both files must be schema-1 bench_snapshot.py output (all times already
normalized to nanoseconds). When both carry a machine "context" (CPU model,
core count, GEMM kernel level, repetitions) and any of it differs, the drift
table is printed for information only: the script warns that the snapshots
come from different setups and reports no regression, --fail included. A
snapshot without a context (written before contexts existed) still loads;
the comparison then proceeds as before, with a note that the setup is
unknown.

Exit status: 0 (even with regressions, unless --fail), 1 regressions with
--fail or schema mismatch, 2 bad usage.

stdlib-only on purpose: this must run in CI and in bare containers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_snapshot(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bench_compare: cannot read {path}: {exc}")
    if data.get("schema") != 1:
        raise SystemExit(
            f"bench_compare: {path} has schema {data.get('schema')!r}, "
            "expected 1 (regenerate with scripts/bench_snapshot.py)")
    return data


def newest_baseline(repo_root: Path) -> Path:
    candidates = sorted(repo_root.glob("BENCH_*.json"))
    if not candidates:
        raise SystemExit(
            "bench_compare: no BENCH_*.json baseline in the repo root "
            "(commit one with scripts/bench_snapshot.py)")
    return candidates[-1]


def context_mismatch(baseline: dict, current: dict) -> list[str]:
    """Context keys both snapshots record with different values."""
    base_ctx = baseline.get("context") or {}
    cur_ctx = current.get("context") or {}
    return [f"{key}: {base_ctx[key]!r} vs {cur_ctx[key]!r}"
            for key in sorted(set(base_ctx) & set(cur_ctx))
            if base_ctx[key] != cur_ctx[key]]


def fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", type=Path, required=True,
                    help="fresh snapshot JSON from scripts/bench_snapshot.py")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="committed baseline (default: newest BENCH_*.json "
                         "in the repo root)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="p50 growth ratio that counts as a regression "
                         "(default 0.25 = +25%%)")
    ap.add_argument("--fail", action="store_true",
                    help="exit 1 on regressions instead of warning")
    args = ap.parse_args()
    if args.threshold <= 0:
        ap.error("--threshold must be positive")

    baseline_path = args.baseline or newest_baseline(repo_root)
    baseline = load_snapshot(baseline_path)
    current = load_snapshot(args.current)
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})

    regressions, improvements, steady = [], [], []
    for name in sorted(set(base_benches) & set(cur_benches)):
        base_p50 = base_benches[name]["p50_ns"]
        cur_p50 = cur_benches[name]["p50_ns"]
        if base_p50 <= 0:
            continue
        ratio = cur_p50 / base_p50 - 1.0
        row = (name, base_p50, cur_p50, ratio)
        if ratio > args.threshold:
            regressions.append(row)
        elif ratio < -args.threshold:
            improvements.append(row)
        else:
            steady.append(row)

    only_base = sorted(set(base_benches) - set(cur_benches))
    only_cur = sorted(set(cur_benches) - set(base_benches))

    mismatch = context_mismatch(baseline, current)
    header = (f"bench_compare: {baseline_path.name} (baseline, "
              f"{baseline.get('date', '?')}) vs {args.current.name}: ")
    if mismatch:
        # Different hardware or settings: a drift says nothing about the
        # code, so it is listed but never called a regression.
        print(header + f"no verdict, {len(regressions) + len(improvements)} "
              f"drifted beyond ±{args.threshold:.0%} on p50")
        print("::warning title=bench setups differ::the snapshots come from "
              "different setups (" + "; ".join(mismatch) + "); no verdict")
        for name, base_p50, cur_p50, ratio in regressions + improvements:
            print(f"  drifted: {name}: {fmt_ns(base_p50)} -> "
                  f"{fmt_ns(cur_p50)} ({ratio:+.0%})")
        regressions = []
    else:
        print(header + f"{len(steady)} steady, {len(improvements)} improved, "
              f"{len(regressions)} regressed "
              f"(threshold ±{args.threshold:.0%} on p50)")
        if not (baseline.get("context") and current.get("context")):
            print("  note: a snapshot records no machine context; the setups "
                  "may differ")
        for name, base_p50, cur_p50, ratio in regressions:
            # ::warning makes GitHub surface the line as a job annotation.
            print(f"::warning title=bench p50 regression::{name}: "
                  f"{fmt_ns(base_p50)} -> {fmt_ns(cur_p50)} ({ratio:+.0%})")
        for name, base_p50, cur_p50, ratio in improvements:
            print(f"  improved: {name}: {fmt_ns(base_p50)} -> "
                  f"{fmt_ns(cur_p50)} ({ratio:+.0%})")
    if only_cur:
        print(f"  new (no baseline, refresh BENCH_*.json): "
              f"{', '.join(only_cur)}")
    if only_base:
        print(f"  missing from current run (renamed/deleted?): "
              f"{', '.join(only_base)}")

    if regressions and args.fail:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
