#!/usr/bin/env python3
"""Runs the repo benchmark on two checkouts in alternating pairs and compares.

    python3 tools/perfpair.py --parent DIR --change DIR --workload NAME \\
        --seed N [--claim METRIC ...]

Each side runs its own `perfbench/run.py` (so each measures with its own
benchmark code and build tree), `--trace 0`, with the same seed and the
parent's BENCHMARK.json `run_seconds`, in ten pairs; the side that runs
first alternates from pair to pair. For every end-to-end metric in the
parent's BENCHMARK.json the script prints the per-pair values in run order,
each side's median and quartiles, the pairs the change won (ties count for
neither side) and a verdict:

  gain        the change won at least 9 of the 10 pairs, and the medians
              differ by more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread is wider than the bound, and not
              every change run beats every parent run;
  identical   every pair tied;
  in bound    otherwise: no worse than the bound allows.

`--claim` names the metrics a change claims a gain on; the script exits 1
when any of them is not a gain, and 2 when a run fails or is incorrect. It
writes nothing into either checkout beyond what run.py itself builds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# The pair rules below are stated for ten pairs (9 of 10 wins for a gain).
PAIRS = 10


def load_metrics(checkout):
    """End-to-end metric specs and the run length from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["run_seconds"]


def run_once(checkout, workload, seed, seconds):
    """One run.py invocation; returns (metrics, digest line)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        raise RuntimeError(f"{checkout}: incorrect run: {lines[-1]}")
    digest = next((l for l in lines if l.startswith("digest ")), "")
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(spec, parent, change):
    """Applies the pair rules to one metric's per-pair values."""
    lower = spec["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    spread = pq3 - pq1
    gap = (pmed - cmed) if lower else (cmed - pmed)  # > 0: change better
    rel_worse = -gap / pmed if pmed else 0.0
    if ties == len(parent):
        return wins, "identical"
    if wins >= 9 and gap > spread:
        return wins, "gain"
    if rel_worse > spec["bound"]:
        return wins, "worse"
    all_better = all(better(c, p) for c in change for p in parent)
    if pmed and spread / pmed > spec["bound"] and not all_better:
        return wins, "unresolved"
    return wins, "in bound"


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def report(workload, seed, seconds, specs, parent_runs, change_runs, digests):
    n = len(parent_runs)
    print(f"## {workload}, seed {seed}, {n} alternating pairs of {seconds:g} s "
          "runs")
    same = all(p == c for p, c in digests)
    print("digests: " + ("identical on every pair" if same else "differ"))
    verdicts = {}
    for spec in specs:
        name = spec["name"]
        parent = [r[name] for r in parent_runs]
        change = [r[name] for r in change_runs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins, v = verdict(spec, parent, change)
        verdicts[name] = v
        rel = (cmed - pmed) / pmed * 100 if pmed else 0.0
        print(f"- {name}: parent median {fmt(pmed)} {spec['unit']} "
              f"(q1 {fmt(pq1)}, q3 {fmt(pq3)}) vs change {fmt(cmed)} "
              f"({fmt(cq1)}, {fmt(cq3)}), {rel:+.1f} %, change wins {wins}/{n}, "
              f"median gap {fmt(abs(cmed - pmed))} against a parent quartile "
              f"spread of {fmt(pq3 - pq1)}: {v}")
        print(f"  per pair, parent/change, in run order: " +
              ", ".join(f"{fmt(p)}/{fmt(c)}" for p, c in zip(parent, change)))
    return verdicts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True, action="append",
                    help="workload name; repeat for several")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--claim", action="append", default=[],
                    help="metric claimed as a gain; repeat for several")
    args = ap.parse_args()

    parent_dir = os.path.abspath(args.parent)
    change_dir = os.path.abspath(args.change)
    specs, seconds = load_metrics(parent_dir)
    unknown = set(args.claim) - {s["name"] for s in specs}
    if unknown:
        ap.error(f"unknown metric(s): {', '.join(sorted(unknown))}")

    status = 0
    for workload in args.workload:
        parent_runs, change_runs, digests = [], [], []
        for i in range(PAIRS):
            order = [("parent", parent_dir), ("change", change_dir)]
            if i % 2 == 1:
                order.reverse()
            got = {}
            for side, checkout in order:
                try:
                    got[side] = run_once(checkout, workload, args.seed, seconds)
                except RuntimeError as e:
                    print(f"perfpair: {workload} pair {i + 1} {side}: {e}",
                          file=sys.stderr)
                    return 2
            parent_runs.append(got["parent"][0])
            change_runs.append(got["change"][0])
            digests.append((got["parent"][1], got["change"][1]))
            print(f"perfpair: {workload} pair {i + 1}/{PAIRS} done",
                  file=sys.stderr)
        verdicts = report(workload, args.seed, seconds, specs, parent_runs,
                             change_runs, digests)
        if any(verdicts[m] != "gain" for m in args.claim):
            status = max(status, 1)
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
