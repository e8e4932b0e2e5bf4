#!/usr/bin/env python3
"""Measure how steady the benchmark's metrics are.

Runs each workload several times, one seed per run, and prints for every
metric its median, first and third quartile and spread (the distance
between the quartiles as a share of the median) next to the bound
BENCHMARK.json gives it. The bounds are set from this output: a bound
should be at least three times the spread measured here.

    python3 alebench/steady.py                      # 10 runs per workload
    python3 alebench/steady.py --runs 5 --workloads svc --trace 1
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    values = [int(v) for v in fields]
    return values[7] if len(values) > 7 else 0, sum(values)


def run_once(workload, seed, seconds, trace, policy):
    cmd = [sys.executable, str(ROOT / "alebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--policy", policy]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return json.loads(lines[-1])


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--policy", default="adaptive")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            before = cpu_times()
            r = run_once(workload, args.seed_base + i, args.seconds, args.trace,
                         args.policy)
            after = cpu_times()
            # The share of CPU time the host took from this machine (steal)
            # while the run lasted: a noisy neighbour shows here.
            steal = ""
            if before and after and after[1] > before[1]:
                share = (after[0] - before[0]) / (after[1] - before[1])
                steal = f" steal={100 * share:.1f}%"
            results.append(r)
            print(f"  {workload} seed={args.seed_base + i} correct={r['correct']}{steal} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in sorted(r["metrics"].items())),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, {args.seconds:g} s each, "
              f"failed shares {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in results)}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) < 2:
                continue
            med, q1, q3, spread = spread_of(values)
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name + ' (' + unit + ')':32} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else format(bound, '.2f'):>6}{flag}",
                  flush=True)


if __name__ == "__main__":
    main()
