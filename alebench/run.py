#!/usr/bin/env python3
"""Build the ALE benchmark binary (optimized) and run one workload.

Usage, from the root of a checkout:

    python3 alebench/run.py --workload hashmap_write --seed 1 --seconds 20 --trace 0

Workloads: hashmap_write and svc (BENCHMARK.json), and hashmap_read for
reference only (see alebench/README.md).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
--policy (lockonly, static-hl-5, ...) is for reference figures only; the
benchmark's metrics are defined under the default, adaptive.

The benchmark binary is built with CMake into .bench_build/alebench (Release).
Build output goes to stderr. A header describing the host and the build is
printed before the run. Spans of a traced run are written to
.bench_out/trace-<workload>.csv.
"""
import argparse
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "alebench"
BUILD_TYPE = "Release"
WORKLOADS = ("hashmap_read", "hashmap_write", "svc")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build the benchmark binary; returns its path or None."""
    jobs = str(max(1, min(4, nproc())))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("alebench: cmake configure failed")
            return None
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "alebench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("alebench: build failed")
        return None
    exe = BUILD_DIR / "alebench"
    return exe if exe.exists() else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """The git commit when run inside a repository, else a digest of the
    library sources (a plain checkout carries no git metadata)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "none (not a git checkout); src sha256 " + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--policy", default="adaptive")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    exe = build()
    if exe is None:
        return 2

    print(f"# alebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} policy={args.policy}")
    print(f"# host: nproc={nproc()} cpu={cpu_model()!r} "
          f"kernel={platform.release()}")
    print(f"# build: type={BUILD_TYPE} commit={commit()}")
    sys.stdout.flush()

    # The library reads ALE_* variables (policy, backend, profile, fault
    # injection, telemetry); the benchmark runs on the defaults only.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALE_")}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--policy", args.policy,
           "--trace-file", str(out_dir / f"trace-{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"alebench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
