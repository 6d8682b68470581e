#!/usr/bin/env python3
"""rshc benchmark: build rshc_bench from this checkout, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--slowdown <factor>]

Run from the root of an rshc checkout. The first run configures and builds
the library and rshc_bench (Release) in .bench_build/; later runs only
rebuild what changed. stdout ends with two JSON lines: the run's provenance
(host, build, source) and, last, the result
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when a
correctness check failed and 2 when the benchmark could not run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "rshc_bench"
WORKLOADS = ("kh-srhd", "blast-srmhd", "halo-4rank", "serve-mix")
SOURCE_DIRS = ("src", "include", "perfbench")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout):
    """Run a build step with its output on stderr; die on failure."""
    try:
        done = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        die(f"failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no rshc sources in {ROOT}; run from the root of a checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             300)
    call(["cmake", "--build", BUILD, "--target", "rshc_bench", "-j", "4"], 800)


def source_digest():
    """sha256 over the sources rshc_bench is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in SOURCE_DIRS:
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """(total, steal) jiffies of all CPUs from /proc/stat; steal is time the
    hypervisor ran something else on this machine's CPUs."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0]
                  .split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), (fields[7] if len(fields) > 7 else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slowdown", type=float, default=1.0,
                    help="self-test only: stretch every timed step")
    args = ap.parse_args()

    build()
    workdir = BUILD / "run"
    workdir.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--slowdown", str(args.slowdown)]
    ticks0 = cpu_ticks()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + 120,
                              check=False)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in time")
    lines = [ln for ln in done.stdout.splitlines() if ln.strip()]
    if done.returncode not in (0, 1) or len(lines) < 2:
        die(f"{args.workload} exited {done.returncode} without a result")
    ticks1 = cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[0] > ticks0[0]:
        steal = (ticks1[1] - ticks0[1]) / (ticks1[0] - ticks0[0])
    prov = json.loads(lines[-2])
    prov["provenance"].update({
        "steal_frac": steal,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    })
    print(json.dumps(prov))
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
