#!/usr/bin/env python3
"""Self-test of the rshc benchmark (see perfbench/README.md).

    python3 perfbench/selftest.py [--seconds 6] [--runs 5]

1. Exact counts repeat across two traced runs with one seed, every layer a
   workload exercises reads nonzero, and the metric names and units are
   those of BENCHMARK.json.
2. A held-out seed passes every correctness check on every workload.
3. A 1.5x slowdown injected by rshc_bench into kh-srhd's timed steps is
   flagged as a regression on kh-srhd and on no other workload, judged by
   the bounds in BENCHMARK.json.

Run from the root of a checkout. Exits 0 when all three hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kh-srhd", "blast-srmhd", "halo-4rank", "serve-mix")
HELD_OUT_SEED = 9173
SLOWED = "kh-srhd"

EXACT = ("c2p.iters_per_zone", "c2p.floored_per_mzone", "work.zones",
         "work.faces", "halo.messages_per_step", "halo.bytes_per_step",
         "io.checkpoint_mb", "recon.computed_bytes_per_zone",
         "riemann.computed_bytes_per_face", "c2p.computed_bytes_per_zone")

_COMPUTE = ("recon.ns_per_zone", "riemann.ns_per_face", "rhs.ns_per_zone",
            "c2p.ns_per_zone", "c2p.iters_per_zone", "rk.ns_per_zone",
            "cfl.ns_per_zone", "step.ns_per_zone", "work.zones", "work.faces")
EXERCISED = {
    "kh-srhd": _COMPUTE + ("ghost.ns_per_zone",),
    "blast-srmhd": _COMPUTE + ("ghost.ns_per_zone",),
    "halo-4rank": _COMPUTE + (
        "halo.pack_ns_per_byte", "halo.unpack_ns_per_byte",
        "halo.messages_per_step", "halo.bytes_per_step", "comm.sendrecv_us",
        "comm.allreduce_us", "halo.exposed_ms_per_step", "rank.imbalance"),
    "serve-mix": (
        "serve.submit_us", "serve.queue_wait_ms_p50",
        "serve.preemptions_per_job", "io.checkpoint_write_ms",
        "io.checkpoint_read_ms", "io.checkpoint_mb", "analysis.validate_ms",
        "riemann_cache.hit_ratio"),
}


def run(workload, seed, seconds, trace, slowdown=1.0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if slowdown != 1.0:
        cmd += ["--slowdown", str(slowdown)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.exit(f"selftest: {workload} seed {seed} exited {done.returncode}:"
                 f"\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_names(result, declared):
    """The result's metrics are exactly the declared ones, with their units."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == {m["name"]: m["unit"] for m in declared}


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def regressions(base, cand, bounds):
    """Metrics whose candidate median is worse than the base median by more
    than the metric's bound. base/cand: lists of {metric: value}."""
    flagged = []
    for name, (better, bound) in bounds.items():
        b = statistics.median(r[name] for r in base)
        c = statistics.median(r[name] for r in cand)
        worse = (b - c) / b if better == "higher" else (c - b) / b
        if worse > bound:
            flagged.append(f"{name} {worse:+.1%} (bound {bound:.0%})")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    ok = True

    print("1. exact counts repeat; exercised layers are nonzero")
    for w in WORKLOADS:
        ra, rb = (run(w, 1, 2, 1) for _ in range(2))
        a, b = values(ra), values(rb)
        diff = [k for k in EXACT if a.get(k) != b.get(k)]
        zero = [k for k in EXERCISED[w] if not a.get(k)]
        names = check_names(ra, spec["per_layer"])
        ok &= not diff and not zero and names
        print(f"  {w:12s} differ: {diff or 'none'}  zero: {zero or 'none'}"
              f"  names match BENCHMARK.json: {names}")

    print(f"2. held-out seed {HELD_OUT_SEED} passes every check")
    for w in WORKLOADS:
        r = run(w, HELD_OUT_SEED, args.seconds, 0)
        good = (r["correct"] and r["failed"] == 0 and
                check_names(r, spec["end_to_end"]))
        ok &= good
        print(f"  {w:12s} correct={r['correct']} failed={r['failed']}"
              f" attempted={r['attempted']}")

    print(f"3. injected 1.5x slowdown on {SLOWED} is flagged there only")
    seeds = range(101, 101 + args.runs)
    for w in WORKLOADS:
        slow = 1.5 if w == SLOWED else 1.0
        base, cand = [], []
        for i, s in enumerate(seeds):  # interleaved, alternating who is first
            pair = [(base, 1.0), (cand, slow)][::1 if i % 2 == 0 else -1]
            for side, factor in pair:
                side.append(values(run(w, s, args.seconds, 0, factor)))
        flagged = regressions(base, cand, bounds)
        good = bool(flagged) if w == SLOWED else not flagged
        ok &= good
        print(f"  {w:12s} slowdown={slow} flagged: {flagged or 'none'}"
              f" -> {'ok' if good else 'WRONG'}")

    print("selftest:", "pass" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
