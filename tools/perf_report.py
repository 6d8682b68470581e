#!/usr/bin/env python3
"""Validate and inspect rshc run reports and live-telemetry streams.

The run report (schema rshc.perf_report, in include/rshc/obs/report.hpp
and DESIGN.md) is what obs::maybe_dump writes as <prefix>.report.json when
RSHC_DUMP_REPORT=1, for any program that calls it. The telemetry stream is
the obs Sampler's rshc.telemetry JSONL. Timing comparisons live in
perfbench/ (see BENCHMARK.json); this tool checks structure only.

Subcommands
-----------
validate REPORT
    Structural checks only: schema name/version, required fields, ordered
    percentiles (min <= p50 <= p90 <= p99 <= max), sane rank roll-ups
    (min <= mean <= max, imbalance >= 1 when the phase ran).
    tests/perf_report_selftest.py seeds one defect per rule and requires
    each to exit 2.
show REPORT
    Human-readable table of the phases and counters.
timeline TELEMETRY_JSONL [--journal J] [--validate] [--selftest]
    Validate and summarize a live-telemetry stream (rshc.telemetry v1
    JSONL from the obs Sampler, schema in include/rshc/obs/telemetry.hpp).
    Structural checks: leading config record, schema/version on every
    line, required sample fields, strictly increasing seq, non-decreasing
    ts_ms, complete heartbeat blocks. The summary reports sample count,
    steady-state throughput (median of the positive heartbeat zones/sec,
    in MLUPS), sample gaps (a seq skip, or consecutive take times more
    than 2.5x the configured interval apart), and — with --journal — the
    stall count (watchdog events in the rshc.journal stream).
    --validate stops after the structural checks; --selftest additionally
    injects a sample gap (must raise the gap count) and a dropped
    heartbeat (must fail validation) and asserts both are detected.

Exit codes: 0 = ok, 2 = structural problem (invalid/missing file, schema
mismatch, malformed field).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

SCHEMA_NAME = "rshc.perf_report"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_STRUCTURAL = 2

# A hair of slack for percentile ordering: the p99 interpolation and the
# exact max are computed by different paths and may disagree in the last ulp.
_EPS = 1e-12

_REQUIRED_TOP = ("schema", "schema_version", "suite", "git_sha", "build",
                 "hardware", "ranks", "phases", "counters")
_REQUIRED_PHASE = ("name", "count", "sum_s", "min_s", "max_s", "p50_s",
                   "p90_s", "p99_s")
_REQUIRED_RANKS = ("min_s", "mean_s", "max_s", "imbalance")


def load(path: str) -> dict:
    """Parse a report or die with a structural error."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        die_structural(f"{path}: cannot read report: {exc}")
        raise AssertionError  # unreachable


def die_structural(msg: str) -> None:
    print(f"perf_report: STRUCTURAL: {msg}", file=sys.stderr)
    sys.exit(EXIT_STRUCTURAL)


def print_problems(problems: list[str]) -> bool:
    """Print each structural problem; True when there were any."""
    for p in problems:
        print(f"perf_report: STRUCTURAL: {p}", file=sys.stderr)
    return bool(problems)


def validate_report(rep: dict, label: str) -> list[str]:
    """Return a list of structural problems (empty = valid)."""
    problems: list[str] = []
    for key in _REQUIRED_TOP:
        if key not in rep:
            problems.append(f"{label}: missing top-level field '{key}'")
    if rep.get("schema") != SCHEMA_NAME:
        problems.append(f"{label}: schema is {rep.get('schema')!r}, "
                        f"expected {SCHEMA_NAME!r}")
    if rep.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"{label}: schema_version "
                        f"{rep.get('schema_version')!r}, expected "
                        f"{SCHEMA_VERSION}")
    phases = rep.get("phases")
    if not isinstance(phases, list) or not phases:
        problems.append(f"{label}: 'phases' must be a non-empty list")
        return problems
    for ph in phases:
        name = ph.get("name", "<unnamed>")
        for key in _REQUIRED_PHASE:
            if key not in ph:
                problems.append(f"{label}: phase {name}: missing '{key}'")
        if any(key not in ph for key in _REQUIRED_PHASE):
            continue
        if ph["count"] <= 0:
            problems.append(f"{label}: phase {name}: count must be > 0")
        order = (ph["min_s"], ph["p50_s"], ph["p90_s"], ph["p99_s"],
                 ph["max_s"])
        if any(a > b + _EPS for a, b in zip(order, order[1:])):
            problems.append(f"{label}: phase {name}: percentiles out of "
                            f"order: min/p50/p90/p99/max = {order}")
        if ph["sum_s"] + _EPS < ph["max_s"]:
            problems.append(f"{label}: phase {name}: sum_s < max_s")
        ranks = ph.get("ranks")
        if ranks is None:
            continue
        for key in _REQUIRED_RANKS:
            if key not in ranks:
                problems.append(f"{label}: phase {name}: ranks missing "
                                f"'{key}'")
        if any(key not in ranks for key in _REQUIRED_RANKS):
            continue
        if not (ranks["min_s"] <= ranks["mean_s"] + _EPS
                <= ranks["max_s"] + 2 * _EPS):
            problems.append(f"{label}: phase {name}: rank stats out of "
                            f"order (min <= mean <= max)")
        if ranks["mean_s"] > 0 and ranks["imbalance"] + _EPS < 1.0:
            problems.append(f"{label}: phase {name}: imbalance < 1 with a "
                            f"nonzero mean")
    return problems


def cmd_validate(args: argparse.Namespace) -> int:
    rep = load(args.report)
    if print_problems(validate_report(rep, args.report)):
        return EXIT_STRUCTURAL
    print(f"perf_report: {args.report}: valid "
          f"({len(rep['phases'])} phases, {len(rep['counters'])} counters, "
          f"git {rep['git_sha']})")
    return EXIT_OK


def cmd_show(args: argparse.Namespace) -> int:
    rep = load(args.report)
    if print_problems(validate_report(rep, args.report)):
        return EXIT_STRUCTURAL
    hw = rep["hardware"]
    print(f"suite {rep['suite']} | git {rep['git_sha']} | "
          f"{rep['build']['type']} | ranks {rep['ranks']} | "
          f"{hw['threads']} hw threads | {hw['cpu'] or 'unknown cpu'}")
    hdr = (f"{'phase':40s} {'count':>8s} {'sum_s':>10s} {'p50_s':>10s} "
           f"{'p90_s':>10s} {'p99_s':>10s} {'imbal':>6s}")
    print(hdr)
    print("-" * len(hdr))
    for ph in rep["phases"]:
        imbal = ph.get("ranks", {}).get("imbalance")
        imbal_col = f"{imbal:6.2f}" if imbal is not None else f"{'--':>6s}"
        print(f"{ph['name']:40s} {ph['count']:8d} {ph['sum_s']:10.3e} "
              f"{ph['p50_s']:10.3e} {ph['p90_s']:10.3e} "
              f"{ph['p99_s']:10.3e} {imbal_col}")
    for name, value in sorted((c["name"], c["value"])
                              for c in rep["counters"]):
        print(f"{name:40s} {value:14.0f}")
    return EXIT_OK


# --- timeline: live-telemetry JSONL ----------------------------------------

TELEMETRY_SCHEMA = "rshc.telemetry"
TELEMETRY_VERSION = 1
JOURNAL_SCHEMA = "rshc.journal"

_REQUIRED_SAMPLE = ("seq", "ts_ms", "pid", "hb", "metrics")
_REQUIRED_HB = ("step", "t", "dt", "zones_per_sec", "ticks")

# A take arriving later than this multiple of the configured interval
# counts as a sample gap (the sampler thread was starved or wedged).
_GAP_FACTOR = 2.5


def load_jsonl(path: str) -> list[dict]:
    """Parse a JSONL stream or die with a structural error."""
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    die_structural(f"{path}:{lineno}: bad JSONL: {exc}")
    except OSError as exc:
        die_structural(f"{path}: cannot read telemetry stream: {exc}")
    return records


def validate_timeline(records: list[dict], label: str) -> list[str]:
    """Structural problems in a telemetry stream (empty = valid)."""
    problems: list[str] = []
    if not records:
        problems.append(f"{label}: empty telemetry stream")
        return problems
    config = records[0]
    if config.get("kind") != "config":
        problems.append(f"{label}: first record must be the config line, "
                        f"got kind {config.get('kind')!r}")
    prev_seq = None
    prev_ts = None
    for i, rec in enumerate(records, 1):
        where = f"{label}: record {i}"
        if rec.get("schema") != TELEMETRY_SCHEMA:
            problems.append(f"{where}: schema is {rec.get('schema')!r}, "
                            f"expected {TELEMETRY_SCHEMA!r}")
        if rec.get("v") != TELEMETRY_VERSION:
            problems.append(f"{where}: v is {rec.get('v')!r}, expected "
                            f"{TELEMETRY_VERSION}")
        if rec.get("kind") == "config":
            if i != 1:
                problems.append(f"{where}: config record after samples")
            continue
        if rec.get("kind") != "sample":
            problems.append(f"{where}: unknown kind {rec.get('kind')!r}")
            continue
        missing = [key for key in _REQUIRED_SAMPLE if key not in rec]
        if missing:
            problems.append(f"{where}: sample missing {missing}")
            continue
        # seq is the global take order: strictly increasing. Skips are
        # *gaps* (counted by the summary), not structural corruption.
        if prev_seq is not None and rec["seq"] <= prev_seq:
            problems.append(f"{where}: seq {rec['seq']} not increasing "
                            f"(previous {prev_seq})")
        prev_seq = rec["seq"]
        if prev_ts is not None and rec["ts_ms"] < prev_ts:
            problems.append(f"{where}: ts_ms {rec['ts_ms']} decreases "
                            f"(previous {prev_ts})")
        prev_ts = rec["ts_ms"]
        hb_missing = [key for key in _REQUIRED_HB if key not in rec["hb"]]
        if hb_missing:
            problems.append(f"{where}: heartbeat missing {hb_missing}")
        if not isinstance(rec["metrics"], dict):
            problems.append(f"{where}: metrics is not an object")
    return problems


def timeline_stats(records: list[dict],
                   journal_records: list[dict]) -> dict:
    """Summary statistics of a (structurally valid) telemetry stream."""
    config = next((r for r in records if r.get("kind") == "config"), {})
    samples = [r for r in records if r.get("kind") == "sample"]
    interval_ms = config.get("interval_ms", 0)

    rates = sorted(s["hb"]["zones_per_sec"] for s in samples
                   if s["hb"].get("zones_per_sec", 0) > 0)
    steady = rates[len(rates) // 2] if rates else 0.0

    # One take samples every attached registry at the same ts, so gap
    # detection works on distinct take times; seq skips are dropped takes.
    times = sorted({s["ts_ms"] for s in samples})
    gaps = 0
    if interval_ms > 0:
        gaps += sum(1 for a, b in zip(times, times[1:])
                    if b - a > _GAP_FACTOR * interval_ms)
    seqs = sorted(s["seq"] for s in samples)
    gaps += sum(1 for a, b in zip(seqs, seqs[1:]) if b - a > 1)

    stalls = sum(1 for r in journal_records
                 if r.get("schema") == JOURNAL_SCHEMA
                 and r.get("event") == "watchdog")
    return {
        "samples": len(samples),
        "takes": len(times),
        "interval_ms": interval_ms,
        "steady_zones_per_sec": steady,
        "gaps": gaps,
        "stalls": stalls,
        "max_step": max((s["hb"].get("step", 0) for s in samples),
                        default=0),
    }


def print_timeline_summary(stats: dict, label: str,
                           have_journal: bool) -> None:
    print(f"perf_report: {label}: {stats['samples']} samples over "
          f"{stats['takes']} takes (interval {stats['interval_ms']} ms)")
    print(f"  steady-state throughput: "
          f"{stats['steady_zones_per_sec'] / 1e6:.3f} MLUPS "
          f"(median heartbeat, last step {stats['max_step']})")
    print(f"  sample gaps: {stats['gaps']}")
    if have_journal:
        print(f"  stalls journaled: {stats['stalls']}")


def timeline_selftest(records: list[dict], journal_records: list[dict],
                      label: str) -> int:
    if print_problems(validate_timeline(records, label)):
        return EXIT_STRUCTURAL

    samples = [r for r in records if r.get("kind") == "sample"]
    base_gaps = timeline_stats(records, journal_records)["gaps"]

    # Injected sample gap: delete one middle take; the gap counter (seq
    # skip and/or stretched take spacing) must move.
    times = sorted({s["ts_ms"] for s in samples})
    if len(times) < 4:
        print(f"perf_report: timeline selftest: only {len(times)} takes; "
              f"skipping gap injection")
    else:
        victim_ts = times[len(times) // 2]
        gapped = [r for r in records
                  if r.get("kind") != "sample" or r["ts_ms"] != victim_ts]
        if validate_timeline(gapped, "gapped"):
            print("perf_report: timeline selftest: gap injection broke "
                  "structural validity", file=sys.stderr)
            return EXIT_STRUCTURAL
        gapped_gaps = timeline_stats(gapped, journal_records)["gaps"]
        if gapped_gaps <= base_gaps:
            print(f"perf_report: timeline selftest: injected sample gap "
                  f"not detected (gaps {base_gaps} -> {gapped_gaps})",
                  file=sys.stderr)
            return EXIT_STRUCTURAL

    # Dropped heartbeat: a sample without its hb block must fail
    # validation.
    broken = copy.deepcopy(records)
    victim = next((r for r in broken if r.get("kind") == "sample"), None)
    if victim is None:
        print("perf_report: timeline selftest: no samples to mutate",
              file=sys.stderr)
        return EXIT_STRUCTURAL
    del victim["hb"]
    if not validate_timeline(broken, "no-heartbeat"):
        print("perf_report: timeline selftest: dropped heartbeat not "
              "detected", file=sys.stderr)
        return EXIT_STRUCTURAL

    print(f"perf_report: timeline selftest OK ({label})")
    return EXIT_OK


def cmd_timeline(args: argparse.Namespace) -> int:
    records = load_jsonl(args.telemetry)
    journal_records = load_jsonl(args.journal) if args.journal else []
    if args.selftest:
        return timeline_selftest(records, journal_records, args.telemetry)
    if print_problems(validate_timeline(records, args.telemetry)):
        return EXIT_STRUCTURAL
    if args.validate:
        print(f"perf_report: {args.telemetry}: valid telemetry stream "
              f"({sum(1 for r in records if r.get('kind') == 'sample')} "
              f"samples)")
        return EXIT_OK
    print_timeline_summary(timeline_stats(records, journal_records),
                           args.telemetry, bool(args.journal))
    return EXIT_OK


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_report.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="structural checks on one report")
    p.add_argument("report")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("show", help="print a report as a table")
    p.add_argument("report")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("timeline",
                       help="validate/summarize a telemetry JSONL stream")
    p.add_argument("telemetry", help="rshc.telemetry v1 JSONL stream")
    p.add_argument("--journal", default=None,
                   help="rshc.journal v1 JSONL stream (enables the stall "
                        "count)")
    p.add_argument("--validate", action="store_true",
                   help="structural checks only, no summary")
    p.add_argument("--selftest", action="store_true",
                   help="assert an injected sample gap and a dropped "
                        "heartbeat are detected")
    p.set_defaults(fn=cmd_timeline)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
