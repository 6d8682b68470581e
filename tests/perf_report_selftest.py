#!/usr/bin/env python3
"""Regression test for `tools/perf_report.py validate`.

    python3 tests/perf_report_selftest.py REPORT

REPORT is the run report examples/heterogeneous writes with
RSHC_DUMP_REPORT=1; it steps the batched-simd and the device pipeline, so
it must carry the solver phase rows and nonzero device transfer counters.
The test requires `validate` to accept it, then seeds one structural
defect at a time into a copy and requires `validate` to exit 2 on each.
Every defect is caught by exactly one rule of validate_report, so
dropping that rule fails this test.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_report.py"
EXIT_STRUCTURAL = 2
PHASES = ("solver.step", "solver.phase.exchange", "solver.phase.rhs",
          "solver.phase.update", "solver.phase.c2p")
COUNTERS = ("device.h2d.bytes", "device.d2h.bytes")


def validate(rep: dict) -> int:
    """Exit code of `perf_report.py validate` on `rep`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(rep), encoding="utf-8")
        done = subprocess.run([sys.executable, str(TOOL), "validate",
                               str(path)], capture_output=True, text=True,
                              check=False)
    return done.returncode


def wrong_schema_version(rep: dict) -> None:
    rep["schema_version"] += 1


def missing_required_field(rep: dict) -> None:
    del rep["git_sha"]


def p50_above_p99(rep: dict) -> None:
    ph = rep["phases"][0]
    ph["p50_s"] = ph["p99_s"] + 1.0


def rank_min_above_max(rep: dict) -> None:
    # imbalance >= 1, so only the min <= mean <= max rule can object.
    rep["phases"][0]["ranks"] = {"min_s": 0.3, "mean_s": 0.2, "max_s": 0.1,
                                 "imbalance": 1.5}


MUTATIONS = (wrong_schema_version, missing_required_field, p50_above_p99,
             rank_min_above_max)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return EXIT_STRUCTURAL
    rep = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    failures = []
    phases = {ph["name"] for ph in rep["phases"]}
    counters = {c["name"]: c["value"] for c in rep["counters"]}
    failures += [f"fixture report lacks phase '{n}'" for n in PHASES
                 if n not in phases]
    failures += [f"fixture report has no nonzero '{n}'" for n in COUNTERS
                 if counters.get(n, 0) <= 0]
    rc = validate(rep)
    if rc != 0:
        failures.append(f"unmutated report: validate exited {rc}, expected 0")
    for mutate in MUTATIONS:
        bad = copy.deepcopy(rep)
        mutate(bad)
        rc = validate(bad)
        if rc != EXIT_STRUCTURAL:
            failures.append(f"{mutate.__name__}: validate exited {rc}, "
                            f"expected {EXIT_STRUCTURAL}")
    for msg in failures:
        print(f"perf_report_selftest: FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf_report_selftest: OK ({len(MUTATIONS)} seeded defects "
          f"rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
