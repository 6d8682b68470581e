#!/usr/bin/env python3
"""Repo-specific lint rules for rshc that the generic tools cannot express.

Run from anywhere: paths are resolved relative to the repository root
(parent of tools/). Exit code 0 = clean, 1 = violations (printed as
file:line: [rule] message, one per line, grep/IDE friendly).

`lint_rshc.py selftest` runs the rules against seeded in-memory snippets
(each rule's positive and negative cases, including the nested-template
atomic declarations the old regex missed) and exits nonzero if any seeded
violation goes undetected or any clean snippet is flagged.

Rules
-----
float-keyed-map   std::map/std::unordered_map keyed on double/float anywhere
                  in the tree: floating-point keys on physical state make
                  lookups depend on bit-exact arithmetic and silently break
                  under FMA/vectorization differences between backends.
raw-new-solver    no raw `new`/`delete` inside solver code (src/solver,
                  include/rshc/solver): ownership there must go through
                  containers / unique_ptr so failure paths (c2p bailouts,
                  exceptions from task bodies) cannot leak.
atomic-ordering   every `std::atomic` *declaration* in library code
                  (include/, src/) carries a comment within the three
                  preceding lines (or on the line itself) naming the
                  intended memory ordering (relaxed / acquire / release /
                  acq_rel / seq_cst or the word "ordering"). The declaration
                  is where the synchronization design is documented; a bare
                  atomic invites "just use seq_cst" edits that hide races.
                  Tests/bench are exempt (ad-hoc seq_cst counters).
obs-raii-only     outside the obs module itself, spans and flow events may
                  only be emitted through the RAII/helper macros
                  (RSHC_OBS_PHASE / RSHC_TRACE_SCOPE / RSHC_OBS_FLOW_BEGIN /
                  RSHC_OBS_FLOW_END): direct Tracer::record_span/record_flow
                  or TraceScope/PhaseScope construction or bare
                  flow_begin/flow_end calls can unbalance span begin/end
                  across the task-graph's work-stealing boundaries, and
                  bypass the RSHC_OBS=OFF compile-out gate.
checks-add-only   no `#if !RSHC_CHECKS_ENABLED` in library code (include/,
                  src/): a checked build may add checks around the code
                  release runs, never swap in a different path, or the
                  Debug and checks lanes stop testing what ships.
supp-justified    every active entry in tools/sanitizers/*.supp must be
                  directly preceded by a justification comment (see
                  tools/sanitizers/README.md for what it must contain).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CPP_GLOBS = ("include/**/*.hpp", "src/**/*.hpp", "src/**/*.cpp",
             "tests/**/*.cpp", "bench/**/*.cpp", "bench/**/*.hpp",
             "examples/**/*.cpp")

SOLVER_DIRS = ("src/solver", "include/rshc/solver")

ORDERING_WORDS = re.compile(
    r"relaxed|acquire|release|acq_rel|seq_cst|ordering", re.IGNORECASE)

def atomic_object_decl(stripped: str) -> bool:
    """True when the (comment-stripped) line declares a std::atomic
    *object* — not a reference/pointer (parameters, return types) and not
    a using-alias. The template argument list is matched with a balanced
    angle-bracket scan, so nested templates like
    `std::atomic<std::shared_ptr<T>>` resolve to the right closer; the
    old `std::atomic<[^>]*>` regex stopped at the *first* `>` and silently
    skipped every nested declaration."""
    if "std::atomic" not in stripped or re.search(r"\busing\s", stripped):
        return False
    # Walk every template-id on the line (`name<...>` with balanced
    # brackets); one *containing* std::atomic covers both the direct form
    # and atomics nested inside an aggregate's argument list, e.g.
    # `std::array<std::atomic<T>, N> bins;`.
    for m in re.finditer(r"[\w:]+\s*<", stripped):
        depth = 1
        i = m.end()
        while i < len(stripped) and depth > 0:
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            # Closer (and therefore any declared name) is on a later line;
            # multi-line atomic declarations do not occur in this tree.
            continue
        if "std::atomic" not in stripped[m.start():i]:
            continue
        rest = stripped[i:].lstrip()
        if rest[:1] in ("&", "*"):
            continue  # reference/pointer: parameter or return type
        if re.match(r"\w", rest):
            return True
    return False

FLOAT_MAP = re.compile(r"\b(?:std::)?(?:unordered_)?map\s*<\s*(?:double|float)\b")

RAW_NEW = re.compile(r"\bnew\b\s*[\w:<(]")
RAW_DELETE = re.compile(r"\bdelete\b(?:\s*\[\s*\])?\s+[\w:*(]")

OBS_DIRECT = re.compile(
    r"record_span\s*\(|record_flow\s*\(|\bobs::TraceScope\b|"
    r"\bobs::PhaseScope\b|\bTraceScope\s+\w+\s*\(|\bPhaseScope\s+\w+\s*\(|"
    r"\bflow_begin\s*\(|\bflow_end\s*\(")

CHECKS_OFF_BRANCH = re.compile(
    r"^\s*#\s*(?:el)?if\s*!\s*RSHC_CHECKS_ENABLED\b")


def strip_comments_and_strings(line: str) -> str:
    """Best-effort single-line removal of string/char literals and //
    comments. Good enough for keyword rules; block comments are handled by
    the caller tracking state."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        ch = line[i]
        if in_str:
            if ch == "\\":
                i += 2
                continue
            if ch == in_str:
                in_str = None
            i += 1
            continue
        if ch in "\"'":
            in_str = ch
            i += 1
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(ch)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self) -> None:
        self.violations: list[str] = []

    def report(self, rel: str, lineno: int, rule: str, msg: str) -> None:
        self.violations.append(f"{rel}:{lineno}: [{rule}] {msg}")

    # -- per-file rules ---------------------------------------------------

    def lint_cpp(self, path: Path) -> None:
        self.lint_lines(str(path.relative_to(REPO)),
                        path.read_text(encoding="utf-8").splitlines())

    def lint_lines(self, rel: str, lines: list[str]) -> None:
        in_block_comment = False
        in_solver = any(rel.startswith(d) for d in SOLVER_DIRS)
        in_obs = "/obs/" in rel or rel.startswith("src/obs")
        in_tests = rel.startswith("tests/")

        for lineno, raw in enumerate(lines, start=1):
            line = raw
            # Track /* ... */ state so keyword rules skip commented code.
            code = []
            i = 0
            while i < len(line):
                if in_block_comment:
                    end = line.find("*/", i)
                    if end < 0:
                        i = len(line)
                    else:
                        in_block_comment = False
                        i = end + 2
                    continue
                start = line.find("/*", i)
                if start < 0:
                    code.append(line[i:])
                    break
                code.append(line[i:start])
                in_block_comment = True
                i = start + 2
            stripped = strip_comments_and_strings("".join(code))

            if FLOAT_MAP.search(stripped):
                self.report(rel, lineno, "float-keyed-map",
                            "map keyed on floating-point state; use an "
                            "integer or quantized key")

            if in_solver and (RAW_NEW.search(stripped)
                              or RAW_DELETE.search(stripped)):
                self.report(rel, lineno, "raw-new-solver",
                            "raw new/delete in solver code; use containers "
                            "or std::make_unique")

            in_library = rel.startswith("include/") or rel.startswith("src/")
            if in_library and atomic_object_decl(stripped):
                context = lines[max(0, lineno - 4):lineno]
                if not any(ORDERING_WORDS.search(c) for c in context):
                    self.report(rel, lineno, "atomic-ordering",
                                "std::atomic declaration without a memory-"
                                "ordering comment on or above it")

            if in_library and CHECKS_OFF_BRANCH.search(stripped):
                self.report(rel, lineno, "checks-add-only",
                            "checked builds may add code, not run other "
                            "code: no #if !RSHC_CHECKS_ENABLED branch")

            if (not in_obs and not in_tests
                    and OBS_DIRECT.search(stripped)):
                self.report(rel, lineno, "obs-raii-only",
                            "emit obs spans/flows via RSHC_OBS_PHASE / "
                            "RSHC_TRACE_SCOPE / RSHC_OBS_FLOW_BEGIN / "
                            "RSHC_OBS_FLOW_END, not by direct calls")

    def lint_suppressions(self) -> None:
        for supp in sorted((REPO / "tools" / "sanitizers").glob("*.supp")):
            prev_comment = False
            for lineno, raw in enumerate(supp.read_text().splitlines(),
                                         start=1):
                line = raw.strip()
                if not line:
                    prev_comment = False
                    continue
                if line.startswith("#"):
                    prev_comment = True
                    continue
                if not prev_comment:
                    self.report(str(supp.relative_to(REPO)), lineno,
                                "supp-justified",
                                "suppression entry without a justification "
                                "comment directly above it")
                prev_comment = False

    # -- driver -----------------------------------------------------------

    def run(self) -> int:
        files = sorted({f for g in CPP_GLOBS for f in REPO.glob(g)})
        for f in files:
            self.lint_cpp(f)
        self.lint_suppressions()
        if self.violations:
            print(f"lint_rshc: {len(self.violations)} violation(s)")
            for v in self.violations:
                print(v)
            return 1
        print(f"lint_rshc: clean ({len(files)} files)")
        return 0


# -- selftest ---------------------------------------------------------------

# (rel-path, snippet, rule expected to fire or None for must-be-clean).
# The nested-template atomic cases are the regression suite for the
# balanced-angle-bracket scan: the old first-`>` regex missed all of them.
SELFTEST_CASES = [
    ("src/x/a.cpp",
     "std::atomic<int> hits;",
     "atomic-ordering"),
    ("src/x/a.cpp",
     "std::atomic<std::shared_ptr<Config>> cfg;",
     "atomic-ordering"),  # nested template: old regex never matched this
    ("src/x/a.cpp",
     "std::array<std::atomic<std::int64_t>, kNumBins> bins{};",
     "atomic-ordering"),  # atomic nested *inside* another template argument
    ("src/x/a.cpp",
     "// relaxed: counter, eventual visibility only\n"
     "std::atomic<std::shared_ptr<Config>> cfg;",
     None),
    ("src/x/a.cpp",
     "void f(std::atomic<std::shared_ptr<Config>>& cfg);",
     None),  # reference parameter, not a declaration
    ("src/x/a.cpp",
     "using AtomicCfg = std::atomic<std::shared_ptr<Config>>;",
     None),  # alias, not a declaration
    ("src/x/a.cpp",
     "// std::atomic<int> hits;",
     None),  # commented-out code must not fire
    ("tests/t.cpp",
     "std::atomic<int> hits;",
     None),  # tests are exempt from atomic-ordering
    ("src/x/a.cpp",
     "std::map<double, int> by_time;",
     "float-keyed-map"),
    ("src/solver/s.cpp",
     "auto* p = new double[n];",
     "raw-new-solver"),
    ("src/x/a.cpp",
     "auto* p = new double[n];",
     None),  # raw new is only banned inside solver code
    ("src/mesh/m.cpp",
     "obs::TraceScope scope(\"mesh.build\");",
     "obs-raii-only"),
    ("src/obs/trace.cpp",
     "record_span(name, cat, id, t0, t1);",
     None),  # the obs module itself implements the direct calls
    ("src/solver/s.cpp",
     "#if !RSHC_CHECKS_ENABLED",
     "checks-add-only"),
    ("src/solver/s.cpp",
     "#if RSHC_CHECKS_ENABLED",
     None),  # checked builds may add code
]


def selftest() -> int:
    failures = []
    for idx, (rel, snippet, expected) in enumerate(SELFTEST_CASES):
        linter = Linter()
        linter.lint_lines(rel, snippet.splitlines())
        fired = sorted({v.split("[")[1].split("]")[0]
                        for v in linter.violations})
        if expected is None and fired:
            failures.append(f"case {idx} ({rel!r}): expected clean, "
                            f"fired {fired}")
        elif expected is not None and expected not in fired:
            failures.append(f"case {idx} ({rel!r}): expected [{expected}], "
                            f"fired {fired or 'nothing'}")
    if failures:
        print(f"lint_rshc selftest: {len(failures)} failure(s)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"lint_rshc selftest: ok ({len(SELFTEST_CASES)} cases)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        sys.exit(selftest())
    sys.exit(Linter().run())
