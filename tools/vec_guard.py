#!/usr/bin/env python3
"""Guard that the simd kernel loops stay vectorized.

    vec_guard.py --build-dir DIR [--compiler-id ID] [--native-arch ON|OFF]

Recompiles the simd kernel translation units (src/srhd/kernels_simd.cpp,
src/srmhd/kernels_simd.cpp, src/riemann/faces_simd.cpp,
src/recon/reconstruct.cpp) with the exact
command lines in DIR/compile_commands.json plus -fopt-info-vec-optimized,
and checks GCC's report against the loops marked in the shared kernel
sources. A marker is a comment line

    // vec-guard(N): what the loop is

above a `for` (only comments and preprocessor lines may sit between
them); that loop must be reported "loop vectorized" at least N times in the TU that includes the file (once
per instantiation, e.g. 9 for a face loop instantiated for 3 solvers x 3
axes). A refactor that puts a branch, an opaque call or a mixed-width mask
back into one of these loops fails here instead of silently running scalar.

Exit codes: 0 every marked loop vectorized, 1 some loop was not (or a marker
or TU is missing), 2 usage error, 77 skipped (not GCC, or the build does not
use -march=native: other compilers word their reports differently and a
generic target may lack the vector width).
"""

import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SKIP = 77

# TU -> shared source whose markers it must satisfy.
GUARDED = {
    "src/srhd/kernels_simd.cpp": "src/srhd/kernels_impl.inc",
    "src/srmhd/kernels_simd.cpp": "src/srmhd/kernels_impl.inc",
    "src/riemann/faces_simd.cpp": "src/riemann/faces_impl.inc",
    "src/recon/reconstruct.cpp": "src/recon/reconstruct.cpp",
}
MARKER = re.compile(r"^\s*//\s*vec-guard\((\d+)\):\s*(.*)$")


def markers(source: Path) -> list[tuple[int, int, str]]:
    """(line of the marked loop, required count, label) per marker."""
    out = []
    lines = source.read_text(encoding="utf-8").splitlines()
    for i, text in enumerate(lines):
        m = MARKER.match(text)
        if m:
            # The marked loop is the next line that is neither a
            # preprocessor line (pragmas) nor a comment.
            j = i + 1
            while j < len(lines) and lines[j].lstrip().startswith(("#", "//")):
                j += 1
            out.append((j + 1, int(m.group(1)), m.group(2).strip()))
    return out


def vectorized_lines(entry: dict, source_name: str) -> dict[int, int]:
    """Recompile one TU and count "loop vectorized" reports per line of
    `source_name`."""
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        args = shlex.split(entry["command"])
    if "-o" in args:
        args[args.index("-o") + 1] = "/dev/null"
    args.append("-fopt-info-vec-optimized")
    done = subprocess.run(args, cwd=entry.get("directory", "."),
                          capture_output=True, text=True, timeout=600,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"compile failed:\n{done.stderr[-2000:]}")
    pat = re.compile(re.escape(source_name) +
                     r":(\d+):\d+: optimized: loop vectorized")
    counts: dict[int, int] = {}
    for line in done.stderr.splitlines():
        m = pat.search(line)
        if m:
            ln = int(m.group(1))
            counts[ln] = counts.get(ln, 0) + 1
    return counts


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", type=Path, required=True)
    ap.add_argument("--compiler-id", default="GNU")
    ap.add_argument("--native-arch", default="ON")
    ns = ap.parse_args(argv)

    if ns.compiler_id != "GNU":
        print(f"vec_guard: skipped (compiler {ns.compiler_id}, not GCC)")
        return SKIP
    if ns.native_arch.upper() not in ("ON", "1", "TRUE", "YES"):
        print("vec_guard: skipped (RSHC_NATIVE_ARCH is off)")
        return SKIP
    db_path = ns.build_dir / "compile_commands.json"
    if not db_path.is_file():
        print(f"vec_guard: no {db_path}", file=sys.stderr)
        return 2
    db = json.loads(db_path.read_text(encoding="utf-8"))

    failures = []
    for tu, shared in GUARDED.items():
        entry = next((e for e in db if e.get("file", "").endswith(tu)), None)
        if entry is None:
            failures.append(f"{tu}: not in compile_commands.json")
            continue
        wanted = markers(REPO / shared)
        if not wanted:
            failures.append(f"{shared}: no vec-guard markers")
            continue
        try:
            counts = vectorized_lines(entry, Path(shared).name)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            failures.append(f"{tu}: {err}")
            continue
        for line, need, label in wanted:
            got = counts.get(line, 0)
            status = "ok" if got >= need else "NOT VECTORIZED"
            print(f"vec_guard: {shared}:{line} {label}: "
                  f"{got} vectorized (need {need}) {status}")
            if got < need:
                failures.append(f"{shared}:{line} {label}: {got} < {need}")
    if failures:
        for f in failures:
            print(f"vec_guard: FAIL {f}", file=sys.stderr)
        return 1
    print("vec_guard: every marked loop is vectorized")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
