#!/usr/bin/env python3
"""Static analysis for rshc's concurrency and FP-determinism contracts.

Where tools/lint_rshc.py is a line-regex linter, this tool checks the
*cross-cutting* contracts: per-TU compile-flag recipes (via the build's
compile_commands.json), consistency between an atomic's declared ordering
comment and the memory_order_* arguments actually used at its call sites,
and the acquisition order of the annotated rshc::Mutex locks. The last
rule class re-checks obs-raii-only / raw-new-solver on the clang AST when
the libclang Python bindings are importable, and degrades to a printed
skip notice when they are not (the pure-Python rules above never skip).

Usage
-----
    analyze_rshc.py validate [--build-dir DIR]    # default mode
    analyze_rshc.py selftest

Exit codes (validate; the smallest failing class wins when several fail)
------------------------------------------------------------------------
    0   clean
    2   structural/usage error (bad arguments, unreadable build dir)
    3   flag-recipe       a deterministic-core TU (srhd/srmhd kernels_*,
                          riemann faces_*, solver rhs_core, recon
                          reconstruct) compiled
                          without an effective -ffp-contract=off, or with
                          a value-changing float flag in effect
                          (-ffast-math and the flags it implies that can
                          change a computed value; -fno-math-errno and
                          -fno-trapping-math are allowed), or a
                          recipe pattern that no longer matches any TU
                          (a rename would otherwise silently drop the
                          bitwise-identity guarantee the device/SIMD
                          equivalence tests rely on)
    4   atomic-ordering   a memory_order_* used at a call site that the
                          declaration's ordering comment does not declare
                          ("ordering" in the comment is a wildcard)
    5   lock-order        a cycle in the LockGuard acquisition graph
                          (nodes are module:member, e.g. the sanctioned
                          obs:mutex_ -> obs:mutex edge from the tracer)
    6   ast-rule          libclang-backed obs-raii-only / raw-new-solver

`selftest` injects seeded violations into each pure-Python rule — a
kernel TU that lost -ffp-contract=off, an atomic used with an ordering
its comment does not declare, an inverted lock pair — and exits nonzero
unless every one is caught and classified with the exit code above.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BY_RULE = {
    "flag-recipe": 3,
    "atomic-ordering": 4,
    "lock-order": 5,
    "obs-raii-only": 6,
    "raw-new-solver": 6,
}


@dataclasses.dataclass
class Violation:
    rule: str
    where: str  # "file:line" or "file"
    msg: str

    def __str__(self) -> str:
        return f"{self.where}: [{self.rule}] {self.msg}"


# ---------------------------------------------------------------------------
# Shared text machinery
# ---------------------------------------------------------------------------

def strip_comments(text: str) -> str:
    """Replace comments and string/char literal *contents* with spaces,
    preserving every newline so line numbers survive the mapping."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def module_of(rel: str) -> str:
    """Module key for ordering/lock matching: include/rshc/X/... and
    src/X/... both map to X; top-level files map to their stem."""
    p = Path(rel)
    parts = p.parts
    if parts[:2] == ("include", "rshc"):
        rest = parts[2:]
    elif parts[:1] == ("src",):
        rest = parts[1:]
    else:
        rest = parts
    return rest[0] if len(rest) > 1 else p.stem


def library_files() -> dict[str, str]:
    """rel-path -> text for every library source/header."""
    files = {}
    for glob in ("include/**/*.hpp", "src/**/*.hpp", "src/**/*.cpp"):
        for f in sorted(REPO.glob(glob)):
            files[str(f.relative_to(REPO))] = f.read_text(encoding="utf-8")
    return files


# ---------------------------------------------------------------------------
# Rule: flag-recipe (exit 3)
# ---------------------------------------------------------------------------

# TUs that compile the shared deterministic cores (riemann::detail /
# rhs_core / the reconstruction bodies) for more than one backend and must therefore agree bitwise:
# contraction is pinned *off* on every one of them, whatever -march says.
RECIPE_TUS = (
    r"src/srhd/kernels_\w+\.cpp$",
    r"src/srmhd/kernels_\w+\.cpp$",
    r"src/riemann/faces_\w+\.cpp$",
    r"src/solver/rhs_core\.cpp$",
    r"src/recon/reconstruct\.cpp$",
)


def effective_fp_contract(args: list[str]) -> str:
    """Final fp-contract state after walking the flag list in order
    (later flags win; -ffast-math or -Ofast turns contraction back on)."""
    state = "default"
    for a in args:
        if a.startswith("-ffp-contract="):
            state = a.split("=", 1)[1]
        elif a in ("-ffast-math", "-Ofast"):
            state = "fast"
        elif a == "-fno-fast-math" and state == "fast":
            state = "default"
    return state


# Float flags that let the compiler change a computed value (reassociate,
# use reciprocals, assume no NaN/Inf or ignore the sign of zero), mapped to
# the flag that turns each back off. -ffast-math implies all of them, and so
# does -Ofast. -fno-math-errno and -fno-trapping-math stay allowed: they
# drop errno writes and the assumption that FP operations trap, which
# changes no result and lets the simd kernels if-convert and vectorize.
VALUE_CHANGING_FLAGS = {
    "-ffast-math": "-fno-fast-math",
    "-funsafe-math-optimizations": "-fno-unsafe-math-optimizations",
    "-ffinite-math-only": "-fno-finite-math-only",
    "-fassociative-math": "-fno-associative-math",
    "-freciprocal-math": "-fno-reciprocal-math",
    "-fno-signed-zeros": "-fsigned-zeros",
}
VALUE_NEUTRAL_FLAGS = ("-fno-math-errno", "-fno-trapping-math")


def value_changing_flags(args: list[str]) -> list[str]:
    """Value-changing float flags still in effect after walking the flag
    list in order (a later negation cancels an earlier flag, and
    -fno-fast-math cancels everything -ffast-math implied)."""
    on: list[str] = []
    undo = {neg: flag for flag, neg in VALUE_CHANGING_FLAGS.items()}
    for a in args:
        flag = "-ffast-math" if a == "-Ofast" else a
        if flag in VALUE_CHANGING_FLAGS:
            if flag not in on:
                on.append(flag)
        elif flag == "-fno-fast-math":
            on.clear()
        elif flag in undo and undo[flag] in on:
            on.remove(undo[flag])
    return on


def check_flag_recipe(db: list[dict]) -> list[Violation]:
    violations = []
    matched = {pat: 0 for pat in RECIPE_TUS}
    for entry in db:
        fname = entry.get("file", "")
        rel = fname
        for anchor in ("src/", "tests/", "bench/"):
            idx = fname.find("/" + anchor)
            if idx >= 0:
                rel = fname[idx + 1:]
                break
        pat = next((p for p in RECIPE_TUS if re.search(p, rel)), None)
        if pat is None:
            continue
        matched[pat] += 1
        if "arguments" in entry:
            args = list(entry["arguments"])
        else:
            args = shlex.split(entry.get("command", ""))
        state = effective_fp_contract(args)
        if state != "off":
            violations.append(Violation(
                "flag-recipe", rel,
                f"deterministic-core TU compiles with fp-contract "
                f"'{state}' (needs an effective -ffp-contract=off; see "
                f"src/srhd/CMakeLists.txt for the recipe)"))
        unsafe = value_changing_flags(args)
        if unsafe:
            violations.append(Violation(
                "flag-recipe", rel,
                f"deterministic-core TU compiles with value-changing float "
                f"flag(s) {' '.join(unsafe)} (only "
                f"{' and '.join(VALUE_NEUTRAL_FLAGS)} are allowed)"))
    for pat, count in matched.items():
        if count == 0:
            violations.append(Violation(
                "flag-recipe", pat,
                "recipe pattern matches no TU in compile_commands.json "
                "(core TU renamed without updating the recipe?)"))
    return violations


# ---------------------------------------------------------------------------
# Rule: atomic-ordering (exit 4)
# ---------------------------------------------------------------------------

ORDERINGS = ("relaxed", "acquire", "release", "acq_rel", "seq_cst")
ORDERING_WORD = re.compile(
    r"\b(" + "|".join(ORDERINGS) + r"|ordering)\b", re.IGNORECASE)
MEMORY_ORDER = re.compile(r"std::memory_order_(" + "|".join(ORDERINGS) + r")")

# receiver(.|->)method( — receiver may be a no-arg accessor call
# (`tracing_flag().load(...)`) or an indexed element (`bins[i].load(...)`).
ATOMIC_CALL = re.compile(
    r"(\w+)\s*(\(\s*\))?\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")

FUNC_DEF = re.compile(r"(\w+)\s*\([^;{}]*\)\s*(?:const\s*)?(?:noexcept\s*)?"
                      r"(?:->\s*[\w:&<>]+\s*)?\{")


def find_atomic_decls(raw_lines: list[str], stripped_lines: list[str]):
    """Yield (lineno, name, declared_set, wildcard) for every std::atomic
    object declaration (balanced-angle matched, nested templates included).
    `declared_set` comes from the ordering words in the three lines of
    comment above the declaration (plus the declaration line itself)."""
    for lineno, stripped in enumerate(stripped_lines, start=1):
        if "std::atomic" not in stripped or re.search(r"\busing\s", stripped):
            continue
        name = None
        for m in re.finditer(r"[\w:]+\s*<", stripped):
            depth, i = 1, m.end()
            while i < len(stripped) and depth > 0:
                if stripped[i] == "<":
                    depth += 1
                elif stripped[i] == ">":
                    depth -= 1
                i += 1
            if depth != 0:
                continue
            if "std::atomic" not in stripped[m.start():i]:
                continue
            rest = stripped[i:].lstrip()
            nm = re.match(r"\w+", rest)
            if rest[:1] not in ("&", "*") and nm:
                name = nm.group(0)
                break
        if name is None:
            continue
        window = raw_lines[max(0, lineno - 4):lineno]
        declared, wildcard = set(), False
        for line in window:
            for w in ORDERING_WORD.findall(line):
                w = w.lower()
                if w == "ordering":
                    wildcard = True
                else:
                    declared.add(w)
        aliases = [name]
        # Function-local static: call sites go through the enclosing
        # accessor (`flag` declared inside tracing_flag() is only ever
        # touched as `tracing_flag().load(...)`).
        if re.match(r"\s*static\b", stripped):
            for back in range(lineno - 2, max(-1, lineno - 16), -1):
                fm = FUNC_DEF.search(stripped_lines[back])
                if fm:
                    aliases.append(fm.group(1))
                    break
        yield lineno, aliases, declared, wildcard


def check_atomic_ordering(files: dict[str, str]) -> list[Violation]:
    # module -> receiver name -> (declared set, wildcard, decl site)
    decls: dict[str, dict[str, tuple[set, bool, str]]] = {}
    for rel, text in files.items():
        raw_lines = text.splitlines()
        stripped_lines = strip_comments(text).splitlines()
        mod = module_of(rel)
        for lineno, aliases, declared, wildcard in find_atomic_decls(
                raw_lines, stripped_lines):
            if not declared and not wildcard:
                continue  # missing comment entirely: lint_rshc's domain
            for alias in aliases:
                prev = decls.setdefault(mod, {}).get(alias)
                if prev:  # same receiver name declared twice: union
                    declared = declared | prev[0]
                    wildcard = wildcard or prev[1]
                decls[mod][alias] = (declared, wildcard, f"{rel}:{lineno}")

    violations = []
    for rel, text in files.items():
        # Collapse the space runs stripped comments leave behind: the
        # call-site regex's stacked optional groups backtrack quadratically
        # across them otherwise (newlines survive, so line numbers hold).
        stripped = re.sub(r"[ \t]{2,}", " ", strip_comments(text))
        mod = module_of(rel)
        mod_decls = decls.get(mod, {})
        for m in ATOMIC_CALL.finditer(stripped):
            receiver = m.group(1)
            info = mod_decls.get(receiver)
            if info is None:
                continue  # unknown receiver (parameter, foreign module)
            declared, wildcard, decl_site = info
            if wildcard:
                continue
            # Balanced-paren scan over the (possibly multi-line) call args.
            depth, i = 1, m.end()
            while i < len(stripped) and depth > 0:
                if stripped[i] == "(":
                    depth += 1
                elif stripped[i] == ")":
                    depth -= 1
                i += 1
            args = stripped[m.end():i]
            lineno = stripped.count("\n", 0, m.start()) + 1
            for used in MEMORY_ORDER.findall(args):
                if used not in declared:
                    violations.append(Violation(
                        "atomic-ordering", f"{rel}:{lineno}",
                        f"'{receiver}.{m.group(3)}' uses memory_order_"
                        f"{used} but the declaration comment "
                        f"({decl_site}) declares only "
                        f"{{{', '.join(sorted(declared)) or 'nothing'}}}"))
    return violations


# ---------------------------------------------------------------------------
# Rule: lock-order (exit 5)
# ---------------------------------------------------------------------------

LOCK_ACQ = re.compile(r"\bLockGuard\s+\w+\s*\(([^)]+)\)")


def lock_node(expr: str, mod: str) -> str:
    """module:member-tail — `ring->mutex` and `box.mutex` in module obs
    both name obs:mutex; distinct objects of one member are one node
    (locking two instances of the same member concurrently would need an
    address-ordering protocol this codebase deliberately avoids)."""
    tail = re.split(r"->|\.", expr.strip())[-1].strip()
    tail = re.sub(r"\(\s*\)$", "", tail).strip()
    return f"{mod}:{tail}"


def extract_lock_edges(files: dict[str, str]):
    """Directed acquired-before edges from a textual guard-stack walk.
    Returns {(from, to): example "file:line"}."""
    edges: dict[tuple[str, str], str] = {}
    for rel, text in files.items():
        mod = module_of(rel)
        stack: list[tuple[int, str]] = []  # (depth at acquisition, node)
        depth = 0
        for lineno, line in enumerate(strip_comments(text).splitlines(),
                                      start=1):
            # Braces and acquisitions interleave in character order so a
            # one-line `{ LockGuard l(m); }` scope releases on its own line.
            acqs = {m.start(): m for m in LOCK_ACQ.finditer(line)}
            for pos, ch in enumerate(line):
                m = acqs.get(pos)
                if m:
                    node = lock_node(m.group(1), mod)
                    for _, held in stack:
                        if held != node:
                            edges.setdefault((held, node), f"{rel}:{lineno}")
                    stack.append((depth, node))
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth <= 0:  # function boundary
                        depth = 0
                        stack.clear()
                    else:
                        # A guard acquired at depth d dies when its scope
                        # closes, i.e. once depth falls below d.
                        while stack and stack[-1][0] > depth:
                            stack.pop()
    return edges


def check_lock_order(files: dict[str, str]) -> list[Violation]:
    edges = extract_lock_edges(files)
    graph: dict[str, list[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, []).append(b)

    violations = []
    # DFS cycle detection with path recovery.
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    path: list[str] = []

    def dfs(u: str) -> list[str] | None:
        color[u] = GREY
        path.append(u)
        for v in graph.get(u, []):
            if color.get(v, WHITE) == GREY:
                return path[path.index(v):] + [v]
            if color.get(v, WHITE) == WHITE:
                cyc = dfs(v)
                if cyc:
                    return cyc
        path.pop()
        color[u] = BLACK
        return None

    for u in list(graph):
        if color.get(u, WHITE) == WHITE:
            cycle = dfs(u)
            if cycle:
                sites = [edges.get((a, b), "?")
                         for a, b in zip(cycle, cycle[1:])]
                violations.append(Violation(
                    "lock-order", sites[0],
                    "lock acquisition cycle: " + " -> ".join(cycle)
                    + " (edges at " + ", ".join(sites) + ")"))
                path.clear()
    return violations


# ---------------------------------------------------------------------------
# Rule: AST checks via libclang (exit 6, graceful skip)
# ---------------------------------------------------------------------------

OBS_DIRECT_NAMES = {"record_span", "record_flow", "flow_begin", "flow_end"}
OBS_RAII_TYPES = {"TraceScope", "PhaseScope"}


def check_ast_rules(build_dir: Path):
    """AST-grade re-check of obs-raii-only and raw-new-solver: unlike the
    line regexes these see through formatting, match real call expressions,
    and skip code reached only via the sanctioned RSHC_* macros (whose
    spelling location is inside the obs headers). Returns (violations,
    skip_notice); skip_notice is set when libclang is unusable here."""
    try:
        import clang.cindex as ci  # noqa: PLC0415
    except ImportError:
        return [], ("libclang Python bindings not importable; "
                    "AST rules skipped (run in the CI static-analysis lane)")
    try:
        cdb = ci.CompilationDatabase.fromDirectory(str(build_dir))
        index = ci.Index.create()
    except Exception as e:  # noqa: BLE001 - degrade, never crash validate
        return [], f"libclang unavailable ({e}); AST rules skipped"

    violations = []
    try:
        for src in sorted(REPO.glob("src/**/*.cpp")):
            rel = str(src.relative_to(REPO))
            in_solver = rel.startswith("src/solver")
            in_obs = rel.startswith("src/obs")
            cmds = cdb.getCompileCommands(str(src))
            if not cmds:
                continue
            args = [a for a in list(cmds[0].arguments)[1:-1]
                    if a not in ("-c", "-o") and not a.endswith(".o")
                    and not a.endswith(".cpp")]
            tu = index.parse(str(src), args=args)

            def walk(cursor):
                for c in cursor.get_children():
                    loc = c.location
                    if loc.file is None or str(loc.file) != str(src):
                        walk(c)
                        continue
                    if in_solver and c.kind in (
                            ci.CursorKind.CXX_NEW_EXPR,
                            ci.CursorKind.CXX_DELETE_EXPR):
                        violations.append(Violation(
                            "raw-new-solver", f"{rel}:{loc.line}",
                            "raw new/delete expression in solver code"))
                    if not in_obs and c.kind == ci.CursorKind.CALL_EXPR \
                            and c.spelling in OBS_DIRECT_NAMES:
                        violations.append(Violation(
                            "obs-raii-only", f"{rel}:{loc.line}",
                            f"direct call to obs::{c.spelling}; use the "
                            "RSHC_OBS_* / RSHC_TRACE_SCOPE macros"))
                    if not in_obs and c.kind == ci.CursorKind.VAR_DECL \
                            and c.type.spelling.split("::")[-1] \
                            in OBS_RAII_TYPES:
                        violations.append(Violation(
                            "obs-raii-only", f"{rel}:{loc.line}",
                            f"direct {c.type.spelling} construction; use "
                            "RSHC_TRACE_SCOPE / RSHC_OBS_PHASE"))
                    walk(c)

            walk(tu.cursor)
    except Exception as e:  # noqa: BLE001
        return [], f"libclang parse failed ({e}); AST rules skipped"
    # Macro-expanded uses land on the macro call line; filter lines that
    # visibly go through the sanctioned macros.
    filtered = []
    for v in violations:
        rel, _, line = v.where.partition(":")
        text = (REPO / rel).read_text(encoding="utf-8").splitlines()
        if "RSHC_" in text[int(line) - 1]:
            continue
        filtered.append(v)
    return filtered, None


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def load_compile_db(build_dir: Path) -> list[dict] | None:
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        return None
    return json.loads(db_path.read_text(encoding="utf-8"))


def validate(build_dir: Path, explicit_build_dir: bool) -> int:
    violations: list[Violation] = []
    notices: list[str] = []

    db = load_compile_db(build_dir)
    if db is None:
        if explicit_build_dir:
            print(f"analyze_rshc: no compile_commands.json under "
                  f"{build_dir}", file=sys.stderr)
            return EXIT_USAGE
        notices.append(f"no compile_commands.json under {build_dir}; "
                       "flag-recipe rule skipped (configure first)")
    else:
        violations += check_flag_recipe(db)

    files = library_files()
    violations += check_atomic_ordering(files)
    violations += check_lock_order(files)

    ast_violations, skip = check_ast_rules(build_dir)
    violations += ast_violations
    if skip:
        notices.append(skip)

    for n in notices:
        print(f"analyze_rshc: note: {n}")
    if violations:
        print(f"analyze_rshc: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return min(EXIT_BY_RULE[v.rule] for v in violations)
    print(f"analyze_rshc: clean ({len(files)} library files"
          + (f", {len(db)} TUs" if db is not None else "") + ")")
    return EXIT_OK


# --- selftest ----------------------------------------------------------------

def selftest() -> int:
    failures: list[str] = []

    def expect(label: str, violations: list[Violation], rule: str,
               count: int, exit_code: int) -> None:
        got = [v for v in violations if v.rule == rule]
        if len(got) != count:
            failures.append(f"{label}: expected {count} [{rule}], got "
                            f"{len(violations)}: "
                            f"{[str(v) for v in violations]}")
        elif got and EXIT_BY_RULE[rule] != exit_code:
            failures.append(f"{label}: [{rule}] classified as exit "
                            f"{EXIT_BY_RULE[rule]}, expected {exit_code}")

    # flag-recipe: kernels TU that lost the flag, faces TU where a later
    # -ffast-math re-enables contraction (and is itself value-changing),
    # plus clean TUs covering the other patterns.
    gxx = "/usr/bin/c++ -O3 -march=native"
    db = [
        {"file": "/r/src/srhd/kernels_simd.cpp",
         "command": f"{gxx} -c kernels_simd.cpp"},                 # seeded
        {"file": "/r/src/riemann/faces_simd.cpp",
         "command": f"{gxx} -ffp-contract=off -ffast-math -c f.cpp"},  # seeded x2
        {"file": "/r/src/srmhd/kernels_scalar.cpp",
         "command": f"{gxx} -ffp-contract=off -c k.cpp"},
        {"file": "/r/src/solver/rhs_core.cpp",
         "arguments": ["c++", "-ffp-contract=off", "-c", "rhs_core.cpp"]},
        {"file": "/r/src/recon/reconstruct.cpp",
         "command": f"{gxx} -ffp-contract=off -fno-math-errno "
                    f"-fno-trapping-math -c reconstruct.cpp"},
        {"file": "/r/src/solver/fv_solver.cpp",
         "command": f"{gxx} -ffast-math -c fv_solver.cpp"},  # not a recipe TU
    ]
    expect("flag-recipe seeded", check_flag_recipe(db), "flag-recipe", 3, 3)
    clean_db = [dict(e) for e in db]
    clean_db[0]["command"] += " -ffp-contract=off"
    clean_db[1]["command"] = (f"{gxx} -ffp-contract=off -fno-math-errno "
                              f"-fno-trapping-math -c f.cpp")
    expect("flag-recipe clean", check_flag_recipe(clean_db),
           "flag-recipe", 0, 3)
    missing = [e for e in clean_db if "srmhd" not in e["file"]]
    expect("flag-recipe coverage", check_flag_recipe(missing),
           "flag-recipe", 1, 3)
    # Each value-changing flag is rejected on its own (and -Ofast as the
    # -ffast-math it implies), even with contraction pinned off again; a
    # later negation cancels it.
    for flag in (*VALUE_CHANGING_FLAGS, "-Ofast"):
        seeded = [dict(e) for e in clean_db]
        seeded[2]["command"] += f" {flag} -ffp-contract=off"
        expect(f"flag-recipe {flag}", check_flag_recipe(seeded),
               "flag-recipe", 1, 3)
    recon = [dict(e) for e in clean_db]
    recon[4]["command"] += " -freciprocal-math"
    expect("flag-recipe reconstruct.cpp -freciprocal-math",
           check_flag_recipe(recon), "flag-recipe", 1, 3)
    for flag, neg in (*VALUE_CHANGING_FLAGS.items(),
                      ("-funsafe-math-optimizations", "-fno-fast-math")):
        cancelled = [dict(e) for e in clean_db]
        cancelled[2]["command"] += f" {flag} {neg} -ffp-contract=off"
        expect(f"flag-recipe {flag} {neg}", check_flag_recipe(cancelled),
               "flag-recipe", 0, 3)

    # atomic-ordering: declared relaxed, used acquire (seeded); a wildcard
    # comment and a matching use stay clean; the function-local-static
    # alias routes uses of `flag_fn()` back to the declaration.
    files = {
        "src/x/a.cpp": (
            "// relaxed: event counter, eventual visibility only\n"
            "std::atomic<int> hits{0};\n"
            # line 3 is the seeded violation: acquire vs declared relaxed
            "void f() { hits.fetch_add(1, std::memory_order_acquire); }\n"
            "// ordering chosen per call site (see f/g)\n"
            "std::atomic<int> mixed{0};\n"
            "void g() { mixed.store(1, std::memory_order_release); }\n"),
        "src/x/b.cpp": (
            "std::atomic<bool>& flag_fn() {\n"
            "  // relaxed: mode switch, not a synchronization point\n"
            "  static std::atomic<bool> flag{false};\n"
            "  return flag;\n"
            "}\n"
            "void h() { flag_fn().store(true, "
            "std::memory_order_release); }\n"),  # seeded via alias
    }
    expect("atomic-ordering seeded", check_atomic_ordering(files),
           "atomic-ordering", 2, 4)
    clean_files = {
        "src/x/a.cpp": (
            "// relaxed: event counter\n"
            "std::atomic<int> hits{0};\n"
            "void f() { hits.fetch_add(1, std::memory_order_relaxed); }\n")}
    expect("atomic-ordering clean", check_atomic_ordering(clean_files),
           "atomic-ordering", 0, 4)

    # lock-order: f takes alpha_ then beta_, g takes beta_ then alpha_.
    files = {
        "src/y/locks.cpp": (
            "void f() {\n"
            "  LockGuard a(alpha_);\n"
            "  LockGuard b(beta_);\n"
            "}\n"
            "void g() {\n"
            "  LockGuard b(beta_);\n"
            "  LockGuard a(alpha_);\n"
            "}\n")}
    expect("lock-order seeded", check_lock_order(files), "lock-order", 1, 5)
    nested_ok = {
        "src/y/locks.cpp": (
            "void f() {\n"
            "  LockGuard a(alpha_);\n"
            "  { LockGuard b(beta_); }\n"
            "  LockGuard c(gamma_);\n"
            "}\n")}
    expect("lock-order clean", check_lock_order(nested_ok),
           "lock-order", 0, 5)
    scope_exit = {
        "src/y/locks.cpp": (
            "void f() {\n"
            "  { LockGuard a(alpha_); }\n"
            "  LockGuard b(beta_);\n"
            "}\n"
            "void g() {\n"
            "  { LockGuard b(beta_); }\n"
            "  LockGuard a(alpha_);\n"
            "}\n")}
    expect("lock-order scope-exit", check_lock_order(scope_exit),
           "lock-order", 0, 5)

    # lock-order, comm wait-path shape: the futures invariant is that the
    # mailbox lock is never held while taking a CommFutureState lock (the
    # wait side holds state->m_ and probes the mailbox; delivery holds the
    # mailbox mutex_ and must complete futures only after dropping it).
    # Seed the forbidden nesting on the delivery side and assert the cycle
    # fires; the real release-before-acquire shape must stay clean.
    comm_inverted = {
        "src/comm/communicator.cpp": (
            "void CommFuture::wait() {\n"
            "  LockGuard s(state_->m_);\n"
            "  LockGuard b(mailbox_.mutex_);\n"
            "}\n"
            "void World::deliver() {\n"
            "  LockGuard b(mailbox_.mutex_);\n"
            "  LockGuard s(state_->m_);\n"
            "}\n")}
    expect("lock-order comm seeded", check_lock_order(comm_inverted),
           "lock-order", 1, 5)
    comm_clean = {
        "src/comm/communicator.cpp": (
            "void CommFuture::wait() {\n"
            "  { LockGuard b(mailbox_.mutex_); }\n"
            "  LockGuard s(state_->m_);\n"
            "}\n"
            "void World::deliver() {\n"
            "  { LockGuard b(mailbox_.mutex_); }\n"
            "  LockGuard s(state_->m_);\n"
            "}\n")}
    expect("lock-order comm clean", check_lock_order(comm_clean),
           "lock-order", 0, 5)

    if failures:
        print(f"analyze_rshc selftest: {len(failures)} failure(s)")
        for f in failures:
            print(f"  {f}")
        return 1
    print("analyze_rshc selftest: ok (flag-recipe, atomic-ordering, "
          "lock-order all catch their seeded violations)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode")
    val = sub.add_parser("validate", help="run all rules on the tree")
    val.add_argument("--build-dir", type=Path, default=None,
                     help="build dir holding compile_commands.json "
                          "(default: <repo>/build; skipped if absent)")
    sub.add_parser("selftest", help="verify the rules catch seeded bugs")
    ns = parser.parse_args(argv)

    if ns.mode == "selftest":
        return selftest()
    build_dir = getattr(ns, "build_dir", None)
    return validate(build_dir or REPO / "build",
                    explicit_build_dir=build_dir is not None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
