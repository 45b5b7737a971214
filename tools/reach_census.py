#!/usr/bin/env python3
"""Which ``src/repro`` functions does anything actually run?

    python3 tools/reach_census.py                    # everything, ~6 min
    python3 tools/reach_census.py --only bench,examples --summary

Runs the repository's own traffic under a call profiler (stdlib only:
``sys.setprofile`` + ``threading.setprofile``, *call* events of code
objects under ``src/repro``) and reports, per function defined in
``src/``, which runs reached it:

* ``bench``       the six ``bench/`` workloads, ``--seconds 1 --trace 1``;
* ``examples``    every script under ``examples/``;
* ``benchmarks``  ``pytest benchmarks --benchmark-disable`` (the
  pytest-benchmark fixture switches the profiler off around every timed
  call, ``--benchmark-disable`` makes it call the target once, plainly);
* ``tests``       the tier-1 suite, one label per test file.

Each run is its own subprocess, so no run sees another's imports or
caches. The default writes ``docs/reach_census.md``; ``--summary``
prints the per-module table only (the CI step) and writes nothing.
A function reached by nothing is dead or only documented; one reached
by tier-1 only is kept alive by its own tests: ``NOTES`` says, per
module, which paper section or ROADMAP item needs it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("needle_wide", "scan_heavy", "fleet_mix", "sketch_like",
             "dml_mix", "serve_repeat")
GROUPS = ("bench", "examples", "benchmarks", "tests")

#: Why a module with functions only tier-1 (or nothing) reaches is
#: still in ``src/``: the paper section or ROADMAP item that needs it.
NOTES = {
    "repro/__main__.py": "the CLI (`python -m repro demo|sql|tpch|"
                         "workload`), a runtime surface only "
                         "`tests/test_sql_extensions.py` drives; ROADMAP "
                         "6(a) trims it together with `workload/`",
    "repro/bench/": "a table helper of the figure reproductions; "
                    "`bench/` leaves `src/` with ROADMAP 6(a)",
    "repro/cache/": "`Prefetcher` (read-ahead, discarded under top-k) "
                    "runs only with `cache.prefetch` on, which "
                    "`serve_repeat` turns off; warm-up, invalidation "
                    "and the stats surface are ROADMAP 6(b)'s one "
                    "bounded cache",
    "repro/catalog.py": "Iceberg ingest (§8.1), `explain_analyze` (aim "
                        "4), `drop_table`, and the `enable_data_cache` "
                        "/ `enable_fault_injection` switches `bench/` "
                        "leaves off: ROADMAP 6(d) splits `Catalog`",
    "repro/durability/": "WAL records of CREATE / DROP TABLE and the "
                         "checkpoint threshold: aim 3 (state survives "
                         "recovery); `dml_mix` logs DML only",
    "repro/engine/": "`Scan._iter_parallel` and its morsel helpers run "
                     "only at `scan_parallelism > 1` and the prefetch "
                     "hooks only with read-ahead on, neither of which "
                     "`bench/` sets (ROADMAP 5, 7: morsel workers never "
                     "trace); `Warehouse.scan_runtime_ms` is §4.4; "
                     "`Chunk.row_at` is the reference operators' "
                     "accessor (PR 13)",
    "repro/errors.py": "typed errors raised on malformed input and on "
                       "injected faults only",
    "repro/expr/": "expression forms no workload generates (NOT, NEG, "
                   "IS NULL over expressions, CAST, scalar functions, "
                   "the §3.1 `not_true` rewrite): the statement space "
                   "ROADMAP 2's oracle and 3's metamorphic suite are to "
                   "cover",
    "repro/faults/": "fault injection, retry, circuit breaker and crash "
                     "points: aim 3 (fail open, always), exercised by "
                     "`tests/test_faults.py`, `test_durability.py` and "
                     "the chaos suite, never by a benchmark",
    "repro/formats/": "§8.1 Iceberg / Parquet hierarchy (append, row "
                      "counts); ROADMAP 4(b) adopts it natively or moves "
                      "it out",
    "repro/obs/": "`obs/fleet.py` renders §7's fleet CDFs and the "
                  "slow-query log; `TelemetryRecord.to_dict`, the sink's "
                  "query surface and span-tree rendering are aim 4 / "
                  "ROADMAP 7 (`bench/` records but never renders)",
    "repro/plan/": "a residual `Filter` above a non-scan child (HAVING, "
                   "filters over joins): SQL surface for ROADMAP 2",
    "repro/plancache/": "table invalidation, uncacheable marking and "
                        "the stats surface; `serve_repeat` runs the hit "
                        "and miss paths only (ROADMAP 6(b))",
    "repro/pruning/": "the scalar sketch probes and `PruningTree`'s OR "
                      "/ cutoff nodes (§3.2) are differential references "
                      "(ROADMAP 6(c)); `find_fully_matching_inverted` is "
                      "§4.2's definition; `PruningFlow` is §7's "
                      "per-query record; `PredicateCache.on_rewrite` is "
                      "§8.2's DML analysis (top-k entries only; "
                      "`on_insert` / `on_delete` / `on_update` and "
                      "`ShapeSkipSet` went with PR 24, `sketch_like` "
                      "reaches `record` / `lookup`); the "
                      "STARTSWITH / IS NULL / OR / NOT kernels serve "
                      "predicates no workload generates (ROADMAP 3)",
    "repro/recluster/": "§8 background reclustering: the incremental "
                        "engine, the workload advisor (ROADMAP 7 "
                        "replaces its heuristic with measured regret) "
                        "and the service thread; `dml_mix` reclusters "
                        "through `Catalog.recluster` in the foreground",
    "repro/service/": "`submit` / `cancel`, `describe()`, background "
                      "checkpoint and reclustering of `QueryService`: "
                      "the multi-client surface; `serve_repeat` is one "
                      "closed-loop client calling `sql()`",
    "repro/sql/": "HAVING, DATE literals, `normalize_sql`: statement "
                  "forms no workload generates (ROADMAP 1(b), 2)",
    "repro/storage/": "`IOStats` fault counters and snapshots (aim 3), "
                      "integrity verification, stat-less / truncated "
                      "zone maps (§8.1 backfill, metadata-store "
                      "practice), `drop_table`",
    "repro/types.py": "DATE conversion and `Schema` hashing / repr",
    "repro/workload/": "query-class predicates and a helper of the "
                       "figure reproductions; leaves `src/` with "
                       "ROADMAP 6(a)",
}


# ----------------------------------------------------------------------
# Child: run one target under the profiler, dump what it reached
# ----------------------------------------------------------------------
def _child(dump: str, kind: str, target: list[str]) -> int:
    prefix = str(SRC) + os.sep
    reached: dict[str, dict[int, object]] = defaultdict(dict)
    seen = reached[kind]

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # id() as key: hashing a code object hashes its bytecode.
            # The code object is kept as the value so ids stay unique.
            seen.setdefault(id(code), code)

    def relabel(label: str) -> None:
        nonlocal seen
        seen = reached[label]

    sys.path.insert(0, str(SRC))
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if kind == "pytest":
            import pytest

            class PerFile:
                @staticmethod
                def pytest_runtest_logstart(nodeid, location):
                    relabel(location[0])

            status = pytest.main(
                ["-q", "-p", "no:cacheprovider", *target],
                plugins=[PerFile()])
        else:
            sys.argv = target
            sys.path.insert(0, str(Path(target[0]).resolve().parent))
            try:
                runpy.run_path(target[0], run_name="__main__")
                status = 0
            except SystemExit as exit_:
                status = exit_.code or 0
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    Path(dump).write_text(json.dumps({
        label: sorted({(code.co_filename[len(prefix):].replace(os.sep, "/"),
                        code.co_firstlineno)
                       for code in codes.values()
                       if code.co_filename.startswith(prefix + "repro")})
        for label, codes in reached.items()}))
    return int(status)


def _run(kind: str, target: list[str]) -> dict[str, set[tuple[str, int]]]:
    with tempfile.TemporaryDirectory() as scratch:
        dump = os.path.join(scratch, "reach.json")
        done = subprocess.run(
            [sys.executable, __file__, "--child", dump, kind, *target],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0 or not os.path.exists(dump):
            sys.stderr.write(f"reach_census: {kind} {target} exited "
                             f"{done.returncode}\n{done.stdout[-2000:]}"
                             f"{done.stderr[-2000:]}\n")
        if not os.path.exists(dump):
            return {}
        return {label: {tuple(entry) for entry in entries}
                for label, entries in json.loads(
                    Path(dump).read_text()).items()}


# ----------------------------------------------------------------------
# Parent: what is defined, what was reached, the report
# ----------------------------------------------------------------------
def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` for every
    ``def`` under ``src/repro`` (first line = first decorator's, which
    is what ``co_firstlineno`` reports)."""
    found = {}

    def walk(node, scope, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d
                                              in child.decorator_list])
                name = ".".join(scope + [child.name])
                found[(rel, first)] = (name, child.end_lineno - first + 1)
                walk(child, scope + [child.name, "<locals>"], rel)
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + [child.name], rel)
            else:
                walk(child, scope, rel)

    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        walk(ast.parse(path.read_text()), [], rel)
    return found


def census(groups) -> dict[tuple[str, int], dict[str, set[str]]]:
    """Per definition, group -> the labels of that group reaching it."""
    reach: dict = defaultdict(lambda: defaultdict(set))

    def note(group, results, rename=None):
        for label, keys in results.items():
            for key in keys:
                reach[key][group].add(rename or label)

    if "bench" in groups:
        for workload in WORKLOADS:
            note("bench", _run("script", [
                "bench/run.py", "--workload", workload,
                "--seconds", "1", "--trace", "1"]), workload)
    if "examples" in groups:
        for script in sorted((ROOT / "examples").glob("*.py")):
            note("examples", _run("script", [f"examples/{script.name}"]),
                 script.name)
    if "benchmarks" in groups:
        note("benchmarks", _run(
            "pytest", ["benchmarks", "--benchmark-disable"]), "benchmarks")
    if "tests" in groups:
        results = _run("pytest", ["tests"])
        # module-level calls of the test files, made while collecting
        results["tests/(collection)"] = results.pop("pytest", set())
        note("tests", results)
    return reach


def _module_key(rel: str) -> str:
    parts = rel.split("/")
    return rel if len(parts) == 2 else "/".join(parts[:2]) + "/"


def report(defs, reach, groups) -> tuple[str, str]:
    """``(per-module summary, full markdown report)``."""
    product = [g for g in groups if g != "tests"]
    modules: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    nothing, tests_only = defaultdict(list), defaultdict(list)
    for key in sorted(defs):
        (rel, _), (name, lines) = key, defs[key]
        hit = reach.get(key, {})
        if any(hit.get(g) for g in product):
            bucket = "product"
        elif hit.get("tests"):
            bucket = "tests"
            tests_only[rel].append((name, lines, sorted(hit["tests"])))
        else:
            bucket = "none"
            nothing[rel].append((name, lines))
        for column in ("all", bucket):
            cell = modules[_module_key(rel)][column]
            cell[0] += 1
            cell[1] += lines
    heads = ["module", "defs", "lines", "bench/examples/benchmarks"]
    columns = ["all", "product"]
    if "tests" in groups:
        heads.append("tier-1 only")
        columns.append("tests")
    heads.append("nothing")
    columns.append("none")
    totals = {c: [sum(m[c][i] for m in modules.values()) for i in (0, 1)]
              for c in columns}
    rows = [[module, str(cells["all"][0]), str(cells["all"][1])]
            + [f"{cells[c][0]} ({cells[c][1]})" for c in columns[1:]]
            for module, cells in sorted(modules.items())]
    rows.append(["**total**", str(totals["all"][0]), str(totals["all"][1])]
                + [f"{totals[c][0]} ({totals[c][1]})"
                   for c in columns[1:]])
    table = "\n".join(
        ["| " + " | ".join(heads) + " |",
         "|" + "|".join(["---"] + ["---:"] * (len(heads) - 1)) + "|"]
        + ["| " + " | ".join(row) + " |" for row in rows])
    out = [
        "# Reach census of `src/repro`", "",
        "Generated by `python3 tools/reach_census.py` (see its "
        "docstring); do not edit by hand. A cell is `functions "
        "(lines)`; a nested function's lines also count in its "
        f"parent's. Runs: {', '.join(groups)}.", "", table, ""]
    if "tests" in groups:
        out += ["## Reached by nothing", "",
                "No run calls these. What stays has a textual reference "
                "(a docstring, a `__repr__`, an abstract method, a "
                "`# pragma: no cover` fallback) or is listed under its "
                "module's note below.", ""]
        for rel, entries in sorted(nothing.items()):
            out.append(f"- `{rel}`: " + ", ".join(
                f"`{name}` ({lines})" for name, lines in entries))
        out += ["", "## Reached by tier-1 tests only", "",
                "Nothing in `bench/`, `examples/` or `benchmarks/` runs "
                "these; the test files that do are named. Per module, "
                "why it is in `src/`:", ""]
        by_module = defaultdict(list)
        for rel, entries in sorted(tests_only.items()):
            by_module[_module_key(rel)].append((rel, entries))
        for module, files in sorted(by_module.items()):
            lines = sum(e[1] for _, entries in files for e in entries)
            out += [f"### `{module}` ({lines} lines)", "",
                    NOTES.get(module, "(no note)") + ".", ""]
            for rel, entries in files:
                for name, size, labels in entries:
                    tests = ", ".join(
                        label.removeprefix("tests/test_")
                        .removesuffix(".py") for label in labels[:4])
                    more = (f" +{len(labels) - 4}"
                            if len(labels) > 4 else "")
                    out.append(f"- `{rel}` `{name}` ({size}): "
                               f"{tests}{more}")
            out.append("")
    initials = {w: "".join(word[0] for word in w.split("_"))
                for w in WORKLOADS}
    out += ["## Every function", "",
            "`bench`: which of the six workloads ("
            + ", ".join(f"{i} = `{w}`" for w, i in initials.items())
            + "); `ex`: how many of the examples; `bm`: `benchmarks/`; "
            "`t1`: how many tier-1 test files.", "",
            "| function | lines | bench | ex | bm | t1 |",
            "|---|---:|---|---:|---|---:|"]
    for key in sorted(defs):
        (rel, _), (name, lines) = key, defs[key]
        hit = reach.get(key, {})
        bench = " ".join(initials[w] for w in WORKLOADS
                         if w in hit.get("bench", ()))
        out.append(
            f"| `{rel[len('repro/'):]}` `{name}` | {lines} | {bench} | "
            f"{len(hit.get('examples', ()))} | "
            f"{'y' if hit.get('benchmarks') else ''} | "
            f"{len(hit.get('tests', ()))} |")
    return table, "\n".join(out).rstrip("\n") + "\n"


def main(argv=None) -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return _child(sys.argv[2], sys.argv[3], sys.argv[4:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", default=",".join(GROUPS),
                        help=f"comma-separated subset of {GROUPS}")
    parser.add_argument("--summary", action="store_true",
                        help="print the per-module table, write nothing")
    parser.add_argument("--out", default=str(ROOT / "docs"
                                             / "reach_census.md"))
    args = parser.parse_args(argv)
    groups = [g for g in GROUPS if g in args.only.split(",")]
    table, text = report(definitions(), census(groups), groups)
    if args.summary:
        print(table)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
