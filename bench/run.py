#!/usr/bin/env python3
"""The repository's benchmark: six workloads, real clocks, a per-layer split.

    python3 bench/run.py --workload needle_wide --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload needle_wide --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --repeat 5 --out base.json     # all six, 5 runs each

With ``--workload`` it runs that workload in this process, prints every
metric by name with its unit and sample count, and ends with the one
JSON line ``BENCHMARK.json``'s contract asks for. ``--trace 0`` reports
the end-to-end metrics with the benchmark's span wrappers off;
``--trace 1`` the per-layer metrics. Without ``--workload`` it runs all
six, each run in its own subprocess (own peak RSS, no shared caches),
and with ``--out`` saves the runs for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: The one constant that scales every table size and statement count.
#: Changing it changes every fingerprint, so results stop being comparable
#: with the baseline; only the tests run at another scale.
SCALE = 1.0
#: A run times at least this many statements in all (n x k), however
#: few seconds it is given.
MIN_TIMED = 400


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or give up."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - fail here, not mid-run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = SCALE, spans_out: str | None = None):
    """Run one workload in this process.

    Returns ``(metrics, attempted, failed, fingerprint, errors)`` with
    ``metrics`` as name -> (value, unit, samples).
    """
    from harness import Runner, end_to_end
    from layers import layer_metrics
    from spans import SpanRecorder, instrument
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runner = Runner(workload, seed, scale)
    recorder = SpanRecorder()
    # The first cycle pays the first-call costs (lazy imports, numpy
    # set-up) and computes the oracle's answers between statements; its
    # timings are discarded, its checks and counts are kept.
    warm = runner.cycle()
    plain, traced = [], []
    measured, timed = 0.0, 0
    while measured < seconds or timed < MIN_TIMED * scale:
        cycle = runner.cycle()
        plain.append(cycle)
        measured += sum(cycle.stats.walls)
        timed += len(cycle.stats.walls)
        if trace:
            base = len(traced) * len(cycle.stats.walls)
            with instrument(recorder):
                cycle = runner.cycle(recorder, base)
            traced.append(cycle)
            measured += sum(cycle.stats.walls)
            timed += len(cycle.stats.walls)
    if trace:
        extras = {}
        sweep = getattr(workload, "sweep", None)
        if sweep is not None:
            with instrument(recorder):
                extras = sweep(seed, scale, recorder)
        metrics = layer_metrics(recorder, runner.load, runner.expected,
                                traced, plain, extras)
        if spans_out:
            recorder.write(spans_out)
    else:
        metrics = end_to_end(plain)
    cycles = [warm] + plain + traced
    attempted = sum(c.stats.attempted for c in cycles)
    failed = sum(c.stats.failed for c in cycles)
    errors = [e for c in cycles for e in c.stats.errors][:5]
    return metrics, attempted, failed, runner.fingerprint, errors


def _print_metrics(name: str, seed: int, fingerprint: str, metrics,
                   attempted: int, failed: int, errors) -> None:
    print(f"workload {name}  seed {seed}  fingerprint {fingerprint}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"  {metric:<42} {value:>16.6g} {unit:<6} n={samples}")
    print(f"  {'failed_ratio':<42} {failed / attempted:>16.6g} ratio  "
          f"n={attempted}")
    for error in errors:
        print(f"  FAILED {error}")


def _one(args) -> int:
    """Driver mode: one workload, here; the last line is the result."""
    metrics, attempted, failed, fingerprint, errors = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_out=args.spans_out)
    _print_metrics(args.workload, args.seed, fingerprint, metrics,
                   attempted, failed, errors)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if failed == 0 else 1


def _all(args) -> int:
    """Every workload, ``--repeat`` runs of the seed each, one subprocess
    per run. Repeats use the same seed, so their spread is the machine's
    alone and the count metrics repeat exactly."""
    from workloads import WORKLOADS

    runs = []
    status = 0
    for name in WORKLOADS:
        for _ in range(args.repeat):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            started = perf_counter()
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT, check=False)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stdout.flush()
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                status = 1
                if not lines:
                    continue
            result = json.loads(lines[-1])
            runs.append({
                "workload": name, "seed": args.seed, "trace": args.trace,
                "fingerprint": lines[0].split()[-1],
                "wall_s": perf_counter() - started, **result})
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; default all six")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run with span wrappers on")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, all on --seed")
    parser.add_argument("--out", help="save the runs here for compare.py")
    parser.add_argument("--spans-out",
                        help="with --trace 1: write the raw spans (JSONL)")
    args = parser.parse_args(argv)
    _import_program()
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(WORKLOADS)}")
        return _one(args)
    return _all(args)


if __name__ == "__main__":
    sys.exit(main())
