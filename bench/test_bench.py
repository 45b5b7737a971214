"""Checks of the benchmark itself, at a tiny scale.

Run with ``python -m pytest bench -q``; not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

from compare import verdict  # noqa: E402
from oracle import Expected, check_select  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05
COUNT_METRICS = ("partitions_loaded_ratio", "storage_bytes_per_stmt")


def tiny(name: str, seed: int = 1, trace: bool = False, spans_out=None):
    return run.run_workload(name, seed, seconds=0.01, trace=trace,
                            scale=SCALE, spans_out=spans_out)


def test_manifest_shape():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["paths"] == ["bench"]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert all(bounds[name] <= 0.01 for name in COUNT_METRICS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in MANIFEST["end_to_end"])
    assert len(MANIFEST["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run(name):
    metrics, attempted, failed, fingerprint, errors = tiny(name)
    assert failed == 0, errors
    assert attempted >= 1
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: unit for k, (_, unit, _) in metrics.items()} == declared
    assert all(value > 0 for value, _, _ in metrics.values())
    again, _, _, same_print, _ = tiny(name)
    assert same_print == fingerprint
    for metric in COUNT_METRICS:
        assert again[metric][0] == metrics[metric][0]
    assert tiny(name, seed=2)[3] != fingerprint


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run(name, tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    metrics, _, failed, _, errors = tiny(name, trace=True,
                                         spans_out=str(spans_file))
    assert failed == 0, errors
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {k: unit for k, (_, unit, _) in metrics.items()} == declared
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert spans
    covered = [0.0] * len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            covered[span["parent"]] += span["end"] - span["start"]
    for span, children in zip(spans, covered):
        assert children <= span["end"] - span["start"] + 1e-9


def test_each_workload_stresses_what_it_says():
    needle = tiny("needle_wide", trace=True)[0]
    scan = tiny("scan_heavy", trace=True)[0]
    sketch = tiny("sketch_like", trace=True)[0]
    serve = tiny("serve_repeat", trace=True)[0]
    assert needle["plan.compile_share"][0] > needle["engine.execute_share"][0]
    assert scan["engine.execute_share"][0] > scan["plan.compile_share"][0]
    assert sketch["pruning.pruned_ratio.sketch"][0] > 0
    for other in (needle, scan, serve):
        assert other["pruning.pruned_ratio.sketch"][0] == 0
    sweep = [needle[f"plan.compile_us_p50.parts_{n}"][0]
             for n in ("1e2", "1e3", "1e4", "3e4")]
    assert sweep == sorted(sweep) and sweep[0] > 0
    assert (serve["service.result_hit_ratio.fits"][0]
            > serve["service.result_hit_ratio.exceeds"][0])


def test_check_select_catches_wrong_replies():
    full = [(1, "a"), (2, "b"), (2, "c"), (3, "d")]
    plain = Expected(rows=full)
    assert check_select(list(reversed(full)), plain)
    assert not check_select(full[:-1], plain)
    assert not check_select(full[:-1] + [(3, "x")], plain)
    ordered = Expected(rows=full, order=((0, True),))
    assert check_select([(3, "d"), (2, "c"), (2, "b"), (1, "a")], ordered)
    assert not check_select(full, ordered)
    top = Expected(rows=full, order=((0, True),), limit=2)
    assert check_select([(3, "d"), (2, "b")], top)      # either tied row
    assert check_select([(3, "d"), (2, "c")], top)
    assert not check_select([(3, "d"), (1, "a")], top)
    assert not check_select([(3, "d")], top)
    limited = Expected(rows=full, limit=3)
    assert check_select(full[1:], limited)
    assert not check_select(full[:2] + [(9, "z")], limited)
    assert check_select(full, Expected(rows=full, limit=10))


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, steady, 0.1, "lower") == "same"
    assert verdict(steady, [v * 1.3 for v in steady], 0.1, "lower") == "worse"
    assert verdict(steady, [v * 0.7 for v in steady], 0.1, "lower") == "better"
    assert verdict(steady, [v * 0.7 for v in steady], 0.1, "higher") == "worse"
    assert verdict([5.0, 10.0, 15.0, 20.0], steady, 0.1,
                   "lower") == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "needle_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert done.returncode != 0
    assert not done.stdout.strip()
