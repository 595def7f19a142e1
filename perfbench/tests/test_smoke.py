"""The benchmark itself, run end to end at smoke size.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("bands.fft_calls", "bands.fft_points", "cli.calls", "cli.fft_calls",
                "scalability.restarts", "construct.fft_calls")


def bench(workload, trace, seed=3, cwd=ROOT):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return res


def result(res):
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_checks_pass_and_reports_every_metric(workload, trace):
    out = result(bench(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if not trace:
            assert got["value"] > 0
    if trace:
        assert out["metrics"]["trace.coverage"]["value"] >= 0.95


@pytest.mark.parametrize("workload", ["algebra", "pipeline"])
def test_exact_counts_repeat_between_runs(workload):
    first = result(bench(workload, 1))["metrics"]
    second = result(bench(workload, 1))["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("algebra", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()


def test_all_runs_every_workload_untraced_and_traced():
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    out = result(res)
    assert out["correct"] and out["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    want = {f"{w['name']}.{n}" for w in SPEC["workloads"] for n in names}
    assert set(out["metrics"]) == want
