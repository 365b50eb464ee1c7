"""Smoke test of the benchmark itself, at toy sizes (n=100, 2 epochs).

    python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

EXPECTED_CHECKS = {
    0: {
        "setup exits 0",
        "train exits 0",
        "classify exits 0",
        "cluster exits 0",
        "final loss finite",
        "checkpoint byte-reproducible across train runs",
        "eval reports consistent",
        "positive fraction within 3 SE of 1-alpha",
    },
    1: {
        "train exits 0",
        "classify exits 0",
        "cluster exits 0",
        "traced-train exits 0",
        "traced-classify exits 0",
        "traced-cluster exits 0",
        "final loss finite",
        "traced checkpoint byte-identical to the CLI's",
        "eval reports consistent",
        "traced scores equal the CLI's",
        "positive fraction within 3 SE of 1-alpha",
    },
}


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["smoke-linear", "smoke-gconv"])
def test_every_metric_printed_and_every_check_run(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= len(EXPECTED_CHECKS[trace])

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], float)
        assert f"metric {m['name']} = " in proc.stdout

    ran = {line.split(": ", 1)[1].split(" [")[0] for line in lines if line.startswith("check ok: ")}
    assert EXPECTED_CHECKS[trace] <= ran


def test_positive_fraction_check_rejects_a_biased_draw():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look their module up here
    spec.loader.exec_module(run)
    checks = run.Checks()
    run.check_positive_fraction(checks, kept=[700, 699], slots=[1000, 1000], mask_rate=0.3)
    run.check_positive_fraction(checks, kept=[500, 500], slots=[1000, 1000], mask_rate=0.3)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "smoke-linear", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
