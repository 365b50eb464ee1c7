"""The schema of the measurement records at the repository root.

Each `BENCH_*.json` holds one record per measured tree, oldest first, keyed
by the number of the PR that made the tree.  This checks that every file
parses, that its records are in PR order and that each record carries the
fields its kind needs.  It checks no measured value against a bound:
bounds belong to the benchmark.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
# the phases `tests/memtrace.py` prints: traced peaks, then medians in ms
PEAK_PHASES = ["encode", "loss", "backward", "adam"]
MS_PHASES = PEAK_PHASES + ["epoch"]
ENVIRONMENT = ["python", "numpy", "scipy", "blas", "blas_threads", "cpu", "cpu_count", "platform"]


def _workloads() -> tuple[set, list]:
    """The benchmark's workload names, and its end-to-end metric names."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {w["name"] for w in bench["workloads"]}, [m["name"] for m in bench["end_to_end"]]


def test_there_is_a_record_file():
    assert "BENCH_photo-shape.json" in [path.name for path in FILES]


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_records_parse_in_pr_order_with_their_fields(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict) and isinstance(doc.get("caveats", []), list)
    records = doc["records"]
    assert isinstance(records, list) and records
    numbers = [record["pr"] for record in records]
    assert all(type(n) is int for n in numbers)
    assert numbers == sorted(set(numbers)), "records must be in PR order, one per PR"
    workloads, metrics = _workloads()
    for record in records:
        where = f"{path.name} PR {record['pr']}"
        # the merged sha of the newest tree is filled in once it has one
        newest = record is records[-1]
        assert (newest and record["sha"] is None) or re.fullmatch(r"[0-9a-f]{40}", record["sha"] or ""), where
        assert isinstance(record["command"], str) and record["command"], where
        assert sorted(record["environment"]) == sorted(ENVIRONMENT), where
        if path.stem.removeprefix("BENCH_") in workloads:
            assert sorted(record["metrics"]) == sorted(metrics), where
            continue
        assert list(record["peaks_mib"]) == PEAK_PHASES, where
        runs = record["phase_ms"]["runs"]
        assert runs and all(list(run) == MS_PHASES for run in runs), where
        assert list(record["phase_ms"]["median"]) == MS_PHASES, where
        values = list(record["peaks_mib"].values()) + [ms for run in runs for ms in run.values()]
        assert all(isinstance(v, (int, float)) and v > 0 for v in values), where
