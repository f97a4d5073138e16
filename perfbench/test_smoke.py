"""Small-size run of every workload, untraced and traced.

Checks that each run emits exactly the metrics ``BENCHMARK.json`` lists, with
their units, and that every output check passes. Run from the repository
root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_library()

import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_file():
    assert tuple(w["name"] for w in BENCH["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_run(name, trace):
    result, record = run.run_workload(name, seed=3, seconds=0, trace=bool(trace), sizes=workloads.SMOKE[name])
    assert record["failures"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["digest"]
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
