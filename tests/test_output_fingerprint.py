"""``scripts/output_fingerprint.py``, which CI runs on a pull request's base
and head sources and compares file by file, writes the same bytes on every
run, writes every file that comparison names, and runs only the sources it
is given."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "output_fingerprint.py"
SRC = REPO / "src"
EXPECTED_FILES = {
    *(f"data/crossroad/{name}" for name in ("manifest.json", "train.npy", "calib.npy", "test.npy")),
    *(f"models/{m}{suffix}" for m in ("sem", "sem1", "roll", "obs") for suffix in (".json", ".scores.npz")),
    "verdicts.jsonl",
    "report_calib.csv",
    "report_calib.json",
    *(f"stream_{m}.txt" for m in ("sem", "roll", "obs")),
}


def _fingerprint(src: Path, out: Path, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(src), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    runs = []
    for side in ("a", "b"):
        out = tmp_path_factory.mktemp("fingerprint") / side
        done = _fingerprint(SRC, out)
        assert done.returncode == 0, done.stderr
        runs.append(_tree(out))
    return runs


def test_two_runs_write_the_same_bytes(trees):
    first, second = trees
    assert first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []


def test_writes_every_compared_file(trees):
    assert set(trees[0]) == EXPECTED_FILES


def test_level_one_coverage_is_exercised(trees):
    rows = json.loads(trees[0]["report_calib.json"])
    level1 = [r["coverage"] for r in rows if r["level"] == 1]
    assert level1 and min(level1) < 100.0


def test_refuses_a_ptmon_found_outside_src(tmp_path):
    # With an empty --src the repository's ptmon is still importable through
    # PYTHONPATH; running it would compare this code with itself.
    empty, out = tmp_path / "empty", tmp_path / "out"
    empty.mkdir()
    done = _fingerprint(empty, out, PYTHONPATH=str(SRC))
    assert done.returncode == 2
    assert "not from" in done.stderr
    assert not out.exists()
