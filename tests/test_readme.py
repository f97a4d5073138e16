"""The README's code blocks run against the current API and dataset layout."""

import re
from pathlib import Path

import numpy as np

from ptmon.benchmark import CrossroadConfig, generate_dataset, load_split

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    section = README.read_text().split(heading, 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert blocks, f"no python block under {heading!r}"
    return blocks[0]


def test_library_quick_start_runs():
    exec(compile(_python_block("## Library quick start"), str(README), "exec"), {})


def test_dataset_read_back_snippet_matches_load_split(tmp_path, monkeypatch):
    counts = {"train": 1, "calib": 2, "test": 1}
    generate_dataset(CrossroadConfig(T=6), counts, seed=2, out_dir=tmp_path / "data" / "crossroad")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(_python_block("## Dataset and model files"), str(README), "exec"), scope)
    ep = load_split("data/crossroad", "calib")[scope["i"]]
    assert scope["mu"].tobytes() == ep.mu.tobytes() and scope["mu"].shape == ep.mu.shape
    assert scope["states"].tobytes() == ep.states.tobytes()
