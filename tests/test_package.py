"""The package namespace: every exported name resolves, and no export
shadows a submodule of the same name."""

import importlib
import types

import ptmon


def test_robustness_submodule_is_a_module():
    import ptmon.robustness as robustness_module

    assert isinstance(robustness_module, types.ModuleType)
    assert robustness_module is importlib.import_module("ptmon.robustness")
    assert ptmon.robustness is robustness_module


def test_every_exported_name_resolves():
    missing = [name for name in ptmon.__all__ if not hasattr(ptmon, name)]
    assert missing == []


def test_no_export_shadows_a_submodule():
    for name in ("logic", "robustness", "fragment", "conformal", "monitors", "benchmark", "metrics", "cli"):
        module = importlib.import_module(f"ptmon.{name}")
        assert getattr(ptmon, name) is module
        assert name not in ptmon.__all__
