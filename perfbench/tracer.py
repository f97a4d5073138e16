"""Span tracing of the ``ptmon`` layers from outside the package.

:class:`Tracer` replaces every public function of the ``ptmon`` modules, at
every module attribute that refers to it, and every public method of the
classes those modules define, with a wrapper that records one span per call:
name, start, end and parent. Spans are kept in memory (compact arrays, capped
at ``MAX_SPANS``) and written out when the run ends. Self time, inclusive
time and call counts are aggregated as calls close, so they stay exact even
past the cap.

A few wrappers also look at arguments or results ("probes") to count waste
from outside: distinct episodes per semantic-basis extraction, distinct
formulas per decoder compilation, conformal ranks that clamp, and verdict
labels.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from contextlib import contextmanager
from enum import Enum

import numpy as np

LAYERS = ("logic", "robustness", "fragment", "conformal", "monitors", "benchmark", "metrics", "cli")
# About 70 MB of span arrays; the traced sections record at most ~2.5M spans.
MAX_SPANS = 3_000_000


class Tracer:
    """Records spans of the wrapped functions; ``only`` restricts wrapping to
    the named spans (a light trace with almost no overhead)."""

    def __init__(self, only: frozenset[str] | None = None):
        self.only = only
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One row per recorded span, in start order (so a span's descendants
        # directly follow it).
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        # Open calls: [name id, span index or -1, start, time covered by children].
        self._stack: list[list] = []
        self.self_s: dict[int, float] = {}
        self.incl_s: dict[int, float] = {}
        self.calls: dict[int, int] = {}
        self.open_calls: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        # Probe state.
        self.basis_calls = 0
        self.basis_keys: set[tuple[float, int]] = set()
        self.compiled_formulas: set = set()
        self.rank_clamped = 0
        self.labels = {"safe": 0, "uncertain": 0, "warming_up": 0}
        self.run_episode_verdicts = 0
        self.semantic_calibrate_spans: list[int] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, nid: int) -> int:
        stack = self._stack
        if len(self.span_start) < MAX_SPANS:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        self.open_calls[nid] = self.open_calls.get(nid, 0) + 1
        start = time.perf_counter()
        if idx >= 0:
            self.span_start[idx] = start
        stack.append([nid, idx, start, 0.0])
        return idx

    def exit(self) -> None:
        end = time.perf_counter()
        nid, idx, start, child = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.span_end[idx] = end
        self.self_s[nid] = self.self_s.get(nid, 0.0) + (dur - child)
        self.incl_s[nid] = self.incl_s.get(nid, 0.0) + dur
        self.calls[nid] = self.calls.get(nid, 0) + 1
        self.open_calls[nid] -= 1
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def span(self, name: str):
        """A harness span (the benchmark's own phases)."""
        self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit()

    # -- patching ----------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions and methods defined in ``modules`` and
        re-point every attribute of ``modules`` that refers to one of them."""
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrappers[id(value)] = self._wrap(value, f"{short}.{attr}")
                elif (
                    inspect.isclass(value)
                    and value.__module__ == mod.__name__
                    and not issubclass(value, (Enum, BaseException))
                ):
                    for mname, member in list(vars(value).items()):
                        if not mname.startswith("_") and inspect.isfunction(member):
                            self._patch(value, mname, self._wrap(member, f"{short}.{attr}.{mname}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name: str):
        if self.only is not None and name not in self.only:
            return fn
        nid = self.name_id(name)
        probe = _PROBES.get(name)
        tracer = self

        if probe is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit()

            return wrapper

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            idx = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            probe(tracer, args, result, idx)
            return result

        return probed

    # -- derived numbers ---------------------------------------------------

    def stat(self, names, kind: str) -> float:
        table = {"self_s": self.self_s, "incl_s": self.incl_s, "calls": self.calls}[kind]
        total = 0
        for name in names:
            nid = self._ids.get(name)
            if nid is not None:
                total += table.get(nid, 0)
        return total

    def span_self_times(self) -> np.ndarray:
        """Self time of every recorded span."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def descendant_self(self, idx: int, name: str, span_self: np.ndarray) -> float:
        """Self time of ``name`` spans nested anywhere under span ``idx``."""
        target = self._ids.get(name)
        if target is None or idx < 0:
            return 0.0
        start = np.frombuffer(self.span_start, dtype=np.float64)
        # Spans are stored in start order, so descendants follow contiguously.
        stop = int(np.searchsorted(start, self.span_end[idx]))
        names = np.frombuffer(self.span_name, dtype=np.int32)[idx + 1 : stop]
        return float(span_self[idx + 1 : stop][names == target].sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            dropped=np.int64(self.dropped),
        )


# ---------------------------------------------------------------------------
# Probes: counts that need an argument or a result, taken at the boundary.
# ---------------------------------------------------------------------------


def _probe_basis(tracer: Tracer, args, result, idx) -> None:
    # Count extractions made inside a calibration-layer call (a calibration,
    # a sigma estimate, a score matrix), keyed by the outermost such call
    # (its start time) and the episode read.
    for frame in tracer._stack:
        if tracer.names[frame[0]].startswith("conformal."):
            tracer.basis_calls += 1
            tracer.basis_keys.add((frame[2], args[0].uid))
            return


def _probe_compile(tracer: Tracer, args, result, idx) -> None:
    tracer.compiled_formulas.add(args[0])


def _rank_clamped(mon) -> bool:
    n = mon.n_calibration
    alpha = mon.alpha / len(mon.support) if mon.kind == "observer" else mon.alpha
    return math.ceil((n + 1) * (1.0 - alpha)) > n


def _probe_specialise(tracer: Tracer, args, result, idx) -> None:
    tracer.rank_clamped += int(_rank_clamped(result))


def _probe_calibrate(tracer: Tracer, args, result, idx) -> None:
    if result.kind == "semantic":
        tracer.semantic_calibrate_spans.append(idx)


def _probe_verdict(tracer: Tracer, args, result, idx) -> None:
    # Verdicts built inside run_episode are counted from its result.
    if not tracer.open_calls.get(tracer._ids.get("monitors.run_episode"), 0):
        tracer.labels[result.label.value] += 1


def _probe_run_episode(tracer: Tracer, args, result, idx) -> None:
    for v in result.verdicts:
        tracer.labels[v.label.value] += 1
    tracer.run_episode_verdicts += len(result.verdicts)


_PROBES = {
    "robustness.semantic_basis_series": _probe_basis,
    "fragment.compile_semantic_decoder": _probe_compile,
    "fragment.compile_history_decoder": _probe_compile,
    "conformal.CalibratedMonitor.for_formula": _probe_specialise,
    "conformal.observer_calibrate": _probe_specialise,
    "conformal.calibrate": _probe_calibrate,
    "monitors.semantic_certify": _probe_verdict,
    "monitors.rolling_certify": _probe_verdict,
    "monitors.observer_certify": _probe_verdict,
    "monitors.run_episode": _probe_run_episode,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric prefix -> span names it sums; each gets ``.self_s`` and ``.calls``.
SELF_AND_CALLS = {
    "robustness.semantic_basis_series": ["robustness.semantic_basis_series"],
    "robustness.windowed_extrema": ["robustness.windowed_extrema"],
    "robustness.robustness_series": ["robustness.robustness_series"],
    "benchmark.predict": ["benchmark.PredictorStub.predict", "benchmark.predict"],
    "benchmark.load_split": ["benchmark.load_split"],
    "conformal.for_formula": ["conformal.CalibratedMonitor.for_formula"],
    "conformal.certified_lower_bound": ["conformal.certified_lower_bound"],
    "conformal.interval_propagate": ["conformal.interval_propagate"],
    "fragment.compile": ["fragment.compile_semantic_decoder", "fragment.compile_history_decoder"],
    "fragment.decode": ["fragment.decode", "fragment.decode_values", "fragment.decode_series"],
    "monitors.semantic_certify": ["monitors.semantic_certify"],
    "monitors.rolling_certify": ["monitors.rolling_certify"],
    "monitors.observer_certify": ["monitors.observer_certify"],
}
SELF_ONLY = {
    "benchmark.simulate_episode": ["benchmark.simulate_episode"],
    "benchmark.generate_dataset": ["benchmark.generate_dataset"],
    "conformal.score_matrix": ["conformal.score_matrix"],
    "conformal.estimate_sigma": ["conformal.estimate_sigma"],
    "conformal.observer_calibrate": ["conformal.observer_calibrate"],
    "monitors.history_vector": ["monitors.RollingBuffer.history_vector"],
    "monitors.run_episode": ["monitors.run_episode"],
    "monitors.lower_bounds": ["monitors.EpisodeResult.lower_bounds"],
    "metrics.evaluate_monitor": ["metrics.evaluate_monitor"],
    "metrics.compute_metrics": ["metrics.compute_metrics"],
}
CALLS_ONLY = {
    "conformal.radius_for_support": ["conformal.radius_for_support"],
    "conformal.split_quantile": ["conformal.split_quantile"],
}
CLI_WALL = {"cli.simulate.wall_s": "cli.cmd_simulate", "cli.calibrate.wall_s": "cli.cmd_calibrate",
            "cli.report.wall_s": "cli.cmd_report"}
LABELS = ("safe", "uncertain", "warming_up")
PER_VERDICT = {"logic.format_formula": "logic.format_formula", "logic.horizon": "logic.horizon"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for prefix in SELF_AND_CALLS:
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.calls"] = "count"
    for prefix in SELF_ONLY:
        units[f"{prefix}.self_s"] = "s"
    for prefix in CALLS_ONLY:
        units[f"{prefix}.calls"] = "count"
    for name in CLI_WALL:
        units[name] = "s"
    units["robustness.bases_per_episode"] = "ratio"
    units["fragment.compiles_per_formula"] = "ratio"
    units["conformal.rank_clamped"] = "count"
    for label in LABELS:
        units[f"monitors.verdicts.{label}"] = "count"
    for prefix in PER_VERDICT:
        units[f"{prefix}.calls_per_verdict"] = "ratio"
    units.update({
        "bench.self_s": "s",
        "trace.wall_s": "s",
        "trace.accounted_pct": "%",
        "trace.spans": "count",
        "trace.overhead.setup_s": "s",
        "trace.overhead.unit_pct": "%",
        "baseline.simulate_200_s": "s",
        "baseline.semantic_basis_200_s": "s",
        "baseline.semantic_calibrate_s": "s",
        "baseline.windowed_extrema_share_pct": "%",
        "baseline.run_episode_us_per_verdict": "us",
    })
    return units


BASELINE_SPANS = frozenset({
    "benchmark.simulate_episode",
    "robustness.semantic_basis_series",
    "robustness.windowed_extrema",
    "conformal.calibrate",
    "monitors.run_episode",
})


def baseline_metrics(tr: Tracer) -> dict[str, float]:
    """The hand-measured baselines of the project roadmap, from a light
    trace that wraps only :data:`BASELINE_SPANS`."""
    out: dict[str, float] = {}

    def per_call(name):
        return _ratio(tr.stat([name], "incl_s"), tr.stat([name], "calls"))

    out["baseline.simulate_200_s"] = 200 * per_call("benchmark.simulate_episode")
    out["baseline.semantic_basis_200_s"] = 200 * per_call("robustness.semantic_basis_series")
    spans = [i for i in tr.semantic_calibrate_spans if i >= 0]
    span_self = tr.span_self_times() if spans else None
    total = sum(tr.span_end[i] - tr.span_start[i] for i in spans)
    extrema = sum(tr.descendant_self(i, "robustness.windowed_extrema", span_self) for i in spans)
    out["baseline.semantic_calibrate_s"] = _ratio(total, len(spans))
    out["baseline.windowed_extrema_share_pct"] = _ratio(100.0 * extrema, total)
    out["baseline.run_episode_us_per_verdict"] = _ratio(
        1e6 * tr.stat(["monitors.run_episode"], "incl_s"), tr.run_episode_verdicts)
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, overhead_setup_s: float, overhead_unit_pct: float) -> dict[str, float]:
    """Per-layer numbers of one traced section (see :func:`metric_units`)."""
    out: dict[str, float] = {}
    by_layer = {layer: 0.0 for layer in LAYERS}
    bench = 0.0
    for nid, name in enumerate(tr.names):
        head = name.split(".", 1)[0]
        value = tr.self_s.get(nid, 0.0)
        if head == "bench":
            bench += value
        else:
            by_layer[head] += value
    for layer, value in by_layer.items():
        out[f"{layer}.self_s"] = value
    for prefix, names in SELF_AND_CALLS.items():
        out[f"{prefix}.self_s"] = tr.stat(names, "self_s")
        out[f"{prefix}.calls"] = tr.stat(names, "calls")
    for prefix, names in SELF_ONLY.items():
        out[f"{prefix}.self_s"] = tr.stat(names, "self_s")
    for prefix, names in CALLS_ONLY.items():
        out[f"{prefix}.calls"] = tr.stat(names, "calls")
    for metric, name in CLI_WALL.items():
        out[metric] = tr.stat([name], "incl_s")

    ratio = _ratio
    out["robustness.bases_per_episode"] = ratio(tr.basis_calls, len(tr.basis_keys))
    out["fragment.compiles_per_formula"] = ratio(
        tr.stat(SELF_AND_CALLS["fragment.compile"], "calls"), len(tr.compiled_formulas))
    out["conformal.rank_clamped"] = tr.rank_clamped
    for label in LABELS:
        out[f"monitors.verdicts.{label}"] = tr.labels[label]
    verdicts = sum(tr.labels.values())
    for prefix, name in PER_VERDICT.items():
        out[f"{prefix}.calls_per_verdict"] = ratio(tr.stat([name], "calls"), verdicts)

    wall = tr.stat(["bench.setup", "bench.work"], "incl_s")
    out["bench.self_s"] = bench
    out["trace.wall_s"] = wall
    out["trace.accounted_pct"] = ratio(100.0 * (bench + sum(by_layer.values())), wall)
    out["trace.spans"] = len(tr.span_start)
    out["trace.overhead.setup_s"] = overhead_setup_s
    out["trace.overhead.unit_pct"] = overhead_unit_pct

    return out
