"""ptmon benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``calibrate`` -- sigma estimation and four calibrations on in-memory
  crossroad episodes, then ``for_formula`` from the score cache;
* ``stream`` -- closed loop, one client: every step goes to a semantic, a
  rolling and an observer monitor, the next step once all verdicts are back;
* ``report`` -- the ``ptmon`` CLI in-process: simulate, calibrate x3, report.

Every workload emits every end-to-end metric (``calibrate`` and ``report``
run a fixed certification probe for the step latencies) and checks its
outputs. Timings are scaled by the host's speed (see ``hostclock.py``).
The library comes from ``src/`` of the checkout; the workload seed only
shapes the generated inputs. The last line of standard output is the result object; the line
before it is the run record (machine, versions, commit, seed, input sizes,
output digest), also written with the raw samples under ``.perfbench_out/``.

``--trace 1`` wraps every public function of the ``ptmon`` modules (see
``tracer.py``), runs set-up and a fixed amount of work traced, then the same
work untraced for the overhead, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOADS = ("calibrate", "stream", "report")


def load_library():
    """Import ``ptmon`` from the checkout's ``src/``, and only from there."""
    src = ROOT / "src"
    if not (src / "ptmon" / "__init__.py").is_file():
        raise SystemExit(f"error: no ptmon sources under {src}")
    sys.path.insert(0, str(src))
    import ptmon

    if Path(ptmon.__file__).resolve().parent != (src / "ptmon").resolve():
        raise SystemExit(f"error: imported ptmon from {ptmon.__file__}, not from {src}")
    return ptmon


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def make_workload(name: str):
    import workloads as wl

    if name == "calibrate":
        return wl.Calibrate()
    if name == "stream":
        return wl.Stream()
    return wl.Report(OUT_DIR / f"report-work-{os.getpid()}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def run_end_to_end(workload, seed: int, seconds: float, sizes, rec) -> tuple[dict, str]:
    """Set up, repeat units (each followed by a probe chunk) for ``seconds``,
    set up again ``SETUP_REPEATS - 1`` times, then finish and check.

    The set-ups come before and after the units so that their samples, like
    the units', meet the host at different moments of the run. The host
    clock ticks throughout the timed part.
    """
    import workloads as wl

    def setup():
        t0 = rec.now()
        st = workload.setup(seed, sizes, rec)
        rec.add_since("setup_s", t0)
        return st

    rec.clock.start()
    try:
        st = setup()
        start = time.perf_counter()
        units = 0
        while units < sizes.min_units or time.perf_counter() - start < seconds:
            workload.unit(st, rec)
            workload.probe(st, rec, sizes.probe_chunk)
            units += 1
        for _ in range(SETUP_REPEATS - 1):
            setup()
        workload.probe(st, rec, None)
    finally:
        rec.clock.stop()
    out: dict[str, float] = {}
    digest = workload.finish(st, rec, out)
    wl.summarise(rec, out)
    out["peak_rss_mb"] = peak_rss_mb()
    rec.samples["units"] = [units]
    return out, digest


def traced_pass(workload, seed: int, sizes, rec, tracer):
    """Set-up, ``trace_units`` units and the probe, under ``tracer``."""
    import importlib

    import ptmon
    import tracer as tr_mod

    tracer.install([importlib.import_module(f"ptmon.{name}") for name in tr_mod.LAYERS] + [ptmon])
    units = []
    try:
        with tracer.span("bench.setup"):
            st, setup_s = timed(workload.setup, seed, sizes, rec)
        with tracer.span("bench.work"):
            for _ in range(sizes.trace_units):
                units.append(timed(workload.unit, st, rec)[1])
                workload.probe(st, rec, sizes.probe_chunk)
            workload.probe(st, rec, None)
    finally:
        tracer.uninstall()
    return st, setup_s, units


def run_traced(workload, seed: int, seconds: float, sizes, rec) -> tuple[dict, str]:
    """A light trace for the roadmap baselines, the full trace for the
    per-layer numbers, then plain units for the tracing overhead."""
    import numpy as np
    import tracer as tr_mod

    start = time.perf_counter()
    light = tr_mod.Tracer(only=tr_mod.BASELINE_SPANS)
    _, setup_light, _ = traced_pass(workload, seed, sizes, rec, light)
    full = tr_mod.Tracer()
    st, setup_full, traced_units = traced_pass(workload, seed, sizes, rec, full)
    plain_units = []
    while len(plain_units) < 2 or time.perf_counter() - start < seconds:
        plain_units.append(timed(workload.unit, st, rec)[1])
    digest = workload.finish(st, rec, {})
    overhead_pct = 100.0 * (np.median(traced_units) / np.median(plain_units) - 1.0)
    out = tr_mod.layer_metrics(full, setup_full - setup_light, float(overhead_pct))
    out.update(tr_mod.baseline_metrics(light))
    OUT_DIR.mkdir(exist_ok=True)
    full.save(OUT_DIR / f"spans-{workload.name}-seed{seed}.npz")
    rec.samples["traced_unit_s"] = traced_units
    rec.samples["plain_unit_s"] = plain_units
    return out, digest


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Run one workload; return (result object, run record)."""
    import numpy as np
    import tracer as tr_mod
    import workloads as wl

    sizes = sizes or wl.FULL[name]
    rec = wl.Recorder()
    workload = make_workload(name)
    run = run_traced if trace else run_end_to_end
    try:
        values, digest = run(workload, seed, seconds, sizes, rec)
    except Exception as exc:  # the run must still report that it failed
        rec.op()
        rec.fail(f"{type(exc).__name__}: {exc}")
        values, digest = {}, None
    units = tr_mod.metric_units() if trace else END_TO_END_UNITS
    result = {
        "correct": rec.failed == 0,
        "attempted": max(rec.attempted, 1),
        "failed": rec.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "sizes": sizes.__dict__,
        "digest": digest,
        "failures": rec.failures,
        **rec.notes,
        "samples": {k: len(v) for k, v in rec.samples.items()},
    }
    return result, {**record, "raw": {**rec.samples, "ticks": rec.clock.tick_s}}


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "calibrate_s": "s",
    "radius_query_us": "us",
    "semantic_step_us_mean": "us",
    "rolling_step_us_mean": "us",
    "observer_step_us_mean": "us",
    "verdicts_per_s": "1/s",
    "coverage_pct": "%",
    "csr_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "record": record}))
    record.pop("raw")
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
