"""The three benchmark workloads and the checks on their outputs.

Each workload has the same shape:

* ``setup`` builds every input from the workload seed (and, for ``stream``,
  calibrates and compiles); the runner times it several times;
* ``unit`` is one unit of the timed work; the runner repeats it for the
  requested number of seconds;
* ``probe`` runs after each unit: the next chunk of the fixed-size
  certification probe (``calibrate``, ``report``) and radius-query passes;
* ``finish`` computes coverage and certified-safe rate and checks the
  outputs against results rebuilt from the public API.

All library calls go through module attributes (``conformal.calibrate``,
never a name imported at load time), so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path

import importlib

import hostclock
import numpy as np
from hostclock import HostClock

from ptmon import benchmark, cli, conformal, fragment, logic, metrics, monitors

# ``ptmon.robustness`` is also the name of a function the package exports.
robustness = importlib.import_module("ptmon.robustness")

ALPHA = 0.1
NOISE_SCALE = 0.2
OBSERVER_FORMULA = "G[0,16] p_f"
# The formula set is part of the benchmark's definition, like a fixed query
# set: the same for every workload seed, which varies episodes and noise.
FORMULA_SEED = 0
PERCENT_FIELDS = ("csr", "prec", "fpr", "gt_safe", "coverage")
QUERY_PASSES = 5  # radius-query passes per unit


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload.

    Episodes have ``T + 1`` steps; ``n_train`` feed the sigma estimate,
    ``n_calib`` the calibrations and ``n_test`` the certification and
    coverage. The probe streams ``probe_episodes`` test episodes for
    ``probe_formulas`` formulas, ``probe_chunk`` episodes after each unit;
    its valid steps (and the stream workload's, via ``min_units`` episodes)
    must reach 1000 so that p99 leaves ten samples beyond it. Bounds are
    also checked against ``run_episode`` on ``check_episodes`` episodes. A
    traced run does ``trace_units`` units.
    """

    T: int
    n_train: int
    n_calib: int
    n_test: int
    n_formulas: int
    probe_formulas: int
    probe_episodes: int
    probe_chunk: int
    check_episodes: int
    min_units: int
    trace_units: int


FULL = {
    "calibrate": Sizes(T=40, n_train=40, n_calib=200, n_test=200, n_formulas=20,
                       probe_formulas=5, probe_episodes=100, probe_chunk=8, check_episodes=3,
                       min_units=2, trace_units=1),
    "stream": Sizes(T=60, n_train=40, n_calib=200, n_test=100, n_formulas=20,
                    probe_formulas=0, probe_episodes=0, probe_chunk=0, check_episodes=3,
                    min_units=23, trace_units=8),
    "report": Sizes(T=60, n_train=40, n_calib=200, n_test=100, n_formulas=6,
                    probe_formulas=6, probe_episodes=50, probe_chunk=15, check_episodes=3,
                    min_units=1, trace_units=1),
}

SMOKE = {
    "calibrate": replace(FULL["calibrate"], n_train=4, n_calib=12, n_test=6, n_formulas=4,
                         probe_formulas=2, probe_episodes=2, probe_chunk=1, check_episodes=1,
                         min_units=1),
    "stream": replace(FULL["stream"], T=30, n_train=4, n_calib=12, n_test=4, n_formulas=3,
                      check_episodes=1, min_units=2, trace_units=2),
    "report": replace(FULL["report"], T=30, n_train=4, n_calib=12, n_test=4, n_formulas=2,
                      probe_formulas=2, probe_episodes=2, probe_chunk=1, check_episodes=1),
}


class Recorder:
    """Counts attempted and failed operations and keeps timing samples.

    Timed samples keep their interval on the :class:`HostClock`, so each can
    be scaled by the host's speed during it (:meth:`scaled`).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        self.notes: dict[str, object] = {}
        self.clock = HostClock()

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def now(self) -> float:
        return self.clock.now()

    def add(self, name: str, value: float, interval: tuple[float, float] | None = None) -> None:
        self.samples.setdefault(name, []).append(value)
        if interval is not None:
            self.intervals.setdefault(name, []).append(interval)

    def add_since(self, name: str, t0: float, scale: float = 1.0) -> None:
        """Record ``(now - t0) * scale`` with its interval."""
        t1 = self.now()
        self.add(name, (t1 - t0) * scale, (t0, t1))

    def scaled(self, name: str) -> np.ndarray:
        """The samples of ``name``, each divided by the host's slowdown
        during its interval."""
        spans = np.asarray(self.intervals[name])
        return np.asarray(self.samples[name]) / self.clock.slowdown(spans[:, 0], spans[:, 1])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def dictionary():
    names = benchmark.PREDICATE_NAMES
    return fragment.build_depth1_dictionary(len(names), benchmark.DEFAULT_INTERVALS, names)


def formula_texts(rng: np.random.Generator, d, n: int) -> list[str]:
    """``n`` distinct random and/or combinations of 1 to 6 dictionary atoms.

    Distinct, because run_episode keys verdicts by formula text: a formula
    listed twice makes ``ptmon report`` fail on mismatched shapes.
    """
    out: list[str] = []
    while len(out) < n:
        nodes = [d.atoms[int(rng.integers(d.r))] for _ in range(int(rng.integers(1, 7)))]
        while len(nodes) > 1:
            i, j = rng.choice(len(nodes), size=2, replace=False)
            merged = (logic.And if rng.random() < 0.5 else logic.Or)(nodes[i], nodes[j])
            nodes = [x for k, x in enumerate(nodes) if k not in (i, j)] + [merged]
        text = logic.format_formula(nodes[0])
        if text not in out:
            out.append(text)
    return out


@dataclass
class Inputs:
    d: object
    train: list
    calib: list
    test: list
    formulas: list
    stub_sem: object
    stub_pred: object
    sizes: Sizes


def make_inputs(seed: int, sizes: Sizes) -> Inputs:
    d = dictionary()
    cfg = benchmark.CrossroadConfig(T=sizes.T, seed=seed)
    base = 1_000_000 * (seed + 1)
    train = [benchmark.simulate_episode(cfg, base + i) for i in range(sizes.n_train)]
    calib = [benchmark.simulate_episode(cfg, base + 100_000 + i) for i in range(sizes.n_calib)]
    test = [benchmark.simulate_episode(cfg, base + 200_000 + i) for i in range(sizes.n_test)]
    names = benchmark.PREDICATE_NAMES
    texts = formula_texts(np.random.default_rng(FORMULA_SEED), d, sizes.n_formulas)
    formulas = [logic.parse_formula(t, names) for t in texts]
    stub_sem = benchmark.PredictorStub(mode="semantic", scale=NOISE_SCALE, seed=seed, dictionary=d)
    stub_pred = benchmark.PredictorStub(mode="predicates", scale=NOISE_SCALE, seed=seed + 1)
    return Inputs(d, train, calib, test, formulas, stub_sem, stub_pred, sizes)


# ---------------------------------------------------------------------------
# Streaming certification, shared by all three workloads
# ---------------------------------------------------------------------------


@dataclass
class Bundle:
    """Semantic, rolling and observer monitors ready to certify ``formulas``."""

    formulas: list
    sem: object
    roll: object
    obs: list  # observer specialised to each formula
    sem_dec: list
    roll_dec: list
    m: int
    k_max: int


def make_bundle(sem, roll, obs_specs, formulas) -> Bundle:
    """Compile the decoders; ``obs_specs`` is the observer specialised to
    each formula."""
    sem_dec = [fragment.compile_semantic_decoder(f, sem.dictionary) for f in formulas]
    roll_dec = [fragment.compile_history_decoder(f, roll.m, roll.k_max) for f in formulas]
    return Bundle(list(formulas), sem, roll, list(obs_specs), sem_dec, roll_dec, roll.m, roll.k_max)


def stream_episode(b: Bundle, sem_pred: np.ndarray, mu_pred: np.ndarray, rec: Recorder) -> np.ndarray:
    """Feed one episode step by step to the three monitors.

    Returns the lower bounds, shape ``(3, formulas, valid steps)`` for
    (semantic, rolling, observer). Per-step latencies past warm-up go into
    ``rec`` samples; each monitor-step is one attempted operation.
    """
    k, F = b.k_max, len(b.formulas)
    T = mu_pred.shape[1] - 1
    out = np.empty((3, F, T - k + 1))
    buf_r = monitors.RollingBuffer(b.m, k)
    buf_o = monitors.RollingBuffer(b.m, k)
    sem_items = list(zip(b.formulas, b.sem_dec))
    roll_items = list(zip(b.formulas, b.roll_dec))
    obs_items = list(zip(b.formulas, b.obs))
    now = rec.now
    start = now()
    for t in range(T + 1):
        i = t - k
        t0 = now()
        if i >= 0:
            basis = robustness.BasisVector(robustness.BasisKind.SEMANTIC, sem_pred[:, i], t)
            for j, (f, dec) in enumerate(sem_items):
                out[0, j, i] = monitors.semantic_certify(basis, b.sem, f, dec).lower_bound
        t1 = now()
        monitors.rolling_step(buf_r, mu_pred[:, t])
        verdicts = [monitors.rolling_certify(buf_r, b.roll, f, dec) for f, dec in roll_items]
        t2 = now()
        monitors.rolling_step(buf_o, mu_pred[:, t])
        obs_verdicts = [monitors.observer_certify(buf_o, mon, f) for f, mon in obs_items]
        t3 = now()
        if i >= 0:
            out[1, :, i] = [v.lower_bound for v in verdicts]
            out[2, :, i] = [v.lower_bound for v in obs_verdicts]
            rec.add("semantic_step_us", 1e6 * (t1 - t0), (t0, t1))
            rec.add("rolling_step_us", 1e6 * (t2 - t1), (t1, t2))
            rec.add("observer_step_us", 1e6 * (t3 - t2), (t2, t3))
    rec.add_since("stream_s", start)
    rec.add("stream_verdicts", out.size)
    rec.op(3 * (T + 1) - k)
    return out


def batch_bounds(b: Bundle, sem_pred: np.ndarray, mu_pred: np.ndarray) -> np.ndarray:
    """The same bounds rebuilt at once: shrink the predicted basis and decode
    every column with :func:`ptmon.fragment.decode_series`."""
    history = robustness.predicate_history_series(robustness.Episode(mu=mu_pred), b.k_max)
    out = np.empty((3, len(b.formulas), history.shape[1]))
    sem_low = sem_pred - b.sem.radius * b.sem.sigma[:, None]
    roll_low = history - (b.roll.radius * b.roll.sigma)[:, None]
    for j in range(len(b.formulas)):
        out[0, j] = fragment.decode_series(b.sem_dec[j], sem_low)
        out[1, j] = fragment.decode_series(b.roll_dec[j], roll_low)
        obs = b.obs[j]
        out[2, j] = fragment.decode_series(b.roll_dec[j], history - (obs.coord_radii * obs.sigma)[:, None])
    return out


def truth_series(formulas, ep, k_max: int) -> list[np.ndarray]:
    out = []
    for f in formulas:
        rho = robustness.robustness_series(f, ep)
        out.append(rho[k_max - logic.horizon(f):])
    return out


def bundle_quality(b: Bundle, preds, truths, extra_sem=()) -> tuple[float, float]:
    """Mean coverage and certified-safe rate (percent) over report rows,
    one row per monitor and formula, scored on every test episode with
    :func:`ptmon.metrics.compute_metrics`.

    ``preds`` is a list of (semantic, per-step) predictions, ``truths`` the
    matching :func:`truth_series` lists. ``extra_sem`` adds semantic
    monitors (the calibrate workload's level-1 monitor) that share the
    bundle's decoders.
    """
    bounds = [batch_bounds(b, s, mu) for s, mu in preds]
    cov, csr = [], []
    for j in range(len(b.formulas)):
        ep_truths = [t[j] for t in truths]
        rows = [(mon, [bd[kind, j] for bd in bounds]) for kind, mon in ((0, b.sem), (1, b.roll), (2, b.obs[j]))]
        for mon in extra_sem:
            lbs = [fragment.decode_series(b.sem_dec[j], s - mon.radius * mon.sigma[:, None]) for s, _ in preds]
            rows.append((mon, lbs))
        for mon, lbs in rows:
            summary = metrics.compute_metrics(lbs, ep_truths, mon.level, b.k_max)
            cov.append(summary["coverage"])
            csr.append(summary["csr"])
    return float(np.mean(cov)), float(np.mean(csr))


def check_stream(b: Bundle, streamed, preds, episodes, stubs, rec: Recorder, n_run_episode: int) -> None:
    """Streamed bounds must equal the batch rebuild bit for bit, and on the
    first ``n_run_episode`` episodes also ``run_episode(...).lower_bounds``."""
    for i, (bounds, (s, mu)) in enumerate(zip(streamed, preds)):
        rebuilt = batch_bounds(b, s, mu)
        rec.check(np.array_equal(bounds, rebuilt), f"episode {i}: streamed bounds differ from decode_series")
    sem_stub, pred_stub = stubs
    mons = ((0, b.sem, sem_stub), (1, b.roll, pred_stub))
    for i in range(min(n_run_episode, len(streamed))):
        ep = episodes[i]
        for kind, mon, stub in mons:
            res = monitors.run_episode(ep, stub, mon, b.formulas)
            for j, f in enumerate(b.formulas):
                lb = res.lower_bounds(logic.format_formula(f))
                rec.check(np.array_equal(lb, streamed[i][kind, j]), f"episode {i}: run_episode differs ({mon.kind})")
        for j, f in enumerate(b.formulas):
            # The observer is calibrated per formula: run it with its own
            # specialisation, as run_episode does for a formula it was fitted to.
            res = monitors.run_episode(ep, pred_stub, b.obs[j], [f])
            lb = res.lower_bounds(logic.format_formula(f))
            rec.check(np.array_equal(lb, streamed[i][2, j]), f"episode {i}: run_episode differs (observer)")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())
    return h.hexdigest()


def summarise(rec: Recorder, out: dict) -> None:
    """The timing metrics, from samples scaled by the host's slowdown during
    each (see :mod:`hostclock`): means (``setup_s``: the median of the
    set-ups; ``verdicts_per_s``: verdicts over summed times).

    The run record gets the unscaled values, the run's mean slowdown and
    the unscaled step-latency medians and p99s. A p99 is not a metric: it
    is set by the host's brief stalls, and its spread between runs stayed
    above 0.3 scaled or not.
    """
    measured: dict[str, float] = {}
    # report: verdicts of the ptmon report command; others: streamed verdicts.
    kind = "report" if "report_s" in rec.samples else "stream"
    for target, get in ((measured, lambda n: np.asarray(rec.samples[n])), (out, rec.scaled)):
        target["setup_s"] = float(np.median(get("setup_s")))
        for name in ("semantic", "rolling", "observer"):
            target[f"{name}_step_us_mean"] = float(get(f"{name}_step_us").mean())
        target["radius_query_us"] = float(get("radius_query_us").mean())
        target["calibrate_s"] = float(get("calibrate_s").mean())
        target["verdicts_per_s"] = float(sum(rec.samples[f"{kind}_verdicts"]) / get(f"{kind}_s").sum())
    for name in ("semantic", "rolling", "observer"):
        steps = rec.samples[f"{name}_step_us"]
        measured[f"{name}_step_us_p50"] = float(np.median(steps))
        measured[f"{name}_step_us_p99"] = float(np.quantile(steps, 0.99))
    clock = rec.clock
    rec.notes["host_slowdown"] = float(np.mean(clock.tick_s)) / hostclock.REFERENCE_S
    rec.notes["ticks"] = len(clock.tick_s)
    rec.notes["measured"] = measured


def calibrate_monitors(inp: Inputs, sem_levels, rec: Recorder):
    """Estimate sigma on the train slice, then calibrate fragment-wide
    semantic monitors (one per level), a level-2 rolling ``(m, K_max)``
    monitor and the observer for :data:`OBSERVER_FORMULA`; time it all."""
    d = inp.d
    t0 = rec.now()
    sigma = conformal.estimate_sigma(inp.train, inp.stub_sem, d)
    sems = [
        conformal.calibrate(inp.calib, inp.stub_sem, conformal.ScoreConfig(sigma, ALPHA, level), d)
        for level in sem_levels
    ]
    ones = np.ones(d.m * (d.K_max + 1))
    roll = conformal.calibrate(inp.calib, inp.stub_pred, conformal.ScoreConfig(ones, ALPHA, 2), (d.m, d.K_max))
    f_obs = logic.parse_formula(OBSERVER_FORMULA, benchmark.PREDICATE_NAMES)
    obs = conformal.observer_calibrate(inp.calib, inp.stub_pred, f_obs, ALPHA, k_max=d.K_max)
    rec.add_since("calibrate_s", t0)
    rec.op(len(sem_levels) + 3)
    return sems, roll, obs


def time_queries(mons, formulas, rec: Recorder, passes: int = 1) -> list:
    """Specialise every monitor to every formula, ``passes`` times.

    Each pass adds one sample, its mean time per ``for_formula`` call, so
    every sample covers the same mix of supports. Returns the specialised
    monitors, monitor-major.
    """
    for _ in range(passes):
        t0 = rec.now()
        specs = [mon.for_formula(f) for mon in mons for f in formulas]
        rec.add_since("radius_query_us", t0, 1e6 / len(specs))
    rec.op(len(specs))
    return specs


def stream_probe(st, rec: Recorder, n: int | None) -> None:
    """Stream the next ``n`` (all if ``None``) of the probe's episodes.

    The calibrate and report workloads call this between units, so the
    probe's latency samples spread over the whole run.
    """
    todo = st["todo"]
    take = len(todo) if n is None else min(n, len(todo))
    for s, mu in todo[:take]:
        st["streamed"].append(stream_episode(st["bundle"], s, mu, rec))
    del todo[:take]


# ---------------------------------------------------------------------------
# Workload: calibrate
# ---------------------------------------------------------------------------


class Calibrate:
    """Calibration on in-memory episodes, then for_formula from the cache."""

    name = "calibrate"

    def setup(self, seed: int, sizes: Sizes, rec: Recorder):
        inp = make_inputs(seed, sizes)
        preds = [
            (np.asarray(inp.stub_sem.predict(ep)), np.asarray(inp.stub_pred.predict(ep)))
            for ep in inp.test
        ]
        return {"inp": inp, "preds": preds, "radii": None, "streamed": []}

    def unit(self, st, rec: Recorder) -> None:
        inp = st["inp"]
        (sem1, sem2), roll, obs = calibrate_monitors(inp, (1, 2), rec)
        mons = (sem1, sem2, roll, obs)
        specs = time_queries(mons, inp.formulas, rec, QUERY_PASSES)
        radii = [m.radius for m in mons + tuple(specs)]
        if st["radii"] is None:
            st["radii"] = radii
            st["mons"] = mons
        else:
            rec.check(radii == st["radii"], "radii differ between repeated calibrations")

    def probe(self, st, rec: Recorder, n: int | None) -> None:
        if "bundle" not in st:
            sem1, sem2, roll, obs = st["mons"]
            formulas = st["inp"].formulas[: st["inp"].sizes.probe_formulas]
            st["bundle"] = make_bundle(sem2, roll, [obs.for_formula(f) for f in formulas], formulas)
            st["todo"] = st["preds"][: st["inp"].sizes.probe_episodes]
        stream_probe(st, rec, n)

    def finish(self, st, rec: Recorder, out: dict) -> str:
        inp, b = st["inp"], st["bundle"]
        n = len(st["streamed"])
        check_radii(st["mons"], inp.formulas, rec)
        check_stream(b, st["streamed"], st["preds"][:n], inp.test[:n], (inp.stub_sem, inp.stub_pred), rec,
                     inp.sizes.check_episodes)
        truths = [truth_series(b.formulas, ep, b.k_max) for ep in inp.test]
        out["coverage_pct"], out["csr_pct"] = bundle_quality(b, st["preds"], truths, extra_sem=st["mons"][:1])
        return digest(st["radii"], *st["streamed"])


def check_radii(mons, formulas, rec: Recorder) -> None:
    """Each radius is the split quantile of the cached row maxima over its
    support, and a fragment-wide radius bounds every specialised one."""
    for mon in mons:
        cache = mon.cache.matrix
        if mon.kind != "observer":
            full = conformal.split_quantile(cache.max(axis=1), mon.alpha)
            rec.check(mon.radius == full, f"{mon.kind}: fragment-wide radius is not the quantile")
        for f in formulas:
            spec = mon.for_formula(f)
            idx = sorted(spec.support)
            if mon.kind == "observer":
                alpha_c = mon.alpha / len(idx)
                want = max(conformal.split_quantile(cache[:, c], alpha_c) for c in idx)
            else:
                want = conformal.split_quantile(cache[:, idx].max(axis=1), mon.alpha)
                rec.check(spec.radius <= mon.radius, f"{mon.kind}: specialised radius above fragment-wide")
            rec.check(spec.radius == want, f"{mon.kind}: radius for {logic.format_formula(f)} is not the quantile")


# ---------------------------------------------------------------------------
# Workload: stream
# ---------------------------------------------------------------------------


class Stream:
    """Closed loop, one client: each step's prediction goes to the three
    monitors, and the next step is sent once every verdict is back."""

    name = "stream"

    def setup(self, seed: int, sizes: Sizes, rec: Recorder):
        inp = make_inputs(seed, sizes)
        (sem,), roll, obs = calibrate_monitors(inp, (2,), rec)
        b = make_bundle(sem, roll, time_queries([obs], inp.formulas, rec), inp.formulas)
        preds = [
            (np.asarray(inp.stub_sem.predict(ep)), np.asarray(inp.stub_pred.predict(ep)))
            for ep in inp.test
        ]
        return {"inp": inp, "bundle": b, "obs": [obs], "preds": preds, "streamed": [], "next": 0}

    def unit(self, st, rec: Recorder) -> None:
        i = st["next"] % len(st["preds"])
        s, mu = st["preds"][i]
        bounds = stream_episode(st["bundle"], s, mu, rec)
        if st["next"] < len(st["preds"]):
            st["streamed"].append(bounds)
        else:
            rec.check(np.array_equal(bounds, st["streamed"][i]), f"episode {i}: bounds changed on replay")
        st["next"] += 1

    def probe(self, st, rec: Recorder, n: int | None) -> None:
        # The units are the stream; between them, time the observer's
        # specialisations again so radius-query samples span the run.
        time_queries(st["obs"], st["inp"].formulas, rec, QUERY_PASSES)

    def finish(self, st, rec: Recorder, out: dict) -> str:
        inp, b = st["inp"], st["bundle"]
        n = len(st["streamed"])
        check_stream(b, st["streamed"], st["preds"][:n], inp.test[:n], (inp.stub_sem, inp.stub_pred), rec,
                     inp.sizes.check_episodes)
        truths = [truth_series(b.formulas, ep, b.k_max) for ep in inp.test]
        out["coverage_pct"], out["csr_pct"] = bundle_quality(b, st["preds"], truths)
        radii = [b.sem.radius, b.roll.radius] + [m.radius for m in b.obs]
        return digest(radii, *st["streamed"][: inp.sizes.min_units])


# ---------------------------------------------------------------------------
# Workload: report
# ---------------------------------------------------------------------------


class Report:
    """The CLI pipeline, run in-process: simulate, calibrate x3, report."""

    name = "report"

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.setups = 0

    def _cli(self, argv: list[str], rec: Recorder) -> None:
        """Run one ``ptmon`` command in-process."""
        rec.op()
        sink = StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            rec.fail(f"ptmon {argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}")

    def setup(self, seed: int, sizes: Sizes, rec: Recorder):
        self.setups += 1
        work = self.workdir / f"setup{self.setups}"
        work.mkdir(parents=True)
        data = work / "data"
        (work / "sim.txt").write_text(f"T = {sizes.T}\n")
        self._cli(["simulate", "--config", str(work / "sim.txt"), "--seed", str(seed),
                   "--counts", f"{sizes.n_train},{sizes.n_calib},{sizes.n_test}", "--out", str(data)], rec)
        d = dictionary()
        texts = formula_texts(np.random.default_rng(FORMULA_SEED), d, sizes.n_formulas)
        (work / "formulas.txt").write_text("\n".join(texts) + "\n")
        (work / "noise.txt").write_text(f"scale = {NOISE_SCALE}\nseed = {seed}\n")
        return {"work": work, "data": data, "texts": texts, "rows": None, "sizes": sizes}

    def unit(self, st, rec: Recorder) -> None:
        work, data = st["work"], str(st["data"])
        noise = str(work / "noise.txt")
        models = work / "models"
        models.mkdir(exist_ok=True)
        paths = [str(models / n) for n in ("sem.json", "roll.json", "obs.json")]
        common = ["--dataset", data, "--noise", noise]
        calibrations = [
            ["--monitor", "semantic", "--scope", "fragment", "--sigma", "auto", "--out", paths[0]],
            ["--monitor", "rolling", "--scope", "fragment", "--out", paths[1]],
            ["--monitor", "observer", "--formula", OBSERVER_FORMULA, "--out", paths[2]],
        ]
        t0 = rec.now()
        for argv in calibrations:
            self._cli(["calibrate", *common, *argv], rec)
        rec.add_since("calibrate_s", t0)
        out_csv = work / "report.csv"
        t0 = rec.now()
        self._cli(["report", "--models", ",".join(paths), "--dataset", data,
                   "--formulas", str(work / "formulas.txt"), "--out", str(out_csv)], rec)
        rec.add_since("report_s", t0)
        rows = json.loads(out_csv.with_suffix(".json").read_text())
        sizes = st["sizes"]
        verdicts = len(rows) * sizes.n_test * (sizes.T - dictionary().K_max + 1)
        rec.add("report_verdicts", verdicts)
        check_report(out_csv, rows, len(st["texts"]), rec)
        if st["rows"] is None:
            st["rows"] = rows
        else:
            rec.check(rows == st["rows"], "report rows differ between repeated runs")

    def probe(self, st, rec: Recorder, n: int | None) -> None:
        if "bundle" not in st:
            self._start_probe(st, rec)
        time_queries(st["models"], st["bundle"].formulas, rec, QUERY_PASSES)
        stream_probe(st, rec, n)

    def _start_probe(self, st, rec: Recorder) -> None:
        """Load the models the CLI wrote, specialise them to the formulas
        from their score caches, and predict the probe's test episodes."""
        models = st["work"] / "models"
        sem, roll, obs = (conformal.load_monitor(models / n) for n in ("sem.json", "roll.json", "obs.json"))
        sizes = st["sizes"]
        names = benchmark.PREDICATE_NAMES
        formulas = [logic.parse_formula(t, names) for t in st["texts"][: sizes.probe_formulas]]
        specs = time_queries([sem, roll, obs], formulas, rec)
        b = make_bundle(sem, roll, specs[2 * len(formulas):], formulas)
        st["models"] = [sem, roll, obs]
        test = benchmark.load_split(st["data"], "test")[: sizes.probe_episodes]
        stub_sem = benchmark.stub_from_json(sem.predictor_config, dictionary=sem.dictionary)
        stub_pred = benchmark.stub_from_json(roll.predictor_config)
        preds = [(np.asarray(stub_sem.predict(ep)), np.asarray(stub_pred.predict(ep))) for ep in test]
        st.update(bundle=b, probe=test, preds=preds, todo=list(preds), stubs=(stub_sem, stub_pred), streamed=[])

    def finish(self, st, rec: Recorder, out: dict) -> str:
        check_stream(st["bundle"], st["streamed"], st["preds"], st["probe"], st["stubs"], rec,
                     st["sizes"].check_episodes)
        rows = st["rows"]
        out["coverage_pct"] = float(np.mean([r["coverage"] for r in rows]))
        out["csr_pct"] = float(np.mean([r["csr"] for r in rows]))
        shutil.rmtree(self.workdir, ignore_errors=True)
        values = [[r["q_phi"]] + [r[k] if r[k] is not None else -1.0 for k in PERCENT_FIELDS] for r in rows]
        return digest(values, *st["streamed"])


def check_report(out_csv: Path, rows: list[dict], n_formulas: int, rec: Recorder) -> None:
    """The CSV rows must equal the JSON sidecar rows, one per model and formula."""
    with open(out_csv, newline="") as fh:
        table = list(csv.DictReader(fh))
    rec.check(len(rows) == 3 * n_formulas, f"report has {len(rows)} rows, expected {3 * n_formulas}")
    rec.check(len(table) == len(rows), "CSV and JSON row counts differ")
    for got, want in zip(table, rows):
        expected = {
            "formula": want["formula"],
            "monitor": want["monitor"],
            "kind": want["kind"],
            "level": str(want["level"]),
            "q_phi": f"{want['q_phi']:.6g}",
            **{k: "" if want[k] is None else f"{want[k]:.1f}" for k in PERCENT_FIELDS},
        }
        rec.check(got == expected, f"CSV row {got} differs from JSON row {want}")
