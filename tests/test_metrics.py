import csv
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_compute_metrics, random_episode
import ptmon.metrics as metrics_module
import ptmon.monitors as monitors
from ptmon.benchmark import PredictorStub
import ptmon.conformal as conformal
from ptmon.conformal import CalibratedMonitor, ScoreConfig, calibrate, observer_calibrate, sample_level2_time
from ptmon.fragment import build_depth1_dictionary
from ptmon.logic import Predicate, format_formula, parse_formula
from ptmon.metrics import (
    ReportRow,
    SweepRow,
    compute_metrics,
    evaluate_monitor,
    evaluate_monitors,
    horizon_sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)

LB = [np.array([0.5, -0.1, 0.0]), np.array([-1.0, 0.3, 0.2])]
RHO = [np.array([1.0, 0.2, -0.3]), np.array([-0.5, 0.4, 0.1])]


class TestComputeMetrics:
    def test_pooled_rates_oracle(self):
        got = compute_metrics(LB, RHO, level=1, k_max=2)
        assert got["csr"] == pytest.approx(100 * 4 / 6)
        assert got["gt_safe"] == pytest.approx(100 * 4 / 6)
        assert got["prec"] == pytest.approx(100 * 3 / 4)
        assert got["fpr"] == pytest.approx(100 * 1 / 2)
        # both episodes contain one overshoot (lb > rho), so neither is
        # covered in the all-times sense
        assert got["coverage"] == 0.0

    def test_all_safe_all_true(self):
        lb = [np.array([0.1, 0.2])]
        rho = [np.array([0.5, 0.6])]
        got = compute_metrics(lb, rho, level=1, k_max=0)
        assert got["csr"] == 100.0
        assert got["prec"] == 100.0
        assert got["fpr"] is None  # nothing truly unsafe
        assert got["coverage"] == 100.0

    def test_none_safe_blanks_precision(self):
        lb = [np.array([-0.1, -0.2])]
        rho = [np.array([0.5, -0.6])]
        got = compute_metrics(lb, rho, level=1, k_max=0)
        assert got["csr"] == 0.0
        assert got["prec"] is None

    def test_level2_coverage_uses_sampled_time(self):
        k_max, T = 2, 4
        # lb exceeds rho only at valid index 0; an episode is uncovered
        # exactly when the sampled time lands there.
        lb = [np.array([1.0, 0.0, 0.0])] * 6
        rho = [np.array([0.0, 1.0, 1.0])] * 6
        got = compute_metrics(lb, rho, level=2, k_max=k_max, coverage_seed=13)
        uncovered = sum(
            sample_level2_time(13, i, k_max, T) - k_max == 0 for i in range(6)
        )
        assert got["coverage"] == pytest.approx(100 * (6 - uncovered) / 6)

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            compute_metrics([np.zeros(3)], [np.zeros(4)], level=1, k_max=0)
        with pytest.raises(ValueError):
            compute_metrics([], [], level=1, k_max=0)
        with pytest.raises(ValueError):
            compute_metrics([np.zeros(3)], [np.zeros(3), np.zeros(3)], level=1, k_max=0)

    @pytest.mark.parametrize("level", [1, 2])
    def test_episodes_must_be_one_dimensional(self, level):
        pair = np.zeros((2, 3))
        with pytest.raises(ValueError, match="1-D"):
            compute_metrics([pair], [pair], level=level, k_max=0)
        with pytest.raises(ValueError, match="1-D"):
            compute_metrics([np.zeros(3), np.float64(0.5)], [np.zeros(3), np.float64(0.5)], level=level, k_max=0)

    @pytest.mark.parametrize("level", [1, 2])
    def test_no_valid_time_at_all_raises(self, level):
        with pytest.raises(ValueError, match="no episode has a valid time"):
            compute_metrics([np.zeros(0), np.zeros(0)], [np.zeros(0), np.zeros(0)], level=level, k_max=3)

    def test_level1_empty_episode_is_vacuously_covered(self):
        # episode 0 overshoots, episode 1 has no valid time, episode 2 holds
        lb = [np.array([1.0, 0.0]), np.zeros(0), np.array([-1.0])]
        rho = [np.array([0.0, 0.0]), np.zeros(0), np.array([-1.0])]
        got = compute_metrics(lb, rho, level=1, k_max=2)
        assert got["coverage"] == 100.0 * 2 / 3
        assert got == naive_compute_metrics(lb, rho, level=1, k_max=2)

    def test_level2_empty_episode_raises(self):
        lb = [np.array([1.0, 0.0]), np.zeros(0)]
        with pytest.raises(ValueError, match="every episode"):
            compute_metrics(lb, lb, level=2, k_max=2)


# Exact zeros of both signs, and ties drawn as ``rho == lb``.
VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_nan=False, width=16))


@st.composite
def bounds_and_truths(draw):
    lbs, rhos = [], []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.integers(1, 12))
        lb = draw(st.lists(VALUES, min_size=size, max_size=size))
        rho = [x if draw(st.booleans()) else draw(VALUES) for x in lb]
        lbs.append(np.array(lb))
        rhos.append(np.array(rho))
    return lbs, rhos


class TestPooledEqualsPerEpisode:
    @settings(max_examples=150, deadline=None)
    @given(bounds_and_truths(), st.sampled_from([1, 2]), st.integers(0, 6), st.integers(0, 5))
    def test_pooled_metrics_equal_the_per_episode_oracle(self, episodes, level, k_max, seed):
        lbs, rhos = episodes
        got = compute_metrics(lbs, rhos, level=level, k_max=k_max, coverage_seed=seed)
        want = naive_compute_metrics(lbs, rhos, level=level, k_max=k_max, coverage_seed=seed)
        # ``repr`` also tells a numpy scalar from a Python float or int.
        assert repr(got) == repr(want)


def small_setup():
    d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
    rng = np.random.default_rng(21)
    eps = [random_episode(rng, 2, 9, names=d.predicate_names) for _ in range(12)]
    stub = PredictorStub(mode="semantic", scale=0.15, seed=4, dictionary=d)
    mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d, tau_seed=2)
    test_eps = [random_episode(rng, 2, 9, names=d.predicate_names) for _ in range(5)]
    return d, mon, stub, test_eps


class TestEvaluateMonitor:
    def test_fragment_wide_radius_reported(self):
        d, mon, stub, test_eps = small_setup()
        f = parse_formula("G[0,1] p0", d.predicate_names)
        rows, errors = evaluate_monitor("semL2", mon, stub, test_eps, [f])
        assert not errors
        (row,) = rows
        assert row.monitor == "semL2"
        assert row.kind == "semantic"
        assert row.level == 2
        assert row.q_phi == mon.radius
        assert 0 <= row.csr <= 100

    def test_active_monitor_specializes_other_formulas(self):
        d, mon, stub, test_eps = small_setup()
        f = parse_formula("G[0,1] p0", d.predicate_names)
        g = parse_formula("F[0,2] p1", d.predicate_names)
        active = mon.for_formula(f)
        rows, errors = evaluate_monitor("act", active, stub, test_eps, [f, g])
        assert not errors
        by_formula = {r.formula: r for r in rows}
        assert by_formula["G[0,1] p0"].q_phi == active.radius
        assert by_formula["F[0,2] p1"].q_phi == active.for_formula(g).radius

    def test_uncertifiable_formula_lands_in_errors(self):
        d, mon, stub, test_eps = small_setup()
        alien = parse_formula("G[0,5] p0", d.predicate_names)
        rows, errors = evaluate_monitor("semL2", mon, stub, test_eps, [alien])
        assert not rows
        assert "G[0,5] p0" in errors

    def test_each_formula_resolved_once_over_all_episodes(self, monkeypatch):
        names = ("p_f", "p_goal")
        rng = np.random.default_rng(40)
        calib = [random_episode(rng, 2, 12, names=names) for _ in range(10)]
        episodes = [random_episode(rng, 2, 12, names=names) for _ in range(20)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=3)
        obs = observer_calibrate(calib, stub, parse_formula("G[0,2] p_f", names), 0.1, k_max=4)

        specialised, compiles = Counter(), Counter()
        real_for_formula = CalibratedMonitor.for_formula
        real_compile = conformal.compile_history_decoder

        def counting_for_formula(self, f):
            specialised[format_formula(f)] += 1
            return real_for_formula(self, f)

        def counting_compile(f, *args):
            compiles[format_formula(f)] += 1
            return real_compile(f, *args)

        monkeypatch.setattr(CalibratedMonitor, "for_formula", counting_for_formula)
        monkeypatch.setattr(conformal, "compile_history_decoder", counting_compile)
        goal, deep = (parse_formula(t, names) for t in ("F[0,4] p_goal", "G[0,8] p_f"))
        rows, errors = evaluate_monitor("obs", obs, stub, episodes, [goal, deep])
        assert [r.formula for r in rows] == ["F[0,4] p_goal"]
        assert list(errors) == ["G[0,8] p_f"]
        # one specialisation, whose radius is also q_phi; the deep formula
        # fails to compile once, not once per episode
        assert specialised["F[0,4] p_goal"] == 1
        assert rows[0].q_phi == obs.for_formula(goal).radius
        assert compiles["G[0,8] p_f"] <= 1

    def test_level2_times_drawn_once_per_episode_and_one_certification_per_block(self, monkeypatch):
        d, mon, stub, test_eps = small_setup()
        assert mon.level == 2
        formulas = [parse_formula(t, d.predicate_names) for t in ("G[0,1] p0", "F[0,2] p1", "G[0,2] p0 & F[0,1] p1")]
        cols = test_eps[0].T - mon.k_max + 1
        assert all(ep.T - mon.k_max + 1 == cols for ep in test_eps)
        # Two episodes fit a block, so the five episodes take three blocks.
        monkeypatch.setattr(conformal, "_BLOCK_COLUMNS", 2 * cols + 1)
        draws, certifications, decodes = Counter(), Counter(), Counter()
        real_draw, real_certify = metrics_module.sample_level2_time, monitors.certified_lower_bounds
        real_decode = conformal.decode_series

        def counting_draw(seed, i, *args):
            draws[i] += 1
            return real_draw(seed, i, *args)

        def counting_certify(mon_f, predicted, decoders):
            certifications[mon_f is mon, tuple(d.formula for d in decoders)] += 1
            return real_certify(mon_f, predicted, decoders)

        def counting_decode(d, values):
            decodes[d.formula] += 1
            return real_decode(d, values)

        monkeypatch.setattr(metrics_module, "sample_level2_time", counting_draw)
        monkeypatch.setattr(monitors, "certified_lower_bounds", counting_certify)
        monkeypatch.setattr(conformal, "decode_series", counting_decode)
        rows, errors = evaluate_monitor("semL2", mon, stub, test_eps, formulas, coverage_seed=5)
        assert not errors and len(rows) == len(formulas)
        assert draws == {i: 1 for i in range(len(test_eps))}
        # The fragment-wide monitor certifies all formulas in one call per
        # block, which decodes each formula once.
        assert certifications == {(True, tuple(format_formula(f) for f in formulas)): 3}
        assert decodes == {format_formula(f): 3 for f in formulas}
        # The shared draw is the one ``compute_metrics`` makes per formula.
        results = monitors.run_episodes(test_eps, stub, mon, formulas)
        for row in rows:
            summary = compute_metrics(
                [r.bounds[row.formula] for r in results], [r.truth[row.formula] for r in results], 2, mon.k_max, 5
            )
            assert {k: getattr(row, k) for k in summary} == summary


def history_group():
    """A fragment-wide rolling monitor, its copy for one formula and an
    observer without a score cache, all over one ``(2, 4)`` layout and one
    predictor, with formulas of which the observer certifies only its own."""
    names = ("p_f", "p_goal")
    rng = np.random.default_rng(41)
    calib = [random_episode(rng, 2, 12, names=names) for _ in range(10)]
    # Mixed lengths, several blocks.
    episodes = [random_episode(rng, 2, int(T), names=names) for T in rng.permutation(np.arange(8, 120, 8))]
    stub = PredictorStub(mode="predicates", scale=0.1, seed=3)
    own, goal, deep = (parse_formula(t, names) for t in ("G[0,2] p_f", "F[0,4] p_goal", "G[0,8] p_f"))
    roll = calibrate(calib, stub, ScoreConfig(sigma=np.ones(2 * 5), alpha=0.1, level=2), (2, 4))
    obs = observer_calibrate(calib, stub, own, 0.1, k_max=4)
    named = [("roll", roll), ("narrow", roll.for_formula(goal)), ("obs", dataclasses.replace(obs, cache=None))]
    return named, stub, episodes, [goal, own, deep, goal]


class TestEvaluateMonitors:
    def test_shared_pass_equals_one_monitor_at_a_time(self):
        named, stub, episodes, formulas = history_group()
        shared = evaluate_monitors(named, stub, episodes, formulas, coverage_seed=7)
        alone = [evaluate_monitor(name, mon, stub, episodes, formulas, coverage_seed=7) for name, mon in named]
        # ``repr`` tells a numpy scalar from a Python float, and -0.0 from 0.0.
        assert repr(shared) == repr(alone)
        assert [[r.formula for r in rows] for rows, _ in shared] == [
            ["F[0,4] p_goal", "G[0,2] p_f"], ["F[0,4] p_goal", "G[0,2] p_f"], ["G[0,2] p_f"]
        ]
        assert [sorted(errors) for _, errors in shared] == [
            ["G[0,8] p_f"], ["G[0,8] p_f"], ["F[0,4] p_goal", "G[0,8] p_f"]
        ]

    def test_one_prediction_and_one_level2_draw_per_episode_for_the_group(self, monkeypatch):
        named, stub, episodes, formulas = history_group()
        draws, predictions = Counter(), Counter()
        real_draw, real_predict = metrics_module.sample_level2_time, PredictorStub.predict

        def counting_draw(seed, i, *args):
            draws[i] += 1
            return real_draw(seed, i, *args)

        def counting_predict(self, ep):
            predictions[ep.uid] += 1
            return real_predict(self, ep)

        monkeypatch.setattr(metrics_module, "sample_level2_time", counting_draw)
        monkeypatch.setattr(PredictorStub, "predict", counting_predict)
        results = evaluate_monitors(named, stub, episodes, formulas)
        assert sum(len(rows) for rows, _ in results) == 5
        assert draws == {i: 1 for i in range(len(episodes))}
        assert predictions == {ep.uid: 1 for ep in episodes}

    def test_layout_mismatch_raises_before_predicting(self, monkeypatch):
        named, stub, episodes, formulas = history_group()
        roll = named[0][1]
        deeper = dataclasses.replace(roll, k_max=5, sigma=np.ones(2 * 6), cache=None)

        def predicting(self, ep):
            raise AssertionError("an episode was predicted")

        monkeypatch.setattr(PredictorStub, "predict", predicting)
        with pytest.raises(ValueError, match="share a basis layout"):
            evaluate_monitors([*named, ("deeper", deeper)], stub, episodes, formulas)


class TestHorizonSweep:
    def test_supported_windows_only(self):
        d, mon, stub, _ = small_setup()
        rows = horizon_sweep({"sem": mon}, [1, 2, 3], Predicate("p0", 0))
        ks = [r.k for r in rows]
        assert ks == [1, 2]  # the dictionary has no [0,3] window
        assert all(r.kind == "semantic" for r in rows)

    def test_rolling_depth_limits(self):
        rng = np.random.default_rng(30)
        eps = [random_episode(rng, 2, 8) for _ in range(8)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=1)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(2 * 3), alpha=0.1, level=2), (2, 2))
        rows = horizon_sweep({"roll": mon}, [1, 2, 4], Predicate("p0", 0))
        assert [r.k for r in rows] == [1, 2]  # K=4 exceeds the history depth

    def test_radii_nondecreasing_in_k_for_rolling(self):
        rng = np.random.default_rng(31)
        eps = [random_episode(rng, 1, 25) for _ in range(40)]
        stub = PredictorStub(mode="predicates", scale=0.3, seed=2)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(9), alpha=0.1, level=2), (1, 8))
        rows = horizon_sweep({"roll": mon}, [1, 2, 4, 8], Predicate("p0", 0))
        qs = [r.q_phi for r in rows]
        assert qs == sorted(qs)

    def test_monitor_without_cache_raises(self):
        _, mon, _, _ = small_setup()
        assert len(horizon_sweep({"sem": mon}, [1, 2, 3], Predicate("p0", 0))) == 2
        cacheless = dataclasses.replace(mon, cache=None)
        with pytest.raises(ValueError, match="no score cache"):
            horizon_sweep({"sem": cacheless}, [1, 2, 3], Predicate("p0", 0))


class TestWriters:
    def rows(self):
        return [
            ReportRow("G[0,1] p0", "semL2", "semantic", 2, 0.123456789, 66.666, None, 50.0, 100.0, 88.8888),
        ]

    def test_csv_formatting(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(self.rows(), path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "formula", "monitor", "kind", "level", "q_phi",
            "csr", "prec", "fpr", "gt_safe", "coverage",
        ]
        assert rows[1][4] == "0.123457"  # q keeps six significant digits
        assert rows[1][5] == "66.7"      # percents get one decimal
        assert rows[1][6] == ""          # blank when undefined
        assert rows[1][9] == "88.9"

    def test_json_sidecar_full_precision(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(self.rows(), path)
        blob = json.loads(path.read_text())
        assert blob[0]["q_phi"] == 0.123456789
        assert blob[0]["prec"] is None

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([SweepRow(4, "roll", "rolling", 2, 0.25)], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["k", "monitor", "kind", "level", "q_phi"], ["4", "roll", "rolling", "2", "0.25"]]
