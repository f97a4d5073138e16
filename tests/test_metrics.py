import csv
import dataclasses
import functools
import gc
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_compute_metrics, pooled_report_rows, random_episode
import ptmon.metrics as metrics_module
import ptmon.monitors as monitors
from ptmon.benchmark import PredictorStub
import ptmon.conformal as conformal
from ptmon.conformal import CalibratedMonitor, ScoreConfig, calibrate, observer_calibrate, sample_level2_time
from ptmon.fragment import HistoryLayout, build_depth1_dictionary
from ptmon.logic import Predicate, format_formula, parse_formula
from ptmon.robustness import Episode
from ptmon.metrics import (
    ReportRow,
    SweepRow,
    compute_metrics,
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

    @pytest.mark.parametrize("level", [0, 3])
    def test_unknown_level_raises(self, level):
        with pytest.raises(ValueError, match=f"level must be 1 or 2, got {level}"):
            compute_metrics(LB, RHO, level=level, k_max=0)

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
        rows, errors = evaluate_monitors([("semL2", mon, stub)], test_eps, [f])[0]
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
        rows, errors = evaluate_monitors([("act", active, stub)], test_eps, [f, g])[0]
        assert not errors
        by_formula = {r.formula: r for r in rows}
        assert by_formula["G[0,1] p0"].q_phi == active.radius
        assert by_formula["F[0,2] p1"].q_phi == active.for_formula(g).radius

    def test_uncertifiable_formula_lands_in_errors(self):
        d, mon, stub, test_eps = small_setup()
        alien = parse_formula("G[0,5] p0", d.predicate_names)
        rows, errors = evaluate_monitors([("semL2", mon, stub)], test_eps, [alien])[0]
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
        rows, errors = evaluate_monitors([("obs", obs, stub)], episodes, [goal, deep])[0]
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
        rows, errors = evaluate_monitors([("semL2", mon, stub)], test_eps, formulas, coverage_seed=5)[0]
        assert not errors and len(rows) == len(formulas)
        assert draws == {i: 1 for i in range(len(test_eps))}
        # The fragment-wide monitor certifies all formulas in one call per
        # block, which decodes each formula once.
        assert certifications == {(True, tuple(format_formula(f) for f in formulas)): 3}
        assert decodes == {format_formula(f): 3 for f in formulas}
        # The shared draw is the one ``compute_metrics`` makes per formula.
        results = monitors.run_monitors(test_eps, stub, [mon], formulas)[0]
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
        shared = evaluate_monitors([(name, mon, stub) for name, mon in named], episodes, formulas, coverage_seed=7)
        alone = [evaluate_monitors([(name, mon, stub)], episodes, formulas, coverage_seed=7)[0] for name, mon in named]
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
        real_draw, real_predict_block = metrics_module.sample_level2_time, PredictorStub.predict_block

        def counting_draw(seed, i, *args):
            draws[i] += 1
            return real_draw(seed, i, *args)

        def counting_predict_block(self, eps):
            predictions.update(ep.uid for ep in eps)
            return real_predict_block(self, eps)

        monkeypatch.setattr(metrics_module, "sample_level2_time", counting_draw)
        monkeypatch.setattr(PredictorStub, "predict_block", counting_predict_block)
        results = evaluate_monitors([(name, mon, stub) for name, mon in named], episodes, formulas)
        assert sum(len(rows) for rows, _ in results) == 5
        assert draws == {i: 1 for i in range(len(episodes))}
        assert predictions == {ep.uid: 1 for ep in episodes}

    def test_layout_mismatch_raises_before_predicting(self, monkeypatch):
        named, stub, episodes, formulas = history_group()
        roll = named[0][1]
        deeper = dataclasses.replace(roll, layout=HistoryLayout(2, 5), sigma=np.ones(2 * 6), cache=None)

        def predicting(self, ep_or_eps):
            raise AssertionError("an episode was predicted")

        monkeypatch.setattr(PredictorStub, "predict", predicting)
        monkeypatch.setattr(PredictorStub, "predict_block", predicting)
        with pytest.raises(ValueError, match="share a basis layout"):
            evaluate_monitors([(name, mon, stub) for name, mon in [*named, ("deeper", deeper)]], episodes, formulas)

    def test_no_models_no_results_and_no_episode_read(self):
        _, _, episodes, formulas = history_group()
        remaining = iter(episodes)
        assert evaluate_monitors([], remaining, formulas) == []
        assert next(remaining) is episodes[0]

    def test_no_episodes_still_reports_resolution_errors(self):
        named, stub, episodes, formulas = history_group()
        models = [(name, mon, stub) for name, mon in named]
        empty = evaluate_monitors(models, [], formulas)
        assert [rows for rows, _ in empty] == [[], [], []]
        with_episodes = evaluate_monitors(models, episodes, formulas)
        assert [errors for _, errors in empty] == [errors for _, errors in with_episodes]
        assert [sorted(errors) for _, errors in empty] == [
            ["G[0,8] p_f"], ["G[0,8] p_f"], ["F[0,4] p_goal", "G[0,8] p_f"]
        ]


MIXED_NAMES = ("p0", "p1")
# In the dictionary, certifiable by history alone (not a dictionary atom),
# and by no model (past ``k_max`` 3).
MIXED_FORMULAS = ("G[0,1] p0", "F[0,3] p1 & G[0,1] p0", "G[0,2] p0", "G[0,8] p0")


@functools.cache
def mixed_models():
    """Every kind of model over one ``k_max`` of 3, as a report holds them:
    semantic models at levels 2 and 1 that share a dictionary predictor,
    and a rolling model and an observer of ``G[0,2] p0`` without a score
    cache that share a per-step predictor; and mixed-length episodes that span several
    blocks."""
    d = build_depth1_dictionary(2, ((0, 1), (0, 3)), MIXED_NAMES)
    rng = np.random.default_rng(70)
    calib = [random_episode(rng, 2, 12, names=MIXED_NAMES) for _ in range(10)]
    sem_stub = PredictorStub(mode="semantic", scale=0.1, seed=3, dictionary=d)
    step_stub = PredictorStub(mode="predicates", scale=0.1, seed=3)
    sem, sem1 = (
        calibrate(calib, sem_stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.2, level=level), d) for level in (2, 1)
    )
    roll = calibrate(calib, step_stub, ScoreConfig(sigma=np.ones(2 * 4), alpha=0.2, level=2), (2, 3))
    obs = observer_calibrate(calib, step_stub, parse_formula(MIXED_FORMULAS[2], MIXED_NAMES), 0.2, k_max=3)
    # Without its score cache, the observer certifies its own formula alone.
    obs = dataclasses.replace(obs, cache=None)
    models = (("sem", sem, sem_stub), ("sem1", sem1, sem_stub), ("roll", roll, step_stub), ("obs", obs, step_stub))
    episodes = [random_episode(rng, 2, int(T), names=MIXED_NAMES) for T in rng.permutation(np.arange(4, 124, 8))]
    assert sum(ep.T - 3 + 1 for ep in episodes) > 3 * conformal._BLOCK_COLUMNS
    return models, episodes


class TestOnePassPerReport:
    """Models of every kind and layout share one pass when they share
    ``k_max``: each episode predicted once per distinct predictor, each
    formula's truth read once per block, each episode's level-2 time drawn
    once."""

    @pytest.mark.parametrize("order", ["given", "reversed"])
    def test_rows_equal_each_model_evaluated_alone(self, order):
        models, episodes = mixed_models()
        models = list(models if order == "given" else reversed(models))
        formulas = [parse_formula(t, MIXED_NAMES) for t in MIXED_FORMULAS]
        together = evaluate_monitors(models, episodes, formulas, coverage_seed=4)
        alone = [evaluate_monitors([model], episodes, formulas, coverage_seed=4)[0] for model in models]
        # ``repr`` tells a numpy scalar from a Python float, and -0.0 from 0.0.
        assert repr(together) == repr(alone)
        certified = {name: [r.formula for r in rows] for (name, _, _), (rows, _) in zip(models, together)}
        assert certified == {
            "sem": list(MIXED_FORMULAS[:2]), "sem1": list(MIXED_FORMULAS[:2]),
            "roll": list(MIXED_FORMULAS[:3]), "obs": [MIXED_FORMULAS[2]],
        }

    @pytest.mark.parametrize("texts", [MIXED_FORMULAS, MIXED_FORMULAS[:2] + MIXED_FORMULAS[3:]],
                             ids=["history_truth_needed", "semantic_truth_only"])
    def test_one_prediction_draw_and_truth_per_report(self, texts, monkeypatch):
        models, episodes = mixed_models()
        formulas = [parse_formula(t, MIXED_NAMES) for t in texts]
        predictions, draws, truths, blocks = Counter(), Counter(), Counter(), []
        real_predict_block, real_draw = PredictorStub.predict_block, metrics_module.sample_level2_time
        real_decode, real_blocks = monitors.decode_series, conformal._block_bases

        def counting_predict_block(self, eps):
            predictions.update((self.mode, ep.uid) for ep in eps)
            return real_predict_block(self, eps)

        def counting_draw(seed, i, *args):
            draws[i] += 1
            return real_draw(seed, i, *args)

        def counting_truth(d, values):
            truths[d.formula, d.basis_kind.value] += 1
            return real_decode(d, values)

        def recording_blocks(block, sources, truth_layouts, k_max):
            blocks.append([layout.basis_kind.value for layout in truth_layouts])
            return real_blocks(block, sources, truth_layouts, k_max)

        monkeypatch.setattr(PredictorStub, "predict_block", counting_predict_block)
        monkeypatch.setattr(metrics_module, "sample_level2_time", counting_draw)
        monkeypatch.setattr(monitors, "decode_series", counting_truth)
        monkeypatch.setattr(conformal, "_block_bases", recording_blocks)
        # History models first: the truth still comes from the dictionary.
        results = evaluate_monitors(models[::-1], episodes, formulas)
        assert sum(len(rows) for rows, _ in results) == (8 if len(texts) == 4 else 6)
        assert predictions == {(mode, ep.uid): 1 for ep in episodes for mode in ("semantic", "predicates")}
        assert draws == {i: 1 for i in range(len(episodes))}
        n_blocks = len(blocks)
        assert n_blocks > 3
        # The truth of a dictionary formula is read off its atoms; only a
        # formula outside the dictionary needs the history truth.
        want = {(t, "semantic"): n_blocks for t in texts[:2]}
        if len(texts) == 4:
            want[texts[2], "predicate_history"] = n_blocks
        assert truths == want
        kinds = ["predicate_history", "semantic"] if len(texts) == 4 else ["semantic"]
        assert [sorted(truth_kinds) for truth_kinds in blocks] == [kinds] * n_blocks

    def test_monitors_of_another_k_max_raise_before_predicting(self, monkeypatch):
        models, episodes = mixed_models()
        roll = models[2][1]
        deeper = dataclasses.replace(roll, layout=HistoryLayout(2, 4), sigma=np.ones(2 * 5), cache=None)
        other = PredictorStub(mode="predicates", scale=0.1, seed=3)

        def predicting(self, ep_or_eps):
            raise AssertionError("an episode was predicted")

        monkeypatch.setattr(PredictorStub, "predict", predicting)
        monkeypatch.setattr(PredictorStub, "predict_block", predicting)
        formulas = [parse_formula(t, MIXED_NAMES) for t in MIXED_FORMULAS]
        with pytest.raises(ValueError, match="share k_max"):
            evaluate_monitors([*models, ("deeper", deeper, other)], episodes, formulas)


GRID_NAMES = ("p_f", "p_goal")
# Certifiable by all, by some, and (``G[0,8]``, past ``k_max`` 3) by none.
GRID_FORMULAS = ("G[0,2] p_f", "F[0,2] p_goal", "G[0,1] (p_f | p_goal)", "F[0,3] p_f & G[0,1] p_goal", "G[0,8] p_f")


def grid_episode(rng: np.random.Generator, T: int) -> Episode:
    """Margins on a grid of quarters in [-0.75, 0.75], each zero of either sign."""
    mu = 0.25 * rng.integers(-3, 4, size=(2, T + 1))
    mu[(mu == 0) & (rng.random(mu.shape) < 0.5)] = -0.0
    return Episode(mu=mu, predicate_names=GRID_NAMES, uid=int(rng.integers(1 << 30)))


class GridPredictor:
    """Per-step predictions off the margins by -0.25, 0 or 0.25, the offset
    drawn per episode and step; a zero offset keeps the margin's bits,
    signed zeros included."""

    def __init__(self, seed: int):
        self.seed = seed

    def predict(self, ep: Episode) -> np.ndarray:
        offset = np.random.default_rng([self.seed, ep.uid]).integers(-1, 2, ep.mu.shape)
        return np.where(offset == 0, ep.mu, ep.mu + 0.25 * offset)


@functools.cache
def grid_group():
    """Over one ``(2, 3)`` layout and one :class:`GridPredictor`: fragment-wide
    rolling monitors at levels 1 and 2, the level-2 one's copy for
    ``F[0,2] p_goal``, and an observer for ``G[0,2] p_f`` without a score
    cache, which certifies only its own formula.

    The fragment-wide monitors' radius is set to zero, so their bounds are
    the predicted robustness: they tie with the truth where the prediction
    is exact, signed zeros included, and miss it where it overshoots, so
    their coverage depends on which times are read."""
    rng = np.random.default_rng(52)
    calib = [grid_episode(rng, int(T)) for T in rng.integers(3, 20, size=30)]
    predictor = GridPredictor(5)
    own, goal = (parse_formula(t, GRID_NAMES) for t in GRID_FORMULAS[:2])
    roll1, roll2 = (
        dataclasses.replace(
            calibrate(calib, predictor, ScoreConfig(sigma=np.ones(2 * 4), alpha=0.2, level=level), (2, 3)),
            radius=0.0,
        )
        for level in (1, 2)
    )
    obs = observer_calibrate(calib, predictor, own, 0.2, k_max=3)
    named = [
        ("roll1", roll1), ("roll2", roll2), ("narrow", roll2.for_formula(goal)),
        ("obs", dataclasses.replace(obs, cache=None)),
    ]
    return named, predictor


class TestScoredAsCertified:
    """``evaluate_monitors`` folds each block into counts; its rows equal the
    rows of every episode's results pooled through ``compute_metrics``."""

    def test_grid_bounds_tie_with_the_truth_at_both_zeros_and_miss_it(self):
        named, predictor = grid_group()
        rng = np.random.default_rng(3)
        episodes = [grid_episode(rng, 12) for _ in range(40)]
        results = monitors.run_monitors(episodes, predictor, [named[1][1]], [parse_formula("G[0,2] p_f", GRID_NAMES)])
        lb = np.concatenate([r.bounds["G[0,2] p_f"] for r in results[0]])
        rho = np.concatenate([r.truth["G[0,2] p_f"] for r in results[0]])
        tie, zero = lb == rho, rho == 0.0
        assert (tie & ~zero).any() and (lb > rho).any()
        # Zeros of both signs on both sides, and 0.0 tied with -0.0.
        assert np.signbit(lb[tie & zero]).any() and np.signbit(rho[zero]).any()
        assert (tie & zero & (np.signbit(lb) != np.signbit(rho))).any()

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(3, 18), min_size=1, max_size=8),
        st.integers(1, 48),
        st.lists(st.sampled_from(range(4)), min_size=1, max_size=4, unique=True),
        st.lists(st.sampled_from(GRID_FORMULAS), min_size=1, max_size=6),
        st.integers(0, 2**16),
        st.integers(0, 5),
    )
    def test_rows_equal_the_pooled_rows(self, lengths, block_columns, picks, texts, seed, coverage_seed):
        """Mixed lengths ``T`` (1 to 16 valid times) over blocks of
        ``block_columns`` columns, any order of the grid group's monitors,
        and formulas drawn with repeats."""
        group, predictor = grid_group()
        named = [group[i] for i in picks]
        rng = np.random.default_rng(seed)
        episodes = [grid_episode(rng, T) for T in lengths]
        formulas = [parse_formula(t, GRID_NAMES) for t in texts]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conformal, "_BLOCK_COLUMNS", block_columns)
            got = evaluate_monitors([(name, mon, predictor) for name, mon in named], episodes, formulas, coverage_seed)
            want = pooled_report_rows(named, predictor, episodes, formulas, coverage_seed)
        # ``repr`` tells a numpy scalar from a Python float, and -0.0 from 0.0.
        assert repr(got) == repr(want)


@functools.cache
def memory_setup(level: int):
    rng = np.random.default_rng(60)
    calib = [random_episode(rng, 2, 40) for _ in range(20)]
    stub = PredictorStub(mode="predicates", scale=0.1, seed=3)
    mon = calibrate(calib, stub, ScoreConfig(sigma=np.ones(2 * 5), alpha=0.1, level=level), (2, 4))
    texts = ("G[0,2] p0", "F[0,4] p1", "G[0,1] p0 & F[0,3] p1", "F[0,2] (p0 | p1)")
    return mon, stub, [parse_formula(t, ("p0", "p1")) for t in texts]


class TestMemoryFlatInTheSplit:
    """Scoring holds one block of the split at a time. Fixed sizes: a
    ``(2, 4)`` history layout, episodes of ``T = 40`` (37 valid times, six
    to a 256-column block), four formulas, and 24 episodes against 192;
    three drawn seeds per level."""

    @pytest.mark.parametrize("level", [1, 2])
    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2**16))
    def test_peak_at_8x_the_episodes_within_1_25x_the_peak_at_1x(self, level, seed):
        mon, stub, formulas = memory_setup(level)
        rng = np.random.default_rng(seed)
        episodes = [random_episode(rng, 2, 40) for _ in range(8 * 24)]
        warm = [random_episode(rng, 2, 40) for _ in range(8 * 24)]
        # Collect the cyclic garbage earlier tests leave (hypothesis's engine
        # data, some 28,000 objects): with it pending, a full collection falls
        # due inside a measurement now and then, and a full collection empties
        # CPython's free lists, whose refill tracemalloc counts. One untraced
        # run over as many other episodes of the same shape then builds the
        # decoders and read-outs and fills the free lists, without filling
        # anything kept per measured episode.
        gc.collect()
        evaluate_monitors([("mon", mon, stub)], warm, formulas)
        peaks = []
        for n in (24, 8 * 24):
            tracemalloc.start()
            try:
                evaluate_monitors([("mon", mon, stub)], episodes[:n], formulas)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


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
