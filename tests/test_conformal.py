import functools
import gc
import io
import json
import math
import pickle
import re
import tempfile
import tokenize
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    copy_and_subtract_bound,
    lag_loop_basis_rows,
    mixed_dictionary,
    naive_coord_radii,
    naive_estimate_sigma,
    naive_keyed_generator,
    naive_observer_rows,
    naive_radius_for_support,
    naive_score_matrix,
    naive_true_basis,
    predicate_lag_support,
    random_episode,
    random_fragment_formula,
    random_pnf_formula,
    tie_heavy,
)
import ptmon.conformal as conformal
import ptmon.fragment as fragment
from ptmon.benchmark import PredictorStub
from ptmon.conformal import (
    CalibratedMonitor,
    certified_lower_bounds,
    ScoreCache,
    ScoreConfig,
    SupportMismatchError,
    calibrate,
    certified_lower_bound,
    estimate_sigma,
    interval_propagate,
    load_monitor,
    load_score_cache,
    observer_calibrate,
    predicted_basis,
    radius_for_support,
    sample_level2_time,
    save_monitor,
    save_score_cache,
    score_matrix,
    split_quantile,
)
from ptmon.fragment import (
    AtomicDictionary,
    BasisMismatchError,
    HistoryLayout,
    HorizonExceededError,
    build_depth1_dictionary,
    compile_history_decoder,
    compile_semantic_decoder,
    decode_values,
)
from ptmon.logic import And, Eventually, Or, Predicate, TimeInterval, format_formula, horizon, parse_formula
from ptmon.monitors import (
    Label,
    MonitorVerdict,
    RollingBuffer,
    _verdict,
    _warming,
    observer_certify,
    rolling_certify,
    semantic_certify,
)
from ptmon.robustness import BasisKind, BasisVector, Episode, semantic_basis_series


def tiny_dictionary():
    return build_depth1_dictionary(2, ((0, 1), (0, 2)))


def history_monitor(m, k_max):
    """An uncalibrated rolling monitor: only its layout matters."""
    return CalibratedMonitor(
        kind="rolling", level=2, alpha=0.1, radius=0.0, sigma=np.ones(m * (k_max + 1)),
        n_calibration=1, seed=0, layout=HistoryLayout(m, k_max),
    )


def tiny_episodes(rng, dictionary, n, T=8):
    return [
        random_episode(rng, dictionary.m, T, names=dictionary.predicate_names)
        for _ in range(n)
    ]


def calibrated(kind):
    """A small calibrated monitor of ``kind`` and a formula it certifies."""
    rng = np.random.default_rng(21)
    if kind == "semantic":
        d = tiny_dictionary()
        stub = PredictorStub(mode="semantic", scale=0.2, seed=3, dictionary=d)
        mon = calibrate(tiny_episodes(rng, d, 9), stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        return mon, parse_formula("G[0,1] p0 & F[0,2] p1", d.predicate_names)
    eps = [random_episode(rng, 2, 8) for _ in range(9)]
    stub = PredictorStub(mode="predicates", scale=0.2, seed=3)
    if kind == "rolling":
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(6), alpha=0.1, level=2), (2, 2))
    else:
        mon = observer_calibrate(eps, stub, parse_formula("G[0,2] p0", ("p0", "p1")), 0.1, k_max=2)
    return mon, parse_formula("G[0,1] p0 | F[0,2] p1", ("p0", "p1"))


class TestSplitQuantile:
    def test_rank_hits_max_at_n9(self):
        assert split_quantile(np.arange(1.0, 10.0), 0.1) == 9.0

    def test_rank_18_of_19(self):
        assert split_quantile(np.arange(1.0, 20.0), 0.1) == 18.0

    def test_empty_and_bad_alpha(self):
        with pytest.raises(ValueError):
            split_quantile([], 0.1)
        with pytest.raises(ValueError):
            split_quantile([1.0], 0.0)

    def test_nan_score_rejected(self):
        # NaN sorts last: it would count toward n and, here, be returned.
        with pytest.raises(ValueError, match="NaN"):
            split_quantile([1.0, math.nan, 2.0], 0.5)
        with pytest.raises(ValueError, match="NaN"):
            split_quantile([math.nan], 0.1)

    def test_nan_in_any_column_rejected(self):
        scores = np.arange(12.0).reshape(6, 2)
        scores[2, 1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            split_quantile(scores, 0.5)
        scores[2, 1] = math.inf
        assert split_quantile(scores, 0.5).tolist() == [6.0, 9.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        st.floats(0.01, 0.99),
    )
    def test_is_the_documented_order_statistic(self, scores, alpha):
        n = len(scores)
        rank = min(n, math.ceil((n + 1) * (1 - alpha)))
        assert split_quantile(scores, alpha) == sorted(scores)[rank - 1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 8),
        st.floats(0.001, 0.99),
        st.integers(0, 2**32 - 1),
    )
    def test_matrix_gives_each_columns_quantile_bit_for_bit(self, n, c, alpha, seed):
        rng = np.random.default_rng(seed)
        # Even columns are all ties and signed zeros; odd ones continuous.
        scores = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(n, c))
        scores[:, 1::2] = rng.normal(size=(n, c))[:, 1::2]
        want = np.array([split_quantile(scores[:, j], alpha) for j in range(c)])
        got = split_quantile(scores, alpha)
        assert got.shape == (c,) and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    def test_never_below_plain_empirical_quantile(self, scores):
        # The finite-sample correction only ever rounds the rank up.
        q = split_quantile(scores, 0.1)
        assert q >= float(np.quantile(scores, 0.9, method="inverted_cdf")) - 1e-12


class TestCoverageLaw:
    def test_marginal_coverage_is_exactly_18_of_20(self):
        # With n = 19 exchangeable continuous scores and alpha = 0.1, the
        # radius is the 18th smallest, so a fresh score falls at or below it
        # with probability exactly 18/20; a rank one lower would give 17/20.
        n, draws, support = 19, 20_000, (0, 2)
        rows = np.random.default_rng(2024).random((draws, n + 1, 3))
        covered = 0
        for draw in rows:
            radius = radius_for_support(ScoreCache(draw[:n], level=1, seed=0), support, 0.1)
            covered += draw[n, list(support)].max() <= radius
        mean = covered / draws
        se = math.sqrt(0.9 * 0.1 / draws)
        assert abs(mean - 18 / 20) < 5 * se
        assert abs(mean - 17 / 20) > 5 * se


class TestScores:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScoreConfig(sigma=np.array([1.0, -1.0]), alpha=0.1, level=1)
        with pytest.raises(ValueError):
            ScoreConfig(sigma=np.ones(2), alpha=1.5, level=1)
        with pytest.raises(ValueError):
            ScoreConfig(sigma=np.ones(2), alpha=0.1, level=3)
        with pytest.raises(ValueError):
            ScoreConfig(sigma=np.ones(2), alpha=0.1, level=1, support=frozenset({5}))
        with pytest.raises(ValueError):
            ScoreConfig(sigma=np.ones(2), alpha=0.1, level=1, support=frozenset())

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_sigma_rejected(self, bad):
        # an infinite scale would make a zero radius shift by 0 * inf = NaN
        with pytest.raises(ValueError, match="finite"):
            ScoreConfig(sigma=np.array([1.0, bad]), alpha=0.1, level=1)


class TestSampleTime:
    def test_deterministic_and_in_range(self):
        for i in range(50):
            t1 = sample_level2_time(7, i, 4, 20)
            t2 = sample_level2_time(7, i, 4, 20)
            assert t1 == t2
            assert 4 <= t1 <= 20

    def test_varies_across_episodes(self):
        times = {sample_level2_time(7, i, 0, 1000) for i in range(30)}
        assert len(times) > 20


class TestCalibrate:
    def test_constant_bias_gives_exact_radius(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(0)
        eps = tiny_episodes(rng, d, 10)
        stub = PredictorStub(mode="semantic", scale=0.0, bias=0.25, seed=1, dictionary=d)
        cfg = ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2)
        mon = calibrate(eps, stub, cfg, d)
        assert mon.radius == pytest.approx(0.25)
        # with the exact bias removed, the certified bound equals the truth
        ep = eps[0]
        t = d.K_max + 2
        true_basis = semantic_basis_series(ep, d)[:, t - d.K_max]
        basis_hat = BasisVector(BasisKind.SEMANTIC, true_basis + 0.25, t)
        f = random_fragment_formula(rng, d)
        dec = compile_semantic_decoder(f, d)
        from helpers import naive_robustness

        assert certified_lower_bound(mon, basis_hat, dec) == pytest.approx(
            naive_robustness(f, ep.mu, t)
        )

    def test_a_pair_is_taken_as_a_history_layout(self):
        # Public entry points take a plain (m, k_max) pair for the layout.
        rng = np.random.default_rng(5)
        eps = [random_episode(rng, 2, 8) for _ in range(9)]
        stub = PredictorStub(mode="predicates", scale=0.2, seed=3)
        cfg = ScoreConfig(sigma=np.ones(6), alpha=0.1, level=1)
        by_pair, by_layout = (calibrate(eps, stub, cfg, spec) for spec in ((2, 2), HistoryLayout(2, 2)))
        assert by_pair.layout == by_layout.layout == HistoryLayout(2, 2)
        assert (by_pair.kind, by_pair.m, by_pair.k_max, by_pair.dictionary) == ("rolling", 2, 2, None)
        assert by_pair.cache.matrix.tobytes() == by_layout.cache.matrix.tobytes()
        assert estimate_sigma(eps, stub, (2, 2)).tobytes() == estimate_sigma(eps, stub, HistoryLayout(2, 2)).tobytes()
        assert predicted_basis(eps[0], stub, (2, 2)).tobytes() == predicted_basis(eps[0], stub, by_pair.layout).tobytes()
        assert replace(by_pair, layout=(2, 2)).layout == by_pair.layout

    def test_kind_and_layout_must_agree(self):
        mon = history_monitor(2, 3)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        for kind, layout in (("semantic", mon.layout), ("rolling", d), ("observer", d)):
            with pytest.raises(ValueError, match=f"a {kind} monitor cannot read a"):
                replace(mon, kind=kind, layout=layout, sigma=np.ones(layout.dim))

    def test_sigma_rescales_radius(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(0)
        eps = tiny_episodes(rng, d, 10)
        stub = PredictorStub(mode="semantic", scale=0.0, bias=0.3, seed=1, dictionary=d)
        cfg = ScoreConfig(sigma=np.full(d.r, 2.0), alpha=0.1, level=2)
        mon = calibrate(eps, stub, cfg, d)
        assert mon.radius == pytest.approx(0.15)

    def test_radius_is_quantile_of_row_maxima(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(2)
        eps = tiny_episodes(rng, d, 17)
        stub = PredictorStub(mode="semantic", scale=0.2, seed=3, dictionary=d)
        cfg = ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2)
        mon = calibrate(eps, stub, cfg, d, tau_seed=5)
        assert mon.radius == split_quantile(mon.cache.matrix.max(axis=1), 0.1)

    def test_level1_dominates_level2_on_shared_data(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(4)
        eps = tiny_episodes(rng, d, 15)
        stub = PredictorStub(mode="semantic", scale=0.3, seed=6, dictionary=d)
        sig = np.ones(d.r)
        m1 = calibrate(eps, stub, ScoreConfig(sigma=sig, alpha=0.1, level=1), d, tau_seed=9)
        m2 = calibrate(eps, stub, ScoreConfig(sigma=sig, alpha=0.1, level=2), d, tau_seed=9)
        assert m1.radius >= m2.radius

    def test_rolling_kind_and_dim(self):
        rng = np.random.default_rng(5)
        eps = [random_episode(rng, 2, 9) for _ in range(8)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=2)
        cfg = ScoreConfig(sigma=np.ones(2 * 4), alpha=0.1, level=2)
        mon = calibrate(eps, stub, cfg, (2, 3))
        assert mon.kind == "rolling"
        assert mon.dim == 8
        assert mon.cache.matrix.shape == (8, 8)

    def test_sigma_size_must_match_basis(self):
        rng = np.random.default_rng(5)
        eps = [random_episode(rng, 2, 9)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=2)
        with pytest.raises(ValueError):
            calibrate(eps, stub, ScoreConfig(sigma=np.ones(3), alpha=0.1, level=2), (2, 3))

    def test_needs_episodes(self):
        d = tiny_dictionary()
        stub = PredictorStub(mode="semantic", scale=0.1, seed=0, dictionary=d)
        with pytest.raises(ValueError):
            calibrate([], stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)


class TestSupportNarrowing:
    def test_radius_monotone_in_support(self):
        rng = np.random.default_rng(8)
        cache = ScoreCache(rng.normal(size=(25, 6)), level=2, seed=0)
        full = radius_for_support(cache, range(6), 0.1)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            sub = rng.choice(6, size=k, replace=False)
            assert radius_for_support(cache, sub, 0.1) <= full

    def test_nested_supports_nested_radii(self):
        rng = np.random.default_rng(9)
        cache = ScoreCache(rng.normal(size=(30, 10)), level=2, seed=0)
        supports = [range(1), range(3), range(6), range(10)]
        radii = [radius_for_support(cache, s, 0.1) for s in supports]
        assert radii == sorted(radii)

    def test_for_formula_equals_from_scratch_restriction(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(10)
        eps = tiny_episodes(rng, d, 12)
        stub = PredictorStub(mode="semantic", scale=0.2, seed=7, dictionary=d)
        sig = np.ones(d.r)
        wide = calibrate(eps, stub, ScoreConfig(sigma=sig, alpha=0.1, level=2), d, tau_seed=1)
        f = parse_formula("G[0,1] p0 & F[0,2] p1", d.predicate_names)
        narrowed = wide.for_formula(f)
        direct = calibrate(
            eps,
            stub,
            ScoreConfig(sigma=sig, alpha=0.1, level=2, support=narrowed.support),
            d,
            tau_seed=1,
        )
        assert narrowed.radius == direct.radius
        assert narrowed.formula == format_formula(f)
        assert narrowed.radius <= wide.radius

    def test_for_formula_requires_cache(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(10)
        eps = tiny_episodes(rng, d, 5)
        stub = PredictorStub(mode="semantic", scale=0.2, seed=7, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        mon = replace(mon, cache=None)
        with pytest.raises(ValueError):
            mon.for_formula(parse_formula("G[0,1] p0", d.predicate_names))

    def test_history_support_indices(self):
        f = parse_formula("G[0,1] p0 & F[0,1] p1", ("p0", "p1"))
        mon = history_monitor(m=2, k_max=2)
        assert mon.decoder(f).support == {0, 1, 3, 4}
        assert compile_history_decoder(f, 2, 2).support == {0, 1, 3, 4}
        with pytest.raises(HorizonExceededError):
            mon.decoder(parse_formula("G[0,3] p0", ("p0", "p1")))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_history_support_is_predicate_lag_support(self, seed, slack):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        k_max = horizon(f) + slack
        want = {p * (k_max + 1) + lag for p, lag in predicate_lag_support(f)}
        assert history_monitor(m=3, k_max=k_max).decoder(f).support == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_semantic_support_is_the_atoms_used(self, seed):
        rng = np.random.default_rng(seed)
        d = tiny_dictionary()
        used = [int(q) for q in rng.integers(d.r, size=int(rng.integers(1, 6)))]
        f = d.atoms[used[0]]
        for q in used[1:]:
            f = And(f, d.atoms[q]) if rng.random() < 0.5 else Or(d.atoms[q], f)
        mon = CalibratedMonitor(
            kind="semantic", level=2, alpha=0.1, radius=0.0, sigma=np.ones(d.r),
            n_calibration=1, seed=0, layout=d,
        )
        assert mon.decoder(f).support == set(used)


def lag_term(c, width):
    """``F[j,j] p<k>``, which reads history coordinate ``c = k * width + j`` alone."""
    k, j = divmod(c, width)
    return Eventually(TimeInterval(j, j), Predicate(f"p{k}", k))


class TestRadiusQueriesMatchTheOracles:
    """Radius queries read the column-major cache and its columns sorted
    once; every radius must equal the row-major gather-and-sort oracles
    byte for byte, the sign of a zero included."""

    @staticmethod
    def monitor(kind, cache, alpha, m, k_max):
        """An unspecialised monitor of ``kind`` over ``cache``. Its basis has
        one coordinate per ``(predicate, lag)``; a semantic one has the atom
        ``lag_term(c)`` at coordinate ``c``, so every kind gives a formula
        the same support."""
        dim = m * (k_max + 1)
        if kind == "semantic":
            layout = AtomicDictionary(tuple(lag_term(c, k_max + 1) for c in range(dim)), m)
        else:
            layout = HistoryLayout(m, k_max)
        if kind == "observer":
            # An observer calibrates symmetric scores; the matrix is the same.
            cache = replace(cache, symmetric=True)
        return CalibratedMonitor(kind=kind, level=2, alpha=alpha, radius=0.0, sigma=np.ones(dim),
                                 n_calibration=cache.matrix.shape[0], seed=0, cache=cache, layout=layout)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 250),
        st.integers(1, 3),
        st.integers(0, 3),
        st.floats(0.001, 0.999),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_for_formula_and_radius_for_support(self, n, m, k_max, u, clamp, zeros, seed):
        rng = np.random.default_rng(seed)
        dim = m * (k_max + 1)
        if zeros:
            # No score above zero: nearly every radius is a tie between
            # zeros of both signs, which only the oracles' reductions, in
            # coordinate order, settle alike.
            matrix = rng.choice([-0.0, 0.0, -1.0], size=(n, dim))
        else:
            # Ties and zeros of both signs everywhere; continuous scores in some columns.
            matrix = rng.choice([-0.0, 0.0, 0.5, 1.0, -1.0], size=(n, dim))
            continuous = rng.random(dim) < 0.3
            matrix[:, continuous] = rng.normal(size=(n, int(continuous.sum())))
        alpha = u / (n + 1) if clamp else u
        if clamp:  # the rank asks for more than the n-th smallest score
            assert math.ceil((n + 1) * (1 - alpha)) > n
        support = sorted(int(c) for c in rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False))
        f = functools.reduce(Or, (lag_term(c, k_max + 1) for c in support))
        cache = ScoreCache(matrix, level=2, seed=0)
        radius = naive_radius_for_support(cache, support, alpha)
        coord_radii = naive_coord_radii(cache, support, alpha)
        observer_radius = float(coord_radii[support].max())

        def same(a, b):
            return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

        shuffled = list(rng.permutation(support))
        for given_support in (set(support), shuffled, (int(c) for c in shuffled),
                              np.array(shuffled, dtype=np.intp)):
            assert same(radius_for_support(cache, given_support, alpha), radius)
        # Another formula's copy answers f through monitor_for.
        g = lag_term(support[-1], k_max + 1)
        for kind in ("semantic", "rolling", "observer"):
            mon = self.monitor(kind, cache, alpha, m, k_max)
            with tempfile.TemporaryDirectory() as tmp:
                save_monitor(mon, Path(tmp) / "mon.json")
                back = load_monitor(Path(tmp) / "mon.json")
            for source in (mon, back):
                # Cold (the decoder compiled, the observer's columns sorted),
                # then warm, then through monitor_for.
                specs = [source.for_formula(f), source.for_formula(f), source.for_formula(g).monitor_for(f)]
                for spec in specs:
                    assert spec.support == set(support)
                    if kind == "observer":
                        assert same(spec.coord_radii, coord_radii)
                        assert same(spec.radius, observer_radius)
                    else:
                        assert same(spec.radius, radius)


class TestSpecialisedCopies:
    """``for_formula`` builds its copies without the frozen ``__init__``;
    they must behave like any other monitor."""

    KINDS = ["semantic", "rolling", "observer"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_layout_and_shift_are_the_copys_own(self, kind):
        mon, f = calibrated(kind)
        mon.shift, mon.dim, mon.basis_kind  # cached on the source first
        copy = mon.for_formula(f)
        assert not {"shift", "dim", "basis_kind"} & set(vars(copy))
        want = copy.coord_radii * copy.sigma if kind == "observer" else copy.radius * copy.sigma
        assert copy.shift is not mon.shift
        assert copy.shift.tobytes() == want.tobytes()
        assert (copy.dim, copy.basis_kind) == (mon.dim, mon.basis_kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_copies_start_with_the_parents_decoder(self, kind):
        # No monitor keeps decoders: a for_formula copy, a copy of that copy
        # and a replace copy all read f through the one decoder the layout's
        # table keeps, on the dictionary (semantic) or on f (history).
        mon, f = calibrated(kind)
        dec = mon.decoder(f)
        copy = mon.for_formula(f)
        assert not any("decoder" in name for name in vars(copy))
        assert copy.decoder(f) is dec and copy.support is dec.support
        assert mon.for_formula(f).decoder(f) is dec and copy.for_formula(f).decoder(f) is dec
        assert replace(copy).decoder(f) is dec
        if kind == "semantic":
            assert mon.dictionary._decoders[f] is dec
        else:
            assert f.__dict__["_decoders"][mon.m, mon.k_max] is dec

    @pytest.mark.parametrize("kind", KINDS)
    def test_arrays_are_read_only(self, kind):
        mon, f = calibrated(kind)
        copy = mon.for_formula(f)
        for arr in (copy.sigma, copy.coord_radii) if kind == "observer" else (copy.sigma,):
            with pytest.raises(ValueError):
                arr[0] = 9.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_replace_validates_again(self, kind):
        mon, f = calibrated(kind)
        copy = mon.for_formula(f)
        with pytest.raises(ValueError, match="unknown monitor kind"):
            replace(copy, kind="bogus")
        again = replace(copy)
        assert again.radius == copy.radius and again.support == copy.support

    @pytest.mark.parametrize("kind", KINDS)
    def test_carries_what_the_rank_probe_reads(self, kind):
        # The benchmark tracer's rank-clamp probe reads these three fields.
        mon, f = calibrated(kind)
        copy = mon.for_formula(f)
        assert copy.support == mon.decoder(f).support
        assert (copy.alpha, copy.n_calibration) == (mon.alpha, mon.n_calibration)
        assert copy.formula == format_formula(f)


class TestCertifiedBound:
    def test_frozen_subtraction_example(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(1)
        eps = tiny_episodes(rng, d, 6)
        stub = PredictorStub(mode="semantic", scale=0.0, bias=0.3, seed=1, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        assert mon.radius == pytest.approx(0.3)
        f = parse_formula("G[0,1] p0 & F[0,2] p1", d.predicate_names)
        dec = compile_semantic_decoder(f, d)
        vals = np.zeros(d.r)
        vals[0], vals[7] = 0.5, 0.2
        lb = certified_lower_bound(mon, BasisVector(BasisKind.SEMANTIC, vals, d.K_max), dec)
        assert lb == pytest.approx(-0.1)  # min(0.5, 0.2) - 0.3

    def test_support_mismatch_detected(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(1)
        eps = tiny_episodes(rng, d, 6)
        stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        wide = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        narrow = wide.for_formula(parse_formula("G[0,1] p0", d.predicate_names))
        other = compile_semantic_decoder(
            parse_formula("F[0,2] p1", d.predicate_names), d
        )
        with pytest.raises(SupportMismatchError):
            certified_lower_bound(
                narrow, BasisVector(BasisKind.SEMANTIC, np.zeros(d.r), d.K_max), other
            )

    def test_kind_mismatch_detected(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(1)
        eps = tiny_episodes(rng, d, 6)
        stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        dec = compile_semantic_decoder(parse_formula("G[0,1] p0", d.predicate_names), d)
        wrong = BasisVector(BasisKind.PREDICATE_HISTORY, np.zeros(d.r), d.K_max)
        with pytest.raises(ValueError):
            certified_lower_bound(mon, wrong, dec)


class TestShrinkOnce:
    """A snapshot keeps its shrunk values per monitor; they must never go stale."""

    def test_basis_values_are_a_read_only_copy(self):
        mon = replace(history_monitor(1, 1), radius=0.5)
        dec = compile_history_decoder(parse_formula("G[0,1] p0", ("p0",)), 1, 1)
        given = np.array([2.0, 3.0])
        basis = BasisVector(BasisKind.PREDICATE_HISTORY, given, 1)
        with pytest.raises(ValueError):
            basis.values[0] = -5.0
        assert certified_lower_bound(mon, basis, dec) == 1.5
        given[0] = -5.0
        assert np.array_equal(basis.values, [2.0, 3.0])
        assert certified_lower_bound(mon, basis, dec) == 1.5

    @pytest.mark.parametrize("field", ["radius", "sigma", "coord_radii"])
    def test_reassigned_field_gives_the_fresh_bound(self, field):
        kind = "observer" if field == "coord_radii" else "rolling"
        mon = replace(history_monitor(1, 1), kind=kind, radius=0.5, coord_radii=np.full(2, 0.5))
        dec = compile_history_decoder(parse_formula("G[0,1] p0", ("p0",)), 1, 1)
        basis = BasisVector(BasisKind.PREDICATE_HISTORY, [2.0, 3.0], 1)
        assert certified_lower_bound(mon, basis, dec) == 1.5
        changed = replace(mon, **{field: 2.0 if field == "radius" else np.full(2, 2.0)})
        fresh = certified_lower_bound(changed, BasisVector(BasisKind.PREDICATE_HISTORY, [2.0, 3.0], 1), dec)
        assert fresh == (1.0 if field == "sigma" else 0.0)
        assert certified_lower_bound(changed, basis, dec) == fresh
        assert certified_lower_bound(mon, basis, dec) == 1.5

    def test_equal_radius_of_other_sign_gives_the_fresh_zero(self):
        # 0.0 == -0.0, yet -0.0 - 0.0 is -0.0 while -0.0 - (-0.0) is 0.0.
        mon = history_monitor(1, 0)
        dec = compile_history_decoder(parse_formula("p0", ("p0",)), 1, 0)
        basis = BasisVector(BasisKind.PREDICATE_HISTORY, [-0.0], 0)
        assert np.signbit(certified_lower_bound(mon, basis, dec))
        assert not np.signbit(certified_lower_bound(replace(mon, radius=-0.0), basis, dec))
        assert np.signbit(certified_lower_bound(mon, basis, dec))

    def test_shift_arrays_are_read_only_copies(self):
        sigma, radii = np.ones(2), np.full(2, 0.5)
        mon = replace(history_monitor(1, 1), kind="observer", sigma=sigma, coord_radii=radii)
        for arr in (mon.sigma, mon.coord_radii):
            with pytest.raises(ValueError):
                arr[0] = 9.0
        sigma[0] = radii[0] = 9.0
        assert np.array_equal(mon.shift, [0.5, 0.5])

    @pytest.mark.parametrize("kind", ["rolling", "observer"])
    def test_shift_is_computed_once_and_read_only(self, kind):
        mon = replace(history_monitor(1, 1), kind=kind, radius=0.5, coord_radii=np.full(2, 0.25))
        shift = mon.shift
        assert shift is mon.shift
        assert np.array_equal(shift, [0.5, 0.5] if kind == "rolling" else [0.25, 0.25])
        with pytest.raises(ValueError):
            shift[0] = 9.0
        basis = BasisVector(BasisKind.PREDICATE_HISTORY, [2.0, 3.0], 1)
        dec = compile_history_decoder(parse_formula("G[0,1] p0", ("p0",)), 1, 1)
        certified_lower_bound(mon, basis, dec)
        assert mon.shift is shift
        assert replace(mon).shift is not shift

    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(CalibratedMonitor)]
        + ["shift", "dim", "basis_kind", "_shift_floats", "dictionary", "m", "k_max"],
    )
    def test_fields_cannot_be_assigned(self, name):
        # A copy from for_formula is built without the frozen __init__.
        copies = [mon.for_formula(f) for mon, f in map(calibrated, ("semantic", "rolling", "observer"))]
        for mon in [history_monitor(1, 1), *copies]:
            with pytest.raises(FrozenInstanceError):
                setattr(mon, name, getattr(mon, name))

    def test_each_monitor_shrinks_a_snapshot_for_itself(self):
        low, high = (replace(history_monitor(1, 0), radius=r) for r in (1.0, 3.0))
        dec = compile_history_decoder(parse_formula("p0", ("p0",)), 1, 0)
        basis = BasisVector(BasisKind.PREDICATE_HISTORY, [2.0], 0)
        for _ in range(2):
            assert certified_lower_bound(low, basis, dec) == 1.0
            assert certified_lower_bound(high, basis, dec) == -1.0


class TestRestrictedShrink:
    """A monitor with a restricted support subtracts its shift from the
    support's coordinates inside its own read-out, of the snapshot's values
    listed once as Python floats."""

    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_bound_equals_the_full_shrink_bit_for_bit(self, kind):
        mon, _ = calibrated(kind)
        d = tiny_dictionary()
        rng = np.random.default_rng(47)
        narrow = []
        for f in (random_fragment_formula(rng, d) for _ in range(12)):
            copy = mon.for_formula(f)
            # A shift of -0.0 turns a -0.0 coordinate into 0.0; one of 0.0 keeps it.
            zero = {"coord_radii": np.full(mon.dim, -0.0)} if kind == "observer" else {"radius": -0.0}
            narrow += [(f, copy), (f, replace(copy, **zero)), (f, replace(copy, sigma=np.zeros(mon.dim)))]
        assert all(n.support is not None for _, n in narrow)
        signed_zeros = 0
        for _ in range(8):
            values = tie_heavy(rng, mon.dim)
            basis = BasisVector(mon.basis_kind, values, mon.k_max)
            for f, n in narrow:
                dec = n.decoder(f)
                got = certified_lower_bound(n, basis, dec)
                want = decode_values(dec, values - n.shift)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                signed_zeros += got == 0.0 and np.signbit(got)
            # The shared float list is copied, never shrunk in place.
            assert basis._floats == values.tolist()
        assert signed_zeros > 0

    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_decoder_outside_the_support_is_refused_before_shrinking(self, kind):
        mon, _ = calibrated(kind)
        names = tiny_dictionary().predicate_names
        narrow = mon.for_formula(parse_formula("G[0,1] p0", names))
        other = narrow.decoder(parse_formula("F[0,2] p1", names))
        basis = BasisVector(mon.basis_kind, np.zeros(mon.dim), mon.k_max)
        with pytest.raises(SupportMismatchError):
            certified_lower_bound(narrow, basis, other)
        assert narrow not in basis._shrunk and "_floats" not in vars(basis)


# Shifts whose bits a literal in generated source could lose, or could not
# write at all: both zeros, the smallest subnormal, a near-overflow and +inf.
EDGE_SHIFTS = (0.0, -0.0, 5e-324, 1e308, math.inf)


def with_shift(mon, shift):
    """``mon`` shifting every coordinate by ``shift`` exactly: a sigma of
    ones, and ``shift`` as the radius (``coord_radii`` for an observer)."""
    if mon.kind == "observer":
        return replace(mon, sigma=np.ones(mon.dim), coord_radii=np.full(mon.dim, shift))
    return replace(mon, sigma=np.ones(mon.dim), radius=shift)


def generated_sources(monkeypatch) -> list[str]:
    """Every source :mod:`ptmon.fragment` executes from now on, in order."""
    sources = []

    def recording(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(fragment, "exec", recording, raising=False)
    return sources


def assert_no_float_literal(source):
    """Every number in a generated source is an ``int`` index, and no name
    spells a non-finite value."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    assert all(t.string.isdigit() for t in tokens if t.type == tokenize.NUMBER), source
    assert not {t.string for t in tokens if t.type == tokenize.NAME} & {"inf", "nan", "float"}, source


class TestRestrictedReadOut:
    """A restricted monitor reads each snapshot through the decoder's
    shifted read-out, passing its shift listed once as Python floats; the
    read-out subtracts it from the coordinates it reads. The bounds equal
    those of the copy-and-subtract shrink it replaces
    (``copy_and_subtract_bound``), bit for bit."""

    @pytest.mark.parametrize("shift", EDGE_SHIFTS, ids=repr)
    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_bound_equals_the_copy_and_subtract_oracle(self, kind, shift, monkeypatch):
        mon, _ = calibrated(kind)
        rng = np.random.default_rng(53)
        copies = []
        for f in (random_fragment_formula(rng, tiny_dictionary()) for _ in range(8)):
            copy = with_shift(mon.for_formula(f), shift)
            copies.append((copy, copy.decoder(f)))
            assert copies[-1][1] is mon.decoder(f)
        assert all(np.all(copy.shift == shift) for copy, _ in copies)
        # A decoder shared with another test may have its read-out already.
        fresh = {id(dec) for _, dec in copies if "read_shifted" not in vars(dec)}
        sources = generated_sources(monkeypatch)
        for _ in range(8):
            basis = BasisVector(mon.basis_kind, tie_heavy(rng, mon.dim), mon.k_max)
            for copy, dec in copies:
                got = certified_lower_bound(copy, basis, dec)
                want = copy_and_subtract_bound(copy, basis, dec)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                if shift == math.inf:
                    assert got == -math.inf
            assert basis._shrunk == {}
        # One shifted read-out per decoder, shared by every ``replace`` copy
        # of the layout; no plain one, and no float literal.
        assert len(sources) == len(fresh)
        assert all("read_shifted" in vars(dec) for _, dec in copies)
        for source in sources:
            assert " - c" in source
            assert_no_float_literal(source)

    @pytest.mark.parametrize("shift", [*EDGE_SHIFTS, -math.inf, math.nan], ids=repr)
    def test_shifts_are_bound_as_names(self, shift, monkeypatch):
        # The shift travels as the items of the monitor's float list, read
        # as ``c[i]``: never a literal, so ``-0.0`` keeps its sign.
        sources = generated_sources(monkeypatch)
        mon, f = calibrated("rolling")
        copy = with_shift(mon.for_formula(f), shift)
        basis = BasisVector(mon.basis_kind, np.ones(mon.dim), mon.k_max)
        got = certified_lower_bound(copy, basis, copy.decoder(f))
        want = copy_and_subtract_bound(copy, basis, copy.decoder(f))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert [np.float64(c).tobytes() for c in copy._shift_floats] == [np.float64(shift).tobytes()] * mon.dim
        assert len(sources) == 1 and "- c[" in sources[0]
        assert_no_float_literal(sources[0])

    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_each_monitor_reads_with_its_own_shift(self, kind, monkeypatch):
        # A restricted monitor, its for_formula copy and replace copies with
        # another shift all certify through one decoder, shared with a
        # fragment-wide monitor of the same layout.
        mon, f = calibrated(kind)
        wide = calibrated("rolling")[0] if kind == "observer" else mon
        # A history formula with names no other test uses, so its decoder
        # is new; a semantic monitor has a dictionary of its own.
        names = ("p0", "p1") if kind == "semantic" else ("own_shift_0", "own_shift_1")
        g = parse_formula(f"G[0,1] {names[0]}", names)
        shared = wide.decoder(g)
        assert shared is mon.decoder(g)
        values = tie_heavy(np.random.default_rng(59), mon.dim)
        basis = BasisVector(mon.basis_kind, values, mon.k_max)
        before = certified_lower_bound(wide, basis, shared)
        assert before == decode_values(shared, values - wide.shift)

        sources = generated_sources(monkeypatch)
        narrow = mon.for_formula(f)
        assert shared.support < narrow.support
        first = certified_lower_bound(narrow, basis, shared)
        assert len(sources) == 1 and "read_shifted" in vars(shared)
        # No copy inherits the shift's float list, and for_formula and
        # replace generate nothing.
        child = narrow.for_formula(g)
        field = "coord_radii" if kind == "observer" else "radius"
        larger = replace(narrow, **{field: getattr(narrow, field) + 1.0})
        copies = [child, larger, replace(narrow)]
        assert all("_shift_floats" not in vars(copy) for copy in copies)
        assert certified_lower_bound(larger, basis, shared) < first
        for copy in [narrow, *copies]:
            got = certified_lower_bound(copy, basis, shared)
            want = copy_and_subtract_bound(copy, basis, shared)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert copy._shift_floats == copy.shift.tolist()
        # Every monitor reads through the decoder's one shifted read-out.
        assert len(sources) == 1
        # The shared decoder's plain read-out still reads the unshifted values.
        again = BasisVector(mon.basis_kind, values, mon.k_max)
        assert np.float64(certified_lower_bound(wide, again, shared)).tobytes() == np.float64(before).tobytes()

    def test_read_out_kept_for_another_decoder_is_not_used(self):
        # Each decoder object generates and keeps its own shifted read-out:
        # an equal decoder from elsewhere (here unpickled) uses its own, and
        # a read-out planted on another decoder is never read for this one.
        mon, f = calibrated("rolling")
        narrow = mon.for_formula(f)
        dec = narrow.decoder(f)
        other = pickle.loads(pickle.dumps(dec))
        assert other == dec and other is not dec and replace(narrow).decoder(f) is dec
        other.__dict__["read_shifted"] = lambda v, c, lo, hi: 99.0
        basis = BasisVector(mon.basis_kind, np.arange(mon.dim, dtype=float), mon.k_max)
        assert certified_lower_bound(narrow, basis, dec) == copy_and_subtract_bound(narrow, basis, dec)
        assert certified_lower_bound(narrow, basis, other) == 99.0
        assert dec.read_shifted is not other.read_shifted

    def test_read_outs_are_freed_with_their_decoders(self):
        # A caller compiling for every call gets the one decoder and its one
        # shifted read-out, and leaves nothing behind on the monitor; the
        # monitor is freed as soon as it is dropped, while the decoder it
        # shares with its parent lives on, and both go with their formula.
        mon, _ = calibrated("rolling")
        names = ("freed_with_decoders_0", "freed_with_decoders_1")  # in no other test
        f = parse_formula(f"G[0,1] {names[0]} | F[0,2] {names[1]}", names)
        narrow = mon.for_formula(f)
        basis = BasisVector(mon.basis_kind, np.arange(mon.dim, dtype=float), mon.k_max)
        want = certified_lower_bound(narrow, basis, narrow.decoder(f))
        state = dict(vars(narrow))
        shared = mon.decoder(f).read_shifted
        for _ in range(1_000):
            dec = compile_history_decoder(f, mon.m, mon.k_max)
            assert certified_lower_bound(narrow, basis, dec) == want
            assert dec.read_shifted is shared
        del dec
        assert vars(narrow).keys() == state.keys()
        gone = weakref.ref(narrow)
        del narrow
        assert gone() is None and mon.decoder(f).read_shifted is shared
        refs = [weakref.ref(x) for x in (f, mon.decoder(f), shared)]
        del f, shared
        assert [r() for r in refs] == [None] * 3

    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_a_for_formula_copy_generates_nothing(self, kind, monkeypatch):
        # Once a decoder has certified for one restricted monitor, every
        # for_formula copy that certifies with it, on its first call too,
        # generates no source: the read-out belongs to the decoder.
        mon, f = calibrated(kind)
        first = mon.for_formula(f)
        basis = BasisVector(mon.basis_kind, tie_heavy(np.random.default_rng(61), mon.dim), mon.k_max)
        certified_lower_bound(first, basis, first.decoder(f))
        sources = generated_sources(monkeypatch)
        copies = [mon.for_formula(f) for _ in range(3)] + [first.for_formula(f)]
        for copy in copies:
            assert copy.decoder(f) is first.decoder(f)
            got = certified_lower_bound(copy, basis, copy.decoder(f))
            want = copy_and_subtract_bound(copy, basis, copy.decoder(f))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert sources == []

    def test_pickled_monitors_and_decoders_carry_no_read_outs(self):
        # An unpickled monitor holds no decoder: it reads through the
        # layout's one decoder. An unpickled decoder comes back without its
        # read-outs and generates its own.
        mon, _ = calibrated("observer")
        f = parse_formula("G[0,2] p0", ("p0", "p1"))
        basis = BasisVector(mon.basis_kind, np.arange(mon.dim, dtype=float), mon.k_max)
        want = certified_lower_bound(mon, basis, mon.decoder(f))
        back = pickle.loads(pickle.dumps(mon))
        assert back.decoder(f) is mon.decoder(f)
        assert certified_lower_bound(back, basis, back.decoder(f)) == want
        dec = pickle.loads(pickle.dumps(mon.decoder(f)))
        assert "read_shifted" in vars(mon.decoder(f)) and "read_shifted" not in vars(dec)
        assert certified_lower_bound(back, basis, dec) == want
        assert "read_shifted" in vars(dec) and dec.read_shifted is not mon.decoder(f).read_shifted


class TestReadOutsFreedByReferenceCounting:
    """Generated read-outs are in no reference cycle, so they die on
    ``del`` with the cycle collector switched off."""

    @pytest.fixture(autouse=True)
    def no_cycle_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_dropped_formulas_free_their_decoders_and_read_outs(self):
        # A history decoder lives on its formula: dropping the decoder or a
        # restricted monitor that read with it frees neither the decoder nor
        # its read-outs; dropping the formula frees them all, and its nodes.
        mon, _ = calibrated("rolling")
        basis = BasisVector(mon.basis_kind, np.arange(mon.dim, dtype=float), mon.k_max)
        names = ("freed_by_refcount_0", "freed_by_refcount_1")  # in no other test
        f = parse_formula(f"G[0,1] {names[0]} | F[0,2] {names[1]}", names)
        dec = compile_history_decoder(f, mon.m, mon.k_max)
        decode_values(dec, basis.values)
        fragment.decode_series(dec, basis.values[:, None])
        narrow = mon.for_formula(f)
        certified_lower_bound(narrow, basis, narrow.decoder(f))
        refs = [weakref.ref(x) for x in (dec, dec.read, dec.read_series, dec.read_shifted)]
        monitor = weakref.ref(narrow)
        del dec, narrow
        assert monitor() is None and all(r() is not None for r in refs)
        nodes = [weakref.ref(node) for node in (f, f.left, f.left.child, f.right.child)]
        del f
        assert [r() for r in refs + nodes] == [None] * 8

    def test_dropped_dictionaries_and_formulas_free_semantic_decoders(self):
        # A semantic decoder lives on its dictionary while its formula lives:
        # it goes with either.
        names = ("freed_semantic_0", "freed_semantic_1")  # in no other test
        f = parse_formula(f"G[0,1] {names[0]} & F[0,2] {names[1]}", names)
        for drop in ("dictionary", "formula"):
            d = build_depth1_dictionary(2, ((0, 1), (0, 2)), names)
            dec = compile_semantic_decoder(f, d)
            decode_values(dec, np.arange(d.r, dtype=float))
            refs = [weakref.ref(dec), weakref.ref(dec.read)]
            del dec
            assert all(r() is not None for r in refs)
            if drop == "dictionary":
                del d
            else:
                table = d._decoders
                del f
                assert len(table) == 0
            assert [r() for r in refs] == [None] * 2


class TestChecksEveryCall:
    """Every mismatch of monitor, decoder and snapshot raises on every call,
    also once the monitor has certified from the snapshot: the decoder is
    checked on every call; the snapshot before a fragment-wide monitor's
    shrink of it is stored, and on every call of a restricted monitor,
    which stores none."""

    @staticmethod
    def warm(mon, basis, dec):
        certified_lower_bound(mon, basis, dec)
        if mon.support is None:
            assert mon in basis._shrunk
        else:
            assert mon not in basis._shrunk and "read_shifted" in vars(dec)

    def semantic(self):
        d = tiny_dictionary()
        eps = tiny_episodes(np.random.default_rng(1), d, 6)
        stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        return d, mon, BasisVector(BasisKind.SEMANTIC, np.zeros(d.r), d.K_max)

    def test_history_decoder_on_semantic_monitor(self):
        d, mon, basis = self.semantic()
        f = parse_formula("G[0,1] p0", d.predicate_names)
        self.warm(mon, basis, mon.decoder(f))
        with pytest.raises(BasisMismatchError):
            certified_lower_bound(mon, basis, compile_history_decoder(f, d.m, d.K_max))

    def test_decoder_outside_restricted_support(self):
        d, wide, basis = self.semantic()
        f = parse_formula("G[0,1] p0", d.predicate_names)
        narrow = wide.for_formula(f)
        self.warm(narrow, basis, narrow.decoder(f))
        other = narrow.decoder(parse_formula("F[0,2] p1", d.predicate_names))
        with pytest.raises(SupportMismatchError):
            certified_lower_bound(narrow, basis, other)

    def test_decoder_of_another_dimension(self):
        mon = history_monitor(1, 1)
        f = parse_formula("G[0,1] p0", ("p0",))
        basis = BasisVector(BasisKind.PREDICATE_HISTORY, [2.0, 3.0], 1)
        self.warm(mon, basis, mon.decoder(f))
        with pytest.raises(BasisMismatchError):
            certified_lower_bound(mon, basis, compile_history_decoder(f, 1, 2))

    def test_snapshot_of_another_kind_refused_on_every_call(self):
        d, sem, basis = self.semantic()
        f = parse_formula("G[0,1] p0", d.predicate_names)
        self.warm(sem, basis, sem.decoder(f))
        # A history monitor of the same dimension reads the semantic snapshot.
        rolling = replace(sem, kind="rolling", layout=HistoryLayout(1, d.r - 1), cache=None)
        dec = rolling.decoder(parse_formula("p0", ("p0",)))
        want = f"decoder reads {BasisKind.PREDICATE_HISTORY.value}, basis is {BasisKind.SEMANTIC.value}"
        for _ in range(3):
            with pytest.raises(BasisMismatchError, match=want):
                certified_lower_bound(rolling, basis, dec)
        assert list(basis._shrunk) == [sem]

    def test_snapshot_of_another_dimension_refused_on_every_call(self):
        short, long = history_monitor(1, 1), history_monitor(1, 2)
        basis = BasisVector(BasisKind.PREDICATE_HISTORY, [2.0, 3.0], 2)
        self.warm(short, basis, short.decoder(parse_formula("G[0,1] p0", ("p0",))))
        dec = long.decoder(parse_formula("G[0,2] p0", ("p0",)))
        for _ in range(3):
            with pytest.raises(BasisMismatchError, match="monitor dimension 3 vs decoder 3 vs basis 2"):
                certified_lower_bound(long, basis, dec)
        assert list(basis._shrunk) == [short]

    def test_equal_decoder_of_another_copy_takes_the_subset_test(self, monkeypatch):
        # The copy's own decoder passes on identity; an equal decoder that is
        # another object, or one reading part of the support, passes the
        # subset test. None of them reaches _check_certifiable, which only
        # builds the error; a decoder reading one coordinate more does.
        d, wide, basis = self.semantic()
        names = d.predicate_names
        f = parse_formula("G[0,1] p0 & F[0,2] p1", names)
        narrow = wide.for_formula(f)
        own = narrow.decoder(f)
        twin = pickle.loads(pickle.dumps(own))  # equal, not the same
        inner = narrow.decoder(parse_formula("G[0,1] p0", names))
        wider = narrow.decoder(parse_formula("G[0,1] p0 & F[0,2] p1 & F[0,1] p0", names))
        assert twin == own and twin is not own and twin.support is not narrow.support
        assert own.support is narrow.support and inner.support < narrow.support < wider.support
        checks = []

        def counting(*args, real=conformal._check_certifiable):
            checks.append(args[-1])
            return real(*args)

        monkeypatch.setattr(conformal, "_check_certifiable", counting)
        want = certified_lower_bound(narrow, basis, own)
        assert certified_lower_bound(narrow, basis, twin) == want
        assert certified_lower_bound(narrow, basis, inner) == decode_values(inner, basis.values - narrow.shift)
        assert checks == [] and narrow not in basis._shrunk
        assert all("read_shifted" in vars(dec) for dec in (own, twin, inner))
        for _ in range(2):
            with pytest.raises(SupportMismatchError, match=r"coordinates \[\d+\] outside the calibrated support"):
                certified_lower_bound(narrow, basis, wider)
        assert checks == [wider, wider]

    def test_streaming_verdicts_are_monitor_verdicts(self):
        # The streaming functions build their verdicts directly; each must be
        # the record _verdict and _warming build. Ties count as safe, so a
        # bound of -0.0 (a -0.0 value shrunk by a zero shift) is safe.
        d, sem, _ = self.semantic()
        f = parse_formula("G[0,1] p0", d.predicate_names)
        zero = replace(sem, radius=0.0)
        obs = self.observer()
        obs_zero = replace(obs, coord_radii=np.zeros(obs.dim))
        g = parse_formula("G[0,1] p0", ("p0",))
        got = []
        for t in range(zero.k_max + 2):
            basis = BasisVector(BasisKind.SEMANTIC, np.full(d.r, -0.0), t)
            got.append((semantic_certify(basis, zero, f), zero.decoder(f)))
        for certify, mon in ((rolling_certify, history_monitor(1, 2)), (observer_certify, obs_zero)):
            buf = RollingBuffer(1, mon.k_max)
            for t in range(mon.k_max + 2):
                buf.push([-0.0])
                got.append((certify(buf, mon, g), mon.decoder(g)))
        assert {v.label for v, _ in got} == {Label.WARMING_UP, Label.SAFE}
        for v, dec in got:
            want = _warming(v.t, dec.formula) if v.lower_bound is None else _verdict(v.t, dec.formula, -0.0)
            assert type(v) is MonitorVerdict and v == want and v.label is want.label
            if v.lower_bound is not None:
                assert np.signbit(v.lower_bound) and v.label is Label.SAFE

    def test_layout_of_copies(self):
        d, sem, _ = self.semantic()
        assert (sem.basis_kind, sem.dim) == (BasisKind.SEMANTIC, d.r)
        rolling = replace(sem, kind="rolling", layout=HistoryLayout(d.m, d.K_max),
                          sigma=np.ones(d.m * (d.K_max + 1)), cache=None)
        assert (rolling.basis_kind, rolling.dim) == (BasisKind.PREDICATE_HISTORY, d.m * (d.K_max + 1))
        wider = f"sigma's size is {rolling.dim + 1}, but the basis dimension is {rolling.dim}"
        with pytest.raises(ValueError, match=wider):
            replace(rolling, sigma=np.ones(rolling.dim + 1))
        narrow = sem.for_formula(parse_formula("G[0,1] p0", d.predicate_names))
        assert (narrow.basis_kind, narrow.dim) == (BasisKind.SEMANTIC, d.r)
        obs = self.observer()  # built by for_formula
        assert (obs.basis_kind, obs.dim) == (BasisKind.PREDICATE_HISTORY, 3)

    @staticmethod
    def observer():
        eps = [random_episode(np.random.default_rng(2), 1, 6) for _ in range(9)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=0)
        return observer_calibrate(eps, stub, parse_formula("G[0,1] p0", ("p0",)), 0.1, k_max=2)

    def test_layout_after_round_trip(self, tmp_path):
        d, sem, _ = self.semantic()
        rolling = replace(sem, kind="rolling", layout=HistoryLayout(d.m, d.K_max),
                          sigma=np.ones(d.m * (d.K_max + 1)), cache=None)
        for mon in (sem, rolling, self.observer()):
            mon.basis_kind, mon.dim  # cached on the saved monitor before it is written
            save_monitor(mon, tmp_path / f"{mon.kind}.json")
            back = load_monitor(tmp_path / f"{mon.kind}.json")
            assert (back.basis_kind, back.dim) == (mon.basis_kind, mon.dim)


class TestEstimateSigma:
    def test_no_episodes_rejected_up_front(self):
        d = tiny_dictionary()
        stub = PredictorStub(mode="semantic", scale=0.1, seed=0, dictionary=d)
        with pytest.raises(ValueError, match="sigma estimation needs at least one episode"):
            estimate_sigma([], stub, d)

    def test_constant_error_recovered(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(3)
        eps = tiny_episodes(rng, d, 4)
        stub = PredictorStub(mode="semantic", scale=0.0, bias=0.4, seed=0, dictionary=d)
        sigma = estimate_sigma(eps, stub, d)
        assert np.allclose(sigma, 0.4)

    def test_floor_applies(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(3)
        eps = tiny_episodes(rng, d, 4)
        stub = PredictorStub(mode="semantic", scale=0.0, bias=0.0, seed=0, dictionary=d)
        sigma = estimate_sigma(eps, stub, d)  # perfect predictor
        assert np.allclose(sigma, 1e-6)

    def test_underestimation_counts(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(3)
        eps = tiny_episodes(rng, d, 4)
        stub = PredictorStub(mode="semantic", scale=0.0, bias=-1.0, seed=0, dictionary=d)
        sigma = estimate_sigma(eps, stub, d)
        assert np.allclose(sigma, 1.0)

    def test_unbiased_noise_stays_off_floor(self):
        # a median-unbiased predictor must yield a usable scale, not the
        # floor (one-sided medians would be identically zero here)
        d = tiny_dictionary()
        rng = np.random.default_rng(3)
        eps = tiny_episodes(rng, d, 12)
        stub = PredictorStub(mode="semantic", scale=0.1, bias=0.0, seed=5, dictionary=d)
        sigma = estimate_sigma(eps, stub, d)
        assert sigma.min() > 0.02  # median |N(0, 0.1)| is about 0.067


class TestObserver:
    def test_constant_bias_exact(self):
        rng = np.random.default_rng(6)
        eps = [random_episode(rng, 1, 6) for _ in range(9)]
        stub = PredictorStub(mode="predicates", scale=0.0, bias=-0.5, seed=0)
        f = parse_formula("G[0,1] p0", ("p0",))
        mon = observer_calibrate(eps, stub, f, 0.1, k_max=1)
        assert mon.kind == "observer"
        assert mon.radius == pytest.approx(0.5)  # symmetric |error|
        assert mon.support == {0, 1}
        assert np.allclose(mon.coord_radii[[0, 1]], 0.5)
        assert mon.cache.symmetric

    def test_radius_is_max_of_coordinate_quantiles(self):
        rng = np.random.default_rng(16)
        eps = [random_episode(rng, 2, 10) for _ in range(30)]
        stub = PredictorStub(mode="predicates", scale=0.3, seed=4)
        f = parse_formula("G[0,2] p0 & F[0,1] p1", ("p0", "p1"))
        mon = observer_calibrate(eps, stub, f, 0.1, k_max=2, tau_seed=2)
        support = sorted(mon.support)
        alpha_bonf = 0.1 / len(support)
        per_coord = [
            split_quantile(mon.cache.matrix[:, j], alpha_bonf) for j in support
        ]
        assert mon.radius == pytest.approx(max(per_coord))
        for j, q in zip(support, per_coord):
            assert mon.coord_radii[j] == pytest.approx(q)

    def test_bonferroni_widens_with_support(self):
        rng = np.random.default_rng(17)
        eps = [random_episode(rng, 1, 12) for _ in range(40)]
        stub = PredictorStub(mode="predicates", scale=0.3, seed=4)
        small = observer_calibrate(eps, stub, parse_formula("G[0,1] p0", ("p0",)), 0.1, k_max=8, tau_seed=2)
        big = observer_calibrate(eps, stub, parse_formula("G[0,8] p0", ("p0",)), 0.1, k_max=8, tau_seed=2)
        assert big.radius >= small.radius

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_sigma_predicates_rejected(self, bad):
        rng = np.random.default_rng(18)
        eps = [random_episode(rng, 2, 6) for _ in range(5)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=0)
        f = parse_formula("G[0,1] p0", ("p0", "p1"))
        with pytest.raises(ValueError, match="finite"):
            observer_calibrate(eps, stub, f, 0.1, sigma_predicates=np.array([1.0, bad]))


class TestIntervalPropagate:
    def test_frozen_example(self):
        f = parse_formula("G[0,1] p0 & F[0,1] p1", ("p0", "p1"))
        lower = np.array([0.1, 0.3, -1.0, 0.1])
        upper = np.array([0.5, 0.6, -0.5, 0.5])
        lo, hi = interval_propagate(f, lower, upper, 2, 1)
        assert lo == pytest.approx(0.1)
        assert hi == pytest.approx(0.5)

    def test_crossed_bounds_rejected(self):
        f = parse_formula("G[0,1] p0", ("p0",))
        with pytest.raises(ValueError):
            interval_propagate(f, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1, 1)

    def test_nan_bounds_rejected_and_infinite_ones_kept(self):
        # ``lo > hi`` is false for NaN, so a NaN bound would decode to NaN.
        f = parse_formula("G[0,1] p0", ("p0",))
        for lower, upper in (([0.0, math.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.nan])):
            with pytest.raises(ValueError, match="NaN or crossed bounds at coordinate 1"):
                interval_propagate(f, np.array(lower), np.array(upper), 1, 1)
        lo, hi = interval_propagate(f, np.array([-math.inf, 0.5]), np.array([2.0, math.inf]), 1, 1)
        assert (lo, hi) == (-math.inf, 2.0)

    def test_one_formula_compiles_once(self, monkeypatch):
        # 1,000 calls through one formula compile its decoder and generate
        # its read-out once, on the first call.
        names = ("once_p0", "once_p1", "once_p2")  # in no other test
        f = parse_formula("G[0,8] (once_p0 | F[0,3] once_p1) & F[0,5] once_p2", names)
        compiles = []
        real = fragment._history_decoder
        monkeypatch.setattr(fragment, "_history_decoder", lambda *args: compiles.append(args) or real(*args))
        sources = generated_sources(monkeypatch)
        rng = np.random.default_rng(41)
        for _ in range(1_000):
            x = rng.normal(size=3 * 17)
            lo, hi = interval_propagate(f, x - 1.0, x + 1.0, 3, 16)
            assert lo == decode_values(compile_history_decoder(f, 3, 16), x - 1.0) and lo <= hi
        assert len(compiles) == 1 and len(sources) == 1 and sources[0].startswith("def read(v, lo, hi)")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_brackets_the_point_value(self, seed):
        from helpers import naive_robustness, random_pnf_formula
        from ptmon.logic import horizon
        from ptmon.robustness import predicate_history_basis

        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=2, depth=2)
        k_max = horizon(f)
        ep = random_episode(rng, 2, k_max + 3)
        t = k_max + 1
        x = predicate_history_basis(ep, k_max, t).values
        lower = x - np.abs(rng.normal(size=x.shape))
        upper = x + np.abs(rng.normal(size=x.shape))
        lo, hi = interval_propagate(f, lower, upper, 2, k_max)
        rho = naive_robustness(f, ep.mu, t)
        assert lo <= rho <= hi


class TestScoreCacheLayout:
    def test_matrix_is_a_read_only_column_major_copy(self):
        given = np.arange(6.0).reshape(3, 2)
        cache = ScoreCache(given, level=2, seed=0)
        assert cache.matrix.shape == (3, 2) and cache.matrix.flags.f_contiguous
        with pytest.raises(ValueError):
            cache.matrix[0, 0] = 9.0
        given[0, 0] = 9.0
        assert np.array_equal(cache.matrix, np.arange(6.0).reshape(3, 2))

    def test_columns_are_sorted_once(self):
        scores = np.random.default_rng(22).normal(size=(20, 4))
        cache = ScoreCache(scores, level=2, seed=0)
        assert cache.column_quantiles([1, 3], 0.1).tobytes() == split_quantile(scores[:, [1, 3]], 0.1).tobytes()
        kept = cache._sorted_columns
        assert cache.column_quantiles([0], 0.5).tobytes() == split_quantile(scores[:, [0]], 0.5).tobytes()
        assert cache._sorted_columns is kept and not kept.flags.writeable


class TestPersistence:
    def test_score_cache_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        cache = ScoreCache(rng.normal(size=(7, 4)), level=1, seed=3, symmetric=True)
        path = tmp_path / "c.npz"
        save_score_cache(cache, path)
        back = load_score_cache(path)
        assert np.array_equal(back.matrix, cache.matrix)
        assert back.level == 1 and back.seed == 3 and back.symmetric

    @staticmethod
    def _tampered_cache(tmp_path, **changes):
        """Save a valid cache, rewrite some of its fields, return the path."""
        rng = np.random.default_rng(15)
        path = tmp_path / "c.npz"
        save_score_cache(ScoreCache(rng.normal(size=(40, 3)), level=2, seed=0), path)
        with np.load(path) as data:
            fields = {**data, **changes}
        np.savez(path, **fields)
        return path

    def test_load_rejects_nonfinite_scores(self, tmp_path):
        matrix = np.random.default_rng(16).normal(size=(40, 3))
        matrix[:25, 1] = np.nan
        path = self._tampered_cache(tmp_path, matrix=matrix)
        with pytest.raises(ValueError, match="non-finite"):
            load_score_cache(path)

    def test_load_rejects_unknown_level(self, tmp_path):
        path = self._tampered_cache(tmp_path, level=np.int64(7))
        with pytest.raises(ValueError, match="level must be 1 or 2"):
            load_score_cache(path)

    def test_monitor_round_trip_semantic(self, tmp_path):
        d = tiny_dictionary()
        rng = np.random.default_rng(13)
        eps = tiny_episodes(rng, d, 9)
        stub = PredictorStub(mode="semantic", scale=0.2, seed=3, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        mon = replace(mon, predictor_config=stub.to_json())
        path = tmp_path / "mon.json"
        save_monitor(mon, path)
        assert (tmp_path / "mon.scores.npz").exists()
        back = load_monitor(path)
        assert back.kind == mon.kind
        assert back.radius == mon.radius
        assert back.dictionary == d
        assert np.array_equal(back.cache.matrix, mon.cache.matrix)
        assert back.predictor_config == stub.to_json()

    def test_loads_of_one_model_share_its_dictionary_and_decoders(self, tmp_path, monkeypatch):
        names = ("loaded_once_0", "loaded_once_1")  # in no other test
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)), names)
        eps = tiny_episodes(np.random.default_rng(17), d, 9)
        stub = PredictorStub(mode="semantic", scale=0.2, seed=3, dictionary=d)
        path = tmp_path / "mon.json"
        save_monitor(calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d), path)
        built = []
        real = fragment._semantic_decoder

        def counting(f, dictionary):
            built.append(format_formula(f))
            return real(f, dictionary)

        monkeypatch.setattr(fragment, "_semantic_decoder", counting)
        first, second = load_monitor(path), load_monitor(path)
        assert first.layout is second.layout
        assert first.layout == d and first.layout is not d
        texts = (f"G[0,1] {names[0]}", f"F[0,2] {names[1]} | G[0,2] {names[0]}")
        formulas = [parse_formula(t, names) for t in texts]
        assert [first.decoder(f) for f in formulas] == [second.decoder(f) for f in formulas]
        assert built == list(texts)
        # Held by nothing else, the loaded dictionary goes with its monitors.
        layout = weakref.ref(first.layout)
        del first, second
        assert layout() is None
        assert load_monitor(path).decoder(formulas[0]).formula == texts[0]
        assert built == [*texts, texts[0]]

    def test_monitor_round_trip_observer(self, tmp_path):
        rng = np.random.default_rng(14)
        eps = [random_episode(rng, 1, 6) for _ in range(9)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=0)
        f = parse_formula("G[0,1] p0", ("p0",))
        mon = observer_calibrate(eps, stub, f, 0.1, k_max=1)
        path = tmp_path / "obs.json"
        save_monitor(mon, path)
        back = load_monitor(path)
        assert back.kind == "observer"
        assert back.formula == format_formula(f)
        assert np.array_equal(back.coord_radii, mon.coord_radii)
        assert back.support == mon.support

    @staticmethod
    def _rolling(n, level, tau_seed=0):
        rng = np.random.default_rng(22)
        eps = [random_episode(rng, 2, 8) for _ in range(n)]
        stub = PredictorStub(mode="predicates", scale=0.2, seed=3)
        return calibrate(eps, stub, ScoreConfig(sigma=np.ones(6), alpha=0.1, level=level), (2, 2), tau_seed=tau_seed)

    @staticmethod
    def _rewrite(path, **changes):
        obj = json.loads(path.read_text())
        path.write_text(json.dumps({**obj, **changes}))

    @pytest.mark.parametrize("donor, message", [
        ("semantic", "the score cache's column count is 8, but the basis dimension is 6"),
        ("12 episodes", "the score cache's row count is 12, but n_calibration is 9"),
        ("level 1", "the score cache's level is 1, but the monitor's level is 2"),
        ("seed 5", "the score cache's seed is 5, but the monitor's seed is 0"),
        ("observer", "the score cache's symmetric flag is True, but the rolling kind's is False"),
    ])
    def test_model_naming_another_models_cache_is_refused(self, tmp_path, donor, message):
        other = {"semantic": lambda: calibrated("semantic")[0], "12 episodes": lambda: self._rolling(12, 2),
                 "level 1": lambda: self._rolling(9, 1), "seed 5": lambda: self._rolling(9, 2, tau_seed=5),
                 "observer": lambda: calibrated("observer")[0]}[donor]()
        save_monitor(other, tmp_path / "other.json")
        save_monitor(self._rolling(9, 2), tmp_path / "roll.json")
        self._rewrite(tmp_path / "roll.json", score_cache_path="other.scores.npz")
        with pytest.raises(ValueError, match=re.escape(f"inconsistent rolling monitor: {message}")):
            load_monitor(tmp_path / "roll.json")

    def test_observer_naming_a_one_sided_cache_is_refused(self, tmp_path):
        save_monitor(self._rolling(9, 2), tmp_path / "roll.json")
        save_monitor(calibrated("observer")[0], tmp_path / "obs.json")
        self._rewrite(tmp_path / "obs.json", score_cache_path="roll.scores.npz")
        message = "inconsistent observer monitor: the score cache's symmetric flag is False, but the observer kind's is True"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_monitor(tmp_path / "obs.json")

    @pytest.mark.parametrize("kind, key", [("semantic", "sigma"), ("rolling", "sigma"), ("observer", "coord_radii")])
    def test_model_with_a_short_vector_is_refused(self, tmp_path, kind, key):
        mon, _ = calibrated(kind)
        save_monitor(mon, tmp_path / "m.json")
        self._rewrite(tmp_path / "m.json", **{key: getattr(mon, key)[:5].tolist()})
        with pytest.raises(ValueError, match=re.escape(f"{key}'s size is 5, but the basis dimension is {mon.dim}")):
            load_monitor(tmp_path / "m.json")

    def test_absolute_cache_path_is_read_as_it_stands(self, tmp_path):
        mon, _ = calibrated("rolling")
        save_monitor(mon, tmp_path / "m.json")
        assert json.loads((tmp_path / "m.json").read_text())["score_cache_path"] == "m.scores.npz"
        (tmp_path / "elsewhere").mkdir()
        moved = tmp_path / "elsewhere" / "m.json"
        moved.write_text((tmp_path / "m.json").read_text())
        self._rewrite(moved, score_cache_path=str(tmp_path / "m.scores.npz"))
        assert load_monitor(moved).cache.matrix.tobytes() == mon.cache.matrix.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["semantic", "rolling", "observer"]),
        st.booleans(),
        st.one_of(st.none(), st.floats(-1e6, 1e6)),
    )
    def test_monitor_round_trip_is_exact(self, seed, kind, specialise, radius):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.05, 0.5))
        if kind == "semantic":
            d = tiny_dictionary()
            eps = tiny_episodes(rng, d, 12)
            stub = PredictorStub(mode="semantic", scale=0.2, bias=-0.05, seed=seed, dictionary=d)
            sigma = rng.uniform(0.5, 2.0, size=d.r)
            mon = calibrate(eps, stub, ScoreConfig(sigma=sigma, alpha=alpha, level=1), d)
            f = random_fragment_formula(rng, d)
        else:
            m, k_max = 2, 4
            eps = [random_episode(rng, m, 10) for _ in range(12)]
            stub = PredictorStub(mode="predicates", scale=0.2, seed=seed)
            f = random_pnf_formula(rng, m, depth=2, max_b=2)
            if kind == "rolling":
                sigma = rng.uniform(0.5, 2.0, size=m * (k_max + 1))
                cfg = ScoreConfig(sigma=sigma, alpha=alpha, level=2)
                mon = calibrate(eps, stub, cfg, (m, k_max), tau_seed=seed % 97)
            else:
                mon = observer_calibrate(eps, stub, f, alpha, k_max=k_max, tau_seed=seed % 97,
                                         sigma_predicates=rng.uniform(0.5, 2.0, size=m))
        if specialise and kind != "observer":
            mon = mon.for_formula(f)
        if radius is not None and kind != "observer":
            mon = replace(mon, radius=radius)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mon.json"
            save_monitor(mon, path)
            back = load_monitor(path)

        def same(a, b):
            return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

        assert same(back.radius, mon.radius)
        assert same(back.sigma, mon.sigma)
        assert (back.coord_radii is None) == (mon.coord_radii is None)
        if mon.coord_radii is not None:
            assert same(back.coord_radii, mon.coord_radii)
        assert back.support == mon.support
        assert back.formula == mon.formula
        assert same(back.cache.matrix, mon.cache.matrix)
        assert back.cache.matrix.shape == mon.cache.matrix.shape
        predicted = rng.normal(size=(mon.dim, 6))
        d_mon, d_back = mon.decoder(f), back.decoder(f)
        (got,) = certified_lower_bounds(back, predicted, [d_back])
        (want,) = certified_lower_bounds(mon, predicted, [d_mon])
        assert same(got, want)

    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_pickled_and_reloaded_monitors_answer_queries_alike(self, kind, tmp_path):
        # Each source reads the support's columns through a decoder's
        # support index: the shared one, or a fresh one for a semantic
        # source's own dictionary; so does an unpickled decoder, whose index
        # is rebuilt.
        mon, f = calibrated(kind)
        want = mon.for_formula(f)
        index = pickle.loads(pickle.dumps(mon.decoder(f))).support_index
        if kind == "observer":
            radius = np.maximum.reduce(mon.cache.column_quantiles(index, mon.alpha / len(index)))
        else:
            radius = conformal._radius(mon.cache, index, mon.alpha)
        assert np.float64(radius).tobytes() == np.float64(want.radius).tobytes()
        save_monitor(mon, tmp_path / "m.json")
        sources = [pickle.loads(pickle.dumps(mon)), pickle.loads(pickle.dumps(want)),
                   load_monitor(tmp_path / "m.json")]
        for source in sources:
            got = source.for_formula(f)
            # A semantic source has a dictionary of its own, so a decoder of
            # its own; a history one shares f's decoder for the layout.
            assert (got.decoder(f) is mon.decoder(f)) == (kind != "semantic")
            assert got.support == want.support and got.formula == want.formula
            assert np.float64(got.radius).tobytes() == np.float64(want.radius).tobytes()
            assert (got.coord_radii is None) == (want.coord_radii is None)
            if want.coord_radii is not None:
                assert got.coord_radii.tobytes() == want.coord_radii.tobytes()

    # The fields every model file writes first, in this order.
    LEADING_KEYS = ["version", "kind", "level", "alpha", "radius", "sigma", "n", "seed", "support", "formula",
                    "coord_radii", "predictor"]
    LAYOUT_FIELDS = {
        "semantic": {"dictionary": {"m": 2, "predicate_names": ["p0", "p1"], "atoms": [
            "G[0,1] p0", "F[0,1] p0", "G[0,2] p0", "F[0,2] p0", "G[0,1] p1", "F[0,1] p1", "G[0,2] p1", "F[0,2] p1"]}},
        "rolling": {"m": 2, "k_max": 2},
        "observer": {"m": 2, "k_max": 2},
    }

    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_model_file_format(self, tmp_path, kind):
        # The layout is written just before score_cache_path: the dictionary
        # for a semantic model, m and k_max for a history one.
        save_monitor(calibrated(kind)[0], tmp_path / "m.json")
        obj = json.loads((tmp_path / "m.json").read_text())
        layout = self.LAYOUT_FIELDS[kind]
        assert list(obj) == [*self.LEADING_KEYS, *layout, "score_cache_path"]
        assert {key: obj[key] for key in layout} == layout
        assert all(type(obj[key]) is int for key in layout if key != "dictionary")

    @pytest.mark.parametrize("kind, claimed", [
        ("semantic", "rolling"), ("semantic", "observer"), ("rolling", "semantic"), ("observer", "semantic"),
    ])
    def test_kind_contradicting_the_layout_fields_is_refused(self, tmp_path, kind, claimed):
        save_monitor(calibrated(kind)[0], tmp_path / "m.json")
        self._rewrite(tmp_path / "m.json", kind=claimed)
        with pytest.raises(ValueError):
            load_monitor(tmp_path / "m.json")

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_guard(self, tmp_path, version):
        """A version-1 model was calibrated under other draws of noise and
        level-2 times: it is refused with the fix named."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": version}))
        with pytest.raises(ValueError, match=f"unsupported monitor version {version} .*re-run 'ptmon calibrate'"):
            load_monitor(path)


class TestPredictedBasis:
    def test_history_columns_are_stacked_steps(self):
        rng = np.random.default_rng(19)
        ep = random_episode(rng, 2, 7)
        stub = PredictorStub(mode="predicates", scale=0.2, seed=9)
        got = predicted_basis(ep, stub, (2, 3))
        pred = stub.predict(ep)
        assert got.shape == (8, 5)
        for t in range(3, 8):
            for k in range(2):
                for j in range(4):
                    assert got[k * 4 + j, t - 3] == pred[k, t - j]

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        ep = random_episode(rng, 2, 7)
        stub = PredictorStub(mode="predicates", scale=0.2, seed=9)
        with pytest.raises(ValueError, match="predictor/basis mismatch"):
            predicted_basis(ep, stub, (3, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_prediction_rejected(self, bad):
        class Broken:
            def predict(self, ep):
                out = ep.mu.copy()
                out[1, 4] = bad
                return out

        rng = np.random.default_rng(20)
        eps = [random_episode(rng, 2, 7) for _ in range(4)]
        with pytest.raises(ValueError, match="non-finite"):
            predicted_basis(eps[0], Broken(), (2, 3))
        # every calibration reads predictions through predicted_basis
        with pytest.raises(ValueError, match="non-finite"):
            calibrate(eps, Broken(), ScoreConfig(sigma=np.ones(8), alpha=0.1, level=2), (2, 3))

    @pytest.mark.parametrize("mode", ["semantic", "predicates"])
    def test_nonfinite_prediction_in_a_later_episode_of_a_block_names_it(self, mode):
        d = tiny_dictionary()
        rng = np.random.default_rng(21)
        eps = tiny_episodes(rng, d, 6)
        spec = d if mode == "semantic" else (2, 3)
        assert sum(ep.T + 1 for ep in eps) <= conformal._BLOCK_COLUMNS  # one block in either layout
        bad_uid = eps[4].uid
        stub = PredictorStub(mode=mode, seed=1, dictionary=d)

        class BrokenLater:
            def predict(self, ep):
                out = stub.predict(ep)
                if ep.uid == bad_uid:
                    out[0, -1] = np.nan
                return out

        dim = d.r if mode == "semantic" else 8
        with pytest.raises(ValueError, match=re.escape(f"non-finite values for episode {bad_uid}")):
            calibrate(eps, BrokenLater(), ScoreConfig(sigma=np.ones(dim), alpha=0.1, level=1), spec)
        with pytest.raises(ValueError, match=re.escape(f"non-finite values for episode {bad_uid}")):
            estimate_sigma(eps, BrokenLater(), spec)


class TestScoreMatrix:
    def test_level1_rows_dominate_level2(self):
        d = tiny_dictionary()
        rng = np.random.default_rng(15)
        eps = tiny_episodes(rng, d, 6)
        stub = PredictorStub(mode="semantic", scale=0.3, seed=8, dictionary=d)
        sig = np.ones(d.r)
        r1 = score_matrix(eps, stub, d, sig, level=1)
        r2 = score_matrix(eps, stub, d, sig, level=2, tau_seed=0)
        assert (r1 >= r2 - 1e-12).all()

    def test_rolling_rows_match_direct_lag_stacking(self):
        rng = np.random.default_rng(18)
        eps = [random_episode(rng, 2, 7) for _ in range(3)]
        stub = PredictorStub(mode="predicates", scale=0.2, seed=9)
        k_max = 2
        rows = score_matrix(eps, stub, (2, k_max), np.ones(6), level=2, tau_seed=4)
        for i, ep in enumerate(eps):
            tau = sample_level2_time(4, i, k_max, ep.T)
            pred = stub.predict(ep)
            errs = np.maximum(0.0, pred - ep.mu)
            want = np.empty(6)
            for k in range(2):
                for j in range(k_max + 1):
                    want[k * (k_max + 1) + j] = errs[k, tau - j]
            assert np.allclose(rows[i], want)


def mixed_length_episodes(rng, m, k_max, n):
    """``n`` episodes of distinct lengths in random order, so block
    boundaries fall between episodes of different lengths: one with a
    single valid time (``T = k_max``), the rest with 37 to 156, so that
    20 or more of them span more than 3 blocks. Half the margins are tied
    values and signed zeros (``tie_heavy``)."""
    extra = np.concatenate([[0], rng.choice(np.arange(36, 156), size=n - 1, replace=False)])
    return [
        Episode(mu=tie_heavy(rng, (m, k_max + int(T) + 1)), uid=int(rng.integers(1 << 30)))
        for T in rng.permutation(extra)
    ]


class TestBlocksEqualOneEpisodeAtATime:
    """Every calibration reads episodes in blocks; its outputs equal the
    per-episode oracles of ``helpers`` bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_semantic_scores_and_sigma(self, seed):
        rng = np.random.default_rng(seed)
        m = 3
        d = mixed_dictionary(rng, m)
        if not d.window_layout.fallback:  # an atom outside the shared pass in every example
            d = AtomicDictionary((*d.atoms, parse_formula("G[1,3] p0 & F[0,2] p2", ("p0", "p1", "p2"))), m)
        eps = mixed_length_episodes(rng, m, d.K_max, 22)
        assert sum(ep.T - d.K_max + 1 for ep in eps) > 3 * conformal._BLOCK_COLUMNS
        stub = PredictorStub(mode="semantic", scale=0.2, bias=-0.05, ar_coeff=0.5, seed=seed % 97, dictionary=d)
        wholes = [lag_loop_basis_rows(ep.mu, d) for ep in eps]
        true = np.concatenate([t for _, (t,), _ in conformal._episode_blocks(eps, [(stub, d)], [d])], axis=1)
        assert true.tobytes() == np.concatenate(wholes, axis=1).tobytes()
        assert block_truth_at_sampled_times(eps, stub, d, seed % 13) == sampled_columns(wholes, eps, d.K_max, seed % 13)
        sigma = estimate_sigma(eps, stub, d)
        assert sigma.tobytes() == naive_estimate_sigma(eps, stub, d).tobytes()
        for level in (1, 2):
            got = score_matrix(eps, stub, d, sigma, level, tau_seed=seed % 13)
            assert got.tobytes() == naive_score_matrix(eps, stub, d, sigma, level, tau_seed=seed % 13).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_history_scores_sigma_and_observer_cache(self, seed):
        rng = np.random.default_rng(seed)
        m = 2
        f = random_pnf_formula(rng, m, depth=2, max_b=3)
        k_max = max(int(rng.integers(0, 7)), horizon(f))  # the observer's own depth, too
        eps = mixed_length_episodes(rng, m, k_max, 30)
        assert sum(ep.T - k_max + 1 for ep in eps) > 3 * conformal._BLOCK_COLUMNS
        stub = PredictorStub(mode="predicates", scale=0.2, bias=0.05, ar_coeff=0.3, seed=seed % 89)
        spec, layout = (m, k_max), HistoryLayout(m, k_max)  # the oracles read the pair
        wholes = [naive_true_basis(ep, spec) for ep in eps]
        true = np.concatenate([t for _, (t,), _ in conformal._episode_blocks(eps, [(stub, layout)], [layout])], axis=1)
        assert true.tobytes() == np.concatenate(wholes, axis=1).tobytes()
        assert block_truth_at_sampled_times(eps, stub, layout, seed % 11) == sampled_columns(wholes, eps, k_max, seed % 11)
        sigma = estimate_sigma(eps, stub, spec)
        assert sigma.tobytes() == naive_estimate_sigma(eps, stub, spec).tobytes()
        for level in (1, 2):
            got = score_matrix(eps, stub, spec, sigma, level, tau_seed=seed % 11)
            assert got.tobytes() == naive_score_matrix(eps, stub, spec, sigma, level, tau_seed=seed % 11).tobytes()
        sigma_p = rng.uniform(0.5, 2.0, size=m)
        mon = observer_calibrate(eps, stub, f, 0.1, sigma_predicates=sigma_p, k_max=k_max, tau_seed=seed % 7)
        want = naive_observer_rows(eps, stub, m, k_max, np.repeat(sigma_p, k_max + 1), seed % 7)
        assert mon.cache.matrix.tobytes() == want.tobytes()


class TestBlocksOfOneLength:
    """At level 1 a block stacks whole episodes of one length: the next
    episode starts a new block when its length differs or it would pass
    ``_BLOCK_COLUMNS``. At level 2 every window has ``k_max + 1`` steps, so
    only ``_BLOCK_COLUMNS`` ends a block. Either way the blocks follow the
    split order, and their widths are their episodes' own."""

    @pytest.mark.parametrize("tau_seed", [None, 5], ids=["level1", "level2"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_max=st.integers(0, 6))
    def test_blocks_follow_the_split(self, tau_seed, seed, k_max):
        rng = np.random.default_rng(seed)
        # Runs of one to four episodes of each length.
        eps = [ep for ep in mixed_length_episodes(rng, 2, k_max, 12) for _ in range(int(rng.integers(1, 5)))]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=seed % 89)
        layout = HistoryLayout(2, k_max)
        stacks = []
        real_blocks = conformal._block_bases

        def recording(block, *args):
            stacks.append(block[0])
            return real_blocks(block, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conformal, "_block_bases", recording)
            widths = [w for _, _, w in conformal._episode_blocks(eps, [(stub, layout)], [layout], tau_seed)]
        i = 0
        for margins, block_widths in zip(stacks, widths, strict=True):
            n_episodes, _, n = margins.shape
            block, i = eps[i : i + n_episodes], i + n_episodes
            if tau_seed is None:
                assert margins.tobytes() == np.stack([ep.mu for ep in block]).tobytes()
                assert block_widths == [ep.T - k_max + 1 for ep in block]
                steps = n - k_max
                ends = i == len(eps) or eps[i].T + 1 != n or (n_episodes + 1) * steps > conformal._BLOCK_COLUMNS
            else:
                assert n == k_max + 1 and block_widths == [1] * n_episodes
                steps = n
                ends = i == len(eps) or (n_episodes + 1) * steps > conformal._BLOCK_COLUMNS
            assert ends and (n_episodes == 1 or n_episodes * steps <= conformal._BLOCK_COLUMNS)
        assert i == len(eps)


class TestFirstBadPredictionInSplitOrder:
    """Shapes are checked per prediction and finiteness once per block, yet
    a block with two bad predictions raises the first one's error in split
    order, worded as a one-episode check words it."""

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("mode", ["semantic", "predicates"])
    def test_nan_and_wrong_shape_in_one_block(self, mode, level):
        d = tiny_dictionary()
        rng = np.random.default_rng(22)
        eps = tiny_episodes(rng, d, 6)
        assert sum(ep.T + 1 for ep in eps) <= conformal._BLOCK_COLUMNS  # one block
        spec = d if mode == "semantic" else (2, 3)
        stub = PredictorStub(mode=mode, seed=1, dictionary=d)
        expected = (d.r, 7) if mode == "semantic" else (2, 9)
        cfg = ScoreConfig(sigma=np.ones(d.r if mode == "semantic" else 8), alpha=0.1, level=level)

        class Broken:
            def __init__(self, nan_at, short_at):
                self.nan_at, self.short_at = nan_at, short_at

            def predict_block(self, episodes):
                out = stub.predict_block(episodes)
                out[self.nan_at] = out[self.nan_at].copy()
                out[self.nan_at][0, -1] = np.nan
                out[self.short_at] = out[self.short_at][:, :-1]
                return out

        nan_error = f"predictor returned non-finite values for episode {eps[1].uid}"
        shape_error = (
            f"predictor/basis mismatch: predictor gave {(expected[0], expected[1] - 1)}, "
            f"{'semantic' if mode == 'semantic' else 'predicate_history'} basis needs {expected}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(nan_error)}$"):
            calibrate(eps, Broken(nan_at=1, short_at=2), cfg, spec, tau_seed=3)
        with pytest.raises(ValueError, match=f"^{re.escape(shape_error)}$"):
            calibrate(eps, Broken(nan_at=2, short_at=1), cfg, spec, tau_seed=3)


def block_truth_at_sampled_times(eps, predictor, layout, tau_seed) -> bytes:
    """The true bases of the level-2 blocks (each episode's sampled window),
    side by side, as bytes."""
    blocks = conformal._episode_blocks(eps, [(predictor, layout)], [layout], tau_seed)
    return np.concatenate([t for _, (t,), _ in blocks], axis=1).tobytes()


def sampled_columns(wholes, eps, k_max, tau_seed) -> bytes:
    """Each episode's whole-episode basis column at its sampled level-2
    time, side by side, as bytes."""
    taus = [sample_level2_time(tau_seed, i, k_max, ep.T) for i, ep in enumerate(eps)]
    return np.stack([w[:, tau - k_max] for w, tau in zip(wholes, taus)], axis=1).tobytes()


class RecordingPredictor:
    """A predictor that keeps every episode it is asked to predict."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def predict(self, ep):
        self.seen.append(ep)
        return self.inner.predict(ep)


class TestTruthOncePerBlock:
    """A calibration builds each block's true basis in one call of the basis
    routine, not one call per episode. Each call receives one stack ``(E,
    m, n)``: at level 2 each episode's sampled window, the ``k_max + 1``
    steps that end at its sampled time; at level 1 and in
    ``estimate_sigma``, whole episodes of one length. Every episode is
    predicted once, whole, and no call of the basis routine reads more
    steps than a block of whole episodes does."""

    def record(self, monkeypatch, eps):
        """Count the blocks and keep what each basis routine call receives:
        recorded margins as ``truth``, a noisy prediction as ``other``. The
        routines are the ones the layouts' ``basis`` calls."""
        margins = np.concatenate([ep.mu for ep in eps], axis=1)
        calls = {"blocks": 0, "truth": [], "other": []}
        real_blocks = conformal._block_bases

        def counting_blocks(*args):
            calls["blocks"] += 1
            return real_blocks(*args)

        def recorded(name):
            real = getattr(fragment, name)

            def wrapper(x, *args):
                calls["truth" if np.isin(x, margins).all() else "other"].append(np.array(x))
                return real(x, *args)

            monkeypatch.setattr(fragment, name, wrapper)

        monkeypatch.setattr(conformal, "_block_bases", counting_blocks)
        recorded("_basis_rows")
        recorded("stack_lags")
        return calls

    @staticmethod
    def stacked(arrays, eps, k_max, tau_seed) -> bytes:
        """One array per episode, stacked on a leading episode axis: whole,
        or with a ``tau_seed`` only each episode's sampled window."""
        if tau_seed is not None:
            starts = [sample_level2_time(tau_seed, i, k_max, ep.T) - k_max for i, ep in enumerate(eps)]
            arrays = [a[:, s : s + k_max + 1] for a, s in zip(arrays, starts)]
        return np.stack(arrays).tobytes()

    def check(self, calls, predictor, eps, k_max, tau_seed, stacks_predictions):
        # Each episode is predicted once, as the Episode itself.
        assert len(predictor.seen) == len(eps) and all(a is b for a, b in zip(predictor.seen, eps))
        assert 1 < calls["blocks"] < len(eps)
        assert len(calls["truth"]) == calls["blocks"]
        # Every call receives one (E, m, n) stack of whole episodes or of windows.
        n = eps[0].T + 1 if tau_seed is None else k_max + 1
        assert all(x.ndim == 3 and x.shape[1:] == (eps[0].m, n) for x in calls["truth"] + calls["other"])
        got = np.concatenate(calls["truth"]).tobytes()
        assert got == self.stacked([ep.mu for ep in eps], eps, k_max, tau_seed)
        if stacks_predictions:
            assert len(calls["other"]) == calls["blocks"]
            got = np.concatenate(calls["other"]).tobytes()
            predictions = [predictor.inner.predict(ep) for ep in eps]
            assert got == self.stacked(predictions, eps, k_max, tau_seed)
        else:
            assert calls["other"] == []
        # A block of whole episodes holds as many as fit in _BLOCK_COLUMNS
        # columns; a block of windows counts each window's steps.
        T = eps[0].T
        whole_block = conformal._BLOCK_COLUMNS // (T - k_max + 1) * (T + 1)
        most = max(x.shape[0] * x.shape[2] for x in calls["truth"] + calls["other"])
        assert most <= whole_block
        if tau_seed is not None:
            assert most <= conformal._BLOCK_COLUMNS

    @pytest.mark.parametrize("level", [1, 2])
    def test_semantic_calibrate(self, monkeypatch, level):
        d = build_depth1_dictionary(3, ((0, 1), (0, 7)))
        rng = np.random.default_rng(30)
        eps = tiny_episodes(rng, d, 40, T=30)
        predictor = RecordingPredictor(PredictorStub(mode="semantic", scale=0.1, seed=3, dictionary=d))
        calls = self.record(monkeypatch, eps)
        calibrate(eps, predictor, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=level), d, tau_seed=5)
        self.check(calls, predictor, eps, d.K_max, 5 if level == 2 else None, stacks_predictions=False)

    @pytest.mark.parametrize("level", [1, 2])
    def test_rolling_calibrate(self, monkeypatch, level):
        rng = np.random.default_rng(32)
        eps = [random_episode(rng, 2, 30) for _ in range(40)]
        predictor = RecordingPredictor(PredictorStub(mode="predicates", scale=0.1, seed=3))
        calls = self.record(monkeypatch, eps)
        calibrate(eps, predictor, ScoreConfig(sigma=np.ones(2 * 8), alpha=0.1, level=level), (2, 7), tau_seed=5)
        self.check(calls, predictor, eps, 7, 5 if level == 2 else None, stacks_predictions=True)

    def test_observer_calibrate(self, monkeypatch):
        rng = np.random.default_rng(31)
        eps = [random_episode(rng, 2, 30) for _ in range(40)]
        predictor = RecordingPredictor(PredictorStub(mode="predicates", scale=0.1, seed=3))
        f = parse_formula("G[0,2] p0 & F[0,1] p1", ("p0", "p1"))
        calls = self.record(monkeypatch, eps)
        observer_calibrate(eps, predictor, f, 0.1, k_max=7, tau_seed=5)
        self.check(calls, predictor, eps, 7, 5, stacks_predictions=True)

    @pytest.mark.parametrize("mode", ["semantic", "predicates"])
    def test_estimate_sigma(self, monkeypatch, mode):
        d = build_depth1_dictionary(2, ((0, 1), (0, 7)))
        rng = np.random.default_rng(34)
        eps = tiny_episodes(rng, d, 40, T=30)
        predictor = RecordingPredictor(PredictorStub(mode=mode, scale=0.1, seed=3, dictionary=d))
        calls = self.record(monkeypatch, eps)
        estimate_sigma(eps, predictor, d if mode == "semantic" else (2, 7))
        self.check(calls, predictor, eps, 7, None, stacks_predictions=mode == "predicates")


class TestLevel2TimeLaw:
    """Level-2 times are uniform on ``k_max .. T``: over a fixed range of
    episode positions every valid time is drawn and none other, with
    counts a chi-square test does not reject."""

    def test_support_is_every_valid_time(self):
        k_max, T, n = 16, 60, 4500
        counts = np.bincount([sample_level2_time(0, i, k_max, T) for i in range(n)], minlength=T + 1)
        assert counts[:k_max].sum() == 0 and len(counts) == T + 1
        assert (counts[k_max:] > 0).all()
        # Pearson's statistic over the 45 valid times, 44 degrees of freedom;
        # 78.75 is the 0.999 quantile of chi-square(44).
        expected = n / (T - k_max + 1)
        assert ((counts[k_max:] - expected) ** 2 / expected).sum() < 78.75

    def test_one_valid_time(self):
        assert {sample_level2_time(3, i, 16, 16) for i in range(50)} == {16}


class TestRandomnessContract:
    """Version 2 of the randomness contract: the stub's noise and the
    level-2 times come from PCG64 seeded by the BLAKE2b digest of
    ``(purpose, seed, key)``, purpose 1 for noise keyed by the episode uid
    and purpose 2 for level-2 times keyed by the episode's position. The
    values below are pinned, so any change of either draw fails here by
    name before it moves a digest."""

    @staticmethod
    def noise(seed, uid, n=4):
        """The stub's first ``n`` deviates for ``uid``: its prediction of
        all-zero margins at unit scale, which is ``z`` bit for bit."""
        stub = PredictorStub(mode="predicates", scale=1.0, seed=seed)
        return stub.predict(Episode(mu=np.zeros((1, n)), uid=uid))[0]

    @pytest.mark.parametrize("seed, uid, want", [
        (0, 0, [0.48275811288503345, 2.6473147666532375, 1.0040173261374097, -0.701414672957984]),
        (9, (1 << 32) + 5, [-2.232087584319201, 0.6005434900765783, -1.391630882346832, 0.3550581042090175]),
    ])
    def test_first_deviates_pinned(self, seed, uid, want):
        assert self.noise(seed, uid).tolist() == want

    @pytest.mark.parametrize("seed, i, k_max, T, want", [
        (0, 0, 16, 60, 59), (3, 5, 16, 60, 32), (7, 1, 4, 20, 15), (2**64 - 1, 2**40, 0, 1000, 690),
    ])
    def test_level2_times_pinned(self, seed, i, k_max, T, want):
        assert sample_level2_time(seed, i, k_max, T) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 40), st.integers(0, 200))
    def test_both_draws_are_the_documented_generator(self, seed, key, k_max, extra):
        """Against the contract as written, built without the library
        (:func:`helpers.naive_keyed_generator`)."""
        want = naive_keyed_generator(1, seed, key).standard_normal(5)
        assert self.noise(seed, key, 5).tobytes() == want.tobytes()
        T = k_max + extra
        assert sample_level2_time(seed, key, k_max, T) == naive_keyed_generator(2, seed, key).integers(k_max, T + 1)

    @pytest.mark.parametrize("seed, key", [(0, 0), (3, 3), (9, (1 << 32) + 5), (2**64 - 1, 1)])
    def test_purposes_and_the_simulator_never_share_a_stream(self, seed, key):
        """Equal integers key three different streams: the stub's noise,
        the simulator's ``default_rng([seed, uid])`` and the level-2 time."""
        simulator = np.random.default_rng([seed, key])
        noise = self.noise(seed, key, 8)
        assert not np.isin(noise, simulator.standard_normal(8)).any()
        raw = [conformal._keyed_generator(purpose, seed, key).bit_generator.random_raw(8) for purpose in (1, 2)]
        raw.append(np.random.default_rng([seed, key]).bit_generator.random_raw(8))
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert not np.isin(raw[a], raw[b]).any()

    @pytest.mark.parametrize("bad", [-1, 2**64, 2.0, True, None])
    def test_calibration_seed_checked_before_predicting(self, bad):
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)), ("p0", "p1"))
        eps = tiny_episodes(np.random.default_rng(5), d, 6)
        f = parse_formula("G[0,1] p0", ("p0", "p1"))
        for level, spec in ((1, (2, 2)), (2, d)):
            cfg = ScoreConfig(sigma=np.ones(HistoryLayout(2, 2).dim if level == 1 else d.r), alpha=0.1, level=level)
            with pytest.raises(ValueError, match="tau_seed must be an integer in 0 .. 2\\*\\*64 - 1"):
                calibrate(eps, None, cfg, spec, tau_seed=bad)
        with pytest.raises(ValueError, match="tau_seed must be an integer"):
            observer_calibrate(eps, None, f, 0.1, k_max=2, tau_seed=bad)

    @pytest.mark.parametrize("seed, i", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (1.0, 0)])
    def test_draw_out_of_range_is_a_value_error(self, seed, i):
        with pytest.raises(ValueError, match="a draw needs a seed and key in 0 .. 2"):
            sample_level2_time(seed, i, 0, 3)


class TestReuseRunsNoPredictor:
    """Criterion 9 through every predictor entry point: with ``predict``
    and ``predict_block`` both poisoned, a saved model is loaded,
    specialised to a new formula and certifies from a snapshot."""

    def test_load_for_formula_and_certify(self, tmp_path, monkeypatch):
        d = build_depth1_dictionary(2, ((0, 1), (0, 4)), ("p0", "p1"))
        rng = np.random.default_rng(41)
        eps = tiny_episodes(rng, d, 24, T=12)
        stub = PredictorStub(mode="semantic", scale=0.15, seed=3, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d, tau_seed=1)
        save_monitor(replace(mon, predictor_config=stub.to_json()), tmp_path / "model.json")
        f_new = parse_formula("G[0,4] p0 & F[0,1] p1", d.predicate_names)
        support = mon.decoder(f_new).support
        want = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2, support=support), d,
                         tau_seed=1).radius
        snapshot = BasisVector(BasisKind.SEMANTIC, stub.predict(eps[0])[:, 3], d.K_max + 3)
        calls = []

        def poisoned(self, *args):
            calls.append(args)
            raise AssertionError("predictor ran during reuse")

        monkeypatch.setattr(PredictorStub, "predict", poisoned)
        monkeypatch.setattr(PredictorStub, "predict_block", poisoned)
        active = load_monitor(tmp_path / "model.json").for_formula(f_new)
        assert active.radius == want
        lb = certified_lower_bound(active, snapshot, active.decoder(f_new))
        assert lb == copy_and_subtract_bound(active, snapshot, active.decoder(f_new))
        assert calls == []
        # The poison reaches the block path calibration takes.
        with pytest.raises(AssertionError, match="predictor ran"):
            calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        assert len(calls) == 1


class TestTooShortEpisodeRefused:
    """An episode shorter than the basis depth (``T < k_max``) in the middle
    of the list is refused by every calibration with the same error, before
    it is predicted; the episodes before it have been predicted."""

    def check_refused(self, predictor, calibrate_episodes):
        rng = np.random.default_rng(33)
        eps = [random_episode(rng, 2, 12) for _ in range(6)]
        eps.insert(3, random_episode(rng, 2, 3))  # T = 3 < k_max = 4
        with pytest.raises(ValueError, match="episode too short"):
            calibrate_episodes(eps)
        assert len(predictor.seen) == 3 and all(a is b for a, b in zip(predictor.seen, eps))

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("mode", ["semantic", "predicates"])
    def test_calibrate(self, mode, level):
        d = build_depth1_dictionary(2, ((0, 1), (0, 4)))
        spec = d if mode == "semantic" else (2, 4)
        cfg = ScoreConfig(sigma=np.ones(d.r if mode == "semantic" else 10), alpha=0.1, level=level)
        predictor = RecordingPredictor(PredictorStub(mode=mode, scale=0.1, seed=3, dictionary=d))
        self.check_refused(predictor, lambda eps: calibrate(eps, predictor, cfg, spec, tau_seed=2))

    def test_observer_calibrate(self):
        f = parse_formula("G[0,2] p0", ("p0", "p1"))
        predictor = RecordingPredictor(PredictorStub(mode="predicates", scale=0.1, seed=3))
        self.check_refused(predictor, lambda eps: observer_calibrate(eps, predictor, f, 0.1, k_max=4, tau_seed=2))
