from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_episode, random_fragment_formula, random_pnf_formula
from ptmon.benchmark import PredictorStub
from ptmon.conformal import (
    CalibratedMonitor,
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
    HorizonExceededError,
    build_depth1_dictionary,
    compile_history_decoder,
    compile_semantic_decoder,
)
from ptmon.logic import And, Or, format_formula, horizon, parse_formula, predicate_lag_support
from ptmon.robustness import BasisKind, BasisVector, semantic_basis


def tiny_dictionary():
    return build_depth1_dictionary(2, ((0, 1), (0, 2)))


def history_monitor(m, k_max):
    """An uncalibrated rolling monitor: only its layout matters."""
    return CalibratedMonitor(
        kind="rolling", level=2, alpha=0.1, radius=0.0, sigma=np.ones(m * (k_max + 1)),
        n_calibration=1, seed=0, m=m, k_max=k_max,
    )


def tiny_episodes(rng, dictionary, n, T=8):
    return [
        random_episode(rng, dictionary.m, T, names=dictionary.predicate_names)
        for _ in range(n)
    ]


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        st.floats(0.01, 0.99),
    )
    def test_is_the_documented_order_statistic(self, scores, alpha):
        import math

        n = len(scores)
        rank = min(n, math.ceil((n + 1) * (1 - alpha)))
        assert split_quantile(scores, alpha) == sorted(scores)[rank - 1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    def test_never_below_plain_empirical_quantile(self, scores):
        # The finite-sample correction only ever rounds the rank up.
        q = split_quantile(scores, 0.1)
        assert q >= float(np.quantile(scores, 0.9, method="inverted_cdf")) - 1e-12


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
        basis_hat = BasisVector(BasisKind.SEMANTIC, semantic_basis(ep, d, t).values + 0.25, t)
        f = random_fragment_formula(rng, d)
        dec = compile_semantic_decoder(f, d)
        from helpers import naive_robustness

        assert certified_lower_bound(mon, basis_hat, dec) == pytest.approx(
            naive_robustness(f, ep.mu, t)
        )

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
        assert mon.support_of(f) == {0, 1, 3, 4}
        assert compile_history_decoder(f, 2, 2).support == {0, 1, 3, 4}
        with pytest.raises(HorizonExceededError):
            mon.support_of(parse_formula("G[0,3] p0", ("p0", "p1")))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_history_support_is_predicate_lag_support(self, seed, slack):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        k_max = horizon(f) + slack
        want = {p * (k_max + 1) + lag for p, lag in predicate_lag_support(f)}
        assert history_monitor(m=3, k_max=k_max).support_of(f) == want

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
            n_calibration=1, seed=0, dictionary=d,
        )
        assert mon.support_of(f) == set(used)


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


class TestEstimateSigma:
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


class TestPersistence:
    def test_score_cache_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        cache = ScoreCache(rng.normal(size=(7, 4)), level=1, seed=3, symmetric=True)
        path = tmp_path / "c.npz"
        save_score_cache(cache, path)
        back = load_score_cache(path)
        assert np.array_equal(back.matrix, cache.matrix)
        assert back.level == 1 and back.seed == 3 and back.symmetric

    def test_monitor_round_trip_semantic(self, tmp_path):
        d = tiny_dictionary()
        rng = np.random.default_rng(13)
        eps = tiny_episodes(rng, d, 9)
        stub = PredictorStub(mode="semantic", scale=0.2, seed=3, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        mon.predictor_config = stub.to_json()
        path = tmp_path / "mon.json"
        save_monitor(mon, path)
        assert (tmp_path / "mon.scores.npz").exists()
        back = load_monitor(path)
        assert back.kind == mon.kind
        assert back.radius == mon.radius
        assert back.dictionary == d
        assert np.array_equal(back.cache.matrix, mon.cache.matrix)
        assert back.predictor_config == stub.to_json()

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

    def test_version_guard(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError):
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
