from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    lag_fold_windowed_extrema,
    lag_loop_basis_rows,
    mixed_dictionary,
    naive_robustness,
    naive_windowed_extrema,
    nested_window_formula,
    random_episode,
    random_interval,
    random_pnf_formula,
    tie_heavy,
    valid_time,
)
import ptmon.robustness as robustness_module
from ptmon import fragment
from ptmon.benchmark import DEFAULT_INTERVALS, PREDICATE_NAMES
from ptmon.fragment import AtomicDictionary, build_depth1_dictionary
from ptmon.logic import Always, Eventually, Predicate, TimeInterval, horizon, parse_formula
from ptmon.robustness import (
    BasisKind,
    BasisVector,
    Episode,
    TimeOutOfRangeError,
    predicate_history_basis,
    predicate_history_series,
    robustness_series,
    semantic_basis_series,
    windowed_extrema,
)


class TestEpisode:
    def test_properties(self):
        ep = Episode(mu=np.zeros((3, 11)), dt=0.5)
        assert ep.m == 3 and ep.T == 10

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Episode(mu=np.zeros(5), dt=1.0)
        with pytest.raises(ValueError):
            Episode(mu=np.zeros((2, 0)), dt=1.0)

    def test_rejects_nonfinite(self):
        mu = np.zeros((1, 4))
        mu[0, 2] = np.nan
        with pytest.raises(ValueError):
            Episode(mu=mu, dt=1.0)

    def test_rejects_bad_dt_and_states(self):
        with pytest.raises(ValueError):
            Episode(mu=np.zeros((1, 4)), dt=0.0)
        with pytest.raises(ValueError):
            Episode(mu=np.zeros((1, 4)), dt=1.0, states=np.zeros((3, 2)))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError):
            Episode(mu=np.zeros((2, 4)), dt=1.0, predicate_names=("a",))


class TestRobustness:
    def test_oracle_min_of_temporal_pair(self):
        f = parse_formula("F[0,2] p0 & G[0,1] p0", ("p0",))
        ep = Episode(mu=np.array([[1.0, 3.0, 2.0]]), dt=1.0)
        assert robustness_series(f, ep).tolist() == [2.0]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        T = horizon(f) + int(rng.integers(0, 8))
        ep = random_episode(rng, 3, T)
        t = valid_time(rng, f, T)
        assert robustness_series(f, ep)[t - horizon(f)] == naive_robustness(f, ep.mu, t)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5))
    def test_uniform_shift_moves_value_by_same_amount(self, seed, c):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=2)
        T = horizon(f) + 3
        ep = random_episode(rng, 2, T)
        shifted = Episode(mu=ep.mu + c, dt=ep.dt)
        assert robustness_series(f, shifted) == pytest.approx(robustness_series(f, ep) + c)


class TestWindowedExtrema:
    def test_matches_naive_frozen(self):
        x = np.array([4.0, 1.0, 3.0, 5.0, 2.0, 0.0])
        got = windowed_extrema(x, TimeInterval(1, 3), "min")
        assert np.array_equal(got, [1.0, 1.0, 2.0])

    def test_empty_when_series_too_short(self):
        assert windowed_extrema(np.ones(3), TimeInterval(0, 3), "min").size == 0

    def test_point_window_is_lagged_identity(self):
        x = np.arange(6.0)
        got = windowed_extrema(x, TimeInterval(2, 2), "max")
        assert np.array_equal(got, x[:-2])

    def test_point_window_is_a_new_array(self):
        x = np.arange(6.0)
        got = windowed_extrema(x, TimeInterval(2, 2), "min")
        assert not np.shares_memory(got, x)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 60),
        st.sampled_from(["min", "max"]),
    )
    def test_bit_identical_to_rescan(self, seed, n, mode):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        iv = random_interval(rng, max_b=8)
        got = windowed_extrema(x, iv, mode)
        want = naive_windowed_extrema(x, iv, mode)
        assert got.shape == want.shape
        assert np.array_equal(got, want)  # exact, not approx

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            windowed_extrema(np.ones(5), TimeInterval(0, 1), "median")


class TestRobustnessSeries:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_naive_at_every_time(self, seed):
        rng = np.random.default_rng(seed)
        f = nested_window_formula(rng, 3)
        h = horizon(f)
        T = h + int(rng.integers(0, 8))
        ep = random_episode(rng, 3, T)
        series = robustness_series(f, ep)
        assert series.shape == (T - h + 1,)
        for t in range(h, T + 1):
            assert series[t - h] == naive_robustness(f, ep.mu, t)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_empty_when_episode_shorter_than_horizon(self, seed):
        rng = np.random.default_rng(seed)
        f = nested_window_formula(rng, 3)
        T = int(rng.integers(0, horizon(f)))
        assert robustness_series(f, random_episode(rng, 3, T)).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pointwise_agreement(self, seed):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=2)
        h = horizon(f)
        T = h + int(rng.integers(0, 10))
        ep = random_episode(rng, 2, T)
        series = robustness_series(f, ep)
        assert series.shape == (T - h + 1,)
        # Past time: the value at t reads only the window t - h .. t.
        for t in range(h, T + 1):
            assert robustness_series(f, Episode(mu=ep.mu[:, t - h : t + 1])).tolist() == [series[t - h]]


class TestHistoryBasis:
    def test_frozen_layout_example(self):
        ep = Episode(mu=np.array([[1.0, 2.0], [3.0, 4.0]]), dt=1.0)
        b = predicate_history_basis(ep, 1, 1)
        assert b.kind is BasisKind.PREDICATE_HISTORY
        assert b.t == 1
        assert np.array_equal(b.values, [2.0, 1.0, 4.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_coordinate_is_lagged_sample(self, seed, k_max):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        T = k_max + int(rng.integers(0, 5))
        ep = random_episode(rng, m, T)
        t = int(rng.integers(k_max, T + 1))
        b = predicate_history_basis(ep, k_max, t)
        assert b.values.shape == (m * (k_max + 1),)
        for k in range(m):
            for j in range(k_max + 1):
                assert b.values[k * (k_max + 1) + j] == ep.mu[k, t - j]

    def test_series_columns_match_single_time(self):
        rng = np.random.default_rng(7)
        ep = random_episode(rng, 3, 12)
        series = predicate_history_series(ep, 4)
        assert series.shape == (15, 9)
        for t in range(4, 13):
            assert np.array_equal(series[:, t - 4], predicate_history_basis(ep, 4, t).values)

    def test_too_early_raises(self):
        ep = Episode(mu=np.zeros((1, 5)), dt=1.0)
        with pytest.raises(TimeOutOfRangeError):
            predicate_history_basis(ep, 3, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_basis_vector_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            BasisVector(BasisKind.SEMANTIC, np.array([0.0, bad]), 3)


class TestSemanticBasis:
    def test_frozen_example(self):
        d = AtomicDictionary(
            atoms=(
                parse_formula("G[0,2] p0", ("p0",)),
                parse_formula("F[0,2] p0", ("p0",)),
            ),
            m=1,
        )
        ep = Episode(mu=np.array([[1.0, 3.0, 2.0]]), dt=1.0)
        assert np.array_equal(semantic_basis_series(ep, d), [[1.0], [3.0]])

    def test_series_matches_single_time(self, standard_dictionary):
        rng = np.random.default_rng(11)
        ep = random_episode(rng, 7, 25, names=standard_dictionary.predicate_names)
        series = semantic_basis_series(ep, standard_dictionary)
        K = standard_dictionary.K_max
        assert series.shape == (standard_dictionary.r, 25 - K + 1)
        for t in (K, 20, 25):
            column = [robustness_series(atom, ep)[t - horizon(atom)] for atom in standard_dictionary.atoms]
            assert series[:, t - K].tolist() == column

    def test_each_row_is_atom_robustness(self, standard_dictionary):
        rng = np.random.default_rng(13)
        ep = random_episode(rng, 7, 20, names=standard_dictionary.predicate_names)
        series = semantic_basis_series(ep, standard_dictionary)
        K = standard_dictionary.K_max
        for i in (0, 9, 37, 69):
            atom = standard_dictionary.atoms[i]
            for t in (K, 18):
                assert series[i, t - K] == naive_robustness(atom, ep.mu, t)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shared_pass_matches_per_atom_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        d = mixed_dictionary(rng, m)
        K = d.K_max
        T = K + int(rng.integers(0, 13))
        ep = random_episode(rng, m, T)
        series = semantic_basis_series(ep, d)
        assert series.shape == (d.r, T - K + 1)
        times = rng.integers(K, T + 1, size=3)
        for i, atom in enumerate(d.atoms):
            row = robustness_series(atom, ep)
            assert series[i].tobytes() == row[row.size - series.shape[1] :].tobytes()
            for t in times:
                assert series[i, t - K] == naive_robustness(atom, ep.mu, t)
        mu = ep.mu.copy()
        series[:] = np.nan
        assert np.array_equal(ep.mu, mu)
        if K > 0:
            with pytest.raises(TimeOutOfRangeError):
                semantic_basis_series(random_episode(rng, m, int(rng.integers(0, K))), d)

    def test_shared_pass_runs_no_per_atom_evaluator(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(robustness_module, "windowed_extrema")
        counted(robustness_module, "_series")
        counted(fragment, "window_layout")
        d = build_depth1_dictionary(7, DEFAULT_INTERVALS, PREDICATE_NAMES)
        ep = random_episode(np.random.default_rng(17), 7, 40, names=PREDICATE_NAMES)
        for _ in range(3):
            semantic_basis_series(ep, d)
        assert calls == {"window_layout": 1}


class TestNumpyTieRule:
    """Two routines rely on numpy keeping the later operand on a 0.0/-0.0
    tie: the sliding-extremum routine, which passes the older window
    second, and the decoders' series read-out, which reduces each run of
    consecutive rows along axis 0. A numpy that breaks ties another way
    fails here first."""

    @pytest.mark.parametrize("op", [np.minimum, np.maximum], ids=["minimum", "maximum"])
    @pytest.mark.parametrize("loop", ["contiguous", "strided", "contiguous out=", "strided out="])
    @pytest.mark.parametrize("second_sign", [1.0, -1.0], ids=["+0 second", "-0 second"])
    def test_second_argument_kept_on_a_signed_zero_tie(self, op, loop, second_sign):
        first, second = np.zeros((32, 3)) * -second_sign, np.zeros((32, 3)) * second_sign
        if loop.startswith("strided"):
            first, second = first[::3, 1][:10], second[::2, 2][:10]
        got = op(first, second, out=np.empty(first.shape)) if loop.endswith("out=") else op(first, second)
        assert np.signbit(got).tolist() == np.signbit(second).tolist(), (
            f"np.{op.__name__} no longer keeps its second argument on a 0.0/-0.0 tie ({loop} loop). "
            "robustness._sliding_extrema calls op(later window, older window) so that tied zeros "
            "resolve to the oldest sample, as a fold over the lags does; that argument order must change."
        )


    @pytest.mark.parametrize("op", [np.minimum, np.maximum], ids=["minimum", "maximum"])
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 17, 64, 300])
    def test_axis0_reduce_of_a_row_major_slab_keeps_the_last_tied_row(self, op, n):
        rng = np.random.default_rng(n)
        for rows in (2, 3, 8, 17, 40) * 5:
            slab = rng.choice([0.0, -0.0], size=(rows, n))
            assert slab.flags.c_contiguous
            got = op.reduce(slab, axis=0)
            assert np.signbit(got).tolist() == np.signbit(slab[-1]).tolist(), (
                f"np.{op.__name__}.reduce(axis=0) over a C-order slab of {n} columns no longer keeps the "
                "last of tied zeros. fragment.decode_series reduces each run of consecutive rows this way "
                "and relies on it equalling the left fold over the rows."
            )


# Windows of 1, 4, 6, 7 and 13 samples: powers of two and widths between them.
ODD_WINDOWS = [(0, 0), (0, 3), (0, 5), (0, 6), (0, 12)]


class TestSlidingExtremaBitForBit:
    """Every sliding extremum equals the lag-by-lag fold of ``helpers`` bit
    for bit (``tobytes``), tied zeros of opposite sign included."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.sampled_from(ODD_WINDOWS), st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted)),
        st.integers(1, 90),
        st.sampled_from(["min", "max"]),
    )
    def test_windowed_extrema_matches_the_lag_fold(self, seed, window, n, mode):
        x = tie_heavy(np.random.default_rng(seed), n)
        iv = TimeInterval(*window)
        got = windowed_extrema(x, iv, mode)
        assert got.tobytes() == lag_fold_windowed_extrema(x, iv, mode).tobytes()
        assert got.flags.writeable and not np.shares_memory(got, x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_semantic_basis_matches_the_lag_loop(self, seed, extra_columns):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        # Fallback atoms at random, and windows up to K_max = 64.
        atoms = list(mixed_dictionary(rng, m).atoms)
        for b in [*rng.choice(65, size=int(rng.integers(0, 4)), replace=False), *(b for _, b in ODD_WINDOWS)]:
            k = int(rng.integers(m))
            atoms.append((Always if rng.random() < 0.5 else Eventually)(TimeInterval(0, int(b)), Predicate(f"p{k}", k)))
        d = AtomicDictionary(tuple(dict.fromkeys(atoms)), m)
        mu = tie_heavy(rng, (m, d.K_max + extra_columns + 1))
        got = semantic_basis_series(Episode(mu=mu), d)
        assert got.shape == (d.r, extra_columns + 1)
        assert got.tobytes() == lag_loop_basis_rows(mu, d).tobytes()
