import gc
import io
import json
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import random_episode, random_fragment_formula
import ptmon.conformal as conformal
import ptmon.fragment as fragment
import ptmon.monitors as monitors
import ptmon.robustness as robustness_module
from ptmon import benchmark
from ptmon.benchmark import PredictorStub
from ptmon.conformal import (
    ScoreConfig,
    calibrate,
    certified_lower_bound,
    interval_propagate,
    observer_calibrate,
)
from ptmon.fragment import build_depth1_dictionary, compile_history_decoder, compile_semantic_decoder
from ptmon.logic import format_formula, horizon, parse_formula
from ptmon.monitors import (
    EpisodeResult,
    Label,
    MonitorVerdict,
    RollingBuffer,
    observer_certify,
    rolling_certify,
    rolling_step,
    run_episode,
    run_episodes,
    semantic_certify,
    verdict_to_json,
    write_verdicts_csv,
    write_verdicts_jsonl,
)
from ptmon.robustness import (
    BasisKind,
    BasisVector,
    Episode,
    predicate_history_basis,
    robustness_series,
    semantic_basis_series,
)


def rolling_monitor(rng, m=2, k_max=3, n=10, T=9, **stub_kw):
    eps = [random_episode(rng, m, T) for _ in range(n)]
    stub = PredictorStub(mode="predicates", scale=0.1, seed=2, **stub_kw)
    cfg = ScoreConfig(sigma=np.ones(m * (k_max + 1)), alpha=0.1, level=2)
    return calibrate(eps, stub, cfg, (m, k_max)), stub, eps


class TestRollingBuffer:
    def test_layout_newest_first(self):
        buf = RollingBuffer(2, 2)
        for step in range(3):
            buf.push([float(step), 10.0 + step])
        v = buf.history_vector()
        # predicate 0: lags 0,1,2 -> values 2,1,0; predicate 1: 12,11,10
        assert np.array_equal(v, [2.0, 1.0, 0.0, 12.0, 11.0, 10.0])
        assert buf.t == 2

    def test_eviction_keeps_depth(self):
        buf = RollingBuffer(1, 1)
        for step in range(5):
            buf.push([float(step)])
        assert buf.fill == 2
        assert np.array_equal(buf.history_vector(), [4.0, 3.0])

    def test_drop_resets_history(self):
        buf = RollingBuffer(1, 2)
        for step in range(4):
            buf.push([1.0])
        buf.mark_dropped()
        assert buf.fill == 0
        assert buf.t == 4
        buf.push([2.0])
        assert np.array_equal(buf.history_vector(), [2.0, 0.0, 0.0])

    def test_shape_guard(self):
        buf = RollingBuffer(2, 1)
        with pytest.raises(ValueError):
            buf.push([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        buf = RollingBuffer(2, 1)
        with pytest.raises(ValueError, match="finite"):
            buf.push([1.0, bad])
        assert buf.fill == 0 and buf.t == -1

    @pytest.mark.parametrize("bad", [[1.0, np.nan], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_rejected_push_changes_nothing(self, bad):
        buf = RollingBuffer(2, 2)
        for step in range(2):
            buf.push([float(step), -0.0])
        snapshot, history = buf._current_basis(), buf._lags.copy()
        with pytest.raises(ValueError):
            buf.push(bad)
        assert (buf.t, buf.fill) == (1, 2)
        assert buf._lags.tobytes() == history.tobytes()
        assert buf._current_basis() is snapshot

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 3),
        k_max=st.integers(0, 4),
        steps=st.lists(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, -2.5])), min_size=1, max_size=24),
    )
    def test_snapshot_is_the_stacked_history(self, m, k_max, steps):
        # After any sequence of pushes and drops (``None``), the snapshot
        # equals stack_lags of the steps since the last drop, with zeros
        # past the fill, bit for bit, and is a read-only array of its own.
        buf = RollingBuffer(m, k_max)
        fresh = []
        for t, step in enumerate(steps):
            if step is None:
                rolling_step(buf, None)
                fresh = []
            else:
                values = [step * (k + 1) for k in range(m)]
                rolling_step(buf, values)
                fresh.append(values)
            padded = [[0.0] * m] * (k_max + 1 - min(len(fresh), k_max + 1)) + fresh[-(k_max + 1):]
            want = robustness_module.stack_lags(np.array(padded).T, k_max)[:, -1]
            snapshot = buf._current_basis()
            assert snapshot.values.tobytes() == want.tobytes()
            assert (snapshot.kind, snapshot.t) == (BasisKind.PREDICATE_HISTORY, t)
            assert buf.fill == min(len(fresh), k_max + 1)
            assert not snapshot.values.flags.writeable and snapshot.values.flags.owndata
            assert snapshot._floats == want.tolist() and snapshot._shrunk == {}
            with pytest.raises(ValueError):
                snapshot.values[0] = 1.0

    def test_matches_episode_history_when_fed_truth(self):
        rng = np.random.default_rng(0)
        ep = random_episode(rng, 3, 8)
        buf = RollingBuffer(3, 4)
        for t in range(9):
            buf.push(ep.mu[:, t])
        want = predicate_history_basis(ep, 4, 8).values
        assert np.array_equal(buf.history_vector(), want)


class TestRollingCertify:
    def test_warmup_then_verdicts(self):
        rng = np.random.default_rng(1)
        mon, stub, _ = rolling_monitor(rng)
        f = parse_formula("G[0,2] p0", ("p0", "p1"))
        buf = RollingBuffer(2, 3)
        labels = []
        for t in range(6):
            rolling_step(buf, [0.5, 0.5])
            labels.append(rolling_certify(buf, mon, f).label)
        assert labels[:3] == [Label.WARMING_UP] * 3
        assert all(l is not Label.WARMING_UP for l in labels[3:])

    def test_equals_direct_certified_bound(self):
        rng = np.random.default_rng(2)
        mon, stub, _ = rolling_monitor(rng)
        f = parse_formula("G[0,2] p0 | F[0,1] p1", ("p0", "p1"))
        dec = compile_history_decoder(f, 2, 3)
        ep = random_episode(rng, 2, 7)
        buf = RollingBuffer(2, 3)
        for t in range(8):
            buf.push(ep.mu[:, t])
        v = rolling_certify(buf, mon, f, decoder=dec)
        want = certified_lower_bound(
            mon, BasisVector(BasisKind.PREDICATE_HISTORY, predicate_history_basis(ep, 3, 7).values, 7), dec
        )
        assert v.lower_bound == want

    def test_drop_forces_rewarming_for_deep_formulas(self):
        rng = np.random.default_rng(3)
        mon, stub, _ = rolling_monitor(rng)
        deep = parse_formula("G[0,3] p0", ("p0", "p1"))
        shallow = parse_formula("p0 | p1", ("p0", "p1"))
        buf = RollingBuffer(2, 3)
        for _ in range(6):
            rolling_step(buf, [1.0, 1.0])
        rolling_step(buf, None)  # dropped prediction
        rolling_step(buf, [1.0, 1.0])
        assert rolling_certify(buf, mon, deep).label is Label.WARMING_UP
        # depth-0 formulas only need the freshest step back
        assert rolling_certify(buf, mon, shallow).label is not Label.WARMING_UP

    @pytest.mark.parametrize("kind", ["rolling", "observer"])
    @pytest.mark.parametrize("text", ["G[0,2] p0 & F[0,1] p1", "F[1,2] p0 | p1", "p0"])
    def test_rewarms_for_horizon_plus_one_fresh_steps_after_a_drop(self, kind, text):
        """After ``mark_dropped`` both history monitors report warm-up until
        ``horizon + 1`` fresh steps have been pushed; the first bound then
        equals the naive decoder over those fresh steps alone, less the
        monitor's shift. Reading a lag from before the drop (zero-filled)
        would raise in the oracle."""
        rng = np.random.default_rng(12)
        m, k_max = 2, 4
        f = parse_formula(text, ("p0", "p1"))
        eps = [random_episode(rng, m, 12) for _ in range(15)]
        stub = PredictorStub(mode="predicates", scale=0.3, seed=6)
        if kind == "rolling":
            sigma = rng.uniform(0.5, 2.0, m * (k_max + 1))
            mon = calibrate(eps, stub, ScoreConfig(sigma=sigma, alpha=0.2, level=2), (m, k_max))
            certify = lambda buf: rolling_certify(buf, mon, f)  # noqa: E731
        else:
            mon = observer_calibrate(eps, stub, f, 0.2, k_max=k_max)
            certify = lambda buf: observer_certify(buf, mon, f)  # noqa: E731
        root = helpers.naive_compile_history_decoder(f, m, k_max).root
        buf = RollingBuffer(m, k_max)
        for t in range(k_max + 3):
            buf.push(rng.normal(size=m))
        assert certify(buf).label is not Label.WARMING_UP
        buf.mark_dropped()
        assert certify(buf).label is Label.WARMING_UP
        fresh = rng.normal(size=(m, horizon(f) + 1))
        for n in range(1, horizon(f) + 2):
            buf.push(fresh[:, n - 1])
            v = certify(buf)
            if n <= horizon(f):
                assert v.label is Label.WARMING_UP and v.lower_bound is None
        # Only the fresh steps, lag j of predicate k at k * (k_max + 1) + j.
        values = {
            k * (k_max + 1) + j: float(fresh[k, -1 - j]) - float(mon.shift[k * (k_max + 1) + j])
            for k in range(m)
            for j in range(fresh.shape[1])
        }
        assert v.lower_bound == helpers.naive_decode(root, values)
        assert v.label is (Label.SAFE if v.lower_bound >= 0.0 else Label.UNCERTAIN)

    def test_tie_is_safe(self):
        rng = np.random.default_rng(4)
        mon, stub, _ = rolling_monitor(rng)
        mon = replace(mon, radius=1.0)
        f = parse_formula("p0", ("p0", "p1"))
        buf = RollingBuffer(2, 3)
        for _ in range(5):
            buf.push([2.0, 2.0])  # lb = 2.0 - 1.0*1.0 = 1.0
        v = rolling_certify(buf, mon, f)
        assert v.label is Label.SAFE
        buf2 = RollingBuffer(2, 3)
        for _ in range(5):
            buf2.push([1.0, 2.0])  # lb = exactly 0.0
        assert rolling_certify(buf2, mon, f).label is Label.SAFE

    def test_verdict_names_the_decoders_formula(self):
        rng = np.random.default_rng(8)
        mon, stub, _ = rolling_monitor(rng)
        f, g = (parse_formula(t, ("p0", "p1")) for t in ("G[0,2] p0", "F[0,1] p1"))
        dec = compile_history_decoder(g, 2, 3)
        buf = RollingBuffer(2, 3)
        rolling_step(buf, [1.0, 2.0])
        assert rolling_certify(buf, mon, f, dec).formula == format_formula(g)
        for _ in range(4):
            rolling_step(buf, [1.0, 2.0])
        v = rolling_certify(buf, mon, f, dec)
        assert v.formula == format_formula(g)
        assert v.lower_bound == rolling_certify(buf, mon, g).lower_bound


class TestSemanticCertify:
    def test_warmup_and_verdict(self):
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        rng = np.random.default_rng(5)
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(8)]
        stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        f = parse_formula("G[0,1] p0", d.predicate_names)
        early = BasisVector(BasisKind.SEMANTIC, np.zeros(d.r), 1)
        assert semantic_certify(early, mon, f).label is Label.WARMING_UP
        ep = eps[0]
        t = 5
        hat = BasisVector(BasisKind.SEMANTIC, semantic_basis_series(ep, d)[:, t - d.K_max], t)
        v = semantic_certify(hat, mon, f)
        assert v.t == t
        assert v.lower_bound is not None

    def test_verdict_names_the_decoders_formula(self):
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        rng = np.random.default_rng(9)
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(8)]
        stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        f, g = (parse_formula(t, d.predicate_names) for t in ("G[0,1] p0", "F[0,2] p1 | G[0,1] p0"))
        dec = compile_semantic_decoder(g, d)
        early = BasisVector(BasisKind.SEMANTIC, np.zeros(d.r), 1)
        assert semantic_certify(early, mon, f, dec).formula == format_formula(g)
        hat = BasisVector(BasisKind.SEMANTIC, semantic_basis_series(eps[0], d)[:, 5 - d.K_max], 5)
        v = semantic_certify(hat, mon, f, dec)
        assert v.formula == format_formula(g)
        assert v.lower_bound == semantic_certify(hat, mon, g).lower_bound


class TestBufferLayout:
    """A buffer of another history layout is refused, also when its
    dimension is the monitor's: ``(2, 5)`` and ``(3, 3)`` both hold 12
    coordinates, and ``p1`` would be read from another predicate's lags."""

    @pytest.mark.parametrize("certify", [rolling_certify, observer_certify])
    def test_other_k_max_of_the_same_dimension_raises_on_every_call(self, certify):
        rng = np.random.default_rng(31)
        mon, stub, eps = rolling_monitor(rng, m=3, k_max=3)
        f = parse_formula("G[0,1] p1", ("p0", "p1", "p2"))
        if certify is observer_certify:
            mon = observer_calibrate(eps, stub, f, 0.1, k_max=3)
        same, other = RollingBuffer(3, 3), RollingBuffer(2, 5)
        assert same.m * (same.k_max + 1) == other.m * (other.k_max + 1) == mon.dim
        want = r"buffer holds history \(m=2, k_max=5\), monitor reads \(m=3, k_max=3\)"
        for t in range(8):
            # Warm-up included, before anything is read.
            with pytest.raises(fragment.BasisMismatchError, match=want):
                certify(other, mon, f)
            rolling_step(other, [10.0 + t, -5.0])
            rolling_step(same, [10.0 + t, -5.0, 0.0])
            v = certify(same, mon, f)
            assert v.label is (Label.WARMING_UP if t < 3 else Label.UNCERTAIN)
            assert v.lower_bound is None or v.lower_bound < -5.0
        with pytest.raises(fragment.BasisMismatchError, match=want):
            certify(other, mon, f)
        assert other._snapshot is None

    def test_rolling_certify_checks_before_compiling(self, monkeypatch):
        rng = np.random.default_rng(32)
        mon, _, _ = rolling_monitor(rng, m=2, k_max=3)
        monkeypatch.setattr(conformal, "compile_history_decoder", None)
        with pytest.raises(fragment.BasisMismatchError):
            rolling_certify(RollingBuffer(2, 2), mon, parse_formula("p0", ("p0", "p1")))


class TestDecoderLayout:
    """A decoder compiled for another layout of the same dimension is
    refused wherever a caller may pass one, on every call: ``(2, 5)`` and
    ``(3, 3)`` histories both hold 12 coordinates, and the dictionaries of
    ``p0`` over the window ``[0, 3]`` or ``[0, 2]`` both hold 2 atoms. An
    equal dictionary built apart is the same layout."""

    @staticmethod
    def history():
        mon, _, _ = rolling_monitor(np.random.default_rng(31), m=3, k_max=3)
        f = parse_formula("G[0,1] p1", ("p0", "p1", "p2"))
        return mon, f, compile_history_decoder(f, 2, 5)

    @staticmethod
    def semantic(intervals=((0, 2),)):
        d = build_depth1_dictionary(1, intervals)
        eps = [random_episode(np.random.default_rng(41), 1, 9) for _ in range(10)]
        stub = PredictorStub(mode="semantic", scale=0.1, seed=2, dictionary=d)
        return calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)

    def test_history_decoder_of_another_depth(self):
        mon, f, alien = self.history()
        assert alien.dim == mon.dim == 12
        buf = RollingBuffer(3, 3)
        for t in range(4):
            rolling_step(buf, [10.0 + t, -5.0, 0.0])
        own = rolling_certify(buf, mon, f)
        assert own.label is Label.UNCERTAIN and own.lower_bound < -5.0
        for target in (mon, mon.for_formula(f)):
            for _ in range(2):
                with pytest.raises(fragment.BasisMismatchError):
                    rolling_certify(buf, target, f, alien)
                with pytest.raises(fragment.BasisMismatchError):
                    certified_lower_bound(target, buf._current_basis(), alien)
                with pytest.raises(fragment.BasisMismatchError):
                    conformal.certified_lower_bounds(target, np.zeros((12, 3)), [target.decoder(f), alien])

    def test_semantic_decoder_of_another_dictionary(self):
        mon = self.semantic()
        other = build_depth1_dictionary(1, [(0, 3)])
        g = parse_formula("G[0,3] p0", other.predicate_names)
        alien = compile_semantic_decoder(g, other)
        assert alien.dim == mon.dim == 2
        basis = BasisVector(BasisKind.SEMANTIC, [5.0, 6.0], mon.k_max)
        for target in (mon, mon.for_formula(parse_formula("G[0,2] p0", other.predicate_names))):
            for _ in range(2):
                with pytest.raises(fragment.BasisMismatchError):
                    semantic_certify(basis, target, g, alien)
                with pytest.raises(fragment.BasisMismatchError):
                    certified_lower_bound(target, basis, alien)
                with pytest.raises(fragment.BasisMismatchError):
                    conformal.certified_lower_bounds(target, np.zeros((2, 3)), [alien])

    def test_hand_built_decoder_names_no_layout(self):
        # The oracle builds the monitor's own tree, but no compiler named its layout.
        mon, f, _ = self.history()
        twin = helpers.naive_compile_history_decoder(f, 3, 3)
        assert twin.layout is None and twin.root == mon.decoder(f).root
        with pytest.raises(fragment.BasisMismatchError):
            conformal.certified_lower_bounds(mon, np.zeros((12, 3)), [twin])

    def test_equal_dictionary_built_apart_is_the_same_layout(self, tmp_path):
        mon = self.semantic()
        conformal.save_monitor(mon, tmp_path / "sem.json")
        back = conformal.load_monitor(tmp_path / "sem.json")
        assert back.dictionary == mon.dictionary and back.dictionary is not mon.dictionary
        f = parse_formula("G[0,2] p0 & F[0,2] p0", mon.dictionary.predicate_names)
        dec = mon.decoder(f)
        assert back.decoder(f) is not dec
        basis = BasisVector(BasisKind.SEMANTIC, [5.0, 6.0], mon.k_max)
        for target in (back, back.for_formula(f)):
            want = semantic_certify(basis, target, f)
            assert semantic_certify(basis, target, f, dec) == want and want.label is Label.SAFE
            assert conformal.certified_lower_bounds(target, basis.values[:, None], [dec])[0][0] == want.lower_bound


class TestObserverCertify:
    def test_formula_guard(self):
        rng = np.random.default_rng(6)
        eps = [random_episode(rng, 1, 6) for _ in range(8)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=0)
        f = parse_formula("G[0,1] p0", ("p0",))
        mon = observer_calibrate(eps, stub, f, 0.1, k_max=1)
        other = parse_formula("F[0,1] p0", ("p0",))
        buf = RollingBuffer(1, 1)
        buf.push([1.0])
        buf.push([1.0])
        with pytest.raises(ValueError):
            observer_certify(buf, mon, other)

    def test_constant_bias_bound_is_exact(self):
        rng = np.random.default_rng(7)
        eps = [random_episode(rng, 1, 6) for _ in range(8)]
        stub = PredictorStub(mode="predicates", scale=0.0, bias=0.5, seed=0)
        f = parse_formula("G[0,1] p0", ("p0",))
        mon = observer_calibrate(eps, stub, f, 0.1, k_max=1)
        assert mon.radius == pytest.approx(0.5)
        buf = RollingBuffer(1, 1)
        buf.push([2.0])
        buf.push([3.0])
        v = observer_certify(buf, mon, f)
        # interval lower end: min over lags of (value - 0.5)
        assert v.lower_bound == pytest.approx(min(3.0, 2.0) - 0.5)
        assert v.label is Label.SAFE


class TestRunEpisode:
    def test_semantic_full_episode(self):
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        rng = np.random.default_rng(8)
        eps = [random_episode(rng, 2, 10, names=d.predicate_names) for _ in range(10)]
        stub = PredictorStub(mode="semantic", scale=0.1, seed=3, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        f1 = parse_formula("G[0,1] p0", d.predicate_names)
        f2 = parse_formula("F[0,2] p1 | G[0,2] p0", d.predicate_names)
        ep = random_episode(rng, 2, 10, names=d.predicate_names)
        res = run_episode(ep, stub, mon, [f1, f2])
        assert not res.errors
        for f in (f1, f2):
            name = format_formula(f)
            vs = res.by_formula(name)
            assert len(vs) == 11  # one per step
            assert sum(v.label is Label.WARMING_UP for v in vs) == d.K_max
            assert res.lower_bounds(name).shape == res.truth[name].shape

    def test_unsupported_formula_is_reported_not_fatal(self):
        d = build_depth1_dictionary(2, ((0, 1),))
        rng = np.random.default_rng(9)
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(6)]
        stub = PredictorStub(mode="semantic", scale=0.1, seed=3, dictionary=d)
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        good = parse_formula("G[0,1] p0", d.predicate_names)
        alien = parse_formula("G[0,7] p0", d.predicate_names)
        res = run_episode(eps[0], stub, mon, [good, alien])
        assert format_formula(alien) in res.errors
        assert format_formula(good) in res.truth
        assert format_formula(alien) not in res.truth

    def test_rolling_full_episode_bounds_align_with_truth(self):
        rng = np.random.default_rng(10)
        mon, stub, eps = rolling_monitor(rng, m=2, k_max=3, n=12, T=10)
        f = parse_formula("G[0,2] p0 & F[0,1] p1", ("p0", "p1"))
        ep = random_episode(rng, 2, 10)
        res = run_episode(ep, stub, mon, [f])
        name = format_formula(f)
        lbs = res.lower_bounds(name)
        assert lbs.shape == (10 - 3 + 1,)
        assert res.truth[name].shape == lbs.shape

    def test_observer_episode(self):
        rng = np.random.default_rng(11)
        eps = [random_episode(rng, 2, 9) for _ in range(10)]
        stub = PredictorStub(mode="predicates", scale=0.1, seed=4)
        f = parse_formula("G[0,2] p0", ("p0", "p1"))
        mon = observer_calibrate(eps, stub, f, 0.1, k_max=3)
        ep = random_episode(rng, 2, 9)
        res = run_episode(ep, stub, mon, [f])
        assert not res.errors
        assert res.lower_bounds(format_formula(f)).size == 9 - 3 + 1

    def test_truth_of_bare_predicate_cannot_change_the_episode(self):
        rng = np.random.default_rng(13)
        mon, stub, _ = rolling_monitor(rng, m=2, k_max=3)
        mu = rng.normal(size=(2, 10))
        ep = Episode(mu=mu, dt=1.0)
        before = ep.mu.copy()
        f = parse_formula("p0", ("p0", "p1"))
        truth = run_episode(ep, stub, mon, [f]).truth[format_formula(f)]
        with pytest.raises(ValueError):
            truth[0] = 123.0
        assert np.array_equal(ep.mu, before)
        mu[0, 0] = 123.0  # the caller's array is copied, not frozen
        assert np.array_equal(ep.mu, before)

    def test_episode_shorter_than_history_rejected(self):
        rng = np.random.default_rng(12)
        mon, stub, _ = rolling_monitor(rng, m=2, k_max=3)
        ep = random_episode(rng, 2, 2)
        with pytest.raises(ValueError):
            run_episode(ep, stub, mon, [])


class TestRunEpisodes:
    @pytest.mark.parametrize("case", ["semantic-level2", "rolling", "observer"])
    def test_batch_equals_one_episode_at_a_time(self, case, monkeypatch):
        mon, stub, _, formulas = case_setup(case, 5)
        rng = np.random.default_rng(6)
        eps = [random_episode(rng, 2, int(rng.integers(3, 13))) for _ in range(6)]
        # Then distinct lengths, so the block boundaries among them fall
        # between episodes of different lengths; all span several blocks.
        eps += [random_episode(rng, 2, int(T)) for T in rng.permutation(np.arange(20, 140, 10))]
        assert sum(ep.T - mon.k_max + 1 for ep in eps) > 3 * conformal._BLOCK_COLUMNS
        alien = parse_formula("G[0,7] p0", ("p0", "p1"))
        # A one-leaf read-out copies a row of the block's basis.
        leaf = parse_formula("G[0,1] p0" if case.startswith("semantic") else "p0", ("p0", "p1"))
        formulas = [*formulas, alien, leaf]
        names = list(dict.fromkeys(format_formula(f) for f in formulas if f is not alien))
        blocks, calls, decodes = Counter(), Counter(), Counter()
        real_blocks, real_certify = conformal._block_bases, monitors.certified_lower_bounds
        real_decode = conformal.decode_series

        def counting_blocks(*args):
            blocks["block"] += 1
            return real_blocks(*args)

        def counting(mon_f, predicted, decoders):
            calls[mon_f is mon, tuple(d.formula for d in decoders)] += 1
            return real_certify(mon_f, predicted, decoders)

        def counting_decodes(d, values):
            decodes[d.formula] += 1
            return real_decode(d, values)

        monkeypatch.setattr(conformal, "_block_bases", counting_blocks)
        monkeypatch.setattr(monitors, "certified_lower_bounds", counting)
        monkeypatch.setattr(conformal, "decode_series", counting_decodes)
        batch = run_episodes(eps, stub, mon, formulas)
        n_blocks = blocks["block"]
        assert n_blocks > 3
        # One certification per certifying monitor and block: the whole
        # fragment-wide monitor at once, or the observer's own formula and a
        # specialisation per other formula; one decode per formula and block.
        if case == "observer":
            want = {(name == mon.formula, (name,)): n_blocks for name in names}
        else:
            want = {(True, tuple(names)): n_blocks}
        assert calls == want
        assert decodes == {name: n_blocks for name in names}
        singles = [run_episode(ep, stub, mon, formulas) for ep in eps]
        assert len(batch) == len(eps)
        for b, one in zip(batch, singles):
            assert list(b.errors) == [format_formula(alien)]
            assert b.errors == one.errors
            for got, want in ((b.bounds, one.bounds), (b.truth, one.truth)):
                assert list(got) == list(want)
                for name in got:
                    assert got[name].dtype == want[name].dtype
                    assert got[name].shape == want[name].shape
                    assert got[name].tobytes() == want[name].tobytes()
                    assert got[name].flags.writeable == want[name].flags.writeable
            assert not b.truth[format_formula(leaf)].flags.writeable
        assert batch[0].errors is not batch[1].errors

    @pytest.mark.parametrize("case", ["semantic-level2", "rolling", "observer"])
    def test_results_keep_no_reference_to_a_shrunk_block(self, case, monkeypatch):
        # A one-leaf bound is a copied row: the results hold the bound arrays
        # only, not the matrix each block was shrunk into.
        mon, stub, _, formulas = case_setup(case, 7)
        rng = np.random.default_rng(7)
        eps = [random_episode(rng, 2, int(T)) for T in (40, 90, 130, 60, 110)]
        leaf = parse_formula("G[0,1] p0" if case.startswith("semantic") else "p0", ("p0", "p1"))
        shrunk = []
        real = conformal.decode_series

        def recording(d, values):
            shrunk.append(weakref.ref(values))
            return real(d, values)

        monkeypatch.setattr(conformal, "decode_series", recording)
        gc.disable()
        try:
            results = run_episodes(eps, stub, mon, [*formulas, leaf])
            alive = sum(ref() is not None for ref in shrunk)
        finally:
            gc.enable()
        assert len(shrunk) >= 2 * len(formulas) + 2
        assert alive == 0
        assert len(results) == len(eps) and format_formula(leaf) in results[0].bounds

    def test_short_episode_in_the_middle_raises(self):
        mon, stub, _, formulas = case_setup("rolling", 8)
        rng = np.random.default_rng(8)
        eps = [random_episode(rng, 2, 60) for _ in range(12)]
        eps[7] = random_episode(rng, 2, mon.k_max - 1)
        with pytest.raises(ValueError, match="too short"):
            run_episodes(eps, stub, mon, formulas)


def history_group(seed):
    """One group of history monitors over the ``(2, 3)`` layout and their
    shared predictor: a fragment-wide rolling monitor, its copy for the
    first formula and an observer of the first formula without a score
    cache (so it certifies that formula alone); the formulas, and
    mixed-length episodes that span several blocks."""
    mon, stub, _, formulas = case_setup("observer", seed)
    rng = np.random.default_rng(seed)
    eps = [random_episode(rng, 2, 8) for _ in range(10)]
    roll = calibrate(eps, stub, ScoreConfig(sigma=np.ones(2 * 4), alpha=0.1, level=2), (2, 3))
    mons = [roll, roll.for_formula(formulas[0]), replace(mon, cache=None)]
    episodes = [random_episode(rng, 2, int(rng.integers(3, 13))) for _ in range(6)]
    episodes += [random_episode(rng, 2, int(T)) for T in rng.permutation(np.arange(20, 140, 10))]
    assert sum(ep.T - roll.k_max + 1 for ep in episodes) > 3 * conformal._BLOCK_COLUMNS
    return mons, stub, episodes, formulas


class CountingPredictor:
    """A predictor that counts its calls per episode."""

    def __init__(self, inner):
        self.inner, self.calls = inner, Counter()

    def predict(self, ep):
        self.calls[ep.uid] += 1
        return self.inner.predict(ep)


class TestRunMonitors:
    def test_shared_pass_equals_one_monitor_at_a_time(self):
        mons, stub, eps, formulas = history_group(11)
        alien = parse_formula("G[0,7] p0", ("p0", "p1"))
        leaf = parse_formula("p0", ("p0", "p1"))
        formulas = [*formulas, alien, leaf]
        predictor = CountingPredictor(stub)
        shared = monitors.run_monitors(eps, predictor, mons, formulas)
        # Each episode is predicted once for the whole group.
        assert predictor.calls == Counter({ep.uid: 1 for ep in eps})
        alone = [run_episodes(eps, stub, mon, formulas) for mon in mons]
        names = [format_formula(f) for f in formulas]
        # Only the observer's own formula is certified by every monitor.
        assert list(shared[2][0].bounds) == [names[0]]
        assert list(shared[0][0].bounds) == list(shared[1][0].bounds) == [names[0], *names[1:3], names[4]]
        assert len(shared) == len(mons)
        for got_results, want_results in zip(shared, alone):
            assert len(got_results) == len(want_results) == len(eps)
            for got, want in zip(got_results, want_results):
                assert got.errors == want.errors and got.k_max == want.k_max
                for g, w in ((got.bounds, want.bounds), (got.truth, want.truth)):
                    assert list(g) == list(w)
                    for name in g:
                        assert g[name].dtype == w[name].dtype and g[name].shape == w[name].shape
                        assert g[name].tobytes() == w[name].tobytes()
        assert names[3] in shared[0][0].errors
        assert "score cache" in shared[2][0].errors[names[1]]
        # The group reads one truth array per formula and block.
        for i in range(len(eps)):
            truths = [results[i].truth[names[0]] for results in shared]
            assert truths[0] is truths[1] is truths[2]

    def test_shared_truth_is_read_only(self):
        mons, stub, eps, formulas = history_group(12)
        for results in monitors.run_monitors(eps, stub, mons, formulas):
            for res in results:
                for rho in res.truth.values():
                    assert not rho.flags.writeable
                    with pytest.raises(ValueError):
                        rho[0] = 1.0

    @pytest.mark.parametrize("other", ["deeper", "wider", "semantic"])
    def test_layout_mismatch_raises_before_predicting(self, other):
        mons, stub, eps, formulas = history_group(13)
        roll = mons[0]
        if other == "semantic":
            d = build_depth1_dictionary(2, ((0, 1), (0, 3)))
            mismatched = replace(roll, kind="semantic", layout=d, sigma=np.ones(d.r), cache=None)
        else:
            m, k_max = (2, 4) if other == "deeper" else (3, 3)
            layout = fragment.HistoryLayout(m, k_max)
            mismatched = replace(roll, layout=layout, sigma=np.ones(layout.dim), cache=None)
        predictor = CountingPredictor(stub)
        with pytest.raises(ValueError, match="share a basis layout"):
            monitors.run_monitors(eps, predictor, [*mons, mismatched], formulas)
        assert not predictor.calls


def crossroad_setup(kind, n_formulas=15):
    """Simulated crossroad episodes (their margins hold exact zeros), a
    monitor of ``kind`` over the default dictionary's layout, its predictor
    and distinct fragment formulas."""
    names = benchmark.PREDICATE_NAMES
    d = build_depth1_dictionary(len(names), benchmark.DEFAULT_INTERVALS, names)
    cfg = benchmark.CrossroadConfig(T=30, seed=4)
    eps = [benchmark.simulate_episode(cfg, 500 + i) for i in range(14)]
    rng = np.random.default_rng(4)
    formulas = {}
    while len(formulas) < n_formulas:
        f = random_fragment_formula(rng, d)
        formulas.setdefault(format_formula(f), f)
    formulas = list(formulas.values())
    if kind == "semantic":
        stub = PredictorStub(mode="semantic", scale=0.2, seed=4, dictionary=d)
        mon = calibrate(eps[:10], stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
    else:
        stub = PredictorStub(mode="predicates", scale=0.2, seed=4)
        if kind == "rolling":
            cfg = ScoreConfig(sigma=np.ones(len(names) * (d.K_max + 1)), alpha=0.1, level=2)
            mon = calibrate(eps[:10], stub, cfg, (len(names), d.K_max))
        else:
            mon = observer_calibrate(eps[:10], stub, formulas[0], 0.1, k_max=d.K_max)
    return mon, stub, eps[10:], formulas


class TestRunEpisodesTruth:
    @pytest.mark.parametrize("kind", ["semantic", "rolling", "observer"])
    def test_truth_is_the_robustness_oracle_bit_for_bit(self, kind):
        mon, stub, eps, formulas = crossroad_setup(kind)
        zeros = 0
        for ep, res in zip(eps, run_episodes(eps, stub, mon, formulas)):
            assert not res.errors
            for f in formulas:
                got = res.truth[format_formula(f)]
                want = robustness_series(f, ep)[mon.k_max - horizon(f) :]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                zeros += int((got == 0.0).sum())
        assert zeros > 0

    def test_truth_evaluates_no_formula(self, monkeypatch):
        mons = [crossroad_setup(kind, n_formulas=5) for kind in ("semantic", "rolling", "observer")]

        def evaluating(*args):
            raise AssertionError("run_episodes evaluated a formula")

        for name in ("robustness_series", "_series"):
            monkeypatch.setattr(robustness_module, name, evaluating)
        for mon, stub, eps, formulas in mons:
            results = run_episodes(eps, stub, mon, formulas)
            assert all(len(res.truth) == len(formulas) for res in results)


def count_compiles(monkeypatch, record):
    """Call ``record(layout, f)`` for every decoder compiled from now on
    (layout ``"semantic"`` or ``"history"``), past the layout's table."""
    for layout in ("semantic", "history"):
        def compiling(f, *args, real=getattr(fragment, f"_{layout}_decoder"), layout=layout):
            record(layout, f)
            return real(f, *args)

        monkeypatch.setattr(fragment, f"_{layout}_decoder", compiling)


class TestDecoderCache:
    def test_each_formula_compiles_once_per_layout(self, monkeypatch):
        rng = np.random.default_rng(20)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(8)]
        sem_stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        sem = calibrate(eps, sem_stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        roll, pred_stub, _ = rolling_monitor(rng, m=2, k_max=3)
        f1, f2 = (parse_formula(t, d.predicate_names) for t in ("G[0,1] p0", "F[0,2] p1 | G[0,2] p0"))
        obs = observer_calibrate(eps, pred_stub, f1, 0.1, k_max=3)

        compiled = Counter()
        count_compiles(monkeypatch, lambda layout, f: compiled.update([(layout, format_formula(f))]))

        buf = RollingBuffer(2, 3)
        for _ in range(10):
            rolling_step(buf, rng.normal(size=2))
            rolling_certify(buf, roll, f1)
            rolling_certify(buf, roll, f2)
            observer_certify(buf, obs, f1)
        for ep in eps[:3]:
            run_episode(ep, sem_stub, sem, [f1, f2])
            run_episode(ep, pred_stub, roll, [f1, f2])
            run_episode(ep, pred_stub, obs, [f1])
        n1, n2 = format_formula(f1), format_formula(f2)
        # semantic: f1 and f2 on the dictionary; history: f2 on (2, 3). The
        # observer shares roll's layout, and observer_calibrate compiled f1's
        # history decoder for it before the counting began.
        assert compiled == {("semantic", n1): 1, ("semantic", n2): 1, ("history", n2): 1}
        assert obs.decoder(f1) is roll.decoder(f1)

    def test_certification_walks_no_formula_after_compiling(self, monkeypatch):
        # Once a formula's decoder for a layout is compiled, every verdict of
        # every monitor of that layout takes the formula's text and horizon
        # from the decoder, and compiles nothing.
        rng = np.random.default_rng(21)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(8)]
        sem_stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        sem = calibrate(eps, sem_stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        roll, pred_stub, _ = rolling_monitor(rng, m=2, k_max=3)
        formulas = [parse_formula(t, d.predicate_names) for t in ("G[0,1] p0", "F[0,2] p1 | G[0,2] p0")]
        observers = [observer_calibrate(eps, pred_stub, f, 0.1, k_max=3) for f in formulas]

        walks = Counter()
        for mod in (conformal, fragment, monitors):
            for name in ("format_formula", "horizon"):
                if hasattr(mod, name):
                    def walking(f, real=getattr(mod, name), name=name):
                        walks[name] += 1
                        return real(f)

                    monkeypatch.setattr(mod, name, walking)
        compiles = []
        count_compiles(monkeypatch, lambda layout, f: compiles.append((layout, f)))

        # observer_calibrate compiled each formula's history decoder before
        # the counting began, for the layout the rolling monitor shares.
        compiled = {(kind, i) for kind in ("rolling", "observer") for i in range(len(formulas))}
        late_walks = Counter()

        def certify(key, call):
            walked, n_compiles = walks.copy(), len(compiles)
            call()
            if key in compiled:
                late_walks.update(walks - walked)
                assert len(compiles) == n_compiles, key
            compiled.add(key)

        buf = RollingBuffer(2, 3)
        for t in range(10):
            rolling_step(buf, rng.normal(size=2))
            basis = BasisVector(BasisKind.SEMANTIC, rng.normal(size=d.r), t)
            for i, f in enumerate(formulas):
                certify(("semantic", i), lambda: semantic_certify(basis, sem, f))
                certify(("rolling", i), lambda: rolling_certify(buf, roll, f))
                certify(("observer", i), lambda: observer_certify(buf, observers[i], f))
        # Only the semantic decoders compile while certifying.
        assert [layout for layout, _ in compiles] == ["semantic"] * 2
        assert compiled == {(kind, i) for kind in ("semantic", "rolling", "observer") for i in range(2)}
        assert late_walks == Counter()

    def test_each_decoder_generates_its_read_out_once(self, monkeypatch):
        # Every decoder a fragment-wide monitor streams with runs its own
        # generated read-out, and every observer's decoder its shifted one;
        # each is generated on its first use and never again, and nothing
        # walks a tree.
        generated = []

        def counting_exec(source, namespace):
            generated.append(source)
            exec(source, namespace)

        monkeypatch.setattr(fragment, "exec", counting_exec, raising=False)
        walks = Counter()
        for name in ("naive_decode", "naive_decode_series"):
            def walking(*args, real=getattr(helpers, name), name=name):
                walks[name] += 1
                return real(*args)

            monkeypatch.setattr(helpers, name, walking)

        rng = np.random.default_rng(22)
        # Predicate names no other test uses, so no decoder of these
        # formulas exists before this test.
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)), ("once_a", "once_b"))
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(8)]
        sem_stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        sem = calibrate(eps, sem_stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        roll, pred_stub, _ = rolling_monitor(rng, m=2, k_max=3)
        texts = ("G[0,1] p0", "F[0,2] p1 | G[0,2] p0", "F[0,1] p0 & G[0,1] p1", "G[0,2] p1", "F[0,2] p0 | F[0,1] p1")
        texts = [t.replace("p0", "once_a").replace("p1", "once_b") for t in texts]
        formulas = [parse_formula(t, d.predicate_names) for t in texts]
        observers = [observer_calibrate(eps, pred_stub, f, 0.1, k_max=3) for f in formulas]
        assert generated == []

        buf = RollingBuffer(2, 3)
        for t in range(10):
            rolling_step(buf, rng.normal(size=2))
            basis = BasisVector(BasisKind.SEMANTIC, rng.normal(size=d.r), t)
            for f, obs in zip(formulas, observers):
                semantic_certify(basis, sem, f)
                rolling_certify(buf, roll, f)
                observer_certify(buf, obs, f)

        semantic = [sem.decoder(f) for f in formulas]
        history = [roll.decoder(f) for f in formulas]
        # The observers share the rolling monitor's layout, so its decoders.
        assert all(obs.decoder(f) is dec for f, obs, dec in zip(formulas, observers, history))
        assert len({id(dec) for dec in semantic + history}) == 10
        # A history decoder generates its plain read-out for the rolling
        # monitor and its shifted one for the observer, once each; a
        # semantic one only its plain read-out.
        assert all({"read", "read_shifted"} <= dec.__dict__.keys() for dec in history)
        assert all("read" in dec.__dict__ and "read_shifted" not in dec.__dict__ for dec in semantic)
        assert len(generated) == 15
        assert sum(" - c" in source for source in generated) == 5
        assert walks == Counter()


class TestSharedShrink:
    def test_each_step_shrinks_once_per_monitor(self, monkeypatch):
        # 20 formulas per step share one history snapshot and, per
        # fragment-wide monitor, one shrink of it; each observer is its own
        # restricted monitor, which subtracts its shift inside its read-out
        # and stores no shrink. A history snapshot does not check its values
        # again: ``push`` checked them.
        rng = np.random.default_rng(23)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(8)]
        sem_stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        sem = calibrate(eps, sem_stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        roll, pred_stub, _ = rolling_monitor(rng, m=2, k_max=3)
        formulas = {}
        while len(formulas) < 20:
            f = random_fragment_formula(rng, d)
            formulas.setdefault(format_formula(f), f)
        formulas = list(formulas.values())
        observers = [observer_calibrate(eps, pred_stub, f, 0.1, k_max=3) for f in formulas]

        class Shrinks(dict):
            """A snapshot's memo that counts each monitor's stored shrinks."""

            def __init__(self):
                super().__init__()
                self.stored = Counter()

            def __setitem__(self, mon, shrunk):
                self.stored[mon] += 1
                super().__setitem__(mon, shrunk)

        def counted(snapshot):
            object.__setattr__(snapshot, "_shrunk", Shrinks())
            return snapshot

        built, checks = [], []

        def building(cls, *args, real=BasisVector._checked):
            built.append(counted(real(*args)))
            return built[-1]

        def checking(self, real=BasisVector.__post_init__):
            checks.append(self.kind)
            real(self)

        monkeypatch.setattr(BasisVector, "_checked", classmethod(building))
        monkeypatch.setattr(BasisVector, "__post_init__", checking)

        buf = RollingBuffer(2, 3)
        semantic = []
        for t in range(10):
            rolling_step(buf, rng.normal(size=2))
            semantic.append(counted(BasisVector(BasisKind.SEMANTIC, rng.normal(size=d.r), t)))
            for f, obs in zip(formulas, observers):
                semantic_certify(semantic[-1], sem, f)
                rolling_certify(buf, roll, f)
                observer_certify(buf, obs, f)
        certified = {"semantic": 10 - sem.k_max, "history": 10 - roll.k_max}
        assert len(built) == certified["history"]
        assert checks == [BasisKind.SEMANTIC] * 10
        # One shrink per snapshot and fragment-wide monitor: the semantic
        # monitor alone on each certified semantic snapshot, the rolling
        # monitor alone on each history snapshot; none for the observers.
        assert [b._shrunk.stored for b in semantic[-certified["semantic"]:]] == [Counter([sem])] * certified["semantic"]
        assert [b._shrunk.stored for b in semantic[: -certified["semantic"]]] == [Counter()] * sem.k_max
        assert [b._shrunk.stored for b in built] == [Counter([roll])] * certified["history"]
        # Every observer read each history snapshot's one float list.
        assert all("_floats" in vars(b) for b in built)


def stream_verdicts(ep, predictor, mon, f):
    """Certify ``f`` over ``ep`` one step at a time with the streaming API."""
    predicted = np.asarray(predictor.predict(ep))
    if mon.kind == "semantic":
        out = []
        for t in range(ep.T + 1):
            values = predicted[:, t - mon.k_max] if t >= mon.k_max else np.zeros(mon.dim)
            out.append(semantic_certify(BasisVector(BasisKind.SEMANTIC, values, t), mon, f))
        return out
    buf = RollingBuffer(mon.m, mon.k_max)
    certify = observer_certify if mon.kind == "observer" else rolling_certify
    out = []
    for t in range(ep.T + 1):
        rolling_step(buf, predicted[:, t])
        out.append(certify(buf, mon, f))
    return out


CASES = ("semantic-level1", "semantic-level2", "rolling", "restricted", "observer")


def case_setup(case, seed):
    """A monitor of the given case, its predictor, a test episode and three
    fragment formulas; the first formula is the one a restricted or
    observer monitor was fitted to."""
    rng = np.random.default_rng(seed)
    d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
    eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(10)]
    formulas = [random_fragment_formula(rng, d) for _ in range(3)]
    ep = random_episode(rng, 2, int(rng.integers(3, 13)), names=d.predicate_names)
    if case.startswith("semantic") or case == "restricted":
        stub = PredictorStub(mode="semantic", scale=0.2, seed=seed % 1000, dictionary=d)
        level = 1 if case == "semantic-level1" else 2
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=level), d)
        if case == "restricted":
            mon = mon.for_formula(formulas[0])
        return mon, stub, ep, formulas
    stub = PredictorStub(mode="predicates", scale=0.2, seed=seed % 1000)
    if case == "rolling":
        mon = calibrate(eps, stub, ScoreConfig(sigma=np.ones(2 * 4), alpha=0.1, level=2), (2, 3))
    else:
        mon = observer_calibrate(eps, stub, formulas[0], 0.1, k_max=3)
    return mon, stub, ep, formulas


class TestBatchEqualsStreaming:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CASES), st.integers(0, 2**32 - 1))
    def test_run_episode_matches_step_by_step(self, case, seed):
        mon, stub, ep, formulas = case_setup(case, seed)
        res = run_episode(ep, stub, mon, formulas)
        assert not res.errors
        for f in formulas:
            name = format_formula(f)
            # the monitor each kind certifies f with, spelled out
            own = mon.support is None and mon.kind != "observer"
            mon_f = mon if own or mon.formula == name else mon.for_formula(f)
            streamed = stream_verdicts(ep, stub, mon_f, f)
            assert [(v.t, v.label) for v in res.by_formula(name)] == [(v.t, v.label) for v in streamed]
            want = np.array([v.lower_bound for v in streamed if v.label is not Label.WARMING_UP])
            assert np.array_equal(res.lower_bounds(name), want)
            assert res.truth[name].shape == want.shape
            # Whole verdicts: formula text and bound too, not only time and label.
            assert res.by_formula(name) == streamed

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_observer_bound_is_lower_end_of_interval(self, seed):
        mon, stub, ep, formulas = case_setup("observer", seed)
        f = formulas[0]
        predicted = stub.predict(ep)
        spread = mon.coord_radii * mon.sigma
        buf = RollingBuffer(mon.m, mon.k_max)
        for t in range(ep.T + 1):
            rolling_step(buf, predicted[:, t])
            v = observer_certify(buf, mon, f)
            if v.label is Label.WARMING_UP:
                continue
            c = buf.history_vector()
            assert v.lower_bound == interval_propagate(f, c - spread, c + spread, mon.m, mon.k_max)[0]

    def test_verdicts_are_time_major(self):
        mon, stub, ep, formulas = case_setup("rolling", 3)
        res = run_episode(ep, stub, mon, formulas)
        names = list(res.bounds)
        assert [(v.t, v.formula) for v in res.verdicts] == [
            (t, name) for t in range(ep.T + 1) for name in names
        ]

    def test_duplicate_formula_certified_once(self):
        mon, stub, ep, formulas = case_setup("semantic-level2", 4)
        f = formulas[0]
        res = run_episode(ep, stub, mon, [f, f])
        assert list(res.bounds) == [format_formula(f)]
        assert len(res.verdicts) == ep.T + 1


class TestVerdictRecord:
    def test_fields_in_order(self):
        assert MonitorVerdict._fields == ("t", "formula", "lower_bound", "label")

    @pytest.mark.parametrize("name", MonitorVerdict._fields)
    def test_fields_cannot_be_assigned(self, name):
        v = MonitorVerdict(4, "G[0,1] p0", 0.25, Label.SAFE)
        with pytest.raises(AttributeError):
            setattr(v, name, getattr(v, name))
        assert v == (4, "G[0,1] p0", 0.25, Label.SAFE)

    def test_no_new_attribute(self):
        with pytest.raises(AttributeError):
            MonitorVerdict(0, "p0", None, Label.WARMING_UP).note = "x"

    def test_unpacks_and_equals_its_tuple(self):
        v = MonitorVerdict(1, "p0", -0.5, Label.UNCERTAIN)
        t, formula, lb, label = v
        assert (t, formula, lb, label) == (v.t, v.formula, v.lower_bound, v.label)
        assert v == (1, "p0", -0.5, Label.UNCERTAIN)
        assert v != (1, "p0", -0.5, Label.SAFE)


class TestVerdictSerialization:
    def test_json_fields(self):
        v = MonitorVerdict(4, "G[0,1] p0", 0.25, Label.SAFE)
        obj = verdict_to_json(v, episode=7)
        assert obj == {"t": 4, "formula": "G[0,1] p0", "lb": 0.25, "label": "safe", "episode": 7}

    def test_warming_serializes_null_lb(self):
        v = MonitorVerdict(0, "p0", None, Label.WARMING_UP)
        assert verdict_to_json(v)["lb"] is None

    def test_jsonl_stream(self):
        vs = [
            MonitorVerdict(0, "p0", None, Label.WARMING_UP),
            MonitorVerdict(1, "p0", -0.5, Label.UNCERTAIN),
        ]
        buf = io.StringIO()
        write_verdicts_jsonl(vs, buf, episode=0)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert lines[1]["label"] == "uncertain"
        assert lines[1]["episode"] == 0

    def test_csv_stream_with_optional_header(self):
        vs = [MonitorVerdict(1, "p0", 0.5, Label.SAFE)]
        buf = io.StringIO()
        write_verdicts_csv(vs, buf, header=True, episode=0)
        write_verdicts_csv(vs, buf, header=False, episode=1)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,formula,lb,label,episode"
        assert len(lines) == 3
