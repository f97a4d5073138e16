import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_episode, random_fragment_formula
import ptmon.conformal as conformal
import ptmon.fragment as fragment
import ptmon.monitors as monitors
from ptmon.benchmark import PredictorStub
from ptmon.conformal import (
    ScoreConfig,
    calibrate,
    certified_lower_bound,
    interval_propagate,
    observer_calibrate,
)
from ptmon.fragment import build_depth1_dictionary, compile_history_decoder, compile_semantic_decoder
from ptmon.logic import format_formula, parse_formula
from ptmon.monitors import (
    EpisodeResult,
    Label,
    MonitorVerdict,
    RollingBuffer,
    observer_certify,
    rolling_certify,
    rolling_step,
    run_episode,
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
    semantic_basis,
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

    def test_tie_is_safe(self):
        rng = np.random.default_rng(4)
        mon, stub, _ = rolling_monitor(rng)
        mon.radius = 1.0
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
        hat = BasisVector(BasisKind.SEMANTIC, semantic_basis(ep, d, t).values, t)
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
        hat = BasisVector(BasisKind.SEMANTIC, semantic_basis(eps[0], d, 5).values, 5)
        v = semantic_certify(hat, mon, f, dec)
        assert v.formula == format_formula(g)
        assert v.lower_bound == semantic_certify(hat, mon, g).lower_bound


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


class TestDecoderCache:
    def test_each_formula_compiles_once_per_monitor(self, monkeypatch):
        rng = np.random.default_rng(20)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        eps = [random_episode(rng, 2, 8, names=d.predicate_names) for _ in range(8)]
        sem_stub = PredictorStub(mode="semantic", scale=0.1, seed=1, dictionary=d)
        sem = calibrate(eps, sem_stub, ScoreConfig(sigma=np.ones(d.r), alpha=0.1, level=2), d)
        roll, pred_stub, _ = rolling_monitor(rng, m=2, k_max=3)
        f1, f2 = (parse_formula(t, d.predicate_names) for t in ("G[0,1] p0", "F[0,2] p1 | G[0,2] p0"))
        obs = observer_calibrate(eps, pred_stub, f1, 0.1, k_max=3)

        compiled = Counter()
        for layout in ("semantic", "history"):
            real = getattr(conformal, f"compile_{layout}_decoder")

            def counting(f, *args, real=real, layout=layout):
                compiled[layout, format_formula(f)] += 1
                return real(f, *args)

            monkeypatch.setattr(conformal, f"compile_{layout}_decoder", counting)

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
        # semantic: (sem, f1), (sem, f2); history: (roll, f1), (obs, f1), (roll, f2)
        assert compiled == {("semantic", n1): 1, ("semantic", n2): 1, ("history", n1): 2, ("history", n2): 1}

    def test_certification_walks_no_formula_after_compiling(self, monkeypatch):
        # Once a (monitor, formula) pair has compiled, its verdicts take the
        # formula's text and horizon from the decoder.
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
        for layout in ("semantic", "history"):
            def compiling(f, *args, real=getattr(conformal, f"compile_{layout}_decoder")):
                compiles.append(f)
                return real(f, *args)

            monkeypatch.setattr(conformal, f"compile_{layout}_decoder", compiling)

        compiled = set()
        late_walks = Counter()

        def certify(key, call):
            walked, n_compiles = walks.copy(), len(compiles)
            call()
            if key in compiled:
                late_walks.update(walks - walked)
                assert len(compiles) == n_compiles, key
            elif len(compiles) > n_compiles:
                compiled.add(key)

        buf = RollingBuffer(2, 3)
        for t in range(10):
            rolling_step(buf, rng.normal(size=2))
            basis = BasisVector(BasisKind.SEMANTIC, rng.normal(size=d.r), t)
            for i, f in enumerate(formulas):
                certify(("semantic", i), lambda: semantic_certify(basis, sem, f))
                certify(("rolling", i), lambda: rolling_certify(buf, roll, f))
                certify(("observer", i), lambda: observer_certify(buf, observers[i], f))
        assert len(compiled) == 6
        assert late_walks == Counter()


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
