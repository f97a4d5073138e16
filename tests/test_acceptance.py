"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
The heavy fixtures (the 20-seed coverage study and the 500-episode window
sweep) are module-scoped and shared between the tests that need them; the
whole file runs in about two minutes.
"""

import shutil
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    naive_robustness,
    naive_windowed_extrema,
    random_episode,
    random_fragment_formula,
    random_interval,
    random_pnf_formula,
)
from ptmon.benchmark import (
    CrossroadConfig,
    PredictorStub,
    generate_dataset,
    load_split,
    simulate_episode,
)
from ptmon.conformal import (
    ScoreCache,
    ScoreConfig,
    calibrate,
    certified_lower_bound,
    interval_propagate,
    load_monitor,
    observer_calibrate,
    radius_for_support,
    sample_level2_time,
    save_monitor,
    score_matrix,
)
from ptmon.fragment import (
    build_depth1_dictionary,
    compile_history_decoder,
    compile_semantic_decoder,
    decode,
)
from ptmon.logic import Always, Predicate, TimeInterval, horizon, parse_formula
from ptmon.metrics import horizon_sweep
from ptmon.robustness import (
    BasisKind,
    BasisVector,
    predicate_history_basis,
    semantic_basis_series,
    windowed_extrema,
)

ALPHA = 0.10
N_SEEDS = 20


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {n}: {label}")
        raise
    print(f"\n[PASS] criterion {n}: {label}")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coverage_runs(standard_dictionary):
    """Twenty disjoint calibrate/test draws of the crossroad scenario.

    Per seed: 200 calibration and 200 test episodes, a noisy semantic
    predictor (scale 0.2), fragment-wide monitors at both guarantee levels,
    plus the per-episode score rows and true/predicted basis columns at the
    sampled per-episode time that the coverage and simultaneity checks read.
    """
    d = standard_dictionary
    cfg = CrossroadConfig(T=40)
    ones = np.ones(d.r)
    t0 = time.perf_counter()
    runs = []
    for s in range(N_SEEDS):
        base = 100_000 * (s + 1)
        calib = [simulate_episode(cfg, base + i) for i in range(200)]
        test = [simulate_episode(cfg, base + 50_000 + i) for i in range(200)]
        stub = PredictorStub(mode="semantic", scale=0.2, bias=0.0, seed=s, dictionary=d)
        mon1 = calibrate(calib, stub, ScoreConfig(sigma=ones, alpha=ALPHA, level=1), d, tau_seed=s)
        mon2 = calibrate(calib, stub, ScoreConfig(sigma=ones, alpha=ALPHA, level=2), d, tau_seed=s)
        rows1 = score_matrix(test, stub, d, ones, 1, tau_seed=s + 777)
        rows2 = score_matrix(test, stub, d, ones, 2, tau_seed=s + 777)
        true_cols, pred_cols, spot = [], [], []
        for i, ep in enumerate(test):
            tau = sample_level2_time(s + 777, i, d.K_max, cfg.T)
            col = tau - d.K_max
            true_cols.append(semantic_basis_series(ep, d)[:, col])
            pred_cols.append(np.asarray(stub.predict(ep), dtype=float)[:, col])
            if s == 0 and i < 3:
                spot.append((ep, tau))
        runs.append(
            dict(
                seed=s,
                mon1=mon1,
                mon2=mon2,
                rows1=rows1,
                rows2=rows2,
                true_cols=np.asarray(true_cols),
                pred_cols=np.asarray(pred_cols),
                spot=spot,
            )
        )
    return {"runs": runs, "elapsed": time.perf_counter() - t0, "d": d}


@pytest.fixture(scope="module")
def window_sweep(standard_dictionary):
    """Rolling / semantic / observer monitors on one 500-episode draw, swept
    over ``G[0,K] p_f`` for K in {1, 2, 4, 8, 16}.

    The rolling and observer predictors carry i.i.d. per-step predicate
    noise with a deliberately conservative (negative) bias so the one-sided
    per-step errors are rare-but-real events whose window maxima grow with
    K; the semantic predictor perturbs each aggregate directly.
    """
    d = standard_dictionary
    cfg = CrossroadConfig(T=30)
    eps = [simulate_episode(cfg, 7_000 + i) for i in range(500)]
    stub_roll = PredictorStub(mode="predicates", scale=0.25, bias=-0.3125, seed=21)
    stub_sem = PredictorStub(mode="semantic", scale=0.12, bias=0.0, seed=22, dictionary=d)
    hist_dim = 7 * (d.K_max + 1)
    mon_roll = calibrate(
        eps, stub_roll, ScoreConfig(sigma=np.ones(hist_dim), alpha=ALPHA, level=2),
        (7, d.K_max), tau_seed=3,
    )
    mon_sem = calibrate(
        eps, stub_sem, ScoreConfig(sigma=np.ones(d.r), alpha=ALPHA, level=2), d, tau_seed=3
    )
    f_widest = Always(TimeInterval(0, d.K_max), Predicate("p_f", 1))
    mon_obs = observer_calibrate(eps, stub_roll, f_widest, ALPHA, k_max=d.K_max, tau_seed=3)
    rows = horizon_sweep(
        {"rolling": mon_roll, "semantic": mon_sem, "observer": mon_obs},
        [1, 2, 4, 8, 16],
        Predicate("p_f", 1),
    )
    return {(r.monitor, r.k): r.q_phi for r in rows}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_decoder_exactness(standard_dictionary):
    """1,000 fragment formulas and 1,000 arbitrary past-time formulas decode
    to exactly the brute-force robustness (zero error, < 30 s)."""
    with criterion(1, "decoders reproduce brute-force robustness exactly"):
        t0 = time.perf_counter()
        d = standard_dictionary
        rng = np.random.default_rng(1001)

        eps = [
            random_episode(rng, 7, int(rng.integers(16, 29)), names=d.predicate_names)
            for _ in range(20)
        ]
        series = [semantic_basis_series(ep, d) for ep in eps]
        for _ in range(1000):
            i = int(rng.integers(len(eps)))
            ep = eps[i]
            T = ep.mu.shape[1] - 1
            t = int(rng.integers(d.K_max, T + 1))
            f = random_fragment_formula(rng, d)
            dec = compile_semantic_decoder(f, d)
            basis = BasisVector(BasisKind.SEMANTIC, series[i][:, t - d.K_max], d.K_max)
            assert decode(dec, basis) == naive_robustness(f, ep.mu, t)

        hist_eps = [random_episode(rng, 3, 20) for _ in range(20)]
        for _ in range(1000):
            f = random_pnf_formula(rng, 3)
            h = horizon(f)
            i = int(rng.integers(len(hist_eps)))
            ep = hist_eps[i]
            t = int(rng.integers(h, 21))
            dec = compile_history_decoder(f, 3, h)
            basis = predicate_history_basis(ep, h, t)
            assert decode(dec, basis) == naive_robustness(f, ep.mu, t)

        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_windowed_extrema_oracle():
    """10,000 random (series, window) pairs: deque output bit-identical to a
    full rescan (< 10 s)."""
    with criterion(2, "sliding extrema bit-identical to naive rescan"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2002)
        for trial in range(10_000):
            n = int(rng.integers(1, 41))
            series = rng.normal(size=n)
            iv = random_interval(rng, max_b=6)
            mode = "min" if trial % 2 == 0 else "max"
            got = windowed_extrema(series, iv, mode)
            want = naive_windowed_extrema(series, iv, mode)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_quantile_order_invariants(rng):
    """Exact order relations: restricted radius never exceeds the
    fragment-wide radius, widening an always-window never shrinks the
    radius, and an episodewise radius never drops below the sampled-time
    radius on shared data."""
    with criterion(3, "radius ordering: support, window nesting, guarantee level"):
        # restricted <= fragment-wide on arbitrary cached scores
        for _ in range(20):
            n, dim = int(rng.integers(3, 40)), int(rng.integers(2, 12))
            cache = ScoreCache(rng.normal(size=(n, dim)), 2, 0)
            full = radius_for_support(cache, range(dim), ALPHA)
            chain, pool = [], list(rng.permutation(dim))
            while pool:
                take = int(rng.integers(1, len(pool) + 1))
                chain.append((chain[-1] if chain else frozenset()) | frozenset(pool[:take]))
                pool = pool[take:]
            radii = [radius_for_support(cache, s, ALPHA) for s in chain]
            assert radii == sorted(radii)
            assert radii[-1] == full

        # nested always-windows on a real rolling monitor
        eps = [random_episode(rng, 1, 25) for _ in range(40)]
        stub = PredictorStub(mode="predicates", scale=0.3, bias=-0.1, seed=7)
        cfg2 = ScoreConfig(sigma=np.ones(9), alpha=ALPHA, level=2)
        roll = calibrate(eps, stub, cfg2, (1, 8), tau_seed=4)
        qs = [
            roll.for_formula(Always(TimeInterval(0, k), Predicate("p0", 0))).radius
            for k in range(9)
        ]
        assert qs == sorted(qs)
        assert all(q <= roll.radius for q in qs)

        # episodewise radius dominates sampled-time radius, shared episodes
        cfg1 = ScoreConfig(sigma=np.ones(9), alpha=ALPHA, level=1)
        assert calibrate(eps, stub, cfg1, (1, 8), tau_seed=4).radius >= roll.radius


def test_criterion_4_coverage(coverage_runs):
    """Fragment-wide coverage on the crossroad scenario: over 20 disjoint
    200+200-episode draws at alpha = 0.10, mean coverage of both guarantee
    flavors stays at or above 0.88 (< 5 min)."""
    with criterion(4, "mean conformal coverage >= 0.88 at both levels"):
        t0 = time.perf_counter()
        runs = coverage_runs["runs"]
        l1 = np.mean([np.mean(r["rows1"].max(axis=1) <= r["mon1"].radius) for r in runs])
        l2 = np.mean([np.mean(r["rows2"].max(axis=1) <= r["mon2"].radius) for r in runs])
        print(f"\n  level-1 episodewise coverage {l1:.3f}, level-2 sampled-time {l2:.3f}")
        assert l1 >= 0.88
        assert l2 >= 0.88
        assert coverage_runs["elapsed"] + (time.perf_counter() - t0) < 300.0


def test_criterion_5_simultaneity(coverage_runs):
    """One fragment-wide radius certifies 50 random fragment formulas at
    once: the joint event (all 50 lower bounds correct at the sampled time)
    holds with mean frequency >= 0.88 over the 20 draws."""
    with criterion(5, "joint coverage of 50 formulas under one radius >= 0.88"):
        d = coverage_runs["d"]
        joint_rates = []
        for run in coverage_runs["runs"]:
            frng = np.random.default_rng(777_000 + run["seed"])
            formulas = [random_fragment_formula(frng, d) for _ in range(50)]
            decoders = [compile_semantic_decoder(f, d) for f in formulas]
            mon = run["mon2"]
            hits = 0
            for true_col, pred_col in zip(run["true_cols"], run["pred_cols"]):
                pred = BasisVector(BasisKind.SEMANTIC, pred_col, d.K_max)
                truth = BasisVector(BasisKind.SEMANTIC, true_col, d.K_max)
                if all(
                    certified_lower_bound(mon, pred, dec) <= decode(dec, truth)
                    for dec in decoders
                ):
                    hits += 1
            joint_rates.append(hits / len(run["true_cols"]))

            if run["seed"] == 0:  # decoded truth really is the robustness
                for f, dec in zip(formulas[:5], decoders[:5]):
                    for (ep, tau), true_col in zip(run["spot"], run["true_cols"]):
                        basis = BasisVector(BasisKind.SEMANTIC, true_col, d.K_max)
                        assert decode(dec, basis) == naive_robustness(f, ep.mu, tau)

        mean_joint = float(np.mean(joint_rates))
        print(f"\n  mean joint coverage {mean_joint:.3f}")
        assert mean_joint >= 0.88


def test_criterion_6_window_sweep_direction(window_sweep):
    """As the certified always-window grows from 1 to 16 steps, the rolling
    radius more than doubles while the semantic radius stays within 1.5x."""
    with criterion(6, "rolling radius inflates with window; semantic stays flat"):
        q = window_sweep
        roll_ratio = q[("rolling", 16)] / q[("rolling", 1)]
        sem_ratio = q[("semantic", 16)] / q[("semantic", 1)]
        print(f"\n  q ratios K=16 vs K=1: rolling {roll_ratio:.2f}, semantic {sem_ratio:.2f}")
        assert roll_ratio > 2.0
        assert sem_ratio < 1.5


def test_criterion_7_observer_looseness_and_interval_soundness(window_sweep):
    """The per-coordinate observer baseline is never tighter than the
    semantic monitor at any window length, and interval propagation brackets
    the true robustness on 10,000 randomized tests with zero violations."""
    with criterion(7, "observer baseline looser; interval propagation sound"):
        for k in (1, 2, 4, 8, 16):
            assert window_sweep[("observer", k)] >= window_sweep[("semantic", k)]

        rng = np.random.default_rng(7007)
        violations = 0
        for _ in range(10_000):
            m = int(rng.integers(1, 4))
            f = random_pnf_formula(rng, m, depth=2, max_b=3)
            h = horizon(f)
            T = h + int(rng.integers(0, 5))
            ep = random_episode(rng, m, T)
            t = int(rng.integers(h, T + 1))
            basis = predicate_history_basis(ep, h, t).values
            lower = basis - np.abs(rng.normal(size=basis.shape))
            upper = basis + np.abs(rng.normal(size=basis.shape))
            lo, hi = interval_propagate(f, lower, upper, m, h)
            truth = naive_robustness(f, ep.mu, t)
            if not lo <= truth <= hi:
                violations += 1
        assert violations == 0


def test_criterion_8_dictionary_dimensions():
    """The seven-predicate, five-window dictionary has 70 atoms against a
    119-coordinate predicate history: a 41% smaller interface, exactly."""
    with criterion(8, "basis sizes 70 vs 119 (41% smaller), exact"):
        d = build_depth1_dictionary(
            7, ((0, 1), (0, 2), (0, 4), (0, 8), (0, 16))
        )
        hist_dim = 7 * (d.K_max + 1)
        assert d.r == 70
        assert hist_dim == 119
        assert round(100 * (1 - d.r / hist_dim)) == 41


def test_criterion_9_reuse_without_data_or_predictor(tmp_path, standard_dictionary, monkeypatch):
    """After one calibration, certifying a brand-new fragment formula needs
    only the saved score cache: the dataset is deleted, the predictor is
    poisoned to fail on use, and the specialized radius still comes out
    equal to a from-scratch restricted calibration."""
    with criterion(9, "new formulas certified from the score cache alone"):
        d = standard_dictionary
        ds = tmp_path / "ds"
        generate_dataset(CrossroadConfig(T=24), {"train": 0, "calib": 24, "test": 0}, 77, ds)
        calib = load_split(ds, "calib")
        stub = PredictorStub(mode="semantic", scale=0.15, seed=3, dictionary=d)
        ones = np.ones(d.r)
        mon = calibrate(
            calib, stub, ScoreConfig(sigma=ones, alpha=ALPHA, level=2), d, tau_seed=1
        )
        mon = replace(mon, predictor_config=stub.to_json())
        model = tmp_path / "model.json"
        save_monitor(mon, model)

        f_new = parse_formula("G[0,8] p_clear & F[0,4] p_goal", d.predicate_names)
        want = calibrate(
            calib,
            stub,
            ScoreConfig(sigma=ones, alpha=ALPHA, level=2, support=mon.decoder(f_new).support),
            d,
            tau_seed=1,
        ).radius

        shutil.rmtree(ds)
        assert not ds.exists()

        def poisoned(self, ep):
            raise AssertionError("predictor ran during reuse")

        monkeypatch.setattr(PredictorStub, "predict", poisoned)

        loaded = load_monitor(model)
        active = loaded.for_formula(f_new)
        assert active.radius == want

        dec = compile_semantic_decoder(f_new, d)
        probe = BasisVector(BasisKind.SEMANTIC, np.zeros(d.r), d.K_max)
        certified_lower_bound(active, probe, dec)  # works from the basis alone
