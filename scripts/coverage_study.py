#!/usr/bin/env python3
"""Empirical coverage of the fragment-wide conformal radius.

For each repetition: simulate disjoint calibration and test sets, calibrate
one fragment-wide radius at each guarantee level, then measure how often
the certified lower bounds are correct on test episodes — over all time
steps (level 1) and at one sampled step per episode (level 2). With
``--joint N`` the level-2 check also reports the joint event that N random
fragment formulas are all bounded correctly at once by the single radius.

The defaults reproduce the shipped acceptance numbers (about a minute):

    python3 scripts/coverage_study.py
    python3 scripts/coverage_study.py --repetitions 5 --joint 50 --csv cov.csv
"""

import argparse
import csv
import sys

import numpy as np

from ptmon.benchmark import (
    DEFAULT_INTERVALS,
    PREDICATE_NAMES,
    CrossroadConfig,
    PredictorStub,
    simulate_episode,
)
from ptmon.conformal import ScoreConfig, calibrate, sample_level2_time, score_matrix
from ptmon.fragment import build_depth1_dictionary
from ptmon.logic import And, Or
from ptmon.monitors import run_episodes


def random_fragment_formula(rng, d):
    """Random and/or combination of dictionary atoms."""
    nodes = [d.atoms[int(rng.integers(d.r))] for _ in range(int(rng.integers(1, 7)))]
    while len(nodes) > 1:
        i, j = rng.choice(len(nodes), size=2, replace=False)
        merged = And(nodes[i], nodes[j]) if rng.random() < 0.5 else Or(nodes[i], nodes[j])
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [merged]
    return nodes[0]


def run_seed(d, cfg, s, n, scale, alpha, joint):
    base = 100_000 * (s + 1)
    calib = [simulate_episode(cfg, base + i) for i in range(n)]
    test = [simulate_episode(cfg, base + 50_000 + i) for i in range(n)]
    stub = PredictorStub(mode="semantic", scale=scale, bias=0.0, seed=s, dictionary=d)
    ones = np.ones(d.r)

    mon1 = calibrate(calib, stub, ScoreConfig(sigma=ones, alpha=alpha, level=1), d, tau_seed=s)
    mon2 = calibrate(calib, stub, ScoreConfig(sigma=ones, alpha=alpha, level=2), d, tau_seed=s)
    rows1 = score_matrix(test, stub, d, ones, 1, tau_seed=s + 777)
    rows2 = score_matrix(test, stub, d, ones, 2, tau_seed=s + 777)
    out = {
        "seed": s,
        "radius_l1": mon1.radius,
        "radius_l2": mon2.radius,
        "cov_l1": float(np.mean(rows1.max(axis=1) <= mon1.radius)),
        "cov_l2": float(np.mean(rows2.max(axis=1) <= mon2.radius)),
    }

    if joint:
        frng = np.random.default_rng(777_000 + s)
        formulas = [random_fragment_formula(frng, d) for _ in range(joint)]
        hits = 0
        for i, res in enumerate(run_episodes(test, stub, mon2, formulas)):
            col = sample_level2_time(s + 777, i, d.K_max, cfg.T) - d.K_max
            hits += all(res.bounds[n][col] <= res.truth[n][col] for n in res.bounds)
        out["cov_joint"] = hits / len(test)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repetitions", type=int, default=20)
    ap.add_argument("--episodes", type=int, default=200, help="per split, per repetition")
    ap.add_argument("--horizon", type=int, default=40, help="steps per episode")
    ap.add_argument("--scale", type=float, default=0.2, help="predictor noise scale")
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--joint", type=int, default=0, help="formulas in the joint level-2 check")
    ap.add_argument("--csv", help="write one row per repetition here")
    args = ap.parse_args(argv)

    d = build_depth1_dictionary(7, DEFAULT_INTERVALS, PREDICATE_NAMES)
    cfg = CrossroadConfig(T=args.horizon)
    target = 1 - args.alpha

    cols = ["seed", "radius_l1", "radius_l2", "cov_l1", "cov_l2"]
    if args.joint:
        cols.append("cov_joint")
    print("  ".join(f"{c:>9}" for c in cols))
    results = []
    for s in range(args.repetitions):
        r = run_seed(d, cfg, s, args.episodes, args.scale, args.alpha, args.joint)
        results.append(r)
        print("  ".join(f"{r[c]:9.3f}" if c != "seed" else f"{r[c]:9d}" for c in cols))

    print(f"\ntarget 1 - alpha = {target:.2f}")
    for c in cols[3:]:
        print(f"mean {c}: {np.mean([r[c] for r in results]):.3f}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            w.writerows(results)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
