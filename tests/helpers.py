"""Shared test utilities: naive reference oracles and seeded generators.

The oracles here deliberately avoid every optimization the library uses —
no memoization, no sliding-window deques, no vectorization beyond single
elementwise ufuncs, no generated code — so agreement between the two is
meaningful.
"""

from __future__ import annotations

import functools

import numpy as np

from ptmon.fragment import DecoderNode, Leaf, MinNode
from ptmon.logic import (
    Always,
    And,
    Eventually,
    Formula,
    Or,
    Predicate,
    TimeInterval,
    horizon,
)
from ptmon.robustness import Episode


# ---------------------------------------------------------------------------
# Naive oracles
# ---------------------------------------------------------------------------


def naive_robustness(f: Formula, mu: np.ndarray, t: int) -> float:
    """Direct transcription of the robustness semantics, no shortcuts."""
    if isinstance(f, Predicate):
        return float(mu[f.index, t])
    if isinstance(f, And):
        return min(naive_robustness(f.left, mu, t), naive_robustness(f.right, mu, t))
    if isinstance(f, Or):
        return max(naive_robustness(f.left, mu, t), naive_robustness(f.right, mu, t))
    if isinstance(f, Always):
        return min(
            naive_robustness(f.child, mu, t - k)
            for k in range(f.interval.a, f.interval.b + 1)
        )
    if isinstance(f, Eventually):
        return max(
            naive_robustness(f.child, mu, t - k)
            for k in range(f.interval.a, f.interval.b + 1)
        )
    raise TypeError(f"not a formula: {f!r}")


def predicate_lag_support(f: Formula) -> set[tuple[int, int]]:
    """All ``(predicate index, backward lag)`` history coordinates ``f`` reads.

    Window operators shift the lags of their child by every offset in the
    window; boolean nodes take the union of their children.
    """
    if isinstance(f, Predicate):
        return {(f.index, 0)}
    if isinstance(f, (And, Or)):
        return predicate_lag_support(f.left) | predicate_lag_support(f.right)
    iv = f.interval
    return {
        (pred, lag + offset)
        for pred, lag in predicate_lag_support(f.child)
        for offset in range(iv.a, iv.b + 1)
    }


def naive_decode(node: DecoderNode, values) -> float:
    """Walk a decoder tree with the built-in ``min``/``max``, child by child."""
    if isinstance(node, Leaf):
        return float(values[node.index])
    child_values = (naive_decode(c, values) for c in node.children)
    return min(child_values) if isinstance(node, MinNode) else max(child_values)


def naive_decode_series(node: DecoderNode, values: np.ndarray) -> np.ndarray:
    """Walk a decoder tree over the rows of a ``(dim, n)`` matrix, folding
    each node's children left to right with ``np.minimum``/``np.maximum``."""
    if isinstance(node, Leaf):
        return values[node.index]
    op = np.minimum if isinstance(node, MinNode) else np.maximum
    return functools.reduce(op, (naive_decode_series(c, values) for c in node.children))


def naive_windowed_extrema(series, interval: TimeInterval, mode: str):
    """Rescan every window with the built-in min/max."""
    x = list(series)
    pick = min if mode == "min" else max
    out = []
    for t in range(interval.b, len(x)):
        out.append(pick(x[t - interval.b : t - interval.a + 1]))
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# Random generators (all driven by an explicit numpy Generator)
# ---------------------------------------------------------------------------


def random_interval(rng: np.random.Generator, max_b: int = 4) -> TimeInterval:
    a = int(rng.integers(0, max_b + 1))
    b = int(rng.integers(a, max_b + 1))
    return TimeInterval(a, b)


def random_pnf_formula(
    rng: np.random.Generator, m: int, depth: int = 3, max_b: int = 4
) -> Formula:
    """Arbitrary positive-normal-form formula with bounded nesting."""
    if depth == 0 or rng.random() < 0.3:
        k = int(rng.integers(m))
        return Predicate(f"p{k}", k)
    kind = rng.integers(4)
    if kind == 0:
        return And(
            random_pnf_formula(rng, m, depth - 1, max_b),
            random_pnf_formula(rng, m, depth - 1, max_b),
        )
    if kind == 1:
        return Or(
            random_pnf_formula(rng, m, depth - 1, max_b),
            random_pnf_formula(rng, m, depth - 1, max_b),
        )
    if kind == 2:
        return Always(random_interval(rng, max_b), random_pnf_formula(rng, m, depth - 1, max_b))
    return Eventually(random_interval(rng, max_b), random_pnf_formula(rng, m, depth - 1, max_b))


def random_fragment_formula(rng: np.random.Generator, dictionary) -> Formula:
    """Random and/or combination of dictionary atoms (hence in the fragment)."""
    n_leaves = int(rng.integers(1, 7))
    nodes = [dictionary.atoms[int(rng.integers(dictionary.r))] for _ in range(n_leaves)]
    while len(nodes) > 1:
        i, j = rng.choice(len(nodes), size=2, replace=False)
        a, b = nodes[i], nodes[j]
        merged = And(a, b) if rng.random() < 0.5 else Or(a, b)
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [merged]
    return nodes[0]


def random_episode(
    rng: np.random.Generator, m: int, T: int, names: tuple[str, ...] | None = None
) -> Episode:
    mu = rng.normal(size=(m, T + 1))
    return Episode(
        mu=mu,
        dt=1.0,
        predicate_names=names or tuple(f"p{k}" for k in range(m)),
        uid=int(rng.integers(1 << 30)),
    )


def valid_time(rng: np.random.Generator, f: Formula, T: int) -> int:
    h = horizon(f)
    assert h <= T, f"formula horizon {h} exceeds episode length {T}"
    return int(rng.integers(h, T + 1))
