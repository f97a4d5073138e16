"""Exact robustness semantics over recorded episodes, plus basis extraction.

Robustness of a predicate at time ``t`` is its recorded margin; ``&`` takes
the min, ``|`` the max, ``G[a,b]`` the min over the backward window
``t-b..t-a`` and ``F[a,b]`` the max. A formula is satisfied at ``t`` exactly
when its robustness is ``>= 0``.

Two flattenings of an episode's history are used downstream:

* the predicate-history vector: every predicate value at every lag up to a
  chosen depth, laid out predicate-major (``k * (k_max+1) + j`` for predicate
  ``k`` at lag ``j``);
* the semantic vector: one robustness value per atom of a dictionary.

Everything here is pure; episodes are treated as immutable once built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .logic import (
    Always,
    And,
    Eventually,
    Formula,
    Or,
    Predicate,
    TimeInterval,
    horizon,
)


class TimeOutOfRangeError(ValueError):
    """Evaluation time falls before the formula's horizon or after the episode end."""


class BasisKind(str, Enum):
    PREDICATE_HISTORY = "predicate_history"
    SEMANTIC = "semantic"


@dataclass(frozen=True, eq=False)
class Episode:
    """A finished run: per-predicate margins over ``t = 0..T`` plus metadata.

    ``mu`` has shape ``(m, T+1)``; row ``k`` holds predicate ``k``'s margin at
    each step. ``states`` (optional) has one row per step and is carried only
    for dataset round-trips — the monitors never read it. ``uid`` identifies
    the episode for reproducible noise generation.
    """

    mu: np.ndarray
    dt: float = 1.0
    states: np.ndarray | None = None
    predicate_names: tuple[str, ...] = ()
    uid: int = 0

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 2 or mu.shape[1] < 1:
            raise ValueError(f"mu must be (m, T+1), got shape {mu.shape}")
        if not np.isfinite(mu).all():
            raise ValueError("mu contains non-finite values")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "mu", mu)
        if self.states is not None:
            states = np.asarray(self.states, dtype=float)
            if states.shape[0] != mu.shape[1]:
                raise ValueError("states and mu disagree on episode length")
            object.__setattr__(self, "states", states)
        if self.predicate_names and len(self.predicate_names) != mu.shape[0]:
            raise ValueError("predicate_names length must match mu rows")

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    @property
    def T(self) -> int:
        return self.mu.shape[1] - 1


@dataclass(frozen=True, eq=False)
class BasisVector:
    """A basis snapshot at one evaluation time, tagged with its layout."""

    kind: BasisKind
    values: np.ndarray
    t: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"basis values must be a vector, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("basis values contain non-finite entries")
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def robustness(f: Formula, ep: Episode, t: int, memo: dict | None = None) -> float:
    """Exact robustness of ``f`` over ``ep`` at time ``t``.

    Raises :class:`TimeOutOfRangeError` unless ``horizon(f) <= t <= ep.T``.
    ``memo`` (optional) caches subformula values keyed by node identity so a
    caller evaluating many formulas that share subtrees at the same time can
    pass one dict across calls; the formulas must outlive the memo.
    """
    h = horizon(f)
    if t < h or t > ep.T:
        raise TimeOutOfRangeError(
            f"t={t} outside valid range [{h}, {ep.T}] for a horizon-{h} formula"
        )
    if memo is None:
        memo = {}
    return _rob(f, ep.mu, t, memo)


def _rob(f: Formula, mu: np.ndarray, t: int, memo: dict) -> float:
    key = (id(f), t)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(f, Predicate):
        v = float(mu[f.index, t])
    elif isinstance(f, And):
        v = min(_rob(f.left, mu, t, memo), _rob(f.right, mu, t, memo))
    elif isinstance(f, Or):
        v = max(_rob(f.left, mu, t, memo), _rob(f.right, mu, t, memo))
    else:
        iv = f.interval
        child = f.child
        values = (_rob(child, mu, s, memo) for s in range(t - iv.b, t - iv.a + 1))
        v = min(values) if isinstance(f, Always) else max(values)
    memo[key] = v
    return v


# ---------------------------------------------------------------------------
# Sliding-window extrema
# ---------------------------------------------------------------------------

Mode = Literal["min", "max"]


def windowed_extrema(series: Sequence[float] | np.ndarray, interval: TimeInterval, mode: Mode) -> np.ndarray:
    """Backward-window extremum of ``series`` at every fully covered time.

    ``out[i]`` is the ``mode``-extremum of ``series[t-b .. t-a]`` for
    ``t = i + b``; times whose window would reach before the first sample are
    omitted, so the result has length ``max(0, len(series) - b)``. Runs in
    amortized O(1) per step with a monotone double-ended queue and returns
    exactly what a naive rescan of each window would.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {x.shape}")
    a, b = interval.a, interval.b
    n = x.shape[0]
    out_len = n - b
    if out_len <= 0:
        return np.empty(0, dtype=float)
    out = np.empty(out_len, dtype=float)
    dq: deque[int] = deque()
    if mode == "min":
        def push(i: int) -> None:
            while dq and x[dq[-1]] >= x[i]:
                dq.pop()
            dq.append(i)
    else:
        def push(i: int) -> None:
            while dq and x[dq[-1]] <= x[i]:
                dq.pop()
            dq.append(i)
    for i in range(0, b - a):
        push(i)
    for t in range(b, n):
        push(t - a)
        while dq[0] < t - b:
            dq.popleft()
        out[t - b] = x[dq[0]]
    return out


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


def robustness_series(f: Formula, ep: Episode) -> np.ndarray:
    """Robustness of ``f`` at every valid time, as one pass over the episode.

    The result is aligned to ``t = horizon(f) .. ep.T`` (empty if the episode
    is shorter than the horizon). Window nodes run through
    :func:`windowed_extrema`, so the whole series costs O(nodes * T).
    """
    return _series(f, ep.mu)


def _series(f: Formula, mu: np.ndarray) -> np.ndarray:
    if isinstance(f, Predicate):
        return mu[f.index].astype(float, copy=False)
    if isinstance(f, (And, Or)):
        left = _series(f.left, mu)
        right = _series(f.right, mu)
        h_left = horizon(f.left)
        h_right = horizon(f.right)
        h = max(h_left, h_right)
        left = left[h - h_left:] if h > h_left else left
        right = right[h - h_right:] if h > h_right else right
        return np.minimum(left, right) if isinstance(f, And) else np.maximum(left, right)
    child = _series(f.child, mu)
    return windowed_extrema(child, f.interval, "min" if isinstance(f, Always) else "max")


# ---------------------------------------------------------------------------
# Basis extraction
# ---------------------------------------------------------------------------


def predicate_history_basis(ep: Episode, k_max: int, t: int) -> BasisVector:
    """Stack the last ``k_max+1`` values of every predicate at time ``t``.

    Coordinate ``k * (k_max+1) + j`` holds predicate ``k`` at lag ``j``.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if t < k_max or t > ep.T:
        raise TimeOutOfRangeError(f"t={t} outside valid range [{k_max}, {ep.T}]")
    window = ep.mu[:, t - k_max : t + 1]
    values = window[:, ::-1].reshape(-1).copy()
    return BasisVector(BasisKind.PREDICATE_HISTORY, values, t)


def predicate_history_series(ep: Episode, k_max: int) -> np.ndarray:
    """Predicate-history vectors for all valid times, as columns.

    Shape ``(m*(k_max+1), T - k_max + 1)``; column ``i`` equals
    :func:`predicate_history_basis` at ``t = k_max + i``.
    """
    return stack_lags(ep.mu, k_max)


def stack_lags(step_values: np.ndarray, k_max: int) -> np.ndarray:
    """Lay out per-step values ``(m, T+1)`` as history columns over the
    valid times ``t = k_max .. T``: row ``k*(k_max+1) + j`` holds row ``k``
    at lag ``j``."""
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    x = np.asarray(step_values, dtype=float)
    m, n = x.shape
    if n - 1 < k_max:
        raise TimeOutOfRangeError(f"episode too short: T={n - 1} < k_max={k_max}")
    width = k_max + 1
    # windows[k, i, j] is row k at time i + j; reversing j turns it into a lag.
    windows = sliding_window_view(x, width, axis=1)
    return np.array(windows[:, :, ::-1].transpose(0, 2, 1), order="C").reshape(m * width, -1)


def semantic_basis(ep: Episode, dictionary, t: int) -> BasisVector:
    """Robustness of every dictionary atom at time ``t``."""
    k_max = dictionary.K_max
    if t < k_max or t > ep.T:
        raise TimeOutOfRangeError(f"t={t} outside valid range [{k_max}, {ep.T}]")
    memo: dict = {}
    values = np.array([_rob(a, ep.mu, t, memo) for a in dictionary.atoms], dtype=float)
    return BasisVector(BasisKind.SEMANTIC, values, t)


def semantic_basis_series(ep: Episode, dictionary) -> np.ndarray:
    """Semantic vectors for all valid times, one dictionary atom per row.

    Shape ``(r, T - K_max + 1)``, aligned to ``t = K_max .. T``. Each atom is
    evaluated with one sliding-window pass, and the rows agree exactly with
    pointwise :func:`semantic_basis` calls.
    """
    k_max = dictionary.K_max
    if ep.T < k_max:
        raise TimeOutOfRangeError(f"episode too short: T={ep.T} < K_max={k_max}")
    rows = []
    for atom in dictionary.atoms:
        series = _series(atom, ep.mu)
        rows.append(series[k_max - horizon(atom):] if horizon(atom) < k_max else series)
    return np.vstack(rows)
