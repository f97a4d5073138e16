"""Exact robustness semantics over recorded episodes, plus basis extraction.

Robustness of a predicate at time ``t`` is its recorded margin; ``&`` takes
the min, ``|`` the max, ``G[a,b]`` the min over the backward window
``t-b..t-a`` and ``F[a,b]`` the max. A formula is satisfied at ``t`` exactly
when its robustness is ``>= 0``.

One evaluator computes a formula's robustness at every valid time of a
``(m, n)`` margin array; the value at one time ``t`` is entry
``t - horizon``. Every sliding window extremum, in that evaluator and in the
semantic basis (whose ``G[0,b] p`` / ``F[0,b] p`` atoms share one pass over
all predicates), comes from :func:`_sliding_extrema`: about ``log2(w)``
numpy passes for a width-``w`` window, and bit-identical to folding the lags
one by one, tied zeros of opposite sign included.

Two flattenings of an episode's history are used downstream:

* the predicate-history vector: every predicate value at every lag up to a
  chosen depth, laid out predicate-major (``k * (k_max+1) + j`` for predicate
  ``k`` at lag ``j``);
* the semantic vector: one robustness value per atom of a dictionary.

Everything here is pure; an episode keeps its arrays read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Literal, Sequence

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
)


class TimeOutOfRangeError(ValueError):
    """Evaluation time falls before the history depth or after the episode end."""


class BasisKind(str, Enum):
    PREDICATE_HISTORY = "predicate_history"
    SEMANTIC = "semantic"


def read_only_array(x) -> np.ndarray:
    """``x`` as a float array that cannot be written: a read-only copy, or
    ``x`` itself when it already is a read-only float array owning its
    memory (such as one this function returned)."""
    if isinstance(x, np.ndarray) and x.dtype == float and x.base is None and not x.flags.writeable:
        return x
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Episode:
    """A finished run: per-predicate margins over ``t = 0..T`` plus metadata.

    ``mu`` has shape ``(m, T+1)``; row ``k`` holds predicate ``k``'s margin at
    each step. ``states`` (optional) has one row per step and is carried only
    for dataset round-trips — the monitors never read it. ``uid`` identifies
    the episode for reproducible noise generation. Both arrays are stored
    read-only (:func:`read_only_array`), so no result that views them can
    change the episode.
    """

    mu: np.ndarray
    dt: float = 1.0
    states: np.ndarray | None = None
    predicate_names: tuple[str, ...] = ()
    uid: int = 0

    def __post_init__(self) -> None:
        mu = read_only_array(self.mu)
        if mu.ndim != 2 or mu.shape[1] < 1:
            raise ValueError(f"mu must be (m, T+1), got shape {mu.shape}")
        if not np.isfinite(mu).all():
            raise ValueError("mu contains non-finite values")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "mu", mu)
        if self.states is not None:
            states = read_only_array(self.states)
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
    """A basis snapshot at one evaluation time, tagged with its layout.

    ``values`` is stored read-only (:func:`read_only_array`), so a snapshot
    never changes once built. Monitors are immutable too, so certification
    keeps each monitor's shrunk values on the snapshot itself (``_shrunk``,
    keyed by the monitor, see :func:`~ptmon.conformal.certified_lower_bound`),
    and they go away with it.
    """

    kind: BasisKind
    values: np.ndarray
    t: int
    _shrunk: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        values = read_only_array(self.values)
        if values.ndim != 1:
            raise ValueError(f"basis values must be a vector, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("basis values contain non-finite entries")
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Mode = Literal["min", "max"]


def _sliding_extrema(y: np.ndarray, op: np.ufunc, windows) -> None:
    """Sliding ``op`` (``np.minimum`` or ``np.maximum``) along axis 0 of ``y``.

    ``windows`` holds ``(width, first, out)`` triples in ascending
    ``width``; ``out[i]`` receives the extremum of ``y[first + i : first +
    i + width]``. Windows of ``p = 1, 2, 4, ...`` samples are built by
    doubling until ``2p >= width``; each width is then the extremum of two
    windows of ``p``, written into ``out``. Each pass is one contiguous loop
    when ``y`` is C-contiguous.

    The older window always goes second: numpy keeps the second argument
    on a tie, so of ``0.0`` and ``-0.0`` the oldest sample wins, as in a
    left-to-right fold over the lags.
    """
    table, p = y, 1
    for width, first, out in windows:
        while 2 * p < width:
            table = op(table[p:], table[:-p])
            p *= 2
        later = first + width - p
        op(table[later : later + len(out)], table[first : first + len(out)], out=out)


def windowed_extrema(series: Sequence[float] | np.ndarray, interval: TimeInterval, mode: Mode) -> np.ndarray:
    """Backward-window extremum of ``series`` at every fully covered time.

    ``out[i]`` is the ``mode``-extremum of ``series[t-b .. t-a]`` for
    ``t = i + b``; times whose window would reach before the first sample are
    omitted, so the result has length ``max(0, len(series) - b)``. It comes
    from :func:`_sliding_extrema` in about ``log2(b - a + 1)`` passes over
    the series, is exactly what a naive rescan of each window returns (bit
    for bit, tied zeros included) and never shares memory with ``series``.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {x.shape}")
    a, b = interval.a, interval.b
    n = x.shape[0]
    if n <= b:
        return np.empty(0, dtype=float)
    out = np.empty(n - b)
    # The window of t = i + b is x[i : i + b - a + 1].
    _sliding_extrema(x, np.minimum if mode == "min" else np.maximum, [(b - a + 1, 0, out)])
    return out


def robustness_series(f: Formula, ep: Episode) -> np.ndarray:
    """Robustness of ``f`` at every valid time, as one pass over the episode.

    The result is aligned to ``t = horizon(f) .. ep.T`` (empty if the episode
    is shorter than the horizon). Window nodes run through
    :func:`windowed_extrema`, so the series costs O(T) per ``&``/``|`` node
    and O(T log(b - a + 1)) per window node.
    """
    return _series(f, ep.mu)


def _series(f: Formula, mu: np.ndarray) -> np.ndarray:
    if isinstance(f, Predicate):
        return mu[f.index]
    if isinstance(f, (And, Or)):
        left = _series(f.left, mu)
        right = _series(f.right, mu)
        # Both children end at the last step, so they align on their common
        # tail; x[-n:] would be all of x when n == 0.
        n = min(left.size, right.size)
        op = np.minimum if isinstance(f, And) else np.maximum
        return op(left[left.size - n :], right[right.size - n :])
    child = _series(f.child, mu)
    return windowed_extrema(child, f.interval, "min" if isinstance(f, Always) else "max")


# ---------------------------------------------------------------------------
# Basis extraction
# ---------------------------------------------------------------------------


def predicate_history_basis(ep: Episode, k_max: int, t: int) -> BasisVector:
    """Stack the last ``k_max+1`` values of every predicate at time ``t``.

    Coordinate ``k * (k_max+1) + j`` holds predicate ``k`` at lag ``j``. No
    library path reads one snapshot at a time; the acceptance tests check
    decoders against this pointwise form.
    """
    if t < k_max or t > ep.T:
        raise TimeOutOfRangeError(f"t={t} outside valid range [{k_max}, {ep.T}]")
    values = stack_lags(ep.mu[:, t - k_max : t + 1], k_max)[:, 0]
    return BasisVector(BasisKind.PREDICATE_HISTORY, values, t)


def predicate_history_series(ep: Episode, k_max: int) -> np.ndarray:
    """Predicate-history vectors for all valid times, as columns.

    Shape ``(m*(k_max+1), T - k_max + 1)``; column ``i`` is the history at
    ``t = k_max + i``, coordinate ``k * (k_max+1) + j`` holding predicate
    ``k`` at lag ``j`` (:func:`stack_lags`).
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


@dataclass(frozen=True, eq=False)
class WindowLayout:
    """Which atoms of a dictionary the shared window pass fills.

    Row ``rows[i]`` of the semantic basis is ``G[0,b] p`` (``modes[i] == 0``)
    or ``F[0,b] p`` (``modes[i] == 1``) for the predicate ``predicates[i]``
    and ``b = widths[width_index[i]]``; ``widths`` holds the distinct ``b``
    in ascending order. Every row in ``fallback`` is evaluated on its own.
    """

    widths: tuple[int, ...]
    rows: np.ndarray
    modes: np.ndarray
    width_index: np.ndarray
    predicates: np.ndarray
    fallback: tuple[int, ...]


def window_layout(atoms: Sequence[Formula]) -> WindowLayout:
    """The :class:`WindowLayout` of a dictionary's atoms."""
    shared = [
        i
        for i, f in enumerate(atoms)
        if isinstance(f, (Always, Eventually)) and f.interval.a == 0 and isinstance(f.child, Predicate)
    ]
    bs = np.array([atoms[i].interval.b for i in shared], dtype=np.intp)
    widths = np.unique(bs)
    return WindowLayout(
        widths=tuple(widths.tolist()),
        rows=np.array(shared, dtype=np.intp),
        modes=np.array([isinstance(atoms[i], Eventually) for i in shared], dtype=np.intp),
        width_index=np.searchsorted(widths, bs),
        predicates=np.array([atoms[i].child.index for i in shared], dtype=np.intp),
        fallback=tuple(i for i in range(len(atoms)) if i not in shared),
    )


def _basis_rows(mu: np.ndarray, dictionary) -> np.ndarray:
    """Every atom's robustness at the times ``K_max .. n-1`` of a ``(m, n)``
    margin array, one atom per row; ``n > K_max``."""
    layout = dictionary.window_layout
    k, n = dictionary.K_max, mu.shape[1]
    # Without fallback atoms the shared rows are all rows, in order.
    out = np.empty((dictionary.r, n - k)) if layout.fallback else None
    if layout.widths:
        # snapshots[w, mode, i] holds every predicate's min (mode 0) or max
        # (mode 1) over the window of b = widths[w] ending at time k + i,
        # which starts at row k - b + i of the time-major margins.
        y = np.ascontiguousarray(mu.T)
        snapshots = np.empty((len(layout.widths), 2, n - k, mu.shape[0]))
        for mode, op in enumerate((np.minimum, np.maximum)):
            _sliding_extrema(y, op, [(b + 1, k - b, snapshots[w, mode]) for w, b in enumerate(layout.widths)])
        rows = snapshots[layout.width_index, layout.modes, :, layout.predicates]
        if out is None:
            return rows
        out[layout.rows] = rows
    for i in layout.fallback:
        row = _series(dictionary.atoms[i], mu)
        out[i] = row[row.size - out.shape[1] :]
    return out


def semantic_basis_series(ep: Episode, dictionary) -> np.ndarray:
    """Semantic vectors for all valid times, one dictionary atom per row.

    Shape ``(r, T - K_max + 1)``, aligned to ``t = K_max .. T``. The atoms
    ``G[0,b] p`` and ``F[0,b] p`` over a bare predicate (the whole of a
    :func:`~ptmon.fragment.build_depth1_dictionary` dictionary whose windows
    start at 0) come from one shared pass: :func:`_sliding_extrema` over the
    time-major margins of all predicates, once for the min and once for the
    max, written for each distinct ``b`` into one snapshot array and
    gathered into their rows. Every other atom is evaluated on its own with
    :func:`robustness_series`'s evaluator and cut to the common tail. Both
    are exact, so each row equals that atom's :func:`robustness_series`
    tail bit for bit. The result is a new writable array.
    """
    k_max = dictionary.K_max
    if ep.T < k_max:
        raise TimeOutOfRangeError(f"episode too short: T={ep.T} < K_max={k_max}")
    return _basis_rows(ep.mu, dictionary)
