"""Split-conformal calibration of basis predictions and certified lower bounds.

The contract: a predictor emits basis estimates for each episode; calibration
turns held-out episodes into normalized one-sided error scores, takes the
finite-sample quantile, and stores that radius. At run time, subtracting
the monitor's ``shift`` (``radius * sigma``) from every predicted coordinate
and decoding yields a number that lower-bounds the true robustness with the
calibrated probability — simultaneously for every formula the decoder
construction covers, because one basis-wide event implies them all. The
per-coordinate observer baseline is the same operation with one radius per
coordinate. :func:`certified_lower_bound` certifies one basis vector: a
fragment-wide monitor shrinks each snapshot once for all the formulas
certified from it, and a monitor with a restricted support subtracts its
shift inside its own read-out of each decoder instead;
:func:`certified_lower_bounds` certifies a whole matrix of them
for several formulas, shrinking it once for all their decoders, which read
it row-major.

Two aggregation levels are supported: per-episode worst time (level 1) and a
single uniformly sampled time per episode (level 2). The raw per-coordinate
score matrix is cached so the radius for any new formula's support can be
recomputed later without touching data or predictor again.

:func:`estimate_sigma`, :func:`score_matrix`, :func:`observer_calibrate`
and :func:`~ptmon.monitors.run_episodes` read episodes through one
generator of blocks (:func:`_episode_blocks`) of whole episodes or, at
level 2, of each episode's sampled window of ``k_max + 1`` steps. Each
episode is predicted whole and its prediction checked on its own, but the
truth and the error matrix are computed once per block, with results
bit-identical to one episode at a time.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .fragment import (
    AtomicDictionary,
    BasisMismatchError,
    Decoder,
    _shifted_read,
    compile_history_decoder,
    compile_semantic_decoder,
    decode_series,
    decode_values,
    dictionary_from_json,
    dictionary_to_json,
)
from .logic import Formula, horizon
from .robustness import (
    BasisKind,
    BasisVector,
    Episode,
    _basis_rows,
    read_only_array,
    stack_lags,
)

SCORE_CACHE_VERSION = 1
MONITOR_VERSION = 1
# Smallest per-coordinate scale estimate_sigma returns.
SIGMA_FLOOR = 1e-6


class SupportMismatchError(ValueError):
    """Decoder reads coordinates outside the monitor's calibrated support."""


@dataclass(frozen=True, eq=False)
class ScoreConfig:
    """How per-timestep scores are formed and aggregated.

    ``sigma`` holds one positive scale per basis coordinate. ``support`` of
    ``None`` means the score maxes over all coordinates; otherwise only over
    the given set. ``level`` 1 aggregates each calibration episode by its
    worst time, level 2 by one uniformly sampled time.
    """

    sigma: np.ndarray
    alpha: float
    level: int
    support: frozenset[int] | None = None

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 1 or sigma.size == 0:
            raise ValueError("sigma must be a nonempty vector")
        if not (np.isfinite(sigma) & (sigma > 0)).all():
            raise ValueError("sigma must be finite and strictly positive")
        object.__setattr__(self, "sigma", sigma)
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.level not in (1, 2):
            raise ValueError(f"level must be 1 or 2, got {self.level}")
        if self.support is not None:
            support = frozenset(int(i) for i in self.support)
            if not support:
                raise ValueError("support must be nonempty when given")
            if min(support) < 0 or max(support) >= sigma.size:
                raise ValueError("support indices out of range")
            object.__setattr__(self, "support", support)


def _rank(n: int, alpha: float) -> int:
    """The 1-based rank of the split-conformal quantile among ``n`` scores:
    ``min(n, ceil((n+1)(1-alpha)))``. Every quantile of this module takes
    its rank here."""
    if n == 0:
        raise ValueError("cannot take a quantile of an empty score list")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return min(n, math.ceil((n + 1) * (1.0 - alpha)))


def split_quantile(scores: Sequence[float] | np.ndarray, alpha: float) -> float | np.ndarray:
    """Finite-sample upper quantile: the ``min(n, ceil((n+1)(1-alpha)))``-th
    smallest of ``n`` scores (1-based); of each column, for an ``(n, c)``
    matrix of scores."""
    s = np.sort(np.asarray(scores, dtype=float), axis=0)
    rank = _rank(s.shape[0], alpha)
    return float(s[rank - 1]) if s.ndim == 1 else s[rank - 1]


# ---------------------------------------------------------------------------
# Score caches and calibrated monitors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScoreCache:
    """Per-episode aggregated normalized errors, one row per episode.

    ``matrix[i, c]`` is episode ``i``'s aggregated (level-1: worst-time,
    level-2: sampled-time) error at coordinate ``c``, already divided by
    ``sigma[c]``. Because max commutes with max, the radius for any
    coordinate subset is the split quantile of row-wise maxima over that
    subset — no data or predictor involved.

    The matrix is stored read-only and column-major, so the columns of a
    support are contiguous reads (:func:`radius_for_support`). The first
    per-coordinate query (:meth:`column_quantiles`) sorts every column once
    and keeps the result, one more array of the matrix's size; later
    queries read their order statistics from it.
    """

    matrix: np.ndarray
    level: int
    seed: int
    symmetric: bool = False
    version: int = SCORE_CACHE_VERSION

    def __post_init__(self) -> None:
        # An owned, read-only copy: the sorted columns can never go stale.
        matrix = np.array(self.matrix, dtype=float, order="F")
        if matrix.ndim != 2:
            raise ValueError(f"cache matrix must be 2-D, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("cache matrix contains non-finite entries")
        if self.level not in (1, 2):
            raise ValueError(f"level must be 1 or 2, got {self.level}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _sorted_columns(self) -> np.ndarray:
        """Each column of :attr:`matrix` in ascending order, computed once."""
        s = np.sort(self.matrix, axis=0)
        s.flags.writeable = False
        return s

    def column_quantiles(self, idx: Sequence[int] | np.ndarray, alpha: float) -> np.ndarray:
        """``split_quantile(matrix[:, idx], alpha)``, bit for bit: each
        listed column's order statistic, read from the columns sorted once."""
        return self._sorted_columns[_rank(self.matrix.shape[0], alpha) - 1].take(idx)


def save_score_cache(cache: ScoreCache, path: str | Path) -> None:
    np.savez(
        path,
        matrix=cache.matrix,
        level=np.int64(cache.level),
        seed=np.int64(cache.seed),
        symmetric=np.bool_(cache.symmetric),
        version=np.int64(cache.version),
    )


def load_score_cache(path: str | Path) -> ScoreCache:
    with np.load(path) as data:
        version = int(data["version"])
        if version != SCORE_CACHE_VERSION:
            raise ValueError(f"unsupported score cache version {version}")
        return ScoreCache(
            matrix=data["matrix"],
            level=int(data["level"]),
            seed=int(data["seed"]),
            symmetric=bool(data["symmetric"]),
        )


@dataclass(frozen=True, eq=False)
class CalibratedMonitor:
    """Everything needed to certify at run time, plus the score cache.

    ``kind`` is ``"semantic"`` (decode a dictionary-atom basis),
    ``"rolling"`` (decode raw predicate history), or ``"observer"``
    (decode raw predicate history shrunk by per-coordinate radii
    ``coord_radii``, the lower end of symmetric intervals).
    ``support`` of ``None`` means the radius protects the whole basis;
    otherwise only decoders reading within ``support`` may use it.

    Building a monitor checks that its parts agree, and raises
    ``ValueError`` naming the numbers when they do not: ``sigma``,
    ``coord_radii`` and the cache's columns must each have the basis
    dimension, and the cache must hold ``n_calibration`` rows at the
    monitor's ``level`` and ``seed``, symmetric (``|error|``) scores for an
    observer and one-sided ones otherwise.

    A monitor is immutable: its fields cannot be reassigned, and ``sigma``
    and ``coord_radii`` are stored read-only. So its :attr:`shift`,
    :attr:`dim` and :attr:`basis_kind` are computed once, and a snapshot
    shrunk for it stays valid (see :func:`certified_lower_bound`). A
    changed monitor is a new one, made with :func:`dataclasses.replace`,
    which validates it again. :meth:`for_formula` changes only fields that
    need no validation (support, formula, radius, coordinate radii), so it
    builds its copies without the frozen ``__init__``: a fresh instance
    takes one copy of this monitor's ``__dict__``, less its cached
    properties, with the changed fields set. Its radius is read from the
    cache through the decoder's sorted
    :attr:`~ptmon.fragment.Decoder.support_index`, so a query for a
    formula whose decoder is compiled costs the support's order statistics
    and that copy. :meth:`decoder` compiles each formula once per monitor
    and keeps the result. A :meth:`for_formula` copy starts with its
    parent's decoder for the formula, whose support is the copy's
    ``support`` (decoders are immutable, so sharing one is safe); a
    :func:`dataclasses.replace` copy starts with none. Either computes its own :attr:`shift`, :attr:`dim`
    and :attr:`basis_kind`. A monitor with a restricted ``support`` keeps
    its own shifted read-out of each live decoder it has certified with
    (:meth:`_read_out`), generated on the first certification, never by
    :meth:`for_formula`; every copy starts with none, since its shift may
    differ.
    """

    kind: str
    level: int
    alpha: float
    radius: float
    sigma: np.ndarray
    n_calibration: int
    seed: int
    dictionary: AtomicDictionary | None = None
    m: int | None = None
    k_max: int | None = None
    support: frozenset[int] | None = None
    cache: ScoreCache | None = None
    formula: str | None = None
    coord_radii: np.ndarray | None = None
    predictor_config: dict | None = None
    _decoders: dict[Formula, Decoder] = field(default_factory=dict, init=False, repr=False)
    _read_outs: dict[int, tuple[weakref.ref, Callable]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("semantic", "rolling", "observer"):
            raise ValueError(f"unknown monitor kind {self.kind!r}")
        object.__setattr__(self, "sigma", read_only_array(self.sigma))
        if self.coord_radii is not None:
            object.__setattr__(self, "coord_radii", read_only_array(self.coord_radii))
        if self.kind == "semantic":
            if self.dictionary is None:
                raise ValueError("semantic monitor needs a dictionary")
            object.__setattr__(self, "m", self.dictionary.m)
            object.__setattr__(self, "k_max", self.dictionary.K_max)
        elif self.m is None or self.k_max is None:
            raise ValueError(f"{self.kind} monitor needs m and k_max")
        _, _, dim = _layout(self.basis_spec)
        parts = [("sigma's size", self.sigma.size, "the basis dimension", dim)]
        if self.coord_radii is not None:
            parts.append(("coord_radii's size", self.coord_radii.size, "the basis dimension", dim))
        if self.cache is not None:
            rows, columns = self.cache.matrix.shape
            parts += [
                ("the score cache's column count", columns, "the basis dimension", dim),
                ("the score cache's row count", rows, "n_calibration", self.n_calibration),
                ("the score cache's level", self.cache.level, "the monitor's level", self.level),
                ("the score cache's seed", self.cache.seed, "the monitor's seed", self.seed),
                ("the score cache's symmetric flag", self.cache.symmetric,
                 f"the {self.kind} kind's", self.kind == "observer"),
            ]
        for part, got, whole, want in parts:
            if got != want:
                raise ValueError(f"inconsistent {self.kind} monitor: {part} is {got}, but {whole} is {want}")

    @cached_property
    def dim(self) -> int:
        return int(self.sigma.size)

    @cached_property
    def basis_kind(self) -> BasisKind:
        return BasisKind.SEMANTIC if self.kind == "semantic" else BasisKind.PREDICATE_HISTORY

    @property
    def basis_spec(self) -> AtomicDictionary | tuple[int, int]:
        """The layout in :func:`predicted_basis` terms: the dictionary, or
        ``(m, k_max)`` for predicate history."""
        return self.dictionary if self.kind == "semantic" else (self.m, self.k_max)

    @cached_property
    def shift(self) -> np.ndarray:
        """What certification subtracts from each predicted coordinate:
        ``radius * sigma``, or ``coord_radii * sigma`` for the observer.
        Computed on first use and kept, read-only."""
        shift = self.coord_radii * self.sigma if self.kind == "observer" else self.radius * self.sigma
        shift.flags.writeable = False
        return shift

    def _read_out(self, d: Decoder) -> Callable:
        """``d``'s read-out ``read(v, lo, hi)`` of a snapshot's float list
        ``v`` shrunk by this monitor's :attr:`shift`
        (:func:`~ptmon.fragment._shifted_read`), for a monitor with a
        restricted ``support``. Generated on the first request for ``d`` and
        kept in ``_read_outs`` under ``id(d)``, with a weak reference to
        ``d``, until ``d`` is freed: a lookup confirms the entry with ``is``
        and never compares two trees, and the reference's callback drops the
        entry, so a caller that passes a new decoder on every call leaves no
        entries behind. The callback holds only a weak reference to the
        monitor, so an entry keeps neither its decoder nor its monitor
        alive, and is in no reference cycle: a dropped monitor's read-outs
        are freed with it by reference counting."""
        entry = self._read_outs.get(id(d))
        if entry is None or entry[0]() is not d:
            monitor = weakref.ref(self)

            def forget(_, key=id(d)):
                if (mon := monitor()) is not None:
                    mon._read_outs.pop(key, None)

            ref = weakref.ref(d, forget)
            entry = self._read_outs[id(d)] = (ref, _shifted_read(d, self.shift.tolist()))
        return entry[1]

    def decoder(self, f: Formula) -> Decoder:
        """The decoder reading ``f`` off this monitor's basis layout,
        compiled on the first request and reused afterwards.

        Raises :class:`~ptmon.logic.NotInFragmentError` when ``f`` is not
        built from the dictionary's atoms, and
        :class:`~ptmon.fragment.HorizonExceededError` when it reads deeper
        than ``k_max``.
        """
        d = self._decoders.get(f)
        if d is None:
            if self.kind == "semantic":
                d = compile_semantic_decoder(f, self.dictionary)
            else:
                d = compile_history_decoder(f, self.m, self.k_max)
            self._decoders[f] = d
        return d

    def for_formula(self, f: Formula) -> "CalibratedMonitor":
        """A copy specialized to ``f``: support narrowed, radius recomputed.

        Requires the cache; no episodes are re-read and no predictor re-run.
        For observer monitors each coordinate gets its own quantile at the
        split level ``alpha / |support|``, and the radius is the worst one.
        The support's columns are read through the decoder's
        :attr:`~ptmon.fragment.Decoder.support_index`, sorted once per
        decoder.
        """
        if self.cache is None:
            raise ValueError("monitor carries no score cache; recalibrate with caching enabled")
        decoder = self.decoder(f)
        support, name, index = decoder.support, decoder.formula, decoder.support_index
        if self.kind != "observer":
            return self._specialised(f, decoder, support=support, formula=name,
                                     radius=_radius(self.cache, index, self.alpha))
        quantiles = self.cache.column_quantiles(index, self.alpha / len(index))
        coord_radii = np.zeros(self.dim)
        coord_radii[index] = quantiles
        coord_radii.flags.writeable = False  # nothing else holds it: no copy needed
        return self._specialised(f, decoder, support=support, formula=name, coord_radii=coord_radii,
                                 radius=float(np.maximum.reduce(quantiles)))

    def _specialised(self, f: Formula, decoder: Decoder, **changes) -> "CalibratedMonitor":
        """This monitor with ``changes`` applied, for :meth:`for_formula`.

        Like :func:`dataclasses.replace` without the frozen ``__init__``,
        which sets each field through ``object.__setattr__``: the copy's
        state is one copy of this monitor's ``__dict__``, with ``changes``
        applied, which must be values :meth:`__post_init__` would keep as
        they are. The copy's cached properties and read-outs start empty,
        since its shift may differ; its decoders start with this monitor's
        ``decoder`` for ``f``, which is immutable and reads the copy's
        layout.
        """
        # A new dict, not ``self.__dict__.copy()``: on CPython 3.11 that
        # copy keeps the split key table ``__init__`` gives a monitor, and
        # with entries popped from it every attribute read of the copy,
        # several per certification, measured slower.
        state = {**self.__dict__, **changes, "_decoders": {f: decoder}, "_read_outs": {}}
        for name in _CACHED:
            state.pop(name, None)
        copy = object.__new__(type(self))
        object.__setattr__(copy, "__dict__", state)
        return copy

    def __getstate__(self) -> dict:
        # Generated read-outs are functions without an importable name, and
        # their keys are identities; an unpickled monitor generates its own.
        return {**self.__dict__, "_read_outs": {}}

    def monitor_for(self, f: Formula) -> "CalibratedMonitor":
        """The monitor that certifies ``f``: this one when its radius already
        covers ``f`` (fragment-wide semantic or rolling, or calibrated for
        ``f``), otherwise its specialization to ``f``."""
        if (self.support is None and self.kind != "observer") or self.formula == self.decoder(f).formula:
            return self
        return self.for_formula(f)


# The monitor's cached properties, which :meth:`CalibratedMonitor._specialised`
# drops from its copy.
_CACHED = tuple(name for name, value in vars(CalibratedMonitor).items() if isinstance(value, cached_property))


def radius_for_support(cache: ScoreCache, support: Iterable[int], alpha: float) -> float:
    """Split quantile of row-wise maxima over a coordinate subset: the
    radius :meth:`CalibratedMonitor.for_formula` gives a decoder reading
    ``support``, bit for bit."""
    idx = sorted(map(int, support))
    if not idx:
        raise ValueError("support must be nonempty")
    if idx[0] < 0 or idx[-1] >= cache.dim:
        raise ValueError("support indices out of range for the cache")
    return _radius(cache, np.array(idx, dtype=np.intp), alpha)


def _radius(cache: ScoreCache, index: np.ndarray, alpha: float) -> float:
    """The radius over the ascending, in-range ``np.intp`` coordinates
    ``index``. Their columns are read as contiguous rows of the
    column-major matrix's transpose and reduced in coordinate order, which
    gives the row maxima of ``cache.matrix[:, index]`` bit for bit."""
    return split_quantile(np.maximum.reduce(cache.matrix.T.take(index, axis=0), axis=0), alpha)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def sample_level2_time(seed: int, episode_index: int, k_max: int, T: int) -> int:
    """The valid time, uniform on ``k_max .. T``, at which a level-2 score or
    check reads episode ``episode_index``: one ``integers`` draw from a
    fresh ``np.random.default_rng([seed, episode_index])``.

    Every level-2 draw goes through this function: level-2 calibration and
    the observer's calibration (each episode's window in
    :func:`_episode_blocks`) and level-2 coverage in
    :mod:`~ptmon.metrics`. So a draw depends only on ``(seed,
    episode_index)``, never on the order or the number of other draws.
    Do not vectorise it, share a generator between episodes or cache its
    draws silently: any other stream of draws moves every level-2 time, and
    with them every radius, model file and digest. A cheaper draw needs a
    versioned change of this contract.
    """
    rng = np.random.default_rng([seed, episode_index])
    return int(rng.integers(k_max, T + 1))


def _layout(basis_spec) -> tuple[str, int, int]:
    """Monitor kind, history depth and dimension of a basis layout."""
    if isinstance(basis_spec, AtomicDictionary):
        return "semantic", basis_spec.K_max, basis_spec.r
    m, k_max = basis_spec
    return "rolling", k_max, m * (k_max + 1)


def _prediction(ep: Episode, predictor, basis_spec) -> np.ndarray:
    """The predictor's raw output for ``ep``, checked: atom columns over
    ``t = k_max .. T`` for a dictionary, per-step predicates ``(m, T+1)``
    for ``(m, k_max)``."""
    kind, k_max, _ = _layout(basis_spec)
    if ep.T < k_max:
        raise ValueError(f"episode too short: T={ep.T} < k_max={k_max}")
    expected = (basis_spec.r, ep.T - k_max + 1) if kind == "semantic" else (basis_spec[0], ep.T + 1)
    predicted = np.asarray(predictor.predict(ep), dtype=float)
    if predicted.shape != expected:
        raise ValueError(
            f"predictor/basis mismatch: predictor gave {predicted.shape}, {kind} basis needs {expected}"
        )
    if not np.isfinite(predicted).all():
        raise ValueError(f"predictor returned non-finite values for episode {ep.uid}")
    return predicted


def predicted_basis(ep: Episode, predictor, basis_spec) -> np.ndarray:
    """The predictor's output for ``ep`` as basis columns over ``t = k_max .. T``.

    ``basis_spec`` is an :class:`AtomicDictionary`, whose predictor emits the
    atom columns directly, or ``(m, k_max)``, whose predictor emits per-step
    predicates ``(m, T+1)`` that are stacked into predicate-history columns.
    Raises ``ValueError`` for a too-short episode, a wrongly shaped
    prediction or a non-finite one; every calibration and
    :func:`~ptmon.monitors.run_episodes` run the same checks on each episode.
    """
    predicted = _prediction(ep, predictor, basis_spec)
    return predicted if isinstance(basis_spec, AtomicDictionary) else stack_lags(predicted, basis_spec[1])


# Basis columns in one block of episodes: enough to pay numpy's per-call
# overhead once for several episodes, few enough that peak memory does not
# grow with the split (one matrix for 100 episodes at T=60 raised the peak
# resident memory of a report from 43 to 61 MB).
_BLOCK_COLUMNS = 256


def _episode_blocks(episodes: Iterable[Episode], predictor, basis_spec, tau_seed: int | None = None):
    """The episodes' predicted and true bases side by side, in blocks, each
    with its episodes' widths. Every episode is predicted whole and its
    prediction checked on its own (:func:`_prediction`).

    Without ``tau_seed`` a block holds whole episodes up to
    :data:`_BLOCK_COLUMNS` columns. With one (level 2), episode ``i`` enters
    only as its sampled window: the ``k_max + 1`` steps that end at
    ``tau = sample_level2_time(tau_seed, i, k_max, ep.T)``, with the
    prediction's column for ``tau`` (atom columns) or the same steps
    (per-step predictions), one basis column wide. A window counts its
    ``k_max + 1`` steps against :data:`_BLOCK_COLUMNS`, so a block's
    intermediates are no larger than for whole episodes. A block always
    holds at least one episode.
    """
    kind, k_max, _ = _layout(basis_spec)
    block: list[tuple[np.ndarray, np.ndarray]] = []
    columns = 0
    for i, ep in enumerate(episodes):
        mu, predicted = ep.mu, _prediction(ep, predictor, basis_spec)
        width = ep.T - k_max + 1
        if tau_seed is not None:
            start = sample_level2_time(tau_seed, i, k_max, ep.T) - k_max
            mu, width = mu[:, start : start + k_max + 1], k_max + 1
            predicted = predicted[:, start : start + (1 if kind == "semantic" else width)]
        if block and columns + width > _BLOCK_COLUMNS:
            bases = [_block_bases(block, basis_spec)]
            # Hold neither the episodes' own predictions nor, once popped,
            # the bases while the block is used: a caller that copies them
            # frees the originals.
            block, columns = [], 0
            yield bases.pop()
        block.append((mu, predicted))
        columns += width
    if block:
        yield _block_bases(block, basis_spec)


def _block_bases(block: list[tuple[np.ndarray, np.ndarray]], basis_spec):
    """``(predicted, true, widths)`` for a block of margin arrays (whole
    episodes or sampled windows) and their checked predictions over the
    same steps.

    The margins (and per-step predictions) are laid end to end along time
    and run once through the basis routine, :func:`~ptmon.robustness._basis_rows`
    or :func:`stack_lags`. Column ``c`` is then the window ending at step
    ``c + k_max``; the ``k_max`` columns after each array's last one
    straddle a boundary and are dropped. Every kept column reads only its
    own array, and the doubling of
    :func:`~ptmon.robustness._sliding_extrema` builds a window from the
    same ``np.minimum``/``np.maximum`` calls wherever it starts (an atom
    outside the shared pass is evaluated on its own and tail-aligned, so
    this holds for it too): the result is the per-array bases side by
    side, bit for bit.
    """
    kind, k_max, _ = _layout(basis_spec)
    widths = [mu.shape[1] - k_max for mu, _ in block]
    # Array e's columns start e * k_max columns later in the concatenation.
    keep = np.arange(sum(widths)) + k_max * np.repeat(np.arange(len(block)), widths)
    # Truth first: its temporaries are freed before the predictions are
    # stacked, which keeps the block's peak memory (and fresh pages) down.
    mu = np.concatenate([mu for mu, _ in block], axis=1)
    true = (_basis_rows(mu, basis_spec) if kind == "semantic" else stack_lags(mu, k_max))[:, keep]
    predicted = np.concatenate([p for _, p in block], axis=1)
    if kind != "semantic":
        predicted = stack_lags(predicted, k_max)[:, keep]
    return predicted, true, widths


def score_matrix(
    episodes: Sequence[Episode],
    predictor,
    basis_spec,
    sigma: np.ndarray,
    level: int,
    tau_seed: int = 0,
) -> np.ndarray:
    """Aggregated per-coordinate scores, one row per episode.

    Row ``i`` holds, per basis coordinate, the normalized overestimation of
    episode ``i`` — maximized over all valid times for level 1, or taken at
    one sampled time for level 2 (that episode's time is drawn from
    ``tau_seed`` and its position ``i``, so a fixed seed makes the sampling
    reproducible while staying independent across episodes). The row maximum
    over any coordinate subset is the episode's score for that subset, which
    is what makes one matrix reusable for every formula support.

    Each block's errors ``max(0, predicted - truth) / sigma`` are formed
    once (:func:`_episode_blocks`), then cut into the episodes' rows. At
    level 2 a block holds only each episode's sampled window, so both bases
    are built for the sampled columns alone.
    """
    return _scores(episodes, predictor, basis_spec, sigma, level, tau_seed, symmetric=False)


def _scores(episodes, predictor, basis_spec, sigma, level, tau_seed, symmetric) -> np.ndarray:
    """:func:`score_matrix`, of ``|predicted - truth| / sigma`` when ``symmetric``."""
    dim = _layout(basis_spec)[2]
    rows = np.empty((len(episodes), dim), dtype=float)
    i = 0
    blocks = _episode_blocks(episodes, predictor, basis_spec, tau_seed if level == 2 else None)
    for predicted, true, widths in blocks:
        # At level 2 each episode is one column: its sampled time.
        errs = predicted - true
        if symmetric:
            np.abs(errs, out=errs)
        else:
            np.maximum(0.0, errs, out=errs)
        errs /= sigma[:, None]
        if level == 1:
            errs = np.maximum.reduceat(errs, np.cumsum([0, *widths[:-1]]), axis=1)
        rows[i : i + len(widths)] = errs.T
        i += len(widths)
    return rows


def calibrate(
    episodes: Sequence[Episode],
    predictor,
    cfg: ScoreConfig,
    basis_spec,
    *,
    tau_seed: int = 0,
) -> CalibratedMonitor:
    """Calibrate a semantic or rolling monitor on held-out episodes.

    ``basis_spec`` is an :class:`AtomicDictionary` for the semantic basis or
    a ``(m, k_max)`` pair for raw predicate history. Each episode is scored
    at every valid time ``t = k_max .. T`` and aggregated by its worst
    (``cfg.level`` 1), or scored at one time sampled with ``tau_seed``
    (level 2), and the radius is their split quantile over ``cfg.support`` (all
    coordinates when ``None``). The per-coordinate score matrix is retained
    on the monitor as its score cache.
    """
    kind, _, dim = _layout(basis_spec)
    if cfg.sigma.size != dim:
        raise ValueError(f"sigma has {cfg.sigma.size} entries, basis needs {dim}")
    if not episodes:
        raise ValueError("calibration needs at least one episode")

    rows = score_matrix(episodes, predictor, basis_spec, cfg.sigma, cfg.level, tau_seed)
    cache = ScoreCache(rows, cfg.level, tau_seed)
    support = range(dim) if cfg.support is None else cfg.support
    radius = radius_for_support(cache, support, cfg.alpha)
    return CalibratedMonitor(
        kind=kind,
        level=cfg.level,
        alpha=cfg.alpha,
        radius=radius,
        sigma=cfg.sigma,
        n_calibration=len(episodes),
        seed=tau_seed,
        dictionary=basis_spec if kind == "semantic" else None,
        m=None if kind == "semantic" else basis_spec[0],
        k_max=None if kind == "semantic" else basis_spec[1],
        support=cfg.support,
        cache=cache,
    )


def estimate_sigma(episodes: Sequence[Episode], predictor, basis_spec) -> np.ndarray:
    """Per-coordinate median absolute prediction error on a held-out slice.

    Pools all valid times of the given episodes; coordinates whose median is
    below :data:`SIGMA_FLOOR` are floored so downstream divisions stay
    finite. The scale is deliberately symmetric even though calibration
    scores are one-sided: the median of one-sided errors is zero for any
    predictor that overestimates at most half the time, which would collapse
    every coordinate to the floor and defeat the normalization.

    Each block's ``|predicted - truth|`` is formed once
    (:func:`_episode_blocks`) and pooled in episode order.
    """
    if not episodes:
        raise ValueError("sigma estimation needs at least one episode")
    pooled = [np.abs(predicted - true) for predicted, true, _ in _episode_blocks(episodes, predictor, basis_spec)]
    sigma = np.median(np.concatenate(pooled, axis=1), axis=1)
    return np.maximum(sigma, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _check_certifiable(mon: CalibratedMonitor, kind: BasisKind, dim: int, d: Decoder) -> None:
    if d.basis_kind is not mon.basis_kind:
        raise BasisMismatchError(
            f"{mon.kind} monitor certifies {mon.basis_kind.value} decoders, got {d.basis_kind.value}"
        )
    if kind is not d.basis_kind:
        raise BasisMismatchError(f"decoder reads {d.basis_kind.value}, basis is {kind.value}")
    if not dim == d.dim == mon.dim:
        raise BasisMismatchError(f"monitor dimension {mon.dim} vs decoder {d.dim} vs basis {dim}")
    if mon.support is not None and not d.support <= mon.support:
        extra = sorted(d.support - mon.support)
        raise SupportMismatchError(
            f"decoder reads coordinates {extra} outside the calibrated support"
        )


def certified_lower_bound(mon: CalibratedMonitor, predicted: BasisVector, d: Decoder) -> float:
    """Decode the shrunk prediction ``predicted - mon.shift``: a
    calibrated-probability lower bound on the decoded true value.

    Requires matching basis kind and dimension, and — when the monitor was
    calibrated on a restricted support — that the decoder reads only inside
    that support. The decoder is checked against the monitor on every call
    (a few attribute compares; the support test is an identity check for
    the decoder a :meth:`~CalibratedMonitor.for_formula` copy was made
    with, a subset test otherwise), and the snapshot against the monitor
    before anything is read from it. :func:`_check_certifiable` builds the
    error when a test fails, so every mismatch raises as if all three were
    checked on every call.

    A fragment-wide monitor shrinks every coordinate of a snapshot in one
    numpy subtraction, once per snapshot and monitor: the shrunk values are
    kept on the snapshot, keyed by the monitor, checked before they are
    stored and shared by every formula certified from the snapshot. Both
    are immutable, so the entry never goes stale. A restricted monitor,
    whose decoders read only its support, shrinks nothing: its own read-out
    of each decoder (:meth:`CalibratedMonitor._read_out`) subtracts its
    shift from the coordinates it reads of the snapshot's values as Python
    floats, listed once per snapshot for all monitors, so its snapshot test
    runs on every call. Python and numpy subtract floats alike, bit for bit.
    """
    support = mon.support
    if not (
        d.basis_kind is mon.basis_kind
        and d.dim == mon.dim
        and (support is None or d.support is support or d.support <= support)
    ):
        _check_certifiable(mon, predicted.kind, predicted.values.shape[0], d)
    if support is not None:
        # A basis vector is one-dimensional, so its length is its shape.
        if predicted.kind is not mon.basis_kind or predicted.values.shape[0] != mon.dim:
            _check_certifiable(mon, predicted.kind, predicted.values.shape[0], d)
        return mon._read_out(d)(predicted._floats, min, max)
    shrunk = predicted._shrunk.get(mon)
    if shrunk is None:
        # Only a snapshot that matches the monitor is memoised, so a memoised
        # one needs no second look.
        values = predicted.values
        if predicted.kind is not mon.basis_kind or values.shape[0] != mon.dim:
            _check_certifiable(mon, predicted.kind, values.shape[0], d)
        shrunk = (values - mon.shift).tolist()
        predicted._shrunk[mon] = shrunk
    return d.read(shrunk, min, max)


def certified_lower_bounds(
    mon: CalibratedMonitor, predicted: np.ndarray, decoders: Sequence[Decoder]
) -> list[np.ndarray]:
    """:func:`certified_lower_bound` for every column of a ``(dim, n)``
    matrix of predicted bases in the monitor's layout, one array per decoder
    of ``decoders``, in their order.

    Every decoder is checked against the monitor and the matrix first; the
    matrix is then shrunk once, in its own layout, and each decoder reads
    the shrunk matrix row-major with :func:`~ptmon.fragment.decode_series`,
    which copies a matrix that is not C-order first, once per decoder: pass
    a C-order matrix, as :func:`~ptmon.monitors.run_monitors` does. There each
    run of consecutive rows that a node reads is reduced by one numpy
    ``reduce`` over the slab: on a tie between ``0.0`` and ``-0.0`` it keeps
    the later row, as a left fold of ``np.minimum``/``np.maximum`` does,
    which holds for the element-wise reduction numpy runs over a row-major
    slab of two or more columns, and a one-column slab is folded. So the
    bounds equal those of one column at a time, bit for bit.
    """
    predicted = np.asarray(predicted, dtype=float)
    if predicted.ndim != 2:
        raise BasisMismatchError(f"expected a (dim, n) basis matrix, got shape {predicted.shape}")
    for d in decoders:
        _check_certifiable(mon, mon.basis_kind, predicted.shape[0], d)
    shrunk = predicted - mon.shift[:, None]
    return [decode_series(d, shrunk) for d in decoders]


# ---------------------------------------------------------------------------
# Per-coordinate observer baseline
# ---------------------------------------------------------------------------


def observer_calibrate(
    episodes: Sequence[Episode],
    predictor,
    f: Formula,
    alpha: float,
    *,
    sigma_predicates: np.ndarray | None = None,
    k_max: int | None = None,
    tau_seed: int = 0,
) -> CalibratedMonitor:
    """Calibrate the coordinatewise baseline for one formula.

    Each history coordinate in ``f``'s support gets a symmetric
    ``|predicted - truth| / sigma_k`` score at the evenly split level
    ``1 - alpha/|support|``; sampling one time per episode matches level 2.
    The monitor's radius is the worst per-coordinate quantile (the number
    reported alongside other monitors); the per-coordinate radii make up its
    shift. The full symmetric score matrix is cached, so radii for other
    formulas remain recomputable. It is formed block by block as
    :func:`score_matrix` forms level 2, from ``|predicted - truth| / sigma``.
    """
    if not episodes:
        raise ValueError("calibration needs at least one episode")
    m = episodes[0].m
    k_max = max(horizon(f), k_max if k_max is not None else 0)
    width = k_max + 1
    sigma_predicates = np.ones(m) if sigma_predicates is None else np.asarray(sigma_predicates, dtype=float)
    if sigma_predicates.shape != (m,):
        raise ValueError(f"sigma_predicates must have shape ({m},)")
    sigma = ScoreConfig(np.repeat(sigma_predicates, width), alpha, 2).sigma

    rows = _scores(episodes, predictor, (m, k_max), sigma, 2, tau_seed, symmetric=True)

    # Unspecialized, the observer has no radius; for_formula sets it.
    unfitted = CalibratedMonitor(
        kind="observer",
        level=2,
        alpha=alpha,
        radius=math.nan,
        sigma=sigma,
        n_calibration=len(episodes),
        seed=tau_seed,
        m=m,
        k_max=k_max,
        cache=ScoreCache(rows, 2, tau_seed, symmetric=True),
    )
    return unfitted.for_formula(f)


def interval_propagate(
    f: Formula,
    lower: np.ndarray,
    upper: np.ndarray,
    m: int,
    k_max: int,
) -> tuple[float, float]:
    """Push per-coordinate history intervals through a formula.

    ``lower`` and ``upper`` bracket each predicate-history coordinate. Since
    every operator is a monotone min/max, interval arithmetic reduces to
    decoding each endpoint vector; the result brackets the true robustness
    whenever the inputs bracket the true history.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != hi.shape:
        raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
    if (lo > hi).any():
        bad = int(np.argmax(lo > hi))
        raise ValueError(f"crossed bounds at coordinate {bad}: {lo[bad]} > {hi[bad]}")
    d = compile_history_decoder(f, m, k_max)
    return decode_values(d, lo), decode_values(d, hi)


# ---------------------------------------------------------------------------
# Monitor persistence
# ---------------------------------------------------------------------------


def save_monitor(mon: CalibratedMonitor, path: str | Path) -> None:
    """Write a monitor as JSON, with its score cache beside it in
    ``<stem>.scores.npz``.

    ``score_cache_path`` inside the JSON is the cache's file name, relative
    to the JSON file, so the pair can be moved together.
    """
    path = Path(path)
    obj: dict = {
        "version": MONITOR_VERSION,
        "kind": mon.kind,
        "level": mon.level,
        "alpha": mon.alpha,
        "radius": mon.radius,
        "sigma": mon.sigma.tolist(),
        "n": mon.n_calibration,
        "seed": mon.seed,
        "support": sorted(mon.support) if mon.support is not None else None,
        "formula": mon.formula,
        "coord_radii": mon.coord_radii.tolist() if mon.coord_radii is not None else None,
        "predictor": mon.predictor_config,
    }
    if mon.kind == "semantic":
        obj["dictionary"] = dictionary_to_json(mon.dictionary)
    else:
        obj["m"] = mon.m
        obj["k_max"] = mon.k_max
    obj["score_cache_path"] = None
    if mon.cache is not None:
        cache_path = path.with_suffix(".scores.npz")
        save_score_cache(mon.cache, cache_path)
        obj["score_cache_path"] = cache_path.name
    path.write_text(json.dumps(obj, indent=2))


def load_monitor(path: str | Path) -> CalibratedMonitor:
    """Read a monitor written by :func:`save_monitor`. A relative
    ``score_cache_path`` is read beside the JSON file, an absolute one as it
    stands. Raises ``ValueError`` when the parts disagree (see
    :class:`CalibratedMonitor`)."""
    path = Path(path)
    obj = json.loads(path.read_text())
    version = int(obj.get("version", 0))
    if version != MONITOR_VERSION:
        raise ValueError(f"unsupported monitor version {version}")
    cache = load_score_cache(path.parent / obj["score_cache_path"]) if obj.get("score_cache_path") else None
    dictionary = dictionary_from_json(obj["dictionary"]) if "dictionary" in obj else None
    support = obj.get("support")
    coord_radii = obj.get("coord_radii")
    return CalibratedMonitor(
        kind=obj["kind"],
        level=int(obj["level"]),
        alpha=float(obj["alpha"]),
        radius=float(obj["radius"]),
        sigma=np.asarray(obj["sigma"], dtype=float),
        n_calibration=int(obj["n"]),
        seed=int(obj["seed"]),
        dictionary=dictionary,
        m=obj.get("m"),
        k_max=obj.get("k_max"),
        support=frozenset(support) if support is not None else None,
        cache=cache,
        formula=obj.get("formula"),
        coord_radii=np.asarray(coord_radii, dtype=float) if coord_radii is not None else None,
        predictor_config=obj.get("predictor"),
    )
