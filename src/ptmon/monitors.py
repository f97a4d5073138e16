"""Per-timestep certification: streaming, or batch over a recorded episode.

Every bound comes from one operation: shrink the predicted basis by the
monitor's per-coordinate ``shift`` and decode it. All three monitor kinds
(semantic, rolling, observer) do it the same way. Streaming callers feed
one step at a time: :class:`RollingBuffer` with :func:`rolling_certify` or
:func:`observer_certify` for per-step predicate predictions,
:func:`semantic_certify` for predicted atom bases. The buffer checks each
pushed value once and builds one basis snapshot per step, without checking
it again; a semantic caller passes one
:class:`~ptmon.robustness.BasisVector` for all formulas. A fragment-wide
monitor shrinks each snapshot once for every formula certified from it
(both are immutable, so the shrink never goes stale). A restricted monitor
(a specialised observer, or any ``for_formula`` copy) shrinks nothing: it
passes its shift to each decoder's shifted read-out.
Recorded episodes are certified in one block pass (:func:`_certified_blocks`)
over ``(monitor, predictor)`` pairs of any layouts that share one
``k_max``, in the blocks of whole episodes that calibration reads: each
episode predicted once per distinct predictor, and each formula's truth
read out once per block for all the monitors. Each monitor groups its
formulas by the monitor that certifies them; each group takes one
:func:`ptmon.conformal.certified_lower_bounds` call per block. The bounds
are those the streaming functions give step by step. There are two entry
points: :func:`run_monitors` returns per-episode results for monitors of
one predictor, and :func:`ptmon.metrics.evaluate_monitors` scores every
model of a report as the pass goes.

Each formula gets a verdict per step: ``safe`` when the certified lower
bound clears zero (ties count as safe), ``uncertain`` otherwise, and
``warming_up`` while the monitor does not yet have the history its
calibration assumed (the first ``k_max`` steps, or after a dropped
prediction empties the buffer). A :class:`MonitorVerdict` is a
:class:`~typing.NamedTuple`, an immutable record that builds in less than
half the time of a frozen dataclass: it unpacks as
``t, formula, lb, label`` and equals the plain tuple of its fields; the
streaming functions build each verdict in one step. Every certification
call checks the decoder and a buffer's ``k_max`` against the monitor; a
snapshot is checked before a monitor's shrink of it is stored, or on every
call of a restricted monitor (see
:func:`~ptmon.conformal.certified_lower_bound`), so a mismatch raises on
every call.

Verdict streams serialize as line-delimited JSON ``{t, formula, lb, label}``
and as CSV with the same columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .conformal import (
    CalibratedMonitor,
    _episode_blocks,
    certified_lower_bound,
    certified_lower_bounds,
)
from .fragment import (
    BasisMismatchError,
    Decoder,
    HorizonExceededError,
    compile_history_decoder,
    decode_series,
)
from .logic import Formula, NotInFragmentError, format_formula
from .robustness import BasisKind, BasisVector, Episode


class Label(str, Enum):
    SAFE = "safe"
    UNCERTAIN = "uncertain"
    WARMING_UP = "warming_up"


class MonitorVerdict(NamedTuple):
    """One formula's verdict at one step; unpacks and compares as a tuple."""

    t: int
    formula: str
    lower_bound: float | None
    label: Label


# Bound once: reading a member through the Enum class costs a lookup per verdict.
_SAFE, _UNCERTAIN, _WARMING_UP = Label.SAFE, Label.UNCERTAIN, Label.WARMING_UP
# The streaming functions build each verdict with this, skipping the frame of
# the NamedTuple's generated ``__new__``, which makes the same tuple.
_new = tuple.__new__


def _verdict(t: int, formula: str, lb: float) -> MonitorVerdict:
    return MonitorVerdict(t, formula, lb, _SAFE if lb >= 0.0 else _UNCERTAIN)


def _warming(t: int, formula: str) -> MonitorVerdict:
    return MonitorVerdict(t, formula, None, _WARMING_UP)


class RollingBuffer:
    """Strict FIFO of the last ``k_max + 1`` per-step prediction vectors.

    ``push`` advances time by one step and evicts the oldest entry once full.
    There is no interpolation: when a step's prediction is missing, call
    :meth:`mark_dropped`, which empties the buffer so certification reports
    warm-up until enough fresh steps have arrived again.

    ``push`` is the one place that checks values (shape, finiteness),
    before anything changes. Certification reads the current step through
    one read-only :class:`~ptmon.robustness.BasisVector`, a copy of the
    history built without a second check on the first certification after
    each ``push`` or ``mark_dropped``. Each fragment-wide monitor shrinks
    that snapshot once for every formula certified at the step; restricted
    monitors read its float list through each decoder's shifted read-out.
    """

    def __init__(self, m: int, k_max: int):
        if m < 1 or k_max < 0:
            raise ValueError(f"need m >= 1 and k_max >= 0, got m={m}, k_max={k_max}")
        self.m = m
        self.k_max = k_max
        self.capacity = k_max + 1
        # Column j holds the step at lag j; columns at or past the fill are zero.
        self._lags = np.zeros((m, self.capacity))
        self.fill = 0
        self.t = -1
        self._snapshot: BasisVector | None = None

    def push(self, mu_hat: Sequence[float] | np.ndarray) -> None:
        values = np.asarray(mu_hat, dtype=float)
        if values.shape != (self.m,):
            raise ValueError(f"expected {self.m} predicate values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("predicate values must be finite; mark a missing step as dropped")
        self._lags[:, 1:] = self._lags[:, :-1]
        self._lags[:, 0] = values
        self.fill = min(self.fill + 1, self.capacity)
        self.t += 1
        self._snapshot = None

    def mark_dropped(self) -> None:
        """A step arrived with no prediction: time advances, history resets."""
        self._lags[:] = 0.0
        self.fill = 0
        self.t += 1
        self._snapshot = None

    def history_vector(self) -> np.ndarray:
        """Current predicate-history vector, zero-filled beyond the fill.

        Coordinate ``k*(k_max+1) + j`` is predicate ``k`` at lag ``j``; lags
        older than the buffer holds read as zero, so callers must only decode
        supports within the filled depth.
        """
        return self._lags.reshape(-1).copy()

    def _current_basis(self) -> BasisVector:
        """The current history vector as a basis snapshot, built once per
        step as one read-only copy, not checked again."""
        if self._snapshot is None:
            values = self._lags.flatten()
            values.flags.writeable = False
            self._snapshot = BasisVector._checked(BasisKind.PREDICATE_HISTORY, values, self.t)
        return self._snapshot


def rolling_step(buf: RollingBuffer, mu_hat: Sequence[float] | np.ndarray | None) -> None:
    """Feed one step into the buffer; ``None`` records a dropped prediction."""
    if mu_hat is None:
        buf.mark_dropped()
    else:
        buf.push(mu_hat)


def rolling_certify(
    buf: RollingBuffer,
    mon: CalibratedMonitor,
    f: Formula,
    decoder: Decoder | None = None,
) -> MonitorVerdict:
    """Certify ``f`` from buffered per-step predictions at the buffer's time.

    Warm-up applies until the monitor's full history depth has streamed past
    (``t >= k_max``) and the buffer holds at least ``decoder.horizon + 1``
    fresh steps. Without ``decoder``, the monitor's own
    :meth:`~ptmon.conformal.CalibratedMonitor.decoder` is used, so a formula
    the monitor cannot certify raises on the first call, warm-up or not. The
    verdict names ``decoder.formula``.

    A buffer whose ``k_max`` is not the monitor's raises
    :class:`~ptmon.fragment.BasisMismatchError` on every call, warm-up
    included, before anything is read: ``(2, 5)`` and ``(3, 3)`` histories
    both have 12 coordinates, so the snapshot's dimension check alone
    would let one be read as the other. A ``decoder`` compiled for another
    layout raises too, once the steps it reads have arrived (see
    :func:`~ptmon.conformal.certified_lower_bound`).
    """
    k_max = mon.k_max
    if buf.k_max != k_max:
        raise BasisMismatchError(
            f"buffer holds history (m={buf.m}, k_max={buf.k_max}), monitor reads (m={mon.m}, k_max={k_max})"
        )
    if decoder is None:
        decoder = mon.decoder(f)
    t = buf.t
    if t < k_max or buf.fill < decoder.horizon + 1:
        return _new(MonitorVerdict, (t, decoder.formula, None, _WARMING_UP))
    lb = certified_lower_bound(mon, buf._current_basis(), decoder)
    return _new(MonitorVerdict, (t, decoder.formula, lb, _SAFE if lb >= 0.0 else _UNCERTAIN))


def semantic_certify(
    basis_hat: BasisVector,
    mon: CalibratedMonitor,
    f: Formula,
    decoder: Decoder | None = None,
) -> MonitorVerdict:
    """Certify ``f`` from a predicted dictionary-atom basis snapshot.

    Without ``decoder``, the monitor's own
    :meth:`~ptmon.conformal.CalibratedMonitor.decoder` is used. The verdict
    names ``decoder.formula``. A ``decoder`` compiled for another
    dictionary raises :class:`~ptmon.fragment.BasisMismatchError` past
    warm-up, also when the dictionaries have as many atoms.
    """
    if decoder is None:
        decoder = mon.decoder(f)
    t = basis_hat.t
    if t < mon.k_max:
        return _new(MonitorVerdict, (t, decoder.formula, None, _WARMING_UP))
    lb = certified_lower_bound(mon, basis_hat, decoder)
    return _new(MonitorVerdict, (t, decoder.formula, lb, _SAFE if lb >= 0.0 else _UNCERTAIN))


def observer_certify(
    buf: RollingBuffer,
    mon: CalibratedMonitor,
    f: Formula,
) -> MonitorVerdict:
    """Certify ``f`` with an observer monitor calibrated for it.

    The bound is the lower end of the observer's symmetric per-coordinate
    intervals pushed through ``f``: since ``f`` is monotone, that is
    :func:`rolling_certify` with the observer's per-coordinate shift, which
    certifies it once the formula is checked. The observer's support
    is ``f``'s, so it shrinks nothing: the shifted read-out of ``f``'s
    decoder subtracts the shift from each coordinate it reads. A formula
    other than the one the monitor was calibrated for raises
    ``ValueError``.
    """
    decoder = compile_history_decoder(f, mon.m, mon.k_max)
    if mon.formula is not None and mon.formula != decoder.formula:
        raise ValueError(
            f"observer monitor was calibrated for {mon.formula!r}, asked to certify {decoder.formula!r}"
        )
    return rolling_certify(buf, mon, f, decoder)


# ---------------------------------------------------------------------------
# Whole-episode runs
# ---------------------------------------------------------------------------


@dataclass
class EpisodeResult:
    """Certified bounds for one episode, with ground truth for scoring.

    ``bounds[name]`` and ``truth[name]`` hold, for each certified formula,
    the lower bound and the exact robustness at ``t = k_max .. T``; the
    truth arrays are read-only, shared by the results of every monitor
    certified in the same :func:`run_monitors` pass.
    Formulas the monitor cannot certify (outside the dictionary span, or
    deeper than the history) land in ``errors`` with the reason, and the run
    continues without them.
    """

    bounds: dict[str, np.ndarray]
    truth: dict[str, np.ndarray]
    errors: dict[str, str]
    k_max: int

    def by_formula(self, name: str) -> list[MonitorVerdict]:
        """One formula's verdicts in time order, warm-up steps first."""
        lbs = self.bounds[name].tolist()
        warm = [_warming(t, name) for t in range(self.k_max)]
        return warm + [_verdict(self.k_max + i, name, lb) for i, lb in enumerate(lbs)]

    @property
    def verdicts(self) -> list[MonitorVerdict]:
        """Every verdict, time-major: all formulas at t, then t+1, ..."""
        per_formula = [self.by_formula(name) for name in self.bounds]
        return [v for step in zip(*per_formula) for v in step]

    def lower_bounds(self, name: str) -> np.ndarray:
        """Valid-time lower bounds for one formula, aligned to ``t = k_max..T``."""
        return self.bounds[name]


# One monitor's formulas resolved for a run (see :func:`run_monitors`): names
# to decoder and certifying monitor, and names to the reason they fail.
_Resolution = tuple[dict[str, tuple[Decoder, CalibratedMonitor]], dict[str, str]]


# One certified block of a pass (see :func:`_certified_blocks`): its
# episodes' widths, each formula's truth over the block's columns, and each
# monitor's bounds by formula.
_Block = tuple[list[int], dict[str, np.ndarray], list[dict[str, np.ndarray]]]


def _resolve(mon: CalibratedMonitor, formulas: Sequence[Formula]) -> _Resolution:
    resolved: dict[str, tuple[Decoder, CalibratedMonitor]] = {}
    errors: dict[str, str] = {}
    for f in formulas:
        name = format_formula(f)
        if name in resolved or name in errors:
            continue
        try:
            resolved[name] = (mon.decoder(f), mon.monitor_for(f))
        except (NotInFragmentError, HorizonExceededError, ValueError) as exc:
            errors[name] = str(exc)
    return resolved, errors


def run_monitors(
    episodes: Iterable[Episode],
    predictor,
    mons: Sequence[CalibratedMonitor],
    formulas: Sequence[Formula],
) -> list[list[EpisodeResult]]:
    """Certify recorded episodes for several formulas with several monitors
    that read one basis layout through one predictor; one list of results
    per monitor, in the order of ``mons``, and none without a monitor.

    The pass is :func:`_certified_blocks`'s, which
    :func:`ptmon.metrics.evaluate_monitors` reads too: monitors whose
    layouts differ raise ``ValueError`` before any episode is read, each
    monitor resolves each distinct formula once, to its cached decoder and
    the monitor that
    :meth:`~ptmon.conformal.CalibratedMonitor.monitor_for` picks, or to the
    reason it cannot be certified, which its results carry in ``errors``.
    Each block is sliced into one :class:`EpisodeResult` per episode and
    monitor (see :func:`_result_blocks`). The bounds are those of one
    monitor and one episode at a time, bit for bit. Min and max are exact,
    so the truth equals each formula's robustness; the bits can differ only
    in the sign of a zero, where a formula repeats a subformula that its
    decoder reads once.
    """
    results: list[list[EpisodeResult]] = [[] for _ in mons]
    for block in _result_blocks(episodes, predictor, mons, formulas):
        for out, block_results in zip(results, block):
            out.extend(block_results)
    return results


def _result_blocks(
    episodes: Iterable[Episode],
    predictor,
    mons: Sequence[CalibratedMonitor],
    formulas: Sequence[Formula],
) -> Iterator[list[list[EpisodeResult]]]:
    """:func:`run_monitors`' results one block at a time, each monitor's
    in episode order, as each block of the pass is certified: a caller
    that keeps no result holds one block of the split, however many
    episodes it has (``ptmon certify`` writes each block as it comes).
    Each block is sliced into column views of each formula's bound and
    truth arrays, not of a block's basis, the truth views shared by every
    monitor's results."""
    resolutions = [_resolve(mon, formulas) for mon in mons]
    for widths, truth, bounds in _certified_blocks(episodes, [(mon, predictor) for mon in mons], resolutions):
        stops = np.cumsum(widths).tolist()
        columns = [slice(stop - width, stop) for stop, width in zip(stops, widths)]
        episode_truth = [{name: rho[cols] for name, rho in truth.items()} for cols in columns]
        yield [
            [
                EpisodeResult(
                    {name: mon_bounds[name][cols] for name in resolved},
                    {name: rho[name] for name in resolved},
                    dict(errors),
                    mon.k_max,
                )
                for cols, rho in zip(columns, episode_truth)
            ]
            for mon, (resolved, errors), mon_bounds in zip(mons, resolutions, bounds)
        ]


def _certified_blocks(
    episodes: Iterable[Episode],
    pairs: Sequence[tuple[CalibratedMonitor, object]],
    resolutions: Sequence[_Resolution],
) -> Iterator[_Block]:
    """Certify the episodes with every ``(monitor, predictor)`` pair of
    ``pairs``, each monitor's formulas resolved by :func:`_resolve`, one
    block of whole episodes at a time (see
    :func:`~ptmon.conformal._episode_blocks`); no pair reads no episode.

    Each block yields its episodes' widths, each formula's read-only truth
    over its columns, read once by the formula's decoder of smallest
    support, and each monitor's bounds by formula, bit for bit those of one
    episode and one monitor at a time. The monitors must share ``k_max``,
    and those that share a predictor object must share a layout
    (``ValueError`` before any prediction). Each distinct predictor
    predicts each episode once, each certifying monitor takes one
    :func:`~ptmon.conformal.certified_lower_bounds` call per block, and no
    basis outlives its block. Pinned by ``TestRunEpisodes``,
    ``TestRunMonitors`` and ``TestRunEpisodesTruth`` in
    ``tests/test_monitors.py`` and by ``TestEvaluateMonitors``,
    ``TestOnePassPerReport`` and ``TestMemoryFlatInTheSplit`` in
    ``tests/test_metrics.py``.
    """
    if not pairs:
        return
    # One source per distinct predictor, with the layout its monitors read.
    sources: list[tuple[object, object]] = []
    source_of: list[int] = []
    k_max = pairs[0][0].k_max
    for mon, predictor in pairs:
        j = next((j for j, (p, _) in enumerate(sources) if p is predictor), len(sources))
        if j == len(sources):
            sources.append((predictor, mon.layout))
        elif mon.layout != sources[j][1]:
            raise ValueError(
                f"monitors that share a predictor must share a basis layout, got {sources[j][1]!r} and {mon.layout!r}"
            )
        if mon.k_max != k_max:
            raise ValueError(f"monitors in one pass must share k_max, got {k_max} and {mon.k_max}")
        source_of.append(j)
    # Each formula's truth from its decoder of smallest support.
    truth_decoders: dict[str, Decoder] = {}
    for resolved, _ in resolutions:
        for name, (d, _) in resolved.items():
            best = truth_decoders.get(name)
            if best is None or len(d.support) < len(best.support):
                truth_decoders[name] = d
    layouts = {mon.layout.key: mon.layout for mon, _ in pairs}
    truth_keys = list(dict.fromkeys(d.layout for d in truth_decoders.values()))
    truth_of = {name: truth_keys.index(d.layout) for name, d in truth_decoders.items()}
    # Each monitor's formulas grouped by the monitor that certifies them: one
    # group for a fragment-wide monitor, one per formula for a specialised one.
    groups: list[list[tuple[CalibratedMonitor, list[str], list[Decoder]]]] = []
    for resolved, _ in resolutions:
        by_monitor: dict[int, tuple[CalibratedMonitor, list[str], list[Decoder]]] = {}
        for name, (d, mon_f) in resolved.items():
            _, names, decoders = by_monitor.setdefault(id(mon_f), (mon_f, [], []))
            names.append(name)
            decoders.append(d)
        groups.append(list(by_monitor.values()))

    blocks = _episode_blocks(episodes, sources, [layouts[key] for key in truth_keys])
    for predicted, true, widths in blocks:
        truth = {name: decode_series(d, true[truth_of[name]]) for name, d in truth_decoders.items()}
        for rho in truth.values():
            rho.flags.writeable = False
        bounds: list[dict[str, np.ndarray]] = []
        for j, mon_groups in zip(source_of, groups):
            mon_bounds: dict[str, np.ndarray] = {}
            for mon_f, names, decoders in mon_groups:
                mon_bounds.update(zip(names, certified_lower_bounds(mon_f, predicted[j], decoders)))
            bounds.append(mon_bounds)
        del predicted, true
        yield widths, truth, bounds


def run_episode(
    ep: Episode,
    predictor,
    mon: CalibratedMonitor,
    formulas: Sequence[Formula],
) -> EpisodeResult:
    """:func:`run_monitors` for one episode and one monitor; kept only
    because the benchmark's output check calls it."""
    return run_monitors([ep], predictor, [mon], formulas)[0][0]


# ---------------------------------------------------------------------------
# Verdict stream IO
# ---------------------------------------------------------------------------


def verdict_to_json(v: MonitorVerdict, **extra) -> dict:
    obj = {"t": v.t, "formula": v.formula, "lb": v.lower_bound, "label": v.label.value}
    obj.update(extra)
    return obj


def write_verdicts_jsonl(verdicts: Iterable[MonitorVerdict], stream: IO[str], **extra) -> None:
    for v in verdicts:
        stream.write(json.dumps(verdict_to_json(v, **extra)) + "\n")


def write_verdicts_csv(
    verdicts: Iterable[MonitorVerdict], stream: IO[str], *, header: bool = True, **extra
) -> None:
    writer = csv.writer(stream)
    keys = sorted(extra)
    if header:
        writer.writerow(["t", "formula", "lb", "label", *keys])
    for v in verdicts:
        row = [v.t, v.formula, "" if v.lower_bound is None else repr(v.lower_bound), v.label.value]
        row += [extra[k] for k in keys]
        writer.writerow(row)
