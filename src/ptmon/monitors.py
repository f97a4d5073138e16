"""Per-timestep certification: streaming, or batch over a recorded episode.

Every bound comes from one operation: shrink the predicted basis by the
monitor's per-coordinate ``shift`` and decode it. All three monitor kinds
(semantic, rolling, observer) do it the same way. Streaming callers feed
one step at a time: :class:`RollingBuffer` with :func:`rolling_certify` or
:func:`observer_certify` for per-step predicate predictions,
:func:`semantic_certify` for predicted atom bases. :func:`run_episode`
certifies a whole recorded episode at once, one
:func:`ptmon.conformal.certified_lower_bounds` call per formula, and gives
the bounds the streaming functions give step by step.

Each formula gets a verdict per step: ``safe`` when the certified lower
bound clears zero (ties count as safe), ``uncertain`` otherwise, and
``warming_up`` while the monitor does not yet have the history its
calibration assumed (the first ``k_max`` steps, or after a dropped
prediction empties the buffer).

Verdict streams serialize as line-delimited JSON ``{t, formula, lb, label}``
and as CSV with the same columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

import numpy as np

from .conformal import (
    CalibratedMonitor,
    certified_lower_bound,
    certified_lower_bounds,
    predicted_basis,
)
from .fragment import Decoder, HorizonExceededError
from .logic import Formula, NotInFragmentError, format_formula
from .robustness import BasisKind, BasisVector, Episode, robustness_series


class Label(str, Enum):
    SAFE = "safe"
    UNCERTAIN = "uncertain"
    WARMING_UP = "warming_up"


@dataclass(frozen=True)
class MonitorVerdict:
    t: int
    formula: str
    lower_bound: float | None
    label: Label


def _verdict(t: int, formula: str, lb: float) -> MonitorVerdict:
    return MonitorVerdict(t, formula, lb, Label.SAFE if lb >= 0.0 else Label.UNCERTAIN)


def _warming(t: int, formula: str) -> MonitorVerdict:
    return MonitorVerdict(t, formula, None, Label.WARMING_UP)


class RollingBuffer:
    """Strict FIFO of the last ``k_max + 1`` per-step prediction vectors.

    ``push`` advances time by one step and evicts the oldest entry once full.
    There is no interpolation: when a step's prediction is missing, call
    :meth:`mark_dropped`, which empties the buffer so certification reports
    warm-up until enough fresh steps have arrived again.
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

    def mark_dropped(self) -> None:
        """A step arrived with no prediction: time advances, history resets."""
        self._lags[:] = 0.0
        self.fill = 0
        self.t += 1

    def history_vector(self) -> np.ndarray:
        """Current predicate-history vector, zero-filled beyond the fill.

        Coordinate ``k*(k_max+1) + j`` is predicate ``k`` at lag ``j``; lags
        older than the buffer holds read as zero, so callers must only decode
        supports within the filled depth.
        """
        return self._lags.reshape(-1).copy()


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
    """
    if decoder is None:
        decoder = mon.decoder(f)
    if buf.t < mon.k_max or buf.fill < decoder.horizon + 1:
        return _warming(buf.t, decoder.formula)
    basis = BasisVector(BasisKind.PREDICATE_HISTORY, buf.history_vector(), buf.t)
    return _verdict(buf.t, decoder.formula, certified_lower_bound(mon, basis, decoder))


def semantic_certify(
    basis_hat: BasisVector,
    mon: CalibratedMonitor,
    f: Formula,
    decoder: Decoder | None = None,
) -> MonitorVerdict:
    """Certify ``f`` from a predicted dictionary-atom basis snapshot.

    Without ``decoder``, the monitor's own
    :meth:`~ptmon.conformal.CalibratedMonitor.decoder` is used. The verdict
    names ``decoder.formula``.
    """
    if decoder is None:
        decoder = mon.decoder(f)
    if basis_hat.t < mon.k_max:
        return _warming(basis_hat.t, decoder.formula)
    return _verdict(basis_hat.t, decoder.formula, certified_lower_bound(mon, basis_hat, decoder))


def observer_certify(
    buf: RollingBuffer,
    mon: CalibratedMonitor,
    f: Formula,
) -> MonitorVerdict:
    """Certify ``f`` with an observer monitor calibrated for it.

    The bound is the lower end of the observer's symmetric per-coordinate
    intervals pushed through ``f``: since ``f`` is monotone, that is
    :func:`rolling_certify` with the observer's per-coordinate shift.
    """
    decoder = mon.decoder(f)
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
    the lower bound and the exact robustness at ``t = k_max .. T``.
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


def run_episode(
    ep: Episode,
    predictor,
    mon: CalibratedMonitor,
    formulas: Sequence[Formula],
) -> EpisodeResult:
    """Certify a recorded episode for several formulas at once.

    The episode's predictions become one basis matrix
    (:func:`ptmon.conformal.predicted_basis`); each distinct formula is
    certified over every valid time by one
    :func:`ptmon.conformal.certified_lower_bounds` call, with the monitor
    :meth:`~ptmon.conformal.CalibratedMonitor.monitor_for` picks and
    ``mon``'s cached decoder, so repeated runs compile nothing new. The
    bounds equal what the streaming functions give step by step.
    """
    predicted = predicted_basis(ep, predictor, mon.basis_spec)
    k_max = mon.k_max
    bounds: dict[str, np.ndarray] = {}
    truth: dict[str, np.ndarray] = {}
    errors: dict[str, str] = {}
    for f in formulas:
        name = format_formula(f)
        if name in bounds or name in errors:
            continue
        try:
            decoder = mon.decoder(f)
            mon_f = mon.monitor_for(f)
        except (NotInFragmentError, HorizonExceededError, ValueError) as exc:
            errors[name] = str(exc)
            continue
        bounds[name] = certified_lower_bounds(mon_f, predicted, decoder)
        truth[name] = robustness_series(f, ep)[k_max - decoder.horizon :]
    return EpisodeResult(bounds, truth, errors, k_max)


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
