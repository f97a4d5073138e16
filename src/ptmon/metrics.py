"""Certification quality metrics and report assembly.

All rate metrics pool the valid times (``t = k_max .. T``) of every test
episode:

* certified-safe rate — share of points the monitor labels safe;
* precision — share of safe labels where the formula really held
  (blank when nothing was labeled safe);
* false-positive rate — share of truly violating points labeled safe
  (blank when the ground truth never violates);
* ground-truth safe rate — share of points where the formula held;
* coverage — how often the certified lower bound really was a lower bound:
  per episode at one sampled time for level-2 monitors, as an
  all-times-per-episode event for level-1.

Every rate comes from five integer counts: valid points, safe, truly
safe, safe and true, and covered episodes. Level-1 coverage reduces each
episode's slice, level-2 coverage reads each episode's sampled time.
:func:`evaluate_monitors` scores every model of a report as it certifies
them, in one pass over the episodes, whatever their kinds and layouts, as
long as they share one ``k_max``: each episode is predicted once per
distinct predictor and each formula's truth read once per block, each
certified block adds its counts per monitor and formula (one
:func:`_counts` call per monitor, over its formulas' rows) and is dropped,
so memory holds one block however long the split is, and the level-2
times are drawn once per episode for all models, since every formula's
bounds span the same valid times. :func:`compute_metrics` counts
per-episode arrays that the caller holds, concatenated, as one row.

The CSV report rounds percentages to one decimal; a JSON sidecar keeps full
precision. A separate sweep file tabulates the radius of ``G[0,K]`` window
formulas against ``K`` for each monitor, recomputed from the score caches.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .conformal import CalibratedMonitor, _check_seed, sample_level2_time
from .fragment import HorizonExceededError
from .logic import Always, Formula, NotInFragmentError, Predicate, TimeInterval
from .monitors import _certified_blocks, _resolve
from .robustness import Episode


@dataclass(frozen=True)
class ReportRow:
    formula: str
    monitor: str
    kind: str
    level: int
    q_phi: float
    csr: float
    prec: float | None
    fpr: float | None
    gt_safe: float
    coverage: float


@dataclass(frozen=True)
class SweepRow:
    k: int
    monitor: str
    kind: str
    level: int
    q_phi: float


def compute_metrics(
    lower_bounds: Sequence[np.ndarray],
    truths: Sequence[np.ndarray],
    level: int,
    k_max: int,
    coverage_seed: int = 0,
) -> dict:
    """Pool per-episode valid-time lower bounds against ground truth.

    ``lower_bounds[i]`` and ``truths[i]`` must be 1-D arrays of one shape,
    aligned to ``t = k_max .. T_i`` for episode ``i``, and some episode must
    have a valid time; ``level`` must be 1 or 2 (``ValueError``). Returns
    percentages in [0, 100]; ``prec`` and ``fpr`` are ``None`` exactly when
    their denominators are empty. At level 1 an episode with no valid time
    counts as covered; level 2 needs a valid time in every episode. The
    counts are :func:`_counts`' for one row, as :func:`evaluate_monitors`
    counts each of its formulas.
    """
    if level not in (1, 2):
        raise ValueError(f"level must be 1 or 2, got {level}")
    lb, rho, sizes = _pool(lower_bounds, truths)
    times = _level2_times(sizes, k_max, coverage_seed) if level != 1 else None
    return _rates(*_counts(lb[None], rho[None], sizes, times)[0].tolist(), sizes.size)


def _pool(lower_bounds, truths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every episode's bounds and truth, each concatenated into one array,
    and the episodes' sizes."""
    if len(lower_bounds) != len(truths):
        raise ValueError("lower_bounds and truths must pair up per episode")
    if not lower_bounds:
        raise ValueError("need at least one episode")
    lbs = [np.asarray(lb, dtype=float) for lb in lower_bounds]
    rhos = [np.asarray(rho, dtype=float) for rho in truths]
    for i, (lb, rho) in enumerate(zip(lbs, rhos)):
        if lb.ndim != 1 or lb.shape != rho.shape:
            raise ValueError(f"episode {i}: bounds shape {lb.shape} vs truth {rho.shape}, need one 1-D shape")
    sizes = np.array([lb.size for lb in lbs])
    if not sizes.any():
        raise ValueError("no episode has a valid time")
    return np.concatenate(lbs), np.concatenate(rhos), sizes


def _level2_times(sizes: np.ndarray, k_max: int, coverage_seed: int, first: int = 0) -> np.ndarray:
    """The sampled level-2 coverage time of each episode, numbered from
    ``first``, as an index into its valid times."""
    if not sizes.all():
        raise ValueError("level-2 coverage needs a valid time in every episode")
    draws = [
        sample_level2_time(coverage_seed, i, k_max, k_max + n - 1) for i, n in enumerate(sizes.tolist(), first)
    ]
    return np.array(draws) - k_max


def _counts(lb: np.ndarray, rho: np.ndarray, sizes: np.ndarray, times: np.ndarray | None) -> np.ndarray:
    """Valid points, safe, truly safe, safe and true, and covered episodes
    of each row of ``(rows, columns)`` bounds and truth, whose columns lay
    the episodes end to end, episode by episode, in ``sizes``: level-2
    coverage at each episode's index in ``times``, level-1 coverage (every
    valid time held) when it is ``None``. One row of five ints per row."""
    safe = lb >= 0.0
    true_safe = rho >= 0.0
    starts = np.cumsum(sizes) - sizes
    counts = np.empty((len(lb), 5), dtype=np.int64)
    counts[:, 0] = lb.shape[1]
    counts[:, 1] = safe.sum(axis=1)
    counts[:, 2] = true_safe.sum(axis=1)
    counts[:, 3] = (safe & true_safe).sum(axis=1)
    if times is None:
        nonempty = sizes > 0
        # An episode with no valid time holds vacuously.
        held = np.logical_and.reduceat(lb <= rho, starts[nonempty], axis=1)
        counts[:, 4] = held.sum(axis=1) + (sizes.size - int(np.count_nonzero(nonempty)))
    else:
        at = starts + times
        counts[:, 4] = (lb[:, at] <= rho[:, at]).sum(axis=1)
    return counts


def _rates(n_valid: int, n_safe: int, n_true_safe: int, n_safe_true: int, covered: int, n_episodes: int) -> dict:
    """The report's percentages from the counts of :func:`_counts`, summed
    over ``n_episodes`` episodes."""
    n_unsafe = n_valid - n_true_safe
    n_safe_wrong = n_safe - n_safe_true
    return {
        "csr": 100.0 * n_safe / n_valid,
        "prec": 100.0 * n_safe_true / n_safe if n_safe else None,
        "fpr": 100.0 * n_safe_wrong / n_unsafe if n_unsafe else None,
        "gt_safe": 100.0 * n_true_safe / n_valid,
        "coverage": 100.0 * covered / n_episodes,
    }


def evaluate_monitors(
    models: Sequence[tuple[str, CalibratedMonitor, object]],
    episodes: Iterable[Episode],
    formulas: Sequence[Formula],
    coverage_seed: int = 0,
) -> list[tuple[list[ReportRow], dict[str, str]]]:
    """Certify every episode for every formula with each ``(name, monitor,
    predictor)`` triple and summarize per monitor and formula, as
    :func:`compute_metrics` does; one ``(rows, errors)`` pair per monitor,
    in input order, and none without a model.

    All models share one pass of
    :func:`~ptmon.monitors._certified_blocks`: their monitors may read any
    layouts of one ``k_max``, each episode is predicted once per distinct
    predictor (monitors that share one must share a layout) and each
    formula's truth is read out once per block for all of them. Each block
    is folded into five counts per monitor and formula, in one
    :func:`_counts` call per monitor over its formulas' stacked rows, and
    then dropped, so memory holds one block, however many episodes there
    are. A formula listed more than once is certified and reported once, at
    its first position, and its ``q_phi`` is the radius of the monitor that
    certified it. Every formula's bounds span the same valid times, so the
    level-2 monitors draw each episode's coverage time once for all of
    them. Without episodes there are no rows, and ``errors`` still names
    the formulas a monitor cannot certify. ``coverage_seed`` must lie in
    ``0 .. 2**64 - 1`` (``ValueError``, before any episode is read).
    """
    coverage_seed = _check_seed(coverage_seed, "coverage_seed")
    mons = [mon for _, mon, _ in models]
    resolutions = [_resolve(mon, formulas) for mon in mons]
    totals = [np.zeros((len(resolved), 5), dtype=np.int64) for resolved, _ in resolutions]
    level2 = any(mon.level != 1 and resolved for mon, (resolved, _) in zip(mons, resolutions))
    pairs = [(mon, predictor) for _, mon, predictor in models]
    n_episodes = 0
    for widths, truth, bounds in _certified_blocks(episodes, pairs, resolutions):
        sizes = np.array(widths)
        times = _level2_times(sizes, mons[0].k_max, coverage_seed, n_episodes) if level2 else None
        n_episodes += sizes.size
        for mon, (resolved, _), mon_bounds, total in zip(mons, resolutions, bounds, totals):
            if resolved:
                lb = np.stack([mon_bounds[name] for name in resolved])
                rho = np.stack([truth[name] for name in resolved])
                total += _counts(lb, rho, sizes, times if mon.level != 1 else None)
    evaluated = []
    for (name, mon, _), (resolved, errors), total in zip(models, resolutions, totals):
        rows = [
            ReportRow(
                formula=fname,
                monitor=name,
                kind=mon.kind,
                level=mon.level,
                q_phi=mon_f.radius,
                **_rates(*counts, n_episodes),
            )
            for (fname, (_, mon_f)), counts in zip(resolved.items(), total.tolist())
        ] if n_episodes else []
        evaluated.append((rows, errors))
    return evaluated


def horizon_sweep(
    monitors: dict[str, CalibratedMonitor],
    ks: Sequence[int],
    predicate: Predicate,
) -> list[SweepRow]:
    """Radius of ``G[0,K] predicate`` against ``K``, straight from the caches.

    No episodes are touched: each monitor's stored score matrix yields the
    support-restricted radius for every requested window length. Monitors
    that cannot express a window (a missing dictionary atom, or a horizon
    past their history depth) simply contribute no row for that ``K``; a
    monitor without a score cache raises :class:`ValueError`.
    """
    rows: list[SweepRow] = []
    for k in ks:
        f = Always(TimeInterval(0, int(k)), predicate)
        for name, mon in monitors.items():
            try:
                q = mon.for_formula(f).radius
            except (NotInFragmentError, HorizonExceededError):
                continue
            rows.append(SweepRow(int(k), name, mon.kind, mon.level, q))
    return rows


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

_PERCENT_FIELDS = ("csr", "prec", "fpr", "gt_safe", "coverage")


def _fmt_percent(value: float | None) -> str:
    return "" if value is None else f"{value:.1f}"


def write_report_csv(rows: Sequence[ReportRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["formula", "monitor", "kind", "level", "q_phi", *_PERCENT_FIELDS])
        for row in rows:
            writer.writerow(
                [
                    row.formula,
                    row.monitor,
                    row.kind,
                    row.level,
                    f"{row.q_phi:.6g}",
                    *(_fmt_percent(getattr(row, f)) for f in _PERCENT_FIELDS),
                ]
            )


def write_report_json(rows: Sequence[ReportRow], path: str | Path) -> None:
    Path(path).write_text(json.dumps([asdict(r) for r in rows], indent=2))


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "monitor", "kind", "level", "q_phi"])
        for row in rows:
            writer.writerow([row.k, row.monitor, row.kind, row.level, f"{row.q_phi:.6g}"])
