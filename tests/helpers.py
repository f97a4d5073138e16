"""Shared test utilities: naive reference oracles and seeded generators.

The oracles here deliberately avoid every optimization the library uses —
no memoization, no sliding-window deques, no vectorization beyond single
elementwise ufuncs, no generated code — so agreement between the two is
meaningful.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ptmon.benchmark import PREDICATE_NAMES, CrossroadConfig
from ptmon.conformal import SIGMA_FLOOR, predicted_basis, sample_level2_time
from ptmon.fragment import (
    AtomicDictionary,
    Decoder,
    DecoderNode,
    HorizonExceededError,
    Leaf,
    MaxNode,
    MinNode,
)
from ptmon.logic import (
    Always,
    And,
    Eventually,
    Formula,
    NotInFragmentError,
    Or,
    Predicate,
    TimeInterval,
    format_formula,
    horizon,
)
from ptmon.robustness import BasisKind, Episode, predicate_history_series


# Ties, repeats and both signed zeros, so that an evaluator reducing children
# in another order or breaking ties another way reads out different bits.
TIE_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5)


def tie_heavy(rng: np.random.Generator, shape) -> np.ndarray:
    """Values half drawn from :data:`TIE_VALUES`, half normal draws."""
    return np.where(rng.random(shape) < 0.5, rng.choice(TIE_VALUES, shape), rng.normal(size=shape))


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


def _naive_combine(cls, children) -> DecoderNode:
    """A ``cls`` node over ``children`` with same-operator children
    flattened and repeats dropped (first kept), found through a set of
    decoder nodes; a lone survivor stands alone."""
    flat: list[DecoderNode] = []
    seen: set[DecoderNode] = set()
    for child in children:
        parts = child.children if isinstance(child, cls) else (child,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def naive_compile_semantic_decoder(f: Formula, dictionary: AtomicDictionary) -> Decoder:
    """The semantic decoder built node object by node object: an atom is a
    ``Leaf``, ``&``/``|`` combine their compiled children, anything else
    raises ``NotInFragmentError``."""
    atom_index = {atom: q for q, atom in enumerate(dictionary.atoms)}

    def build(node: Formula) -> DecoderNode:
        q = atom_index.get(node)
        if q is not None:
            return Leaf(q)
        if isinstance(node, (And, Or)):
            cls = MinNode if isinstance(node, And) else MaxNode
            return _naive_combine(cls, (build(node.left), build(node.right)))
        raise NotInFragmentError(node)

    return Decoder(build(f), BasisKind.SEMANTIC, dictionary.r, format_formula(f), horizon(f))


def naive_compile_history_decoder(f: Formula, m: int, k_max: int) -> Decoder:
    """The history decoder built node object by node object, every window
    lag unrolled recursively."""
    h = horizon(f)
    if h > k_max:
        raise HorizonExceededError(
            f"formula horizon {h} exceeds history depth {k_max}: {format_formula(f)}"
        )
    width = k_max + 1

    def build(node: Formula, lag: int) -> DecoderNode:
        if isinstance(node, Predicate):
            if node.index < 0 or node.index >= m:
                raise ValueError(f"predicate index {node.index} outside 0..{m - 1}")
            return Leaf(node.index * width + lag)
        if isinstance(node, (And, Or)):
            cls = MinNode if isinstance(node, And) else MaxNode
            return _naive_combine(cls, (build(node.left, lag), build(node.right, lag)))
        iv = node.interval
        cls = MinNode if isinstance(node, Always) else MaxNode
        return _naive_combine(cls, (build(node.child, lag + d) for d in range(iv.a, iv.b + 1)))

    return Decoder(build(f, 0), BasisKind.PREDICATE_HISTORY, m * width, format_formula(f), h)


def naive_leaf_indices(node: DecoderNode) -> set[int]:
    """Every coordinate a decoder tree's leaves read, by recursion."""
    if isinstance(node, Leaf):
        return {node.index}
    return set().union(*(naive_leaf_indices(c) for c in node.children))


def naive_compute_metrics(lower_bounds, truths, level: int, k_max: int, coverage_seed: int = 0) -> dict:
    """``metrics.compute_metrics`` one episode at a time: per-episode counts
    summed in Python, level-1 coverage as ``all`` over each episode, and one
    level-2 time drawn per episode."""
    n_valid = n_safe = n_true_safe = n_safe_correct = n_unsafe = n_safe_wrong = 0
    covered = 0
    for i, (lb, rho) in enumerate(zip(lower_bounds, truths)):
        lb = np.asarray(lb, dtype=float)
        rho = np.asarray(rho, dtype=float)
        safe = lb >= 0.0
        true_safe = rho >= 0.0
        n_valid += lb.size
        n_safe += int(safe.sum())
        n_true_safe += int(true_safe.sum())
        n_safe_correct += int((safe & true_safe).sum())
        n_unsafe += int((~true_safe).sum())
        n_safe_wrong += int((safe & ~true_safe).sum())
        if level == 1:
            covered += int(bool((lb <= rho).all()))
        else:
            T = k_max + lb.size - 1
            tau = sample_level2_time(coverage_seed, i, k_max, T)
            covered += int(lb[tau - k_max] <= rho[tau - k_max])
    return {
        "csr": 100.0 * n_safe / n_valid,
        "prec": 100.0 * n_safe_correct / n_safe if n_safe else None,
        "fpr": 100.0 * n_safe_wrong / n_unsafe if n_unsafe else None,
        "gt_safe": 100.0 * n_true_safe / n_valid,
        "coverage": 100.0 * covered / len(lower_bounds),
    }


def naive_true_basis(ep: Episode, basis_spec) -> np.ndarray:
    """One episode's exact basis columns over ``t = k_max .. T``: its
    semantic basis by the lag loop for a dictionary, its predicate history
    for ``(m, k_max)``."""
    if isinstance(basis_spec, AtomicDictionary):
        return lag_loop_basis_rows(ep.mu, basis_spec)
    return predicate_history_series(ep, basis_spec[1])


def naive_score_matrix(episodes, predictor, basis_spec, sigma, level: int, tau_seed: int = 0) -> np.ndarray:
    """``conformal.score_matrix`` one episode at a time: each episode's own
    prediction and truth, its error matrix, then its row."""
    k_max = basis_spec.K_max if isinstance(basis_spec, AtomicDictionary) else basis_spec[1]
    rows = []
    for i, ep in enumerate(episodes):
        errs = predicted_basis(ep, predictor, basis_spec) - naive_true_basis(ep, basis_spec)
        errs = np.maximum(0.0, errs) / sigma[:, None]
        if level == 1:
            rows.append(errs.max(axis=1))
        else:
            rows.append(errs[:, sample_level2_time(tau_seed, i, k_max, ep.T) - k_max])
    return np.array(rows)


def naive_estimate_sigma(episodes, predictor, basis_spec) -> np.ndarray:
    """``conformal.estimate_sigma`` one episode at a time: every episode's
    absolute errors pooled in episode order, then the floored median."""
    pooled = [
        np.abs(predicted_basis(ep, predictor, basis_spec) - naive_true_basis(ep, basis_spec)) for ep in episodes
    ]
    return np.maximum(np.median(np.concatenate(pooled, axis=1), axis=1), SIGMA_FLOOR)


def naive_observer_rows(episodes, predictor, m: int, k_max: int, sigma, tau_seed: int = 0) -> np.ndarray:
    """The observer's score cache one episode at a time: the symmetric
    error ``|predicted - truth| / sigma`` at one sampled time per episode."""
    rows = []
    for i, ep in enumerate(episodes):
        errors = predicted_basis(ep, predictor, (m, k_max)) - naive_true_basis(ep, (m, k_max))
        tau = sample_level2_time(tau_seed, i, k_max, ep.T)
        rows.append(np.abs(errors[:, tau - k_max]) / sigma)
    return np.array(rows)


def naive_split_quantile(scores: np.ndarray, alpha: float) -> np.ndarray:
    """The ``min(n, ceil((n+1)(1-alpha)))``-th smallest of each column
    (1-based) of ``n`` scores, from one full sort along the first axis."""
    s = np.sort(scores, axis=0)
    n = s.shape[0]
    return s[min(n, math.ceil((n + 1) * (1.0 - alpha))) - 1]


def naive_radius_for_support(cache, support, alpha: float) -> float:
    """``conformal.radius_for_support`` on a row-major copy of the cache:
    the support's columns gathered in coordinate order, each row's maximum
    over them, then the split quantile of those maxima."""
    idx = sorted(int(i) for i in support)
    scores = np.ascontiguousarray(cache.matrix)[:, idx].max(axis=1)
    return float(naive_split_quantile(scores, alpha))


def naive_coord_radii(cache, support, alpha: float) -> np.ndarray:
    """The observer's per-coordinate radii for ``support``: each support
    column's split quantile at level ``alpha / |support|``, from a full sort
    of the gathered columns of a row-major copy of the cache; zero
    elsewhere. The observer's radius is their maximum over the support in
    coordinate order."""
    idx = sorted(support)
    radii = np.zeros(cache.dim)
    radii[idx] = naive_split_quantile(np.ascontiguousarray(cache.matrix)[:, idx], alpha / len(idx))
    return radii


def naive_windowed_extrema(series, interval: TimeInterval, mode: str):
    """Rescan every window with the built-in min/max."""
    x = list(series)
    pick = min if mode == "min" else max
    out = []
    for t in range(interval.b, len(x)):
        out.append(pick(x[t - interval.b : t - interval.a + 1]))
    return np.asarray(out, dtype=float)


def lag_fold_windowed_extrema(series, interval: TimeInterval, mode: str) -> np.ndarray:
    """The sliding extremum as a left fold of ``np.minimum``/``np.maximum``
    over the lag-shifted slices ``x[b-j : n-j]``, ``j = a..b``, newest lag
    first. numpy keeps the second argument on a tie, so of two tied zeros of
    opposite sign the oldest sample wins: the bits the library's doubling
    routine must reproduce."""
    x = np.asarray(series, dtype=float)
    a, b = interval.a, interval.b
    n = x.shape[0]
    if n <= b:
        return np.empty(0, dtype=float)
    op = np.minimum if mode == "min" else np.maximum
    lags = (x[b - j : n - j] for j in range(a + 1, b + 1))
    return functools.reduce(op, lags, x[b - a : n - a].copy())


def lag_fold_series(f: Formula, mu: np.ndarray) -> np.ndarray:
    """A formula's robustness at every valid time, every window by
    :func:`lag_fold_windowed_extrema`."""
    if isinstance(f, Predicate):
        return mu[f.index]
    if isinstance(f, (And, Or)):
        left, right = lag_fold_series(f.left, mu), lag_fold_series(f.right, mu)
        n = min(left.size, right.size)
        op = np.minimum if isinstance(f, And) else np.maximum
        return op(left[left.size - n :], right[right.size - n :])
    mode = "min" if isinstance(f, Always) else "max"
    return lag_fold_windowed_extrema(lag_fold_series(f.child, mu), f.interval, mode)


def lag_loop_basis_rows(mu: np.ndarray, dictionary: AtomicDictionary) -> np.ndarray:
    """The semantic basis at the times ``K_max .. n-1`` of a ``(m, n)``
    margin array: every ``G[0,b] p`` / ``F[0,b] p`` atom from one running
    ``np.minimum`` and ``np.maximum`` over the lag slices
    ``mu[:, K-j : n-j]``, ``j = 1..K_max``, snapshotted at lag ``b``; every
    other atom from :func:`lag_fold_series`, cut to the common tail."""
    k, n = dictionary.K_max, mu.shape[1]
    lo = hi = mu[:, k:]
    snapshots = [(lo, hi)]
    for j in range(1, k + 1):
        lag = mu[:, k - j : n - j]
        lo, hi = np.minimum(lo, lag), np.maximum(hi, lag)
        snapshots.append((lo, hi))
    out = np.empty((dictionary.r, n - k))
    for i, atom in enumerate(dictionary.atoms):
        if isinstance(atom, (Always, Eventually)) and atom.interval.a == 0 and isinstance(atom.child, Predicate):
            out[i] = snapshots[atom.interval.b][isinstance(atom, Eventually)][atom.child.index]
        else:
            row = lag_fold_series(atom, mu)
            out[i] = row[row.size - (n - k) :]
    return out


def naive_wrap_angle(angle: np.ndarray) -> np.ndarray:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def naive_crossroad_margins(cfg: CrossroadConfig, states: np.ndarray) -> np.ndarray:
    """The seven crossroad margins of an ``(n, 4 + 2*peds)`` state array,
    each cone recomputing its own bearings."""
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    n_ped = (states.shape[1] - 4) // 2
    pos = states[:, 0:2]
    heading = states[:, 2]
    speed = states[:, 3]

    half_angle = math.radians(cfg.sector_half_angle_deg)
    cap = cfg.sector_max

    if n_ped == 0:
        dist = np.full((n, 0), np.inf)
        rel = np.zeros((n, 0, 2))
    else:
        peds = states[:, 4:].reshape(n, n_ped, 2)
        rel = peds - pos[:, None, :]
        dist = np.hypot(rel[:, :, 0], rel[:, :, 1])

    def cone_clearance(center: np.ndarray) -> np.ndarray:
        if n_ped == 0:
            return np.full(n, cap)
        bearing = np.arctan2(rel[:, :, 1], rel[:, :, 0])
        diff = np.abs(naive_wrap_angle(bearing - center[:, None]))
        in_cone = diff <= half_angle
        nearest = np.min(np.where(in_cone, dist, np.inf), axis=1)
        return np.minimum(nearest, cap)

    p_clear = np.minimum(np.min(dist, axis=1, initial=np.inf), cap) - cfg.d_safe
    p_f = cone_clearance(heading) - cfg.d_safe
    p_l = cone_clearance(heading + 0.5 * math.pi) - cfg.d_safe
    p_r = cone_clearance(heading - 0.5 * math.pi) - cfg.d_safe

    if n_ped == 0:
        gap = np.full(n, cap)
    else:
        cos_h = np.cos(heading)[:, None]
        sin_h = np.sin(heading)[:, None]
        longitudinal = rel[:, :, 0] * cos_h + rel[:, :, 1] * sin_h
        lateral = -rel[:, :, 0] * sin_h + rel[:, :, 1] * cos_h
        ahead = (longitudinal > 0.0) & (np.abs(lateral) <= cfg.corridor_half_width)
        gap = np.minimum(np.min(np.where(ahead, longitudinal, np.inf), axis=1), cap)
    p_front_margin = gap - cfg.d_safe

    p_goal = cfg.goal_radius - np.hypot(pos[:, 0] - cfg.robot_goal[0], pos[:, 1] - cfg.robot_goal[1])
    p_speed = cfg.v_max - speed

    return np.vstack([p_clear, p_f, p_l, p_r, p_front_margin, p_goal, p_speed])


def naive_simulate_episode(cfg: CrossroadConfig, seed: int) -> Episode:
    """The crossroad roll-out with numpy scalars in the step loop: each angle
    wrapped through a 0-d array, the nearest pedestrian by ``np.hypot`` and
    ``np.min``, and the state matrix filled row by row."""
    rng = np.random.default_rng([cfg.seed, seed])
    n_ped = cfg.n_pedestrians
    steps = cfg.T + 1
    dt = cfg.dt

    if n_ped:
        starts = np.asarray(cfg.pedestrian_starts, dtype=float)
        starts = starts + rng.uniform(-cfg.start_jitter, cfg.start_jitter, size=(n_ped, 2))
        speeds = np.asarray(cfg.pedestrian_speeds, dtype=float)
        speeds = speeds * (1.0 + rng.uniform(-cfg.speed_jitter, cfg.speed_jitter, size=n_ped))
        headings = np.radians(np.asarray(cfg.pedestrian_headings_deg, dtype=float))
        directions = np.stack([np.cos(headings), np.sin(headings)], axis=1)
        times = np.arange(steps)[:, None, None] * dt
        walk = rng.normal(0.0, cfg.process_noise * math.sqrt(dt), size=(steps - 1, n_ped, 2))
        drift = np.concatenate([np.zeros((1, n_ped, 2)), np.cumsum(walk, axis=0)])
        ped_paths = starts[None, :, :] + speeds[None, :, None] * directions[None, :, :] * times + drift
    else:
        ped_paths = np.zeros((steps, 0, 2))

    robot_noise = rng.normal(0.0, cfg.process_noise * math.sqrt(dt), size=(steps - 1, 2))

    gx, gy = cfg.robot_goal
    x, y = cfg.robot_start
    heading = math.atan2(gy - y, gx - x)
    speed = 0.0

    states = np.empty((steps, 4 + 2 * n_ped), dtype=float)
    for t in range(steps):
        states[t, 0], states[t, 1], states[t, 2], states[t, 3] = x, y, heading, speed
        if n_ped:
            states[t, 4:] = ped_paths[t].reshape(-1)
        if t == steps - 1:
            break
        dist_goal = math.hypot(gx - x, gy - y)
        target = math.atan2(gy - y, gx - x)
        turn = naive_wrap_angle(np.asarray(target - heading)).item()
        turn = max(-cfg.turn_rate_max * dt, min(cfg.turn_rate_max * dt, turn))
        heading = float(naive_wrap_angle(np.asarray(heading + turn)))
        v_cmd = min(cfg.v_max, cfg.accel_gain * dist_goal)
        if n_ped:
            d_near = float(np.min(np.hypot(ped_paths[t, :, 0] - x, ped_paths[t, :, 1] - y)))
            if d_near < cfg.activation_radius:
                brake = (d_near - cfg.d_safe) / (cfg.activation_radius - cfg.d_safe)
                v_cmd *= min(1.0, max(0.0, brake))
        speed = v_cmd
        x += speed * math.cos(heading) * dt + robot_noise[t, 0]
        y += speed * math.sin(heading) * dt + robot_noise[t, 1]

    mu = naive_crossroad_margins(cfg, states)
    return Episode(mu=mu, dt=dt, states=states, predicate_names=PREDICATE_NAMES, uid=seed)


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


def nested_window_formula(rng, m):
    """A random PNF formula with two nested windows, the outer one with
    ``a > 0``, combined with a sibling of an independent horizon."""
    outer_op, inner_op = (Always if rng.random() < 0.5 else Eventually for _ in range(2))
    a = int(rng.integers(1, 4))
    outer = TimeInterval(a, a + int(rng.integers(0, 4)))
    nested = outer_op(outer, inner_op(random_interval(rng), random_pnf_formula(rng, m)))
    sibling = random_pnf_formula(rng, m)
    pair = (nested, sibling) if rng.random() < 0.5 else (sibling, nested)
    return And(*pair) if rng.random() < 0.5 else Or(*pair)


def mixed_dictionary(rng, m):
    """A dictionary whose ``G[0,b] p`` / ``F[0,b] p`` atoms (random widths,
    ``b = 0`` included) are shuffled among atoms outside that layout: a
    window with ``a > 0``, a nested window, an ``&``/``|`` atom and a bare
    predicate, each present at random."""

    def p():
        k = int(rng.integers(m))
        return Predicate(f"p{k}", k)

    def op():
        return Always if rng.random() < 0.5 else Eventually

    atoms = [op()(TimeInterval(0, int(rng.integers(0, 9))), p()) for _ in range(rng.integers(0, 9))]
    if rng.random() < 0.5:
        a = int(rng.integers(1, 4))
        atoms.append(op()(TimeInterval(a, a + int(rng.integers(0, 4))), p()))
    if rng.random() < 0.5:
        atoms.append(nested_window_formula(rng, m))
    if rng.random() < 0.5:
        pair = (op()(random_interval(rng), p()), op()(random_interval(rng), p()))
        atoms.append(And(*pair) if rng.random() < 0.5 else Or(*pair))
    if rng.random() < 0.5 or not atoms:
        atoms.append(p())
    atoms = list(dict.fromkeys(atoms))
    return AtomicDictionary(tuple(atoms[i] for i in rng.permutation(len(atoms))), m)
