"""Synthetic crossroad scenario: simulator, predicate margins, noisy
predictor stubs, and dataset generation.

A differential-drive style robot crosses an arena toward a goal while a few
pedestrians walk straight crossing paths. Episodes are i.i.d. given a config:
all per-episode randomness (start jitter, speed jitter, process noise) comes
from one generator seeded by ``(config seed, episode seed)``, so the same
pair reproduces an episode bit for bit.

The predicates are fixed at seven margins (all "safe when positive"):

* ``p_clear``         distance to the nearest pedestrian minus ``d_safe``
* ``p_f/p_l/p_r``     nearest pedestrian inside the front/left/right cone
                      (half-angle ``sector_half_angle_deg``) minus ``d_safe``;
                      an empty cone reads as the cap ``sector_max``
* ``p_front_margin``  longitudinal gap to pedestrians inside the corridor of
                      half-width ``corridor_half_width`` ahead, minus ``d_safe``
* ``p_goal``          ``goal_radius`` minus the distance to the goal
* ``p_speed``         ``v_max`` minus the current speed

Distances feeding the clearance predicates are capped at ``sector_max`` so
empty sectors stay finite. The recorded margin matrix always equals
:func:`crossroad_margins` of the recorded states, row for row.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .conformal import _NOISE, _check_seed, _keyed_generator
from .fragment import AtomicDictionary, build_depth1_dictionary
from .robustness import Episode, TimeOutOfRangeError, _basis_rows, basis_side_by_side

PREDICATE_NAMES = ("p_clear", "p_f", "p_l", "p_r", "p_front_margin", "p_goal", "p_speed")
DEFAULT_INTERVALS = ((0, 1), (0, 2), (0, 4), (0, 8), (0, 16))
DATASET_VERSION = 3

_SPLIT_CODES = {"train": 0, "calib": 1, "test": 2}


@dataclass(frozen=True)
class CrossroadConfig:
    """Scenario geometry, dynamics, and noise for the crossing benchmark."""

    arena_half_width: float = 10.0
    robot_start: tuple[float, float] = (-8.0, 0.0)
    robot_goal: tuple[float, float] = (8.0, 0.0)
    pedestrian_starts: tuple[tuple[float, float], ...] = ((0.0, 7.0), (-2.0, -7.0), (3.0, -6.0))
    pedestrian_headings_deg: tuple[float, ...] = (-90.0, 90.0, 90.0)
    pedestrian_speeds: tuple[float, ...] = (1.0, 1.2, 0.8)
    d_safe: float = 1.0
    sector_half_angle_deg: float = 45.0
    sector_max: float = 10.0
    corridor_half_width: float = 1.0
    goal_radius: float = 0.5
    v_max: float = 1.5
    turn_rate_max: float = 1.5
    accel_gain: float = 1.0
    activation_radius: float = 3.0
    process_noise: float = 0.02
    start_jitter: float = 0.5
    speed_jitter: float = 0.2
    dt: float = 0.1
    T: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        n = len(self.pedestrian_starts)
        if len(self.pedestrian_headings_deg) != n or len(self.pedestrian_speeds) != n:
            raise ValueError("pedestrian starts, headings, and speeds must align")
        if self.d_safe <= 0:
            raise ValueError("d_safe must be positive")
        if self.sector_max <= self.d_safe:
            raise ValueError("sector_max must exceed d_safe")
        if not (0.0 < self.sector_half_angle_deg <= 180.0):
            raise ValueError("sector half-angle must lie in (0, 180] degrees")
        if self.dt <= 0 or self.T < 1:
            raise ValueError("need dt > 0 and T >= 1")
        if self.v_max <= 0 or self.goal_radius <= 0:
            raise ValueError("v_max and goal_radius must be positive")
        if self.activation_radius <= self.d_safe:
            raise ValueError("activation_radius must exceed d_safe (braking ramps between them)")

    @property
    def n_pedestrians(self) -> int:
        return len(self.pedestrian_starts)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "CrossroadConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        for key in ("robot_start", "robot_goal", "pedestrian_headings_deg", "pedestrian_speeds"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "pedestrian_starts" in kwargs:
            kwargs["pedestrian_starts"] = tuple(tuple(p) for p in kwargs["pedestrian_starts"])
        return cls(**kwargs)


def crossroad_margins(cfg: CrossroadConfig, states: np.ndarray) -> np.ndarray:
    """The seven crossroad margins of an ``(n, 4 + 2*peds)`` state array.

    Each row is ``(x, y, heading, speed, px1, py1, px2, py2, ...)``; the
    result is the ``(m, n)`` margin matrix, one predicate per row. With no
    pedestrians every clearance reads the cap ``sector_max``.

    Every margin of a row is computed from that row alone, by elementwise
    numpy expressions and reductions over its pedestrians, so the rows of
    several episodes stacked into one call give each episode's own margins
    bit for bit; :func:`generate_dataset` calls it on blocks of episodes. The
    three cone clearances (front, left, right) come from one broadcast over
    ``(rows, cones, pedestrians)``.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] < 4 or (states.shape[1] - 4) % 2 != 0:
        raise ValueError(f"state array must be (n, 4 + 2*peds), got {states.shape}")
    pos, heading, speed = states[:, 0:2], states[:, 2], states[:, 3]
    rel = states[:, 4:].reshape(states.shape[0], (states.shape[1] - 4) // 2, 2) - pos[:, None, :]
    dist = np.hypot(rel[:, :, 0], rel[:, :, 1])
    bearing = np.arctan2(rel[:, :, 1], rel[:, :, 0])

    def nearest(values: np.ndarray) -> np.ndarray:
        """The minimum over the last axis capped at ``sector_max``; the cap
        where that axis is empty."""
        return np.minimum(np.min(values, axis=-1, initial=np.inf), cfg.sector_max)

    centers = np.stack([heading, heading + 0.5 * math.pi, heading - 0.5 * math.pi], axis=1)
    in_cone = np.abs(_wrap_angle(bearing[:, None, :] - centers[:, :, None])) <= math.radians(cfg.sector_half_angle_deg)
    cones = nearest(np.where(in_cone, dist[:, None, :], np.inf)) - cfg.d_safe

    cos_h = np.cos(heading)[:, None]
    sin_h = np.sin(heading)[:, None]
    longitudinal = rel[:, :, 0] * cos_h + rel[:, :, 1] * sin_h
    lateral = -rel[:, :, 0] * sin_h + rel[:, :, 1] * cos_h
    ahead = (longitudinal > 0.0) & (np.abs(lateral) <= cfg.corridor_half_width)

    p_clear = nearest(dist) - cfg.d_safe
    p_front_margin = nearest(np.where(ahead, longitudinal, np.inf)) - cfg.d_safe
    p_goal = cfg.goal_radius - np.hypot(pos[:, 0] - cfg.robot_goal[0], pos[:, 1] - cfg.robot_goal[1])
    p_speed = cfg.v_max - speed
    return np.vstack([p_clear, cones.T, p_front_margin, p_goal, p_speed])


def _wrap_angle(angle: np.ndarray) -> np.ndarray:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def simulate_episode(cfg: CrossroadConfig, seed: int) -> Episode:
    """Roll out one episode; ``(cfg, seed)`` fully determines the result.

    The robot steers proportionally toward the goal, slows inside
    ``activation_radius`` of the nearest pedestrian, and stops at the goal.
    Pedestrians follow straight paths with jittered starts and speeds plus a
    small random walk. Returned margins are exactly :func:`crossroad_margins`
    of the recorded states; ``uid`` is set to ``seed`` for reproducible noise
    keys.

    This is the one-seed case of the simulator :func:`generate_dataset`
    runs on a whole split, so an episode reads the same here as in row
    ``i`` of a split table (see :func:`_simulate_split`).
    """
    n_states = 4 + 2 * cfg.n_pedestrians
    row = _simulate_split(cfg, [seed])[0]
    return Episode(mu=np.ascontiguousarray(row[:, n_states:].T), dt=cfg.dt, states=row[:, :n_states],
                   predicate_names=PREDICATE_NAMES, uid=seed)


# State rows per crossroad_margins call in a split: enough to pay numpy's
# per-call overhead once for many episodes, few enough that the call's
# intermediates (about 60 floats a row) stay small next to the split's table
# (against per-episode calls, one call over the 12,200 rows of a 200-episode
# split raised perfbench's report/peak_rss_mb by 3.9 MB, blocks of 1,024 rows
# by about 1 MB).
_MARGIN_ROWS = 1024


def _simulate_split(cfg: CrossroadConfig, seeds: Sequence[int]) -> np.ndarray:
    """The episodes of ``seeds`` as one C-order ``(n, T+1, S+m)`` table:
    row ``i`` is episode ``seeds[i]``, the state at each step followed by
    its ``m`` margins (the layout :func:`generate_dataset` saves).

    Per episode: one generator ``default_rng([cfg.seed, seed])`` with four
    draws in a fixed order (start jitter, speed jitter, pedestrian walk,
    robot noise), and the robot's step loop (:func:`_drive`). Once for the
    whole split: the pedestrian paths and the table; the margins come from
    one :func:`crossroad_margins` call per block of episodes (at least one
    episode, at most :data:`_MARGIN_ROWS` state rows). Both are elementwise
    numpy expressions plus a ``cumsum`` along time, so an episode's values
    do not depend on the other seeds in the call.
    """
    n, n_ped, steps, dt = len(seeds), cfg.n_pedestrians, cfg.T + 1, cfg.dt
    sd = cfg.process_noise * math.sqrt(dt)
    start_jitter = np.empty((n, n_ped, 2))
    speed_jitter = np.empty((n, n_ped))
    paths = np.zeros((n, steps, n_ped, 2))  # the walk first; step 0 does not move
    robot_noise = []
    for i, seed in enumerate(seeds):
        # With no pedestrians the first three draws have size 0 and leave rng as it is.
        rng = np.random.default_rng([cfg.seed, seed])
        start_jitter[i] = rng.uniform(-cfg.start_jitter, cfg.start_jitter, size=(n_ped, 2))
        speed_jitter[i] = rng.uniform(-cfg.speed_jitter, cfg.speed_jitter, size=n_ped)
        paths[i, 1:] = rng.normal(0.0, sd, size=(steps - 1, n_ped, 2))
        robot_noise.append(rng.normal(0.0, sd, size=(steps - 1, 2)))

    starts = np.asarray(cfg.pedestrian_starts, dtype=float).reshape(n_ped, 2) + start_jitter
    speeds = np.asarray(cfg.pedestrian_speeds, dtype=float) * (1.0 + speed_jitter)
    headings = np.radians(np.asarray(cfg.pedestrian_headings_deg, dtype=float))
    directions = np.stack([np.cos(headings), np.sin(headings)], axis=1)
    times = np.arange(steps)[:, None, None] * dt
    np.cumsum(paths[:, 1:], axis=1, out=paths[:, 1:])
    paths = starts[:, None] + speeds[:, None, :, None] * directions * times + paths

    n_states = 4 + 2 * n_ped
    table = np.empty((n, steps, n_states + len(PREDICATE_NAMES)))
    table[:, :, 4:n_states] = paths.reshape(n, steps, 2 * n_ped)
    # Each position as one Python complex number, its parts the path's floats.
    for row, peds, noise in zip(table, paths.view(complex)[..., 0], robot_noise):
        row[:, :4] = np.reshape(_drive(cfg, peds.tolist(), noise.tolist()), (steps, 4))
    per_call = max(1, _MARGIN_ROWS // steps)
    for lo in range(0, n, per_call):
        block = table[lo : lo + per_call]
        states = block[:, :, :n_states].reshape(-1, n_states)
        block[:, :, n_states:] = crossroad_margins(cfg, states).T.reshape(len(block), steps, len(PREDICATE_NAMES))
    return table


def _drive(cfg: CrossroadConfig, peds: list[list[complex]], noise: list[list[float]]) -> list[float]:
    """The robot's ``x, y, heading, speed`` at each step, flat, given the
    pedestrians' positions ``peds[t]`` and the process noise ``noise[t]``.

    Runs on Python floats. Angles wrap with the float ``%`` (the same
    ``fmod`` rule numpy's ``%`` follows). The nearest-pedestrian distance is
    ``abs(p - z)`` of complex numbers: the difference is taken part by
    part, and ``abs`` calls the C library's ``hypot``, the function
    ``np.hypot`` calls (``math.hypot`` rounds differently on some inputs).
    Each clamp is written as the comparison ``min``/``max`` would make, so
    ties and signed zeros come out as theirs.
    """
    hypot, atan2, cos, sin, pi = math.hypot, math.atan2, math.cos, math.sin, math.pi
    tau = 2.0 * pi
    dt, v_max, gain, radius, d_safe = cfg.dt, cfg.v_max, cfg.accel_gain, cfg.activation_radius, cfg.d_safe
    max_turn = cfg.turn_rate_max * dt
    min_turn = -max_turn

    gx, gy = cfg.robot_goal
    x, y = cfg.robot_start
    heading = atan2(gy - y, gx - x)
    speed = 0.0
    robot = [x, y, heading, speed]
    for here, (noise_x, noise_y) in zip(peds, noise):
        dx, dy = gx - x, gy - y
        turn = (atan2(dy, dx) - heading + pi) % tau - pi
        if not turn < max_turn:
            turn = max_turn
        if not turn > min_turn:
            turn = min_turn
        heading = (heading + turn + pi) % tau - pi
        speed = gain * hypot(dx, dy)
        if not speed < v_max:
            speed = v_max
        if here:
            z = complex(x, y)
            d_near = min([abs(p - z) for p in here])
            if d_near < radius:
                brake = (d_near - d_safe) / (radius - d_safe)
                if not brake > 0.0:
                    brake = 0.0
                if not brake < 1.0:
                    brake = 1.0
                speed *= brake
        x += speed * cos(heading) * dt + noise_x
        y += speed * sin(heading) * dt + noise_y
        robot += (x, y, heading, speed)
    return robot


# ---------------------------------------------------------------------------
# Noisy predictor stubs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PredictorStub:
    """Ground truth plus bias and AR(1)-correlated Gaussian noise.

    ``mode`` selects the prediction target: ``"predicates"`` emits a noisy
    per-step margin matrix ``(m, T+1)``; ``"semantic"`` emits noisy
    dictionary-atom robustness columns for the valid times. Noise is
    stationary with unit marginal variance before scaling: successive
    deviates follow ``z[t] = ar*z[t-1] + sqrt(1-ar^2)*eps[t]``, so ``ar=0``
    gives i.i.d. noise. The draw is keyed by ``(seed, episode uid)``, on
    streams of its own (:meth:`_deviates`): calling ``predict`` twice on the
    same episode returns identical output. ``seed`` is an integer in ``0 ..
    2**64 - 1`` (``ValueError`` otherwise, at construction), and so must
    each predicted episode's uid be.

    ``scale`` and ``bias`` are each a finite number or one per row
    (predicate or atom), ``scale`` nonnegative. Construction checks them
    once (a semantic stub's vectors against the dictionary's atoms; a
    predicates stub's against each episode's ``m`` when it is predicted),
    raising ``ValueError``, and keeps them as float arrays shaped for the
    noise; ``to_json`` writes the fields as given.

    :meth:`predict_block` predicts a block of episodes in one call, each
    bit for bit what :meth:`predict`, its one-episode case, gives alone;
    calibration and batch certification predict through it.
    """

    mode: str
    scale: float | np.ndarray = 0.1
    bias: float | np.ndarray = 0.0
    ar_coeff: float = 0.0
    seed: int = 0
    dictionary: AtomicDictionary | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("predicates", "semantic"):
            raise ValueError(f"mode must be 'predicates' or 'semantic', got {self.mode!r}")
        if self.mode == "semantic" and self.dictionary is None:
            raise ValueError("semantic mode needs the dictionary whose basis it predicts")
        object.__setattr__(self, "seed", _check_seed(self.seed, "seed"))
        if not (isinstance(self.ar_coeff, numbers.Real) and 0.0 <= self.ar_coeff < 1.0):
            raise ValueError(f"ar_coeff must lie in [0, 1), got {self.ar_coeff}")
        object.__setattr__(self, "_scale", _noise_coefficient("scale", self.scale))
        object.__setattr__(self, "_bias", _noise_coefficient("bias", self.bias))
        if (self._scale < 0).any():
            raise ValueError("scale must be nonnegative")
        if self.mode == "semantic":
            self._check_rows(self.dictionary.r, f"the dictionary has {self.dictionary.r} atoms")

    def _check_rows(self, rows: int, what: str) -> None:
        for name, x in (("scale", self._scale), ("bias", self._bias)):
            if x.ndim and x.shape[0] != rows:
                raise ValueError(f"{name} has {x.shape[0]} entries, but {what}")

    def predict(self, ep: Episode) -> np.ndarray:
        """``predict_block([ep])[0]``."""
        return self.predict_block([ep])[0]

    def predict_block(self, episodes: Sequence[Episode]) -> list[np.ndarray]:
        """One prediction per episode of ``episodes``, in order.

        The truth is the episode's margins, or in semantic mode its atom
        basis, built for the whole block from one basis pass over the
        margins laid end to end, bit for bit each episode's own. Each
        episode's noise is drawn from its own generator and added in place,
        ``z *= scale; z += bias; z += truth``: floating-point products and
        sums commute, so that is ``truth + (bias + scale * z)`` bit for bit.
        """
        if not episodes:
            return []
        if self.mode == "semantic":
            d, k_max = self.dictionary, self.dictionary.K_max
            for ep in episodes:
                if ep.T < k_max:
                    raise TimeOutOfRangeError(f"episode too short: T={ep.T} < K_max={k_max}")
            joined = basis_side_by_side([ep.mu for ep in episodes], lambda mu: _basis_rows(mu, d), k_max)
            truths = np.split(joined, np.cumsum([ep.T - k_max + 1 for ep in episodes])[:-1], axis=1)
        else:
            for ep in episodes:
                self._check_rows(ep.m, f"episode {ep.uid} has {ep.m} predicates")
            truths = [ep.mu for ep in episodes]
        out = []
        for ep, truth in zip(episodes, truths):
            z = self._deviates(truth.shape, ep.uid)
            z *= self._scale
            z += self._bias
            z += truth
            out.append(z)
        return out

    def _deviates(self, shape: tuple[int, int], uid: int) -> np.ndarray:
        """The episode's unit-variance noise before scaling, a new array:
        ``standard_normal(shape)`` from the keyed generator of ``(1, seed,
        uid)`` (:func:`~ptmon.conformal._keyed_generator`, purpose 1:
        predictor noise), then the AR(1) filter along time."""
        eps = _keyed_generator(_NOISE, self.seed, uid).standard_normal(shape)
        if self.ar_coeff == 0.0:
            return eps
        z = np.empty_like(eps)
        z[:, 0] = eps[:, 0]
        w = math.sqrt(1.0 - self.ar_coeff**2)
        for t in range(1, shape[1]):
            z[:, t] = self.ar_coeff * z[:, t - 1] + w * eps[:, t]
        return z

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "scale": np.asarray(self.scale).tolist(),
            "bias": np.asarray(self.bias).tolist(),
            "ar_coeff": self.ar_coeff,
            "seed": self.seed,
        }


def _noise_coefficient(name: str, value) -> np.ndarray:
    """``value``, a number or a vector of numbers, as a read-only float
    array shaped for the noise: 0-d, or a vector as one column of rows."""
    try:
        x = np.asarray(value)
    except (TypeError, ValueError):
        x = None
    if x is None or x.dtype.kind not in "iuf" or x.ndim > 1:
        raise ValueError(f"{name} must be a number or a vector of numbers, got {value!r}")
    x = x.astype(float).reshape(x.shape + (1,) * x.ndim)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    x.flags.writeable = False
    return x


def stub_from_json(obj: dict, dictionary: AtomicDictionary | None = None) -> PredictorStub:
    scale = obj.get("scale", 0.1)
    bias = obj.get("bias", 0.0)
    return PredictorStub(
        mode=obj["mode"],
        scale=np.asarray(scale, dtype=float) if isinstance(scale, list) else float(scale),
        bias=np.asarray(bias, dtype=float) if isinstance(bias, list) else float(bias),
        ar_coeff=float(obj.get("ar_coeff", 0.0)),
        seed=obj.get("seed", 0),
        dictionary=dictionary,
    )


# ---------------------------------------------------------------------------
# Dataset generation and loading
# ---------------------------------------------------------------------------


def _episode_seed(split: str, index: int) -> int:
    return (_SPLIT_CODES[split] << 32) + index


def generate_dataset(
    cfg: CrossroadConfig,
    counts: dict[str, int],
    seed: int,
    out_dir: str | Path,
    intervals: Sequence[tuple[int, int]] = DEFAULT_INTERVALS,
) -> Path:
    """Simulate train/calib/test splits and write them under ``out_dir``.

    Layout: ``manifest.json`` plus one ``<split>.npy`` per split, a C-order
    float64 table of shape ``(n, T+1, S+m)`` (NumPy's ``.npy`` format, one
    ``np.save``) whose row ``i`` is episode ``i``: the state at each step
    followed by the ``m`` margins. A split with count 0 gets no table.
    Episode ``i`` has uid ``_episode_seed(split, i)``; seeds are disjoint
    across splits (the split code occupies bits above any index), so splits
    never share randomness. The dataset seed replaces ``cfg.seed``.

    Each split is simulated in one pass (:func:`_simulate_split`: draws and
    step loop per episode, pedestrian paths and margins per split) and its
    table saved as it comes, before the next split is simulated. Row ``i``
    equals :func:`simulate_episode` of its uid bit for bit.

    Raises ``ValueError``, before simulating anything, if ``out_dir`` already
    holds a ``manifest.json`` or any split table: two datasets must never
    share a directory.
    """
    cfg = dataclasses.replace(cfg, seed=seed)
    out = Path(out_dir)
    for split in counts:
        if split not in _SPLIT_CODES:
            raise ValueError(f"unknown split {split!r} (expected train/calib/test)")
    used = [name for name in ("manifest.json", *(f"{s}.npy" for s in _SPLIT_CODES)) if (out / name).exists()]
    if used:
        raise ValueError(f"{out} already holds episode files ({', '.join(used)}); simulate into a new directory")
    out.mkdir(parents=True, exist_ok=True)
    dictionary = build_depth1_dictionary(len(PREDICATE_NAMES), intervals, PREDICATE_NAMES)
    manifest = {
        "version": DATASET_VERSION,
        "m": len(PREDICATE_NAMES),
        "predicate_names": list(PREDICATE_NAMES),
        "dt": cfg.dt,
        "k_max": dictionary.K_max,
        "intervals": [list(iv) for iv in intervals],
        "counts": dict(counts),
        "config": cfg.to_json(),
        "seed": seed,
    }
    for split, count in counts.items():
        if count:
            seeds = [_episode_seed(split, i) for i in range(count)]
            np.save(out / f"{split}.npy", _simulate_split(cfg, seeds), allow_pickle=False)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return out


def load_manifest(dataset_dir: str | Path) -> dict:
    manifest = json.loads((Path(dataset_dir) / "manifest.json").read_text())
    version = manifest.get("version")
    if version != DATASET_VERSION:
        raise ValueError(
            f"unsupported dataset version {version} (expected {DATASET_VERSION}); re-run "
            "`ptmon simulate` with the manifest's config, seed and counts to regenerate it"
        )
    return manifest


def dictionary_from_manifest(manifest: dict) -> AtomicDictionary:
    return build_depth1_dictionary(
        int(manifest["m"]),
        [tuple(iv) for iv in manifest["intervals"]],
        manifest["predicate_names"],
    )


def load_split(dataset_dir: str | Path, split: str) -> list[Episode]:
    """Load one split's episodes in row order from ``<split>.npy``.

    The table is read in one call, without unpickling, and validated once
    (see :func:`generate_dataset` for the layout): it must be a float64
    array of shape ``(counts[split], config["T"] + 1, S + m)`` with nothing
    after it. Row ``i`` becomes the episode with uid
    ``_episode_seed(split, i)``. Raises ``FileNotFoundError`` for a split
    without a table (an unknown split, or one of count 0).
    """
    manifest = load_manifest(dataset_dir)
    path = Path(dataset_dir) / f"{split}.npy"
    if split not in _SPLIT_CODES or not path.is_file():
        raise FileNotFoundError(f"dataset has no {split!r} split at {path}")
    steps = int(manifest["config"]["T"]) + 1
    return _read_split(path, split, int(manifest["counts"].get(split, 0)), steps, manifest["dt"],
                       tuple(manifest["predicate_names"]))


def _read_split(path: Path, split: str, count: int, steps: int, dt: float, names: tuple[str, ...]) -> list[Episode]:
    with open(path, "rb") as fh:
        try:
            table = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the split table")
    m = len(names)
    if table.dtype != np.float64:
        raise ValueError(f"{path}: split table must be float64, got {table.dtype}")
    if table.ndim != 3:
        raise ValueError(f"{path}: split table must be 3-D (episodes, steps, columns), got shape {table.shape}")
    if table.shape[0] != count:
        raise ValueError(f"{path}: {table.shape[0]} episodes, but the manifest counts {count} {split!r} episodes")
    if table.shape[1] != steps:
        raise ValueError(f"{path}: {table.shape[1]} steps per episode, but the manifest's T + 1 is {steps}")
    if table.shape[2] < m:
        raise ValueError(f"{path}: split table has {table.shape[2]} columns, fewer than the {m} margins")
    n_states = table.shape[2] - m
    return [
        Episode(mu=row[:, n_states:].T, dt=dt, states=row[:, :n_states] if n_states else None,
                predicate_names=names, uid=_episode_seed(split, i))
        for i, row in enumerate(table)
    ]
