"""Synthetic crossroad scenario: simulator, predicate suite, noisy predictor
stubs, and dataset generation.

A differential-drive style robot crosses an arena toward a goal while a few
pedestrians walk straight crossing paths. Episodes are i.i.d. given a config:
all per-episode randomness (start jitter, speed jitter, process noise) comes
from one generator seeded by ``(config seed, episode seed)``, so the same
pair reproduces an episode bit for bit.

The predicate suite is fixed at seven margins (all "safe when positive"):

* ``p_clear``         distance to the nearest pedestrian minus ``d_safe``
* ``p_f/p_l/p_r``     nearest pedestrian inside the front/left/right cone
                      (half-angle ``sector_half_angle_deg``) minus ``d_safe``;
                      an empty cone reads as the cap ``sector_max``
* ``p_front_margin``  longitudinal gap to pedestrians inside the corridor of
                      half-width ``corridor_half_width`` ahead, minus ``d_safe``
* ``p_goal``          ``goal_radius`` minus the distance to the goal
* ``p_speed``         ``v_max`` minus the current speed

Distances feeding the clearance predicates are capped at ``sector_max`` so
empty sectors stay finite. The recorded margin matrix always equals the suite
evaluated on the recorded states, row for row.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .fragment import AtomicDictionary, build_depth1_dictionary
from .robustness import Episode, semantic_basis_series

PREDICATE_NAMES = ("p_clear", "p_f", "p_l", "p_r", "p_front_margin", "p_goal", "p_speed")
DEFAULT_INTERVALS = ((0, 1), (0, 2), (0, 4), (0, 8), (0, 16))
DATASET_VERSION = 2

_SPLIT_CODES = {"train": 0, "calib": 1, "test": 2}
_EPISODE_FILE = re.compile(r"ep_(\d{5,})\.npy")


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


class PredicateSuite:
    """The seven crossroad margins as functions of the raw state vector.

    The state layout is ``(x, y, heading, speed, px1, py1, px2, py2, ...)``.
    ``evaluate`` maps an ``(n, 4 + 2*peds)`` state array to an ``(m, n)``
    margin matrix; ``evaluate_state`` is the single-state view of the same
    computation.
    """

    def __init__(self, cfg: CrossroadConfig):
        self.cfg = cfg
        self.names = PREDICATE_NAMES

    @property
    def m(self) -> int:
        return len(self.names)

    def evaluate_state(self, state: Sequence[float] | np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(state, dtype=float)[None, :])[:, 0]

    def evaluate(self, states: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] < 4 or (states.shape[1] - 4) % 2 != 0:
            raise ValueError(f"state array must be (n, 4 + 2*peds), got {states.shape}")
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

        bearing = np.arctan2(rel[:, :, 1], rel[:, :, 0])

        def cone_clearance(center: np.ndarray) -> np.ndarray:
            if n_ped == 0:
                return np.full(n, cap)
            diff = np.abs(_wrap_angle(bearing - center[:, None]))
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


def _wrap_angle(angle: np.ndarray) -> np.ndarray:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def crossroad_predicates(cfg: CrossroadConfig | None = None) -> PredicateSuite:
    """The scenario's predicate suite (defaults when no config is given)."""
    return PredicateSuite(cfg if cfg is not None else CrossroadConfig())


def simulate_episode(cfg: CrossroadConfig, seed: int) -> Episode:
    """Roll out one episode; ``(cfg, seed)`` fully determines the result.

    The robot steers proportionally toward the goal, slows inside
    ``activation_radius`` of the nearest pedestrian, and stops at the goal.
    Pedestrians follow straight paths with jittered starts and speeds plus a
    small random walk. Returned margins are exactly the suite applied to the
    recorded states; ``uid`` is set to ``seed`` for reproducible noise keys.

    Episodes are bit-reproducible from ``(cfg, seed)``. The step loop runs on
    Python floats: angles wrap with the float ``%`` (the same ``fmod`` rule
    numpy's ``%`` follows), and the nearest-pedestrian distance takes the C
    library's ``hypot`` through ``abs(complex(dx, dy))``, the function
    ``np.hypot`` calls (``math.hypot`` rounds differently on some inputs).
    """
    rng = np.random.default_rng([cfg.seed, seed])
    suite = crossroad_predicates(cfg)
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

    robot_noise = rng.normal(0.0, cfg.process_noise * math.sqrt(dt), size=(steps - 1, 2)).tolist()
    peds = ped_paths.tolist()
    max_turn = cfg.turn_rate_max * dt
    tau = 2.0 * math.pi
    v_max, gain, radius, d_safe = cfg.v_max, cfg.accel_gain, cfg.activation_radius, cfg.d_safe

    gx, gy = cfg.robot_goal
    x, y = cfg.robot_start
    heading = math.atan2(gy - y, gx - x)
    speed = 0.0

    robot = [(x, y, heading, speed)]
    for t in range(steps - 1):
        dist_goal = math.hypot(gx - x, gy - y)
        target = math.atan2(gy - y, gx - x)
        turn = (target - heading + math.pi) % tau - math.pi
        turn = max(-max_turn, min(max_turn, turn))
        heading = (heading + turn + math.pi) % tau - math.pi
        v_cmd = min(v_max, gain * dist_goal)
        if n_ped:
            d_near = min([abs(complex(px - x, py - y)) for px, py in peds[t]])
            if d_near < radius:
                brake = (d_near - d_safe) / (radius - d_safe)
                v_cmd *= min(1.0, max(0.0, brake))
        speed = v_cmd
        noise_x, noise_y = robot_noise[t]
        x += speed * math.cos(heading) * dt + noise_x
        y += speed * math.sin(heading) * dt + noise_y
        robot.append((x, y, heading, speed))

    states = np.hstack([np.array(robot, dtype=float), ped_paths.reshape(steps, -1)])
    mu = suite.evaluate(states)
    return Episode(mu=mu, dt=dt, states=states, predicate_names=suite.names, uid=seed)


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
    gives i.i.d. noise. The draw is keyed by ``(seed, episode uid)``: calling
    ``predict`` twice on the same episode returns identical output.
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
        if not (0.0 <= self.ar_coeff < 1.0):
            raise ValueError(f"ar_coeff must lie in [0, 1), got {self.ar_coeff}")
        if np.any(np.asarray(self.scale) < 0):
            raise ValueError("scale must be nonnegative")

    def predict(self, ep: Episode) -> np.ndarray:
        if self.mode == "semantic":
            truth = semantic_basis_series(ep, self.dictionary)
        else:
            truth = ep.mu
        noise = self._noise(truth.shape, ep.uid)
        return truth + noise

    def _noise(self, shape: tuple[int, int], uid: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, uid])
        eps = rng.standard_normal(shape)
        if self.ar_coeff > 0.0:
            z = np.empty_like(eps)
            z[:, 0] = eps[:, 0]
            w = math.sqrt(1.0 - self.ar_coeff**2)
            for t in range(1, shape[1]):
                z[:, t] = self.ar_coeff * z[:, t - 1] + w * eps[:, t]
        else:
            z = eps
        scale = np.asarray(self.scale, dtype=float)
        bias = np.asarray(self.bias, dtype=float)
        if scale.ndim == 1:
            scale = scale[:, None]
        if bias.ndim == 1:
            bias = bias[:, None]
        return bias + scale * z

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "scale": np.asarray(self.scale).tolist(),
            "bias": np.asarray(self.bias).tolist(),
            "ar_coeff": self.ar_coeff,
            "seed": self.seed,
        }


def stub_from_json(obj: dict, dictionary: AtomicDictionary | None = None) -> PredictorStub:
    scale = obj.get("scale", 0.1)
    bias = obj.get("bias", 0.0)
    return PredictorStub(
        mode=obj["mode"],
        scale=np.asarray(scale, dtype=float) if isinstance(scale, list) else float(scale),
        bias=np.asarray(bias, dtype=float) if isinstance(bias, list) else float(bias),
        ar_coeff=float(obj.get("ar_coeff", 0.0)),
        seed=int(obj.get("seed", 0)),
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

    Layout: ``manifest.json`` plus one ``<split>/ep_NNNNN.npy`` per episode,
    a C-order float64 table of shape ``(T+1, S+m)`` (NumPy's ``.npy``
    format) whose row ``t`` is the state at step ``t`` followed by the ``m``
    margins; ``S = 0`` for an episode without states. Episode seeds are
    disjoint across splits (the split code occupies bits above any index), so
    splits never share randomness. The dataset seed replaces ``cfg.seed``.

    Raises ``ValueError``, before simulating anything, if a split directory
    it would write already holds ``ep_*`` files: episodes of two datasets
    must never share a directory.
    """
    cfg = dataclasses.replace(cfg, seed=seed)
    out = Path(out_dir)
    for split in counts:
        if split not in _SPLIT_CODES:
            raise ValueError(f"unknown split {split!r} (expected train/calib/test)")
        if any((out / split).glob("ep_*")):
            raise ValueError(f"{out / split} already holds episode files; simulate into a new directory")
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
        split_dir = out / split
        split_dir.mkdir(exist_ok=True)
        for i in range(count):
            ep = simulate_episode(cfg, _episode_seed(split, i))
            _write_episode(ep, split_dir / f"ep_{i:05d}.npy")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return out


def _write_episode(ep: Episode, path: Path) -> None:
    table = ep.mu.T if ep.states is None else np.hstack([ep.states, ep.mu.T])
    np.save(path, np.ascontiguousarray(table), allow_pickle=False)


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
    """Load one split's episodes in index order.

    Each uid is rebuilt from the ``NNNNN`` of its ``ep_NNNNN.npy`` file name,
    so a missing file leaves the other episodes' uids (and predictor noise)
    unchanged. Any other ``ep_*`` name, and any index at or past the
    manifest's count for the split, is rejected. Episode files are read
    without unpickling and validated (see :func:`generate_dataset` for the
    table layout).
    """
    manifest = load_manifest(dataset_dir)
    split_dir = Path(dataset_dir) / split
    if not split_dir.is_dir():
        raise FileNotFoundError(f"dataset has no {split!r} split at {split_dir}")
    count = int(manifest["counts"].get(split, 0))
    names = tuple(manifest["predicate_names"])
    indexed = []
    for path in split_dir.glob("ep_*"):
        match = _EPISODE_FILE.fullmatch(path.name)
        if match is None:
            raise ValueError(f"{path}: episode files must be named ep_NNNNN.npy")
        index = int(match.group(1))
        if index >= count:
            raise ValueError(f"{path}: index {index} is past the manifest's {count} {split!r} episodes")
        indexed.append((index, path))
    if not indexed:
        raise FileNotFoundError(f"no episodes found under {split_dir}")
    return [
        _read_episode(path, manifest["dt"], names, _episode_seed(split, i))
        for i, path in sorted(indexed)
    ]


def _read_episode(path: Path, dt: float, names: tuple[str, ...], uid: int) -> Episode:
    with open(path, "rb") as fh:
        try:
            table = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the episode table")
    m = len(names)
    if table.dtype != np.float64:
        raise ValueError(f"{path}: episode table must be float64, got {table.dtype}")
    if table.ndim != 2:
        raise ValueError(f"{path}: episode table must be 2-D, got shape {table.shape}")
    if table.shape[1] < m:
        raise ValueError(f"{path}: episode table has {table.shape[1]} columns, fewer than the {m} margins")
    if table.shape[0] == 0:
        raise ValueError(f"{path}: episode table has no rows")
    n_states = table.shape[1] - m
    states = table[:, :n_states] if n_states else None
    return Episode(mu=table[:, n_states:].T, dt=dt, states=states, predicate_names=names, uid=uid)
