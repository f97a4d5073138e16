import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmon.benchmark as benchmark
from helpers import naive_simulate_episode, random_episode
from ptmon.benchmark import (
    DEFAULT_INTERVALS,
    PREDICATE_NAMES,
    CrossroadConfig,
    PredictorStub,
    crossroad_predicates,
    dictionary_from_manifest,
    generate_dataset,
    load_manifest,
    load_split,
    _read_episode,
    _wrap_angle,
    _write_episode,
    simulate_episode,
    stub_from_json,
)
from ptmon.robustness import semantic_basis_series
from ptmon.fragment import build_depth1_dictionary


def far() -> list[float]:
    return [100.0, 100.0]


def state_row(x=0.0, y=0.0, heading=0.0, speed=0.0, peds=None):
    peds = peds if peds is not None else [far(), far(), far()]
    row = [x, y, heading, speed]
    for p in peds:
        row += list(p)
    return np.asarray(row)


class TestConfig:
    def test_round_trip(self):
        cfg = CrossroadConfig(T=33, d_safe=1.5)
        back = CrossroadConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            CrossroadConfig.from_json({"no_such_knob": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossroadConfig(T=0)
        with pytest.raises(ValueError):
            CrossroadConfig(dt=-0.1)
        with pytest.raises(ValueError):
            CrossroadConfig(d_safe=0.0)
        with pytest.raises(ValueError):
            CrossroadConfig(activation_radius=0.5)  # must exceed d_safe


class TestPredicates:
    def test_front_cone_margin(self):
        suite = crossroad_predicates()
        # pedestrian 1.5 m dead ahead, safety distance 1.0 -> margin 0.5
        s = state_row(peds=[[1.5, 0.0], far(), far()])
        mu = suite.evaluate_state(s)
        assert mu[PREDICATE_NAMES.index("p_f")] == pytest.approx(0.5)
        assert mu[PREDICATE_NAMES.index("p_clear")] == pytest.approx(0.5)
        assert mu[PREDICATE_NAMES.index("p_front_margin")] == pytest.approx(0.5)

    def test_side_cones_see_lateral_pedestrian(self):
        suite = crossroad_predicates()
        s = state_row(peds=[[0.0, 2.0], far(), far()])  # 2 m to the left
        mu = suite.evaluate_state(s)
        assert mu[PREDICATE_NAMES.index("p_l")] == pytest.approx(1.0)
        # right cone sees nothing: capped clearance minus d_safe
        assert mu[PREDICATE_NAMES.index("p_r")] == pytest.approx(10.0 - 1.0)

    def test_heading_rotates_cones(self):
        suite = crossroad_predicates()
        # facing north, the same pedestrian is now dead ahead
        s = state_row(heading=math.pi / 2, peds=[[0.0, 2.0], far(), far()])
        mu = suite.evaluate_state(s)
        assert mu[PREDICATE_NAMES.index("p_f")] == pytest.approx(1.0)

    def test_goal_margin_at_goal(self):
        cfg = CrossroadConfig()
        suite = crossroad_predicates(cfg)
        s = state_row(x=cfg.robot_goal[0], y=cfg.robot_goal[1])
        mu = suite.evaluate_state(s)
        assert mu[PREDICATE_NAMES.index("p_goal")] == pytest.approx(cfg.goal_radius)

    def test_speed_margin(self):
        suite = crossroad_predicates()
        s = state_row(speed=1.2)
        mu = suite.evaluate_state(s)
        assert mu[PREDICATE_NAMES.index("p_speed")] == pytest.approx(1.5 - 1.2)

    def test_corridor_excludes_lateral_offset(self):
        suite = crossroad_predicates()
        # ahead but 2 m off-axis: outside the 1 m corridor
        s = state_row(peds=[[3.0, 2.0], far(), far()])
        mu = suite.evaluate_state(s)
        assert mu[PREDICATE_NAMES.index("p_front_margin")] == pytest.approx(9.0)

    def test_single_state_matches_batch(self):
        suite = crossroad_predicates()
        rng = np.random.default_rng(0)
        states = rng.normal(size=(5, 10))
        batch = suite.evaluate(states)
        for i in range(5):
            assert np.array_equal(suite.evaluate_state(states[i]), batch[:, i])

    def test_bad_state_shape(self):
        suite = crossroad_predicates()
        with pytest.raises(ValueError):
            suite.evaluate(np.zeros((3, 5)))


class TestSimulate:
    def test_deterministic_per_seed(self):
        cfg = CrossroadConfig(T=25)
        a = simulate_episode(cfg, 3)
        b = simulate_episode(cfg, 3)
        c = simulate_episode(cfg, 4)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.mu, c.mu)

    def test_shapes_and_margins_consistency(self):
        cfg = CrossroadConfig(T=25)
        ep = simulate_episode(cfg, 9)
        assert ep.mu.shape == (7, 26)
        assert ep.states.shape == (26, 10)
        assert ep.uid == 9
        suite = crossroad_predicates(cfg)
        assert np.array_equal(ep.mu, suite.evaluate(ep.states))

    def test_dataset_seed_changes_everything(self):
        a = simulate_episode(CrossroadConfig(T=20, seed=0), 5)
        b = simulate_episode(CrossroadConfig(T=20, seed=1), 5)
        assert not np.array_equal(a.mu, b.mu)

    def test_robot_progresses_toward_goal(self):
        cfg = CrossroadConfig(T=60)
        ep = simulate_episode(cfg, 1)
        gx, gy = cfg.robot_goal
        d0 = math.hypot(ep.states[0, 0] - gx, ep.states[0, 1] - gy)
        d_end = math.hypot(ep.states[-1, 0] - gx, ep.states[-1, 1] - gy)
        # 6 simulated seconds at v_max 1.5 covers at most 9 m; require clear
        # net progress while allowing braking near crossing pedestrians.
        assert d_end < d0 - 4.0
        assert ep.states[:, 3].max() <= cfg.v_max + 1e-9


# (config, episodes): 2,040 episodes between them, covering one-step
# episodes, an empty crossing, braking from far away, a saturated turn rate
# and noise large enough to scatter the robot and pedestrians.
ORACLE_CASES = [
    pytest.param(CrossroadConfig(T=40), 400, id="default"),
    pytest.param(CrossroadConfig(T=1), 400, id="one-step"),
    pytest.param(
        CrossroadConfig(T=30, pedestrian_starts=(), pedestrian_headings_deg=(), pedestrian_speeds=()),
        300,
        id="no-pedestrians",
    ),
    pytest.param(CrossroadConfig(T=30, activation_radius=8.0), 300, id="early-braking"),
    pytest.param(CrossroadConfig(T=30, turn_rate_max=0.05), 320, id="saturated-turn"),
    pytest.param(
        CrossroadConfig(T=30, process_noise=1.0, start_jitter=4.0, speed_jitter=0.9, seed=7),
        320,
        id="high-noise",
    ),
]


class TestSimulatorOracle:
    """The Python-float step loop against the numpy-scalar loop it replaced."""

    @pytest.mark.parametrize("cfg, count", ORACLE_CASES)
    def test_bit_identical_to_numpy_scalar_loop(self, cfg, count):
        for seed in range(count):
            got = simulate_episode(cfg, seed)
            want = naive_simulate_episode(cfg, seed)
            assert got.mu.tobytes() == want.mu.tobytes(), seed
            assert got.states.shape == want.states.shape
            assert got.states.tobytes() == want.states.tobytes(), seed
            assert got.uid == want.uid == seed

    @pytest.mark.parametrize("seed, scale", enumerate([1e-300, 1e-3, 1.0, 10.0, 1e5, 1e150]))
    def test_abs_complex_is_np_hypot(self, seed, scale):
        # The loop's nearest-pedestrian distance relies on CPython's complex
        # abs calling the C library's hypot, as np.hypot does.
        rng = np.random.default_rng([400, seed])
        a, b = rng.normal(0.0, scale, size=(2, 100_000))
        a[:100] = 0.0
        b[100:200] = -0.0
        got = np.array([abs(complex(u, v)) for u, v in zip(a.tolist(), b.tolist())])
        assert got.tobytes() == np.hypot(a, b).tobytes()

    @pytest.mark.parametrize("seed, scale", enumerate([1e-12, 1.0, math.pi, 100.0, 1e8]))
    def test_float_mod_matches_numpy_wrap(self, seed, scale):
        rng = np.random.default_rng([500, seed])
        angles = rng.normal(0.0, scale, size=20_000)
        edges = [k * math.pi for k in range(-5, 6)] + [-0.0, 0.0, math.nextafter(math.pi, 0.0)]
        angles = np.concatenate([edges, angles])
        tau = 2.0 * math.pi
        got = np.array([(a + math.pi) % tau - math.pi for a in angles.tolist()])
        assert got.tobytes() == _wrap_angle(angles).tobytes()
        # the replaced loop wrapped one 0-d array at a time
        scalar = np.array([_wrap_angle(np.asarray(a)).item() for a in angles[:2_000].tolist()])
        assert got[:2_000].tobytes() == scalar.tobytes()


class TestPredictorStub:
    def test_zero_scale_bias_shifts_exactly(self):
        cfg = CrossroadConfig(T=15)
        ep = simulate_episode(cfg, 2)
        stub = PredictorStub(mode="predicates", scale=0.0, bias=0.25, seed=0)
        assert np.allclose(stub.predict(ep), ep.mu + 0.25)

    def test_deterministic_per_episode_uid(self):
        cfg = CrossroadConfig(T=15)
        ep1 = simulate_episode(cfg, 2)
        ep2 = simulate_episode(cfg, 3)
        stub = PredictorStub(mode="predicates", scale=0.2, seed=0)
        assert np.array_equal(stub.predict(ep1), stub.predict(ep1))
        assert not np.array_equal(stub.predict(ep1)[:, : ep2.mu.shape[1]], stub.predict(ep2))

    def test_semantic_mode_targets_basis(self):
        cfg = CrossroadConfig(T=25)
        ep = simulate_episode(cfg, 2)
        d = build_depth1_dictionary(7, DEFAULT_INTERVALS, PREDICATE_NAMES)
        stub = PredictorStub(mode="semantic", scale=0.0, bias=0.1, seed=0, dictionary=d)
        want = semantic_basis_series(ep, d) + 0.1
        assert np.allclose(stub.predict(ep), want)

    def test_semantic_mode_requires_dictionary(self):
        with pytest.raises(ValueError):
            PredictorStub(mode="semantic", scale=0.1, seed=0)

    def test_ar_coefficient_bounds(self):
        with pytest.raises(ValueError):
            PredictorStub(mode="predicates", scale=0.1, ar_coeff=1.0, seed=0)

    def test_ar_noise_is_correlated(self):
        cfg = CrossroadConfig(T=200)
        ep = simulate_episode(cfg, 2)
        smooth = PredictorStub(mode="predicates", scale=1.0, ar_coeff=0.95, seed=5)
        rough = PredictorStub(mode="predicates", scale=1.0, ar_coeff=0.0, seed=5)
        for stub, lo, hi in ((smooth, 0.5, 1.01), (rough, -0.2, 0.2)):
            z = stub.predict(ep) - ep.mu
            r = np.corrcoef(z[0, :-1], z[0, 1:])[0, 1]
            assert lo <= r <= hi

    def test_json_round_trip(self):
        d = build_depth1_dictionary(7, DEFAULT_INTERVALS, PREDICATE_NAMES)
        stub = PredictorStub(mode="semantic", scale=0.3, bias=-0.1, ar_coeff=0.5, seed=9, dictionary=d)
        back = stub_from_json(json.loads(json.dumps(stub.to_json())), dictionary=d)
        assert back.mode == stub.mode
        assert back.scale == stub.scale
        assert back.bias == stub.bias
        assert back.ar_coeff == stub.ar_coeff
        assert back.seed == stub.seed

    def test_per_coordinate_scale(self):
        cfg = CrossroadConfig(T=15)
        ep = simulate_episode(cfg, 2)
        scale = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        stub = PredictorStub(mode="predicates", scale=scale, seed=0)
        z = stub.predict(ep) - ep.mu
        assert np.allclose(z[:6], 0.0)
        assert np.abs(z[6]).max() > 0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"train": 2, "calib": 3, "test": 2}, seed=11, out_dir=tmp_path / "ds")
        manifest = load_manifest(out)
        assert manifest["m"] == 7
        assert manifest["k_max"] == 16
        assert manifest["counts"] == {"train": 2, "calib": 3, "test": 2}
        d = dictionary_from_manifest(manifest)
        assert d.r == 70

        calib = load_split(out, "calib")
        assert len(calib) == 3
        # regenerating from the recorded config must reproduce the files exactly
        cfg_back = CrossroadConfig.from_json(manifest["config"])
        regen = simulate_episode(cfg_back, calib[0].uid)
        assert np.array_equal(calib[0].mu, regen.mu)
        assert np.array_equal(calib[0].states, regen.states)

    def test_split_uids_disjoint(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"train": 2, "calib": 2, "test": 2}, seed=1, out_dir=tmp_path / "ds")
        uids = set()
        for split in ("train", "calib", "test"):
            for ep in load_split(out, split):
                assert ep.uid not in uids
                uids.add(ep.uid)

    def test_uids_come_from_file_names(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"calib": 4}, seed=3, out_dir=tmp_path / "ds")
        before = load_split(out, "calib")
        (out / "calib" / "ep_00001.npy").unlink()
        after = load_split(out, "calib")
        assert [ep.uid for ep in after] == [before[i].uid for i in (0, 2, 3)]
        # a later episode still regenerates from its uid
        cfg_back = CrossroadConfig.from_json(load_manifest(out)["config"])
        regen = simulate_episode(cfg_back, after[-1].uid)
        assert np.array_equal(after[-1].mu, regen.mu)

    def test_unexpected_episode_file_name_rejected(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"calib": 2}, seed=3, out_dir=tmp_path / "ds")
        (out / "calib" / "ep_00001.npy").rename(out / "calib" / "ep_1b.npy")
        with pytest.raises(ValueError, match="ep_NNNNN"):
            load_split(out, "calib")

    def test_missing_split(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"train": 1, "calib": 1, "test": 1}, seed=1, out_dir=tmp_path / "ds")
        with pytest.raises(FileNotFoundError):
            load_split(out, "validation")

    def test_unknown_split_name_rejected(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        with pytest.raises(ValueError):
            generate_dataset(cfg, {"dev": 1}, seed=1, out_dir=tmp_path / "ds")

    def test_manifest_version_guard(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"train": 1, "calib": 1, "test": 1}, seed=1, out_dir=tmp_path / "ds")
        blob = json.loads((out / "manifest.json").read_text())
        blob["version"] = 999
        (out / "manifest.json").write_text(json.dumps(blob))
        with pytest.raises(ValueError):
            load_manifest(out)

    def test_writer_bytes_match_the_per_line_writer(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"train": 2, "calib": 3, "test": 2}, seed=4, out_dir=tmp_path / "ds")
        cfg_back = CrossroadConfig.from_json(load_manifest(out)["config"])
        for split in ("train", "calib", "test"):
            for i, ep in enumerate(load_split(out, split)):
                regen = simulate_episode(cfg_back, ep.uid)
                want = np.hstack([regen.states, regen.mu.T])
                table = np.load(out / split / f"ep_{i:05d}.npy", allow_pickle=False)
                assert table.dtype == np.float64 and table.flags.c_contiguous
                assert table.shape == want.shape
                assert table.tobytes() == want.tobytes()

    def test_writer_without_states_matches_the_per_line_writer(self, tmp_path):
        ep = random_episode(np.random.default_rng(6), len(PREDICATE_NAMES), 9)
        assert ep.states is None
        _write_episode(ep, tmp_path / "a.npy")
        assert np.load(tmp_path / "a.npy").shape == (10, len(PREDICATE_NAMES))
        back = _read_episode(tmp_path / "a.npy", ep.dt, ep.predicate_names, ep.uid)
        assert back.states is None
        assert back.mu.tobytes() == ep.mu.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(0, 30),
        st.integers(0, 4),
    )
    def test_write_read_round_trip_is_exact(self, tmp_path_factory, seed, m, T, n_states):
        rng = np.random.default_rng(seed)
        ep = random_episode(rng, m, T)
        mu = ep.mu.copy()
        mu[rng.random(mu.shape) < 0.2] = -0.0
        states = rng.normal(size=(T + 1, n_states)) if n_states else None
        if states is not None:
            states[rng.random(states.shape) < 0.2] = -0.0
        ep = dataclasses.replace(ep, mu=mu, states=states)
        path = tmp_path_factory.mktemp("rt") / "ep_00000.npy"
        _write_episode(ep, path)
        back = _read_episode(path, ep.dt, ep.predicate_names, ep.uid)
        assert back.uid == ep.uid and back.predicate_names == ep.predicate_names
        assert back.mu.shape == ep.mu.shape
        assert back.mu.tobytes() == ep.mu.tobytes()
        if states is None:
            assert back.states is None
        else:
            assert back.states.tobytes() == ep.states.tobytes()

    def test_version_1_manifest_names_the_fix(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"calib": 1}, seed=1, out_dir=tmp_path / "ds")
        blob = json.loads((out / "manifest.json").read_text())
        blob["version"] = 1
        (out / "manifest.json").write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="ptmon simulate"):
            load_manifest(out)

    def test_used_directory_is_refused_before_simulating(self, tmp_path, monkeypatch):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"train": 1, "calib": 6, "test": 1}, seed=0, out_dir=tmp_path / "ds")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def no_simulation(*args):
            raise AssertionError("simulated into a used directory")

        monkeypatch.setattr(benchmark, "simulate_episode", no_simulation)
        with pytest.raises(ValueError, match="already holds episode files"):
            generate_dataset(cfg, {"train": 1, "calib": 3, "test": 1}, seed=5, out_dir=out)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_episode_past_the_manifest_count_rejected(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"calib": 3}, seed=3, out_dir=tmp_path / "ds")
        (out / "calib" / "ep_00002.npy").rename(out / "calib" / "ep_00003.npy")
        with pytest.raises(ValueError, match="ep_00003.npy"):
            load_split(out, "calib")

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((5, 9), dtype=np.float32),
            np.zeros((5, 9), dtype=np.int64),
            np.zeros(9),
            np.zeros((5, 9, 1)),
            np.zeros((5, 6)),
            np.zeros((0, 9)),
        ],
        ids=["float32", "int64", "1-D", "3-D", "too-few-columns", "no-rows"],
    )
    def test_malformed_episode_file_rejected(self, tmp_path, table):
        out = generate_dataset(CrossroadConfig(T=4), {"calib": 2}, seed=3, out_dir=tmp_path / "ds")
        np.save(out / "calib" / "ep_00001.npy", table)
        with pytest.raises(ValueError, match="ep_00001.npy"):
            load_split(out, "calib")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda b: b'{"t": 0, "state": [], "mu": [1.0]}\n',
            lambda b: b[:20],
            lambda b: b[:-16],
            lambda b: b + bytes(8),
        ],
        ids=["jsonl-line", "cut-header", "cut-data", "trailing-bytes"],
    )
    def test_unreadable_episode_file_rejected(self, tmp_path, damage):
        out = generate_dataset(CrossroadConfig(T=4), {"calib": 2}, seed=3, out_dir=tmp_path / "ds")
        path = out / "calib" / "ep_00001.npy"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="ep_00001.npy"):
            load_split(out, "calib")

    def test_object_array_rejected_without_unpickling(self, tmp_path):
        out = generate_dataset(CrossroadConfig(T=4), {"calib": 2}, seed=3, out_dir=tmp_path / "ds")
        path = out / "calib" / "ep_00001.npy"
        np.save(path, np.array([_Tripwire()], dtype=object), allow_pickle=True)
        with pytest.raises(RuntimeError, match="unpickled"):
            np.load(path, allow_pickle=True)  # unpickling the file runs code
        with pytest.raises(ValueError, match="ep_00001.npy"):
            load_split(out, "calib")


def _trip() -> None:
    raise RuntimeError("episode file was unpickled")


class _Tripwire:
    """Pickles to a call of :func:`_trip`, so unpickling it raises."""

    def __reduce__(self):
        return (_trip, ())
