import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmon.benchmark as benchmark
from helpers import (
    mixed_dictionary,
    naive_crossroad_margins,
    naive_simulate_episode,
    naive_stub_prediction,
    random_episode,
    tie_heavy,
    write_split,
)
from ptmon.benchmark import (
    DEFAULT_INTERVALS,
    PREDICATE_NAMES,
    CrossroadConfig,
    PredictorStub,
    crossroad_margins,
    dictionary_from_manifest,
    generate_dataset,
    load_manifest,
    load_split,
    _episode_seed,
    _read_split,
    _wrap_angle,
    simulate_episode,
    stub_from_json,
)
from ptmon.robustness import Episode, TimeOutOfRangeError, semantic_basis_series
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


ONE_PEDESTRIAN = dict(pedestrian_starts=((-2.0, -7.0),), pedestrian_headings_deg=(90.0,), pedestrian_speeds=(1.2,))
NO_PEDESTRIANS = dict(pedestrian_starts=(), pedestrian_headings_deg=(), pedestrian_speeds=())

# Configs whose episodes are simulated or read together, in one call: each
# episode must come out as it does alone.
STACKED_CASES = [
    pytest.param(CrossroadConfig(T=60), id="default"),
    pytest.param(CrossroadConfig(T=7, **ONE_PEDESTRIAN), id="one-pedestrian"),
    pytest.param(CrossroadConfig(T=7, **NO_PEDESTRIANS), id="no-pedestrians"),
    pytest.param(CrossroadConfig(T=1), id="one-step"),
    pytest.param(CrossroadConfig(T=7, sector_half_angle_deg=180.0, process_noise=1.0), id="180-degree-cones"),
]


def margins_of(state, cfg=None):
    """The margins of one state: a one-row call of ``crossroad_margins``."""
    return crossroad_margins(cfg or CrossroadConfig(), np.asarray(state)[None, :])[:, 0]


class TestPredicates:
    def test_front_cone_margin(self):
        # pedestrian 1.5 m dead ahead, safety distance 1.0 -> margin 0.5
        mu = margins_of(state_row(peds=[[1.5, 0.0], far(), far()]))
        assert mu[PREDICATE_NAMES.index("p_f")] == pytest.approx(0.5)
        assert mu[PREDICATE_NAMES.index("p_clear")] == pytest.approx(0.5)
        assert mu[PREDICATE_NAMES.index("p_front_margin")] == pytest.approx(0.5)

    def test_side_cones_see_lateral_pedestrian(self):
        mu = margins_of(state_row(peds=[[0.0, 2.0], far(), far()]))  # 2 m to the left
        assert mu[PREDICATE_NAMES.index("p_l")] == pytest.approx(1.0)
        # right cone sees nothing: capped clearance minus d_safe
        assert mu[PREDICATE_NAMES.index("p_r")] == pytest.approx(10.0 - 1.0)

    def test_heading_rotates_cones(self):
        # facing north, the same pedestrian is now dead ahead
        mu = margins_of(state_row(heading=math.pi / 2, peds=[[0.0, 2.0], far(), far()]))
        assert mu[PREDICATE_NAMES.index("p_f")] == pytest.approx(1.0)

    def test_goal_margin_at_goal(self):
        cfg = CrossroadConfig()
        mu = margins_of(state_row(x=cfg.robot_goal[0], y=cfg.robot_goal[1]), cfg)
        assert mu[PREDICATE_NAMES.index("p_goal")] == pytest.approx(cfg.goal_radius)

    def test_speed_margin(self):
        mu = margins_of(state_row(speed=1.2))
        assert mu[PREDICATE_NAMES.index("p_speed")] == pytest.approx(1.5 - 1.2)

    def test_corridor_excludes_lateral_offset(self):
        # ahead but 2 m off-axis: outside the 1 m corridor
        mu = margins_of(state_row(peds=[[3.0, 2.0], far(), far()]))
        assert mu[PREDICATE_NAMES.index("p_front_margin")] == pytest.approx(9.0)

    def test_single_state_matches_batch(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(5, 10))
        batch = crossroad_margins(CrossroadConfig(), states)
        for i in range(5):
            assert np.array_equal(margins_of(states[i]), batch[:, i])

    @pytest.mark.parametrize("cfg", STACKED_CASES)
    def test_stacked_episodes_read_as_each_episode_alone(self, cfg):
        # Pins the platform assumption the one-pass simulator rests on: an
        # elementwise numpy result for a row does not depend on the array
        # the row sits in (its length, its neighbours, its strides).
        episodes = [simulate_episode(cfg, seed) for seed in range(60)]
        own = np.hstack([crossroad_margins(cfg, ep.states) for ep in episodes])
        stacked = np.concatenate([ep.states for ep in episodes])
        # The same rows as strided views, as in a split table.
        in_table = np.hstack([stacked, np.zeros((stacked.shape[0], len(PREDICATE_NAMES)))])[:, : stacked.shape[1]]
        for states in (stacked, in_table):
            got = crossroad_margins(cfg, states)
            assert got.shape == own.shape == (len(PREDICATE_NAMES), 60 * (cfg.T + 1))
            assert got.tobytes() == own.tobytes()

    def test_bad_state_shape(self):
        for shape in ((3, 5), (3, 3), (10,)):
            with pytest.raises(ValueError, match="state array must be"):
                crossroad_margins(CrossroadConfig(), np.zeros(shape))

    def test_no_pedestrians_reads_the_caps(self):
        cfg = CrossroadConfig()
        mu = margins_of(state_row(peds=[]), cfg)
        for name in ("p_clear", "p_f", "p_l", "p_r", "p_front_margin"):
            assert mu[PREDICATE_NAMES.index(name)] == cfg.sector_max - cfg.d_safe
        assert crossroad_margins(cfg, np.zeros((0, 4))).shape == (7, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_matches_the_naive_margins(self, n_ped, n, seed):
        """Bit for bit, on random states with 0-4 pedestrians, some near the
        robot (inside the cones, the corridor and the cap) and some far."""
        rng = np.random.default_rng(seed)
        cfg = CrossroadConfig(sector_half_angle_deg=float(rng.choice([45.0, rng.uniform(10.0, 180.0)])))
        states = np.hstack([rng.normal(0.0, 5.0, size=(n, 2)), rng.uniform(-7.0, 7.0, size=(n, 1)),
                            rng.uniform(0.0, 2.0, size=(n, 1)), rng.normal(0.0, 6.0, size=(n, 2 * n_ped))])
        if rng.random() < 0.5:  # on a grid around the robot: pedestrians on cone and corridor edges
            states = np.round(states)
            states[:, 2] = rng.integers(-2, 3, size=n) * (math.pi / 4)
            states[:, 4:] = np.tile(states[:, 0:2], n_ped) + rng.integers(-3, 4, size=(n, 2 * n_ped))
        if n and n_ped:  # a pedestrian exactly on the robot: zero distance and bearing
            states[0, 4:6] = states[0, 0:2]
        got = crossroad_margins(cfg, states)
        want = naive_crossroad_margins(cfg, states)
        assert got.shape == want.shape == (7, n)
        assert got.tobytes() == want.tobytes()


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
        assert np.array_equal(ep.mu, crossroad_margins(cfg, ep.states))

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


# (config, episodes): 2,240 episodes between them, covering one-step
# episodes, an empty crossing, a single pedestrian, braking from far away, a saturated turn rate
# and noise large enough to scatter the robot and pedestrians.
ORACLE_CASES = [
    pytest.param(CrossroadConfig(T=40), 400, id="default"),
    pytest.param(CrossroadConfig(T=1), 400, id="one-step"),
    pytest.param(
        CrossroadConfig(T=30, pedestrian_starts=(), pedestrian_headings_deg=(), pedestrian_speeds=()),
        300,
        id="no-pedestrians",
    ),
    pytest.param(
        CrossroadConfig(T=30, pedestrian_starts=((-2.0, -7.0),), pedestrian_headings_deg=(90.0,),
                        pedestrian_speeds=(1.2,)),
        200,
        id="one-pedestrian",
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

    @pytest.mark.parametrize("bad", [-1, 2**64, 2.5, 3.0, True, "3", None])
    def test_seed_checked_at_construction(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer in 0 .. 2\\*\\*64 - 1"):
            PredictorStub(mode="predicates", seed=bad)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(7)])
    def test_seed_kept_as_an_int(self, seed):
        stub = PredictorStub(mode="predicates", seed=seed)
        assert type(stub.seed) is int and stub.seed == int(seed)
        assert json.loads(json.dumps(stub.to_json()))["seed"] == int(seed)

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


class TestPredictBlock:
    """``predict_block(eps)[i]`` is ``predict(eps[i])`` bit for bit, and both
    are the one-episode-at-a-time oracle's prediction."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["semantic", "predicates"]), st.booleans(), st.booleans())
    def test_block_equals_each_episode_alone(self, seed, mode, ar, per_row):
        rng = np.random.default_rng(seed)
        m = 3
        d = mixed_dictionary(rng, m)
        rows = d.r if mode == "semantic" else m
        if per_row:  # zero scales among them keep the truth's bits
            scale = np.where(rng.random(rows) < 0.3, 0.0, rng.uniform(0.0, 0.5, rows))
            bias = rng.choice([0.0, -0.0, 0.25], rows)
        else:
            scale, bias = float(rng.choice([0.0, 0.3])), float(rng.choice([0.0, -0.1]))
        stub = PredictorStub(mode=mode, scale=scale, bias=bias, ar_coeff=0.7 if ar else 0.0,
                             seed=seed % 101, dictionary=d)
        # Mixed lengths, one with a single valid time, and ties and signed
        # zeros in the margins.
        lengths = [d.K_max, *rng.integers(d.K_max, d.K_max + 40, size=int(rng.integers(1, 8)))]
        eps = [Episode(mu=tie_heavy(rng, (m, int(n) + 1)), uid=int(rng.integers(1 << 40)))
               for n in rng.permutation(lengths)]
        got = stub.predict_block(eps)
        assert len(got) == len(eps)
        for ep, p in zip(eps, got):
            assert p.dtype == float
            assert p.tobytes() == stub.predict(ep).tobytes()
            assert p.tobytes() == naive_stub_prediction(stub, ep).tobytes()

    def test_empty_block(self):
        d = build_depth1_dictionary(7, DEFAULT_INTERVALS, PREDICATE_NAMES)
        assert PredictorStub(mode="semantic", dictionary=d).predict_block([]) == []
        assert PredictorStub(mode="predicates").predict_block([]) == []

    def test_semantic_episode_too_short(self):
        d = build_depth1_dictionary(7, DEFAULT_INTERVALS, PREDICATE_NAMES)
        stub = PredictorStub(mode="semantic", dictionary=d)
        eps = [simulate_episode(CrossroadConfig(T=T), 2) for T in (20, 15)]
        with pytest.raises(TimeOutOfRangeError, match="T=15 < K_max=16"):
            stub.predict_block(eps)


class TestNoiseCoefficientsChecked:
    """``scale`` and ``bias`` are checked once, when the stub is built; a
    predicates stub's vectors against each episode's predicates."""

    @pytest.mark.parametrize("name", ["scale", "bias"])
    @pytest.mark.parametrize("bad", ["abc", None, True, [[0.1]], [0.1, "x"], [[0.1, 0.2], [0.3]]])
    def test_not_a_number_or_vector(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be a number or a vector of numbers"):
            PredictorStub(mode="predicates", **{name: bad})

    @pytest.mark.parametrize("name", ["scale", "bias"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, [0.1, math.nan]])
    def test_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PredictorStub(mode="predicates", **{name: bad})

    def test_negative_scale(self):
        with pytest.raises(ValueError, match="scale must be nonnegative"):
            PredictorStub(mode="predicates", scale=[0.1, -0.1])

    @pytest.mark.parametrize("name", ["scale", "bias"])
    def test_semantic_vector_of_another_length(self, name):
        d = build_depth1_dictionary(7, DEFAULT_INTERVALS, PREDICATE_NAMES)
        with pytest.raises(ValueError, match=f"{name} has 7 entries, but the dictionary has {d.r} atoms"):
            PredictorStub(mode="semantic", dictionary=d, **{name: [0.1] * 7})

    @pytest.mark.parametrize("name", ["scale", "bias"])
    def test_predicates_vector_of_another_length(self, name):
        stub = PredictorStub(mode="predicates", **{name: [0.1, 0.2]})
        ep = simulate_episode(CrossroadConfig(T=10), 5)
        with pytest.raises(ValueError, match=f"{name} has 2 entries, but episode 5 has 7 predicates"):
            stub.predict(ep)

    @pytest.mark.parametrize("scale, bias, text", [
        (0.1, -0.05, '"scale": 0.1, "bias": -0.05'),
        (1, 0, '"scale": 1, "bias": 0'),
        ([0.5, 1, 0.0], np.array([0.0, -0.0, 2.0]), '"scale": [0.5, 1.0, 0.0], "bias": [0.0, -0.0, 2.0]'),
    ])
    def test_to_json_writes_the_fields_as_given(self, scale, bias, text):
        stub = PredictorStub(mode="predicates", scale=scale, bias=bias, seed=4)
        assert json.dumps(stub.to_json()) == '{"mode": "predicates", ' + text + ', "ar_coeff": 0.0, "seed": 4}'


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

    def test_row_uids_come_from_row_indices(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"calib": 4}, seed=3, out_dir=tmp_path / "ds")
        calib = load_split(out, "calib")
        assert [ep.uid for ep in calib] == [_episode_seed("calib", i) for i in range(4)]
        # every row regenerates bit for bit from its uid and the manifest's config
        cfg_back = CrossroadConfig.from_json(load_manifest(out)["config"])
        for ep in calib:
            regen = simulate_episode(cfg_back, ep.uid)
            assert ep.mu.tobytes() == regen.mu.tobytes()
            assert ep.states.tobytes() == regen.states.tobytes()

    def test_episodes_hold_read_only_copies_of_their_rows(self, tmp_path):
        out = generate_dataset(CrossroadConfig(T=6), {"calib": 3}, seed=3, out_dir=tmp_path / "ds")
        calib = load_split(out, "calib")
        table = np.load(out / "calib.npy")
        m = calib[0].m
        for ep, row in zip(calib, table):
            # The layout an ``Episode`` built from the row would have.
            assert ep.mu.flags.f_contiguous and ep.states.flags.c_contiguous
            assert ep.mu.tobytes("A") == row[:, -m:].T.tobytes("F")
            for data in (ep.mu, ep.states):
                assert data.flags.owndata and not data.flags.writeable
                with pytest.raises(ValueError):
                    data[0, 0] = 1.0
        assert not np.shares_memory(calib[0].mu, calib[1].mu)

    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_margin_rejected_wherever_it_is(self, tmp_path, row):
        out = generate_dataset(CrossroadConfig(T=6), {"calib": 3}, seed=3, out_dir=tmp_path / "ds")
        path = out / "calib.npy"
        table = np.load(path)
        table[row, 4, -1] = np.nan
        np.save(path, table)
        with pytest.raises(ValueError, match="mu contains non-finite values"):
            load_split(out, "calib")
        # States are carried, not checked, as before.
        table[row, 4, -1] = 0.0
        table[row, 4, 0] = np.inf
        np.save(path, table)
        assert np.isinf(load_split(out, "calib")[row].states[4, 0])

    def test_table_row_count_disagreeing_with_manifest_rejected(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"calib": 3}, seed=3, out_dir=tmp_path / "ds")
        path = out / "calib.npy"
        table = np.load(path)
        for rows in (table[:2], np.concatenate([table, table[:1]])):
            np.save(path, rows)
            with pytest.raises(ValueError, match=r"calib\.npy: .* manifest counts 3 'calib' episodes"):
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

    @pytest.mark.parametrize("cfg", STACKED_CASES)
    def test_writer_bytes_match_the_per_line_writer(self, tmp_path, cfg):
        # A split is simulated in one pass; each of its rows must equal the
        # episode simulated alone, bit for bit.
        counts = {"train": 60, "calib": 61, "test": 60}
        out = generate_dataset(cfg, counts, seed=4, out_dir=tmp_path / "ds")
        cfg_back = CrossroadConfig.from_json(load_manifest(out)["config"])
        assert sorted(p.name for p in out.iterdir()) == ["calib.npy", "manifest.json", "test.npy", "train.npy"]
        for split, n in counts.items():
            table = np.load(out / f"{split}.npy", allow_pickle=False)
            assert table.dtype == np.float64 and table.flags.c_contiguous
            assert table.shape == (n, cfg.T + 1, 4 + 2 * cfg.n_pedestrians + len(PREDICATE_NAMES))
            alone = [simulate_episode(cfg_back, _episode_seed(split, i)) for i in range(n)]
            assert table.tobytes() == np.stack([np.hstack([ep.states, ep.mu.T]) for ep in alone]).tobytes()

    def test_writer_without_states_matches_the_per_line_writer(self, tmp_path):
        rng = np.random.default_rng(6)
        eps = [random_episode(rng, len(PREDICATE_NAMES), 9) for _ in range(2)]
        assert eps[0].states is None
        write_split(eps, tmp_path / "calib.npy")
        assert np.load(tmp_path / "calib.npy").shape == (2, 10, len(PREDICATE_NAMES))
        back = _read_split(tmp_path / "calib.npy", "calib", 2, 10, 1.0, eps[0].predicate_names)
        for ep, got in zip(eps, back):
            assert got.states is None
            assert got.mu.tobytes() == ep.mu.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(0, 30),
        st.integers(0, 4),
        st.integers(1, 3),
    )
    def test_write_read_round_trip_is_exact(self, tmp_path_factory, seed, m, T, n_states, n):
        rng = np.random.default_rng(seed)
        eps = []
        for _ in range(n):
            ep = random_episode(rng, m, T)
            mu = ep.mu.copy()
            mu[rng.random(mu.shape) < 0.2] = -0.0
            states = rng.normal(size=(T + 1, n_states)) if n_states else None
            if states is not None:
                states[rng.random(states.shape) < 0.2] = -0.0
            eps.append(dataclasses.replace(ep, mu=mu, states=states))
        path = tmp_path_factory.mktemp("rt") / "test.npy"
        write_split(eps, path)
        back = _read_split(path, "test", n, T + 1, eps[0].dt, eps[0].predicate_names)
        assert [b.uid for b in back] == [_episode_seed("test", i) for i in range(n)]
        for ep, b in zip(eps, back):
            assert b.predicate_names == ep.predicate_names and b.dt == ep.dt
            assert b.mu.shape == ep.mu.shape
            assert b.mu.tobytes() == ep.mu.tobytes()
            if n_states:
                assert b.states.tobytes() == ep.states.tobytes()
            else:
                assert b.states is None

    def test_version_1_manifest_names_the_fix(self, tmp_path):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"calib": 1}, seed=1, out_dir=tmp_path / "ds")
        blob = json.loads((out / "manifest.json").read_text())
        for version in (1, 2):
            blob["version"] = version
            (out / "manifest.json").write_text(json.dumps(blob))
            with pytest.raises(ValueError, match=f"unsupported dataset version {version} .*ptmon simulate"):
                load_manifest(out)

    def test_used_directory_is_refused_before_simulating(self, tmp_path, monkeypatch):
        cfg = CrossroadConfig(T=20)
        out = generate_dataset(cfg, {"train": 1, "calib": 6, "test": 1}, seed=0, out_dir=tmp_path / "ds")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def no_simulation(*args):
            raise AssertionError("simulated into a used directory")

        monkeypatch.setattr(benchmark, "_simulate_split", no_simulation)
        with pytest.raises(ValueError, match="already holds episode files"):
            generate_dataset(cfg, {"train": 1, "calib": 3, "test": 1}, seed=5, out_dir=out)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("name", ["manifest.json", "train.npy", "calib.npy", "test.npy"])
    def test_any_dataset_file_makes_a_used_directory(self, tmp_path, monkeypatch, name):
        out = tmp_path / "ds"
        out.mkdir()
        (out / name).write_bytes(b"x")

        def no_simulation(*args):
            raise AssertionError("simulated into a used directory")

        monkeypatch.setattr(benchmark, "_simulate_split", no_simulation)
        with pytest.raises(ValueError, match=f"already holds episode files \\({name}\\)"):
            generate_dataset(CrossroadConfig(T=4), {"calib": 1}, seed=0, out_dir=out)
        assert [(p.name, p.read_bytes()) for p in out.iterdir()] == [(name, b"x")]

    def test_split_of_count_zero_has_no_table(self, tmp_path):
        out = generate_dataset(CrossroadConfig(T=4), {"train": 0, "calib": 2}, seed=3, out_dir=tmp_path / "ds")
        assert not (out / "train.npy").exists()
        with pytest.raises(FileNotFoundError, match="'train'"):
            load_split(out, "train")

    def test_table_step_count_disagreeing_with_manifest_rejected(self, tmp_path):
        out = generate_dataset(CrossroadConfig(T=20), {"calib": 3}, seed=3, out_dir=tmp_path / "ds")
        path = out / "calib.npy"
        table = np.load(path)
        for steps in (table[:, :-1], np.concatenate([table, table[:, -1:]], axis=1)):
            np.save(path, steps)
            with pytest.raises(ValueError, match=r"calib\.npy: .* steps per episode, but the manifest's T \+ 1 is 21"):
                load_split(out, "calib")

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((2, 5, 17), dtype=np.float32),
            np.zeros((2, 5, 17), dtype=np.int64),
            np.zeros(17),
            np.zeros((2, 5, 17, 1)),
            np.zeros((5, 17)),
            np.zeros((2, 5, 6)),
            np.zeros((0, 5, 17)),
        ],
        ids=["float32", "int64", "1-D", "4-D", "2-D", "too-few-columns", "no-rows"],
    )
    def test_malformed_episode_file_rejected(self, tmp_path, table):
        out = generate_dataset(CrossroadConfig(T=4), {"calib": 2}, seed=3, out_dir=tmp_path / "ds")
        np.save(out / "calib.npy", table)
        with pytest.raises(ValueError, match=r"calib\.npy"):
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
        path = out / "calib.npy"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=r"calib\.npy"):
            load_split(out, "calib")

    def test_object_array_rejected_without_unpickling(self, tmp_path):
        out = generate_dataset(CrossroadConfig(T=4), {"calib": 2}, seed=3, out_dir=tmp_path / "ds")
        path = out / "calib.npy"
        np.save(path, np.array([_Tripwire()], dtype=object), allow_pickle=True)
        with pytest.raises(RuntimeError, match="unpickled"):
            np.load(path, allow_pickle=True)  # unpickling the file runs code
        with pytest.raises(ValueError, match=r"calib\.npy"):
            load_split(out, "calib")


def _trip() -> None:
    raise RuntimeError("episode file was unpickled")


class _Tripwire:
    """Pickles to a call of :func:`_trip`, so unpickling it raises."""

    def __reduce__(self):
        return (_trip, ())
