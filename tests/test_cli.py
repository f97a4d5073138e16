import csv
import gc
import json
import shutil
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import ptmon.cli as cli
import ptmon.conformal as conformal
import ptmon.fragment as fragment
import ptmon.monitors as monitors
from ptmon.benchmark import PREDICATE_NAMES, PredictorStub, load_split, stub_from_json
from ptmon.cli import _parse_counts, _parse_int_list, main, read_kv_file
from ptmon.conformal import load_monitor
from ptmon.logic import parse_formula


class TestKvFile:
    def test_literals_comments_and_fallback(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# scenario overrides\n"
            "T = 24\n"
            "scale = 0.125   # inline comment\n"
            "\n"
            "label = hello world\n"
            "flag = True\n"
        )
        assert read_kv_file(path) == {
            "T": 24,
            "scale": 0.125,
            "label": "hello world",
            "flag": True,
        }

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("T = 24\njust words\n")
        with pytest.raises(ValueError, match="line 2"):
            read_kv_file(path)

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("= 3\n")
        with pytest.raises(ValueError):
            read_kv_file(path)


class TestArgHelpers:
    def test_counts(self):
        assert _parse_counts("6,8,6") == {"train": 6, "calib": 8, "test": 6}

    @pytest.mark.parametrize("text", ["6,8", "6,8,6,1", "a,8,6", "-1,8,6"])
    def test_counts_rejects(self, text):
        with pytest.raises(ValueError):
            _parse_counts(text)

    def test_int_list(self):
        assert _parse_int_list("1,2,4") == [1, 2, 4]
        assert _parse_int_list("  ") == []
        with pytest.raises(ValueError):
            _parse_int_list("1,x")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small dataset plus three calibrated models, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "scenario.txt"
    cfg.write_text("T = 24\n")
    noise = root / "noise.txt"
    noise.write_text("scale = 0.1\nbias = -0.05\nseed = 9\n")
    ds = root / "ds"

    assert main([
        "simulate", "--config", str(cfg), "--counts", "6,8,6",
        "--seed", "5", "--out", str(ds),
    ]) == 0

    common = ["calibrate", "--dataset", str(ds), "--noise", str(noise)]
    assert main(common + [
        "--monitor", "semantic", "--scope", "fragment", "--out", str(root / "sem.json"),
    ]) == 0
    assert main(common + [
        "--monitor", "rolling", "--formula", "G[0,2] p_f", "--sigma", "auto",
        "--out", str(root / "roll.json"),
    ]) == 0
    assert main(common + [
        "--monitor", "observer", "--formula", "G[0,2] p_f",
        "--out", str(root / "obs.json"),
    ]) == 0
    return root, ds, noise


class TestSimulate:
    def test_layout(self, workspace):
        root, ds, _ = workspace
        manifest = json.loads((ds / "manifest.json").read_text())
        assert manifest["counts"] == {"train": 6, "calib": 8, "test": 6}
        assert manifest["config"]["T"] == 24
        assert manifest["version"] == 3
        assert sorted(p.name for p in ds.iterdir()) == ["calib.npy", "manifest.json", "test.npy", "train.npy"]
        for split, n in (("train", 6), ("calib", 8), ("test", 6)):
            table = np.load(ds / f"{split}.npy", allow_pickle=False)
            assert table.dtype == np.float64
            assert table.shape[:2] == (n, 25) and table.shape[2] > manifest["m"]

    def test_used_directory_exit_2_and_left_as_it_was(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.txt"
        cfg.write_text("T = 8\n")
        out = tmp_path / "d"
        first = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert main(first + ["--counts", "1,6,1", "--seed", "0"]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(first + ["--counts", "1,3,1", "--seed", "5"]) == 2
        assert "already holds episode files" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_bad_counts_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--counts", "1,2", "--out", str(tmp_path / "x")]) == 2
        assert "train,calib,test" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        assert main([
            "simulate", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x"),
        ]) == 1


class TestCalibrate:
    def test_models_written_with_score_caches(self, workspace):
        root, _, _ = workspace
        for stem in ("sem", "roll", "obs"):
            model = json.loads((root / f"{stem}.json").read_text())
            assert model["version"] == conformal.MONITOR_VERSION
            assert model["predictor"] is not None
            assert (root / f"{stem}.scores.npz").exists()
        assert json.loads((root / "sem.json").read_text())["support"] is None
        assert json.loads((root / "roll.json").read_text())["formula"] == "G[0,2] p_f"

    def test_model_directory_created(self, workspace, tmp_path):
        _, ds, noise = workspace
        out = tmp_path / "models" / "sem.json"
        assert main([
            "calibrate", "--dataset", str(ds), "--monitor", "semantic", "--scope", "fragment",
            "--noise", str(noise), "--out", str(out),
        ]) == 0
        assert out.exists() and out.with_suffix(".scores.npz").exists()

    def test_observer_level1_exit_2(self, workspace, capsys):
        root, ds, noise = workspace
        code = main([
            "calibrate", "--dataset", str(ds), "--monitor", "observer",
            "--level", "1", "--formula", "G[0,2] p_f", "--noise", str(noise),
            "--out", str(root / "bad.json"),
        ])
        assert code == 2
        assert "level 2" in capsys.readouterr().err

    def test_active_scope_needs_formula(self, workspace, capsys):
        root, ds, noise = workspace
        code = main([
            "calibrate", "--dataset", str(ds), "--monitor", "rolling",
            "--noise", str(noise), "--out", str(root / "bad.json"),
        ])
        assert code == 2
        assert "--formula" in capsys.readouterr().err

    def test_unknown_noise_key_exit_2(self, workspace, tmp_path, capsys):
        root, ds, _ = workspace
        noise = tmp_path / "noise.txt"
        noise.write_text("scale = 0.1\nsigma = 3\n")
        code = main([
            "calibrate", "--dataset", str(ds), "--monitor", "semantic",
            "--scope", "fragment", "--noise", str(noise), "--out", str(root / "bad.json"),
        ])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("monitor", ["semantic", "rolling"])
    @pytest.mark.parametrize("line, message", [
        ("scale = abc", "scale must be a number or a vector of numbers, got 'abc'"),
        ("bias = -1e999", "bias must be finite, got -inf"),
        ("scale = [0.1, 0.2]", "scale has 2 entries, but "),
        ("ar_coeff = abc", "ar_coeff must lie in [0, 1)"),
    ])
    def test_malformed_noise_value_exit_2(self, workspace, tmp_path, capsys, monitor, line, message):
        """A noise value numpy cannot use is a malformed config: exit 2
        with the key named, never a traceback, and no model is written."""
        root, ds, _ = workspace
        noise = tmp_path / "noise.txt"
        noise.write_text(f"{line}\nseed = 9\n")
        out = tmp_path / "bad.json"
        code = main([
            "calibrate", "--dataset", str(ds), "--monitor", monitor, "--scope", "fragment",
            "--noise", str(noise), "--out", str(out),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "2.5"])
    def test_noise_seed_out_of_range_exit_2_before_any_split_is_read(self, workspace, tmp_path, capsys,
                                                                     monkeypatch, seed):
        _, ds, _ = workspace
        noise = tmp_path / "noise.txt"
        noise.write_text(f"scale = 0.1\nseed = {seed}\n")

        def no_split(*args):
            raise AssertionError("a split was read")

        monkeypatch.setattr(cli, "load_split", no_split)
        out = tmp_path / "bad.json"
        code = main([
            "calibrate", "--dataset", str(ds), "--monitor", "semantic", "--scope", "fragment",
            "--sigma", "auto", "--noise", str(noise), "--out", str(out),
        ])
        assert code == 2
        assert f"seed must be an integer in 0 .. 2**64 - 1, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("monitor", ["semantic", "observer"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_tau_seed_out_of_range_exit_2(self, workspace, tmp_path, capsys, monitor, seed):
        _, ds, noise = workspace
        out = tmp_path / "bad.json"
        code = main([
            "calibrate", "--dataset", str(ds), "--monitor", monitor, "--formula", "G[0,2] p_f",
            "--noise", str(noise), "--tau-seed", seed, "--out", str(out),
        ])
        assert code == 2
        assert f"tau_seed must be an integer in 0 .. 2**64 - 1, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_formula_reports_position(self, workspace, capsys):
        root, ds, noise = workspace
        code = main([
            "calibrate", "--dataset", str(ds), "--monitor", "rolling",
            "--formula", "G[0,2] p_f &", "--noise", str(noise),
            "--out", str(root / "bad.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCertify:
    def test_jsonl_verdicts(self, workspace, tmp_path, capsys):
        root, ds, _ = workspace
        out = tmp_path / "verdicts.jsonl"
        code = main([
            "certify", "--model", str(root / "sem.json"), "--dataset", str(ds),
            "--formula", "G[0,4] p_clear", "--out", str(out),
        ])
        assert code == 0
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        # 6 test episodes, one verdict per step (warm-up included)
        assert len(lines) == 6 * 25
        assert {v["episode"] for v in lines} == set(range(6))
        assert lines[0]["t"] == 0
        assert lines[0]["label"] == "warming_up"
        assert lines[0]["lb"] is None
        live = lines[16]  # first step past the history depth
        assert live["t"] == 16
        assert live["label"] in ("safe", "uncertain")
        assert isinstance(live["lb"], float)
        assert live["formula"] == "G[0,4] p_clear"
        assert "episodes" in capsys.readouterr().out

    def test_csv_single_header(self, workspace, tmp_path):
        root, ds, _ = workspace
        out = tmp_path / "verdicts.csv"
        assert main([
            "certify", "--model", str(root / "roll.json"), "--dataset", str(ds),
            "--split", "calib", "--formula", "G[0,2] p_f", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert "episode" in rows[0]
        assert sum(r[0] == "t" for r in rows) == 1
        assert len(rows) == 1 + 8 * 25

    def test_active_model_reused_on_new_formula(self, workspace, tmp_path):
        root, ds, _ = workspace
        out = tmp_path / "other.jsonl"
        assert main([
            "certify", "--model", str(root / "roll.json"), "--dataset", str(ds),
            "--formula", "F[0,1] p_goal", "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) == 6 * 25

    def test_verdicts_built_once_per_episode(self, workspace, tmp_path, monkeypatch):
        root, ds, _ = workspace
        built = []
        real = monitors.EpisodeResult.by_formula

        def counting(self, name):
            built.append(name)
            return real(self, name)

        monkeypatch.setattr(monitors.EpisodeResult, "by_formula", counting)
        assert main([
            "certify", "--model", str(root / "obs.json"), "--dataset", str(ds),
            "--formula", "G[0,2] p_f", "--out", str(tmp_path / "v.csv"),
        ]) == 0
        assert built == ["G[0,2] p_f"] * 6

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_verdicts_equal_those_written_from_the_whole_split(self, workspace, tmp_path, suffix):
        root, ds, _ = workspace
        out = tmp_path / f"v{suffix}"
        assert main([
            "certify", "--model", str(root / "roll.json"), "--dataset", str(ds),
            "--formula", "F[0,1] p_goal", "--out", str(out),
        ]) == 0
        mon = load_monitor(root / "roll.json")
        stub = stub_from_json(mon.predictor_config)
        formula = parse_formula("F[0,1] p_goal", PREDICATE_NAMES)
        results = monitors.run_monitors(load_split(ds, "test"), stub, [mon], [formula])[0]
        want = tmp_path / f"want{suffix}"
        with open(want, "w", newline="" if suffix == ".csv" else None) as fh:
            for i, result in enumerate(results):
                if suffix == ".csv":
                    monitors.write_verdicts_csv(result.verdicts, fh, header=(i == 0), episode=i)
                else:
                    monitors.write_verdicts_jsonl(result.verdicts, fh, episode=i)
        assert out.read_bytes() == want.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, want.name])

    def test_failure_midway_leaves_out_as_it_was(self, workspace, tmp_path, monkeypatch):
        root, ds, _ = workspace
        out = tmp_path / "v.jsonl"
        out.write_text('{"earlier": "verdicts"}\n')
        before = out.read_bytes()
        real_predict_block, calls = PredictorStub.predict_block, []

        def failing(self, episodes):
            calls.extend(ep.uid for ep in episodes)
            if len(calls) >= 4:
                raise ValueError("prediction failed")
            return real_predict_block(self, episodes)

        monkeypatch.setattr(PredictorStub, "predict_block", failing)
        monkeypatch.setattr(conformal, "_BLOCK_COLUMNS", 20)  # two episodes a block
        assert main([
            "certify", "--model", str(root / "sem.json"), "--dataset", str(ds),
            "--formula", "G[0,4] p_clear", "--out", str(out),
        ]) == 2
        assert len(calls) == 4
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    def test_peak_memory_flat_in_the_split(self, workspace, tmp_path, monkeypatch):
        """Each block's verdicts are written as it is certified: the
        ``tracemalloc`` peak of a certify over 8x the episodes is within
        1.25x of the peak over 1x. The episodes are loaded before tracing,
        so the peak is the certification's and the writing's."""
        root, ds, _ = workspace
        split = load_split(ds, "test")
        episodes = [replace(split[i % len(split)], uid=i) for i in range(8 * 100)]
        warm = [replace(ep, uid=ep.uid + 8 * 100) for ep in episodes]
        argv = ["certify", "--model", str(root / "sem.json"), "--dataset", str(ds), "--formula", "G[0,4] p_clear"]
        # As in the metrics module's memory test: no full collection inside a
        # measurement, and free lists filled by an untraced run over as many
        # episodes of other uids.
        gc.collect()
        monkeypatch.setattr(cli, "load_split", lambda *_: warm)
        assert main([*argv, "--out", str(tmp_path / "warm.jsonl")]) == 0
        peaks = []
        for n in (100, 8 * 100):
            monkeypatch.setattr(cli, "load_split", lambda *_: episodes[:n])
            tracemalloc.start()
            try:
                assert main([*argv, "--out", str(tmp_path / f"v{n}.jsonl")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len((tmp_path / f"v{8 * 100}.jsonl").read_text().splitlines()) == 8 * 100 * 25
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_symlinked_out_is_written_through(self, workspace, tmp_path):
        root, ds, _ = workspace
        target, link = tmp_path / "target.jsonl", tmp_path / "v.jsonl"
        target.write_text('{"earlier": "verdicts"}\n')
        link.symlink_to(target)
        argv = ["certify", "--model", str(root / "sem.json"), "--dataset", str(ds), "--formula", "G[0,4] p_clear"]
        assert main([*argv, "--out", str(link)]) == 0
        assert main([*argv, "--out", str(tmp_path / "plain.jsonl")]) == 0
        assert link.is_symlink() and target.read_bytes() == (tmp_path / "plain.jsonl").read_bytes()

    def test_existing_out_keeps_its_mode(self, workspace, tmp_path):
        root, ds, _ = workspace
        out = tmp_path / "v.csv"
        out.write_text("earlier\n")
        out.chmod(0o600)
        assert main([
            "certify", "--model", str(root / "sem.json"), "--dataset", str(ds),
            "--formula", "G[0,4] p_clear", "--out", str(out),
        ]) == 0
        assert out.stat().st_mode & 0o777 == 0o600 and out.read_text().startswith("t,formula")
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    def test_missing_model_exit_1(self, workspace, tmp_path):
        _, ds, _ = workspace
        assert main([
            "certify", "--model", str(tmp_path / "none.json"), "--dataset", str(ds),
            "--formula", "G[0,2] p_f", "--out", str(tmp_path / "v.jsonl"),
        ]) == 1

    @pytest.mark.parametrize(
        "formula", ["G[0,2] p_bogus", "G[0,3] p_f"], ids=["unknown_predicate", "outside_dictionary"]
    )
    def test_bad_formula_exit_2(self, workspace, tmp_path, formula):
        root, ds, _ = workspace
        out = tmp_path / "v.jsonl"
        out.write_text('{"earlier": "verdicts"}\n')
        before = out.read_bytes()
        assert main([
            "certify", "--model", str(root / "sem.json"), "--dataset", str(ds),
            "--formula", formula, "--out", str(out),
        ]) == 2
        assert out.read_bytes() == before


class TestReport:
    def formulas_file(self, tmp_path):
        path = tmp_path / "formulas.txt"
        path.write_text(
            "# report formulas\n"
            "G[0,2] p_f\n"
            "F[0,4] p_goal\n"
            "G[0,3] p_clear  # not a dictionary window\n"
        )
        return path

    def test_full_report(self, workspace, tmp_path, capsys):
        root, ds, _ = workspace
        formulas = self.formulas_file(tmp_path)
        out = tmp_path / "report.csv"
        models = ",".join(str(root / f"{s}.json") for s in ("sem", "roll", "obs"))
        code = main([
            "report", "--models", models, "--dataset", str(ds),
            "--formulas", str(formulas), "--sweep", "1,2,4", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0

        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # the semantic monitor has no G[0,3] atom; history monitors do
        assert len(rows) == 8
        assert "sem" in captured.err and "G[0,3] p_clear" in captured.err
        certified = {(r["monitor"], r["formula"]) for r in rows}
        assert ("sem", "G[0,3] p_clear") not in certified
        assert ("roll", "G[0,3] p_clear") in certified
        for r in rows:
            assert float(r["q_phi"]) > 0
            assert 0 <= float(r["csr"]) <= 100

        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert len(sidecar) == 8

        with open(tmp_path / "report_sweep.csv") as fh:
            sweep = list(csv.DictReader(fh))
        # every monitor covers K in {1,2,4}
        assert len(sweep) == 9
        by_mon = {}
        for r in sweep:
            by_mon.setdefault(r["monitor"], []).append(float(r["q_phi"]))
        assert set(by_mon) == {"sem", "roll", "obs"}

    def test_duplicate_formula_reported_once(self, workspace, tmp_path):
        root, ds, _ = workspace
        formulas = tmp_path / "dups.txt"
        formulas.write_text("G[0,4] p_clear\nF[0,2] p_f\nG[0,4] p_clear\n")
        out = tmp_path / "dups.csv"
        models = ",".join(str(root / f"{s}.json") for s in ("sem", "roll"))
        assert main([
            "report", "--models", models, "--dataset", str(ds),
            "--formulas", str(formulas), "--sweep", "", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = [(r["monitor"], r["formula"]) for r in csv.DictReader(fh)]
        assert rows == [
            (mon, f) for mon in ("sem", "roll") for f in ("G[0,4] p_clear", "F[0,2] p_f")
        ]

    def test_models_sharing_a_predictor_share_one_pass(self, workspace, tmp_path, monkeypatch):
        root, ds, noise = workspace
        formulas = self.formulas_file(tmp_path)
        # An observer like obs.json, but predicted with another noise seed.
        reseeded = tmp_path / "noise.txt"
        reseeded.write_text(noise.read_text().replace("seed = 9", "seed = 10"))
        assert main([
            "calibrate", "--dataset", str(ds), "--noise", str(reseeded), "--monitor", "observer",
            "--formula", "G[0,2] p_f", "--out", str(tmp_path / "reseeded.json"),
        ]) == 0
        predictions = Counter()
        real_predict_block = PredictorStub.predict_block

        def counting_predict_block(self, episodes):
            predictions.update(ep.uid for ep in episodes)
            return real_predict_block(self, episodes)

        monkeypatch.setattr(PredictorStub, "predict_block", counting_predict_block)

        def report(*models):
            """The JSON rows of a report over ``models``, and how many times
            each test episode was predicted for it."""
            predictions.clear()
            out = tmp_path / "reports" / ("-".join(m.stem for m in models) + ".csv")
            out.parent.mkdir(exist_ok=True)
            assert main([
                "report", "--models", ",".join(map(str, models)), "--dataset", str(ds),
                "--formulas", str(formulas), "--sweep", "", "--out", str(out),
            ]) == 0
            return json.loads(out.with_suffix(".json").read_text()), Counter(predictions.values())

        n_test = len(load_split(ds, "test"))
        roll, obs, reseeded = root / "roll.json", root / "obs.json", tmp_path / "reseeded.json"
        alone = {m: report(m)[0] for m in (roll, obs, reseeded)}
        rows, per_episode = report(roll, obs)
        assert per_episode == {1: n_test}
        assert rows == alone[roll] + alone[obs]
        rows, per_episode = report(roll, reseeded)
        assert per_episode == {2: n_test}
        assert rows == alone[roll] + alone[reseeded]
        assert alone[reseeded] != alone[obs]

    def report_rows(self, tmp_path, ds, formulas, models, stem):
        """The JSON rows of a report over ``models``, by model name."""
        out = tmp_path / f"{stem}.csv"
        assert main([
            "report", "--models", ",".join(map(str, models)), "--dataset", str(ds),
            "--formulas", str(formulas), "--sweep", "", "--out", str(out),
        ]) == 0
        rows = json.loads(out.with_suffix(".json").read_text())
        assert [r["monitor"] for r in rows] == sorted((r["monitor"] for r in rows), key=[m.stem for m in models].index)
        return {m.stem: [r for r in rows if r["monitor"] == m.stem] for m in models}

    def test_reversed_models_give_each_model_its_rows(self, workspace, tmp_path, monkeypatch):
        root, ds, _ = workspace
        formulas = self.formulas_file(tmp_path)
        models = [root / f"{s}.json" for s in ("sem", "roll", "obs")]
        passes = []
        real = cli.evaluate_monitors

        def counting(models, *args, **kwargs):
            passes.append([name for name, _, _ in models])
            return real(models, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_monitors", counting)
        given = self.report_rows(tmp_path, ds, formulas, models, "given")
        reversed_ = self.report_rows(tmp_path, ds, formulas, models[::-1], "reversed")
        assert given == reversed_ and sum(map(len, given.values())) == 8
        # One pass for all three models, in --models order.
        assert passes == [["sem", "roll", "obs"], ["obs", "roll", "sem"]]

    def test_models_of_another_k_max_take_their_own_pass(self, workspace, tmp_path, monkeypatch):
        root, ds, noise = workspace
        formulas = tmp_path / "deep.txt"
        formulas.write_text("G[0,2] p_f\nG[0,20] p_f\n")
        # An observer reading 20 steps back, past the dataset's k_max of 16.
        deep = tmp_path / "deep.json"
        assert main([
            "calibrate", "--dataset", str(ds), "--noise", str(noise), "--monitor", "observer",
            "--formula", "G[0,20] p_f", "--out", str(deep),
        ]) == 0
        models = [root / "sem.json", deep, root / "roll.json"]
        passes = []
        real = cli.evaluate_monitors

        def counting(models, *args, **kwargs):
            passes.append([name for name, _, _ in models])
            return real(models, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_monitors", counting)
        together = self.report_rows(tmp_path, ds, formulas, models, "together")
        assert passes == [["sem", "roll"], ["deep"]]
        alone = {m.stem: self.report_rows(tmp_path, ds, formulas, [m], m.stem)[m.stem] for m in models}
        assert together == alone
        assert [r["formula"] for r in together["deep"]] == ["G[0,2] p_f", "G[0,20] p_f"]
        assert [r["formula"] for r in together["roll"]] == ["G[0,2] p_f"]

    def test_history_models_share_decoders(self, workspace, tmp_path, monkeypatch):
        # Each formula's decoder generates one batch read-out per layout:
        # the rolling and observer models read one history layout, so they
        # share its decoders, and the semantic model has its dictionary's.
        root, ds, _ = workspace
        formulas = tmp_path / "shared.txt"
        # Formulas no other test certifies, so no decoder of them exists yet;
        # the last one is outside the semantic dictionary.
        formulas.write_text("G[0,4] p_goal & F[0,8] p_f | G[0,1] p_clear\nF[0,2] p_goal & F[0,1] p_f\n"
                            "G[1,3] p_clear | F[0,2] p_goal\n")
        sources = []

        def recording(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(fragment, "exec", recording, raising=False)
        out = tmp_path / "shared.csv"
        models = ",".join(str(root / f"{s}.json") for s in ("sem", "roll", "obs"))
        assert main([
            "report", "--models", models, "--dataset", str(ds),
            "--formulas", str(formulas), "--sweep", "", "--out", str(out),
        ]) == 0
        assert len(json.loads(out.with_suffix(".json").read_text())) == 8
        # Two semantic decoders and three history ones, against eight when
        # each model compiled its own.
        assert len(sources) == 5 and all(s.startswith("def read_series") for s in sources)

    def test_sweep_skipped_when_empty(self, workspace, tmp_path):
        root, ds, _ = workspace
        formulas = self.formulas_file(tmp_path)
        out = tmp_path / "nosweep.csv"
        assert main([
            "report", "--models", str(root / "sem.json"), "--dataset", str(ds),
            "--formulas", str(formulas), "--sweep", "", "--out", str(out),
        ]) == 0
        assert not (tmp_path / "nosweep_sweep.csv").exists()

    def test_unknown_sweep_predicate_exit_2(self, workspace, tmp_path, capsys):
        root, ds, _ = workspace
        formulas = self.formulas_file(tmp_path)
        code = main([
            "report", "--models", str(root / "sem.json"), "--dataset", str(ds),
            "--formulas", str(formulas), "--sweep-predicate", "p_nope",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert "p_nope" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", ["model_without_cache", "unknown_sweep_predicate"])
    def test_failed_report_writes_nothing(self, workspace, tmp_path, capsys, failure):
        root, ds, _ = workspace
        formulas = self.formulas_file(tmp_path)
        model, extra, message = root / "sem.json", ["--sweep-predicate", "p_nope"], "p_nope"
        if failure == "model_without_cache":
            obj = json.loads(model.read_text())
            obj["score_cache_path"] = None
            model, extra, message = tmp_path / "sem.json", [], "no score cache"
            model.write_text(json.dumps(obj))
        out = tmp_path / "r.csv"
        code = main([
            "report", "--models", str(model), "--dataset", str(ds),
            "--formulas", str(formulas), "--sweep", "1,2", *extra, "--out", str(out),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".json").exists()
        assert not (tmp_path / "r_sweep.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_coverage_seed_out_of_range_exit_2_and_writes_nothing(self, workspace, tmp_path, capsys, seed):
        root, ds, _ = workspace
        out = tmp_path / "r.csv"
        code = main([
            "report", "--models", str(root / "sem.json"), "--dataset", str(ds),
            "--formulas", str(self.formulas_file(tmp_path)), "--coverage-seed", seed, "--out", str(out),
        ])
        assert code == 2
        assert f"coverage_seed must be an integer in 0 .. 2**64 - 1, got {seed}" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists() and not (tmp_path / "r_sweep.csv").exists()

    def test_models_with_one_stem_exit_2(self, workspace, tmp_path, capsys):
        root, ds, _ = workspace
        other = tmp_path / "other"
        other.mkdir()
        # a rolling model saved as other/sem.json, next to its own score cache
        shutil.copy(root / "roll.json", other / "sem.json")
        shutil.copy(root / "roll.scores.npz", other / "roll.scores.npz")
        out = tmp_path / "r.csv"
        code = main([
            "report", "--models", f"{root / 'sem.json'},{other / 'sem.json'}",
            "--dataset", str(ds), "--formulas", str(self.formulas_file(tmp_path)),
            "--out", str(out),
        ])
        assert code == 2
        assert "'sem'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entries, index", [("{sem},", 2), (",{sem}", 1), ("{sem}, ,{sem}", 2)])
    def test_empty_model_entry_exit_2(self, workspace, tmp_path, capsys, entries, index):
        root, ds, _ = workspace
        models = entries.format(sem=root / "sem.json")
        out = tmp_path / "r.csv"
        code = main([
            "report", "--models", models, "--dataset", str(ds),
            "--formulas", str(self.formulas_file(tmp_path)), "--out", str(out),
        ])
        assert code == 2
        assert f"--models: entry {index} of {models!r} is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_formula_file_exit_2(self, workspace, tmp_path):
        root, ds, _ = workspace
        formulas = tmp_path / "empty.txt"
        formulas.write_text("# nothing here\n")
        assert main([
            "report", "--models", str(root / "sem.json"), "--dataset", str(ds),
            "--formulas", str(formulas), "--out", str(tmp_path / "r.csv"),
        ]) == 2

    def test_missing_formula_file_exit_1(self, workspace, tmp_path):
        root, ds, _ = workspace
        assert main([
            "report", "--models", str(root / "sem.json"), "--dataset", str(ds),
            "--formulas", str(tmp_path / "none.txt"), "--out", str(tmp_path / "r.csv"),
        ]) == 1


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--monitor", "semantic"])
        assert exc.value.code == 2

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--dataset", "x", "--monitor", "magic", "--out", "y"])
        assert exc.value.code == 2
