#!/usr/bin/env python3
"""Write the outputs that must stay byte-identical between a commit and its parent.

One process imports ``ptmon`` from ``--src`` (and exits 2, writing nothing,
if it is found elsewhere), runs the README walkthrough through ``ptmon.cli``
with RuntimeWarnings as errors, then streams every calib episode through
``semantic_certify``, ``rolling_certify`` and ``observer_certify``, one
``t formula repr(lb) label`` line per verdict. Compare a change with its parent:

    mkdir -p /tmp/base && git archive <parent> src | tar -x -C /tmp/base
    python3 scripts/output_fingerprint.py --src /tmp/base/src --out /tmp/out-base
    python3 scripts/output_fingerprint.py --src src --out /tmp/out-head
    diff -r /tmp/out-base /tmp/out-head
"""

import argparse
import sys
import tempfile
import warnings
from pathlib import Path

FORMULAS = ("G[0,2] p_f", "F[0,4] p_goal")
# The two-atom formula gives the restricted read-outs of roll and obs a min
# node over several support coordinates.
STREAMED = FORMULAS + ("G[0,2] p_f & F[0,4] p_goal",)
# History models drop this step of each episode: buffer reset and re-warm-up.
DROPPED_STEP = 30


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the ptmon package to run")
    ap.add_argument("--out", required=True, help="directory to write the outputs into")
    args = ap.parse_args(argv)
    src, out = Path(args.src).resolve(), Path(args.out).resolve()
    sys.path.insert(0, str(src))
    import ptmon

    if not Path(ptmon.__file__).resolve().is_relative_to(src):
        print(f"error: ptmon imported from {ptmon.__file__}, not from {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as inputs:
        noise, formulas = Path(inputs, "noise.txt"), Path(inputs, "formulas.txt")
        noise.write_text("scale = 0.1\nbias = -0.05\nseed = 9\n")
        formulas.write_text("".join(f + "\n" for f in FORMULAS))
        batch(out, str(noise), str(formulas))
    stream(out)
    return 0


def batch(out: Path, noise: str, formulas: str) -> None:
    from ptmon.cli import main as cli

    data, models = str(out / "data" / "crossroad"), out / "models"

    def calibrate(model, *options):
        return ["calibrate", "--dataset", data, "--noise", noise, *options,
                "--out", str(models / f"{model}.json")]

    runs = [
        ["simulate", "--counts", "4,20,4", "--seed", "0", "--out", data],
        # --sigma auto predicts the train split in blocks (estimate_sigma).
        calibrate("sem", "--monitor", "semantic", "--scope", "fragment", "--sigma", "auto"),
        # Level 1 reads whole episodes; at alpha 0.5 some calib episodes are
        # not covered, so the report's level-1 coverage count is exercised.
        calibrate("sem1", "--monitor", "semantic", "--scope", "active",
                  "--formula", "G[0,2] p_f", "--level", "1", "--alpha", "0.5"),
        calibrate("roll", "--monitor", "rolling", "--level", "2",
                  "--formula", "G[0,2] p_f", "--sigma", "auto"),
        # Level-1 history: whole-episode predicate-history bases.
        calibrate("roll1", "--monitor", "rolling", "--scope", "fragment",
                  "--level", "1", "--sigma", "auto"),
        calibrate("obs", "--monitor", "observer", "--formula", "G[0,2] p_f"),
        ["certify", "--model", str(models / "sem.json"), "--dataset", data,
         "--formula", "G[0,4] p_clear", "--out", str(out / "verdicts.jsonl")],
        ["report", "--models", ",".join(str(models / f"{m}.json") for m in ("sem", "sem1", "roll", "roll1", "obs")),
         "--dataset", data, "--formulas", formulas, "--split", "calib", "--sweep", "",
         "--out", str(out / "report_calib.csv")],
    ]
    for run in runs:
        if cli(run) != 0:
            raise SystemExit(f"ptmon {run[0]} failed")


def stream(out: Path) -> None:
    import numpy as np

    from ptmon.benchmark import load_manifest, load_split, stub_from_json
    from ptmon.conformal import load_monitor
    from ptmon.logic import parse_formula
    from ptmon.monitors import RollingBuffer, observer_certify, rolling_certify, semantic_certify
    from ptmon.robustness import BasisKind, BasisVector

    data = out / "data" / "crossroad"
    names = tuple(load_manifest(data)["predicate_names"])
    formulas = [parse_formula(text, names) for text in STREAMED]
    episodes = load_split(data, "calib")
    for model in ("sem", "roll", "obs"):
        mon = load_monitor(out / "models" / f"{model}.json")
        stub = stub_from_json(mon.predictor_config, dictionary=mon.dictionary)
        # As in ptmon report, other formulas go to a for_formula copy.
        certifying = [(f, mon.monitor_for(f)) for f in formulas]
        certify = observer_certify if model == "obs" else rolling_certify
        with open(out / f"stream_{model}.txt", "w") as lines:
            for ep in episodes:
                predicted = np.asarray(stub.predict(ep))
                buf = RollingBuffer(mon.m, mon.k_max)
                for t in range(ep.T + 1):
                    if model == "sem":
                        values = predicted[:, t - mon.k_max] if t >= mon.k_max else np.zeros(mon.dim)
                        basis = BasisVector(BasisKind.SEMANTIC, values, t)
                        verdicts = [semantic_certify(basis, m, f) for f, m in certifying]
                    else:
                        if t == DROPPED_STEP:
                            buf.mark_dropped()
                        else:
                            buf.push(predicted[:, t])
                        verdicts = [certify(buf, m, f) for f, m in certifying]
                    for v in verdicts:
                        lines.write(f"{v.t} {v.formula} {v.lower_bound!r} {v.label.value}\n")


if __name__ == "__main__":
    sys.exit(main())
